//! A minimal, dependency-free JSON reader for the wire protocol.
//!
//! The workspace builds without crates.io access, so the daemon carries
//! its own parser: a strict recursive-descent reader producing a
//! [`Json`] tree. Two deliberate choices keep it honest for this use:
//!
//! * **Numbers keep their literal text.** Seeds are full-range `u64`s;
//!   routing them through `f64` would silently round values above 2⁵³
//!   and split or merge cache keys. [`Json::as_u64`] parses the literal
//!   directly.
//! * **Strictness over leniency.** Trailing garbage, unterminated
//!   strings, bare words, and deep nesting are all hard errors — a
//!   malformed frame must become a typed protocol error, never a
//!   half-parsed request.

/// Maximum container nesting the reader accepts; the protocol never
/// nests more than two levels, so this only bounds hostile input.
const MAX_DEPTH: usize = 32;

/// One parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its literal text (see the module docs).
    Num(String),
    /// A string (escapes resolved).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in declaration order (duplicate keys rejected).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one complete JSON document; trailing non-whitespace is an
    /// error.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the byte offset of the problem.
    pub fn parse(text: &str) -> Result<Self, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing characters at byte {pos}"));
        }
        Ok(value)
    }

    /// Looks a key up in an object (`None` for other variants).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Self::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Self::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Self::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer literal
    /// in range (exact — no float round trip).
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Self::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Self::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {}", b as char, *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    if depth > MAX_DEPTH {
        return Err("nesting too deep".to_owned());
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_owned()),
        Some(b'{') => parse_object(bytes, pos, depth),
        Some(b'[') => parse_array(bytes, pos, depth),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(c) if *c == b'-' || c.is_ascii_digit() => parse_number(bytes, pos),
        Some(c) => Err(format!("unexpected `{}` at byte {}", *c as char, *pos)),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, word: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut pairs: Vec<(String, Json)> = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(pairs));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        if pairs.iter().any(|(k, _)| *k == key) {
            return Err(format!("duplicate key `{key}`"));
        }
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos, depth + 1)?;
        pairs.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {}", *pos)),
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth + 1)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {}", *pos)),
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        let Some(&b) = bytes.get(*pos) else {
            return Err("unterminated string".to_owned());
        };
        *pos += 1;
        match b {
            b'"' => return Ok(out),
            b'\\' => {
                let Some(&esc) = bytes.get(*pos) else {
                    return Err("unterminated escape".to_owned());
                };
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let first = parse_hex4(bytes, pos)?;
                        let code = if (0xD800..0xDC00).contains(&first) {
                            // High surrogate: require the paired low one.
                            if bytes.get(*pos) == Some(&b'\\') && bytes.get(*pos + 1) == Some(&b'u')
                            {
                                *pos += 2;
                                let second = parse_hex4(bytes, pos)?;
                                if !(0xDC00..0xE000).contains(&second) {
                                    return Err("unpaired surrogate".to_owned());
                                }
                                0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00)
                            } else {
                                return Err("unpaired surrogate".to_owned());
                            }
                        } else if (0xDC00..0xE000).contains(&first) {
                            return Err("unpaired surrogate".to_owned());
                        } else {
                            first
                        };
                        out.push(char::from_u32(code).ok_or_else(|| "bad code point".to_owned())?);
                    }
                    other => return Err(format!("bad escape `\\{}`", other as char)),
                }
            }
            0x00..=0x1F => return Err("raw control character in string".to_owned()),
            _ => {
                // Re-borrow the full UTF-8 sequence starting one byte back.
                let start = *pos - 1;
                let rest = &bytes[start..];
                let s = std::str::from_utf8(&rest[..rest.len().min(4)]).map_or_else(
                    |e| {
                        if e.valid_up_to() == 0 {
                            Err("invalid utf-8 in string".to_owned())
                        } else {
                            Ok(std::str::from_utf8(&rest[..e.valid_up_to()]).expect("validated"))
                        }
                    },
                    Ok,
                )?;
                let c = s
                    .chars()
                    .next()
                    .ok_or_else(|| "invalid utf-8 in string".to_owned())?;
                out.push(c);
                *pos = start + c.len_utf8();
            }
        }
    }
}

fn parse_hex4(bytes: &[u8], pos: &mut usize) -> Result<u32, String> {
    if bytes.len() < *pos + 4 {
        return Err("truncated \\u escape".to_owned());
    }
    let hex =
        std::str::from_utf8(&bytes[*pos..*pos + 4]).map_err(|_| "bad \\u escape".to_owned())?;
    let v = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape".to_owned())?;
    *pos += 4;
    Ok(v)
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let int_start = *pos;
    let int_digits = eat_digits(bytes, pos);
    if int_digits == 0 || (int_digits > 1 && bytes[int_start] == b'0') {
        return Err(format!("bad number at byte {start}"));
    }
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        if eat_digits(bytes, pos) == 0 {
            return Err(format!("bad number at byte {start}"));
        }
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if eat_digits(bytes, pos) == 0 {
            return Err(format!("bad number at byte {start}"));
        }
    }
    let raw = std::str::from_utf8(&bytes[start..*pos]).expect("digits are ascii");
    Ok(Json::Num(raw.to_owned()))
}

fn eat_digits(bytes: &[u8], pos: &mut usize) -> usize {
    let start = *pos;
    while matches!(bytes.get(*pos), Some(b) if b.is_ascii_digit()) {
        *pos += 1;
    }
    *pos - start
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_protocol_shapes() {
        let j = Json::parse(
            r#"{"op":"plan","circuit":"quadrant a\nrow 1 2\n","exchange":true,"psi":2,"seed":42}"#,
        )
        .unwrap();
        assert_eq!(j.get("op").and_then(Json::as_str), Some("plan"));
        assert_eq!(
            j.get("circuit").and_then(Json::as_str),
            Some("quadrant a\nrow 1 2\n")
        );
        assert_eq!(j.get("exchange").and_then(Json::as_bool), Some(true));
        assert_eq!(j.get("psi").and_then(Json::as_u64), Some(2));
        assert_eq!(j.get("missing"), None);
    }

    #[test]
    fn u64_survives_beyond_f64_precision() {
        let j = Json::parse(r#"{"seed":18446744073709551615}"#).unwrap();
        assert_eq!(j.get("seed").and_then(Json::as_u64), Some(u64::MAX));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "{\"a\":1,}",
            "[1 2]",
            "{\"a\":1} trailing",
            "{\"a\":1,\"a\":2}",
            "\"unterminated",
            "{\"a\":01}",
            "nul",
            "\"bad \\x escape\"",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn depth_is_bounded() {
        let deep = "[".repeat(64) + &"]".repeat(64);
        assert!(Json::parse(&deep).is_err());
    }

    #[test]
    fn escapes_round_trip_through_the_writer() {
        use copack_obs::write_json_str;
        let original = "a\"b\\c\nd\te\u{1}f µ 💡";
        let mut encoded = String::new();
        write_json_str(&mut encoded, original);
        let parsed = Json::parse(&encoded).unwrap();
        assert_eq!(parsed.as_str(), Some(original));
    }

    #[test]
    fn surrogate_pairs_decode() {
        let j = Json::parse("\"\\ud83d\\udca1\"").unwrap();
        assert_eq!(j.as_str(), Some("💡"));
        assert!(Json::parse("\"\\ud83d alone\"").is_err());
    }

    #[test]
    fn numbers_parse_as_floats_too() {
        let j = Json::parse(r#"{"x":-1.5e3}"#).unwrap();
        assert_eq!(j.get("x").and_then(Json::as_f64), Some(-1500.0));
        assert_eq!(j.get("x").and_then(Json::as_u64), None);
    }
}
