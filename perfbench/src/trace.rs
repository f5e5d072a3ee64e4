//! In-memory spans recorded by the benchmark around calls into each
//! crate's public functions, written out when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call: nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, such as `core.anneal`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request (or plan) this span belongs to.
    pub req: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    #[must_use]
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// A span recorder. Spans nest through an explicit stack: a span opened
/// inside another's closure becomes its child.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    counters: Vec<(&'static str, u64, u64)>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            counters: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name` for request `req`.
    pub fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        let index = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.stack.last().copied(),
            req,
        });
        self.stack.push(index);
        let out = f(self);
        self.stack.pop();
        self.spans[index].end = self.now();
        out
    }

    /// Adds `value` to counter `name` of request `req`, recorded at the
    /// same boundary as the spans.
    pub fn count(&mut self, name: &'static str, req: u64, value: u64) {
        self.counters.push((name, req, value));
    }

    /// The total of counter `name` for request `req`.
    #[must_use]
    pub fn counter(&self, name: &str, req: u64) -> u64 {
        self.counters
            .iter()
            .filter(|(n, r, _)| *n == name && *r == req)
            .map(|(_, _, v)| v)
            .sum()
    }

    /// Every recorded span, in opening order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span (nanoseconds), in opening order.
    #[must_use]
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent].push((span.start, span.end));
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .map(|(span, kids)| self_time((span.start, span.end), kids))
            .collect()
    }

    /// Sum of the self times of spans named `name` belonging to `req`.
    #[must_use]
    pub fn self_ns(&self, self_times: &[u64], name: &str, req: u64) -> u64 {
        self.spans
            .iter()
            .zip(self_times)
            .filter(|(s, _)| s.name == name && s.req == req)
            .map(|(_, t)| t)
            .sum()
    }

    /// Sum of the durations of spans named `name` belonging to `req`.
    #[must_use]
    pub fn total_ns(&self, name: &str, req: u64) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.req == req)
            .map(Span::duration)
            .sum()
    }

    /// The spans as JSON lines, one object per span.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let self_times = self.self_times();
        let mut out = String::new();
        for (i, (span, self_ns)) in self.spans.iter().zip(self_times).enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{},\"self_ns\":{self_ns}}}",
                span.name, span.start, span.end, span.req
            );
        }
        out
    }
}

/// Self time of a span over `[start, end)`: its duration minus the part
/// of that interval its children cover. Children may overlap one another
/// (concurrent work) or spill past the parent; each instant is counted
/// once and only inside the parent.
#[must_use]
pub fn self_time(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (start, end) = parent;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in clipped {
        if e > reach {
            covered += e - s.max(reach);
            reach = e;
        }
    }
    (end - start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_disjoint_children() {
        assert_eq!(self_time((0, 100), &[(10, 20), (50, 80)]), 60);
        assert_eq!(self_time((0, 100), &[]), 100);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // [10,40) and [30,60) overlap on [30,40): together they cover 50.
        assert_eq!(self_time((0, 100), &[(30, 60), (10, 40)]), 50);
        // A child nested inside another covers nothing extra.
        assert_eq!(self_time((0, 100), &[(10, 90), (20, 30)]), 20);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        assert_eq!(self_time((50, 100), &[(0, 60), (90, 200)]), 30);
        assert_eq!(self_time((50, 100), &[(0, 40)]), 50);
    }

    #[test]
    fn tracer_nests_spans_and_reports_self_time() {
        let mut tracer = Tracer::new();
        tracer.span("root", 7, |t| {
            t.span("child", 7, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].parent, None);
        let self_times = tracer.self_times();
        assert_eq!(self_times[0] + spans[1].duration(), spans[0].duration());
        assert_eq!(tracer.self_ns(&self_times, "child", 7), spans[1].duration());
        assert_eq!(tracer.total_ns("child", 8), 0);
        assert_eq!(tracer.to_jsonl().lines().count(), 2);
    }
}
