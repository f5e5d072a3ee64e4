//! The copack repo benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload package-large --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Run from the repository root. The benchmark builds the real `copack`
//! binary from source, generates its inputs from `--seed` with
//! `copack-gen`, drives the binary for `--seconds`, checks every output,
//! and prints one line per metric followed by a JSON summary as the last
//! line. `--trace 1` runs the per-layer variant, which also writes its
//! spans to `.perfbench/<workload>-<seed>.spans.jsonl`. See `README.md`.

mod package;
mod proc;
mod serve;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;

/// Workload names, fixed: later changes cite them.
const WORKLOADS: [&str; 3] = ["package-large", "package-table1", "serve-mixed"];

/// End-to-end metrics and units (the untraced run reports all of them).
const END_TO_END: [(&str, &str); 11] = [
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("work_p50_ms", "ms"),
    ("rate_rps", "1/s"),
    ("rss_mb", "MB"),
    ("ok_share", "share"),
    ("max_density", "count"),
    ("wirelength_um", "um"),
    ("ir_drop_mv", "mV"),
    ("cutline_max", "count"),
];

/// Per-layer metrics and units (the traced run reports all of them; a
/// layer a workload never calls reads 0).
const PER_LAYER: [(&str, &str); 25] = [
    ("cli.residual_ms", "ms"),
    ("io.parse_ms", "ms"),
    ("core.assign_ms", "ms"),
    ("core.anneal_ms", "ms"),
    ("core.anneal_setup_ms", "ms"),
    ("core.anneal_moves", "count"),
    ("core.anneal_moves_per_s", "1/s"),
    ("core.anneal_accept_ratio", "ratio"),
    ("core.warm_ms", "ms"),
    ("power.ir_solve_ms", "ms"),
    ("power.ir_solves", "count"),
    ("route.analyze_ms", "ms"),
    ("route.cutline_ms", "ms"),
    ("serve.decode_us", "us"),
    ("serve.key_us", "us"),
    ("serve.lookup_us", "us"),
    ("serve.encode_us", "us"),
    ("serve.execute_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.hit_ratio", "ratio"),
    ("serve.coalesced", "count"),
    ("serve.rejected", "count"),
    ("serve.rss_bytes_per_req", "B"),
    ("bench.gen_late_ms", "ms"),
    ("bench.trace_overhead_pct", "%"),
];

/// Named metric values with units, in insertion order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, String)>);

impl Metrics {
    /// An empty set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `name = value unit`.
    pub fn put(&mut self, name: &str, value: f64, unit: &str) {
        self.0.push((name.to_owned(), value, unit.to_owned()));
    }

    fn get(&self, name: &str) -> Option<&(String, f64, String)> {
        self.0.iter().find(|(n, _, _)| n == name)
    }
}

/// What one run of a workload measured.
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// The measured metrics.
    pub metrics: Metrics,
    /// Human-readable context lines printed before the metrics.
    pub notes: Vec<String>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_owned();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (workloads: {})",
            WORKLOADS.join(", ")
        ));
    }
    let seed = value("--seed")?
        .parse()
        .map_err(|_| "--seed expects an integer")?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|_| "--seconds expects a number")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds expects a number in (0, 600]".to_owned());
    }
    let trace = match value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        _ => return Err("--trace expects 0 or 1".to_owned()),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Formats the summary line, checking that `expected` names are all
/// present and finite. Per-layer metrics a workload never touches are
/// filled with 0.
fn summary(
    outcome: &Outcome,
    expected: &[(&str, &str)],
    fill_missing: bool,
) -> Result<String, String> {
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.attempted, outcome.failed
    );
    for (i, (name, unit)) in expected.iter().enumerate() {
        let value = match outcome.metrics.get(name) {
            Some((_, value, got_unit)) if got_unit == unit => *value,
            Some((_, _, got_unit)) => {
                return Err(format!("{name}: unit {got_unit}, expected {unit}"))
            }
            None if fill_missing => 0.0,
            None => return Err(format!("{name} was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("{name} is not finite: {value}"));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    json.push_str("}}");
    Ok(json)
}

fn run(args: &Args) -> Result<String, String> {
    let bin = proc::build_copack()?;
    let work = PathBuf::from(".perfbench").join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let mut tracer = trace::Tracer::new();
    let result = match (args.workload.as_str(), args.trace) {
        ("serve-mixed", false) => serve::run(&bin, args.seed, args.seconds),
        ("serve-mixed", true) => serve::run_traced(&bin, args.seed, args.seconds, &mut tracer),
        (workload, false) => package::run(&bin, &work, workload, args.seed, args.seconds),
        (workload, true) => {
            package::run_traced(&bin, &work, workload, args.seed, args.seconds, &mut tracer)
        }
    };
    let _ = std::fs::remove_dir_all(&work);
    let outcome = result?;
    if args.trace {
        let path = PathBuf::from(".perfbench")
            .join(format!("{}-{}.spans.jsonl", args.workload, args.seed));
        std::fs::write(&path, tracer.to_jsonl()).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote {} ({} spans)", path.display(), tracer.spans().len());
    }
    let expected: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for note in &outcome.notes {
        println!("{}: {note}", args.workload);
    }
    for (name, unit) in expected {
        if let Some((_, value, _)) = outcome.metrics.get(name) {
            println!("{}: {name} = {value:.6} {unit}", args.workload);
        }
    }
    summary(&outcome, expected, args.trace)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some(proc::SPAWN_FLAG) {
        if let Err(e) = proc::spawn_main(&argv[1..]) {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
        return;
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            // A failed command or output check fails the run.
            eprintln!("perfbench: {}: {e}", args.workload);
            println!("{{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {{}}}}");
            std::process::exit(1);
        }
    }
}
