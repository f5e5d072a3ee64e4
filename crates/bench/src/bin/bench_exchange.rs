//! Machine-readable exchange-kernel benchmark: runs the incremental
//! [`exchange`] and the from-scratch [`exchange_reference`] on every
//! Table 1 circuit (ψ = 1 and ψ = 4), checks they produce identical
//! results, and writes wall time and moves/second per configuration to
//! `BENCH_exchange.json` for tracking across commits.
//!
//! The runs are strictly serial — concurrent timing on a shared machine
//! would corrupt the numbers.
//!
//! Run with `cargo run --release -p copack-bench --bin bench_exchange`.

use std::fmt::Write as _;
use std::time::Instant;

use copack_core::{
    dfa, exchange, exchange_reference, exchange_traced, CancelToken, ExchangeConfig,
    ExchangeResult, Schedule,
};
use copack_gen::{circuits, large_circuit};
use copack_geom::{Assignment, Quadrant, StackConfig};
use copack_obs::{replay_final_cost, split_runs, JsonlSink, TraceBuffer};

/// One timed run: wall seconds and the proposed-move count.
struct Timing {
    seconds: f64,
    moves: usize,
}

fn time_runs<F>(runs: usize, f: F) -> (Timing, ExchangeResult)
where
    F: Fn() -> ExchangeResult,
{
    // One warm-up, then the timed repetitions.
    let mut result = f();
    let start = Instant::now();
    for _ in 0..runs {
        result = f();
    }
    let seconds = start.elapsed().as_secs_f64() / runs as f64;
    let moves = result.stats.proposed;
    (Timing { seconds, moves }, result)
}

fn json_timing(out: &mut String, key: &str, t: &Timing) {
    let _ = write!(
        out,
        "\"{key}\": {{\"seconds\": {:.6}, \"moves\": {}, \"moves_per_sec\": {:.1}}}",
        t.seconds,
        t.moves,
        t.moves as f64 / t.seconds.max(1e-12)
    );
}

fn bench_pair(
    quadrant: &Quadrant,
    initial: &Assignment,
    stack: &StackConfig,
    config: &ExchangeConfig,
    runs: usize,
) -> (Timing, Timing) {
    let (inc, inc_result) = time_runs(runs, || {
        exchange(quadrant, initial, stack, config).expect("kernel runs")
    });
    let (reference, ref_result) = time_runs(runs, || {
        exchange_reference(quadrant, initial, stack, config).expect("reference runs")
    });
    // The benchmark doubles as an end-to-end equivalence check on real
    // circuit sizes: same seed, same trajectory, same result.
    assert_eq!(
        inc_result, ref_result,
        "kernel diverged from the reference implementation"
    );
    (inc, reference)
}

fn main() {
    // Long enough to amortise the O(P) per-run setup (tracker and cache
    // construction, journal replay) so the numbers measure the per-move
    // inner loop, yet short enough to finish in seconds.
    let config = ExchangeConfig {
        schedule: Schedule {
            moves_per_temp_per_finger: 2,
            final_temp_ratio: 1e-2,
            cooling: 0.85,
            ..Schedule::default()
        },
        ..ExchangeConfig::default()
    };
    let runs = 3;

    let mut entries: Vec<String> = Vec::new();
    for circuit in circuits() {
        for psi in [1u8, 4] {
            let (c, stack) = if psi == 1 {
                (circuit.clone(), StackConfig::planar())
            } else {
                let stacked = circuit.stacked(psi);
                let stack = stacked.stack().expect("valid stack");
                (stacked, stack)
            };
            let quadrant = c.build_quadrant().expect("circuit builds");
            let initial = dfa(&quadrant, 1).expect("dfa");
            let (inc, reference) = bench_pair(&quadrant, &initial, &stack, &config, runs);
            let speedup = reference.seconds / inc.seconds.max(1e-12);

            let mut entry = String::new();
            let _ = write!(
                entry,
                "    {{\"name\": \"{}\", \"psi\": {psi}, \"nets\": {}, ",
                circuit.name,
                quadrant.net_count()
            );
            json_timing(&mut entry, "incremental", &inc);
            entry.push_str(", ");
            json_timing(&mut entry, "reference", &reference);
            let _ = write!(entry, ", \"speedup\": {speedup:.2}}}");
            println!(
                "{} psi={psi}: incremental {:.1} moves/s, reference {:.1} moves/s ({speedup:.2}x)",
                circuit.name,
                inc.moves as f64 / inc.seconds.max(1e-12),
                reference.moves as f64 / reference.seconds.max(1e-12),
            );
            entries.push(entry);
        }
    }

    bench_large(&mut entries);

    let telemetry = bench_telemetry(&config, runs);

    let json = format!(
        "{{\n  \"benchmark\": \"exchange\",\n  \"runs_per_config\": {runs},\n  \"circuits\": [\n{}\n  ],\n{telemetry}}}\n",
        entries.join(",\n")
    );
    std::fs::write("BENCH_exchange.json", &json).expect("write BENCH_exchange.json");
    println!("wrote BENCH_exchange.json");
}

/// Industrial-scale rows: the dense-index kernel against the keyed
/// reference at 1k and 4k nets per quadrant. At these sizes the sparse
/// lookups the reference still does per move stop fitting in cache, so
/// the gap is the whole point of the interning layer — the run asserts
/// the dense kernel holds at least a 1.5× moves/sec lead, turning the
/// bench into a crossover regression gate rather than a scoreboard.
///
/// The schedule is deliberately starved (one move per temperature per
/// finger, fast cooling) to bound the reference's wall time; both
/// kernels run the identical trajectory, so the ratio is unaffected.
fn bench_large(entries: &mut Vec<String>) {
    let config = ExchangeConfig {
        schedule: Schedule {
            moves_per_temp_per_finger: 1,
            final_temp_ratio: 5e-2,
            cooling: 0.7,
            ..Schedule::default()
        },
        ..ExchangeConfig::default()
    };
    for size in ["1k", "4k"] {
        let spec = large_circuit(size, 42).expect("preset name");
        let stack = spec.stack().expect("valid stack");
        let quadrant = spec.build_quadrant().expect("instance builds");
        let initial = dfa(&quadrant, 1).expect("dfa");
        let (inc, reference) = bench_pair(&quadrant, &initial, &stack, &config, 1);
        let inc_rate = inc.moves as f64 / inc.seconds.max(1e-12);
        let ref_rate = reference.moves as f64 / reference.seconds.max(1e-12);
        let speedup = reference.seconds / inc.seconds.max(1e-12);
        assert!(
            inc_rate >= 1.5 * ref_rate,
            "{}: dense kernel at {inc_rate:.1} moves/s lost its 1.5x lead \
             over the reference at {ref_rate:.1} moves/s",
            spec.name
        );

        let mut entry = String::new();
        let _ = write!(
            entry,
            "    {{\"name\": \"{}\", \"psi\": {}, \"nets\": {}, ",
            spec.name,
            spec.tiers,
            quadrant.net_count()
        );
        json_timing(&mut entry, "incremental", &inc);
        entry.push_str(", ");
        json_timing(&mut entry, "reference", &reference);
        let _ = write!(entry, ", \"speedup\": {speedup:.2}}}");
        println!(
            "{} psi={}: incremental {inc_rate:.1} moves/s, reference {ref_rate:.1} moves/s \
             ({speedup:.2}x)",
            spec.name, spec.tiers,
        );
        entries.push(entry);
    }
}

/// The middle element (upper-median) of an unsorted sample.
fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Measures the telemetry overhead on the largest circuit (Table 1
/// circuit 5, planar): the kernel annealing with a live [`JsonlSink`]
/// versus the untraced kernel, plus the exact-replay check — the trace's
/// accepted moves must replay bit-for-bit to the kernel's final cost.
///
/// The sink stages events in memory during the run and serialises them
/// at `finish`, so the annealing time (what moves/sec is computed over)
/// and the drain time are measured separately — the drain is reporting
/// I/O, not kernel work.
fn bench_telemetry(config: &ExchangeConfig, runs: usize) -> String {
    let all = circuits();
    let circuit = all.last().expect("Table 1 has circuits");
    let quadrant = circuit.build_quadrant().expect("circuit builds");
    let initial = dfa(&quadrant, 1).expect("dfa");
    let stack = StackConfig::planar();

    // The runs are short (a few ms), so scheduler jitter would swamp a
    // back-to-back comparison. Interleave baseline/traced pairs over
    // many repetitions and take the per-stream *median* — a mean lets a
    // single scheduler stall in either stream swing the overhead figure
    // by more than the quantity being measured.
    let reps = (runs * 10).max(20);
    let trace_path = std::env::temp_dir().join("bench_exchange_trace.jsonl");
    let mut baseline_result = None;
    let mut traced_result = None;
    let mut baseline_samples = Vec::with_capacity(reps);
    let mut anneal_samples = Vec::with_capacity(reps);
    let mut drain_samples = Vec::with_capacity(reps);
    for timed in 0..=reps {
        let start = Instant::now();
        let base = exchange(&quadrant, &initial, &stack, config).expect("kernel runs");
        let base_elapsed = start.elapsed().as_secs_f64();

        let mut sink = JsonlSink::create(&trace_path).expect("temp trace file");
        let start = Instant::now();
        let result = exchange_traced(
            &quadrant,
            &initial,
            &stack,
            config,
            &mut sink,
            &CancelToken::new(),
        )
        .expect("kernel runs");
        let anneal = start.elapsed().as_secs_f64();
        let start = Instant::now();
        sink.finish().expect("trace flush");
        // The zeroth pair is warm-up (matching `time_runs`).
        if timed > 0 {
            baseline_samples.push(base_elapsed);
            anneal_samples.push(anneal);
            drain_samples.push(start.elapsed().as_secs_f64());
        }
        baseline_result = Some(base);
        traced_result = Some(result);
    }
    let baseline_seconds = median(&mut baseline_samples);
    let anneal_seconds = median(&mut anneal_samples);
    let drain_seconds = median(&mut drain_samples);
    assert_eq!(
        baseline_result, traced_result,
        "telemetry perturbed the kernel's result"
    );
    let moves = baseline_result.expect("ran at least once").stats.proposed;
    let baseline = Timing {
        seconds: baseline_seconds,
        moves,
    };
    let traced = Timing {
        seconds: anneal_seconds,
        moves,
    };
    let _ = std::fs::remove_file(&trace_path);

    // Exact replay: capture the same run in memory and fold the accepted
    // moves back to the final cost.
    let mut buffer = TraceBuffer::new();
    let result = exchange_traced(
        &quadrant,
        &initial,
        &stack,
        config,
        &mut buffer,
        &CancelToken::new(),
    )
    .expect("kernel runs");
    let events = buffer.into_events();
    let replayed = split_runs(&events)
        .first()
        .and_then(|run| replay_final_cost(run))
        .expect("trace has a run");
    assert_eq!(
        replayed.to_bits(),
        result.stats.final_cost.to_bits(),
        "trace replay diverged from the kernel's final cost"
    );

    let base_rate = baseline.moves as f64 / baseline.seconds.max(1e-12);
    let traced_rate = traced.moves as f64 / traced.seconds.max(1e-12);
    // Medians still leave the traced stream occasionally *faster* than
    // the baseline on a noisy host; a negative overhead is measurement
    // noise, not a real speedup, so clamp at zero rather than report it.
    let overhead_percent = (100.0 * (base_rate / traced_rate.max(1e-12) - 1.0)).max(0.0);
    println!(
        "telemetry ({} psi=1): untraced {base_rate:.1} moves/s, jsonl {traced_rate:.1} moves/s \
         ({overhead_percent:.1}% overhead, drain {:.1} ms), replay exact over {} events",
        circuit.name,
        drain_seconds * 1e3,
        events.len()
    );
    assert!(
        overhead_percent < 10.0,
        "telemetry overhead {overhead_percent:.1}% exceeds the 10% budget"
    );

    let mut block = String::new();
    let _ = write!(
        block,
        "  \"telemetry\": {{\"circuit\": \"{}\", \"psi\": 1, ",
        circuit.name
    );
    json_timing(&mut block, "untraced", &baseline);
    block.push_str(", ");
    json_timing(&mut block, "jsonl", &traced);
    let _ = writeln!(
        block,
        ", \"overhead_percent\": {overhead_percent:.2}, \"drain_seconds\": {drain_seconds:.6}, \
         \"events\": {}, \"replay_exact\": true}}",
        events.len()
    );
    block
}
