//! Machine-readable replan benchmark: a warm-started incremental
//! replan versus a cold from-scratch re-plan of a whole 4-quadrant
//! package under an ECO batch, on the industrial `large` family at 1k
//! and 4k nets per quadrant.
//!
//! The package model is the repo's standard one — four identical
//! quadrants — and the ECO batch is the realistic mixed delta: one
//! quadrant genuinely edited, one resubmitted with a **no-op delta**
//! (edit lists that cancel out, which
//! [`copack_core::QuadrantDelta::is_noop_for`] detects so the previous
//! plan is reused without repair or annealing), and two untouched. A
//! cold re-plan anneals all four from scratch; the incremental path
//! answers the clean quadrants from the result cache, dismisses the
//! no-op delta with one equivalence check, and warm-starts only the
//! dirty one ([`exchange_warm`]: repair, reheat, shortened schedule).
//! The expected gap is therefore ~4× from the dirty-set reduction
//! times ~1.5× from the shortened schedule, and the run **asserts**
//! the measured replan speedup holds at least 5× — a regression gate
//! on the warm path, not a scoreboard.
//!
//! The runs are strictly serial — concurrent timing on a shared
//! machine would corrupt the numbers. Cold and warm replans are timed
//! as interleaved pairs, alternating which side runs first, so a slow
//! phase of the machine lands on both sides of a pair instead of on
//! one side of the comparison. The gate reads the median of the
//! per-pair speedups; their quartiles and extremes go to
//! `BENCH_replan.json` as the spread.
//!
//! Run with `cargo run --release -p copack-bench --bin bench_replan`.

use std::fmt::Write as _;
use std::time::Instant;

use copack_core::{
    cancelling_delta, dfa, exchange, exchange_warm, CancelToken, ExchangeConfig, Schedule,
};
use copack_gen::{churn, large_circuit, STANDARD_CHURN};
use copack_obs::NoopRecorder;

/// Runs `f` once and returns (seconds, value).
fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let value = f();
    (start.elapsed().as_secs_f64(), value)
}

fn main() {
    // Enough temperature steps that the anneal dominates the fixed
    // per-run setup (repair, reheat heat evaluations, tracker
    // construction) — on a starved schedule those fixed costs eat the
    // shortened-schedule gain and the gate sits on the noise floor.
    // Both sides run the identical config, so the ratio is what it
    // would be under the default schedule.
    let config = ExchangeConfig {
        schedule: Schedule {
            moves_per_temp_per_finger: 2,
            final_temp_ratio: 1e-3,
            cooling: 0.9,
            ..Schedule::default()
        },
        ..ExchangeConfig::default()
    };
    const QUADRANTS: f64 = 4.0;
    const CHURN_SEED: u64 = 9;
    const MIN_SPEEDUP: f64 = 5.0;
    // Timed pairs after one untimed warm-up pair; odd, so the median
    // is a measured pair.
    const PAIRS: usize = 21;

    let mut entries: Vec<String> = Vec::new();
    for size in ["1k", "4k"] {
        let spec = large_circuit(size, 42).expect("preset name");
        let stack = spec.stack().expect("valid stack");
        let quadrant = spec.build_quadrant().expect("instance builds");

        // The original submission: one cold anneal per quadrant. All
        // four quadrants are identical, so one run stands for them all
        // — and its winner is the `prev` plan the replan warm-starts
        // from.
        let initial = dfa(&quadrant, 1).expect("dfa");
        let previous = exchange(&quadrant, &initial, &stack, &config).expect("cold anneal runs");

        // The ECO batch dirties exactly one quadrant under the standard
        // churn, and resubmits a second with a delta whose edits cancel
        // out to a no-op.
        let edited = churn(&quadrant, CHURN_SEED, STANDARD_CHURN).expect("churn applies");
        let noop = cancelling_delta(&quadrant, &edited);
        assert!(!noop.is_empty(), "the no-op delta must carry real edits");
        let dirty_initial = dfa(&edited, 1).expect("dfa on the edited instance");

        // Cold replan: every quadrant re-anneals from scratch — the
        // edited one plus the three untouched ones.
        let cold = || {
            let (clean_seconds, _) =
                timed(|| exchange(&quadrant, &initial, &stack, &config).expect("cold anneal runs"));
            let (dirty_seconds, scratch) = timed(|| {
                exchange(&edited, &dirty_initial, &stack, &config).expect("cold dirty anneal runs")
            });
            (dirty_seconds + (QUADRANTS - 1.0) * clean_seconds, scratch)
        };
        // Incremental replan: the untouched quadrants answer from the
        // cache (zero annealer work), the no-op resubmission is
        // dismissed by one equivalence check, and only the dirty one
        // warm-starts.
        let warm = || {
            let (noop_seconds, noop_detected) =
                timed(|| noop.is_noop_for(&quadrant).expect("no-op check runs"));
            assert!(noop_detected, "the cancelling delta must read as a no-op");
            let (anneal_seconds, result) = timed(|| {
                exchange_warm(
                    &edited,
                    &previous.assignment,
                    &stack,
                    &config,
                    &mut NoopRecorder,
                    &CancelToken::new(),
                )
                .expect("warm replan runs")
            });
            (anneal_seconds + noop_seconds, noop_seconds, result)
        };

        let (_, scratch) = cold();
        let (_, _, first) = warm();
        let mut speedups = Vec::with_capacity(PAIRS);
        let (mut colds, mut warms, mut noops) = (Vec::new(), Vec::new(), Vec::new());
        for pair in 0..PAIRS {
            let ((cold_seconds, _), (warm_seconds, noop_seconds, result)) = if pair % 2 == 0 {
                let c = cold();
                (c, warm())
            } else {
                let w = warm();
                (cold(), w)
            };
            // The warm path is seeded and repair is pure: every run
            // must reproduce the first bit for bit.
            assert_eq!(result, first, "{size}: warm replan is not deterministic");
            speedups.push(cold_seconds / warm_seconds.max(1e-12));
            colds.push(cold_seconds);
            warms.push(warm_seconds);
            noops.push(noop_seconds);
        }
        for xs in [&mut speedups, &mut colds, &mut warms, &mut noops] {
            xs.sort_by(f64::total_cmp);
        }
        // Nearest-rank quartiles of the sorted samples.
        let (q1, speedup, q3) = (
            speedups[PAIRS / 4],
            speedups[PAIRS / 2],
            speedups[3 * PAIRS / 4],
        );
        let (lo, hi) = (speedups[0], speedups[PAIRS - 1]);
        let cold_seconds = colds[PAIRS / 2];
        let warm_seconds = warms[PAIRS / 2];
        let noop_seconds = noops[PAIRS / 2];
        let cost_ratio = first.stats.final_cost / scratch.stats.final_cost.max(1e-12);
        println!(
            "large-{size} ({} nets/quadrant): cold {cold_seconds:.3} s, replan \
             {warm_seconds:.3} s ({speedup:.2}x median of {PAIRS} pairs, quartiles \
             {q1:.2}-{q3:.2}x, range {lo:.2}-{hi:.2}x, no-op check {noop_seconds:.6} s), \
             warm/scratch cost {cost_ratio:.3}",
            quadrant.net_count()
        );
        assert!(
            speedup >= MIN_SPEEDUP,
            "large-{size}: median replan speedup {speedup:.2}x fell below the {MIN_SPEEDUP}x \
             gate (cold {cold_seconds:.3} s over {QUADRANTS} quadrants, warm {warm_seconds:.3} s)"
        );

        let mut entry = String::new();
        let _ = write!(
            entry,
            "    {{\"name\": \"{}\", \"nets\": {}, \"quadrants\": {QUADRANTS}, \
             \"churn\": {STANDARD_CHURN}, \
             \"cold_seconds\": {cold_seconds:.6}, \"warm_seconds\": {warm_seconds:.6}, \
             \"noop_check_seconds\": {noop_seconds:.6}, \
             \"pairs\": {PAIRS}, \"speedup\": {speedup:.2}, \"speedup_q1\": {q1:.2}, \
             \"speedup_q3\": {q3:.2}, \"speedup_min\": {lo:.2}, \"speedup_max\": {hi:.2}, \
             \"cost_ratio\": {cost_ratio:.4}, \
             \"deterministic\": true}}",
            spec.name,
            quadrant.net_count()
        );
        entries.push(entry);
    }

    let json = format!(
        "{{\n  \"benchmark\": \"replan\",\n  \"model\": \"4-quadrant package, 1 dirty under \
         standard churn, 1 no-op resubmission, 2 clean\",\n  \
         \"min_speedup\": {MIN_SPEEDUP},\n  \"instances\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    std::fs::write("BENCH_replan.json", &json).expect("write BENCH_replan.json");
    println!("wrote BENCH_replan.json");
}
