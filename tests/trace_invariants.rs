//! Trace-based invariants of the annealer and the telemetry layer.
//!
//! These tests drive [`exchange_traced`] with an in-memory
//! [`TraceBuffer`] and check properties that end-state equality cannot:
//! the Metropolis rule's acceptance statistics, exact replay of the final
//! cost from the accepted-move events, the Δ_IR no-op cache contract, and
//! deterministic merging of per-quadrant traces across thread counts.

use copack::core::{
    dfa, exchange, exchange_traced, plan_package_traced, Acceptance, CancelToken, Codesign,
    DeltaIrTracker, ExchangeConfig, Schedule,
};
use copack::gen::circuits;
use copack::geom::{FingerIdx, NetKind, Package, Quadrant, StackConfig};
use copack::obs::{replay_final_cost, split_runs, Event, TraceBuffer, TraceSummary};

/// The Fig. 5 instance with power pads, as in `kernel_equivalence.rs`.
fn fig5_with_power() -> Quadrant {
    Quadrant::builder()
        .row([10u32, 2, 4, 7, 0])
        .row([1u32, 3, 5, 8])
        .row([11u32, 6, 9])
        .net_kind(3u32, NetKind::Power)
        .net_kind(6u32, NetKind::Power)
        .net_kind(9u32, NetKind::Power)
        .build()
        .expect("the Fig. 5 instance builds")
}

fn config(seed: u64) -> ExchangeConfig {
    ExchangeConfig {
        schedule: Schedule {
            moves_per_temp_per_finger: 2,
            final_temp_ratio: 1e-2,
            cooling: 0.85,
            ..Schedule::default()
        },
        seed,
        ..ExchangeConfig::default()
    }
}

/// Recording must not perturb the annealer: the traced run returns the
/// same (bit-identical) result as the untraced one.
#[test]
fn recording_does_not_perturb_the_result() {
    for circuit in circuits() {
        let q = circuit.build_quadrant().expect("circuit builds");
        let initial = dfa(&q, 1).expect("dfa");
        let stack = StackConfig::planar();
        let cfg = config(7);
        let plain = exchange(&q, &initial, &stack, &cfg).expect("runs");
        let mut buffer = TraceBuffer::with_rejected();
        let traced = exchange_traced(&q, &initial, &stack, &cfg, &mut buffer, &CancelToken::new())
            .expect("runs");
        assert_eq!(plain, traced, "{}", circuit.name);
        assert_eq!(
            plain.stats.final_cost.to_bits(),
            traced.stats.final_cost.to_bits(),
            "{}: final cost bits",
            circuit.name
        );
        assert!(!buffer.is_empty());
    }
}

/// Empirical uphill acceptance matches the Metropolis closed form.
///
/// The kernel records every accepted move and (with `with_rejected`)
/// every Metropolis-rejected one — constraint rejections never reach the
/// acceptance rule and produce no event. Each uphill proposal at step `s`
/// is an independent Bernoulli(p) trial with
/// `p = Acceptance::probability(delta, T_s)`, so the observed uphill
/// acceptances must land within a few standard deviations of the
/// expected sum.
#[test]
fn uphill_acceptance_matches_metropolis_statistics() {
    let mut observed = 0.0f64;
    let mut expected = 0.0f64;
    let mut variance = 0.0f64;
    for (circuit, seed) in circuits().iter().zip([3u64, 5, 11, 17, 29]) {
        let q = circuit.build_quadrant().expect("circuit builds");
        let initial = dfa(&q, 1).expect("dfa");
        let mut buffer = TraceBuffer::with_rejected();
        exchange_traced(
            &q,
            &initial,
            &StackConfig::planar(),
            &config(seed),
            &mut buffer,
            &CancelToken::new(),
        )
        .expect("runs");
        let events = buffer.into_events();

        // Temperature of each step, from the TempStep markers.
        let temp_of: Vec<f64> = events
            .iter()
            .filter_map(|e| match e {
                Event::TempStep { temperature, .. } => Some(*temperature),
                _ => None,
            })
            .collect();
        for e in &events {
            let (step, delta) = match e {
                Event::MoveAccepted {
                    step,
                    delta,
                    uphill: true,
                    ..
                } => {
                    observed += 1.0;
                    (*step, *delta)
                }
                // Every recorded rejection is an uphill proposal that
                // lost the Metropolis draw.
                Event::MoveRejected { step, delta, .. } => (*step, *delta),
                _ => continue,
            };
            let p = Acceptance::Metropolis.probability(delta, temp_of[step as usize]);
            expected += p;
            variance += p * (1.0 - p);
        }
    }
    assert!(
        expected > 50.0,
        "too few uphill proposals ({expected:.1} expected, {observed} observed)"
    );
    let tolerance = 5.0 * variance.sqrt().max(1.0);
    assert!(
        (observed - expected).abs() <= tolerance,
        "uphill acceptances {observed} vs Metropolis expectation {expected:.1} (tolerance {tolerance:.1})"
    );
}

/// The accepted-move costs in the trace replay to the run's final cost
/// bit for bit — no re-accumulation drift.
#[test]
fn accepted_moves_replay_to_the_exact_final_cost() {
    for circuit in circuits() {
        for seed in [0u64, 42, 2009] {
            let q = circuit.build_quadrant().expect("circuit builds");
            let initial = dfa(&q, 1).expect("dfa");
            let mut buffer = TraceBuffer::new();
            let result = exchange_traced(
                &q,
                &initial,
                &StackConfig::planar(),
                &config(seed),
                &mut buffer,
                &CancelToken::new(),
            )
            .expect("runs");
            let events = buffer.into_events();
            let runs = split_runs(&events);
            assert_eq!(runs.len(), 1, "{} seed {seed}", circuit.name);
            let replayed = replay_final_cost(runs[0]).expect("run has a start");
            assert_eq!(
                replayed.to_bits(),
                result.stats.final_cost.to_bits(),
                "{} seed {seed}: replayed {replayed} vs {}",
                circuit.name,
                result.stats.final_cost
            );
        }
    }
}

/// [`DeltaIrTracker`] contract behind the kernel's ΔIR caching: a swap
/// reported as a no-op (`apply_adjacent_swap` returns `false`) leaves
/// `delta_ir()` bit-identical, so the kernel may reuse the cached term.
#[test]
fn ir_noop_swaps_never_change_the_cached_delta_ir() {
    let q = fig5_with_power();
    let initial = dfa(&q, 1).expect("dfa");
    let mut tracker = DeltaIrTracker::new(&q, &initial).expect("tracker builds");
    let alpha = initial.finger_count();
    let mut score = tracker.delta_ir();
    let mut noops = 0;
    let mut changes = 0;
    // Deterministic LCG walk over adjacent swaps.
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..10_000 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let pos = 1 + (state >> 33) as u32 % (alpha as u32 - 1);
        let changed = tracker.apply_adjacent_swap(FingerIdx::new(pos));
        let after = tracker.delta_ir();
        if changed {
            changes += 1;
        } else {
            noops += 1;
            assert_eq!(
                score.to_bits(),
                after.to_bits(),
                "no-op swap at {pos} changed the cached ΔIR"
            );
        }
        score = after;
    }
    assert!(
        noops > 0 && changes > 0,
        "walk exercised both branches ({noops} noops, {changes} changes)"
    );
}

/// Per-quadrant traces merge deterministically: every thread count
/// produces the same event stream (wall-clock `seconds` aside) and the
/// identical [`TraceSummary`].
#[test]
fn package_traces_merge_identically_across_thread_counts() {
    let q = circuits()[0].build_quadrant().expect("circuit builds");
    let capture = |threads: usize| {
        let config = Codesign {
            threads,
            ..Codesign::default()
        };
        let package = Package::uniform(q.clone());
        let mut buffer = TraceBuffer::new();
        let report = plan_package_traced(&package, &config, &mut buffer).expect("plans");
        (report, buffer.into_events())
    };
    let (report1, events1) = capture(1);
    for threads in [0usize, 4] {
        let (report_n, events_n) = capture(threads);
        assert_eq!(report1, report_n, "threads {threads}: report");
        assert_eq!(
            events1.len(),
            events_n.len(),
            "threads {threads}: event count"
        );
        for (a, b) in events1.iter().zip(&events_n) {
            match (a, b) {
                // The side wall time is the one legitimately
                // thread-count-dependent field.
                (Event::SideEnd { side: sa, .. }, Event::SideEnd { side: sb, .. }) => {
                    assert_eq!(sa, sb, "threads {threads}");
                }
                _ => assert_eq!(a.to_json(), b.to_json(), "threads {threads}"),
            }
        }
        assert_eq!(
            TraceSummary::from_events(&events1),
            TraceSummary::from_events(&events_n),
            "threads {threads}: summary"
        );
    }
}
