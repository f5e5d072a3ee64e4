//! Integration check of the acceptance criterion for the incremental
//! exchange kernel: on the Fig. 5 instance and all five Table 1 circuits,
//! for ψ = 1 and ψ = 4 under the default `Proxy` objective, [`exchange`]
//! and [`exchange_reference`] must return **bit-identical**
//! [`copack::core::ExchangeResult`]s from identical seeds — and, with the
//! telemetry layer, identical **trajectories**: the recorded event
//! streams match move for move, not just at the end state.

use copack::core::{
    dfa, exchange, exchange_reference, exchange_reference_traced, exchange_traced, CancelToken,
    ExchangeConfig, Schedule,
};
use copack::gen::circuits;
use copack::geom::{NetKind, Quadrant, StackConfig, TierId};
use copack::obs::{accepted_signature, TraceBuffer};
use proptest::prelude::*;

/// The Fig. 5 instance, with a few nets marked as power pads so the
/// Δ_IR term is live at ψ = 1.
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
            cooling: 0.7,
            ..Schedule::default()
        },
        seed,
        ..ExchangeConfig::default()
    }
}

fn assert_bit_identical(quadrant: &Quadrant, stack: &StackConfig, label: &str) {
    let initial = dfa(quadrant, 1).expect("dfa");
    for seed in [0u64, 7, 2009] {
        let cfg = config(seed);
        let fast = exchange(quadrant, &initial, stack, &cfg).expect("kernel runs");
        let slow = exchange_reference(quadrant, &initial, stack, &cfg).expect("reference runs");
        assert_eq!(fast, slow, "{label}, seed {seed}");
        // "Bit-identical" includes the float-valued costs; `PartialEq` on
        // f64 compares values, so pin the exact representations too.
        assert_eq!(
            fast.stats.final_cost.to_bits(),
            slow.stats.final_cost.to_bits(),
            "{label}, seed {seed}: final cost bits"
        );
        assert_eq!(
            fast.stats.initial_cost.to_bits(),
            slow.stats.initial_cost.to_bits(),
            "{label}, seed {seed}: initial cost bits"
        );
    }
}

#[test]
fn fig5_kernel_matches_reference() {
    let q = fig5_with_power();
    assert_bit_identical(&q, &StackConfig::planar(), "fig5 psi=1");
}

#[test]
fn table1_circuits_kernel_matches_reference_planar() {
    for circuit in circuits() {
        let q = circuit.build_quadrant().expect("circuit builds");
        assert_bit_identical(
            &q,
            &StackConfig::planar(),
            &format!("{} psi=1", circuit.name),
        );
    }
}

#[test]
fn table1_circuits_kernel_matches_reference_stacked4() {
    for circuit in circuits() {
        let stacked = circuit.stacked(4);
        let q = stacked.build_quadrant().expect("circuit builds");
        let stack = stacked.stack().expect("valid stack");
        assert_bit_identical(&q, &stack, &format!("{} psi=4", circuit.name));
    }
}

/// Runs both implementations with rejected-move recording on and asserts
/// the full event streams — and in particular the accepted-move
/// signatures `(step, slot, delta bits, cost bits)` — are identical.
fn assert_same_trajectory(quadrant: &Quadrant, stack: &StackConfig, seed: u64, label: &str) {
    let initial = dfa(quadrant, 1).expect("dfa");
    let cfg = config(seed);
    let mut fast_buf = TraceBuffer::with_rejected();
    let mut slow_buf = TraceBuffer::with_rejected();
    let fast = exchange_traced(
        quadrant,
        &initial,
        stack,
        &cfg,
        &mut fast_buf,
        &CancelToken::new(),
    );
    let slow = exchange_reference_traced(quadrant, &initial, stack, &cfg, &mut slow_buf);
    // Degenerate instances (e.g. a single net — nothing to swap) must
    // fail identically on both sides; there is no trajectory to compare.
    let (fast, slow) = match (fast, slow) {
        (Ok(f), Ok(s)) => (f, s),
        (f, s) => {
            assert_eq!(
                f.as_ref().err().map(ToString::to_string),
                s.as_ref().err().map(ToString::to_string),
                "{label}: errors diverge ({f:?} vs {s:?})"
            );
            return;
        }
    };
    assert_eq!(fast, slow, "{label}: result");
    let fast_events = fast_buf.into_events();
    let slow_events = slow_buf.into_events();
    assert_eq!(
        accepted_signature(&fast_events),
        accepted_signature(&slow_events),
        "{label}: accepted-move sequence"
    );
    assert_eq!(fast_events.len(), slow_events.len(), "{label}: event count");
    for (i, (f, s)) in fast_events.iter().zip(&slow_events).enumerate() {
        assert_eq!(f.to_json(), s.to_json(), "{label}: event {i}");
    }
}

#[test]
fn trajectories_match_on_the_paper_circuits() {
    let q = fig5_with_power();
    assert_same_trajectory(&q, &StackConfig::planar(), 2009, "fig5 psi=1");
    for circuit in circuits() {
        let q = circuit.build_quadrant().expect("circuit builds");
        assert_same_trajectory(
            &q,
            &StackConfig::planar(),
            7,
            &format!("{} psi=1", circuit.name),
        );
        let stacked = circuit.stacked(4);
        let q4 = stacked.build_quadrant().expect("circuit builds");
        let stack = stacked.stack().expect("valid stack");
        assert_same_trajectory(&q4, &stack, 7, &format!("{} psi=4", circuit.name));
    }
}

/// Strategy mirroring `tests/properties.rs`: a quadrant with shuffled net
/// ids, every third net a power pad, striped across `tiers` tiers.
fn quadrant_strategy_tiered(tiers: u8) -> impl Strategy<Value = Quadrant> {
    (prop::collection::vec(1usize..=8, 1..=5), any::<u64>()).prop_map(move |(sizes, seed)| {
        let total: usize = sizes.iter().sum();
        // Deterministic Fisher–Yates from the seed, no external RNG needed.
        let mut ids: Vec<u32> = (1..=total as u32).collect();
        let mut state = seed | 1;
        for i in (1..ids.len()).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            ids.swap(i, j);
        }
        let mut builder = Quadrant::builder();
        let mut cursor = 0;
        for &s in &sizes {
            builder = builder.row(ids[cursor..cursor + s].iter().copied());
            cursor += s;
        }
        for id in 1..=total as u32 {
            if id % 3 == 0 {
                builder = builder.net_kind(id, NetKind::Power);
            }
            if tiers > 1 {
                builder =
                    builder.net_tier(id, TierId::new(((id - 1) % u32::from(tiers) + 1) as u8));
            }
        }
        builder.build().expect("generated quadrants are valid")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Full-trajectory equivalence on arbitrary quadrants and seeds:
    /// the O(1) kernel and the from-scratch reference record the same
    /// accepted-move sequence (and the same complete event stream) at
    /// ψ = 1.
    #[test]
    fn trajectories_match_for_any_seed_planar(
        q in quadrant_strategy_tiered(1),
        seed in any::<u64>(),
    ) {
        assert_same_trajectory(&q, &StackConfig::planar(), seed, "proptest psi=1");
    }

    /// Same, with 3-tier stacking (live ω term).
    #[test]
    fn trajectories_match_for_any_seed_stacked3(
        q in quadrant_strategy_tiered(3),
        seed in any::<u64>(),
    ) {
        let stack = StackConfig::stacked(3).expect("valid stack");
        assert_same_trajectory(&q, &stack, seed, "proptest psi=3");
    }
}
