//! One seeded, journaled, replayable trial.

use copack_core::{
    derive_seed, dfa, exchange_portfolio_traced, CancelToken, ExchangeConfig, PortfolioConfig,
};
use copack_geom::{Quadrant, StackConfig};
use copack_io::ClassConfig;
use copack_obs::{early_signals, EarlySignals, TraceBuffer};

use crate::TuneError;

/// The measured outcome of one trial run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialOutcome {
    /// Best Eq. 3 cost the portfolio reached (its winner's cost).
    pub cost: f64,
    /// Early signals condensed from the trial's full trace.
    pub signals: EarlySignals,
    /// Temperature steps each start actually ran.
    pub steps: usize,
}

/// Runs trial point `point_index` of a space against one quadrant.
///
/// The trial anneals a `K`-start portfolio under the point's schedule,
/// weights, and portfolio knobs, starting from the deterministic DFA
/// order, with the full trace captured for signal extraction.
/// `prefix_steps` truncates the schedule via `Schedule::prefix` — the
/// successive-halving early rounds — and `None` runs it to the end.
///
/// Determinism contract: the trial's exchange seed is
/// `derive_seed(base_seed, point_index)` and everything downstream is
/// already deterministic (seeded annealer, thread-invariant trace
/// merge, single-threaded inner portfolio), so a trial is exactly
/// replayable from `(quadrant, point, base_seed)` alone — regardless of
/// which tuner worker thread ran it, in which order, or how many
/// workers there were.
pub fn run_trial(
    quadrant: &Quadrant,
    stack: &StackConfig,
    point: &ClassConfig,
    base_seed: u64,
    point_index: u32,
    prefix_steps: Option<usize>,
) -> Result<TrialOutcome, TuneError> {
    let mut config = ExchangeConfig::default();
    let mut portfolio = PortfolioConfig::default();
    point.apply(&mut config, &mut portfolio);
    config.seed = derive_seed(base_seed, point_index);
    if let Some(steps) = prefix_steps {
        config.schedule = config.schedule.prefix(steps);
    }
    // Parallelism belongs to the tuner (across trials), never inside a
    // trial: a single-threaded portfolio keeps each trial cheap to
    // schedule and its trace merge trivially ordered.
    portfolio.threads = 1;

    let initial = dfa(quadrant, 1)?;
    let mut trace = TraceBuffer::new();
    let result = exchange_portfolio_traced(
        quadrant,
        &initial,
        stack,
        &config,
        &portfolio,
        &mut trace,
        &CancelToken::new(),
    )?;
    let events = trace.events();
    Ok(TrialOutcome {
        cost: result.result.stats.final_cost,
        signals: early_signals(events),
        steps: config.schedule.temperature_steps(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use copack_io::classify_quadrant;

    fn instance() -> (Quadrant, StackConfig) {
        let c = copack_gen::circuit(1);
        (c.build_quadrant().unwrap(), c.stack().unwrap())
    }

    #[test]
    fn trials_are_replayable_from_their_seed() {
        let (q, stack) = instance();
        let point = ClassConfig::default_config();
        let a = run_trial(&q, &stack, &point, 0xC0DE, 3, Some(8)).unwrap();
        let b = run_trial(&q, &stack, &point, 0xC0DE, 3, Some(8)).unwrap();
        assert_eq!(a, b);
        // A different point index derives a different seed; the RNG
        // streams diverge even when small instances reach equal costs.
        let c = run_trial(&q, &stack, &point, 0xC0DE, 4, Some(8)).unwrap();
        assert_ne!(a.signals.acceptance, c.signals.acceptance);
    }

    #[test]
    fn prefix_trial_is_an_exact_prefix_of_the_full_trial() {
        let (q, stack) = instance();
        let point = ClassConfig {
            starts: 1,
            ..ClassConfig::default_config()
        };
        let full = run_trial(&q, &stack, &point, 7, 0, None).unwrap();
        let early = run_trial(&q, &stack, &point, 7, 0, Some(10)).unwrap();
        assert_eq!(early.steps, 10);
        assert!(early.steps < full.steps);
        // The early acceptance trajectory is the full one's head, bit
        // for bit — the honesty property the early-stop hook promises.
        assert_eq!(
            early.signals.acceptance[..],
            full.signals.acceptance[..early.signals.acceptance.len()]
        );
        assert!(early.signals.best_cost >= full.signals.best_cost);
    }

    #[test]
    fn classify_is_consistent_for_the_family() {
        let (q, _) = instance();
        // The class key used for grouping must be stable across calls.
        assert_eq!(classify_quadrant(&q), classify_quadrant(&q));
    }
}
