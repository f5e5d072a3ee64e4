//! Self-tests of the verification machinery itself.
//!
//! A fuzzer that never fires is indistinguishable from a fuzzer that
//! cannot see. This module injects a *known* bug — a density-oracle
//! variant whose incremental replay skips the first accepted move, the
//! classic missed-delta mistake — and the test suite asserts the driver
//! catches it and shrinks the witness to a handful of nets.

use copack_core::{
    assign, exchange_traced, increased_density, AssignMethod, CancelToken, CoreError,
    SectionTracker,
};
use copack_geom::{FingerIdx, Quadrant};
use copack_obs::{Event, TraceBuffer};

use crate::{check_quadrant, OracleReport, VerifyConfig};

/// A deliberately broken density oracle: like the real one it replays the
/// accepted-move journal through a fresh [`SectionTracker`], but it
/// *drops the first accepted move* from the incremental side — so any
/// instance where that move matters to the final Eq. 2 `ID` convicts it.
///
/// The incremental tracker stays internally coherent (it follows its own
/// shadow assignment, which also misses the move), exactly how a real
/// missed-delta bug behaves: locally consistent, globally wrong.
#[must_use]
pub fn buggy_density_suite(quadrant: &Quadrant, config: &VerifyConfig) -> Vec<OracleReport> {
    const NAME: &str = "density";
    let fail = |detail: String| vec![OracleReport::fail(NAME, detail)];
    let stack = match config.stack() {
        Ok(s) => s,
        Err(e) => return fail(format!("bad stack: {e}")),
    };
    let initial = match assign(quadrant, AssignMethod::dfa_default()) {
        Ok(a) => a,
        Err(e) => return fail(format!("assignment failed: {e}")),
    };
    let mut buf = TraceBuffer::new();
    if let Err(e) = exchange_traced(
        quadrant,
        &initial,
        &stack,
        &config.exchange_config(),
        &mut buf,
        &CancelToken::new(),
    ) {
        return if matches!(e, CoreError::NoMovablePads) {
            vec![OracleReport::pass(NAME, "vacuous: no movable pads")]
        } else {
            fail(format!("exchange failed: {e}"))
        };
    }
    let mut sections = match SectionTracker::new(quadrant, &initial) {
        Ok(t) => t,
        Err(e) => return fail(format!("section tracker: {e}")),
    };
    // `truth` follows the kernel exactly; `shadow` is the buggy
    // incremental replay that never saw the first move.
    let mut truth = initial.clone();
    let mut shadow = initial.clone();
    for (k, event) in buf
        .events()
        .iter()
        .filter(|e| matches!(e, Event::MoveAccepted { .. }))
        .enumerate()
    {
        let Event::MoveAccepted { left_slot, .. } = event else {
            unreachable!()
        };
        let left = FingerIdx::new(*left_slot);
        let right = FingerIdx::new(*left_slot + 1);
        if truth.swap(left, right).is_err() {
            return fail(format!("journal slot {left_slot} out of range"));
        }
        if k == 0 {
            continue; // THE BUG: the first accepted move's delta is dropped.
        }
        if let (Some(a), Some(b)) = (shadow.net_at(left), shadow.net_at(right)) {
            if !(sections.is_delimiter(a) && sections.is_delimiter(b)) {
                sections.apply_adjacent_swap(a, b);
            }
        }
        let _ = shadow.swap(left, right);
    }
    let scratch = match increased_density(quadrant, &initial, &truth) {
        Ok(v) => v,
        Err(e) => return fail(format!("scratch ID failed: {e}")),
    };
    if sections.increased_density() != scratch {
        return fail(format!(
            "incremental ID {} != from-scratch ID {scratch}",
            sections.increased_density()
        ));
    }
    vec![OracleReport::pass(
        NAME,
        "replay matched (bug not triggered)",
    )]
}

/// The real suite, for symmetric use in driver self-tests.
#[must_use]
pub fn real_suite(quadrant: &Quadrant, config: &VerifyConfig) -> Vec<OracleReport> {
    check_quadrant(quadrant, config, &mut copack_obs::NoopRecorder)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_fuzz_with, FuzzConfig};
    use copack_obs::NoopRecorder;

    /// Acceptance criterion: the injected missed-delta bug is caught and
    /// the witness shrinks to at most 8 nets.
    #[test]
    fn injected_density_bug_is_caught_and_shrunk() {
        let cfg = FuzzConfig {
            seed: 1,
            max_cases: Some(64),
            ..FuzzConfig::default()
        };
        let outcome = run_fuzz_with(&cfg, buggy_density_suite, &mut NoopRecorder);
        let failure = outcome
            .failure
            .expect("the buggy suite must fail within 64 cases");
        assert_eq!(failure.oracle, "density");
        assert!(
            failure.quadrant.net_count() <= 8,
            "shrunk witness still has {} nets",
            failure.quadrant.net_count()
        );
        // The shrunk witness must still convict the buggy suite...
        assert!(buggy_density_suite(&failure.quadrant, &failure.config)
            .iter()
            .any(|r| !r.passed));
        // ...while the real oracles exonerate it.
        for r in real_suite(&failure.quadrant, &failure.config) {
            assert!(r.passed, "{}: {}", r.oracle, r.detail);
        }
    }

    #[test]
    fn shrinking_is_deterministic() {
        let cfg = FuzzConfig {
            seed: 1,
            max_cases: Some(64),
            ..FuzzConfig::default()
        };
        let a = run_fuzz_with(&cfg, buggy_density_suite, &mut NoopRecorder);
        let b = run_fuzz_with(&cfg, buggy_density_suite, &mut NoopRecorder);
        let (fa, fb) = (a.failure.unwrap(), b.failure.unwrap());
        assert_eq!(fa.case_index, fb.case_index);
        assert_eq!(fa.detail, fb.detail);
        assert_eq!(fa.quadrant.net_count(), fb.quadrant.net_count());
        assert_eq!(fa.config, fb.config);
    }
}
