//! Successive over-relaxation solver for the power grid.

use copack_obs::{Event, NoopRecorder, Recorder, Solver};

use crate::{GridSpec, IrMap, PadRing, PowerError};

/// Convergence tolerance on the largest per-sweep voltage update (volts).
const TOL: f64 = 1e-12;

/// Hard cap on SOR sweeps.
const MAX_SWEEPS: usize = 200_000;

/// Solves the discretised Eq. 1 by successive over-relaxation.
///
/// Pad nodes are clamped to `Vdd`; every other node satisfies the 5-point
/// balance with a constant current sink. The relaxation factor is the
/// classic optimum for the Laplace operator on an `n`-point mesh,
/// `ω = 2 / (1 + sin(π/n))`.
///
/// # Errors
///
/// * [`PowerError::BadSpec`] for an invalid grid.
/// * [`PowerError::NoConvergence`] if the sweep cap is hit (practically
///   unreachable for sane grids).
pub fn solve_sor(spec: &GridSpec, pads: &PadRing) -> Result<IrMap, PowerError> {
    solve_sor_nodes(spec, &pads.clamp_nodes(spec), None, &mut NoopRecorder)
}

/// [`solve_sor`] for an explicit clamp-node list (any [`crate::PadPlan`]),
/// with an optional warm-start guess and telemetry.
///
/// When the pad set changes only slightly between solves — the annealer's
/// FullSolve objective moves one pad per accepted move — the previous
/// fixed point is an excellent initial iterate and SOR converges in a
/// fraction of the sweeps. A warm result satisfies the same `1e-12`
/// convergence tolerance as a cold solve but is **not** bit-identical to
/// one (the iteration path differs). A `guess` of the wrong length (e.g.
/// from a different grid) is ignored and the solve falls back to the
/// cold start. Clamp nodes in the guess are reset to `Vdd`.
///
/// `recorder` receives one [`Event::SolverSweep`] per sweep (the
/// residual is the largest voltage update) and a final
/// [`Event::SolverDone`]. A disabled recorder costs nothing and the solve
/// is bit-identical to an untraced one.
///
/// # Errors
///
/// As [`solve_sor`].
pub fn solve_sor_nodes(
    spec: &GridSpec,
    clamp: &[(usize, usize)],
    guess: Option<&[f64]>,
    recorder: &mut dyn Recorder,
) -> Result<IrMap, PowerError> {
    spec.validate()?;
    let (nx, ny) = (spec.nx, spec.ny);
    let n = spec.node_count();
    let mut clamped = vec![false; n];
    for &(i, j) in clamp {
        clamped[spec.idx(i, j)] = true;
    }

    let gx = spec.gx();
    let gy = spec.gy();
    let sinks: Vec<f64> = (0..n)
        .map(|p| spec.node_current_at(p % nx, p / nx))
        .collect();
    let omega = 2.0 / (1.0 + (std::f64::consts::PI / nx.max(ny) as f64).sin());

    let mut v = match guess {
        Some(g) if g.len() == n => {
            let mut v = g.to_vec();
            // The clamp set may differ from the guess's solve; re-pin pads.
            for (p, &is_clamped) in clamped.iter().enumerate() {
                if is_clamped {
                    v[p] = spec.vdd;
                }
            }
            v
        }
        _ => vec![spec.vdd; n],
    };
    let rec_on = recorder.enabled();
    for sweep in 0..MAX_SWEEPS {
        let mut max_delta: f64 = 0.0;
        for j in 0..ny {
            for i in 0..nx {
                let p = spec.idx(i, j);
                if clamped[p] {
                    continue;
                }
                let mut num = -sinks[p];
                let mut den = 0.0;
                if i > 0 {
                    num += gx * v[p - 1];
                    den += gx;
                }
                if i + 1 < nx {
                    num += gx * v[p + 1];
                    den += gx;
                }
                if j > 0 {
                    num += gy * v[p - nx];
                    den += gy;
                }
                if j + 1 < ny {
                    num += gy * v[p + nx];
                    den += gy;
                }
                let v_gs = num / den;
                let delta = omega * (v_gs - v[p]);
                v[p] += delta;
                max_delta = max_delta.max(delta.abs());
            }
        }
        if rec_on {
            recorder.record(&Event::SolverSweep {
                solver: Solver::Sor,
                sweep: sweep as u32,
                residual: max_delta,
            });
        }
        if max_delta < TOL {
            if rec_on {
                recorder.record(&Event::SolverDone {
                    solver: Solver::Sor,
                    sweeps: (sweep + 1) as u32,
                    residual: max_delta,
                    converged: true,
                });
            }
            return Ok(IrMap::new(nx, ny, spec.vdd, v));
        }
    }
    if rec_on {
        recorder.record(&Event::SolverDone {
            solver: Solver::Sor,
            sweeps: MAX_SWEEPS as u32,
            residual: TOL,
            converged: false,
        });
    }
    Err(PowerError::NoConvergence {
        iterations: MAX_SWEEPS,
        residual: TOL,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_nodes_at_or_below_vdd() {
        let spec = GridSpec::default_chip(16);
        let map = solve_sor(&spec, &PadRing::uniform(8)).unwrap();
        for &v in map.voltages() {
            assert!(v <= spec.vdd + 1e-9);
            assert!(v > 0.0);
        }
        assert!(map.max_drop() > 0.0);
    }

    #[test]
    fn pad_nodes_stay_clamped() {
        let spec = GridSpec::default_chip(12);
        let ring = PadRing::uniform(4);
        let map = solve_sor(&spec, &ring).unwrap();
        for (i, j) in ring.clamp_nodes(&spec) {
            assert_eq!(map.voltage(i, j), spec.vdd);
        }
    }

    #[test]
    fn more_pads_reduce_the_drop() {
        let spec = GridSpec::default_chip(16);
        let few = solve_sor(&spec, &PadRing::uniform(2)).unwrap();
        let many = solve_sor(&spec, &PadRing::uniform(16)).unwrap();
        assert!(many.max_drop() < few.max_drop());
    }

    #[test]
    fn uniform_pads_beat_clustered_pads() {
        // The paper's Fig. 6(A) vs (B): random/clustered pads are much
        // worse than regularly spread pads.
        let spec = GridSpec::default_chip(16);
        let uniform = solve_sor(&spec, &PadRing::uniform(6)).unwrap();
        let clustered = solve_sor(
            &spec,
            &PadRing::from_ts([0.0, 0.02, 0.04, 0.06, 0.08, 0.10]).unwrap(),
        )
        .unwrap();
        assert!(uniform.max_drop() < clustered.max_drop());
    }

    #[test]
    fn symmetric_pads_give_a_symmetric_map() {
        let spec = GridSpec::default_chip(12);
        // Pads at the four edge mid-points: 90°-rotation symmetric.
        let ring = PadRing::uniform(4);
        let map = solve_sor(&spec, &ring).unwrap();
        let n = spec.nx - 1;
        for i in 0..spec.nx {
            for j in 0..spec.ny {
                let a = map.voltage(i, j);
                let b = map.voltage(n - i, n - j); // 180° rotation
                assert!((a - b).abs() < 1e-7, "({i},{j}): {a} vs {b}");
            }
        }
    }

    #[test]
    fn worst_node_is_far_from_pads() {
        // One pad at the bottom-left corner: the worst drop must be in the
        // opposite half of the die.
        let spec = GridSpec::default_chip(12);
        let map = solve_sor(&spec, &PadRing::from_ts([0.0]).unwrap()).unwrap();
        let (i, j) = map.worst_node();
        assert!(i + j > spec.nx / 2, "worst node ({i},{j}) too close to pad");
    }

    #[test]
    fn warm_start_reaches_the_cold_fixed_point() {
        let spec = GridSpec::default_chip(16);
        let a = PadRing::from_ts([0.1, 0.35, 0.6, 0.85]).unwrap();
        let b = PadRing::from_ts([0.12, 0.35, 0.6, 0.85]).unwrap(); // one pad nudged
        let cold_a = solve_sor(&spec, &a).unwrap();
        let cold_b = solve_sor(&spec, &b).unwrap();
        let warm_b = solve_sor_nodes(
            &spec,
            &b.clamp_nodes(&spec),
            Some(cold_a.voltages()),
            &mut NoopRecorder,
        )
        .unwrap();
        for (w, c) in warm_b.voltages().iter().zip(cold_b.voltages()) {
            assert!((w - c).abs() < 1e-9, "{w} vs {c}");
        }
        // Clamp nodes stay pinned even when the guess had them free.
        for (i, j) in b.clamp_nodes(&spec) {
            assert_eq!(warm_b.voltage(i, j), spec.vdd);
        }
    }

    #[test]
    fn mismatched_guess_falls_back_to_cold_start() {
        let spec = GridSpec::default_chip(12);
        let ring = PadRing::uniform(4);
        let cold = solve_sor(&spec, &ring).unwrap();
        let short_guess = vec![spec.vdd; 7];
        let warm = solve_sor_nodes(
            &spec,
            &ring.clamp_nodes(&spec),
            Some(&short_guess),
            &mut NoopRecorder,
        )
        .unwrap();
        assert_eq!(warm.voltages(), cold.voltages());
    }

    #[test]
    fn bad_spec_is_rejected() {
        let bad = GridSpec {
            vdd: 0.0,
            ..GridSpec::default_chip(8)
        };
        assert!(solve_sor(&bad, &PadRing::uniform(2)).is_err());
    }

    #[test]
    fn drop_scales_linearly_with_current() {
        // The system is linear: doubling J0 doubles every drop.
        let spec = GridSpec::default_chip(10);
        let double = GridSpec {
            current_density: spec.current_density * 2.0,
            ..spec.clone()
        };
        let ring = PadRing::uniform(5);
        let a = solve_sor(&spec, &ring).unwrap();
        let b = solve_sor(&double, &ring).unwrap();
        assert!((b.max_drop() / a.max_drop() - 2.0).abs() < 1e-6);
    }
}
