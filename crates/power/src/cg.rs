//! Matrix-free conjugate-gradient solver, used to cross-validate SOR.

use copack_obs::{Event, NoopRecorder, Recorder, Solver};

use crate::{GridSpec, IrMap, PadRing, PowerError};

/// Relative residual tolerance.
const TOL: f64 = 1e-12;

/// Solves the power grid by conjugate gradient on the free (un-clamped)
/// nodes. The reduced conductance matrix is symmetric positive definite as
/// soon as at least one pad clamps a node, so CG converges; it serves as an
/// independent check on [`crate::solve_sor`].
///
/// # Errors
///
/// * [`PowerError::BadSpec`] for an invalid grid.
/// * [`PowerError::NoConvergence`] if the iteration cap (`10·n`) is hit.
pub fn solve_cg(spec: &GridSpec, pads: &PadRing) -> Result<IrMap, PowerError> {
    solve_cg_nodes(spec, &pads.clamp_nodes(spec), &mut NoopRecorder)
}

/// [`solve_cg`] for an explicit clamp-node list (any [`crate::PadPlan`]),
/// with telemetry: one [`Event::SolverSweep`] per CG iteration (the
/// residual is the relative residual norm) and a final
/// [`Event::SolverDone`]. A disabled recorder costs nothing and the solve
/// is bit-identical to an untraced one.
///
/// # Errors
///
/// As [`solve_cg`].
pub fn solve_cg_nodes(
    spec: &GridSpec,
    clamp: &[(usize, usize)],
    recorder: &mut dyn Recorder,
) -> Result<IrMap, PowerError> {
    spec.validate()?;
    let (nx, ny) = (spec.nx, spec.ny);
    let n = spec.node_count();
    let mut clamped = vec![false; n];
    for &(i, j) in clamp {
        clamped[spec.idx(i, j)] = true;
    }

    // Map free nodes to compact indices.
    let mut free_of = vec![usize::MAX; n];
    let mut free_nodes = Vec::new();
    for p in 0..n {
        if !clamped[p] {
            free_of[p] = free_nodes.len();
            free_nodes.push(p);
        }
    }
    let nf = free_nodes.len();
    if nf == 0 {
        return Ok(IrMap::new(nx, ny, spec.vdd, vec![spec.vdd; n]));
    }

    let gx = spec.gx();
    let gy = spec.gy();

    // Right-hand side: −I(i,j) plus contributions from clamped neighbours.
    let mut b: Vec<f64> = free_nodes
        .iter()
        .map(|&p| -spec.node_current_at(p % nx, p / nx))
        .collect();
    for (f, &p) in free_nodes.iter().enumerate() {
        let (i, j) = (p % nx, p / nx);
        let mut add = |q: usize, g: f64| {
            if clamped[q] {
                b[f] += g * spec.vdd;
            }
        };
        if i > 0 {
            add(p - 1, gx);
        }
        if i + 1 < nx {
            add(p + 1, gx);
        }
        if j > 0 {
            add(p - nx, gy);
        }
        if j + 1 < ny {
            add(p + nx, gy);
        }
    }

    // Matrix-free A·x over the free nodes.
    let apply = |x: &[f64], out: &mut [f64]| {
        for (f, &p) in free_nodes.iter().enumerate() {
            let (i, j) = (p % nx, p / nx);
            let mut diag = 0.0;
            let mut off = 0.0;
            let mut edge = |q: usize, g: f64| {
                diag += g;
                if !clamped[q] {
                    off += g * x[free_of[q]];
                }
            };
            if i > 0 {
                edge(p - 1, gx);
            }
            if i + 1 < nx {
                edge(p + 1, gx);
            }
            if j > 0 {
                edge(p - nx, gy);
            }
            if j + 1 < ny {
                edge(p + nx, gy);
            }
            out[f] = diag * x[f] - off;
        }
    };

    // Standard CG, starting from Vdd everywhere.
    let mut x = vec![spec.vdd; nf];
    let mut r = vec![0.0; nf];
    let mut ax = vec![0.0; nf];
    apply(&x, &mut ax);
    for f in 0..nf {
        r[f] = b[f] - ax[f];
    }
    let mut p = r.clone();
    let mut rs_old: f64 = r.iter().map(|v| v * v).sum();
    let b_norm: f64 = b.iter().map(|v| v * v).sum::<f64>().sqrt().max(1e-300);

    let rec_on = recorder.enabled();
    let max_iters = 10 * nf + 100;
    let mut ap = vec![0.0; nf];
    let mut iters: usize = 0;
    for _ in 0..max_iters {
        if rs_old.sqrt() / b_norm < TOL {
            break;
        }
        apply(&p, &mut ap);
        let p_ap: f64 = p.iter().zip(&ap).map(|(a, b)| a * b).sum();
        let alpha = rs_old / p_ap;
        for f in 0..nf {
            x[f] += alpha * p[f];
            r[f] -= alpha * ap[f];
        }
        let rs_new: f64 = r.iter().map(|v| v * v).sum();
        let beta = rs_new / rs_old;
        for f in 0..nf {
            p[f] = r[f] + beta * p[f];
        }
        rs_old = rs_new;
        if rec_on {
            recorder.record(&Event::SolverSweep {
                solver: Solver::Cg,
                sweep: iters as u32,
                residual: rs_old.sqrt() / b_norm,
            });
        }
        iters += 1;
    }
    let residual = rs_old.sqrt() / b_norm;
    let converged = residual < TOL * 10.0;
    if rec_on {
        recorder.record(&Event::SolverDone {
            solver: Solver::Cg,
            sweeps: iters as u32,
            residual,
            converged,
        });
    }
    if !converged {
        return Err(PowerError::NoConvergence {
            iterations: max_iters,
            residual,
        });
    }

    let mut v = vec![spec.vdd; n];
    for (f, &pnode) in free_nodes.iter().enumerate() {
        v[pnode] = x[f];
    }
    Ok(IrMap::new(nx, ny, spec.vdd, v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solve_sor;

    #[test]
    fn cg_matches_sor() {
        let spec = GridSpec::default_chip(14);
        for ring in [
            PadRing::uniform(3),
            PadRing::uniform(9),
            PadRing::from_ts([0.0, 0.03, 0.7]).unwrap(),
        ] {
            let a = solve_sor(&spec, &ring).unwrap();
            let b = solve_cg(&spec, &ring).unwrap();
            for (va, vb) in a.voltages().iter().zip(b.voltages()) {
                assert!((va - vb).abs() < 1e-6, "{va} vs {vb}");
            }
            assert!((a.max_drop() - b.max_drop()).abs() < 1e-6);
        }
    }

    #[test]
    fn cg_respects_clamps() {
        let spec = GridSpec::default_chip(10);
        let ring = PadRing::uniform(5);
        let map = solve_cg(&spec, &ring).unwrap();
        for (i, j) in ring.clamp_nodes(&spec) {
            assert_eq!(map.voltage(i, j), spec.vdd);
        }
    }

    #[test]
    fn anisotropic_sheets_bias_the_map() {
        // Much more resistive vertical straps: a single bottom-edge pad
        // serves same-row nodes better than same-column ones.
        let spec = GridSpec {
            r_sheet_y: 0.4,
            ..GridSpec::default_chip(12)
        };
        let ring = PadRing::from_ts([0.06]).unwrap(); // mid-bottom edge
        let map = solve_cg(&spec, &ring).unwrap();
        let (pi, _) = ring.clamp_nodes(&spec)[0];
        let horizontal = map.drop_at((pi + 4).min(spec.nx - 1), 0);
        let vertical = map.drop_at(pi, 4);
        assert!(vertical > horizontal);
    }

    #[test]
    fn bad_spec_is_rejected() {
        let bad = GridSpec {
            nx: 1,
            ..GridSpec::default_chip(8)
        };
        assert!(solve_cg(&bad, &PadRing::uniform(2)).is_err());
    }
}
