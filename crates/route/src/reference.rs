//! The line-by-line crossing scan the sweep in `crossing.rs` replaced,
//! kept as a test oracle: every line resolves each net's via by key and
//! brackets each crossing with a linear scan of the line's terminating
//! vias. The equivalence tests below pin `line_crossings`, `density_map`
//! (both models) and `cutline_congestion` to it bit for bit.

use copack_geom::{Assignment, FingerIdx, NetId, Package, Quadrant};

use crate::{
    check_monotonic, via_plan, Crossing, CutlineReport, DensityMap, DensityModel, FlankLoad,
    LineCrossings, RouteError, RowDensity, ViaPlan,
};

const EPS_FRACTION: f64 = 1e-3;

fn line_crossings(
    quadrant: &Quadrant,
    assignment: &Assignment,
    plan: &ViaPlan,
) -> Result<Vec<LineCrossings>, RouteError> {
    check_monotonic(quadrant, assignment)?;

    let pitch = quadrant.geometry().ball_pitch;
    let eps = pitch * EPS_FRACTION;
    let mut half_w: f64 = 0.0;
    for (row, nets) in quadrant.rows_bottom_up() {
        let m = nets.len() as u32;
        half_w = half_w.max(quadrant.via_site_x(row, m + 1).abs());
        half_w = half_w.max(quadrant.via_site_x(row, 1).abs());
    }
    let alpha = quadrant.finger_count() as u32;
    half_w = half_w.max(quadrant.finger_center(FingerIdx::new(alpha)).x.abs());
    let bound = half_w + pitch;

    let finger_y = quadrant.finger_line_y();
    let mut out = Vec::with_capacity(quadrant.row_count());
    for (row, nets) in quadrant.rows_top_down() {
        let line_y = quadrant.line_y(row);
        let m = nets.len() as u32;
        let site_xs: Vec<f64> = (1..=m + 1).map(|s| quadrant.via_site_x(row, s)).collect();
        let terminating: Vec<(NetId, f64)> = nets
            .iter()
            .map(|&n| {
                let via = plan.via(n)?;
                Ok((n, via.pos.x))
            })
            .collect::<Result<_, RouteError>>()?;
        let term_pos: Vec<(u32, f64)> = terminating
            .iter()
            .map(|&(n, vx)| {
                let p = assignment
                    .position_of(n)
                    .ok_or(RouteError::Unplaced { net: n })?;
                Ok((p.get(), vx))
            })
            .collect::<Result<_, RouteError>>()?;

        let mut crossings = Vec::new();
        for (finger, net) in assignment.iter() {
            let via = plan.via(net)?;
            if via.row >= row {
                continue;
            }
            let fx = quadrant.finger_center(finger).x;
            let (vx, vy) = (via.pos.x, via.pos.y);
            let t = (finger_y - line_y) / (finger_y - vy);
            let ideal = fx + (vx - fx) * t;
            let p = finger.get();
            let lo = term_pos
                .iter()
                .rev()
                .find(|&&(tp, _)| tp < p)
                .map_or(-bound, |&(_, vx)| vx);
            let hi = term_pos
                .iter()
                .find(|&&(tp, _)| tp > p)
                .map_or(bound, |&(_, vx)| vx);
            let x = ideal.clamp(lo + eps, hi - eps);
            crossings.push(Crossing {
                net,
                finger,
                x,
                span: (lo, hi),
            });
        }

        out.push(LineCrossings {
            row,
            line_y,
            site_xs,
            terminating,
            crossings,
        });
    }
    Ok(out)
}

fn density_map(
    quadrant: &Quadrant,
    assignment: &Assignment,
    model: DensityModel,
    plan: &ViaPlan,
) -> Result<DensityMap, RouteError> {
    let lines = line_crossings(quadrant, assignment, plan)?;
    let mut rows = Vec::with_capacity(lines.len());
    for line in &lines {
        let boundaries: Vec<f64> = match model {
            DensityModel::Geometric => line.site_xs.clone(),
            DensityModel::OrderOnly => line.terminating.iter().map(|&(_, vx)| vx).collect(),
        };
        let mut counts = vec![0u32; boundaries.len() + 1];
        for c in &line.crossings {
            let x = match model {
                DensityModel::Geometric => c.x,
                DensityModel::OrderOnly => c.span.0,
            };
            counts[boundaries.partition_point(|&b| b < x)] += 1;
        }
        rows.push(RowDensity {
            row: line.row,
            boundaries,
            counts,
        });
    }
    Ok(DensityMap { rows })
}

fn cutline_congestion(
    package: &Package,
    assignments: &[Assignment; 4],
    model: DensityModel,
) -> Result<CutlineReport, RouteError> {
    let mut flanks = [FlankLoad { left: 0, right: 0 }; 4];
    for (side, quadrant) in package.quadrants() {
        let plan = via_plan(quadrant);
        let map = density_map(quadrant, &assignments[side.index()], model, &plan)?;
        let mut left = 0u32;
        let mut right = 0u32;
        for row in &map.rows {
            left = left.max(*row.counts.first().unwrap_or(&0));
            right = right.max(*row.counts.last().unwrap_or(&0));
        }
        flanks[side.index()] = FlankLoad { left, right };
    }
    let mut boundaries = [0u32; 4];
    for k in 0..4 {
        boundaries[k] = flanks[k].right + flanks[(k + 1) % 4].left;
    }
    Ok(CutlineReport { flanks, boundaries })
}

mod tests {
    use super::*;
    use crate::{via_plan_with, ViaRule};
    use copack_gen::SplitMix64;
    use proptest::prelude::*;

    /// Bit patterns of every float in a set of lines, so `-0.0` vs `0.0`
    /// or any last-bit difference fails the comparison.
    fn line_bits(lines: &[LineCrossings]) -> Vec<Vec<u64>> {
        lines
            .iter()
            .map(|l| {
                let mut bits = vec![u64::from(l.row.get()), l.line_y.to_bits()];
                bits.extend(l.site_xs.iter().map(|x| x.to_bits()));
                for &(net, vx) in &l.terminating {
                    bits.extend([u64::from(net.raw()), vx.to_bits()]);
                }
                for c in &l.crossings {
                    bits.extend([
                        u64::from(c.net.raw()),
                        u64::from(c.finger.get()),
                        c.x.to_bits(),
                        c.span.0.to_bits(),
                        c.span.1.to_bits(),
                    ]);
                }
                bits
            })
            .collect()
    }

    fn map_bits(map: &DensityMap) -> Vec<(u32, Vec<u64>, Vec<u32>)> {
        map.rows
            .iter()
            .map(|r| {
                (
                    r.row.get(),
                    r.boundaries.iter().map(|b| b.to_bits()).collect(),
                    r.counts.clone(),
                )
            })
            .collect()
    }

    /// A uniformly random monotonic-legal assignment: the rows' nets are
    /// interleaved in random order (each row keeps its ball order) and
    /// spread over a random subset of the finger slots.
    fn random_legal(quadrant: &Quadrant, rng: &mut SplitMix64) -> Assignment {
        let mut rows: Vec<&[NetId]> = quadrant.rows_bottom_up().map(|(_, nets)| nets).collect();
        let mut order = Vec::with_capacity(quadrant.net_count());
        let mut left = quadrant.net_count() as u64;
        while left > 0 {
            // Pick the next row with probability proportional to its
            // remaining nets, so every interleaving is equally likely.
            let mut pick = rng.below(left) as usize;
            let row = rows
                .iter_mut()
                .find(|r| {
                    if pick < r.len() {
                        true
                    } else {
                        pick -= r.len();
                        false
                    }
                })
                .expect("pick is below the remaining count");
            order.push(row[0]);
            *row = &row[1..];
            left -= 1;
        }
        let alpha = quadrant.finger_count();
        let mut gaps = alpha - order.len();
        let mut a = Assignment::empty(alpha);
        let mut slot = 0;
        for (placed, &net) in order.iter().enumerate() {
            while gaps > 0 && rng.below((order.len() - placed + gaps) as u64) < gaps as u64 {
                gaps -= 1;
                slot += 1;
            }
            a.place(net, FingerIdx::from_zero_based(slot)).unwrap();
            slot += 1;
        }
        a
    }

    /// Checks the sweep against the reference on one quadrant and order,
    /// under both via rules and both density models.
    fn assert_matches_reference(quadrant: &Quadrant, a: &Assignment) {
        for rule in [ViaRule::BottomLeft, ViaRule::BottomRight] {
            let plan = via_plan_with(quadrant, rule);
            let fast = crate::line_crossings(quadrant, a, &plan);
            let slow = line_crossings(quadrant, a, &plan);
            match (&fast, &slow) {
                (Ok(f), Ok(s)) => assert_eq!(line_bits(f), line_bits(s), "{rule:?}"),
                _ => assert_eq!(fast, slow, "{rule:?}"),
            }
            for model in [DensityModel::Geometric, DensityModel::OrderOnly] {
                let fast = crate::density_map_with_plan(quadrant, a, model, &plan);
                let slow = density_map(quadrant, a, model, &plan);
                match (&fast, &slow) {
                    (Ok(f), Ok(s)) => assert_eq!(map_bits(f), map_bits(s), "{rule:?} {model}"),
                    _ => assert_eq!(fast, slow, "{rule:?} {model}"),
                }
            }
        }
        for model in [DensityModel::Geometric, DensityModel::OrderOnly] {
            let fast = crate::analyze_with_map(quadrant, a, model).map(|(_, map)| map);
            let slow = density_map(quadrant, a, model, &via_plan(quadrant));
            match (&fast, &slow) {
                (Ok(f), Ok(s)) => assert_eq!(map_bits(f), map_bits(s), "analyze {model}"),
                (Err(f), Err(s)) => assert_eq!(f, s, "analyze {model}"),
                _ => panic!("analyze {model}: {fast:?} vs {slow:?}"),
            }
        }
    }

    /// Four sides of `quadrant` under independent random legal orders.
    fn assert_cutline_matches_reference(quadrant: &Quadrant, rng: &mut SplitMix64) {
        let package = Package::uniform(quadrant.clone());
        let orders: [Assignment; 4] = std::array::from_fn(|_| random_legal(quadrant, rng));
        for model in [DensityModel::Geometric, DensityModel::OrderOnly] {
            assert_eq!(
                crate::cutline_congestion(&package, &orders, model),
                cutline_congestion(&package, &orders, model),
                "{model}"
            );
        }
    }

    /// Swaps the first adjacent same-row pair of nets whose fingers are
    /// both known, breaking the monotonic rule on that row.
    fn break_monotonic(quadrant: &Quadrant, a: &Assignment) -> Option<Assignment> {
        let (_, nets) = quadrant.rows_top_down().find(|(_, nets)| nets.len() >= 2)?;
        let (l, r) = (a.position_of(nets[0])?, a.position_of(nets[1])?);
        let mut bad = a.clone();
        bad.swap(l, r).unwrap();
        Some(bad)
    }

    #[test]
    fn sweep_matches_the_reference_on_table1_circuits() {
        let mut rng = SplitMix64::new(1);
        for circuit in copack_gen::circuits() {
            let q = circuit.build_quadrant().unwrap();
            for _ in 0..4 {
                let a = random_legal(&q, &mut rng);
                assert_matches_reference(&q, &a);
                let bad = break_monotonic(&q, &a).expect("circuits have multi-ball rows");
                assert!(matches!(
                    crate::line_crossings(&q, &bad, &via_plan(&q)),
                    Err(RouteError::NonMonotonic { .. })
                ));
                assert_matches_reference(&q, &bad);
            }
            assert_cutline_matches_reference(&q, &mut rng);
        }
    }

    #[test]
    fn sweep_matches_the_reference_on_large_fuzz_quadrants() {
        let mut rng = SplitMix64::new(2);
        for index in 0..6 {
            let q = copack_gen::large_fuzz_case(9, index).unwrap().quadrant;
            let a = random_legal(&q, &mut rng);
            assert_matches_reference(&q, &a);
            assert_matches_reference(&q, &break_monotonic(&q, &a).unwrap());
            assert_cutline_matches_reference(&q, &mut rng);
        }
    }

    #[test]
    fn cutline_reports_the_same_error_as_the_reference() {
        let q = copack_gen::circuit(2).build_quadrant().unwrap();
        let mut rng = SplitMix64::new(3);
        let package = Package::uniform(q.clone());
        let mut orders: [Assignment; 4] = std::array::from_fn(|_| random_legal(&q, &mut rng));
        orders[2] = break_monotonic(&q, &orders[2]).unwrap();
        let fast = crate::cutline_congestion(&package, &orders, DensityModel::Geometric);
        assert!(matches!(fast, Err(RouteError::NonMonotonic { .. })));
        assert_eq!(
            fast,
            cutline_congestion(&package, &orders, DensityModel::Geometric)
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn sweep_matches_the_reference_on_random_legal_orders(
            circuit in 1usize..=5,
            seed in any::<u64>(),
        ) {
            let q = copack_gen::circuit(circuit).build_quadrant().unwrap();
            let mut rng = SplitMix64::new(seed);
            assert_matches_reference(&q, &random_legal(&q, &mut rng));
        }

        #[test]
        fn sweep_matches_the_reference_on_random_fuzz_quadrants(
            seed in any::<u64>(),
            index in 0u64..64,
        ) {
            let q = copack_gen::fuzz_case(seed, index).unwrap().quadrant;
            let mut rng = SplitMix64::new(seed ^ index);
            let a = random_legal(&q, &mut rng);
            assert_matches_reference(&q, &a);
            if let Some(bad) = break_monotonic(&q, &a) {
                assert_matches_reference(&q, &bad);
            }
            assert_cutline_matches_reference(&q, &mut rng);
        }
    }
}
