//! The planar crossing model: where each wire crosses each horizontal line.

use copack_geom::{Assignment, FingerIdx, NetId, Quadrant, RowIdx};

use crate::{check_monotonic, RouteError, ViaPlan, ViaRef};

/// One wire crossing a horizontal grid line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Crossing {
    /// The crossing net.
    pub net: NetId,
    /// The net's finger slot.
    pub finger: FingerIdx,
    /// x-coordinate where the wire crosses the line (geometric model:
    /// straight flyline clamped into the planarity-forced span).
    pub x: f64,
    /// Open interval the wire is forced into by the terminating vias that
    /// bracket it in finger order.
    pub span: (f64, f64),
}

/// All wires interacting with one horizontal grid line.
#[derive(Debug, Clone, PartialEq)]
pub struct LineCrossings {
    /// The ball row whose line this is.
    pub row: RowIdx,
    /// y-coordinate of the line.
    pub line_y: f64,
    /// x-coordinates of the line's via sites (balls + 1, increasing).
    pub site_xs: Vec<f64>,
    /// Nets terminating at this line (at their via), with via x, in finger
    /// (= ball) order.
    pub terminating: Vec<(NetId, f64)>,
    /// Nets crossing this line on their way to a lower row, in finger order.
    pub crossings: Vec<Crossing>,
}

impl LineCrossings {
    /// Total wires touching the line (terminating + crossing).
    #[must_use]
    pub fn wire_count(&self) -> usize {
        self.terminating.len() + self.crossings.len()
    }
}

/// Relative clamping margin, as a fraction of the ball pitch. Keeps clamped
/// wires strictly inside their span so segment attribution is unambiguous.
const EPS_FRACTION: f64 = 1e-3;

/// One finger's wire, resolved once per sweep.
#[derive(Debug, Clone, Copy)]
struct FingerWire {
    finger: FingerIdx,
    net: NetId,
    via: ViaRef,
    /// x-coordinate of the finger centre.
    fx: f64,
}

/// The per-assignment state every line of the crossing model shares: the
/// legality check has passed and each finger's (net, via, x) is resolved
/// once, in finger order, so a line costs one pass over the fingers with no
/// keyed lookups.
pub(crate) struct CrossingSweep<'a> {
    quadrant: &'a Quadrant,
    assignment: &'a Assignment,
    plan: &'a ViaPlan,
    /// Every placed finger, in finger order.
    wires: Vec<FingerWire>,
    finger_y: f64,
    /// Horizontal extent used when a wire has no bracketing via on one side.
    bound: f64,
    eps: f64,
}

impl<'a> CrossingSweep<'a> {
    /// Checks legality and resolves every finger's wire.
    ///
    /// # Errors
    ///
    /// * [`RouteError::NonMonotonic`] / [`RouteError::Unplaced`] from the
    ///   legality pre-check.
    /// * [`RouteError::Unplaced`] for the first net, in finger order,
    ///   that is missing from `plan`.
    pub(crate) fn new(
        quadrant: &'a Quadrant,
        assignment: &'a Assignment,
        plan: &'a ViaPlan,
    ) -> Result<Self, RouteError> {
        check_monotonic(quadrant, assignment)?;

        let pitch = quadrant.geometry().ball_pitch;
        let mut half_w: f64 = 0.0;
        for (row, nets) in quadrant.rows_bottom_up() {
            let m = nets.len() as u32;
            half_w = half_w.max(quadrant.via_site_x(row, m + 1).abs());
            half_w = half_w.max(quadrant.via_site_x(row, 1).abs());
        }
        let alpha = quadrant.finger_count() as u32;
        half_w = half_w.max(quadrant.finger_center(FingerIdx::new(alpha)).x.abs());

        let wires = assignment
            .iter()
            .map(|(finger, net)| {
                Ok(FingerWire {
                    finger,
                    net,
                    via: plan.via(net)?,
                    fx: quadrant.finger_center(finger).x,
                })
            })
            .collect::<Result<_, RouteError>>()?;
        Ok(Self {
            quadrant,
            assignment,
            plan,
            wires,
            finger_y: quadrant.finger_line_y(),
            bound: half_w + pitch,
            eps: pitch * EPS_FRACTION,
        })
    }

    /// The crossings of every line, highest first, built one line at a
    /// time. A line fails with [`RouteError::Unplaced`] if a net of its
    /// row is missing from the plan or the assignment.
    pub(crate) fn lines(&self) -> impl Iterator<Item = Result<LineCrossings, RouteError>> + '_ {
        self.quadrant
            .rows_top_down()
            .map(move |(row, nets)| self.line(row, nets))
    }

    /// The crossings of `row`'s line, whose balls carry `nets`.
    fn line(&self, row: RowIdx, nets: &[NetId]) -> Result<LineCrossings, RouteError> {
        let quadrant = self.quadrant;
        let line_y = quadrant.line_y(row);
        let m = nets.len() as u32;
        let site_xs: Vec<f64> = (1..=m + 1).map(|s| quadrant.via_site_x(row, s)).collect();

        // Terminating nets, in ball order (= finger order by legality).
        let mut terminating = Vec::with_capacity(nets.len());
        let mut term_fingers = Vec::with_capacity(nets.len());
        for &net in nets {
            let via = self.plan.via(net)?;
            let p = self
                .assignment
                .position_of(net)
                .ok_or(RouteError::Unplaced { net })?;
            terminating.push((net, via.pos.x));
            term_fingers.push(p.get());
        }

        // Crossing nets: via strictly below this line, in finger order.
        // Their fingers increase and `term_fingers` is sorted, so one
        // forward pointer tracks how many terminating vias lie left of
        // the current finger; those bracketing it are its neighbours.
        let mut crossings = Vec::new();
        let mut left_of = 0;
        for w in &self.wires {
            if w.via.row >= row {
                continue;
            }
            let (vx, vy) = (w.via.pos.x, w.via.pos.y);
            // Straight flyline finger → via, evaluated at this line.
            let t = (self.finger_y - line_y) / (self.finger_y - vy);
            let ideal = w.fx + (vx - w.fx) * t;
            // Forced span: between the terminating vias bracketing the
            // finger position.
            let p = w.finger.get();
            while left_of < term_fingers.len() && term_fingers[left_of] < p {
                left_of += 1;
            }
            let lo = if left_of == 0 {
                -self.bound
            } else {
                terminating[left_of - 1].1
            };
            let hi = terminating.get(left_of).map_or(self.bound, |&(_, vx)| vx);
            let x = ideal.clamp(lo + self.eps, hi - self.eps);
            crossings.push(Crossing {
                net: w.net,
                finger: w.finger,
                x,
                span: (lo, hi),
            });
        }

        Ok(LineCrossings {
            row,
            line_y,
            site_xs,
            terminating,
            crossings,
        })
    }
}

/// Computes the crossings of every horizontal line of the quadrant, highest
/// line first.
///
/// The assignment must be complete and monotonic-legal.
///
/// # Errors
///
/// * [`RouteError::NonMonotonic`] / [`RouteError::Unplaced`] from the
///   legality pre-check.
pub fn line_crossings(
    quadrant: &Quadrant,
    assignment: &Assignment,
    plan: &ViaPlan,
) -> Result<Vec<LineCrossings>, RouteError> {
    CrossingSweep::new(quadrant, assignment, plan)?
        .lines()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::via_plan;
    use copack_geom::{Assignment, Quadrant};

    fn fig5() -> Quadrant {
        Quadrant::builder()
            .row([10u32, 2, 4, 7, 0])
            .row([1u32, 3, 5, 8])
            .row([11u32, 6, 9])
            .build()
            .unwrap()
    }

    fn dfa_order() -> Assignment {
        Assignment::from_order([10u32, 11, 1, 2, 6, 3, 4, 9, 5, 7, 8, 0])
    }

    #[test]
    fn lines_come_top_down_with_correct_populations() {
        let q = fig5();
        let plan = via_plan(&q);
        let lines = line_crossings(&q, &dfa_order(), &plan).unwrap();
        assert_eq!(lines.len(), 3);
        // Top line: 3 terminate, 9 cross.
        assert_eq!(lines[0].row.get(), 3);
        assert_eq!(lines[0].terminating.len(), 3);
        assert_eq!(lines[0].crossings.len(), 9);
        // Middle line: 4 terminate, 5 cross.
        assert_eq!(lines[1].terminating.len(), 4);
        assert_eq!(lines[1].crossings.len(), 5);
        // Bottom line: 5 terminate, none cross.
        assert_eq!(lines[2].terminating.len(), 5);
        assert_eq!(lines[2].crossings.len(), 0);
    }

    #[test]
    fn every_crossing_is_inside_its_span() {
        let q = fig5();
        let plan = via_plan(&q);
        for a in [
            dfa_order(),
            Assignment::from_order([10u32, 1, 2, 3, 11, 6, 9, 4, 5, 8, 7, 0]),
        ] {
            for line in line_crossings(&q, &a, &plan).unwrap() {
                for c in &line.crossings {
                    assert!(c.span.0 < c.x && c.x < c.span.1, "{c:?}");
                }
            }
        }
    }

    #[test]
    fn crossing_order_matches_finger_order() {
        // Planarity: crossings are produced in finger order and their spans
        // never regress (span lows are non-decreasing).
        let q = fig5();
        let plan = via_plan(&q);
        for line in line_crossings(&q, &dfa_order(), &plan).unwrap() {
            for w in line.crossings.windows(2) {
                assert!(w[0].finger < w[1].finger);
                assert!(w[0].span.0 <= w[1].span.0);
                assert!(w[0].span.1 <= w[1].span.1);
            }
        }
    }

    #[test]
    fn illegal_assignment_is_rejected() {
        let q = fig5();
        let plan = via_plan(&q);
        let bad = Assignment::from_order([10u32, 11, 1, 2, 9, 3, 4, 6, 5, 7, 8, 0]);
        assert!(matches!(
            line_crossings(&q, &bad, &plan),
            Err(RouteError::NonMonotonic { .. })
        ));
    }

    #[test]
    fn site_xs_are_strictly_increasing() {
        let q = fig5();
        let plan = via_plan(&q);
        for line in line_crossings(&q, &dfa_order(), &plan).unwrap() {
            assert_eq!(line.site_xs.len(), line.terminating.len() + 1);
            for w in line.site_xs.windows(2) {
                assert!(w[0] < w[1]);
            }
        }
    }

    #[test]
    fn wire_count_sums_terminating_and_crossing() {
        let q = fig5();
        let plan = via_plan(&q);
        let lines = line_crossings(&q, &dfa_order(), &plan).unwrap();
        assert_eq!(lines[0].wire_count(), 12);
        assert_eq!(lines[1].wire_count(), 9);
        assert_eq!(lines[2].wire_count(), 5);
    }
}
