//! Incremental metric trackers for the annealer's inner loop.
//!
//! The exchange step proposes hundreds of thousands of adjacent swaps; the
//! naive cost evaluation re-derives the top-line sections (`O(β log β)`)
//! and ω (`O(β)`) from scratch each time. Because a single adjacent swap
//! can only move one net across one section delimiter and can only touch
//! two ω groups, both metrics admit `O(1)`-ish incremental updates. These
//! trackers implement them; property tests pin them to the from-scratch
//! definitions ([`crate::SectionBaseline`], [`crate::omega`]).

use copack_geom::{Assignment, FingerIdx, NetId, NetIndex, NetKind, Quadrant, TierId};

use crate::{CoreError, SectionBaseline};

/// Incrementally tracked top-line section counts (Eq. 2's `I_c`).
///
/// Per-net state is dense over the quadrant's [`NetIndex`], so the swap
/// update is a handful of array loads — no keyed lookups on the annealer's
/// move loop. Callers that already hold dense indices (the exchange
/// driver's slot tables use the same interning) can use the `_idx`
/// variants and skip even the `O(1)` id resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectionTracker {
    /// `I_c^ini`, recorded at construction.
    initial: Vec<u32>,
    /// Current `I_c`.
    counts: Vec<u32>,
    /// The quadrant's id interning, for resolving [`NetId`] arguments.
    index: NetIndex,
    /// Whether each net (by dense index) is a top-row (delimiter) net.
    is_top: Vec<bool>,
    /// Current section of each non-top net (by dense index; delimiters
    /// hold an unused 0).
    section_of: Vec<u32>,
}

impl SectionTracker {
    /// Builds a tracker for `assignment` and records it as the Eq. 2
    /// baseline.
    ///
    /// # Errors
    ///
    /// Propagates [`CoreError::Route`] if the assignment is incomplete.
    pub fn new(quadrant: &Quadrant, assignment: &Assignment) -> Result<Self, CoreError> {
        let baseline = SectionBaseline::record(quadrant, assignment)?;
        let index = quadrant.net_index().clone();
        let top: Vec<NetId> = quadrant.row(quadrant.top_row()).to_vec();
        let mut delim: Vec<usize> = top
            .iter()
            .map(|&n| {
                assignment
                    .position_of(n)
                    .map(|f| f.zero_based())
                    .ok_or(copack_route::RouteError::Unplaced { net: n })
            })
            .collect::<Result<_, _>>()?;
        delim.sort_unstable();

        let mut is_top = vec![false; index.len()];
        for &net in &top {
            is_top[index.get(net).expect("top-row net is interned")] = true;
        }
        let mut section_of = vec![0u32; index.len()];
        for (finger, net) in assignment.iter() {
            if let Some(i) = index.get(net) {
                if !is_top[i] {
                    let s = delim.partition_point(|&d| d < finger.zero_based());
                    section_of[i] = u32::try_from(s).expect("section fits u32");
                }
            }
        }
        Ok(Self {
            counts: baseline.initial().to_vec(),
            initial: baseline.initial().to_vec(),
            index,
            is_top,
            section_of,
        })
    }

    /// Applies an adjacent swap of the nets at `pos` and `pos + 1`
    /// (called **before** the assignment itself is swapped; pass the nets
    /// that currently sit left and right). Applying the same swap again
    /// reverts it.
    ///
    /// Returns `true` iff the section counts changed (a net crossed a
    /// delimiter) — callers may cache [`SectionTracker::increased_density`]
    /// and only refresh it on `true`.
    ///
    /// # Panics
    ///
    /// Panics if both nets are top-row nets (such swaps are monotonic-
    /// illegal and must be filtered out by the caller) or if a net is
    /// unknown.
    pub fn apply_adjacent_swap(&mut self, left: NetId, right: NetId) -> bool {
        let li = self.index.get(left).expect("left net is interned");
        let ri = self.index.get(right).expect("right net is interned");
        self.apply_adjacent_swap_idx(li, ri)
    }

    /// [`SectionTracker::apply_adjacent_swap`] for callers that already
    /// hold the nets' dense indices (see [`Quadrant::net_index`]).
    ///
    /// # Panics
    ///
    /// Panics if both nets are top-row nets or an index is out of range.
    pub fn apply_adjacent_swap_idx(&mut self, left: usize, right: usize) -> bool {
        let left_top = self.is_top[left];
        let right_top = self.is_top[right];
        assert!(
            !(left_top && right_top),
            "adjacent top-row nets cannot swap"
        );
        if left_top == right_top {
            // Neither is a delimiter: both stay in the same section.
            return false;
        }
        // One delimiter, one ordinary net: the ordinary net crosses it.
        let (mover, went_left) = if left_top {
            (right, true)
        } else {
            (left, false)
        };
        let s = self.section_of[mover] as usize;
        let new_s = if went_left { s - 1 } else { s + 1 };
        self.counts[s] -= 1;
        self.counts[new_s] += 1;
        self.section_of[mover] = u32::try_from(new_s).expect("section fits u32");
        true
    }

    /// Whether `net` sits on the quadrant's top row (i.e. is a section
    /// delimiter). Swaps of two non-delimiter nets never change the
    /// counts, so hot loops can pre-resolve this and skip the call.
    ///
    /// # Panics
    ///
    /// Panics if `net` is unknown.
    #[must_use]
    pub fn is_delimiter(&self, net: NetId) -> bool {
        self.is_top[self.index.get(net).expect("net is interned")]
    }

    /// Current section counts.
    #[must_use]
    pub fn counts(&self) -> &[u32] {
        &self.counts
    }

    /// Eq. 2's `ID` against the recorded baseline.
    #[must_use]
    pub fn increased_density(&self) -> u32 {
        self.counts
            .iter()
            .zip(&self.initial)
            .map(|(&new, &ini)| new.saturating_sub(ini))
            .max()
            .unwrap_or(0)
    }
}

/// Incrementally tracked ω (the stacking bonding-wire metric).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OmegaTracker {
    psi: u8,
    /// Tier of the net in each slot (dense orders only).
    tiers: Vec<TierId>,
    /// Zero-bit count of each ψ-sized group.
    group_zeros: Vec<u32>,
    omega: u64,
}

impl OmegaTracker {
    /// Builds a tracker for a **dense** assignment (every slot occupied).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Geom`] for unknown nets, or
    /// [`CoreError::BadConfig`] if the assignment has empty slots (the
    /// incremental update tracks slots, not nets).
    pub fn new(quadrant: &Quadrant, assignment: &Assignment, psi: u8) -> Result<Self, CoreError> {
        if assignment.net_count() != assignment.finger_count() {
            return Err(CoreError::BadConfig {
                parameter: "assignment (must be dense)",
            });
        }
        let mut tiers = Vec::with_capacity(assignment.finger_count());
        for (_, net) in assignment.iter() {
            let n = quadrant
                .net(net)
                .ok_or(copack_geom::GeomError::UnknownNet { net })?;
            tiers.push(n.tier);
        }
        let mut tracker = Self {
            psi,
            tiers,
            group_zeros: Vec::new(),
            omega: 0,
        };
        tracker.rebuild();
        Ok(tracker)
    }

    fn rebuild(&mut self) {
        let psi = self.psi as usize;
        self.group_zeros = self
            .tiers
            .chunks(psi)
            .map(|group| Self::zeros(group, self.psi))
            .collect();
        self.omega = self.group_zeros.iter().map(|&z| u64::from(z)).sum();
    }

    fn zeros(group: &[TierId], psi: u8) -> u32 {
        let mask: u64 = if psi == 64 {
            u64::MAX
        } else {
            (1u64 << psi) - 1
        };
        let mut union = 0u64;
        for t in group {
            union |= t.one_hot();
        }
        u32::from(psi) - (union & mask).count_ones()
    }

    /// Applies an adjacent swap of slots `pos` and `pos + 1` (0-based).
    /// Self-inverse, like the assignment swap it mirrors.
    ///
    /// # Panics
    ///
    /// Panics if `pos + 1` is out of range.
    pub fn apply_adjacent_swap(&mut self, pos: FingerIdx) {
        let i = pos.zero_based();
        assert!(i + 1 < self.tiers.len(), "swap out of range");
        self.tiers.swap(i, i + 1);
        let psi = self.psi as usize;
        let (ga, gb) = (i / psi, (i + 1) / psi);
        if ga == gb {
            return; // same group: union unchanged
        }
        for g in [ga, gb] {
            let start = g * psi;
            let end = (start + psi).min(self.tiers.len());
            let new_zeros = Self::zeros(&self.tiers[start..end], self.psi);
            self.omega -= u64::from(self.group_zeros[g]);
            self.omega += u64::from(new_zeros);
            self.group_zeros[g] = new_zeros;
        }
    }

    /// Current ω.
    #[must_use]
    pub fn omega(&self) -> u64 {
        self.omega
    }
}

/// Incrementally tracked Δ_IR pad-spacing proxy (Eq. 3's first term).
///
/// The naive evaluation collects every power pad's perimeter coordinate
/// into a fresh `Vec` and rebuilds a [`copack_power::PadSpacingProxy`] per
/// move — `O(k log k)` work and two allocations for a swap that moves at
/// most **one** power pad by one slot. This tracker keeps the power-pad
/// coordinates in sorted order across adjacent swaps with an `O(1)`,
/// allocation-free update, exploiting two facts:
///
/// * swapping two power pads permutes nets but leaves the occupied *slots*
///   unchanged, so the coordinate multiset is untouched;
/// * a power pad moving one slot into a non-power slot cannot jump past
///   another power pad (that pad would have been the swap partner), so its
///   sorted rank is stable and only its value changes.
///
/// [`DeltaIrTracker::delta_ir`] sums the squared gap deviations in
/// exactly the order `PadSpacingProxy::delta_ir` does (windows left to
/// right, wrap gap last), so the score is **bit-identical** to the
/// from-scratch rebuild — the annealer's accept/reject trajectory cannot
/// diverge. The left-to-right window sum is kept as a running prefix:
/// `prefix[i]` is the sum after the first `i` windows. A pad moving at
/// rank `r` changes only windows `r − 1` and `r`, so only `prefix[r..]`
/// goes stale; a swap merely lowers a `dirty_from` mark, and the next
/// read re-adds the stale tail with the same expression in the same
/// order (so each entry is bit-identical to a full re-sum) before
/// returning `prefix[k − 1]` plus the wrap gap. A rejected move's revert
/// therefore costs nothing until the next read, and a read costs
/// `O(k − r)` rather than `O(k)` additions.
#[derive(Debug, Clone)]
pub struct DeltaIrTracker {
    /// Finger count as `f64`, the coordinate denominator.
    alpha: f64,
    /// Power-pad perimeter coordinates, sorted ascending.
    ts: Vec<f64>,
    /// Rank in `ts` of the power pad occupying each 0-based slot.
    rank_of_slot: Vec<Option<usize>>,
    /// `prefix[i]`: the sum of the first `i` window terms
    /// (`prefix[0] == 0.0`); valid below `dirty_from`.
    prefix: Vec<f64>,
    /// First stale entry of `prefix` (`prefix.len()` when all are valid).
    dirty_from: usize,
}

/// Trackers are equal when they track the same pads; the prefix is a
/// cache of `ts`, so how much of it is stale does not matter.
impl PartialEq for DeltaIrTracker {
    fn eq(&self, other: &Self) -> bool {
        self.alpha == other.alpha && self.ts == other.ts && self.rank_of_slot == other.rank_of_slot
    }
}

impl DeltaIrTracker {
    /// Builds a tracker over `assignment`'s power pads.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Route`] if a power net is unplaced.
    pub fn new(quadrant: &Quadrant, assignment: &Assignment) -> Result<Self, CoreError> {
        let alpha = assignment.finger_count();
        let mut slots: Vec<usize> = Vec::new();
        for net in quadrant.nets_of_kind(NetKind::Power) {
            let pos = assignment
                .position_of(net)
                .ok_or(copack_route::RouteError::Unplaced { net })?;
            slots.push(pos.zero_based());
        }
        // Sorting the slots sorts the coordinates: t is monotone in the slot.
        slots.sort_unstable();
        let mut rank_of_slot = vec![None; alpha];
        let mut ts = Vec::with_capacity(slots.len());
        for (rank, &slot) in slots.iter().enumerate() {
            rank_of_slot[slot] = Some(rank);
            ts.push(Self::coordinate(slot, alpha as f64));
        }
        let k = ts.len();
        Ok(Self {
            alpha: alpha as f64,
            ts,
            rank_of_slot,
            prefix: vec![0.0; k],
            dirty_from: 0,
        })
    }

    /// The perimeter coordinate of a 0-based slot — the exact expression
    /// the naive path feeds to `PadSpacingProxy`.
    fn coordinate(slot_zero_based: usize, alpha: f64) -> f64 {
        ((slot_zero_based + 1) as f64 - 0.5) / alpha
    }

    /// Number of tracked power pads.
    #[must_use]
    pub fn power_pad_count(&self) -> usize {
        self.ts.len()
    }

    /// Applies an adjacent swap of slots `pos` and `pos + 1`. Self-inverse,
    /// like the assignment swap it mirrors; callable before or after the
    /// assignment itself is swapped (it reads no assignment state).
    ///
    /// Returns `true` iff a coordinate changed — i.e. the swap moved a
    /// power pad into a non-power slot. Callers may cache
    /// [`DeltaIrTracker::delta_ir`] and only refresh it on `true`: the
    /// score is a pure function of `ts`, so an unchanged `ts` reproduces
    /// the cached value bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `pos + 1` is out of range.
    pub fn apply_adjacent_swap(&mut self, pos: FingerIdx) -> bool {
        let i = pos.zero_based();
        assert!(i + 1 < self.rank_of_slot.len(), "swap out of range");
        match (self.rank_of_slot[i], self.rank_of_slot[i + 1]) {
            // Two power pads exchange nets: the occupied slots — and hence
            // the coordinates — are unchanged.
            (Some(_), Some(_)) | (None, None) => false,
            (Some(rank), None) => {
                self.rank_of_slot[i] = None;
                self.rank_of_slot[i + 1] = Some(rank);
                self.ts[rank] = Self::coordinate(i + 1, self.alpha);
                self.dirty_from = self.dirty_from.min(rank.max(1));
                true
            }
            (None, Some(rank)) => {
                self.rank_of_slot[i + 1] = None;
                self.rank_of_slot[i] = Some(rank);
                self.ts[rank] = Self::coordinate(i, self.alpha);
                self.dirty_from = self.dirty_from.min(rank.max(1));
                true
            }
        }
    }

    /// The pad-spacing score, bit-identical to
    /// `PadSpacingProxy::new(&ts)?.delta_ir()` over the same pads: gaps are
    /// visited in the proxy's order (sorted windows, then the wrap-around
    /// gap) and summed left to right. Returns `0.0` with no power pads —
    /// callers guard that case like the naive path guards an empty `ts`.
    ///
    /// Takes `&mut self` to refresh the stale tail of the running window
    /// sums first (see the type docs).
    #[must_use]
    pub fn delta_ir(&mut self) -> f64 {
        let k = self.ts.len();
        if k == 0 {
            return 0.0;
        }
        let ideal = 1.0 / k as f64;
        // `prefix[0]` is the empty sum and never goes stale; `prefix[i]`
        // adds window `i - 1`, i.e. `ts[i] - ts[i - 1]`. The running sum
        // lives in a local, so the chain of adds never waits on a store
        // to `prefix` being read back.
        let from = self.dirty_from.max(1);
        if from < k {
            let mut sum = self.prefix[from - 1];
            for (slot, w) in self.prefix[from..]
                .iter_mut()
                .zip(self.ts[from - 1..].windows(2))
            {
                sum += (w[1] - w[0] - ideal).powi(2);
                *slot = sum;
            }
        }
        self.dirty_from = k;
        self.prefix[k - 1] + (1.0 - self.ts[k - 1] + self.ts[0] - ideal).powi(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{dfa, omega_of_assignment, SectionBaseline};
    use copack_geom::{Quadrant, TierId};
    use rand::{Rng, SeedableRng};

    fn quadrant() -> Quadrant {
        let mut b = Quadrant::builder()
            .row([10u32, 2, 4, 7, 0])
            .row([1u32, 3, 5, 8])
            .row([11u32, 6, 9])
            .net_kind(10u32, copack_geom::NetKind::Power)
            .net_kind(5u32, copack_geom::NetKind::Power)
            .net_kind(9u32, copack_geom::NetKind::Power);
        for (i, n) in [10u32, 2, 4, 7, 0, 1, 3, 5, 8, 11, 6, 9].iter().enumerate() {
            b = b.net_tier(*n, TierId::new((i % 3) as u8 + 1));
        }
        b.build().unwrap()
    }

    /// The naive Δ_IR evaluation the tracker replaces, verbatim.
    fn delta_ir_from_scratch(q: &Quadrant, a: &Assignment) -> f64 {
        let alpha = a.finger_count();
        let ts: Vec<f64> = q
            .nets_of_kind(copack_geom::NetKind::Power)
            .filter_map(|n| a.position_of(n))
            .map(|f| (f.get() as f64 - 0.5) / alpha as f64)
            .collect();
        if ts.is_empty() {
            return 0.0;
        }
        copack_power::PadSpacingProxy::new(&ts).unwrap().delta_ir()
    }

    /// Drives both trackers through a random legal-swap walk and checks
    /// them against the from-scratch definitions at every step.
    #[test]
    fn trackers_match_recompute_over_random_walks() {
        let q = quadrant();
        let initial = dfa(&q, 1).unwrap();
        let baseline = SectionBaseline::record(&q, &initial).unwrap();
        let mut sections = SectionTracker::new(&q, &initial).unwrap();
        let mut omega_t = OmegaTracker::new(&q, &initial, 3).unwrap();
        let mut ir = DeltaIrTracker::new(&q, &initial).unwrap();
        let mut a = initial.clone();
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let top: Vec<_> = q.row(q.top_row()).to_vec();

        for step in 0..500 {
            let p = rng.gen_range(1..=11u32);
            let left = a.net_at(FingerIdx::new(p)).unwrap();
            let right = a.net_at(FingerIdx::new(p + 1)).unwrap();
            if top.contains(&left) && top.contains(&right) {
                continue; // illegal for the section tracker, skip
            }
            sections.apply_adjacent_swap(left, right);
            omega_t.apply_adjacent_swap(FingerIdx::new(p));
            ir.apply_adjacent_swap(FingerIdx::new(p));
            a.swap(FingerIdx::new(p), FingerIdx::new(p + 1)).unwrap();
            if step % 3 == 0 {
                // Revert (the nets' sides are now exchanged), check, and
                // re-apply: the annealer's reject path followed by a retry.
                sections.apply_adjacent_swap(right, left);
                omega_t.apply_adjacent_swap(FingerIdx::new(p));
                ir.apply_adjacent_swap(FingerIdx::new(p));
                a.swap(FingerIdx::new(p), FingerIdx::new(p + 1)).unwrap();
                assert_eq!(
                    ir.delta_ir().to_bits(),
                    delta_ir_from_scratch(&q, &a).to_bits(),
                    "step {step} reverted"
                );
                sections.apply_adjacent_swap(left, right);
                omega_t.apply_adjacent_swap(FingerIdx::new(p));
                ir.apply_adjacent_swap(FingerIdx::new(p));
                a.swap(FingerIdx::new(p), FingerIdx::new(p + 1)).unwrap();
            }

            let expected_id = baseline.increased_density(&q, &a).unwrap();
            assert_eq!(sections.increased_density(), expected_id, "step {step}");
            let expected_omega = omega_of_assignment(&q, &a, 3).unwrap();
            assert_eq!(omega_t.omega(), expected_omega, "step {step}");
            // Bit-identical, not approximately equal: the annealer's
            // accept/reject decisions hinge on exact cost comparisons.
            assert_eq!(
                ir.delta_ir().to_bits(),
                delta_ir_from_scratch(&q, &a).to_bits(),
                "step {step}"
            );
        }
    }

    /// Slot (1-based) of the power pad at the lowest or highest rank.
    fn extreme_pad_slot(q: &Quadrant, a: &Assignment, highest: bool) -> Option<u32> {
        let slots = q
            .nets_of_kind(copack_geom::NetKind::Power)
            .filter_map(|n| a.position_of(n))
            .map(FingerIdx::get);
        if highest {
            slots.max()
        } else {
            slots.min()
        }
    }

    /// Walks a [`DeltaIrTracker`] the way the annealer drives it: each
    /// step applies a swap and then either keeps it, reverts it, or
    /// reverts and re-applies it, reading the score at random points in
    /// between (so stale marks from several swaps stack up before a
    /// read). One step in three moves the lowest- or highest-rank pad,
    /// the two that also change the wrap-around gap. Every read must
    /// equal the proxy rebuilt from scratch, bit for bit.
    fn walk_delta_ir(q: &Quadrant, initial: &Assignment, seed: u64, steps: usize) {
        let alpha = u32::try_from(initial.finger_count()).unwrap();
        assert!(alpha >= 2, "a walk needs two slots");
        let mut ir = DeltaIrTracker::new(q, initial).unwrap();
        let mut a = initial.clone();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let check = |ir: &mut DeltaIrTracker, a: &Assignment, step: usize| {
            assert_eq!(
                ir.delta_ir().to_bits(),
                delta_ir_from_scratch(q, a).to_bits(),
                "step {step}"
            );
        };
        check(&mut ir, &a, 0);
        for step in 0..steps {
            let forced = match rng.gen_range(0..6) {
                0 => extreme_pad_slot(q, &a, false),
                1 => extreme_pad_slot(q, &a, true),
                _ => None,
            };
            // The left slot of the swap: the forced pad moves left when
            // it can, right otherwise.
            let p = match forced {
                Some(slot) if slot > 1 && rng.gen_bool(0.5) => slot - 1,
                Some(slot) if slot < alpha => slot,
                Some(slot) => slot - 1,
                None => rng.gen_range(1..alpha),
            };
            let swap = |ir: &mut DeltaIrTracker, a: &mut Assignment| {
                ir.apply_adjacent_swap(FingerIdx::new(p));
                a.swap(FingerIdx::new(p), FingerIdx::new(p + 1)).unwrap();
            };
            swap(&mut ir, &mut a);
            if rng.gen_bool(0.5) {
                check(&mut ir, &a, step);
            }
            match rng.gen_range(0..3) {
                0 => {}
                1 => swap(&mut ir, &mut a),
                _ => {
                    swap(&mut ir, &mut a);
                    if rng.gen_bool(0.5) {
                        check(&mut ir, &a, step);
                    }
                    swap(&mut ir, &mut a);
                }
            }
            if rng.gen_bool(0.7) {
                check(&mut ir, &a, step);
            }
        }
        check(&mut ir, &a, steps);
    }

    #[test]
    fn delta_ir_tracker_matches_the_proxy_over_apply_revert_walks() {
        let q = quadrant();
        walk_delta_ir(&q, &dfa(&q, 1).unwrap(), 3, 2_000);
    }

    #[test]
    fn delta_ir_tracker_matches_the_proxy_with_a_single_pad() {
        // One pad: every move is at rank 0 = rank k − 1, and the only gap
        // is the wrap-around one.
        let q = Quadrant::builder()
            .row([1u32, 2, 3, 4])
            .row([5u32, 6, 7])
            .net_kind(6u32, copack_geom::NetKind::Power)
            .fingers(9)
            .build()
            .unwrap();
        walk_delta_ir(&q, &dfa(&q, 1).unwrap(), 11, 1_000);
    }

    #[test]
    fn delta_ir_tracker_matches_the_proxy_on_a_large_fuzz_quadrant() {
        let case = copack_gen::large_fuzz_case(5, 0).unwrap();
        let q = case.quadrant;
        assert!(q.nets_of_kind(copack_geom::NetKind::Power).count() > 2);
        walk_delta_ir(&q, &dfa(&q, 1).unwrap(), 17, 5_000);
    }

    #[test]
    fn swaps_are_self_inverse() {
        let q = quadrant();
        let a = dfa(&q, 1).unwrap();
        let mut sections = SectionTracker::new(&q, &a).unwrap();
        let mut omega_t = OmegaTracker::new(&q, &a, 3).unwrap();
        let mut ir = DeltaIrTracker::new(&q, &a).unwrap();
        let s0 = sections.clone();
        let o0 = omega_t.clone();
        let i0 = ir.clone();
        let left = a.net_at(FingerIdx::new(4)).unwrap();
        let right = a.net_at(FingerIdx::new(5)).unwrap();
        sections.apply_adjacent_swap(left, right);
        omega_t.apply_adjacent_swap(FingerIdx::new(4));
        ir.apply_adjacent_swap(FingerIdx::new(4));
        // Revert: note the nets' sides are now exchanged.
        sections.apply_adjacent_swap(right, left);
        omega_t.apply_adjacent_swap(FingerIdx::new(4));
        ir.apply_adjacent_swap(FingerIdx::new(4));
        assert_eq!(sections, s0);
        assert_eq!(omega_t, o0);
        assert_eq!(ir, i0);
    }

    #[test]
    fn delta_ir_tracker_matches_proxy_at_construction() {
        let q = quadrant();
        let a = dfa(&q, 1).unwrap();
        let mut ir = DeltaIrTracker::new(&q, &a).unwrap();
        assert_eq!(ir.power_pad_count(), 3);
        assert_eq!(ir.delta_ir(), delta_ir_from_scratch(&q, &a));
    }

    #[test]
    fn delta_ir_tracker_handles_powerless_quadrants() {
        let q = Quadrant::builder().row([1u32, 2]).build().unwrap();
        let a = Assignment::from_order([1u32, 2]);
        let mut ir = DeltaIrTracker::new(&q, &a).unwrap();
        assert_eq!(ir.power_pad_count(), 0);
        assert_eq!(ir.delta_ir(), 0.0);
    }

    #[test]
    fn delta_ir_tracker_tracks_sparse_assignments() {
        // More fingers than nets: power pads can move into empty slots.
        let mut b = Quadrant::builder()
            .row([10u32, 2, 4, 7, 0])
            .row([1u32, 3, 5, 8])
            .row([11u32, 6, 9])
            .net_kind(10u32, copack_geom::NetKind::Power)
            .net_kind(5u32, copack_geom::NetKind::Power)
            .fingers(15);
        for (i, n) in [10u32, 2, 4, 7, 0, 1, 3, 5, 8, 11, 6, 9].iter().enumerate() {
            b = b.net_tier(*n, TierId::new((i % 3) as u8 + 1));
        }
        let q = b.build().unwrap();
        let initial = dfa(&q, 1).unwrap();
        let mut ir = DeltaIrTracker::new(&q, &initial).unwrap();
        let mut a = initial.clone();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for step in 0..300 {
            let p = rng.gen_range(1..=14u32);
            ir.apply_adjacent_swap(FingerIdx::new(p));
            a.swap(FingerIdx::new(p), FingerIdx::new(p + 1)).unwrap();
            assert_eq!(ir.delta_ir(), delta_ir_from_scratch(&q, &a), "step {step}");
        }
    }

    #[test]
    fn section_tracker_starts_at_zero_id() {
        let q = quadrant();
        let a = dfa(&q, 1).unwrap();
        let t = SectionTracker::new(&q, &a).unwrap();
        assert_eq!(t.increased_density(), 0);
        assert_eq!(t.counts().iter().sum::<u32>() as usize, 9);
    }

    #[test]
    fn omega_tracker_requires_dense_assignments() {
        let q = quadrant();
        let mut sparse = Assignment::empty(13);
        for (i, net) in dfa(&q, 1).unwrap().order().into_iter().enumerate() {
            sparse.place(net, FingerIdx::from_zero_based(i)).unwrap();
        }
        assert!(OmegaTracker::new(&q, &sparse, 3).is_err());
    }

    #[test]
    #[should_panic(expected = "cannot swap")]
    fn section_tracker_rejects_double_delimiters() {
        let q = quadrant();
        let a = dfa(&q, 1).unwrap();
        let mut t = SectionTracker::new(&q, &a).unwrap();
        // 11 and 6 are both top-row nets.
        t.apply_adjacent_swap(NetId::new(11), NetId::new(6));
    }
}
