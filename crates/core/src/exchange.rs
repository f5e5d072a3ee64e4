//! The finger/pad exchange step (paper Fig. 14): simulated annealing over
//! adjacent swaps under the monotonicity-preserving range constraint.
//!
//! Two implementations share the contract:
//!
//! * [`exchange`] — the production kernel. Each proposal touches only
//!   fixed-size incremental state: positions live in flat arrays instead
//!   of the assignment's `BTreeMap`, exchange ranges come from a
//!   [`RangeCache`], the Δ_IR term from a
//!   [`crate::DeltaIrTracker`], and the best-seen state is a **move
//!   journal** (accepted swaps + a prefix length) rematerialised once at
//!   the end instead of a full clone per improvement. With the `Proxy`
//!   objective the inner loop allocates nothing.
//! * [`exchange_reference`] — the original straight-line implementation
//!   that re-derives ranges and rebuilds the pad-spacing proxy every move.
//!   Kept as the executable specification: with the `Proxy` objective the
//!   two produce **bit-identical** [`ExchangeResult`]s for any seed
//!   (equivalence is property- and integration-tested), and the benches
//!   measure the kernel against it.
//!
//! With [`IrObjective::FullSolve`] the kernel additionally warm-starts
//! each grid solve from the last *accepted* solution (the `guess` of
//! [`copack_power::solve_sor_nodes`]); the solve converges to the same
//! tolerance but not bit-for-bit, so equivalence guarantees are restricted
//! to the `Proxy` objective.

use copack_geom::{Assignment, FingerIdx, NetId, NetKind, Quadrant, StackConfig};
use copack_obs::{Event, NoopRecorder, Recorder};
use copack_power::{GridSpec, PadRing, PadSpacingProxy};
use copack_route::{check_monotonic, exchange_range, RangeCache};
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::{
    evaluate_ir, margin_penalty, omega_of_assignment, Acceptance, CancelToken, CoreError,
    CostWeights, DeltaIrTracker, ExchangeConfig, IrObjective, MarginTracker, OmegaTracker,
    SectionTracker,
};

/// How many proposals the kernel lets pass between cancellation polls
/// inside one temperature step. Steps are also polled at their boundary,
/// so this only bounds the abort latency of very large
/// `moves_per_temp` schedules; the poll itself is a relaxed atomic load.
const CANCEL_POLL_MASK: usize = 0x1FF;

/// Outcome of the exchange step.
#[derive(Debug, Clone, PartialEq)]
pub struct ExchangeResult {
    /// The improved assignment.
    pub assignment: Assignment,
    /// Run statistics.
    pub stats: ExchangeStats,
}

/// Statistics of one annealing run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExchangeStats {
    /// Cost of the initial order (Eq. 3).
    pub initial_cost: f64,
    /// Cost of the final order.
    pub final_cost: f64,
    /// Moves proposed (including range-constraint rejections).
    pub proposed: usize,
    /// Moves accepted.
    pub accepted: usize,
    /// Accepted moves that made the cost worse (uphill).
    pub uphill_accepted: usize,
    /// Moves rejected by the range constraint before costing.
    pub constraint_rejected: usize,
    /// Temperature steps performed.
    pub temperature_steps: usize,
}

/// The movable-net set of a run: power pads only for 2-D designs
/// (Fig. 14 line 7), every pad for stacking designs (line 5).
fn movable_nets(quadrant: &Quadrant, psi: u8) -> Vec<NetId> {
    if psi == 1 {
        quadrant.nets_of_kind(NetKind::Power).collect()
    } else {
        quadrant.nets().map(|n| n.id).collect()
    }
}

/// Incremental state of the Eq. 3 Δ_IR term.
enum IrEval {
    /// λ = 0: the term never contributes.
    Off,
    /// The paper's pad-spacing proxy, tracked incrementally.
    Proxy(DeltaIrTracker),
    /// Full grid solves, warm-started from the last accepted solution.
    Full {
        grid: GridSpec,
        /// Dense indices of the power nets, in net-id order (the order the
        /// naive path iterates them).
        power_idx: Vec<usize>,
        alpha: f64,
        /// Voltages of the last *accepted* solve, the next warm start.
        warm: Option<Vec<f64>>,
        /// Voltages of the most recent solve, promoted to `warm` on accept.
        pending: Option<Vec<f64>>,
    },
}

impl IrEval {
    /// λ-weighted Δ_IR contribution of the current state.
    fn cost_term(&mut self, lambda: f64, pos1: &[u32]) -> Result<f64, CoreError> {
        match self {
            Self::Off => Ok(0.0),
            Self::Proxy(tracker) => {
                if tracker.power_pad_count() == 0 {
                    Ok(0.0)
                } else {
                    Ok(lambda * tracker.delta_ir())
                }
            }
            Self::Full {
                grid,
                power_idx,
                alpha,
                warm,
                pending,
            } => {
                // Replicates `evaluate_ir`'s pad construction: each power
                // pad appears once per package side.
                let mut ts = Vec::with_capacity(power_idx.len() * 4);
                for &i in power_idx.iter() {
                    let frac = (f64::from(pos1[i]) - 0.5) / *alpha;
                    for side in 0..4u32 {
                        ts.push((f64::from(side) + frac) / 4.0);
                    }
                }
                if ts.is_empty() {
                    return Ok(0.0);
                }
                let ring = PadRing::from_ts(ts)?;
                let map = copack_power::solve_sor_nodes(
                    grid,
                    &ring.clamp_nodes(grid),
                    warm.as_deref(),
                    &mut NoopRecorder,
                )?;
                let drop = map.max_drop();
                *pending = Some(map.voltages().to_vec());
                Ok(lambda * drop)
            }
        }
    }

    /// Marks the last-evaluated state as accepted (its solution becomes
    /// the next warm start).
    fn commit(&mut self) {
        if let Self::Full { warm, pending, .. } = self {
            if let Some(v) = pending.take() {
                *warm = Some(v);
            }
        }
    }

    /// Discards the last evaluation after a rejected move.
    fn discard(&mut self) {
        if let Self::Full { pending, .. } = self {
            *pending = None;
        }
    }

    /// Mirrors an adjacent swap of `left_slot` and `left_slot + 1`.
    ///
    /// Returns `true` iff the swap can change the Δ_IR term, so callers
    /// may cache the term's value and only call [`IrEval::cost_term`]
    /// again when it does. For the proxy this is exact (the tracker
    /// reports whether a pad coordinate moved — two power pads or two
    /// non-power nets trading places leave the spacing untouched); a full
    /// solve is conservatively always treated as changed.
    fn apply_adjacent_swap(&mut self, left_slot: FingerIdx) -> bool {
        match self {
            Self::Off => false,
            Self::Proxy(tracker) => tracker.apply_adjacent_swap(left_slot),
            Self::Full { .. } => true,
        }
    }
}

/// Runs the power-supply-noise-driven exchange (Fig. 14) on an initial
/// order.
///
/// * 2-D designs (ψ = 1): only **power** pads are picked for swapping
///   (Fig. 14 line 7); `ID` (Eq. 2) and `Δ_IR` drive the cost, ω is
///   identically zero.
/// * Stacking designs (ψ ≥ 2): any pad may move (line 5) and ω joins the
///   cost.
///
/// Every proposed swap must keep both involved nets inside their exchange
/// ranges (strictly between their same-row neighbours), so the result is
/// always monotonic-legal and hence routable; the final order is verified
/// before it is returned.
///
/// This is the incremental kernel (see the module docs); it matches
/// [`exchange_reference`] bit for bit under the `Proxy` objective.
///
/// # Errors
///
/// * [`CoreError::BadConfig`] for invalid weights or schedule.
/// * [`CoreError::NoMovablePads`] for a 2-D design without power nets.
/// * [`CoreError::Route`] if `initial` is incomplete or illegal, or —
///   defensively — if the final order fails the monotonicity re-check.
pub fn exchange(
    quadrant: &Quadrant,
    initial: &Assignment,
    stack: &StackConfig,
    config: &ExchangeConfig,
) -> Result<ExchangeResult, CoreError> {
    exchange_traced(
        quadrant,
        initial,
        stack,
        config,
        &mut NoopRecorder,
        &CancelToken::new(),
    )
}

/// [`exchange`] with telemetry and cooperative cancellation.
///
/// Emits `RunStart`, per-move `MoveAccepted`/`MoveRejected`, per-step
/// `TempStep` and a final `RunEnd` into `recorder`. The recorder's
/// [`Recorder::enabled`]/[`Recorder::wants_rejected`] flags are cached
/// once at startup; with a disabled recorder the run is bit-identical to
/// [`exchange`] (it *is* `exchange` — the plain entry point delegates
/// here with a [`NoopRecorder`]). Recording only reads values the run
/// already computed, so an enabled recorder observes, and never
/// perturbs, the trajectory.
///
/// The annealing loop polls `cancel` at every temperature-step boundary
/// and every few hundred proposals within a step, returning
/// [`CoreError::Cancelled`] promptly once the token fires (explicitly or
/// via its wall-clock deadline). A run that completes without the token
/// firing is **bit-identical** to [`exchange`] — the polls never touch
/// the RNG stream or any cost state. `copack-serve` passes a deadline
/// token here to enforce per-job timeouts.
///
/// # Errors
///
/// As [`exchange`], plus [`CoreError::Cancelled`].
pub fn exchange_traced(
    quadrant: &Quadrant,
    initial: &Assignment,
    stack: &StackConfig,
    config: &ExchangeConfig,
    recorder: &mut dyn Recorder,
    cancel: &CancelToken,
) -> Result<ExchangeResult, CoreError> {
    let mut driver = ExchangeDriver::new(quadrant, initial, stack, config, recorder)?;
    driver.run_to_end(recorder, cancel)?;
    driver.finish(recorder)
}

/// A pruned run's remains: the accepted-move journal, its best-prefix
/// length, and the stats with `final_cost` stamped to the best seen —
/// everything [`crate::portfolio`] needs to keep the trajectory as a
/// best-of candidate after the driver is gone.
pub(crate) type FrozenRun = (Vec<(u32, u32)>, usize, ExchangeStats);

/// Resumable state of one annealing run: the incremental kernel hoisted
/// into a struct so the schedule can be advanced in segments.
///
/// [`exchange_traced`] drives a driver straight to completion —
/// construction, every temperature step and the final rematerialisation
/// execute the exact statements of the former inline implementation, in
/// the same order, so results stay bit-identical to the pre-refactor
/// kernel (and to [`exchange_reference`] under the `Proxy` objective).
/// The multi-start portfolio (`crate::portfolio`) instead advances K
/// drivers epoch by epoch: pausing between [`ExchangeDriver::temp_step`]
/// calls touches no RNG or cost state, which is what makes sync-epoch
/// prune decisions schedule-independent.
pub(crate) struct ExchangeDriver<'a> {
    quadrant: &'a Quadrant,
    /// A private copy of the initial order, kept for the final
    /// journal replay.
    initial: Assignment,
    weights: CostWeights,
    acceptance: Acceptance,
    cooling: f64,
    psi: u8,
    alpha: usize,
    movable_idx: Vec<usize>,
    cache: RangeCache,
    pos1: Vec<u32>,
    slot_net: Vec<Option<usize>>,
    sections: SectionTracker,
    is_delim: Vec<bool>,
    id_value: u32,
    omega_tracker: Option<OmegaTracker>,
    margin_tracker: Option<MarginTracker>,
    live: Option<Assignment>,
    ir: IrEval,
    rng: rand::rngs::StdRng,
    ir_term: f64,
    current_cost: f64,
    temperature: f64,
    final_temp: f64,
    moves_per_temp: usize,
    stats: ExchangeStats,
    rec_on: bool,
    rec_rejected: bool,
    journal: Vec<(u32, u32)>,
    best_len: usize,
    best_cost: f64,
}

impl<'a> ExchangeDriver<'a> {
    /// Validates the inputs, builds every incremental tracker, computes
    /// the initial cost and temperature, and records `RunStart`.
    ///
    /// The recorder's `enabled`/`wants_rejected` flags are cached here,
    /// once — exactly as the inline kernel cached them at startup.
    ///
    /// # Errors
    ///
    /// As [`exchange`].
    pub(crate) fn new(
        quadrant: &'a Quadrant,
        initial: &Assignment,
        stack: &StackConfig,
        config: &ExchangeConfig,
        recorder: &mut dyn Recorder,
    ) -> Result<Self, CoreError> {
        if !config.weights.is_valid() {
            return Err(CoreError::BadConfig {
                parameter: "weights",
            });
        }
        if !config.schedule.is_valid() {
            return Err(CoreError::BadConfig {
                parameter: "schedule",
            });
        }
        check_monotonic(quadrant, initial)?;
        initial.validate_complete(quadrant)?;

        let psi = stack.tiers;
        let movable = movable_nets(quadrant, psi);
        if movable.is_empty() {
            return Err(CoreError::NoMovablePads);
        }

        let alpha = initial.finger_count();

        // Dense net indexing (the quadrant's `NetIndex` order) and flat
        // position state: the inner loop does zero keyed lookups — slots,
        // positions, ranges and section state are all arrays over the
        // same interned domain.
        let cache = RangeCache::new(quadrant, initial)?;
        let ids: Vec<NetId> = quadrant.nets().map(|n| n.id).collect();
        let movable_idx: Vec<usize> = movable
            .iter()
            .map(|&n| cache.index_of(n).expect("movable net is in the quadrant"))
            .collect();
        let mut pos1: Vec<u32> = vec![0; ids.len()];
        let mut slot_net: Vec<Option<usize>> = vec![None; alpha];
        for (i, &id) in ids.iter().enumerate() {
            let p = initial
                .position_of(id)
                .expect("assignment validated complete");
            pos1[i] = p.get();
            slot_net[p.zero_based()] = Some(i);
        }

        // Incremental trackers: an adjacent swap moves one net across at
        // most one section delimiter, touches at most two omega groups and
        // moves at most one power pad, so every Eq. 3 term updates in O(1)
        // (see `tracker.rs`; equivalence to the from-scratch definitions
        // is property-tested there). Omega falls back to recomputation for
        // sparse assignments, which the tracker does not model.
        let sections = SectionTracker::new(quadrant, initial)?;
        // ID bookkeeping: the value is an integer (no float-ordering
        // hazard), and it only changes when a net crosses a section
        // delimiter — which requires one of the swapped nets to be a
        // top-row net. Pre-resolving delimiter-ness lets the hot loop skip
        // the tracker entirely for the common within-section swap, and
        // `id_value` caches the O(sections) metric between crossings.
        let is_delim: Vec<bool> = ids.iter().map(|&id| sections.is_delimiter(id)).collect();
        let id_value = sections.increased_density();
        let dense = initial.net_count() == alpha;
        let omega_tracker = if psi > 1 && dense {
            Some(OmegaTracker::new(quadrant, initial, psi)?)
        } else {
            None
        };
        // The margin tracker only exists when the term is weighted: at
        // μ = 0 nothing is built or updated and the run is bit-identical
        // to pre-margin kernels.
        let margin_tracker = if config.weights.margin > 0.0 {
            Some(MarginTracker::new(quadrant, initial))
        } else {
            None
        };
        // The omega fallback is the one consumer that still needs a live
        // assignment per move; everything else runs on the flat arrays.
        let live: Option<Assignment> =
            if psi > 1 && config.weights.phi > 0.0 && omega_tracker.is_none() {
                Some(initial.clone())
            } else {
                None
            };
        let ir = if config.weights.lambda > 0.0 {
            match &config.ir_objective {
                IrObjective::Proxy => IrEval::Proxy(DeltaIrTracker::new(quadrant, initial)?),
                IrObjective::FullSolve { grid } => IrEval::Full {
                    grid: grid.clone(),
                    power_idx: quadrant
                        .nets_of_kind(NetKind::Power)
                        .map(|n| cache.index_of(n).expect("power net is in the quadrant"))
                        .collect(),
                    alpha: alpha as f64,
                    warm: None,
                    pending: None,
                },
            }
        } else {
            IrEval::Off
        };

        let mut driver = Self {
            quadrant,
            initial: initial.clone(),
            weights: config.weights,
            acceptance: config.acceptance,
            cooling: config.schedule.cooling,
            psi,
            alpha,
            movable_idx,
            cache,
            pos1,
            slot_net,
            sections,
            is_delim,
            id_value,
            omega_tracker,
            margin_tracker,
            live,
            ir,
            rng: rand::rngs::StdRng::seed_from_u64(config.seed),
            ir_term: 0.0,
            current_cost: 0.0,
            temperature: 0.0,
            final_temp: 0.0,
            moves_per_temp: config.schedule.moves_per_temp_per_finger * alpha,
            stats: ExchangeStats {
                initial_cost: 0.0,
                final_cost: 0.0,
                proposed: 0,
                accepted: 0,
                uphill_accepted: 0,
                constraint_rejected: 0,
                temperature_steps: 0,
            },
            rec_on: false,
            rec_rejected: false,
            journal: Vec::new(),
            best_len: 0,
            best_cost: 0.0,
        };

        driver.ir_term = if driver.weights.lambda > 0.0 {
            driver.ir.cost_term(driver.weights.lambda, &driver.pos1)?
        } else {
            0.0
        };
        let initial_cost = driver.eval_cost(driver.ir_term, driver.id_value)?;
        driver.ir.commit(); // the initial state is accepted by definition
        driver.current_cost = initial_cost;

        // Temperature scale: tied to the IR/ID part of the cost only. The
        // omega term's magnitude grows with the finger count and would
        // otherwise over-heat stacking runs relative to 2-D ones.
        let omega_part = match (&driver.omega_tracker, psi > 1 && config.weights.phi > 0.0) {
            (Some(tracker), true) => config.weights.phi * tracker.omega() as f64,
            (None, true) => {
                config.weights.phi * omega_of_assignment(quadrant, initial, psi)? as f64
            }
            _ => 0.0,
        };
        let temp_base = (initial_cost - omega_part).max(0.0);
        driver.temperature = config.schedule.initial_temp_factor * (temp_base + 1.0);
        driver.final_temp = driver.temperature * config.schedule.final_temp_ratio;

        driver.stats.initial_cost = initial_cost;
        driver.stats.final_cost = initial_cost;
        driver.best_cost = initial_cost;

        // Telemetry flags, cached once: with a disabled recorder every
        // event site is a never-taken branch and the run stays
        // bit-identical.
        driver.rec_on = recorder.enabled();
        driver.rec_rejected = driver.rec_on && recorder.wants_rejected();
        if driver.rec_on {
            recorder.record(&Event::RunStart {
                initial_cost,
                ir_term: driver.ir_term,
                initial_temperature: driver.temperature,
                final_temperature: driver.final_temp,
                cooling: config.schedule.cooling,
                moves_per_temp: driver.moves_per_temp as u64,
                movable_nets: driver.movable_idx.len() as u64,
            });
        }
        Ok(driver)
    }

    /// Whether the schedule has cooled past its final temperature.
    pub(crate) fn is_done(&self) -> bool {
        self.temperature <= self.final_temp
    }

    /// Best cost seen so far (the initial cost before any step).
    pub(crate) fn best_cost(&self) -> f64 {
        self.best_cost
    }

    /// Cost of the *current* (not best) state — what a tempering swap
    /// decision must look at, since the plan a rung would hand over is
    /// its live trajectory, not its best prefix.
    pub(crate) fn current_cost(&self) -> f64 {
        self.current_cost
    }

    /// The run's thermal state `(temperature, final_temp)`.
    ///
    /// Both values move together in a tempering swap: the pair encodes
    /// the rung, and because every rung shares `final_temp_ratio` and
    /// `cooling`, swapping pairs preserves each driver's remaining step
    /// count — the ladder stays in lockstep across sync epochs.
    pub(crate) fn thermal(&self) -> (f64, f64) {
        (self.temperature, self.final_temp)
    }

    /// Installs a thermal state taken from another rung (see
    /// [`ExchangeDriver::thermal`]). Exchanging temperatures while plans,
    /// journals and RNG streams stay put is observably identical to the
    /// textbook "swap the configurations" formulation, but keeps every
    /// cost ledger and the journal-replay contract trivially intact.
    pub(crate) fn set_thermal(&mut self, temperature: f64, final_temp: f64) {
        self.temperature = temperature;
        self.final_temp = final_temp;
    }

    /// The accepted-move journal so far.
    pub(crate) fn journal(&self) -> &[(u32, u32)] {
        &self.journal
    }

    /// Length of the journal prefix that produced [`Self::best_cost`].
    pub(crate) fn best_len(&self) -> usize {
        self.best_len
    }

    /// Freezes the run for a portfolio prune: the accepted-move journal,
    /// its best-prefix length, and the stats so far with `final_cost`
    /// stamped to the best seen. The portfolio reduction keeps the frozen
    /// trajectory as a best-of candidate after the driver is dropped.
    pub(crate) fn freeze(&self) -> FrozenRun {
        let mut stats = self.stats;
        stats.final_cost = self.best_cost;
        (self.journal.clone(), self.best_len, stats)
    }

    /// Advances up to `steps` temperature steps (stopping early when the
    /// schedule completes).
    ///
    /// # Errors
    ///
    /// [`CoreError::Cancelled`] when `cancel` fires; the state then holds
    /// whatever progress was made and must not be advanced further.
    pub(crate) fn advance(
        &mut self,
        steps: usize,
        recorder: &mut dyn Recorder,
        cancel: &CancelToken,
    ) -> Result<(), CoreError> {
        for _ in 0..steps {
            if self.is_done() {
                break;
            }
            self.temp_step(recorder, cancel)?;
        }
        Ok(())
    }

    /// Runs the remaining schedule to completion.
    ///
    /// # Errors
    ///
    /// As [`ExchangeDriver::advance`].
    pub(crate) fn run_to_end(
        &mut self,
        recorder: &mut dyn Recorder,
        cancel: &CancelToken,
    ) -> Result<(), CoreError> {
        while !self.is_done() {
            self.temp_step(recorder, cancel)?;
        }
        Ok(())
    }

    /// Eq. 3, term by term in the reference order (the additions must
    /// associate identically for bit-equal costs). The λ·Δ_IR term comes
    /// in pre-computed: it is the only float-valued term, and it is
    /// cached across moves that leave the pad coordinates untouched —
    /// reusing the identical f64 instead of re-deriving it keeps
    /// bit-equality trivially intact.
    fn eval_cost(&self, ir_term: f64, id: u32) -> Result<f64, CoreError> {
        let mut cost = 0.0;
        if self.weights.lambda > 0.0 {
            cost += ir_term;
        }
        if self.weights.rho > 0.0 {
            cost += self.weights.rho * f64::from(id);
        }
        if self.weights.phi > 0.0 && self.psi > 1 {
            let omega = match &self.omega_tracker {
                Some(tracker) => tracker.omega(),
                None => {
                    let a = self
                        .live
                        .as_ref()
                        .expect("fallback keeps a live assignment");
                    omega_of_assignment(self.quadrant, a, self.psi)?
                }
            };
            cost += self.weights.phi * omega as f64;
        }
        if self.weights.margin > 0.0 {
            let sm = self
                .margin_tracker
                .as_ref()
                .expect("margin tracker exists when the margin weight is set")
                .total();
            cost += self.weights.margin * sm as f64;
        }
        Ok(cost)
    }

    /// One temperature step: `moves_per_temp` proposals, the `TempStep`
    /// event, one cooling multiply.
    ///
    /// # Errors
    ///
    /// As [`ExchangeDriver::advance`].
    pub(crate) fn temp_step(
        &mut self,
        recorder: &mut dyn Recorder,
        cancel: &CancelToken,
    ) -> Result<(), CoreError> {
        if cancel.is_cancelled() {
            return Err(CoreError::Cancelled);
        }
        let step_start = self.stats;
        let mut step_ir_noop: u64 = 0;
        for _ in 0..self.moves_per_temp {
            self.stats.proposed += 1;
            if self.stats.proposed & CANCEL_POLL_MASK == 0 && cancel.is_cancelled() {
                return Err(CoreError::Cancelled);
            }
            let mi = self.movable_idx[self.rng.gen_range(0..self.movable_idx.len())];
            let pos = self.pos1[mi];
            let right = self.rng.gen_bool(0.5);
            let target = if right {
                if pos as usize >= self.alpha {
                    self.stats.constraint_rejected += 1;
                    continue;
                }
                pos + 1
            } else {
                if pos == 1 {
                    self.stats.constraint_rejected += 1;
                    continue;
                }
                pos - 1
            };

            // Range constraint: the moved net must stay inside its span,
            // and the displaced neighbour (if any) inside its own.
            let (lo, hi) = self.cache.range(mi);
            if target < lo.get() || target > hi.get() {
                self.stats.constraint_rejected += 1;
                continue;
            }
            let neighbour = self.slot_net[(target - 1) as usize];
            if let Some(ni) = neighbour {
                let (nlo, nhi) = self.cache.range(ni);
                if pos < nlo.get() || pos > nhi.get() {
                    self.stats.constraint_rejected += 1;
                    continue;
                }
            }

            // Apply the swap to the trackers (self-inverse on revert).
            let left_slot = pos.min(target);
            let left_net = self.slot_net[(left_slot - 1) as usize];
            let right_net = self.slot_net[left_slot as usize];
            // The section counts only change when exactly one of the two
            // nets is a delimiter; skip the tracker (and the cached ID
            // refresh) for the common within-section swap.
            let crosses = match (left_net, right_net) {
                (Some(l), Some(r)) => self.is_delim[l] != self.is_delim[r],
                _ => false,
            };
            let id_before = self.id_value;
            if crosses {
                let (l, r) = (left_net.expect("both set"), right_net.expect("both set"));
                self.sections.apply_adjacent_swap_idx(l, r);
                self.id_value = self.sections.increased_density();
            }
            if let Some(tracker) = &mut self.omega_tracker {
                tracker.apply_adjacent_swap(FingerIdx::new(left_slot));
            }
            if let Some(tracker) = &mut self.margin_tracker {
                tracker.apply_adjacent_swap(FingerIdx::new(left_slot));
            }
            let ir_changed = self.ir.apply_adjacent_swap(FingerIdx::new(left_slot));
            if self.rec_on && !ir_changed {
                step_ir_noop += 1;
            }
            self.slot_net
                .swap((pos - 1) as usize, (target - 1) as usize);
            if let Some(i) = self.slot_net[(target - 1) as usize] {
                self.pos1[i] = target;
            }
            if let Some(i) = self.slot_net[(pos - 1) as usize] {
                self.pos1[i] = pos;
            }
            if let Some(a) = &mut self.live {
                a.swap(FingerIdx::new(pos), FingerIdx::new(target))?;
            }

            let ir_term_before = self.ir_term;
            if ir_changed {
                self.ir_term = self.ir.cost_term(self.weights.lambda, &self.pos1)?;
            }
            let new_cost = self.eval_cost(self.ir_term, self.id_value)?;
            let delta = new_cost - self.current_cost;
            let accept = if delta <= 0.0 {
                true
            } else {
                self.acceptance
                    .accepts(delta, self.temperature, self.rng.gen::<f64>())
            };
            if accept {
                self.stats.accepted += 1;
                if delta > 0.0 {
                    self.stats.uphill_accepted += 1;
                }
                self.current_cost = new_cost;
                self.ir.commit();
                // Only the moved nets' row-neighbours see stale ranges.
                self.cache.note_moved(mi, &self.pos1);
                if let Some(ni) = neighbour {
                    self.cache.note_moved(ni, &self.pos1);
                }
                self.journal.push((pos, target));
                if self.current_cost < self.best_cost {
                    self.best_cost = self.current_cost;
                    self.best_len = self.journal.len();
                }
                if self.rec_on {
                    recorder.record(&Event::MoveAccepted {
                        step: self.stats.temperature_steps as u32,
                        left_slot,
                        delta,
                        cost: new_cost,
                        ir_term: self.ir_term,
                        ir_changed,
                        uphill: delta > 0.0,
                    });
                }
            } else {
                if self.rec_rejected {
                    recorder.record(&Event::MoveRejected {
                        step: self.stats.temperature_steps as u32,
                        left_slot,
                        delta,
                    });
                }
                self.ir.discard();
                self.ir_term = ir_term_before;
                self.slot_net
                    .swap((pos - 1) as usize, (target - 1) as usize); // revert
                if let Some(i) = self.slot_net[(pos - 1) as usize] {
                    self.pos1[i] = pos;
                }
                if let Some(i) = self.slot_net[(target - 1) as usize] {
                    self.pos1[i] = target;
                }
                if let Some(a) = &mut self.live {
                    a.swap(FingerIdx::new(pos), FingerIdx::new(target))?;
                }
                if crosses {
                    let (l, r) = (left_net.expect("both set"), right_net.expect("both set"));
                    self.sections.apply_adjacent_swap_idx(r, l);
                    self.id_value = id_before;
                }
                if let Some(tracker) = &mut self.omega_tracker {
                    tracker.apply_adjacent_swap(FingerIdx::new(left_slot));
                }
                if let Some(tracker) = &mut self.margin_tracker {
                    tracker.apply_adjacent_swap(FingerIdx::new(left_slot));
                }
                self.ir.apply_adjacent_swap(FingerIdx::new(left_slot));
            }
        }
        if self.rec_on {
            recorder.record(&Event::TempStep {
                step: self.stats.temperature_steps as u32,
                temperature: self.temperature,
                proposed: (self.stats.proposed - step_start.proposed) as u64,
                accepted: (self.stats.accepted - step_start.accepted) as u64,
                uphill_accepted: (self.stats.uphill_accepted - step_start.uphill_accepted) as u64,
                constraint_rejected: (self.stats.constraint_rejected
                    - step_start.constraint_rejected) as u64,
                ir_noop_applied: step_ir_noop,
                cost: self.current_cost,
            });
        }
        self.temperature *= self.cooling;
        self.stats.temperature_steps += 1;
        Ok(())
    }

    /// Rematerialises the best state seen, re-checks its legality, and
    /// records `RunEnd`.
    ///
    /// # Errors
    ///
    /// [`CoreError::Route`] — defensively — if the final order fails the
    /// monotonicity re-check.
    pub(crate) fn finish(
        &mut self,
        recorder: &mut dyn Recorder,
    ) -> Result<ExchangeResult, CoreError> {
        // Rematerialise the best state: replay the accepted-move prefix
        // onto the initial order.
        let mut best = self.initial.clone();
        for &(a, b) in &self.journal[..self.best_len] {
            best.swap(FingerIdx::new(a), FingerIdx::new(b))?;
        }
        // The range constraint guarantees legality move by move; re-check
        // the final order for real (not just in debug builds) so a tracker
        // or journal defect can never escape as an unroutable "result".
        check_monotonic(self.quadrant, &best)?;
        self.stats.final_cost = self.best_cost;
        if self.rec_on {
            recorder.record(&Event::RunEnd {
                final_cost: self.best_cost,
                proposed: self.stats.proposed as u64,
                accepted: self.stats.accepted as u64,
                uphill_accepted: self.stats.uphill_accepted as u64,
                constraint_rejected: self.stats.constraint_rejected as u64,
                temperature_steps: self.stats.temperature_steps as u64,
            });
        }
        Ok(ExchangeResult {
            assignment: best,
            stats: self.stats,
        })
    }
}

/// The original from-scratch exchange implementation, kept as the
/// executable specification for [`exchange`].
///
/// Each move re-derives both exchange ranges, re-collects the power-pad
/// coordinates and rebuilds the [`PadSpacingProxy`] — `O(β)`-ish work per
/// proposal — and clones the whole assignment on every improvement. Use it
/// to cross-check the kernel (they are bit-identical under
/// [`IrObjective::Proxy`]) and as the baseline in the benches; use
/// [`exchange`] everywhere else.
///
/// # Errors
///
/// As [`exchange`].
pub fn exchange_reference(
    quadrant: &Quadrant,
    initial: &Assignment,
    stack: &StackConfig,
    config: &ExchangeConfig,
) -> Result<ExchangeResult, CoreError> {
    exchange_reference_traced(quadrant, initial, stack, config, &mut NoopRecorder)
}

/// [`exchange_reference`] with telemetry, emitting the same event
/// vocabulary as [`exchange_traced`].
///
/// Under the `Proxy` objective the two record **equal** event streams
/// for any seed (the full-trajectory equivalence property): the
/// reference derives `ir_changed` from the swapped nets' kinds — exactly
/// one of the two slots holds a power pad, an empty slot counting as
/// non-power — which is the same predicate the kernel's
/// [`crate::DeltaIrTracker`] answers from its slot ranks.
///
/// # Errors
///
/// As [`exchange`].
pub fn exchange_reference_traced(
    quadrant: &Quadrant,
    initial: &Assignment,
    stack: &StackConfig,
    config: &ExchangeConfig,
    recorder: &mut dyn Recorder,
) -> Result<ExchangeResult, CoreError> {
    if !config.weights.is_valid() {
        return Err(CoreError::BadConfig {
            parameter: "weights",
        });
    }
    if !config.schedule.is_valid() {
        return Err(CoreError::BadConfig {
            parameter: "schedule",
        });
    }
    check_monotonic(quadrant, initial)?;
    initial.validate_complete(quadrant)?;

    let psi = stack.tiers;
    let movable = movable_nets(quadrant, psi);
    if movable.is_empty() {
        return Err(CoreError::NoMovablePads);
    }

    let alpha = initial.finger_count();
    let mut sections = SectionTracker::new(quadrant, initial)?;
    let dense = initial.net_count() == alpha;
    let mut omega_tracker = if psi > 1 && dense {
        Some(OmegaTracker::new(quadrant, initial, psi)?)
    } else {
        None
    };
    // Returns `(cost, ir_term)`: the λ-weighted Δ_IR term is split out so
    // telemetry can report it per accepted move, exactly as the kernel's
    // cached term. The additions associate as before, so costs stay
    // bit-identical.
    let cost_of = |a: &Assignment,
                   sections: &SectionTracker,
                   omega_tracker: &Option<OmegaTracker>|
     -> Result<(f64, f64), CoreError> {
        let mut cost = 0.0;
        let mut ir_term = 0.0;
        if config.weights.lambda > 0.0 {
            match &config.ir_objective {
                IrObjective::Proxy => {
                    let ts: Vec<f64> = quadrant
                        .nets_of_kind(NetKind::Power)
                        .filter_map(|n| a.position_of(n))
                        .map(|f| (f.get() as f64 - 0.5) / alpha as f64)
                        .collect();
                    if !ts.is_empty() {
                        ir_term = config.weights.lambda * PadSpacingProxy::new(&ts)?.delta_ir();
                        cost += ir_term;
                    }
                }
                IrObjective::FullSolve { grid } => {
                    if let Some(drop) = evaluate_ir(quadrant, a, grid)? {
                        ir_term = config.weights.lambda * drop;
                        cost += ir_term;
                    }
                }
            }
        }
        if config.weights.rho > 0.0 {
            cost += config.weights.rho * f64::from(sections.increased_density());
        }
        if config.weights.phi > 0.0 && psi > 1 {
            let omega = match omega_tracker {
                Some(tracker) => tracker.omega(),
                None => omega_of_assignment(quadrant, a, psi)?,
            };
            cost += config.weights.phi * omega as f64;
        }
        if config.weights.margin > 0.0 {
            // From scratch every move — the executable spec of the
            // kernel's `MarginTracker`. Integer totals, so the two agree
            // exactly.
            cost += config.weights.margin * margin_penalty(quadrant, a) as f64;
        }
        Ok((cost, ir_term))
    };
    // The kernel's `DeltaIrTracker` reports whether a swap moved a power
    // pad's coordinate; the reference answers the same question from the
    // swapped slots' net kinds (an empty slot counts as non-power).
    let slot_is_power = |n: Option<NetId>| -> bool {
        n.is_some_and(|id| quadrant.net(id).map(|net| net.kind) == Some(NetKind::Power))
    };

    let mut rng = rand::rngs::StdRng::seed_from_u64(config.seed);
    let mut current = initial.clone();
    let (initial_cost, initial_ir_term) = cost_of(&current, &sections, &omega_tracker)?;
    let mut current_cost = initial_cost;

    let omega_part = match (&omega_tracker, psi > 1 && config.weights.phi > 0.0) {
        (Some(tracker), true) => config.weights.phi * tracker.omega() as f64,
        (None, true) => config.weights.phi * omega_of_assignment(quadrant, initial, psi)? as f64,
        _ => 0.0,
    };
    let temp_base = (initial_cost - omega_part).max(0.0);
    let mut temperature = config.schedule.initial_temp_factor * (temp_base + 1.0);
    let final_temp = temperature * config.schedule.final_temp_ratio;
    let moves_per_temp = config.schedule.moves_per_temp_per_finger * alpha;

    let mut stats = ExchangeStats {
        initial_cost,
        final_cost: initial_cost,
        proposed: 0,
        accepted: 0,
        uphill_accepted: 0,
        constraint_rejected: 0,
        temperature_steps: 0,
    };

    let rec_on = recorder.enabled();
    let rec_rejected = rec_on && recorder.wants_rejected();
    if rec_on {
        recorder.record(&Event::RunStart {
            initial_cost,
            ir_term: initial_ir_term,
            initial_temperature: temperature,
            final_temperature: final_temp,
            cooling: config.schedule.cooling,
            moves_per_temp: moves_per_temp as u64,
            movable_nets: movable.len() as u64,
        });
    }

    let mut best = current.clone();
    let mut best_cost = current_cost;

    while temperature > final_temp {
        let step_start = stats;
        let mut step_ir_noop: u64 = 0;
        for _ in 0..moves_per_temp {
            stats.proposed += 1;
            let net = movable[rng.gen_range(0..movable.len())];
            let pos = current.position_of(net).expect("complete assignment");
            let right = rng.gen_bool(0.5);
            let target = if right {
                if pos.get() as usize >= alpha {
                    stats.constraint_rejected += 1;
                    continue;
                }
                FingerIdx::new(pos.get() + 1)
            } else {
                if pos.get() == 1 {
                    stats.constraint_rejected += 1;
                    continue;
                }
                FingerIdx::new(pos.get() - 1)
            };

            let (lo, hi) = exchange_range(quadrant, &current, net)?;
            if target < lo || target > hi {
                stats.constraint_rejected += 1;
                continue;
            }
            if let Some(neighbour) = current.net_at(target) {
                let (nlo, nhi) = exchange_range(quadrant, &current, neighbour)?;
                if pos < nlo || pos > nhi {
                    stats.constraint_rejected += 1;
                    continue;
                }
            }

            let left_slot = if pos < target { pos } else { target };
            let left_net = current.net_at(left_slot);
            let right_net = current.net_at(FingerIdx::new(left_slot.get() + 1));
            if let (Some(l), Some(r)) = (left_net, right_net) {
                sections.apply_adjacent_swap(l, r);
            }
            if let Some(tracker) = &mut omega_tracker {
                tracker.apply_adjacent_swap(left_slot);
            }
            // Same predicate the kernel's tracker answers in O(1): the
            // Δ_IR term moves iff exactly one swapped slot holds a power
            // pad (`FullSolve` is conservatively always "changed").
            let ir_changed = config.weights.lambda > 0.0
                && match &config.ir_objective {
                    IrObjective::Proxy => slot_is_power(left_net) != slot_is_power(right_net),
                    IrObjective::FullSolve { .. } => true,
                };
            if rec_on && !ir_changed {
                step_ir_noop += 1;
            }
            current.swap(pos, target)?;
            let (new_cost, new_ir_term) = cost_of(&current, &sections, &omega_tracker)?;
            let delta = new_cost - current_cost;
            let accept = if delta <= 0.0 {
                true
            } else {
                config
                    .acceptance
                    .accepts(delta, temperature, rng.gen::<f64>())
            };
            if accept {
                stats.accepted += 1;
                if delta > 0.0 {
                    stats.uphill_accepted += 1;
                }
                current_cost = new_cost;
                if current_cost < best_cost {
                    best_cost = current_cost;
                    best = current.clone();
                }
                if rec_on {
                    recorder.record(&Event::MoveAccepted {
                        step: stats.temperature_steps as u32,
                        left_slot: left_slot.get(),
                        delta,
                        cost: new_cost,
                        ir_term: new_ir_term,
                        ir_changed,
                        uphill: delta > 0.0,
                    });
                }
            } else {
                if rec_rejected {
                    recorder.record(&Event::MoveRejected {
                        step: stats.temperature_steps as u32,
                        left_slot: left_slot.get(),
                        delta,
                    });
                }
                current.swap(pos, target)?; // revert
                if let (Some(l), Some(r)) = (left_net, right_net) {
                    sections.apply_adjacent_swap(r, l);
                }
                if let Some(tracker) = &mut omega_tracker {
                    tracker.apply_adjacent_swap(left_slot);
                }
            }
        }
        if rec_on {
            recorder.record(&Event::TempStep {
                step: stats.temperature_steps as u32,
                temperature,
                proposed: (stats.proposed - step_start.proposed) as u64,
                accepted: (stats.accepted - step_start.accepted) as u64,
                uphill_accepted: (stats.uphill_accepted - step_start.uphill_accepted) as u64,
                constraint_rejected: (stats.constraint_rejected - step_start.constraint_rejected)
                    as u64,
                ir_noop_applied: step_ir_noop,
                cost: current_cost,
            });
        }
        temperature *= config.schedule.cooling;
        stats.temperature_steps += 1;
    }

    check_monotonic(quadrant, &best)?;
    stats.final_cost = best_cost;
    if rec_on {
        recorder.record(&Event::RunEnd {
            final_cost: best_cost,
            proposed: stats.proposed as u64,
            accepted: stats.accepted as u64,
            uphill_accepted: stats.uphill_accepted as u64,
            constraint_rejected: stats.constraint_rejected as u64,
            temperature_steps: stats.temperature_steps as u64,
        });
    }
    Ok(ExchangeResult {
        assignment: best,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{dfa, CostWeights};
    use copack_geom::{NetKind, Quadrant, TierId};
    use copack_route::is_monotonic;

    /// Fig. 5 instance with power nets sprinkled in.
    fn quadrant_2d() -> Quadrant {
        Quadrant::builder()
            .row([10u32, 2, 4, 7, 0])
            .row([1u32, 3, 5, 8])
            .row([11u32, 6, 9])
            .net_kind(10u32, NetKind::Power)
            .net_kind(5u32, NetKind::Power)
            .net_kind(9u32, NetKind::Power)
            .net_kind(0u32, NetKind::Ground)
            .build()
            .unwrap()
    }

    /// Two-tier version of the same instance.
    fn quadrant_stacked() -> Quadrant {
        let mut b = Quadrant::builder()
            .row([10u32, 2, 4, 7, 0])
            .row([1u32, 3, 5, 8])
            .row([11u32, 6, 9])
            .net_kind(10u32, NetKind::Power)
            .net_kind(5u32, NetKind::Power);
        for n in [10u32, 2, 4, 1, 3, 11] {
            b = b.net_tier(n, TierId::new(2));
        }
        b.build().unwrap()
    }

    fn fast_config(seed: u64) -> ExchangeConfig {
        ExchangeConfig {
            schedule: crate::Schedule {
                moves_per_temp_per_finger: 2,
                final_temp_ratio: 1e-2,
                ..crate::Schedule::default()
            },
            seed,
            ..ExchangeConfig::default()
        }
    }

    #[test]
    fn exchange_never_breaks_monotonicity() {
        let q = quadrant_2d();
        let initial = dfa(&q, 1).unwrap();
        for seed in 0..5 {
            let r = exchange(&q, &initial, &StackConfig::planar(), &fast_config(seed)).unwrap();
            assert!(is_monotonic(&q, &r.assignment), "seed {seed}");
            assert!(r.assignment.validate_complete(&q).is_ok());
        }
    }

    #[test]
    fn exchange_does_not_increase_cost() {
        let q = quadrant_2d();
        let initial = dfa(&q, 1).unwrap();
        let r = exchange(&q, &initial, &StackConfig::planar(), &fast_config(1)).unwrap();
        assert!(r.stats.final_cost <= r.stats.initial_cost + 1e-9);
    }

    #[test]
    fn kernel_matches_reference_bit_for_bit() {
        // The heart of the optimisation's correctness argument: with the
        // Proxy objective, the incremental kernel and the from-scratch
        // reference walk the same trajectory and return equal results —
        // assignment AND statistics — for planar and stacked runs alike.
        let planar = quadrant_2d();
        let stacked = quadrant_stacked();
        for seed in 0..8 {
            let cfg = fast_config(seed);
            let i = dfa(&planar, 1).unwrap();
            let a = exchange(&planar, &i, &StackConfig::planar(), &cfg).unwrap();
            let b = exchange_reference(&planar, &i, &StackConfig::planar(), &cfg).unwrap();
            assert_eq!(a, b, "planar seed {seed}");

            let i = dfa(&stacked, 1).unwrap();
            let stack = StackConfig::stacked(2).unwrap();
            let a = exchange(&stacked, &i, &stack, &cfg).unwrap();
            let b = exchange_reference(&stacked, &i, &stack, &cfg).unwrap();
            assert_eq!(a, b, "stacked seed {seed}");
        }
    }

    #[test]
    fn kernel_matches_reference_on_sparse_instances() {
        // Sparse + stacked exercises the omega fallback and empty-slot
        // swaps in the same run.
        let mut b = Quadrant::builder()
            .row([10u32, 2, 4, 7, 0])
            .row([1u32, 3, 5, 8])
            .row([11u32, 6, 9])
            .net_kind(10u32, NetKind::Power)
            .net_kind(5u32, NetKind::Power)
            .fingers(15);
        for n in [10u32, 2, 4, 1, 3, 11] {
            b = b.net_tier(n, TierId::new(2));
        }
        let q = b.build().unwrap();
        let initial = dfa(&q, 1).unwrap();
        let stack = StackConfig::stacked(2).unwrap();
        for seed in 0..4 {
            let cfg = fast_config(seed);
            let a = exchange(&q, &initial, &stack, &cfg).unwrap();
            let b = exchange_reference(&q, &initial, &stack, &cfg).unwrap();
            assert_eq!(a, b, "seed {seed}");
        }
    }

    #[test]
    fn kernel_matches_reference_with_margin_term() {
        // The fourth cost term stays inside the bit-identity contract:
        // with μ > 0 the kernel's incremental MarginTracker and the
        // reference's from-scratch margin_penalty walk the same
        // trajectory (the penalty is integer-valued, so no float drift).
        let planar = quadrant_2d();
        let stacked = quadrant_stacked();
        for seed in 0..6 {
            let mut cfg = fast_config(seed);
            cfg.weights.margin = 1.5;
            let i = dfa(&planar, 1).unwrap();
            let a = exchange(&planar, &i, &StackConfig::planar(), &cfg).unwrap();
            let b = exchange_reference(&planar, &i, &StackConfig::planar(), &cfg).unwrap();
            assert_eq!(a, b, "planar seed {seed}");

            let i = dfa(&stacked, 1).unwrap();
            let stack = StackConfig::stacked(2).unwrap();
            let a = exchange(&stacked, &i, &stack, &cfg).unwrap();
            let b = exchange_reference(&stacked, &i, &stack, &cfg).unwrap();
            assert_eq!(a, b, "stacked seed {seed}");
        }
    }

    #[test]
    fn margin_weight_zero_never_builds_the_tracker() {
        // Default weights must be bit-identical to pre-margin builds:
        // the cheapest proof is that μ = 0 and an explicit μ = 0 config
        // agree with each other and the default config exactly.
        let q = quadrant_2d();
        let initial = dfa(&q, 1).unwrap();
        let base = exchange(&q, &initial, &StackConfig::planar(), &fast_config(3)).unwrap();
        let mut cfg = fast_config(3);
        cfg.weights.margin = 0.0;
        let zeroed = exchange(&q, &initial, &StackConfig::planar(), &cfg).unwrap();
        assert_eq!(base, zeroed);
    }

    #[test]
    fn margin_term_reduces_the_penalty_when_dominant() {
        let q = quadrant_stacked();
        let initial = dfa(&q, 1).unwrap();
        let stack = StackConfig::stacked(2).unwrap();
        let before = margin_penalty(&q, &initial);
        let mut cfg = fast_config(4);
        cfg.weights = CostWeights {
            lambda: 0.0,
            rho: 0.0,
            phi: 0.0,
            margin: 1.0,
        };
        let r = exchange(&q, &initial, &stack, &cfg).unwrap();
        let after = margin_penalty(&q, &r.assignment);
        assert!(after <= before, "{after} !<= {before}");
        assert!(is_monotonic(&q, &r.assignment));
    }

    #[test]
    fn two_d_exchange_moves_only_power_pads() {
        let q = quadrant_2d();
        let initial = dfa(&q, 1).unwrap();
        let r = exchange(&q, &initial, &StackConfig::planar(), &fast_config(2)).unwrap();
        // Signal/ground nets may be displaced by a power pad swapping with
        // them, but their *relative* order must be intact.
        let signals_before: Vec<_> = initial
            .order()
            .into_iter()
            .filter(|&n| q.net(n).unwrap().kind != NetKind::Power)
            .collect();
        let signals_after: Vec<_> = r
            .assignment
            .order()
            .into_iter()
            .filter(|&n| q.net(n).unwrap().kind != NetKind::Power)
            .collect();
        assert_eq!(signals_before, signals_after);
    }

    #[test]
    fn exchange_improves_power_pad_spreading() {
        let q = quadrant_2d();
        let initial = dfa(&q, 1).unwrap();
        let proxy_of = |a: &Assignment| {
            let ts: Vec<f64> = q
                .nets_of_kind(NetKind::Power)
                .map(|n| (a.position_of(n).unwrap().get() as f64 - 0.5) / 12.0)
                .collect();
            PadSpacingProxy::new(&ts).unwrap().delta_ir()
        };
        let r = exchange(&q, &initial, &StackConfig::planar(), &fast_config(3)).unwrap();
        assert!(proxy_of(&r.assignment) <= proxy_of(&initial) + 1e-12);
    }

    #[test]
    fn stacked_exchange_reduces_omega() {
        let q = quadrant_stacked();
        let initial = dfa(&q, 1).unwrap();
        let stack = StackConfig::stacked(2).unwrap();
        let om_before = omega_of_assignment(&q, &initial, 2).unwrap();
        // Make the bonding-wire term the dominant objective so the test
        // exercises the omega mechanics rather than the weight balance.
        let mut cfg = fast_config(4);
        cfg.weights = CostWeights {
            lambda: 0.0,
            rho: 0.5,
            phi: 1.0,
            margin: 0.0,
        };
        let r = exchange(&q, &initial, &stack, &cfg).unwrap();
        let om_after = omega_of_assignment(&q, &r.assignment, 2).unwrap();
        assert!(om_after <= om_before, "{om_after} !<= {om_before}");
        assert!(is_monotonic(&q, &r.assignment));
    }

    #[test]
    fn same_seed_is_deterministic() {
        let q = quadrant_2d();
        let initial = dfa(&q, 1).unwrap();
        let a = exchange(&q, &initial, &StackConfig::planar(), &fast_config(9)).unwrap();
        let b = exchange(&q, &initial, &StackConfig::planar(), &fast_config(9)).unwrap();
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn no_power_pads_in_2d_is_an_error() {
        let q = Quadrant::builder().row([1u32, 2]).build().unwrap();
        let initial = Assignment::from_order([1u32, 2]);
        for f in [exchange, exchange_reference] {
            assert!(matches!(
                f(&q, &initial, &StackConfig::planar(), &fast_config(0)),
                Err(CoreError::NoMovablePads)
            ));
        }
    }

    #[test]
    fn bad_configs_are_rejected() {
        let q = quadrant_2d();
        let initial = dfa(&q, 1).unwrap();
        for f in [exchange, exchange_reference] {
            let mut bad = fast_config(0);
            bad.weights = CostWeights {
                lambda: -1.0,
                ..CostWeights::default()
            };
            assert!(matches!(
                f(&q, &initial, &StackConfig::planar(), &bad),
                Err(CoreError::BadConfig { .. })
            ));
            let mut bad = fast_config(0);
            bad.schedule.cooling = 2.0;
            assert!(f(&q, &initial, &StackConfig::planar(), &bad).is_err());
        }
    }

    #[test]
    fn illegal_initial_order_is_rejected() {
        let q = quadrant_2d();
        let bad = Assignment::from_order([10u32, 11, 1, 2, 9, 3, 4, 6, 5, 7, 8, 0]);
        for f in [exchange, exchange_reference] {
            assert!(f(&q, &bad, &StackConfig::planar(), &fast_config(0)).is_err());
        }
    }

    #[test]
    fn result_is_never_worse_than_the_input_even_with_bad_rules() {
        // The annealer returns the best state seen, so even the paper's
        // inverted acceptance rule cannot hand back a degraded order.
        use crate::Acceptance;
        let q = quadrant_2d();
        let initial = dfa(&q, 1).unwrap();
        for acceptance in [
            Acceptance::Metropolis,
            Acceptance::AsWritten,
            Acceptance::Greedy,
        ] {
            let mut cfg = fast_config(11);
            cfg.acceptance = acceptance;
            let r = exchange(&q, &initial, &StackConfig::planar(), &cfg).unwrap();
            assert!(
                r.stats.final_cost <= r.stats.initial_cost + 1e-9,
                "{acceptance:?}: {} > {}",
                r.stats.final_cost,
                r.stats.initial_cost
            );
        }
    }

    #[test]
    fn sparse_assignments_exchange_via_the_fallback_path() {
        // More fingers than nets: the omega tracker declines and the
        // exchange falls back to recomputation; legality must still hold.
        let mut b = Quadrant::builder()
            .row([10u32, 2, 4, 7, 0])
            .row([1u32, 3, 5, 8])
            .row([11u32, 6, 9])
            .net_kind(10u32, NetKind::Power)
            .net_kind(5u32, NetKind::Power)
            .fingers(15);
        for n in [10u32, 2, 4, 1, 3, 11] {
            b = b.net_tier(n, TierId::new(2));
        }
        let q = b.build().unwrap();
        let initial = dfa(&q, 1).unwrap();
        assert_eq!(initial.finger_count(), 15);
        let stack = StackConfig::stacked(2).unwrap();
        let r = exchange(&q, &initial, &stack, &fast_config(8)).unwrap();
        assert!(is_monotonic(&q, &r.assignment));
        assert!(r.assignment.validate_complete(&q).is_ok());
        assert!(r.stats.final_cost <= r.stats.initial_cost + 1e-9);
    }

    #[test]
    fn full_solve_objective_runs_and_stays_legal() {
        use crate::IrObjective;
        use copack_power::GridSpec;
        let q = quadrant_2d();
        let initial = dfa(&q, 1).unwrap();
        let mut cfg = fast_config(6);
        cfg.schedule.final_temp_ratio = 0.5; // a handful of temperature steps
        cfg.ir_objective = IrObjective::FullSolve {
            grid: GridSpec::default_chip(8),
        };
        let r = exchange(&q, &initial, &StackConfig::planar(), &cfg).unwrap();
        assert!(is_monotonic(&q, &r.assignment));
        assert!(r.stats.final_cost <= r.stats.initial_cost + 1e-9);
    }

    #[test]
    fn full_solve_warm_start_tracks_the_cold_reference_closely() {
        // Warm-started solves converge to the same fixed point within the
        // solver tolerance, so the kernel's FullSolve trajectory must land
        // on the same assignment as the cold-start reference for a short
        // schedule (identical up to ~1e-9 cost noise, far below any
        // accept/reject threshold this schedule produces).
        use crate::IrObjective;
        use copack_power::GridSpec;
        let q = quadrant_2d();
        let initial = dfa(&q, 1).unwrap();
        let mut cfg = fast_config(6);
        cfg.schedule.final_temp_ratio = 0.5;
        cfg.ir_objective = IrObjective::FullSolve {
            grid: GridSpec::default_chip(8),
        };
        let warm = exchange(&q, &initial, &StackConfig::planar(), &cfg).unwrap();
        let cold = exchange_reference(&q, &initial, &StackConfig::planar(), &cfg).unwrap();
        assert_eq!(warm.assignment, cold.assignment);
        assert!((warm.stats.final_cost - cold.stats.final_cost).abs() < 1e-6);
    }

    #[test]
    fn cancelled_token_aborts_the_run_with_a_typed_error() {
        let q = quadrant_2d();
        let initial = dfa(&q, 1).unwrap();
        let token = CancelToken::new();
        token.cancel();
        let err = exchange_traced(
            &q,
            &initial,
            &StackConfig::planar(),
            &fast_config(1),
            &mut NoopRecorder,
            &token,
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::Cancelled), "{err}");
        // An already-expired deadline behaves the same.
        let expired = CancelToken::with_deadline(std::time::Instant::now());
        let err = exchange_traced(
            &q,
            &initial,
            &StackConfig::planar(),
            &fast_config(1),
            &mut NoopRecorder,
            &expired,
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::Cancelled), "{err}");
    }

    #[test]
    fn uncancelled_token_leaves_the_run_bit_identical() {
        let q = quadrant_2d();
        let initial = dfa(&q, 1).unwrap();
        let cfg = fast_config(7);
        let plain = exchange(&q, &initial, &StackConfig::planar(), &cfg).unwrap();
        let token = CancelToken::deadline_in(std::time::Duration::from_secs(3600));
        let tokened = exchange_traced(
            &q,
            &initial,
            &StackConfig::planar(),
            &cfg,
            &mut NoopRecorder,
            &token,
        )
        .unwrap();
        assert_eq!(plain, tokened);
    }

    #[test]
    fn stats_are_internally_consistent() {
        let q = quadrant_2d();
        let initial = dfa(&q, 1).unwrap();
        let r = exchange(&q, &initial, &StackConfig::planar(), &fast_config(5)).unwrap();
        let s = r.stats;
        assert!(s.accepted <= s.proposed);
        assert!(s.uphill_accepted <= s.accepted);
        assert!(s.constraint_rejected <= s.proposed);
        assert!(s.temperature_steps > 0);
    }
}
