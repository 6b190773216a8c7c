//! Capacity-conditional window filtering (detectable precedences and
//! edge-finding-style overload checks) on top of the Figure 2/3 fixpoint.
//!
//! The paper's `LB_r` answers "what must `Θ/(t2−t1)` force, whatever the
//! deployment does". Constraint-programming propagators for disjunctive
//! and cumulative scheduling answer a complementary question: *assuming*
//! a capacity `c` for resource `r`, which task orderings and placements
//! become forced — and does the assumption collapse into a
//! contradiction? Every capacity the filter refutes raises the lower
//! bound by one: feasibility is monotone in capacity (a schedule for
//! `c` units is a schedule for `c+1`), so a sound refutation of `c`
//! proves `LB_r ≥ c + 1`.
//!
//! Unconditional window shrinking would be unsound here — the adversary
//! deploying the application chooses co-locations, and the Figure 2/3
//! windows are already the tightest unconditional ones this model
//! admits. All tightening below therefore happens on *local copies* of
//! the windows, inside one capacity hypothesis, and is discarded
//! afterwards; only refutations survive, as increments to `LB_r`.
//!
//! Rules, per partition block of demanders (Theorem 5 lets blocks be
//! treated independently):
//!
//! 1. **Overload** (any `c`): `Θ > c · (t2 − t1)` on any candidate
//!    interval refutes `c` — Equation 6.3 restated under the hypothesis.
//! 2. **Energetic placement** (any `c`, non-preemptive tasks): if the
//!    capacity left over for task `j` on an interval cannot fit its full
//!    overlap, `j` is forced to finish early or start late; if its
//!    window allows only one side, the window copy tightens, and if
//!    neither, `c` is refuted.
//! 3. **Detectable precedence** (`c = 1`, non-preemptive): two demanders
//!    cannot overlap on a single unit, so `ect_j > lst_i` forces
//!    `i ≺ j`; the [`Timeline`] packing of a task's forced predecessors
//!    then lifts its local `E`, and of its forced successors lowers its
//!    local `L`. Mutually impossible orders refute `c`.
//! 4. **Single-unit overload** (`c = 1`): for each deadline-ordered
//!    prefix `S = {j : L_j ≤ L_k}`, a Timeline `ect(S) > L_k` refutes
//!    `c` — the preemptive-relaxation feasibility test, so it is sound
//!    for preemptive demanders too.
//!
//! The rules only ever tighten windows of non-preemptive tasks with
//! positive computation; preemptive tasks still contribute their Ψ
//! demand. Validity of the composed bound is property-tested against the
//! `rtlb-sched` exact search in `tests/propagation_dominance.rs`, along
//! with dominance over the unfiltered levels.

use rtlb_graph::{ExecutionMode, ResourceId, TaskGraph, TaskId, Time};
use rtlb_obs::Probe;

use crate::bounds::ResourceBound;
use crate::cancel::CancelToken;
use crate::error::AnalysisError;
use crate::estlct::{TaskWindow, TimingAnalysis};
use crate::overlap::overlap;
use crate::partition::ResourcePartition;
use crate::sweep::{BlockArena, RampItem as Item, ThetaRow};
use crate::timeline::Timeline;

/// Which window-packing / filtering level the analysis runs at.
///
/// `Paper` and `Timeline` produce bit-identical bounds (the Timeline is a
/// pure reimplementation of the paper's `lst`/`ect` packing); `Filtered`
/// additionally runs the capacity-conditional propagation pass and can
/// only raise bounds. The paper-faithful level is kept as the
/// differential baseline, the same pattern as the naive sweep oracle.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PropagationLevel {
    /// Sequential clone-free re-packing straight from the paper's
    /// Equations 4.1/4.5; no filtering.
    Paper,
    /// Union-find Timeline packing (default); no filtering. Bounds are
    /// bit-identical to `Paper`.
    #[default]
    Timeline,
    /// Timeline packing plus detectable-precedence / edge-finding
    /// filtering after the sweep; bounds dominate the other levels.
    Filtered,
}

impl PropagationLevel {
    /// The stable spelling used by the CLI flag and the semantic
    /// fingerprint.
    pub fn label(self) -> &'static str {
        match self {
            PropagationLevel::Paper => "paper",
            PropagationLevel::Timeline => "timeline",
            PropagationLevel::Filtered => "filtered",
        }
    }

    /// Parses the CLI spelling back into a level.
    pub fn parse(s: &str) -> Option<PropagationLevel> {
        match s {
            "paper" => Some(PropagationLevel::Paper),
            "timeline" => Some(PropagationLevel::Timeline),
            "filtered" => Some(PropagationLevel::Filtered),
            _ => None,
        }
    }

    /// Which `lst`/`ect` packing engine the Figure 2/3 scans use at this
    /// level. Both engines are bit-identical by contract; `Paper` keeps
    /// the sequential re-packing alive as the differential baseline.
    pub(crate) fn packing(self) -> crate::estlct::Packing {
        match self {
            PropagationLevel::Paper => crate::estlct::Packing::Paper,
            PropagationLevel::Timeline | PropagationLevel::Filtered => {
                crate::estlct::Packing::Timeline
            }
        }
    }

    /// Whether the post-sweep filtering pass runs at this level.
    pub(crate) fn filters(self) -> bool {
        matches!(self, PropagationLevel::Filtered)
    }
}

/// Blocks larger than this skip filtering; the sweep bound still stands,
/// so skipping only costs tightness. The energetic round evaluates `Θ`
/// incrementally, `O(P·(P + N))` per round and capacity probe over `P`
/// corner points, but the placement loop it still runs on tight pairs
/// and the quadratic precedence round keep large blocks costly.
const MAX_REFINE_TASKS: usize = 96;

/// Local-tightening fixpoint rounds per capacity hypothesis.
const MAX_ROUNDS: usize = 8;

// An `Item` is one demander's window copy local to a capacity
// hypothesis: it starts as the Figure 2/3 window and only ever tightens.
impl Item {
    /// Mandatory overlap Ψ of this item with `[t1, t2)` under its
    /// current local window.
    fn psi(&self, t1: i64, t2: i64) -> i64 {
        let window = TaskWindow {
            est: Time::new(self.e),
            lct: Time::new(self.l),
        };
        let mode = if self.preemptive {
            ExecutionMode::Preemptive
        } else {
            ExecutionMode::NonPreemptive
        };
        overlap(
            window,
            rtlb_graph::Dur::new(self.c),
            mode,
            Time::new(t1),
            Time::new(t2),
        )
        .ticks()
    }
}

/// Buffers the refinement reuses across blocks, capacity probes and
/// rounds: the block's items, the hypothesis's window copies, the corner
/// grid, the ramp arena and one column's merged slope events. One lives
/// for a whole pass over a partition's blocks, so they stop allocating
/// once they fit the largest block.
#[derive(Default)]
pub(crate) struct RefineScratch {
    base: Vec<Item>,
    items: Vec<Item>,
    points: Vec<i64>,
    arena: BlockArena,
    events: Vec<(i64, i64)>,
}

/// Raises every computed bound by the capacity-conditional filter,
/// block by block (or over the flat demander set when `partitions` is
/// empty — the unpartitioned ablation). Witnesses are left untouched:
/// they still describe the sweep's densest interval, and a filtered
/// bound may exceed the ceiling that interval alone justifies.
///
/// # Errors
///
/// [`AnalysisError::Deadline`] when `ctl` trips.
pub(crate) fn refine_bounds(
    graph: &TaskGraph,
    timing: &TimingAnalysis,
    partitions: &[ResourcePartition],
    bounds: &mut [ResourceBound],
    probe: &dyn Probe,
    ctl: &CancelToken,
) -> Result<(), AnalysisError> {
    let mut scratch = RefineScratch::default();
    for bound in bounds.iter_mut() {
        match partitions.iter().find(|p| p.resource == bound.resource) {
            Some(partition) => {
                for block in &partition.blocks {
                    let refined =
                        refine_block(graph, timing, &block.tasks, &mut scratch, probe, ctl)?;
                    bound.bound = bound.bound.max(refined);
                }
            }
            None => {
                let refined = refine_resource_flat(graph, timing, bound.resource, probe, ctl)?;
                bound.bound = bound.bound.max(refined);
            }
        }
    }
    Ok(())
}

/// [`refine_block`] over the whole (unpartitioned) demander set of one
/// resource — the flat ablation path.
pub(crate) fn refine_resource_flat(
    graph: &TaskGraph,
    timing: &TimingAnalysis,
    resource: ResourceId,
    probe: &dyn Probe,
    ctl: &CancelToken,
) -> Result<u32, AnalysisError> {
    let tasks = graph.tasks_demanding(resource);
    refine_block(
        graph,
        timing,
        &tasks,
        &mut RefineScratch::default(),
        probe,
        ctl,
    )
}

/// The smallest capacity for `tasks` (one partition block's demanders of
/// one resource) that the filter cannot refute.
///
/// Pure in the members' `(C, mode, E, L)` — the incremental session
/// caches the result per block under exactly the invariants that let it
/// reuse the block's sweep maxima.
///
/// # Errors
///
/// [`AnalysisError::Deadline`] when `ctl` trips.
pub(crate) fn refine_block(
    graph: &TaskGraph,
    timing: &TimingAnalysis,
    tasks: &[TaskId],
    scratch: &mut RefineScratch,
    probe: &dyn Probe,
    ctl: &CancelToken,
) -> Result<u32, AnalysisError> {
    let mut base = std::mem::take(&mut scratch.base);
    base.clear();
    base.extend(tasks.iter().map(|&t| Item::of(graph, timing, t)));
    let refined = refine_items(&base, scratch, probe, ctl);
    scratch.base = base;
    refined
}

/// [`refine_block`] over the block's items. Their windows are feasible:
/// both the scratch pipeline and the session check them before any
/// refinement, and the ramp arena relies on it.
fn refine_items(
    items: &[Item],
    scratch: &mut RefineScratch,
    probe: &dyn Probe,
    ctl: &CancelToken,
) -> Result<u32, AnalysisError> {
    let positive = items.iter().filter(|i| i.c > 0).count() as u32;
    if positive == 0 {
        return Ok(0);
    }
    if items.len() > MAX_REFINE_TASKS {
        probe.add("propagate.blocks_skipped", 1);
        return Ok(0);
    }
    // Size the column buffer once per block so no column grows it.
    scratch.events.clear();
    scratch.events.reserve(2 * items.len() + 1);
    // Start from the density bound on this block's Extended-corner grid
    // (a valid lower bound on its own), then climb while capacities keep
    // refuting. `positive` units always suffice within this filter's
    // rules — every demander can hold its own unit — so the climb is
    // bounded even if a rule were ever to misfire.
    let mut c = density_floor(items, scratch, ctl)?;
    while c < positive {
        ctl.check()?;
        if !refuted(c, items, scratch, probe, ctl)? {
            break;
        }
        probe.add("propagate.capacities_refuted", 1);
        c += 1;
    }
    Ok(c)
}

/// `⌈max Θ/(t2−t1)⌉` over the corner grid of the items' own windows,
/// one incremental `Θ` row per `t1` column.
fn density_floor(
    items: &[Item],
    scratch: &mut RefineScratch,
    ctl: &CancelToken,
) -> Result<u32, AnalysisError> {
    let RefineScratch {
        points,
        arena,
        events,
        ..
    } = scratch;
    corner_grid(items, points);
    arena.rebuild(items.iter().copied());
    let mut best: u32 = 0;
    for (i, &t1) in points.iter().enumerate() {
        ctl.check()?;
        arena.emit_column(t1, events);
        let mut row = ThetaRow::new(t1);
        for &t2 in &points[i + 1..] {
            let len = t2 - t1;
            let theta = row.advance(events, t2);
            // ⌈theta/len⌉ without floats; theta ≤ Σ C so this fits u32
            // whenever the instance passed the magnitude guard with a
            // representable bound at all.
            let ratio = theta.div_euclid(len) + i64::from(theta.rem_euclid(len) != 0);
            best = best.max(ratio.try_into().unwrap_or(u32::MAX));
        }
    }
    Ok(best)
}

/// The interval endpoints worth testing: every window corner and
/// forced-overlap corner of every item, deduplicated and sorted.
fn corner_grid(items: &[Item], points: &mut Vec<i64>) {
    points.clear();
    points.reserve(4 * items.len());
    points.extend(
        items
            .iter()
            .flat_map(|it| [it.e, it.l, it.e + it.c, it.l - it.c]),
    );
    points.sort_unstable();
    points.dedup();
}

/// Does assuming capacity `c` collapse into a contradiction?
fn refuted(
    c: u32,
    base: &[Item],
    scratch: &mut RefineScratch,
    probe: &dyn Probe,
    ctl: &CancelToken,
) -> Result<bool, AnalysisError> {
    let mut items = std::mem::take(&mut scratch.items);
    items.clear();
    items.extend_from_slice(base);
    let outcome = refute_rounds(c, &mut items, scratch, probe, ctl);
    scratch.items = items;
    outcome
}

/// The tightening rounds of [`refuted`] on the hypothesis's own copies.
fn refute_rounds(
    c: u32,
    items: &mut [Item],
    scratch: &mut RefineScratch,
    probe: &dyn Probe,
    ctl: &CancelToken,
) -> Result<bool, AnalysisError> {
    for _ in 0..MAX_ROUNDS {
        ctl.check()?;
        // Rule 2 wipeout check, first and after every tightening round.
        if items.iter().any(|it| it.e + it.c > it.l) {
            return Ok(true);
        }
        if c == 1 && single_unit_overload(items) {
            return Ok(true);
        }
        let mut changed = false;
        match energetic_round(c, items, scratch, ctl)? {
            RoundOutcome::Refuted => return Ok(true),
            RoundOutcome::Tightened => changed = true,
            RoundOutcome::Fixpoint => {}
        }
        if c == 1 {
            match precedence_round(items, probe) {
                RoundOutcome::Refuted => return Ok(true),
                RoundOutcome::Tightened => changed = true,
                RoundOutcome::Fixpoint => {}
            }
        }
        if !changed {
            return Ok(false);
        }
    }
    Ok(false)
}

#[derive(Debug, PartialEq, Eq)]
enum RoundOutcome {
    Refuted,
    Tightened,
    Fixpoint,
}

/// Rules 1 and 2: interval overload and energetic placement of
/// non-preemptive tasks, over the corner grid of the round's starting
/// windows.
///
/// `Θ` comes from one incremental row per `t1` column. The placement
/// loop runs only where the slack `c·len − Θ` is below
/// `min(max C_j, len)` over non-preemptive positive-work items: above it
/// every item's leftover capacity already fits its full overlap, so
/// skipping the loop is exact. A tightening takes effect from the next
/// pair on — the pair's own loop keeps the `Θ` it started with — so the
/// column's events are rebuilt from the current windows and the row
/// re-advanced to `t2`.
fn energetic_round(
    c: u32,
    items: &mut [Item],
    scratch: &mut RefineScratch,
    ctl: &CancelToken,
) -> Result<RoundOutcome, AnalysisError> {
    let RefineScratch {
        points,
        arena,
        events,
        ..
    } = scratch;
    corner_grid(items, points);
    arena.rebuild(items.iter().copied());
    let max_c = items
        .iter()
        .filter(|it| !it.preemptive && it.c > 0)
        .map(|it| it.c)
        .max()
        .unwrap_or(0);
    let capacity = i128::from(c);
    let mut outcome = RoundOutcome::Fixpoint;
    for (i, &t1) in points.iter().enumerate() {
        ctl.check()?;
        arena.emit_column(t1, events);
        let mut row = ThetaRow::new(t1);
        for &t2 in &points[i + 1..] {
            let len = t2 - t1;
            let supply = capacity * i128::from(len);
            let theta = row.advance(events, t2);
            let slack = supply - i128::from(theta);
            if slack < 0 {
                return Ok(RoundOutcome::Refuted);
            }
            if slack >= i128::from(max_c.min(len)) {
                continue;
            }
            let mut tightened = false;
            for item in items.iter_mut() {
                let it = *item;
                if it.preemptive || it.c == 0 {
                    continue;
                }
                let full = it.c.min(len);
                let avail128 = slack + i128::from(it.psi(t1, t2));
                if avail128 >= i128::from(full) {
                    continue;
                }
                // theta - psi_j ≤ theta ≤ supply held above, so
                // 0 ≤ avail < full ≤ C_j fits i64.
                let avail = avail128 as i64;
                // A start s overlaps [t1,t2) by ≤ avail iff it finishes
                // early (s + C_j ≤ t1 + avail) or enters late
                // (s ≥ t2 − avail).
                let s_left_max = t1 - it.c + avail;
                let s_right_min = t2 - avail;
                let can_left = it.e <= s_left_max;
                let can_right = it.l - it.c >= s_right_min;
                match (can_left, can_right) {
                    (false, false) => return Ok(RoundOutcome::Refuted),
                    (false, true) if it.e < s_right_min => {
                        item.e = s_right_min;
                        tightened = true;
                    }
                    (true, false) if it.l > s_left_max + it.c => {
                        item.l = s_left_max + it.c;
                        tightened = true;
                    }
                    _ => {}
                }
            }
            if tightened {
                outcome = RoundOutcome::Tightened;
                arena.rebuild(items.iter().copied());
                arena.emit_column(t1, events);
                row = ThetaRow::new(t1);
                row.advance(events, t2);
            }
        }
    }
    Ok(outcome)
}

/// Rule 4: on a single unit, each deadline-ordered demander prefix must
/// complete by its deadline even preemptively.
fn single_unit_overload(items: &[Item]) -> bool {
    let mut by_deadline: Vec<&Item> = items.iter().filter(|it| it.c > 0).collect();
    by_deadline.sort_by_key(|it| it.l);
    let mut timeline = Timeline::new();
    for it in by_deadline {
        timeline.insert(it.e, it.c);
        if timeline.ect().is_some_and(|e| e > it.l) {
            return true;
        }
    }
    false
}

/// Rule 3: detectable precedences between non-preemptive demanders of a
/// single unit, then Timeline packing of the forced sets.
fn precedence_round(items: &mut [Item], probe: &dyn Probe) -> RoundOutcome {
    let n = items.len();
    // contenders: indices of non-preemptive positive-work demanders.
    let contenders: Vec<usize> = (0..n)
        .filter(|&i| !items[i].preemptive && items[i].c > 0)
        .collect();
    // forced[a] = set of contenders that must precede `a`.
    let mut forced_before: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut forced_after: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut pairs = 0u64;
    for (x, &a) in contenders.iter().enumerate() {
        for &b in &contenders[x + 1..] {
            // `a` can run before `b` iff ect_a ≤ lst_b.
            let a_first = items[a].e + items[a].c <= items[b].l - items[b].c;
            let b_first = items[b].e + items[b].c <= items[a].l - items[a].c;
            match (a_first, b_first) {
                (false, false) => {
                    probe.add("propagate.pairs_filtered", pairs + 1);
                    return RoundOutcome::Refuted;
                }
                (true, false) => {
                    forced_before[b].push(a);
                    forced_after[a].push(b);
                    pairs += 1;
                }
                (false, true) => {
                    forced_before[a].push(b);
                    forced_after[b].push(a);
                    pairs += 1;
                }
                (true, true) => {}
            }
        }
    }
    probe.add("propagate.pairs_filtered", pairs);
    if pairs == 0 {
        return RoundOutcome::Fixpoint;
    }
    let mut outcome = RoundOutcome::Fixpoint;
    let mut timeline = Timeline::new();
    for j in 0..n {
        if !forced_before[j].is_empty() {
            timeline.clear();
            for &i in &forced_before[j] {
                timeline.insert(items[i].e, items[i].c);
            }
            if let Some(ect) = timeline.ect() {
                if ect > items[j].e {
                    items[j].e = ect;
                    outcome = RoundOutcome::Tightened;
                }
            }
        }
        if !forced_after[j].is_empty() {
            timeline.clear();
            for &k in &forced_after[j] {
                timeline.insert(-items[k].l, items[k].c);
            }
            if let Some(ect) = timeline.ect() {
                let lst = -ect;
                if lst < items[j].l {
                    items[j].l = lst;
                    outcome = RoundOutcome::Tightened;
                }
            }
        }
    }
    outcome
}

/// The quadratic kernel the incremental rows replaced: `Θ` recomputed
/// from every item's Ψ for every corner pair. Kept only as the
/// differential oracle for [`density_floor`], [`energetic_round`] and the
/// capacity climb.
#[cfg(test)]
mod oracle {
    use super::{precedence_round, single_unit_overload, Item, RoundOutcome, MAX_ROUNDS};

    fn corner_grid(items: &[Item]) -> Vec<i64> {
        let mut points: Vec<i64> = items
            .iter()
            .flat_map(|it| [it.e, it.l, it.e + it.c, it.l - it.c])
            .collect();
        points.sort_unstable();
        points.dedup();
        points
    }

    pub(super) fn density_floor(items: &[Item]) -> u32 {
        let points = corner_grid(items);
        let mut best: u32 = 0;
        for (i, &t1) in points.iter().enumerate() {
            for &t2 in &points[i + 1..] {
                let len = t2 - t1;
                let theta: i64 = items.iter().map(|it| it.psi(t1, t2)).sum();
                let ratio = theta.div_euclid(len) + i64::from(theta.rem_euclid(len) != 0);
                best = best.max(ratio.try_into().unwrap_or(u32::MAX));
            }
        }
        best
    }

    pub(super) fn energetic_round(c: u32, items: &mut [Item]) -> RoundOutcome {
        let points = corner_grid(items);
        let capacity = i128::from(c);
        let mut outcome = RoundOutcome::Fixpoint;
        for (i, &t1) in points.iter().enumerate() {
            for &t2 in &points[i + 1..] {
                let len = t2 - t1;
                let supply = capacity * i128::from(len);
                let theta: i64 = items.iter().map(|it| it.psi(t1, t2)).sum();
                if i128::from(theta) > supply {
                    return RoundOutcome::Refuted;
                }
                for item in items.iter_mut() {
                    let it = *item;
                    if it.preemptive || it.c == 0 {
                        continue;
                    }
                    let full = it.c.min(len);
                    let avail128 = supply - i128::from(theta - it.psi(t1, t2));
                    if avail128 >= i128::from(full) {
                        continue;
                    }
                    let avail = avail128 as i64;
                    let s_left_max = t1 - it.c + avail;
                    let s_right_min = t2 - avail;
                    let can_left = it.e <= s_left_max;
                    let can_right = it.l - it.c >= s_right_min;
                    match (can_left, can_right) {
                        (false, false) => return RoundOutcome::Refuted,
                        (false, true) if it.e < s_right_min => {
                            item.e = s_right_min;
                            outcome = RoundOutcome::Tightened;
                        }
                        (true, false) if it.l > s_left_max + it.c => {
                            item.l = s_left_max + it.c;
                            outcome = RoundOutcome::Tightened;
                        }
                        _ => {}
                    }
                }
            }
        }
        outcome
    }

    pub(super) fn refuted(c: u32, base: &[Item]) -> bool {
        let mut items = base.to_vec();
        for _ in 0..MAX_ROUNDS {
            if items.iter().any(|it| it.e + it.c > it.l) {
                return true;
            }
            if c == 1 && single_unit_overload(&items) {
                return true;
            }
            let mut changed = false;
            match energetic_round(c, &mut items) {
                RoundOutcome::Refuted => return true,
                RoundOutcome::Tightened => changed = true,
                RoundOutcome::Fixpoint => {}
            }
            if c == 1 {
                match precedence_round(&mut items, &rtlb_obs::NULL_PROBE) {
                    RoundOutcome::Refuted => return true,
                    RoundOutcome::Tightened => changed = true,
                    RoundOutcome::Fixpoint => {}
                }
            }
            if !changed {
                return false;
            }
        }
        false
    }

    pub(super) fn refine(items: &[Item]) -> u32 {
        let positive = items.iter().filter(|it| it.c > 0).count() as u32;
        if positive == 0 {
            return 0;
        }
        let mut c = density_floor(items);
        while c < positive && refuted(c, items) {
            c += 1;
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estlct::compute_timing;
    use crate::model::SystemModel;
    use rtlb_graph::{Catalog, Dur, TaskGraphBuilder, TaskSpec};
    use rtlb_obs::NULL_PROBE;

    /// Three non-preemptive demanders where the density bound says one
    /// unit is enough but the precedence cascade proves it is not:
    /// `s[0,4] C=3` forces itself before `a[0,11] C=5`, lifting `a` to
    /// start at 3; then `a` and `b[5,7] C=2` each finish too late to let
    /// the other run — capacity 1 is refuted, capacity 2 stands.
    fn cascade_graph() -> (rtlb_graph::TaskGraph, ResourceId) {
        let mut c = Catalog::new();
        let p = c.processor("P");
        let r = c.resource("r");
        let mut b = TaskGraphBuilder::new(c);
        b.add_task(
            TaskSpec::new("s", Dur::new(3), p)
                .release(Time::new(0))
                .deadline(Time::new(4))
                .resource(r),
        )
        .unwrap();
        b.add_task(
            TaskSpec::new("a", Dur::new(5), p)
                .release(Time::new(0))
                .deadline(Time::new(11))
                .resource(r),
        )
        .unwrap();
        b.add_task(
            TaskSpec::new("b", Dur::new(2), p)
                .release(Time::new(5))
                .deadline(Time::new(7))
                .resource(r),
        )
        .unwrap();
        (b.build().unwrap(), r)
    }

    #[test]
    fn precedence_cascade_refutes_a_single_unit() {
        let (g, r) = cascade_graph();
        let timing = compute_timing(&g, &SystemModel::shared());
        let tasks = g.tasks_demanding(r);
        let refined = refine_block(
            &g,
            &timing,
            &tasks,
            &mut RefineScratch::default(),
            &NULL_PROBE,
            &CancelToken::none(),
        )
        .expect("uncancellable");
        assert_eq!(refined, 2, "the cascade must refute capacity 1");
    }

    #[test]
    fn density_floor_alone_misses_the_cascade() {
        let (g, r) = cascade_graph();
        let timing = compute_timing(&g, &SystemModel::shared());
        let items: Vec<Item> = g
            .tasks_demanding(r)
            .iter()
            .map(|&t| Item::of(&g, &timing, t))
            .collect();
        assert_eq!(
            density_floor(&items, &mut RefineScratch::default(), &CancelToken::none()).unwrap(),
            1,
            "no single interval is dense enough — the gain is real filtering"
        );
    }

    #[test]
    fn zero_work_demanders_refine_to_zero() {
        let mut c = Catalog::new();
        let p = c.processor("P");
        let r = c.resource("r");
        let mut b = TaskGraphBuilder::new(c);
        b.default_deadline(Time::new(10));
        b.add_task(TaskSpec::new("z", Dur::ZERO, p).resource(r))
            .unwrap();
        let g = b.build().unwrap();
        let timing = compute_timing(&g, &SystemModel::shared());
        let tasks = g.tasks_demanding(r);
        let refined = refine_block(
            &g,
            &timing,
            &tasks,
            &mut RefineScratch::default(),
            &NULL_PROBE,
            &CancelToken::none(),
        )
        .unwrap();
        assert_eq!(refined, 0);
    }

    #[test]
    fn independent_loose_tasks_keep_the_density_bound() {
        // Plenty of slack: nothing is forced, refinement equals density.
        let mut c = Catalog::new();
        let p = c.processor("P");
        let r = c.resource("r");
        let mut b = TaskGraphBuilder::new(c);
        b.default_deadline(Time::new(100));
        for i in 0..4 {
            b.add_task(TaskSpec::new(format!("t{i}"), Dur::new(3), p).resource(r))
                .unwrap();
        }
        let g = b.build().unwrap();
        let timing = compute_timing(&g, &SystemModel::shared());
        let tasks = g.tasks_demanding(r);
        let refined = refine_block(
            &g,
            &timing,
            &tasks,
            &mut RefineScratch::default(),
            &NULL_PROBE,
            &CancelToken::none(),
        )
        .unwrap();
        assert_eq!(refined, 1);
    }

    #[test]
    fn tripped_token_cancels_refinement() {
        let (g, r) = cascade_graph();
        let timing = compute_timing(&g, &SystemModel::shared());
        let tasks = g.tasks_demanding(r);
        let ctl = CancelToken::new();
        ctl.cancel();
        assert!(matches!(
            refine_block(
                &g,
                &timing,
                &tasks,
                &mut RefineScratch::default(),
                &NULL_PROBE,
                &ctl
            ),
            Err(AnalysisError::Deadline)
        ));
    }

    /// A random block for the differential tests, from one seed: 2–9
    /// demanders mixing non-preemptive and preemptive tasks, `C = 0`
    /// tasks and tight windows, and — for a third of the seeds — the
    /// precedence cascade of [`cascade_graph`] shifted in time, whose
    /// forced orders tighten windows mid-column.
    fn random_block(seed: u64) -> Vec<Item> {
        let mut state = seed;
        let mut next = |bound: u64| -> i64 {
            // splitmix64
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % bound) as i64
        };
        let np = |e: i64, l: i64, c: i64| Item {
            e,
            l,
            c,
            preemptive: false,
        };
        let mut items = Vec::new();
        if next(3) == 0 {
            let o = next(6);
            items.extend([np(o, o + 4, 3), np(o, o + 11, 5), np(o + 5, o + 7, 2)]);
        }
        for _ in 0..2 + next(8) {
            let e = next(16);
            let c = if next(8) == 0 { 0 } else { 1 + next(6) };
            let slack = if next(2) == 0 { next(2) } else { next(11) };
            items.push(Item {
                e,
                l: e + c + slack,
                c,
                preemptive: next(4) == 0,
            });
        }
        items
    }

    fn positive(items: &[Item]) -> u32 {
        items.iter().filter(|it| it.c > 0).count() as u32
    }

    proptest::proptest! {
        /// Property 1: the incremental row built from the ramp arena
        /// equals `Σ Item::psi` at every pair of the corner grid.
        #[test]
        fn theta_row_equals_psi_sum(seed in proptest::prelude::any::<u64>()) {
            let items = random_block(seed);
            let mut points = Vec::new();
            corner_grid(&items, &mut points);
            let mut arena = BlockArena::default();
            arena.rebuild(items.iter().copied());
            let mut events = Vec::new();
            for (i, &t1) in points.iter().enumerate() {
                arena.emit_column(t1, &mut events);
                let mut row = ThetaRow::new(t1);
                for &t2 in &points[i + 1..] {
                    let expect: i64 = items.iter().map(|it| it.psi(t1, t2)).sum();
                    proptest::prop_assert_eq!(row.advance(&events, t2), expect);
                }
            }
        }

        /// Property 2: the incremental kernel equals the quadratic oracle
        /// — the density floor, every energetic round at every capacity
        /// `1..=positive` (same outcome, same tightened windows), each
        /// capacity's refutation, and the refined block bound.
        #[test]
        fn refinement_matches_quadratic_oracle(seed in proptest::prelude::any::<u64>()) {
            let items = random_block(seed);
            let ctl = CancelToken::none();
            let mut scratch = RefineScratch::default();
            proptest::prop_assert_eq!(
                density_floor(&items, &mut scratch, &ctl).unwrap(),
                oracle::density_floor(&items)
            );
            for c in 1..=positive(&items) {
                let (mut fast, mut slow) = (items.clone(), items.clone());
                proptest::prop_assert_eq!(
                    energetic_round(c, &mut fast, &mut scratch, &ctl).unwrap(),
                    oracle::energetic_round(c, &mut slow)
                );
                proptest::prop_assert_eq!(fast, slow, "windows after round at c = {}", c);
                proptest::prop_assert_eq!(
                    refuted(c, &items, &mut scratch, &NULL_PROBE, &ctl).unwrap(),
                    oracle::refuted(c, &items)
                );
            }
            proptest::prop_assert_eq!(
                refine_items(&items, &mut scratch, &NULL_PROBE, &ctl).unwrap(),
                oracle::refine(&items)
            );
        }
    }

    /// The differential generator reaches every branch the kernel must
    /// keep exact: tightenings at `c = 1` and at `c > 1`, refutations at
    /// both, and pairs where the slack skip does not apply.
    #[test]
    fn random_blocks_cover_tightening_and_refutation() {
        let (mut tightened, mut refuted_at) = ([0u32; 2], [0u32; 2]);
        for seed in 0..256 {
            let items = random_block(seed);
            for c in 1..=positive(&items) {
                let mut copy = items.clone();
                let slot = usize::from(c > 1);
                match oracle::energetic_round(c, &mut copy) {
                    RoundOutcome::Tightened => tightened[slot] += 1,
                    RoundOutcome::Refuted => refuted_at[slot] += 1,
                    RoundOutcome::Fixpoint => {}
                }
            }
        }
        assert!(
            tightened.iter().chain(&refuted_at).all(|&n| n > 0),
            "tightened (c=1, c>1) = {tightened:?}, refuted = {refuted_at:?}"
        );
    }
}
