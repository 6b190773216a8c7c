//! Earliest start times and latest completion times (Section 4,
//! Figures 2 and 3 of the paper).
//!
//! For every task the analysis computes a lower bound `E_i` on its start
//! time and an upper bound `L_i` on its completion time that *any* feasible
//! schedule must respect. Communication makes this subtle: merging a task
//! with some of its neighbors onto one processor/node removes message
//! delays but forces sequential execution. The greedy algorithms below
//! explore that tradeoff; Theorems 1 and 2 of the paper prove they pick an
//! optimal merge set.
//!
//! ## Correction to Figure 2/3 (documented in DESIGN.md)
//!
//! Figures 2 and 3 stop scanning as soon as one more merge fails to
//! improve the bound (step (d)). That early stop is *unsound*: with
//! successors `(C=2, m=5, D=15)` and `(C=1, m=4, D=13)` of a task with
//! `D=60`, merging either successor alone leaves `L = 8`, so the paper's
//! scan stops — yet merging both yields `L = 12`, and a schedule exists
//! in which the task really completes at 12. An `L` of 8 would therefore
//! overconstrain the window and could inflate `LB_r` beyond the true
//! minimum. (Theorem 1's proof assumes `lst(G ∪ {T}) ≤ L` whenever the
//! scan stops — Case 2a — but the stop may be caused by the *other* min
//! term.)
//!
//! We restore soundness by evaluating Equation 4.1 at **every** mergeable
//! prefix of the lms-sorted candidates and taking the best value. A
//! threshold/exchange argument shows some prefix always attains the
//! optimum over *all* mergeable subsets: for an optimal `A*`, let `j*` be
//! the smallest-lms successor outside `A*`; the prefix
//! `P = {j : lms_j < lms_{j*}} ⊆ A*` satisfies
//! `lct(P) = min(L⁰, lms_{j*}, lst(P)) ≥ lct(A*)` because `lst` only
//! grows on subsets. Subsets of mergeable sets are mergeable in both
//! system models, so stopping at the first non-mergeable prefix is safe.
//! Among tying prefixes the smallest is reported, which reproduces every
//! Table 1 merge set except the `G_9` anomaly discussed in
//! EXPERIMENTS.md.

use rtlb_graph::{Dur, TaskGraph, TaskId, Time};
use rtlb_obs::{span, Label, Probe, NULL_PROBE};
use serde::{Deserialize, Serialize};

use crate::cancel::CancelToken;
use crate::error::AnalysisError;
use crate::merge::MergeSet;
use crate::model::SystemModel;
use crate::timeline::Timeline;

/// A task paired with its message boundary (`lms` or `emr`).
type Boundary = (TaskId, Time);

/// The timing window of one task: `[E_i, L_i]`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaskWindow {
    /// Earliest start time `E_i`.
    pub est: Time,
    /// Latest completion time `L_i`.
    pub lct: Time,
}

/// Result of the EST/LCT analysis over a whole application.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimingAnalysis {
    windows: Vec<TaskWindow>,
    merged_preds: Vec<Vec<TaskId>>,
    merged_succs: Vec<Vec<TaskId>>,
}

impl TimingAnalysis {
    /// The window `[E_i, L_i]` of a task.
    ///
    /// # Panics
    ///
    /// Panics if `t` did not come from the analyzed graph.
    pub fn window(&self, t: TaskId) -> TaskWindow {
        self.windows[t.index()]
    }

    /// Earliest start time `E_i`.
    pub fn est(&self, t: TaskId) -> Time {
        self.window(t).est
    }

    /// Latest completion time `L_i`.
    pub fn lct(&self, t: TaskId) -> Time {
        self.window(t).lct
    }

    /// The predecessors merged with `t` while evaluating `E_t`
    /// (the paper's `M_i`), in merge order.
    pub fn merged_predecessors(&self, t: TaskId) -> &[TaskId] {
        &self.merged_preds[t.index()]
    }

    /// The successors merged with `t` while evaluating `L_t`
    /// (the paper's `G_i`), in merge order.
    pub fn merged_successors(&self, t: TaskId) -> &[TaskId] {
        &self.merged_succs[t.index()]
    }

    /// Tasks whose window cannot contain their computation time —
    /// witnesses that the constraints are unsatisfiable on any system.
    pub fn infeasible_tasks<'g>(
        &self,
        graph: &'g TaskGraph,
    ) -> impl Iterator<Item = TaskId> + use<'_, 'g> {
        graph.task_ids().filter(move |&t| {
            let w = self.window(t);
            w.est + graph.task(t).computation() > w.lct
        })
    }

    /// Errors with the first infeasibility witness, if any.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::Infeasible`] naming a task with `E_i + C_i > L_i`.
    pub fn check_feasible(&self, graph: &TaskGraph) -> Result<(), AnalysisError> {
        match self.infeasible_tasks(graph).next() {
            None => Ok(()),
            Some(t) => Err(AnalysisError::Infeasible {
                task: graph.task(t).name().to_owned(),
                est: self.est(t),
                lct: self.lct(t),
            }),
        }
    }

    // Crate-private mutators for the incremental session
    // ([`crate::session::AnalysisSession`]), which recomputes windows and
    // merge selections task-by-task via [`est_of`] / [`lct_of`] instead of
    // re-running the full Figure 2/3 passes.

    pub(crate) fn set_est(&mut self, t: TaskId, est: Time) {
        self.windows[t.index()].est = est;
    }

    pub(crate) fn set_lct(&mut self, t: TaskId, lct: Time) {
        self.windows[t.index()].lct = lct;
    }

    pub(crate) fn set_merged_predecessors(&mut self, t: TaskId, merged: Vec<TaskId>) {
        self.merged_preds[t.index()] = merged;
    }

    pub(crate) fn set_merged_successors(&mut self, t: TaskId, merged: Vec<TaskId>) {
        self.merged_succs[t.index()] = merged;
    }
}

/// Outcome of considering one merge candidate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum MergeDecision {
    /// The candidate is part of the best (smallest optimal) prefix and
    /// was merged.
    Accepted,
    /// The candidate was evaluated but lies beyond the best prefix;
    /// not merged.
    RejectedNoImprovement,
    /// The candidate is not mergeable with the tasks scanned before it;
    /// the scan stopped here.
    RejectedNotMergeable,
}

/// One step of the greedy merge scan for a single task.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct MergeStep {
    /// The successor/predecessor considered for merging.
    pub candidate: TaskId,
    /// Its `lms` (LCT scan) or `emr` (EST scan) value.
    pub boundary: Time,
    /// The bound that merging it would produce.
    pub resulting: Time,
    /// What the algorithm did with it.
    pub decision: MergeDecision,
}

/// Full trace of the merge scan for one task.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaskTrace {
    /// The task being bounded.
    pub task: TaskId,
    /// The bound with nothing merged: deadline/release time plus every
    /// immediate neighbor's message boundary honored (the paper's
    /// "if no tasks are merged" value).
    pub base: Time,
    /// The candidates considered, in order.
    pub steps: Vec<MergeStep>,
    /// The final bound.
    pub final_value: Time,
}

/// Traces for every task: how each `L_i` and `E_i` was derived.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimingTrace {
    /// One LCT trace per task, in reverse topological evaluation order.
    pub lct: Vec<TaskTrace>,
    /// One EST trace per task, in topological evaluation order.
    pub est: Vec<TaskTrace>,
}

/// Computes `E_i` and `L_i` for every task (Figures 2 and 3).
///
/// LCTs are evaluated in reverse topological order, ESTs in topological
/// order, so each task sees final values for its neighbors.
///
/// # Example
///
/// ```
/// use rtlb_core::{compute_timing, SystemModel};
/// use rtlb_graph::{Catalog, Dur, TaskGraphBuilder, TaskSpec, Time};
/// # fn main() -> Result<(), rtlb_graph::GraphError> {
/// let mut catalog = Catalog::new();
/// let p = catalog.processor("P");
/// let mut b = TaskGraphBuilder::new(catalog);
/// b.default_deadline(Time::new(20));
/// let a = b.add_task(TaskSpec::new("a", Dur::new(3), p))?;
/// let z = b.add_task(TaskSpec::new("z", Dur::new(4), p))?;
/// b.add_edge(a, z, Dur::new(5))?;
/// let g = b.build()?;
/// let timing = compute_timing(&g, &SystemModel::shared());
/// assert_eq!(timing.est(a), Time::new(0));
/// // z either waits for the message (0+3+5=8) or merges with a (0+3=3).
/// assert_eq!(timing.est(z), Time::new(3));
/// # Ok(())
/// # }
/// ```
pub fn compute_timing(graph: &TaskGraph, model: &SystemModel) -> TimingAnalysis {
    uncancellable(compute_timing_inner(
        graph,
        model,
        Packing::Timeline,
        None,
        &NULL_PROBE,
        &CancelToken::none(),
    ))
}

/// Like [`compute_timing`], additionally recording every merge decision.
pub fn compute_timing_traced(
    graph: &TaskGraph,
    model: &SystemModel,
) -> (TimingAnalysis, TimingTrace) {
    let mut trace = TimingTrace::default();
    let analysis = uncancellable(compute_timing_inner(
        graph,
        model,
        Packing::Timeline,
        Some(&mut trace),
        &NULL_PROBE,
        &CancelToken::none(),
    ));
    (analysis, trace)
}

/// [`compute_timing`] reporting into `probe` and polling `ctl` once per
/// task in each of the two Figure 2/3 passes: `timing.lct_pass` and
/// `timing.est_pass` spans around the two evaluation orders, plus
/// `timing.merge_candidates` / `timing.merges_accepted` counters for the
/// merge-selection scans. The windows are bit-identical with any probe.
///
/// # Errors
///
/// [`AnalysisError::Deadline`] when `ctl` trips; the partially computed
/// windows are discarded.
pub fn compute_timing_ctl(
    graph: &TaskGraph,
    model: &SystemModel,
    probe: &dyn Probe,
    ctl: &CancelToken,
) -> Result<TimingAnalysis, AnalysisError> {
    compute_timing_inner(graph, model, Packing::Timeline, None, probe, ctl)
}

/// [`compute_timing_ctl`] with an explicit packing implementation — the
/// paper's sequential re-packing is the differential oracle for the
/// Timeline; the windows are bit-identical either way.
///
/// # Errors
///
/// Same as [`compute_timing_ctl`].
#[cfg(test)]
pub(crate) fn compute_timing_ctl_packed(
    graph: &TaskGraph,
    model: &SystemModel,
    packing: Packing,
    probe: &dyn Probe,
    ctl: &CancelToken,
) -> Result<TimingAnalysis, AnalysisError> {
    compute_timing_inner(graph, model, packing, None, probe, ctl)
}

/// Unwraps a timing result produced under the never-tripping token.
fn uncancellable(result: Result<TimingAnalysis, AnalysisError>) -> TimingAnalysis {
    match result {
        Ok(timing) => timing,
        Err(_) => unreachable!("uncancellable timing computation cannot fail"),
    }
}

fn compute_timing_inner(
    graph: &TaskGraph,
    model: &SystemModel,
    packing: Packing,
    mut trace: Option<&mut TimingTrace>,
    probe: &dyn Probe,
    ctl: &CancelToken,
) -> Result<TimingAnalysis, AnalysisError> {
    let n = graph.task_count();
    let mut lct = vec![Time::ZERO; n];
    let mut est = vec![Time::ZERO; n];
    let mut merged_succs = vec![Vec::new(); n];
    let mut merged_preds = vec![Vec::new(); n];
    let (mut candidates, mut accepted) = (0u64, 0u64);
    let mut packer = Packer::new(packing);

    // LCT: sinks first.
    {
        let _pass = span(probe, "timing.lct_pass", Label::None);
        for i in graph.reverse_topological_order() {
            ctl.check()?;
            let (value, merged, task_trace) = lct_of(graph, model, i, &lct, &mut packer);
            candidates += task_trace.steps.len() as u64;
            accepted += merged.len() as u64;
            lct[i.index()] = value;
            merged_succs[i.index()] = merged;
            if let Some(t) = trace.as_deref_mut() {
                t.lct.push(task_trace);
            }
        }
    }

    // EST: sources first.
    {
        let _pass = span(probe, "timing.est_pass", Label::None);
        for &i in graph.topological_order() {
            ctl.check()?;
            let (value, merged, task_trace) = est_of(graph, model, i, &est, &mut packer);
            candidates += task_trace.steps.len() as u64;
            accepted += merged.len() as u64;
            est[i.index()] = value;
            merged_preds[i.index()] = merged;
            if let Some(t) = trace.as_deref_mut() {
                t.est.push(task_trace);
            }
        }
    }
    probe.add("timing.merge_candidates", candidates);
    probe.add("timing.merges_accepted", accepted);
    probe.add("timeline.unions", packer.unions());
    // Distribution across instances: one observation per fixpoint run,
    // so a batch-level registry sees per-instance merge workloads.
    probe.observe("timing.merge_candidates_per_run", candidates);

    let windows = est
        .into_iter()
        .zip(lct)
        .map(|(est, lct)| TaskWindow { est, lct })
        .collect();
    Ok(TimingAnalysis {
        windows,
        merged_preds,
        merged_succs,
    })
}

/// Which implementation evaluates the paper's `lst(A)`/`ect(A)` packings
/// inside the Figure 2/3 merge scans. Both produce bit-identical window
/// values; `Timeline` is the union-find pour that amortizes the
/// per-prefix evaluations to near-linear, `Paper` the faithful sequential
/// re-packing the tests keep as its differential oracle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Packing {
    /// Sequential sorted packing straight from Equations 4.1/4.5, on a
    /// reused scratch buffer (no per-call allocation or re-sort).
    #[cfg(test)]
    Paper,
    /// Incremental union-find [`Timeline`] pour.
    Timeline,
}

/// Reusable evaluator for the paper's `lst(A)`/`ect(A)` set packings.
///
/// One `Packer` serves one merge scan at a time: [`Packer::begin`] resets
/// the set, `push_*` adds a task, and the clamped read-outs return the
/// packed value of everything pushed since `begin`. The *empty* set has
/// no packing value of its own — the pre-fix helpers returned the raw
/// `Time::MAX`/`Time::MIN` sentinels here, which violate the §7 magnitude
/// envelope the moment they reach Ψ arithmetic — so every read-out is
/// window-clamped: the caller supplies the Figure 2/3 incumbent
/// (`L_i^0`/`E_i^0`) and gets it back unchanged for the empty set. A scan
/// must not mix `push_lct` and `push_est` between two `begin` calls.
pub(crate) struct Packer {
    packing: Packing,
    /// Paper path: `(boundary, computation)` pairs, sorted ascending by
    /// boundary (EST for `ect`, LCT for `lst`); reused across scans.
    #[cfg(test)]
    sorted: Vec<(i64, i64)>,
    timeline: Timeline,
}

impl Packer {
    pub(crate) fn new(packing: Packing) -> Packer {
        Packer {
            packing,
            #[cfg(test)]
            sorted: Vec::new(),
            timeline: Timeline::new(),
        }
    }

    /// Starts a fresh (empty) task set, keeping allocations.
    pub(crate) fn begin(&mut self) {
        #[cfg(test)]
        self.sorted.clear();
        self.timeline.clear();
    }

    /// Total `Timeline` segment coalescings performed so far (the
    /// `timeline.unions` counter; 0 on the paper path).
    pub(crate) fn unions(&self) -> u64 {
        self.timeline.unions()
    }

    #[cfg(test)]
    fn push_sorted(&mut self, boundary: i64, c: i64) {
        let at = self.sorted.partition_point(|&(b, _)| b <= boundary);
        self.sorted.insert(at, (boundary, c));
    }

    /// Adds a task with window start `est` and computation `c` to the
    /// `ect` set.
    pub(crate) fn push_est(&mut self, est: Time, c: Dur) {
        match self.packing {
            #[cfg(test)]
            Packing::Paper => self.push_sorted(est.ticks(), c.ticks()),
            Packing::Timeline => {
                self.timeline.insert(est.ticks(), c.ticks());
            }
        }
    }

    /// The paper's `ect(A)` of the current set, clamped from below by
    /// `floor` (Figure 3's `E_i^0` incumbent): `max(floor, ect(A))`, and
    /// exactly `floor` for the empty set.
    pub(crate) fn ect_clamped(&mut self, floor: Time) -> Time {
        let packed = match self.packing {
            #[cfg(test)]
            Packing::Paper => {
                let mut finish: Option<i64> = None;
                for &(e, c) in &self.sorted {
                    let start = finish.map_or(e, |f| f.max(e));
                    finish = Some(start + c);
                }
                finish
            }
            Packing::Timeline => self.timeline.ect(),
        };
        packed.map_or(floor, |f| floor.max(Time::new(f)))
    }

    /// Adds a task with window end `lct` and computation `c` to the
    /// `lst` set.
    pub(crate) fn push_lct(&mut self, lct: Time, c: Dur) {
        match self.packing {
            #[cfg(test)]
            Packing::Paper => self.push_sorted(lct.ticks(), c.ticks()),
            // lst over {(L_j, C_j)} = -ect over {(-L_j, C_j)}.
            Packing::Timeline => {
                self.timeline.insert(-lct.ticks(), c.ticks());
            }
        }
    }

    /// The paper's `lst(A)` of the current set, clamped from above by
    /// `ceiling` (Figure 2's `L_i^0` incumbent): `min(ceiling, lst(A))`,
    /// and exactly `ceiling` for the empty set.
    pub(crate) fn lst_clamped(&mut self, ceiling: Time) -> Time {
        let packed = match self.packing {
            #[cfg(test)]
            Packing::Paper => {
                let mut start: Option<i64> = None;
                for &(l, c) in self.sorted.iter().rev() {
                    let completion = start.map_or(l, |s| s.min(l));
                    start = Some(completion - c);
                }
                start
            }
            Packing::Timeline => self.timeline.ect().map(|e| -e),
        };
        packed.map_or(ceiling, |s| ceiling.min(Time::new(s)))
    }
}

/// Figure 2: `L_i` and the merged successor set `G_i`.
///
/// Pure in `(D_i, succs' L, succs' C, messages, model)` — the incremental
/// session relies on this to recompute single tasks out of band. The
/// `packer` is pure scratch (either [`Packing`] yields identical values).
pub(crate) fn lct_of(
    graph: &TaskGraph,
    model: &SystemModel,
    i: TaskId,
    lct: &[Time],
    packer: &mut Packer,
) -> (Time, Vec<TaskId>, TaskTrace) {
    let deadline = graph.task(i).deadline();
    let succs = graph.successors(i);
    if succs.is_empty() {
        return (
            deadline,
            Vec::new(),
            TaskTrace {
                task: i,
                base: deadline,
                steps: Vec::new(),
                final_value: deadline,
            },
        );
    }

    // lms_j = L_j - C_j - m_ij for every immediate successor.
    let lms: Vec<(TaskId, Time)> = succs
        .iter()
        .map(|e| {
            let j = e.other;
            (j, lct[j.index()] - graph.task(j).computation() - e.message)
        })
        .collect();

    // MS_i: successors individually mergeable with i.
    let mut seed = MergeSet::new(model, graph, i).expect("validated models host every task");
    let (ms, non_ms): (Vec<Boundary>, Vec<Boundary>) =
        lms.iter().copied().partition(|&(j, _)| seed.can_add(j));

    // Figure 2's L_i^0 = min(D_i, min over non-mergeable successors of
    // lms). The incumbent for the merge scan additionally honors the lms
    // of every still-unmerged mergeable successor (Equation 4.1 with
    // A = ∅) — this is the "if no tasks are merged" bound of the paper's
    // worked example.
    let mut fig_l0 = deadline;
    for &(_, b) in &non_ms {
        fig_l0 = fig_l0.min(b);
    }

    // Scan MS_i in increasing lms order.
    let mut ms_sorted = ms;
    ms_sorted.sort_by_key(|&(j, b)| (b, j));

    let mut best = fig_l0;
    if let Some(&(_, b)) = ms_sorted.first() {
        best = best.min(b);
    }
    let base = best;

    // Evaluate Equation 4.1 at every mergeable prefix; remember the best
    // (ties: shortest prefix). See the module docs for why prefixes
    // suffice and why scanning all of them is required for soundness.
    // The packer evaluates `lst` of each prefix incrementally: one push
    // per candidate instead of a re-sorted re-pack per prefix.
    packer.begin();
    let mut prefix: Vec<TaskId> = Vec::new();
    let mut values: Vec<(Time, MergeStep)> = Vec::new();
    for (idx, &(j, boundary)) in ms_sorted.iter().enumerate() {
        if !seed.can_add(j) {
            values.push((
                Time::MIN,
                MergeStep {
                    candidate: j,
                    boundary,
                    resulting: best,
                    decision: MergeDecision::RejectedNotMergeable,
                },
            ));
            break;
        }
        seed.add(j);
        prefix.push(j);
        packer.push_lct(lct[j.index()], graph.task(j).computation());
        let mut value = packer.lst_clamped(fig_l0);
        if let Some(&(_, b)) = ms_sorted.get(idx + 1) {
            value = value.min(b); // sorted ascending: first remaining is min
        }
        values.push((
            value,
            MergeStep {
                candidate: j,
                boundary,
                resulting: value,
                decision: MergeDecision::RejectedNoImprovement,
            },
        ));
    }
    // Best prefix length (0 = merge nothing); strict > keeps ties short.
    let mut best_len = 0usize;
    for (k, &(v, _)) in values.iter().enumerate() {
        if v > best {
            best = v;
            best_len = k + 1;
        }
    }
    let mut steps = Vec::new();
    for (k, (_, mut step)) in values.into_iter().enumerate() {
        if k < best_len {
            step.decision = MergeDecision::Accepted;
        }
        steps.push(step);
    }
    let merged: Vec<TaskId> = prefix.into_iter().take(best_len).collect();

    let trace = TaskTrace {
        task: i,
        base,
        steps,
        final_value: best,
    };
    (best, merged, trace)
}

/// Figure 3: `E_i` and the merged predecessor set `M_i`.
///
/// Pure in `(rel_i, preds' E, preds' C, messages, model)` — the
/// incremental session relies on this to recompute single tasks out of
/// band. The `packer` is pure scratch (either [`Packing`] yields
/// identical values).
pub(crate) fn est_of(
    graph: &TaskGraph,
    model: &SystemModel,
    i: TaskId,
    est: &[Time],
    packer: &mut Packer,
) -> (Time, Vec<TaskId>, TaskTrace) {
    let release = graph.task(i).release();
    let preds = graph.predecessors(i);
    if preds.is_empty() {
        return (
            release,
            Vec::new(),
            TaskTrace {
                task: i,
                base: release,
                steps: Vec::new(),
                final_value: release,
            },
        );
    }

    // emr_j = E_j + C_j + m_ji for every immediate predecessor.
    let emr: Vec<(TaskId, Time)> = preds
        .iter()
        .map(|e| {
            let j = e.other;
            (j, est[j.index()] + graph.task(j).computation() + e.message)
        })
        .collect();

    let mut seed = MergeSet::new(model, graph, i).expect("validated models host every task");
    let (mp, non_mp): (Vec<Boundary>, Vec<Boundary>) =
        emr.iter().copied().partition(|&(j, _)| seed.can_add(j));

    // Figure 3's E_i^0 = max(rel_i, max over non-mergeable predecessors
    // of emr); the scan incumbent additionally honors the emr of every
    // still-unmerged mergeable predecessor (Equation 4.5 with A = ∅).
    let mut fig_e0 = release;
    for &(_, b) in &non_mp {
        fig_e0 = fig_e0.max(b);
    }

    // Scan MP_i in decreasing emr order.
    let mut mp_sorted = mp;
    mp_sorted.sort_by_key(|&(j, b)| (std::cmp::Reverse(b), j));

    let mut best = fig_e0;
    if let Some(&(_, b)) = mp_sorted.first() {
        best = best.max(b);
    }
    let base = best;

    // Evaluate Equation 4.5 at every mergeable prefix (mirror image of
    // the LCT scan); best value is the minimum, ties keep the shortest
    // prefix.
    packer.begin();
    let mut prefix: Vec<TaskId> = Vec::new();
    let mut values: Vec<(Time, MergeStep)> = Vec::new();
    for (idx, &(j, boundary)) in mp_sorted.iter().enumerate() {
        if !seed.can_add(j) {
            values.push((
                Time::MAX,
                MergeStep {
                    candidate: j,
                    boundary,
                    resulting: best,
                    decision: MergeDecision::RejectedNotMergeable,
                },
            ));
            break;
        }
        seed.add(j);
        prefix.push(j);
        packer.push_est(est[j.index()], graph.task(j).computation());
        let mut value = packer.ect_clamped(fig_e0);
        if let Some(&(_, b)) = mp_sorted.get(idx + 1) {
            value = value.max(b); // sorted descending: first remaining is max
        }
        values.push((
            value,
            MergeStep {
                candidate: j,
                boundary,
                resulting: value,
                decision: MergeDecision::RejectedNoImprovement,
            },
        ));
    }
    let mut best_len = 0usize;
    for (k, &(v, _)) in values.iter().enumerate() {
        if v < best {
            best = v;
            best_len = k + 1;
        }
    }
    let mut steps = Vec::new();
    for (k, (_, mut step)) in values.into_iter().enumerate() {
        if k < best_len {
            step.decision = MergeDecision::Accepted;
        }
        steps.push(step);
    }
    let merged: Vec<TaskId> = prefix.into_iter().take(best_len).collect();

    let trace = TaskTrace {
        task: i,
        base,
        steps,
        final_value: best,
    };
    (best, merged, trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtlb_graph::{Catalog, Dur, TaskGraphBuilder, TaskSpec};

    fn shared() -> SystemModel {
        SystemModel::shared()
    }

    /// Two tasks on different processor types, connected by an edge:
    /// no merging possible, message delay applies on both sides.
    #[test]
    fn unmergeable_chain_pays_communication() {
        let mut c = Catalog::new();
        let p1 = c.processor("P1");
        let p2 = c.processor("P2");
        let mut b = TaskGraphBuilder::new(c);
        b.default_deadline(Time::new(30));
        let a = b.add_task(TaskSpec::new("a", Dur::new(3), p1)).unwrap();
        let z = b.add_task(TaskSpec::new("z", Dur::new(4), p2)).unwrap();
        b.add_edge(a, z, Dur::new(5)).unwrap();
        let g = b.build().unwrap();
        let t = compute_timing(&g, &shared());
        // E_z = E_a + C_a + m = 0 + 3 + 5.
        assert_eq!(t.est(z), Time::new(8));
        // L_a = L_z - C_z - m = 30 - 4 - 5.
        assert_eq!(t.lct(a), Time::new(21));
        assert_eq!(t.lct(z), Time::new(30));
        assert!(t.merged_successors(a).is_empty());
        assert!(t.merged_predecessors(z).is_empty());
        t.check_feasible(&g).unwrap();
    }

    /// Same chain but on one processor type: merging removes the message.
    #[test]
    fn mergeable_chain_avoids_communication() {
        let mut c = Catalog::new();
        let p = c.processor("P");
        let mut b = TaskGraphBuilder::new(c);
        b.default_deadline(Time::new(30));
        let a = b.add_task(TaskSpec::new("a", Dur::new(3), p)).unwrap();
        let z = b.add_task(TaskSpec::new("z", Dur::new(4), p)).unwrap();
        b.add_edge(a, z, Dur::new(5)).unwrap();
        let g = b.build().unwrap();
        let t = compute_timing(&g, &shared());
        // Merged: E_z = ect({a}) = 3; L_a = lst({z}) = 30 - 4 = 26.
        assert_eq!(t.est(z), Time::new(3));
        assert_eq!(t.lct(a), Time::new(26));
        assert_eq!(t.merged_successors(a), &[z]);
        assert_eq!(t.merged_predecessors(z), &[a]);
    }

    /// Merging is only chosen when it strictly helps: with a zero-size
    /// message the bound is the same either way, so the candidate is
    /// rejected (Figure 2 step (d)).
    #[test]
    fn zero_message_rejects_merge_on_equality() {
        let mut c = Catalog::new();
        let p = c.processor("P");
        let mut b = TaskGraphBuilder::new(c);
        b.default_deadline(Time::new(10));
        let a = b.add_task(TaskSpec::new("a", Dur::new(2), p)).unwrap();
        let z = b.add_task(TaskSpec::new("z", Dur::new(2), p)).unwrap();
        b.add_edge(a, z, Dur::ZERO).unwrap();
        let g = b.build().unwrap();
        let (t, trace) = compute_timing_traced(&g, &shared());
        assert_eq!(t.est(z), Time::new(2));
        // lms_z = 10 - 2 - 0 = 8 = lst({z}): merging leaves the bound
        // unchanged, so nothing is merged.
        assert_eq!(t.lct(a), Time::new(8));
        assert!(t.merged_successors(a).is_empty());
        let a_trace = trace.lct.iter().find(|tr| tr.task == a).unwrap();
        assert_eq!(a_trace.steps.len(), 1);
        assert_eq!(
            a_trace.steps[0].decision,
            MergeDecision::RejectedNoImprovement
        );
    }

    /// A fan-out where merging every successor would serialize too much:
    /// the greedy scan stops once merging stops helping.
    #[test]
    fn fanout_merges_selectively() {
        let mut c = Catalog::new();
        let p = c.processor("P");
        let mut b = TaskGraphBuilder::new(c);
        b.default_deadline(Time::new(20));
        let root = b.add_task(TaskSpec::new("root", Dur::new(1), p)).unwrap();
        let s1 = b.add_task(TaskSpec::new("s1", Dur::new(8), p)).unwrap();
        let s2 = b.add_task(TaskSpec::new("s2", Dur::new(8), p)).unwrap();
        b.add_edge(root, s1, Dur::new(1)).unwrap();
        b.add_edge(root, s2, Dur::new(1)).unwrap();
        let g = b.build().unwrap();
        let t = compute_timing(&g, &shared());
        // Without merging: lms = 20-8-1 = 11 for both. Merging one: the
        // other still bounds at 11, lst({s}) = 12 → L = 11 (no strict
        // gain → rejected). Merging both would give lst = 20-8-8 = 4.
        assert_eq!(t.lct(root), Time::new(11));
        assert!(t.merged_successors(root).is_empty());
    }

    /// Paper prose for L_9: merging 14 helps (18 → 19), merging 13 keeps
    /// 19 — no strict improvement, so 13 is rejected (the paper's table
    /// prints G_9 = {14,13}; see the module docs on tie handling).
    #[test]
    fn lct_scan_matches_paper_shape() {
        let mut c = Catalog::new();
        let p = c.processor("P1");
        let mut b = TaskGraphBuilder::new(c);
        b.default_deadline(Time::new(36));
        // task 9: C=3. Successors: 13 (C=6, L=30, m=5), 14 (C=5, L=30,
        // m=7), 15 (C=6, L=36, m=4).
        let t9 = b.add_task(TaskSpec::new("t9", Dur::new(3), p)).unwrap();
        let t13 = b
            .add_task(TaskSpec::new("t13", Dur::new(6), p).deadline(Time::new(30)))
            .unwrap();
        let t14 = b
            .add_task(TaskSpec::new("t14", Dur::new(5), p).deadline(Time::new(30)))
            .unwrap();
        let t15 = b
            .add_task(TaskSpec::new("t15", Dur::new(6), p).deadline(Time::new(36)))
            .unwrap();
        b.add_edge(t9, t13, Dur::new(5)).unwrap();
        b.add_edge(t9, t14, Dur::new(7)).unwrap();
        b.add_edge(t9, t15, Dur::new(4)).unwrap();
        let g = b.build().unwrap();
        let t = compute_timing(&g, &shared());
        assert_eq!(t.lct(t9), Time::new(19));
        assert_eq!(t.merged_successors(t9), &[t14]);
    }

    #[test]
    fn release_time_dominates_isolated_task() {
        let mut c = Catalog::new();
        let p = c.processor("P");
        let mut b = TaskGraphBuilder::new(c);
        b.default_deadline(Time::new(9));
        let a = b
            .add_task(TaskSpec::new("a", Dur::new(2), p).release(Time::new(4)))
            .unwrap();
        let g = b.build().unwrap();
        let t = compute_timing(&g, &shared());
        assert_eq!(t.est(a), Time::new(4));
        assert_eq!(t.lct(a), Time::new(9));
        assert_eq!(
            t.window(a),
            TaskWindow {
                est: Time::new(4),
                lct: Time::new(9)
            }
        );
    }

    #[test]
    fn infeasibility_is_detected() {
        let mut c = Catalog::new();
        let p1 = c.processor("P1");
        let p2 = c.processor("P2");
        let mut b = TaskGraphBuilder::new(c);
        // a -> z with a long message and a tight deadline on z.
        let a = b
            .add_task(TaskSpec::new("a", Dur::new(3), p1).deadline(Time::new(20)))
            .unwrap();
        let z = b
            .add_task(TaskSpec::new("z", Dur::new(4), p2).deadline(Time::new(8)))
            .unwrap();
        b.add_edge(a, z, Dur::new(5)).unwrap();
        let g = b.build().unwrap();
        let t = compute_timing(&g, &shared());
        // E_z = 8, L_z = 8, C_z = 4 → z infeasible; the message constraint
        // also drags L_a down to 8 - 4 - 5 = -1 < E_a + C_a, so a is an
        // infeasibility witness too.
        assert_eq!(t.infeasible_tasks(&g).collect::<Vec<_>>(), vec![a, z]);
        assert!(matches!(
            t.check_feasible(&g),
            Err(AnalysisError::Infeasible { task, .. }) if task == "a"
        ));
    }

    #[test]
    fn deadline_caps_lct_even_with_late_successors() {
        let mut c = Catalog::new();
        let p = c.processor("P");
        let mut b = TaskGraphBuilder::new(c);
        b.default_deadline(Time::new(100));
        let a = b
            .add_task(TaskSpec::new("a", Dur::new(1), p).deadline(Time::new(5)))
            .unwrap();
        let z = b.add_task(TaskSpec::new("z", Dur::new(1), p)).unwrap();
        b.add_edge(a, z, Dur::ZERO).unwrap();
        let g = b.build().unwrap();
        let t = compute_timing(&g, &shared());
        assert_eq!(t.lct(a), Time::new(5));
    }

    #[test]
    fn traces_record_base_and_final() {
        let mut c = Catalog::new();
        let p = c.processor("P");
        let mut b = TaskGraphBuilder::new(c);
        b.default_deadline(Time::new(30));
        let a = b.add_task(TaskSpec::new("a", Dur::new(3), p)).unwrap();
        let z = b.add_task(TaskSpec::new("z", Dur::new(4), p)).unwrap();
        b.add_edge(a, z, Dur::new(5)).unwrap();
        let g = b.build().unwrap();
        let (t, trace) = compute_timing_traced(&g, &shared());
        assert_eq!(trace.lct.len(), 2);
        assert_eq!(trace.est.len(), 2);
        let a_trace = trace.lct.iter().find(|tr| tr.task == a).unwrap();
        assert_eq!(a_trace.base, Time::new(21)); // lms without merging
        assert_eq!(a_trace.final_value, t.lct(a));
        assert_eq!(a_trace.steps[0].decision, MergeDecision::Accepted);
        let z_trace = trace.est.iter().find(|tr| tr.task == z).unwrap();
        assert_eq!(z_trace.base, Time::new(8));
        assert_eq!(z_trace.final_value, Time::new(3));
    }

    /// A tripped token interrupts the timing passes; a live one is
    /// invisible (bit-identical windows).
    #[test]
    fn cancel_token_threads_through_timing() {
        use rtlb_obs::NULL_PROBE;
        let mut c = Catalog::new();
        let p = c.processor("P");
        let mut b = TaskGraphBuilder::new(c);
        b.default_deadline(Time::new(30));
        let a = b.add_task(TaskSpec::new("a", Dur::new(3), p)).unwrap();
        let z = b.add_task(TaskSpec::new("z", Dur::new(4), p)).unwrap();
        b.add_edge(a, z, Dur::new(5)).unwrap();
        let g = b.build().unwrap();

        let live = CancelToken::new();
        let timing = compute_timing_ctl(&g, &shared(), &NULL_PROBE, &live).unwrap();
        assert_eq!(timing, compute_timing(&g, &shared()));

        let tripped = CancelToken::new();
        tripped.cancel();
        assert_eq!(
            compute_timing_ctl(&g, &shared(), &NULL_PROBE, &tripped),
            Err(AnalysisError::Deadline)
        );
    }

    /// lst/ect micro-checks straight from the paper's definitions.
    #[test]
    fn lst_and_ect_sequential_packing() {
        for packing in [Packing::Paper, Packing::Timeline] {
            let mut packer = Packer::new(packing);

            // lst: (LCT, C) = (20,3), (15,5), (12,2) → pack from the back:
            //   completes 20 start 17; completes min(17,15)=15 start 10;
            //   completes min(10,12)=10 start 8.
            packer.begin();
            packer.push_lct(Time::new(20), Dur::new(3));
            packer.push_lct(Time::new(15), Dur::new(5));
            packer.push_lct(Time::new(12), Dur::new(2));
            assert_eq!(
                packer.lst_clamped(Time::new(100)),
                Time::new(8),
                "{packing:?}"
            );

            // ect: (EST, C) = (0,3), (4,5), (4,2) → [0,3], starts
            // max(3,4)=4 ends 9, starts 9 ends 11.
            packer.begin();
            packer.push_est(Time::new(0), Dur::new(3));
            packer.push_est(Time::new(4), Dur::new(5));
            packer.push_est(Time::new(4), Dur::new(2));
            assert_eq!(
                packer.ect_clamped(Time::new(-50)),
                Time::new(11),
                "{packing:?}"
            );
        }
    }

    /// Regression for the sentinel defect: the pre-fix `lst(A)`/`ect(A)`
    /// helpers returned the raw `Time::MAX`/`Time::MIN` sentinels for an
    /// empty set — values outside the §7 magnitude envelope that overflow
    /// `i64` the moment Ψ arithmetic composes two of them. The packer's
    /// empty-set read-out must be the caller's window clamp, strictly
    /// inside the envelope.
    #[test]
    fn empty_set_packing_is_window_clamped() {
        for packing in [Packing::Paper, Packing::Timeline] {
            let mut packer = Packer::new(packing);
            packer.begin();
            let lst = packer.lst_clamped(Time::new(17));
            packer.begin();
            let ect = packer.ect_clamped(Time::new(-4));
            assert_eq!(lst, Time::new(17), "{packing:?}");
            assert_eq!(ect, Time::new(-4), "{packing:?}");
            // The pre-fix helpers failed exactly here: lst(∅) = Time::MAX
            // and ect(∅) = Time::MIN escape the ±MAGNITUDE_LIMIT envelope,
            // so e.g. `lst(∅) - ect(∅)` wraps i64 in debug builds.
            for v in [lst, ect] {
                assert!(
                    v > Time::MIN && v < Time::MAX,
                    "{packing:?}: {v:?} is a sentinel, not a window-clamped value"
                );
            }
            let (a, b) = (lst.ticks(), ect.ticks());
            assert_eq!(a.checked_sub(b), Some(21), "Ψ-style subtraction is exact");
        }
    }

    /// The two packings are interchangeable: identical values for every
    /// prefix of pseudo-random task sets, read mid-scan like the Figure
    /// 2/3 merge loops do.
    #[test]
    fn paper_and_timeline_packings_agree_on_every_prefix() {
        let mut state = 0x2545f4914f6cdd1du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut paper = Packer::new(Packing::Paper);
        let mut timeline = Packer::new(Packing::Timeline);
        for _ in 0..150 {
            let n = 1 + (next() % 8) as usize;
            paper.begin();
            timeline.begin();
            let clamp = Time::new((next() % 60) as i64);
            for _ in 0..n {
                let b = Time::new((next() % 50) as i64 - 10);
                let c = Dur::new((next() % 9) as i64);
                paper.push_lct(b, c);
                timeline.push_lct(b, c);
                assert_eq!(paper.lst_clamped(clamp), timeline.lst_clamped(clamp));
            }
            paper.begin();
            timeline.begin();
            for _ in 0..n {
                let b = Time::new((next() % 50) as i64 - 10);
                let c = Dur::new((next() % 9) as i64);
                paper.push_est(b, c);
                timeline.push_est(b, c);
                assert_eq!(paper.ect_clamped(clamp), timeline.ect_clamped(clamp));
            }
        }
    }

    /// A random instance for the packing differential, from one seed:
    /// 2–10 tasks on two processor types sharing one plain resource,
    /// a third of them preemptive, with release offsets, deadlines from
    /// tight (some instances are infeasible) to loose, and forward edges
    /// carrying 0–4 tick messages. Half the seeds pair it with a
    /// dedicated model whose node types host every task (so merge
    /// eligibility also depends on resource co-location), the other half
    /// with the shared model.
    fn random_instance(seed: u64) -> (TaskGraph, SystemModel) {
        let mut state = seed;
        let mut next = |bound: u64| -> i64 {
            // splitmix64
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % bound) as i64
        };
        let mut c = Catalog::new();
        let procs = [c.processor("P0"), c.processor("P1")];
        let r = c.resource("r");
        let mut b = TaskGraphBuilder::new(c);
        let n = 2 + next(9);
        let mut ids = Vec::new();
        for i in 0..n {
            let comp = 1 + next(6);
            let release = next(6);
            let slack = if next(2) == 0 { next(3) } else { next(13) };
            let mut spec = TaskSpec::new(format!("t{i}"), Dur::new(comp), procs[next(2) as usize])
                .release(Time::new(release))
                .deadline(Time::new(release + comp + slack + next(2) * 3 * n));
            if next(3) == 0 {
                spec = spec.preemptive();
            }
            if next(2) == 0 {
                spec = spec.resource(r);
            }
            ids.push(b.add_task(spec).unwrap());
        }
        for i in 0..ids.len() {
            for j in (i + 1)..ids.len() {
                if next(10) < 3 {
                    b.add_edge(ids[i], ids[j], Dur::new(next(5))).unwrap();
                }
            }
        }
        let dedicated = SystemModel::dedicated(
            procs
                .iter()
                .enumerate()
                .map(|(k, &p)| crate::model::NodeType::new(format!("n{k}"), p, [r], 1))
                .collect(),
        );
        let model = if next(2) == 0 { shared() } else { dedicated };
        (b.build().unwrap(), model)
    }

    proptest::proptest! {
        /// The paper's sequential re-packing is the oracle for the
        /// Timeline: on random DAGs, preemptive and non-preemptive, with
        /// messages, both packings give the same full `TimingAnalysis`
        /// (windows and merge selections) and the same swept bounds
        /// (values, witnesses, interval counts) under both candidate
        /// grids.
        #[test]
        fn paper_packing_matches_timeline(seed in proptest::prelude::any::<u64>()) {
            use crate::bounds::CandidatePolicy;
            use crate::partition::partition_all;
            use crate::sweep::{sweep_partitions_ctl, SweepStrategy};

            let (graph, model) = random_instance(seed);
            let none = CancelToken::none();
            let timing = |packing| {
                compute_timing_ctl_packed(&graph, &model, packing, &NULL_PROBE, &none).unwrap()
            };
            let (paper, timeline) = (timing(Packing::Paper), timing(Packing::Timeline));
            proptest::prop_assert_eq!(&paper, &timeline);
            let sweep = |timing: &TimingAnalysis, policy| {
                timing.check_feasible(&graph)?;
                let partitions = partition_all(&graph, timing);
                sweep_partitions_ctl(
                    &graph,
                    timing,
                    &partitions,
                    policy,
                    SweepStrategy::Incremental,
                    1,
                    0,
                    &NULL_PROBE,
                    &none,
                )
            };
            for policy in [CandidatePolicy::EstLct, CandidatePolicy::Extended] {
                proptest::prop_assert_eq!(sweep(&paper, policy), sweep(&timeline, policy));
            }
        }
    }

    /// The packing differential's generator reaches the cases it has to
    /// cover: accepted merges, feasible and infeasible instances, and
    /// both system models.
    #[test]
    fn random_instances_cover_merges_and_both_models() {
        let (mut merged, mut feasible, mut infeasible, mut dedicated) = (0, 0, 0, 0);
        for seed in 0..256 {
            let (graph, model) = random_instance(seed);
            let timing = compute_timing(&graph, &model);
            if graph
                .tasks()
                .any(|(t, _)| !timing.merged_successors(t).is_empty())
            {
                merged += 1;
            }
            if timing.check_feasible(&graph).is_ok() {
                feasible += 1;
            } else {
                infeasible += 1;
            }
            if model.as_dedicated().is_some() {
                dedicated += 1;
            }
        }
        assert!(
            [merged, feasible, infeasible, dedicated]
                .iter()
                .all(|&n| n > 0),
            "merged {merged}, feasible {feasible}, infeasible {infeasible}, dedicated {dedicated}"
        );
    }
}
