//! Incremental, parallelizable evaluation of the Equation 6.3 sweep.
//!
//! The naive sweep recomputes `Θ(r, t1, t2) = Σ Ψ(i, t1, t2)` from
//! scratch for every candidate pair — `O(P²·N)` per partition block for
//! `P` candidate points over `N` tasks. This module exploits the shape of
//! Ψ (Equations 6.1/6.2): **for a fixed `t1`, each task's minimum overlap
//! is a clamped ramp in `t2`**,
//!
//! ```text
//! Ψ_i(t1, t2) = min(h_i, α(t2 − s_i))        α(x) = max(x, 0)
//! ```
//!
//! with a task-specific onset `s_i` and saturation height `h_i`:
//!
//! * non-preemptive (Equation 6.2): the binding terms are the constant
//!   `min(C, α(C − (t1 − E)))` and the two slope-1 terms `t2 − t1` and
//!   `α(C − (L − t2))`; the minimum of two slope-1 ramps is the ramp
//!   starting at the later onset, so `s = max(t1, L − C)` and
//!   `h = min(C, α(C − (t1 − E)))`;
//! * preemptive (Equation 6.1): the work that cannot escape the interval
//!   is `α(C − before − after)` with `before = α(min(L, t1) − E)` slack
//!   before `t1` and `after = α(L − t2)` slack after `t2`, i.e. a ramp of
//!   height `h = α(C − before)` saturating exactly at `t2 = L`, so
//!   `s = L − h`.
//!
//! Each ramp contributes two *slope events* — `+1` at `s`, `−1` at
//! `s + h` — and one pass over the sorted candidate `t2` points with a
//! running slope accumulates `Θ` exactly in integer arithmetic.
//!
//! ## Structure-of-arrays event arenas
//!
//! Re-deriving and re-sorting the event list for every `t1` column costs
//! `O(N log N)` per column. But as `t1` varies, each task's two event
//! positions move through at most three closed-form *regimes* — constant,
//! shifting linearly with `t1`, or pinned to `t1` itself — so a
//! [`BlockArena`] pre-sorts each regime **once per block** into flat
//! struct-of-arrays streams and then *merges* the streams' alive entries
//! per column in `O(N)` without sorting or touching the graph again:
//!
//! * `start_fixed` / `end_fixed`: events at a constant position, alive
//!   while `t1 ≤ until` (entries die as `t1` grows);
//! * `start_shift` / `end_shift`: events at `s₀ ± t1`, alive on a `t1`
//!   band — sorted by shift key, their relative order is invariant under
//!   the common shift;
//! * `start_at_t1`: non-preemptive ramps whose onset *is* `t1`, coalesced
//!   into one leading `(t1, +count)` event (every other alive event sits
//!   at or beyond `t1`, so the merged list stays sorted);
//! * `end_band`: non-preemptive late-regime ends pinned at `E + C`.
//!
//! The accumulated `Θ` depends only on the *multiset* of slope events, so
//! the merged stream reproduces the sorted per-column list bit for bit.
//!
//! ## Chunked fan-out
//!
//! Columns are independent, so [`plan_block`] splits each block's `t1`
//! range into contiguous chunks ([`crate::exec::chunk_spans`]) and
//! [`sweep_partitions_ctl`] fans block×chunk jobs across cores with
//! `std::thread::scope`. Merging the per-chunk maxima in deterministic
//! ascending-`t1` chunk order with the first-wins strict comparison of
//! [`RatioMax::merge`] reproduces the serial result exactly, whatever the
//! thread count or chunk size.
//!
//! Results are **bit-identical** to the naive sweep (same demands, same
//! candidate pairs offered in the same order, same tie-breaks), which the
//! differential suite in `tests/sweep_equivalence.rs` enforces; the naive
//! path survives behind [`SweepStrategy::Naive`] as the testing oracle.

use std::ops::Range;

use rtlb_graph::{Dur, TaskGraph, TaskId, Time};
use rtlb_obs::{span, Label, Probe};
use serde::{Deserialize, Serialize};

use crate::bounds::{candidate_points, CandidatePolicy, RatioMax, ResourceBound};
use crate::cancel::CancelToken;
use crate::error::AnalysisError;
use crate::estlct::TimingAnalysis;
use crate::exec::{chunk_spans, effective_threads, run_jobs};
use crate::partition::{PartitionBlock, ResourcePartition};

/// How the Equation 6.3 interval sweep evaluates `Θ`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum SweepStrategy {
    /// Recompute `Θ` from scratch for every candidate pair —
    /// `O(P²·N)` per block. Kept as the differential-testing oracle.
    Naive,
    /// Arena-based incremental accumulation — `O(P·(P + N))` per block
    /// after an `O(N log N)` per-block sort, bit-identical results.
    #[default]
    Incremental,
}

/// A slope event at a constant position, alive while `t1 <= until`.
#[derive(Clone, Copy, Debug)]
struct ClampEvent {
    pos: i64,
    until: i64,
}

/// A preemptive mid-regime start event at `key + t1`, alive for
/// `lo <= t1 <= hi`. Sorted by `key`, positions stay sorted for any `t1`.
#[derive(Clone, Copy, Debug)]
struct StartShiftEvent {
    key: i64,
    lo: i64,
    hi: i64,
}

/// A non-preemptive mid-regime end event at `l + e − t1`, alive for
/// `e + 1 <= t1 <= hi`. The position is computed as `l − (t1 − e)` so it
/// never overflows on feasible windows; entries are sorted by `l + e`
/// (widened), which keeps positions sorted for any common `t1`.
#[derive(Clone, Copy, Debug)]
struct EndShiftEvent {
    l: i64,
    e: i64,
    hi: i64,
}

/// A `t1` band: alive for `lo <= t1 <= hi`.
#[derive(Clone, Copy, Debug)]
struct Band {
    lo: i64,
    hi: i64,
}

/// A slope event at a constant position, alive on a `t1` band.
#[derive(Clone, Copy, Debug)]
struct BandEvent {
    pos: i64,
    lo: i64,
    hi: i64,
}

/// One demander as the ramp decomposition sees it: a feasible window
/// `[e, l]`, its computation `c`, and its execution mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct RampItem {
    pub(crate) e: i64,
    pub(crate) l: i64,
    pub(crate) c: i64,
    pub(crate) preemptive: bool,
}

impl RampItem {
    /// Task `t` with its window under `timing`.
    pub(crate) fn of(graph: &TaskGraph, timing: &TimingAnalysis, t: TaskId) -> RampItem {
        let task = graph.task(t);
        let w = timing.window(t);
        RampItem {
            e: w.est.ticks(),
            l: w.lct.ticks(),
            c: task.computation().ticks(),
            preemptive: task.is_preemptive(),
        }
    }
}

/// Flat struct-of-arrays slope-event streams for one partition block,
/// built and sorted once, then merged allocation-free per `t1` column.
/// See the module docs for the regime decomposition; the differential
/// unit test `arena_streams_match_ramp_decomposition` pins each stream
/// against [`psi_ramp`] exhaustively. The sweep builds one per block from
/// the graph; the filtered propagation pass rebuilds one in place from its
/// local window copies, so both take `Θ` from this one decomposition.
#[derive(Default)]
pub(crate) struct BlockArena {
    /// `+1` at a fixed position (NP early/mid regime, P early regime).
    start_fixed: Vec<ClampEvent>,
    /// `+1` at `key + t1` (P mid regime).
    start_shift: Vec<StartShiftEvent>,
    /// `+1` at `t1` itself (NP late regime), coalesced per column.
    start_at_t1: Vec<Band>,
    /// `−1` at `L` (NP early regime, P early/mid regime).
    end_fixed: Vec<ClampEvent>,
    /// `−1` at `L + E − t1` (NP mid regime).
    end_shift: Vec<EndShiftEvent>,
    /// `−1` at `E + C` (NP late regime).
    end_band: Vec<BandEvent>,
}

impl BlockArena {
    /// Builds the arena of `tasks` under `timing`. Requires feasible
    /// windows — an infeasible task surfaces as
    /// [`AnalysisError::Infeasible`] here instead of a wrong answer or a
    /// debug assertion.
    fn build(
        graph: &TaskGraph,
        timing: &TimingAnalysis,
        tasks: &[TaskId],
    ) -> Result<BlockArena, AnalysisError> {
        for &t in tasks {
            let RampItem { e, l, c, .. } = RampItem::of(graph, timing, t);
            if i128::from(e) + i128::from(c) > i128::from(l) {
                let w = timing.window(t);
                return Err(AnalysisError::Infeasible {
                    task: graph.task(t).name().to_owned(),
                    est: w.est,
                    lct: w.lct,
                });
            }
        }
        let mut arena = BlockArena::default();
        arena.rebuild(tasks.iter().map(|&t| RampItem::of(graph, timing, t)));
        Ok(arena)
    }

    /// Replaces the arena's contents with the ramps of `items`, reusing
    /// the streams' buffers: each ramp is decomposed into its per-regime
    /// stream entries and each stream is sorted once. Every item must be
    /// feasible (`e + c <= l`).
    pub(crate) fn rebuild(&mut self, items: impl IntoIterator<Item = RampItem>) {
        self.start_fixed.clear();
        self.start_shift.clear();
        self.start_at_t1.clear();
        self.end_fixed.clear();
        self.end_shift.clear();
        self.end_band.clear();
        let items = items.into_iter();
        self.start_fixed.reserve(items.size_hint().0);
        self.end_fixed.reserve(items.size_hint().0);
        for RampItem {
            e,
            l,
            c,
            preemptive,
        } in items
        {
            debug_assert!(
                i128::from(e) + i128::from(c) <= i128::from(l),
                "ramp decomposition requires feasible windows"
            );
            if c <= 0 {
                continue; // zero-height ramp: no events at any t1
            }
            // All arithmetic below stays in range because e + c <= l:
            // l − c >= e, l − c − e >= 0, and shifted positions are
            // computed only inside their alive band (see emit_column).
            if preemptive {
                self.start_fixed.push(ClampEvent {
                    pos: l - c,
                    until: e,
                });
                self.end_fixed.push(ClampEvent {
                    pos: l,
                    until: e + c - 1,
                });
                if c >= 2 {
                    self.start_shift.push(StartShiftEvent {
                        key: (l - c) - e,
                        lo: e + 1,
                        hi: e + c - 1,
                    });
                }
            } else {
                let mid_hi = (l - c).min(e + c - 1);
                self.start_fixed.push(ClampEvent {
                    pos: l - c,
                    until: mid_hi,
                });
                self.end_fixed.push(ClampEvent { pos: l, until: e });
                if e < mid_hi {
                    self.end_shift.push(EndShiftEvent { l, e, hi: mid_hi });
                }
                if l - c < e + c - 1 {
                    self.start_at_t1.push(Band {
                        lo: l - c + 1,
                        hi: e + c - 1,
                    });
                    self.end_band.push(BandEvent {
                        pos: e + c,
                        lo: l - c + 1,
                        hi: e + c - 1,
                    });
                }
            }
        }
        self.start_fixed.sort_unstable_by_key(|x| x.pos);
        self.start_shift.sort_unstable_by_key(|x| x.key);
        self.end_fixed.sort_unstable_by_key(|x| x.pos);
        self.end_shift
            .sort_unstable_by_key(|x| i128::from(x.l) + i128::from(x.e));
        self.end_band.sort_unstable_by_key(|x| x.pos);
    }

    /// Merges the alive entries of every stream into `events`, sorted by
    /// position, with same-position deltas coalesced. Returns the number
    /// of *raw* ramp slope events represented (what the pre-arena sweep
    /// counted as `sweep.events_processed`), which can exceed
    /// `events.len()` because of coalescing.
    pub(crate) fn emit_column(&self, t1: i64, events: &mut Vec<(i64, i64)>) -> u64 {
        events.clear();
        let mut raw = 0u64;

        // NP late-regime starts sit exactly at t1 — the minimum possible
        // position (every alive event is at or beyond t1) — so the
        // coalesced (t1, +count) event leads the merged list.
        let at_t1 = self
            .start_at_t1
            .iter()
            .filter(|b| b.lo <= t1 && t1 <= b.hi)
            .count() as i64;
        if at_t1 > 0 {
            events.push((t1, at_t1));
            raw += at_t1 as u64;
        }

        let (mut sf, mut ss, mut ef, mut es, mut eb) = (0usize, 0, 0, 0, 0);
        loop {
            // Peek the next alive entry of each stream; dead entries are
            // skipped (cursors restart per column, so non-monotone alive
            // bands are handled by construction).
            let psf = Self::peek(&self.start_fixed, &mut sf, |x| {
                (t1 <= x.until).then_some(x.pos)
            });
            let pss = Self::peek(&self.start_shift, &mut ss, |x| {
                (x.lo <= t1 && t1 <= x.hi).then(|| x.key + t1)
            });
            let pef = Self::peek(&self.end_fixed, &mut ef, |x| {
                (t1 <= x.until).then_some(x.pos)
            });
            let pes = Self::peek(&self.end_shift, &mut es, |x| {
                (x.e < t1 && t1 <= x.hi).then(|| x.l - (t1 - x.e))
            });
            let peb = Self::peek(&self.end_band, &mut eb, |x| {
                (x.lo <= t1 && t1 <= x.hi).then_some(x.pos)
            });

            let mut best: Option<(i64, i64, u8)> = None;
            for (pos, delta, stream) in [
                (psf, 1, 0u8),
                (pss, 1, 1),
                (pef, -1, 2),
                (pes, -1, 3),
                (peb, -1, 4),
            ] {
                if let Some(pos) = pos {
                    if best.is_none_or(|(b, _, _)| pos < b) {
                        best = Some((pos, delta, stream));
                    }
                }
            }
            let Some((pos, delta, stream)) = best else {
                break;
            };
            match stream {
                0 => sf += 1,
                1 => ss += 1,
                2 => ef += 1,
                3 => es += 1,
                _ => eb += 1,
            }
            debug_assert!(pos >= t1, "alive events never precede t1");
            raw += 1;
            match events.last_mut() {
                Some(last) if last.0 == pos => last.1 += delta,
                _ => events.push((pos, delta)),
            }
        }
        debug_assert!(events.windows(2).all(|w| w[0].0 < w[1].0));
        raw
    }

    /// Advances `cursor` past dead entries and returns the next alive
    /// entry's position, without consuming it.
    fn peek<T: Copy>(
        stream: &[T],
        cursor: &mut usize,
        alive_pos: impl Fn(T) -> Option<i64>,
    ) -> Option<i64> {
        while let Some(&entry) = stream.get(*cursor) {
            if let Some(pos) = alive_pos(entry) {
                return Some(pos);
            }
            *cursor += 1;
        }
        None
    }
}

/// One task's `Ψ(t1, ·)` as a clamped ramp: zero up to `start`, slope 1
/// for `height` ticks, then saturated. The reference decomposition the
/// arena streams are differentially tested against.
#[cfg(test)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Ramp {
    start: i64,
    height: i64,
}

/// Decomposes `Ψ(i, t1, ·)` into its ramp, or `None` when the task can
/// dodge the interval entirely (height 0). Requires a feasible window.
#[cfg(test)]
fn psi_ramp(
    window: crate::estlct::TaskWindow,
    c: Dur,
    mode: rtlb_graph::ExecutionMode,
    t1: Time,
) -> Option<Ramp> {
    let (e, l, c, t1) = (
        window.est.ticks(),
        window.lct.ticks(),
        c.ticks(),
        t1.ticks(),
    );
    debug_assert!(
        e + c <= l,
        "incremental sweep requires feasible windows (E + C <= L)"
    );
    let ramp = match mode {
        rtlb_graph::ExecutionMode::NonPreemptive => Ramp {
            start: t1.max(l - c),
            height: c.min((c - (t1 - e)).max(0)),
        },
        rtlb_graph::ExecutionMode::Preemptive => {
            let before = (l.min(t1) - e).max(0);
            let height = (c - before).max(0);
            Ramp {
                start: l - height,
                height,
            }
        }
    };
    if ramp.height <= 0 {
        return None;
    }
    // The sweep starts accumulating at t1; an event before that would be
    // silently skipped. Feasibility guarantees it cannot happen.
    debug_assert!(ramp.start >= t1);
    Some(ramp)
}

/// The naive oracle for one fixed `t1`: full `Θ` recomputation per `t2`.
fn naive_t1_sweep(
    graph: &TaskGraph,
    timing: &TimingAnalysis,
    tasks: &[TaskId],
    points: &[Time],
    li: usize,
    max: &mut RatioMax,
) {
    let t1 = points[li];
    for &t2 in &points[li + 1..] {
        max.offer(crate::bounds::theta(graph, timing, tasks, t1, t2), t1, t2);
    }
}

/// Walks the candidate `t2` points of one `t1` column once with a
/// running slope over the pre-merged `events`, offering every pair to
/// `max` — exactly the accumulation the sorted per-column event list
/// produced, because `Θ` depends only on the event multiset.
fn accumulate_column(points: &[Time], li: usize, events: &[(i64, i64)], max: &mut RatioMax) {
    let t1 = points[li];
    let mut row = ThetaRow::new(t1.ticks());
    for &t2 in &points[li + 1..] {
        max.offer(Dur::new(row.advance(events, t2.ticks())), t1, t2);
    }
}

/// The running `Θ(t1, ·)` of one column: a cursor over the column's
/// merged slope events (from [`BlockArena::emit_column`]) that advances
/// monotonically in `t2`, accumulating value and slope exactly in integer
/// arithmetic.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ThetaRow {
    value: i64,
    slope: i64,
    pos: i64,
    next_event: usize,
}

impl ThetaRow {
    /// A row at `t2 = t1`, where `Θ` is zero.
    pub(crate) fn new(t1: i64) -> ThetaRow {
        ThetaRow {
            value: 0,
            slope: 0,
            pos: t1,
            next_event: 0,
        }
    }

    /// Advances to `t2` (never before the previous target) and returns
    /// `Θ(t1, t2)` over `events`, the same column's events every call.
    #[inline]
    pub(crate) fn advance(&mut self, events: &[(i64, i64)], t2: i64) -> i64 {
        while let Some(&(at, delta)) = events.get(self.next_event) {
            if at > t2 {
                break;
            }
            self.value += self.slope * (at - self.pos);
            self.pos = at;
            self.slope += delta;
            self.next_event += 1;
        }
        self.value += self.slope * (t2 - self.pos);
        self.pos = t2;
        self.value
    }
}

/// Per-chunk sweep counters: raw ramp slope events processed (the
/// pre-arena `sweep.events_processed` accounting) and merged event
/// entries actually walked (`sweep.chunk_events` — smaller whenever
/// coalescing collapses same-position deltas).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct ChunkCounters {
    pub(crate) raw_events: u64,
    pub(crate) merged_events: u64,
}

/// One block's sweep, planned: candidate points, the SoA event arena
/// (incremental strategy only), and the ascending-`t1` chunk spans.
/// Chunks are independent units of work whose maxima merge back in span
/// order — the session's dirty-block re-sweep and the full fan-out both
/// execute these plans through [`BlockPlan::sweep_chunk`].
pub(crate) struct BlockPlan<'a> {
    tasks: &'a [TaskId],
    points: Vec<Time>,
    arena: Option<BlockArena>,
    chunks: Vec<Range<usize>>,
}

/// Plans one block's chunked sweep: computes the candidate grid, splits
/// the `t1` range off the worker pool (`chunk_columns` forces a size,
/// `0` auto-sizes; see [`chunk_spans`]), and — for the incremental
/// strategy — builds the block's event arena.
///
/// # Errors
///
/// [`AnalysisError::Infeasible`] if a swept task's window cannot contain
/// its computation (incremental strategy only; the naive oracle stays
/// defined either way).
pub(crate) fn plan_block<'a>(
    graph: &TaskGraph,
    timing: &TimingAnalysis,
    tasks: &'a [TaskId],
    policy: CandidatePolicy,
    strategy: SweepStrategy,
    threads: usize,
    chunk_columns: usize,
) -> Result<BlockPlan<'a>, AnalysisError> {
    let arena = match strategy {
        SweepStrategy::Naive => None,
        SweepStrategy::Incremental => Some(BlockArena::build(graph, timing, tasks)?),
    };
    let points = candidate_points(graph, timing, tasks, policy);
    let t1_count = points.len().saturating_sub(1);
    Ok(BlockPlan {
        tasks,
        chunks: chunk_spans(t1_count, threads, chunk_columns),
        points,
        arena,
    })
}

impl BlockPlan<'_> {
    /// Number of chunk jobs this plan fans out.
    pub(crate) fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// Sweeps chunk `ci` into `max`, polling `ctl` once per `t1` column
    /// (the interruption checkpoint — a column is the unit of work
    /// between checks, so cancellation latency is one column, not one
    /// whole chunk). The event buffer is allocated once per chunk and
    /// reused across its columns; the merge itself never allocates.
    pub(crate) fn sweep_chunk(
        &self,
        graph: &TaskGraph,
        timing: &TimingAnalysis,
        ci: usize,
        max: &mut RatioMax,
        ctl: &CancelToken,
    ) -> Result<ChunkCounters, AnalysisError> {
        let mut counters = ChunkCounters::default();
        let mut events: Vec<(i64, i64)> = Vec::with_capacity(match &self.arena {
            Some(_) => self.tasks.len() * 2 + 1,
            None => 0,
        });
        for li in self.chunks[ci].clone() {
            ctl.check()?;
            match &self.arena {
                None => naive_t1_sweep(graph, timing, self.tasks, &self.points, li, max),
                Some(arena) => {
                    counters.raw_events += arena.emit_column(self.points[li].ticks(), &mut events);
                    counters.merged_events += events.len() as u64;
                    accumulate_column(&self.points, li, &events, max);
                }
            }
        }
        Ok(counters)
    }
}

/// Sweeps one partition block into `max` with the chosen strategy,
/// serially, returning the number of raw slope events processed (zero
/// for the naive strategy).
pub(crate) fn sweep_block_into(
    graph: &TaskGraph,
    timing: &TimingAnalysis,
    block: &PartitionBlock,
    policy: CandidatePolicy,
    strategy: SweepStrategy,
    max: &mut RatioMax,
    ctl: &CancelToken,
) -> Result<u64, AnalysisError> {
    let plan = plan_block(graph, timing, &block.tasks, policy, strategy, 1, 0)?;
    let mut raw = 0u64;
    for ci in 0..plan.chunk_count() {
        raw += plan.sweep_chunk(graph, timing, ci, max, ctl)?.raw_events;
    }
    Ok(raw)
}

/// Sweeps every block of one partition sequentially (Theorem 5), with the
/// chosen strategy.
pub(crate) fn sweep_partition_into(
    graph: &TaskGraph,
    timing: &TimingAnalysis,
    partition: &ResourcePartition,
    policy: CandidatePolicy,
    strategy: SweepStrategy,
    max: &mut RatioMax,
    ctl: &CancelToken,
) -> Result<(), AnalysisError> {
    for block in &partition.blocks {
        sweep_block_into(graph, timing, block, policy, strategy, max, ctl)?;
    }
    Ok(())
}

/// Computes `LB_r` for every partition, fanning the per-block sweeps out
/// across `parallelism` threads (`0` = all available cores, `1` =
/// serial). Blocks are split into contiguous chunks of `chunk_columns`
/// candidate-`t1` columns (`0` sizes chunks off the worker pool) for load
/// balance. Results are bit-identical to the serial sweep for any thread
/// count and chunk size: chunk maxima are merged in deterministic
/// ascending-`t1` order with the same first-wins tie-break the serial
/// scan applies.
///
/// Reports into `probe`: an `analyze.sweep` span around the whole step, a
/// `sweep.worker` span per worker thread, a `sweep.chunk` span (labeled
/// with the partition index) per chunk job, and the `sweep.blocks` /
/// `sweep.jobs` / `sweep.chunks` / `sweep.pairs_offered` /
/// `sweep.events_processed` / `sweep.chunk_events` counters.
/// Instrumentation is observational only — bounds, witnesses, and
/// tie-breaks are bit-identical to the unprobed sweep (enforced by
/// `tests/sweep_equivalence.rs`).
///
/// Polls `ctl` once per `t1` column in every worker. Workers that observe
/// a tripped token stop at their next column boundary; the first error in
/// job order is returned and all partial maxima are discarded.
///
/// # Errors
///
/// [`AnalysisError::BoundOverflow`] if some bound's ceiling exceeds
/// `u32::MAX` (unreachable on feasible timing), or
/// [`AnalysisError::Deadline`] when `ctl` trips.
#[allow(clippy::too_many_arguments)]
pub fn sweep_partitions_ctl(
    graph: &TaskGraph,
    timing: &TimingAnalysis,
    partitions: &[ResourcePartition],
    policy: CandidatePolicy,
    strategy: SweepStrategy,
    parallelism: usize,
    chunk_columns: usize,
    probe: &dyn Probe,
    ctl: &CancelToken,
) -> Result<Vec<ResourceBound>, AnalysisError> {
    let _sweep = span(probe, "analyze.sweep", Label::None);
    let threads = effective_threads(parallelism);

    // Plan every block up front — candidate points, event arena, chunk
    // split — in (partition, block) order, so a planning error (an
    // infeasible window) surfaces in the order the serial sweep would
    // have hit it.
    let mut plans: Vec<(usize, BlockPlan)> = Vec::new();
    for (pi, partition) in partitions.iter().enumerate() {
        for block in &partition.blocks {
            let plan = plan_block(
                graph,
                timing,
                &block.tasks,
                policy,
                strategy,
                threads,
                chunk_columns,
            )?;
            plans.push((pi, plan));
        }
    }

    // One job per contiguous t1 chunk, in (partition, block, chunk) order.
    let jobs: Vec<(usize, usize)> = plans
        .iter()
        .enumerate()
        .flat_map(|(bi, (_, plan))| (0..plan.chunk_count()).map(move |ci| (bi, ci)))
        .collect();

    probe.add("sweep.blocks", plans.len() as u64);
    probe.add("sweep.jobs", jobs.len() as u64);
    probe.add("sweep.chunks", jobs.len() as u64);

    let chunk_maxima = run_jobs(probe, threads, jobs.len(), |j| {
        let (bi, ci) = jobs[j];
        let (pi, plan) = &plans[bi];
        let _chunk = span(probe, "sweep.chunk", Label::Index(*pi as u64));
        let mut max = RatioMax::default();
        let counters = plan.sweep_chunk(graph, timing, ci, &mut max, ctl)?;
        probe.add("sweep.pairs_offered", max.intervals());
        probe.add("sweep.events_processed", counters.raw_events);
        probe.add("sweep.chunk_events", counters.merged_events);
        probe.observe("sweep.events_per_chunk", counters.merged_events);
        Ok(max)
    });

    // Fold chunk maxima back per partition, preserving job order so ties
    // resolve exactly as in the serial sweep. The first error in job
    // order wins, matching what the serial sweep would have hit first.
    let mut folded = vec![RatioMax::default(); partitions.len()];
    for ((bi, _), max) in jobs.iter().zip(chunk_maxima) {
        folded[plans[*bi].0].merge(max?);
    }
    folded
        .into_iter()
        .zip(partitions)
        .map(|(max, partition)| max.into_bound(partition.resource))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estlct::{compute_timing, TaskWindow};
    use crate::model::SystemModel;
    use crate::overlap::overlap;
    use crate::partition::partition_all;
    use rtlb_graph::{Catalog, ExecutionMode, ResourceId, TaskGraphBuilder, TaskSpec};
    use rtlb_obs::NULL_PROBE;

    /// [`sweep_partitions_ctl`] with automatic chunking and a token that
    /// never trips.
    fn sweep(
        g: &TaskGraph,
        timing: &TimingAnalysis,
        partitions: &[ResourcePartition],
        policy: CandidatePolicy,
        strategy: SweepStrategy,
        threads: usize,
        probe: &dyn Probe,
    ) -> Vec<ResourceBound> {
        sweep_partitions_ctl(
            g,
            timing,
            partitions,
            policy,
            strategy,
            threads,
            0,
            probe,
            &CancelToken::none(),
        )
        .unwrap()
    }

    /// The ramp decomposition must equal Equation 6.1/6.2 pointwise on
    /// every feasible small window, both modes, all t1 < t2.
    #[test]
    fn ramp_matches_overlap_exhaustively() {
        for e in 0..6 {
            for l in (e + 1)..10 {
                for c in 1..=(l - e) {
                    let window = TaskWindow {
                        est: Time::new(e),
                        lct: Time::new(l),
                    };
                    for mode in [ExecutionMode::NonPreemptive, ExecutionMode::Preemptive] {
                        for t1 in -2..12 {
                            let ramp = psi_ramp(window, Dur::new(c), mode, Time::new(t1));
                            for t2 in (t1 + 1)..14 {
                                let expect = overlap(
                                    window,
                                    Dur::new(c),
                                    mode,
                                    Time::new(t1),
                                    Time::new(t2),
                                )
                                .ticks();
                                let got = ramp.map_or(0, |r| (t2 - r.start).clamp(0, r.height));
                                assert_eq!(
                                    got, expect,
                                    "window [{e},{l}] C={c} {mode:?} interval [{t1},{t2}]"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// Builds a one-task graph with the given window and mode, returning
    /// everything needed to construct its arena.
    fn single_task(e: i64, l: i64, c: i64, mode: ExecutionMode) -> (rtlb_graph::TaskGraph, TaskId) {
        let mut cat = Catalog::new();
        let p = cat.processor("P");
        let mut b = TaskGraphBuilder::new(cat);
        let mut spec = TaskSpec::new("t", Dur::new(c), p)
            .release(Time::new(e))
            .deadline(Time::new(l));
        if mode == ExecutionMode::Preemptive {
            spec = spec.preemptive();
        }
        let t = b.add_task(spec).unwrap();
        (b.build().unwrap(), t)
    }

    /// The arena's merged per-column event stream must reproduce the
    /// psi_ramp event multiset — position-sorted, delta-coalesced — on
    /// every feasible small window, both modes, every t1. This is the
    /// differential pin that lets the sort-free merge replace the
    /// per-column sort.
    #[test]
    fn arena_streams_match_ramp_decomposition() {
        for e in 0..6 {
            for l in (e + 1)..10 {
                for c in 1..=(l - e) {
                    for mode in [ExecutionMode::NonPreemptive, ExecutionMode::Preemptive] {
                        let (g, t) = single_task(e, l, c, mode);
                        let timing = compute_timing(&g, &SystemModel::shared());
                        // Pin the synthetic window (precedence-free, so
                        // EST = release, LCT = deadline).
                        assert_eq!(timing.window(t).est.ticks(), e);
                        assert_eq!(timing.window(t).lct.ticks(), l);
                        let arena = BlockArena::build(&g, &timing, &[t]).unwrap();
                        let mut events = Vec::new();
                        for t1 in -2..12 {
                            let raw = arena.emit_column(t1, &mut events);
                            let window = TaskWindow {
                                est: Time::new(e),
                                lct: Time::new(l),
                            };
                            let expect: Vec<(i64, i64)> =
                                match psi_ramp(window, Dur::new(c), mode, Time::new(t1)) {
                                    None => Vec::new(),
                                    Some(r) if r.height == 0 => Vec::new(),
                                    Some(r) => {
                                        vec![(r.start, 1), (r.start + r.height, -1)]
                                    }
                                };
                            assert_eq!(
                                raw,
                                expect.len() as u64,
                                "[{e},{l}] C={c} {mode:?} t1={t1}"
                            );
                            assert_eq!(events, expect, "window [{e},{l}] C={c} {mode:?} t1={t1}");
                        }
                    }
                }
            }
        }
    }

    /// Mixed-mode fixture with several partition blocks.
    fn fixture() -> (rtlb_graph::TaskGraph, ResourceId) {
        let mut c = Catalog::new();
        let p = c.processor("P");
        let mut b = TaskGraphBuilder::new(c);
        let windows = [
            (0, 4, 3, false),
            (1, 5, 2, true),
            (2, 9, 4, false),
            (8, 12, 4, false),
            (9, 14, 3, true),
            (20, 22, 2, false),
            (19, 26, 5, true),
        ];
        for (i, &(rel, d, comp, pre)) in windows.iter().enumerate() {
            let mut spec = TaskSpec::new(format!("t{i}"), Dur::new(comp), p)
                .release(Time::new(rel))
                .deadline(Time::new(d));
            if pre {
                spec = spec.preemptive();
            }
            b.add_task(spec).unwrap();
        }
        (b.build().unwrap(), p)
    }

    #[test]
    fn incremental_matches_naive_including_witness_and_count() {
        let (g, _) = fixture();
        let timing = compute_timing(&g, &SystemModel::shared());
        let partitions = partition_all(&g, &timing);
        for policy in [CandidatePolicy::EstLct, CandidatePolicy::Extended] {
            let naive = sweep(
                &g,
                &timing,
                &partitions,
                policy,
                SweepStrategy::Naive,
                1,
                &NULL_PROBE,
            );
            let inc = sweep(
                &g,
                &timing,
                &partitions,
                policy,
                SweepStrategy::Incremental,
                1,
                &NULL_PROBE,
            );
            assert_eq!(naive, inc, "policy {policy:?}");
        }
    }

    #[test]
    fn parallel_is_bit_identical_to_serial() {
        let (g, _) = fixture();
        let timing = compute_timing(&g, &SystemModel::shared());
        let partitions = partition_all(&g, &timing);
        let serial = sweep(
            &g,
            &timing,
            &partitions,
            CandidatePolicy::Extended,
            SweepStrategy::Incremental,
            1,
            &NULL_PROBE,
        );
        for threads in [0, 2, 3, 8] {
            let par = sweep(
                &g,
                &timing,
                &partitions,
                CandidatePolicy::Extended,
                SweepStrategy::Incremental,
                threads,
                &NULL_PROBE,
            );
            assert_eq!(serial, par, "threads = {threads}");
        }
    }

    /// Forcing explicit chunk sizes — including size 1, one job per t1
    /// column — must leave every bound, witness, and interval count
    /// bit-identical, serial and parallel alike, for both strategies.
    #[test]
    fn explicit_chunk_sizes_are_bit_identical() {
        let (g, _) = fixture();
        let timing = compute_timing(&g, &SystemModel::shared());
        let partitions = partition_all(&g, &timing);
        for strategy in [SweepStrategy::Incremental, SweepStrategy::Naive] {
            let serial = sweep_partitions_ctl(
                &g,
                &timing,
                &partitions,
                CandidatePolicy::Extended,
                strategy,
                1,
                0,
                &NULL_PROBE,
                &CancelToken::none(),
            )
            .unwrap();
            for chunk_columns in [1, 2, 3, 7] {
                for threads in [1, 2, 8] {
                    let chunked = sweep_partitions_ctl(
                        &g,
                        &timing,
                        &partitions,
                        CandidatePolicy::Extended,
                        strategy,
                        threads,
                        chunk_columns,
                        &NULL_PROBE,
                        &CancelToken::none(),
                    )
                    .unwrap();
                    assert_eq!(
                        serial, chunked,
                        "{strategy:?} chunk={chunk_columns} threads={threads}"
                    );
                }
            }
        }
    }

    /// An attached recorder observes the sweep without perturbing it, and
    /// both strategies offer the same number of candidate pairs.
    #[test]
    fn recorder_observes_without_perturbing() {
        use rtlb_obs::Recorder;
        let (g, _) = fixture();
        let timing = compute_timing(&g, &SystemModel::shared());
        let partitions = partition_all(&g, &timing);
        let plain = sweep(
            &g,
            &timing,
            &partitions,
            CandidatePolicy::EstLct,
            SweepStrategy::Incremental,
            1,
            &NULL_PROBE,
        );

        let mut pairs = Vec::new();
        for strategy in [SweepStrategy::Incremental, SweepStrategy::Naive] {
            let recorder = Recorder::new();
            let probed = sweep(
                &g,
                &timing,
                &partitions,
                CandidatePolicy::EstLct,
                strategy,
                1,
                &recorder,
            );
            assert_eq!(plain, probed, "{strategy:?} must be bit-identical");
            let metrics = recorder.take_metrics();
            let offered: u64 = plain.iter().map(|b| b.intervals_examined).sum();
            assert_eq!(metrics.counter("sweep.pairs_offered"), offered);
            assert_eq!(metrics.span_count("analyze.sweep"), 1);
            assert_eq!(metrics.span_count("sweep.worker"), 1);
            assert!(metrics.span_count("sweep.chunk") >= 1);
            assert_eq!(
                metrics.counter("sweep.chunks"),
                metrics.span_count("sweep.chunk")
            );
            pairs.push(metrics.counter("sweep.pairs_offered"));
            if strategy == SweepStrategy::Incremental {
                assert!(metrics.counter("sweep.events_processed") > 0);
                // Coalescing can only shrink the merged stream.
                assert!(
                    metrics.counter("sweep.chunk_events")
                        <= metrics.counter("sweep.events_processed")
                );
            } else {
                assert_eq!(metrics.counter("sweep.events_processed"), 0);
                assert_eq!(metrics.counter("sweep.chunk_events"), 0);
            }
        }
        assert_eq!(pairs[0], pairs[1], "strategies offer identical pairs");
    }

    /// With a parallel fan-out, the recorder sees one worker span per
    /// thread and the same final bounds.
    #[test]
    fn parallel_recorder_sees_worker_spans() {
        use rtlb_obs::Recorder;
        let (g, _) = fixture();
        let timing = compute_timing(&g, &SystemModel::shared());
        let partitions = partition_all(&g, &timing);
        let serial = sweep(
            &g,
            &timing,
            &partitions,
            CandidatePolicy::Extended,
            SweepStrategy::Incremental,
            1,
            &NULL_PROBE,
        );
        let recorder = Recorder::new();
        let par = sweep(
            &g,
            &timing,
            &partitions,
            CandidatePolicy::Extended,
            SweepStrategy::Incremental,
            3,
            &recorder,
        );
        assert_eq!(serial, par);
        let metrics = recorder.take_metrics();
        let workers = metrics.span_count("sweep.worker");
        assert!(
            (1..=3).contains(&workers),
            "worker spans = min(threads, jobs), got {workers}"
        );
        assert_eq!(
            metrics.counter("sweep.jobs"),
            metrics.span_count("sweep.chunk")
        );
    }

    /// A tripped token surfaces as `Deadline` from the very first column,
    /// serial and parallel alike — no partial bounds escape.
    #[test]
    fn tripped_token_stops_the_sweep() {
        let (g, _) = fixture();
        let timing = compute_timing(&g, &SystemModel::shared());
        let partitions = partition_all(&g, &timing);
        let ctl = CancelToken::new();
        ctl.cancel();
        for threads in [1, 3] {
            let err = sweep_partitions_ctl(
                &g,
                &timing,
                &partitions,
                CandidatePolicy::EstLct,
                SweepStrategy::Incremental,
                threads,
                0,
                &NULL_PROBE,
                &ctl,
            )
            .unwrap_err();
            assert_eq!(err, AnalysisError::Deadline);
        }
    }
}
