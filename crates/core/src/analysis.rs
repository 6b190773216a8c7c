//! The end-to-end analysis pipeline (Section 3's four steps).

use rtlb_obs::{span, Label, Probe, NULL_PROBE};
use serde::{Deserialize, Serialize};

use rtlb_graph::{ResourceId, TaskGraph};

use crate::bounds::{resource_bound_unpartitioned_ctl, CandidatePolicy, ResourceBound};
use crate::cancel::CancelToken;
use crate::cost::{dedicated_cost_bound, shared_cost_bound, DedicatedCostBound, SharedCostBound};
use crate::error::AnalysisError;
use crate::estlct::{compute_timing_ctl, TimingAnalysis};
use crate::model::SystemModel;
use crate::partition::{partition_all, ResourcePartition};
use crate::propagate::{refine_bounds, PropagationLevel};
use crate::sweep::{sweep_partitions_ctl, SweepStrategy};

/// Tuning knobs for [`analyze_ctl`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AnalysisOptions {
    /// Apply the Figure 4 partitioning before the interval sweep
    /// (Theorem 5). Disabling it produces the same bounds from a single
    /// flat sweep per resource; exposed for the ablation study.
    pub partitioning: bool,
    /// Which interval endpoints the Equation 6.3 sweep samples; the
    /// default is the paper's EST/LCT grid, [`CandidatePolicy::Extended`]
    /// adds the forced-overlap corners and can only tighten the bound.
    pub candidates: CandidatePolicy,
    /// How the Equation 6.3 sweep evaluates `Θ`: the incremental
    /// event-based scan (default) or the naive per-pair recomputation
    /// kept as the testing oracle. Both give bit-identical results.
    /// Ignored when `partitioning` is off (the flat ablation sweep is
    /// always naive).
    pub sweep: SweepStrategy,
    /// Worker threads for the partitioned sweep: `1` (default) is fully
    /// serial, `0` means one per available core. Results are identical
    /// for every value.
    pub parallelism: usize,
    /// Chunk size, in candidate-`t1` columns, for splitting one
    /// partition block's sweep across workers: `0` (default) sizes
    /// chunks off the worker pool automatically, any other value is
    /// taken literally. Results are identical for every value — chunk
    /// maxima merge in ascending-`t1` order with the serial tie-break.
    pub chunk_columns: usize,
    /// Post-sweep filtering level: the default
    /// [`PropagationLevel::Timeline`] reports the sweep's bounds as they
    /// are; [`PropagationLevel::Filtered`] additionally runs
    /// capacity-conditional detectable-precedence / edge-finding
    /// filtering after the sweep and can only raise bounds.
    pub propagation: PropagationLevel,
}

impl Default for AnalysisOptions {
    fn default() -> AnalysisOptions {
        AnalysisOptions {
            partitioning: true,
            candidates: CandidatePolicy::EstLct,
            sweep: SweepStrategy::default(),
            parallelism: 1,
            chunk_columns: 0,
            propagation: PropagationLevel::default(),
        }
    }
}

impl AnalysisOptions {
    /// The stable fingerprint of every knob that can change a computed
    /// bound, used by the result cache as part of an instance's content
    /// key.
    ///
    /// `partitioning` and `candidates` select which bound is computed,
    /// and `sweep` is included conservatively (the two strategies are
    /// bit-identical by contract, but the naive oracle path is exactly
    /// what we never want silently served from a fast-path cache entry
    /// or vice versa when debugging a divergence). `propagation` is
    /// included because `filtered` computes a genuinely different
    /// (tighter) bound. `parallelism` and
    /// `chunk_columns` are pure execution shape — results are documented
    /// and property-tested identical for every value — so they are
    /// excluded: runs at different pool sizes share cache entries.
    pub fn semantic_fingerprint(&self) -> String {
        format!(
            "partitioning={};candidates={};sweep={};propagation={}",
            self.partitioning,
            match self.candidates {
                CandidatePolicy::EstLct => "est-lct",
                CandidatePolicy::Extended => "extended",
            },
            match self.sweep {
                SweepStrategy::Naive => "naive",
                SweepStrategy::Incremental => "incremental",
            },
            self.propagation.label(),
        )
    }
}

/// Everything the lower-bound analysis derives for one application and
/// system model: task windows, per-resource partitions, and `LB_r` for
/// every demanded resource.
///
/// Cost bounds (Section 7) are computed on demand from the stored bounds
/// via [`Analysis::shared_cost`] / [`Analysis::dedicated_cost`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Analysis {
    timing: TimingAnalysis,
    partitions: Vec<ResourcePartition>,
    bounds: Vec<ResourceBound>,
}

impl Analysis {
    /// Assembles an `Analysis` from separately maintained parts — the
    /// session's snapshot path, which owns its own timing/partition/bound
    /// state and refreshes it incrementally.
    pub(crate) fn from_parts(
        timing: TimingAnalysis,
        partitions: Vec<ResourcePartition>,
        bounds: Vec<ResourceBound>,
    ) -> Analysis {
        Analysis {
            timing,
            partitions,
            bounds,
        }
    }

    /// The EST/LCT analysis (step 1).
    pub fn timing(&self) -> &TimingAnalysis {
        &self.timing
    }

    /// The per-resource partitions (step 2), in resource-id order. Empty
    /// when partitioning was disabled via [`AnalysisOptions`].
    pub fn partitions(&self) -> &[ResourcePartition] {
        &self.partitions
    }

    /// The resource lower bounds (step 3), in resource-id order.
    pub fn bounds(&self) -> &[ResourceBound] {
        &self.bounds
    }

    /// The bound for one resource, if the application demands it.
    pub fn bound_for(&self, r: ResourceId) -> Option<&ResourceBound> {
        self.bounds.iter().find(|b| b.resource == r)
    }

    /// `LB_r` as a plain number (0 for undemanded resources).
    pub fn units_required(&self, r: ResourceId) -> u32 {
        self.bound_for(r).map_or(0, |b| b.bound)
    }

    /// Step 4 for a shared model: the weighted-sum cost bound.
    ///
    /// # Errors
    ///
    /// See [`shared_cost_bound`].
    pub fn shared_cost(
        &self,
        model: &crate::model::SharedModel,
    ) -> Result<SharedCostBound, AnalysisError> {
        self.shared_cost_probed(model, &NULL_PROBE)
    }

    /// [`Analysis::shared_cost`] under a `cost.shared` span on `probe`.
    ///
    /// # Errors
    ///
    /// See [`shared_cost_bound`].
    pub fn shared_cost_probed(
        &self,
        model: &crate::model::SharedModel,
        probe: &dyn Probe,
    ) -> Result<SharedCostBound, AnalysisError> {
        let _step = span(probe, "cost.shared", Label::None);
        shared_cost_bound(model, &self.bounds)
    }

    /// Step 4 for a dedicated model: the integer-program cost bound.
    ///
    /// # Errors
    ///
    /// See [`dedicated_cost_bound`].
    pub fn dedicated_cost(
        &self,
        graph: &TaskGraph,
        model: &crate::model::DedicatedModel,
    ) -> Result<DedicatedCostBound, AnalysisError> {
        self.dedicated_cost_probed(graph, model, &NULL_PROBE)
    }

    /// [`Analysis::dedicated_cost`] under a `cost.dedicated` span on
    /// `probe`.
    ///
    /// # Errors
    ///
    /// See [`dedicated_cost_bound`].
    pub fn dedicated_cost_probed(
        &self,
        graph: &TaskGraph,
        model: &crate::model::DedicatedModel,
        probe: &dyn Probe,
    ) -> Result<DedicatedCostBound, AnalysisError> {
        let _step = span(probe, "cost.dedicated", Label::None);
        dedicated_cost_bound(graph, model, &self.bounds)
    }
}

/// Runs steps 1–3 of the analysis with default options.
///
/// # Errors
///
/// * [`AnalysisError::UnhostableTask`] if a dedicated model cannot host
///   some task.
/// * [`AnalysisError::Infeasible`] if the EST/LCT analysis proves the
///   constraints unsatisfiable (no resource count can help).
///
/// # Example
///
/// ```
/// use rtlb_core::{analyze, SystemModel};
/// use rtlb_graph::{Catalog, Dur, TaskGraphBuilder, TaskSpec, Time};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut catalog = Catalog::new();
/// let p = catalog.processor("P");
/// let mut b = TaskGraphBuilder::new(catalog);
/// for name in ["a", "b", "c"] {
///     b.add_task(TaskSpec::new(name, Dur::new(4), p).deadline(Time::new(6)))?;
/// }
/// let graph = b.build()?;
/// let analysis = analyze(&graph, &SystemModel::shared())?;
/// assert_eq!(analysis.units_required(p), 2); // 12 ticks of work in 6
/// # Ok(())
/// # }
/// ```
pub fn analyze(graph: &TaskGraph, model: &SystemModel) -> Result<Analysis, AnalysisError> {
    analyze_ctl(
        graph,
        model,
        AnalysisOptions::default(),
        &NULL_PROBE,
        &CancelToken::none(),
    )
}

/// Largest magnitude any input quantity may have for the pipeline's
/// fixed-width arithmetic to stay exact: `Time::MAX` (`i64::MAX / 4`).
///
/// With every release and deadline in `[-M, M]` and the total computation
/// plus message volume at most `M`, every intermediate the pipeline forms
/// (`emr`/`lms` boundaries, `ect`/`lst` packings, sweep ramp positions,
/// `Θ` accumulations) stays within `±3M < i64::MAX` — no add or subtract
/// can wrap, in release or debug builds.
const MAGNITUDE_LIMIT: i64 = i64::MAX / 4;

/// Rejects instances whose raw magnitudes could overflow the pipeline's
/// `i64` arithmetic. Sums are accumulated in `i128`, so the check itself
/// cannot wrap.
fn check_magnitudes(graph: &TaskGraph) -> Result<(), AnalysisError> {
    let limit = i128::from(MAGNITUDE_LIMIT);
    let mut volume: i128 = 0;
    for (t, task) in graph.tasks() {
        let release = i128::from(task.release().ticks());
        let deadline = i128::from(task.deadline().ticks());
        if release.abs() > limit || deadline.abs() > limit {
            return Err(AnalysisError::BoundOverflow {
                detail: format!(
                    "task `{}` has release {release} or deadline {deadline} beyond \
                     the representable range +/-{MAGNITUDE_LIMIT}",
                    task.name()
                ),
            });
        }
        volume += i128::from(task.computation().ticks());
        for e in graph.successors(t) {
            volume += i128::from(e.message.ticks());
        }
        if volume > limit {
            return Err(AnalysisError::BoundOverflow {
                detail: format!(
                    "total computation + message volume {volume} exceeds \
                     {MAGNITUDE_LIMIT}; windows this wide cannot be analyzed exactly"
                ),
            });
        }
    }
    Ok(())
}

/// Runs steps 1–3 with explicit options, reporting per-stage spans and
/// pipeline counters to `probe` and polling `ctl` at every pipeline
/// checkpoint: once per task in the timing passes, once per `t1` column
/// in the sweeps.
///
/// Instrumentation is purely observational: the returned [`Analysis`] is
/// bit-identical whatever probe is attached (including [`NULL_PROBE`],
/// which compiles to no-ops), and a token that never trips
/// ([`CancelToken::none`]) is invisible.
///
/// Also rejects instances whose magnitudes could overflow the `i64`
/// arithmetic (see [`AnalysisError::BoundOverflow`]) before any
/// computation starts, so the pipeline proper never panics on extreme
/// inputs even in debug builds.
///
/// # Errors
///
/// Same as [`analyze`], plus [`AnalysisError::BoundOverflow`] for
/// extreme-magnitude instances and [`AnalysisError::Deadline`] when
/// `ctl` trips.
pub fn analyze_ctl(
    graph: &TaskGraph,
    model: &SystemModel,
    options: AnalysisOptions,
    probe: &dyn Probe,
    ctl: &CancelToken,
) -> Result<Analysis, AnalysisError> {
    let _run = span(probe, "analyze", Label::None);

    {
        let _step = span(probe, "analyze.validate", Label::None);
        model.validate(graph)?;
        check_magnitudes(graph)?;
    }

    let timing = {
        let _step = span(probe, "analyze.timing", Label::None);
        compute_timing_ctl(graph, model, probe, ctl)?
    };

    {
        let _step = span(probe, "analyze.feasibility", Label::None);
        timing.check_feasible(graph)?;
    }

    let (partitions, bounds) = if options.partitioning {
        let partitions = {
            let _step = span(probe, "analyze.partition", Label::None);
            partition_all(graph, &timing)
        };
        probe.add("partition.resources", partitions.len() as u64);
        probe.add(
            "partition.blocks",
            partitions.iter().map(|p| p.blocks.len() as u64).sum(),
        );
        probe.add(
            "partition.tasks",
            partitions.iter().map(|p| p.task_count() as u64).sum(),
        );
        for p in &partitions {
            probe.observe("partition.blocks_per_resource", p.blocks.len() as u64);
        }
        let bounds = sweep_partitions_ctl(
            graph,
            &timing,
            &partitions,
            options.candidates,
            options.sweep,
            options.parallelism,
            options.chunk_columns,
            probe,
            ctl,
        )?;
        (partitions, bounds)
    } else {
        let _step = span(probe, "analyze.sweep", Label::None);
        let bounds: Vec<ResourceBound> = graph
            .resources_used()
            .into_iter()
            .map(|r| resource_bound_unpartitioned_ctl(graph, &timing, r, options.candidates, ctl))
            .collect::<Result<_, _>>()?;
        probe.add(
            "sweep.pairs_offered",
            bounds.iter().map(|b| b.intervals_examined).sum(),
        );
        (Vec::new(), bounds)
    };

    let mut bounds = bounds;
    if options.propagation.filters() {
        let _step = span(probe, "analyze.propagate", Label::None);
        refine_bounds(graph, &timing, &partitions, &mut bounds, probe, ctl)?;
    }

    Ok(Analysis {
        timing,
        partitions,
        bounds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{NodeType, SharedModel};
    use rtlb_graph::{Catalog, Dur, TaskGraphBuilder, TaskSpec, Time};

    fn three_tight_tasks() -> (TaskGraph, ResourceId) {
        let mut c = Catalog::new();
        let p = c.processor("P");
        let mut b = TaskGraphBuilder::new(c);
        for i in 0..3 {
            b.add_task(TaskSpec::new(format!("t{i}"), Dur::new(4), p).deadline(Time::new(4)))
                .unwrap();
        }
        (b.build().unwrap(), p)
    }

    #[test]
    fn pipeline_produces_bounds_and_partitions() {
        let (g, p) = three_tight_tasks();
        let a = analyze(&g, &SystemModel::shared()).unwrap();
        assert_eq!(a.units_required(p), 3);
        assert_eq!(a.partitions().len(), 1);
        assert_eq!(a.bounds().len(), 1);
        assert!(a.bound_for(p).is_some());
        assert_eq!(a.units_required(ResourceId::from_index(9)), 0);
    }

    #[test]
    fn options_toggle_partitioning_without_changing_bounds() {
        let (g, p) = three_tight_tasks();
        let with = analyze(&g, &SystemModel::shared()).unwrap();
        let without = analyze_ctl(
            &g,
            &SystemModel::shared(),
            AnalysisOptions {
                partitioning: false,
                ..AnalysisOptions::default()
            },
            &NULL_PROBE,
            &CancelToken::none(),
        )
        .unwrap();
        assert_eq!(with.units_required(p), without.units_required(p));
        assert!(without.partitions().is_empty());
    }

    /// Cache keys embed the fingerprint: these strings must not change
    /// unless the cache's canon version does.
    #[test]
    fn semantic_fingerprint_strings_are_stable() {
        assert_eq!(
            AnalysisOptions::default().semantic_fingerprint(),
            "partitioning=true;candidates=est-lct;sweep=incremental;propagation=timeline"
        );
        let toggled = AnalysisOptions {
            partitioning: false,
            candidates: CandidatePolicy::Extended,
            sweep: SweepStrategy::Naive,
            parallelism: 4,
            chunk_columns: 16,
            propagation: PropagationLevel::Filtered,
        };
        assert_eq!(
            toggled.semantic_fingerprint(),
            "partitioning=false;candidates=extended;sweep=naive;propagation=filtered"
        );
    }

    #[test]
    fn infeasible_graph_is_rejected() {
        let mut c = Catalog::new();
        let p = c.processor("P");
        let mut b = TaskGraphBuilder::new(c);
        b.add_task(TaskSpec::new("t", Dur::new(10), p).deadline(Time::new(3)))
            .unwrap();
        let g = b.build().unwrap();
        assert!(matches!(
            analyze(&g, &SystemModel::shared()),
            Err(AnalysisError::Infeasible { .. })
        ));
    }

    #[test]
    fn dedicated_model_is_validated_first() {
        let (g, _) = three_tight_tasks();
        let model = SystemModel::dedicated(vec![]);
        assert!(matches!(
            analyze(&g, &model),
            Err(AnalysisError::UnhostableTask(_))
        ));
    }

    #[test]
    fn extreme_magnitudes_error_instead_of_overflowing() {
        // Total computation volume past i64::MAX/4 trips the guard before
        // any arithmetic can wrap.
        let mut c = Catalog::new();
        let p = c.processor("P");
        let mut b = TaskGraphBuilder::new(c);
        for i in 0..3 {
            b.add_task(
                TaskSpec::new(format!("t{i}"), Dur::new(i64::MAX / 8), p)
                    .deadline(Time::new(i64::MAX / 4)),
            )
            .unwrap();
        }
        let g = b.build().unwrap();
        assert!(matches!(
            analyze(&g, &SystemModel::shared()),
            Err(AnalysisError::BoundOverflow { .. })
        ));
    }

    #[test]
    fn tripped_token_cancels_the_pipeline() {
        use rtlb_obs::NULL_PROBE;
        let (g, _) = three_tight_tasks();
        let ctl = CancelToken::new();
        ctl.cancel();
        assert!(matches!(
            analyze_ctl(
                &g,
                &SystemModel::shared(),
                AnalysisOptions::default(),
                &NULL_PROBE,
                &ctl
            ),
            Err(AnalysisError::Deadline)
        ));
    }

    /// The filtered pass lands in the profile's `propagate` row, not in
    /// `other`: one span per run, and only at the filtering level.
    #[test]
    fn filtered_profile_has_a_propagate_row() {
        use rtlb_obs::{MetricsRegistry, PhaseProfile};
        let (g, _) = three_tight_tasks();
        for (level, spans) in [
            (PropagationLevel::Filtered, 1),
            (PropagationLevel::Timeline, 0),
        ] {
            let registry = MetricsRegistry::new();
            let options = AnalysisOptions {
                propagation: level,
                ..AnalysisOptions::default()
            };
            analyze_ctl(
                &g,
                &SystemModel::shared(),
                options,
                &registry,
                &CancelToken::none(),
            )
            .unwrap();
            let profile = PhaseProfile::from_snapshot(&registry.snapshot());
            let row = profile
                .phases
                .iter()
                .find(|p| p.phase == "propagate")
                .expect("the profile has a propagate row");
            assert_eq!(row.spans, spans, "{level:?}");
        }
    }

    #[test]
    fn cost_helpers_delegate() {
        let (g, p) = three_tight_tasks();
        let a = analyze(&g, &SystemModel::shared()).unwrap();
        let shared = SharedModel::new().with_cost(p, 2);
        assert_eq!(a.shared_cost(&shared).unwrap().total, 6);
        let ded = crate::model::DedicatedModel::new(vec![NodeType::new("n", p, [], 2)]);
        assert_eq!(a.dedicated_cost(&g, &ded).unwrap().total, 6);
    }
}
