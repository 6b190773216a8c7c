//! Differential tests of the incremental Θ-sweep against its oracles.
//!
//! The incremental event-based sweep must be **bit-identical** to the
//! naive per-pair recomputation it replaced — same bound, same witness
//! interval, same `intervals_examined` — on every generated workload,
//! under both candidate-point policies, at every thread count. A second,
//! structurally different oracle is the unpartitioned flat sweep, which
//! must agree on the bound value by Theorem 5.

use proptest::prelude::*;

use rtlb::core::{
    analyze_ctl, compute_timing, effective_threads, partition_all, sweep_partitions_ctl, theta,
    AnalysisOptions, CancelToken, CandidatePolicy, ResourceBound, SweepStrategy, SystemModel,
};
use rtlb::graph::{Catalog, Dur, TaskGraph, TaskGraphBuilder, TaskSpec, Time};
use rtlb::obs::{MetricsRegistry, Recorder, NULL_PROBE};
use rtlb::workloads::{chain, fork_join, independent_tasks, layered, LayeredConfig};

const POLICIES: [CandidatePolicy; 2] = [CandidatePolicy::EstLct, CandidatePolicy::Extended];

/// Runs the full pipeline with the given knobs, skipping infeasible
/// instances (the generators aim for feasibility but the property layer
/// must not depend on it).
fn bounds_with(
    graph: &TaskGraph,
    policy: CandidatePolicy,
    sweep: SweepStrategy,
    parallelism: usize,
    partitioning: bool,
) -> Option<Vec<ResourceBound>> {
    analyze_ctl(
        graph,
        &SystemModel::shared(),
        AnalysisOptions {
            partitioning,
            candidates: policy,
            sweep,
            parallelism,
            chunk_columns: 0,
            ..AnalysisOptions::default()
        },
        &NULL_PROBE,
        &CancelToken::none(),
    )
    .ok()
    .map(|a| a.bounds().to_vec())
}

/// [`bounds_with`] at a forced intra-block chunk size, the knob the
/// chunked-sweep differential tests exercise.
fn bounds_chunked(
    graph: &TaskGraph,
    policy: CandidatePolicy,
    sweep: SweepStrategy,
    parallelism: usize,
    chunk_columns: usize,
) -> Option<Vec<ResourceBound>> {
    analyze_ctl(
        graph,
        &SystemModel::shared(),
        AnalysisOptions {
            partitioning: true,
            candidates: policy,
            sweep,
            parallelism,
            chunk_columns,
            ..AnalysisOptions::default()
        },
        &NULL_PROBE,
        &CancelToken::none(),
    )
    .ok()
    .map(|a| a.bounds().to_vec())
}

/// The chunk sizes the differential layer forces: degenerate single
/// columns, small odd sizes that misalign with block boundaries, and the
/// machine's core count.
fn chunk_sizes() -> Vec<usize> {
    vec![1, 2, 3, 7, effective_threads(0)]
}

/// Asserts that every forced chunk size, at serial and parallel thread
/// counts, reproduces the serial incremental sweep and the naive oracle
/// bit for bit on `graph`.
fn assert_chunked_equivalence(
    graph: &TaskGraph,
    policy: CandidatePolicy,
) -> Result<(), TestCaseError> {
    let naive = bounds_with(graph, policy, SweepStrategy::Naive, 1, true);
    prop_assume!(naive.is_some());
    let naive = naive.unwrap();
    let serial = bounds_with(graph, policy, SweepStrategy::Incremental, 1, true).unwrap();
    prop_assert_eq!(&naive, &serial);
    for chunk in chunk_sizes() {
        for threads in [1usize, 2, 0] {
            let chunked =
                bounds_chunked(graph, policy, SweepStrategy::Incremental, threads, chunk).unwrap();
            prop_assert_eq!(
                &serial,
                &chunked,
                "incremental chunk={} threads={}",
                chunk,
                threads
            );
            let naive_chunked =
                bounds_chunked(graph, policy, SweepStrategy::Naive, threads, chunk).unwrap();
            prop_assert_eq!(
                &naive,
                &naive_chunked,
                "naive chunk={} threads={}",
                chunk,
                threads
            );
        }
    }
    Ok(())
}

/// Asserts the three-way equivalence for one graph: incremental ==
/// naive bit-for-bit, and both == the unpartitioned oracle on bound
/// values, under both candidate policies.
fn assert_equivalence(graph: &TaskGraph) -> Result<(), TestCaseError> {
    for policy in POLICIES {
        let naive = bounds_with(graph, policy, SweepStrategy::Naive, 1, true);
        let incremental = bounds_with(graph, policy, SweepStrategy::Incremental, 1, true);
        prop_assume!(naive.is_some());
        let (naive, incremental) = (naive.unwrap(), incremental.unwrap());
        prop_assert_eq!(&naive, &incremental);

        let flat = bounds_with(graph, policy, SweepStrategy::Naive, 1, false).unwrap();
        prop_assert_eq!(naive.len(), flat.len());
        for (part, whole) in naive.iter().zip(&flat) {
            prop_assert_eq!(part.resource, whole.resource);
            // Theorem 5: same bound, never more intervals examined.
            prop_assert_eq!(part.bound, whole.bound);
            prop_assert!(part.intervals_examined <= whole.intervals_examined);
        }
    }
    Ok(())
}

/// Every witness reported by the incremental sweep must attain its
/// claimed demand when Θ is recomputed from Equations 6.1/6.2, and the
/// bound must be exactly ⌈demand / length⌉.
fn assert_witnesses(graph: &TaskGraph) -> Result<(), TestCaseError> {
    let model = SystemModel::shared();
    let timing = compute_timing(graph, &model);
    let partitions = partition_all(graph, &timing);
    for policy in POLICIES {
        let bounds = sweep_partitions_ctl(
            graph,
            &timing,
            &partitions,
            policy,
            SweepStrategy::Incremental,
            1,
            0,
            &NULL_PROBE,
            &CancelToken::none(),
        )
        .unwrap();
        for b in &bounds {
            let Some(w) = b.witness else { continue };
            let tasks = graph.tasks_demanding(b.resource);
            let recomputed = theta(graph, &timing, &tasks, w.t1, w.t2);
            prop_assert_eq!(recomputed, w.demand);
            let len = w.t2.diff(w.t1);
            prop_assert!(len > 0);
            let expect =
                w.demand.ticks().div_euclid(len) + i64::from(w.demand.ticks().rem_euclid(len) != 0);
            prop_assert_eq!(i64::from(b.bound), expect);
        }
    }
    Ok(())
}

proptest! {
    /// Layered DAGs: precedence-shrunk windows, multiple processor and
    /// resource types, mixed preemption.
    #[test]
    fn equivalence_on_layered(
        seed in 0u64..1_000_000,
        layers in 2usize..5,
        width in 1usize..6,
        preemptive_pct in 0u32..=100,
    ) {
        let config = LayeredConfig {
            layers,
            width,
            preemptive_pct,
            resource_types: 2,
            ..LayeredConfig::default()
        };
        let graph = layered(&config, seed);
        assert_equivalence(&graph)?;
        assert_witnesses(&graph)?;
    }

    /// Independent tasks: many partition blocks, tight windows — the
    /// partitioner and sweep stress case.
    #[test]
    fn equivalence_on_independent(
        seed in 0u64..1_000_000,
        count in 1usize..60,
        load in 1u32..8,
    ) {
        let graph = independent_tasks(count, load, seed);
        assert_equivalence(&graph)?;
        assert_witnesses(&graph)?;
    }

    /// Fork–join and chain shapes: heavy precedence, single block.
    #[test]
    fn equivalence_on_structured(
        seed in 0u64..1_000_000,
        width in 1usize..5,
        depth in 1usize..5,
        message in 0i64..4,
    ) {
        assert_equivalence(&fork_join(width, depth, message, seed))?;
        assert_equivalence(&chain(width * depth + 1, message, seed))?;
    }

    /// Intra-block chunking must be invisible: every forced chunk size
    /// (1, 2, 3, 7, num_cpus), serial or parallel, reproduces the serial
    /// incremental path and the naive oracle bit for bit — bounds,
    /// witnesses, and interval counts. Chunk boundaries land mid-block
    /// for almost every draw, so a tie-ordering bug in the ascending-t1
    /// merge cannot hide.
    #[test]
    fn chunked_sweep_matches_serial_and_naive(
        seed in 0u64..1_000_000,
        count in 1usize..40,
        load in 1u32..8,
    ) {
        let graph = independent_tasks(count, load, seed);
        assert_chunked_equivalence(&graph, CandidatePolicy::Extended)?;
    }

    /// Chunking on precedence-heavy single-block shapes, where one block
    /// owns the whole candidate grid and every chunk boundary splits it.
    #[test]
    fn chunked_sweep_on_structured(
        seed in 0u64..1_000_000,
        width in 1usize..4,
        depth in 1usize..4,
        message in 0i64..4,
    ) {
        assert_chunked_equivalence(&fork_join(width, depth, message, seed), CandidatePolicy::EstLct)?;
        assert_chunked_equivalence(&chain(width * depth + 1, message, seed), CandidatePolicy::Extended)?;
    }

    /// The parallel fan-out must reproduce the serial sweep bit-for-bit
    /// at every thread count, including 0 (= all cores).
    #[test]
    fn parallel_is_bit_identical(
        seed in 0u64..1_000_000,
        count in 2usize..50,
        threads in 0usize..9,
    ) {
        let graph = independent_tasks(count, 4, seed);
        let serial = bounds_with(
            &graph, CandidatePolicy::Extended, SweepStrategy::Incremental, 1, true);
        prop_assume!(serial.is_some());
        let parallel = bounds_with(
            &graph, CandidatePolicy::Extended, SweepStrategy::Incremental, threads, true);
        prop_assert_eq!(serial, parallel);
    }

    /// Attaching a [`Recorder`] or a [`MetricsRegistry`] must not
    /// perturb any computed result: bounds, witnesses, and partition
    /// blocks are bit-identical to the default null-probe run, at any
    /// thread count. And since the probes only observe, the naive and
    /// incremental strategies must report the same `sweep.pairs_offered`
    /// count (they examine the same candidate pairs by construction),
    /// and both sinks must agree on it.
    #[test]
    fn recorder_attached_run_is_bit_identical(
        seed in 0u64..1_000_000,
        count in 2usize..40,
        load in 1u32..6,
        threads in 0usize..5,
    ) {
        let graph = independent_tasks(count, load, seed);
        let options = |sweep| AnalysisOptions {
            sweep,
            parallelism: threads,
            ..AnalysisOptions::default()
        };
        let model = SystemModel::shared();

        let none = CancelToken::none();
        let plain =
            analyze_ctl(&graph, &model, options(SweepStrategy::Incremental), &NULL_PROBE, &none)
                .ok();
        prop_assume!(plain.is_some());
        let plain = plain.unwrap();

        let mut pairs_offered = Vec::new();
        for sweep in [SweepStrategy::Incremental, SweepStrategy::Naive] {
            let recorder = Recorder::new();
            let probed = analyze_ctl(&graph, &model, options(sweep), &recorder, &none).unwrap();
            if sweep == SweepStrategy::Incremental {
                prop_assert_eq!(plain.bounds(), probed.bounds());
                prop_assert_eq!(plain.partitions(), probed.partitions());
            }
            let metrics = recorder.take_metrics();
            let offered: u64 = probed.bounds().iter().map(|b| b.intervals_examined).sum();
            prop_assert_eq!(metrics.counter("sweep.pairs_offered"), offered);
            pairs_offered.push(offered);
        }
        prop_assert_eq!(
            pairs_offered[0], pairs_offered[1],
            "strategies must offer the same candidate pairs"
        );

        // The sharded registry is the second probe implementation; it
        // must be just as invisible, and its merged snapshot must agree
        // with the recorder on the offered-pair count.
        let registry = MetricsRegistry::new();
        let probed =
            analyze_ctl(&graph, &model, options(SweepStrategy::Incremental), &registry, &none)
                .unwrap();
        prop_assert_eq!(plain.bounds(), probed.bounds());
        prop_assert_eq!(plain.partitions(), probed.partitions());
        let snapshot = registry.snapshot();
        prop_assert_eq!(snapshot.counter("sweep.pairs_offered"), pairs_offered[0]);
    }
}

/// Builds a graph of identical or hand-picked windows on one processor;
/// `windows` is `(release, deadline, computation, preemptive)`.
fn graph_of(windows: &[(i64, i64, i64, bool)]) -> TaskGraph {
    let mut catalog = Catalog::new();
    let p = catalog.processor("P");
    let mut b = TaskGraphBuilder::new(catalog);
    for (i, &(rel, d, comp, pre)) in windows.iter().enumerate() {
        let mut spec = TaskSpec::new(format!("t{i}"), Dur::new(comp), p)
            .release(Time::new(rel))
            .deadline(Time::new(d));
        if pre {
            spec = spec.preemptive();
        }
        b.add_task(spec).unwrap();
    }
    b.build().unwrap()
}

/// Degenerate blocks are where chunk boundaries are most likely to break
/// tie-ordering: a single-task block (one candidate column), blocks whose
/// tasks share one identical window (every candidate `t1` equal, the
/// whole grid collapses to two points), and columns whose event set is
/// empty (a slack-heavy window under the extended grid dodges late `t1`
/// columns entirely). Each must stay bit-identical at every chunk size.
#[test]
fn chunked_sweep_on_degenerate_blocks() {
    let degenerates: Vec<(&str, TaskGraph)> = vec![
        ("single task", graph_of(&[(0, 9, 4, false)])),
        ("single preemptive task", graph_of(&[(2, 11, 3, true)])),
        ("all-identical windows", graph_of(&[(0, 6, 2, false); 5])),
        (
            "all-identical preemptive windows",
            graph_of(&[(1, 8, 3, true); 4]),
        ),
        (
            // t1 = 8 (= L − C) has no alive ramp under Extended: the
            // merged event stream is empty while t2 columns remain.
            "empty event sets",
            graph_of(&[(0, 10, 2, false), (0, 10, 2, true)]),
        ),
        (
            "mixed tight and slack",
            graph_of(&[(0, 3, 3, false), (0, 12, 2, false), (4, 7, 3, true)]),
        ),
    ];
    for (name, graph) in &degenerates {
        for policy in POLICIES {
            let naive = bounds_with(graph, policy, SweepStrategy::Naive, 1, true).unwrap();
            let serial = bounds_with(graph, policy, SweepStrategy::Incremental, 1, true).unwrap();
            assert_eq!(naive, serial, "{name} {policy:?} serial");
            for chunk in chunk_sizes() {
                for threads in [1usize, 2, 0] {
                    let chunked =
                        bounds_chunked(graph, policy, SweepStrategy::Incremental, threads, chunk)
                            .unwrap();
                    assert_eq!(
                        serial, chunked,
                        "{name} {policy:?} chunk={chunk} threads={threads}"
                    );
                }
            }
        }
    }
}

/// The two golden instances, pinned outside the property layer so a
/// regression names the exact file.
#[test]
fn equivalence_on_golden_instances() {
    for name in ["paper_fig7", "sensor_fusion"] {
        let path = format!("examples/instances/{name}.rtlb");
        let text = std::fs::read_to_string(&path).unwrap();
        let parsed = rtlb::format::parse(&text).unwrap();
        for policy in POLICIES {
            let naive = bounds_with(&parsed.graph, policy, SweepStrategy::Naive, 1, true);
            let incremental =
                bounds_with(&parsed.graph, policy, SweepStrategy::Incremental, 1, true);
            assert_eq!(naive, incremental, "{name} {policy:?}");
            assert!(naive.is_some(), "{name} must analyze");
        }
    }
}
