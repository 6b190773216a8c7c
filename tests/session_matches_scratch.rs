//! Differential tests of the incremental [`AnalysisSession`] against
//! from-scratch analysis.
//!
//! After every applied delta batch, the session's windows, merge
//! selections, partitions, bounds, witnesses, and interval counts must
//! be **bit-identical** to [`analyze_ctl`] re-run on the edited graph —
//! the session is an optimization, never an approximation. When an edit
//! makes the instance infeasible, both sides must report the same error,
//! and the session must recover once a later batch restores feasibility.
//!
//! The unit tests at the bottom pin the dirty-cone *extent*: an edit
//! whose recomputed values don't move must not propagate, and an edit
//! that only touches one partition block must re-sweep only that block.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use rtlb::core::{
    analyze_ctl, Analysis, AnalysisError, AnalysisOptions, AnalysisSession, CancelToken,
    CandidatePolicy, Delta, PropagationLevel, SystemModel,
};
use rtlb::graph::{
    Catalog, Dur, ExecutionMode, ResourceId, TaskGraph, TaskGraphBuilder, TaskId, TaskSpec, Time,
};
use rtlb::obs::NULL_PROBE;
use rtlb::workloads::{independent_tasks, layered, LayeredConfig};

/// Draws one random, always-valid delta against the session's current
/// graph. Deadlines are regenerated from the task's current release and
/// computation so most batches stay feasible, but infeasible ones are
/// legitimate too — both sides must then agree on the error.
fn random_delta(rng: &mut StdRng, graph: &TaskGraph) -> Delta {
    let task = TaskId::from_index(rng.random_range(0..graph.task_count()));
    let resources: Vec<ResourceId> = graph.catalog().plain_resources().collect();
    match rng.random_range(0..7u32) {
        0 => Delta::SetComputation {
            task,
            computation: Dur::new(rng.random_range(0..=8)),
        },
        1 => Delta::SetRelease {
            task,
            release: Time::new(rng.random_range(0..=12)),
        },
        2 => {
            let t = graph.task(task);
            Delta::SetDeadline {
                task,
                deadline: Time::new(
                    t.release().ticks() + t.computation().ticks() + rng.random_range(0..=10),
                ),
            }
        }
        3 => Delta::SetMode {
            task,
            mode: if rng.random_range(0..2u32) == 0 {
                ExecutionMode::Preemptive
            } else {
                ExecutionMode::NonPreemptive
            },
        },
        4 if !graph.successors(task).is_empty() => {
            let succs = graph.successors(task);
            let to = succs[rng.random_range(0..succs.len())].other;
            Delta::SetMessage {
                from: task,
                to,
                message: Dur::new(rng.random_range(0..=4)),
            }
        }
        5 if !resources.is_empty() => Delta::AddDemand {
            task,
            resource: resources[rng.random_range(0..resources.len())],
        },
        6 if !resources.is_empty() => Delta::RemoveDemand {
            task,
            resource: resources[rng.random_range(0..resources.len())],
        },
        _ => Delta::SetComputation {
            task,
            computation: Dur::new(rng.random_range(0..=8)),
        },
    }
}

/// The oracle: a from-scratch analysis of the session's current graph
/// under its model and options.
fn from_scratch(session: &AnalysisSession) -> Result<Analysis, AnalysisError> {
    analyze_ctl(
        session.graph(),
        session.model(),
        session.options(),
        &NULL_PROBE,
        &CancelToken::none(),
    )
}

/// Applies `batches` random delta batches to one session, comparing
/// every intermediate and final result against a from-scratch analysis
/// of the edited graph after each batch.
fn assert_session_matches_scratch(
    graph: TaskGraph,
    options: AnalysisOptions,
    seed: u64,
    batches: usize,
) -> Result<(), TestCaseError> {
    let Ok(mut session) = AnalysisSession::new(graph, SystemModel::shared(), options) else {
        // The base instance is infeasible; nothing to sweep.
        return Ok(());
    };
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..batches {
        let deltas: Vec<Delta> = (0..rng.random_range(1..=3))
            .map(|_| random_delta(&mut rng, session.graph()))
            .collect();
        match session.apply(&deltas) {
            Ok(_) => {
                let scratch = from_scratch(&session).expect("session succeeded, scratch must too");
                let snapshot = session.to_analysis();
                prop_assert!(!session.has_pending_edits());
                prop_assert_eq!(scratch.timing(), snapshot.timing());
                prop_assert_eq!(scratch.partitions(), snapshot.partitions());
                prop_assert_eq!(scratch.bounds(), snapshot.bounds());
            }
            Err(e) => {
                let scratch = from_scratch(&session).expect_err("session failed, scratch must too");
                prop_assert_eq!(e, scratch);
                prop_assert!(session.has_pending_edits());
            }
        }
    }
    Ok(())
}

proptest! {
    /// Independent tasks: many blocks, heavy cache reuse.
    #[test]
    fn session_matches_scratch_on_independent(
        seed in 0u64..1_000_000,
        count in 1usize..40,
        load in 1u32..6,
    ) {
        let graph = independent_tasks(count, load, seed);
        assert_session_matches_scratch(
            graph, AnalysisOptions::default(), seed ^ 0x5e55, 6)?;
    }

    /// Layered DAGs: precedence cones with real depth, several types.
    #[test]
    fn session_matches_scratch_on_layered(
        seed in 0u64..1_000_000,
        layers in 2usize..5,
        width in 1usize..5,
    ) {
        let config = LayeredConfig {
            layers,
            width,
            resource_types: 2,
            ..LayeredConfig::default()
        };
        let graph = layered(&config, seed);
        assert_session_matches_scratch(
            graph, AnalysisOptions::default(), seed ^ 0xd1a6, 6)?;
    }

    /// Every options corner: extended candidates, flat (unpartitioned)
    /// sweeps, parallel fan-out, explicit chunk sizes, and both
    /// propagation levels must all stay bit-identical.
    #[test]
    fn session_matches_scratch_under_all_options(
        seed in 0u64..1_000_000,
        count in 2usize..25,
        partitioning in 0u32..2,
        extended in 0u32..2,
        threads in 0usize..5,
        chunk in 0usize..4,
        propagation in 0usize..2,
    ) {
        let graph = independent_tasks(count, 4, seed);
        let options = AnalysisOptions {
            partitioning: partitioning == 1,
            candidates: if extended == 1 {
                CandidatePolicy::Extended
            } else {
                CandidatePolicy::EstLct
            },
            parallelism: threads,
            chunk_columns: [0, 1, 3, 16][chunk],
            propagation: [PropagationLevel::Timeline, PropagationLevel::Filtered][propagation],
            ..AnalysisOptions::default()
        };
        assert_session_matches_scratch(graph, options, seed ^ 0xca5e, 5)?;
    }

    /// Delta edits under `--propagation=filtered` on precedence-heavy
    /// DAGs: the cached per-block refinements must invalidate exactly
    /// with the dirty cone and replay bit-identically everywhere else.
    #[test]
    fn session_matches_scratch_filtered_on_layered(
        seed in 0u64..1_000_000,
        layers in 2usize..5,
        width in 1usize..5,
    ) {
        let config = LayeredConfig {
            layers,
            width,
            resource_types: 2,
            ..LayeredConfig::default()
        };
        let graph = layered(&config, seed);
        let options = AnalysisOptions {
            propagation: PropagationLevel::Filtered,
            ..AnalysisOptions::default()
        };
        assert_session_matches_scratch(graph, options, seed ^ 0xf117, 6)?;
    }
}

/// Directed filtered-session check on the precedence-cascade instance
/// whose filtered bound (2) strictly beats the density bound (1): edits
/// that loosen and re-tighten the cascade must track the scratch
/// pipeline exactly, including the refined bound's invalidation.
#[test]
fn filtered_session_tracks_refined_bound_through_edits() {
    let mut c = Catalog::new();
    let p = c.processor("P");
    let r = c.resource("r");
    let mut b = TaskGraphBuilder::new(c);
    let s = b
        .add_task(
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
    let graph = b.build().unwrap();

    let options = AnalysisOptions {
        propagation: PropagationLevel::Filtered,
        ..AnalysisOptions::default()
    };
    let mut session = AnalysisSession::new(graph, SystemModel::shared(), options).unwrap();
    assert_eq!(session.units_required(r), 2, "cascade refutes one unit");
    assert_eq!(from_scratch(&session).unwrap().units_required(r), 2);

    // Loosen s so nothing is forced any more: the refined bound must drop
    // with the cascade, in the session and from scratch alike.
    session
        .apply(&[Delta::SetDeadline {
            task: s,
            deadline: Time::new(40),
        }])
        .unwrap();
    let scratch = from_scratch(&session).unwrap();
    assert_eq!(session.units_required(r), scratch.units_required(r));
    assert_eq!(session.units_required(r), 1);

    // Re-tighten: the cascade (and the refined bound) must come back.
    session
        .apply(&[Delta::SetDeadline {
            task: s,
            deadline: Time::new(4),
        }])
        .unwrap();
    let scratch = from_scratch(&session).unwrap();
    assert_eq!(session.bounds(), scratch.bounds().to_vec());
    assert_eq!(session.units_required(r), 2);
}

/// Three-task chain where the middle task's own deadline caps its LCT:
/// editing the sink's deadline recomputes the sink and its predecessor,
/// sees the predecessor's window unchanged, and stops — the source is
/// never re-evaluated.
#[test]
fn lct_wave_cuts_off_at_unchanged_window() {
    let mut c = Catalog::new();
    let p = c.processor("P");
    let mut b = TaskGraphBuilder::new(c);
    let x = b
        .add_task(TaskSpec::new("x", Dur::new(2), p).deadline(Time::new(100)))
        .unwrap();
    let a = b
        .add_task(TaskSpec::new("a", Dur::new(2), p).deadline(Time::new(10)))
        .unwrap();
    let z = b
        .add_task(TaskSpec::new("z", Dur::new(2), p).deadline(Time::new(100)))
        .unwrap();
    b.add_edge(x, a, Dur::ZERO).unwrap();
    b.add_edge(a, z, Dur::ZERO).unwrap();
    let graph = b.build().unwrap();

    let mut session =
        AnalysisSession::new(graph, SystemModel::shared(), AnalysisOptions::default()).unwrap();
    let before = session.timing().clone();

    let stats = session
        .apply(&[Delta::SetDeadline {
            task: z,
            deadline: Time::new(90),
        }])
        .unwrap();
    // z re-evaluates and moves; a re-evaluates (its LCT stays capped at
    // its own deadline) and the wave stops there.
    assert_eq!(stats.tasks_recomputed_lct, 2);
    assert_eq!(stats.tasks_recomputed_est, 0);
    assert_eq!(session.timing().lct(z), Time::new(90));
    assert_eq!(session.timing().lct(a), before.lct(a));
    assert_eq!(session.timing().lct(x), before.lct(x));
}

/// A no-op edit (re-stating the current value) re-evaluates only the
/// edited task and recomputes zero downstream tasks and zero sweeps.
#[test]
fn zero_width_edit_recomputes_nothing_downstream() {
    let graph = independent_tasks(12, 3, 7);
    let mut session =
        AnalysisSession::new(graph, SystemModel::shared(), AnalysisOptions::default()).unwrap();
    let t = TaskId::from_index(5);
    let current = session.graph().task(t).deadline();

    let stats = session
        .apply(&[Delta::SetDeadline {
            task: t,
            deadline: current,
        }])
        .unwrap();
    assert_eq!(stats.tasks_recomputed_lct, 1); // the edited task itself
    assert_eq!(stats.tasks_recomputed_est, 0);
    assert_eq!(stats.resources_dirty, 0);
    assert_eq!(stats.blocks_resweeped, 0);
    assert_eq!(stats.blocks_reused, 0);
}

/// Changing one independent task's computation time touches no other
/// window, so only the blocks containing it are re-swept; every other
/// block replays its cached maximum.
#[test]
fn isolated_edit_resweeps_only_its_block() {
    let mut c = Catalog::new();
    let p = c.processor("P");
    let mut b = TaskGraphBuilder::new(c);
    for (i, (rel, d)) in [(0, 5), (10, 15), (20, 25)].into_iter().enumerate() {
        b.add_task(
            TaskSpec::new(format!("t{i}"), Dur::new(2), p)
                .release(Time::new(rel))
                .deadline(Time::new(d)),
        )
        .unwrap();
    }
    let graph = b.build().unwrap();
    let middle = TaskId::from_index(1);

    let options = AnalysisOptions::default();
    let mut session = AnalysisSession::new(graph, SystemModel::shared(), options).unwrap();

    let stats = session
        .apply(&[Delta::SetComputation {
            task: middle,
            computation: Dur::new(3),
        }])
        .unwrap();
    // No neighbors: the timing wave has nothing to recompute, and only
    // the middle block of P's three-block partition is dirty.
    assert_eq!(stats.tasks_recomputed(), 0);
    assert_eq!(stats.resources_dirty, 1);
    assert_eq!(stats.blocks_resweeped, 1);
    assert_eq!(stats.blocks_reused, 2);

    let scratch = from_scratch(&session).unwrap();
    assert_eq!(scratch.bounds(), session.to_analysis().bounds());
}

/// Chunked-sweep × session interaction: deltas that move one block's
/// candidate-column count across the chunk threshold — shrinking it to a
/// single chunk, then growing it back past several — must leave the
/// session's re-swept caches bit-identical to a from-scratch analysis
/// with the same small chunk size.
#[test]
fn session_resweeps_identically_across_chunk_boundaries() {
    let mut c = Catalog::new();
    let p = c.processor("P");
    let mut b = TaskGraphBuilder::new(c);
    let mut tasks = Vec::new();
    for i in 0..6i64 {
        tasks.push(
            b.add_task(
                TaskSpec::new(format!("t{i}"), Dur::new(3), p)
                    .release(Time::new(i))
                    .deadline(Time::new(i + 8)),
            )
            .unwrap(),
        );
    }
    let graph = b.build().unwrap();

    let options = AnalysisOptions {
        parallelism: 2,
        chunk_columns: 2,
        ..AnalysisOptions::default()
    };
    let mut session = AnalysisSession::new(graph, SystemModel::shared(), options).unwrap();
    let assert_matches_scratch = |session: &AnalysisSession| {
        let scratch = from_scratch(session).unwrap();
        let snapshot = session.to_analysis();
        assert_eq!(scratch.timing(), snapshot.timing());
        assert_eq!(scratch.partitions(), snapshot.partitions());
        assert_eq!(scratch.bounds(), snapshot.bounds());
    };
    assert_matches_scratch(&session);

    // Shrink: collapse every window onto [0, 10] — the block's candidate
    // grid drops to two columns, i.e. a single 2-column chunk.
    let collapse: Vec<Delta> = tasks
        .iter()
        .flat_map(|&t| {
            [
                Delta::SetRelease {
                    task: t,
                    release: Time::new(0),
                },
                Delta::SetDeadline {
                    task: t,
                    deadline: Time::new(10),
                },
            ]
        })
        .collect();
    let stats = session.apply(&collapse).unwrap();
    assert!(stats.blocks_resweeped >= 1);
    assert_matches_scratch(&session);

    // Grow: spread the windows back out while keeping them overlapping —
    // twelve distinct columns, i.e. six 2-column chunks in one block.
    let spread: Vec<Delta> = tasks
        .iter()
        .enumerate()
        .flat_map(|(i, &t)| {
            [
                Delta::SetRelease {
                    task: t,
                    release: Time::new(2 * i as i64),
                },
                Delta::SetDeadline {
                    task: t,
                    deadline: Time::new(2 * i as i64 + 9),
                },
            ]
        })
        .collect();
    let stats = session.apply(&spread).unwrap();
    assert!(stats.blocks_resweeped >= 1);
    assert_matches_scratch(&session);
}

/// An invalid delta in a batch must leave the session byte-for-byte
/// untouched, even when earlier deltas in the same batch were valid.
#[test]
fn invalid_delta_is_atomic() {
    let graph = independent_tasks(6, 3, 11);
    let mut session =
        AnalysisSession::new(graph, SystemModel::shared(), AnalysisOptions::default()).unwrap();
    let t = TaskId::from_index(0);
    let before_c = session.graph().task(t).computation();
    let bounds_before = session.bounds();

    let err = session
        .apply(&[
            Delta::SetComputation {
                task: t,
                computation: Dur::new(7),
            },
            Delta::AddDemand {
                task: t,
                resource: ResourceId::from_index(999),
            },
        ])
        .unwrap_err();
    assert!(matches!(err, AnalysisError::InvalidDelta(_)), "{err}");
    assert_eq!(session.graph().task(t).computation(), before_c);
    assert_eq!(session.bounds(), bounds_before);
    assert!(!session.has_pending_edits());
}

/// An edit that makes the instance infeasible errors like the scratch
/// pipeline, keeps its dirt, and the session recovers — bit-identically —
/// once a later batch restores feasibility.
#[test]
fn session_recovers_after_infeasible_apply() {
    let graph = independent_tasks(8, 3, 3);
    let options = AnalysisOptions::default();
    let mut session = AnalysisSession::new(graph, SystemModel::shared(), options).unwrap();
    let t = TaskId::from_index(2);
    let rel = session.graph().task(t).release();

    // Deadline strictly before the release: infeasible for any C >= 0.
    let err = session
        .apply(&[Delta::SetDeadline {
            task: t,
            deadline: Time::new(rel.ticks() - 1),
        }])
        .unwrap_err();
    assert!(matches!(err, AnalysisError::Infeasible { .. }), "{err}");
    assert!(session.has_pending_edits());
    assert_eq!(from_scratch(&session).unwrap_err(), err);

    // Restore generous slack; the retained dirt is consumed.
    session
        .apply(&[Delta::SetDeadline {
            task: t,
            deadline: Time::new(rel.ticks() + 20),
        }])
        .unwrap();
    assert!(!session.has_pending_edits());
    let scratch = from_scratch(&session).unwrap();
    let snapshot = session.to_analysis();
    assert_eq!(scratch.timing(), snapshot.timing());
    assert_eq!(scratch.bounds(), snapshot.bounds());
}
