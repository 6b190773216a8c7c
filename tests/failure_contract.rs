//! The panic-free failure contract of the analysis core.
//!
//! Every input a caller can construct must come back as `Ok` or as a
//! typed [`AnalysisError`] — never as a panic, never as a silent wrap.
//! The property tests push magnitudes far past the pipeline's exact
//! arithmetic range; the directed tests pin each converted panic site
//! (the Equation 6.3 ceiling overflow, cooperative cancellation, and the
//! session's failed-apply recovery).

use proptest::prelude::*;

use rtlb::core::{
    analyze, analyze_ctl, compute_timing, partition_tasks, resource_bound,
    resource_bound_unpartitioned_ctl, sweep_partitions_ctl, AnalysisError, AnalysisOptions,
    AnalysisSession, CancelToken, CandidatePolicy, Delta, SweepStrategy, SystemModel,
};
use rtlb::graph::{Catalog, Dur, TaskGraph, TaskGraphBuilder, TaskId, TaskSpec, Time};
use rtlb::obs::NULL_PROBE;

/// Largest magnitude the pipeline accepts (`Time::MAX`); everything past
/// it must be rejected with [`AnalysisError::BoundOverflow`].
const LIMIT: i64 = i64::MAX / 4;

/// Builds a chain graph from raw `(release, deadline, computation,
/// message, preemptive)` rows, or `None` if the builder rejects them.
fn chain_graph(specs: &[(i64, i64, i64, i64, bool)]) -> Option<TaskGraph> {
    let mut catalog = Catalog::new();
    let p = catalog.processor("P");
    let mut builder = TaskGraphBuilder::new(catalog);
    let mut prev: Option<(TaskId, i64)> = None;
    for (i, &(rel, deadline, c, m, preempt)) in specs.iter().enumerate() {
        let mut spec = TaskSpec::new(format!("t{i}"), Dur::new(c), p)
            .release(Time::new(rel))
            .deadline(Time::new(deadline));
        if preempt {
            spec = spec.preemptive();
        }
        let id = builder.add_task(spec).ok()?;
        if let Some((from, message)) = prev {
            builder.add_edge(from, id, Dur::new(message)).ok()?;
        }
        prev = Some((id, m));
    }
    builder.build().ok()
}

proptest! {
    /// `analyze` never panics, whatever the magnitudes — and any instance
    /// whose inputs escape the exact-arithmetic range must be an error.
    #[test]
    fn extreme_magnitudes_never_panic(
        specs in proptest::collection::vec(
            (
                -(i64::MAX / 2)..=i64::MAX / 2,  // release
                -(i64::MAX / 2)..=i64::MAX / 2,  // deadline
                0i64..=i64::MAX / 2,             // computation
                0i64..=i64::MAX / 8,             // message to the next task
                any::<bool>(),                   // preemptive
            ),
            1..6,
        ),
    ) {
        let Some(graph) = chain_graph(&specs) else {
            return Ok(()); // builder-level rejection is a fine outcome too
        };
        let oversized = specs
            .iter()
            .any(|&(rel, deadline, ..)| rel.abs() > LIMIT || deadline.abs() > LIMIT)
            || specs
                .iter()
                .enumerate()
                .map(|(i, &(_, _, c, m, _))| {
                    // The last task's outgoing message was never added.
                    i128::from(c) + if i + 1 < specs.len() { i128::from(m) } else { 0 }
                })
                .sum::<i128>()
                > i128::from(LIMIT);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            analyze(&graph, &SystemModel::shared())
        }));
        let result = match result {
            Ok(r) => r,
            Err(_) => return Err(TestCaseError::Fail("analyze panicked".into())),
        };
        if oversized {
            prop_assert!(
                result.is_err(),
                "magnitudes past Time::MAX must be rejected"
            );
        }
    }

    /// The never-panic contract holds in both execution models and with
    /// partitioning disabled.
    #[test]
    fn extreme_magnitudes_never_panic_unpartitioned(
        rel in -(i64::MAX / 2)..=i64::MAX / 2,
        deadline in -(i64::MAX / 2)..=i64::MAX / 2,
        c in 0i64..=i64::MAX / 2,
    ) {
        let Some(graph) = chain_graph(&[(rel, deadline, c, 0, true)]) else {
            return Ok(());
        };
        let options = AnalysisOptions {
            partitioning: false,
            ..AnalysisOptions::default()
        };
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            analyze_ctl(&graph, &SystemModel::shared(), options, &NULL_PROBE, &CancelToken::none())
        }));
        prop_assert!(result.is_ok(), "analyze_ctl panicked");
    }
}

/// A computed-but-infeasible timing can push the Equation 6.3 ceiling
/// past `u32::MAX`; every public sweep entry point must come back with a
/// typed error instead of panicking in the `u32::try_from` (naive) or
/// the ramp decomposition's feasibility assertion (incremental) that
/// used to sit there.
#[test]
fn ceiling_overflow_is_an_error_not_a_panic() {
    let mut catalog = Catalog::new();
    let p = catalog.processor("P");
    let mut builder = TaskGraphBuilder::new(catalog);
    builder
        .add_task(
            TaskSpec::new("hog", Dur::new(1 << 40), p)
                .release(Time::new(0))
                .deadline(Time::new(1))
                .preemptive(),
        )
        .unwrap();
    let graph = builder.build().unwrap();
    let timing = compute_timing(&graph, &SystemModel::shared());
    let partition = partition_tasks(&graph, &timing, p);

    // The naive oracle computes Θ = 2^40 over a length-1 interval and
    // trips the converted ceiling overflow.
    let err = sweep_partitions_ctl(
        &graph,
        &timing,
        std::slice::from_ref(&partition),
        CandidatePolicy::EstLct,
        SweepStrategy::Naive,
        1,
        0,
        &NULL_PROBE,
        &CancelToken::none(),
    )
    .unwrap_err();
    assert!(
        matches!(err, AnalysisError::BoundOverflow { .. }),
        "expected BoundOverflow, got {err:?}"
    );
    // So does the unpartitioned oracle (always naive).
    let err = resource_bound_unpartitioned_ctl(
        &graph,
        &timing,
        p,
        CandidatePolicy::EstLct,
        &CancelToken::none(),
    )
    .unwrap_err();
    assert!(matches!(err, AnalysisError::BoundOverflow { .. }));

    // The default incremental strategy refuses the infeasible window
    // outright rather than decomposing an undefined ramp.
    let err = resource_bound(&graph, &timing, &partition).unwrap_err();
    assert!(
        matches!(err, AnalysisError::Infeasible { .. }),
        "expected Infeasible, got {err:?}"
    );

    // And the front door rejects the instance before any sweep runs.
    assert!(analyze(&graph, &SystemModel::shared()).is_err());
}

fn small_feasible_graph() -> TaskGraph {
    let mut catalog = Catalog::new();
    let p = catalog.processor("P");
    let r = catalog.resource("r");
    let mut builder = TaskGraphBuilder::new(catalog);
    builder.default_deadline(Time::new(20));
    for i in 0..4 {
        builder
            .add_task(TaskSpec::new(format!("t{i}"), Dur::new(3), p).resource(r))
            .unwrap();
    }
    builder.build().unwrap()
}

/// A cancelled token surfaces as [`AnalysisError::Deadline`] from the
/// one-call pipeline; an untripped token changes nothing.
#[test]
fn cancellation_is_a_typed_error() {
    let graph = small_feasible_graph();
    let ctl = CancelToken::new();
    ctl.cancel();
    let err = analyze_ctl(
        &graph,
        &SystemModel::shared(),
        AnalysisOptions::default(),
        &NULL_PROBE,
        &ctl,
    )
    .unwrap_err();
    assert_eq!(err, AnalysisError::Deadline);

    let live = analyze_ctl(
        &graph,
        &SystemModel::shared(),
        AnalysisOptions::default(),
        &NULL_PROBE,
        &CancelToken::new(),
    )
    .unwrap();
    let plain = analyze(&graph, &SystemModel::shared()).unwrap();
    assert_eq!(live.bounds(), plain.bounds());
}

/// An already-expired deadline trips on the first checkpoint.
#[test]
fn expired_deadline_is_a_typed_error() {
    let graph = small_feasible_graph();
    let ctl = CancelToken::with_timeout(std::time::Duration::ZERO);
    let err = analyze_ctl(
        &graph,
        &SystemModel::shared(),
        AnalysisOptions::default(),
        &NULL_PROBE,
        &ctl,
    )
    .unwrap_err();
    assert_eq!(err, AnalysisError::Deadline);
}

/// A failed `apply` keeps its dirt: the session stays usable, and the
/// next successful apply recomputes everything the failed one touched,
/// landing bit-identical to a from-scratch analysis.
#[test]
fn failed_apply_keeps_dirt_and_recovers() {
    let graph = small_feasible_graph();
    let model = SystemModel::shared();
    let mut session =
        AnalysisSession::new(graph, model.clone(), AnalysisOptions::default()).unwrap();
    let before = session.bounds();

    let ctl = CancelToken::new();
    ctl.cancel();
    let deltas = [Delta::SetComputation {
        task: TaskId::from_index(0),
        computation: Dur::new(9),
    }];
    let err = session.apply_ctl(&deltas, &NULL_PROBE, &ctl).unwrap_err();
    assert_eq!(err, AnalysisError::Deadline);

    // The edit reached the graph even though the refresh was cancelled.
    assert_eq!(
        session.graph().task(TaskId::from_index(0)).computation(),
        Dur::new(9)
    );

    // An empty follow-up apply drains the kept dirt and converges to the
    // from-scratch result on the edited graph.
    session.apply(&[]).unwrap();
    let scratch = analyze_ctl(
        session.graph(),
        &model,
        AnalysisOptions::default(),
        &NULL_PROBE,
        &CancelToken::none(),
    )
    .unwrap();
    assert_eq!(session.bounds(), scratch.bounds().to_vec());
    assert_ne!(session.bounds(), before, "the edit must move the bounds");
}
