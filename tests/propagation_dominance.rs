//! Dominance and validity of the propagation levels.
//!
//! Three claims, each enforced on random small instances:
//!
//! 1. **Dominance** — `lb_filtered >= lb_timeline` for every resource:
//!    filtering only ever *adds* refutations on top of the sweep. (That
//!    the Timeline packing is bit-identical to the paper's sequential
//!    re-packing is `rtlb-core`'s `paper_packing_matches_timeline`
//!    proptest.)
//! 2. **Validity** — every level's bound, including the filtered one,
//!    stays below or at the exact minimum computed by `rtlb-sched`'s
//!    complete non-preemptive search. A filtered bound that overtook the
//!    exact minimum would mean an unsound refutation rule.
//! 3. **Gain** — on the directed precedence-cascade instance the filtered
//!    level strictly beats the sweep (2 vs 1) and matches the exact
//!    minimum, so the extra machinery is established to buy real
//!    tightness, not just agree with the baseline.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use rtlb::core::{
    analyze_ctl, Analysis, AnalysisError, AnalysisOptions, CancelToken, PropagationLevel,
    SystemModel,
};
use rtlb::graph::{Catalog, Dur, TaskGraph, TaskGraphBuilder, TaskSpec, Time};
use rtlb::obs::NULL_PROBE;
use rtlb::sched::{find_schedule_exact, min_units_exact, Capacities, SearchBudget};

/// Analyzes `graph` on the shared model at one propagation level.
fn analyze_at(graph: &TaskGraph, level: PropagationLevel) -> Result<Analysis, AnalysisError> {
    let options = AnalysisOptions {
        propagation: level,
        ..AnalysisOptions::default()
    };
    analyze_ctl(
        graph,
        &SystemModel::shared(),
        options,
        &NULL_PROBE,
        &CancelToken::none(),
    )
}

/// A small random non-preemptive instance: up to 6 tasks, 2 processor
/// types, 1 plain resource, sparse precedence, tight-ish deadlines —
/// the same shape `tests/bound_validity.rs` validates the sweep with,
/// small enough for the exact search to finish.
fn small_instance(seed: u64) -> TaskGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut catalog = Catalog::new();
    let p0 = catalog.processor("P0");
    let p1 = catalog.processor("P1");
    let r = catalog.resource("r");
    let mut b = TaskGraphBuilder::new(catalog);

    let n = rng.random_range(3..=6);
    let mut ids = Vec::new();
    for i in 0..n {
        let c = rng.random_range(1..=4);
        let rel = rng.random_range(0..4);
        let slack = rng.random_range(1..=8);
        let mut spec = TaskSpec::new(
            format!("t{i}"),
            Dur::new(c),
            if rng.random_range(0..100) < 70 {
                p0
            } else {
                p1
            },
        )
        .release(Time::new(rel))
        .deadline(Time::new(rel + c + slack));
        if rng.random_range(0..100) < 50 {
            spec = spec.resource(r);
        }
        ids.push(b.add_task(spec).unwrap());
    }
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.random_range(0..100) < 25 {
                let m = rng.random_range(0..=2);
                b.add_edge(ids[i], ids[j], Dur::new(m)).unwrap();
            }
        }
    }
    b.build().unwrap()
}

proptest! {
    /// `lb_filtered >= lb_timeline` per resource, on identical windows.
    #[test]
    fn filtered_dominates_timeline(seed in 0u64..200_000) {
        let graph = small_instance(seed);
        let timeline = analyze_at(&graph, PropagationLevel::Timeline);
        let filtered = analyze_at(&graph, PropagationLevel::Filtered);
        match (timeline, filtered) {
            (Ok(timeline), Ok(filtered)) => {
                prop_assert_eq!(timeline.timing(), filtered.timing());
                for (t, f) in timeline.bounds().iter().zip(filtered.bounds()) {
                    prop_assert_eq!(t.resource, f.resource);
                    prop_assert!(
                        f.bound >= t.bound,
                        "resource {}: filtered {} < timeline {}",
                        graph.catalog().name(t.resource), f.bound, t.bound
                    );
                }
            }
            // Both levels share the validation and timing stages, so they
            // must fail identically or not at all.
            (Err(a), Err(b)) => {
                prop_assert_eq!(&a, &b);
            }
            (t, f) => {
                prop_assert!(
                    false,
                    "levels diverged in fallibility: timeline={} filtered={}",
                    t.is_ok(), f.is_ok()
                );
            }
        }
    }
}

/// Every level's bound — the filtered one above all — must stay valid
/// against the complete exact search: never above the true minimum, and
/// one unit below the bound must be infeasible.
#[test]
fn all_levels_valid_against_exact_oracle() {
    let budget = SearchBudget::default();
    let levels = [PropagationLevel::Timeline, PropagationLevel::Filtered];
    let mut checked = 0u32;
    for seed in 0..60u64 {
        let graph = small_instance(seed);
        let generous = Capacities::uniform(&graph, graph.task_count() as u32);
        for level in levels {
            let analysis = match analyze_at(&graph, level) {
                Ok(a) => a,
                Err(AnalysisError::Infeasible { .. }) => continue,
                Err(e) => panic!("seed {seed} level {}: {e}", level.label()),
            };
            for bound in analysis.bounds() {
                let min = min_units_exact(
                    &graph,
                    bound.resource,
                    &generous,
                    graph.task_count() as u32,
                    budget,
                )
                .unwrap();
                if let Some(min) = min {
                    assert!(
                        min >= bound.bound,
                        "seed {seed} level {}: LB_{} = {} exceeds exact minimum {min}",
                        level.label(),
                        graph.catalog().name(bound.resource),
                        bound.bound
                    );
                    checked += 1;
                }
                if bound.bound > 0 {
                    let caps = generous.clone().with(bound.resource, bound.bound - 1);
                    assert!(
                        find_schedule_exact(&graph, &caps, budget)
                            .unwrap()
                            .is_none(),
                        "seed {seed} level {}: feasible with {} - 1 units of {}",
                        level.label(),
                        bound.bound,
                        graph.catalog().name(bound.resource)
                    );
                }
            }
        }
    }
    assert!(checked > 100, "too few bound checks exercised ({checked})");
}

/// The directed gain witness: `s[0,4] C=3`, `a[0,11] C=5`, `b[5,7] C=2`,
/// all non-preemptive on one resource. No interval is dense enough for
/// the sweep to demand two units, but the detectable-precedence cascade
/// (s before a, then neither order of a and b possible on one unit)
/// refutes capacity 1 — and the exact search confirms 2 is the true
/// minimum, so the filtered bound is tight here.
#[test]
fn filtered_strictly_beats_sweep_on_cascade_and_matches_exact() {
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
    let graph = b.build().unwrap();

    let timeline = analyze_at(&graph, PropagationLevel::Timeline).unwrap();
    let filtered = analyze_at(&graph, PropagationLevel::Filtered).unwrap();
    assert_eq!(
        timeline.units_required(r),
        1,
        "sweep alone misses the cascade"
    );
    assert_eq!(filtered.units_required(r), 2, "filtering must catch it");

    let generous = Capacities::uniform(&graph, graph.task_count() as u32);
    let exact = min_units_exact(
        &graph,
        r,
        &generous,
        graph.task_count() as u32,
        SearchBudget::default(),
    )
    .unwrap();
    assert_eq!(
        exact,
        Some(2),
        "filtered bound must equal the exact minimum"
    );
}
