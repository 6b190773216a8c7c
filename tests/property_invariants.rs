//! Property-based tests of the analysis invariants.
//!
//! * Theorems 3–4: the closed-form overlap `Ψ` equals an independently
//!   derived brute-force minimum over all single-task schedules.
//! * `Ψ` monotonicity and the preemptive ≤ non-preemptive ordering.
//! * `Θ` superadditivity across interval splits (the property behind
//!   Lemma 1 / Theorem 5).
//! * Theorem 5: partitioned and unpartitioned sweeps give the same bound.
//! * Theorem 1: the greedy merge scan attains the best Equation 4.1 value
//!   over *all* mergeable successor subsets (brute-force comparison on
//!   star graphs).
//! * The ILP solver agrees with exhaustive enumeration on small covering
//!   programs.

use proptest::prelude::*;

use rtlb::core::{
    analyze, compute_timing, overlap, partition_tasks, resource_bound,
    resource_bound_unpartitioned_ctl, theta, CancelToken, CandidatePolicy, SystemModel, TaskWindow,
};
use rtlb::graph::{Catalog, Dur, ExecutionMode, TaskGraphBuilder, TaskSpec, Time};
use rtlb::ilp::{brute_force_ilp, solve_ilp, Constraint, Outcome, Problem, Rational};

/// Brute-force minimum overlap for a non-preemptive task: try every
/// integer start in `[e, l - c]` and measure the intersection with
/// `[t1, t2]`.
fn brute_np(e: i64, l: i64, c: i64, t1: i64, t2: i64) -> i64 {
    (e..=(l - c))
        .map(|s| (t2.min(s + c) - t1.max(s)).max(0))
        .min()
        .expect("window fits computation")
}

/// Brute-force minimum overlap for a preemptive task: the ticks available
/// outside `[t1, t2]` within the window bound how much can escape.
fn brute_p(e: i64, l: i64, c: i64, t1: i64, t2: i64) -> i64 {
    let before = (t1.min(l) - e).max(0);
    let after = (l - t2.max(e)).max(0);
    (c - before - after).max(0)
}

fn window(e: i64, l: i64) -> TaskWindow {
    TaskWindow {
        est: Time::new(e),
        lct: Time::new(l),
    }
}

proptest! {
    /// Theorem 4 (non-preemptive Ψ) against the brute-force oracle.
    #[test]
    fn psi_np_matches_brute_force(
        e in 0i64..12,
        width in 1i64..14,
        c_frac in 1i64..14,
        t1 in 0i64..20,
        dt in 1i64..12,
    ) {
        let l = e + width;
        let c = 1 + (c_frac - 1) % width; // 1..=width
        let t2 = t1 + dt;
        let psi = overlap(
            window(e, l), Dur::new(c), ExecutionMode::NonPreemptive,
            Time::new(t1), Time::new(t2),
        ).ticks();
        prop_assert_eq!(psi, brute_np(e, l, c, t1, t2));
    }

    /// Theorem 3 (preemptive Ψ) against the brute-force oracle.
    #[test]
    fn psi_p_matches_brute_force(
        e in 0i64..12,
        width in 1i64..14,
        c_frac in 1i64..14,
        t1 in 0i64..20,
        dt in 1i64..12,
    ) {
        let l = e + width;
        let c = 1 + (c_frac - 1) % width;
        let t2 = t1 + dt;
        let psi = overlap(
            window(e, l), Dur::new(c), ExecutionMode::Preemptive,
            Time::new(t1), Time::new(t2),
        ).ticks();
        prop_assert_eq!(psi, brute_p(e, l, c, t1, t2));
    }

    /// Ψ grows when the interval grows (monotone in ⊆) and preemption
    /// never increases the overlap.
    #[test]
    fn psi_monotone_and_ordered(
        e in 0i64..10,
        width in 1i64..12,
        c_frac in 1i64..12,
        t1 in 0i64..16,
        dt in 1i64..8,
        grow in 0i64..4,
    ) {
        let l = e + width;
        let c = 1 + (c_frac - 1) % width;
        let (t2, gt1, gt2) = (t1 + dt, (t1 - grow).max(0), t1 + dt + grow);
        for mode in [ExecutionMode::Preemptive, ExecutionMode::NonPreemptive] {
            let small = overlap(window(e, l), Dur::new(c), mode, Time::new(t1), Time::new(t2));
            let large = overlap(window(e, l), Dur::new(c), mode, Time::new(gt1), Time::new(gt2));
            prop_assert!(small <= large, "Ψ must be monotone in the interval");
        }
        let p = overlap(window(e, l), Dur::new(c), ExecutionMode::Preemptive,
                        Time::new(t1), Time::new(t2));
        let np = overlap(window(e, l), Dur::new(c), ExecutionMode::NonPreemptive,
                         Time::new(t1), Time::new(t2));
        prop_assert!(p <= np);
    }

    /// Θ is superadditive on interval splits: forcing work into [a, c] is
    /// at least forcing it into [a, b] plus [b, c].
    #[test]
    fn theta_superadditive(
        specs in proptest::collection::vec((0i64..8, 1i64..8, 1i64..8, any::<bool>()), 1..6),
        a in 0i64..10,
        d1 in 1i64..6,
        d2 in 1i64..6,
    ) {
        let mut catalog = Catalog::new();
        let p = catalog.processor("P");
        let mut builder = TaskGraphBuilder::new(catalog);
        for (i, &(rel, width, c_frac, preempt)) in specs.iter().enumerate() {
            let c = 1 + (c_frac - 1) % width;
            let mut spec = TaskSpec::new(format!("t{i}"), Dur::new(c), p)
                .release(Time::new(rel))
                .deadline(Time::new(rel + width));
            if preempt {
                spec = spec.preemptive();
            }
            builder.add_task(spec).unwrap();
        }
        let graph = builder.build().unwrap();
        let timing = compute_timing(&graph, &SystemModel::shared());
        let tasks = graph.tasks_demanding(p);
        let (b, c) = (a + d1, a + d1 + d2);
        let whole = theta(&graph, &timing, &tasks, Time::new(a), Time::new(c));
        let left = theta(&graph, &timing, &tasks, Time::new(a), Time::new(b));
        let right = theta(&graph, &timing, &tasks, Time::new(b), Time::new(c));
        prop_assert!(whole >= left + right);
    }

    /// Theorem 5: the partitioned sweep and the flat sweep agree, and the
    /// partitioned one never looks at more intervals.
    #[test]
    fn theorem5_equality(
        specs in proptest::collection::vec((0i64..40, 1i64..8, 1i64..8, any::<bool>()), 1..12),
    ) {
        let mut catalog = Catalog::new();
        let p = catalog.processor("P");
        let mut builder = TaskGraphBuilder::new(catalog);
        for (i, &(rel, width, c_frac, preempt)) in specs.iter().enumerate() {
            let c = 1 + (c_frac - 1) % width;
            let mut spec = TaskSpec::new(format!("t{i}"), Dur::new(c), p)
                .release(Time::new(rel))
                .deadline(Time::new(rel + width));
            if preempt {
                spec = spec.preemptive();
            }
            builder.add_task(spec).unwrap();
        }
        let graph = builder.build().unwrap();
        let timing = compute_timing(&graph, &SystemModel::shared());
        let part = partition_tasks(&graph, &timing, p);
        let with = resource_bound(&graph, &timing, &part).unwrap();
        let without = resource_bound_unpartitioned_ctl(
            &graph, &timing, p, CandidatePolicy::EstLct, &CancelToken::none(),
        )
        .unwrap();
        prop_assert_eq!(with.bound, without.bound);
        prop_assert!(with.intervals_examined <= without.intervals_examined);
    }

    /// Theorem 1 on star graphs: the greedy merge scan's L equals the
    /// maximum of Equation 4.1 over every subset of successors.
    #[test]
    fn theorem1_greedy_is_optimal(
        succs in proptest::collection::vec((1i64..6, 0i64..6, 10i64..30), 1..6),
        center_c in 1i64..5,
    ) {
        let mut catalog = Catalog::new();
        let p = catalog.processor("P");
        let mut builder = TaskGraphBuilder::new(catalog);
        builder.default_deadline(Time::new(60));
        let center = builder
            .add_task(TaskSpec::new("center", Dur::new(center_c), p))
            .unwrap();
        let mut kids = Vec::new();
        for (i, &(c, m, d)) in succs.iter().enumerate() {
            let kid = builder
                .add_task(TaskSpec::new(format!("k{i}"), Dur::new(c), p).deadline(Time::new(d)))
                .unwrap();
            builder.add_edge(center, kid, Dur::new(m)).unwrap();
            kids.push((kid, c, m, d));
        }
        let graph = builder.build().unwrap();
        let timing = compute_timing(&graph, &SystemModel::shared());
        let greedy = timing.lct(center).ticks();

        // Brute force Equation 4.1 over all subsets A of successors.
        let n = kids.len();
        let mut best = i64::MIN;
        for mask in 0..(1u32 << n) {
            // lst(A): pack merged kids back from their deadlines.
            let mut merged: Vec<(i64, i64)> = Vec::new(); // (deadline, c)
            let mut lct = 60i64.min(
                (0..n)
                    .filter(|&i| mask & (1 << i) == 0)
                    .map(|i| kids[i].3 - kids[i].1 - kids[i].2) // lms = D - C - m
                    .min()
                    .unwrap_or(i64::MAX),
            );
            for (i, kid) in kids.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    merged.push((kid.3, kid.1));
                }
            }
            merged.sort_by_key(|&(d, _)| std::cmp::Reverse(d));
            let mut start = i64::MAX;
            for (d, c) in merged {
                let completion = start.min(d);
                start = completion - c;
            }
            lct = lct.min(start);
            best = best.max(lct);
        }
        prop_assert_eq!(greedy, best, "greedy L differs from subset optimum");
    }

    /// Theorem 2 on star graphs (mirror of Theorem 1): the greedy EST
    /// merge scan's E equals the minimum of Equation 4.5 over every
    /// subset of predecessors.
    #[test]
    fn theorem2_greedy_is_optimal(
        preds in proptest::collection::vec((1i64..6, 0i64..6, 0i64..8), 1..6),
        center_c in 1i64..5,
    ) {
        let mut catalog = Catalog::new();
        let p = catalog.processor("P");
        let mut builder = TaskGraphBuilder::new(catalog);
        builder.default_deadline(Time::new(200));
        let mut kids = Vec::new();
        let mut specs = Vec::new();
        for (i, &(c, m, rel)) in preds.iter().enumerate() {
            let kid = builder
                .add_task(TaskSpec::new(format!("k{i}"), Dur::new(c), p).release(Time::new(rel)))
                .unwrap();
            specs.push((kid, c, m, rel));
            kids.push(kid);
        }
        let center = builder
            .add_task(TaskSpec::new("center", Dur::new(center_c), p))
            .unwrap();
        for (i, &(kid, _, m, _)) in specs.iter().enumerate() {
            let _ = i;
            builder.add_edge(kid, center, Dur::new(m)).unwrap();
        }
        let graph = builder.build().unwrap();
        let timing = compute_timing(&graph, &SystemModel::shared());
        let greedy = timing.est(center).ticks();

        // Brute force Equation 4.5 over all predecessor subsets: each
        // predecessor's EST is its release (sources), emr = rel + C + m;
        // ect(A) packs merged preds forward from their releases.
        let n = specs.len();
        let mut best = i64::MAX;
        for mask in 0..(1u32 << n) {
            let mut est = (0..n)
                .filter(|&i| mask & (1 << i) == 0)
                .map(|i| specs[i].3 + specs[i].1 + specs[i].2)
                .max()
                .unwrap_or(0)
                .max(0); // rel_center = 0
            let mut merged: Vec<(i64, i64)> = (0..n)
                .filter(|&i| mask & (1 << i) != 0)
                .map(|i| (specs[i].3, specs[i].1)) // (release, C)
                .collect();
            merged.sort_by_key(|&(rel, _)| rel);
            let mut finish = i64::MIN;
            for (rel, c) in merged {
                let start = finish.max(rel);
                finish = start + c;
            }
            if finish > i64::MIN {
                est = est.max(finish);
            }
            best = best.min(est);
        }
        prop_assert_eq!(greedy, best, "greedy E differs from subset optimum");
    }

    /// Text-format round trip preserves the analysis outcome on random
    /// independent task sets.
    #[test]
    fn format_round_trip_preserves_bounds(
        specs in proptest::collection::vec((0i64..20, 1i64..8, 1i64..8, any::<bool>()), 1..10),
    ) {
        let mut catalog = Catalog::new();
        let p = catalog.processor("P");
        let r = catalog.resource("res");
        let mut builder = TaskGraphBuilder::new(catalog);
        for (i, &(rel, width, c_frac, preempt)) in specs.iter().enumerate() {
            let c = 1 + (c_frac - 1) % width;
            let mut spec = TaskSpec::new(format!("t{i}"), Dur::new(c), p)
                .release(Time::new(rel))
                .deadline(Time::new(rel + width));
            if preempt {
                spec = spec.preemptive().resource(r);
            }
            builder.add_task(spec).unwrap();
        }
        let graph = builder.build().unwrap();
        let rendered = rtlb::format::render(&graph, None, None);
        let reparsed = rtlb::format::parse(&rendered).unwrap();
        let a = analyze(&graph, &SystemModel::shared()).unwrap();
        let b = analyze(&reparsed.graph, &SystemModel::shared()).unwrap();
        for (x, y) in a.bounds().iter().zip(b.bounds()) {
            prop_assert_eq!(x.bound, y.bound);
        }
    }

    /// ILP branch-and-bound equals exhaustive enumeration on small
    /// covering programs, and the LP relaxation never exceeds it.
    #[test]
    fn ilp_matches_brute_force(
        costs in proptest::collection::vec(1i64..8, 2..4),
        rows in proptest::collection::vec(
            (proptest::collection::vec(0i64..4, 2..4), 1i64..9),
            1..4
        ),
    ) {
        let mut problem = Problem::new();
        let vars: Vec<_> = costs
            .iter()
            .enumerate()
            .map(|(i, &c)| problem.add_var(format!("x{i}"), Rational::from(c), true))
            .collect();
        let mut any_coverable = true;
        for (coeffs, rhs) in &rows {
            let terms: Vec<_> = coeffs
                .iter()
                .zip(&vars)
                .filter(|(&a, _)| a > 0)
                .map(|(&a, &v)| (v, Rational::from(a)))
                .collect();
            if terms.is_empty() {
                any_coverable = false;
                continue; // uncoverable row would make it infeasible; skip
            }
            problem.add_constraint(Constraint::ge(terms, Rational::from(*rhs)));
        }
        prop_assume!(any_coverable);
        let bb = solve_ilp(&problem).unwrap();
        let bf = brute_force_ilp(&problem, 12);
        match (bb, bf) {
            (Outcome::Optimal(a), Outcome::Optimal(b)) => {
                prop_assert_eq!(a.objective, b.objective);
            }
            (a, b) => prop_assert!(
                matches!((&a, &b), (Outcome::Infeasible, Outcome::Infeasible)),
                "solver disagreement: {:?} vs {:?}", a, b
            ),
        }
    }
}

/// Deterministic cross-check: the pipeline's bound for every generated
/// workload is reproducible and stable under re-analysis.
#[test]
fn analysis_is_deterministic() {
    for seed in 0..5u64 {
        let g = rtlb::workloads::layered(&rtlb::workloads::LayeredConfig::default(), seed);
        let a1 = analyze(&g, &SystemModel::shared()).unwrap();
        let a2 = analyze(&g, &SystemModel::shared()).unwrap();
        for (x, y) in a1.bounds().iter().zip(a2.bounds()) {
            assert_eq!(x, y);
        }
    }
}

/// Deterministic port of the recorded `theorem1_greedy_is_optimal`
/// regression (`succs = [(2, 5, 15), (1, 4, 13)], center_c = 1` in
/// `property_invariants.proptest-regressions`): a star whose two
/// successors each allow `lms = 8` unmerged, but merging *both* packs
/// them back from their deadlines (completion 15 → start 13, completion
/// 13 → start 12) and lifts the center's LCT to 12. A scan that only
/// considered single-successor merges reported 8 here.
#[test]
fn theorem1_regression_two_successor_merge() {
    let mut catalog = Catalog::new();
    let p = catalog.processor("P");
    let mut builder = TaskGraphBuilder::new(catalog);
    builder.default_deadline(Time::new(60));
    let center = builder
        .add_task(TaskSpec::new("center", Dur::new(1), p))
        .unwrap();
    for (i, (c, m, d)) in [(2, 5, 15), (1, 4, 13)].into_iter().enumerate() {
        let kid = builder
            .add_task(TaskSpec::new(format!("k{i}"), Dur::new(c), p).deadline(Time::new(d)))
            .unwrap();
        builder.add_edge(center, kid, Dur::new(m)).unwrap();
    }
    let graph = builder.build().unwrap();
    let timing = compute_timing(&graph, &SystemModel::shared());
    assert_eq!(timing.lct(center).ticks(), 12);
}
