//! B6 — the Ψ/Θ kernels: single overlap evaluations and full-demand
//! sums, the innermost loops of the bound computation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use rtlb_core::{
    compute_timing, overlap, partition_tasks, sweep_partitions_ctl, theta, CancelToken,
    CandidatePolicy, SweepStrategy, SystemModel, TaskWindow,
};
use rtlb_graph::{Dur, ExecutionMode, Time};
use rtlb_obs::NULL_PROBE;
use rtlb_workloads::independent_tasks;

fn bench_psi(c: &mut Criterion) {
    let window = TaskWindow {
        est: Time::new(3),
        lct: Time::new(40),
    };
    let mut group = c.benchmark_group("overlap/psi");
    for mode in [ExecutionMode::Preemptive, ExecutionMode::NonPreemptive] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{mode}")),
            &mode,
            |b, &mode| {
                b.iter(|| {
                    let mut acc = 0i64;
                    for t1 in 0..32i64 {
                        acc += overlap(
                            black_box(window),
                            Dur::new(17),
                            mode,
                            Time::new(t1),
                            Time::new(t1 + 9),
                        )
                        .ticks();
                    }
                    acc
                })
            },
        );
    }
    group.finish();
}

fn bench_theta(c: &mut Criterion) {
    let mut group = c.benchmark_group("overlap/theta");
    group.sample_size(30);
    for &n in &[50usize, 200, 800] {
        let graph = independent_tasks(n, 3, 9);
        let timing = compute_timing(&graph, &SystemModel::shared());
        let p = graph.catalog().lookup("P0").unwrap();
        let tasks = graph.tasks_demanding(p);
        group.bench_with_input(
            BenchmarkId::from_parameter(n),
            &(graph, timing, tasks),
            |b, (graph, timing, tasks)| {
                b.iter(|| theta(black_box(graph), timing, tasks, Time::new(5), Time::new(60)))
            },
        );
    }
    group.finish();
}

/// The sweep kernel alone (no timing or partitioning in the loop):
/// naive Θ recomputation vs the incremental event scan over the same
/// candidate pairs, on one resource's partition.
fn bench_sweep_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("overlap/sweep_kernel");
    group.sample_size(15);
    for &n in &[100usize, 400] {
        let graph = independent_tasks(n, 20, 9);
        let timing = compute_timing(&graph, &SystemModel::shared());
        let p = graph.catalog().lookup("P0").unwrap();
        let partition = partition_tasks(&graph, &timing, p);
        for (label, strategy) in [
            ("naive", SweepStrategy::Naive),
            ("incremental", SweepStrategy::Incremental),
        ] {
            group.bench_with_input(
                BenchmarkId::new(label, n),
                &(&graph, &timing, &partition),
                |b, (graph, timing, partition)| {
                    b.iter(|| {
                        sweep_partitions_ctl(
                            black_box(graph),
                            timing,
                            std::slice::from_ref(*partition),
                            CandidatePolicy::EstLct,
                            strategy,
                            1,
                            0,
                            &NULL_PROBE,
                            &CancelToken::none(),
                        )
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_psi, bench_theta, bench_sweep_kernel);
criterion_main!(benches);
