//! B3 — Theorem 5 ablation as a timed benchmark: the interval sweep with
//! and without Figure 4 partitioning (the bounds are identical; the work
//! is not), crossed with the Θ-sweep strategy. The flat sweep is always
//! naive, so the three rows per size separate the two speedups:
//! partitioning (flat → partitioned/naive) and the incremental scan
//! (partitioned/naive → partitioned/incremental).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use rtlb_core::{analyze_ctl, AnalysisOptions, CancelToken, SweepStrategy, SystemModel};
use rtlb_obs::NULL_PROBE;
use rtlb_workloads::independent_tasks;

fn bench_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("partition_ablation");
    group.sample_size(15);
    for &n in &[50usize, 100, 200] {
        let graph = independent_tasks(n, 3, 42);
        let configs = [
            (
                "flat",
                AnalysisOptions {
                    partitioning: false,
                    ..AnalysisOptions::default()
                },
            ),
            (
                "partitioned-naive",
                AnalysisOptions {
                    sweep: SweepStrategy::Naive,
                    ..AnalysisOptions::default()
                },
            ),
            (
                "partitioned-incremental",
                AnalysisOptions {
                    sweep: SweepStrategy::Incremental,
                    ..AnalysisOptions::default()
                },
            ),
        ];
        for (label, options) in configs {
            group.bench_with_input(BenchmarkId::new(label, n), &graph, |b, graph| {
                b.iter(|| {
                    analyze_ctl(
                        black_box(graph),
                        &SystemModel::shared(),
                        options,
                        &NULL_PROBE,
                        &CancelToken::none(),
                    )
                    .unwrap()
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);
