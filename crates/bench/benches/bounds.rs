//! B2 — resource-bound sweep scaling: the full analysis pipeline
//! (EST/LCT + partitioning + interval sweep) on growing task counts,
//! plus the naive-vs-incremental Θ-sweep comparison and the parallel
//! fan-out.
//!
//! `sweep/*` uses a high-load independent-task workload (few, large
//! partition blocks with many candidate points) — the regime where the
//! naive sweep's `O(P²·N)` per block dominates. The summary line at the
//! end prints the measured single-thread speedup on the largest
//! workload.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Instant;

use rtlb_bench::{counters_json, write_bench_json};
use rtlb_core::{
    analyze, analyze_ctl, effective_threads, AnalysisOptions, CancelToken, SweepStrategy,
    SystemModel,
};
use rtlb_obs::{Json, Recorder, NULL_PROBE};
use rtlb_workloads::{independent_tasks, paper_example};

/// Sizes for the strategy comparison; the last is the headline workload.
const SWEEP_SIZES: [usize; 3] = [100, 200, 400];
/// Overlap depth: high load keeps windows overlapping, so the
/// partitioner produces few, large blocks.
const SWEEP_LOAD: u32 = 20;

fn options(sweep: SweepStrategy, parallelism: usize) -> AnalysisOptions {
    AnalysisOptions {
        sweep,
        parallelism,
        ..AnalysisOptions::default()
    }
}

fn bench_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("bounds/pipeline");
    group.sample_size(20);
    for &n in &[25usize, 50, 100, 200] {
        let graph = independent_tasks(n, 3, 11);
        group.bench_with_input(BenchmarkId::from_parameter(n), &graph, |b, graph| {
            b.iter(|| analyze(black_box(graph), &SystemModel::shared()).unwrap())
        });
    }
    group.finish();
}

fn bench_sweep_strategies(c: &mut Criterion) {
    let mut group = c.benchmark_group("bounds/sweep");
    group.sample_size(10);
    for &n in &SWEEP_SIZES {
        let graph = independent_tasks(n, SWEEP_LOAD, 11);
        for (label, sweep) in [
            ("naive", SweepStrategy::Naive),
            ("incremental", SweepStrategy::Incremental),
        ] {
            group.bench_with_input(BenchmarkId::new(label, n), &graph, |b, graph| {
                b.iter(|| {
                    analyze_ctl(
                        black_box(graph),
                        &SystemModel::shared(),
                        options(sweep, 1),
                        &NULL_PROBE,
                        &CancelToken::none(),
                    )
                    .unwrap()
                })
            });
        }
        group.bench_with_input(
            BenchmarkId::new("incremental-allcores", n),
            &graph,
            |b, graph| {
                b.iter(|| {
                    analyze_ctl(
                        black_box(graph),
                        &SystemModel::shared(),
                        options(SweepStrategy::Incremental, 0),
                        &NULL_PROBE,
                        &CancelToken::none(),
                    )
                    .unwrap()
                })
            },
        );
    }
    group.finish();
}

/// Directly measures and prints the single-thread speedup on the largest
/// sweep workload, so a regression is visible without comparing
/// per-benchmark lines by hand, and writes the recorder-backed
/// `BENCH_sweep.json` artifact at the repository root.
fn report_headline_speedup(_c: &mut Criterion) {
    let n = *SWEEP_SIZES.last().unwrap();
    let graph = independent_tasks(n, SWEEP_LOAD, 11);
    let time = |sweep: SweepStrategy, parallelism: usize| {
        let start = Instant::now();
        black_box(
            analyze_ctl(
                &graph,
                &SystemModel::shared(),
                options(sweep, parallelism),
                &NULL_PROBE,
                &CancelToken::none(),
            )
            .unwrap(),
        );
        start.elapsed()
    };
    // Warm both paths once, then measure.
    time(SweepStrategy::Naive, 1);
    time(SweepStrategy::Incremental, 1);
    let naive = time(SweepStrategy::Naive, 1);
    let incremental = time(SweepStrategy::Incremental, 1);
    let allcores = time(SweepStrategy::Incremental, 0);
    println!(
        "bounds/sweep: single-thread speedup on {n} tasks (load {SWEEP_LOAD}): \
         {:.1}x (naive {:?}, incremental {:?})",
        naive.as_secs_f64() / incremental.as_secs_f64().max(1e-9),
        naive,
        incremental,
    );

    // Re-run the headline configuration under the recorder so the
    // artifact carries the pipeline counters alongside the timings.
    let recorder = Recorder::new();
    analyze_ctl(
        &graph,
        &SystemModel::shared(),
        options(SweepStrategy::Incremental, 0),
        &recorder,
        &CancelToken::none(),
    )
    .unwrap();
    let metrics = recorder.take_metrics();

    let micros = |d: std::time::Duration| Json::Int(d.as_micros() as i64);
    let body = vec![
        (
            "workload".to_owned(),
            Json::obj([
                ("tasks", Json::Int(n as i64)),
                ("load", Json::Int(SWEEP_LOAD as i64)),
                ("seed", Json::Int(11)),
            ]),
        ),
        (
            "times_micros".to_owned(),
            Json::obj([
                ("naive", micros(naive)),
                ("incremental", micros(incremental)),
                ("incremental_allcores", micros(allcores)),
            ]),
        ),
        (
            "speedup".to_owned(),
            Json::obj([
                (
                    "incremental_vs_naive",
                    Json::Float(naive.as_secs_f64() / incremental.as_secs_f64().max(1e-9)),
                ),
                (
                    "allcores_vs_serial",
                    Json::Float(incremental.as_secs_f64() / allcores.as_secs_f64().max(1e-9)),
                ),
            ]),
        ),
        ("counters".to_owned(), counters_json(&metrics)),
        // The configured pool size for the all-cores leg. The recorder's
        // own thread count (`threads_observed`) can be smaller: it only
        // counts threads that actually recorded a span, and on a small
        // machine the serial warm-up legs all run on one thread.
        ("threads".to_owned(), Json::Int(effective_threads(0) as i64)),
        (
            "threads_observed".to_owned(),
            Json::Int(metrics.threads as i64),
        ),
        (
            "cores".to_owned(),
            Json::Int(
                std::thread::available_parallelism()
                    .map(|c| c.get() as i64)
                    .unwrap_or(1),
            ),
        ),
    ];
    match write_bench_json("BENCH_sweep.json", "sweep-headline", body) {
        Ok(path) => println!("bounds/sweep: wrote {}", path.display()),
        Err(e) => eprintln!("bounds/sweep: could not write BENCH_sweep.json: {e}"),
    }
}

fn bench_paper_example(c: &mut Criterion) {
    let ex = paper_example();
    c.bench_function("bounds/paper_example_full", |b| {
        b.iter(|| analyze(black_box(&ex.graph), &SystemModel::shared()).unwrap())
    });
}

criterion_group!(
    benches,
    bench_pipeline,
    bench_sweep_strategies,
    report_headline_speedup,
    bench_paper_example
);
criterion_main!(benches);
