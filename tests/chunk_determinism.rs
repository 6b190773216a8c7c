//! Deterministic-merge regression test for the chunked Θ-sweep: the
//! parallel path must not only compute the same bounds as the serial
//! path, its versioned `rtlb-report-v1` document must be byte-identical
//! run to run even though the OS schedules the worker threads
//! differently every time.
//!
//! Which worker picks up which chunk is the one nondeterministic input,
//! so the reports are pinned after [`RunReport::normalize_schedule`]
//! (zero wall-clock, per-thread rows collapsed to a total); everything
//! else — bounds, witnesses, every counter including
//! `sweep.events_processed` and `sweep.chunk_events`, span counts,
//! partition shapes — must already be stable because chunk maxima are
//! merged in ascending-`t1` order regardless of completion order.

use rtlb::core::{
    analyze_ctl, build_run_report, AnalysisOptions, CancelToken, SweepStrategy, SystemModel,
};
use rtlb::obs::Recorder;
use rtlb::workloads::independent_tasks;

/// Worker count for the parallel legs; `RTLB_TEST_JOBS` overrides the
/// default of 8 so CI can pin a 2-core leg.
fn test_jobs() -> usize {
    std::env::var("RTLB_TEST_JOBS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(8)
}

/// One instrumented run on the 400-task golden bench instance,
/// rendered as schedule-normalized report JSON.
fn chunked_report(parallelism: usize, chunk_columns: usize) -> String {
    let graph = independent_tasks(400, 20, 11);
    let options = AnalysisOptions {
        sweep: SweepStrategy::Incremental,
        parallelism,
        chunk_columns,
        ..AnalysisOptions::default()
    };
    let recorder = Recorder::new();
    let analysis = analyze_ctl(
        &graph,
        &SystemModel::shared(),
        options,
        &recorder,
        &CancelToken::none(),
    )
    .expect("bench instance analyzes");
    let metrics = recorder.take_metrics();
    let mut report = build_run_report("independent_400", &graph, options, &analysis, &metrics);
    report.normalize_schedule();
    report.to_json().pretty()
}

#[test]
fn twenty_parallel_runs_are_byte_identical() {
    let jobs = test_jobs();
    let first = chunked_report(jobs, 0);
    for run in 1..20 {
        let next = chunked_report(jobs, 0);
        assert_eq!(
            first, next,
            "run {run} at --jobs={jobs} drifted from run 0 (nondeterministic merge?)"
        );
    }
}

#[test]
fn parallel_report_matches_serial_except_pool_shape() {
    let jobs = test_jobs();
    let serial = chunked_report(1, 0);
    let parallel = chunked_report(jobs, 0);
    let serial_doc = rtlb::obs::json::parse(&serial).unwrap();
    let parallel_doc = rtlb::obs::json::parse(&parallel).unwrap();
    // Bounds and counters that measure sweep *work* (not job shape) are
    // identical; only the chunk plan and the `jobs` option differ.
    assert_eq!(serial_doc.get("bounds"), parallel_doc.get("bounds"));
    assert_eq!(serial_doc.get("partitions"), parallel_doc.get("partitions"));
    for counter in ["sweep.pairs_offered", "sweep.events_processed"] {
        assert_eq!(
            serial_doc.get("counters").unwrap().get(counter),
            parallel_doc.get("counters").unwrap().get(counter),
            "counter {counter} must not depend on the worker pool"
        );
    }
}
