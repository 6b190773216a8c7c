//! Golden-file tests for the `rtlb-report-v1` JSON document: both
//! shipped instances must produce exactly the pinned report (field
//! names, counters, partition/bound sections) once every wall-clock
//! field is normalized to zero.
//!
//! To re-bless after a deliberate schema or counter change:
//!
//! ```sh
//! BLESS=1 cargo test --test golden_report
//! ```
//!
//! and explain the drift in the commit message.

use rtlb::core::{analyze_ctl, build_run_report, AnalysisOptions, CancelToken, SystemModel};
use rtlb::obs::{MetricsRegistry, MetricsSnapshot, Recorder, METRICS_SCHEMA, REPORT_SCHEMA};

/// Builds the normalized report JSON for one shipped instance under
/// default options (serial sweep, so span counts are deterministic).
fn normalized_report(name: &str) -> String {
    let path = format!(
        "{}/examples/instances/{name}.rtlb",
        env!("CARGO_MANIFEST_DIR")
    );
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let parsed = rtlb::format::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"));

    let options = AnalysisOptions::default();
    let recorder = Recorder::new();
    let analysis = analyze_ctl(
        &parsed.graph,
        &SystemModel::shared(),
        options,
        &recorder,
        &CancelToken::none(),
    )
    .expect("shipped instances analyze");
    let shared = parsed
        .shared_costs
        .as_ref()
        .map(|m| analysis.shared_cost_probed(m, &recorder).unwrap().total);
    let dedicated = parsed.node_types.as_ref().map(|m| {
        analysis
            .dedicated_cost_probed(&parsed.graph, m, &recorder)
            .unwrap()
            .total
    });

    let metrics = recorder.take_metrics();
    let mut report = build_run_report(
        &format!("{name}.rtlb"),
        &parsed.graph,
        options,
        &analysis,
        &metrics,
    );
    report.shared_cost = shared;
    report.dedicated_cost = dedicated;
    report.normalize();
    report.to_json().pretty() + "\n"
}

fn check(name: &str) {
    let actual = normalized_report(name);

    // Structural sanity independent of the pinned text, for readable
    // failures.
    let doc = rtlb::obs::json::parse(&actual).expect("report is valid JSON");
    assert_eq!(doc.get("schema").unwrap().as_str(), Some(REPORT_SCHEMA));
    for section in [
        "schema",
        "instance",
        "options",
        "stages",
        "counters",
        "threads",
        "partitions",
        "bounds",
        "cost",
    ] {
        assert!(doc.get(section).is_some(), "{name}: missing `{section}`");
    }

    let golden_path = format!(
        "{}/tests/golden/{name}.report.json",
        env!("CARGO_MANIFEST_DIR")
    );
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&golden_path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&golden_path)
        .unwrap_or_else(|e| panic!("{golden_path}: {e} (run with BLESS=1 to create)"));
    assert_eq!(
        actual, expected,
        "{name}: normalized report drifted from {golden_path}"
    );
}

/// Builds the normalized `rtlb-metrics-v1` JSON for one shipped
/// instance: the full pipeline (analysis plus both step-4 cost passes)
/// run against a [`MetricsRegistry`] probe, snapshotted and normalized
/// so only deterministic data values and span counts remain.
fn normalized_metrics(name: &str) -> String {
    let path = format!(
        "{}/examples/instances/{name}.rtlb",
        env!("CARGO_MANIFEST_DIR")
    );
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let parsed = rtlb::format::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"));

    let options = AnalysisOptions::default();
    let registry = MetricsRegistry::new();
    let analysis = analyze_ctl(
        &parsed.graph,
        &SystemModel::shared(),
        options,
        &registry,
        &CancelToken::none(),
    )
    .expect("shipped instances analyze");
    if let Some(m) = parsed.shared_costs.as_ref() {
        analysis.shared_cost_probed(m, &registry).unwrap();
    }
    if let Some(m) = parsed.node_types.as_ref() {
        analysis
            .dedicated_cost_probed(&parsed.graph, m, &registry)
            .unwrap();
    }

    let mut snapshot = registry.snapshot();
    snapshot.normalize();
    snapshot.to_json().pretty() + "\n"
}

fn check_metrics(name: &str) {
    let actual = normalized_metrics(name);

    // The export must satisfy its own validating parser before any
    // golden comparison, so a malformed document names the rule it
    // broke instead of producing a wall-of-JSON diff.
    let doc = rtlb::obs::json::parse(&actual).expect("metrics export is valid JSON");
    assert_eq!(doc.get("schema").unwrap().as_str(), Some(METRICS_SCHEMA));
    MetricsSnapshot::from_json(&doc)
        .unwrap_or_else(|e| panic!("{name}: metrics export rejected by its own parser: {e}"));

    let golden_path = format!(
        "{}/tests/golden/{name}.metrics.json",
        env!("CARGO_MANIFEST_DIR")
    );
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&golden_path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&golden_path)
        .unwrap_or_else(|e| panic!("{golden_path}: {e} (run with BLESS=1 to create)"));
    assert_eq!(
        actual, expected,
        "{name}: normalized metrics drifted from {golden_path}"
    );
}

#[test]
fn paper_fig7_report_golden() {
    check("paper_fig7");
}

#[test]
fn sensor_fusion_report_golden() {
    check("sensor_fusion");
}

#[test]
fn paper_fig7_metrics_golden() {
    check_metrics("paper_fig7");
}

#[test]
fn sensor_fusion_metrics_golden() {
    check_metrics("sensor_fusion");
}

/// The pinned counters, asserted directly so a drift names the counter
/// rather than a JSON diff line.
#[test]
fn paper_fig7_counters() {
    let actual = normalized_report("paper_fig7");
    let doc = rtlb::obs::json::parse(&actual).unwrap();
    let counters = doc.get("counters").unwrap();
    for (name, value) in [
        ("partition.blocks", 10),
        ("partition.resources", 3),
        ("partition.tasks", 22),
        ("sweep.blocks", 10),
        ("sweep.jobs", 10),
        ("sweep.pairs_offered", 33),
        ("timing.merge_candidates", 16),
        ("timing.merges_accepted", 12),
    ] {
        assert_eq!(
            counters.get(name).and_then(|v| v.as_int()),
            Some(value),
            "counter {name}"
        );
    }
}
