//! End-to-end tests of the fault-isolated `rtlb batch` driver.
//!
//! The committed `examples/batch/` directory mixes three healthy
//! instances (two small ones and the blessed 400-task dense mesh) with
//! a malformed file, an infeasible instance, and one whose
//! magnitudes overflow the exact arithmetic. A batch run must classify
//! every one, never panic, and report healthy bounds bit-identical to
//! `rtlb analyze` on the same file.

use std::path::Path;

use rtlb::batch::{run_batch, BatchOptions, BatchReport, OutcomeKind};
use rtlb::core::{analyze_ctl, AnalysisOptions, CancelToken, SystemModel};
use rtlb::obs::{Json, NULL_PROBE};

const MIXED_DIR: &str = "examples/batch";

fn outcome_of(report: &BatchReport, file: &str) -> OutcomeKind {
    report
        .instances
        .iter()
        .find(|i| i.path.file_name().is_some_and(|n| n == file))
        .unwrap_or_else(|| panic!("{file} missing from the report"))
        .kind
}

#[test]
fn mixed_directory_isolates_every_failure() {
    let report = run_batch(Path::new(MIXED_DIR), &BatchOptions::default()).unwrap();
    assert_eq!(report.instances.len(), 6);
    assert_eq!(outcome_of(&report, "good_pipeline.rtlb"), OutcomeKind::Ok);
    assert_eq!(outcome_of(&report, "good_fanout.rtlb"), OutcomeKind::Ok);
    assert_eq!(outcome_of(&report, "dense_mesh.rtlb"), OutcomeKind::Ok);
    assert_eq!(
        outcome_of(&report, "malformed.rtlb"),
        OutcomeKind::ParseError
    );
    assert_eq!(
        outcome_of(&report, "infeasible.rtlb"),
        OutcomeKind::Infeasible
    );
    assert_eq!(outcome_of(&report, "overflow.rtlb"), OutcomeKind::Overflow);
    // Failed instances carry a human-readable detail, healthy ones don't.
    for i in &report.instances {
        assert_eq!(i.detail.is_none(), i.kind == OutcomeKind::Ok, "{i:?}");
    }
    // Exit policy: three untolerated failures by default, zero once each
    // expected class is tolerated.
    assert_eq!(report.violations(&[]), 3);
    assert_eq!(
        report.violations(&[
            OutcomeKind::ParseError,
            OutcomeKind::Infeasible,
            OutcomeKind::Overflow,
        ]),
        0
    );
}

/// Healthy instances must produce bounds bit-identical to the standalone
/// `analyze` pipeline, whether the batch runs serially or fanned out.
#[test]
fn healthy_instances_match_analyze_bit_for_bit() {
    for jobs in [1, 4] {
        let options = BatchOptions {
            jobs,
            ..BatchOptions::default()
        };
        let report = run_batch(Path::new(MIXED_DIR), &options).unwrap();
        let healthy: Vec<_> = report
            .instances
            .iter()
            .filter(|i| i.kind == OutcomeKind::Ok)
            .collect();
        assert_eq!(healthy.len(), 3);
        for instance in healthy {
            let text = std::fs::read_to_string(&instance.path).unwrap();
            let parsed = rtlb::format::parse(&text).unwrap();
            let scratch = analyze_ctl(
                &parsed.graph,
                &SystemModel::shared(),
                AnalysisOptions::default(),
                &NULL_PROBE,
                &CancelToken::none(),
            )
            .unwrap();
            let expected: Vec<(String, _)> = scratch
                .bounds()
                .iter()
                .map(|b| (parsed.graph.catalog().name(b.resource).to_owned(), *b))
                .collect();
            assert_eq!(
                instance.bounds,
                expected,
                "{} at jobs={jobs}",
                instance.path.display()
            );
        }
    }
}

/// An already-expired per-instance deadline turns every analyzable
/// instance into a `timeout` outcome; files that fail before the
/// pipeline's first checkpoint keep their own classification.
#[test]
fn expired_deadline_times_out_per_instance() {
    let options = BatchOptions {
        timeout_ms: Some(0),
        ..BatchOptions::default()
    };
    let report = run_batch(Path::new(MIXED_DIR), &options).unwrap();
    assert_eq!(
        outcome_of(&report, "good_pipeline.rtlb"),
        OutcomeKind::Timeout
    );
    assert_eq!(
        outcome_of(&report, "good_fanout.rtlb"),
        OutcomeKind::Timeout
    );
    assert_eq!(outcome_of(&report, "dense_mesh.rtlb"), OutcomeKind::Timeout);
    assert_eq!(outcome_of(&report, "infeasible.rtlb"), OutcomeKind::Timeout);
    // Parsing happens before the token is consulted; the magnitude guard
    // rejects the overflow instance before the first checkpoint.
    assert_eq!(
        outcome_of(&report, "malformed.rtlb"),
        OutcomeKind::ParseError
    );
    assert_eq!(outcome_of(&report, "overflow.rtlb"), OutcomeKind::Overflow);
    assert_eq!(report.violations(&[OutcomeKind::Timeout]), 2);
}

/// A manifest file lists instances one per line (comments and blanks
/// skipped); an unreadable entry is a `parse-error` row, not a crash.
#[test]
fn manifest_drives_the_batch() {
    let dir = std::env::temp_dir().join(format!("rtlb-batch-manifest-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let good = std::fs::canonicalize("examples/batch/good_pipeline.rtlb").unwrap();
    let manifest = dir.join("batch.list");
    std::fs::write(
        &manifest,
        format!(
            "# one healthy, one missing\n\n{}\nmissing.rtlb\n",
            good.display()
        ),
    )
    .unwrap();

    let report = run_batch(&manifest, &BatchOptions::default()).unwrap();
    assert_eq!(report.instances.len(), 2);
    assert_eq!(report.instances[0].kind, OutcomeKind::Ok);
    assert_eq!(report.instances[1].kind, OutcomeKind::ParseError);
    let detail = report.instances[1].detail.as_deref().unwrap();
    assert!(detail.contains("cannot read"), "{detail}");

    std::fs::remove_dir_all(&dir).ok();
}

/// A directory with no instances is a driver error, not an empty report.
#[test]
fn empty_directory_is_a_driver_error() {
    let dir = std::env::temp_dir().join(format!("rtlb-batch-empty-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let err = run_batch(&dir, &BatchOptions::default()).unwrap_err();
    assert!(err.contains("no .rtlb instances"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// The JSON report is versioned and carries one structured row per
/// instance plus aggregate counters for every outcome class.
#[test]
fn json_report_has_the_v1_shape() {
    let report = run_batch(Path::new(MIXED_DIR), &BatchOptions::default()).unwrap();
    let doc = report.to_json();
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("rtlb-batch-v1")
    );
    assert_eq!(doc.get("total").and_then(Json::as_int), Some(6));

    let counts = doc.get("counts").unwrap();
    for (label, expect) in [
        ("ok", 3),
        ("parse-error", 1),
        ("infeasible", 1),
        ("overflow", 1),
        ("timeout", 0),
        ("panicked", 0),
    ] {
        assert_eq!(
            counts.get(label).and_then(Json::as_int),
            Some(expect),
            "{label}"
        );
    }

    let rows = doc.get("instances").and_then(Json::as_arr).unwrap();
    assert_eq!(rows.len(), 6);
    for row in rows {
        assert!(row.get("path").and_then(Json::as_str).is_some());
        let outcome = row.get("outcome").and_then(Json::as_str).unwrap();
        assert!(row.get("micros").and_then(Json::as_int).is_some());
        // Bounds appear exactly on healthy rows, with the full witness.
        assert_eq!(row.get("bounds").is_some(), outcome == "ok");
        if let Some(bounds) = row.get("bounds").and_then(Json::as_arr) {
            assert!(!bounds.is_empty());
            for b in bounds {
                assert!(b.get("resource").and_then(Json::as_str).is_some());
                assert!(b.get("lb").and_then(Json::as_int).is_some());
                assert!(b.get("intervals_examined").and_then(Json::as_int).is_some());
                assert!(b.get("witness").is_some());
            }
        }
    }
}
