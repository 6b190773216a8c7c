//! Integration and property tests for the fleet-telemetry surface:
//! the sharded [`MetricsRegistry`], the batch heartbeat emitter, and
//! the normalized `rtlb-metrics-v1` / `rtlb-profile-v1` exports.
//!
//! Three invariants anchor the layer:
//!
//! 1. **Interleaving independence** — the merged snapshot of a registry
//!    driven from many threads equals the snapshot of the same ops
//!    applied sequentially, because every merge (counter sum, gauge
//!    max, bucketwise histogram add) is commutative.
//! 2. **Probe invisibility** — a batch run with a registry attached is
//!    bit-identical to the null-probe run, outcome for outcome.
//! 3. **Export determinism** — normalized metrics and profile JSON are
//!    byte-identical across repeated runs at every pool shape.

use std::path::Path;

use proptest::prelude::*;

use rtlb::batch::{
    run_batch, run_batch_probed, BatchOptions, HeartbeatOptions, BATCH_SCHEMA, HEARTBEAT_SCHEMA,
    OUTCOME_KINDS,
};
use rtlb::core::{analyze_ctl, AnalysisOptions, CancelToken, ResourceBound, SystemModel};
use rtlb::obs::{prometheus_text, MetricsRegistry, MetricsSnapshot, PhaseProfile, NULL_PROBE};
use rtlb::workloads::independent_tasks;

/// The static metric names the interleaving property draws from.
const NAMES: [&str; 4] = ["alpha", "beta", "gamma", "delta"];

/// One generated registry operation: `(kind, name index, value)` where
/// kind 0 is `counter_add`, 1 is `gauge_set`, anything else is
/// `observe_value`.
type Op = (u8, usize, u64);

fn apply(registry: &MetricsRegistry, ops: &[Op]) {
    for &(kind, name_idx, value) in ops {
        let name = NAMES[name_idx % NAMES.len()];
        match kind {
            0 => registry.counter_add(name, value),
            1 => registry.gauge_set(name, value as i64),
            _ => registry.observe_value(name, value),
        }
    }
}

proptest! {
    /// The merged snapshot must not depend on how ops interleave across
    /// threads: running each per-thread script concurrently (twice, in
    /// different spawn orders, so the thread-to-shard assignment and the
    /// interleaving both vary) produces exactly the snapshot of the same
    /// ops applied one after another on a single thread.
    #[test]
    fn shard_merge_is_interleaving_independent(
        scripts in proptest::collection::vec(
            proptest::collection::vec(
                (0u8..3, 0usize..NAMES.len(), 0u64..1_000_000),
                0..40,
            ),
            1..5,
        ),
    ) {
        let sequential = MetricsRegistry::new();
        for script in &scripts {
            apply(&sequential, script);
        }
        let expected = sequential.snapshot();

        for reverse in [false, true] {
            let threaded = MetricsRegistry::new();
            let reg = &threaded;
            std::thread::scope(|s| {
                let mut order: Vec<&Vec<Op>> = scripts.iter().collect();
                if reverse {
                    order.reverse();
                }
                for script in order {
                    s.spawn(move || apply(reg, script));
                }
            });
            prop_assert_eq!(&threaded.snapshot(), &expected, "reverse={}", reverse);
        }
    }
}

/// One instance outcome minus its wall-clock micros: path, kind label,
/// failure detail, and the reported bounds.
type OutcomeShape = (
    String,
    &'static str,
    Option<String>,
    Vec<(String, ResourceBound)>,
);

/// Projects a batch report onto its deterministic fields (everything
/// except wall-clock micros).
fn outcome_shape(report: &rtlb::batch::BatchReport) -> Vec<OutcomeShape> {
    report
        .instances
        .iter()
        .map(|i| {
            (
                i.path.display().to_string(),
                i.kind.label(),
                i.detail.clone(),
                i.bounds.clone(),
            )
        })
        .collect()
}

/// A batch run with the sharded registry attached must be bit-identical
/// to the null-probe run, and the registry's outcome counters must
/// agree with the report itself.
#[test]
fn batch_with_registry_is_bit_identical_to_null_probe() {
    let target = Path::new("examples/batch");
    let options = BatchOptions {
        jobs: 2,
        ..BatchOptions::default()
    };

    let plain = run_batch_probed(target, &options, &NULL_PROBE).unwrap();
    let registry = MetricsRegistry::new();
    let probed = run_batch_probed(target, &options, &registry).unwrap();

    assert_eq!(outcome_shape(&plain), outcome_shape(&probed));
    assert_eq!(
        plain.to_json().get("schema").unwrap().as_str(),
        Some(BATCH_SCHEMA)
    );

    let snapshot = registry.snapshot();
    assert_eq!(
        snapshot.counter("batch.instances"),
        probed.instances.len() as u64
    );
    for kind in OUTCOME_KINDS {
        let name = format!("batch.outcome.{}", kind.label().replace('-', "_"));
        assert_eq!(
            snapshot.counter(&name),
            probed.count(kind) as u64,
            "counter {name}"
        );
    }
    let per_instance = snapshot
        .histogram("batch.instance_micros")
        .expect("per-instance wall-time histogram");
    assert_eq!(per_instance.count, probed.instances.len() as u64);
}

/// With a heartbeat configured, the batch must append at least one
/// versioned `rtlb-heartbeat-v1` JSON line, and the final line must
/// report every instance done with nothing in flight.
#[test]
fn heartbeat_jsonl_is_versioned_and_reports_completion() {
    let dir = std::env::temp_dir().join(format!("rtlb-telemetry-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = dir.join("heartbeat.jsonl");

    let options = BatchOptions {
        jobs: 2,
        heartbeat: Some(HeartbeatOptions {
            interval_secs: 1,
            out: Some(out.clone()),
        }),
        ..BatchOptions::default()
    };
    let report = run_batch(Path::new("examples/batch"), &options).unwrap();

    let text = std::fs::read_to_string(&out).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert!(
        !lines.is_empty(),
        "at least one heartbeat line is guaranteed"
    );
    for line in &lines {
        let doc = rtlb::obs::json::parse(line).unwrap_or_else(|e| panic!("bad line {line:?}: {e}"));
        assert_eq!(doc.get("schema").unwrap().as_str(), Some(HEARTBEAT_SCHEMA));
        for field in [
            "elapsed_micros",
            "done",
            "total",
            "counts",
            "in_flight",
            "stragglers",
        ] {
            assert!(doc.get(field).is_some(), "missing `{field}` in {line}");
        }
    }

    let last = rtlb::obs::json::parse(lines.last().unwrap()).unwrap();
    assert_eq!(
        last.get("done").unwrap().as_int(),
        Some(report.instances.len() as i64)
    );
    assert_eq!(last.get("in_flight").unwrap().as_int(), Some(0));

    std::fs::remove_dir_all(&dir).ok();
}

/// Normalized metrics and Prometheus exports of a batch run must be
/// byte-identical across repeated runs at every pool shape (serial, two
/// workers, all cores): wall-clock is zeroed, every other field is a
/// deterministic function of the inputs.
#[test]
fn normalized_batch_exports_are_byte_identical_across_runs() {
    for jobs in [1usize, 2, 0] {
        let run = || {
            let registry = MetricsRegistry::new();
            let options = BatchOptions {
                jobs,
                ..BatchOptions::default()
            };
            run_batch_probed(Path::new("examples/batch"), &options, &registry).unwrap();
            let mut snapshot = registry.snapshot();
            snapshot.normalize();
            (snapshot.to_json().pretty(), prometheus_text(&snapshot))
        };
        let (json_a, prom_a) = run();
        let (json_b, prom_b) = run();
        assert_eq!(
            json_a, json_b,
            "jobs={jobs}: metrics JSON drifted between runs"
        );
        assert_eq!(
            prom_a, prom_b,
            "jobs={jobs}: Prometheus text drifted between runs"
        );

        let doc = rtlb::obs::json::parse(&json_a).unwrap();
        MetricsSnapshot::from_json(&doc).expect("export passes its own validator");
    }
}

/// The normalized phase profile of an analysis run must likewise be
/// byte-identical across repeated runs at every thread count.
#[test]
fn normalized_profile_is_byte_identical_across_runs() {
    for threads in [1usize, 2, 0] {
        let run = || {
            let graph = independent_tasks(30, 4, 7);
            let registry = MetricsRegistry::new();
            let options = AnalysisOptions {
                parallelism: threads,
                ..AnalysisOptions::default()
            };
            analyze_ctl(
                &graph,
                &SystemModel::shared(),
                options,
                &registry,
                &CancelToken::none(),
            )
            .unwrap();
            let mut snapshot = registry.snapshot();
            snapshot.normalize();
            let mut profile = PhaseProfile::from_snapshot(&snapshot);
            profile.normalize();
            profile.to_json().pretty()
        };
        assert_eq!(
            run(),
            run(),
            "threads={threads}: normalized profile drifted between runs"
        );
    }
}
