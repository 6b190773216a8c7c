//! Bridges a [`Metrics`] snapshot plus an [`Analysis`] into the
//! versioned [`RunReport`] consumed by the CLI and bench sinks.

use rtlb_graph::TaskGraph;
use rtlb_obs::{
    BoundStat, InstanceStats, Metrics, OwnedLabel, PartitionStat, RunReport, StageStat, ThreadStat,
    WitnessStat,
};

use crate::analysis::{Analysis, AnalysisOptions};
use crate::bounds::CandidatePolicy;
use crate::sweep::SweepStrategy;

use rtlb_obs::Json;

/// The `(key, value)` pairs the run report's `options` section carries
/// for one [`AnalysisOptions`] value.
pub fn options_as_json(options: AnalysisOptions) -> Vec<(String, Json)> {
    vec![
        (
            "sweep".to_owned(),
            Json::str(match options.sweep {
                SweepStrategy::Naive => "naive",
                SweepStrategy::Incremental => "incremental",
            }),
        ),
        (
            "candidates".to_owned(),
            Json::str(match options.candidates {
                CandidatePolicy::EstLct => "est-lct",
                CandidatePolicy::Extended => "extended",
            }),
        ),
        ("jobs".to_owned(), Json::Int(options.parallelism as i64)),
        ("chunk".to_owned(), Json::Int(options.chunk_columns as i64)),
        ("partitioning".to_owned(), Json::Bool(options.partitioning)),
        (
            "propagation".to_owned(),
            Json::str(options.propagation.label()),
        ),
    ]
}

/// Assembles the [`RunReport`] for one probed pipeline run.
///
/// `metrics` must be the snapshot drained from the recorder that was
/// attached to [`analyze_ctl`](crate::analyze_ctl) for the
/// same run; stage, thread, and partition timings are derived from its
/// spans, the structural sections from `graph` and `analysis`. Cost
/// totals start out `None` — callers that run step 4 fill
/// [`RunReport::shared_cost`] / [`RunReport::dedicated_cost`] themselves.
pub fn build_run_report(
    instance_name: &str,
    graph: &TaskGraph,
    options: AnalysisOptions,
    analysis: &Analysis,
    metrics: &Metrics,
) -> RunReport {
    let instance = InstanceStats {
        name: instance_name.to_owned(),
        tasks: graph.task_count() as u64,
        edges: graph.edge_count() as u64,
        resources: graph.resources_used().len() as u64,
    };

    let stages = metrics
        .span_names()
        .into_iter()
        .map(|name| StageStat {
            name: name.to_owned(),
            wall_micros: metrics.total_micros(name),
            spans: metrics.span_count(name),
        })
        .collect();

    let counters = metrics
        .counters
        .iter()
        .map(|&(name, value)| (name.to_owned(), value))
        .collect();

    let threads = (0..metrics.threads)
        .map(|t| ThreadStat {
            thread: t as u64,
            busy_micros: metrics
                .spans
                .iter()
                .filter(|s| s.thread == t && s.name == "sweep.chunk")
                .map(|s| s.dur_micros)
                .sum(),
            spans: metrics.spans.iter().filter(|s| s.thread == t).count() as u64,
        })
        .collect();

    let partitions = analysis
        .partitions()
        .iter()
        .enumerate()
        .map(|(pi, partition)| PartitionStat {
            resource: graph.catalog().name(partition.resource).to_owned(),
            blocks: partition.blocks.len() as u64,
            tasks: partition.task_count() as u64,
            sweep_micros: metrics
                .spans
                .iter()
                .filter(|s| s.name == "sweep.chunk" && s.label == OwnedLabel::Index(pi as u64))
                .map(|s| s.dur_micros)
                .sum(),
        })
        .collect();

    let bounds = analysis
        .bounds()
        .iter()
        .map(|b| BoundStat {
            resource: graph.catalog().name(b.resource).to_owned(),
            lb: u64::from(b.bound),
            witness: b.witness.map(|w| WitnessStat {
                t1: w.t1.ticks(),
                t2: w.t2.ticks(),
                demand: w.demand.ticks(),
            }),
            intervals_examined: b.intervals_examined,
        })
        .collect();

    RunReport {
        instance,
        options: options_as_json(options),
        stages,
        counters,
        threads,
        partitions,
        bounds,
        shared_cost: None,
        dedicated_cost: None,
        profile: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze_ctl;
    use crate::cancel::CancelToken;
    use crate::model::SystemModel;
    use rtlb_graph::{Catalog, Dur, TaskGraphBuilder, TaskSpec, Time};
    use rtlb_obs::{Recorder, REPORT_SCHEMA};

    fn fixture() -> TaskGraph {
        let mut c = Catalog::new();
        let p = c.processor("P");
        let q = c.processor("Q");
        let mut b = TaskGraphBuilder::new(c);
        for i in 0..4 {
            b.add_task(TaskSpec::new(format!("p{i}"), Dur::new(3), p).deadline(Time::new(5)))
                .unwrap();
        }
        b.add_task(TaskSpec::new("q0", Dur::new(2), q).deadline(Time::new(4)))
            .unwrap();
        b.build().unwrap()
    }

    #[test]
    fn report_reflects_pipeline_structure() {
        let g = fixture();
        let options = AnalysisOptions::default();
        let recorder = Recorder::new();
        let analysis = analyze_ctl(
            &g,
            &SystemModel::shared(),
            options,
            &recorder,
            &CancelToken::none(),
        )
        .unwrap();
        let metrics = recorder.take_metrics();
        let report = build_run_report("fixture", &g, options, &analysis, &metrics);

        assert_eq!(report.instance.tasks, 5);
        assert_eq!(report.instance.resources, 2);
        let stage_names: Vec<&str> = report.stages.iter().map(|s| s.name.as_str()).collect();
        for expected in [
            "analyze",
            "analyze.partition",
            "analyze.sweep",
            "analyze.timing",
            "timing.est_pass",
            "timing.lct_pass",
            "sweep.chunk",
            "sweep.worker",
        ] {
            assert!(stage_names.contains(&expected), "missing stage {expected}");
        }
        assert_eq!(report.partitions.len(), 2);
        assert_eq!(report.bounds.len(), 2);
        let p_bound = report.bounds.iter().find(|b| b.resource == "P").unwrap();
        assert_eq!(p_bound.lb, 3); // 12 ticks of work in a 5-tick window
        assert!(p_bound.witness.is_some());
        let offered: u64 = analysis.bounds().iter().map(|b| b.intervals_examined).sum();
        assert_eq!(
            report
                .counters
                .iter()
                .find(|(n, _)| n == "sweep.pairs_offered")
                .map(|&(_, v)| v),
            Some(offered)
        );
        assert_eq!(report.threads.len(), 1);

        let doc = report.to_json();
        assert_eq!(doc.get("schema").unwrap().as_str(), Some(REPORT_SCHEMA));
    }

    #[test]
    fn options_json_round_trips_all_knobs() {
        let options = AnalysisOptions {
            partitioning: false,
            candidates: CandidatePolicy::Extended,
            sweep: SweepStrategy::Naive,
            parallelism: 4,
            chunk_columns: 16,
            propagation: crate::PropagationLevel::Filtered,
        };
        let pairs = options_as_json(options);
        let obj = Json::Obj(pairs.clone());
        assert_eq!(obj.get("sweep").unwrap().as_str(), Some("naive"));
        assert_eq!(obj.get("candidates").unwrap().as_str(), Some("extended"));
        assert_eq!(obj.get("propagation").unwrap().as_str(), Some("filtered"));
        assert_eq!(obj.get("jobs").unwrap().as_int(), Some(4));
        assert_eq!(obj.get("chunk").unwrap().as_int(), Some(16));
        assert_eq!(obj.get("partitioning"), Some(&Json::Bool(false)));
    }
}
