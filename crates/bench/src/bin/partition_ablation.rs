//! E9 — Theorem 5 ablation: the Figure 4 partitioning must leave every
//! bound unchanged while shrinking the number of candidate intervals the
//! sweep examines (and hence analysis time).
//!
//! ```sh
//! cargo run -p rtlb-bench --bin partition_ablation
//! ```

use std::time::Instant;

use rtlb_bench::{counters_json, write_bench_json, TextTable};
use rtlb_core::{analyze_ctl, AnalysisOptions, CancelToken, SystemModel};
use rtlb_obs::{Json, Recorder, NULL_PROBE};
use rtlb_workloads::independent_tasks;

fn main() {
    println!("E9: partitioning ablation (Theorem 5)\n");
    let mut rows: Vec<Json> = Vec::new();
    let mut table = TextTable::new([
        "tasks",
        "intervals (flat)",
        "intervals (partitioned)",
        "reduction",
        "time flat",
        "time partitioned",
        "bounds equal",
    ]);

    for &n in &[20usize, 40, 80, 160, 320] {
        // Load 3 keeps windows overlapping in runs, so partitions form
        // but are non-trivial.
        let graph = independent_tasks(n, 3, 42);

        let t0 = Instant::now();
        let flat = analyze_ctl(
            &graph,
            &SystemModel::shared(),
            AnalysisOptions {
                partitioning: false,
                ..AnalysisOptions::default()
            },
            &NULL_PROBE,
            &CancelToken::none(),
        )
        .expect("feasible");
        let flat_time = t0.elapsed();

        let recorder = Recorder::new();
        let t0 = Instant::now();
        let part = analyze_ctl(
            &graph,
            &SystemModel::shared(),
            AnalysisOptions::default(),
            &recorder,
            &CancelToken::none(),
        )
        .expect("feasible");
        let part_time = t0.elapsed();
        let metrics = recorder.take_metrics();

        let flat_intervals: u64 = flat.bounds().iter().map(|b| b.intervals_examined).sum();
        let part_intervals: u64 = part.bounds().iter().map(|b| b.intervals_examined).sum();
        let equal = flat
            .bounds()
            .iter()
            .zip(part.bounds())
            .all(|(a, b)| a.bound == b.bound);

        table.row([
            n.to_string(),
            flat_intervals.to_string(),
            part_intervals.to_string(),
            format!(
                "{:.1}x",
                flat_intervals as f64 / part_intervals.max(1) as f64
            ),
            format!("{:.2?}", flat_time),
            format!("{:.2?}", part_time),
            if equal { "yes" } else { "NO" }.to_owned(),
        ]);
        assert!(equal, "Theorem 5 violated at n = {n}");

        rows.push(Json::obj([
            ("tasks", Json::Int(n as i64)),
            ("intervals_flat", Json::Int(flat_intervals as i64)),
            ("intervals_partitioned", Json::Int(part_intervals as i64)),
            ("micros_flat", Json::Int(flat_time.as_micros() as i64)),
            (
                "micros_partitioned",
                Json::Int(part_time.as_micros() as i64),
            ),
            ("bounds_equal", Json::Bool(equal)),
            ("counters", counters_json(&metrics)),
        ]));
    }

    print!("{}", table.render());
    println!(
        "\nPartitioning preserves every LB_r (Theorem 5) while cutting the\n\
         interval sweep roughly by the square of the number of blocks."
    );

    let body = vec![("rows".to_owned(), Json::Arr(rows))];
    match write_bench_json("BENCH_partition_ablation.json", "partition-ablation", body) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("\ncould not write BENCH_partition_ablation.json: {e}"),
    }
}
