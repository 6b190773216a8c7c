//! E3 — regenerates the paper's Step 3: the resource lower bounds
//! `LB_P1 = 3`, `LB_P2 = 2`, `LB_r1 = 2`, plus the Θ ratios the paper
//! quotes while walking the interval [0, 15].
//!
//! ```sh
//! cargo run -p rtlb-bench --bin step3_bounds
//! ```

use rtlb_bench::{counters_json, write_bench_json, TextTable};
use rtlb_core::{analyze_ctl, theta, AnalysisOptions, CancelToken, SystemModel};
use rtlb_graph::Time;
use rtlb_obs::{Json, Recorder};
use rtlb_workloads::paper_example;

fn main() {
    let ex = paper_example();
    let recorder = Recorder::new();
    let analysis = analyze_ctl(
        &ex.graph,
        &SystemModel::shared(),
        AnalysisOptions::default(),
        &recorder,
        &CancelToken::none(),
    )
    .expect("feasible");

    println!("E3: Step 3 resource lower bounds\n");
    let mut table = TextTable::new(["Resource", "LB (ours)", "LB (paper)", "witness", "match"]);
    for (name, paper_lb) in [("P1", 3u32), ("P2", 2), ("r1", 2)] {
        let r = ex.graph.catalog().lookup(name).expect("resource exists");
        let bound = analysis.bound_for(r).expect("bounded");
        let witness = bound
            .witness
            .map(|w| format!("Θ[{},{}]={}", w.t1, w.t2, w.demand))
            .unwrap_or_else(|| "-".to_owned());
        table.row([
            name.to_owned(),
            bound.bound.to_string(),
            paper_lb.to_string(),
            witness,
            if bound.bound == paper_lb { "yes" } else { "NO" }.to_owned(),
        ]);
    }
    print!("{}", table.render());

    println!("\nQuoted Θ ratios over the first P1 partition [0, 15]:");
    let p1 = ex.graph.catalog().lookup("P1").unwrap();
    let st_p1 = ex.graph.tasks_demanding(p1);
    let mut quoted = TextTable::new(["interval", "Θ (ours)", "Θ (paper)", "ceil ratio"]);
    for (t1, t2, paper_theta) in [(0i64, 3i64, 6i64), (3, 6, 9), (3, 8, 11)] {
        let th = theta(
            &ex.graph,
            analysis.timing(),
            &st_p1,
            Time::new(t1),
            Time::new(t2),
        )
        .ticks();
        let ratio = (th + (t2 - t1) - 1) / (t2 - t1);
        quoted.row([
            format!("[{t1},{t2}]"),
            th.to_string(),
            paper_theta.to_string(),
            ratio.to_string(),
        ]);
    }
    print!("{}", quoted.render());
    println!("\n(The paper reads ⌈6/3⌉ = 2, ⌈9/3⌉ = 3, ⌈11/5⌉ = 3; LB_P1 = 3.)");

    let metrics = recorder.take_metrics();
    let bounds = Json::Arr(
        analysis
            .bounds()
            .iter()
            .map(|b| {
                Json::obj([
                    ("resource", Json::str(ex.graph.catalog().name(b.resource))),
                    ("lb", Json::Int(i64::from(b.bound))),
                    ("intervals_examined", Json::Int(b.intervals_examined as i64)),
                ])
            })
            .collect(),
    );
    let body = vec![
        ("bounds".to_owned(), bounds),
        ("counters".to_owned(), counters_json(&metrics)),
    ];
    match write_bench_json("BENCH_step3.json", "step3-bounds", body) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("\ncould not write BENCH_step3.json: {e}"),
    }
}
