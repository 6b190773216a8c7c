//! The `rtlb` benchmark: one command per workload and seed.
//!
//! ```sh
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The benchmark generates the workload's inputs from `--seed` with
//! `rtlb-workloads`, renders them to instance text, drives the text
//! through the program's public entry points for `--seconds`, checks
//! every output, and prints its figures. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`). The exit code is 0 only when every check
//! passed.
//!
//! Workloads (see `README.md` beside this crate for why each exists):
//! `pipeline_timeline`, `pipeline_filtered`, `serve_mix`,
//! `batch_corpus`.

mod alloc;
mod batch;
mod corpus;
mod pipeline;
mod report;
mod serve;
mod speed;
mod trace;

use std::process::ExitCode;

use rtlb_core::PropagationLevel;

use report::{Outcome, END_TO_END};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// The command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

const USAGE: &str = "usage: rtlb-benchmark --workload <pipeline_timeline|pipeline_filtered|serve_mix|batch_corpus> [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 28,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("rtlb-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "pipeline_timeline" => pipeline::run(&args, PropagationLevel::Timeline),
        "pipeline_filtered" => pipeline::run(&args, PropagationLevel::Filtered),
        "serve_mix" => serve::run(&args),
        "batch_corpus" => batch::run(&args),
        other => Err(format!("unknown workload `{other}`\n{USAGE}")),
    };
    match outcome {
        Ok(outcome) => finish(&args, outcome),
        Err(e) => {
            eprintln!("rtlb-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Prints the notes, every metric by name and unit, the failed checks,
/// and the result line.
fn finish(args: &Args, mut out: Outcome) -> ExitCode {
    let metrics = if args.trace {
        report::per_layer()
    } else {
        END_TO_END.to_vec()
    };
    let failed_ratio = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "workload={} seed={} seconds={} trace={} attempted={} failed={} failed_ratio={failed_ratio}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        out.attempted,
        out.failed
    );
    for note in &out.notes {
        println!("  {note}");
    }
    let mut fields = Vec::new();
    for (name, unit) in metrics {
        let value = match out.values.get(name) {
            Some(v) if v.is_finite() => *v,
            Some(v) => {
                out.problems.push(format!("metric {name} is {v}"));
                0.0
            }
            // A per-layer metric of a layer this workload never calls.
            None if args.trace => 0.0,
            None => {
                out.problems.push(format!("metric {name} was not measured"));
                0.0
            }
        };
        println!("  {name} = {value} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    for problem in out.problems.iter().take(20) {
        println!("  CHECK FAILED: {problem}");
    }
    let correct = out.problems.is_empty() && out.failed == 0 && out.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
