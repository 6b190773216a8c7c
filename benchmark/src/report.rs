//! Metric names, statistics and the result line.
//!
//! The lists below are the ones `BENCHMARK.json` declares: a run with
//! `--trace 0` prints every end-to-end metric, a run with `--trace 1`
//! every per-layer metric (a layer a workload does not exercise reads
//! 0).

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::trace::Tracer;

/// End-to-end metrics, printed on every workload, every time scaled to
/// reference host speed (see `speed.rs`). On `serve_mix` the latency
/// percentiles are those of the `delta` requests (the one-shot `analyze`
/// percentiles are printed as notes); on `batch_corpus` they are one
/// `run_batch` call's wall time per file.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Layers timed from the benchmark's own code; each reports
/// `<layer>.busy_ms` and `<layer>.allocs`.
pub const LAYERS: [&str; 16] = [
    "format.parse",
    "format.key",
    "serve.decode",
    "serve.encode",
    "io.read",
    "core.timing",
    "core.partition",
    "core.sweep",
    "core.propagate",
    "core.cost",
    "core.render",
    "core.session.open",
    "core.session.apply",
    "serve.pool",
    "cache",
    "batch",
];

/// Exact counts: the program's own counters (read through a public
/// `Recorder`, the daemon's `stats` op or `run_batch_probed`) and sizes
/// the benchmark measures itself.
pub const COUNTS: [(&str, &str); 15] = [
    ("format.parse.bytes", "bytes"),
    ("serve.decode.bytes", "bytes"),
    ("timing.merges_accepted", "count"),
    ("timeline.unions", "count"),
    ("partition.max_block_tasks", "count"),
    ("sweep.events_processed", "count"),
    ("sweep.pairs_offered", "count"),
    ("propagate.capacities_refuted", "count"),
    ("propagate.blocks_skipped", "count"),
    ("session.blocks_reused", "count"),
    ("session.blocks_resweeped", "count"),
    ("serve.session_rebuilds", "count"),
    ("cache.hit", "count"),
    ("cache.miss", "count"),
    ("cache.dedup", "count"),
];

/// Ratios and times derived from the layers and from live phases.
pub const DERIVED: [(&str, &str); 10] = [
    ("core.propagate.useful_ratio", "ratio"),
    ("core.propagate.span_ms", "ms"),
    ("core.session.reuse_ratio", "ratio"),
    ("serve.delta_p50_us", "us"),
    ("serve.delta_p99_us", "us"),
    ("serve.delta_wait_us", "us"),
    ("batch.driver_overhead_ratio", "ratio"),
    ("obs.traced_ms", "ms"),
    ("obs.unattributed_ratio", "ratio"),
    ("obs.trace_overhead_ratio", "ratio"),
];

/// What one run found: its counts, its metric values, and every failed
/// check by description.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub notes: Vec<String>,
    pub values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Books a traced pass: every layer, count and derived value, plus
    /// the accounting self-check (layer busy times cover the traced
    /// request path within a tenth).
    pub fn take_layers(&mut self, tracer: &Tracer, untraced: Duration) {
        for layer in LAYERS {
            let busy = leak(format!("{layer}.busy_ms"));
            let allocs = leak(format!("{layer}.allocs"));
            self.values.insert(busy, tracer.busy_ms(layer));
            self.values.insert(allocs, tracer.allocs(layer) as f64);
        }
        for (name, _) in COUNTS {
            self.values.insert(name, tracer.counter(name) as f64);
        }
        let traced = tracer.traced.as_secs_f64();
        let attributed = tracer.attributed().as_secs_f64();
        let unattributed = if traced > 0.0 {
            (traced - attributed) / traced
        } else {
            0.0
        };
        self.values.insert("obs.traced_ms", traced * 1e3);
        self.values.insert("obs.unattributed_ratio", unattributed);
        self.values.insert(
            "obs.trace_overhead_ratio",
            traced / untraced.as_secs_f64().max(1e-9),
        );
        self.check(unattributed.abs() <= 0.1, || {
            format!(
                "layer busy times account for {:.1} of {:.1} ms traced ({:+.1}% unattributed)",
                attributed * 1e3,
                traced * 1e3,
                unattributed * 100.0
            )
        });
    }
}

/// Every per-layer metric with its unit, in `BENCHMARK.json` order.
pub fn per_layer() -> Vec<(&'static str, &'static str)> {
    let mut list = Vec::new();
    for layer in LAYERS {
        list.push((leak(format!("{layer}.busy_ms")), "ms"));
        list.push((leak(format!("{layer}.allocs")), "count"));
    }
    list.extend(COUNTS);
    list.extend(DERIVED);
    list
}

/// Metric names built at run time live as long as the process.
fn leak(name: String) -> &'static str {
    Box::leak(name.into_boxed_str())
}

/// Nearest-rank percentile of an ascending slice (`p` in percent).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[nearest_rank(sorted.len(), p) - 1]
}

fn nearest_rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly above the nearest-rank `p` percentile of `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - nearest_rank(n, p)
    }
}

pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

pub fn median(values: Vec<f64>) -> f64 {
    percentile(&sorted(values), 50.0)
}

/// Books `throughput_per_s` (`ops` over `busy` seconds) and the
/// nearest-rank `latency_p50_ms` and `latency_p90_ms` of `samples` (in
/// seconds), all scaled to reference host speed by `factor` (see
/// `speed.rs`), and checks that the run holds at least ten samples
/// beyond p90. The wall-clock figures go to the notes.
pub fn book_timing(
    out: &mut Outcome,
    what: &str,
    samples: &[f64],
    ops: u64,
    busy: f64,
    factor: f64,
) {
    let s = sorted(samples.to_vec());
    let p50 = percentile(&s, 50.0) * 1e3;
    let p90 = percentile(&s, 90.0) * 1e3;
    let throughput = ops as f64 / busy.max(1e-12);
    let past = beyond(s.len(), 90.0);
    out.check(past >= 10, || {
        format!("{what}: only {past} of {} samples beyond p90", s.len())
    });
    out.note(format!(
        "{what}: n={} wall-clock p50={p50:.4} ms p90={p90:.4} ms throughput={throughput:.2}/s ({past} samples beyond p90)",
        s.len()
    ));
    out.values.insert("throughput_per_s", throughput / factor);
    out.values.insert("latency_p50_ms", p50 * factor);
    out.values.insert("latency_p90_ms", p90 * factor);
}

/// Set-ups timed before the measured window of a workload whose set-up
/// can repeat during the window.
pub const SETUPS_BEFORE: usize = 5;

/// How often such a workload repeats its set-up during the window.
const SETUP_EVERY: Duration = Duration::from_secs(1);

/// Set-up times of one run. The set-up is repeated during the run, not
/// only before it, so the median of some 30 set-ups spans the same
/// machine conditions as the measurement.
#[derive(Default)]
pub struct Setups {
    times: Vec<f64>,
    last: Option<Instant>,
}

impl Setups {
    /// Runs and times one set-up.
    pub fn time<T>(&mut self, setup: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
        let t0 = Instant::now();
        let value = setup()?;
        self.times.push(t0.elapsed().as_secs_f64());
        self.last = Some(Instant::now());
        Ok(value)
    }

    /// Whether [`SETUP_EVERY`] has passed since the last set-up.
    pub fn due(&self) -> bool {
        self.last.is_none_or(|t| t.elapsed() >= SETUP_EVERY)
    }

    /// Books `setup_s`: the median set-up time, scaled to reference
    /// host speed by `factor`.
    pub fn book(self, out: &mut Outcome, factor: f64) {
        let n = self.times.len();
        let wall = median(self.times);
        out.note(format!("set-ups timed: {n}, wall-clock median {wall:.4} s"));
        out.values.insert("setup_s", wall * factor);
    }
}

/// Peak resident set size (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Hex digest of a byte stream, for comparing two runs' outputs.
pub fn digest(bytes: &[u8]) -> String {
    rtlb_format::ContentKey::of(bytes).to_hex()
}
