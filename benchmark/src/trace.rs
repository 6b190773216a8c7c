//! Per-layer accounting for the traced run.
//!
//! The benchmark times each layer's public call from its own code and
//! counts the allocations made inside it, or books the program's own
//! spans read through a public `Recorder`; the program gains no span,
//! counter or flag. A [`Tracer`] that is off runs the calls bare, so the
//! same code gives the untraced reference for
//! `obs.trace_overhead_ratio`.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use rtlb_obs::Metrics;

use crate::alloc;

#[derive(Clone, Copy, Default)]
struct Layer {
    busy: Duration,
    allocs: u64,
}

#[derive(Default)]
pub struct Tracer {
    on: bool,
    layers: BTreeMap<&'static str, Layer>,
    counts: BTreeMap<&'static str, u64>,
    /// Wall time of the real request path over the pass: what the layer
    /// busy times must account for.
    pub traced: Duration,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            ..Tracer::default()
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Runs `f` as one call into `layer`, counting the calling thread's
    /// allocations.
    pub fn layer<R>(&mut self, layer: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let a0 = alloc::local();
        let t0 = Instant::now();
        let out = f();
        let busy = t0.elapsed();
        self.add_layer(layer, busy, alloc::local() - a0);
        out
    }

    /// Books a busy time and allocation count measured elsewhere.
    pub fn add_layer(&mut self, layer: &'static str, busy: Duration, allocs: u64) {
        let entry = self.layers.entry(layer).or_default();
        entry.busy += busy;
        entry.allocs += allocs;
    }

    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_default() += n;
    }

    pub fn count_max(&mut self, name: &'static str, n: u64) {
        let entry = self.counts.entry(name).or_default();
        *entry = (*entry).max(n);
    }

    /// Adds the named counters of a public `Recorder`'s snapshot.
    pub fn count_recorded(&mut self, metrics: &Metrics, names: &[&'static str]) {
        for &name in names {
            self.count(name, metrics.counter(name));
        }
    }

    pub fn busy_ms(&self, layer: &str) -> f64 {
        self.layers
            .get(layer)
            .map_or(0.0, |l| l.busy.as_secs_f64() * 1e3)
    }

    pub fn allocs(&self, layer: &str) -> u64 {
        self.layers.get(layer).map_or(0, |l| l.allocs)
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// The sum of every layer's busy time.
    pub fn attributed(&self) -> Duration {
        self.layers.values().map(|l| l.busy).sum()
    }

    /// Every count that must repeat exactly between two passes on one
    /// seed: the counters and each layer's allocations.
    pub fn exact(&self) -> Vec<(String, u64)> {
        let mut out: Vec<(String, u64)> = self
            .counts
            .iter()
            .map(|(&k, &v)| (k.to_owned(), v))
            .collect();
        out.extend(
            self.layers
                .iter()
                .map(|(&k, l)| (format!("{k}.allocs"), l.allocs)),
        );
        out
    }
}

/// Compares the exact counts of two passes; names every difference.
pub fn repeat_problems(first: &Tracer, second: &Tracer) -> Vec<String> {
    let a = first.exact();
    let b = second.exact();
    if a == b {
        return Vec::new();
    }
    let mut problems = Vec::new();
    let names: std::collections::BTreeSet<&String> = a.iter().chain(&b).map(|(k, _)| k).collect();
    for name in names {
        let va = a.iter().find(|(k, _)| k == name).map(|e| e.1);
        let vb = b.iter().find(|(k, _)| k == name).map(|e| e.1);
        if va != vb {
            problems.push(format!(
                "exact count {name} did not repeat: {va:?} then {vb:?}"
            ));
        }
    }
    problems
}
