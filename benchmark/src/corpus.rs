//! Seeded inputs for every workload.
//!
//! All instances come from the `rtlb-workloads` generators and are
//! rendered to `.rtlb` text with `cost` and `node` lines, so both
//! Section 7 cost bounds run. Only the text reaches the program.
//!
//! Instance *sizes* are fixed per slot and only the random content
//! follows the seed, so the corpus has the same shape on every seed and
//! the figures of two seeds stay comparable.

use std::collections::BTreeSet;

use rtlb_core::{analyze_ctl, AnalysisOptions, CancelToken, DedicatedModel, NodeType};
use rtlb_core::{SharedModel, SystemModel};
use rtlb_graph::{ResourceId, TaskGraph};
use rtlb_obs::NULL_PROBE;
use rtlb_workloads::{framed_tasks, independent_tasks, layered, LayeredConfig};

/// SplitMix64: the benchmark's own deterministic choices (corpus order,
/// prices, the delta stream) follow `--seed` through this.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as i64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One generated instance, as the program receives it.
pub struct Instance {
    pub name: String,
    pub text: String,
}

/// `(layers, width, slack_pct)` of the layered slots: 100–144 tasks.
const LAYERED_SHAPES: [(usize, usize, u32); 4] =
    [(10, 10, 100), (12, 10, 115), (10, 12, 130), (12, 12, 100)];

/// A layered DAG: edges, merges, two processor and two resource types,
/// some preemptive tasks.
pub fn layered_instance(rng: &mut Rng, slot: usize) -> Instance {
    let (layers, width, slack_pct) = LAYERED_SHAPES[slot % LAYERED_SHAPES.len()];
    let config = LayeredConfig {
        layers,
        width,
        processor_types: 2,
        resource_types: 2,
        resource_prob_pct: 30,
        computation: (1, 8),
        message: (0, 4),
        edge_prob_pct: 15,
        preemptive_pct: 20,
        slack_pct,
    };
    let graph = layered(&config, rng.next_u64());
    finish(format!("layered_{slot:02}"), &graph, rng)
}

/// `frames` time-disjoint frames of 8 tasks each: many small partition
/// blocks.
pub fn framed_instance(rng: &mut Rng, slot: usize, frames: usize) -> Instance {
    let graph = framed_tasks(frames, 8, rng.next_u64());
    finish(format!("framed_{slot:02}"), &graph, rng)
}

/// Independent tasks at high load: a few blocks of hundreds of tasks.
pub fn independent_instance(rng: &mut Rng, slot: usize, count: usize, load: u32) -> Instance {
    let graph = independent_tasks(count, load, rng.next_u64());
    finish(format!("independent_{slot:02}"), &graph, rng)
}

/// Renders `graph` with seeded shared-model prices and a dedicated node
/// catalog offering every processor with every subset of the plain
/// resources, so every task has a host.
fn finish(name: String, graph: &TaskGraph, rng: &mut Rng) -> Instance {
    let catalog = graph.catalog();
    let mut shared = SharedModel::new();
    for r in catalog.ids() {
        shared.set_cost(r, rng.range(5, 60));
    }
    let plain: Vec<ResourceId> = catalog.plain_resources().collect();
    let mut nodes = Vec::new();
    for p in catalog.processors() {
        for mask in 0..(1usize << plain.len()) {
            let uses: BTreeSet<ResourceId> = plain
                .iter()
                .enumerate()
                .filter(|(bit, _)| mask & (1 << bit) != 0)
                .map(|(_, &r)| r)
                .collect();
            let cost = shared.cost(p).unwrap_or(0)
                + uses
                    .iter()
                    .map(|&r| shared.cost(r).unwrap_or(0))
                    .sum::<i64>()
                + rng.range(0, 20);
            nodes.push(NodeType::new(
                format!("N{}_{mask}", catalog.name(p)),
                p,
                uses,
                cost,
            ));
        }
    }
    let dedicated = DedicatedModel::new(nodes);
    Instance {
        name,
        text: rtlb_format::render(graph, Some(&shared), Some(&dedicated)),
    }
}

/// The pipeline workloads' corpus: 16 layered DAGs, 6 framed instances
/// of 400–800 tasks and 2 independent-task instances of 800 and 1500
/// tasks, in seeded order.
///
/// The independent-task instances are under a tenth of the corpus, so
/// the p90 latency falls inside the largest framed instance's latencies
/// and not on the edge between two instances of very different cost.
pub fn pipeline_corpus(seed: u64) -> Vec<Instance> {
    let mut rng = Rng::new(seed ^ 0x7069_7065_6c69_6e65);
    let mut out = Vec::new();
    for slot in 0..16 {
        out.push(layered_instance(&mut rng, slot));
    }
    for (slot, frames) in [50, 60, 70, 80, 90, 100].into_iter().enumerate() {
        out.push(framed_instance(&mut rng, slot, frames));
    }
    for (slot, (count, load)) in [(800, 8), (1500, 12)].into_iter().enumerate() {
        out.push(independent_instance(&mut rng, slot, count, load));
    }
    rng.shuffle(&mut out);
    out
}

/// What a corpus looks like, printed at setup.
#[derive(Default)]
pub struct Description {
    instances: usize,
    tasks: usize,
    bytes: usize,
    /// Partition blocks (over all resources, at default options) with
    /// 1–8, 9–32, 33–96 and more than 96 tasks.
    block_hist: [usize; 4],
}

impl Description {
    pub fn of<'a>(texts: impl IntoIterator<Item = &'a str>) -> Description {
        let mut d = Description::default();
        for text in texts {
            d.instances += 1;
            d.bytes += text.len();
            let Ok(parsed) = rtlb_format::parse(text) else {
                continue;
            };
            d.tasks += parsed.graph.task_count();
            let Ok(analysis) = analyze_ctl(
                &parsed.graph,
                &SystemModel::shared(),
                AnalysisOptions::default(),
                &NULL_PROBE,
                &CancelToken::none(),
            ) else {
                continue;
            };
            for block in analysis.partitions().iter().flat_map(|p| &p.blocks) {
                let slot = match block.tasks.len() {
                    0..=8 => 0,
                    9..=32 => 1,
                    33..=96 => 2,
                    _ => 3,
                };
                d.block_hist[slot] += 1;
            }
        }
        d
    }

    pub fn render(&self) -> String {
        format!(
            "instances={} tasks={} bytes={} blocks[1-8,9-32,33-96,>96]={:?}",
            self.instances, self.tasks, self.bytes, self.block_hist
        )
    }
}
