//! `pipeline_timeline` and `pipeline_filtered`: one caller in a closed
//! loop runs every corpus instance through the path of `rtlb analyze`
//! — parse, content key, `analyze_ctl`, both Section 7 cost bounds,
//! render — at the default propagation level or at `filtered`.
//!
//! The traced run composes the same path from the public stage calls
//! (`compute_timing_ctl`, `partition_all`, `sweep_partitions_ctl`, the
//! cost bounds, the renderers) and times each. Propagation has no public
//! entry point: its busy time is `analyze_ctl` at `filtered` minus
//! `analyze_ctl` at `timeline` on the same instance, cross-checked
//! against the `analyze.propagate` span of a public `Recorder`.

use std::hint::black_box;
use std::time::{Duration, Instant};

use rtlb_core::{
    analyze_ctl, compute_timing_ctl, dedicated_cost_bound, partition_all, render_analysis,
    render_bounds, render_dedicated_cost, render_partitions, render_shared_cost,
    render_timing_table, shared_cost_bound, sweep_partitions_ctl, Analysis, AnalysisError,
    AnalysisOptions, CancelToken, DedicatedCostBound, PropagationLevel, ResourceBound,
    ResourcePartition, SharedCostBound, SystemModel, TimingAnalysis,
};
use rtlb_format::{content_key, ParsedSystem};
use rtlb_graph::TaskGraph;
use rtlb_obs::{Probe, Recorder, NULL_PROBE};

use crate::alloc;
use crate::corpus::{pipeline_corpus, Description, Instance};
use crate::report::{book_timing, digest, peak_rss_mb, Outcome, Setups, SETUPS_BEFORE};
use crate::speed::Speed;
use crate::trace::{repeat_problems, Tracer};
use crate::Args;

/// Corpus repetitions in one traced pass, so a pass lasts about a
/// second at either level.
fn traced_reps(level: PropagationLevel) -> usize {
    if level == PropagationLevel::Filtered {
        1
    } else {
        8
    }
}

fn options_at(level: PropagationLevel) -> AnalysisOptions {
    AnalysisOptions {
        propagation: level,
        ..AnalysisOptions::default()
    }
}

/// What one trip through the path returned.
struct Produced {
    /// `resource=LB@[t1,t2]/demand` per bound: the digest input.
    bounds_line: String,
    lbs: Vec<u32>,
    shared_total: Option<i64>,
    /// The full text `rtlb analyze` prints.
    report: String,
}

type Costs = (Option<SharedCostBound>, Option<DedicatedCostBound>);

fn costs(parsed: &ParsedSystem, bounds: &[ResourceBound]) -> Result<Costs, AnalysisError> {
    let shared = match &parsed.shared_costs {
        Some(model) => Some(shared_cost_bound(model, bounds)?),
        None => None,
    };
    let dedicated = match &parsed.node_types {
        Some(model) => Some(dedicated_cost_bound(&parsed.graph, model, bounds)?),
        None => None,
    };
    Ok((shared, dedicated))
}

/// Steps 1–3 as `render_analysis` prints them, plus Step 4 as the CLI
/// appends it.
fn render_report(parsed: &ParsedSystem, steps: String, costs: &Costs) -> String {
    let mut out = steps;
    if let Some(cost) = &costs.0 {
        out.push_str("\n== Step 4: Shared-model cost ==\n");
        out.push_str(&render_shared_cost(&parsed.graph, cost));
    }
    if let (Some(cost), Some(model)) = (&costs.1, &parsed.node_types) {
        out.push_str("\n== Step 4: Dedicated-model cost ==\n");
        out.push_str(&render_dedicated_cost(model, cost));
    }
    out
}

/// `render_analysis` rebuilt from its public parts, for the composed
/// path that has no `Analysis` value.
fn render_steps(
    graph: &TaskGraph,
    timing: &TimingAnalysis,
    partitions: &[ResourcePartition],
    bounds: &[ResourceBound],
) -> String {
    let mut out = String::from("== Step 1: EST / LCT ==\n");
    out.push_str(&render_timing_table(graph, timing));
    out.push_str("\n== Step 2: Partitions ==\n");
    out.push_str(&render_partitions(graph, partitions));
    out.push_str("\n== Step 3: Resource lower bounds ==\n");
    out.push_str(&render_bounds(graph, bounds));
    out
}

fn produced(
    parsed: &ParsedSystem,
    bounds: &[ResourceBound],
    costs: &Costs,
    report: String,
) -> Produced {
    let catalog = parsed.graph.catalog();
    let mut bounds_line = String::new();
    for b in bounds {
        bounds_line.push_str(&format!("{}={}", catalog.name(b.resource), b.bound));
        if let Some(w) = &b.witness {
            bounds_line.push_str(&format!("@[{},{}]/{}", w.t1, w.t2, w.demand));
        }
        bounds_line.push(';');
    }
    Produced {
        bounds_line,
        lbs: bounds.iter().map(|b| b.bound).collect(),
        shared_total: costs.0.as_ref().map(|c| c.total),
        report,
    }
}

/// The path of `rtlb analyze`, untraced.
fn analyze_path(
    text: &str,
    options: AnalysisOptions,
    fingerprint: &str,
) -> Result<Produced, String> {
    let parsed = rtlb_format::parse(text).map_err(|e| format!("parse: {e}"))?;
    black_box(content_key(&parsed, fingerprint));
    let analysis = analyze_ctl(
        &parsed.graph,
        &SystemModel::shared(),
        options,
        &NULL_PROBE,
        &CancelToken::none(),
    )
    .map_err(|e| format!("analyze: {e}"))?;
    let costs = costs(&parsed, analysis.bounds()).map_err(|e| format!("cost: {e}"))?;
    let report = render_report(&parsed, render_analysis(&parsed.graph, &analysis), &costs);
    Ok(produced(&parsed, analysis.bounds(), &costs, report))
}

pub struct Composed {
    pub timing: TimingAnalysis,
    pub partitions: Vec<ResourcePartition>,
    pub bounds: Vec<ResourceBound>,
}

/// Steps 1–3 of `analyze_ctl` at the default level, one public call per
/// layer. Shared with the serve replay.
pub fn compose(
    graph: &TaskGraph,
    options: AnalysisOptions,
    probe: &dyn Probe,
    tr: &mut Tracer,
) -> Result<Composed, AnalysisError> {
    let model = SystemModel::shared();
    let none = CancelToken::none();
    let timing = tr.layer("core.timing", || {
        model.validate(graph)?;
        let timing = compute_timing_ctl(graph, &model, probe, &none)?;
        timing.check_feasible(graph)?;
        Ok::<_, AnalysisError>(timing)
    })?;
    let partitions = tr.layer("core.partition", || partition_all(graph, &timing));
    let bounds = tr.layer("core.sweep", || {
        sweep_partitions_ctl(
            graph,
            &timing,
            &partitions,
            options.candidates,
            options.sweep,
            options.parallelism,
            options.chunk_columns,
            probe,
            &none,
        )
    })?;
    if tr.on() {
        let largest = partitions
            .iter()
            .flat_map(|p| &p.blocks)
            .map(|b| b.tasks.len() as u64)
            .max()
            .unwrap_or(0);
        tr.count_max("partition.max_block_tasks", largest);
    }
    Ok(Composed {
        timing,
        partitions,
        bounds,
    })
}

/// Generates the corpus and describes it (which analyzes every instance
/// once, so the first measured pass starts warm).
fn set_up(seed: u64) -> Result<(Vec<Instance>, String), String> {
    let corpus = pipeline_corpus(seed);
    let description = Description::of(corpus.iter().map(|i| i.text.as_str())).render();
    Ok((corpus, description))
}

pub fn run(args: &Args, level: PropagationLevel) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setups = Setups::default();
    for _ in 1..SETUPS_BEFORE {
        drop(setups.time(|| set_up(args.seed))?);
    }
    let (corpus, description) = setups.time(|| set_up(args.seed))?;
    out.note(format!("corpus: {description}"));
    if args.trace {
        traced(&corpus, level, &mut out)?;
        return Ok(out);
    }

    let options = options_at(level);
    let fingerprint = options.semantic_fingerprint();
    let mut reference: Vec<Option<Produced>> = corpus.iter().map(|_| None).collect();
    let mut latencies = Vec::new();
    let mut speed = Speed::new(1);
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    'run: loop {
        for (i, inst) in corpus.iter().enumerate() {
            if Instant::now() >= deadline {
                break 'run;
            }
            out.attempted += 1;
            let t0 = Instant::now();
            let result = analyze_path(&inst.text, options, &fingerprint);
            let took = t0.elapsed().as_secs_f64();
            match (result, &reference[i]) {
                (Err(e), _) => {
                    out.failed += 1;
                    out.problems.push(format!("{}: {e}", inst.name));
                }
                (Ok(p), None) => {
                    latencies.push(took);
                    reference[i] = Some(p);
                }
                (Ok(p), Some(r)) if p.report == r.report => latencies.push(took),
                (Ok(_), Some(_)) => {
                    out.failed += 1;
                    out.problems
                        .push(format!("{}: output changed between two runs", inst.name));
                }
            }
        }
        if setups.due() {
            drop(setups.time(|| set_up(args.seed))?);
            speed.sample();
        }
    }

    check_outputs(&corpus, &reference, level, &mut out)?;
    let busy = latencies.iter().sum();
    let factor = speed.factor(&mut out);
    book_timing(
        &mut out,
        "instance latency",
        &latencies,
        latencies.len() as u64,
        busy,
        factor,
    );
    setups.book(&mut out, factor);
    out.values.insert("peak_rss_mb", peak_rss_mb());
    Ok(out)
}

/// Checks every output against facts the benchmark derives itself:
/// the whole-horizon volume bound, the shared-cost sum, and (at
/// `filtered`) dominance over the default level. Prints the digest.
fn check_outputs(
    corpus: &[Instance],
    reference: &[Option<Produced>],
    level: PropagationLevel,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut digest_input = String::new();
    for (inst, produced) in corpus.iter().zip(reference) {
        let Some(p) = produced else { continue };
        digest_input.push_str(&format!("{} {}\n", inst.name, p.bounds_line));
        let parsed = rtlb_format::parse(&inst.text).map_err(|e| e.to_string())?;
        let base = analyze_ctl(
            &parsed.graph,
            &SystemModel::shared(),
            options_at(PropagationLevel::Timeline),
            &NULL_PROBE,
            &CancelToken::none(),
        )
        .map_err(|e| e.to_string())?;
        let mut bad = Vec::new();
        for (b, &lb) in base.bounds().iter().zip(&p.lbs) {
            let graph = &parsed.graph;
            let demanders: Vec<_> = graph
                .tasks()
                .filter(|(_, t)| t.demands_resource(b.resource))
                .map(|(_, t)| t)
                .collect();
            let volume: i64 = demanders.iter().map(|t| t.computation().ticks()).sum();
            let lo = demanders
                .iter()
                .map(|t| t.release().ticks())
                .min()
                .unwrap_or(0);
            let hi = demanders
                .iter()
                .map(|t| t.deadline().ticks())
                .max()
                .unwrap_or(0);
            if hi > lo && i64::from(lb) * (hi - lo) < volume {
                bad.push(format!(
                    "LB {lb} is below the volume bound {volume}/{}",
                    hi - lo
                ));
            }
            if lb < b.bound {
                bad.push(format!(
                    "{} bound {lb} is below the timeline bound {}",
                    level.label(),
                    b.bound
                ));
            }
            if level == PropagationLevel::Timeline && lb != b.bound {
                bad.push("bound differs from a fresh analysis".to_owned());
            }
        }
        if p.lbs.len() != base.bounds().len() {
            bad.push("bound count differs from the timeline level".to_owned());
        }
        if let Some(model) = &parsed.shared_costs {
            let expected: i64 = base
                .bounds()
                .iter()
                .zip(&p.lbs)
                .map(|(b, &lb)| model.cost(b.resource).unwrap_or(0) * i64::from(lb))
                .sum();
            if p.shared_total != Some(expected) {
                bad.push(format!(
                    "shared cost {:?} != sum {expected}",
                    p.shared_total
                ));
            }
        }
        if !bad.is_empty() {
            out.failed += 1;
            out.problems
                .push(format!("{}: {}", inst.name, bad.join("; ")));
        }
    }
    out.note(format!("bounds_digest={}", digest(digest_input.as_bytes())));
    Ok(())
}

fn traced(corpus: &[Instance], level: PropagationLevel, out: &mut Outcome) -> Result<(), String> {
    let options = options_at(level);
    let fingerprint = options.semantic_fingerprint();

    // The composed path must be the program's path: same bounds and the
    // same report as `analyze_ctl` at the default level.
    for inst in corpus {
        let parsed = rtlb_format::parse(&inst.text).map_err(|e| e.to_string())?;
        let c = compose(
            &parsed.graph,
            options_at(PropagationLevel::Timeline),
            &NULL_PROBE,
            &mut Tracer::new(false),
        )
        .map_err(|e| e.to_string())?;
        let real = analyze_ctl(
            &parsed.graph,
            &SystemModel::shared(),
            options_at(PropagationLevel::Timeline),
            &NULL_PROBE,
            &CancelToken::none(),
        )
        .map_err(|e| e.to_string())?;
        let same = c.bounds == real.bounds()
            && render_steps(&parsed.graph, &c.timing, &c.partitions, &c.bounds)
                == render_analysis(&parsed.graph, &real);
        out.check(same, || {
            format!("{}: composed stages differ from analyze_ctl", inst.name)
        });
    }

    let reps = traced_reps(level);
    let mut untraced = Duration::MAX;
    for _ in 0..2 {
        let t0 = Instant::now();
        for _ in 0..reps {
            for inst in corpus {
                black_box(analyze_path(&inst.text, options, &fingerprint)?);
            }
        }
        untraced = untraced.min(t0.elapsed());
    }

    alloc::enable();
    let mut passes = Vec::new();
    for _ in 0..3 {
        let mut tr = Tracer::new(true);
        let mut span = Duration::ZERO;
        for _ in 0..reps {
            span += traced_pass(corpus, options, &fingerprint, &mut tr)?;
        }
        passes.push((tr, span));
    }
    out.problems
        .extend(repeat_problems(&passes[1].0, &passes[2].0));
    let (tr, span) = &passes[2];
    out.attempted = (corpus.len() * reps) as u64;
    out.take_layers(tr, untraced);
    let examined = tr.counter("propagate.resources_examined");
    let raised = tr.counter("propagate.bounds_raised");
    out.values.insert(
        "core.propagate.useful_ratio",
        if examined > 0 {
            raised as f64 / examined as f64
        } else {
            0.0
        },
    );
    let span_ms = span.as_secs_f64() * 1e3;
    let derived_ms = tr.busy_ms("core.propagate");
    out.values.insert("core.propagate.span_ms", span_ms);
    out.check(
        (derived_ms - span_ms).abs() <= 0.1 * derived_ms.max(span_ms) + 1.0,
        || format!("core.propagate: {derived_ms:.2} ms by difference vs {span_ms:.2} ms by span"),
    );
    Ok(())
}

/// One pass over the corpus along the composed path. Returns the summed
/// `analyze.propagate` span time.
fn traced_pass(
    corpus: &[Instance],
    options: AnalysisOptions,
    fingerprint: &str,
    tr: &mut Tracer,
) -> Result<Duration, String> {
    let filtered = options.propagation == PropagationLevel::Filtered;
    let model = SystemModel::shared();
    let none = CancelToken::none();
    let (mut span, mut t_filtered, mut t_timeline) =
        (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let (mut a_filtered, mut a_timeline) = (0, 0);
    for inst in corpus {
        let op = Instant::now();
        let parsed = tr
            .layer("format.parse", || rtlb_format::parse(&inst.text))
            .map_err(|e| e.to_string())?;
        tr.count("format.parse.bytes", inst.text.len() as u64);
        black_box(tr.layer("format.key", || content_key(&parsed, fingerprint)));
        let graph = &parsed.graph;

        let rec = Recorder::new();
        let staged = Instant::now();
        let c = compose(graph, options_at(PropagationLevel::Timeline), &rec, tr)
            .map_err(|e| e.to_string())?;
        // Along the filtered path the composed stages only measure; the
        // program's path is `analyze_ctl` at `filtered` below.
        let mut measure_only = if filtered {
            staged.elapsed()
        } else {
            Duration::ZERO
        };
        tr.count_recorded(
            &rec.take_metrics(),
            &[
                "timing.merges_accepted",
                "timeline.unions",
                "sweep.events_processed",
                "sweep.pairs_offered",
            ],
        );

        let full: Option<Analysis> = if filtered {
            let run = |opts, probe: &Recorder| {
                let a0 = alloc::local();
                let t0 = Instant::now();
                let a = analyze_ctl(graph, &model, opts, probe, &none);
                (a, t0.elapsed(), alloc::local() - a0)
            };
            let (base, took, allocs) =
                run(options_at(PropagationLevel::Timeline), &Recorder::new());
            let base = base.map_err(|e| e.to_string())?;
            if base.bounds() != c.bounds {
                return Err(format!(
                    "{}: composed stages differ from analyze_ctl",
                    inst.name
                ));
            }
            measure_only += took;
            t_timeline += took;
            a_timeline += allocs;
            let rec = Recorder::new();
            let (full, took, allocs) = run(options, &rec);
            let full = full.map_err(|e| e.to_string())?;
            t_filtered += took;
            a_filtered += allocs;
            let m = rec.take_metrics();
            span += Duration::from_micros(m.total_micros("analyze.propagate"));
            tr.count_recorded(
                &m,
                &["propagate.capacities_refuted", "propagate.blocks_skipped"],
            );
            tr.count("propagate.resources_examined", full.bounds().len() as u64);
            let raised = full
                .bounds()
                .iter()
                .zip(&c.bounds)
                .filter(|(f, t)| f.bound > t.bound)
                .count();
            tr.count("propagate.bounds_raised", raised as u64);
            Some(full)
        } else {
            None
        };
        let bounds = full.as_ref().map_or(&c.bounds[..], Analysis::bounds);

        let costs = tr
            .layer("core.cost", || costs(&parsed, bounds))
            .map_err(|e| e.to_string())?;
        let report = tr.layer("core.render", || {
            let steps = match &full {
                Some(a) => render_analysis(graph, a),
                None => render_steps(graph, &c.timing, &c.partitions, &c.bounds),
            };
            render_report(&parsed, steps, &costs)
        });
        black_box(report);
        tr.traced += op.elapsed().saturating_sub(measure_only);
    }
    if filtered {
        tr.add_layer(
            "core.propagate",
            t_filtered.saturating_sub(t_timeline),
            a_filtered.saturating_sub(a_timeline),
        );
    }
    Ok(span)
}
