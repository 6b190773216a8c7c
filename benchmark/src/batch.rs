//! `batch_corpus`: `run_batch` with `jobs = nproc` over a directory
//! written at setup, with the content-addressed result cache.
//!
//! The directory holds 20 distinct instances, 8 reformatted aliases
//! (same content key, different bytes), 2 malformed and 2 infeasible
//! files with known outcome classes. The cache starts half-warm: every
//! repetition runs on a fresh copy of the same pre-filled store.
//!
//! The traced run times `run_batch_probed` at one worker and splits its
//! time with the program's own figures: the `analyze.*` stage spans and
//! the batch driver's counters from a public `Recorder`. Only the cache
//! layer is timed apart, through the lookups and stores the counters
//! show the driver made.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use rtlb::batch::{run_batch, run_batch_probed, BatchOptions, InstanceOutcome};
use rtlb_cache::{NamedBounds, ResultCache};
use rtlb_core::{analyze_ctl, AnalysisOptions, CancelToken, OutcomeKind, SystemModel};
use rtlb_format::{content_key, ContentKey};
use rtlb_obs::{Recorder, NULL_PROBE};

use crate::alloc;
use crate::corpus::{framed_instance, independent_instance, layered_instance, Description, Rng};
use crate::report::{book_timing, digest, peak_rss_mb, Outcome, Setups, SETUPS_BEFORE};
use crate::speed::Speed;
use crate::trace::{repeat_problems, Tracer};
use crate::Args;

/// A directory under `.bench_work/` in the working directory, removed
/// when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new(tag: &str) -> Result<WorkDir, String> {
        static NEXT: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = PathBuf::from(".bench_work").join(format!("{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Succeeds only once the last work directory is gone.
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// One file of the corpus and the outcome class it must get.
struct File {
    name: String,
    text: String,
    expect: OutcomeKind,
    /// For an alias: the index of the file it reformats.
    alias_of: Option<usize>,
}

/// The same instance in other bytes: comments, blank lines, doubled
/// separators. Its content key is unchanged.
fn reformat(text: &str) -> String {
    let mut out = String::from("# reformatted copy\n\n");
    for (i, line) in text.lines().enumerate() {
        out.push_str(&line.split_whitespace().collect::<Vec<_>>().join("  "));
        if i % 7 == 3 {
            out.push_str("   # note");
        }
        out.push('\n');
        if i % 10 == 9 {
            out.push('\n');
        }
    }
    out
}

fn corpus(seed: u64) -> Vec<File> {
    let mut rng = Rng::new(seed ^ 0x6261_7463_685f_636f);
    let mut texts = Vec::new();
    for slot in 0..12 {
        texts.push(layered_instance(&mut rng, slot));
    }
    for (slot, frames) in [50, 60, 70, 80, 90, 100].into_iter().enumerate() {
        texts.push(framed_instance(&mut rng, slot, frames));
    }
    for (slot, (count, load)) in [(800, 8), (1000, 10)].into_iter().enumerate() {
        texts.push(independent_instance(&mut rng, slot, count, load));
    }
    let mut files: Vec<File> = texts
        .into_iter()
        .map(|i| File {
            name: i.name,
            text: i.text,
            expect: OutcomeKind::Ok,
            alias_of: None,
        })
        .collect();
    let unique = files.len();
    let mut originals: Vec<usize> = (0..unique).collect();
    rng.shuffle(&mut originals);
    for (k, &of) in originals.iter().take(8).enumerate() {
        files.push(File {
            name: format!("alias_{k}"),
            text: reformat(&files[of].text),
            expect: OutcomeKind::Ok,
            alias_of: Some(of),
        });
    }
    let broken = [
        (
            "malformed_0",
            0,
            "task broken c=x proc=P0\n",
            OutcomeKind::ParseError,
        ),
        (
            "malformed_1",
            12,
            "edge t0_0 -> nowhere m=1\n",
            OutcomeKind::ParseError,
        ),
        (
            "infeasible_0",
            13,
            "task late c=9 proc=P0 rel=0 deadline=3\n",
            OutcomeKind::Infeasible,
        ),
        (
            "infeasible_1",
            1,
            "task late c=5 proc=P1 rel=10 deadline=12\n",
            OutcomeKind::Infeasible,
        ),
    ];
    for (name, base, extra, expect) in broken {
        files.push(File {
            name: name.to_owned(),
            text: format!("{}{extra}", files[base].text),
            expect,
            alias_of: None,
        });
    }
    files
}

/// File name on disk: a seeded order, so aliases, broken files and
/// their originals interleave.
fn file_names(files: &[File], seed: u64) -> Vec<String> {
    let mut order: Vec<usize> = (0..files.len()).collect();
    Rng::new(seed ^ 0x6f72_6465_7273).shuffle(&mut order);
    let mut names = vec![String::new(); files.len()];
    for (pos, &i) in order.iter().enumerate() {
        names[i] = format!("{pos:02}_{}.rtlb", files[i].name);
    }
    names
}

struct Setup {
    files: Vec<File>,
    description: String,
    names: Vec<String>,
    corpus_dir: PathBuf,
    warm_cache: PathBuf,
    work: WorkDir,
}

fn named_bounds(text: &str) -> Result<NamedBounds, String> {
    let parsed = rtlb_format::parse(text).map_err(|e| e.to_string())?;
    let analysis = analyze_ctl(
        &parsed.graph,
        &SystemModel::shared(),
        AnalysisOptions::default(),
        &NULL_PROBE,
        &CancelToken::none(),
    )
    .map_err(|e| e.to_string())?;
    let catalog = parsed.graph.catalog();
    Ok(analysis
        .bounds()
        .iter()
        .map(|b| (catalog.name(b.resource).to_owned(), *b))
        .collect())
}

/// The distinct instances whose bounds the cache holds at the start of
/// every repetition: both independent-task instances (a cold one would
/// hold one worker for most of a repetition, so the batch time would
/// follow that one instance) and every other layered and framed one.
fn warm_half(files: &[File]) -> Vec<&File> {
    let distinct: Vec<&File> = files
        .iter()
        .filter(|f| f.expect == OutcomeKind::Ok && f.alias_of.is_none())
        .collect();
    let (independent, rest): (Vec<&File>, Vec<&File>) = distinct
        .into_iter()
        .partition(|f| f.name.starts_with("independent"));
    // 2 + 8 of the 20: layered 3, 5, 7, 9, 11 and framed 1, 3, 5.
    independent
        .into_iter()
        .chain(rest.into_iter().skip(3).step_by(2))
        .collect()
}

/// Writes the corpus, fills the warm half of the cache and describes
/// the corpus.
fn set_up(seed: u64) -> Result<Setup, String> {
    let files = corpus(seed);
    let description = Description::of(files.iter().map(|f| f.text.as_str())).render();
    let names = file_names(&files, seed);
    let work = WorkDir::new("batch_corpus")?;
    let corpus_dir = work.0.join("corpus");
    std::fs::create_dir_all(&corpus_dir).map_err(|e| e.to_string())?;
    for (file, name) in files.iter().zip(&names) {
        std::fs::write(corpus_dir.join(name), &file.text).map_err(|e| e.to_string())?;
    }
    let warm_cache = work.0.join("cache-warm");
    let cache = ResultCache::open(&warm_cache)?;
    let fingerprint = AnalysisOptions::default().semantic_fingerprint();
    for file in warm_half(&files) {
        let parsed = rtlb_format::parse(&file.text).map_err(|e| e.to_string())?;
        let key = content_key(&parsed, &fingerprint);
        cache.store(key, &fingerprint, &named_bounds(&file.text)?)?;
    }
    Ok(Setup {
        files,
        description,
        names,
        corpus_dir,
        warm_cache,
        work,
    })
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| e.to_string())?;
    for entry in std::fs::read_dir(from).map_err(|e| e.to_string())? {
        let entry = entry.map_err(|e| e.to_string())?;
        let target = to.join(entry.file_name());
        if entry.file_type().map_err(|e| e.to_string())?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), &target).map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

/// A fresh copy of the half-warm cache, the same state on every
/// repetition.
fn fresh_cache(setup: &Setup) -> Result<PathBuf, String> {
    let dir = setup.work.0.join("cache");
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
    }
    copy_dir(&setup.warm_cache, &dir)?;
    Ok(dir)
}

fn batch_options(cache: PathBuf) -> BatchOptions {
    BatchOptions {
        jobs: std::thread::available_parallelism().map_or(1, |n| n.get()),
        cache: Some(cache),
        ..BatchOptions::default()
    }
}

/// A row as compared between runs: file name, class, bounds.
type Row = (String, OutcomeKind, NamedBounds);

fn row(outcome: &InstanceOutcome) -> Row {
    let name = outcome
        .path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    (name, outcome.kind, outcome.bounds.clone())
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setups = Setups::default();
    for _ in 1..SETUPS_BEFORE {
        drop(setups.time(|| set_up(args.seed))?);
    }
    let setup = setups.time(|| set_up(args.seed))?;
    let aliases = setup.files.iter().filter(|f| f.alias_of.is_some()).count();
    out.note(format!(
        "corpus: alias_share={:.3} jobs={} {}",
        aliases as f64 / setup.files.len() as f64,
        batch_options(PathBuf::new()).jobs,
        setup.description
    ));
    if args.trace {
        return traced(&setup, out);
    }

    let mut reference = None;
    let mut per_file = Vec::new();
    let (mut rows, mut busy) = (0, 0.0);
    let mut speed = Speed::new(batch_options(PathBuf::new()).jobs);
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    while Instant::now() < deadline {
        let options = batch_options(fresh_cache(&setup)?);
        let t0 = Instant::now();
        let report = run_batch(&setup.corpus_dir, &options)?;
        let took = t0.elapsed();
        let n = report.instances.len() as u64;
        out.attempted += n;
        let shape: Vec<_> = report.instances.iter().map(row).collect();
        match &reference {
            None => reference = Some(shape),
            Some(r) if *r == shape => {}
            Some(_) => {
                out.failed += n;
                out.problems
                    .push("a batch report differs from the first".to_owned());
                continue;
            }
        }
        rows += n;
        busy += took.as_secs_f64();
        per_file.push(took.as_secs_f64() / n as f64);
        if setups.due() {
            drop(setups.time(|| set_up(args.seed))?);
            speed.sample();
        }
    }
    if let Some(reference) = &reference {
        let bad = check_rows(&setup, reference, &mut out)?;
        out.failed += bad * per_file.len() as u64;
    }
    let factor = speed.factor(&mut out);
    book_timing(
        &mut out,
        "run_batch wall time per file",
        &per_file,
        rows,
        busy,
        factor,
    );
    setups.book(&mut out, factor);
    out.values.insert("peak_rss_mb", peak_rss_mb());
    Ok(out)
}

/// Checks one report's rows: each file's class is the expected one, each
/// `ok` row (cache hit, alias or fresh) carries the bounds an in-process
/// `analyze_ctl` gives, and every alias row equals its original's.
/// Returns the number of bad rows and prints the digest.
fn check_rows(setup: &Setup, rows: &[Row], out: &mut Outcome) -> Result<u64, String> {
    let by_name: BTreeMap<&str, &Row> = rows.iter().map(|r| (r.0.as_str(), r)).collect();
    let mut bad = 0;
    let mut digest_input = String::new();
    for (file, name) in setup.files.iter().zip(&setup.names) {
        let Some((_, kind, bounds)) = by_name.get(name.as_str()).copied() else {
            bad += 1;
            out.problems.push(format!("{name}: no row"));
            continue;
        };
        let mut ok = *kind == file.expect;
        if ok && *kind == OutcomeKind::Ok {
            ok = *bounds == named_bounds(&file.text)?;
            if let Some(of) = file.alias_of {
                ok &= by_name
                    .get(setup.names[of].as_str())
                    .is_some_and(|r| r.2 == *bounds);
            }
        }
        if !ok {
            bad += 1;
            out.problems.push(format!(
                "{name}: got {} (expected {})",
                kind.label(),
                file.expect.label()
            ));
        }
        digest_input.push_str(&format!("{name} {} {bounds:?}\n", kind.label()));
    }
    out.note(format!("bounds_digest={}", digest(digest_input.as_bytes())));
    Ok(bad)
}

fn traced(setup: &Setup, mut out: Outcome) -> Result<Outcome, String> {
    let fingerprint = AnalysisOptions::default().semantic_fingerprint();
    let distinct = distinct_keys(setup, &fingerprint)?;
    let mut untraced = Duration::MAX;
    for _ in 0..2 {
        let (took, _) = pass(setup, &distinct, &fingerprint, &mut Tracer::new(false))?;
        untraced = untraced.min(took);
    }
    alloc::enable();
    // Two warm-up passes: the cache names its temp files with a
    // process-wide sequence number, and a pass whose numbers cross a
    // power of ten allocates a little differently. From the third pass
    // on, two passes allocate exactly alike.
    let mut passes = Vec::new();
    let mut rows = Vec::new();
    for _ in 0..4 {
        let mut tr = Tracer::new(true);
        rows = pass(setup, &distinct, &fingerprint, &mut tr)?.1;
        passes.push(tr);
    }
    out.problems.extend(repeat_problems(&passes[2], &passes[3]));
    let tr = &passes[3];
    out.attempted = setup.files.len() as u64;
    out.take_layers(tr, untraced);

    // The traced path runs one worker; its rows must be those of the
    // measured path's `nproc` workers, and correct.
    let pool = run_batch(&setup.corpus_dir, &batch_options(fresh_cache(setup)?))?;
    out.check(
        pool.instances.iter().map(row).collect::<Vec<_>>() == rows,
        || "run_batch at one worker and at nproc workers gave different rows".to_owned(),
    );
    let bad = check_rows(setup, &rows, &mut out)?;
    out.failed += bad;

    // What a batch must do at least (parse, key and analyze each
    // distinct instance once), and the driver's parse work timed
    // directly: one read, parse and key of every file, and one read and
    // parse of every file it analyzes.
    let ok_distinct = setup
        .files
        .iter()
        .filter(|f| f.expect == OutcomeKind::Ok && f.alias_of.is_none());
    let mut floor = Duration::ZERO;
    for file in ok_distinct {
        let t0 = Instant::now();
        let parsed = rtlb_format::parse(&file.text).map_err(|e| e.to_string())?;
        std::hint::black_box(content_key(&parsed, &fingerprint));
        std::hint::black_box(named_bounds(&file.text)?);
        floor += t0.elapsed();
    }
    out.values.insert(
        "batch.driver_overhead_ratio",
        untraced.as_secs_f64() / floor.as_secs_f64(),
    );
    let cache = ResultCache::open(&setup.warm_cache)?;
    let (mut scan, mut reparse) = (Duration::ZERO, Duration::ZERO);
    for name in &setup.names {
        let t0 = Instant::now();
        let text =
            std::fs::read_to_string(setup.corpus_dir.join(name)).map_err(|e| e.to_string())?;
        let parsed = rtlb_format::parse(&text);
        let key = parsed.as_ref().ok().map(|p| content_key(p, &fingerprint));
        scan += t0.elapsed();
        if key.is_some_and(|k| {
            distinct.get(&k).is_some_and(|d| d.0 == *name) && cache.lookup(k).is_none()
        }) {
            let t0 = Instant::now();
            let text =
                std::fs::read_to_string(setup.corpus_dir.join(name)).map_err(|e| e.to_string())?;
            std::hint::black_box(rtlb_format::parse(&text).map_err(|e| e.to_string())?);
            reparse += t0.elapsed();
        }
    }
    out.note(format!(
        "batch driver outside analyze_ctl and the cache: {:.1} ms; timed directly: read+parse+key of every file {:.1} ms, read+parse of every analyzed file {:.1} ms",
        tr.busy_ms("batch"),
        scan.as_secs_f64() * 1e3,
        reparse.as_secs_f64() * 1e3
    ));
    Ok(out)
}

/// Every content key the batch driver looks up — one per group of
/// parseable files with the same content — with the file that comes
/// first in the directory and the bounds it stores on a miss (none for
/// an infeasible instance).
fn distinct_keys(
    setup: &Setup,
    fingerprint: &str,
) -> Result<BTreeMap<ContentKey, (String, Option<NamedBounds>)>, String> {
    let mut order: Vec<(&String, &File)> = setup.names.iter().zip(&setup.files).collect();
    order.sort_by_key(|(name, _)| *name);
    let mut distinct = BTreeMap::new();
    for (name, file) in order {
        let Ok(parsed) = rtlb_format::parse(&file.text) else {
            continue;
        };
        let key = content_key(&parsed, fingerprint);
        if let Entry::Vacant(slot) = distinct.entry(key) {
            let bounds = (file.expect == OutcomeKind::Ok)
                .then(|| named_bounds(&file.text))
                .transpose()?;
            slot.insert((name.clone(), bounds));
        }
    }
    Ok(distinct)
}

/// One pass: `run_batch_probed` at one worker on a fresh half-warm
/// cache. Returns the call's wall time and its rows.
///
/// Traced, the program itself splits the call: a public `Recorder`
/// collects `analyze_ctl`'s stage spans (`core.*`) and the batch
/// driver's counters. The cache layer is timed apart, through the same
/// lookups and stores on another fresh copy; the counters must show the
/// driver made exactly those. `batch` is the rest of the call: reading,
/// parsing and keying files, grouping and replicating. `batch.allocs`
/// counts a whole `run_batch` call at one worker, its analyses included,
/// since spans carry no allocation counts.
fn pass(
    setup: &Setup,
    distinct: &BTreeMap<ContentKey, (String, Option<NamedBounds>)>,
    fingerprint: &str,
    tr: &mut Tracer,
) -> Result<(Duration, Vec<Row>), String> {
    let single = BatchOptions {
        jobs: 1,
        ..batch_options(fresh_cache(setup)?)
    };
    if !tr.on() {
        let t0 = Instant::now();
        let report = run_batch(&setup.corpus_dir, &single)?;
        return Ok((t0.elapsed(), report.instances.iter().map(row).collect()));
    }
    let rec = Recorder::new();
    let t0 = Instant::now();
    let report = run_batch_probed(&setup.corpus_dir, &single, &rec)?;
    let took = t0.elapsed();
    let metrics = rec.take_metrics();
    let span = |name: &str| Duration::from_micros(metrics.total_micros(name));
    tr.add_layer(
        "core.timing",
        span("analyze.validate") + span("analyze.timing") + span("analyze.feasibility"),
        0,
    );
    tr.add_layer("core.partition", span("analyze.partition"), 0);
    tr.add_layer("core.sweep", span("analyze.sweep"), 0);
    tr.add_layer("core.propagate", span("analyze.propagate"), 0);
    tr.count_recorded(
        &metrics,
        &[
            "cache.hit",
            "cache.miss",
            "cache.dedup",
            "timing.merges_accepted",
            "timeline.unions",
            "sweep.events_processed",
            "sweep.pairs_offered",
        ],
    );

    let cache = ResultCache::open(&fresh_cache(setup)?)?;
    let cache_before = tr.busy_ms("cache");
    let (mut hits, mut writes) = (0, 0);
    for (key, (_, bounds)) in distinct {
        if tr.layer("cache", || cache.lookup(*key)).is_some() {
            hits += 1;
        } else if let Some(bounds) = bounds {
            tr.layer("cache", || cache.store(*key, fingerprint, bounds))?;
            writes += 1;
        }
    }
    let cache_busy = Duration::from_secs_f64((tr.busy_ms("cache") - cache_before) / 1e3);
    let counted = (
        metrics.counter("cache.hit"),
        metrics.counter("cache.miss"),
        metrics.counter("cache.write"),
    );
    if counted != (hits, distinct.len() as u64 - hits, writes) {
        return Err(format!(
            "the batch driver's cache counters (hit, miss, write) = {counted:?} differ from the benchmark's lookups and stores"
        ));
    }

    let a0 = alloc::global();
    run_batch(&setup.corpus_dir, &single)?;
    let allocs = alloc::global() - a0;
    tr.add_layer(
        "batch",
        took.saturating_sub(span("analyze") + cache_busy),
        allocs,
    );
    tr.traced += took;
    Ok((took, report.instances.iter().map(row).collect()))
}
