//! `serve_mix`: one in-process `rtlb serve` daemon at its default
//! configuration and two closed-loop `rtlb-rpc-v1` connections.
//!
//! * Connection A streams single-task `delta` edits over more sessions
//!   than the pool's live slots, chosen with a seeded Zipf skew, so a
//!   fixed share of deltas lands on a parked session and pays a rebuild.
//!   Sessions mix framed instances (high block reuse) and layered ones
//!   (an edit dirties a timing cone). Every edit toggles one task's
//!   computation time between its generated value and one less, so every
//!   session state is the generated instance with some tasks shortened
//!   and stays feasible.
//! * Connection B sends one-shot `analyze` requests with 20–90 KB texts.
//!
//! The untraced run reports throughput over both connections and the
//! delta latency percentiles; the one-shot percentiles are printed as
//! notes (their decode time streams the request text once per
//! character, which made them swing by half with the host's load). The traced run plays a fixed delta prefix twice against fresh
//! daemons, once with B idle and once with B busy, then replays the same
//! request lines in-process through the public layer calls (`proto`
//! decode, `SessionPool`, `AnalysisSession`, the stage calls, encode)
//! and checks that the replay's response lines equal the daemon's.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use rtlb_core::{
    analyze_ctl, AnalysisOptions, AnalysisSession, CancelToken, Delta, ResourceBound, SystemModel,
};
use rtlb_obs::{json, Json, MetricsSnapshot, Recorder, NULL_PROBE};
use rtlb_serve::proto::{bounds_body, ok_response};
use rtlb_serve::{
    parse_request, serve, Checkout, Op, ServeConfig, Server, SessionPool, RPC_SCHEMA,
};

use crate::alloc;
use crate::corpus::{framed_instance, independent_instance, layered_instance, Description, Rng};
use crate::pipeline::compose;
use crate::report::{
    book_timing, digest, median, peak_rss_mb, percentile, sorted, Outcome, Setups,
};
use crate::speed::Speed;
use crate::trace::{repeat_problems, Tracer};
use crate::Args;

/// Set-ups timed before the measured window, and again after it:
/// `setup_s` is the median of these 2 × 10 and the one the run uses.
/// A set-up starts a daemon, so none runs during the window.
const SETUPS: usize = 10;
/// Deltas in each phase of the traced run.
const TRACED_DELTAS: usize = 3000;
/// Every this many deltas, one reply is checked against a fresh
/// `analyze_ctl` of the session's current text.
const SAMPLE_STRIDE: usize = 97;
const MAX_SAMPLES: usize = 300;

/// A session's instance as the benchmark tracks it.
struct SessionText {
    lines: Vec<String>,
    /// Per task: name, its line, and its generated computation time.
    tasks: Vec<(String, usize, i64)>,
    /// Tasks whose computation time can drop by one and stay positive.
    editable: Vec<usize>,
}

impl SessionText {
    fn new(text: String) -> Result<SessionText, String> {
        let parsed = rtlb_format::parse(&text).map_err(|e| e.to_string())?;
        let lines: Vec<String> = text.lines().map(str::to_owned).collect();
        let mut tasks = Vec::new();
        for (_, task) in parsed.graph.tasks() {
            let prefix = format!("task {} ", task.name());
            let line = lines
                .iter()
                .position(|l| l.starts_with(&prefix))
                .ok_or("rendered task line not found")?;
            tasks.push((task.name().to_owned(), line, task.computation().ticks()));
        }
        let editable = (0..tasks.len()).filter(|&i| tasks[i].2 >= 2).collect();
        Ok(SessionText {
            lines,
            tasks,
            editable,
        })
    }

    /// The instance text with the given tasks shortened by one.
    fn edited(&self, lowered: &[usize]) -> String {
        let mut lines = self.lines.clone();
        for &t in lowered {
            let (_, line, c) = &self.tasks[t];
            lines[*line] = lines[*line].replacen(&format!(" c={c} "), &format!(" c={} ", c - 1), 1);
        }
        lines.join("\n") + "\n"
    }
}

struct Corpus {
    sessions: Vec<SessionText>,
    open_lines: Vec<String>,
    oneshot_texts: Vec<String>,
    oneshot_lines: Vec<String>,
}

fn request(op: &str, fields: Vec<(&str, Json)>) -> String {
    let mut all = vec![("proto", Json::str(RPC_SCHEMA)), ("op", Json::str(op))];
    all.extend(fields);
    Json::obj(all).render() + "\n"
}

/// Six framed sessions (400–800 tasks) and six layered ones; five
/// one-shot texts of 20–90 KB.
fn corpus(seed: u64) -> Result<Corpus, String> {
    let mut rng = Rng::new(seed ^ 0x7365_7276_655f_6d78);
    let mut texts = Vec::new();
    for slot in 0..6 {
        texts.push(framed_instance(&mut rng, slot, 50 + 10 * slot).text);
        texts.push(layered_instance(&mut rng, slot).text);
    }
    let sessions = texts
        .iter()
        .map(|t| SessionText::new(t.clone()))
        .collect::<Result<Vec<_>, _>>()?;
    let open_lines = texts
        .iter()
        .map(|t| request("open", vec![("instance", Json::str(t.as_str()))]))
        .collect();
    // Five sizes, each once per cycle: an odd count puts p50 inside the
    // middle size's latencies and leaves a fifth of the samples in the
    // largest size's, so p50 and p90 never sit on a boundary between
    // two sizes.
    let oneshot_texts = vec![
        framed_instance(&mut rng, 0, 50).text,
        framed_instance(&mut rng, 1, 80).text,
        independent_instance(&mut rng, 0, 1000, 10).text,
        independent_instance(&mut rng, 1, 1300, 10).text,
        independent_instance(&mut rng, 2, 1800, 10).text,
    ];
    let oneshot_lines = oneshot_texts
        .iter()
        .map(|t| request("analyze", vec![("instance", Json::str(t.as_str()))]))
        .collect();
    Ok(Corpus {
        sessions,
        open_lines,
        oneshot_texts,
        oneshot_lines,
    })
}

/// The seeded delta stream of connection A.
struct DeltaStream {
    rng: Rng,
    /// Cumulative Zipf weights over the sessions in corpus order, which
    /// alternates framed and layered sessions of growing size: the hot
    /// and the parked sessions are of the same kinds on every seed.
    cdf: Vec<f64>,
    /// Per session: which tasks are currently shortened.
    lowered: Vec<Vec<bool>>,
}

struct NextDelta {
    session: usize,
    line: String,
}

impl DeltaStream {
    fn new(seed: u64, corpus: &Corpus) -> DeltaStream {
        let rng = Rng::new(seed ^ 0x6465_6c74_6173);
        let n = corpus.sessions.len();
        let mut cdf: Vec<f64> = (1..=n)
            .scan(0.0, |total, k| {
                *total += 1.0 / k as f64;
                Some(*total)
            })
            .collect();
        let total = cdf[n - 1];
        cdf.iter_mut().for_each(|c| *c /= total);
        DeltaStream {
            rng,
            cdf,
            lowered: corpus
                .sessions
                .iter()
                .map(|s| vec![false; s.tasks.len()])
                .collect(),
        }
    }

    fn next(&mut self, corpus: &Corpus, ids: &[String]) -> NextDelta {
        let u = (self.rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let session = self
            .cdf
            .iter()
            .position(|&c| u < c)
            .unwrap_or(self.cdf.len() - 1);
        let text = &corpus.sessions[session];
        let task = text.editable[self.rng.below(text.editable.len())];
        let lowered = &mut self.lowered[session][task];
        *lowered = !*lowered;
        let (name, _, c) = &text.tasks[task];
        let c = if *lowered { c - 1 } else { *c };
        let edit = format!("set {name} c={c}");
        NextDelta {
            session,
            line: request(
                "delta",
                vec![
                    ("session", Json::str(ids[session].as_str())),
                    ("edits", Json::Arr(vec![Json::str(edit)])),
                ],
            ),
        }
    }

    fn lowered(&self, session: usize) -> Vec<usize> {
        (0..self.lowered[session].len())
            .filter(|&t| self.lowered[session][t])
            .collect()
    }
}

/// One blocking connection: a request line out, a response line back.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn connect(server: &Server) -> Result<Conn, String> {
        let stream = TcpStream::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        let writer = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Sends `line` (newline-terminated) and reads the reply into
    /// `reply`, without its newline.
    fn call(&mut self, line: &str, reply: &mut String) -> Result<(), String> {
        reply.clear();
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let n = self
            .reader
            .read_line(reply)
            .map_err(|e| format!("receive: {e}"))?;
        if n == 0 {
            return Err("daemon closed the connection".to_owned());
        }
        reply.truncate(reply.trim_end().len());
        Ok(())
    }
}

/// A daemon with both connections up and every session open.
struct Live {
    a: Conn,
    b: Conn,
    ids: Vec<String>,
    // Dropped last: shutting down joins the connection threads.
    server: Server,
}

fn start(corpus: &Corpus) -> Result<Live, String> {
    let server = serve(ServeConfig::default())?;
    let mut a = Conn::connect(&server)?;
    let b = Conn::connect(&server)?;
    let mut ids = Vec::new();
    let mut reply = String::new();
    for line in &corpus.open_lines {
        a.call(line, &mut reply)?;
        let doc = json::parse(&reply).map_err(|e| format!("open reply: {e}"))?;
        let id = doc
            .get("session")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("open failed: {reply}"))?;
        ids.push(id.to_owned());
    }
    Ok(Live { a, b, ids, server })
}

fn is_ok(reply: &str) -> bool {
    reply.contains("\"ok\":true")
}

/// What connection A saw.
#[derive(Default)]
struct DeltaRun {
    latencies: Vec<f64>,
    ok: u64,
    failed: u64,
    lines: Vec<String>,
    replies: Vec<String>,
    /// (session, shortened tasks, reply) every [`SAMPLE_STRIDE`] deltas.
    samples: Vec<(usize, Vec<usize>, String)>,
}

/// Connection A's closed loop: until `deadline`, or `limit` deltas with
/// every request line and reply kept. Between two deltas it lets `speed`
/// take its calibration samples, if given.
fn run_deltas(
    conn: &mut Conn,
    corpus: &Corpus,
    ids: &[String],
    seed: u64,
    deadline: Instant,
    limit: Option<usize>,
    mut speed: Option<&mut Speed>,
) -> Result<DeltaRun, String> {
    let mut stream = DeltaStream::new(seed, corpus);
    let mut run = DeltaRun::default();
    let mut reply = String::new();
    for i in 0.. {
        if limit.is_some_and(|n| i >= n) || (limit.is_none() && Instant::now() >= deadline) {
            break;
        }
        if let Some(speed) = speed.as_deref_mut() {
            speed.tick();
        }
        let next = stream.next(corpus, ids);
        let t0 = Instant::now();
        conn.call(&next.line, &mut reply)?;
        run.latencies.push(t0.elapsed().as_secs_f64());
        if is_ok(&reply) {
            run.ok += 1;
        } else {
            run.failed += 1;
        }
        if i % SAMPLE_STRIDE == 0 && run.samples.len() < MAX_SAMPLES {
            run.samples
                .push((next.session, stream.lowered(next.session), reply.clone()));
        }
        if limit.is_some() {
            run.lines.push(next.line);
            run.replies.push(reply.clone());
        }
    }
    Ok(run)
}

/// What connection B saw: per request, the text index and the reply.
#[derive(Default)]
struct OneshotRun {
    latencies: Vec<f64>,
    ok: u64,
    failed: u64,
    replies: Vec<(usize, String)>,
}

/// Connection B's closed loop over the one-shot texts until `deadline`
/// or `stop`.
fn run_oneshots(
    conn: &mut Conn,
    corpus: &Corpus,
    deadline: Instant,
    stop: &AtomicBool,
) -> Result<OneshotRun, String> {
    let mut run = OneshotRun::default();
    let mut reply = String::new();
    for k in (0..corpus.oneshot_lines.len()).cycle() {
        if stop.load(Ordering::Relaxed) || Instant::now() >= deadline {
            break;
        }
        let t0 = Instant::now();
        conn.call(&corpus.oneshot_lines[k], &mut reply)?;
        run.latencies.push(t0.elapsed().as_secs_f64());
        if is_ok(&reply) {
            run.ok += 1;
        } else {
            run.failed += 1;
        }
        run.replies.push((k, reply.clone()));
    }
    Ok(run)
}

fn session_rebuilds(conn: &mut Conn) -> Result<u64, String> {
    let mut reply = String::new();
    conn.call(&request("stats", vec![]), &mut reply)?;
    let doc = json::parse(&reply).map_err(|e| format!("stats reply: {e}"))?;
    let metrics = doc.get("metrics").ok_or("stats reply without metrics")?;
    Ok(MetricsSnapshot::from_json(metrics)?.counter("serve.session_rebuilds"))
}

/// The daemon's reply to a one-shot `analyze` of `text`, computed
/// in-process with `analyze_ctl`.
fn expected_oneshot(text: &str) -> Result<String, String> {
    let parsed = rtlb_format::parse(text).map_err(|e| e.to_string())?;
    let bounds = fresh_bounds(&parsed.graph)?;
    Ok(ok_response(&None, "analyze", bounds_body(&parsed.graph, &bounds)).render())
}

fn fresh_bounds(graph: &rtlb_graph::TaskGraph) -> Result<Vec<ResourceBound>, String> {
    analyze_ctl(
        graph,
        &SystemModel::shared(),
        AnalysisOptions::default(),
        &NULL_PROBE,
        &CancelToken::none(),
    )
    .map(|a| a.bounds().to_vec())
    .map_err(|e| e.to_string())
}

/// The `bounds` and `text` fields of a reply, rendered.
fn bounds_fields(doc: &Json) -> (String, String) {
    let field = |k| doc.get(k).map(Json::render).unwrap_or_default();
    (field("bounds"), field("text"))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setups = Setups::default();
    // Generate, describe, start the daemon and open every session.
    let set_up = || {
        let corpus = corpus(args.seed)?;
        let sessions: Vec<String> = corpus.sessions.iter().map(|s| s.lines.join("\n")).collect();
        let description = [
            format!(
                "sessions: {} (pool slots {}) {}",
                corpus.sessions.len(),
                ServeConfig::default().max_sessions,
                Description::of(sessions.iter().map(String::as_str)).render()
            ),
            format!(
                "one-shots: {}",
                Description::of(corpus.oneshot_texts.iter().map(String::as_str)).render()
            ),
        ];
        let live = start(&corpus)?;
        Ok((corpus, description, live))
    };
    for _ in 0..SETUPS {
        drop(setups.time(set_up)?);
    }
    let (corpus, description, live) = setups.time(set_up)?;
    description.into_iter().for_each(|line| out.note(line));
    if args.trace {
        drop(live);
        return traced(args, &corpus, out);
    }

    let Live {
        mut a,
        mut b,
        ids,
        server,
    } = live;
    let stop = AtomicBool::new(false);
    // One kernel thread: while A samples, B's daemon thread holds the
    // other core.
    let mut speed = Speed::new(1);
    let started = Instant::now();
    let deadline = started + Duration::from_secs(args.seconds);
    let (deltas, oneshots) = std::thread::scope(|s| {
        let b_loop = s.spawn(|| run_oneshots(&mut b, &corpus, deadline, &stop));
        let deltas = run_deltas(
            &mut a,
            &corpus,
            &ids,
            args.seed,
            deadline,
            None,
            Some(&mut speed),
        );
        (deltas, b_loop.join().expect("connection B panicked"))
    });
    let elapsed = started.elapsed();
    let (deltas, oneshots) = (deltas?, oneshots?);
    let rebuilds = session_rebuilds(&mut a)?;
    drop((a, b));
    drop(server);

    out.attempted = (deltas.latencies.len() + oneshots.latencies.len()) as u64;
    out.failed = deltas.failed + oneshots.failed;

    // One-shot replies must be byte-identical to the in-process answer.
    let expected = corpus
        .oneshot_texts
        .iter()
        .map(|t| expected_oneshot(t))
        .collect::<Result<Vec<_>, _>>()?;
    for (k, reply) in &oneshots.replies {
        // A reply that is not ok was counted as failed already.
        if is_ok(reply) && reply != &expected[*k] {
            out.failed += 1;
            out.problems
                .push(format!("one-shot {k}: reply differs from analyze_ctl"));
        }
    }
    // Sampled delta replies must match a fresh analysis of the session's
    // current text.
    let mut digest_input = expected.join("\n");
    for (n, (session, lowered, reply)) in deltas.samples.iter().enumerate() {
        let text = corpus.sessions[*session].edited(lowered);
        let parsed = rtlb_format::parse(&text).map_err(|e| e.to_string())?;
        let want = Json::Obj(bounds_body(&parsed.graph, &fresh_bounds(&parsed.graph)?));
        let got = json::parse(reply).map_err(|e| format!("delta reply: {e}"))?;
        if is_ok(reply) && bounds_fields(&got) != bounds_fields(&want) {
            out.failed += 1;
            out.problems.push(format!(
                "delta sample {n} (session {session}): bounds differ from analyze_ctl"
            ));
        }
        if n < 16 {
            digest_input.push_str(&bounds_fields(&got).0);
        }
    }
    out.note(format!("bounds_digest={}", digest(digest_input.as_bytes())));

    let oneshot_sorted = sorted(oneshots.latencies.clone());
    out.note(format!(
        "one-shot latency: n={} oneshot_p50_ms={:.3} oneshot_p90_ms={:.3} ({} beyond p90); serve.session_rebuilds={rebuilds} ({:.1}% of deltas); {} deltas checked against analyze_ctl",
        oneshot_sorted.len(),
        percentile(&oneshot_sorted, 50.0) * 1e3,
        percentile(&oneshot_sorted, 90.0) * 1e3,
        crate::report::beyond(oneshot_sorted.len(), 90.0),
        100.0 * rebuilds as f64 / deltas.latencies.len().max(1) as f64,
        deltas.samples.len(),
    ));
    let factor = speed.factor(&mut out);
    book_timing(
        &mut out,
        "delta latency",
        &deltas.latencies,
        deltas.ok + oneshots.ok,
        elapsed.as_secs_f64(),
        factor,
    );
    for _ in 0..SETUPS {
        drop(setups.time(set_up)?);
    }
    setups.book(&mut out, factor);
    out.values.insert("peak_rss_mb", peak_rss_mb());
    Ok(out)
}

/// One live phase of the traced run: a fresh daemon, A sends the fixed
/// delta prefix, B sends one-shots meanwhile when `busy`.
fn live_phase(
    args: &Args,
    corpus: &Corpus,
    busy: bool,
) -> Result<(DeltaRun, OneshotRun, u64), String> {
    let Live {
        mut a,
        mut b,
        ids,
        server,
    } = start(corpus)?;
    let stop = AtomicBool::new(!busy);
    let far = Instant::now() + Duration::from_secs(3600);
    let (deltas, oneshots) = std::thread::scope(|s| {
        let b_loop = s.spawn(|| run_oneshots(&mut b, corpus, far, &stop));
        // Let B's first request reach the daemon before A starts.
        std::thread::sleep(Duration::from_millis(if busy { 20 } else { 0 }));
        let deltas = run_deltas(
            &mut a,
            corpus,
            &ids,
            args.seed,
            far,
            Some(TRACED_DELTAS),
            None,
        );
        stop.store(true, Ordering::Relaxed);
        (deltas, b_loop.join().expect("connection B panicked"))
    });
    let rebuilds = session_rebuilds(&mut a)?;
    drop((a, b));
    drop(server);
    Ok((deltas?, oneshots?, rebuilds))
}

fn traced(args: &Args, corpus: &Corpus, mut out: Outcome) -> Result<Outcome, String> {
    let (idle, _, rebuilds_idle) = live_phase(args, corpus, false)?;
    let (busy, b_run, rebuilds_busy) = live_phase(args, corpus, true)?;
    out.check(
        idle.failed == 0 && busy.failed == 0 && b_run.failed == 0,
        || "a traced live phase had failed requests".to_owned(),
    );
    out.check(rebuilds_idle == rebuilds_busy, || {
        format!("serve.session_rebuilds did not repeat: {rebuilds_idle} then {rebuilds_busy}")
    });
    out.check(idle.replies == busy.replies, || {
        "delta replies differ between the idle and busy phases".to_owned()
    });
    let p99 = |run: &DeltaRun| percentile(&sorted(run.latencies.clone()), 99.0) * 1e6;
    out.values
        .insert("serve.delta_p50_us", median(busy.latencies.clone()) * 1e6);
    out.values.insert("serve.delta_p99_us", p99(&busy));
    out.values
        .insert("serve.delta_wait_us", p99(&busy) - p99(&idle));
    out.note(format!(
        "traced live phases: {TRACED_DELTAS} deltas each; delta_p99_us idle={:.1} busy={:.1} with {} one-shots alongside",
        p99(&idle),
        p99(&busy),
        b_run.latencies.len()
    ));

    // The daemon's one-shot replies, for comparison with the replay.
    let mut oneshot_replies: Vec<Option<String>> = vec![None; corpus.oneshot_lines.len()];
    for (k, reply) in b_run.replies {
        oneshot_replies[k] = Some(reply);
    }
    let expected: Vec<String> = corpus
        .oneshot_texts
        .iter()
        .map(|t| expected_oneshot(t))
        .collect::<Result<_, _>>()?;
    for (k, reply) in oneshot_replies.iter().enumerate() {
        out.check(reply.as_ref().is_none_or(|r| r == &expected[k]), || {
            format!("one-shot {k}: daemon reply differs from analyze_ctl")
        });
    }

    let replay_of = |tr: &mut Tracer, out: &mut Outcome| -> Result<(), String> {
        replay(corpus, &idle, &expected, tr, out)
    };
    let mut untraced = Duration::MAX;
    for _ in 0..2 {
        let t0 = Instant::now();
        replay_of(&mut Tracer::new(false), &mut out)?;
        untraced = untraced.min(t0.elapsed());
    }
    alloc::enable();
    let mut passes = Vec::new();
    for _ in 0..3 {
        let mut tr = Tracer::new(true);
        replay_of(&mut tr, &mut out)?;
        passes.push(tr);
    }
    out.problems.extend(repeat_problems(&passes[1], &passes[2]));
    let tr = &passes[2];
    out.check(
        tr.counter("serve.session_rebuilds") == rebuilds_idle,
        || {
            format!(
                "replay rebuilt {} sessions, the daemon {rebuilds_idle}",
                tr.counter("serve.session_rebuilds")
            )
        },
    );
    out.attempted = (TRACED_DELTAS + corpus.oneshot_lines.len()) as u64;
    out.take_layers(tr, untraced);
    let reused = tr.counter("session.blocks_reused") as f64;
    let resweeped = tr.counter("session.blocks_resweeped") as f64;
    out.values.insert(
        "core.session.reuse_ratio",
        reused / (reused + resweeped).max(1.0),
    );
    Ok(out)
}

fn resolve(edits: &[String], graph: &rtlb_graph::TaskGraph) -> Result<Vec<Delta>, String> {
    let mut deltas = Vec::new();
    for (index, text) in edits.iter().enumerate() {
        let parsed = rtlb_format::parse_edit_line(text, index + 1).map_err(|e| e.to_string())?;
        deltas.extend(
            rtlb_format::resolve_edits(&parsed, graph, index + 1).map_err(|e| e.to_string())?,
        );
    }
    Ok(deltas)
}

/// Replays connection A's traced delta prefix and every one-shot text
/// once, in-process, through the daemon's public layers. Every reply
/// line must equal the daemon's.
fn replay(
    corpus: &Corpus,
    idle: &DeltaRun,
    expected: &[String],
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let options = ServeConfig::default().options;
    let none = CancelToken::none();
    let mut pool = SessionPool::new(ServeConfig::default().max_sessions);
    // Opens are set-up in the live phases; they are not traced here.
    for text in &corpus.sessions {
        let parsed = rtlb_format::parse(&text.lines.join("\n")).map_err(|e| e.to_string())?;
        let session = AnalysisSession::new_ctl(
            parsed.graph,
            SystemModel::shared(),
            options,
            &NULL_PROBE,
            &none,
        )
        .map_err(|e| e.to_string())?;
        pool.admit(session);
    }
    let rec = Recorder::new();
    let mut mismatches = 0;
    for (line, want) in idle.lines.iter().zip(&idle.replies) {
        let op = Instant::now();
        let line = line.trim_end();
        let request = tr
            .layer("serve.decode", || parse_request(line))
            .map_err(|e| e.message)?;
        tr.count("serve.decode.bytes", line.len() as u64);
        let Op::Delta {
            session: id, edits, ..
        } = request.op
        else {
            return Err("replayed a non-delta request".to_owned());
        };
        let (mut session, rebuilt) = match tr.layer("serve.pool", || pool.checkout(&id)) {
            Checkout::Live(session) => (*session, false),
            Checkout::Parked(graph) => {
                tr.count("serve.session_rebuilds", 1);
                let session = tr.layer("core.session.open", || {
                    AnalysisSession::new_ctl(
                        graph,
                        SystemModel::shared(),
                        options,
                        &NULL_PROBE,
                        &none,
                    )
                });
                (session.map_err(|e| e.to_string())?, true)
            }
            Checkout::Missing => return Err(format!("replay lost session {id}")),
        };
        tr.count(
            "format.parse.bytes",
            edits.iter().map(|e| e.len() as u64).sum(),
        );
        let deltas = tr.layer("format.parse", || resolve(&edits, session.graph()))?;
        let stats = tr
            .layer("core.session.apply", || {
                session.apply_ctl(&deltas, &rec, &none)
            })
            .map_err(|e| e.to_string())?;
        let reply = tr.layer("serve.encode", || {
            let mut body = vec![
                ("session".to_owned(), Json::str(id.as_str())),
                ("rebuilt".to_owned(), Json::Bool(rebuilt)),
                (
                    "tasks_recomputed".to_owned(),
                    Json::Int(i64::try_from(stats.tasks_recomputed()).unwrap_or(i64::MAX)),
                ),
            ];
            body.extend(bounds_body(session.graph(), &session.bounds()));
            ok_response(&request.id, "delta", body).render()
        });
        tr.layer("serve.pool", || pool.checkin(id, session));
        tr.traced += op.elapsed();
        if &reply != want {
            mismatches += 1;
        }
    }
    for (k, line) in corpus.oneshot_lines.iter().enumerate() {
        let op = Instant::now();
        let line = line.trim_end();
        let request = tr
            .layer("serve.decode", || parse_request(line))
            .map_err(|e| e.message)?;
        tr.count("serve.decode.bytes", line.len() as u64);
        let Op::Analyze { instance, .. } = request.op else {
            return Err("replayed a non-analyze request".to_owned());
        };
        tr.count("format.parse.bytes", instance.len() as u64);
        let parsed = tr
            .layer("format.parse", || rtlb_format::parse(&instance))
            .map_err(|e| e.to_string())?;
        let composed = compose(&parsed.graph, options, &rec, tr).map_err(|e| e.to_string())?;
        let reply = tr.layer("serve.encode", || {
            ok_response(
                &request.id,
                "analyze",
                bounds_body(&parsed.graph, &composed.bounds),
            )
            .render()
        });
        tr.traced += op.elapsed();
        if reply != expected[k] {
            mismatches += 1;
        }
    }
    tr.count_recorded(
        &rec.take_metrics(),
        &[
            "session.blocks_reused",
            "session.blocks_resweeped",
            "timing.merges_accepted",
            "timeline.unions",
            "sweep.events_processed",
            "sweep.pairs_offered",
        ],
    );
    out.check(mismatches == 0, || {
        format!("{mismatches} replayed replies differ from the daemon's")
    });
    Ok(())
}
