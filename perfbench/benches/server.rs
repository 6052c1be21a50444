//! The `server_session` workload: one client drives a `Server` over
//! loopback TCP in a closed loop, on the Figure-1 domain.
//!
//! A *history* is a fixed sequence of [`HISTORY`] query requests on a
//! fresh WAL root. Seven of every eight repeat `SIMPLE_QUERY` in one
//! long-lived session (`main`), whose history grows through the run;
//! every eighth opens a new session with a new seed, runs its first
//! query (all answers fresh) and closes it. A run repeats whole
//! histories until `--seconds` have passed, so latency tails always
//! compare equal histories. After every history, a cold server (freshly
//! spawned over the same root) sends `Open` + `Recover` for every
//! session, and every recovered digest must equal its live one.

use crate::trace::{self, TimedCrowd};
use crate::{median, metric, percentile, run_dir, Args, Metric, Report, Setups};
use crowd::{Answer, CrowdSource, MemberId, Question};
use oassis_core::Dag;
use oassis_ql::{bind, evaluate_where, parse, MatchMode};
use oassis_server::{
    Client, CrowdProvider, Figure1Provider, QuerySpec, Request, Response, Server, ServerConfig,
    SessionManager, SessionSpec,
};
use ontology::domains::figure1;
use ontology::Ontology;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Instant, SystemTime};

/// Query requests per history.
const HISTORY: usize = 200;
/// Simulated members per session.
const MEMBERS: u32 = 2;
/// Set-ups per set-up sample: one takes about a millisecond.
const SETUP_BATCH: usize = 20;
/// Cold recoveries per run, at least: one after every history, then
/// more on the last history's root.
const RECOVERIES: usize = 9;

/// One step of a history.
enum Step {
    /// `SIMPLE_QUERY` again in the long-lived session.
    Repeat,
    /// Open a new session, run its first query, close it.
    Fresh(SessionSpec),
}

fn main_session(seed: u64) -> SessionSpec {
    SessionSpec {
        name: "main".into(),
        seed,
        members: MEMBERS,
    }
}

fn plan(seed: u64) -> Vec<Step> {
    (0..HISTORY)
        .map(|i| {
            if i % 8 == 7 {
                Step::Fresh(SessionSpec {
                    name: format!("fresh{i}"),
                    seed: seed
                        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                        .wrapping_add(i as u64),
                    members: MEMBERS,
                })
            } else {
                Step::Repeat
            }
        })
        .collect()
}

fn query_spec(seed: u64) -> QuerySpec {
    QuerySpec {
        src: figure1::SIMPLE_QUERY.to_string(),
        threshold: None,
        batch_width: 1,
        max_questions: None,
        seed,
    }
}

/// A line-protocol connection whose calls record `proto.encode`,
/// `net.wait` (frame written → reply line read) and `proto.decode`
/// spans — the same steps as `oassis_server::Client::call`.
struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn connect(addr: SocketAddr) -> Conn {
        let stream = TcpStream::connect(addr).expect("connect to loopback server");
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        let mut c = Conn { stream, reader };
        let ack = c.call(&Request::Hello {
            proto: oassis_server::PROTO_VERSION,
            client: "perfbench".into(),
        });
        assert!(
            matches!(ack, Response::HelloAck { .. }),
            "hello refused: {ack:?}"
        );
        c
    }

    fn call(&mut self, req: &Request) -> Response {
        let mut line = {
            let _s = trace::span("proto.encode");
            let mut l = req.to_json().to_string();
            l.push('\n');
            l
        };
        {
            let _s = trace::span("net.wait");
            self.stream.write_all(line.as_bytes()).expect("write frame");
            line.clear();
            let n = self.reader.read_line(&mut line).expect("read reply");
            assert!(n > 0, "server hung up");
        }
        let _s = trace::span("proto.decode");
        ontology::json::parse(line.trim_end())
            .and_then(|j| Response::from_json(&j))
            .expect("reply frame decodes")
    }

    fn bye(mut self) {
        let mut line = Request::Bye.to_json().to_string();
        line.push('\n');
        let _ = self.stream.write_all(line.as_bytes());
    }
}

fn manager(ont: &Arc<Ontology>, root: &Path) -> SessionManager {
    SessionManager::new(
        ont.clone(),
        Box::new(Figure1Provider::new(ont.clone())),
        root,
    )
}

/// Bytes under `dir`, recursively.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// `member-*.snap` files of one session directory with size and mtime.
fn snapshots(dir: &Path) -> BTreeMap<PathBuf, (u64, Option<SystemTime>)> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return BTreeMap::new();
    };
    entries
        .flatten()
        .filter(|e| {
            let n = e.file_name().to_string_lossy().into_owned();
            n.starts_with("member-") && n.ends_with(".snap")
        })
        .filter_map(|e| {
            let m = e.metadata().ok()?;
            Some((e.path(), (m.len(), m.modified().ok())))
        })
        .collect()
}

/// A fresh server over a fresh WAL root, one connection, `main` opened.
struct Live {
    root: PathBuf,
    server: Server,
    conn: Conn,
}

fn fresh_root(tag: &str) -> PathBuf {
    let root = run_dir().join(format!("wal-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

/// Setup as a user pays it: ontology, server spawn, connect, first open.
fn set_up(seed: u64, tag: &str) -> (Live, f64) {
    let root = fresh_root(tag);
    let start = Instant::now();
    let ont = Arc::new(figure1::ontology());
    let server =
        Server::spawn(manager(&ont, &root), &ServerConfig::default()).expect("bind loopback");
    let mut conn = Conn::connect(server.addr());
    let opened = conn.call(&Request::Open(main_session(seed)));
    let setup_s = start.elapsed().as_secs_f64();
    assert!(
        matches!(opened, Response::Opened { .. }),
        "open failed: {opened:?}"
    );
    (Live { root, server, conn }, setup_s)
}

fn tear_down(live: Live) {
    live.conn.bye();
    live.server.shutdown();
}

/// What one history produced.
struct History {
    root: PathBuf,
    /// Query-frame round trips (ms).
    latencies_ms: Vec<f64>,
    /// Every frame of the loop, open/close included (s).
    frames_s: f64,
    questions: usize,
    fresh: usize,
    /// Live digests by session, in qid order.
    live: BTreeMap<String, Vec<(u32, String)>>,
    /// Traced histories only: per request, whether a snapshot changed,
    /// and the WAL root's bytes after it.
    compacted: Vec<bool>,
    wal_bytes: Vec<u64>,
}

/// Runs one history; `between` is called after every request, outside
/// its clock.
fn run_history(
    report: &mut Report,
    seed: u64,
    tag: &str,
    traced: bool,
    between: &mut dyn FnMut(),
) -> History {
    let (mut live, _) = set_up(seed, tag);
    let qspec = query_spec(seed);
    let mut h = History {
        root: live.root.clone(),
        latencies_ms: Vec::with_capacity(HISTORY),
        frames_s: 0.0,
        questions: 0,
        fresh: 0,
        live: BTreeMap::new(),
        compacted: Vec::new(),
        wal_bytes: Vec::new(),
    };
    let mut snaps: BTreeMap<PathBuf, (u64, Option<SystemTime>)> = BTreeMap::new();
    let mut main_digest: Option<String> = None;
    for (i, step) in plan(seed).into_iter().enumerate() {
        trace::set_qid(i as u64);
        let _req = trace::span("request");
        let (session, fresh_spec) = match &step {
            Step::Repeat => ("main".to_string(), None),
            Step::Fresh(spec) => (spec.name.clone(), Some(spec.clone())),
        };
        if let Some(spec) = fresh_spec {
            let t = Instant::now();
            let r = live.conn.call(&Request::Open(spec));
            h.frames_s += t.elapsed().as_secs_f64();
            report.check(matches!(r, Response::Opened { resumed: false, .. }), || {
                format!("request {i}: open of a new session failed: {r:?}")
            });
        }
        let t = Instant::now();
        let resp = live.conn.call(&Request::Query {
            session: session.clone(),
            spec: qspec.clone(),
        });
        let dt = t.elapsed().as_secs_f64();
        h.frames_s += dt;
        h.latencies_ms.push(dt * 1e3);
        match resp {
            Response::Result { reply, .. } => {
                h.questions += reply.questions;
                h.fresh += reply.fresh;
                let ok = match (&step, &main_digest) {
                    (Step::Repeat, Some(d)) => reply.fresh == 0 && reply.digest == *d,
                    (Step::Repeat, None) => {
                        main_digest = Some(reply.digest.clone());
                        reply.fresh > 0
                    }
                    (Step::Fresh(_), _) => reply.fresh > 0,
                };
                report.check(ok, || {
                    format!(
                        "request {i} on {session}: digest {} fresh {} unexpected",
                        reply.digest, reply.fresh
                    )
                });
                h.live
                    .entry(session.clone())
                    .or_default()
                    .push((reply.qid, reply.digest));
            }
            other => report.check(false, || format!("request {i}: {other:?}")),
        }
        if matches!(step, Step::Fresh(_)) {
            let t = Instant::now();
            let r = live.conn.call(&Request::Close {
                session: session.clone(),
            });
            h.frames_s += t.elapsed().as_secs_f64();
            report.check(matches!(r, Response::Closed { .. }), || {
                format!("request {i}: close failed: {r:?}")
            });
        }
        drop(_req);
        if traced {
            let now = snapshots(&h.root.join(&session));
            let changed = now.iter().any(|(p, v)| snaps.get(p) != Some(v));
            snaps.extend(now);
            h.compacted.push(changed);
            h.wal_bytes.push(dir_bytes(&h.root));
        }
        between();
    }
    tear_down(live);
    h
}

/// `Open` + `Recover` of every session on a cold server; returns each
/// session's wall time in name order, checking every recovered digest
/// against the live one.
fn cold_recovery(report: &mut Report, h: &History, seed: u64) -> Vec<f64> {
    let ont = Arc::new(figure1::ontology());
    let server =
        Server::spawn(manager(&ont, &h.root), &ServerConfig::default()).expect("bind loopback");
    let mut client = Client::connect(server.addr()).expect("connect");
    let mut walls = Vec::new();
    let mut replies = Vec::new();
    for name in h.live.keys() {
        let start = Instant::now();
        let spec = SessionSpec {
            name: name.clone(),
            seed,
            members: MEMBERS,
        };
        let opened = client.call(&Request::Open(spec)).expect("open");
        let recovered = client
            .call(&Request::Recover {
                session: name.clone(),
            })
            .expect("recover");
        walls.push(start.elapsed().as_secs_f64());
        replies.push((name, opened, recovered));
    }
    client.bye().expect("bye");
    server.shutdown();
    for (name, opened, recovered) in replies {
        report.check(
            matches!(opened, Response::Opened { resumed: true, .. }),
            || format!("cold open of {name}: {opened:?}"),
        );
        let live = &h.live[name];
        let got: Vec<(u32, String, Option<bool>)> = match recovered {
            Response::Recovered { queries, .. } => queries
                .into_iter()
                .map(|q| (q.qid, q.digest, q.verified))
                .collect(),
            _ => Vec::new(),
        };
        let ok = got.len() == live.len()
            && got
                .iter()
                .zip(live)
                .all(|((q, d, v), (lq, ld))| q == lq && d == ld && *v == Some(true));
        report.check(ok, || {
            format!("recovery of {name} does not match the live run")
        });
    }
    walls
}

/// Recovery time as reported: the sum over sessions of each session's
/// median `Open` + `Recover` time across cold starts, so a burst of host
/// noise moves one session's sample, not the figure.
fn recovery_seconds(cold_starts: &[Vec<f64>]) -> f64 {
    let sessions = cold_starts.first().map_or(0, Vec::len);
    (0..sessions)
        .map(|k| median(&cold_starts.iter().map(|c| c[k]).collect::<Vec<_>>()))
        .sum()
}

/// Per-layer metrics the server workload does not time from outside;
/// they read 0 here (see README.md).
fn absent_mining_layers() -> Vec<Metric> {
    [
        ("dag.nodes_materialized", "count"),
        ("dag.admits_calls", "count"),
        ("validity.bases_classified", "count"),
        ("validity.witness_checks", "count"),
        ("mine.run_ms", "ms"),
        ("mine.self_ms", "ms"),
        ("mine.rounds", "count"),
        ("classify.cache_hit_ratio", "ratio"),
    ]
    .into_iter()
    .map(|(n, u)| metric(n, 0.0, u))
    .collect()
}

/// The server-side per-layer metrics, 0 on the mining workloads (no
/// frames, sessions or WAL there).
pub fn absent_server_layers() -> Vec<Metric> {
    [
        ("proto.encode_us", "us"),
        ("proto.decode_us", "us"),
        ("net.wait_ms", "ms"),
        ("session.query_ms", "ms"),
        ("session.page_in_ms", "ms"),
        ("session.recover_ms", "ms"),
        ("wal.bytes", "B"),
        ("wal.compactions", "count"),
        ("wal.compaction_stall_ms", "ms"),
    ]
    .into_iter()
    .map(|(n, u)| metric(n, 0.0, u))
    .collect()
}

/// Owns a provided crowd so it can sit inside a [`TimedCrowd`].
struct Provided<'a>(Box<dyn CrowdSource + Send + 'a>);

impl CrowdSource for Provided<'_> {
    fn members(&self) -> Vec<MemberId> {
        self.0.members()
    }

    fn ask(&mut self, member: MemberId, question: &Question) -> Answer {
        self.0.ask(member, question)
    }

    fn questions_asked(&self) -> usize {
        self.0.questions_asked()
    }

    fn member_has_profile(&self, member: MemberId, label: &str) -> bool {
        self.0.member_has_profile(member, label)
    }

    fn advance_clock(&mut self, ticks: u64) {
        self.0.advance_clock(ticks)
    }
}

/// `Figure1Provider` with every crowd wrapped in a [`TimedCrowd`].
struct TimedProvider(Figure1Provider);

impl CrowdProvider for TimedProvider {
    fn provide<'a>(&'a self, spec: &SessionSpec) -> Box<dyn CrowdSource + Send + 'a> {
        Box::new(TimedCrowd::new(Provided(self.0.provide(spec))))
    }
}

/// The same request sequence replayed in-process through
/// `SessionManager`, with the OASSIS-QL and DAG layers timed bench-side
/// on each request's query text, then a cold page-in and recovery of
/// every session. Returns the recovered op count and the summed number
/// of base assignments the probes saw.
fn in_process(report: &mut Report, seed: u64, live: &History) -> (usize, usize) {
    let ont = Arc::new(figure1::ontology());
    let root = fresh_root("inproc");
    let provider = TimedProvider(Figure1Provider::new(ont.clone()));
    let mut mgr = SessionManager::new(ont.clone(), Box::new(provider), &root);
    let qspec = query_spec(seed);
    let main = main_session(seed);
    mgr.open(&main).expect("open main");
    let mut names = vec![main.name.clone()];
    let mut bases = 0;
    for (i, step) in plan(seed).into_iter().enumerate() {
        trace::set_qid(i as u64);
        {
            let _probe = trace::span("probe");
            let bound = {
                let _s = trace::span("ql.parse_bind");
                bind(&parse(&qspec.src).expect("parses"), &ont).expect("binds")
            };
            let base = {
                let _s = trace::span("ql.where");
                evaluate_where(&bound, &ont, MatchMode::Exact)
            };
            let _s = trace::span("dag.build");
            std::hint::black_box(Dag::new(&bound, ont.vocab(), &base));
            bases += base.len();
        }
        let name = match &step {
            Step::Repeat => main.name.clone(),
            Step::Fresh(spec) => {
                mgr.open(spec).expect("open fresh session");
                names.push(spec.name.clone());
                spec.name.clone()
            }
        };
        let reply = {
            let _s = trace::span("session.query");
            mgr.query(&name, &qspec)
        };
        let ok = reply.as_ref().is_ok_and(|r| {
            live.live
                .get(&name)
                .and_then(|v| v.last())
                .is_some_and(|(_, d)| *d == r.digest)
        });
        report.check(ok, || {
            format!("in-process request {i} on {name} diverged from TCP")
        });
        if matches!(step, Step::Fresh(_)) {
            mgr.close(&name).expect("close");
        }
    }
    drop(mgr);
    let mut cold = manager(&ont, &root);
    let mut ops = 0;
    for name in &names {
        let spec = SessionSpec {
            name: name.clone(),
            seed,
            members: MEMBERS,
        };
        {
            let _s = trace::span("session.page_in");
            cold.open(&spec).expect("page in");
        }
        let rec = {
            let _s = trace::span("session.recover");
            cold.recover(name).expect("recover")
        };
        ops += rec.iter().map(|q| q.ops).sum::<usize>();
        report.check(rec.iter().all(|q| q.verified == Some(true)), || {
            format!("in-process recovery of {name} unverified")
        });
    }
    let _ = std::fs::remove_dir_all(&root);
    (ops, bases)
}

pub fn server_session(args: &Args) -> Report {
    let mut report = Report::default();
    if args.trace {
        return traced(args, report);
    }
    // one set-up sample: a server over a root of its own, torn down
    // outside the clock
    let once = || {
        let (live, took) = set_up(args.seed, "setup");
        tear_down(live);
        let _ = std::fs::remove_dir_all(fresh_root("setup"));
        took
    };
    let mut setups = Setups::new(args.seconds, SETUP_BATCH);
    let start = Instant::now();
    let mut histories = Vec::new();
    let mut cold_starts = Vec::new();
    while histories.is_empty() || start.elapsed() < args.seconds {
        if let Some(prev) = histories.last() {
            let prev: &History = prev;
            let _ = std::fs::remove_dir_all(&prev.root);
        }
        let mut between = || setups.sample_if_due(once);
        histories.push(run_history(
            &mut report,
            args.seed,
            "run",
            false,
            &mut between,
        ));
        let h = histories.last().expect("a history ran");
        cold_starts.push(cold_recovery(&mut report, h, args.seed));
    }
    let setup_s = setups.finish(once);
    let last = histories.last().expect("one history ran");
    while cold_starts.len() < RECOVERIES {
        cold_starts.push(cold_recovery(&mut report, last, args.seed));
    }
    let wal_bytes = dir_bytes(&last.root);
    let _ = std::fs::remove_dir_all(&last.root);

    let lat: Vec<f64> = histories
        .iter()
        .flat_map(|h| h.latencies_ms.clone())
        .collect();
    let frames_s: f64 = histories.iter().map(|h| h.frames_s).sum();
    let questions: usize = histories.iter().map(|h| h.questions).sum();
    report.notes.push(format!(
        "{} histories x {HISTORY} requests, {} sessions recovered per cold start",
        histories.len(),
        last.live.len()
    ));
    report.metrics = vec![
        metric("setup_s", setup_s, "s"),
        metric("queries_per_s", lat.len() as f64 / frames_s, "1/s"),
        metric("query_p50_ms", percentile(&lat, 50.0), "ms"),
        metric("query_p90_ms", percentile(&lat, 90.0), "ms"),
        metric(
            "questions_per_query",
            questions as f64 / lat.len() as f64,
            "count",
        ),
        metric("recovery_s", recovery_seconds(&cold_starts), "s"),
        metric(
            "log_bytes_per_query",
            wal_bytes as f64 / HISTORY as f64,
            "B",
        ),
    ];
    report
}

fn traced(args: &Args, mut report: Report) -> Report {
    let base = run_history(&mut report, args.seed, "base", false, &mut || {});
    let _ = std::fs::remove_dir_all(&base.root);
    trace::start();
    let h = run_history(&mut report, args.seed, "traced", true, &mut || {});
    let wal_bytes = h.wal_bytes.last().copied().unwrap_or(0);
    let (ops, bases) = in_process(&mut report, args.seed, &h);
    let spans = trace::stop();
    let _ = std::fs::remove_dir_all(&h.root);

    let t = trace::totals(&spans);
    let get = |name: &str| t.get(name).copied().unwrap_or_default();
    let per = |name: &str| {
        let x = get(name);
        x.total_ms() / x.count.max(1) as f64
    };
    let queries = HISTORY as f64;
    let stall_ms: f64 = h
        .latencies_ms
        .iter()
        .zip(&h.compacted)
        .filter(|(_, c)| **c)
        .map(|(l, _)| l)
        .sum();
    let overhead = percentile(&h.latencies_ms, 50.0) - percentile(&base.latencies_ms, 50.0);
    let mut m = vec![
        metric("ql.parse_bind_ms", per("ql.parse_bind"), "ms"),
        metric("ql.where_ms", per("ql.where"), "ms"),
        metric("ql.base_assignments", bases as f64 / queries, "count"),
        metric("dag.build_ms", per("dag.build"), "ms"),
        metric("crowd.ask_ms", get("crowd.ask").total_ms() / queries, "ms"),
        metric(
            "crowd.asks",
            get("crowd.ask").count as f64 / queries,
            "count",
        ),
        metric(
            "cache.fresh_ratio",
            h.fresh as f64 / h.questions.max(1) as f64,
            "ratio",
        ),
        metric("proto.encode_us", per("proto.encode") * 1e3, "us"),
        metric("proto.decode_us", per("proto.decode") * 1e3, "us"),
        metric("net.wait_ms", per("net.wait"), "ms"),
        metric("session.query_ms", per("session.query"), "ms"),
        metric(
            "session.page_in_ms",
            get("session.page_in").total_ms(),
            "ms",
        ),
        metric(
            "session.recover_ms",
            get("session.recover").total_ms(),
            "ms",
        ),
        metric("wal.bytes", wal_bytes as f64, "B"),
        metric(
            "wal.compactions",
            h.compacted.iter().filter(|c| **c).count() as f64,
            "count",
        ),
        metric("wal.compaction_stall_ms", stall_ms, "ms"),
        metric("oplog.ops_recovered", ops as f64, "count"),
        metric("trace.overhead_ms", overhead, "ms"),
    ];
    m.extend(absent_mining_layers());
    let path = run_dir().join("server_session.trace.jsonl");
    match trace::write_jsonl(&path, &spans) {
        Ok(()) => report.notes.push(format!(
            "{} spans written to {}",
            spans.len(),
            path.display()
        )),
        Err(e) => report.notes.push(format!("trace not written: {e}")),
    }
    report.notes.push(format!(
        "WAL bytes after requests 1/{}/{}: {:?}",
        HISTORY / 2,
        HISTORY,
        [0, HISTORY / 2 - 1, HISTORY - 1].map(|i| h.wal_bytes[i])
    ));
    report.metrics = m;
    report
}
