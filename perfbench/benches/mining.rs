//! The two mining workloads: `domain_mining` (the paper's three §6.3
//! domain queries with the simulated 248-member crowd) and `stress_1e5`
//! (a 10⁵-assignment taxonomy answered by a noise-free planted oracle).
//!
//! Each query is timed from OASSIS-QL text to MSPs: parse + bind, WHERE,
//! `Dag::new` and `run_multi`. The crowd is built before the clock
//! starts. Through the closed loop, every unit of queries (a domain
//! cycle, a stress query) has its op logs encoded in wire form and
//! replayed on a fresh DAG with `OpLog::replay_merged` (no WAL is read),
//! and every replay must reproduce its live digest.

use crate::trace::{self, SpanRec, TimedCrowd};
use crate::{median, metric, percentile, run_dir, Args, Metric, Report, Setups};
use bench::{digest_domain_run, domain_crowd, DomainRun};
use crowd::CrowdSource;
use oassis_core::synth::{stress_domain, PlantedOracle, SyntheticDomain};
use oassis_core::{
    intern_wire_op, run_multi, to_wire, wire_from_json, wire_to_json, CachingCrowd, CrowdCache,
    Dag, FixedSampleAggregator, MiningConfig, OpLog, SemanticOutcome,
};
use oassis_ql::{bind, evaluate_where, parse, MatchMode};
use ontology::domains::{culinary, self_treatment, travel, DomainScale, GeneratedDomain};
use ontology::{Ontology, PatternSet};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};
use telemetry::{Telemetry, TelemetrySink};

/// Outcome digests of the three domain queries with crowd seed 7 (the
/// repository's golden outcomes; see tests/golden_outcomes.rs).
const GOLDEN: [(&str, u64); 3] = [
    ("E1_travel", 0x7f15_1156_025f_2bc8),
    ("E2_culinary", 0x4541_3417_706a_f6a5),
    ("E3_self_treatment", 0x0c75_87c8_40de_d37d),
];

/// Habit counts of the three domain crowds (E1, E2, E3).
const HABITS: [usize; 3] = [12, 10, 6];
const CROWD_MEMBERS: usize = 248;
const THETA: f64 = 0.2;
/// Assignments of the stress taxonomy (93,025 realized): at 10⁶ a query
/// takes 6–11 s on a 2-core host, too few per run for a steady median.
const STRESS_ASSIGNMENTS: usize = 100_000;
/// Domain set-ups per set-up sample: one takes a few milliseconds.
const DOMAIN_SETUP_BATCH: usize = 8;
/// Crowd seed of the domain set-ups, fixed so that the set-up does the
/// same work at every `--seed` (the seed-7 crowds of the golden runs).
const SETUP_CROWD_SEED: u64 = 7;

/// How a query's DAG is built and its answers aggregated.
#[derive(Clone, Copy)]
struct Shape {
    strip_multiplicities: bool,
    sample_size: usize,
}

const DOMAIN_SHAPE: Shape = Shape {
    strip_multiplicities: false,
    sample_size: 5,
};
const STRESS_SHAPE: Shape = Shape {
    strip_multiplicities: true,
    sample_size: 3,
};

/// Engine counters read from a recording telemetry sink (traced pass).
#[derive(Default, Clone, Copy)]
struct Counters {
    bases_classified: u64,
    witness_checks: u64,
    cache_hits: u64,
    cache_misses: u64,
}

/// What one query produced, plus what recovery needs to replay it.
struct Mined {
    latency_s: f64,
    questions: usize,
    rounds: usize,
    nodes: usize,
    admits: usize,
    base_assignments: usize,
    digest: u64,
    semantic: u64,
    msps: BTreeSet<String>,
    /// The wire-form op log, kept by the untraced pass only until the query
    /// is recovered (a run must not grow its heap query by query); empty in
    /// the traced pass.
    wire: Vec<String>,
    log_bytes: usize,
    threshold: f64,
    aggregated: bool,
    complete: bool,
    counters: Counters,
}

/// Runs one query end to end and checks nothing; the caller does.
fn mine<C: CrowdSource>(
    src: &str,
    ont: &Ontology,
    shape: Shape,
    crowd: &mut C,
    mut cfg: MiningConfig,
    traced: bool,
) -> Mined {
    let sink = TelemetrySink::shared();
    if traced {
        cfg.telemetry = Telemetry::recording(&sink);
    }
    let agg = FixedSampleAggregator {
        sample_size: shape.sample_size,
    };
    let start = Instant::now();
    let query_span = trace::span("query");
    let bound = {
        let _s = trace::span("ql.parse_bind");
        let q = parse(src).expect("benchmark query parses");
        bind(&q, ont).expect("benchmark query binds")
    };
    let base = {
        let _s = trace::span("ql.where");
        evaluate_where(&bound, ont, MatchMode::Exact)
    };
    let mut dag = {
        let _s = trace::span("dag.build");
        let dag = Dag::new(&bound, ont.vocab(), &base);
        if shape.strip_multiplicities {
            dag.without_multiplicities()
        } else {
            dag
        }
    };
    let out = {
        let _s = trace::span("mine.run");
        run_multi(&mut dag, &mut *crowd, &agg, &cfg)
    };
    drop(query_span);
    let latency_s = start.elapsed().as_secs_f64();

    let vocab = ont.vocab();
    let semantic = SemanticOutcome::from_mining(&out.mining, &bound, vocab).digest();
    let msps: BTreeSet<String> = out
        .mining
        .msps
        .iter()
        .map(|m| m.apply(&bound).to_display(vocab))
        .collect();
    let mut wire: Vec<String> = to_wire(&out.mining.ops, &dag)
        .iter()
        .map(|w| wire_to_json(w).to_string())
        .collect();
    let log_bytes = wire.iter().map(|l| l.len() + 1).sum();
    if traced {
        // the traced pass replays nothing
        wire = Vec::new();
    }
    let counter = |name: &str| sink.counter(name);
    let counters = Counters {
        bases_classified: counter("validity.bases_classified"),
        witness_checks: counter("validity.witness_checks"),
        cache_hits: counter("classifier.cache_hits"),
        cache_misses: counter("classifier.cache_misses"),
    };
    let (threshold, aggregated, complete) = (
        out.mining.ops.threshold(),
        out.mining.ops.aggregated(),
        out.mining.complete,
    );
    let run = DomainRun {
        threshold,
        msps: out.mining.msps.len(),
        valid_msps: out.mining.valid_msps.len(),
        questions: out.mining.questions,
        baseline_questions: 0,
        complete,
        undecided: out.undecided,
        question_stats: out.question_stats,
        outcome_events: out.mining.events,
        total_valid: out.mining.total_valid,
        nodes_materialized: out.mining.nodes_materialized,
        admits_calls: out.mining.gen_stats.admits_calls,
        rounds: out.rounds,
    };
    Mined {
        latency_s,
        questions: run.questions,
        rounds: run.rounds,
        nodes: run.nodes_materialized,
        admits: run.admits_calls,
        base_assignments: base.len(),
        digest: digest_domain_run(&run),
        semantic,
        msps,
        wire,
        log_bytes,
        threshold,
        aggregated,
        complete,
        counters,
    }
}

/// Replays a query's wire-form op log on a freshly built DAG (parse,
/// bind, WHERE, `Dag::new`, intern, `OpLog::replay_merged`) and returns
/// the replayed semantic digest and the number of ops applied.
fn recover(src: &str, ont: &Ontology, shape: Shape, m: &Mined) -> (u64, usize) {
    let vocab = ont.vocab();
    let bound = bind(&parse(src).expect("parses"), ont).expect("binds");
    let base = evaluate_where(&bound, ont, MatchMode::Exact);
    let mut dag = Dag::new(&bound, vocab, &base);
    if shape.strip_multiplicities {
        dag = dag.without_multiplicities();
    }
    let ops: Vec<_> = m
        .wire
        .iter()
        .map(|line| {
            let j = ontology::json::parse(line).expect("wire op is JSON");
            let w = wire_from_json(vocab, &j).expect("wire op decodes");
            intern_wire_op(&mut dag, &w)
        })
        .collect();
    let n = ops.len();
    let mut log = OpLog::new(m.threshold, m.aggregated).with_ops(ops);
    log.set_complete(m.complete);
    let replay = log.replay_merged(
        &dag,
        &FixedSampleAggregator {
            sample_size: shape.sample_size,
        },
        &minipool::Pool::sequential(),
        &Telemetry::off(),
    );
    (
        SemanticOutcome::from_replay(&replay, &bound, vocab).digest(),
        n,
    )
}

/// A closed loop over `job(i)` for queries `i = 0, 1, …`: runs until
/// `deadline` has passed, at least `min` queries ran and the count is a
/// multiple of `round` (so every run holds whole cycles). `after` sees
/// the queries so far after each one.
fn closed_loop(
    deadline: Duration,
    min: usize,
    round: usize,
    mut job: impl FnMut(usize) -> Mined,
    mut after: impl FnMut(&mut [Mined]),
) -> Vec<Mined> {
    let start = Instant::now();
    let mut out = Vec::new();
    loop {
        let done = start.elapsed() >= deadline && out.len() >= min && out.len() % round == 0;
        if done {
            return out;
        }
        trace::set_qid(out.len() as u64);
        out.push(job(out.len()));
        after(&mut out);
    }
}

fn latencies_ms(runs: &[Mined]) -> Vec<f64> {
    runs.iter().map(|m| m.latency_s * 1e3).collect()
}

fn mean(runs: &[Mined], f: impl Fn(&Mined) -> f64) -> f64 {
    runs.iter().map(f).sum::<f64>() / runs.len().max(1) as f64
}

/// The end-to-end metrics of an untraced pass.
fn end_to_end(runs: &[Mined], setup_s: f64, recovery_s: f64) -> Vec<Metric> {
    let lat = latencies_ms(runs);
    let timed_s: f64 = runs.iter().map(|m| m.latency_s).sum();
    vec![
        metric("setup_s", setup_s, "s"),
        metric("queries_per_s", runs.len() as f64 / timed_s, "1/s"),
        metric("query_p50_ms", percentile(&lat, 50.0), "ms"),
        metric("query_p90_ms", percentile(&lat, 90.0), "ms"),
        metric(
            "questions_per_query",
            mean(runs, |m| m.questions as f64),
            "count",
        ),
        metric("recovery_s", recovery_s, "s"),
        metric(
            "log_bytes_per_query",
            mean(runs, |m| m.log_bytes as f64),
            "B",
        ),
    ]
}

/// The per-layer metrics of a traced pass over the same inputs as the
/// untraced `base` pass.
fn per_layer(
    traced: &[Mined],
    spans: &[SpanRec],
    base: &[Mined],
    ops_recovered: f64,
) -> Vec<Metric> {
    let t = trace::totals(spans);
    let n = traced.len().max(1) as f64;
    let per_query = |name: &str| t.get(name).map_or(0.0, |x| x.total_ms() / n);
    let sum = |f: &dyn Fn(&Mined) -> u64| traced.iter().map(f).sum::<u64>() as f64;
    let (hits, misses) = (
        sum(&|m| m.counters.cache_hits),
        sum(&|m| m.counters.cache_misses),
    );
    let questions = sum(&|m| m.questions as u64);
    let asks = t.get("crowd.ask").map_or(0, |x| x.count) as f64;
    let overhead = percentile(&latencies_ms(traced), 50.0) - percentile(&latencies_ms(base), 50.0);
    let mut m = vec![
        metric("ql.parse_bind_ms", per_query("ql.parse_bind"), "ms"),
        metric("ql.where_ms", per_query("ql.where"), "ms"),
        metric(
            "ql.base_assignments",
            mean(traced, |m| m.base_assignments as f64),
            "count",
        ),
        metric("dag.build_ms", per_query("dag.build"), "ms"),
        metric(
            "dag.nodes_materialized",
            mean(traced, |m| m.nodes as f64),
            "count",
        ),
        metric(
            "dag.admits_calls",
            mean(traced, |m| m.admits as f64),
            "count",
        ),
        metric(
            "validity.bases_classified",
            sum(&|m| m.counters.bases_classified) / n,
            "count",
        ),
        metric(
            "validity.witness_checks",
            sum(&|m| m.counters.witness_checks) / n,
            "count",
        ),
        metric("mine.run_ms", per_query("mine.run"), "ms"),
        metric(
            "mine.self_ms",
            t.get("mine.run").map_or(0.0, |x| x.self_ms() / n),
            "ms",
        ),
        metric("mine.rounds", mean(traced, |m| m.rounds as f64), "count"),
        metric(
            "classify.cache_hit_ratio",
            if hits + misses > 0.0 {
                hits / (hits + misses)
            } else {
                0.0
            },
            "ratio",
        ),
        metric("crowd.ask_ms", per_query("crowd.ask"), "ms"),
        metric("crowd.asks", asks / n, "count"),
        metric(
            "cache.fresh_ratio",
            if questions > 0.0 {
                asks / questions
            } else {
                0.0
            },
            "ratio",
        ),
    ];
    m.extend(crate::server::absent_server_layers());
    m.push(metric("oplog.ops_recovered", ops_recovered, "count"));
    m.push(metric("trace.overhead_ms", overhead, "ms"));
    m
}

/// A query to replay: its source, ontology, shape and live outcome.
type Job<'a> = (&'a str, &'a Ontology, Shape, &'a Mined);

/// Recoveries of the run's units of queries (domain: one E1/E2/E3 cycle
/// with one crowd; stress: one query). Each unit is replayed right
/// after it ran, outside the query clocks, so the samples see the host
/// over the whole run as the queries do; `recovery_s` is the median time
/// to recover one unit, over many crowds or question orders.
#[derive(Default)]
struct Recoveries {
    walls: Vec<f64>,
    ops: Vec<usize>,
}

impl Recoveries {
    /// Replays the queries of one unit on fresh DAGs, timed, and checks
    /// every digest.
    fn replay(&mut self, report: &mut Report, jobs: &[Job<'_>]) {
        let start = Instant::now();
        let replays: Vec<(u64, usize)> = jobs
            .iter()
            .map(|(src, ont, shape, m)| recover(src, ont, *shape, m))
            .collect();
        self.walls.push(start.elapsed().as_secs_f64());
        self.ops.push(replays.iter().map(|(_, n)| n).sum());
        for ((digest, _), (_, _, _, m)) in replays.iter().zip(jobs) {
            report.check(*digest == m.semantic, || {
                format!("recovered digest {digest:016x} != live {:016x}", m.semantic)
            });
        }
    }

    /// The median time to recover one unit and the mean ops it replays.
    fn finish(self) -> (f64, f64) {
        let ops = self.ops.iter().sum::<usize>() as f64 / self.ops.len().max(1) as f64;
        (median(&self.walls), ops)
    }
}

/// Drops the op logs of recovered queries.
fn release(runs: &mut [Mined]) {
    for m in runs {
        m.wire = Vec::new();
    }
}

fn paper_domains() -> [GeneratedDomain; 3] {
    [
        travel(DomainScale::paper()),
        culinary(DomainScale::paper()),
        self_treatment(DomainScale::paper()),
    ]
}

/// Mining settings of the domain workload (the §6.3 experiment setup).
fn domain_config(crowd_seed: u64) -> MiningConfig {
    MiningConfig {
        threshold: Some(THETA),
        specialization_ratio: 0.12,
        seed: crowd_seed,
        pool: minipool::Pool::sequential(),
        batch_width: 1,
        ..Default::default()
    }
}

/// Query `i` of the domain loop: domain `i mod 3`, with a fresh crowd
/// and a fresh answer cache. Cycle `c = i / 3` uses crowd seed
/// `seed + c`, so seed 7 starts with the golden outcomes and a run
/// averages over many crowds.
fn domain_query(
    domains: &[GeneratedDomain; 3],
    seed: u64,
    i: usize,
    spin: Duration,
    traced: bool,
) -> Mined {
    let d = &domains[i % 3];
    let crowd_seed = seed.wrapping_add((i / 3) as u64);
    let vocab = d.ontology.vocab();
    let mut crowd = TimedCrowd::new(domain_crowd(
        d,
        vocab,
        CROWD_MEMBERS,
        HABITS[i % 3],
        crowd_seed,
    ));
    crowd.spin = spin;
    let mut cache = CrowdCache::new();
    let mut caching = CachingCrowd::new(crowd, &mut cache);
    mine(
        &d.query,
        &d.ontology,
        DOMAIN_SHAPE,
        &mut caching,
        domain_config(crowd_seed),
        traced,
    )
}

/// Recovery jobs for the domain queries `runs`, which start at an E1 query.
fn domain_jobs<'a>(domains: &'a [GeneratedDomain; 3], runs: &'a [Mined]) -> Vec<Job<'a>> {
    runs.iter()
        .zip(domains.iter().cycle())
        .map(|(m, d)| (d.query.as_str(), &d.ontology, DOMAIN_SHAPE, m))
        .collect()
}

/// The domain set-up: generates the three paper-scale ontologies and
/// their crowds; returns the ontologies and the seconds it took.
fn set_up_domains() -> ([GeneratedDomain; 3], f64) {
    let start = Instant::now();
    let domains = paper_domains();
    let crowds: Vec<_> = domains
        .iter()
        .enumerate()
        .map(|(k, d)| {
            domain_crowd(
                d,
                d.ontology.vocab(),
                CROWD_MEMBERS,
                HABITS[k],
                SETUP_CROWD_SEED,
            )
        })
        .collect();
    let took = start.elapsed().as_secs_f64();
    drop(std::hint::black_box(crowds));
    (domains, took)
}

pub fn domain_mining(args: &Args) -> Report {
    let mut report = Report::default();
    let (domains, _) = set_up_domains();

    let pass_len = if args.trace {
        args.seconds / 2
    } else {
        args.seconds
    };
    let mut rec = Recoveries::default();
    let mut setups = Setups::new(pass_len, DOMAIN_SETUP_BATCH);
    let runs = closed_loop(
        pass_len,
        3,
        3,
        |i| domain_query(&domains, args.seed, i, Duration::ZERO, false),
        |runs| {
            setups.sample_if_due(|| set_up_domains().1);
            let n = runs.len();
            if n.is_multiple_of(3) {
                rec.replay(&mut report, &domain_jobs(&domains, &runs[n - 3..]));
                release(&mut runs[n - 3..]);
            }
        },
    );
    for (i, m) in runs.iter().enumerate() {
        report.check(!m.msps.is_empty() && m.questions > 0, || {
            format!("query {i} found no MSPs")
        });
    }
    if args.seed == 7 {
        for ((name, want), m) in GOLDEN.iter().zip(&runs) {
            report.check(m.digest == *want, || {
                format!("{name} digest {:016x} != golden {want:016x}", m.digest)
            });
        }
    }
    let setup_s = setups.finish(|| set_up_domains().1);
    let (recovery_s, ops) = rec.finish();
    report.notes.push(format!(
        "{} queries (E1/E2/E3 cycles), crowd seeds {}..{}",
        runs.len(),
        args.seed,
        args.seed.wrapping_add((runs.len() / 3) as u64 - 1)
    ));

    if !args.trace {
        report.metrics = end_to_end(&runs, setup_s, recovery_s);
        return report;
    }
    trace::start();
    let traced = closed_loop(
        Duration::ZERO,
        runs.len(),
        3,
        |i| domain_query(&domains, args.seed, i, Duration::ZERO, true),
        |_| {},
    );
    let spans = trace::stop();
    for (i, (a, b)) in runs.iter().zip(&traced).enumerate() {
        report.check(a.digest == b.digest, || {
            format!(
                "query {i}: traced digest {:016x} != untraced {:016x}",
                b.digest, a.digest
            )
        });
    }
    write_trace(&mut report, "domain_mining", &spans);
    report.metrics = per_layer(&traced, &spans, &runs, ops);
    report
}

fn write_trace(report: &mut Report, workload: &str, spans: &[SpanRec]) {
    let path = run_dir().join(format!("{workload}.trace.jsonl"));
    match trace::write_jsonl(&path, spans) {
        Ok(()) => report.notes.push(format!(
            "{} spans written to {}",
            spans.len(),
            path.display()
        )),
        Err(e) => report.notes.push(format!("trace not written: {e}")),
    }
}

/// The stress ontology, its query, the planted patterns and the truth.
struct StressInputs {
    domain: SyntheticDomain,
    planted: Vec<PatternSet>,
    truth: BTreeSet<String>,
}

/// Plants eight MSP patterns the way `bench_speed` does, by bounded lazy
/// descent (materializing every assignment just to sample a handful
/// would dwarf the measurement): pattern `i` takes child `(3i + step)
/// mod width` at each of five steps. The seed drives the oracle and the
/// miner, not the planting, so every seed mines the same cone.
fn stress_inputs() -> StressInputs {
    let domain = stress_domain(STRESS_ASSIGNMENTS, 8);
    let vocab = domain.ontology.vocab();
    let b = bind(&parse(&domain.query).expect("parses"), &domain.ontology).expect("binds");
    let base = evaluate_where(&b, &domain.ontology, MatchMode::Exact);
    let mut scout = Dag::new(&b, vocab, &base).without_multiplicities();
    let root = scout.roots()[0];
    let mut planted: Vec<PatternSet> = Vec::new();
    let mut seen = BTreeSet::new();
    for i in 0..8usize {
        let mut id = root;
        for step in 0..5usize {
            let span = scout.ensure_children(id);
            let children = scout.child_slice(span);
            if children.is_empty() {
                break;
            }
            id = children[(i * 3 + step) % children.len()];
        }
        let pattern = scout.node(id).assignment.apply(&b);
        if seen.insert(pattern.to_display(vocab)) {
            planted.push(pattern);
        }
    }
    // the true MSPs: planted patterns no other planted pattern specializes
    let truth = planted
        .iter()
        .filter(|p| !planted.iter().any(|q| q != *p && p.leq(vocab, q)))
        .map(|p| p.to_display(vocab))
        .collect();
    StressInputs {
        domain,
        planted,
        truth,
    }
}

/// Query `i` of the stress loop seeds the oracle and the miner with
/// `seed + i`, so a run averages over many question orders.
fn stress_query(inputs: &StressInputs, seed: u64, i: usize, traced: bool) -> Mined {
    let seed = seed.wrapping_add(i as u64);
    let d = &inputs.domain;
    let mut oracle = TimedCrowd::new(PlantedOracle::new(
        d.ontology.vocab(),
        inputs.planted.clone(),
        40,
        seed,
    ));
    let cfg = MiningConfig {
        specialization_ratio: 0.12,
        seed,
        pool: minipool::Pool::sequential(),
        batch_width: 1,
        ..Default::default()
    };
    mine(
        &d.query,
        &d.ontology,
        STRESS_SHAPE,
        &mut oracle,
        cfg,
        traced,
    )
}

/// Recovery jobs for stress queries `runs`.
fn stress_jobs<'a>(d: &'a SyntheticDomain, runs: &'a [Mined]) -> Vec<Job<'a>> {
    runs.iter()
        .map(|m| (d.query.as_str(), &d.ontology, STRESS_SHAPE, m))
        .collect()
}

/// The stress set-up: generates the ontology and plants the patterns
/// (the simulated crowd's ground truth); returns the inputs and the
/// seconds it took.
fn set_up_stress() -> (StressInputs, f64) {
    let start = Instant::now();
    let inputs = stress_inputs();
    (inputs, start.elapsed().as_secs_f64())
}

pub fn stress(args: &Args) -> Report {
    let mut report = Report::default();
    // set-up: generating the ontology and planting the patterns (the
    // simulated crowd's ground truth)
    let (inputs, _) = set_up_stress();

    let pass_len = if args.trace {
        args.seconds / 2
    } else {
        args.seconds
    };
    let d = &inputs.domain;
    let mut rec = Recoveries::default();
    let mut setups = Setups::new(pass_len, 1);
    let runs = closed_loop(
        pass_len,
        1,
        1,
        |i| stress_query(&inputs, args.seed, i, false),
        |runs| {
            setups.sample_if_due(|| set_up_stress().1);
            let n = runs.len();
            rec.replay(&mut report, &stress_jobs(d, &runs[n - 1..]));
            release(&mut runs[n - 1..]);
        },
    );
    let check_truth = |report: &mut Report, runs: &[Mined]| {
        for (i, m) in runs.iter().enumerate() {
            let hit = m.msps.intersection(&inputs.truth).count() as f64;
            if i == 0 {
                report.notes.push(format!(
                    "msp_recall {:.3} msp_precision {:.3} ({} mined, {} planted maximal)",
                    hit / inputs.truth.len() as f64,
                    hit / m.msps.len().max(1) as f64,
                    m.msps.len(),
                    inputs.truth.len()
                ));
            }
            report.check(m.msps == inputs.truth, || {
                format!("query {i}: mined MSP set differs from the planted maximal set")
            });
        }
    };
    check_truth(&mut report, &runs);
    let setup_s = setups.finish(|| set_up_stress().1);
    let (recovery_s, ops) = rec.finish();
    report.notes.push(format!(
        "{} queries over {} base assignments",
        runs.len(),
        runs[0].base_assignments
    ));

    if !args.trace {
        report.metrics = end_to_end(&runs, setup_s, recovery_s);
        return report;
    }
    trace::start();
    let traced = closed_loop(
        Duration::ZERO,
        runs.len(),
        1,
        |i| stress_query(&inputs, args.seed, i, true),
        |_| {},
    );
    let spans = trace::stop();
    check_truth(&mut report, &traced);
    write_trace(&mut report, "stress_1e5", &spans);
    report.metrics = per_layer(&traced, &spans, &runs, ops);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serializes the timing-sensitive test against the others.
    static QUIET: Mutex<()> = Mutex::new(());

    /// One traced E1 query (crowd seed 7): its latency, `crowd.ask`
    /// time, `mine.run` self time (ms) and number of asks.
    fn traced_profile(domains: &[GeneratedDomain; 3], spin: Duration) -> [f64; 4] {
        trace::start();
        let m = domain_query(domains, 7, 0, spin, true);
        let t = trace::totals(&trace::stop());
        [
            m.latency_s * 1e3,
            t["crowd.ask"].total_ms(),
            t["mine.run"].self_ms(),
            t["crowd.ask"].count as f64,
        ]
    }

    /// Attribution self-check: slowing the crowd by about 30 % of a
    /// query must show up in `crowd.ask_ms`, not in `mine.self_ms`.
    /// Plain and slowed runs of the same query alternate, and the
    /// medians of the paired differences are compared with the time
    /// the spin added.
    #[test]
    fn added_crowd_time_is_attributed_to_the_crowd() {
        let _quiet = QUIET.lock().unwrap_or_else(|e| e.into_inner());
        let domains = paper_domains();
        let base: Vec<[f64; 4]> = (0..3)
            .map(|_| traced_profile(&domains, Duration::ZERO))
            .collect();
        let col =
            |rows: &[[f64; 4]], k: usize| median(&rows.iter().map(|r| r[k]).collect::<Vec<_>>());
        let (total, asks) = (col(&base, 0), col(&base, 3));
        let spin = Duration::from_secs_f64(0.3 * total / 1e3 / asks);
        let added = spin.as_secs_f64() * 1e3 * asks;
        let diffs: Vec<[f64; 4]> = (0..15)
            .map(|_| {
                let plain = traced_profile(&domains, Duration::ZERO);
                let slowed = traced_profile(&domains, spin);
                std::array::from_fn(|k| slowed[k] - plain[k])
            })
            .collect();
        let (d_crowd, d_self) = (col(&diffs, 1), col(&diffs, 2));
        assert!(
            d_crowd >= 0.8 * added,
            "crowd.ask_ms grew {d_crowd:.3} ms of {added:.3} ms added"
        );
        assert!(
            d_self <= 0.2 * added,
            "mine.self_ms grew {d_self:.3} ms for {added:.3} ms added to the crowd"
        );
    }

    #[test]
    fn stress_planting_is_deterministic_and_an_antichain() {
        let _quiet = QUIET.lock().unwrap_or_else(|e| e.into_inner());
        let a = stress_inputs();
        let b = stress_inputs();
        assert_eq!(a.truth, b.truth);
        assert_eq!(a.truth.len(), a.planted.len());
    }
}
