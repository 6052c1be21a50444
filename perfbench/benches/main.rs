//! The repository benchmark. One invocation runs one workload:
//!
//! ```text
//! perfbench --workload <domain_mining|stress_1e5|server_session>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics with tracing off.
//! With `--trace 1` it runs an untraced pass and then a traced pass over
//! the same inputs, and reports the per-layer metrics, including the
//! tracing overhead. Every run checks the program's outputs; the last
//! line of standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. The exit code is non-zero when
//! any check failed. See README.md for the metric definitions.

mod mining;
mod server;
mod trace;

use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (7u64, 10u64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = num()?,
            "--seconds" => seconds = num()?.max(1),
            "--trace" => trace = num()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: Duration::from_secs(seconds),
        trace,
    })
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What a workload run hands back to `main`.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the JSON result.
    pub notes: Vec<String>,
}

impl Report {
    /// Counts one checked operation; a failed check is also noted.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            let msg = what();
            eprintln!("CHECK FAILED: {msg}");
            self.notes.push(format!("check failed: {msg}"));
        }
    }
}

/// Nearest-rank percentile of `xs` (0 < p <= 100).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// Median (mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Set-up samples per run; the median is reported.
const SETUP_SAMPLES: usize = 11;

/// Set-up time as reported: [`SETUP_SAMPLES`] samples, each the median
/// of a batch of `batch` set-ups, and their median. The samples are taken
/// evenly through a pass, between queries and outside their clocks, so
/// they see the host over the whole run as the queries do; a batch of
/// set-ups that take a millisecond or less keeps one slow thread wake-up
/// from moving the figure.
pub struct Setups {
    every: Duration,
    last: Instant,
    batch: usize,
    samples: Vec<f64>,
}

impl Setups {
    pub fn new(pass_len: Duration, batch: usize) -> Setups {
        Setups {
            every: pass_len / SETUP_SAMPLES as u32,
            last: Instant::now(),
            batch,
            samples: Vec::new(),
        }
    }

    /// `once` performs one set-up and returns the seconds it took.
    fn sample(&mut self, once: &mut impl FnMut() -> f64) {
        let batch: Vec<f64> = (0..self.batch).map(|_| once()).collect();
        self.samples.push(median(&batch));
        self.last = Instant::now();
    }

    pub fn sample_if_due(&mut self, mut once: impl FnMut() -> f64) {
        if self.samples.len() < SETUP_SAMPLES && self.last.elapsed() >= self.every {
            self.sample(&mut once);
        }
    }

    /// Tops the samples up to [`SETUP_SAMPLES`] and returns their median.
    pub fn finish(mut self, mut once: impl FnMut() -> f64) -> f64 {
        while self.samples.len() < SETUP_SAMPLES {
            self.sample(&mut once);
        }
        median(&self.samples)
    }
}

/// Where runs keep their scratch state (WAL roots, trace files): inside
/// the checkout, ignored by git.
pub fn run_dir() -> PathBuf {
    PathBuf::from(".bench_run")
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let report = match args.workload.as_str() {
        "domain_mining" => mining::domain_mining(&args),
        "stress_1e5" => mining::stress(&args),
        "server_session" => server::server_session(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# {} seed={} seconds={} trace={} nproc={nproc} (closed loop, one client, sequential pool)",
        args.workload,
        args.seed,
        args.seconds.as_secs(),
        u8::from(args.trace)
    );
    for n in &report.notes {
        println!("# {n}");
    }
    for m in &report.metrics {
        println!("# {:<28} {:>16} {}", m.name, json_num(m.value), m.unit);
    }
    let failure_rate = report.failed as f64 / report.attempted.max(1) as f64;
    println!("# {:<28} {:>16} ratio", "failure_rate", failure_rate);
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    let correct = report.failed == 0 && report.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
