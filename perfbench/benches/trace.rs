//! Bench-side tracing: spans recorded around the calls the benchmark
//! makes into each layer, kept in memory and written out once at the end.
//!
//! Each span has a name, a start and an end (nanoseconds since the
//! tracer started), the span that was open when it began (its parent),
//! and the id of the query or request it belongs to. Spans nest on one
//! thread only: the recorder is thread-local, so work done on another
//! thread (the server's connection threads) records nothing.

use crowd::{Answer, CrowdSource, MemberId, Question};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// One closed span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the recording, if any.
    pub parent: Option<usize>,
    /// Query or request id shared by every span of one query.
    pub qid: u64,
}

struct Tracer {
    epoch: Instant,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
    qid: u64,
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Starts recording on this thread (drops any earlier recording).
pub fn start() {
    TRACER.with(|t| {
        *t.borrow_mut() = Some(Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            qid: 0,
        })
    });
}

/// Stops recording and returns every closed span, in start order.
pub fn stop() -> Vec<SpanRec> {
    TRACER.with(|t| t.borrow_mut().take().map(|t| t.spans).unwrap_or_default())
}

/// Sets the query id that spans opened from now on carry.
pub fn set_qid(qid: u64) {
    TRACER.with(|t| {
        if let Some(t) = t.borrow_mut().as_mut() {
            t.qid = qid;
        }
    });
}

/// An open span; it closes when dropped. Inert when tracing is off.
pub struct Span(Option<usize>);

/// Opens a span under the innermost open one.
pub fn span(name: &'static str) -> Span {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let Some(t) = t.as_mut() else {
            return Span(None);
        };
        let idx = t.spans.len();
        let start_ns = t.epoch.elapsed().as_nanos() as u64;
        t.spans.push(SpanRec {
            name,
            start_ns,
            end_ns: start_ns,
            parent: t.open.last().copied(),
            qid: t.qid,
        });
        t.open.push(idx);
        Span(Some(idx))
    })
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(idx) = self.0 else { return };
        TRACER.with(|t| {
            if let Some(t) = t.borrow_mut().as_mut() {
                t.spans[idx].end_ns = t.epoch.elapsed().as_nanos() as u64;
                t.open.retain(|&i| i != idx);
            }
        });
    }
}

/// Per-name totals over a recording.
#[derive(Debug, Default, Clone, Copy)]
pub struct Totals {
    pub count: usize,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed self time: duration minus the time child spans cover.
    pub self_ns: u64,
}

impl Totals {
    pub fn total_ms(&self) -> f64 {
        self.total_ns as f64 / 1e6
    }

    pub fn self_ms(&self) -> f64 {
        self.self_ns as f64 / 1e6
    }
}

/// Aggregates spans by name, computing each span's self time as its
/// duration minus the union of its children's intervals.
pub fn totals(spans: &[SpanRec]) -> BTreeMap<&'static str, Totals> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        // children are recorded in start order; merge overlapping ones
        let mut covered = 0u64;
        let mut reach = s.start_ns;
        for &c in &children[i] {
            let (a, b) = (spans[c].start_ns.max(reach), spans[c].end_ns.min(s.end_ns));
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(covered);
    }
    out
}

/// Writes the recording as JSON lines (one span per line).
pub fn write_jsonl(path: &Path, spans: &[SpanRec]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"qid\":{}}}",
            s.name, s.start_ns, s.end_ns, s.qid
        )?;
    }
    w.flush()
}

/// A crowd wrapper that records a `crowd.ask` span around every ask, so
/// crowd time can be told apart from the miner's own time. `spin` adds a
/// busy-wait inside each ask (the attribution self-check slows the crowd
/// on purpose); it is zero in every measured run.
pub struct TimedCrowd<C> {
    pub inner: C,
    pub spin: Duration,
}

impl<C> TimedCrowd<C> {
    pub fn new(inner: C) -> Self {
        TimedCrowd {
            inner,
            spin: Duration::ZERO,
        }
    }
}

impl<C: CrowdSource> CrowdSource for TimedCrowd<C> {
    fn members(&self) -> Vec<MemberId> {
        self.inner.members()
    }

    fn ask(&mut self, member: MemberId, question: &Question) -> Answer {
        let _span = span("crowd.ask");
        if !self.spin.is_zero() {
            let t = Instant::now();
            while t.elapsed() < self.spin {
                std::hint::spin_loop();
            }
        }
        self.inner.ask(member, question)
    }

    fn questions_asked(&self) -> usize {
        self.inner.questions_asked()
    }

    fn member_has_profile(&self, member: MemberId, label: &str) -> bool {
        self.inner.member_has_profile(member, label)
    }

    fn advance_clock(&mut self, ticks: u64) {
        self.inner.advance_clock(ticks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            SpanRec {
                name: "q",
                start_ns: 0,
                end_ns: 100,
                parent: None,
                qid: 1,
            },
            SpanRec {
                name: "c",
                start_ns: 10,
                end_ns: 30,
                parent: Some(0),
                qid: 1,
            },
            SpanRec {
                name: "c",
                start_ns: 50,
                end_ns: 60,
                parent: Some(0),
                qid: 1,
            },
        ];
        let t = totals(&spans);
        assert_eq!(t["q"].total_ns, 100);
        assert_eq!(t["q"].self_ns, 70);
        assert_eq!(t["c"].count, 2);
        assert_eq!(t["c"].self_ns, 30);
    }

    #[test]
    fn spans_nest_and_carry_the_query_id() {
        start();
        set_qid(7);
        {
            let _a = span("a");
            let _b = span("b");
        }
        let spans = stop();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.qid == 7));
        // nothing records once stopped
        drop(span("c"));
        assert!(stop().is_empty());
    }
}
