//! Span recorder for the traced run. Spans are recorded by the benchmark
//! around its calls into the library — name, start, end, parent, request id
//! — kept in memory, and written to `out/trace.json` when the run ends.
//!
//! Every span feeds a per-name aggregate (count, busy time, p50). The first
//! [`RAW_CAP`] spans of a tracer are also kept raw; self time (a span minus
//! the part of it its children cover) and the JSON dump come from those.
//! With tracing off every entry point returns before reading the clock.

use std::cell::RefCell;
use std::collections::HashMap;
use std::io::Write;
use std::time::Instant;

use crate::hist::Hist;

/// Raw spans kept per tracer.
const RAW_CAP: usize = 24_000;

macro_rules! span_names {
    ($($ident:ident = $text:literal),* $(,)?) => {
        #[derive(Clone, Copy, PartialEq, Eq, Debug)]
        #[allow(clippy::enum_variant_names)]
        pub enum Name { $($ident),* }
        pub const NAMES: &[&str] = &[$($text),*];
    };
}

span_names! {
    Pair = "uncontended.pair",
    SemOp = "op.semaphore",
    PoolOp = "op.pool",
    SendOp = "op.send",
    RecvOp = "op.receive",
    Await = "await",
    Hold = "hold",
    MassAbort = "mass_abort",
    SemAcquire = "Semaphore::acquire",
    SemRelease = "Semaphore::release",
    MutexLock = "RawMutex::lock",
    MutexUnlock = "RawMutex::unlock",
    PoolTake = "QueuePool::take",
    PoolPut = "QueuePool::put",
    ChanSend = "CqsChannel::send",
    ChanRecv = "CqsChannel::receive",
    Cancel = "cancel",
    Request = "pipeline.request",
    Admission = "pipeline.admission",
    Checkout = "pipeline.checkout",
    Send = "pipeline.send",
    Service = "pipeline.service",
    Return = "pipeline.return",
}

#[derive(Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub req: u64,
    pub name: Name,
    pub start: u64,
    pub end: u64,
}

struct Agg {
    count: u64,
    busy_ns: u64,
    hist: Hist,
}

impl Agg {
    fn per_name() -> Vec<Agg> {
        NAMES
            .iter()
            .map(|_| Agg {
                count: 0,
                busy_ns: 0,
                hist: Hist::new(),
            })
            .collect()
    }
}

struct Inner {
    next_id: u64,
    agg: Vec<Agg>,
    raw: Vec<Span>,
}

/// One thread's span recorder. Ids carry the tracer's `tag` in their top
/// byte so spans from different threads never collide; 0 means "no parent".
pub struct Tracer {
    on: bool,
    tag: u64,
    t0: Instant,
    inner: RefCell<Inner>,
}

impl Tracer {
    /// A recorder that is live if `on` and otherwise ignores every call;
    /// `t0` is the clock origin shared by the run's tracers.
    pub fn new(on: bool, tag: u8, t0: Instant) -> Self {
        Tracer {
            on,
            tag: u64::from(tag) << 56,
            t0,
            inner: RefCell::new(Inner {
                next_id: 0,
                agg: if on { Agg::per_name() } else { Vec::new() },
                raw: Vec::with_capacity(if on { RAW_CAP } else { 0 }),
            }),
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span: its id and start time (both 0 when off).
    #[inline]
    pub fn start(&self) -> (u64, u64) {
        if !self.on {
            return (0, 0);
        }
        let mut inner = self.inner.borrow_mut();
        inner.next_id += 1;
        (self.tag | inner.next_id, self.now())
    }

    /// Closes a span opened by [`start`](Self::start), ending now.
    #[inline]
    pub fn finish(&self, name: Name, (id, start): (u64, u64), parent: u64, req: u64) {
        if self.on {
            self.record(Span {
                id,
                parent,
                req,
                name,
                start,
                end: self.now(),
            });
        }
    }

    /// Records a span whose endpoints were stamped elsewhere (the pipeline
    /// request, opened on one thread and closed on the other).
    pub fn record(&self, span: Span) {
        if !self.on {
            return;
        }
        let mut inner = self.inner.borrow_mut();
        let dur = span.end.saturating_sub(span.start);
        let agg = &mut inner.agg[span.name as usize];
        agg.count += 1;
        agg.busy_ns += dur;
        agg.hist.record(dur);
        if inner.raw.len() < RAW_CAP {
            inner.raw.push(span);
        }
    }

    /// Runs `f` inside a span.
    #[inline]
    pub fn call<R>(&self, name: Name, parent: u64, req: u64, f: impl FnOnce() -> R) -> R {
        let open = self.start();
        let r = f();
        self.finish(name, open, parent, req);
        r
    }
}

/// Per-name totals over one or more tracers of the same run.
pub struct Report {
    pub rows: Vec<Row>,
    pub raw: Vec<Span>,
}

pub struct Row {
    pub name: &'static str,
    pub count: u64,
    pub busy_ns: u64,
    pub p50_ns: f64,
    /// Self time over span time, from the raw spans of this name.
    pub self_share: f64,
    /// Median self time of the raw spans of this name.
    pub self_p50_ns: f64,
}

impl Report {
    pub fn build(tracers: Vec<Tracer>) -> Report {
        let mut agg = Agg::per_name();
        let mut raw = Vec::new();
        for tracer in tracers {
            let inner = tracer.inner.into_inner();
            for (into, from) in agg.iter_mut().zip(&inner.agg) {
                into.count += from.count;
                into.busy_ns += from.busy_ns;
                into.hist.merge(&from.hist);
            }
            raw.extend(inner.raw);
        }
        // Self time: a span's duration minus its children's. Children of one
        // parent run back to back, so their sum is the covered interval;
        // the clamp absorbs the one overlap (pipeline.send may still be
        // returning on thread A after thread B has begun pipeline.service).
        let mut covered: HashMap<u64, u64> = HashMap::new();
        for s in &raw {
            if s.parent != 0 {
                *covered.entry(s.parent).or_default() += s.end.saturating_sub(s.start);
            }
        }
        let mut self_ns: Vec<Vec<f64>> = NAMES.iter().map(|_| Vec::new()).collect();
        let mut span_ns = vec![0u64; NAMES.len()];
        for s in &raw {
            let dur = s.end.saturating_sub(s.start);
            let own = dur.saturating_sub(covered.get(&s.id).copied().unwrap_or(0));
            self_ns[s.name as usize].push(own as f64);
            span_ns[s.name as usize] += dur;
        }
        let rows = NAMES
            .iter()
            .enumerate()
            .filter(|&(i, _)| agg[i].count > 0)
            .map(|(i, name)| Row {
                name,
                count: agg[i].count,
                busy_ns: agg[i].busy_ns,
                p50_ns: agg[i].hist.quantile(0.5),
                self_share: self_ns[i].iter().sum::<f64>() / (span_ns[i].max(1)) as f64,
                self_p50_ns: if self_ns[i].is_empty() {
                    0.0
                } else {
                    crate::hist::median(&self_ns[i])
                },
            })
            .collect();
        Report { rows, raw }
    }

    pub fn row(&self, name: Name) -> Option<&Row> {
        self.rows.iter().find(|r| r.name == NAMES[name as usize])
    }

    pub fn print(&self, workload: &str) {
        println!("trace spans: {workload}");
        println!(
            "  {:<22} {:>10} {:>12} {:>11} {:>11} {:>7}",
            "span", "count", "busy_ms", "p50_ns", "self_p50_ns", "self%"
        );
        for r in &self.rows {
            println!(
                "  {:<22} {:>10} {:>12.3} {:>11.0} {:>11.0} {:>7.1}",
                r.name,
                r.count,
                r.busy_ns as f64 / 1e6,
                r.p50_ns,
                r.self_p50_ns,
                r.self_share * 100.0
            );
        }
    }
}

/// Writes the raw spans of every traced workload as one JSON document.
pub fn write_json(path: &std::path::Path, runs: &[(&str, &Report)]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{{\"unit\": \"ns\", \"workloads\": [")?;
    for (w, (workload, report)) in runs.iter().enumerate() {
        writeln!(out, " {{\"workload\": \"{workload}\", \"spans\": [")?;
        for (i, s) in report.raw.iter().enumerate() {
            let comma = if i + 1 == report.raw.len() { "" } else { "," };
            writeln!(
                out,
                "  {{\"id\": {}, \"parent\": {}, \"req\": {}, \"name\": \"{}\", \"start\": {}, \"end\": {}}}{comma}",
                s.id, s.parent, s.req, NAMES[s.name as usize], s.start, s.end
            )?;
        }
        let comma = if w + 1 == runs.len() { "" } else { "," };
        writeln!(out, " ]}}{comma}")?;
    }
    writeln!(out, "]}}")?;
    out.flush()
}
