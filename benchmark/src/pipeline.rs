//! `pipeline`: the end-to-end scenario from existing parts, on two OS
//! threads and closed-loop with 512 requests in flight.
//!
//! Thread A admits a request through `ShardedSemaphore(512, 2 shards)`,
//! checks a buffer out of a `ShardedQueuePool`, fills it and sends it over
//! `CqsChannel::bounded(512)`. Thread B receives it, verifies the checksum,
//! spends ≈0.4 µs of service on it, returns the buffer and releases the
//! permit. It is the only workload with real threads: the blocking `wait()`
//! spin/yield/park ladder, thread-local home shards with stealing and
//! rebalancing, and cross-thread cache traffic show here and nowhere else.
//!
//! B is the slower side, so the pipeline runs full: B always finds a
//! request buffered, A is always short of permits, parks, and is woken by
//! the rebalance pulse of B's 64th banked release. Throughput is B's pace;
//! a request's latency is its trip through the full queue.
//!
//! Closed-loop because callers of a synchronisation library wait for their
//! reply; an open-loop generator spinning beside the worker saturates both
//! vCPUs of the box and measures the host's wake-up latency instead (see
//! README). The open-loop form survives as a diagnostic of the traced run.

use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::time::Instant;

use cqs::{CqsChannel, ShardedQueuePool, ShardedSemaphore};

use crate::hist::Hist;
use crate::trace::{Name, Span, Tracer};
use crate::workload::{Counts, Extras, Meter, Params, Rng, Run};

/// Requests in flight. Thread A sleeps through B's next 64 releases (the
/// sharded semaphore's rebalance interval) and then needs ≈105 µs to wake
/// from its park — ≈100 more items at B's pace — so B only stays fed, and
/// the run in one regime, with a few hundred requests queued (see README).
const IN_FLIGHT: usize = 512;
/// Rounds of checksum mixing B spends on each request beyond verifying it:
/// ≈0.4 µs, the service the pipeline exists to deliver.
const SERVICE_ROUNDS: usize = 8;

const SHARDS: usize = 2;
const WORDS: usize = 32;
type Buffer = Box<[u64; WORDS]>;

/// Items per slice: ≈0.5 ms, three of A's park-and-refill cycles, so that
/// whether A happens to run beside B or sleep averages out within a slice.
const SLICE_ITEMS: u64 = 512;
/// One request in this many is a latency sample.
const SAMPLE_EVERY: u64 = 4;

/// How many slices warm up, make a window, and — for the open-loop
/// diagnostic — how far apart the items are due.
#[derive(Clone, Copy)]
pub struct Shape {
    pub warmup_slices: u64,
    pub window_slices: u64,
    pub period_ns: Option<u64>,
}

/// ≈0.14 s per window and ≈0.2 s of warm-up on undisturbed cores.
pub const CLOSED_LOOP: Shape = Shape {
    warmup_slices: 376,
    window_slices: 250,
    period_ns: None,
};

struct Item {
    seq: u64,
    /// When the request began (closed loop) or was due (open loop), ns.
    stamp: u64,
    sum: u64,
    root: u64,
    last: bool,
    buffer: Buffer,
}

struct Stage {
    semaphore: ShardedSemaphore,
    pool: ShardedQueuePool<Buffer>,
    channel: CqsChannel<Item>,
    stop: AtomicBool,
    t0: Instant,
}

impl Stage {
    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }
}

fn checksum(buffer: &[u64; WORDS], rounds: usize) -> u64 {
    let mut h = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..rounds {
        for &w in buffer.iter() {
            h = (h ^ w).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
            h ^= h >> 29;
        }
    }
    h
}

#[derive(Default)]
struct Calls {
    calls: u64,
    suspended: u64,
}

impl Calls {
    fn count(&mut self, immediate: bool) {
        self.calls += 1;
        self.suspended += u64::from(!immediate);
    }
}

struct Produced {
    sent: u64,
    calls: Calls,
    tracer: Tracer,
    late: Hist,
}

fn produce(stage: &Stage, shape: Shape, seed: u64, tracer: Tracer, mut late: Hist) -> Produced {
    let mut rng = Rng::new(seed, 0);
    let mut calls = Calls::default();
    let began = stage.now();
    let mut seq = 0;
    loop {
        let last = stage.stop.load(Relaxed);
        let mut stamp = stage.now();
        if let Some(period) = shape.period_ns {
            // Open loop: requests are due on a schedule and timed from it.
            let due = began + seq * period;
            while stamp < due {
                std::hint::spin_loop();
                stamp = stage.now();
            }
            late.record(stamp - due);
            stamp = due;
        }
        let root = tracer.start().0;

        let open = tracer.start();
        let permit = stage.semaphore.acquire();
        calls.count(permit.is_immediate());
        permit.wait().expect("the semaphore is never closed");
        tracer.finish(Name::Admission, open, root, seq);

        let open = tracer.start();
        let checkout = stage.pool.take();
        calls.count(checkout.is_immediate());
        let mut buffer = checkout.wait().expect("the pool is never closed");
        tracer.finish(Name::Checkout, open, root, seq);

        let open = tracer.start();
        for word in buffer.iter_mut() {
            *word = rng.next();
        }
        let item = Item {
            seq,
            stamp,
            sum: checksum(&buffer, 1),
            root,
            last,
            buffer,
        };
        let send = stage.channel.send(item);
        calls.count(send.is_immediate());
        send.wait()
            .expect("the channel closes only after the drain");
        tracer.finish(Name::Send, open, root, seq);

        if last {
            return Produced {
                sent: seq,
                calls,
                tracer,
                late,
            };
        }
        seq += 1;
    }
}

struct Consumed {
    items: u64,
    failed: u64,
    warmup_s: f64,
    meter: Meter,
    counts: Counts,
    calls: Calls,
    tracer: Tracer,
}

fn consume(
    stage: &Stage,
    shape: Shape,
    mut meter: Meter,
    mut counts: Counts,
    tracer: Tracer,
) -> Consumed {
    let mut calls = Calls::default();
    let (mut items, mut failed, mut warmup_s) = (0u64, 0u64, 0.0);
    let warmup_items = shape.warmup_slices * SLICE_ITEMS;
    let window_items = shape.window_slices * SLICE_ITEMS;
    let mut stopping = false;
    meter.begin_slice();
    loop {
        let receive = stage.channel.receive();
        calls.count(receive.is_immediate());
        let item = receive
            .wait()
            .expect("the channel closes only after the drain");

        let open = tracer.start();
        failed += u64::from(item.seq != items || checksum(&item.buffer, 1) != item.sum);
        std::hint::black_box(checksum(&item.buffer, SERVICE_ROUNDS));
        tracer.finish(Name::Service, open, item.root, item.seq);

        let open = tracer.start();
        stage.pool.put(item.buffer);
        stage.semaphore.release();
        tracer.finish(Name::Return, open, item.root, item.seq);

        let now = stage.now();
        tracer.record(Span {
            id: item.root,
            parent: 0,
            req: item.seq,
            name: Name::Request,
            start: item.stamp,
            end: now,
        });
        if item.last {
            return Consumed {
                items,
                failed,
                warmup_s,
                meter,
                counts,
                calls,
                tracer,
            };
        }
        items += 1;
        if items.is_multiple_of(SAMPLE_EVERY) {
            meter.sample(item.stamp, now, now - item.stamp);
        }
        if !items.is_multiple_of(SLICE_ITEMS) {
            continue;
        }
        meter.end_slice(SLICE_ITEMS);
        if items == warmup_items {
            warmup_s = meter.warmed_up();
            counts.start(items);
        } else if items > warmup_items && (items - warmup_items).is_multiple_of(window_items) {
            meter.end_window();
            counts.window_done(meter.done.len(), items);
        }
        if items >= warmup_items && !stopping && !meter.more() {
            // Thread A sends one more item, flagged `last`, and stops;
            // everything still in flight drains through this loop first.
            stopping = true;
            stage.stop.store(true, Relaxed);
        }
    }
}

pub fn run(p: &Params, shape: Shape, t0: Instant) -> Run {
    let setup = Instant::now();
    let late = Hist::new();
    let slices = shape.window_slices.max(shape.warmup_slices) as usize;
    let samples = slices * (SLICE_ITEMS / SAMPLE_EVERY) as usize;
    let meter = Meter::new(p, t0, slices, samples);
    let buffers: Vec<Buffer> = (0..IN_FLIGHT).map(|_| Box::new([0; WORDS])).collect();
    let tracer_a = Tracer::new(p.traced, 1, t0);
    let tracer_b = Tracer::new(p.traced, 2, t0);
    let counts = Counts::baseline();

    let stage = Stage {
        semaphore: ShardedSemaphore::with_shards(IN_FLIGHT, SHARDS),
        pool: ShardedQueuePool::with_shards(SHARDS),
        channel: CqsChannel::bounded(IN_FLIGHT),
        stop: AtomicBool::new(false),
        t0,
    };
    for buffer in buffers {
        stage.pool.put(buffer);
    }
    let constructed_s = setup.elapsed().as_secs_f64();
    // B's first sharded call follows A's first send, so the two threads
    // draw their home shards in the same order in every run.
    let (produced, consumed) = std::thread::scope(|scope| {
        let a = scope.spawn(|| produce(&stage, shape, p.seed, tracer_a, late));
        let b = scope.spawn(|| consume(&stage, shape, meter, counts, tracer_b));
        (
            a.join().expect("thread A panicked"),
            b.join().expect("thread B panicked"),
        )
    });

    // Both threads are done, so nothing is in flight: every permit and
    // buffer is back and `close()` has nothing to hand back.
    let mut checks = 0;
    let mut failed = consumed.failed;
    let mut check = |ok: bool| {
        checks += 1;
        failed += u64::from(!ok);
    };
    check(produced.sent == consumed.items);
    check(stage.semaphore.available_permits() == IN_FLIGHT);
    check(stage.pool.len() == IN_FLIGHT);
    check(stage.channel.close().is_empty());

    let calls = produced.calls.calls + consumed.calls.calls;
    let suspended = produced.calls.suspended + consumed.calls.suspended;
    let measured: u64 = consumed.meter.done.iter().map(|w| w.ops).sum();
    let (windows, latency) = consumed.meter.finish();
    Run {
        setup_s: constructed_s + consumed.warmup_s,
        extras: Extras {
            suspend_share: suspended as f64 / calls.max(1) as f64,
            open_late_p99_ns: produced.late.quantile(0.99),
            open_p50_ns: latency.quantile(0.5),
            ..Extras::default()
        },
        windows,
        latency,
        attempted: measured + checks,
        failed,
        aborted: 0,
        allocs_per_op: consumed.counts.allocs_per_op,
        mem_peak_bytes: consumed.counts.mem_peak_bytes,
        tracers: vec![produced.tracer, consumed.tracer],
    }
}
