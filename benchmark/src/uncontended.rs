//! `uncontended`: one thread, resources always available, so every call
//! takes the primitive's fast path — the state word of `cqs-sync`,
//! `cqs-pool` or `cqs-channel` — and the queue, the futures and reclamation
//! do nothing. It is the control: an optimisation to `cqs-core`,
//! `cqs-future` or `cqs-reclaim` predicts no change here.

use std::time::Instant;

use cqs::{CqsChannel, QueuePool, RawMutex, Semaphore};

use crate::trace::{Name, Tracer};
use crate::workload::{Counts, Extras, Meter, Params, Rng, Run};

/// A latency sample is the mean of this many back-to-back pairs. With 64,
/// the blocks that hold one of the fast paths' rarer chores (a new buffer
/// segment, a reclamation pass) were 1 % of all blocks, and p99 sat on the
/// edge between the two kinds; with 256 it sits inside the second.
const BLOCK_PAIRS: u64 = 256;
/// A slice is this many blocks: ≈65 µs.
const SLICE_BLOCKS: u64 = 2;
/// ≈0.2 s per window and ≈0.2 s of warm-up on an undisturbed core.
const WINDOW_SLICES: u64 = 4_000;
const WARMUP_SLICES: u64 = 3_000;

struct State {
    semaphore: Semaphore,
    mutex: RawMutex,
    pool: QueuePool<u64>,
    channel: CqsChannel<u64>,
    rng: Rng,
    tracer: Tracer,
    pairs: u64,
    failed: u64,
}

impl State {
    /// One block of pairs, rotating the four primitives; every future must
    /// be immediate and every element must come back unchanged.
    fn block(&mut self) {
        let tr = &self.tracer;
        for _ in 0..BLOCK_PAIRS / 4 {
            let req = self.pairs;
            self.pairs += 4;

            let pair = tr.start();
            let f = tr.call(Name::SemAcquire, pair.0, req, || self.semaphore.acquire());
            let ok = f.is_immediate() && f.wait().is_ok();
            tr.call(Name::SemRelease, pair.0, req, || self.semaphore.release());
            self.failed += u64::from(!ok);
            tr.finish(Name::Pair, pair, 0, req);

            let pair = tr.start();
            let f = tr.call(Name::MutexLock, pair.0, req + 1, || self.mutex.lock());
            let ok = f.is_immediate() && f.wait().is_ok();
            tr.call(Name::MutexUnlock, pair.0, req + 1, || self.mutex.unlock());
            self.failed += u64::from(!ok);
            tr.finish(Name::Pair, pair, 0, req + 1);

            let pair = tr.start();
            let f = tr.call(Name::PoolTake, pair.0, req + 2, || self.pool.take());
            let immediate = f.is_immediate();
            match f.wait() {
                Ok(element) => {
                    self.failed += u64::from(!immediate || element >= 4);
                    tr.call(Name::PoolPut, pair.0, req + 2, || self.pool.put(element));
                }
                Err(_) => self.failed += 1,
            }
            tr.finish(Name::Pair, pair, 0, req + 2);

            let pair = tr.start();
            let value = self.rng.next();
            let f = tr.call(Name::ChanSend, pair.0, req + 3, || self.channel.send(value));
            let sent = f.is_immediate() && f.wait().is_ok();
            let f = tr.call(Name::ChanRecv, pair.0, req + 3, || self.channel.receive());
            let received = f.is_immediate() && f.wait() == Ok(value);
            self.failed += u64::from(!(sent && received));
            tr.finish(Name::Pair, pair, 0, req + 3);
        }
    }
}

/// One slice: eight timed blocks.
fn slice(s: &mut State, meter: &mut Meter) {
    let mut began = meter.now();
    for _ in 0..SLICE_BLOCKS {
        s.block();
        let ended = meter.now();
        meter.sample(began, ended, (ended - began) / BLOCK_PAIRS);
        began = ended;
    }
    meter.end_slice(SLICE_BLOCKS * BLOCK_PAIRS);
}

pub fn run(p: &Params, t0: Instant) -> Run {
    let setup = Instant::now();
    let slices = WINDOW_SLICES as usize;
    let mut meter = Meter::new(p, t0, slices, slices * SLICE_BLOCKS as usize);
    let tracer = Tracer::new(p.traced, 1, t0);
    let mut counts = Counts::baseline();

    let pool = QueuePool::new();
    for element in 0..4 {
        pool.put(element);
    }
    let mut s = State {
        semaphore: Semaphore::new(4),
        mutex: RawMutex::new(),
        pool,
        channel: CqsChannel::bounded(4),
        rng: Rng::new(p.seed, 0),
        tracer,
        pairs: 0,
        failed: 0,
    };
    let constructed_s = setup.elapsed().as_secs_f64();
    meter.begin_slice();
    for _ in 0..WARMUP_SLICES {
        slice(&mut s, &mut meter);
    }
    let setup_s = constructed_s + meter.warmed_up();

    let (warm_pairs, warm_failed) = (s.pairs, s.failed);
    counts.start(s.pairs);
    while meter.more() {
        for _ in 0..WINDOW_SLICES {
            slice(&mut s, &mut meter);
        }
        meter.end_window();
        counts.window_done(meter.done.len(), s.pairs);
    }

    // Conservation: every permit, the lock and every element are back, and
    // the channel is empty.
    let mut checks = 0;
    let mut failed = s.failed - warm_failed;
    let mut check = |ok: bool| {
        checks += 1;
        failed += u64::from(!ok);
    };
    check(s.semaphore.available_permits() == 4);
    check(s.mutex.lock().is_immediate());
    check(s.pool.len() == 4);
    let mut left: Vec<u64> = (0..4).filter_map(|_| s.pool.take().wait().ok()).collect();
    left.sort_unstable();
    check(left == [0, 1, 2, 3]);
    check(s.channel.close().is_empty());

    let (windows, latency) = meter.finish();
    Run {
        setup_s,
        windows,
        latency,
        attempted: s.pairs - warm_pairs + checks,
        failed,
        aborted: 0,
        allocs_per_op: counts.allocs_per_op,
        mem_peak_bytes: counts.mem_peak_bytes,
        extras: Extras::default(),
        tracers: vec![s.tracer],
    }
}
