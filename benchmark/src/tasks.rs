//! `handoff` and `abort-storm`: 256 async tasks multiplexed over one carrier
//! thread (the shape of the paper's Fig. 13), so no OS scheduler sits in the
//! measured loop.
//!
//! * 96 tasks share `Semaphore::new(4)`; a holder keeps its permit for one
//!   scheduling round, so the next acquirer always finds it taken.
//! * 96 tasks share a 4-element `QueuePool`, holding likewise.
//! * 32 producers and 32 consumers share two `CqsChannel::bounded(4)`: a
//!   *full* one (30 producers, 2 consumers that hold each element for a
//!   round, so every send waits for a slot) and an *empty* one (2 producers
//!   that pause a round after each send, 30 consumers, so every receive
//!   waits for an element).
//!
//! Per scheduling round that is four hand-offs each for the semaphore, the
//! pool and the channels: every counted operation is a wait that suspended,
//! and every release, put, receive-from-full or send-to-empty resumes the
//! FIFO head. The work is `cqs-core` cells and segments, `cqs-future`
//! requests and wakers, and `cqs-reclaim` guards — no parking, and the fast
//! paths carry none of the counted operations.
//!
//! `abort-storm` is the same mix used the other way: a seeded half of the
//! waits are impatient (one scheduling round, then `cancel()`), and once per
//! window 2048 extra semaphore waiters enqueue and are cancelled in seeded
//! order, so whole segments turn `CANCELLED` and the removal and retire
//! paths run.

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};
use std::time::Instant;

use cqs::{
    ChannelRecv, ChannelSend, CqsChannel, CqsFuture, FutureState, QueuePool, RecvError, Semaphore,
    SendError,
};

use crate::alloc;
use crate::exec::{yield_now, Executor};
use crate::hist::Hist;
use crate::trace::{Name, Tracer};
use crate::workload::{Counts, Extras, Meter, Params, Rng, Run};

const SEM_TASKS: usize = 96;
const POOL_TASKS: usize = 96;
/// The crowded and the scarce side of each channel: 30 + 2 producers and
/// 2 + 30 consumers.
const CROWD: usize = 30;
const SCARCE: usize = 2;
const CONSUMERS: usize = CROWD + SCARCE;
const TASKS: usize = SEM_TASKS + POOL_TASKS + 2 * (CROWD + SCARCE);
const PERMITS: usize = 4;
/// Waiters enqueued and cancelled at the start of each `abort-storm` window.
const MASS_ABORT: usize = 2048;
/// One semaphore or pool wait in this many is timed.
const SAMPLE_EVERY: u32 = 4;
/// Operations per slice: ≈55 µs.
const SLICE_OPS: u64 = 64;
/// ≈0.2 s per window and ≈0.2 s of warm-up on an undisturbed core.
const WINDOW_SLICES: u64 = 4_000;
const WARMUP_SLICES: u64 = 3_000;

/// State shared by the tasks of one run; single-threaded, hence `Cell`s.
struct Shared {
    storm: bool,
    tracer: Tracer,
    meter: RefCell<Meter>,
    stop: Cell<bool>,
    /// Resolved waits: calls that suspended and were then granted (and
    /// released) or aborted. Immediate calls only draw a request id.
    ops: Cell<u64>,
    aborted: Cell<u64>,
    failed: Cell<u64>,
    calls: Cell<u64>,
    /// Wait time of sampled semaphore grants over the whole run, unfiltered.
    sem_waits: RefCell<Hist>,
    /// FIFO check: tickets are drawn in enqueue order, grants must observe
    /// them in increasing order.
    next_ticket: Cell<u64>,
    last_granted: Cell<u64>,
    /// Count and wrapping sum of the elements sent and received.
    sent: Cell<(u64, u64)>,
    received: Cell<(u64, u64)>,
}

impl Shared {
    fn fail(&self) {
        self.failed.set(self.failed.get() + 1);
    }
}

fn add(cell: &Cell<(u64, u64)>, value: u64) {
    let (count, sum) = cell.get();
    cell.set((count + 1, sum.wrapping_add(value)));
}

/// The three library futures a task can wait on or abort.
trait Abortable: Future + Unpin {
    fn abort(&self) -> bool;
    fn suspended(&self) -> bool;
}

impl<T> Abortable for CqsFuture<T> {
    fn abort(&self) -> bool {
        self.cancel()
    }
    fn suspended(&self) -> bool {
        !self.is_immediate()
    }
}

impl<T: Send + 'static> Abortable for ChannelSend<T> {
    fn abort(&self) -> bool {
        self.cancel()
    }
    fn suspended(&self) -> bool {
        !self.is_immediate()
    }
}

impl<T: Send + 'static> Abortable for ChannelRecv<T> {
    fn abort(&self) -> bool {
        self.cancel()
    }
    fn suspended(&self) -> bool {
        !self.is_immediate()
    }
}

/// Waits for `future`; an impatient wait gives it one scheduling round and
/// then cancels. Resolves to the future's output and, if a cancel was
/// attempted, whether it won.
struct Wait<'a, F> {
    future: F,
    impatient: bool,
    polled: bool,
    cancel_won: Option<bool>,
    shared: &'a Shared,
    op: u64,
    req: u64,
}

impl<F: Abortable> Future for Wait<'_, F> {
    type Output = (F::Output, Option<bool>);

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = &mut *self;
        if this.polled && this.impatient && this.cancel_won.is_none() {
            let won = this
                .shared
                .tracer
                .call(Name::Cancel, this.op, this.req, || this.future.abort());
            this.cancel_won = Some(won);
        }
        match Pin::new(&mut this.future).poll(cx) {
            Poll::Ready(out) => Poll::Ready((out, this.cancel_won)),
            Poll::Pending => {
                if this.cancel_won.is_some() {
                    // Won or lost, a future is terminal once cancel returns.
                    this.shared.fail();
                }
                if !this.polled && this.impatient {
                    cx.waker().wake_by_ref();
                }
                this.polled = true;
                Poll::Pending
            }
        }
    }
}

/// One task's view of the run: its own input stream and sampling phase.
struct TaskCx {
    shared: Rc<Shared>,
    rng: Rng,
    tick: u32,
    /// Whether the last wait's cancel won, until `resolved` checks it.
    cancel_won: Option<bool>,
}

/// An operation in progress: its span, its request id, and — for one call
/// in `SAMPLE_EVERY` — when it began.
struct Op {
    span: (u64, u64),
    req: u64,
    began: Option<u64>,
}

impl TaskCx {
    /// `timed`: whether this task's waits belong to the latency
    /// population (the semaphore and pool waits: the same queue discipline,
    /// 96 waiters on 4 units, hence one mode).
    fn begin(&mut self, timed: bool) -> Op {
        let shared = &self.shared;
        shared.calls.set(shared.calls.get() + 1);
        self.tick += 1;
        Op {
            span: shared.tracer.start(),
            req: shared.calls.get(),
            began: (timed && self.tick.is_multiple_of(SAMPLE_EVERY))
                .then(|| shared.meter.borrow().now()),
        }
    }

    /// Waits for `future`. Returns its output and whether the call had
    /// suspended, i.e. whether this is a counted operation.
    async fn wait<F: Abortable>(&mut self, future: F, op: &Op) -> (F::Output, bool) {
        let suspended = future.suspended();
        let impatient = suspended && self.shared.storm && self.rng.next() & 1 == 1;
        let open = self.shared.tracer.start();
        let (out, cancel_won) = Wait {
            future,
            impatient,
            polled: false,
            cancel_won: None,
            shared: &self.shared,
            op: op.span.0,
            req: op.req,
        }
        .await;
        self.shared
            .tracer
            .finish(Name::Await, open, op.span.0, op.req);
        self.cancel_won = cancel_won;
        (out, suspended)
    }

    /// Keeps a permit or element for one scheduling round.
    async fn hold(&self, op: &Op) {
        let open = self.shared.tracer.start();
        yield_now().await;
        self.shared
            .tracer
            .finish(Name::Hold, open, op.span.0, op.req);
    }

    /// Books the outcome of a wait: `granted` or aborted. Checks that a
    /// cancelled wait was never granted and that a wait whose cancel lost
    /// was; counts the wait if it had suspended; records its duration if
    /// it was granted and sampled.
    fn resolved(&mut self, op: Op, name: Name, suspended: bool, granted: bool) {
        let shared = &self.shared;
        if self.cancel_won.take().is_some_and(|won| won == granted) {
            shared.fail();
        }
        if suspended {
            shared.ops.set(shared.ops.get() + 1);
            shared
                .aborted
                .set(shared.aborted.get() + u64::from(!granted));
            if let (true, Some(began)) = (granted, op.began) {
                let mut meter = shared.meter.borrow_mut();
                let now = meter.now();
                meter.sample(began, now, now - began);
                if name == Name::SemOp {
                    shared.sem_waits.borrow_mut().record(now - began);
                }
            }
        }
        shared.tracer.finish(name, op.span, 0, op.req);
    }
}

async fn semaphore_task(mut cx: TaskCx, semaphore: Rc<Semaphore>) {
    let shared = Rc::clone(&cx.shared);
    let tr = &shared.tracer;
    while !shared.stop.get() {
        let op = cx.begin(true);
        let future = tr.call(Name::SemAcquire, op.span.0, op.req, || semaphore.acquire());
        let ticket = (!future.is_immediate()).then(|| {
            shared.next_ticket.set(shared.next_ticket.get() + 1);
            shared.next_ticket.get()
        });
        let (result, suspended) = cx.wait(future, &op).await;
        if result.is_ok() {
            if ticket.is_some_and(|ticket| ticket < shared.last_granted.replace(ticket)) {
                shared.fail();
            }
            cx.hold(&op).await;
            tr.call(Name::SemRelease, op.span.0, op.req, || semaphore.release());
        }
        cx.resolved(op, Name::SemOp, suspended, result.is_ok());
    }
}

async fn pool_task(mut cx: TaskCx, pool: Rc<QueuePool<u64>>) {
    let shared = Rc::clone(&cx.shared);
    let tr = &shared.tracer;
    while !shared.stop.get() {
        let op = cx.begin(true);
        let future = tr.call(Name::PoolTake, op.span.0, op.req, || pool.take());
        let (result, suspended) = cx.wait(future, &op).await;
        if let Ok(element) = result {
            if element >= PERMITS as u64 {
                shared.fail();
            }
            cx.hold(&op).await;
            tr.call(Name::PoolPut, op.span.0, op.req, || pool.put(element));
        }
        cx.resolved(op, Name::PoolOp, suspended, result.is_ok());
    }
}

/// `pause`: the scarce producers of the empty channel pause a round after
/// each send, so its consumers always wait.
async fn producer_task(mut cx: TaskCx, channel: CqsChannel<u64>, pause: bool) {
    let shared = Rc::clone(&cx.shared);
    let tr = &shared.tracer;
    while !shared.stop.get() {
        let op = cx.begin(false);
        let value = cx.rng.next();
        let future = tr.call(Name::ChanSend, op.span.0, op.req, || channel.send(value));
        let (result, suspended) = cx.wait(future, &op).await;
        match result {
            Ok(()) => add(&shared.sent, value),
            // An aborted send hands its element back.
            Err(SendError::Cancelled(back)) if back == value => {}
            Err(_) => shared.fail(),
        }
        if pause {
            cx.hold(&op).await;
        }
        cx.resolved(op, Name::SendOp, suspended, result.is_ok());
    }
}

/// `hold`: the scarce consumers of the full channel keep each element for
/// a round, so its producers always wait. Consumers run until their channel
/// closes: they must outlive the producers so that every accepted element
/// is delivered before the conservation check.
async fn consumer_task(mut cx: TaskCx, channel: CqsChannel<u64>, hold: bool) {
    let shared = Rc::clone(&cx.shared);
    let tr = &shared.tracer;
    loop {
        let op = cx.begin(false);
        let future = tr.call(Name::ChanRecv, op.span.0, op.req, || channel.receive());
        let (result, suspended) = cx.wait(future, &op).await;
        match result {
            Ok(value) => add(&shared.received, value),
            Err(RecvError::Cancelled) => {}
            Err(RecvError::Closed) => return,
            Err(RecvError::Poisoned) => shared.fail(),
        }
        if hold {
            cx.hold(&op).await;
        }
        cx.resolved(op, Name::RecvOp, suspended, result.is_ok());
    }
}

/// The once-per-window mass abort of `abort-storm`.
struct MassAbort {
    waiters: Vec<CqsFuture<()>>,
    order: Vec<usize>,
    rng: Rng,
    /// `live_segments()` of the semaphore queue in steady state.
    steady_segments: usize,
    segments_peak: usize,
    retired_peak: i64,
}

impl MassAbort {
    /// Timed like everything else, in slices of `SLICE_OPS` calls.
    fn run(&mut self, shared: &Shared, semaphore: &Semaphore) {
        let open = shared.tracer.start();
        let before = alloc::snapshot().live;
        for _ in 0..MASS_ABORT as u64 / SLICE_OPS {
            for _ in 0..SLICE_OPS {
                self.waiters.push(semaphore.acquire());
            }
            shared.meter.borrow_mut().end_slice(0);
        }
        self.segments_peak = self.segments_peak.max(semaphore.live_segments());
        // Fisher–Yates: the seeded cancellation order.
        for i in (1..MASS_ABORT).rev() {
            self.order.swap(i, self.rng.below(i + 1));
        }
        shared.meter.borrow_mut().begin_slice();
        let mut immediate = 0;
        for chunk in self.order.chunks(SLICE_OPS as usize) {
            for &i in chunk {
                let waiter = &mut self.waiters[i];
                if waiter.is_immediate() {
                    // A permit happened to be free; it goes back below.
                    immediate += 1;
                } else if !waiter.cancel() || waiter.try_get() != FutureState::Cancelled {
                    // Nothing releases during the sweep, so every cancel
                    // wins and a cancelled waiter can never hold a permit.
                    shared.fail();
                }
            }
            shared.meter.borrow_mut().end_slice(SLICE_OPS);
        }
        self.waiters.clear();
        for _ in 0..immediate {
            semaphore.release();
        }
        // The cancelled segments must be unlinked again, not accumulate.
        if semaphore.live_segments() > 2 * self.steady_segments {
            shared.fail();
        }
        self.retired_peak = self.retired_peak.max(alloc::snapshot().live - before);
        let aborted = MASS_ABORT as u64 - immediate;
        shared.ops.set(shared.ops.get() + aborted);
        shared.aborted.set(shared.aborted.get() + aborted);
        shared.tracer.finish(Name::MassAbort, open, 0, 0);
        shared.meter.borrow_mut().begin_slice();
    }
}

pub fn run(p: &Params, storm: bool, t0: Instant) -> Run {
    let setup = Instant::now();
    // The benchmark's own buffers come first so that they sit below the
    // memory baseline.
    let mut executor = Executor::new(TASKS);
    let mut mass = MassAbort {
        waiters: Vec::with_capacity(MASS_ABORT),
        order: (0..MASS_ABORT).collect(),
        rng: Rng::new(p.seed, 0),
        steady_segments: usize::MAX / 2,
        segments_peak: 0,
        retired_peak: 0,
    };
    let shared = Rc::new(Shared {
        storm,
        tracer: Tracer::new(p.traced, 1, t0),
        meter: RefCell::new(Meter::new(
            p,
            t0,
            WINDOW_SLICES as usize,
            (WINDOW_SLICES * SLICE_OPS) as usize,
        )),
        stop: Cell::new(false),
        ops: Cell::new(0),
        aborted: Cell::new(0),
        failed: Cell::new(0),
        calls: Cell::new(0),
        sem_waits: RefCell::new(Hist::new()),
        next_ticket: Cell::new(0),
        last_granted: Cell::new(0),
        sent: Cell::new((0, 0)),
        received: Cell::new((0, 0)),
    });
    let mut counts = Counts::baseline();

    let semaphore = Rc::new(Semaphore::new(PERMITS));
    let pool = Rc::new(QueuePool::new());
    for element in 0..PERMITS as u64 {
        pool.put(element);
    }
    let full = CqsChannel::bounded(PERMITS);
    let empty = CqsChannel::bounded(PERMITS);

    let before_spawn = alloc::snapshot().live;
    let mut stream = 0;
    let mut task_cx = || {
        stream += 1;
        TaskCx {
            shared: Rc::clone(&shared),
            rng: Rng::new(p.seed, stream),
            tick: 0,
            cancel_won: None,
        }
    };
    for _ in 0..SEM_TASKS {
        executor.spawn(semaphore_task(task_cx(), Rc::clone(&semaphore)));
    }
    for _ in 0..POOL_TASKS {
        executor.spawn(pool_task(task_cx(), Rc::clone(&pool)));
    }
    for _ in 0..CROWD {
        executor.spawn(producer_task(task_cx(), full.clone(), false));
        executor.spawn(consumer_task(task_cx(), empty.clone(), false));
    }
    for _ in 0..SCARCE {
        executor.spawn(consumer_task(task_cx(), full.clone(), true));
        executor.spawn(producer_task(task_cx(), empty.clone(), true));
    }
    counts.owned = alloc::snapshot().live - before_spawn;

    let constructed_s = setup.elapsed().as_secs_f64();

    // A window (or half the warm-up): the storm's mass abort, then slices
    // of `SLICE_OPS` resolved waits until `slices` are done.
    let mut slices = |slices: u64, mass: &mut MassAbort| {
        shared.meter.borrow_mut().begin_slice();
        let mut done = 0;
        if storm {
            mass.run(&shared, &semaphore);
            done = 2 * MASS_ABORT as u64 / SLICE_OPS;
        }
        while done < slices {
            let before = shared.ops.get();
            executor.run_until(|| shared.ops.get() >= before + SLICE_OPS);
            shared
                .meter
                .borrow_mut()
                .end_slice(shared.ops.get() - before);
            done += 1;
        }
    };
    // Warm-up, in two halves so that the storm's steady-state segment count
    // is read after its first mass abort has come and gone.
    slices(WARMUP_SLICES / 2, &mut mass);
    slices(WARMUP_SLICES / 2, &mut mass);
    mass.steady_segments = semaphore.live_segments().max(1);
    let setup_s = constructed_s + shared.meter.borrow_mut().warmed_up();

    let (warm_ops, warm_failed, warm_aborted) =
        (shared.ops.get(), shared.failed.get(), shared.aborted.get());
    shared.sem_waits.borrow_mut().clear();
    counts.start(shared.ops.get());
    while shared.meter.borrow().more() {
        slices(WINDOW_SLICES, &mut mass);
        let mut meter = shared.meter.borrow_mut();
        meter.end_window();
        counts.window_done(meter.done.len(), shared.ops.get());
    }
    let measured_ops = shared.ops.get() - warm_ops;
    let measured_aborted = shared.aborted.get() - warm_aborted;

    // Orderly shutdown, then conservation. Producers, semaphore and pool
    // tasks finish their current operation and leave; the consumers stay
    // until their channel is closed, so every accepted element is either
    // received or handed back by `close()`.
    shared.stop.set(true);
    let mut checks = 0;
    let mut check = |ok: bool| {
        checks += 1;
        if !ok {
            shared.fail();
        }
    };
    executor.run_until(|| false);
    check(executor.live() == CONSUMERS);
    let handed_back = [full.close(), empty.close()].concat();
    executor.run_until(|| false);
    check(executor.live() == 0);
    let (sent, sent_sum) = shared.sent.get();
    let (received, received_sum) = shared.received.get();
    check(sent == received + handed_back.len() as u64);
    check(
        sent_sum
            == handed_back
                .iter()
                .fold(received_sum, |sum, v| sum.wrapping_add(*v)),
    );
    check(semaphore.available_permits() == PERMITS);
    check(pool.len() == PERMITS);
    let mut left: Vec<u64> = (0..PERMITS)
        .filter_map(|_| pool.take().wait().ok())
        .collect();
    left.sort_unstable();
    check(left == [0, 1, 2, 3]);
    drop(executor);

    let sem_waits = shared.sem_waits.borrow();
    let extras = Extras {
        fairness: sem_waits.quantile(0.99) / sem_waits.quantile(0.5).max(1.0),
        live_segments_peak: mass.segments_peak,
        retired_peak: mass.retired_peak,
        ..Extras::default()
    };
    drop(sem_waits);
    let failed = shared.failed.get() - warm_failed;
    let shared = Rc::into_inner(shared).expect("every task has finished and dropped its handle");
    let (windows, latency) = shared.meter.into_inner().finish();
    Run {
        setup_s,
        windows,
        latency,
        attempted: measured_ops + checks,
        failed,
        aborted: measured_aborted,
        allocs_per_op: counts.allocs_per_op,
        mem_peak_bytes: counts.mem_peak_bytes,
        extras,
        tracers: vec![shared.tracer],
    }
}
