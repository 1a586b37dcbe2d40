//! Conservative parallel discrete-event execution over sharded models.
//!
//! A model is split into K shards, each owning a disjoint slice of the
//! state plus its own [`ShardQueue`]. Shards influence each other only
//! through *time-stamped messages* that arrive at least one **lookahead**
//! after they are sent — in the network simulator the lookahead is the
//! link turnaround latency, the minimum delay between a node acting and a
//! neighbour observing it.
//!
//! Execution proceeds in windows. Let `T` be the earliest pending key
//! across all shards and `L` the lookahead: every event in `[T, T + L)`
//! is *safe* — no message generated inside the window can arrive inside
//! it (arrivals are `≥ t_send + L ≥ T + L`). Each shard therefore drains
//! its own queue for the window in parallel; a barrier then exchanges the
//! messages produced and the next window starts. Because each shard pops
//! in [`EvKey`] order and same-window events of different shards touch
//! disjoint state, the execution is equivalent to the sequential key-order
//! run — **bit-identical for every shard count and thread count**.
//!
//! Rare *global events* (route rebuilds, node deaths) need exclusive
//! access to all shards. They are queued centrally, always lie at least
//! one lookahead in the future (their producers defer them, like
//! messages), and are executed by the coordinator in a serial step that
//! first drains every shard up to the global event's key.

use crate::keyed::{EvKey, Keyed, ShardQueue};
use crate::time::{SimDuration, SimTime};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Spins before a barrier waiter first yields. Kept short because a
/// party can share its core even when its own pool fits the machine:
/// `cargo test` and parallel sweeps run several pools at once, and a
/// waiter that spins long then holds the core its late peer needs.
const SPINS: u32 = 64;

/// A sense-free generation barrier that spins briefly before yielding —
/// window turnarounds are far shorter than an OS park/unpark cycle. With
/// more parties than the host has cores a waiter would spin on the core
/// the last party needs, so such a barrier yields at once.
#[derive(Debug)]
pub struct SpinBarrier {
    parties: usize,
    /// Spins before the first yield: [`SPINS`], or 0 when oversubscribed.
    spins: u32,
    arrived: AtomicUsize,
    generation: AtomicUsize,
    poisoned: AtomicBool,
}

impl SpinBarrier {
    /// A barrier for `parties` threads.
    pub fn new(parties: usize) -> Self {
        assert!(parties > 0, "barrier needs at least one party");
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        SpinBarrier {
            parties,
            spins: if parties <= cores { SPINS } else { 0 },
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
        }
    }

    /// Marks the barrier poisoned: every party spinning in (or later
    /// entering) [`wait`](Self::wait) panics instead of blocking forever.
    /// Called when a party unwinds and will never arrive again.
    pub fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
        // Wake spinners by advancing the generation.
        self.generation.fetch_add(1, Ordering::AcqRel);
    }

    /// Blocks until all parties have arrived.
    ///
    /// # Panics
    ///
    /// Panics if the barrier was [`poison`](Self::poison)ed — a peer
    /// unwound mid-round and would otherwise deadlock everyone else.
    pub fn wait(&self) {
        let check = |b: &Self| {
            assert!(
                !b.poisoned.load(Ordering::Acquire),
                "a barrier party panicked mid-round"
            );
        };
        check(self);
        let gen = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.parties {
            self.arrived.store(0, Ordering::Release);
            self.generation.fetch_add(1, Ordering::AcqRel);
            return;
        }
        let mut spins = 0u32;
        while self.generation.load(Ordering::Acquire) == gen {
            spins += 1;
            if spins < self.spins {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        check(self);
    }
}

/// One shard of a partitioned model.
pub trait PdesShard: Send {
    /// Shard-local events.
    type Ev: Keyed + Send;
    /// Coordinator-executed global events.
    type Global: Keyed + Send;

    /// Handles one local event. Cross-shard effects go through
    /// [`Ctx::send`]; whole-model effects through [`Ctx::global`].
    fn handle(&mut self, ctx: &mut Ctx<'_, Self::Ev, Self::Global>, ev: Self::Ev);
}

/// The coordinator side of a sharded model: executes global events with
/// exclusive access to every shard.
pub trait PdesControl<S: PdesShard> {
    /// Handles one global event at time `now`. Follow-up globals are
    /// pushed to `out` (their times must be `> now`).
    fn on_global(
        &mut self,
        shards: &mut ShardsMut<'_, S>,
        now: SimTime,
        ev: S::Global,
        out: &mut Vec<(SimTime, S::Global)>,
    );

    /// Observation hook fired by [`run_conservative`] at each
    /// sample instant, with every event strictly before `now` already
    /// processed (so shard state is exact at `now`). `queue_depths[i]` is
    /// shard `i`'s pending live-event count. Purely observational: the
    /// default does nothing, and implementations must not mutate
    /// simulation state — sampling may never change physics.
    fn on_sample(
        &mut self,
        _shards: &mut ShardsMut<'_, S>,
        _now: SimTime,
        _queue_depths: &[usize],
    ) {
    }
}

/// Exclusive access to every shard during a global event (shards are
/// visited one at a time; the coordinator holds the only reference).
pub struct ShardsMut<'a, S: PdesShard> {
    slots: &'a [Mutex<Slot<S>>],
}

impl<S: PdesShard> std::fmt::Debug for ShardsMut<'_, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardsMut")
            .field("shards", &self.slots.len())
            .finish()
    }
}

impl<S: PdesShard> ShardsMut<'_, S> {
    /// Number of shards.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` when the model has no shards (never the case in a run).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Runs `f` with exclusive access to shard `i`.
    pub fn with<R>(&mut self, i: usize, f: impl FnOnce(&mut S) -> R) -> R {
        f(&mut lock(&self.slots[i]).shard)
    }

    /// Runs `f` on every shard in index order.
    pub fn for_each(&mut self, mut f: impl FnMut(usize, &mut S)) {
        for i in 0..self.slots.len() {
            self.with(i, |s| f(i, s));
        }
    }
}

/// The handler-side interface to the runner: local scheduling,
/// cross-shard sends and global-event emission.
pub struct Ctx<'a, E, G> {
    queue: &'a mut ShardQueue<E>,
    outbox: &'a mut [Vec<(SimTime, E)>],
    globals_out: &'a mut Vec<(SimTime, G)>,
    shard: usize,
}

impl<E: Keyed, G> Ctx<'_, E, G> {
    /// The shard-local clock.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// The key of the event being handled (for deterministic logging).
    pub fn current_key(&self) -> EvKey {
        self.queue.current_key()
    }

    /// This shard's index.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Schedules a local event at an absolute time.
    pub fn at(&mut self, time: SimTime, ev: E) -> crate::keyed::CancelId {
        self.queue.schedule(time, ev)
    }

    /// Schedules a local event after a delay.
    pub fn after(&mut self, delay: SimDuration, ev: E) -> crate::keyed::CancelId {
        let t = self.queue.now() + delay;
        self.queue.schedule(t, ev)
    }

    /// Cancels a pending local event.
    pub fn cancel(&mut self, id: crate::keyed::CancelId) -> bool {
        self.queue.cancel(id)
    }

    /// Sends an event to shard `target` at `time`. The caller must respect
    /// the lookahead contract: `time ≥ now + lookahead`. Sending to the own
    /// shard is an ordinary local schedule.
    pub fn send(&mut self, target: usize, time: SimTime, ev: E) {
        if target == self.shard {
            self.queue.schedule(time, ev);
        } else {
            debug_assert!(time > self.queue.now(), "cross-shard send needs latency");
            self.outbox[target].push((time, ev));
        }
    }

    /// Emits a global event at `time` (must be `≥ now + lookahead`, like a
    /// message — the coordinator only learns of it at the window barrier).
    pub fn global(&mut self, time: SimTime, ev: G) {
        debug_assert!(time > self.queue.now(), "global emission needs latency");
        self.globals_out.push((time, ev));
    }
}

impl<E, G> std::fmt::Debug for Ctx<'_, E, G> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ctx")
            .field("shard", &self.shard)
            .field("now", &self.queue.now())
            .finish()
    }
}

#[doc(hidden)]
pub struct Slot<S: PdesShard> {
    shard: S,
    queue: ShardQueue<S::Ev>,
    /// Per-destination-shard message batches accumulated during a window
    /// and appended to the destination inbox wholesale at the window end —
    /// one lock operation per shard pair per window instead of one per
    /// message. The drained `Vec`s keep their capacity across windows.
    outbox: Vec<Vec<(SimTime, S::Ev)>>,
    globals_out: Vec<(SimTime, S::Global)>,
}

impl<S: PdesShard> std::fmt::Debug for Slot<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Slot").finish_non_exhaustive()
    }
}

/// The result of a conservative run.
pub struct Outcome<S: PdesShard> {
    /// The shards, in index order, with their final state.
    pub shards: Vec<S>,
    /// Each shard's queue, in index order, still holding whatever events
    /// were pending when the run stopped. A run paused short of the model
    /// horizon leaves its entire future here — the raw material of a
    /// snapshot; a run to quiescence leaves them empty.
    pub queues: Vec<ShardQueue<S::Ev>>,
    /// The coordinator's global-event queue with its pending events (and
    /// exact clock registers), for the same reason.
    pub globals: ShardQueue<S::Global>,
    /// Total events processed (shard-local plus global).
    pub processed: u64,
    /// Engine-level counters (windows, widths, wall clock, queue depths).
    pub counters: EngineCounters,
}

impl<S: PdesShard> std::fmt::Debug for Outcome<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Outcome")
            .field("shards", &self.shards.len())
            .field("processed", &self.processed)
            .field("counters", &self.counters)
            .finish_non_exhaustive()
    }
}

/// Engine-level observability counters for one conservative run.
///
/// The virtual-time counters (`windows`, `serial_steps`,
/// `window_width_s_sum`, `per_shard_*`) are deterministic for a given
/// shard count and sampling interval; the wall-clock fields
/// (`barrier_wait_s`, `wall_s`) are not and must be excluded from
/// bit-identity comparisons.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EngineCounters {
    /// Conservative windows drained (parallel or inline). With batching,
    /// one synchronization round executes several windows back to back.
    pub windows: u64,
    /// Cross-shard synchronization points taken: one per round release
    /// plus one per batched sub-window exchange. On the threaded path each
    /// costs a physical barrier wait; the inline path counts the same
    /// points so the figure is thread-invariant.
    pub barriers: u64,
    /// Serial coordinator steps taken for global events.
    pub serial_steps: u64,
    /// Sum of window widths in seconds (divide by `windows` for the mean).
    pub window_width_s_sum: f64,
    /// Coordinator wall-clock seconds spent waiting at window barriers
    /// (zero on the single-threaded path).
    pub barrier_wait_s: f64,
    /// Total wall-clock seconds inside the engine.
    pub wall_s: f64,
    /// Events processed per shard, in index order.
    pub per_shard_processed: Vec<u64>,
    /// Maximum pending live-event count observed per shard at window
    /// boundaries, in index order.
    pub per_shard_max_queue: Vec<usize>,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().expect("shard lock poisoned")
}

/// A shard's message inbox: `(arrival time, event)` pairs awaiting the
/// round barrier. `stamp` mirrors "the vec is non-empty" so the common
/// idle step skips the lock entirely; it is only written under the lock,
/// and senders publish it before the barrier every taker crosses first.
struct Inbox<E> {
    msgs: Mutex<Vec<(SimTime, E)>>,
    stamp: AtomicBool,
}

impl<E> Inbox<E> {
    fn new() -> Self {
        Inbox {
            msgs: Mutex::new(Vec::new()),
            stamp: AtomicBool::new(false),
        }
    }

    /// Appends a window's batch and raises the stamp.
    fn append(&self, batch: &mut Vec<(SimTime, E)>) {
        let mut msgs = lock(&self.msgs);
        msgs.append(batch);
        self.stamp.store(true, Ordering::Release);
    }

    /// Takes everything pending; lock-free (and allocation-free) when the
    /// stamp says there is nothing.
    fn take(&self) -> Vec<(SimTime, E)> {
        if !self.stamp.load(Ordering::Acquire) {
            return Vec::new();
        }
        let mut msgs = lock(&self.msgs);
        self.stamp.store(false, Ordering::Release);
        std::mem::take(&mut *msgs)
    }
}

/// The shard emitted cross-shard messages during the window.
const F_SENT: u8 = 1;
/// The shard emitted deferred global events during the window.
const F_GLOBALS: u8 = 2;
/// The shard has a pending event strictly before `due_before`.
const F_DUE: u8 = 4;

/// Cap on back-to-back sub-windows per synchronization round.
const MAX_STEPS: usize = 256;

/// Drains every event of shard `i` with `time < end_excl`, then flushes
/// the per-destination outbox batches into the inboxes. Returns the
/// window flags (`F_SENT` / `F_GLOBALS` / `F_DUE`, the last judged
/// against `due_before` — the end of the *next* sub-window). The caller
/// owns the slot lock (parties hold their shards for a whole round).
fn drain_window<S: PdesShard>(
    slot: &mut Slot<S>,
    inboxes: &[Inbox<S::Ev>],
    i: usize,
    end_excl: SimTime,
    due_before: SimTime,
) -> u8 {
    while let Some((_, ev)) = slot.queue.pop_due(end_excl) {
        let mut ctx = Ctx {
            queue: &mut slot.queue,
            outbox: &mut slot.outbox,
            globals_out: &mut slot.globals_out,
            shard: i,
        };
        slot.shard.handle(&mut ctx, ev);
    }
    let mut flags = 0u8;
    // Flush the outbox batches while still holding the own slot lock.
    // Lock order is strictly slot -> inbox and inboxes are leaves (nobody
    // waits on a slot while holding an inbox), so this cannot deadlock.
    for (target, batch) in slot.outbox.iter_mut().enumerate() {
        if batch.is_empty() {
            continue;
        }
        #[cfg(debug_assertions)]
        for (time, _) in batch.iter() {
            debug_assert!(*time >= end_excl, "message due inside its own window");
        }
        inboxes[target].append(batch);
        flags |= F_SENT;
    }
    if !slot.globals_out.is_empty() {
        flags |= F_GLOBALS;
    }
    if slot.queue.peek_key().is_some_and(|k| k.time < due_before) {
        flags |= F_DUE;
    }
    flags
}

/// The end of the sub-window after one ending at `s_end`.
fn step_end(s_end: SimTime, width_ns: u64, horizon: SimTime) -> SimTime {
    SimTime::from_nanos(s_end.as_nanos().saturating_add(width_ns)).min(horizon)
}

/// One party's share of a batched synchronization round: drains the first
/// window `[.., end1)`, then keeps taking width-`width_ns` sub-windows —
/// exchanging messages at each step boundary via `sync` — until the
/// merged flags say the batch is spent (a global was emitted, or nothing
/// is due and nothing was sent), the horizon is reached, or `MAX_STEPS`
/// hits. Every party computes the continue decision from the same merged
/// flags, so all of them leave after the same step. Returns the number of
/// sub-windows executed.
///
/// Safety of the follow-up steps: `width_ns` is the lookahead, so a
/// message sent inside step `[s, s+W)` arrives `≥ s+W` — at or after the
/// next step's start, and it is inserted at the step boundary before the
/// receiver drains — while a global emitted inside the step lands at or
/// after the step's end and aborts the batch there, handing control back
/// to the coordinator round loop before any later step could outrun it.
#[allow(clippy::too_many_arguments)] // internal: mirrors the round plan 1:1
fn batch_party<S: PdesShard>(
    slots: &[Mutex<Slot<S>>],
    inboxes: &[Inbox<S::Ev>],
    first: usize,
    stride: usize,
    end1: SimTime,
    width_ns: u64,
    horizon: SimTime,
    mut sync: impl FnMut(usize, u8) -> u8,
) -> u64 {
    let k = slots.len();
    // Slot ownership is disjoint by stride, and the coordinator only
    // touches slots between rounds, so each party can hold its shards'
    // locks across every sub-window of the round instead of re-locking
    // per step. The guards drop at return, before the round-top barrier.
    let mut owned: Vec<(usize, std::sync::MutexGuard<'_, Slot<S>>)> = (first..k)
        .step_by(stride)
        .map(|i| (i, lock(&slots[i])))
        .collect();
    let mut s_end = end1;
    let mut step = 0usize;
    loop {
        let next_end = step_end(s_end, width_ns, horizon);
        let mut flags = 0u8;
        for (i, slot) in owned.iter_mut() {
            flags |= drain_window(slot, inboxes, *i, s_end, next_end);
        }
        let flags = sync(step, flags);
        let cont = step + 1 < MAX_STEPS
            && s_end < horizon
            && flags & F_GLOBALS == 0
            && flags & (F_SENT | F_DUE) != 0;
        if !cont {
            return (step + 1) as u64;
        }
        for (i, slot) in owned.iter_mut() {
            for (t, ev) in inboxes[*i].take() {
                slot.queue.insert_msg(t, ev);
            }
        }
        s_end = next_end;
        step += 1;
    }
}

/// Runs a sharded model to `end` (inclusive) under conservative windows
/// of width `lookahead`: every cross-shard message and every deferred
/// global event arrives at least this long after it is sent. `None`
/// declares the shards mutually non-interacting (no sends, no deferred
/// globals), and the whole horizon becomes one window.
///
/// `gqueue` is the coordinator's queue of global events: schedule fresh
/// globals into it with [`ShardQueue::schedule`]. A resumed run passes the
/// queue its snapshot restored under exact `(time, depth, ord)` keys (via
/// [`ShardQueue::schedule_with_key`]); re-scheduling would flatten those
/// to depth 0 and thereby reorder same-instant globals.
///
/// `threads` is the worker-pool size (clamped to the shard count); pass
/// [`crate::threads::worker_count`]`(shards.len())` to honour
/// `BCP_THREADS`. Results are bit-identical for every `threads` value.
///
/// When `sample_every` is set, the coordinator fires
/// [`PdesControl::on_sample`] at every multiple of the interval (from
/// `t = sample_every` up to the last instant with pending work), clamping
/// window horizons so each sample sees shard state exact at its instant.
/// Sampling changes window *partitioning* only — which the engine
/// contract guarantees is physics-neutral — never event order or results.
///
/// # Panics
///
/// Panics if `shards` is empty, a zero lookahead is supplied, or
/// `sample_every` is zero.
pub fn run_conservative<S, C>(
    shards: Vec<(S, ShardQueue<S::Ev>)>,
    mut gqueue: ShardQueue<S::Global>,
    control: &mut C,
    lookahead: Option<SimDuration>,
    end: SimTime,
    threads: usize,
    sample_every: Option<SimDuration>,
) -> Outcome<S>
where
    S: PdesShard,
    C: PdesControl<S>,
{
    assert!(!shards.is_empty(), "need at least one shard");
    let la_ns = lookahead.map_or(u64::MAX, |l| {
        assert!(l > SimDuration::ZERO, "lookahead must be positive");
        l.as_nanos()
    });
    if let Some(e) = sample_every {
        assert!(e > SimDuration::ZERO, "sample interval must be positive");
    }
    let started = std::time::Instant::now();
    let k = shards.len();
    let slots: Vec<Mutex<Slot<S>>> = shards
        .into_iter()
        .map(|(shard, queue)| {
            Mutex::new(Slot {
                shard,
                queue,
                outbox: (0..k).map(|_| Vec::new()).collect(),
                globals_out: Vec::new(),
            })
        })
        .collect();
    let inboxes: Vec<Inbox<S::Ev>> = (0..k).map(|_| Inbox::new()).collect();

    let parties = threads.clamp(1, k);
    let end_excl_run = SimTime::from_nanos(end.as_nanos().saturating_add(1));
    let mut counters = EngineCounters {
        per_shard_max_queue: vec![0; k],
        ..EngineCounters::default()
    };

    if parties == 1 {
        coordinate(
            &slots,
            &inboxes,
            &mut gqueue,
            control,
            la_ns,
            end_excl_run,
            None,
            sample_every,
            &mut counters,
        );
    } else {
        let barrier = SpinBarrier::new(parties);
        let round = RoundPlan {
            end1: AtomicU64::new(0),
            width: AtomicU64::new(0),
            horizon: AtomicU64::new(0),
            flags: std::array::from_fn(|_| AtomicU8::new(0)),
        };
        let stop = AtomicBool::new(false);
        // A party that unwinds would never arrive at the barrier again;
        // poisoning turns the resulting deadlock into a propagated panic.
        struct PoisonOnPanic<'a>(&'a SpinBarrier);
        impl Drop for PoisonOnPanic<'_> {
            fn drop(&mut self) {
                if std::thread::panicking() {
                    self.0.poison();
                }
            }
        }
        std::thread::scope(|scope| {
            for party in 1..parties {
                let slots = &slots;
                let inboxes = &inboxes;
                let barrier = &barrier;
                let round = &round;
                let stop = &stop;
                scope.spawn(move || {
                    let _guard = PoisonOnPanic(barrier);
                    loop {
                        barrier.wait();
                        if stop.load(Ordering::Acquire) {
                            break;
                        }
                        let end1 = SimTime::from_nanos(round.end1.load(Ordering::Acquire));
                        let width = round.width.load(Ordering::Acquire);
                        let horizon = SimTime::from_nanos(round.horizon.load(Ordering::Acquire));
                        batch_party(
                            slots,
                            inboxes,
                            party,
                            parties,
                            end1,
                            width,
                            horizon,
                            |s, f| {
                                round.flags[s].fetch_or(f, Ordering::AcqRel);
                                barrier.wait();
                                round.flags[s].load(Ordering::Acquire)
                            },
                        );
                    }
                });
            }
            let _guard = PoisonOnPanic(&barrier);
            coordinate(
                &slots,
                &inboxes,
                &mut gqueue,
                control,
                la_ns,
                end_excl_run,
                Some(Pool {
                    barrier: &barrier,
                    round: &round,
                    stop: &stop,
                    parties,
                }),
                sample_every,
                &mut counters,
            );
        });
    }

    let mut processed = gqueue.processed();
    let mut queues = Vec::with_capacity(k);
    let shards = slots
        .into_iter()
        .map(|m| {
            let slot = m.into_inner().expect("shard lock poisoned");
            processed += slot.queue.processed();
            counters.per_shard_processed.push(slot.queue.processed());
            queues.push(slot.queue);
            slot.shard
        })
        .collect();
    counters.wall_s = started.elapsed().as_secs_f64();
    Outcome {
        shards,
        queues,
        globals: gqueue,
        processed,
        counters,
    }
}

/// The per-round schedule published by the coordinator before releasing
/// the round barrier, plus the per-step flag accumulators every party
/// ORs into and reads back after the step barrier.
struct RoundPlan {
    end1: AtomicU64,
    width: AtomicU64,
    horizon: AtomicU64,
    flags: [AtomicU8; MAX_STEPS],
}

struct Pool<'a> {
    barrier: &'a SpinBarrier,
    round: &'a RoundPlan,
    stop: &'a AtomicBool,
    parties: usize,
}

/// The coordinator loop: picks window batches, triggers parallel drains,
/// routes messages, executes global events in serial steps, and fires
/// sample instants (clamping batch horizons so samples see exact state).
#[allow(clippy::too_many_arguments)]
fn coordinate<S, C>(
    slots: &[Mutex<Slot<S>>],
    inboxes: &[Inbox<S::Ev>],
    gqueue: &mut ShardQueue<S::Global>,
    control: &mut C,
    la_ns: u64,
    end_excl_run: SimTime,
    pool: Option<Pool<'_>>,
    sample_every: Option<SimDuration>,
    counters: &mut EngineCounters,
) where
    S: PdesShard,
    C: PdesControl<S>,
{
    let k = slots.len();
    let mut next_sample = sample_every.map(|e| SimTime::ZERO + e);
    let mut depths = vec![0usize; k];
    loop {
        // Route messages and collect deferred globals produced by the
        // previous round, then find the earliest pending work. Globals
        // must land in the queue before the window decision: a death
        // emitted mid-round clips the next round.
        let mut shard_min: Option<EvKey> = None;
        for i in 0..k {
            let msgs = inboxes[i].take();
            let slot = &mut *lock(&slots[i]);
            for (t, ev) in msgs {
                slot.queue.insert_msg(t, ev);
            }
            for (t, g) in std::mem::take(&mut slot.globals_out) {
                gqueue.schedule(t, g);
            }
            depths[i] = slot.queue.live_len();
            counters.per_shard_max_queue[i] = counters.per_shard_max_queue[i].max(depths[i]);
            if let Some(key) = slot.queue.peek_key() {
                shard_min = Some(shard_min.map_or(key, |m: EvKey| m.min(key)));
            }
        }
        let global_min = gqueue.peek_key();
        let t0 = match (shard_min, global_min) {
            (Some(a), Some(b)) => a.time.min(b.time),
            (Some(a), None) => a.time,
            (None, Some(b)) => b.time,
            (None, None) => break,
        };
        // Fire every sample instant that all pending work has passed:
        // events strictly before it are done, so state is exact there.
        if let Some(every) = sample_every {
            while let Some(at) = next_sample.filter(|&at| t0 >= at && at < end_excl_run) {
                let mut shards = ShardsMut { slots };
                control.on_sample(&mut shards, at, &depths);
                next_sample = Some(at + every);
            }
        }
        if t0 >= end_excl_run {
            break;
        }
        // First-window end: nothing a shard does at or after its earliest
        // event can reach another shard (or the global queue) sooner than
        // one lookahead later, so every event before that is safe.
        let mut end_excl = shard_min.map_or(end_excl_run, |m| {
            SimTime::from_nanos(m.time.as_nanos().saturating_add(la_ns)).min(end_excl_run)
        });
        // Clamp to the next sample instant so no event at or beyond it
        // runs before the sample fires. Window partitioning never affects
        // physics, so the clamp is observation-only.
        if let Some(at) = next_sample {
            end_excl = end_excl.min(at);
        }

        if global_min.is_some_and(|g| g.time < end_excl) {
            counters.serial_steps += 1;
            serial_step(slots, gqueue, control, global_min.expect("checked").time);
            continue;
        }

        // Batch horizon: the run end, the next sample, and the next
        // pending global all stop the batch (every term is >= end_excl
        // here, so the batch is never cut short of its first window).
        let mut horizon = end_excl_run;
        if let Some(at) = next_sample {
            horizon = horizon.min(at);
        }
        if let Some(g) = global_min {
            horizon = horizon.min(g.time);
        }

        // Batched round: first window [t0, end_excl), then width-sized
        // sub-windows up to the horizon, one message exchange per step.
        let steps = match &pool {
            Some(p) => {
                for f in &p.round.flags {
                    f.store(0, Ordering::Relaxed);
                }
                p.round.end1.store(end_excl.as_nanos(), Ordering::Release);
                p.round.width.store(la_ns, Ordering::Release);
                p.round.horizon.store(horizon.as_nanos(), Ordering::Release);
                let waited = std::time::Instant::now();
                p.barrier.wait();
                counters.barrier_wait_s += waited.elapsed().as_secs_f64();
                batch_party(
                    slots,
                    inboxes,
                    0,
                    p.parties,
                    end_excl,
                    la_ns,
                    horizon,
                    |s, f| {
                        p.round.flags[s].fetch_or(f, Ordering::AcqRel);
                        let waited = std::time::Instant::now();
                        p.barrier.wait();
                        counters.barrier_wait_s += waited.elapsed().as_secs_f64();
                        p.round.flags[s].load(Ordering::Acquire)
                    },
                )
            }
            None => batch_party(slots, inboxes, 0, 1, end_excl, la_ns, horizon, |_, f| f),
        };
        counters.windows += steps;
        counters.barriers += steps + 1;
        let mut covered = end_excl;
        for _ in 1..steps {
            covered = step_end(covered, la_ns, horizon);
        }
        counters.window_width_s_sum += covered.saturating_duration_since(t0).as_secs_f64();
        // Messages and globals produced by the final step are routed at
        // the top of the next iteration.
    }

    if let Some(p) = pool {
        p.stop.store(true, Ordering::Release);
        p.barrier.wait();
    }
}

/// Processes, in strict key order, every shard event and global event with
/// `time ≤ bound` — the coordinator runs alone here, so global handlers
/// get exclusive access.
fn serial_step<S, C>(
    slots: &[Mutex<Slot<S>>],
    gqueue: &mut ShardQueue<S::Global>,
    control: &mut C,
    bound: SimTime,
) where
    S: PdesShard,
    C: PdesControl<S>,
{
    let k = slots.len();
    let mut gout: Vec<(SimTime, S::Global)> = Vec::new();
    loop {
        let shard_min: Option<(EvKey, usize)> = (0..k)
            .filter_map(|i| lock(&slots[i]).queue.peek_key().map(|key| (key, i)))
            .min();
        let global_min = gqueue.peek_key();
        // On an exact key tie the shard event runs first (fixed rule, so
        // every shard count replays the same order).
        let shard_first = match (shard_min, global_min) {
            (Some((sk, _)), Some(gk)) => sk <= gk,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => break,
        };
        if shard_first {
            let (key, i) = shard_min.expect("checked");
            if key.time > bound {
                break;
            }
            drain_one(slots, i);
            // Globals emitted by this very event (e.g. a death) must join
            // the queue *now*: they may be due before `bound` and must
            // interleave at their exact key position.
            for (t, g) in std::mem::take(&mut lock(&slots[i]).globals_out) {
                gqueue.schedule(t, g);
            }
        } else {
            let gk = global_min.expect("checked");
            if gk.time > bound {
                break;
            }
            let (_, g) = gqueue.pop_min().expect("peeked global pops");
            let mut shards = ShardsMut { slots };
            control.on_global(&mut shards, gqueue.now(), g, &mut gout);
            for (t, g) in gout.drain(..) {
                gqueue.schedule(t, g);
            }
        }
    }
}

/// A serial single-shard stepper that exposes one event at a time and lets
/// the caller pick *which* of the events tied at the earliest timestamp
/// fires next — the execution substrate of a bounded race explorer.
///
/// The conservative engine resolves same-timestamp ties with a fixed
/// deterministic rule ([`EvKey`] order, shard before global on exact key
/// ties). Those ties are exactly where protocol races hide: any of the
/// tied orders is a physically legitimate schedule, and the production
/// rule only ever shows one of them. The stepper materializes the others.
///
/// Single-shard only: handlers must not cross-send (asserted in debug
/// builds); with one shard, [`Ctx::send`] to the own shard is an ordinary
/// local schedule, so any model that runs at shard count 1 runs here.
pub struct SingleStepper<S: PdesShard> {
    slots: Vec<Mutex<Slot<S>>>,
    gqueue: ShardQueue<S::Global>,
    gout: Vec<(SimTime, S::Global)>,
}

impl<S: PdesShard> std::fmt::Debug for SingleStepper<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SingleStepper").finish_non_exhaustive()
    }
}

impl<S: PdesShard> SingleStepper<S> {
    /// Wraps a single shard, its pending queue and the global queue.
    pub fn new(shard: S, queue: ShardQueue<S::Ev>, globals: ShardQueue<S::Global>) -> Self {
        SingleStepper {
            slots: vec![Mutex::new(Slot {
                shard,
                queue,
                outbox: vec![Vec::new()],
                globals_out: Vec::new(),
            })],
            gqueue: globals,
            gout: Vec::new(),
        }
    }

    /// Earliest pending timestamp across the shard and global queues, or
    /// `None` at quiescence.
    pub fn next_time(&self) -> Option<SimTime> {
        let s = lock(&self.slots[0]).queue.peek_key().map(|k| k.time);
        let g = self.gqueue.peek_key().map(|k| k.time);
        match (s, g) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, None) => a,
            (None, b) => b,
        }
    }

    /// The interleaving candidates at the next step: shard-event keys tied
    /// at the earliest pending timestamp followed by global-event keys tied
    /// there, each group in key order. Empty at quiescence; a singleton
    /// means the next step has no branching choice.
    pub fn candidates(&self) -> Vec<EvKey> {
        let Some(t) = self.next_time() else {
            return Vec::new();
        };
        let mut keys: Vec<EvKey> = lock(&self.slots[0])
            .queue
            .keys_at_min_time()
            .into_iter()
            .filter(|k| k.time == t)
            .collect();
        keys.extend(
            self.gqueue
                .keys_at_min_time()
                .into_iter()
                .filter(|k| k.time == t),
        );
        keys
    }

    /// Executes the `choice`-th candidate (indexing [`candidates`]).
    /// Returns `false` at quiescence without consuming anything.
    ///
    /// # Panics
    ///
    /// Panics if `choice` is out of range.
    ///
    /// [`candidates`]: SingleStepper::candidates
    pub fn step<C: PdesControl<S>>(&mut self, control: &mut C, choice: usize) -> bool {
        let Some(t) = self.next_time() else {
            return false;
        };
        let n_shard = {
            let slot = lock(&self.slots[0]);
            slot.queue
                .keys_at_min_time()
                .iter()
                .filter(|k| k.time == t)
                .count()
        };
        if choice < n_shard {
            let slot = &mut *lock(&self.slots[0]);
            let (_, ev) = slot.queue.pop_tied(choice).expect("tied shard event pops");
            let mut ctx = Ctx {
                queue: &mut slot.queue,
                outbox: &mut slot.outbox,
                globals_out: &mut slot.globals_out,
                shard: 0,
            };
            slot.shard.handle(&mut ctx, ev);
            debug_assert!(
                slot.outbox[0].is_empty(),
                "single-shard model must not cross-send"
            );
            for (gt, g) in std::mem::take(&mut slot.globals_out) {
                self.gqueue.schedule(gt, g);
            }
        } else {
            let gi = choice - n_shard;
            let n_global = self
                .gqueue
                .keys_at_min_time()
                .iter()
                .filter(|k| k.time == t)
                .count();
            assert!(gi < n_global, "interleaving choice out of range");
            let (_, g) = self.gqueue.pop_tied(gi).expect("tied global pops");
            let now = self.gqueue.now();
            let mut shards = ShardsMut { slots: &self.slots };
            control.on_global(&mut shards, now, g, &mut self.gout);
            for (gt, g) in self.gout.drain(..) {
                self.gqueue.schedule(gt, g);
            }
        }
        true
    }

    /// Runs `f` with exclusive access to the shard state.
    pub fn with_shard<R>(&mut self, f: impl FnOnce(&mut S) -> R) -> R {
        f(&mut lock(&self.slots[0]).shard)
    }

    /// Dissolves the stepper into `(shard, queue, global queue)`.
    pub fn into_parts(self) -> (S, ShardQueue<S::Ev>, ShardQueue<S::Global>) {
        let slot = self
            .slots
            .into_iter()
            .next()
            .expect("stepper has one slot")
            .into_inner()
            .expect("shard lock poisoned");
        (slot.shard, slot.queue, self.gqueue)
    }
}

/// Pops and handles exactly one event of shard `i`, routing its messages
/// immediately (safe: the coordinator is the only running thread).
fn drain_one<S: PdesShard>(slots: &[Mutex<Slot<S>>], i: usize) {
    let mut sent: Vec<(usize, SimTime, S::Ev)> = Vec::new();
    {
        let slot = &mut *lock(&slots[i]);
        if let Some((_, ev)) = slot.queue.pop_min() {
            let mut ctx = Ctx {
                queue: &mut slot.queue,
                outbox: &mut slot.outbox,
                globals_out: &mut slot.globals_out,
                shard: i,
            };
            slot.shard.handle(&mut ctx, ev);
        }
        for (target, batch) in slot.outbox.iter_mut().enumerate() {
            for (time, ev) in batch.drain(..) {
                sent.push((target, time, ev));
            }
        }
    }
    for (target, time, ev) in sent {
        lock(&slots[target]).queue.insert_msg(time, ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keyed::pack_ord;

    // A toy partitioned model: N cells in a ring, each holding an
    // order-sensitive accumulator. Bump events rehash the cell state and
    // schedule the next bump; every few bumps a cell pokes its ring
    // neighbour (possibly on another shard) one lookahead later. A
    // periodic global event folds every cell into a shared digest.
    const LOOKAHEAD: SimDuration = SimDuration::from_micros(50);

    #[derive(Clone, Copy)]
    struct Bump {
        cell: u32,
        round: u32,
    }

    impl Keyed for Bump {
        fn ord(&self) -> u128 {
            pack_ord(1, self.cell, self.round as u64)
        }
    }

    struct Digest;
    impl Keyed for Digest {
        fn ord(&self) -> u128 {
            pack_ord(9, 0, 0)
        }
    }

    struct Cells {
        n: u32,
        k: usize,
        // Global-indexed; only owned cells are Some.
        state: Vec<Option<u64>>,
    }

    impl Cells {
        fn owner(&self, cell: u32) -> usize {
            (cell as usize * self.k) / self.n as usize
        }
    }

    impl PdesShard for Cells {
        type Ev = Bump;
        type Global = Digest;

        fn handle(&mut self, ctx: &mut Ctx<'_, Bump, Digest>, ev: Bump) {
            let now = ctx.now();
            let s = self.state[ev.cell as usize].as_mut().expect("owned cell");
            *s = s
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(((ev.round as u64) << 32) | (now.as_nanos() % 0xffff_ffff));
            if ev.round < 40 {
                let jitter = SimDuration::from_micros(1 + (*s % 90));
                ctx.after(
                    jitter,
                    Bump {
                        cell: ev.cell,
                        round: ev.round + 1,
                    },
                );
                if ev.round % 5 == 0 {
                    let peer = (ev.cell + 1) % self.n;
                    let target = self.owner(peer);
                    ctx.send(
                        target,
                        now + LOOKAHEAD,
                        Bump {
                            cell: peer,
                            round: 1000 + ev.round,
                        },
                    );
                }
            }
        }
    }

    struct DigestLog {
        log: Vec<u64>,
        samples: Vec<(SimTime, u64, usize)>,
        every: SimDuration,
        end: SimTime,
    }

    impl PdesControl<Cells> for DigestLog {
        fn on_global(
            &mut self,
            shards: &mut ShardsMut<'_, Cells>,
            now: SimTime,
            _ev: Digest,
            out: &mut Vec<(SimTime, Digest)>,
        ) {
            let mut acc = 0u64;
            shards.for_each(|_, s| {
                for v in s.state.iter().flatten() {
                    acc = acc.wrapping_mul(31).wrapping_add(*v);
                }
            });
            self.log.push(acc);
            if now + self.every <= self.end {
                out.push((now + self.every, Digest));
            }
        }

        fn on_sample(
            &mut self,
            shards: &mut ShardsMut<'_, Cells>,
            now: SimTime,
            queue_depths: &[usize],
        ) {
            let mut acc = 0u64;
            shards.for_each(|_, s| {
                for v in s.state.iter().flatten() {
                    acc = acc.wrapping_mul(31).wrapping_add(*v);
                }
            });
            self.samples.push((now, acc, queue_depths.iter().sum()));
        }
    }

    type SampledRun = (
        Vec<u64>,
        Vec<u64>,
        u64,
        Vec<(SimTime, u64, usize)>,
        EngineCounters,
    );

    fn run_sampled(
        n: u32,
        k: usize,
        threads: usize,
        la: Option<SimDuration>,
        sample_every: Option<SimDuration>,
    ) -> SampledRun {
        let end = SimTime::from_millis(20);
        let mut shards = Vec::new();
        for shard in 0..k {
            let mut cells = Cells {
                n,
                k,
                state: vec![None; n as usize],
            };
            let mut q = ShardQueue::new();
            for cell in 0..n {
                if cells.owner(cell) == shard {
                    cells.state[cell as usize] = Some(cell as u64 + 1);
                    q.schedule(
                        SimTime::from_micros(10 + cell as u64 * 7),
                        Bump { cell, round: 0 },
                    );
                }
            }
            shards.push((cells, q));
        }
        let mut control = DigestLog {
            log: Vec::new(),
            samples: Vec::new(),
            every: SimDuration::from_millis(3),
            end,
        };
        let mut globals = ShardQueue::new();
        globals.schedule(SimTime::from_millis(3), Digest);
        let out = run_conservative(
            shards,
            globals,
            &mut control,
            la,
            end,
            threads,
            sample_every,
        );
        let mut cells = vec![0u64; n as usize];
        for s in &out.shards {
            for (i, v) in s.state.iter().enumerate() {
                if let Some(v) = v {
                    cells[i] = *v;
                }
            }
        }
        (
            cells,
            control.log,
            out.processed,
            control.samples,
            out.counters,
        )
    }

    fn run(n: u32, k: usize, threads: usize) -> (Vec<u64>, Vec<u64>, u64) {
        let (cells, log, processed, _, _) = run_sampled(n, k, threads, Some(LOOKAHEAD), None);
        (cells, log, processed)
    }

    #[test]
    fn bit_identical_across_shard_counts() {
        let (c1, l1, p1) = run(12, 1, 1);
        for k in [2, 3, 4] {
            let (ck, lk, pk) = run(12, k, 1);
            assert_eq!(c1, ck, "cell states diverged at k={k}");
            assert_eq!(l1, lk, "global digests diverged at k={k}");
            assert_eq!(p1, pk, "event counts diverged at k={k}");
        }
    }

    #[test]
    fn bit_identical_across_thread_counts() {
        let (c1, l1, p1) = run(12, 4, 1);
        for threads in [2, 3, 4, 8] {
            let (ct, lt, pt) = run(12, 4, threads);
            assert_eq!(c1, ct, "cell states diverged at threads={threads}");
            assert_eq!(l1, lt, "digests diverged at threads={threads}");
            assert_eq!(p1, pt, "event counts diverged at threads={threads}");
        }
    }

    #[test]
    fn unbounded_lookahead_runs_independent_shards() {
        // No sends happen when every cell keeps to itself (rounds stop
        // before any %5 poke... keep pokes but a single cell per shard and
        // n == k so the ring peer is the next shard — instead verify the
        // None-lookahead contract with a poke-free model).
        struct Quiet {
            sum: u64,
        }
        #[derive(Clone, Copy)]
        struct Tick(u32);
        impl Keyed for Tick {
            fn ord(&self) -> u128 {
                self.0 as u128
            }
        }
        struct NoGlobals;
        impl Keyed for NoGlobals {
            fn ord(&self) -> u128 {
                0
            }
        }
        impl PdesShard for Quiet {
            type Ev = Tick;
            type Global = NoGlobals;
            fn handle(&mut self, ctx: &mut Ctx<'_, Tick, NoGlobals>, ev: Tick) {
                self.sum += ev.0 as u64;
                if ev.0 < 100 {
                    ctx.after(SimDuration::from_micros(3), Tick(ev.0 + 1));
                }
            }
        }
        struct NoControl;
        impl PdesControl<Quiet> for NoControl {
            fn on_global(
                &mut self,
                _s: &mut ShardsMut<'_, Quiet>,
                _now: SimTime,
                _ev: NoGlobals,
                _out: &mut Vec<(SimTime, NoGlobals)>,
            ) {
            }
        }
        let shards = (0..3)
            .map(|i| {
                let mut q = ShardQueue::new();
                q.schedule(SimTime::from_micros(i), Tick(0));
                (Quiet { sum: 0 }, q)
            })
            .collect();
        let out = run_conservative(
            shards,
            ShardQueue::new(),
            &mut NoControl,
            None,
            SimTime::from_secs(1),
            2,
            None,
        );
        assert_eq!(out.processed, 3 * 101);
        for s in &out.shards {
            assert_eq!(s.sum, (0..=100).sum::<u64>());
        }
    }

    #[test]
    fn respects_end_horizon() {
        let (_, log, _) = run(4, 2, 1);
        // Digests at 3, 6, 9, 12, 15, 18 ms within the 20 ms horizon.
        assert_eq!(log.len(), 6);
    }

    #[test]
    fn sampling_never_changes_results() {
        let every = SimDuration::from_millis(2);
        let (c_off, l_off, p_off) = run(12, 3, 1);
        for (k, threads) in [(1, 1), (3, 1), (3, 4)] {
            let (c_on, l_on, p_on, samples, _) =
                run_sampled(12, k, threads, Some(LOOKAHEAD), Some(every));
            assert_eq!(c_off, c_on, "sampling perturbed state at k={k}");
            assert_eq!(l_off, l_on, "sampling perturbed digests at k={k}");
            assert_eq!(p_off, p_on, "sampling perturbed event count at k={k}");
            assert!(!samples.is_empty(), "samples fired");
        }
    }

    #[test]
    fn samples_are_shard_and_thread_invariant() {
        let every = SimDuration::from_millis(2);
        let (_, _, _, s1, _) = run_sampled(12, 1, 1, Some(LOOKAHEAD), Some(every));
        // State digests and fire instants agree everywhere; only the
        // per-shard queue split (summed here) is partition-dependent, so
        // compare instants + digests.
        let base: Vec<(SimTime, u64)> = s1.iter().map(|&(t, d, _)| (t, d)).collect();
        assert!(!base.is_empty());
        assert!(base.windows(2).all(|w| w[1].0 - w[0].0 == every));
        for (k, threads) in [(2, 1), (4, 1), (4, 4)] {
            let (_, _, _, sk, _) = run_sampled(12, k, threads, Some(LOOKAHEAD), Some(every));
            let got: Vec<(SimTime, u64)> = sk.iter().map(|&(t, d, _)| (t, d)).collect();
            assert_eq!(base, got, "samples diverged at k={k} threads={threads}");
        }
    }

    #[test]
    fn batching_executes_multiple_windows_per_barrier() {
        // The toy model reschedules within microseconds, so rounds batch
        // many sub-windows: windows must clearly exceed synchronization
        // points (the whole point of the batched exchange).
        let (_, _, _, _, c) = run_sampled(12, 3, 1, Some(LOOKAHEAD), None);
        assert!(c.barriers > 0, "barriers counted");
        // barriers = windows + rounds; the unbatched engine would pay
        // (at least) one sync round per window, i.e. barriers = 2*windows.
        let rounds = c.barriers - c.windows;
        assert!(
            rounds * 2 < c.windows,
            "batching should pack several windows per round ({} windows, {} rounds)",
            c.windows,
            rounds
        );
    }

    #[test]
    fn counters_are_thread_invariant() {
        let (_, _, _, _, c1) = run_sampled(12, 4, 1, Some(LOOKAHEAD), None);
        let (_, _, _, _, c4) = run_sampled(12, 4, 4, Some(LOOKAHEAD), None);
        assert_eq!(c1.windows, c4.windows, "windows must not depend on threads");
        assert_eq!(
            c1.barriers, c4.barriers,
            "barriers must not depend on threads"
        );
        assert_eq!(c1.serial_steps, c4.serial_steps);
        assert_eq!(c1.per_shard_processed, c4.per_shard_processed);
    }

    #[test]
    fn counters_track_windows_and_queues() {
        let (_, _, processed, _, c) = run_sampled(12, 3, 1, Some(LOOKAHEAD), None);
        assert!(c.windows > 0, "windows counted");
        assert!(c.serial_steps >= 6, "one per digest global at least");
        assert!(c.window_width_s_sum > 0.0);
        assert!(c.wall_s > 0.0);
        assert_eq!(c.barrier_wait_s, 0.0, "no pool on the sequential path");
        assert_eq!(c.per_shard_processed.len(), 3);
        assert_eq!(c.per_shard_max_queue.len(), 3);
        assert!(c.per_shard_max_queue.iter().all(|&d| d > 0));
        let global_events = 6; // digests at 3, 6, 9, 12, 15, 18 ms
        assert_eq!(
            c.per_shard_processed.iter().sum::<u64>() + global_events,
            processed,
            "per-shard split sums to the total minus globals"
        );
    }

    #[test]
    fn worker_panic_propagates_instead_of_deadlocking() {
        // A shard handler that panics on a worker thread must fail the
        // whole run (via barrier poisoning), not hang the coordinator.
        struct Bomb;
        #[derive(Clone, Copy)]
        struct T;
        impl Keyed for T {
            fn ord(&self) -> u128 {
                0
            }
        }
        impl PdesShard for Bomb {
            type Ev = T;
            type Global = T;
            fn handle(&mut self, _ctx: &mut Ctx<'_, T, T>, _ev: T) {
                panic!("shard handler exploded");
            }
        }
        struct NoC;
        impl PdesControl<Bomb> for NoC {
            fn on_global(
                &mut self,
                _s: &mut ShardsMut<'_, Bomb>,
                _now: SimTime,
                _ev: T,
                _out: &mut Vec<(SimTime, T)>,
            ) {
            }
        }
        let shards = (0..2)
            .map(|_| {
                let mut q = ShardQueue::new();
                q.schedule(SimTime::from_micros(1), T);
                (Bomb, q)
            })
            .collect();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_conservative(
                shards,
                ShardQueue::new(),
                &mut NoC,
                Some(SimDuration::from_micros(10)),
                SimTime::from_secs(1),
                2,
                None,
            )
        }));
        assert!(result.is_err(), "panic must propagate, not deadlock");
    }

    #[test]
    fn spin_barrier_synchronizes() {
        let barrier = SpinBarrier::new(4);
        let counter = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    counter.fetch_add(1, Ordering::SeqCst);
                    barrier.wait();
                    assert_eq!(counter.load(Ordering::SeqCst), 3);
                    barrier.wait();
                    barrier.wait();
                    counter.fetch_add(1, Ordering::SeqCst);
                    barrier.wait();
                });
            }
            barrier.wait(); // all three increments done
            assert_eq!(counter.load(Ordering::SeqCst), 3);
            barrier.wait(); // release for phase 2
            barrier.wait();
            barrier.wait();
            assert_eq!(counter.load(Ordering::SeqCst), 6);
        });
    }

    #[test]
    fn spin_barrier_spins_only_with_a_core_per_party() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(SpinBarrier::new(cores).spins, SPINS);
        assert_eq!(SpinBarrier::new(cores + 1).spins, 0);
    }
}
