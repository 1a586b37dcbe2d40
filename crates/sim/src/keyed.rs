//! Deterministically-keyed event queues: the one event engine.
//!
//! Breaking timestamp ties by *insertion sequence* alone is deterministic
//! for a single queue, but the insertion sequence is an artifact of
//! execution interleaving: split the same model across two queues and the
//! per-queue sequences no longer reconstruct the single-queue order. A
//! sharded run could then legally diverge from the sequential one.
//!
//! [`ShardQueue`] instead orders events by an [`EvKey`] that is a pure
//! function of the *model*, not of the execution:
//!
//! * `time` — the virtual timestamp;
//! * `depth` — the causal depth at equal time: an event scheduled *at the
//!   current instant* sorts after its creator (creator depth + 1), so
//!   zero-delay cascades unfold in causal order and a handler can never
//!   schedule an event that "should already have run";
//! * `ord` — a content-derived discriminant supplied by the event type via
//!   [`Keyed`], which breaks ties between causally unrelated simultaneous
//!   events the same way no matter how the model is sharded.
//!
//! Together these form a total order that every shard count replays
//! identically, which is the foundation of the conservative parallel
//! runner in [`conservative`](crate::conservative). Insertion sequence is
//! the last tie-break, so a model that runs on one queue (the two-node
//! testbed) may give every event the same `ord` and get first-in,
//! first-out order among same-instant events.
//!
//! # Storage: a calendar wheel, not a heap
//!
//! Simulation horizons here are short and dense — thousands of events land
//! within a few link latencies of the clock — which is the textbook case
//! for a calendar queue. Events are bucketed by `EvKey.time` into a
//! fixed-size wheel of 1024 slots, each 2^14 ns (~16 µs) wide. The
//! bucket at the clock is sorted once (by `(EvKey, seq)`, preserving the
//! exact total order a heap would produce) into a `due` stack popped from
//! the back; same-bucket events scheduled *after* that sort go to a small
//! `young` heap consulted alongside it. Events past the wheel horizon wait
//! in an unsorted `overflow` list and are redistributed when the wheel
//! drains, jumping the epoch straight to the overflow minimum (no empty
//! ring laps). A bitmap of occupied buckets makes "next non-empty bucket"
//! a couple of word scans.
//!
//! Each pending event is stored once, in a slot table; the wheel, `due`,
//! `young` and `overflow` hold only 48-byte `Copy` entries that name a
//! slot, so filing, sorting and popping never move an event. An event
//! moves twice: into its slot when scheduled, out of it when popped.
//!
//! Cancellation is generation-stamped: every entry carries its slot index
//! and the generation the slot had when the entry was filed, and
//! [`CancelId`] packs `(slot, generation)`. Cancelling drops the event and
//! bumps the generation, which logically kills the entry wherever it
//! physically sits — O(1), no per-event hash set, and reads (`peek_key`,
//! `is_empty`) take `&self` because there are no tombstones to drain.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// The deterministic sort key of one scheduled event.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EvKey {
    /// Virtual timestamp.
    pub time: SimTime,
    /// Causal depth among same-time events (children of an event at the
    /// same instant carry the parent's depth + 1).
    pub depth: u32,
    /// Content-derived tie-break discriminant (see [`Keyed`]).
    pub ord: u128,
}

crate::persist!(struct EvKey { time, depth, ord });

impl EvKey {
    /// The smallest possible key (sorts before everything).
    pub const MIN: EvKey = EvKey {
        time: SimTime::ZERO,
        depth: 0,
        ord: 0,
    };
}

/// Events that carry a content-derived tie-break discriminant.
///
/// In a sharded model, two *distinct live* events at the same
/// `(time, depth)` must return different `ord` values (encode the event
/// kind plus the entities it concerns); equal values are only acceptable
/// for events whose effects commute, e.g. the per-shard halves of one
/// broadcast. The uniqueness is needed only across shards: a model that
/// runs on one queue may return a constant, and its ties then fall to
/// insertion order.
pub trait Keyed {
    /// The tie-break discriminant. Must depend only on event content.
    fn ord(&self) -> u128;
}

/// Packs `(rank, a, b)` into the conventional `ord` layout: an 8-bit event
/// kind rank, a 32-bit entity id and a 64-bit auxiliary discriminant.
pub const fn pack_ord(rank: u8, a: u32, b: u64) -> u128 {
    ((rank as u128) << 96) | ((a as u128) << 64) | (b as u128)
}

/// Cancellation handle for an event scheduled on a [`ShardQueue`]:
/// a generation-table slot index plus the generation it was issued at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CancelId(u64);

impl CancelId {
    fn new(slot: u32, gen: u32) -> Self {
        CancelId(((slot as u64) << 32) | gen as u64)
    }
    fn slot(self) -> u32 {
        (self.0 >> 32) as u32
    }
    fn gen(self) -> u32 {
        self.0 as u32
    }
}

/// Wheel size; with 2^[`BUCKET_SHIFT`]-ns buckets the wheel spans ~16.8 ms.
const BUCKETS: usize = 1024;
/// log2 of the bucket width in nanoseconds (2^14 ns ≈ 16.4 µs — on the
/// order of one low-radio link latency, so a conservative window's events
/// land in a handful of buckets).
const BUCKET_SHIFT: u32 = 14;
/// Words in the occupied-bucket bitmap.
const OCC_WORDS: usize = BUCKETS / 64;
/// Most emptied bucket vectors kept for reuse.
const SPARE_CAP: usize = 64;

/// One scheduled event's place in the order; the event waits in its
/// slot of [`ShardQueue`]'s slot table.
#[derive(Debug, Clone, Copy)]
struct Entry {
    key: EvKey,
    seq: u64,
    slot: u32,
    gen: u32,
}

// Min-heap by (key, seq): seq is a last-resort stable tie-break so the
// queue stays totally ordered even if a model violates the ord-uniqueness
// contract for commuting events.
impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.seq == other.seq
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.key, other.seq).cmp(&(self.key, self.seq))
    }
}

/// One shard's future-event list, ordered by [`EvKey`].
///
/// Tracks the shard's local clock (`now`), the causal depth of the event
/// currently being handled, and the number of events processed. Supports
/// O(1) cancellation through generation stamps, and `&self` reads: between
/// any two mutating calls the earliest live event is exposed at the top of
/// `due`/`young` (the normalization invariant), so [`peek_key`] and
/// [`is_empty`] never need to mutate.
///
/// [`peek_key`]: ShardQueue::peek_key
/// [`is_empty`]: ShardQueue::is_empty
#[derive(Debug)]
pub struct ShardQueue<E> {
    /// The current bucket, sorted descending by `(key, seq)`; min pops
    /// from the back.
    due: Vec<Entry>,
    /// Entries at or before the current bucket inserted after `due` was
    /// sorted (same-instant children, mostly). Min-heap via `Entry`'s Ord.
    young: BinaryHeap<Entry>,
    /// The wheel: bucket for absolute index `a` lives at `a % BUCKETS`,
    /// holding entries with `cur_abs < a < cur_abs + BUCKETS`. Unsorted.
    wheel: Vec<Vec<Entry>>,
    /// Bitmap of physically non-empty wheel buckets.
    occ: [u64; OCC_WORDS],
    /// Physical entry count across all wheel buckets (dead included).
    wheel_count: usize,
    /// Emptied bucket vectors with their capacity, handed to buckets as
    /// they fill so a wheel lap does not re-grow vectors from zero.
    spare: Vec<Vec<Entry>>,
    /// Entries at or past the wheel horizon, unsorted.
    overflow: Vec<Entry>,
    /// Lower bound on the absolute bucket of any overflow entry
    /// (`u64::MAX` when empty). May be stale-low if its holder was
    /// cancelled — re-anchoring at a dead minimum is harmless.
    overflow_min: u64,
    /// Absolute index of the bucket `due` was drained from.
    cur_abs: u64,
    /// Generation per slot; an entry is live iff its stamped generation
    /// matches its slot's current one.
    gens: Vec<u32>,
    /// The event per slot: `Some` exactly while the slot's current
    /// generation is scheduled and has not fired or been cancelled.
    events: Vec<Option<E>>,
    /// Free slot indices available for reuse.
    free_slots: Vec<u32>,
    /// Live (scheduled, not fired, not cancelled) entries.
    live: usize,
    next_seq: u64,
    now: SimTime,
    depth: u32,
    cur_ord: u128,
    processed: u64,
}

impl<E> Default for ShardQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

const fn abs_bucket(t: SimTime) -> u64 {
    t.as_nanos() >> BUCKET_SHIFT
}

impl<E> ShardQueue<E> {
    /// Creates an empty queue with the clock at t=0.
    pub fn new() -> Self {
        ShardQueue {
            due: Vec::new(),
            young: BinaryHeap::new(),
            wheel: (0..BUCKETS).map(|_| Vec::new()).collect(),
            occ: [0; OCC_WORDS],
            wheel_count: 0,
            spare: Vec::new(),
            overflow: Vec::new(),
            overflow_min: u64::MAX,
            cur_abs: 0,
            gens: Vec::new(),
            events: Vec::new(),
            free_slots: Vec::new(),
            live: 0,
            next_seq: 0,
            now: SimTime::ZERO,
            depth: 0,
            cur_ord: 0,
            processed: 0,
        }
    }

    /// The shard's local clock (timestamp of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The key of the event currently being handled.
    pub fn current_key(&self) -> EvKey {
        EvKey {
            time: self.now,
            depth: self.depth,
            ord: self.cur_ord,
        }
    }

    /// Events processed so far by this queue.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Live (scheduled, not yet fired or cancelled) events currently
    /// pending. Cancelled entries still physically present are not
    /// counted.
    pub fn live_len(&self) -> usize {
        self.live
    }

    fn is_dead(&self, e: &Entry) -> bool {
        self.gens[e.slot as usize] != e.gen
    }

    fn alloc_slot(&mut self) -> (u32, u32) {
        match self.free_slots.pop() {
            Some(s) => (s, self.gens[s as usize]),
            None => {
                self.gens.push(0);
                self.events.push(None);
                ((self.gens.len() - 1) as u32, 0)
            }
        }
    }

    /// Retires a live slot after its entry fired or was cancelled and
    /// hands back its event: bumping the generation kills any stale
    /// physical copy, and the slot can be reissued immediately.
    fn retire_slot(&mut self, slot: u32) -> E {
        let g = &mut self.gens[slot as usize];
        *g = g.wrapping_add(1);
        self.free_slots.push(slot);
        self.live -= 1;
        self.events[slot as usize]
            .take()
            .expect("a live slot holds its event")
    }

    fn push(&mut self, key: EvKey, ev: E) -> CancelId {
        let seq = self.next_seq;
        self.next_seq += 1;
        let (slot, gen) = self.alloc_slot();
        self.events[slot as usize] = Some(ev);
        self.live += 1;
        let entry = Entry {
            key,
            seq,
            slot,
            gen,
        };
        let abs = abs_bucket(key.time);
        if abs <= self.cur_abs {
            self.young.push(entry);
            // `young`'s top is now live: the invariant holds by itself.
        } else if abs < self.cur_abs + BUCKETS as u64 {
            self.wheel_push(abs, entry);
            self.normalize();
        } else {
            self.overflow_min = self.overflow_min.min(abs);
            self.overflow.push(entry);
            self.normalize();
        }
        CancelId::new(slot, gen)
    }

    /// Files `entry` in the wheel bucket for absolute index `abs` (inside
    /// the horizon), reusing a spare vector when the bucket has none.
    fn wheel_push(&mut self, abs: u64, entry: Entry) {
        let p = (abs % BUCKETS as u64) as usize;
        if self.wheel[p].capacity() == 0 {
            if let Some(v) = self.spare.pop() {
                self.wheel[p] = v;
            }
        }
        self.wheel[p].push(entry);
        self.occ[p / 64] |= 1 << (p % 64);
        self.wheel_count += 1;
    }

    /// Keeps an emptied vector's capacity for the next bucket to fill.
    fn recycle(&mut self, v: Vec<Entry>) {
        debug_assert!(v.is_empty());
        if v.capacity() > 0 && self.spare.len() < SPARE_CAP {
            self.spare.push(v);
        }
    }

    /// Schedules `ev` at `time` from within the shard. Same-instant events
    /// are keyed one causal level below the event being handled, so they
    /// always sort after it.
    ///
    /// # Panics
    ///
    /// Panics if `time` is in the shard's past.
    pub fn schedule(&mut self, time: SimTime, ev: E) -> CancelId
    where
        E: Keyed,
    {
        assert!(
            time >= self.now,
            "scheduled event at {time} but shard clock is at {}",
            self.now
        );
        let depth = if time == self.now { self.depth + 1 } else { 0 };
        let key = EvKey {
            time,
            depth,
            ord: ev.ord(),
        };
        self.push(key, ev)
    }

    /// Inserts an event that arrived from another shard. Messages always
    /// carry a strictly-future timestamp (the conservative lookahead), so
    /// they enter at causal depth 0.
    ///
    /// # Panics
    ///
    /// Panics if `time` is not strictly after the shard clock — that would
    /// mean the conservative window let a message arrive in the past.
    pub fn insert_msg(&mut self, time: SimTime, ev: E)
    where
        E: Keyed,
    {
        assert!(
            time > self.now,
            "cross-shard message at {time} arrived with shard clock at {}",
            self.now
        );
        let key = EvKey {
            time,
            depth: 0,
            ord: ev.ord(),
        };
        self.push(key, ev);
    }

    /// Cancels a pending event; `true` only if it had not fired yet.
    pub fn cancel(&mut self, id: CancelId) -> bool {
        let slot = id.slot() as usize;
        if self.gens.get(slot).copied() != Some(id.gen()) {
            return false;
        }
        // The event goes now; its entry stays wherever it sits, dead.
        drop(self.retire_slot(id.slot()));
        // The cancelled entry may be the exposed due/young minimum.
        self.normalize();
        true
    }

    /// Restores the normalization invariant: if any live entry exists, the
    /// overall minimum (by `(key, seq)`) is live and sits at `due`'s back
    /// or `young`'s top. Cheap when the invariant already holds (two
    /// liveness checks); otherwise prunes dead entries and pulls buckets
    /// forward until a live minimum surfaces.
    fn normalize(&mut self) {
        loop {
            while let Some(e) = self.young.peek() {
                if self.gens[e.slot as usize] != e.gen {
                    self.young.pop();
                } else {
                    break;
                }
            }
            while let Some(e) = self.due.last() {
                if self.gens[e.slot as usize] != e.gen {
                    self.due.pop();
                } else {
                    break;
                }
            }
            if !self.due.is_empty() || !self.young.is_empty() {
                return;
            }
            if self.live == 0 {
                return;
            }
            // The earliest pending bucket is either on the wheel or past
            // its horizon in `overflow` — drain whichever comes first.
            // Equality goes to `re_anchor`, which merges the tied wheel
            // bucket and overflow entries through `young` so the in-bucket
            // order stays exact.
            match self.next_wheel_abs() {
                Some(w) if w < self.overflow_min => self.advance(w),
                _ => self.re_anchor(),
            }
        }
    }

    /// Absolute index of the earliest physically non-empty wheel bucket,
    /// or `None` when the wheel is empty.
    fn next_wheel_abs(&self) -> Option<u64> {
        if self.wheel_count == 0 {
            return None;
        }
        let p0 = (self.cur_abs % BUCKETS as u64) as usize;
        let p = self
            .next_occupied(p0)
            .expect("wheel_count > 0 implies an occupied bucket");
        let base = self.cur_abs - self.cur_abs % BUCKETS as u64;
        Some(if p > p0 {
            base + p as u64
        } else {
            base + BUCKETS as u64 + p as u64
        })
    }

    /// Pulls the wheel bucket at absolute index `abs` into `due`.
    /// Precondition: `due`/`young` empty, `abs` is [`next_wheel_abs`] and
    /// strictly precedes every overflow entry.
    ///
    /// [`next_wheel_abs`]: ShardQueue::next_wheel_abs
    fn advance(&mut self, abs: u64) {
        self.cur_abs = abs;
        let p = (abs % BUCKETS as u64) as usize;
        let mut bucket = std::mem::take(&mut self.wheel[p]);
        self.occ[p / 64] &= !(1 << (p % 64));
        self.wheel_count -= bucket.len();
        debug_assert!(self.due.is_empty());
        for e in bucket.drain(..) {
            if !self.is_dead(&e) {
                self.due.push(e);
            }
        }
        self.recycle(bucket);
        self.due
            .sort_unstable_by_key(|e| std::cmp::Reverse((e.key, e.seq)));
    }

    /// Finds the first occupied bucket strictly after physical index `p0`
    /// in ring order. Because the wheel only holds absolute indices in
    /// `(cur_abs, cur_abs + BUCKETS)`, ring order from `p0` is absolute
    /// order, and bucket `p0` itself is never occupied. Scans the bitmap a
    /// word at a time.
    fn next_occupied(&self, p0: usize) -> Option<usize> {
        let mut step = 1;
        while step <= BUCKETS {
            let p = (p0 + step) % BUCKETS;
            let bit = p % 64;
            let word = self.occ[p / 64] >> bit;
            if word != 0 {
                return Some(p + word.trailing_zeros() as usize);
            }
            step += 64 - bit; // jump to the next word boundary
        }
        None
    }

    /// Re-anchors at the overflow minimum: compacts dead overflow
    /// entries, jumps `cur_abs` straight to the earliest remaining bucket
    /// (no empty laps), and redistributes what now fits. Wheel entries
    /// strictly after the new anchor stay physically put — their slots
    /// remain valid because `cur_abs` only ever grows toward them; a wheel
    /// bucket *tied* with the anchor is folded into `young` so it merges
    /// with the redistributed overflow entries in exact key order.
    /// Precondition: `due`/`young` empty.
    fn re_anchor(&mut self) {
        let gens = &self.gens;
        self.overflow.retain(|e| gens[e.slot as usize] == e.gen);
        let Some(min_abs) = self.overflow.iter().map(|e| abs_bucket(e.key.time)).min() else {
            self.overflow_min = u64::MAX;
            return; // every overflow entry was dead
        };
        if self.next_wheel_abs().is_some_and(|w| w < min_abs) {
            // `overflow_min` was stale-low (a cancelled entry held it) and
            // the wheel actually comes first. Keep the compaction, publish
            // the true minimum, and let the caller's loop advance the
            // wheel instead.
            self.overflow_min = min_abs;
            return;
        }
        debug_assert!(min_abs > self.cur_abs, "overflow is strictly ahead");
        let spare = self.spare.pop().unwrap_or_default();
        let mut kept = std::mem::replace(&mut self.overflow, spare);
        self.cur_abs = min_abs;
        self.overflow_min = u64::MAX;
        let p0 = (min_abs % BUCKETS as u64) as usize;
        if self.occ[p0 / 64] & (1 << (p0 % 64)) != 0 {
            // A wheel bucket shares the anchor's absolute index (it can
            // only be `min_abs` itself — anything else in range would have
            // a different physical slot).
            let mut bucket = std::mem::take(&mut self.wheel[p0]);
            self.occ[p0 / 64] &= !(1 << (p0 % 64));
            self.wheel_count -= bucket.len();
            for e in bucket.drain(..) {
                debug_assert_eq!(abs_bucket(e.key.time), min_abs);
                if !self.is_dead(&e) {
                    self.young.push(e);
                }
            }
            self.recycle(bucket);
        }
        for e in kept.drain(..) {
            let abs = abs_bucket(e.key.time);
            if abs <= self.cur_abs {
                self.young.push(e);
            } else if abs < self.cur_abs + BUCKETS as u64 {
                self.wheel_push(abs, e);
            } else {
                self.overflow_min = self.overflow_min.min(abs);
                self.overflow.push(e);
            }
        }
        self.recycle(kept);
    }

    /// The key of the earliest live event, without removing it.
    pub fn peek_key(&self) -> Option<EvKey> {
        match (self.due.last(), self.young.peek()) {
            (Some(d), Some(y)) => {
                if (y.key, y.seq) < (d.key, d.seq) {
                    Some(y.key)
                } else {
                    Some(d.key)
                }
            }
            (Some(d), None) => Some(d.key),
            (None, Some(y)) => Some(y.key),
            (None, None) => None,
        }
    }

    /// Pops the earliest live event if its time is strictly before
    /// `end_excl`, advancing the clock and causal depth to it.
    pub fn pop_due(&mut self, end_excl: SimTime) -> Option<(EvKey, E)> {
        let k = self.peek_key()?;
        if k.time >= end_excl {
            return None;
        }
        let from_young = match (self.due.last(), self.young.peek()) {
            (Some(d), Some(y)) => (y.key, y.seq) < (d.key, d.seq),
            (Some(_), None) => false,
            (None, Some(_)) => true,
            (None, None) => unreachable!("peek_key returned Some"),
        };
        let e = if from_young {
            self.young.pop().expect("peeked young entry pops")
        } else {
            self.due.pop().expect("peeked due entry pops")
        };
        Some(self.fire(e))
    }

    /// Fires a live entry just taken off `due` or `young`: hands back its
    /// event and advances the clock and causal depth to it.
    fn fire(&mut self, e: Entry) -> (EvKey, E) {
        let ev = self.retire_slot(e.slot);
        debug_assert!(e.key.time >= self.now, "event time regressed");
        self.now = e.key.time;
        self.depth = e.key.depth;
        self.cur_ord = e.key.ord;
        self.processed += 1;
        self.normalize();
        (e.key, ev)
    }

    /// Pops the earliest live event unconditionally.
    pub fn pop_min(&mut self) -> Option<(EvKey, E)> {
        self.pop_due(SimTime::MAX)
    }

    /// `true` when no live events remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// All live entries in `(key, seq)` order, without disturbing the
    /// queue. This is the canonical pending-event list a snapshot
    /// captures: insertion sequence is reduced to the relative order it
    /// implies, so re-scheduling the returned list into a fresh queue (in
    /// order, via [`schedule_with_key`]) reproduces the exact total order
    /// this queue would have popped.
    ///
    /// [`schedule_with_key`]: ShardQueue::schedule_with_key
    pub fn live_entries(&self) -> Vec<(EvKey, &E)> {
        let mut all: Vec<Entry> = Vec::with_capacity(self.live);
        all.extend(
            self.due
                .iter()
                .chain(self.young.iter())
                .chain(self.wheel.iter().flatten())
                .chain(self.overflow.iter())
                .filter(|e| !self.is_dead(e)),
        );
        debug_assert_eq!(all.len(), self.live, "live count matches physical scan");
        all.sort_unstable_by_key(|e| (e.key, e.seq));
        all.into_iter()
            .map(|e| {
                let ev = self.events[e.slot as usize].as_ref();
                (e.key, ev.expect("a live slot holds its event"))
            })
            .collect()
    }

    /// Schedules an event under an explicit pre-computed key — the restore
    /// path of a snapshot, which must reproduce `(time, depth, ord)`
    /// exactly rather than re-derive the depth from the current clock.
    /// Call in [`live_entries`] order so the seq tie-break preserves the
    /// captured relative order of key-equal entries.
    ///
    /// # Panics
    ///
    /// Panics if `key.time` is in the shard's past.
    ///
    /// [`live_entries`]: ShardQueue::live_entries
    pub fn schedule_with_key(&mut self, key: EvKey, ev: E) -> CancelId {
        assert!(
            key.time >= self.now,
            "restored event at {} but shard clock is at {}",
            key.time,
            self.now
        );
        self.push(key, ev)
    }

    /// The clock registers a snapshot must carry: `(now, depth, cur_ord,
    /// processed)`. The first three decide how a handler that fires at the
    /// *same instant* as the last pre-snapshot event keys its children, so
    /// bit-exact restore needs them verbatim.
    pub fn clock_state(&self) -> (SimTime, u32, u128, u64) {
        (self.now, self.depth, self.cur_ord, self.processed)
    }

    /// Restores the clock registers captured by [`clock_state`]. Pending
    /// events may be scheduled before or after this call; their keys must
    /// not precede `now`.
    ///
    /// [`clock_state`]: ShardQueue::clock_state
    pub fn restore_clock_state(&mut self, now: SimTime, depth: u32, cur_ord: u128, processed: u64) {
        debug_assert!(
            !self.peek_key().is_some_and(|k| k.time < now),
            "pending event precedes the restored clock"
        );
        self.now = now;
        self.depth = depth;
        self.cur_ord = cur_ord;
        self.processed = processed;
    }

    /// Keys of every live event tied at the earliest pending *timestamp*
    /// (ignoring depth/ord), in `(key, seq)` order — the interleaving
    /// candidates a bounded race explorer branches over. Empty when the
    /// queue is empty.
    pub fn keys_at_min_time(&self) -> Vec<EvKey> {
        let Some(t) = self.peek_key().map(|k| k.time) else {
            return Vec::new();
        };
        let mut tied: Vec<(EvKey, u64)> = self
            .due
            .iter()
            .chain(self.young.iter())
            .filter(|e| !self.is_dead(e) && e.key.time == t)
            .map(|e| (e.key, e.seq))
            .collect();
        tied.sort_unstable();
        tied.into_iter().map(|(k, _)| k).collect()
    }

    /// Pops the `idx`-th event (in `(key, seq)` order) among those tied at
    /// the earliest pending timestamp, advancing the clock to it exactly
    /// like [`pop_due`] would. Out-of-order pops are the race explorer's
    /// tool for materializing alternative tie-break interleavings.
    ///
    /// [`pop_due`]: ShardQueue::pop_due
    pub fn pop_tied(&mut self, idx: usize) -> Option<(EvKey, E)> {
        let t = self.peek_key()?.time;
        // Every live entry at the current minimum timestamp is physically
        // in `due` or `young`: they share the minimum's wheel bucket, which
        // was drained when the minimum surfaced, and later same-bucket
        // inserts go straight to `young`.
        let mut tied: Vec<(EvKey, u64)> = self
            .due
            .iter()
            .chain(self.young.iter())
            .filter(|e| !self.is_dead(e) && e.key.time == t)
            .map(|e| (e.key, e.seq))
            .collect();
        tied.sort_unstable();
        let &(key, seq) = tied.get(idx)?;
        let e = if let Some(p) = self
            .due
            .iter()
            .position(|e| e.key == key && e.seq == seq && !self.is_dead(e))
        {
            self.due.remove(p)
        } else {
            let mut drained: Vec<Entry> = std::mem::take(&mut self.young).into_vec();
            let p = drained
                .iter()
                .position(|e| e.key == key && e.seq == seq)
                .expect("tied entry is in due or young");
            let e = drained.swap_remove(p);
            self.young = drained.into();
            e
        };
        Some(self.fire(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::rc::Rc;

    impl Keyed for u64 {
        fn ord(&self) -> u128 {
            *self as u128
        }
    }

    impl Keyed for Rc<()> {
        fn ord(&self) -> u128 {
            0
        }
    }

    #[test]
    fn pops_in_key_order_not_insertion_order() {
        let mut q = ShardQueue::new();
        let t = SimTime::from_secs(1);
        // Inserted high-ord first: pops must follow ord, not insertion.
        q.schedule(t, 9u64);
        q.schedule(t, 3u64);
        q.schedule(SimTime::from_millis(500), 7u64);
        let order: Vec<u64> = std::iter::from_fn(|| q.pop_min().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![7, 3, 9]);
    }

    #[test]
    fn constant_ord_ties_fall_to_insertion_order() {
        // A single-queue model may key every event alike: same-instant
        // events then pop first in, first out, and children scheduled at
        // the instant follow every event already due there.
        struct Fifo(u32);
        impl Keyed for Fifo {
            fn ord(&self) -> u128 {
                0
            }
        }
        let mut q = ShardQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..50 {
            q.schedule(t, Fifo(i));
        }
        let mut order = Vec::new();
        while let Some((_, Fifo(i))) = q.pop_min() {
            if i < 10 {
                q.schedule(t, Fifo(100 + i));
            }
            order.push(i);
        }
        let want: Vec<u32> = (0..50).chain(100..110).collect();
        assert_eq!(order, want);
    }

    #[test]
    fn same_instant_children_sort_after_parent() {
        let mut q = ShardQueue::new();
        let t = SimTime::from_secs(1);
        q.schedule(t, 5u64);
        let (k_parent, _) = q.pop_min().unwrap();
        assert_eq!(k_parent.depth, 0);
        // Child scheduled at the same instant with a *smaller* ord still
        // sorts after the parent (depth + 1)...
        let _ = q.schedule(t, 1u64);
        // ...and before an unrelated later event.
        q.schedule(SimTime::from_secs(2), 0u64);
        let (k_child, e) = q.pop_min().unwrap();
        assert_eq!(e, 1);
        assert_eq!(k_child.depth, 1);
        assert!(k_child > k_parent);
    }

    #[test]
    fn cancellation_skips_events() {
        let mut q = ShardQueue::new();
        let id = q.schedule(SimTime::from_secs(1), 1u64);
        q.schedule(SimTime::from_secs(2), 2u64);
        assert_eq!(q.live_len(), 2);
        assert!(q.cancel(id));
        assert!(!q.cancel(id), "double cancel is false");
        assert_eq!(q.live_len(), 1, "cancelled entries are not live");
        assert_eq!(q.pop_min().map(|(_, e)| e), Some(2));
        assert!(q.is_empty());
        assert_eq!(q.live_len(), 0);
    }

    #[test]
    fn pop_due_respects_exclusive_bound() {
        let mut q = ShardQueue::new();
        q.schedule(SimTime::from_secs(5), 5u64);
        assert!(q.pop_due(SimTime::from_secs(5)).is_none(), "bound excl");
        assert!(q.pop_due(SimTime::from_nanos(5_000_000_001)).is_some());
        assert_eq!(q.now(), SimTime::from_secs(5));
    }

    #[test]
    fn message_insertion_keys_at_depth_zero() {
        let mut q = ShardQueue::new();
        q.schedule(SimTime::from_secs(1), 4u64);
        q.pop_min();
        q.insert_msg(SimTime::from_secs(2), 9u64);
        let (k, _) = q.pop_min().unwrap();
        assert_eq!(k.depth, 0);
        assert_eq!(k.ord, 9);
    }

    #[test]
    #[should_panic(expected = "arrived with shard clock")]
    fn stale_message_panics() {
        let mut q = ShardQueue::new();
        q.schedule(SimTime::from_secs(3), 1u64);
        q.pop_min();
        q.insert_msg(SimTime::from_secs(3), 2u64);
    }

    #[test]
    fn key_total_order() {
        let k = |t, d, o| EvKey {
            time: SimTime::from_nanos(t),
            depth: d,
            ord: o,
        };
        assert!(k(1, 9, 9) < k(2, 0, 0), "time dominates");
        assert!(k(1, 0, 9) < k(1, 1, 0), "depth next");
        assert!(k(1, 1, 3) < k(1, 1, 4), "ord last");
        assert_eq!(EvKey::MIN, k(0, 0, 0));
    }

    #[test]
    fn pack_ord_layout() {
        let o = pack_ord(2, 7, 11);
        assert_eq!(o >> 96, 2);
        assert_eq!((o >> 64) & 0xffff_ffff, 7);
        assert_eq!(o & u64::MAX as u128, 11);
        assert!(pack_ord(1, u32::MAX, u64::MAX) < pack_ord(2, 0, 0));
    }

    #[test]
    fn reads_take_shared_refs() {
        // Compile-time shape check: peek_key/is_empty work through &q.
        let mut q = ShardQueue::new();
        q.schedule(SimTime::from_secs(1), 1u64);
        let r: &ShardQueue<u64> = &q;
        assert!(!r.is_empty());
        assert_eq!(r.peek_key().map(|k| k.ord), Some(1));
    }

    #[test]
    fn overflow_entries_survive_the_wheel_horizon() {
        let mut q = ShardQueue::new();
        // Far beyond the wheel span (~16.8 ms): must round-trip through
        // overflow and re-anchoring without losing order.
        q.schedule(SimTime::from_secs(100), 3u64);
        q.schedule(SimTime::from_millis(1), 1u64);
        q.schedule(SimTime::from_secs(50), 2u64);
        let order: Vec<u64> = std::iter::from_fn(|| q.pop_min().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
        assert!(q.is_empty());
    }

    #[test]
    fn overflow_entry_is_not_stranded_by_a_sliding_horizon() {
        let mut q = ShardQueue::new();
        // 20 ms starts past the wheel horizon (bucket ~1220 ≥ 1024), so it
        // waits in overflow while 10 ms (bucket ~610) goes on the wheel.
        q.schedule(SimTime::from_millis(20), 2u64);
        q.schedule(SimTime::from_millis(10), 1u64);
        let (k, e) = q.pop_min().unwrap();
        assert_eq!((e, k.time), (1, SimTime::from_millis(10)));
        // The pop slid the horizon forward: 25 ms now fits on the wheel,
        // but the 20 ms overflow entry still has to fire first.
        q.schedule(SimTime::from_millis(25), 3u64);
        let order: Vec<u64> = std::iter::from_fn(|| q.pop_min().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![2, 3]);
    }

    #[test]
    fn cancel_across_regions() {
        let mut q = ShardQueue::new();
        let near = q.schedule(SimTime::from_micros(10), 1u64);
        let mid = q.schedule(SimTime::from_millis(5), 2u64);
        let far = q.schedule(SimTime::from_secs(10), 3u64);
        assert!(q.cancel(mid));
        assert!(q.cancel(far));
        assert!(q.cancel(near));
        assert!(q.is_empty());
        assert!(q.pop_min().is_none());
        // Slots recycle: new events after heavy cancellation still work.
        q.schedule(SimTime::from_secs(20), 4u64);
        assert_eq!(q.pop_min().map(|(_, e)| e), Some(4));
    }

    #[test]
    fn entries_hold_no_event() {
        // key (32 B) + seq + slot + gen: what the wheel, the `due` sort,
        // `young` and `overflow` move, whatever the event's size.
        assert_eq!(std::mem::size_of::<Entry>(), 48);
    }

    #[test]
    fn cancelled_events_are_dropped_at_once() {
        let (near, far) = (Rc::new(()), Rc::new(()));
        let mut q = ShardQueue::new();
        q.schedule(SimTime::from_millis(1), Rc::clone(&near));
        // Past the wheel horizon: the entry waits in `overflow`, which is
        // compacted only when the wheel drains.
        let id = q.schedule(SimTime::from_secs(10), Rc::clone(&far));
        assert!(q.cancel(id));
        assert_eq!(Rc::strong_count(&far), 1, "cancel drops the event");

        // A popped event leaves with the caller.
        let (_, held) = q.pop_min().expect("the 1 ms event is due");
        assert_eq!(Rc::strong_count(&near), 2);
        drop(held);
        assert_eq!(Rc::strong_count(&near), 1);

        // Dropping the queue drops every event still pending, wherever
        // its entry sits: `young`, the wheel and `overflow`.
        let now = q.now();
        q.schedule(now, Rc::clone(&near));
        q.schedule(SimTime::from_millis(5), Rc::clone(&near));
        q.schedule(SimTime::from_secs(20), Rc::clone(&far));
        assert_eq!((Rc::strong_count(&near), Rc::strong_count(&far)), (3, 2));
        drop(q);
        assert_eq!((Rc::strong_count(&near), Rc::strong_count(&far)), (1, 1));
    }

    #[test]
    fn slot_reuse_does_not_resurrect_cancelled_entries() {
        let mut q = ShardQueue::new();
        let a = q.schedule(SimTime::from_secs(1), 1u64);
        assert!(q.cancel(a));
        // The recycled slot's new entry must not be killable via the old id.
        let _b = q.schedule(SimTime::from_secs(2), 2u64);
        assert!(!q.cancel(a), "stale id must not cancel the reused slot");
        assert_eq!(q.pop_min().map(|(_, e)| e), Some(2));
    }
}
