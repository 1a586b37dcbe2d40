//! Engine-equivalence properties: the engine's two performance-bearing
//! data structures checked against executable specifications.
//!
//! * The bucketed calendar-wheel `ShardQueue` must behave exactly like
//!   the reference it replaced — a binary heap with a cancelled-id set —
//!   under randomized schedule/cancel/pop-due interleavings.
//! * Conservative windows must be a pure engine tuning: a death-bearing
//!   LPL broadcast replays bit-identically across shard and worker-thread
//!   counts.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

use bcp::net::addr::NodeId;
use bcp::power::{Battery, PowerConfig};
use bcp::sim::keyed::{CancelId, EvKey, Keyed, ShardQueue};
use bcp::sim::rng::Rng;
use bcp::sim::time::{SimDuration, SimTime};
use bcp::simnet::{
    EngineStats, ModelKind, RunStats, Scenario, ScenarioBuilder, SleepSchedule, TrafficPattern,
};

// ── the queue against its executable spec ───────────────────────────────

/// The event payload; the value doubles as the pop-stream fingerprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Val(u64);

impl Keyed for Val {
    /// Deliberately collapsed to a few values so same-`(time, depth)`
    /// collisions happen and the insertion-order tie-break is exercised.
    fn ord(&self) -> u128 {
        (self.0 % 4) as u128
    }
}

/// The reference model: a min-heap of `(key, seq, value)` plus a
/// cancelled-seq set — the exact structure the calendar wheel replaced.
/// Dead entries are skimmed lazily at peek time, like tombstones were.
#[derive(Default)]
struct ModelQueue {
    heap: BinaryHeap<Reverse<(EvKey, u64, u64)>>,
    alive: HashSet<u64>,
    dead: HashSet<u64>,
    now: SimTime,
    depth: u32,
    next_seq: u64,
}

impl ModelQueue {
    fn push(&mut self, key: EvKey, v: Val) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.alive.insert(seq);
        self.heap.push(Reverse((key, seq, v.0)));
        seq
    }

    fn schedule(&mut self, time: SimTime, v: Val) -> u64 {
        assert!(time >= self.now);
        let depth = if time == self.now { self.depth + 1 } else { 0 };
        let key = EvKey {
            time,
            depth,
            ord: v.ord(),
        };
        self.push(key, v)
    }

    fn insert_msg(&mut self, time: SimTime, v: Val) {
        assert!(time > self.now);
        let key = EvKey {
            time,
            depth: 0,
            ord: v.ord(),
        };
        self.push(key, v);
    }

    fn cancel(&mut self, seq: u64) -> bool {
        if self.alive.remove(&seq) {
            self.dead.insert(seq);
            true
        } else {
            false
        }
    }

    fn peek_key(&mut self) -> Option<EvKey> {
        loop {
            let &Reverse((key, seq, _)) = self.heap.peek()?;
            if self.dead.remove(&seq) {
                self.heap.pop();
            } else {
                return Some(key);
            }
        }
    }

    fn pop_due(&mut self, end_excl: SimTime) -> Option<(EvKey, Val)> {
        if self.peek_key()?.time >= end_excl {
            return None;
        }
        let Reverse((key, seq, v)) = self.heap.pop().expect("peeked entry pops");
        self.alive.remove(&seq);
        self.now = key.time;
        self.depth = key.depth;
        Some((key, Val(v)))
    }

    fn is_empty(&mut self) -> bool {
        self.peek_key().is_none()
    }
}

/// Drives the bucketed queue and the reference model with the same
/// randomized workload and asserts they never disagree: cancel verdicts,
/// peeks, emptiness and the complete pop stream, key and payload alike.
///
/// The delay mix is chosen to land events in every region of the wheel:
/// same-instant children (causal-depth path), the current bucket, the
/// wheel's 1024-bucket span (~16.8 ms) and far past the overflow horizon
/// — with enough cancels to leave dead entries in each.
#[test]
fn bucketed_queue_matches_the_reference_heap_model() {
    for case in 0..512u64 {
        let mut rng = Rng::new(0xC0FFEE ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut q: ShardQueue<Val> = ShardQueue::new();
        let mut m = ModelQueue::default();
        let mut handles: Vec<(CancelId, u64)> = Vec::new();
        let mut next_val = 0u64;
        for _ in 0..48 {
            match rng.range_u64(0, 10) {
                0..=4 => {
                    let delay = match rng.range_u64(0, 4) {
                        0 => 0,                                  // same instant
                        1 => rng.range_u64(0, 1 << 14),          // current bucket
                        2 => rng.range_u64(0, (1 << 14) * 1024), // wheel span
                        _ => rng.range_u64(0, 200_000_000),      // overflow too
                    };
                    let t = SimTime::from_nanos(q.now().as_nanos() + delay);
                    let v = Val(next_val);
                    next_val += 1;
                    let id = q.schedule(t, v);
                    let seq = m.schedule(t, v);
                    handles.push((id, seq));
                }
                5 => {
                    let delay = 1 + rng.range_u64(0, 40_000_000);
                    let t = SimTime::from_nanos(q.now().as_nanos() + delay);
                    let v = Val(next_val);
                    next_val += 1;
                    q.insert_msg(t, v);
                    m.insert_msg(t, v);
                }
                6 | 7 => {
                    // Cancel a random handle — possibly one that already
                    // fired, so the `false` verdict is covered too.
                    if handles.is_empty() {
                        continue;
                    }
                    let i = rng.range_u64(0, handles.len() as u64) as usize;
                    let (id, seq) = handles.swap_remove(i);
                    assert_eq!(q.cancel(id), m.cancel(seq), "case {case}: cancel verdicts");
                }
                _ => {
                    // Drain a window, exactly like the conservative engine.
                    let horizon = rng.range_u64(0, 60_000_000);
                    let end = SimTime::from_nanos(q.now().as_nanos().saturating_add(horizon));
                    loop {
                        let got = q.pop_due(end);
                        assert_eq!(got, m.pop_due(end), "case {case}: pop streams");
                        if got.is_none() {
                            break;
                        }
                    }
                }
            }
            assert_eq!(q.peek_key(), m.peek_key(), "case {case}: peeks");
            assert_eq!(q.is_empty(), m.is_empty(), "case {case}: emptiness");
        }
        // Final drain: every remaining event, in identical order.
        loop {
            let got = q.pop_min();
            assert_eq!(got, m.pop_due(SimTime::MAX), "case {case}: drain");
            if got.is_none() {
                break;
            }
        }
        assert!(q.is_empty(), "case {case}: queue drained");
    }
}

// ── lookahead windows on a full run ─────────────────────────────────────

/// A sink-to-all flood over duty-cycled low radios with a battery-starved
/// relay dying mid-run: LPL preamble stretching, tree repair after the
/// death and broadcast fan-out all in one scenario — the workload mix
/// most sensitive to window-boundary placement.
fn lpl_broadcast_death(shards: usize) -> Scenario {
    ScenarioBuilder::new()
        .model(ModelKind::Sensor)
        .traffic(TrafficPattern::Broadcast { source: NodeId(14) })
        .burst_packets(50)
        .rate_bps(500.0)
        .duration(SimDuration::from_secs(120))
        .low_sleep(SleepSchedule::lpl(
            SimDuration::from_millis(100),
            SimDuration::from_millis(10),
        ))
        .power(PowerConfig::unlimited().with_node_battery(20, Battery::ideal_joules(1.2)))
        .seed(17)
        .shards(shards)
        .build()
        .expect("LPL broadcast death scenario is valid")
}

/// Zeroes the wall-clock-bearing engine block so two summaries can be
/// compared byte for byte (engine throughput is measured, not simulated).
fn without_engine(mut stats: RunStats) -> RunStats {
    stats.engine = EngineStats::default();
    stats
}

struct ThreadsEnvGuard(Option<String>);

impl ThreadsEnvGuard {
    fn capture() -> Self {
        ThreadsEnvGuard(std::env::var("BCP_THREADS").ok())
    }
}

impl Drop for ThreadsEnvGuard {
    fn drop(&mut self) {
        match &self.0 {
            Some(v) => std::env::set_var("BCP_THREADS", v),
            None => std::env::remove_var("BCP_THREADS"),
        }
    }
}

/// The shard count decides which events drain together inside one
/// lookahead window and which cross a strip boundary as messages; the
/// thread count decides who drains each window. Neither may move physics:
/// the same scenario must replay bit-identically at every shard and
/// worker-thread count.
#[test]
fn lookahead_windows_are_bit_identical_across_shards_and_threads() {
    // Environment mutation is process-global; every BCP_THREADS case in
    // this binary therefore lives in this one test, and the guard puts
    // the original value back afterwards.
    let _guard = ThreadsEnvGuard::capture();
    let run = |shards: usize| lpl_broadcast_death(shards).run();
    let reference = run(1);
    assert_eq!(
        reference.metrics.node_deaths, 1,
        "the starved relay dies mid-run"
    );
    assert!(
        reference.metrics.delivered_packets > 100,
        "the flood flows: {} delivered",
        reference.metrics.delivered_packets
    );
    assert!(
        reference.energy_low_sleep_j > 0.0,
        "the low radios really dozed"
    );
    let want = without_engine(reference).to_json();
    for threads in ["1", "4"] {
        std::env::set_var("BCP_THREADS", threads);
        for shards in [1, 2, 4] {
            assert_eq!(
                want,
                without_engine(run(shards)).to_json(),
                "shards={shards} threads={threads}: physics changed"
            );
        }
    }
}
