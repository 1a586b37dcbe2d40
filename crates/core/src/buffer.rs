//! Per-next-hop packet buffering.
//!
//! Section 3: "Data messages for different receivers are buffered
//! separately, so messages for the same next hop can be combined and sent
//! to that next hop." The capacity is shared across next hops (the paper's
//! single "buffer size" of 5000 × 32 B), with drop-tail on overflow.

use crate::msg::AppPacket;
use bcp_net::addr::NodeId;
use bcp_sim::persist::{Dec, DecodeError, Enc, Persist};
use std::collections::VecDeque;

/// Shared-capacity, per-next-hop FIFO buffers.
///
/// # Examples
///
/// ```
/// use bcp_core::buffer::NextHopBuffers;
/// use bcp_core::msg::AppPacket;
/// use bcp_net::addr::NodeId;
/// use bcp_sim::time::SimTime;
///
/// let mut b = NextHopBuffers::new(1024);
/// let pkt = AppPacket::new(NodeId(1), NodeId(0), 0, SimTime::ZERO, 32);
/// assert!(b.push(NodeId(9), pkt));
/// assert_eq!(b.bytes_for(NodeId(9)), 32);
/// let burst = b.take_up_to(NodeId(9), 64);
/// assert_eq!(burst.len(), 1);
/// assert_eq!(b.total_bytes(), 0);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NextHopBuffers {
    cap_bytes: usize,
    total_bytes: usize,
    // Deterministic iteration order (insertion order of next hops).
    queues: Vec<(NodeId, VecDeque<AppPacket>, usize)>,
    stats: BufferStats,
}

/// Buffer behaviour counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufferStats {
    /// Packets accepted.
    pub enqueued: u64,
    /// Packets rejected because the shared capacity was exhausted.
    pub overflow_drops: u64,
    /// Packets handed out for bursting.
    pub drained: u64,
}

bcp_sim::persist!(struct BufferStats { enqueued, overflow_drops, drained });

/// The queues in first-use order (which decides future round-robin
/// choices), then the stats. The byte tallies are recomputed on load,
/// and contents over the configured capacity are refused.
impl Persist for NextHopBuffers {
    fn save(&self, e: &mut Enc) {
        e.len(self.queues.len());
        for (hop, q, _) in &self.queues {
            hop.save(e);
            q.save(e);
        }
        self.stats.save(e);
    }
    fn load(&mut self, d: &mut Dec<'_>) -> Result<(), DecodeError> {
        let n = d.len()?;
        self.queues.clear();
        self.total_bytes = 0;
        for _ in 0..n {
            let (hop, q): (NodeId, VecDeque<AppPacket>) = d.read()?;
            let bytes = q.iter().try_fold(0usize, |sum, p| sum.checked_add(p.bytes));
            match bytes.and_then(|b| Some((b, self.total_bytes.checked_add(b)?))) {
                Some((b, total)) if total <= self.cap_bytes => {
                    self.total_bytes = total;
                    self.queues.push((hop, q, b));
                }
                _ => {
                    return Err(DecodeError::new(format!(
                        "buffered packets exceed the {} B buffer capacity",
                        self.cap_bytes
                    )))
                }
            }
        }
        self.stats.load(d)
    }
}

impl NextHopBuffers {
    /// Creates buffers with a shared byte capacity.
    ///
    /// # Panics
    ///
    /// Panics if `cap_bytes == 0`.
    pub fn new(cap_bytes: usize) -> Self {
        assert!(cap_bytes > 0, "buffer capacity must be positive");
        NextHopBuffers {
            cap_bytes,
            total_bytes: 0,
            queues: Vec::new(),
            stats: BufferStats::default(),
        }
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.cap_bytes
    }

    /// Bytes currently buffered across all next hops.
    pub fn total_bytes(&self) -> usize {
        self.total_bytes
    }

    /// Remaining capacity in bytes.
    pub fn free_bytes(&self) -> usize {
        self.cap_bytes - self.total_bytes
    }

    /// Behaviour counters.
    pub fn stats(&self) -> BufferStats {
        self.stats
    }

    /// Bytes buffered for one next hop.
    pub fn bytes_for(&self, next_hop: NodeId) -> usize {
        self.queues
            .iter()
            .find(|(n, ..)| *n == next_hop)
            .map(|(_, _, bytes)| *bytes)
            .unwrap_or(0)
    }

    /// Packets buffered for one next hop.
    pub fn packets_for(&self, next_hop: NodeId) -> usize {
        self.queues
            .iter()
            .find(|(n, ..)| *n == next_hop)
            .map(|(_, q, _)| q.len())
            .unwrap_or(0)
    }

    /// The first next hop, in first-use order, with at least one
    /// buffered packet and at least `min_bytes` buffered bytes.
    pub fn first_hop_holding(&self, min_bytes: usize) -> Option<NodeId> {
        self.queues
            .iter()
            .find(|(_, q, bytes)| !q.is_empty() && *bytes >= min_bytes)
            .map(|(n, ..)| *n)
    }

    /// Buffers `pkt` for `next_hop`. Returns `false` (and counts an
    /// overflow drop) when the shared capacity cannot hold it.
    pub fn push(&mut self, next_hop: NodeId, pkt: AppPacket) -> bool {
        if self.total_bytes + pkt.bytes > self.cap_bytes {
            self.stats.overflow_drops += 1;
            return false;
        }
        self.total_bytes += pkt.bytes;
        self.stats.enqueued += 1;
        match self.queues.iter_mut().find(|(n, ..)| *n == next_hop) {
            Some((_, q, bytes)) => {
                q.push_back(pkt);
                *bytes += pkt.bytes;
            }
            None => {
                let mut q = VecDeque::new();
                q.push_back(pkt);
                self.queues.push((next_hop, q, pkt.bytes));
            }
        }
        true
    }

    /// Removes and returns the FIFO prefix of `next_hop`'s queue whose total
    /// size fits in `limit_bytes` (whole packets only; at least one packet
    /// is returned if the queue is non-empty and its head fits).
    pub fn take_up_to(&mut self, next_hop: NodeId, limit_bytes: usize) -> Vec<AppPacket> {
        let Some((_, q, bytes)) = self.queues.iter_mut().find(|(n, ..)| *n == next_hop) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        let mut taken = 0usize;
        while let Some(head) = q.front() {
            if taken + head.bytes > limit_bytes {
                break;
            }
            let pkt = q.pop_front().expect("front observed");
            taken += pkt.bytes;
            out.push(pkt);
        }
        *bytes -= taken;
        self.total_bytes -= taken;
        self.stats.drained += out.len() as u64;
        out
    }

    /// Removes and returns the FIFO prefix of `next_hop`'s queue whose
    /// packets were created at or before `cutoff` (the delay-bound
    /// fallback's "aged" packets).
    pub fn take_older_than(
        &mut self,
        next_hop: NodeId,
        cutoff: bcp_sim::time::SimTime,
    ) -> Vec<AppPacket> {
        let Some((_, q, bytes)) = self.queues.iter_mut().find(|(n, ..)| *n == next_hop) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        let mut taken = 0usize;
        while let Some(head) = q.front() {
            if head.created > cutoff {
                break;
            }
            let pkt = q.pop_front().expect("front observed");
            taken += pkt.bytes;
            out.push(pkt);
        }
        *bytes -= taken;
        self.total_bytes -= taken;
        self.stats.drained += out.len() as u64;
        out
    }

    /// Conservation invariant: enqueued = drained + resident + dropped never
    /// counts twice. (Used by property tests; cheap enough to assert in
    /// debug runs.)
    pub fn check_conservation(&self) {
        let resident: u64 = self.queues.iter().map(|(_, q, _)| q.len() as u64).sum();
        assert_eq!(
            self.stats.enqueued,
            self.stats.drained + resident,
            "packet conservation violated"
        );
        let byte_sum: usize = self.queues.iter().map(|(_, _, b)| *b).sum();
        assert_eq!(byte_sum, self.total_bytes, "byte accounting violated");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcp_sim::time::SimTime;

    fn pkt(origin: u32, seq: u64) -> AppPacket {
        AppPacket::new(NodeId(origin), NodeId(0), seq, SimTime::ZERO, 32)
    }

    /// Contents over the capacity of the buffer loaded into are refused;
    /// within it they load with their byte tallies recomputed.
    #[test]
    fn load_refuses_contents_over_capacity() {
        let mut big = NextHopBuffers::new(1024);
        for seq in 0..3 {
            assert!(big.push(NodeId(9), pkt(1, seq)));
        }
        let mut e = Enc::new();
        big.save(&mut e);
        let bytes = e.into_bytes();
        assert!(NextHopBuffers::new(64).load(&mut Dec::new(&bytes)).is_err());
        let mut back = NextHopBuffers::new(1024);
        back.load(&mut Dec::new(&bytes)).expect("fits");
        assert_eq!(back, big);
        back.check_conservation();
    }

    #[test]
    fn fifo_order_preserved() {
        let mut b = NextHopBuffers::new(10_000);
        for i in 0..5 {
            b.push(NodeId(1), pkt(7, i));
        }
        let burst = b.take_up_to(NodeId(1), 1_000);
        let seqs: Vec<u64> = burst.iter().map(|p| p.id.0 & 0xff).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn separate_queues_per_next_hop() {
        let mut b = NextHopBuffers::new(10_000);
        b.push(NodeId(1), pkt(7, 0));
        b.push(NodeId(2), pkt(7, 1));
        b.push(NodeId(1), pkt(7, 2));
        assert_eq!(b.bytes_for(NodeId(1)), 64);
        assert_eq!(b.bytes_for(NodeId(2)), 32);
        assert_eq!(b.packets_for(NodeId(1)), 2);
        // First-use order, filtered by the byte threshold.
        assert_eq!(b.first_hop_holding(1), Some(NodeId(1)));
        assert_eq!(b.first_hop_holding(64), Some(NodeId(1)));
        assert_eq!(b.first_hop_holding(65), None);
        b.take_up_to(NodeId(1), 64);
        assert_eq!(
            b.first_hop_holding(0),
            Some(NodeId(2)),
            "empty queues never hold"
        );
        b.check_conservation();
    }

    #[test]
    fn shared_capacity_overflow() {
        // Paper buffer: 5000 × 32 B. Use a tiny one: 3 packets.
        let mut b = NextHopBuffers::new(96);
        assert!(b.push(NodeId(1), pkt(7, 0)));
        assert!(b.push(NodeId(2), pkt(7, 1)));
        assert!(b.push(NodeId(1), pkt(7, 2)));
        assert!(!b.push(NodeId(3), pkt(7, 3)), "capacity exhausted");
        assert_eq!(b.stats().overflow_drops, 1);
        assert_eq!(b.free_bytes(), 0);
        b.check_conservation();
    }

    #[test]
    fn take_up_to_respects_limit_and_whole_packets() {
        let mut b = NextHopBuffers::new(10_000);
        for i in 0..10 {
            b.push(NodeId(1), pkt(7, i));
        }
        // 100 B limit at 32 B packets: exactly 3 packets.
        let burst = b.take_up_to(NodeId(1), 100);
        assert_eq!(burst.len(), 3);
        assert_eq!(b.packets_for(NodeId(1)), 7);
        assert_eq!(b.total_bytes(), 7 * 32);
        b.check_conservation();
    }

    #[test]
    fn take_from_empty_or_unknown_hop() {
        let mut b = NextHopBuffers::new(1_000);
        assert!(b.take_up_to(NodeId(9), 100).is_empty());
        b.push(NodeId(1), pkt(7, 0));
        b.take_up_to(NodeId(1), 100);
        assert!(b.take_up_to(NodeId(1), 100).is_empty());
        b.check_conservation();
    }

    #[test]
    fn zero_limit_takes_nothing() {
        let mut b = NextHopBuffers::new(1_000);
        b.push(NodeId(1), pkt(7, 0));
        assert!(b.take_up_to(NodeId(1), 0).is_empty());
        assert_eq!(b.total_bytes(), 32);
    }

    #[test]
    fn freed_capacity_is_reusable() {
        let mut b = NextHopBuffers::new(64);
        b.push(NodeId(1), pkt(7, 0));
        b.push(NodeId(1), pkt(7, 1));
        assert!(!b.push(NodeId(1), pkt(7, 2)));
        b.take_up_to(NodeId(1), 32);
        assert!(b.push(NodeId(1), pkt(7, 3)), "freed space accepts again");
        b.check_conservation();
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = NextHopBuffers::new(0);
    }
}
