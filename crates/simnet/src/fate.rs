//! Per-copy packet fates, folded as they settle.
//!
//! Every generated copy ends the run in exactly one of four states:
//! delivered at its destination, shed by a MAC, shed by a BCP buffer, or
//! still buffered or in flight. Only the first three are *observed*; the
//! last is what is left over, `residual = generated − delivered − lost`,
//! so a copy costs nothing until something happens to it.
//!
//! Each shard keeps a [`FateBook`] holding only what can still change an
//! outcome:
//!
//! * a per-flow delivered-sequence bitmap, at the destination's shard.
//!   Packet ids are `origin << 40 | seq` and dense per
//!   `(origin, destination)` flow, so one bit per copy answers both the
//!   duplicate-delivery check and the broadcast dedup;
//! * a loss map of copies with a loss observation and no delivery seen
//!   on this shard. The first observation wins (a shard handles its
//!   events in key order, so that is the earliest), and a local delivery
//!   removes the entry.
//!
//! Across shards the books reconcile by the sequential run's rules:
//! delivery beats loss, and the earliest loss (by event key) beats later
//! ones. [`settled_losses`] is a function of the books' union alone, so
//! the verdicts — and the snapshot's canonical form — are identical for
//! every shard count and fold order.

use bcp_core::msg::AppPacket;
use bcp_sim::keyed::EvKey;
use std::collections::HashMap;

/// How a copy was lost. Deliveries are bits in the flow bitmaps, and a
/// copy nobody observed is still buffered or in flight.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum Fate {
    /// Shed by a MAC (retry exhaustion or queue overflow).
    #[default]
    LostMac,
    /// Shed by a BCP buffer overflow.
    LostBuffer,
}

/// A loss observation with the key of the event that made it, so the
/// per-shard observations merge into the same verdict the sequential run
/// reaches (earliest loss wins; delivery beats losses).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FateMark {
    /// The observed fate.
    pub fate: Fate,
    /// The key of the event that observed it.
    pub key: EvKey,
}

bcp_sim::persist!(enum Fate = [Fate::LostMac, Fate::LostBuffer]);
bcp_sim::persist!(struct FateMark { fate, key });

/// Identity of one *accountable copy* of an application packet: the
/// packet id plus the copy's final destination. Convergecast and gossip
/// packets have exactly one copy; a broadcast arrival fans out into one
/// copy per intended recipient (all sharing the packet id), so the
/// destination is part of the identity.
pub type FateKey = (u64, u32);

/// One `(origin, destination)` flow, as raw node ids.
pub type FlowKey = (u32, u32);

/// The fate key of one packet copy.
pub(crate) fn fate_key(pkt: &AppPacket) -> FateKey {
    (pkt.id.0, pkt.dest.0)
}

/// Splits a copy's identity into its flow and its sequence number.
fn flow_seq((id, dest): FateKey) -> (FlowKey, u64) {
    (((id >> 40) as u32, dest), id & 0xff_ffff_ffff)
}

/// Word index and bit mask of `seq` in a flow bitmap.
fn bit_of(seq: u64) -> (usize, u64) {
    ((seq / 64) as usize, 1 << (seq % 64))
}

/// What one shard saw happen to packet copies. See the module docs.
#[derive(Debug, Default)]
pub(crate) struct FateBook {
    /// Delivered-sequence bitmaps of the flows whose copies arrived at
    /// this shard; the last word of each is non-zero.
    delivered: HashMap<FlowKey, Vec<u64>>,
    /// Copies lost (first observation) and not delivered on this shard.
    lost: HashMap<FateKey, FateMark>,
}

impl FateBook {
    /// Records the delivery of `key`. `false` when the copy was already
    /// delivered here.
    pub(crate) fn deliver(&mut self, key: FateKey) -> bool {
        let (flow, seq) = flow_seq(key);
        let (w, bit) = bit_of(seq);
        let words = self.delivered.entry(flow).or_default();
        if words.len() <= w {
            words.resize(w + 1, 0);
        }
        if words[w] & bit != 0 {
            return false;
        }
        words[w] |= bit;
        // A lost ACK: the sender gave up on a frame that got through.
        if !self.lost.is_empty() {
            self.lost.remove(&key);
        }
        true
    }

    /// `true` when `key` was delivered on this shard.
    pub(crate) fn is_delivered(&self, key: FateKey) -> bool {
        let (flow, seq) = flow_seq(key);
        let (w, bit) = bit_of(seq);
        self.delivered
            .get(&flow)
            .and_then(|words| words.get(w))
            .is_some_and(|word| word & bit != 0)
    }

    /// Observes the loss of `key`. A delivery seen here beats it, and an
    /// earlier loss seen here wins over it.
    pub(crate) fn lose(&mut self, key: FateKey, mark: FateMark) {
        if !self.is_delivered(key) {
            self.lost.entry(key).or_insert(mark);
        }
    }

    /// Copies delivered on this shard.
    fn delivered_count(&self) -> u64 {
        self.delivered
            .values()
            .flatten()
            .map(|w| w.count_ones() as u64)
            .sum()
    }

    /// Installs a captured flow bitmap (the restore path).
    pub(crate) fn restore_flow(&mut self, flow: FlowKey, words: Vec<u64>) {
        self.delivered.insert(flow, words);
    }

    /// Installs a captured loss (the restore path).
    pub(crate) fn restore_loss(&mut self, key: FateKey, mark: FateMark) {
        self.lost.insert(key, mark);
    }
}

/// Every shard's delivered bitmaps, sorted by flow: the canonical form a
/// snapshot carries. Each flow's deliveries happen on one shard only.
pub(crate) fn delivered_flows(books: &[&FateBook]) -> Vec<(FlowKey, Vec<u64>)> {
    let mut flows: Vec<(FlowKey, Vec<u64>)> = books
        .iter()
        .flat_map(|b| b.delivered.iter().map(|(&f, w)| (f, w.clone())))
        .collect();
    flows.sort_unstable_by_key(|e| e.0);
    flows
}

/// The reconciled losses: every copy lost on some shard and delivered on
/// none, with its earliest loss, sorted by copy.
pub(crate) fn settled_losses(books: &[&FateBook]) -> Vec<(FateKey, FateMark)> {
    let mut lost: HashMap<FateKey, FateMark> = HashMap::new();
    for book in books {
        for (&key, &mark) in &book.lost {
            if books.iter().any(|b| b.is_delivered(key)) {
                continue;
            }
            lost.entry(key)
                .and_modify(|cur| {
                    if mark.key < cur.key {
                        *cur = mark;
                    }
                })
                .or_insert(mark);
        }
    }
    let mut out: Vec<(FateKey, FateMark)> = lost.into_iter().collect();
    out.sort_unstable_by_key(|e| e.0);
    out
}

/// The end-of-run verdict counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Settled {
    pub delivered: u64,
    pub drops_mac: u64,
    pub drops_buffer: u64,
    pub residual: u64,
}

/// Settles the books of a run that generated `generated` copies.
///
/// # Panics
///
/// Panics if more copies were delivered or lost than generated.
pub(crate) fn settle(books: &[&FateBook], generated: u64) -> Settled {
    let delivered = books.iter().map(|b| b.delivered_count()).sum();
    let (mut drops_mac, mut drops_buffer) = (0, 0);
    for (_, mark) in settled_losses(books) {
        match mark.fate {
            Fate::LostMac => drops_mac += 1,
            Fate::LostBuffer => drops_buffer += 1,
        }
    }
    let residual = generated
        .checked_sub(delivered)
        .and_then(|r| r.checked_sub(drops_mac))
        .and_then(|r| r.checked_sub(drops_buffer))
        .expect("more copies settled than generated");
    Settled {
        delivered,
        drops_mac,
        drops_buffer,
        residual,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcp_sim::rng::Rng;
    use bcp_sim::time::SimTime;

    /// The reference model: the whole-run fate map the fold replaced.
    /// Every generated copy enters as `Pending`; per shard, a delivery
    /// overwrites anything and the first loss replaces `Pending`.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    enum Verdict {
        Pending,
        Delivered,
        Lost(Fate),
    }

    #[derive(Debug, Clone, Copy, PartialEq)]
    struct RefMark {
        verdict: Verdict,
        key: EvKey,
    }

    /// The cross-shard merge rule of the reference: delivery beats loss,
    /// any observation beats `Pending`, the earliest loss by key wins.
    fn merge_mark(map: &mut HashMap<FateKey, RefMark>, id: FateKey, new: RefMark) {
        use std::collections::hash_map::Entry;
        use Verdict::{Delivered, Pending};
        match map.entry(id) {
            Entry::Vacant(e) => {
                e.insert(new);
            }
            Entry::Occupied(mut e) => {
                let cur = *e.get();
                let replace = match (cur.verdict, new.verdict) {
                    (Delivered, Delivered) => {
                        unreachable!("duplicate delivery of one copy across shards")
                    }
                    (Delivered, _) => false,
                    (_, Delivered) => true,
                    (Pending, _) => true,
                    (_, Pending) => false,
                    _ => new.key < cur.key,
                };
                if replace {
                    e.insert(new);
                }
            }
        }
    }

    /// One reference shard: the per-copy map the old shard kept.
    #[derive(Default)]
    struct RefShard(HashMap<FateKey, RefMark>);

    impl RefShard {
        fn generated(&mut self, id: FateKey, key: EvKey) {
            let mark = RefMark {
                verdict: Verdict::Pending,
                key,
            };
            assert!(self.0.insert(id, mark).is_none(), "packet id reuse");
        }

        fn delivered(&mut self, id: FateKey, key: EvKey) -> bool {
            if self
                .0
                .get(&id)
                .is_some_and(|m| m.verdict == Verdict::Delivered)
            {
                return false;
            }
            self.0.insert(
                id,
                RefMark {
                    verdict: Verdict::Delivered,
                    key,
                },
            );
            true
        }

        fn lost(&mut self, id: FateKey, fate: Fate, key: EvKey) {
            let mark = RefMark {
                verdict: Verdict::Lost(fate),
                key,
            };
            match self.0.get_mut(&id) {
                Some(m) if m.verdict == Verdict::Pending => *m = mark,
                Some(_) => {}
                None => {
                    self.0.insert(id, mark);
                }
            }
        }
    }

    /// The reference verdict counts: merge every shard's map, count.
    fn reference_settle(shards: &[RefShard]) -> (Settled, Vec<(FateKey, FateMark)>) {
        let mut map = HashMap::new();
        for s in shards {
            for (&id, &m) in &s.0 {
                merge_mark(&mut map, id, m);
            }
        }
        let mut out = Settled {
            delivered: 0,
            drops_mac: 0,
            drops_buffer: 0,
            residual: 0,
        };
        let mut losses = Vec::new();
        for (&id, m) in &map {
            match m.verdict {
                Verdict::Pending => out.residual += 1,
                Verdict::Delivered => out.delivered += 1,
                Verdict::Lost(fate) => {
                    match fate {
                        Fate::LostMac => out.drops_mac += 1,
                        Fate::LostBuffer => out.drops_buffer += 1,
                    }
                    losses.push((id, FateMark { fate, key: m.key }));
                }
            }
        }
        losses.sort_unstable_by_key(|e| e.0);
        (out, losses)
    }

    fn key(t: u64) -> EvKey {
        EvKey {
            time: SimTime::from_nanos(t),
            depth: 0,
            ord: t as u128,
        }
    }

    #[test]
    fn fate_merge_is_permutation_invariant() {
        let mark = |verdict, t| RefMark {
            verdict,
            key: key(t),
        };
        use Verdict::{Delivered, Lost, Pending};
        // Three copies with conflicting observations spread over shards.
        let shard_a = vec![
            ((1, 0), mark(Pending, 1)),
            ((2, 0), mark(Lost(Fate::LostMac), 50)),
            ((3, 7), mark(Delivered, 80)),
        ];
        let shard_b = vec![
            ((1, 0), mark(Delivered, 90)),
            ((2, 0), mark(Lost(Fate::LostBuffer), 20)),
            ((3, 7), mark(Lost(Fate::LostMac), 10)),
        ];
        let shard_c = vec![
            ((2, 0), mark(Lost(Fate::LostMac), 35)),
            ((3, 7), mark(Pending, 2)),
        ];
        let shards = [shard_a, shard_b, shard_c];
        let fold = |order: &[usize]| {
            let mut map = HashMap::new();
            for &i in order {
                for &(id, m) in &shards[i] {
                    merge_mark(&mut map, id, m);
                }
            }
            let mut out: Vec<(FateKey, Verdict, EvKey)> = map
                .into_iter()
                .map(|(id, m)| (id, m.verdict, m.key))
                .collect();
            out.sort();
            out
        };
        let canonical = fold(&[0, 1, 2]);
        for order in [[0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]] {
            assert_eq!(fold(&order), canonical, "order {order:?}");
        }
        assert_eq!(canonical[0].1, Delivered, "delivery beats pending");
        assert_eq!(canonical[1].1, Lost(Fate::LostBuffer), "earliest loss wins");
        assert_eq!(canonical[2].1, Delivered, "delivery beats loss");
    }

    /// One observation in a random stream.
    #[derive(Debug, Clone, Copy)]
    enum Obs {
        Generate,
        Deliver,
        Lose(Fate),
    }

    /// One copy's observations, as `(time offset, shard, observation)`.
    type Script = Vec<(u64, usize, Obs)>;

    /// Which observation patterns a stream exercised (the test demands
    /// every one of them).
    #[derive(Debug, Default)]
    struct Coverage {
        lost_ack: u64,
        late_mac_loss: u64,
        relay_loss: u64,
        broadcast_dup: u64,
        shard_counts: [u64; 4],
    }

    /// Feeds one random stream to both the fold and the reference and
    /// checks they agree on every verdict.
    fn check_stream(rng: &mut Rng, cov: &mut Coverage) {
        let k = 1 + rng.index(4);
        cov.shard_counts[k - 1] += 1;
        let nodes = 2 + rng.index(10) as u32;
        let shard_of: Vec<usize> = (0..nodes).map(|_| rng.index(k)).collect();
        let mut scripts: Vec<(FateKey, Script)> = Vec::new();
        let mut seqs = vec![0u64; nodes as usize];
        for _ in 0..1 + rng.index(40) {
            let origin = rng.index(nodes as usize) as u32;
            let id = ((origin as u64) << 40) | seqs[origin as usize];
            seqs[origin as usize] += 1;
            // A broadcast packet fans out into one copy per recipient,
            // all sharing the id; convergecast/gossip has one copy.
            let dests: Vec<u32> = if rng.bernoulli(0.25) {
                (0..nodes)
                    .filter(|&d| d != origin && rng.bernoulli(0.7))
                    .collect()
            } else {
                vec![(origin + 1 + rng.index(nodes as usize - 1) as u32) % nodes]
            };
            let broadcast = dests.len() > 1;
            for dest in dests {
                let at = |n: u32| shard_of[n as usize];
                let relay = rng.index(nodes as usize) as u32;
                let loss = if rng.bernoulli(0.8) {
                    Fate::LostMac
                } else {
                    Fate::LostBuffer
                };
                let mut obs = vec![(0, at(origin), Obs::Generate)];
                match rng.index(7) {
                    // Delivered cleanly.
                    0 => obs.push((10, at(dest), Obs::Deliver)),
                    // Lost ACK: the sender gives up, the frame got through.
                    1 => {
                        obs.push((5, at(relay), Obs::Lose(Fate::LostMac)));
                        obs.push((10, at(dest), Obs::Deliver));
                        cov.lost_ack += 1;
                    }
                    // A late MAC loss after the delivery.
                    2 => {
                        obs.push((10, at(dest), Obs::Deliver));
                        obs.push((15, at(relay), Obs::Lose(Fate::LostMac)));
                        cov.late_mac_loss += 1;
                    }
                    // Lost at a relay, maybe lost again elsewhere later.
                    3 => {
                        obs.push((5, at(relay), Obs::Lose(loss)));
                        if rng.bernoulli(0.5) {
                            let other = rng.index(nodes as usize) as u32;
                            obs.push((8, at(other), Obs::Lose(Fate::LostMac)));
                        }
                        cov.relay_loss += 1;
                    }
                    // Lost at the origin (buffer overflow or unroutable).
                    4 => obs.push((5, at(origin), Obs::Lose(loss))),
                    // A broadcast copy arriving twice over re-parented
                    // paths, with a loss on one of them.
                    5 if broadcast => {
                        obs.push((10, at(dest), Obs::Deliver));
                        obs.push((12, at(relay), Obs::Lose(loss)));
                        obs.push((14, at(dest), Obs::Deliver));
                        cov.broadcast_dup += 1;
                    }
                    // Still buffered or in flight at the end.
                    _ => {}
                }
                scripts.push(((id, dest), obs));
            }
        }
        // Interleave the scripts on one timeline: each copy starts at a
        // random instant, and observations at one instant on one shard
        // share an event key, like a handler dropping several packets.
        let mut events: Vec<(EvKey, usize, FateKey, Obs)> = Vec::new();
        for (copy, obs) in &scripts {
            let start = rng.range_u64(0, 1_000) * 100;
            for &(off, shard, o) in obs {
                let t = start + off;
                events.push((key(t * 8 + shard as u64), shard, *copy, o));
            }
        }
        events.sort_by_key(|e| e.0);

        let mut books: Vec<FateBook> = (0..k).map(|_| FateBook::default()).collect();
        let mut refs: Vec<RefShard> = (0..k).map(|_| RefShard::default()).collect();
        let (mut generated, mut delivered) = (0u64, 0u64);
        for (ev, shard, copy, o) in events {
            match o {
                Obs::Generate => {
                    refs[shard].generated(copy, ev);
                    generated += 1;
                }
                Obs::Deliver => {
                    let by_ref = refs[shard].delivered(copy, ev);
                    let by_fold = books[shard].deliver(copy);
                    assert_eq!(by_ref, by_fold, "dedup of {copy:?}");
                    delivered += by_fold as u64;
                }
                Obs::Lose(fate) => {
                    refs[shard].lost(copy, fate, ev);
                    books[shard].lose(copy, FateMark { fate, key: ev });
                }
            }
        }
        let book_refs: Vec<&FateBook> = books.iter().collect();
        let folded = settle(&book_refs, generated);
        let (reference, ref_losses) = reference_settle(&refs);
        assert_eq!(folded, reference, "{k} shards, {} copies", scripts.len());
        assert_eq!(folded.delivered, delivered);
        assert_eq!(settled_losses(&book_refs), ref_losses, "canonical losses");
    }

    #[test]
    fn fold_matches_the_whole_run_fate_map() {
        let mut rng = Rng::new(0x5eed_fa7e);
        let mut cov = Coverage::default();
        for _ in 0..2_000 {
            check_stream(&mut rng, &mut cov);
        }
        assert!(cov.lost_ack > 0 && cov.late_mac_loss > 0, "{cov:?}");
        assert!(cov.relay_loss > 0 && cov.broadcast_dup > 0, "{cov:?}");
        assert!(cov.shard_counts.iter().all(|&c| c > 0), "{cov:?}");
    }

    #[test]
    fn bitmaps_answer_dedup_and_count() {
        let mut b = FateBook::default();
        let copy = |origin: u64, seq: u64, dest| ((origin << 40) | seq, dest);
        assert!(b.deliver(copy(3, 0, 0)));
        assert!(b.deliver(copy(3, 130, 0)));
        assert!(
            !b.deliver(copy(3, 130, 0)),
            "second delivery is a duplicate"
        );
        assert!(b.deliver(copy(3, 130, 9)), "another destination's copy");
        assert!(!b.is_delivered(copy(3, 1, 0)));
        assert_eq!(b.delivered_count(), 3);
        let flows = delivered_flows(&[&b]);
        assert_eq!(flows[0], ((3, 0), vec![1, 0, 1 << 2]));
        assert_eq!(flows[1], ((3, 9), vec![0, 0, 1 << 2]));
    }
}
