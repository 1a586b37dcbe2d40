//! The shared medium, one instance per radio class.
//!
//! "The two radios are assumed to be operating in non-overlapping
//! channels", so the two class instances never interact. Under the
//! default unit-disk profile a reception is corrupted when a second
//! audible transmission overlaps it at the receiver (collision) or when
//! the link-loss process says so; under `phys = logn:…` the overlap rule
//! becomes an SINR decision (see [`crate::shard`]) and this module also
//! tracks the received power of every audible frame per receiver.
//!
//! The medium is split along the shard partition:
//!
//! * [`NeighborIndex`] — the immutable adjacency, precomputed once and
//!   shared read-only by every shard. Each node's neighbour list is
//!   stored pre-bucketed by owning shard, so a transmission dispatches
//!   one reception event per *shard* (not per neighbour) and the handler
//!   iterates its bucket in place — no per-transmission allocation.
//! * [`Channel`] — the mutable per-receiver state (carrier counts,
//!   reception locks, audible powers, loss state and RNG streams). Every
//!   entry belongs to exactly one node, so each shard owns its nodes'
//!   slots and no state is shared between shards.
//!
//! The loss *model* is configuration and is stored once, shared by every
//! node; what diverges per node is the [`LossState`] (the Gilbert–Elliott
//! good/bad flag) and the RNG stream. Loss randomness is drawn from a
//! *per-node* stream seeded at build time: the draw sequence at a node
//! depends only on the frames that node hears, which the deterministic
//! event order fixes — so loss outcomes are identical for every shard
//! count.

use crate::events::TxId;
use bcp_net::addr::NodeId;
use bcp_net::loss::{LossModel, LossState};
use bcp_net::partition::Partition;
use bcp_net::propagation::{dbm_to_mw, PathLoss, ShadowMap, CAPTURE_THRESHOLD_DB};
use bcp_net::topo::Topology;
use bcp_sim::persist::{Dec, DecodeError, Enc, Persist};
use bcp_sim::rng::Rng;

/// One radio class's received-power state under `phys = logn:…` (absent
/// under the disk profile). Immutable after build; shared read-only by
/// every shard behind an `Arc`.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassPhys {
    /// Log-distance path loss, calibrated against the class's budget.
    pub path_loss: PathLoss,
    /// Per-link shadowing offsets, dB.
    pub shadow: ShadowMap,
    /// Transmit power at the antenna, dBm.
    pub tx_dbm: f64,
    /// Receive sensitivity, as power (mW).
    pub sens_mw: f64,
    /// Noise floor, as power (mW). Audibility gate: a frame arriving
    /// below this neither decodes nor interferes.
    pub noise_mw: f64,
}

impl ClassPhys {
    /// Received power of the `s → r` link, mW. Symmetric (the shadowing
    /// is per unordered pair).
    pub fn rx_mw(&self, topo: &Topology, s: NodeId, r: NodeId) -> f64 {
        let d = topo.distance(s, r);
        dbm_to_mw(self.tx_dbm - self.path_loss.loss_db(d) + self.shadow.offset(s, r))
    }

    /// The SINR decode rule: a frame at `signal_mw` decodes against
    /// `interference_mw` of co-channel power when it clears the receive
    /// sensitivity *and* exceeds noise-plus-interference by
    /// [`CAPTURE_THRESHOLD_DB`]. Every profile's budget keeps an SNR
    /// margin above the capture threshold at sensitivity, so with no
    /// interference this reduces to the sensitivity test alone — which is
    /// how `logn` with zero sigma reproduces the disk decodable set.
    pub fn decodes(&self, signal_mw: f64, interference_mw: f64) -> bool {
        signal_mw >= self.sens_mw
            && signal_mw >= dbm_to_mw(CAPTURE_THRESHOLD_DB) * (self.noise_mw + interference_mw)
    }
}

/// Immutable per-class adjacency, bucketed by the owning shard of each
/// neighbour. Shared (behind an `Arc`) by all shards.
#[derive(Debug, Clone)]
pub struct NeighborIndex {
    /// `buckets[node][shard]` = neighbours of `node` owned by `shard`,
    /// ascending by id.
    buckets: Vec<Vec<Vec<NodeId>>>,
}

impl NeighborIndex {
    /// Builds the index for `topo` at `range_m` under `part`. Under a
    /// received-power profile `range_m` is the *audibility* radius (the
    /// distance at which even a maximally shadow-boosted frame fades
    /// below the noise floor), not the decode range.
    pub fn new(topo: &Topology, range_m: f64, part: &Partition) -> Self {
        let k = part.k();
        let buckets = topo
            .nodes()
            .map(|n| {
                let mut by_shard = vec![Vec::new(); k];
                for m in topo.neighbors_within(n, range_m) {
                    by_shard[part.shard_of(m)].push(m);
                }
                by_shard
            })
            .collect();
        NeighborIndex { buckets }
    }

    /// The neighbours of `node` owned by `shard`, ascending.
    pub fn of(&self, node: NodeId, shard: usize) -> &[NodeId] {
        &self.buckets[node.index()][shard]
    }

    /// Shards that own at least one neighbour of `node`.
    pub fn shards_hearing(&self, node: NodeId) -> impl Iterator<Item = usize> + '_ {
        self.buckets[node.index()]
            .iter()
            .enumerate()
            .filter(|(_, b)| !b.is_empty())
            .map(|(s, _)| s)
    }

    /// Total neighbour count of `node` across all shards.
    pub fn degree(&self, node: NodeId) -> usize {
        self.buckets[node.index()].iter().map(Vec::len).sum()
    }
}

/// One shard's slice of a radio class's medium: per-receiver carrier
/// counts, reception locks, audible powers and loss state. Indexed by
/// global node id; a shard only ever touches the slots of nodes it owns.
#[derive(Debug, Clone)]
pub struct Channel {
    /// Number of audible foreign transmissions per node.
    carrier: Vec<u32>,
    /// The frame a node's radio is locked onto, with a corruption flag.
    rx_current: Vec<Option<(TxId, bool)>>,
    /// The loss process — configuration, shared by every node.
    loss: LossModel,
    /// Per-node loss state (the part that actually diverges per node).
    loss_state: Vec<LossState>,
    /// Per-node loss randomness (streams are node-local so outcomes do
    /// not depend on the global interleaving of other nodes' frames).
    rng: Vec<Rng>,
    /// Received power (mW) of each audible frame, per receiver. Only
    /// maintained under a received-power profile; empty under disk.
    audible: Vec<Vec<(TxId, f64)>>,
    /// Collisions observed (a locked frame got overlapped), for metrics.
    collisions: u64,
}

impl Channel {
    /// Builds the medium state for `n` nodes sharing the `loss` process,
    /// with each node's RNG stream seeded from `seeds` (one seed per
    /// node, drawn deterministically at build time).
    pub fn new(n: usize, loss: &LossModel, seeds: &[u64]) -> Self {
        assert_eq!(seeds.len(), n, "one loss seed per node");
        Channel {
            carrier: vec![0; n],
            rx_current: vec![None; n],
            loss: loss.clone(),
            loss_state: vec![LossState::default(); n],
            rng: seeds.iter().map(|&s| Rng::new(s)).collect(),
            audible: vec![Vec::new(); n],
            collisions: 0,
        }
    }

    /// `true` when at least one foreign transmission is audible at `node`.
    pub fn carrier_busy(&self, node: NodeId) -> bool {
        self.carrier[node.index()] > 0
    }

    /// Number of foreign transmissions currently audible at `node`.
    pub fn carrier_count(&self, node: NodeId) -> u32 {
        self.carrier[node.index()]
    }

    /// Registers that a transmission became audible at `node`. Returns
    /// `true` when this changed the carrier from idle to busy.
    pub fn carrier_up(&mut self, node: NodeId) -> bool {
        self.carrier[node.index()] += 1;
        self.carrier[node.index()] == 1
    }

    /// Registers that a transmission stopped being audible at `node`.
    /// Returns `true` when this cleared the carrier to idle.
    ///
    /// # Panics
    ///
    /// Panics if the carrier count would go negative (accounting bug).
    pub fn carrier_down(&mut self, node: NodeId) -> bool {
        let c = &mut self.carrier[node.index()];
        assert!(*c > 0, "carrier underflow at {node}");
        *c -= 1;
        *c == 0
    }

    /// Records an audible frame's received power at `node` (mW). Only
    /// called under a received-power profile, paired with `carrier_up`.
    pub fn audible_add(&mut self, node: NodeId, tx: TxId, mw: f64) {
        self.audible[node.index()].push((tx, mw));
    }

    /// Removes an audible frame at `node`. Returns `true` if it was
    /// present — `false` means the frame never reached audibility there
    /// and the caller must not touch the carrier count either.
    pub fn audible_remove(&mut self, node: NodeId, tx: TxId) -> bool {
        let list = &mut self.audible[node.index()];
        match list.iter().position(|&(t, _)| t == tx) {
            Some(i) => {
                list.remove(i);
                true
            }
            None => false,
        }
    }

    /// Received power (mW) of an audible frame at `node`, if present.
    pub fn audible_power(&self, node: NodeId, tx: TxId) -> Option<f64> {
        self.audible[node.index()]
            .iter()
            .find(|&&(t, _)| t == tx)
            .map(|&(_, mw)| mw)
    }

    /// Sum of audible powers at `node` excluding `except` (mW): the
    /// co-channel interference a frame must be decoded against.
    pub fn interference_mw(&self, node: NodeId, except: TxId) -> f64 {
        self.audible[node.index()]
            .iter()
            .filter(|&&(t, _)| t != except)
            .map(|&(_, mw)| mw)
            .sum()
    }

    /// Locks `node`'s receiver onto frame `tx` (it was idle and the frame
    /// started cleanly).
    pub fn lock_rx(&mut self, node: NodeId, tx: TxId) {
        debug_assert!(self.rx_current[node.index()].is_none());
        self.rx_current[node.index()] = Some((tx, false));
    }

    /// Marks the frame `node` is locked onto as collided (if any);
    /// returns `true` if a lock was poisoned.
    pub fn poison_rx(&mut self, node: NodeId) -> bool {
        if let Some((_, corrupted)) = &mut self.rx_current[node.index()] {
            if !*corrupted {
                *corrupted = true;
                self.collisions += 1;
            }
            true
        } else {
            false
        }
    }

    /// The frame `node` is locked onto, if any.
    pub fn locked_rx(&self, node: NodeId) -> Option<(TxId, bool)> {
        self.rx_current[node.index()]
    }

    /// Releases `node`'s lock on `tx` (at that frame's end). Returns the
    /// corruption flag, or `None` if the node was not locked onto `tx`.
    pub fn unlock_rx(&mut self, node: NodeId, tx: TxId) -> Option<bool> {
        match self.rx_current[node.index()] {
            Some((locked, corrupted)) if locked == tx => {
                self.rx_current[node.index()] = None;
                Some(corrupted)
            }
            _ => None,
        }
    }

    /// Evaluates the loss process for a frame that survived collisions at
    /// `node`, advancing that node's own state and stream.
    pub fn channel_loss(&mut self, node: NodeId) -> bool {
        let i = node.index();
        self.loss.is_lost(&mut self.loss_state[i], &mut self.rng[i])
    }

    /// Total collisions observed at this shard's receivers.
    pub fn collisions(&self) -> u64 {
        self.collisions
    }

    // ------------------------------------------------------------------
    // Exact checkpointing
    // ------------------------------------------------------------------

    /// One node's slice of the medium state, for exact checkpointing.
    pub(crate) fn slot(&self, node: NodeId) -> ChannelSlot {
        let i = node.index();
        ChannelSlot {
            carrier: self.carrier[i],
            rx_current: self.rx_current[i],
            loss: self.loss_state[i],
            rng: self.rng[i].clone(),
            audible: self.audible[i].clone(),
        }
    }

    /// Overwrites one node's slice of the medium state — the restore path
    /// of a checkpoint.
    pub(crate) fn set_slot(&mut self, node: NodeId, slot: ChannelSlot) {
        let i = node.index();
        self.carrier[i] = slot.carrier;
        self.rx_current[i] = slot.rx_current;
        self.loss_state[i] = slot.loss;
        self.rng[i] = slot.rng;
        self.audible[i] = slot.audible;
    }

    /// Overwrites the collision counter (restore path; the counter is a
    /// whole-run cumulative total, so the capture stores it once and the
    /// restore places it on one shard).
    pub fn restore_collisions(&mut self, collisions: u64) {
        self.collisions = collisions;
    }
}

/// One node's slice of one radio class's [`Channel`]: carrier count,
/// reception lock, loss-process state, the node-local loss RNG stream
/// and the audible powers. The channel keeps these as parallel per-node
/// arrays, so a checkpoint carries them in this container. The loss
/// *model* is configuration and lives in the scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelSlot {
    /// Audible foreign transmissions at the pause.
    pub carrier: u32,
    /// The frame the receiver is locked onto, with its corruption flag.
    pub rx_current: Option<(TxId, bool)>,
    /// The loss process's per-node runtime state.
    pub loss: LossState,
    /// The node's loss stream.
    pub rng: Rng,
    /// Audible transmissions with their received powers (mW), in
    /// arrival order. Empty under the disk model, which tracks only
    /// the carrier count.
    pub audible: Vec<(TxId, f64)>,
}

impl ChannelSlot {
    /// An idle slot; its stream is a placeholder for a load to overwrite.
    pub(crate) fn idle() -> Self {
        ChannelSlot {
            carrier: 0,
            rx_current: None,
            loss: LossState::default(),
            rng: Rng::new(1),
            audible: Vec::new(),
        }
    }
}

/// The fields in declaration order; a received power must be a finite,
/// non-negative number of milliwatts.
impl Persist for ChannelSlot {
    fn save(&self, e: &mut Enc) {
        (self.carrier, self.rx_current, self.loss).save(e);
        self.rng.save(e);
        self.audible.save(e);
    }
    fn load(&mut self, d: &mut Dec<'_>) -> Result<(), DecodeError> {
        (self.carrier, self.rx_current, self.loss) = d.read()?;
        self.rng.load(d)?;
        self.audible.load(d)?;
        match self
            .audible
            .iter()
            .find(|(_, mw)| !mw.is_finite() || *mw < 0.0)
        {
            Some((_, mw)) => Err(DecodeError::new(format!("invalid received power {mw} mW"))),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn channel() -> Channel {
        Channel::new(3, &LossModel::Perfect, &[1, 2, 3])
    }

    /// A slot round-trips through its codec, and a crafted one with an
    /// all-zero loss stream or a negative received power is refused.
    #[test]
    fn slot_load_refuses_a_dead_stream_and_a_bad_power() {
        let mut c = channel();
        let n = NodeId(1);
        c.audible_add(n, TxId(5), 0.25);
        let slot = c.slot(n);
        let mut e = Enc::new();
        slot.save(&mut e);
        let bytes = e.into_bytes();
        let mut back = ChannelSlot::idle();
        back.load(&mut Dec::new(&bytes))
            .expect("a saved slot loads");
        assert_eq!(back, slot);

        let stream = |rng: [u64; 4], mw: f64| {
            let mut e = Enc::new();
            (0u32, None::<(TxId, bool)>, LossState::default()).save(&mut e);
            for w in rng {
                e.u64(w);
            }
            vec![(TxId(5), mw)].save(&mut e);
            e.into_bytes()
        };
        let mut s = ChannelSlot::idle();
        s.load(&mut Dec::new(&stream([0, 0, 3, 0], 0.5)))
            .expect("a live stream");
        assert!(s.load(&mut Dec::new(&stream([0; 4], 0.5))).is_err());
        assert!(s.load(&mut Dec::new(&stream([1; 4], -1.0))).is_err());
    }

    #[test]
    fn carrier_transitions() {
        let mut c = channel();
        let n = NodeId(1);
        assert!(!c.carrier_busy(n));
        assert!(c.carrier_up(n), "0 -> 1 reports busy edge");
        assert!(!c.carrier_up(n), "1 -> 2 is not an edge");
        assert!(!c.carrier_down(n));
        assert!(c.carrier_down(n), "1 -> 0 reports idle edge");
    }

    #[test]
    #[should_panic(expected = "carrier underflow")]
    fn carrier_underflow_panics() {
        channel().carrier_down(NodeId(0));
    }

    #[test]
    fn rx_lock_poison_unlock() {
        let mut c = channel();
        let n = NodeId(1);
        let tx = TxId::new(NodeId(0), 7);
        c.lock_rx(n, tx);
        assert_eq!(c.locked_rx(n), Some((tx, false)));
        assert!(c.poison_rx(n));
        assert_eq!(c.unlock_rx(n, tx), Some(true), "corrupted");
        assert_eq!(c.unlock_rx(n, tx), None, "already unlocked");
        assert_eq!(c.collisions(), 1);
    }

    #[test]
    fn unlock_wrong_tx_is_none() {
        let mut c = channel();
        let (a, b) = (TxId::new(NodeId(0), 7), TxId::new(NodeId(0), 8));
        c.lock_rx(NodeId(1), a);
        assert_eq!(c.unlock_rx(NodeId(1), b), None);
        assert_eq!(c.locked_rx(NodeId(1)), Some((a, false)));
    }

    #[test]
    fn poison_without_lock_is_false() {
        let mut c = channel();
        assert!(!c.poison_rx(NodeId(0)));
        assert_eq!(c.collisions(), 0);
    }

    #[test]
    fn audible_powers_track_and_sum() {
        let mut c = channel();
        let n = NodeId(2);
        let (a, b) = (TxId::new(NodeId(0), 1), TxId::new(NodeId(1), 1));
        c.audible_add(n, a, 4.0);
        c.audible_add(n, b, 0.5);
        assert_eq!(c.audible_power(n, a), Some(4.0));
        assert_eq!(c.interference_mw(n, a), 0.5);
        assert_eq!(c.interference_mw(n, b), 4.0);
        assert!(c.audible_remove(n, a));
        assert!(!c.audible_remove(n, a), "already removed");
        assert_eq!(c.interference_mw(n, b), 0.0);
        assert_eq!(c.slot(n).audible, [(b, 0.5)]);
    }

    #[test]
    fn neighbor_index_buckets_by_shard() {
        let topo = Topology::line(4, 40.0);
        let part = Partition::strips(&topo, 2);
        let idx = NeighborIndex::new(&topo, 40.0, &part);
        // Node 1 hears 0 (shard 0) and 2 (shard 1).
        assert_eq!(idx.of(NodeId(1), 0), &[NodeId(0)]);
        assert_eq!(idx.of(NodeId(1), 1), &[NodeId(2)]);
        assert_eq!(idx.degree(NodeId(1)), 2);
        assert_eq!(idx.shards_hearing(NodeId(1)).collect::<Vec<_>>(), [0, 1]);
        // Node 0 only hears node 1, on its own shard.
        assert_eq!(idx.shards_hearing(NodeId(0)).collect::<Vec<_>>(), [0]);
    }

    #[test]
    fn single_partition_index_matches_plain_neighbors() {
        let topo = Topology::grid(4, 40.0);
        let part = Partition::single(topo.len());
        let idx = NeighborIndex::new(&topo, 40.0, &part);
        for n in topo.nodes() {
            assert_eq!(idx.of(n, 0), topo.neighbors_within(n, 40.0).as_slice());
        }
    }

    #[test]
    fn loss_streams_are_node_local() {
        let mut c = Channel::new(2, &LossModel::bernoulli(0.5), &[11, 22]);
        let a: Vec<bool> = (0..16).map(|_| c.channel_loss(NodeId(0))).collect();
        // Node 1's draws are unaffected by how often node 0 drew.
        let b: Vec<bool> = (0..16).map(|_| c.channel_loss(NodeId(1))).collect();
        let mut fresh = Channel::new(2, &LossModel::bernoulli(0.5), &[11, 22]);
        let b2: Vec<bool> = (0..16).map(|_| fresh.channel_loss(NodeId(1))).collect();
        assert_eq!(b, b2, "node 1 stream independent of node 0 activity");
        assert_ne!(a, b, "distinct seeds, distinct streams");
    }
}
