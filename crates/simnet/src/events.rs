//! The event vocabulary of the sharded network simulator.
//!
//! Two kinds of event exist:
//!
//! * [`Ev`] — **shard-local** events. Each one concerns exactly one
//!   shard's nodes; the reception events ([`Ev::RxBegin`], [`Ev::RxEnd`])
//!   are the only way one node's transmission reaches another node, and
//!   they always fire one *link turnaround latency* after the sender's
//!   action — the latency floor that doubles as the conservative
//!   engine's lookahead.
//! * [`GlobalEv`] — rare whole-world events (route repair after a death,
//!   periodic route refresh) executed by the coordinator with exclusive
//!   access to every shard.
//!
//! Every event carries a content-derived [`Keyed::ord`] so that
//! simultaneous events replay in the same order for any shard count.

use bcp_core::msg::{AppPacket, BurstId, HandshakeMsg};
use bcp_mac::types::{MacFrame, MacTimer};
use bcp_net::addr::NodeId;
use bcp_sim::keyed::{pack_ord, Keyed};
use bcp_sim::persist::{Dec, DecodeError, Enc, Persist};
use bcp_sim::time::SimTime;
use std::sync::Arc;

/// Which of a node's two radios an event concerns.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Class {
    /// The low-power sensor radio.
    #[default]
    Low,
    /// The high-power 802.11 radio.
    High,
}

impl Class {
    /// Dense index for per-class arrays.
    pub fn index(self) -> usize {
        match self {
            Class::Low => 0,
            Class::High => 1,
        }
    }
}

bcp_sim::persist!(enum Class = [Class::Low, Class::High]);

/// Folds a node id with a node-local sequence number into one u64 (node
/// in the high 24 bits, sequence in the low 40) — the id scheme of every
/// shard-count-independent identity in the simulator (transmission ids,
/// payload tags; packet and burst ids in `bcp-core` use the same split).
pub fn node_scoped_id(node: NodeId, seq: u64) -> u64 {
    ((node.0 as u64) << 40) | (seq & 0xff_ffff_ffff)
}

/// Identity of one transmission on the air: the sender's id folded with a
/// per-sender counter, so ids are unique *and* independent of how the
/// world is sharded (a global counter would not be).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TxId(pub u64);

/// The sender folded into the id must be a node of the world loaded.
impl Persist for TxId {
    fn save(&self, e: &mut Enc) {
        self.0.save(e);
    }
    fn load(&mut self, d: &mut Dec<'_>) -> Result<(), DecodeError> {
        self.0.load(d)?;
        d.check_id(self.sender().0 as u64)
    }
}

impl TxId {
    /// Builds the id of `sender`'s `seq`-th transmission.
    pub fn new(sender: NodeId, seq: u64) -> Self {
        TxId(node_scoped_id(sender, seq))
    }

    /// The transmitting node.
    pub fn sender(self) -> NodeId {
        NodeId((self.0 >> 40) as u32)
    }
}

/// What a MAC frame carries, resolved through its opaque tag. Travels
/// inside [`Ev::RxEnd`] to whichever shard needs to decode it.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// One application packet relayed hop-by-hop (sensor / 802.11 models).
    SensorData(AppPacket),
    /// A BCP handshake message routed over the low radio.
    Control {
        /// The message.
        msg: HandshakeMsg,
        /// Final destination of the (possibly multi-hop) control message.
        dst: NodeId,
    },
    /// A BCP burst frame over the high radio.
    Burst {
        /// The burst this frame belongs to.
        burst: BurstId,
        /// Frame index within the burst.
        index: u32,
        /// Total frames in the burst.
        count: u32,
        /// The packets packed into this frame, shared so the per-shard
        /// `RxEnd` fan-out of a broadcast clones a pointer, not the burst.
        packets: Arc<Vec<AppPacket>>,
    },
}

/// The placeholder a [`Persist::load`] overwrites.
impl Default for Payload {
    fn default() -> Self {
        Payload::SensorData(AppPacket::default())
    }
}

bcp_sim::persist!(enum Payload {
    0 => SensorData(pkt), 1 => Control { msg, dst }, 2 => Burst { burst, index, count, packets }
});

/// Shard-local simulator events.
#[derive(Debug, Clone, PartialEq)]
pub enum Ev {
    /// A sender's application produced (or is due to produce) a packet.
    AppArrival {
        /// The producing node.
        node: NodeId,
    },
    /// A MAC timer fired.
    MacTimer {
        /// The node whose MAC armed it.
        node: NodeId,
        /// Which radio's MAC.
        class: Class,
        /// Which of the MAC's timers.
        kind: MacTimer,
    },
    /// A transmission's airtime elapsed (fires at the sender).
    TxEnd {
        /// The transmission that ended.
        tx: TxId,
    },
    /// A transmission became audible at this shard's in-range nodes, one
    /// link latency after the sender keyed up. The handler walks the
    /// shard's slice of the sender's neighbour list.
    RxBegin {
        /// The transmission.
        tx: TxId,
        /// The transmitting node.
        sender: NodeId,
        /// The radio class.
        class: Class,
        /// What kind of frame keyed up. LPL receivers may lock on
        /// mid-air only during a *data* frame's wake-up preamble; ACKs
        /// are never stretched, so joining one mid-air is always garbage.
        kind: bcp_mac::types::FrameKind,
    },
    /// A transmission stopped at this shard's in-range nodes, one link
    /// latency after the sender's airtime ended. Carries everything a
    /// receiver needs to decode: the frame, whether the sender's battery
    /// died mid-air, and the payload when someone here may consume it.
    RxEnd {
        /// The transmission.
        tx: TxId,
        /// The transmitting node.
        sender: NodeId,
        /// The radio class.
        class: Class,
        /// The frame on the air.
        frame: MacFrame,
        /// The sender died mid-air: every receiver hears garbage.
        sender_died: bool,
        /// The decoded payload, when a node of this shard may need it.
        payload: Option<Payload>,
    },
    /// A high radio finished powering up.
    RadioWakeDone {
        /// The node whose radio woke.
        node: NodeId,
    },
    /// BCP sender's wake-up-ack timeout.
    BcpAckTimer {
        /// The handshake initiator.
        node: NodeId,
        /// The handshake.
        burst: BurstId,
    },
    /// BCP receiver's data timeout.
    BcpDataTimer {
        /// The receiving node.
        node: NodeId,
        /// The handshake.
        burst: BurstId,
    },
    /// Idle-guard: consider powering the high radio down.
    HighIdleOff {
        /// The node to check.
        node: NodeId,
    },
    /// Traffic cutoff reached: flush this node's BCP buffers.
    Flush {
        /// The node to flush.
        node: NodeId,
    },
    /// Projected battery-depletion instant: re-sync the node's supply and
    /// kill the node if it is indeed dry.
    PowerCheck {
        /// The node whose supply is due.
        node: NodeId,
    },
    /// LPL channel sample: the low radio wakes (if dozing), sniffs the
    /// carrier, and re-arms the next sample one wake interval out. Sleep
    /// timers are strictly node-local — they never cross a shard boundary
    /// and therefore never constrain the conservative lookahead.
    WakeSample {
        /// The duty-cycled node.
        node: NodeId,
    },
    /// End of an LPL channel sample (or of a busy period): the low radio
    /// dozes again if it is idle and the MAC owes nothing.
    Sleep {
        /// The duty-cycled node.
        node: NodeId,
    },
}

/// The placeholder a [`Persist::load`] overwrites.
impl Default for Ev {
    fn default() -> Self {
        Ev::AppArrival { node: NodeId(0) }
    }
}

bcp_sim::persist!(enum Ev {
    0 => AppArrival { node },
    1 => MacTimer { node, class, kind },
    2 => TxEnd { tx },
    3 => RxBegin { tx, sender, class, kind },
    4 => RxEnd { tx, sender, class, frame, sender_died, payload },
    5 => RadioWakeDone { node },
    6 => BcpAckTimer { node, burst },
    7 => BcpDataTimer { node, burst },
    8 => HighIdleOff { node },
    9 => Flush { node },
    10 => PowerCheck { node },
    11 => WakeSample { node },
    12 => Sleep { node },
});

fn timer_rank(kind: MacTimer) -> u64 {
    match kind {
        MacTimer::Difs => 0,
        MacTimer::Backoff => 1,
        MacTimer::AckTimeout => 2,
        MacTimer::SifsAck => 3,
    }
}

impl Ev {
    /// The identity of a cancellable timer: its own [`Keyed::ord`], which
    /// packs the node with the class/kind/burst that tells its timers
    /// apart. A shard files each pending timer under this identity, one
    /// at a time, so arming it again cancels the earlier one. `None` for
    /// every event that is not a timer.
    pub(crate) fn timer(&self) -> Option<u128> {
        match self {
            Ev::MacTimer { .. }
            | Ev::BcpAckTimer { .. }
            | Ev::BcpDataTimer { .. }
            | Ev::HighIdleOff { .. }
            | Ev::PowerCheck { .. }
            | Ev::WakeSample { .. } => Some(self.ord()),
            _ => None,
        }
    }
}

/// The node a timer identity ([`Ev::timer`]) belongs to: the entity field
/// of [`pack_ord`].
pub(crate) fn timer_node(timer: u128) -> NodeId {
    NodeId((timer >> 64) as u32)
}

impl Keyed for Ev {
    // Inlined everywhere: where the variant is known (a handler's arm, an
    // inlined `ShardState::arm`) the match folds to one `pack_ord`.
    #[inline(always)]
    fn ord(&self) -> u128 {
        match *self {
            Ev::AppArrival { node } => pack_ord(1, node.0, 0),
            Ev::MacTimer { node, class, kind } => {
                pack_ord(2, node.0, ((class.index() as u64) << 8) | timer_rank(kind))
            }
            Ev::TxEnd { tx } => pack_ord(3, tx.sender().0, tx.0),
            // The per-shard halves of one broadcast share a key on
            // purpose: they touch disjoint receivers and commute.
            Ev::RxBegin { tx, .. } => pack_ord(4, tx.sender().0, tx.0),
            Ev::RxEnd { tx, .. } => pack_ord(5, tx.sender().0, tx.0),
            Ev::RadioWakeDone { node } => pack_ord(6, node.0, 0),
            Ev::BcpAckTimer { node, burst } => pack_ord(7, node.0, burst.0),
            Ev::BcpDataTimer { node, burst } => pack_ord(8, node.0, burst.0),
            Ev::HighIdleOff { node } => pack_ord(9, node.0, 0),
            Ev::Flush { node } => pack_ord(10, node.0, 0),
            Ev::PowerCheck { node } => pack_ord(11, node.0, 0),
            Ev::WakeSample { node } => pack_ord(12, node.0, 0),
            Ev::Sleep { node } => pack_ord(13, node.0, 0),
        }
    }
}

/// Whole-world events, executed serially by the coordinator.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum GlobalEv {
    /// A node's battery emptied at `at`: survivors repair routes around
    /// the corpse. Delivered one link latency after the death so the
    /// repair never lands inside a conservative window.
    NodeDied {
        /// The dead node.
        node: NodeId,
        /// The instant the battery emptied (the death the metrics record).
        at: SimTime,
    },
    /// Periodic residual-energy route refresh (energy-aware routing).
    #[default]
    RouteRefresh,
}

bcp_sim::persist!(enum GlobalEv { 0 => NodeDied { node, at }, 1 => RouteRefresh });

impl Keyed for GlobalEv {
    fn ord(&self) -> u128 {
        match *self {
            GlobalEv::NodeDied { node, .. } => pack_ord(100, node.0, 0),
            GlobalEv::RouteRefresh => pack_ord(101, 0, 0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tx_ids_fold_sender_and_sequence() {
        let a = TxId::new(NodeId(7), 0);
        let b = TxId::new(NodeId(7), 1);
        let c = TxId::new(NodeId(8), 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(b.sender(), NodeId(7));
        assert_eq!(c.sender(), NodeId(8));
    }

    #[test]
    fn ords_separate_event_kinds_and_entities() {
        let arrival = Ev::AppArrival { node: NodeId(3) };
        let timer = Ev::MacTimer {
            node: NodeId(3),
            class: Class::Low,
            kind: MacTimer::Difs,
        };
        let timer_hi = Ev::MacTimer {
            node: NodeId(3),
            class: Class::High,
            kind: MacTimer::Difs,
        };
        assert_ne!(arrival.ord(), timer.ord());
        assert_ne!(timer.ord(), timer_hi.ord());
        assert_ne!(
            Ev::PowerCheck { node: NodeId(1) }.ord(),
            Ev::PowerCheck { node: NodeId(2) }.ord()
        );
        // The LPL timers are distinct from each other and from PowerCheck.
        let wake = Ev::WakeSample { node: NodeId(1) };
        let sleep = Ev::Sleep { node: NodeId(1) };
        assert_ne!(wake.ord(), sleep.ord());
        assert_ne!(wake.ord(), Ev::PowerCheck { node: NodeId(1) }.ord());
        assert_ne!(
            Ev::Sleep { node: NodeId(1) }.ord(),
            Ev::Sleep { node: NodeId(2) }.ord()
        );
        // Timer identities: two bursts of one node's ack timer, and the
        // ack against the data timer of one burst, are distinct timers.
        let node = NodeId(9);
        let (b0, b1) = (BurstId::new(node, 0), BurstId::new(node, 1));
        let ack0 = Ev::BcpAckTimer { node, burst: b0 };
        let ack1 = Ev::BcpAckTimer { node, burst: b1 };
        let data0 = Ev::BcpDataTimer { node, burst: b0 };
        assert_ne!(ack0.timer(), ack1.timer());
        assert_ne!(ack0.timer(), data0.timer());
        // Every timer identity names its own node; other events have none.
        let timers = [
            ack0,
            ack1,
            data0,
            Ev::MacTimer {
                node,
                class: Class::High,
                kind: MacTimer::SifsAck,
            },
            Ev::HighIdleOff { node },
            Ev::PowerCheck { node },
            Ev::WakeSample { node },
        ];
        for ev in &timers {
            let id = ev.timer().expect("a timer has an identity");
            assert_eq!(id, ev.ord());
            assert_eq!(timer_node(id), node, "{ev:?}");
        }
        for ev in [
            Ev::AppArrival { node },
            Ev::RadioWakeDone { node },
            Ev::Flush { node },
            Ev::Sleep { node },
            Ev::TxEnd {
                tx: TxId::new(node, 3),
            },
        ] {
            assert_eq!(ev.timer(), None, "{ev:?}");
        }
    }

    #[test]
    fn rx_phases_of_one_tx_are_ordered() {
        let tx = TxId::new(NodeId(5), 9);
        let begin = Ev::RxBegin {
            tx,
            sender: NodeId(5),
            class: Class::Low,
            kind: bcp_mac::types::FrameKind::Data,
        };
        let end = Ev::RxEnd {
            tx,
            sender: NodeId(5),
            class: Class::Low,
            frame: bcp_mac::types::MacFrame {
                id: bcp_mac::types::FrameId(0),
                src: bcp_mac::types::MacAddr(1),
                dst: bcp_mac::types::MacAddr(2),
                payload_bytes: 8,
                kind: bcp_mac::types::FrameKind::Data,
                seq: 0,
                tag: 0,
            },
            sender_died: false,
            payload: None,
        };
        assert!(begin.ord() < end.ord());
    }

    #[test]
    fn globals_rank_after_nothing_by_time_only() {
        let died = GlobalEv::NodeDied {
            node: NodeId(1),
            at: SimTime::ZERO,
        };
        assert_ne!(died.ord(), GlobalEv::RouteRefresh.ord());
    }
}
