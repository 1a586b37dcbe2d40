//! Types shared by both MAC state machines.
//!
//! The MACs are *sans-IO*: they receive [`MacEvent`]s (from the upper layer,
//! the PHY and timers) and emit [`MacAction`]s (transmissions, timer
//! arm/cancel requests, deliveries and outcomes). The binder — the network
//! simulator or the testbed harness — owns all actual IO and time.

use bcp_sim::time::SimDuration;
use core::fmt;

/// Link-layer address. MACs are deliberately ignorant of platform node ids;
/// the stack maps between them (see `bcp-net`'s `AddrMap`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MacAddr(pub u64);

bcp_sim::persist!(struct MacAddr { 0 });

impl MacAddr {
    /// The broadcast address.
    pub const BROADCAST: MacAddr = MacAddr(u64::MAX);

    /// `true` for the broadcast address.
    pub fn is_broadcast(self) -> bool {
        self == Self::BROADCAST
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_broadcast() {
            write!(f, "ff:ff")
        } else {
            write!(f, "{:x}", self.0)
        }
    }
}

/// Identifies one enqueued frame across its retransmissions, for matching
/// [`MacAction::TxOutcome`] back to the submitter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FrameId(pub u64);

bcp_sim::persist!(struct FrameId { 0 });

/// What a frame carries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum FrameKind {
    /// Upper-layer payload.
    #[default]
    Data,
    /// Link-layer acknowledgment.
    Ack,
}

bcp_sim::persist!(enum FrameKind = [FrameKind::Data, FrameKind::Ack]);

/// A link-layer frame. Payloads are modelled by size and an opaque upper
/// layer `tag`; no bytes are materialised (the simulator never inspects
/// content, only timing and size).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MacFrame {
    /// Submission id (stable across retransmissions).
    pub id: FrameId,
    /// Transmitter link address.
    pub src: MacAddr,
    /// Receiver link address (or broadcast).
    pub dst: MacAddr,
    /// Payload size in bytes (excluding MAC header/preamble).
    pub payload_bytes: usize,
    /// Data or link ACK.
    pub kind: FrameKind,
    /// Per-(src,dst) sequence number for duplicate suppression.
    pub seq: u16,
    /// Opaque upper-layer cookie carried through delivery.
    pub tag: u64,
}

bcp_sim::persist!(struct MacFrame { id, src, dst, payload_bytes, kind, seq, tag });

/// MAC timers. At most one timer per kind is armed at any moment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum MacTimer {
    /// Inter-frame space before a fresh access attempt (DIFS in 802.11).
    #[default]
    Difs,
    /// Backoff slot countdown completion.
    Backoff,
    /// Waiting for a link ACK.
    AckTimeout,
    /// SIFS gap before transmitting an ACK.
    SifsAck,
}

bcp_sim::persist!(enum MacTimer = [
    MacTimer::Difs, MacTimer::Backoff, MacTimer::AckTimeout, MacTimer::SifsAck
]);

/// Input to the MAC state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MacEvent {
    /// The upper layer submits a data frame.
    Enqueue(MacFrame),
    /// The carrier changed state (`true` = some foreign transmission is
    /// audible). Idempotent: repeats of the same state are ignored.
    Carrier(bool),
    /// The PHY finished receiving this intact frame addressed per its `dst`.
    RxFrame(MacFrame),
    /// The PHY finished our transmission.
    TxFinished,
    /// A previously armed timer fired.
    Timer(MacTimer),
}

/// Output of the MAC state machine, to be executed by the binder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MacAction {
    /// Begin transmitting on the PHY immediately.
    StartTx(MacFrame),
    /// Arm (or re-arm) the timer of this kind.
    SetTimer {
        /// Which timer to arm.
        kind: MacTimer,
        /// Delay from now.
        delay: SimDuration,
    },
    /// Disarm the timer of this kind if armed.
    CancelTimer {
        /// Which timer to cancel.
        kind: MacTimer,
    },
    /// Hand a received data frame to the upper layer.
    Deliver(MacFrame),
    /// Final verdict on a submitted frame.
    TxOutcome {
        /// The submission this reports on.
        id: FrameId,
        /// `true` if (believed) delivered: ACKed, or sent when ACKs are off.
        ok: bool,
        /// Number of transmissions performed (≥ 1 unless queue-dropped).
        attempts: u32,
        /// The upper-layer cookie of the frame.
        tag: u64,
    },
}

/// Counters the MAC keeps about its own behaviour (exported to metrics).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MacStats {
    /// Data frames accepted from the upper layer.
    pub enqueued: u64,
    /// Data frames dropped on submission because the queue was full.
    pub queue_drops: u64,
    /// Data transmissions started (including retransmissions).
    pub data_tx: u64,
    /// ACK transmissions started.
    pub ack_tx: u64,
    /// Frames delivered up.
    pub delivered: u64,
    /// Duplicate data frames suppressed (retransmission after lost ACK).
    pub duplicates: u64,
    /// Frames that exhausted their retry budget.
    pub tx_failures: u64,
    /// Frames confirmed (or assumed) delivered.
    pub tx_successes: u64,
}

bcp_sim::persist!(struct MacStats {
    enqueued, queue_drops, data_tx, ack_tx, delivered, duplicates, tx_failures, tx_successes
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn broadcast_address() {
        assert!(MacAddr::BROADCAST.is_broadcast());
        assert!(!MacAddr(7).is_broadcast());
        assert_eq!(MacAddr::BROADCAST.to_string(), "ff:ff");
        assert_eq!(MacAddr(0x2a).to_string(), "2a");
    }

    #[test]
    fn frame_is_copy_and_comparable() {
        let f = MacFrame {
            id: FrameId(1),
            src: MacAddr(1),
            dst: MacAddr(2),
            payload_bytes: 32,
            kind: FrameKind::Data,
            seq: 0,
            tag: 99,
        };
        let g = f;
        assert_eq!(f, g);
    }
}
