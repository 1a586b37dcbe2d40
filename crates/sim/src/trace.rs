//! A lightweight, typed event trace — the simulator's flight recorder.
//!
//! The paper's prototype computes energy and delay *from event logs*
//! ("All the events ... were logged in detail. At the end of the experiments,
//! these logs were used to calculate energy consumption and delay").
//! [`Trace`] is the equivalent facility here: models append timestamped
//! records, post-processing iterates over them.
//!
//! On top of the generic container this module defines the shared trace
//! vocabulary: [`TraceEvent`] (the packet/radio/power/route lifecycle),
//! [`TraceRecord`] (an event stamped with the [`EvKey`] of the simulation
//! event that produced it) and [`merge_traces`] (the deterministic
//! per-shard merge). Records serialise to NDJSON via
//! [`TraceRecord::to_ndjson`]; the schema is documented on that method.

use crate::keyed::EvKey;
use crate::time::SimTime;

/// An append-only timestamped log of `T` records.
///
/// # Examples
///
/// ```
/// use bcp_sim::trace::Trace;
/// use bcp_sim::time::SimTime;
///
/// let mut t = Trace::new();
/// t.record(SimTime::from_secs(1), "radio on");
/// t.record(SimTime::from_secs(2), "radio off");
/// assert_eq!(t.len(), 2);
/// assert_eq!(t.iter().next().unwrap().1, &"radio on");
/// ```
#[derive(Debug, Clone)]
pub struct Trace<T> {
    records: Vec<(SimTime, T)>,
}

impl<T> Default for Trace<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Trace<T> {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace {
            records: Vec::new(),
        }
    }

    /// Appends a record at time `t`.
    pub fn record(&mut self, t: SimTime, value: T) {
        self.records.push((t, value));
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Iterates over records in chronological order.
    pub fn iter(&self) -> impl Iterator<Item = (&SimTime, &T)> {
        self.records.iter().map(|(t, v)| (t, v))
    }
}

impl<'a, T> IntoIterator for &'a Trace<T> {
    type Item = &'a (SimTime, T);
    type IntoIter = std::slice::Iter<'a, (SimTime, T)>;
    fn into_iter(self) -> Self::IntoIter {
        self.records.iter()
    }
}

/// Which of the dual stack's radios an event concerns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceClass {
    /// The always-on (or duty-cycled) low-power sensor radio.
    Low,
    /// The wake-on-demand high-power radio.
    High,
}

impl TraceClass {
    /// Stable lowercase label used in NDJSON output.
    pub fn label(self) -> &'static str {
        match self {
            TraceClass::Low => "low",
            TraceClass::High => "high",
        }
    }
}

/// Why a packet left the system without being delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceDrop {
    /// The sender's buffer was full when the packet arrived.
    BufferOverflow,
    /// The MAC exhausted its retries (or the handshake gave up).
    MacFailure,
    /// No route existed toward the destination.
    Unroutable,
}

impl TraceDrop {
    /// Stable lowercase label used in NDJSON output.
    pub fn label(self) -> &'static str {
        match self {
            TraceDrop::BufferOverflow => "buffer_overflow",
            TraceDrop::MacFailure => "mac_failure",
            TraceDrop::Unroutable => "unroutable",
        }
    }
}

/// A radio power-state edge, as seen by the flight recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceRadioState {
    /// Powered down (zero draw).
    Off,
    /// Paying the wake-up transient.
    Waking,
    /// Powered and usable (idle/tx/rx are energy-ledger distinctions).
    Awake,
    /// LPL doze between wake samples.
    Dozing,
}

impl TraceRadioState {
    /// Stable lowercase label used in NDJSON output.
    pub fn label(self) -> &'static str {
        match self {
            TraceRadioState::Off => "off",
            TraceRadioState::Waking => "waking",
            TraceRadioState::Awake => "awake",
            TraceRadioState::Dozing => "dozing",
        }
    }
}

/// How a reception attempt ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceRx {
    /// The frame was for us and arrived intact.
    Delivered,
    /// The frame was intact but addressed elsewhere (overhearing cost).
    Overheard,
    /// A collision trampled the frame mid-air.
    Corrupted,
    /// The channel loss process ate the frame.
    Lost,
}

impl TraceRx {
    /// Stable lowercase label used in NDJSON output.
    pub fn label(self) -> &'static str {
        match self {
            TraceRx::Delivered => "delivered",
            TraceRx::Overheard => "overheard",
            TraceRx::Corrupted => "corrupted",
            TraceRx::Lost => "lost",
        }
    }
}

/// Coarse event families, used by `--trace-filter`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceCat {
    /// Packet lifecycle: enqueue → contend → tx → rx → deliver/drop.
    Pkt,
    /// Radio state transitions, LPL wake samples and lock-ons.
    Radio,
    /// Battery drain steps and node death.
    Power,
    /// Route/dissemination-tree repairs and refreshes.
    Route,
}

impl TraceCat {
    /// Stable lowercase label used in NDJSON output and CLI filters.
    pub fn label(self) -> &'static str {
        match self {
            TraceCat::Pkt => "pkt",
            TraceCat::Radio => "radio",
            TraceCat::Power => "power",
            TraceCat::Route => "route",
        }
    }

    /// Parses a CLI filter label back into a category.
    pub fn parse(s: &str) -> Option<TraceCat> {
        match s {
            "pkt" => Some(TraceCat::Pkt),
            "radio" => Some(TraceCat::Radio),
            "power" => Some(TraceCat::Power),
            "route" => Some(TraceCat::Route),
            _ => None,
        }
    }
}

/// One flight-recorder event. Node identities are raw `u32` ids so the
/// vocabulary is shared by every consumer (the sharded world, the two-node
/// testbed) without this crate depending on their address types.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// An application packet entered the system at its origin.
    PktEnqueue {
        /// Originating node.
        node: u32,
        /// Packet id (node-scoped, unique per run).
        pkt: u64,
        /// Payload bytes.
        bytes: u32,
    },
    /// The MAC accepted a frame and starts contending for the channel.
    MacContend {
        /// Contending node.
        node: u32,
        /// Radio the frame will go out on.
        class: TraceClass,
        /// Frame payload bytes.
        bytes: u32,
    },
    /// A transmission (preamble included) started.
    TxStart {
        /// Transmitting node.
        node: u32,
        /// Radio transmitting.
        class: TraceClass,
        /// Frame payload bytes.
        bytes: u32,
        /// Total airtime in nanoseconds (0 when unknown to the recorder).
        air_ns: u64,
        /// LPL wake-up preamble portion of the airtime, in nanoseconds.
        preamble_ns: u64,
    },
    /// A receiver's carrier went busy with an incoming frame.
    RxStart {
        /// Receiving node.
        node: u32,
        /// Transmitting node.
        from: u32,
        /// Radio receiving.
        class: TraceClass,
    },
    /// A reception attempt ended.
    RxEnd {
        /// Receiving node.
        node: u32,
        /// Transmitting node.
        from: u32,
        /// Radio receiving.
        class: TraceClass,
        /// How it went.
        outcome: TraceRx,
    },
    /// One high-radio burst frame plus its link-layer ACK exchange
    /// (the emulated-testbed shape: frame, SIFS, ACK).
    BurstFrame {
        /// Transmitting node.
        node: u32,
        /// Receiving node.
        peer: u32,
        /// Frame payload bytes.
        bytes: u32,
        /// Data-frame airtime in nanoseconds.
        frame_ns: u64,
        /// ACK airtime in nanoseconds.
        ack_ns: u64,
        /// Interframe spacing charged at idle draw, in nanoseconds.
        ifs_ns: u64,
    },
    /// The MAC's verdict on a transmission (link-layer ACK or give-up).
    AckOutcome {
        /// Transmitting node.
        node: u32,
        /// Radio the frame went out on.
        class: TraceClass,
        /// Whether the transfer was acknowledged.
        ok: bool,
    },
    /// A packet reached its destination.
    PktDeliver {
        /// Destination node.
        node: u32,
        /// Packet id.
        pkt: u64,
        /// End-to-end delay in nanoseconds.
        delay_ns: u64,
    },
    /// A packet died; `reason` is the drop taxonomy.
    PktDrop {
        /// Node where the packet died.
        node: u32,
        /// Packet id.
        pkt: u64,
        /// Why it died.
        reason: TraceDrop,
    },
    /// A radio crossed a power-state edge.
    RadioState {
        /// Owning node.
        node: u32,
        /// Which radio.
        class: TraceClass,
        /// The state entered.
        state: TraceRadioState,
    },
    /// A battery drain checkpoint (finite-energy nodes only).
    PowerStep {
        /// Metered node.
        node: u32,
        /// Remaining charge in joules.
        remaining_j: f64,
    },
    /// A battery emptied; the node is dead from this instant.
    NodeDeath {
        /// The corpse.
        node: u32,
    },
    /// Route/dissemination repair after a death announcement reached the
    /// coordinator.
    RouteRepair {
        /// The dead node the survivors routed around.
        dead: u32,
        /// Whether the repair found the network partitioned.
        partition: bool,
    },
    /// A periodic residual-energy-aware route refresh.
    RouteRefresh,
    /// An LPL wake sample: the duty-cycled radio sniffed the channel.
    LplSample {
        /// Sampling node.
        node: u32,
        /// Whether a preamble was audible (the radio stays up if so).
        heard: bool,
    },
    /// An LPL mid-preamble lock-on to an audible data frame.
    LplLock {
        /// Locking node.
        node: u32,
        /// Transmitter it locked onto.
        from: u32,
    },
}

impl TraceEvent {
    /// The event's coarse category.
    pub fn cat(&self) -> TraceCat {
        match self {
            TraceEvent::PktEnqueue { .. }
            | TraceEvent::MacContend { .. }
            | TraceEvent::TxStart { .. }
            | TraceEvent::RxStart { .. }
            | TraceEvent::RxEnd { .. }
            | TraceEvent::BurstFrame { .. }
            | TraceEvent::AckOutcome { .. }
            | TraceEvent::PktDeliver { .. }
            | TraceEvent::PktDrop { .. } => TraceCat::Pkt,
            TraceEvent::RadioState { .. }
            | TraceEvent::LplSample { .. }
            | TraceEvent::LplLock { .. } => TraceCat::Radio,
            TraceEvent::PowerStep { .. } | TraceEvent::NodeDeath { .. } => TraceCat::Power,
            TraceEvent::RouteRepair { .. } | TraceEvent::RouteRefresh => TraceCat::Route,
        }
    }

    /// Stable lowercase event name used in NDJSON output.
    pub fn name(&self) -> &'static str {
        match self {
            TraceEvent::PktEnqueue { .. } => "pkt_enqueue",
            TraceEvent::MacContend { .. } => "mac_contend",
            TraceEvent::TxStart { .. } => "tx_start",
            TraceEvent::RxStart { .. } => "rx_start",
            TraceEvent::RxEnd { .. } => "rx_end",
            TraceEvent::BurstFrame { .. } => "burst_frame",
            TraceEvent::AckOutcome { .. } => "ack_outcome",
            TraceEvent::PktDeliver { .. } => "pkt_deliver",
            TraceEvent::PktDrop { .. } => "pkt_drop",
            TraceEvent::RadioState { .. } => "radio_state",
            TraceEvent::PowerStep { .. } => "power_step",
            TraceEvent::NodeDeath { .. } => "node_death",
            TraceEvent::RouteRepair { .. } => "route_repair",
            TraceEvent::RouteRefresh => "route_refresh",
            TraceEvent::LplSample { .. } => "lpl_sample",
            TraceEvent::LplLock { .. } => "lpl_lock",
        }
    }

    /// The node the event is about, used as the deterministic tie-break
    /// when merging per-shard traces (engine-global events return
    /// `u32::MAX` so they sort after same-key node events).
    pub fn node(&self) -> u32 {
        match *self {
            TraceEvent::PktEnqueue { node, .. }
            | TraceEvent::MacContend { node, .. }
            | TraceEvent::TxStart { node, .. }
            | TraceEvent::RxStart { node, .. }
            | TraceEvent::RxEnd { node, .. }
            | TraceEvent::BurstFrame { node, .. }
            | TraceEvent::AckOutcome { node, .. }
            | TraceEvent::PktDeliver { node, .. }
            | TraceEvent::PktDrop { node, .. }
            | TraceEvent::RadioState { node, .. }
            | TraceEvent::PowerStep { node, .. }
            | TraceEvent::NodeDeath { node }
            | TraceEvent::LplSample { node, .. }
            | TraceEvent::LplLock { node, .. } => node,
            TraceEvent::RouteRepair { dead, .. } => dead,
            TraceEvent::RouteRefresh => u32::MAX,
        }
    }

    /// The variant-specific NDJSON fields (everything after the common
    /// header), as `"key":value` pairs.
    fn fields(&self) -> String {
        use crate::json::num;
        match *self {
            TraceEvent::PktEnqueue { node, pkt, bytes } => {
                format!("\"node\":{node},\"pkt\":{pkt},\"bytes\":{bytes}")
            }
            TraceEvent::MacContend { node, class, bytes } => format!(
                "\"node\":{node},\"class\":\"{}\",\"bytes\":{bytes}",
                class.label()
            ),
            TraceEvent::TxStart {
                node,
                class,
                bytes,
                air_ns,
                preamble_ns,
            } => format!(
                "\"node\":{node},\"class\":\"{}\",\"bytes\":{bytes},\"air_ns\":{air_ns},\
                 \"preamble_ns\":{preamble_ns}",
                class.label()
            ),
            TraceEvent::RxStart { node, from, class } => format!(
                "\"node\":{node},\"from\":{from},\"class\":\"{}\"",
                class.label()
            ),
            TraceEvent::RxEnd {
                node,
                from,
                class,
                outcome,
            } => format!(
                "\"node\":{node},\"from\":{from},\"class\":\"{}\",\"outcome\":\"{}\"",
                class.label(),
                outcome.label()
            ),
            TraceEvent::BurstFrame {
                node,
                peer,
                bytes,
                frame_ns,
                ack_ns,
                ifs_ns,
            } => format!(
                "\"node\":{node},\"peer\":{peer},\"bytes\":{bytes},\"frame_ns\":{frame_ns},\
                 \"ack_ns\":{ack_ns},\"ifs_ns\":{ifs_ns}"
            ),
            TraceEvent::AckOutcome { node, class, ok } => format!(
                "\"node\":{node},\"class\":\"{}\",\"ok\":{ok}",
                class.label()
            ),
            TraceEvent::PktDeliver {
                node,
                pkt,
                delay_ns,
            } => format!("\"node\":{node},\"pkt\":{pkt},\"delay_ns\":{delay_ns}"),
            TraceEvent::PktDrop { node, pkt, reason } => format!(
                "\"node\":{node},\"pkt\":{pkt},\"reason\":\"{}\"",
                reason.label()
            ),
            TraceEvent::RadioState { node, class, state } => format!(
                "\"node\":{node},\"class\":\"{}\",\"state\":\"{}\"",
                class.label(),
                state.label()
            ),
            TraceEvent::PowerStep { node, remaining_j } => {
                format!("\"node\":{node},\"remaining_j\":{}", num(remaining_j))
            }
            TraceEvent::NodeDeath { node } => format!("\"node\":{node}"),
            TraceEvent::RouteRepair { dead, partition } => {
                format!("\"dead\":{dead},\"partition\":{partition}")
            }
            TraceEvent::RouteRefresh => String::new(),
            TraceEvent::LplSample { node, heard } => {
                format!("\"node\":{node},\"heard\":{heard}")
            }
            TraceEvent::LplLock { node, from } => format!("\"node\":{node},\"from\":{from}"),
        }
    }
}

/// A [`TraceEvent`] stamped with the [`EvKey`] of the simulation event that
/// produced it. The key gives records the engine's own total order, so a
/// merged trace is reproducible for any shard or thread count.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Key of the producing simulation event (time, causal depth, content
    /// ord) — the same key for every shard-count decomposition of the run.
    pub key: EvKey,
    /// What happened.
    pub ev: TraceEvent,
}

impl TraceRecord {
    /// Serialises the record as one NDJSON line (no trailing newline).
    ///
    /// Schema: every record carries the header `t_ns` (simulated
    /// nanoseconds), `depth` (causal depth at the same instant), `ord`
    /// (content-derived tie-break, decimal string — it exceeds JSON's
    /// number range), `cat` (`pkt|radio|power|route`) and `ev` (the
    /// variant name), followed by the variant's own fields
    /// (`node`, `class`, `bytes`, `reason`, …).
    pub fn to_ndjson(&self) -> String {
        let fields = self.ev.fields();
        let sep = if fields.is_empty() { "" } else { "," };
        format!(
            "{{\"t_ns\":{},\"depth\":{},\"ord\":\"{}\",\"cat\":\"{}\",\"ev\":\"{}\"{sep}{fields}}}",
            self.key.time.as_nanos(),
            self.key.depth,
            self.key.ord,
            self.ev.cat().label(),
            self.ev.name()
        )
    }
}

/// Merges per-shard record streams into one deterministic total order.
///
/// Each stream is already sorted by execution order on its shard. The merge
/// stable-sorts the concatenation by `(key, node)`: keys give the engine's
/// global order, and the node tie-break resolves the one legitimate
/// cross-shard key collision (reception fan-out events share their
/// transmission's key but concern disjoint receivers). Records with equal
/// `(key, node)` always originate on a single shard, so stability makes the
/// result independent of shard and thread count.
pub fn merge_traces(parts: Vec<Vec<TraceRecord>>) -> Vec<TraceRecord> {
    let mut all: Vec<TraceRecord> = parts.into_iter().flatten().collect();
    all.sort_by_key(|a| (a.key, a.ev.node()));
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order() {
        let mut t = Trace::new();
        for i in 0..5u32 {
            t.record(SimTime::from_secs(i as u64), i);
        }
        let vals: Vec<u32> = t.iter().map(|(_, v)| *v).collect();
        assert_eq!(vals, vec![0, 1, 2, 3, 4]);
    }

    fn key(ns: u64, depth: u32, ord: u128) -> EvKey {
        EvKey {
            time: SimTime::from_nanos(ns),
            depth,
            ord,
        }
    }

    #[test]
    fn categories_cover_the_taxonomy() {
        let cases = [
            (
                TraceEvent::PktEnqueue {
                    node: 1,
                    pkt: 7,
                    bytes: 32,
                },
                TraceCat::Pkt,
            ),
            (
                TraceEvent::LplSample {
                    node: 1,
                    heard: true,
                },
                TraceCat::Radio,
            ),
            (TraceEvent::NodeDeath { node: 1 }, TraceCat::Power),
            (
                TraceEvent::RouteRepair {
                    dead: 1,
                    partition: false,
                },
                TraceCat::Route,
            ),
        ];
        for (ev, cat) in cases {
            assert_eq!(ev.cat(), cat, "{}", ev.name());
            assert_eq!(TraceCat::parse(cat.label()), Some(cat));
        }
        assert_eq!(TraceCat::parse("bogus"), None);
    }

    #[test]
    fn ndjson_has_header_and_fields() {
        let r = TraceRecord {
            key: key(1_500, 2, 42),
            ev: TraceEvent::PktDrop {
                node: 3,
                pkt: 99,
                reason: TraceDrop::BufferOverflow,
            },
        };
        let line = r.to_ndjson();
        assert!(line.starts_with("{\"t_ns\":1500,\"depth\":2,\"ord\":\"42\","));
        assert!(line.contains("\"cat\":\"pkt\""));
        assert!(line.contains("\"ev\":\"pkt_drop\""));
        assert!(line.contains("\"reason\":\"buffer_overflow\""));
        assert!(line.ends_with('}'));
        assert!(!line.contains('\n'));
        // A field-less variant stays a valid object.
        let r = TraceRecord {
            key: key(0, 0, 0),
            ev: TraceEvent::RouteRefresh,
        };
        assert!(r.to_ndjson().ends_with("\"ev\":\"route_refresh\"}"));
    }

    #[test]
    fn merge_is_shard_count_invariant() {
        let rec = |ns, ord, node| TraceRecord {
            key: key(ns, 0, ord),
            ev: TraceEvent::RxStart {
                node,
                from: 9,
                class: TraceClass::Low,
            },
        };
        // The fan-out case: one tx key, receivers on different shards.
        let a = rec(10, 5, 2);
        let b = rec(10, 5, 4);
        let c = rec(20, 1, 1);
        let one_shard = merge_traces(vec![vec![a.clone(), b.clone(), c.clone()]]);
        let two_shards = merge_traces(vec![vec![b.clone(), c.clone()], vec![a.clone()]]);
        assert_eq!(one_shard, two_shards);
        assert_eq!(one_shard, vec![a, b, c]);
    }
}
