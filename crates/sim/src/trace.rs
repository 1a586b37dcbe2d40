//! A lightweight, typed event trace — the simulator's flight recorder.
//!
//! The paper's prototype computes energy and delay *from event logs*
//! ("All the events ... were logged in detail. At the end of the experiments,
//! these logs were used to calculate energy consumption and delay").
//! A `Vec<TraceRecord>` is the equivalent facility here: models append
//! records, post-processing iterates over them.
//!
//! This module defines the shared trace vocabulary: [`TraceEvent`] (the
//! packet/radio/power/route lifecycle), [`TraceRecord`] (an event stamped
//! with the [`EvKey`] of the simulation event that produced it) and
//! [`merge_traces`] (the deterministic per-shard merge). Records serialise
//! to NDJSON via [`TraceRecord::write_ndjson`]; the schema is documented
//! on that method.

use crate::keyed::EvKey;
use std::fmt::Write;

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

    /// Appends the variant-specific NDJSON fields (everything after the
    /// common header), each as `,"key":value`.
    fn fields(&self, out: &mut String) {
        let mut f = Fields(out);
        match *self {
            TraceEvent::PktEnqueue { node, pkt, bytes } => {
                f.int("node", node).int("pkt", pkt).int("bytes", bytes);
            }
            TraceEvent::MacContend { node, class, bytes } => {
                f.int("node", node)
                    .label("class", class.label())
                    .int("bytes", bytes);
            }
            TraceEvent::TxStart {
                node,
                class,
                bytes,
                air_ns,
                preamble_ns,
            } => {
                f.int("node", node)
                    .label("class", class.label())
                    .int("bytes", bytes)
                    .int("air_ns", air_ns)
                    .int("preamble_ns", preamble_ns);
            }
            TraceEvent::RxStart { node, from, class } => {
                f.int("node", node)
                    .int("from", from)
                    .label("class", class.label());
            }
            TraceEvent::RxEnd {
                node,
                from,
                class,
                outcome,
            } => {
                f.int("node", node)
                    .int("from", from)
                    .label("class", class.label())
                    .label("outcome", outcome.label());
            }
            TraceEvent::BurstFrame {
                node,
                peer,
                bytes,
                frame_ns,
                ack_ns,
                ifs_ns,
            } => {
                f.int("node", node)
                    .int("peer", peer)
                    .int("bytes", bytes)
                    .int("frame_ns", frame_ns)
                    .int("ack_ns", ack_ns)
                    .int("ifs_ns", ifs_ns);
            }
            TraceEvent::AckOutcome { node, class, ok } => {
                f.int("node", node)
                    .label("class", class.label())
                    .flag("ok", ok);
            }
            TraceEvent::PktDeliver {
                node,
                pkt,
                delay_ns,
            } => {
                f.int("node", node)
                    .int("pkt", pkt)
                    .int("delay_ns", delay_ns);
            }
            TraceEvent::PktDrop { node, pkt, reason } => {
                f.int("node", node)
                    .int("pkt", pkt)
                    .label("reason", reason.label());
            }
            TraceEvent::RadioState { node, class, state } => {
                f.int("node", node)
                    .label("class", class.label())
                    .label("state", state.label());
            }
            TraceEvent::PowerStep { node, remaining_j } => {
                f.int("node", node).num("remaining_j", remaining_j);
            }
            TraceEvent::NodeDeath { node } => {
                f.int("node", node);
            }
            TraceEvent::RouteRepair { dead, partition } => {
                f.int("dead", dead).flag("partition", partition);
            }
            TraceEvent::RouteRefresh => {}
            TraceEvent::LplSample { node, heard } => {
                f.int("node", node).flag("heard", heard);
            }
            TraceEvent::LplLock { node, from } => {
                f.int("node", node).int("from", from);
            }
        }
    }
}

/// Appends `,"key":value` fields to an NDJSON line.
struct Fields<'a>(&'a mut String);

impl Fields<'_> {
    /// Starts a field: `,"key":`.
    fn key(&mut self, key: &str) -> &mut String {
        self.0.push_str(",\"");
        self.0.push_str(key);
        self.0.push_str("\":");
        self.0
    }

    fn int(&mut self, key: &str, v: impl Into<u64>) -> &mut Self {
        push_u64(self.key(key), v.into());
        self
    }

    /// A string field holding one of the vocabulary's labels, which need
    /// no escaping.
    fn label(&mut self, key: &str, v: &str) -> &mut Self {
        let out = self.key(key);
        out.push('"');
        out.push_str(v);
        out.push('"');
        self
    }

    fn flag(&mut self, key: &str, v: bool) -> &mut Self {
        self.key(key).push_str(if v { "true" } else { "false" });
        self
    }

    fn num(&mut self, key: &str, v: f64) -> &mut Self {
        self.key(key).push_str(&crate::json::num(v));
        self
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

/// A bound on the line [`TraceRecord::write_ndjson`] produces: a header
/// of maximal integers (a 39-digit `ord`), the longest category (`radio`)
/// and name (`route_refresh`), then `burst_frame`'s fields, the longest,
/// at their maximal widths.
const MAX_LINE: usize = 130 + 147 + 1;

impl TraceRecord {
    /// Appends the record to `out` as one NDJSON line (no trailing
    /// newline). Writing many records into one reused buffer costs no
    /// allocation per record.
    ///
    /// Schema: every record carries the header `t_ns` (simulated
    /// nanoseconds), `depth` (causal depth at the same instant), `ord`
    /// (content-derived tie-break, decimal string — it exceeds JSON's
    /// number range), `cat` (`pkt|radio|power|route`) and `ev` (the
    /// variant name), followed by the variant's own fields
    /// (`node`, `class`, `bytes`, `reason`, …).
    pub fn write_ndjson(&self, out: &mut String) {
        out.push_str("{\"t_ns\":");
        push_u64(out, self.key.time.as_nanos());
        out.push_str(",\"depth\":");
        push_u64(out, self.key.depth.into());
        out.push_str(",\"ord\":\"");
        // `ord` usually needs all 128 bits; std formats those faster than
        // splitting off 19-digit groups with 128-bit divisions would.
        let _ = write!(out, "{}", self.key.ord);
        out.push_str("\",\"cat\":\"");
        out.push_str(self.ev.cat().label());
        out.push_str("\",\"ev\":\"");
        out.push_str(self.ev.name());
        out.push('"');
        self.ev.fields(out);
        out.push('}');
    }

    /// The record as one NDJSON line (no trailing newline), in a string
    /// allocated once; see [`write_ndjson`](Self::write_ndjson).
    pub fn to_ndjson(&self) -> String {
        let mut line = String::with_capacity(MAX_LINE);
        self.write_ndjson(&mut line);
        line
    }
}

/// The two ASCII digits of every number below 100.
const DIGIT_PAIRS: [u8; 200] = {
    let mut pairs = [0; 200];
    let mut i = 0;
    while i < 100 {
        pairs[2 * i] = b'0' + (i / 10) as u8;
        pairs[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    pairs
};

/// Appends `v` in decimal, two digits at a time, without a formatter
/// round trip.
fn push_u64(out: &mut String, mut v: u64) {
    let mut buf = [0; 20];
    let mut i = buf.len();
    while v >= 10 {
        let pair = (v % 100) as usize * 2;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
        v /= 100;
    }
    // A leading odd digit, or the lone 0.
    if v > 0 || i == buf.len() {
        i -= 1;
        buf[i] = b'0' + v as u8;
    }
    out.push_str(std::str::from_utf8(&buf[i..]).expect("ASCII digits"));
}

/// Merges per-shard record streams into one deterministic total order.
///
/// Each stream is already sorted by execution order on its shard. The merge
/// appends every other stream onto the largest one and stable-sorts the
/// result by `(key, node)` unless it is in order already (a one-shard run
/// usually is, and then comes back as its own buffer, uncopied): keys give
/// the engine's global order, and the node tie-break resolves the one
/// legitimate cross-shard key collision (reception fan-out events share
/// their transmission's key but concern disjoint receivers). Records with
/// equal `(key, node)` always originate on a single shard, so stability
/// makes the result independent of shard and thread count.
pub fn merge_traces(mut parts: Vec<Vec<TraceRecord>>) -> Vec<TraceRecord> {
    let Some(largest) = (0..parts.len()).max_by_key(|&i| parts[i].len()) else {
        return Vec::new();
    };
    let mut all = parts.swap_remove(largest);
    all.reserve(parts.iter().map(Vec::len).sum());
    for mut part in parts {
        all.append(&mut part);
    }
    let order = |r: &TraceRecord| (r.key, r.ev.node());
    if !all.windows(2).all(|w| order(&w[0]) <= order(&w[1])) {
        all.sort_by_key(order);
    }
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::time::SimTime;

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

    /// The exact NDJSON line of every variant, with header integers at
    /// the decimal-width edges (`ord` is a `u128`).
    #[test]
    fn ndjson_lines_are_pinned() {
        use TraceEvent as E;
        let cases = [
            (
                key(0, 0, 0),
                E::PktEnqueue {
                    node: 1,
                    pkt: 7,
                    bytes: 32,
                },
                r#"{"t_ns":0,"depth":0,"ord":"0","cat":"pkt","ev":"pkt_enqueue","node":1,"pkt":7,"bytes":32}"#,
            ),
            (
                key(1, 1, 9),
                E::MacContend {
                    node: 2,
                    class: TraceClass::Low,
                    bytes: 36,
                },
                r#"{"t_ns":1,"depth":1,"ord":"9","cat":"pkt","ev":"mac_contend","node":2,"class":"low","bytes":36}"#,
            ),
            (
                key(10, 2, 10),
                E::TxStart {
                    node: 3,
                    class: TraceClass::High,
                    bytes: 1500,
                    air_ns: 1_234_567,
                    preamble_ns: 0,
                },
                r#"{"t_ns":10,"depth":2,"ord":"10","cat":"pkt","ev":"tx_start","node":3,"class":"high","bytes":1500,"air_ns":1234567,"preamble_ns":0}"#,
            ),
            (
                key(99, 9, 9_999_999_999_999_999_999),
                E::RxStart {
                    node: 4,
                    from: 3,
                    class: TraceClass::High,
                },
                r#"{"t_ns":99,"depth":9,"ord":"9999999999999999999","cat":"pkt","ev":"rx_start","node":4,"from":3,"class":"high"}"#,
            ),
            (
                key(100, 10, 10_000_000_000_000_000_000),
                E::RxEnd {
                    node: 4,
                    from: 3,
                    class: TraceClass::Low,
                    outcome: TraceRx::Corrupted,
                },
                r#"{"t_ns":100,"depth":10,"ord":"10000000000000000000","cat":"pkt","ev":"rx_end","node":4,"from":3,"class":"low","outcome":"corrupted"}"#,
            ),
            (
                key(12_000_000_000, 0, u64::MAX as u128),
                E::BurstFrame {
                    node: 1,
                    peer: 0,
                    bytes: 1024,
                    frame_ns: 800_000,
                    ack_ns: 112_000,
                    ifs_ns: 10_000,
                },
                r#"{"t_ns":12000000000,"depth":0,"ord":"18446744073709551615","cat":"pkt","ev":"burst_frame","node":1,"peer":0,"bytes":1024,"frame_ns":800000,"ack_ns":112000,"ifs_ns":10000}"#,
            ),
            (
                key(7, 3, u64::MAX as u128 + 1),
                E::AckOutcome {
                    node: 5,
                    class: TraceClass::Low,
                    ok: false,
                },
                r#"{"t_ns":7,"depth":3,"ord":"18446744073709551616","cat":"pkt","ev":"ack_outcome","node":5,"class":"low","ok":false}"#,
            ),
            (
                key(u64::MAX, u32::MAX, u128::MAX),
                E::PktDeliver {
                    node: 0,
                    pkt: 42,
                    delay_ns: u64::MAX,
                },
                r#"{"t_ns":18446744073709551615,"depth":4294967295,"ord":"340282366920938463463374607431768211455","cat":"pkt","ev":"pkt_deliver","node":0,"pkt":42,"delay_ns":18446744073709551615}"#,
            ),
            (
                key(5, 0, 123),
                E::PktDrop {
                    node: 6,
                    pkt: 99,
                    reason: TraceDrop::Unroutable,
                },
                r#"{"t_ns":5,"depth":0,"ord":"123","cat":"pkt","ev":"pkt_drop","node":6,"pkt":99,"reason":"unroutable"}"#,
            ),
            (
                key(5, 1, 1),
                E::RadioState {
                    node: 7,
                    class: TraceClass::High,
                    state: TraceRadioState::Waking,
                },
                r#"{"t_ns":5,"depth":1,"ord":"1","cat":"radio","ev":"radio_state","node":7,"class":"high","state":"waking"}"#,
            ),
            (
                key(6, 0, 2),
                E::PowerStep {
                    node: 8,
                    remaining_j: 0.1 + 0.2,
                },
                r#"{"t_ns":6,"depth":0,"ord":"2","cat":"power","ev":"power_step","node":8,"remaining_j":0.30000000000000004}"#,
            ),
            (
                key(6, 0, 3),
                E::PowerStep {
                    node: 8,
                    remaining_j: 1e-7,
                },
                r#"{"t_ns":6,"depth":0,"ord":"3","cat":"power","ev":"power_step","node":8,"remaining_j":1e-7}"#,
            ),
            (
                key(6, 0, 4),
                E::PowerStep {
                    node: 8,
                    remaining_j: 2.0,
                },
                r#"{"t_ns":6,"depth":0,"ord":"4","cat":"power","ev":"power_step","node":8,"remaining_j":2.0}"#,
            ),
            (
                key(8, 0, 5),
                E::NodeDeath { node: u32::MAX },
                r#"{"t_ns":8,"depth":0,"ord":"5","cat":"power","ev":"node_death","node":4294967295}"#,
            ),
            (
                key(9, 1, 6),
                E::RouteRepair {
                    dead: 13,
                    partition: true,
                },
                r#"{"t_ns":9,"depth":1,"ord":"6","cat":"route","ev":"route_repair","dead":13,"partition":true}"#,
            ),
            (
                key(30_000_000_000, 0, 7),
                E::RouteRefresh,
                r#"{"t_ns":30000000000,"depth":0,"ord":"7","cat":"route","ev":"route_refresh"}"#,
            ),
            (
                key(11, 0, 8),
                E::LplSample {
                    node: 9,
                    heard: true,
                },
                r#"{"t_ns":11,"depth":0,"ord":"8","cat":"radio","ev":"lpl_sample","node":9,"heard":true}"#,
            ),
            (
                key(12, 0, 11),
                E::LplLock { node: 9, from: 2 },
                r#"{"t_ns":12,"depth":0,"ord":"11","cat":"radio","ev":"lpl_lock","node":9,"from":2}"#,
            ),
        ];
        let mut buf = String::new();
        let mut all = String::new();
        for (key, ev, want) in cases {
            let name = ev.name();
            let r = TraceRecord { key, ev };
            assert_eq!(r.to_ndjson(), want, "{name}");
            // `write_ndjson` appends to whatever the buffer holds.
            r.write_ndjson(&mut buf);
            buf.push('\n');
            all.push_str(want);
            all.push('\n');
        }
        assert_eq!(buf, all);
    }

    #[test]
    fn the_longest_line_fits_one_allocation() {
        let r = TraceRecord {
            key: key(u64::MAX, u32::MAX, u128::MAX),
            ev: TraceEvent::BurstFrame {
                node: u32::MAX,
                peer: u32::MAX,
                bytes: u32::MAX,
                frame_ns: u64::MAX,
                ack_ns: u64::MAX,
                ifs_ns: u64::MAX,
            },
        };
        let line = r.to_ndjson();
        // The bound takes the longest category and name; this line has
        // `pkt` and `burst_frame`.
        let shorter = "radio".len() - "pkt".len() + "route_refresh".len() - "burst_frame".len();
        assert_eq!(line.len(), MAX_LINE - shorter);
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

    /// A one-shard run's coordinator records arrive as a second part,
    /// after shard records that come later in key order.
    #[test]
    fn merge_sorts_route_records_appended_last() {
        let node = |ns, node| TraceRecord {
            key: key(ns, 0, 1),
            ev: TraceEvent::NodeDeath { node },
        };
        let route = TraceRecord {
            key: key(20, 1, 0),
            ev: TraceEvent::RouteRepair {
                dead: 3,
                partition: false,
            },
        };
        let (a, b, c) = (node(10, 3), node(20, 5), node(30, 1));
        let merged = merge_traces(vec![
            vec![a.clone(), b.clone(), c.clone()],
            vec![route.clone()],
        ]);
        assert_eq!(merged, vec![a, b, route, c]);
    }

    /// A part already in order is handed back as the same buffer, with
    /// the (empty) coordinator part appended.
    #[test]
    fn merge_of_a_sorted_part_copies_nothing() {
        let part: Vec<TraceRecord> = (0..100)
            .map(|i| TraceRecord {
                key: key(i, 0, 7),
                ev: TraceEvent::NodeDeath { node: 1 },
            })
            .collect();
        let want = part.clone();
        let ptr = part.as_ptr();
        let merged = merge_traces(vec![part]);
        assert_eq!(merged.as_ptr(), ptr);
        let merged = merge_traces(vec![merged, Vec::new()]);
        assert_eq!(merged.as_ptr(), ptr);
        assert_eq!(merged, want);
        assert!(merge_traces(Vec::new()).is_empty());
    }
}
