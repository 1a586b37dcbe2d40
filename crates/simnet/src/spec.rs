//! Scenarios as data: a validating [`ScenarioBuilder`] and the `.scn`
//! scenario-file format.
//!
//! [`Scenario`] is deliberately a plain struct — every field public, every
//! run parameter visible. This module is the checked front door: the
//! builder enforces the invariants that used to live as scattered panics
//! and comments (sink inside the topology, senders that exist and exclude
//! the sink, positive link latencies, `shards ≤ nodes`, bursts that fit the
//! buffer, battery/route-weight coherence), and [`parse_spec`]/[`emit_spec`]
//! round-trip a full scenario — topology, radios, workload, loss, power,
//! routing, sharding — through a hand-rolled `key = value` text format so
//! whole experiments can live in version-controlled `.scn` files.
//!
//! # Examples
//!
//! ```
//! use bcp_simnet::spec::{parse_spec, emit_spec, ScenarioBuilder};
//! use bcp_simnet::ModelKind;
//!
//! // The builder validates; a misconfigured scenario is an Err, not a panic.
//! let s = ScenarioBuilder::new()
//!     .model(ModelKind::DualRadio)
//!     .senders_auto(10)
//!     .burst_packets(500)
//!     .build()
//!     .expect("valid");
//!
//! // The same scenario as text, and back, bit-for-bit.
//! let text = emit_spec(&s).expect("representable");
//! assert_eq!(parse_spec(&text).expect("parses"), s);
//! ```
//!
//! # The `.scn` grammar
//!
//! One `key = value` pair per line; `#` starts a comment; unknown keys are
//! errors (typos must not silently fall back to defaults). Every key is
//! optional — defaults are the paper's single-hop setting — except
//! `senders`. See the README's "Scenario files" section for the full key
//! table; [`emit_spec`] always writes the canonical form.
//!
//! A `topo` may hold at most [`MAX_NODES`] nodes. A dual-radio world
//! still costs memory and time quadratic in the node count, because a
//! BCP handshake can address any peer and so that model keeps every
//! route column of both radios; the sensor and 802.11 models build only
//! the columns toward their data destinations. Measured on a 2-vCPU host
//! (release, peak RSS of a fresh process), `World::build` alone takes
//! 8.0 MB and 6.3 ms for the sensor model at 2,025 nodes on 8 shards and
//! 12.6 MB and 12 ms at 4,096 on 4, against 71 MB and 0.14 s, and
//! 270 MB and 0.56 s, for dual radio on 4. [`parse_spec`] refuses a
//! larger topology with [`SpecError::TooManyNodes`] before allocating
//! it, so one line of a submitted cell cannot exhaust a server's memory.

use crate::scenario::{HighRoute, ModelKind, Scenario, WorkloadKind};
use bcp_core::config::BcpConfig;
use bcp_mac::sleep::SleepSchedule;
use bcp_net::addr::NodeId;
use bcp_net::loss::LossModel;
use bcp_net::propagation::PhysModel;
use bcp_net::routing::RouteWeight;
use bcp_net::topo::{Position, Topology};
use bcp_power::{Battery, BatteryModel, PowerConfig};
use bcp_radio::profile::{
    cabletron, cc2420, lucent_11m, lucent_2m, mica, mica2, micaz, RadioProfile,
};
use bcp_sim::time::SimDuration;
use bcp_traffic::{TrafficPattern, GOSSIP_DEFAULT_SEED};
use std::fmt;

/// The node budget of a `.scn` topology: a 64×64 grid, twice the largest
/// checked-in spec (see the module docs for what a world this size costs).
pub const MAX_NODES: usize = 4096;

/// Why a scenario failed to build (or a `.scn` file failed to parse).
///
/// Each variant names the violated invariant; `Display` renders a message
/// that tells the user what to change.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// The topology has no nodes.
    EmptyTopology,
    /// The sink id is not a node of the topology.
    SinkOutOfRange {
        /// The configured sink id.
        sink: u32,
        /// Number of nodes in the topology.
        nodes: usize,
    },
    /// The scenario has no senders (nothing would ever be transmitted).
    NoSenders,
    /// `senders_auto(n)` asked for more senders than non-sink nodes exist.
    TooManySenders {
        /// Senders requested.
        requested: usize,
        /// Non-sink nodes available.
        available: usize,
    },
    /// An explicit sender id is not a node of the topology.
    SenderOutOfRange {
        /// The offending sender id.
        sender: u32,
        /// Number of nodes in the topology.
        nodes: usize,
    },
    /// The sink was listed as a sender.
    SenderIsSink {
        /// The offending sender id (= the sink).
        sender: u32,
    },
    /// A sender id appears twice in the explicit list.
    DuplicateSender {
        /// The repeated sender id.
        sender: u32,
    },
    /// A link turnaround latency is zero — the conservative engine's
    /// lookahead must stay positive.
    NonPositiveLinkLatency {
        /// Which radio class (`"low"` or `"high"`).
        class: &'static str,
    },
    /// More shards than nodes: at least one strip would be empty.
    TooManyShards {
        /// Shards requested.
        shards: usize,
        /// Number of nodes in the topology.
        nodes: usize,
    },
    /// The BCP burst threshold exceeds the buffer capacity, so a burst
    /// could never trigger.
    BurstExceedsBuffer {
        /// Configured threshold (`α·s*`) in bytes.
        threshold_bytes: usize,
        /// Configured buffer capacity in bytes.
        buffer_cap_bytes: usize,
    },
    /// Some other BCP parameter is incoherent (zero frame payload, zero
    /// timeouts, burst cap below one frame, …).
    InvalidBcp {
        /// What is wrong.
        reason: String,
    },
    /// The per-sender offered rate is not a positive finite number.
    InvalidRate {
        /// The configured rate.
        rate_bps: f64,
    },
    /// The application payload does not fit the radio framing.
    InvalidPacketBytes {
        /// Configured payload bytes.
        bytes: usize,
        /// Largest payload the low radio frame and the BCP high-radio
        /// frame both accept.
        max: usize,
    },
    /// The simulated duration is zero.
    ZeroDuration,
    /// A workload parameter is incoherent (e.g. non-positive burst means).
    InvalidWorkload {
        /// What is wrong.
        reason: String,
    },
    /// The energy-aware route weight was selected but no node carries a
    /// battery, so "residual energy" is undefined.
    EnergyAwareWithoutBattery,
    /// An LPL timing parameter is degenerate (zero wake interval or zero
    /// sample width).
    InvalidSleepSchedule {
        /// What is wrong.
        reason: String,
    },
    /// The LPL channel sample is not shorter than the wake interval, so
    /// the radio would never actually doze (duty cycle >= 1).
    SleepSampleExceedsInterval {
        /// Configured sample width.
        sample: SimDuration,
        /// Configured wake interval.
        wake_interval: SimDuration,
    },
    /// The LPL wake-up preamble is shorter than the wake interval, so a
    /// receiver's channel samples can fall entirely between preambles and
    /// miss frames deterministically.
    SleepPreambleTooShort {
        /// Configured sender-side preamble.
        preamble: SimDuration,
        /// Configured wake interval.
        wake_interval: SimDuration,
    },
    /// The broadcast source id is not a node of the topology.
    TrafficSourceOutOfRange {
        /// The configured broadcast source.
        source: u32,
        /// Number of nodes in the topology.
        nodes: usize,
    },
    /// A traffic-pattern parameter is incoherent (e.g. zero gossip
    /// pairs, or gossip on a single-node topology).
    InvalidTraffic {
        /// What is wrong.
        reason: String,
    },
    /// A broadcast or gossip pattern fixes the sender set, but `senders`
    /// was also configured — one of the two must go.
    SendersConflictWithTraffic,
    /// A physical link model parameter is incoherent (non-positive path
    /// loss exponent, negative shadowing sigma, or a radio profile whose
    /// link budget cannot calibrate a path loss).
    InvalidPhys {
        /// What is wrong.
        reason: String,
    },
    /// A `.scn` topology asks for more than [`MAX_NODES`] nodes.
    TooManyNodes {
        /// 1-based line number of the `topo` key.
        line: usize,
        /// The node count the line asks for (`usize::MAX` when the count
        /// itself overflows).
        nodes: usize,
        /// The budget, [`MAX_NODES`].
        max: usize,
    },
    /// A `.scn` line failed to parse.
    Parse {
        /// 1-based line number in the input.
        line: usize,
        /// What is wrong with the line.
        reason: String,
    },
    /// The scenario uses a configuration the `.scn` format cannot express
    /// (e.g. a hand-built radio profile or a partially drained battery).
    Unrepresentable {
        /// What cannot be expressed.
        what: String,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::EmptyTopology => write!(f, "topology has no nodes"),
            SpecError::SinkOutOfRange { sink, nodes } => {
                write!(f, "sink {sink} is not a node (topology has {nodes} nodes)")
            }
            SpecError::NoSenders => {
                write!(f, "no senders configured; set `senders` (ids or auto:<n>)")
            }
            SpecError::TooManySenders {
                requested,
                available,
            } => write!(
                f,
                "cannot pick {requested} senders: only {available} non-sink nodes exist"
            ),
            SpecError::SenderOutOfRange { sender, nodes } => {
                write!(
                    f,
                    "sender {sender} is not a node (topology has {nodes} nodes)"
                )
            }
            SpecError::SenderIsSink { sender } => {
                write!(
                    f,
                    "sender {sender} is the sink; the sink cannot send to itself"
                )
            }
            SpecError::DuplicateSender { sender } => {
                write!(f, "sender {sender} listed twice")
            }
            SpecError::NonPositiveLinkLatency { class } => write!(
                f,
                "link_latency_{class} must be positive (it is the conservative \
                 engine's lookahead)"
            ),
            SpecError::TooManyShards { shards, nodes } => {
                write!(
                    f,
                    "{shards} shards over {nodes} nodes: shards must be <= nodes"
                )
            }
            SpecError::BurstExceedsBuffer {
                threshold_bytes,
                buffer_cap_bytes,
            } => write!(
                f,
                "burst threshold {threshold_bytes} B exceeds buffer capacity \
                 {buffer_cap_bytes} B; a burst could never trigger"
            ),
            SpecError::InvalidBcp { reason } => write!(f, "invalid BCP config: {reason}"),
            SpecError::InvalidRate { rate_bps } => {
                write!(f, "rate_bps must be positive and finite, got {rate_bps}")
            }
            SpecError::InvalidPacketBytes { bytes, max } => write!(
                f,
                "packet_bytes {bytes} does not fit the framing (must be 1..={max})"
            ),
            SpecError::ZeroDuration => write!(f, "duration must be positive"),
            SpecError::InvalidWorkload { reason } => write!(f, "invalid workload: {reason}"),
            SpecError::EnergyAwareWithoutBattery => write!(
                f,
                "route_weight max_min_residual needs at least one battery-powered \
                 node; configure `battery` (or a node_battery override)"
            ),
            SpecError::InvalidSleepSchedule { reason } => {
                write!(f, "invalid low_sleep schedule: {reason}")
            }
            SpecError::SleepSampleExceedsInterval {
                sample,
                wake_interval,
            } => write!(
                f,
                "low_sleep sample {sample} must be shorter than the wake \
                 interval {wake_interval}, or the radio never dozes"
            ),
            SpecError::SleepPreambleTooShort {
                preamble,
                wake_interval,
            } => write!(
                f,
                "low_sleep preamble {preamble} must be at least the wake \
                 interval {wake_interval}, or sampling receivers miss frames"
            ),
            SpecError::TrafficSourceOutOfRange { source, nodes } => write!(
                f,
                "broadcast source {source} is not a node (topology has {nodes} nodes)"
            ),
            SpecError::InvalidTraffic { reason } => {
                write!(f, "invalid traffic pattern: {reason}")
            }
            SpecError::SendersConflictWithTraffic => write!(
                f,
                "broadcast/gossip traffic derives the sender set; drop the \
                 `senders` key (or switch to `traffic = converge`)"
            ),
            SpecError::InvalidPhys { reason } => {
                write!(f, "invalid phys model: {reason}")
            }
            SpecError::TooManyNodes { line, nodes, max } => write!(
                f,
                "line {line}: the topology has {nodes} nodes, over the budget of {max} \
                 (world building is quadratic in the node count)"
            ),
            SpecError::Parse { line, reason } => write!(f, "line {line}: {reason}"),
            SpecError::Unrepresentable { what } => {
                write!(f, "not expressible in the .scn format: {what}")
            }
        }
    }
}

impl std::error::Error for SpecError {}

/// How the builder selects senders.
#[derive(Debug, Clone)]
enum SenderSpec {
    /// Deterministically pick `n` non-sink nodes
    /// ([`Scenario::pick_senders`]).
    Auto(usize),
    /// An explicit id list (validated at build).
    Explicit(Vec<NodeId>),
}

/// Checked construction of [`Scenario`]s.
///
/// Defaults are the paper's single-hop setting (6×6 grid at 40 m, sink at
/// the centre, MicaZ + Lucent 11 Mbps, 2 Kbps CBR senders, 5000 s) with
/// **no senders** — every scenario must say who transmits. `build()`
/// validates the whole configuration and returns every violation as a
/// typed [`SpecError`] instead of a runtime panic.
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    model: ModelKind,
    topo: Topology,
    sink: NodeId,
    pattern: TrafficPattern,
    senders: SenderSpec,
    low_profile: RadioProfile,
    low_sleep: SleepSchedule,
    high_profile: RadioProfile,
    rate_bps: f64,
    workload: WorkloadKind,
    packet_bytes: usize,
    duration: SimDuration,
    bcp: BcpConfig,
    burst_packets: Option<usize>,
    loss_low: LossModel,
    loss_high: LossModel,
    phys: PhysModel,
    high_route: HighRoute,
    off_linger: SimDuration,
    traffic_cutoff: Option<SimDuration>,
    flush_at_cutoff: bool,
    power: PowerConfig,
    route_weight: RouteWeight,
    shards: usize,
    link_latency_low: SimDuration,
    link_latency_high: SimDuration,
    seed: u64,
}

impl Default for ScenarioBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ScenarioBuilder {
    /// A builder holding the paper's single-hop defaults and no senders.
    pub fn new() -> Self {
        let (topo, sink) = Scenario::paper_grid();
        ScenarioBuilder {
            model: ModelKind::DualRadio,
            topo,
            sink,
            pattern: TrafficPattern::Converge,
            senders: SenderSpec::Explicit(Vec::new()),
            low_profile: micaz(),
            low_sleep: SleepSchedule::AlwaysOn,
            high_profile: lucent_11m(),
            rate_bps: 2_000.0,
            workload: WorkloadKind::Cbr,
            packet_bytes: 32,
            duration: SimDuration::from_secs(5_000),
            bcp: BcpConfig::paper_defaults(),
            burst_packets: None,
            loss_low: LossModel::Perfect,
            loss_high: LossModel::Perfect,
            phys: PhysModel::Disk,
            high_route: HighRoute::Tree,
            off_linger: SimDuration::from_millis(5),
            traffic_cutoff: None,
            flush_at_cutoff: false,
            power: PowerConfig::unlimited(),
            route_weight: RouteWeight::ShortestHop,
            shards: 1,
            // See Scenario::single_hop for the latency rationale: a fifth
            // of a CSMA slot / of an 802.11 slot.
            link_latency_low: SimDuration::from_micros(64),
            link_latency_high: SimDuration::from_micros(4),
            seed: 1,
        }
    }

    /// The paper's **single-hop** preset (Lucent 11 Mbps at sensor range)
    /// as a builder — tweak further or `build()` directly.
    pub fn single_hop(model: ModelKind, n_senders: usize, burst_packets: usize, seed: u64) -> Self {
        Self::new()
            .model(model)
            .senders_auto(n_senders)
            .burst_packets(burst_packets)
            .seed(seed)
    }

    /// The paper's **multi-hop** preset (Cabletron reaching the central
    /// sink in one hop) as a builder.
    pub fn multi_hop(model: ModelKind, n_senders: usize, burst_packets: usize, seed: u64) -> Self {
        Self::single_hop(model, n_senders, burst_packets, seed).high_profile(cabletron())
    }

    /// Which stack the nodes run.
    pub fn model(mut self, model: ModelKind) -> Self {
        self.model = model;
        self
    }

    /// Node placement.
    pub fn topology(mut self, topo: Topology) -> Self {
        self.topo = topo;
        self
    }

    /// The data sink.
    pub fn sink(mut self, sink: NodeId) -> Self {
        self.sink = sink;
        self
    }

    /// The traffic pattern: convergecast (the default), sink-to-all
    /// broadcast, or many-to-many gossip. Broadcast and gossip derive the
    /// sender set themselves — combining them with
    /// [`senders`](Self::senders)/[`senders_auto`](Self::senders_auto) is
    /// a build error.
    pub fn traffic(mut self, pattern: TrafficPattern) -> Self {
        self.pattern = pattern;
        self
    }

    /// Explicit sender set (validated at build: ids must exist, exclude
    /// the sink, and not repeat).
    pub fn senders(mut self, senders: Vec<NodeId>) -> Self {
        self.senders = SenderSpec::Explicit(senders);
        self
    }

    /// Deterministically picks `n` senders at build time, identically
    /// across models and seeds ([`Scenario::pick_senders`]).
    pub fn senders_auto(mut self, n: usize) -> Self {
        self.senders = SenderSpec::Auto(n);
        self
    }

    /// Low-power radio profile.
    pub fn low_profile(mut self, p: RadioProfile) -> Self {
        self.low_profile = p;
        self
    }

    /// Low radio sleep schedule: [`SleepSchedule::AlwaysOn`] (the
    /// default, bit-identical to the pre-LPL simulator) or low-power
    /// listening. `build()` checks `sample < wake_interval` and
    /// `preamble >= wake_interval`.
    pub fn low_sleep(mut self, schedule: SleepSchedule) -> Self {
        self.low_sleep = schedule;
        self
    }

    /// High-power radio profile.
    pub fn high_profile(mut self, p: RadioProfile) -> Self {
        self.high_profile = p;
        self
    }

    /// Per-sender offered load in bits per second.
    pub fn rate_bps(mut self, rate: f64) -> Self {
        self.rate_bps = rate;
        self
    }

    /// Arrival process of each sender.
    pub fn workload(mut self, w: WorkloadKind) -> Self {
        self.workload = w;
        self
    }

    /// Application packet payload in bytes.
    pub fn packet_bytes(mut self, bytes: usize) -> Self {
        self.packet_bytes = bytes;
        self
    }

    /// Simulated duration.
    pub fn duration(mut self, d: SimDuration) -> Self {
        self.duration = d;
        self
    }

    /// Full BCP parameter block (replaces any earlier
    /// [`burst_packets`](Self::burst_packets)).
    pub fn bcp(mut self, bcp: BcpConfig) -> Self {
        self.bcp = bcp;
        self.burst_packets = None;
        self
    }

    /// The paper's burst-size sweep parameter: the BCP threshold becomes
    /// `n × packet_bytes` at build time.
    pub fn burst_packets(mut self, n: usize) -> Self {
        self.burst_packets = Some(n);
        self
    }

    /// Channel loss processes (low radio, high radio).
    pub fn loss(mut self, low: LossModel, high: LossModel) -> Self {
        self.loss_low = low;
        self.loss_high = high;
        self
    }

    /// Physical link model: [`PhysModel::Disk`] (the default) or
    /// received-power with log-normal shadowing. `build()` checks the
    /// log-normal parameters and that both radios have the positive
    /// tx−sensitivity headroom the path-loss calibration needs.
    pub fn phys(mut self, phys: PhysModel) -> Self {
        self.phys = phys;
        self
    }

    /// High-radio routing mode.
    pub fn high_route(mut self, mode: HighRoute) -> Self {
        self.high_route = mode;
        self
    }

    /// Grace period before an idle released high radio powers off.
    pub fn off_linger(mut self, linger: SimDuration) -> Self {
        self.off_linger = linger;
        self
    }

    /// Stops traffic generation at `cutoff`; `flush` empties BCP buffers
    /// then (the prototype's "send exactly N messages" mode).
    pub fn traffic_cutoff(mut self, cutoff: SimDuration, flush: bool) -> Self {
        self.traffic_cutoff = Some(cutoff);
        self.flush_at_cutoff = flush;
        self
    }

    /// Full power configuration.
    pub fn power(mut self, power: PowerConfig) -> Self {
        self.power = power;
        self
    }

    /// Every non-sink node gets a copy of `battery` (shorthand for
    /// [`power`](Self::power) with [`PowerConfig::with_battery`]).
    pub fn battery(mut self, battery: Battery) -> Self {
        self.power = PowerConfig::with_battery(battery);
        self
    }

    /// How routes weigh paths.
    pub fn route_weight(mut self, weight: RouteWeight) -> Self {
        self.route_weight = weight;
        self
    }

    /// Multi-core world shards (`0` is treated as `1`; more shards than
    /// nodes is a build error).
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Link turnaround latencies (low radio, high radio); both must stay
    /// positive — they are the conservative engine's lookahead.
    pub fn link_latency(mut self, low: SimDuration, high: SimDuration) -> Self {
        self.link_latency_low = low;
        self.link_latency_high = high;
        self
    }

    /// Master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Validates everything and produces the scenario.
    pub fn build(self) -> Result<Scenario, SpecError> {
        let nodes = self.topo.len();
        if nodes == 0 {
            return Err(SpecError::EmptyTopology);
        }
        if self.sink.index() >= nodes {
            return Err(SpecError::SinkOutOfRange {
                sink: self.sink.0,
                nodes,
            });
        }
        // Broadcast/gossip own the sender set; an explicit one on top is a
        // contradiction, not an override.
        let senders_configured = match &self.senders {
            SenderSpec::Auto(_) => true,
            SenderSpec::Explicit(list) => !list.is_empty(),
        };
        if !self.pattern.is_converge() && senders_configured {
            return Err(SpecError::SendersConflictWithTraffic);
        }
        let senders = match self.pattern {
            TrafficPattern::Converge => match &self.senders {
                SenderSpec::Auto(0) => return Err(SpecError::NoSenders),
                SenderSpec::Auto(n) => {
                    let available = nodes - 1;
                    if *n > available {
                        return Err(SpecError::TooManySenders {
                            requested: *n,
                            available,
                        });
                    }
                    Scenario::pick_senders(&self.topo, self.sink, *n)
                }
                SenderSpec::Explicit(list) => {
                    if list.is_empty() {
                        return Err(SpecError::NoSenders);
                    }
                    let mut seen = std::collections::HashSet::new();
                    for &s in list {
                        if s.index() >= nodes {
                            return Err(SpecError::SenderOutOfRange { sender: s.0, nodes });
                        }
                        if s == self.sink {
                            return Err(SpecError::SenderIsSink { sender: s.0 });
                        }
                        if !seen.insert(s) {
                            return Err(SpecError::DuplicateSender { sender: s.0 });
                        }
                    }
                    list.clone()
                }
            },
            TrafficPattern::Broadcast { source } => {
                if source.index() >= nodes {
                    return Err(SpecError::TrafficSourceOutOfRange {
                        source: source.0,
                        nodes,
                    });
                }
                if nodes < 2 {
                    return Err(SpecError::InvalidTraffic {
                        reason: "broadcast needs at least one recipient besides the source".into(),
                    });
                }
                vec![source]
            }
            TrafficPattern::Gossip { pairs, seed } => {
                if pairs == 0 {
                    return Err(SpecError::InvalidTraffic {
                        reason: "gossip needs at least one pair".into(),
                    });
                }
                if nodes < 2 {
                    return Err(SpecError::InvalidTraffic {
                        reason: "gossip needs at least two nodes".into(),
                    });
                }
                let available = nodes - 1;
                if pairs > available {
                    return Err(SpecError::TooManySenders {
                        requested: pairs,
                        available,
                    });
                }
                TrafficPattern::gossip_flows(nodes, self.sink, pairs, seed)
                    .into_iter()
                    .map(|(s, _)| s)
                    .collect()
            }
        };
        if !(self.rate_bps.is_finite() && self.rate_bps > 0.0) {
            return Err(SpecError::InvalidRate {
                rate_bps: self.rate_bps,
            });
        }
        if let WorkloadKind::BurstyAudio {
            mean_on_s,
            mean_off_s,
        } = self.workload
        {
            for (name, v) in [("mean_on_s", mean_on_s), ("mean_off_s", mean_off_s)] {
                if !(v.is_finite() && v > 0.0) {
                    return Err(SpecError::InvalidWorkload {
                        reason: format!("{name} must be positive and finite, got {v}"),
                    });
                }
            }
        }
        let mut bcp = self.bcp;
        if let Some(n) = self.burst_packets {
            if n == 0 {
                return Err(SpecError::InvalidBcp {
                    reason: "burst_packets must be positive".into(),
                });
            }
            if self.packet_bytes == 0 {
                return Err(SpecError::InvalidPacketBytes {
                    bytes: 0,
                    max: self.low_profile.max_payload.min(bcp.frame_payload),
                });
            }
            bcp = bcp.with_burst_packets(n, self.packet_bytes);
        }
        let max_packet = self.low_profile.max_payload.min(bcp.frame_payload);
        if self.packet_bytes == 0 || self.packet_bytes > max_packet {
            return Err(SpecError::InvalidPacketBytes {
                bytes: self.packet_bytes,
                max: max_packet,
            });
        }
        if self.duration.is_zero() {
            return Err(SpecError::ZeroDuration);
        }
        if bcp.frame_payload == 0 {
            return Err(SpecError::InvalidBcp {
                reason: "frame_payload must be positive".into(),
            });
        }
        if bcp.threshold_bytes == 0 {
            return Err(SpecError::InvalidBcp {
                reason: "threshold_bytes must be positive".into(),
            });
        }
        if bcp.threshold_bytes > bcp.buffer_cap_bytes {
            return Err(SpecError::BurstExceedsBuffer {
                threshold_bytes: bcp.threshold_bytes,
                buffer_cap_bytes: bcp.buffer_cap_bytes,
            });
        }
        if bcp.wakeup_attempts < 1 {
            return Err(SpecError::InvalidBcp {
                reason: "wakeup_attempts must be at least 1".into(),
            });
        }
        if bcp.max_burst_bytes < bcp.frame_payload {
            return Err(SpecError::InvalidBcp {
                reason: format!(
                    "max_burst_bytes {} below one frame payload {}",
                    bcp.max_burst_bytes, bcp.frame_payload
                ),
            });
        }
        if bcp.wakeup_ack_timeout.is_zero() || bcp.receiver_data_timeout.is_zero() {
            return Err(SpecError::InvalidBcp {
                reason: "handshake timeouts must be positive".into(),
            });
        }
        if let Some(b) = bcp.delay_bound {
            if b.is_zero() {
                return Err(SpecError::InvalidBcp {
                    reason: "delay_bound must be positive when set".into(),
                });
            }
        }
        if let SleepSchedule::Lpl {
            wake_interval,
            sample,
            preamble,
        } = self.low_sleep
        {
            if wake_interval.is_zero() {
                return Err(SpecError::InvalidSleepSchedule {
                    reason: "wake_interval must be positive".into(),
                });
            }
            if sample.is_zero() {
                return Err(SpecError::InvalidSleepSchedule {
                    reason: "sample must be positive".into(),
                });
            }
            if sample >= wake_interval {
                return Err(SpecError::SleepSampleExceedsInterval {
                    sample,
                    wake_interval,
                });
            }
            if preamble < wake_interval {
                return Err(SpecError::SleepPreambleTooShort {
                    preamble,
                    wake_interval,
                });
            }
        }
        if self.link_latency_low.is_zero() {
            return Err(SpecError::NonPositiveLinkLatency { class: "low" });
        }
        if self.link_latency_high.is_zero() {
            return Err(SpecError::NonPositiveLinkLatency { class: "high" });
        }
        if self.shards > nodes {
            return Err(SpecError::TooManyShards {
                shards: self.shards,
                nodes,
            });
        }
        let has_battery = self.power.battery.is_some() || !self.power.overrides.is_empty();
        if self.route_weight == RouteWeight::MaxMinResidual && !has_battery {
            return Err(SpecError::EnergyAwareWithoutBattery);
        }
        if let PhysModel::LogNormal {
            path_loss_exp,
            sigma_db,
            ..
        } = self.phys
        {
            if !(path_loss_exp.is_finite() && path_loss_exp > 0.0) {
                return Err(SpecError::InvalidPhys {
                    reason: format!(
                        "path_loss_exp must be positive and finite, got {path_loss_exp}"
                    ),
                });
            }
            if !(sigma_db.is_finite() && sigma_db >= 0.0) {
                return Err(SpecError::InvalidPhys {
                    reason: format!("sigma_db must be >= 0 and finite, got {sigma_db}"),
                });
            }
            for (class, p) in [("low", &self.low_profile), ("high", &self.high_profile)] {
                if p.tx_power_dbm <= p.rx_sensitivity_dbm
                    || p.rx_sensitivity_dbm <= p.noise_floor_dbm
                {
                    return Err(SpecError::InvalidPhys {
                        reason: format!(
                            "{class} profile `{}` link budget must satisfy \
                             tx ({}) > sensitivity ({}) > noise floor ({}) dBm",
                            p.name, p.tx_power_dbm, p.rx_sensitivity_dbm, p.noise_floor_dbm
                        ),
                    });
                }
            }
        }
        Ok(Scenario {
            model: self.model,
            topo: self.topo,
            sink: self.sink,
            pattern: self.pattern,
            senders,
            low_profile: self.low_profile,
            low_sleep: self.low_sleep,
            high_profile: self.high_profile,
            rate_bps: self.rate_bps,
            workload: self.workload,
            packet_bytes: self.packet_bytes,
            duration: self.duration,
            bcp,
            loss_low: self.loss_low,
            loss_high: self.loss_high,
            phys: self.phys,
            high_route: self.high_route,
            off_linger: self.off_linger,
            traffic_cutoff: self.traffic_cutoff,
            flush_at_cutoff: self.flush_at_cutoff,
            power: self.power,
            route_weight: self.route_weight,
            shards: self.shards,
            link_latency_low: self.link_latency_low,
            link_latency_high: self.link_latency_high,
            seed: self.seed,
        })
    }
}

// ── the .scn text format ────────────────────────────────────────────────

/// Formats an `f64` so it parses back to the identical bits (Rust's
/// shortest round-trip representation).
fn f(x: f64) -> String {
    format!("{x:?}")
}

/// Formats a duration as fractional seconds (exact for spans well beyond
/// any simulated horizon).
fn dur_s(d: SimDuration) -> String {
    f(d.as_secs_f64())
}

/// Formats a duration as fractional milliseconds — the natural unit of
/// LPL timing. `nanos / 1e6` then back via `round(ms · 1e6)` is exact for
/// any span under ~52 days, so the round trip is the identity.
fn dur_ms(d: SimDuration) -> String {
    f(d.as_nanos() as f64 / 1e6)
}

/// Serialises a scenario to the canonical `.scn` text.
///
/// Returns [`SpecError::Unrepresentable`] for configurations the format
/// cannot express: hand-built radio profiles (anything beyond a Table 1
/// profile with a range override), partially drained batteries, or a
/// Gilbert–Elliott loss process captured mid-burst.
pub fn emit_spec(s: &Scenario) -> Result<String, SpecError> {
    let mut out = String::new();
    let mut kv = |k: &str, v: String| {
        out.push_str(k);
        out.push_str(" = ");
        out.push_str(&v);
        out.push('\n');
    };
    kv("model", model_key(s.model).into());
    kv("topo", emit_topo(&s.topo));
    kv("sink", s.sink.0.to_string());
    kv("traffic", emit_traffic(&s.pattern));
    // Broadcast/gossip derive their sender sets; emitting one would make
    // the canonical text fail its own re-parse.
    if s.pattern.is_converge() {
        kv(
            "senders",
            s.senders
                .iter()
                .map(|n| n.0.to_string())
                .collect::<Vec<_>>()
                .join(","),
        );
    }
    let (low_key, low_range) = profile_key(&s.low_profile)?;
    kv("low_profile", low_key.into());
    if let Some(r) = low_range {
        kv("low_range_m", f(r));
    }
    kv("low_sleep", emit_sleep(&s.low_sleep));
    let (high_key, high_range) = profile_key(&s.high_profile)?;
    kv("high_profile", high_key.into());
    if let Some(r) = high_range {
        kv("high_range_m", f(r));
    }
    kv("rate_bps", f(s.rate_bps));
    kv("workload", emit_workload(&s.workload));
    kv("packet_bytes", s.packet_bytes.to_string());
    kv("duration_s", dur_s(s.duration));
    kv("threshold_bytes", s.bcp.threshold_bytes.to_string());
    kv("frame_payload", s.bcp.frame_payload.to_string());
    kv("buffer_cap_bytes", s.bcp.buffer_cap_bytes.to_string());
    kv("wakeup_ack_timeout_s", dur_s(s.bcp.wakeup_ack_timeout));
    kv("wakeup_attempts", s.bcp.wakeup_attempts.to_string());
    kv(
        "receiver_data_timeout_s",
        dur_s(s.bcp.receiver_data_timeout),
    );
    kv("max_burst_bytes", s.bcp.max_burst_bytes.to_string());
    if let Some(b) = s.bcp.delay_bound {
        kv("delay_bound_s", dur_s(b));
    }
    kv("min_grant_bytes", s.bcp.min_grant_bytes.to_string());
    kv("loss_low", emit_loss(&s.loss_low));
    kv("loss_high", emit_loss(&s.loss_high));
    kv("phys", emit_phys(&s.phys));
    kv("high_route", emit_high_route(&s.high_route));
    kv("off_linger_s", dur_s(s.off_linger));
    if let Some(c) = s.traffic_cutoff {
        kv("traffic_cutoff_s", dur_s(c));
    }
    kv("flush_at_cutoff", s.flush_at_cutoff.to_string());
    kv(
        "battery",
        match &s.power.battery {
            None => "none".into(),
            Some(b) => emit_battery(b)?,
        },
    );
    kv("sink_unlimited", s.power.sink_unlimited.to_string());
    if let Some(r) = s.power.reroute_every {
        kv("reroute_every_s", dur_s(r));
    }
    for (idx, b) in &s.power.overrides {
        kv("node_battery", format!("{idx}:{}", emit_battery(b)?));
    }
    kv(
        "route_weight",
        match s.route_weight {
            RouteWeight::ShortestHop => "shortest_hop".into(),
            RouteWeight::MaxMinResidual => "max_min_residual".into(),
        },
    );
    kv("shards", s.shards.to_string());
    kv("link_latency_low_s", dur_s(s.link_latency_low));
    kv("link_latency_high_s", dur_s(s.link_latency_high));
    kv("seed", s.seed.to_string());
    Ok(out)
}

/// Parses `.scn` text into a fully validated [`Scenario`].
///
/// Accepts keys in any order (later lines win), `#` comments and blank
/// lines; rejects unknown keys. All builder validation applies, so a
/// parseable-but-incoherent file still fails with the precise invariant.
pub fn parse_spec(text: &str) -> Result<Scenario, SpecError> {
    let mut b = ScenarioBuilder::new();
    // Profiles resolve last so `low_profile` / `low_range_m` may appear in
    // either order; power assembles from up to four keys.
    let mut low_key: Option<(String, usize)> = None;
    let mut high_key: Option<(String, usize)> = None;
    let mut low_range: Option<f64> = None;
    let mut high_range: Option<f64> = None;
    let mut power = PowerConfig::unlimited();
    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = match raw.find('#') {
            Some(p) => &raw[..p],
            None => raw,
        }
        .trim();
        if line.is_empty() {
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(SpecError::Parse {
                line: line_no,
                reason: format!("expected `key = value`, got `{line}`"),
            });
        };
        let (key, value) = (key.trim(), value.trim());
        match key {
            "model" => {
                b.model = match value {
                    "sensor" => ModelKind::Sensor,
                    "dot11" => ModelKind::Dot11,
                    "dual_radio" => ModelKind::DualRadio,
                    other => {
                        return Err(SpecError::Parse {
                            line: line_no,
                            reason: format!(
                                "unknown model `{other}` (sensor | dot11 | dual_radio)"
                            ),
                        })
                    }
                }
            }
            "topo" => b.topo = parse_topo(value, line_no)?,
            "sink" => b.sink = NodeId(p_num::<u32>(value, line_no)?),
            "traffic" => b.pattern = parse_traffic(value, line_no)?,
            "senders" => {
                b.senders = if let Some(n) = value.strip_prefix("auto:") {
                    SenderSpec::Auto(p_num::<usize>(n, line_no)?)
                } else {
                    let ids = value
                        .split(',')
                        .map(|s| Ok(NodeId(p_num::<u32>(s, line_no)?)))
                        .collect::<Result<Vec<_>, SpecError>>()?;
                    SenderSpec::Explicit(ids)
                }
            }
            "low_profile" => low_key = Some((value.to_string(), line_no)),
            "low_sleep" => b.low_sleep = parse_sleep(value, line_no)?,
            "high_profile" => high_key = Some((value.to_string(), line_no)),
            "low_range_m" => low_range = Some(p_pos_f64(value, line_no)?),
            "high_range_m" => high_range = Some(p_pos_f64(value, line_no)?),
            "rate_bps" => b.rate_bps = p_f64(value, line_no)?,
            "workload" => b.workload = parse_workload(value, line_no)?,
            "packet_bytes" => b.packet_bytes = p_num::<usize>(value, line_no)?,
            "duration_s" => b.duration = p_dur(value, line_no)?,
            "threshold_bytes" => b.bcp.threshold_bytes = p_num::<usize>(value, line_no)?,
            "frame_payload" => b.bcp.frame_payload = p_num::<usize>(value, line_no)?,
            "buffer_cap_bytes" => b.bcp.buffer_cap_bytes = p_num::<usize>(value, line_no)?,
            "wakeup_ack_timeout_s" => b.bcp.wakeup_ack_timeout = p_dur(value, line_no)?,
            "wakeup_attempts" => b.bcp.wakeup_attempts = p_num::<u32>(value, line_no)?,
            "receiver_data_timeout_s" => b.bcp.receiver_data_timeout = p_dur(value, line_no)?,
            "max_burst_bytes" => b.bcp.max_burst_bytes = p_num::<usize>(value, line_no)?,
            "delay_bound_s" => b.bcp.delay_bound = Some(p_dur(value, line_no)?),
            "min_grant_bytes" => b.bcp.min_grant_bytes = p_num::<usize>(value, line_no)?,
            "burst_packets" => b.burst_packets = Some(p_num::<usize>(value, line_no)?),
            "loss_low" => b.loss_low = parse_loss(value, line_no)?,
            "loss_high" => b.loss_high = parse_loss(value, line_no)?,
            "phys" => b.phys = parse_phys(value, line_no)?,
            "high_route" => b.high_route = parse_high_route(value, line_no)?,
            "off_linger_s" => b.off_linger = p_dur(value, line_no)?,
            "traffic_cutoff_s" => b.traffic_cutoff = Some(p_dur(value, line_no)?),
            "flush_at_cutoff" => b.flush_at_cutoff = p_bool(value, line_no)?,
            "battery" => {
                power.battery = if value == "none" {
                    None
                } else {
                    Some(parse_battery(value, line_no)?)
                }
            }
            "sink_unlimited" => power.sink_unlimited = p_bool(value, line_no)?,
            "reroute_every_s" => power.reroute_every = Some(p_dur(value, line_no)?),
            "node_battery" => {
                let Some((idx, rest)) = value.split_once(':') else {
                    return Err(SpecError::Parse {
                        line: line_no,
                        reason: format!("expected `<node>:<battery>`, got `{value}`"),
                    });
                };
                let idx = p_num::<usize>(idx, line_no)?;
                let battery = parse_battery(rest, line_no)?;
                power.overrides.retain(|(i, _)| *i != idx);
                power.overrides.push((idx, battery));
            }
            "route_weight" => {
                b.route_weight = match value {
                    "shortest_hop" => RouteWeight::ShortestHop,
                    "max_min_residual" => RouteWeight::MaxMinResidual,
                    other => {
                        return Err(SpecError::Parse {
                            line: line_no,
                            reason: format!(
                                "unknown route_weight `{other}` \
                                 (shortest_hop | max_min_residual)"
                            ),
                        })
                    }
                }
            }
            "shards" => b.shards = p_num::<usize>(value, line_no)?.max(1),
            "link_latency_low_s" => b.link_latency_low = p_dur(value, line_no)?,
            "link_latency_high_s" => b.link_latency_high = p_dur(value, line_no)?,
            "seed" => b.seed = p_num::<u64>(value, line_no)?,
            other => {
                return Err(SpecError::Parse {
                    line: line_no,
                    reason: format!("unknown key `{other}`"),
                })
            }
        }
    }
    if let Some((key, line)) = low_key {
        b.low_profile = profile_by_key(&key, line)?;
    }
    if let Some(r) = low_range {
        b.low_profile = b.low_profile.with_range(r);
    }
    if let Some((key, line)) = high_key {
        b.high_profile = profile_by_key(&key, line)?;
    }
    if let Some(r) = high_range {
        b.high_profile = b.high_profile.with_range(r);
    }
    b.power = power;
    b.build()
}

fn model_key(m: ModelKind) -> &'static str {
    match m {
        ModelKind::Sensor => "sensor",
        ModelKind::Dot11 => "dot11",
        ModelKind::DualRadio => "dual_radio",
    }
}

/// A named profile constructor.
type ProfileCtor = fn() -> RadioProfile;

/// The named Table 1 profiles the format can express.
const PROFILES: [(&str, ProfileCtor); 7] = [
    ("micaz", micaz),
    ("mica", mica),
    ("mica2", mica2),
    ("cc2420", cc2420),
    ("cabletron", cabletron),
    ("lucent_2m", lucent_2m),
    ("lucent_11m", lucent_11m),
];

fn profile_by_key(key: &str, line: usize) -> Result<RadioProfile, SpecError> {
    PROFILES
        .iter()
        .find(|(k, _)| *k == key)
        .map(|(_, make)| make())
        .ok_or_else(|| SpecError::Parse {
            line,
            reason: format!(
                "unknown radio profile `{key}` (one of: {})",
                PROFILES.map(|(k, _)| k).join(", ")
            ),
        })
}

/// Maps a profile back to its `.scn` key plus an optional range override.
fn profile_key(p: &RadioProfile) -> Result<(&'static str, Option<f64>), SpecError> {
    for (key, make) in PROFILES {
        let base = make();
        if base.name == p.name {
            let range = (base.range_m != p.range_m).then_some(p.range_m);
            return if base.with_range(p.range_m) == *p {
                Ok((key, range))
            } else {
                Err(SpecError::Unrepresentable {
                    what: format!(
                        "radio profile `{}` differs from the Table 1 profile beyond \
                         its range (custom framing/wakeup/power are not expressible)",
                        p.name
                    ),
                })
            };
        }
    }
    Err(SpecError::Unrepresentable {
        what: format!("radio profile `{}` is not a named Table 1 profile", p.name),
    })
}

fn emit_topo(t: &Topology) -> String {
    let n = t.len();
    // Prefer the generator form when the positions provably match one.
    if n > 1 {
        let side = (n as f64).sqrt().round() as usize;
        if side >= 2 && side * side == n {
            let spacing = t.position(NodeId(1)).x;
            if spacing > 0.0 && *t == Topology::grid(side, spacing) {
                return format!("grid:{side}:{}", f(spacing));
            }
        }
        let spacing = t.position(NodeId(1)).x;
        if spacing > 0.0 && *t == Topology::line(n, spacing) {
            return format!("line:{n}:{}", f(spacing));
        }
    }
    let pts = t
        .nodes()
        .map(|id| {
            let p = t.position(id);
            format!("{},{}", f(p.x), f(p.y))
        })
        .collect::<Vec<_>>()
        .join(";");
    format!("points:{pts}")
}

fn parse_topo(value: &str, line: usize) -> Result<Topology, SpecError> {
    let bad = |reason: String| SpecError::Parse { line, reason };
    // Checked before anything is allocated: a refused count never
    // reaches a `Vec::with_capacity`.
    let budget = |nodes: usize| {
        if nodes > MAX_NODES {
            Err(SpecError::TooManyNodes {
                line,
                nodes,
                max: MAX_NODES,
            })
        } else {
            Ok(())
        }
    };
    if let Some(rest) = value.strip_prefix("grid:") {
        let (side, spacing) = rest
            .split_once(':')
            .ok_or_else(|| bad(format!("expected `grid:<side>:<spacing_m>`, got `{value}`")))?;
        let side = p_num::<usize>(side, line)?;
        let spacing = p_pos_f64(spacing, line)?;
        if side == 0 {
            return Err(bad("grid side must be positive".into()));
        }
        budget(side.saturating_mul(side))?;
        Ok(Topology::grid(side, spacing))
    } else if let Some(rest) = value.strip_prefix("line:") {
        let (n, spacing) = rest
            .split_once(':')
            .ok_or_else(|| bad(format!("expected `line:<n>:<spacing_m>`, got `{value}`")))?;
        let n = p_num::<usize>(n, line)?;
        let spacing = p_pos_f64(spacing, line)?;
        if n == 0 {
            return Err(bad("line length must be positive".into()));
        }
        budget(n)?;
        Ok(Topology::line(n, spacing))
    } else if let Some(rest) = value.strip_prefix("points:") {
        budget(rest.split(';').count())?;
        let mut positions = Vec::new();
        for pt in rest.split(';') {
            let (x, y) = pt
                .split_once(',')
                .ok_or_else(|| bad(format!("expected `<x>,<y>`, got `{pt}`")))?;
            positions.push(Position::new(p_f64(x, line)?, p_f64(y, line)?));
        }
        Ok(Topology::from_positions(positions))
    } else {
        Err(bad(format!(
            "unknown topology `{value}` (grid:<side>:<m> | line:<n>:<m> | points:x,y;…)"
        )))
    }
}

fn emit_traffic(p: &TrafficPattern) -> String {
    match *p {
        TrafficPattern::Converge => "converge".into(),
        TrafficPattern::Broadcast { source } => format!("broadcast:{}", source.0),
        TrafficPattern::Gossip { pairs, seed } => {
            // The canonical pair-draw seed is left implicit.
            if seed == GOSSIP_DEFAULT_SEED {
                format!("gossip:{pairs}")
            } else {
                format!("gossip:{pairs}:{seed}")
            }
        }
    }
}

fn parse_traffic(value: &str, line: usize) -> Result<TrafficPattern, SpecError> {
    if value == "converge" {
        return Ok(TrafficPattern::Converge);
    }
    if let Some(src) = value.strip_prefix("broadcast:") {
        return Ok(TrafficPattern::Broadcast {
            source: NodeId(p_num::<u32>(src, line)?),
        });
    }
    if let Some(rest) = value.strip_prefix("gossip:") {
        return match rest.split_once(':') {
            None => Ok(TrafficPattern::Gossip {
                pairs: p_num::<usize>(rest, line)?,
                seed: GOSSIP_DEFAULT_SEED,
            }),
            Some((pairs, seed)) => Ok(TrafficPattern::Gossip {
                pairs: p_num::<usize>(pairs, line)?,
                seed: p_num::<u64>(seed, line)?,
            }),
        };
    }
    Err(SpecError::Parse {
        line,
        reason: format!(
            "unknown traffic `{value}` (converge | broadcast:<src> | gossip:<n_pairs>[:<seed>])"
        ),
    })
}

fn emit_workload(w: &WorkloadKind) -> String {
    match w {
        WorkloadKind::Cbr => "cbr".into(),
        WorkloadKind::Poisson => "poisson".into(),
        WorkloadKind::BurstyAudio {
            mean_on_s,
            mean_off_s,
        } => format!("bursty:{}:{}", f(*mean_on_s), f(*mean_off_s)),
    }
}

fn parse_workload(value: &str, line: usize) -> Result<WorkloadKind, SpecError> {
    match value {
        "cbr" => Ok(WorkloadKind::Cbr),
        "poisson" => Ok(WorkloadKind::Poisson),
        _ => {
            if let Some(rest) = value.strip_prefix("bursty:") {
                let (on, off) = rest.split_once(':').ok_or_else(|| SpecError::Parse {
                    line,
                    reason: format!("expected `bursty:<mean_on_s>:<mean_off_s>`, got `{value}`"),
                })?;
                Ok(WorkloadKind::BurstyAudio {
                    mean_on_s: p_f64(on, line)?,
                    mean_off_s: p_f64(off, line)?,
                })
            } else {
                Err(SpecError::Parse {
                    line,
                    reason: format!(
                        "unknown workload `{value}` (cbr | poisson | bursty:<on>:<off>)"
                    ),
                })
            }
        }
    }
}

fn emit_sleep(s: &SleepSchedule) -> String {
    match *s {
        SleepSchedule::AlwaysOn => "always_on".into(),
        SleepSchedule::Lpl {
            wake_interval,
            sample,
            preamble,
        } => {
            // The canonical preamble (= wake interval) is left implicit.
            if preamble == wake_interval {
                format!("lpl:{}/{}", dur_ms(wake_interval), dur_ms(sample))
            } else {
                format!(
                    "lpl:{}/{}/{}",
                    dur_ms(wake_interval),
                    dur_ms(sample),
                    dur_ms(preamble)
                )
            }
        }
    }
}

fn parse_sleep(value: &str, line: usize) -> Result<SleepSchedule, SpecError> {
    if value == "always_on" {
        return Ok(SleepSchedule::AlwaysOn);
    }
    if let Some(rest) = value.strip_prefix("lpl:") {
        let parts: Vec<&str> = rest.split('/').collect();
        return match parts.as_slice() {
            [interval, sample] => Ok(SleepSchedule::lpl(
                p_dur_ms(interval, line)?,
                p_dur_ms(sample, line)?,
            )),
            [interval, sample, preamble] => Ok(SleepSchedule::lpl_with_preamble(
                p_dur_ms(interval, line)?,
                p_dur_ms(sample, line)?,
                p_dur_ms(preamble, line)?,
            )),
            _ => Err(SpecError::Parse {
                line,
                reason: format!(
                    "expected `lpl:<interval_ms>/<sample_ms>[/<preamble_ms>]`, got `{value}`"
                ),
            }),
        };
    }
    Err(SpecError::Parse {
        line,
        reason: format!(
            "unknown low_sleep `{value}` (always_on | lpl:<interval_ms>/<sample_ms>[/<preamble_ms>])"
        ),
    })
}

fn emit_loss(l: &LossModel) -> String {
    match l {
        LossModel::Perfect => "perfect".into(),
        LossModel::Bernoulli { p } => format!("bernoulli:{}", f(*p)),
        // Pure config since the LossState split: the mid-burst Markov
        // position lives in the channel (and the snapshot), never here,
        // so a Gilbert–Elliott model is always representable.
        LossModel::GilbertElliott {
            p_g2b,
            p_b2g,
            loss_good,
            loss_bad,
        } => format!(
            "gilbert:{}:{}:{}:{}",
            f(*p_g2b),
            f(*p_b2g),
            f(*loss_good),
            f(*loss_bad)
        ),
    }
}

fn parse_loss(value: &str, line: usize) -> Result<LossModel, SpecError> {
    let p_prob = |v: &str| -> Result<f64, SpecError> {
        let p = p_f64(v, line)?;
        if (0.0..=1.0).contains(&p) {
            Ok(p)
        } else {
            Err(SpecError::Parse {
                line,
                reason: format!("probability {p} out of [0, 1]"),
            })
        }
    };
    if value == "perfect" {
        Ok(LossModel::Perfect)
    } else if let Some(p) = value.strip_prefix("bernoulli:") {
        Ok(LossModel::bernoulli(p_prob(p)?))
    } else if let Some(rest) = value.strip_prefix("gilbert:") {
        let parts: Vec<&str> = rest.split(':').collect();
        if parts.len() != 4 {
            return Err(SpecError::Parse {
                line,
                reason: format!(
                    "expected `gilbert:<p_g2b>:<p_b2g>:<loss_good>:<loss_bad>`, got `{value}`"
                ),
            });
        }
        Ok(LossModel::gilbert_elliott(
            p_prob(parts[0])?,
            p_prob(parts[1])?,
            p_prob(parts[2])?,
            p_prob(parts[3])?,
        ))
    } else {
        Err(SpecError::Parse {
            line,
            reason: format!("unknown loss model `{value}` (perfect | bernoulli:<p> | gilbert:<…>)"),
        })
    }
}

fn emit_phys(p: &PhysModel) -> String {
    match p {
        PhysModel::Disk => "disk".into(),
        PhysModel::LogNormal {
            path_loss_exp,
            sigma_db,
            seed,
        } => match seed {
            None => format!("logn:{}/{}", f(*path_loss_exp), f(*sigma_db)),
            Some(s) => format!("logn:{}/{}/{s}", f(*path_loss_exp), f(*sigma_db)),
        },
    }
}

fn parse_phys(value: &str, line: usize) -> Result<PhysModel, SpecError> {
    if value == "disk" {
        return Ok(PhysModel::Disk);
    }
    if let Some(rest) = value.strip_prefix("logn:") {
        let parts: Vec<&str> = rest.split('/').collect();
        let (exp, sigma, seed) = match parts.as_slice() {
            [exp, sigma] => (*exp, *sigma, None),
            [exp, sigma, seed] => (*exp, *sigma, Some(p_num::<u64>(seed, line)?)),
            _ => {
                return Err(SpecError::Parse {
                    line,
                    reason: format!(
                        "expected `logn:<path_loss_exp>/<sigma_db>[/<seed>]`, got `{value}`"
                    ),
                })
            }
        };
        return Ok(PhysModel::LogNormal {
            path_loss_exp: p_f64(exp, line)?,
            sigma_db: p_f64(sigma, line)?,
            seed,
        });
    }
    Err(SpecError::Parse {
        line,
        reason: format!(
            "unknown phys model `{value}` (disk | logn:<path_loss_exp>/<sigma_db>[/<seed>])"
        ),
    })
}

fn emit_high_route(h: &HighRoute) -> String {
    match h {
        HighRoute::Tree => "tree".into(),
        HighRoute::LowParents { shortcuts, listen } => {
            format!("low_parents:{shortcuts}:{}", dur_s(*listen))
        }
    }
}

fn parse_high_route(value: &str, line: usize) -> Result<HighRoute, SpecError> {
    if value == "tree" {
        return Ok(HighRoute::Tree);
    }
    if let Some(rest) = value.strip_prefix("low_parents:") {
        let (shortcuts, listen) = rest.split_once(':').ok_or_else(|| SpecError::Parse {
            line,
            reason: format!("expected `low_parents:<shortcuts>:<listen_s>`, got `{value}`"),
        })?;
        return Ok(HighRoute::LowParents {
            shortcuts: p_bool(shortcuts, line)?,
            listen: p_dur(listen, line)?,
        });
    }
    Err(SpecError::Parse {
        line,
        reason: format!("unknown high_route `{value}` (tree | low_parents:<bool>:<listen_s>)"),
    })
}

fn emit_battery(b: &Battery) -> Result<String, SpecError> {
    if b.drawn() != bcp_radio::units::Energy::ZERO {
        return Err(SpecError::Unrepresentable {
            what: "a partially drained battery (scenario files describe fresh cells)".into(),
        });
    }
    match b {
        Battery::Ideal(i) => Ok(format!("ideal:{}", f(i.capacity().as_joules()))),
        Battery::Capacity(c) => Ok(format!(
            "mah:{}:{}:{}:{}",
            f(c.rated_mah()),
            f(c.v_full()),
            f(c.v_cutoff()),
            f(c.v_empty())
        )),
    }
}

fn parse_battery(value: &str, line: usize) -> Result<Battery, SpecError> {
    let bad = |reason: String| SpecError::Parse { line, reason };
    if let Some(j) = value.strip_prefix("ideal:") {
        let j = p_f64(j, line)?;
        if !(j.is_finite() && j >= 0.0) {
            return Err(bad(format!("battery capacity must be >= 0 J, got {j}")));
        }
        return Ok(Battery::ideal_joules(j));
    }
    if let Some(rest) = value.strip_prefix("mah:") {
        let parts: Vec<&str> = rest.split(':').collect();
        if parts.len() != 4 {
            return Err(bad(format!(
                "expected `mah:<mah>:<v_full>:<v_cutoff>:<v_empty>`, got `{value}`"
            )));
        }
        let vals = parts
            .iter()
            .map(|v| p_f64(v, line))
            .collect::<Result<Vec<_>, _>>()?;
        let (mah, v_full, v_cutoff, v_empty) = (vals[0], vals[1], vals[2], vals[3]);
        if !(mah > 0.0 && mah.is_finite()) {
            return Err(bad(format!("mah must be positive, got {mah}")));
        }
        if !(v_full > v_cutoff && v_cutoff >= v_empty && v_empty >= 0.0) {
            return Err(bad(format!(
                "need v_full > v_cutoff >= v_empty >= 0, got {v_full}/{v_cutoff}/{v_empty}"
            )));
        }
        return Ok(Battery::from_mah(mah, v_full, v_cutoff, v_empty));
    }
    Err(bad(format!(
        "unknown battery `{value}` (none | ideal:<J> | mah:<mah>:<v_full>:<v_cutoff>:<v_empty>)"
    )))
}

fn p_f64(v: &str, line: usize) -> Result<f64, SpecError> {
    v.trim().parse::<f64>().map_err(|_| SpecError::Parse {
        line,
        reason: format!("expected a number, got `{}`", v.trim()),
    })
}

fn p_pos_f64(v: &str, line: usize) -> Result<f64, SpecError> {
    let x = p_f64(v, line)?;
    if x.is_finite() && x > 0.0 {
        Ok(x)
    } else {
        Err(SpecError::Parse {
            line,
            reason: format!("expected a positive number, got `{x}`"),
        })
    }
}

fn p_num<T: std::str::FromStr>(v: &str, line: usize) -> Result<T, SpecError> {
    v.trim().parse::<T>().map_err(|_| SpecError::Parse {
        line,
        reason: format!("expected an integer, got `{}`", v.trim()),
    })
}

fn p_bool(v: &str, line: usize) -> Result<bool, SpecError> {
    match v.trim() {
        "true" => Ok(true),
        "false" => Ok(false),
        other => Err(SpecError::Parse {
            line,
            reason: format!("expected true/false, got `{other}`"),
        }),
    }
}

/// Parses a duration given in (fractional) milliseconds — the inverse of
/// [`dur_ms`], exact up to ~52 days.
fn p_dur_ms(v: &str, line: usize) -> Result<SimDuration, SpecError> {
    let ms = p_f64(v, line)?;
    if !ms.is_finite() || ms < 0.0 || ms > u64::MAX as f64 / 1e6 {
        return Err(SpecError::Parse {
            line,
            reason: format!("duration out of range: {ms} ms"),
        });
    }
    Ok(SimDuration::from_nanos((ms * 1e6).round() as u64))
}

/// Parses a duration given in (fractional) seconds, rejecting values the
/// nanosecond clock cannot hold.
fn p_dur(v: &str, line: usize) -> Result<SimDuration, SpecError> {
    let secs = p_f64(v, line)?;
    if !secs.is_finite() || secs < 0.0 || secs > u64::MAX as f64 / 1e9 {
        return Err(SpecError::Parse {
            line,
            reason: format!("duration out of range: {secs} s"),
        });
    }
    Ok(SimDuration::from_secs_f64(secs))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_matches_legacy_preset() {
        let legacy = Scenario::single_hop(ModelKind::DualRadio, 10, 500, 7);
        let built = ScenarioBuilder::single_hop(ModelKind::DualRadio, 10, 500, 7)
            .build()
            .expect("preset is valid");
        assert_eq!(legacy, built);
        let legacy_mh = Scenario::multi_hop(ModelKind::Sensor, 5, 10, 3);
        let built_mh = ScenarioBuilder::multi_hop(ModelKind::Sensor, 5, 10, 3)
            .build()
            .expect("preset is valid");
        assert_eq!(legacy_mh, built_mh);
    }

    #[test]
    fn emitted_spec_parses_back_identically() {
        let s = Scenario::multi_hop(ModelKind::DualRadio, 15, 500, 3)
            .with_rate(200.0)
            .with_loss(LossModel::bernoulli(0.1), LossModel::Perfect)
            .with_battery(Battery::aa_pair().scaled(1e-3))
            .with_route_weight(RouteWeight::MaxMinResidual)
            .with_shards(4);
        let text = emit_spec(&s).expect("representable");
        let parsed = parse_spec(&text).expect("parses");
        assert_eq!(parsed, s);
        assert_eq!(emit_spec(&parsed).expect("representable"), text);
    }

    #[test]
    fn minimal_file_runs_on_defaults() {
        let s = parse_spec("senders = auto:5\n").expect("minimal file");
        assert_eq!(s.topo.len(), 36);
        assert_eq!(s.senders.len(), 5);
        assert_eq!(s.model, ModelKind::DualRadio);
        assert_eq!(
            s.bcp.threshold_bytes,
            BcpConfig::paper_defaults().threshold_bytes
        );
    }

    #[test]
    fn comments_blank_lines_and_any_order() {
        let s = parse_spec(
            "# a scenario\n\nburst_packets = 100   # the sweep knob\nmodel = sensor\n\
             senders = 2,3,5\nseed = 9\n",
        )
        .expect("parses");
        assert_eq!(s.model, ModelKind::Sensor);
        assert_eq!(s.senders, vec![NodeId(2), NodeId(3), NodeId(5)]);
        assert_eq!(s.bcp.threshold_bytes, 100 * 32);
        assert_eq!(s.seed, 9);
    }

    #[test]
    fn unknown_keys_and_garbage_are_rejected_with_line_numbers() {
        let err = parse_spec("senders = auto:5\nfrobnicate = 3\n").unwrap_err();
        assert_eq!(
            err,
            SpecError::Parse {
                line: 2,
                reason: "unknown key `frobnicate`".into()
            }
        );
        let err = parse_spec("not a kv line\n").unwrap_err();
        assert!(matches!(err, SpecError::Parse { line: 1, .. }));
        let msg = parse_spec("senders = auto:bogus\n")
            .unwrap_err()
            .to_string();
        assert!(msg.contains("line 1"), "message carries the line: {msg}");
    }

    #[test]
    fn topologies_round_trip_through_every_form() {
        for topo in [
            Topology::grid(6, 40.0),
            Topology::grid(3, 17.5),
            Topology::line(9, 12.25),
            Topology::from_positions(vec![
                Position::new(0.0, 0.0),
                Position::new(3.5, -1.25),
                Position::new(10.0, 99.0),
            ]),
        ] {
            let text = emit_topo(&topo);
            let back = parse_topo(&text, 1).expect("parses");
            assert_eq!(back, topo, "{text}");
        }
        // The generator forms stay human-readable.
        assert_eq!(emit_topo(&Topology::grid(6, 40.0)), "grid:6:40.0");
        assert_eq!(emit_topo(&Topology::line(9, 12.25)), "line:9:12.25");
    }

    #[test]
    fn hand_built_profile_is_unrepresentable() {
        let mut s = Scenario::single_hop(ModelKind::DualRadio, 5, 100, 1);
        s.high_profile = lucent_11m().with_framing(512, 64);
        let err = emit_spec(&s).unwrap_err();
        assert!(matches!(err, SpecError::Unrepresentable { .. }), "{err}");
        // A plain range override, by contrast, is fine.
        let mut s = Scenario::single_hop(ModelKind::DualRadio, 5, 100, 1);
        s.high_profile = cabletron().with_range(100.0);
        let text = emit_spec(&s).expect("range override is expressible");
        assert!(text.contains("high_range_m = 100.0"));
        assert_eq!(parse_spec(&text).expect("parses"), s);
    }

    #[test]
    fn phys_round_trips_through_every_form() {
        for phys in [
            PhysModel::Disk,
            PhysModel::LogNormal {
                path_loss_exp: 3.0,
                sigma_db: 6.5,
                seed: None,
            },
            PhysModel::LogNormal {
                path_loss_exp: 2.25,
                sigma_db: 0.0,
                seed: Some(42),
            },
        ] {
            let s = Scenario::single_hop(ModelKind::DualRadio, 5, 100, 1).with_phys(phys);
            let text = emit_spec(&s).expect("representable");
            let parsed = parse_spec(&text).expect("parses");
            assert_eq!(parsed, s, "{}", emit_phys(&phys));
            assert_eq!(emit_spec(&parsed).expect("representable"), text);
        }
        assert_eq!(
            emit_phys(&PhysModel::LogNormal {
                path_loss_exp: 3.0,
                sigma_db: 6.5,
                seed: Some(7),
            }),
            "logn:3.0/6.5/7"
        );
    }

    #[test]
    fn phys_grammar_rejects_garbage_and_bad_parameters() {
        let err = parse_spec("senders = auto:5\nphys = friis\n").unwrap_err();
        assert!(matches!(err, SpecError::Parse { line: 2, .. }), "{err}");
        let err = parse_spec("senders = auto:5\nphys = logn:3.0\n").unwrap_err();
        assert!(matches!(err, SpecError::Parse { line: 2, .. }), "{err}");
        // Parametrically wrong (but grammatical) models fail as typed
        // build errors, not parse errors.
        let err = parse_spec("senders = auto:5\nphys = logn:0.0/6.0\n").unwrap_err();
        assert!(matches!(err, SpecError::InvalidPhys { .. }), "{err}");
        let err = parse_spec("senders = auto:5\nphys = logn:3.0/-1.0\n").unwrap_err();
        assert!(matches!(err, SpecError::InvalidPhys { .. }), "{err}");
        assert!(err.to_string().contains("sigma_db"), "{err}");
    }

    #[test]
    fn gilbert_loss_is_always_representable_since_the_state_split() {
        // Before the LossState split, a mid-burst Gilbert–Elliott model
        // made the scenario unrepresentable; now the model is pure config.
        let s = Scenario::single_hop(ModelKind::DualRadio, 5, 100, 1).with_loss(
            LossModel::gilbert_elliott(0.1, 0.3, 0.01, 0.5),
            LossModel::Perfect,
        );
        let text = emit_spec(&s).expect("representable");
        assert!(text.contains("loss_low = gilbert:0.1:0.3:0.01:0.5"));
        assert_eq!(parse_spec(&text).expect("parses"), s);
    }

    #[test]
    fn spec_errors_render_actionable_messages() {
        let err = ScenarioBuilder::new().build().unwrap_err();
        assert_eq!(err, SpecError::NoSenders);
        assert!(err.to_string().contains("senders"));
        let err = ScenarioBuilder::new()
            .senders_auto(5)
            .shards(100)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("shards must be <= nodes"), "{err}");
    }
}
