//! Scenario configuration: everything that parameterises one run.

use bcp_core::config::BcpConfig;
use bcp_mac::sleep::SleepSchedule;
use bcp_net::addr::NodeId;
use bcp_net::loss::LossModel;
use bcp_net::propagation::PhysModel;
use bcp_net::routing::RouteWeight;
use bcp_net::topo::Topology;
use bcp_power::{Battery, PowerConfig};
use bcp_radio::profile::RadioProfile;
use bcp_sim::rng::Rng;
use bcp_sim::time::{SimDuration, SimTime};
use bcp_traffic::{TrafficPattern, Workload};

/// Which of the paper's three evaluation models to simulate (Section 4:
/// "(1) Sensor model ... (2) IEEE 802.11 model ... (3) Dual-radio model").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// Pure sensor network: data trickles hop-by-hop over the low radio.
    Sensor,
    /// Pure 802.11 network: every node's high radio is always on.
    Dot11,
    /// BCP: low radio for control, bulk bursts over the high radio.
    DualRadio,
}

/// How dual-radio data picks its high-radio next hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HighRoute {
    /// The separately built shortest-hop tree over the high radio's range
    /// (the evaluation's "two separate trees ... to decouple the routing
    /// effects").
    Tree,
    /// Section 3's route optimization: start from the low-radio parents and
    /// learn shortcuts by overhearing own packets being forwarded.
    LowParents {
        /// Whether shortcut learning is enabled (off = pure low-parent
        /// relaying, the ablation baseline).
        shortcuts: bool,
        /// How long the sender's high radio listens after its burst to
        /// overhear forwarding (energy is charged honestly).
        listen: SimDuration,
    },
}

/// The shape of each sender's offered traffic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WorkloadKind {
    /// Constant bit rate at the scenario's `rate_bps` (the paper's mode).
    Cbr,
    /// Poisson arrivals with the same mean rate.
    Poisson,
    /// EnviroMic-style audio capture: ON/OFF bursts whose ON-rate is
    /// `rate_bps / duty`, preserving the same mean offered load.
    BurstyAudio {
        /// Mean ON duration in seconds.
        mean_on_s: f64,
        /// Mean OFF duration in seconds.
        mean_off_s: f64,
    },
}

/// Full parameterisation of one simulation run.
///
/// Prefer constructing scenarios through the validating
/// [`ScenarioBuilder`](crate::spec::ScenarioBuilder) (or a `.scn` file via
/// [`parse_spec`](crate::spec::parse_spec)); the `with_*` setters below
/// mutate without validation and exist for backwards compatibility and
/// tests that deliberately build broken configurations.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Which stack the nodes run.
    pub model: ModelKind,
    /// Node placement.
    pub topo: Topology,
    /// The data sink.
    pub sink: NodeId,
    /// Which way application data flows: convergecast to the sink (the
    /// paper's workloads and the default), sink-to-all broadcast, or
    /// many-to-many gossip. Non-converge patterns fix `senders` — prefer
    /// [`ScenarioBuilder::traffic`](crate::spec::ScenarioBuilder::traffic),
    /// which derives and validates them.
    pub pattern: TrafficPattern,
    /// Sending nodes. For [`TrafficPattern::Broadcast`] this is the
    /// source alone; for [`TrafficPattern::Gossip`] the drawn flow
    /// sources.
    pub senders: Vec<NodeId>,
    /// Low-power radio profile (MicaZ in the paper's simulations).
    pub low_profile: RadioProfile,
    /// When the low radio may doze: [`SleepSchedule::AlwaysOn`] (the
    /// paper's setting — bit-identical to the pre-LPL simulator) or
    /// B-MAC-style low-power listening with sender-side wake-up
    /// preambles.
    pub low_sleep: SleepSchedule,
    /// High-power radio profile (Lucent 11 Mbps single-hop, Cabletron
    /// multi-hop).
    pub high_profile: RadioProfile,
    /// Per-sender offered load in bits per second (0.2 or 2 Kbps).
    pub rate_bps: f64,
    /// Arrival process of each sender.
    pub workload: WorkloadKind,
    /// Application packet payload (32 B).
    pub packet_bytes: usize,
    /// Simulated duration (5000 s in the paper).
    pub duration: SimDuration,
    /// BCP parameters (threshold = the paper's burst size sweep).
    pub bcp: BcpConfig,
    /// Channel loss process on the low radio.
    pub loss_low: LossModel,
    /// Channel loss process on the high radio.
    pub loss_high: LossModel,
    /// Physical link model: unit-disk (the default, the paper's setting)
    /// or received-power with log-normal shadowing and SINR capture.
    pub phys: PhysModel,
    /// High-radio routing mode.
    pub high_route: HighRoute,
    /// Grace period before an idle released high radio powers off.
    pub off_linger: SimDuration,
    /// Stop generating application traffic after this offset (the run
    /// itself continues to `duration` so in-flight data drains). `None`
    /// generates for the whole run, as the paper's simulations do.
    pub traffic_cutoff: Option<SimDuration>,
    /// Flush BCP buffers (threshold ignored) once the cutoff passes — the
    /// prototype experiment's "send exactly 500 messages" mode.
    pub flush_at_cutoff: bool,
    /// Node energy provisioning: `PowerConfig::unlimited()` (the default)
    /// reproduces the paper; a battery makes nodes mortal.
    pub power: PowerConfig,
    /// How routes weigh paths, both initially and on repair after deaths.
    pub route_weight: RouteWeight,
    /// Shards the world is split into for multi-core execution (grid
    /// strips over the deployment plane). `1` (the default) runs the
    /// whole world on one queue; any value yields bit-identical results —
    /// sharding changes wall-clock time, never physics.
    pub shards: usize,
    /// Link turnaround latency of the low radio: the delay between a
    /// sender's action on the channel and an in-range receiver observing
    /// it (propagation plus receiver synchronization — a fraction of a
    /// CSMA slot). Also the conservative engine's lookahead, so it must
    /// stay positive.
    pub link_latency_low: SimDuration,
    /// Link turnaround latency of the high radio (fraction of an 802.11
    /// slot).
    pub link_latency_high: SimDuration,
    /// Master seed; every stochastic element derives from it.
    pub seed: u64,
}

impl Scenario {
    /// The paper's grid: 6×6 nodes, 40 m pitch (200×200 m²), sink at the
    /// centre node so the 250 m radio reaches it in one hop from anywhere.
    pub fn paper_grid() -> (Topology, NodeId) {
        (Topology::grid(6, 40.0), NodeId(14))
    }

    /// Deterministically selects `n` sender nodes (excluding the sink),
    /// identically across models and seeds so sweeps are comparable.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the number of non-sink nodes.
    pub fn pick_senders(topo: &Topology, sink: NodeId, n: usize) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> = topo.nodes().filter(|&x| x != sink).collect();
        assert!(
            n <= nodes.len(),
            "cannot pick {n} senders from {}",
            nodes.len()
        );
        // Fixed seed: the sender *set* is part of the scenario, not the run.
        let mut rng = Rng::new(0xB0C9);
        rng.shuffle(&mut nodes);
        nodes.truncate(n);
        nodes.sort();
        nodes
    }

    /// The paper's **single-hop** scenario: Lucent 11 Mbps (range reduced
    /// to the sensor radio's 40 m), MicaZ, grid, 2 Kbps senders. A thin
    /// preset over [`ScenarioBuilder`](crate::spec::ScenarioBuilder) —
    /// the builder's defaults (link latencies of a fifth of a CSMA/802.11
    /// slot, 5 ms off-linger, unlimited power) are the paper's setting.
    ///
    /// # Panics
    ///
    /// Panics if `n_senders` is zero or exceeds the grid's 35 non-sink
    /// nodes (go through the builder for a `Result` instead).
    pub fn single_hop(
        model: ModelKind,
        n_senders: usize,
        burst_packets: usize,
        seed: u64,
    ) -> Scenario {
        crate::spec::ScenarioBuilder::single_hop(model, n_senders, burst_packets, seed)
            .build()
            .expect("the paper's single-hop preset is a valid scenario")
    }

    /// The paper's **multi-hop** scenario: Cabletron reaches the central
    /// sink in one hop while the sensor radio needs several; 2 Kbps default
    /// (0.2 Kbps via [`with_rate`](Self::with_rate)).
    ///
    /// # Panics
    ///
    /// Panics if `n_senders` is zero or exceeds the grid's 35 non-sink
    /// nodes.
    pub fn multi_hop(
        model: ModelKind,
        n_senders: usize,
        burst_packets: usize,
        seed: u64,
    ) -> Scenario {
        crate::spec::ScenarioBuilder::multi_hop(model, n_senders, burst_packets, seed)
            .build()
            .expect("the paper's multi-hop preset is a valid scenario")
    }

    /// Overrides the per-sender rate (builder style).
    pub fn with_rate(mut self, rate_bps: f64) -> Self {
        self.rate_bps = rate_bps;
        self
    }

    /// Overrides the arrival process.
    pub fn with_workload(mut self, workload: WorkloadKind) -> Self {
        self.workload = workload;
        self
    }

    /// The scenario's application flows as `(source, destination)` pairs:
    /// every sender toward the sink under convergecast, one flow per
    /// intended recipient under broadcast, the drawn pairs under gossip.
    /// Deterministic — a pure function of the scenario.
    pub fn flows(&self) -> Vec<(NodeId, NodeId)> {
        match self.pattern {
            TrafficPattern::Converge => self.senders.iter().map(|&s| (s, self.sink)).collect(),
            TrafficPattern::Broadcast { source } => self
                .topo
                .nodes()
                .filter(|&r| r != source)
                .map(|r| (source, r))
                .collect(),
            TrafficPattern::Gossip { pairs, seed } => {
                TrafficPattern::gossip_flows(self.topo.len(), self.sink, pairs, seed)
            }
        }
    }

    /// Instantiates one sender's workload from the scenario parameters.
    pub fn make_workload(&self, seed: u64) -> Workload {
        match self.workload {
            WorkloadKind::Cbr => Workload::cbr_bps(self.rate_bps, self.packet_bytes),
            WorkloadKind::Poisson => Workload::poisson_bps(self.rate_bps, self.packet_bytes, seed),
            WorkloadKind::BurstyAudio {
                mean_on_s,
                mean_off_s,
            } => {
                let duty = mean_on_s / (mean_on_s + mean_off_s);
                let on_rate = self.rate_bps / duty;
                let interval = SimDuration::from_secs_f64(self.packet_bytes as f64 * 8.0 / on_rate);
                Workload::on_off_bursty(
                    self.packet_bytes,
                    interval,
                    SimDuration::from_secs_f64(mean_on_s),
                    SimDuration::from_secs_f64(mean_off_s),
                    seed,
                )
            }
        }
    }

    /// Overrides the traffic pattern *and* re-derives `senders` from it
    /// (builder style; prefer
    /// [`ScenarioBuilder::traffic`](crate::spec::ScenarioBuilder::traffic),
    /// which validates the pattern against the topology first).
    pub fn with_pattern(mut self, pattern: TrafficPattern) -> Self {
        self.pattern = pattern;
        match pattern {
            TrafficPattern::Converge => {}
            TrafficPattern::Broadcast { source } => self.senders = vec![source],
            TrafficPattern::Gossip { .. } => {
                self.senders = self.flows().into_iter().map(|(s, _)| s).collect()
            }
        }
        self
    }

    /// Overrides the simulated duration.
    pub fn with_duration(mut self, d: SimDuration) -> Self {
        self.duration = d;
        self
    }

    /// Overrides the loss models.
    pub fn with_loss(mut self, low: LossModel, high: LossModel) -> Self {
        self.loss_low = low;
        self.loss_high = high;
        self
    }

    /// Overrides the physical link model (builder style; prefer
    /// [`ScenarioBuilder::phys`](crate::spec::ScenarioBuilder::phys),
    /// which validates the parameters).
    pub fn with_phys(mut self, phys: PhysModel) -> Self {
        self.phys = phys;
        self
    }

    /// Overrides the high-radio routing mode.
    pub fn with_high_route(mut self, mode: HighRoute) -> Self {
        self.high_route = mode;
        self
    }

    /// Stops traffic generation at `cutoff` and flushes BCP buffers then.
    pub fn with_traffic_cutoff(mut self, cutoff: SimDuration, flush: bool) -> Self {
        self.traffic_cutoff = Some(cutoff);
        self.flush_at_cutoff = flush;
        self
    }

    /// Gives every non-sink node a copy of `battery` (the sink stays
    /// mains-powered; use [`with_power`](Self::with_power) for full
    /// control).
    pub fn with_battery(mut self, battery: Battery) -> Self {
        self.power = PowerConfig::with_battery(battery);
        self
    }

    /// Overrides the whole power configuration.
    pub fn with_power(mut self, power: PowerConfig) -> Self {
        self.power = power;
        self
    }

    /// Overrides the route weight (e.g. max–min residual energy).
    pub fn with_route_weight(mut self, weight: RouteWeight) -> Self {
        self.route_weight = weight;
        self
    }

    /// Splits the world into `shards` spatial strips for multi-core
    /// execution (clamped to the node count at build time). Results are
    /// bit-identical for every value.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// The link turnaround latency of a radio class.
    pub fn link_latency(&self, class: crate::events::Class) -> SimDuration {
        let l = match class {
            crate::events::Class::Low => self.link_latency_low,
            crate::events::Class::High => self.link_latency_high,
        };
        // The conservative engine needs a positive lookahead; clamp a
        // (mis)configured zero to one nanosecond.
        l.max(SimDuration::from_nanos(1))
    }

    /// End of the simulated interval as an absolute time.
    pub fn end_time(&self) -> SimTime {
        SimTime::ZERO + self.duration
    }

    /// Runs the scenario to completion.
    pub fn run(&self) -> crate::metrics::RunStats {
        crate::world::World::run(self)
    }

    /// Runs the scenario with observability switches (flight-recorder
    /// trace and/or per-window time series). The summary is bit-identical
    /// to [`Scenario::run`] whatever the switches say.
    pub fn run_with(&self, opts: &crate::world::RunOptions) -> crate::world::RunOutput {
        crate::world::World::run_with(self, opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_grid_geometry() {
        let (topo, sink) = Scenario::paper_grid();
        assert_eq!(topo.len(), 36);
        assert_eq!(sink, NodeId(14));
    }

    #[test]
    fn sender_selection_is_stable_and_excludes_sink() {
        let (topo, sink) = Scenario::paper_grid();
        let a = Scenario::pick_senders(&topo, sink, 10);
        let b = Scenario::pick_senders(&topo, sink, 10);
        assert_eq!(a, b);
        assert!(!a.contains(&sink));
        assert_eq!(a.len(), 10);
        // Growing n keeps the previous set as a prefix (nested sweeps).
        let c = Scenario::pick_senders(&topo, sink, 20);
        for s in &a {
            assert!(c.contains(s), "sweep sets are nested");
        }
    }

    #[test]
    #[should_panic(expected = "cannot pick")]
    fn too_many_senders_panics() {
        let (topo, sink) = Scenario::paper_grid();
        let _ = Scenario::pick_senders(&topo, sink, 36);
    }

    #[test]
    fn workload_templates_preserve_mean_rate() {
        let s = Scenario::single_hop(ModelKind::DualRadio, 5, 100, 1)
            .with_rate(1_000.0)
            .with_workload(WorkloadKind::BurstyAudio {
                mean_on_s: 2.0,
                mean_off_s: 8.0,
            });
        let w = s.make_workload(7);
        assert!(
            (w.mean_rate_bps() - 1_000.0).abs() < 1e-6,
            "duty-cycle compensation keeps the offered load: {}",
            w.mean_rate_bps()
        );
        let cbr = s.clone().with_workload(WorkloadKind::Cbr).make_workload(7);
        assert!((cbr.mean_rate_bps() - 1_000.0).abs() < 1e-6);
        let poisson = s.with_workload(WorkloadKind::Poisson).make_workload(7);
        assert!((poisson.mean_rate_bps() - 1_000.0).abs() < 1e-6);
    }

    #[test]
    fn scenario_builders() {
        let s = Scenario::single_hop(ModelKind::DualRadio, 5, 500, 1);
        assert_eq!(s.bcp.threshold_bytes, 16_000);
        assert_eq!(s.high_profile.name, "Lucent (11Mbps)");
        assert_eq!(s.high_profile.range_m, 40.0);
        let m = Scenario::multi_hop(ModelKind::Sensor, 5, 10, 1).with_rate(200.0);
        assert_eq!(m.high_profile.name, "Cabletron");
        assert_eq!(m.rate_bps, 200.0);
    }

    #[test]
    fn shard_and_latency_knobs() {
        let s = Scenario::single_hop(ModelKind::Sensor, 1, 10, 1);
        assert_eq!(s.shards, 1, "sequential by default");
        assert_eq!(s.with_shards(0).shards, 1, "zero clamps to one");
        let mut s = Scenario::single_hop(ModelKind::Sensor, 1, 10, 1).with_shards(4);
        assert_eq!(s.shards, 4);
        // The lookahead floor: even a misconfigured zero latency stays
        // positive.
        s.link_latency_low = SimDuration::from_nanos(0);
        assert!(s.link_latency(crate::events::Class::Low) > SimDuration::from_nanos(0));
        assert!(
            s.link_latency(crate::events::Class::High) < s.low_profile.frame_airtime(32),
            "latency is small against real airtimes"
        );
    }
}
