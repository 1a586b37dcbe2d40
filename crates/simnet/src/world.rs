//! Assembling and running one simulation: nodes × radios × MACs × BCP ×
//! channel, sharded across cores.
//!
//! [`World::run`] builds the world from a [`Scenario`], splits it into
//! `scenario.shards` spatial strips ([`Partition::strips`]), and drives
//! the shards through the conservative engine
//! ([`bcp_sim::conservative`]). The lookahead is the minimum link
//! turnaround latency over the radio classes that actually cross a shard
//! boundary; when nothing crosses (and no battery can die), the shards
//! are independent and run the whole horizon as one window.
//!
//! All randomness flows from the scenario seed through node-local
//! streams, event ties are broken by content-derived keys, and
//! cross-node effects always travel with the link latency — so a
//! `(Scenario, seed)` pair fully determines the result, *independently
//! of the shard count and thread count*. Sharding changes wall-clock
//! time, never physics.

use crate::channel::{Channel, ClassPhys, NeighborIndex};
use crate::events::{Class, Ev, GlobalEv};
use crate::fate::{settle, FateBook};
use crate::metrics::{EngineStats, Metrics, RunStats, SeriesSample};
use crate::node::NodeState;
use crate::routes::{initial_shared, Control, SeriesScan, SeriesState};
use crate::scenario::{ModelKind, Scenario};
use crate::shard::ShardState;
use bcp_net::addr::AddrMap;
use bcp_net::partition::Partition;
use bcp_net::propagation::{dbm_to_mw, PathLoss, PhysModel, ShadowMap, SHADOW_CLAMP_SIGMAS};
use bcp_power::BatteryModel;
use bcp_radio::units::Energy;
use bcp_sim::conservative::{run_conservative, EngineCounters};
use bcp_sim::keyed::ShardQueue;
use bcp_sim::rng::Rng;
use bcp_sim::threads::worker_count;
use bcp_sim::time::{SimDuration, SimTime};
use bcp_sim::trace::{merge_traces, TraceRecord};
use std::collections::HashMap;
use std::sync::Arc;

/// Observability switches for a run. Everything here is strictly
/// observational: the defaults cost nothing, and enabling any switch
/// never touches an RNG stream or reorders an event, so the resulting
/// [`RunStats`] are bit-identical to an unobserved run.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Record the flight-recorder trace (packet lifecycle, radio state,
    /// power steps, route repairs), merged deterministically at run end.
    pub trace: bool,
    /// Emit one time-series delta sample every this often in sim time.
    pub series_every: Option<SimDuration>,
    /// Has no effect: the engine has one scalar lookahead. The field
    /// stays only so struct literals outside this workspace that still
    /// name it keep compiling; write `..RunOptions::default()` instead.
    pub scalar_lookahead: bool,
}

/// A run summary plus whatever observability artefacts were requested.
#[derive(Debug)]
pub struct RunOutput {
    /// The run summary — always produced, never affected by the options.
    pub stats: RunStats,
    /// The merged flight-recorder trace, in deterministic event-key
    /// order; empty unless [`RunOptions::trace`] was set.
    pub trace: Vec<TraceRecord>,
    /// Per-window delta samples, closing exactly at the horizon so the
    /// deltas telescope to the end-of-run totals; empty unless
    /// [`RunOptions::series_every`] was set.
    pub series: Vec<SeriesSample>,
}

/// The simulation entry point (all state lives in the per-run shards).
#[derive(Debug)]
pub struct World;

impl World {
    /// Builds and runs `scen` to completion, producing the run summary.
    pub fn run(scen: &Scenario) -> RunStats {
        Self::run_with(scen, &RunOptions::default()).stats
    }

    /// [`World::run`] with observability switches: optionally records the
    /// flight-recorder trace and/or a per-window time series alongside
    /// the summary.
    pub fn run_with(scen: &Scenario, opts: &RunOptions) -> RunOutput {
        Self::build(scen, opts).finish()
    }

    /// Builds the world without running it. The returned [`LiveWorld`] is
    /// paused at t = 0 with every initial event scheduled; drive it with
    /// [`LiveWorld::run_to`] and [`LiveWorld::finish`], and capture any
    /// pause with [`LiveWorld::snapshot`]. `build(s, o).finish()` is
    /// bit-identical to the classic one-shot run, however the run is
    /// segmented in between — window partitioning never affects physics.
    pub fn build(scen: &Scenario, opts: &RunOptions) -> LiveWorld {
        let scaf = Scaffold::new(scen);
        let scen = Arc::clone(&scaf.scen);
        let part = Arc::clone(&scaf.part);
        let addr = Arc::clone(&scaf.addr);
        let n = scen.topo.len();
        let k = part.k();
        let mut rng = Rng::new(scen.seed);
        // Per-node loss streams, seeded in node order so the streams are
        // identical for every shard count.
        let loss_seeds_low: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
        let loss_seeds_high: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
        let shared = initial_shared(&scen);
        let t0 = SimTime::ZERO;

        let mut shards: Vec<(ShardState, ShardQueue<Ev>)> = (0..k)
            .map(|id| {
                (
                    scaf.blank_shard(id, &loss_seeds_low, &loss_seeds_high, &shared, opts.trace),
                    ShardQueue::new(),
                )
            })
            .collect();

        let traffic_end = match scen.traffic_cutoff {
            Some(cutoff) => t0 + cutoff,
            None => scaf.end,
        };
        for id in scen.topo.nodes() {
            let mut node = NodeState::new(&scen, &addr, id, &mut rng);
            // Seed the node's initial events into its owning shard.
            let (state, queue) = &mut shards[part.shard_of(id)];
            if let Some(w) = node.workload.as_mut() {
                if let Some((t, b)) = w.next_arrival() {
                    if t <= traffic_end {
                        node.pending_bytes = b;
                        queue.schedule(t, Ev::AppArrival { node: id });
                    }
                }
            }
            if scen.flush_at_cutoff && scen.model == ModelKind::DualRadio {
                if let Some(cutoff) = scen.traffic_cutoff {
                    queue.schedule(t0 + cutoff, Ev::Flush { node: id });
                }
            }
            if node.supply.is_some() {
                // The handler projects the exact depletion instant.
                queue.schedule(t0, Ev::PowerCheck { node: id });
            }
            if let bcp_mac::sleep::SleepSchedule::Lpl {
                wake_interval,
                sample,
                ..
            } = scen.low_sleep
            {
                // The radio starts awake; treat [t0, t0+sample) as the
                // first channel sample, then doze and sample periodically.
                queue.schedule(t0 + sample, Ev::Sleep { node: id });
                let first = queue.schedule(t0 + wake_interval, Ev::WakeSample { node: id });
                state.lpl_timers.insert(id.0, first);
            }
            state.nodes[id.index()] = Some(node);
        }

        let mut gqueue: ShardQueue<GlobalEv> = ShardQueue::new();
        if let Some(every) = scen.power.reroute_every {
            gqueue.schedule(t0 + every, GlobalEv::RouteRefresh);
        }
        let control = Control {
            scen: Arc::clone(&scen),
            gossip_flows: match scen.pattern {
                bcp_traffic::TrafficPattern::Gossip { .. } => scen.flows(),
                _ => Vec::new(),
            },
            metrics: Metrics::default(),
            global_events: 0,
            trace: opts.trace.then(Vec::new),
            series: opts.series_every.map(SeriesState::new),
        };
        LiveWorld {
            series_every: opts.series_every,
            scaf,
            shards,
            gqueue,
            control,
            counters: EngineCounters::default(),
            now: SimTime::ZERO,
        }
    }

    /// Folds the engine's raw counters into the reported [`EngineStats`].
    /// Wall-clock figures are whatever this run measured — useful for
    /// throughput reporting, excluded from bit-identity guarantees.
    fn engine_stats(c: EngineCounters, shards: usize, threads: usize, events: u64) -> EngineStats {
        EngineStats {
            shards,
            threads,
            windows: c.windows,
            barriers: c.barriers,
            serial_steps: c.serial_steps,
            mean_window_s: if c.windows > 0 {
                c.window_width_s_sum / c.windows as f64
            } else {
                0.0
            },
            barrier_wait_s: c.barrier_wait_s,
            wall_s: c.wall_s,
            events_per_sec: if c.wall_s > 0.0 {
                events as f64 / c.wall_s
            } else {
                0.0
            },
            per_shard_events: c.per_shard_processed,
            per_shard_max_queue: c.per_shard_max_queue,
        }
    }

    /// How late a death announcement reaches the coordinator: the minimum
    /// link latency over the radio classes the model uses. Independent of
    /// the partition, so death-repair timing is shard-count invariant.
    fn death_latency(scen: &Scenario) -> SimDuration {
        let mut d = scen.link_latency(Class::Low);
        if scen.model != ModelKind::Sensor {
            d = d.min(scen.link_latency(Class::High));
        }
        d
    }

    /// `true` when any node can run out of battery (and so emit a death
    /// global mid-run).
    fn battery_possible(scen: &Scenario) -> bool {
        scen.topo.nodes().any(|id| {
            scen.power
                .battery_for(id.index(), id == scen.sink)
                .is_some()
        })
    }

    /// The conservative window size: the smallest latency over (a) radio
    /// classes whose links cross a shard boundary and (b) — whenever any
    /// node can die — the death announcement latency. `None` (unbounded)
    /// when shards cannot interact at all.
    fn lookahead(
        scen: &Scenario,
        part: &Partition,
        death_latency: SimDuration,
        reach: &[f64; 2],
    ) -> Option<SimDuration> {
        let mut l: Option<SimDuration> = None;
        let mut fold = |d: SimDuration| l = Some(l.map_or(d, |cur| cur.min(d)));
        if part.k() > 1 {
            if part.has_cross_links(&scen.topo, reach[Class::Low.index()]) {
                fold(scen.link_latency(Class::Low));
            }
            if scen.model != ModelKind::Sensor
                && part.has_cross_links(&scen.topo, reach[Class::High.index()])
            {
                fold(scen.link_latency(Class::High));
            }
        }
        if Self::battery_possible(scen) {
            fold(death_latency);
        }
        l
    }

    // ------------------------------------------------------------------
    // Finalisation: merge the shards into one run summary
    // ------------------------------------------------------------------

    fn finalize(
        scen: &Scenario,
        part: &Partition,
        mut shards: Vec<ShardState>,
        control: Control,
        end: SimTime,
        events: u64,
        engine: EngineStats,
    ) -> RunStats {
        use bcp_radio::energy::EnergyBucket as B;
        let n = scen.topo.len();
        // Coordinator-owned global slice first (deaths, partition), then
        // every shard's counters.
        let mut metrics = control.metrics;
        for s in &shards {
            metrics.merge(&s.metrics);
        }
        metrics.collisions = shards
            .iter()
            .map(|s| s.chans[0].collisions() + s.chans[1].collisions())
            .sum();

        // Settle the per-copy fates across shards: delivery beats loss,
        // the earliest loss observation (by event key) beats later ones —
        // exactly the single-map rules of a sequential run — and whatever
        // was never observed is still buffered or in flight.
        let books: Vec<&FateBook> = shards.iter().map(|s| &s.fates).collect();
        let settled = settle(&books, metrics.generated_packets);
        assert_eq!(
            settled.delivered, metrics.delivered_packets,
            "delivery bitmaps and delivery counter disagree"
        );
        metrics.drops_mac = settled.drops_mac;
        metrics.drops_buffer = settled.drops_buffer;
        metrics.residual_packets = settled.residual;

        // Close every surviving battery against its meters at the horizon
        // (dead nodes were closed at the instant of death); walk nodes in
        // id order so float accumulation is shard-count invariant.
        let shard_of = |i: usize| part.shard_of(bcp_net::addr::NodeId(i as u32));
        let per_node: Vec<crate::metrics::NodePowerReport> = (0..n)
            .map(|i| {
                let node = shards[shard_of(i)].nodes[i]
                    .as_mut()
                    .expect("owner has the node");
                let metered = node.metered_total(end);
                if let (true, Some(s)) = (node.is_alive(), node.supply.as_mut()) {
                    s.sync_to(metered);
                }
                let (drawn_j, capacity_j, residual_j) = match &node.supply {
                    Some(s) => (
                        Some(s.battery().drawn().as_joules()),
                        Some(s.battery().capacity().as_joules()),
                        Some(s.battery().remaining().as_joules()),
                    ),
                    None => (None, None, None),
                };
                crate::metrics::NodePowerReport {
                    node: node.id,
                    ledger_j: metered.as_joules(),
                    drawn_j,
                    capacity_j,
                    residual_j,
                    died_at_s: node.died_at.map(|t| t.as_secs_f64()),
                }
            })
            .collect();

        let ideal_low = [B::Tx, B::Rx];
        let full_high = [B::Tx, B::Rx, B::Overhear, B::Idle, B::Sleep, B::Wakeup];
        let mut energy = Energy::ZERO;
        let mut header_extra = Energy::ZERO;
        let mut overhear_full_extra = Energy::ZERO;
        // The low radio's listening floor — what LPL exists to shrink —
        // reported separately so duty-cycle sweeps can watch idle energy
        // fall toward the p_sleep floor.
        let mut low_idle = Energy::ZERO;
        let mut low_sleep = Energy::ZERO;
        for i in 0..n {
            let node = shards[shard_of(i)].nodes[i]
                .as_ref()
                .expect("owner has the node");
            let low = node.low_radio.report(end);
            low_idle += low.of(B::Idle);
            low_sleep += low.of(B::Sleep);
            match scen.model {
                ModelKind::Sensor | ModelKind::DualRadio => {
                    energy += low.total_of(&ideal_low);
                    overhear_full_extra += low.of(B::Overhear);
                }
                ModelKind::Dot11 => {}
            }
            header_extra += node.header_overhear;
            if let Some(hr) = &node.high_radio {
                let high = hr.report(end);
                match scen.model {
                    ModelKind::Dot11 | ModelKind::DualRadio => {
                        energy += high.total_of(&full_high);
                    }
                    ModelKind::Sensor => {}
                }
            }
            if let Some(tx) = &node.bcp_tx {
                metrics.handshakes += tx.stats().handshakes;
            }
        }
        let reach = matches!(scen.pattern, bcp_traffic::TrafficPattern::Broadcast { .. })
            .then(|| metrics.packet_reach());
        let stats = RunStats::with_overhear_full(
            metrics,
            energy,
            energy + header_extra,
            energy + overhear_full_extra,
            events,
        )
        .with_per_node(per_node)
        .with_low_radio_floor(low_idle, low_sleep)
        .with_engine(engine);
        match reach {
            Some(r) => stats.with_broadcast_reach(r),
            None => stats,
        }
    }
}

/// The immutable frame of a built world: everything derivable from the
/// scenario alone (partition, addressing, adjacency, engine tuning). [`World::build`] and the snapshot-restore path derive it the
/// same way — which is what lets a checkpoint taken under one shard
/// count restore into another.
#[derive(Debug)]
pub(crate) struct Scaffold {
    pub(crate) scen: Arc<Scenario>,
    pub(crate) part: Arc<Partition>,
    pub(crate) addr: Arc<AddrMap>,
    pub(crate) neigh: [Arc<NeighborIndex>; 2],
    /// Per-class received-power state under `phys = logn:…`; `None` under
    /// the disk profile.
    pub(crate) phys: [Option<Arc<ClassPhys>>; 2],
    /// Post-draw state of the dedicated shadowing stream (`None` under
    /// disk) — checkpointed so the stream could be continued exactly.
    pub(crate) shadow_rng_state: Option<[u64; 4]>,
    pub(crate) flow_dest: Arc<Vec<bcp_net::addr::NodeId>>,
    pub(crate) death_latency: SimDuration,
    pub(crate) end: SimTime,
    pub(crate) threads: usize,
    pub(crate) lookahead: Option<SimDuration>,
}

impl Scaffold {
    pub(crate) fn new(scen: &Scenario) -> Self {
        let end = scen.end_time();
        let scen = Arc::new(scen.clone());
        let n = scen.topo.len();
        assert!(n > 0, "cannot simulate an empty topology");
        // Strip cuts steer clear of the traffic anchor: relay load piles
        // up around the sink (or broadcast source), and every TX beside a
        // cut is re-delivered on the far shard, so keeping the hot region
        // interior trims cross-shard duplication. Partition choice never
        // affects physics — only engine throughput.
        let hot = match &scen.pattern {
            bcp_traffic::TrafficPattern::Broadcast { source } => *source,
            _ => scen.sink,
        };
        let part = Arc::new(if scen.shards <= 1 {
            Partition::single(n)
        } else {
            Partition::strips_avoiding(&scen.topo, scen.shards, hot)
        });
        let addr = Arc::new(AddrMap::for_nodes(n));
        // The physical reach per class bounds the neighbour index and the
        // conservative lookahead: the profile range under disk, the
        // audibility radius under a received-power profile.
        let (phys, shadow_rng_state, reach) = build_phys(&scen);
        let neigh = [
            Arc::new(NeighborIndex::new(
                &scen.topo,
                reach[Class::Low.index()],
                &part,
            )),
            Arc::new(NeighborIndex::new(
                &scen.topo,
                reach[Class::High.index()],
                &part,
            )),
        ];
        let death_latency = World::death_latency(&scen);
        // Each sender's flow destination (the sink unless the pattern says
        // otherwise). Broadcast sources fan out per-recipient instead and
        // never read this.
        let flow_dest = Arc::new({
            let mut dests = vec![scen.sink; n];
            if !matches!(scen.pattern, bcp_traffic::TrafficPattern::Broadcast { .. }) {
                for (s, d) in scen.flows() {
                    dests[s.index()] = d;
                }
            }
            dests
        });
        let lookahead = World::lookahead(&scen, &part, death_latency, &reach);
        let threads = worker_count(part.k());
        Scaffold {
            scen,
            part,
            addr,
            neigh,
            phys,
            shadow_rng_state,
            flow_dest,
            death_latency,
            end,
            threads,
            lookahead,
        }
    }

    /// Replaces one class's shadowing offsets with checkpoint-captured
    /// ones (the restore path stays byte-exact even if the draw procedure
    /// ever evolves). Must run before [`Scaffold::blank_shard`].
    ///
    /// # Panics
    ///
    /// Panics if the scenario is not a received-power one.
    pub(crate) fn restore_shadow(&mut self, class: usize, offsets: &[f64]) {
        let p = self.phys[class]
            .as_ref()
            .expect("snapshot carries shadowing for a disk scenario");
        let mut cp = ClassPhys::clone(p);
        cp.shadow = ShadowMap::from_offsets(self.scen.topo.len(), offsets.to_vec());
        self.phys[class] = Some(Arc::new(cp));
    }

    /// A shard shell: correct id and topology wiring, fresh channels, no
    /// nodes, empty tables. Both the builder and the snapshot-restore
    /// path start from this and fill the node state in.
    pub(crate) fn blank_shard(
        &self,
        id: usize,
        seeds_low: &[u64],
        seeds_high: &[u64],
        shared: &Arc<crate::routes::SharedNet>,
        trace: bool,
    ) -> ShardState {
        let n = self.scen.topo.len();
        ShardState {
            id,
            scen: Arc::clone(&self.scen),
            addr: Arc::clone(&self.addr),
            part: Arc::clone(&self.part),
            neigh: [Arc::clone(&self.neigh[0]), Arc::clone(&self.neigh[1])],
            phys: [self.phys[0].clone(), self.phys[1].clone()],
            shared: Arc::clone(shared),
            nodes: (0..n).map(|_| None).collect(),
            chans: [
                Channel::new(n, &self.scen.loss_low, seeds_low),
                Channel::new(n, &self.scen.loss_high, seeds_high),
            ],
            payloads: HashMap::new(),
            txs: HashMap::new(),
            mac_timers: HashMap::new(),
            ack_timers: HashMap::new(),
            data_timers: HashMap::new(),
            linger: HashMap::new(),
            power_timers: HashMap::new(),
            lpl_timers: HashMap::new(),
            lpl_audible: HashMap::new(),
            fates: FateBook::default(),
            flow_dest: Arc::clone(&self.flow_dest),
            metrics: Metrics::default(),
            death_latency: self.death_latency,
            events_logical: 0,
            rec: trace.then(Vec::new),
        }
    }
}

/// Builds the per-class received-power state from the scenario:
/// `(state, post-draw shadowing stream, physical reach per class)`.
///
/// Under disk the state is absent and the reach is each profile's
/// `range_m` — the exact inputs the pre-`phys` build used, so disk runs
/// are bit-identical to it. Under `logn` the reach is the audibility
/// radius (where a maximally shadow-boosted frame fades to the noise
/// floor), and the shadowing is drawn from a *dedicated* stream — an
/// explicit `phys` seed, or a substream of the master 2¹²⁸ steps out —
/// so the master stream's build-time draw order is untouched and the
/// maps are identical for every shard and thread count. Both classes
/// draw (low first) regardless of the model, keeping the draw order
/// model-independent.
type PhysBuild = ([Option<Arc<ClassPhys>>; 2], Option<[u64; 4]>, [f64; 2]);

fn build_phys(scen: &Scenario) -> PhysBuild {
    let PhysModel::LogNormal {
        path_loss_exp,
        sigma_db,
        seed,
    } = scen.phys
    else {
        return (
            [None, None],
            None,
            [scen.low_profile.range_m, scen.high_profile.range_m],
        );
    };
    let mut rng = match seed {
        Some(s) => Rng::new(s),
        None => Rng::new(scen.seed).substream(0),
    };
    let n = scen.topo.len();
    let build = |profile: &bcp_radio::profile::RadioProfile, rng: &mut Rng| {
        let path_loss = PathLoss::calibrated(
            path_loss_exp,
            profile.tx_power_dbm,
            profile.rx_sensitivity_dbm,
            profile.range_m,
        );
        let reach = path_loss.radius_to(
            profile.tx_power_dbm,
            profile.noise_floor_dbm,
            SHADOW_CLAMP_SIGMAS * sigma_db,
        );
        let cp = ClassPhys {
            path_loss,
            shadow: ShadowMap::draw(n, sigma_db, rng),
            tx_dbm: profile.tx_power_dbm,
            sens_mw: dbm_to_mw(profile.rx_sensitivity_dbm),
            noise_mw: dbm_to_mw(profile.noise_floor_dbm),
        };
        (Some(Arc::new(cp)), reach)
    };
    let (low, low_reach) = build(&scen.low_profile, &mut rng);
    let (high, high_reach) = build(&scen.high_profile, &mut rng);
    ([low, high], Some(rng.state()), [low_reach, high_reach])
}

/// A built simulation paused between events. The engine can be advanced
/// in segments ([`LiveWorld::run_to`]) and the complete state captured at
/// any pause ([`LiveWorld::snapshot`]); [`LiveWorld::finish`] runs the
/// remaining horizon and produces the same [`RunOutput`] a one-shot
/// [`World::run_with`] would — bit for bit, however the run was cut.
#[derive(Debug)]
pub struct LiveWorld {
    pub(crate) scaf: Scaffold,
    /// The effective series interval: the requested one or, when restored
    /// from a snapshot that was recording a series, the captured one (the
    /// sample grid must continue, not restart).
    pub(crate) series_every: Option<SimDuration>,
    pub(crate) shards: Vec<(ShardState, ShardQueue<Ev>)>,
    pub(crate) gqueue: ShardQueue<GlobalEv>,
    pub(crate) control: Control,
    pub(crate) counters: EngineCounters,
    pub(crate) now: SimTime,
}

impl LiveWorld {
    /// The pause instant: every event strictly before it has run.
    pub fn time(&self) -> SimTime {
        self.now
    }

    /// The run horizon (the scenario's end time).
    pub fn end(&self) -> SimTime {
        self.scaf.end
    }

    /// Advances the simulation to `t`. For `t` short of the horizon this
    /// runs every event strictly *before* `t` — events at exactly `t`
    /// stay pending, so a snapshot taken here captures them; at the
    /// horizon it runs everything (the run's end is inclusive).
    ///
    /// # Panics
    ///
    /// Panics unless `self.time() < t <= self.end()`.
    pub fn run_to(&mut self, t: SimTime) {
        assert!(
            t > self.now,
            "run_to target {t} is not ahead of the pause at {}",
            self.now
        );
        assert!(
            t <= self.scaf.end,
            "run_to target {t} is past the horizon {}",
            self.scaf.end
        );
        self.advance(t);
    }

    /// Captures the complete simulation state at the current pause. See
    /// [`crate::snapshot`] for the exactness contract.
    pub fn snapshot(&self) -> crate::snapshot::WorldState {
        crate::snapshot::capture(self)
    }

    /// Rebuilds a paused simulation from a snapshot, under the shard
    /// count the snapshot's scenario asks for (which may differ from the
    /// one the snapshot was taken under).
    pub fn restore(state: &crate::snapshot::WorldState, opts: &RunOptions) -> LiveWorld {
        crate::snapshot::restore(state, opts)
    }

    /// Takes the series samples emitted so far, leaving the sampler's
    /// grid (interval, next instant, telescoping baseline) in place — so
    /// a caller can stream samples incrementally between [`run_to`]
    /// segments while [`finish`] still emits exactly the remaining tail,
    /// and a [`snapshot`] taken after a drain is unaffected (checkpoints
    /// never carried the emitted samples, only the grid state).
    ///
    /// [`run_to`]: LiveWorld::run_to
    /// [`finish`]: LiveWorld::finish
    /// [`snapshot`]: LiveWorld::snapshot
    pub fn drain_series(&mut self) -> Vec<crate::metrics::SeriesSample> {
        match &mut self.control.series {
            Some(st) => std::mem::take(&mut st.samples),
            None => Vec::new(),
        }
    }

    /// Takes the trace records produced so far, merged across shards into
    /// the one-shot trace's order, leaving each recorder attached. Every
    /// event before the pause has run, so these records are final: the
    /// records of a run drained at each pause, followed by its
    /// [`finish`]'s trace, are exactly the one-shot run's trace. Empty
    /// unless the run records a trace.
    ///
    /// [`finish`]: LiveWorld::finish
    pub fn drain_trace(&mut self) -> Vec<TraceRecord> {
        let mut parts: Vec<Vec<TraceRecord>> = self
            .shards
            .iter_mut()
            .filter_map(|(s, _)| s.rec.as_mut().map(std::mem::take))
            .collect();
        parts.extend(self.control.trace.as_mut().map(std::mem::take));
        merge_traces(parts)
    }

    /// The next pause instant on a checkpoint grid of spacing `every`:
    /// `min(time() + every, end())`, or `None` once the horizon is
    /// reached — the natural loop bound for
    /// `while let Some(t) = lw.next_grid(every) { lw.run_to(t); ... }`.
    pub fn next_grid(&self, every: bcp_sim::time::SimDuration) -> Option<SimTime> {
        if self.now >= self.scaf.end {
            return None;
        }
        Some((self.now + every).min(self.scaf.end))
    }

    fn advance(&mut self, target: SimTime) {
        let shards = std::mem::take(&mut self.shards);
        let gqueue = std::mem::replace(&mut self.gqueue, ShardQueue::new());
        // The engine's end is inclusive; a pause at `target` must leave
        // events at exactly `target` pending, so stop one tick short —
        // except at the horizon, which the run includes.
        let engine_end = if target >= self.scaf.end {
            self.scaf.end
        } else {
            SimTime::from_nanos(target.as_nanos() - 1)
        };
        let outcome = run_conservative(
            shards,
            gqueue,
            &mut self.control,
            self.scaf.lookahead,
            engine_end,
            self.scaf.threads,
            self.series_every,
        );
        self.shards = outcome.shards.into_iter().zip(outcome.queues).collect();
        self.gqueue = outcome.globals;
        // Fold segment counters: totals add; the per-shard figures are
        // queue-cumulative (processed) or high-water marks (max queue)
        // and replace / max-combine instead.
        let c = outcome.counters;
        self.counters.windows += c.windows;
        self.counters.barriers += c.barriers;
        self.counters.serial_steps += c.serial_steps;
        self.counters.window_width_s_sum += c.window_width_s_sum;
        self.counters.barrier_wait_s += c.barrier_wait_s;
        self.counters.wall_s += c.wall_s;
        self.counters.per_shard_processed = c.per_shard_processed;
        if self.counters.per_shard_max_queue.len() < c.per_shard_max_queue.len() {
            self.counters
                .per_shard_max_queue
                .resize(c.per_shard_max_queue.len(), 0);
        }
        for (m, &v) in self
            .counters
            .per_shard_max_queue
            .iter_mut()
            .zip(&c.per_shard_max_queue)
        {
            *m = (*m).max(v);
        }
        self.now = target;
    }

    /// Runs the remaining horizon and folds the shards into the run
    /// summary. On a freshly built world this is exactly the classic
    /// one-shot run; on a restored world the trace and series cover the
    /// post-restore segment only (the earlier samples were emitted — and
    /// typically persisted — by the original run before the checkpoint).
    pub fn finish(mut self) -> RunOutput {
        let end = self.scaf.end;
        self.advance(end);
        // The per-shard records (plus the coordinator's), handed over
        // without a copy and merged into one deterministic stream.
        let trace = self.drain_trace();
        let LiveWorld {
            scaf,
            shards,
            mut control,
            counters,
            ..
        } = self;
        let k = scaf.part.k();
        let shards: Vec<ShardState> = shards.into_iter().map(|(s, _)| s).collect();
        // Logical event count: reception fan-outs counted once per
        // transmission phase (not once per hearing shard), so the figure
        // is identical for every shard count.
        let events = shards.iter().map(|s| s.events_logical).sum::<u64>() + control.global_events;

        // The engine fires samples only while events pend; continue the
        // grid from the final quiescent state and close exactly at the
        // horizon so the series telescopes to the end-of-run totals.
        let series = match control.series.take() {
            Some(mut st) => {
                while st.next <= end {
                    let at = st.next;
                    let mut scan = SeriesScan::new(&scaf.scen);
                    for s in &shards {
                        scan.add_shard(s, at);
                    }
                    st.record(at, scan, vec![0; k]);
                }
                if st.last != Some(end) {
                    let mut scan = SeriesScan::new(&scaf.scen);
                    for s in &shards {
                        scan.add_shard(s, end);
                    }
                    st.record(end, scan, vec![0; k]);
                }
                st.samples
            }
            None => Vec::new(),
        };

        let engine = World::engine_stats(counters, k, scaf.threads, events);
        let stats = World::finalize(&scaf.scen, &scaf.part, shards, control, end, events, engine);
        RunOutput {
            stats,
            trace,
            series,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcp_net::addr::NodeId;
    use bcp_net::topo::Topology;

    /// A tiny two-node scenario: node 1 sends to sink node 0 over one hop.
    fn two_node(model: ModelKind, burst_packets: usize) -> Scenario {
        let mut s = Scenario::single_hop(model, 1, burst_packets, 42);
        s.topo = Topology::line(2, 40.0);
        s.sink = NodeId(0);
        s.senders = vec![NodeId(1)];
        s.duration = SimDuration::from_secs(200);
        s.rate_bps = 2_000.0;
        s
    }

    /// A one-shard trace leaves the world as the recorder's own buffer.
    #[test]
    fn draining_a_one_shard_trace_copies_no_record() {
        let opts = RunOptions {
            trace: true,
            ..RunOptions::default()
        };
        let mut lw = World::build(&two_node(ModelKind::DualRadio, 100), &opts);
        lw.run_to(SimTime::from_secs(100));
        let rec = lw.shards[0].0.rec.as_ref().expect("recorder attached");
        let (ptr, len) = (rec.as_ptr(), rec.len());
        let drained = lw.drain_trace();
        assert!(len > 0, "the run records events");
        assert_eq!((drained.as_ptr(), drained.len()), (ptr, len));
    }

    #[test]
    fn sensor_model_delivers() {
        let stats = two_node(ModelKind::Sensor, 10).run();
        assert!(stats.goodput > 0.95, "goodput {}", stats.goodput);
        assert!(stats.energy_j > 0.0);
        assert!(stats.mean_delay_s < 0.5, "one hop is fast");
    }

    #[test]
    fn dot11_model_delivers() {
        let stats = two_node(ModelKind::Dot11, 10).run();
        assert!(stats.goodput > 0.95, "goodput {}", stats.goodput);
        assert!(
            stats.energy_j > 100.0,
            "always-on 802.11 idles expensively: {}",
            stats.energy_j
        );
    }

    #[test]
    fn dual_radio_delivers_in_bursts() {
        let stats = two_node(ModelKind::DualRadio, 100).run();
        // 2 kbps × 200 s = 50 KB generated; bursts of 3.2 KB.
        assert!(stats.goodput > 0.8, "goodput {}", stats.goodput);
        assert!(stats.metrics.radio_wakeups >= 5, "several bursts expected");
        assert!(
            stats.mean_delay_s > 1.0,
            "buffering delay must appear: {}",
            stats.mean_delay_s
        );
        assert!(stats.j_per_kbit.is_finite());
    }

    #[test]
    fn dual_radio_beats_sensor_header_energy_two_nodes() {
        // Minimal sanity version of Fig. 6's ordering on a single link.
        let dual = two_node(ModelKind::DualRadio, 500).run();
        let sensor = two_node(ModelKind::Sensor, 500).run();
        assert!(
            dual.j_per_kbit < sensor.j_per_kbit_header * 1.5,
            "dual {} vs sensor-header {}",
            dual.j_per_kbit,
            sensor.j_per_kbit_header
        );
    }

    #[test]
    fn determinism_same_seed() {
        let a = two_node(ModelKind::DualRadio, 100).run();
        let b = two_node(ModelKind::DualRadio, 100).run();
        assert_eq!(a.goodput, b.goodput);
        assert_eq!(a.energy_j, b.energy_j);
        assert_eq!(a.mean_delay_s, b.mean_delay_s);
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn different_seeds_differ() {
        let mut s1 = two_node(ModelKind::DualRadio, 100);
        s1.seed = 1;
        let mut s2 = two_node(ModelKind::DualRadio, 100);
        s2.seed = 2;
        let a = s1.run();
        let b = s2.run();
        // Phases differ, so event counts almost surely differ.
        assert_ne!(a.events, b.events);
    }

    #[test]
    fn grid_dual_radio_smoke() {
        let mut s = Scenario::single_hop(ModelKind::DualRadio, 5, 100, 7);
        s.duration = SimDuration::from_secs(120);
        let stats = s.run();
        assert!(stats.goodput > 0.5, "goodput {}", stats.goodput);
        assert!(stats.metrics.delivered_packets > 100);
        assert!(stats.metrics.handshakes > 0);
    }

    #[test]
    fn multi_hop_dual_radio_smoke() {
        let mut s = Scenario::multi_hop(ModelKind::DualRadio, 5, 100, 7);
        s.duration = SimDuration::from_secs(120);
        let stats = s.run();
        assert!(stats.goodput > 0.5, "goodput {}", stats.goodput);
    }

    #[test]
    fn poisson_and_bursty_workloads_run() {
        use crate::scenario::WorkloadKind;
        for (kind, min_goodput) in [
            (WorkloadKind::Poisson, 0.7),
            (
                WorkloadKind::BurstyAudio {
                    mean_on_s: 3.0,
                    mean_off_s: 10.0,
                },
                0.5,
            ),
        ] {
            let mut s = two_node(ModelKind::DualRadio, 100);
            s.workload = kind;
            let stats = s.run();
            assert!(
                stats.goodput > min_goodput,
                "{kind:?}: goodput {}",
                stats.goodput
            );
            assert!(stats.metrics.delivered_packets > 100);
        }
    }

    #[test]
    fn shortcut_learning_changes_routing_behaviour() {
        use crate::scenario::HighRoute;
        use bcp_sim::time::SimDuration as D;
        // Mid-range high radio on a 5-node line: low parents are adjacent,
        // shortcuts can reach two hops (80 m <= 100 m).
        let base = {
            let mut s = Scenario::single_hop(ModelKind::DualRadio, 1, 100, 3);
            s.topo = Topology::line(5, 40.0);
            s.sink = NodeId(0);
            s.senders = vec![NodeId(4)];
            s.high_profile = bcp_radio::profile::cabletron().with_range(100.0);
            s.duration = D::from_secs(400);
            s
        };
        let plain = base
            .clone()
            .with_high_route(HighRoute::LowParents {
                shortcuts: false,
                listen: D::from_millis(200),
            })
            .run();
        let learned = base
            .with_high_route(HighRoute::LowParents {
                shortcuts: true,
                listen: D::from_millis(200),
            })
            .run();
        assert!(plain.goodput > 0.8 && learned.goodput > 0.8);
        // Skipping relays means fewer wake-ups in steady state.
        assert!(
            learned.metrics.radio_wakeups < plain.metrics.radio_wakeups,
            "shortcuts skip relays: {} vs {} wakeups",
            learned.metrics.radio_wakeups,
            plain.metrics.radio_wakeups
        );
        assert!(
            learned.mean_delay_s < plain.mean_delay_s,
            "fewer store-and-forward stages: {} vs {}",
            learned.mean_delay_s,
            plain.mean_delay_s
        );
    }

    #[test]
    fn batteries_kill_nodes_and_stats_report_it() {
        use bcp_power::{Battery, PowerConfig};
        // A battery that survives roughly half the run at MicaZ idle draw.
        let mut s = two_node(ModelKind::Sensor, 10);
        s.power = PowerConfig::with_battery(Battery::ideal_joules(8.0));
        let stats = s.run();
        let ttfd = stats.time_to_first_death_s.expect("sender must die");
        assert!(ttfd > 0.0 && ttfd < 200.0, "death inside the run: {ttfd}");
        assert_eq!(stats.metrics.node_deaths, 1, "sink is mains-powered");
        // The sole sender died: that is a sink disconnection.
        assert_eq!(stats.time_to_partition_s, Some(ttfd));
        assert!(stats.delivered_before_first_death > 0);
        assert!(stats.delivered_before_first_death <= stats.metrics.delivered_packets);
        // The alive prefix delivered nearly everything it generated...
        assert!(stats.goodput_before_first_death() > 0.9);
        // ...and generation stopped at death: 2 kbps of 32 B packets for
        // `ttfd` seconds, not for the full 200 s run.
        let expected = ttfd * 2_000.0 / (32.0 * 8.0);
        let generated = stats.metrics.generated_packets as f64;
        assert!(
            generated <= expected + 2.0 && generated >= expected * 0.9,
            "dead senders go quiet: {generated} packets vs ~{expected:.0} to death"
        );
        // Per-node accounting: the sender's battery is spent, the sink
        // runs on mains.
        let sender = &stats.per_node[1];
        assert_eq!(sender.died_at_s, Some(ttfd));
        assert!(sender.residual_j.unwrap() < 1e-6);
        assert!(stats.per_node[0].capacity_j.is_none());
    }

    #[test]
    fn unlimited_power_reports_no_deaths() {
        let stats = two_node(ModelKind::Sensor, 10).run();
        assert_eq!(stats.time_to_first_death_s, None);
        assert_eq!(stats.time_to_partition_s, None);
        assert_eq!(stats.metrics.node_deaths, 0);
        assert_eq!(
            stats.delivered_before_first_death,
            stats.metrics.delivered_packets
        );
        assert!(stats.per_node.iter().all(|n| n.capacity_j.is_none()));
    }

    #[test]
    fn death_times_are_seed_reproducible() {
        use bcp_power::{Battery, PowerConfig};
        let build = || {
            let mut s = Scenario::single_hop(ModelKind::DualRadio, 5, 100, 11);
            s.duration = SimDuration::from_secs(300);
            s.power = PowerConfig::with_battery(Battery::aa_pair().scaled(5e-4));
            s
        };
        let a = build().run();
        let b = build().run();
        assert_eq!(a.time_to_first_death_s, b.time_to_first_death_s);
        assert_eq!(a.metrics.node_deaths, b.metrics.node_deaths);
        let deaths_a: Vec<_> = a.per_node.iter().map(|n| n.died_at_s).collect();
        let deaths_b: Vec<_> = b.per_node.iter().map(|n| n.died_at_s).collect();
        assert_eq!(deaths_a, deaths_b, "identical seeds, identical deaths");
        assert!(a.metrics.node_deaths > 0, "scenario exercises death at all");
    }

    #[test]
    fn survivors_reroute_around_a_corpse() {
        use bcp_power::{Battery, PowerConfig};
        // A 3×3 grid at orthogonal-neighbour range; sink in the corner.
        // The shortest-hop route from corner 8 runs 8→5→2→1→0 (BFS ties
        // break to the lowest id); relay 1 gets a starved battery and dies
        // mid-run, and the sender must keep delivering around the corpse.
        let mut s = Scenario::single_hop(ModelKind::Sensor, 1, 10, 5);
        s.topo = Topology::grid(3, 40.0);
        s.sink = NodeId(0);
        s.senders = vec![NodeId(8)];
        s.duration = SimDuration::from_secs(400);
        s.rate_bps = 500.0;
        s.power = PowerConfig::unlimited().with_node_battery(1, Battery::ideal_joules(6.0));
        let stats = s.run();
        let ttfd = stats.time_to_first_death_s.expect("starved relay dies");
        assert!(ttfd < 250.0, "death well inside the run: {ttfd}");
        assert_eq!(stats.metrics.node_deaths, 1, "only the starved relay");
        assert_eq!(stats.per_node[1].died_at_s, Some(ttfd));
        assert_eq!(
            stats.time_to_partition_s, None,
            "the grid survives one corpse"
        );
        assert!(
            stats.metrics.delivered_packets > stats.delivered_before_first_death,
            "deliveries continued past the death at {ttfd}"
        );
        // Without route repair the MAC would shed every post-death packet
        // at the dead next hop; end-to-end goodput stays high instead.
        assert!(stats.goodput > 0.9, "goodput {}", stats.goodput);
    }

    #[test]
    fn dead_forwarders_do_not_blackhole_learned_shortcuts() {
        use crate::scenario::HighRoute;
        use bcp_power::{Battery, PowerConfig};
        use bcp_sim::time::SimDuration as D;
        // 3×3 grid, mid-range high radio: corner sender 8 learns shortcuts
        // through the 8→5→2→1→0 low-parent chain. All three relays on that
        // chain are starved and die mid-run; the learned shortcut must die
        // with them (not keep swallowing bursts), and traffic must continue
        // over the surviving 7/6/3 side of the grid.
        let mut s = Scenario::single_hop(ModelKind::DualRadio, 1, 50, 9);
        s.topo = Topology::grid(3, 40.0);
        s.sink = NodeId(0);
        s.senders = vec![NodeId(8)];
        s.high_profile = bcp_radio::profile::cabletron().with_range(100.0);
        s.duration = D::from_secs(600);
        s.rate_bps = 2_000.0;
        s.high_route = HighRoute::LowParents {
            shortcuts: true,
            listen: D::from_millis(200),
        };
        s.power = PowerConfig::unlimited()
            .with_node_battery(1, Battery::ideal_joules(8.0))
            .with_node_battery(2, Battery::ideal_joules(8.0))
            .with_node_battery(5, Battery::ideal_joules(8.0));
        let stats = s.run();
        assert_eq!(stats.metrics.node_deaths, 3, "the starved chain died");
        let ttfd = stats.time_to_first_death_s.expect("deaths happened");
        assert!(ttfd < 400.0, "deaths left time to recover: {ttfd}");
        assert!(
            stats.metrics.delivered_packets > stats.delivered_before_first_death,
            "deliveries continued after the chain died"
        );
        assert!(
            stats.goodput > 0.6,
            "no blackhole: goodput {}",
            stats.goodput
        );
    }

    #[test]
    fn energy_aware_routing_runs_and_delivers() {
        use bcp_net::routing::RouteWeight;
        use bcp_power::{Battery, PowerConfig};
        use bcp_sim::time::SimDuration as D;
        let mut s = Scenario::single_hop(ModelKind::Sensor, 5, 10, 3);
        s.duration = D::from_secs(200);
        s.power = PowerConfig::with_battery(Battery::ideal_joules(50.0))
            .with_reroute_every(D::from_secs(20));
        s.route_weight = RouteWeight::MaxMinResidual;
        let stats = s.run();
        assert!(stats.goodput > 0.0, "energy-aware routes still deliver");
    }

    #[test]
    fn battery_drain_matches_ledgers_exactly() {
        use bcp_power::{Battery, PowerConfig};
        for model in [ModelKind::Sensor, ModelKind::Dot11, ModelKind::DualRadio] {
            let mut s = two_node(model, 50);
            s.duration = SimDuration::from_secs(100);
            s.power = PowerConfig::with_battery(Battery::ideal_joules(30.0)).battery_powered_sink();
            let stats = s.run();
            for n in &stats.per_node {
                let drawn = n.drawn_j.expect("all nodes battery-powered");
                let cap = n.capacity_j.unwrap();
                // The battery supplied exactly what the meters recorded,
                // clamped at capacity for nodes that died.
                assert!(
                    (drawn - n.ledger_j.min(cap)).abs() < 1e-6,
                    "{model:?} {}: drawn {drawn} vs ledger {} (cap {cap})",
                    n.node,
                    n.ledger_j
                );
                // A dead node's ledger froze at death: it never exceeds
                // capacity by more than the one-tick death rounding.
                if n.died_at_s.is_some() {
                    assert!(n.ledger_j <= cap + 1e-6, "ledger kept accumulating");
                }
            }
        }
    }

    /// Asserts two runs are bit-identical in every reported quantity.
    fn assert_bit_identical(a: &RunStats, b: &RunStats, label: &str) {
        assert_eq!(a.goodput, b.goodput, "{label}: goodput");
        assert_eq!(a.energy_j, b.energy_j, "{label}: energy");
        assert_eq!(a.energy_header_j, b.energy_header_j, "{label}: header");
        assert_eq!(
            a.energy_overhear_full_j, b.energy_overhear_full_j,
            "{label}: overhear"
        );
        assert_eq!(a.mean_delay_s, b.mean_delay_s, "{label}: delay");
        assert_eq!(a.events, b.events, "{label}: events");
        assert_eq!(
            a.time_to_first_death_s, b.time_to_first_death_s,
            "{label}: ttfd"
        );
        assert_eq!(
            a.time_to_partition_s, b.time_to_partition_s,
            "{label}: partition"
        );
        assert_eq!(
            a.delivered_before_first_death, b.delivered_before_first_death,
            "{label}: delivered before death"
        );
        let (ma, mb) = (&a.metrics, &b.metrics);
        assert_eq!(ma.generated_packets, mb.generated_packets, "{label}");
        assert_eq!(ma.delivered_packets, mb.delivered_packets, "{label}");
        assert_eq!(ma.drops_mac, mb.drops_mac, "{label}: mac drops");
        assert_eq!(ma.drops_buffer, mb.drops_buffer, "{label}: buffer drops");
        assert_eq!(ma.residual_packets, mb.residual_packets, "{label}");
        assert_eq!(ma.collisions, mb.collisions, "{label}: collisions");
        assert_eq!(ma.handshakes, mb.handshakes, "{label}: handshakes");
        assert_eq!(ma.radio_wakeups, mb.radio_wakeups, "{label}: wakeups");
        assert_eq!(ma.node_deaths, mb.node_deaths, "{label}: deaths");
        assert_eq!(
            a.energy_low_idle_j, b.energy_low_idle_j,
            "{label}: idle floor"
        );
        assert_eq!(
            a.energy_low_sleep_j, b.energy_low_sleep_j,
            "{label}: sleep floor"
        );
        assert_eq!(a.per_node, b.per_node, "{label}: per-node accounting");
    }

    #[test]
    fn shard_count_invariant_sensor_with_deaths() {
        use bcp_power::{Battery, PowerConfig};
        // 6×6 grid, several senders, starved relays dying mid-run: covers
        // cross-shard traffic, route repair and the death barrier.
        let build = |shards: usize| {
            let mut s = Scenario::single_hop(ModelKind::Sensor, 8, 10, 17);
            s.duration = SimDuration::from_secs(60);
            s.power = PowerConfig::unlimited()
                .with_node_battery(13, Battery::ideal_joules(1.0))
                .with_node_battery(20, Battery::ideal_joules(1.2));
            s.shards = shards;
            s
        };
        let one = build(1).run();
        assert!(one.metrics.node_deaths > 0, "scenario exercises deaths");
        assert!(one.metrics.delivered_packets > 100, "traffic flows");
        for k in [2, 4] {
            let sharded = build(k).run();
            assert_bit_identical(&one, &sharded, &format!("shards={k}"));
        }
    }

    #[test]
    fn shard_count_invariant_dual_radio() {
        let build = |shards: usize| {
            let mut s = Scenario::multi_hop(ModelKind::DualRadio, 6, 100, 23);
            s.duration = SimDuration::from_secs(90);
            s.shards = shards;
            s
        };
        let one = build(1).run();
        assert!(one.metrics.delivered_packets > 100, "traffic flows");
        assert!(one.metrics.radio_wakeups > 0, "bursts happened");
        for k in [2, 4] {
            let sharded = build(k).run();
            assert_bit_identical(&one, &sharded, &format!("shards={k}"));
        }
    }

    #[test]
    fn shard_count_invariant_lossy_channel() {
        use bcp_net::loss::LossModel;
        // Per-node loss streams must make loss outcomes shard-invariant.
        let build = |shards: usize| {
            let mut s = Scenario::single_hop(ModelKind::Sensor, 6, 10, 31);
            s.duration = SimDuration::from_secs(60);
            s.loss_low = LossModel::bernoulli(0.2);
            s.shards = shards;
            s
        };
        let one = build(1).run();
        assert!(one.metrics.drops_mac > 0, "losses bite");
        for k in [3, 4] {
            let sharded = build(k).run();
            assert_bit_identical(&one, &sharded, &format!("shards={k}"));
        }
    }

    #[test]
    fn lpl_shrinks_the_idle_floor_and_still_delivers() {
        use bcp_mac::sleep::SleepSchedule;
        // 500 bps keeps the offered load inside LPL's service rate: each
        // frame costs ~0.1 s of preamble plus up to ~0.19 s of scaled
        // congestion backoff against a 0.512 s interarrival.
        let always = two_node(ModelKind::Sensor, 10).with_rate(500.0).run();
        let mut s = two_node(ModelKind::Sensor, 10).with_rate(500.0);
        s.low_sleep =
            SleepSchedule::lpl(SimDuration::from_millis(100), SimDuration::from_millis(10));
        let lpl = s.run();
        // A clean two-node link: CSMA serialises the stretched frames, so
        // deliveries survive duty cycling.
        assert!(lpl.goodput > 0.9, "goodput {}", lpl.goodput);
        // The idle tax collapses (10% duty + wake-ups for traffic)…
        assert_eq!(always.energy_low_sleep_j, 0.0, "always-on never dozes");
        assert!(lpl.energy_low_sleep_j > 0.0, "LPL dozes");
        assert!(
            lpl.energy_low_idle_j < always.energy_low_idle_j * 0.3,
            "idle floor shrank: {} vs {}",
            lpl.energy_low_idle_j,
            always.energy_low_idle_j
        );
        // …while the transfer path pays for every stretched preamble: the
        // paper's "ideal" (tx+rx only) energy strictly grows.
        assert!(
            lpl.energy_j > always.energy_j,
            "preambles cost transfer energy: {} vs {}",
            lpl.energy_j,
            always.energy_j
        );
        // Frames also spend longer on the air end to end.
        assert!(lpl.mean_delay_s > always.mean_delay_s);
    }

    #[test]
    fn lpl_extends_a_battery_limited_nodes_life() {
        use bcp_mac::sleep::SleepSchedule;
        use bcp_power::{Battery, PowerConfig};
        // A sender battery that an always-listening MicaZ idles away in
        // ~135 s. Low traffic so transfers stay a minor cost.
        let build = |sleep: SleepSchedule| {
            let mut s = two_node(ModelKind::Sensor, 10);
            s.rate_bps = 200.0;
            s.power = PowerConfig::with_battery(Battery::ideal_joules(8.0));
            s.low_sleep = sleep;
            s
        };
        let always = build(SleepSchedule::AlwaysOn).run();
        let lpl = build(SleepSchedule::lpl(
            SimDuration::from_millis(100),
            SimDuration::from_millis(10),
        ))
        .run();
        let t_always = always
            .time_to_first_death_s
            .expect("always-on idles itself to death");
        match lpl.time_to_first_death_s {
            // Surviving the whole 200 s run is the ideal outcome…
            None => {}
            // …and even a death must come far later than always-on's.
            Some(t) => assert!(
                t > t_always * 1.4,
                "duty cycling must extend life: {t} vs {t_always}"
            ),
        }
    }

    #[test]
    fn lossy_channel_reduces_goodput() {
        use bcp_net::loss::LossModel;
        let clean = two_node(ModelKind::Sensor, 10).run();
        let mut lossy_scen = two_node(ModelKind::Sensor, 10);
        lossy_scen.loss_low = LossModel::bernoulli(0.5);
        let lossy = lossy_scen.run();
        assert!(
            lossy.goodput < clean.goodput,
            "losses must hurt: {} vs {}",
            lossy.goodput,
            clean.goodput
        );
    }
}
