//! The whole-world side of the sharded simulator: the immutable
//! route/liveness snapshot every shard reads, and the coordinator logic
//! that rebuilds it at global events (node deaths, periodic refreshes).
//!
//! Shards never mutate shared state. Between global events the snapshot
//! is constant; at a global event the coordinator has exclusive access,
//! recomputes routes from the residual energies across all shards, and
//! installs a fresh [`Arc`] into every shard. Because global events are
//! deferred by one link latency (like every cross-node signal), they sit
//! at a deterministic position in the event order and the swap is
//! observed identically for every shard count.

use crate::events::GlobalEv;
use crate::metrics::{Metrics, SeriesSample};
use crate::node::NodeState;
use crate::scenario::{ModelKind, Scenario};
use crate::shard::ShardState;
use bcp_net::addr::NodeId;
use bcp_net::routing::{Dissemination, RouteWeight, Routes};
use bcp_power::BatteryModel;
use bcp_radio::energy::EnergyBucket;
use bcp_radio::units::Energy;
use bcp_sim::conservative::{PdesControl, ShardsMut};
use bcp_sim::keyed::{EvKey, Keyed};
use bcp_sim::time::{SimDuration, SimTime};
use bcp_sim::trace::{TraceEvent, TraceRecord};
use bcp_traffic::TrafficPattern;
use std::sync::Arc;

/// The coordinator-published snapshot of whole-world state.
#[derive(Debug)]
pub(crate) struct SharedNet {
    /// Low-radio routes.
    pub low_routes: Routes,
    /// High-radio routes.
    pub high_routes: Routes,
    /// Per-node liveness as of the last global event.
    pub alive: Vec<bool>,
    /// `true` once a death has been announced: ends the "all nodes alive"
    /// prefix that the before-first-death metrics measure.
    pub death_seen: bool,
    /// The source-rooted dissemination tree broadcast traffic relays
    /// down: the reverse of the data routes toward the source. Present
    /// exactly under [`TrafficPattern::Broadcast`], and rebuilt with the
    /// routes at every global event — route repair after a death repairs
    /// the tree in the same stroke.
    pub dissem: Option<Dissemination>,
}

impl SharedNet {
    /// The routes a model's data ultimately depends on: the low radio for
    /// the sensor model and for BCP (whose handshake travels over it), the
    /// high radio for pure 802.11.
    pub fn data_routes(&self, model: ModelKind) -> &Routes {
        match model {
            ModelKind::Sensor | ModelKind::DualRadio => &self.low_routes,
            ModelKind::Dot11 => &self.high_routes,
        }
    }
}

/// Per-node residual energy for route weighting: a node's remaining
/// charge in joules, or `INFINITY` for mains-powered nodes.
pub(crate) fn initial_residuals(scen: &Scenario) -> Vec<f64> {
    scen.topo
        .nodes()
        .map(|id| {
            scen.power
                .battery_for(id.index(), id == scen.sink)
                .map(|b| b.capacity().as_joules())
                .unwrap_or(f64::INFINITY)
        })
        .collect()
}

pub(crate) fn compute_routes(
    scen: &Scenario,
    residual: &[f64],
    dead: &[NodeId],
) -> (Routes, Routes) {
    let mk = |range_m: f64| match scen.route_weight {
        RouteWeight::ShortestHop => Routes::shortest_hop_excluding(&scen.topo, range_m, dead),
        RouteWeight::MaxMinResidual => {
            Routes::max_min_residual(&scen.topo, range_m, residual, dead)
        }
    };
    (mk(scen.low_profile.range_m), mk(scen.high_profile.range_m))
}

/// The dissemination tree for a broadcast scenario, rooted at the source
/// over the model's data routes; `None` for other patterns.
pub(crate) fn compute_dissem(
    scen: &Scenario,
    low_routes: &Routes,
    high_routes: &Routes,
) -> Option<Dissemination> {
    match scen.pattern {
        TrafficPattern::Broadcast { source } => {
            let routes = match scen.model {
                ModelKind::Sensor | ModelKind::DualRadio => low_routes,
                ModelKind::Dot11 => high_routes,
            };
            Some(Dissemination::from_routes(routes, source))
        }
        _ => None,
    }
}

/// Builds the snapshot a run starts with (everyone alive, full charge).
pub(crate) fn initial_shared(scen: &Scenario) -> Arc<SharedNet> {
    let (low_routes, high_routes) = compute_routes(scen, &initial_residuals(scen), &[]);
    let dissem = compute_dissem(scen, &low_routes, &high_routes);
    Arc::new(SharedNet {
        low_routes,
        high_routes,
        alive: vec![true; scen.topo.len()],
        death_seen: false,
        dissem,
    })
}

/// The coordinator: executes global events with exclusive access to all
/// shards and owns the whole-run slice of the metrics (deaths,
/// partition).
#[derive(Debug)]
pub(crate) struct Control {
    pub scen: Arc<Scenario>,
    /// The gossip flow list, resolved once at build (it is a constant of
    /// the scenario; re-deriving it per death event would repeat the
    /// whole pair draw inside the serial global-event step). Empty for
    /// other patterns.
    pub gossip_flows: Vec<(NodeId, NodeId)>,
    /// Global metrics slice: node deaths, first death, partition instant.
    pub metrics: Metrics,
    /// Global events executed (part of the run's event count).
    pub global_events: u64,
    /// Flight-recorder slice for coordinator-side events (route repairs
    /// and refreshes); `None` when tracing is off.
    pub trace: Option<Vec<TraceRecord>>,
    /// Per-window time-series sampler; `None` when no series was asked
    /// for.
    pub series: Option<SeriesState>,
}

/// Cumulative run totals at one sample instant, folded the same way
/// `World::finalize` folds the end-of-run figures (node-id order), so the
/// series' running sum lands bit-exactly on the final [`RunStats`].
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Cumulative {
    /// Packets generated.
    pub gen_p: u64,
    /// Payload bits generated.
    pub gen_b: u64,
    /// Packets delivered.
    pub del_p: u64,
    /// Payload bits delivered.
    pub del_b: u64,
    /// Model-accounted energy (joules).
    pub energy_j: f64,
    /// Low-radio idle energy (joules).
    pub low_idle_j: f64,
    /// Low-radio sleep energy (joules).
    pub low_sleep_j: f64,
}

bcp_sim::persist!(struct Cumulative {
    gen_p, gen_b, del_p, del_b, energy_j, low_idle_j, low_sleep_j
});

/// One pass over the shards collecting the cumulative series quantities
/// at a sample instant. Per-node energy contributions are gathered
/// id-indexed and folded in id order at the end — the same accumulation
/// sequence as `World::finalize` — so the figures are shard-count
/// invariant bit for bit.
#[derive(Debug)]
pub(crate) struct SeriesScan {
    model: ModelKind,
    // (low tx+rx, high all-buckets, low idle, low sleep) per node id.
    per_node: Vec<(Energy, Energy, Energy, Energy)>,
    alive: Vec<bool>,
    gen_p: u64,
    gen_b: u64,
    del_p: u64,
    del_b: u64,
}

impl SeriesScan {
    pub fn new(scen: &Scenario) -> Self {
        let n = scen.topo.len();
        SeriesScan {
            model: scen.model,
            per_node: vec![(Energy::ZERO, Energy::ZERO, Energy::ZERO, Energy::ZERO); n],
            alive: vec![false; n],
            gen_p: 0,
            gen_b: 0,
            del_p: 0,
            del_b: 0,
        }
    }

    /// Folds one shard's owned nodes and counters in (the radio reports
    /// are non-destructive reads, so scanning never perturbs the run).
    pub fn add_shard(&mut self, s: &ShardState, at: SimTime) {
        self.gen_p += s.metrics.generated_packets;
        self.gen_b += s.metrics.generated_bits;
        self.del_p += s.metrics.delivered_packets;
        self.del_b += s.metrics.delivered_bits;
        for node in s.owned_nodes() {
            let i = node.id.index();
            self.alive[i] = node.is_alive();
            self.per_node[i] = node_energy_split(self.model, node, at);
        }
    }

    /// The cumulative totals plus the live-node count, folding energies
    /// in node-id order exactly as `World::finalize` does.
    pub fn finish(self) -> (Cumulative, u64) {
        let mut energy = Energy::ZERO;
        let mut idle = Energy::ZERO;
        let mut sleep = Energy::ZERO;
        for &(low_txrx, high_all, low_idle, low_sleep) in &self.per_node {
            idle += low_idle;
            sleep += low_sleep;
            energy += low_txrx;
            energy += high_all;
        }
        let live = self.alive.iter().filter(|&&a| a).count() as u64;
        (
            Cumulative {
                gen_p: self.gen_p,
                gen_b: self.gen_b,
                del_p: self.del_p,
                del_b: self.del_b,
                energy_j: energy.as_joules(),
                low_idle_j: idle.as_joules(),
                low_sleep_j: sleep.as_joules(),
            },
            live,
        )
    }
}

/// One node's energy contributions at `at`, split as `(low tx+rx, high
/// all-buckets, low idle, low sleep)` under the model's accounting —
/// the per-node terms of the [`crate::metrics::RunStats::energy_j`] /
/// idle-floor folds.
fn node_energy_split(
    model: ModelKind,
    node: &NodeState,
    at: SimTime,
) -> (Energy, Energy, Energy, Energy) {
    use EnergyBucket as B;
    let low = node.low_radio.report(at);
    let low_txrx = match model {
        ModelKind::Sensor | ModelKind::DualRadio => low.total_of(&[B::Tx, B::Rx]),
        ModelKind::Dot11 => Energy::ZERO,
    };
    let high_all = match (&node.high_radio, model) {
        (Some(hr), ModelKind::Dot11 | ModelKind::DualRadio) => {
            hr.report(at)
                .total_of(&[B::Tx, B::Rx, B::Overhear, B::Idle, B::Sleep, B::Wakeup])
        }
        _ => Energy::ZERO,
    };
    (low_txrx, high_all, low.of(B::Idle), low.of(B::Sleep))
}

/// The per-window series sampler: previous cumulative snapshot, the
/// emitted delta samples, and where the sample grid continues after the
/// event queues drain.
#[derive(Debug)]
pub(crate) struct SeriesState {
    /// The sampling interval.
    pub every: SimDuration,
    /// The next sample instant not yet emitted (the engine fires samples
    /// only while events pend; `World::run_with` emits the tail from the
    /// final state).
    pub next: SimTime,
    /// The last instant actually emitted, if any.
    pub last: Option<SimTime>,
    /// The emitted samples, in time order.
    pub samples: Vec<SeriesSample>,
    /// The cumulative totals at the last emitted sample — the baseline the
    /// next delta subtracts from. Captured verbatim by checkpoints so a
    /// resumed series continues the telescoping sum bit-exactly.
    pub(crate) prev: Cumulative,
}

impl SeriesState {
    pub fn new(every: SimDuration) -> Self {
        SeriesState {
            every,
            next: SimTime::ZERO + every,
            last: None,
            samples: Vec::new(),
            prev: Cumulative::default(),
        }
    }

    /// Emits the delta sample ending at `at` and advances the grid.
    pub fn record(&mut self, at: SimTime, scan: SeriesScan, queue_depth: Vec<usize>) {
        let (cum, live) = scan.finish();
        self.samples.push(SeriesSample {
            t_s: at.as_secs_f64(),
            generated_packets: cum.gen_p - self.prev.gen_p,
            generated_bits: cum.gen_b - self.prev.gen_b,
            delivered_packets: cum.del_p - self.prev.del_p,
            delivered_bits: cum.del_b - self.prev.del_b,
            energy_j: cum.energy_j - self.prev.energy_j,
            energy_low_idle_j: cum.low_idle_j - self.prev.low_idle_j,
            energy_low_sleep_j: cum.low_sleep_j - self.prev.low_sleep_j,
            live_nodes: live,
            queue_depth,
        });
        self.prev = cum;
        self.last = Some(at);
        self.next = at + self.every;
    }
}

impl Control {
    /// Recomputes routes and liveness from the current residual energies
    /// across every shard and installs the fresh snapshot everywhere.
    fn republish(
        &self,
        shards: &mut ShardsMut<'_, ShardState>,
        death_seen: bool,
    ) -> Arc<SharedNet> {
        let n = self.scen.topo.len();
        let mut residual = vec![f64::INFINITY; n];
        let mut alive = vec![true; n];
        shards.for_each(|_, s| {
            for node in s.owned_nodes() {
                let i = node.id.index();
                residual[i] = match &node.supply {
                    Some(sup) => sup.battery().remaining().as_joules(),
                    None => f64::INFINITY,
                };
                alive[i] = node.is_alive();
            }
        });
        let mut dead: Vec<NodeId> = (0..n as u32)
            .map(NodeId)
            .filter(|d| !alive[d.index()])
            .collect();
        dead.sort();
        let (low_routes, high_routes) = compute_routes(&self.scen, &residual, &dead);
        let dissem = compute_dissem(&self.scen, &low_routes, &high_routes);
        let snap = Arc::new(SharedNet {
            low_routes,
            high_routes,
            alive,
            death_seen,
            dissem,
        });
        shards.for_each(|_, s| s.shared = Arc::clone(&snap));
        snap
    }

    /// Route repair after a death: survivors recompute paths around the
    /// corpse, learned shortcuts through it die with it, and the run
    /// records the first moment a sender lost the sink.
    fn node_died(&mut self, shards: &mut ShardsMut<'_, ShardState>, node: NodeId, at: SimTime) {
        self.metrics.on_node_died(at);
        let snap = self.republish(shards, true);
        // A learned shortcut through the corpse is a blackhole: the
        // repaired trees route around it, so must the shortcut tables.
        shards.for_each(|_, s| {
            for n in s.owned_nodes_mut() {
                n.shortcuts.invalidate_via(node);
            }
        });
        self.check_partition(&snap, at, node);
    }

    fn check_partition(&mut self, snap: &SharedNet, at: SimTime, dead: NodeId) {
        if self.metrics.partition.is_some() {
            return;
        }
        let routes = snap.data_routes(self.scen.model);
        let severed = match self.scen.pattern {
            // The sink is "disconnected" the first time any data source
            // can no longer reach it: the sink itself died, a sender
            // died, or a sender's every route crosses corpses.
            TrafficPattern::Converge => {
                let sink = self.scen.sink;
                dead == sink
                    || self
                        .scen
                        .senders
                        .iter()
                        .any(|&s| !snap.alive[s.index()] || routes.next_hop(s, sink).is_none())
            }
            // The dissemination is "partitioned" when the source died or
            // some *surviving* node fell out of the tree: corpses leave
            // the recipient set, but a live node the flood cannot reach
            // is data lost.
            TrafficPattern::Broadcast { source } => {
                let tree = snap.dissem.as_ref().expect("broadcast publishes a tree");
                dead == source
                    || self
                        .scen
                        .topo
                        .nodes()
                        .any(|r| r != source && snap.alive[r.index()] && !tree.contains(r))
            }
            // A gossip mesh is severed when any flow lost an endpoint or
            // every path between its endpoints crosses corpses.
            TrafficPattern::Gossip { .. } => self.gossip_flows.iter().any(|&(s, d)| {
                !snap.alive[s.index()] || !snap.alive[d.index()] || routes.next_hop(s, d).is_none()
            }),
        };
        if severed {
            self.metrics.on_partition(at);
        }
    }
}

impl PdesControl<ShardState> for Control {
    fn on_global(
        &mut self,
        shards: &mut ShardsMut<'_, ShardState>,
        now: SimTime,
        ev: GlobalEv,
        out: &mut Vec<(SimTime, GlobalEv)>,
    ) {
        self.global_events += 1;
        let ord = ev.ord();
        match ev {
            GlobalEv::NodeDied { node, at } => {
                self.node_died(shards, node, at);
                if let Some(tr) = self.trace.as_mut() {
                    // Partition state is read *after* the repair, so the
                    // record reports what the survivors now see.
                    tr.push(TraceRecord {
                        key: EvKey {
                            time: now,
                            depth: 0,
                            ord,
                        },
                        ev: TraceEvent::RouteRepair {
                            dead: node.0,
                            partition: self.metrics.partition.is_some(),
                        },
                    });
                }
            }
            GlobalEv::RouteRefresh => {
                let death_seen = self.metrics.first_death.is_some();
                self.republish(shards, death_seen);
                if let Some(every) = self.scen.power.reroute_every {
                    out.push((now + every, GlobalEv::RouteRefresh));
                }
                if let Some(tr) = self.trace.as_mut() {
                    tr.push(TraceRecord {
                        key: EvKey {
                            time: now,
                            depth: 0,
                            ord,
                        },
                        ev: TraceEvent::RouteRefresh,
                    });
                }
            }
        }
    }

    fn on_sample(
        &mut self,
        shards: &mut ShardsMut<'_, ShardState>,
        now: SimTime,
        queue_depths: &[usize],
    ) {
        let Some(series) = self.series.as_mut() else {
            return;
        };
        // A resumed run restarts the engine's sample grid from zero;
        // instants before the restored `next` were already emitted (and
        // persisted) before the checkpoint, so they must not repeat.
        if now < series.next {
            return;
        }
        let mut scan = SeriesScan::new(&self.scen);
        shards.for_each(|_, s| scan.add_shard(s, now));
        series.record(now, scan, queue_depths.to_vec());
    }
}
