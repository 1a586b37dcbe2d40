//! Exact world checkpointing: capture a paused simulation, restore it
//! later — under any shard count — and continue bit-identically.
//!
//! # One representation
//!
//! A [`WorldState`] holds the runtime values themselves: every node's
//! [`NodeState`] (MACs, radios, BCP machines, workload, battery, as
//! cloned from the shards), plus containers only for state that has no
//! per-object runtime struct — a node's [`ChannelSlot`]s of the
//! struct-of-arrays channels, the series grid position
//! ([`SeriesSnapshot`]) and the shadowing offsets ([`ShadowSnapshot`]).
//! Each type persists itself through [`Persist`], implemented beside the
//! type, so adding a field means editing one struct and its one codec.
//!
//! Decoding builds blank nodes from the checkpoint's embedded scenario
//! with the constructor [`World::build`](crate::world::World::build)
//! uses ([`WorldState::blank`]) and loads the run state into them. A
//! frame that does not fit its scenario — a wrong node count or id, a
//! high radio or battery the scenario does not build, a pause past the
//! horizon, a pending event keyed before the pause — is a
//! [`DecodeError`], so a world that loads also restores.
//!
//! # The exactness contract
//!
//! A [`WorldState`] captured by [`LiveWorld::snapshot`] at pause time `t`
//! holds *everything* the remainder of the run depends on: the canonical
//! pending-event set (with exact tie-breaking keys), every node's MAC /
//! radio / BCP / workload / battery registers, the per-node channel and
//! loss-RNG state, liveness and the route basis as last published, the
//! metric counters, the delivered-copy bitmaps and unsettled losses, and the
//! series sampler's grid position. Restoring and running to the horizon
//! produces the same [`RunStats`](crate::metrics::RunStats) — bit for
//! bit, excluding only the wall-clock `.engine` block — as the
//! uninterrupted run.
//!
//! Because everything in a `WorldState` is indexed by *global node id*
//! and event identities are shard-count independent by construction, the
//! snapshot is also canonical across shard counts: a world paused under
//! one shard count captures the same `WorldState` (modulo the
//! `scen.shards` field) as the same world paused under another, and a
//! snapshot taken under 1 shard restores into 4 (or vice versa) without
//! loss.
//!
//! On top of the capture/restore pair sit two tools:
//!
//! * [`fork_with_power`] — brand a warm unpowered prefix with a battery
//!   configuration, so a lifetime sweep runs the shared prefix once and
//!   branches per grid cell.
//! * [`explore`] — a bounded model checker that exhaustively re-executes
//!   every admissible same-timestamp event ordering from a snapshot on a
//!   single-shard stepper, checking liveness/energy invariants in each
//!   interleaving.

use crate::events::{Class, Ev, GlobalEv, Payload, TxId};
use crate::fate::{delivered_flows, settled_losses, FateBook};
use crate::metrics::Metrics;
use crate::node::NodeState;
use crate::routes::{Control, SeriesState};
use crate::scenario::Scenario;
use crate::shard::{payload_rule, ShardState};
use crate::world::{LiveWorld, RunOptions, Scaffold};
use bcp_net::addr::{AddrMap, NodeId};
use bcp_net::propagation::PhysModel;
use bcp_net::routing::RouteWeight;
use bcp_power::{BatteryModel, PowerConfig, PowerSupply};
use bcp_radio::device::RadioState;
use bcp_sim::conservative::{EngineCounters, SingleStepper};
use bcp_sim::hash::FastMap;
use bcp_sim::keyed::{EvKey, Keyed, ShardQueue};
use bcp_sim::persist::{Dec, DecodeError, Enc, Persist};
use bcp_sim::rng::Rng;
use bcp_sim::time::{SimDuration, SimTime};
use bcp_sim::trace::TraceRecord;
use std::sync::Arc;

pub use crate::channel::ChannelSlot;
pub use crate::fate::{Fate, FateKey, FateMark, FlowKey};
pub use crate::routes::Cumulative;
pub use crate::shard::ActiveTx;

// ---------------------------------------------------------------------
// The captured state
// ---------------------------------------------------------------------

/// The series sampler's captured grid position. The emitted samples are
/// *not* captured — they were already delivered to whoever ran the first
/// segment — only the baseline needed to continue the delta stream
/// without re-emitting or skewing anything.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SeriesSnapshot {
    /// The sampling interval.
    pub every: SimDuration,
    /// The next sample instant not yet emitted.
    pub next: SimTime,
    /// The last instant actually emitted, if any.
    pub last: Option<SimTime>,
    /// Cumulative totals at the last emitted sample — the baseline the
    /// next delta subtracts from.
    pub prev: Cumulative,
}

/// The fields in declaration order; the interval must be positive.
impl Persist for SeriesSnapshot {
    fn save(&self, e: &mut Enc) {
        (self.every, self.next, self.last).save(e);
        self.prev.save(e);
    }
    fn load(&mut self, d: &mut Dec<'_>) -> Result<(), DecodeError> {
        (self.every, self.next, self.last) = d.read()?;
        self.prev.load(d)?;
        if self.every.is_zero() {
            return Err(DecodeError::new("a series sampled every 0 s"));
        }
        Ok(())
    }
}

/// The received-power layer's captured randomness: the per-link
/// shadowing offsets for both radio classes and the shadow stream's
/// post-draw RNG state. Present exactly when the scenario runs under
/// `phys = logn`; the offsets are re-derivable from the scenario seed,
/// but capturing them keeps the snapshot self-describing and lets the
/// restore cross-check the rebuilt world against the captured one.
#[derive(Debug, Clone, PartialEq)]
pub struct ShadowSnapshot {
    /// Per-unordered-pair shadowing offsets (dB) for the low class, in
    /// canonical (0,1),(0,2),… order.
    pub low: Vec<f64>,
    /// Per-unordered-pair shadowing offsets (dB) for the high class.
    pub high: Vec<f64>,
    /// The shadow stream after both draws.
    pub rng: Rng,
}

/// Both offset lists, then the stream. Each list must hold one finite
/// offset per node pair of the world loaded into.
impl Persist for ShadowSnapshot {
    fn save(&self, e: &mut Enc) {
        self.low.save(e);
        self.high.save(e);
        self.rng.save(e);
    }
    fn load(&mut self, d: &mut Dec<'_>) -> Result<(), DecodeError> {
        for offsets in [&mut self.low, &mut self.high] {
            let pairs = offsets.len();
            offsets.load(d)?;
            if offsets.len() != pairs || offsets.iter().any(|v| !v.is_finite()) {
                return Err(DecodeError::new(format!(
                    "shadowing offsets must be {pairs} finite values"
                )));
            }
        }
        self.rng.load(d)
    }
}

/// A complete, paused simulation: the capture side of exact
/// checkpointing. Everything is keyed by global node id or by
/// shard-count-independent event identity, so the same `WorldState`
/// restores under any shard count.
#[derive(Debug, Clone, PartialEq)]
pub struct WorldState {
    /// The scenario, embedded whole so a snapshot is self-describing
    /// (its `shards` field picks the partition a restore rebuilds).
    pub scen: Scenario,
    /// The pause instant: every event strictly before it has run.
    pub time: SimTime,
    /// Logical events handled so far (shard-count-invariant count).
    pub events_logical: u64,
    /// Global (coordinator) events executed so far.
    pub global_events: u64,
    /// Every node, in node-id order, with its slots of the low and the
    /// high channel.
    pub nodes: Vec<(NodeState, [ChannelSlot; 2])>,
    /// The canonical pending shard events, sorted by key, with the
    /// per-shard halves of each reception fan-out merged back into one
    /// entry (the restore re-fans them out under the new partition).
    pub pending: Vec<(EvKey, Ev)>,
    /// Pending coordinator events, sorted by key.
    pub pending_globals: Vec<(EvKey, GlobalEv)>,
    /// In-flight payloads by tag, sorted (tags embed the sender's id).
    pub payloads: Vec<(u64, Payload)>,
    /// Transmissions on the air by id, sorted.
    pub txs: Vec<(u64, ActiveTx)>,
    /// LPL-audible transmissions per duty-cycled node, sorted by node.
    pub lpl_audible: Vec<(u32, Vec<(TxId, SimTime)>)>,
    /// Delivered-sequence bitmaps per `(origin, destination)` flow,
    /// sorted by flow: bit `seq` of a flow is set once the copy with
    /// that sequence number arrived. The last word of each is non-zero.
    pub delivered: Vec<(FlowKey, Vec<u64>)>,
    /// Copies lost somewhere and delivered nowhere yet, each with its
    /// earliest loss, reconciled across shards and sorted.
    pub lost: Vec<(FateKey, FateMark)>,
    /// Collisions observed so far (whole-run cumulative total).
    pub collisions: u64,
    /// The merged metric counters (global slice + every shard's).
    pub metrics: Metrics,
    /// Per-node liveness as last published: the dead set the routes
    /// exclude.
    pub alive: Vec<bool>,
    /// Whether a death has been announced.
    pub death_seen: bool,
    /// The residual energies the published routes were weighed by,
    /// present exactly under max–min residual routing. With the topology
    /// and the dead set this is the routes' whole basis: a restore
    /// recomputes the route columns and the dissemination tree from it
    /// instead of carrying them.
    pub route_residual: Option<Vec<f64>>,
    /// The series sampler's grid position, when a series was recording.
    pub series: Option<SeriesSnapshot>,
    /// Per-link shadowing offsets and the shadow RNG stream, when the
    /// scenario runs under a received-power model.
    pub shadow: Option<ShadowSnapshot>,
}

impl WorldState {
    /// `self` with the scenario's shard count replaced — the way to
    /// restore a checkpoint under a different partition than it was
    /// taken under.
    pub fn with_shards(&self, shards: usize) -> WorldState {
        let mut out = self.clone();
        out.scen.shards = shards;
        out
    }

    /// The blank world of `scen` that a decoder loads a checkpoint's run
    /// state into: every node as [`World::build`] constructs it (with
    /// placeholder RNG streams) and idle channel slots, plus a route
    /// residual vector exactly under max–min residual routing and the
    /// shadowing exactly under a received-power model. No routes are
    /// computed: a restore derives them from the loaded basis.
    ///
    /// [`World::build`]: crate::world::World::build
    pub fn blank(scen: Scenario) -> WorldState {
        let n = scen.topo.len();
        let addr = AddrMap::for_nodes(n);
        let mut rng = Rng::new(scen.seed);
        let nodes = scen
            .topo
            .nodes()
            .map(|id| {
                let node = NodeState::new(&scen, &addr, id, &mut rng);
                (node, [ChannelSlot::idle(), ChannelSlot::idle()])
            })
            .collect();
        let pairs = n * n.saturating_sub(1) / 2;
        let shadow = matches!(scen.phys, PhysModel::LogNormal { .. }).then(|| ShadowSnapshot {
            low: vec![0.0; pairs],
            high: vec![0.0; pairs],
            rng: Rng::new(1),
        });
        WorldState {
            time: SimTime::ZERO,
            events_logical: 0,
            global_events: 0,
            nodes,
            pending: Vec::new(),
            pending_globals: Vec::new(),
            payloads: Vec::new(),
            txs: Vec::new(),
            lpl_audible: Vec::new(),
            delivered: Vec::new(),
            lost: Vec::new(),
            collisions: 0,
            metrics: Metrics::default(),
            alive: vec![true; n],
            death_seen: false,
            route_residual: (scen.route_weight == RouteWeight::MaxMinResidual)
                .then(|| vec![0.0; n]),
            series: None,
            shadow,
            scen,
        }
    }
}

/// Everything but the scenario, which the checkpoint frame embeds as
/// `.scn` text ahead of it: the state loads into
/// [`WorldState::blank`] of that scenario, which bounds every node id
/// and per-node table and fixes which parts each node has.
impl Persist for WorldState {
    fn save(&self, e: &mut Enc) {
        (self.time, self.events_logical, self.global_events).save(e);
        e.len(self.nodes.len());
        for node in &self.nodes {
            node.save(e);
        }
        self.pending.save(e);
        self.pending_globals.save(e);
        self.payloads.save(e);
        self.txs.save(e);
        self.lpl_audible.save(e);
        e.len(self.delivered.len());
        for (flow, words) in &self.delivered {
            flow.save(e);
            e.len(words.len());
            for &w in words {
                e.fixed64(w);
            }
        }
        self.lost.save(e);
        self.collisions.save(e);
        self.metrics.save(e);
        self.alive.save(e);
        self.death_seen.save(e);
        e.present(&self.route_residual);
        self.series.save(e);
        e.present(&self.shadow);
    }

    fn load(&mut self, d: &mut Dec<'_>) -> Result<(), DecodeError> {
        d.limit_ids(self.nodes.len());
        let end = self.scen.end_time();
        (self.time, self.events_logical, self.global_events) = d.read()?;
        if self.time > end {
            let t = self.time;
            return Err(DecodeError::new(format!(
                "pause {t} is past the horizon {end}"
            )));
        }
        let nodes = d.len()?;
        d.check_table(nodes, "the node list")?;
        for node in &mut self.nodes {
            node.load(d)?;
        }
        (self.pending, self.pending_globals) = d.read()?;
        let globals = self.pending_globals.iter().map(|e| e.0);
        if let Some(k) = self
            .pending
            .iter()
            .map(|e| e.0)
            .chain(globals)
            .find(|k| k.time < self.time)
        {
            let (t, pause) = (k.time, self.time);
            return Err(DecodeError::new(format!(
                "an event pending at {t} precedes the pause {pause}"
            )));
        }
        (self.payloads, self.txs, self.lpl_audible) = d.read()?;
        self.delivered.clear();
        for _ in 0..d.len()? {
            let flow: FlowKey = d.read()?;
            let mut words = vec![0; d.len()?];
            for w in &mut words {
                *w = d.fixed64()?;
            }
            if words.last() == Some(&0) {
                return Err(DecodeError::new(format!(
                    "flow {flow:?} bitmap ends in a zero word"
                )));
            }
            self.delivered.push((flow, words));
        }
        (self.lost, self.collisions, self.metrics) = d.read()?;
        // Node ids folded into raw keys: payload tags, transmission ids,
        // duty-cycled nodes, flows and lost copies.
        let flows = self.delivered.iter().map(|e| e.0);
        let flows = flows.chain(
            self.lost
                .iter()
                .map(|((id, dest), _)| ((id >> 40) as u32, *dest)),
        );
        let keys = self.payloads.iter().map(|e| e.0 >> 40);
        let keys = keys.chain(self.txs.iter().map(|e| e.0 >> 40));
        let keys = keys.chain(self.lpl_audible.iter().map(|e| e.0 as u64));
        for id in keys.chain(flows.flat_map(|(from, to)| [from as u64, to as u64])) {
            d.check_id(id)?;
        }
        (self.alive, self.death_seen) = d.read()?;
        d.check_table(self.alive.len(), "the liveness flags")?;
        d.present(&mut self.route_residual, "route residual vector")?;
        if let Some(residual) = &self.route_residual {
            d.check_table(residual.len(), "the route residuals")?;
            if residual.iter().any(|r| r.is_nan()) {
                return Err(DecodeError::new("a route residual is NaN"));
            }
        }
        self.series.load(d)?;
        d.present(&mut self.shadow, "shadowing map")
    }
}

// ---------------------------------------------------------------------
// Capture
// ---------------------------------------------------------------------

/// Captures `lw` at its current pause. See the module docs for the
/// exactness contract.
pub(crate) fn capture(lw: &LiveWorld) -> WorldState {
    let scaf = &lw.scaf;
    let n = scaf.scen.topo.len();

    // Canonical pending set: union the shard queues (each sorted by
    // key), sort globally, then merge the per-shard halves of each
    // reception fan-out back into one entry. The RxEnd twins differ only
    // in which shard was handed the payload; keep the copy that has it.
    let mut pending: Vec<(EvKey, Ev)> = lw
        .shards
        .iter()
        .flat_map(|(_, q)| {
            q.live_entries()
                .into_iter()
                .map(|(k, e)| (k, e.clone()))
                .collect::<Vec<_>>()
        })
        .collect();
    pending.sort_by_key(|e| e.0);
    pending.dedup_by(|a, b| {
        if a.0 != b.0 {
            return false;
        }
        match (&mut b.1, &mut a.1) {
            (Ev::RxEnd { payload: pb, .. }, Ev::RxEnd { payload: pa, .. }) => {
                if pb.is_none() {
                    *pb = pa.take();
                }
                true
            }
            (x, y) => x == y,
        }
    });

    let pending_globals: Vec<(EvKey, GlobalEv)> = lw
        .gqueue
        .live_entries()
        .into_iter()
        .map(|(k, e)| (k, e.clone()))
        .collect();

    let nodes = (0..n)
        .map(|i| {
            let id = NodeId(i as u32);
            let shard = &lw.shards[scaf.part.shard_of(id)].0;
            let ix = scaf.part.local_of(id);
            let slots = [shard.chans[0].slot(ix), shard.chans[1].slot(ix)];
            (shard.nodes[ix].clone(), slots)
        })
        .collect();

    // Shard-table unions. Keys are disjoint across shards (each entry
    // lives at exactly one owner) except the losses, which reconcile by
    // the rules the finaliser uses.
    let mut payloads: Vec<(u64, Payload)> = Vec::new();
    let mut txs: Vec<(u64, ActiveTx)> = Vec::new();
    let mut lpl_audible: Vec<(u32, Vec<(TxId, SimTime)>)> = Vec::new();
    for (s, _) in &lw.shards {
        payloads.extend(s.payloads.iter().map(|(&k, v)| (k, v.clone())));
        txs.extend(s.txs.iter().map(|(&k, v)| (k, v.clone())));
        lpl_audible.extend(s.lpl_audible.iter().map(|(&k, v)| (k, v.clone())));
    }
    payloads.sort_by_key(|e| e.0);
    txs.sort_by_key(|e| e.0);
    lpl_audible.sort_by_key(|e| e.0);
    let books: Vec<&FateBook> = lw.shards.iter().map(|(s, _)| &s.fates).collect();

    let mut metrics = lw.control.metrics.clone();
    for (s, _) in &lw.shards {
        metrics.merge(&s.metrics);
    }

    let shared = &lw.shards[0].0.shared;
    WorldState {
        scen: (*scaf.scen).clone(),
        time: lw.now,
        events_logical: lw.shards.iter().map(|(s, _)| s.events_logical).sum(),
        global_events: lw.control.global_events,
        nodes,
        pending,
        pending_globals,
        payloads,
        txs,
        lpl_audible,
        delivered: delivered_flows(&books),
        lost: settled_losses(&books),
        collisions: lw
            .shards
            .iter()
            .map(|(s, _)| s.chans[0].collisions() + s.chans[1].collisions())
            .sum(),
        metrics,
        alive: shared.alive.clone(),
        death_seen: shared.death_seen,
        route_residual: shared.route_residual.clone(),
        series: lw.control.series.as_ref().map(|st| SeriesSnapshot {
            every: st.every,
            next: st.next,
            last: st.last,
            prev: st.prev,
        }),
        shadow: match (&scaf.phys[0], &scaf.phys[1]) {
            (Some(low), Some(high)) => Some(ShadowSnapshot {
                low: low.shadow.offsets().to_vec(),
                high: high.shadow.offsets().to_vec(),
                rng: Rng::from_state(
                    scaf.shadow_rng_state
                        .expect("received-power scaffold records its shadow stream"),
                ),
            }),
            _ => None,
        },
    }
}

// ---------------------------------------------------------------------
// Restore
// ---------------------------------------------------------------------

/// Rebuilds a paused [`LiveWorld`] from a snapshot, under the partition
/// `state.scen.shards` asks for. The restored world continues
/// bit-identically to the world the snapshot was taken from.
///
/// `opts` controls the *remaining* segment's observability: tracing and
/// series emission restart here (covering the post-restore segment), the
/// pre-checkpoint artefacts having been produced by the original run.
/// When the snapshot was recording a series, the captured interval and
/// grid position win over `opts.series_every`'s interval so the sample
/// grid continues instead of restarting.
pub(crate) fn restore(state: &WorldState, opts: &RunOptions) -> LiveWorld {
    let mut scaf = Scaffold::new(&state.scen);
    // Per-link shadowing is part of the world's identity: reinstall the
    // captured offsets before any shard is built so every decode after
    // the resume sees the exact link gains the first segment saw.
    if let Some(sh) = &state.shadow {
        scaf.restore_shadow(0, &sh.low);
        scaf.restore_shadow(1, &sh.high);
    }
    let scaf = scaf;
    let scen = Arc::clone(&scaf.scen);
    let part = Arc::clone(&scaf.part);
    let n = scen.topo.len();
    let k = part.k();
    let t = state.time;
    assert_eq!(
        state.nodes.len(),
        n,
        "snapshot and scenario disagree on node count"
    );
    assert!(
        t <= scaf.end,
        "snapshot pause {t} is past the horizon {}",
        scaf.end
    );

    let (series_every, series) = match (opts.series_every, &state.series) {
        (Some(_), Some(sn)) => {
            // Continue the captured grid: same interval, same next
            // instant, same delta baseline — and an empty sample buffer,
            // so nothing pre-checkpoint is re-emitted.
            let mut st = SeriesState::new(sn.every);
            st.next = sn.next;
            st.last = sn.last;
            st.prev = sn.prev;
            (Some(sn.every), Some(st))
        }
        (Some(every), None) => {
            // Series switched on only at resume: start a fresh grid at
            // the first instant past the pause (earlier instants belong
            // to the segment that already ran).
            let mut st = SeriesState::new(every);
            while st.next <= t {
                st.next += every;
            }
            (Some(every), Some(st))
        }
        (None, _) => (None, None),
    };

    // Metrics: the death slice is coordinator-owned; each flow lives at
    // its destination's owner (where deliveries update it — a source-side
    // update merges in at finalisation exactly as it would have); every
    // other scalar is cumulative and goes to shard 0.
    let ctrl_metrics = Metrics {
        node_deaths: state.metrics.node_deaths,
        first_death: state.metrics.first_death,
        partition: state.metrics.partition,
        ..Metrics::default()
    };
    let control = Control::new(
        Arc::clone(&scen),
        ctrl_metrics,
        state.global_events,
        opts.trace.then(Vec::<TraceRecord>::new),
        series,
    );
    // The routes and the dissemination tree are not in the checkpoint:
    // they are recomputed from its basis, as the last publish computed
    // them.
    let shared = control.publish(
        state.alive.clone(),
        state.death_seen,
        state.route_residual.clone(),
    );

    let mut shards: Vec<(ShardState, ShardQueue<Ev>)> = (0..k)
        .map(|id| (scaf.blank_shard(id, &shared, opts.trace), ShardQueue::new()))
        .collect();
    // Each node, with its captured channel slots, goes to its owner.
    for (node, slots) in &state.nodes {
        shards[part.shard_of(node.id)]
            .0
            .place(node.clone(), slots.clone());
    }

    // Whole-run cumulative scalars land on shard 0: the finaliser sums
    // across shards, so placement is arbitrary but must not double-count.
    shards[0].0.events_logical = state.events_logical;
    shards[0].0.chans[0].restore_collisions(state.collisions);

    for (tag, p) in &state.payloads {
        let owner = part.shard_of(NodeId((tag >> 40) as u32));
        shards[owner].0.payloads.insert(*tag, p.clone());
    }
    for (id, tx) in &state.txs {
        let owner = part.shard_of(tx.sender);
        shards[owner].0.txs.insert(*id, tx.clone());
    }
    for (node, v) in &state.lpl_audible {
        let owner = part.shard_of(NodeId(*node));
        shards[owner].0.lpl_audible.insert(*node, v.clone());
    }
    // Fates live at the copy's destination, where its deliveries happen.
    for (flow, words) in &state.delivered {
        let owner = part.shard_of(NodeId(flow.1));
        shards[owner].0.fates.restore_flow(*flow, words.clone());
    }
    for (key, mark) in &state.lost {
        let owner = part.shard_of(NodeId(key.1));
        shards[owner].0.fates.restore_loss(*key, *mark);
    }

    let mut shard0 = state.metrics.clone();
    shard0.node_deaths = 0;
    shard0.first_death = None;
    shard0.partition = None;
    shard0.flows.clear();
    shards[0].0.metrics = shard0;
    for (&flow, fs) in &state.metrics.flows {
        let owner = part.shard_of(flow.1);
        shards[owner].0.metrics.flows.insert(flow, fs.clone());
    }

    // Re-schedule the canonical pending set in key order, fanning the
    // reception events back out across the (possibly different)
    // partition and re-registering every cancellable timer.
    for (key, ev) in &state.pending {
        match ev {
            Ev::RxBegin { sender, class, .. } => {
                let ci = class.index();
                for sh in hearing_shards(&scaf, ci, *sender) {
                    let (s, q) = &mut shards[sh];
                    schedule_restored(s, q, *key, ev.clone());
                }
            }
            Ev::RxEnd {
                sender,
                class,
                frame,
                payload,
                ..
            } => {
                // Re-derive the per-shard payload under the NEW partition
                // with the rule the sender's tx_end handler uses.
                let gets_payload = payload_rule(&scen, &scaf.addr, &part, *class, frame);
                for sh in hearing_shards(&scaf, class.index(), *sender) {
                    let p = if gets_payload(sh) {
                        payload.clone()
                    } else {
                        None
                    };
                    let mut e = ev.clone();
                    if let Ev::RxEnd { payload, .. } = &mut e {
                        *payload = p;
                    }
                    let (s, q) = &mut shards[sh];
                    schedule_restored(s, q, *key, e);
                }
            }
            _ => {
                let node = target_node(ev).expect("every other event is node-addressed");
                let (s, q) = &mut shards[part.shard_of(node)];
                schedule_restored(s, q, *key, ev.clone());
            }
        }
    }

    let mut gqueue: ShardQueue<GlobalEv> = ShardQueue::new();
    for (key, g) in &state.pending_globals {
        gqueue.schedule_with_key(*key, g.clone());
    }
    // Clocks last: scheduling asserts keys are not in the past, and the
    // restore asserts no pending event precedes the pause.
    gqueue.restore_clock_state(t, 0, 0, 0);
    for (_, q) in &mut shards {
        q.restore_clock_state(t, 0, 0, 0);
    }

    LiveWorld {
        series_every,
        scaf,
        shards,
        gqueue,
        control,
        counters: EngineCounters::default(),
        now: t,
    }
}

/// Shards owning at least one neighbour of `sender` (collected so the
/// borrow of the scaffold does not overlap the shard mutations).
fn hearing_shards(scaf: &Scaffold, ci: usize, sender: NodeId) -> Vec<usize> {
    scaf.neigh[ci].shards_hearing(sender).collect()
}

/// The owner of a node-addressed event (`None` for the reception
/// fan-outs, which address shards).
fn target_node(ev: &Ev) -> Option<NodeId> {
    match *ev {
        Ev::AppArrival { node }
        | Ev::MacTimer { node, .. }
        | Ev::RadioWakeDone { node }
        | Ev::BcpAckTimer { node, .. }
        | Ev::BcpDataTimer { node, .. }
        | Ev::HighIdleOff { node }
        | Ev::Flush { node }
        | Ev::PowerCheck { node }
        | Ev::WakeSample { node }
        | Ev::Sleep { node } => Some(node),
        Ev::TxEnd { tx } => Some(tx.sender()),
        Ev::RxBegin { .. } | Ev::RxEnd { .. } => None,
    }
}

/// Schedules a restored event under its exact original key and, when it
/// is a timer, files it in the owning shard's timer table (the live world
/// holds at most one pending timer per identity).
fn schedule_restored(s: &mut ShardState, q: &mut ShardQueue<Ev>, key: EvKey, ev: Ev) {
    let timer = ev.timer();
    let id = q.schedule_with_key(key, ev);
    if let Some(timer) = timer {
        let at = s.local(crate::events::timer_node(timer));
        s.file(at, timer, id);
    }
}

// ---------------------------------------------------------------------
// Forked sweeps
// ---------------------------------------------------------------------

/// Why a snapshot cannot be forked with a battery grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ForkError {
    /// The scenario routes by residual energy: the warm prefix's routing
    /// history would have depended on the batteries being injected, so
    /// the fork would not equal a cold run.
    EnergyAwareRouting,
    /// A node already died in the prefix: the prefix is not
    /// battery-independent.
    DeathInPrefix,
    /// The prefix already ran with finite batteries; forking can only
    /// brand an unpowered (mains) prefix.
    PoweredPrefix,
    /// The prefix already spent at least this node's whole injected
    /// battery: the death instant would lie *inside* the shared prefix,
    /// where a cold run's behaviour would have diverged before the fork
    /// point.
    PrefixExceedsBattery {
        /// The over-spent node.
        node: u32,
    },
}

impl std::fmt::Display for ForkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ForkError::EnergyAwareRouting => {
                write!(f, "cannot fork: scenario routes by residual energy")
            }
            ForkError::DeathInPrefix => write!(f, "cannot fork: a node died in the prefix"),
            ForkError::PoweredPrefix => {
                write!(
                    f,
                    "cannot fork: the prefix already ran with finite batteries"
                )
            }
            ForkError::PrefixExceedsBattery { node } => write!(
                f,
                "cannot fork: node {node} already spent its whole injected battery in the prefix"
            ),
        }
    }
}

impl std::error::Error for ForkError {}

/// Brands a warm, unpowered prefix with a battery configuration: the
/// returned snapshot behaves as if the run had started with `power` —
/// every meter reading of the prefix is charged against the injected
/// batteries, and a `PowerCheck` fires at the fork instant so depletion
/// projection starts immediately.
///
/// A lifetime sweep uses this to run the (battery-independent) warm-up
/// prefix once and branch per grid cell, instead of re-simulating the
/// prefix for every cell. Discrete outcomes (death counts, delivery
/// counts) match the cold runs exactly; death *instants* may differ by
/// sub-microsecond float-summation noise, since the cold run charges the
/// battery in many small syncs and the fork charges the prefix in one.
pub fn fork_with_power(state: &WorldState, power: PowerConfig) -> Result<WorldState, ForkError> {
    if state.scen.route_weight != RouteWeight::ShortestHop {
        return Err(ForkError::EnergyAwareRouting);
    }
    if state.metrics.node_deaths > 0 || state.death_seen || state.alive.iter().any(|&a| !a) {
        return Err(ForkError::DeathInPrefix);
    }
    if state.nodes.iter().any(|(n, _)| n.supply.is_some()) {
        return Err(ForkError::PoweredPrefix);
    }
    let mut out = state.clone();
    out.scen.power = power;
    let t = out.time;
    let mut injected: Vec<(EvKey, Ev)> = Vec::new();
    for (node, _) in &mut out.nodes {
        let Some(batt) = out
            .scen
            .power
            .battery_for(node.id.index(), node.id == out.scen.sink)
        else {
            continue;
        };
        // Charge the whole metered prefix in one sync: the battery draws
        // exactly the meter reading, and the supply is synced to it.
        let metered = node.metered_total(t);
        if metered >= batt.capacity() {
            return Err(ForkError::PrefixExceedsBattery { node: node.id.0 });
        }
        let mut supply = PowerSupply::new(batt);
        supply.sync_to(metered);
        node.supply = Some(supply);
        let ev = Ev::PowerCheck { node: node.id };
        injected.push((
            EvKey {
                time: t,
                depth: 0,
                ord: ev.ord(),
            },
            ev,
        ));
    }
    out.pending.extend(injected);
    out.pending.sort_by_key(|e| e.0);
    Ok(out)
}

// ---------------------------------------------------------------------
// Bounded race exploration
// ---------------------------------------------------------------------

/// Exploration bounds for [`explore`].
#[derive(Debug, Clone, Copy)]
pub struct ExploreLimits {
    /// Stop after this many complete interleavings.
    pub max_interleavings: u64,
    /// Stop one interleaving after this many steps.
    pub max_steps: u64,
}

impl Default for ExploreLimits {
    fn default() -> Self {
        ExploreLimits {
            max_interleavings: 10_000,
            max_steps: 200_000,
        }
    }
}

/// What [`explore`] found.
#[derive(Debug, Clone, Default)]
pub struct ExploreReport {
    /// Complete interleavings executed.
    pub interleavings: u64,
    /// Distinct branch points discovered (instants with more than one
    /// admissible next event).
    pub branch_points: u64,
    /// The widest tie seen (candidates at one branch point).
    pub max_ties: usize,
    /// `true` when a limit cut the exploration short of exhaustive.
    pub truncated: bool,
    /// Invariant violations observed, deduplicated.
    pub violations: Vec<String>,
}

/// Exhaustively re-executes every admissible same-timestamp event
/// ordering of `state` up to `end`, single-shard and single-stepped,
/// checking per-step invariants in each interleaving:
///
/// * a dead node's radios are both off, and it holds no pending timer;
/// * a receiver holding a medium lock is actually receiving (or dead —
///   its lock is released by the frame's end);
/// * a battery never over-draws its capacity, and never drains energy
///   the radio meters did not record;
/// * packets are never delivered to a dead destination.
///
/// Different interleavings may legitimately differ in *outcome* (ties
/// are real races; the production engine just picks the canonical
/// key order) — the point is that the invariants hold on every path.
/// Worlds of more than a handful of nodes explode combinatorially; keep
/// this to ≤10-node scenarios and rely on `limits`.
pub fn explore(state: &WorldState, end: SimTime, limits: ExploreLimits) -> ExploreReport {
    let base = state.with_shards(1);
    let mut report = ExploreReport::default();
    // DFS over branch-choice prefixes: each queued path replays its
    // prefix of tie choices and takes the canonical first candidate
    // beyond it, queueing the untried alternatives it walks past.
    let mut stack: Vec<Vec<usize>> = vec![Vec::new()];
    while let Some(path) = stack.pop() {
        if report.interleavings >= limits.max_interleavings {
            report.truncated = true;
            break;
        }
        let lw = restore(&base, &RunOptions::default());
        let LiveWorld {
            shards,
            gqueue,
            mut control,
            ..
        } = lw;
        let (shard, queue) = shards.into_iter().next().expect("single shard");
        let mut stepper = SingleStepper::new(shard, queue, gqueue);
        let mut prev_delivered: FastMap<(NodeId, NodeId), u64> = FastMap::default();
        stepper.with_shard(|s| {
            for (&flow, f) in &s.metrics.flows {
                prev_delivered.insert(flow, f.delivered_packets);
            }
        });
        let mut trace: Vec<usize> = Vec::new();
        let mut steps: u64 = 0;
        while let Some(t) = stepper.next_time() {
            if t > end {
                break;
            }
            if steps >= limits.max_steps {
                report.truncated = true;
                break;
            }
            let ties = stepper.candidates().len();
            let choice = if ties > 1 {
                report.max_ties = report.max_ties.max(ties);
                let ch = if trace.len() < path.len() {
                    path[trace.len()]
                } else {
                    report.branch_points += 1;
                    for alt in 1..ties {
                        let mut next = trace.clone();
                        next.push(alt);
                        stack.push(next);
                    }
                    0
                };
                trace.push(ch);
                ch
            } else {
                0
            };
            stepper.step(&mut control, choice);
            steps += 1;
            stepper.with_shard(|s| {
                check_invariants(s, t, &mut prev_delivered, &mut report.violations)
            });
        }
        report.interleavings += 1;
    }
    report
}

fn push_violation(violations: &mut Vec<String>, msg: String) {
    if violations.len() < 64 && !violations.contains(&msg) {
        violations.push(msg);
    }
}

fn check_invariants(
    s: &mut ShardState,
    t: SimTime,
    prev_delivered: &mut FastMap<(NodeId, NodeId), u64>,
    violations: &mut Vec<String>,
) {
    for (ix, node) in s.nodes.iter().enumerate() {
        let alive = node.is_alive();
        if !alive {
            let mut off = node.low_radio.state() == RadioState::Off;
            if let Some(hr) = &node.high_radio {
                off &= hr.state() == RadioState::Off;
            }
            if !off {
                push_violation(
                    violations,
                    format!("t={t}: dead node {} has a radio powered on", node.id),
                );
            }
            if !s.timers[ix].is_empty() {
                push_violation(
                    violations,
                    format!("t={t}: dead node {} holds a pending timer", node.id),
                );
            }
        }
        if let Some(sup) = &node.supply {
            let drawn = sup.battery().drawn().as_joules();
            let cap = sup.battery().capacity().as_joules();
            if drawn > cap + 1e-9 {
                push_violation(
                    violations,
                    format!(
                        "t={t}: node {} battery over-drawn ({drawn} J of {cap} J)",
                        node.id
                    ),
                );
            }
            let synced = sup.synced().as_joules();
            let metered = node.metered_total(t).as_joules();
            if synced > metered + 1e-9 {
                push_violation(
                    violations,
                    format!(
                        "t={t}: node {} supply drained {synced} J but the meters recorded {metered} J",
                        node.id
                    ),
                );
            }
        }
        for (ci, class) in [(0usize, Class::Low), (1, Class::High)] {
            if s.chans[ci].locked_rx(ix).is_some() {
                let receiving = node
                    .radio(class)
                    .map(|r| r.state() == RadioState::Receiving)
                    .unwrap_or(false);
                if alive && !receiving {
                    push_violation(
                        violations,
                        format!(
                            "t={t}: node {} holds a {class:?} medium lock without receiving",
                            node.id
                        ),
                    );
                }
            }
        }
    }
    for (&flow, f) in &s.metrics.flows {
        let prev = prev_delivered.get(&flow).copied().unwrap_or(0);
        if f.delivered_packets > prev && !s.node(flow.1).is_alive() {
            push_violation(
                violations,
                format!("t={t}: delivery to dead node {}", flow.1),
            );
        }
        prev_delivered.insert(flow, f.delivered_packets);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ModelKind;
    use crate::world::{RunOutput, World};
    use bcp_net::topo::Topology;
    use bcp_power::{Battery, PowerConfig};

    /// Two nodes, one hop, dual radio: exercises BCP handshakes, high
    /// radio wake/sleep, payload transport, fates, workload RNG.
    fn two_node_dual() -> Scenario {
        let mut s = Scenario::single_hop(ModelKind::DualRadio, 1, 100, 42);
        s.topo = Topology::line(2, 40.0);
        s.sink = NodeId(0);
        s.senders = vec![NodeId(1)];
        s.duration = SimDuration::from_secs(120);
        s.rate_bps = 2_000.0;
        s
    }

    /// A 4×4 sensor grid with a starved relay dying mid-run, under LPL
    /// duty-cycling: deaths, route repair, LPL lock-ons, multi-shard
    /// traffic all live in one scenario.
    fn grid_sensor_deaths(shards: usize) -> Scenario {
        let mut s = Scenario::single_hop(ModelKind::Sensor, 6, 10, 17);
        s.duration = SimDuration::from_secs(60);
        s.power = PowerConfig::unlimited().with_node_battery(5, Battery::ideal_joules(0.05));
        s.low_sleep = bcp_mac::sleep::SleepSchedule::lpl(
            SimDuration::from_millis(100),
            SimDuration::from_millis(10),
        );
        s.rate_bps = 500.0;
        s.shards = shards;
        s
    }

    fn assert_same_stats(a: &RunOutput, b: &RunOutput, label: &str) {
        assert_eq!(a.stats.goodput, b.stats.goodput, "{label}: goodput");
        assert_eq!(a.stats.energy_j, b.stats.energy_j, "{label}: energy");
        assert_eq!(a.stats.mean_delay_s, b.stats.mean_delay_s, "{label}: delay");
        assert_eq!(a.stats.events, b.stats.events, "{label}: events");
        assert_eq!(a.stats.metrics, b.stats.metrics, "{label}: metrics");
        assert_eq!(a.stats.per_node, b.stats.per_node, "{label}: per-node");
        assert_eq!(
            a.stats.time_to_first_death_s, b.stats.time_to_first_death_s,
            "{label}: ttfd"
        );
    }

    #[test]
    fn segmented_run_is_bit_identical() {
        let scen = two_node_dual();
        let cold = World::run_with(&scen, &RunOptions::default());
        let mut lw = World::build(&scen, &RunOptions::default());
        lw.run_to(SimTime::from_secs(13));
        lw.run_to(SimTime::from_secs(47));
        let warm = lw.finish();
        assert_same_stats(&cold, &warm, "segmented");
    }

    #[test]
    fn snapshot_restore_resumes_bit_exact() {
        let scen = two_node_dual();
        let cold = World::run_with(&scen, &RunOptions::default());
        let mut lw = World::build(&scen, &RunOptions::default());
        lw.run_to(SimTime::from_secs(47));
        let snap = lw.snapshot();
        let warm = LiveWorld::restore(&snap, &RunOptions::default()).finish();
        assert_same_stats(&cold, &warm, "restored");
    }

    #[test]
    fn capture_of_restored_world_is_identical() {
        let mut lw = World::build(&two_node_dual(), &RunOptions::default());
        lw.run_to(SimTime::from_secs(31));
        let snap = lw.snapshot();
        let again = LiveWorld::restore(&snap, &RunOptions::default()).snapshot();
        assert_eq!(snap, again, "capture ∘ restore must be the identity");
    }

    #[test]
    fn reshard_through_snapshot_is_bit_exact() {
        // Pause a 2-shard world with deaths + LPL mid-run, restore the
        // snapshot as 1 shard, and finish: identical to the cold run.
        let cold = World::run_with(&grid_sensor_deaths(2), &RunOptions::default());
        let mut lw = World::build(&grid_sensor_deaths(2), &RunOptions::default());
        lw.run_to(SimTime::from_secs(30));
        let snap = lw.snapshot();
        let resharded = LiveWorld::restore(&snap.with_shards(1), &RunOptions::default()).finish();
        assert_same_stats(&cold, &resharded, "2→1 reshard");
        assert!(
            cold.stats.metrics.node_deaths > 0,
            "scenario exercises death"
        );
    }

    #[test]
    fn snapshot_is_shard_count_canonical() {
        // The same world paused at the same instant captures the same
        // WorldState whether it ran under 1 shard or 2.
        let pause = SimTime::from_secs(30);
        let mut one = World::build(&grid_sensor_deaths(1), &RunOptions::default());
        one.run_to(pause);
        let mut two = World::build(&grid_sensor_deaths(2), &RunOptions::default());
        two.run_to(pause);
        assert_eq!(
            one.snapshot().with_shards(0),
            two.snapshot().with_shards(0),
            "snapshots must be canonical across shard counts"
        );
    }

    #[test]
    fn series_resume_continues_the_grid_without_reemitting() {
        let opts = RunOptions {
            series_every: Some(SimDuration::from_secs(10)),
            ..RunOptions::default()
        };
        let scen = two_node_dual();
        let cold = World::run_with(&scen, &opts);
        let mut lw = World::build(&scen, &opts);
        lw.run_to(SimTime::from_secs(30));
        let snap = lw.snapshot();
        let resumed = LiveWorld::restore(&snap, &opts).finish();
        // The resumed run emits exactly the cold run's samples from the
        // checkpoint instant on — same instants, same deltas — and
        // nothing earlier.
        let boundary = 30.0 - 1e-9;
        let tail: Vec<_> = cold
            .series
            .iter()
            .filter(|s| s.t_s > boundary)
            .cloned()
            .collect();
        assert!(!tail.is_empty(), "cold run has post-checkpoint samples");
        assert!(
            resumed.series.iter().all(|s| s.t_s > boundary),
            "no pre-checkpoint sample may be re-emitted"
        );
        assert_eq!(
            resumed.series, tail,
            "the delta stream must continue exactly"
        );
    }

    #[test]
    fn fork_guards_reject_bad_prefixes() {
        // A powered prefix cannot be forked.
        let mut powered = World::build(
            &{
                let mut s = two_node_dual();
                s.power = PowerConfig::with_battery(Battery::ideal_joules(50.0));
                s
            },
            &RunOptions::default(),
        );
        powered.run_to(SimTime::from_secs(5));
        assert_eq!(
            fork_with_power(
                &powered.snapshot(),
                PowerConfig::with_battery(Battery::ideal_joules(10.0))
            )
            .unwrap_err(),
            ForkError::PoweredPrefix
        );
        // A battery smaller than the prefix's spend is rejected.
        let mut warm = World::build(&two_node_dual(), &RunOptions::default());
        warm.run_to(SimTime::from_secs(60));
        let err = fork_with_power(
            &warm.snapshot(),
            PowerConfig::with_battery(Battery::ideal_joules(1e-9)).battery_powered_sink(),
        )
        .unwrap_err();
        assert!(
            matches!(err, ForkError::PrefixExceedsBattery { .. }),
            "{err}"
        );
    }

    #[test]
    fn forked_battery_run_matches_cold_run() {
        // Sensor model so the metered prefix is pure radio time; the
        // forked run must reproduce the cold run's discrete outcomes.
        let base = {
            let mut s = Scenario::single_hop(ModelKind::Sensor, 1, 10, 42);
            s.topo = Topology::line(2, 40.0);
            s.sink = NodeId(0);
            s.senders = vec![NodeId(1)];
            s.duration = SimDuration::from_secs(200);
            s.rate_bps = 2_000.0;
            s
        };
        let power = PowerConfig::with_battery(Battery::ideal_joules(8.0));
        let cold = {
            let mut s = base.clone();
            s.power = power.clone();
            World::run(&s)
        };
        let mut warm = World::build(&base, &RunOptions::default());
        warm.run_to(SimTime::from_secs(10));
        let forked = fork_with_power(&warm.snapshot(), power).expect("forkable prefix");
        let stats = LiveWorld::restore(&forked, &RunOptions::default())
            .finish()
            .stats;
        assert_eq!(stats.metrics.node_deaths, cold.metrics.node_deaths);
        assert_eq!(
            stats.metrics.delivered_packets, cold.metrics.delivered_packets,
            "forked and cold runs must agree on deliveries"
        );
        let (a, b) = (
            stats.time_to_first_death_s.expect("sender dies"),
            cold.time_to_first_death_s.expect("sender dies"),
        );
        assert!(
            (a - b).abs() < 1e-6,
            "death instants agree to float noise: {a} vs {b}"
        );
    }

    /// Each shard's timer table holds exactly the [`Ev::timer`] identities
    /// of its live pending events, each filed under its own node. The
    /// identities compare as `(rank, node, discriminant)`, as `pack_ord`
    /// packs them, so a failure names the timers.
    fn assert_tables_mirror_queues(lw: &LiveWorld, label: &str) {
        let fields = |t: u128| ((t >> 96) as u8, (t >> 64) as u32, t as u64);
        for (s, q) in &lw.shards {
            let mut pending: Vec<_> = q
                .live_entries()
                .into_iter()
                .filter_map(|(_, ev)| ev.timer().map(fields))
                .collect();
            let mut filed = Vec::new();
            assert_eq!(s.timers.len(), s.nodes.len(), "{label}");
            for (list, node) in s.timers.iter().zip(&s.nodes) {
                for &(timer, _) in list {
                    assert_eq!(crate::events::timer_node(timer), node.id, "{label}");
                    filed.push(fields(timer));
                }
            }
            pending.sort_unstable();
            filed.sort_unstable();
            assert_eq!(filed, pending, "{label}: shard {}", s.id);
        }
    }

    #[test]
    fn timer_tables_mirror_the_pending_timers() {
        // Built worlds paused at t = 0 and then about every second, and
        // each pause restored at another shard count: BCP handshakes and
        // lingers, battery checks and deaths, LPL wake samples, route
        // refreshes.
        let spec = |text: &str| crate::spec::parse_spec(text).expect("checked-in spec parses");
        let worlds = [
            (
                "single_hop",
                spec(include_str!("../../../examples/specs/single_hop.scn")),
            ),
            (
                "lifetime",
                spec(include_str!("../../../examples/specs/lifetime.scn")),
            ),
            (
                "lpl_monitoring",
                spec(include_str!("../../../examples/specs/lpl_monitoring.scn")),
            ),
            (
                "race_5node",
                spec(include_str!("../../../examples/specs/race_5node.scn")),
            ),
            ("grid_sensor_deaths", grid_sensor_deaths(2)),
        ];
        let step = SimDuration::from_millis(997);
        for (name, scen) in worlds {
            let horizon = scen.end_time().min(SimTime::from_secs(200));
            let other = if scen.shards == 1 { 2 } else { 1 };
            let mut lw = World::build(&scen, &RunOptions::default());
            let mut t = SimTime::ZERO;
            while t <= horizon {
                if t > SimTime::ZERO {
                    lw.run_to(t);
                }
                let label = format!("{name} at {t}");
                assert_tables_mirror_queues(&lw, &label);
                let restored =
                    LiveWorld::restore(&lw.snapshot().with_shards(other), &RunOptions::default());
                assert_tables_mirror_queues(&restored, &format!("{label}, {other} shards"));
                t += step;
            }
        }
    }

    #[test]
    fn explorer_enumerates_interleavings_and_invariants_hold() {
        // A 3-node line under LPL with a starved middle relay: ties are
        // plentiful (wake samples vs. receptions) and death interacts
        // with in-flight frames.
        let mut s = Scenario::single_hop(ModelKind::Sensor, 1, 10, 7);
        s.topo = Topology::line(3, 40.0);
        s.sink = NodeId(0);
        s.senders = vec![NodeId(2)];
        s.duration = SimDuration::from_secs(30);
        s.rate_bps = 500.0;
        s.low_sleep = bcp_mac::sleep::SleepSchedule::lpl(
            SimDuration::from_millis(100),
            SimDuration::from_millis(10),
        );
        s.power = PowerConfig::unlimited().with_node_battery(1, Battery::ideal_joules(0.4));
        let mut lw = World::build(&s, &RunOptions::default());
        lw.run_to(SimTime::from_secs(8));
        let snap = lw.snapshot();
        let report = explore(
            &snap,
            SimTime::from_secs(9),
            ExploreLimits {
                max_interleavings: 300,
                max_steps: 50_000,
            },
        );
        assert!(report.interleavings >= 1, "at least the canonical path ran");
        assert!(
            report.violations.is_empty(),
            "invariants must hold on every path: {:?}",
            report.violations
        );
    }
}
