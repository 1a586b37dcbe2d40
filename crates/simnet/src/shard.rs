//! One shard of the simulated world: the nodes it owns, their slice of
//! the two radio media, and the handler for every shard-local event.
//!
//! A shard only ever mutates its own nodes. The sole way its nodes reach
//! the rest of the world is the transmission path in this module:
//! [`ShardState::start_tx`] fans a transmission out as [`Ev::RxBegin`] /
//! [`Ev::RxEnd`] events — one per shard that owns an in-range receiver,
//! delivered one link-turnaround latency after the sender's action. That
//! latency is the conservative engine's lookahead, so reception events
//! never land inside the window that produced them.
//!
//! Whole-world state (routes, liveness, the first-death flag) is read
//! from an immutable [`SharedNet`] snapshot that the coordinator swaps
//! only at global events; node deaths are *announced* to the coordinator
//! (one latency late, like any other cross-node signal) rather than
//! applied to shared state in place.

use crate::channel::{Channel, ClassPhys, NeighborIndex};
use crate::events::{Class, Ev, GlobalEv, Payload, TxId};
use crate::fate::{fate_key, Fate, FateBook, FateMark};
use crate::metrics::Metrics;
use crate::node::NodeState;
use crate::routes::SharedNet;
use crate::scenario::{HighRoute, ModelKind, Scenario};
use bcp_core::msg::AppPacket;
use bcp_mac::types::{FrameKind, MacAddr, MacEvent, MacFrame, MacTimer};
use bcp_net::addr::NodeId;
use bcp_net::partition::Partition;
use bcp_radio::device::{RadioState, RxOutcome};
use bcp_sim::conservative::{Ctx, PdesShard};
use bcp_sim::keyed::{CancelId, EvKey};
use bcp_sim::time::{SimDuration, SimTime};
use bcp_sim::trace::{TraceClass, TraceDrop, TraceEvent, TraceRecord, TraceRx};
use std::collections::HashMap;
use std::sync::Arc;

/// The handler context every shard method receives.
pub(crate) type ShardCtx<'a> = Ctx<'a, Ev, GlobalEv>;

/// The trace vocabulary's view of a radio class.
pub(crate) fn trace_class(class: Class) -> TraceClass {
    match class {
        Class::Low => TraceClass::Low,
        Class::High => TraceClass::High,
    }
}

/// One transmission currently on the air, tracked at its sender's shard.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ActiveTx {
    /// The transmitting node.
    pub sender: NodeId,
    /// The radio class.
    pub class: Class,
    /// The frame being transmitted.
    pub frame: MacFrame,
}

bcp_sim::persist!(struct ActiveTx { sender, class, frame });

/// One shard's complete mutable state.
#[derive(Debug)]
pub(crate) struct ShardState {
    pub id: usize,
    pub scen: Arc<Scenario>,
    pub addr: Arc<bcp_net::addr::AddrMap>,
    pub part: Arc<Partition>,
    pub neigh: [Arc<NeighborIndex>; 2],
    /// Per-class received-power state under `phys = logn:…`; `None` under
    /// the disk profile (whose hot path stays untouched).
    pub phys: [Option<Arc<ClassPhys>>; 2],
    /// Coordinator-published snapshot of routes/liveness/death flag.
    pub shared: Arc<SharedNet>,
    /// Global-indexed; `Some` exactly for nodes this shard owns.
    pub nodes: Vec<Option<NodeState>>,
    pub chans: [Channel; 2],
    pub payloads: HashMap<u64, Payload>,
    pub txs: HashMap<u64, ActiveTx>,
    pub mac_timers: HashMap<(u32, usize, MacTimer), CancelId>,
    pub ack_timers: HashMap<(u32, u64), CancelId>,
    pub data_timers: HashMap<(u32, u64), CancelId>,
    pub linger: HashMap<u32, CancelId>,
    pub power_timers: HashMap<u32, CancelId>,
    /// The pending LPL `WakeSample` per duty-cycled node (the chain is
    /// self-perpetuating; tracked so a death cancels it).
    pub lpl_timers: HashMap<u32, CancelId>,
    /// Low-radio transmissions currently audible at each owned node,
    /// with the instant their *frame body* starts (after the sender's
    /// wake-up preamble). A receiver waking mid-preamble uses this to
    /// lock onto the frame; only populated under an LPL schedule.
    pub lpl_audible: HashMap<u32, Vec<(TxId, SimTime)>>,
    /// Fate state of the copies that can still change an outcome.
    pub fates: FateBook,
    /// Each sender's flow destination (indexed by node id; the sink for
    /// non-senders). Broadcast sources are handled before this is read.
    pub flow_dest: Arc<Vec<NodeId>>,
    pub metrics: Metrics,
    /// How late a death announcement reaches the coordinator (the minimum
    /// link latency — identical for every shard count).
    pub death_latency: SimDuration,
    /// Logical events handled. Differs from the queue's raw pop count in
    /// exactly one way: a transmission's RxBegin/RxEnd fan-out — one
    /// queue event per *hearing shard* — is counted once, at the sender,
    /// so the total is identical for every shard count.
    pub events_logical: u64,
    /// The flight recorder, attached only when the run was started with
    /// [`RunOptions::trace`](crate::world::RunOptions). Strictly
    /// observational: recording never touches RNG streams, timers or
    /// event ordering, so a traced run is bit-identical to an untraced
    /// one. `None` (the default) costs a single branch per hook.
    pub rec: Option<Vec<TraceRecord>>,
}

impl PdesShard for ShardState {
    type Ev = Ev;
    type Global = GlobalEv;

    fn handle(&mut self, ctx: &mut ShardCtx<'_>, ev: Ev) {
        // A depleted node is deaf, mute, and schedules nothing: any event
        // still addressed to it (stale timers, wake completions) is void.
        let target_dead = |w: &ShardState, node: NodeId| !w.node(node).is_alive();
        // Reception fan-outs are counted at the sender (see
        // `events_logical`); everything else counts where it runs.
        if !matches!(ev, Ev::RxBegin { .. } | Ev::RxEnd { .. }) {
            self.events_logical += 1;
        }
        match ev {
            Ev::AppArrival { node } => {
                if target_dead(self, node) {
                    return;
                }
                self.app_arrival(ctx, node)
            }
            Ev::MacTimer { node, class, kind } => {
                self.mac_timers.remove(&(node.0, class.index(), kind));
                self.mac_event(ctx, node, class, MacEvent::Timer(kind), None);
            }
            Ev::TxEnd { tx } => self.tx_end(ctx, tx),
            Ev::RxBegin {
                tx,
                sender,
                class,
                kind,
            } => self.rx_begin(ctx, tx, sender, class, kind),
            Ev::RxEnd {
                tx,
                sender,
                class,
                frame,
                sender_died,
                payload,
            } => self.rx_end(ctx, tx, sender, class, frame, sender_died, payload),
            Ev::RadioWakeDone { node } => {
                if target_dead(self, node) {
                    return;
                }
                self.radio_wake_done(ctx, node)
            }
            Ev::BcpAckTimer { node, burst } => {
                self.ack_timers.remove(&(node.0, burst.0));
                if target_dead(self, node) {
                    return;
                }
                let mut actions = Vec::new();
                if let Some(tx) = self.node_mut(node).bcp_tx.as_mut() {
                    tx.on_ack_timeout(ctx.now(), burst, &mut actions);
                }
                self.sender_actions(ctx, node, actions);
            }
            Ev::BcpDataTimer { node, burst } => {
                self.data_timers.remove(&(node.0, burst.0));
                if target_dead(self, node) {
                    return;
                }
                let mut actions = Vec::new();
                if let Some(rx) = self.node_mut(node).bcp_rx.as_mut() {
                    rx.on_data_timeout(ctx.now(), burst, &mut actions);
                }
                self.receiver_actions(ctx, node, actions);
            }
            Ev::HighIdleOff { node } => {
                if target_dead(self, node) {
                    return;
                }
                self.high_idle_off(ctx, node)
            }
            Ev::Flush { node } => {
                if target_dead(self, node) {
                    return;
                }
                let mut actions = Vec::new();
                if let Some(tx) = self.node_mut(node).bcp_tx.as_mut() {
                    tx.flush(ctx.now(), &mut actions);
                }
                self.sender_actions(ctx, node, actions);
            }
            Ev::PowerCheck { node } => {
                self.power_timers.remove(&node.0);
                self.power_touch(ctx, node);
            }
            Ev::WakeSample { node } => {
                self.lpl_timers.remove(&node.0);
                if target_dead(self, node) {
                    return;
                }
                self.wake_sample(ctx, node)
            }
            Ev::Sleep { node } => {
                if target_dead(self, node) {
                    return;
                }
                self.lpl_sleep(ctx, node)
            }
        }
    }
}

impl ShardState {
    /// The state of an owned node.
    ///
    /// # Panics
    ///
    /// Panics if this shard does not own `node` (an event was misrouted).
    pub fn node(&self, node: NodeId) -> &NodeState {
        self.nodes[node.index()]
            .as_ref()
            .expect("event routed to non-owning shard")
    }

    /// Mutable state of an owned node (same panic contract).
    pub fn node_mut(&mut self, node: NodeId) -> &mut NodeState {
        self.nodes[node.index()]
            .as_mut()
            .expect("event routed to non-owning shard")
    }

    /// Iterates the nodes this shard owns, ascending by id.
    pub fn owned_nodes(&self) -> impl Iterator<Item = &NodeState> {
        self.nodes.iter().flatten()
    }

    pub fn owned_nodes_mut(&mut self) -> impl Iterator<Item = &mut NodeState> {
        self.nodes.iter_mut().flatten()
    }

    // ------------------------------------------------------------------
    // Flight recorder
    // ------------------------------------------------------------------

    /// Records a flight-recorder event under `key` (normally the key of
    /// the simulation event being handled). The closure runs only when a
    /// recorder is attached, so the disabled path costs one branch and
    /// never constructs the event.
    pub(crate) fn trace_with(&mut self, key: EvKey, ev: impl FnOnce() -> TraceEvent) {
        if let Some(rec) = self.rec.as_mut() {
            rec.push(TraceRecord { key, ev: ev() });
        }
    }

    // ------------------------------------------------------------------
    // Per-packet fate observations
    // ------------------------------------------------------------------

    /// Observes the loss of one packet copy (see [`FateBook::lose`]).
    pub(crate) fn fate_lost(&mut self, pkt: &AppPacket, fate: Fate, key: EvKey) {
        self.fates.lose(fate_key(pkt), FateMark { fate, key });
    }

    /// The time after which no further packets are generated.
    fn traffic_end(&self) -> SimTime {
        match self.scen.traffic_cutoff {
            Some(cutoff) => SimTime::ZERO + cutoff,
            None => self.scen.end_time(),
        }
    }

    // ------------------------------------------------------------------
    // Application layer
    // ------------------------------------------------------------------

    fn app_arrival(&mut self, ctx: &mut ShardCtx<'_>, node: NodeId) {
        let now = ctx.now();
        let end = self.traffic_end();
        let dest = self.flow_dest[node.index()];
        let pkt = {
            let n = self.node_mut(node);
            let pkt = AppPacket::new(node, dest, n.app_seq, now, n.pending_bytes);
            n.app_seq += 1;
            if let Some((t, b)) = n
                .workload
                .as_mut()
                .expect("arrival without workload")
                .next_arrival()
            {
                if t <= end {
                    n.pending_bytes = b;
                    ctx.at(t, Ev::AppArrival { node });
                }
            }
            pkt
        };
        let alive_prefix = !self.shared.death_seen;
        if let bcp_traffic::TrafficPattern::Broadcast { source } = self.scen.pattern {
            debug_assert_eq!(node, source, "only the source generates broadcast data");
            // One arrival fans out into one accountable copy per live
            // recipient (the liveness snapshot is coordinator-published,
            // so the recipient set is identical for every shard count)…
            let key = ctx.current_key();
            let shared = Arc::clone(&self.shared);
            let recipients: Vec<NodeId> = self
                .scen
                .topo
                .nodes()
                .filter(|&r| r != node && shared.alive[r.index()])
                .collect();
            for r in recipients {
                let copy = AppPacket { dest: r, ..pkt };
                self.metrics.on_generated(&copy, alive_prefix);
            }
            // The flood enters the system once, at its source.
            self.trace_with(key, || TraceEvent::PktEnqueue {
                node: node.0,
                pkt: pkt.id.0,
                bytes: pkt.bytes as u32,
            });
            // …but the air carries it once per dissemination-tree edge.
            self.broadcast_relay(ctx, node, &pkt);
            return;
        }
        self.metrics.on_generated(&pkt, alive_prefix);
        let key = ctx.current_key();
        self.trace_with(key, || TraceEvent::PktEnqueue {
            node: node.0,
            pkt: pkt.id.0,
            bytes: pkt.bytes as u32,
        });
        match self.scen.model {
            ModelKind::Sensor => self.forward_data(ctx, node, pkt, Class::Low),
            ModelKind::Dot11 => self.forward_data(ctx, node, pkt, Class::High),
            ModelKind::DualRadio => self.bcp_data(ctx, node, pkt),
        }
    }

    /// `true` when `pkt` is a copy of a broadcast flood (and must be
    /// re-forwarded down the tree after local delivery).
    pub(crate) fn is_broadcast_flood(&self, pkt: &AppPacket) -> bool {
        matches!(self.scen.pattern,
            bcp_traffic::TrafficPattern::Broadcast { source } if source == pkt.origin)
    }

    /// Hands a broadcast packet to `node`'s dissemination-tree children:
    /// one re-addressed copy per child, over the model's data path (the
    /// low radio hop for the sensor flood, the high radio for 802.11,
    /// BCP's buffer-and-burst for dual-radio).
    pub(crate) fn broadcast_relay(
        &mut self,
        ctx: &mut ShardCtx<'_>,
        node: NodeId,
        pkt: &AppPacket,
    ) {
        let shared = Arc::clone(&self.shared);
        let Some(tree) = shared.dissem.as_ref() else {
            return;
        };
        for &child in tree.children(node) {
            let copy = AppPacket {
                dest: child,
                ..*pkt
            };
            match self.scen.model {
                ModelKind::Sensor => {
                    // The tree edge *is* the next hop: no route lookup.
                    self.enqueue_frame(
                        ctx,
                        node,
                        Class::Low,
                        child,
                        copy.bytes,
                        Payload::SensorData(copy),
                    );
                }
                ModelKind::Dot11 => {
                    self.enqueue_frame(
                        ctx,
                        node,
                        Class::High,
                        child,
                        copy.bytes,
                        Payload::SensorData(copy),
                    );
                }
                ModelKind::DualRadio => {
                    let mut actions = Vec::new();
                    self.node_mut(node)
                        .bcp_tx
                        .as_mut()
                        .expect("dual model has BCP sender")
                        .on_data(ctx.now(), child, copy, &mut actions);
                    self.sender_actions(ctx, node, actions);
                }
            }
        }
    }

    /// Hop-by-hop forwarding for the single-radio models.
    pub(crate) fn forward_data(
        &mut self,
        ctx: &mut ShardCtx<'_>,
        node: NodeId,
        pkt: AppPacket,
        class: Class,
    ) {
        let routes = match class {
            Class::Low => &self.shared.low_routes,
            Class::High => &self.shared.high_routes,
        };
        match routes.next_hop(node, pkt.dest) {
            Some(next) => {
                self.enqueue_frame(ctx, node, class, next, pkt.bytes, Payload::SensorData(pkt));
            }
            None => {
                let key = ctx.current_key();
                self.fate_lost(&pkt, Fate::LostMac, key); // unroutable
                self.trace_with(key, || TraceEvent::PktDrop {
                    node: node.0,
                    pkt: pkt.id.0,
                    reason: TraceDrop::Unroutable,
                });
            }
        }
    }

    /// Data entering BCP at `node` (origin or relay).
    pub(crate) fn bcp_data(&mut self, ctx: &mut ShardCtx<'_>, node: NodeId, pkt: AppPacket) {
        let Some(next) = self.high_next_hop(node, pkt.dest) else {
            let key = ctx.current_key();
            self.fate_lost(&pkt, Fate::LostMac, key);
            self.trace_with(key, || TraceEvent::PktDrop {
                node: node.0,
                pkt: pkt.id.0,
                reason: TraceDrop::Unroutable,
            });
            return;
        };
        let mut actions = Vec::new();
        self.node_mut(node)
            .bcp_tx
            .as_mut()
            .expect("dual model has BCP sender")
            .on_data(ctx.now(), next, pkt, &mut actions);
        self.sender_actions(ctx, node, actions);
    }

    pub(crate) fn high_next_hop(&self, node: NodeId, dst: NodeId) -> Option<NodeId> {
        match self.scen.high_route {
            HighRoute::Tree => self.shared.high_routes.next_hop(node, dst),
            HighRoute::LowParents { shortcuts, .. } => {
                if shortcuts {
                    if let Some(via) = self.node(node).shortcuts.shortcut(dst) {
                        // Liveness is read from the coordinator snapshot:
                        // a forwarder's death becomes visible when the
                        // NodeDied repair publishes the new snapshot, one
                        // link latency after the battery emptied.
                        if self.shared.alive[via.index()]
                            && self
                                .scen
                                .topo
                                .in_range(node, via, self.scen.high_profile.range_m)
                        {
                            return Some(via);
                        }
                    }
                }
                self.shared.low_routes.next_hop(node, dst)
            }
        }
    }

    // ------------------------------------------------------------------
    // The transmission path
    // ------------------------------------------------------------------

    pub(crate) fn profile(&self, class: Class) -> &bcp_radio::profile::RadioProfile {
        match class {
            Class::Low => &self.scen.low_profile,
            Class::High => &self.scen.high_profile,
        }
    }

    pub(crate) fn mac_addr_of(&self, node: NodeId, class: Class) -> MacAddr {
        match class {
            Class::Low => MacAddr(self.addr.low_of(node).0 as u64),
            Class::High => MacAddr(self.addr.high_of(node).0),
        }
    }

    pub(crate) fn node_of_mac(&self, addr: MacAddr, class: Class) -> Option<NodeId> {
        match class {
            Class::Low => self.addr.node_of_low(bcp_net::addr::LowAddr(addr.0 as u16)),
            Class::High => self.addr.node_of_high(bcp_net::addr::HighAddr(addr.0)),
        }
    }

    pub(crate) fn radio_senses(&self, node: NodeId, class: Class) -> bool {
        self.node(node)
            .radio(class)
            .map(|r| {
                matches!(
                    r.state(),
                    RadioState::Idle | RadioState::Receiving | RadioState::Transmitting
                )
            })
            .unwrap_or(false)
    }

    pub(crate) fn start_tx(
        &mut self,
        ctx: &mut ShardCtx<'_>,
        node: NodeId,
        class: Class,
        frame: MacFrame,
    ) {
        let now = ctx.now();
        let ci = class.index();
        // Data frames pay the MAC's LPL wake-up preamble (zero under
        // AlwaysOn — bit-identical airtime); ACKs are never stretched.
        let airtime = match frame.kind {
            FrameKind::Data => self
                .node(node)
                .mac(class)
                .config()
                .data_airtime(self.profile(class), frame.payload_bytes),
            FrameKind::Ack => self.profile(class).control_airtime(frame.payload_bytes),
        };
        // If the radio was mid-reception, transmitting tramples it
        // (capture); release the channel lock first.
        if let Some((locked, _)) = self.chans[ci].locked_rx(node) {
            self.chans[ci].unlock_rx(node, locked);
        }
        {
            let n = self.node_mut(node);
            let radio = n.radio_mut(class);
            match radio.state() {
                RadioState::Idle => radio.start_tx(now),
                RadioState::Receiving => {
                    radio.end_rx(now, RxOutcome::Corrupted);
                    radio.start_tx(now);
                }
                s => panic!("{node} {class:?}: StartTx while radio is {s:?}"),
            }
        }
        let txid = {
            let n = self.node_mut(node);
            let seq = n.tx_seq;
            n.tx_seq += 1;
            TxId::new(node, seq)
        };
        self.txs.insert(
            txid.0,
            ActiveTx {
                sender: node,
                class,
                frame,
            },
        );
        self.power_touch(ctx, node);
        ctx.after(airtime, Ev::TxEnd { tx: txid });
        let key = ctx.current_key();
        // Data frames on the low radio stretch by the LPL wake-up preamble
        // (zero under AlwaysOn); report it separately so the trace shows
        // what the airtime paid for.
        let preamble_ns = if frame.kind == FrameKind::Data && class == Class::Low {
            self.scen.low_sleep.tx_preamble().as_nanos()
        } else {
            0
        };
        self.trace_with(key, || TraceEvent::TxStart {
            node: node.0,
            class: trace_class(class),
            bytes: frame.payload_bytes as u32,
            air_ns: airtime.as_nanos(),
            preamble_ns,
        });
        // Fan the key-up out: one RxBegin per shard with in-range
        // receivers, heard one link latency later (the lookahead floor).
        let hear_at = now + self.scen.link_latency(class);
        let mut heard = false;
        for shard in self.neigh[ci].shards_hearing(node) {
            heard = true;
            ctx.send(
                shard,
                hear_at,
                Ev::RxBegin {
                    tx: txid,
                    sender: node,
                    class,
                    kind: frame.kind,
                },
            );
        }
        if heard {
            self.events_logical += 1;
        }
    }

    /// A transmission became audible at this shard's receivers.
    fn rx_begin(
        &mut self,
        ctx: &mut ShardCtx<'_>,
        tx: TxId,
        sender: NodeId,
        class: Class,
        kind: FrameKind,
    ) {
        let now = ctx.now();
        let ci = class.index();
        // Under LPL a dozing receiver may still catch this frame at a
        // later wake sample, as long as the sample lands inside the
        // sender's wake-up preamble: remember when the frame body starts.
        // Only data frames carry a preamble — an ACK joined mid-air is
        // garbage, so it is deliberately left out of the audible table.
        let lpl_body_start =
            (class == Class::Low && kind == FrameKind::Data && self.scen.low_sleep.is_lpl())
                .then(|| now + self.scen.low_sleep.tx_preamble());
        let neigh = self.neigh[ci].clone();
        let phys = self.phys[ci].clone();
        for &r in neigh.of(sender, self.id) {
            // Received-power gate: the neighbour index reaches out to the
            // audibility radius, so under `logn` a listed receiver may
            // still be out of earshot once its link's shadowing applies.
            // An inaudible frame leaves no state at all — no carrier, no
            // LPL entry, nothing to decode; `rx_end` mirrors this via the
            // audible table.
            let rx_mw = match &phys {
                None => None,
                Some(p) => {
                    let mw = p.rx_mw(&self.scen.topo, sender, r);
                    if mw < p.noise_mw {
                        continue;
                    }
                    Some(mw)
                }
            };
            if let Some(body_start) = lpl_body_start {
                self.lpl_audible
                    .entry(r.0)
                    .or_default()
                    .push((tx, body_start));
            }
            let clean_start = !self.chans[ci].carrier_busy(r);
            let edge = self.chans[ci].carrier_up(r);
            if let Some(mw) = rx_mw {
                self.chans[ci].audible_add(r, tx, mw);
            }
            let can_hear = self
                .node(r)
                .radio(class)
                .map(|rd| rd.state() == RadioState::Idle)
                .unwrap_or(false);
            let lock = match (&phys, rx_mw) {
                // Disk: a clean start at an idle radio locks; any other
                // overlap corrupts whatever was being received (a dozing
                // LPL receiver instead gets its chance at the next wake
                // sample, above).
                (None, _) => {
                    if clean_start && can_hear {
                        true
                    } else {
                        self.chans[ci].poison_rx(r);
                        false
                    }
                }
                // Received power: an SINR decision instead.
                (Some(p), Some(mw)) => {
                    if let Some((locked, _)) = self.chans[ci].locked_rx(r) {
                        // Capture: the frame being received survives the
                        // new interferer iff its margin over everything
                        // else audible still clears the threshold. A
                        // stronger late arrival is interference, not a
                        // lock steal — first decodable lock wins.
                        let survives = self.chans[ci].audible_power(r, locked).is_some_and(|s| {
                            p.decodes(s, self.chans[ci].interference_mw(r, locked))
                        });
                        if !survives {
                            self.chans[ci].poison_rx(r);
                        }
                        false
                    } else {
                        // Idle receiver: lock iff this frame decodes over
                        // the interference already on the air (capture
                        // onto a strong frame through weak ones). Audible
                        // but undecodable energy still carrier-senses.
                        can_hear && p.decodes(mw, self.chans[ci].interference_mw(r, tx))
                    }
                }
                (Some(_), None) => unreachable!("inaudible frames were skipped above"),
            };
            if lock {
                self.chans[ci].lock_rx(r, tx);
                self.node_mut(r).radio_mut(class).start_rx(now);
                self.power_touch(ctx, r);
                let key = ctx.current_key();
                self.trace_with(key, || TraceEvent::RxStart {
                    node: r.0,
                    from: sender.0,
                    class: trace_class(class),
                });
            }
            if edge && self.radio_senses(r, class) {
                self.mac_event(ctx, r, class, MacEvent::Carrier(true), None);
            }
        }
    }

    fn tx_end(&mut self, ctx: &mut ShardCtx<'_>, txid: TxId) {
        let now = ctx.now();
        let ActiveTx {
            sender,
            class,
            frame,
        } = self.txs.remove(&txid.0).expect("unknown transmission");
        // A sender whose battery died mid-air truncated the frame: its
        // radio is already off, and every receiver hears garbage.
        let sender_died = !self.node(sender).is_alive();
        if !sender_died {
            self.node_mut(sender).radio_mut(class).end_tx(now);
            self.power_touch(ctx, sender);
            self.mac_event(ctx, sender, class, MacEvent::TxFinished, None);
        }
        let ci = class.index();
        let hear_at = ctx.now() + self.scen.link_latency(class);
        // Which receivers can consume the payload: the addressed node
        // always; every overhearer when shortcut learning listens in.
        let dst_node = (frame.kind == FrameKind::Data && !frame.dst.is_broadcast())
            .then(|| self.node_of_mac(frame.dst, class))
            .flatten();
        let learning = class == Class::High
            && matches!(
                self.scen.high_route,
                HighRoute::LowParents {
                    shortcuts: true,
                    ..
                }
            );
        let mut heard = false;
        for shard in self.neigh[ci].shards_hearing(sender) {
            heard = true;
            let payload = if frame.kind == FrameKind::Data {
                let needed = frame.dst.is_broadcast()
                    || learning
                    || dst_node.is_some_and(|d| self.part.shard_of(d) == shard);
                if needed {
                    self.payloads.get(&frame.tag).cloned()
                } else {
                    None
                }
            } else {
                None
            };
            ctx.send(
                shard,
                hear_at,
                Ev::RxEnd {
                    tx: txid,
                    sender,
                    class,
                    frame,
                    sender_died,
                    payload,
                },
            );
        }
        if heard {
            self.events_logical += 1;
        }
    }

    /// A transmission ended at this shard's receivers.
    #[allow(clippy::too_many_arguments)]
    fn rx_end(
        &mut self,
        ctx: &mut ShardCtx<'_>,
        tx: TxId,
        sender: NodeId,
        class: Class,
        frame: MacFrame,
        sender_died: bool,
        payload: Option<Payload>,
    ) {
        let now = ctx.now();
        let ci = class.index();
        let track_lpl = class == Class::Low && self.scen.low_sleep.is_lpl();
        let neigh = self.neigh[ci].clone();
        let logn = self.phys[ci].is_some();
        for &r in neigh.of(sender, self.id) {
            // Mirror of `rx_begin`'s audibility gate: a frame that never
            // reached the noise floor at `r` left no state to clear.
            if logn && !self.chans[ci].audible_remove(r, tx) {
                continue;
            }
            if track_lpl {
                if let Some(v) = self.lpl_audible.get_mut(&r.0) {
                    v.retain(|(t, _)| *t != tx);
                }
            }
            if let Some(corrupted) = self.chans[ci].unlock_rx(r, tx) {
                if !self.node(r).is_alive() {
                    // The receiver died mid-reception; its radio is off and
                    // the channel lock is all that was left to clear.
                    if self.chans[ci].carrier_down(r) && self.radio_senses(r, class) {
                        self.mac_event(ctx, r, class, MacEvent::Carrier(false), None);
                    }
                    continue;
                }
                let lost = corrupted || sender_died || self.chans[ci].channel_loss(r);
                let my_addr = self.mac_addr_of(r, class);
                let for_me = frame.dst == my_addr || frame.dst.is_broadcast();
                let outcome = if lost {
                    RxOutcome::Corrupted
                } else if for_me {
                    RxOutcome::Delivered
                } else {
                    RxOutcome::Overheard
                };
                self.node_mut(r).radio_mut(class).end_rx(now, outcome);
                self.power_touch(ctx, r);
                let key = ctx.current_key();
                self.trace_with(key, || TraceEvent::RxEnd {
                    node: r.0,
                    from: sender.0,
                    class: trace_class(class),
                    // Derived from flags already computed above — the
                    // channel-loss draw happened (or was short-circuited
                    // away) exactly as in an untraced run.
                    outcome: if corrupted || sender_died {
                        TraceRx::Corrupted
                    } else if lost {
                        TraceRx::Lost
                    } else if for_me {
                        TraceRx::Delivered
                    } else {
                        TraceRx::Overheard
                    },
                });
                if !lost {
                    if for_me {
                        self.mac_event(ctx, r, class, MacEvent::RxFrame(frame), payload.as_ref());
                    } else {
                        self.on_overheard(ctx, r, class, &frame, payload.as_ref());
                    }
                }
            }
            if self.chans[ci].carrier_down(r) && self.radio_senses(r, class) {
                self.mac_event(ctx, r, class, MacEvent::Carrier(false), None);
            }
        }
    }

    /// A clean frame addressed to someone else finished at `node`.
    fn on_overheard(
        &mut self,
        ctx: &mut ShardCtx<'_>,
        node: NodeId,
        class: Class,
        frame: &MacFrame,
        payload: Option<&Payload>,
    ) {
        match class {
            Class::Low => {
                // "Sensor-header" accounting: the node decodes the header
                // before turning away.
                let p = &self.scen.low_profile;
                let header_time = p.control_airtime(p.header_bytes);
                let e = p.p_rx * header_time;
                self.node_mut(node).header_overhear += e;
            }
            Class::High => {
                // Shortcut learning: hearing our own packets being
                // forwarded teaches us the forwarder (Section 3).
                if let HighRoute::LowParents {
                    shortcuts: true, ..
                } = self.scen.high_route
                {
                    if ctx.now() <= self.node(node).listen_until {
                        if let Some(Payload::Burst { packets, .. }) = payload {
                            let ours = packets.iter().find(|p| p.origin == node);
                            if let Some(p) = ours {
                                let dst = p.dest;
                                if let Some(via) = self.node_of_mac(frame.src, Class::High) {
                                    self.node_mut(node).shortcuts.learn(dst, via);
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}
