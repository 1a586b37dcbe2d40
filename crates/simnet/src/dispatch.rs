//! Binding the sans-IO protocol machines to the shard: MAC actions, BCP
//! sender/receiver actions, payload bookkeeping and the high-radio power
//! reference counting. Everything here touches exactly one owned node,
//! named by the [`Local`] handle its event's handler resolved (plus the
//! shard-local payload table, and the timer table through
//! [`ShardState::arm`] and [`ShardState::disarm`]); cross-node effects
//! only ever leave through [`ShardState::start_tx`].

use crate::channel::Local;
use crate::events::{Class, Ev, Payload};
use crate::fate::{fate_key, Fate};
use crate::scenario::HighRoute;
use crate::shard::{trace_class, ShardCtx, ShardState};
use bcp_core::msg::{BurstId, HandshakeMsg};
use bcp_core::receiver::ReceiverAction;
use bcp_core::sender::{DropReason, SenderAction};
use bcp_mac::sleep::SleepSchedule;
use bcp_mac::types::{MacAction, MacEvent, MacFrame};
use bcp_net::addr::NodeId;
use bcp_radio::device::RadioState;
use bcp_sim::trace::{TraceClass, TraceDrop, TraceEvent, TraceRadioState};

impl ShardState {
    // ------------------------------------------------------------------
    // MAC binding
    // ------------------------------------------------------------------

    /// Feeds one event to a node's MAC and executes the resulting
    /// actions. `payload` resolves the frame tag when the event delivers
    /// a data frame (receptions carry their payload with them — the
    /// sender's tag table lives on another shard).
    pub(crate) fn mac_event(
        &mut self,
        ctx: &mut ShardCtx<'_>,
        at: Local,
        class: Class,
        ev: MacEvent,
        payload: Option<&Payload>,
    ) {
        let n = &mut self.nodes[at.ix()];
        if !n.has_class(class) || !n.is_alive() {
            return;
        }
        let mut actions = self.mac_pool.pop().unwrap_or_default();
        n.mac_mut(class).handle(ctx.now(), ev, &mut actions);
        for a in actions.drain(..) {
            self.mac_action(ctx, at, class, a, payload);
        }
        self.mac_pool.push(actions);
    }

    fn mac_action(
        &mut self,
        ctx: &mut ShardCtx<'_>,
        at: Local,
        class: Class,
        a: MacAction,
        payload: Option<&Payload>,
    ) {
        let node = at.id;
        match a {
            MacAction::StartTx(frame) => self.start_tx(ctx, at, class, frame),
            MacAction::SetTimer { kind, delay } => {
                self.arm(ctx, at, delay, Ev::MacTimer { node, class, kind })
            }
            MacAction::CancelTimer { kind } => {
                self.disarm(ctx, at, Ev::MacTimer { node, class, kind })
            }
            MacAction::Deliver(frame) => self.deliver(ctx, at, class, frame, payload),
            MacAction::TxOutcome { ok, tag, .. } => self.tx_outcome(ctx, at, class, ok, tag),
        }
    }

    fn deliver(
        &mut self,
        ctx: &mut ShardCtx<'_>,
        at: Local,
        class: Class,
        frame: MacFrame,
        payload: Option<&Payload>,
    ) {
        let Some(payload) = payload else {
            debug_assert!(false, "delivered frame without payload (tag {})", frame.tag);
            return;
        };
        let now = ctx.now();
        let node = at.id;
        match payload {
            Payload::SensorData(pkt) => {
                let pkt = *pkt;
                if node == pkt.dest {
                    if !self.deliver_copy(ctx, &pkt, now) {
                        return;
                    }
                    if self.is_broadcast_flood(&pkt) {
                        self.broadcast_relay(ctx, at, &pkt);
                    }
                } else {
                    self.forward_data(ctx, at, pkt, class);
                }
            }
            Payload::Control { msg, dst } => {
                let (msg, dst) = (*msg, *dst);
                if dst == node {
                    self.control_arrived(ctx, at, msg);
                } else {
                    // Relay toward the final destination over the low radio.
                    if let Some(next) = self.shared.low_routes.next_hop(node, dst) {
                        self.enqueue_frame(
                            ctx,
                            at,
                            Class::Low,
                            next,
                            HandshakeMsg::WIRE_BYTES,
                            Payload::Control { msg, dst },
                        );
                    }
                }
            }
            Payload::Burst {
                burst,
                index,
                count,
                packets,
            } => {
                let (burst, index, count) = (*burst, *index, *count);
                // The one place the shared burst is actually consumed:
                // clone the packets here, at the receiving node, instead
                // of once per hearing shard in the fan-out.
                let packets = Vec::clone(packets);
                let mut actions = Vec::new();
                if let Some(rx) = self.nodes[at.ix()].bcp_rx.as_mut() {
                    rx.on_burst_frame(now, burst, index, count, packets, &mut actions);
                }
                self.receiver_actions(ctx, at, actions);
            }
        }
    }

    fn control_arrived(&mut self, ctx: &mut ShardCtx<'_>, at: Local, msg: HandshakeMsg) {
        let now = ctx.now();
        match msg {
            HandshakeMsg::WakeUp { burst, burst_bytes } => {
                let free = if at.id == self.scen.sink {
                    usize::MAX / 4
                } else {
                    self.nodes[at.ix()]
                        .bcp_tx
                        .as_ref()
                        .map(|t| t.free_bytes())
                        .unwrap_or(0)
                };
                let from = burst.initiator();
                let mut actions = Vec::new();
                if let Some(rx) = self.nodes[at.ix()].bcp_rx.as_mut() {
                    rx.on_wakeup(now, from, burst, burst_bytes, free, &mut actions);
                }
                self.receiver_actions(ctx, at, actions);
            }
            HandshakeMsg::WakeUpAck {
                burst,
                granted_bytes,
            } => {
                let mut actions = Vec::new();
                if let Some(tx) = self.nodes[at.ix()].bcp_tx.as_mut() {
                    tx.on_wakeup_ack(now, burst, granted_bytes, &mut actions);
                }
                self.sender_actions(ctx, at, actions);
            }
        }
    }

    /// Counts a copy's arrival at its destination. Returns `false` for a
    /// duplicate (possible for broadcast copies when route repair
    /// re-parents a relay mid-flight) — duplicates are dropped silently
    /// and never re-forwarded.
    fn deliver_copy(
        &mut self,
        ctx: &mut ShardCtx<'_>,
        pkt: &bcp_core::msg::AppPacket,
        now: bcp_sim::time::SimTime,
    ) -> bool {
        // A copy's deliveries all happen on its destination's shard, so
        // the local bitmap sees every duplicate.
        if !self.fates.deliver(fate_key(pkt)) {
            assert!(
                self.is_broadcast_flood(pkt),
                "duplicate delivery of {:?} at {}",
                pkt.id,
                pkt.dest
            );
            return false;
        }
        let alive_prefix = !self.shared.death_seen;
        self.metrics.on_delivered(pkt, now, alive_prefix);
        let key = ctx.current_key();
        self.trace_with(key, || TraceEvent::PktDeliver {
            node: pkt.dest.0,
            pkt: pkt.id.0,
            delay_ns: now.saturating_duration_since(pkt.created).as_nanos(),
        });
        true
    }

    fn tx_outcome(&mut self, ctx: &mut ShardCtx<'_>, at: Local, class: Class, ok: bool, tag: u64) {
        let node = at.id;
        let Some(payload) = self.payloads.remove(&tag) else {
            return;
        };
        let key = ctx.current_key();
        self.trace_with(key, || TraceEvent::AckOutcome {
            node: node.0,
            class: trace_class(class),
            ok,
        });
        match payload {
            Payload::SensorData(pkt) => {
                if !ok {
                    self.fate_lost(&pkt, Fate::LostMac, key);
                    self.trace_with(key, || TraceEvent::PktDrop {
                        node: node.0,
                        pkt: pkt.id.0,
                        reason: TraceDrop::MacFailure,
                    });
                }
            }
            Payload::Control { .. } => {
                // Handshake losses are handled by BCP's own timers.
            }
            Payload::Burst { burst, .. } => {
                let mut actions = Vec::new();
                if let Some(tx) = self.nodes[at.ix()].bcp_tx.as_mut() {
                    tx.on_frame_outcome(ctx.now(), burst, ok, &mut actions);
                }
                self.sender_actions(ctx, at, actions);
            }
        }
    }

    pub(crate) fn enqueue_frame(
        &mut self,
        ctx: &mut ShardCtx<'_>,
        at: Local,
        class: Class,
        to: NodeId,
        bytes: usize,
        payload: Payload,
    ) {
        // A dozing LPL low radio wakes before anything is queued on it
        // (doze resume is instant; the MAC would otherwise StartTx on a
        // sleeping radio). In the vanishing case where the resume's power
        // sync kills the node, the packet dies with it.
        if !self.lpl_wake_for_tx(ctx, at, class) {
            return;
        }
        let node = at.id;
        // Tags are node-scoped (like packet and transmission ids) so the
        // payload table keys are identical for every shard count.
        let tag = {
            let n = &mut self.nodes[at.ix()];
            let tag = crate::events::node_scoped_id(node, n.tag_seq);
            n.tag_seq += 1;
            tag
        };
        self.payloads.insert(tag, payload);
        let key = ctx.current_key();
        self.trace_with(key, || TraceEvent::MacContend {
            node: node.0,
            class: trace_class(class),
            bytes: bytes as u32,
        });
        let dst = self.mac_addr_of(to, class);
        let frame = self.nodes[at.ix()]
            .mac_mut(class)
            .make_data(dst, bytes, tag);
        self.mac_event(ctx, at, class, MacEvent::Enqueue(frame), None);
    }

    // ------------------------------------------------------------------
    // BCP binding
    // ------------------------------------------------------------------

    pub(crate) fn sender_actions(
        &mut self,
        ctx: &mut ShardCtx<'_>,
        at: Local,
        actions: Vec<SenderAction>,
    ) {
        let node = at.id;
        for a in actions {
            match a {
                SenderAction::SendWakeUp {
                    to,
                    burst,
                    burst_bytes,
                } => {
                    let msg = HandshakeMsg::WakeUp { burst, burst_bytes };
                    self.send_control(ctx, at, to, msg);
                }
                SenderAction::ArmAckTimer { burst } => {
                    let delay = self.scen.bcp.wakeup_ack_timeout;
                    self.arm(ctx, at, delay, Ev::BcpAckTimer { node, burst });
                }
                SenderAction::CancelAckTimer { burst } => {
                    self.disarm(ctx, at, Ev::BcpAckTimer { node, burst });
                }
                SenderAction::WakeHighRadio { burst } => {
                    self.acquire_high(ctx, at, Some(burst));
                }
                SenderAction::SendBurstFrame {
                    to,
                    burst,
                    index,
                    count,
                    packets,
                } => {
                    let bytes = bcp_core::frag::total_bytes(&packets);
                    self.enqueue_frame(
                        ctx,
                        at,
                        Class::High,
                        to,
                        bytes,
                        Payload::Burst {
                            burst,
                            index,
                            count,
                            packets: std::sync::Arc::new(packets),
                        },
                    );
                }
                SenderAction::SendLowData { to: _, packets } => {
                    // Delay-bound fallback: these packets travel hop-by-hop
                    // over the low radio from here on.
                    for pkt in packets {
                        self.forward_data(ctx, at, pkt, Class::Low);
                    }
                }
                SenderAction::ReleaseHighRadio { .. } => self.release_high(ctx, at),
                SenderAction::PacketsDropped { packets, reason } => {
                    let (fate, tr) = match reason {
                        DropReason::BufferOverflow => (Fate::LostBuffer, TraceDrop::BufferOverflow),
                        DropReason::MacFailure => (Fate::LostMac, TraceDrop::MacFailure),
                    };
                    let key = ctx.current_key();
                    for p in &packets {
                        self.fate_lost(p, fate, key);
                        self.trace_with(key, || TraceEvent::PktDrop {
                            node: node.0,
                            pkt: p.id.0,
                            reason: tr,
                        });
                    }
                }
                SenderAction::SessionDone { .. } => {}
            }
        }
    }

    pub(crate) fn receiver_actions(
        &mut self,
        ctx: &mut ShardCtx<'_>,
        at: Local,
        actions: Vec<ReceiverAction>,
    ) {
        let node = at.id;
        for a in actions {
            match a {
                ReceiverAction::WakeHighRadio { .. } => self.acquire_high(ctx, at, None),
                ReceiverAction::SendWakeUpAck {
                    to,
                    burst,
                    granted_bytes,
                } => {
                    let msg = HandshakeMsg::WakeUpAck {
                        burst,
                        granted_bytes,
                    };
                    self.send_control(ctx, at, to, msg);
                }
                ReceiverAction::ArmDataTimer { burst } => {
                    let delay = self.scen.bcp.receiver_data_timeout;
                    self.arm(ctx, at, delay, Ev::BcpDataTimer { node, burst });
                }
                ReceiverAction::CancelDataTimer { burst } => {
                    self.disarm(ctx, at, Ev::BcpDataTimer { node, burst });
                }
                ReceiverAction::ReleaseHighRadio { .. } => self.release_high(ctx, at),
                ReceiverAction::DeliverPackets { from: _, packets } => {
                    let now = ctx.now();
                    for pkt in packets {
                        if pkt.dest == node {
                            if !self.deliver_copy(ctx, &pkt, now) {
                                continue;
                            }
                            if self.is_broadcast_flood(&pkt) {
                                self.broadcast_relay(ctx, at, &pkt);
                            }
                        } else {
                            self.bcp_data(ctx, at, pkt);
                        }
                    }
                }
            }
        }
    }

    fn send_control(&mut self, ctx: &mut ShardCtx<'_>, at: Local, dst: NodeId, msg: HandshakeMsg) {
        if let Some(next) = self.shared.low_routes.next_hop(at.id, dst) {
            self.enqueue_frame(
                ctx,
                at,
                Class::Low,
                next,
                HandshakeMsg::WIRE_BYTES,
                Payload::Control { msg, dst },
            );
        }
    }

    // ------------------------------------------------------------------
    // High-radio power management
    // ------------------------------------------------------------------

    fn acquire_high(&mut self, ctx: &mut ShardCtx<'_>, at: Local, ready_burst: Option<BurstId>) {
        let now = ctx.now();
        let (node, ix) = (at.id, at.ix());
        self.disarm(ctx, at, Ev::HighIdleOff { node });
        let state = {
            let n = &mut self.nodes[ix];
            n.high_refs += 1;
            n.radio_mut(Class::High).state()
        };
        match state {
            RadioState::Off => {
                self.metrics.radio_wakeups += 1;
                let d = self.nodes[ix].radio_mut(Class::High).begin_wakeup(now);
                // The wake-up pulse is a lump charge: drain it now.
                self.power_touch(ctx, at);
                ctx.after(d, Ev::RadioWakeDone { node });
                let key = ctx.current_key();
                self.trace_with(key, || TraceEvent::RadioState {
                    node: node.0,
                    class: TraceClass::High,
                    state: TraceRadioState::Waking,
                });
                if let Some(b) = ready_burst {
                    self.nodes[ix].wake_pending.push(b);
                }
            }
            RadioState::WakingUp => {
                if let Some(b) = ready_burst {
                    self.nodes[ix].wake_pending.push(b);
                }
            }
            _ => {
                // Already on: a sender session can proceed immediately.
                if let Some(b) = ready_burst {
                    let mut actions = Vec::new();
                    if let Some(tx) = self.nodes[ix].bcp_tx.as_mut() {
                        tx.on_high_radio_ready(now, b, &mut actions);
                    }
                    self.sender_actions(ctx, at, actions);
                }
            }
        }
    }

    fn release_high(&mut self, ctx: &mut ShardCtx<'_>, at: Local) {
        let node = at.id;
        let refs = {
            let n = &mut self.nodes[at.ix()];
            assert!(n.high_refs > 0, "{node}: release without acquire");
            n.high_refs -= 1;
            n.high_refs
        };
        if refs == 0 {
            // Stay on briefly: the MAC may still owe a link ACK, and in
            // shortcut-learning mode we listen for our packets being
            // forwarded.
            let mut delay = self.scen.off_linger;
            if let HighRoute::LowParents {
                shortcuts: true,
                listen,
            } = self.scen.high_route
            {
                if listen > delay {
                    delay = listen;
                }
                let until = ctx.now() + listen;
                self.nodes[at.ix()].listen_until = until;
            }
            self.arm(ctx, at, delay, Ev::HighIdleOff { node });
        }
    }

    pub(crate) fn radio_wake_done(&mut self, ctx: &mut ShardCtx<'_>, at: Local) {
        let now = ctx.now();
        let (node, ix) = (at.id, at.ix());
        self.nodes[ix].radio_mut(Class::High).complete_wakeup(now);
        let key = ctx.current_key();
        self.trace_with(key, || TraceEvent::RadioState {
            node: node.0,
            class: TraceClass::High,
            state: TraceRadioState::Awake,
        });
        // The high radio now idles expensively: re-project depletion (this
        // can kill the node on the spot if the battery is that close).
        self.power_touch(ctx, at);
        if !self.alive(at) {
            return;
        }
        // Resynchronize the MAC's carrier view with the channel: the MAC
        // may hold a stale busy flag from before the radio powered down
        // (the matching down-edge fell on deaf ears), which would pin any
        // queued frame in WaitChannel until an unrelated transmission
        // happens to clear it — with the radio burning idle power all
        // along. `on_carrier` is idempotent, so asserting either edge is
        // safe.
        let busy = self.chans[Class::High.index()].carrier_busy(ix);
        self.mac_event(ctx, at, Class::High, MacEvent::Carrier(busy), None);
        let pending = core::mem::take(&mut self.nodes[ix].wake_pending);
        for burst in pending {
            let mut actions = Vec::new();
            if let Some(tx) = self.nodes[ix].bcp_tx.as_mut() {
                tx.on_high_radio_ready(now, burst, &mut actions);
            }
            self.sender_actions(ctx, at, actions);
        }
    }

    pub(crate) fn high_idle_off(&mut self, ctx: &mut ShardCtx<'_>, at: Local) {
        let now = ctx.now();
        let node = at.id;
        let turned_off = {
            let n = &mut self.nodes[at.ix()];
            if n.high_refs > 0 {
                return; // re-acquired meanwhile
            }
            // The MAC may still owe a link ACK (SIFS-delayed) or hold queued
            // frames; powering down now would transmit from a dead radio.
            let mac_busy = !n
                .high_mac
                .as_ref()
                .map(|m| m.is_quiescent())
                .unwrap_or(true);
            let radio = n.radio_mut(Class::High);
            match radio.state() {
                RadioState::Idle if !mac_busy => {
                    radio.turn_off(now);
                    true
                }
                RadioState::Off => false,
                _ => {
                    // Busy (rx/tx/waking/ack owed): try again shortly.
                    let delay = self.scen.off_linger;
                    self.arm(ctx, at, delay, Ev::HighIdleOff { node });
                    false
                }
            }
        };
        if turned_off {
            let key = ctx.current_key();
            self.trace_with(key, || TraceEvent::RadioState {
                node: node.0,
                class: TraceClass::High,
                state: TraceRadioState::Off,
            });
            self.power_touch(ctx, at);
        }
    }

    // ------------------------------------------------------------------
    // Low-power listening: the duty-cycled low radio
    // ------------------------------------------------------------------

    /// The LPL timing `(wake_interval, sample)`, when duty cycling is on.
    fn lpl(&self) -> Option<(bcp_sim::time::SimDuration, bcp_sim::time::SimDuration)> {
        match self.scen.low_sleep {
            SleepSchedule::AlwaysOn => None,
            SleepSchedule::Lpl {
                wake_interval,
                sample,
                ..
            } => Some((wake_interval, sample)),
        }
    }

    /// Periodic LPL channel sample: wake the dozing low radio, sniff the
    /// carrier, and either latch onto a frame still in its wake-up
    /// preamble or schedule the doze that ends this sample. Always
    /// re-arms the next sample — the chain is strictly node-local, so it
    /// never constrains the conservative lookahead.
    pub(crate) fn wake_sample(&mut self, ctx: &mut ShardCtx<'_>, at: Local) {
        let Some((interval, sample)) = self.lpl() else {
            return;
        };
        let node = at.id;
        // Re-arm first: if the resume's power sync kills the node below,
        // the kill cancels this timer along with every other one.
        self.arm(ctx, at, interval, Ev::WakeSample { node });
        match self.nodes[at.ix()].low_radio.state() {
            RadioState::Sleeping => {
                if !self.lpl_resume(ctx, at) {
                    return; // the wake's power sync killed the node
                }
                // One carrier read serves both the trace and the doze
                // decision (`carrier_busy` is a pure query).
                let busy = self.chans[Class::Low.index()].carrier_busy(at.ix());
                let key = ctx.current_key();
                self.trace_with(key, || TraceEvent::LplSample {
                    node: node.0,
                    heard: busy,
                });
                if !busy {
                    ctx.after(sample, Ev::Sleep { node });
                }
                // Else: stay up until the carrier clears (the
                // false-wakeup cost LPL pays); the next cycle retries.
            }
            RadioState::Idle => {
                // Traffic kept the radio up past its doze: give it
                // another chance to sleep once this sample width passes.
                ctx.after(sample, Ev::Sleep { node });
            }
            // Transmitting/receiving (or dead: Off): the next sample
            // re-evaluates.
            _ => {}
        }
    }

    /// The doze-resume protocol, shared by the periodic wake sample and
    /// the wake-for-transmit path: resume the radio, sync the battery
    /// (which may kill the node on the spot), resync the MAC's carrier
    /// view (edges during doze fell on deaf ears — same fix as the high
    /// radio's wake-up path), and try to latch onto a frame still in its
    /// wake-up preamble. Returns `false` when the node died.
    fn lpl_resume(&mut self, ctx: &mut ShardCtx<'_>, at: Local) -> bool {
        let now = ctx.now();
        self.nodes[at.ix()].low_radio.resume(now);
        self.power_touch(ctx, at);
        if !self.alive(at) {
            return false;
        }
        let busy = self.chans[Class::Low.index()].carrier_busy(at.ix());
        self.mac_event(ctx, at, Class::Low, MacEvent::Carrier(busy), None);
        if busy {
            self.lpl_lock_preamble(ctx, at);
        }
        true
    }

    /// End of a channel sample: doze again, unless the radio is busy,
    /// the MAC owes work, or a foreign transmission is audible.
    pub(crate) fn lpl_sleep(&mut self, ctx: &mut ShardCtx<'_>, at: Local) {
        if self.scen.low_sleep.is_always_on() {
            return;
        }
        let ix = at.ix();
        let n = &self.nodes[ix];
        if n.low_radio.state() != RadioState::Idle
            || !n.low_mac.is_quiescent()
            || self.chans[Class::Low.index()].carrier_busy(ix)
        {
            return; // stay up; the next wake cycle retries
        }
        self.nodes[ix].low_radio.sleep(ctx.now());
        let key = ctx.current_key();
        self.trace_with(key, || TraceEvent::RadioState {
            node: at.id.0,
            class: TraceClass::Low,
            state: TraceRadioState::Dozing,
        });
        self.power_touch(ctx, at);
    }

    /// A just-woken (idle, unlocked) LPL receiver tries to latch onto the
    /// transmission on the air: decodable exactly when a single
    /// transmission is audible, it is a data frame (ACKs are never
    /// stretched, so they are absent from the audible table), and its
    /// body has not started yet — the wake-up preamble exists precisely
    /// so samples land inside it.
    fn lpl_lock_preamble(&mut self, ctx: &mut ShardCtx<'_>, at: Local) {
        let now = ctx.now();
        let ci = Class::Low.index();
        let ix = at.ix();
        if self.chans[ci].locked_rx(ix).is_some()
            || self.nodes[ix].low_radio.state() != RadioState::Idle
            // The count covers untracked transmissions too (an ACK
            // overlapping this preamble): any overlap means garbage.
            || self.chans[ci].carrier_count(ix) != 1
        {
            return;
        }
        let Some(audible) = self.lpl_audible.get(&at.id.0) else {
            return;
        };
        let &[(tx, body_start)] = audible.as_slice() else {
            return; // overlapping frames: garbage, just carrier-sense it
        };
        if now < body_start {
            // Under a received-power profile audibility is not enough to
            // latch on: the preamble must also decode — at or above the
            // sensitivity and clear of whatever else is on the air (the
            // carrier count above already rules out audible overlap, but
            // a shadowed link can be audible yet permanently too weak).
            if let Some(p) = &self.phys[ci] {
                let decodable = self.chans[ci]
                    .audible_power(ix, tx)
                    .is_some_and(|mw| p.decodes(mw, self.chans[ci].interference_mw(ix, tx)));
                if !decodable {
                    return;
                }
            }
            self.chans[ci].lock_rx(ix, tx);
            self.nodes[ix].low_radio.start_rx(now);
            self.power_touch(ctx, at);
            let key = ctx.current_key();
            self.trace_with(key, || TraceEvent::LplLock {
                node: at.id.0,
                from: tx.sender().0,
            });
        }
    }

    /// Wakes a dozing low radio so a frame can be queued on it. Returns
    /// `false` when the node died during the wake's power sync (callers
    /// must then drop the frame: the node is a corpse).
    fn lpl_wake_for_tx(&mut self, ctx: &mut ShardCtx<'_>, at: Local, class: Class) -> bool {
        if class != Class::Low
            || self.scen.low_sleep.is_always_on()
            || self.nodes[at.ix()].low_radio.state() != RadioState::Sleeping
        {
            return true;
        }
        self.lpl_resume(ctx, at)
    }
}
