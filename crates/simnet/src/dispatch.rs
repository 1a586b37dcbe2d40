//! Binding the sans-IO protocol machines to the shard: MAC actions, BCP
//! sender/receiver actions, payload bookkeeping and the high-radio power
//! reference counting. Everything here touches exactly one owned node
//! (plus the shard-local payload/timer tables); cross-node effects only
//! ever leave through [`ShardState::start_tx`].

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
        node: NodeId,
        class: Class,
        ev: MacEvent,
        payload: Option<&Payload>,
    ) {
        let n = self.node(node);
        if !n.has_class(class) || !n.is_alive() {
            return;
        }
        let mut actions = self.mac_pool.pop().unwrap_or_default();
        self.node_mut(node)
            .mac_mut(class)
            .handle(ctx.now(), ev, &mut actions);
        for a in actions.drain(..) {
            self.mac_action(ctx, node, class, a, payload);
        }
        self.mac_pool.push(actions);
    }

    fn mac_action(
        &mut self,
        ctx: &mut ShardCtx<'_>,
        node: NodeId,
        class: Class,
        a: MacAction,
        payload: Option<&Payload>,
    ) {
        match a {
            MacAction::StartTx(frame) => self.start_tx(ctx, node, class, frame),
            MacAction::SetTimer { kind, delay } => {
                let id = ctx.after(delay, Ev::MacTimer { node, class, kind });
                if let Some(old) = self.mac_timers.insert((node.0, class.index(), kind), id) {
                    ctx.cancel(old);
                }
            }
            MacAction::CancelTimer { kind } => {
                if let Some(id) = self.mac_timers.remove(&(node.0, class.index(), kind)) {
                    ctx.cancel(id);
                }
            }
            MacAction::Deliver(frame) => self.deliver(ctx, node, class, frame, payload),
            MacAction::TxOutcome { ok, tag, .. } => self.tx_outcome(ctx, node, class, ok, tag),
        }
    }

    fn deliver(
        &mut self,
        ctx: &mut ShardCtx<'_>,
        node: NodeId,
        class: Class,
        frame: MacFrame,
        payload: Option<&Payload>,
    ) {
        let Some(payload) = payload else {
            debug_assert!(false, "delivered frame without payload (tag {})", frame.tag);
            return;
        };
        let now = ctx.now();
        match payload {
            Payload::SensorData(pkt) => {
                let pkt = *pkt;
                if node == pkt.dest {
                    if !self.deliver_copy(ctx, node, &pkt, now) {
                        return;
                    }
                    if self.is_broadcast_flood(&pkt) {
                        self.broadcast_relay(ctx, node, &pkt);
                    }
                } else {
                    self.forward_data(ctx, node, pkt, class);
                }
            }
            Payload::Control { msg, dst } => {
                let (msg, dst) = (*msg, *dst);
                if dst == node {
                    self.control_arrived(ctx, node, msg);
                } else {
                    // Relay toward the final destination over the low radio.
                    if let Some(next) = self.shared.low_routes.next_hop(node, dst) {
                        self.enqueue_frame(
                            ctx,
                            node,
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
                if let Some(rx) = self.node_mut(node).bcp_rx.as_mut() {
                    rx.on_burst_frame(now, burst, index, count, packets, &mut actions);
                }
                self.receiver_actions(ctx, node, actions);
            }
        }
    }

    fn control_arrived(&mut self, ctx: &mut ShardCtx<'_>, node: NodeId, msg: HandshakeMsg) {
        let now = ctx.now();
        match msg {
            HandshakeMsg::WakeUp { burst, burst_bytes } => {
                let free = if node == self.scen.sink {
                    usize::MAX / 4
                } else {
                    self.node(node)
                        .bcp_tx
                        .as_ref()
                        .map(|t| t.free_bytes())
                        .unwrap_or(0)
                };
                let from = burst.initiator();
                let mut actions = Vec::new();
                if let Some(rx) = self.node_mut(node).bcp_rx.as_mut() {
                    rx.on_wakeup(now, from, burst, burst_bytes, free, &mut actions);
                }
                self.receiver_actions(ctx, node, actions);
            }
            HandshakeMsg::WakeUpAck {
                burst,
                granted_bytes,
            } => {
                let mut actions = Vec::new();
                if let Some(tx) = self.node_mut(node).bcp_tx.as_mut() {
                    tx.on_wakeup_ack(now, burst, granted_bytes, &mut actions);
                }
                self.sender_actions(ctx, node, actions);
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
        _node: NodeId,
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

    fn tx_outcome(
        &mut self,
        ctx: &mut ShardCtx<'_>,
        node: NodeId,
        class: Class,
        ok: bool,
        tag: u64,
    ) {
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
                if let Some(tx) = self.node_mut(node).bcp_tx.as_mut() {
                    tx.on_frame_outcome(ctx.now(), burst, ok, &mut actions);
                }
                self.sender_actions(ctx, node, actions);
            }
        }
    }

    pub(crate) fn enqueue_frame(
        &mut self,
        ctx: &mut ShardCtx<'_>,
        node: NodeId,
        class: Class,
        to: NodeId,
        bytes: usize,
        payload: Payload,
    ) {
        // A dozing LPL low radio wakes before anything is queued on it
        // (doze resume is instant; the MAC would otherwise StartTx on a
        // sleeping radio). In the vanishing case where the resume's power
        // sync kills the node, the packet dies with it.
        if !self.lpl_wake_for_tx(ctx, node, class) {
            return;
        }
        // Tags are node-scoped (like packet and transmission ids) so the
        // payload table keys are identical for every shard count.
        let tag = {
            let n = self.node_mut(node);
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
        let frame = self
            .node_mut(node)
            .mac_mut(class)
            .make_data(dst, bytes, tag);
        self.mac_event(ctx, node, class, MacEvent::Enqueue(frame), None);
    }

    // ------------------------------------------------------------------
    // BCP binding
    // ------------------------------------------------------------------

    pub(crate) fn sender_actions(
        &mut self,
        ctx: &mut ShardCtx<'_>,
        node: NodeId,
        actions: Vec<SenderAction>,
    ) {
        for a in actions {
            match a {
                SenderAction::SendWakeUp {
                    to,
                    burst,
                    burst_bytes,
                } => {
                    let msg = HandshakeMsg::WakeUp { burst, burst_bytes };
                    self.send_control(ctx, node, to, msg);
                }
                SenderAction::ArmAckTimer { burst } => {
                    let delay = self.scen.bcp.wakeup_ack_timeout;
                    let id = ctx.after(delay, Ev::BcpAckTimer { node, burst });
                    if let Some(old) = self.ack_timers.insert((node.0, burst.0), id) {
                        ctx.cancel(old);
                    }
                }
                SenderAction::CancelAckTimer { burst } => {
                    if let Some(id) = self.ack_timers.remove(&(node.0, burst.0)) {
                        ctx.cancel(id);
                    }
                }
                SenderAction::WakeHighRadio { burst } => {
                    self.acquire_high(ctx, node, Some(burst));
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
                        node,
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
                        self.forward_data(ctx, node, pkt, Class::Low);
                    }
                }
                SenderAction::ReleaseHighRadio { .. } => self.release_high(ctx, node),
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
        node: NodeId,
        actions: Vec<ReceiverAction>,
    ) {
        for a in actions {
            match a {
                ReceiverAction::WakeHighRadio { .. } => self.acquire_high(ctx, node, None),
                ReceiverAction::SendWakeUpAck {
                    to,
                    burst,
                    granted_bytes,
                } => {
                    let msg = HandshakeMsg::WakeUpAck {
                        burst,
                        granted_bytes,
                    };
                    self.send_control(ctx, node, to, msg);
                }
                ReceiverAction::ArmDataTimer { burst } => {
                    let delay = self.scen.bcp.receiver_data_timeout;
                    let id = ctx.after(delay, Ev::BcpDataTimer { node, burst });
                    if let Some(old) = self.data_timers.insert((node.0, burst.0), id) {
                        ctx.cancel(old);
                    }
                }
                ReceiverAction::CancelDataTimer { burst } => {
                    if let Some(id) = self.data_timers.remove(&(node.0, burst.0)) {
                        ctx.cancel(id);
                    }
                }
                ReceiverAction::ReleaseHighRadio { .. } => self.release_high(ctx, node),
                ReceiverAction::DeliverPackets { from: _, packets } => {
                    let now = ctx.now();
                    for pkt in packets {
                        if pkt.dest == node {
                            if !self.deliver_copy(ctx, node, &pkt, now) {
                                continue;
                            }
                            if self.is_broadcast_flood(&pkt) {
                                self.broadcast_relay(ctx, node, &pkt);
                            }
                        } else {
                            self.bcp_data(ctx, node, pkt);
                        }
                    }
                }
            }
        }
    }

    fn send_control(
        &mut self,
        ctx: &mut ShardCtx<'_>,
        node: NodeId,
        dst: NodeId,
        msg: HandshakeMsg,
    ) {
        if let Some(next) = self.shared.low_routes.next_hop(node, dst) {
            self.enqueue_frame(
                ctx,
                node,
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

    fn acquire_high(&mut self, ctx: &mut ShardCtx<'_>, node: NodeId, ready_burst: Option<BurstId>) {
        let now = ctx.now();
        if let Some(id) = self.linger.remove(&node.0) {
            ctx.cancel(id);
        }
        let state = {
            let n = self.node_mut(node);
            n.high_refs += 1;
            n.radio_mut(Class::High).state()
        };
        match state {
            RadioState::Off => {
                self.metrics.radio_wakeups += 1;
                let d = self.node_mut(node).radio_mut(Class::High).begin_wakeup(now);
                // The wake-up pulse is a lump charge: drain it now.
                self.power_touch(ctx, node);
                ctx.after(d, Ev::RadioWakeDone { node });
                let key = ctx.current_key();
                self.trace_with(key, || TraceEvent::RadioState {
                    node: node.0,
                    class: TraceClass::High,
                    state: TraceRadioState::Waking,
                });
                if let Some(b) = ready_burst {
                    self.node_mut(node).wake_pending.push(b);
                }
            }
            RadioState::WakingUp => {
                if let Some(b) = ready_burst {
                    self.node_mut(node).wake_pending.push(b);
                }
            }
            _ => {
                // Already on: a sender session can proceed immediately.
                if let Some(b) = ready_burst {
                    let mut actions = Vec::new();
                    if let Some(tx) = self.node_mut(node).bcp_tx.as_mut() {
                        tx.on_high_radio_ready(now, b, &mut actions);
                    }
                    self.sender_actions(ctx, node, actions);
                }
            }
        }
    }

    fn release_high(&mut self, ctx: &mut ShardCtx<'_>, node: NodeId) {
        let refs = {
            let n = self.node_mut(node);
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
                self.node_mut(node).listen_until = until;
            }
            let id = ctx.after(delay, Ev::HighIdleOff { node });
            if let Some(old) = self.linger.insert(node.0, id) {
                ctx.cancel(old);
            }
        }
    }

    pub(crate) fn radio_wake_done(&mut self, ctx: &mut ShardCtx<'_>, node: NodeId) {
        let now = ctx.now();
        self.node_mut(node)
            .radio_mut(Class::High)
            .complete_wakeup(now);
        let key = ctx.current_key();
        self.trace_with(key, || TraceEvent::RadioState {
            node: node.0,
            class: TraceClass::High,
            state: TraceRadioState::Awake,
        });
        // The high radio now idles expensively: re-project depletion (this
        // can kill the node on the spot if the battery is that close).
        self.power_touch(ctx, node);
        if !self.node(node).is_alive() {
            return;
        }
        // Resynchronize the MAC's carrier view with the channel: the MAC
        // may hold a stale busy flag from before the radio powered down
        // (the matching down-edge fell on deaf ears), which would pin any
        // queued frame in WaitChannel until an unrelated transmission
        // happens to clear it — with the radio burning idle power all
        // along. `on_carrier` is idempotent, so asserting either edge is
        // safe.
        let busy = self.chans[Class::High.index()].carrier_busy(node);
        self.mac_event(ctx, node, Class::High, MacEvent::Carrier(busy), None);
        let pending = core::mem::take(&mut self.node_mut(node).wake_pending);
        for burst in pending {
            let mut actions = Vec::new();
            if let Some(tx) = self.node_mut(node).bcp_tx.as_mut() {
                tx.on_high_radio_ready(now, burst, &mut actions);
            }
            self.sender_actions(ctx, node, actions);
        }
    }

    pub(crate) fn high_idle_off(&mut self, ctx: &mut ShardCtx<'_>, node: NodeId) {
        self.linger.remove(&node.0);
        let now = ctx.now();
        let turned_off = {
            let n = self.node_mut(node);
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
                    let id = ctx.after(delay, Ev::HighIdleOff { node });
                    if let Some(old) = self.linger.insert(node.0, id) {
                        ctx.cancel(old);
                    }
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
            self.power_touch(ctx, node);
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
    pub(crate) fn wake_sample(&mut self, ctx: &mut ShardCtx<'_>, node: NodeId) {
        let Some((interval, sample)) = self.lpl() else {
            return;
        };
        // Re-arm first: if the resume's power sync kills the node below,
        // the kill cancels this timer along with every other one.
        let id = ctx.after(interval, Ev::WakeSample { node });
        if let Some(old) = self.lpl_timers.insert(node.0, id) {
            ctx.cancel(old);
        }
        match self.node(node).low_radio.state() {
            RadioState::Sleeping => {
                if !self.lpl_resume(ctx, node) {
                    return; // the wake's power sync killed the node
                }
                // One carrier read serves both the trace and the doze
                // decision (`carrier_busy` is a pure query).
                let busy = self.chans[Class::Low.index()].carrier_busy(node);
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
    fn lpl_resume(&mut self, ctx: &mut ShardCtx<'_>, node: NodeId) -> bool {
        let now = ctx.now();
        self.node_mut(node).low_radio.resume(now);
        self.power_touch(ctx, node);
        if !self.node(node).is_alive() {
            return false;
        }
        let busy = self.chans[Class::Low.index()].carrier_busy(node);
        self.mac_event(ctx, node, Class::Low, MacEvent::Carrier(busy), None);
        if busy {
            self.lpl_lock_preamble(ctx, node);
        }
        true
    }

    /// End of a channel sample: doze again, unless the radio is busy,
    /// the MAC owes work, or a foreign transmission is audible.
    pub(crate) fn lpl_sleep(&mut self, ctx: &mut ShardCtx<'_>, node: NodeId) {
        if self.scen.low_sleep.is_always_on() {
            return;
        }
        let n = self.node(node);
        if n.low_radio.state() != RadioState::Idle
            || !n.low_mac.is_quiescent()
            || self.chans[Class::Low.index()].carrier_busy(node)
        {
            return; // stay up; the next wake cycle retries
        }
        self.node_mut(node).low_radio.sleep(ctx.now());
        let key = ctx.current_key();
        self.trace_with(key, || TraceEvent::RadioState {
            node: node.0,
            class: TraceClass::Low,
            state: TraceRadioState::Dozing,
        });
        self.power_touch(ctx, node);
    }

    /// A just-woken (idle, unlocked) LPL receiver tries to latch onto the
    /// transmission on the air: decodable exactly when a single
    /// transmission is audible, it is a data frame (ACKs are never
    /// stretched, so they are absent from the audible table), and its
    /// body has not started yet — the wake-up preamble exists precisely
    /// so samples land inside it.
    fn lpl_lock_preamble(&mut self, ctx: &mut ShardCtx<'_>, node: NodeId) {
        let now = ctx.now();
        let ci = Class::Low.index();
        if self.chans[ci].locked_rx(node).is_some()
            || self.node(node).low_radio.state() != RadioState::Idle
            // The count covers untracked transmissions too (an ACK
            // overlapping this preamble): any overlap means garbage.
            || self.chans[ci].carrier_count(node) != 1
        {
            return;
        }
        let Some(audible) = self.lpl_audible.get(&node.0) else {
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
                    .audible_power(node, tx)
                    .is_some_and(|mw| p.decodes(mw, self.chans[ci].interference_mw(node, tx)));
                if !decodable {
                    return;
                }
            }
            self.chans[ci].lock_rx(node, tx);
            self.node_mut(node).low_radio.start_rx(now);
            self.power_touch(ctx, node);
            let key = ctx.current_key();
            self.trace_with(key, || TraceEvent::LplLock {
                node: node.0,
                from: tx.sender().0,
            });
        }
    }

    /// Wakes a dozing low radio so a frame can be queued on it. Returns
    /// `false` when the node died during the wake's power sync (callers
    /// must then drop the frame: the node is a corpse).
    fn lpl_wake_for_tx(&mut self, ctx: &mut ShardCtx<'_>, node: NodeId, class: Class) -> bool {
        if class != Class::Low
            || self.scen.low_sleep.is_always_on()
            || self.node(node).low_radio.state() != RadioState::Sleeping
        {
            return true;
        }
        self.lpl_resume(ctx, node)
    }
}
