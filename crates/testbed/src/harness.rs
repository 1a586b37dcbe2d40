//! The two-node prototype harness (Section 4.2).
//!
//! One sender, one receiver, an ideal channel ("a simple setup of a single
//! sender and a single receiver ... in isolation from other external
//! factors (e.g., interference, bad channel conditions)"). The low radio
//! uses CC2420 constants (the Tmote Sky's radio); the high radio is
//! *emulated* with Lucent 11 Mbps characteristics from the literature,
//! exactly as the prototype did. Every protocol event is logged; energy and
//! delay come from the log ([`crate::log::LogAccounting`]).

use crate::log::Side;
use bcp_core::config::BcpConfig;
use bcp_core::msg::{AppPacket, BurstId, HandshakeMsg};
use bcp_core::receiver::{BcpReceiver, ReceiverAction};
use bcp_core::sender::{BcpSender, SenderAction};
use bcp_net::addr::NodeId;
use bcp_radio::profile::{cc2420, lucent_11m, RadioProfile};
use bcp_sim::keyed::{CancelId, EvKey, Keyed, ShardQueue};
use bcp_sim::rng::Rng;
use bcp_sim::time::{SimDuration, SimTime};
use bcp_sim::trace::{TraceClass, TraceEvent, TraceRadioState, TraceRecord};
use std::collections::HashMap;

/// Which curve of Fig. 11 is being measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TestbedMode {
    /// BCP over the dual-radio stack.
    DualRadio,
    /// Every message sent immediately over the sensor radio (baseline).
    SensorRadio,
}

/// Parameters of one prototype experiment.
#[derive(Debug, Clone)]
pub struct TestbedConfig {
    /// The buffering threshold `α·s*` in bytes (Fig. 11's x axis).
    pub threshold_bytes: usize,
    /// Messages per run ("each run consists of sending 500 messages").
    pub messages: usize,
    /// Application inter-message gap.
    pub msg_interval: SimDuration,
    /// Message payload bytes.
    pub msg_bytes: usize,
    /// Sensor radio profile (CC2420 on the Tmote Sky).
    pub low: RadioProfile,
    /// Emulated high radio profile.
    pub high: RadioProfile,
    /// Fixed CSMA access overhead added to each low-radio transfer.
    pub low_access: SimDuration,
    /// ±10% jitter on the message interval (makes the 5-run averaging
    /// meaningful, standing in for real-testbed noise).
    pub seed: u64,
}

impl TestbedConfig {
    /// The paper's prototype settings: 500 messages of 32 B, CC2420 +
    /// emulated Lucent 11 Mbps.
    pub fn paper(threshold_bytes: usize, seed: u64) -> Self {
        TestbedConfig {
            threshold_bytes,
            messages: 500,
            msg_interval: SimDuration::from_millis(200),
            msg_bytes: 32,
            low: cc2420(),
            high: lucent_11m(),
            low_access: SimDuration::from_millis(2),
            seed,
        }
    }
}

/// Result of one testbed run.
#[derive(Debug, Clone)]
pub struct TestbedRun {
    /// Energy per delivered packet (µJ) — Fig. 11/12's y axis.
    pub energy_per_packet_uj: f64,
    /// Mean per-packet delay (ms) — Fig. 12's x axis.
    pub delay_per_packet_ms: f64,
    /// Messages delivered (should equal messages generated after flush).
    pub delivered: u64,
    /// Messages generated.
    pub generated: u64,
    /// The raw event log (the prototype's measurement artifact), in the
    /// same flight-recorder vocabulary the sharded world emits.
    pub trace: Vec<TraceRecord>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HighState {
    Off,
    Waking,
    On,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum TbEv {
    MsgGen,
    LowDataArrive {
        pkt: AppPacket,
    },
    CtrlArrive {
        msg: HandshakeMsg,
    },
    FrameArrive {
        burst: BurstId,
        index: u32,
        count: u32,
        packets: Vec<AppPacket>,
    },
    FrameTxDone {
        burst: BurstId,
    },
    WakeDone {
        side: Side,
    },
    AckTimer {
        burst: BurstId,
    },
    DataTimer {
        burst: BurstId,
    },
    Flush,
}

/// One queue runs the whole testbed, so every event shares one `ord` and
/// same-instant ties fall to insertion order (first in, first out).
impl Keyed for TbEv {
    fn ord(&self) -> u128 {
        0
    }
}

const SENDER: NodeId = NodeId(1);
const RECEIVER: NodeId = NodeId(0);

#[derive(Debug)]
struct Harness {
    cfg: TestbedConfig,
    mode: TestbedMode,
    trace: Vec<TraceRecord>,
    /// Monotone tie-break for trace keys (every testbed event keys alike,
    /// so record order is the total order).
    seq: u128,
    bcp_tx: BcpSender,
    bcp_rx: BcpReceiver,
    high: [HighState; 2],
    wake_pending: Vec<BurstId>,
    ack_timers: HashMap<u64, CancelId>,
    data_timers: HashMap<u64, CancelId>,
    generated: u64,
    rng: Rng,
}

/// Runs one prototype experiment.
pub fn run(cfg: &TestbedConfig, mode: TestbedMode) -> TestbedRun {
    let bcp_cfg = {
        let mut c = BcpConfig::paper_defaults();
        c.threshold_bytes = cfg.threshold_bytes.max(1);
        c.buffer_cap_bytes = c.buffer_cap_bytes.max(c.threshold_bytes * 2);
        c.validate();
        c
    };
    let mut h = Harness {
        cfg: cfg.clone(),
        mode,
        trace: Vec::new(),
        seq: 0,
        bcp_tx: BcpSender::new(SENDER, bcp_cfg.clone()),
        bcp_rx: BcpReceiver::new(RECEIVER, bcp_cfg),
        high: [HighState::Off; 2],
        wake_pending: Vec::new(),
        ack_timers: HashMap::new(),
        data_timers: HashMap::new(),
        generated: 0,
        rng: Rng::new(cfg.seed),
    };
    let mut queue = ShardQueue::new();
    queue.schedule(SimTime::ZERO + cfg.msg_interval, TbEv::MsgGen);
    while let Some((_, ev)) = queue.pop_min() {
        h.handle(&mut queue, ev);
    }
    let end = queue.now();
    let acc = crate::log::LogAccounting::from_trace(&h.trace, &cfg.low, &cfg.high, end);
    TestbedRun {
        energy_per_packet_uj: acc.energy_per_packet_uj(),
        delay_per_packet_ms: acc.mean_delay.as_millis_f64(),
        delivered: acc.delivered,
        generated: h.generated,
        trace: h.trace,
    }
}

impl Harness {
    fn side_idx(side: Side) -> usize {
        match side {
            Side::Sender => 0,
            Side::Receiver => 1,
        }
    }

    /// Appends one record; insertion order is the trace's total order.
    fn rec(&mut self, now: SimTime, ev: TraceEvent) {
        let key = EvKey {
            time: now,
            depth: 0,
            ord: self.seq,
        };
        self.seq += 1;
        self.trace.push(TraceRecord { key, ev });
    }

    /// One low-radio link transfer (data or control), charged by the log
    /// post-processor to both ends.
    fn rec_low_tx(&mut self, now: SimTime, node: u32, bytes: usize) {
        let air = self
            .cfg
            .low
            .frame_airtime(bytes.min(self.cfg.low.max_payload));
        self.rec(
            now,
            TraceEvent::TxStart {
                node,
                class: TraceClass::Low,
                bytes: bytes as u32,
                air_ns: air.as_nanos(),
                preamble_ns: 0,
            },
        );
    }

    fn rec_high_edge(&mut self, now: SimTime, side: Side, state: TraceRadioState) {
        self.rec(
            now,
            TraceEvent::RadioState {
                node: side.node(),
                class: TraceClass::High,
                state,
            },
        );
    }

    fn rec_deliver(&mut self, now: SimTime, pkt: &AppPacket) {
        self.rec(
            now,
            TraceEvent::PktDeliver {
                node: RECEIVER.0,
                pkt: pkt.id.0,
                delay_ns: now.duration_since(pkt.created).as_nanos(),
            },
        );
    }

    fn handle(&mut self, q: &mut ShardQueue<TbEv>, ev: TbEv) {
        let now = q.now();
        match ev {
            TbEv::MsgGen => self.msg_gen(q),
            TbEv::LowDataArrive { pkt } => {
                self.rec_deliver(now, &pkt);
            }
            TbEv::CtrlArrive { msg } => match msg {
                HandshakeMsg::WakeUp { burst, burst_bytes } => {
                    let mut out = Vec::new();
                    self.bcp_rx.on_wakeup(
                        now,
                        SENDER,
                        burst,
                        burst_bytes,
                        usize::MAX / 4,
                        &mut out,
                    );
                    self.receiver_actions(q, out);
                }
                HandshakeMsg::WakeUpAck {
                    burst,
                    granted_bytes,
                } => {
                    let mut out = Vec::new();
                    self.bcp_tx
                        .on_wakeup_ack(now, burst, granted_bytes, &mut out);
                    self.sender_actions(q, out);
                }
            },
            TbEv::FrameArrive {
                burst,
                index,
                count,
                packets,
            } => {
                let mut out = Vec::new();
                self.bcp_rx
                    .on_burst_frame(now, burst, index, count, packets, &mut out);
                self.receiver_actions(q, out);
            }
            TbEv::FrameTxDone { burst } => {
                let mut out = Vec::new();
                self.bcp_tx.on_frame_outcome(now, burst, true, &mut out);
                self.sender_actions(q, out);
            }
            TbEv::WakeDone { side } => {
                self.high[Self::side_idx(side)] = HighState::On;
                self.rec_high_edge(now, side, TraceRadioState::Awake);
                if side == Side::Sender {
                    for burst in core::mem::take(&mut self.wake_pending) {
                        let mut out = Vec::new();
                        self.bcp_tx.on_high_radio_ready(now, burst, &mut out);
                        self.sender_actions(q, out);
                    }
                }
            }
            TbEv::AckTimer { burst } => {
                self.ack_timers.remove(&burst.0);
                let mut out = Vec::new();
                self.bcp_tx.on_ack_timeout(now, burst, &mut out);
                self.sender_actions(q, out);
            }
            TbEv::DataTimer { burst } => {
                self.data_timers.remove(&burst.0);
                let mut out = Vec::new();
                self.bcp_rx.on_data_timeout(now, burst, &mut out);
                self.receiver_actions(q, out);
            }
            TbEv::Flush => {
                let mut out = Vec::new();
                self.bcp_tx.flush(now, &mut out);
                self.sender_actions(q, out);
            }
        }
    }

    fn msg_gen(&mut self, q: &mut ShardQueue<TbEv>) {
        let now = q.now();
        let pkt = AppPacket::new(SENDER, RECEIVER, self.generated, now, self.cfg.msg_bytes);
        self.generated += 1;
        self.rec(
            now,
            TraceEvent::PktEnqueue {
                node: SENDER.0,
                pkt: pkt.id.0,
                bytes: pkt.bytes as u32,
            },
        );
        match self.mode {
            TestbedMode::SensorRadio => {
                // Immediate transfer over the sensor radio.
                let latency = self.cfg.low.frame_airtime(pkt.bytes) + self.cfg.low_access;
                self.rec_low_tx(now, SENDER.0, pkt.bytes);
                q.schedule(now + latency, TbEv::LowDataArrive { pkt });
            }
            TestbedMode::DualRadio => {
                let mut out = Vec::new();
                self.bcp_tx.on_data(now, RECEIVER, pkt, &mut out);
                self.sender_actions(q, out);
            }
        }
        if self.generated < self.cfg.messages as u64 {
            // ±10% interval jitter stands in for testbed noise.
            let base = self.cfg.msg_interval.as_secs_f64();
            let jitter = base * (0.9 + 0.2 * self.rng.f64());
            q.schedule(now + SimDuration::from_secs_f64(jitter), TbEv::MsgGen);
        } else if self.mode == TestbedMode::DualRadio {
            q.schedule(now + self.cfg.msg_interval, TbEv::Flush);
        }
    }

    /// One low-radio control transfer: airtime + CSMA access overhead.
    fn ctrl_latency(&self) -> SimDuration {
        self.cfg
            .low
            .frame_airtime(HandshakeMsg::WIRE_BYTES.min(self.cfg.low.max_payload))
            + self.cfg.low_access
    }

    fn sender_actions(&mut self, q: &mut ShardQueue<TbEv>, actions: Vec<SenderAction>) {
        let now = q.now();
        for a in actions {
            match a {
                SenderAction::SendWakeUp {
                    burst, burst_bytes, ..
                } => {
                    self.rec_low_tx(now, SENDER.0, HandshakeMsg::WIRE_BYTES);
                    let msg = HandshakeMsg::WakeUp { burst, burst_bytes };
                    q.schedule(now + self.ctrl_latency(), TbEv::CtrlArrive { msg });
                }
                SenderAction::ArmAckTimer { burst } => {
                    let id = q.schedule(
                        now + self.bcp_tx.config().wakeup_ack_timeout,
                        TbEv::AckTimer { burst },
                    );
                    if let Some(old) = self.ack_timers.insert(burst.0, id) {
                        q.cancel(old);
                    }
                }
                SenderAction::CancelAckTimer { burst } => {
                    if let Some(id) = self.ack_timers.remove(&burst.0) {
                        q.cancel(id);
                    }
                }
                SenderAction::WakeHighRadio { burst } => {
                    self.wake_high(q, Side::Sender, Some(burst));
                }
                SenderAction::SendBurstFrame {
                    burst,
                    index,
                    count,
                    packets,
                    ..
                } => {
                    let bytes = bcp_core::frag::total_bytes(&packets);
                    let frame_air = self.cfg.high.frame_airtime(bytes);
                    let ack_air = self.cfg.high.control_airtime(14);
                    let difs = SimDuration::from_micros(50);
                    let sifs = SimDuration::from_micros(10);
                    self.rec(
                        now,
                        TraceEvent::BurstFrame {
                            node: SENDER.0,
                            peer: RECEIVER.0,
                            bytes: bytes as u32,
                            frame_ns: frame_air.as_nanos(),
                            ack_ns: ack_air.as_nanos(),
                            ifs_ns: (difs + sifs).as_nanos(),
                        },
                    );
                    q.schedule(
                        now + difs + frame_air,
                        TbEv::FrameArrive {
                            burst,
                            index,
                            count,
                            packets,
                        },
                    );
                    q.schedule(
                        now + difs + frame_air + sifs + ack_air,
                        TbEv::FrameTxDone { burst },
                    );
                }
                SenderAction::SendLowData { packets, .. } => {
                    for pkt in packets {
                        let latency = self.cfg.low.frame_airtime(pkt.bytes) + self.cfg.low_access;
                        self.rec_low_tx(now, SENDER.0, pkt.bytes);
                        q.schedule(now + latency, TbEv::LowDataArrive { pkt });
                    }
                }
                SenderAction::ReleaseHighRadio { .. } => {
                    self.high[0] = HighState::Off;
                    self.rec_high_edge(now, Side::Sender, TraceRadioState::Off);
                }
                SenderAction::PacketsDropped { .. } | SenderAction::SessionDone { .. } => {}
            }
        }
    }

    fn receiver_actions(&mut self, q: &mut ShardQueue<TbEv>, actions: Vec<ReceiverAction>) {
        let now = q.now();
        for a in actions {
            match a {
                ReceiverAction::WakeHighRadio { .. } => {
                    self.wake_high(q, Side::Receiver, None);
                }
                ReceiverAction::SendWakeUpAck {
                    burst,
                    granted_bytes,
                    ..
                } => {
                    self.rec_low_tx(now, RECEIVER.0, HandshakeMsg::WIRE_BYTES);
                    let msg = HandshakeMsg::WakeUpAck {
                        burst,
                        granted_bytes,
                    };
                    q.schedule(now + self.ctrl_latency(), TbEv::CtrlArrive { msg });
                }
                ReceiverAction::ArmDataTimer { burst } => {
                    let id =
                        q.schedule(now + self.bcp_rx.data_timeout(), TbEv::DataTimer { burst });
                    if let Some(old) = self.data_timers.insert(burst.0, id) {
                        q.cancel(old);
                    }
                }
                ReceiverAction::CancelDataTimer { burst } => {
                    if let Some(id) = self.data_timers.remove(&burst.0) {
                        q.cancel(id);
                    }
                }
                ReceiverAction::ReleaseHighRadio { .. } => {
                    self.high[1] = HighState::Off;
                    self.rec_high_edge(now, Side::Receiver, TraceRadioState::Off);
                }
                ReceiverAction::DeliverPackets { packets, .. } => {
                    for pkt in packets {
                        self.rec_deliver(now, &pkt);
                    }
                }
            }
        }
    }

    fn wake_high(&mut self, q: &mut ShardQueue<TbEv>, side: Side, ready: Option<BurstId>) {
        let now = q.now();
        let i = Self::side_idx(side);
        match self.high[i] {
            HighState::Off => {
                self.rec_high_edge(now, side, TraceRadioState::Waking);
                self.high[i] = HighState::Waking;
                q.schedule(now + self.cfg.high.t_wakeup, TbEv::WakeDone { side });
                if let Some(b) = ready {
                    self.wake_pending.push(b);
                }
            }
            HighState::Waking => {
                if let Some(b) = ready {
                    self.wake_pending.push(b);
                }
            }
            HighState::On => {
                if let Some(b) = ready {
                    let mut out = Vec::new();
                    self.bcp_tx.on_high_radio_ready(now, b, &mut out);
                    self.sender_actions(q, out);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dual_delivers_everything_after_flush() {
        let cfg = TestbedConfig::paper(2048, 1);
        let run = run(&cfg, TestbedMode::DualRadio);
        assert_eq!(run.generated, 500);
        assert_eq!(run.delivered, 500, "flush drains the tail");
        assert!(run.energy_per_packet_uj.is_finite());
        assert!(run.delay_per_packet_ms > 0.0);
    }

    #[test]
    fn sensor_mode_is_immediate() {
        let cfg = TestbedConfig::paper(2048, 1);
        let run = run(&cfg, TestbedMode::SensorRadio);
        assert_eq!(run.delivered, 500);
        assert!(
            run.delay_per_packet_ms < 10.0,
            "no buffering: {} ms",
            run.delay_per_packet_ms
        );
    }

    #[test]
    fn bigger_threshold_means_less_energy_more_delay() {
        let small = run(&TestbedConfig::paper(512, 1), TestbedMode::DualRadio);
        let large = run(&TestbedConfig::paper(4096, 1), TestbedMode::DualRadio);
        assert!(
            large.energy_per_packet_uj < small.energy_per_packet_uj,
            "amortisation: {} vs {}",
            large.energy_per_packet_uj,
            small.energy_per_packet_uj
        );
        assert!(large.delay_per_packet_ms > small.delay_per_packet_ms);
    }

    #[test]
    fn breakeven_crossing_visible() {
        // Below s* the dual radio should cost more per packet than the
        // sensor radio; at 4 KB it should cost less (paper: "s* occurs
        // slightly above 1 KB").
        let sensor = run(&TestbedConfig::paper(512, 1), TestbedMode::SensorRadio);
        let tiny = run(&TestbedConfig::paper(96, 1), TestbedMode::DualRadio);
        let big = run(&TestbedConfig::paper(4096, 1), TestbedMode::DualRadio);
        assert!(
            tiny.energy_per_packet_uj > sensor.energy_per_packet_uj,
            "below s*: {} vs sensor {}",
            tiny.energy_per_packet_uj,
            sensor.energy_per_packet_uj
        );
        assert!(
            big.energy_per_packet_uj < sensor.energy_per_packet_uj,
            "above s*: {} vs sensor {}",
            big.energy_per_packet_uj,
            sensor.energy_per_packet_uj
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let a = run(&TestbedConfig::paper(1024, 9), TestbedMode::DualRadio);
        let b = run(&TestbedConfig::paper(1024, 9), TestbedMode::DualRadio);
        assert_eq!(a.energy_per_packet_uj, b.energy_per_packet_uj);
        assert_eq!(a.delay_per_packet_ms, b.delay_per_packet_ms);
    }
}
