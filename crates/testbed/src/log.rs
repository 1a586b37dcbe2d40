//! The testbed's log-driven energy calculator, fed by the shared
//! flight-recorder vocabulary.
//!
//! Section 4.2: "All the events (waking up of the emulated IEEE 802.11
//! radio, transmission/reception of wakeups, acks, data, etc.) were logged
//! in detail. At the end of the experiments, these logs were used to
//! calculate energy consumption and delay." This module is that pipeline:
//! the harness only *logs* — as [`bcp_sim::trace::TraceRecord`]s, the same
//! records the sharded world emits — and all energy numbers are derived
//! afterwards from those records by [`LogAccounting`].

use bcp_radio::profile::RadioProfile;
use bcp_radio::units::Energy;
use bcp_sim::time::{SimDuration, SimTime};
use bcp_sim::trace::{TraceClass, TraceEvent, TraceRadioState, TraceRecord};

/// Which end of the two-node testbed an event belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The message producer (runs the BCP sender machine).
    Sender,
    /// The data sink (runs the BCP receiver machine).
    Receiver,
}

impl Side {
    /// The fixed node id this side carries in trace records (the harness's
    /// sender is node 1, its receiver node 0).
    pub fn node(self) -> u32 {
        match self {
            Side::Sender => 1,
            Side::Receiver => 0,
        }
    }
}

/// Post-processing of a testbed trace into energy and delay, mirroring the
/// prototype's methodology.
#[derive(Debug, Clone)]
pub struct LogAccounting {
    /// Total energy across both nodes and both radios.
    pub total: Energy,
    /// Low-radio share (CC2420 transfers).
    pub low: Energy,
    /// High-radio transmit+receive share.
    pub high_active: Energy,
    /// High-radio idle share (on but silent).
    pub high_idle: Energy,
    /// High-radio wake-up share.
    pub wakeup: Energy,
    /// Messages delivered.
    pub delivered: u64,
    /// Mean delivery delay.
    pub mean_delay: SimDuration,
}

impl LogAccounting {
    /// Computes energy and delay from a trace, given the two radio
    /// profiles. Each record's time is its key's. `end` closes any
    /// still-open radio-on span.
    ///
    /// Records it reads: [`TraceEvent::TxStart`] on the low radio (one
    /// CC2420 link transfer, charged to both ends),
    /// [`TraceEvent::RadioState`] `Waking`/`Off` edges on the high radio
    /// (on-span bookkeeping plus one wake-up charge),
    /// [`TraceEvent::BurstFrame`] (frame + SIFS + ACK active energy), and
    /// [`TraceEvent::PktDeliver`] (delay). Everything else is ignored.
    ///
    /// # Panics
    ///
    /// Panics if the log is inconsistent (e.g. a high radio going `Off`
    /// without a matching `Waking`).
    pub fn from_trace(
        trace: &[TraceRecord],
        low: &RadioProfile,
        high: &RadioProfile,
        end: SimTime,
    ) -> Self {
        let mut low_e = Energy::ZERO;
        let mut active = Energy::ZERO;
        let mut wakeup = Energy::ZERO;
        // Per-side on-span tracking and busy-time accumulation.
        let mut on_since: [Option<SimTime>; 2] = [None, None];
        let mut on_time = [SimDuration::ZERO; 2];
        let mut busy_time = [SimDuration::ZERO; 2];
        let mut delivered = 0u64;
        let mut delay_sum = SimDuration::ZERO;
        let idx = |node: u32| usize::from(node != Side::Sender.node());
        for r in trace {
            let t = r.key.time;
            match &r.ev {
                TraceEvent::TxStart {
                    class: TraceClass::Low,
                    bytes,
                    ..
                } => {
                    low_e += low.link_energy((*bytes as usize).min(low.max_payload));
                }
                TraceEvent::RadioState {
                    node,
                    class: TraceClass::High,
                    state,
                } => {
                    let i = idx(*node);
                    match state {
                        TraceRadioState::Waking => {
                            assert!(on_since[i].is_none(), "high radio on while already on");
                            on_since[i] = Some(t);
                            wakeup += high.e_wakeup;
                        }
                        TraceRadioState::Off => {
                            let since = on_since[i].take().expect("high radio off without on");
                            on_time[i] += t.duration_since(since);
                        }
                        // Awake/Dozing edges are informational here; the
                        // span runs from Waking to Off.
                        _ => {}
                    }
                }
                TraceEvent::BurstFrame {
                    frame_ns,
                    ack_ns,
                    ifs_ns,
                    ..
                } => {
                    let frame_air = SimDuration::from_nanos(*frame_ns);
                    let ack_air = SimDuration::from_nanos(*ack_ns);
                    let ifs = SimDuration::from_nanos(*ifs_ns);
                    // Sender: transmits the frame, receives the ACK.
                    active += high.p_tx * frame_air + high.p_rx * ack_air;
                    // Receiver: mirror image.
                    active += high.p_rx * frame_air + high.p_tx * ack_air;
                    // Both idle through the interframe gaps.
                    active += high.p_idle * ifs + high.p_idle * ifs;
                    let busy = frame_air + ack_air + ifs;
                    busy_time[0] += busy;
                    busy_time[1] += busy;
                }
                TraceEvent::PktDeliver { delay_ns, .. } => {
                    delivered += 1;
                    delay_sum += SimDuration::from_nanos(*delay_ns);
                }
                _ => {}
            }
        }
        // Close still-open spans at the end of the experiment.
        for i in 0..2 {
            if let Some(since) = on_since[i].take() {
                on_time[i] += end.saturating_duration_since(since);
            }
        }
        let mut high_idle = Energy::ZERO;
        for i in 0..2 {
            let idle = on_time[i].saturating_add(SimDuration::ZERO);
            let idle =
                SimDuration::from_nanos(idle.as_nanos().saturating_sub(busy_time[i].as_nanos()));
            high_idle += high.p_idle * idle;
        }
        let mean_delay = delay_sum
            .as_nanos()
            .checked_div(delivered)
            .map(SimDuration::from_nanos)
            .unwrap_or(SimDuration::ZERO);
        LogAccounting {
            total: low_e + active + high_idle + wakeup,
            low: low_e,
            high_active: active,
            high_idle,
            wakeup,
            delivered,
            mean_delay,
        }
    }

    /// Energy per delivered packet in microjoules (the y axis of Figs.
    /// 11–12); infinite when nothing was delivered.
    pub fn energy_per_packet_uj(&self) -> f64 {
        if self.delivered == 0 {
            f64::INFINITY
        } else {
            self.total.as_microjoules() / self.delivered as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcp_radio::profile::{cc2420, lucent_11m};
    use bcp_sim::keyed::EvKey;

    fn rec(tr: &mut Vec<TraceRecord>, t: SimTime, ev: TraceEvent) {
        let key = EvKey {
            time: t,
            depth: 0,
            ord: tr.len() as u128,
        };
        tr.push(TraceRecord { key, ev });
    }

    fn low_tx(bytes: u32) -> TraceEvent {
        TraceEvent::TxStart {
            node: Side::Sender.node(),
            class: TraceClass::Low,
            bytes,
            air_ns: 0,
            preamble_ns: 0,
        }
    }

    fn high_edge(side: Side, state: TraceRadioState) -> TraceEvent {
        TraceEvent::RadioState {
            node: side.node(),
            class: TraceClass::High,
            state,
        }
    }

    #[test]
    fn low_transfers_charge_link_energy() {
        let mut tr = Vec::new();
        rec(&mut tr, SimTime::from_millis(1), low_tx(20));
        let acc = LogAccounting::from_trace(&tr, &cc2420(), &lucent_11m(), SimTime::from_secs(1));
        let expect = cc2420().link_energy(20);
        assert!((acc.low.as_joules() - expect.as_joules()).abs() < 1e-15);
        assert_eq!(acc.total, acc.low);
    }

    #[test]
    fn high_span_splits_idle_and_active() {
        let mut tr = Vec::new();
        rec(
            &mut tr,
            SimTime::ZERO,
            high_edge(Side::Sender, TraceRadioState::Waking),
        );
        rec(
            &mut tr,
            SimTime::from_millis(1),
            TraceEvent::BurstFrame {
                node: Side::Sender.node(),
                peer: Side::Receiver.node(),
                bytes: 0,
                frame_ns: SimDuration::from_millis(1).as_nanos(),
                ack_ns: 0,
                ifs_ns: 0,
            },
        );
        rec(
            &mut tr,
            SimTime::from_millis(10),
            high_edge(Side::Sender, TraceRadioState::Off),
        );
        let high = lucent_11m();
        let acc = LogAccounting::from_trace(&tr, &cc2420(), &high, SimTime::from_secs(1));
        // Sender on for 10 ms, busy 1 ms -> 9 ms idle; receiver never on
        // but the frame's rx side is still charged as active energy.
        let expect_idle = high.p_idle * SimDuration::from_millis(9);
        assert!((acc.high_idle.as_joules() - expect_idle.as_joules()).abs() < 1e-12);
        let expect_active =
            high.p_tx * SimDuration::from_millis(1) + high.p_rx * SimDuration::from_millis(1);
        assert!((acc.high_active.as_joules() - expect_active.as_joules()).abs() < 1e-12);
        assert!(
            (acc.wakeup.as_millijoules() - 0.6).abs() < 1e-9,
            "one wakeup"
        );
    }

    #[test]
    fn open_span_closed_at_end() {
        let mut tr = Vec::new();
        rec(
            &mut tr,
            SimTime::ZERO,
            high_edge(Side::Receiver, TraceRadioState::Waking),
        );
        let high = lucent_11m();
        let acc = LogAccounting::from_trace(&tr, &cc2420(), &high, SimTime::from_secs(2));
        let expect = high.p_idle * SimDuration::from_secs(2);
        assert!((acc.high_idle.as_joules() - expect.as_joules()).abs() < 1e-12);
    }

    #[test]
    fn delay_mean_over_deliveries() {
        let mut tr = Vec::new();
        rec(
            &mut tr,
            SimTime::from_secs(5),
            TraceEvent::PktDeliver {
                node: Side::Receiver.node(),
                pkt: 0,
                delay_ns: SimDuration::from_secs(4).as_nanos(),
            },
        );
        rec(
            &mut tr,
            SimTime::from_secs(9),
            TraceEvent::PktDeliver {
                node: Side::Receiver.node(),
                pkt: 1,
                delay_ns: SimDuration::from_secs(6).as_nanos(),
            },
        );
        let acc = LogAccounting::from_trace(&tr, &cc2420(), &lucent_11m(), SimTime::from_secs(10));
        assert_eq!(acc.delivered, 2);
        assert_eq!(acc.mean_delay, SimDuration::from_secs(5)); // (4+6)/2
    }

    #[test]
    #[should_panic(expected = "high radio off without on")]
    fn inconsistent_log_panics() {
        let mut tr = Vec::new();
        rec(
            &mut tr,
            SimTime::ZERO,
            high_edge(Side::Sender, TraceRadioState::Off),
        );
        let _ = LogAccounting::from_trace(&tr, &cc2420(), &lucent_11m(), SimTime::from_secs(1));
    }

    #[test]
    fn empty_log_zero_energy_infinite_per_packet() {
        let tr: Vec<TraceRecord> = Vec::new();
        let acc = LogAccounting::from_trace(&tr, &cc2420(), &lucent_11m(), SimTime::from_secs(1));
        assert_eq!(acc.total, Energy::ZERO);
        assert!(acc.energy_per_packet_uj().is_infinite());
    }
}
