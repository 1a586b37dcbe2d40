//! The CSMA/CA core state machine.
//!
//! One parameterised engine implements both MACs of the paper:
//!
//! * [`MacConfig::dot11b`] — IEEE 802.11b DCF: DIFS, slotted exponential
//!   backoff (CW 31→1023, 20 µs slots), SIFS-separated link ACKs, retry
//!   limit 7. RTS/CTS is not used (the paper runs data frames well below
//!   the RTS threshold).
//! * [`MacConfig::sensor_csma`] — the "simpler MAC layer that complies with
//!   MAC protocols for sensor platforms (e.g., no RTS/CTS)": random backoff
//!   in a fixed window (CC2420-style 320 µs slots), link ACKs, 3 retries.
//!
//! The machine is sans-IO and time-fed: every call passes `now`, timers are
//! requested via actions, randomness comes from an owned deterministic
//! stream.

use crate::types::{
    FrameId, FrameKind, MacAction, MacAddr, MacEvent, MacFrame, MacStats, MacTimer,
};
use bcp_sim::hash::FastMap;
use bcp_sim::rng::Rng;
use bcp_sim::time::{SimDuration, SimTime};
use std::collections::VecDeque;

/// Tunable parameters of the CSMA/CA engine.
#[derive(Debug, Clone, PartialEq)]
pub struct MacConfig {
    /// Backoff slot duration.
    pub slot: SimDuration,
    /// Short inter-frame space (data→ACK turnaround).
    pub sifs: SimDuration,
    /// Long inter-frame space before fresh channel access.
    pub difs: SimDuration,
    /// Initial contention window (backoff drawn uniformly from `0..=cw`).
    pub cw_min: u32,
    /// Maximum contention window.
    pub cw_max: u32,
    /// Double the window on each retry (802.11) or redraw from a fixed
    /// window (sensor CSMA).
    pub exponential_backoff: bool,
    /// Send/expect link-layer ACKs for unicast data.
    pub link_acks: bool,
    /// Maximum transmissions per frame, including the first.
    pub max_attempts: u32,
    /// Size of an ACK frame in bytes (airtime computed by the binder; used
    /// here only for the ACK timeout guard).
    pub ack_bytes: usize,
    /// Airtime of one ACK frame (profile-dependent; precomputed by the
    /// constructor helpers).
    pub ack_airtime: SimDuration,
    /// Transmit immediately after DIFS when the frame arrived to an idle
    /// channel (802.11 behaviour); otherwise always back off first.
    pub immediate_first_tx: bool,
    /// Transmit queue capacity in frames.
    pub queue_cap: usize,
    /// Low-power-listening wake-up preamble stretched in front of every
    /// *data* frame (zero when the peers listen continuously). Link ACKs
    /// are never stretched: the ACK's recipient has just finished
    /// transmitting and is provably awake.
    pub wakeup_preamble: SimDuration,
}

impl MacConfig {
    /// IEEE 802.11b DCF timing for the given radio profile (needs the
    /// profile to size the ACK airtime and timeout).
    pub fn dot11b(profile: &bcp_radio::profile::RadioProfile) -> Self {
        let ack_bytes = 14;
        MacConfig {
            slot: SimDuration::from_micros(20),
            sifs: SimDuration::from_micros(10),
            difs: SimDuration::from_micros(50),
            cw_min: 31,
            cw_max: 1023,
            exponential_backoff: true,
            link_acks: true,
            max_attempts: 7,
            ack_bytes,
            ack_airtime: profile.control_airtime(ack_bytes),
            immediate_first_tx: true,
            queue_cap: 64,
            wakeup_preamble: SimDuration::ZERO,
        }
    }

    /// Sensor-platform CSMA (CC2420-class timing, no RTS/CTS, short fixed
    /// backoff window, link ACKs with a small retry budget).
    pub fn sensor_csma(profile: &bcp_radio::profile::RadioProfile) -> Self {
        let ack_bytes = 5;
        MacConfig {
            slot: SimDuration::from_micros(320),
            sifs: SimDuration::from_micros(192),
            difs: SimDuration::from_micros(320),
            cw_min: 15,
            cw_max: 15,
            exponential_backoff: false,
            link_acks: true,
            max_attempts: 4,
            ack_bytes,
            ack_airtime: profile.control_airtime(ack_bytes),
            immediate_first_tx: false,
            queue_cap: 32,
            wakeup_preamble: SimDuration::ZERO,
        }
    }

    /// Returns a copy with a different queue capacity.
    ///
    /// # Panics
    ///
    /// Panics if `cap == 0`.
    pub fn with_queue_cap(mut self, cap: usize) -> Self {
        assert!(cap > 0, "queue capacity must be positive");
        self.queue_cap = cap;
        self
    }

    /// Returns a copy with an LPL wake-up preamble stretched in front of
    /// every data frame (see [`SleepSchedule`](crate::sleep::SleepSchedule)).
    ///
    /// The backoff slot is scaled up to an eighth of the preamble
    /// (B-MAC-style congestion backoff): with preamble-long frames the
    /// vulnerable window is the preamble itself, and a backoff window
    /// much shorter than it would leave two colliding hidden senders
    /// retrying in lock-step — every attempt recolliding — until both
    /// exhaust their retry budgets.
    pub fn with_wakeup_preamble(mut self, preamble: SimDuration) -> Self {
        self.wakeup_preamble = preamble;
        self.slot = self.slot.max(preamble / 8);
        self
    }

    /// The ACK timeout: SIFS + ACK airtime + two slots of slack.
    ///
    /// The preamble stretch itself does not enter — the timeout is armed
    /// at the end of our (stretched) transmission, and the peer's ACK,
    /// never stretched, follows one SIFS later regardless — but an
    /// LPL-scaled slot widens the slack term along with the backoff.
    pub fn ack_timeout(&self) -> SimDuration {
        self.sifs + self.ack_airtime + self.slot * 2
    }

    /// Total airtime of a data frame carrying `payload` bytes under this
    /// config: the radio's framing plus the LPL wake-up preamble.
    pub fn data_airtime(
        &self,
        profile: &bcp_radio::profile::RadioProfile,
        payload: usize,
    ) -> SimDuration {
        profile.frame_airtime(payload) + self.wakeup_preamble
    }
}

/// Why channel access is being (re)started; decides backoff treatment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AccessCause {
    /// A frame arrived to an idle MAC: 802.11 permits transmission after
    /// bare DIFS if the medium is idle.
    Arrival,
    /// A transmission just completed: post-backoff is mandatory.
    PostTx,
    /// Resuming a suspended attempt: keep the remaining backoff.
    Resume,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Access {
    /// Nothing to send (or waiting for the channel with nothing pending).
    Quiet,
    /// Channel busy; will resume when it goes idle.
    WaitChannel,
    /// Counting down DIFS.
    Deferring,
    /// Counting down backoff slots.
    Backoff,
    /// Our data frame is on the air.
    TxData,
    /// Waiting for the link ACK.
    WaitAck,
    /// Our ACK frame is on the air.
    TxAck,
}

bcp_sim::persist!(enum Access = [
    Access::Quiet, Access::WaitChannel, Access::Deferring, Access::Backoff, Access::TxData,
    Access::WaitAck, Access::TxAck
]);

/// The CSMA/CA engine. See the module docs for the two stock
/// configurations.
///
/// # Examples
///
/// Drive a transmission by hand (the binder normally does this):
///
/// ```
/// use bcp_mac::csma::{CsmaMac, MacConfig};
/// use bcp_mac::types::*;
/// use bcp_radio::profile::micaz;
/// use bcp_sim::time::SimTime;
///
/// let mut mac = CsmaMac::new(MacConfig::sensor_csma(&micaz()), MacAddr(1), 7);
/// let frame = mac.make_data(MacAddr(2), 32, 0);
/// let mut actions = Vec::new();
/// mac.handle(SimTime::ZERO, MacEvent::Enqueue(frame), &mut actions);
/// // Sensor CSMA always backs off before transmitting:
/// assert!(matches!(actions[0], MacAction::SetTimer { kind: MacTimer::Difs, .. }));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsmaMac {
    cfg: MacConfig,
    addr: MacAddr,
    rng: Rng,
    state: Access,
    carrier_busy: bool,
    queue: VecDeque<MacFrame>,
    // Current head-of-line attempt bookkeeping.
    attempts: u32,
    cw: u32,
    backoff_remaining: u32,
    backoff_started: SimTime,
    // ACK we owe after SIFS.
    pending_ack: Option<MacFrame>,
    // Access state to resume after an interrupting ACK transmission.
    resume_after_ack: bool,
    // Duplicate suppression: last seq seen per source.
    last_seq: FastMap<MacAddr, u16>,
    // Sequence numbers per destination.
    next_seq: FastMap<MacAddr, u16>,
    next_frame_id: u64,
    stats: MacStats,
}

impl CsmaMac {
    /// Creates a MAC with the given config and link address; `seed` fixes
    /// the backoff stream.
    pub fn new(cfg: MacConfig, addr: MacAddr, seed: u64) -> Self {
        let cw = cfg.cw_min;
        CsmaMac {
            cfg,
            addr,
            rng: Rng::new(seed),
            state: Access::Quiet,
            carrier_busy: false,
            queue: VecDeque::new(),
            attempts: 0,
            cw,
            backoff_remaining: 0,
            backoff_started: SimTime::ZERO,
            pending_ack: None,
            resume_after_ack: false,
            last_seq: FastMap::default(),
            next_seq: FastMap::default(),
            next_frame_id: 0,
            stats: MacStats::default(),
        }
    }

    /// This MAC's link address.
    pub fn addr(&self) -> MacAddr {
        self.addr
    }

    /// The active configuration.
    pub fn config(&self) -> &MacConfig {
        &self.cfg
    }

    /// Behaviour counters.
    pub fn stats(&self) -> MacStats {
        self.stats
    }

    /// `true` when the MAC owes nothing: no queued or in-flight frames, no
    /// pending ACK, no access attempt in progress. Binders must check this
    /// before powering the radio down.
    pub fn is_quiescent(&self) -> bool {
        self.state == Access::Quiet && self.queue.is_empty() && self.pending_ack.is_none()
    }

    /// Builds a data frame from this MAC with a fresh id and sequence
    /// number. The caller submits it via [`MacEvent::Enqueue`].
    pub fn make_data(&mut self, dst: MacAddr, payload_bytes: usize, tag: u64) -> MacFrame {
        let seq = self.next_seq.entry(dst).or_insert(0);
        let this_seq = *seq;
        *seq = seq.wrapping_add(1);
        let id = FrameId(self.next_frame_id);
        self.next_frame_id += 1;
        MacFrame {
            id,
            src: self.addr,
            dst,
            payload_bytes,
            kind: FrameKind::Data,
            seq: this_seq,
            tag,
        }
    }

    /// Feeds one event; actions are appended to `out` in order.
    pub fn handle(&mut self, now: SimTime, ev: MacEvent, out: &mut Vec<MacAction>) {
        match ev {
            MacEvent::Enqueue(frame) => self.on_enqueue(now, frame, out),
            MacEvent::Carrier(busy) => self.on_carrier(now, busy, out),
            MacEvent::RxFrame(frame) => self.on_rx(now, frame, out),
            MacEvent::TxFinished => self.on_tx_finished(now, out),
            MacEvent::Timer(kind) => self.on_timer(now, kind, out),
        }
    }

    fn on_enqueue(&mut self, now: SimTime, frame: MacFrame, out: &mut Vec<MacAction>) {
        assert_eq!(frame.kind, FrameKind::Data, "only data frames are enqueued");
        if self.queue.len() >= self.cfg.queue_cap {
            self.stats.queue_drops += 1;
            out.push(MacAction::TxOutcome {
                id: frame.id,
                ok: false,
                attempts: 0,
                tag: frame.tag,
            });
            return;
        }
        self.stats.enqueued += 1;
        self.queue.push_back(frame);
        if self.state == Access::Quiet {
            self.begin_access(now, AccessCause::Arrival, out);
        }
    }

    /// Starts (or resumes) the channel-access procedure for the head frame.
    fn begin_access(&mut self, _now: SimTime, cause: AccessCause, out: &mut Vec<MacAction>) {
        if self.queue.is_empty() {
            self.state = Access::Quiet;
            return;
        }
        match cause {
            AccessCause::Arrival => {
                self.attempts = 0;
                self.cw = self.cfg.cw_min;
                self.backoff_remaining = if self.cfg.immediate_first_tx && !self.carrier_busy {
                    0
                } else {
                    self.draw_backoff()
                };
            }
            AccessCause::PostTx => {
                self.attempts = 0;
                self.cw = self.cfg.cw_min;
                self.backoff_remaining = self.draw_backoff();
            }
            AccessCause::Resume => {}
        }
        if self.carrier_busy {
            self.state = Access::WaitChannel;
            // A fresh arrival to a busy channel must back off once it clears.
            if self.backoff_remaining == 0 {
                self.backoff_remaining = self.draw_backoff();
            }
        } else {
            self.state = Access::Deferring;
            out.push(MacAction::SetTimer {
                kind: MacTimer::Difs,
                delay: self.cfg.difs,
            });
        }
    }

    fn draw_backoff(&mut self) -> u32 {
        self.rng.range_u64(0, self.cw as u64 + 1) as u32
    }

    fn on_carrier(&mut self, now: SimTime, busy: bool, out: &mut Vec<MacAction>) {
        if busy == self.carrier_busy {
            return; // idempotent
        }
        self.carrier_busy = busy;
        if busy {
            match self.state {
                Access::Deferring => {
                    out.push(MacAction::CancelTimer {
                        kind: MacTimer::Difs,
                    });
                    if self.backoff_remaining == 0 {
                        // Interrupted fresh access: backoff becomes mandatory.
                        self.backoff_remaining = self.draw_backoff();
                    }
                    self.state = Access::WaitChannel;
                }
                Access::Backoff => {
                    let elapsed = now.saturating_duration_since(self.backoff_started);
                    let consumed = (elapsed.as_nanos() / self.cfg.slot.as_nanos().max(1)) as u32;
                    self.backoff_remaining = self.backoff_remaining.saturating_sub(consumed);
                    out.push(MacAction::CancelTimer {
                        kind: MacTimer::Backoff,
                    });
                    self.state = Access::WaitChannel;
                }
                _ => {}
            }
        } else if self.state == Access::WaitChannel {
            self.state = Access::Deferring;
            out.push(MacAction::SetTimer {
                kind: MacTimer::Difs,
                delay: self.cfg.difs,
            });
        }
    }

    fn on_timer(&mut self, now: SimTime, kind: MacTimer, out: &mut Vec<MacAction>) {
        match (kind, self.state) {
            (MacTimer::Difs, Access::Deferring) => {
                if self.backoff_remaining == 0 {
                    self.transmit_head(now, out);
                } else {
                    self.state = Access::Backoff;
                    self.backoff_started = now;
                    out.push(MacAction::SetTimer {
                        kind: MacTimer::Backoff,
                        delay: self.cfg.slot * self.backoff_remaining as u64,
                    });
                }
            }
            (MacTimer::Backoff, Access::Backoff) => {
                self.backoff_remaining = 0;
                self.transmit_head(now, out);
            }
            (MacTimer::AckTimeout, Access::WaitAck) => {
                self.retry_or_fail(now, out);
            }
            (MacTimer::SifsAck, _) => {
                if let Some(ack) = self.pending_ack.take() {
                    self.stats.ack_tx += 1;
                    // ACK pre-empts any access attempt in progress.
                    self.suspend_access(now, out);
                    self.state = Access::TxAck;
                    out.push(MacAction::StartTx(ack));
                }
            }
            // Stale timers (state moved on) are ignored.
            _ => {}
        }
    }

    /// Pauses a Deferring/Backoff access attempt (before an ACK tx).
    fn suspend_access(&mut self, now: SimTime, out: &mut Vec<MacAction>) {
        match self.state {
            Access::Deferring => {
                out.push(MacAction::CancelTimer {
                    kind: MacTimer::Difs,
                });
                self.resume_after_ack = true;
            }
            Access::Backoff => {
                let elapsed = now.saturating_duration_since(self.backoff_started);
                let consumed = (elapsed.as_nanos() / self.cfg.slot.as_nanos().max(1)) as u32;
                self.backoff_remaining = self.backoff_remaining.saturating_sub(consumed);
                out.push(MacAction::CancelTimer {
                    kind: MacTimer::Backoff,
                });
                self.resume_after_ack = true;
            }
            Access::WaitChannel => {
                self.resume_after_ack = true;
            }
            _ => {}
        }
    }

    fn transmit_head(&mut self, _now: SimTime, out: &mut Vec<MacAction>) {
        let frame = *self.queue.front().expect("transmit with empty queue");
        self.attempts += 1;
        self.stats.data_tx += 1;
        self.state = Access::TxData;
        out.push(MacAction::StartTx(frame));
    }

    fn on_tx_finished(&mut self, now: SimTime, out: &mut Vec<MacAction>) {
        match self.state {
            Access::TxData => {
                let frame = *self.queue.front().expect("tx finished with empty queue");
                let expects_ack = self.cfg.link_acks && !frame.dst.is_broadcast();
                if expects_ack {
                    self.state = Access::WaitAck;
                    out.push(MacAction::SetTimer {
                        kind: MacTimer::AckTimeout,
                        delay: self.cfg.ack_timeout(),
                    });
                } else {
                    self.finish_head(true, out);
                    self.begin_access(now, AccessCause::PostTx, out);
                }
            }
            Access::TxAck => {
                // Resume whatever the ACK interrupted.
                self.state = Access::Quiet;
                if self.resume_after_ack || !self.queue.is_empty() {
                    self.resume_after_ack = false;
                    self.begin_access(now, AccessCause::Resume, out);
                }
            }
            _ => {}
        }
    }

    fn finish_head(&mut self, ok: bool, out: &mut Vec<MacAction>) {
        let frame = self.queue.pop_front().expect("no head frame to finish");
        if ok {
            self.stats.tx_successes += 1;
        } else {
            self.stats.tx_failures += 1;
        }
        out.push(MacAction::TxOutcome {
            id: frame.id,
            ok,
            attempts: self.attempts,
            tag: frame.tag,
        });
    }

    fn retry_or_fail(&mut self, now: SimTime, out: &mut Vec<MacAction>) {
        if self.attempts >= self.cfg.max_attempts {
            self.finish_head(false, out);
            self.begin_access(now, AccessCause::PostTx, out);
            return;
        }
        if self.cfg.exponential_backoff {
            self.cw = (self.cw * 2 + 1).min(self.cfg.cw_max);
        }
        self.backoff_remaining = self.draw_backoff();
        if self.carrier_busy {
            self.state = Access::WaitChannel;
        } else {
            self.state = Access::Deferring;
            out.push(MacAction::SetTimer {
                kind: MacTimer::Difs,
                delay: self.cfg.difs,
            });
        }
    }

    fn on_rx(&mut self, _now: SimTime, frame: MacFrame, out: &mut Vec<MacAction>) {
        match frame.kind {
            FrameKind::Ack => {
                if frame.dst == self.addr && self.state == Access::WaitAck {
                    let head = self.queue.front().expect("WaitAck without head frame");
                    // The ACK echoes the data frame's seq in its own field.
                    if frame.seq == head.seq && frame.src == head.dst {
                        out.push(MacAction::CancelTimer {
                            kind: MacTimer::AckTimeout,
                        });
                        self.finish_head(true, out);
                        self.begin_access(_now, AccessCause::PostTx, out);
                    }
                }
            }
            FrameKind::Data => {
                if frame.dst == self.addr {
                    if self.cfg.link_acks {
                        // Echo src/seq back; ACK after SIFS, pre-empting
                        // any access attempt.
                        self.pending_ack = Some(MacFrame {
                            id: FrameId(u64::MAX),
                            src: self.addr,
                            dst: frame.src,
                            payload_bytes: self.cfg.ack_bytes,
                            kind: FrameKind::Ack,
                            seq: frame.seq,
                            tag: frame.tag,
                        });
                        out.push(MacAction::SetTimer {
                            kind: MacTimer::SifsAck,
                            delay: self.cfg.sifs,
                        });
                    }
                    let dup = self.last_seq.get(&frame.src) == Some(&frame.seq);
                    if dup {
                        self.stats.duplicates += 1;
                    } else {
                        self.last_seq.insert(frame.src, frame.seq);
                        self.stats.delivered += 1;
                        out.push(MacAction::Deliver(frame));
                    }
                } else if frame.dst.is_broadcast() {
                    self.stats.delivered += 1;
                    out.push(MacAction::Deliver(frame));
                }
                // Unicast to someone else: overhearing is the binder's
                // concern (energy); the MAC ignores it.
            }
        }
    }
}

// The config and address are configuration: a MAC is rebuilt from them
// and loads only its mutable state.
bcp_sim::persist!(struct CsmaMac {
    rng, state, carrier_busy, queue, attempts, cw, backoff_remaining, backoff_started, pending_ack,
    resume_after_ack, last_seq, next_seq, next_frame_id, stats
});

#[cfg(test)]
mod tests {
    use super::*;
    use bcp_radio::profile::{lucent_11m, micaz};

    /// A miniature binder: executes timer actions against a virtual clock
    /// and records everything else, so tests can drive full exchanges.
    struct Harness {
        mac: CsmaMac,
        now: SimTime,
        timers: Vec<(MacTimer, SimTime)>,
        tx: Vec<(SimTime, MacFrame)>,
        delivered: Vec<MacFrame>,
        outcomes: Vec<(FrameId, bool, u32)>,
    }

    impl Harness {
        fn new(cfg: MacConfig, addr: MacAddr, seed: u64) -> Self {
            Harness {
                mac: CsmaMac::new(cfg, addr, seed),
                now: SimTime::ZERO,
                timers: Vec::new(),
                tx: Vec::new(),
                delivered: Vec::new(),
                outcomes: Vec::new(),
            }
        }

        fn event(&mut self, ev: MacEvent) {
            let mut out = Vec::new();
            self.mac.handle(self.now, ev, &mut out);
            for a in out {
                match a {
                    MacAction::SetTimer { kind, delay } => {
                        self.timers.retain(|(k, _)| *k != kind);
                        self.timers.push((kind, self.now + delay));
                    }
                    MacAction::CancelTimer { kind } => {
                        self.timers.retain(|(k, _)| *k != kind);
                    }
                    MacAction::StartTx(f) => self.tx.push((self.now, f)),
                    MacAction::Deliver(f) => self.delivered.push(f),
                    MacAction::TxOutcome {
                        id, ok, attempts, ..
                    } => self.outcomes.push((id, ok, attempts)),
                }
            }
        }

        /// Fires the earliest pending timer, advancing the clock.
        fn fire_next_timer(&mut self) -> Option<MacTimer> {
            let (i, _) = self
                .timers
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, t))| *t)?;
            let (kind, at) = self.timers.remove(i);
            self.now = at;
            self.event(MacEvent::Timer(kind));
            Some(kind)
        }

        /// Fires timers until the MAC starts a transmission (or gives up).
        fn step_until_tx(&mut self) -> MacFrame {
            let before = self.tx.len();
            for _ in 0..100 {
                if self.tx.len() > before {
                    return self.tx[before].1;
                }
                if self.fire_next_timer().is_none() {
                    break;
                }
            }
            if self.tx.len() > before {
                return self.tx[before].1;
            }
            panic!("no transmission started");
        }
    }

    fn dot11_harness(seed: u64) -> Harness {
        Harness::new(MacConfig::dot11b(&lucent_11m()), MacAddr(1), seed)
    }

    #[test]
    fn fresh_idle_arrival_transmits_after_difs_only() {
        let mut h = dot11_harness(1);
        let f = h.mac.make_data(MacAddr(2), 1024, 0);
        h.event(MacEvent::Enqueue(f));
        assert_eq!(h.timers.len(), 1, "DIFS armed");
        let fired = h.fire_next_timer();
        assert_eq!(fired, Some(MacTimer::Difs));
        assert_eq!(h.tx.len(), 1, "802.11 transmits right after DIFS on idle");
        assert_eq!(h.tx[0].1.id, f.id);
    }

    #[test]
    fn full_acked_exchange_reports_success() {
        let mut h = dot11_harness(2);
        let f = h.mac.make_data(MacAddr(2), 1024, 42);
        h.event(MacEvent::Enqueue(f));
        let sent = h.step_until_tx();
        h.event(MacEvent::TxFinished);
        // ACK from the peer echoing src/seq.
        h.event(MacEvent::RxFrame(MacFrame {
            id: FrameId(u64::MAX),
            src: MacAddr(2),
            dst: MacAddr(1),
            payload_bytes: 14,
            kind: FrameKind::Ack,
            seq: sent.seq,
            tag: 0,
        }));
        assert_eq!(h.outcomes, vec![(f.id, true, 1)]);
        assert_eq!(h.mac.stats().tx_successes, 1);
        assert!(h.timers.iter().all(|(k, _)| *k != MacTimer::AckTimeout));
    }

    #[test]
    fn missing_acks_retry_then_fail() {
        let mut h = dot11_harness(3);
        let f = h.mac.make_data(MacAddr(2), 1024, 0);
        h.event(MacEvent::Enqueue(f));
        let max = h.mac.config().max_attempts;
        for _ in 0..max {
            h.step_until_tx();
            h.event(MacEvent::TxFinished);
            // Let the AckTimeout fire (never deliver an ACK).
            while h.outcomes.is_empty() {
                let k = h.fire_next_timer().expect("timers pending");
                if k == MacTimer::AckTimeout {
                    break;
                }
            }
            if !h.outcomes.is_empty() {
                break;
            }
        }
        assert_eq!(h.outcomes, vec![(f.id, false, max)]);
        assert_eq!(h.mac.stats().tx_failures, 1);
        assert_eq!(h.mac.stats().data_tx as u32, max);
    }

    #[test]
    fn receiver_delivers_and_acks_after_sifs() {
        let mut h = dot11_harness(4);
        let data = MacFrame {
            id: FrameId(9),
            src: MacAddr(7),
            dst: MacAddr(1),
            payload_bytes: 512,
            kind: FrameKind::Data,
            seq: 3,
            tag: 0,
        };
        h.event(MacEvent::RxFrame(data));
        assert_eq!(h.delivered.len(), 1);
        assert_eq!(h.fire_next_timer(), Some(MacTimer::SifsAck));
        assert_eq!(h.tx.len(), 1);
        let ack = h.tx[0].1;
        assert_eq!(ack.kind, FrameKind::Ack);
        assert_eq!(ack.dst, MacAddr(7));
        assert_eq!(ack.seq, 3, "ACK echoes the data seq");
        // SIFS gap respected.
        assert_eq!(h.tx[0].0, SimTime::ZERO + h.mac.config().sifs);
    }

    #[test]
    fn duplicate_data_is_acked_but_not_redelivered() {
        let mut h = dot11_harness(5);
        let data = MacFrame {
            id: FrameId(9),
            src: MacAddr(7),
            dst: MacAddr(1),
            payload_bytes: 512,
            kind: FrameKind::Data,
            seq: 3,
            tag: 0,
        };
        h.event(MacEvent::RxFrame(data));
        h.fire_next_timer(); // ACK out
        h.event(MacEvent::TxFinished);
        h.event(MacEvent::RxFrame(data)); // retransmission (ACK was lost)
        assert_eq!(h.delivered.len(), 1, "no duplicate delivery");
        assert_eq!(h.mac.stats().duplicates, 1);
        // But it is ACKed again so the sender can stop retrying.
        assert!(h.timers.iter().any(|(k, _)| *k == MacTimer::SifsAck));
    }

    #[test]
    fn broadcast_needs_no_ack() {
        let mut h = dot11_harness(6);
        let f = h.mac.make_data(MacAddr::BROADCAST, 100, 0);
        h.event(MacEvent::Enqueue(f));
        h.step_until_tx();
        h.event(MacEvent::TxFinished);
        assert_eq!(h.outcomes, vec![(f.id, true, 1)]);
    }

    #[test]
    fn busy_carrier_defers_access() {
        let mut h = dot11_harness(7);
        h.event(MacEvent::Carrier(true));
        let f = h.mac.make_data(MacAddr(2), 1024, 0);
        h.event(MacEvent::Enqueue(f));
        assert!(h.timers.is_empty(), "no DIFS while busy");
        assert!(h.tx.is_empty());
        h.event(MacEvent::Carrier(false));
        assert!(
            h.timers.iter().any(|(k, _)| *k == MacTimer::Difs),
            "DIFS starts once idle"
        );
        // Arrival to a busy channel must back off (no immediate tx).
        h.fire_next_timer();
        assert!(h.tx.is_empty(), "backoff required after busy arrival");
        assert!(h.timers.iter().any(|(k, _)| *k == MacTimer::Backoff));
    }

    #[test]
    fn carrier_interrupts_and_resumes_backoff() {
        let mut h = dot11_harness(8);
        h.event(MacEvent::Carrier(true));
        let f = h.mac.make_data(MacAddr(2), 1024, 0);
        h.event(MacEvent::Enqueue(f));
        h.event(MacEvent::Carrier(false));
        h.fire_next_timer(); // DIFS -> Backoff
                             // Interrupt the backoff immediately (zero slots consumed).
        h.event(MacEvent::Carrier(true));
        assert!(h.timers.is_empty(), "backoff timer cancelled");
        h.event(MacEvent::Carrier(false));
        assert!(h.timers.iter().any(|(k, _)| *k == MacTimer::Difs));
        // Eventually transmits.
        h.step_until_tx();
    }

    #[test]
    fn queue_overflow_reports_drop() {
        let cfg = MacConfig::dot11b(&lucent_11m()).with_queue_cap(1);
        let mut h = Harness::new(cfg, MacAddr(1), 9);
        let a = h.mac.make_data(MacAddr(2), 10, 0);
        let b = h.mac.make_data(MacAddr(2), 10, 0);
        h.event(MacEvent::Enqueue(a));
        h.event(MacEvent::Enqueue(b));
        assert_eq!(h.outcomes, vec![(b.id, false, 0)]);
        assert_eq!(h.mac.stats().queue_drops, 1);
    }

    #[test]
    fn sensor_mac_always_backs_off() {
        // Over many seeds, the sensor MAC must never transmit straight
        // after DIFS (immediate_first_tx = false) unless it drew zero slots.
        let mut immediate = 0;
        for seed in 0..32 {
            let mut h = Harness::new(MacConfig::sensor_csma(&micaz()), MacAddr(1), seed);
            let f = h.mac.make_data(MacAddr(2), 32, 0);
            h.event(MacEvent::Enqueue(f));
            h.fire_next_timer(); // DIFS
            if !h.tx.is_empty() {
                immediate += 1; // drew 0 slots: allowed, p = 1/16
            }
        }
        assert!(immediate < 10, "most arrivals must draw a real backoff");
    }

    #[test]
    fn post_tx_backoff_before_next_frame() {
        let mut h = dot11_harness(11);
        let a = h.mac.make_data(MacAddr(2), 100, 0);
        let b = h.mac.make_data(MacAddr(2), 100, 0);
        h.event(MacEvent::Enqueue(a));
        h.event(MacEvent::Enqueue(b));
        let sent = h.step_until_tx();
        h.event(MacEvent::TxFinished);
        h.event(MacEvent::RxFrame(MacFrame {
            id: FrameId(u64::MAX),
            src: MacAddr(2),
            dst: MacAddr(1),
            payload_bytes: 14,
            kind: FrameKind::Ack,
            seq: sent.seq,
            tag: 0,
        }));
        // Next access must include DIFS and then (usually) backoff slots —
        // never an instant transmission at the very same instant.
        let t_before = h.now;
        h.step_until_tx();
        assert!(h.now >= t_before + h.mac.config().difs);
    }

    #[test]
    fn seq_numbers_increment_per_destination() {
        let mut mac = CsmaMac::new(MacConfig::dot11b(&lucent_11m()), MacAddr(1), 1);
        let a0 = mac.make_data(MacAddr(2), 1, 0);
        let a1 = mac.make_data(MacAddr(2), 1, 0);
        let b0 = mac.make_data(MacAddr(3), 1, 0);
        assert_eq!(a0.seq, 0);
        assert_eq!(a1.seq, 1);
        assert_eq!(b0.seq, 0, "separate space per destination");
        assert!(a0.id < a1.id && a1.id < b0.id);
    }

    #[test]
    fn stale_ack_is_ignored() {
        let mut h = dot11_harness(12);
        // ACK arrives while idle: nothing should happen.
        h.event(MacEvent::RxFrame(MacFrame {
            id: FrameId(u64::MAX),
            src: MacAddr(2),
            dst: MacAddr(1),
            payload_bytes: 14,
            kind: FrameKind::Ack,
            seq: 0,
            tag: 0,
        }));
        assert!(h.outcomes.is_empty() && h.tx.is_empty() && h.delivered.is_empty());
    }

    #[test]
    fn unicast_for_another_node_is_ignored() {
        let mut h = dot11_harness(13);
        h.event(MacEvent::RxFrame(MacFrame {
            id: FrameId(1),
            src: MacAddr(5),
            dst: MacAddr(6),
            payload_bytes: 64,
            kind: FrameKind::Data,
            seq: 0,
            tag: 0,
        }));
        assert!(h.delivered.is_empty(), "not ours");
        assert!(h.timers.is_empty(), "no ACK owed");
    }

    #[test]
    fn ack_timeout_constant_is_sane() {
        let cfg = MacConfig::dot11b(&lucent_11m());
        assert!(cfg.ack_timeout() > cfg.sifs + cfg.ack_airtime);
        assert!(cfg.ack_timeout() < SimDuration::from_millis(2));
    }

    #[test]
    fn wakeup_preamble_stretches_data_but_not_acks() {
        let p = micaz();
        let plain = MacConfig::sensor_csma(&p);
        let stretch = SimDuration::from_millis(100);
        let lpl = plain.clone().with_wakeup_preamble(stretch);
        assert_eq!(plain.wakeup_preamble, SimDuration::ZERO);
        assert_eq!(
            lpl.data_airtime(&p, 32),
            p.frame_airtime(32) + stretch,
            "data frames pay the preamble"
        );
        assert_eq!(
            plain.data_airtime(&p, 32),
            p.frame_airtime(32),
            "always-on airtime is bit-identical to the profile's"
        );
        // ACKs are never stretched.
        assert_eq!(lpl.ack_airtime, plain.ack_airtime);
    }

    #[test]
    fn lpl_scales_the_congestion_backoff_with_the_preamble() {
        let p = micaz();
        let plain = MacConfig::sensor_csma(&p);
        // With preamble-long frames the vulnerable window is the preamble;
        // a backoff window much shorter than it leaves colliding hidden
        // senders retrying in lock-step, so the slot scales to an eighth.
        let lpl = plain
            .clone()
            .with_wakeup_preamble(SimDuration::from_millis(100));
        assert_eq!(lpl.slot, SimDuration::from_micros(12_500));
        // A preamble shorter than 8 slots leaves the timing untouched —
        // and a zero preamble (always-on) changes nothing at all.
        let short = plain
            .clone()
            .with_wakeup_preamble(SimDuration::from_micros(800));
        assert_eq!(short.slot, plain.slot);
        let off = plain.clone().with_wakeup_preamble(SimDuration::ZERO);
        assert_eq!(off.slot, plain.slot);
        assert_eq!(off.ack_timeout(), plain.ack_timeout());
    }
}

#[cfg(test)]
mod quiescence_tests {
    use super::*;
    use bcp_radio::profile::lucent_11m;
    use bcp_sim::persist::{Dec, Enc, Persist};

    /// The access byte and the backoff stream are private registers: a
    /// crafted payload that puts a discriminant outside the tag table or
    /// an all-zero stream in them is refused, not loaded.
    #[test]
    fn load_refuses_a_bad_access_byte_and_a_dead_stream() {
        let built = || CsmaMac::new(MacConfig::dot11b(&lucent_11m()), MacAddr(1), 7);
        let mut mac = built();
        mac.make_data(MacAddr(2), 64, 9);
        let mut e = Enc::new();
        mac.save(&mut e);
        let good = e.into_bytes();
        let mut back = built();
        back.load(&mut Dec::new(&good)).expect("a saved MAC loads");
        assert_eq!(back, mac);

        // The stream is four varints; the access byte follows it.
        let mut e = Enc::new();
        mac.rng.save(&mut e);
        let at = e.into_bytes().len();
        let mut bad_access = good.clone();
        bad_access[at] = 7;
        assert!(built().load(&mut Dec::new(&bad_access)).is_err());
        let mut dead_stream = vec![0u8; 4];
        dead_stream.extend_from_slice(&good[at..]);
        assert!(built().load(&mut Dec::new(&dead_stream)).is_err());
    }

    #[test]
    fn quiescent_only_when_nothing_owed() {
        let mut mac = CsmaMac::new(MacConfig::dot11b(&lucent_11m()), MacAddr(1), 1);
        assert!(mac.is_quiescent());
        // A received data frame leaves an ACK owed until it is sent.
        let data = MacFrame {
            id: FrameId(1),
            src: MacAddr(2),
            dst: MacAddr(1),
            payload_bytes: 64,
            kind: FrameKind::Data,
            seq: 0,
            tag: 0,
        };
        let mut out = Vec::new();
        mac.handle(SimTime::ZERO, MacEvent::RxFrame(data), &mut out);
        assert!(!mac.is_quiescent(), "ACK owed after SIFS");
        mac.handle(SimTime::ZERO, MacEvent::Timer(MacTimer::SifsAck), &mut out);
        assert!(!mac.is_quiescent(), "ACK on the air");
        mac.handle(SimTime::ZERO, MacEvent::TxFinished, &mut out);
        assert!(mac.is_quiescent(), "all debts paid");
    }

    #[test]
    fn queued_frame_blocks_quiescence() {
        let mut mac = CsmaMac::new(MacConfig::dot11b(&lucent_11m()), MacAddr(1), 2);
        let f = mac.make_data(MacAddr(2), 128, 0);
        let mut out = Vec::new();
        mac.handle(SimTime::ZERO, MacEvent::Enqueue(f), &mut out);
        assert!(!mac.is_quiescent());
    }
}
