//! Protocol parameters.

use bcp_analysis::model::DualRadioLink;
use bcp_sim::time::SimDuration;

/// Tunable parameters of BCP.
///
/// The central knob is [`threshold_bytes`](BcpConfig::threshold_bytes) —
/// the `α·s*` buffering threshold of Section 3 ("a node buffers data until
/// it reaches α times the break-even point"). The paper sweeps it directly
/// in packets (burst sizes 10–2500 × 32 B), and recommends "10 K based on
/// our analysis" when the radio characteristics are unknown.
#[derive(Debug, Clone, PartialEq)]
pub struct BcpConfig {
    /// Buffered bytes per next hop that trigger a wake-up handshake (α·s*).
    pub threshold_bytes: usize,
    /// Payload capacity of one high-radio frame (1024 B in the paper).
    pub frame_payload: usize,
    /// Total buffering capacity in bytes (5000 × 32 B in the paper).
    pub buffer_cap_bytes: usize,
    /// How long the sender waits for a wake-up ack before resending
    /// ("If the sender times out before receiving an ack, a wake-up message
    /// is resent to the receiver").
    pub wakeup_ack_timeout: SimDuration,
    /// Total wake-up attempts before the handshake is abandoned.
    pub wakeup_attempts: u32,
    /// Receiver-side patience for the first/next data frame ("To avoid
    /// waiting for the sender data indefinitely, the receiver times out and
    /// turns its high-power radio off").
    pub receiver_data_timeout: SimDuration,
    /// Upper bound on one burst (drains at most this much per handshake).
    pub max_burst_bytes: usize,
    /// Delay-constrained fallback (the paper's Section 5 future work):
    /// packets older than this are sent immediately over the low-power
    /// radio instead of waiting for the burst threshold. `None` = pure BCP.
    pub delay_bound: Option<SimDuration>,
    /// Abort the handshake when the receiver grants less than this many
    /// bytes (the paper: "if this data size is less than s*, the sender
    /// might give up sending. However, this extension is not evaluated").
    pub min_grant_bytes: usize,
}

impl BcpConfig {
    /// The paper's defaults: 10 KB threshold (the "rule of thumb"), 1024 B
    /// high-radio frames, 5000×32 B of buffer, 500 ms handshake timeout
    /// with 3 attempts, 1 s receiver patience, 80 KB burst cap.
    pub fn paper_defaults() -> Self {
        BcpConfig {
            threshold_bytes: 10 * 1024,
            frame_payload: 1024,
            buffer_cap_bytes: 5000 * 32,
            wakeup_ack_timeout: SimDuration::from_millis(500),
            wakeup_attempts: 3,
            receiver_data_timeout: SimDuration::from_secs(1),
            max_burst_bytes: 80 * 1024,
            delay_bound: None,
            min_grant_bytes: 0,
        }
    }

    /// Enables the delay-constrained low-radio fallback.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn with_delay_bound(mut self, bound: SimDuration) -> Self {
        assert!(!bound.is_zero(), "delay bound must be positive");
        self.delay_bound = Some(bound);
        self
    }

    /// Gives up handshakes whose grant is below `bytes`.
    pub fn with_min_grant(mut self, bytes: usize) -> Self {
        self.min_grant_bytes = bytes;
        self
    }

    /// Threshold expressed as the paper's burst-size sweep parameter:
    /// `n` sensor packets of `pkt_bytes` each (e.g. `500 × 32 B`).
    ///
    /// # Panics
    ///
    /// Panics if either argument is zero.
    pub fn with_burst_packets(mut self, n: usize, pkt_bytes: usize) -> Self {
        assert!(n > 0 && pkt_bytes > 0, "burst must be positive");
        self.threshold_bytes = n * pkt_bytes;
        self
    }

    /// Threshold computed as `α · s*` from the radio profiles — the
    /// protocol's analytical mode ("to calculate s*, it is necessary to
    /// know the energy characteristics of both radios"). Falls back to the
    /// paper's 10 KB rule of thumb when the pairing has no break-even.
    ///
    /// # Panics
    ///
    /// Panics unless `alpha > 0`.
    pub fn with_breakeven_threshold(mut self, link: &DualRadioLink, alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha.is_finite(), "invalid alpha {alpha}");
        self.threshold_bytes = match link.break_even_bytes() {
            Some(s_star) => (alpha * s_star).ceil() as usize,
            None => 10 * 1024,
        };
        self
    }

    /// Validates internal consistency (call after manual field edits).
    ///
    /// # Panics
    ///
    /// Panics if any invariant is violated; the messages name the field.
    pub fn validate(&self) {
        assert!(self.threshold_bytes > 0, "threshold_bytes must be positive");
        assert!(self.frame_payload > 0, "frame_payload must be positive");
        assert!(
            self.buffer_cap_bytes >= self.threshold_bytes,
            "buffer smaller than threshold can never trigger a burst"
        );
        assert!(self.wakeup_attempts >= 1, "need at least one wake-up try");
        assert!(
            self.max_burst_bytes >= self.frame_payload,
            "burst cap below one frame"
        );
        assert!(
            !self.wakeup_ack_timeout.is_zero() && !self.receiver_data_timeout.is_zero(),
            "timeouts must be positive"
        );
    }
}

impl Default for BcpConfig {
    fn default() -> Self {
        Self::paper_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcp_radio::profile::{cabletron, lucent_11m, micaz};

    #[test]
    fn paper_defaults_validate() {
        BcpConfig::paper_defaults().validate();
    }

    #[test]
    fn burst_packets_sets_threshold() {
        let c = BcpConfig::paper_defaults().with_burst_packets(500, 32);
        assert_eq!(c.threshold_bytes, 16_000);
        c.validate();
    }

    #[test]
    fn breakeven_threshold_scales_with_alpha() {
        let link = DualRadioLink::new(micaz(), lucent_11m());
        let c1 = BcpConfig::paper_defaults().with_breakeven_threshold(&link, 1.0);
        let c3 = BcpConfig::paper_defaults().with_breakeven_threshold(&link, 3.0);
        assert!(c3.threshold_bytes >= 3 * c1.threshold_bytes - 3);
        assert!(c1.threshold_bytes < 1024, "s* below 1 KB for this pairing");
    }

    #[test]
    fn infeasible_pairing_falls_back_to_rule_of_thumb() {
        let link = DualRadioLink::new(micaz(), cabletron());
        let c = BcpConfig::paper_defaults().with_breakeven_threshold(&link, 2.0);
        assert_eq!(c.threshold_bytes, 10 * 1024, "paper's 10 K rule of thumb");
    }

    #[test]
    #[should_panic(expected = "buffer smaller than threshold")]
    fn validate_rejects_buffer_below_threshold() {
        let mut c = BcpConfig::paper_defaults();
        c.buffer_cap_bytes = c.threshold_bytes - 1;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "invalid alpha")]
    fn zero_alpha_rejected() {
        let link = DualRadioLink::new(micaz(), lucent_11m());
        let _ = BcpConfig::paper_defaults().with_breakeven_threshold(&link, 0.0);
    }
}
