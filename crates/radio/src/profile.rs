//! Radio energy/timing profiles, including the paper's Table 1.
//!
//! A [`RadioProfile`] bundles everything the analysis and the simulator need
//! to know about a radio: bit rate, per-state power draw, wake-up cost,
//! transmission range and framing overhead.
//!
//! ## Table 1 of the paper (mW, mJ)
//!
//! | Radio          | Rate      | Ptx    | Prx   | Pidle | Ewakeup |
//! |----------------|-----------|--------|-------|-------|---------|
//! | Cabletron      | 2 Mbps    | 1400   | 1000  | 830   | 1.328   |
//! | Lucent 2 Mbps  | 2 Mbps    | 1327.2 | 966.9 | 843.7 | 0.6     |
//! | Lucent 11 Mbps | 11 Mbps   | 1346.1 | 900.6 | 739.4 | 0.6     |
//! | Mica           | 40 Kbps   | 81     | 30    | 30    | —       |
//! | Mica2          | 38.4 Kbps | 42     | 29    | N/A   | —       |
//! | MicaZ          | 250 Kbps  | 51     | 59.1  | N/A   | —       |
//!
//! Where the paper lists "N/A" for idle power we follow common practice for
//! these transceivers and set idle = receive power (the radio listens while
//! idle). Wake-up *time* is not in Table 1; it is derived as
//! `Ewakeup / Pidle` which keeps the energy model exactly consistent with
//! the paper's Eq. (2), and may be overridden.

use crate::units::{Energy, Power};
use bcp_sim::time::SimDuration;

/// The class of a radio in a dual-radio platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RadioClass {
    /// Low-power, low-rate sensor radio (Mica/Mica2/MicaZ/CC2420 class).
    LowPower,
    /// High-power, high-rate radio (IEEE 802.11 class).
    HighPower,
}

/// Static energy/timing/range characteristics of one radio.
#[derive(Debug, Clone, PartialEq)]
pub struct RadioProfile {
    /// Human-readable name (e.g. `"Lucent (11Mbps)"`).
    pub name: &'static str,
    /// Which side of a dual-radio platform this radio plays.
    pub class: RadioClass,
    /// Link bit rate in bits per second.
    pub bit_rate_bps: f64,
    /// Transmit power draw.
    pub p_tx: Power,
    /// Receive power draw.
    pub p_rx: Power,
    /// Idle (listening) power draw.
    pub p_idle: Power,
    /// Sleep power draw (doze with the clock running).
    pub p_sleep: Power,
    /// Energy of one off→on transition (`E_wakeup` in the paper, per radio).
    pub e_wakeup: Energy,
    /// Duration of one off→on transition.
    pub t_wakeup: SimDuration,
    /// Nominal transmission range in metres.
    pub range_m: f64,
    /// Largest payload one link-layer frame can carry, in bytes.
    pub max_payload: usize,
    /// Per-frame header overhead sent at `bit_rate_bps`, in bytes.
    pub header_bytes: usize,
    /// Fixed-duration per-frame preamble (the 802.11 PLCP preamble+header is
    /// always sent at 1 Mbps, i.e. 192 µs regardless of the data rate).
    pub preamble: SimDuration,
    /// Transmit power at the antenna, dBm (datasheet value; not a draw).
    pub tx_power_dbm: f64,
    /// Receive sensitivity, dBm: the weakest signal the demodulator can
    /// decode at this bit rate in a clean channel.
    pub rx_sensitivity_dbm: f64,
    /// Thermal-plus-front-end noise floor, dBm. A frame below this level is
    /// inaudible — it neither decodes nor interferes.
    pub noise_floor_dbm: f64,
}

impl RadioProfile {
    /// Airtime of a frame carrying `payload` bytes (header included).
    ///
    /// # Panics
    ///
    /// Panics if `payload` exceeds [`max_payload`](Self::max_payload).
    pub fn frame_airtime(&self, payload: usize) -> SimDuration {
        assert!(
            payload <= self.max_payload,
            "{}: payload {payload} B exceeds frame limit {} B",
            self.name,
            self.max_payload
        );
        SimDuration::bit_airtime(
            ((payload + self.header_bytes) * 8) as u64,
            self.bit_rate_bps,
        ) + self.preamble
    }

    /// Airtime of a standalone control frame of `bytes` (e.g. a link ACK):
    /// preamble plus the bytes at the data rate, with no payload header.
    pub fn control_airtime(&self, bytes: usize) -> SimDuration {
        SimDuration::bit_airtime((bytes * 8) as u64, self.bit_rate_bps) + self.preamble
    }

    /// Energy to *transmit* a frame carrying `payload` bytes.
    pub fn tx_energy(&self, payload: usize) -> Energy {
        self.p_tx * self.frame_airtime(payload)
    }

    /// Energy to *receive* a frame carrying `payload` bytes.
    pub fn rx_energy(&self, payload: usize) -> Energy {
        self.p_rx * self.frame_airtime(payload)
    }

    /// Combined sender+receiver energy for one frame — the
    /// `(Ptx + Prx)/R · (ps + hs)` term of Eqs. (1) and (2).
    pub fn link_energy(&self, payload: usize) -> Energy {
        self.tx_energy(payload) + self.rx_energy(payload)
    }

    /// Energy per *payload* bit when streaming full frames (includes header
    /// overhead), counting both ends of the link.
    pub fn energy_per_payload_bit(&self) -> Energy {
        self.link_energy(self.max_payload)
            .scaled(1.0 / (self.max_payload as f64 * 8.0))
    }

    /// Number of frames needed for `bytes` of payload.
    pub fn frames_for(&self, bytes: usize) -> usize {
        bytes.div_ceil(self.max_payload).max(1)
    }

    /// Returns a copy with a different wake-up energy/time (for sensitivity
    /// sweeps).
    pub fn with_wakeup(mut self, e_wakeup: Energy, t_wakeup: SimDuration) -> Self {
        self.e_wakeup = e_wakeup;
        self.t_wakeup = t_wakeup;
        self
    }

    /// Returns a copy with a different range (the paper shrinks the Lucent
    /// 11 Mbps range to the sensor radio's 40 m).
    pub fn with_range(mut self, range_m: f64) -> Self {
        self.range_m = range_m;
        self
    }

    /// Returns a copy with different framing parameters.
    pub fn with_framing(mut self, max_payload: usize, header_bytes: usize) -> Self {
        assert!(max_payload > 0, "max_payload must be positive");
        self.max_payload = max_payload;
        self.header_bytes = header_bytes;
        self
    }

    /// Returns a copy with a different link budget (for what-if sweeps).
    ///
    /// # Panics
    ///
    /// Panics unless `tx > sensitivity > noise floor` — the received-power
    /// channel calibrates path loss from the tx−sensitivity headroom and
    /// treats sub-noise frames as inaudible, so a non-monotone budget has
    /// no physical reading.
    pub fn with_link_budget(mut self, tx_dbm: f64, sens_dbm: f64, noise_dbm: f64) -> Self {
        assert!(
            tx_dbm > sens_dbm && sens_dbm > noise_dbm,
            "{}: link budget must satisfy tx ({tx_dbm}) > sensitivity \
             ({sens_dbm}) > noise floor ({noise_dbm}) dBm",
            self.name
        );
        self.tx_power_dbm = tx_dbm;
        self.rx_sensitivity_dbm = sens_dbm;
        self.noise_floor_dbm = noise_dbm;
        self
    }
}

/// Derives the wake-up duration consistent with the paper's energy model:
/// the transition dissipates `e_wakeup` at roughly idle draw.
///
/// A free wake-up takes no time regardless of the idle draw (the mote
/// radios' case). Otherwise the idle power must be strictly positive —
/// dividing by a zero/negative/NaN override would silently produce an
/// `inf`/`NaN` duration and panic much later, inside the time layer.
///
/// # Panics
///
/// Panics when `e_wakeup_mj > 0` but `p_idle_mw` is not strictly positive.
fn wakeup_time(e_wakeup_mj: f64, p_idle_mw: f64) -> SimDuration {
    if e_wakeup_mj <= 0.0 {
        return SimDuration::ZERO;
    }
    assert!(
        p_idle_mw > 0.0,
        "wakeup_time: cannot derive a wake-up duration from idle power \
         {p_idle_mw} mW (must be > 0 when e_wakeup = {e_wakeup_mj} mJ)"
    );
    SimDuration::from_secs_f64(e_wakeup_mj / p_idle_mw)
}

/// IEEE 802.11 MAC header (34 B) + LLC/SNAP (8 B), sent at the data rate.
pub const DOT11_HEADER_BYTES: usize = 42;
/// The 802.11 long PLCP preamble + PLCP header: 192 bits at 1 Mbps.
pub const DOT11_PLCP: SimDuration = SimDuration::from_micros(192);
/// 802.11 data frames in the paper carry 1024 B.
pub const DOT11_PAYLOAD_BYTES: usize = 1024;
/// Sensor-radio frames in the paper carry 32 B.
pub const SENSOR_PAYLOAD_BYTES: usize = 32;
/// TinyOS-style preamble+sync+MAC header for mote radios (≈11 B).
pub const SENSOR_HEADER_BYTES: usize = 11;
/// Nominal sensor radio range used throughout the paper (m).
pub const SENSOR_RANGE_M: f64 = 40.0;
/// Nominal 802.11 range used throughout the paper (m).
pub const DOT11_RANGE_M: f64 = 250.0;

/// Cabletron RoamAbout, 2 Mbps (Table 1, row 1).
pub fn cabletron() -> RadioProfile {
    RadioProfile {
        name: "Cabletron",
        class: RadioClass::HighPower,
        bit_rate_bps: 2e6,
        p_tx: Power::from_milliwatts(1400.0),
        p_rx: Power::from_milliwatts(1000.0),
        p_idle: Power::from_milliwatts(830.0),
        p_sleep: Power::from_milliwatts(50.0),
        e_wakeup: Energy::from_millijoules(1.328),
        t_wakeup: wakeup_time(1.328, 830.0),
        range_m: DOT11_RANGE_M,
        max_payload: DOT11_PAYLOAD_BYTES,
        header_bytes: DOT11_HEADER_BYTES,
        preamble: DOT11_PLCP,
        tx_power_dbm: 15.0,
        rx_sensitivity_dbm: -83.0,
        noise_floor_dbm: -96.0,
    }
}

/// Lucent WaveLAN, 2 Mbps (Table 1, row 2).
pub fn lucent_2m() -> RadioProfile {
    RadioProfile {
        name: "Lucent (2Mbps)",
        class: RadioClass::HighPower,
        bit_rate_bps: 2e6,
        p_tx: Power::from_milliwatts(1327.2),
        p_rx: Power::from_milliwatts(966.9),
        p_idle: Power::from_milliwatts(843.7),
        p_sleep: Power::from_milliwatts(50.0),
        e_wakeup: Energy::from_millijoules(0.6),
        t_wakeup: wakeup_time(0.6, 843.7),
        range_m: DOT11_RANGE_M,
        max_payload: DOT11_PAYLOAD_BYTES,
        header_bytes: DOT11_HEADER_BYTES,
        preamble: DOT11_PLCP,
        tx_power_dbm: 15.0,
        rx_sensitivity_dbm: -83.0,
        noise_floor_dbm: -96.0,
    }
}

/// Lucent WaveLAN, 11 Mbps (Table 1, row 3).
///
/// The paper assumes this higher-rate card has the *same range as the sensor
/// radio* (rate–range trade-off), so `range_m` is 40 m here.
pub fn lucent_11m() -> RadioProfile {
    RadioProfile {
        name: "Lucent (11Mbps)",
        class: RadioClass::HighPower,
        bit_rate_bps: 11e6,
        p_tx: Power::from_milliwatts(1346.1),
        p_rx: Power::from_milliwatts(900.6),
        p_idle: Power::from_milliwatts(739.4),
        p_sleep: Power::from_milliwatts(50.0),
        e_wakeup: Energy::from_millijoules(0.6),
        t_wakeup: wakeup_time(0.6, 739.4),
        range_m: SENSOR_RANGE_M,
        max_payload: DOT11_PAYLOAD_BYTES,
        header_bytes: DOT11_HEADER_BYTES,
        preamble: DOT11_PLCP,
        tx_power_dbm: 15.0,
        rx_sensitivity_dbm: -76.0,
        noise_floor_dbm: -96.0,
    }
}

/// Mica mote radio (TR1000 class), 40 Kbps (Table 1, row 4).
pub fn mica() -> RadioProfile {
    RadioProfile {
        name: "Mica",
        class: RadioClass::LowPower,
        bit_rate_bps: 40e3,
        p_tx: Power::from_milliwatts(81.0),
        p_rx: Power::from_milliwatts(30.0),
        p_idle: Power::from_milliwatts(30.0),
        p_sleep: Power::from_milliwatts(0.03),
        e_wakeup: Energy::ZERO,
        t_wakeup: SimDuration::ZERO,
        range_m: SENSOR_RANGE_M,
        max_payload: SENSOR_PAYLOAD_BYTES,
        header_bytes: SENSOR_HEADER_BYTES,
        preamble: SimDuration::ZERO,
        tx_power_dbm: 0.0,
        rx_sensitivity_dbm: -98.0,
        noise_floor_dbm: -111.0,
    }
}

/// Mica2 mote radio (CC1000), 38.4 Kbps (Table 1, row 5). Idle listed "N/A"
/// in the paper; set to receive power.
pub fn mica2() -> RadioProfile {
    RadioProfile {
        name: "Mica2",
        class: RadioClass::LowPower,
        bit_rate_bps: 38.4e3,
        p_tx: Power::from_milliwatts(42.0),
        p_rx: Power::from_milliwatts(29.0),
        p_idle: Power::from_milliwatts(29.0),
        p_sleep: Power::from_milliwatts(0.03),
        e_wakeup: Energy::ZERO,
        t_wakeup: SimDuration::ZERO,
        range_m: SENSOR_RANGE_M,
        max_payload: SENSOR_PAYLOAD_BYTES,
        header_bytes: SENSOR_HEADER_BYTES,
        preamble: SimDuration::ZERO,
        tx_power_dbm: 0.0,
        rx_sensitivity_dbm: -98.0,
        noise_floor_dbm: -111.0,
    }
}

/// MicaZ mote radio (CC2420), 250 Kbps (Table 1, row 6). Idle listed "N/A";
/// set to receive power.
pub fn micaz() -> RadioProfile {
    RadioProfile {
        name: "Micaz",
        class: RadioClass::LowPower,
        bit_rate_bps: 250e3,
        p_tx: Power::from_milliwatts(51.0),
        p_rx: Power::from_milliwatts(59.1),
        p_idle: Power::from_milliwatts(59.1),
        p_sleep: Power::from_milliwatts(0.06),
        e_wakeup: Energy::ZERO,
        t_wakeup: SimDuration::ZERO,
        range_m: SENSOR_RANGE_M,
        max_payload: SENSOR_PAYLOAD_BYTES,
        header_bytes: SENSOR_HEADER_BYTES,
        preamble: SimDuration::ZERO,
        tx_power_dbm: 0.0,
        rx_sensitivity_dbm: -94.0,
        noise_floor_dbm: -105.0,
    }
}

/// CC2420 as on the Tmote Sky (datasheet: 17.4 mA TX at 0 dBm, 18.8 mA RX at
/// 3 V) — the radio of the paper's prototype (Section 4.2).
pub fn cc2420() -> RadioProfile {
    RadioProfile {
        name: "CC2420 (Tmote Sky)",
        class: RadioClass::LowPower,
        bit_rate_bps: 250e3,
        p_tx: Power::from_milliwatts(52.2),
        p_rx: Power::from_milliwatts(56.4),
        p_idle: Power::from_milliwatts(56.4),
        p_sleep: Power::from_milliwatts(0.06),
        e_wakeup: Energy::ZERO,
        t_wakeup: SimDuration::ZERO,
        range_m: SENSOR_RANGE_M,
        max_payload: SENSOR_PAYLOAD_BYTES,
        header_bytes: SENSOR_HEADER_BYTES,
        preamble: SimDuration::ZERO,
        tx_power_dbm: 0.0,
        rx_sensitivity_dbm: -94.0,
        noise_floor_dbm: -105.0,
    }
}

/// All high-power (802.11) profiles of Table 1, in paper order.
pub fn high_power_profiles() -> Vec<RadioProfile> {
    vec![cabletron(), lucent_2m(), lucent_11m()]
}

/// All low-power (sensor) profiles of Table 1, in paper order.
pub fn low_power_profiles() -> Vec<RadioProfile> {
    vec![mica(), mica2(), micaz()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_values_match_paper() {
        let c = cabletron();
        assert_eq!(c.p_tx.as_milliwatts(), 1400.0);
        assert_eq!(c.p_rx.as_milliwatts(), 1000.0);
        assert_eq!(c.p_idle.as_milliwatts(), 830.0);
        assert!((c.e_wakeup.as_millijoules() - 1.328).abs() < 1e-12);
        let l11 = lucent_11m();
        assert_eq!(l11.bit_rate_bps, 11e6);
        assert_eq!(l11.range_m, SENSOR_RANGE_M, "paper shrinks 11Mbps range");
        let mz = micaz();
        assert_eq!(mz.bit_rate_bps, 250e3);
        assert_eq!(mz.p_rx.as_milliwatts(), 59.1);
    }

    #[test]
    fn frame_airtime_includes_header() {
        let mz = micaz();
        // (32 + 11) B * 8 / 250 kbps = 1.376 ms
        let t = mz.frame_airtime(32);
        assert!((t.as_millis_f64() - 1.376).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "exceeds frame limit")]
    fn oversized_payload_panics() {
        let _ = micaz().frame_airtime(33);
    }

    #[test]
    fn energy_per_payload_bit_ordering() {
        // The paper's core observation: per-bit energy of the 11 Mbps card
        // beats MicaZ, but the 2 Mbps cards do not.
        let mz = micaz().energy_per_payload_bit().as_joules();
        let l11 = lucent_11m().energy_per_payload_bit().as_joules();
        let l2 = lucent_2m().energy_per_payload_bit().as_joules();
        let cab = cabletron().energy_per_payload_bit().as_joules();
        assert!(l11 < mz, "Lucent 11Mbps must beat MicaZ per bit");
        assert!(l2 > mz, "Lucent 2Mbps must lose to MicaZ per bit");
        assert!(cab > mz, "Cabletron must lose to MicaZ per bit");
    }

    #[test]
    fn mica_loses_to_all_dot11_per_bit() {
        // Mica (40 kbps) has such poor per-bit energy that every 802.11 card
        // in Table 1 beats it — that is why Figs. 2-3 include Mica combos.
        let m = mica().energy_per_payload_bit().as_joules();
        for hp in high_power_profiles() {
            assert!(
                hp.energy_per_payload_bit().as_joules() < m,
                "{} should beat Mica per bit",
                hp.name
            );
        }
    }

    #[test]
    fn frames_for_rounds_up() {
        let hp = cabletron();
        assert_eq!(hp.frames_for(1), 1);
        assert_eq!(hp.frames_for(1024), 1);
        assert_eq!(hp.frames_for(1025), 2);
        assert_eq!(hp.frames_for(0), 1, "empty burst still needs a frame");
    }

    #[test]
    fn builders_override() {
        let p = lucent_11m()
            .with_range(100.0)
            .with_framing(512, 64)
            .with_wakeup(Energy::from_millijoules(2.0), SimDuration::from_millis(5));
        assert_eq!(p.range_m, 100.0);
        assert_eq!(p.max_payload, 512);
        assert_eq!(p.header_bytes, 64);
        assert!((p.e_wakeup.as_millijoules() - 2.0).abs() < 1e-12);
        assert_eq!(p.t_wakeup, SimDuration::from_millis(5));
    }

    #[test]
    fn link_budgets_are_monotone() {
        // Every profile must satisfy tx > sensitivity > noise floor: the
        // received-power channel calibrates path loss from the headroom
        // and gates audibility at the noise floor.
        for p in high_power_profiles()
            .into_iter()
            .chain(low_power_profiles())
            .chain([cc2420()])
        {
            assert!(
                p.tx_power_dbm > p.rx_sensitivity_dbm && p.rx_sensitivity_dbm > p.noise_floor_dbm,
                "{}: budget not monotone",
                p.name
            );
            // The SNR margin at sensitivity must clear the 10 dB capture
            // threshold: then an interference-free frame at sensitivity
            // decodes under the SINR rule too, and `phys = logn` with
            // sigma 0 reproduces the disk decodable set exactly.
            assert!(
                p.rx_sensitivity_dbm - p.noise_floor_dbm > 10.0,
                "{}: SNR margin at sensitivity must exceed 10 dB",
                p.name
            );
        }
    }

    #[test]
    fn with_link_budget_overrides() {
        let p = micaz().with_link_budget(5.0, -90.0, -99.0);
        assert_eq!(p.tx_power_dbm, 5.0);
        assert_eq!(p.rx_sensitivity_dbm, -90.0);
        assert_eq!(p.noise_floor_dbm, -99.0);
    }

    #[test]
    #[should_panic(expected = "budget must satisfy")]
    fn inverted_link_budget_panics() {
        let _ = micaz().with_link_budget(-95.0, -94.0, -100.0);
    }

    #[test]
    fn wakeup_time_consistency() {
        // t_wakeup = E/P so that E = P_idle * t_wakeup.
        let c = cabletron();
        let e = c.p_idle * c.t_wakeup;
        assert!((e.as_millijoules() - c.e_wakeup.as_millijoules()).abs() < 1e-6);
    }

    #[test]
    fn free_wakeup_takes_no_time_even_at_zero_idle_power() {
        // The mote radios: no wake-up lump, so the duration is zero no
        // matter what the idle power says (0/0 used to be a silent NaN).
        assert_eq!(wakeup_time(0.0, 0.0), SimDuration::ZERO);
        assert_eq!(wakeup_time(0.0, 59.1), SimDuration::ZERO);
        assert_eq!(wakeup_time(-1.0, -5.0), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "must be > 0")]
    fn costly_wakeup_with_zero_idle_power_panics() {
        // e/0 used to be a silent `inf` that exploded later in the time
        // layer; now it fails here with the offending numbers.
        let _ = wakeup_time(0.6, 0.0);
    }

    #[test]
    #[should_panic(expected = "must be > 0")]
    fn costly_wakeup_with_negative_idle_power_panics() {
        let _ = wakeup_time(0.6, -830.0);
    }
}
