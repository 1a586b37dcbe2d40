//! Coupling a battery to an energy meter.
//!
//! A node's radios meter their consumption in cumulative
//! [`EnergyLedger`](bcp_radio::energy::EnergyLedger) totals; a
//! [`PowerSupply`] turns those monotone totals into battery drain by
//! syncing: every call to [`PowerSupply::sync_to`] drains exactly the
//! energy metered since the previous sync. Because radio power draw is
//! piecewise constant between events, the projected depletion instant
//! ([`PowerSupply::time_to_depletion`]) is exact, which is what lets the
//! simulator schedule node death as a first-class event rather than
//! polling.

use crate::battery::{Battery, BatteryModel};
use bcp_radio::units::{Energy, Power};
use bcp_sim::persist::{Dec, DecodeError, Enc, Persist};
use bcp_sim::time::SimDuration;

/// A battery plus the bookkeeping tying it to cumulative meter readings.
///
/// # Examples
///
/// ```
/// use bcp_power::battery::{Battery, BatteryModel};
/// use bcp_power::supply::PowerSupply;
/// use bcp_radio::units::{Energy, Power};
///
/// let mut s = PowerSupply::new(Battery::ideal_joules(1.0));
/// // The meter reads 0.4 J total: the battery drains 0.4 J.
/// s.sync_to(Energy::from_joules(0.4));
/// assert!((s.battery().remaining().as_joules() - 0.6).abs() < 1e-12);
/// // At a 0.1 W draw the supply lasts six more seconds.
/// let t = s.time_to_depletion(Power::from_watts(0.1)).unwrap();
/// assert!((t.as_secs_f64() - 6.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PowerSupply {
    battery: Battery,
    synced: Energy,
}

impl PowerSupply {
    /// Wraps a full battery; the meter is assumed to start at zero.
    pub fn new(battery: Battery) -> Self {
        PowerSupply {
            battery,
            synced: Energy::ZERO,
        }
    }

    /// The battery behind this supply.
    pub fn battery(&self) -> &Battery {
        &self.battery
    }

    /// Drains the battery by whatever the meter accumulated since the last
    /// sync (`metered_total` is cumulative and must not regress).
    ///
    /// # Panics
    ///
    /// Panics if `metered_total` is lower than a previously synced reading —
    /// energy meters only count up.
    pub fn sync_to(&mut self, metered_total: Energy) {
        assert!(
            metered_total >= self.synced,
            "energy meter regressed: {metered_total} < {}",
            self.synced
        );
        let delta = metered_total.saturating_sub(self.synced);
        self.battery.drain(delta);
        self.synced = metered_total;
    }

    /// The cumulative meter reading the battery was last synced to, for
    /// exact checkpointing alongside [`Battery::drawn`].
    ///
    /// [`Battery::drawn`]: crate::battery::BatteryModel::drawn
    pub fn synced(&self) -> Energy {
        self.synced
    }

    /// `true` once the battery can supply nothing more *at the synced
    /// reading* — callers decide when to sync.
    pub fn is_depleted(&self) -> bool {
        self.battery.is_depleted()
    }

    /// Treats anything the present `draw` would consume within one
    /// nanosecond (the simulator's clock tick) as depletion, absorbing the
    /// rounding of projected death instants to the tick grid.
    pub fn is_depleted_at(&self, draw: Power) -> bool {
        self.battery.remaining().as_joules() <= draw.as_watts() * 1e-9 + f64::EPSILON
    }

    /// How long the remaining energy lasts at a constant `draw`; `None`
    /// when the draw is zero (the supply outlives any horizon).
    pub fn time_to_depletion(&self, draw: Power) -> Option<SimDuration> {
        let w = draw.as_watts();
        if w <= 0.0 {
            return None;
        }
        let secs = self.battery.remaining().as_joules() / w;
        // Round *up* to the next tick so the depletion event never fires
        // while a sliver of charge is still mathematically left.
        Some(SimDuration::from_nanos((secs * 1e9).ceil() as u64))
    }
}

/// The battery's drawn tally, then the synced meter reading. Both are
/// path-dependent floating-point sums, so they load verbatim rather than
/// being replayed; the battery model is configuration.
impl Persist for PowerSupply {
    fn save(&self, e: &mut Enc) {
        (self.battery.drawn(), self.synced).save(e);
    }
    fn load(&mut self, d: &mut Dec<'_>) -> Result<(), DecodeError> {
        let (drawn, synced): (Energy, Energy) = d.read()?;
        if drawn > self.battery.capacity() {
            return Err(DecodeError::new(format!(
                "a battery drew {drawn} of {}",
                self.battery.capacity()
            )));
        }
        self.battery.set_drawn(drawn);
        self.synced = synced;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sync_drains_deltas_not_totals() {
        let mut s = PowerSupply::new(Battery::ideal_joules(10.0));
        s.sync_to(Energy::from_joules(3.0));
        s.sync_to(Energy::from_joules(3.0)); // no-op
        s.sync_to(Energy::from_joules(7.0));
        assert!((s.battery().drawn().as_joules() - 7.0).abs() < 1e-12);
        assert!(!s.is_depleted());
        s.sync_to(Energy::from_joules(12.0)); // clamped at capacity
        assert!(s.is_depleted());
        assert_eq!(s.battery().drawn(), s.battery().capacity());
    }

    #[test]
    #[should_panic(expected = "energy meter regressed")]
    fn regressing_meter_panics() {
        let mut s = PowerSupply::new(Battery::ideal_joules(1.0));
        s.sync_to(Energy::from_joules(0.5));
        s.sync_to(Energy::from_joules(0.4));
    }

    #[test]
    fn depletion_projection_rounds_up() {
        let s = PowerSupply::new(Battery::ideal_joules(1.0));
        let t = s.time_to_depletion(Power::from_watts(3.0)).unwrap();
        // 1/3 s rounds up to the next nanosecond.
        assert!(t.as_secs_f64() >= 1.0 / 3.0);
        assert!(t.as_secs_f64() - 1.0 / 3.0 < 1e-8);
        assert!(s.time_to_depletion(Power::ZERO).is_none());
    }

    #[test]
    fn tick_epsilon_depletion() {
        let mut s = PowerSupply::new(Battery::ideal_joules(1.0));
        let cap = Energy::from_joules(1.0);
        // Drain to within a fraction of a nanosecond-tick of the capacity.
        s.sync_to(cap.saturating_sub(Energy::from_joules(1e-12)));
        assert!(!s.is_depleted(), "strictly, charge remains");
        assert!(
            s.is_depleted_at(Power::from_watts(1.0)),
            "but a 1 W draw empties it within a tick"
        );
    }
}
