//! Unit-safe power and energy quantities.
//!
//! The paper's Table 1 is given in milliwatts and millijoules; all internal
//! arithmetic here is in SI base units (watts, joules) wrapped in newtypes so
//! that a power can never be mistaken for an energy.

use bcp_sim::persist::{Dec, DecodeError, Enc, Persist};
use bcp_sim::time::SimDuration;
use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub};

/// Electrical power in watts.
///
/// # Examples
///
/// ```
/// use bcp_radio::units::Power;
/// use bcp_sim::time::SimDuration;
///
/// let p = Power::from_milliwatts(51.0); // MicaZ transmit power
/// let e = p * SimDuration::from_millis(10);
/// assert!((e.as_millijoules() - 0.51).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Power(f64);

/// Energy in joules.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Energy(f64);

/// A finite, non-negative amount in its base unit: the precondition
/// of the [`Power`] and [`Energy`] constructors.
fn load_amount(d: &mut Dec<'_>, unit: &str) -> Result<f64, DecodeError> {
    let v: f64 = d.read()?;
    if !v.is_finite() || v < 0.0 {
        return Err(DecodeError::new(format!("invalid amount {v} {unit}")));
    }
    Ok(v)
}

impl Persist for Power {
    fn save(&self, e: &mut Enc) {
        self.0.save(e);
    }
    fn load(&mut self, d: &mut Dec<'_>) -> Result<(), DecodeError> {
        self.0 = load_amount(d, "W")?;
        Ok(())
    }
}

impl Persist for Energy {
    fn save(&self, e: &mut Enc) {
        self.0.save(e);
    }
    fn load(&mut self, d: &mut Dec<'_>) -> Result<(), DecodeError> {
        self.0 = load_amount(d, "J")?;
        Ok(())
    }
}

impl Power {
    /// Zero watts.
    pub const ZERO: Power = Power(0.0);

    /// Creates a power from watts.
    ///
    /// # Panics
    ///
    /// Panics if `w` is negative or not finite.
    pub fn from_watts(w: f64) -> Self {
        assert!(w.is_finite() && w >= 0.0, "invalid power {w} W");
        Power(w)
    }

    /// Creates a power from milliwatts (the unit of the paper's Table 1).
    pub fn from_milliwatts(mw: f64) -> Self {
        Power::from_watts(mw / 1e3)
    }

    /// This power in watts.
    pub fn as_watts(self) -> f64 {
        self.0
    }

    /// This power in milliwatts.
    pub fn as_milliwatts(self) -> f64 {
        self.0 * 1e3
    }

    /// Energy dissipated at this power over fractional `secs`.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn energy_over_secs(self, secs: f64) -> Energy {
        assert!(secs.is_finite() && secs >= 0.0, "invalid duration {secs} s");
        Energy(self.0 * secs)
    }
}

impl Energy {
    /// Zero joules.
    pub const ZERO: Energy = Energy(0.0);

    /// Creates an energy from joules.
    ///
    /// # Panics
    ///
    /// Panics if `j` is negative or not finite.
    pub fn from_joules(j: f64) -> Self {
        assert!(j.is_finite() && j >= 0.0, "invalid energy {j} J");
        Energy(j)
    }

    /// Creates an energy from millijoules (the unit of the paper's Table 1).
    pub fn from_millijoules(mj: f64) -> Self {
        Energy::from_joules(mj / 1e3)
    }

    /// Creates an energy from microjoules (the unit of the paper's Figs.
    /// 11–12).
    pub fn from_microjoules(uj: f64) -> Self {
        Energy::from_joules(uj / 1e6)
    }

    /// This energy in joules.
    pub fn as_joules(self) -> f64 {
        self.0
    }

    /// This energy in millijoules.
    pub fn as_millijoules(self) -> f64 {
        self.0 * 1e3
    }

    /// This energy in microjoules.
    pub fn as_microjoules(self) -> f64 {
        self.0 * 1e6
    }

    /// Scales the energy by a non-negative factor.
    ///
    /// # Panics
    ///
    /// Panics if `k` is negative or not finite.
    pub fn scaled(self, k: f64) -> Energy {
        assert!(k.is_finite() && k >= 0.0, "invalid scale {k}");
        Energy(self.0 * k)
    }

    /// Saturating subtraction: returns zero instead of a negative energy.
    pub fn saturating_sub(self, other: Energy) -> Energy {
        Energy((self.0 - other.0).max(0.0))
    }
}

impl Mul<SimDuration> for Power {
    type Output = Energy;
    fn mul(self, d: SimDuration) -> Energy {
        Energy(self.0 * d.as_secs_f64())
    }
}

impl Mul<Power> for SimDuration {
    type Output = Energy;
    fn mul(self, p: Power) -> Energy {
        p * self
    }
}

impl Add for Energy {
    type Output = Energy;
    fn add(self, rhs: Energy) -> Energy {
        Energy(self.0 + rhs.0)
    }
}

impl AddAssign for Energy {
    fn add_assign(&mut self, rhs: Energy) {
        self.0 += rhs.0;
    }
}

impl Sub for Energy {
    type Output = Energy;
    /// # Panics
    ///
    /// Panics if the result would be negative; use
    /// [`Energy::saturating_sub`] when that is expected.
    fn sub(self, rhs: Energy) -> Energy {
        Energy::from_joules(self.0 - rhs.0)
    }
}

impl Sum for Energy {
    fn sum<I: Iterator<Item = Energy>>(iter: I) -> Energy {
        iter.fold(Energy::ZERO, |a, b| a + b)
    }
}

impl Div<Energy> for Energy {
    type Output = f64;
    fn div(self, rhs: Energy) -> f64 {
        self.0 / rhs.0
    }
}

impl Add for Power {
    type Output = Power;
    fn add(self, rhs: Power) -> Power {
        Power(self.0 + rhs.0)
    }
}

impl fmt::Display for Power {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} mW", self.as_milliwatts())
    }
}

impl fmt::Display for Energy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1e-3 {
            write!(f, "{:.4} mJ", self.as_millijoules())
        } else {
            write!(f, "{:.3} uJ", self.as_microjoules())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_times_duration_is_energy() {
        let e = Power::from_watts(2.0) * SimDuration::from_millis(500);
        assert!((e.as_joules() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn table1_units_roundtrip() {
        let p = Power::from_milliwatts(1400.0); // Cabletron Ptx
        assert!((p.as_watts() - 1.4).abs() < 1e-12);
        let e = Energy::from_millijoules(1.328); // Cabletron Ewakeup
        assert!((e.as_joules() - 0.001328).abs() < 1e-15);
    }

    #[test]
    fn energy_sum_and_scale() {
        let total: Energy = [1.0, 2.0, 3.0].into_iter().map(Energy::from_joules).sum();
        assert_eq!(total.as_joules(), 6.0);
        assert_eq!(total.scaled(0.5).as_joules(), 3.0);
    }

    #[test]
    fn saturating_sub_floors_at_zero() {
        let a = Energy::from_joules(1.0);
        let b = Energy::from_joules(2.0);
        assert_eq!(a.saturating_sub(b), Energy::ZERO);
        assert_eq!(b.saturating_sub(a).as_joules(), 1.0);
    }

    #[test]
    #[should_panic(expected = "invalid energy")]
    fn sub_panics_on_negative() {
        let _ = Energy::from_joules(1.0) - Energy::from_joules(2.0);
    }

    #[test]
    #[should_panic(expected = "invalid power")]
    fn negative_power_rejected() {
        let _ = Power::from_watts(-1.0);
    }

    #[test]
    fn ratio_of_energies() {
        let a = Energy::from_joules(3.0);
        let b = Energy::from_joules(6.0);
        assert_eq!(a / b, 0.5);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Power::from_milliwatts(51.0).to_string(), "51.000 mW");
        assert_eq!(Energy::from_millijoules(1.5).to_string(), "1.5000 mJ");
        assert_eq!(Energy::from_microjoules(120.0).to_string(), "120.000 uJ");
    }
}
