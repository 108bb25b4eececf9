//! Power and energy newtypes.
//!
//! `Watts * Seconds = Joules` is the only way to mint energy in this
//! workspace, which keeps the `Ea ∝ CT` structure of the paper's model
//! visible in the types.

use deep_netsim::Seconds;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// Instantaneous power draw in watts.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Watts(f64);

impl Watts {
    pub const ZERO: Watts = Watts(0.0);

    #[inline]
    pub fn new(v: f64) -> Self {
        assert!(v.is_finite() && v >= 0.0, "power must be finite and non-negative");
        Watts(v)
    }

    #[inline]
    pub fn as_f64(self) -> f64 {
        self.0
    }

    /// Scale by a dimensionless factor (e.g. utilization).
    #[inline]
    pub fn scale(self, factor: f64) -> Watts {
        Watts::new(self.0 * factor)
    }
}

impl Add for Watts {
    type Output = Watts;
    #[inline]
    fn add(self, rhs: Watts) -> Watts {
        Watts(self.0 + rhs.0)
    }
}

impl Mul<Seconds> for Watts {
    type Output = Joules;
    #[inline]
    fn mul(self, rhs: Seconds) -> Joules {
        assert!(rhs.as_f64() >= 0.0, "cannot integrate power over negative time");
        Joules(self.0 * rhs.as_f64())
    }
}

impl fmt::Display for Watts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} W", self.0)
    }
}

/// An amount of energy in joules.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Joules(f64);

impl Joules {
    pub const ZERO: Joules = Joules(0.0);

    #[inline]
    pub fn new(v: f64) -> Self {
        assert!(v.is_finite() && v >= 0.0, "energy must be finite and non-negative");
        Joules(v)
    }

    #[inline]
    pub fn as_f64(self) -> f64 {
        self.0
    }

    #[inline]
    pub fn as_kilojoules(self) -> f64 {
        self.0 / 1e3
    }
}

impl Add for Joules {
    type Output = Joules;
    #[inline]
    fn add(self, rhs: Joules) -> Joules {
        Joules(self.0 + rhs.0)
    }
}

impl AddAssign for Joules {
    #[inline]
    fn add_assign(&mut self, rhs: Joules) {
        self.0 += rhs.0;
    }
}

impl Sub for Joules {
    type Output = Joules;
    #[inline]
    fn sub(self, rhs: Joules) -> Joules {
        assert!(self.0 >= rhs.0, "energy subtraction would go negative");
        Joules(self.0 - rhs.0)
    }
}

impl Sum for Joules {
    fn sum<I: Iterator<Item = Joules>>(iter: I) -> Joules {
        iter.fold(Joules::ZERO, Add::add)
    }
}

impl Mul<f64> for Joules {
    type Output = Joules;
    #[inline]
    fn mul(self, rhs: f64) -> Joules {
        Joules::new(self.0 * rhs)
    }
}

impl Div<Joules> for Joules {
    type Output = f64;
    #[inline]
    fn div(self, rhs: Joules) -> f64 {
        assert!(rhs.0 != 0.0, "division by zero energy");
        self.0 / rhs.0
    }
}

impl fmt::Display for Joules {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1e3 {
            write!(f, "{:.3} kJ", self.0 / 1e3)
        } else {
            write!(f, "{:.2} J", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_times_time_is_energy() {
        let e = Watts::new(65.0) * Seconds::new(10.0);
        assert!((e.as_f64() - 650.0).abs() < 1e-9);
    }

    #[test]
    fn joules_arithmetic() {
        let a = Joules::new(100.0);
        let b = Joules::new(40.0);
        assert_eq!((a + b).as_f64(), 140.0);
        assert_eq!((a - b).as_f64(), 60.0);
        let mut c = a;
        c += b;
        assert_eq!(c.as_f64(), 140.0);
        assert_eq!((a * 0.5).as_f64(), 50.0);
        assert!((a / b - 2.5).abs() < 1e-12);
        let total: Joules = [a, b].into_iter().sum();
        assert_eq!(total.as_f64(), 140.0);
    }

    #[test]
    fn watts_scale_and_add() {
        let w = Watts::new(10.0).scale(0.5) + Watts::new(5.0);
        assert!((w.as_f64() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Joules::new(856.0)), "856.00 J");
        assert_eq!(format!("{}", Joules::new(3264.0)), "3.264 kJ");
        assert_eq!(format!("{}", Watts::new(4.5)), "4.50 W");
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn negative_power_rejected() {
        Watts::new(-1.0);
    }

    #[test]
    #[should_panic(expected = "go negative")]
    fn energy_underflow_rejected() {
        let _ = Joules::new(1.0) - Joules::new(2.0);
    }

    #[test]
    fn kilojoules_conversion() {
        assert!((Joules::new(5300.0).as_kilojoules() - 5.3).abs() < 1e-12);
    }
}
