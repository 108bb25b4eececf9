//! Compute units: millions of instructions and MI per second.
//!
//! The paper measures a microservice's processing load `CPU(m_i)` in
//! millions of instructions (MI) and a device's speed `CPU_j` in MI/s; the
//! processing time is their quotient, `Tp = CPU(m_i) / CPU_j`. These
//! newtypes make that quotient the only way to obtain a processing time.

use deep_netsim::Seconds;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div};

/// A processing load in millions of instructions (`CPU(m_i)`).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Mi(f64);

impl Mi {
    pub const ZERO: Mi = Mi(0.0);

    #[inline]
    pub fn new(v: f64) -> Self {
        assert!(v.is_finite() && v >= 0.0, "instruction count must be finite and non-negative");
        Mi(v)
    }
}

impl Add for Mi {
    type Output = Mi;
    #[inline]
    fn add(self, rhs: Mi) -> Mi {
        Mi(self.0 + rhs.0)
    }
}

impl AddAssign for Mi {
    #[inline]
    fn add_assign(&mut self, rhs: Mi) {
        self.0 += rhs.0;
    }
}

impl Sum for Mi {
    fn sum<I: Iterator<Item = Mi>>(iter: I) -> Mi {
        iter.fold(Mi::ZERO, Add::add)
    }
}

impl Div<Mips> for Mi {
    type Output = Seconds;
    /// `Tp = CPU(m_i) / CPU_j`.
    #[inline]
    fn div(self, rhs: Mips) -> Seconds {
        assert!(rhs.0 > 0.0, "device speed must be positive");
        Seconds::new(self.0 / rhs.0)
    }
}

impl fmt::Display for Mi {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.0} MI", self.0)
    }
}

/// A device's processing speed in MI per second (`CPU_j`).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Mips(f64);

impl Mips {
    #[inline]
    pub fn new(v: f64) -> Self {
        assert!(v.is_finite() && v >= 0.0, "speed must be finite and non-negative");
        Mips(v)
    }

    #[inline]
    pub(crate) fn as_f64(self) -> f64 {
        self.0
    }

    /// Scale by a dimensionless efficiency factor (e.g. architecture
    /// mismatch between amd64-optimised code and an arm64 device).
    #[inline]
    pub fn scale(self, factor: f64) -> Mips {
        Mips::new(self.0 * factor)
    }
}

impl fmt::Display for Mips {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.0} MI/s", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn processing_time_is_load_over_speed() {
        // 4.9e6 MI on a 40 000 MI/s device = 122.5 s (video HA Train class).
        let t = Mi::new(4_900_000.0) / Mips::new(40_000.0);
        assert!((t.as_f64() - 122.5).abs() < 1e-9);
    }

    #[test]
    fn mi_arithmetic() {
        let total: Mi = [Mi::new(1.0), Mi::new(2.5)].into_iter().sum();
        assert_eq!(total, Mi::new(3.5));
        let mut a = Mi::new(1.0);
        a += Mi::new(1.0);
        assert_eq!(a, Mi::new(2.0));
    }

    #[test]
    fn mips_scale_models_architecture_efficiency() {
        let native = Mips::new(40_000.0);
        let arm = native.scale(0.25);
        let t_native = Mi::new(100_000.0) / native;
        let t_arm = Mi::new(100_000.0) / arm;
        assert!((t_arm.as_f64() / t_native.as_f64() - 4.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_speed_rejected_in_division() {
        let _ = Mi::new(1.0) / Mips::new(0.0);
    }

    #[test]
    fn display() {
        assert_eq!(format!("{}", Mi::new(730_000.0)), "730000 MI");
        assert_eq!(format!("{}", Mips::new(40_000.0)), "40000 MI/s");
    }
}
