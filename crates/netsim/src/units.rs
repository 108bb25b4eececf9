//! Strongly-typed physical units.
//!
//! The paper mixes GB (image sizes, storage), MB (dataflow sizes), MI and
//! MI/s (compute), seconds and Joules. Every cross-unit bug in a
//! reproduction of this kind is a silent factor-of-1000 error, so the whole
//! workspace trades exclusively in these newtypes and converts at the edges.
//!
//! Conventions: sizes are stored in **bytes** (u64), bandwidth in
//! **bytes/second** (f64), time in **seconds** (f64). Decimal prefixes
//! (1 GB = 1e9 B) are used throughout because the paper reports decimal GB
//! and MB.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A quantity of data, stored in bytes.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct DataSize(u64);

impl DataSize {
    pub const ZERO: DataSize = DataSize(0);

    /// Construct from raw bytes.
    #[inline]
    pub const fn bytes(n: u64) -> Self {
        DataSize(n)
    }

    /// Construct from megabytes (decimal, 1 MB = 1e6 B).
    #[inline]
    pub fn megabytes(n: f64) -> Self {
        DataSize((n * 1e6).round() as u64)
    }

    /// Construct from gigabytes (decimal, 1 GB = 1e9 B).
    #[inline]
    pub fn gigabytes(n: f64) -> Self {
        DataSize((n * 1e9).round() as u64)
    }

    /// Raw byte count.
    #[inline]
    pub const fn as_bytes(self) -> u64 {
        self.0
    }

    /// Size in decimal megabytes.
    #[inline]
    pub fn as_megabytes(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Size in decimal gigabytes.
    #[inline]
    pub fn as_gigabytes(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction; useful for cache-quota arithmetic.
    #[inline]
    pub fn saturating_sub(self, rhs: DataSize) -> DataSize {
        DataSize(self.0.saturating_sub(rhs.0))
    }

    /// True when the size is exactly zero bytes.
    #[inline]
    pub(crate) const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add for DataSize {
    type Output = DataSize;
    #[inline]
    fn add(self, rhs: DataSize) -> DataSize {
        DataSize(self.0 + rhs.0)
    }
}

impl AddAssign for DataSize {
    #[inline]
    fn add_assign(&mut self, rhs: DataSize) {
        self.0 += rhs.0;
    }
}

impl Sub for DataSize {
    type Output = DataSize;
    #[inline]
    fn sub(self, rhs: DataSize) -> DataSize {
        DataSize(self.0 - rhs.0)
    }
}

impl SubAssign for DataSize {
    #[inline]
    fn sub_assign(&mut self, rhs: DataSize) {
        self.0 -= rhs.0;
    }
}

impl Sum for DataSize {
    fn sum<I: Iterator<Item = DataSize>>(iter: I) -> DataSize {
        iter.fold(DataSize::ZERO, Add::add)
    }
}

impl Div<Bandwidth> for DataSize {
    type Output = Seconds;
    /// `Size / BW` — the core quantity of the paper's completion-time model.
    #[inline]
    fn div(self, rhs: Bandwidth) -> Seconds {
        assert!(rhs.as_bytes_per_sec() > 0.0, "division by zero bandwidth");
        Seconds(self.0 as f64 / rhs.as_bytes_per_sec())
    }
}

impl fmt::Display for DataSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0 as f64;
        if b >= 1e9 {
            write!(f, "{:.2} GB", b / 1e9)
        } else if b >= 1e6 {
            write!(f, "{:.2} MB", b / 1e6)
        } else if b >= 1e3 {
            write!(f, "{:.2} kB", b / 1e3)
        } else {
            write!(f, "{} B", self.0)
        }
    }
}

/// Link bandwidth in bytes per second.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Bandwidth(f64);

impl Bandwidth {
    /// Construct from bytes per second.
    #[inline]
    pub(crate) fn bytes_per_sec(v: f64) -> Self {
        assert!(v.is_finite() && v >= 0.0, "bandwidth must be finite and non-negative");
        Bandwidth(v)
    }

    /// An effectively infinite, loop-back bandwidth. `Size / infinite() = 0 s`.
    #[inline]
    pub const fn infinite() -> Self {
        Bandwidth(f64::INFINITY)
    }

    /// Construct from decimal megabytes per second.
    #[inline]
    pub fn megabytes_per_sec(v: f64) -> Self {
        Self::bytes_per_sec(v * 1e6)
    }

    #[inline]
    pub fn as_bytes_per_sec(self) -> f64 {
        self.0
    }

    /// Scale by a dimensionless factor (e.g. contention share).
    #[inline]
    pub fn scale(self, factor: f64) -> Bandwidth {
        Bandwidth::bytes_per_sec(self.0 * factor)
    }

    /// True when no data can flow.
    #[inline]
    pub(crate) fn is_zero(self) -> bool {
        self.0 == 0.0
    }
}

impl Mul<Seconds> for Bandwidth {
    type Output = DataSize;
    #[inline]
    fn mul(self, rhs: Seconds) -> DataSize {
        DataSize((self.0 * rhs.0).round().max(0.0) as u64)
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} MB/s", self.0 / 1e6)
    }
}

/// A duration or point offset on the simulated clock, in seconds.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Seconds(pub f64);

impl Seconds {
    pub const ZERO: Seconds = Seconds(0.0);

    #[inline]
    pub fn new(v: f64) -> Self {
        assert!(v.is_finite(), "time must be finite");
        Seconds(v)
    }

    #[inline]
    pub fn as_f64(self) -> f64 {
        self.0
    }

    #[inline]
    pub fn max(self, other: Seconds) -> Seconds {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// Scale by a dimensionless factor (jitter, slowdown).
    #[inline]
    pub fn scale(self, factor: f64) -> Seconds {
        Seconds::new(self.0 * factor)
    }
}

impl Add for Seconds {
    type Output = Seconds;
    #[inline]
    fn add(self, rhs: Seconds) -> Seconds {
        Seconds(self.0 + rhs.0)
    }
}

impl AddAssign for Seconds {
    #[inline]
    fn add_assign(&mut self, rhs: Seconds) {
        self.0 += rhs.0;
    }
}

impl Sub for Seconds {
    type Output = Seconds;
    #[inline]
    fn sub(self, rhs: Seconds) -> Seconds {
        Seconds(self.0 - rhs.0)
    }
}

impl SubAssign for Seconds {
    #[inline]
    fn sub_assign(&mut self, rhs: Seconds) {
        self.0 -= rhs.0;
    }
}

impl Neg for Seconds {
    type Output = Seconds;
    #[inline]
    fn neg(self) -> Seconds {
        Seconds(-self.0)
    }
}

impl Sum for Seconds {
    fn sum<I: Iterator<Item = Seconds>>(iter: I) -> Seconds {
        iter.fold(Seconds::ZERO, Add::add)
    }
}

impl Mul<f64> for Seconds {
    type Output = Seconds;
    #[inline]
    fn mul(self, rhs: f64) -> Seconds {
        Seconds::new(self.0 * rhs)
    }
}

impl fmt::Display for Seconds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} s", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn datasize_constructors_round_trip() {
        assert_eq!(DataSize::gigabytes(0.17).as_bytes(), 170_000_000);
        assert_eq!(DataSize::megabytes(1.5).as_bytes(), 1_500_000);
        assert!((DataSize::gigabytes(5.78).as_gigabytes() - 5.78).abs() < 1e-9);
        assert!((DataSize::megabytes(250.0).as_megabytes() - 250.0).abs() < 1e-9);
    }

    #[test]
    fn datasize_arithmetic() {
        let a = DataSize::megabytes(10.0);
        let b = DataSize::megabytes(4.0);
        assert_eq!((a + b).as_bytes(), 14_000_000);
        assert_eq!((a - b).as_bytes(), 6_000_000);
        assert_eq!(b.saturating_sub(a), DataSize::ZERO);
        let mut c = a;
        c += b;
        assert_eq!(c.as_bytes(), 14_000_000);
        c -= b;
        assert_eq!(c, a);
    }

    #[test]
    fn datasize_sum_and_scale() {
        let total: DataSize = [1.0, 2.0, 3.0].iter().map(|&g| DataSize::gigabytes(g)).sum();
        assert_eq!(total, DataSize::gigabytes(6.0));
    }

    #[test]
    fn transfer_time_is_size_over_bandwidth() {
        // The paper: Td = Size_mi / BW_gj. 1.7 GB at 100 MB/s = 17 s.
        let t = DataSize::gigabytes(1.7) / Bandwidth::megabytes_per_sec(100.0);
        assert!((t.as_f64() - 17.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "zero bandwidth")]
    fn zero_bandwidth_division_panics() {
        let _ = DataSize::megabytes(1.0) / Bandwidth::bytes_per_sec(0.0);
    }

    #[test]
    fn bandwidth_units() {
        let bw = Bandwidth::megabytes_per_sec(40.0);
        assert!((bw.as_bytes_per_sec() - 4e7).abs() < 1e-3);
        assert!((bw.scale(0.25).as_bytes_per_sec() - 1e7).abs() < 1e-3);
    }

    #[test]
    fn bandwidth_times_time_is_size() {
        let moved = Bandwidth::megabytes_per_sec(25.0) * Seconds::new(4.0);
        assert_eq!(moved, DataSize::megabytes(100.0));
    }

    #[test]
    fn seconds_ops() {
        let a = Seconds::new(2.5);
        let b = Seconds::new(1.0);
        assert_eq!((a + b).as_f64(), 3.5);
        assert_eq!((a - b).as_f64(), 1.5);
        assert_eq!((-b).as_f64(), -1.0);
        assert_eq!(a.max(b), a);
        assert_eq!((a * 2.0).as_f64(), 5.0);
        assert!((a - Seconds::new(3.0)).as_f64() < 0.0);
        let sum: Seconds = [a, b].into_iter().sum();
        assert_eq!(sum.as_f64(), 3.5);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", DataSize::gigabytes(5.78)), "5.78 GB");
        assert_eq!(format!("{}", DataSize::megabytes(250.0)), "250.00 MB");
        assert_eq!(format!("{}", DataSize::bytes(12)), "12 B");
        assert_eq!(format!("{}", Bandwidth::megabytes_per_sec(100.0)), "100.00 MB/s");
        assert_eq!(format!("{}", Seconds::new(1.2345)), "1.234 s");
    }

    #[test]
    fn serde_round_trip() {
        let s = DataSize::gigabytes(2.36);
        let json = serde_json::to_string(&s).unwrap();
        let back: DataSize = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn datasize_gb_round_trip(gb in 0.0f64..1000.0) {
            let s = DataSize::gigabytes(gb);
            prop_assert!((s.as_gigabytes() - gb).abs() < 1e-6);
        }

        #[test]
        fn datasize_addition_is_commutative(a in 0u64..u64::MAX / 4, b in 0u64..u64::MAX / 4) {
            let (x, y) = (DataSize::bytes(a), DataSize::bytes(b));
            prop_assert_eq!(x + y, y + x);
        }

        #[test]
        fn saturating_sub_never_underflows(a in 0u64..1_000_000, b in 0u64..1_000_000) {
            let d = DataSize::bytes(a).saturating_sub(DataSize::bytes(b));
            prop_assert!(d.as_bytes() <= a);
        }

        #[test]
        fn transfer_time_positive_and_finite(mb in 0.001f64..100_000.0, bw in 0.001f64..100_000.0) {
            let t = DataSize::megabytes(mb) / Bandwidth::megabytes_per_sec(bw);
            prop_assert!(t.as_f64() > 0.0);
            prop_assert!(t.as_f64().is_finite());
        }

        #[test]
        fn bandwidth_time_size_triangle(mb in 0.1f64..10_000.0, bw in 0.1f64..10_000.0) {
            // (size / bw) * bw ≈ size.
            let size = DataSize::megabytes(mb);
            let bandwidth = Bandwidth::megabytes_per_sec(bw);
            let t = size / bandwidth;
            let back = bandwidth * t;
            let err = (back.as_bytes() as f64 - size.as_bytes() as f64).abs();
            prop_assert!(err <= 1.0, "round-trip error {err} bytes");
        }

        #[test]
        fn seconds_scale_linearity(s in -1000.0f64..1000.0, k in 0.0f64..100.0) {
            let t = Seconds::new(s);
            prop_assert!((t.scale(k).as_f64() - s * k).abs() < 1e-9 * (1.0 + s.abs() * k));
        }
    }
}
