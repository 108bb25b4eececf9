//! Transfer-time arithmetic shared by every layer above: the scalar
//! `Size / BW` helper.

use crate::units::{Bandwidth, DataSize, Seconds};

/// `size / bw`, returning zero for empty transfers or infinite links.
#[inline]
pub fn transfer_time(size: DataSize, bw: Bandwidth) -> Seconds {
    if size.is_zero() || bw.as_bytes_per_sec().is_infinite() {
        Seconds::ZERO
    } else {
        assert!(!bw.is_zero(), "cannot transfer {size} over a zero-bandwidth link");
        size / bw
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_helper_matches_division() {
        let t = transfer_time(DataSize::gigabytes(0.7), Bandwidth::megabytes_per_sec(70.0));
        assert!((t.as_f64() - 10.0).abs() < 1e-9);
        assert_eq!(transfer_time(DataSize::ZERO, Bandwidth::megabytes_per_sec(1.0)), Seconds::ZERO);
        assert_eq!(transfer_time(DataSize::gigabytes(3.0), Bandwidth::infinite()), Seconds::ZERO);
    }

    #[test]
    #[should_panic(expected = "zero-bandwidth")]
    fn nonzero_over_zero_link_panics() {
        transfer_time(DataSize::bytes(1), Bandwidth::bytes_per_sec(0.0));
    }
}
