//! Seeded multiplicative run-to-run noise.
//!
//! Table II reports ranges, not points — real testbeds jitter. The
//! simulator reproduces that with a seeded uniform multiplicative factor
//! `U[1 - amplitude, 1 + amplitude]` applied per phase duration. Seeds make
//! every experiment bit-for-bit reproducible.

use deep_netsim::Seconds;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A deterministic jitter source.
#[derive(Debug, Clone)]
pub struct Jitter {
    rng: ChaCha8Rng,
    amplitude: f64,
}

impl Jitter {
    /// Jitter with the given relative amplitude (e.g. `0.02` = ±2 %).
    pub fn new(seed: u64, amplitude: f64) -> Self {
        assert!((0.0..1.0).contains(&amplitude), "amplitude must be in [0, 1)");
        Jitter { rng: ChaCha8Rng::seed_from_u64(seed), amplitude }
    }

    /// Zero-amplitude jitter: `apply` is the identity.
    pub fn none() -> Self {
        Jitter::new(0, 0.0)
    }

    /// The configured amplitude.
    pub fn amplitude(&self) -> f64 {
        self.amplitude
    }

    /// Draw the next multiplicative factor.
    pub fn factor(&mut self) -> f64 {
        if self.amplitude == 0.0 {
            return 1.0;
        }
        self.rng.gen_range(1.0 - self.amplitude..=1.0 + self.amplitude)
    }

    /// Apply jitter to a duration.
    pub fn apply(&mut self, t: Seconds) -> Seconds {
        t.scale(self.factor())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = Jitter::new(7, 0.05);
        let mut b = Jitter::new(7, 0.05);
        for _ in 0..100 {
            assert_eq!(a.factor(), b.factor());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Jitter::new(1, 0.05);
        let mut b = Jitter::new(2, 0.05);
        let same = (0..50).filter(|_| a.factor() == b.factor()).count();
        assert!(same < 5);
    }

    #[test]
    fn factors_bounded_by_amplitude() {
        let mut j = Jitter::new(3, 0.03);
        for _ in 0..1000 {
            let f = j.factor();
            assert!((0.97..=1.03).contains(&f), "{f}");
        }
    }

    #[test]
    fn none_is_identity() {
        let mut j = Jitter::none();
        let t = Seconds::new(123.456);
        assert_eq!(j.apply(t), t);
        assert_eq!(j.factor(), 1.0);
    }

    #[test]
    fn applied_duration_scales() {
        let mut j = Jitter::new(9, 0.02);
        let t = Seconds::new(100.0);
        let out = j.apply(t);
        assert!((98.0..=102.0).contains(&out.as_f64()));
    }

    #[test]
    #[should_panic(expected = "amplitude")]
    fn amplitude_validated() {
        Jitter::new(0, 1.5);
    }
}
