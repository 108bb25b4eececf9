//! Mixed strategies.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Tolerance for probability arithmetic across the crate.
pub(crate) const EPS: f64 = 1e-9;

/// A probability distribution over a player's pure strategies.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MixedStrategy(Vec<f64>);

impl MixedStrategy {
    /// Construct, validating non-negativity and unit mass.
    pub(crate) fn new(probs: Vec<f64>) -> Self {
        assert!(!probs.is_empty(), "strategy over zero actions");
        let sum: f64 = probs.iter().sum();
        assert!(
            probs.iter().all(|&p| p >= -EPS) && (sum - 1.0).abs() < 1e-6,
            "probabilities must be non-negative and sum to 1 (sum = {sum})"
        );
        MixedStrategy(probs.into_iter().map(|p| p.max(0.0)).collect())
    }

    /// The pure strategy playing action `i` among `n`.
    pub fn pure(i: usize, n: usize) -> Self {
        assert!(i < n, "action index out of range");
        let mut p = vec![0.0; n];
        p[i] = 1.0;
        MixedStrategy(p)
    }

    /// Probability vector.
    pub fn probs(&self) -> &[f64] {
        &self.0
    }

    /// Number of actions.
    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }

    /// Actions played with probability > EPS.
    pub(crate) fn support(&self) -> Vec<usize> {
        self.0.iter().enumerate().filter(|(_, &p)| p > EPS).map(|(i, _)| i).collect()
    }

    /// The most likely action (ties broken towards the lower index).
    pub fn mode(&self) -> usize {
        let mut best = 0usize;
        for (i, &p) in self.0.iter().enumerate().skip(1) {
            if p > self.0[best] {
                best = i;
            }
        }
        best
    }

    /// Numerical equality within `tol`.
    pub(crate) fn approx_eq(&self, other: &MixedStrategy, tol: f64) -> bool {
        self.len() == other.len()
            && self.0.iter().zip(other.probs()).all(|(a, b)| (a - b).abs() <= tol)
    }
}

impl fmt::Display for MixedStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self.0.iter().map(|p| format!("{p:.3}")).collect();
        write!(f, "({})", parts.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl MixedStrategy {
        /// Uniform mixing over `n` actions.
        pub(crate) fn uniform(n: usize) -> Self {
            assert!(n > 0);
            MixedStrategy(vec![1.0 / n as f64; n])
        }
    }

    #[test]
    fn pure_and_uniform_constructors() {
        let p = MixedStrategy::pure(1, 3);
        assert_eq!(p.probs(), &[0.0, 1.0, 0.0]);
        assert_eq!(p.support(), vec![1]);

        let u = MixedStrategy::uniform(4);
        assert_eq!(u.support(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn mode_picks_heaviest_action() {
        let s = MixedStrategy::new(vec![0.2, 0.5, 0.3]);
        assert_eq!(s.mode(), 1);
        // Pure tie-break: lower index.
        let t = MixedStrategy::new(vec![0.5, 0.5]);
        assert_eq!(t.mode(), 0);
    }

    #[test]
    fn support_filters_zero_mass() {
        let s = MixedStrategy::new(vec![0.0, 0.7, 0.0, 0.3]);
        assert_eq!(s.support(), vec![1, 3]);
    }

    #[test]
    fn approx_eq_tolerance() {
        let a = MixedStrategy::new(vec![0.5, 0.5]);
        let b = MixedStrategy::new(vec![0.5 + 1e-10, 0.5 - 1e-10]);
        assert!(a.approx_eq(&b, 1e-9));
        let c = MixedStrategy::new(vec![0.6, 0.4]);
        assert!(!a.approx_eq(&c, 1e-3));
        assert!(!a.approx_eq(&MixedStrategy::uniform(3), 1.0), "length mismatch");
    }

    #[test]
    fn display_formats() {
        let s = MixedStrategy::new(vec![0.25, 0.75]);
        assert_eq!(format!("{s}"), "(0.250, 0.750)");
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn non_unit_mass_rejected() {
        MixedStrategy::new(vec![0.5, 0.4]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn pure_index_validated() {
        MixedStrategy::pure(3, 3);
    }
}
