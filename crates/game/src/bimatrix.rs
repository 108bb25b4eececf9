//! Two-player bimatrix games.

use crate::matrix::Matrix;
use crate::strategy::MixedStrategy;
use serde::{Deserialize, Serialize};

/// A two-player game in strategic form: row player maximises `a`, column
/// player maximises `b`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Bimatrix {
    pub a: Matrix,
    pub b: Matrix,
}

impl Bimatrix {
    /// Construct from two equally-shaped payoff matrices.
    pub fn new(a: Matrix, b: Matrix) -> Self {
        assert_eq!(
            (a.rows(), a.cols()),
            (b.rows(), b.cols()),
            "payoff matrices must share a shape"
        );
        Bimatrix { a, b }
    }

    /// Common-interest (team) game: both players receive `a`. This is the
    /// shape DEEP uses — microservice and device "cooperate" on the shared
    /// energy objective.
    pub fn common_interest(a: Matrix) -> Self {
        Bimatrix { b: a.clone(), a }
    }

    /// Row-player action count.
    pub(crate) fn rows(&self) -> usize {
        self.a.rows()
    }

    /// Column-player action count.
    pub(crate) fn cols(&self) -> usize {
        self.a.cols()
    }

    /// Is `(x, y)` a Nash equilibrium (within tolerance)? Checks the
    /// best-response property: every action in each support must attain
    /// the maximum payoff against the opponent's strategy.
    pub fn is_nash(&self, x: &MixedStrategy, y: &MixedStrategy) -> bool {
        let row_payoffs = self.a.mat_vec(y.probs());
        let row_max = row_payoffs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        for i in x.support() {
            if row_payoffs[i] < row_max - 1e-6 {
                return false;
            }
        }
        let col_payoffs = self.b.vec_mat(x.probs());
        let col_max = col_payoffs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        for j in y.support() {
            if col_payoffs[j] < col_max - 1e-6 {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::classic;

    impl Bimatrix {
        /// Zero-sum game: `b = -a`.
        pub(crate) fn zero_sum(a: Matrix) -> Self {
            let b = Matrix::from_fn(a.rows(), a.cols(), |i, j| -a[(i, j)]);
            Bimatrix { a, b }
        }
    }

    /// Every pure profile `(i, j)` that is a Nash equilibrium of `g`, in
    /// row-major order.
    pub(crate) fn pure_equilibria(g: &Bimatrix) -> Vec<(usize, usize)> {
        let (rows, cols) = (g.rows(), g.cols());
        let pure = |i, n| MixedStrategy::pure(i, n);
        (0..rows)
            .flat_map(|i| (0..cols).map(move |j| (i, j)))
            .filter(|&(i, j)| g.is_nash(&pure(i, rows), &pure(j, cols)))
            .collect()
    }

    #[test]
    fn prisoners_dilemma_unique_pure_equilibrium() {
        let g = classic::prisoners_dilemma();
        // Both defect (index 1) is the unique NE despite being Pareto-worse
        // than mutual cooperation — the paper's framing device.
        assert_eq!(pure_equilibria(&g), vec![(1, 1)]);
        let x = MixedStrategy::pure(1, 2);
        let y = MixedStrategy::pure(1, 2);
        assert!(g.is_nash(&x, &y));
        let coop = MixedStrategy::pure(0, 2);
        assert!(!g.is_nash(&coop, &coop));
    }

    #[test]
    fn matching_pennies_has_no_pure_equilibrium() {
        let g = classic::matching_pennies();
        assert!(pure_equilibria(&g).is_empty());
        let mix = MixedStrategy::uniform(2);
        assert!(g.is_nash(&mix, &mix));
    }

    #[test]
    fn battle_of_sexes_two_pure_equilibria() {
        let g = classic::battle_of_the_sexes();
        assert_eq!(pure_equilibria(&g), vec![(0, 0), (1, 1)]);
    }

    #[test]
    fn coordination_game_best_responses() {
        // Each player's best response is to match the other's action, so
        // the pure equilibria are the diagonal, the worse one included.
        let g = classic::coordination(3.0, 1.0);
        assert_eq!(pure_equilibria(&g), vec![(0, 0), (1, 1)]);
    }

    #[test]
    fn expected_payoffs_zero_sum() {
        let g = classic::matching_pennies();
        let u = MixedStrategy::uniform(2);
        let (r, c) = (g.a.quad(u.probs(), u.probs()), g.b.quad(u.probs(), u.probs()));
        assert!((r - 0.0).abs() < 1e-12);
        assert!((r + c).abs() < 1e-12, "zero-sum");
    }

    #[test]
    fn common_interest_shares_payoffs() {
        let m = Matrix::from_rows(&[vec![5.0, 1.0], vec![2.0, 4.0]]);
        let g = Bimatrix::common_interest(m);
        assert_eq!(g.a, g.b);
        // Both diagonal cells are pure equilibria of the team game.
        assert_eq!(pure_equilibria(&g), vec![(0, 0), (1, 1)]);
    }

    #[test]
    fn tied_best_responses_all_reported() {
        let a = Matrix::from_rows(&[vec![1.0, 1.0], vec![1.0, 1.0]]);
        let g = Bimatrix::common_interest(a);
        // Every action is a best response to every other, so every cell
        // is an equilibrium of the constant game.
        assert_eq!(pure_equilibria(&g).len(), 4);
    }

    #[test]
    #[should_panic(expected = "share a shape")]
    fn shape_mismatch_rejected() {
        let zeros = |cols| Matrix::from_fn(2, cols, |_, _| 0.0);
        Bimatrix::new(zeros(2), zeros(3));
    }
}
