//! Canonical games the solver tests validate against (the Nashpy
//! test-suite staples), including the prisoner's dilemma the paper frames
//! deployment as.

use crate::bimatrix::Bimatrix;
use crate::matrix::Matrix;

/// The classic prisoner's dilemma with the textbook payoffs
/// `(T, R, P, S) = (5, 3, 1, 0)`: action 0 = cooperate, 1 = defect.
pub(crate) fn prisoners_dilemma() -> Bimatrix {
    prisoners_dilemma_with(5.0, 3.0, 1.0, 0.0)
}

/// A prisoner's dilemma with custom payoffs. Requires the defining chain
/// `T > R > P > S` (temptation > reward > punishment > sucker).
pub(crate) fn prisoners_dilemma_with(t: f64, r: f64, p: f64, s: f64) -> Bimatrix {
    assert!(t > r && r > p && p > s, "PD requires T > R > P > S");
    let a = Matrix::from_rows(&[vec![r, s], vec![t, p]]);
    let b = a.transpose();
    Bimatrix::new(a, b)
}

/// Matching pennies: zero-sum, unique fully-mixed equilibrium at
/// (1/2, 1/2).
pub(crate) fn matching_pennies() -> Bimatrix {
    Bimatrix::zero_sum(Matrix::from_rows(&[vec![1.0, -1.0], vec![-1.0, 1.0]]))
}

/// Battle of the sexes: two pure equilibria and one mixed.
pub(crate) fn battle_of_the_sexes() -> Bimatrix {
    let a = Matrix::from_rows(&[vec![3.0, 0.0], vec![0.0, 2.0]]);
    let b = Matrix::from_rows(&[vec![2.0, 0.0], vec![0.0, 3.0]]);
    Bimatrix::new(a, b)
}

/// Pure coordination: both prefer matching, `high`-payoff on (0,0),
/// `low`-payoff on (1,1).
pub(crate) fn coordination(high: f64, low: f64) -> Bimatrix {
    assert!(high >= low, "by convention the first action is the better one");
    Bimatrix::common_interest(Matrix::from_rows(&[vec![high, 0.0], vec![0.0, low]]))
}

/// Rock-paper-scissors: unique equilibrium at uniform (1/3, 1/3, 1/3).
pub(crate) fn rock_paper_scissors() -> Bimatrix {
    Bimatrix::zero_sum(Matrix::from_rows(&[
        vec![0.0, -1.0, 1.0],
        vec![1.0, 0.0, -1.0],
        vec![-1.0, 1.0, 0.0],
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bimatrix::tests::pure_equilibria;

    #[test]
    fn pd_payoff_chain_enforced() {
        let g = prisoners_dilemma();
        // Defection dominates cooperation for the row player.
        assert!(g.a[(1, 0)] > g.a[(0, 0)]);
        assert!(g.a[(1, 1)] > g.a[(0, 1)]);
        // Symmetric for the column player.
        assert!(g.b[(0, 1)] > g.b[(0, 0)]);
    }

    #[test]
    #[should_panic(expected = "T > R > P > S")]
    fn invalid_pd_rejected() {
        prisoners_dilemma_with(1.0, 2.0, 3.0, 4.0);
    }

    #[test]
    fn rps_is_zero_sum_and_symmetric() {
        let g = rock_paper_scissors();
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(g.a[(i, j)], -g.b[(i, j)]);
                assert_eq!(g.a[(i, j)], -g.a[(j, i)]);
            }
        }
        assert!(pure_equilibria(&g).is_empty());
    }

    #[test]
    fn shapes() {
        assert_eq!(matching_pennies().rows(), 2);
        assert_eq!(rock_paper_scissors().cols(), 3);
        assert_eq!(battle_of_the_sexes().rows(), 2);
    }
}
