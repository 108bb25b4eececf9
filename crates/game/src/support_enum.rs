//! Support enumeration: all Nash equilibria of a nondegenerate bimatrix
//! game (Nashpy's `support_enumeration`, the algorithm the paper's solver
//! ultimately calls for its 2×2 deployment games).
//!
//! For every pair of equal-size supports `(I, J)`:
//!
//! 1. solve for a column strategy `y` over `J` that makes the row player
//!    indifferent across `I` (and symmetrically `x` over `I` for the
//!    column player across `J`);
//! 2. keep the candidate if both are valid distributions and no action
//!    outside either support offers a profitable deviation.
//!
//! Complexity is exponential in the smaller dimension, which is irrelevant
//! here: deployment games are `registries × devices` (2 × 2 in the paper's
//! testbed, rarely more than a handful in the sweeps).

use crate::bimatrix::Bimatrix;
use crate::linalg::solve;
use crate::strategy::{MixedStrategy, EPS};

/// All equilibria found by support enumeration, as `(x, y)` pairs.
pub fn support_enumeration(game: &Bimatrix) -> Vec<(MixedStrategy, MixedStrategy)> {
    let m = game.rows();
    let n = game.cols();
    let mut out: Vec<(MixedStrategy, MixedStrategy)> = Vec::new();
    let max_k = m.min(n);
    for k in 1..=max_k {
        for row_support in subsets(m, k) {
            for col_support in subsets(n, k) {
                if let Some((x, y)) = try_support_pair(game, &row_support, &col_support) {
                    if !out.iter().any(|(ex, ey)| ex.approx_eq(&x, 1e-6) && ey.approx_eq(&y, 1e-6))
                    {
                        out.push((x, y));
                    }
                }
            }
        }
    }
    out
}

/// Solve the indifference system for one support pair.
fn try_support_pair(
    game: &Bimatrix,
    row_support: &[usize],
    col_support: &[usize],
) -> Option<(MixedStrategy, MixedStrategy)> {
    let k = row_support.len();
    debug_assert_eq!(k, col_support.len());

    // Column strategy y over J: row player indifferent across I.
    // Unknowns: y_j (k of them) + payoff v. Equations:
    //   Σ_j A[i][j] y_j - v = 0  for i ∈ I
    //   Σ_j y_j = 1
    let mut sys = Vec::with_capacity(k + 1);
    let mut rhs = vec![0.0; k + 1];
    for &i in row_support {
        let mut row = Vec::with_capacity(k + 1);
        for &j in col_support {
            row.push(game.a[(i, j)]);
        }
        row.push(-1.0);
        sys.push(row);
    }
    let mut norm = vec![1.0; k];
    norm.push(0.0);
    sys.push(norm);
    rhs[k] = 1.0;
    let sol_y = solve(sys, rhs)?;
    let (y_vals, _v) = sol_y.split_at(k);

    // Row strategy x over I: column player indifferent across J.
    let mut sys = Vec::with_capacity(k + 1);
    let mut rhs = vec![0.0; k + 1];
    for &j in col_support {
        let mut row = Vec::with_capacity(k + 1);
        for &i in row_support {
            row.push(game.b[(i, j)]);
        }
        row.push(-1.0);
        sys.push(row);
    }
    let mut norm = vec![1.0; k];
    norm.push(0.0);
    sys.push(norm);
    rhs[k] = 1.0;
    let sol_x = solve(sys, rhs)?;
    let (x_vals, _w) = sol_x.split_at(k);

    // Validity: probabilities non-negative.
    if y_vals.iter().any(|&p| p < -EPS) || x_vals.iter().any(|&p| p < -EPS) {
        return None;
    }

    // Expand to full-length strategies.
    let mut x = vec![0.0; game.rows()];
    for (&i, &p) in row_support.iter().zip(x_vals) {
        x[i] = p.max(0.0);
    }
    let mut y = vec![0.0; game.cols()];
    for (&j, &p) in col_support.iter().zip(y_vals) {
        y[j] = p.max(0.0);
    }
    // Renormalise tiny drift.
    let xs: f64 = x.iter().sum();
    let ys: f64 = y.iter().sum();
    if (xs - 1.0).abs() > 1e-6 || (ys - 1.0).abs() > 1e-6 {
        return None;
    }
    for p in &mut x {
        *p /= xs;
    }
    for p in &mut y {
        *p /= ys;
    }
    let x = MixedStrategy::new(x);
    let y = MixedStrategy::new(y);

    // Best-response check catches deviations outside the supports.
    if game.is_nash(&x, &y) {
        Some((x, y))
    } else {
        None
    }
}

/// All k-subsets of {0, .., n-1} in lexicographic order.
fn subsets(n: usize, k: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut current = Vec::with_capacity(k);
    fn rec(start: usize, n: usize, k: usize, current: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if current.len() == k {
            out.push(current.clone());
            return;
        }
        let needed = k - current.len();
        for i in start..=(n - needed) {
            current.push(i);
            rec(i + 1, n, k, current, out);
            current.pop();
        }
    }
    if k == 0 || k > n {
        return out;
    }
    rec(0, n, k, &mut current, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classic;
    use crate::matrix::Matrix;

    /// The action a strategy plays, when it plays only one.
    fn pure(s: &MixedStrategy) -> Option<usize> {
        match s.support().as_slice() {
            [only] => Some(*only),
            _ => None,
        }
    }

    #[test]
    fn subsets_enumerate_correct_counts() {
        assert_eq!(subsets(4, 2).len(), 6);
        assert_eq!(subsets(3, 3), vec![vec![0, 1, 2]]);
        assert_eq!(subsets(3, 1).len(), 3);
        assert!(subsets(2, 3).is_empty());
    }

    #[test]
    fn prisoners_dilemma_single_equilibrium() {
        let eqs = support_enumeration(&classic::prisoners_dilemma());
        assert_eq!(eqs.len(), 1);
        let (x, y) = &eqs[0];
        assert_eq!(pure(x), Some(1));
        assert_eq!(pure(y), Some(1));
    }

    #[test]
    fn matching_pennies_unique_mixed() {
        let eqs = support_enumeration(&classic::matching_pennies());
        assert_eq!(eqs.len(), 1);
        let (x, y) = &eqs[0];
        assert!(x.approx_eq(&MixedStrategy::uniform(2), 1e-9));
        assert!(y.approx_eq(&MixedStrategy::uniform(2), 1e-9));
    }

    #[test]
    fn battle_of_sexes_three_equilibria() {
        let eqs = support_enumeration(&classic::battle_of_the_sexes());
        assert_eq!(eqs.len(), 3, "two pure + one mixed");
        let pures: Vec<_> = eqs.iter().filter_map(|(x, y)| Some((pure(x)?, pure(y)?))).collect();
        assert!(pures.contains(&(0, 0)));
        assert!(pures.contains(&(1, 1)));
        // The mixed one: x = (3/5, 2/5), y = (2/5, 3/5).
        let mixed = eqs.iter().find(|(x, _)| pure(x).is_none()).unwrap();
        assert!(mixed.0.approx_eq(&MixedStrategy::new(vec![0.6, 0.4]), 1e-9));
        assert!(mixed.1.approx_eq(&MixedStrategy::new(vec![0.4, 0.6]), 1e-9));
    }

    #[test]
    fn rock_paper_scissors_uniform_equilibrium() {
        let eqs = support_enumeration(&classic::rock_paper_scissors());
        assert_eq!(eqs.len(), 1);
        assert!(eqs[0].0.approx_eq(&MixedStrategy::uniform(3), 1e-9));
        assert!(eqs[0].1.approx_eq(&MixedStrategy::uniform(3), 1e-9));
    }

    #[test]
    fn all_reported_profiles_verify_as_nash() {
        for game in [
            classic::prisoners_dilemma(),
            classic::matching_pennies(),
            classic::battle_of_the_sexes(),
            classic::rock_paper_scissors(),
            classic::coordination(4.0, 1.0),
        ] {
            for (x, y) in support_enumeration(&game) {
                assert!(game.is_nash(&x, &y));
            }
        }
    }

    #[test]
    fn asymmetric_shapes_supported() {
        // 2×3 game from the Nashpy docs; equilibria must verify.
        let a = Matrix::from_rows(&[vec![3.0, 2.0, 3.0], vec![2.0, 6.0, 1.0]]);
        let b = Matrix::from_rows(&[vec![2.0, 1.0, 3.0], vec![4.0, 5.0, 2.0]]);
        let g = Bimatrix::new(a, b);
        let eqs = support_enumeration(&g);
        assert!(!eqs.is_empty());
        for (x, y) in &eqs {
            assert!(g.is_nash(x, y));
        }
    }

    #[test]
    fn team_game_equilibria_include_both_coordination_points() {
        let g = classic::coordination(3.0, 1.0);
        let eqs = support_enumeration(&g);
        let pures: Vec<_> = eqs.iter().filter_map(|(x, y)| Some((pure(x)?, pure(y)?))).collect();
        assert!(pures.contains(&(0, 0)));
        assert!(pures.contains(&(1, 1)));
    }
}
