//! Small dense linear solves for the equilibrium algorithms.

/// Solve `M x = b` by Gaussian elimination with partial pivoting.
/// Returns `None` when `M` is (numerically) singular.
#[allow(clippy::needless_range_loop)]
pub(crate) fn solve(mut m: Vec<Vec<f64>>, mut b: Vec<f64>) -> Option<Vec<f64>> {
    let n = m.len();
    assert!(n > 0 && m.iter().all(|r| r.len() == n), "square system required");
    assert_eq!(b.len(), n, "rhs length mismatch");
    for col in 0..n {
        // Partial pivot: largest magnitude in the column.
        let pivot = (col..n)
            .max_by(|&r1, &r2| m[r1][col].abs().partial_cmp(&m[r2][col].abs()).expect("not NaN"))
            .expect("non-empty range");
        if m[pivot][col].abs() < 1e-12 {
            return None;
        }
        m.swap(col, pivot);
        b.swap(col, pivot);
        for row in (col + 1)..n {
            let f = m[row][col] / m[col][col];
            if f == 0.0 {
                continue;
            }
            for j in col..n {
                m[row][j] -= f * m[col][j];
            }
            b[row] -= f * b[col];
        }
    }
    // Back substitution.
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let mut acc = b[row];
        for j in (row + 1)..n {
            acc -= m[row][j] * x[j];
        }
        x[row] = acc / m[row][row];
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_identity() {
        let m = vec![vec![1.0, 0.0], vec![0.0, 1.0]];
        let x = solve(m, vec![3.0, 4.0]).unwrap();
        assert_eq!(x, vec![3.0, 4.0]);
    }

    #[test]
    fn solves_general_system() {
        // 2x + y = 5; x - y = 1  =>  x = 2, y = 1.
        let m = vec![vec![2.0, 1.0], vec![1.0, -1.0]];
        let x = solve(m, vec![5.0, 1.0]).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn requires_pivoting() {
        // Leading zero forces a row swap.
        let m = vec![vec![0.0, 1.0], vec![1.0, 0.0]];
        let x = solve(m, vec![7.0, 9.0]).unwrap();
        assert_eq!(x, vec![9.0, 7.0]);
    }

    #[test]
    fn singular_detected() {
        let m = vec![vec![1.0, 2.0], vec![2.0, 4.0]];
        assert!(solve(m, vec![1.0, 2.0]).is_none());
    }

    #[test]
    fn three_by_three() {
        let m = vec![vec![2.0, 1.0, -1.0], vec![-3.0, -1.0, 2.0], vec![-2.0, 1.0, 2.0]];
        let x = solve(m, vec![8.0, -11.0, -3.0]).unwrap();
        for (got, want) in x.iter().zip([2.0, 3.0, -1.0]) {
            assert!((got - want).abs() < 1e-10, "{got} vs {want}");
        }
    }
}
