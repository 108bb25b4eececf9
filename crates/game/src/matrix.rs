//! Dense row-major payoff matrices.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense `rows × cols` matrix of `f64` payoffs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Build from nested rows (all rows must share a length).
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        assert!(!rows.is_empty(), "matrices must be non-empty");
        let cols = rows[0].len();
        assert!(cols > 0, "matrices must be non-empty");
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows");
            data.extend_from_slice(r);
        }
        Matrix { rows: rows.len(), cols, data }
    }

    /// Build row-major from a generator `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        assert!(rows > 0 && cols > 0, "matrices must be non-empty");
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    pub(crate) fn cols(&self) -> usize {
        self.cols
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// One row as a slice.
    pub(crate) fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// `M · y` for a column vector `y`.
    pub(crate) fn mat_vec(&self, y: &[f64]) -> Vec<f64> {
        assert_eq!(y.len(), self.cols, "dimension mismatch");
        (0..self.rows).map(|i| self.row(i).iter().zip(y).map(|(a, b)| a * b).sum()).collect()
    }

    /// `xᵀ · M` for a row vector `x`.
    pub(crate) fn vec_mat(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.rows, "dimension mismatch");
        (0..self.cols).map(|j| (0..self.rows).map(|i| x[i] * self[(i, j)]).sum()).collect()
    }

    /// `xᵀ · M · y` — the expected payoff under mixed strategies.
    pub fn quad(&self, x: &[f64], y: &[f64]) -> f64 {
        self.mat_vec(y).iter().zip(x).map(|(a, b)| a * b).sum()
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(i < self.rows && j < self.cols, "index ({i},{j}) out of bounds");
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        assert!(i < self.rows && j < self.cols, "index ({i},{j}) out of bounds");
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            let row: Vec<String> = self.row(i).iter().map(|v| format!("{v:8.3}")).collect();
            writeln!(f, "[{}]", row.join(" "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m() -> Matrix {
        Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]])
    }

    #[test]
    fn shape_and_indexing() {
        let m = m();
        assert_eq!((m.rows(), m.cols()), (2, 3));
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(1, 2)], 6.0);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn transpose_round_trip() {
        let m = m();
        let t = m.transpose();
        assert_eq!((t.rows(), t.cols()), (3, 2));
        assert_eq!(t[(2, 1)], 6.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn linear_algebra_ops() {
        let m = m();
        assert_eq!(m.mat_vec(&[1.0, 0.0, 1.0]), vec![4.0, 10.0]);
        assert_eq!(m.vec_mat(&[1.0, 1.0]), vec![5.0, 7.0, 9.0]);
        // xᵀ M y with x = (0.5, 0.5), y = uniform.
        let v = m.quad(&[0.5, 0.5], &[1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0]);
        assert!((v - 3.5).abs() < 1e-12);
    }

    #[test]
    fn from_fn_generator() {
        let m = Matrix::from_fn(2, 2, |i, j| (i * 10 + j) as f64);
        assert_eq!(m[(1, 0)], 10.0);
    }

    #[test]
    fn mutation() {
        let mut m = Matrix::from_fn(2, 2, |_, _| 0.0);
        m[(0, 1)] = 7.0;
        assert_eq!(m[(0, 1)], 7.0);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_rejected() {
        Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_index_panics() {
        let _ = m()[(2, 0)];
    }
}
