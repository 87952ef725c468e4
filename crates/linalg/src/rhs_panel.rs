//! RHS-major panels: the transposed multi-RHS layout of the batched spine.
//!
//! A [`DMatrix`] right-hand-side block is `n × B` with one RHS per
//! *column*, so any sweep that walks one RHS touches memory with stride
//! `B`. An [`RhsPanel`] stores the same block transposed — row-major
//! `B × n`, one RHS per contiguous *row* — so the triangular sweeps of
//! [`crate::Cholesky`] and the per-column spectra assembly of the FFT
//! kernels stream unit-stride. Blocks cross the layout boundary exactly
//! once per panel via [`RhsPanel::gather_cols`] / [`RhsPanel::scatter_cols`]
//! (instead of paying a strided gather per column inside the kernel), which
//! is what makes the transposed layout free to adopt incrementally.
//!
//! The sweeps over these contiguous rows run on one microkernel,
//! [`crate::vec_ops::dot_lanes`] (reassociated dot), forward and backward:
//! the backward sweep dots against `Lᵀ`, mirrored into the factor's upper
//! triangle, so it too reads unit-stride rows.

use crate::matrix::DMatrix;

/// Row-major `B × n` block of `B` right-hand sides of dimension `n`,
/// one RHS per contiguous row.
#[derive(Clone, Debug, PartialEq)]
pub struct RhsPanel {
    nrhs: usize,
    n: usize,
    data: Vec<f64>,
}

impl RhsPanel {
    /// Zero panel of `nrhs` right-hand sides of dimension `n`.
    pub fn zeros(nrhs: usize, n: usize) -> Self {
        RhsPanel {
            nrhs,
            n,
            data: vec![0.0; nrhs * n],
        }
    }

    /// Wrap an existing row-major `nrhs × n` buffer.
    pub fn from_vec(nrhs: usize, n: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), nrhs * n, "from_vec: buffer size mismatch");
        RhsPanel { nrhs, n, data }
    }

    /// Transpose a whole `n × B` column-major-RHS block in: panel row `r`
    /// becomes column `r` of `m`.
    ///
    /// # Example
    ///
    /// ```
    /// use tsunami_linalg::{DMatrix, RhsPanel};
    /// let m = DMatrix::from_fn(3, 2, |i, j| (i * 2 + j) as f64);
    /// let p = RhsPanel::from_matrix(&m);
    /// assert_eq!(p.nrhs(), 2);
    /// assert_eq!(p.row(1), &[1.0, 3.0, 5.0]); // column 1 of m, contiguous
    /// assert_eq!(p.to_matrix(), m); // transpose-out round-trips
    /// ```
    pub fn from_matrix(m: &DMatrix) -> Self {
        Self::gather_cols(m, 0, m.ncols())
    }

    /// Transpose columns `[j0, j1)` of an `n × B` block in — the gather
    /// side of panel-wise processing (one layout crossing per panel).
    /// Reads `m` row-major (contiguous row segments); the strided writes
    /// fan out over at most `j1 − j0` panel rows.
    pub fn gather_cols(m: &DMatrix, j0: usize, j1: usize) -> Self {
        assert!(j0 <= j1 && j1 <= m.ncols(), "gather_cols: bad range");
        let (nrhs, n) = (j1 - j0, m.nrows());
        let mut p = RhsPanel::zeros(nrhs, n);
        for i in 0..n {
            let src = &m.row(i)[j0..j1];
            for (r, &v) in src.iter().enumerate() {
                p.data[r * n + i] = v;
            }
        }
        p
    }

    /// Transpose the panel out into columns `[j0, j0 + nrhs)` of `m` —
    /// the scatter side of panel-wise processing.
    pub fn scatter_cols(&self, m: &mut DMatrix, j0: usize) {
        assert_eq!(m.nrows(), self.n, "scatter_cols: row mismatch");
        assert!(j0 + self.nrhs <= m.ncols(), "scatter_cols: panel overflows");
        for i in 0..self.n {
            let dst = &mut m.row_mut(i)[j0..j0 + self.nrhs];
            for (r, v) in dst.iter_mut().enumerate() {
                *v = self.data[r * self.n + i];
            }
        }
    }

    /// Transpose out into a fresh `n × nrhs` [`DMatrix`].
    pub fn to_matrix(&self) -> DMatrix {
        let mut m = DMatrix::zeros(self.n, self.nrhs);
        self.scatter_cols(&mut m, 0);
        m
    }

    /// Number of right-hand sides `B` (panel rows).
    #[inline]
    pub fn nrhs(&self) -> usize {
        self.nrhs
    }

    /// Dimension `n` of each right-hand side (panel row length).
    #[inline]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Borrow right-hand side `r` as a contiguous slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.n..(r + 1) * self.n]
    }

    /// Mutably borrow right-hand side `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.n..(r + 1) * self.n]
    }

    /// Iterate over the right-hand sides, one contiguous row each.
    /// Degenerate `dim() == 0` panels yield no rows — there is no
    /// per-RHS data to visit.
    pub fn rows(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.n.max(1))
    }

    /// Borrow the underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrow the underlying row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rand_mat(rows: usize, cols: usize, seed: u64) -> DMatrix {
        let mut s = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        DMatrix::from_fn(rows, cols, |_, _| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        })
    }

    #[test]
    fn gather_matches_columns() {
        let m = rand_mat(7, 9, 3);
        let p = RhsPanel::gather_cols(&m, 2, 6);
        assert_eq!(p.nrhs(), 4);
        assert_eq!(p.dim(), 7);
        for r in 0..4 {
            assert_eq!(p.row(r), m.col(2 + r).as_slice(), "row {r}");
        }
    }

    #[test]
    fn scatter_restores_columns() {
        let m = rand_mat(6, 8, 5);
        let p = RhsPanel::gather_cols(&m, 3, 8);
        let mut out = DMatrix::zeros(6, 8);
        p.scatter_cols(&mut out, 3);
        for i in 0..6 {
            for j in 0..8 {
                let want = if j >= 3 { m[(i, j)] } else { 0.0 };
                assert_eq!(out[(i, j)], want);
            }
        }
    }

    #[test]
    fn full_round_trip_is_exact() {
        for &(n, b) in &[(1usize, 1usize), (5, 3), (12, 12), (33, 7), (4, 40)] {
            let m = rand_mat(n, b, (n * b) as u64);
            assert_eq!(RhsPanel::from_matrix(&m).to_matrix(), m, "{n}x{b}");
        }
    }

    #[test]
    fn rows_iterators_cover_every_rhs() {
        let m = rand_mat(5, 4, 9);
        let p = RhsPanel::from_matrix(&m);
        assert_eq!(p.rows().count(), 4);
        for (r, row) in p.rows().enumerate() {
            assert_eq!(row, m.col(r).as_slice());
        }
    }

    mod round_trip_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Transpose-in then transpose-out is the identity for any
            /// shape, and gather/scatter of a random column range restores
            /// exactly the gathered columns.
            #[test]
            fn transpose_round_trips(
                n in 1usize..40,
                b in 1usize..40,
                j0 in 0usize..40,
                width in 1usize..40,
                seed in 0u64..1_000_000,
            ) {
                let m = rand_mat(n, b, seed);
                prop_assert_eq!(RhsPanel::from_matrix(&m).to_matrix(), m.clone());

                let j0 = j0 % b;
                let j1 = (j0 + width).min(b);
                let p = RhsPanel::gather_cols(&m, j0, j1);
                let mut out = DMatrix::zeros(n, b);
                p.scatter_cols(&mut out, j0);
                for i in 0..n {
                    for j in j0..j1 {
                        prop_assert_eq!(out[(i, j)], m[(i, j)]);
                    }
                }
            }
        }
    }

    #[test]
    fn empty_dimensions_are_harmless() {
        let p = RhsPanel::zeros(0, 5);
        assert_eq!(p.rows().count(), 0);
        let m = DMatrix::zeros(4, 0);
        let p = RhsPanel::from_matrix(&m);
        assert_eq!(p.nrhs(), 0);
        assert_eq!(p.to_matrix().ncols(), 0);
    }
}
