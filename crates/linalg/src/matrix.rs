//! Row-major dense matrices with blocked, parallel multiplication kernels.
//!
//! These are the CPU stand-ins for the cuBLAS batched GEMMs the paper uses
//! in its FFTMatvec and data-space Hessian codes. The blocked kernel keeps a
//! `MC × KC` panel of `A` and a `KC × NC` panel of `B` hot in cache and is
//! parallelized over output row blocks with rayon.

use rayon::prelude::*;
use std::fmt;
use std::ops::{Index, IndexMut};

/// Cache-blocking parameters for [`DMatrix::matmul`]. Tuned for ~32 KiB L1 /
/// 1 MiB L2 per core; correctness does not depend on them.
const MC: usize = 64;
const NC: usize = 256;
const KC: usize = 128;

/// Dense row-major `rows × cols` matrix of `f64`.
#[derive(Clone, PartialEq)]
pub struct DMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DMatrix {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DMatrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = DMatrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build from a function of `(row, col)`.
    /// # Example
    ///
    /// ```
    /// use tsunami_linalg::DMatrix;
    /// let a = DMatrix::from_fn(2, 3, |i, j| (i * 3 + j) as f64);
    /// assert_eq!(a[(1, 2)], 5.0);
    /// // Matvec: y = A x.
    /// let mut y = vec![0.0; 2];
    /// a.matvec(&[1.0, 0.0, -1.0], &mut y);
    /// assert_eq!(y, vec![0.0 - 2.0, 3.0 - 5.0]);
    /// // Matmul against its transpose is symmetric.
    /// let ata = a.transpose().matmul(&a);
    /// assert_eq!(ata.nrows(), 3);
    /// assert_eq!(ata[(0, 1)], ata[(1, 0)]);
    /// ```
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        DMatrix { rows, cols, data }
    }

    /// Wrap an existing row-major buffer.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "from_vec: buffer size mismatch");
        DMatrix { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.cols
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

    /// Consume into the underlying buffer.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Borrow row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrow row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copy column `j` out.
    pub fn col(&self, j: usize) -> Vec<f64> {
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Overwrite column `j`.
    pub fn set_col(&mut self, j: usize, v: &[f64]) {
        assert_eq!(v.len(), self.rows);
        for (i, &x) in v.iter().enumerate() {
            self[(i, j)] = x;
        }
    }

    /// Transposed copy.
    pub fn transpose(&self) -> DMatrix {
        let mut t = DMatrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix–vector product `y = A x`, one lane-width dot per row
    /// (`y[i] = dot_lanes(row_i, x)`). Rows go to the pool in blocks of
    /// [`PAR_THRESHOLD`](crate::vec_ops::PAR_THRESHOLD) elements (at least
    /// one row) — the size rule of `par_dot` — so a smaller matrix is one
    /// block run inline. Every `y[i]` is one row's dot whatever the
    /// split: bit-identical at any thread count.
    pub fn matvec(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "matvec: x dim");
        assert_eq!(y.len(), self.rows, "matvec: y dim");
        let rb = (crate::vec_ops::PAR_THRESHOLD / self.cols.max(1)).max(1);
        y.par_chunks_mut(rb).enumerate().for_each(|(b, yb)| {
            for (t, yi) in yb.iter_mut().enumerate() {
                *yi = crate::vec_ops::dot_lanes(self.row(b * rb + t), x);
            }
        });
    }

    /// Transposed matrix–vector product `y = Aᵀ x`.
    pub fn matvec_t(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.rows, "matvec_t: x dim");
        assert_eq!(y.len(), self.cols, "matvec_t: y dim");
        y.iter_mut().for_each(|v| *v = 0.0);
        for i in 0..self.rows {
            crate::vec_ops::axpy(x[i], self.row(i), y);
        }
    }

    /// Blocked parallel matrix product `C = A · B`.
    pub fn matmul(&self, b: &DMatrix) -> DMatrix {
        assert_eq!(self.cols, b.rows, "matmul: inner dim mismatch");
        let mut c = DMatrix::zeros(self.rows, b.cols);
        self.matmul_into(b, &mut c);
        c
    }

    /// `C = A · B` written into a caller-owned output (overwritten), so
    /// steady-state callers can reuse one allocation across products.
    /// This *is* the [`Self::matmul`] kernel — `matmul` allocates zeros
    /// and delegates here — so results are bitwise identical between the
    /// two entry points.
    pub fn matmul_into(&self, b: &DMatrix, c: &mut DMatrix) {
        assert_eq!(self.cols, b.rows, "matmul_into: inner dim mismatch");
        assert_eq!(
            (c.rows, c.cols),
            (self.rows, b.cols),
            "matmul_into: output shape mismatch"
        );
        c.data.fill(0.0);
        let (m, n, k) = (self.rows, b.cols, self.cols);
        let a_data = &self.data;
        let b_data = &b.data;
        c.data
            .par_chunks_mut(MC * n)
            .enumerate()
            .for_each(|(bi, c_block)| {
                let i0 = bi * MC;
                let i1 = (i0 + MC).min(m);
                for p0 in (0..k).step_by(KC) {
                    let p1 = (p0 + KC).min(k);
                    for j0 in (0..n).step_by(NC) {
                        let j1 = (j0 + NC).min(n);
                        for i in i0..i1 {
                            let a_row = &a_data[i * k..(i + 1) * k];
                            let c_row = &mut c_block[(i - i0) * n..(i - i0 + 1) * n];
                            for p in p0..p1 {
                                let aip = a_row[p];
                                if aip == 0.0 {
                                    continue;
                                }
                                let b_row = &b_data[p * n..(p + 1) * n];
                                for j in j0..j1 {
                                    c_row[j] += aip * b_row[j];
                                }
                            }
                        }
                    }
                }
            });
    }

    /// `C = Aᵀ · B` without materializing the transpose.
    pub fn matmul_tn(&self, b: &DMatrix) -> DMatrix {
        assert_eq!(self.rows, b.rows, "matmul_tn: inner dim mismatch");
        let (m, n) = (self.cols, b.cols);
        let k = self.rows;
        let mut c = DMatrix::zeros(m, n);
        // Parallelize over output rows; each output row i gathers column i of A.
        c.data.par_chunks_mut(n).enumerate().for_each(|(i, c_row)| {
            for p in 0..k {
                let a_pi = self.data[p * m + i];
                if a_pi == 0.0 {
                    continue;
                }
                let b_row = &b.data[p * n..(p + 1) * n];
                for j in 0..n {
                    c_row[j] += a_pi * b_row[j];
                }
            }
        });
        c
    }

    /// `C = A · Bᵀ`.
    pub fn matmul_nt(&self, b: &DMatrix) -> DMatrix {
        assert_eq!(self.cols, b.cols, "matmul_nt: inner dim mismatch");
        let (m, n) = (self.rows, b.rows);
        let mut c = DMatrix::zeros(m, n);
        c.data.par_chunks_mut(n).enumerate().for_each(|(i, c_row)| {
            let a_row = self.row(i);
            for (j, cj) in c_row.iter_mut().enumerate() {
                *cj = crate::vec_ops::dot(a_row, b.row(j));
            }
        });
        c
    }

    /// Frobenius norm.
    pub fn norm_fro(&self) -> f64 {
        crate::vec_ops::norm2(&self.data)
    }

    /// `self ← self + alpha · other`.
    pub fn add_scaled(&mut self, alpha: f64, other: &DMatrix) {
        assert_eq!(self.rows, other.rows);
        assert_eq!(self.cols, other.cols);
        crate::vec_ops::axpy(alpha, &other.data, &mut self.data);
    }

    /// Scale all entries.
    pub fn scale(&mut self, alpha: f64) {
        crate::vec_ops::scale(alpha, &mut self.data);
    }

    /// Force exact symmetry: `A ← (A + Aᵀ)/2`. Used on Gram matrices whose
    /// floating-point assembly is only symmetric to rounding.
    pub fn symmetrize(&mut self) {
        assert_eq!(self.rows, self.cols, "symmetrize: square only");
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                let v = 0.5 * (self[(i, j)] + self[(j, i)]);
                self[(i, j)] = v;
                self[(j, i)] = v;
            }
        }
    }

    /// Main diagonal.
    pub fn diag(&self) -> Vec<f64> {
        (0..self.rows.min(self.cols))
            .map(|i| self[(i, i)])
            .collect()
    }

    /// Add `alpha` to the diagonal (e.g. `K ← K + σ² I`).
    pub fn shift_diag(&mut self, alpha: f64) {
        let n = self.rows.min(self.cols);
        for i in 0..n {
            self[(i, i)] += alpha;
        }
    }
}

impl Index<(usize, usize)> for DMatrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for DMatrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for DMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "DMatrix {}x{} [", self.rows, self.cols)?;
        let show = self.rows.min(8);
        for i in 0..show {
            let cols = self.cols.min(8);
            let row: Vec<String> = (0..cols)
                .map(|j| format!("{:10.4e}", self[(i, j)]))
                .collect();
            writeln!(
                f,
                "  [{}{}]",
                row.join(", "),
                if self.cols > 8 { ", …" } else { "" }
            )?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rand_mat(rows: usize, cols: usize, seed: u64) -> DMatrix {
        // Cheap deterministic LCG so tests don't need the rand crate here.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        DMatrix::from_fn(rows, cols, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        })
    }

    fn naive_matmul(a: &DMatrix, b: &DMatrix) -> DMatrix {
        let mut c = DMatrix::zeros(a.nrows(), b.ncols());
        for i in 0..a.nrows() {
            for j in 0..b.ncols() {
                let mut s = 0.0;
                for p in 0..a.ncols() {
                    s += a[(i, p)] * b[(p, j)];
                }
                c[(i, j)] = s;
            }
        }
        c
    }

    #[test]
    fn matmul_matches_naive() {
        for &(m, k, n) in &[(3, 4, 5), (65, 130, 70), (128, 128, 128), (1, 7, 1)] {
            let a = rand_mat(m, k, 1);
            let b = rand_mat(k, n, 2);
            let c1 = a.matmul(&b);
            let c2 = naive_matmul(&a, &b);
            let mut diff = c1.clone();
            diff.add_scaled(-1.0, &c2);
            assert!(
                diff.norm_fro() < 1e-10 * c2.norm_fro().max(1.0),
                "matmul mismatch at {m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn matmul_into_reuses_output_and_matches_matmul_bitwise() {
        let a = rand_mat(65, 34, 9);
        let b = rand_mat(34, 21, 10);
        // Stale garbage in the reused output must be fully overwritten.
        let mut c = rand_mat(65, 21, 11);
        a.matmul_into(&b, &mut c);
        let fresh = a.matmul(&b);
        assert_eq!(c.as_slice(), fresh.as_slice());
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let a = rand_mat(40, 23, 3);
        let b = rand_mat(40, 17, 4);
        let c1 = a.matmul_tn(&b);
        let c2 = a.transpose().matmul(&b);
        let mut diff = c1.clone();
        diff.add_scaled(-1.0, &c2);
        assert!(diff.norm_fro() < 1e-11);
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = rand_mat(21, 33, 5);
        let b = rand_mat(19, 33, 6);
        let c1 = a.matmul_nt(&b);
        let c2 = a.matmul(&b.transpose());
        let mut diff = c1.clone();
        diff.add_scaled(-1.0, &c2);
        assert!(diff.norm_fro() < 1e-11);
    }

    #[test]
    fn matvec_consistent_with_matmul() {
        let a = rand_mat(30, 20, 7);
        let x: Vec<f64> = (0..20).map(|i| (i as f64 * 0.7).sin()).collect();
        let mut y = vec![0.0; 30];
        a.matvec(&x, &mut y);
        let xm = DMatrix::from_vec(20, 1, x.clone());
        let ym = a.matmul(&xm);
        for i in 0..30 {
            assert!((y[i] - ym[(i, 0)]).abs() < 1e-12);
        }
    }

    #[test]
    fn matvec_is_one_lane_dot_per_row_at_any_thread_count() {
        // Either side of PAR_THRESHOLD, a row count that is not a multiple
        // of the row block, more columns than PAR_THRESHOLD, and (1, 1).
        let t = crate::vec_ops::PAR_THRESHOLD;
        let shapes = [(1, 1), (30, 20), (127, 129), (300, 100), (7, t + 3)];
        for threads in [1, 4] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            for (s, &(m, n)) in shapes.iter().enumerate() {
                let a = rand_mat(m, n, 20 + s as u64);
                let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).cos()).collect();
                let mut y = vec![f64::NAN; m];
                pool.install(|| a.matvec(&x, &mut y));
                for i in 0..m {
                    let want = crate::vec_ops::dot_lanes(a.row(i), &x);
                    assert_eq!(y[i], want, "{m}x{n} row {i} at {threads} threads");
                }
                let ym = a.matmul(&DMatrix::from_vec(n, 1, x.clone()));
                let rel = crate::vec_ops::rel_err(&y, ym.as_slice());
                assert!(rel < 1e-12, "{m}x{n}: {rel:.2e} from matmul");
            }
        }
    }

    #[test]
    fn matvec_t_is_transpose_action() {
        let a = rand_mat(12, 9, 8);
        let x: Vec<f64> = (0..12).map(|i| i as f64).collect();
        let mut y1 = vec![0.0; 9];
        a.matvec_t(&x, &mut y1);
        let mut y2 = vec![0.0; 9];
        a.transpose().matvec(&x, &mut y2);
        for (u, v) in y1.iter().zip(&y2) {
            assert!((u - v).abs() < 1e-12);
        }
    }

    #[test]
    fn identity_is_neutral() {
        let a = rand_mat(15, 15, 9);
        let c = a.matmul(&DMatrix::identity(15));
        let mut diff = c;
        diff.add_scaled(-1.0, &a);
        assert!(diff.norm_fro() < 1e-14);
    }

    #[test]
    fn symmetrize_kills_asymmetry() {
        let mut a = rand_mat(10, 10, 10);
        assert_ne!(a, a.transpose());
        a.symmetrize();
        assert_eq!(a, a.transpose());
    }

    #[test]
    fn transpose_involutive() {
        let a = rand_mat(6, 11, 11);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn shift_diag_adds() {
        let mut a = DMatrix::zeros(3, 3);
        a.shift_diag(2.5);
        assert_eq!(a.diag(), vec![2.5, 2.5, 2.5]);
    }
}
