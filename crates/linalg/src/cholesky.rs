//! Blocked Cholesky factorization and triangular solves.
//!
//! The paper factorizes the dense, symmetric data-space Hessian
//! `K = Γnoise + F G*` (dimension `Nd·Nt`) with cuSOLVERMp in 22 s on 25
//! GPUs. This module is the CPU stand-in: a right-looking blocked
//! factorization whose trailing-matrix update (the GEMM-rich part that
//! dominates flops) is parallelized with rayon, plus forward/backward
//! substitution with multiple right-hand sides.
//!
//! Solves run **RHS-major** through one forward/backward sweep pair: each
//! panel of right-hand sides is transposed once into an [`RhsPanel`] (one
//! RHS per contiguous row; a single RHS already is one such row), and
//! every row update in both sweeps is a unit-stride lane-width dot of a
//! factor row against an RHS row — the backward sweep reads the mirrored
//! upper triangle, so it streams factor *rows* instead of walking
//! stride-`n` factor columns. A single-RHS solve is therefore
//! bit-identical to the same column of any panel solve.

use crate::matrix::DMatrix;
use crate::rhs_panel::RhsPanel;
use crate::vec_ops;
use rayon::prelude::*;

/// Block size for the panel factorization. The trailing update works on
/// `NB × NB` tiles.
const NB: usize = 64;

/// Panel width for the multi-RHS triangular solves: right-hand sides
/// (RHS-major panel *rows*) handled per traversal of the factor. Wide
/// enough that a serial batch of 64 streams walks the factor once (the
/// factor stream dominates once it outgrows L2), narrow enough that a
/// panel of `Nd·Nt`-long rows stays L2-resident; multi-thread runs still
/// split panels down to `nrhs / threads`.
const SOLVE_PANEL: usize = 64;

/// Lower-triangular Cholesky factor `L` with `A = L Lᵀ`.
pub struct Cholesky {
    /// `n × n` matrix whose lower triangle holds `L` and whose strict
    /// upper triangle holds the mirror `Lᵀ` (filled once at factor time),
    /// so backward sweeps read contiguous rows — `l[(i, j)] = L[j][i]` for
    /// `j > i` — instead of walking stride-`n` columns.
    l: DMatrix,
}

/// Error raised when the matrix is not (numerically) positive definite.
#[derive(Debug, Clone, PartialEq)]
pub struct NotPositiveDefinite {
    /// Index of the pivot that failed.
    pub pivot: usize,
    /// Value of the failing pivot before the sqrt.
    pub value: f64,
}

impl std::fmt::Display for NotPositiveDefinite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "matrix not positive definite: pivot {} = {:.3e}",
            self.pivot, self.value
        )
    }
}

impl std::error::Error for NotPositiveDefinite {}

impl Cholesky {
    /// Factor a symmetric positive definite matrix. Only the lower triangle
    /// of `a` is read.
    ///
    /// # Example
    ///
    /// ```
    /// use tsunami_linalg::{Cholesky, DMatrix};
    /// // A small SPD matrix.
    /// let mut a = DMatrix::from_fn(3, 3, |i, j| if i == j { 4.0 } else { 1.0 });
    /// let ch = Cholesky::factor(&a).unwrap();
    /// let x = ch.solve(&[6.0, 6.0, 6.0]);
    /// // A x = b with b = 6·1 and row sums 6 gives x = 1.
    /// for v in x {
    ///     assert!((v - 1.0).abs() < 1e-12);
    /// }
    /// a[(0, 0)] = -1.0; // no longer positive definite
    /// assert!(Cholesky::factor(&a).is_err());
    /// ```
    pub fn factor(a: &DMatrix) -> Result<Cholesky, NotPositiveDefinite> {
        assert_eq!(a.nrows(), a.ncols(), "cholesky: square only");
        let mut l = a.clone();
        let n = l.nrows();

        for k0 in (0..n).step_by(NB) {
            let k1 = (k0 + NB).min(n);
            // 1. Unblocked factorization of the diagonal block A[k0..k1, k0..k1].
            for j in k0..k1 {
                let mut d = l[(j, j)];
                for p in k0..j {
                    d -= l[(j, p)] * l[(j, p)];
                }
                if d <= 0.0 || !d.is_finite() {
                    return Err(NotPositiveDefinite { pivot: j, value: d });
                }
                let djj = d.sqrt();
                l[(j, j)] = djj;
                for i in (j + 1)..k1 {
                    let mut s = l[(i, j)];
                    for p in k0..j {
                        s -= l[(i, p)] * l[(j, p)];
                    }
                    l[(i, j)] = s / djj;
                }
            }
            if k1 == n {
                break;
            }
            // 2. Panel solve: L[k1.., k0..k1] ← A[k1.., k0..k1] · L[k0..k1,k0..k1]^{-T},
            //    parallel over rows (each row is an independent triangular solve).
            {
                // Copy the diagonal block to avoid aliasing inside the parallel loop.
                let mut diag = vec![0.0; (k1 - k0) * (k1 - k0)];
                for i in k0..k1 {
                    for j in k0..=i {
                        diag[(i - k0) * (k1 - k0) + (j - k0)] = l[(i, j)];
                    }
                }
                let nb = k1 - k0;
                let ncols = l.ncols();
                let data = l.as_mut_slice();
                let (_, below) = data.split_at_mut(k1 * ncols);
                below.par_chunks_mut(ncols).for_each(|row| {
                    for j in 0..nb {
                        let mut s = row[k0 + j];
                        for p in 0..j {
                            s -= row[k0 + p] * diag[j * nb + p];
                        }
                        row[k0 + j] = s / diag[j * nb + j];
                    }
                });
            }
            // 3. Trailing update: A[k1.., k1..] ← A[k1.., k1..] − P · Pᵀ with
            //    P = L[k1.., k0..k1]; only the lower triangle is maintained.
            {
                let nb = k1 - k0;
                let ncols = l.ncols();
                // Snapshot the panel (rows k1..n, cols k0..k1).
                let panel: Vec<f64> = (k1..n)
                    .flat_map(|i| (k0..k1).map(move |j| (i, j)))
                    .map(|(i, j)| l[(i, j)])
                    .collect();
                let data = l.as_mut_slice();
                let (_, below) = data.split_at_mut(k1 * ncols);
                below
                    .par_chunks_mut(ncols)
                    .enumerate()
                    .for_each(|(ri, row)| {
                        let pi = &panel[ri * nb..(ri + 1) * nb];
                        // Update columns k1..=k1+ri (lower triangle of the trailing block).
                        for cj in 0..=ri {
                            let pj = &panel[cj * nb..(cj + 1) * nb];
                            let mut s = 0.0;
                            for p in 0..nb {
                                s += pi[p] * pj[p];
                            }
                            row[k1 + cj] -= s;
                        }
                    });
            }
        }
        // Mirror the factor into the strict upper triangle (l[(i, j)] =
        // L[j][i] for j > i): an O(n²) one-time cost that lets the
        // backward sweep stream contiguous factor rows instead of
        // stride-n columns.
        for i in 0..n {
            for j in (i + 1)..n {
                l[(i, j)] = l[(j, i)];
            }
        }
        Ok(Cholesky { l })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.l.nrows()
    }

    /// Solve `A x = b` in place (`b` is overwritten with `x`).
    pub fn solve_in_place(&self, b: &mut [f64]) {
        assert_eq!(b.len(), self.dim(), "cholesky solve: rhs dim");
        self.solve_leading_in_place(self.dim(), b);
    }

    /// Solve `A x = b`, returning a fresh vector.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = b.to_vec();
        self.solve_in_place(&mut x);
        x
    }

    /// Solve `A X = B` for a multi-RHS block. `B` is `n × nrhs`; returns
    /// `X` of the same shape. The full-width case of
    /// [`Self::solve_leading_multi`].
    pub fn solve_multi(&self, b: &DMatrix) -> DMatrix {
        assert_eq!(b.nrows(), self.dim(), "solve_multi: rhs rows");
        self.solve_leading_multi(self.dim(), b)
    }

    /// Solve `A[..k, ..k] X = B` in place on an RHS-major panel whose rows
    /// have length `k` (one RHS per contiguous row): one forward and one
    /// backward sweep, each walking the truncated factor once for the
    /// whole panel.
    pub fn solve_leading_panel_in_place(&self, k: usize, p: &mut RhsPanel) {
        assert!(k <= self.dim(), "leading block exceeds dimension");
        assert_eq!(p.dim(), k, "solve_leading_panel: rhs dim");
        self.forward(k, p.as_mut_slice());
        self.backward(k, p.as_mut_slice());
    }

    /// Forward sweep `L[..k,..k] Y = B` in place on RHS-major rows of
    /// length `k` (one RHS per contiguous row; a single RHS is one row):
    /// [`Self::forward_range`] over `[0, k)`.
    fn forward(&self, k: usize, rhs: &mut [f64]) {
        if k > 0 {
            let mut rows: Vec<&mut [f64]> = rhs.chunks_exact_mut(k).collect();
            self.forward_range(0, k, &mut rows);
        }
    }

    /// Backward sweep `Lᵀ[..k,..k] X = Y` in place, same row layout as
    /// [`Self::forward`]: [`Self::backward_range`] over `[0, k)`.
    fn backward(&self, k: usize, rhs: &mut [f64]) {
        if k > 0 {
            let mut rows: Vec<&mut [f64]> = rhs.chunks_exact_mut(k).collect();
            self.backward_range(k, 0, k, &mut rows);
        }
    }

    /// Forward-sweep range kernel: advance entries `[i0, i1)` of
    /// `L y = b` on every RHS row of `rows` (RHS-major, each at least `i1`
    /// long) whose entries `[0, i0)` are already solved. Entry `i` is a
    /// *unit-stride* dot of the factor row prefix against the RHS row
    /// prefix ([`vec_ops::dot_lanes`]), then pivot division, not a
    /// reciprocal multiply. Rows are walked in panels of `SOLVE_PANEL`,
    /// each factor row loaded once per panel.
    ///
    /// An entry reads only its own row's solved prefix, so a sweep over a
    /// prefix, or over a sequence of ranges, is bit for bit the prefix of
    /// the full sweep, whatever the grouping of rows. Every forward sweep
    /// of this type (single, panel and leading solves) is this kernel.
    pub fn forward_range<R: AsMut<[f64]>>(&self, i0: usize, i1: usize, rows: &mut [R]) {
        assert!(i0 <= i1 && i1 <= self.dim(), "forward_range: bad range");
        let n = self.l.ncols();
        let ld = self.l.as_slice();
        for panel in rows.chunks_mut(SOLVE_PANEL) {
            for i in i0..i1 {
                let lrow = &ld[i * n..i * n + i];
                let piv = ld[i * n + i];
                for row in panel.iter_mut() {
                    let row = row.as_mut();
                    row[i] = (row[i] - vec_ops::dot_lanes(lrow, &row[..i])) / piv;
                }
            }
        }
    }

    /// Backward-sweep range kernel on the leading `k × k` block: advance
    /// entries `[i0, i1)`, in descending order, of `Lᵀ[..k,..k] x = y` on
    /// every RHS row of `rows` (each at least `k` long) whose entries
    /// `[i1, k)` are already solved. Row `i` of the mirrored upper
    /// triangle *is* row `i` of `Lᵀ`, so each update is a *unit-stride*
    /// dot of two contiguous row suffixes — no stride-`n` walk down a
    /// factor column — then pivot division. Panels as in
    /// [`Self::forward_range`].
    pub fn backward_range<R: AsMut<[f64]>>(&self, k: usize, i0: usize, i1: usize, rows: &mut [R]) {
        assert!(
            i0 <= i1 && i1 <= k && k <= self.dim(),
            "backward_range: bad range"
        );
        let n = self.l.ncols();
        let ld = self.l.as_slice();
        for panel in rows.chunks_mut(SOLVE_PANEL) {
            for i in (i0..i1).rev() {
                let lrow = &ld[i * n + i + 1..i * n + k];
                let piv = ld[i * n + i];
                for row in panel.iter_mut() {
                    let row = row.as_mut();
                    row[i] = (row[i] - vec_ops::dot_lanes(lrow, &row[i + 1..k])) / piv;
                }
            }
        }
    }

    /// Forward substitution only: solve `L y = b` in place. Used by
    /// whitening transforms and sampling.
    pub fn solve_lower_in_place(&self, b: &mut [f64]) {
        assert_eq!(b.len(), self.dim());
        self.forward(self.dim(), b);
    }

    /// Apply the factor: `y = L x`. With `x ~ N(0, I)` this yields
    /// `y ~ N(0, A)` — the sampling primitive for Gaussian posteriors.
    pub fn apply_lower(&self, x: &[f64]) -> Vec<f64> {
        let n = self.dim();
        assert_eq!(x.len(), n);
        let mut y = vec![0.0; n];
        for i in 0..n {
            let row = self.l.row(i);
            let mut s = 0.0;
            for j in 0..=i {
                s += row[j] * x[j];
            }
            y[i] = s;
        }
        y
    }

    /// Log-determinant `log det A = 2 Σ log L_ii`. Used for evidence
    /// computations and diagnostics.
    pub fn log_det(&self) -> f64 {
        (0..self.dim()).map(|i| self.l[(i, i)].ln()).sum::<f64>() * 2.0
    }

    /// Solve `A[..k, ..k] x = b` using only the leading `k × k` block of
    /// the factor — valid because the leading principal submatrix of `L`
    /// *is* the Cholesky factor of the leading principal submatrix of `A`.
    ///
    /// This is what makes streaming early warning cheap: the data-space
    /// Hessian for a truncated observation window is a leading principal
    /// block of the full `K` (data are ordered time-major), so one offline
    /// factorization serves every window length.
    pub fn solve_leading_in_place(&self, k: usize, b: &mut [f64]) {
        assert!(k <= self.dim(), "leading block exceeds dimension");
        assert_eq!(b.len(), k, "solve_leading: rhs dim");
        self.forward(k, b);
        self.backward(k, b);
    }

    /// Solve `A[..k, ..k] X = B` for a multi-RHS block (`b` is
    /// `k × nrhs`), returning `X` — so a batch of truncated-window
    /// right-hand sides pays one factor traversal per panel instead of one
    /// per stream.
    ///
    /// Columns are processed in RHS-major panels of up to `SOLVE_PANEL`
    /// right-hand sides (narrowed when the thread pool is wider than the
    /// batch): each panel is gathered **once** into an [`RhsPanel`], solved
    /// by [`Self::solve_leading_panel_in_place`], and scattered back;
    /// panels run in parallel. Because every RHS row is swept
    /// independently, the panel split does not change any column's
    /// arithmetic — the result is bit-identical to a single-panel solve,
    /// and each column to [`Self::solve_leading_in_place`] on it.
    pub fn solve_leading_multi(&self, k: usize, b: &DMatrix) -> DMatrix {
        assert!(k <= self.dim(), "leading block exceeds dimension");
        assert_eq!(b.nrows(), k, "solve_leading_multi: rhs rows");
        let nrhs = b.ncols();
        let threads = rayon::current_num_threads().max(1);
        let panel = SOLVE_PANEL.min(nrhs.div_ceil(threads)).max(1);
        if nrhs <= panel {
            let mut p = RhsPanel::from_matrix(b);
            self.solve_leading_panel_in_place(k, &mut p);
            return p.to_matrix();
        }
        let mut x = DMatrix::zeros(k, nrhs);
        let bounds: Vec<usize> = (0..nrhs).step_by(panel).collect();
        let panels: Vec<RhsPanel> = bounds
            .par_iter()
            .map(|&j0| {
                let j1 = (j0 + panel).min(nrhs);
                let mut p = RhsPanel::gather_cols(b, j0, j1);
                self.solve_leading_panel_in_place(k, &mut p);
                p
            })
            .collect();
        for (&j0, p) in bounds.iter().zip(&panels) {
            p.scatter_cols(&mut x, j0);
        }
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Random SPD matrix A = M Mᵀ + n·I.
    fn spd(n: usize, seed: u64) -> DMatrix {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let m = DMatrix::from_fn(n, n, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        });
        let mut a = m.matmul_nt(&m);
        a.shift_diag(n as f64 * 0.1 + 1.0);
        a.symmetrize();
        a
    }

    #[test]
    fn reconstructs_matrix() {
        for &n in &[1, 2, 5, 63, 64, 65, 130] {
            let a = spd(n, n as u64);
            let ch = Cholesky::factor(&a).unwrap();
            // Rebuild L·Lᵀ from the lower triangle only.
            let mut l = DMatrix::zeros(n, n);
            for i in 0..n {
                for j in 0..=i {
                    l[(i, j)] = ch.l[(i, j)];
                }
            }
            let rec = l.matmul_nt(&l);
            let mut diff = rec;
            diff.add_scaled(-1.0, &a);
            assert!(
                diff.norm_fro() < 1e-10 * a.norm_fro(),
                "reconstruction failed at n={n}: {}",
                diff.norm_fro()
            );
        }
    }

    #[test]
    fn solve_residual_small() {
        let n = 97;
        let a = spd(n, 3);
        let ch = Cholesky::factor(&a).unwrap();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).sin()).collect();
        let x = ch.solve(&b);
        let mut r = vec![0.0; n];
        a.matvec(&x, &mut r);
        crate::vec_ops::axpy(-1.0, &b, &mut r);
        assert!(crate::vec_ops::norm2(&r) < 1e-9 * crate::vec_ops::norm2(&b));
    }

    #[test]
    fn solve_multi_matches_single() {
        let n = 40;
        let a = spd(n, 4);
        let ch = Cholesky::factor(&a).unwrap();
        let b = DMatrix::from_fn(n, 7, |i, j| ((i * 7 + j) as f64 * 0.11).cos());
        let x = ch.solve_multi(&b);
        for j in 0..7 {
            let xj = ch.solve(&b.col(j));
            for i in 0..n {
                assert!((x[(i, j)] - xj[i]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn solve_multi_matches_single_across_panel_boundary() {
        // Widths straddling SOLVE_PANEL exercise both the single-panel
        // fast path and the panel-parallel decomposition (including a
        // ragged final panel).
        let n = 53;
        let a = spd(n, 13);
        let ch = Cholesky::factor(&a).unwrap();
        for &nrhs in &[1usize, 31, 32, 33, 70] {
            let b = DMatrix::from_fn(n, nrhs, |i, j| ((i * 3 + 5 * j) as f64 * 0.17).sin());
            let x = ch.solve_multi(&b);
            for j in 0..nrhs {
                let xj = ch.solve(&b.col(j));
                for i in 0..n {
                    assert!(
                        (x[(i, j)] - xj[i]).abs() < 1e-11,
                        "nrhs={nrhs} col {j} row {i}: {} vs {}",
                        x[(i, j)],
                        xj[i]
                    );
                }
            }
        }
    }

    #[test]
    fn b1_multi_paths_bit_identical_to_scalar() {
        // Every multi-RHS entry point at nrhs = 1 must reproduce the
        // single-RHS solve to the last ulp (the pivot-division path the
        // B=1 wrappers and the golden regression pin).
        let n = 79;
        let a = spd(n, 41);
        let ch = Cholesky::factor(&a).unwrap();
        let bvec: Vec<f64> = (0..n).map(|i| (i as f64 * 0.41).sin()).collect();
        let b = DMatrix::from_vec(n, 1, bvec.clone());

        let x_scalar = ch.solve(&bvec);
        let x_multi = ch.solve_multi(&b);
        for i in 0..n {
            assert_eq!(x_multi[(i, 0)], x_scalar[i], "solve_multi row {i}");
        }

        let k = 37;
        let bk = DMatrix::from_vec(k, 1, bvec[..k].to_vec());
        let xk = ch.solve_leading_multi(k, &bk);
        let mut xk_ref = bvec[..k].to_vec();
        ch.solve_leading_in_place(k, &mut xk_ref);
        for i in 0..k {
            assert_eq!(xk[(i, 0)], xk_ref[i], "leading row {i}");
        }
    }

    #[test]
    fn panel_api_matches_matrix_api_exactly() {
        // The RHS-major panel entry point and the DMatrix wrappers run the
        // same sweeps; crossing the layout boundary must not change a
        // single bit.
        let n = 53;
        let a = spd(n, 61);
        let ch = Cholesky::factor(&a).unwrap();
        let b = DMatrix::from_fn(n, 9, |i, j| ((i + 17 * j) as f64 * 0.19).cos());

        let x = ch.solve_multi(&b);
        let mut p = crate::RhsPanel::from_matrix(&b);
        ch.solve_leading_panel_in_place(n, &mut p);
        assert_eq!(p.to_matrix(), x);

        let k = 31;
        let bk = DMatrix::from_fn(k, 9, |i, j| ((i + 3 * j) as f64 * 0.29).sin());
        let xk = ch.solve_leading_multi(k, &bk);
        let mut pk = crate::RhsPanel::from_matrix(&bk);
        ch.solve_leading_panel_in_place(k, &mut pk);
        assert_eq!(pk.to_matrix(), xk);
    }

    #[test]
    fn rejects_indefinite() {
        let mut a = DMatrix::identity(4);
        a[(2, 2)] = -1.0;
        assert!(matches!(
            Cholesky::factor(&a),
            Err(NotPositiveDefinite { pivot: 2, .. })
        ));
    }

    #[test]
    fn log_det_of_diagonal() {
        let mut a = DMatrix::zeros(3, 3);
        a[(0, 0)] = 2.0;
        a[(1, 1)] = 3.0;
        a[(2, 2)] = 4.0;
        let ch = Cholesky::factor(&a).unwrap();
        assert!((ch.log_det() - (24.0f64).ln()).abs() < 1e-12);
    }

    #[test]
    fn solve_leading_matches_subfactor() {
        // Factor the full matrix once, then check that solve_leading(k, ·)
        // equals a fresh factorization of the leading k×k block.
        let n = 57;
        let a = spd(n, 11);
        let ch = Cholesky::factor(&a).unwrap();
        for &k in &[1usize, 2, 13, 40, 57] {
            let sub = DMatrix::from_fn(k, k, |i, j| a[(i, j)]);
            let ch_sub = Cholesky::factor(&sub).unwrap();
            let b: Vec<f64> = (0..k).map(|i| (i as f64 * 0.7).sin() + 0.1).collect();
            let x_ref = ch_sub.solve(&b);
            let mut x = b.clone();
            ch.solve_leading_in_place(k, &mut x);
            for (u, v) in x.iter().zip(&x_ref) {
                assert!(
                    (u - v).abs() < 1e-10 * v.abs().max(1e-12),
                    "k={k}: {u} vs {v}"
                );
            }
        }
    }

    #[test]
    fn solve_leading_full_width_equals_solve() {
        let n = 33;
        let a = spd(n, 21);
        let ch = Cholesky::factor(&a).unwrap();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.9).cos()).collect();
        let x_full = ch.solve(&b);
        let mut x = b.clone();
        ch.solve_leading_in_place(n, &mut x);
        for (u, v) in x.iter().zip(&x_full) {
            assert!((u - v).abs() < 1e-13);
        }
    }

    #[test]
    fn solve_leading_multi_matches_single_leading() {
        // Every column of the leading-block panel solve must be
        // bit-compatible with the single-RHS leading solve, across widths
        // straddling SOLVE_PANEL and truncation depths straddling NB.
        let n = 97;
        let a = spd(n, 29);
        let ch = Cholesky::factor(&a).unwrap();
        for &k in &[1usize, 17, 64, 97] {
            for &nrhs in &[1usize, 2, 31, 32, 33, 70] {
                let b = DMatrix::from_fn(k, nrhs, |i, j| ((i * 7 + 3 * j) as f64 * 0.13).sin());
                let x = ch.solve_leading_multi(k, &b);
                if nrhs > 1 {
                    // The panel split must not change a bit of any column.
                    let mut whole = crate::RhsPanel::from_matrix(&b);
                    ch.solve_leading_panel_in_place(k, &mut whole);
                    assert_eq!(whole.to_matrix(), x, "one panel vs panel split");
                }
                for j in 0..nrhs {
                    let mut xj = b.col(j);
                    ch.solve_leading_in_place(k, &mut xj);
                    for i in 0..k {
                        assert_eq!(x[(i, j)], xj[i], "k={k} nrhs={nrhs} col {j} row {i}");
                    }
                }
            }
        }
    }

    #[test]
    fn solve_leading_multi_full_width_equals_solve_multi() {
        let n = 41;
        let a = spd(n, 33);
        let ch = Cholesky::factor(&a).unwrap();
        let b = DMatrix::from_fn(n, 9, |i, j| ((i + 13 * j) as f64 * 0.27).cos());
        let x1 = ch.solve_multi(&b);
        let x2 = ch.solve_leading_multi(n, &b);
        for i in 0..n {
            for j in 0..9 {
                assert!((x1[(i, j)] - x2[(i, j)]).abs() < 1e-13);
            }
        }
    }

    #[test]
    fn range_sweeps_compose_to_the_full_sweep_bit_for_bit() {
        // Forward over a sequence of ranges is the full forward sweep, and
        // its prefix is the forward sweep of the prefix; backward ranges in
        // descending order then finish `solve_leading_multi` — bit for bit,
        // whatever the grouping of rows (rows straddle SOLVE_PANEL).
        let n = 97;
        let a = spd(n, 73);
        let ch = Cholesky::factor(&a).unwrap();
        let nrhs = 70;
        let b = DMatrix::from_fn(n, nrhs, |i, j| ((i * 5 + 11 * j) as f64 * 0.23).sin());
        let mut full: Vec<Vec<f64>> = (0..nrhs).map(|j| b.col(j)).collect();
        ch.forward_range(0, n, &mut full);
        for &k in &[1usize, 17, 64, 65, 97] {
            // Ranges [0, 5), [5, 40), [40, k) clipped to k, on rows of
            // length k, in two uneven groups of rows.
            let mut rows: Vec<Vec<f64>> = (0..nrhs).map(|j| b.col(j)[..k].to_vec()).collect();
            let (head, tail) = rows.split_at_mut(23);
            let mut prev = 0;
            for cut in [5usize, 40, k] {
                let cut = cut.min(k);
                if cut > prev {
                    ch.forward_range(prev, cut, head);
                    ch.forward_range(prev, cut, tail);
                    prev = cut;
                }
            }
            for (row, whole) in rows.iter().zip(&full) {
                assert_eq!(row[..], whole[..k], "forward prefix at k = {k}");
            }
            let bk = DMatrix::from_fn(k, nrhs, |i, j| b[(i, j)]);
            let x = ch.solve_leading_multi(k, &bk);
            let mid = k / 2;
            ch.backward_range(k, mid, k, &mut rows);
            ch.backward_range(k, 0, mid, &mut rows);
            for (j, row) in rows.iter().enumerate() {
                assert_eq!(
                    row[..],
                    x.col(j)[..],
                    "forward + backward at k = {k}, rhs {j}"
                );
            }
        }
    }

    #[test]
    fn apply_lower_then_solve_lower_roundtrips() {
        let n = 31;
        let a = spd(n, 9);
        let ch = Cholesky::factor(&a).unwrap();
        let x: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        let mut y = ch.apply_lower(&x);
        ch.solve_lower_in_place(&mut y);
        for (u, v) in y.iter().zip(&x) {
            assert!((u - v).abs() < 1e-10);
        }
    }
}
