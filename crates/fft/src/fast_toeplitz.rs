//! FFT-accelerated block-Toeplitz matvec/matmat — the paper's §V-A engine.
//!
//! The block lower-triangular Toeplitz matrix is embedded in a block
//! circulant of length `L = next_pow2(2·Nt)`, which the DFT block-
//! diagonalizes. An apply is then
//!
//! 1. **forward stage**: one length-`L` FFT per input spatial index
//!    (`in_dim` FFTs),
//! 2. **frequency stage**: an independent `out_dim × in_dim` complex
//!    block product per frequency (embarrassingly parallel — this is where
//!    the 2D GPU-grid partitioning of the paper's FFTMatvec lives),
//! 3. **inverse stage**: one length-`L` inverse FFT per output index
//!    (`out_dim` FFTs), keeping the first `Nt` samples (the circulant
//!    wrap-around lands in the discarded tail).
//!
//! Cost: `O((Nd+Nm)·Nt log Nt + Nt·Nd·Nm)` versus `O(Nt²·Nd·Nm)` naive —
//! and versus *a pair of PDE solves per matvec* for the conventional
//! matrix-free Hessian.
//!
//! The three stages are written exactly twice, once per threading shape,
//! and both take the direction as a parameter (`Tᵀ` is the same symbol
//! walk with time-reversed load/store and the accumulation index swapped):
//!
//! - the **single-vector pipeline** parallelizes *inside* the apply (over
//!   spatial indices in the FFT stages, over frequencies in between) — the
//!   latency path of one observation stream;
//! - the **column-panel pipeline** runs one `PANEL`-wide block of columns
//!   serially and is parallelized *across* panels — the throughput path of
//!   Phase 2/3 assembly and batched Phase 4.
//!
//! `matvec{,_transpose}` use the first; `matmat{,_transpose}` use the
//! second unless the block has a single column (`k == 1`), which goes to
//! the first. Per column the two are bitwise the same arithmetic, so the
//! selection never changes a result. Called from inside another bulk
//! operation, either pipeline simply runs serially on that worker.
//!
//! Data layout notes (mirroring §V-A): spectra are stored
//! **frequency-major** (`spectra[f]` is a contiguous `out_dim × in_dim`
//! complex block) so the frequency stage streams contiguous memory, the
//! exact "exchange the order of space and time indices" optimization the
//! paper describes.

use crate::plan::FftPlan;
use crate::toeplitz::BlockToeplitz;
use rayon::prelude::*;
use tsunami_linalg::{DMatrix, RhsPanel, C64};

/// Panel width for the batched multi-RHS kernels: columns transformed per
/// traversal of the circulant symbols. Sized so a frequency's
/// `dim × PANEL` complex panel stays L1-resident while still amortizing
/// each symbol load over many columns; Phase 2's 256-column blocks split
/// into 16 parallel panels.
const PANEL: usize = 16;

/// FFT-form of a block lower-triangular Toeplitz operator.
pub struct FftBlockToeplitz {
    /// Number of time blocks.
    pub nt: usize,
    /// Rows per block.
    pub out_dim: usize,
    /// Columns per block.
    pub in_dim: usize,
    /// Circulant embedding length (power of two ≥ 2·nt).
    len: usize,
    plan: FftPlan,
    /// Frequency-major spectra: `spectra[f*out_dim*in_dim + r*in_dim + c]`
    /// = `T̂(f)[r,c]`.
    spectra: Vec<C64>,
}

impl FftBlockToeplitz {
    /// Precompute the spectra of the defining blocks.
    ///
    /// This is a one-time cost after Phase 1 delivers the blocks; it is the
    /// boundary between "offline" and "online" work for the map.
    pub fn from_blocks(t: &BlockToeplitz) -> Self {
        let nt = t.nt;
        let (out_dim, in_dim) = (t.out_dim, t.in_dim);
        let len = (2 * nt).next_power_of_two();
        let plan = FftPlan::new(len);
        let mut spectra = vec![C64::ZERO; len * out_dim * in_dim];
        // FFT each scalar sequence t_k[r,c]; parallel over (r,c) pairs.
        // Scatter into frequency-major layout afterwards.
        let per_pair: Vec<Vec<C64>> = (0..out_dim * in_dim)
            .into_par_iter()
            .map(|rc| {
                let (r, c) = (rc / in_dim, rc % in_dim);
                let mut buf = vec![C64::ZERO; len];
                for (k, blk) in t.blocks.iter().enumerate() {
                    buf[k] = C64::real(blk[(r, c)]);
                }
                plan.forward(&mut buf);
                buf
            })
            .collect();
        for (rc, seq) in per_pair.iter().enumerate() {
            for (f, &v) in seq.iter().enumerate() {
                spectra[f * out_dim * in_dim + rc] = v;
            }
        }
        FftBlockToeplitz {
            nt,
            out_dim,
            in_dim,
            len,
            plan,
            spectra,
        }
    }

    /// Total rows `out_dim · nt`.
    pub fn nrows(&self) -> usize {
        self.out_dim * self.nt
    }

    /// Total cols `in_dim · nt`.
    pub fn ncols(&self) -> usize {
        self.in_dim * self.nt
    }

    /// Circulant embedding length.
    pub fn embedding_len(&self) -> usize {
        self.len
    }

    /// Spectra storage in bytes.
    pub fn storage_bytes(&self) -> usize {
        self.spectra.len() * std::mem::size_of::<C64>()
    }

    /// Per-step (input, output) dimensions of `T`, or of `Tᵀ` when
    /// `TRANSPOSE`.
    fn dims<const TRANSPOSE: bool>(&self) -> (usize, usize) {
        if TRANSPOSE {
            (self.out_dim, self.in_dim)
        } else {
            (self.in_dim, self.out_dim)
        }
    }

    /// Slot of time step `t` in the circulant buffer. `Tᵀ = R · Toep(T_kᵀ)
    /// · R` with `R` the block time reversal, so the transpose loads and
    /// stores time-reversed.
    fn slot<const TRANSPOSE: bool>(&self, t: usize) -> usize {
        if TRANSPOSE {
            self.nt - 1 - t
        } else {
            t
        }
    }

    /// Matvec `y = T x` via the circulant embedding.
    pub fn matvec(&self, x: &[f64], y: &mut [f64]) {
        self.apply_vec::<false>(x, y);
    }

    /// Transpose matvec `z = Tᵀ w`.
    pub fn matvec_transpose(&self, w: &[f64], z: &mut [f64]) {
        self.apply_vec::<true>(w, z);
    }

    /// Multi-vector product `Y = T X` where `X` is `(in_dim·nt) × k`
    /// dense. Used to form the data-space Hessian `K` (Phase 2), the QoI
    /// covariance (Phase 3), and batched online inference (Phase 4)
    /// without `k` separate dispatches.
    pub fn matmat(&self, x: &DMatrix) -> DMatrix {
        self.apply_mat::<false>(x)
    }

    /// Multi-vector transpose product `Z = Tᵀ W`.
    pub fn matmat_transpose(&self, w: &DMatrix) -> DMatrix {
        self.apply_mat::<true>(w)
    }

    /// Latency pipeline: one vector through `T` (or `Tᵀ`), every stage
    /// parallel — over spatial indices in the FFT stages, over frequencies
    /// in the block-product stage.
    fn apply_vec<const TRANSPOSE: bool>(&self, x: &[f64], y: &mut [f64]) {
        let (od, id, len, nt) = (self.out_dim, self.in_dim, self.len, self.nt);
        let (src, dst) = self.dims::<TRANSPOSE>();
        assert_eq!(x.len(), src * nt, "fft matvec: input dim");
        assert_eq!(y.len(), dst * nt, "fft matvec: output dim");
        // Forward stage: spectrum of each input index's time series.
        let xhat: Vec<Vec<C64>> = (0..src)
            .into_par_iter()
            .map(|s| {
                let mut buf = vec![C64::ZERO; len];
                for t in 0..nt {
                    buf[self.slot::<TRANSPOSE>(t)] = C64::real(x[t * src + s]);
                }
                self.plan.forward(&mut buf);
                buf
            })
            .collect();
        // Frequency stage: ŷ_f = T̂_f x̂_f as one dot product per symbol
        // row r — or T̂_fᵀ x̂_f, the same (r, c) walk accumulated into the
        // column index (one axpy per symbol row).
        let yhat: Vec<Vec<C64>> = (0..len)
            .into_par_iter()
            .map(|f| {
                let blk = &self.spectra[f * od * id..(f + 1) * od * id];
                let mut out = vec![C64::ZERO; dst];
                for (r, row) in blk.chunks_exact(id).enumerate() {
                    if TRANSPOSE {
                        let xr = xhat[r][f];
                        for (o, &w) in out.iter_mut().zip(row) {
                            *o = o.mul_add(w, xr);
                        }
                    } else {
                        out[r] = row
                            .iter()
                            .zip(&xhat)
                            .fold(C64::ZERO, |acc, (&w, xc)| acc.mul_add(w, xc[f]));
                    }
                }
                out
            })
            .collect();
        // Inverse stage per output index, keeping the first nt samples.
        let cols: Vec<Vec<C64>> = (0..dst)
            .into_par_iter()
            .map(|r| {
                let mut buf: Vec<C64> = yhat.iter().map(|v| v[r]).collect();
                self.plan.inverse(&mut buf);
                buf
            })
            .collect();
        for t in 0..nt {
            for (r, col) in cols.iter().enumerate() {
                y[t * dst + r] = col[self.slot::<TRANSPOSE>(t)].re;
            }
        }
    }

    /// Route a `k`-column block: a single column goes through the
    /// frequency-parallel [`Self::apply_vec`] (it cannot be split into
    /// panels, and the latency-critical one-stream path must still spread
    /// across the pool); wider blocks are cut into `PANEL`-wide panels that
    /// run [`Self::apply_panel`] in parallel. Both are bitwise the same
    /// arithmetic per column.
    fn apply_mat<const TRANSPOSE: bool>(&self, x: &DMatrix) -> DMatrix {
        let (src, dst) = self.dims::<TRANSPOSE>();
        assert_eq!(x.nrows(), src * self.nt, "fft matmat: input rows");
        let k = x.ncols();
        let mut y = DMatrix::zeros(dst * self.nt, k);
        if k == 1 {
            // An n × 1 block is its one column, contiguous.
            self.apply_vec::<TRANSPOSE>(x.as_slice(), y.as_mut_slice());
            return y;
        }
        // Narrow the panels when the pool is wider than the batch, so a
        // small block still occupies every worker; each panel keeps its
        // own symbol-traversal amortization.
        let threads = rayon::current_num_threads().max(1);
        let width = PANEL.min(k.div_ceil(threads)).max(1);
        let bounds: Vec<usize> = (0..k).step_by(width).collect();
        let panels: Vec<RhsPanel> = bounds
            .par_iter()
            .map(|&j0| self.apply_panel::<TRANSPOSE>(x, j0, width.min(k - j0)))
            .collect();
        for (&j0, panel) in bounds.iter().zip(&panels) {
            panel.scatter_cols(&mut y, j0);
        }
        y
    }

    /// Throughput pipeline: columns `j0..j0+b` of `x` through `T` (or `Tᵀ`),
    /// serially. The panel crosses into the RHS-major layout once
    /// ([`RhsPanel::gather_cols`]), so each column's time series is one
    /// contiguous row, and comes back RHS-major for the caller to scatter.
    ///
    /// Panel spectra are stored frequency-major (`xhat[(f·src + s)·b + j]`):
    /// the frequency stage reads one contiguous `src × b` complex panel per
    /// frequency, and each symbol entry `T̂(f)[r,c]` is loaded **once per
    /// panel** and fused-multiply-added across all `b` stacked spectra (the
    /// paper batches the same way on the GPU — one 2D-grid kernel over many
    /// right-hand sides).
    fn apply_panel<const TRANSPOSE: bool>(&self, x: &DMatrix, j0: usize, b: usize) -> RhsPanel {
        let (od, id, len, nt) = (self.out_dim, self.in_dim, self.len, self.nt);
        let (src, dst) = self.dims::<TRANSPOSE>();
        let xp = RhsPanel::gather_cols(x, j0, j0 + b);
        // Forward stage: b·src FFTs, scattered frequency-major.
        let mut xhat = vec![C64::ZERO; len * src * b];
        let mut buf = vec![C64::ZERO; len];
        for j in 0..b {
            let xcol = xp.row(j);
            for s in 0..src {
                buf.fill(C64::ZERO);
                for t in 0..nt {
                    buf[self.slot::<TRANSPOSE>(t)] = C64::real(xcol[t * src + s]);
                }
                self.plan.forward(&mut buf);
                for (f, &v) in buf.iter().enumerate() {
                    xhat[(f * src + s) * b + j] = v;
                }
            }
        }
        // Frequency stage: the same (r, c) symbol walk in both directions,
        // accumulating w·X̂_f[c] into row r of Ŷ_f — or, transposed,
        // w·X̂_f[r] into row c — so the row that stays put is hoisted.
        let fma = |yrow: &mut [C64], w: C64, xrow: &[C64]| {
            for (yv, &xv) in yrow.iter_mut().zip(xrow) {
                *yv = yv.mul_add(w, xv);
            }
        };
        let mut yhat = vec![C64::ZERO; len * dst * b];
        for f in 0..len {
            let blk = &self.spectra[f * od * id..(f + 1) * od * id];
            let xpan = &xhat[f * src * b..(f + 1) * src * b];
            let ypan = &mut yhat[f * dst * b..(f + 1) * dst * b];
            if TRANSPOSE {
                for (row, xrow) in blk.chunks_exact(id).zip(xpan.chunks_exact(b)) {
                    for (&w, yrow) in row.iter().zip(ypan.chunks_exact_mut(b)) {
                        fma(yrow, w, xrow);
                    }
                }
            } else {
                for (row, yrow) in blk.chunks_exact(id).zip(ypan.chunks_exact_mut(b)) {
                    for (&w, xrow) in row.iter().zip(xpan.chunks_exact(b)) {
                        fma(yrow, w, xrow);
                    }
                }
            }
        }
        // Inverse stage: b·dst inverse FFTs, keeping the first nt samples
        // (the circulant wrap-around lands in the discarded tail).
        let mut out = RhsPanel::zeros(b, dst * nt);
        for j in 0..b {
            let col = out.row_mut(j);
            for r in 0..dst {
                for (f, v) in buf.iter_mut().enumerate() {
                    *v = yhat[(f * dst + r) * b + j];
                }
                self.plan.inverse(&mut buf);
                for t in 0..nt {
                    col[t * dst + r] = buf[self.slot::<TRANSPOSE>(t)].re;
                }
            }
        }
        out
    }
}

impl tsunami_linalg::LinearOperator for FftBlockToeplitz {
    fn nrows(&self) -> usize {
        self.out_dim * self.nt
    }
    fn ncols(&self) -> usize {
        self.in_dim * self.nt
    }
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.matvec(x, y);
    }
    fn apply_transpose(&self, x: &[f64], y: &mut [f64]) {
        self.matvec_transpose(x, y);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toeplitz::tests::random_toeplitz;
    use tsunami_linalg::LinearOperator;

    #[test]
    fn fft_matvec_matches_naive() {
        for &(nt, od, id) in &[(1, 2, 3), (4, 3, 5), (7, 1, 1), (16, 4, 2), (33, 2, 6)] {
            let t = random_toeplitz(nt, od, id, (nt * od * id) as u64);
            let fast = FftBlockToeplitz::from_blocks(&t);
            let x: Vec<f64> = (0..t.ncols()).map(|i| (i as f64 * 0.37).sin()).collect();
            let mut y1 = vec![0.0; t.nrows()];
            t.matvec_naive(&x, &mut y1);
            let mut y2 = vec![0.0; t.nrows()];
            fast.matvec(&x, &mut y2);
            for (a, b) in y1.iter().zip(&y2) {
                assert!((a - b).abs() < 1e-10, "nt={nt} od={od} id={id}");
            }
        }
    }

    #[test]
    fn fft_transpose_matches_naive() {
        for &(nt, od, id) in &[(1, 2, 3), (5, 3, 4), (12, 2, 7), (32, 5, 3)] {
            let t = random_toeplitz(nt, od, id, (nt + od + id) as u64);
            let fast = FftBlockToeplitz::from_blocks(&t);
            let w: Vec<f64> = (0..t.nrows()).map(|i| (i as f64 * 0.21).cos()).collect();
            let mut z1 = vec![0.0; t.ncols()];
            t.matvec_transpose_naive(&w, &mut z1);
            let mut z2 = vec![0.0; t.ncols()];
            fast.matvec_transpose(&w, &mut z2);
            for (a, b) in z1.iter().zip(&z2) {
                assert!((a - b).abs() < 1e-10, "nt={nt} od={od} id={id}");
            }
        }
    }

    /// One direction of `every_column_is_bit_identical_through_both_pipelines`.
    fn check_columns<const TRANSPOSE: bool>(t: &BlockToeplitz, threads: usize) {
        let fast = FftBlockToeplitz::from_blocks(t);
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let (src, dst) = fast.dims::<TRANSPOSE>();
        for k in [1usize, 2, 15, 16, 17, 40] {
            let x = DMatrix::from_fn(src * t.nt, k, |i, j| ((i + 3 * j) as f64 * 0.29).sin());
            let y = pool.install(|| fast.apply_mat::<TRANSPOSE>(&x));
            for j in 0..k {
                let xj = x.col(j);
                let mut alone = vec![0.0; dst * t.nt];
                pool.install(|| fast.apply_vec::<TRANSPOSE>(&xj, &mut alone));
                let panel = fast.apply_panel::<TRANSPOSE>(&x, j, 1);
                let mut naive = vec![0.0; dst * t.nt];
                if TRANSPOSE {
                    t.matvec_transpose_naive(&xj, &mut naive);
                } else {
                    t.matvec_naive(&xj, &mut naive);
                }
                let tag = format!("threads={threads} transpose={TRANSPOSE} k={k} col {j}");
                assert_eq!(y.col(j), alone, "{tag}: block vs single-vector");
                assert_eq!(panel.row(0), &alone[..], "{tag}: width-1 panel");
                for (a, b) in alone.iter().zip(&naive) {
                    assert!((a - b).abs() < 1e-10, "{tag}: {a} vs naive {b}");
                }
            }
        }
    }

    #[test]
    fn every_column_is_bit_identical_through_both_pipelines() {
        // Direction × block width × installed threads: column j of the
        // k-wide apply must equal, bit for bit, that column pushed alone
        // through the single-vector pipeline and through a width-1 panel.
        let t = random_toeplitz(7, 3, 4, 12);
        for threads in [1, 4] {
            check_columns::<false>(&t, threads);
            check_columns::<true>(&t, threads);
        }
    }

    #[test]
    fn matmat_matches_column_matvecs() {
        let t = random_toeplitz(9, 3, 4, 5);
        let fast = FftBlockToeplitz::from_blocks(&t);
        let x = DMatrix::from_fn(t.ncols(), 6, |i, j| ((i + 7 * j) as f64 * 0.19).sin());
        let y = fast.matmat(&x);
        for j in 0..6 {
            let mut yj = vec![0.0; t.nrows()];
            fast.matvec(&x.col(j), &mut yj);
            for i in 0..t.nrows() {
                assert!((y[(i, j)] - yj[i]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn matmat_matches_column_matvecs_across_panel_boundary() {
        // Batch widths straddling PANEL: single ragged panel, exactly one
        // panel, one full + one ragged, and several full panels.
        let t = random_toeplitz(7, 3, 4, 12);
        let fast = FftBlockToeplitz::from_blocks(&t);
        for &k in &[1usize, 15, 16, 17, 40] {
            let x = DMatrix::from_fn(t.ncols(), k, |i, j| ((i + 3 * j) as f64 * 0.29).sin());
            let y = fast.matmat(&x);
            for j in 0..k {
                let mut yj = vec![0.0; t.nrows()];
                fast.matvec(&x.col(j), &mut yj);
                for i in 0..t.nrows() {
                    assert!(
                        (y[(i, j)] - yj[i]).abs() < 1e-12,
                        "k={k} col {j} row {i}: {} vs {}",
                        y[(i, j)],
                        yj[i]
                    );
                }
            }
        }
    }

    #[test]
    fn matmat_transpose_matches_column_matvecs() {
        let t = random_toeplitz(10, 4, 3, 21);
        let fast = FftBlockToeplitz::from_blocks(&t);
        for &k in &[1usize, 5, 16, 19, 33] {
            let w = DMatrix::from_fn(t.nrows(), k, |i, j| ((2 * i + j) as f64 * 0.13).cos());
            let z = fast.matmat_transpose(&w);
            for j in 0..k {
                let mut zj = vec![0.0; t.ncols()];
                fast.matvec_transpose(&w.col(j), &mut zj);
                for i in 0..t.ncols() {
                    assert!(
                        (z[(i, j)] - zj[i]).abs() < 1e-12,
                        "k={k} col {j} row {i}: {} vs {}",
                        z[(i, j)],
                        zj[i]
                    );
                }
            }
        }
    }

    #[test]
    fn adjoint_identity_fft() {
        let t = random_toeplitz(11, 4, 3, 6);
        let fast = FftBlockToeplitz::from_blocks(&t);
        let x: Vec<f64> = (0..fast.ncols()).map(|i| (i as f64).sin()).collect();
        let w: Vec<f64> = (0..fast.nrows()).map(|i| (i as f64).cos()).collect();
        assert!(tsunami_linalg::operator::adjoint_defect(&fast, &x, &w) < 1e-12);
    }

    #[test]
    fn operator_trait_dispatch() {
        let t = random_toeplitz(3, 2, 2, 8);
        let fast = FftBlockToeplitz::from_blocks(&t);
        let dense = t.to_dense();
        let od = fast.to_dense();
        let mut diff = od;
        diff.add_scaled(-1.0, &dense);
        assert!(diff.norm_fro() < 1e-10);
    }
}
