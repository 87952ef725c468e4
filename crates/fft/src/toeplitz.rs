//! Block lower-triangular Toeplitz matrices: the discrete p2o/p2q maps.
//!
//! The LTI structure of the acoustic–gravity dynamics makes the discrete
//! parameter-to-observable map
//!
//! ```text
//!       ┌ T_0                     ┐
//!       │ T_1  T_0                │
//!   F = │ T_2  T_1  T_0           │ ,   T_k ∈ R^{out_dim × in_dim}
//!       │  ⋮    ⋱    ⋱    ⋱       │
//!       └ T_{Nt-1}  ⋯  T_1  T_0   ┘
//! ```
//!
//! fully described by its first block column — `Nd` adjoint PDE solves
//! instead of `Nm·Nt` forward solves, and `O(Nm·Nd·Nt)` storage. This module
//! holds the container, its extraction from an adjoint
//! ([`BlockToeplitz::from_adjoint`], the one Phase 1 routine every forward
//! model goes through), and the naive `O(Nt²)` matvec used as the oracle
//! for the FFT-accelerated path in [`crate::fast_toeplitz`].

use rayon::prelude::*;
use tsunami_linalg::DMatrix;

/// Block lower-triangular Toeplitz matrix stored as its first block column.
#[derive(Clone)]
pub struct BlockToeplitz {
    /// Number of block rows/columns (time steps `Nt`).
    pub nt: usize,
    /// Rows per block (`Nd` sensors or `Nq` QoI locations).
    pub out_dim: usize,
    /// Columns per block (`Nm` spatial parameters).
    pub in_dim: usize,
    /// Defining blocks `T_0 … T_{Nt−1}`, each `out_dim × in_dim`.
    pub blocks: Vec<DMatrix>,
}

impl std::fmt::Debug for BlockToeplitz {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "BlockToeplitz {{ nt: {}, out_dim: {}, in_dim: {} }}",
            self.nt, self.out_dim, self.in_dim
        )
    }
}

impl BlockToeplitz {
    /// Build from defining blocks (`blocks[k]` is the response at time lag `k`).
    /// # Example
    ///
    /// The FFT path reproduces the naive block-triangular product:
    ///
    /// ```
    /// use tsunami_fft::{BlockToeplitz, FftBlockToeplitz};
    /// use tsunami_linalg::DMatrix;
    ///
    /// // Nt = 2 defining blocks of a 1x2-per-step map.
    /// let blocks = vec![
    ///     DMatrix::from_fn(1, 2, |_, c| 1.0 + c as f64),
    ///     DMatrix::from_fn(1, 2, |_, c| 0.5 - c as f64),
    /// ];
    /// let t = BlockToeplitz::new(blocks, 1, 2);
    /// let fast = FftBlockToeplitz::from_blocks(&t);
    /// let x = vec![1.0, -1.0, 0.5, 2.0];
    /// let (mut y1, mut y2) = (vec![0.0; 2], vec![0.0; 2]);
    /// t.matvec_naive(&x, &mut y1);
    /// fast.matvec(&x, &mut y2);
    /// for (a, b) in y1.iter().zip(&y2) {
    ///     assert!((a - b).abs() < 1e-12);
    /// }
    /// ```
    pub fn new(blocks: Vec<DMatrix>, out_dim: usize, in_dim: usize) -> Self {
        assert!(!blocks.is_empty(), "BlockToeplitz: need at least one block");
        for (k, b) in blocks.iter().enumerate() {
            assert_eq!(b.nrows(), out_dim, "block {k}: row dim");
            assert_eq!(b.ncols(), in_dim, "block {k}: col dim");
        }
        BlockToeplitz {
            nt: blocks.len(),
            out_dim,
            in_dim,
            blocks,
        }
    }

    /// Extract the defining blocks of a causal, shift-invariant map from
    /// its full-horizon adjoint — the paper's Phase 1. The gradient of the
    /// *final* observation of output `r` with respect to parameter bin `j`
    /// is the block row `T_{Nt−1−j}[r, ·]`, so one adjoint application per
    /// output (a unit impulse on its final observation) yields that
    /// output's row of *every* block: `out_dim` applications.
    ///
    /// The outputs are handed to `adjoint` in chunks of up to `lanes`
    /// impulses (consecutive rows), and the chunks run in parallel.
    /// `adjoint` maps each `w` of a chunk (`out_dim·nt`, time-major) to
    /// `Tᵀw` (`in_dim·nt`, time-major), in order — a model that advances
    /// several adjoint states per sweep takes a whole chunk at once; with
    /// `lanes = 1` every row is its own parallel task.
    pub fn from_adjoint(
        nt: usize,
        out_dim: usize,
        in_dim: usize,
        lanes: usize,
        adjoint: impl Fn(&[&[f64]]) -> Vec<Vec<f64>> + Sync,
    ) -> Self {
        assert!(lanes >= 1, "from_adjoint: lanes must be positive");
        let chunks: Vec<Vec<Vec<f64>>> = (0..out_dim.div_ceil(lanes))
            .into_par_iter()
            .map(|c| {
                let impulses: Vec<Vec<f64>> = (c * lanes..((c + 1) * lanes).min(out_dim))
                    .map(|r| {
                        let mut w = vec![0.0; out_dim * nt];
                        w[(nt - 1) * out_dim + r] = 1.0;
                        w
                    })
                    .collect();
                let ws: Vec<&[f64]> = impulses.iter().map(Vec::as_slice).collect();
                let rows = adjoint(&ws);
                assert_eq!(rows.len(), ws.len(), "from_adjoint: one result per impulse");
                rows
            })
            .collect();
        let rows: Vec<Vec<f64>> = chunks.into_iter().flatten().collect();
        let blocks = (0..nt)
            .map(|k| {
                let j = nt - 1 - k;
                DMatrix::from_fn(out_dim, in_dim, |r, c| rows[r][j * in_dim + c])
            })
            .collect();
        BlockToeplitz::new(blocks, out_dim, in_dim)
    }

    /// Zero matrix with the given shape.
    pub fn zeros(nt: usize, out_dim: usize, in_dim: usize) -> Self {
        BlockToeplitz {
            nt,
            out_dim,
            in_dim,
            blocks: (0..nt).map(|_| DMatrix::zeros(out_dim, in_dim)).collect(),
        }
    }

    /// Total row dimension `out_dim · nt`.
    pub fn nrows(&self) -> usize {
        self.out_dim * self.nt
    }

    /// Total column dimension `in_dim · nt`.
    pub fn ncols(&self) -> usize {
        self.in_dim * self.nt
    }

    /// Memory footprint of the defining blocks in bytes (the paper's
    /// `O(Nm·Nd·Nt)` compact storage claim).
    pub fn storage_bytes(&self) -> usize {
        self.nt * self.out_dim * self.in_dim * std::mem::size_of::<f64>()
    }

    /// Naive causal matvec `y_i = Σ_{j ≤ i} T_{i−j} x_j` — `O(Nt²)` block
    /// products. Reference implementation and the "no-FFT" ablation.
    pub fn matvec_naive(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols(), "matvec: x dim");
        assert_eq!(y.len(), self.nrows(), "matvec: y dim");
        y.iter_mut().for_each(|v| *v = 0.0);
        let mut tmp = vec![0.0; self.out_dim];
        for i in 0..self.nt {
            let yi = &mut y[i * self.out_dim..(i + 1) * self.out_dim];
            for j in 0..=i {
                let xj = &x[j * self.in_dim..(j + 1) * self.in_dim];
                self.blocks[i - j].matvec(xj, &mut tmp);
                for (a, b) in yi.iter_mut().zip(&tmp) {
                    *a += *b;
                }
            }
        }
    }

    /// Naive transpose matvec `z_j = Σ_{i ≥ j} T_{i−j}ᵀ w_i`.
    pub fn matvec_transpose_naive(&self, w: &[f64], z: &mut [f64]) {
        assert_eq!(w.len(), self.nrows(), "matvec_t: w dim");
        assert_eq!(z.len(), self.ncols(), "matvec_t: z dim");
        z.iter_mut().for_each(|v| *v = 0.0);
        let mut tmp = vec![0.0; self.in_dim];
        for j in 0..self.nt {
            let zj = &mut z[j * self.in_dim..(j + 1) * self.in_dim];
            for i in j..self.nt {
                let wi = &w[i * self.out_dim..(i + 1) * self.out_dim];
                self.blocks[i - j].matvec_t(wi, &mut tmp);
                for (a, b) in zj.iter_mut().zip(&tmp) {
                    *a += *b;
                }
            }
        }
    }

    /// Materialize the full `(out_dim·nt) × (in_dim·nt)` matrix. Test use only.
    pub fn to_dense(&self) -> DMatrix {
        let mut a = DMatrix::zeros(self.nrows(), self.ncols());
        for bi in 0..self.nt {
            for bj in 0..=bi {
                let blk = &self.blocks[bi - bj];
                for r in 0..self.out_dim {
                    for c in 0..self.in_dim {
                        a[(bi * self.out_dim + r, bj * self.in_dim + c)] = blk[(r, c)];
                    }
                }
            }
        }
        a
    }

    /// Map each defining block through `f` (e.g. apply the prior covariance
    /// to every column — Phase 2's construction of `G* = Γprior F*` reuses
    /// the Toeplitz structure because `Γprior` is block-diagonal in time with
    /// identical spatial blocks).
    pub fn map_blocks(&self, f: impl Fn(&DMatrix) -> DMatrix) -> BlockToeplitz {
        let blocks: Vec<DMatrix> = self.blocks.iter().map(f).collect();
        let out_dim = blocks[0].nrows();
        let in_dim = blocks[0].ncols();
        BlockToeplitz::new(blocks, out_dim, in_dim)
    }

    /// Transposed copy: the defining blocks of `Fᵀ` (an upper-triangular
    /// block Toeplitz matrix) are `T_kᵀ`; we represent it as the
    /// lower-triangular Toeplitz with blocks `T_kᵀ` plus the time-reversal
    /// identity used in [`crate::fast_toeplitz`].
    pub fn transpose_blocks(&self) -> BlockToeplitz {
        BlockToeplitz::new(
            self.blocks.iter().map(|b| b.transpose()).collect(),
            self.in_dim,
            self.out_dim,
        )
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Seeded random blocks in `[-0.5, 0.5)` — the crate's shared fixture.
    pub(crate) fn random_toeplitz(
        nt: usize,
        out_dim: usize,
        in_dim: usize,
        seed: u64,
    ) -> BlockToeplitz {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let blocks = (0..nt)
            .map(|_| {
                DMatrix::from_fn(out_dim, in_dim, |_, _| {
                    s = s
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    ((s >> 11) as f64 / (1u64 << 53) as f64) - 0.5
                })
            })
            .collect();
        BlockToeplitz::new(blocks, out_dim, in_dim)
    }

    #[test]
    fn naive_matvec_matches_dense() {
        let t = random_toeplitz(5, 3, 4, 1);
        let x: Vec<f64> = (0..t.ncols()).map(|i| (i as f64 * 0.3).sin()).collect();
        let mut y = vec![0.0; t.nrows()];
        t.matvec_naive(&x, &mut y);
        let dense = t.to_dense();
        let mut y2 = vec![0.0; t.nrows()];
        dense.matvec(&x, &mut y2);
        for (a, b) in y.iter().zip(&y2) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn from_adjoint_recovers_blocks_at_every_chunk_width() {
        // The naive transpose is an exact adjoint of a known map: the
        // extraction must return its blocks bit for bit, however the rows
        // are chunked, and never hand the model more than `lanes` rows.
        let t = random_toeplitz(4, 7, 3, 9);
        for lanes in [1, 2, 3, 7, 8] {
            let got = BlockToeplitz::from_adjoint(t.nt, t.out_dim, t.in_dim, lanes, |ws| {
                assert!((1..=lanes).contains(&ws.len()), "chunk of {}", ws.len());
                ws.iter()
                    .map(|w| {
                        let mut z = vec![0.0; t.ncols()];
                        t.matvec_transpose_naive(w, &mut z);
                        z
                    })
                    .collect()
            });
            for (a, b) in got.blocks.iter().zip(&t.blocks) {
                assert_eq!(a.as_slice(), b.as_slice(), "lanes = {lanes}");
            }
        }
    }

    #[test]
    fn naive_transpose_matches_dense() {
        let t = random_toeplitz(6, 2, 5, 2);
        let w: Vec<f64> = (0..t.nrows()).map(|i| (i as f64 * 0.7).cos()).collect();
        let mut z = vec![0.0; t.ncols()];
        t.matvec_transpose_naive(&w, &mut z);
        let dense = t.to_dense();
        let mut z2 = vec![0.0; t.ncols()];
        dense.matvec_t(&w, &mut z2);
        for (a, b) in z.iter().zip(&z2) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn causality_zero_future_input() {
        // Input supported on the last block must not affect earlier outputs.
        let t = random_toeplitz(4, 2, 3, 3);
        let mut x = vec![0.0; t.ncols()];
        for v in x.iter_mut().skip(3 * t.in_dim) {
            *v = 1.0;
        }
        let mut y = vec![0.0; t.nrows()];
        t.matvec_naive(&x, &mut y);
        for &v in &y[..3 * t.out_dim] {
            assert_eq!(v, 0.0);
        }
    }

    #[test]
    fn storage_is_linear_in_nt() {
        let t = random_toeplitz(8, 3, 5, 4);
        assert_eq!(t.storage_bytes(), 8 * 3 * 5 * 8);
    }

    #[test]
    fn adjoint_identity_naive() {
        let t = random_toeplitz(5, 3, 4, 7);
        let x: Vec<f64> = (0..t.ncols()).map(|i| (i as f64).sin()).collect();
        let w: Vec<f64> = (0..t.nrows()).map(|i| (i as f64).cos()).collect();
        let mut fx = vec![0.0; t.nrows()];
        t.matvec_naive(&x, &mut fx);
        let mut ftw = vec![0.0; t.ncols()];
        t.matvec_transpose_naive(&w, &mut ftw);
        let lhs: f64 = fx.iter().zip(&w).map(|(a, b)| a * b).sum();
        let rhs: f64 = x.iter().zip(&ftw).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-10 * lhs.abs().max(1.0));
    }
}
