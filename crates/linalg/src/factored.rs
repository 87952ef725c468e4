//! Low-rank factored linear maps `M ≈ L · Rᵀ` for goal-oriented applies.
//!
//! The goal-oriented online path (arXiv:2501.14911) never needs a dense
//! data-to-QoI operator at apply time: it folds arriving data through the
//! small right factor (`z += Rᵀ d`, rank-sized state) and materializes
//! outputs with one small GEMM (`q = L · z`). [`FactoredMap`] is that
//! shape: either a truncated-SVD compression of a dense map with an exact
//! Frobenius residual bound, or an *exact* passthrough (`R = I`, kept
//! implicit) whose apply is bitwise identical to the dense product — the
//! oracle the compressed ranks are validated against.

use crate::matrix::DMatrix;
use crate::svd::{randomized_svd, SvdOptions};

/// A dense map in factored form `M ≈ L · Rᵀ` (`L`: `out × r`,
/// `R`: `in × r`), or the exact map itself with an implicit identity
/// right factor.
pub struct FactoredMap {
    /// Left factor `L` (`out_dim × rank`); for an exact map this is `M`
    /// itself (`rank == in_dim`).
    left: DMatrix,
    /// Right factor `R` (`in_dim × rank`), absent for the exact
    /// passthrough where `Rᵀ d = d` needs no arithmetic at all.
    right: Option<DMatrix>,
}

impl FactoredMap {
    /// The exact map as a degenerate factorization `M · Iᵀ`: folding is a
    /// copy, and the lift is the dense product itself.
    fn exact(map: DMatrix) -> Self {
        FactoredMap {
            left: map,
            right: None,
        }
    }

    /// Compress `map` to rank `rank` with the randomized SVD, absorbing
    /// the singular values into the left factor. Returns the factored map
    /// and its *exactly computed* truncation residual `‖M − L Rᵀ‖_F`
    /// (the spectral error is bounded by it, so for any input `d` the
    /// apply error obeys `‖(M − L Rᵀ) d‖₂ ≤ residual · ‖d‖₂`).
    ///
    /// A requested rank at or above `min(out_dim, in_dim)` falls back to
    /// the exact map (residual 0): the SVD could only add roundoff.
    pub fn compress(map: &DMatrix, rank: usize, opts: SvdOptions) -> (Self, f64) {
        assert!(rank >= 1, "factored rank must be at least 1");
        if rank >= map.nrows().min(map.ncols()) {
            return (FactoredMap::exact(map.clone()), 0.0);
        }
        let svd = randomized_svd(map, rank, opts);
        let r = svd.rank();
        // L = U · diag(σ)  (out × r), R = V (in × r).
        let left = DMatrix::from_fn(map.nrows(), r, |i, j| svd.u[(i, j)] * svd.s[j]);
        let right = DMatrix::from_fn(map.ncols(), r, |i, j| svd.vt[(j, i)]);
        let approx = left.matmul_nt(&right);
        let mut residual2 = 0.0;
        for (a, b) in map.as_slice().iter().zip(approx.as_slice()) {
            let d = a - b;
            residual2 += d * d;
        }
        (
            FactoredMap {
                left,
                right: Some(right),
            },
            residual2.sqrt(),
        )
    }

    /// Factor rank `r` — the per-stream fold-state length (`in_dim` for
    /// the exact map).
    pub fn rank(&self) -> usize {
        self.left.ncols()
    }

    /// Fold a block of inputs into rank space: `Z = Rᵀ X` (`rank × B`).
    pub fn fold(&self, x: &DMatrix) -> DMatrix {
        match &self.right {
            Some(r) => r.matmul_tn(x),
            None => x.clone(),
        }
    }

    /// The factors `(L, R)`; `R` is `None` for the exact map, whose fold
    /// is a plain copy.
    pub fn into_parts(self) -> (DMatrix, Option<DMatrix>) {
        (self.left, self.right)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `Q ≈ M X` through the factors: fold, then lift.
    fn apply(f: &FactoredMap, x: &DMatrix) -> DMatrix {
        f.left.matmul(&f.fold(x))
    }

    fn smooth_map(rows: usize, cols: usize) -> DMatrix {
        // Rapidly decaying spectrum: a sum of a few smooth outer products
        // plus a tiny rough tail, so truncation is meaningful.
        DMatrix::from_fn(rows, cols, |i, j| {
            let (x, y) = (i as f64 / rows as f64, j as f64 / cols as f64);
            (6.3 * x).sin() * (3.1 * y).cos()
                + 0.3 * (12.0 * x).cos() * (9.0 * y).sin()
                + 1e-6 * ((i * 31 + j * 17) as f64).sin()
        })
    }

    #[test]
    fn exact_apply_is_bitwise_the_dense_product() {
        let m = smooth_map(23, 40);
        let x = DMatrix::from_fn(40, 7, |i, j| ((i * 3 + j) as f64 * 0.17).sin());
        let f = FactoredMap::exact(m.clone());
        assert!(f.right.is_none());
        assert_eq!(f.rank(), 40);
        assert_eq!(apply(&f, &x).as_slice(), m.matmul(&x).as_slice());
    }

    #[test]
    fn compressed_apply_error_stays_within_the_residual_bound() {
        let m = smooth_map(30, 50);
        let x = DMatrix::from_fn(50, 5, |i, j| ((i + 7 * j) as f64 * 0.23).cos());
        for rank in [1usize, 2, 4, 8] {
            let (f, residual) = FactoredMap::compress(&m, rank, SvdOptions::default());
            assert_eq!(f.left.nrows(), 30);
            assert_eq!(f.right.as_ref().map(|r| r.nrows()), Some(50));
            assert!(f.rank() <= rank);
            let q = apply(&f, &x);
            let dense = m.matmul(&x);
            for j in 0..x.ncols() {
                let dn: f64 = (0..50).map(|i| x[(i, j)] * x[(i, j)]).sum::<f64>().sqrt();
                let en: f64 = (0..30)
                    .map(|i| {
                        let d = q[(i, j)] - dense[(i, j)];
                        d * d
                    })
                    .sum::<f64>()
                    .sqrt();
                assert!(
                    en <= residual * dn + 1e-12,
                    "rank {rank} col {j}: error {en} exceeds bound {}",
                    residual * dn
                );
            }
        }
    }

    #[test]
    fn residual_shrinks_with_rank_and_full_rank_is_exact() {
        let m = smooth_map(20, 35);
        let mut prev = f64::INFINITY;
        for rank in [1usize, 3, 6, 12] {
            let (_, residual) = FactoredMap::compress(&m, rank, SvdOptions::default());
            assert!(residual <= prev + 1e-12, "residual must not grow with rank");
            prev = residual;
        }
        let (f, residual) = FactoredMap::compress(&m, 20, SvdOptions::default());
        assert!(f.right.is_none(), "rank ≥ min dim must fall back to exact");
        assert_eq!(residual, 0.0);
    }
}
