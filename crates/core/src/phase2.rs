//! Phase 2 (offline): prior-smoothed maps and the data-space Hessian.
//!
//! With `G := F Γprior` (block Toeplitz with blocks `T_k Γ_s`, since
//! `Γprior` is block-diagonal in time with identical spatial blocks), the
//! Sherman–Morrison–Woodbury posterior is
//!
//! ```text
//!   Γpost = Γprior − Gᵀ K⁻¹ G,   K = Γnoise + F Γprior Fᵀ = σ²I + G Fᵀ.
//! ```
//!
//! `K` — the (prior-preconditioned) data-space Hessian — is dense of
//! dimension `Nd·Nt`: still large, but *tractable*, unlike the `Nm·Nt`
//! parameter-space Hessian. It is formed column-block-wise with FFT
//! matvecs (the paper's 252,000 matvecs in 100 minutes) and
//! Cholesky-factorized (cuSOLVERMp's 22 s step). The column-block-wise
//! product is `toeplitz_gram`, which also serves Phase 3 (`B`, `A0`) and
//! the sensor-design Gram of [`crate::oed`].

use crate::phase1::Phase1;
use rayon::prelude::*;
use tsunami_fft::{BlockToeplitz, FftBlockToeplitz};
use tsunami_hpc::TimerRegistry;
use tsunami_linalg::{randomized_svd, Cholesky, DMatrix, SvdOptions};
use tsunami_prior::MaternPrior;

/// Prior-smoothed maps and the factorized data-space Hessian.
pub struct Phase2 {
    /// `G = F Γprior` in FFT form (`Gᵀ` gives `G* = Γprior F*` actions).
    pub fast_g: FftBlockToeplitz,
    /// `Gq = Fq Γprior` in FFT form.
    pub fast_gq: FftBlockToeplitz,
    /// Cholesky factor of `K`.
    pub k_chol: Cholesky,
    /// Noise variance σ² on the diagonal of `K`.
    pub sigma2: f64,
}

impl Phase2 {
    /// Build from Phase 1 output and the spatial prior.
    pub fn build(p1: &Phase1, prior: &MaternPrior, noise_std: f64, timers: &TimerRegistry) -> Self {
        let g_blocks = timers.time("Phase 2: form G = F*Prior (prior solves)", || {
            smooth_blocks(&p1.f, prior)
        });
        let gq_blocks = timers.time("Phase 2: form Gq = Fq*Prior (prior solves)", || {
            smooth_blocks(&p1.fq, prior)
        });
        let fast_g = FftBlockToeplitz::from_blocks(&g_blocks);
        let fast_gq = FftBlockToeplitz::from_blocks(&gq_blocks);
        let sigma2 = noise_std * noise_std;
        let k = timers.time("Phase 2: form K (FFT matvecs)", || {
            form_k(&p1.fast_f, &fast_g, sigma2)
        });
        let k_chol = timers.time("Phase 2: factorize K (Cholesky)", || factor_k(&k, sigma2));
        Phase2 {
            fast_g,
            fast_gq,
            k_chol,
            sigma2,
        }
    }

    /// Solve `K x = b`.
    pub fn k_solve(&self, b: &[f64]) -> Vec<f64> {
        self.k_chol.solve(b)
    }

    /// Solve `K X = B` for a block of right-hand sides — one panel-wise
    /// walk of the factor serves the whole batch (the online multi-scenario
    /// path of [`crate::phase4::infer_batch`]).
    pub fn k_solve_multi(&self, b: &DMatrix) -> DMatrix {
        self.k_chol.solve_multi(b)
    }
}

/// Cholesky-factor `K`. Only on failure, the panic names σ², the failing
/// pivot, `‖K‖₂` (a rank-1 randomized SVD: two subspace iterations) and
/// the noise margin `σ²/(ε·‖K‖₂)` (below 1 the noise floor is lost in the
/// roundoff of `F Γprior Fᵀ`).
fn factor_k(k: &DMatrix, sigma2: f64) -> Cholesky {
    Cholesky::factor(k).unwrap_or_else(|e| {
        let norm = randomized_svd(k, 1, SvdOptions::default()).s[0];
        let margin = sigma2 / (f64::EPSILON * norm);
        panic!(
            "data-space Hessian: {e} with σ² = {sigma2:.3e}, ‖K‖₂ ≈ {norm:.3e}, \
             noise margin σ²/(ε·‖K‖₂) = {margin:.3e}"
        )
    })
}

/// Apply the spatial prior to each defining block: `B_k = T_k Γ_s`
/// (right-multiplication = prior applied to the rows of `T_k`). This is the
/// paper's `Nd` (or `Nq`) multi-RHS prior solves, here via the DCT fast
/// path, parallel over blocks.
pub fn smooth_blocks(t: &BlockToeplitz, prior: &MaternPrior) -> BlockToeplitz {
    assert_eq!(t.in_dim, prior.n(), "prior dimension mismatch");
    let blocks: Vec<DMatrix> = t
        .blocks
        .par_iter()
        .map(|blk| prior.apply_cov_multi(&blk.transpose()).transpose())
        .collect();
    BlockToeplitz::new(blocks, t.out_dim, t.in_dim)
}

/// Columns pushed through the FFT pair per pass of [`toeplitz_gram`].
const GRAM_CHUNK: usize = 256;

/// Toeplitz Gram `left · rightᵀ` (`left.nrows() × right.nrows()`), formed
/// column-chunk-wise: each block of unit vectors `E` goes through
/// `left (rightᵀ E)` as two batched FFT applies, so the parameter-space
/// intermediate is `GRAM_CHUNK` columns wide, never the full width. Every
/// column is bitwise independent of the chunking. This is the one place
/// identity columns are pushed through the maps: `K`, Phase 3's `B` and
/// `A0`, and the sensor-design Gram all come from here.
pub(crate) fn toeplitz_gram(left: &FftBlockToeplitz, right: &FftBlockToeplitz) -> DMatrix {
    let n = right.nrows();
    let mut gram = DMatrix::zeros(left.nrows(), n);
    for c0 in (0..n).step_by(GRAM_CHUNK) {
        let c1 = (c0 + GRAM_CHUNK).min(n);
        let mut e = DMatrix::zeros(n, c1 - c0);
        for c in c0..c1 {
            e[(c, c - c0)] = 1.0;
        }
        let y = left.matmat(&right.matmat_transpose(&e));
        for r in 0..gram.nrows() {
            gram.row_mut(r)[c0..c1].copy_from_slice(y.row(r));
        }
    }
    gram
}

/// Form `K = σ²I + G Fᵀ`: the `toeplitz_gram` of `G` and `F`, shifted by
/// the noise variance.
pub fn form_k(fast_f: &FftBlockToeplitz, fast_g: &FftBlockToeplitz, sigma2: f64) -> DMatrix {
    let mut k = toeplitz_gram(fast_g, fast_f);
    k.shift_diag(sigma2);
    // FΓFᵀ is symmetric up to FFT roundoff; enforce it before Cholesky.
    k.symmetrize();
    k
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TwinConfig;
    use crate::stprior::SpaceTimePrior;
    use tsunami_linalg::LinearOperator;

    fn setup() -> (tsunami_solver::WaveSolver, Phase1, MaternPrior) {
        let cfg = TwinConfig::tiny();
        let solver = cfg.build_solver();
        let timers = TimerRegistry::new();
        let p1 = Phase1::build(&solver, &timers);
        (solver, p1, cfg.build_prior())
    }

    #[test]
    fn k_is_spd_and_dominated_by_noise_floor() {
        let (_solver, p1, prior) = setup();
        let timers = TimerRegistry::new();
        let p2 = Phase2::build(&p1, &prior, 0.05, &timers);
        assert_eq!(p2.k_chol.dim(), p1.fast_f.nrows());
        // Solve a random system and verify the residual through K.
        let n = p2.k_chol.dim();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.29).sin()).collect();
        let x = p2.k_solve(&b);
        // K x via FFT ops: σ²x + G Fᵀ x.
        let mut ftx = vec![0.0; p1.fast_f.ncols()];
        p1.fast_f.matvec_transpose(&x, &mut ftx);
        let mut kx = vec![0.0; n];
        p2.fast_g.matvec(&ftx, &mut kx);
        for (v, &xi) in kx.iter_mut().zip(&x) {
            *v += p2.sigma2 * xi;
        }
        let err: f64 = kx
            .iter()
            .zip(&b)
            .map(|(a, c)| (a - c) * (a - c))
            .sum::<f64>()
            .sqrt();
        let bn: f64 = b.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(err < 1e-8 * bn, "K solve residual {err}");
    }

    #[test]
    fn g_equals_f_times_prior() {
        // G x must equal F (Γprior x) for arbitrary x.
        let (solver, p1, prior) = setup();
        let timers = TimerRegistry::new();
        let p2 = Phase2::build(&p1, &prior, 0.05, &timers);
        let stp = SpaceTimePrior::new(prior, solver.grid.nt_obs);
        let x: Vec<f64> = (0..stp.n()).map(|i| (i as f64 * 0.11).cos()).collect();
        let mut gx1 = vec![0.0; p2.fast_g.nrows()];
        p2.fast_g.matvec(&x, &mut gx1);
        let mut px = vec![0.0; stp.n()];
        stp.apply_cov(&x, &mut px);
        let mut gx2 = vec![0.0; p1.fast_f.nrows()];
        p1.fast_f.matvec(&px, &mut gx2);
        for (a, b) in gx1.iter().zip(&gx2) {
            assert!((a - b).abs() < 1e-9 * a.abs().max(1e-12), "{a} vs {b}");
        }
    }

    #[test]
    fn k_matches_dense_construction() {
        // Small enough to materialize: K == σ²I + F Γ Fᵀ densely.
        let (solver, p1, prior) = setup();
        let sigma = 0.07;
        let k_fast = form_k(
            &p1.fast_f,
            {
                let g = smooth_blocks(&p1.f, &prior);
                &FftBlockToeplitz::from_blocks(&g)
            },
            sigma * sigma,
        );
        let stp = SpaceTimePrior::new(prior, solver.grid.nt_obs);
        let f_dense = p1.f.to_dense();
        let gamma_dense = stp.to_dense();
        let mut k_dense = f_dense.matmul(&gamma_dense).matmul_nt(&f_dense);
        k_dense.shift_diag(sigma * sigma);
        let mut diff = k_fast.clone();
        diff.add_scaled(-1.0, &k_dense);
        assert!(
            diff.norm_fro() < 1e-8 * k_dense.norm_fro(),
            "K mismatch: {}",
            diff.norm_fro()
        );

        // The same Gram for a non-symmetric pair: B = Gq Fᵀ = Fq Γ Fᵀ.
        let gq = FftBlockToeplitz::from_blocks(&smooth_blocks(&p1.fq, &stp.spatial));
        let b_fast = toeplitz_gram(&gq, &p1.fast_f);
        let b_dense = p1.fq.to_dense().matmul(&gamma_dense).matmul_nt(&f_dense);
        assert_eq!(
            (b_fast.nrows(), b_fast.ncols()),
            (p1.fq.nrows(), p1.f.nrows())
        );
        let mut diff = b_fast;
        diff.add_scaled(-1.0, &b_dense);
        assert!(
            diff.norm_fro() < 1e-8 * b_dense.norm_fro(),
            "B mismatch: {}",
            diff.norm_fro()
        );
    }

    #[test]
    #[should_panic(expected = "noise margin")]
    fn failed_factorization_names_the_noise_margin() {
        // Eigenvalues 3 and −1: the second pivot fails.
        let k = DMatrix::from_fn(2, 2, |i, j| if i == j { 1.0 } else { 2.0 });
        let _ = factor_k(&k, 1e-4);
    }

    #[test]
    fn gram_chunking_handles_a_ragged_last_chunk() {
        // 33 steps × 8 rows = 264 columns: one full GRAM_CHUNK plus 8, for
        // a rectangular (5-row vs 8-row) pair of maps.
        let toeplitz = |out_dim: usize, seed: usize| {
            let blocks = (0..33)
                .map(|k| {
                    DMatrix::from_fn(out_dim, 3, |r, c| {
                        ((seed + 7 * k + 3 * r + c) as f64 * 0.37).sin()
                    })
                })
                .collect();
            BlockToeplitz::new(blocks, out_dim, 3)
        };
        let (left, right) = (toeplitz(5, 1), toeplitz(8, 2));
        assert!(right.nrows() > GRAM_CHUNK && right.nrows() % GRAM_CHUNK != 0);
        let gram = toeplitz_gram(
            &FftBlockToeplitz::from_blocks(&left),
            &FftBlockToeplitz::from_blocks(&right),
        );
        let dense = left.to_dense().matmul_nt(&right.to_dense());
        let mut diff = gram;
        diff.add_scaled(-1.0, &dense);
        assert!(
            diff.norm_fro() < 1e-10 * dense.norm_fro(),
            "Gram mismatch: {}",
            diff.norm_fro()
        );
    }
}
