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
//! parameter-space Hessian. The paper forms it column by column with FFT
//! matvecs (252,000 of them in 100 minutes); here it is a *displacement
//! Gram*. The Gram of two causal block-Toeplitz maps is itself shift
//! structured, `(L Rᵀ)[t,t'] = l_t r_{t'}ᵀ + (L Rᵀ)[t−1,t'−1]`, so
//! `toeplitz_gram` is one GEMM of the stacked lag blocks
//! (`Nt²·nL·nR·Nm` MACs) plus a running sum down each block diagonal.
//! `K` is then Cholesky-factorized (cuSOLVERMp's 22 s step). The same
//! Gram serves Phase 3 (`B`, `A0`) and the sensor-design Gram of
//! [`crate::oed`].

use crate::phase1::Phase1;
use rayon::prelude::*;
use std::sync::Arc;
use tsunami_fft::{BlockToeplitz, FftBlockToeplitz};
use tsunami_hpc::TimerRegistry;
use tsunami_linalg::{randomized_svd, Cholesky, DMatrix, SvdOptions};
use tsunami_prior::MaternPrior;

/// Prior-smoothed maps and the factorized data-space Hessian.
pub struct Phase2 {
    /// `G = F Γprior` in block form (lag blocks `T_k Γ_s`), the left
    /// factor of `K` and of the sensor-design Gram.
    pub g: BlockToeplitz,
    /// `Gq = Fq Γprior` in block form, the left factor of Phase 3's `B`
    /// and `A0`.
    pub gq: BlockToeplitz,
    /// `G` in FFT form (`Gᵀ` gives Phase 4's `G* = Γprior F*` actions).
    pub fast_g: FftBlockToeplitz,
    /// Cholesky factor of `K`, shared with the exact rungs of every
    /// [`crate::RungLadder`] built from this phase (they whiten their
    /// data with it) instead of copied into each.
    pub k_chol: Arc<Cholesky>,
    /// Noise variance σ² on the diagonal of `K`.
    pub sigma2: f64,
}

impl Phase2 {
    /// Build from Phase 1 output and the spatial prior.
    pub fn build(p1: &Phase1, prior: &MaternPrior, noise_std: f64, timers: &TimerRegistry) -> Self {
        let g = timers.time("Phase 2: form G = F*Prior (prior solves)", || {
            smooth_blocks(&p1.f, prior)
        });
        let gq = timers.time("Phase 2: form Gq = Fq*Prior (prior solves)", || {
            smooth_blocks(&p1.fq, prior)
        });
        let fast_g = FftBlockToeplitz::from_blocks(&g);
        let sigma2 = noise_std * noise_std;
        // The section name predates the displacement Gram. `perf_report`
        // reads it byte for byte as `core.phase2.form_k.busy_s`, so it is
        // renamed only together with the harness.
        let k = timers.time("Phase 2: form K (FFT matvecs)", || {
            form_k(&p1.f, &g, sigma2)
        });
        let k_chol =
            Arc::new(timers.time("Phase 2: factorize K (Cholesky)", || factor_k(&k, sigma2)));
        Phase2 {
            g,
            gq,
            fast_g,
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

/// Toeplitz Gram `left · rightᵀ` (`left.nrows() × right.nrows()`) by
/// displacement: block `(t, t')` of the Gram of two causal maps is
/// `Σ_{s ≤ min(t,t')} l_{t−s} r_{t'−s}ᵀ = l_t r_{t'}ᵀ + block (t−1, t'−1)`.
/// So `P = Ls · Rsᵀ` over the stacked lag blocks (`Nt·nL × Nm` and
/// `Nt·nR × Nm`) is one GEMM of `Nt²·nL·nR·Nm` MACs, and then, in
/// ascending block row `t ≥ 1`, block row `t − 1` shifted right by one
/// block column is added into block row `t`. `K`, Phase 3's `B` and `A0`,
/// and the sensor-design Gram all come from here.
pub(crate) fn toeplitz_gram(left: &BlockToeplitz, right: &BlockToeplitz) -> DMatrix {
    assert_eq!(
        (left.nt, left.in_dim),
        (right.nt, right.in_dim),
        "toeplitz_gram: maps must share the horizon and the parameter space"
    );
    let stacked = |t: &BlockToeplitz| {
        let lags: Vec<&[f64]> = t.blocks.iter().map(DMatrix::as_slice).collect();
        DMatrix::from_vec(t.nrows(), t.in_dim, lags.concat())
    };
    let mut gram = stacked(left).matmul(&stacked(right).transpose());
    let (nl, nr, n) = (left.out_dim, right.out_dim, gram.ncols());
    for i in nl..gram.nrows() {
        let (done, rest) = gram.as_mut_slice().split_at_mut(i * n);
        let above = &done[(i - nl) * n..(i - nl + 1) * n - nr];
        for (v, &a) in rest[nr..n].iter_mut().zip(above) {
            *v += a;
        }
    }
    gram
}

/// Form `K = σ²I + G Fᵀ`: the `toeplitz_gram` of `G` and `F`, shifted by
/// the noise variance.
pub fn form_k(f: &BlockToeplitz, g: &BlockToeplitz, sigma2: f64) -> DMatrix {
    let mut k = toeplitz_gram(g, f);
    k.shift_diag(sigma2);
    // G Fᵀ = FΓFᵀ is symmetric only up to roundoff; enforce it before Cholesky.
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
        let k_fast = form_k(&p1.f, &smooth_blocks(&p1.f, &prior), sigma * sigma);
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
        let gq = smooth_blocks(&p1.fq, &stp.spatial);
        let b_fast = toeplitz_gram(&gq, &p1.f);
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

    /// A synthetic causal map of `nt` steps with `out_dim × 3` lag blocks.
    fn toeplitz(nt: usize, out_dim: usize, seed: usize) -> BlockToeplitz {
        let blocks = (0..nt)
            .map(|k| {
                DMatrix::from_fn(out_dim, 3, |r, c| {
                    ((seed + 7 * k + 3 * r + c) as f64 * 0.37).sin()
                })
            })
            .collect();
        BlockToeplitz::new(blocks, out_dim, 3)
    }

    /// The FFT Gram `left (rightᵀ I)`: identity columns through two FFT
    /// applies. The oracle for the displacement Gram.
    fn fft_gram(left: &BlockToeplitz, right: &BlockToeplitz) -> DMatrix {
        let (left, right) = (
            FftBlockToeplitz::from_blocks(left),
            FftBlockToeplitz::from_blocks(right),
        );
        left.matmat(&right.matmat_transpose(&DMatrix::identity(right.nrows())))
    }

    fn assert_rel_close(gram: &DMatrix, reference: &DMatrix, what: &str) {
        assert_eq!(
            (gram.nrows(), gram.ncols()),
            (reference.nrows(), reference.ncols())
        );
        let mut diff = gram.clone();
        diff.add_scaled(-1.0, reference);
        let rel = diff.norm_fro() / reference.norm_fro();
        assert!(rel < 1e-13, "{what}: relative Gram mismatch {rel:.3e}");
    }

    #[test]
    fn displacement_gram_matches_the_dense_product() {
        // A rectangular pair (5-row vs 8-row blocks) over 33 steps, and
        // the single-step case where no displacement sum runs.
        for nt in [33, 1] {
            let (left, right) = (toeplitz(nt, 5, 1), toeplitz(nt, 8, 2));
            let dense = left.to_dense().matmul_nt(&right.to_dense());
            assert_rel_close(&toeplitz_gram(&left, &right), &dense, "dense");
        }
    }

    #[test]
    fn displacement_gram_matches_the_fft_gram() {
        let (left, right) = (toeplitz(33, 5, 1), toeplitz(33, 8, 2));
        assert_rel_close(
            &toeplitz_gram(&left, &right),
            &fft_gram(&left, &right),
            "synthetic pair",
        );
        // The twin's own K − σ²I = G Fᵀ.
        let (_solver, p1, prior) = setup();
        let g = smooth_blocks(&p1.f, &prior);
        assert_rel_close(&toeplitz_gram(&g, &p1.f), &fft_gram(&g, &p1.f), "G Fᵀ");
    }
}
