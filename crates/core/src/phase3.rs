//! Phase 3 (offline): QoI posterior covariance and the data-to-QoI map.
//!
//! With `B := Fq Γprior Fᵀ = Gq Fᵀ` and `A0 := Fq Γprior Fqᵀ = Gq Fqᵀ` (both
//! displacement Grams from Phase 2's `toeplitz_gram`),
//!
//! ```text
//!   Γpost(q) = A0 − B K⁻¹ Bᵀ,      Q = Fq Γpost Fᵀ Γnoise⁻¹ = B K⁻¹,
//! ```
//!
//! where the `Q = B K⁻¹` simplification follows from
//! `F Γpost F* Γn⁻¹ = K⁻¹ F Γprior F* = K⁻¹ (K − σ²I) Γn⁻¹ σ² … ` —
//! algebraically, `Γpost F* Γn⁻¹ = Γprior F* K⁻¹`, the classic Kalman-gain
//! identity. `Q` is a small dense matrix: wave-height forecasts become a
//! single matvec on the observations, deployable "entirely without any HPC
//! infrastructure" (§VIII). Phase 3 keeps only the diagonal of `Γpost(q)`
//! (the pointwise std); the full covariance is formed on demand by
//! [`Phase3::gamma_post_q`] as `A0 − B Qᵀ`.

use crate::phase1::Phase1;
use crate::phase2::{toeplitz_gram, Phase2};
use tsunami_hpc::TimerRegistry;
use tsunami_linalg::{Cholesky, DMatrix};

/// QoI posterior pieces.
pub struct Phase3 {
    /// Data-to-QoI map `Q = B K⁻¹` (`Nq·Nt × Nd·Nt`).
    pub q_map: DMatrix,
    /// Pointwise posterior standard deviations `√diag(Γpost(q))`.
    pub q_std: Vec<f64>,
    /// Cross term `B = Fq Γprior Fᵀ` (`Nq·Nt × Nd·Nt`) — retained for
    /// the shorter window rungs (`Phase3::rung`), for `Γpost(q)` and for
    /// sensor-design studies ([`crate::oed`]).
    pub b: DMatrix,
    /// Prior QoI covariance `A0 = Fq Γprior Fqᵀ` (`Nq·Nt × Nq·Nt`).
    pub a0: DMatrix,
}

impl Phase3 {
    /// Assemble `B` and `A0` (displacement Grams), then `Q` and its std as
    /// the full-horizon rung: `Q = Xᵀ` with `X = K⁻¹ Bᵀ` (one panel-blocked
    /// solve) and the std from a row-wise dot, bit for bit the diagonal of
    /// `A0 − B X`. `Γpost(q)` itself is not formed.
    pub fn build(p1: &Phase1, p2: &Phase2, timers: &TimerRegistry) -> Self {
        let b = timers.time("Phase 3: form B = Fq*Post basis", || {
            toeplitz_gram(&p2.gq, &p1.f)
        });
        let a0 = timers.time("Phase 3: form A0 = Fq*Prior*Fq'", || {
            toeplitz_gram(&p2.gq, &p1.fq)
        });
        let (q_map, q_std) = timers.time("Phase 3: Gamma_post(q) and Q", || {
            rung_operator(&p2.k_chol, &b, &a0, b.ncols())
        });
        Phase3 {
            q_map,
            q_std,
            b,
            a0,
        }
    }

    /// The QoI posterior covariance `Γpost(q) = A0 − B Qᵀ`
    /// (`Nq·Nt × Nq·Nt`), symmetrized, formed on demand: one
    /// `Nq·Nt × Nd·Nt × Nq·Nt` GEMM per call, for the readers that sample
    /// from it or take its trace. `Qᵀ` is `X = K⁻¹ Bᵀ`, so this is bit for
    /// bit `A0 − B X`.
    pub fn gamma_post_q(&self) -> DMatrix {
        let mut gpq = self.a0.clone();
        gpq.add_scaled(-1.0, &self.b.matmul(&self.q_map.transpose()));
        gpq.symmetrize();
        gpq
    }

    /// `(T_w, std)` of the rung of the first `k` data entries, for every
    /// ladder builder: Phase 3's own `Q` and std at the full horizon (no
    /// second solve), else `rung_operator`.
    pub(crate) fn rung(&self, k_chol: &Cholesky, k: usize) -> (DMatrix, Vec<f64>) {
        if k == self.b.ncols() {
            return (self.q_map.clone(), self.q_std.clone());
        }
        rung_operator(k_chol, &self.b, &self.a0, k)
    }
}

/// The posterior given the first `k` data entries (time-major, so whole
/// observation steps): `T_w = B_w K_w⁻¹` (`Nq·Nt × k`) via one leading
/// solve `X = K_w⁻¹ B_wᵀ` (the leading block of the factor of `K` is the
/// factor of `K_w`), and its std ([`rung_std`]).
fn rung_operator(k_chol: &Cholesky, b: &DMatrix, a0: &DMatrix, k: usize) -> (DMatrix, Vec<f64>) {
    let bw_t = DMatrix::from_fn(k, b.nrows(), |r, c| b[(c, r)]);
    let t_w = k_chol.solve_leading_multi(k, &bw_t).transpose();
    let std = rung_std(b, a0, &t_w);
    (t_w, std)
}

/// The std `√(A0ᵢᵢ − (B_w T_wᵀ)ᵢᵢ)` of the rung whose operator is `t_w`
/// (`Nq·Nt × k`). `Γpost(q; w)` is never formed: each `(B_w T_wᵀ)ᵢᵢ` is a
/// row-wise dot summed from zero in ascending order, skipping zero `B_w`
/// entries as [`DMatrix::matmul`] does, so it is bit for bit the GEMM's
/// diagonal.
pub(crate) fn rung_std(b: &DMatrix, a0: &DMatrix, t_w: &DMatrix) -> Vec<f64> {
    let k = t_w.ncols();
    (0..b.nrows())
        .map(|i| {
            let terms = b.row(i)[..k].iter().zip(t_w.row(i));
            let s = terms
                .filter(|(&bip, _)| bip != 0.0)
                .fold(0.0, |s, (bip, tip)| s + bip * tip);
            (a0[(i, i)] - s).max(0.0).sqrt()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TwinConfig;
    use crate::stprior::SpaceTimePrior;
    use tsunami_fft::FftBlockToeplitz;
    use tsunami_linalg::LinearOperator;

    /// The GEMM-diagonal rung operator: forms the full `Γpost(q; w) =
    /// A0 − B_w X` and reads its diagonal. The oracle the row-wise std must
    /// reproduce bit for bit.
    fn gemm_rung_operator(
        k_chol: &Cholesky,
        b: &DMatrix,
        a0: &DMatrix,
        k: usize,
    ) -> (DMatrix, DMatrix, Vec<f64>) {
        let bw = DMatrix::from_fn(b.nrows(), k, |r, c| b[(r, c)]);
        let x = k_chol.solve_leading_multi(k, &bw.transpose());
        let mut gpq = a0.clone();
        gpq.add_scaled(-1.0, &bw.matmul(&x));
        gpq.symmetrize();
        let std = gpq.diag().iter().map(|&v| v.max(0.0).sqrt()).collect();
        (x.transpose(), gpq, std)
    }

    fn assert_matches_gemm_oracle(k_chol: &Cholesky, b: &DMatrix, a0: &DMatrix, k: usize) {
        let (t_w, std) = rung_operator(k_chol, b, a0, k);
        let (t_ref, _, std_ref) = gemm_rung_operator(k_chol, b, a0, k);
        assert_eq!(t_w.as_slice(), t_ref.as_slice(), "T_w at k = {k}");
        assert_eq!(std, std_ref, "std at k = {k}");
    }

    #[test]
    fn rung_operator_bit_matches_the_gemm_diagonal() {
        let cfg = TwinConfig::tiny();
        let solver = cfg.build_solver();
        let timers = tsunami_hpc::TimerRegistry::new();
        let p1 = crate::phase1::Phase1::build(&solver, &timers);
        let p2 = crate::phase2::Phase2::build(&p1, &cfg.build_prior(), 0.03, &timers);
        let p3 = Phase3::build(&p1, &p2, &timers);
        let n = p3.b.ncols();
        // 7 of 12 steps (k = 28): no multiple of the GEMM's KC or MC.
        let k = 7 * n / solver.grid.nt_obs;
        assert_matches_gemm_oracle(&p2.k_chol, &p3.b, &p3.a0, k);
        assert_matches_gemm_oracle(&p2.k_chol, &p3.b, &p3.a0, n);
        // Phase 3 is the oracle's full-horizon rung, its on-demand
        // Γpost(q) included, and its `rung` at the full horizon hands back
        // its own pieces.
        let (q_map, gpq, q_std) = gemm_rung_operator(&p2.k_chol, &p3.b, &p3.a0, n);
        assert_eq!(p3.q_map.as_slice(), q_map.as_slice());
        assert_eq!(p3.gamma_post_q().as_slice(), gpq.as_slice());
        assert_eq!(p3.q_std, q_std);
        let (t_full, std_full) = p3.rung(&p2.k_chol, n);
        assert_eq!(t_full.as_slice(), q_map.as_slice());
        assert_eq!(std_full, q_std);
        // An exact zero planted in a row of B takes the GEMM's skip.
        let mut b = p3.b.clone();
        b[(3, 5)] = 0.0;
        b[(3, 9)] = -0.0;
        assert_matches_gemm_oracle(&p2.k_chol, &b, &p3.a0, k);
    }

    #[test]
    fn row_wise_std_bit_matches_across_gemm_blocks() {
        // Large enough that the GEMM walks two KC = 128 panels of the inner
        // dimension and two MC = 64 row blocks, at k = 201 of 300.
        let (n, nq) = (300, 70);
        let g = DMatrix::from_fn(n, n, |i, j| ((i * 7 + 3 * j) as f64 * 0.013).sin());
        let mut kmat = g.matmul_nt(&g);
        kmat.shift_diag(1.0);
        kmat.symmetrize();
        let k_chol = Cholesky::factor(&kmat).unwrap();
        let mut b = DMatrix::from_fn(nq, n, |i, j| ((i * 5 + 11 * j) as f64 * 0.017).cos());
        for p in (0..n).step_by(3) {
            b[(65, p)] = 0.0;
        }
        let mut a0 = b.matmul_nt(&b);
        a0.shift_diag(2.0);
        assert_matches_gemm_oracle(&k_chol, &b, &a0, 201);
    }

    #[test]
    fn phase3_matches_dense_bayesian_algebra() {
        // Build everything densely on the tiny problem and compare:
        //   Γpost(q) = Fq (Γ⁻¹ + FᵀF/σ²)⁻¹ Fqᵀ,  Q = Fq Γpost Fᵀ/σ².
        let cfg = TwinConfig::tiny();
        let solver = cfg.build_solver();
        let timers = tsunami_hpc::TimerRegistry::new();
        let p1 = crate::phase1::Phase1::build(&solver, &timers);
        let prior = cfg.build_prior();
        let sigma = 0.04;
        let p2 = crate::phase2::Phase2::build(&p1, &prior, sigma, &timers);
        let p3 = Phase3::build(&p1, &p2, &timers);

        let stp = SpaceTimePrior::new(cfg.build_prior(), solver.grid.nt_obs);
        let f = p1.f.to_dense();
        let fq = p1.fq.to_dense();
        let gamma = stp.to_dense();
        // Γpost = Γ − ΓFᵀ(σ²I + FΓFᵀ)⁻¹FΓ (SMW, avoids Γ⁻¹ conditioning).
        let fg = f.matmul(&gamma);
        let mut k = fg.matmul_nt(&f);
        k.shift_diag(sigma * sigma);
        k.symmetrize();
        let kch = Cholesky::factor(&k).unwrap();
        let kinv_fg = kch.solve_multi(&fg);
        let mut gamma_post = gamma.clone();
        let correction = fg.matmul_tn(&kinv_fg);
        gamma_post.add_scaled(-1.0, &correction);
        let gpq_dense = fq.matmul(&gamma_post).matmul_nt(&fq);

        let mut diff = p3.gamma_post_q();
        diff.add_scaled(-1.0, &gpq_dense);
        assert!(
            diff.norm_fro() < 1e-7 * gpq_dense.norm_fro().max(1e-12),
            "Γpost(q) mismatch: {} vs norm {}",
            diff.norm_fro(),
            gpq_dense.norm_fro()
        );

        // Q = Fq Γpost Fᵀ / σ².
        let mut q_dense = fq.matmul(&gamma_post).matmul_nt(&f);
        q_dense.scale(1.0 / (sigma * sigma));
        let mut qdiff = p3.q_map.clone();
        qdiff.add_scaled(-1.0, &q_dense);
        // The dense reference Fq·Γpost·Fᵀ/σ² amplifies the cancellation in
        // Γ − ΓFᵀK⁻¹FΓ by 1/σ² ≈ 600×; the fast path (B K⁻¹) has no such
        // subtraction. 0.1% agreement validates the Kalman-gain identity.
        assert!(
            qdiff.norm_fro() < (3e-3 * q_dense.norm_fro()).max(2e-5),
            "Q mismatch: {} (dense norm {})",
            qdiff.norm_fro(),
            q_dense.norm_fro()
        );
    }

    #[test]
    fn posterior_variance_below_prior_variance() {
        // Data must reduce (or not increase) the QoI uncertainty.
        let cfg = TwinConfig::tiny();
        let solver = cfg.build_solver();
        let timers = tsunami_hpc::TimerRegistry::new();
        let p1 = crate::phase1::Phase1::build(&solver, &timers);
        let prior = cfg.build_prior();
        let p2 = crate::phase2::Phase2::build(&p1, &prior, 0.02, &timers);
        let p3 = Phase3::build(&p1, &p2, &timers);
        // Prior QoI variance = diag(A0); recompute here with FFT applies.
        let n_q = p1.fast_fq.nrows();
        let fast_gq = FftBlockToeplitz::from_blocks(&p2.gq);
        let a0 = fast_gq.matmat(&p1.fast_fq.matmat_transpose(&DMatrix::identity(n_q)));
        let gpq = p3.gamma_post_q();
        for i in 0..n_q {
            let post = gpq[(i, i)];
            let pri = a0[(i, i)];
            assert!(
                post <= pri + 1e-10 * pri.abs().max(1e-12),
                "row {i}: posterior {post} > prior {pri}"
            );
        }
    }
}
