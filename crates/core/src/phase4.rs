//! Phase 4 (online): real-time inference and forecasting.
//!
//! Given observations `d`, compute — with *no PDE solves and no
//! approximations* —
//!
//! ```text
//!   m_map = Γpost Fᵀ Γn⁻¹ d = Gᵀ (K⁻¹ d)   (parameter inference)
//!   q_map = Q d                             (QoI forecast)
//! ```
//!
//! plus 95% credible intervals from `√diag(Γpost(q))`. The paper's
//! wall-clock targets: < 0.2 s for `m_map` on 512 A100s at `Nm·Nt ≈ 10⁹`,
//! < 1 ms for `q_map` on one GPU. `perf_report` measures the CPU-scaled
//! analogues as `core.phase4.infer.us` and `core.phase4.predict.us`.

use crate::phase1::Phase1;
use crate::phase2::Phase2;
use crate::phase3::Phase3;
use std::time::Instant;
use tsunami_linalg::DMatrix;

/// Half-width multiplier of a two-sided 95% Gaussian credible interval.
const CI95: f64 = 1.959963984540054;

/// Result of the online parameter inference.
pub struct Inference {
    /// Posterior mean `m_map` (space-time, time-major).
    pub m_map: Vec<f64>,
    /// Wall-clock seconds for the inference.
    pub seconds: f64,
}

/// Result of the online QoI forecast.
pub struct Forecast {
    /// Forecast wave heights `q_map` (time-major blocks of `Nq`).
    pub q_map: Vec<f64>,
    /// Pointwise posterior std of each forecast entry.
    pub q_std: Vec<f64>,
    /// Wall-clock seconds for the forecast matvec.
    pub seconds: f64,
}

impl Forecast {
    /// 95% credible interval `(lo, hi)` for entry `i`.
    pub fn ci95(&self, i: usize) -> (f64, f64) {
        let half = CI95 * self.q_std[i];
        (self.q_map[i] - half, self.q_map[i] + half)
    }
}

/// Posterior means for a batch of observation streams: column `j` of
/// `m_map` is the inference for scenario `j`.
pub struct InferenceBatch {
    /// Posterior means, `(Nm·Nt) × B` (one scenario per column).
    pub m_map: DMatrix,
    /// Wall-clock seconds for the whole batch.
    pub seconds: f64,
}

impl InferenceBatch {
    /// Number of scenarios in the batch.
    pub fn batch_size(&self) -> usize {
        self.m_map.ncols()
    }

    /// Copy out scenario `j`'s posterior mean.
    pub fn scenario(&self, j: usize) -> Vec<f64> {
        self.m_map.col(j)
    }
}

/// QoI forecasts for a batch of observation streams. The posterior
/// covariance — and hence `q_std` — is data-independent, so one std
/// vector serves every scenario in the batch.
pub struct ForecastBatch {
    /// Forecast wave heights, `(Nq·Nt) × B` (one scenario per column).
    pub q_map: DMatrix,
    /// Pointwise posterior std, shared by all scenarios.
    pub q_std: Vec<f64>,
    /// Wall-clock seconds for the whole batch.
    pub seconds: f64,
}

impl ForecastBatch {
    /// Number of scenarios in the batch.
    pub fn batch_size(&self) -> usize {
        self.q_map.ncols()
    }

    /// 95% credible interval `(lo, hi)` for entry `i` of scenario `j`.
    pub fn ci95(&self, i: usize, j: usize) -> (f64, f64) {
        let half = CI95 * self.q_std[i];
        (self.q_map[(i, j)] - half, self.q_map[(i, j)] + half)
    }

    /// Materialize scenario `j` as a standalone [`Forecast`]. Its
    /// `seconds` field is the amortized per-scenario share of the batch
    /// wall-clock (the whole point of batching), not the full batch time,
    /// so aggregating over scenarios stays honest.
    pub fn scenario(&self, j: usize) -> Forecast {
        Forecast {
            q_map: self.q_map.col(j),
            q_std: self.q_std.clone(),
            seconds: self.seconds / self.batch_size().max(1) as f64,
        }
    }
}

/// Infer the posterior mean of the seafloor velocity from observations:
/// one single-RHS `K⁻¹` solve (lane-width sweeps, bit-identical to a
/// column of [`infer_batch`]'s panel solve) and one frequency-parallel
/// FFT `Gᵀ` apply.
pub fn infer(p1: &Phase1, p2: &Phase2, d: &[f64]) -> Inference {
    assert_eq!(d.len(), p1.fast_f.nrows(), "infer: data rows");
    let t0 = Instant::now();
    let kd = p2.k_solve(d);
    let mut m_map = vec![0.0; p2.fast_g.ncols()];
    p2.fast_g.matvec_transpose(&kd, &mut m_map);
    Inference {
        m_map,
        seconds: t0.elapsed().as_secs_f64(),
    }
}

/// Infer posterior means for a block of observation streams
/// (`d` is `(Nd·Nt) × B`, one scenario per column) in one batched pass:
/// a single panel-blocked `K⁻¹` solve followed by one batched FFT
/// `Gᵀ` application, instead of `B` independent dispatches. Both kernels
/// run RHS-major inside: each panel of columns crosses into the
/// transposed [`tsunami_linalg::RhsPanel`] layout once at the panel
/// boundary (unit-stride sweeps and spectra assembly), not once per
/// column.
pub fn infer_batch(p1: &Phase1, p2: &Phase2, d: &DMatrix) -> InferenceBatch {
    assert_eq!(d.nrows(), p1.fast_f.nrows(), "infer_batch: data rows");
    let t0 = Instant::now();
    let kd = p2.k_solve_multi(d);
    let m_map = p2.fast_g.matmat_transpose(&kd);
    InferenceBatch {
        m_map,
        seconds: t0.elapsed().as_secs_f64(),
    }
}

/// Forecast QoI wave heights directly from observations: one row-parallel
/// lane-width pass over the dense `Q` ([`DMatrix::matvec`]).
pub fn predict(p3: &Phase3, d: &[f64]) -> Forecast {
    forecast_with(&p3.q_map, &p3.q_std, d)
}

/// Single-event forecast `q_map = Q d` through any data-to-QoI map — Phase
/// 3's or a window rung's — carrying that map's data-independent std.
pub(crate) fn forecast_with(q: &DMatrix, q_std: &[f64], d: &[f64]) -> Forecast {
    let t0 = Instant::now();
    let mut q_map = vec![0.0; q.nrows()];
    q.matvec(d, &mut q_map);
    Forecast {
        q_map,
        q_std: q_std.to_vec(),
        seconds: t0.elapsed().as_secs_f64(),
    }
}

/// Forecast QoI wave heights for a block of observation streams
/// (`d` is `(Nd·Nt) × B`) with one dense `Q · D` product.
pub fn predict_batch(p3: &Phase3, d: &DMatrix) -> ForecastBatch {
    assert_eq!(d.nrows(), p3.q_map.ncols(), "predict_batch: data rows");
    let t0 = Instant::now();
    let q_map = p3.q_map.matmul(d);
    ForecastBatch {
        q_map,
        q_std: p3.q_std.clone(),
        seconds: t0.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TwinConfig;
    use crate::stprior::SpaceTimePrior;
    use tsunami_hpc::TimerRegistry;
    use tsunami_linalg::{Cholesky, LinearOperator};

    #[test]
    fn online_map_matches_dense_normal_equations() {
        // m_map from Phase 4 must equal the dense solution of
        // (Γ⁻¹ + FᵀF/σ²) m = Fᵀ d/σ² — i.e. the SMW identity holds exactly.
        let cfg = TwinConfig::tiny();
        let solver = cfg.build_solver();
        let timers = TimerRegistry::new();
        let p1 = crate::phase1::Phase1::build(&solver, &timers);
        let prior = cfg.build_prior();
        let sigma = 0.05;
        let p2 = crate::phase2::Phase2::build(&p1, &prior, sigma, &timers);

        let d: Vec<f64> = (0..p1.fast_f.nrows())
            .map(|i| (i as f64 * 0.37).sin())
            .collect();
        let inf = infer(&p1, &p2, &d);

        // Dense reference via SMW in the same form: m = ΓFᵀ K⁻¹ d.
        let stp = SpaceTimePrior::new(cfg.build_prior(), solver.grid.nt_obs);
        let f = p1.f.to_dense();
        let gamma = stp.to_dense();
        let fg = f.matmul(&gamma);
        let mut k = fg.matmul_nt(&f);
        k.shift_diag(sigma * sigma);
        k.symmetrize();
        let kch = Cholesky::factor(&k).unwrap();
        let kd = kch.solve(&d);
        let mut m_ref = vec![0.0; gamma.nrows()];
        fg.matvec_t(&kd, &mut m_ref);

        let num: f64 = inf
            .m_map
            .iter()
            .zip(&m_ref)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        let den: f64 = m_ref.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(
            num < 1e-8 * den.max(1e-12),
            "m_map mismatch: {num} vs {den}"
        );

        // Cross-check against the *primal* normal equations too:
        // (Γ⁻¹ + FᵀF/σ²) m_map ≈ Fᵀ d/σ².
        let mut rhs = vec![0.0; gamma.nrows()];
        f.matvec_t(&d, &mut rhs);
        for v in rhs.iter_mut() {
            *v /= sigma * sigma;
        }
        let mut fm = vec![0.0; f.nrows()];
        f.matvec(&inf.m_map, &mut fm);
        let mut ftfm = vec![0.0; gamma.nrows()];
        f.matvec_t(&fm, &mut ftfm);
        let mut ginv_m = vec![0.0; gamma.nrows()];
        stp.apply_inv(&inf.m_map, &mut ginv_m);
        let resid: f64 = (0..gamma.nrows())
            .map(|i| {
                let lhs = ginv_m[i] + ftfm[i] / (sigma * sigma);
                (lhs - rhs[i]) * (lhs - rhs[i])
            })
            .sum::<f64>()
            .sqrt();
        let rhs_norm: f64 = rhs.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(
            resid < 1e-6 * rhs_norm,
            "normal-equation residual {resid} vs {rhs_norm}"
        );
    }

    #[test]
    fn forecast_equals_qoi_of_inferred_parameters() {
        // q_map = Q d must equal Fq m_map — the paper's consistency between
        // "forecast via Q" and "reconstruct then propagate".
        let cfg = TwinConfig::tiny();
        let solver = cfg.build_solver();
        let timers = TimerRegistry::new();
        let p1 = crate::phase1::Phase1::build(&solver, &timers);
        let prior = cfg.build_prior();
        let p2 = crate::phase2::Phase2::build(&p1, &prior, 0.03, &timers);
        let p3 = crate::phase3::Phase3::build(&p1, &p2, &timers);

        let d: Vec<f64> = (0..p1.fast_f.nrows())
            .map(|i| (i as f64 * 0.23).cos())
            .collect();
        let inf = infer(&p1, &p2, &d);
        let fc = predict(&p3, &d);
        let mut q_from_m = vec![0.0; p1.fast_fq.nrows()];
        p1.fast_fq.matvec(&inf.m_map, &mut q_from_m);
        for (a, b) in fc.q_map.iter().zip(&q_from_m) {
            assert!(
                (a - b).abs() < 1e-7 * b.abs().max(1e-10),
                "Qd vs Fq m_map: {a} vs {b}"
            );
        }
    }

    #[test]
    fn batched_inference_matches_looped_single_rhs() {
        // infer_batch / predict_batch must reproduce column-by-column
        // infer / predict exactly (up to roundoff) for a batch wider than
        // the solver and FFT panel widths.
        let cfg = TwinConfig::tiny();
        let solver = cfg.build_solver();
        let timers = TimerRegistry::new();
        let p1 = crate::phase1::Phase1::build(&solver, &timers);
        let prior = cfg.build_prior();
        let p2 = crate::phase2::Phase2::build(&p1, &prior, 0.04, &timers);
        let p3 = crate::phase3::Phase3::build(&p1, &p2, &timers);

        let n_d = p1.fast_f.nrows();
        let bsz = 37; // straddles both PANEL (16) and SOLVE_PANEL (32)
        let d = DMatrix::from_fn(n_d, bsz, |i, j| ((i * 5 + 3 * j) as f64 * 0.19).sin());

        let inf_b = infer_batch(&p1, &p2, &d);
        let fc_b = predict_batch(&p3, &d);
        assert_eq!(inf_b.batch_size(), bsz);
        assert_eq!(fc_b.batch_size(), bsz);

        for j in 0..bsz {
            let dj = d.col(j);
            let inf = infer(&p1, &p2, &dj);
            let fc = predict(&p3, &dj);
            let mj = inf_b.scenario(j);
            let m_norm = inf
                .m_map
                .iter()
                .map(|v| v * v)
                .sum::<f64>()
                .sqrt()
                .max(1e-12);
            for (a, b) in mj.iter().zip(&inf.m_map) {
                assert!((a - b).abs() < 1e-10 * m_norm, "col {j}: m_map {a} vs {b}");
            }
            let fj = fc_b.scenario(j);
            for (a, b) in fj.q_map.iter().zip(&fc.q_map) {
                assert!((a - b).abs() < 1e-10 * b.abs().max(1e-9), "col {j}: q_map");
            }
            assert_eq!(fj.q_std, fc.q_std);
            for i in 0..fc.q_map.len() {
                let (lo_b, hi_b) = fc_b.ci95(i, j);
                let (lo, hi) = fc.ci95(i);
                assert!((lo_b - lo).abs() < 1e-9 && (hi_b - hi).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn ci_contains_mean() {
        let cfg = TwinConfig::tiny();
        let solver = cfg.build_solver();
        let timers = TimerRegistry::new();
        let p1 = crate::phase1::Phase1::build(&solver, &timers);
        let prior = cfg.build_prior();
        let p2 = crate::phase2::Phase2::build(&p1, &prior, 0.03, &timers);
        let p3 = crate::phase3::Phase3::build(&p1, &p2, &timers);
        let d = vec![0.01; p1.fast_f.nrows()];
        let fc = predict(&p3, &d);
        for i in 0..fc.q_map.len() {
            let (lo, hi) = fc.ci95(i);
            assert!(lo <= fc.q_map[i] && fc.q_map[i] <= hi);
        }
    }
}
