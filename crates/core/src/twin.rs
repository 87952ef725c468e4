//! The assembled digital twin: offline construction + online assimilation.

use crate::config::TwinConfig;
use crate::goal::GoalOptions;
use crate::ladder::RungLadder;
use crate::lti::LtiBayesEngine;
use crate::modespace::ModeSpaceOptions;
use crate::phase1::Phase1;
use crate::phase2::Phase2;
use crate::phase3::Phase3;
use crate::phase4::{self, Forecast, ForecastBatch, Inference, InferenceBatch};
use crate::stprior::SpaceTimePrior;
use tsunami_hpc::TimerRegistry;
use tsunami_linalg::DMatrix;
use tsunami_solver::WaveSolver;

/// A fully precomputed digital twin, ready for real-time assimilation.
pub struct DigitalTwin {
    /// Scenario description.
    pub config: TwinConfig,
    /// The forward/adjoint PDE machinery (offline only after Phase 1).
    pub solver: WaveSolver,
    /// Space-time prior.
    pub prior: SpaceTimePrior,
    /// Noise standard deviation the twin was calibrated with.
    pub noise_std: f64,
    /// Phase 1 products (p2o/p2q maps).
    pub phase1: Phase1,
    /// Phase 2 products (`G`, `Gq`, factorized `K`).
    pub phase2: Phase2,
    /// Phase 3 products (`Q`, its std, `B`, `A0`; `Γpost(q)` on demand).
    pub phase3: Phase3,
    /// Offline-phase wall-clock accounting (Table III analogue).
    pub timers: TimerRegistry,
}

impl DigitalTwin {
    /// Run the full offline pipeline (Phases 1–3) for a configuration,
    /// with the noise level `noise_std` the online phase will assume.
    pub fn offline(config: TwinConfig, noise_std: f64) -> Self {
        let timers = TimerRegistry::new();
        let solver = timers.time("Setup: mesh + operator assembly", || config.build_solver());
        let phase1 = Phase1::build(&solver, &timers);
        let e = LtiBayesEngine::from_phase1(phase1, config.build_prior(), noise_std, timers);
        DigitalTwin {
            config,
            solver,
            prior: e.prior,
            noise_std,
            phase1: e.phase1,
            phase2: e.phase2,
            phase3: e.phase3,
            timers: e.timers,
        }
    }

    /// Online Phase 4a: infer the posterior-mean seafloor velocity.
    pub fn infer(&self, d_obs: &[f64]) -> Inference {
        phase4::infer(&self.phase1, &self.phase2, d_obs)
    }

    /// Online Phase 4b: forecast wave heights with credible intervals.
    pub fn forecast(&self, d_obs: &[f64]) -> Forecast {
        phase4::predict(&self.phase3, d_obs)
    }

    /// Batched Phase 4a: infer posterior means for a block of observation
    /// streams (`d_obs` is `(Nd·Nt) × B`, one scenario per column) in one
    /// multi-RHS solve + one batched FFT pass.
    pub fn infer_batch(&self, d_obs: &DMatrix) -> InferenceBatch {
        phase4::infer_batch(&self.phase1, &self.phase2, d_obs)
    }

    /// Batched Phase 4b: forecast wave heights for a block of observation
    /// streams with one dense `Q · D` product.
    pub fn forecast_batch(&self, d_obs: &DMatrix) -> ForecastBatch {
        phase4::predict_batch(&self.phase3, d_obs)
    }

    /// Precompute the exact window ladder: one dense data-to-QoI operator
    /// `T_w = B_w K_w⁻¹` per observation window (in observation steps) —
    /// the offline extension that makes streaming assimilation a sequence
    /// of cheap online applies ([`RungLadder::build`]; the same ladder as
    /// [`Self::goal_ladder`] with [`GoalOptions::exact`]).
    pub fn windowed(&self, windows: &[usize]) -> RungLadder {
        RungLadder::build(&self.phase1, &self.phase2, &self.phase3, windows)
    }

    /// Precompute the goal-oriented factored ladder for a window ladder:
    /// per-rung data-to-QoI operators `T_w ≈ L_w R_wᵀ` so online
    /// forecasting is folds and small GEMMs with no factor walk at all
    /// (see [`crate::goal`]). With [`GoalOptions::exact`] this is
    /// [`Self::windowed`].
    pub fn goal_ladder(&self, windows: &[usize], opts: &GoalOptions) -> RungLadder {
        RungLadder::compress(&self.phase1, &self.phase2, &self.phase3, windows, opts)
    }

    /// Precompute the mode-space ladder for a window ladder: per-rung
    /// inference/forecast operators projected into the rank-`r` POD
    /// observation basis, so the online tick is `r`-sized folds and
    /// `r × B` GEMMs with an exactly certified truncation bound (see
    /// [`crate::modespace`]). `modes` is the shared observation basis
    /// (e.g. [`crate::PodBank::modes`]).
    pub fn mode_space_ladder(
        &self,
        windows: &[usize],
        modes: &DMatrix,
        opts: &ModeSpaceOptions,
    ) -> RungLadder {
        RungLadder::project(
            &self.phase1,
            &self.phase2,
            &self.phase3,
            windows,
            modes,
            opts,
        )
    }

    /// Pointwise posterior std of final displacement (Fig 3e analogue).
    pub fn displacement_uncertainty(&self) -> Vec<f64> {
        crate::posterior::displacement_std(
            &self.phase1,
            &self.phase2,
            &self.prior,
            self.solver.grid.dt_obs(),
        )
    }

    /// Data dimension `Nd·Nt`.
    pub fn n_data(&self) -> usize {
        self.phase1.fast_f.nrows()
    }

    /// Parameter dimension `Nm·Nt`.
    pub fn n_params(&self) -> usize {
        self.phase1.fast_f.ncols()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::SyntheticEvent;
    use crate::metrics::{ci95_coverage, correlation, displacement_field, rel_l2};

    #[test]
    fn end_to_end_inversion_recovers_source() {
        // The headline behaviour: synthesize a rupture, assimilate its
        // noisy pressure data, and verify the inferred source and forecasts
        // track the truth.
        let cfg = TwinConfig::tiny();
        let solver_for_truth = cfg.build_solver();
        let rupture = SyntheticEvent::default_rupture(&cfg);
        let ev = SyntheticEvent::generate(&cfg, &solver_for_truth, &rupture, 1234);

        let twin = DigitalTwin::offline(cfg.clone(), ev.noise_std);
        let inf = twin.infer(&ev.d_obs);
        let fc = twin.forecast(&ev.d_obs);

        // Forecast matches the true QoI far better than the zero forecast.
        let err_fc = rel_l2(&fc.q_map, &ev.q_true);
        assert!(err_fc < 0.5, "QoI forecast error {err_fc}");

        // Displacement field correlates with the truth.
        let nm = twin.solver.n_m();
        let nt = twin.solver.grid.nt_obs;
        let dt = twin.solver.grid.dt_obs();
        let b_true = displacement_field(&ev.m_true, nm, nt, dt);
        let b_map = displacement_field(&inf.m_map, nm, nt, dt);
        let corr = correlation(&b_map, &b_true);
        assert!(corr > 0.6, "displacement correlation {corr}");

        // 95% CIs cover a reasonable share of the truth.
        let cover = ci95_coverage(&fc.q_map, &fc.q_std, &ev.q_true);
        assert!(cover > 0.6, "CI coverage {cover}");
    }

    #[test]
    fn lower_noise_gives_better_reconstruction() {
        let cfg = TwinConfig::tiny();
        let solver = cfg.build_solver();
        let rupture = SyntheticEvent::default_rupture(&cfg);
        let ev = SyntheticEvent::generate(&cfg, &solver, &rupture, 5);

        let noisy = DigitalTwin::offline(cfg.clone(), 50.0 * ev.noise_std);
        let clean = DigitalTwin::offline(cfg.clone(), ev.noise_std);
        let q_noisy = noisy.forecast(&ev.d_clean);
        let q_clean = clean.forecast(&ev.d_clean);
        let e_noisy = rel_l2(&q_noisy.q_map, &ev.q_true);
        let e_clean = rel_l2(&q_clean.q_map, &ev.q_true);
        assert!(
            e_clean < e_noisy,
            "more trusted data should fit better: {e_clean} vs {e_noisy}"
        );
    }

    #[test]
    fn timers_record_all_phases() {
        let cfg = TwinConfig::tiny();
        let twin = DigitalTwin::offline(cfg, 0.01);
        let rows = twin.timers.snapshot();
        let names: Vec<&str> = rows.iter().map(|r| r.0.as_str()).collect();
        assert!(names.iter().any(|n| n.contains("Phase 1")));
        assert!(names.iter().any(|n| n.contains("Phase 2")));
        assert!(names.iter().any(|n| n.contains("Phase 3")));
    }
}
