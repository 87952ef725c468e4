//! Generic goal-oriented Bayesian engine for linear time-invariant models.
//!
//! §VIII of the paper: *"autonomous dynamical systems arise in many
//! different settings beyond geophysical inversion. Our Bayesian
//! inversion-based digital twin framework is thus more broadly applicable
//! to acoustic, electromagnetic, and elastic inverse scattering; source
//! inversion for transport of atmospheric or subsurface hazardous agents;
//! satellite inference of emissions; and treaty verification."*
//!
//! Everything in Phases 1–4 depends on the forward physics only through
//! the defining blocks of the p2o/p2q Toeplitz maps. [`LtiModel`] is the
//! minimal contract a forward model must satisfy to plug into the engine:
//! report its dimensions and provide full-horizon adjoint applications
//! `Fᵀw` and `Fqᵀw`. [`build_maps`] then extracts the Toeplitz blocks with
//! `Nd + Nq` adjoint solves — the acoustic case goes through the very same
//! routine, [`BlockToeplitz::from_adjoint`] — and [`LtiBayesEngine`]
//! packages the offline/online decomposition.
//!
//! The acoustic–gravity [`WaveSolver`] implements the trait here; the
//! elastic fault-slip model in `tsunami-elastic` implements it there.

use crate::phase1::Phase1;
use crate::phase2::Phase2;
use crate::phase3::Phase3;
use crate::phase4::{self, Forecast, Inference};
use crate::stprior::SpaceTimePrior;
use tsunami_fft::BlockToeplitz;
use tsunami_hpc::TimerRegistry;
use tsunami_prior::MaternPrior;
use tsunami_solver::WaveSolver;

/// A linear time-invariant parameter-to-observable forward model.
///
/// The model maps a space-time parameter vector `m` (time-major blocks of
/// `n_m` spatial values, `nt_obs` blocks) to observables `d` (time-major
/// blocks of `n_sensors`) and QoI `q` (blocks of `n_qoi`). Implementors
/// must guarantee the map is *causal* and *shift invariant* — i.e. the
/// underlying dynamics are autonomous and the observation cadence matches
/// the parameter binning — which is what makes the block-Toeplitz
/// factorization exact.
pub trait LtiModel: Sync {
    /// Spatial parameter dimension `Nm`.
    fn n_m(&self) -> usize;
    /// Number of sensors `Nd`.
    fn n_sensors(&self) -> usize;
    /// Number of QoI outputs per time step `Nq`.
    fn n_qoi_outputs(&self) -> usize;
    /// Number of observation times `Nt`.
    fn nt_obs(&self) -> usize;
    /// Full-horizon adjoint of the p2o map: `z = Fᵀ w`, with `w` of length
    /// `Nd·Nt` and `z` of length `Nm·Nt` (both time-major).
    fn adjoint_data(&self, w: &[f64]) -> Vec<f64>;
    /// Full-horizon adjoint of the p2q map: `z = Fqᵀ w`.
    fn adjoint_qoi(&self, w: &[f64]) -> Vec<f64>;
    /// Adjoint states the model advances together: [`build_maps`] hands
    /// the `*_panel` methods chunks of up to this many impulses and runs
    /// the chunks in parallel. The default, 1, makes every row its own
    /// parallel adjoint solve.
    fn adjoint_lanes(&self) -> usize {
        1
    }
    /// [`Self::adjoint_data`] over a chunk of `w`s, one result per `w` in
    /// order. The default solves them one at a time.
    fn adjoint_data_panel(&self, ws: &[&[f64]]) -> Vec<Vec<f64>> {
        ws.iter().map(|w| self.adjoint_data(w)).collect()
    }
    /// [`Self::adjoint_qoi`] over a chunk of `w`s, one result per `w`.
    fn adjoint_qoi_panel(&self, ws: &[&[f64]]) -> Vec<Vec<f64>> {
        ws.iter().map(|w| self.adjoint_qoi(w)).collect()
    }
}

impl LtiModel for WaveSolver {
    fn n_m(&self) -> usize {
        WaveSolver::n_m(self)
    }
    fn n_sensors(&self) -> usize {
        self.sensors.len()
    }
    fn n_qoi_outputs(&self) -> usize {
        self.qoi.len()
    }
    fn nt_obs(&self) -> usize {
        self.grid.nt_obs
    }
    fn adjoint_data(&self, w: &[f64]) -> Vec<f64> {
        WaveSolver::adjoint_data(self, w)
    }
    fn adjoint_qoi(&self, w: &[f64]) -> Vec<f64> {
        WaveSolver::adjoint_qoi(self, w)
    }
    fn adjoint_lanes(&self) -> usize {
        tsunami_solver::LANES
    }
    fn adjoint_data_panel(&self, ws: &[&[f64]]) -> Vec<Vec<f64>> {
        WaveSolver::adjoint_data_panel(self, ws)
    }
    fn adjoint_qoi_panel(&self, ws: &[&[f64]]) -> Vec<Vec<f64>> {
        WaveSolver::adjoint_qoi_panel(self, ws)
    }
}

/// Build the p2o and p2q block-Toeplitz maps of any [`LtiModel`] with
/// `Nd + Nq` adjoint solves — the paper's Phase 1, through the same
/// [`BlockToeplitz::from_adjoint`] extraction as
/// `tsunami_solver::{build_p2o, build_p2q}`.
pub fn build_maps<M: LtiModel>(model: &M) -> (BlockToeplitz, BlockToeplitz) {
    let (nt, nm, lanes) = (model.nt_obs(), model.n_m(), model.adjoint_lanes());
    let f = BlockToeplitz::from_adjoint(nt, model.n_sensors(), nm, lanes, |ws| {
        model.adjoint_data_panel(ws)
    });
    let fq = BlockToeplitz::from_adjoint(nt, model.n_qoi_outputs(), nm, lanes, |ws| {
        model.adjoint_qoi_panel(ws)
    });
    (f, fq)
}

/// The offline products of the goal-oriented framework for an arbitrary
/// LTI model: Phases 1–3 bundled with the prior, ready for real-time
/// (Phase 4) assimilation.
pub struct LtiBayesEngine {
    /// Phase 1: p2o/p2q Toeplitz maps (block + FFT form).
    pub phase1: Phase1,
    /// Phase 2: prior-smoothed maps and the factorized data-space Hessian.
    pub phase2: Phase2,
    /// Phase 3: data-to-QoI map and QoI posterior covariance.
    pub phase3: Phase3,
    /// Space-time prior (block-diagonal in time).
    pub prior: SpaceTimePrior,
    /// Observation-noise standard deviation.
    pub noise_std: f64,
    /// Wall-clock accounting of the offline phases.
    pub timers: TimerRegistry,
}

impl LtiBayesEngine {
    /// Run the offline pipeline for any LTI model: `Nd + Nq` adjoint
    /// solves, prior smoothing, data-space Hessian and its Cholesky
    /// factorization, QoI covariance, and the data-to-QoI map.
    pub fn offline<M: LtiModel>(model: &M, spatial_prior: MaternPrior, noise_std: f64) -> Self {
        let timers = TimerRegistry::new();
        let (f, fq) = timers.time("Phase 1: adjoint solves (generic LTI)", || {
            build_maps(model)
        });
        let phase1 = Phase1::assemble(f, fq, &timers);
        Self::from_phase1(phase1, spatial_prior, noise_std, timers)
    }

    /// Offline pipeline starting from precomputed Toeplitz blocks.
    pub fn offline_from_blocks(
        f: BlockToeplitz,
        fq: BlockToeplitz,
        spatial_prior: MaternPrior,
        noise_std: f64,
    ) -> Self {
        let phase1 = Phase1::from_blocks(f, fq);
        Self::from_phase1(phase1, spatial_prior, noise_std, TimerRegistry::new())
    }

    /// Phases 2–3 and the space-time prior on top of a finished Phase 1 —
    /// the one offline assembly, shared with
    /// [`crate::twin::DigitalTwin::offline`].
    pub(crate) fn from_phase1(
        phase1: Phase1,
        spatial_prior: MaternPrior,
        noise_std: f64,
        timers: TimerRegistry,
    ) -> Self {
        assert_eq!(
            spatial_prior.n(),
            phase1.f.in_dim,
            "prior dimension must match the spatial parameter dimension"
        );
        let phase2 = Phase2::build(&phase1, &spatial_prior, noise_std, &timers);
        let phase3 = Phase3::build(&phase1, &phase2, &timers);
        let prior = SpaceTimePrior::new(spatial_prior, phase1.f.nt);
        LtiBayesEngine {
            phase1,
            phase2,
            phase3,
            prior,
            noise_std,
            timers,
        }
    }

    /// Online: posterior-mean parameter inference `m_map = Gᵀ K⁻¹ d`.
    pub fn infer(&self, d_obs: &[f64]) -> Inference {
        phase4::infer(&self.phase1, &self.phase2, d_obs)
    }

    /// Online: QoI forecast `q_map = Q d` with credible intervals.
    pub fn predict(&self, d_obs: &[f64]) -> Forecast {
        phase4::predict(&self.phase3, d_obs)
    }

    /// Draw an exact posterior sample of the parameters (Matheron's rule).
    pub fn posterior_sample(&self, m_map: &[f64], rng: &mut rand::rngs::StdRng) -> Vec<f64> {
        crate::posterior::posterior_sample(&self.phase1, &self.phase2, &self.prior, m_map, rng)
    }

    /// Data dimension `Nd·Nt`.
    pub fn n_data(&self) -> usize {
        self.phase1.fast_f.nrows()
    }

    /// Parameter dimension `Nm·Nt`.
    pub fn n_params(&self) -> usize {
        self.phase1.fast_f.ncols()
    }

    /// QoI dimension `Nq·Nt`.
    pub fn n_qoi(&self) -> usize {
        self.phase1.fast_fq.nrows()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TwinConfig;

    #[test]
    fn generic_builder_matches_solver_specific_builder() {
        // build_maps over the LtiModel trait and
        // tsunami_solver::{build_p2o, build_p2q} are the same extraction:
        // every block agrees bit for bit.
        let cfg = TwinConfig::tiny();
        let solver = cfg.build_solver();
        let (f_gen, fq_gen) = build_maps(&solver);
        let f_ref = tsunami_solver::build_p2o(&solver);
        let fq_ref = tsunami_solver::build_p2q(&solver);
        for (gen, reference) in [(&f_gen, &f_ref), (&fq_gen, &fq_ref)] {
            assert_eq!(gen.nt, reference.nt);
            for (a, b) in gen.blocks.iter().zip(&reference.blocks) {
                assert_eq!(a.as_slice(), b.as_slice());
            }
        }
    }

    #[test]
    fn engine_agrees_with_digital_twin() {
        // The generic engine on the acoustic WaveSolver must produce the
        // same inference and forecast as the purpose-built DigitalTwin.
        let cfg = TwinConfig::tiny();
        let solver = cfg.build_solver();
        let noise = 0.04;
        let engine = LtiBayesEngine::offline(&solver, cfg.build_prior(), noise);
        let twin = crate::twin::DigitalTwin::offline(cfg, noise);

        let d: Vec<f64> = (0..engine.n_data())
            .map(|i| (i as f64 * 0.31).sin())
            .collect();
        let m1 = engine.infer(&d);
        let m2 = twin.infer(&d);
        for (a, b) in m1.m_map.iter().zip(&m2.m_map) {
            assert!((a - b).abs() < 1e-10 * b.abs().max(1e-12), "{a} vs {b}");
        }
        let q1 = engine.predict(&d);
        let q2 = twin.forecast(&d);
        for (a, b) in q1.q_map.iter().zip(&q2.q_map) {
            assert!((a - b).abs() < 1e-10 * b.abs().max(1e-12));
        }
        for (a, b) in q1.q_std.iter().zip(&q2.q_std) {
            assert!((a - b).abs() < 1e-10 * b.abs().max(1e-12));
        }
    }

    #[test]
    fn engine_from_blocks_roundtrip() {
        // Feeding the blocks back through offline_from_blocks is identical
        // to offline(model, ..).
        let cfg = TwinConfig::tiny();
        let solver = cfg.build_solver();
        let (f, fq) = build_maps(&solver);
        let e1 = LtiBayesEngine::offline_from_blocks(f, fq, cfg.build_prior(), 0.02);
        let e2 = LtiBayesEngine::offline(&solver, cfg.build_prior(), 0.02);
        let d: Vec<f64> = (0..e1.n_data()).map(|i| (i as f64 * 0.13).cos()).collect();
        let a = e1.infer(&d);
        let b = e2.infer(&d);
        for (u, v) in a.m_map.iter().zip(&b.m_map) {
            assert!((u - v).abs() < 1e-12 * v.abs().max(1e-12));
        }
    }

    #[test]
    #[should_panic(expected = "prior dimension")]
    fn mismatched_prior_dimension_rejected() {
        let cfg = TwinConfig::tiny();
        let solver = cfg.build_solver();
        let (f, fq) = build_maps(&solver);
        // A prior on the wrong grid must be rejected up front.
        let bad = MaternPrior::with_hyperparameters(3, 2, 100.0, 100.0, 50.0, 1.0);
        let _ = LtiBayesEngine::offline_from_blocks(f, fq, bad, 0.02);
    }
}
