//! The elastic digital twin: real-time fault-slip inversion and shake maps.
//!
//! This is §VIII's extension realized end-to-end: the generic
//! [`LtiBayesEngine`] of `tsunami-core` drives the *same* offline–online
//! decomposition as the tsunami twin, with the elastic solver supplying
//! the p2o/p2q maps via its exact discrete adjoint. Nothing in Phases 2–4
//! changes — the strongest demonstration of the paper's claim that the
//! framework applies to any autonomous (LTI) dynamical system.

use crate::scenario::{synthesize, ElasticEvent, SlipScenario};
use crate::shakemap::{shake_map, ShakeMap};
use crate::solver::ElasticSolver;
use rand::rngs::StdRng;
use tsunami_core::{Forecast, Inference, LtiBayesEngine, LtiModel};
use tsunami_prior::MaternPrior;

impl LtiModel for ElasticSolver {
    fn n_m(&self) -> usize {
        ElasticSolver::n_m(self)
    }
    fn n_sensors(&self) -> usize {
        self.stations.len()
    }
    fn n_qoi_outputs(&self) -> usize {
        self.qoi_sites.len()
    }
    fn nt_obs(&self) -> usize {
        self.nt_obs
    }
    fn adjoint_data(&self, w: &[f64]) -> Vec<f64> {
        ElasticSolver::adjoint_data(self, w)
    }
    fn adjoint_qoi(&self, w: &[f64]) -> Vec<f64> {
        ElasticSolver::adjoint_qoi(self, w)
    }
}

/// The assembled elastic twin: offline products plus the solver that
/// built them.
pub struct ShakeTwin {
    /// Forward/adjoint elastic machinery (offline only after Phase 1).
    pub solver: ElasticSolver,
    /// The generic Bayesian engine (Phases 1–3 precomputed).
    pub engine: LtiBayesEngine,
}

impl ShakeTwin {
    /// Run the offline pipeline. The prior on patch slip rates is a 1D
    /// Matérn field along dip with correlation length `ell` (m) and
    /// marginal standard deviation `sigma_prior` (m/s); `noise_std` is the
    /// seismogram noise level the online phase will assume.
    pub fn offline(solver: ElasticSolver, ell: f64, sigma_prior: f64, noise_std: f64) -> Self {
        let np = solver.n_m();
        let prior = MaternPrior::with_hyperparameters(
            np,
            1,
            solver.fault.length,
            solver.fault.patch_length(),
            ell,
            sigma_prior,
        );
        let engine = LtiBayesEngine::offline(&solver, prior, noise_std);
        ShakeTwin { solver, engine }
    }

    /// Online: infer the posterior-mean slip-rate history from seismograms.
    pub fn invert_slip(&self, d_obs: &[f64]) -> Inference {
        self.engine.infer(d_obs)
    }

    /// Online: forecast ground-velocity series at the map sites.
    pub fn forecast_ground_motion(&self, d_obs: &[f64]) -> Forecast {
        self.engine.predict(d_obs)
    }

    /// Online: the shake map — PGV per site with sampling-based bands
    /// propagated from the exact QoI posterior.
    pub fn shake_map(&self, d_obs: &[f64], n_samples: usize, rng: &mut StdRng) -> ShakeMap {
        let fc = self.engine.predict(d_obs);
        shake_map(
            &fc.q_map,
            self.engine.phase3.gamma_post_q(),
            self.solver.qoi_sites.len(),
            self.solver.nt_obs,
            n_samples,
            rng,
        )
    }

    /// Cumulative final slip per patch from a slip-rate history
    /// (time-major), `s_p = Σ_i m_{i,p}·Δ`.
    pub fn final_slip(&self, m: &[f64]) -> Vec<f64> {
        let np = self.solver.n_m();
        let nt = self.solver.nt_obs;
        assert_eq!(m.len(), np * nt, "slip-rate history dimension");
        let cadence = self.solver.dt * self.solver.steps_per_bin as f64;
        let mut s = vec![0.0; np];
        for i in 0..nt {
            for p in 0..np {
                s[p] += m[i * np + p] * cadence;
            }
        }
        s
    }

    /// Synthesize a noisy event from a kinematic scenario (test harness).
    pub fn synthesize(&self, scenario: &SlipScenario, noise_rel: f64, seed: u64) -> ElasticEvent {
        synthesize(&self.solver, scenario, noise_rel, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::DippingFault;
    use crate::grid::ElasticGrid;
    use crate::medium::LayeredMedium;
    use tsunami_core::metrics::{correlation, rel_l2};
    use tsunami_linalg::random::seeded_rng;

    fn build_twin(nt: usize) -> ShakeTwin {
        let grid = ElasticGrid::new(40, 20, 1000.0, 1000.0, 5, 0.94);
        let medium = LayeredMedium::cascadia_margin(20_000.0);
        let fault = DippingFault::megathrust(40_000.0, 20_000.0, 6);
        let solver = ElasticSolver::new(
            grid,
            &medium,
            fault,
            &[
                6_000.0, 10_000.0, 14_000.0, 18_000.0, 22_000.0, 26_000.0, 30_000.0, 34_000.0,
            ],
            &[26_000.0, 34_000.0],
            0.5,
            nt,
            0.5,
        );
        // The synthetic events reach ~1 m/s slip rates; a prior std of the
        // same order keeps the inversion honest. The default noise floor is
        // small but not extreme, so K stays well conditioned for the
        // pure-algebra tests.
        ShakeTwin::offline(solver, 4_000.0, 1.0, 1e-3)
    }

    #[test]
    fn slip_inversion_recovers_kinematic_rupture() {
        let mut twin = build_twin(24);
        let scenario = SlipScenario::partial_rupture(twin.solver.n_m());
        let ev = twin.synthesize(&scenario, 0.01, 11);
        // Rebuild the engine with the event's actual noise level.
        twin = {
            let t = build_twin(24);
            ShakeTwin::offline(t.solver, 4_000.0, 1.0, ev.noise_std)
        };
        let inf = twin.invert_slip(&ev.d_obs);
        let slip_true = twin.final_slip(&ev.m_true);
        let slip_map = twin.final_slip(&inf.m_map);
        let corr = correlation(&slip_map, &slip_true);
        assert!(
            corr > 0.9,
            "final-slip correlation too low: {corr}\n true {slip_true:?}\n map {slip_map:?}"
        );
    }

    #[test]
    fn ground_motion_forecast_tracks_truth() {
        let twin0 = build_twin(24);
        let scenario = SlipScenario::partial_rupture(twin0.solver.n_m());
        let ev = twin0.synthesize(&scenario, 0.01, 13);
        let twin = ShakeTwin::offline(build_twin(24).solver, 4_000.0, 1.0, ev.noise_std);
        let fc = twin.forecast_ground_motion(&ev.d_obs);
        let err = rel_l2(&fc.q_map, &ev.q_true);
        assert!(err < 0.5, "ground-motion forecast error {err}");
    }

    #[test]
    fn forecast_is_consistent_with_slip_reconstruction() {
        // q_map = Q d must equal Fq m_map — the Kalman-gain identity
        // through the *elastic* path.
        let twin = build_twin(12);
        let d: Vec<f64> = (0..twin.engine.n_data())
            .map(|i| (i as f64 * 0.29).sin())
            .collect();
        let inf = twin.invert_slip(&d);
        let fc = twin.forecast_ground_motion(&d);
        let mut q_from_m = vec![0.0; twin.engine.n_qoi()];
        twin.engine.phase1.fast_fq.matvec(&inf.m_map, &mut q_from_m);
        let scale = q_from_m.iter().fold(0.0f64, |s, &v| s.max(v.abs()));
        for (a, b) in fc.q_map.iter().zip(&q_from_m) {
            assert!(
                (a - b).abs() < 1e-7 * scale,
                "Qd vs Fq m_map: {a} vs {b} (scale {scale})"
            );
        }
    }

    #[test]
    fn shake_map_bands_cover_the_true_pgv_where_shaking_is_strong() {
        let twin0 = build_twin(24);
        let scenario = SlipScenario::partial_rupture(twin0.solver.n_m());
        let ev = twin0.synthesize(&scenario, 0.01, 17);
        let twin = ShakeTwin::offline(build_twin(24).solver, 4_000.0, 1.0, ev.noise_std);
        let mut rng = seeded_rng(4);
        let sm = twin.shake_map(&ev.d_obs, 200, &mut rng);
        let nq = twin.solver.qoi_sites.len();
        let pgv_true = crate::shakemap::pgv(&ev.q_true, nq, twin.solver.nt_obs);
        for s in 0..nq {
            // Generous band check: truth within [p05 − σ, p95 + σ].
            assert!(
                pgv_true[s] >= sm.pgv_p05[s] - sm.pgv_std[s] - 1e-12
                    && pgv_true[s] <= sm.pgv_p95[s] + sm.pgv_std[s] + 1e-12,
                "site {s}: true PGV {} outside [{}, {}] ± {}",
                pgv_true[s],
                sm.pgv_p05[s],
                sm.pgv_p95[s],
                sm.pgv_std[s]
            );
        }
    }

    #[test]
    fn final_slip_accumulates_rates() {
        let twin = build_twin(4);
        let np = twin.solver.n_m();
        let cadence = twin.solver.dt * twin.solver.steps_per_bin as f64;
        let mut m = vec![0.0; np * 4];
        m[0] = 2.0; // patch 0, bin 0
        m[np] = 1.0; // patch 0, bin 1
        let s = twin.final_slip(&m);
        assert!((s[0] - 3.0 * cadence).abs() < 1e-12);
        for p in 1..np {
            assert_eq!(s[p], 0.0);
        }
    }
}
