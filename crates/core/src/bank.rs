//! Scenario bank: "as many scenarios as you can imagine", assimilated in
//! one batched call.
//!
//! The goal-oriented companion paper (arXiv:2501.14911) frames real-time
//! warning as serving *many* candidate observation streams against one
//! precomputed twin. A [`ScenarioBank`] builds a family of synthetic
//! rupture scenarios (varying hypocenter, magnitude, and rise time),
//! generates their noisy observations with batched PDE solves, and drives
//! them through the batched online path ([`crate::phase4::infer_batch`] /
//! [`crate::phase4::predict_batch`]) so the whole bank pays one `K⁻¹`
//! factor walk and one batched FFT pass instead of `B` dispatches.

use crate::config::TwinConfig;
use crate::event::SyntheticEvent;
use crate::metrics::rel_l2;
use crate::phase4::{ForecastBatch, InferenceBatch};
use crate::pod::PodBank;
use crate::twin::DigitalTwin;
use tsunami_linalg::svd::SvdOptions;
use tsunami_linalg::DMatrix;
use tsunami_rupture::KinematicRupture;
use tsunami_solver::WaveSolver;

/// Parameters of one synthetic rupture scenario in a bank.
#[derive(Clone, Debug)]
pub struct ScenarioSpec {
    /// Along-strike hypocenter position as a fraction of `ly`.
    pub hypo_frac: f64,
    /// Peak final uplift (m) — the magnitude knob.
    pub peak_uplift: f64,
    /// Source rise time (s).
    pub rise_time: f64,
    /// Number of along-strike asperities.
    pub n_asperities: usize,
    /// Noise seed for this scenario's observations.
    pub seed: u64,
}

impl ScenarioSpec {
    /// Realize the spec as a kinematic rupture on the config's domain,
    /// at the shared margin-traversal front speed
    /// ([`SyntheticEvent::margin_rupture_speed`]).
    pub fn build_rupture(&self, cfg: &TwinConfig) -> KinematicRupture {
        let speed = SyntheticEvent::margin_rupture_speed(cfg);
        KinematicRupture::margin_wide(
            cfg.lx,
            cfg.ly,
            self.peak_uplift,
            self.n_asperities,
            self.hypo_frac,
            speed,
            self.rise_time,
        )
    }
}

/// One realized scenario: spec, rupture, and synthetic event.
pub struct BankScenario {
    /// The generating parameters.
    pub spec: ScenarioSpec,
    /// The kinematic rupture.
    pub rupture: KinematicRupture,
    /// Truth + noisy observations from the PDE forward solve.
    pub event: SyntheticEvent,
}

/// A bank of rupture scenarios with their stacked observation streams.
pub struct ScenarioBank {
    /// The realized scenarios. Empty for [`ScenarioBank::synthetic`]
    /// banks, which carry observation blocks only.
    pub scenarios: Vec<BankScenario>,
    /// Stacked noisy observations, `(Nd·Nt) × B` (scenario per column).
    d_obs: DMatrix,
    /// Stacked noise-free observations, `(Nd·Nt) × B` — the predicted data
    /// curves a live stream is scored against during event identification.
    d_clean: DMatrix,
    /// Representative noise level (RMS over the per-scenario levels).
    noise_std: f64,
}

/// The batched assimilation of a whole bank: inferences and forecasts for
/// every scenario, produced by one `infer_batch` + one `predict_batch`.
pub struct BankAssimilation {
    /// Posterior means, one column per scenario.
    pub inference: InferenceBatch,
    /// QoI forecasts, one column per scenario.
    pub forecast: ForecastBatch,
}

impl ScenarioBank {
    /// A diverse family of `n` specs: hypocenter, magnitude (peak uplift),
    /// rise time, and asperity count are spread with golden-ratio
    /// low-discrepancy sequences offset by `seed`, so any `n` gives broad,
    /// deterministic coverage of the scenario space.
    pub fn family(cfg: &TwinConfig, n: usize, seed: u64) -> Vec<ScenarioSpec> {
        const PHI: f64 = 0.618_033_988_749_894_9;
        let offset = (seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11) as f64 / (1u64 << 53) as f64;
        (0..n)
            .map(|i| {
                let u = |stride: f64| (offset + i as f64 * PHI * stride).fract();
                ScenarioSpec {
                    hypo_frac: 0.15 + 0.70 * u(1.0),
                    peak_uplift: 1.0 + 3.0 * u(0.731),
                    rise_time: (1.5 + 2.5 * u(0.413)) * cfg.dt_obs,
                    n_asperities: 1 + (i % 4),
                    seed: seed.wrapping_add(101 + i as u64),
                }
            })
            .collect()
    }

    /// Realize the specs: sample each rupture on the inversion grid, run
    /// the `B` PDE forward solves batched (`WaveSolver::forward_batch`),
    /// add per-scenario noise, and stack the observation columns.
    pub fn generate(cfg: &TwinConfig, solver: &WaveSolver, specs: &[ScenarioSpec]) -> Self {
        assert!(!specs.is_empty(), "scenario bank needs at least one spec");
        let ruptures: Vec<KinematicRupture> = specs.iter().map(|s| s.build_rupture(cfg)).collect();
        let m_trues: Vec<Vec<f64>> = ruptures
            .iter()
            .map(|r| SyntheticEvent::sample_rupture(cfg, solver, r))
            .collect();
        let forwards = solver.forward_batch(&m_trues);
        let scenarios: Vec<BankScenario> = specs
            .iter()
            .zip(ruptures)
            .zip(m_trues.into_iter().zip(forwards))
            .map(|((spec, rupture), (m_true, (d_clean, q_true)))| {
                let event =
                    SyntheticEvent::from_forward(cfg, &rupture, m_true, d_clean, q_true, spec.seed);
                BankScenario {
                    spec: spec.clone(),
                    rupture,
                    event,
                }
            })
            .collect();
        let n_d = solver.n_data();
        let mut d_obs = DMatrix::zeros(n_d, scenarios.len());
        let mut d_clean = DMatrix::zeros(n_d, scenarios.len());
        for (j, s) in scenarios.iter().enumerate() {
            d_obs.set_col(j, &s.event.d_obs);
            d_clean.set_col(j, &s.event.d_clean);
        }
        let noise_std = (scenarios
            .iter()
            .map(|s| s.event.noise_std * s.event.noise_std)
            .sum::<f64>()
            / scenarios.len() as f64)
            .sqrt();
        ScenarioBank {
            scenarios,
            d_obs,
            d_clean,
            noise_std,
        }
    }

    /// A bank from prefabricated observation blocks, with no realized
    /// rupture scenarios behind them (`d_obs`/`d_clean` are `(Nd·Nt) × B`,
    /// scenario per column). This is how bank-scale consumers — the
    /// identification benches, stress tests, or an operator importing
    /// precomputed curves — get to 10³+ scenarios without paying `B` PDE
    /// forward solves. Everything except the rupture-aware accessors
    /// ([`Self::forecast_errors`] and the `scenarios` list) works as
    /// usual.
    pub fn synthetic(d_obs: DMatrix, d_clean: DMatrix, noise_std: f64) -> Self {
        assert_eq!(d_obs.nrows(), d_clean.nrows(), "synthetic: row mismatch");
        assert_eq!(d_obs.ncols(), d_clean.ncols(), "synthetic: col mismatch");
        assert!(
            d_clean.ncols() > 0,
            "scenario bank needs at least one column"
        );
        assert!(
            noise_std > 0.0 && noise_std.is_finite(),
            "synthetic: noise level must be positive"
        );
        ScenarioBank {
            scenarios: Vec::new(),
            d_obs,
            d_clean,
            noise_std,
        }
    }

    /// Number of scenarios `B` (columns of the observation blocks; for
    /// generated banks this equals the number of realized scenarios).
    pub fn len(&self) -> usize {
        self.d_clean.ncols()
    }

    /// True if the bank holds no scenarios.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The stacked observation block, `(Nd·Nt) × B`.
    pub fn observations(&self) -> &DMatrix {
        &self.d_obs
    }

    /// The stacked noise-free observation block, `(Nd·Nt) × B`. Row `i`
    /// holds every scenario's predicted datum at the same (sensor, time)
    /// slot, so sequential likelihood scoring of a partial stream reads
    /// contiguous rows.
    pub fn clean_observations(&self) -> &DMatrix {
        &self.d_clean
    }

    /// Representative noise level for calibrating the twin
    /// (RMS of the per-scenario noise levels).
    pub fn noise_std(&self) -> f64 {
        self.noise_std
    }

    /// Compress the bank's clean observation block to `rank` POD modes
    /// (randomized truncated SVD with default options — see
    /// [`crate::pod::PodBank`]): left modes `U`, mode-space coefficients
    /// `UᵀC`, and per-scenario residual energies. Mode-space
    /// identification then scores misfits in `r × B` instead of
    /// `(Nd·Nt) × B` per tick.
    pub fn compress(&self, rank: usize) -> PodBank {
        PodBank::from_clean_block(&self.d_clean, rank, SvdOptions::default())
    }

    /// Like [`Self::compress`], but picks the rank by an energy target:
    /// the smallest rank (within `max_rank`) whose modes capture at least
    /// `energy_frac` of the clean block's squared Frobenius energy.
    pub fn compress_energy(&self, energy_frac: f64, max_rank: usize) -> PodBank {
        let pod = self.compress(max_rank);
        let r = pod.rank_for_energy(energy_frac);
        if r == pod.rank() {
            pod
        } else {
            PodBank::from_clean_block(&self.d_clean, r, SvdOptions::default())
        }
    }

    /// Assimilate every scenario through the batched online path in one
    /// call: one multi-RHS `K⁻¹` solve + batched `Gᵀ` FFT pass for the
    /// inferences, one dense `Q · D` product for the forecasts.
    pub fn assimilate(&self, twin: &DigitalTwin) -> BankAssimilation {
        BankAssimilation {
            inference: twin.infer_batch(&self.d_obs),
            forecast: twin.forecast_batch(&self.d_obs),
        }
    }

    /// Per-scenario relative L2 forecast errors against each scenario's
    /// true QoI trace. Requires realized scenarios (not available on
    /// [`Self::synthetic`] banks, which have no ground truth).
    pub fn forecast_errors(&self, forecast: &ForecastBatch) -> Vec<f64> {
        assert_eq!(forecast.batch_size(), self.len(), "bank/forecast size");
        assert_eq!(
            self.scenarios.len(),
            self.len(),
            "forecast_errors needs realized scenarios (synthetic bank?)"
        );
        self.scenarios
            .iter()
            .enumerate()
            .map(|(j, s)| rel_l2(&forecast.q_map.col(j), &s.event.q_true))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase4;

    #[test]
    fn family_spans_distinct_scenarios() {
        let cfg = TwinConfig::tiny();
        let specs = ScenarioBank::family(&cfg, 8, 3);
        assert_eq!(specs.len(), 8);
        for w in specs.windows(2) {
            assert!(
                (w[0].hypo_frac - w[1].hypo_frac).abs() > 1e-6
                    || (w[0].peak_uplift - w[1].peak_uplift).abs() > 1e-6,
                "adjacent scenarios must differ"
            );
        }
        for s in &specs {
            assert!((0.15..=0.85).contains(&s.hypo_frac));
            assert!(s.peak_uplift >= 1.0 && s.peak_uplift <= 4.0);
            assert!(s.rise_time > 0.0);
            assert!(s.n_asperities >= 1);
        }
    }

    #[test]
    fn bank_assimilates_batch_consistent_with_single_rhs() {
        let cfg = TwinConfig::tiny();
        let solver = cfg.build_solver();
        let specs = ScenarioBank::family(&cfg, 8, 42);
        let bank = ScenarioBank::generate(&cfg, &solver, &specs);
        assert_eq!(bank.len(), 8);
        assert_eq!(bank.observations().nrows(), solver.n_data());
        // Clean block mirrors each scenario's noise-free data.
        assert_eq!(bank.clean_observations().nrows(), solver.n_data());
        for (j, s) in bank.scenarios.iter().enumerate() {
            assert_eq!(bank.clean_observations().col(j), s.event.d_clean);
        }
        // Observation columns are genuinely distinct scenarios.
        for j in 1..bank.len() {
            let a = bank.observations().col(0);
            let b = bank.observations().col(j);
            assert!(rel_l2(&b, &a) > 1e-3, "columns 0 and {j} too similar");
        }
        drop(solver);

        let twin = DigitalTwin::offline(cfg, bank.noise_std());
        let out = bank.assimilate(&twin);
        assert_eq!(out.inference.batch_size(), 8);
        assert_eq!(out.forecast.batch_size(), 8);

        // The batched answers must match the single-RHS path per column.
        for j in 0..bank.len() {
            let d_j = bank.observations().col(j);
            let single = phase4::infer(&twin.phase1, &twin.phase2, &d_j);
            let batch_j = out.inference.scenario(j);
            assert_eq!(batch_j, single.m_map, "scenario {j} m_map drift");
        }

        // Forecasts actually track each scenario's own truth.
        let errs = bank.forecast_errors(&out.forecast);
        assert_eq!(errs.len(), 8);
        let good = errs.iter().filter(|e| **e < 0.6).count();
        assert!(
            good >= 6,
            "most scenarios should forecast well, errors {errs:?}"
        );
    }
}
