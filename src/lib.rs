//! # Cascadia Digital Twin
//!
//! A from-scratch Rust reproduction of *"Real-time Bayesian inference at
//! extreme scale: A digital twin for tsunami early warning applied to the
//! Cascadia subduction zone"* (Henneking, Venkat, Dobrev, Camier, Kolev,
//! Fernando, Gabriel, Ghattas — SC 2025, Gordon Bell finalist;
//! arXiv:2504.16344).
//!
//! The system infers earthquake-induced spatiotemporal seafloor motion from
//! ocean-bottom pressure data by solving a Bayesian inverse problem
//! governed by the 3D coupled acoustic–gravity wave equations — **exactly**,
//! in real time — and forecasts tsunami wave heights with quantified
//! uncertainty. The offline–online decomposition that makes this possible
//! (block-Toeplitz p2o maps from LTI dynamics, FFT-diagonalized Hessian
//! actions, a Sherman–Morrison–Woodbury move to the data space) lives in
//! [`twin`] ([`tsunami_core`]); every substrate it needs — high-order FEM,
//! the wave solver with exact discrete adjoints, FFTs, Matérn priors, dense
//! linear algebra, rupture scenarios, machine/scaling models — is
//! implemented in the workspace crates re-exported here.
//!
//! ## Quickstart
//!
//! ```
//! use cascadia_dt::prelude::*;
//!
//! // Scaled-down scenario (see TwinConfig::demo() for a larger one).
//! let config = TwinConfig::tiny();
//!
//! // Synthesize the "true" earthquake and its noisy observations.
//! let solver = config.build_solver();
//! let rupture = SyntheticEvent::default_rupture(&config);
//! let event = SyntheticEvent::generate(&config, &solver, &rupture, 42);
//!
//! // Offline: Phases 1–3 (PDE solves, data-space Hessian, data-to-QoI map).
//! let twin = DigitalTwin::offline(config, event.noise_std);
//!
//! // Online: real-time inference + probabilistic forecast.
//! let inference = twin.infer(&event.d_obs);
//! let forecast = twin.forecast(&event.d_obs);
//! assert_eq!(inference.m_map.len(), twin.n_params());
//! assert_eq!(forecast.q_map.len(), forecast.q_std.len());
//! ```

pub use tsunami_core as twin;
pub use tsunami_elastic as elastic;
pub use tsunami_fem as fem;
pub use tsunami_fft as fft;
pub use tsunami_hpc as hpc;
pub use tsunami_linalg as linalg;
pub use tsunami_mesh as mesh;
pub use tsunami_obs as obs;
pub use tsunami_prior as prior;
pub use tsunami_rupture as rupture;
pub use tsunami_solver as solver;
pub use tsunami_stream as stream;

/// The commonly used types, one `use` away.
pub mod prelude {
    pub use tsunami_core::{
        greedy_design, infer_window, infer_window_batch, BankAssimilation, Criterion, DigitalTwin,
        Forecast, ForecastBatch, GoalLadder, GoalOptions, Inference, InferenceBatch,
        LtiBayesEngine, LtiModel, ModeSpaceLadder, ModeSpaceOptions, OedCandidates, PodBank, Rung,
        RungLadder, ScenarioBank, ScenarioSpec, SpaceTimePrior, SyntheticEvent, TwinConfig,
        WindowedForecaster,
    };
    pub use tsunami_elastic::{
        DippingFault, ElasticGrid, ElasticSolver, LayeredMedium, ShakeTwin, SlipScenario,
    };
    pub use tsunami_fem::kernels::KernelVariant;
    pub use tsunami_fft::{BlockToeplitz, FftBlockToeplitz};
    pub use tsunami_hpc::{TimerRegistry, ALPS, EL_CAPITAN, FRONTERA, PERLMUTTER};
    pub use tsunami_linalg::{Cholesky, DMatrix, LinearOperator, RhsPanel};
    pub use tsunami_mesh::{CascadiaBathymetry, FlatBathymetry, HexMesh};
    pub use tsunami_obs::{AuditRing, Registry};
    pub use tsunami_prior::MaternPrior;
    pub use tsunami_rupture::KinematicRupture;
    pub use tsunami_solver::{PhysicalParams, WaveSolver};
    pub use tsunami_stream::{
        superpose_forecasts, EngineMetrics, IdentifyBackend, ScenarioMatch, StreamConfig,
        StreamEngine, StreamSession, TickMetrics, TickPath, WarningLevel, WarningTransition,
    };
}
