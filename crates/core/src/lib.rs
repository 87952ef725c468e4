//! The tsunami digital twin: real-time Bayesian inference and forecasting
//! (§V of the paper — the primary contribution).
//!
//! The framework decomposes the exact solution of the billion-parameter
//! Bayesian inverse problem into offline phases executed once and an online
//! phase executed per event (Fig 2):
//!
//! - **Phase 1** ([`phase1`]): `Nd + Nq` adjoint PDE solves build the block
//!   lower-triangular Toeplitz p2o map `F` and p2q map `Fq`.
//! - **Phase 2** ([`phase2`]): prior solves form `G = F Γprior` (equivalently
//!   `G* = Γprior F*`), then the **data-space Hessian**
//!   `K = Γnoise + F Γprior Fᵀ` is formed as a displacement Gram — the Gram
//!   of two causal block-Toeplitz maps is one GEMM of their stacked lag
//!   blocks (`Nt²·Nd·Nd·Nm` MACs) plus a running sum down each block
//!   diagonal, where the paper pushes `Nd·Nt` columns through FFT matvecs —
//!   and Cholesky-factorized. This is the Sherman–Morrison–Woodbury move of
//!   the inverse operator from parameter space (dim `Nm·Nt`) to data space
//!   (dim `Nd·Nt`).
//! - **Phase 3** ([`phase3`]): the displacement Grams `B = FqΓpriorFᵀ` and
//!   `A0 = FqΓpriorFqᵀ`, the **data-to-QoI map** `Q = B K⁻¹`, enabling
//!   forecasts that bypass parameter reconstruction entirely, and the
//!   pointwise std `√diag Γpost(q)`. The QoI posterior covariance
//!   `Γpost(q) = A0 − B K⁻¹ Bᵀ` is formed on demand
//!   ([`Phase3::gamma_post_q`]).
//! - **Phase 4** ([`phase4`]): given observations `d`, the exact posterior
//!   mean `m_map = Gᵀ K⁻¹ d` and forecast `q_map = Q d` with 95% credible
//!   intervals — sub-second online work.
//!
//! [`baseline`] implements the state-of-the-art comparator of §IV
//! (prior-preconditioned CG on the parameter-space normal equations), whose
//! agreement with the Phase 4 answer is itself a machine-precision test of
//! the SMW identity.
//!
//! Beyond the paper's headline pipeline, operational extensions:
//!
//! - [`lti`]: the engine generalized over *any* linear time-invariant
//!   forward model (§VIII's broader-applicability claim), used by the
//!   elastic fault-slip/shake-map twin in `tsunami-elastic`.
//! - [`ladder`]: streaming early warning from a growing observation
//!   window. One type, [`RungLadder`], holds one data-to-QoI operator
//!   per window rung, factored `T_w ≈ L_w R_wᵀ`, with three builders:
//!
//!   | builder | module | rung operator |
//!   |---|---|---|
//!   | [`RungLadder::build`] ([`DigitalTwin::windowed`]) | [`goal`] | exact, held as segments of the whitened map `G = B L⁻ᵀ` (no dense `T_w`), from one offline factorization for every window length |
//!   | [`RungLadder::compress`] ([`DigitalTwin::goal_ladder`]) | [`goal`] | rank-`r` randomized SVD of `T_w` (exact with [`GoalOptions::exact`]) |
//!   | [`RungLadder::project`] ([`DigitalTwin::mode_space_ladder`]) | [`modespace`] | `T_w` projected onto one shared POD basis |
//!
//!   [`window`] holds the matching windowed parameter inference.
//! - [`oed`]: goal-oriented optimal sensor placement (A-/D-optimal greedy
//!   design over candidate arrays), closing §III-A's sensor-network loop.
//! - [`bank`]: a scenario bank serving many observation streams against
//!   one precomputed twin through the batched Phase-4 path
//!   ([`phase4::infer_batch`] / [`phase4::predict_batch`]).

// Numeric kernels use index loops that mirror the tensor/math indices
// of the discretizations; enumerate()-style rewrites obscure the formulas.
#![allow(clippy::needless_range_loop)]

pub mod bank;
pub mod baseline;
pub mod config;
pub mod event;
pub mod evidence;
pub mod goal;
pub mod ladder;
pub mod lti;
pub mod metrics;
pub mod modespace;
pub mod oed;
pub mod phase1;
pub mod phase2;
pub mod phase3;
pub mod phase4;
pub mod pod;
pub mod posterior;
pub mod stprior;
pub mod twin;
pub mod window;

pub use bank::{BankAssimilation, BankScenario, ScenarioBank, ScenarioSpec};
pub use baseline::{solve_map_cg, HessianOperator};
pub use config::{BathymetryKind, TwinConfig};
pub use event::SyntheticEvent;
pub use evidence::{calibrate_noise, log_bayes_factor, log_evidence};
pub use goal::{GoalLadder, GoalOptions, WindowedForecaster};
pub use ladder::{Rung, RungLadder};
pub use lti::{build_maps, LtiBayesEngine, LtiModel};
pub use modespace::{ModeSpaceLadder, ModeSpaceOptions};
pub use oed::{greedy_design, Criterion, OedCandidates, SensorDesign};
pub use phase1::Phase1;
pub use phase2::Phase2;
pub use phase3::Phase3;
pub use phase4::{Forecast, ForecastBatch, Inference, InferenceBatch};
pub use pod::PodBank;
pub use stprior::SpaceTimePrior;
pub use twin::DigitalTwin;
pub use window::{infer_window, infer_window_batch};
