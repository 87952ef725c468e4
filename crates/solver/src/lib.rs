//! The acoustic–gravity wave solver — the paper's "Cascadia application
//! code" (§III-C, §VI-C).
//!
//! Solves the coupled first-order system (eq. 1)
//!
//! ```text
//!   ρ ∂t u + ∇p = 0                     (momentum)
//!   K⁻¹ ∂t p + ∇·u = 0                  (mass / compressibility)
//!   p = ρ g η,  ∂t η = u·n              (free surface, ∂Ωs)
//!   u·n = −∂t b = −m                    (seafloor forcing, ∂Ωb)
//!   u·n = Z⁻¹ p                         (absorbing, ∂Ωa)
//! ```
//!
//! in the mixed form (eq. 4) with lumped mass `M` and explicit RK4, exactly
//! as the paper's MFEM implementation. The crate provides:
//!
//! - forward propagation `m ↦ d` (sensor pressures) and `m ↦ q` (surface
//!   wave heights),
//! - the **exact discrete adjoint**: the transpose of the RK4 recurrence in
//!   Horner form, so `⟨F m, w⟩ = ⟨m, Fᵀ w⟩` holds to rounding — the property
//!   that makes Phase 1's "one adjoint solve per sensor" construction of the
//!   block-Toeplitz p2o map exact,
//! - CFL estimation, energy diagnostics, and the Phase 1 builders.

// Numeric kernels use index loops that mirror the tensor/math indices
// of the discretizations; enumerate()-style rewrites obscure the formulas.
#![allow(clippy::needless_range_loop)]

pub mod config;
pub mod observation;
pub mod operator;
pub mod p2o;
pub mod parammap;
pub mod params;
pub mod rk4;
pub mod solver;

pub use config::TimeGrid;
pub use observation::{QoiArray, SensorArray};
pub use operator::WaveOperator;
pub use p2o::{build_p2o, build_p2q};
pub use parammap::{BilinearParamMap, IdentityParamMap, ParamMap};
pub use params::PhysicalParams;
pub use solver::WaveSolver;
pub use tsunami_fem::kernels::LANES;
