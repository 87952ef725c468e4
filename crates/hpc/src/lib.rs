//! HPC infrastructure: timers, memory accounting, machine models, and the
//! weak/strong scaling harness.
//!
//! The paper's scalability results (Fig 5/6, Table II) ran on El Capitan
//! (43,520 AMD MI300A APUs), Alps (9,216 GH200), Perlmutter (6,016 A100) and
//! Frontera (458,752 CPU cores). None of that hardware exists in this
//! environment, so scaling is reproduced as *measured compute + modeled
//! communication*:
//!
//! - per-rank compute time comes from actually running this repository's
//!   FEM kernels at each rank's local problem size (real measurements on
//!   the host CPU, rescaled by the machine's published per-GPU throughput),
//! - inter-rank communication is an α–β(–γ) model: per-message latency,
//!   per-byte link bandwidth, and a logarithmic contention term for the
//!   dragonfly topologies, parameterized by published system specs.
//!
//! [`comm`] documents the communication model and [`scaling`] the
//! substitution; the `fig5_scaling` bin regenerates the efficiency tables.

// Numeric kernels use index loops that mirror the tensor/math indices
// of the discretizations; enumerate()-style rewrites obscure the formulas.
#![allow(clippy::needless_range_loop)]

pub mod comm;
pub mod machines;
pub mod memory;
pub mod scaling;
pub mod timers;

pub use comm::CommModel;
pub use machines::{Machine, ALPS, EL_CAPITAN, FRONTERA, PERLMUTTER};
pub use memory::MemoryLedger;
pub use scaling::{ScalingPoint, ScalingStudy};
pub use timers::TimerRegistry;
