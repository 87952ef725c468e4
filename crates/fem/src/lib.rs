//! High-order hexahedral finite elements — the MFEM stand-in (§VI-B/C).
//!
//! Discretization choices mirror the paper's Cascadia application code:
//!
//! - **pressure** `p`: H1-conforming continuous space of order `k` on
//!   Gauss–Lobatto–Legendre (GLL) nodes (paper: fourth order),
//! - **velocity** `u`: discontinuous (L2) space of order `k−1`, vector
//!   valued, collocated at Gauss–Legendre (GL) points (paper: third order),
//! - spectral-element (GLL) quadrature for the pressure mass ⇒ **diagonal
//!   (lumped) mass matrices**, exactly as the paper's `M`,
//! - the off-diagonal stiffness blocks of eq. (4) — `(∇p, τ)` and
//!   `−(u, ∇v)` — are exact transposes of each other *by construction*
//!   (shared quadrature), which is what makes discrete energy conservation
//!   and exact discrete adjoints possible.
//!
//! The operator application kernels come in the five variants benchmarked
//! in Fig 7 (`FullAssembly`, `PartialAssembly`, `OptimizedPa`, `FusedPa`,
//! `MatrixFree`); all produce bit-compatible results and differ only in
//! what they precompute, store, and fuse.

// The workspace warns on `unsafe_code`; this crate is the one sanctioned
// exception. The element kernels scatter into disjoint regions of shared
// output buffers through a raw-pointer wrapper (`SendMutPtr`), the same
// split-at-mut-style pattern rayon uses internally; everything else in the
// workspace stays safe.
#![allow(unsafe_code)]
// Numeric kernels use index loops that mirror the tensor/math indices
// of the discretizations; enumerate()-style rewrites obscure the formulas.
#![allow(clippy::needless_range_loop)]

pub mod basis1d;
pub mod boundary;
pub mod csr;
pub mod geom;
pub mod kernels;
pub mod pointeval;
pub mod quadrature;
pub mod spaces;

pub use basis1d::Basis1d;
pub use boundary::SurfaceMass;
pub use geom::GeomFactors;
pub use kernels::{
    FullAssembly, FusedPa, KernelVariant, MatrixFree, OptimizedPa, PartialAssembly, WaveKernel,
    LANES,
};
pub use pointeval::PointEvaluator;
pub use quadrature::{gauss_legendre, gauss_lobatto};
pub use spaces::{H1Space, L2Space};
