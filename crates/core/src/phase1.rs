//! Phase 1 (offline): adjoint PDE solves → block-Toeplitz `F` and `Fq`.

use tsunami_fft::{BlockToeplitz, FftBlockToeplitz};
use tsunami_hpc::TimerRegistry;
use tsunami_solver::{build_p2o, build_p2q, WaveSolver};

/// The precomputed p2o/p2q maps in both block form and FFT form.
pub struct Phase1 {
    /// p2o defining blocks (`Nd × Nm` each).
    pub f: BlockToeplitz,
    /// p2q defining blocks (`Nq × Nm` each).
    pub fq: BlockToeplitz,
    /// FFT form of `F` (the online workhorse).
    pub fast_f: FftBlockToeplitz,
    /// FFT form of `Fq`.
    pub fast_fq: FftBlockToeplitz,
}

impl Phase1 {
    /// Run the `Nd + Nq` adjoint solves (parallelized) and precompute the
    /// circulant spectra. Timers: `"Phase 1: form F (adjoint solves)"` /
    /// `"… Fq …"`, then `"Phase 1: FFT spectra of F"` / `"… of Fq"`.
    pub fn build(solver: &WaveSolver, timers: &TimerRegistry) -> Self {
        let f = timers.time("Phase 1: form F (adjoint solves)", || build_p2o(solver));
        let fq = timers.time("Phase 1: form Fq (adjoint solves)", || build_p2q(solver));
        Self::assemble(f, fq, timers)
    }

    /// Assemble Phase 1 products from externally built Toeplitz blocks.
    ///
    /// This is the entry point for *any* LTI forward model beyond the
    /// acoustic–gravity solver (§VIII: "autonomous dynamical systems arise
    /// in many different settings") — e.g. the elastic fault-slip model in
    /// `tsunami-elastic`, or blocks loaded from disk.
    pub fn from_blocks(f: BlockToeplitz, fq: BlockToeplitz) -> Self {
        Self::assemble(f, fq, &TimerRegistry::new())
    }

    /// The one assembly behind [`Self::build`] and [`Self::from_blocks`]:
    /// check that the two maps agree, then take their spectra.
    pub(crate) fn assemble(f: BlockToeplitz, fq: BlockToeplitz, timers: &TimerRegistry) -> Self {
        assert_eq!(f.nt, fq.nt, "p2o and p2q must share the time horizon");
        assert_eq!(
            f.in_dim, fq.in_dim,
            "p2o and p2q must share the parameter space"
        );
        let fast_f = timers.time("Phase 1: FFT spectra of F", || {
            FftBlockToeplitz::from_blocks(&f)
        });
        let fast_fq = timers.time("Phase 1: FFT spectra of Fq", || {
            FftBlockToeplitz::from_blocks(&fq)
        });
        Phase1 {
            f,
            fq,
            fast_f,
            fast_fq,
        }
    }

    /// Compact storage of the maps in bytes (`O(Nm·(Nd+Nq)·Nt)` — the
    /// paper's point that shift invariance makes the maps storable at all).
    pub fn storage_bytes(&self) -> usize {
        self.f.storage_bytes() + self.fq.storage_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TwinConfig;

    #[test]
    fn phase1_builds_consistent_shapes() {
        let cfg = TwinConfig::tiny();
        let solver = cfg.build_solver();
        let timers = TimerRegistry::new();
        let p1 = Phase1::build(&solver, &timers);
        assert_eq!(p1.f.out_dim, solver.sensors.len());
        assert_eq!(p1.f.in_dim, solver.n_m());
        assert_eq!(p1.f.nt, solver.grid.nt_obs);
        assert_eq!(p1.fq.out_dim, solver.qoi.len());
        assert!(timers.seconds("Phase 1: form F (adjoint solves)") > 0.0);
        assert!(p1.storage_bytes() > 0);
    }

    #[test]
    fn fft_form_matches_block_form() {
        let cfg = TwinConfig::tiny();
        let solver = cfg.build_solver();
        let timers = TimerRegistry::new();
        let p1 = Phase1::build(&solver, &timers);
        let m: Vec<f64> = (0..p1.f.ncols()).map(|i| (i as f64 * 0.17).sin()).collect();
        let mut d1 = vec![0.0; p1.f.nrows()];
        p1.f.matvec_naive(&m, &mut d1);
        let mut d2 = vec![0.0; p1.f.nrows()];
        p1.fast_f.matvec(&m, &mut d2);
        for (a, b) in d1.iter().zip(&d2) {
            assert!((a - b).abs() < 1e-10 * a.abs().max(1e-12));
        }
    }
}
