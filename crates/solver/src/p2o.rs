//! Phase 1: build the block-Toeplitz p2o and p2q maps from adjoint solves.
//!
//! Because the dynamics are LTI and the parameterization is time-invariant,
//! the gradient of the *final* observation of sensor `r` with respect to
//! parameter bin `j` is the Toeplitz block entry `T_{Nt−1−j}[r, ·]` — so a
//! single full-horizon adjoint solve per sensor yields that sensor's row of
//! *every* defining block. This is the paper's `Nd + Nq` adjoint PDE solves
//! (Table III Phase 1), run by the one extraction routine,
//! [`BlockToeplitz::from_adjoint`]: panels of [`LANES`] sensors advance
//! together through one element sweep per RK4 stage, and the panels run in
//! parallel.

use crate::solver::WaveSolver;
use tsunami_fem::kernels::LANES;
use tsunami_fft::BlockToeplitz;

/// Build the p2o map `F` (sensors) as a block lower-triangular Toeplitz
/// matrix with blocks `T_k ∈ R^{Nd × Nm}`.
pub fn build_p2o(solver: &WaveSolver) -> BlockToeplitz {
    let (nt, nd) = (solver.grid.nt_obs, solver.sensors.len());
    BlockToeplitz::from_adjoint(nt, nd, solver.n_m(), LANES, |ws| {
        solver.adjoint_data_panel(ws)
    })
}

/// Build the p2q map `Fq` (wave-height QoI) with blocks `R^{Nq × Nm}`.
pub fn build_p2q(solver: &WaveSolver) -> BlockToeplitz {
    let (nt, nq) = (solver.grid.nt_obs, solver.qoi.len());
    BlockToeplitz::from_adjoint(nt, nq, solver.n_m(), LANES, |ws| {
        solver.adjoint_qoi_panel(ws)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::tests::tiny_solver;

    /// The Toeplitz blocks must reproduce the forward map: for an impulse
    /// parameter in bin `j` at spatial index `s`, the data at observation
    /// `i ≥ j` equals `T_{i−j}[:, s]`.
    #[test]
    fn blocks_match_forward_impulses() {
        let solver = tiny_solver(3);
        let f = build_p2o(&solver);
        let nm = solver.n_m();
        let nd = solver.sensors.len();
        let nt = solver.grid.nt_obs;
        for &(j, s) in &[(0usize, 3usize), (1, 17), (2, 8)] {
            let mut m = vec![0.0; solver.n_params()];
            m[j * nm + s] = 1.0;
            let (d, _) = solver.forward(&m);
            for i in 0..nt {
                for r in 0..nd {
                    let expect = if i >= j { f.blocks[i - j][(r, s)] } else { 0.0 };
                    let got = d[i * nd + r];
                    assert!(
                        (got - expect).abs() < 1e-9 * expect.abs().max(1e-12),
                        "i={i} j={j} r={r} s={s}: {got} vs {expect}"
                    );
                }
            }
        }
    }

    /// Time-shift invariance: the response to an impulse in bin 1 is the
    /// bin-0 response delayed by one observation interval.
    #[test]
    fn shift_invariance_of_forward_map() {
        let solver = tiny_solver(3);
        let nm = solver.n_m();
        let nd = solver.sensors.len();
        let s = 5;
        let mut m0 = vec![0.0; solver.n_params()];
        m0[s] = 1.0;
        let (d0, _) = solver.forward(&m0);
        let mut m1 = vec![0.0; solver.n_params()];
        m1[nm + s] = 1.0;
        let (d1, _) = solver.forward(&m1);
        // d1 at obs i equals d0 at obs i−1.
        for i in 1..solver.grid.nt_obs {
            for r in 0..nd {
                let a = d1[i * nd + r];
                let b = d0[(i - 1) * nd + r];
                assert!(
                    (a - b).abs() < 1e-9 * b.abs().max(1e-12),
                    "shift invariance broken at i={i}, r={r}: {a} vs {b}"
                );
            }
        }
        // And the first block of d1 is zero (causality).
        for r in 0..nd {
            assert_eq!(d1[r], 0.0);
        }
    }

    #[test]
    fn p2q_blocks_match_forward() {
        let solver = tiny_solver(3);
        let fq = build_p2q(&solver);
        let nm = solver.n_m();
        let nq = solver.qoi.len();
        let (j, s) = (0usize, 11usize);
        let mut m = vec![0.0; solver.n_params()];
        m[j * nm + s] = 1.0;
        let (_, q) = solver.forward(&m);
        for i in 0..solver.grid.nt_obs {
            for r in 0..nq {
                let expect = fq.blocks[i][(r, s)];
                let got = q[i * nq + r];
                assert!(
                    (got - expect).abs() < 1e-9 * expect.abs().max(1e-12),
                    "qoi i={i}: {got} vs {expect}"
                );
            }
        }
    }

    /// End-to-end: the FFT-form of the built map must reproduce forward
    /// solves on arbitrary (non-impulse) parameters.
    #[test]
    fn fft_form_reproduces_pde_forward() {
        let solver = tiny_solver(3);
        let f = build_p2o(&solver);
        let fast = tsunami_fft::FftBlockToeplitz::from_blocks(&f);
        let mut s = 42u64;
        let m: Vec<f64> = (0..solver.n_params())
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((s >> 11) as f64 / (1u64 << 53) as f64) - 0.5
            })
            .collect();
        let (d_pde, _) = solver.forward(&m);
        let mut d_fft = vec![0.0; solver.n_data()];
        fast.matvec(&m, &mut d_fft);
        for (a, b) in d_pde.iter().zip(&d_fft) {
            assert!(
                (a - b).abs() < 1e-8 * a.abs().max(1e-10),
                "FFT map disagrees with PDE: {a} vs {b}"
            );
        }
    }
}
