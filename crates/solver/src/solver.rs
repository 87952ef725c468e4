//! The assembled forward/adjoint wave solver: `m ↦ d`, `m ↦ q`, and their
//! exact transposes.

use crate::config::TimeGrid;
use crate::observation::{QoiArray, SensorArray};
use crate::operator::WaveOperator;
use crate::parammap::ParamMap;
use crate::rk4::{rk4_step, rk4_step_transpose, Rk4Workspace};

/// A complete simulation setup: operator + time grid + observation arrays +
/// parameter map.
pub struct WaveSolver {
    /// The discrete wave operator.
    pub op: WaveOperator,
    /// Solver/observation time grids.
    pub grid: TimeGrid,
    /// Pressure sensors (`Nd`).
    pub sensors: SensorArray,
    /// Wave-height forecast probes (`Nq`).
    pub qoi: QoiArray,
    /// Inversion-grid → bottom-node map.
    pub pmap: Box<dyn ParamMap>,
}

impl WaveSolver {
    /// Spatial parameter dimension `Nm`.
    pub fn n_m(&self) -> usize {
        self.pmap.n_params()
    }

    /// Full space-time parameter dimension `Nm·Nt`.
    pub fn n_params(&self) -> usize {
        self.n_m() * self.grid.nt_obs
    }

    /// Data dimension `Nd·Nt`.
    pub fn n_data(&self) -> usize {
        self.sensors.len() * self.grid.nt_obs
    }

    /// QoI dimension `Nq·Nt`.
    pub fn n_qoi(&self) -> usize {
        self.qoi.len() * self.grid.nt_obs
    }

    /// Forward solve: given space-time parameters `m` (time-major blocks of
    /// `Nm`), returns `(d, q)` — sensor pressures and QoI wave heights at
    /// the observation times. Optionally invokes `on_obs(i, state)` at each
    /// observation step for field capture.
    pub fn forward(&self, m: &[f64]) -> (Vec<f64>, Vec<f64>) {
        self.forward_with(m, |_, _| {})
    }

    /// Forward-solve a batch of parameter fields, parallel over scenarios.
    /// Each scenario is an independent PDE solve, so this is the
    /// scenario-bank analogue of the batched FFT/solve kernels: one call
    /// turns `B` rupture scenarios into `B` observation streams. Nested
    /// bulk ops inside each solve stay serial on worker threads (rayon-shim
    /// contract), so scenario-parallelism does not oversubscribe.
    pub fn forward_batch(&self, ms: &[Vec<f64>]) -> Vec<(Vec<f64>, Vec<f64>)> {
        use rayon::prelude::*;
        ms.par_iter().map(|m| self.forward(m)).collect()
    }

    /// Forward solve with an observation-step callback.
    pub fn forward_with(
        &self,
        m: &[f64],
        mut on_obs: impl FnMut(usize, &[f64]),
    ) -> (Vec<f64>, Vec<f64>) {
        assert_eq!(m.len(), self.n_params(), "forward: parameter dim");
        let nm = self.n_m();
        let nd = self.sensors.len();
        let nq = self.qoi.len();
        let n = self.op.n_state();
        let mut x = vec![0.0; n];
        let mut ws = Rk4Workspace::new(n);
        let mut bottom = vec![0.0; self.op.bottom.len()];
        let mut d = vec![0.0; self.n_data()];
        let mut q = vec![0.0; self.n_qoi()];
        let mut current_bin = usize::MAX;
        for step in 0..self.grid.total_steps() {
            let bin = self.grid.bin_of_step(step);
            if bin != current_bin {
                self.pmap.apply(&m[bin * nm..(bin + 1) * nm], &mut bottom);
                current_bin = bin;
            }
            rk4_step(&self.op, &mut x, Some(&bottom), self.grid.dt, &mut ws);
            if let Some(i) = self.grid.obs_index_at(step + 1) {
                self.sensors
                    .observe(&self.op, &x, &mut d[i * nd..(i + 1) * nd]);
                self.qoi.observe(&self.op, &x, &mut q[i * nq..(i + 1) * nq]);
                on_obs(i, &x);
            }
        }
        (d, q)
    }

    /// Adjoint of the data map: `m_grad = Fᵀ w` for `w` in data space
    /// (time-major blocks of `Nd`).
    pub fn adjoint_data(&self, w: &[f64]) -> Vec<f64> {
        assert_eq!(w.len(), self.n_data(), "adjoint: data dim");
        self.adjoint_impl(|i, lambda| {
            let nd = self.sensors.len();
            self.sensors
                .scatter(&self.op, &w[i * nd..(i + 1) * nd], lambda);
        })
    }

    /// Adjoint of the QoI map: `m_grad = Fqᵀ w` for `w` in QoI space.
    pub fn adjoint_qoi(&self, w: &[f64]) -> Vec<f64> {
        assert_eq!(w.len(), self.n_qoi(), "adjoint: qoi dim");
        self.adjoint_impl(|i, lambda| {
            let nq = self.qoi.len();
            self.qoi.scatter(&self.op, &w[i * nq..(i + 1) * nq], lambda);
        })
    }

    /// Shared backward sweep: `inject(i, λ)` adds the observation-functional
    /// gradient at observation index `i`.
    fn adjoint_impl(&self, inject: impl Fn(usize, &mut [f64])) -> Vec<f64> {
        let nm = self.n_m();
        let n = self.op.n_state();
        let mut lambda = vec![0.0; n];
        let mut ws = Rk4Workspace::new(n);
        let mut m_grad = vec![0.0; self.n_params()];
        let mut bottom_grad = vec![0.0; self.op.bottom.len()];
        let total = self.grid.total_steps();
        for step in (1..=total).rev() {
            if let Some(i) = self.grid.obs_index_at(step) {
                inject(i, &mut lambda);
            }
            bottom_grad.iter_mut().for_each(|v| *v = 0.0);
            rk4_step_transpose(
                &self.op,
                &mut lambda,
                Some(bottom_grad.as_mut_slice()),
                self.grid.dt,
                &mut ws,
            );
            let bin = self.grid.bin_of_step(step - 1);
            self.pmap
                .apply_transpose_add(&bottom_grad, &mut m_grad[bin * nm..(bin + 1) * nm]);
        }
        m_grad
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::parammap::IdentityParamMap;
    use crate::params::PhysicalParams;
    use std::sync::Arc;
    use tsunami_fem::kernels::{KernelContext, KernelVariant};
    use tsunami_mesh::{FlatBathymetry, HexMesh};

    /// Two sensors, one QoI point, a 3×2×1 flat-ocean mesh — the crate's
    /// shared fixture.
    pub(crate) fn tiny_solver(nt_obs: usize) -> WaveSolver {
        let mesh = Arc::new(HexMesh::terrain_following(
            3,
            2,
            1,
            3000.0,
            2000.0,
            &FlatBathymetry { depth: 500.0 },
        ));
        let ctx = Arc::new(KernelContext::new(mesh, 3));
        let params = PhysicalParams::slow_ocean(100.0);
        let op = WaveOperator::new(ctx, KernelVariant::FusedPa, params);
        let sensors = SensorArray::on_seafloor(&op, &[(800.0, 700.0), (2200.0, 1300.0)], 0.05);
        let qoi = QoiArray::on_surface(&op, &[(1500.0, 1000.0)]);
        let n_bottom = op.bottom.len();
        let dt_stable = params.cfl_dt(500.0, 3, 0.4);
        let grid = TimeGrid::from_cadence(dt_stable, 2.0, nt_obs);
        WaveSolver {
            op,
            grid,
            sensors,
            qoi,
            pmap: Box::new(IdentityParamMap { n: n_bottom }),
        }
    }

    fn pseudo(n: usize, seed: u64) -> Vec<f64> {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        (0..n)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((s >> 11) as f64 / (1u64 << 53) as f64) - 0.5
            })
            .collect()
    }

    #[test]
    fn forward_produces_signal() {
        let solver = tiny_solver(4);
        let m = pseudo(solver.n_params(), 1);
        let (d, q) = solver.forward(&m);
        assert_eq!(d.len(), solver.n_data());
        assert_eq!(q.len(), solver.n_qoi());
        assert!(d.iter().any(|&v| v.abs() > 1e-12), "sensors saw nothing");
    }

    #[test]
    fn zero_source_zero_data() {
        let solver = tiny_solver(3);
        let m = vec![0.0; solver.n_params()];
        let (d, q) = solver.forward(&m);
        assert!(d.iter().all(|&v| v == 0.0));
        assert!(q.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn full_map_adjoint_identity() {
        // ⟨F m, w⟩ = ⟨m, Fᵀ w⟩ across the whole simulation — the make-or-
        // break property for the Toeplitz construction.
        let solver = tiny_solver(4);
        let m = pseudo(solver.n_params(), 2);
        let w = pseudo(solver.n_data(), 3);
        let (d, _) = solver.forward(&m);
        let lhs: f64 = d.iter().zip(&w).map(|(a, b)| a * b).sum();
        let mtw = solver.adjoint_data(&w);
        let rhs: f64 = m.iter().zip(&mtw).map(|(a, b)| a * b).sum();
        assert!(
            (lhs - rhs).abs() < 1e-9 * lhs.abs().max(1e-30),
            "⟨Fm,w⟩={lhs} vs ⟨m,Fᵀw⟩={rhs}"
        );
    }

    #[test]
    fn qoi_map_adjoint_identity() {
        let solver = tiny_solver(3);
        let m = pseudo(solver.n_params(), 4);
        let w = pseudo(solver.n_qoi(), 5);
        let (_, q) = solver.forward(&m);
        let lhs: f64 = q.iter().zip(&w).map(|(a, b)| a * b).sum();
        let mtw = solver.adjoint_qoi(&w);
        let rhs: f64 = m.iter().zip(&mtw).map(|(a, b)| a * b).sum();
        assert!(
            (lhs - rhs).abs() < 1e-9 * lhs.abs().max(1e-30),
            "{lhs} vs {rhs}"
        );
    }

    #[test]
    fn causality_late_source_no_early_signal() {
        let solver = tiny_solver(4);
        let nm = solver.n_m();
        let mut m = vec![0.0; solver.n_params()];
        // Source only in the last bin.
        for v in m[3 * nm..].iter_mut() {
            *v = 1.0;
        }
        let (d, _) = solver.forward(&m);
        let nd = solver.sensors.len();
        // Observations at indices 0..3 happen at the ends of bins 0..3;
        // data before the active bin must be exactly zero.
        for &v in &d[..2 * nd] {
            assert_eq!(v, 0.0, "acausal response");
        }
    }

    #[test]
    fn linearity_of_forward_map() {
        let solver = tiny_solver(3);
        let m1 = pseudo(solver.n_params(), 6);
        let m2 = pseudo(solver.n_params(), 7);
        let (d1, _) = solver.forward(&m1);
        let (d2, _) = solver.forward(&m2);
        let m12: Vec<f64> = m1.iter().zip(&m2).map(|(a, b)| 2.0 * a - 3.0 * b).collect();
        let (d12, _) = solver.forward(&m12);
        for ((a, b), c) in d1.iter().zip(&d2).zip(&d12) {
            let expect = 2.0 * a - 3.0 * b;
            assert!((c - expect).abs() < 1e-9 * expect.abs().max(1e-12));
        }
    }
}
