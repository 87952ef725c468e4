//! The assembled forward/adjoint wave solver: `m ↦ d`, `m ↦ q`, and their
//! exact transposes.

use crate::config::TimeGrid;
use crate::observation::{QoiArray, SensorArray};
use crate::operator::WaveOperator;
use crate::parammap::ParamMap;
use crate::rk4::{rk4_step, rk4_step_transpose, Rk4Workspace};
use tsunami_fem::kernels::{read_lane, write_lane, LANES};

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
    /// the observation times. The one-lane case of [`Self::forward_panel`].
    pub fn forward(&self, m: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let mut out = self.forward_panel(&[m]);
        out.pop().expect("one lane in, one result out")
    }

    /// Forward-solve a batch of parameter fields: panels of [`LANES`]
    /// scenarios, parallel over panels, results in input order. Each
    /// panel advances its scenarios through one element sweep per RK4
    /// stage ([`Self::forward_panel`]), so every result is bit-identical
    /// to [`Self::forward`] on that scenario alone. Nested bulk ops inside
    /// a panel stay serial on worker threads (rayon-shim contract), so
    /// panel parallelism does not oversubscribe.
    pub fn forward_batch(&self, ms: &[Vec<f64>]) -> Vec<(Vec<f64>, Vec<f64>)> {
        use rayon::prelude::*;
        let panels: Vec<Vec<(Vec<f64>, Vec<f64>)>> = ms
            .par_chunks(LANES)
            .map(|chunk| {
                let lanes: Vec<&[f64]> = chunk.iter().map(Vec::as_slice).collect();
                self.forward_panel(&lanes)
            })
            .collect();
        panels.into_iter().flatten().collect()
    }

    /// Forward-solve up to [`LANES`] parameter fields together: the states
    /// advance as one lane-minor panel (zero-padded to `LANES` when more
    /// than one field is given), so the element sweep reads the operator
    /// once for all of them. Forcing and observation run per lane.
    pub fn forward_panel(&self, ms: &[&[f64]]) -> Vec<(Vec<f64>, Vec<f64>)> {
        let lanes = panel_width(ms.len());
        for m in ms {
            assert_eq!(m.len(), self.n_params(), "forward: parameter dim");
        }
        let nm = self.n_m();
        let nd = self.sensors.len();
        let nq = self.qoi.len();
        let n_bottom = self.op.bottom.len();
        let mut x = vec![0.0; self.op.n_state() * lanes];
        let mut ws = Rk4Workspace::new(&self.op, lanes);
        let mut bottom = vec![0.0; n_bottom * lanes];
        let mut bottom_lane = vec![0.0; n_bottom];
        let mut out = vec![(vec![0.0; self.n_data()], vec![0.0; self.n_qoi()]); ms.len()];
        let mut current_bin = usize::MAX;
        for step in 0..self.grid.total_steps() {
            let bin = self.grid.bin_of_step(step);
            if bin != current_bin {
                for (l, m) in ms.iter().enumerate() {
                    self.pmap
                        .apply(&m[bin * nm..(bin + 1) * nm], &mut bottom_lane);
                    write_lane(&mut bottom, lanes, l, &bottom_lane);
                }
                current_bin = bin;
            }
            rk4_step(&self.op, &mut x, Some(&bottom), self.grid.dt, &mut ws);
            if let Some(i) = self.grid.obs_index_at(step + 1) {
                for (l, (d, q)) in out.iter_mut().enumerate() {
                    self.sensors
                        .observe_lane(&self.op, &x, lanes, l, &mut d[i * nd..(i + 1) * nd]);
                    self.qoi
                        .observe_lane(&self.op, &x, lanes, l, &mut q[i * nq..(i + 1) * nq]);
                }
            }
        }
        out
    }

    /// Adjoint of the data map: `m_grad = Fᵀ w` for `w` in data space
    /// (time-major blocks of `Nd`). The one-lane case of
    /// [`Self::adjoint_data_panel`].
    pub fn adjoint_data(&self, w: &[f64]) -> Vec<f64> {
        let mut out = self.adjoint_data_panel(&[w]);
        out.pop().expect("one lane in, one result out")
    }

    /// Adjoint of the QoI map: `m_grad = Fqᵀ w` for `w` in QoI space. The
    /// one-lane case of [`Self::adjoint_qoi_panel`].
    pub fn adjoint_qoi(&self, w: &[f64]) -> Vec<f64> {
        let mut out = self.adjoint_qoi_panel(&[w]);
        out.pop().expect("one lane in, one result out")
    }

    /// [`Self::adjoint_data`] for up to [`LANES`] data-space vectors,
    /// advanced as one panel; each result is bit-identical to the one-lane
    /// solve.
    pub fn adjoint_data_panel(&self, ws: &[&[f64]]) -> Vec<Vec<f64>> {
        let nd = self.sensors.len();
        for w in ws {
            assert_eq!(w.len(), self.n_data(), "adjoint: data dim");
        }
        self.adjoint_panel(ws.len(), |i, lanes, l, lambda| {
            self.sensors
                .scatter_lane(&self.op, &ws[l][i * nd..(i + 1) * nd], lambda, lanes, l);
        })
    }

    /// [`Self::adjoint_qoi`] for up to [`LANES`] QoI-space vectors, advanced
    /// as one panel.
    pub fn adjoint_qoi_panel(&self, ws: &[&[f64]]) -> Vec<Vec<f64>> {
        let nq = self.qoi.len();
        for w in ws {
            assert_eq!(w.len(), self.n_qoi(), "adjoint: qoi dim");
        }
        self.adjoint_panel(ws.len(), |i, lanes, l, lambda| {
            self.qoi
                .scatter_lane(&self.op, &ws[l][i * nq..(i + 1) * nq], lambda, lanes, l);
        })
    }

    /// Shared backward sweep over a panel of `n` adjoint states:
    /// `inject(i, lanes, l, λ)` adds lane `l`'s observation-functional
    /// gradient at observation index `i`.
    fn adjoint_panel(
        &self,
        n: usize,
        inject: impl Fn(usize, usize, usize, &mut [f64]),
    ) -> Vec<Vec<f64>> {
        let lanes = panel_width(n);
        let nm = self.n_m();
        let n_bottom = self.op.bottom.len();
        let mut lambda = vec![0.0; self.op.n_state() * lanes];
        let mut ws = Rk4Workspace::new(&self.op, lanes);
        let mut m_grads = vec![vec![0.0; self.n_params()]; n];
        let mut bottom_grad = vec![0.0; n_bottom * lanes];
        let mut bottom_lane = vec![0.0; n_bottom];
        let total = self.grid.total_steps();
        for step in (1..=total).rev() {
            if let Some(i) = self.grid.obs_index_at(step) {
                for l in 0..n {
                    inject(i, lanes, l, &mut lambda);
                }
            }
            bottom_grad.fill(0.0);
            rk4_step_transpose(
                &self.op,
                &mut lambda,
                Some(bottom_grad.as_mut_slice()),
                self.grid.dt,
                &mut ws,
            );
            let bin = self.grid.bin_of_step(step - 1);
            for (l, m_grad) in m_grads.iter_mut().enumerate() {
                read_lane(&bottom_grad, lanes, l, &mut bottom_lane);
                self.pmap
                    .apply_transpose_add(&bottom_lane, &mut m_grad[bin * nm..(bin + 1) * nm]);
            }
        }
        m_grads
    }
}

/// Storage width of a panel of `n` states: one state runs unpadded, more
/// are zero-padded to [`LANES`] (a zero lane stays exactly zero).
fn panel_width(n: usize) -> usize {
    assert!(
        (1..=LANES).contains(&n),
        "a panel holds 1..={LANES} states, got {n}"
    );
    if n == 1 {
        1
    } else {
        LANES
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::parammap::IdentityParamMap;
    use crate::params::PhysicalParams;
    use std::sync::Arc;
    use tsunami_fem::kernels::{KernelContext, KernelVariant};
    use tsunami_fft::BlockToeplitz;
    use tsunami_mesh::{FlatBathymetry, HexMesh};

    /// Two sensors, one QoI point, a 3×2×1 flat-ocean mesh — the crate's
    /// shared fixture.
    pub(crate) fn tiny_solver(nt_obs: usize) -> WaveSolver {
        tiny_solver_with(
            nt_obs,
            &[(800.0, 700.0), (2200.0, 1300.0)],
            &[(1500.0, 1000.0)],
        )
    }

    /// The [`tiny_solver`] mesh with `n` sensors and `n` QoI points spread
    /// over the domain — for panel tests that need a given row count.
    fn tiny_solver_rows(nt_obs: usize, n: usize) -> WaveSolver {
        let at = |i: usize, salt: usize| {
            let fx = (i as f64 + 0.5) / n as f64;
            let fy = (((i * salt) % n) as f64 + 0.5) / n as f64;
            (200.0 + 2600.0 * fx, 200.0 + 1600.0 * fy)
        };
        let sensors: Vec<(f64, f64)> = (0..n).map(|i| at(i, 3)).collect();
        let qoi: Vec<(f64, f64)> = (0..n).map(|i| at(i, 5)).collect();
        tiny_solver_with(nt_obs, &sensors, &qoi)
    }

    fn tiny_solver_with(nt_obs: usize, sensors: &[(f64, f64)], qoi: &[(f64, f64)]) -> WaveSolver {
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
        let sensors = SensorArray::on_seafloor(&op, sensors, 0.05);
        let qoi = QoiArray::on_surface(&op, qoi);
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

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Scenario and row counts around the panel width: one lane, a ragged
    /// panel, a full panel, a full panel plus one, and several panels.
    const COUNTS: [usize; 5] = [1, LANES - 1, LANES, LANES + 1, 2 * LANES + 3];

    #[test]
    fn forward_batch_matches_one_lane_solves_bitwise() {
        let solver = tiny_solver(3);
        for n in COUNTS {
            let ms: Vec<Vec<f64>> = (0..n)
                .map(|s| pseudo(solver.n_params(), 100 + s as u64))
                .collect();
            let batch = solver.forward_batch(&ms);
            assert_eq!(batch.len(), n);
            for (s, (m, (d, q))) in ms.iter().zip(&batch).enumerate() {
                let (d1, q1) = solver.forward(m);
                assert_eq!(bits(d), bits(&d1), "scenario {s} of {n}: d");
                assert_eq!(bits(q), bits(&q1), "scenario {s} of {n}: q");
            }
        }
    }

    #[test]
    fn adjoint_panels_match_one_lane_solves_bitwise() {
        // Every column of the panel-built p2o and p2q maps must equal the
        // one-lane adjoint solve of its row.
        for n in COUNTS {
            let solver = tiny_solver_rows(2, n);
            let (nt, nm) = (solver.grid.nt_obs, solver.n_m());
            let f = crate::build_p2o(&solver);
            let fq = crate::build_p2q(&solver);
            let f1 = BlockToeplitz::from_adjoint(nt, n, nm, 1, |ws| {
                ws.iter().map(|w| solver.adjoint_data(w)).collect()
            });
            let fq1 = BlockToeplitz::from_adjoint(nt, n, nm, 1, |ws| {
                ws.iter().map(|w| solver.adjoint_qoi(w)).collect()
            });
            for k in 0..nt {
                assert_eq!(
                    bits(f.blocks[k].as_slice()),
                    bits(f1.blocks[k].as_slice()),
                    "F_{k}, {n} rows"
                );
                assert_eq!(
                    bits(fq.blocks[k].as_slice()),
                    bits(fq1.blocks[k].as_slice()),
                    "Fq_{k}, {n} rows"
                );
            }
        }
    }

    #[test]
    fn panel_lanes_are_isolated() {
        // A NaN in lane 0's forcing must leave every other lane
        // bit-identical to its one-lane solve.
        let solver = tiny_solver(3);
        let mut ms: Vec<Vec<f64>> = (0..LANES)
            .map(|s| pseudo(solver.n_params(), 200 + s as u64))
            .collect();
        ms[0][5] = f64::NAN;
        let lanes: Vec<&[f64]> = ms.iter().map(Vec::as_slice).collect();
        let out = solver.forward_panel(&lanes);
        assert!(
            out[0].0.iter().any(|v| v.is_nan()),
            "lane 0 should be poisoned"
        );
        for (s, (m, (d, q))) in ms.iter().zip(&out).enumerate().skip(1) {
            let (d1, q1) = solver.forward(m);
            assert_eq!(bits(d), bits(&d1), "lane {s}: d");
            assert_eq!(bits(q), bits(&q1), "lane {s}: q");
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
