//! Observation operators: seafloor pressure sensors, distributed acoustic
//! sensing (DAS) fiber channels, and sea-surface wave-height (QoI) probes.
//!
//! Every observable is a fixed linear functional of the pressure field, so
//! an array is a list of *channels*, each a weighted sum of point
//! evaluations. Point sensors are one-tap channels; DAS channels difference
//! two taps along the fiber. Because the whole inversion machinery only
//! sees `observe`/`scatter`, swapping point sensors for a fiber changes
//! nothing downstream — the p2o map is still built from one adjoint solve
//! per channel (§VIII: "emerging technologies such as distributed acoustic
//! sensing will improve observational coverage").

use crate::operator::WaveOperator;
use tsunami_fem::PointEvaluator;

/// One weighted tap of an observation channel.
type Tap = (PointEvaluator, f64);

/// An array of seafloor observation channels reading the pressure field.
pub struct SensorArray {
    /// Channels; each is a weighted sum of point evaluations.
    pub channels: Vec<Vec<Tap>>,
}

impl SensorArray {
    /// Point pressure sensors at the given `(x, y)` positions, each
    /// sitting just above the seafloor (fractional height `lift` of the
    /// local depth, e.g. 0.02). Panics if a sensor falls outside the mesh.
    pub fn on_seafloor(op: &WaveOperator, positions: &[(f64, f64)], lift: f64) -> Self {
        let mesh = &op.ctx.mesh;
        let h1 = &op.ctx.h1;
        let channels = positions
            .iter()
            .map(|&(x, y)| {
                let z = seafloor_z(mesh, x, y) * (1.0 - lift);
                let ev = PointEvaluator::new(mesh, h1, x, y, z)
                    .unwrap_or_else(|| panic!("sensor at ({x},{y}) outside mesh"));
                vec![(ev, 1.0)]
            })
            .collect();
        SensorArray { channels }
    }

    /// A distributed acoustic sensing fiber laid along the seafloor
    /// through the waypoints `path`. Each of the `path.len() − 1` channels
    /// reads the along-fiber pressure *difference quotient*
    /// `(p(x_{k+1}) − p(x_k)) / L_k` — the acoustic analogue of the strain
    /// sensitivity of DAS gauges (`L_k` is the horizontal gauge length).
    ///
    /// Panics if the path has fewer than two waypoints, repeats a
    /// waypoint, or leaves the mesh.
    pub fn das_fiber(op: &WaveOperator, path: &[(f64, f64)], lift: f64) -> Self {
        assert!(path.len() >= 2, "a fiber needs at least two waypoints");
        let mesh = &op.ctx.mesh;
        let h1 = &op.ctx.h1;
        let taps: Vec<(PointEvaluator, f64, f64)> = path
            .iter()
            .map(|&(x, y)| {
                let z = seafloor_z(mesh, x, y) * (1.0 - lift);
                let ev = PointEvaluator::new(mesh, h1, x, y, z)
                    .unwrap_or_else(|| panic!("fiber waypoint ({x},{y}) outside mesh"));
                (ev, x, y)
            })
            .collect();
        let channels = taps
            .windows(2)
            .map(|w| {
                let (ref e0, x0, y0) = w[0];
                let (ref e1, x1, y1) = w[1];
                let gauge = ((x1 - x0).powi(2) + (y1 - y0).powi(2)).sqrt();
                assert!(gauge > 0.0, "degenerate fiber segment at ({x0},{y0})");
                vec![(e1.clone(), 1.0 / gauge), (e0.clone(), -1.0 / gauge)]
            })
            .collect();
        SensorArray { channels }
    }

    /// Number of channels `Nd`.
    pub fn len(&self) -> usize {
        self.channels.len()
    }

    /// True if no channels.
    pub fn is_empty(&self) -> bool {
        self.channels.is_empty()
    }

    /// Read all channels from a state vector.
    pub fn observe(&self, op: &WaveOperator, x: &[f64], out: &mut [f64]) {
        self.observe_lane(op, x, 1, 0, out);
    }

    /// [`Self::observe`] on lane `lane` of a lane-minor panel of `lanes`
    /// states.
    pub fn observe_lane(
        &self,
        op: &WaveOperator,
        x: &[f64],
        lanes: usize,
        lane: usize,
        out: &mut [f64],
    ) {
        let p = &x[op.n_u() * lanes..];
        for (o, ch) in out.iter_mut().zip(&self.channels) {
            *o = ch
                .iter()
                .map(|(ev, w)| w * ev.eval_lane(p, lanes, lane))
                .sum();
        }
    }

    /// Adjoint: scatter data-space weights into the pressure block of `λ`.
    pub fn scatter(&self, op: &WaveOperator, w: &[f64], lambda: &mut [f64]) {
        self.scatter_lane(op, w, lambda, 1, 0);
    }

    /// [`Self::scatter`] into lane `lane` of a lane-minor panel of `lanes`
    /// adjoint states.
    pub fn scatter_lane(
        &self,
        op: &WaveOperator,
        w: &[f64],
        lambda: &mut [f64],
        lanes: usize,
        lane: usize,
    ) {
        let lp = &mut lambda[op.n_u() * lanes..];
        for (ch, &wv) in self.channels.iter().zip(w) {
            for (ev, tap_w) in ch {
                ev.scatter_lane(tap_w * wv, lp, lanes, lane);
            }
        }
    }

    /// Rescale each channel by a factor — the whitening transform for
    /// heteroscedastic arrays. With per-channel noise `σ_c`, scaling
    /// channel `c` by `σ̄/σ_c` makes the scaled data homoscedastic with
    /// common level `σ̄`, so the isotropic-noise inversion machinery
    /// applies without change. Essential when mixing observation
    /// modalities of very different magnitudes (e.g. pressure gauges and
    /// DAS difference quotients in one array).
    pub fn rescale_channels(&mut self, factors: &[f64]) {
        assert_eq!(factors.len(), self.channels.len(), "one factor per channel");
        for (ch, &f) in self.channels.iter_mut().zip(factors) {
            assert!(
                f.is_finite() && f != 0.0,
                "channel scale must be finite and nonzero"
            );
            for tap in ch.iter_mut() {
                tap.1 *= f;
            }
        }
    }
}

/// Wave-height probes at the sea surface: `q_j = η(x_j) = p(x_j, z=0)/(ρg)`.
pub struct QoiArray {
    /// One evaluator per forecast location (at the surface).
    pub evals: Vec<PointEvaluator>,
}

impl QoiArray {
    /// Place probes at `(x, y)` on the sea surface.
    pub fn on_surface(op: &WaveOperator, positions: &[(f64, f64)]) -> Self {
        let mesh = &op.ctx.mesh;
        let h1 = &op.ctx.h1;
        let evals = positions
            .iter()
            .map(|&(x, y)| {
                PointEvaluator::new(mesh, h1, x, y, 0.0)
                    .unwrap_or_else(|| panic!("QoI probe at ({x},{y}) outside mesh"))
            })
            .collect();
        QoiArray { evals }
    }

    /// Number of forecast locations `Nq`.
    pub fn len(&self) -> usize {
        self.evals.len()
    }

    /// True if no probes.
    pub fn is_empty(&self) -> bool {
        self.evals.is_empty()
    }

    /// Read all wave heights `η = p/(ρg)`.
    pub fn observe(&self, op: &WaveOperator, x: &[f64], out: &mut [f64]) {
        self.observe_lane(op, x, 1, 0, out);
    }

    /// [`Self::observe`] on lane `lane` of a lane-minor panel of `lanes`
    /// states.
    pub fn observe_lane(
        &self,
        op: &WaveOperator,
        x: &[f64],
        lanes: usize,
        lane: usize,
        out: &mut [f64],
    ) {
        let p = &x[op.n_u() * lanes..];
        let rg_inv = 1.0 / (op.params.rho * op.params.gravity);
        for (o, ev) in out.iter_mut().zip(&self.evals) {
            *o = rg_inv * ev.eval_lane(p, lanes, lane);
        }
    }

    /// Adjoint scatter (includes the `1/(ρg)` factor).
    pub fn scatter(&self, op: &WaveOperator, w: &[f64], lambda: &mut [f64]) {
        self.scatter_lane(op, w, lambda, 1, 0);
    }

    /// [`Self::scatter`] into lane `lane` of a lane-minor panel of `lanes`
    /// adjoint states.
    pub fn scatter_lane(
        &self,
        op: &WaveOperator,
        w: &[f64],
        lambda: &mut [f64],
        lanes: usize,
        lane: usize,
    ) {
        let lp = &mut lambda[op.n_u() * lanes..];
        let rg_inv = 1.0 / (op.params.rho * op.params.gravity);
        for (ev, &wv) in self.evals.iter().zip(w) {
            ev.scatter_lane(rg_inv * wv, lp, lanes, lane);
        }
    }
}

/// Seafloor elevation under `(x, y)`: the `z` of the bottom face of the
/// lowest element in that column.
pub fn seafloor_z(mesh: &tsunami_mesh::HexMesh, x: f64, y: f64) -> f64 {
    let hx = mesh.lx / mesh.nx as f64;
    let hy = mesh.ly / mesh.ny as f64;
    let i = ((x / hx).floor() as isize).clamp(0, mesh.nx as isize - 1) as usize;
    let j = ((y / hy).floor() as isize).clamp(0, mesh.ny as isize - 1) as usize;
    let xi = 2.0 * (x / hx - i as f64) - 1.0;
    let eta = 2.0 * (y / hy - j as f64) - 1.0;
    let e = mesh.elem_id(i, j, 0);
    mesh.map_point(e, xi, eta, -1.0)[2]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::PhysicalParams;
    use std::sync::Arc;
    use tsunami_fem::kernels::{KernelContext, KernelVariant};
    use tsunami_mesh::{FlatBathymetry, HexMesh};

    fn op() -> WaveOperator {
        let mesh = Arc::new(HexMesh::terrain_following(
            3,
            3,
            2,
            3000.0,
            3000.0,
            &FlatBathymetry { depth: 400.0 },
        ));
        let ctx = Arc::new(KernelContext::new(mesh, 3));
        WaveOperator::new(ctx, KernelVariant::FusedPa, PhysicalParams::seawater())
    }

    #[test]
    fn sensors_read_pressure() {
        let op = op();
        let sensors = SensorArray::on_seafloor(&op, &[(700.0, 900.0), (2100.0, 1800.0)], 0.02);
        assert_eq!(sensors.len(), 2);
        // Constant pressure field reads that constant.
        let mut x = vec![0.0; op.n_state()];
        let n_u = op.n_u();
        for v in x[n_u..].iter_mut() {
            *v = 42.0;
        }
        let mut d = vec![0.0; 2];
        sensors.observe(&op, &x, &mut d);
        for v in d {
            assert!((v - 42.0).abs() < 1e-9);
        }
    }

    #[test]
    fn qoi_reads_eta() {
        let op = op();
        let qoi = QoiArray::on_surface(&op, &[(1500.0, 1500.0)]);
        let mut x = vec![0.0; op.n_state()];
        let n_u = op.n_u();
        let rg = op.params.rho * op.params.gravity;
        for v in x[n_u..].iter_mut() {
            *v = 2.0 * rg; // η = 2 m everywhere
        }
        let mut q = vec![0.0; 1];
        qoi.observe(&op, &x, &mut q);
        assert!((q[0] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn observe_scatter_adjoint() {
        let op = op();
        let sensors = SensorArray::on_seafloor(&op, &[(700.0, 900.0), (2500.0, 500.0)], 0.02);
        let x: Vec<f64> = (0..op.n_state()).map(|i| (i as f64 * 0.01).sin()).collect();
        let w = [1.3, -0.7];
        let mut d = vec![0.0; 2];
        sensors.observe(&op, &x, &mut d);
        let lhs: f64 = d.iter().zip(&w).map(|(a, b)| a * b).sum();
        let mut lambda = vec![0.0; op.n_state()];
        sensors.scatter(&op, &w, &mut lambda);
        let rhs: f64 = lambda.iter().zip(&x).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-12 * lhs.abs().max(1.0));
    }

    #[test]
    fn seafloor_z_matches_flat_depth() {
        let op = op();
        let z = seafloor_z(&op.ctx.mesh, 1234.0, 567.0);
        assert!((z + 400.0).abs() < 1e-9);
    }

    #[test]
    fn das_fiber_has_one_channel_per_segment() {
        let op = op();
        let fiber = SensorArray::das_fiber(
            &op,
            &[
                (500.0, 500.0),
                (1200.0, 800.0),
                (2000.0, 1500.0),
                (2600.0, 2400.0),
            ],
            0.02,
        );
        assert_eq!(fiber.len(), 3);
        for ch in &fiber.channels {
            assert_eq!(ch.len(), 2, "DAS channels are two-tap differences");
            // Weights must be ±1/gauge and sum to zero.
            assert!((ch[0].1 + ch[1].1).abs() < 1e-15);
        }
    }

    #[test]
    fn das_reads_zero_on_constant_pressure() {
        // DAS measures differences: a spatially constant field is invisible,
        // the defining contrast with point pressure sensors.
        let op = op();
        let fiber = SensorArray::das_fiber(
            &op,
            &[(500.0, 500.0), (1500.0, 500.0), (2500.0, 500.0)],
            0.02,
        );
        let mut x = vec![0.0; op.n_state()];
        let n_u = op.n_u();
        for v in x[n_u..].iter_mut() {
            *v = 17.0;
        }
        let mut d = vec![0.0; fiber.len()];
        fiber.observe(&op, &x, &mut d);
        for v in d {
            assert!(v.abs() < 1e-9, "constant field must read ~0, got {v}");
        }
    }

    #[test]
    fn das_reads_gradient_of_linear_field() {
        // For p = a·x the channel must read exactly `a` times the x-extent
        // over gauge... i.e. the difference quotient recovers the slope
        // when the fiber runs along x at constant depth.
        let op = op();
        let fiber = SensorArray::das_fiber(
            &op,
            &[(600.0, 1500.0), (1400.0, 1500.0), (2400.0, 1500.0)],
            0.02,
        );
        // Build p = 3·x/1000 by evaluating the H1 nodal coordinates.
        let n_u = op.n_u();
        let mut x = vec![0.0; op.n_state()];
        let coords = op.ctx.h1.node_coords(&op.ctx.mesh, &op.ctx.gll_nodes);
        for (k, c) in coords.iter().enumerate() {
            x[n_u + k] = 3.0e-3 * c[0];
        }
        let mut d = vec![0.0; fiber.len()];
        fiber.observe(&op, &x, &mut d);
        for v in d {
            assert!(
                (v - 3.0e-3).abs() < 1e-9,
                "difference quotient of linear field must be its slope: {v}"
            );
        }
    }

    #[test]
    fn das_scatter_adjoint() {
        let op = op();
        let fiber = SensorArray::das_fiber(
            &op,
            &[(500.0, 600.0), (1300.0, 900.0), (2100.0, 1800.0)],
            0.02,
        );
        let x: Vec<f64> = (0..op.n_state())
            .map(|i| (i as f64 * 0.013).cos())
            .collect();
        let w = [0.8, -1.1];
        let mut d = vec![0.0; fiber.len()];
        fiber.observe(&op, &x, &mut d);
        let lhs: f64 = d.iter().zip(&w).map(|(a, b)| a * b).sum();
        let mut lambda = vec![0.0; op.n_state()];
        fiber.scatter(&op, &w, &mut lambda);
        let rhs: f64 = lambda.iter().zip(&x).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-12 * lhs.abs().max(1.0));
    }

    #[test]
    fn rescaled_channels_scale_observations_and_adjoint() {
        let op = op();
        let mut arr = SensorArray::on_seafloor(&op, &[(700.0, 900.0), (2500.0, 500.0)], 0.02);
        let x: Vec<f64> = (0..op.n_state())
            .map(|i| (i as f64 * 0.017).sin())
            .collect();
        let mut d0 = vec![0.0; 2];
        arr.observe(&op, &x, &mut d0);
        arr.rescale_channels(&[2.0, -0.5]);
        let mut d1 = vec![0.0; 2];
        arr.observe(&op, &x, &mut d1);
        assert!((d1[0] - 2.0 * d0[0]).abs() < 1e-12 * d0[0].abs().max(1e-12));
        assert!((d1[1] + 0.5 * d0[1]).abs() < 1e-12 * d0[1].abs().max(1e-12));
        // The adjoint stays consistent after rescaling.
        let w = [0.4, 1.7];
        let lhs: f64 = d1.iter().zip(&w).map(|(a, b)| a * b).sum();
        let mut lambda = vec![0.0; op.n_state()];
        arr.scatter(&op, &w, &mut lambda);
        let rhs: f64 = lambda.iter().zip(&x).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-12 * lhs.abs().max(1.0));
    }

    #[test]
    #[should_panic(expected = "one factor per channel")]
    fn rescale_dimension_checked() {
        let op = op();
        let mut arr = SensorArray::on_seafloor(&op, &[(700.0, 900.0)], 0.02);
        arr.rescale_channels(&[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "at least two waypoints")]
    fn short_fiber_rejected() {
        let op = op();
        let _ = SensorArray::das_fiber(&op, &[(500.0, 500.0)], 0.02);
    }
}
