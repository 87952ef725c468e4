//! Twin configuration: one struct describing the whole scenario.

use std::sync::Arc;
use tsunami_fem::kernels::KernelContext;
use tsunami_mesh::{Bathymetry, CascadiaBathymetry, FlatBathymetry, HexMesh};
use tsunami_solver::{
    BilinearParamMap, PhysicalParams, QoiArray, SensorArray, TimeGrid, WaveOperator, WaveSolver,
};

/// Which analytic bathymetry to mesh.
#[derive(Clone, Copy, Debug)]
pub enum BathymetryKind {
    /// Constant depth (m) — analytic test cases.
    Flat(f64),
    /// Shelf–slope–trench Cascadia-like margin with the given abyssal and
    /// shelf depths (m). Scaled-down demos use a deeper shelf than the real
    /// 150 m one so the vertical CFL constraint stays tractable.
    Cascadia {
        /// Abyssal-plain depth (m).
        deep: f64,
        /// Shelf depth (m).
        shallow: f64,
    },
}

/// Full description of a digital-twin scenario.
#[derive(Clone, Debug)]
pub struct TwinConfig {
    /// Elements across the margin.
    pub nx: usize,
    /// Elements along strike.
    pub ny: usize,
    /// Elements through the water column.
    pub nz: usize,
    /// Pressure polynomial order (velocity is `order − 1`).
    pub order: usize,
    /// Cross-margin extent (m).
    pub lx: f64,
    /// Along-strike extent (m).
    pub ly: f64,
    /// Bathymetry model.
    pub bathymetry: BathymetryKind,
    /// Sound speed override (m/s); `None` = real seawater (1500 m/s).
    /// Scaled-down demos reduce it to relax the acoustic CFL while keeping
    /// the acoustic–gravity structure.
    pub sound_speed: Option<f64>,
    /// Sensor array layout: `sx × sy` grid over the offshore band
    /// `x ∈ [0.1, 0.55]·lx` (the paper's 600 hypothesized OBP sensors).
    pub sensor_grid: (usize, usize),
    /// Number of QoI forecast points, placed along the line
    /// `x = qoi_x_frac·lx` (the paper's 21 coastal forecast locations).
    pub n_qoi: usize,
    /// Cross-margin fraction of the QoI line (0.85 ≈ nearshore). Small
    /// test domains place it closer so gravity waves reach it within the
    /// observation window.
    pub qoi_x_frac: f64,
    /// Inversion parameter grid (cells in x, y) covering the footprint.
    pub inv_grid: (usize, usize),
    /// Observation steps `Nt`.
    pub nt_obs: usize,
    /// Observation cadence (s) — the paper observes at 1 Hz.
    pub dt_obs: f64,
    /// CFL safety factor for the PDE step.
    pub cfl_safety: f64,
    /// Prior correlation length (m).
    pub prior_ell: f64,
    /// Prior pointwise standard deviation (m/s of seafloor velocity).
    pub prior_sigma: f64,
    /// Noise level as a fraction of the RMS clean datum
    /// (paper: 1% relative noise).
    pub noise_frac: f64,
}

impl TwinConfig {
    /// Minimal configuration for unit/integration tests: runs the entire
    /// offline+online pipeline in a few seconds.
    pub fn tiny() -> Self {
        TwinConfig {
            nx: 6,
            ny: 4,
            nz: 1,
            order: 3,
            lx: 6000.0,
            ly: 4000.0,
            bathymetry: BathymetryKind::Flat(500.0),
            sound_speed: Some(100.0),
            sensor_grid: (2, 2),
            n_qoi: 2,
            qoi_x_frac: 0.45,
            inv_grid: (6, 4),
            nt_obs: 12,
            dt_obs: 2.5,
            cfl_safety: 0.4,
            prior_ell: 1500.0,
            prior_sigma: 1.0,
            noise_frac: 0.01,
        }
    }

    /// Mid-size demo used by the examples: a scaled Cascadia-like margin
    /// sized so the whole offline pipeline runs in a couple of minutes on a
    /// single CPU core.
    pub fn demo() -> Self {
        TwinConfig {
            nx: 12,
            ny: 18,
            nz: 2,
            order: 2,
            lx: 60e3,
            ly: 90e3,
            bathymetry: BathymetryKind::Cascadia {
                deep: 2500.0,
                shallow: 800.0,
            },
            sound_speed: Some(300.0),
            sensor_grid: (4, 4),
            n_qoi: 5,
            qoi_x_frac: 0.7,
            inv_grid: (10, 15),
            nt_obs: 18,
            dt_obs: 10.0,
            cfl_safety: 0.4,
            prior_ell: 15e3,
            prior_sigma: 0.5,
            noise_frac: 0.01,
        }
    }

    /// The scaled margin-wide Cascadia scenario used by the experiment
    /// harness (Fig 3/4/Table III analogue). Heavier than [`Self::demo`].
    pub fn cascadia_scaled() -> Self {
        TwinConfig {
            nx: 16,
            ny: 24,
            nz: 2,
            order: 3,
            lx: 80e3,
            ly: 160e3,
            bathymetry: BathymetryKind::Cascadia {
                deep: 2600.0,
                shallow: 800.0,
            },
            sound_speed: Some(400.0),
            sensor_grid: (5, 6),
            n_qoi: 9,
            qoi_x_frac: 0.75,
            inv_grid: (12, 20),
            nt_obs: 24,
            dt_obs: 10.0,
            cfl_safety: 0.4,
            prior_ell: 20e3,
            prior_sigma: 0.5,
            noise_frac: 0.01,
        }
    }

    /// Physics constants implied by the config.
    pub fn physics(&self) -> PhysicalParams {
        match self.sound_speed {
            Some(c) => PhysicalParams::slow_ocean(c),
            None => PhysicalParams::seawater(),
        }
    }

    /// Number of sensors `Nd`.
    pub fn n_sensors(&self) -> usize {
        self.sensor_grid.0 * self.sensor_grid.1
    }

    /// Spatial inversion parameters `Nm`.
    pub fn n_m(&self) -> usize {
        self.inv_grid.0 * self.inv_grid.1
    }

    /// Build the bathymetry object.
    pub fn bathymetry_model(&self) -> Box<dyn Bathymetry> {
        match self.bathymetry {
            BathymetryKind::Flat(d) => Box::new(FlatBathymetry { depth: d }),
            BathymetryKind::Cascadia { deep, shallow } => {
                let mut b = CascadiaBathymetry::standard(self.lx, self.ly);
                b.deep = deep;
                b.shallow = shallow;
                Box::new(b)
            }
        }
    }

    /// Sensor `(x, y)` positions: a grid over the offshore band.
    pub fn sensor_positions(&self) -> Vec<(f64, f64)> {
        let (sx, sy) = self.sensor_grid;
        let mut out = Vec::with_capacity(sx * sy);
        for j in 0..sy {
            for i in 0..sx {
                let fx = 0.10 + 0.45 * (i as f64 + 0.5) / sx as f64;
                let fy = 0.05 + 0.90 * (j as f64 + 0.5) / sy as f64;
                out.push((fx * self.lx, fy * self.ly));
            }
        }
        out
    }

    /// QoI forecast positions: spread along the nearshore line.
    pub fn qoi_positions(&self) -> Vec<(f64, f64)> {
        (0..self.n_qoi)
            .map(|i| {
                let fy = (i as f64 + 0.5) / self.n_qoi as f64;
                (self.qoi_x_frac * self.lx, fy * self.ly)
            })
            .collect()
    }

    /// Build the wave solver described by this configuration.
    pub fn build_solver(&self) -> WaveSolver {
        let bath = self.bathymetry_model();
        let mesh = Arc::new(HexMesh::terrain_following(
            self.nx,
            self.ny,
            self.nz,
            self.lx,
            self.ly,
            bath.as_ref(),
        ));
        let min_edge = mesh.min_edge_length();
        let ctx = Arc::new(KernelContext::new(mesh, self.order));
        let params = self.physics();
        let op = WaveOperator::new(ctx, params);
        let sensors = SensorArray::on_seafloor(&op, &self.sensor_positions(), 0.03);
        let qoi = QoiArray::on_surface(&op, &self.qoi_positions());
        let pmap = BilinearParamMap::new(
            self.inv_grid.0,
            self.inv_grid.1,
            self.lx,
            self.ly,
            &op.bottom.coords,
        );
        let dt_stable = params.cfl_dt(min_edge, self.order, self.cfl_safety);
        let grid = TimeGrid::from_cadence(dt_stable, self.dt_obs, self.nt_obs);
        WaveSolver {
            op,
            grid,
            sensors,
            qoi,
            pmap: Box::new(pmap),
        }
    }

    /// Build the Matérn prior on the inversion grid.
    pub fn build_prior(&self) -> tsunami_prior::MaternPrior {
        tsunami_prior::MaternPrior::with_hyperparameters(
            self.inv_grid.0,
            self.inv_grid.1,
            self.lx,
            self.ly,
            self.prior_ell,
            self.prior_sigma,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_config_builds() {
        let cfg = TwinConfig::tiny();
        let solver = cfg.build_solver();
        assert_eq!(solver.sensors.len(), 4);
        assert_eq!(solver.qoi.len(), 2);
        assert_eq!(solver.n_m(), 24);
        assert_eq!(solver.grid.nt_obs, 12);
    }

    #[test]
    fn sensor_positions_inside_domain() {
        let cfg = TwinConfig::demo();
        for (x, y) in cfg.sensor_positions() {
            assert!(x > 0.0 && x < cfg.lx);
            assert!(y > 0.0 && y < cfg.ly);
        }
    }

    #[test]
    fn prior_has_requested_std() {
        let cfg = TwinConfig::tiny();
        let prior = cfg.build_prior();
        let var = prior.marginal_variance();
        let center = (cfg.inv_grid.1 / 2) * cfg.inv_grid.0 + cfg.inv_grid.0 / 2;
        assert!((var[center].sqrt() - cfg.prior_sigma).abs() < 1e-9);
    }
}
