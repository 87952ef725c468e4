//! One-way acoustic–elastic coupling: from fault slip to tsunami source.
//!
//! §VIII's full vision runs the chain *fault slip → seismic wavefield →
//! seafloor motion → ocean acoustics → tsunami forecast*. This module
//! implements the one-way (solid → ocean) coupling used by state-of-the-art
//! coupled codes when feedback from the water column onto the rupture is
//! negligible (the ocean is ~10⁻³ of the rock impedance): the elastic
//! solver's free-surface vertical velocity *is* the seafloor normal
//! velocity that sources the acoustic–gravity model.
//!
//! The elastic model here is a 2D (x–z) margin cross-section while the
//! acoustic twin's source field lives on an (x, y) seafloor grid, so the
//! section is extruded along strike in the standard 2.5D fashion: the
//! cross-section response is delayed by the along-strike rupture-front
//! propagation and tapered at the rupture ends (the paper uses full-3D
//! SeisSol output for the same role).

use crate::solver::ElasticSolver;

/// One-way coupling of an elastic margin section to a seafloor-velocity
/// source field on the acoustic twin's `(gx × gy, nt)` inversion grid.
pub struct SeafloorCoupling {
    /// Along-dip (cross-margin) surface sampling: one column per acoustic
    /// `x` cell, holding the elastic surface cell index.
    pub surface_cells: Vec<usize>,
    /// Along-strike rupture speed used for the 2.5D extrusion (m/s).
    pub strike_speed: f64,
    /// Along-strike hypocenter position as a fraction of `ly`.
    pub hypo_frac: f64,
    /// Along-strike taper width as a fraction of `ly`.
    pub taper_frac: f64,
}

impl SeafloorCoupling {
    /// Map the acoustic x-grid (cell centers of `gx` cells over `lx`)
    /// onto the elastic section's surface cells.
    pub fn new(
        solver: &ElasticSolver,
        gx: usize,
        lx: f64,
        strike_speed: f64,
        hypo_frac: f64,
        taper_frac: f64,
    ) -> Self {
        assert!(gx > 0 && lx > 0.0);
        assert!(strike_speed > 0.0, "rupture must propagate along strike");
        assert!(
            (0.0..=1.0).contains(&hypo_frac),
            "hypocenter fraction in [0,1]"
        );
        let surface_cells = (0..gx)
            .map(|i| {
                let x = (i as f64 + 0.5) * lx / gx as f64;
                solver.grid.surface_cell(x)
            })
            .collect();
        SeafloorCoupling {
            surface_cells,
            strike_speed,
            hypo_frac,
            taper_frac: taper_frac.max(1e-3),
        }
    }

    /// Run the elastic forward model on a slip-rate history and extrude
    /// the resulting surface velocity into the acoustic twin's
    /// seafloor-velocity parameter vector (time-major, `gx·gy` per bin).
    ///
    /// The acoustic cadence must equal the elastic bin cadence; along
    /// strike, cell `j` sees the section response delayed by
    /// `|y_j − y_hypo| / strike_speed` (rounded to whole bins) and tapered
    /// by a cosine roll-off at the rupture ends.
    #[allow(clippy::too_many_arguments)]
    pub fn seafloor_velocity(
        &self,
        solver: &ElasticSolver,
        m_slip: &[f64],
        gx: usize,
        gy: usize,
        ly: f64,
        nt: usize,
        cadence: f64,
    ) -> Vec<f64> {
        assert_eq!(
            self.surface_cells.len(),
            gx,
            "coupling built for a different gx"
        );
        assert!(
            (solver.dt * solver.steps_per_bin as f64 - cadence).abs() < 1e-9 * cadence,
            "acoustic cadence must match the elastic bin cadence"
        );
        assert!(
            nt <= solver.nt_obs,
            "elastic horizon too short for {nt} bins"
        );

        // Surface vertical velocity of the section at every bin: run the
        // forward model once with the surface cells as QoI sites.
        let mut section = ElasticSolver {
            grid: solver.grid.clone(),
            fields: solver.medium_fields_clone(),
            fault: solver.fault.clone(),
            stencils: solver.stencils.clone(),
            stations: solver.stations.clone(),
            qoi_sites: self.surface_cells.clone(),
            dt: solver.dt,
            steps_per_bin: solver.steps_per_bin,
            nt_obs: solver.nt_obs,
        };
        // Dedup is unnecessary; qoi_sites may repeat cells harmlessly.
        let (_, vz) = section.forward(m_slip);
        section.qoi_sites.clear();

        // Extrude along strike with per-cell delay and taper.
        let y_hypo = self.hypo_frac * ly;
        let mut m = vec![0.0; gx * gy * nt];
        for jy in 0..gy {
            let y = (jy as f64 + 0.5) * ly / gy as f64;
            let delay_bins = ((y - y_hypo).abs() / self.strike_speed / cadence).round() as usize;
            // Cosine roll-on from the rupture ends: 0 at the edges,
            // 1 once a full taper width inside.
            let t_edge = (y.min(ly - y)) / (self.taper_frac * ly);
            let taper = 0.5 * (1.0 - (std::f64::consts::PI * t_edge.min(1.0)).cos());
            for i in 0..nt {
                if i < delay_bins {
                    continue;
                }
                let src_bin = i - delay_bins;
                for ix in 0..gx {
                    m[i * gx * gy + jy * gx + ix] = taper * vz[src_bin * gx + ix];
                }
            }
        }
        m
    }
}

impl ElasticSolver {
    /// Clone of the material fields (used by the coupling's QoI re-wiring).
    pub fn medium_fields_clone(&self) -> crate::medium::MaterialFields {
        crate::medium::MaterialFields {
            rho: self.fields.rho.clone(),
            lam: self.fields.lam.clone(),
            mu: self.fields.mu.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::DippingFault;
    use crate::grid::ElasticGrid;
    use crate::medium::LayeredMedium;
    use crate::scenario::SlipScenario;

    fn section(nt: usize) -> ElasticSolver {
        let grid = ElasticGrid::new(36, 18, 1000.0, 1000.0, 5, 0.94);
        let medium = LayeredMedium::cascadia_margin(18_000.0);
        let fault = DippingFault::megathrust(36_000.0, 18_000.0, 5);
        ElasticSolver::new(grid, &medium, fault, &[12_000.0], &[20_000.0], 0.5, nt, 0.5)
    }

    #[test]
    fn coupling_produces_causal_delayed_strike_response() {
        let sol = section(16);
        let cadence = sol.dt * sol.steps_per_bin as f64;
        let (gx, gy, ly) = (12usize, 8usize, 40_000.0);
        let coupling = SeafloorCoupling::new(&sol, gx, 36_000.0, 2_500.0, 0.5, 0.2);
        let scenario = SlipScenario::partial_rupture(sol.n_m());
        let m_slip = scenario.slip_rates(sol.n_m(), sol.fault.patch_length(), cadence, sol.nt_obs);
        let m = coupling.seafloor_velocity(&sol, &m_slip, gx, gy, ly, 12, cadence);
        assert_eq!(m.len(), gx * gy * 12);
        let energy: f64 = m.iter().map(|v| v * v).sum();
        assert!(energy > 0.0, "coupling produced a silent seafloor");

        // Strike cells farther from the hypocenter light up later: the
        // first nonzero bin is non-decreasing in |y − y_hypo|.
        let first_active = |jy: usize| -> usize {
            for i in 0..12 {
                for ix in 0..gx {
                    if m[i * gx * gy + jy * gx + ix] != 0.0 {
                        return i;
                    }
                }
            }
            usize::MAX
        };
        let center = gy / 2;
        let t_center = first_active(center);
        let t_edge = first_active(gy - 1);
        assert!(
            t_center <= t_edge,
            "strike propagation not causal: {t_center} vs {t_edge}"
        );
    }

    #[test]
    fn taper_suppresses_rupture_ends() {
        let sol = section(12);
        let cadence = sol.dt * sol.steps_per_bin as f64;
        let (gx, gy, ly) = (10usize, 9usize, 45_000.0);
        let coupling = SeafloorCoupling::new(&sol, gx, 36_000.0, 3_000.0, 0.5, 0.25);
        let scenario = SlipScenario::partial_rupture(sol.n_m());
        let m_slip = scenario.slip_rates(sol.n_m(), sol.fault.patch_length(), cadence, sol.nt_obs);
        let m = coupling.seafloor_velocity(&sol, &m_slip, gx, gy, ly, 12, cadence);
        let row_energy = |jy: usize| -> f64 {
            (0..12)
                .flat_map(|i| (0..gx).map(move |ix| (i, ix)))
                .map(|(i, ix)| m[i * gx * gy + jy * gx + ix].powi(2))
                .sum()
        };
        let center = row_energy(gy / 2);
        let edge = row_energy(0);
        assert!(center > 0.0);
        assert!(
            edge < center,
            "ends must be tapered: edge {edge} vs center {center}"
        );
    }

    #[test]
    fn zero_slip_couples_to_zero_source() {
        let sol = section(8);
        let cadence = sol.dt * sol.steps_per_bin as f64;
        let coupling = SeafloorCoupling::new(&sol, 6, 36_000.0, 2_500.0, 0.4, 0.2);
        let m_slip = vec![0.0; sol.n_params()];
        let m = coupling.seafloor_velocity(&sol, &m_slip, 6, 4, 20_000.0, 8, cadence);
        assert!(m.iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "elastic horizon too short")]
    fn horizon_mismatch_rejected() {
        let sol = section(4);
        let cadence = sol.dt * sol.steps_per_bin as f64;
        let coupling = SeafloorCoupling::new(&sol, 6, 36_000.0, 2_500.0, 0.4, 0.2);
        let m_slip = vec![0.0; sol.n_params()];
        let _ = coupling.seafloor_velocity(&sol, &m_slip, 6, 4, 20_000.0, 10, cadence);
    }
}
