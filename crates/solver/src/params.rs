//! Physical parameters of the compressible-ocean model.

/// Material and gravitational constants of eq. (1).
#[derive(Clone, Copy, Debug)]
pub struct PhysicalParams {
    /// Seawater density ρ (kg/m³).
    pub rho: f64,
    /// Bulk modulus K (Pa); sound speed is `c = √(K/ρ)`.
    pub bulk_modulus: f64,
    /// Gravitational acceleration g (m/s²).
    pub gravity: f64,
}

impl PhysicalParams {
    /// Standard seawater: ρ = 1025 kg/m³, c ≈ 1500 m/s, g = 9.81 m/s².
    pub fn seawater() -> Self {
        let rho = 1025.0;
        let c = 1500.0;
        PhysicalParams {
            rho,
            bulk_modulus: rho * c * c,
            gravity: 9.81,
        }
    }

    /// Seawater with an artificially reduced sound speed. Used by tests and
    /// small demos to relax the acoustic CFL constraint while keeping the
    /// acoustic–gravity coupling structure intact (the ratio `c/√(gH)`
    /// controls how close the surface mode is to its incompressible limit).
    pub fn slow_ocean(c: f64) -> Self {
        let rho = 1025.0;
        PhysicalParams {
            rho,
            bulk_modulus: rho * c * c,
            gravity: 9.81,
        }
    }

    /// Sound speed `c = √(K/ρ)`.
    pub fn sound_speed(&self) -> f64 {
        (self.bulk_modulus / self.rho).sqrt()
    }

    /// Acoustic impedance `Z = ρc`.
    pub fn impedance(&self) -> f64 {
        self.rho * self.sound_speed()
    }

    /// Surface gravity-wave dispersion relation `ω² = g k tanh(kH)`
    /// (incompressible limit) — the analytic oracle for physics tests.
    pub fn gravity_wave_omega(&self, k: f64, depth: f64) -> f64 {
        (self.gravity * k * (k * depth).tanh()).sqrt()
    }

    /// Stable explicit timestep estimate: `dt = safety · h_min /(c · k²)`,
    /// the usual spectral-element CFL scaling in the polynomial order `k`.
    pub fn cfl_dt(&self, min_edge: f64, order: usize, safety: f64) -> f64 {
        safety * min_edge / (self.sound_speed() * (order * order) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seawater_sound_speed() {
        let p = PhysicalParams::seawater();
        assert!((p.sound_speed() - 1500.0).abs() < 1e-9);
        assert!((p.impedance() - 1025.0 * 1500.0).abs() < 1e-6);
    }

    #[test]
    fn dispersion_limits() {
        let p = PhysicalParams::seawater();
        // Shallow limit: ω/k → √(gH).
        let h = 100.0;
        let k = 1e-5;
        let c_phase = p.gravity_wave_omega(k, h) / k;
        assert!((c_phase - (9.81_f64 * h).sqrt()).abs() < 0.1);
        // Deep limit: ω² → gk.
        let k2 = 1.0;
        let w = p.gravity_wave_omega(k2, 5000.0);
        assert!((w * w - 9.81).abs() < 1e-6);
    }

    #[test]
    fn cfl_shrinks_with_order() {
        let p = PhysicalParams::seawater();
        assert!(p.cfl_dt(300.0, 4, 0.5) < p.cfl_dt(300.0, 2, 0.5));
        assert!(p.cfl_dt(300.0, 4, 0.5) > 0.0);
    }
}
