//! Physics validation of the acoustic–gravity solver against analytic
//! dispersion relations — the checks that the substrate actually solves
//! eq. (1) of the paper, not merely *some* stable PDE.

use std::sync::Arc;
use tsunami_fem::kernels::KernelContext;
use tsunami_fem::{gauss_lobatto, PointEvaluator};
use tsunami_mesh::{FlatBathymetry, HexMesh};
use tsunami_solver::rk4::{rk4_step, Rk4Workspace};
use tsunami_solver::{PhysicalParams, WaveOperator};

/// Measure the oscillation period of a time series from its zero
/// crossings (first and third crossing bracket one half-period each).
fn period_from_crossings(times: &[f64], values: &[f64]) -> Option<f64> {
    let mut crossings = Vec::new();
    for i in 1..values.len() {
        if values[i - 1].signum() != values[i].signum() && values[i - 1] != 0.0 {
            // Linear interpolation of the crossing time.
            let frac = values[i - 1] / (values[i - 1] - values[i]);
            crossings.push(times[i - 1] + frac * (times[i] - times[i - 1]));
        }
        if crossings.len() == 3 {
            break;
        }
    }
    (crossings.len() >= 3).then(|| crossings[2] - crossings[0])
}

#[test]
fn surface_gravity_wave_dispersion() {
    // Standing gravity wave in a closed basin: η(x) = A cos(kx), k = π/Lx,
    // oscillates at ω² = g k tanh(kH) in the incompressible limit. With
    // c/√(gH) ≈ 8.6 the compressibility correction is ≲ 2%.
    let (lx, ly, h) = (8000.0, 2000.0, 500.0);
    let mesh = Arc::new(HexMesh::terrain_following(
        8,
        2,
        2,
        lx,
        ly,
        &FlatBathymetry { depth: h },
    ));
    let ctx = Arc::new(KernelContext::new(mesh, 3));
    let params = PhysicalParams::slow_ocean(600.0);
    let mut op = WaveOperator::new(ctx.clone(), params);
    op.absorbing_coeff = 0.0; // rigid walls: cos(kx) satisfies u·n = 0

    let k = std::f64::consts::PI / lx;
    let omega = params.gravity_wave_omega(k, h);
    let period_theory = std::f64::consts::TAU / omega;

    // Initial condition: p = ρg η₀ cosh(k(z+H))/cosh(kH) (≈ uniform for
    // kH = 0.196), u = 0.
    let (gll, _) = gauss_lobatto(4);
    let coords = ctx.h1.node_coords(&ctx.mesh, &gll);
    let n_u = op.n_u();
    let mut x = vec![0.0; op.n_state()];
    let rg = params.rho * params.gravity;
    for (v, c) in x[n_u..].iter_mut().zip(&coords) {
        let eta0 = 0.5 * (k * c[0]).cos();
        *v = rg * eta0 * ((k * (c[2] + h)).cosh() / (k * h).cosh());
    }

    // Probe η at the left wall (antinode).
    let probe = PointEvaluator::new(&ctx.mesh, &ctx.h1, 50.0, 1000.0, 0.0).unwrap();
    let dt = params.cfl_dt(h / 2.0, 3, 0.4);
    let mut ws = Rk4Workspace::new(&op, 1);
    let steps = (1.3 * period_theory / dt) as usize;
    let mut times = Vec::with_capacity(steps);
    let mut etas = Vec::with_capacity(steps);
    for s in 0..steps {
        rk4_step(&op, &mut x, None, dt, &mut ws);
        times.push((s + 1) as f64 * dt);
        etas.push(probe.eval(&x[n_u..]));
    }
    let period = period_from_crossings(&times, &etas)
        .expect("no full oscillation observed — wave did not propagate");
    let rel = (period - period_theory).abs() / period_theory;
    assert!(
        rel < 0.05,
        "gravity-wave period {period:.1}s vs theory {period_theory:.1}s ({:.1}% off)",
        rel * 100.0
    );
}

#[test]
fn acoustic_organ_pipe_mode() {
    // Vertical acoustic resonance of the water column: pressure-release
    // surface + rigid bottom → quarter-wave mode with period 4H/c. Gravity
    // shifts it negligibly at these parameters.
    let (lx, ly, h) = (2000.0, 2000.0, 500.0);
    let mesh = Arc::new(HexMesh::terrain_following(
        2,
        2,
        4,
        lx,
        ly,
        &FlatBathymetry { depth: h },
    ));
    let ctx = Arc::new(KernelContext::new(mesh, 4));
    let params = PhysicalParams::slow_ocean(600.0);
    let mut op = WaveOperator::new(ctx.clone(), params);
    op.absorbing_coeff = 0.0;

    let (gll, _) = gauss_lobatto(5);
    let coords = ctx.h1.node_coords(&ctx.mesh, &gll);
    let n_u = op.n_u();
    let mut x = vec![0.0; op.n_state()];
    let kz = std::f64::consts::PI / (2.0 * h);
    for (v, c) in x[n_u..].iter_mut().zip(&coords) {
        *v = 1000.0 * (kz * (c[2] + h)).cos(); // p=0 at z=0, dp/dz=0 at bottom
    }
    let probe = PointEvaluator::new(&ctx.mesh, &ctx.h1, 1000.0, 1000.0, -h * 0.98).unwrap();
    let period_theory = 4.0 * h / params.sound_speed();
    let dt = params.cfl_dt(h / 4.0, 4, 0.3);
    let mut ws = Rk4Workspace::new(&op, 1);
    let steps = (1.4 * period_theory / dt) as usize;
    let mut times = Vec::with_capacity(steps);
    let mut ps = Vec::with_capacity(steps);
    for s in 0..steps {
        rk4_step(&op, &mut x, None, dt, &mut ws);
        times.push((s + 1) as f64 * dt);
        ps.push(probe.eval(&x[n_u..]));
    }
    let period = period_from_crossings(&times, &ps).expect("no acoustic oscillation");
    let rel = (period - period_theory).abs() / period_theory;
    assert!(
        rel < 0.05,
        "acoustic period {period:.3}s vs theory {period_theory:.3}s ({:.1}% off)",
        rel * 100.0
    );
}

#[test]
fn acoustic_travel_time_to_sensor() {
    // A seafloor impulse must not register at a distant sensor before the
    // acoustic travel time — finite propagation speed (causality in space).
    let (lx, ly, h) = (12_000.0, 3000.0, 500.0);
    let mesh = Arc::new(HexMesh::terrain_following(
        12,
        3,
        1,
        lx,
        ly,
        &FlatBathymetry { depth: h },
    ));
    let ctx = Arc::new(KernelContext::new(mesh, 3));
    let params = PhysicalParams::slow_ocean(400.0);
    let op = WaveOperator::new(ctx.clone(), params);
    // Well-resolved bottom source near x = 1.5 km (width ≫ element size,
    // smooth onset — abrupt unresolved sources excite dispersive numerical
    // precursors that travel faster than c, as in any spectral scheme).
    let mut m_shape = vec![0.0; op.bottom.len()];
    for (i, c) in op.bottom.coords.iter().enumerate() {
        let d2 = (c[0] - 1500.0).powi(2) + (c[1] - 1500.0).powi(2);
        m_shape[i] = (-d2 / (2500.0f64 * 2500.0)).exp();
    }
    let sensor_x = 10_500.0;
    let probe = PointEvaluator::new(&ctx.mesh, &ctx.h1, sensor_x, 1500.0, -h * 0.97).unwrap();
    let distance = sensor_x - 1500.0;
    let t_arrive = distance / params.sound_speed();
    let ramp = 5.0; // seconds of smooth turn-on
    let dt = params.cfl_dt(h, 3, 0.4);
    let mut ws = Rk4Workspace::new(&op, 1);
    let n_u = op.n_u();
    let mut x = vec![0.0; op.n_state()];
    let mut m = vec![0.0; op.bottom.len()];
    let mut peak_before = 0.0f64;
    let mut peak_after = 0.0f64;
    let steps = (1.6 * t_arrive / dt) as usize;
    for s in 0..steps {
        let t = s as f64 * dt;
        let scale = if t < ramp {
            (std::f64::consts::FRAC_PI_2 * t / ramp).sin().powi(2)
        } else {
            1.0
        };
        for (mv, &sh) in m.iter_mut().zip(&m_shape) {
            *mv = scale * sh;
        }
        rk4_step(&op, &mut x, Some(&m), dt, &mut ws);
        let t1 = (s + 1) as f64 * dt;
        let p = probe.eval(&x[n_u..]).abs();
        if t1 < 0.5 * t_arrive {
            peak_before = peak_before.max(p);
        } else {
            peak_after = peak_after.max(p);
        }
    }
    assert!(
        peak_after > 10.0 * peak_before.max(1e-12),
        "no clear arrival: before {peak_before:.3e}, after {peak_after:.3e} (t_arrive {t_arrive:.1}s)"
    );
}
