//! Classical RK4 time stepping and its exact discrete transpose.
//!
//! For the LTI system `ẋ = L x + F` with `F` constant over a step
//! (piecewise-constant parameters), one RK4 step is the *linear* map
//!
//! ```text
//!   x⁺ = R x + dt·Ψ F,   R = I + dtL·Ψ(dtL),
//!   Ψ(z) = I + z/2 + z²/6 + z³/24.
//! ```
//!
//! The adjoint recurrence is therefore `λ⁻ = λ + dt·Lᵀ Ψ(dtLᵀ) λ` with the
//! parameter gradient picked up as `dt·Fᵀ Ψ(dtLᵀ) λ` — four operator
//! applications per step, identical cost to the forward step, and an exact
//! transpose (up to roundoff) of the forward map. This is what makes the
//! Phase 1 "one adjoint solve per sensor" construction of the Toeplitz
//!
//! Both steps advance a lane-minor *panel* of states (entry `i·lanes + l`
//! is dof `i` of state `l`; the lane count is fixed by the
//! [`Rk4Workspace`]). The axpy updates are elementwise and so
//! layout-blind; the operator applications sweep the elements once for
//! all lanes. Each lane performs exactly the single-state operations in
//! the same order, so a panel step is bit-identical, lane by lane, to
//! `lanes` one-lane steps. All scratch — the stage vectors, the
//! `p̃`/`ũ` of `Lᵀ`, and the adjoint's forcing trace — lives in the
//! workspace, so nothing allocates inside the time loop.

use crate::operator::WaveOperator;

/// Workspace for the RK4 steps of one panel (reused across steps — the
/// paper's "carefully reusing temporary vectors from RK4" memory
/// optimization).
pub struct Rk4Workspace {
    lanes: usize,
    k: Vec<f64>,
    xtmp: Vec<f64>,
    acc: Vec<f64>,
    /// `[ũ | p̃]` scratch of [`WaveOperator::apply_l_transpose`].
    tilde: Vec<f64>,
    /// Forcing trace `Fᵀ y` of the adjoint step (bottom nodes × lanes).
    trace: Vec<f64>,
}

impl Rk4Workspace {
    /// Allocate for a panel of `lanes` states of `op`.
    pub fn new(op: &WaveOperator, lanes: usize) -> Self {
        assert!(lanes >= 1, "a panel has at least one lane");
        let n = op.n_state() * lanes;
        Rk4Workspace {
            lanes,
            k: vec![0.0; n],
            xtmp: vec![0.0; n],
            acc: vec![0.0; n],
            tilde: vec![0.0; n],
            trace: vec![0.0; op.bottom.len() * lanes],
        }
    }
}

/// One forward RK4 step on a panel: `x ← R x + dt Ψ F(m)`, `m` the constant
/// seafloor velocity (lane-minor panel of bottom-node values) over the
/// step; `None` for unforced.
pub fn rk4_step(
    op: &WaveOperator,
    x: &mut [f64],
    m: Option<&[f64]>,
    dt: f64,
    ws: &mut Rk4Workspace,
) {
    let n = x.len();
    let lanes = ws.lanes;
    debug_assert_eq!(n, op.n_state() * lanes);
    // k1
    op.apply_l(lanes, x, m, &mut ws.k);
    ws.acc.copy_from_slice(&ws.k);
    // k2
    for i in 0..n {
        ws.xtmp[i] = x[i] + 0.5 * dt * ws.k[i];
    }
    op.apply_l(lanes, &ws.xtmp, m, &mut ws.k);
    for i in 0..n {
        ws.acc[i] += 2.0 * ws.k[i];
    }
    // k3
    for i in 0..n {
        ws.xtmp[i] = x[i] + 0.5 * dt * ws.k[i];
    }
    op.apply_l(lanes, &ws.xtmp, m, &mut ws.k);
    for i in 0..n {
        ws.acc[i] += 2.0 * ws.k[i];
    }
    // k4
    for i in 0..n {
        ws.xtmp[i] = x[i] + dt * ws.k[i];
    }
    op.apply_l(lanes, &ws.xtmp, m, &mut ws.k);
    for i in 0..n {
        x[i] += dt / 6.0 * (ws.acc[i] + ws.k[i]);
    }
}

/// One adjoint step (backward) on a panel: given `λ` (gradient w.r.t.
/// `x_{n+1}`), compute `y = Ψ(dtLᵀ) λ` by Horner, deposit the parameter
/// gradient `m_grad += dt · S_bᵀ Mp⁻¹ y_p` (lane-minor bottom-node panel),
/// and update `λ ← λ + dt Lᵀ y`.
pub fn rk4_step_transpose(
    op: &WaveOperator,
    lambda: &mut [f64],
    m_grad: Option<&mut [f64]>,
    dt: f64,
    ws: &mut Rk4Workspace,
) {
    let n = lambda.len();
    let lanes = ws.lanes;
    debug_assert_eq!(n, op.n_state() * lanes);
    // Horner: y = λ + z(λ/2 + z(λ/6 + z·λ/24)), z = dt Lᵀ.
    // t = λ/24
    for i in 0..n {
        ws.xtmp[i] = lambda[i] / 24.0;
    }
    // t = λ/6 + z t
    op.apply_l_transpose(lanes, &ws.xtmp, &mut ws.k, &mut ws.tilde);
    for i in 0..n {
        ws.xtmp[i] = lambda[i] / 6.0 + dt * ws.k[i];
    }
    // t = λ/2 + z t
    op.apply_l_transpose(lanes, &ws.xtmp, &mut ws.k, &mut ws.tilde);
    for i in 0..n {
        ws.xtmp[i] = lambda[i] / 2.0 + dt * ws.k[i];
    }
    // y = λ + z t  (store in acc)
    op.apply_l_transpose(lanes, &ws.xtmp, &mut ws.k, &mut ws.tilde);
    for i in 0..n {
        ws.acc[i] = lambda[i] + dt * ws.k[i];
    }
    // Parameter pickup: m_grad += dt · Fᵀ y.
    if let Some(mg) = m_grad {
        op.forcing_transpose(lanes, &ws.acc, &mut ws.trace);
        for (g, t) in mg.iter_mut().zip(&ws.trace) {
            *g += dt * t;
        }
    }
    // λ ← λ + dt Lᵀ y.
    op.apply_l_transpose(lanes, &ws.acc, &mut ws.k, &mut ws.tilde);
    for i in 0..n {
        lambda[i] += dt * ws.k[i];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::PhysicalParams;
    use std::sync::Arc;
    use tsunami_fem::kernels::KernelContext;
    use tsunami_mesh::{FlatBathymetry, HexMesh};

    fn op() -> WaveOperator {
        let mesh = Arc::new(HexMesh::terrain_following(
            3,
            2,
            2,
            3000.0,
            2000.0,
            &FlatBathymetry { depth: 500.0 },
        ));
        let ctx = Arc::new(KernelContext::new(mesh, 3));
        WaveOperator::new(ctx, PhysicalParams::slow_ocean(100.0))
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

    /// Dense check that one transpose step is the adjoint of one forward
    /// step: ⟨R x + dtΨF m, λ⟩ = ⟨x, Rᵀλ⟩ + ⟨m, dtFᵀΨᵀλ⟩.
    #[test]
    fn step_transpose_is_adjoint_of_step() {
        let op = op();
        let n = op.n_state();
        let dt = 0.01;
        let x0 = pseudo(n, 1);
        let m = pseudo(op.bottom.len(), 2);
        let lambda0 = pseudo(n, 3);

        let mut ws = Rk4Workspace::new(&op, 1);
        let mut x = x0.clone();
        rk4_step(&op, &mut x, Some(&m), dt, &mut ws);
        let lhs: f64 = x.iter().zip(&lambda0).map(|(a, b)| a * b).sum();

        let mut lambda = lambda0.clone();
        let mut mg = vec![0.0; op.bottom.len()];
        rk4_step_transpose(&op, &mut lambda, Some(&mut mg), dt, &mut ws);
        let rhs: f64 = x0.iter().zip(&lambda).map(|(a, b)| a * b).sum::<f64>()
            + m.iter().zip(&mg).map(|(a, b)| a * b).sum::<f64>();
        assert!(
            (lhs - rhs).abs() < 1e-11 * lhs.abs().max(1.0),
            "{lhs} vs {rhs}"
        );
    }

    #[test]
    fn energy_conserved_over_many_steps() {
        // RK4 on a skew system dissipates O(θ⁶/72) per step for a mode at
        // scaled frequency θ = ω·dt, so conservation is only meaningful for
        // smooth (low-θ) data at a conservative dt. A rough random state at
        // 0.4 CFL legitimately loses ~0.1% over 200 steps.
        let mut op = op();
        op.absorbing_coeff = 0.0; // reflecting walls — conservative system
        let n = op.n_state();
        let n_u = op.n_u();
        let mut x = vec![0.0; n];
        // Smooth single-mode initial pressure.
        let (gll, _) = tsunami_fem::gauss_lobatto(op.ctx.h1.order + 1);
        let coords = op.ctx.h1.node_coords(&op.ctx.mesh, &gll);
        for (v, c) in x[n_u..].iter_mut().zip(&coords) {
            *v = 100.0
                * (std::f64::consts::PI * c[0] / 3000.0).sin()
                * (std::f64::consts::PI * c[1] / 2000.0).cos();
        }
        let e0 = op.energy(&x);
        let dt = op.params.cfl_dt(500.0, 3, 0.1);
        let mut ws = Rk4Workspace::new(&op, 1);
        for _ in 0..200 {
            rk4_step(&op, &mut x, None, dt, &mut ws);
        }
        let e1 = op.energy(&x);
        assert!(((e1 - e0) / e0).abs() < 1e-7, "energy drift {e0} → {e1}");
    }

    #[test]
    fn absorbing_boundary_dissipates() {
        let op = op();
        let n = op.n_state();
        let n_u = op.n_u();
        let mut x = vec![0.0; n];
        for (i, v) in x[n_u..].iter_mut().enumerate() {
            *v = ((i as f64) * 0.013).cos() * 50.0;
        }
        let e0 = op.energy(&x);
        let dt = op.params.cfl_dt(500.0, 3, 0.4);
        let mut ws = Rk4Workspace::new(&op, 1);
        for _ in 0..400 {
            rk4_step(&op, &mut x, None, dt, &mut ws);
        }
        let e1 = op.energy(&x);
        assert!(e1 < e0 * 0.999, "no dissipation: {e0} → {e1}");
    }

    #[test]
    fn unstable_above_cfl() {
        // A grossly over-CFL step must blow up — validates the CFL estimate
        // is in the right regime (not overly conservative by 100×).
        let op = op();
        let n = op.n_state();
        let n_u = op.n_u();
        let mut x = vec![0.0; n];
        for (i, v) in x[n_u..].iter_mut().enumerate() {
            *v = ((i as f64) * 0.017).sin();
        }
        let dt = op.params.cfl_dt(500.0, 3, 100.0); // 100× the safe step
        let mut ws = Rk4Workspace::new(&op, 1);
        for _ in 0..60 {
            rk4_step(&op, &mut x, None, dt, &mut ws);
        }
        let e = op.energy(&x);
        assert!(
            !e.is_finite() || e > 1e12,
            "expected instability, energy {e}"
        );
    }
}
