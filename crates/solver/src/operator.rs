//! The discrete acoustic–gravity operator: lumped masses, boundary terms,
//! and the linear RHS `L` plus its exact transpose `Lᵀ`.
//!
//! State layout: `x = [u | p]` with `u` the 3-component L2 velocity
//! (element-major) and `p` the global H1 pressure. The semi-discrete system
//! is `ẋ = L x + F(t)` with
//!
//! ```text
//!   L [u;p] = [ −Mu⁻¹ (G p) ;  Mp⁻¹ (Gᵀ u − Z⁻¹·S_a p) ]
//!   F(t)    = [ 0 ;  Mp⁻¹ (S_b m(t)) ]
//! ```
//!
//! where `Mu = diag(ρ·w·detJ)`, `Mp = diag(K⁻¹·(w·detJ)_GLL) +
//! diag((ρg)⁻¹·S_s)` (free-surface term), `S_•` the boundary masses, and
//! `G`/`Gᵀ` the kernel pair from `tsunami-fem`. Every block is diagonal
//! except `G`, so `Lᵀ` is exactly implementable with the same kernels:
//!
//! ```text
//!   Lᵀ [w_u;w_p] = [ G (Mp⁻¹ w_p) ; −Gᵀ (Mu⁻¹ w_u) − Z⁻¹·S_a (Mp⁻¹ w_p) ]
//! ```

use crate::params::PhysicalParams;
use std::sync::Arc;
use tsunami_fem::kernels::{FusedPa, KernelContext, WaveKernel};
use tsunami_fem::{gauss_lobatto, SurfaceMass};
use tsunami_mesh::BoundaryTag;

/// Assembled wave operator over a kernel context.
pub struct WaveOperator {
    /// Shared discretization context.
    pub ctx: Arc<KernelContext>,
    /// The off-diagonal kernel pair (Fig 7's fused partial assembly).
    pub kernel: FusedPa,
    /// Physics constants.
    pub params: PhysicalParams,
    /// Inverse velocity mass per L2 scalar dof (`1/(ρ·w·detJ)`), shared by
    /// the 3 components.
    pub minv_u: Vec<f64>,
    /// Inverse pressure mass per H1 dof.
    pub minv_p: Vec<f64>,
    /// Free-surface boundary mass (`∂Ωs`).
    pub surface: SurfaceMass,
    /// Seafloor boundary mass (`∂Ωb`) — the parameter forcing operator.
    pub bottom: SurfaceMass,
    /// Absorbing boundary mass (`∂Ωa`).
    pub absorbing: SurfaceMass,
    /// Damping coefficient `Z⁻¹` on the absorbing boundary (0 disables it —
    /// used by energy-conservation tests).
    pub absorbing_coeff: f64,
}

impl WaveOperator {
    /// Assemble masses, boundary operators and the fused kernel pair.
    pub fn new(ctx: Arc<KernelContext>, params: PhysicalParams) -> Self {
        let kernel = FusedPa::new(ctx.clone());
        let surface = SurfaceMass::assemble(&ctx.mesh, &ctx.h1, BoundaryTag::Surface);
        let bottom = SurfaceMass::assemble(&ctx.mesh, &ctx.h1, BoundaryTag::Bottom);
        let absorbing = SurfaceMass::assemble(&ctx.mesh, &ctx.h1, BoundaryTag::Absorbing);

        // Velocity mass: ρ·(w·detJ) at each GL point.
        let nq3 = ctx.nq3();
        let mut minv_u = vec![0.0; ctx.l2.n_dofs()];
        for e in 0..ctx.mesh.n_elems() {
            for q in 0..nq3 {
                let jw = ctx.geom.at(e, q)[9];
                minv_u[e * nq3 + q] = 1.0 / (params.rho * jw);
            }
        }

        // Pressure mass: spectral-element lumping — GLL quadrature at the
        // GLL nodes assembles a diagonal K⁻¹·w·detJ, plus the free-surface
        // (ρg)⁻¹ boundary term.
        let order = ctx.h1.order;
        let np1 = order + 1;
        let (gll, wgll) = gauss_lobatto(np1);
        let mut diag_p = vec![0.0; ctx.h1.n_dofs()];
        let kinv = 1.0 / params.bulk_modulus;
        for k in 0..ctx.mesh.nz {
            for j in 0..ctx.mesh.ny {
                for i in 0..ctx.mesh.nx {
                    let e = ctx.mesh.elem_id(i, j, k);
                    for c in 0..np1 {
                        for b in 0..np1 {
                            for a in 0..np1 {
                                let jac = ctx.mesh.jacobian(e, gll[a], gll[b], gll[c]);
                                let det = det3(&jac);
                                let w = wgll[a] * wgll[b] * wgll[c];
                                diag_p[ctx.h1.elem_dof(i, j, k, a, b, c)] += kinv * w * det;
                            }
                        }
                    }
                }
            }
        }
        let rg_inv = 1.0 / (params.rho * params.gravity);
        for (&n, &w) in surface.nodes.iter().zip(&surface.weights) {
            diag_p[n] += rg_inv * w;
        }
        let minv_p = diag_p.iter().map(|&v| 1.0 / v).collect();

        WaveOperator {
            ctx,
            kernel,
            params,
            minv_u,
            minv_p,
            surface,
            bottom,
            absorbing,
            absorbing_coeff: 1.0 / params.impedance(),
        }
    }

    /// Velocity dof count (3 components).
    pub fn n_u(&self) -> usize {
        self.ctx.n_u()
    }

    /// Pressure dof count.
    pub fn n_p(&self) -> usize {
        self.ctx.n_p()
    }

    /// State dimension.
    pub fn n_state(&self) -> usize {
        self.n_u() + self.n_p()
    }

    /// Split a state slice into `(u, p)`.
    pub fn split<'a>(&self, x: &'a [f64]) -> (&'a [f64], &'a [f64]) {
        x.split_at(self.n_u())
    }

    /// `out = L x` (+ optional seafloor forcing `m` on the bottom nodes)
    /// for a lane-minor panel of `lanes` states: entry `i·lanes + l` of
    /// `x`, `out` and `m` is dof `i` of state `l`. Every lane is
    /// bit-identical to the one-lane call on that state alone.
    pub fn apply_l(&self, lanes: usize, x: &[f64], m_bottom: Option<&[f64]>, out: &mut [f64]) {
        let n_u = self.n_u() * lanes;
        let (xu, xp) = x.split_at(n_u);
        let (ou, op) = out.split_at_mut(n_u);
        // Fused kernel: ou ← G p (raw), op ← Gᵀ u (raw).
        self.kernel.apply_fused_panel(lanes, xp, xu, ou, op);
        // Velocity block: −Mu⁻¹ G p.
        self.for_velocity_rows(lanes, ou, |v, mi| -v * mi);
        // Pressure block: Mp⁻¹ (Gᵀ u − Z⁻¹ S_a p + S_b m).
        self.absorbing
            .add_scaled_diag(-self.absorbing_coeff, lanes, xp, op);
        if let Some(m) = m_bottom {
            self.bottom.add_source(1.0, lanes, m, op);
        }
        for_rows(lanes, op, &self.minv_p, |v, mi| v * mi);
    }

    /// `out = Lᵀ w` — the exact transpose of [`Self::apply_l`] (without
    /// forcing), on a lane-minor panel of `lanes` states. `tilde` is
    /// caller-owned scratch of the panel's size; it returns holding
    /// `[ũ | p̃] = [Mu⁻¹ w_u | Mp⁻¹ w_p]`.
    pub fn apply_l_transpose(&self, lanes: usize, w: &[f64], out: &mut [f64], tilde: &mut [f64]) {
        let n_u = self.n_u() * lanes;
        // p̃ = Mp⁻¹ w_p, ũ = Mu⁻¹ w_u.
        tilde.copy_from_slice(w);
        let (u_tilde, p_tilde) = tilde.split_at_mut(n_u);
        for_rows(lanes, p_tilde, &self.minv_p, |v, mi| v * mi);
        self.for_velocity_rows(lanes, u_tilde, |v, mi| v * mi);
        let (ou, op) = out.split_at_mut(n_u);
        // ou ← G p̃ ; op ← Gᵀ ũ.
        self.kernel
            .apply_fused_panel(lanes, p_tilde, u_tilde, ou, op);
        // Signs: +G p̃ for the u-block; −Gᵀ ũ − Z⁻¹ S_a p̃ for the p-block.
        for v in op.iter_mut() {
            *v = -*v;
        }
        self.absorbing
            .add_scaled_diag(-self.absorbing_coeff, lanes, p_tilde, op);
    }

    /// Transpose of the forcing injection: extract `S_bᵀ Mp⁻¹ w_p` on the
    /// bottom nodes (the adjoint trace that builds p2o rows), for a
    /// lane-minor panel of `lanes` states; `m_out` is the lane-minor panel
    /// of bottom-node traces.
    pub fn forcing_transpose(&self, lanes: usize, w: &[f64], m_out: &mut [f64]) {
        let (_, wp) = w.split_at(self.n_u() * lanes);
        // trace of Mp⁻¹ w_p weighted by the bottom mass.
        assert_eq!(m_out.len(), self.bottom.len() * lanes);
        for ((o, &n), &wt) in m_out
            .chunks_exact_mut(lanes)
            .zip(&self.bottom.nodes)
            .zip(&self.bottom.weights)
        {
            let s = wt * self.minv_p[n];
            for (ov, &wv) in o.iter_mut().zip(&wp[n * lanes..(n + 1) * lanes]) {
                *ov = s * wv;
            }
        }
    }

    /// `v ← f(v, 1/(ρ·w·detJ))` on every lane of every velocity dof of a
    /// lane-minor velocity panel (the L2 mass is shared by the 3
    /// components).
    fn for_velocity_rows(&self, lanes: usize, u: &mut [f64], f: impl Fn(f64, f64) -> f64 + Copy) {
        let nq3 = self.ctx.nq3();
        for (e_u, mu_chunk) in u
            .chunks_exact_mut(3 * nq3 * lanes)
            .zip(self.minv_u.chunks_exact(nq3))
        {
            for comp in e_u.chunks_exact_mut(nq3 * lanes) {
                for_rows(lanes, comp, mu_chunk, f);
            }
        }
    }

    /// Discrete energy `E = ½ (uᵀ Mu u + pᵀ Mp p)` — conserved by the
    /// continuous dynamics when the absorbing term is disabled.
    pub fn energy(&self, x: &[f64]) -> f64 {
        let (xu, xp) = self.split(x);
        let nq3 = self.ctx.nq3();
        let mut e_u = 0.0;
        for (e, mu_chunk) in self.minv_u.chunks_exact(nq3).enumerate() {
            for comp in 0..3 {
                for (q, &mi) in mu_chunk.iter().enumerate() {
                    let v = xu[(e * 3 + comp) * nq3 + q];
                    e_u += v * v / mi;
                }
            }
        }
        let mut e_p = 0.0;
        for (&pv, &mi) in xp.iter().zip(&self.minv_p) {
            e_p += pv * pv / mi;
        }
        0.5 * (e_u + e_p)
    }
}

/// `v ← f(v, d_i)` on every lane of row `i` of a lane-minor panel.
#[inline]
fn for_rows(lanes: usize, panel: &mut [f64], diag: &[f64], f: impl Fn(f64, f64) -> f64) {
    for (row, &d) in panel.chunks_exact_mut(lanes).zip(diag) {
        for v in row {
            *v = f(*v, d);
        }
    }
}

#[inline]
fn det3(j: &[[f64; 3]; 3]) -> f64 {
    j[0][0] * (j[1][1] * j[2][2] - j[1][2] * j[2][1])
        - j[0][1] * (j[1][0] * j[2][2] - j[1][2] * j[2][0])
        + j[0][2] * (j[1][0] * j[2][1] - j[1][1] * j[2][0])
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsunami_mesh::{FlatBathymetry, HexMesh};

    fn small_op(absorbing: bool) -> WaveOperator {
        let mesh = Arc::new(HexMesh::terrain_following(
            3,
            3,
            2,
            6000.0,
            6000.0,
            &FlatBathymetry { depth: 800.0 },
        ));
        let ctx = Arc::new(KernelContext::new(mesh, 3));
        let mut op = WaveOperator::new(ctx, PhysicalParams::seawater());
        if !absorbing {
            op.absorbing_coeff = 0.0;
        }
        op
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
    fn masses_positive() {
        let op = small_op(true);
        assert!(op.minv_u.iter().all(|&v| v > 0.0));
        assert!(op.minv_p.iter().all(|&v| v > 0.0));
    }

    #[test]
    fn pressure_mass_integrates_volume() {
        // Σ 1/minv_p (without surface term) ≈ K⁻¹·V. Rebuild by hand here:
        // use a constant pressure field and the energy functional:
        // E = ½ pᵀ Mp p = ½ K⁻¹ V + ½ (ρg)⁻¹ A_s for p ≡ 1.
        let op = small_op(true);
        let x = {
            let mut x = vec![0.0; op.n_state()];
            let n_u = op.n_u();
            for v in x[n_u..].iter_mut() {
                *v = 1.0;
            }
            x
        };
        let e = op.energy(&x);
        let vol = 6000.0 * 6000.0 * 800.0;
        let area = 6000.0 * 6000.0;
        let expect =
            0.5 * vol / op.params.bulk_modulus + 0.5 * area / (op.params.rho * op.params.gravity);
        assert!((e - expect).abs() < 1e-9 * expect, "{e} vs {expect}");
    }

    #[test]
    fn l_transpose_is_exact_adjoint() {
        let op = small_op(true);
        let x = pseudo(op.n_state(), 1);
        let w = pseudo(op.n_state(), 2);
        let mut lx = vec![0.0; op.n_state()];
        op.apply_l(1, &x, None, &mut lx);
        let mut ltw = vec![0.0; op.n_state()];
        op.apply_l_transpose(1, &w, &mut ltw, &mut vec![0.0; op.n_state()]);
        let lhs: f64 = lx.iter().zip(&w).map(|(a, b)| a * b).sum();
        let rhs: f64 = x.iter().zip(&ltw).map(|(a, b)| a * b).sum();
        assert!(
            (lhs - rhs).abs() < 1e-10 * lhs.abs().max(rhs.abs()).max(1e-30),
            "⟨Lx,w⟩={lhs} vs ⟨x,Lᵀw⟩={rhs}"
        );
    }

    #[test]
    fn forcing_and_trace_adjoint() {
        // ⟨L(0 with source m) − L(0), w⟩ = ⟨m, forcing_transpose(w)⟩.
        let op = small_op(true);
        let m = pseudo(op.bottom.len(), 3);
        let w = pseudo(op.n_state(), 4);
        let zero = vec![0.0; op.n_state()];
        let mut with_src = vec![0.0; op.n_state()];
        op.apply_l(1, &zero, Some(&m), &mut with_src);
        let lhs: f64 = with_src.iter().zip(&w).map(|(a, b)| a * b).sum();
        let mut mt = vec![0.0; op.bottom.len()];
        op.forcing_transpose(1, &w, &mut mt);
        let rhs: f64 = m.iter().zip(&mt).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-10 * lhs.abs().max(1e-30));
    }

    #[test]
    fn energy_decays_under_l_with_absorbing() {
        // dE/dt = xᵀ M L x = −Z⁻¹ Σ_a w p² ≤ 0. Check the quadratic form.
        let op = small_op(true);
        let x = pseudo(op.n_state(), 5);
        let mut lx = vec![0.0; op.n_state()];
        op.apply_l(1, &x, None, &mut lx);
        // xᵀ M L x: compute via energy-weighted inner product.
        let (xu, xp) = op.split(&x);
        let (lu, lp) = op.split(&lx);
        let nq3 = op.ctx.nq3();
        let mut dedt = 0.0;
        for (e, mu_chunk) in op.minv_u.chunks_exact(nq3).enumerate() {
            for comp in 0..3 {
                for (q, &mi) in mu_chunk.iter().enumerate() {
                    let idx = (e * 3 + comp) * nq3 + q;
                    dedt += xu[idx] * lu[idx] / mi;
                }
            }
        }
        for ((&pv, &lv), &mi) in xp.iter().zip(lp).zip(&op.minv_p) {
            dedt += pv * lv / mi;
        }
        assert!(dedt <= 1e-9, "energy production {dedt}");
    }

    #[test]
    fn energy_conserved_without_absorbing() {
        let op = small_op(false);
        let x = pseudo(op.n_state(), 6);
        let mut lx = vec![0.0; op.n_state()];
        op.apply_l(1, &x, None, &mut lx);
        let (xu, xp) = op.split(&x);
        let (lu, lp) = op.split(&lx);
        let nq3 = op.ctx.nq3();
        let mut dedt = 0.0;
        let mut scale = 0.0;
        for (e, mu_chunk) in op.minv_u.chunks_exact(nq3).enumerate() {
            for comp in 0..3 {
                for (q, &mi) in mu_chunk.iter().enumerate() {
                    let idx = (e * 3 + comp) * nq3 + q;
                    dedt += xu[idx] * lu[idx] / mi;
                    scale += (xu[idx] * lu[idx] / mi).abs();
                }
            }
        }
        for ((&pv, &lv), &mi) in xp.iter().zip(lp).zip(&op.minv_p) {
            dedt += pv * lv / mi;
            scale += (pv * lv / mi).abs();
        }
        assert!(
            dedt.abs() < 1e-10 * scale.max(1e-30),
            "skewness violated: {dedt}"
        );
    }
}
