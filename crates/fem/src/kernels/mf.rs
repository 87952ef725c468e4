//! "Fused MF": matrix-free fused kernel — no stored geometry at all.
//!
//! Jacobians are recomputed from the 8 element vertices at every quadrature
//! point. Per Fig 7 this variant moves the fewest bytes per DOF
//! (22.2 B/DOF on MI300A vs 57.0 for Fused PA) but does ~1.18× the
//! FLOP/DOF; on both the paper's GPUs and this CPU port it achieves higher
//! FLOP/s yet *lower* DOF throughput than Fused PA — the paper's
//! "higher FLOP/s does not mean faster time-to-solution" point.

use super::tensor::{ref_grad, ref_grad_t, ref_grad_t_from, SumFacScratch};
use super::{KernelContext, SendMutPtr, WaveKernel};
use crate::geom::geom_at;
use rayon::prelude::*;
use std::sync::Arc;

/// Fused matrix-free kernel.
pub struct MatrixFree {
    ctx: Arc<KernelContext>,
}

impl MatrixFree {
    /// Wrap a context (the stored geometry in `ctx` is *not* used).
    pub fn new(ctx: Arc<KernelContext>) -> Self {
        MatrixFree { ctx }
    }

    /// Recompute `(J⁻¹ rows, w·detJ)` for element coords at point index `q`.
    #[inline]
    fn geom(&self, coords: &[[f64; 3]; 8], q: usize) -> ([[f64; 3]; 3], f64) {
        let nq = self.ctx.nq1();
        let qx = q % nq;
        let qy = (q / nq) % nq;
        let qz = q / (nq * nq);
        geom_at(
            coords,
            self.ctx.gl_pts[qx],
            self.ctx.gl_pts[qy],
            self.ctx.gl_pts[qz],
            self.ctx.gl_wts[qx] * self.ctx.gl_wts[qy] * self.ctx.gl_wts[qz],
        )
    }
}

impl WaveKernel for MatrixFree {
    fn name(&self) -> &'static str {
        "Fused MF"
    }

    fn apply_grad(&self, p: &[f64], u_res: &mut [f64]) {
        let ctx = &self.ctx;
        let nq3 = ctx.nq3();
        let np1 = ctx.h1.order + 1;
        let nq = ctx.nq1();
        u_res.par_chunks_mut(3 * nq3).enumerate().for_each_init(
            || SumFacScratch::<1>::new(np1, nq),
            |scratch, (e, u_elem)| {
                let (i, j, k) = ctx.mesh.elem_ijk(e);
                let coords = ctx.mesh.elem_coords(e);
                ctx.h1
                    .gather(i, j, k, p, scratch.p_local.as_flattened_mut());
                ref_grad(&ctx.basis, scratch);
                for q in 0..nq3 {
                    let (jinv, jw) = self.geom(&coords, q);
                    let [g0] = scratch.g[q];
                    let [g1] = scratch.g[nq3 + q];
                    let [g2] = scratch.g[2 * nq3 + q];
                    for comp in 0..3 {
                        u_elem[comp * nq3 + q] =
                            jw * (jinv[0][comp] * g0 + jinv[1][comp] * g1 + jinv[2][comp] * g2);
                    }
                }
            },
        );
    }

    fn apply_div(&self, u: &[f64], p_res: &mut [f64]) {
        let ctx = &self.ctx;
        let nq3 = ctx.nq3();
        let np1 = ctx.h1.order + 1;
        let nq = ctx.nq1();
        p_res.iter_mut().for_each(|v| *v = 0.0);
        let out = SendMutPtr(p_res.as_mut_ptr());
        let n_p = ctx.h1.n_dofs();
        for color in &ctx.colors {
            color.par_iter().for_each_init(
                || SumFacScratch::<1>::new(np1, nq),
                |scratch, &e| {
                    let coords = ctx.mesh.elem_coords(e);
                    for q in 0..nq3 {
                        let (jinv, jw) = self.geom(&coords, q);
                        let u0 = u[(e * 3) * nq3 + q];
                        let u1 = u[(e * 3 + 1) * nq3 + q];
                        let u2 = u[(e * 3 + 2) * nq3 + q];
                        for a in 0..3 {
                            scratch.g[a * nq3 + q] =
                                [jw * (jinv[a][0] * u0 + jinv[a][1] * u1 + jinv[a][2] * u2)];
                        }
                    }
                    ref_grad_t(&ctx.basis, scratch);
                    let (i, j, k) = ctx.mesh.elem_ijk(e);
                    // SAFETY: disjoint dofs within a color (see module docs).
                    let global = unsafe { out.slice(n_p) };
                    ctx.h1
                        .scatter_add(i, j, k, scratch.p_res.as_flattened(), global);
                },
            );
        }
    }

    fn apply_fused(&self, p: &[f64], u: &[f64], u_res: &mut [f64], p_res: &mut [f64]) {
        let ctx = &self.ctx;
        let nq3 = ctx.nq3();
        let np1 = ctx.h1.order + 1;
        let nq = ctx.nq1();
        p_res.iter_mut().for_each(|v| *v = 0.0);
        let p_out = SendMutPtr(p_res.as_mut_ptr());
        let u_out = SendMutPtr(u_res.as_mut_ptr());
        let n_p = ctx.h1.n_dofs();
        let n_u = ctx.n_u();
        for color in &ctx.colors {
            color.par_iter().for_each_init(
                || {
                    (
                        SumFacScratch::<1>::new(np1, nq),
                        vec![[0.0f64]; 3 * nq * nq * nq],
                    )
                },
                |(grad, flux_g), &e| {
                    let (i, j, k) = ctx.mesh.elem_ijk(e);
                    let coords = ctx.mesh.elem_coords(e);
                    ctx.h1.gather(i, j, k, p, grad.p_local.as_flattened_mut());
                    ref_grad(&ctx.basis, grad);
                    // SAFETY (u_out): element-private velocity slots.
                    let u_global = unsafe { u_out.slice(n_u) };
                    for q in 0..nq3 {
                        let (jinv, jw) = self.geom(&coords, q);
                        let [g0] = grad.g[q];
                        let [g1] = grad.g[nq3 + q];
                        let [g2] = grad.g[2 * nq3 + q];
                        let u0 = u[(e * 3) * nq3 + q];
                        let u1 = u[(e * 3 + 1) * nq3 + q];
                        let u2 = u[(e * 3 + 2) * nq3 + q];
                        for comp in 0..3 {
                            u_global[(e * 3 + comp) * nq3 + q] =
                                jw * (jinv[0][comp] * g0 + jinv[1][comp] * g1 + jinv[2][comp] * g2);
                        }
                        for a in 0..3 {
                            flux_g[a * nq3 + q] =
                                [jw * (jinv[a][0] * u0 + jinv[a][1] * u1 + jinv[a][2] * u2)];
                        }
                    }
                    ref_grad_t_from(&ctx.basis, flux_g, grad);
                    // SAFETY (p_out): disjoint dofs within a color.
                    let p_global = unsafe { p_out.slice(n_p) };
                    ctx.h1
                        .scatter_add(i, j, k, grad.p_res.as_flattened(), p_global);
                },
            );
        }
    }

    fn stored_bytes(&self) -> usize {
        0 // geometry recomputed; only the shared basis tables exist
    }
}
