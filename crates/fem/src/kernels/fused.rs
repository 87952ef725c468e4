//! "Fused PA": both off-diagonal operator blocks in one element sweep, over
//! a panel of states.
//!
//! Each RK4 stage needs `G p` *and* `Gᵀ u` on the same state, so fusing the
//! two kernels halves the geometry-factor traffic — the optimization that
//! takes the paper's kernels from "Optimized PA" to their peak 24 GDOF/s.
//!
//! The sweep is written once, generic over a lane count `L`: it advances a
//! lane-minor panel of `L` states (entry `dof·L + l`), so every
//! sum-factorization contraction runs its innermost loop over the lanes
//! and the geometry factors and basis tables are read once per `L`
//! right-hand sides. At the k1024 mesh the single-state apply is not
//! bandwidth-bound — the state stays in cache and the time goes to
//! contractions with trip counts 3 and 4 — so widening the innermost loop
//! is what buys throughput. Each lane performs exactly the single-state
//! operations in the same order (Rust never contracts `a*b + c` into an
//! FMA, and lanes never mix), so every lane is bit-identical to the
//! one-lane sweep, which is [`WaveKernel::apply_fused`] itself.

use super::tensor::{ref_grad, ref_grad_t_from, SumFacScratch};
use super::{apply_fused_by_lane, KernelContext, SendMutPtr, WaveKernel, LANES};
use rayon::prelude::*;
use std::sync::Arc;

/// Fused partial-assembly kernel.
pub struct FusedPa {
    ctx: Arc<KernelContext>,
}

impl FusedPa {
    /// Wrap a context.
    pub fn new(ctx: Arc<KernelContext>) -> Self {
        FusedPa { ctx }
    }

    /// The one element sweep: `u_res ← G p`, `p_res ← Gᵀ u` for a
    /// lane-minor panel of `L` states.
    fn sweep<const L: usize>(&self, p: &[f64], u: &[f64], u_res: &mut [f64], p_res: &mut [f64]) {
        let ctx = &self.ctx;
        let nq3 = ctx.nq3();
        let np1 = ctx.h1.order + 1;
        let nq = ctx.nq1();
        p_res.fill(0.0);
        let (n_p, n_u) = (p_res.len(), u_res.len());
        let p_out = SendMutPtr(p_res.as_mut_ptr());
        let u_out = SendMutPtr(u_res.as_mut_ptr());
        let lanes_of = |i: usize| -> [f64; L] { u[i * L..(i + 1) * L].try_into().unwrap() };
        for color in &ctx.colors {
            color.par_iter().for_each_init(
                || FusedScratch::<L> {
                    grad: SumFacScratch::new(np1, nq),
                    flux_g: vec![[0.0; L]; 3 * nq3],
                },
                |scratch, &e| {
                    let (i, j, k) = ctx.mesh.elem_ijk(e);
                    ctx.h1
                        .gather(i, j, k, p, scratch.grad.p_local.as_flattened_mut());
                    ref_grad(&ctx.basis, &mut scratch.grad);
                    // Single geometry pass feeding both operators.
                    // SAFETY (u_out): each element writes only its own
                    // 3·nq³·L velocity slots — disjoint across all elements.
                    let u_global = unsafe { u_out.slice(n_u) };
                    let g = &scratch.grad.g;
                    for q in 0..nq3 {
                        let f = ctx.geom.at(e, q);
                        let jw = f[9];
                        let (g0, g1, g2) = (&g[q], &g[nq3 + q], &g[2 * nq3 + q]);
                        let u0 = lanes_of((e * 3) * nq3 + q);
                        let u1 = lanes_of((e * 3 + 1) * nq3 + q);
                        let u2 = lanes_of((e * 3 + 2) * nq3 + q);
                        for comp in 0..3 {
                            let slot = ((e * 3 + comp) * nq3 + q) * L;
                            for l in 0..L {
                                u_global[slot + l] = jw
                                    * (f[comp] * g0[l] + f[3 + comp] * g1[l] + f[6 + comp] * g2[l]);
                            }
                        }
                        for a in 0..3 {
                            let flux = &mut scratch.flux_g[a * nq3 + q];
                            for l in 0..L {
                                flux[l] = jw
                                    * (f[3 * a] * u0[l]
                                        + f[3 * a + 1] * u1[l]
                                        + f[3 * a + 2] * u2[l]);
                            }
                        }
                    }
                    ref_grad_t_from(&ctx.basis, &scratch.flux_g, &mut scratch.grad);
                    // SAFETY (p_out): disjoint dofs within a color.
                    let p_global = unsafe { p_out.slice(n_p) };
                    ctx.h1
                        .scatter_add(i, j, k, scratch.grad.p_res.as_flattened(), p_global);
                },
            );
        }
    }
}

/// Scratch for the fused sweep: one set of stage buffers (reused by the
/// gradient pass and its transpose) plus a second flux buffer, since
/// `ref_grad`'s output must stay live through the quadrature loop.
struct FusedScratch<const L: usize> {
    grad: SumFacScratch<L>,
    flux_g: Vec<[f64; L]>,
}

impl WaveKernel for FusedPa {
    fn name(&self) -> &'static str {
        "Fused PA"
    }

    fn apply_grad(&self, p: &[f64], u_res: &mut [f64]) {
        // Unfused fallback delegates to the same machinery.
        super::OptimizedPa::new(self.ctx.clone()).apply_grad(p, u_res);
    }

    fn apply_div(&self, u: &[f64], p_res: &mut [f64]) {
        super::OptimizedPa::new(self.ctx.clone()).apply_div(u, p_res);
    }

    fn apply_fused(&self, p: &[f64], u: &[f64], u_res: &mut [f64], p_res: &mut [f64]) {
        self.sweep::<1>(p, u, u_res, p_res);
    }

    fn apply_fused_panel(
        &self,
        lanes: usize,
        p: &[f64],
        u: &[f64],
        u_res: &mut [f64],
        p_res: &mut [f64],
    ) {
        match lanes {
            1 => self.sweep::<1>(p, u, u_res, p_res),
            LANES => self.sweep::<LANES>(p, u, u_res, p_res),
            _ => apply_fused_by_lane(self, lanes, p, u, u_res, p_res),
        }
    }

    fn stored_bytes(&self) -> usize {
        self.ctx.geom.bytes()
    }
}
