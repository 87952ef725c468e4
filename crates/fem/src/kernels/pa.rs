//! Partial-assembly kernels: the "Initial PA" and "Optimized PA" variants.
//!
//! Both store the same `O(1)`-per-DOF geometry factors; they differ in loop
//! structure. `PartialAssembly` evaluates basis gradients through a full
//! `O(k⁶)` tabulated loop and allocates its scratch per call — deliberately
//! reproducing the paper's initial implementation that the optimized
//! shared-memory version then beat by 13×. `OptimizedPa` uses `O(k⁴)` sum
//! factorization with per-thread scratch reuse.

use super::tensor::{ref_grad, ref_grad_t, SumFacScratch};
use super::{KernelContext, SendMutPtr, WaveKernel};
use rayon::prelude::*;
use std::sync::Arc;

/// "Initial PA": direct tabulated loops, per-call allocations.
pub struct PartialAssembly {
    ctx: Arc<KernelContext>,
    /// Reference gradient table `dphi[(q·np1³ + i)·3 + a] = ∂_a ψ_i(ξ_q)`.
    dphi: Vec<f64>,
}

impl PartialAssembly {
    /// Tabulate the reference gradients of all `np1³` basis functions at all
    /// `nq³` quadrature points.
    pub fn new(ctx: Arc<KernelContext>) -> Self {
        let np1 = ctx.h1.order + 1;
        let nq = ctx.nq1();
        let nq3 = ctx.nq3();
        let np3 = np1 * np1 * np1;
        let b = &ctx.basis.b;
        let d = &ctx.basis.d;
        let mut dphi = vec![0.0; nq3 * np3 * 3];
        for qz in 0..nq {
            for qy in 0..nq {
                for qx in 0..nq {
                    let q = (qz * nq + qy) * nq + qx;
                    for c in 0..np1 {
                        for bb in 0..np1 {
                            for a in 0..np1 {
                                let i = (c * np1 + bb) * np1 + a;
                                let o = (q * np3 + i) * 3;
                                dphi[o] = d[qx * np1 + a] * b[qy * np1 + bb] * b[qz * np1 + c];
                                dphi[o + 1] = b[qx * np1 + a] * d[qy * np1 + bb] * b[qz * np1 + c];
                                dphi[o + 2] = b[qx * np1 + a] * b[qy * np1 + bb] * d[qz * np1 + c];
                            }
                        }
                    }
                }
            }
        }
        PartialAssembly { ctx, dphi }
    }
}

impl WaveKernel for PartialAssembly {
    fn name(&self) -> &'static str {
        "Initial PA"
    }

    fn apply_grad(&self, p: &[f64], u_res: &mut [f64]) {
        let ctx = &self.ctx;
        let nq3 = ctx.nq3();
        let np1 = ctx.h1.order + 1;
        let np3 = np1 * np1 * np1;
        let n_elems = ctx.mesh.n_elems();
        u_res
            .par_chunks_mut(3 * nq3)
            .enumerate()
            .for_each(|(e, u_elem)| {
                debug_assert!(e < n_elems);
                // Per-call allocation: part of what makes "Initial PA" slow.
                let mut p_local = vec![0.0; np3];
                let (i, j, k) = ctx.mesh.elem_ijk(e);
                ctx.h1.gather(i, j, k, p, &mut p_local);
                for q in 0..nq3 {
                    let mut g = [0.0f64; 3];
                    for (ii, &pv) in p_local.iter().enumerate() {
                        let o = (q * np3 + ii) * 3;
                        g[0] += self.dphi[o] * pv;
                        g[1] += self.dphi[o + 1] * pv;
                        g[2] += self.dphi[o + 2] * pv;
                    }
                    let f = ctx.geom.at(e, q);
                    let jw = f[9];
                    for comp in 0..3 {
                        let gp = f[comp] * g[0] + f[3 + comp] * g[1] + f[6 + comp] * g[2];
                        u_elem[comp * nq3 + q] = jw * gp;
                    }
                }
            });
    }

    fn apply_div(&self, u: &[f64], p_res: &mut [f64]) {
        let ctx = &self.ctx;
        let nq3 = ctx.nq3();
        let np1 = ctx.h1.order + 1;
        let np3 = np1 * np1 * np1;
        p_res.iter_mut().for_each(|v| *v = 0.0);
        let out = SendMutPtr(p_res.as_mut_ptr());
        for color in &ctx.colors {
            color.par_iter().for_each(|&e| {
                let mut s = vec![0.0f64; 3 * nq3];
                let mut local = vec![0.0f64; np3];
                for q in 0..nq3 {
                    let f = ctx.geom.at(e, q);
                    let jw = f[9];
                    for a in 0..3 {
                        s[a * nq3 + q] = jw
                            * (f[3 * a] * u[(e * 3) * nq3 + q]
                                + f[3 * a + 1] * u[(e * 3 + 1) * nq3 + q]
                                + f[3 * a + 2] * u[(e * 3 + 2) * nq3 + q]);
                    }
                }
                for (ii, lv) in local.iter_mut().enumerate() {
                    let mut acc = 0.0;
                    for q in 0..nq3 {
                        let o = (q * np3 + ii) * 3;
                        acc += self.dphi[o] * s[q]
                            + self.dphi[o + 1] * s[nq3 + q]
                            + self.dphi[o + 2] * s[2 * nq3 + q];
                    }
                    *lv = acc;
                }
                let (i, j, k) = ctx.mesh.elem_ijk(e);
                // SAFETY: elements within a color share no pressure dofs
                // (verified by `colors_share_no_pressure_dofs`), so these
                // scatter targets are disjoint across the parallel iterator.
                let global = unsafe { out.slice(ctx.h1.n_dofs()) };
                ctx.h1.scatter_add(i, j, k, &local, global);
            });
        }
    }

    fn stored_bytes(&self) -> usize {
        self.ctx.geom.bytes() + self.dphi.len() * std::mem::size_of::<f64>()
    }
}

/// "Optimized PA": sum factorization, per-thread scratch, same storage.
pub struct OptimizedPa {
    ctx: Arc<KernelContext>,
}

impl OptimizedPa {
    /// Wrap a context (geometry factors already live there).
    pub fn new(ctx: Arc<KernelContext>) -> Self {
        OptimizedPa { ctx }
    }
}

impl WaveKernel for OptimizedPa {
    fn name(&self) -> &'static str {
        "Optimized PA"
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
                ctx.h1
                    .gather(i, j, k, p, scratch.p_local.as_flattened_mut());
                ref_grad(&ctx.basis, scratch);
                for q in 0..nq3 {
                    let f = ctx.geom.at(e, q);
                    let jw = f[9];
                    let [g0] = scratch.g[q];
                    let [g1] = scratch.g[nq3 + q];
                    let [g2] = scratch.g[2 * nq3 + q];
                    for comp in 0..3 {
                        u_elem[comp * nq3 + q] =
                            jw * (f[comp] * g0 + f[3 + comp] * g1 + f[6 + comp] * g2);
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
                    for q in 0..nq3 {
                        let f = ctx.geom.at(e, q);
                        let jw = f[9];
                        let u0 = u[(e * 3) * nq3 + q];
                        let u1 = u[(e * 3 + 1) * nq3 + q];
                        let u2 = u[(e * 3 + 2) * nq3 + q];
                        for a in 0..3 {
                            scratch.g[a * nq3 + q] =
                                [jw * (f[3 * a] * u0 + f[3 * a + 1] * u1 + f[3 * a + 2] * u2)];
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

    fn stored_bytes(&self) -> usize {
        self.ctx.geom.bytes()
    }
}
