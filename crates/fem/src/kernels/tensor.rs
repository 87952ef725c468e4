//! Sum-factorized tensor contractions: reference gradient and its exact
//! transpose.
//!
//! These are the `O(k⁴)`-per-element contractions (vs `O(k⁶)` for direct
//! evaluation) at the heart of MFEM's partial-assembly operator
//! decomposition. `ref_grad_t` is the *literal* transpose of `ref_grad` —
//! same tables, reversed loops — which is what makes the assembled-free
//! operator pair `(∇p, τ)` / `−(u, ∇v)` exactly skew-adjoint and the
//! discrete adjoint PDE solves exact.

use crate::basis1d::Basis1d;

/// Reusable per-thread scratch buffers for the contractions over a panel
/// of `L` element fields. Every slot holds one value per lane (`[f64; L]`,
/// lane fastest), so each contraction's innermost loop runs over the lanes
/// and the basis tables are read once per `L` fields. `L = 1` is the
/// single-field case.
pub struct SumFacScratch<const L: usize = 1> {
    /// `[c·np1+b][qx]` value interpolation after the x pass.
    pub val_x: Vec<[f64; L]>,
    /// x-derivative after the x pass.
    pub der_x: Vec<[f64; L]>,
    /// `[c·nq+qy][qx]` values after the y pass.
    pub val_xy: Vec<[f64; L]>,
    /// ∂x after the y pass.
    pub dx_xy: Vec<[f64; L]>,
    /// ∂y after the y pass.
    pub dy_xy: Vec<[f64; L]>,
    /// Gathered element-local p dofs (`np1³`).
    pub p_local: Vec<[f64; L]>,
    /// Element-local p residual (`np1³`).
    pub p_res: Vec<[f64; L]>,
    /// Reference gradients / scaled fluxes, component-major `3 × nq³`.
    pub g: Vec<[f64; L]>,
}

impl<const L: usize> SumFacScratch<L> {
    /// Allocate for `np1` nodes and `nq` quadrature points per direction.
    pub fn new(np1: usize, nq: usize) -> Self {
        SumFacScratch {
            val_x: vec![[0.0; L]; np1 * np1 * nq],
            der_x: vec![[0.0; L]; np1 * np1 * nq],
            val_xy: vec![[0.0; L]; np1 * nq * nq],
            dx_xy: vec![[0.0; L]; np1 * nq * nq],
            dy_xy: vec![[0.0; L]; np1 * nq * nq],
            p_local: vec![[0.0; L]; np1 * np1 * np1],
            p_res: vec![[0.0; L]; np1 * np1 * np1],
            g: vec![[0.0; L]; 3 * nq * nq * nq],
        }
    }
}

/// `acc += w·x`, lane by lane.
#[inline(always)]
fn axpy<const L: usize>(acc: &mut [f64; L], w: f64, x: &[f64; L]) {
    for l in 0..L {
        acc[l] += w * x[l];
    }
}

/// `acc += (w·x + v·y)`, lane by lane.
#[inline(always)]
fn axpy2<const L: usize>(acc: &mut [f64; L], w: f64, x: &[f64; L], v: f64, y: &[f64; L]) {
    for l in 0..L {
        acc[l] += w * x[l] + v * y[l];
    }
}

/// Reference gradient of the element-local fields `scratch.p_local` at all
/// GL tensor points; result in `scratch.g` (component-major, `3 × nq³`,
/// x-fastest point ordering).
pub fn ref_grad<const L: usize>(basis: &Basis1d, scratch: &mut SumFacScratch<L>) {
    let np1 = basis.n_nodes();
    let nq = basis.n_quad();
    let nq3 = nq * nq * nq;
    let b = &basis.b;
    let d = &basis.d;
    // Stage A (x): contract the `a` index.
    for cb in 0..np1 * np1 {
        let p_row = &scratch.p_local[cb * np1..(cb + 1) * np1];
        for qx in 0..nq {
            let brow = &b[qx * np1..(qx + 1) * np1];
            let drow = &d[qx * np1..(qx + 1) * np1];
            let mut val = [0.0; L];
            let mut der = [0.0; L];
            for a in 0..np1 {
                axpy(&mut val, brow[a], &p_row[a]);
                axpy(&mut der, drow[a], &p_row[a]);
            }
            scratch.val_x[cb * nq + qx] = val;
            scratch.der_x[cb * nq + qx] = der;
        }
    }
    // Stage B (y): contract the `b` index.
    scratch.val_xy.fill([0.0; L]);
    scratch.dx_xy.fill([0.0; L]);
    scratch.dy_xy.fill([0.0; L]);
    for c in 0..np1 {
        for qy in 0..nq {
            let dst = (c * nq + qy) * nq;
            for bb in 0..np1 {
                let w = b[qy * np1 + bb];
                let wd = d[qy * np1 + bb];
                let src = (c * np1 + bb) * nq;
                for qx in 0..nq {
                    axpy(&mut scratch.val_xy[dst + qx], w, &scratch.val_x[src + qx]);
                    axpy(&mut scratch.dx_xy[dst + qx], w, &scratch.der_x[src + qx]);
                    axpy(&mut scratch.dy_xy[dst + qx], wd, &scratch.val_x[src + qx]);
                }
            }
        }
    }
    // Stage C (z): contract the `c` index into the three gradient comps.
    let (g0, rest) = scratch.g.split_at_mut(nq3);
    let (g1, g2) = rest.split_at_mut(nq3);
    g0.fill([0.0; L]);
    g1.fill([0.0; L]);
    g2.fill([0.0; L]);
    for qz in 0..nq {
        for c in 0..np1 {
            let w = b[qz * np1 + c];
            let wd = d[qz * np1 + c];
            for qy in 0..nq {
                let dst = (qz * nq + qy) * nq;
                let src = (c * nq + qy) * nq;
                for qx in 0..nq {
                    axpy(&mut g0[dst + qx], w, &scratch.dx_xy[src + qx]);
                    axpy(&mut g1[dst + qx], w, &scratch.dy_xy[src + qx]);
                    axpy(&mut g2[dst + qx], wd, &scratch.val_xy[src + qx]);
                }
            }
        }
    }
}

/// Exact transpose of [`ref_grad`]: contract the scaled fluxes in
/// `scratch.g` (component-major `3 × nq³`) back to the element-local p
/// residual `scratch.p_res`.
pub fn ref_grad_t<const L: usize>(basis: &Basis1d, scratch: &mut SumFacScratch<L>) {
    let g = std::mem::take(&mut scratch.g);
    ref_grad_t_from(basis, &g, scratch);
    scratch.g = g;
}

/// [`ref_grad_t`] with the flux buffer supplied externally, so fused
/// kernels can keep `ref_grad`'s output alive in `scratch.g` while
/// transposing a second flux buffer through the same stage scratch.
pub fn ref_grad_t_from<const L: usize>(
    basis: &Basis1d,
    g: &[[f64; L]],
    scratch: &mut SumFacScratch<L>,
) {
    let np1 = basis.n_nodes();
    let nq = basis.n_quad();
    let nq3 = nq * nq * nq;
    let b = &basis.b;
    let d = &basis.d;
    let (s0, rest) = g.split_at(nq3);
    let (s1, s2) = rest.split_at(nq3);
    // Stage Cᵀ.
    scratch.dx_xy.fill([0.0; L]);
    scratch.dy_xy.fill([0.0; L]);
    scratch.val_xy.fill([0.0; L]);
    for qz in 0..nq {
        for c in 0..np1 {
            let w = b[qz * np1 + c];
            let wd = d[qz * np1 + c];
            for qy in 0..nq {
                let src = (qz * nq + qy) * nq;
                let dst = (c * nq + qy) * nq;
                for qx in 0..nq {
                    axpy(&mut scratch.dx_xy[dst + qx], w, &s0[src + qx]);
                    axpy(&mut scratch.dy_xy[dst + qx], w, &s1[src + qx]);
                    axpy(&mut scratch.val_xy[dst + qx], wd, &s2[src + qx]);
                }
            }
        }
    }
    // Stage Bᵀ.
    scratch.der_x.fill([0.0; L]);
    scratch.val_x.fill([0.0; L]);
    for c in 0..np1 {
        for qy in 0..nq {
            let src = (c * nq + qy) * nq;
            for bb in 0..np1 {
                let w = b[qy * np1 + bb];
                let wd = d[qy * np1 + bb];
                let dst = (c * np1 + bb) * nq;
                for qx in 0..nq {
                    axpy(&mut scratch.der_x[dst + qx], w, &scratch.dx_xy[src + qx]);
                    axpy2(
                        &mut scratch.val_x[dst + qx],
                        w,
                        &scratch.val_xy[src + qx],
                        wd,
                        &scratch.dy_xy[src + qx],
                    );
                }
            }
        }
    }
    // Stage Aᵀ.
    for cb in 0..np1 * np1 {
        let dst = &mut scratch.p_res[cb * np1..(cb + 1) * np1];
        dst.fill([0.0; L]);
        for qx in 0..nq {
            let wv = &scratch.val_x[cb * nq + qx];
            let wd = &scratch.der_x[cb * nq + qx];
            let brow = &b[qx * np1..(qx + 1) * np1];
            let drow = &d[qx * np1..(qx + 1) * np1];
            for a in 0..np1 {
                axpy2(&mut dst[a], drow[a], wd, brow[a], wv);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quadrature::{gauss_legendre, gauss_lobatto};

    fn basis(order: usize) -> Basis1d {
        let (gll, _) = gauss_lobatto(order + 1);
        let (gl, _) = gauss_legendre(order);
        Basis1d::tabulate(&gll, &gl)
    }

    #[test]
    fn gradient_of_linear_field_is_constant() {
        let order = 3;
        let bs = basis(order);
        let np1 = order + 1;
        let nq = order;
        let mut sc = SumFacScratch::<1>::new(np1, nq);
        // p(ξ,η,ζ) = 2ξ − η + 0.5ζ at GLL tensor nodes.
        let (gll, _) = gauss_lobatto(np1);
        let mut idx = 0;
        for c in 0..np1 {
            for b in 0..np1 {
                for a in 0..np1 {
                    sc.p_local[idx] = [2.0 * gll[a] - gll[b] + 0.5 * gll[c]];
                    idx += 1;
                }
            }
        }
        ref_grad(&bs, &mut sc);
        let nq3 = nq * nq * nq;
        for q in 0..nq3 {
            assert!((sc.g[q][0] - 2.0).abs() < 1e-12);
            assert!((sc.g[nq3 + q][0] + 1.0).abs() < 1e-12);
            assert!((sc.g[2 * nq3 + q][0] - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn grad_matches_direct_tabulation() {
        // Compare sum-factorized gradient against a direct O(k⁶) loop.
        let order = 4;
        let bs = basis(order);
        let np1 = order + 1;
        let nq = order;
        let nq3 = nq * nq * nq;
        let mut sc = SumFacScratch::<1>::new(np1, nq);
        for (i, v) in sc.p_local.iter_mut().enumerate() {
            *v = [((i * i) as f64 * 0.123).sin()];
        }
        let p_snapshot = sc.p_local.clone();
        ref_grad(&bs, &mut sc);
        for qz in 0..nq {
            for qy in 0..nq {
                for qx in 0..nq {
                    let q = (qz * nq + qy) * nq + qx;
                    let mut expect = [0.0; 3];
                    for c in 0..np1 {
                        for b in 0..np1 {
                            for a in 0..np1 {
                                let pv = p_snapshot[(c * np1 + b) * np1 + a][0];
                                expect[0] += bs.d[qx * np1 + a]
                                    * bs.b[qy * np1 + b]
                                    * bs.b[qz * np1 + c]
                                    * pv;
                                expect[1] += bs.b[qx * np1 + a]
                                    * bs.d[qy * np1 + b]
                                    * bs.b[qz * np1 + c]
                                    * pv;
                                expect[2] += bs.b[qx * np1 + a]
                                    * bs.b[qy * np1 + b]
                                    * bs.d[qz * np1 + c]
                                    * pv;
                            }
                        }
                    }
                    for comp in 0..3 {
                        assert!(
                            (sc.g[comp * nq3 + q][0] - expect[comp]).abs() < 1e-11,
                            "comp {comp} q {q}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn transpose_is_exact_adjoint() {
        // ⟨ref_grad(p), s⟩ == ⟨p, ref_grad_t(s)⟩ to machine precision.
        let order = 4;
        let bs = basis(order);
        let np1 = order + 1;
        let nq = order;
        let nq3 = nq * nq * nq;
        let mut sc = SumFacScratch::<1>::new(np1, nq);
        for (i, v) in sc.p_local.iter_mut().enumerate() {
            *v = [((i as f64) * 0.7).sin()];
        }
        let p = sc.p_local.clone();
        ref_grad(&bs, &mut sc);
        let gp = sc.g.clone();
        let s: Vec<f64> = (0..3 * nq3).map(|i| ((i as f64) * 0.31).cos()).collect();
        let lhs: f64 = gp.iter().zip(&s).map(|(a, b)| a[0] * b).sum();
        sc.g.as_flattened_mut().copy_from_slice(&s);
        ref_grad_t(&bs, &mut sc);
        let rhs: f64 = p.iter().zip(&sc.p_res).map(|(a, b)| a[0] * b[0]).sum();
        assert!(
            (lhs - rhs).abs() < 1e-12 * lhs.abs().max(1.0),
            "{lhs} vs {rhs}"
        );
    }
}
