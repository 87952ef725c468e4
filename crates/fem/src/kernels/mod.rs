//! Operator-application kernels for the mixed wave operator (eq. 4).
//!
//! The two hot kernels per RK4 stage are the off-diagonal blocks of `A`:
//!
//! - `apply_grad`: `u_res = G p` with `G[(e,q,b), i] = w·detJ · (J⁻ᵀ∇ψ_i)_b`,
//! - `apply_div`:  `p_res = Gᵀ u` (the `−(u, ∇v)` block, sign applied by the
//!   caller),
//!
//! in the five implementation variants of Fig 7. All variants compute the
//! same operator to rounding; they differ in storage and loop structure:
//!
//! | variant            | stores                   | paper analogue      |
//! |--------------------|--------------------------|---------------------|
//! | [`FullAssembly`]   | global CSR of `G`, `Gᵀ`  | classical assembly  |
//! | [`PartialAssembly`]| geom factors, direct O(k⁶) loops, per-call allocs | "Initial PA" |
//! | [`OptimizedPa`]    | geom factors, sum-factorized, thread scratch | "Shared/Optimized PA" |
//! | [`FusedPa`]        | geom factors, both ops in one element sweep over a panel of [`LANES`] states | "Fused PA" |
//! | [`MatrixFree`]     | nothing per-element (recomputes geometry) | "Fused MF" |
//!
//! [`WaveKernel::apply_fused_panel`] applies the fused pair to a lane-minor
//! panel of states (entry `dof·lanes + l` is dof `dof` of state `l`) — the
//! entry the time stepper uses. Every lane is bit-identical to
//! [`WaveKernel::apply_fused`] on that state alone.

pub mod full;
pub mod fused;
pub mod mf;
pub mod pa;
pub mod tensor;

use crate::basis1d::Basis1d;
use crate::geom::GeomFactors;
use crate::quadrature::{gauss_legendre, gauss_lobatto};
use crate::spaces::{H1Space, L2Space};
use std::sync::Arc;
use tsunami_mesh::HexMesh;

pub use full::FullAssembly;
pub use fused::FusedPa;
pub use mf::MatrixFree;
pub use pa::{OptimizedPa, PartialAssembly};

/// Panel width of the PDE time stepper: the number of states one
/// [`FusedPa`] element sweep advances. Wider panels read the geometry and
/// basis tables once for more right-hand sides, but leave fewer
/// independent panels to run in parallel (Phase 1 at k1024 has 16 p2o
/// rows, i.e. two panels).
pub const LANES: usize = 8;

/// Which kernel implementation to use (Fig 7's five curves).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelVariant {
    /// Classical global sparse-matrix assembly.
    FullAssembly,
    /// Initial partial assembly: direct loops, per-call allocations.
    InitialPa,
    /// Optimized partial assembly: sum factorization + scratch reuse.
    OptimizedPa,
    /// Fused partial assembly: grad and div in one element sweep.
    FusedPa,
    /// Fused matrix-free: geometry recomputed on the fly.
    MatrixFree,
}

impl KernelVariant {
    /// All variants, in Fig 7 legend order.
    pub const ALL: [KernelVariant; 5] = [
        KernelVariant::FullAssembly,
        KernelVariant::InitialPa,
        KernelVariant::OptimizedPa,
        KernelVariant::FusedPa,
        KernelVariant::MatrixFree,
    ];

    /// Display name matching the paper's legend.
    pub fn name(&self) -> &'static str {
        match self {
            KernelVariant::FullAssembly => "Full Assembly",
            KernelVariant::InitialPa => "Initial PA",
            KernelVariant::OptimizedPa => "Optimized PA",
            KernelVariant::FusedPa => "Fused PA",
            KernelVariant::MatrixFree => "Fused MF",
        }
    }
}

/// Shared discretization context for all kernel variants.
pub struct KernelContext {
    /// The mesh.
    pub mesh: Arc<HexMesh>,
    /// Pressure space (order k).
    pub h1: H1Space,
    /// Velocity component space (order k−1, GL collocation).
    pub l2: L2Space,
    /// GLL→GL evaluation tables.
    pub basis: Basis1d,
    /// 1D GL points.
    pub gl_pts: Vec<f64>,
    /// 1D GL weights.
    pub gl_wts: Vec<f64>,
    /// 1D GLL nodes (pressure).
    pub gll_nodes: Vec<f64>,
    /// 1D GLL weights (pressure mass lumping).
    pub gll_wts: Vec<f64>,
    /// Stored geometry factors (PA variants).
    pub geom: Arc<GeomFactors>,
    /// Element ids grouped by 8-coloring of `(i%2, j%2, k%2)` — elements in
    /// one color share no pressure dofs, enabling parallel scatter.
    pub colors: Vec<Vec<usize>>,
}

impl KernelContext {
    /// Build for a mesh and pressure order `k ≥ 2` (velocity order `k−1`).
    pub fn new(mesh: Arc<HexMesh>, order: usize) -> Self {
        assert!(
            order >= 2,
            "need order ≥ 2 so the velocity space is nonempty"
        );
        let h1 = H1Space::new(&mesh, order);
        let l2 = L2Space::new(&mesh, order - 1);
        let (gll_nodes, gll_wts) = gauss_lobatto(order + 1);
        let (gl_pts, gl_wts) = gauss_legendre(order);
        let basis = Basis1d::tabulate(&gll_nodes, &gl_pts);
        let geom = Arc::new(GeomFactors::build(&mesh, &gl_pts, &gl_wts));
        let mut colors: Vec<Vec<usize>> = vec![Vec::new(); 8];
        for e in 0..mesh.n_elems() {
            let (i, j, k) = mesh.elem_ijk(e);
            colors[(k % 2) * 4 + (j % 2) * 2 + (i % 2)].push(e);
        }
        colors.retain(|c| !c.is_empty());
        KernelContext {
            mesh,
            h1,
            l2,
            basis,
            gl_pts,
            gl_wts,
            gll_nodes,
            gll_wts,
            geom,
            colors,
        }
    }

    /// Pressure dof count.
    pub fn n_p(&self) -> usize {
        self.h1.n_dofs()
    }

    /// Velocity dof count (3 components).
    pub fn n_u(&self) -> usize {
        3 * self.l2.n_dofs()
    }

    /// Total state dofs (the paper's DOF metric).
    pub fn n_dofs(&self) -> usize {
        self.n_p() + self.n_u()
    }

    /// GL points per direction.
    #[inline]
    pub fn nq1(&self) -> usize {
        self.gl_pts.len()
    }

    /// GL points per element.
    #[inline]
    pub fn nq3(&self) -> usize {
        let q = self.nq1();
        q * q * q
    }

    /// Pressure dofs per element face (comm-model input).
    pub fn dofs_per_face(&self) -> usize {
        (self.h1.order + 1) * (self.h1.order + 1)
    }

    /// Offset of component `comp` of element `e` in the velocity vector.
    #[inline]
    pub fn u_offset(&self, e: usize, comp: usize) -> usize {
        (e * 3 + comp) * self.nq3()
    }
}

/// A kernel variant: applies the off-diagonal blocks of the wave operator.
pub trait WaveKernel: Sync + Send {
    /// Human-readable variant name.
    fn name(&self) -> &'static str;
    /// `u_res = G p` (overwrites `u_res`).
    fn apply_grad(&self, p: &[f64], u_res: &mut [f64]);
    /// `p_res = Gᵀ u` (overwrites `p_res`).
    fn apply_div(&self, u: &[f64], p_res: &mut [f64]);
    /// Both operators in one call; variants override to fuse.
    fn apply_fused(&self, p: &[f64], u: &[f64], u_res: &mut [f64], p_res: &mut [f64]) {
        self.apply_grad(p, u_res);
        self.apply_div(u, p_res);
    }
    /// [`Self::apply_fused`] on a lane-minor panel of `lanes` states (all
    /// four slices hold `lanes` interleaved vectors). Each lane's result
    /// is bit-identical to `apply_fused` on that lane alone. The default
    /// runs the lanes one at a time through `apply_fused`; [`FusedPa`]
    /// overrides it with one element sweep for all lanes.
    fn apply_fused_panel(
        &self,
        lanes: usize,
        p: &[f64],
        u: &[f64],
        u_res: &mut [f64],
        p_res: &mut [f64],
    ) {
        apply_fused_by_lane(self, lanes, p, u, u_res, p_res);
    }
    /// Bytes of operator-specific storage (Fig 7 / memory table input).
    fn stored_bytes(&self) -> usize;
}

/// [`WaveKernel::apply_fused_panel`] one lane at a time: de-interleave each
/// lane, apply the single-state kernel, interleave the results back.
pub(crate) fn apply_fused_by_lane<K: WaveKernel + ?Sized>(
    kernel: &K,
    lanes: usize,
    p: &[f64],
    u: &[f64],
    u_res: &mut [f64],
    p_res: &mut [f64],
) {
    let (n_p, n_u) = (p.len() / lanes, u.len() / lanes);
    let (mut p1, mut u1) = (vec![0.0; n_p], vec![0.0; n_u]);
    let (mut p1_res, mut u1_res) = (vec![0.0; n_p], vec![0.0; n_u]);
    for l in 0..lanes {
        read_lane(p, lanes, l, &mut p1);
        read_lane(u, lanes, l, &mut u1);
        kernel.apply_fused(&p1, &u1, &mut u1_res, &mut p1_res);
        write_lane(u_res, lanes, l, &u1_res);
        write_lane(p_res, lanes, l, &p1_res);
    }
}

/// Copy lane `l` of a lane-minor panel of `lanes` vectors into `dst`.
pub fn read_lane(panel: &[f64], lanes: usize, l: usize, dst: &mut [f64]) {
    for (d, &s) in dst.iter_mut().zip(panel.iter().skip(l).step_by(lanes)) {
        *d = s;
    }
}

/// Overwrite lane `l` of a lane-minor panel of `lanes` vectors with `src`.
pub fn write_lane(panel: &mut [f64], lanes: usize, l: usize, src: &[f64]) {
    for (d, &s) in panel.iter_mut().skip(l).step_by(lanes).zip(src) {
        *d = s;
    }
}

/// Construct a kernel of the requested variant over a shared context.
pub fn make_kernel(variant: KernelVariant, ctx: Arc<KernelContext>) -> Box<dyn WaveKernel> {
    match variant {
        KernelVariant::FullAssembly => Box::new(FullAssembly::new(ctx)),
        KernelVariant::InitialPa => Box::new(PartialAssembly::new(ctx)),
        KernelVariant::OptimizedPa => Box::new(OptimizedPa::new(ctx)),
        KernelVariant::FusedPa => Box::new(FusedPa::new(ctx)),
        KernelVariant::MatrixFree => Box::new(MatrixFree::new(ctx)),
    }
}

/// Raw-pointer wrapper allowing color-parallel scatter into a shared
/// output vector.
///
/// # Safety contract
/// Writers must touch disjoint index sets. The kernels guarantee this by
/// iterating elements of a single color (no shared pressure dofs) per
/// parallel region; `serial_matches_parallel` tests validate the invariant.
#[derive(Clone, Copy)]
pub(crate) struct SendMutPtr(pub *mut f64);
unsafe impl Send for SendMutPtr {}
unsafe impl Sync for SendMutPtr {}

impl SendMutPtr {
    /// Reconstitute the output slice.
    ///
    /// # Safety
    /// Concurrent callers must write disjoint index sets (the coloring
    /// invariant). Accessing through this method (rather than the raw field)
    /// also keeps closure captures on the `Sync` wrapper itself.
    // The &self → &mut aliasing is the point of this wrapper: the coloring
    // invariant (not the borrow checker) guarantees disjointness, exactly
    // as in rayon's own split-at-mut-style internals.
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn slice(&self, len: usize) -> &mut [f64] {
        std::slice::from_raw_parts_mut(self.0, len)
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;
    use tsunami_mesh::CascadiaBathymetry;

    /// A small terrain-following context used across kernel tests.
    pub fn test_ctx(order: usize) -> Arc<KernelContext> {
        let bath = CascadiaBathymetry::standard(40e3, 60e3);
        let mesh = Arc::new(HexMesh::terrain_following(4, 5, 3, 40e3, 60e3, &bath));
        Arc::new(KernelContext::new(mesh, order))
    }

    /// Deterministic pseudo-random vector.
    pub fn pseudo(n: usize, seed: u64) -> Vec<f64> {
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
}

#[cfg(test)]
mod tests {
    use super::test_support::*;
    use super::*;

    #[test]
    fn colors_partition_elements_disjointly() {
        let ctx = test_ctx(3);
        let mut seen = vec![false; ctx.mesh.n_elems()];
        for color in &ctx.colors {
            for &e in color {
                assert!(!seen[e], "element {e} in two colors");
                seen[e] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn colors_share_no_pressure_dofs() {
        let ctx = test_ctx(2);
        let p1 = ctx.h1.order + 1;
        for color in &ctx.colors {
            let mut touched = std::collections::HashSet::new();
            for &e in color {
                let (i, j, k) = ctx.mesh.elem_ijk(e);
                for c in 0..p1 {
                    for b in 0..p1 {
                        for a in 0..p1 {
                            let dof = ctx.h1.elem_dof(i, j, k, a, b, c);
                            assert!(touched.insert(dof), "dof {dof} shared within a color");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn all_variants_agree_on_grad() {
        let ctx = test_ctx(3);
        let p = pseudo(ctx.n_p(), 1);
        let mut reference: Option<Vec<f64>> = None;
        for v in KernelVariant::ALL {
            let k = make_kernel(v, ctx.clone());
            let mut u = vec![0.0; ctx.n_u()];
            k.apply_grad(&p, &mut u);
            match &reference {
                None => reference = Some(u),
                Some(r) => {
                    let err: f64 = r
                        .iter()
                        .zip(&u)
                        .map(|(a, b)| (a - b).abs())
                        .fold(0.0, f64::max);
                    let scale = r.iter().fold(0.0f64, |m, &x| m.max(x.abs()));
                    assert!(
                        err < 1e-11 * scale.max(1.0),
                        "{} grad differs: {err}",
                        k.name()
                    );
                }
            }
        }
    }

    #[test]
    fn all_variants_agree_on_div() {
        let ctx = test_ctx(3);
        let u = pseudo(ctx.n_u(), 2);
        let mut reference: Option<Vec<f64>> = None;
        for v in KernelVariant::ALL {
            let k = make_kernel(v, ctx.clone());
            let mut p = vec![0.0; ctx.n_p()];
            k.apply_div(&u, &mut p);
            match &reference {
                None => reference = Some(p),
                Some(r) => {
                    let err: f64 = r
                        .iter()
                        .zip(&p)
                        .map(|(a, b)| (a - b).abs())
                        .fold(0.0, f64::max);
                    let scale = r.iter().fold(0.0f64, |m, &x| m.max(x.abs()));
                    assert!(
                        err < 1e-11 * scale.max(1.0),
                        "{} div differs: {err}",
                        k.name()
                    );
                }
            }
        }
    }

    #[test]
    fn div_is_exact_transpose_of_grad() {
        let ctx = test_ctx(4);
        for v in [
            KernelVariant::OptimizedPa,
            KernelVariant::FusedPa,
            KernelVariant::MatrixFree,
        ] {
            let k = make_kernel(v, ctx.clone());
            let p = pseudo(ctx.n_p(), 3);
            let w = pseudo(ctx.n_u(), 4);
            let mut gp = vec![0.0; ctx.n_u()];
            k.apply_grad(&p, &mut gp);
            let mut gtw = vec![0.0; ctx.n_p()];
            k.apply_div(&w, &mut gtw);
            let lhs: f64 = gp.iter().zip(&w).map(|(a, b)| a * b).sum();
            let rhs: f64 = p.iter().zip(&gtw).map(|(a, b)| a * b).sum();
            assert!(
                (lhs - rhs).abs() < 1e-10 * lhs.abs().max(1.0),
                "{}: ⟨Gp,w⟩={lhs} vs ⟨p,Gᵀw⟩={rhs}",
                k.name()
            );
        }
    }

    #[test]
    fn fused_matches_separate() {
        let ctx = test_ctx(3);
        for v in [KernelVariant::FusedPa, KernelVariant::MatrixFree] {
            let k = make_kernel(v, ctx.clone());
            let p = pseudo(ctx.n_p(), 5);
            let u = pseudo(ctx.n_u(), 6);
            let mut u1 = vec![0.0; ctx.n_u()];
            let mut p1 = vec![0.0; ctx.n_p()];
            k.apply_fused(&p, &u, &mut u1, &mut p1);
            let mut u2 = vec![0.0; ctx.n_u()];
            k.apply_grad(&p, &mut u2);
            let mut p2 = vec![0.0; ctx.n_p()];
            k.apply_div(&u, &mut p2);
            for (a, b) in u1.iter().zip(&u2) {
                assert!((a - b).abs() < 1e-12);
            }
            for (a, b) in p1.iter().zip(&p2) {
                assert!((a - b).abs() < 1e-12);
            }
        }
    }

    /// A lane-minor panel of `lanes` pseudo-random vectors of length `n`,
    /// plus the per-lane vectors it interleaves.
    fn panel(n: usize, lanes: usize, seed: u64) -> (Vec<f64>, Vec<Vec<f64>>) {
        let per_lane: Vec<Vec<f64>> = (0..lanes)
            .map(|l| pseudo(n, seed + 31 * l as u64))
            .collect();
        let mut out = vec![0.0; n * lanes];
        for (l, v) in per_lane.iter().enumerate() {
            write_lane(&mut out, lanes, l, v);
        }
        (out, per_lane)
    }

    /// Every lane of `apply_fused_panel` must equal `apply_fused` on that
    /// lane alone, bit for bit.
    fn assert_panel_matches_single(k: &dyn WaveKernel, ctx: &KernelContext, lanes: usize) {
        let (p, p_l) = panel(ctx.n_p(), lanes, 11);
        let (u, u_l) = panel(ctx.n_u(), lanes, 12);
        let mut u_res = vec![0.0; ctx.n_u() * lanes];
        let mut p_res = vec![0.0; ctx.n_p() * lanes];
        k.apply_fused_panel(lanes, &p, &u, &mut u_res, &mut p_res);
        let (mut u_lane, mut p_lane) = (vec![0.0; ctx.n_u()], vec![0.0; ctx.n_p()]);
        for l in 0..lanes {
            let mut u1 = vec![0.0; ctx.n_u()];
            let mut p1 = vec![0.0; ctx.n_p()];
            k.apply_fused(&p_l[l], &u_l[l], &mut u1, &mut p1);
            read_lane(&u_res, lanes, l, &mut u_lane);
            read_lane(&p_res, lanes, l, &mut p_lane);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&u_lane),
                bits(&u1),
                "{} lane {l}/{lanes}: G p",
                k.name()
            );
            assert_eq!(
                bits(&p_lane),
                bits(&p1),
                "{} lane {l}/{lanes}: Gᵀ u",
                k.name()
            );
        }
    }

    #[test]
    fn default_panel_apply_is_bit_identical_per_lane() {
        let ctx = test_ctx(3);
        for v in [
            KernelVariant::FullAssembly,
            KernelVariant::InitialPa,
            KernelVariant::OptimizedPa,
            KernelVariant::MatrixFree,
        ] {
            assert_panel_matches_single(make_kernel(v, ctx.clone()).as_ref(), &ctx, 3);
        }
    }

    #[test]
    fn fused_panel_sweep_is_bit_identical_per_lane() {
        for order in [2, 3] {
            let ctx = test_ctx(order);
            let k = FusedPa::new(ctx.clone());
            for lanes in [1, 2, LANES - 1, LANES] {
                assert_panel_matches_single(&k, &ctx, lanes);
            }
        }
    }

    #[test]
    fn fused_panel_lanes_are_isolated() {
        // A NaN in lane 0 of both inputs must not reach any other lane.
        let ctx = test_ctx(3);
        let k = FusedPa::new(ctx.clone());
        let (mut p, _) = panel(ctx.n_p(), LANES, 21);
        let (mut u, _) = panel(ctx.n_u(), LANES, 22);
        let run = |p: &[f64], u: &[f64]| {
            let mut u_res = vec![0.0; ctx.n_u() * LANES];
            let mut p_res = vec![0.0; ctx.n_p() * LANES];
            k.apply_fused_panel(LANES, p, u, &mut u_res, &mut p_res);
            (u_res, p_res)
        };
        let (u_clean, p_clean) = run(&p, &u);
        for i in (0..ctx.n_p()).step_by(7) {
            p[i * LANES] = f64::NAN;
        }
        for i in (0..ctx.n_u()).step_by(5) {
            u[i * LANES] = f64::NAN;
        }
        let (u_dirty, p_dirty) = run(&p, &u);
        assert!(u_dirty.iter().step_by(LANES).any(|v| v.is_nan()));
        assert!(p_dirty.iter().step_by(LANES).any(|v| v.is_nan()));
        for (clean, dirty) in [(&u_clean, &u_dirty), (&p_clean, &p_dirty)] {
            for (i, (a, b)) in clean.iter().zip(dirty.iter()).enumerate() {
                if i % LANES != 0 {
                    assert_eq!(a.to_bits(), b.to_bits(), "NaN leaked into slot {i}");
                }
            }
        }
    }

    #[test]
    fn gradient_of_linear_pressure_is_exact() {
        // p(x) = 3x − 2y + z: G p at a GL point q must equal
        // w·detJ · (3, −2, 1) in each velocity slot.
        let ctx = test_ctx(3);
        let (gll, _) = gauss_lobatto_pair(ctx.h1.order + 1);
        let coords = ctx.h1.node_coords(&ctx.mesh, &gll);
        let p: Vec<f64> = coords
            .iter()
            .map(|c| 3.0 * c[0] - 2.0 * c[1] + c[2])
            .collect();
        let k = make_kernel(KernelVariant::OptimizedPa, ctx.clone());
        let mut u = vec![0.0; ctx.n_u()];
        k.apply_grad(&p, &mut u);
        let nq3 = ctx.nq3();
        let expect = [3.0, -2.0, 1.0];
        for e in 0..ctx.mesh.n_elems() {
            for q in 0..nq3 {
                let jw = ctx.geom.at(e, q)[9];
                for comp in 0..3 {
                    let got = u[ctx.u_offset(e, comp) + q];
                    assert!(
                        (got - jw * expect[comp]).abs() < 1e-9 * jw.abs().max(1.0),
                        "e={e} q={q} comp={comp}: {got} vs {}",
                        jw * expect[comp]
                    );
                }
            }
        }
    }

    fn gauss_lobatto_pair(n: usize) -> (Vec<f64>, Vec<f64>) {
        crate::quadrature::gauss_lobatto(n)
    }
}
