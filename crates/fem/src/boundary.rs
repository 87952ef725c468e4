//! Boundary operators of the acoustic–gravity system (all diagonal).
//!
//! With GLL (spectral-element) face quadrature, every boundary bilinear form
//! in eq. (1)/(4) lumps to a diagonal on the pressure face nodes:
//!
//! - `⟨(ρg)⁻¹ p, v⟩_∂Ωs` — free-surface gravity term inside the mass `M`,
//! - `⟨Z⁻¹ p, v⟩_∂Ωa` — absorbing impedance term inside `A`,
//! - `⟨m, v⟩_∂Ωb` — the **parameter forcing**: the seafloor velocity enters
//!   the discrete system through this surface mass, and its transpose
//!   extracts the adjoint trace that builds the p2o map rows.

use crate::quadrature::gauss_lobatto;
use crate::spaces::H1Space;
use tsunami_mesh::{BoundaryTag, HexMesh};

/// Assembled boundary mass: sorted global node ids with accumulated GLL
/// face weights `w·dA`.
#[derive(Clone, Debug)]
pub struct SurfaceMass {
    /// Global pressure dofs on the boundary part, ascending.
    pub nodes: Vec<usize>,
    /// Accumulated quadrature weight × area element per node.
    pub weights: Vec<f64>,
    /// Physical coordinates of each node (for parameter interpolation and
    /// sensor placement).
    pub coords: Vec<[f64; 3]>,
}

impl SurfaceMass {
    /// Assemble the boundary mass on all faces with the given tag.
    pub fn assemble(mesh: &HexMesh, h1: &H1Space, tag: BoundaryTag) -> Self {
        let order = h1.order;
        let np1 = order + 1;
        let (gll, wgll) = gauss_lobatto(np1);
        let mut acc: std::collections::HashMap<usize, f64> = std::collections::HashMap::new();
        for face in mesh.faces_with_tag(tag) {
            let (i, j, k) = mesh.elem_ijk(face.elem);
            // Face-local axes: (s, t) reference directions and the fixed one.
            for t2 in 0..np1 {
                for t1 in 0..np1 {
                    // Reference coordinates and local (a,b,c) of this face node.
                    let (xi, eta, zeta, a, b, c, tans) = match face.local_face {
                        0 => (-1.0, gll[t1], gll[t2], 0, t1, t2, (1usize, 2usize)),
                        1 => (1.0, gll[t1], gll[t2], order, t1, t2, (1, 2)),
                        2 => (gll[t1], -1.0, gll[t2], t1, 0, t2, (0, 2)),
                        3 => (gll[t1], 1.0, gll[t2], t1, order, t2, (0, 2)),
                        4 => (gll[t1], gll[t2], -1.0, t1, t2, 0, (0, 1)),
                        5 => (gll[t1], gll[t2], 1.0, t1, t2, order, (0, 1)),
                        _ => unreachable!("invalid local face"),
                    };
                    let jac = mesh.jacobian(face.elem, xi, eta, zeta);
                    // Tangents are the Jacobian columns of the in-face dirs.
                    let tv1 = [jac[0][tans.0], jac[1][tans.0], jac[2][tans.0]];
                    let tv2 = [jac[0][tans.1], jac[1][tans.1], jac[2][tans.1]];
                    let cx = tv1[1] * tv2[2] - tv1[2] * tv2[1];
                    let cy = tv1[2] * tv2[0] - tv1[0] * tv2[2];
                    let cz = tv1[0] * tv2[1] - tv1[1] * tv2[0];
                    let da = (cx * cx + cy * cy + cz * cz).sqrt();
                    let w = wgll[t1] * wgll[t2] * da;
                    let dof = h1.elem_dof(i, j, k, a, b, c);
                    *acc.entry(dof).or_insert(0.0) += w;
                }
            }
        }
        let mut nodes: Vec<usize> = acc.keys().copied().collect();
        nodes.sort_unstable();
        let weights: Vec<f64> = nodes.iter().map(|n| acc[n]).collect();
        // Recover coordinates from the element map (cheap second pass).
        let coords_all = h1.node_coords(mesh, &gll);
        let coords = nodes.iter().map(|&n| coords_all[n]).collect();
        SurfaceMass {
            nodes,
            weights,
            coords,
        }
    }

    /// Number of boundary nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the boundary part is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Total measure (area) of the boundary part: `Σ w`.
    pub fn total_area(&self) -> f64 {
        self.weights.iter().sum()
    }

    /// Diagonal action on a lane-minor panel of `lanes` *global* pressure
    /// vectors (entry `node·lanes + l`):
    /// `out[node] += alpha · w[node] · p[node]` in every lane.
    pub fn add_scaled_diag(&self, alpha: f64, lanes: usize, p: &[f64], out: &mut [f64]) {
        for (&n, &w) in self.nodes.iter().zip(&self.weights) {
            let aw = alpha * w;
            let rows = n * lanes..(n + 1) * lanes;
            for (o, &pv) in out[rows.clone()].iter_mut().zip(&p[rows]) {
                *o += aw * pv;
            }
        }
    }

    /// Source action: scatter *boundary-indexed* values `m` (one per node in
    /// `self.nodes` order, lane-minor panel of `lanes`) into the global
    /// residual panel: `out[node] += α w m_i` in every lane.
    pub fn add_source(&self, alpha: f64, lanes: usize, m: &[f64], out: &mut [f64]) {
        assert_eq!(m.len(), self.len() * lanes);
        for ((&n, &w), ms) in self
            .nodes
            .iter()
            .zip(&self.weights)
            .zip(m.chunks_exact(lanes))
        {
            let aw = alpha * w;
            for (o, &mv) in out[n * lanes..(n + 1) * lanes].iter_mut().zip(ms) {
                *o += aw * mv;
            }
        }
    }

    /// Transpose of [`Self::add_source`]: extract the weighted trace,
    /// `out_i = α w p[node_i]` (overwrites).
    pub fn extract_trace(&self, alpha: f64, p: &[f64], out: &mut [f64]) {
        assert_eq!(out.len(), self.len());
        for ((o, &n), &w) in out.iter_mut().zip(&self.nodes).zip(&self.weights) {
            *o = alpha * w * p[n];
        }
    }

    /// Plain (unweighted) trace of the global vector at the boundary nodes.
    pub fn trace(&self, p: &[f64], out: &mut [f64]) {
        assert_eq!(out.len(), self.len());
        for (o, &n) in out.iter_mut().zip(&self.nodes) {
            *o = p[n];
        }
    }

    /// Integral of the trace against the boundary measure: `Σ w·p[node]`.
    pub fn integrate(&self, p: &[f64]) -> f64 {
        self.nodes
            .iter()
            .zip(&self.weights)
            .map(|(&n, &w)| w * p[n])
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsunami_mesh::{Bathymetry, CascadiaBathymetry, FlatBathymetry};

    #[test]
    fn flat_surface_area_exact() {
        let mesh =
            HexMesh::terrain_following(4, 3, 2, 4000.0, 3000.0, &FlatBathymetry { depth: 1000.0 });
        let h1 = H1Space::new(&mesh, 3);
        let sm = SurfaceMass::assemble(&mesh, &h1, BoundaryTag::Surface);
        assert!((sm.total_area() - 4000.0 * 3000.0).abs() < 1e-6 * 4000.0 * 3000.0);
        // Surface nodes: (nx·k+1)(ny·k+1).
        assert_eq!(sm.len(), 13 * 10);
    }

    #[test]
    fn bottom_area_exceeds_footprint_with_terrain() {
        // A sloped seafloor has more area than its horizontal projection.
        let bath = CascadiaBathymetry::standard(50e3, 80e3);
        let mesh = HexMesh::terrain_following(8, 10, 2, 50e3, 80e3, &bath);
        let h1 = H1Space::new(&mesh, 2);
        let sm = SurfaceMass::assemble(&mesh, &h1, BoundaryTag::Bottom);
        assert!(sm.total_area() > 50e3 * 80e3 * 0.999);
    }

    #[test]
    fn integrate_constant_equals_area() {
        let mesh =
            HexMesh::terrain_following(3, 3, 2, 3000.0, 3000.0, &FlatBathymetry { depth: 600.0 });
        let h1 = H1Space::new(&mesh, 4);
        let sm = SurfaceMass::assemble(&mesh, &h1, BoundaryTag::Surface);
        let ones = vec![1.0; h1.n_dofs()];
        assert!((sm.integrate(&ones) - sm.total_area()).abs() < 1e-9 * sm.total_area());
    }

    #[test]
    fn source_and_trace_are_adjoint() {
        let mesh =
            HexMesh::terrain_following(3, 2, 2, 3000.0, 2000.0, &FlatBathymetry { depth: 500.0 });
        let h1 = H1Space::new(&mesh, 3);
        let sm = SurfaceMass::assemble(&mesh, &h1, BoundaryTag::Bottom);
        let m: Vec<f64> = (0..sm.len()).map(|i| (i as f64 * 0.3).sin()).collect();
        let p: Vec<f64> = (0..h1.n_dofs()).map(|i| (i as f64 * 0.17).cos()).collect();
        let mut bm = vec![0.0; h1.n_dofs()];
        sm.add_source(1.0, 1, &m, &mut bm);
        let lhs: f64 = bm.iter().zip(&p).map(|(a, b)| a * b).sum();
        let mut tr = vec![0.0; sm.len()];
        sm.extract_trace(1.0, &p, &mut tr);
        let rhs: f64 = tr.iter().zip(&m).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-12 * lhs.abs().max(1.0));
    }

    #[test]
    fn absorbing_covers_four_sides() {
        let mesh =
            HexMesh::terrain_following(3, 4, 2, 3000.0, 4000.0, &FlatBathymetry { depth: 500.0 });
        let h1 = H1Space::new(&mesh, 2);
        let sm = SurfaceMass::assemble(&mesh, &h1, BoundaryTag::Absorbing);
        // Lateral area = perimeter × depth.
        let expect = 2.0 * (3000.0 + 4000.0) * 500.0;
        assert!((sm.total_area() - expect).abs() < 1e-6 * expect);
        // Every absorbing node coordinate sits on a lateral wall.
        for c in &sm.coords {
            let on_wall = c[0].abs() < 1e-6
                || (c[0] - 3000.0).abs() < 1e-6
                || c[1].abs() < 1e-6
                || (c[1] - 4000.0).abs() < 1e-6;
            assert!(on_wall, "node off-wall: {c:?}");
        }
    }

    #[test]
    fn bottom_node_coords_on_seafloor() {
        let bath = CascadiaBathymetry::standard(40e3, 40e3);
        let mesh = HexMesh::terrain_following(4, 4, 2, 40e3, 40e3, &bath);
        let h1 = H1Space::new(&mesh, 2);
        let sm = SurfaceMass::assemble(&mesh, &h1, BoundaryTag::Bottom);
        // Bottom nodes live on the *bilinear* bottom faces, so each z must
        // lie within the depth range of the owning element's corner depths.
        let hx = 40e3 / 4.0;
        for c in &sm.coords {
            let i = ((c[0] / hx).floor() as usize).min(3);
            let j = ((c[1] / hx).floor() as usize).min(3);
            let corners = [
                bath.depth(i as f64 * hx, j as f64 * hx),
                bath.depth((i + 1) as f64 * hx, j as f64 * hx),
                bath.depth(i as f64 * hx, (j + 1) as f64 * hx),
                bath.depth((i + 1) as f64 * hx, (j + 1) as f64 * hx),
            ];
            let dmin = corners.iter().cloned().fold(f64::INFINITY, f64::min);
            let dmax = corners.iter().cloned().fold(0.0f64, f64::max);
            assert!(
                -c[2] >= dmin - 1e-6 && -c[2] <= dmax + 1e-6,
                "bottom node off the bilinear face: {c:?}, corners {corners:?}"
            );
        }
    }
}
