//! Discrete function spaces on the structured hex mesh.
//!
//! - [`H1Space`]: continuous order-`k` space on GLL nodes. On a structured
//!   mesh the global numbering is itself tensorial (`(nx·k+1)(ny·k+1)(nz·k+1)`
//!   nodes, x-fastest), so element→global dof maps are computed on the fly —
//!   zero index storage, one of the memory optimizations of §VII-B.
//! - [`L2Space`]: discontinuous order-`k−1` space collocated at GL points,
//!   `n_elems · k³` dofs per component, element-major layout.

use tsunami_mesh::HexMesh;

/// Continuous (H1-conforming) scalar space of order `order` (GLL nodes).
#[derive(Clone, Debug)]
pub struct H1Space {
    /// Polynomial order `k` (paper: 4).
    pub order: usize,
    /// Elements in x, y, z.
    pub nx: usize,
    /// Elements in y.
    pub ny: usize,
    /// Elements in z.
    pub nz: usize,
}

impl H1Space {
    /// Build over a mesh.
    pub fn new(mesh: &HexMesh, order: usize) -> Self {
        assert!(order >= 1);
        H1Space {
            order,
            nx: mesh.nx,
            ny: mesh.ny,
            nz: mesh.nz,
        }
    }

    /// Global nodes per direction.
    #[inline]
    pub fn nodes_x(&self) -> usize {
        self.nx * self.order + 1
    }
    /// Global nodes in y.
    #[inline]
    pub fn nodes_y(&self) -> usize {
        self.ny * self.order + 1
    }
    /// Global nodes in z.
    #[inline]
    pub fn nodes_z(&self) -> usize {
        self.nz * self.order + 1
    }

    /// Total dof count.
    pub fn n_dofs(&self) -> usize {
        self.nodes_x() * self.nodes_y() * self.nodes_z()
    }

    /// Global dof id of node `(gi, gj, gk)`.
    #[inline]
    pub fn node_id(&self, gi: usize, gj: usize, gk: usize) -> usize {
        (gk * self.nodes_y() + gj) * self.nodes_x() + gi
    }

    /// Global dof of local node `(a, b, c)` in element `(i, j, k)`.
    #[inline]
    pub fn elem_dof(&self, i: usize, j: usize, k: usize, a: usize, b: usize, c: usize) -> usize {
        self.node_id(i * self.order + a, j * self.order + b, k * self.order + c)
    }

    /// Gather element-local dofs (tensor order, x fastest) into `out`.
    ///
    /// Works on lane-minor panels of any width: with `out` holding
    /// `lanes·(order+1)³` entries, `global` is read as `lanes` interleaved
    /// fields (entry `dof·lanes + l`) and `out` is filled the same way.
    pub fn gather(&self, i: usize, j: usize, k: usize, global: &[f64], out: &mut [f64]) {
        let p1 = self.order + 1;
        let lanes = out.len() / (p1 * p1 * p1);
        debug_assert_eq!(out.len(), lanes * p1 * p1 * p1);
        let run = p1 * lanes;
        let mut idx = 0;
        for row in self.elem_rows(i, j, k) {
            out[idx..idx + run].copy_from_slice(&global[row * lanes..row * lanes + run]);
            idx += run;
        }
    }

    /// Scatter-add element-local values into the global vector (lane-minor
    /// panels as in [`Self::gather`]). Caller must guarantee exclusive
    /// access to the touched rows (the kernels use 8-coloring of the
    /// element grid for this).
    pub fn scatter_add(&self, i: usize, j: usize, k: usize, local: &[f64], global: &mut [f64]) {
        let p1 = self.order + 1;
        let lanes = local.len() / (p1 * p1 * p1);
        debug_assert_eq!(local.len(), lanes * p1 * p1 * p1);
        let run = p1 * lanes;
        let mut idx = 0;
        for row in self.elem_rows(i, j, k) {
            let g = &mut global[row * lanes..row * lanes + run];
            for a in 0..run {
                g[a] += local[idx + a];
            }
            idx += run;
        }
    }

    /// First global dof of each x-run of element `(i, j, k)`, in the
    /// element's tensor order (`(order+1)²` runs of `order+1` dofs).
    fn elem_rows(&self, i: usize, j: usize, k: usize) -> impl Iterator<Item = usize> {
        let p1 = self.order + 1;
        let (sx, sy) = (self.nodes_x(), self.nodes_y());
        let (base_i, base_j, base_k) = (i * self.order, j * self.order, k * self.order);
        (0..p1)
            .flat_map(move |c| (0..p1).map(move |b| ((base_k + c) * sy + base_j + b) * sx + base_i))
    }

    /// Physical coordinates of every global node on a terrain-following
    /// mesh, using the element trilinear maps and GLL reference nodes.
    pub fn node_coords(&self, mesh: &HexMesh, gll_nodes: &[f64]) -> Vec<[f64; 3]> {
        assert_eq!(gll_nodes.len(), self.order + 1);
        let mut coords = vec![[0.0; 3]; self.n_dofs()];
        for k in 0..self.nz {
            for j in 0..self.ny {
                for i in 0..self.nx {
                    let e = mesh.elem_id(i, j, k);
                    for c in 0..=self.order {
                        for b in 0..=self.order {
                            for a in 0..=self.order {
                                let gid = self.elem_dof(i, j, k, a, b, c);
                                coords[gid] =
                                    mesh.map_point(e, gll_nodes[a], gll_nodes[b], gll_nodes[c]);
                            }
                        }
                    }
                }
            }
        }
        coords
    }
}

/// Discontinuous (L2) scalar space of order `order` at GL collocation
/// points, element-major (`dof = e·q³ + (qz·q + qy)·q + qx` with
/// `q = order+1` points per direction).
#[derive(Clone, Debug)]
pub struct L2Space {
    /// Polynomial order (paper: 3 for velocity components).
    pub order: usize,
    /// Number of mesh elements.
    pub n_elems: usize,
}

impl L2Space {
    /// Build over a mesh.
    pub fn new(mesh: &HexMesh, order: usize) -> Self {
        L2Space {
            order,
            n_elems: mesh.n_elems(),
        }
    }

    /// Collocation points per direction.
    #[inline]
    pub fn pts_1d(&self) -> usize {
        self.order + 1
    }

    /// Dofs per element (scalar).
    #[inline]
    pub fn dofs_per_elem(&self) -> usize {
        let q = self.pts_1d();
        q * q * q
    }

    /// Total dofs (scalar component).
    pub fn n_dofs(&self) -> usize {
        self.n_elems * self.dofs_per_elem()
    }

    /// Base offset of element `e`.
    #[inline]
    pub fn elem_offset(&self, e: usize) -> usize {
        e * self.dofs_per_elem()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quadrature::gauss_lobatto;
    use tsunami_mesh::{FlatBathymetry, HexMesh};

    fn mesh() -> HexMesh {
        HexMesh::terrain_following(3, 2, 2, 3000.0, 2000.0, &FlatBathymetry { depth: 1000.0 })
    }

    #[test]
    fn h1_dof_counts() {
        let m = mesh();
        let s = H1Space::new(&m, 4);
        assert_eq!(s.n_dofs(), 13 * 9 * 9);
    }

    #[test]
    fn shared_face_nodes_have_same_dof() {
        let m = mesh();
        let s = H1Space::new(&m, 3);
        // Right face of element (0,0,0) == left face of element (1,0,0).
        for c in 0..=3 {
            for b in 0..=3 {
                assert_eq!(s.elem_dof(0, 0, 0, 3, b, c), s.elem_dof(1, 0, 0, 0, b, c));
            }
        }
    }

    #[test]
    fn gather_scatter_roundtrip() {
        let m = mesh();
        let s = H1Space::new(&m, 2);
        let global: Vec<f64> = (0..s.n_dofs()).map(|i| i as f64).collect();
        let mut local = vec![0.0; 27];
        s.gather(1, 1, 0, &global, &mut local);
        let mut acc = vec![0.0; s.n_dofs()];
        s.scatter_add(1, 1, 0, &local, &mut acc);
        // Every touched dof must hold exactly its global value, others 0.
        for (g, (&got, &want)) in acc.iter().zip(&global).enumerate() {
            if got != 0.0 || want == 0.0 {
                assert!(got == want || got == 0.0, "dof {g}: {got} vs {want}");
            }
        }
        // Element count of touched dofs is 27.
        let touched = acc.iter().filter(|&&v| v != 0.0).count();
        // dof 0 holds value 0 so can't be distinguished; tolerate ±1.
        assert!((26..=27).contains(&touched));
    }

    #[test]
    fn node_coords_surface_at_zero() {
        let m = mesh();
        let s = H1Space::new(&m, 3);
        let (gll, _) = gauss_lobatto(4);
        let coords = s.node_coords(&m, &gll);
        // All top-layer nodes at z = 0.
        let gk = s.nodes_z() - 1;
        for gj in 0..s.nodes_y() {
            for gi in 0..s.nodes_x() {
                let c = coords[s.node_id(gi, gj, gk)];
                assert!(c[2].abs() < 1e-9);
            }
        }
    }

    #[test]
    fn l2_layout() {
        let m = mesh();
        let s = L2Space::new(&m, 3);
        assert_eq!(s.dofs_per_elem(), 64);
        assert_eq!(s.n_dofs(), 12 * 64);
        assert_eq!(s.elem_offset(2), 128);
    }
}
