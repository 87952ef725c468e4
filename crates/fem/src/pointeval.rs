//! Point evaluation of the pressure field — the observation operator core.
//!
//! A seafloor pressure sensor at `x_s` reads `p(x_s, t)`: one sparse row
//! over the element-local pressure dofs (tensor-product Lagrange values at
//! the reference coordinates of `x_s`). Its transpose scatters an adjoint
//! point source — exactly the RHS of the paper's Phase 1 adjoint solves.

use crate::basis1d::{barycentric_weights, eval_lagrange_all};
use crate::quadrature::gauss_lobatto;
use crate::spaces::H1Space;
use tsunami_mesh::HexMesh;

/// Sparse evaluation functional `p ↦ p(x)` for a fixed physical point.
#[derive(Clone, Debug)]
pub struct PointEvaluator {
    /// `(global dof, coefficient)` pairs.
    pub entries: Vec<(usize, f64)>,
    /// The physical point.
    pub point: [f64; 3],
}

impl PointEvaluator {
    /// Build for a point inside the mesh; `None` if outside.
    pub fn new(mesh: &HexMesh, h1: &H1Space, x: f64, y: f64, z: f64) -> Option<Self> {
        let (e, r) = mesh.locate_point(x, y, z)?;
        let order = h1.order;
        let (gll, _) = gauss_lobatto(order + 1);
        let w = barycentric_weights(&gll);
        let (lx, _) = eval_lagrange_all(&gll, &w, r[0]);
        let (ly, _) = eval_lagrange_all(&gll, &w, r[1]);
        let (lz, _) = eval_lagrange_all(&gll, &w, r[2]);
        let (i, j, k) = mesh.elem_ijk(e);
        let mut entries = Vec::with_capacity((order + 1).pow(3));
        for c in 0..=order {
            for b in 0..=order {
                for a in 0..=order {
                    let coeff = lx[a] * ly[b] * lz[c];
                    if coeff.abs() > 1e-300 {
                        entries.push((h1.elem_dof(i, j, k, a, b, c), coeff));
                    }
                }
            }
        }
        Some(PointEvaluator {
            entries,
            point: [x, y, z],
        })
    }

    /// Evaluate: `p(x) = Σ coeff · p[dof]`.
    pub fn eval(&self, p: &[f64]) -> f64 {
        self.eval_lane(p, 1, 0)
    }

    /// [`Self::eval`] on lane `lane` of a lane-minor panel of `lanes`
    /// fields (entry `dof·lanes + lane`).
    pub fn eval_lane(&self, p: &[f64], lanes: usize, lane: usize) -> f64 {
        self.entries
            .iter()
            .map(|&(d, c)| c * p[d * lanes + lane])
            .sum()
    }

    /// Transpose action: `out[dof] += alpha · coeff` (adjoint point source).
    pub fn scatter(&self, alpha: f64, out: &mut [f64]) {
        self.scatter_lane(alpha, out, 1, 0);
    }

    /// [`Self::scatter`] into lane `lane` of a lane-minor panel of `lanes`
    /// fields.
    pub fn scatter_lane(&self, alpha: f64, out: &mut [f64], lanes: usize, lane: usize) {
        for &(d, c) in &self.entries {
            out[d * lanes + lane] += alpha * c;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsunami_mesh::{Bathymetry, CascadiaBathymetry, FlatBathymetry};

    #[test]
    fn reproduces_polynomial_field() {
        // Order-3 space represents x·y + z² exactly? z² yes (order ≥ 2),
        // cross terms yes. Evaluate at an interior point.
        let mesh =
            HexMesh::terrain_following(3, 3, 2, 3000.0, 3000.0, &FlatBathymetry { depth: 600.0 });
        let h1 = H1Space::new(&mesh, 3);
        let (gll, _) = gauss_lobatto(4);
        let coords = h1.node_coords(&mesh, &gll);
        let f = |c: &[f64; 3]| c[0] * c[1] * 1e-6 + c[2] * c[2] * 1e-6 - c[0] * 2e-4;
        let p: Vec<f64> = coords.iter().map(f).collect();
        let pe = PointEvaluator::new(&mesh, &h1, 1717.0, 911.0, -123.0).unwrap();
        let got = pe.eval(&p);
        let want = f(&[1717.0, 911.0, -123.0]);
        assert!(
            (got - want).abs() < 1e-9 * want.abs().max(1.0),
            "{got} vs {want}"
        );
    }

    #[test]
    fn partition_of_unity_weights() {
        let mesh =
            HexMesh::terrain_following(2, 2, 2, 2000.0, 2000.0, &FlatBathymetry { depth: 400.0 });
        let h1 = H1Space::new(&mesh, 4);
        let pe = PointEvaluator::new(&mesh, &h1, 777.0, 333.0, -111.0).unwrap();
        let s: f64 = pe.entries.iter().map(|&(_, c)| c).sum();
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn eval_scatter_adjoint() {
        let mesh =
            HexMesh::terrain_following(2, 2, 1, 2000.0, 2000.0, &FlatBathymetry { depth: 300.0 });
        let h1 = H1Space::new(&mesh, 2);
        let pe = PointEvaluator::new(&mesh, &h1, 500.0, 1500.0, -150.0).unwrap();
        let p: Vec<f64> = (0..h1.n_dofs()).map(|i| (i as f64 * 0.21).sin()).collect();
        let alpha = 2.5;
        let mut src = vec![0.0; h1.n_dofs()];
        pe.scatter(alpha, &mut src);
        let lhs: f64 = src.iter().zip(&p).map(|(a, b)| a * b).sum();
        let rhs = alpha * pe.eval(&p);
        assert!((lhs - rhs).abs() < 1e-12 * rhs.abs().max(1.0));
    }

    #[test]
    fn sensor_on_terrain_seafloor() {
        let bath = CascadiaBathymetry::standard(100e3, 100e3);
        let mesh = HexMesh::terrain_following(8, 8, 3, 100e3, 100e3, &bath);
        let h1 = H1Space::new(&mesh, 3);
        let (x, y) = (37e3, 61e3);
        // Place "on the seafloor" slightly inside the water column.
        let z = -bath.depth(x, y) * 0.995;
        let pe = PointEvaluator::new(&mesh, &h1, x, y, z);
        assert!(pe.is_some(), "seafloor sensor must be locatable");
    }

    #[test]
    fn outside_point_is_none() {
        let mesh =
            HexMesh::terrain_following(2, 2, 1, 2000.0, 2000.0, &FlatBathymetry { depth: 300.0 });
        let h1 = H1Space::new(&mesh, 2);
        assert!(PointEvaluator::new(&mesh, &h1, -5.0, 0.0, -10.0).is_none());
    }
}
