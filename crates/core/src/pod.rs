//! POD (low-rank) compression of a scenario bank: mode-space scenario
//! identification at a fraction of the exact GEMM's cost.
//!
//! Identification scores a live stream `d` against every scenario's clean
//! curve `c_j` via the squared misfit `‖d − c_j‖²` over the arrived rows.
//! The exact path streams the full `(Nd·Nt) × B` clean block; for banks
//! of 10⁴⁺ scenarios that block is the scaling wall. Following the
//! Fujita/Nomura ROM approach (arXiv:2407.03631), a [`PodBank`] holds a
//! rank-`r` POD basis `U` of the clean block `C` (its leading left
//! singular vectors) plus the mode-space coefficients `W = UᵀC`
//! (`r × B`). Expanding the misfit and substituting `C ≈ U·W` row-wise:
//!
//! ```text
//!   ‖d − c_j‖²  =  ‖d‖²  −  2 dᵀc_j  +  ‖c_j‖²
//!              ≈  ‖d‖²  −  2 (Uᵀd)ᵀ w_j  +  ‖c_j‖²,
//! ```
//!
//! so the only bank-width work left is the `r × B` product against the
//! running projection `a = Uᵀd` — `r ≪ Nd·Nt` means orders of magnitude
//! fewer flops per tick. The low-rank substitution holds restricted to
//! *any* row subset (each row `i` satisfies `C[i,·] ≈ U[i,·]·W`
//! independently), which is what lets a partially observed stream be
//! scored in mode space; `‖d‖²` accumulates as samples arrive and
//! `‖c_j‖²` comes exactly from the clean-energy prefix sums the exact
//! path already precomputes. The per-scenario residual energies
//! `‖c_j − U w_j‖²` bound the approximation error
//! (`|mis_pod − mis_exact| ≤ 2‖d‖·‖c_j − U w_j‖`).

use tsunami_linalg::svd::{energy_rank, randomized_svd, SvdOptions};
use tsunami_linalg::DMatrix;

/// A POD-compressed scenario bank: left modes, mode-space coefficients,
/// and per-scenario residual energies. Built by
/// [`crate::ScenarioBank::compress`].
pub struct PodBank {
    /// Left POD modes `U`, `(Nd·Nt) × r`, orthonormal columns.
    u: DMatrix,
    /// Mode-space coefficient block `W = Uᵀ·C`, `r × B` (scenario per
    /// column).
    coeffs: DMatrix,
    /// Singular values of the clean block, descending, length `r`.
    singular_values: Vec<f64>,
    /// Per-scenario residual energy `‖c_j − U w_j‖²` — the squared
    /// truncation error of scenario `j`'s clean curve.
    residual_energy: Vec<f64>,
    /// Total squared Frobenius energy of the clean block `‖C‖²_F`.
    total_energy: f64,
}

impl PodBank {
    /// Compress a clean observation block (`(Nd·Nt) × B`) to `rank`
    /// modes. The effective rank is `min(rank, Nd·Nt, B)`, possibly less
    /// if the block is numerically rank-deficient.
    pub fn from_clean_block(clean: &DMatrix, rank: usize) -> Self {
        let svd = randomized_svd(clean, rank, SvdOptions::default());
        let coeffs = svd.u.matmul_tn(clean);
        let residual_energy: Vec<f64> = (0..clean.ncols())
            .map(|j| {
                let full: f64 = (0..clean.nrows())
                    .map(|i| clean[(i, j)] * clean[(i, j)])
                    .sum();
                let modal: f64 = (0..coeffs.nrows())
                    .map(|k| coeffs[(k, j)] * coeffs[(k, j)])
                    .sum();
                (full - modal).max(0.0)
            })
            .collect();
        let total_energy = clean.norm_fro().powi(2);
        PodBank {
            u: svd.u,
            coeffs,
            singular_values: svd.s,
            residual_energy,
            total_energy,
        }
    }

    /// Number of retained modes `r`.
    pub fn rank(&self) -> usize {
        self.singular_values.len()
    }

    /// Number of scenarios `B`.
    pub fn len(&self) -> usize {
        self.coeffs.ncols()
    }

    /// True if the bank holds no scenarios.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The left POD modes `U`, `(Nd·Nt) × r` (orthonormal columns,
    /// row-major so row `i` is the `r`-vector every sample `i` projects
    /// through).
    pub fn modes(&self) -> &DMatrix {
        &self.u
    }

    /// The mode-space coefficient block `W = UᵀC`, `r × B`.
    pub fn mode_coeffs(&self) -> &DMatrix {
        &self.coeffs
    }

    /// Singular values of the clean block, descending.
    pub fn singular_values(&self) -> &[f64] {
        &self.singular_values
    }

    /// Per-scenario residual energies `‖c_j − U w_j‖²`.
    pub fn residual_energy(&self) -> &[f64] {
        &self.residual_energy
    }

    /// Fraction of the clean block's squared Frobenius energy captured by
    /// the retained modes, in `[0, 1]`.
    pub fn captured_energy(&self) -> f64 {
        if self.total_energy <= 0.0 {
            return 1.0;
        }
        let kept: f64 = self.singular_values.iter().map(|s| s * s).sum();
        (kept / self.total_energy).min(1.0)
    }

    /// The smallest rank capturing at least `frac` of the block's energy
    /// *within this basis* (use it to re-cut an over-provisioned
    /// compression without re-running the SVD).
    pub fn rank_for_energy(&self, frac: f64) -> usize {
        energy_rank(&self.singular_values, frac)
    }

    /// Project a full data prefix onto the modes: `a = U[0..k,·]ᵀ d`
    /// (`d.len() = k ≤ Nd·Nt`). One-shot convenience; the streaming
    /// engine updates the projection incrementally per drained row range
    /// instead (`project_group` in the stream crate's `identify` module).
    pub fn project_prefix(&self, d: &[f64]) -> Vec<f64> {
        assert!(d.len() <= self.u.nrows(), "project: more samples than rows");
        let r = self.rank();
        let mut a = vec![0.0; r];
        for (i, &di) in d.iter().enumerate() {
            for (ak, &uik) in a.iter_mut().zip(self.u.row(i)) {
                *ak += di * uik;
            }
        }
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bank::ScenarioBank;
    use crate::config::TwinConfig;

    fn toy_bank(rows: usize, b: usize) -> ScenarioBank {
        // Smooth trig curves (low-rank-ish) plus a per-entry hashed
        // perturbation so the block is numerically full rank.
        let clean = DMatrix::from_fn(rows, b, |i, j| {
            let h =
                (i as u64 * 0x9E37_79B9 + j as u64 * 0x85EB_CA6B).wrapping_mul(6364136223846793005);
            let noise = ((h >> 11) as f64 / (1u64 << 53) as f64) - 0.5;
            ((i * 5 + 2 * j) as f64 * 0.17).sin()
                + 0.3 * ((i + 7 * j) as f64 * 0.05).cos()
                + 0.05 * noise
        });
        ScenarioBank::synthetic(clean.clone(), clean, 0.05)
    }

    #[test]
    fn full_rank_compression_is_exact() {
        let bank = toy_bank(40, 6);
        let pod = bank.compress(6);
        assert_eq!(pod.rank(), 6);
        assert_eq!(pod.len(), 6);
        assert!(pod.captured_energy() > 1.0 - 1e-12);
        for (j, &res) in pod.residual_energy().iter().enumerate() {
            assert!(res < 1e-10, "scenario {j} residual {res} should vanish");
        }
        // U·W reconstructs the clean block.
        let rec = pod.modes().matmul(pod.mode_coeffs());
        let mut diff = rec;
        diff.add_scaled(-1.0, bank.clean_observations());
        assert!(diff.norm_fro() < 1e-9 * bank.clean_observations().norm_fro());
    }

    #[test]
    fn truncated_compression_tracks_residuals() {
        let bank = toy_bank(64, 12);
        let pod = bank.compress(3);
        assert_eq!(pod.rank(), 3);
        // Reconstruction error per scenario equals the residual energy.
        let rec = pod.modes().matmul(pod.mode_coeffs());
        for j in 0..bank.len() {
            let err: f64 = (0..64)
                .map(|i| {
                    let e = rec[(i, j)] - bank.clean_observations()[(i, j)];
                    e * e
                })
                .sum();
            let res = pod.residual_energy()[j];
            assert!(
                (err - res).abs() < 1e-8 * res.max(1e-8),
                "scenario {j}: reconstruction {err} vs residual {res}"
            );
        }
        // Captured + residual energies account for the whole block.
        let res_sum: f64 = pod.residual_energy().iter().sum();
        let total = bank.clean_observations().norm_fro().powi(2);
        let kept = pod.captured_energy() * total;
        assert!((kept + res_sum - total).abs() < 1e-6 * total);
    }

    #[test]
    fn projection_of_a_scenario_recovers_its_coefficients() {
        let bank = toy_bank(48, 8);
        let pod = bank.compress(8);
        let d = bank.clean_observations().col(3);
        let a = pod.project_prefix(&d);
        for k in 0..pod.rank() {
            assert!(
                (a[k] - pod.mode_coeffs()[(k, 3)]).abs() < 1e-9,
                "mode {k} projection drift"
            );
        }
    }

    #[test]
    fn energy_rank_cut_on_generated_bank() {
        let cfg = TwinConfig::tiny();
        let solver = cfg.build_solver();
        let specs = ScenarioBank::family(&cfg, 6, 9);
        let bank = ScenarioBank::generate(&cfg, &solver, &specs);
        let pod = bank.compress(6);
        // Physical wavefields from a smooth family are strongly
        // low-rank: a fraction of the modes carries 99% of the energy.
        let r99 = pod.rank_for_energy(0.99);
        assert!(r99 <= pod.rank());
        assert!(pod.captured_energy() > 0.99);
        assert!(
            pod.singular_values().windows(2).all(|w| w[0] >= w[1]),
            "singular values not descending"
        );
    }
}
