//! Goal-oriented per-rung QoI operators: the offline half of the
//! offline/online split (arXiv:2501.14911).
//!
//! The windowed online path still pays a leading-block Cholesky solve
//! per assimilation panel. But the QoI posterior is *linear in the
//! data*: for every window rung `w` the mean is `q = T_w d_w` with
//! `T_w = B_w K_w⁻¹` a fixed `Nq·Nt × w·Nd` matrix, and the posterior
//! std is data-independent. Precomputing `T_w` offline turns a
//! streaming tick into a handful of small GEMMs — no factor walk at
//! all. Compressing each `T_w ≈ L_w R_wᵀ` with the randomized SVD
//! shrinks the resident working set per rung from `Nq·Nt × w·Nd` to
//! `r · (Nq·Nt + w·Nd)` and the online cost per stream to `r`-sized
//! folds, with an exactly computed Frobenius truncation bound
//! ([`Rung::trunc_bound`]) certifying every forecast against the
//! dense operator: `‖q̂ − q‖₂ ≤ bound · ‖d_w‖₂`.
//!
//! Online, a stream never re-reads its window: arriving samples fold
//! into a per-rung running state `z += R_wᵀ d` (rank-sized), and a rung
//! crossing materializes all queued streams' QoI means as one
//! `L_w · Z` GEMM ([`tsunami_linalg::FactoredMap`]). The exact
//! (uncompressed) ladder keeps `R = I` implicit, so its online products
//! are *bitwise identical* to [`WindowedForecaster::forecast_batch`] —
//! the oracle the truncated ranks are validated against.
//!
//! The ladder type itself is the shared [`RungLadder`] of
//! [`crate::ladder`]; this module is the SVD-compression way of building
//! one.

use crate::ladder::{rung_svd, Rung, RungLadder};
use crate::phase1::Phase1;
use crate::phase2::Phase2;
use crate::phase3::{rung_operator, Phase3};
use crate::window::{self, WindowedForecaster};
use rayon::prelude::*;
use tsunami_linalg::{DMatrix, FactoredMap, SvdOptions};

/// A [`RungLadder`] built by [`RungLadder::compress`] /
/// [`RungLadder::from_forecaster`]. The two ladder names are one type;
/// both stay because the frozen `perf_report` harness spells them.
pub type GoalLadder = RungLadder;

/// Offline compression knobs for [`RungLadder::compress`].
#[derive(Clone, Copy, Debug, Default)]
pub struct GoalOptions {
    /// Target rank per rung. `None` keeps every rung exact (`R = I`,
    /// bitwise the windowed forecast — the oracle ladder); a rank at or
    /// above a rung's full rank also falls back to exact for that rung.
    pub rank: Option<usize>,
    /// Randomized-SVD knobs for the compression (the seed is varied per
    /// rung so rungs draw independent test matrices).
    pub svd: SvdOptions,
}

impl GoalOptions {
    /// Exact ladder (no compression) — the full-rank oracle.
    pub fn exact() -> Self {
        GoalOptions::default()
    }

    /// Rank-`r` compression of every rung with default SVD knobs.
    pub fn rank(r: usize) -> Self {
        GoalOptions {
            rank: Some(r),
            ..GoalOptions::default()
        }
    }
}

impl RungLadder {
    /// Precompute the SVD-compressed ladder from the offline phases.
    /// Each rung's dense `T_w` is materialized once
    /// (`phase3::rung_operator` — bitwise the windowed forecaster's
    /// operator), compressed, and dropped, so peak memory is a few dense
    /// rungs, not the whole dense ladder.
    pub fn compress(
        p1: &Phase1,
        p2: &Phase2,
        p3: &Phase3,
        windows: &[usize],
        opts: &GoalOptions,
    ) -> Self {
        let nd = p1.f.out_dim;
        let ws = window::normalize_windows(windows, p1.f.nt);
        let per_rung = ws
            .par_iter()
            .map(|&w| {
                let (t_w, _, std) = rung_operator(&p2.k_chol, &p3.b, &p3.a0, w * nd);
                (compress_rung(t_w, w, opts), std)
            })
            .collect();
        Self::assemble(ws, per_rung, nd, None)
    }

    /// Compress an already-built windowed forecaster's dense maps into a
    /// factored ladder (same rungs, same stds). The exact (`rank: None`)
    /// ladder clones the dense maps, so its online products bit-match
    /// the forecaster's.
    pub fn from_forecaster(wf: &WindowedForecaster, opts: &GoalOptions) -> Self {
        let per_rung = (0..wf.windows.len())
            .into_par_iter()
            .map(|i| {
                (
                    compress_rung(wf.q_maps[i].clone(), wf.windows[i], opts),
                    wf.q_stds[i].clone(),
                )
            })
            .collect();
        Self::assemble(wf.windows.clone(), per_rung, wf.nd, None)
    }
}

/// Compress one rung's dense operator per the options.
fn compress_rung(t_w: DMatrix, w: usize, opts: &GoalOptions) -> Rung {
    let (map, trunc_bound) = match opts.rank {
        Some(r) if r < t_w.nrows().min(t_w.ncols()) => {
            FactoredMap::compress(&t_w, r, rung_svd(opts.svd, w))
        }
        _ => (FactoredMap::exact(t_w), 0.0),
    };
    Rung {
        map,
        trunc_bound,
        m_map: None,
        m_trunc_bound: 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TwinConfig;
    use crate::twin::DigitalTwin;

    fn setup() -> DigitalTwin {
        DigitalTwin::offline(TwinConfig::tiny(), 0.03)
    }

    #[test]
    fn exact_ladder_bit_matches_the_windowed_forecaster() {
        let twin = setup();
        let nt = twin.solver.grid.nt_obs;
        let wf = twin.windowed(&[2, nt / 2, nt]);
        // Both construction routes must agree with the dense path.
        let built = twin.goal_ladder(&[2, nt / 2, nt], &GoalOptions::exact());
        let cloned = GoalLadder::from_forecaster(&wf, &GoalOptions::exact());
        for gl in [&built, &cloned] {
            assert_eq!(gl.windows, wf.windows);
            assert_eq!(gl.fold_len(), wf.windows.iter().sum::<usize>() * wf.nd);
            for i in 0..wf.windows.len() {
                let k = wf.windows[i] * wf.nd;
                let d = DMatrix::from_fn(k, 3, |r, c| ((r * 5 + 3 * c) as f64 * 0.13).sin());
                let dense = wf.forecast_batch(i, &d);
                let goal = gl.forecast_batch(i, &d);
                assert_eq!(goal.q_map.as_slice(), dense.q_map.as_slice());
                assert_eq!(goal.q_std, dense.q_std);
                assert!(gl.rungs[i].map.is_exact());
                assert_eq!(gl.rungs[i].trunc_bound, 0.0);
            }
        }
    }

    #[test]
    fn truncated_ladder_stays_within_its_own_bound() {
        let twin = setup();
        let nt = twin.solver.grid.nt_obs;
        let wf = twin.windowed(&[nt / 2, nt]);
        let gl = GoalLadder::from_forecaster(&wf, &GoalOptions::rank(4));
        for i in 0..gl.windows.len() {
            let k = gl.windows[i] * gl.nd;
            let d: Vec<f64> = (0..k).map(|r| (r as f64 * 0.21).cos()).collect();
            let d_norm = d.iter().map(|v| v * v).sum::<f64>().sqrt();
            let db = DMatrix::from_vec(k, 1, d);
            let dense = wf.forecast_batch(i, &db);
            let goal = gl.forecast_batch(i, &db);
            let err = goal
                .q_map
                .as_slice()
                .iter()
                .zip(dense.q_map.as_slice())
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
                .sqrt();
            let bound = gl.mean_error_bound(i, d_norm);
            assert!(gl.rungs[i].trunc_bound > 0.0, "rung {i} should truncate");
            assert!(
                err <= bound + 1e-12,
                "rung {i}: error {err} exceeds bound {bound}"
            );
        }
    }

    #[test]
    fn compression_shrinks_the_resident_working_set() {
        let twin = setup();
        let nt = twin.solver.grid.nt_obs;
        let wf = twin.windowed(&[nt / 2, nt]);
        let gl = GoalLadder::from_forecaster(&wf, &GoalOptions::rank(4));
        assert!(
            gl.resident_elems() < gl.windowed_resident_elems(),
            "factored ladder must be smaller than the dense ladder: {} vs {}",
            gl.resident_elems(),
            gl.windowed_resident_elems()
        );
        // Fold state is rank-sized, not window-sized.
        assert_eq!(
            gl.fold_len(),
            gl.rungs.iter().map(|r| r.map.rank()).sum::<usize>()
        );
        assert!(gl.fold_len() < gl.windows.iter().sum::<usize>() * gl.nd);
    }

    #[test]
    fn ladder_normalizes_windows_like_the_forecaster() {
        let twin = setup();
        let nt = twin.solver.grid.nt_obs;
        let gl = twin.goal_ladder(&[2, 1, nt, 2, nt + 7], &GoalOptions::exact());
        assert_eq!(gl.windows, vec![1, 2, nt]);
        assert_eq!(gl.window_for(0), None);
        assert_eq!(gl.window_for(1), Some(0));
        assert_eq!(gl.window_for(nt + 5), Some(2));
    }
}
