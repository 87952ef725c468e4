//! Goal-oriented per-rung QoI operators: the offline half of the
//! offline/online split (arXiv:2501.14911), and the exact window ladder
//! it is certified against.
//!
//! The QoI posterior is *linear in the data*: for every window rung `w`
//! the mean is `q = T_w d_w` with `T_w = B_w K_w⁻¹` a fixed
//! `Nq·Nt × w·Nd` matrix, and the posterior std is data-independent.
//! Because the data vector is ordered time-major, `K_w` is the leading
//! `w·Nd × w·Nd` principal block of the full `K`, and the leading block
//! of a Cholesky factor is the factor of the leading block: one offline
//! factorization serves *every* window length. Each rung's `T_w` and std
//! (never its posterior covariance) come from `Phase3::rung`; the full
//! window *is* Phase 3's `Q`, reused. Each rung is the exact posterior
//! given the data observed so far, and its forecast uncertainty shrinks
//! monotonically as the window grows.
//!
//! [`RungLadder::build`] keeps every `T_w` dense (`R = I`, implicit):
//! the exact windowed forecaster, whose online products are the oracle.
//! [`RungLadder::compress`] with a rank truncates each `T_w ≈ L_w R_wᵀ`
//! with the randomized SVD, shrinking the resident working set per rung
//! from `Nq·Nt × w·Nd` to `r · (Nq·Nt + w·Nd)` and the online cost per
//! stream to `r`-sized folds, with an exactly computed Frobenius
//! truncation bound ([`Rung::trunc_bound`]) certifying every forecast
//! against the exact rung: `‖q̂ − q‖₂ ≤ bound · ‖d_w‖₂`.
//!
//! Online, a stream never re-reads its window: arriving samples fold
//! into a per-rung running state `z += R_wᵀ d` (rank-sized), and a rung
//! crossing materializes all queued streams' QoI means as one `L_w · Z`
//! GEMM.
//!
//! The ladder type itself is the shared [`RungLadder`] of
//! [`crate::ladder`]; this module holds the exact and the
//! SVD-compression ways of building one.

use crate::ladder::{normalize_windows, rung_svd, Rung, RungLadder};
use crate::phase1::Phase1;
use crate::phase2::Phase2;
use crate::phase3::Phase3;
use rayon::prelude::*;
use tsunami_linalg::{DMatrix, FactoredMap};

/// A [`RungLadder`] built by [`RungLadder::compress`] /
/// [`RungLadder::from_forecaster`]. The ladder names are one type; they
/// stay because the frozen `perf_report` harness spells them.
pub type GoalLadder = RungLadder;

/// The exact ladder of [`RungLadder::build`] (same type, under the name
/// the frozen `perf_report` harness spells).
pub type WindowedForecaster = RungLadder;

/// Offline compression knob for [`RungLadder::compress`].
#[derive(Clone, Copy, Debug, Default)]
pub struct GoalOptions {
    /// Target rank per rung. `None` keeps every rung exact (`R = I`, the
    /// oracle ladder of [`RungLadder::build`]); a rank at or above a
    /// rung's full rank also falls back to exact for that rung.
    pub rank: Option<usize>,
}

impl GoalOptions {
    /// Exact ladder (no compression) — the full-rank oracle.
    pub fn exact() -> Self {
        GoalOptions::default()
    }

    /// Rank-`r` compression of every rung.
    pub fn rank(r: usize) -> Self {
        GoalOptions { rank: Some(r) }
    }
}

impl RungLadder {
    /// The exact ladder for the given window lengths (in observation
    /// steps; clamped to the horizon, sorted, deduped, and each must be
    /// positive): one dense `T_w` per rung, no fold state.
    pub fn build(p1: &Phase1, p2: &Phase2, p3: &Phase3, windows: &[usize]) -> Self {
        Self::compress(p1, p2, p3, windows, &GoalOptions::exact())
    }

    /// Precompute the ladder from the offline phases, compressed per the
    /// options. Each rung's dense `T_w` (`Phase3::rung`) is factored and
    /// dropped, so peak memory is a few dense rungs, not the whole ladder.
    pub fn compress(
        p1: &Phase1,
        p2: &Phase2,
        p3: &Phase3,
        windows: &[usize],
        opts: &GoalOptions,
    ) -> Self {
        let nd = p1.f.out_dim;
        let ws = normalize_windows(windows, p1.f.nt);
        let per_rung = ws
            .par_iter()
            .map(|&w| {
                let (t_w, std) = p3.rung(&p2.k_chol, w * nd);
                let (lift, rung) = factor_rung(t_w, w, opts.rank);
                (lift, rung, std)
            })
            .collect();
        Self::assemble(ws, per_rung, nd, None)
    }

    /// Compress an exact ladder's dense maps into a factored ladder
    /// (same rungs, same stds). The exact (`rank: None`) result clones
    /// the dense maps, so its online products bit-match the input's.
    pub fn from_forecaster(wf: &RungLadder, opts: &GoalOptions) -> Self {
        assert!(
            wf.basis().is_none() && wf.rungs.iter().all(|r| r.right.is_none()),
            "from_forecaster expects an exact ladder"
        );
        let per_rung = (0..wf.windows.len())
            .into_par_iter()
            .map(|i| {
                let (lift, rung) = factor_rung(wf.q_maps[i].clone(), wf.windows[i], opts.rank);
                (lift, rung, wf.q_stds[i].clone())
            })
            .collect();
        Self::assemble(wf.windows.clone(), per_rung, wf.nd, None)
    }
}

/// Factor one rung's dense operator `T_w` into its lift and right
/// factor: kept as is without a rank, else [`FactoredMap::compress`]ed.
fn factor_rung(t_w: DMatrix, w: usize, rank: Option<usize>) -> (DMatrix, Rung) {
    let Some(r) = rank else {
        return (t_w, Rung::default());
    };
    let (map, trunc_bound) = FactoredMap::compress(&t_w, r, rung_svd(w));
    let (left, right) = map.into_parts();
    let rung = Rung {
        right,
        trunc_bound,
        ..Rung::default()
    };
    (left, rung)
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
                assert!(gl.rungs[i].right.is_none() && gl.basis().is_none());
                assert_eq!(gl.rungs[i].trunc_bound, 0.0);
            }
        }
    }

    #[test]
    fn full_horizon_rung_is_phase3s_own() {
        // The exact and the rank-4 builders take Phase 3's own `Q` and std
        // as the full-horizon rung's lift input: no second solve.
        let twin = setup();
        let nt = twin.solver.grid.nt_obs;
        let p3 = &twin.phase3;
        let wf = twin.windowed(&[nt / 2, nt]);
        assert_eq!(wf.q_maps[1].as_slice(), p3.q_map.as_slice());
        assert_eq!(wf.q_stds[1], p3.q_std);
        let gl = twin.goal_ladder(&[nt / 2, nt], &GoalOptions::rank(4));
        let (lift, rung) = factor_rung(p3.q_map.clone(), nt, Some(4));
        assert_eq!(gl.q_maps[1].as_slice(), lift.as_slice());
        let right = |r: &Rung| r.right.as_ref().unwrap().as_slice().to_vec();
        assert_eq!(right(&gl.rungs[1]), right(&rung));
        assert_eq!(gl.rungs[1].trunc_bound, rung.trunc_bound);
        assert_eq!(gl.q_stds[1], p3.q_std);
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
            let db = DMatrix::from_vec(k, 1, d.clone());
            let dense = wf.forecast_batch(i, &db);
            let goal = gl.forecast_batch(i, &db);
            // The single-event forecast folds through the same factors.
            let single = gl.forecast(i, &d);
            let drift = crate::metrics::rel_l2(&single.q_map, goal.q_map.as_slice());
            assert!(drift < 1e-12, "rung {i}: single vs batch {drift}");
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
            gl.q_maps.iter().map(|l| l.ncols()).sum::<usize>()
        );
        assert!(gl.fold_len() < gl.windows.iter().sum::<usize>() * gl.nd);
    }

    #[test]
    #[should_panic(expected = "from_forecaster expects an exact ladder")]
    fn from_forecaster_rejects_a_compressed_ladder() {
        let twin = setup();
        let nt = twin.solver.grid.nt_obs;
        let gl = twin.goal_ladder(&[nt], &GoalOptions::rank(4));
        let _ = GoalLadder::from_forecaster(&gl, &GoalOptions::exact());
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
