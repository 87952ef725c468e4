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
//! factorization serves *every* window length. Each rung is the exact
//! posterior given the data observed so far, and its forecast
//! uncertainty shrinks monotonically as the window grows.
//!
//! [`RungLadder::build`] keeps every rung exact without holding any
//! `T_w`: one forward sweep of `B`'s rows gives the whitened map
//! `G = B L⁻ᵀ`, each rung keeps its segment `G[:, seg_w]` as its lift,
//! and the data are whitened online (see [`crate::ladder`]). Each rung's
//! std comes from a transient `T_w` (a backward sweep of `G`'s leading
//! columns, bit for bit `Phase3::rung`); the full window's is Phase 3's.
//! This is the exact windowed forecaster, whose online products are the
//! oracle. [`RungLadder::compress`] with a rank truncates each
//! `T_w ≈ L_w R_wᵀ` (from `Phase3::rung`; the full window's *is* Phase
//! 3's `Q`, reused)
//! with the randomized SVD, shrinking the resident working set per rung
//! from `Nq·Nt × w·Nd` to `r · (Nq·Nt + w·Nd)` and the online cost per
//! stream to `r`-sized folds, with an exactly computed Frobenius
//! truncation bound ([`Rung::trunc_bound`]) certifying every forecast
//! against the exact rung: `‖q̂ − q‖₂ ≤ bound · ‖d_w‖₂`.
//!
//! Online, a stream never re-reads its window: arriving samples fold
//! into a per-rung running state `z += R_wᵀ d` (rank-sized), and a rung
//! crossing materializes all queued streams' QoI means as one `L_w · Z`
//! GEMM — on an exact rung, one whitening sweep of the newly arrived rows
//! and one GEMM per new segment.
//!
//! The ladder type itself is the shared [`RungLadder`] of
//! [`crate::ladder`]; this module holds the exact and the
//! SVD-compression ways of building one.

use crate::ladder::{normalize_windows, rung_svd, sweep_rows, Rung, RungLadder};
use crate::phase1::Phase1;
use crate::phase2::Phase2;
use crate::phase3::{rung_std, Phase3};
use rayon::prelude::*;
use std::sync::Arc;
use tsunami_linalg::{Cholesky, DMatrix, FactoredMap};

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
    /// positive): every rung whitened, no fold state beyond the whitened
    /// data.
    pub fn build(p1: &Phase1, p2: &Phase2, p3: &Phase3, windows: &[usize]) -> Self {
        Self::compress(p1, p2, p3, windows, &GoalOptions::exact())
    }

    /// Precompute the ladder from the offline phases, compressed per the
    /// options. The rungs kept exact (all of them without a rank; with
    /// one, those whose full rank `min(Nq·Nt, w·Nd)` the rank reaches — a
    /// leading run, since the full rank grows with `w`) share one whitened
    /// map `G = B L⁻ᵀ`, cut into per-rung segments. Each compressed rung's
    /// dense `T_w` (`Phase3::rung`) is factored and dropped, so peak memory
    /// is a few dense rungs, not the whole ladder.
    pub fn compress(
        p1: &Phase1,
        p2: &Phase2,
        p3: &Phase3,
        windows: &[usize],
        opts: &GoalOptions,
    ) -> Self {
        let nd = p1.f.out_dim;
        let ws = normalize_windows(windows, p1.f.nt);
        let nq = p3.b.nrows();
        let run = ws
            .iter()
            .take_while(|&&w| keeps_exact(opts.rank, nq, w * nd))
            .count();
        let mut per_rung: Vec<_> = whitened_lifts(&p2.k_chol, &p3.b, &ws[..run], nd)
            .into_iter()
            .map(|lift| (lift, Rung::default(), Vec::new()))
            .collect();
        let compressed: Vec<_> = ws[run..]
            .par_iter()
            .map(|&w| {
                let (t_w, std) = p3.rung(&p2.k_chol, w * nd);
                let (lift, rung) =
                    factor_rung(t_w, w, opts.rank.expect("only a rank compresses a rung"));
                (lift, rung, std)
            })
            .collect();
        per_rung.extend(compressed);
        let whitening = (run > 0).then(|| Arc::clone(&p2.k_chol));
        let mut ladder = Self::assemble(ws, per_rung, nd, None, whitening);
        // Each exact rung's std from its transient dense `T_w` (a backward
        // sweep of the whitened map), bit for bit `Phase3::rung`'s; the
        // full horizon's is Phase 3's own.
        for i in 0..run {
            ladder.q_stds[i] = if ladder.windows[i] * nd == p3.b.ncols() {
                p3.q_std.clone()
            } else {
                rung_std(&p3.b, &p3.a0, &ladder.rung_operator(i))
            };
        }
        ladder
    }

    /// Compress an exact ladder into a factored ladder (same rungs, same
    /// stds). Rungs kept exact share the input's lifts and whitening
    /// factor (the exact result is a clone, so its online products
    /// bit-match the input's); every other rung's `T_w` is rebuilt by a
    /// backward sweep and compressed, bit for bit as
    /// [`RungLadder::compress`] would.
    pub fn from_forecaster(wf: &RungLadder, opts: &GoalOptions) -> Self {
        assert!(
            wf.basis().is_none() && wf.rungs.iter().all(|r| r.right.is_none()),
            "from_forecaster expects an exact ladder"
        );
        let nq = wf.q_stds.first().map_or(0, Vec::len);
        let run = wf
            .windows
            .iter()
            .take_while(|&&w| keeps_exact(opts.rank, nq, w * wf.nd))
            .count();
        let mut per_rung: Vec<_> = (0..run)
            .map(|i| (wf.q_maps[i].clone(), Rung::default(), wf.q_stds[i].clone()))
            .collect();
        let compressed: Vec<_> = (run..wf.windows.len())
            .into_par_iter()
            .map(|i| {
                let r = opts.rank.expect("only a rank compresses a rung");
                let (lift, rung) = factor_rung(wf.rung_operator(i), wf.windows[i], r);
                (lift, rung, wf.q_stds[i].clone())
            })
            .collect();
        per_rung.extend(compressed);
        let whitening = wf.whitening.clone().filter(|_| run > 0);
        Self::assemble(wf.windows.clone(), per_rung, wf.nd, None, whitening)
    }
}

/// True when a rung of `k` data entries stays exact under the rank: no
/// rank, or one at or above its full rank `min(Nq·Nt, k)`
/// ([`FactoredMap::compress`]'s exact fallback).
fn keeps_exact(rank: Option<usize>, nq: usize, k: usize) -> bool {
    rank.is_none_or(|r| r >= nq.min(k))
}

/// The exact rungs' lifts: the segments `G[:, seg_w]` of the whitened
/// map `G = B L⁻ᵀ` over the widest exact window. `B`'s rows already are
/// RHS-major rows, so `G` is one panel-parallel forward sweep of them.
fn whitened_lifts(l: &Cholesky, b: &DMatrix, ws: &[usize], nd: usize) -> Vec<DMatrix> {
    let Some(&widest) = ws.last() else {
        return Vec::new();
    };
    let k = widest * nd;
    let mut g = Vec::with_capacity(b.nrows() * k);
    for r in 0..b.nrows() {
        g.extend_from_slice(&b.row(r)[..k]);
    }
    sweep_rows(&mut g, k, |rows| l.forward_range(0, k, rows));
    let g = DMatrix::from_vec(b.nrows(), k, g);
    let mut start = 0;
    ws.iter()
        .map(|&w| {
            let seg = start..w * nd;
            start = seg.end;
            DMatrix::from_fn(g.nrows(), seg.len(), |r, c| g[(r, seg.start + c)])
        })
        .collect()
}

/// Factor one rung's dense operator `T_w` into its lift and right
/// factor with [`FactoredMap::compress`] at rank `r`.
fn factor_rung(t_w: DMatrix, w: usize, r: usize) -> (DMatrix, Rung) {
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
            // The per-stream state is the whitened data, one segment per rung.
            assert_eq!(gl.fold_len(), nt * wf.nd);
            assert_eq!(gl.whitened_run(), wf.windows.len());
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
    fn whitened_rungs_match_the_dense_rung_operator() {
        // Every exact rung lifts whitened segments instead of holding its
        // dense `T_w`: its mean agrees with `T_w d_w` (today's leading
        // solve, `Phase3::rung`) to roundoff, its std is bit for bit the
        // oracle's, and the `T_w` rebuilt from `G` is bit for bit the
        // oracle's too.
        let twin = setup();
        let nt = twin.solver.grid.nt_obs;
        let nd = twin.solver.sensors.len();
        let (p2, p3) = (&twin.phase2, &twin.phase3);
        let wf = twin.windowed(&[1, 3, nt / 2, nt]);
        assert!(
            std::ptr::eq(wf.whitening().unwrap(), &*p2.k_chol),
            "factor copied"
        );
        for i in 0..wf.windows.len() {
            let k = wf.windows[i] * nd;
            assert_eq!(wf.segment(i).end, k);
            assert_eq!(wf.q_maps[i].ncols(), wf.segment(i).len());
            let (t_w, std) = p3.rung(&p2.k_chol, k);
            assert_eq!(wf.rung_operator(i).as_slice(), t_w.as_slice(), "rung {i}");
            assert_eq!(wf.q_stds[i], std, "rung {i} std");
            let d = DMatrix::from_fn(k, 4, |r, c| ((r * 7 + 5 * c) as f64 * 0.17).cos());
            let dense = t_w.matmul(&d);
            let lifted = wf.forecast_batch(i, &d);
            let err = crate::metrics::rel_l2(lifted.q_map.as_slice(), dense.as_slice());
            assert!(err < 1e-12, "rung {i}: whitened vs dense {err}");
            assert_eq!(lifted.q_std, std);
            // The single-stream forecast is a column of the batch.
            let single = wf.forecast(i, &d.col(2));
            assert_eq!(single.q_map, lifted.q_map.col(2));
        }
    }

    #[test]
    fn resident_elems_count_the_factor_only_when_the_ladder_owns_it() {
        let twin = setup();
        let nt = twin.solver.grid.nt_obs;
        let wf = twin.windowed(&[nt / 2, nt]);
        let lifts: usize = wf.q_maps.iter().map(|l| l.nrows() * l.ncols()).sum();
        // G over the whole horizon, cut into segments: half the dense pair.
        assert_eq!(lifts, wf.q_stds[0].len() * twin.n_data());
        assert_eq!(wf.resident_elems(), lifts, "the twin's factor is shared");
        let n = twin.n_data();
        drop(twin);
        assert_eq!(wf.resident_elems(), lifts + n * n, "now the ladder's own");
    }

    #[test]
    fn mixed_ladder_keeps_an_exact_leading_run() {
        // At rank nd the one-step rung (full rank nd) stays exact and
        // whitened; the wider rungs are compressed. Both builders agree bit
        // for bit, and the exact rung is the exact ladder's.
        let twin = setup();
        let nt = twin.solver.grid.nt_obs;
        let nd = twin.solver.sensors.len();
        let ws = [1, nt / 2, nt];
        let wf = twin.windowed(&ws);
        let built = twin.goal_ladder(&ws, &GoalOptions::rank(nd));
        let cloned = GoalLadder::from_forecaster(&wf, &GoalOptions::rank(nd));
        for gl in [&built, &cloned] {
            assert_eq!(gl.whitened_run(), 1);
            assert!(gl.whitening().is_some());
            assert!(gl.rungs[1..].iter().all(|r| r.right.is_some()));
            assert_eq!(gl.q_stds, wf.q_stds);
            let d = DMatrix::from_fn(nd, 2, |r, c| (r as f64 + 0.5 * c as f64).sin());
            let exact = wf.forecast_batch(0, &d);
            assert_eq!(
                gl.forecast_batch(0, &d).q_map.as_slice(),
                exact.q_map.as_slice()
            );
        }
        for i in 0..ws.len() {
            assert_eq!(built.q_maps[i].as_slice(), cloned.q_maps[i].as_slice());
            assert_eq!(built.rungs[i].trunc_bound, cloned.rungs[i].trunc_bound);
        }
    }

    #[test]
    #[should_panic(expected = "exact rungs must form a leading run")]
    fn an_exact_rung_after_a_compressed_one_is_rejected() {
        let twin = setup();
        let nt = twin.solver.grid.nt_obs;
        let gl = twin.goal_ladder(&[2, nt], &GoalOptions::rank(4));
        let mut per_rung: Vec<_> = (0..2)
            .map(|i| {
                let rung = Rung {
                    right: gl.rungs[i].right.clone(),
                    ..Rung::default()
                };
                (gl.q_maps[i].clone(), rung, gl.q_stds[i].clone())
            })
            .collect();
        per_rung[1].1.right = None;
        let l = Arc::clone(&twin.phase2.k_chol);
        let _ = RungLadder::assemble(gl.windows.clone(), per_rung, gl.nd, None, Some(l));
    }

    #[test]
    fn full_horizon_rung_is_phase3s_own() {
        // The full-horizon rung carries Phase 3's own std, and its mean is
        // Phase 4's `Q d` to roundoff (whitened segments, not `Q`); the
        // rank-4 builder takes Phase 3's own `Q` as its lift input: no
        // second solve.
        let twin = setup();
        let nt = twin.solver.grid.nt_obs;
        let p3 = &twin.phase3;
        let wf = twin.windowed(&[nt / 2, nt]);
        assert_eq!(wf.q_stds[1], p3.q_std);
        let d = DMatrix::from_fn(twin.n_data(), 3, |r, c| ((r + 11 * c) as f64 * 0.29).cos());
        let phase4 = twin.forecast_batch(&d);
        let lifted = wf.forecast_batch(1, &d);
        let err = crate::metrics::rel_l2(lifted.q_map.as_slice(), phase4.q_map.as_slice());
        assert!(err < 1e-12, "full-horizon rung vs Phase 4: {err}");
        let gl = twin.goal_ladder(&[nt / 2, nt], &GoalOptions::rank(4));
        let (lift, rung) = factor_rung(p3.q_map.clone(), nt, 4);
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
