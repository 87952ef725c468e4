//! Mode-space assimilation: per-rung inference/forecast operators
//! projected into the rank-`r` POD observation basis, so the *whole*
//! streaming tick — identify, assimilate, forecast, classify — scales
//! with the POD rank instead of the observation dimension.
//!
//! POD scenario identification ([`crate::pod`]) makes identification
//! rank-sized and the goal-oriented ladder ([`crate::goal`]) makes
//! forecasting rank-sized, but an exact rung still gathers `k = w·Nd`
//! data rows per session and pays `O(Nq·Nt × k)` online. The source
//! paper (arXiv:2504.16344) gets its real-time guarantee precisely by
//! keeping every online operation independent of the full observation
//! dimension; this module closes that gap for assimilation.
//!
//! ## The reduced operators
//!
//! Let `U` be the `(Nd·Nt) × r` POD basis (orthonormal columns) and
//! `U_k` its leading `k` rows — the restriction every partially observed
//! stream projects through (`a_w = U_kᵀ d_k`, the same running
//! projection mode-space identification already maintains). `U_k` is
//! *not* orthonormal (restricting rows breaks column orthogonality), so
//! the reduced forecast operator absorbs the Gram pseudo-inverse
//! offline:
//!
//! ```text
//!   F̃_w = T_w · U_k (U_kᵀ U_k)⁺          (Nq·Nt × r),
//! ```
//!
//! built from one randomized SVD of `U_k` per rung
//! ([`tsunami_linalg::TruncatedSvd::pinv_transpose`]). Then
//! `F̃_w U_kᵀ = T_w P_w` with `P_w` the orthogonal projector onto
//! `range(U_k)`, and the *exactly computed* Frobenius residual
//!
//! ```text
//!   trunc_bound_w = ‖T_w − F̃_w U_kᵀ‖_F = ‖T_w (I − P_w)‖_F
//! ```
//!
//! certifies every online forecast against the dense windowed operator:
//! `‖q̂ − q‖₂ ≤ trunc_bound_w · ‖d_k‖₂` ([`RungLadder::
//! mean_error_bound`]). Two exactness regimes fall out for free: a rung
//! whose restriction has full row rank (`rank(U_k) = k`, e.g. any rung
//! of a complete square basis) has `P_w = I` and a roundoff-level
//! bound, and data lying in the basis's span (`(I − P_w) d_k = 0`, e.g.
//! clean curves of a losslessly compressed bank) are forecast exactly
//! at *any* rank. The posterior std is data-independent and carried
//! over unchanged from `Phase3::rung` — bitwise the exact ladder's.
//!
//! With [`ModeSpaceOptions::inference`] set, the same Gram-absorbed
//! projection reduces the windowed *parameter inference* operator
//! `M_w = Gᵀ [K_w⁻¹ · ; 0]` to `M̃_w = M_w U_k (U_kᵀU_k)⁺`
//! (`Nm·Nt × r`), with its own exactly computed residual — no
//! leading-block Cholesky solve online at all.
//!
//! The ladder type itself is the shared [`RungLadder`] of
//! [`crate::ladder`] (with [`RungLadder::basis`] set); this module is
//! the Gram-absorbed-projection way of building one.

use crate::ladder::{leading_rows, normalize_windows, rung_svd, Rung, RungLadder};
use crate::phase1::Phase1;
use crate::phase2::Phase2;
use crate::phase3::Phase3;
use crate::window::infer_window_batch;
use rayon::prelude::*;
use tsunami_linalg::{randomized_svd, DMatrix};

/// A [`RungLadder`] built by [`RungLadder::project`]. The ladder names
/// are one type; they stay because the frozen `perf_report` harness
/// spells them.
pub type ModeSpaceLadder = RungLadder;

/// Relative cutoff for the basis restriction's singular values when
/// absorbing the Gram pseudo-inverse: modes of `U_k` at or below
/// `GRAM_RTOL · σ₀` are dropped instead of inverted through.
const GRAM_RTOL: f64 = 1e-10;

/// Offline knob for [`RungLadder::project`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ModeSpaceOptions {
    /// Also build the reduced parameter-inference operators `M̃_w`
    /// (engine ticks with `infer: true` then fill the inference norm;
    /// the forecast-only service skips the extra offline solves).
    pub inference: bool,
}

impl RungLadder {
    /// Precompute the reduced ladder from the offline phases and a POD
    /// observation basis (`modes`: `(Nd·Nt) × r`, e.g.
    /// [`crate::PodBank::modes`]), which the ladder keeps as its shared
    /// [`Self::basis`]. Each rung's dense `T_w` and std come from
    /// `Phase3::rung` (bitwise the exact ladder's; Phase 3's own at the
    /// full horizon), then `T_w` is projected, bounded, and dropped.
    pub fn project(
        p1: &Phase1,
        p2: &Phase2,
        p3: &Phase3,
        windows: &[usize],
        modes: &DMatrix,
        opts: &ModeSpaceOptions,
    ) -> Self {
        let nd = p1.f.out_dim;
        assert_eq!(
            modes.nrows(),
            nd * p1.f.nt,
            "POD basis and twin disagree on the data dimension"
        );
        assert!(
            modes.ncols() >= 1,
            "mode-space ladder needs a nonempty basis"
        );
        let ws = normalize_windows(windows, p1.f.nt);
        let per_rung = ws
            .par_iter()
            .map(|&w| reduce_rung(p1, p2, p3, w, nd, modes, opts))
            .collect();
        Self::assemble(ws, per_rung, nd, Some(modes.clone()), None)
    }
}

/// Reduce one rung: materialize `T_w`, absorb the Gram pseudo-inverse of
/// the basis restriction, and compute the exact residual bounds.
fn reduce_rung(
    p1: &Phase1,
    p2: &Phase2,
    p3: &Phase3,
    w: usize,
    nd: usize,
    modes: &DMatrix,
    opts: &ModeSpaceOptions,
) -> (DMatrix, Rung, Vec<f64>) {
    let k = w * nd;
    let (t_w, std) = p3.rung(&p2.k_chol, k);
    let u_k = leading_rows(modes, k);
    let svd = randomized_svd(&u_k, modes.ncols(), rung_svd(w));
    // X = U_k (U_kᵀU_k)⁺ (k × r): the offline Gram absorption. The online
    // fold then stays the raw shared projection a = U_kᵀ d.
    let x = svd.pinv_transpose(GRAM_RTOL);
    let q_map = t_w.matmul(&x);

    // Exact residual ‖T_w − F̃_w U_kᵀ‖_F, materialized once and dropped.
    let mut diff = q_map.matmul_nt(&u_k);
    diff.add_scaled(-1.0, &t_w);
    let trunc_bound = diff.norm_fro();
    drop(t_w);

    let (m_map, m_trunc_bound) = if opts.inference {
        // Dense M_w via the batched windowed inference on the identity —
        // offline-only cost; the reduced operator is its projection and
        // the residual is exact by construction.
        let m_dense = infer_window_batch(p1, p2, &DMatrix::identity(k), w).m_map;
        let m_red = m_dense.matmul(&x);
        let mut m_diff = m_red.matmul_nt(&u_k);
        m_diff.add_scaled(-1.0, &m_dense);
        (Some(m_red), m_diff.norm_fro())
    } else {
        (None, 0.0)
    };

    let rung = Rung {
        right: None,
        trunc_bound,
        m_map,
        m_trunc_bound,
    };
    (q_map, rung, std)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TwinConfig;
    use crate::goal::WindowedForecaster;
    use crate::twin::DigitalTwin;
    use tsunami_linalg::svd::orthonormalize;
    use tsunami_linalg::SvdOptions;

    fn setup() -> DigitalTwin {
        DigitalTwin::offline(TwinConfig::tiny(), 0.03)
    }

    /// A deterministic full orthogonal basis of the twin's data space
    /// (square `n × n`): every rung restriction has orthonormal rows, so
    /// the reduced ladder must reproduce the dense one on arbitrary data.
    fn complete_basis(n: usize) -> DMatrix {
        let mut m = DMatrix::from_fn(n, n, |i, j| {
            if i == j {
                1.0
            } else {
                0.3 * ((i * 7 + j * 3) as f64 * 0.41).sin()
            }
        });
        let kept = orthonormalize(&mut m);
        assert_eq!(kept, n, "basis must be complete");
        m
    }

    /// A genuinely rank-`r` basis: leading SVD modes of a smooth block
    /// plus a small identity shift (the smooth part alone has numerical
    /// rank 4, which would silently clip every requested rank to 4).
    fn truncated_basis(n: usize, r: usize) -> DMatrix {
        let block = DMatrix::from_fn(n, n, |i, j| {
            let smooth =
                ((i * 3 + 2 * j) as f64 * 0.11).sin() + 0.4 * ((i + 5 * j) as f64 * 0.07).cos();
            smooth + if i == j { 0.05 } else { 0.0 }
        });
        let svd = randomized_svd(&block, r, SvdOptions::default());
        assert_eq!(svd.u.ncols(), r, "generator block must have rank >= {r}");
        svd.u
    }

    #[test]
    fn complete_basis_reproduces_the_windowed_forecaster() {
        let twin = setup();
        let nt = twin.solver.grid.nt_obs;
        let n = twin.n_data();
        let wf = twin.windowed(&[nt / 2, nt]);
        let ms = twin.mode_space_ladder(
            &[nt / 2, nt],
            &complete_basis(n),
            &ModeSpaceOptions::default(),
        );
        assert_eq!(ms.windows, wf.windows);
        for i in 0..ms.windows.len() {
            let k = ms.windows[i] * ms.nd;
            // Rank(U_k) = k (orthonormal rows): the projector is the
            // identity and the certified bound collapses to roundoff.
            assert!(
                ms.rungs[i].trunc_bound < 1e-8,
                "rung {i} bound {} should be roundoff",
                ms.rungs[i].trunc_bound
            );
            let d = DMatrix::from_fn(k, 3, |r, c| ((r * 5 + 3 * c) as f64 * 0.13).sin());
            let dense = wf.forecast_batch(i, &d);
            let reduced = ms.forecast_batch(i, &d);
            // Same answer within cancellation slack (the projection round
            // trip is not bitwise), same std bitwise.
            let scale = dense.q_map.norm_fro().max(1e-300);
            let mut diff = reduced.q_map.clone();
            diff.add_scaled(-1.0, &dense.q_map);
            assert!(
                diff.norm_fro() < 1e-9 * scale,
                "rung {i}: reduced forecast drifted {}",
                diff.norm_fro() / scale
            );
            assert_eq!(reduced.q_std, dense.q_std);
        }
    }

    #[test]
    fn truncated_basis_stays_within_its_certified_bound() {
        let twin = setup();
        let nt = twin.solver.grid.nt_obs;
        let n = twin.n_data();
        let wf = twin.windowed(&[nt / 2, nt]);
        let ms = twin.mode_space_ladder(
            &[nt / 2, nt],
            &truncated_basis(n, 6),
            &ModeSpaceOptions::default(),
        );
        for i in 0..ms.windows.len() {
            let k = ms.windows[i] * ms.nd;
            let d: Vec<f64> = (0..k).map(|r| (r as f64 * 0.21).cos()).collect();
            let d_norm = d.iter().map(|v| v * v).sum::<f64>().sqrt();
            let db = DMatrix::from_vec(k, 1, d);
            let dense = wf.forecast_batch(i, &db);
            let reduced = ms.forecast_batch(i, &db);
            let err: f64 = reduced
                .q_map
                .as_slice()
                .iter()
                .zip(dense.q_map.as_slice())
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
                .sqrt();
            let bound = ms.mean_error_bound(i, d_norm);
            assert!(
                ms.rungs[i].trunc_bound > 0.0 || k <= ms.q_maps[i].ncols(),
                "rung {i} should truncate"
            );
            assert!(
                err <= bound + 1e-12,
                "rung {i}: error {err} exceeds certified bound {bound}"
            );
        }
    }

    #[test]
    fn full_horizon_rung_lifts_phase3s_own_operator() {
        // At the full horizon `U_k = U`: the lift is Phase 3's own `Q`
        // through the same Gram absorption, and the std is Phase 3's.
        let twin = setup();
        let nt = twin.solver.grid.nt_obs;
        let basis = truncated_basis(twin.n_data(), 5);
        let ms = twin.mode_space_ladder(&[nt / 2, nt], &basis, &ModeSpaceOptions::default());
        let x = randomized_svd(&basis, 5, rung_svd(nt)).pinv_transpose(GRAM_RTOL);
        let lift = twin.phase3.q_map.matmul(&x);
        assert_eq!(ms.q_maps[1].as_slice(), lift.as_slice());
        assert_eq!(ms.q_stds[1], twin.phase3.q_std);
    }

    #[test]
    fn in_span_data_is_forecast_exactly_at_any_rank() {
        // Data in the basis's span are reproduced regardless of
        // truncation: the residual operator annihilates them.
        let twin = setup();
        let nt = twin.solver.grid.nt_obs;
        let n = twin.n_data();
        let basis = truncated_basis(n, 4);
        let ms = twin.mode_space_ladder(&[nt], &basis, &ModeSpaceOptions::default());
        let wf = twin.windowed(&[nt]);
        // d = U c for a fixed coefficient vector.
        let c = DMatrix::from_fn(4, 1, |i, _| (i as f64 + 1.0) * 0.3);
        let d = basis.matmul(&c);
        let dense = wf.forecast_batch(0, &d);
        let reduced = ms.forecast_batch(0, &d);
        let scale = dense.q_map.norm_fro().max(1e-300);
        let mut diff = reduced.q_map.clone();
        diff.add_scaled(-1.0, &dense.q_map);
        assert!(
            diff.norm_fro() < 1e-9 * scale,
            "in-span data must forecast exactly: {}",
            diff.norm_fro() / scale
        );
        // The single-event forecast folds through the same basis rows.
        let single = ms.forecast(0, d.as_slice());
        let drift = crate::metrics::rel_l2(&single.q_map, reduced.q_map.as_slice());
        assert!(drift < 1e-12, "single vs batch {drift}");
    }

    #[test]
    fn reduced_inference_tracks_the_windowed_inference() {
        let twin = setup();
        let nt = twin.solver.grid.nt_obs;
        let n = twin.n_data();
        let opts = ModeSpaceOptions { inference: true };
        let ms = twin.mode_space_ladder(&[nt / 2, nt], &complete_basis(n), &opts);
        assert!(ms.rungs.iter().all(|r| r.m_map.is_some()));
        for i in 0..ms.windows.len() {
            let k = ms.windows[i] * ms.nd;
            assert!(ms.rungs[i].m_trunc_bound < 1e-8, "rung {i} m-bound");
            let d = DMatrix::from_fn(k, 2, |r, c| ((r + 3 * c) as f64 * 0.17).cos());
            let dense = infer_window_batch(&twin.phase1, &twin.phase2, &d, ms.windows[i]).m_map;
            let u_k = DMatrix::from_fn(k, ms.q_maps[i].ncols(), |r, c| ms.basis().unwrap()[(r, c)]);
            let a = u_k.matmul_tn(&d);
            let reduced = ms.rungs[i].m_map.as_ref().unwrap().matmul(&a);
            let scale = dense.norm_fro().max(1e-300);
            let mut diff = reduced;
            diff.add_scaled(-1.0, &dense);
            assert!(
                diff.norm_fro() < 1e-8 * scale,
                "rung {i}: reduced inference drifted {}",
                diff.norm_fro() / scale
            );
        }
    }

    #[test]
    fn rebuilds_are_bitwise_reproducible() {
        let twin = setup();
        let nt = twin.solver.grid.nt_obs;
        let n = twin.n_data();
        let basis = truncated_basis(n, 5);
        let opts = ModeSpaceOptions::default();
        let a = twin.mode_space_ladder(&[nt / 2, nt], &basis, &opts);
        let b = twin.mode_space_ladder(&[nt / 2, nt], &basis, &opts);
        for i in 0..a.rungs.len() {
            // The regression pin: identical options must reproduce every
            // reduced factor bit for bit (per-rung seeds are derived, not
            // drawn from shared state).
            assert_eq!(
                a.q_maps[i].as_slice(),
                b.q_maps[i].as_slice(),
                "rung {i} not reproducible"
            );
            assert_eq!(a.rungs[i].trunc_bound, b.rungs[i].trunc_bound);
        }
    }

    #[test]
    fn ladder_normalizes_windows_and_sizes_like_the_forecaster() {
        let twin = setup();
        let nt = twin.solver.grid.nt_obs;
        let n = twin.n_data();
        let basis = truncated_basis(n, 3);
        let ms =
            twin.mode_space_ladder(&[2, 1, nt, 2, nt + 7], &basis, &ModeSpaceOptions::default());
        assert_eq!(ms.windows, vec![1, 2, nt]);
        assert_eq!(ms.q_maps[0].ncols(), 3);
        assert_eq!(ms.window_for(0), None);
        assert_eq!(ms.window_for(1), Some(0));
        assert_eq!(ms.window_for(nt + 5), Some(2));
        assert!(ms.rungs.iter().all(|r| r.m_map.is_none()));
        assert!(
            ms.resident_elems() < ms.windowed_resident_elems() + n * 3,
            "reduced ladder should be rank-sized: {} vs dense {}",
            ms.resident_elems(),
            ms.windowed_resident_elems()
        );
        let wf = WindowedForecaster::build(
            &twin.phase1,
            &twin.phase2,
            &twin.phase3,
            &[2, 1, nt, 2, nt + 7],
        );
        for i in 0..ms.windows.len() {
            assert_eq!(ms.q_stds[i], wf.q_stds[i], "stds must carry over bitwise");
        }
    }
}
