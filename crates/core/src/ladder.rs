//! The rung-operator ladder: one precomputed data-to-QoI operator per
//! observation window, in the factored form the online phase applies.
//!
//! The QoI posterior mean is *linear in the data*: for every window rung
//! `w` it is `q = T_w d_w` with `T_w = B_w K_w⁻¹` a fixed
//! `Nq·Nt × w·Nd` matrix, and the posterior std is data-independent.
//! The goal-oriented offline/online split (arXiv:2501.14911) factors
//! that operator once, offline,
//!
//! ```text
//!   T_w ≈ L_w R_wᵀ        fold  z += R_wᵀ d   as data arrive,
//!                         lift  q  = L_w z    on demand,
//! ```
//!
//! and certifies the factorization with an exactly computed Frobenius
//! residual: `‖q̂ − q‖₂ ≤ ‖T_w − L_w R_wᵀ‖_F · ‖d_w‖₂`. Every reduced
//! online path of this workspace is that one construction; the paths
//! differ only in how a rung's factors are *built*:
//!
//! | built by | `R_w` | `L_w` |
//! |---|---|---|
//! | [`crate::goal`] (`GoalOptions::exact`) | `I`, implicit | `T_w` |
//! | [`crate::goal`] (`GoalOptions::rank`) | right singular vectors of `T_w` | `U Σ` |
//! | [`crate::modespace`] | leading rows `U_k` of one POD basis shared by all rungs | `T_w U_k (U_kᵀU_k)⁺` |
//!
//! A ladder whose rungs share a basis ([`RungLadder::basis`]) folds each
//! arriving row *once* for all rungs (`a += Uᵀd`, snapshotted at every
//! rung boundary) instead of once per rung, and may carry a reduced
//! parameter-inference lift per rung beside the forecast lift.

use crate::phase4::ForecastBatch;
use std::time::Instant;
use tsunami_linalg::{DMatrix, FactoredMap, SvdOptions};

/// One rung's precomputed operators.
pub struct Rung {
    /// `T_w ≈ L_w R_wᵀ`. [`FactoredMap::left`] is the lift `L_w`;
    /// [`FactoredMap::right`] is the rung's *own* right factor, absent
    /// when the fold input is supplied by the ladder instead — the raw
    /// window rows (`R = I`) or the projection through the shared
    /// [`RungLadder::basis`].
    pub map: FactoredMap,
    /// Exactly computed residual `‖T_w − L_w R_wᵀ‖_F` (0 for an exact
    /// rung). For any window data `d` the forecast-mean error against
    /// the dense windowed operator is bounded by `trunc_bound · ‖d‖₂`.
    pub trunc_bound: f64,
    /// Reduced parameter-inference lift `M̃_w` (`Nm·Nt × r`; only on a
    /// shared-basis ladder built with
    /// [`crate::modespace::ModeSpaceOptions::inference`]).
    pub m_map: Option<DMatrix>,
    /// Exactly computed residual `‖M_w − M̃_w U_kᵀ‖_F` (0 without
    /// `m_map`).
    pub m_trunc_bound: f64,
}

/// A window ladder of factored rung operators plus the data-independent
/// posterior stds. Built offline once; online work is rank-sized folds
/// and small GEMMs only.
pub struct RungLadder {
    /// Window lengths in observation steps, strictly increasing (same
    /// normalization as [`crate::window::WindowedForecaster::build`]).
    pub windows: Vec<usize>,
    /// Per-rung operators, aligned with `windows`.
    pub rungs: Vec<Rung>,
    /// Per-rung forecast standard deviations `√diag(Γpost(q; w))` —
    /// bitwise the windowed forecaster's (factoring the mean operator
    /// does not touch them).
    pub q_stds: Vec<Vec<f64>>,
    /// Number of sensors `Nd` (data entries per observation step).
    pub nd: usize,
    /// The observation basis `U` (`(Nd·Nt) × r`) every rung folds
    /// through, when the rungs share one.
    basis: Option<DMatrix>,
}

impl RungLadder {
    pub(crate) fn assemble(
        windows: Vec<usize>,
        per_rung: Vec<(Rung, Vec<f64>)>,
        nd: usize,
        basis: Option<DMatrix>,
    ) -> Self {
        let (rungs, q_stds) = per_rung.into_iter().unzip();
        RungLadder {
            windows,
            rungs,
            q_stds,
            nd,
            basis,
        }
    }

    /// The shared observation basis `U`, or `None` when every rung
    /// carries its own right factor.
    pub fn basis(&self) -> Option<&DMatrix> {
        self.basis.as_ref()
    }

    /// Index of the widest precomputed window not exceeding `steps`
    /// (same contract as the windowed forecaster's `window_for`).
    pub fn window_for(&self, steps: usize) -> Option<usize> {
        self.windows.iter().rposition(|&w| w <= steps)
    }

    /// Total per-stream fold-state length `Σ_i rank_i`.
    pub fn fold_len(&self) -> usize {
        self.rungs.iter().map(|r| r.map.rank()).sum()
    }

    /// Forecast-mean error bound at rung `i` for window data of 2-norm
    /// `d_norm`: `‖q̂ − q‖₂ ≤ trunc_bound · d_norm` against the dense
    /// windowed forecast.
    pub fn mean_error_bound(&self, i: usize, d_norm: f64) -> f64 {
        self.rungs[i].trunc_bound * d_norm
    }

    /// One-shot forecast of a window-data block (fold + lift) — the
    /// reference the streaming engine's incremental fold is tested
    /// against. `d_window` is `windows[i]·Nd × B`.
    pub fn forecast_batch(&self, i: usize, d_window: &DMatrix) -> ForecastBatch {
        let t0 = Instant::now();
        let k = self.windows[i] * self.nd;
        assert_eq!(d_window.nrows(), k, "window {i} expects {k} data rows");
        let map = &self.rungs[i].map;
        let q_map = match &self.basis {
            Some(u) => map.left().matmul(&leading_rows(u, k).matmul_tn(d_window)),
            None => map.apply(d_window),
        };
        ForecastBatch {
            q_map,
            q_std: self.q_stds[i].clone(),
            seconds: t0.elapsed().as_secs_f64(),
        }
    }

    /// Resident elements of the whole ladder (shared basis + per-rung
    /// factors) — compare with [`Self::windowed_resident_elems`] for the
    /// compression ratio.
    pub fn resident_elems(&self) -> usize {
        let elems = |m: &DMatrix| m.nrows() * m.ncols();
        self.basis.as_ref().map_or(0, elems)
            + self
                .rungs
                .iter()
                .map(|r| r.map.resident_elems() + r.m_map.as_ref().map_or(0, elems))
                .sum::<usize>()
    }

    /// Resident elements the dense windowed ladder would hold for the
    /// same rungs (`Σ Nq·Nt × w·Nd`).
    pub fn windowed_resident_elems(&self) -> usize {
        let nq = self.q_stds.first().map_or(0, |s| s.len());
        self.windows.iter().map(|&w| nq * w * self.nd).sum()
    }
}

/// The leading `k` rows of a basis as a dense block (offline / reference
/// use only — the online fold streams the rows in place).
pub(crate) fn leading_rows(u: &DMatrix, k: usize) -> DMatrix {
    DMatrix::from_fn(k, u.ncols(), |i, j| u[(i, j)])
}

/// The randomized-SVD options for the rung of window length `w`: the
/// base seed mixed with the window length, so rungs draw independent
/// Gaussian test matrices and rebuilds are bitwise reproducible across
/// runs and shard counts.
pub(crate) fn rung_svd(base: SvdOptions, w: usize) -> SvdOptions {
    SvdOptions {
        seed: base.seed ^ (w as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        ..base
    }
}
