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
//! residual: `‖q̂ − q‖₂ ≤ ‖T_w − L_w R_wᵀ‖_F · ‖d_w‖₂`. Every online
//! path of this workspace is that one construction, held in one type;
//! the paths differ only in how a rung's factors are *built*:
//!
//! | builder | `R_w` ([`Rung::right`]) | `L_w` ([`RungLadder::q_maps`]) |
//! |---|---|---|
//! | [`RungLadder::build`] (= [`RungLadder::compress`] with `GoalOptions::exact`) | `I`, implicit | `T_w` |
//! | [`RungLadder::compress`] with `GoalOptions::rank` | right singular vectors of `T_w` | `U Σ` |
//! | [`RungLadder::project`] | leading rows `U_k` of one POD basis shared by all rungs | `T_w U_k (U_kᵀU_k)⁺` |
//!
//! The exact ladder is the windowed forecaster ([`crate::WindowedForecaster`]
//! is a name for this type): one dense `T_w` per rung, the oracle the
//! other two builders are certified against. A ladder whose rungs share
//! a basis ([`RungLadder::basis`]) folds each arriving row *once* for all
//! rungs (`a += Uᵀd`, snapshotted at every rung boundary) instead of once
//! per rung, and may carry a reduced parameter-inference lift per rung
//! beside the forecast lift.

use crate::phase4::{forecast_with, Forecast, ForecastBatch};
use std::borrow::Cow;
use std::time::Instant;
use tsunami_linalg::{DMatrix, SvdOptions};

/// One rung's precomputed operators besides its lift
/// ([`RungLadder::q_maps`]).
#[derive(Default)]
pub struct Rung {
    /// The rung's *own* right factor `R_w` (`w·Nd × rank`), or `None`
    /// when the fold input is supplied by the ladder instead: the raw
    /// window rows (`R = I`) or the projection through the shared
    /// [`RungLadder::basis`].
    pub right: Option<DMatrix>,
    /// Exactly computed residual `‖T_w − L_w R_wᵀ‖_F` (0 for an exact
    /// rung). For any window data `d` the forecast-mean error against
    /// the exact rung is bounded by `trunc_bound · ‖d‖₂`.
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
/// posterior stds. Built offline once; online work is folds and GEMMs
/// only.
pub struct RungLadder {
    /// Window lengths in observation steps, strictly increasing.
    pub windows: Vec<usize>,
    /// Per-rung operators, aligned with `windows`.
    pub rungs: Vec<Rung>,
    /// Per-rung lifts `L_w` (`Nq·Nt × rank`); on an exact rung the dense
    /// data-to-QoI map `T_w = B_w K_w⁻¹` itself (`Nq·Nt × w·Nd`).
    pub q_maps: Vec<DMatrix>,
    /// Per-rung forecast standard deviations `√diag(Γpost(q; w))` —
    /// the same on every builder (factoring the mean operator does not
    /// touch them).
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
        per_rung: Vec<(DMatrix, Rung, Vec<f64>)>,
        nd: usize,
        basis: Option<DMatrix>,
    ) -> Self {
        let (q_maps, rungs, q_stds) = per_rung.into_iter().collect();
        RungLadder {
            windows,
            rungs,
            q_maps,
            q_stds,
            nd,
            basis,
        }
    }

    /// The shared observation basis `U`, or `None` when every rung
    /// carries its own right factor or reads the raw window.
    pub fn basis(&self) -> Option<&DMatrix> {
        self.basis.as_ref()
    }

    /// Index of the widest precomputed window not exceeding `steps`.
    /// Returns `None` if even the narrowest window needs more data.
    pub fn window_for(&self, steps: usize) -> Option<usize> {
        self.windows.iter().rposition(|&w| w <= steps)
    }

    /// Total per-stream fold-state length `Σ_i rank_i`.
    pub fn fold_len(&self) -> usize {
        self.q_maps.iter().map(|l| l.ncols()).sum()
    }

    /// Forecast-mean error bound at rung `i` for window data of 2-norm
    /// `d_norm`: `‖q̂ − q‖₂ ≤ trunc_bound · d_norm` against the exact
    /// rung's forecast.
    pub fn mean_error_bound(&self, i: usize, d_norm: f64) -> f64 {
        self.rungs[i].trunc_bound * d_norm
    }

    /// The right factor rung `i` folds through: its own `R_w`, the
    /// leading `k` rows of the shared basis, or `None` for an exact rung
    /// (`R = I`).
    fn right(&self, i: usize) -> Option<Cow<'_, DMatrix>> {
        let k = self.windows[i] * self.nd;
        match (&self.basis, &self.rungs[i].right) {
            (Some(u), _) => Some(Cow::Owned(leading_rows(u, k))),
            (None, Some(r)) => Some(Cow::Borrowed(r)),
            (None, None) => None,
        }
    }

    /// Forecast from the first `windows[i]` observation steps of one
    /// stream (`d_window`: exactly `windows[i]·Nd` entries, time-major):
    /// fold, then one lane-width pass over the lift ([`DMatrix::matvec`]),
    /// so the exact full-horizon rung is bit-identical to
    /// [`crate::phase4::predict`].
    pub fn forecast(&self, i: usize, d_window: &[f64]) -> Forecast {
        let k = self.windows[i] * self.nd;
        assert_eq!(d_window.len(), k, "window {i} expects {k} data entries");
        match self.right(i) {
            None => forecast_with(&self.q_maps[i], &self.q_stds[i], d_window),
            Some(r) => {
                let mut z = vec![0.0; r.ncols()];
                r.matvec_t(d_window, &mut z);
                forecast_with(&self.q_maps[i], &self.q_stds[i], &z)
            }
        }
    }

    /// Forecast a block of streams from the same window (fold + lift):
    /// `d_window` is `windows[i]·Nd × B`, one stream per column, and the
    /// lift is one GEMM instead of `B` matvecs. The reference the
    /// streaming engine's incremental fold is tested against; the
    /// posterior std is data-independent, so one vector serves every
    /// column.
    pub fn forecast_batch(&self, i: usize, d_window: &DMatrix) -> ForecastBatch {
        let t0 = Instant::now();
        let k = self.windows[i] * self.nd;
        assert_eq!(d_window.nrows(), k, "window {i} expects {k} data rows");
        let q_map = match self.right(i) {
            None => self.q_maps[i].matmul(d_window),
            Some(r) => self.q_maps[i].matmul(&r.matmul_tn(d_window)),
        };
        ForecastBatch {
            q_map,
            q_std: self.q_stds[i].clone(),
            seconds: t0.elapsed().as_secs_f64(),
        }
    }

    /// Resident elements of the whole ladder (shared basis + per-rung
    /// lifts and factors) — compare with
    /// [`Self::windowed_resident_elems`] for the compression ratio.
    pub fn resident_elems(&self) -> usize {
        let elems = |m: &DMatrix| m.nrows() * m.ncols();
        self.basis.as_ref().map_or(0, elems)
            + self.q_maps.iter().map(elems).sum::<usize>()
            + self
                .rungs
                .iter()
                .map(|r| r.right.as_ref().map_or(0, elems) + r.m_map.as_ref().map_or(0, elems))
                .sum::<usize>()
    }

    /// Resident elements the exact ladder holds for the same rungs
    /// (`Σ Nq·Nt × w·Nd`).
    pub fn windowed_resident_elems(&self) -> usize {
        let nq = self.q_stds.first().map_or(0, |s| s.len());
        self.windows.iter().map(|&w| nq * w * self.nd).sum()
    }
}

/// Clamp a requested window ladder to the horizon, sort it, and dedup it
/// — the normalization every builder applies, so ladders built from the
/// same request line up rung for rung.
pub(crate) fn normalize_windows(windows: &[usize], nt: usize) -> Vec<usize> {
    let mut ws: Vec<usize> = windows
        .iter()
        .map(|&w| {
            assert!(w > 0, "window length must be positive");
            w.min(nt)
        })
        .collect();
    ws.sort_unstable();
    ws.dedup();
    ws
}

/// The leading `k` rows of a basis as a dense block (offline / reference
/// use only — the online fold streams the rows in place).
pub(crate) fn leading_rows(u: &DMatrix, k: usize) -> DMatrix {
    DMatrix::from_fn(k, u.ncols(), |i, j| u[(i, j)])
}

/// The randomized-SVD options for the rung of window length `w`: the
/// default knobs with the seed mixed with the window length, so rungs
/// draw independent Gaussian test matrices and rebuilds are bitwise
/// reproducible across runs and shard counts.
pub(crate) fn rung_svd(w: usize) -> SvdOptions {
    let base = SvdOptions::default();
    SvdOptions {
        seed: base.seed ^ (w as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        ..base
    }
}
