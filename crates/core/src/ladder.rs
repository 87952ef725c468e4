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
//! | [`RungLadder::build`] (= [`RungLadder::compress`] with `GoalOptions::exact`) | `L⁻¹`, the shared whitening factor ([`RungLadder::whitening`]) | `G[:, seg_w]`, the rung's segment of `G = B L⁻ᵀ` |
//! | [`RungLadder::compress`] with `GoalOptions::rank` | right singular vectors of `T_w` | `U Σ` |
//! | [`RungLadder::project`] | leading rows `U_k` of one POD basis shared by all rungs | `T_w U_k (U_kᵀU_k)⁺` |
//!
//! The exact ladder is the windowed forecaster ([`crate::WindowedForecaster`]
//! is a name for this type), the oracle the other two builders are
//! certified against. It holds no dense `T_w`: with `K = L Lᵀ` in
//! time-major order, the whitened data `y = L⁻¹ d` and the whitened map
//! `G = B L⁻ᵀ` are both causal, so `T_w d_w = G[:, :k_w] y[:k_w]`, and
//! rung `w` is rung `w − 1` plus `G[:, seg_w] y[seg_w]` with
//! `seg_w = [k_{w−1}, k_w)` — the sequential Bayesian update of Nomura
//! et al. (arXiv:2407.03631) in the twin's own whitened coordinates.
//! Each exact rung stores only its lift `G[:, seg_w]`; a stream crossing
//! a rung whitens only the rows that arrived since the last one and
//! lifts only the new segments. The lift is one fixed rule, shared with
//! the streaming engine: starting from `q = 0`, for every segment in
//! ascending order, `c = G_j Y_j` (a fresh GEMM from zero), then
//! `q += c`. Exact rungs form a leading run of the ladder.
//!
//! Cost model (per stream, `n = Nq·Nt` forecast entries, `k` data
//! entries over the whole ladder): the dense rungs cost `n · Σ_w k_w`
//! multiply-adds, the whitened ones `k²/2` (the whitening) plus `n · k`
//! (the segments). Whitening wins when `k²/2 < n · (Σ_w k_w − k)`; for
//! evenly spaced rungs that is roughly `k ≲ 3n`. At the paper's shape,
//! `k ≫ Nq·Nt`, the dense rungs are cheaper.
//!
//! A ladder whose rungs share a basis ([`RungLadder::basis`]) folds each
//! arriving row *once* for all rungs (`a += Uᵀd`, snapshotted at every
//! rung boundary) instead of once per rung, and may carry a reduced
//! parameter-inference lift per rung beside the forecast lift.

use crate::phase4::{forecast_with, Forecast, ForecastBatch};
use rayon::prelude::*;
use std::borrow::Cow;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;
use tsunami_linalg::{Cholesky, DMatrix, RhsPanel, SvdOptions};

/// One rung's precomputed operators besides its lift
/// ([`RungLadder::q_maps`]).
#[derive(Default)]
pub struct Rung {
    /// The rung's *own* right factor `R_w` (`w·Nd × rank`), or `None`
    /// when the fold input is supplied by the ladder instead: the
    /// whitened data (an exact rung) or the projection through the shared
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
    /// Per-rung lifts `L_w` (`Nq·Nt × rank`); on an exact rung its
    /// segment `G[:, seg_w]` of the whitened map `G = B L⁻ᵀ`
    /// (`Nq·Nt × (k_w − k_{w−1})`).
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
    /// The Cholesky factor `L` of `K` that whitens the exact rungs' data,
    /// shared with [`crate::Phase2::k_chol`] (present iff some rung is
    /// exact).
    pub(crate) whitening: Option<Arc<Cholesky>>,
}

impl RungLadder {
    pub(crate) fn assemble(
        windows: Vec<usize>,
        per_rung: Vec<(DMatrix, Rung, Vec<f64>)>,
        nd: usize,
        basis: Option<DMatrix>,
        whitening: Option<Arc<Cholesky>>,
    ) -> Self {
        let (q_maps, rungs, q_stds) = per_rung.into_iter().collect();
        let ladder = RungLadder {
            windows,
            rungs,
            q_maps,
            q_stds,
            nd,
            basis,
            whitening,
        };
        let run = ladder.whitened_run();
        assert!(
            (run..ladder.windows.len()).all(|i| !ladder.is_whitened(i)),
            "exact rungs must form a leading run of the ladder"
        );
        assert_eq!(
            ladder.whitening.is_some(),
            run > 0,
            "a ladder holds the whitening factor iff it has exact rungs"
        );
        for i in 0..run {
            assert_eq!(ladder.q_maps[i].ncols(), ladder.segment(i).len());
        }
        ladder
    }

    /// The shared observation basis `U`, or `None` when every rung
    /// carries its own right factor or whitens.
    pub fn basis(&self) -> Option<&DMatrix> {
        self.basis.as_ref()
    }

    /// The factor `L` (`K = L Lᵀ`) that whitens the data of the exact
    /// rungs, or `None` when the ladder has none.
    pub fn whitening(&self) -> Option<&Cholesky> {
        self.whitening.as_deref()
    }

    /// True when rung `i` is exact: it lifts the whitened data through its
    /// segment of `G` (no right factor, no shared basis).
    pub fn is_whitened(&self, i: usize) -> bool {
        self.basis.is_none() && self.rungs[i].right.is_none()
    }

    /// Number of exact rungs — always a leading run of the ladder.
    pub fn whitened_run(&self) -> usize {
        (0..self.windows.len())
            .take_while(|&i| self.is_whitened(i))
            .count()
    }

    /// Data rows `seg_i = [k_{i−1}, k_i)` of exact rung `i`: the rows its
    /// lift reads from the whitened data.
    pub fn segment(&self, i: usize) -> Range<usize> {
        let start = if i == 0 {
            0
        } else {
            self.windows[i - 1] * self.nd
        };
        start..self.windows[i] * self.nd
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
    /// (which whitens instead).
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
    /// fold, then one lane-width pass over the lift ([`DMatrix::matvec`]).
    /// An exact rung is [`Self::forecast_batch`] on one column, so it
    /// follows the one lift rule.
    pub fn forecast(&self, i: usize, d_window: &[f64]) -> Forecast {
        let k = self.windows[i] * self.nd;
        assert_eq!(d_window.len(), k, "window {i} expects {k} data entries");
        match self.right(i) {
            None => self
                .forecast_batch(i, &DMatrix::from_vec(k, 1, d_window.to_vec()))
                .scenario(0),
            Some(r) => {
                let mut z = vec![0.0; r.ncols()];
                r.matvec_t(d_window, &mut z);
                forecast_with(&self.q_maps[i], &self.q_stds[i], &z)
            }
        }
    }

    /// Forecast a block of streams from the same window (fold + lift):
    /// `d_window` is `windows[i]·Nd × B`, one stream per column, and the
    /// lift is one GEMM per segment instead of `B` matvecs. An exact rung
    /// whitens the block (`Y = L⁻¹ D`, one forward sweep) and lifts its
    /// segments by the ladder's one rule. The reference the streaming
    /// engine's incremental lift is tested against; the posterior std is
    /// data-independent, so one vector serves every column.
    pub fn forecast_batch(&self, i: usize, d_window: &DMatrix) -> ForecastBatch {
        let t0 = Instant::now();
        let k = self.windows[i] * self.nd;
        assert_eq!(d_window.nrows(), k, "window {i} expects {k} data rows");
        let q_map = match self.right(i) {
            None => self.lift_whitened(i, &self.whiten(d_window)),
            Some(r) => self.q_maps[i].matmul(&r.matmul_tn(d_window)),
        };
        ForecastBatch {
            q_map,
            q_std: self.q_stds[i].clone(),
            seconds: t0.elapsed().as_secs_f64(),
        }
    }

    /// Whitened data `Y = L⁻¹ D` of a `k × B` block, as an RHS-major
    /// panel (one stream per row): one forward sweep, panel-parallel.
    fn whiten(&self, d: &DMatrix) -> RhsPanel {
        let l = self
            .whitening()
            .expect("exact rung without a whitening factor");
        let mut y = RhsPanel::from_matrix(d);
        let k = d.nrows();
        sweep_rows(y.as_mut_slice(), k, |rows| l.forward_range(0, k, rows));
        y
    }

    /// The exact rung `i`'s forecast block from whitened data `y`: `q = 0`,
    /// then for every segment `j ≤ i` in ascending order `c = G_j Y_j`
    /// (a fresh GEMM), `q += c`.
    fn lift_whitened(&self, i: usize, y: &RhsPanel) -> DMatrix {
        let nq = self.q_maps[i].nrows();
        let mut q = DMatrix::zeros(nq, y.nrhs());
        for j in 0..=i {
            let seg = self.segment(j);
            let yj = DMatrix::from_fn(seg.len(), y.nrhs(), |r, c| y.row(c)[seg.start + r]);
            let c = self.q_maps[j].matmul(&yj);
            for (qv, cv) in q.as_mut_slice().iter_mut().zip(c.as_slice()) {
                *qv += cv;
            }
        }
        q
    }

    /// The dense operator `T_i = G[:, :k_i] L_i⁻¹` of exact rung `i`,
    /// rebuilt on demand (one backward sweep of each row of the whitened
    /// map's leading columns) — bit for bit the leading solve
    /// `B_i K_i⁻¹`.
    pub(crate) fn rung_operator(&self, i: usize) -> DMatrix {
        let l = self
            .whitening()
            .expect("exact rung without a whitening factor");
        assert!(self.is_whitened(i), "rung {i} is not exact");
        let k = self.windows[i] * self.nd;
        let nq = self.q_maps[i].nrows();
        let mut t = Vec::with_capacity(nq * k);
        for r in 0..nq {
            for j in 0..=i {
                t.extend_from_slice(self.q_maps[j].row(r));
            }
        }
        sweep_rows(&mut t, k, |rows| l.backward_range(k, 0, k, rows));
        DMatrix::from_vec(nq, k, t)
    }

    /// Resident elements of the whole ladder (shared basis, per-rung
    /// lifts and factors, and the whitening factor when the ladder is its
    /// only owner) — compare with [`Self::windowed_resident_elems`] for
    /// the compression ratio.
    pub fn resident_elems(&self) -> usize {
        let elems = |m: &DMatrix| m.nrows() * m.ncols();
        let factor = self
            .whitening
            .as_ref()
            .filter(|l| Arc::strong_count(l) == 1)
            .map_or(0, |l| l.dim() * l.dim());
        factor
            + self.basis.as_ref().map_or(0, elems)
            + self.q_maps.iter().map(elems).sum::<usize>()
            + self
                .rungs
                .iter()
                .map(|r| r.right.as_ref().map_or(0, elems) + r.m_map.as_ref().map_or(0, elems))
                .sum::<usize>()
    }

    /// Resident elements of one dense `T_w` per rung (`Σ Nq·Nt × w·Nd`) —
    /// the footprint of the dense ladder, which no builder holds any more.
    pub fn windowed_resident_elems(&self) -> usize {
        let nq = self.q_stds.first().map_or(0, |s| s.len());
        self.windows.iter().map(|&w| nq * w * self.nd).sum()
    }
}

/// Rows of an RHS-major sweep handled per parallel task.
const SWEEP_ROWS: usize = 64;

/// Run a triangular-sweep kernel over the rows (each `len` long) of an
/// RHS-major buffer, in parallel panels of [`SWEEP_ROWS`] rows. Every row
/// is swept independently, so the panel split does not change a bit.
pub(crate) fn sweep_rows(data: &mut [f64], len: usize, sweep: impl Fn(&mut [&mut [f64]]) + Sync) {
    data.par_chunks_mut(SWEEP_ROWS * len).for_each(|panel| {
        let mut rows: Vec<&mut [f64]> = panel.chunks_exact_mut(len).collect();
        sweep(&mut rows);
    });
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
