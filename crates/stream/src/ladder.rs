//! The engine's view of the ladder it was built on.
//!
//! Every tick path is the same construction — fold `z += R_wᵀ d` as data
//! arrive, lift `q = L_w z` at a rung crossing — and differs only in
//! where a rung's lift input comes from. [`Ladder::new`] resolves that
//! once, at engine construction, into one [`RungView`] per rung, all
//! borrowing the caller's [`RungLadder`]:
//!
//! | rung of the [`RungLadder`] | rung input ([`Source`]) | lift |
//! |---|---|---|
//! | exact, whitened ([`RungLadder::build`]) | segment `seg_w` of the whitened data `y = L⁻¹d`, added onto the previous rung's forecast | `G[:, seg_w]` |
//! | own right factor ([`RungLadder::compress`]) | own fold through `R_w` | `L_w` |
//! | shared basis ([`RungLadder::project`]) | boundary snapshot of `Uᵀd` | `F̃_w` |
//!
//! The [`TickPath`] is read off the same ladder: a shared basis runs
//! [`TickPath::ModeSpace`], a ladder with any rung carrying its own
//! right factor runs [`TickPath::GoalOriented`], and a ladder of exact
//! rungs only runs [`TickPath::Windowed`].

use tsunami_core::RungLadder;
use tsunami_linalg::{Cholesky, DMatrix};

/// The tick path an engine runs — fixed by the ladder it was constructed
/// on, and stamped into every [`crate::WarningTransition`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TickPath {
    /// Every rung exact: whitened data lifted segment by segment, no fold
    /// state.
    Windowed,
    /// At least one rung folds through its own right factor `R_w`
    /// (`T_w ≈ L_w R_wᵀ`).
    GoalOriented,
    /// Every rung folds through one shared POD observation basis.
    ModeSpace,
}

/// Where a rung's per-session lift input comes from.
pub(crate) enum Source<'a> {
    /// Rows `[start, start + rows)` — the rung's segment — of the
    /// session's whitened data `y = L⁻¹d`: an exact rung, whose lift is
    /// added onto the previous rung's forecast.
    Whitened { start: usize },
    /// The session's fold slot at `off`, accumulated through the rung's
    /// own right factor.
    Own { right: &'a DMatrix, off: usize },
    /// The session's fold slot at `off`: the running projection through
    /// the ladder's shared basis, copied out when the stream crosses the
    /// rung boundary and frozen afterwards.
    Snapshot { off: usize },
}

/// How a rung produces the parameter-inference norm, if at all.
pub(crate) enum Infer<'a> {
    /// Not requested ([`crate::StreamConfig::infer`] off), or the rung
    /// has no inference operator.
    None,
    /// Leading-block solve on the gathered raw window
    /// ([`tsunami_core::infer_window_batch`]) — on an exact rung, which
    /// still reads the ring for it.
    Window,
    /// One GEMM with the rung's reduced inference lift `M̃_w`.
    Reduced(&'a DMatrix),
}

/// Everything stage 3 needs to assimilate one rung, borrowed.
pub(crate) struct RungView<'a> {
    /// Window length in data rows, `w·Nd` — the rung boundary.
    pub k: usize,
    /// Rows of the lift input gathered per session.
    pub rows: usize,
    pub source: Source<'a>,
    /// `Nq·Nt × rows`.
    pub lift: &'a DMatrix,
    pub infer: Infer<'a>,
    pub q_std: &'a [f64],
}

pub(crate) struct Ladder<'a> {
    pub path: TickPath,
    /// Window lengths in observation steps, strictly increasing.
    pub windows: &'a [usize],
    pub nd: usize,
    pub rungs: Vec<RungView<'a>>,
    /// The observation basis every rung folds through
    /// ([`Source::Snapshot`] rungs), when there is one.
    pub basis: Option<&'a DMatrix>,
    /// The factor whose forward sweep whitens the data of the
    /// [`Source::Whitened`] rungs, when there are any.
    pub whitening: Option<&'a Cholesky>,
    /// Per-session fold-state length: the fold slots of all non-whitened
    /// rungs, concatenated.
    pub fold_len: usize,
}

impl<'a> Ladder<'a> {
    pub fn new(ladder: &'a RungLadder, infer: bool) -> Self {
        let basis = ladder.basis();
        let mut fold_len = 0;
        let rungs = (0..ladder.windows.len())
            .map(|w| {
                let rung = &ladder.rungs[w];
                let lift = &ladder.q_maps[w];
                let rows = lift.ncols();
                let source = match (basis, &rung.right) {
                    (Some(_), _) => Source::Snapshot { off: fold_len },
                    (None, Some(right)) => Source::Own {
                        right,
                        off: fold_len,
                    },
                    (None, None) => Source::Whitened {
                        start: ladder.segment(w).start,
                    },
                };
                let whitened = matches!(source, Source::Whitened { .. });
                if !whitened {
                    fold_len += rows;
                }
                let infer = if !infer {
                    Infer::None
                } else if whitened {
                    Infer::Window
                } else {
                    rung.m_map.as_ref().map_or(Infer::None, Infer::Reduced)
                };
                RungView {
                    k: ladder.windows[w] * ladder.nd,
                    rows,
                    source,
                    lift,
                    infer,
                    q_std: &ladder.q_stds[w],
                }
            })
            .collect();
        let path = if basis.is_some() {
            TickPath::ModeSpace
        } else if ladder.rungs.iter().any(|r| r.right.is_some()) {
            TickPath::GoalOriented
        } else {
            TickPath::Windowed
        };
        Ladder {
            path,
            windows: &ladder.windows,
            nd: ladder.nd,
            rungs,
            basis,
            whitening: ladder.whitening(),
            fold_len,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsunami_core::{DigitalTwin, GoalOptions, ModeSpaceOptions, TwinConfig};

    #[test]
    fn view_borrows_every_ladder_kind_without_cloning() {
        // The ladder is the engine's largest resident artefact; a view that
        // cloned a lift, a right factor or the whitening factor would
        // double the service's footprint.
        let twin = DigitalTwin::offline(TwinConfig::tiny(), 0.03);
        let nt = twin.solver.grid.nt_obs;
        let nd = twin.solver.sensors.len();
        let ws = [1, nt];
        let basis = DMatrix::from_fn(twin.n_data(), 3, |i, j| f64::from(u8::from(i == j)));
        let exact = twin.windowed(&ws);
        // Rank nd keeps the one-step rung exact (its full rank) and
        // compresses the full-horizon rung: a mixed ladder.
        let svd = twin.goal_ladder(&ws, &GoalOptions::rank(nd));
        let shared = twin.mode_space_ladder(&ws, &basis, &ModeSpaceOptions::default());

        let cases: [(&RungLadder, TickPath, [&str; 2]); 3] = [
            (&exact, TickPath::Windowed, ["whitened", "whitened"]),
            (&svd, TickPath::GoalOriented, ["whitened", "own"]),
            (&shared, TickPath::ModeSpace, ["snapshot", "snapshot"]),
        ];
        for (ladder, path, sources) in cases {
            let view = Ladder::new(ladder, true);
            assert_eq!(view.path, path);
            let mut fold_len = 0;
            for (w, rung) in view.rungs.iter().enumerate() {
                assert!(
                    std::ptr::eq(rung.lift, &ladder.q_maps[w]),
                    "{path:?} rung {w} cloned"
                );
                assert!(std::ptr::eq(rung.q_std, ladder.q_stds[w].as_slice()));
                assert_eq!(rung.k, ladder.windows[w] * nd);
                assert_eq!(rung.rows, ladder.q_maps[w].ncols());
                let source = match rung.source {
                    Source::Whitened { start } => {
                        assert_eq!(start..start + rung.rows, ladder.segment(w));
                        assert!(matches!(rung.infer, Infer::Window));
                        "whitened"
                    }
                    Source::Own { right, off } => {
                        let own = ladder.rungs[w].right.as_ref().expect("own right factor");
                        assert!(std::ptr::eq(right, own), "{path:?} rung {w} cloned R");
                        assert_eq!(off, fold_len);
                        fold_len += rung.rows;
                        "own"
                    }
                    Source::Snapshot { off } => {
                        assert_eq!(off, fold_len);
                        fold_len += rung.rows;
                        "snapshot"
                    }
                };
                assert_eq!(source, sources[w], "{path:?} rung {w}");
            }
            assert_eq!(view.fold_len, fold_len);
            assert_eq!(view.basis.is_some(), path == TickPath::ModeSpace);
            assert_eq!(view.whitening.is_some(), path != TickPath::ModeSpace);
            if let Some(l) = view.whitening {
                assert!(std::ptr::eq(l, ladder.whitening().unwrap()));
                assert!(
                    std::ptr::eq(l, &*twin.phase2.k_chol),
                    "{path:?}: whitening factor cloned"
                );
            }
            if let Some(u) = view.basis {
                assert!(std::ptr::eq(u, ladder.basis().unwrap()));
            }
        }
    }
}
