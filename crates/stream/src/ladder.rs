//! The engine's view of the ladder it was built on.
//!
//! Every tick path is the same construction — fold `z += R_wᵀ d` as data
//! arrive, lift `q = L_w z` at a rung crossing — and differs only in
//! where a rung's lift input comes from. [`Ladder`] resolves that once,
//! at engine construction, into one [`RungView`] per rung, all borrowing
//! the caller's precomputed operators:
//!
//! | ladder handed in | [`TickPath`] | rung input ([`Source`]) | lift |
//! |---|---|---|---|
//! | [`WindowedForecaster`] | `Windowed` | ring prefix | `Q_w` |
//! | [`RungLadder`], exact rung | `GoalOriented` | ring prefix | `T_w` |
//! | [`RungLadder`], compressed rung | `GoalOriented` | own fold through `R_w` | `L_w` |
//! | [`RungLadder`] with a shared basis | `ModeSpace` | boundary snapshot of `Uᵀd` | `F̃_w` |

use tsunami_core::{RungLadder, WindowedForecaster};
use tsunami_linalg::DMatrix;

/// The tick path an engine runs — fixed by the ladder it was constructed
/// on, and stamped into every [`crate::WarningTransition`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TickPath {
    /// Dense windowed operators over the raw window
    /// ([`crate::StreamEngine::new`]).
    Windowed,
    /// Goal-oriented per-rung factors `T_w ≈ L_w R_wᵀ`
    /// ([`crate::StreamEngine::goal_oriented`]).
    GoalOriented,
    /// Reduced operators over one shared POD observation basis
    /// ([`crate::StreamEngine::mode_space`]).
    ModeSpace,
}

/// Where a rung's per-session lift input comes from.
pub(crate) enum Source<'a> {
    /// The leading `rows` ring samples (`R = I`): no fold state at all.
    Ring,
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
    /// ([`tsunami_core::infer_window_batch`]).
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
    /// Per-session fold-state length: the fold slots of all non-ring
    /// rungs, concatenated.
    pub fold_len: usize,
}

impl<'a> Ladder<'a> {
    pub fn windowed(wf: &'a WindowedForecaster, infer: bool) -> Self {
        let rungs = (0..wf.windows.len())
            .map(|w| RungView {
                k: wf.windows[w] * wf.nd,
                rows: wf.windows[w] * wf.nd,
                source: Source::Ring,
                lift: &wf.q_maps[w],
                infer: if infer { Infer::Window } else { Infer::None },
                q_std: &wf.q_stds[w],
            })
            .collect();
        Ladder {
            path: TickPath::Windowed,
            windows: &wf.windows,
            nd: wf.nd,
            rungs,
            basis: None,
            fold_len: 0,
        }
    }

    pub fn reduced(ladder: &'a RungLadder, infer: bool) -> Self {
        let basis = ladder.basis();
        let mut fold_len = 0;
        let rungs = (0..ladder.windows.len())
            .map(|w| {
                let rung = &ladder.rungs[w];
                let rows = rung.map.rank();
                let source = match (basis, rung.map.right()) {
                    (Some(_), _) => Source::Snapshot { off: fold_len },
                    (None, Some(right)) => Source::Own {
                        right,
                        off: fold_len,
                    },
                    (None, None) => Source::Ring,
                };
                if !matches!(source, Source::Ring) {
                    fold_len += rows;
                }
                let infer = if !infer {
                    Infer::None
                } else if matches!(source, Source::Ring) {
                    Infer::Window
                } else {
                    rung.m_map.as_ref().map_or(Infer::None, Infer::Reduced)
                };
                RungView {
                    k: ladder.windows[w] * ladder.nd,
                    rows,
                    source,
                    lift: rung.map.left(),
                    infer,
                    q_std: &ladder.q_stds[w],
                }
            })
            .collect();
        Ladder {
            path: if basis.is_some() {
                TickPath::ModeSpace
            } else {
                TickPath::GoalOriented
            },
            windows: &ladder.windows,
            nd: ladder.nd,
            rungs,
            basis,
            fold_len,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windowed_view_borrows_the_dense_maps_without_cloning() {
        // The dense ladder is the engine's largest resident artefact; a
        // view that cloned it would double the service's footprint.
        let wf = WindowedForecaster {
            windows: vec![1, 3],
            q_maps: vec![DMatrix::zeros(4, 2), DMatrix::zeros(4, 6)],
            q_stds: vec![vec![0.1; 4], vec![0.05; 4]],
            nd: 2,
        };
        let view = Ladder::windowed(&wf, true);
        assert_eq!(view.path, TickPath::Windowed);
        assert_eq!(view.fold_len, 0);
        for (w, rung) in view.rungs.iter().enumerate() {
            assert!(std::ptr::eq(rung.lift, &wf.q_maps[w]), "rung {w} cloned");
            assert!(std::ptr::eq(rung.q_std, wf.q_stds[w].as_slice()));
            assert_eq!(rung.rows, rung.k);
            assert!(matches!(rung.source, Source::Ring));
            assert!(matches!(rung.infer, Infer::Window));
        }
    }
}
