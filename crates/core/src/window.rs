//! Streaming inference: the exact posterior mean from a *growing*
//! observation window.
//!
//! In operation, data arrive continuously: seconds after rupture onset only
//! a short pressure record exists, yet a warning decision cannot wait for
//! the full 420 s horizon. Because the data vector is ordered time-major,
//! the data-space Hessian of the problem restricted to the first `k`
//! observation times is exactly the leading `k·Nd × k·Nd` principal block
//! of the full `K` — and the leading principal block of a Cholesky factor
//! is the factor of the leading principal block. One offline factorization
//! therefore serves *every* window length, preserving the paper's
//! fraction-of-a-second online guarantee for each update as data stream in.
//!
//! This module holds the parameter side: [`infer_window`] /
//! [`infer_window_batch`] solve with the leading block of the factor and
//! map back through `Gᵀ`. The forecast side — one data-to-QoI operator
//! per window — is the exact [`crate::RungLadder`] of
//! [`crate::RungLadder::build`] (also named
//! [`crate::WindowedForecaster`]), whose full-horizon rung *is* Phase 3,
//! bit for bit.
//!
//! For each window the posterior is exact (no approximation): it is the
//! Bayesian solution given the data observed so far, with the unobserved
//! future contributing nothing.

use crate::phase1::Phase1;
use crate::phase2::Phase2;
use crate::phase4::{Inference, InferenceBatch};
use std::time::Instant;
use tsunami_linalg::DMatrix;

/// Online inference from a truncated observation window: the exact
/// posterior mean given only the first `k_steps` observation times,
/// `m_map(w) = Gᵀ [K_w⁻¹ d_w ; 0]`. B=1 wrapper over
/// [`infer_window_batch`].
pub fn infer_window(p1: &Phase1, p2: &Phase2, d_window: &[f64], k_steps: usize) -> Inference {
    let db = DMatrix::from_vec(d_window.len(), 1, d_window.to_vec());
    let batch = infer_window_batch(p1, p2, &db, k_steps);
    Inference {
        m_map: batch.m_map.into_vec(),
        seconds: batch.seconds,
    }
}

/// Batched windowed inference: exact posterior means for a block of
/// observation streams all truncated to the same `k_steps` window
/// (`d_window` is `k_steps·Nd × B`, one stream per column). One
/// panel-blocked RHS-major leading solve walks the truncated factor once
/// per panel (each panel transposed across the
/// [`tsunami_linalg::RhsPanel`] layout boundary once, not per column),
/// and one batched FFT `Gᵀ` pass maps the zero-padded block back to
/// parameter space — instead of one factor traversal and one FFT dispatch
/// per stream.
pub fn infer_window_batch(
    p1: &Phase1,
    p2: &Phase2,
    d_window: &DMatrix,
    k_steps: usize,
) -> InferenceBatch {
    let t0 = Instant::now();
    let nd = p1.f.out_dim;
    let k = k_steps * nd;
    assert!(k_steps <= p1.f.nt, "window exceeds the time horizon");
    assert_eq!(d_window.nrows(), k, "expected {k} data rows");
    let b = d_window.ncols();
    let kd = p2.k_chol.solve_leading_multi(k, d_window);
    // Zero-pad to the full horizon: unobserved rows contribute nothing.
    // Row-major, so the leading k rows of the padded block are exactly the
    // solved block — one contiguous copy.
    let mut padded = DMatrix::zeros(p1.fast_f.nrows(), b);
    padded.as_mut_slice()[..k * b].copy_from_slice(kd.as_slice());
    let m_map = p2.fast_g.matmat_transpose(&padded);
    InferenceBatch {
        m_map,
        seconds: t0.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TwinConfig;
    use crate::event::SyntheticEvent;
    use crate::goal::WindowedForecaster;
    use crate::metrics::rel_l2;
    use crate::stprior::SpaceTimePrior;
    use crate::twin::DigitalTwin;

    use tsunami_linalg::{Cholesky, LinearOperator};

    fn setup() -> DigitalTwin {
        DigitalTwin::offline(TwinConfig::tiny(), 0.03)
    }

    #[test]
    fn full_window_matches_phase4_exactly() {
        let twin = setup();
        let nt = twin.solver.grid.nt_obs;
        let d: Vec<f64> = (0..twin.n_data())
            .map(|i| (i as f64 * 0.21).sin())
            .collect();

        let inf_full = twin.infer(&d);
        let inf_win = infer_window(&twin.phase1, &twin.phase2, &d, nt);
        for (a, b) in inf_win.m_map.iter().zip(&inf_full.m_map) {
            assert!((a - b).abs() < 1e-12 * b.abs().max(1e-12));
        }

        let wf =
            WindowedForecaster::build(&twin.phase1, &twin.phase2, &twin.phase3, &[1, nt / 2, nt]);
        let last = wf.windows.len() - 1;
        let fc_full = twin.forecast(&d);
        let fc_win = wf.forecast(last, &d);
        // The nt-rung is Phase 3 itself (one `rung_operator`): bit-equal.
        assert_eq!(wf.q_maps[last].as_slice(), twin.phase3.q_map.as_slice());
        assert_eq!(fc_win.q_map, fc_full.q_map);
        assert_eq!(fc_win.q_std, fc_full.q_std);

        // On every rung, the single-event forecast is a column of the
        // batched one. Not bitwise: `forecast` is one lane-width dot per
        // row (`dot_lanes` sums 16 interleaved partials) and the batch is
        // the GEMM, which accumulates each entry in ascending order.
        for i in 0..wf.windows.len() {
            let k = wf.windows[i] * wf.nd;
            let block = DMatrix::from_fn(k, 3, |r, c| ((r * 5 + 3 * c) as f64 * 0.13).sin());
            let batch = wf.forecast_batch(i, &block);
            for j in 0..block.ncols() {
                let single = wf.forecast(i, &block.col(j));
                let err = rel_l2(&single.q_map, &batch.q_map.col(j));
                assert!(err < 1e-13, "rung {i} column {j}: {err}");
                assert_eq!(single.q_std, batch.q_std);
            }
        }
    }

    #[test]
    fn window_matches_dense_truncated_reference() {
        // m_map(w) must equal the dense Bayesian solution that only ever
        // saw the truncated data: Γ F_wᵀ (σ²I + F_w Γ F_wᵀ)⁻¹ d_w.
        let twin = setup();
        let nd = twin.solver.sensors.len();
        let nt = twin.solver.grid.nt_obs;
        let w_steps = nt / 2;
        let k = w_steps * nd;
        let d: Vec<f64> = (0..k).map(|i| (i as f64 * 0.37).cos()).collect();

        let inf = infer_window(&twin.phase1, &twin.phase2, &d, w_steps);

        let stp = SpaceTimePrior::new(twin.config.build_prior(), nt);
        let f_dense = twin.phase1.f.to_dense();
        let gamma = stp.to_dense();
        let fw = DMatrix::from_fn(k, f_dense.ncols(), |i, j| f_dense[(i, j)]);
        let fg = fw.matmul(&gamma);
        let mut kw = fg.matmul_nt(&fw);
        kw.shift_diag(twin.noise_std * twin.noise_std);
        kw.symmetrize();
        let ch = Cholesky::factor(&kw).unwrap();
        let kd = ch.solve(&d);
        let mut m_ref = vec![0.0; gamma.nrows()];
        fg.matvec_t(&kd, &mut m_ref);

        let err = rel_l2(&inf.m_map, &m_ref);
        assert!(err < 1e-8, "windowed inference mismatch: {err}");
    }

    #[test]
    fn uncertainty_shrinks_as_window_grows() {
        // Nested observation windows: posterior std is monotone
        // non-increasing in the window length, entry by entry.
        let twin = setup();
        let nt = twin.solver.grid.nt_obs;
        let windows: Vec<usize> = (1..=nt).collect();
        let wf = WindowedForecaster::build(&twin.phase1, &twin.phase2, &twin.phase3, &windows);
        for i in 1..wf.windows.len() {
            for (s_wide, s_narrow) in wf.q_stds[i].iter().zip(&wf.q_stds[i - 1]) {
                assert!(
                    *s_wide <= s_narrow + 1e-9 * s_narrow.abs().max(1e-12),
                    "window {} should not be more uncertain than window {}",
                    wf.windows[i],
                    wf.windows[i - 1]
                );
            }
        }
    }

    #[test]
    fn forecast_skill_improves_with_data() {
        // On a synthetic rupture, the full-window forecast must beat the
        // narrowest window.
        let cfg = TwinConfig::tiny();
        let solver = cfg.build_solver();
        let rupture = SyntheticEvent::default_rupture(&cfg);
        let ev = SyntheticEvent::generate(&cfg, &solver, &rupture, 77);
        let twin = DigitalTwin::offline(cfg, ev.noise_std);
        let nt = twin.solver.grid.nt_obs;
        let nd = twin.solver.sensors.len();
        let wf = WindowedForecaster::build(&twin.phase1, &twin.phase2, &twin.phase3, &[1, nt]);

        let fc_narrow = wf.forecast(0, &ev.d_obs[..nd]);
        let fc_full = wf.forecast(1, &ev.d_obs);
        let e_narrow = rel_l2(&fc_narrow.q_map, &ev.q_true);
        let e_full = rel_l2(&fc_full.q_map, &ev.q_true);
        assert!(
            e_full < e_narrow,
            "more data should improve the forecast: {e_full} vs {e_narrow}"
        );
    }

    #[test]
    fn batched_window_path_matches_looped_single_rhs() {
        // forecast_batch / infer_window_batch must reproduce the looped
        // B=1 path column by column, for batch widths straddling the
        // Cholesky SOLVE_PANEL (32) and for a mid-ladder window.
        let twin = setup();
        let nt = twin.solver.grid.nt_obs;
        let nd = twin.solver.sensors.len();
        let w_steps = nt / 2;
        let wf = WindowedForecaster::build(&twin.phase1, &twin.phase2, &twin.phase3, &[w_steps]);
        let k = w_steps * nd;
        for &bsz in &[1usize, 31, 33] {
            let d = DMatrix::from_fn(k, bsz, |i, j| ((i * 3 + 7 * j) as f64 * 0.19).sin());

            let fc_b = wf.forecast_batch(0, &d);
            assert_eq!(fc_b.batch_size(), bsz);
            let inf_b = infer_window_batch(&twin.phase1, &twin.phase2, &d, w_steps);
            assert_eq!(inf_b.batch_size(), bsz);

            for j in 0..bsz {
                let dj = d.col(j);
                let fc = wf.forecast(0, &dj);
                let fj = fc_b.scenario(j);
                for (a, b) in fj.q_map.iter().zip(&fc.q_map) {
                    assert!(
                        (a - b).abs() < 1e-11 * b.abs().max(1e-12),
                        "bsz={bsz} col {j}: q_map {a} vs {b}"
                    );
                }
                assert_eq!(fj.q_std, fc.q_std);

                let inf = infer_window(&twin.phase1, &twin.phase2, &dj, w_steps);
                let mj = inf_b.scenario(j);
                let norm = inf
                    .m_map
                    .iter()
                    .map(|v| v * v)
                    .sum::<f64>()
                    .sqrt()
                    .max(1e-12);
                for (a, b) in mj.iter().zip(&inf.m_map) {
                    assert!(
                        (a - b).abs() < 1e-11 * norm,
                        "bsz={bsz} col {j}: m_map drift"
                    );
                }
            }
        }
    }

    #[test]
    fn full_window_batch_matches_phase4_batch() {
        // At the full horizon the windowed batch path must agree with the
        // unwindowed Phase-4 batch path.
        let twin = setup();
        let nt = twin.solver.grid.nt_obs;
        let n_d = twin.n_data();
        let bsz = 5;
        let d = DMatrix::from_fn(n_d, bsz, |i, j| ((i + 11 * j) as f64 * 0.29).cos());
        let inf_w = infer_window_batch(&twin.phase1, &twin.phase2, &d, nt);
        let inf_full = twin.infer_batch(&d);
        for i in 0..inf_full.m_map.nrows() {
            for j in 0..bsz {
                let (a, b) = (inf_w.m_map[(i, j)], inf_full.m_map[(i, j)]);
                assert!((a - b).abs() < 1e-12 * b.abs().max(1e-12));
            }
        }
    }

    #[test]
    fn window_for_selects_widest_feasible() {
        let twin = setup();
        let nt = twin.solver.grid.nt_obs;
        let wf =
            WindowedForecaster::build(&twin.phase1, &twin.phase2, &twin.phase3, &[2, 1, nt, 2]);
        // Sorted + deduped.
        assert_eq!(wf.windows, vec![1, 2, nt]);
        assert_eq!(wf.window_for(0), None);
        assert_eq!(wf.window_for(1), Some(0));
        assert_eq!(wf.window_for(2), Some(1));
        assert_eq!(wf.window_for(nt + 5), Some(2));
    }

    #[test]
    #[should_panic(expected = "window exceeds the time horizon")]
    fn overlong_window_rejected() {
        let twin = setup();
        let nt = twin.solver.grid.nt_obs;
        let nd = twin.solver.sensors.len();
        let d = vec![0.0; (nt + 1) * nd];
        let _ = infer_window(&twin.phase1, &twin.phase2, &d, nt + 1);
    }
}
