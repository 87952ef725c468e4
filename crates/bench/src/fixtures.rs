//! Fixtures shared by the streaming benches: the smoke-mode switch,
//! synthetic streams, engine preloading, and the reduced-vs-windowed
//! agreement gates.

use tsunami_core::{DigitalTwin, RungLadder, WindowedForecaster};
use tsunami_linalg::vec_ops::{norm2, rel_err};
use tsunami_stream::{forecast_band, StreamConfig, StreamEngine};

/// `BENCH_SMOKE=1`: 1-sample CI smoke run at small sizes (in-bench
/// correctness gates still run; timing floors are only printed).
pub fn smoke_mode() -> bool {
    std::env::var("BENCH_SMOKE")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Distinct synthetic full-horizon streams.
pub fn synth_streams(n_d: usize, b: usize) -> Vec<Vec<f64>> {
    (0..b)
        .map(|j| {
            (0..n_d)
                .map(|i| ((i * 7 + 3 * j) as f64 * 0.23).sin())
                .collect()
        })
        .collect()
}

/// Open one session per stream and push its whole horizon.
pub fn preload<'a>(mut eng: StreamEngine<'a>, streams: &[Vec<f64>]) -> StreamEngine<'a> {
    for d in streams {
        let id = eng.open();
        eng.push(id, d);
    }
    eng
}

fn l2_diff(a: &[f64], b: &[f64]) -> f64 {
    let sq: f64 = a.iter().zip(b).map(|(a, b)| (a - b) * (a - b)).sum();
    sq.sqrt()
}

/// Correctness gates on live engine state, against the dense windowed
/// engine on the same streams:
///
/// - every `(label, ladder, rel_tol)` in `oracles` must reproduce the
///   windowed forecasts — bit for bit when `rel_tol` is 0 (an exact
///   goal-oriented ladder), else within `rel_tol` of the forecast norm
///   (a complete mode-space basis: the projection round trip is not
///   bitwise) — with bitwise stds and identical warning levels;
/// - every `(label, ladder)` in `truncated` must stay within its
///   certified per-rung bound `trunc_bound · ‖d_w‖₂` of the windowed
///   forecasts, and may classify a session differently only where the
///   dense credible band sits within that bound of the threshold —
///   disagreement only at the certified decision boundary.
pub fn assert_agreement(
    twin: &DigitalTwin,
    forecaster: &WindowedForecaster,
    oracles: &[(&str, &RungLadder, f64)],
    truncated: &[(String, &RungLadder)],
    threshold: f64,
) {
    let streams = synth_streams(twin.n_data(), 32);
    let cfg = StreamConfig {
        infer: false,
        warn_threshold: threshold,
        ..StreamConfig::default()
    };
    let mut windowed = preload(StreamEngine::new(twin, forecaster, cfg), &streams);
    windowed.tick();
    let w = forecaster.windows.len() - 1;

    for &(label, ladder, rel_tol) in oracles {
        let mut oracle = preload(StreamEngine::goal_oriented(twin, ladder, cfg), &streams);
        oracle.tick();
        for id in 0..streams.len() {
            let fw = windowed.session(id).forecast.as_ref().unwrap();
            let fo = oracle.session(id).forecast.as_ref().unwrap();
            if rel_tol == 0.0 {
                assert_eq!(fw.q_map, fo.q_map, "{label} ladder must bit-match");
            } else {
                let err = rel_err(&fo.q_map, &fw.q_map);
                assert!(err < rel_tol, "{label}, session {id}: drifted {err}");
            }
            assert_eq!(fw.q_std, fo.q_std, "{label}: stds must carry over bitwise");
            assert_eq!(windowed.session(id).level, oracle.session(id).level);
        }
    }

    for (label, ladder) in truncated {
        let mut trunc = preload(StreamEngine::goal_oriented(twin, ladder, cfg), &streams);
        trunc.tick();
        for (id, d) in streams.iter().enumerate() {
            let fw = windowed.session(id).forecast.as_ref().unwrap();
            let ft = trunc.session(id).forecast.as_ref().unwrap();
            let err = l2_diff(&ft.q_map, &fw.q_map);
            let d_norm = norm2(d);
            let bound = ladder.mean_error_bound(w, d_norm);
            assert!(
                err <= bound + 1e-12,
                "{label}, session {id}: error {err} exceeds certified bound {bound}"
            );

            // Warning levels may only disagree when the dense credible
            // band sits within the truncation bound of the threshold.
            if windowed.session(id).level != trunc.session(id).level {
                let (lo_max, hi_max) = forecast_band(fw);
                let margin = (lo_max - threshold).abs().min((hi_max - threshold).abs());
                assert!(
                    margin <= bound,
                    "{label}, session {id}: levels disagree {} vs {} with dense \
                     margin {margin} > bound {bound}",
                    windowed.session(id).level,
                    trunc.session(id).level
                );
            }
        }
    }
    println!(
        "tick_paths agreement: {} oracle and {} truncated ladders within their gates on {} streams",
        oracles.len(),
        truncated.len(),
        streams.len()
    );
}
