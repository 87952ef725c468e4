//! Golden regression test: pins the quickstart (`TwinConfig::tiny()`,
//! event seed 42) posterior-mean and forecast-CI numbers.
//!
//! The single-vector `infer`/`forecast` run their own lane-width kernels
//! (one-row Cholesky sweeps, the frequency-parallel FFT apply, a
//! row-parallel `Q·d`); this test proves their numerics did not drift
//! (and guards every future refactor of the FFT / solve spine the same
//! way). Tolerances are 1e-7 relative — far above roundoff reshuffling, far
//! below any real numerical change.

use cascadia_dt::prelude::*;

/// Relative agreement check against a pinned golden value.
fn close(got: f64, want: f64, what: &str) {
    let tol = 1e-7 * want.abs().max(1e-12);
    assert!(
        (got - want).abs() <= tol,
        "{what} drifted: got {got:.15e}, golden {want:.15e}"
    );
}

#[test]
fn quickstart_numbers_match_golden() {
    let config = TwinConfig::tiny();
    let solver = config.build_solver();
    let rupture = SyntheticEvent::default_rupture(&config);
    let event = SyntheticEvent::generate(&config, &solver, &rupture, 42);
    drop(solver);

    let twin = DigitalTwin::offline(config, event.noise_std);
    let inference = twin.infer(&event.d_obs);
    let forecast = twin.forecast(&event.d_obs);

    let m_norm = inference.m_map.iter().map(|v| v * v).sum::<f64>().sqrt();
    let m_absmax = inference.m_map.iter().fold(0.0f64, |a, v| a.max(v.abs()));
    let q_norm = forecast.q_map.iter().map(|v| v * v).sum::<f64>().sqrt();
    let (ci_lo, ci_hi) = forecast.ci95(0);

    close(event.noise_std, GOLDEN_NOISE_STD, "noise_std");
    close(m_norm, GOLDEN_M_NORM, "‖m_map‖₂");
    close(m_absmax, GOLDEN_M_ABSMAX, "max|m_map|");
    close(inference.m_map[0], GOLDEN_M_FIRST, "m_map[0]");
    close(q_norm, GOLDEN_Q_NORM, "‖q_map‖₂");
    close(forecast.q_map[0], GOLDEN_Q_FIRST, "q_map[0]");
    close(
        *forecast.q_map.last().unwrap(),
        GOLDEN_Q_LAST,
        "q_map[last]",
    );
    close(forecast.q_std[0], GOLDEN_QSTD_FIRST, "q_std[0]");
    close(ci_lo, GOLDEN_CI0_LO, "ci95(0).lo");
    close(ci_hi, GOLDEN_CI0_HI, "ci95(0).hi");

    // Windowed online path: pin the half-horizon forecast (the operator
    // the streaming engine rides). Guards the leading-block multi-RHS
    // solve and the WindowedForecaster build the same way the full-window
    // numbers guard the Phase-4 spine.
    let nt = twin.solver.grid.nt_obs;
    let nd = twin.solver.sensors.len();
    let w = nt / 2;
    let wf = twin.windowed(&[w]);
    let wfc = wf.forecast(0, &event.d_obs[..w * nd]);
    let wq_norm = wfc.q_map.iter().map(|v| v * v).sum::<f64>().sqrt();
    close(wq_norm, GOLDEN_WQ_NORM, "windowed ‖q_map‖₂");
    close(wfc.q_map[0], GOLDEN_WQ_FIRST, "windowed q_map[0]");
    close(
        *wfc.q_map.last().unwrap(),
        GOLDEN_WQ_LAST,
        "windowed q_map[last]",
    );
    close(wfc.q_std[0], GOLDEN_WQSTD_FIRST, "windowed q_std[0]");
    close(
        *wfc.q_std.last().unwrap(),
        GOLDEN_WQSTD_LAST,
        "windowed q_std[last]",
    );
}

// Golden values recorded from the quickstart flow at the batch-first
// refactor (seed 42, TwinConfig::tiny()). Regenerate by printing the
// measured quantities above if an *intentional* numerical change lands.
const GOLDEN_NOISE_STD: f64 = 1.5840007285903332e2;
const GOLDEN_M_NORM: f64 = 9.776409991554305e-1;
const GOLDEN_M_ABSMAX: f64 = 2.0461262466475966e-1;
const GOLDEN_M_FIRST: f64 = 3.1703365567214837e-3;
const GOLDEN_Q_NORM: f64 = 2.175973792574409e0;
const GOLDEN_Q_FIRST: f64 = 8.427820751237089e-5;
const GOLDEN_Q_LAST: f64 = 2.966055170793353e-1;
const GOLDEN_QSTD_FIRST: f64 = 2.075809616474718e-3;
const GOLDEN_CI0_LO: f64 = -3.984233879539979e-3;
const GOLDEN_CI0_HI: f64 = 4.1527902945647215e-3;

// Windowed (half-horizon) forecast, recorded when the windowed online
// path went multi-RHS (PR 4).
const GOLDEN_WQ_NORM: f64 = 2.19342932478581e0;
const GOLDEN_WQ_FIRST: f64 = 7.860876466788191e-5;
const GOLDEN_WQ_LAST: f64 = 3.471369894750682e-1;
const GOLDEN_WQSTD_FIRST: f64 = 2.170021184652439e-3;
const GOLDEN_WQSTD_LAST: f64 = 6.034789015618633e0;
