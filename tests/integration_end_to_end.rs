//! End-to-end integration: rupture → PDE data → offline twin → online
//! inversion → forecast, exercised through the public facade only.

use cascadia_dt::prelude::*;
use cascadia_dt::twin::metrics::{ci95_coverage, correlation, displacement_field, rel_l2};

fn run_event(seed: u64) -> (TwinConfig, SyntheticEvent, DigitalTwin) {
    let config = TwinConfig::tiny();
    let solver = config.build_solver();
    let rupture = SyntheticEvent::default_rupture(&config);
    let event = SyntheticEvent::generate(&config, &solver, &rupture, seed);
    let twin = DigitalTwin::offline(config.clone(), event.noise_std);
    (config, event, twin)
}

#[test]
fn forecast_beats_climatology() {
    // The forecast must explain most of the true QoI variance; the "no
    // data" forecast (zero) is the baseline it must beat decisively.
    let (_cfg, event, twin) = run_event(101);
    let fc = twin.forecast(&event.d_obs);
    let err = rel_l2(&fc.q_map, &event.q_true);
    assert!(err < 0.5, "forecast error {err}");
    let zero = vec![0.0; event.q_true.len()];
    let err_zero = rel_l2(&zero, &event.q_true);
    assert!(
        err < 0.6 * err_zero,
        "forecast barely beats zero: {err} vs {err_zero}"
    );
}

#[test]
fn displacement_field_recovered() {
    let (_cfg, event, twin) = run_event(202);
    let inf = twin.infer(&event.d_obs);
    let nm = twin.solver.n_m();
    let nt = twin.solver.grid.nt_obs;
    let dt = twin.solver.grid.dt_obs();
    let b_true = displacement_field(&event.m_true, nm, nt, dt);
    let b_map = displacement_field(&inf.m_map, nm, nt, dt);
    let corr = correlation(&b_map, &b_true);
    assert!(corr > 0.6, "displacement correlation {corr}");
}

#[test]
fn credible_intervals_are_calibrated_across_noise_draws() {
    // Empirical CI coverage over repeated noise realizations should be
    // near the nominal 95% (loose band: finite sample + scale mismatch).
    let config = TwinConfig::tiny();
    let solver = config.build_solver();
    let rupture = SyntheticEvent::default_rupture(&config);
    let base = SyntheticEvent::generate(&config, &solver, &rupture, 1);
    let twin = DigitalTwin::offline(config.clone(), base.noise_std);
    let mut coverages = Vec::new();
    for seed in 0..8u64 {
        let ev = SyntheticEvent::generate(&config, &solver, &rupture, 1000 + seed);
        let fc = twin.forecast(&ev.d_obs);
        coverages.push(ci95_coverage(&fc.q_map, &fc.q_std, &ev.q_true));
    }
    let mean = coverages.iter().sum::<f64>() / coverages.len() as f64;
    assert!(
        mean > 0.75 && mean <= 1.0,
        "mean CI coverage {mean} out of calibration band; draws {coverages:?}"
    );
}

#[test]
fn inference_is_deterministic() {
    let (_cfg, event, twin) = run_event(303);
    let a = twin.infer(&event.d_obs);
    let b = twin.infer(&event.d_obs);
    assert_eq!(a.m_map, b.m_map, "online inference must be deterministic");
}

#[test]
fn online_is_far_faster_than_offline() {
    let (_cfg, event, twin) = run_event(404);
    let offline = twin.timers.total_seconds();
    let mut online = f64::INFINITY;
    for _ in 0..3 {
        online = online.min(twin.infer(&event.d_obs).seconds);
    }
    assert!(
        offline > 50.0 * online,
        "offline {offline} s vs online {online} s — decomposition pointless"
    );
}
