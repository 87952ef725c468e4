//! Quickstart: the full digital-twin loop on a toy domain, in seconds.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! `cargo test` runs it too: the `assert!`s check what it prints.

use cascadia_dt::prelude::*;
use cascadia_dt::twin::metrics::{ci95_coverage, rel_l2};

fn main() {
    println!("== Cascadia digital twin: quickstart ==\n");
    let config = TwinConfig::tiny();
    println!(
        "domain {:.0} x {:.0} km, {} elements, order {}, Nd={} sensors, Nq={} forecast points",
        config.lx / 1e3,
        config.ly / 1e3,
        config.nx * config.ny * config.nz,
        config.order,
        config.n_sensors(),
        config.n_qoi
    );

    // 1. Synthesize the "truth": a kinematic rupture drives the acoustic-
    //    gravity model; sensors record pressure with 1% noise.
    let solver = config.build_solver();
    let rupture = SyntheticEvent::default_rupture(&config);
    let event = SyntheticEvent::generate(&config, &solver, &rupture, 42);
    assert!(!event.d_obs.is_empty() && event.noise_std > 0.0 && event.noise_std.is_finite());
    println!(
        "synthetic event: {} observations, noise std {:.3e} Pa",
        event.d_obs.len(),
        event.noise_std
    );
    drop(solver);

    // 2. Offline phases (run once per sensor network, not per event).
    let t0 = std::time::Instant::now();
    let twin = DigitalTwin::offline(config, event.noise_std);
    println!("offline phases 1-3: {:.2} s", t0.elapsed().as_secs_f64());

    // 3. Online: the earthquake happens, data arrive, we invert + forecast.
    let inference = twin.infer(&event.d_obs);
    let forecast = twin.forecast(&event.d_obs);
    let nq = twin.solver.qoi.len();
    let nt = twin.solver.grid.nt_obs;
    assert_eq!(inference.m_map.len(), twin.n_params());
    assert!(inference.m_map.iter().all(|v| v.is_finite()));
    assert_eq!(forecast.q_map.len(), nq * nt);
    assert_eq!(forecast.q_std.len(), nq * nt);
    assert_eq!(event.q_true.len(), nq * nt);
    assert!(forecast.q_map.iter().all(|v| v.is_finite()));
    assert!(forecast.q_std.iter().all(|v| v.is_finite() && *v >= 0.0));
    for idx in 0..nq * nt {
        let (lo, hi) = forecast.ci95(idx);
        assert!(lo <= hi, "inverted CI at index {idx}: [{lo}, {hi}]");
    }
    println!(
        "online: infer {:.3} ms, forecast {:.3} ms  (paper targets: <200 ms, <1 ms)",
        inference.seconds * 1e3,
        forecast.seconds * 1e3
    );

    // 4. How did we do? With 1% noise the wave heights must be recovered
    //    well (loose on purpose: a smoke check, not an accuracy benchmark).
    let err = rel_l2(&forecast.q_map, &event.q_true);
    let coverage = ci95_coverage(&forecast.q_map, &forecast.q_std, &event.q_true);
    println!("\nforecast quality:");
    println!("  relative L2 error vs true wave heights: {err:.3}");
    println!(
        "  95% CI coverage of the truth:           {:.0}%",
        100.0 * coverage
    );
    assert!(
        err < 0.5,
        "forecast error unexpectedly large: rel L2 = {err}"
    );
    assert!((0.0..=1.0).contains(&coverage));
    println!("\nwave-height forecast at location #0:");
    println!(
        "  {:>6}  {:>9}  {:>9}  {:>22}",
        "t (s)", "true (m)", "pred (m)", "95% CI"
    );
    for i in 0..nt {
        let idx = i * nq;
        let (lo, hi) = forecast.ci95(idx);
        println!(
            "  {:>6.1}  {:>9.4}  {:>9.4}  [{:>9.4}, {:>9.4}]",
            (i + 1) as f64 * twin.solver.grid.dt_obs(),
            event.q_true[idx],
            forecast.q_map[idx],
            lo,
            hi
        );
    }
}
