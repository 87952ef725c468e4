//! Goal-oriented early warning: precomputed data-to-QoI operators make a
//! streaming tick a handful of small GEMMs.
//!
//! The windowed engine pays a dense `Nq·Nt × k` forecast GEMM (and,
//! with inference on, a leading-block factor walk) per assimilation
//! panel. The goal-oriented split (arXiv:2501.14911) precomputes the
//! per-rung data-to-QoI map `T_w = B_w K_w⁻¹` offline, compresses it to
//! rank `r` with a certified truncation bound, and the online tick is
//! rank-sized folds `z += R_wᵀ d` plus one small `L_w · Z`
//! materialization per rung crossing. This example streams one event
//! through both backends and reports:
//!
//! - bit-identity of the exact (uncompressed) ladder with the windowed
//!   path at every rung;
//! - the truncated ladder's worst observed error vs its certified bound
//!   `trunc_bound · ‖d_w‖₂`;
//! - warning-level timelines (all three paths must call the event the
//!   same way, up to boundary cases within the bound);
//! - offline resident memory of the dense vs factored ladder.
//!
//! ```text
//! cargo run --release --example goal_oriented_warning
//! ```
//!
//! `cargo test` runs it too: the `assert!`s check the bit-identity, the
//! bound and the final call.

use cascadia_dt::prelude::*;

fn main() {
    println!("== Goal-oriented streaming forecast ==\n");
    let config = TwinConfig::tiny();

    // Offline: synthesize a rupture event, build the twin, and precompute
    // both forecast ladders over the same window rungs.
    let solver = config.build_solver();
    let rupture = SyntheticEvent::default_rupture(&config);
    let event = SyntheticEvent::generate(&config, &solver, &rupture, 42);
    drop(solver);
    let twin = DigitalTwin::offline(config, event.noise_std);
    let nt = twin.solver.grid.nt_obs;
    let nd = twin.solver.sensors.len();
    let windows = [2, nt / 2, nt];
    let forecaster = twin.windowed(&windows);
    let gl_exact = twin.goal_ladder(&windows, &GoalOptions::exact());
    let rank = 4;
    let gl_trunc = twin.goal_ladder(&windows, &GoalOptions::rank(rank));

    println!(
        "offline ladders over windows {:?} (Nd = {nd}, horizon {nt} steps):",
        gl_exact.windows
    );
    println!(
        "  dense resident: {:>8} elems   rank-{rank} factored: {:>6} elems ({:.1}x smaller)",
        gl_trunc.windowed_resident_elems(),
        gl_trunc.resident_elems(),
        gl_trunc.windowed_resident_elems() as f64 / gl_trunc.resident_elems() as f64
    );
    assert!(gl_trunc.resident_elems() < gl_trunc.windowed_resident_elems());
    println!(
        "  per-stream fold state: {} values (vs re-reading up to {} window samples)\n",
        gl_trunc.fold_len(),
        nt * nd
    );

    // Online: the same event through all three backends, pushed in
    // sensor-step pieces with a tick after every push.
    let threshold = 0.05;
    let cfg = StreamConfig {
        infer: false,
        warn_threshold: threshold,
        ..StreamConfig::default()
    };
    let mut windowed = StreamEngine::new(&twin, &forecaster, cfg);
    let mut exact = StreamEngine::goal_oriented(&twin, &gl_exact, cfg);
    let mut trunc = StreamEngine::goal_oriented(&twin, &gl_trunc, cfg);
    let ids = [windowed.open(), exact.open(), trunc.open()];

    println!(
        "streaming the event ({} samples, tick per step):",
        event.d_obs.len()
    );
    println!(
        "{:>6} {:>6} {:>12} {:>12} {:>12} {:>12}",
        "step", "rung", "windowed", "goal-exact", "goal-trunc", "trunc err"
    );
    let mut worst_err = 0.0f64;
    let mut worst_bound = 0.0f64;
    let mut fed = 0;
    while fed < event.d_obs.len() {
        let hi = (fed + nd).min(event.d_obs.len());
        windowed.push(ids[0], &event.d_obs[fed..hi]);
        exact.push(ids[1], &event.d_obs[fed..hi]);
        trunc.push(ids[2], &event.d_obs[fed..hi]);
        fed = hi;
        windowed.tick();
        exact.tick();
        trunc.tick();

        let sw = windowed.session(ids[0]);
        if let (Some(w), Some(fw)) = (sw.window(), sw.forecast.as_ref()) {
            let fe = exact.session(ids[1]).forecast.as_ref().unwrap();
            let ft = trunc.session(ids[2]).forecast.as_ref().unwrap();
            assert_eq!(fw.q_map, fe.q_map, "exact ladder must bit-match");
            assert_eq!(sw.level, exact.session(ids[1]).level);
            let err: f64 = ft
                .q_map
                .iter()
                .zip(&fw.q_map)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
                .sqrt();
            let k = gl_trunc.windows[w] * nd;
            let d_norm = event.d_obs[..k].iter().map(|v| v * v).sum::<f64>().sqrt();
            let bound = gl_trunc.mean_error_bound(w, d_norm);
            assert!(
                err <= bound + 1e-12,
                "truncation bound violated: {err} > {bound}"
            );
            if err > worst_err {
                (worst_err, worst_bound) = (err, bound);
            }
            println!(
                "{:>6} {:>6} {:>12} {:>12} {:>12} {:>12.3e}",
                fed / nd,
                w,
                sw.level.to_string(),
                exact.session(ids[1]).level.to_string(),
                trunc.session(ids[2]).level.to_string(),
                err
            );
        }
    }

    println!("\nexact ladder: bitwise identical to the windowed path at every rung");
    println!(
        "rank-{rank} ladder: worst error {worst_err:.3e} vs certified bound {worst_bound:.3e}"
    );
    let final_level = windowed.session(ids[0]).level;
    println!("final call: {final_level} from all backends at threshold {threshold} m");
    assert_eq!(final_level, exact.session(ids[1]).level);
    assert_eq!(final_level, WarningLevel::Warning);
}
