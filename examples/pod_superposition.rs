//! POD mode-space identification + superposition forecasting on an
//! off-bank event.
//!
//! The scenario bank is compressed to a handful of POD modes
//! (`ScenarioBank::compress`); the streaming engine then identifies in
//! mode space at `r × B` cost per tick instead of `rows × B`
//! (`IdentifyBackend::ModeSpace`). The live event is deliberately *not in
//! the bank*: it is an even blend of two bank scenarios, so by linearity
//! of the forward model its true forecast is the blend of their
//! forecasts. A best-fit (single-scenario) forecast must pick one of the
//! two and eat the full gap between them; the posterior-weighted
//! **superposition** (`StreamEngine::superposed_forecast`) mixes the
//! bank's forecasts under the identification posterior and lands near the
//! blended truth — with a credible band honestly widened by the
//! between-scenario spread.
//!
//! ```text
//! cargo run --release --example pod_superposition
//! ```
//!
//! `cargo test` runs it too: the `assert!`s check the posterior split and
//! the superposition's margin over best-fit.

use cascadia_dt::prelude::*;
use cascadia_dt::twin::metrics::rel_l2;

fn main() {
    println!("== POD mode-space identification + superposition forecast ==\n");
    let config = TwinConfig::tiny();

    // 1. Offline: scenario bank, twin, window ladder, and per-scenario
    //    forecasts from the bank's clean observations.
    let n_scenarios = 8;
    let specs = ScenarioBank::family(&config, n_scenarios, 13);
    let solver = config.build_solver();
    let bank = ScenarioBank::generate(&config, &solver, &specs);
    drop(solver);
    let twin = DigitalTwin::offline(config, bank.noise_std());
    let nt = twin.solver.grid.nt_obs;
    let forecaster = twin.windowed(&[nt]);
    let w_last = forecaster.windows.len() - 1;
    let bank_fc = forecaster.forecast_batch(w_last, bank.clean_observations());

    // 2. POD-compress the bank and report the rank/energy tradeoff.
    println!("rank/energy tradeoff of the clean block:");
    for r in [1, 2, 4, n_scenarios] {
        let p = bank.compress(r);
        println!(
            "  r = {:>2}: captured energy {:>8.4} %, max residual {:.3e}",
            p.rank(),
            100.0 * p.captured_energy(),
            p.residual_energy().iter().cloned().fold(0.0, f64::max)
        );
    }
    let pod = bank.compress_energy(0.9999, n_scenarios);
    println!(
        "\nusing r = {} modes ({:.4} % of the energy) for identification\n",
        pod.rank(),
        100.0 * pod.captured_energy()
    );
    assert!(pod.rank() >= 1 && pod.rank() <= n_scenarios);
    assert!(pod.captured_energy() >= 0.9999 || pod.rank() == n_scenarios);

    // 3. The off-bank event: an even blend of two bank scenarios. By
    //    linearity, its clean observations and its true forecast are the
    //    same blend.
    let (a, b) = (1usize, 4usize);
    let ca = bank.clean_observations().col(a);
    let cb = bank.clean_observations().col(b);
    let d_event: Vec<f64> = ca.iter().zip(&cb).map(|(x, y)| 0.5 * (x + y)).collect();
    let fa = bank_fc.scenario(a);
    let fb = bank_fc.scenario(b);
    let q_truth: Vec<f64> = fa
        .q_map
        .iter()
        .zip(&fb.q_map)
        .map(|(x, y)| 0.5 * (x + y))
        .collect();
    println!("live event: 0.5 · (scenario {a}) + 0.5 · (scenario {b})  — not in the bank");

    // 4. Stream it through the engine in mode space.
    let stream_cfg = StreamConfig {
        identify: IdentifyBackend::ModeSpace,
        ..StreamConfig::default()
    };
    let mut engine = StreamEngine::new(&twin, &forecaster, stream_cfg)
        .with_bank(&bank)
        .with_pod(&pod);
    let id = engine.open();
    let step = twin.solver.sensors.len();
    let mut fed = 0;
    while fed < d_event.len() {
        let hi = (fed + step).min(d_event.len());
        engine.push(id, &d_event[fed..hi]);
        fed = hi;
        engine.tick();
    }

    let matches = engine.ranked_matches(id);
    println!("\nidentification posterior (top 4 of {}):", matches.len());
    for m in matches.iter().take(4) {
        println!("  scenario {:>2}: p = {:.3}", m.scenario, m.probability);
    }
    // The posterior splits evenly between the two blend parents.
    let parents = [matches[0].scenario, matches[1].scenario];
    assert!(parents.contains(&a) && parents.contains(&b));
    assert!((matches[0].probability - 0.5).abs() < 0.05);

    // 5. Best-fit single scenario vs posterior-weighted superposition.
    let best_fit = bank_fc.scenario(matches[0].scenario);
    let mix = engine.superposed_forecast(id, &bank_fc);
    assert!(mix.q_map.iter().all(|v| v.is_finite()));
    assert!(mix.q_std.iter().all(|v| v.is_finite() && *v >= 0.0));
    let err_best = rel_l2(&best_fit.q_map, &q_truth);
    let err_mix = rel_l2(&mix.q_map, &q_truth);
    println!("\nforecast error against the blended truth (rel L2):");
    println!(
        "  best-fit scenario {:>2}: {:.3e}",
        matches[0].scenario, err_best
    );
    println!("  superposition       : {:.3e}", err_mix);
    println!(
        "  band widening (mean q_std ratio): {:.2}x",
        mix.q_std.iter().sum::<f64>() / best_fit.q_std.iter().sum::<f64>().max(1e-300)
    );
    assert!(
        err_mix < 0.1 * err_best,
        "superposition must beat the best-fit forecast by 10x on an off-bank blend"
    );
    println!(
        "\nsuperposition beats best-fit: {:.1}x closer to the blended truth",
        err_best / err_mix.max(1e-300)
    );
}
