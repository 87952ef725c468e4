//! Smoke tests: the `examples/quickstart.rs` and
//! `examples/streaming_warning.rs` flows must run to completion on
//! `TwinConfig::tiny()` and produce finite, calibrated results.
//!
//! These mirror the examples' API sequences step for step (synthesize →
//! offline phases 1-3 → online work) so a regression in any layer the
//! examples touch fails here, in `cargo test`, without needing to spawn
//! the example binaries. CI additionally runs the quickstart binary
//! itself (`cargo run --release --example quickstart`).

use cascadia_dt::prelude::*;
use cascadia_dt::twin::metrics::{ci95_coverage, rel_l2};

#[test]
fn quickstart_example_flow_runs_to_completion_on_tiny_config() {
    let config = TwinConfig::tiny();

    // Synthesize the "truth" exactly as the example does (same seed).
    let solver = config.build_solver();
    let rupture = SyntheticEvent::default_rupture(&config);
    let event = SyntheticEvent::generate(&config, &solver, &rupture, 42);
    assert!(!event.d_obs.is_empty(), "synthetic event produced no data");
    assert!(
        event.noise_std > 0.0 && event.noise_std.is_finite(),
        "noise std must be positive and finite, got {}",
        event.noise_std
    );
    drop(solver);

    // Offline phases 1-3, then the real-time online phase.
    let twin = DigitalTwin::offline(config, event.noise_std);
    let inference = twin.infer(&event.d_obs);
    let forecast = twin.forecast(&event.d_obs);

    // Shape invariants the example's output loop relies on.
    assert_eq!(inference.m_map.len(), twin.n_params());
    assert_eq!(forecast.q_map.len(), forecast.q_std.len());
    assert_eq!(forecast.q_map.len(), event.q_true.len());
    let nq = twin.solver.qoi.len();
    let nt = twin.solver.grid.nt_obs;
    assert_eq!(forecast.q_map.len(), nq * nt);

    // Every number the example prints must be finite and sane.
    assert!(inference.m_map.iter().all(|v| v.is_finite()));
    assert!(forecast.q_map.iter().all(|v| v.is_finite()));
    assert!(
        forecast.q_std.iter().all(|v| v.is_finite() && *v >= 0.0),
        "forecast std devs must be finite and nonnegative"
    );
    for idx in 0..forecast.q_map.len() {
        let (lo, hi) = forecast.ci95(idx);
        assert!(lo <= hi, "inverted CI at index {idx}: [{lo}, {hi}]");
    }

    // Forecast quality on the tiny config: the inversion is exact in the
    // noise-free limit, so with 1% noise the wave-height field must be
    // recovered well and the 95% interval must cover a healthy fraction of
    // the truth. Thresholds are loose on purpose — this is a smoke test,
    // not an accuracy benchmark.
    let err = rel_l2(&forecast.q_map, &event.q_true);
    assert!(
        err.is_finite() && err < 0.5,
        "quickstart forecast error unexpectedly large: rel L2 = {err}"
    );
    let coverage = ci95_coverage(&forecast.q_map, &forecast.q_std, &event.q_true);
    assert!(
        (0.0..=1.0).contains(&coverage),
        "coverage must be a fraction, got {coverage}"
    );
}

#[test]
fn streaming_warning_example_flow_runs_to_completion_on_tiny_config() {
    streaming_warning_flow(TwinConfig::tiny());
}

/// The demo-scale variant of the streaming flow (`TwinConfig::demo()`),
/// behind the same env flag the example reads: the offline build takes
/// minutes on one core, so it only runs when `STREAMING_DEMO=1` is set
/// (CI and default `cargo test` skip it).
#[test]
fn streaming_warning_example_flow_demo_scale_behind_env_flag() {
    if std::env::var("STREAMING_DEMO").map(|v| v == "1") != Ok(true) {
        eprintln!("skipping demo-scale streaming smoke (set STREAMING_DEMO=1 to run)");
        return;
    }
    streaming_warning_flow(TwinConfig::demo());
}

fn streaming_warning_flow(config: TwinConfig) {
    // Bank + twin + window ladder, exactly as the example builds them
    // (same family seed; a smaller bank keeps the smoke test quick).
    let n_sessions = 4;
    let specs = ScenarioBank::family(&config, n_sessions, 7);
    let solver = config.build_solver();
    let bank = ScenarioBank::generate(&config, &solver, &specs);
    drop(solver);
    let twin = DigitalTwin::offline(config, bank.noise_std());
    let nt = twin.solver.grid.nt_obs;
    let nd = twin.solver.sensors.len();
    let ladder: Vec<usize> = [1, 2, 4, 8, nt]
        .iter()
        .cloned()
        .filter(|&w| w <= nt)
        .collect();
    let forecaster = twin.windowed(&ladder);

    let stream_cfg = StreamConfig {
        chunk: 4,
        warn_threshold: 1.0,
        infer: true,
        ..StreamConfig::default()
    };
    let mut engine = StreamEngine::new(&twin, &forecaster, stream_cfg).with_bank(&bank);
    let ids: Vec<usize> = (0..bank.len()).map(|_| engine.open()).collect();

    // Interleaved replay: one observation step per session per round.
    // Track every externally observable warning-level change so the
    // engine's audit ring can be checked against it afterwards.
    let feeds: Vec<Vec<f64>> = (0..bank.len())
        .map(|j| bank.observations().col(j))
        .collect();
    let mut levels = vec![WarningLevel::AllClear; bank.len()];
    let mut observed: Vec<Vec<(WarningLevel, WarningLevel)>> = vec![Vec::new(); bank.len()];
    for t in 0..nt {
        for (d, &id) in feeds.iter().zip(&ids) {
            let accepted = engine.push(id, &d[t * nd..(t + 1) * nd]);
            assert_eq!(accepted, nd);
        }
        let tm = engine.tick();
        assert!(tm.seconds >= 0.0 && tm.seconds.is_finite());
        for (j, &id) in ids.iter().enumerate() {
            let level = engine.session(id).level;
            if level != levels[j] {
                observed[j].push((levels[j], level));
                levels[j] = level;
            }
        }
    }

    // Every session must have completed the ladder with a finite forecast
    // and a sane identification ranking.
    for (j, &id) in ids.iter().enumerate() {
        let s = engine.session(id);
        assert!(s.is_complete(), "session {j} did not finish the horizon");
        assert_eq!(s.window(), Some(forecaster.windows.len() - 1));
        let fc = s.forecast.as_ref().expect("session never assimilated");
        assert!(fc.q_map.iter().all(|v| v.is_finite()));
        assert!(fc.q_std.iter().all(|v| v.is_finite() && *v >= 0.0));
        assert!(s.m_norm.expect("inference enabled").is_finite());
        let ranked = engine.ranked_matches(id);
        assert_eq!(ranked.len(), bank.len());
        let z: f64 = ranked.iter().map(|m| m.probability).sum();
        assert!((z - 1.0).abs() < 1e-9, "probabilities must normalize");
    }

    // The replayed streams are the bank's own scenarios: identification
    // must lock onto the right one for most sessions (loose on purpose —
    // smoke, not an accuracy benchmark).
    let correct = ids
        .iter()
        .enumerate()
        .filter(|(j, &id)| engine.ranked_matches(id)[0].scenario == *j)
        .count();
    assert!(
        correct * 2 >= bank.len(),
        "identification collapsed: {correct}/{}",
        bank.len()
    );

    // Engine accounting: every session crossed every rung once, in
    // bounded panels.
    let em = engine.metrics();
    assert_eq!(em.ticks, nt);
    assert_eq!(em.assimilations, bank.len() * forecaster.windows.len());
    assert_eq!(em.samples_ingested, bank.len() * twin.n_data());
    let bound = twin.n_data().max(twin.n_params()) * stream_cfg.chunk;
    assert!(em.peak_panel_elems <= bound);

    // The audit ring must reproduce every transition the replay observed
    // from the outside: same per-session sequence of level flips, each
    // entry's recorded credible band reclassifying to its `to` level.
    let total_observed: usize = observed.iter().map(Vec::len).sum();
    assert_eq!(engine.audit().total(), total_observed as u64);
    assert_eq!(engine.audit().evicted(), 0, "tiny replay must fit the ring");
    for (j, &id) in ids.iter().enumerate() {
        let audited: Vec<(WarningLevel, WarningLevel)> =
            engine.audit_for(id).map(|t| (t.from, t.to)).collect();
        assert_eq!(
            audited, observed[j],
            "session {j}: audit trail diverges from observed transitions"
        );
    }
    for t in engine.audit().iter() {
        assert!(t.band_lo.is_finite() && t.band_hi.is_finite());
        assert_eq!(
            cascadia_dt::stream::classify_band((t.band_lo, t.band_hi), stream_cfg.warn_threshold),
            t.to,
            "audited band must reclassify to the recorded level"
        );
        let (s, p) = t.top_scenario.expect("bank attached: posterior available");
        assert!(s < bank.len());
        assert!((0.0..=1.0).contains(&p));
    }
}

#[test]
fn telemetry_dashboard_example_flow_runs_to_completion_on_tiny_config() {
    use cascadia_dt::obs::{validate_exposition, Metric};

    // Mirrors examples/telemetry_dashboard.rs: goal-oriented forecasts +
    // mode-space identification, then every telemetry surface the engine
    // exposes must be populated and internally consistent.
    let config = TwinConfig::tiny();
    let specs = ScenarioBank::family(&config, 6, 7);
    let solver = config.build_solver();
    let bank = ScenarioBank::generate(&config, &solver, &specs);
    drop(solver);
    let twin = DigitalTwin::offline(config, bank.noise_std());
    let nt = twin.solver.grid.nt_obs;
    let nd = twin.solver.sensors.len();
    let windows: Vec<usize> = [1, 2, 4, 8, nt]
        .iter()
        .cloned()
        .filter(|&w| w <= nt)
        .collect();
    let ladder = twin.goal_ladder(&windows, &GoalOptions::rank(4));
    let pod = bank.compress_energy(0.9999, bank.len());

    let stream_cfg = StreamConfig {
        chunk: 4,
        warn_threshold: 1.0,
        infer: false,
        identify: IdentifyBackend::ModeSpace,
        ..StreamConfig::default()
    };
    let mut engine = StreamEngine::goal_oriented(&twin, &ladder, stream_cfg)
        .with_bank(&bank)
        .with_pod(&pod);
    let ids: Vec<usize> = (0..bank.len()).map(|_| engine.open()).collect();
    let feeds: Vec<Vec<f64>> = (0..bank.len())
        .map(|j| bank.observations().col(j))
        .collect();
    for t in 0..nt {
        for (d, &id) in feeds.iter().zip(&ids) {
            engine.push(id, &d[t * nd..(t + 1) * nd]);
        }
        engine.tick();
    }

    // Per-stage histograms: one record per shard-visit per tick, so each
    // stage saw exactly ticks × shards records.
    let em = engine.metrics();
    let reg = engine.registry();
    let visits = (em.ticks * stream_cfg.shards) as u64;
    for stage in ["drain", "identify", "assimilate", "classify"] {
        let name = format!("stream.tick.{stage}");
        let Some(Metric::Histogram(h)) = reg.get(&name) else {
            panic!("{name} missing from the registry");
        };
        let s = h.snapshot();
        assert_eq!(s.count, visits, "{name}: one record per shard-visit");
        assert!(s.quantile(0.5) <= s.quantile(0.95));
        assert!(s.quantile(0.95) <= s.quantile(0.99));
    }
    // Every rung of the ladder assimilated at least one chunk.
    for w in 0..windows.len() {
        let name = format!("stream.rung.{w}.assimilate");
        let Some(Metric::Histogram(h)) = reg.get(&name) else {
            panic!("{name} missing from the registry");
        };
        assert!(h.snapshot().count > 0, "{name} never recorded");
    }

    // Both machine-facing views render, and the Prometheus text parses.
    let samples = validate_exposition(&reg.render_prometheus()).expect("exposition must parse");
    assert!(samples > 0);
    let json = reg.render_json();
    for stage in ["drain", "identify", "assimilate", "classify"] {
        assert!(
            json.contains(&format!("\"stream.tick.{stage}\":{{\"count\"")),
            "JSON snapshot missing stream.tick.{stage}"
        );
    }

    // The replay trips warnings: the audit ring must hold transitions
    // whose recorded evidence is self-consistent, and the transitions
    // counter must agree with it.
    assert!(!engine.audit().is_empty(), "replay produced no transitions");
    match reg.get("stream.warnings.transitions") {
        Some(Metric::Counter(c)) => assert_eq!(c.get(), engine.audit().total()),
        other => panic!("transitions counter missing: {other:?}"),
    }
    for tr in engine.audit().iter() {
        assert!(ids.contains(&tr.session));
        assert!(tr.rung < windows.len());
        assert_ne!(tr.from, tr.to);
        assert!(tr.band_lo.is_finite() && tr.band_hi.is_finite());
        assert_eq!(tr.path, TickPath::GoalOriented);
    }
}

#[test]
fn pod_superposition_example_flow_runs_to_completion_on_tiny_config() {
    // Mirrors examples/pod_superposition.rs: POD-compress the bank,
    // identify an off-bank blend event in mode space, and check the
    // posterior-weighted superposition beats the best-fit forecast.
    let config = TwinConfig::tiny();
    let specs = ScenarioBank::family(&config, 6, 13);
    let solver = config.build_solver();
    let bank = ScenarioBank::generate(&config, &solver, &specs);
    drop(solver);
    let twin = DigitalTwin::offline(config, bank.noise_std());
    let nt = twin.solver.grid.nt_obs;
    let forecaster = twin.windowed(&[nt]);
    let bank_fc =
        forecaster.forecast_batch(forecaster.windows.len() - 1, bank.clean_observations());

    let pod = bank.compress_energy(0.9999, bank.len());
    assert!(pod.rank() >= 1 && pod.rank() <= bank.len());
    assert!(pod.captured_energy() >= 0.9999 || pod.rank() == bank.len());

    // Off-bank event: even blend of two bank scenarios.
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

    let stream_cfg = StreamConfig {
        identify: IdentifyBackend::ModeSpace,
        ..StreamConfig::default()
    };
    let mut engine = StreamEngine::new(&twin, &forecaster, stream_cfg)
        .with_bank(&bank)
        .with_pod(&pod);
    let id = engine.open();
    engine.push(id, &d_event);
    engine.tick();

    // The posterior must split between the two blend parents.
    let matches = engine.ranked_matches(id);
    let parents = [matches[0].scenario, matches[1].scenario];
    assert!(parents.contains(&a) && parents.contains(&b));
    assert!((matches[0].probability - 0.5).abs() < 0.05);

    // Superposition must beat best-fit against the blended truth.
    let best_fit = bank_fc.scenario(matches[0].scenario);
    let mix = engine.superposed_forecast(id, &bank_fc);
    assert!(mix.q_map.iter().all(|v| v.is_finite()));
    assert!(mix.q_std.iter().all(|v| v.is_finite() && *v >= 0.0));
    let err_best = rel_l2(&best_fit.q_map, &q_truth);
    let err_mix = rel_l2(&mix.q_map, &q_truth);
    assert!(
        err_mix < 0.1 * err_best,
        "superposition ({err_mix}) should decisively beat best-fit ({err_best})"
    );
}

#[test]
fn goal_oriented_warning_example_flow_runs_to_completion_on_tiny_config() {
    // Mirrors examples/goal_oriented_warning.rs: one event streamed
    // through the windowed backend, the exact goal ladder, and a
    // truncated goal ladder; exact must bit-match, truncated must stay
    // within its certified bound, and the final warning call must agree.
    let config = TwinConfig::tiny();
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
    let gl_trunc = twin.goal_ladder(&windows, &GoalOptions::rank(4));
    assert!(gl_trunc.resident_elems() < gl_trunc.windowed_resident_elems());

    let cfg = StreamConfig {
        infer: false,
        warn_threshold: 0.05,
        ..StreamConfig::default()
    };
    let mut windowed = StreamEngine::new(&twin, &forecaster, cfg);
    let mut exact = StreamEngine::goal_oriented(&twin, &gl_exact, cfg);
    let mut trunc = StreamEngine::goal_oriented(&twin, &gl_trunc, cfg);
    let ids = [windowed.open(), exact.open(), trunc.open()];

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
            assert_eq!(fw.q_map, fe.q_map, "exact ladder must bit-match");
            assert_eq!(sw.level, exact.session(ids[1]).level);

            let ft = trunc.session(ids[2]).forecast.as_ref().unwrap();
            assert!(ft.q_map.iter().all(|v| v.is_finite()));
            let err: f64 = ft
                .q_map
                .iter()
                .zip(&fw.q_map)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
                .sqrt();
            let k = gl_trunc.windows[w] * nd;
            let d_norm = event.d_obs[..k].iter().map(|v| v * v).sum::<f64>().sqrt();
            assert!(
                err <= gl_trunc.mean_error_bound(w, d_norm) + 1e-12,
                "rung {w}: truncation bound violated"
            );
        }
    }
    assert_eq!(windowed.session(ids[0]).level, exact.session(ids[1]).level);
    assert_eq!(windowed.session(ids[0]).level, WarningLevel::Warning);
}
