//! Service-scale bench: sharded-engine tick latency across the
//! open-session ladder. (Pool dispatch cost is `perf_report`'s
//! `rayon.dispatch.us`.)
//!
//! **`service_scale`** (hand-rolled sweep, printed table) — a
//! [`StreamEngine`] over the tiny twin with a synthetic identification
//! bank, swept over open-session counts 10³–10⁵ (extendable to 10⁶
//! via `SERVICE_SCALE_MAX`) × shard counts {1, 4, 8}. Every tick
//! pushes one observation step into every session and ticks; per-tick
//! latencies give p50/p95/p99 and sessions/sec, and the per-shard
//! panel peaks demonstrate the bounded working set
//! ([`StreamEngine::shard_panel_peaks`]).
//!
//! Set `BENCH_SMOKE=1` for a CI smoke run (10³ sessions, shards {1, 2},
//! the full horizon of ticks, so every session crosses both rungs). Shard
//! parallelism only helps with >1 worker; pin `RAYON_NUM_THREADS=4` (or
//! install) for the headline numbers.
//!
//! A second measurement, **`obs_gate`**, is a correctness gate rather
//! than a table: it re-assimilates the same engine with observability on
//! and off ([`tsunami_obs::set_enabled`]) and asserts the off time is
//! within 1% of the on time (min-of-N blocks of passes, each block long
//! enough that timer granularity is negligible) — the `OBS=off` kill
//! switch must actually kill the instrumentation cost. Beside the verdict
//! it prints an A/A ratio (a second `on` series against the first), the
//! spread the host itself puts between two identical sides.

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Instant;
use tsunami_core::{DigitalTwin, ScenarioBank, TwinConfig};
use tsunami_linalg::DMatrix;
use tsunami_stream::{StreamConfig, StreamEngine};

/// Minimum wall clock of one timed block of the `OBS=off` gate: long
/// enough that a microsecond of clock granularity is under 0.01 % of it.
const GATE_BLOCK_S: f64 = 0.02;

/// A bank of `n_scen` deterministic synthetic curves over the twin's data
/// space — identification load without the offline scenario solves.
fn synthetic_bank(twin: &DigitalTwin, n_scen: usize) -> ScenarioBank {
    let n_d = twin.n_data();
    let clean = DMatrix::from_fn(n_d, n_scen, |i, j| ((i * 13 + 7 * j) as f64 * 0.17).sin());
    ScenarioBank::synthetic(clean.clone(), clean, 0.05)
}

/// `BENCH_SMOKE=1`: the small CI configuration (in-bench gates still run).
fn smoke_mode() -> bool {
    std::env::var("BENCH_SMOKE").is_ok_and(|v| v == "1")
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

/// The session-ladder sweep. Not a criterion group: each configuration
/// is one engine lifetime, and the quantity of interest is the per-tick
/// latency *distribution*, which criterion's mean/min summary hides.
fn service_scale_sweep() {
    let smoke = smoke_mode();
    let cfg = TwinConfig::tiny();
    let twin = DigitalTwin::offline(cfg, 0.02);
    let nt = twin.solver.grid.nt_obs;
    let nd = twin.solver.sensors.len();
    let forecaster = twin.windowed(&[nt / 2, nt]);
    let bank = synthetic_bank(&twin, 32);

    let (session_ladder, shard_counts, n_ticks): (Vec<usize>, Vec<usize>, usize) = if smoke {
        (vec![1_000], vec![1, 2], nt)
    } else {
        let mut ladder = vec![1_000, 10_000, 100_000];
        if let Ok(max) = std::env::var("SERVICE_SCALE_MAX") {
            if let Ok(max) = max.parse::<usize>() {
                ladder.retain(|&s| s <= max);
                if !ladder.contains(&max) {
                    ladder.push(max);
                }
            }
        }
        (ladder, vec![1, 4, 8], nt)
    };

    println!("\nservice_scale: sessions/sec × tick-latency percentiles");
    println!(
        "  (tiny twin, Nd={nd}, horizon {nt} steps, bank {} scenarios)",
        bank.len()
    );
    println!(
        "{:>9} {:>7} {:>12} {:>10} {:>10} {:>10} {:>14} {:>10}",
        "sessions",
        "shards",
        "sess/sec",
        "p50 ms",
        "p95 ms",
        "p99 ms",
        "peak panel/sh",
        "pool jobs"
    );
    for &n_sessions in &session_ladder {
        for &shards in &shard_counts {
            let stream_cfg = StreamConfig {
                shards,
                infer: false,
                ..StreamConfig::default()
            };
            let mut engine = StreamEngine::new(&twin, &forecaster, stream_cfg).with_bank(&bank);
            let ids: Vec<usize> = (0..n_sessions).map(|_| engine.open()).collect();

            // One observation step per session per tick: the steady
            // service pattern, every session advancing in lockstep.
            let mut latencies = Vec::with_capacity(n_ticks);
            for step in 0..n_ticks {
                let lo = step * nd;
                for (s, &id) in ids.iter().enumerate() {
                    let sample: Vec<f64> = (lo..lo + nd)
                        .map(|i| ((i * 11 + s) as f64 * 0.19).sin())
                        .collect();
                    engine.push(id, &sample);
                }
                let tm = engine.tick();
                latencies.push(tm.seconds * 1e3);
            }
            latencies.sort_by(f64::total_cmp);

            let em = engine.metrics();
            let peaks = engine.shard_panel_peaks();
            let per_shard_peak = peaks.iter().copied().max().unwrap_or(0);
            // Session-ticks per second of tick time: every open session is
            // scored every tick, so the service rate is sessions × ticks
            // over the summed tick latencies.
            let rate = (n_sessions * n_ticks) as f64 / em.seconds.max(1e-12);
            println!(
                "{:>9} {:>7} {:>12.0} {:>10.3} {:>10.3} {:>10.3} {:>14} {:>10}",
                n_sessions,
                shards,
                rate,
                percentile(&latencies, 0.50),
                percentile(&latencies, 0.95),
                percentile(&latencies, 0.99),
                per_shard_peak,
                em.pool_jobs,
            );
            // Every session crosses both rungs once.
            assert_eq!(em.assimilations, 2 * n_sessions);

            // The engine's telemetry must render as a *parseable*
            // Prometheus exposition covering all four tick stages, and
            // the JSON snapshot must carry their percentiles.
            let text = engine.registry().render_prometheus();
            let samples = tsunami_obs::validate_exposition(&text).expect("exposition must parse");
            assert!(samples > 0, "exposition rendered no samples");
            let json = engine.registry().render_json();
            for stage in ["drain", "identify", "assimilate", "classify"] {
                assert!(
                    text.contains(&format!("stream_tick_{stage}_count")),
                    "stage {stage} missing from exposition"
                );
                assert!(
                    json.contains(&format!("\"stream.tick.{stage}\":{{\"count\"")),
                    "stage {stage} missing from JSON snapshot"
                );
            }
        }
    }
}

/// The `OBS=off` kill-switch gate: the same rewind + re-assimilation
/// pass, with instrumentation on vs off, must agree in min-of-N wall
/// clock to within 1%. Each sample times a block of passes lasting at
/// least [`GATE_BLOCK_S`], so no absolute slack is needed. Every rep
/// times three blocks — `on`, `off`, and a second `on` series for the
/// A/A ratio — in mirrored order on alternate reps (`on off on′`, then
/// `on′ off on`), so every side sits at the same mean position and a
/// drift in host load favours none. The off path does strictly less work
/// (no clock reads, no records), so a gate failure means the kill switch
/// is not actually killing the overhead — unless the A/A ratio printed
/// beside it is as far from 1 as the verdict, in which case the host was
/// too noisy to tell.
fn obs_off_gate() {
    let smoke = smoke_mode();
    let cfg = TwinConfig::tiny();
    let twin = DigitalTwin::offline(cfg, 0.02);
    let nt = twin.solver.grid.nt_obs;
    let nd = twin.solver.sensors.len();
    let forecaster = twin.windowed(&[nt / 2, nt]);
    let bank = synthetic_bank(&twin, 32);
    let stream_cfg = StreamConfig {
        infer: false,
        ..StreamConfig::default()
    };
    let mut engine = StreamEngine::new(&twin, &forecaster, stream_cfg).with_bank(&bank);
    let n_sessions = if smoke { 64 } else { 256 };
    let ids: Vec<usize> = (0..n_sessions).map(|_| engine.open()).collect();
    // Fill every session to the horizon once; each measured pass then
    // rewinds and re-assimilates the full ladder in one tick — identical
    // work every pass, no identification (scores are already caught up).
    for (s, &id) in ids.iter().enumerate() {
        let samples: Vec<f64> = (0..nt * nd)
            .map(|i| ((i * 11 + s) as f64 * 0.19).sin())
            .collect();
        engine.push(id, &samples);
    }
    engine.tick();

    let mut block = |on: bool, passes: usize| -> f64 {
        tsunami_obs::set_enabled(on);
        let t0 = Instant::now();
        for _ in 0..passes {
            engine.rewind();
            engine.tick();
        }
        t0.elapsed().as_secs_f64()
    };
    let was = tsunami_obs::enabled();
    block(true, 10); // warmup (allocators, branch predictors)
    let passes = ((GATE_BLOCK_S * 10.0 / block(true, 10)).ceil() as usize).max(1);
    let reps = if smoke { 10 } else { 20 };
    // Min-of-reps per side: `on`, `off`, and the A/A `on` series. Rep 0
    // is untimed, so no side takes the blocks run while the host settles.
    let mut t = [f64::INFINITY; 3];
    for rep in 0..=reps {
        for k in 0..3 {
            let side = if rep % 2 == 0 { k } else { 2 - k };
            let dt = block(side != 1, passes);
            if rep > 0 {
                t[side] = t[side].min(dt);
            }
        }
    }
    tsunami_obs::set_enabled(was);
    let [t_on, t_off, t_aa] = t;

    println!(
        "obs_gate: min-of-{reps} blocks of {passes} rewind+tick passes: \
         on {:.3} ms, off {:.3} ms (off/on {:.4}, bound 1.01; A/A on/on {:.4})",
        t_on * 1e3,
        t_off * 1e3,
        t_off / t_on,
        t_aa / t_on
    );
    assert!(
        t_off <= t_on * 1.01,
        "OBS=off block ({t_off:.6}s) regressed more than 1% against OBS=on ({t_on:.6}s)"
    );
}

fn bench_service_scale(_c: &mut Criterion) {
    service_scale_sweep();
    obs_off_gate();
}

criterion_group!(benches, bench_service_scale);
criterion_main!(benches);
