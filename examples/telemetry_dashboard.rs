//! Telemetry dashboard: the observability spine end to end on one
//! mixed-backend streaming replay.
//!
//! A bank of rupture scenarios is replayed as interleaved live feeds into
//! a *goal-oriented* engine that identifies in POD *mode space* — the
//! cheapest online configuration — and every layer of telemetry the
//! engine produces is rendered afterwards:
//!
//! 1. the per-stage tick-latency table (p50/p95/p99 from the registry's
//!    log2 histograms: drain / identify / assimilate / classify),
//! 2. the per-rung assimilation latencies across the window ladder,
//! 3. the warning audit trail for one session (every level transition
//!    with the credible band and top posterior scenario behind it),
//! 4. the full Prometheus-style exposition, validated by the same parser
//!    CI uses ([`cascadia_dt::obs::validate_exposition`]).
//!
//! ```text
//! cargo run --release --example telemetry_dashboard
//! ```
//!
//! Set `OBS=off` to disable all recording: the dashboard then prints
//! every metric at zero while the engine runs at its uninstrumented speed
//! (the `service_scale` bench gates that overhead at ≤ 1% per tick).
//!
//! `cargo test` runs it too: the `assert!`s check that every surface is
//! populated (zero under `OBS=off`) and consistent with the audit ring.

use cascadia_dt::obs::{self, validate_exposition, Metric};
use cascadia_dt::prelude::*;

/// The per-shard tick stages, in pipeline order.
const STAGES: [&str; 4] = ["drain", "identify", "assimilate", "classify"];

fn main() {
    println!("== Telemetry dashboard: goal-oriented + mode-space replay ==\n");
    let config = TwinConfig::tiny();

    // Offline: scenario bank, POD compression of the bank, and the
    // rank-4 goal ladder the online engine will forecast through.
    let n_sessions = 6;
    let specs = ScenarioBank::family(&config, n_sessions, 7);
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
    println!(
        "bank: {} scenarios · POD rank {} · goal ladder {:?} steps · {} sensors",
        bank.len(),
        pod.rank(),
        windows,
        nd
    );

    // Online: interleaved replay, one observation step per session per
    // round, one engine tick per round.
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
    let em = *engine.metrics();
    println!(
        "replayed {} ticks: {} assimilations, {} panels, total {:.2} ms\n",
        em.ticks,
        em.assimilations,
        em.panels,
        em.seconds * 1e3
    );

    // 1. Per-stage latency table straight from the registry histograms.
    //    Each stage records once per shard-visit per tick (never under
    //    `OBS=off`).
    let reg = engine.registry();
    let on = obs::enabled();
    let visits = if on {
        (em.ticks * stream_cfg.shards) as u64
    } else {
        0
    };
    println!("--- per-stage tick latency (per shard-visit) ---");
    println!(
        "{:<24} {:>8} {:>10} {:>10} {:>10} {:>10}",
        "stage", "count", "mean µs", "p50 µs", "p95 µs", "p99 µs"
    );
    let stage_row = |name: &str| {
        let Some(Metric::Histogram(h)) = reg.get(name) else {
            panic!("{name} missing from the registry");
        };
        let s = h.snapshot();
        let (p50, p95, p99) = (s.quantile(0.5), s.quantile(0.95), s.quantile(0.99));
        println!(
            "{:<24} {:>8} {:>10.1} {:>10.1} {:>10.1} {:>10.1}",
            name,
            s.count,
            s.mean() / 1e3,
            p50 as f64 / 1e3,
            p95 as f64 / 1e3,
            p99 as f64 / 1e3
        );
        assert!(p50 <= p95 && p95 <= p99, "{name}: quantiles out of order");
        s.count
    };
    for stage in STAGES {
        let name = format!("stream.tick.{stage}");
        assert_eq!(stage_row(&name), visits, "{name}");
    }
    stage_row("stream.tick.total");

    // 2. Per-rung assimilation cost across the window ladder: every rung
    //    assimilated at least one chunk.
    println!("\n--- per-rung assimilation latency ---");
    for w in 0..windows.len() {
        let name = format!("stream.rung.{w}.assimilate");
        assert_eq!(stage_row(&name) > 0, on, "{name}");
    }

    // 3. The audit trail for the loudest session.
    let loud = ids
        .iter()
        .max_by_key(|&&id| engine.audit_for(id).count())
        .copied()
        .unwrap_or(0);
    println!(
        "\n--- audit trail: session S{loud} ({} transitions engine-wide) ---",
        engine.audit().len()
    );
    // The replay trips warnings; every transition's evidence is
    // self-consistent and the registry counts each one.
    assert!(!engine.audit().is_empty(), "replay produced no transitions");
    for tr in engine.audit().iter() {
        assert!(ids.contains(&tr.session) && tr.rung < windows.len() && tr.from != tr.to);
        assert!(tr.band_lo.is_finite() && tr.band_hi.is_finite());
        assert_eq!(tr.path, TickPath::GoalOriented);
    }
    let Some(Metric::Counter(c)) = reg.get("stream.warnings.transitions") else {
        panic!("stream.warnings.transitions missing from the registry");
    };
    assert_eq!(c.get(), if on { engine.audit().total() } else { 0 });
    for tr in engine.audit_for(loud) {
        let top = tr
            .top_scenario
            .map(|(s, p)| format!("#{s} (p = {p:.2})"))
            .unwrap_or_else(|| "-".into());
        println!(
            "  tick {:>2} rung {}: {:<9} -> {:<9} | band [{:>6.2}, {:>6.2}] m | top {top} | {:?}",
            tr.tick, tr.rung, tr.from, tr.to, tr.band_lo, tr.band_hi, tr.path
        );
    }

    // 4. The machine-facing views: validated Prometheus exposition and
    //    the equivalent JSON snapshot.
    let text = reg.render_prometheus();
    let samples = validate_exposition(&text).expect("exposition must parse");
    assert!(samples > 0);
    println!("\n--- exposition ({samples} samples, parser-clean) ---");
    print!("{text}");
    let json = reg.render_json();
    println!(
        "\n(JSON snapshot: {} bytes via Registry::render_json)",
        json.len()
    );
    for stage in STAGES {
        let key = format!("\"stream.tick.{stage}\":{{\"count\"");
        assert!(
            json.contains(&key),
            "JSON snapshot missing stream.tick.{stage}"
        );
    }
}
