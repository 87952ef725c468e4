//! Criterion bench: the streaming engine's tick, swept over tick path ×
//! batch size × rank.
//!
//! All `B` live sessions sit at the full horizon; each measured tick
//! rewinds and re-assimilates every one. Per session the three paths pay
//!
//! - **windowed**: a `k × chunk` panel gather and the dense `Nq·Nt × k`
//!   forecast GEMM — `O(Nq·Nt · k)` flops;
//! - **goal-oriented** rank `r`: a refold through the rung's own right
//!   factor and an `r`-sized lift — `O(r · (k + Nq·Nt))`, no
//!   leading-block solve, no dense operator in the loop;
//! - **mode-space** rank `r`: one refold through the shared POD basis
//!   and the same `r`-sized lift — `O(r · (k + Nq·Nt))`, capped at a
//!   `k/r` speedup: the rank compression itself.
//!
//! On the `k1024` problem (4×4 sensors × 64 steps → k = 1024, 32 QoI
//! points → Nq·Nt = 2048; the shape `perf_report` measures) the flop
//! ratio at r = 32 is ≈ 21×; the measured tick is memory-bound well
//! before that, and the acceptance target is ≥ 10× faster at B = 10⁴
//! for every reduced ladder of rank ≤ 32.
//!
//! A second, small group isolates the micro-batching itself on the
//! windowed path with inference on: the *batched* engine (chunk = 64)
//! pays one leading-block factor walk per panel and one dense `Q_w · D`
//! product; the *looped* engine (chunk = 1) is the same machinery
//! degraded to one panel per session; a raw per-session baseline (direct
//! `forecast` + `infer_window` calls, no engine) isolates the engine's
//! own overhead. Target: batched ≥ 2× looped at B = 64, B = 1 parity.
//!
//! In-bench correctness gates (run in smoke mode too;
//! [`tsunami_bench::fixtures::assert_agreement`]):
//! - the *exact* goal ladder's engine forecasts bit-match the windowed
//!   engine's, session by session; a *complete* (square orthogonal)
//!   mode-space basis reproduces them within cancellation slack, stds
//!   bitwise;
//! - every truncated ladder's forecasts stay within the certified
//!   per-rung bound `trunc_bound · ‖d_w‖₂` of the windowed forecasts;
//! - warning classifications agree except where the dense forecast's
//!   credible band sits within the truncation bound of the threshold —
//!   disagreement only at the certified decision boundary.
//!
//! Run with `RAYON_NUM_THREADS=1` for the per-core story (all paths
//! shard-parallelize identically). Set `BENCH_SMOKE=1` for a 1-sample CI
//! smoke run at small `B`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::time::{Duration, Instant};
use tsunami_bench::emit::record;
use tsunami_bench::fixtures::{assert_agreement, preload, smoke_mode, synth_streams};
use tsunami_core::window::infer_window;
use tsunami_core::{
    DigitalTwin, GoalOptions, ModeSpaceOptions, RungLadder, TwinConfig, WindowedForecaster,
};
use tsunami_linalg::{randomized_svd, svd::orthonormalize, DMatrix, SvdOptions};
use tsunami_stream::{StreamConfig, StreamEngine};

/// Truncated ranks swept on both reduced paths; the acceptance gate
/// asserts the speedup at the ranks ≤ 32.
const RANKS: &[usize] = &[4, 32, 128];

/// A deterministic complete orthogonal basis of the data space: every
/// rung restriction has full row rank, so the reduced engine must
/// reproduce the windowed one on arbitrary data.
fn complete_basis(n: usize) -> DMatrix {
    let mut m = DMatrix::from_fn(n, n, |i, j| {
        if i == j {
            1.0
        } else {
            0.3 * ((i * 7 + j * 3) as f64 * 0.41).sin()
        }
    });
    let kept = orthonormalize(&mut m);
    assert_eq!(kept, n, "basis must be complete");
    m
}

/// A genuinely rank-`r` basis: leading SVD modes of a smooth block plus
/// a small identity shift (the smooth part alone has numerical rank 4,
/// which would silently clip every requested rank to 4).
fn truncated_basis(n: usize, r: usize) -> DMatrix {
    let block = DMatrix::from_fn(n, n, |i, j| {
        let smooth =
            ((i * 3 + 2 * j) as f64 * 0.11).sin() + 0.4 * ((i + 5 * j) as f64 * 0.07).cos();
        smooth + if i == j { 0.05 } else { 0.0 }
    });
    let u = randomized_svd(&block, r, SvdOptions::default()).u;
    assert_eq!(u.ncols(), r, "generator block must have rank >= {r}");
    u
}

/// Batched vs looped vs raw per-session work on the windowed path, with
/// inference on (see the module docs).
fn bench_microbatching(
    c: &mut Criterion,
    twin: &DigitalTwin,
    forecaster: &WindowedForecaster,
    smoke: bool,
) {
    let nt = twin.solver.grid.nt_obs;
    let w = forecaster.windows.len() - 1;
    let batch_sizes: &[usize] = if smoke { &[1, 64] } else { &[1, 16, 64] };

    let mut group = c.benchmark_group("windowed_microbatching");
    group.warm_up_time(Duration::from_millis(if smoke { 10 } else { 300 }));
    group.sample_size(if smoke { 1 } else { 10 });
    for &b in batch_sizes {
        let streams = synth_streams(twin.n_data(), b);
        let engine_with_chunk = |chunk: usize| {
            let cfg = StreamConfig {
                chunk,
                ..StreamConfig::default()
            };
            preload(StreamEngine::new(twin, forecaster, cfg), &streams)
        };

        group.throughput(Throughput::Elements(b as u64));
        let mut batched = engine_with_chunk(64);
        group.bench_function(BenchmarkId::new("tick_batched", b), |bench| {
            bench.iter(|| {
                batched.rewind();
                black_box(batched.tick())
            });
        });
        let mut looped = engine_with_chunk(1);
        group.bench_function(BenchmarkId::new("tick_looped", b), |bench| {
            bench.iter(|| {
                looped.rewind();
                black_box(looped.tick())
            });
        });
        group.bench_with_input(BenchmarkId::new("raw_looped", b), &streams, |bench, ds| {
            bench.iter(|| {
                for d in ds {
                    black_box(forecaster.forecast(w, black_box(d)));
                    black_box(infer_window(&twin.phase1, &twin.phase2, black_box(d), nt));
                }
            });
        });
    }
    group.finish();
}

fn bench_tick_paths(c: &mut Criterion) {
    let smoke = smoke_mode();
    // The k1024 problem: the tiny PDE mesh under a 4×4 sensor array over
    // a 64-step horizon with 32 QoI points. The 1024² Cholesky factor no
    // longer fits in cache (the regime micro-batching exists for), the
    // dense forecast GEMM is tall enough to be the tick cost the reduced
    // paths remove (the paper forecasts dozens of coastal locations at
    // full temporal resolution), and the window length k — what mode
    // space divides by r — is service-sized.
    let mut cfg = TwinConfig::tiny();
    cfg.sensor_grid = (4, 4);
    cfg.nt_obs = 64;
    cfg.n_qoi = 32;
    let twin = DigitalTwin::offline(cfg, 0.02);
    let nt = twin.solver.grid.nt_obs;
    let n_d = twin.n_data();
    let windows = [nt / 2, nt];
    let forecaster = twin.windowed(&windows);
    let gl_exact = twin.goal_ladder(&windows, &GoalOptions::exact());
    let ms_opts = ModeSpaceOptions::default();
    let ms_full = twin.mode_space_ladder(&windows, &complete_basis(n_d), &ms_opts);
    // (path, rank, ladder): the reduced legs of the sweep.
    let mut reduced: Vec<(&str, usize, RungLadder)> = Vec::new();
    for &r in RANKS {
        reduced.push(("goal", r, twin.goal_ladder(&windows, &GoalOptions::rank(r))));
        let basis = truncated_basis(n_d, r);
        reduced.push((
            "modespace",
            r,
            twin.mode_space_ladder(&windows, &basis, &ms_opts),
        ));
    }

    // Place the threshold at the median forecast magnitude so the
    // Watch/Warning boundary is genuinely exercised.
    let threshold = 0.05;
    let truncated: Vec<(String, &RungLadder)> = reduced
        .iter()
        .map(|(path, r, ladder)| (format!("{path} rank {r}"), ladder))
        .collect();
    assert_agreement(
        &twin,
        &forecaster,
        &[
            ("exact goal", &gl_exact, 0.0),
            ("complete basis", &ms_full, 1e-9),
        ],
        &truncated,
        threshold,
    );
    let w_last = windows.len() - 1;
    for (path, r, ladder) in &reduced {
        println!(
            "{path} rank {r}: trunc_bound {:.3e}, resident elems {} vs dense ladder {} ({}x smaller)",
            ladder.rungs[w_last].trunc_bound,
            ladder.resident_elems(),
            ladder.windowed_resident_elems(),
            ladder.windowed_resident_elems() / ladder.resident_elems().max(1)
        );
    }

    bench_microbatching(c, &twin, &forecaster, smoke);

    let batch_sizes: &[usize] = if smoke { &[64] } else { &[100, 1000, 10_000] };
    // Service-sized panels, the same for every engine: at B = 10⁴ the
    // default chunk of 64 costs 157 panel dispatches per tick, which is
    // pure overhead for the reduced paths' small GEMMs. Their arena is
    // rank-sized (`r × chunk`), so a wide chunk stays cheap; the
    // windowed panel grows to `k × chunk` (8 MB) — the usual
    // working-set/latency tradeoff, applied evenly.
    let cfg_stream = StreamConfig {
        infer: false,
        warn_threshold: threshold,
        chunk: 1024,
        ..StreamConfig::default()
    };

    let mut group = c.benchmark_group("tick_paths");
    group.warm_up_time(Duration::from_millis(if smoke { 10 } else { 300 }));
    group.sample_size(if smoke { 1 } else { 10 });
    for &b in batch_sizes {
        let streams = synth_streams(n_d, b);
        group.throughput(Throughput::Elements(b as u64));

        let mut windowed = preload(StreamEngine::new(&twin, &forecaster, cfg_stream), &streams);
        group.bench_function(BenchmarkId::new("tick_windowed", b), |bench| {
            bench.iter(|| {
                windowed.rewind();
                black_box(windowed.tick())
            });
        });
        for (path, r, ladder) in &reduced {
            let mut engine = preload(
                StreamEngine::goal_oriented(&twin, ladder, cfg_stream),
                &streams,
            );
            group.bench_function(BenchmarkId::new(format!("tick_{path}_r{r}"), b), |bench| {
                bench.iter(|| {
                    engine.rewind();
                    black_box(engine.tick())
                });
            });
        }
    }
    group.finish();

    // The acceptance measurement: hand-timed rewind-replay ticks at the
    // largest batch. Smoke mode prints the ratios but only the full run
    // asserts them (1-sample CI timings are noise). Best-of-iters: the
    // gate compares the paths' floors, not their exposure to scheduler
    // noise on a shared CI box.
    let b = *batch_sizes.last().unwrap();
    let streams = synth_streams(n_d, b);
    let iters = if smoke { 2 } else { 10 };
    let time = |engine: &mut StreamEngine<'_>| {
        engine.rewind();
        engine.tick(); // warm the arenas
        let mut best = f64::INFINITY;
        for _ in 0..iters {
            let t0 = Instant::now();
            engine.rewind();
            black_box(engine.tick());
            best = best.min(t0.elapsed().as_secs_f64());
        }
        best
    };
    let mut windowed = preload(StreamEngine::new(&twin, &forecaster, cfg_stream), &streams);
    let t_win = time(&mut windowed);
    record(
        "tick_paths",
        &format!("path=windowed B={b}"),
        "tick_min",
        t_win * 1e3,
        "ms",
    );
    for (path, r, ladder) in &reduced {
        let mut engine = preload(
            StreamEngine::goal_oriented(&twin, ladder, cfg_stream),
            &streams,
        );
        let t_red = time(&mut engine);
        let speedup = t_win / t_red.max(1e-12);
        println!(
            "tick_paths speedup @ B={b}: windowed {:.3} ms/tick, {path} r{r} {:.3} ms/tick — {speedup:.1}x",
            t_win * 1e3,
            t_red * 1e3
        );
        let config = format!("path={path} B={b} rank={r}");
        record("tick_paths", &config, "tick_min", t_red * 1e3, "ms");
        record("tick_paths", &config, "speedup", speedup, "x");
        record(
            "tick_paths",
            &config,
            "trunc_bound",
            ladder.rungs[w_last].trunc_bound,
            "fro",
        );
        if !smoke && *r <= 32 {
            assert!(
                speedup >= 10.0,
                "{path} tick must be >= 10x the windowed tick at B={b}, r={r}: got {speedup:.1}x"
            );
        }
    }
}

criterion_group!(benches, bench_tick_paths);
criterion_main!(benches);
