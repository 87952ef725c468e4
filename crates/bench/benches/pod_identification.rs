//! Criterion bench: POD mode-space identification vs the exact blocked
//! GEMM, swept over retained rank and bank width.
//!
//! One tick scores 8 lockstep streams' newly arrived rows against every
//! scenario. The *exact* path runs the grouped `rows × B` GEMM
//! ([`tsunami_stream::identify::score_group_gemm`]); the *mode-space*
//! path projects the rows onto `r` POD modes and materializes all `B`
//! misfits from the projection
//! ([`tsunami_stream::identify::project_group`] +
//! [`tsunami_stream::identify::score_group_pod`]), cutting the per-tick
//! bank-width work from `rows × B` to `rows × r + r × B`. The sweep is
//! `r ∈ {8, 32, 128} × B ∈ {10², 10³, 10⁴}`: the mode-space win grows
//! with `B/r`, crossing ≥ 5× at the 10⁴-scenario bank for `r ≤ 32` while
//! still ranking the true scenario first (asserted below).
//!
//! Run with `RAYON_NUM_THREADS=1` (the kernels are serial by design — the
//! engine's parallelism lives across sessions). Set `BENCH_SMOKE=1` for a
//! 1-sample CI smoke run over the small corner of the sweep.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::time::{Duration, Instant};
use tsunami_bench::fixtures::smoke_mode;
use tsunami_core::ScenarioBank;
use tsunami_linalg::DMatrix;
use tsunami_stream::identify;

fn bench_pod_identification(c: &mut Criterion) {
    let smoke = smoke_mode();
    // One event horizon of arrived rows (the streaming bench's stretched
    // Nd·Nt = 512) scored by 8 lockstep streams — one engine tick's worth
    // of identification. Banks are synthetic (deterministic curves, no
    // PDE solves): this bench measures the scoring kernels.
    let rows = 512;
    let n_streams = 8;
    let bank_sizes: &[usize] = if smoke {
        &[100, 1000]
    } else {
        &[100, 1000, 10_000]
    };
    let ranks: &[usize] = if smoke { &[8, 32] } else { &[8, 32, 128] };

    let mut group = c.benchmark_group("pod_identification");
    group.warm_up_time(Duration::from_millis(if smoke { 10 } else { 300 }));
    group.sample_size(if smoke { 1 } else { 20 });
    group.measurement_time(Duration::from_millis(if smoke { 20 } else { 2000 }));

    for &b in bank_sizes {
        // Smooth curves with per-scenario phase/frequency structure: far
        // from white noise (so a low-rank basis captures real energy) but
        // numerically full rank.
        let clean = DMatrix::from_fn(rows, b, |i, j| {
            let t = i as f64 * 0.03;
            let phase = j as f64 * 0.71;
            (t * (1.0 + 0.3 * (phase.sin()))).sin() + 0.4 * ((t + phase) * 1.7).cos()
        });
        let bank = ScenarioBank::synthetic(clean.clone(), clean, 0.05);
        let clean = bank.clean_observations();
        let sqp = identify::sq_prefix(clean);

        // Each stream follows one bank scenario plus a small deterministic
        // perturbation — in-bank events whose true scenario must win.
        let truths: Vec<usize> = (0..n_streams).map(|s| (s * b / n_streams) % b).collect();
        let ds: Vec<Vec<f64>> = truths
            .iter()
            .map(|&t| {
                (0..rows)
                    .map(|i| clean[(i, t)] + 0.02 * ((i as f64) * 0.71).cos())
                    .collect()
            })
            .collect();
        let mut misfits = vec![vec![0.0; b]; n_streams];

        group.throughput(Throughput::Elements((rows * b * n_streams) as u64));
        group.bench_with_input(BenchmarkId::new("exact_x8", b), &b, |bch, _| {
            bch.iter(|| {
                let mut views: Vec<(&[f64], &mut [f64])> = ds
                    .iter()
                    .zip(misfits.iter_mut())
                    .map(|(d, mis)| {
                        mis.iter_mut().for_each(|m| *m = 0.0);
                        (&d[..], &mut mis[..])
                    })
                    .collect();
                identify::score_group_gemm(black_box(clean), black_box(&sqp), 0, rows, &mut views);
                black_box(misfits[0][0])
            });
        });

        for &r in ranks {
            let pod = bank.compress(r);
            let dd: Vec<f64> = ds.iter().map(|d| d.iter().map(|v| v * v).sum()).collect();
            let mut proj = vec![vec![0.0; pod.rank()]; n_streams];

            // The measured tick: fold the rows into each stream's running
            // projection, then materialize every misfit from mode space —
            // exactly the engine's ModeSpace stage-2 work.
            group.bench_with_input(BenchmarkId::new(format!("pod_r{r}_x8"), b), &b, |bch, _| {
                bch.iter(|| {
                    {
                        let mut views: Vec<(&[f64], &mut [f64])> = ds
                            .iter()
                            .zip(proj.iter_mut())
                            .map(|(d, a)| {
                                a.iter_mut().for_each(|v| *v = 0.0);
                                (&d[..], &mut a[..])
                            })
                            .collect();
                        identify::project_group(black_box(pod.modes()), 0, rows, &mut views);
                    }
                    let mut views: Vec<(f64, &[f64], &mut [f64])> = dd
                        .iter()
                        .zip(proj.iter())
                        .zip(misfits.iter_mut())
                        .map(|((&e, a), mis)| (e, &a[..], &mut mis[..]))
                        .collect();
                    identify::score_group_pod(
                        black_box(pod.mode_coeffs()),
                        black_box(&sqp),
                        rows,
                        &mut views,
                    );
                    black_box(misfits[0][0])
                });
            });

            // The path must have identified correctly on what it just
            // measured: every stream's true scenario at minimal misfit.
            for (s, (&t, mis)) in truths.iter().zip(&misfits).enumerate() {
                let best = mis
                    .iter()
                    .enumerate()
                    .min_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(j, _)| j)
                    .unwrap();
                assert_eq!(
                    best, t,
                    "B={b} r={r} stream {s}: mode-space misranked the true scenario"
                );
            }
        }

        // Machine-readable summary (BENCH_JSON): best-of-N hand-timed
        // ticks for both paths at this bank width — the same kernels
        // criterion just measured, reduced to one floor figure each.
        let iters = if smoke { 2 } else { 10 };
        let best_of = |f: &mut dyn FnMut()| {
            f(); // warmup
            let mut best = f64::INFINITY;
            for _ in 0..iters {
                let t0 = Instant::now();
                f();
                best = best.min(t0.elapsed().as_secs_f64());
            }
            best
        };
        let t_exact = best_of(&mut || {
            let mut views: Vec<(&[f64], &mut [f64])> = ds
                .iter()
                .zip(misfits.iter_mut())
                .map(|(d, mis)| {
                    mis.iter_mut().for_each(|m| *m = 0.0);
                    (&d[..], &mut mis[..])
                })
                .collect();
            identify::score_group_gemm(black_box(clean), black_box(&sqp), 0, rows, &mut views);
            black_box(misfits[0][0]);
        });
        tsunami_bench::emit::record(
            "pod_identification",
            &format!("B={b} streams={n_streams}"),
            "exact_tick_min",
            t_exact * 1e3,
            "ms",
        );
        for &r in ranks {
            let pod = bank.compress(r);
            let dd: Vec<f64> = ds.iter().map(|d| d.iter().map(|v| v * v).sum()).collect();
            let mut proj = vec![vec![0.0; pod.rank()]; n_streams];
            let t_pod = best_of(&mut || {
                {
                    let mut views: Vec<(&[f64], &mut [f64])> = ds
                        .iter()
                        .zip(proj.iter_mut())
                        .map(|(d, a)| {
                            a.iter_mut().for_each(|v| *v = 0.0);
                            (&d[..], &mut a[..])
                        })
                        .collect();
                    identify::project_group(black_box(pod.modes()), 0, rows, &mut views);
                }
                let mut views: Vec<(f64, &[f64], &mut [f64])> = dd
                    .iter()
                    .zip(proj.iter())
                    .zip(misfits.iter_mut())
                    .map(|((&e, a), mis)| (e, &a[..], &mut mis[..]))
                    .collect();
                identify::score_group_pod(
                    black_box(pod.mode_coeffs()),
                    black_box(&sqp),
                    rows,
                    &mut views,
                );
                black_box(misfits[0][0]);
            });
            let config = format!("B={b} r={r} streams={n_streams}");
            tsunami_bench::emit::record(
                "pod_identification",
                &config,
                "pod_tick_min",
                t_pod * 1e3,
                "ms",
            );
            tsunami_bench::emit::record(
                "pod_identification",
                &config,
                "speedup",
                t_exact / t_pod.max(1e-12),
                "x",
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_pod_identification);
criterion_main!(benches);
