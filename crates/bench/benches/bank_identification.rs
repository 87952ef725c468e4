//! Criterion bench: scenario-identification scoring at bank scale —
//! blocked GEMM vs the scalar per-sample misfit loop.
//!
//! Newly arrived rows are scored against every scenario in the bank
//! (`misfit_j += Σ_i (d_i − c_ij)²`). The *scalar* path is the
//! pre-refactor streaming loop: one pass over the `B`-wide misfit
//! accumulator per sample, per stream. The *GEMM* path expands the square
//! (`tsunami_stream::identify`): prefix-summed clean energies plus rank-R
//! `block_axpy` cross terms, with row-blocks outer and streams inner so a
//! tick's worth of lockstep sessions streams the clean block through the
//! cache hierarchy **once** — exactly what the engine's tick stage 1 runs.
//! Two comparisons per bank size:
//!
//! - `scalar_loop` vs `gemm`: one stream. The GEMM's win here is the
//!   4-row-amortized accumulator traffic; at bank sizes whose clean block
//!   spills out of cache both paths converge to the streaming floor.
//! - `scalar_loop_x8` vs `gemm_group_x8`: eight lockstep streams (a
//!   realistic tick). The grouped GEMM streams the bank once instead of
//!   eight times; the acceptance target is ≥ 2× at a 1024-scenario bank
//!   (serial, release).
//!
//! Run with `RAYON_NUM_THREADS=1` (the kernels are serial by design — the
//! engine's parallelism lives across sessions). Set `BENCH_SMOKE=1` for a
//! 1-sample CI smoke run.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::time::Duration;
use tsunami_bench::fixtures::smoke_mode;
use tsunami_core::ScenarioBank;
use tsunami_linalg::DMatrix;
use tsunami_stream::identify;

fn bench_identification(c: &mut Criterion) {
    let smoke = smoke_mode();
    // One event horizon of arrived rows (the streaming bench's stretched
    // Nd·Nt = 512), scored against banks of growing width. Banks are
    // synthetic — deterministic curves via `ScenarioBank::synthetic`, no
    // PDE solves — because this bench measures the scoring kernels, not
    // scenario generation.
    let rows = 512;
    let bank_sizes: &[usize] = if smoke { &[16, 1024] } else { &[16, 256, 1024] };

    let mut group = c.benchmark_group("bank_identification");
    group.warm_up_time(Duration::from_millis(if smoke { 10 } else { 300 }));
    group.sample_size(if smoke { 1 } else { 20 });
    group.measurement_time(Duration::from_millis(if smoke { 20 } else { 2000 }));

    for &b in bank_sizes {
        let clean = DMatrix::from_fn(rows, b, |i, j| ((i * 7 + 3 * j) as f64 * 0.13).sin());
        let bank = ScenarioBank::synthetic(clean.clone(), clean, 0.05);
        let clean = bank.clean_observations();
        let sqp = identify::sq_prefix(clean);
        // The live stream: one scenario's curve plus a deterministic
        // perturbation, so misfits are neither degenerate nor huge.
        let d: Vec<f64> = (0..rows)
            .map(|i| clean[(i, b / 2)] + 0.05 * ((i as f64) * 0.71).cos())
            .collect();
        let mut misfit = vec![0.0; b];

        group.throughput(Throughput::Elements((rows * b) as u64));
        group.bench_with_input(BenchmarkId::new("scalar_loop", b), &b, |bch, _| {
            bch.iter(|| {
                misfit.iter_mut().for_each(|m| *m = 0.0);
                identify::score_samples_scalar(black_box(clean), black_box(&d), 0, &mut misfit);
                black_box(misfit[0])
            });
        });
        group.bench_with_input(BenchmarkId::new("gemm", b), &b, |bch, _| {
            bch.iter(|| {
                misfit.iter_mut().for_each(|m| *m = 0.0);
                identify::score_samples_gemm(
                    black_box(clean),
                    black_box(&sqp),
                    black_box(&d),
                    0,
                    &mut misfit,
                );
                black_box(misfit[0])
            });
        });

        // Eight lockstep streams — one engine tick's worth of scoring.
        let n_streams = 8;
        let ds: Vec<Vec<f64>> = (0..n_streams)
            .map(|s| {
                (0..rows)
                    .map(|i| clean[(i, (s * b / n_streams) % b)] + 0.05 * ((i as f64) * 0.71).cos())
                    .collect()
            })
            .collect();
        let mut misfits = vec![vec![0.0; b]; n_streams];

        group.throughput(Throughput::Elements((rows * b * n_streams) as u64));
        group.bench_with_input(BenchmarkId::new("scalar_loop_x8", b), &b, |bch, _| {
            bch.iter(|| {
                for (d, mis) in ds.iter().zip(misfits.iter_mut()) {
                    mis.iter_mut().for_each(|m| *m = 0.0);
                    identify::score_samples_scalar(black_box(clean), black_box(d), 0, mis);
                }
                black_box(misfits[0][0])
            });
        });
        group.bench_with_input(BenchmarkId::new("gemm_group_x8", b), &b, |bch, _| {
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

        // The paths must agree on what they just measured.
        for (d, mis_g) in ds.iter().zip(&misfits) {
            let mut mis_s = vec![0.0; b];
            identify::score_samples_scalar(clean, d, 0, &mut mis_s);
            for (s, g) in mis_s.iter().zip(mis_g.iter()) {
                assert!(
                    (s - g).abs() < 1e-9 * s.max(1.0),
                    "bench paths disagree: {s} vs {g}"
                );
            }
        }
        let mut mis_g1 = vec![0.0; b];
        identify::score_samples_gemm(clean, &sqp, &d, 0, &mut mis_g1);
        let mut mis_s1 = vec![0.0; b];
        identify::score_samples_scalar(clean, &d, 0, &mut mis_s1);
        for (s, g) in mis_s1.iter().zip(&mis_g1) {
            assert!(
                (s - g).abs() < 1e-9 * s.max(1.0),
                "bench paths disagree: {s} vs {g}"
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_identification);
criterion_main!(benches);
