//! Criterion bench: batched vs looped Phase-4 online inference.
//!
//! The batched path pays one panel-blocked `K⁻¹` factor walk and one
//! batched FFT `Gᵀ` pass for the whole block; the looped path re-pays the
//! factor traversal, FFT-plan walk, and symbol reloads per scenario. Run
//! with `RAYON_NUM_THREADS=1` to measure the amortization itself rather
//! than thread-level parallelism — the acceptance target is batched B=16
//! beating 16 single-RHS solves in *per-scenario* time.
//!
//! Set `BENCH_SMOKE=1` for a 1-sample CI smoke run over a reduced batch
//! sweep.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::time::Duration;
use tsunami_bench::fixtures::smoke_mode;
use tsunami_core::{DigitalTwin, TwinConfig};
use tsunami_linalg::DMatrix;

fn bench_batched(c: &mut Criterion) {
    let smoke = smoke_mode();
    let cfg = TwinConfig::tiny();
    let twin = DigitalTwin::offline(cfg, 0.02);
    let n_d = twin.n_data();

    let batch_sizes: &[usize] = if smoke { &[16] } else { &[1, 4, 16, 64] };

    let mut group = c.benchmark_group("phase4_batched");
    group.warm_up_time(Duration::from_millis(if smoke { 10 } else { 300 }));
    group.sample_size(if smoke { 1 } else { 10 });
    for &b in batch_sizes {
        let d = DMatrix::from_fn(n_d, b, |i, j| ((i * 7 + 3 * j) as f64 * 0.23).sin());
        let cols: Vec<Vec<f64>> = (0..b).map(|j| d.col(j)).collect();
        group.throughput(Throughput::Elements(b as u64));
        group.bench_with_input(BenchmarkId::new("infer_batched", b), &d, |bench, d| {
            bench.iter(|| black_box(twin.infer_batch(black_box(d))));
        });
        group.bench_with_input(BenchmarkId::new("infer_looped", b), &cols, |bench, cols| {
            bench.iter(|| {
                for dj in cols {
                    black_box(twin.infer(black_box(dj)));
                }
            });
        });
        group.bench_with_input(BenchmarkId::new("forecast_batched", b), &d, |bench, d| {
            bench.iter(|| black_box(twin.forecast_batch(black_box(d))));
        });
        group.bench_with_input(
            BenchmarkId::new("forecast_looped", b),
            &cols,
            |bench, cols| {
                bench.iter(|| {
                    for dj in cols {
                        black_box(twin.forecast(black_box(dj)));
                    }
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_batched);
criterion_main!(benches);
