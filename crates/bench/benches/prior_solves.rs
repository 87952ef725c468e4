//! Criterion bench: Matérn prior application — DCT fast diagonalization vs
//! honest CG elliptic solves (Phase 2's `Nd + Nq` prior solves; the
//! cuDSS-vs-spectral ablation).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;
use tsunami_linalg::cg::{cg_solve_fresh, CgOptions};
use tsunami_linalg::IdentityOperator;
use tsunami_prior::MaternPrior;

fn bench_prior(c: &mut Criterion) {
    let mut group = c.benchmark_group("prior_solves");
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(300));
    group.sample_size(10);
    for &g in &[12usize, 24, 48] {
        let prior = MaternPrior::with_hyperparameters(g, g, 100e3, 100e3, 25e3, 1.0);
        let x: Vec<f64> = (0..prior.n()).map(|i| (i as f64 * 0.17).sin()).collect();
        let mut out = vec![0.0; prior.n()];
        group.bench_with_input(BenchmarkId::new("dct", g * g), &g, |b, _| {
            b.iter(|| prior.apply_cov(black_box(&x), &mut out));
        });
        group.bench_with_input(BenchmarkId::new("cg_elliptic", g * g), &g, |b, _| {
            let opts = CgOptions {
                rtol: 1e-10,
                max_iter: 50_000,
                ..Default::default()
            };
            b.iter(|| {
                let (y1, _) =
                    cg_solve_fresh::<_, IdentityOperator>(&prior.op, None, black_box(&x), &opts);
                let (y2, _) = cg_solve_fresh::<_, IdentityOperator>(&prior.op, None, &y1, &opts);
                black_box(y2)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_prior);
criterion_main!(benches);
