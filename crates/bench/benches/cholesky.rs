//! Criterion bench: Cholesky factorization of the data-space Hessian `K`
//! (the paper's 22 s cuSOLVERMp step, Table III Phase 2) and the
//! single-RHS solve. The multi-RHS solves are measured by `perf_report`
//! (`linalg.cholesky.solve_multi.gflops`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;
use tsunami_linalg::{Cholesky, DMatrix};

fn spd(n: usize) -> DMatrix {
    let mut s = 1u64;
    let m = DMatrix::from_fn(n, n, |_, _| {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((s >> 11) as f64 / (1u64 << 53) as f64) - 0.5
    });
    let mut a = m.matmul_nt(&m);
    a.shift_diag(n as f64);
    a.symmetrize();
    a
}

fn bench_cholesky(c: &mut Criterion) {
    let mut group = c.benchmark_group("data_space_hessian");
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(300));
    group.sample_size(10);
    for &n in &[128usize, 384, 768] {
        let a = spd(n);
        group.bench_with_input(BenchmarkId::new("factorize", n), &n, |b, _| {
            b.iter(|| black_box(Cholesky::factor(black_box(&a)).unwrap()));
        });
        let ch = Cholesky::factor(&a).unwrap();
        let rhs: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).sin()).collect();
        group.bench_with_input(BenchmarkId::new("solve", n), &n, |b, _| {
            b.iter(|| black_box(ch.solve(black_box(&rhs))));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_cholesky);
criterion_main!(benches);
