//! Standalone kernel measurements of the traced pass, at the shapes the
//! workloads use. Flops and bytes are *computed* from the shapes (cache
//! misses are not counted); rates are medians over repeated calls.

use crate::gen::Rng;
use crate::report::Metrics;
use crate::stats;
use rayon::prelude::*;
use std::hint::black_box;
use std::time::Instant;
use tsunami_core::DigitalTwin;
use tsunami_linalg::vec_ops::{block_axpy4, dot_lanes};
use tsunami_linalg::{randomized_svd, DMatrix, FactoredMap, RhsPanel, SvdOptions};
use tsunami_stream::identify;

/// Median seconds per call of `f`, over at least `min_reps` calls and
/// (after that) until `budget_s` is used. One untimed warm-up call first.
fn median_call_s(min_reps: usize, budget_s: f64, mut f: impl FnMut()) -> (f64, u64) {
    f();
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < min_reps || start.elapsed().as_secs_f64() < budget_s {
        let t0 = Instant::now();
        f();
        times.push(t0.elapsed().as_secs_f64());
        if times.len() >= 100_000 {
            break;
        }
    }
    (stats::median(&times), times.len() as u64)
}

/// Median seconds per call of a sub-microsecond `f`, timed `inner` calls
/// at a time.
fn median_tight_s(inner: u32, budget_s: f64, mut f: impl FnMut()) -> (f64, u64) {
    let (s, reps) = median_call_s(5, budget_s, || {
        for _ in 0..inner {
            f();
        }
    });
    (s / inner as f64, reps * inner as u64)
}

fn random_matrix(rows: usize, cols: usize, rng: &mut Rng) -> DMatrix {
    DMatrix::from_fn(rows, cols, |_, _| rng.normal())
}

/// A smooth low-rank block plus a small noise floor: the shape of a
/// scenario bank, so the randomized SVD meets a realistic spectrum.
fn bank_like(rows: usize, cols: usize, rng: &mut Rng) -> DMatrix {
    let modes: Vec<(f64, f64, f64)> = (0..48)
        .map(|k| (1.0 / (1 + k) as f64, rng.unit() * 0.2, rng.unit() * 0.2))
        .collect();
    DMatrix::from_fn(rows, cols, |i, j| {
        let s: f64 = modes
            .iter()
            .map(|&(a, wi, wj)| a * (wi * i as f64).sin() * (wj * j as f64 + 1.0).cos())
            .sum();
        s + 1e-4 * (((i * 31 + j * 17) % 101) as f64 - 50.0) / 50.0
    })
}

/// Flops of one FFT block-Toeplitz multi-product with `cols` columns,
/// computed from the shapes: forward transforms of the input sequences,
/// the per-frequency block products, inverse transforms of the outputs
/// (`5·L·log2 L` per length-`L` complex transform, 8 per complex
/// multiply-add).
fn fft_matmat_flops(len: usize, out_dim: usize, in_dim: usize, cols: usize) -> f64 {
    let l = len as f64;
    let transform = 5.0 * l * l.log2();
    cols as f64 * (transform * (in_dim + out_dim) as f64 + 8.0 * l * (out_dim * in_dim) as f64)
}

/// Measure every standalone kernel. `peak_gflops` is the probe's ceiling
/// for the same threads.
pub fn run(twin: &DigitalTwin, threads: usize, peak_gflops: f64, seed: u64) -> Metrics {
    let mut m = Metrics::default();
    let mut rng = Rng::new(seed, 77);
    let gf = |flops: f64, s: f64| flops / s.max(1e-12) / 1e9;

    // --- linalg: dense and rank-sized GEMM (the windowed rung-crossing
    // product and the reduced paths' materialization).
    for (name, (r, k, c)) in [("dense", (2048, 1024, 256)), ("rank", (2048, 32, 1024))] {
        let a = random_matrix(r, k, &mut rng);
        let b = random_matrix(k, c, &mut rng);
        let mut out = DMatrix::zeros(r, c);
        let (s, reps) = median_call_s(3, 0.3, || a.matmul_into(&b, black_box(&mut out)));
        let rate = gf(2.0 * (r * k * c) as f64, s);
        m.set(
            &format!("linalg.matmul_into.{name}.gflops"),
            rate,
            "GF/s",
            reps,
        );
        m.set(
            &format!("linalg.matmul_into.{name}.peak_frac"),
            rate / peak_gflops.max(1e-12),
            "ratio",
            reps,
        );
    }

    // --- linalg: Cholesky solves against the twin's own factor of K.
    let chol = &twin.phase2.k_chol;
    let n = chol.dim();
    let rhs = random_matrix(n, 256, &mut rng);
    let (s, reps) = median_call_s(3, 0.3, || {
        black_box(chol.solve_multi(&rhs));
    });
    m.set(
        "linalg.cholesky.solve_multi.gflops",
        gf(2.0 * (n * n * 256) as f64, s),
        "GF/s",
        reps,
    );
    let b1: Vec<f64> = (0..n).map(|_| rng.normal()).collect();
    let (s, reps) = median_call_s(20, 0.1, || {
        black_box(chol.solve(&b1));
    });
    m.set("linalg.cholesky.solve.us", s * 1e6, "us", reps);
    // Leading-block panel solve (k = 512, B = 64): the windowed
    // inference kernel. No workload runs it while every engine has
    // `infer: false`, so it has no end-to-end metric yet.
    let (k, nrhs) = (n / 2, 64);
    let panel_data: Vec<f64> = (0..nrhs * k).map(|_| rng.normal()).collect();
    let (s, reps) = median_call_s(5, 0.2, || {
        let mut p = RhsPanel::from_vec(nrhs, k, panel_data.clone());
        chol.solve_leading_panel_in_place(k, &mut p);
        black_box(&p);
    });
    m.set(
        "linalg.cholesky.solve_leading_panel.gflops",
        gf(2.0 * (k * k * nrhs) as f64, s),
        "GF/s",
        reps,
    );

    // --- linalg: the sweep and GEMM microkernels on cache-resident rows.
    let x: Vec<f64> = (0..1024).map(|_| rng.normal()).collect();
    let y: Vec<f64> = (0..1024).map(|_| rng.normal()).collect();
    let (s, reps) = median_tight_s(1000, 0.05, || {
        black_box(dot_lanes(black_box(&x), black_box(&y)));
    });
    m.set(
        "linalg.dot_lanes.gbs",
        16.0 * 1024.0 / s / 1e9,
        "GB/s",
        reps,
    );
    let (rows_n, width) = (16usize, 1024usize);
    let rows: Vec<f64> = (0..rows_n * width).map(|_| rng.normal()).collect();
    let coeffs: Vec<Vec<f64>> = (0..4)
        .map(|_| (0..rows_n).map(|_| rng.normal()).collect())
        .collect();
    let mut accs: Vec<Vec<f64>> = vec![vec![0.0; width]; 4];
    let (s, reps) = median_tight_s(100, 0.05, || {
        let [a0, a1, a2, a3] = &mut accs[..] else {
            unreachable!("four accumulators")
        };
        block_axpy4(
            1e-3,
            [&coeffs[0], &coeffs[1], &coeffs[2], &coeffs[3]],
            black_box(&rows),
            width,
            width,
            [a0, a1, a2, a3],
        );
    });
    // Bytes: the row block read once, four accumulators read and written.
    let bytes = 8.0 * (rows_n * width + 2 * 4 * width) as f64;
    m.set("linalg.block_axpy4.gbs", bytes / s / 1e9, "GB/s", reps);
    m.set(
        "linalg.block_axpy4.gflops",
        gf(2.0 * (4 * rows_n * width) as f64, s),
        "GF/s",
        reps,
    );

    // --- linalg: randomized SVD (POD compression) and the factored fold.
    let bank = bank_like(1024, 1024, &mut rng);
    let (s, reps) = median_call_s(3, 0.2, || {
        black_box(randomized_svd(&bank, 32, SvdOptions::default()).s.len());
    });
    m.set("linalg.randomized_svd.busy_s", s, "s", reps);
    let (map, _) =
        FactoredMap::compress(&bank_like(2048, 1024, &mut rng), 32, SvdOptions::default());
    let block = random_matrix(1024, 256, &mut rng);
    let (s, reps) = median_call_s(5, 0.1, || {
        black_box(map.fold(&block));
    });
    m.set(
        "linalg.factored.fold.gflops",
        gf(2.0 * (1024 * map.rank() * 256) as f64, s),
        "GF/s",
        reps,
    );

    // --- fft: the p2o map applied to blocks (B = 256) and single vectors.
    let f = &twin.phase1.fast_f;
    let (len, od, id) = (f.embedding_len(), f.out_dim, f.in_dim);
    let xin = random_matrix(f.ncols(), 256, &mut rng);
    let win = random_matrix(f.nrows(), 256, &mut rng);
    let (s, reps) = median_call_s(3, 0.3, || {
        black_box(f.matmat(&xin));
    });
    m.set("fft.matmat.busy_s", s, "s", reps);
    m.set(
        "fft.matmat.gflops",
        gf(fft_matmat_flops(len, od, id, 256), s),
        "GF/s",
        reps,
    );
    let (s, reps) = median_call_s(3, 0.3, || {
        black_box(f.matmat_transpose(&win));
    });
    m.set("fft.matmat_transpose.busy_s", s, "s", reps);
    m.set(
        "fft.matmat_transpose.gflops",
        gf(fft_matmat_flops(len, od, id, 256), s),
        "GF/s",
        reps,
    );
    let (x1, w1) = (xin.col(0), win.col(0));
    let (mut y1, mut z1) = (vec![0.0; f.nrows()], vec![0.0; f.ncols()]);
    let (s, reps) = median_call_s(20, 0.1, || f.matvec(&x1, black_box(&mut y1)));
    m.set("fft.matvec.us", s * 1e6, "us", reps);
    let (s, reps) = median_call_s(20, 0.1, || f.matvec_transpose(&w1, black_box(&mut z1)));
    m.set("fft.matvec_transpose.us", s * 1e6, "us", reps);

    // --- stream: identification kernels, 64 streams × 16 new rows × 1024
    // scenarios (one lockstep step of one panel).
    let (streams_n, new_rows, scen, rank) = (64usize, 16usize, 1024usize, 32usize);
    let clean = random_matrix(1024, scen, &mut rng);
    let sq = identify::sq_prefix(&clean);
    let data: Vec<Vec<f64>> = (0..streams_n)
        .map(|_| (0..1024).map(|_| rng.normal()).collect())
        .collect();
    let i0 = 512;
    let mut misfit: Vec<Vec<f64>> = vec![vec![0.0; scen]; streams_n];
    let (s, reps) = median_call_s(10, 0.1, || {
        let mut group: Vec<(&[f64], &mut [f64])> = data
            .iter()
            .zip(misfit.iter_mut())
            .map(|(d, mis)| (&d[..], &mut mis[..]))
            .collect();
        identify::score_group_gemm(&clean, &sq, i0, i0 + new_rows, &mut group);
    });
    m.set(
        "stream.identify.score_group_gemm.gflops",
        gf(2.0 * (streams_n * new_rows * scen) as f64, s),
        "GF/s",
        reps,
    );
    let modes = random_matrix(1024, rank, &mut rng);
    let mut proj: Vec<Vec<f64>> = vec![vec![0.0; rank]; streams_n];
    let (s, reps) = median_call_s(10, 0.05, || {
        let mut group: Vec<(&[f64], &mut [f64])> = data
            .iter()
            .zip(proj.iter_mut())
            .map(|(d, a)| (&d[..], &mut a[..]))
            .collect();
        identify::project_group(&modes, i0, i0 + new_rows, &mut group);
    });
    m.set(
        "stream.identify.project_group.gflops",
        gf(2.0 * (streams_n * new_rows * rank) as f64, s),
        "GF/s",
        reps,
    );
    let coeffs_pod = random_matrix(rank, scen, &mut rng);
    let (s, reps) = median_call_s(10, 0.1, || {
        let mut group: Vec<(f64, &[f64], &mut [f64])> = proj
            .iter()
            .zip(misfit.iter_mut())
            .map(|(a, mis)| (1.0, &a[..], &mut mis[..]))
            .collect();
        identify::score_group_pod(&coeffs_pod, &sq, i0 + new_rows, &mut group);
    });
    m.set(
        "stream.identify.score_group_pod.gflops",
        gf(2.0 * (streams_n * rank * scen) as f64, s),
        "GF/s",
        reps,
    );

    // --- rayon shim: one tiny bulk operation on the pool (a tick's
    // barrier) and one histogram record (a span's cost inside the program).
    let (s, reps) = median_tight_s(200, 0.1, || {
        (0..threads).into_par_iter().for_each(|i| {
            black_box(i);
        });
    });
    m.set("rayon.dispatch.us", s * 1e6, "us", reps);
    let h = tsunami_obs::Histogram::new();
    let (s, reps) = median_tight_s(10_000, 0.02, || h.record(black_box(12_345)));
    m.set("obs.record.ns", s * 1e9, "ns", reps);
    m
}
