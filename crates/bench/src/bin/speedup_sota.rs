//! §VII-C speedups: FFT Hessian matvecs vs PDE pairs, and the end-to-end
//! online inversion vs the state-of-the-art CG baseline.
//!
//! Paper claims reproduced in shape:
//! - one Hessian matvec: pair of PDE solves (104 min on 512 A100s) →
//!   0.024 s FFT matvec = **260,000×**,
//! - online Bayesian solve: `< 0.2 s` vs 50 years of CG = **10¹⁰×**,
//! - PDE-solve count: `Nd + Nq` offline adjoints vs `2 × O(Nd·Nt)` CG
//!   solves = **~810×** fewer.

use tsunami_bench::{comparison_table, fmt_secs, time_median, Row};
use tsunami_core::baseline::{pde_hessian_matvec, solve_map_cg};
use tsunami_core::{DigitalTwin, SpaceTimePrior, SyntheticEvent};
use tsunami_linalg::cg::CgOptions;
use tsunami_linalg::LinearOperator;

fn main() {
    let cfg = tsunami_bench::scale_config();
    let solver = cfg.build_solver();
    let rupture = SyntheticEvent::default_rupture(&cfg);
    let ev = SyntheticEvent::generate(&cfg, &solver, &rupture, 99);

    let twin = DigitalTwin::offline(cfg.clone(), ev.noise_std);
    let stp = SpaceTimePrior::new(cfg.build_prior(), solver.grid.nt_obs);
    let sigma2 = ev.noise_std * ev.noise_std;

    // --- Hessian matvec cost, both ways.
    let x: Vec<f64> = (0..twin.n_params())
        .map(|i| (i as f64 * 0.013).sin())
        .collect();
    let t_pde = time_median(1, || {
        std::hint::black_box(pde_hessian_matvec(&solver, &stp, sigma2, &x));
    });
    let h = tsunami_core::HessianOperator {
        fast_f: &twin.phase1.fast_f,
        prior: &stp,
        sigma2,
    };
    let mut y = vec![0.0; x.len()];
    let t_fft = time_median(5, || h.apply(&x, &mut y));
    let matvec_speedup = t_pde / t_fft;

    // --- SoA CG with FFT matvecs (to count iterations honestly).
    let opts = CgOptions {
        rtol: 1e-8,
        max_iter: 50_000,
        ..Default::default()
    };
    let t0 = std::time::Instant::now();
    let (m_cg, stats) = solve_map_cg(&twin.phase1.fast_f, &stp, sigma2, &ev.d_obs, &opts);
    let t_cg_fft = t0.elapsed().as_secs_f64();
    assert!(stats.converged, "baseline CG did not converge: {stats:?}");

    // --- Online Phase 4.
    let inf = twin.infer(&ev.d_obs);
    let mut online_s = inf.seconds;
    for _ in 0..4 {
        online_s = online_s.min(twin.infer(&ev.d_obs).seconds);
    }
    // Verify both answers agree (the SMW identity, end to end).
    let num: f64 = inf
        .m_map
        .iter()
        .zip(&m_cg)
        .map(|(a, b)| (a - b) * (a - b))
        .sum::<f64>()
        .sqrt();
    let den: f64 = m_cg.iter().map(|v| v * v).sum::<f64>().sqrt();
    println!(
        "consistency: ‖m_online − m_cg‖/‖m_cg‖ = {:.2e} (must be ≈ CG tol)",
        num / den.max(1e-30)
    );

    // Projected SoA cost: each CG iteration = 1 Hessian matvec = 1 PDE pair.
    let t_soa_projected = stats.iterations as f64 * t_pde;
    let online_speedup = t_soa_projected / online_s;

    // PDE-solve counts.
    let nd = solver.sensors.len();
    let nq = solver.qoi.len();
    let phase1_solves = nd + nq;
    let cg_solves = 2 * stats.iterations;
    let solve_reduction = cg_solves as f64 / phase1_solves as f64;

    let rows = vec![
        Row {
            label: "Hessian matvec (PDE pair)".into(),
            paper: "104 min on 512 A100s".into(),
            measured: fmt_secs(t_pde),
        },
        Row {
            label: "Hessian matvec (FFT)".into(),
            paper: "0.024 s on 512 A100s".into(),
            measured: fmt_secs(t_fft),
        },
        Row {
            label: "matvec speedup".into(),
            paper: "260,000x".into(),
            measured: format!("{matvec_speedup:.0}x"),
        },
        Row {
            label: "CG iterations (≈ data dim)".into(),
            paper: "O(250,000)".into(),
            measured: format!("{} (data dim {})", stats.iterations, twin.n_data()),
        },
        Row {
            label: "SoA CG time (projected, PDE matvecs)".into(),
            paper: "~50 years on 512 A100s".into(),
            measured: fmt_secs(t_soa_projected),
        },
        Row {
            label: "online Bayesian solve".into(),
            paper: "< 0.2 s".into(),
            measured: fmt_secs(online_s),
        },
        Row {
            label: "online speedup vs SoA".into(),
            paper: "10^10 x".into(),
            measured: format!("{online_speedup:.1e}x"),
        },
        Row {
            label: "PDE solves: Phase 1 vs CG".into(),
            paper: "621 vs ~500,000 (~810x)".into(),
            measured: format!("{phase1_solves} vs {cg_solves} ({solve_reduction:.0}x)"),
        },
        Row {
            label: "CG (FFT matvecs) end-to-end".into(),
            paper: "n/a (enabled by this work)".into(),
            measured: fmt_secs(t_cg_fft),
        },
    ];
    println!(
        "{}",
        comparison_table("§VII-C: speedups over the state of the art", &rows)
    );
    println!(
        "note: speedup magnitudes scale with problem size; at the paper's\n\
         10^9 parameters both factors grow by the ratio of PDE cost to FFT\n\
         cost at that scale."
    );
}
