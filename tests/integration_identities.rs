//! Cross-crate Bayesian identities, exercised via the public facade:
//! the Sherman–Morrison–Woodbury equivalence, the Kalman-gain identity,
//! and agreement between every route to the MAP point.

use cascadia_dt::prelude::*;
use cascadia_dt::twin::baseline::solve_map_cg;
use cascadia_dt::twin::metrics::rel_l2;
use cascadia_dt::twin::SpaceTimePrior;
use tsunami_linalg::cg::CgOptions;

fn setup() -> (TwinConfig, SyntheticEvent, DigitalTwin) {
    let config = TwinConfig::tiny();
    let solver = config.build_solver();
    let rupture = SyntheticEvent::default_rupture(&config);
    let event = SyntheticEvent::generate(&config, &solver, &rupture, 555);
    let twin = DigitalTwin::offline(config.clone(), event.noise_std);
    (config, event, twin)
}

#[test]
fn three_routes_to_the_map_point_agree() {
    // Route 1: data-space SMW (Phase 4). Route 2: parameter-space CG
    // (the SoA baseline). Route 3: Fq m_map vs Q d (Kalman gain).
    let (config, event, twin) = setup();
    let m_smw = twin.infer(&event.d_obs).m_map;

    let stp = SpaceTimePrior::new(config.build_prior(), twin.solver.grid.nt_obs);
    let opts = CgOptions {
        rtol: 1e-11,
        max_iter: 20_000,
        ..Default::default()
    };
    let (m_cg, stats) = solve_map_cg(
        &twin.phase1.fast_f,
        &stp,
        event.noise_std * event.noise_std,
        &event.d_obs,
        &opts,
    );
    assert!(stats.converged);
    assert!(
        rel_l2(&m_smw, &m_cg) < 1e-6,
        "SMW vs CG disagree: {}",
        rel_l2(&m_smw, &m_cg)
    );

    let fc = twin.forecast(&event.d_obs);
    let mut q_from_m = vec![0.0; twin.phase1.fast_fq.nrows()];
    twin.phase1.fast_fq.matvec(&m_smw, &mut q_from_m);
    assert!(
        rel_l2(&fc.q_map, &q_from_m) < 1e-6,
        "Q d vs Fq m_map disagree: {}",
        rel_l2(&fc.q_map, &q_from_m)
    );
}

#[test]
fn map_point_satisfies_optimality() {
    // The MAP point minimizes J(m); its gradient must vanish:
    // Fᵀ(F m − d)/σ² + Γ⁻¹ m = 0.
    let (config, event, twin) = setup();
    let m = twin.infer(&event.d_obs).m_map;
    let stp = SpaceTimePrior::new(config.build_prior(), twin.solver.grid.nt_obs);
    let f = &twin.phase1.fast_f;
    let sigma2 = event.noise_std * event.noise_std;

    let mut fm = vec![0.0; f.nrows()];
    f.matvec(&m, &mut fm);
    let misfit: Vec<f64> = fm.iter().zip(&event.d_obs).map(|(a, b)| a - b).collect();
    let mut grad_data = vec![0.0; f.ncols()];
    f.matvec_transpose(&misfit, &mut grad_data);
    let mut grad_prior = vec![0.0; f.ncols()];
    stp.apply_inv(&m, &mut grad_prior);
    let grad: Vec<f64> = grad_data
        .iter()
        .zip(&grad_prior)
        .map(|(a, b)| a / sigma2 + b)
        .collect();
    // Scale: compare against the gradient at m = 0.
    let mut grad0 = vec![0.0; f.ncols()];
    f.matvec_transpose(&event.d_obs, &mut grad0);
    let g0: f64 = grad0
        .iter()
        .map(|v| (v / sigma2) * (v / sigma2))
        .sum::<f64>()
        .sqrt();
    let g: f64 = grad.iter().map(|v| v * v).sum::<f64>().sqrt();
    assert!(g < 1e-6 * g0, "MAP gradient not zero: {g} vs scale {g0}");
}

#[test]
fn posterior_mean_interpolates_prior_and_data() {
    // σ → ∞: m_map → 0 (prior mean). σ → 0⁺: F m_map → d (data fit).
    let (config, event, twin) = setup();

    let m_ref = twin.infer(&event.d_obs).m_map;
    let ref_norm: f64 = m_ref.iter().map(|v| v * v).sum::<f64>().sqrt();
    let loose = DigitalTwin::offline(config.clone(), 1e5 * event.noise_std);
    let m_loose = loose.infer(&event.d_obs).m_map;
    let norm: f64 = m_loose.iter().map(|v| v * v).sum::<f64>().sqrt();
    assert!(
        norm < 5e-2 * ref_norm,
        "distrusted data should shrink toward the prior mean: ‖m‖={norm} vs reference {ref_norm}"
    );

    let tight = DigitalTwin::offline(config, 1e-4 * event.noise_std);
    let m_tight = tight.infer(&event.d_clean).m_map;
    let mut fm = vec![0.0; tight.phase1.fast_f.nrows()];
    tight.phase1.fast_f.matvec(&m_tight, &mut fm);
    let fit = rel_l2(&fm, &event.d_clean);
    assert!(
        fit < 0.05,
        "tiny noise should fit the data: rel misfit {fit}"
    );
}

#[test]
fn toeplitz_map_agrees_with_pde_on_random_input() {
    // The precomputed F (Phase 1) applied by FFT must reproduce a fresh PDE
    // forward solve on inputs it was never built from.
    let (config, _event, twin) = setup();
    let solver = config.build_solver();
    let mut seed = 77u64;
    let m: Vec<f64> = (0..twin.n_params())
        .map(|_| {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        })
        .collect();
    let (d_pde, q_pde) = solver.forward(&m);
    let mut d_fft = vec![0.0; twin.n_data()];
    twin.phase1.fast_f.matvec(&m, &mut d_fft);
    assert!(
        rel_l2(&d_fft, &d_pde) < 1e-7,
        "F mismatch {}",
        rel_l2(&d_fft, &d_pde)
    );
    let mut q_fft = vec![0.0; twin.phase1.fast_fq.nrows()];
    twin.phase1.fast_fq.matvec(&m, &mut q_fft);
    assert!(
        rel_l2(&q_fft, &q_pde) < 1e-7,
        "Fq mismatch {}",
        rel_l2(&q_fft, &q_pde)
    );
}

#[test]
fn posterior_samples_consistent_with_qoi_covariance() {
    use cascadia_dt::twin::posterior::posterior_sample;
    use tsunami_linalg::random::seeded_rng;
    let (config, event, twin) = setup();
    let stp = SpaceTimePrior::new(config.build_prior(), twin.solver.grid.nt_obs);
    let inf = twin.infer(&event.d_obs);
    let mut rng = seeded_rng(17);
    let n_samp = 200;
    let nq = twin.phase1.fast_fq.nrows();
    let mut mean = vec![0.0; nq];
    let mut m2 = vec![0.0; nq];
    for _ in 0..n_samp {
        let s = posterior_sample(&twin.phase1, &twin.phase2, &stp, &inf.m_map, &mut rng);
        let mut qs = vec![0.0; nq];
        twin.phase1.fast_fq.matvec(&s, &mut qs);
        for ((mu, sq), &q) in mean.iter_mut().zip(m2.iter_mut()).zip(&qs) {
            *mu += q;
            *sq += q * q;
        }
    }
    let gpq = twin.phase3.gamma_post_q();
    let mut checked = 0;
    for i in 0..nq {
        let mu = mean[i] / n_samp as f64;
        let var = m2[i] / n_samp as f64 - mu * mu;
        let exact = gpq[(i, i)];
        if exact < 1e-10 {
            continue;
        }
        // MC error ~ sqrt(2/n) ≈ 10%; allow 4 sigma.
        assert!(
            (var - exact).abs() < 0.5 * exact,
            "entry {i}: sample var {var} vs exact {exact}"
        );
        checked += 1;
    }
    assert!(
        checked > 5,
        "too few informative entries checked: {checked}"
    );
}
