//! Posterior exploration beyond the mean: pointwise displacement
//! uncertainty (Fig 3e) and exact posterior sampling (Matheron's rule).

use crate::phase1::Phase1;
use crate::phase2::Phase2;
use crate::stprior::SpaceTimePrior;
use rand::rngs::StdRng;
use rayon::prelude::*;
use tsunami_linalg::random::fill_randn;

/// Pointwise posterior *standard deviation* of the final seafloor
/// displacement `b(x, T) = Σ_t m_t·dt` at every inversion-grid cell —
/// the uncertainty map of Fig 3(e).
///
/// For the indicator `e_c = dt·(1_time ⊗ δ_c)`:
/// `Var = e_cᵀ Γpost e_c = e_cᵀ Γprior e_c − ‖L⁻¹ (G e_c)‖²` with `K = LLᵀ`.
pub fn displacement_std(p1: &Phase1, p2: &Phase2, prior: &SpaceTimePrior, dt_obs: f64) -> Vec<f64> {
    let nm = prior.spatial.n();
    let nt = prior.nt;
    let n_d = p1.fast_f.nrows();
    let prior_var = prior.spatial.marginal_variance();
    // Prior part: Σ_t dt² δᵀ Γ_s δ = nt·dt²·var_s (time blocks independent).
    // The indicator `e` and image `ge` are per-worker scratch: each worker
    // zeroes only the nt entries it set, instead of allocating two fresh
    // vectors per inversion cell.
    let mut std = vec![0.0; nm];
    std.par_iter_mut().enumerate().for_each_init(
        || (vec![0.0; nm * nt], vec![0.0; n_d]),
        |(e, ge), (c, out)| {
            for t in 0..nt {
                e[t * nm + c] = dt_obs;
            }
            p2.fast_g.matvec(e, ge);
            for t in 0..nt {
                e[t * nm + c] = 0.0;
            }
            // ‖L⁻¹ Ge‖²: forward substitution only.
            p2.k_chol.solve_lower_in_place(ge);
            let reduction: f64 = ge.iter().map(|v| v * v).sum();
            let prior_part = nt as f64 * dt_obs * dt_obs * prior_var[c];
            *out = (prior_part - reduction).max(0.0).sqrt();
        },
    );
    std
}

/// Draw an exact posterior sample by Matheron's rule:
/// `m_post = m_map + m_s − Gᵀ K⁻¹ (F m_s + ε_s)` with `m_s ∼ N(0, Γprior)`,
/// `ε_s ∼ N(0, σ²I)`.
pub fn posterior_sample(
    p1: &Phase1,
    p2: &Phase2,
    prior: &SpaceTimePrior,
    m_map: &[f64],
    rng: &mut StdRng,
) -> Vec<f64> {
    let m_s = prior.sample(rng);
    let mut fms = vec![0.0; p1.fast_f.nrows()];
    p1.fast_f.matvec(&m_s, &mut fms);
    let mut eps = vec![0.0; fms.len()];
    fill_randn(rng, &mut eps);
    for (f, &e) in fms.iter_mut().zip(&eps) {
        *f += p2.sigma2.sqrt() * e;
    }
    let kinv = p2.k_solve(&fms);
    let mut correction = vec![0.0; m_s.len()];
    p2.fast_g.matvec_transpose(&kinv, &mut correction);
    m_map
        .iter()
        .zip(&m_s)
        .zip(&correction)
        .map(|((&mm, &ms), &co)| mm + ms - co)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TwinConfig;
    use tsunami_hpc::TimerRegistry;
    use tsunami_linalg::random::seeded_rng;

    fn setup() -> (
        TwinConfig,
        tsunami_solver::WaveSolver,
        Phase1,
        Phase2,
        SpaceTimePrior,
    ) {
        let cfg = TwinConfig::tiny();
        let solver = cfg.build_solver();
        let timers = TimerRegistry::new();
        let p1 = Phase1::build(&solver, &timers);
        let prior = cfg.build_prior();
        let p2 = Phase2::build(&p1, &prior, 0.02, &timers);
        let stp = SpaceTimePrior::new(cfg.build_prior(), solver.grid.nt_obs);
        (cfg, solver, p1, p2, stp)
    }

    #[test]
    fn posterior_std_positive_and_below_prior() {
        let (_cfg, solver, p1, p2, stp) = setup();
        let dt = solver.grid.dt_obs();
        let std = displacement_std(&p1, &p2, &stp, dt);
        let prior_var = stp.spatial.marginal_variance();
        let nt = stp.nt as f64;
        for (c, &s) in std.iter().enumerate() {
            assert!(s >= 0.0);
            let prior_std = (nt * dt * dt * prior_var[c]).sqrt();
            assert!(
                s <= prior_std + 1e-9,
                "cell {c}: posterior {s} above prior {prior_std}"
            );
        }
        // Data must actually inform some cells.
        let informed = std
            .iter()
            .enumerate()
            .filter(|(c, &s)| {
                let prior_std = (nt * dt * dt * prior_var[*c]).sqrt();
                s < 0.99 * prior_std
            })
            .count();
        assert!(informed > 0, "no uncertainty reduction anywhere");
    }

    #[test]
    fn matheron_samples_have_posterior_spread() {
        // Sample variance of Fq m_post must match diag(Γpost(q)) within MC
        // error (validates the sampler against the exact Phase 3 algebra).
        let (_cfg, _solver, p1, p2, stp) = setup();
        let timers = TimerRegistry::new();
        let p3 = crate::phase3::Phase3::build(&p1, &p2, &timers);
        let d = vec![0.0; p1.fast_f.nrows()]; // zero data: posterior mean 0
        let inf = crate::phase4::infer(&p1, &p2, &d);
        let mut rng = seeded_rng(3);
        let n_samp = 300;
        let nq = p1.fast_fq.nrows();
        let mut acc = vec![0.0; nq];
        for _ in 0..n_samp {
            let s = posterior_sample(&p1, &p2, &stp, &inf.m_map, &mut rng);
            let mut qs = vec![0.0; nq];
            p1.fast_fq.matvec(&s, &mut qs);
            for (a, &q) in acc.iter_mut().zip(&qs) {
                *a += q * q;
            }
        }
        // Compare a handful of entries with decent signal.
        let mut checked = 0;
        for i in 0..nq {
            let exact = p3.gamma_post_q[(i, i)];
            if exact < 1e-12 {
                continue;
            }
            let emp = acc[i] / n_samp as f64;
            let rel = (emp - exact).abs() / exact;
            assert!(rel < 0.35, "entry {i}: empirical {emp} vs exact {exact}");
            checked += 1;
        }
        assert!(checked > 0, "no informative QoI entries to check");
    }
}
