//! Seedable Gaussian sampling.
//!
//! The framework needs `N(0,1)` draws for prior samples, measurement noise
//! (the paper adds 1 % relative noise to synthetic pressure data), and
//! Matheron-rule posterior sampling. `rand` ships only uniform sources, so we
//! implement the Box–Muller transform on top of it.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Deterministic RNG for reproducible experiments.
pub fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// One standard normal draw via Box–Muller (fresh pair each call; the spare
/// is discarded for simplicity — sampling is never a hot path here).
pub fn randn<R: RngExt + ?Sized>(rng: &mut R) -> f64 {
    // Guard against log(0).
    let u1: f64 = loop {
        let u: f64 = rng.random::<f64>();
        if u > 1e-300 {
            break u;
        }
    };
    let u2: f64 = rng.random::<f64>();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Fill a slice with iid `N(0,1)` draws.
pub fn fill_randn<R: RngExt + ?Sized>(rng: &mut R, out: &mut [f64]) {
    for v in out.iter_mut() {
        *v = randn(rng);
    }
}

/// A fresh vector of `n` iid `N(0,1)` draws.
pub fn randn_vec<R: RngExt + ?Sized>(rng: &mut R, n: usize) -> Vec<f64> {
    let mut v = vec![0.0; n];
    fill_randn(rng, &mut v);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let a = randn_vec(&mut seeded_rng(7), 10);
        let b = randn_vec(&mut seeded_rng(7), 10);
        assert_eq!(a, b);
    }

    #[test]
    fn moments_are_standard_normal() {
        let n = 200_000;
        let v = randn_vec(&mut seeded_rng(42), n);
        let mean = v.iter().sum::<f64>() / n as f64;
        let var = v.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn tails_are_plausible() {
        // P(|Z| > 3) ≈ 0.0027; check the empirical rate is in a loose band.
        let n = 100_000;
        let v = randn_vec(&mut seeded_rng(1), n);
        let frac = v.iter().filter(|x| x.abs() > 3.0).count() as f64 / n as f64;
        assert!(
            frac > 0.0005 && frac < 0.008,
            "3-sigma tail fraction {frac}"
        );
    }
}
