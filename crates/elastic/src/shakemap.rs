//! Shake maps with uncertainty: peak ground velocity from the posterior.
//!
//! §VIII of the paper: real-time slip inversion enables computing "maps of
//! the intensity of ground motion in populated regions … critical
//! information for early responders and post-earthquake recovery."
//!
//! The QoI of the elastic twin are ground-velocity *time series* at map
//! sites — linear in the slip parameters, so the full Phase 1–4 machinery
//! applies verbatim. The shake-map intensity (peak ground velocity, PGV)
//! is a *nonlinear* functional (max over time) of those series, so its
//! posterior is propagated by exact sampling from the Gaussian QoI
//! posterior `N(q_map, Γpost(q))` rather than by linearization: each
//! sample is a wavefield history, each yields one PGV per site, and the
//! ensemble gives calibrated intensity bands.

use rand::rngs::StdRng;
use tsunami_linalg::random::fill_randn;
use tsunami_linalg::{Cholesky, DMatrix};

/// Peak ground velocity per site from a time-major QoI series
/// (`nq` values per observation time).
///
/// # Example
///
/// ```
/// use tsunami_elastic::pgv;
/// // Two sites, three times: site 0 peaks at |-3|, site 1 at |2.5|.
/// let series = [1.0, 0.5, -3.0, 2.5, 0.2, -1.0];
/// assert_eq!(pgv(&series, 2, 3), vec![3.0, 2.5]);
/// ```
pub fn pgv(q: &[f64], nq: usize, nt: usize) -> Vec<f64> {
    assert_eq!(q.len(), nq * nt, "QoI series dimension");
    let mut out = vec![0.0; nq];
    for i in 0..nt {
        for s in 0..nq {
            let v = q[i * nq + s].abs();
            if v > out[s] {
                out[s] = v;
            }
        }
    }
    out
}

/// A shake map with sampling-based uncertainty bands.
pub struct ShakeMap {
    /// PGV of the posterior-mean wavefield (the "best single map").
    pub pgv_map: Vec<f64>,
    /// Ensemble mean PGV per site.
    pub pgv_mean: Vec<f64>,
    /// Ensemble standard deviation per site.
    pub pgv_std: Vec<f64>,
    /// 5th percentile of the PGV ensemble.
    pub pgv_p05: Vec<f64>,
    /// 95th percentile of the PGV ensemble.
    pub pgv_p95: Vec<f64>,
    /// Number of posterior samples used.
    pub n_samples: usize,
}

/// Build a shake map from the QoI posterior: mean series `q_map`, QoI
/// covariance `Γpost(q)` (taken by value), site count `nq`, horizon `nt`.
///
/// Sampling uses the Cholesky factor of `Γpost(q)` with a relative jitter
/// added to its diagonal in place (the covariance is only positive
/// *semi*-definite when some series entries are fully determined).
pub fn shake_map(
    q_map: &[f64],
    mut cov: DMatrix,
    nq: usize,
    nt: usize,
    n_samples: usize,
    rng: &mut StdRng,
) -> ShakeMap {
    assert!(n_samples >= 2, "need at least two samples for spread");
    assert_eq!(q_map.len(), nq * nt, "QoI mean dimension");
    assert_eq!(cov.nrows(), nq * nt, "QoI covariance dimension");
    let n = q_map.len();
    let max_diag = cov.diag().iter().fold(0.0f64, |a, &v| a.max(v.abs()));
    cov.shift_diag(1e-10 * max_diag.max(1e-300));
    let ch = Cholesky::factor(&cov).expect("jittered QoI covariance must be SPD");

    let pgv_map = pgv(q_map, nq, nt);
    let mut samples: Vec<Vec<f64>> = Vec::with_capacity(n_samples);
    let mut z = vec![0.0; n];
    for _ in 0..n_samples {
        fill_randn(rng, &mut z);
        let lz = ch.apply_lower(&z);
        let q_s: Vec<f64> = q_map.iter().zip(&lz).map(|(&m, &p)| m + p).collect();
        samples.push(pgv(&q_s, nq, nt));
    }

    let mut pgv_mean = vec![0.0; nq];
    let mut pgv_std = vec![0.0; nq];
    let mut pgv_p05 = vec![0.0; nq];
    let mut pgv_p95 = vec![0.0; nq];
    for s in 0..nq {
        let mut vals: Vec<f64> = samples.iter().map(|p| p[s]).collect();
        let mean = vals.iter().sum::<f64>() / n_samples as f64;
        let var =
            vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n_samples - 1) as f64;
        vals.sort_by(|a, b| a.partial_cmp(b).expect("PGV values are finite"));
        let quant = |q: f64| -> f64 {
            let pos = q * (n_samples - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            let w = pos - lo as f64;
            vals[lo] * (1.0 - w) + vals[hi] * w
        };
        pgv_mean[s] = mean;
        pgv_std[s] = var.sqrt();
        pgv_p05[s] = quant(0.05);
        pgv_p95[s] = quant(0.95);
    }
    ShakeMap {
        pgv_map,
        pgv_mean,
        pgv_std,
        pgv_p05,
        pgv_p95,
        n_samples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsunami_linalg::random::seeded_rng;

    #[test]
    fn pgv_finds_peak_magnitude_per_site() {
        // 2 sites, 3 times; site 0 peaks at |−3|, site 1 at |2.5|.
        let q = vec![1.0, 0.5, -3.0, 2.5, 0.2, -1.0];
        let p = pgv(&q, 2, 3);
        assert_eq!(p, vec![3.0, 2.5]);
    }

    #[test]
    fn zero_covariance_collapses_the_ensemble() {
        let nq = 2;
        let nt = 4;
        let q_map: Vec<f64> = (0..nq * nt).map(|i| (i as f64 * 0.7).sin()).collect();
        let cov = DMatrix::zeros(nq * nt, nq * nt);
        let mut rng = seeded_rng(1);
        let sm = shake_map(&q_map, cov, nq, nt, 50, &mut rng);
        // With (numerically) zero uncertainty every sample equals the mean.
        for s in 0..nq {
            assert!((sm.pgv_mean[s] - sm.pgv_map[s]).abs() < 1e-6);
            assert!(sm.pgv_std[s] < 1e-6);
            assert!((sm.pgv_p95[s] - sm.pgv_p05[s]).abs() < 1e-6);
        }
    }

    #[test]
    fn wider_covariance_widens_the_bands() {
        let nq = 1;
        let nt = 6;
        let n = nq * nt;
        let q_map = vec![0.1; n];
        let mut small = DMatrix::zeros(n, n);
        small.shift_diag(1e-4);
        let mut large = DMatrix::zeros(n, n);
        large.shift_diag(1.0);
        let mut rng = seeded_rng(2);
        let sm_small = shake_map(&q_map, small, nq, nt, 400, &mut rng);
        let mut rng = seeded_rng(2);
        let sm_large = shake_map(&q_map, large, nq, nt, 400, &mut rng);
        assert!(sm_large.pgv_std[0] > sm_small.pgv_std[0]);
        assert!(
            sm_large.pgv_p95[0] - sm_large.pgv_p05[0] > sm_small.pgv_p95[0] - sm_small.pgv_p05[0]
        );
    }

    #[test]
    fn percentiles_bracket_the_mean_map() {
        let nq = 3;
        let nt = 5;
        let n = nq * nt;
        let q_map: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).cos()).collect();
        let mut cov = DMatrix::zeros(n, n);
        cov.shift_diag(0.01);
        let mut rng = seeded_rng(3);
        let sm = shake_map(&q_map, cov, nq, nt, 300, &mut rng);
        for s in 0..nq {
            assert!(sm.pgv_p05[s] <= sm.pgv_mean[s] + 1e-12);
            assert!(sm.pgv_p95[s] >= sm.pgv_mean[s] - 1e-12);
            // PGV of a noisy series is biased up from the noise-free peak;
            // the p95 band must at least cover the mean map.
            assert!(sm.pgv_p95[s] >= sm.pgv_map[s] - 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "QoI series dimension")]
    fn dimension_mismatch_rejected() {
        let _ = pgv(&[1.0, 2.0, 3.0], 2, 2);
    }
}
