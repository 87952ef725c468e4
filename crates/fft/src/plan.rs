//! Iterative radix-2 Cooley–Tukey FFT with precomputed twiddles.
//!
//! Sized plans are built once and reused across the thousands of transforms
//! in a Toeplitz matvec, mirroring how cuFFT/rocFFT plans are cached in the
//! paper's FFTMatvec code. Plans are `Sync` so worker threads share them.

use tsunami_linalg::C64;

/// An FFT plan for a fixed power-of-two length.
pub struct FftPlan {
    n: usize,
    /// Twiddles `e^{-2πik/n}` for `k = 0..n/2`.
    twiddles: Vec<C64>,
    /// Bit-reversal permutation.
    bitrev: Vec<u32>,
}

impl FftPlan {
    /// Create a plan for length `n` (must be a power of two, `n ≥ 1`).
    pub fn new(n: usize) -> Self {
        assert!(
            n.is_power_of_two(),
            "FftPlan: length {n} is not a power of two"
        );
        let log2n = n.trailing_zeros();
        let twiddles = (0..n / 2)
            .map(|k| C64::cis(-2.0 * std::f64::consts::PI * k as f64 / n as f64))
            .collect();
        let mut bitrev = vec![0u32; n];
        for i in 0..n {
            bitrev[i] = (i as u32).reverse_bits() >> (32 - log2n.max(1));
        }
        if n == 1 {
            bitrev[0] = 0;
        }
        FftPlan {
            n,
            twiddles,
            bitrev,
        }
    }

    /// Transform length.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// True for the degenerate length-1 plan.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// In-place forward DFT: `X_k = Σ_j x_j e^{-2πijk/n}`.
    pub fn forward(&self, data: &mut [C64]) {
        assert_eq!(data.len(), self.n, "forward: buffer length");
        if self.n == 1 {
            return;
        }
        self.permute(data);
        self.butterflies(data);
    }

    /// In-place inverse DFT (normalized): `x_j = (1/n) Σ_k X_k e^{+2πijk/n}`.
    pub fn inverse(&self, data: &mut [C64]) {
        assert_eq!(data.len(), self.n, "inverse: buffer length");
        if self.n == 1 {
            return;
        }
        // Conjugate trick: IFFT(x) = conj(FFT(conj(x))) / n.
        for z in data.iter_mut() {
            *z = z.conj();
        }
        self.permute(data);
        self.butterflies(data);
        let scale = 1.0 / self.n as f64;
        for z in data.iter_mut() {
            *z = z.conj().scale(scale);
        }
    }

    #[inline]
    fn permute(&self, data: &mut [C64]) {
        for i in 0..self.n {
            let j = self.bitrev[i] as usize;
            if i < j {
                data.swap(i, j);
            }
        }
    }

    fn butterflies(&self, data: &mut [C64]) {
        let n = self.n;
        let mut len = 2;
        while len <= n {
            let half = len / 2;
            let stride = n / len;
            for block in data.chunks_exact_mut(len) {
                let (lo, hi) = block.split_at_mut(half);
                for k in 0..half {
                    let w = self.twiddles[k * stride];
                    let t = hi[k] * w;
                    let u = lo[k];
                    lo[k] = u + t;
                    hi[k] = u - t;
                }
            }
            len <<= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft::naive_dft;

    fn rand_signal(n: usize, seed: u64) -> Vec<C64> {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        (0..n)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let re = ((s >> 11) as f64 / (1u64 << 53) as f64) - 0.5;
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let im = ((s >> 11) as f64 / (1u64 << 53) as f64) - 0.5;
                C64::new(re, im)
            })
            .collect()
    }

    fn max_err(a: &[C64], b: &[C64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (*x - *y).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn matches_naive_dft() {
        for &n in &[1usize, 2, 4, 8, 64, 256] {
            let x = rand_signal(n, n as u64);
            let mut y = x.clone();
            FftPlan::new(n).forward(&mut y);
            let z = naive_dft(&x);
            assert!(max_err(&y, &z) < 1e-10 * (n as f64), "n={n}");
        }
    }

    #[test]
    fn forward_inverse_roundtrip() {
        for &n in &[2usize, 16, 128, 1024] {
            let x = rand_signal(n, 3 * n as u64 + 1);
            let mut y = x.clone();
            let plan = FftPlan::new(n);
            plan.forward(&mut y);
            plan.inverse(&mut y);
            assert!(max_err(&x, &y) < 1e-12, "roundtrip n={n}");
        }
    }

    #[test]
    fn parseval() {
        let n = 512;
        let x = rand_signal(n, 99);
        let mut y = x.clone();
        FftPlan::new(n).forward(&mut y);
        let ex: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let ey: f64 = y.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        assert!((ex - ey).abs() < 1e-10 * ex);
    }

    #[test]
    fn impulse_transforms_to_constant() {
        let n = 32;
        let mut x = vec![C64::ZERO; n];
        x[0] = C64::ONE;
        FftPlan::new(n).forward(&mut x);
        for z in &x {
            assert!((z.re - 1.0).abs() < 1e-13 && z.im.abs() < 1e-13);
        }
    }

    #[test]
    fn linearity() {
        let n = 64;
        let a = rand_signal(n, 1);
        let b = rand_signal(n, 2);
        let plan = FftPlan::new(n);
        let mut fa = a.clone();
        plan.forward(&mut fa);
        let mut fb = b.clone();
        plan.forward(&mut fb);
        let mut ab: Vec<C64> = a
            .iter()
            .zip(&b)
            .map(|(x, y)| *x * 2.0 + *y * -3.0)
            .collect();
        plan.forward(&mut ab);
        for i in 0..n {
            let expect = fa[i] * 2.0 + fb[i] * -3.0;
            assert!((ab[i] - expect).abs() < 1e-11);
        }
    }

    #[test]
    #[should_panic(expected = "not a power of two")]
    fn rejects_non_pow2() {
        let _ = FftPlan::new(12);
    }
}
