//! Order statistics used by every workload and by `--compare`.

/// Sort a sample ascending (NaN-free by construction: all inputs are
/// durations or finite ratios).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile of an ascending sample: the smallest element
/// with at least `p` percent of the sample at or below it. `p` in
/// `(0, 100]`; panics on an empty sample (a workload with no samples is a
/// harness bug, not a measurement).
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank percentile of an unsorted sample.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    percentile_sorted(&sorted(v.to_vec()), p)
}

/// Median as the mean of the two middle elements for even counts — the
/// convention of Python's `statistics.median`, which the driver uses.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    assert!(!s.is_empty(), "median of an empty sample");
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// First and third quartile by the exclusive method of Python's
/// `statistics.quantiles(v, n=4)`, so the spread printed here is the one
/// the driver computes. Needs at least two values.
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    let s = sorted(v.to_vec());
    let n = s.len();
    assert!(n >= 2, "quartiles need at least two values");
    let at = |i: usize| {
        // Position i·(n+1)/4 on a 1-based scale, linearly interpolated and
        // clamped to the sample's ends.
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Interquartile distance as a share of the median: the run-to-run spread
/// the driver bounds.
pub fn iqr_share(v: &[f64]) -> f64 {
    let (q1, q3) = quartiles(v);
    (q3 - q1) / median(v).abs().max(f64::MIN_POSITIVE)
}

/// A tail percentile that one scheduler hiccup cannot move: cut the sample
/// (in arrival order) into contiguous segments of `seg_len`, take each
/// segment's percentile, and return the median over segments. A trailing
/// remainder shorter than `seg_len` joins the last segment. With fewer
/// than two full segments this is the plain percentile.
pub fn segment_median_percentile(v: &[f64], seg_len: usize, p: f64) -> f64 {
    assert!(seg_len > 0, "segment length must be positive");
    let n_seg = v.len() / seg_len;
    if n_seg < 2 {
        return percentile(v, p);
    }
    let per_seg: Vec<f64> = (0..n_seg)
        .map(|i| {
            let end = if i + 1 == n_seg {
                v.len()
            } else {
                (i + 1) * seg_len
            };
            percentile(&v[i * seg_len..end], p)
        })
        .collect();
    median(&per_seg)
}

/// Segment length giving at least `min_segments` segments, of `want` samples
/// each where the sample is large enough.
pub fn segment_len(n: usize, want: usize, min_segments: usize) -> usize {
    want.min(n / min_segments).max(1)
}

/// Least-squares slope of `y` against `x` (0 for fewer than two points or
/// a constant `x`).
pub fn slope(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "slope: length mismatch");
    let n = x.len() as f64;
    if x.len() < 2 {
        return 0.0;
    }
    let (mx, my) = (x.iter().sum::<f64>() / n, y.iter().sum::<f64>() / n);
    let sxx: f64 = x.iter().map(|a| (a - mx) * (a - mx)).sum();
    if sxx == 0.0 {
        return 0.0;
    }
    let sxy: f64 = x.iter().zip(y).map(|(a, b)| (a - mx) * (b - my)).sum();
    sxy / sxx
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Oracle: walk the sorted vector and count.
    fn oracle(v: &[f64], p: f64) -> f64 {
        let s = sorted(v.to_vec());
        for &x in &s {
            let at_or_below = s.iter().filter(|&&y| y <= x).count();
            if at_or_below as f64 >= p / 100.0 * s.len() as f64 {
                return x;
            }
        }
        *s.last().unwrap()
    }

    fn scrambled(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| ((i * 7919 + 13) % 1009) as f64 * 0.5)
            .collect()
    }

    #[test]
    fn percentile_matches_the_oracle_at_awkward_counts() {
        for n in [1, 2, 3, 7, 10, 99, 100, 101, 997, 1000] {
            let v = scrambled(n);
            for p in [1.0, 25.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
                assert_eq!(percentile(&v, p), oracle(&v, p), "n={n} p={p}");
            }
        }
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q3) = quartiles(&[16.0, 1.0, 4.0, 2.0, 8.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 12.0).abs() < 1e-12);
        // Two values: both quartiles extrapolate to the ends' neighbours.
        let (q1, q3) = quartiles(&[1.0, 3.0]);
        assert!((q1 - 0.5).abs() < 1e-12 && (q3 - 3.5).abs() < 1e-12);
    }

    #[test]
    fn segment_median_ignores_one_hiccup() {
        // Five segments of 100; one segment holds a huge outlier.
        let mut v: Vec<f64> = (0..500).map(|i| (i % 100) as f64).collect();
        v[250] = 1e9;
        assert_eq!(segment_median_percentile(&v, 100, 99.0), 98.0);
        // The plain percentile sees the same value here, but a max would not.
        assert_eq!(percentile(&v, 100.0), 1e9);
    }

    #[test]
    fn segment_median_matches_an_explicit_split_at_awkward_counts() {
        for (n, seg) in [(1037, 100), (250, 64), (199, 100), (64, 64), (5, 2)] {
            let v = scrambled(n);
            let n_seg = n / seg;
            let want = if n_seg < 2 {
                oracle(&v, 99.0)
            } else {
                let mut per = Vec::new();
                for i in 0..n_seg {
                    let end = if i + 1 == n_seg { n } else { (i + 1) * seg };
                    per.push(oracle(&v[i * seg..end], 99.0));
                }
                median(&per)
            };
            assert_eq!(
                segment_median_percentile(&v, seg, 99.0),
                want,
                "n={n} seg={seg}"
            );
        }
    }

    #[test]
    fn segment_len_keeps_the_minimum_count() {
        assert_eq!(segment_len(10_000, 1000, 5), 1000);
        assert_eq!(segment_len(640, 1000, 5), 128);
        assert_eq!(segment_len(3, 1000, 5), 1);
    }

    #[test]
    fn slope_of_a_line() {
        let x = [0.0, 1.0, 2.0, 3.0];
        let y = [1.0, 3.0, 5.0, 7.0];
        assert!((slope(&x, &y) - 2.0).abs() < 1e-12);
        assert_eq!(slope(&[1.0], &[2.0]), 0.0);
    }
}
