//! Level-1 vector kernels with serial and rayon-parallel variants.
//!
//! The parallel variants use fixed chunking so results are deterministic for
//! a given thread split; tests that compare serial vs parallel use a small
//! tolerance to absorb the different summation orders.

use rayon::prelude::*;

/// Minimum length before the parallel variants fan out to the thread pool.
/// Below this, rayon overhead dominates the memory-bound kernel.
pub const PAR_THRESHOLD: usize = 1 << 14;

/// Dot product `xᵀy`.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    x.iter().zip(y).map(|(a, b)| a * b).sum()
}

/// Parallel dot product; pairwise over chunks for better rounding behaviour.
pub fn par_dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "par_dot: length mismatch");
    if x.len() < PAR_THRESHOLD {
        return dot(x, y);
    }
    x.par_chunks(PAR_THRESHOLD)
        .zip(y.par_chunks(PAR_THRESHOLD))
        .map(|(a, b)| dot(a, b))
        .sum()
}

/// Dot product with sixteen independent accumulator lanes.
///
/// Reassociates the sum (unlike the strictly sequential [`dot`]), which
/// lets the compiler vectorize the reduction — and sixteen lanes give it
/// four vector accumulators, enough independent chains to hide FMA
/// latency instead of serializing on one. Results agree with [`dot`] to
/// roundoff reshuffling only. This is the sweep microkernel of the
/// RHS-major triangular solves: both operands are contiguous rows.
#[inline]
pub fn dot_lanes(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot_lanes: length mismatch");
    const LANES: usize = 16;
    let split = x.len() & !(LANES - 1);
    let mut acc = [0.0f64; LANES];
    for (cx, cy) in x[..split]
        .chunks_exact(LANES)
        .zip(y[..split].chunks_exact(LANES))
    {
        for t in 0..LANES {
            acc[t] += cx[t] * cy[t];
        }
    }
    let mut tail = 0.0;
    for (a, b) in x[split..].iter().zip(&y[split..]) {
        tail += a * b;
    }
    let mut width = LANES / 2;
    while width > 0 {
        for t in 0..width {
            acc[t] += acc[t + width];
        }
        width /= 2;
    }
    acc[0] + tail
}

/// Rank-R panel update `acc ← acc + alpha · Σ_r coeffs[r] · rows[r]`.
///
/// Rows are *strided*: row `r` occupies `rows[r·stride .. r·stride + width]`
/// (`stride == width` walks a contiguous row-major block, `stride > width`
/// a column tile of a wider one). Rows are consumed four at a time, summed
/// `(a₀v₀ + a₁v₁) + (a₂v₂ + a₃v₃)` into the accumulator, and the
/// leftover rows are one [`axpy`] each — exactly the per-accumulator
/// arithmetic of [`block_axpy4`], so one stream updated alone gets the
/// same bits as the same stream updated inside a quad. That is what lets
/// the grouped identification GEMM give a stream an answer that does not
/// depend on which other streams share its group.
pub fn block_axpy(
    alpha: f64,
    coeffs: &[f64],
    rows: &[f64],
    stride: usize,
    width: usize,
    acc: &mut [f64],
) {
    let r_n = coeffs.len();
    assert!(stride >= width, "block_axpy: stride narrower than width");
    if r_n > 0 {
        assert!(
            rows.len() >= (r_n - 1) * stride + width,
            "block_axpy: block shape mismatch"
        );
    }
    assert_eq!(acc.len(), width, "block_axpy: accumulator width");
    let r4 = r_n & !3;
    let mut r = 0;
    while r < r4 {
        let a: [f64; 4] = std::array::from_fn(|t| alpha * coeffs[r + t]);
        let b0 = &rows[r * stride..r * stride + width];
        let b1 = &rows[(r + 1) * stride..(r + 1) * stride + width];
        let b2 = &rows[(r + 2) * stride..(r + 2) * stride + width];
        let b3 = &rows[(r + 3) * stride..(r + 3) * stride + width];
        for j in 0..width {
            acc[j] += (a[0] * b0[j] + a[1] * b1[j]) + (a[2] * b2[j] + a[3] * b3[j]);
        }
        r += 4;
    }
    for rr in r..r_n {
        axpy(
            alpha * coeffs[rr],
            &rows[rr * stride..rr * stride + width],
            acc,
        );
    }
}

/// Four-accumulator rank-R panel update: four [`block_axpy`] calls fused
/// over one pass of the rows. Each block of rows loaded from `rows` feeds
/// *four* accumulators (`acc[s] += alpha · Σ_r coeffs[s][r] · rows[r]`), so
/// the dominant load traffic is amortized over four misfit streams (16
/// fused updates per 4 row values + 4 accumulator read/writes). Each
/// accumulator gets the bits [`block_axpy`] would give it alone.
///
/// Rows are strided as in [`block_axpy`]: `stride > width` walks a column
/// tile of a wider block without copying — the tiling axis the grouped
/// scenario-identification GEMM uses once banks outgrow the cache.
pub fn block_axpy4(
    alpha: f64,
    coeffs: [&[f64]; 4],
    rows: &[f64],
    stride: usize,
    width: usize,
    acc: [&mut [f64]; 4],
) {
    let r_n = coeffs[0].len();
    for c in &coeffs {
        assert_eq!(c.len(), r_n, "block_axpy4: coeff lengths");
    }
    assert!(stride >= width, "block_axpy4: stride narrower than width");
    if r_n > 0 {
        assert!(
            rows.len() >= (r_n - 1) * stride + width,
            "block_axpy4: block shape mismatch"
        );
    }
    for a in &acc {
        assert_eq!(a.len(), width, "block_axpy4: accumulator width");
    }
    let [c0, c1, c2, c3] = coeffs;
    let [acc0, acc1, acc2, acc3] = acc;
    let r4 = r_n & !3;
    let mut r = 0;
    while r < r4 {
        let a: [f64; 4] = std::array::from_fn(|t| alpha * c0[r + t]);
        let b: [f64; 4] = std::array::from_fn(|t| alpha * c1[r + t]);
        let c: [f64; 4] = std::array::from_fn(|t| alpha * c2[r + t]);
        let d: [f64; 4] = std::array::from_fn(|t| alpha * c3[r + t]);
        let b0 = &rows[r * stride..r * stride + width];
        let b1 = &rows[(r + 1) * stride..(r + 1) * stride + width];
        let b2 = &rows[(r + 2) * stride..(r + 2) * stride + width];
        let b3 = &rows[(r + 3) * stride..(r + 3) * stride + width];
        for j in 0..width {
            let (v0, v1, v2, v3) = (b0[j], b1[j], b2[j], b3[j]);
            acc0[j] += (a[0] * v0 + a[1] * v1) + (a[2] * v2 + a[3] * v3);
            acc1[j] += (b[0] * v0 + b[1] * v1) + (b[2] * v2 + b[3] * v3);
            acc2[j] += (c[0] * v0 + c[1] * v1) + (c[2] * v2 + c[3] * v3);
            acc3[j] += (d[0] * v0 + d[1] * v1) + (d[2] * v2 + d[3] * v3);
        }
        r += 4;
    }
    for rr in r..r_n {
        let seg = &rows[rr * stride..rr * stride + width];
        axpy(alpha * c0[rr], seg, acc0);
        axpy(alpha * c1[rr], seg, acc1);
        axpy(alpha * c2[rr], seg, acc2);
        axpy(alpha * c3[rr], seg, acc3);
    }
}

/// `y ← y + alpha x`.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// `x ← alpha x`.
#[inline]
pub fn scale(alpha: f64, x: &mut [f64]) {
    for xi in x.iter_mut() {
        *xi *= alpha;
    }
}

/// Euclidean norm `‖x‖₂`.
#[inline]
pub fn norm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// Relative L2 distance `‖x − y‖ / ‖y‖` (or absolute norm if `y = 0`).
pub fn rel_err(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "rel_err: length mismatch");
    let mut num = 0.0;
    let mut den = 0.0;
    for (a, b) in x.iter().zip(y) {
        num += (a - b) * (a - b);
        den += b * b;
    }
    if den == 0.0 {
        num.sqrt()
    } else {
        (num / den).sqrt()
    }
}

/// Set all entries to zero.
#[inline]
pub fn zero(x: &mut [f64]) {
    x.iter_mut().for_each(|v| *v = 0.0);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_small() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    fn par_dot_matches_serial() {
        let n = PAR_THRESHOLD * 3 + 17;
        let x: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let y: Vec<f64> = (0..n).map(|i| (i as f64 * 0.5).cos()).collect();
        let s = dot(&x, &y);
        let p = par_dot(&x, &y);
        assert!((s - p).abs() <= 1e-9 * s.abs().max(1.0), "{s} vs {p}");
    }

    #[test]
    fn dot_lanes_matches_dot_across_remainders() {
        for n in [0usize, 1, 3, 4, 5, 7, 8, 17, 100] {
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
            let y: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).cos()).collect();
            let a = dot(&x, &y);
            let b = dot_lanes(&x, &y);
            assert!(
                (a - b).abs() <= 1e-13 * a.abs().max(1.0),
                "n={n}: {a} vs {b}"
            );
        }
    }

    #[test]
    fn block_axpy_matches_row_axpys() {
        // Row counts straddling the 4-row unroll, including the remainder.
        for rows in [0usize, 1, 3, 4, 5, 8, 11] {
            let width = 13;
            let coeffs: Vec<f64> = (0..rows).map(|r| (r as f64 * 1.3).sin()).collect();
            let block: Vec<f64> = (0..rows * width).map(|i| (i as f64 * 0.17).cos()).collect();
            let mut acc1: Vec<f64> = (0..width).map(|j| j as f64 * 0.1).collect();
            let mut acc2 = acc1.clone();
            block_axpy(-2.0, &coeffs, &block, width, width, &mut acc1);
            for r in 0..rows {
                axpy(
                    -2.0 * coeffs[r],
                    &block[r * width..(r + 1) * width],
                    &mut acc2,
                );
            }
            for (a, b) in acc1.iter().zip(&acc2) {
                assert!((a - b).abs() < 1e-12, "rows={rows}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn block_axpy4_matches_four_block_axpys_at_awkward_widths() {
        // Row counts straddling the 4-row unroll and widths that are not
        // lane-friendly, over a contiguous block (stride == width) and a
        // column tile [c0, c0 + width) of a wider one. Each accumulator of
        // the fused kernel must carry the single-stream kernel's bits.
        for rows in [0usize, 1, 3, 4, 5, 7, 8, 9, 13, 16, 21] {
            for width in [1usize, 5, 11, 17] {
                for (stride, c0) in [(width, 0usize), (width + 6, 4)] {
                    let cs: Vec<Vec<f64>> = (0..4)
                        .map(|s| {
                            (0..rows)
                                .map(|r| ((r + 3 * s) as f64 * 0.9).sin())
                                .collect()
                        })
                        .collect();
                    let block: Vec<f64> = (0..rows * stride)
                        .map(|i| (i as f64 * 0.23).sin())
                        .collect();
                    let tile = &block[c0.min(block.len())..];
                    let mut accs: Vec<Vec<f64>> =
                        (0..4).map(|s| vec![0.5 - s as f64; width]).collect();
                    let mut refs = accs.clone();
                    {
                        let [a0, a1, a2, a3] = &mut accs[..] else {
                            unreachable!()
                        };
                        block_axpy4(
                            -2.0,
                            [&cs[0], &cs[1], &cs[2], &cs[3]],
                            tile,
                            stride,
                            width,
                            [a0, a1, a2, a3],
                        );
                    }
                    for s in 0..4 {
                        block_axpy(-2.0, &cs[s], tile, stride, width, &mut refs[s]);
                        assert_eq!(
                            accs[s], refs[s],
                            "rows={rows} width={width} stride={stride} acc{s}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn block_axpy4_strided_walks_column_tiles() {
        // A column tile [c0, c0+width) of a wider row-major block must
        // produce the same update as the contiguous kernel on a gathered
        // copy of that tile.
        let (rows, full, width, c0) = (11usize, 29usize, 7usize, 9usize);
        let cs: Vec<Vec<f64>> = (0..4)
            .map(|s| {
                (0..rows)
                    .map(|r| ((r * 5 + s) as f64 * 0.37).cos())
                    .collect()
            })
            .collect();
        let block: Vec<f64> = (0..rows * full).map(|i| (i as f64 * 0.11).sin()).collect();
        let gathered: Vec<f64> = (0..rows)
            .flat_map(|r| block[r * full + c0..r * full + c0 + width].to_vec())
            .collect();
        let mut strided: Vec<Vec<f64>> = (0..4).map(|s| vec![s as f64 * 0.1; width]).collect();
        let mut contig = strided.clone();
        {
            let [a0, a1, a2, a3] = &mut strided[..] else {
                unreachable!()
            };
            block_axpy4(
                1.5,
                [&cs[0], &cs[1], &cs[2], &cs[3]],
                &block[c0..(rows - 1) * full + c0 + width],
                full,
                width,
                [a0, a1, a2, a3],
            );
        }
        {
            let [a0, a1, a2, a3] = &mut contig[..] else {
                unreachable!()
            };
            block_axpy4(
                1.5,
                [&cs[0], &cs[1], &cs[2], &cs[3]],
                &gathered,
                width,
                width,
                [a0, a1, a2, a3],
            );
        }
        assert_eq!(strided, contig, "strided tile walk must match gathered");
    }

    #[test]
    fn axpy_updates() {
        let x = [1.0, 2.0];
        let mut y = [10.0, 20.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 24.0]);
    }

    #[test]
    fn norms() {
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-15);
    }

    #[test]
    fn rel_err_zero_for_equal() {
        let x = [1.0, -2.0, 3.5];
        assert_eq!(rel_err(&x, &x), 0.0);
    }
}
