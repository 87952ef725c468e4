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

/// Rank-R panel update `acc ← acc + alpha · Σ_r coeffs[r] · rows[r]`, where
/// `rows` is a contiguous row-major `R × width` block.
///
/// This is the GEMM microkernel of the RHS-major spine: rows are processed
/// eight (then four) at a time so each load/update/store pass over the
/// `width`-long accumulator is amortized over many fused multiply-adds,
/// instead of the one pass per row that a plain [`axpy`] loop pays. All
/// loads are unit-stride.
pub fn block_axpy(alpha: f64, coeffs: &[f64], rows: &[f64], width: usize, acc: &mut [f64]) {
    assert_eq!(
        rows.len(),
        coeffs.len() * width,
        "block_axpy: block shape mismatch"
    );
    assert_eq!(acc.len(), width, "block_axpy: accumulator width");
    let mut r = 0;
    while r + 8 <= coeffs.len() {
        let a: [f64; 8] = std::array::from_fn(|t| alpha * coeffs[r + t]);
        let block = &rows[r * width..(r + 8) * width];
        let (b0, rest) = block.split_at(width);
        let (b1, rest) = rest.split_at(width);
        let (b2, rest) = rest.split_at(width);
        let (b3, rest) = rest.split_at(width);
        let (b4, rest) = rest.split_at(width);
        let (b5, rest) = rest.split_at(width);
        let (b6, b7) = rest.split_at(width);
        for (j, av) in acc.iter_mut().enumerate() {
            let lo = a[0] * b0[j] + a[1] * b1[j] + a[2] * b2[j] + a[3] * b3[j];
            let hi = a[4] * b4[j] + a[5] * b5[j] + a[6] * b6[j] + a[7] * b7[j];
            *av += lo + hi;
        }
        r += 8;
    }
    if r + 4 <= coeffs.len() {
        let a: [f64; 4] = std::array::from_fn(|t| alpha * coeffs[r + t]);
        let block = &rows[r * width..(r + 4) * width];
        let (b0, rest) = block.split_at(width);
        let (b1, rest) = rest.split_at(width);
        let (b2, b3) = rest.split_at(width);
        for (j, av) in acc.iter_mut().enumerate() {
            *av += a[0] * b0[j] + a[1] * b1[j] + a[2] * b2[j] + a[3] * b3[j];
        }
        r += 4;
    }
    for rr in r..coeffs.len() {
        axpy(alpha * coeffs[rr], &rows[rr * width..(rr + 1) * width], acc);
    }
}

/// Two-accumulator rank-R panel update: like [`block_axpy`], but each row
/// block loaded from `rows` feeds *two* accumulators
/// (`acc0 += alpha·Σ coeffs0[r]·rows[r]`, `acc1 += alpha·Σ coeffs1[r]·rows[r]`).
/// Streaming a shared block into multiple accumulators halves the
/// dominant load traffic per accumulator — the register-blocking axis the
/// grouped scenario-identification GEMM runs over lockstep streams.
pub fn block_axpy2(
    alpha: f64,
    coeffs0: &[f64],
    coeffs1: &[f64],
    rows: &[f64],
    width: usize,
    acc0: &mut [f64],
    acc1: &mut [f64],
) {
    assert_eq!(coeffs0.len(), coeffs1.len(), "block_axpy2: coeff lengths");
    assert_eq!(
        rows.len(),
        coeffs0.len() * width,
        "block_axpy2: block shape mismatch"
    );
    assert_eq!(acc0.len(), width, "block_axpy2: accumulator width");
    assert_eq!(acc1.len(), width, "block_axpy2: accumulator width");
    let r4 = coeffs0.len() & !3;
    let mut r = 0;
    while r < r4 {
        let a: [f64; 4] = std::array::from_fn(|t| alpha * coeffs0[r + t]);
        let c: [f64; 4] = std::array::from_fn(|t| alpha * coeffs1[r + t]);
        let block = &rows[r * width..(r + 4) * width];
        let (b0, rest) = block.split_at(width);
        let (b1, rest) = rest.split_at(width);
        let (b2, b3) = rest.split_at(width);
        for j in 0..width {
            let (v0, v1, v2, v3) = (b0[j], b1[j], b2[j], b3[j]);
            acc0[j] += (a[0] * v0 + a[1] * v1) + (a[2] * v2 + a[3] * v3);
            acc1[j] += (c[0] * v0 + c[1] * v1) + (c[2] * v2 + c[3] * v3);
        }
        r += 4;
    }
    if r4 < coeffs0.len() {
        let tail = &rows[r4 * width..];
        block_axpy(alpha, &coeffs0[r4..], tail, width, acc0);
        block_axpy(alpha, &coeffs1[r4..], tail, width, acc1);
    }
}

/// Four-accumulator rank-R panel update: the 4-stream generalization of
/// [`block_axpy2`]. Each block of rows loaded from `rows` feeds *four*
/// accumulators (`acc[s] += alpha · Σ_r coeffs[s][r] · rows[r]`), so the
/// dominant load traffic is amortized over four misfit streams — and the
/// FMA-to-load ratio doubles over the pairwise kernel (16 fused updates
/// per 4 row values + 4 accumulator read/writes).
///
/// Rows are *strided*: row `r` occupies `rows[r·stride .. r·stride + width]`.
/// `stride == width` walks a contiguous row-major block (the
/// [`block_axpy`] layout); `stride > width` walks a column tile of a wider
/// block without copying — the tiling axis the grouped scenario-
/// identification GEMM uses once banks outgrow the cache.
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

/// Parallel `y ← y + alpha x`.
pub fn par_axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "par_axpy: length mismatch");
    if x.len() < PAR_THRESHOLD {
        return axpy(alpha, x, y);
    }
    y.par_chunks_mut(PAR_THRESHOLD)
        .zip(x.par_chunks(PAR_THRESHOLD))
        .for_each(|(yc, xc)| axpy(alpha, xc, yc));
}

/// `y ← alpha x + beta y`.
#[inline]
pub fn axpby(alpha: f64, x: &[f64], beta: f64, y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpby: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi = alpha * xi + beta * *yi;
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

/// Max norm `‖x‖∞`.
#[inline]
pub fn norm_inf(x: &[f64]) -> f64 {
    x.iter().fold(0.0, |m, &v| m.max(v.abs()))
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
            block_axpy(-2.0, &coeffs, &block, width, &mut acc1);
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
    fn block_axpy2_matches_two_block_axpys() {
        for rows in [0usize, 1, 3, 4, 5, 7, 8, 9, 16, 19] {
            let width = 11;
            let c0: Vec<f64> = (0..rows).map(|r| (r as f64 * 0.9).sin()).collect();
            let c1: Vec<f64> = (0..rows).map(|r| (r as f64 * 1.7).cos()).collect();
            let block: Vec<f64> = (0..rows * width).map(|i| (i as f64 * 0.23).sin()).collect();
            let mut a0 = vec![0.5; width];
            let mut a1 = vec![-0.5; width];
            let mut r0 = a0.clone();
            let mut r1 = a1.clone();
            block_axpy2(-2.0, &c0, &c1, &block, width, &mut a0, &mut a1);
            block_axpy(-2.0, &c0, &block, width, &mut r0);
            block_axpy(-2.0, &c1, &block, width, &mut r1);
            for ((x, y), (u, v)) in a0.iter().zip(&r0).zip(a1.iter().zip(&r1)) {
                assert!((x - y).abs() < 1e-12, "rows={rows} acc0: {x} vs {y}");
                assert!((u - v).abs() < 1e-12, "rows={rows} acc1: {u} vs {v}");
            }
        }
    }

    #[test]
    fn block_axpy4_matches_four_block_axpys_at_awkward_widths() {
        // Row counts straddling the 4-row unroll and widths that are not
        // lane-friendly; contiguous layout (stride == width).
        for rows in [0usize, 1, 3, 4, 5, 7, 8, 9, 13, 16, 21] {
            for width in [1usize, 5, 11, 17] {
                let cs: Vec<Vec<f64>> = (0..4)
                    .map(|s| {
                        (0..rows)
                            .map(|r| ((r + 3 * s) as f64 * 0.9).sin())
                            .collect()
                    })
                    .collect();
                let block: Vec<f64> = (0..rows * width).map(|i| (i as f64 * 0.23).sin()).collect();
                let mut accs: Vec<Vec<f64>> = (0..4).map(|s| vec![0.5 - s as f64; width]).collect();
                let mut refs = accs.clone();
                {
                    let [a0, a1, a2, a3] = &mut accs[..] else {
                        unreachable!()
                    };
                    block_axpy4(
                        -2.0,
                        [&cs[0], &cs[1], &cs[2], &cs[3]],
                        &block,
                        width,
                        width,
                        [a0, a1, a2, a3],
                    );
                }
                for s in 0..4 {
                    block_axpy(-2.0, &cs[s], &block, width, &mut refs[s]);
                    for (x, y) in accs[s].iter().zip(&refs[s]) {
                        assert!(
                            (x - y).abs() < 1e-12,
                            "rows={rows} width={width} acc{s}: {x} vs {y}"
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
    fn par_axpy_matches_serial() {
        let n = PAR_THRESHOLD * 2 + 5;
        let x: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let mut y1: Vec<f64> = (0..n).map(|i| (i * 2) as f64).collect();
        let mut y2 = y1.clone();
        axpy(-0.5, &x, &mut y1);
        par_axpy(-0.5, &x, &mut y2);
        assert_eq!(y1, y2); // elementwise: exact equality expected
    }

    #[test]
    fn norms() {
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-15);
        assert_eq!(norm_inf(&[-7.0, 2.0]), 7.0);
    }

    #[test]
    fn rel_err_zero_for_equal() {
        let x = [1.0, -2.0, 3.5];
        assert_eq!(rel_err(&x, &x), 0.0);
    }

    #[test]
    fn axpby_combines() {
        let x = [1.0, 2.0];
        let mut y = [3.0, 4.0];
        axpby(2.0, &x, 0.5, &mut y);
        assert_eq!(y, [3.5, 6.0]);
    }
}
