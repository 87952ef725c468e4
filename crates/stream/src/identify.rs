//! Scenario-identification kernels: scoring arrived samples against a
//! bank's clean observation curves.
//!
//! A session's per-scenario squared misfit over its scored samples is
//! `mis_j = Σ_i (d_i − c_ij)²` with `c` the bank's stacked clean block
//! (`(Nd·Nt) × B`, row `i` = every scenario's prediction for the same
//! (sensor, time) slot). Scoring expands the square,
//!
//! ```text
//!   Σ_i (d_i − c_ij)²  =  Σ_i d_i²  −  2 Σ_i d_i c_ij  +  Σ_i c_ij²,
//! ```
//!
//! so a whole *block* of newly arrived rows updates all `B` scenarios at
//! once: the data term is a scalar, the clean-energy term is a lookup into
//! precomputed prefix sums ([`sq_prefix`]), and the cross term is a blocked
//! `rows × scenarios` GEMM ([`tsunami_linalg::vec_ops::block_axpy`]) whose
//! passes over the `B`-wide misfit accumulator are amortized over four
//! clean rows instead of re-paid per sample. That is what keeps
//! identification cheap when banks grow to 10³+ scenarios. The tests pin
//! it against the per-sample definition.
//!
//! The POD mode-space path splits the same score in two: a per-tick fold
//! of arrived rows into the `r`-dimensional projection `a = Uᵀd`
//! ([`project_group`]), which with the data energy `‖d‖²` is the whole
//! sufficient statistic, and a read-time materialization of all `B`
//! misfits from that statistic ([`score_group_pod`]), run only when a
//! warning transition or a query reads them.

use tsunami_linalg::vec_ops::{axpy, block_axpy, block_axpy2, block_axpy4};
use tsunami_linalg::DMatrix;

/// Prefix sums of the squared clean observations: row-major
/// `(n + 1) × B` with `out[i·B + j] = Σ_{i' < i} c_{i'j}²`, so the clean
/// energy of any row range `[i0, i1)` is the `B`-vector
/// `out[i1·B..] − out[i0·B..]`. One extra pass over the bank at attach
/// time buys an O(B) range lookup per scoring call.
///
/// The running sums are compensated (Kahan): the naive recurrence
/// `out[i+1] = out[i] + c²` accumulates one rounding error per row, so at
/// `10⁴`-row horizons a tail-range lookup could drift by `O(n·ulp)` of
/// the *total* energy — swamping small tail energies entirely once the
/// head rows dominate. The compensation term re-injects each step's lost
/// low-order bits, keeping every stored prefix correctly rounded (error
/// ≤ a few ulps of the true sum, independent of `n`).
pub fn sq_prefix(clean: &DMatrix) -> Vec<f64> {
    let (n, b) = (clean.nrows(), clean.ncols());
    let mut out = vec![0.0; (n + 1) * b];
    let mut comp = vec![0.0; b];
    for i in 0..n {
        let row = clean.row(i);
        let (lo, hi) = out[i * b..(i + 2) * b].split_at_mut(b);
        for (j, (h, &l)) in hi.iter_mut().zip(lo.iter()).enumerate() {
            let y = row[j] * row[j] - comp[j];
            let t = l + y;
            comp[j] = (t - l) - y;
            *h = t;
        }
    }
    out
}

/// Clean rows scored per pass of the cross-term GEMM: small enough that a
/// `ROW_BLOCK × B` block of clean rows stays cache-resident while every
/// stream in a group is scored against it, large enough to amortize the
/// misfit-accumulator traffic (see [`score_group_gemm`]).
const ROW_BLOCK: usize = 16;

/// Scenario columns updated per pass of the cross-term GEMM. Banks up to
/// this width run untiled (one tile spans the bank); at 10⁴-scenario
/// banks the `B`-wide misfit accumulators and clean rows no longer fit
/// in cache together, so the loop walks `COL_TILE`-wide column tiles and
/// keeps the active clean tile plus four misfit tiles resident while a
/// row block is consumed. 1024 columns × (4 misfit + `ROW_BLOCK` clean
/// rows worth of tile) ≈ 160 KiB, comfortably inside L2.
const COL_TILE: usize = 1024;

/// Blocked GEMM scoring of a *group* of streams that all need the same
/// row range `[i0, i1)` scored — the `(streams × rows) · (rows ×
/// scenarios)` GEMM proper. `group` pairs each stream's sample prefix
/// (`d_prefix`, at least `i1` long) with its `B`-wide misfit accumulator.
///
/// The cross-term loop runs row-blocks *outer* and streams *inner*: each
/// `ROW_BLOCK × B` block of clean rows is pulled through the cache
/// hierarchy once and reused by every stream in the group, so a tick that
/// scores `S` lockstep sessions against a 10³⁺-scenario bank streams the
/// bank once instead of `S` times — at bank sizes where the clean block
/// spills out of cache, that is the entire cost. Agrees with the
/// per-sample definition `misfit[j] += (d_i − c_ij)²` to roundoff (the
/// expansion reassociates the sums), at any sample granularity.
pub fn score_group_gemm(
    clean: &DMatrix,
    sq_prefix: &[f64],
    i0: usize,
    i1: usize,
    group: &mut [(&[f64], &mut [f64])],
) {
    let b = clean.ncols();
    assert!(i1 <= clean.nrows(), "more samples than rows");
    assert_eq!(sq_prefix.len(), (clean.nrows() + 1) * b, "sq_prefix shape");
    if i0 >= i1 || group.is_empty() {
        return;
    }
    // Data-energy and clean-energy terms, one O(B) pass per stream.
    let lo = &sq_prefix[i0 * b..(i0 + 1) * b];
    let hi = &sq_prefix[i1 * b..(i1 + 1) * b];
    for (d_prefix, misfit) in group.iter_mut() {
        assert!(d_prefix.len() >= i1, "stream shorter than scored range");
        assert_eq!(misfit.len(), b, "misfit width");
        let dd: f64 = d_prefix[i0..i1].iter().map(|v| v * v).sum();
        for ((m, &h), &l) in misfit.iter_mut().zip(hi).zip(lo) {
            *m += dd + (h - l);
        }
    }
    block_cross(-2.0, clean, i0, i1, group);
}

/// The shared blocked cross-term kernel: for every `(coeffs, acc)` pair
/// in `group`, `acc[·] += alpha · Σ_{i ∈ [i0, i1)} coeffs[i] · mat[i, ·]`
/// — a `streams × rows × cols` GEMM with `mat` streamed once per row
/// block for the whole group.
///
/// Column tiles run outer (a single tile for matrices up to [`COL_TILE`]
/// wide), row blocks next, streams in *quads* inner — each loaded tile of
/// `mat` feeds four accumulators ([`block_axpy4`]), halving the load
/// traffic per accumulator again over the pairwise kernel. At
/// 10⁴-column widths the tiling keeps the active tile and the four
/// accumulator tiles cache-resident instead of streaming full-width rows
/// past cold accumulators.
///
/// Both identification paths are instances of this kernel: the exact path
/// drives it with the clean block and per-stream sample prefixes
/// ([`score_group_gemm`]); the POD path drives it with the mode basis
/// ([`project_group`]) and with the mode-coefficient block
/// ([`score_group_pod`]).
fn block_cross(
    alpha: f64,
    mat: &DMatrix,
    i0: usize,
    i1: usize,
    group: &mut [(&[f64], &mut [f64])],
) {
    let b = mat.ncols();
    let mut t0 = 0;
    while t0 < b {
        let t1 = (t0 + COL_TILE).min(b);
        let w = t1 - t0;
        let mut j0 = i0;
        while j0 < i1 {
            let j1 = (j0 + ROW_BLOCK).min(i1);
            let rows = &mat.as_slice()[j0 * b + t0..(j1 - 1) * b + t1];
            for quad in group.chunks_mut(4) {
                match quad {
                    [(d0, m0), (d1, m1), (d2, m2), (d3, m3)] => block_axpy4(
                        alpha,
                        [&d0[j0..j1], &d1[j0..j1], &d2[j0..j1], &d3[j0..j1]],
                        rows,
                        b,
                        w,
                        [
                            &mut m0[t0..t1],
                            &mut m1[t0..t1],
                            &mut m2[t0..t1],
                            &mut m3[t0..t1],
                        ],
                    ),
                    rest if w == b => {
                        // Contiguous (untiled) remainder: the pairwise
                        // and single-stream kernels apply directly.
                        let mut pairs = rest.chunks_mut(2);
                        for pair in &mut pairs {
                            match pair {
                                [(d0, m0), (d1, m1)] => {
                                    block_axpy2(alpha, &d0[j0..j1], &d1[j0..j1], rows, b, m0, m1);
                                }
                                [(d0, m0)] => block_axpy(alpha, &d0[j0..j1], rows, b, m0),
                                _ => unreachable!("chunks_mut(2) yields 1- or 2-element chunks"),
                            }
                        }
                    }
                    rest => {
                        // Tiled remainder (< 4 streams of a wide matrix):
                        // per-row strided updates; at most 3 of a large
                        // group, so the lost register blocking is noise.
                        for (d, m) in rest.iter_mut() {
                            for (r, &c) in d[j0..j1].iter().enumerate() {
                                axpy(alpha * c, &rows[r * b..r * b + w], &mut m[t0..t1]);
                            }
                        }
                    }
                }
            }
            j0 = j1;
        }
        t0 = t1;
    }
}

/// Incremental mode-space projection of a group's newly arrived rows:
/// for every `(d_prefix, a)` pair, `a += U[i0..i1, ·]ᵀ · d[i0..i1]` — the
/// running projection `a = Uᵀd` of the POD identification path, updated
/// per drained row range. Valid incrementally because the low-rank
/// substitution `C ≈ U·W` holds row-wise (see
/// [`tsunami_core::PodBank`]), so the projection over
/// the arrived prefix is exactly the sum of per-range contributions.
///
/// Cost is `streams × rows × r` with `r` the retained rank — the same
/// microkernels as the exact GEMM, with the `r`-wide mode accumulator
/// standing in for the `B`-wide misfit row.
pub fn project_group(u: &DMatrix, i0: usize, i1: usize, group: &mut [(&[f64], &mut [f64])]) {
    assert!(i1 <= u.nrows(), "more samples than mode rows");
    if i0 >= i1 || group.is_empty() {
        return;
    }
    for (d_prefix, a) in group.iter() {
        assert!(d_prefix.len() >= i1, "stream shorter than projected range");
        assert_eq!(a.len(), u.ncols(), "projection width vs rank");
    }
    block_cross(1.0, u, i0, i1, group);
}

/// Mode-space misfit *materialization* for a group of streams scored
/// through `[0, i1)`: each stream's `B`-wide misfit is overwritten with
///
/// ```text
///   mis_j = ‖d‖²  −  2 aᵀ w_j  +  ‖c_j‖²,
/// ```
///
/// where `a` is the stream's running projection (`dd` its running data
/// energy), `w_j` the `j`-th column of the `r × B` coefficient block
/// `W = UᵀC`, and `‖c_j‖²` the *exact* clean energy from the same prefix
/// sums the exact path uses. Unlike the exact path's per-range
/// accumulation, the POD score is a pure function of `(dd, a, i1)` —
/// `a` already summarizes all arrived rows — so nothing needs to run
/// per tick: the engine calls this at read time (a warning transition's
/// audit record, a ranking or misfit query), over a group of one, and
/// the `r × B` cross term is the whole cost of a read. Larger groups
/// agree to roundoff but not bit for bit: the blocked kernels associate
/// the `r`-term sums differently per group shape.
pub fn score_group_pod(
    coeffs: &DMatrix,
    sq_prefix: &[f64],
    i1: usize,
    group: &mut [(f64, &[f64], &mut [f64])],
) {
    let (r, b) = (coeffs.nrows(), coeffs.ncols());
    assert!(
        sq_prefix.len() >= (i1 + 1) * b,
        "sq_prefix shorter than scored range"
    );
    if group.is_empty() {
        return;
    }
    let hi = &sq_prefix[i1 * b..(i1 + 1) * b];
    for (dd, a, misfit) in group.iter_mut() {
        assert_eq!(a.len(), r, "projection width vs rank");
        assert_eq!(misfit.len(), b, "misfit width");
        for (m, &h) in misfit.iter_mut().zip(hi) {
            *m = *dd + h;
        }
    }
    let mut cross: Vec<(&[f64], &mut [f64])> =
        group.iter_mut().map(|(_, a, m)| (*a, &mut m[..])).collect();
    block_cross(-2.0, coeffs, 0, r, &mut cross);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Per-sample reference: for each newly arrived sample
    /// `i ∈ [scored, d_prefix.len())`, `misfit[j] += (d_i − c_ij)²`.
    fn score_samples_scalar(clean: &DMatrix, d_prefix: &[f64], scored: usize, misfit: &mut [f64]) {
        assert!(d_prefix.len() <= clean.nrows(), "more samples than rows");
        assert_eq!(misfit.len(), clean.ncols(), "misfit width");
        for (i, &di) in d_prefix.iter().enumerate().skip(scored) {
            for (mis, &pred) in misfit.iter_mut().zip(clean.row(i)) {
                let r = di - pred;
                *mis += r * r;
            }
        }
    }

    fn clean_block(n: usize, b: usize) -> DMatrix {
        DMatrix::from_fn(n, b, |i, j| ((i * 7 + 3 * j) as f64 * 0.13).sin())
    }

    #[test]
    fn sq_prefix_rows_are_running_energies() {
        let c = clean_block(9, 5);
        let p = sq_prefix(&c);
        assert_eq!(p.len(), 10 * 5);
        for j in 0..5 {
            assert_eq!(p[j], 0.0);
            let mut acc = 0.0;
            for i in 0..9 {
                acc += c[(i, j)] * c[(i, j)];
                assert!((p[(i + 1) * 5 + j] - acc).abs() < 1e-14);
            }
        }
    }

    #[test]
    fn gemm_matches_scalar_at_awkward_granularities() {
        // Feed the same stream in uneven chunks (1, 3, 7, remainder) and
        // in one shot; both paths must agree with the scalar oracle.
        let (n, b) = (41, 17);
        let c = clean_block(n, b);
        let p = sq_prefix(&c);
        let d: Vec<f64> = (0..n).map(|i| (i as f64 * 0.31).cos() * 2.0).collect();

        let mut ref_mis = vec![0.0; b];
        score_samples_scalar(&c, &d, 0, &mut ref_mis);

        let mut one_shot = vec![0.0; b];
        score_group_gemm(&c, &p, 0, n, &mut [(&d[..], &mut one_shot[..])]);

        let mut chunked = vec![0.0; b];
        let mut scored = 0;
        for step in [1usize, 3, 7, 2, 11, 5].iter().cycle() {
            if scored == n {
                break;
            }
            let next = (scored + step).min(n);
            score_group_gemm(&c, &p, scored, next, &mut [(&d[..next], &mut chunked[..])]);
            scored = next;
        }

        for j in 0..b {
            assert!(
                (one_shot[j] - ref_mis[j]).abs() < 1e-10 * ref_mis[j].max(1.0),
                "one-shot scenario {j}: {} vs {}",
                one_shot[j],
                ref_mis[j]
            );
            assert!(
                (chunked[j] - ref_mis[j]).abs() < 1e-10 * ref_mis[j].max(1.0),
                "chunked scenario {j}: {} vs {}",
                chunked[j],
                ref_mis[j]
            );
        }
    }

    #[test]
    fn group_scoring_matches_per_stream_scalar() {
        // A lockstep group of streams scored in one grouped GEMM must
        // agree with independent scalar passes, over a range that is not
        // ROW_BLOCK-aligned on either end.
        let (n, b, streams) = (37, 11, 5);
        let c = clean_block(n, b);
        let p = sq_prefix(&c);
        let ds: Vec<Vec<f64>> = (0..streams)
            .map(|s| (0..n).map(|i| ((i + 13 * s) as f64 * 0.29).cos()).collect())
            .collect();
        let (i0, i1) = (3, 30);

        let mut mis: Vec<Vec<f64>> = vec![vec![0.25; b]; streams];
        {
            let mut group: Vec<(&[f64], &mut [f64])> = ds
                .iter()
                .zip(mis.iter_mut())
                .map(|(d, m)| (&d[..], &mut m[..]))
                .collect();
            score_group_gemm(&c, &p, i0, i1, &mut group);
        }

        for (d, m) in ds.iter().zip(&mis) {
            let mut m_ref = vec![0.25; b];
            score_samples_scalar(&c, &d[..i1], i0, &mut m_ref);
            for (a, r) in m.iter().zip(&m_ref) {
                assert!((a - r).abs() < 1e-10 * r.max(1.0), "{a} vs {r}");
            }
        }
    }

    #[test]
    fn wide_bank_straddling_col_tile_matches_scalar() {
        // A bank wider than COL_TILE (with a ragged last tile) exercises
        // the tiled quad path, the tiled sub-quad remainder (5 streams →
        // one quad + one single), and the strided row slices; all must
        // agree with the scalar oracle.
        let (n, b, streams) = (19, COL_TILE + 37, 5);
        let c = clean_block(n, b);
        let p = sq_prefix(&c);
        let ds: Vec<Vec<f64>> = (0..streams)
            .map(|s| (0..n).map(|i| ((i + 5 * s) as f64 * 0.41).sin()).collect())
            .collect();
        let (i0, i1) = (2, n);

        let mut mis: Vec<Vec<f64>> = vec![vec![0.0; b]; streams];
        {
            let mut group: Vec<(&[f64], &mut [f64])> = ds
                .iter()
                .zip(mis.iter_mut())
                .map(|(d, m)| (&d[..], &mut m[..]))
                .collect();
            score_group_gemm(&c, &p, i0, i1, &mut group);
        }

        for (d, m) in ds.iter().zip(&mis) {
            let mut m_ref = vec![0.0; b];
            score_samples_scalar(&c, &d[..i1], i0, &mut m_ref);
            for (j, (a, r)) in m.iter().zip(&m_ref).enumerate() {
                assert!((a - r).abs() < 1e-10 * r.max(1.0), "col {j}: {a} vs {r}");
            }
        }
    }

    #[test]
    fn sq_prefix_survives_long_horizons_against_the_scalar_oracle() {
        // Adversarial long-horizon bank: one huge head row (energy ~1e16)
        // followed by 10⁴ small rows whose squares (< 1 ulp of the running
        // sum) are individually *rounded away* by the naive recurrence —
        // under naive prefix sums the tail-range lookup collapses to
        // exactly zero and the GEMM path's clean-energy term loses the
        // entire tail. The compensated sums keep every prefix correctly
        // rounded, so the GEMM score over the tail range must still agree
        // with the freshly-summed scalar oracle.
        let (head, tail, b) = (1usize, 10_000usize, 3usize);
        let n = head + tail;
        let c = DMatrix::from_fn(n, b, |i, j| {
            if i < head {
                1.0e8
            } else {
                0.9 + 0.01 * j as f64 + 1e-3 * ((i * 31 + j) % 7) as f64
            }
        });
        let p = sq_prefix(&c);
        let d: Vec<f64> = (0..n).map(|i| 0.5 + 0.1 * ((i % 11) as f64)).collect();
        let (i0, i1) = (head, n);

        // The stored prefixes live at ~1e16 where 1 ulp = 2.0, so the
        // floor for *any* single-f64 prefix representation is a few units
        // absolute — that floor, not the tail size, is the right yardstick.
        let floor = 4.0 * (1.0e16f64).next_up() - 4.0 * 1.0e16; // 4 ulps at head-energy scale

        // (a) The prefix-sum tail lookup recovers the tail energy to the
        // representation floor; the naive recurrence instead returns
        // exactly 0 for the whole ~8·10³ tail (each 0.8-ish square is
        // below 1 ulp of the running sum and rounds away).
        for j in 0..b {
            let exact_tail: f64 = (i0..i1).map(|i| c[(i, j)] * c[(i, j)]).sum();
            let lookup = p[i1 * b + j] - p[i0 * b + j];
            let err = (lookup - exact_tail).abs();
            assert!(
                err < floor,
                "col {j}: tail energy lost, lookup {lookup} vs exact {exact_tail} (err {err:e})"
            );
        }

        // (b) End to end, the GEMM score over the tail range agrees with
        // the freshly-summed scalar oracle to the same floor.
        let mut oracle = vec![0.0; b];
        score_samples_scalar(&c, &d, i0, &mut oracle);
        let mut gemm = vec![0.0; b];
        score_group_gemm(&c, &p, i0, n, &mut [(&d[..], &mut gemm[..])]);
        for j in 0..b {
            let err = (gemm[j] - oracle[j]).abs();
            assert!(
                err < floor,
                "col {j}: tail-range prefix drift, gemm {} vs oracle {} (err {err:e})",
                gemm[j],
                oracle[j]
            );
        }
    }

    #[test]
    fn incremental_projection_matches_one_shot() {
        // project_group over uneven row ranges must accumulate to the
        // same Uᵀd as a single dense pass — the row-wise validity of the
        // mode-space substitution.
        let (n, r, streams) = (53, 7, 5);
        let u = DMatrix::from_fn(n, r, |i, k| ((i * 3 + 11 * k) as f64 * 0.19).sin());
        let ds: Vec<Vec<f64>> = (0..streams)
            .map(|s| (0..n).map(|i| ((i + 17 * s) as f64 * 0.23).cos()).collect())
            .collect();

        let mut incr: Vec<Vec<f64>> = vec![vec![0.0; r]; streams];
        let mut scored = 0;
        for step in [1usize, 4, 9, 2, 16].iter().cycle() {
            if scored == n {
                break;
            }
            let next = (scored + step).min(n);
            let mut group: Vec<(&[f64], &mut [f64])> = ds
                .iter()
                .zip(incr.iter_mut())
                .map(|(d, a)| (&d[..], &mut a[..]))
                .collect();
            project_group(&u, scored, next, &mut group);
            scored = next;
        }

        for (s, (d, a)) in ds.iter().zip(&incr).enumerate() {
            for k in 0..r {
                let exact: f64 = (0..n).map(|i| d[i] * u[(i, k)]).sum();
                assert!(
                    (a[k] - exact).abs() < 1e-10 * exact.abs().max(1.0),
                    "stream {s} mode {k}: {} vs {exact}",
                    a[k]
                );
            }
        }
    }

    #[test]
    fn pod_score_with_full_rank_basis_matches_exact_gemm() {
        // With an orthonormal basis spanning the full row space (r = n),
        // W = UᵀC loses nothing and the mode-space misfit must equal the
        // exact misfit to roundoff, for a group of streams at a partial
        // horizon.
        let (n, b, streams) = (24, 13, 5);
        let c = clean_block(n, b);
        let p = sq_prefix(&c);
        // Identity basis: trivially orthonormal, W = C.
        let u = DMatrix::from_fn(n, n, |i, k| if i == k { 1.0 } else { 0.0 });
        let w = u.matmul_tn(&c);
        let ds: Vec<Vec<f64>> = (0..streams)
            .map(|s| (0..n).map(|i| ((i + 7 * s) as f64 * 0.37).sin()).collect())
            .collect();
        let i1 = 19; // partial horizon, not ROW_BLOCK-aligned

        // Mode-space path: project the prefix, then materialize scores.
        // Rows past i1 must not contribute: zero-extend instead of
        // projecting them.
        let mut proj: Vec<Vec<f64>> = vec![vec![0.0; n]; streams];
        {
            let mut group: Vec<(&[f64], &mut [f64])> = ds
                .iter()
                .zip(proj.iter_mut())
                .map(|(d, a)| (&d[..], &mut a[..]))
                .collect();
            project_group(&u, 0, i1, &mut group);
        }
        let mut pod_mis: Vec<Vec<f64>> = vec![vec![9.9; b]; streams]; // stale values must be overwritten
        {
            let mut group: Vec<(f64, &[f64], &mut [f64])> = ds
                .iter()
                .zip(proj.iter())
                .zip(pod_mis.iter_mut())
                .map(|((d, a), m)| {
                    let dd: f64 = d[..i1].iter().map(|v| v * v).sum();
                    (dd, &a[..], &mut m[..])
                })
                .collect();
            score_group_pod(&w, &p, i1, &mut group);
        }

        for (s, (d, m)) in ds.iter().zip(&pod_mis).enumerate() {
            let mut exact = vec![0.0; b];
            score_samples_scalar(&c, &d[..i1], 0, &mut exact);
            for j in 0..b {
                assert!(
                    (m[j] - exact[j]).abs() < 1e-9 * exact[j].max(1.0),
                    "stream {s} scenario {j}: pod {} vs exact {}",
                    m[j],
                    exact[j]
                );
            }
        }
    }

    #[test]
    fn pod_score_over_wide_bank_straddles_col_tile() {
        // A coefficient block wider than COL_TILE exercises the tiled
        // quad and sub-quad remainder paths of the shared cross-term
        // kernel under the POD driver.
        let (n, b, streams) = (12, COL_TILE + 21, 6);
        let c = clean_block(n, b);
        let p = sq_prefix(&c);
        let u = DMatrix::from_fn(n, n, |i, k| if i == k { 1.0 } else { 0.0 });
        let w = u.matmul_tn(&c);
        let ds: Vec<Vec<f64>> = (0..streams)
            .map(|s| (0..n).map(|i| ((i + 3 * s) as f64 * 0.53).cos()).collect())
            .collect();

        let mut pod_mis: Vec<Vec<f64>> = vec![vec![0.0; b]; streams];
        {
            let mut group: Vec<(f64, &[f64], &mut [f64])> = ds
                .iter()
                .zip(pod_mis.iter_mut())
                .map(|(d, m)| {
                    let dd: f64 = d.iter().map(|v| v * v).sum();
                    (dd, &d[..], &mut m[..])
                })
                .collect();
            score_group_pod(&w, &p, n, &mut group);
        }

        for (s, (d, m)) in ds.iter().zip(&pod_mis).enumerate() {
            let mut exact = vec![0.0; b];
            score_samples_scalar(&c, d, 0, &mut exact);
            for j in 0..b {
                assert!(
                    (m[j] - exact[j]).abs() < 1e-9 * exact[j].max(1.0),
                    "stream {s} scenario {j}: pod {} vs exact {}",
                    m[j],
                    exact[j]
                );
            }
        }
    }

    #[test]
    fn empty_range_is_a_no_op() {
        let c = clean_block(6, 4);
        let p = sq_prefix(&c);
        let d: Vec<f64> = (0..3).map(|i| i as f64).collect();
        let mut mis = vec![1.5; 4];
        score_group_gemm(&c, &p, 3, d.len(), &mut [(&d[..], &mut mis[..])]);
        assert_eq!(mis, vec![1.5; 4]);
    }

    #[test]
    fn matched_scenario_scores_near_zero() {
        // Scoring a scenario's own clean curve must leave its misfit at
        // roundoff level even through the expanded (cancelling) form.
        let (n, b) = (32, 6);
        let c = clean_block(n, b);
        let p = sq_prefix(&c);
        let d = c.col(2);
        let mut mis = vec![0.0; b];
        score_group_gemm(&c, &p, 0, n, &mut [(&d[..], &mut mis[..])]);
        assert!(
            mis[2].abs() < 1e-10,
            "own-scenario misfit should vanish: {}",
            mis[2]
        );
        for (j, &m) in mis.iter().enumerate() {
            if j != 2 {
                assert!(m > 1e-3, "mismatched scenario {j} must score badly");
            }
        }
    }
}
