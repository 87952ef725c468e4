//! Serial/parallel equivalence suite for the rayon shim.
//!
//! Every combinator the workspace uses (`map`, `for_each`, `for_each_init`,
//! `reduce`, `sum`, `collect`, `filter`, `enumerate`, `zip`,
//! `par_chunks{,_mut}`, `scope`) is pinned against
//! its serial result on randomized inputs. Thread counts are forced through
//! `ThreadPool::install`, so the suite exercises the real multi-worker
//! engine even when `RAYON_NUM_THREADS=1` (and vice versa the serial fast
//! path when the environment asks for more).
//!
//! Float comparisons: elementwise operations must match serially computed
//! results **exactly** (same arithmetic per element, any thread count);
//! reductions (`sum`, `reduce` over floats) regroup partial sums per
//! piece, so they are compared with an explicit tolerance scaled to the
//! magnitude and count of the summands.

use proptest::prelude::*;
use proptest::TestRng;
use rayon_shim::prelude::*;
use rayon_shim::{ThreadPool, ThreadPoolBuilder};
use std::sync::atomic::{AtomicUsize, Ordering};

fn pool(n: usize) -> ThreadPool {
    ThreadPoolBuilder::new().num_threads(n).build().unwrap()
}

fn random_vec(rng: &mut TestRng, n: usize) -> Vec<f64> {
    (0..n).map(|_| rng.next_f64() * 2.0 - 1.0).collect()
}

/// Tolerance for an order-regrouped float reduction over `n` summands of
/// magnitude ≤ `scale`: a generous bound on accumulated rounding slack.
fn reduction_tol(n: usize, scale: f64) -> f64 {
    1e-14 * (n as f64).max(1.0) * scale.max(1.0)
}

#[test]
fn map_collect_matches_serial_exactly_at_any_thread_count() {
    let mut rng = TestRng::seed_from_u64(11);
    for n in [0usize, 1, 7, 100, 1003] {
        let v = random_vec(&mut rng, n);
        let serial: Vec<f64> = v.iter().map(|x| x.sin() * 3.0 + 1.0).collect();
        for threads in [1, 2, 4, 13] {
            let par: Vec<f64> =
                pool(threads).install(|| v.par_iter().map(|x| x.sin() * 3.0 + 1.0).collect());
            assert_eq!(par, serial, "n={n}, threads={threads}");
        }
    }
}

#[test]
fn into_par_iter_range_collect_preserves_order() {
    for threads in [1, 4] {
        let got: Vec<usize> = pool(threads).install(|| (0..257usize).into_par_iter().collect());
        let want: Vec<usize> = (0..257).collect();
        assert_eq!(got, want);
    }
}

#[test]
fn for_each_writes_match_serial_exactly() {
    let mut rng = TestRng::seed_from_u64(23);
    let x = random_vec(&mut rng, 777);
    let mut serial = vec![0.0; x.len()];
    serial
        .iter_mut()
        .enumerate()
        .for_each(|(i, out)| *out = x[i] * (i as f64).cos());
    for threads in [1, 4] {
        let mut par = vec![0.0; x.len()];
        pool(threads).install(|| {
            par.par_iter_mut()
                .enumerate()
                .for_each(|(i, out)| *out = x[i] * (i as f64).cos());
        });
        assert_eq!(par, serial, "threads={threads}");
    }
}

#[test]
fn for_each_init_matches_serial_and_reuses_scratch_per_worker() {
    // A scratch-dependent computation whose *output* must not depend on how
    // scratch instances are distributed: scratch is cleared per item.
    let n = 501usize;
    let serial: Vec<f64> = (0..n).map(|i| (i as f64).sqrt() * 2.0).collect();
    for threads in [1, 4] {
        let inits = AtomicUsize::new(0);
        let mut out = vec![0.0; n];
        pool(threads).install(|| {
            out.par_chunks_mut(10).enumerate().for_each_init(
                || {
                    inits.fetch_add(1, Ordering::Relaxed);
                    Vec::<f64>::new()
                },
                |scratch, (k, chunk)| {
                    scratch.clear();
                    scratch.extend(chunk.iter().enumerate().map(|(j, _)| {
                        let i = k * 10 + j;
                        (i as f64).sqrt() * 2.0
                    }));
                    chunk.copy_from_slice(scratch);
                },
            );
        });
        assert_eq!(out, serial, "threads={threads}");
        let count = inits.load(Ordering::Relaxed);
        assert!(
            (1..=threads).contains(&count),
            "init ran {count} times for {threads} workers"
        );
    }
}

#[test]
fn reduce_of_empty_iterator_yields_identity() {
    for threads in [1, 4] {
        let r = pool(threads).install(|| {
            (0..0usize)
                .into_par_iter()
                .map(|i| i as f64)
                .reduce(|| -7.5, f64::max)
        });
        assert_eq!(r, -7.5);
    }
}

#[test]
fn float_sum_matches_serial_within_tolerance() {
    let mut rng = TestRng::seed_from_u64(41);
    for n in [1usize, 10, 1000, 16384 + 17] {
        let v = random_vec(&mut rng, n);
        let serial: f64 = v.iter().map(|x| x * 1.5).sum();
        for threads in [1, 4] {
            let par: f64 = pool(threads).install(|| v.par_iter().map(|x| x * 1.5).sum());
            assert!(
                (par - serial).abs() <= reduction_tol(n, serial.abs()),
                "n={n}, threads={threads}: {par} vs {serial}"
            );
        }
    }
}

#[test]
fn serial_fast_path_is_bitwise_identical_to_std() {
    // With 1 thread the shim must be the std iterator chain, not merely
    // close to it: this is the determinism escape hatch.
    let mut rng = TestRng::seed_from_u64(43);
    let v = random_vec(&mut rng, 2049);
    let serial: f64 = v.iter().map(|x| x * 0.3 + 0.1).sum();
    let par: f64 = pool(1).install(|| v.par_iter().map(|x| x * 0.3 + 0.1).sum());
    assert_eq!(par.to_bits(), serial.to_bits());
}

#[test]
fn filter_collect_preserves_serial_order() {
    for threads in [1, 4] {
        let got: Vec<usize> = pool(threads).install(|| {
            (0..1000usize)
                .into_par_iter()
                .filter(|i| i % 7 == 3)
                .map(|i| i * 2)
                .collect()
        });
        let want: Vec<usize> = (0..1000).filter(|i| i % 7 == 3).map(|i| i * 2).collect();
        assert_eq!(got, want, "threads={threads}");
    }
}

#[test]
fn filter_map_reduce_argmax_matches_serial_fold() {
    // The exact shape `core/oed.rs` uses for greedy sensor selection.
    let mut rng = TestRng::seed_from_u64(47);
    let scores = random_vec(&mut rng, 333);
    let excluded = [3usize, 14, 200];
    let serial = (0..scores.len())
        .filter(|r| !excluded.contains(r))
        .map(|r| (scores[r], r))
        .fold((f64::NEG_INFINITY, usize::MAX), |a, b| {
            if b.0 > a.0 || (b.0 == a.0 && b.1 < a.1) {
                b
            } else {
                a
            }
        });
    for threads in [1, 4] {
        let par = pool(threads).install(|| {
            (0..scores.len())
                .into_par_iter()
                .filter(|r| !excluded.contains(r))
                .map(|r| (scores[r], r))
                .reduce(
                    || (f64::NEG_INFINITY, usize::MAX),
                    |a, b| {
                        if b.0 > a.0 || (b.0 == a.0 && b.1 < a.1) {
                            b
                        } else {
                            a
                        }
                    },
                )
        });
        assert_eq!(par, serial, "threads={threads}");
    }
}

#[test]
fn enumerate_indices_are_global_and_ordered() {
    let v: Vec<i64> = (100..612).collect();
    for threads in [1, 4] {
        let got: Vec<(usize, i64)> =
            pool(threads).install(|| v.par_iter().enumerate().map(|(i, &x)| (i, x)).collect());
        let want: Vec<(usize, i64)> = v.iter().enumerate().map(|(i, &x)| (i, x)).collect();
        assert_eq!(got, want, "threads={threads}");
    }
}

#[test]
fn zipped_par_chunks_dot_product_matches_serial() {
    // The exact shape `linalg/vec_ops.rs::par_dot` uses.
    let mut rng = TestRng::seed_from_u64(53);
    let n = 3 * 1024 + 11;
    let x = random_vec(&mut rng, n);
    let y = random_vec(&mut rng, n);
    let serial: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
    for threads in [1, 4] {
        let par: f64 = pool(threads).install(|| {
            x.par_chunks(256)
                .zip(y.par_chunks(256))
                .map(|(a, b)| a.iter().zip(b).map(|(p, q)| p * q).sum::<f64>())
                .sum()
        });
        assert!(
            (par - serial).abs() <= reduction_tol(n, serial.abs()),
            "threads={threads}: {par} vs {serial}"
        );
    }
}

#[test]
fn zipped_par_chunks_mut_writes_match_serial() {
    // A chunked elementwise axpy: each element is written once by one
    // chunk, so the parallel result must equal the serial one exactly.
    let mut rng = TestRng::seed_from_u64(59);
    let n = 2048 + 3;
    let x = random_vec(&mut rng, n);
    let mut serial = random_vec(&mut rng, n);
    let mut par = serial.clone();
    serial
        .iter_mut()
        .zip(&x)
        .for_each(|(yi, xi)| *yi += -0.25 * xi);
    pool(4).install(|| {
        par.par_chunks_mut(100)
            .zip(x.par_chunks(100))
            .for_each(|(yc, xc)| {
                for (yi, xi) in yc.iter_mut().zip(xc) {
                    *yi += -0.25 * xi;
                }
            });
    });
    assert_eq!(par, serial);
}

#[test]
fn nested_parallelism_stays_correct() {
    // Outer par over rows, inner par per row: the inner call runs serially
    // on its worker (no thread explosion) and results must still be exact.
    let rows = 24usize;
    let cols = 100usize;
    let serial: Vec<f64> = (0..rows)
        .map(|r| (0..cols).map(|c| (r * cols + c) as f64).sum())
        .collect();
    let par: Vec<f64> = pool(4).install(|| {
        (0..rows)
            .into_par_iter()
            .map(|r| {
                (0..cols)
                    .into_par_iter()
                    .map(|c| (r * cols + c) as f64)
                    .sum()
            })
            .collect()
    });
    assert_eq!(par, serial);
}

#[test]
#[should_panic(expected = "exact-length")]
fn enumerate_after_filter_fails_fast() {
    // Rayon rejects this at the type level; the shim must panic rather
    // than silently produce thread-count-dependent indices.
    let _ = (0..8usize)
        .into_par_iter()
        .filter(|i| i % 2 == 0)
        .enumerate()
        .collect::<Vec<_>>();
}

#[test]
fn wide_scope_spawn_loop_is_bounded_and_runs_every_task() {
    // Many more spawns than the thread budget: overflow tasks must run
    // inline, every task exactly once.
    let ran = AtomicUsize::new(0);
    pool(4).install(|| {
        rayon_shim::scope(|s| {
            for _ in 0..2000 {
                s.spawn(|_| {
                    ran.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
    });
    assert_eq!(ran.load(Ordering::Relaxed), 2000);
}

#[test]
fn current_num_threads_agrees_on_every_piece() {
    // Spawned workers must inherit the caller's effective thread count, so
    // code branching on current_num_threads() behaves uniformly.
    let counts: Vec<usize> = pool(3).install(|| {
        (0..64usize)
            .into_par_iter()
            .map(|_| rayon_shim::current_num_threads())
            .collect()
    });
    assert!(counts.iter().all(|&c| c == 3), "{counts:?}");
}

#[test]
fn extreme_i32_range_len_does_not_overflow() {
    use rayon_shim::iter::ParallelIterator as _;
    let it = (i32::MIN..i32::MAX).into_par_iter();
    assert_eq!(it.len_hint(), u32::MAX as usize);
    // Splitting across the sign boundary must preserve the halves.
    let negatives: Vec<i32> = pool(4).install(|| {
        (-2000i32..2000)
            .into_par_iter()
            .filter(|&x| x < 0)
            .collect()
    });
    assert_eq!(negatives, (-2000..0).collect::<Vec<i32>>());
}

#[test]
fn piece_ordered_combination_is_deterministic() {
    // Piece splitting depends only on the thread count, and piece results
    // combine in piece order whichever worker ran them: the float `sum`
    // repeats bitwise run to run, and the elementwise terminals equal the
    // 1-thread serial result exactly.
    let v: Vec<f64> = (0..10_000).map(|i| (i as f64 * 0.37).sin()).collect();
    let run = |threads: usize| {
        pool(threads).install(|| {
            let sum: f64 = v.par_iter().map(|x| x * 1.5 - 0.25).sum();
            let mapped: Vec<f64> = v.par_iter().map(|x| x.cos() * 3.0).collect();
            let mut chunked = vec![0.0f64; v.len()];
            chunked
                .par_chunks_mut(7)
                .enumerate()
                .for_each(|(k, c)| c.iter_mut().for_each(|s| *s = k as f64));
            (sum, mapped, chunked)
        })
    };
    let (first, second, serial) = (run(4), run(4), run(1));
    assert_eq!(first.0.to_bits(), second.0.to_bits(), "sum drift");
    assert_eq!(first.1, second.1, "map+collect drift");
    assert_eq!(first.2, second.2, "chunked writes drift");
    assert_eq!(first.1, serial.1, "map+collect differs from serial");
    assert_eq!(first.2, serial.2, "chunked writes differ from serial");
}

// ---- property tests (in-tree proptest shim) ----------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `par_chunks_mut` partitions are disjoint and exhaustive: writing the
    /// chunk index into every slot of each chunk must (a) touch every slot
    /// exactly once (no sentinel survives, no double-write detectable via
    /// the add) and (b) agree with the serial chunk→index mapping
    /// `slot i ∈ chunk i / chunk_size`.
    #[test]
    fn par_chunks_mut_partitions_disjoint_and_exhaustive(
        len in 0usize..700,
        chunk_size in 1usize..64,
        threads in 1usize..6,
    ) {
        const SENTINEL: usize = usize::MAX;
        let mut v = vec![SENTINEL; len];
        pool(threads).install(|| {
            v.par_chunks_mut(chunk_size)
                .enumerate()
                .for_each(|(k, chunk)| {
                    for slot in chunk {
                        // Wrapping add flags a double-visit of a slot even
                        // if two chunks claimed the same index k.
                        *slot = slot.wrapping_add(1).wrapping_add(k);
                    }
                });
        });
        for (i, &got) in v.iter().enumerate() {
            prop_assert!(got == i / chunk_size, "slot {} holds {} (want {})", i, got, i / chunk_size);
        }
    }

    /// The number of chunks handed out matches the serial chunk count and
    /// each chunk has the serial length (last one may be short).
    #[test]
    fn par_chunks_lengths_match_serial(len in 0usize..500, chunk_size in 1usize..48) {
        let v = vec![0u8; len];
        let lens: Vec<usize> = pool(4).install(|| {
            v.par_chunks(chunk_size).map(<[u8]>::len).collect()
        });
        let want: Vec<usize> = v.chunks(chunk_size).map(<[u8]>::len).collect();
        prop_assert_eq!(lens, want);
    }

    /// Every closure spawned on a `scope` (including nested spawns) runs
    /// exactly once, and all complete before `scope` returns.
    #[test]
    fn scope_runs_each_spawn_exactly_once(threads in 1usize..6, n_tasks in 0usize..12) {
        let ran = AtomicUsize::new(0);
        pool(threads).install(|| {
            rayon_shim::scope(|s| {
                for _ in 0..n_tasks {
                    s.spawn(|inner| {
                        ran.fetch_add(1, Ordering::Relaxed);
                        // One nested spawn per task exercises re-entrancy.
                        inner.spawn(|_| {
                            ran.fetch_add(1, Ordering::Relaxed);
                        });
                    });
                }
            });
        });
        prop_assert_eq!(ran.load(Ordering::Relaxed), 2 * n_tasks);
    }

    /// Randomized end-to-end equivalence: parallel map+collect equals
    /// serial for arbitrary lengths and thread counts (exact).
    #[test]
    fn randomized_map_collect_equivalence(len in 0usize..600, threads in 1usize..6, seed in 0u64..1000) {
        let mut rng = TestRng::seed_from_u64(seed);
        let v = random_vec(&mut rng, len);
        let serial: Vec<f64> = v.iter().map(|x| x * x - 0.5).collect();
        let par: Vec<f64> = pool(threads).install(|| v.par_iter().map(|x| x * x - 0.5).collect());
        prop_assert_eq!(par, serial);
    }
}
