//! Std-only stand-in for the crates.io `rayon` crate — with real
//! data parallelism.
//!
//! The workspace builds without registry access, so the `par_iter` /
//! `into_par_iter` / `par_chunks{,_mut}` entry points used across the hot
//! paths resolve here. They are **genuinely parallel**: each
//! producer is a splittable, exactly-sized parallel iterator ([`iter`],
//! [`mod@slice`]), and every terminal (`for_each`, `for_each_init`, `map` +
//! `collect`, `reduce`, `sum`) fans pieces out across a
//! chunk-splitting scheduler (`engine` internals): the iterator is
//! pre-split into more pieces than workers, and workers dynamically claim
//! pieces off a shared cursor, so fast workers absorb the slack of slow
//! ones. The workers are **persistent**: parked on a condvar and handed
//! jobs without any per-call OS thread spawn/join ([`pool_stats`] counts
//! the jobs and handoffs). [`scope`] runs its spawned closures on scoped
//! threads.
//!
//! ## Execution model
//!
//! - Thread count: `ThreadPool::install` > `ThreadPoolBuilder::build_global`
//!   > `RAYON_NUM_THREADS` > `std::thread::available_parallelism()`.
//! - **`RAYON_NUM_THREADS=1` recovers the serial fast path**: the whole
//!   iterator runs as one piece on the caller's thread, bit-for-bit
//!   identical to the `std` iterator chain.
//! - Elementwise operations (`for_each`, `map`+`collect`,
//!   `par_chunks_mut` writes) produce results identical to serial execution
//!   at any thread count; float `sum`/`reduce` may differ by rounding only
//!   (partial results are grouped per piece, then combined in piece order —
//!   deterministic for a fixed thread count).
//! - Nested bulk operations inside a worker run serially on that worker,
//!   and every spawned thread (bulk workers, `scope` tasks) draws
//!   from one process-wide budget of `threads − 1` extra threads, so
//!   composed parallelism stays bounded near the configured count instead
//!   of multiplying; when the budget is exhausted, work runs inline.
//! - `for_each_init` is honest: one scratch per worker that claims work,
//!   reused across the pieces that worker drains.
//!
//! The conformance suite (`tests/conformance.rs`) pins serial/parallel
//! equivalence for every combinator the workspace uses.

pub(crate) mod engine;
pub mod iter;
pub(crate) mod pool;
pub mod slice;

pub use pool::PoolStats;

/// Lifetime counters of the persistent worker pool: jobs dispatched,
/// parked-worker handoffs (worker entries into a job, none of which
/// spawns an OS thread), condvar wakeups, and worker threads spawned.
/// All-zero until the first multi-threaded bulk operation.
pub fn pool_stats() -> PoolStats {
    pool::stats()
}

pub use iter::{
    FromParallelIterator, IntoParallelIterator, IntoParallelRefIterator,
    IntoParallelRefMutIterator, ParallelIterator,
};
pub use slice::{ParallelSlice, ParallelSliceMut};

pub mod prelude {
    pub use crate::iter::{
        FromParallelIterator, IntoParallelIterator, IntoParallelRefIterator,
        IntoParallelRefMutIterator, ParallelIterator,
    };
    pub use crate::slice::{ParallelSlice, ParallelSliceMut};
}

/// The number of worker threads bulk operations currently fan out to.
pub fn current_num_threads() -> usize {
    engine::effective_threads()
}

/// `rayon::scope`: create a scope in which [`Scope::spawn`]ed closures may
/// borrow from the enclosing stack frame; all spawned work completes before
/// `scope` returns. Backed by `std::thread::scope`: each spawn runs on its
/// own scoped thread while the process-wide spawned-thread budget allows,
/// and inline on the spawning thread otherwise (always inline when the
/// thread count is 1) — so wide spawn loops queue up as inline work instead
/// of creating unbounded OS threads.
pub fn scope<'env, OP, R>(op: OP) -> R
where
    OP: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R + Send,
    R: Send,
{
    let threads = engine::effective_threads();
    std::thread::scope(|s| {
        let wrapper = Scope {
            inner: s,
            threads,
            serial: threads <= 1 || engine::in_worker(),
        };
        op(&wrapper)
    })
}

/// Scope handle passed to the [`scope`] closure; `spawn` launches tasks
/// that may themselves spawn onto the same scope.
#[derive(Clone, Copy, Debug)]
pub struct Scope<'scope, 'env: 'scope> {
    inner: &'scope std::thread::Scope<'scope, 'env>,
    threads: usize,
    serial: bool,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Run `body` exactly once — on a scoped thread when the spawn budget
    /// allows, inline otherwise. The closure receives the scope so it can
    /// spawn nested tasks; spawned threads inherit the scope's effective
    /// thread count.
    pub fn spawn<F>(&self, body: F)
    where
        F: FnOnce(&Scope<'scope, 'env>) + Send + 'scope,
    {
        let me = *self;
        let ticket = if self.serial {
            None
        } else {
            engine::try_spawn_ticket()
        };
        match ticket {
            Some(ticket) => {
                let threads = self.threads;
                self.inner.spawn(move || {
                    let _slot = ticket;
                    engine::with_install_threads(threads, || body(&me));
                });
            }
            None => body(&me),
        }
    }
}

/// Global-pool configuration.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

/// Error type for [`ThreadPoolBuilder::build_global`]; never produced by
/// the shim but kept so `.ok()` / `?` call sites type-check.
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("thread pool build error (unreachable in rayon shim)")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

impl ThreadPoolBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Request an explicit thread count (0 = keep the default resolution).
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Install an explicit thread count process-wide (no-op when the count
    /// was left at 0, matching rayon's "0 means default").
    pub fn build_global(self) -> Result<(), ThreadPoolBuildError> {
        if self.num_threads > 0 {
            engine::set_global_threads(self.num_threads);
        }
        Ok(())
    }

    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool {
            num_threads: self.num_threads,
        })
    }
}

/// A pool handle: [`ThreadPool::install`] runs a closure with this pool's
/// thread count governing every bulk operation (and `scope`) the
/// closure performs on the calling thread.
#[derive(Debug)]
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    pub fn install<OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce() -> R,
    {
        engine::with_install_threads(self.current_num_threads(), op)
    }

    pub fn current_num_threads(&self) -> usize {
        if self.num_threads > 0 {
            self.num_threads
        } else {
            engine::effective_threads()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn entry_points_match_serial_iterators() {
        let v: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let s1: f64 = v.par_iter().map(|x| x * 2.0).sum();
        let s2: f64 = v.iter().map(|x| x * 2.0).sum();
        assert!((s1 - s2).abs() <= 1e-12 * s2.abs());

        let doubled: Vec<i64> = (0i64..10).into_par_iter().map(|i| 2 * i).collect();
        assert_eq!(doubled, vec![0, 2, 4, 6, 8, 10, 12, 14, 16, 18]);

        let mut buf = [0.0f64; 12];
        buf.par_chunks_mut(4).enumerate().for_each(|(k, chunk)| {
            for c in chunk {
                *c = k as f64;
            }
        });
        assert_eq!(buf[0], 0.0);
        assert_eq!(buf[5], 1.0);
        assert_eq!(buf[11], 2.0);
    }

    #[test]
    fn for_each_init_runs_init_at_most_once_per_worker() {
        let pool = crate::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap();
        let inits = AtomicUsize::new(0);
        let visited = AtomicUsize::new(0);
        pool.install(|| {
            (0..1000usize).into_par_iter().for_each_init(
                || {
                    inits.fetch_add(1, Ordering::Relaxed);
                    Vec::<usize>::with_capacity(8)
                },
                |scratch, i| {
                    scratch.clear();
                    scratch.push(i);
                    visited.fetch_add(1, Ordering::Relaxed);
                },
            );
        });
        assert_eq!(visited.load(Ordering::Relaxed), 1000);
        let n = inits.load(Ordering::Relaxed);
        assert!((1..=4).contains(&n), "init ran {n} times for 4 workers");
    }

    #[test]
    fn install_scopes_the_thread_count() {
        let pool = crate::ThreadPoolBuilder::new()
            .num_threads(3)
            .build()
            .unwrap();
        assert_eq!(pool.current_num_threads(), 3);
        let inside = pool.install(crate::current_num_threads);
        assert_eq!(inside, 3);
    }
}
