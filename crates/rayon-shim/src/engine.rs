//! Execution engine: a chunk-splitting scheduler over the persistent
//! worker pool ([`crate::pool`]).
//!
//! Every bulk operation (`for_each`, `reduce`, `collect`, …) funnels into
//! [`drive_with`]: the parallel iterator is pre-split into more pieces than
//! workers (so fast workers dynamically claim the slack left by slow ones —
//! the load-balancing half of work stealing, without a deque per thread),
//! the pieces go into claim-once slots, and the caller plus up to
//! `threads − 1` parked pool workers race an atomic cursor to drain them.
//! Piece results are stored by piece index, so order-sensitive terminals
//! (`collect`, ordered reductions) see pieces in deterministic
//! left-to-right order regardless of which worker ran them.
//!
//! Thread-count resolution, in precedence order:
//! 1. an enclosing [`crate::ThreadPool::install`] (thread-local),
//! 2. [`crate::ThreadPoolBuilder::build_global`] with an explicit count,
//! 3. the `RAYON_NUM_THREADS` environment variable,
//! 4. `std::thread::available_parallelism()`.
//!
//! A resolved count of 1 short-circuits to the exact serial fast path (the
//! whole iterator driven as one piece on the caller's thread), so
//! `RAYON_NUM_THREADS=1` recovers bit-for-bit deterministic execution.
//! Nested bulk operations on worker threads also run serially — the outer
//! operation already owns the hardware, so nesting must not multiply
//! threads (mirroring how rayon keeps nested work on one pool).

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::iter::ParallelIterator;
use crate::pool;

/// Pieces per worker the splitter aims for. Over-splitting beyond one piece
/// per thread is what lets the atomic-cursor claim loop balance load.
const OVERSPLIT: usize = 4;

/// Thread count installed by `ThreadPoolBuilder::build_global` (0 = unset).
static GLOBAL_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Cached `RAYON_NUM_THREADS` / `available_parallelism()` resolution.
static DEFAULT_THREADS: OnceLock<usize> = OnceLock::new();

thread_local! {
    /// Non-zero while inside `ThreadPool::install`: that pool's count.
    static INSTALL_THREADS: Cell<usize> = const { Cell::new(0) };
    /// True on threads executing pieces of an enclosing bulk operation.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

fn default_threads() -> usize {
    *DEFAULT_THREADS.get_or_init(|| {
        match std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
        {
            Some(n) if n >= 1 => n,
            _ => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    })
}

/// The worker-thread count bulk operations fan out to (see module docs for
/// the precedence chain).
pub(crate) fn effective_threads() -> usize {
    let installed = INSTALL_THREADS.with(Cell::get);
    if installed > 0 {
        return installed;
    }
    let global = GLOBAL_THREADS.load(Ordering::Relaxed);
    if global > 0 {
        return global;
    }
    default_threads()
}

pub(crate) fn set_global_threads(n: usize) {
    GLOBAL_THREADS.store(n, Ordering::Relaxed);
}

/// Run `op` with the thread count pinned to `n` (restored on exit, panic
/// included). Backs `ThreadPool::install`.
pub(crate) fn with_install_threads<R>(n: usize, op: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            INSTALL_THREADS.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(INSTALL_THREADS.with(|c| c.replace(n)));
    op()
}

/// True when the current thread is executing a piece of an enclosing bulk
/// operation (nested bulk operations then stay serial).
pub(crate) fn in_worker() -> bool {
    IN_WORKER.with(Cell::get)
}

struct WorkerGuard(bool);

impl WorkerGuard {
    fn enter() -> Self {
        WorkerGuard(IN_WORKER.with(|c| c.replace(true)))
    }
}

impl Drop for WorkerGuard {
    fn drop(&mut self) {
        IN_WORKER.with(|c| c.set(self.0));
    }
}

/// Extra threads currently busy on behalf of bulk jobs and `scope`
/// spawns, process-wide. Real rayon queues `scope` tasks onto a fixed
/// pool; the shim spawns scoped threads for them instead, so this budget
/// is what stops wide `scope` loops from creating unbounded threads.
static EXTRA_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Permission to run one task on a spawned thread; returning it (drop) on
/// the spawned thread frees the slot when the task finishes.
pub(crate) struct SpawnTicket(());

impl Drop for SpawnTicket {
    fn drop(&mut self) {
        EXTRA_THREADS.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Try to reserve a spawned-thread slot: grants at most
/// `effective_threads() - 1` concurrent extra threads process-wide. On
/// `None` the caller must run the task inline.
pub(crate) fn try_spawn_ticket() -> Option<SpawnTicket> {
    let cap = effective_threads().saturating_sub(1);
    let mut cur = EXTRA_THREADS.load(Ordering::Relaxed);
    loop {
        if cur >= cap {
            return None;
        }
        match EXTRA_THREADS.compare_exchange_weak(
            cur,
            cur + 1,
            Ordering::Relaxed,
            Ordering::Relaxed,
        ) {
            Ok(_) => return Some(SpawnTicket(())),
            Err(seen) => cur = seen,
        }
    }
}

/// Split `it` into exactly `target` pieces with balanced lengths, by
/// recursive bisection (so producers whose `split_at` moves data — e.g.
/// the owned-`Vec` producer — pay O(n log k) rather than O(n·k)).
fn split_into<I: ParallelIterator>(it: I, target: usize) -> Vec<I> {
    fn bisect<I: ParallelIterator>(it: I, n: usize, k: usize, out: &mut Vec<I>) {
        if k <= 1 {
            out.push(it);
            return;
        }
        let k_left = k / 2;
        let share = n * k_left / k;
        let (left, right) = it.split_at(share);
        bisect(left, share, k_left, out);
        bisect(right, n - share, k - k_left, out);
    }
    let n = it.len_hint();
    let k = target.min(n).max(1);
    let mut pieces = Vec::with_capacity(k);
    bisect(it, n, k, &mut pieces);
    pieces
}

/// Execute a bulk operation: split `it` into pieces, drain them across
/// the caller and pool workers, and return the per-piece results **in
/// piece order**.
///
/// `make_local` runs at most once per worker that claims at least one piece
/// (the `for_each_init` scratch contract); `consume` drives one piece's
/// serial tail. Serial fallback (1 thread, nested call, or nothing to
/// split) drives the whole iterator as a single piece on this thread.
pub(crate) fn drive_with<I, L, R, ML, C>(it: I, make_local: &ML, consume: &C) -> Vec<R>
where
    I: ParallelIterator,
    R: Send,
    ML: Fn() -> L + Sync,
    C: Fn(&mut L, I) -> R + Sync,
{
    let threads = effective_threads();
    // Piece budget: OVERSPLIT per worker, at most one piece per position.
    let target = (threads * OVERSPLIT).min(it.len_hint().max(1));
    if threads <= 1 || in_worker() || target <= 1 {
        let mut local = make_local();
        return vec![consume(&mut local, it)];
    }

    let slots: Vec<Mutex<Option<I>>> = split_into(it, target)
        .into_iter()
        .map(|p| Mutex::new(Some(p)))
        .collect();
    let results: Vec<Mutex<Option<R>>> = (0..slots.len()).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let workers = threads.min(slots.len());
    // Extra workers draw from the same process-wide spawn budget as
    // scope, so composed parallelism (bulk ops inside scope tasks,
    // concurrent pools) stays bounded near the configured thread count
    // instead of multiplying. With the budget exhausted the caller simply
    // drains every piece itself.
    let tickets: Vec<SpawnTicket> = (1..workers).map_while(|_| try_spawn_ticket()).collect();
    // Hand the drain loop to parked pool workers. Workers wrap it in the
    // caller's effective thread count so `current_num_threads()` agrees
    // across all pieces; tickets stay held until the job quiesces.
    let body = || {
        with_install_threads(threads, || {
            run_worker(&slots, &results, &cursor, make_local, consume)
        })
    };
    pool::run_job(tickets.len(), &body, || {
        // The calling thread is worker 0.
        run_worker(&slots, &results, &cursor, make_local, consume);
    });
    drop(tickets);
    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("rayon shim: worker poisoned a result slot")
                .expect("rayon shim: piece dropped without producing a result")
        })
        .collect()
}

fn run_worker<I, L, R, ML, C>(
    slots: &[Mutex<Option<I>>],
    results: &[Mutex<Option<R>>],
    cursor: &AtomicUsize,
    make_local: &ML,
    consume: &C,
) where
    I: ParallelIterator,
    R: Send,
    ML: Fn() -> L + Sync,
    C: Fn(&mut L, I) -> R + Sync,
{
    let _guard = WorkerGuard::enter();
    let mut local: Option<L> = None;
    loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        if i >= slots.len() {
            break;
        }
        let piece = slots[i]
            .lock()
            .expect("rayon shim: piece slot poisoned")
            .take()
            .expect("rayon shim: piece claimed twice");
        let out = consume(local.get_or_insert_with(make_local), piece);
        *results[i].lock().expect("rayon shim: result slot poisoned") = Some(out);
    }
}
