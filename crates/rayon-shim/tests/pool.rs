//! Tests that read the process-global pool counters or compete for the
//! process-global spawned-thread budget. They live in their own test
//! binary, serialized on one mutex, so no other test can publish a job or
//! hold a ticket between two `pool_stats()` reads.

use rayon_shim::prelude::*;
use rayon_shim::{ThreadPool, ThreadPoolBuilder};
use std::sync::{Mutex, MutexGuard};

fn pool(n: usize) -> ThreadPool {
    ThreadPoolBuilder::new().num_threads(n).build().unwrap()
}

/// Hold the pool for one test (a panicking holder does not wedge the
/// other test).
fn pool_lock() -> MutexGuard<'static, ()> {
    static POOL_LOCK: Mutex<()> = Mutex::new(());
    POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn persistent_pool_engages_and_counts_handoffs() {
    let _alone = pool_lock();
    let before = rayon_shim::pool_stats();
    let total: u64 = pool(4).install(|| (0..4096u64).into_par_iter().sum());
    assert_eq!(total, 4096 * 4095 / 2);
    let after = rayon_shim::pool_stats();
    assert_eq!(
        after.jobs,
        before.jobs + 1,
        "multi-threaded bulk op must dispatch exactly one pool job"
    );
    assert!(after.handoffs >= before.handoffs);
    assert!(after.workers_spawned >= 1);

    // Thread count 1 short-circuits before the pool: no job published.
    let serial: u64 = pool(1).install(|| (0..4096u64).into_par_iter().sum());
    assert_eq!(serial, total);
    assert_eq!(
        rayon_shim::pool_stats().jobs,
        after.jobs,
        "serial fast path must never touch the pool"
    );
}

#[test]
fn persistent_pool_propagates_worker_panics() {
    let _alone = pool_lock();
    let caught = std::panic::catch_unwind(|| {
        pool(4).install(|| {
            (0..1024usize).into_par_iter().for_each(|i| {
                assert!(i != 700, "injected failure");
            });
        });
    });
    assert!(caught.is_err(), "panic inside a pool job must propagate");
    // The pool survives the panic and keeps serving jobs.
    let sum: usize = pool(4).install(|| (0..100usize).into_par_iter().sum());
    assert_eq!(sum, 4950);
}
