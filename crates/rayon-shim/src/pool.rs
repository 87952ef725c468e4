//! Persistent worker pool: parked threads with condvar job handoff.
//!
//! A `std::thread::scope` spawn/join on **every** bulk operation would
//! cost tens of µs — for the RK4 hot path that is one per color per stage
//! per timestep, and for a high-rate streaming tick one per GEMM group and
//! panel. Here worker threads are spawned lazily on first use, park on a
//! condvar when idle, and a bulk operation becomes a *job publication* —
//! the caller type-erases its piece-drain loop, posts it with a
//! participation budget, wakes the workers, drains pieces itself, and then
//! waits for the workers that joined to quiesce.
//!
//! Guarantees:
//!
//! - A resolved thread count of 1 never reaches this module: the serial
//!   fast path short-circuits in `drive_with` before any job is built, so
//!   `RAYON_NUM_THREADS=1` stays bit-for-bit identical to serial.
//! - Participation is budgeted by the same process-wide
//!   [`crate::engine::SpawnTicket`] accounting as `scope` tasks, so
//!   composed parallelism cannot multiply concurrent threads past the
//!   configured count.
//! - Nested bulk operations on a worker stay serial: the job body enters
//!   the worker guard, as the caller's own drain does.
//! - Panics in a job body are captured and re-raised on the publishing
//!   thread after the job quiesces.
//!
//! The pool never shrinks; workers are detached OS threads that live for
//! the process. The publisher's borrow of its stack job is protected by
//! the retire protocol: no worker can *enter* a job after it is closed,
//! and [`Pool::retire`] blocks until every worker that entered has left.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};

/// Jobs published to the pool over the process lifetime.
static JOBS: AtomicUsize = AtomicUsize::new(0);
/// Worker entries into published jobs (none spawns an OS thread).
static HANDOFFS: AtomicUsize = AtomicUsize::new(0);
/// Times a parked worker woke from the condvar (useful or spurious).
static WAKEUPS: AtomicUsize = AtomicUsize::new(0);
/// Worker OS threads ever spawned by the pool.
static WORKERS: AtomicUsize = AtomicUsize::new(0);

/// Snapshot of the pool's lifetime counters (see [`crate::pool_stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Bulk operations dispatched to the pool as jobs.
    pub jobs: usize,
    /// Worker participations handed off to parked workers, without an OS
    /// thread spawn.
    pub handoffs: usize,
    /// Condvar wakeups of parked workers (useful and spurious).
    pub wakeups: usize,
    /// Persistent worker threads spawned over the process lifetime.
    pub workers_spawned: usize,
}

/// Read the pool's lifetime counters.
pub(crate) fn stats() -> PoolStats {
    PoolStats {
        jobs: JOBS.load(Ordering::Relaxed),
        handoffs: HANDOFFS.load(Ordering::Relaxed),
        wakeups: WAKEUPS.load(Ordering::Relaxed),
        workers_spawned: WORKERS.load(Ordering::Relaxed),
    }
}

/// A type-erased job body. The `'static` is a lie told under controlled
/// conditions: the referent lives on the publishing thread's stack, and
/// the retire protocol guarantees no worker touches it after `retire`
/// returns.
#[derive(Clone, Copy)]
struct TaskRef(&'static (dyn Fn() + Sync));

/// One published bulk operation.
struct Job {
    task: TaskRef,
    /// Worker entries still open. Publishing sets this to the budget;
    /// closing zeroes it so late-waking workers cannot join.
    slots: usize,
    /// Workers currently inside the task body.
    active: usize,
    /// Set by [`Pool::retire`]: no further entries, notify when drained.
    closed: bool,
    /// First panic payload captured from a worker, re-raised by `retire`.
    panic: Option<Box<dyn Any + Send>>,
}

#[derive(Default)]
struct PoolState {
    /// Slab of open jobs (slots are reused between publications).
    jobs: Vec<Option<Job>>,
    /// Worker threads spawned so far.
    spawned: usize,
}

/// The process-wide persistent pool.
pub(crate) struct Pool {
    state: Mutex<PoolState>,
    /// Workers park here; notified on publication.
    work: Condvar,
    /// Publishers park here in `retire`; notified when a closed job drains.
    done: Condvar,
}

fn global() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        state: Mutex::new(PoolState::default()),
        work: Condvar::new(),
        done: Condvar::new(),
    })
}

/// Run one bulk operation through the pool: publish `worker_body` with up
/// to `extra` worker participants, run `caller` (the publishing thread's
/// own share of the drain) inline, then wait for the job to quiesce.
/// Worker or caller panics are re-raised here, caller's first.
pub(crate) fn run_job(extra: usize, worker_body: &(dyn Fn() + Sync), caller: impl FnOnce()) {
    if extra == 0 {
        caller();
        return;
    }
    let pool = global();
    let id = pool.publish(worker_body, extra);
    // The caller's own drain may panic (user closure); the job MUST still
    // be retired before this frame unwinds, or workers would race a dead
    // stack. AssertUnwindSafe is sound: the payload is re-raised below.
    let caller_result = catch_unwind(AssertUnwindSafe(caller));
    let worker_panic = pool.retire(id);
    if let Err(payload) = caller_result {
        resume_unwind(payload);
    }
    if let Some(payload) = worker_panic {
        resume_unwind(payload);
    }
}

impl Pool {
    /// Insert a job with `slots` open participations, growing the worker
    /// set so every outstanding slot (across all open jobs) could be
    /// served by a distinct worker even if all others are busy.
    fn publish(&self, task: &(dyn Fn() + Sync), slots: usize) -> usize {
        // SAFETY: the referent outlives the job — `run_job` retires the
        // job (waiting for every participant to exit) before the borrow
        // ends, and `closed` prevents any entry after retirement begins.
        #[allow(unsafe_code)]
        let task: &'static (dyn Fn() + Sync) = unsafe { std::mem::transmute(task) };
        let mut st = self.state.lock().expect("rayon shim: pool mutex poisoned");
        let demand: usize = st
            .jobs
            .iter()
            .flatten()
            .map(|j| j.slots + j.active)
            .sum::<usize>()
            + slots;
        while st.spawned < demand {
            st.spawned += 1;
            WORKERS.fetch_add(1, Ordering::Relaxed);
            std::thread::Builder::new()
                .name("rayon-shim-pool".into())
                .spawn(|| worker_loop(global()))
                .expect("rayon shim: failed to spawn pool worker");
        }
        let job = Job {
            task: TaskRef(task),
            slots,
            active: 0,
            closed: false,
            panic: None,
        };
        let id = match st.jobs.iter().position(Option::is_none) {
            Some(i) => {
                st.jobs[i] = Some(job);
                i
            }
            None => {
                st.jobs.push(Some(job));
                st.jobs.len() - 1
            }
        };
        JOBS.fetch_add(1, Ordering::Relaxed);
        drop(st);
        self.work.notify_all();
        id
    }

    /// Close job `id` to new entrants, wait for active participants to
    /// leave, and return the first captured worker panic, if any.
    fn retire(&self, id: usize) -> Option<Box<dyn Any + Send>> {
        let mut st = self.state.lock().expect("rayon shim: pool mutex poisoned");
        {
            let job = st.jobs[id].as_mut().expect("rayon shim: job vanished");
            job.closed = true;
            job.slots = 0;
        }
        while st.jobs[id].as_ref().is_some_and(|j| j.active > 0) {
            st = self.done.wait(st).expect("rayon shim: pool mutex poisoned");
        }
        st.jobs[id].take().expect("rayon shim: job vanished").panic
    }
}

/// The body of a persistent worker: claim open job slots, run the erased
/// drain loop, park when nothing is claimable.
fn worker_loop(pool: &'static Pool) {
    let mut st = pool.state.lock().expect("rayon shim: pool mutex poisoned");
    loop {
        let open = st
            .jobs
            .iter()
            .position(|j| j.as_ref().is_some_and(|j| j.slots > 0));
        if let Some(id) = open {
            let task = {
                let job = st.jobs[id].as_mut().expect("rayon shim: job vanished");
                job.slots -= 1;
                job.active += 1;
                job.task
            };
            HANDOFFS.fetch_add(1, Ordering::Relaxed);
            drop(st);
            // The drain loop enters the worker guard itself (nested bulk
            // ops stay serial). Panics are ferried back to the publisher
            // rather than killing the pool.
            let result = catch_unwind(AssertUnwindSafe(|| (task.0)()));
            st = pool.state.lock().expect("rayon shim: pool mutex poisoned");
            let job = st.jobs[id].as_mut().expect("rayon shim: job vanished");
            job.active -= 1;
            if let Err(payload) = result {
                job.panic.get_or_insert(payload);
            }
            if job.active == 0 && job.closed {
                pool.done.notify_all();
            }
        } else {
            st = pool.work.wait(st).expect("rayon shim: pool mutex poisoned");
            WAKEUPS.fetch_add(1, Ordering::Relaxed);
        }
    }
}
