//! Allocation hardening: a steady-state tick must not grow the heap, on
//! any source kind of the unified tick loop (whitened segment, own right
//! factor, shared-basis snapshot). The per-shard scratch arenas, the
//! in-place forecast scatter and lift, the ring freelist, and the
//! per-session fold and whitened state are all reused, so once the engine has seen one full
//! open→feed→tick→close generation, every later generation's *net*
//! live-byte delta is zero — transient grouping buckets alloc and free
//! within a tick, but nothing accumulates.
//!
//! This test owns its binary so no other test's allocations pollute the
//! global counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use tsunami_core::{DigitalTwin, GoalOptions, ModeSpaceOptions, ScenarioBank, TwinConfig};
use tsunami_stream::{IdentifyBackend, StreamConfig, StreamEngine};

/// System allocator wrapped with a net live-byte counter.
struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);

// SAFETY: delegates verbatim to `System`; the counter is a pure side
// channel and never influences the returned pointers.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_add(
                new_size as isize - layout.size() as isize,
                Ordering::Relaxed,
            );
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Warm the engine with two event generations, then assert two more
/// leave the heap, the ring freelist, and the scratch arenas where they
/// were.
fn assert_steady_state(mut engine: StreamEngine<'_>, bank: &ScenarioBank, tag: &str) {
    let horizon = bank.observations().nrows();
    // One event generation: open, feed in ragged pieces ticking along the
    // way, verify a forecast landed, close.
    let generation = |engine: &mut StreamEngine<'_>, col: usize| {
        let id = engine.open();
        let d = bank.observations().col(col);
        let mut fed = 0;
        while fed < horizon {
            let hi = (fed + 7).min(horizon);
            engine.push(id, &d[fed..hi]);
            fed = hi;
            engine.tick();
        }
        assert!(engine.session(id).forecast.is_some());
        engine.close(id);
    };

    // Warm-up generations: grow the ring freelist, the scratch arenas,
    // and the reused `Forecast` buffers to their plateau.
    generation(&mut engine, 0);
    generation(&mut engine, 1);

    let rings = engine.metrics().rings_allocated;
    let scratch = engine.metrics().scratch_bytes;
    assert!(scratch > 0, "{tag}: arenas should be warm");

    let before = LIVE.load(Ordering::Relaxed);
    generation(&mut engine, 0);
    generation(&mut engine, 1);
    let after = LIVE.load(Ordering::Relaxed);

    assert_eq!(
        after - before,
        0,
        "{tag}: steady-state generations leaked {} net bytes",
        after - before
    );
    assert_eq!(
        engine.metrics().rings_allocated,
        rings,
        "{tag}: ring freelist must satisfy steady-state reopens"
    );
    assert_eq!(
        engine.metrics().scratch_bytes,
        scratch,
        "{tag}: scratch arenas must stay at their plateau"
    );
}

#[test]
fn steady_state_ticks_do_not_grow_the_heap_on_any_path() {
    let cfg = TwinConfig::tiny();
    let solver = cfg.build_solver();
    let specs = ScenarioBank::family(&cfg, 2, 71);
    let bank = ScenarioBank::generate(&cfg, &solver, &specs);
    drop(solver);
    let twin = DigitalTwin::offline(cfg, bank.noise_std());
    let nt = twin.solver.grid.nt_obs;
    let ladder = [2, nt / 2, nt];
    let wf = twin.windowed(&ladder);
    // Truncated ladder: the fold path that actually accumulates state.
    let gl = twin.goal_ladder(&ladder, &GoalOptions::rank(4));
    let pod = bank.compress(2);
    let ms = twin.mode_space_ladder(&ladder, pod.modes(), &ModeSpaceOptions::default());
    let forecast_only = StreamConfig {
        infer: false,
        ..StreamConfig::default()
    };
    let shared = StreamConfig {
        identify: IdentifyBackend::ModeSpace,
        ..forecast_only
    };

    // The measured region runs on one thread so the worker pool neither
    // dispatches jobs nor retains per-job state behind our back.
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    pool.install(|| {
        assert_steady_state(
            StreamEngine::new(&twin, &wf, forecast_only),
            &bank,
            "windowed",
        );
        assert_steady_state(
            StreamEngine::goal_oriented(&twin, &gl, forecast_only),
            &bank,
            "goal rank 4",
        );
        assert_steady_state(
            StreamEngine::mode_space(&twin, &ms, shared)
                .with_bank(&bank)
                .with_pod(&pod),
            &bank,
            "mode-space, shared fold",
        );
    });
}
