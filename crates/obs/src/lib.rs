//! Telemetry spine: lock-free metrics registry, log2 latency histograms,
//! Prometheus/JSON exposition, and bounded audit rings.
//!
//! The paper grounds its real-time claim in instrumentation — Table I
//! wall-clock sections and the Fig 6 percentage breakdown — and the
//! goal-oriented companion (arXiv:2501.14911) argues the online phase
//! must be *provably* cheap. A service that runs for months needs the
//! same rigor continuously: this crate is the std-only subsystem the
//! rest of the workspace records into.
//!
//! - [`Counter`] / [`Gauge`] / [`Histogram`]: recording is a handful of
//!   relaxed atomic ops — no locks on any hot path. Histograms use fixed
//!   log2 buckets ([`metric::bucket_index`]), are exactly mergeable, and
//!   report p50/p95/p99 exact within bucket resolution.
//! - [`Registry`]: hierarchical dot-separated names (see
//!   [`registry`] for the scheme), insertion-ordered with an indexed
//!   map, rendered as Prometheus-style text
//!   ([`Registry::render_prometheus`]) or a JSON snapshot
//!   ([`Registry::render_json`]). One process-wide instance lives at
//!   [`global`]; local registries back scoped reports (e.g.
//!   `tsunami_hpc::TimerRegistry`).
//! - [`AuditRing`]: a bounded decision trail with eviction accounting —
//!   the "why did this session flip to Warning at t=…" record.
//! - **Kill switch**: `OBS=off` (or `0`/`false`) disables all
//!   instrumentation ([`enabled`]); instrumented code gates its clock
//!   reads and records on it, so the off path costs one relaxed atomic
//!   load per tick. [`set_enabled`] overrides in-process (bench A/B).

pub mod audit;
pub mod metric;
pub mod registry;
pub mod render;

pub use audit::AuditRing;
pub use metric::{bucket_bounds, bucket_index, Counter, Gauge, Histogram, HistogramSnapshot};
pub use registry::{validate_exposition, Metric, MetricValue, Registry};

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// The process-wide registry every subsystem records into.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Resolved observability switch: 0 = unresolved, 1 = on, 2 = off.
static ENABLED: AtomicU8 = AtomicU8::new(0);

/// Whether instrumentation is on. An explicit [`set_enabled`] wins, then
/// the `OBS` environment variable (`off`, `0`, or `false` disables), then
/// the on-by-default. Resolution happens once and sticks; the steady-state
/// cost of this call is one relaxed atomic load.
pub fn enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => {
            let resolved = match std::env::var("OBS").as_deref() {
                Ok("off") | Ok("0") | Ok("false") => 2,
                _ => 1,
            };
            let _ = ENABLED.compare_exchange(0, resolved, Ordering::Relaxed, Ordering::Relaxed);
            enabled()
        }
    }
}

/// Override the observability switch in-process (bench/test hook; see
/// [`enabled`]).
pub fn set_enabled(on: bool) {
    ENABLED.store(if on { 1 } else { 2 }, Ordering::Relaxed);
}

/// A lap clock that compiles down to nothing when observability is off:
/// started with `on = false` it never reads the system clock and every
/// lap returns 0.
pub struct Stopwatch {
    last: Option<Instant>,
}

impl Stopwatch {
    /// Start (or don't: `on = false` makes every lap free and zero).
    pub fn start(on: bool) -> Self {
        Stopwatch {
            last: on.then(Instant::now),
        }
    }

    /// Nanoseconds since the previous lap (or start), advancing the lap
    /// point. 0 when the stopwatch is off.
    pub fn lap(&mut self) -> u64 {
        match &mut self.last {
            Some(last) => {
                let now = Instant::now();
                let ns = now.duration_since(*last).as_nanos().min(u64::MAX as u128) as u64;
                *last = now;
                ns
            }
            None => 0,
        }
    }

    /// True when the stopwatch is actually reading the clock.
    pub fn is_on(&self) -> bool {
        self.last.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_registry_is_shared() {
        let c = global().counter("obs.test.shared");
        let before = c.get();
        global().counter("obs.test.shared").inc();
        assert_eq!(c.get(), before + 1);
    }

    #[test]
    fn set_enabled_overrides() {
        // Tests share the process; restore the resolved state afterwards.
        let was = enabled();
        set_enabled(false);
        assert!(!enabled());
        set_enabled(true);
        assert!(enabled());
        set_enabled(was);
    }

    #[test]
    fn stopwatch_off_is_free_and_zero() {
        let mut sw = Stopwatch::start(false);
        assert!(!sw.is_on());
        assert_eq!(sw.lap(), 0);
        let mut on = Stopwatch::start(true);
        std::hint::black_box((0..1000).sum::<u64>());
        let ns = on.lap();
        let ns2 = on.lap();
        // Laps advance: the second lap times only the interval after the
        // first, not the cumulative time.
        assert!(ns > 0);
        assert!(ns2 < ns + 1_000_000_000, "laps must not accumulate");
    }
}
