//! `lockstep_<path>_k1024`: closed loop, one driver, maximal batching.
//!
//! Repeat replays until the measured window is used up: open 2000
//! sessions, for each of the 64 steps `push` one 16-sample step into every
//! session and `tick()`, check every session against the oracle, close
//! all (the next replay reuses the slots). Every tick assimilates a full
//! batch, so compute dominates: the dense `Q_w·D` GEMM of the rung-crossing
//! ticks on the windowed path, identification GEMM plus fold on the two
//! reduced paths.

use crate::alloc;
use crate::artefacts::Artefacts;
use crate::gen::{ND, NT_OBS, WINDOWS};
use crate::report::Outcome;
use crate::stats;
use crate::streaming::{self, Path, StreamInputs, TickLog};
use crate::trace::Tracer;
use crate::verify;
use std::time::Instant;
use tsunami_stream::StreamEngine;

/// What one replay adds up.
#[derive(Default)]
struct ReplayLog {
    /// Timed wall: open + steps + close, verification excluded.
    wall_s: f64,
    /// The same per replay.
    replay_s: Vec<f64>,
    /// Wall of each lockstep step (2000 pushes + the tick), ms.
    step_ms: Vec<f64>,
    open_s: f64,
    push_s: f64,
    close_s: f64,
}

/// One replay of the first `steps` steps (all 64 but for the warm-up).
/// Returns the worst relative forecast error and the number of sessions
/// whose final level differs from the exact one.
#[allow(clippy::too_many_arguments)]
fn replay(
    eng: &mut StreamEngine<'_>,
    art: &Artefacts,
    path: Path,
    inp: &StreamInputs,
    steps: usize,
    tr: &Tracer,
    ticks: &mut TickLog,
    log: &mut ReplayLog,
    out: &mut Outcome,
) -> (f64, u64) {
    let n = inp.streams.len();
    let mut ids = Vec::with_capacity(n);

    let t0 = Instant::now();
    tr.span_n("stream.engine.open", n as u64, || {
        for _ in 0..n {
            ids.push(eng.open());
        }
    });
    log.open_s += t0.elapsed().as_secs_f64();

    for step in 0..steps {
        let t_step = Instant::now();
        tr.span_n("stream.engine.push", n as u64, || {
            for (s, &id) in ids.iter().enumerate() {
                eng.push(id, &inp.streams[s][step * ND..(step + 1) * ND]);
            }
        });
        let t_tick = Instant::now();
        log.push_s += t_tick.duration_since(t_step).as_secs_f64();
        let m = tr.span("stream.tick", || eng.tick());
        ticks.add(t_tick.elapsed().as_secs_f64(), &m);
        log.step_ms.push(t_step.elapsed().as_secs_f64() * 1e3);
    }
    let steps_s = t0.elapsed().as_secs_f64();

    // Untimed: every session must sit on the final rung with a forecast
    // within the path's certified bound of the exact one-shot answer.
    let last = WINDOWS.len() - 1;
    let (mut worst, mut differs) = (0.0f64, 0u64);
    for (j, &id) in ids.iter().enumerate().filter(|_| steps == NT_OBS) {
        let bound = streaming::final_bound(art, path, inp.oracle.d_norm[j]);
        let c = verify::check_session(eng.session(id), &inp.oracle, j, last, bound);
        out.check(c.ok(), || {
            format!("{path:?} session {id}: {c:?} (bound {bound:.3e})")
        });
        worst = worst.max(c.rel_err);
        differs += c.level_differs as u64;
    }

    let t0 = Instant::now();
    tr.span_n("stream.engine.close", n as u64, || {
        for &id in &ids {
            eng.close(id);
        }
    });
    let close = t0.elapsed().as_secs_f64();
    log.close_s += close;
    log.wall_s += steps_s + close;
    log.replay_s.push(steps_s + close);
    (worst, differs)
}

/// Run the workload on `path` for at least `seconds` of replays.
pub fn run(
    path: Path,
    art: &Artefacts,
    inp: &StreamInputs,
    seconds: f64,
    shards: usize,
    tr: &Tracer,
) -> Outcome {
    let mut out = Outcome::default();
    let n = inp.streams.len();
    let cfg = streaming::stream_config(path, inp.oracle.threshold, shards);
    let mut eng = streaming::engine(art, path, cfg);

    // Warm-up, untimed and untraced: a replay cut short after the first
    // rung crossing creates the session slots and shard arenas that every
    // later replay reuses.
    let off = Tracer::new(false);
    let mut scratch = (TickLog::default(), ReplayLog::default());
    let warm = WINDOWS[0] + 1;
    replay(
        &mut eng,
        art,
        path,
        inp,
        warm,
        &off,
        &mut scratch.0,
        &mut scratch.1,
        &mut out,
    );

    alloc::reset_peak();
    let busy0 = streaming::stage_busy_s(&eng);
    let transitions0 = eng.audit().total();
    let mut ticks = TickLog::with_capacity(1024);
    let mut log = ReplayLog::default();
    let (mut replays, mut worst, mut differs) = (0u64, 0.0f64, 0u64);
    while log.wall_s < seconds {
        let (w, d) = replay(
            &mut eng, art, path, inp, NT_OBS, tr, &mut ticks, &mut log, &mut out,
        );
        worst = worst.max(w);
        differs += d;
        replays += 1;
    }
    let peak = alloc::peak_bytes();
    let session_steps = (n * NT_OBS) as u64 * replays;
    out.attempted += session_steps;

    // The counts `tick()` returns must equal what was generated: every
    // sample scored once (projected once on the mode-space path, never
    // elsewhere), nothing through the inboxes, four rungs per session.
    let samples = session_steps * ND as u64;
    let want_projected = if path == Path::ModeSpace { samples } else { 0 };
    out.check(ticks.scored == samples, || {
        format!("scored {} of {samples} samples", ticks.scored)
    });
    out.check(ticks.projected == want_projected, || {
        format!(
            "projected {} samples, expected {want_projected}",
            ticks.projected
        )
    });
    out.check(ticks.drained == 0, || {
        format!("{} samples drained on the push path", ticks.drained)
    });
    let want_assim = n as u64 * WINDOWS.len() as u64 * replays;
    out.check(ticks.assimilated == want_assim, || {
        format!(
            "{} rung assimilations, expected {want_assim}",
            ticks.assimilated
        )
    });

    let m = &mut out.metrics;
    m.set("peak_live_mb", alloc::mb(peak), "MB", 0);
    let steps = log.step_ms.len() as u64;
    m.set(
        "latency_ms_p50",
        stats::percentile(&log.step_ms, 50.0),
        "ms",
        steps,
    );
    // One replay per segment: the p99 of a replay's 64 steps is its slowest
    // step, the final-rung crossing tick.
    m.set(
        "latency_ms_tail",
        stats::segment_median_percentile(&log.step_ms, NT_OBS, 99.0),
        "ms",
        steps,
    );
    // Session-steps per second of the median replay (open, pushes, ticks
    // and close inside its wall), so one disturbed replay does not move it.
    m.set(
        "throughput_per_s",
        (n * NT_OBS) as f64 / stats::median(&log.replay_s),
        "1/s",
        replays,
    );

    let calls = (n as u64 * replays) as f64;
    m.set(
        "stream.engine.open.ns",
        log.open_s * 1e9 / calls,
        "ns",
        calls as u64,
    );
    m.set(
        "stream.engine.close.ns",
        log.close_s * 1e9 / calls,
        "ns",
        calls as u64,
    );
    m.set(
        "stream.engine.push.ns",
        log.push_s * 1e9 / session_steps as f64,
        "ns",
        session_steps,
    );
    let busy = tr
        .is_on()
        .then(|| streaming::busy_delta(streaming::stage_busy_s(&eng), busy0));
    m.absorb(ticks.metrics(log.wall_s, shards, busy, replays));
    m.set(
        "stream.scratch_mb",
        eng.metrics().scratch_bytes as f64 / 1e6,
        "MB",
        0,
    );
    m.set(
        "stream.audit.transitions",
        (eng.audit().total() - transitions0) as f64 / replays as f64,
        "count",
        replays,
    );
    let sessions = (n as u64 * replays) as f64;
    m.set(
        "stream.warning_mismatch_frac",
        differs as f64 / sessions,
        "ratio",
        sessions as u64,
    );
    m.set("forecast_rel_err_max", worst, "ratio", sessions as u64);
    out
}
