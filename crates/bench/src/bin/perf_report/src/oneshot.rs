//! `oneshot_k1024`: the paper's headline online number. Closed loop, one
//! client, the exact Phase 4 path: FFT transpose applies and full-`K`
//! Cholesky solves do the work; the stream crate is bypassed entirely.
//!
//! Part A sends full-horizon events one at a time through `infer` +
//! `forecast` and times each; part B sends batches of 256 through
//! `infer_batch` + `forecast_batch`. Each part gets half the window.

use crate::alloc;
use crate::artefacts::Artefacts;
use crate::gen;
use crate::report::Outcome;
use crate::stats;
use crate::trace::Tracer;
use std::hint::black_box;
use std::time::Instant;
use tsunami_linalg::vec_ops::rel_err;

/// Events per batch in part B.
pub const BATCH: usize = 256;
/// Batch columns compared with their single-event results.
const CHECKED_COLUMNS: usize = 8;
/// Relative agreement asked of the inferred parameters. The forecasts
/// agree to 1e-10; the parameters go through `K⁻¹`, and at k = 1024 the
/// panel-blocked and the single-RHS sweeps differ by the conditioning of
/// `K` times roundoff (3–8e-9 measured), so 1e-10 cannot hold for them.
const M_TOLERANCE: f64 = 1e-7;

pub fn run(art: &Artefacts, streams: &[Vec<f64>], seconds: f64, tr: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let twin = &art.twin;
    assert!(streams.len() >= BATCH, "need at least one batch of streams");

    // Warm caches and lazily built plans before timing.
    for d in &streams[..4] {
        black_box(twin.infer(d));
        black_box(twin.forecast(d));
    }

    alloc::reset_peak();

    // Part A: one event at a time.
    let mut latency_ms = Vec::with_capacity(4096);
    let (mut infer_s, mut predict_s) = (0.0f64, 0.0f64);
    let t_a = Instant::now();
    let mut k = 0usize;
    while t_a.elapsed().as_secs_f64() < seconds / 2.0 {
        let d = &streams[k % streams.len()];
        let t0 = Instant::now();
        let inf = tr.span("core.phase4.infer", || twin.infer(d));
        let t1 = Instant::now();
        let fc = tr.span("core.phase4.predict", || twin.forecast(d));
        let t2 = Instant::now();
        black_box((&inf, &fc));
        infer_s += t1.duration_since(t0).as_secs_f64();
        predict_s += t2.duration_since(t1).as_secs_f64();
        latency_ms.push(t2.duration_since(t0).as_secs_f64() * 1e3);
        k += 1;
    }
    let events_a = latency_ms.len() as u64;

    // Part B: batches of 256, a sliding window over the stream pool so
    // consecutive batches differ.
    let (mut batches, mut wall_b) = (0u64, 0.0f64);
    let (mut infer_b, mut predict_b) = (0.0f64, 0.0f64);
    let mut batch_s = Vec::with_capacity(256);
    let mut first_batch = None;
    while wall_b < seconds / 2.0 {
        let start = (batches as usize * 97) % (streams.len() - BATCH + 1);
        let block = gen::as_columns(&streams[start..start + BATCH]);
        let t0 = Instant::now();
        let inf = tr.span_n("core.phase4.infer_batch", BATCH as u64, || {
            twin.infer_batch(&block)
        });
        let t1 = Instant::now();
        let fc = tr.span_n("core.phase4.predict_batch", BATCH as u64, || {
            twin.forecast_batch(&block)
        });
        let t2 = Instant::now();
        infer_b += t1.duration_since(t0).as_secs_f64();
        predict_b += t2.duration_since(t1).as_secs_f64();
        batch_s.push(t2.duration_since(t0).as_secs_f64());
        wall_b += batch_s[batch_s.len() - 1];
        if first_batch.is_none() {
            first_batch = Some((start, inf, fc));
        } else {
            black_box((&inf, &fc));
        }
        batches += 1;
    }
    let peak = alloc::peak_bytes();
    out.attempted += events_a + batches * BATCH as u64;

    // Correctness: batch column j equals the single-event result.
    let (start, inf_b, fc_b) = first_batch.expect("at least one batch ran");
    for j in 0..CHECKED_COLUMNS {
        let d = &streams[start + j];
        let (inf, fc) = (twin.infer(d), twin.forecast(d));
        let dm = rel_err(&inf_b.scenario(j), &inf.m_map);
        let dq = rel_err(&fc_b.q_map.col(j), &fc.q_map);
        out.check(dm <= M_TOLERANCE && dq <= 1e-10, || {
            format!("batch column {j} differs from its single event: m {dm:.2e}, q {dq:.2e}")
        });
        out.check(fc_b.q_std == fc.q_std, || {
            format!("batch column {j}: stds differ")
        });
    }

    let m = &mut out.metrics;
    m.set("peak_live_mb", alloc::mb(peak), "MB", 0);
    m.set(
        "latency_ms_p50",
        stats::percentile(&latency_ms, 50.0),
        "ms",
        events_a,
    );
    let seg = stats::segment_len(latency_ms.len(), 1000, 5);
    m.set(
        "latency_ms_tail",
        stats::segment_median_percentile(&latency_ms, seg, 99.0),
        "ms",
        events_a,
    );
    // Events per second of the median batch: one slow batch (a scheduler
    // or host hiccup) does not move it.
    m.set(
        "throughput_per_s",
        BATCH as f64 / stats::median(&batch_s),
        "1/s",
        batches,
    );
    m.set(
        "core.phase4.infer.us",
        infer_s * 1e6 / events_a as f64,
        "us",
        events_a,
    );
    m.set(
        "core.phase4.predict.us",
        predict_s * 1e6 / events_a as f64,
        "us",
        events_a,
    );
    m.set("core.phase4.infer_batch.busy_s", infer_b, "s", batches);
    m.set("core.phase4.predict_batch.busy_s", predict_b, "s", batches);
    out
}
