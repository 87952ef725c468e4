//! `offline_k1024`: the cold build timed as a whole, and the correctness
//! gate on what it built.

use crate::alloc;
use crate::artefacts::{self, Artefacts};
use crate::gen::{self, ND, WINDOWS};
use crate::report::Outcome;
use tsunami_core::{GoalLadder, GoalOptions};
use tsunami_linalg::vec_ops::rel_err;
use tsunami_linalg::DMatrix;

/// Columns the gate pushes through each ladder.
const GATE_COLUMNS: usize = 16;

/// The leading `rows` rows of a block.
fn leading_rows(d: &DMatrix, rows: usize) -> DMatrix {
    DMatrix::from_fn(rows, d.ncols(), |i, j| d[(i, j)])
}

/// Check whichever ladders were built against the exact twin:
/// - the window ladder's last rung equals `twin.forecast_batch` to 1e-10
///   relative (the leading block of the full factor is the full factor);
/// - the exact goal ladder equals the window ladder bit for bit on every
///   rung.
pub fn gate(art: &Artefacts, streams: &[Vec<f64>], out: &mut Outcome) {
    let Some(wf) = &art.window else {
        return;
    };
    let d = gen::as_columns(&streams[..GATE_COLUMNS]);
    let last = WINDOWS.len() - 1;
    let exact = art.twin.forecast_batch(&d);
    let windowed = wf.forecast_batch(last, &d);
    let diff = rel_err(windowed.q_map.as_slice(), exact.q_map.as_slice());
    out.check(diff <= 1e-10, || {
        format!("last-rung windowed forecast differs from the exact one by {diff:.2e}")
    });
    out.check(windowed.q_std.len() == exact.q_std.len(), || {
        "q_std length".to_string()
    });

    if art.goal.is_some() {
        let oracle = GoalLadder::from_forecaster(wf, &GoalOptions::exact());
        for (i, &w) in WINDOWS.iter().enumerate() {
            let dw = leading_rows(&d, w * ND);
            let a = oracle.forecast_batch(i, &dw);
            let b = wf.forecast_batch(i, &dw);
            out.check(
                a.q_map.as_slice() == b.q_map.as_slice() && a.q_std == b.q_std,
                || format!("exact goal ladder differs bitwise from the window ladder on rung {i}"),
            );
        }
    }
}

/// The build as a workload: one operation, its time, its peak.
pub fn outcome(art: &Artefacts, streams: &[Vec<f64>]) -> Outcome {
    let mut out = Outcome {
        attempted: 1,
        ..Outcome::default()
    };
    gate(art, streams, &mut out);
    out.metrics.set("offline_build_s", art.total_s(), "s", 1);
    // Before its one timed operation the build needs only the configuration.
    out.metrics
        .set("setup_s", art.stage_s(artefacts::SOLVER), "s", 1);
    out.metrics
        .set("peak_live_mb", alloc::mb(art.build_peak_bytes), "MB", 0);
    out
}
