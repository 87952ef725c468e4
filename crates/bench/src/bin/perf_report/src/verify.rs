//! The streaming workloads' oracle and per-session correctness checks.
//!
//! The oracle is the exact one-shot answer on the full horizon:
//! `q_exact = twin.forecast(d)`. A session that reaches the final rung has
//! assimilated the whole stream, so its forecast must equal `q_exact` up
//! to the reduced path's certified bound.

use crate::gen;
use tsunami_core::{DigitalTwin, Forecast};
use tsunami_linalg::vec_ops::{norm2, rel_err};
use tsunami_stream::{classify_band, forecast_band, StreamSession, WarningLevel};

/// Relative slack for roundoff on top of a certified bound.
const ROUNDOFF: f64 = 1e-10;

/// Exact answers for a pool of event streams.
pub struct Oracle {
    /// `q_exact` per stream.
    pub q_exact: Vec<Vec<f64>>,
    /// `‖q_exact‖₂` per stream.
    pub q_norm: Vec<f64>,
    /// `‖d‖₂` per stream.
    pub d_norm: Vec<f64>,
    /// Exact warning level per stream at [`Self::threshold`].
    pub level: Vec<WarningLevel>,
    /// Distance of the exact credible band's nearer edge to the
    /// threshold: a reduced path may flip a level only within its bound
    /// of this.
    pub margin: Vec<f64>,
    /// Warning threshold: the median over streams of the exact band's
    /// upper peak, so all three levels occur.
    pub threshold: f64,
}

impl Oracle {
    /// One batched exact forecast over all streams.
    pub fn compute(twin: &DigitalTwin, streams: &[Vec<f64>]) -> Oracle {
        let batch = twin.forecast_batch(&gen::as_columns(streams));
        let exact: Vec<Forecast> = (0..streams.len()).map(|j| batch.scenario(j)).collect();
        let bands: Vec<(f64, f64)> = exact.iter().map(forecast_band).collect();
        let mut peaks: Vec<f64> = bands.iter().map(|b| b.1).collect();
        peaks.sort_by(f64::total_cmp);
        let threshold = peaks[peaks.len() / 2];
        Oracle {
            q_norm: exact.iter().map(|f| norm2(&f.q_map)).collect(),
            d_norm: streams.iter().map(|d| norm2(d)).collect(),
            level: bands.iter().map(|&b| classify_band(b, threshold)).collect(),
            margin: bands
                .iter()
                .map(|&(lo, hi)| (lo - threshold).abs().min((hi - threshold).abs()))
                .collect(),
            q_exact: exact.into_iter().map(|f| f.q_map).collect(),
            threshold,
        }
    }
}

/// Verdict on one finished session.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SessionCheck {
    /// Reached the final rung with a forecast.
    pub complete: bool,
    /// `‖q − q_exact‖₂ / ‖q_exact‖₂` (infinite when incomplete).
    pub rel_err: f64,
    /// Error within the certified bound plus roundoff.
    pub within_bound: bool,
    /// Final warning level differs from the exact one.
    pub level_differs: bool,
    /// A differing level is explained by the bound (vacuously true when
    /// the levels agree).
    pub flip_certified: bool,
}

impl SessionCheck {
    pub fn ok(&self) -> bool {
        self.complete && self.within_bound && self.flip_certified
    }
}

/// Check a session that received the whole of stream `j`. `last_rung` is
/// the ladder's final rung index and `abs_bound` the reduced path's
/// certified forecast-mean bound for this stream (`mean_error_bound(w,
/// ‖d‖)`; 0 for the exact windowed path).
pub fn check_session(
    s: &StreamSession,
    oracle: &Oracle,
    j: usize,
    last_rung: usize,
    abs_bound: f64,
) -> SessionCheck {
    let Some(fc) = s
        .forecast
        .as_ref()
        .filter(|_| s.window() == Some(last_rung))
    else {
        return SessionCheck {
            complete: false,
            rel_err: f64::INFINITY,
            within_bound: false,
            level_differs: false,
            flip_certified: false,
        };
    };
    let rel = rel_err(&fc.q_map, &oracle.q_exact[j]);
    let err = rel * oracle.q_norm[j];
    let slack = ROUNDOFF * oracle.q_norm[j];
    let level_differs = s.level != oracle.level[j];
    SessionCheck {
        complete: true,
        rel_err: rel,
        within_bound: err <= abs_bound + slack,
        level_differs,
        flip_certified: !level_differs || oracle.margin[j] <= abs_bound + slack,
    }
}
