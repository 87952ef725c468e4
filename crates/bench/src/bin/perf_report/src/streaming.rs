//! What the lockstep and paced workloads share: engine construction for
//! the three tick paths, tick accounting, and reading the engine's own
//! stage histograms.

use crate::artefacts::Artefacts;
use crate::gen;
use crate::report::Metrics;
use crate::stats;
use crate::verify::Oracle;
use tsunami_obs::Metric;
use tsunami_stream::{IdentifyBackend, StreamConfig, StreamEngine, TickMetrics};

/// The three streaming tick paths.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Path {
    /// Dense windowed operators, exact identification.
    Windowed,
    /// Goal-oriented rank-32 ladder, exact identification.
    Goal,
    /// Mode-space assimilation and identification sharing one fold.
    ModeSpace,
}

/// Event streams plus their exact answers.
pub struct StreamInputs {
    pub streams: Vec<Vec<f64>>,
    pub oracle: Oracle,
    /// Seconds spent generating the streams (part of `setup_s`).
    pub gen_s: f64,
    /// Seconds spent on the oracle (harness work, not set-up of the
    /// system; printed, not charged).
    pub oracle_s: f64,
}

impl StreamInputs {
    pub fn generate(art: &Artefacts, n: usize, seed: u64) -> StreamInputs {
        let t0 = std::time::Instant::now();
        let bank = art
            .bank
            .as_ref()
            .expect("streaming workloads build the bank");
        let streams = gen::event_streams(bank, n, seed);
        let gen_s = t0.elapsed().as_secs_f64();
        let t0 = std::time::Instant::now();
        let oracle = Oracle::compute(&art.twin, &streams);
        StreamInputs {
            streams,
            oracle,
            gen_s,
            oracle_s: t0.elapsed().as_secs_f64(),
        }
    }
}

/// Engine configuration shared by every streaming workload: forecast
/// only, service-sized panels, one shard per thread.
pub fn stream_config(path: Path, threshold: f64, shards: usize) -> StreamConfig {
    StreamConfig {
        infer: false,
        chunk: 1024,
        shards,
        warn_threshold: threshold,
        identify: match path {
            Path::ModeSpace => IdentifyBackend::ModeSpace,
            _ => IdentifyBackend::Exact,
        },
        // Every transition of a run fits, so the ring's total is exact.
        audit_capacity: 1 << 16,
        ..StreamConfig::default()
    }
}

/// An engine on `path` with the bank attached (and the POD compression on
/// the mode-space path).
pub fn engine<'a>(art: &'a Artefacts, path: Path, cfg: StreamConfig) -> StreamEngine<'a> {
    let bank = art.bank.as_ref().expect("bank built");
    match path {
        Path::Windowed => StreamEngine::new(
            &art.twin,
            art.window.as_ref().expect("window ladder built"),
            cfg,
        )
        .with_bank(bank),
        Path::Goal => StreamEngine::goal_oriented(
            &art.twin,
            art.goal.as_ref().expect("goal ladder built"),
            cfg,
        )
        .with_bank(bank),
        Path::ModeSpace => StreamEngine::mode_space(
            &art.twin,
            art.modespace.as_ref().expect("mode-space ladder built"),
            cfg,
        )
        .with_bank(bank)
        .with_pod(art.pod.as_ref().expect("pod built")),
    }
}

/// Certified forecast-mean bound of `path` at the final rung for a stream
/// of norm `d_norm` (0 on the exact path).
pub fn final_bound(art: &Artefacts, path: Path, d_norm: f64) -> f64 {
    let last = gen::WINDOWS.len() - 1;
    match path {
        Path::Windowed => 0.0,
        Path::Goal => art
            .goal
            .as_ref()
            .expect("goal")
            .mean_error_bound(last, d_norm),
        Path::ModeSpace => art
            .modespace
            .as_ref()
            .expect("mode-space")
            .mean_error_bound(last, d_norm),
    }
}

/// Running totals over the ticks of a measured window, taken from outside
/// the engine: wall time per tick and the counts `tick()` returns.
#[derive(Default)]
pub struct TickLog {
    /// Outside-timed wall of each plain tick (no session crossed a rung), ms.
    pub plain_ms: Vec<f64>,
    /// Outside-timed wall of each rung-crossing tick, ms.
    pub crossing_ms: Vec<f64>,
    pub drained: u64,
    pub scored: u64,
    pub projected: u64,
    pub assimilated: u64,
    pub panels: u64,
    pub peak_panel_elems: u64,
    pub pool_jobs: u64,
    pub pool_handoffs: u64,
}

impl TickLog {
    pub fn with_capacity(ticks: usize) -> TickLog {
        TickLog {
            plain_ms: Vec::with_capacity(ticks),
            crossing_ms: Vec::with_capacity(ticks / 8 + 16),
            ..TickLog::default()
        }
    }

    /// Account one tick. Ticks are split from outside on
    /// `sessions_assimilated`.
    pub fn add(&mut self, wall_s: f64, m: &TickMetrics) {
        if m.sessions_assimilated > 0 {
            self.crossing_ms.push(wall_s * 1e3);
        } else {
            self.plain_ms.push(wall_s * 1e3);
        }
        self.drained += m.samples_drained as u64;
        self.scored += m.samples_scored as u64;
        self.projected += m.samples_projected as u64;
        self.assimilated += m.sessions_assimilated as u64;
        self.panels += m.panels as u64;
        self.peak_panel_elems = self.peak_panel_elems.max(m.peak_panel_elems as u64);
        self.pool_jobs += m.pool_jobs as u64;
        self.pool_handoffs += m.pool_handoffs as u64;
    }

    pub fn ticks(&self) -> usize {
        self.plain_ms.len() + self.crossing_ms.len()
    }

    /// Total outside-timed tick wall, seconds.
    pub fn tick_wall_s(&self) -> f64 {
        (self.plain_ms.iter().sum::<f64>() + self.crossing_ms.iter().sum::<f64>()) / 1e3
    }

    /// The `stream.tick.*`, count and pool metrics. `window_wall_s` is the
    /// wall of the window the ticks ran in; `stage_busy` the engine's own
    /// stage sums over the same window (traced pass only). The sample,
    /// session and panel counts are given per `rounds` (the replays of a
    /// lockstep window, 1 for the paced run), so that they repeat exactly
    /// for a seed however many replays fitted the window.
    pub fn metrics(
        &self,
        window_wall_s: f64,
        shards: usize,
        stage_busy: Option<[f64; 4]>,
        rounds: u64,
    ) -> Metrics {
        let mut m = Metrics::default();
        let ticks = self.ticks() as u64;
        let tick_wall = self.tick_wall_s();
        m.set("stream.tick.count", ticks as f64, "count", 0);
        if !self.plain_ms.is_empty() {
            let n = self.plain_ms.len() as u64;
            m.set(
                "stream.tick.plain.ms_p50",
                stats::percentile(&self.plain_ms, 50.0),
                "ms",
                n,
            );
        }
        if !self.crossing_ms.is_empty() {
            let n = self.crossing_ms.len() as u64;
            m.set(
                "stream.tick.crossing.ms_p50",
                stats::percentile(&self.crossing_ms, 50.0),
                "ms",
                n,
            );
        }
        let crossing_s = self.crossing_ms.iter().sum::<f64>() / 1e3;
        m.set(
            "stream.tick.crossing.share",
            crossing_s / tick_wall.max(1e-12),
            "ratio",
            ticks,
        );
        m.set(
            "stream.tick.busy_frac",
            tick_wall / window_wall_s.max(1e-12),
            "ratio",
            ticks,
        );
        if let Some(busy) = stage_busy {
            for (name, s) in ["drain", "identify", "assimilate", "classify"]
                .iter()
                .zip(busy)
            {
                m.set(&format!("stream.tick.{name}.busy_s"), s, "s", ticks);
            }
            // The stage histograms are recorded once per shard per tick, so
            // their sum is thread time; a tick's wall covers the slowest
            // shard. What is left after the mean shard is dispatch, merge
            // and shard skew.
            let self_s = tick_wall - busy.iter().sum::<f64>() / shards as f64;
            m.set("stream.tick.self.busy_s", self_s, "s", ticks);
            m.set(
                "stream.tick.self.share",
                self_s / tick_wall.max(1e-12),
                "ratio",
                ticks,
            );
        }
        for (name, total) in [
            ("stream.samples.drained", self.drained),
            ("stream.samples.scored", self.scored),
            ("stream.samples.projected", self.projected),
            ("stream.sessions.assimilated", self.assimilated),
            ("stream.panels", self.panels),
        ] {
            m.set(name, total as f64 / rounds.max(1) as f64, "count", rounds);
        }
        m.set(
            "stream.peak_panel_elems",
            self.peak_panel_elems as f64,
            "count",
            0,
        );
        let per_tick = |v: u64| v as f64 / ticks.max(1) as f64;
        m.set(
            "rayon.pool.jobs_per_tick",
            per_tick(self.pool_jobs),
            "count",
            ticks,
        );
        m.set(
            "rayon.pool.handoffs_per_tick",
            per_tick(self.pool_handoffs),
            "count",
            ticks,
        );
        m
    }
}

/// Sums of the engine's existing per-stage span histograms, in seconds:
/// drain, identify, assimilate, classify. All zero when `OBS` is off.
pub fn stage_busy_s(engine: &StreamEngine<'_>) -> [f64; 4] {
    ["drain", "identify", "assimilate", "classify"].map(|stage| {
        match engine.registry().get(&format!("stream.tick.{stage}")) {
            Some(Metric::Histogram(h)) => h.snapshot().sum as f64 / 1e9,
            _ => 0.0,
        }
    })
}

/// Stage sums of a window: `after − before`.
pub fn busy_delta(after: [f64; 4], before: [f64; 4]) -> [f64; 4] {
    std::array::from_fn(|i| after[i] - before[i])
}
