//! The streaming engine: micro-batching concurrent sessions through one
//! rung-operator tick path, sharded by session across workers.
//!
//! Event loop shape: producers call [`StreamEngine::push`] (exclusive) or
//! [`StreamEngine::enqueue`] (lock-free, shared — one atomic stack push)
//! as sensor packets arrive (any granularity — single samples, partial
//! steps, whole bursts), and the operator drives [`StreamEngine::tick`]
//! on its service cadence.
//!
//! ## The tick
//!
//! The online phase is one construction (arXiv:2501.14911): every rung
//! `w` of the window ladder has a precomputed data-to-QoI operator
//! factored as `T_w ≈ L_w R_wᵀ`; arriving data fold into a small state
//! `z += R_wᵀ d`, and a rung crossing lifts `q = L_w z`. The engine is
//! handed one [`RungLadder`] at construction ([`StreamEngine::new`];
//! [`StreamEngine::goal_oriented`] and [`StreamEngine::mode_space`] are
//! the same constructor) and resolves it into per-rung views (where the
//! lift input comes from, a borrowed lift matrix, an optional inference
//! operator, the posterior std); the ladder handed in *is* the path
//! selection ([`TickPath`]):
//!
//! | ladder built by | `R_w` | per-session state | certified bound | [`TickPath`] |
//! |---|---|---|---|---|
//! | [`RungLadder::build`] — exact | `L⁻¹`, shared whitening factor | whitened data `y = L⁻¹d`, ring-sized | exact | `Windowed` |
//! | [`RungLadder::compress`] — SVD-compressed | own factor per rung (`I` for a rung kept exact) | `Σ rank_w` | `‖T_w − L_w R_wᵀ‖_F · ‖d_w‖₂` | `GoalOriented` |
//! | [`RungLadder::project`] — over a POD basis `U` | leading rows `U_k` of one basis | `r` per rung + `r` | `‖T_w (I − P_w)‖_F · ‖d_w‖₂` | `ModeSpace` |
//!
//! A tick does five things, each independently per shard:
//!
//! ```text
//!   drain ──▶ identify ──▶ fold ──▶ lift ──▶ classify
//!   inbox     rows × B     z += Rᵀd  q = L z   band vs threshold
//!   → rings   (or a += Uᵀd bucketed  per rung,  → audit ring
//!             rows × r)    by range  chunked
//! ```
//!
//! 1. **Drain** — samples enqueued since the last tick are appended to
//!    their sessions' rings (FIFO per shard; stale generations dropped).
//! 2. **Identify** — with a [`ScenarioBank`] attached, each session's
//!    newly arrived rows update its per-scenario squared misfit in one
//!    blocked `rows × scenarios` GEMM
//!    ([`crate::identify::score_group_gemm`]), the sequential Bayesian
//!    update of Nomura et al. (arXiv:2407.03631) at bank-scale cost.
//!    Under [`IdentifyBackend::ModeSpace`] the rows only fold into the
//!    session's sufficient statistic — an `r`-dimensional running
//!    projection `a = Uᵀd` and the data energy `‖d‖²` — and a plain
//!    tick stops there. The `B` misfits are a pure function of that
//!    statistic, materialized at `r × B` cost only where something reads
//!    them: a warning transition's audit record (stage 5), and the
//!    [`StreamEngine::ranked_matches`] / [`StreamEngine::misfit_scores`]
//!    queries ([`TickMetrics::misfits_materialized`]). The exact path is
//!    retained as the oracle.
//! 3. **Fold** — sessions with a common unfolded range are bucketed and
//!    their new rows folded into the rank-sized lift inputs: through
//!    each rung's own right factor (goal-oriented), or *once* through
//!    the shared basis with the running projection snapshotted at every
//!    rung boundary (mode-space). When identification is also mode-space
//!    over the same basis, stage 2's projection *is* that fold — no row
//!    is ever folded twice ([`TickMetrics::samples_projected`]). Exact
//!    rungs need no fold at all.
//! 4. **Lift** — sessions whose complete-step count crossed a new rung
//!    are grouped *by rung* and, in chunks, gathered into one `rows × b`
//!    block and lifted with one GEMM. An exact rung first whitens the
//!    rows that arrived since the session's last rung (one forward
//!    sweep of the shared factor, `y = L⁻¹d`), then lifts only the
//!    segments above that rung, one GEMM each, into the session's
//!    forecast; a plain tick whitens nothing. [`StreamConfig::infer`]
//!    adds the rung's inference operator where it has one (the batched
//!    leading-block solve on the raw window, or the reduced `M̃_w` GEMM).
//! 5. **Classify** — each assimilated session's forecast band is
//!    classified against the warning threshold; level changes are
//!    recorded as [`WarningTransition`]s.
//!
//! ## Sharding
//!
//! Sessions are sharded by id: session `id` lives in shard `id %
//! shards` at local slot `id / shards` ([`StreamConfig::shards`]).
//! Every shard owns its session table, freelist, and inbox, so a tick
//! fans the shards out across the worker pool with **one barrier per
//! tick** — no cross-shard locks, no per-session synchronization. With
//! `shards = 1` (the default) the whole tick runs as one sequential
//! shard. Shard results are invariant in the shard count:
//! identification and folds update each session independently, and the
//! lift acts columnwise, so K-shard and 1-shard ticks agree to roundoff.
//!
//! Groups are processed in bounded chunks of [`StreamConfig::chunk`]
//! sessions: the largest dense block any shard ever materializes is
//! `(Nd·Nt) × chunk` (data side) or `(Nm·Nt) × chunk` (parameter side),
//! independent of the number of live sessions — and rank-sized on the
//! reduced paths ([`StreamEngine::shard_panel_peaks`]).
//!
//! ## Observability
//!
//! Every engine owns a [`tsunami_obs::Registry`]
//! ([`StreamEngine::registry`]) that its ticks record into through
//! lock-free handles: per-stage span histograms (`stream.tick.drain`,
//! `stream.tick.identify`, `stream.tick.assimilate`,
//! `stream.tick.classify`, `stream.tick.total`, nanoseconds), per-shard
//! whole-tick spans (`stream.shard.<i>.tick`), per-rung assimilation
//! spans (`stream.rung.<w>.assimilate`, one sample per chunk), lifetime
//! throughput counters (`stream.ticks`, `stream.sessions.assimilated`,
//! `stream.panels`, `stream.samples.*`, `stream.warnings.transitions`,
//! `stream.identify.materialized`),
//! and tick-boundary pool gauges (`pool.jobs`, `pool.handoffs`,
//! `pool.wakeups`, `pool.workers`). `OBS=off` (or
//! [`tsunami_obs::set_enabled`]`(false)`) disables all of it: the tick
//! checks the switch once and skips every clock read and record.
//!
//! Warning-level changes additionally land in a bounded audit ring
//! ([`StreamEngine::audit`]): each [`WarningTransition`] captures the
//! session, tick, rung, credible band, top posterior scenario, and
//! tick path at classification time. Transitions are collected in
//! per-shard scratch during the parallel fan-out and merged shard-major
//! after the barrier, so the ring needs no locks and its order is
//! deterministic for a given shard count.

use crate::identify;
use crate::ladder::{Ladder, TickPath};
use crate::session::{SessionLayout, StreamSession, WarningLevel};
use crate::tick::{read_misfit, tick_shard, Shard, TickCtx, TickSpans};
use rayon::prelude::*;
use std::sync::Arc;
use std::time::Instant;
use tsunami_core::{DigitalTwin, Forecast, ForecastBatch, PodBank, RungLadder, ScenarioBank};
use tsunami_obs::{AuditRing, Counter, Gauge, Histogram, Registry};

/// Which scenario-identification path a tick runs (see the
/// [module docs](self)).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum IdentifyBackend {
    /// Exact blocked GEMM against the full clean block
    /// ([`crate::identify::score_group_gemm`]) — the oracle path.
    #[default]
    Exact,
    /// POD mode-space identification: a tick projects arrived rows onto
    /// the attached [`PodBank`]'s modes ([`crate::identify::project_group`])
    /// and does nothing bank-wide; the `B` misfits are materialized from
    /// the `r`-dimensional projection ([`crate::identify::score_group_pod`])
    /// only at a warning transition or a query. Per-tick cost drops from
    /// `rows × B` to `rows × r`, plus `r × B` per read; scores differ from
    /// exact by at most the per-scenario POD truncation error. Sessions
    /// hold no `B`-wide state. Requires [`StreamEngine::with_pod`].
    ModeSpace,
}

/// Engine knobs.
#[derive(Clone, Copy, Debug)]
pub struct StreamConfig {
    /// Maximum sessions per batched assimilation panel — the chunking
    /// knob that bounds the engine's peak working set. Must be ≥ 1.
    pub chunk: usize,
    /// Wave-height threshold (m) for the warning classification.
    pub warn_threshold: f64,
    /// Also run the parameter inference at every rung that has an
    /// inference operator, filling [`StreamSession::m_norm`]: the
    /// batched `K_w⁻¹` solve + FFT pass on rungs that read the raw
    /// window, the reduced `M̃_w` GEMM on rungs built with
    /// [`tsunami_core::ModeSpaceOptions::inference`]. Rungs with neither
    /// (SVD-compressed goal rungs — skipping the factor walk is their
    /// point) leave `m_norm` at `None`.
    pub infer: bool,
    /// Session shards ticked in parallel (see the [module docs](self)).
    /// Must be ≥ 1; 1 ticks every session in one sequential shard.
    pub shards: usize,
    /// Scenario-identification backend ([`IdentifyBackend::Exact`] by
    /// default; [`IdentifyBackend::ModeSpace`] needs an attached
    /// [`PodBank`]).
    pub identify: IdentifyBackend,
    /// Capacity of the warning audit ring ([`StreamEngine::audit`]): the
    /// newest this many [`WarningTransition`] records are retained, older
    /// ones evicted with accounting. Must be ≥ 1.
    pub audit_capacity: usize,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            chunk: 64,
            warn_threshold: 0.1,
            infer: true,
            shards: 1,
            identify: IdentifyBackend::Exact,
            audit_capacity: 1024,
        }
    }
}

/// One scenario's standing in a session's sequential identification.
#[derive(Clone, Copy, Debug)]
pub struct ScenarioMatch {
    /// Index into the bank's scenario list.
    pub scenario: usize,
    /// Gaussian log-likelihood of the arrived samples under this
    /// scenario's predicted data (up to the shared additive constant).
    pub log_likelihood: f64,
    /// Posterior probability over the bank (uniform prior).
    pub probability: f64,
}

/// The uniform-prior scenario posterior of one session's misfits, in
/// bank order — the one definition behind [`StreamEngine::ranked_matches`]
/// and the audit record's [`WarningTransition::top_scenario`]. Scenario
/// `j` scores the Gaussian log-likelihood `ll_j = −misfit_j/(2σ²)` and
/// the probability `exp(ll_j − ll_max) / Σ_i exp(ll_i − ll_max)`.
pub(crate) fn scenario_posterior(misfit: &[f64], noise_std: f64) -> Vec<ScenarioMatch> {
    let sigma2 = noise_std * noise_std;
    let mut matches: Vec<ScenarioMatch> = misfit
        .iter()
        .enumerate()
        .map(|(j, &mis)| ScenarioMatch {
            scenario: j,
            log_likelihood: -mis / (2.0 * sigma2),
            probability: 0.0,
        })
        .collect();
    let ll_max = matches
        .iter()
        .map(|m| m.log_likelihood)
        .fold(f64::NEG_INFINITY, f64::max);
    for m in &mut matches {
        m.probability = (m.log_likelihood - ll_max).exp();
    }
    let z: f64 = matches.iter().map(|m| m.probability).sum();
    for m in &mut matches {
        m.probability /= z;
    }
    matches
}

/// Per-tick latency/throughput record.
#[derive(Clone, Copy, Debug, Default)]
pub struct TickMetrics {
    /// Sessions assimilated this tick (crossed a window boundary).
    pub sessions_assimilated: usize,
    /// Batched panels dispatched this tick (summed over shards).
    pub panels: usize,
    /// Newly arrived samples absorbed into the identification state this
    /// tick: the exact misfit accumulator, or under mode-space
    /// identification the statistic `(a, ‖d‖²)` the misfit is a pure
    /// function of ([`StreamSession::identification_statistic`]).
    pub samples_scored: usize,
    /// Newly arrived samples folded into goal-oriented per-rung states
    /// this tick (0 on the other paths).
    pub samples_folded: usize,
    /// Newly arrived samples folded into POD running projections this
    /// tick — counted **once per row** even when mode-space
    /// identification and a mode-space ladder share the fold (the
    /// no-double-fold guarantee: with both in mode space this equals the
    /// rows that arrived, never 2×).
    pub samples_projected: usize,
    /// Mode-space misfit materializations this tick: one per warning
    /// transition, whose audit record reads the top posterior scenario.
    /// 0 on plain ticks and under exact identification, which keeps its
    /// misfits accumulated. Queries materialize on their own and are not
    /// counted here.
    pub misfits_materialized: usize,
    /// Samples accepted from the lock-free inboxes this tick (the
    /// [`StreamEngine::enqueue`] path; direct pushes count at push time).
    pub samples_drained: usize,
    /// Largest dense block materialized by any *one shard* this tick
    /// (elements) — the per-shard bounded-working-set figure.
    pub peak_panel_elems: usize,
    /// Persistent-pool jobs dispatched since the previous tick boundary
    /// (one [`rayon::pool_stats`] read per tick, delta'd against the
    /// stored previous read) — 0 when the tick ran serially and nothing
    /// else used the pool in between.
    pub pool_jobs: usize,
    /// Parked-worker handoffs since the previous tick boundary: worker
    /// entries into those jobs, each served without an OS-thread spawn.
    pub pool_handoffs: usize,
    /// Wall-clock seconds for the whole tick.
    pub seconds: f64,
}

impl TickMetrics {
    /// Assimilation throughput of this tick.
    pub fn sessions_per_sec(&self) -> f64 {
        self.sessions_assimilated as f64 / self.seconds.max(1e-12)
    }
}

/// Running totals across the engine's lifetime.
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineMetrics {
    /// Ticks processed.
    pub ticks: usize,
    /// Session-assimilations performed (a session counts once per rung).
    pub assimilations: usize,
    /// Batched panels dispatched.
    pub panels: usize,
    /// Total samples accepted (direct pushes at push time, enqueued
    /// samples when their shard drains them).
    pub samples_ingested: usize,
    /// Total tick wall-clock seconds.
    pub seconds: f64,
    /// Largest dense block any one shard ever materialized (elements) —
    /// the bounded-working-set guarantee, checked against `(Nd·Nt)·chunk`.
    pub peak_panel_elems: usize,
    /// Persistent-pool jobs dispatched between this engine's tick
    /// boundaries over its lifetime ([`rayon::pool_stats`] tick-boundary
    /// deltas, summed).
    pub pool_jobs: usize,
    /// Parked-worker handoffs between tick boundaries (worker entries
    /// into those jobs), summed over the engine's lifetime.
    pub pool_handoffs: usize,
    /// Fresh sample rings allocated over the engine's lifetime. Stays flat
    /// under open→close→open churn (closed sessions return their ring to a
    /// freelist and [`StreamEngine::open`] reuses it), so indefinite
    /// service does not grow memory per event.
    pub rings_allocated: usize,
    /// Bytes currently retained by the per-shard assimilation scratch
    /// arenas (gather panel + output block, reused across ticks). A
    /// gauge, refreshed each tick: it plateaus at the high-water chunk
    /// working set and stays flat through steady-state ticks — the
    /// allocation-hardening counterpart of `rings_allocated`.
    pub scratch_bytes: usize,
}

/// One warning-level change of one session — the audit record a
/// long-running service keeps (see [`StreamEngine::audit`] and the
/// [module docs](self)).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WarningTransition {
    /// Session id whose level changed.
    pub session: usize,
    /// 0-based tick index (over the engine's lifetime) that classified
    /// the change.
    pub tick: u64,
    /// Window-ladder rung whose assimilation produced the classified
    /// forecast.
    pub rung: usize,
    /// Warning level before the transition.
    pub from: WarningLevel,
    /// Warning level after the transition.
    pub to: WarningLevel,
    /// Largest 95%-credible lower bound across the forecast's QoIs at
    /// classification time (the confident-exceedance figure;
    /// [`forecast_band`]).
    pub band_lo: f64,
    /// Largest 95%-credible upper bound across the forecast's QoIs.
    pub band_hi: f64,
    /// Top posterior scenario `(bank index, probability)` under the
    /// session's identification posterior at classification time — `None`
    /// when no scenario bank is attached.
    pub top_scenario: Option<(usize, f64)>,
    /// The tick path that produced the classified forecast.
    pub path: TickPath,
}

/// Cached counter/gauge handles into the engine's [`Registry`], resolved
/// once at construction and refreshed at tick boundaries.
struct EngineCounters {
    ticks: Arc<Counter>,
    assimilated: Arc<Counter>,
    panels: Arc<Counter>,
    drained: Arc<Counter>,
    scored: Arc<Counter>,
    folded: Arc<Counter>,
    projected: Arc<Counter>,
    materialized: Arc<Counter>,
    transitions: Arc<Counter>,
    pool_jobs: Arc<Gauge>,
    pool_handoffs: Arc<Gauge>,
    pool_wakeups: Arc<Gauge>,
    pool_workers: Arc<Gauge>,
    scratch_bytes: Arc<Gauge>,
    peak_panel: Arc<Gauge>,
}

impl EngineCounters {
    fn new(reg: &Registry) -> Self {
        EngineCounters {
            ticks: reg.counter("stream.ticks"),
            assimilated: reg.counter("stream.sessions.assimilated"),
            panels: reg.counter("stream.panels"),
            drained: reg.counter("stream.samples.drained"),
            scored: reg.counter("stream.samples.scored"),
            folded: reg.counter("stream.samples.folded"),
            projected: reg.counter("stream.samples.projected"),
            materialized: reg.counter("stream.identify.materialized"),
            transitions: reg.counter("stream.warnings.transitions"),
            pool_jobs: reg.gauge("pool.jobs"),
            pool_handoffs: reg.gauge("pool.handoffs"),
            pool_wakeups: reg.gauge("pool.wakeups"),
            pool_workers: reg.gauge("pool.workers"),
            scratch_bytes: reg.gauge("stream.scratch.bytes"),
            peak_panel: reg.gauge("stream.peak_panel_elems"),
        }
    }
}

/// The streaming assimilation engine (see the [module docs](self)).
pub struct StreamEngine<'a> {
    twin: &'a DigitalTwin,
    /// Per-rung views of the ladder the engine was constructed on.
    ladder: Ladder<'a>,
    bank: Option<&'a ScenarioBank>,
    /// POD compression of the attached bank (mode-space identification).
    pod: Option<&'a PodBank>,
    /// Prefix sums of the bank's squared clean observations
    /// ([`identify::sq_prefix`]), computed once at attach time.
    bank_sq_prefix: Vec<f64>,
    config: StreamConfig,
    shards: Vec<Shard>,
    /// Round-robin cursor for [`Self::open`] shard placement.
    next_open: usize,
    metrics: EngineMetrics,
    /// This engine's metrics registry (see [`Self::registry`]).
    obs: Registry,
    /// Cached per-stage span handles into `obs`.
    spans: TickSpans,
    /// Cached counter/gauge handles into `obs`.
    counters: EngineCounters,
    /// Per-rung assimilation span histograms.
    rung_spans: Vec<Arc<Histogram>>,
    /// Per-shard whole-tick span histograms.
    shard_spans: Vec<Arc<Histogram>>,
    /// Warning-transition audit ring (see [`Self::audit`]).
    audit: AuditRing<WarningTransition>,
    /// Pool counters at the last tick boundary; [`TickMetrics`] pool
    /// deltas are boundary-to-boundary against this.
    last_pool: rayon::PoolStats,
}

impl<'a> StreamEngine<'a> {
    /// An engine on a rung ladder. The ladder handed in *is* the path
    /// selection ([`TickPath`], read off the ladder): an exact ladder
    /// ([`RungLadder::build`]) whitens the rows arrived since the last rung
    /// and lifts the new segments of `G = B L⁻ᵀ` — the exact path, and
    /// the oracle for the reduced ones; a compressed ladder
    /// ([`RungLadder::compress`]) or a shared-basis ladder
    /// ([`RungLadder::project`]) makes a tick rank-sized folds plus small
    /// GEMMs, with none of the exact ladder's `O(Nq·Nt · Nd·Nt)` resident
    /// lifts or its ring-sized whitened data per session.
    pub fn new(twin: &'a DigitalTwin, ladder: &'a RungLadder, config: StreamConfig) -> Self {
        let ladder = Ladder::new(ladder, config.infer);
        assert!(config.chunk >= 1, "chunk must be at least 1");
        assert!(config.shards >= 1, "shards must be at least 1");
        assert!(
            config.audit_capacity >= 1,
            "audit_capacity must be at least 1"
        );
        assert_eq!(
            ladder.nd,
            twin.solver.sensors.len(),
            "ladder and twin disagree on the sensor count"
        );
        let obs = Registry::new();
        let spans = TickSpans::new(&obs);
        let counters = EngineCounters::new(&obs);
        let rung_spans = (0..ladder.rungs.len())
            .map(|w| obs.histogram(&format!("stream.rung.{w}.assimilate")))
            .collect();
        let shard_spans = (0..config.shards)
            .map(|i| obs.histogram(&format!("stream.shard.{i}.tick")))
            .collect();
        StreamEngine {
            twin,
            ladder,
            bank: None,
            pod: None,
            bank_sq_prefix: Vec::new(),
            config,
            shards: (0..config.shards).map(Shard::new).collect(),
            next_open: 0,
            metrics: EngineMetrics::default(),
            obs,
            spans,
            counters,
            rung_spans,
            shard_spans,
            audit: AuditRing::new(config.audit_capacity),
            last_pool: rayon::pool_stats(),
        }
    }

    /// [`Self::new`], under the name the frozen `perf_report` harness
    /// spells for the goal-oriented path.
    pub fn goal_oriented(
        twin: &'a DigitalTwin,
        ladder: &'a RungLadder,
        config: StreamConfig,
    ) -> Self {
        Self::new(twin, ladder, config)
    }

    /// [`Self::new`], under the name the frozen `perf_report` harness
    /// spells for the mode-space path.
    pub fn mode_space(twin: &'a DigitalTwin, ladder: &'a RungLadder, config: StreamConfig) -> Self {
        Self::new(twin, ladder, config)
    }

    /// Attach a scenario bank: every arrived sample then also updates the
    /// sequential per-scenario identification state. Precomputes the
    /// clean-energy prefix sums both identification backends read.
    pub fn with_bank(mut self, bank: &'a ScenarioBank) -> Self {
        assert_eq!(
            bank.clean_observations().nrows(),
            self.twin.n_data(),
            "bank and twin disagree on the data dimension"
        );
        for s in self.shards.iter().flat_map(|sh| &sh.sessions) {
            assert!(
                s.samples() == 0,
                "attach the bank before any samples arrive"
            );
        }
        // Resize every session's misfit accumulator in place (no
        // realloc when capacity suffices) instead of swapping in a
        // fresh vec per session.
        let n_scen = self.misfit_len(bank);
        for s in self.shards.iter_mut().flat_map(|sh| &mut sh.sessions) {
            s.misfit.clear();
            s.misfit.resize(n_scen, 0.0);
        }
        self.bank_sq_prefix = identify::sq_prefix(bank.clean_observations());
        self.bank = Some(bank);
        self
    }

    /// Attach a POD compression of the bank, enabling
    /// [`IdentifyBackend::ModeSpace`] ticks. Must agree with the attached
    /// bank in shape (call [`Self::with_bank`] first). Every session gains
    /// an `r`-dimensional running projection; the exact path stays
    /// available as the oracle via [`StreamConfig::identify`]. On a
    /// shared-basis ladder the POD modes must *be* that basis, bit for
    /// bit — mode-space identification then folds drained rows into the
    /// per-session projection once, and the ladder's rung snapshots are
    /// cut from that same fold.
    pub fn with_pod(mut self, pod: &'a PodBank) -> Self {
        let bank = self
            .bank
            .expect("attach the bank (with_bank) before with_pod");
        assert_eq!(
            pod.modes().nrows(),
            self.twin.n_data(),
            "POD modes and twin disagree on the data dimension"
        );
        assert_eq!(
            pod.len(),
            bank.len(),
            "POD compression and bank disagree on the scenario count"
        );
        for s in self.shards.iter().flat_map(|sh| &sh.sessions) {
            assert!(
                s.samples() == 0,
                "attach the POD bank before any samples arrive"
            );
        }
        if let Some(basis) = self.ladder.basis {
            assert!(
                pod.modes().ncols() == basis.ncols() && pod.modes().as_slice() == basis.as_slice(),
                "mode-space ladder and PodBank must share the observation basis bit for bit \
                 (build the ladder from PodBank::modes())"
            );
        }
        let r = pod.rank();
        for s in self.shards.iter_mut().flat_map(|sh| &mut sh.sessions) {
            s.pod_coeff.clear();
            s.pod_coeff.resize(r, 0.0);
        }
        self.pod = Some(pod);
        self
    }

    /// Width of a session's misfit accumulator: the bank width under
    /// exact identification, 0 under mode-space identification (whose
    /// misfits are materialized at read time, never held).
    fn misfit_len(&self, bank: &ScenarioBank) -> usize {
        match self.config.identify {
            IdentifyBackend::Exact => bank.len(),
            IdentifyBackend::ModeSpace => 0,
        }
    }

    /// The POD bank mode-space reads materialize misfits from — `None`
    /// under exact identification, whose accumulator is read as-is.
    fn materializing_pod(&self) -> Option<&'a PodBank> {
        self.pod
            .filter(|_| self.config.identify == IdentifyBackend::ModeSpace)
    }

    /// True when mode-space identification and a shared-basis ladder
    /// fold the drained rows into the *same* per-session projection
    /// (`pod_coeff`) — the no-double-fold configuration.
    fn shared_fold(&self) -> bool {
        self.bank.is_some()
            && self.config.identify == IdentifyBackend::ModeSpace
            && self.ladder.basis.is_some()
    }

    /// Map a session id to its `(shard, local slot)`, panicking with the
    /// offending id and shard when the id was never handed out by
    /// [`Self::open`] — out-of-range and foreign ids fail loudly here
    /// instead of indexing into an unrelated slot.
    fn locate(&self, id: usize, op: &str) -> (usize, usize) {
        let n = self.shards.len();
        let (si, local) = (id % n, id / n);
        let slots = self.shards[si].sessions.len();
        assert!(
            local < slots,
            "{op}: unknown session id {id} (shard {si} of {n} holds {slots} slots)"
        );
        (si, local)
    }

    /// Open an observation session; returns its id. Shards are filled
    /// round-robin (so a fresh engine hands out ids 0, 1, 2, … exactly
    /// like the unsharded engine did), and a previously
    /// [closed](Self::close) session's slot — ring and misfit allocations
    /// included — is reused when the target shard has one, so indefinite
    /// open/close service keeps a fixed memory footprint (the high-water
    /// mark of concurrently open sessions).
    pub fn open(&mut self) -> usize {
        let n = self.shards.len();
        let capacity = self.twin.n_data();
        let layout = SessionLayout {
            n_scenarios: self.bank.map_or(0, |b| self.misfit_len(b)),
            n_modes: self.pod.map_or(0, |p| p.rank()),
            fold_len: self.ladder.fold_len,
            acc_len: self.ladder.basis.map_or(0, |u| u.ncols()),
            white_len: self.ladder.whitening.map_or(0, |_| capacity),
        };
        let si = self.next_open % n;
        self.next_open += 1;
        let nd = self.ladder.nd;
        let shard = &mut self.shards[si];
        if let Some(local) = shard.free.pop() {
            shard.sessions[local].reopen(layout);
            return shard.sessions[local].id;
        }
        let id = si + shard.sessions.len() * n;
        shard
            .sessions
            .push(StreamSession::new(id, capacity, nd, layout));
        self.metrics.rings_allocated += 1;
        id
    }

    /// Close a session once its event is over: the slot (ring buffer and
    /// misfit accumulator included) goes on its shard's freelist and a
    /// later [`Self::open`] reuses it. Closed sessions are skipped by
    /// every tick stage; their last products stay readable until reuse.
    /// Closing bumps the slot's generation, which invalidates any inbox
    /// batches still staged for the closed event (see [`Self::enqueue`]).
    pub fn close(&mut self, id: usize) {
        let (si, local) = self.locate(id, "close");
        let shard = &mut self.shards[si];
        assert!(
            shard.sessions[local].active,
            "close of already-closed session {id}"
        );
        shard.sessions[local].active = false;
        shard.sessions[local].generation += 1;
        shard.free.push(local);
    }

    /// Feed newly arrived samples (time-major continuation) into a
    /// session. Any granularity is fine — a lone sample, a partial step, a
    /// whole burst. Returns how many samples were accepted (pushes past
    /// the event horizon are clamped).
    pub fn push(&mut self, id: usize, samples: &[f64]) -> usize {
        let (si, local) = self.locate(id, "push");
        let s = &mut self.shards[si].sessions[local];
        assert!(s.active, "push into closed session {id}");
        let accepted = s.ring.push(samples);
        self.metrics.samples_ingested += accepted;
        accepted
    }

    /// Lock-free ingest: stage samples for a session with a single atomic
    /// push onto its shard's inbox. Shared-reference, so any number of
    /// producer threads can feed a shared engine concurrently; the
    /// samples are folded into the session's ring at the start of the
    /// next [`Self::tick`] (per shard, in arrival order).
    ///
    /// Each batch is stamped with the session slot's generation at
    /// enqueue time and dropped at drain if the generations no longer
    /// match — that covers both a session that is simply closed by drain
    /// time *and* a slot that was closed and already reopened for a new
    /// event under the same id (the staged samples belong to the old
    /// event and must not leak into the new one). Pushes past the event
    /// horizon are clamped at drain, exactly as with [`Self::push`].
    pub fn enqueue(&self, id: usize, samples: &[f64]) {
        let (si, local) = self.locate(id, "enqueue");
        let shard = &self.shards[si];
        let generation = shard.sessions[local].generation;
        shard.inbox.push(id, generation, samples.to_vec());
    }

    /// Borrow a session.
    pub fn session(&self, id: usize) -> &StreamSession {
        let (si, local) = self.locate(id, "session");
        &self.shards[si].sessions[local]
    }

    /// Session slots ever created (open and closed), across all shards.
    pub fn session_count(&self) -> usize {
        self.shards.iter().map(|sh| sh.sessions.len()).sum()
    }

    /// Every session slot, shard-major order (not id order; use
    /// [`StreamSession::id`] when identity matters).
    pub fn sessions(&self) -> impl Iterator<Item = &StreamSession> {
        self.shards.iter().flat_map(|sh| sh.sessions.iter())
    }

    /// Lifetime totals.
    pub fn metrics(&self) -> &EngineMetrics {
        &self.metrics
    }

    /// Largest dense block each shard ever materialized (elements) — the
    /// per-shard bounded-working-set record, indexed by shard.
    pub fn shard_panel_peaks(&self) -> Vec<usize> {
        self.shards.iter().map(|sh| sh.peak_panel_elems).collect()
    }

    /// The engine's metrics registry: per-stage tick span histograms,
    /// per-shard and per-rung spans, lifetime throughput counters, and
    /// tick-boundary pool gauges, queryable any time and renderable as
    /// Prometheus-style text or JSON
    /// ([`Registry::render_prometheus`] / [`Registry::render_json`]).
    /// See the [module docs](self) for the naming scheme. Each engine
    /// owns its registry, so concurrent engines in one process never mix
    /// their telemetry.
    pub fn registry(&self) -> &Registry {
        &self.obs
    }

    /// The warning audit ring: every warning-level transition the engine
    /// ever classified, newest [`StreamConfig::audit_capacity`] retained
    /// ([`AuditRing::evicted`] says how many older ones were dropped).
    pub fn audit(&self) -> &AuditRing<WarningTransition> {
        &self.audit
    }

    /// One session's retained warning transitions, oldest first.
    pub fn audit_for(&self, id: usize) -> impl Iterator<Item = &WarningTransition> {
        self.audit.iter().filter(move |t| t.session == id)
    }

    /// Forget every session's ladder position so the next [`Self::tick`]
    /// re-assimilates all of them from their current data. Replay /
    /// benchmarking support (identification scores are *not* reset — they
    /// are a pure function of the arrived samples).
    ///
    /// The fold state *is* reset (it is re-derived from the ring; zeroing
    /// avoids double-folding the same samples), so the next tick refolds
    /// `[0, filled)` in one pass — bit-identical to a fresh engine that
    /// received the whole stream in one push. Under the shared fold the
    /// identification projection carries the fold, so `scored`, the
    /// running projection, and the data energy reset with it — safe
    /// because the mode-space misfit is never held, only materialized
    /// from that statistic when read, and the refold rebuilds the
    /// statistic. Misfit reads between the rewind and the next tick see
    /// the statistic of zero rows.
    ///
    /// An exact rung's lift restarts from `q = 0` with the ladder
    /// position; the whitened data are a pure function of the ring, so
    /// they are kept and not whitened again.
    ///
    /// Warning levels reset to [`WarningLevel::AllClear`] as well, so a
    /// replay re-classifies from scratch and the audit ring records the
    /// same transition sequence the original stream produced.
    pub fn rewind(&mut self) {
        let shared = self.shared_fold();
        for s in self
            .shards
            .iter_mut()
            .flat_map(|sh| &mut sh.sessions)
            .filter(|s| s.active)
        {
            s.window_idx = None;
            s.folded = 0;
            s.fold.fill(0.0);
            s.fold_acc.fill(0.0);
            if shared {
                s.scored = 0;
                s.pod_coeff.fill(0.0);
                s.data_energy = 0.0;
                s.data_energy_comp = 0.0;
            }
            s.level = WarningLevel::AllClear;
        }
    }

    /// Process everything that arrived since the last tick (see the
    /// [module docs](self) for the stages). Shards tick independently —
    /// in parallel across the persistent worker pool when `shards > 1`,
    /// with one barrier at the end — and their partial metrics are merged
    /// here.
    pub fn tick(&mut self) -> TickMetrics {
        let t0 = Instant::now();
        let on = tsunami_obs::enabled();
        assert!(
            self.config.identify == IdentifyBackend::Exact || self.pod.is_some(),
            "mode-space identification requires an attached PodBank (with_pod)"
        );
        let ctx = TickCtx {
            twin: self.twin,
            ladder: &self.ladder,
            bank: self.bank,
            pod: self.materializing_pod(),
            sq_prefix: &self.bank_sq_prefix,
            config: self.config,
            shared_fold: self.shared_fold(),
            n_shards: self.shards.len(),
            spans: &self.spans,
            rung_spans: &self.rung_spans,
            shard_spans: &self.shard_spans,
            obs_on: on,
            tick_no: self.metrics.ticks as u64,
        };
        if self.shards.len() > 1 {
            self.shards
                .par_iter_mut()
                .for_each(|sh| tick_shard(sh, &ctx));
        } else {
            tick_shard(&mut self.shards[0], &ctx);
        }

        let mut m = TickMetrics::default();
        for sh in &self.shards {
            m.sessions_assimilated += sh.last.sessions_assimilated;
            m.panels += sh.last.panels;
            m.samples_scored += sh.last.samples_scored;
            m.samples_folded += sh.last.samples_folded;
            m.samples_projected += sh.last.samples_projected;
            m.misfits_materialized += sh.last.misfits_materialized;
            m.samples_drained += sh.last.samples_drained;
            m.peak_panel_elems = m.peak_panel_elems.max(sh.last.peak_panel_elems);
        }
        self.metrics.scratch_bytes = self.shards.iter().map(|sh| sh.arena.bytes()).sum();
        // Merge each shard's audit scratch shard-major — deterministic
        // order for a given shard count, no locking during the fan-out.
        let mut transitions = 0u64;
        for si in 0..self.shards.len() {
            let mut scratch = std::mem::take(&mut self.shards[si].audit_scratch);
            transitions += scratch.len() as u64;
            for t in scratch.drain(..) {
                self.audit.push(t);
            }
            self.shards[si].audit_scratch = scratch;
        }
        // One pool read per tick: [`TickMetrics`] pool figures are
        // boundary-to-boundary deltas against the previous read.
        let pool = rayon::pool_stats();
        m.pool_jobs = pool.jobs - self.last_pool.jobs;
        m.pool_handoffs = pool.handoffs - self.last_pool.handoffs;
        self.last_pool = pool;
        m.seconds = t0.elapsed().as_secs_f64();

        self.metrics.ticks += 1;
        self.metrics.assimilations += m.sessions_assimilated;
        self.metrics.panels += m.panels;
        self.metrics.samples_ingested += m.samples_drained;
        self.metrics.seconds += m.seconds;
        self.metrics.peak_panel_elems = self.metrics.peak_panel_elems.max(m.peak_panel_elems);
        self.metrics.pool_jobs += m.pool_jobs;
        self.metrics.pool_handoffs += m.pool_handoffs;

        if on {
            self.spans.total.record_ns((m.seconds * 1e9) as u64);
            let c = &self.counters;
            c.ticks.inc();
            c.assimilated.add(m.sessions_assimilated as u64);
            c.panels.add(m.panels as u64);
            c.drained.add(m.samples_drained as u64);
            c.scored.add(m.samples_scored as u64);
            c.folded.add(m.samples_folded as u64);
            c.projected.add(m.samples_projected as u64);
            c.materialized.add(m.misfits_materialized as u64);
            c.transitions.add(transitions);
            c.pool_jobs.set(pool.jobs as u64);
            c.pool_handoffs.set(pool.handoffs as u64);
            c.pool_wakeups.set(pool.wakeups as u64);
            c.pool_workers.set(pool.workers_spawned as u64);
            c.scratch_bytes.set(self.metrics.scratch_bytes as u64);
            c.peak_panel.set(self.metrics.peak_panel_elems as u64);
        }
        m
    }

    /// The session's per-scenario squared misfit over its scored samples
    /// (empty when no bank is attached): a copy of the exact accumulator,
    /// or under [`IdentifyBackend::ModeSpace`] the misfit materialized
    /// from the session's identification statistic
    /// ([`StreamSession::identification_statistic`]) — current after every
    /// tick, bit-identical at every read of the same statistic.
    pub fn misfit_scores(&self, id: usize) -> Vec<f64> {
        let mut buf = Vec::new();
        self.read_misfit(id, &mut buf).to_vec()
    }

    /// A session's misfit as a read sees it ([`read_misfit`]).
    fn read_misfit<'r>(&'r self, id: usize, buf: &'r mut Vec<f64>) -> &'r [f64] {
        let pod = self.materializing_pod();
        read_misfit(self.session(id), pod, &self.bank_sq_prefix, buf)
    }

    /// The session's scenario ranking, best match first: Gaussian
    /// log-likelihoods `−misfit/(2σ²)` of the arrived samples under each
    /// bank scenario ([`Self::misfit_scores`]), with posterior
    /// probabilities under a uniform prior. Because the misfit covers
    /// every scored sample, the ranking sharpens as the window grows.
    /// Empty when no bank is attached.
    pub fn ranked_matches(&self, id: usize) -> Vec<ScenarioMatch> {
        let Some(bank) = self.bank else {
            return Vec::new();
        };
        let mut buf = Vec::new();
        let misfit = self.read_misfit(id, &mut buf);
        let mut out = scenario_posterior(misfit, bank.noise_std());
        out.sort_by(|a, b| b.log_likelihood.total_cmp(&a.log_likelihood));
        out
    }

    /// Posterior-weighted scenario **superposition forecast** for a
    /// session: mix the bank's precomputed per-scenario forecasts under
    /// the session's identification posterior
    /// ([`superpose_forecasts`] over [`Self::ranked_matches`]).
    /// `bank_forecasts` holds one forecast column per bank scenario
    /// (e.g. [`tsunami_core::RungLadder::forecast_batch`] on the
    /// bank's clean observations). Falls back to the identification
    /// posterior as-is — works under both identification backends.
    pub fn superposed_forecast(&self, id: usize, bank_forecasts: &ForecastBatch) -> Forecast {
        let bank = self
            .bank
            .expect("superposed forecast requires an attached bank");
        assert_eq!(
            bank_forecasts.q_map.ncols(),
            bank.len(),
            "bank forecasts and bank disagree on the scenario count"
        );
        let matches = self.ranked_matches(id);
        superpose_forecasts(&matches, bank_forecasts)
    }
}

/// Posterior-weighted superposition of scenario forecasts (the
/// multi-scenario forecast blend of Fujita et al., arXiv:2407.03631):
///
/// ```text
///   q_mix = Σ_j p_j q_j,
///   var   = σ_w² + Σ_j p_j q_j² − q_mix²,
/// ```
///
/// the mixture mean and the law-of-total-variance spread — within-scenario
/// forecast variance `σ_w²` (shared across the bank's columns) plus the
/// *between-scenario* variance of the posterior-weighted ensemble. When
/// the posterior is a point mass the mixture collapses to that scenario's
/// forecast exactly; when identification is still ambiguous the
/// between-scenario term widens the credible band to span the competing
/// scenarios — an honest forecast *before* identification has converged,
/// and a better one than any single best-fit scenario for events that lie
/// between bank members.
pub fn superpose_forecasts(matches: &[ScenarioMatch], bank_forecasts: &ForecastBatch) -> Forecast {
    assert!(!matches.is_empty(), "superposition of an empty match list");
    let t0 = Instant::now();
    let nq = bank_forecasts.q_map.nrows();
    let mut q_mix = vec![0.0; nq];
    let mut second = vec![0.0; nq];
    for m in matches {
        let p = m.probability;
        if p == 0.0 {
            continue;
        }
        assert!(
            m.scenario < bank_forecasts.q_map.ncols(),
            "match references scenario {} outside the forecast batch",
            m.scenario
        );
        for i in 0..nq {
            let q = bank_forecasts.q_map[(i, m.scenario)];
            q_mix[i] += p * q;
            second[i] += p * q * q;
        }
    }
    let q_std = (0..nq)
        .map(|i| {
            let between = (second[i] - q_mix[i] * q_mix[i]).max(0.0);
            (bank_forecasts.q_std[i] * bank_forecasts.q_std[i] + between).sqrt()
        })
        .collect();
    Forecast {
        q_map: q_mix,
        q_std,
        seconds: t0.elapsed().as_secs_f64(),
    }
}

/// The peak of a forecast's 95% credible band across its QoIs: the
/// largest lower bound and the largest upper bound. This is the pair
/// [`classify_forecast`] decides on, exposed separately so audit records
/// can carry the evidence behind a classification.
pub fn forecast_band(fc: &Forecast) -> (f64, f64) {
    let mut lo_max = f64::NEG_INFINITY;
    let mut hi_max = f64::NEG_INFINITY;
    for i in 0..fc.q_map.len() {
        let (lo, hi) = fc.ci95(i);
        lo_max = lo_max.max(lo);
        hi_max = hi_max.max(hi);
    }
    (lo_max, hi_max)
}

/// Classify a forecast's 95% credible band against a wave-height
/// threshold: [`WarningLevel::Warning`] if the *lower* bound tops the
/// threshold anywhere (confident exceedance), [`WarningLevel::Watch`] if
/// only the upper bound does (the band straddles it), else
/// [`WarningLevel::AllClear`].
pub fn classify_forecast(fc: &Forecast, threshold: f64) -> WarningLevel {
    classify_band(forecast_band(fc), threshold)
}

/// Classify a precomputed peak band ([`forecast_band`]) against a
/// wave-height threshold (see [`classify_forecast`]).
pub fn classify_band((lo_max, hi_max): (f64, f64), threshold: f64) -> WarningLevel {
    if lo_max > threshold {
        WarningLevel::Warning
    } else if hi_max > threshold {
        WarningLevel::Watch
    } else {
        WarningLevel::AllClear
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsunami_linalg::DMatrix;

    #[test]
    fn classify_thresholds_partition_severity() {
        let fc = Forecast {
            q_map: vec![0.0, 0.5, 1.0],
            q_std: vec![0.1, 0.1, 0.1],
            seconds: 0.0,
        };
        // ci95 half-width ≈ 0.196: entry 2 spans ≈ [0.804, 1.196].
        assert_eq!(classify_forecast(&fc, 2.0), WarningLevel::AllClear);
        assert_eq!(classify_forecast(&fc, 1.1), WarningLevel::Watch);
        assert_eq!(classify_forecast(&fc, 0.5), WarningLevel::Warning);
    }

    #[test]
    fn point_mass_superposition_collapses_to_the_single_forecast() {
        // With the whole posterior on one scenario the mixture mean is
        // that scenario's forecast and the between-scenario variance
        // vanishes, so the band equals the single-scenario band exactly.
        let batch = ForecastBatch {
            q_map: DMatrix::from_fn(3, 4, |i, j| (i + 1) as f64 * 0.5 + j as f64),
            q_std: vec![0.2, 0.3, 0.4],
            seconds: 0.0,
        };
        let matches: Vec<ScenarioMatch> = (0..4)
            .map(|j| ScenarioMatch {
                scenario: j,
                log_likelihood: if j == 2 { 0.0 } else { -1e9 },
                probability: if j == 2 { 1.0 } else { 0.0 },
            })
            .collect();
        let mix = superpose_forecasts(&matches, &batch);
        let single = batch.scenario(2);
        for i in 0..3 {
            assert!((mix.q_map[i] - single.q_map[i]).abs() < 1e-12);
            assert!((mix.q_std[i] - single.q_std[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn two_scenario_superposition_widens_the_band() {
        // An even split between two scenarios must land the mean halfway
        // and inflate the std by the between-scenario spread.
        let batch = ForecastBatch {
            q_map: DMatrix::from_fn(1, 2, |_, j| if j == 0 { 1.0 } else { 3.0 }),
            q_std: vec![0.1],
            seconds: 0.0,
        };
        let matches = [
            ScenarioMatch {
                scenario: 0,
                log_likelihood: 0.0,
                probability: 0.5,
            },
            ScenarioMatch {
                scenario: 1,
                log_likelihood: 0.0,
                probability: 0.5,
            },
        ];
        let mix = superpose_forecasts(&matches, &batch);
        assert!((mix.q_map[0] - 2.0).abs() < 1e-12);
        // var = 0.1² + (0.5·1 + 0.5·9 − 4) = 0.01 + 1.0
        assert!((mix.q_std[0] - 1.01f64.sqrt()).abs() < 1e-12);
    }
}
