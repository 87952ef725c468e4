//! Streaming assimilation engine: many concurrent observation streams,
//! micro-batched through one rung-operator tick path.
//!
//! The paper's defining constraint is *real time*: pressure data arrive
//! sensor sample by sensor sample, and the forecast must sharpen as the
//! observation window grows. The goal-oriented companion work
//! (arXiv:2501.14911) states the online phase in its general form —
//! factor each window's data-to-QoI operator `T_w ≈ L_w R_wᵀ` offline,
//! fold `z += R_wᵀ d` as data arrive, lift `q = L_w z` on demand, carry
//! an exact Frobenius bound — and Nomura et al. (arXiv:2407.03631) show
//! that sequential Bayesian update against a database of precomputed
//! scenarios is the right shape for live event identification. This
//! crate drives *live, partially observed, concurrent* streams through
//! those precomputed operators:
//!
//! - [`StreamSession`] holds one stream's state: the time-major ring of
//!   arrived sensor samples, its position on the window ladder, its
//!   identification state (the accumulated per-scenario misfit, or the
//!   mode-space statistic it is materialized from), its rank-sized fold
//!   state, and its latest forecast/warning.
//! - [`StreamEngine`] accepts [`StreamEngine::push`] events (or lock-free
//!   [`StreamEngine::enqueue`] calls from concurrent producer threads)
//!   and, on each [`StreamEngine::tick`], runs drain → identify → fold →
//!   lift → classify: sessions that crossed the same window rung are
//!   gathered into one block per segment and lifted by one rule — a
//!   fresh GEMM added into the forecasts — instead of one operator
//!   application per session.
//! - The engine is constructed on one [`tsunami_core::RungLadder`]
//!   ([`StreamEngine::new`]), and that ladder *is* the path
//!   ([`TickPath`]): the exact ladder of `RungLadder::build` (whitens
//!   the rows that arrived since the last rung and lifts only the new
//!   segments, exact), an SVD-compressed ladder of
//!   `RungLadder::compress` (per-rung right factors), or a ladder over a
//!   shared POD basis from `RungLadder::project` (every row folds once
//!   for all rungs). Truncated ranks carry exactly computed per-rung
//!   Frobenius bounds certified down to the warning decision boundary.
//! - Sessions are sharded by id across [`StreamConfig::shards`] shards,
//!   each with its own session table, freelist, and inbox; a tick fans
//!   the shards out across the persistent rayon-shim worker pool with one
//!   barrier per tick, and results are invariant in the shard count bit
//!   for bit: one per-stream cross-term arithmetic in identification and
//!   the folds, and a columnwise lift.
//! - Sessions are assimilated in bounded panels of at most
//!   [`StreamConfig::chunk`] columns, so the working set stays
//!   `O(Nd·Nt · chunk)` no matter how many thousands of streams are live —
//!   the engine never materializes an `(Nd·Nt) × B` block.
//! - With a [`tsunami_core::ScenarioBank`] attached, newly arrived
//!   samples sequentially update a per-scenario log-likelihood via the
//!   blocked `rows × scenarios` GEMM kernels of [`identify`] (so banks of
//!   10³+ scenarios stay cheap), yielding a ranked scenario match
//!   ([`ScenarioMatch`]) whose posterior sharpens as the window grows,
//!   alongside a [`WarningLevel`] classification from the forecast's 95%
//!   credible band that tightens the same way.
//! - With a [`tsunami_core::PodBank`] also attached
//!   ([`StreamEngine::with_pod`]) and [`IdentifyBackend::ModeSpace`]
//!   selected, identification runs in POD mode space: a tick only folds
//!   arrived rows into the session's one `r`-dimensional running
//!   projection ([`identify::project_group`]), and the `B` misfits are
//!   materialized from it at `r × B` cost only when a warning transition
//!   or a query ([`StreamEngine::ranked_matches`],
//!   [`StreamEngine::misfit_scores`]) reads them
//!   ([`identify::score_group_pod`]); sessions hold no `B`-wide state.
//!   The exact GEMM is kept as the oracle path. An engine has one
//!   observation basis, so on a mode-space ladder over the same basis
//!   that projection *is* the ladder's fold — each row is folded once per
//!   tick — and a session never holds two. The identification
//!   posterior also drives a Fujita-style posterior-weighted
//!   **superposition forecast** ([`superpose_forecasts`] /
//!   [`StreamEngine::superposed_forecast`]) that mixes the bank's
//!   precomputed forecasts — honest credible bands while identification
//!   is still ambiguous, and better point forecasts than any single
//!   best-fit scenario for events between bank members.
//! - [`TickMetrics`] / [`EngineMetrics`] record per-tick latency,
//!   throughput, the peak materialized panel (per shard), and the
//!   persistent-pool dispatch counters ([`rayon::pool_stats`] deltas).
//! - Every engine owns a [`tsunami_obs::Registry`]
//!   ([`StreamEngine::registry`]) its ticks record per-stage, per-shard,
//!   and per-rung span histograms into, plus a bounded warning audit ring
//!   ([`StreamEngine::audit`]) of [`WarningTransition`] records — see the
//!   [`engine`] module docs for the naming scheme and the `OBS=off` kill
//!   switch.

pub mod engine;
pub mod identify;
mod inbox;
mod ladder;
pub mod session;
mod tick;

pub use engine::{
    classify_band, classify_forecast, forecast_band, superpose_forecasts, EngineMetrics,
    IdentifyBackend, ScenarioMatch, StreamConfig, StreamEngine, TickMetrics, WarningTransition,
};
pub use ladder::TickPath;
pub use session::{SampleRing, StreamSession, WarningLevel};
