//! One shard's tick: drain → identify → fold → lift → classify, over the
//! [`Ladder`] views (see the [`crate::engine`] module docs for what each
//! stage does and why the stages are batched the way they are).

use crate::engine::{
    classify_band, forecast_band, scenario_posterior, IdentifyBackend, StreamConfig, TickMetrics,
    WarningTransition,
};
use crate::identify;
use crate::inbox::Inbox;
use crate::ladder::{Infer, Ladder, RungView, Source, TickPath};
use crate::session::StreamSession;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;
use tsunami_core::{infer_window_batch, DigitalTwin, Forecast, PodBank, ScenarioBank};
use tsunami_linalg::DMatrix;
use tsunami_obs::{Histogram, Registry, Stopwatch};

/// Cached per-stage span histogram handles into the engine's
/// [`Registry`], resolved once at construction so ticks record through
/// lock-free atomics without touching the registry's name table.
pub(crate) struct TickSpans {
    drain: Arc<Histogram>,
    identify: Arc<Histogram>,
    assimilate: Arc<Histogram>,
    classify: Arc<Histogram>,
    pub total: Arc<Histogram>,
}

impl TickSpans {
    pub fn new(reg: &Registry) -> Self {
        TickSpans {
            drain: reg.histogram("stream.tick.drain"),
            identify: reg.histogram("stream.tick.identify"),
            assimilate: reg.histogram("stream.tick.assimilate"),
            classify: reg.histogram("stream.tick.classify"),
            total: reg.histogram("stream.tick.total"),
        }
    }
}

/// Per-shard assimilation scratch, reused across ticks so steady-state
/// ticks allocate nothing: the gathered lift or inference input
/// (`rows × b`: a segment of whitened data, a block of fold slots, or a
/// raw window), one lifted segment `nq × b`, the reduced-inference block
/// `(Nm·Nt) × b`, and the `B`-wide misfit a
/// mode-space warning transition materializes for its audit record
/// (sized at the first transition). The block vecs round-trip through
/// [`DMatrix::from_vec`] / [`DMatrix::into_vec`] each chunk
/// ([`arena_block`]).
#[derive(Default)]
pub(crate) struct ShardArena {
    panel: Vec<f64>,
    q_block: Vec<f64>,
    m_block: Vec<f64>,
    misfit: Vec<f64>,
}

impl ShardArena {
    pub fn bytes(&self) -> usize {
        (self.panel.capacity()
            + self.q_block.capacity()
            + self.m_block.capacity()
            + self.misfit.capacity())
            * std::mem::size_of::<f64>()
    }
}

/// Take `buf` out of the arena as a zeroed `rows × cols` block: `clear` +
/// `resize` within retained capacity never reallocates once the
/// high-water chunk shape has been seen. Hand it back with `into_vec`.
fn arena_block(buf: &mut Vec<f64>, rows: usize, cols: usize) -> DMatrix {
    let mut v = std::mem::take(buf);
    v.clear();
    v.resize(rows * cols, 0.0);
    DMatrix::from_vec(rows, cols, v)
}

/// One session shard: its slice of the session table, freelist, and
/// lock-free inbox. Global id `id` lives in shard `id % shards` at local
/// slot `id / shards`.
pub(crate) struct Shard {
    /// This shard's index (fixed at construction; names its span
    /// histogram and keeps the parallel fan-out self-identifying).
    idx: usize,
    pub sessions: Vec<StreamSession>,
    /// Local slots of closed sessions awaiting reuse.
    pub free: Vec<usize>,
    pub inbox: Inbox,
    /// Partials of the most recent tick (scratch; merged by
    /// [`crate::StreamEngine::tick`], which also fills the pool and
    /// wall-clock fields).
    pub last: TickMetrics,
    /// Largest dense block this shard ever materialized (elements).
    pub peak_panel_elems: usize,
    /// Reusable assimilation scratch (see [`ShardArena`]).
    pub arena: ShardArena,
    /// Warning transitions classified by this shard's current tick;
    /// merged shard-major into the engine's audit ring after the barrier
    /// (capacity retained across ticks).
    pub audit_scratch: Vec<WarningTransition>,
}

impl Shard {
    pub fn new(idx: usize) -> Self {
        Shard {
            idx,
            sessions: Vec::new(),
            free: Vec::new(),
            inbox: Inbox::new(),
            last: TickMetrics::default(),
            peak_panel_elems: 0,
            arena: ShardArena::default(),
            audit_scratch: Vec::new(),
        }
    }
}

/// Read-only per-tick context shared by every shard's local tick.
pub(crate) struct TickCtx<'t> {
    pub twin: &'t DigitalTwin,
    pub ladder: &'t Ladder<'t>,
    pub bank: Option<&'t ScenarioBank>,
    /// The attached POD bank under mode-space identification; `None`
    /// under exact identification, which never reads it.
    pub pod: Option<&'t PodBank>,
    pub sq_prefix: &'t [f64],
    pub config: StreamConfig,
    /// Mode-space identification and a shared-basis ladder fold the
    /// drained rows into the *same* per-session projection
    /// ([`crate::StreamEngine`]'s no-double-fold configuration).
    pub shared_fold: bool,
    pub n_shards: usize,
    /// Per-stage span histograms (shared across shards; recording is
    /// lock-free).
    pub spans: &'t TickSpans,
    /// Per-rung assimilation span histograms, indexed by rung.
    pub rung_spans: &'t [Arc<Histogram>],
    /// Per-shard whole-tick span histograms, indexed by shard.
    pub shard_spans: &'t [Arc<Histogram>],
    /// Snapshot of [`tsunami_obs::enabled`] for this tick: when false,
    /// shards skip every clock read and record.
    pub obs_on: bool,
    /// 0-based tick index stamped into audit records.
    pub tick_no: u64,
}

/// One shard's tick, against this shard's sessions only. Runs on a pool
/// worker when the engine ticks shards in parallel (nested bulk
/// operations inside the batched window math then stay serial on that
/// worker), or inline on the caller for `shards = 1`.
pub(crate) fn tick_shard(shard: &mut Shard, ctx: &TickCtx<'_>) {
    let mut p = TickMetrics::default();
    shard.audit_scratch.clear();
    // Span clock: off, it never reads the system clock and every lap is
    // 0; stage accumulators then stay 0 and nothing is recorded.
    let mut sw = Stopwatch::start(ctx.obs_on);

    // 1. Drain the lock-free inbox in arrival order. Batches whose
    //    generation stamp no longer matches their slot — the session was
    //    closed, or closed *and reopened for a new event*, since enqueue
    //    — are dropped; horizon clamping happens in the ring exactly as
    //    for direct pushes.
    for (id, generation, samples) in shard.inbox.drain() {
        let s = &mut shard.sessions[id / ctx.n_shards];
        if s.active && s.generation == generation {
            p.samples_drained += s.ring.push(&samples);
        }
    }
    let drain_ns = sw.lap();

    if let Some(bank) = ctx.bank {
        identify_arrived(&mut shard.sessions, ctx, bank, &mut p);
    }
    let identify_ns = sw.lap();

    fold_arrived(&mut shard.sessions, ctx, &mut p);
    let (assim_ns, classify_ns) = assimilate_crossed(shard, ctx, &mut p, &mut sw);

    if ctx.obs_on {
        ctx.spans.drain.record(drain_ns);
        ctx.spans.identify.record(identify_ns);
        ctx.spans.assimilate.record(assim_ns);
        ctx.spans.classify.record(classify_ns);
        ctx.shard_spans[shard.idx].record(drain_ns + identify_ns + assim_ns + classify_ns);
    }
    shard.peak_panel_elems = shard.peak_panel_elems.max(p.peak_panel_elems);
    shard.last = p;
}

/// Bucket the open sessions with rows beyond their `cursor` by the
/// unconsumed range `(cursor, filled)`. Sessions whose ranges coincide
/// (the common lockstep case) are then processed together, so the shared
/// operand — clean block, POD basis, a rung's right factor — is streamed
/// once per tick rather than once per session; stragglers fall back to a
/// group of one.
fn bucket_by_range(
    sessions: &mut [StreamSession],
    cursor: impl Fn(&StreamSession) -> usize,
) -> BTreeMap<(usize, usize), Vec<&mut StreamSession>> {
    let mut buckets: BTreeMap<(usize, usize), Vec<&mut StreamSession>> = BTreeMap::new();
    for s in sessions.iter_mut().filter(|s| s.active) {
        let (from, filled) = (cursor(s), s.ring.filled());
        if from < filled {
            buckets.entry((from, filled)).or_default().push(s);
        }
    }
    buckets
}

/// 2. Sequential identification of newly arrived samples against the
///    bank.
fn identify_arrived(
    sessions: &mut [StreamSession],
    ctx: &TickCtx<'_>,
    bank: &ScenarioBank,
    p: &mut TickMetrics,
) {
    let buckets = bucket_by_range(sessions, |s| s.scored);
    match ctx.config.identify {
        IdentifyBackend::Exact => {
            // One grouped rows × scenarios GEMM per bucket against
            // the full clean block; misfits accumulate per range.
            let clean = bank.clean_observations();
            for ((i0, i1), members) in buckets {
                let mut group: Vec<(&[f64], &mut [f64])> = members
                    .into_iter()
                    .map(|s| {
                        s.scored = i1;
                        (s.ring.prefix(i1), &mut s.misfit[..])
                    })
                    .collect();
                identify::score_group_gemm(clean, ctx.sq_prefix, i0, i1, &mut group);
                p.samples_scored += (i1 - i0) * group.len();
            }
        }
        IdentifyBackend::ModeSpace => {
            // One grouped pass per bucket: fold the new rows into each
            // session's running projection a = Uᵀd (and data energy
            // ‖d‖², compensated). That statistic is all identification
            // keeps; the B misfits are a pure function of it and are
            // materialized only when a transition or a query reads them
            // (`read_misfit`), so a plain tick does no B-wide work.
            let pod = ctx.pod.expect("checked at tick start");
            // Shared fold: the ladder's rung inputs are snapshots of
            // this same projection, so the fold below also cuts them —
            // every drained row folds exactly once per tick.
            let snapshots: &[RungView<'_>] = if ctx.shared_fold {
                &ctx.ladder.rungs
            } else {
                &[]
            };
            for ((i0, i1), mut members) in buckets {
                fold_through_basis(pod.modes(), snapshots, &mut members, i0, i1);
                for s in members.iter_mut() {
                    s.scored = i1;
                    if ctx.shared_fold {
                        s.folded = i1;
                    }
                    s.accumulate_energy(i0, i1);
                }
                p.samples_projected += (i1 - i0) * members.len();
                p.samples_scored += (i1 - i0) * members.len();
            }
        }
    }
}

/// Fold ring rows `[i0, i1)` of every member through the engine's
/// observation basis into the session's running projection. The fold is
/// segmented at the boundaries of `snapshots` rungs inside the range,
/// and the projection is copied into a rung's fold slot as its boundary
/// is crossed — which is the goal fold with `R_w = U[0..k_w]`, done once
/// for all rungs instead of once per rung. The segmentation depends only
/// on the ladder, so the shared and non-shared folds produce
/// bitwise-identical slots. With no snapshot rungs the loop degenerates
/// to a single-call fold.
fn fold_through_basis(
    basis: &DMatrix,
    snapshots: &[RungView<'_>],
    members: &mut [&mut StreamSession],
    i0: usize,
    i1: usize,
) {
    let mut cuts: Vec<usize> = snapshots
        .iter()
        .map(|rung| rung.k)
        .filter(|&k| k > i0 && k <= i1)
        .collect();
    cuts.push(i1);
    cuts.dedup();
    let mut prev = i0;
    for &cut in &cuts {
        if cut > prev {
            let mut group: Vec<(&[f64], &mut [f64])> = members
                .iter_mut()
                .map(|s| (s.ring.prefix(cut), &mut s.projection[..]))
                .collect();
            identify::project_group(basis, prev, cut, &mut group);
            prev = cut;
        }
        for rung in snapshots.iter().filter(|rung| rung.k == cut) {
            let Source::Snapshot { off } = rung.source else {
                continue;
            };
            for s in members.iter_mut() {
                s.fold[off..off + rung.rows].copy_from_slice(&s.projection);
            }
        }
    }
}

/// 3. Fold newly arrived samples into the rank-sized lift inputs of the
///    ladder's rungs. Nothing to do on the windowed path (every rung
///    whitens at its crossing instead), or when identification already
///    cut the snapshots from the shared projection.
fn fold_arrived(sessions: &mut [StreamSession], ctx: &TickCtx<'_>, p: &mut TickMetrics) {
    let ladder = ctx.ladder;
    if ladder.path == TickPath::Windowed || ctx.shared_fold {
        return;
    }
    for ((i0, i1), mut members) in bucket_by_range(sessions, |s| s.folded) {
        if let Some(basis) = ladder.basis {
            // Rows beyond the widest rung carry no assimilation
            // information and are clipped, not folded.
            let max_k = ladder.rungs.last().map_or(0, |rung| rung.k);
            let (i0w, i1w) = (i0.min(max_k), i1.min(max_k));
            if i0w < i1w {
                fold_through_basis(basis, &ladder.rungs, &mut members, i0w, i1w);
            }
            p.samples_projected += (i1w - i0w) * members.len();
        } else {
            // Each rung's right factor streams once per bucket, over the
            // range clipped to the rung's window (which also skips rungs
            // the bucket has already fully folded).
            for rung in &ladder.rungs {
                let Source::Own { right, off } = rung.source else {
                    continue;
                };
                let (i0w, i1w) = (i0.min(rung.k), i1.min(rung.k));
                if i0w >= i1w {
                    continue;
                }
                let mut group: Vec<(&[f64], &mut [f64])> = members
                    .iter_mut()
                    .map(|s| (s.ring.prefix(i1w), &mut s.fold[off..off + rung.rows]))
                    .collect();
                identify::project_group(right, i0w, i1w, &mut group);
            }
            p.samples_folded += (i1 - i0) * members.len();
        }
        for s in members.iter_mut() {
            s.folded = i1;
        }
    }
}

/// 4–5. Group the sessions that crossed a new rung, by rung, then lift →
///    infer → classify each group in bounded chunks over the shard's
///    reusable scratch arena. Returns the (assimilate, classify) span
///    totals; the fold stage and the grouping count toward assimilation.
fn assimilate_crossed(
    shard: &mut Shard,
    ctx: &TickCtx<'_>,
    p: &mut TickMetrics,
    sw: &mut Stopwatch,
) -> (u64, u64) {
    let Shard {
        sessions,
        arena,
        audit_scratch,
        ..
    } = shard;
    let ladder = ctx.ladder;
    let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (idx, s) in sessions.iter().enumerate().filter(|(_, s)| s.active) {
        if let Some(w) = ladder.windows.iter().rposition(|&wl| wl <= s.steps()) {
            if s.window_idx.is_none_or(|cur| w > cur) {
                groups.entry(w).or_default().push(idx);
            }
        }
    }
    let mut assim_ns = sw.lap();
    let mut classify_ns = 0u64;

    for (w, members) in groups {
        let rung = &ladder.rungs[w];
        for chunk in members.chunks(ctx.config.chunk) {
            let b = chunk.len();
            let t0 = Instant::now();
            lift(sessions, chunk, ladder, w, arena, p);
            let fc_seconds = t0.elapsed().as_secs_f64() / b as f64;
            let m_block = infer(sessions, chunk, ctx, w, arena, p);
            let work_ns = sw.lap();
            assim_ns += work_ns;

            for (c, &idx) in chunk.iter().enumerate() {
                let s = &mut sessions[idx];
                scatter_forecast(s, rung.q_std, fc_seconds);
                let band = forecast_band(s.forecast.as_ref().expect("forecast just lifted"));
                let prev = s.level;
                s.level = classify_band(band, ctx.config.warn_threshold);
                if s.level != prev {
                    let top_scenario = ctx.bank.and_then(|bk| {
                        p.misfits_materialized += usize::from(ctx.pod.is_some());
                        let misfit = read_misfit(s, ctx.pod, ctx.sq_prefix, &mut arena.misfit);
                        // The best match, the first on ties (as the stable
                        // sort of `ranked_matches` orders them).
                        scenario_posterior(misfit, bk.noise_std())
                            .into_iter()
                            .reduce(|best, m| {
                                if m.log_likelihood > best.log_likelihood {
                                    m
                                } else {
                                    best
                                }
                            })
                            .map(|m| (m.scenario, m.probability))
                    });
                    audit_scratch.push(WarningTransition {
                        session: s.id,
                        tick: ctx.tick_no,
                        rung: w,
                        from: prev,
                        to: s.level,
                        band_lo: band.0,
                        band_hi: band.1,
                        top_scenario,
                        path: ladder.path,
                    });
                }
                s.m_norm = m_block.as_ref().map(|m| {
                    let sq: f64 = (0..m.nrows()).map(|row| m[(row, c)] * m[(row, c)]).sum();
                    sq.sqrt()
                });
                s.window_idx = Some(w);
            }
            let cls_ns = sw.lap();
            classify_ns += cls_ns;
            if ctx.obs_on {
                ctx.rung_spans[w].record(work_ns + cls_ns);
            }
            if let (Infer::Reduced(_), Some(m)) = (&rung.infer, m_block) {
                arena.m_block = m.into_vec();
            }
            p.panels += 1;
            p.sessions_assimilated += b;
        }
    }
    (assim_ns, classify_ns)
}

/// Gather one session's lift input per column of `x`.
fn gather<'s>(x: &mut DMatrix, inputs: impl Iterator<Item = &'s [f64]>) {
    for (c, input) in inputs.enumerate() {
        for (row, &v) in input.iter().enumerate() {
            x[(row, c)] = v;
        }
    }
}

/// The lift input of rung view `seg` for one session: the rung's segment
/// of the whitened data on an exact rung, else its fold slot.
fn lift_input<'s>(seg: &RungView<'_>, s: &'s StreamSession) -> &'s [f64] {
    match seg.source {
        Source::Whitened { start } => &s.white[start..start + seg.rows],
        Source::Own { off, .. } | Source::Snapshot { off } => &s.fold[off..off + seg.rows],
    }
}

/// Lift a chunk of sessions crossing onto rung `w` into their forecasts
/// in place, by the ladder's one lift rule: each segment lifted, in
/// ascending order, is `c = L_j X_j` (a fresh GEMM from zero) added into
/// the forecast column by column.
///
/// An exact rung lifts the segments above the session's previous rung
/// onto its previous forecast (from `q = 0` without one). Members are
/// split by (previous rung, whitened cursor) — one split in lockstep —
/// and each split first whitens rows `[cursor, k_w)` of its members'
/// data in one forward sweep (the factor's range kernel, each factor row
/// loaded once per panel of sessions) — the same operations in the same
/// order as [`tsunami_core::RungLadder::forecast_batch`], so a session
/// that jumps rungs lands bit for bit where one that walks them does. A
/// reduced rung is the one-segment case: its fold slot, lifted from
/// `q = 0`.
fn lift(
    sessions: &mut [StreamSession],
    chunk: &[usize],
    ladder: &Ladder<'_>,
    w: usize,
    arena: &mut ShardArena,
    p: &mut TickMetrics,
) {
    let rung = &ladder.rungs[w];
    let (k, nq) = (rung.k, rung.lift.nrows());
    let exact = matches!(rung.source, Source::Whitened { .. });
    let mut splits: BTreeMap<(Option<usize>, usize), Vec<usize>> = BTreeMap::new();
    for &i in chunk {
        let s = &sessions[i];
        let key = if exact {
            (s.window_idx, s.whitened.min(k))
        } else {
            (None, k)
        };
        splits.entry(key).or_default().push(i);
    }
    for ((from, cursor), idx) in splits {
        let mut group = pick(sessions, &idx);
        if cursor < k {
            let mut rows: Vec<&mut [f64]> = group
                .iter_mut()
                .map(|s| {
                    s.white[cursor..k].copy_from_slice(&s.ring.prefix(k)[cursor..k]);
                    s.whitened = k;
                    &mut s.white[..k]
                })
                .collect();
            let l = ladder.whitening.expect("exact rungs are whitened");
            l.forward_range(cursor, k, &mut rows);
        }
        if from.is_none() {
            for s in group.iter_mut() {
                let fc = s.forecast.get_or_insert_with(|| Forecast {
                    q_map: Vec::new(),
                    q_std: Vec::new(),
                    seconds: 0.0,
                });
                fc.q_map.clear();
                fc.q_map.resize(nq, 0.0);
            }
        }
        let segs = if exact {
            &ladder.rungs[from.map_or(0, |c| c + 1)..=w]
        } else {
            std::slice::from_ref(rung)
        };
        let b = group.len();
        for seg in segs {
            let mut x = arena_block(&mut arena.panel, seg.rows, b);
            gather(&mut x, group.iter().map(|s| lift_input(seg, s)));
            let mut c = arena_block(&mut arena.q_block, nq, b);
            seg.lift.matmul_into(&x, &mut c);
            for (col, s) in group.iter_mut().enumerate() {
                let q = &mut s.forecast.as_mut().expect("forecast zeroed above").q_map;
                for (r, v) in q.iter_mut().enumerate() {
                    *v += c[(r, col)];
                }
            }
            p.peak_panel_elems = p.peak_panel_elems.max(seg.rows * b).max(nq * b);
            arena.panel = x.into_vec();
            arena.q_block = c.into_vec();
        }
    }
}

/// The chunk's parameter inference, one column per session, where the
/// rung has an operator for it: the batched leading-block solve on the
/// gathered raw window, or the reduced `M̃_w` GEMM on the gathered fold
/// slots (into the arena's `m_block`, which the caller hands back).
fn infer(
    sessions: &[StreamSession],
    chunk: &[usize],
    ctx: &TickCtx<'_>,
    w: usize,
    arena: &mut ShardArena,
    p: &mut TickMetrics,
) -> Option<DMatrix> {
    let rung = &ctx.ladder.rungs[w];
    let b = chunk.len();
    let rows = match rung.infer {
        Infer::None => return None,
        Infer::Window => rung.k,
        Infer::Reduced(_) => rung.rows,
    };
    let mut x = arena_block(&mut arena.panel, rows, b);
    let inputs = chunk.iter().map(|&i| match rung.infer {
        Infer::Reduced(_) => lift_input(rung, &sessions[i]),
        _ => sessions[i].ring.prefix(rows),
    });
    gather(&mut x, inputs);
    let m = match rung.infer {
        Infer::Reduced(m_map) => {
            let mut m = arena_block(&mut arena.m_block, m_map.nrows(), b);
            m_map.matmul_into(&x, &mut m);
            m
        }
        _ => {
            // The windowed inference internally zero-pads the panel to
            // the full horizon (`(Nd·Nt) × b`) before the FFT pass; that
            // block is part of the tick's real working set too.
            p.peak_panel_elems = p.peak_panel_elems.max(ctx.twin.n_data() * b);
            let (p1, p2) = (&ctx.twin.phase1, &ctx.twin.phase2);
            infer_window_batch(p1, p2, &x, ctx.ladder.windows[w]).m_map
        }
    };
    arena.panel = x.into_vec();
    p.peak_panel_elems = p.peak_panel_elems.max(m.nrows() * b);
    Some(m)
}

/// The sessions at ascending local indices `idx` (non-empty), mutably,
/// scanning only the span they cover.
fn pick<'s>(sessions: &'s mut [StreamSession], idx: &[usize]) -> Vec<&'s mut StreamSession> {
    let (lo, hi) = (idx[0], idx[idx.len() - 1]);
    let mut want = idx.iter().copied().peekable();
    sessions[lo..=hi]
        .iter_mut()
        .zip(lo..)
        .filter_map(|(s, i)| want.next_if_eq(&i).map(|_| s))
        .collect()
}

/// Finish the session's lifted forecast in place: the rung's std and the
/// per-session lift time. The std vector is sized by the first
/// assimilation and reused afterwards, so steady-state ticks allocate
/// nothing here.
fn scatter_forecast(s: &mut StreamSession, q_std: &[f64], seconds: f64) {
    let fc = s.forecast.as_mut().expect("forecast just lifted");
    fc.q_std.clear();
    fc.q_std.extend_from_slice(q_std);
    fc.seconds = seconds;
}

/// The `B` misfits a decision or query reads: the exact accumulator
/// as-is, or — under mode-space identification (`pod` given) —
/// materialized into `buf` from the session's identification statistic
/// `(‖d‖², a, scored)` ([`StreamSession::identification_statistic`]):
/// [`identify::score_group_pod`] over a group of one. Every read of the
/// same statistic is this one fixed computation, so all of them agree
/// bit for bit.
pub(crate) fn read_misfit<'r>(
    s: &'r StreamSession,
    pod: Option<&PodBank>,
    sq_prefix: &[f64],
    buf: &'r mut Vec<f64>,
) -> &'r [f64] {
    let Some(pod) = pod else {
        return &s.misfit;
    };
    let (dd, a, scored) = s.identification_statistic();
    buf.resize(pod.len(), 0.0);
    identify::score_group_pod(pod.mode_coeffs(), sq_prefix, scored, &mut [(dd, a, buf)]);
    buf
}
