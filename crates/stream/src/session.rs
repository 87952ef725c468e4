//! Per-stream session state: the time-major sample ring and the stream's
//! position on the window ladder.

use tsunami_core::Forecast;

/// Fixed-capacity, time-major buffer of arrived sensor samples.
///
/// The windowed operators act on *leading* blocks of the data vector
/// (data are ordered time-major, so the first `k·Nd` samples are exactly
/// the first `k` observation steps), which means no sample can ever be
/// evicted: the ring is preallocated at the full event horizon `Nd·Nt`
/// and fills monotonically. Pushes past the horizon are clamped — the
/// event is over; a longer record carries no further information for
/// this twin.
pub struct SampleRing {
    buf: Vec<f64>,
    filled: usize,
}

impl SampleRing {
    /// An empty ring holding up to `capacity` samples (`Nd·Nt`).
    pub fn new(capacity: usize) -> Self {
        SampleRing {
            buf: vec![0.0; capacity],
            filled: 0,
        }
    }

    /// Append arrived samples (time-major continuation of the stream).
    /// Returns how many were accepted; the remainder fell past the
    /// horizon and is dropped.
    pub fn push(&mut self, samples: &[f64]) -> usize {
        let take = samples.len().min(self.buf.len() - self.filled);
        self.buf[self.filled..self.filled + take].copy_from_slice(&samples[..take]);
        self.filled += take;
        take
    }

    /// Number of samples arrived so far.
    pub fn filled(&self) -> usize {
        self.filled
    }

    /// Full horizon capacity `Nd·Nt`.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// True once the whole horizon has arrived.
    pub fn is_full(&self) -> bool {
        self.filled == self.buf.len()
    }

    /// The leading `k` arrived samples (`k ≤ filled`).
    pub fn prefix(&self, k: usize) -> &[f64] {
        assert!(k <= self.filled, "prefix exceeds arrived samples");
        &self.buf[..k]
    }

    /// Empty the ring for reuse by a new event, keeping the allocation.
    /// Stale samples beyond the fill point are never read (every accessor
    /// is bounded by `filled`), so no zeroing is needed.
    pub fn clear(&mut self) {
        self.filled = 0;
    }
}

/// Warning classification from a forecast's 95% credible band against the
/// operator's wave-height threshold. Ordered by severity, and it
/// *tightens* as the observation window grows: the posterior std shrinks
/// monotonically with window length, so the band narrows and a session
/// graduates from straddling the threshold to a firm call.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum WarningLevel {
    /// Even the upper credible bound stays below the threshold everywhere.
    AllClear,
    /// The credible band straddles the threshold somewhere.
    Watch,
    /// The lower credible bound exceeds the threshold somewhere: the
    /// forecast is confident the wave tops the threshold.
    Warning,
}

impl std::fmt::Display for WarningLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.pad(match self {
            WarningLevel::AllClear => "all-clear",
            WarningLevel::Watch => "WATCH",
            WarningLevel::Warning => "WARNING",
        })
    }
}

/// One live observation stream: its arrived samples, ladder position,
/// sequential identification state, and latest online products.
pub struct StreamSession {
    /// Engine-assigned session id (index into the engine's session table).
    pub id: usize,
    /// Arrived samples, time-major.
    pub(crate) ring: SampleRing,
    /// Data entries per observation step (`Nd`).
    pub(crate) nd: usize,
    /// Ladder index of the widest window assimilated so far.
    pub(crate) window_idx: Option<usize>,
    /// Samples already absorbed into the identification state: the
    /// exact misfit accumulator, or the mode-space statistic
    /// `(‖d‖², a)`.
    pub(crate) scored: usize,
    /// Per-scenario accumulated squared misfit `Σ (d_i − s_ji)²` over the
    /// scored samples under exact identification. Empty when no bank is
    /// attached, and empty under mode-space identification: there the
    /// misfit is a pure function of `(data_energy, projection, scored)`
    /// and is materialized only when a warning transition or an engine
    /// query reads it, so a session holds no `B`-wide state.
    pub(crate) misfit: Vec<f64>,
    /// The running projection `a = Uᵀd` through the engine's one
    /// observation basis `U` — the ladder's shared basis or the attached
    /// [`tsunami_core::PodBank`]'s modes, equal bit for bit when both
    /// exist. Under mode-space identification it covers the scored
    /// samples and is identification's statistic; on a shared-basis
    /// ladder it is the fold the rung snapshots are cut from (clipped at
    /// the widest rung boundary when identification is exact). Empty
    /// when neither reads it.
    pub(crate) projection: Vec<f64>,
    /// Concatenated per-rung fold slots — the whole per-session lift
    /// input of every rung that does not read the whitened data: a
    /// goal-oriented rung's running state `z_w = R_wᵀ d_w`, or a
    /// shared-basis rung's snapshot `a_w = U_kᵀ d_k`, copied out of
    /// `projection` the moment the stream crosses that rung's boundary
    /// and frozen afterwards. Empty on a ladder of exact rungs only.
    pub(crate) fold: Vec<f64>,
    /// Samples already consumed by the fold stage.
    pub(crate) folded: usize,
    /// Whitened data `y = L⁻¹d` over the first `whitened` samples,
    /// ring-sized (empty unless the engine's ladder has exact rungs). A
    /// rung crossing whitens only the rows arrived since the last one;
    /// a plain tick whitens nothing.
    pub(crate) white: Vec<f64>,
    /// Samples already whitened into `white`. A pure function of the
    /// ring, so a rewind keeps it.
    pub(crate) whitened: usize,
    /// Running data energy `‖d‖²` over the scored samples, with its Kahan
    /// compensation term — accumulated across ticks, so compensated for
    /// the same long-horizon reason as the clean-energy prefix sums.
    pub(crate) data_energy: f64,
    pub(crate) data_energy_comp: f64,
    /// Slot generation, bumped every close. Inbox batches are stamped
    /// with the generation current at enqueue time and dropped at drain
    /// on mismatch, so a batch staged for a closed event can never leak
    /// into the next event reusing the slot (and its id).
    pub(crate) generation: u64,
    /// Latest forecast (with credible intervals).
    pub forecast: Option<Forecast>,
    /// `‖m_map‖₂` of the parameter inference behind the latest forecast
    /// (`None` when that rung ran none).
    pub m_norm: Option<f64>,
    /// Latest warning classification.
    pub level: WarningLevel,
    /// Whether the session is open (closed sessions sit on the engine's
    /// freelist awaiting reuse and are skipped by every tick stage).
    pub(crate) active: bool,
}

/// Per-session state lengths fixed by the engine's ladder and attached
/// banks: what a session is (re)opened with.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct SessionLayout {
    /// Misfit accumulator length (the bank width under exact
    /// identification, else 0).
    pub n_scenarios: usize,
    /// Running-projection length: the rank of the observation basis
    /// when the ladder folds through it or identification is mode-space,
    /// else 0.
    pub n_modes: usize,
    /// Concatenated fold-slot length.
    pub fold_len: usize,
    /// Whitened-data length (the ring capacity on a ladder with exact
    /// rungs, else 0).
    pub white_len: usize,
}

impl StreamSession {
    pub(crate) fn new(id: usize, capacity: usize, nd: usize, layout: SessionLayout) -> Self {
        let mut s = StreamSession {
            id,
            ring: SampleRing::new(capacity),
            nd,
            window_idx: None,
            scored: 0,
            misfit: Vec::new(),
            projection: Vec::new(),
            fold: Vec::new(),
            folded: 0,
            white: Vec::new(),
            whitened: 0,
            data_energy: 0.0,
            data_energy_comp: 0.0,
            generation: 0,
            forecast: None,
            m_norm: None,
            level: WarningLevel::AllClear,
            active: false,
        };
        s.reopen(layout);
        s
    }

    /// Reset a closed session for a fresh event, reusing the ring and
    /// misfit allocations instead of allocating new ones — the freelist
    /// half of the engine's session-eviction story. The generation is
    /// deliberately *not* reset: it was bumped at close, and keeping the
    /// new value is what invalidates inbox batches staged for the old
    /// event under the same id.
    pub(crate) fn reopen(&mut self, layout: SessionLayout) {
        debug_assert!(!self.active, "reopen of an open session");
        self.ring.clear();
        self.window_idx = None;
        self.scored = 0;
        self.lay_out(layout);
        self.folded = 0;
        self.whitened = 0;
        self.data_energy = 0.0;
        self.data_energy_comp = 0.0;
        self.forecast = None;
        self.m_norm = None;
        self.level = WarningLevel::AllClear;
        self.active = true;
    }

    /// Size the per-session state vectors to `layout`, zeroed, reusing
    /// their allocations.
    pub(crate) fn lay_out(&mut self, layout: SessionLayout) {
        for (v, len) in [
            (&mut self.misfit, layout.n_scenarios),
            (&mut self.projection, layout.n_modes),
            (&mut self.fold, layout.fold_len),
            (&mut self.white, layout.white_len),
        ] {
            v.clear();
            v.resize(len, 0.0);
        }
    }

    /// Fold ring rows `[i0, i1)` into the running data energy `‖d‖²`
    /// (compensated accumulation — see the field docs).
    pub(crate) fn accumulate_energy(&mut self, i0: usize, i1: usize) {
        let StreamSession {
            ring,
            data_energy,
            data_energy_comp,
            ..
        } = self;
        for &v in &ring.prefix(i1)[i0..i1] {
            let y = v * v - *data_energy_comp;
            let t = *data_energy + y;
            *data_energy_comp = (t - *data_energy) - y;
            *data_energy = t;
        }
    }

    /// True while the session is open (not returned to the freelist).
    pub fn is_open(&self) -> bool {
        self.active
    }

    /// Number of *complete* observation steps arrived (a trailing partial
    /// step waits in the ring until its remaining sensors report).
    pub fn steps(&self) -> usize {
        self.ring.filled() / self.nd
    }

    /// Total samples arrived so far.
    pub fn samples(&self) -> usize {
        self.ring.filled()
    }

    /// The mode-space identification statistic `(‖d‖², a, scored)`: the
    /// running data energy, the session's running projection `a = Uᵀd`,
    /// and the samples absorbed into both. Under
    /// [`crate::IdentifyBackend::ModeSpace`] every misfit read is
    /// [`crate::identify::score_group_pod`] over this statistic as a group
    /// of one ([`crate::StreamEngine::misfit_scores`]). Under exact
    /// identification it is no statistic: the energy stays 0 and the
    /// projection is the shared-basis ladder's fold, or empty.
    pub fn identification_statistic(&self) -> (f64, &[f64], usize) {
        (self.data_energy, &self.projection, self.scored)
    }

    /// The rank-sized per-rung fold slots, concatenated — empty when
    /// every rung of the engine's ladder is exact and whitened (the
    /// windowed path, an exact goal-oriented ladder).
    pub fn fold_state(&self) -> &[f64] {
        &self.fold
    }

    /// Ladder index of the widest window assimilated so far (`None`
    /// before the first boundary crossing).
    pub fn window(&self) -> Option<usize> {
        self.window_idx
    }

    /// True once the stream has delivered the whole horizon.
    pub fn is_complete(&self) -> bool {
        self.ring.is_full()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_fills_monotonically_and_clamps_at_horizon() {
        let mut r = SampleRing::new(10);
        assert_eq!(r.push(&[1.0, 2.0, 3.0]), 3);
        assert_eq!(r.filled(), 3);
        assert_eq!(r.push(&[4.0; 6]), 6);
        assert!(!r.is_full());
        // 9 filled, capacity 10: only one of the next three fits.
        assert_eq!(r.push(&[5.0, 6.0, 7.0]), 1);
        assert!(r.is_full());
        assert_eq!(r.push(&[8.0]), 0);
        assert_eq!(r.prefix(4), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn session_counts_complete_steps_only() {
        let mut s = StreamSession::new(0, 12, 4, SessionLayout::default());
        s.ring.push(&[0.5; 6]);
        assert_eq!(s.samples(), 6);
        assert_eq!(s.steps(), 1, "partial second step must not count");
        s.ring.push(&[0.5; 2]);
        assert_eq!(s.steps(), 2);
    }

    #[test]
    fn warning_levels_order_by_severity() {
        assert!(WarningLevel::AllClear < WarningLevel::Watch);
        assert!(WarningLevel::Watch < WarningLevel::Warning);
    }
}
