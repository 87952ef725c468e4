//! The offline build: configuration → everything the online workloads
//! serve from, each stage timed and (in the traced pass) wrapped in a span.

use crate::alloc;
use crate::gen::{self, BANK_WIDTH, NOISE_STD, PDE_SCENARIOS, RANK, WINDOWS};
use crate::report::Metrics;
use crate::trace::Tracer;
use std::time::Instant;
use tsunami_core::{
    DigitalTwin, GoalLadder, GoalOptions, ModeSpaceLadder, ModeSpaceOptions, Phase1, Phase2,
    Phase3, PodBank, ScenarioBank, SpaceTimePrior, WindowedForecaster,
};
use tsunami_hpc::TimerRegistry;

/// Which artefacts beyond the twin (Phases 1–3) a workload serves from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Needs {
    pub bank: bool,
    pub pod: bool,
    pub window: bool,
    pub goal: bool,
    pub modespace: bool,
}

impl Needs {
    pub const TWIN: Needs = Needs {
        bank: false,
        pod: false,
        window: false,
        goal: false,
        modespace: false,
    };
    pub const ALL: Needs = Needs {
        bank: true,
        pod: true,
        window: true,
        goal: true,
        modespace: true,
    };

    /// The POD compression is built for its own sake or for the
    /// mode-space ladder, which is built on its modes.
    fn builds_pod(self) -> bool {
        self.pod || self.modespace
    }

    /// The bank likewise, or for the POD compression of it.
    fn builds_bank(self) -> bool {
        self.bank || self.builds_pod()
    }
}

/// Stage names; also the stems of the `core.*.busy_s` per-layer metrics.
pub const SOLVER: &str = "core.solver";
pub const PHASE1: &str = "core.phase1";
pub const PHASE2: &str = "core.phase2";
pub const PHASE3: &str = "core.phase3";
pub const BANK: &str = "core.bank.generate";
pub const POD: &str = "core.pod.compress";
pub const WINDOW: &str = "core.window.build";
pub const GOAL: &str = "core.goal.build";
pub const MODESPACE: &str = "core.modespace.build";

/// Everything the offline side produces.
pub struct Artefacts {
    pub twin: DigitalTwin,
    /// 32 PDE scenarios widened to 1024 columns.
    pub bank: Option<ScenarioBank>,
    pub pod: Option<PodBank>,
    pub window: Option<WindowedForecaster>,
    pub goal: Option<GoalLadder>,
    pub modespace: Option<ModeSpaceLadder>,
    /// Measured wall seconds of each stage that ran, in build order.
    pub stages: Vec<(&'static str, f64)>,
    /// Heap high-water mark of the build.
    pub build_peak_bytes: usize,
}

impl Artefacts {
    /// Cold build of the twin and of whatever `needs` names. `seed` drives
    /// the bank family and its blends.
    pub fn build(needs: Needs, seed: u64, tr: &Tracer) -> Artefacts {
        alloc::reset_peak();
        let mut stages: Vec<(&'static str, f64)> = Vec::new();
        let mut stage =
            |name: &'static str, t0: Instant| stages.push((name, t0.elapsed().as_secs_f64()));

        let cfg = gen::k1024_config();
        let timers = TimerRegistry::new();

        let t0 = Instant::now();
        let solver = tr.span(SOLVER, || cfg.build_solver());
        let spatial_prior = cfg.build_prior();
        stage(SOLVER, t0);

        let t0 = Instant::now();
        let phase1 = tr.span(PHASE1, || Phase1::build(&solver, &timers));
        stage(PHASE1, t0);

        let t0 = Instant::now();
        let phase2 = tr.span(PHASE2, || {
            Phase2::build(&phase1, &spatial_prior, NOISE_STD, &timers)
        });
        stage(PHASE2, t0);

        let t0 = Instant::now();
        let phase3 = tr.span(PHASE3, || Phase3::build(&phase1, &phase2, &timers));
        stage(PHASE3, t0);

        // The same assembly as `DigitalTwin::offline`, spelled out so each
        // phase gets its own span and stage time.
        let prior = SpaceTimePrior::new(cfg.build_prior(), solver.grid.nt_obs);
        let twin = DigitalTwin {
            config: cfg.clone(),
            solver,
            prior,
            noise_std: NOISE_STD,
            phase1,
            phase2,
            phase3,
            timers,
        };

        let bank = needs.builds_bank().then(|| {
            let t0 = Instant::now();
            let bank = tr.span(BANK, || {
                let specs = ScenarioBank::family(&cfg, PDE_SCENARIOS, seed);
                let base = ScenarioBank::generate(&cfg, &twin.solver, &specs);
                gen::widen_bank(&base, BANK_WIDTH, seed)
            });
            stage(BANK, t0);
            bank
        });

        let pod = needs.builds_pod().then(|| {
            let t0 = Instant::now();
            let pod = tr.span(POD, || {
                bank.as_ref().expect("bank built above").compress(RANK)
            });
            stage(POD, t0);
            pod
        });

        let window = needs.window.then(|| {
            let t0 = Instant::now();
            let w = tr.span(WINDOW, || twin.windowed(&WINDOWS));
            stage(WINDOW, t0);
            w
        });

        let goal = needs.goal.then(|| {
            let t0 = Instant::now();
            let g = tr.span(GOAL, || {
                twin.goal_ladder(&WINDOWS, &GoalOptions::rank(RANK))
            });
            stage(GOAL, t0);
            g
        });

        let modespace = needs.modespace.then(|| {
            let t0 = Instant::now();
            let modes = pod.as_ref().expect("pod built above").modes();
            let m = tr.span(MODESPACE, || {
                twin.mode_space_ladder(&WINDOWS, modes, &ModeSpaceOptions::default())
            });
            stage(MODESPACE, t0);
            m
        });

        Artefacts {
            twin,
            bank,
            pod,
            window,
            goal,
            modespace,
            stages,
            build_peak_bytes: alloc::peak_bytes(),
        }
    }

    /// Measured seconds of one stage (0 if it did not run).
    pub fn stage_s(&self, name: &str) -> f64 {
        self.stages
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |s| s.1)
    }

    /// Sum of the measured build times of the artefacts `needs` uses: the
    /// offline share of a workload's `setup_s`. With a build of exactly
    /// `needs` this is the whole build.
    pub fn setup_s(&self, needs: Needs) -> f64 {
        [
            (SOLVER, true),
            (PHASE1, true),
            (PHASE2, true),
            (PHASE3, true),
            (BANK, needs.builds_bank()),
            (POD, needs.builds_pod()),
            (WINDOW, needs.window),
            (GOAL, needs.goal),
            (MODESPACE, needs.modespace),
        ]
        .iter()
        .filter(|(_, used)| *used)
        .map(|(name, _)| self.stage_s(name))
        .sum()
    }

    /// Whole build, config → ready to serve.
    pub fn total_s(&self) -> f64 {
        self.stages.iter().map(|s| s.1).sum()
    }

    /// Per-layer numbers of the build: the stage times, the sub-stage
    /// times the program's own `TimerRegistry` recorded, counts and
    /// resident sizes computed from shapes.
    pub fn layer_metrics(&self) -> Metrics {
        let mut m = Metrics::default();
        for (name, unit_s) in &self.stages {
            if *name != SOLVER {
                m.set(&format!("{name}.busy_s"), *unit_s, "s", 1);
            }
        }
        let t = &self.twin.timers;
        let sec = |section: &str| t.seconds(section);
        m.set(
            "solver.p2o.busy_s",
            sec("Phase 1: form F (adjoint solves)"),
            "s",
            1,
        );
        m.set(
            "solver.p2q.busy_s",
            sec("Phase 1: form Fq (adjoint solves)"),
            "s",
            1,
        );
        // One adjoint solve per sensor and per QoI point (exact).
        let solves = self.twin.phase1.f.out_dim + self.twin.phase1.fq.out_dim;
        m.set("solver.adjoint_solves", solves as f64, "count", 0);
        m.set(
            "prior.smooth_blocks.busy_s",
            sec("Phase 2: form G = F*Prior (prior solves)")
                + sec("Phase 2: form Gq = Fq*Prior (prior solves)"),
            "s",
            2,
        );
        m.set(
            "fft.from_blocks.busy_s",
            sec("Phase 1: FFT spectra of F") + sec("Phase 1: FFT spectra of Fq"),
            "s",
            2,
        );
        m.set(
            "core.phase2.form_k.busy_s",
            sec("Phase 2: form K (FFT matvecs)"),
            "s",
            1,
        );
        let factor_s = sec("Phase 2: factorize K (Cholesky)");
        m.set("linalg.cholesky.factor.busy_s", factor_s, "s", 1);
        // n³/3 flops, computed from the shape.
        let n = self.twin.n_data() as f64;
        m.set(
            "linalg.cholesky.factor.gflops",
            n * n * n / 3.0 / factor_s.max(1e-12) / 1e9,
            "GF/s",
            1,
        );
        let mb = |elems: usize| (elems * std::mem::size_of::<f64>()) as f64 / 1e6;
        if let Some(w) = &self.window {
            let elems: usize = w.q_maps.iter().map(|q| q.nrows() * q.ncols()).sum();
            m.set("core.window.resident_mb", mb(elems), "MB", 0);
        }
        if let Some(g) = &self.goal {
            m.set("core.goal.resident_mb", mb(g.resident_elems()), "MB", 0);
        }
        if let Some(ms) = &self.modespace {
            m.set(
                "core.modespace.resident_mb",
                mb(ms.resident_elems()),
                "MB",
                0,
            );
        }
        m.set(
            "build.peak_live_mb",
            alloc::mb(self.build_peak_bytes),
            "MB",
            0,
        );
        m
    }
}
