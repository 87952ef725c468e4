//! Integration tests for the operational extensions: streaming early
//! warning, optimal sensor placement, DAS arrays, the generic LTI engine,
//! and the elastic shake-map twin — plus failure-injection checks that the
//! machinery detects or degrades gracefully on bad inputs.

use cascadia_dt::elastic::{
    DippingFault, ElasticGrid, ElasticSolver, LayeredMedium, ShakeTwin, SlipScenario,
};
use cascadia_dt::linalg::random::seeded_rng;
use cascadia_dt::linalg::Cholesky;
use cascadia_dt::prelude::*;
use cascadia_dt::solver::SensorArray;
use cascadia_dt::twin::metrics::{correlation, rel_l2};
use cascadia_dt::twin::{build_maps, greedy_design, infer_window, Criterion, OedCandidates};

fn acoustic_twin() -> (DigitalTwin, cascadia_dt::twin::SyntheticEvent) {
    let cfg = TwinConfig::tiny();
    let solver = cfg.build_solver();
    let rupture = SyntheticEvent::default_rupture(&cfg);
    let ev = SyntheticEvent::generate(&cfg, &solver, &rupture, 321);
    let twin = DigitalTwin::offline(cfg, ev.noise_std);
    (twin, ev)
}

#[test]
fn streaming_and_batch_agree_and_skill_grows() {
    let (twin, ev) = acoustic_twin();
    let nd = twin.solver.sensors.len();
    let nt = twin.solver.grid.nt_obs;
    let wf = WindowedForecaster::build(
        &twin.phase1,
        &twin.phase2,
        &twin.phase3,
        &[nt / 4, nt / 2, nt],
    );
    // Full window reproduces the batch forecast bit-for-bit (same algebra).
    let fc_batch = twin.forecast(&ev.d_obs);
    let last = wf.windows.len() - 1;
    let fc_stream = wf.forecast(last, &ev.d_obs);
    for (a, b) in fc_stream.q_map.iter().zip(&fc_batch.q_map) {
        assert!((a - b).abs() < 1e-9 * b.abs().max(1e-12));
    }
    // Skill improves monotonically across this window ladder for the
    // synthetic event (guaranteed only statistically, but robust here).
    let errs: Vec<f64> = (0..wf.windows.len())
        .map(|i| {
            let w = wf.windows[i];
            rel_l2(&wf.forecast(i, &ev.d_obs[..w * nd]).q_map, &ev.q_true)
        })
        .collect();
    assert!(
        errs[0] >= errs[errs.len() - 1],
        "more data must not hurt overall: {errs:?}"
    );
}

#[test]
fn windowed_inference_never_sees_the_future() {
    // Feeding a window of length k must give the same answer whether the
    // future entries exist (and are garbage) or not — they are unread.
    let (twin, ev) = acoustic_twin();
    let nd = twin.solver.sensors.len();
    let k = twin.solver.grid.nt_obs / 2;
    let inf_a = infer_window(&twin.phase1, &twin.phase2, &ev.d_obs[..k * nd], k);
    let mut poisoned = ev.d_obs.clone();
    for v in poisoned[k * nd..].iter_mut() {
        *v = 1e9;
    }
    let inf_b = infer_window(&twin.phase1, &twin.phase2, &poisoned[..k * nd], k);
    assert_eq!(inf_a.m_map, inf_b.m_map);
}

#[test]
fn greedy_first_pick_is_the_exhaustive_optimum() {
    let (twin, _) = acoustic_twin();
    let cand = OedCandidates::build(&twin.phase1, &twin.phase2, &twin.phase3);
    let design = greedy_design(&cand, 1, Criterion::AOptimal);
    let best_exhaustive = (0..cand.n_cand)
        .map(|r| (cand.qoi_trace(&[r]), r))
        .min_by(|a, b| a.0.partial_cmp(&b.0).unwrap())
        .unwrap();
    assert_eq!(design.selected[0], best_exhaustive.1);
    assert!((design.objective_path[0] - best_exhaustive.0).abs() < 1e-9);
}

#[test]
fn sensor_dropout_degrades_gracefully() {
    // Removing a sensor (proper Bayesian treatment: smaller array, not
    // zeroed data) must increase forecast uncertainty but keep the
    // machinery exact — the OED trace quantifies the loss.
    let (twin, _) = acoustic_twin();
    let cand = OedCandidates::build(&twin.phase1, &twin.phase2, &twin.phase3);
    let all: Vec<usize> = (0..cand.n_cand).collect();
    let tr_full = cand.qoi_trace(&all);
    for drop in 0..cand.n_cand {
        let reduced: Vec<usize> = all.iter().copied().filter(|&r| r != drop).collect();
        let tr = cand.qoi_trace(&reduced);
        assert!(
            tr >= tr_full - 1e-9 * tr_full.abs(),
            "dropping sensor {drop} cannot reduce uncertainty: {tr} vs {tr_full}"
        );
        assert!(tr.is_finite());
    }
}

#[test]
fn uniform_channel_rescaling_with_matched_noise_is_invariant() {
    // Whitening invariance: scaling every channel by c and the noise std
    // by c leaves the posterior mean unchanged (rows of F and d scale
    // together). This is the identity that makes channel whitening exact
    // rather than a heuristic.
    let cfg = TwinConfig::tiny();
    let solver_a = cfg.build_solver();
    let rupture = SyntheticEvent::default_rupture(&cfg);
    let ev = SyntheticEvent::generate(&cfg, &solver_a, &rupture, 555);

    let twin_a = DigitalTwin::offline(cfg.clone(), ev.noise_std);
    let inf_a = twin_a.infer(&ev.d_obs);

    let c = 7.5;
    let mut solver_b = cfg.build_solver();
    let factors = vec![c; solver_b.sensors.len()];
    solver_b.sensors.rescale_channels(&factors);
    let timers = TimerRegistry::new();
    let p1 = cascadia_dt::twin::Phase1::build(&solver_b, &timers);
    let p2 = cascadia_dt::twin::Phase2::build(&p1, &cfg.build_prior(), c * ev.noise_std, &timers);
    let d_scaled: Vec<f64> = ev.d_obs.iter().map(|&v| c * v).collect();
    let inf_b = cascadia_dt::twin::phase4::infer(&p1, &p2, &d_scaled);
    let err = rel_l2(&inf_b.m_map, &inf_a.m_map);
    assert!(err < 1e-8, "whitening invariance broken: {err}");
}

#[test]
fn das_fiber_twin_is_exact_through_the_generic_builder() {
    // The generic LTI builder on a DAS-equipped solver must reproduce
    // forward PDE solves through the FFT path — observation operators are
    // opaque to the machinery.
    let cfg = TwinConfig::tiny();
    let mut solver = cfg.build_solver();
    let pts: Vec<(f64, f64)> = vec![
        (0.15 * cfg.lx, 0.3 * cfg.ly),
        (0.3 * cfg.lx, 0.5 * cfg.ly),
        (0.45 * cfg.lx, 0.35 * cfg.ly),
        (0.55 * cfg.lx, 0.6 * cfg.ly),
    ];
    solver.sensors = SensorArray::das_fiber(&solver.op, &pts, 0.05);
    let (f, _fq) = build_maps(&solver);
    let fast = cascadia_dt::fft::FftBlockToeplitz::from_blocks(&f);
    let mut s = 5u64;
    let m: Vec<f64> = (0..solver.n_params())
        .map(|_| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        })
        .collect();
    let (d_pde, _) = solver.forward(&m);
    let mut d_fft = vec![0.0; solver.n_data()];
    fast.matvec(&m, &mut d_fft);
    let scale = d_pde.iter().fold(0.0f64, |a, &v| a.max(v.abs()));
    for (a, b) in d_pde.iter().zip(&d_fft) {
        assert!((a - b).abs() < 1e-8 * scale, "{a} vs {b}");
    }
}

fn elastic_twin(nt: usize) -> ShakeTwin {
    let grid = ElasticGrid::new(40, 20, 1000.0, 1000.0, 5, 0.94);
    let medium = LayeredMedium::cascadia_margin(20_000.0);
    let fault = DippingFault::megathrust(40_000.0, 20_000.0, 6);
    let solver = ElasticSolver::new(
        grid,
        &medium,
        fault,
        &[6e3, 10e3, 14e3, 18e3, 22e3, 26e3, 30e3, 34e3],
        &[26e3, 34e3],
        0.5,
        nt,
        0.5,
    );
    ShakeTwin::offline(solver, 4_000.0, 1.0, 1e-3)
}

#[test]
fn elastic_and_acoustic_twins_share_the_same_engine_semantics() {
    // The Kalman-gain consistency (q_map = Fq m_map) must hold through
    // both physics backends; it is a property of the shared Phases 2–4.
    let twin = elastic_twin(10);
    let d: Vec<f64> = (0..twin.engine.n_data())
        .map(|i| (i as f64 * 0.41).sin())
        .collect();
    let inf = twin.invert_slip(&d);
    let fc = twin.forecast_ground_motion(&d);
    let mut q = vec![0.0; twin.engine.n_qoi()];
    twin.engine.phase1.fast_fq.matvec(&inf.m_map, &mut q);
    let scale = q.iter().fold(0.0f64, |a, &v| a.max(v.abs()));
    for (a, b) in fc.q_map.iter().zip(&q) {
        assert!((a - b).abs() < 1e-7 * scale);
    }
}

#[test]
fn elastic_end_to_end_event_recovery() {
    let twin0 = elastic_twin(24);
    let scenario = SlipScenario::partial_rupture(twin0.solver.n_m());
    let ev = twin0.synthesize(&scenario, 0.01, 808);
    let twin = ShakeTwin::offline(elastic_twin(24).solver, 4_000.0, 1.0, ev.noise_std);
    let inf = twin.invert_slip(&ev.d_obs);
    let corr = correlation(&twin.final_slip(&inf.m_map), &twin.final_slip(&ev.m_true));
    assert!(corr > 0.9, "cross-crate elastic recovery: {corr}");

    let mut rng = seeded_rng(9);
    let sm = twin.shake_map(&ev.d_obs, 100, &mut rng);
    for s in 0..twin.solver.qoi_sites.len() {
        assert!(sm.pgv_p05[s] <= sm.pgv_p95[s]);
        assert!(sm.pgv_mean[s] >= 0.0 && sm.pgv_mean[s].is_finite());
    }
}

#[test]
fn streaming_windows_work_on_the_elastic_engine() {
    // WindowedForecaster only sees Phase 1-3 products, so the elastic
    // shake-map twin streams exactly like the tsunami twin.
    let twin = elastic_twin(12);
    let e = &twin.engine;
    let nt = twin.solver.nt_obs;
    let nd = twin.solver.stations.len();
    let wf = WindowedForecaster::build(&e.phase1, &e.phase2, &e.phase3, &[2, nt]);
    let d: Vec<f64> = (0..e.n_data()).map(|i| (i as f64 * 0.17).sin()).collect();
    let fc_full = e.predict(&d);
    let fc_stream = wf.forecast(1, &d);
    for (a, b) in fc_stream.q_map.iter().zip(&fc_full.q_map) {
        assert!((a - b).abs() < 1e-9 * b.abs().max(1e-12));
    }
    // Narrow-window ground-motion uncertainty dominates the full window.
    let fc_narrow = wf.forecast(0, &d[..2 * nd]);
    for (wide, narrow) in fc_stream.q_std.iter().zip(&fc_narrow.q_std) {
        assert!(*wide <= narrow + 1e-9 * narrow.abs().max(1e-12));
    }
}

#[test]
fn cholesky_rejects_nan_contamination() {
    // Failure injection: a NaN anywhere in the (lower triangle of the)
    // matrix must surface as a factorization error, not silent garbage.
    let mut a = cascadia_dt::linalg::DMatrix::identity(6);
    a[(3, 2)] = f64::NAN;
    a[(2, 3)] = f64::NAN;
    assert!(
        Cholesky::factor(&a).is_err(),
        "NaN must fail the factorization"
    );
}

#[test]
fn engine_rejects_wrong_data_dimension() {
    let (twin, _) = acoustic_twin();
    let bad = vec![0.0; twin.n_data() + 1];
    let nt = twin.solver.grid.nt_obs;
    let wf = WindowedForecaster::build(&twin.phase1, &twin.phase2, &twin.phase3, &[nt]);
    let calls: [(&str, &dyn Fn()); 3] = [
        ("infer", &|| {
            twin.infer(&bad);
        }),
        ("forecast", &|| {
            twin.forecast(&bad);
        }),
        ("windowed forecast", &|| {
            wf.forecast(0, &bad);
        }),
    ];
    for (what, call) in calls {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(call));
        assert!(
            result.is_err(),
            "{what}: dimension mismatch must panic, not mis-solve"
        );
    }
}

#[test]
fn windowed_forecaster_rejects_zero_window() {
    let (twin, _) = acoustic_twin();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        WindowedForecaster::build(&twin.phase1, &twin.phase2, &twin.phase3, &[0]);
    }));
    assert!(result.is_err(), "zero-length window must be rejected");
}
