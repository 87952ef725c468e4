//! Integration tests for the streaming engine against the one-shot
//! windowed path: incremental feeding must reproduce one-shot results to
//! ≤ 1e-10, chunking must not change answers, the working set must stay
//! bounded by the chunk panel, and identification must rank the true
//! scenario first.

use tsunami_core::window::infer_window;
use tsunami_core::{DigitalTwin, ScenarioBank, TwinConfig};
use tsunami_stream::{identify, IdentifyBackend, StreamConfig, StreamEngine, WarningLevel};

fn rel_err(a: &[f64], b: &[f64]) -> f64 {
    let num: f64 = a
        .iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt();
    let den: f64 = b.iter().map(|v| v * v).sum::<f64>().sqrt();
    num / den.max(1e-300)
}

fn setup_bank(n: usize, seed: u64) -> (DigitalTwin, ScenarioBank) {
    let cfg = TwinConfig::tiny();
    let solver = cfg.build_solver();
    let specs = ScenarioBank::family(&cfg, n, seed);
    let bank = ScenarioBank::generate(&cfg, &solver, &specs);
    drop(solver);
    let twin = DigitalTwin::offline(cfg, bank.noise_std());
    (twin, bank)
}

#[test]
fn incremental_streaming_matches_one_shot_window_results() {
    let (twin, bank) = setup_bank(2, 11);
    let nt = twin.solver.grid.nt_obs;
    let nd = twin.solver.sensors.len();
    let wf = twin.windowed(&[2, nt / 2, nt]);
    let d_full = bank.observations().col(0);

    let mut engine = StreamEngine::new(&twin, &wf, StreamConfig::default()).with_bank(&bank);
    let id = engine.open();

    // Feed the stream in deliberately awkward pieces: 3 samples at a time
    // (not aligned to the Nd=4 step size), ticking after every push.
    let mut fed = 0;
    while fed < d_full.len() {
        let hi = (fed + 3).min(d_full.len());
        engine.push(id, &d_full[fed..hi]);
        fed = hi;
        engine.tick();

        // Whenever a rung has been assimilated, the stored forecast must
        // equal the one-shot forecast from that rung's data prefix.
        if let Some(w) = engine.session(id).window() {
            let k = wf.windows[w] * nd;
            let one_shot = wf.forecast(w, &d_full[..k]);
            let live = engine.session(id).forecast.as_ref().unwrap();
            assert!(
                rel_err(&live.q_map, &one_shot.q_map) < 1e-10,
                "live forecast drifted from one-shot at rung {w}"
            );
            assert_eq!(live.q_std, one_shot.q_std);
        }
    }

    // Horizon complete: the final state must match the full-window
    // one-shot inference and forecast.
    assert!(engine.session(id).is_complete());
    assert_eq!(engine.session(id).window(), Some(wf.windows.len() - 1));
    let one_shot = wf.forecast(wf.windows.len() - 1, &d_full);
    let live = engine.session(id).forecast.as_ref().unwrap();
    assert!(rel_err(&live.q_map, &one_shot.q_map) < 1e-10);

    let inf = infer_window(&twin.phase1, &twin.phase2, &d_full, nt);
    let m_norm_ref = inf.m_map.iter().map(|v| v * v).sum::<f64>().sqrt();
    let m_norm_live = engine.session(id).m_norm.unwrap();
    assert!(
        (m_norm_live - m_norm_ref).abs() < 1e-10 * m_norm_ref.max(1e-12),
        "windowed inference norm drifted: {m_norm_live} vs {m_norm_ref}"
    );
}

#[test]
fn chunked_assimilation_matches_wide_panel_and_stays_bounded() {
    let (twin, bank) = setup_bank(10, 23);
    let nt = twin.solver.grid.nt_obs;
    let wf = twin.windowed(&[nt]);

    // Same ten streams through a narrow-chunk and a wide-chunk engine.
    let narrow_cfg = StreamConfig {
        chunk: 3,
        ..StreamConfig::default()
    };
    let mut narrow = StreamEngine::new(&twin, &wf, narrow_cfg);
    let mut wide = StreamEngine::new(&twin, &wf, StreamConfig::default());
    for j in 0..bank.len() {
        let d = bank.observations().col(j);
        let a = narrow.open();
        let b = wide.open();
        narrow.push(a, &d);
        wide.push(b, &d);
    }
    let tm_narrow = narrow.tick();
    let tm_wide = wide.tick();

    // Chunking is an implementation detail: answers must agree to
    // roundoff-reshuffling levels.
    for j in 0..bank.len() {
        let fa = narrow.session(j).forecast.as_ref().unwrap();
        let fb = wide.session(j).forecast.as_ref().unwrap();
        assert!(rel_err(&fa.q_map, &fb.q_map) < 1e-12, "session {j} drift");
        let (na, nb) = (
            narrow.session(j).m_norm.unwrap(),
            wide.session(j).m_norm.unwrap(),
        );
        assert!((na - nb).abs() < 1e-12 * nb.max(1e-12));
    }

    // Ten sessions, chunk 3 → 4 panels; one panel at chunk 64.
    assert_eq!(tm_narrow.sessions_assimilated, 10);
    assert_eq!(tm_narrow.panels, 4);
    assert_eq!(tm_wide.panels, 1);

    // Bounded working set: the narrow engine must never have
    // materialized more than chunk columns of either block.
    let bound = twin.n_data().max(twin.n_params()) * narrow_cfg.chunk;
    assert!(
        tm_narrow.peak_panel_elems <= bound,
        "peak {} exceeds chunk bound {bound}",
        tm_narrow.peak_panel_elems
    );
    assert!(narrow.metrics().peak_panel_elems <= bound);
}

#[test]
fn sequential_identification_ranks_true_scenario_and_sharpens() {
    let (twin, bank) = setup_bank(6, 42);
    let nt = twin.solver.grid.nt_obs;
    let wf = twin.windowed(&[1, nt / 2, nt]);
    let mut engine = StreamEngine::new(&twin, &wf, StreamConfig::default()).with_bank(&bank);

    // Each session replays a different bank scenario's noisy stream.
    let ids: Vec<usize> = (0..bank.len()).map(|_| engine.open()).collect();

    // First half of the horizon.
    let half = twin.n_data() / 2;
    for (j, &id) in ids.iter().enumerate() {
        engine.push(id, &bank.observations().col(j)[..half]);
    }
    engine.tick();
    let p_half: Vec<f64> = ids
        .iter()
        .map(|&id| engine.ranked_matches(id)[0].probability)
        .collect();

    // Rest of the horizon.
    for (j, &id) in ids.iter().enumerate() {
        engine.push(id, &bank.observations().col(j)[half..]);
    }
    engine.tick();

    for (j, &id) in ids.iter().enumerate() {
        let ranked = engine.ranked_matches(id);
        assert_eq!(ranked.len(), bank.len());
        assert_eq!(
            ranked[0].scenario, j,
            "session {j} must identify its own scenario"
        );
        // Sequential update: more data must not blunt a correct match.
        assert!(
            ranked[0].probability >= p_half[j] - 1e-9,
            "session {j}: posterior slackened from {} to {}",
            p_half[j],
            ranked[0].probability
        );
        // Probabilities are a distribution.
        let z: f64 = ranked.iter().map(|m| m.probability).sum();
        assert!((z - 1.0).abs() < 1e-12);
    }
}

#[test]
fn warning_classification_tracks_threshold_and_tightens() {
    let (twin, bank) = setup_bank(6, 7);
    let nt = twin.solver.grid.nt_obs;
    let wf = twin.windowed(&[1, nt]);

    // Pick the bank's most confidently hazardous scenario: largest lower
    // credible bound at the full window.
    let (mut d, mut lo_max, mut hi_max) = (Vec::new(), f64::NEG_INFINITY, f64::NEG_INFINITY);
    for j in 0..bank.len() {
        let dj = bank.observations().col(j);
        let fc = wf.forecast(wf.windows.len() - 1, &dj);
        let lo = (0..fc.q_map.len())
            .map(|i| fc.ci95(i).0)
            .fold(f64::NEG_INFINITY, f64::max);
        if lo > lo_max {
            lo_max = lo;
            hi_max = (0..fc.q_map.len())
                .map(|i| fc.ci95(i).1)
                .fold(f64::NEG_INFINITY, f64::max);
            d = dj;
        }
    }
    assert!(
        lo_max > 0.0,
        "the bank must hold a confidently hazardous scenario, lo_max {lo_max}"
    );

    // One engine per threshold regime; the classification must track the
    // full-window band exactly.
    for (thr, want) in [
        (1e6, WarningLevel::AllClear),
        (0.5 * (lo_max + hi_max), WarningLevel::Watch),
        (0.5 * lo_max, WarningLevel::Warning),
    ] {
        let cfg = StreamConfig {
            warn_threshold: thr,
            ..StreamConfig::default()
        };
        let mut eng = StreamEngine::new(&twin, &wf, cfg);
        let id = eng.open();
        eng.push(id, &d);
        eng.tick();
        assert_eq!(eng.session(id).level, want, "threshold {thr}");
    }

    // Tightening: the credible band at the widest window is nowhere
    // wider than at the narrowest, so a classification can only firm up
    // as the window grows (this is the monotone q_std guarantee surfaced
    // at the warning layer).
    let full = wf.forecast(wf.windows.len() - 1, &d);
    let narrow = wf.forecast(0, &d[..wf.windows[0] * twin.solver.sensors.len()]);
    for (w, n) in full.q_std.iter().zip(&narrow.q_std) {
        assert!(*w <= n + 1e-9 * n.abs().max(1e-12));
    }
}

#[test]
fn push_clamps_at_horizon_and_partial_steps_wait() {
    let (twin, bank) = setup_bank(2, 3);
    let nt = twin.solver.grid.nt_obs;
    let nd = twin.solver.sensors.len();
    let wf = twin.windowed(&[nt]);
    let mut engine = StreamEngine::new(&twin, &wf, StreamConfig::default());
    let id = engine.open();

    // A partial step must not trigger assimilation.
    let d = bank.observations().col(0);
    engine.push(id, &d[..nd * (nt - 1) + 1]);
    engine.tick();
    assert_eq!(engine.session(id).steps(), nt - 1);
    assert_eq!(engine.session(id).window(), None, "no rung crossed yet");

    // Overfeeding clamps at the horizon.
    let mut tail = d[nd * (nt - 1) + 1..].to_vec();
    tail.extend_from_slice(&[123.0; 5]);
    let accepted = engine.push(id, &tail);
    assert_eq!(accepted, tail.len() - 5);
    assert!(engine.session(id).is_complete());
    engine.tick();
    assert_eq!(engine.session(id).window(), Some(0));
}

#[test]
fn gemm_identification_matches_scalar_loop_at_awkward_granularities() {
    // The engine's blocked GEMM scoring, fed in ragged 3-sample pushes
    // with a tick after every push, must agree with a one-shot scalar
    // per-sample misfit loop over the same stream.
    let (twin, bank) = setup_bank(5, 19);
    let nt = twin.solver.grid.nt_obs;
    let wf = twin.windowed(&[nt]);
    let mut engine = StreamEngine::new(&twin, &wf, StreamConfig::default()).with_bank(&bank);
    let id = engine.open();
    let d = bank.observations().col(1);

    let mut fed = 0;
    while fed < d.len() {
        let hi = (fed + 3).min(d.len());
        engine.push(id, &d[fed..hi]);
        fed = hi;
        engine.tick();
    }

    let clean = bank.clean_observations();
    let mis_ref: Vec<f64> = (0..bank.len())
        .map(|j| (0..d.len()).map(|i| (d[i] - clean[(i, j)]).powi(2)).sum())
        .collect();
    let sigma2 = bank.noise_std() * bank.noise_std();
    let ranked = engine.ranked_matches(id);
    for m in &ranked {
        let ll_ref = -mis_ref[m.scenario] / (2.0 * sigma2);
        assert!(
            (m.log_likelihood - ll_ref).abs() < 1e-9 * ll_ref.abs().max(1.0),
            "scenario {}: GEMM ll {} vs scalar {}",
            m.scenario,
            m.log_likelihood,
            ll_ref
        );
    }
    assert_eq!(
        ranked[0].scenario, 1,
        "stream must identify its own scenario"
    );
}

#[test]
fn closed_sessions_are_reused_without_new_allocations() {
    let (twin, bank) = setup_bank(3, 31);
    let nt = twin.solver.grid.nt_obs;
    let wf = twin.windowed(&[nt / 2, nt]);
    let mut engine = StreamEngine::new(&twin, &wf, StreamConfig::default()).with_bank(&bank);

    // First event generation: two concurrent sessions to completion.
    let a = engine.open();
    let b = engine.open();
    assert_eq!(engine.metrics().rings_allocated, 2);
    engine.push(a, &bank.observations().col(0));
    engine.push(b, &bank.observations().col(1));
    engine.tick();
    let fc_a_first = engine.session(a).forecast.as_ref().unwrap().q_map.clone();
    assert_eq!(engine.ranked_matches(a)[0].scenario, 0);

    // Events end: slots go to the freelist; closed sessions keep their
    // last products readable but drop out of tick work.
    engine.close(a);
    engine.close(b);
    assert!(!engine.session(a).is_open());
    let idle = engine.tick();
    assert_eq!(idle.sessions_assimilated, 0);
    assert_eq!(idle.samples_scored, 0);

    // Second generation: both ids come back off the freelist with no new
    // ring allocations and fully reset state.
    let c = engine.open();
    let d = engine.open();
    assert_eq!(engine.session_count(), 2, "no session-table growth");
    assert_eq!(engine.metrics().rings_allocated, 2, "rings must be reused");
    assert!([a, b].contains(&c) && [a, b].contains(&d) && c != d);
    assert_eq!(engine.session(c).samples(), 0);
    assert_eq!(engine.session(c).window(), None);
    assert!(engine.session(c).forecast.is_none());

    // The reused slot serves a *different* scenario correctly: scoring
    // and assimilation restart from scratch.
    engine.push(c, &bank.observations().col(2));
    engine.tick();
    assert_eq!(engine.ranked_matches(c)[0].scenario, 2);
    let fc_c = engine.session(c).forecast.as_ref().unwrap().q_map.clone();
    assert!(
        rel_err(&fc_c, &fc_a_first) > 1e-3,
        "reused session must not inherit the old event's forecast"
    );
    let one_shot = wf.forecast(wf.windows.len() - 1, &bank.observations().col(2));
    assert!(rel_err(&fc_c, &one_shot.q_map) < 1e-10);

    // Pushing into a closed session and double-closing are caught.
    engine.close(c);
    assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ = engine.push(c, &[0.0]);
    }))
    .is_err());
    assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        engine.close(c);
    }))
    .is_err());
}

#[test]
fn rewind_reassimilates_without_rescoring() {
    let (twin, bank) = setup_bank(2, 5);
    let nt = twin.solver.grid.nt_obs;
    let wf = twin.windowed(&[nt]);
    let mut engine = StreamEngine::new(&twin, &wf, StreamConfig::default()).with_bank(&bank);
    let id = engine.open();
    engine.push(id, &bank.observations().col(0));
    let t1 = engine.tick();
    assert_eq!(t1.sessions_assimilated, 1);
    assert!(t1.samples_scored > 0);

    // Nothing new: an idle tick does no work.
    let t2 = engine.tick();
    assert_eq!(t2.sessions_assimilated, 0);
    assert_eq!(t2.samples_scored, 0);

    // Rewind re-runs the assimilation but not the scoring.
    let before = engine.session(id).forecast.as_ref().unwrap().q_map.clone();
    engine.rewind();
    let t3 = engine.tick();
    assert_eq!(t3.sessions_assimilated, 1);
    assert_eq!(t3.samples_scored, 0);
    let after = engine.session(id).forecast.as_ref().unwrap().q_map.clone();
    assert_eq!(before, after);
}

/// What a shard-count comparison reads off one session: its id,
/// forecast, inference norm, materialized misfits, top-ranked scenario
/// and warning level.
type ShardProducts = (usize, Vec<f64>, Option<f64>, Vec<f64>, usize, WarningLevel);

/// Replays bank column `s` into a fresh session `s` of `engine`, `step`
/// samples per push in lockstep with a tick after every round, and reads
/// every session's products at the horizon.
fn replay_lockstep(
    engine: &mut StreamEngine<'_>,
    bank: &ScenarioBank,
    step: usize,
) -> Vec<ShardProducts> {
    let ids: Vec<usize> = (0..bank.len()).map(|_| engine.open()).collect();
    let horizon = bank.observations().nrows();
    let mut fed = 0;
    while fed < horizon {
        let hi = (fed + step).min(horizon);
        for (s, &id) in ids.iter().enumerate() {
            engine.push(id, &bank.observations().col(s)[fed..hi]);
        }
        fed = hi;
        engine.tick();
    }
    ids.iter()
        .map(|&id| {
            let s = engine.session(id);
            (
                id,
                s.forecast.as_ref().unwrap().q_map.clone(),
                s.m_norm,
                engine.misfit_scores(id),
                engine.ranked_matches(id)[0].scenario,
                s.level,
            )
        })
        .collect()
}

/// Push sizes for the shard-count comparisons: 3 never fills the
/// cross-term kernels' 4-row block, 4 and 16 do.
const SHARD_PUSH_STEPS: [usize; 3] = [3, 4, 16];

#[test]
fn sharded_engine_is_invariant_in_the_shard_count() {
    // The same interleaved streams through 1-, 2-, and 4-shard engines
    // (lockstep pushes, a tick after every round) must produce identical
    // ids, forecasts, inference norms, misfits, rankings and levels, bit
    // for bit — sharding is pure work partitioning, and every stream gets
    // the same cross-term arithmetic whichever sessions share its group.
    // Under both identification backends: the mode-space misfit is
    // materialized from each session's own statistic, whatever shard it
    // lives on.
    let (twin, bank) = setup_bank(6, 77);
    let nt = twin.solver.grid.nt_obs;
    let wf = twin.windowed(&[2, nt / 2, nt]);
    let pod = bank.compress(4);

    for identify in [IdentifyBackend::Exact, IdentifyBackend::ModeSpace] {
        for step in SHARD_PUSH_STEPS {
            let run = |shards: usize| {
                let cfg = StreamConfig {
                    shards,
                    identify,
                    ..StreamConfig::default()
                };
                let mut engine = StreamEngine::new(&twin, &wf, cfg)
                    .with_bank(&bank)
                    .with_pod(&pod);
                let products = replay_lockstep(&mut engine, &bank, step);
                (products, *engine.metrics())
            };
            let (base, base_m) = run(1);
            for shards in [2usize, 4] {
                let (got, got_m) = run(shards);
                assert_eq!(
                    got, base,
                    "{identify:?}, {step}-sample pushes: {shards} shards differ from 1"
                );
                assert_eq!(got_m.assimilations, base_m.assimilations);
                assert_eq!(got_m.samples_ingested, base_m.samples_ingested);
                // Per-shard chunking can only shrink the largest panel.
                assert!(got_m.peak_panel_elems <= base_m.peak_panel_elems);
            }
        }
    }
}

#[test]
fn lock_free_enqueue_from_threads_matches_direct_pushes() {
    // Producer threads feeding a shared engine through the lock-free
    // inboxes must yield the same per-session state as exclusive pushes:
    // per-session FIFO is preserved because each producer owns one
    // session, and the drain happens at tick start.
    let (twin, bank) = setup_bank(4, 51);
    let nt = twin.solver.grid.nt_obs;
    let wf = twin.windowed(&[nt / 2, nt]);
    let cfg = StreamConfig {
        shards: 2,
        ..StreamConfig::default()
    };

    let mut queued = StreamEngine::new(&twin, &wf, cfg).with_bank(&bank);
    let mut direct = StreamEngine::new(&twin, &wf, cfg).with_bank(&bank);
    let ids: Vec<usize> = (0..bank.len()).map(|_| queued.open()).collect();
    for _ in 0..bank.len() {
        direct.open();
    }

    std::thread::scope(|scope| {
        for &id in &ids {
            let engine = &queued;
            let col = bank.observations().col(id);
            scope.spawn(move || {
                let mut fed = 0;
                while fed < col.len() {
                    let hi = (fed + 5).min(col.len());
                    engine.enqueue(id, &col[fed..hi]);
                    fed = hi;
                }
            });
        }
    });
    let tq = queued.tick();
    assert_eq!(tq.samples_drained, bank.len() * twin.n_data());
    assert_eq!(queued.metrics().samples_ingested, tq.samples_drained);

    for &id in &ids {
        direct.push(id, &bank.observations().col(id));
    }
    direct.tick();

    for &id in &ids {
        assert_eq!(queued.session(id).samples(), direct.session(id).samples());
        assert_eq!(
            queued.ranked_matches(id)[0].scenario,
            direct.ranked_matches(id)[0].scenario
        );
        let fq = &queued.session(id).forecast.as_ref().unwrap().q_map;
        let fd = &direct.session(id).forecast.as_ref().unwrap().q_map;
        assert!(
            rel_err(fq, fd) < 1e-12,
            "enqueue path drift on session {id}"
        );
    }

    // Enqueues for a session closed before the next tick are dropped.
    queued.enqueue(ids[0], &[9.0; 3]);
    queued.close(ids[0]);
    let t = queued.tick();
    assert_eq!(t.samples_drained, 0, "late batch for closed session kept");
}

#[test]
fn stale_inbox_batch_does_not_contaminate_a_reused_slot() {
    // Regression: enqueue → close → open reuses the slot with the *same*
    // id and marks it active again, so without the generation tag the
    // next tick's drain would fold the old event's staged samples into
    // the new session — defeating the documented "dropped if closed by
    // drain time" guard.
    let (twin, bank) = setup_bank(2, 11);
    let nt = twin.solver.grid.nt_obs;
    let wf = twin.windowed(&[nt]);
    let mut engine = StreamEngine::new(&twin, &wf, StreamConfig::default()).with_bank(&bank);
    let id = engine.open();

    // Stage samples for the first event, then end it before any tick
    // drains them.
    engine.enqueue(id, &[0.25; 6]);
    engine.close(id);

    // A new event reuses the slot: same id, fresh generation.
    let reused = engine.open();
    assert_eq!(reused, id, "slot must be reused with the same id");
    let t = engine.tick();
    assert_eq!(t.samples_drained, 0, "stale batch accepted at drain");
    assert_eq!(
        engine.session(reused).samples(),
        0,
        "old event's staged samples contaminated the reused session"
    );

    // Batches enqueued for the *new* generation are still accepted.
    engine.enqueue(reused, &[0.5; 4]);
    let t2 = engine.tick();
    assert_eq!(t2.samples_drained, 4);
    assert_eq!(engine.session(reused).samples(), 4);
}

#[test]
fn mode_space_identification_matches_exact_within_truncation_bound() {
    // Drive the same event through the exact and mode-space backends (3
    // samples per push, tick after every push) and compare final misfits.
    // At full rank the two must agree to roundoff; at a truncated rank
    // the gap is bounded by the Cauchy–Schwarz truncation bound
    // |mis_pod − mis_exact| = |2 dᵀ(I−UUᵀ)c_j| ≤ 2‖d‖·√residual_j.
    // Shard counts 1 and 4 must agree bit-for-bit in ranking behavior.
    let (twin, bank) = setup_bank(6, 21);
    let nt = twin.solver.grid.nt_obs;
    let d_full = bank.clean_observations().col(2);

    let run = |shards: usize, pod: Option<&tsunami_core::PodBank>| {
        let wf = twin.windowed(&[nt]);
        let config = StreamConfig {
            shards,
            identify: if pod.is_some() {
                IdentifyBackend::ModeSpace
            } else {
                IdentifyBackend::Exact
            },
            ..StreamConfig::default()
        };
        let mut engine = StreamEngine::new(&twin, &wf, config).with_bank(&bank);
        if let Some(p) = pod {
            engine = engine.with_pod(p);
        }
        let id = engine.open();
        let mut fed = 0;
        while fed < d_full.len() {
            let hi = (fed + 3).min(d_full.len());
            engine.push(id, &d_full[fed..hi]);
            fed = hi;
            engine.tick();
        }
        (
            engine.misfit_scores(id),
            engine.ranked_matches(id)[0].scenario,
        )
    };

    let (exact, exact_top) = run(1, None);
    assert_eq!(exact_top, 2, "exact path must rank the true scenario first");
    assert_eq!(exact.len(), bank.len());
    let d_norm = d_full.iter().map(|v| v * v).sum::<f64>().sqrt();
    // Both paths evaluate near-zero misfits by cancelling O(‖d‖²)
    // energies, so roundoff slack scales with the energy, not the misfit.
    let slack = 1e-8 * (d_norm * d_norm).max(1.0);

    for shards in [1usize, 4] {
        // Full-rank basis: mode space loses nothing.
        let full = bank.compress(bank.len().min(twin.n_data()));
        let (pod_mis, top) = run(shards, Some(&full));
        assert_eq!(
            top, 2,
            "{shards}-shard full-rank pod must rank scenario 2 first"
        );
        assert_eq!(pod_mis.len(), exact.len(), "{shards} shards: misfit width");
        for (j, (p, e)) in pod_mis.iter().zip(&exact).enumerate() {
            assert!(
                (p - e).abs() < slack.max(1e-7 * e.abs()),
                "{shards} shards, scenario {j}: full-rank pod {p} vs exact {e}"
            );
        }

        // Truncated basis: gap within the analytic bound (with roundoff
        // slack), and the true scenario still ranked first.
        let trunc = bank.compress(3);
        let (pod_mis, top) = run(shards, Some(&trunc));
        assert_eq!(
            top, 2,
            "{shards}-shard truncated pod must rank scenario 2 first"
        );
        for (j, (p, e)) in pod_mis.iter().zip(&exact).enumerate() {
            let bound = 2.0 * d_norm * trunc.residual_energy()[j].sqrt() + slack;
            assert!(
                (p - e).abs() <= bound,
                "{shards} shards, scenario {j}: |{p} − {e}| exceeds truncation bound {bound}"
            );
        }
    }
}

/// The in-test oracle for a mode-space misfit read: `score_group_pod`
/// over a group of one, on the session's identification statistic.
fn pod_misfit_oracle(
    engine: &StreamEngine<'_>,
    id: usize,
    pod: &tsunami_core::PodBank,
    sq: &[f64],
) -> Vec<f64> {
    let (dd, a, scored) = engine.session(id).identification_statistic();
    let mut out = vec![0.0; pod.len()];
    identify::score_group_pod(pod.mode_coeffs(), sq, scored, &mut [(dd, a, &mut out[..])]);
    out
}

#[test]
fn mode_space_reads_after_plain_ticks_materialize_the_current_statistic() {
    // Mode-space ticks keep only the statistic (‖d‖², a, scored); every
    // read materializes the misfit from it. Reads after *plain* ticks
    // (no rung crossed, no transition, nothing materialized by the tick)
    // must equal the group-of-one oracle bit for bit, cover every sample
    // pushed so far, and equal an eager grouped materialization bit for
    // bit (groups of 1, 2, 4, 5 give each stream the same cross-term
    // arithmetic) with the same top-1 scenario — on the shared-fold
    // engine and on the windowed ladder, at 1 and 4 shards.
    let (twin, bank) = setup_bank(6, 61);
    let nt = twin.solver.grid.nt_obs;
    let ladder = [nt / 2, nt];
    let pod = bank.compress(4);
    let sq = identify::sq_prefix(bank.clean_observations());
    let sigma2 = bank.noise_std() * bank.noise_std();
    let wf = twin.windowed(&ladder);
    let ms = twin.mode_space_ladder(&ladder, pod.modes(), &ModeSpaceOptions::default());
    // Stop one sample short of the last rung: mid-window throughout.
    let stop = twin.n_data() - 1;

    for shards in [1usize, 4] {
        let cfg = StreamConfig {
            shards,
            identify: IdentifyBackend::ModeSpace,
            infer: false,
            ..StreamConfig::default()
        };
        let engines = [
            ("shared fold", StreamEngine::mode_space(&twin, &ms, cfg)),
            ("windowed ladder", StreamEngine::new(&twin, &wf, cfg)),
        ];
        for (tag, engine) in engines {
            let mut engine = engine.with_bank(&bank).with_pod(&pod);
            let ids: Vec<usize> = (0..bank.len()).map(|_| engine.open()).collect();
            let (mut fed, mut plain_reads) = (0, 0);
            for step in [1usize, 3, 2].iter().cycle() {
                if fed == stop {
                    break;
                }
                let hi = (fed + step).min(stop);
                for (j, &id) in ids.iter().enumerate() {
                    engine.push(id, &bank.observations().col(j)[fed..hi]);
                }
                fed = hi;
                let tm = engine.tick();
                if tm.sessions_assimilated > 0 {
                    continue;
                }
                assert_eq!(tm.misfits_materialized, 0, "{tag}: plain tick materialized");
                plain_reads += 1;
                for (j, &id) in ids.iter().enumerate() {
                    let (_, _, scored) = engine.session(id).identification_statistic();
                    assert_eq!(scored, fed, "{tag}: statistic lags the pushes");
                    let oracle = pod_misfit_oracle(&engine, id, &pod, &sq);
                    assert_eq!(
                        engine.misfit_scores(id),
                        oracle,
                        "{tag}, {shards} shards, session {j}: stale misfit read"
                    );
                    let mut want: Vec<(usize, f64)> = oracle
                        .iter()
                        .enumerate()
                        .map(|(k, &mis)| (k, -mis / (2.0 * sigma2)))
                        .collect();
                    want.sort_by(|a, b| b.1.total_cmp(&a.1));
                    let got: Vec<(usize, f64)> = engine
                        .ranked_matches(id)
                        .iter()
                        .map(|m| (m.scenario, m.log_likelihood))
                        .collect();
                    assert_eq!(got, want, "{tag}, {shards} shards, session {j}: ranking");
                }
                // Eager grouped materialization over the same statistics.
                for g in [1usize, 2, 4, 5] {
                    for chunk in ids.chunks(g) {
                        let stats: Vec<_> = chunk
                            .iter()
                            .map(|&id| engine.session(id).identification_statistic())
                            .collect();
                        let mut eager = vec![vec![0.0; bank.len()]; chunk.len()];
                        let mut group: Vec<(f64, &[f64], &mut [f64])> = stats
                            .iter()
                            .zip(eager.iter_mut())
                            .map(|(&(dd, a, _), m)| (dd, a, &mut m[..]))
                            .collect();
                        identify::score_group_pod(pod.mode_coeffs(), &sq, fed, &mut group);
                        for (&id, eager) in chunk.iter().zip(&eager) {
                            assert_eq!(
                                &engine.misfit_scores(id),
                                eager,
                                "{tag}, group {g}, session {id}"
                            );
                            let eager_top = (0..eager.len())
                                .min_by(|&a, &b| eager[a].total_cmp(&eager[b]))
                                .unwrap();
                            assert_eq!(engine.ranked_matches(id)[0].scenario, eager_top);
                        }
                    }
                }
            }
            assert!(plain_reads > 10, "{tag}: too few plain ticks read");
        }
    }
}

#[test]
fn plain_mode_space_ticks_materialize_nothing_and_each_transition_once() {
    // misfits_materialized proves where the B-wide work went: a run of
    // plain ticks leaves it at 0, each warning transition adds exactly 1
    // (its audit record's top scenario), and the exact backend — which
    // keeps its misfits accumulated — never materializes at all. The
    // registry counter mirrors the tick field while OBS is on.
    let (twin, bank) = setup_bank(4, 67);
    let nt = twin.solver.grid.nt_obs;
    let ladder = [2, nt / 2, nt];
    let pod = bank.compress(4);
    let ms = twin.mode_space_ladder(&ladder, pod.modes(), &ModeSpaceOptions::default());

    for identify in [IdentifyBackend::ModeSpace, IdentifyBackend::Exact] {
        let cfg = StreamConfig {
            identify,
            infer: false,
            // Every session trips Warning at its first rung.
            warn_threshold: 1e-6,
            ..StreamConfig::default()
        };
        let mut engine = StreamEngine::mode_space(&twin, &ms, cfg)
            .with_bank(&bank)
            .with_pod(&pod);
        let ids: Vec<usize> = (0..bank.len()).map(|_| engine.open()).collect();
        let horizon = twin.n_data();
        let (mut fed, mut plain, mut materialized) = (0, 0, 0);
        while fed < horizon {
            let hi = (fed + 2).min(horizon);
            for (j, &id) in ids.iter().enumerate() {
                engine.push(id, &bank.observations().col(j)[fed..hi]);
            }
            fed = hi;
            let before = engine.audit().total();
            let tm = engine.tick();
            let transitions = (engine.audit().total() - before) as usize;
            if tm.sessions_assimilated == 0 {
                plain += 1;
                assert_eq!(tm.misfits_materialized, 0, "{identify:?}: plain tick");
            }
            let want = match identify {
                IdentifyBackend::ModeSpace => transitions,
                IdentifyBackend::Exact => 0,
            };
            assert_eq!(
                tm.misfits_materialized, want,
                "{identify:?}: per transition"
            );
            materialized += tm.misfits_materialized;
        }
        assert!(plain > 10, "{identify:?}: the run must have plain ticks");
        assert!(engine.audit().total() > 0, "{identify:?}: no transitions");
        if tsunami_obs::enabled() {
            let counter = engine.registry().counter("stream.identify.materialized");
            assert_eq!(counter.get(), materialized as u64);
        }
        // Every audit record carries a top scenario from the bank.
        for t in engine.audit().iter() {
            let (top, p) = t.top_scenario.expect("bank attached");
            assert!(top < bank.len() && p > 0.0 && p <= 1.0);
        }
    }
}

#[test]
fn superposed_forecast_collapses_to_best_fit_on_an_in_bank_event() {
    // Feeding a bank scenario's own clean curve drives the posterior to a
    // point mass, so the posterior-weighted superposition must equal that
    // scenario's precomputed forecast — under both identification
    // backends.
    let (twin, bank) = setup_bank(4, 33);
    let nt = twin.solver.grid.nt_obs;
    let wf = twin.windowed(&[nt]);
    let w_last = wf.windows.len() - 1;
    let bank_fc = wf.forecast_batch(w_last, bank.clean_observations());
    let truth = 1usize;
    let d_full = bank.clean_observations().col(truth);

    let pod = bank.compress(4);
    for backend in [IdentifyBackend::Exact, IdentifyBackend::ModeSpace] {
        let config = StreamConfig {
            identify: backend,
            ..StreamConfig::default()
        };
        let mut engine = StreamEngine::new(&twin, &wf, config)
            .with_bank(&bank)
            .with_pod(&pod);
        let id = engine.open();
        engine.push(id, &d_full);
        engine.tick();

        let top = &engine.ranked_matches(id)[0];
        assert_eq!(top.scenario, truth);
        assert!(
            top.probability > 1.0 - 1e-9,
            "{backend:?}: posterior should be a point mass, got {}",
            top.probability
        );
        let mix = engine.superposed_forecast(id, &bank_fc);
        let single = bank_fc.scenario(truth);
        assert!(
            rel_err(&mix.q_map, &single.q_map) < 1e-9,
            "{backend:?}: superposition drifted from the best-fit forecast"
        );
        for (m, s) in mix.q_std.iter().zip(&single.q_std) {
            assert!(
                (m - s).abs() < 1e-9,
                "{backend:?}: band widened at a point mass"
            );
        }
    }
}

#[test]
#[should_panic(expected = "close: unknown session id")]
fn close_of_a_foreign_id_panics_with_context() {
    let (twin, _bank) = setup_bank(1, 7);
    let nt = twin.solver.grid.nt_obs;
    let wf = twin.windowed(&[nt]);
    let mut engine = StreamEngine::new(&twin, &wf, StreamConfig::default());
    engine.open();
    engine.close(17);
}

#[test]
#[should_panic(expected = "push: unknown session id")]
fn push_into_an_out_of_range_id_panics_with_context() {
    let (twin, _bank) = setup_bank(1, 7);
    let nt = twin.solver.grid.nt_obs;
    let wf = twin.windowed(&[nt]);
    let mut engine = StreamEngine::new(&twin, &wf, StreamConfig::default());
    engine.open();
    engine.push(3, &[1.0]);
}

#[test]
#[should_panic(expected = "session: unknown session id")]
fn session_lookup_of_an_unknown_id_panics_with_context() {
    let (twin, _bank) = setup_bank(1, 7);
    let nt = twin.solver.grid.nt_obs;
    let wf = twin.windowed(&[nt]);
    let engine = StreamEngine::new(&twin, &wf, StreamConfig::default());
    engine.session(42);
}

#[test]
#[should_panic(expected = "enqueue: unknown session id")]
fn enqueue_for_an_unknown_id_panics_with_context() {
    let (twin, _bank) = setup_bank(1, 7);
    let nt = twin.solver.grid.nt_obs;
    let wf = twin.windowed(&[nt]);
    let engine = StreamEngine::new(&twin, &wf, StreamConfig::default());
    engine.enqueue(9, &[1.0]);
}

// ---------------------------------------------------------------------------
// Goal-oriented forecast backend
// ---------------------------------------------------------------------------

use tsunami_core::GoalOptions;

#[test]
fn goal_oriented_exact_ladder_bit_matches_the_windowed_engine() {
    // Drive the same ragged streams through the windowed engine and a
    // goal-oriented engine over the *exact* (uncompressed) ladder. The
    // exact ladder's fold is a copy and its materialization runs the
    // same GEMM kernel over the same operator, so every stored forecast
    // must agree bit for bit, tick by tick.
    let (twin, bank) = setup_bank(3, 31);
    let nt = twin.solver.grid.nt_obs;
    let ladder = [2, nt / 2, nt];
    let wf = twin.windowed(&ladder);
    let gl = twin.goal_ladder(&ladder, &GoalOptions::exact());

    let win_cfg = StreamConfig {
        infer: false,
        ..StreamConfig::default()
    };
    let mut windowed = StreamEngine::new(&twin, &wf, win_cfg);
    let mut goal = StreamEngine::goal_oriented(&twin, &gl, win_cfg);
    let ids: Vec<usize> = (0..bank.len()).map(|_| windowed.open()).collect();
    for _ in 0..bank.len() {
        goal.open();
    }

    let horizon = twin.n_data();
    let mut fed = 0;
    while fed < horizon {
        let hi = (fed + 3).min(horizon);
        for (s, &id) in ids.iter().enumerate() {
            windowed.push(id, &bank.observations().col(s)[fed..hi]);
            goal.push(id, &bank.observations().col(s)[fed..hi]);
        }
        fed = hi;
        windowed.tick();
        let tg = goal.tick();
        assert_eq!(tg.samples_scored, 0, "no bank attached: nothing to score");

        for &id in &ids {
            let (sw, sg) = (windowed.session(id), goal.session(id));
            assert_eq!(sw.window(), sg.window(), "ladder position diverged");
            if let (Some(fw), Some(fg)) = (sw.forecast.as_ref(), sg.forecast.as_ref()) {
                assert_eq!(fw.q_map, fg.q_map, "exact ladder must bit-match");
                assert_eq!(fw.q_std, fg.q_std);
            }
            assert_eq!(sw.level, sg.level);
        }
    }
    // The goal path folded every sample exactly once and skipped the
    // parameter inference entirely.
    assert_eq!(goal.metrics().samples_ingested, bank.len() * horizon);
    for &id in &ids {
        assert!(
            goal.session(id).m_norm.is_none(),
            "goal path must not infer"
        );
        assert!(windowed.session(id).m_norm.is_none(), "infer was disabled");
    }
}

#[test]
fn goal_oriented_truncated_ladder_stays_within_the_rung_bound() {
    // A rank-truncated ladder's live forecasts must stay within the
    // certified per-rung truncation bound of the dense windowed one-shot
    // forecast: ‖q̂ − q‖₂ ≤ trunc_bound · ‖d_w‖₂.
    let (twin, bank) = setup_bank(2, 41);
    let nt = twin.solver.grid.nt_obs;
    let nd = twin.solver.sensors.len();
    let ladder = [2, nt / 2, nt];
    let wf = twin.windowed(&ladder);
    let gl = twin.goal_ladder(&ladder, &GoalOptions::rank(4));
    let d_full = bank.observations().col(1);

    let mut engine = StreamEngine::goal_oriented(&twin, &gl, StreamConfig::default());
    let id = engine.open();
    let mut fed = 0;
    while fed < d_full.len() {
        let hi = (fed + 3).min(d_full.len());
        engine.push(id, &d_full[fed..hi]);
        fed = hi;
        engine.tick();
        if let Some(w) = engine.session(id).window() {
            let k = wf.windows[w] * nd;
            let dense = wf.forecast(w, &d_full[..k]);
            let live = engine.session(id).forecast.as_ref().unwrap();
            let err: f64 = live
                .q_map
                .iter()
                .zip(&dense.q_map)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
                .sqrt();
            let d_norm = d_full[..k].iter().map(|v| v * v).sum::<f64>().sqrt();
            let bound = gl.mean_error_bound(w, d_norm);
            assert!(gl.rungs[w].trunc_bound > 0.0, "rung {w} should truncate");
            assert!(
                err <= bound + 1e-12,
                "rung {w}: error {err} exceeds certified bound {bound}"
            );
            assert_eq!(live.q_std, dense.q_std, "stds are precomputed exactly");
        }
    }
    assert_eq!(engine.session(id).window(), Some(ladder.len() - 1));
}

#[test]
fn goal_backend_crossing_two_rungs_in_one_tick_lands_on_the_widest() {
    // A single push spanning two ladder rungs must assimilate at the
    // widest in one tick — bit-identical to the one-shot goal forecast
    // from the same prefix. Exact rungs read the ring, so nothing folds.
    let (twin, bank) = setup_bank(1, 13);
    let nt = twin.solver.grid.nt_obs;
    let nd = twin.solver.sensors.len();
    let ladder = [1, 2, nt];
    let gl = twin.goal_ladder(&ladder, &GoalOptions::exact());
    let d_full = bank.observations().col(0);

    let mut engine = StreamEngine::goal_oriented(&twin, &gl, StreamConfig::default());
    let id = engine.open();
    // Cross rungs 0 (1 step) and 1 (2 steps) with one push, one tick.
    engine.push(id, &d_full[..2 * nd + 1]);
    let tm = engine.tick();
    assert_eq!(engine.session(id).window(), Some(1), "must land on rung 1");
    assert_eq!(tm.sessions_assimilated, 1, "one assimilation, not two");
    assert_eq!(tm.samples_folded, 0, "exact rungs fold nothing");

    let k = gl.windows[1] * nd;
    let one_shot = gl.forecast_batch(
        1,
        &tsunami_linalg::DMatrix::from_vec(k, 1, d_full[..k].to_vec()),
    );
    let live = engine.session(id).forecast.as_ref().unwrap();
    assert_eq!(live.q_map, one_shot.q_map.as_slice());
    assert_eq!(live.q_std, one_shot.q_std);

    // Finish the stream: the full-horizon rung must also bit-match.
    engine.push(id, &d_full[2 * nd + 1..]);
    engine.tick();
    assert_eq!(engine.session(id).window(), Some(2));
    let one_shot = gl.forecast_batch(
        2,
        &tsunami_linalg::DMatrix::from_vec(d_full.len(), 1, d_full.clone()),
    );
    let live = engine.session(id).forecast.as_ref().unwrap();
    assert_eq!(live.q_map, one_shot.q_map.as_slice());

    // A session that walks the rungs one step per tick lands bit for bit
    // where the jumping one did: the whitened data are a prefix of one
    // forward sweep, and every segment is lifted and added in the same
    // order. Both sessions share one tick at the end, as a jumper and a
    // walker with different previous rungs and cursors.
    let mut walker = StreamEngine::goal_oriented(&twin, &gl, StreamConfig::default());
    let (jump, walk) = (walker.open(), walker.open());
    for step in 1..nt {
        walker.push(walk, &d_full[(step - 1) * nd..step * nd]);
        walker.tick();
    }
    assert_eq!(walker.session(walk).window(), Some(1));
    walker.push(jump, &d_full);
    walker.push(walk, &d_full[(nt - 1) * nd..]);
    walker.tick();
    for s in [jump, walk] {
        assert_eq!(walker.session(s).window(), Some(2));
        let fc = walker.session(s).forecast.as_ref().unwrap();
        assert_eq!(fc.q_map, live.q_map, "session {s}");
        assert_eq!(fc.q_std, live.q_std);
    }
}

#[test]
fn mixed_ladder_engine_lifts_its_exact_run_and_folds_the_rest() {
    // Rank nd keeps the one-step rung exact (its full rank) and compresses
    // the wider rungs: the engine whitens for the leading exact rung and
    // folds for the others. The exact rung bit-matches the exact ladder's
    // one-shot forecast; the compressed rungs stay within their bound.
    let (twin, bank) = setup_bank(2, 19);
    let nt = twin.solver.grid.nt_obs;
    let nd = twin.solver.sensors.len();
    let ladder = [1, nt / 2, nt];
    let wf = twin.windowed(&ladder);
    let gl = twin.goal_ladder(&ladder, &GoalOptions::rank(nd));
    assert_eq!(gl.whitened_run(), 1);
    for shards in [1usize, 2] {
        let cfg = StreamConfig {
            shards,
            ..StreamConfig::default()
        };
        let mut engine = StreamEngine::goal_oriented(&twin, &gl, cfg);
        let ids: Vec<usize> = (0..bank.len()).map(|_| engine.open()).collect();
        let mut fed = 0;
        while fed < twin.n_data() {
            let hi = (fed + 5).min(twin.n_data());
            for (j, &id) in ids.iter().enumerate() {
                engine.push(id, &bank.observations().col(j)[fed..hi]);
            }
            fed = hi;
            engine.tick();
            for (j, &id) in ids.iter().enumerate() {
                let Some(w) = engine.session(id).window() else {
                    continue;
                };
                let k = ladder[w] * nd;
                let d = &bank.observations().col(j)[..k];
                let live = engine.session(id).forecast.as_ref().unwrap();
                let dense = wf.forecast(w, d);
                assert_eq!(live.q_std, dense.q_std);
                if w == 0 {
                    assert_eq!(live.q_map, dense.q_map, "exact rung must bit-match");
                } else {
                    let err = rel_err(&live.q_map, &dense.q_map)
                        * dense.q_map.iter().map(|v| v * v).sum::<f64>().sqrt();
                    let d_norm = d.iter().map(|v| v * v).sum::<f64>().sqrt();
                    let bound = gl.mean_error_bound(w, d_norm);
                    assert!(err <= bound + 1e-12, "rung {w}: {err} > {bound}");
                }
            }
        }
        assert!(ids
            .iter()
            .all(|&id| engine.session(id).window() == Some(ladder.len() - 1)));
    }
}

#[test]
fn goal_rung_fold_state_is_clean_on_a_reused_generation_stamped_slot() {
    // A truncated-ladder fold *accumulates* (z += Rᵀd), so any stale
    // state left on a reused slot — or a stale inbox batch leaking past
    // its generation stamp — would silently corrupt the next event's
    // forecast. Open → fold → enqueue → close → reopen mid-stream must
    // leave the reused slot bit-identical to a fresh engine fed the same
    // second event.
    let (twin, bank) = setup_bank(2, 17);
    let nt = twin.solver.grid.nt_obs;
    let gl = twin.goal_ladder(&[2, nt], &GoalOptions::rank(4));

    let mut engine = StreamEngine::goal_oriented(&twin, &gl, StreamConfig::default());
    let id = engine.open();
    // First event: fold some samples, stage more in the inbox, then end
    // the event with the batch still staged.
    engine.push(id, &bank.observations().col(0)[..9]);
    engine.tick();
    assert!(engine.session(id).forecast.is_some());
    engine.enqueue(id, &bank.observations().col(0)[9..15]);
    engine.close(id);

    // Second event reuses the slot (same id, fresh generation).
    let reused = engine.open();
    assert_eq!(reused, id, "slot must be reused with the same id");

    // A fresh engine sees only the second event, same cadence.
    let mut fresh = StreamEngine::goal_oriented(&twin, &gl, StreamConfig::default());
    let fresh_id = fresh.open();

    let d = bank.observations().col(1);
    let mut fed = 0;
    while fed < d.len() {
        let hi = (fed + 7).min(d.len());
        engine.push(reused, &d[fed..hi]);
        fresh.push(fresh_id, &d[fed..hi]);
        fed = hi;
        engine.tick();
        fresh.tick();
    }
    let (fa, fb) = (
        engine.session(reused).forecast.as_ref().unwrap(),
        fresh.session(fresh_id).forecast.as_ref().unwrap(),
    );
    assert_eq!(
        fa.q_map, fb.q_map,
        "reused slot's fold state contaminated the new event"
    );
    assert_eq!(engine.session(reused).samples(), d.len());
}

#[test]
fn goal_backend_is_invariant_in_the_shard_count() {
    // Folds update each session's state with the same per-stream
    // arithmetic whatever its group, and the materialization GEMM acts
    // columnwise, so K-shard and 1-shard goal-oriented ticks must agree
    // bit for bit — on a truncated ladder, where the fold actually
    // accumulates, with the bank scored alongside under both backends.
    let (twin, bank) = setup_bank(6, 29);
    let nt = twin.solver.grid.nt_obs;
    let gl = twin.goal_ladder(&[2, nt / 2, nt], &GoalOptions::rank(4));
    let pod = bank.compress(4);

    for identify in [IdentifyBackend::Exact, IdentifyBackend::ModeSpace] {
        for step in SHARD_PUSH_STEPS {
            let run = |shards: usize| {
                let cfg = StreamConfig {
                    shards,
                    identify,
                    ..StreamConfig::default()
                };
                let mut engine = StreamEngine::goal_oriented(&twin, &gl, cfg)
                    .with_bank(&bank)
                    .with_pod(&pod);
                replay_lockstep(&mut engine, &bank, step)
            };
            let base = run(1);
            for shards in [2usize, 4] {
                assert_eq!(
                    run(shards),
                    base,
                    "{identify:?}, {step}-sample pushes: goal ladder at {shards} shards"
                );
            }
        }
    }
}

#[test]
fn rewind_replay_is_bit_identical_to_a_fresh_engine_under_both_backends() {
    // rewind() must reset the goal fold state alongside the ladder
    // position: replaying after a rewind has to refold [0, filled) in
    // one pass, exactly like a fresh engine that received the whole
    // stream in one push. Without the reset the truncated fold would
    // double-count every sample.
    let (twin, bank) = setup_bank(2, 53);
    let nt = twin.solver.grid.nt_obs;
    let ladder = [2, nt / 2, nt];
    let wf = twin.windowed(&ladder);
    let gl_exact = twin.goal_ladder(&ladder, &GoalOptions::exact());
    let gl_trunc = twin.goal_ladder(&ladder, &GoalOptions::rank(4));
    let d_full = bank.observations().col(0);

    let check = |mut live: StreamEngine<'_>, mut fresh: StreamEngine<'_>, tag: &str| {
        let id = live.open();
        let mut fed = 0;
        while fed < d_full.len() {
            let hi = (fed + 5).min(d_full.len());
            live.push(id, &d_full[fed..hi]);
            fed = hi;
            live.tick();
        }
        live.rewind();
        let tm = live.tick();
        assert_eq!(
            tm.sessions_assimilated, 1,
            "{tag}: rewind must re-assimilate"
        );

        let fid = fresh.open();
        fresh.push(fid, &d_full);
        fresh.tick();

        let (fa, fb) = (
            live.session(id).forecast.as_ref().unwrap(),
            fresh.session(fid).forecast.as_ref().unwrap(),
        );
        assert_eq!(fa.q_map, fb.q_map, "{tag}: replay diverged from fresh");
        assert_eq!(fa.q_std, fb.q_std, "{tag}: stds diverged");
    };

    // The whitened (exact) rungs keep the whitened data across the
    // rewind and restart only the lift, at every shard count.
    for shards in [1usize, 2, 4] {
        let cfg = StreamConfig {
            shards,
            ..StreamConfig::default()
        };
        check(
            StreamEngine::new(&twin, &wf, cfg),
            StreamEngine::new(&twin, &wf, cfg),
            &format!("windowed, {shards} shards"),
        );
    }
    let cfg = StreamConfig::default();
    check(
        StreamEngine::goal_oriented(&twin, &gl_exact, cfg),
        StreamEngine::goal_oriented(&twin, &gl_exact, cfg),
        "goal-exact",
    );
    check(
        StreamEngine::goal_oriented(&twin, &gl_trunc, cfg),
        StreamEngine::goal_oriented(&twin, &gl_trunc, cfg),
        "goal-truncated",
    );
}

#[test]
fn exact_goal_ladder_carries_no_fold_state_and_bit_matches_the_windowed_engine() {
    // An exact rung's lift input is the whitened data: the engine keeps
    // no per-session fold state for it, and feeds the same values to the
    // same GEMMs as the windowed engine — at every push granularity and
    // shard count, inference norms included.
    let (twin, bank) = setup_bank(5, 23);
    let nt = twin.solver.grid.nt_obs;
    let ladder = [2, nt / 2, nt];
    let wf = twin.windowed(&ladder);
    let gl = twin.goal_ladder(&ladder, &GoalOptions::exact());
    let horizon = twin.n_data();

    for shards in [1usize, 2, 4] {
        for step in [1, 7, horizon] {
            let cfg = StreamConfig {
                shards,
                ..StreamConfig::default()
            };
            let mut windowed = StreamEngine::new(&twin, &wf, cfg);
            let mut goal = StreamEngine::goal_oriented(&twin, &gl, cfg);
            let ids: Vec<usize> = (0..bank.len()).map(|_| windowed.open()).collect();
            for &id in &ids {
                assert_eq!(goal.open(), id);
                assert!(
                    goal.session(id).fold_state().is_empty(),
                    "exact rungs must not allocate fold state"
                );
            }
            let mut fed = 0;
            while fed < horizon {
                let hi = (fed + step).min(horizon);
                for (j, &id) in ids.iter().enumerate() {
                    windowed.push(id, &bank.observations().col(j)[fed..hi]);
                    goal.push(id, &bank.observations().col(j)[fed..hi]);
                }
                fed = hi;
                let (tw, tg) = (windowed.tick(), goal.tick());
                assert_eq!(tw.sessions_assimilated, tg.sessions_assimilated);
                assert_eq!(tw.peak_panel_elems, tg.peak_panel_elems);
                for &id in &ids {
                    let (sw, sg) = (windowed.session(id), goal.session(id));
                    assert_eq!(sw.window(), sg.window());
                    assert_eq!(
                        sw.forecast.as_ref().map(|f| (&f.q_map, &f.q_std)),
                        sg.forecast.as_ref().map(|f| (&f.q_map, &f.q_std)),
                        "{shards} shards, step {step}: exact ladder must bit-match"
                    );
                    assert_eq!(sw.m_norm, sg.m_norm);
                    assert_eq!(sw.level, sg.level);
                }
            }
            assert_eq!(goal.session(ids[0]).window(), Some(ladder.len() - 1));
        }
    }
}

#[test]
fn audit_ring_caps_retention_and_evicts_oldest_first() {
    // A hazardous scenario on a two-rung ladder produces at least one
    // transition per replay; rewind-replaying it K times with a
    // capacity-2 ring must retain exactly the two newest transitions
    // while the totals keep counting everything that ever happened.
    let (twin, bank) = setup_bank(6, 7);
    let nt = twin.solver.grid.nt_obs;
    let wf = twin.windowed(&[1, nt]);
    let cfg = StreamConfig {
        warn_threshold: 1e-6, // everything trips Warning immediately
        infer: false,
        audit_capacity: 2,
        ..StreamConfig::default()
    };
    let mut engine = StreamEngine::new(&twin, &wf, cfg);
    let id = engine.open();
    engine.push(id, &bank.observations().col(0));

    let replays: u64 = 5;
    engine.tick();
    for _ in 1..replays {
        engine.rewind();
        engine.tick();
    }
    let per_replay = engine.audit().total() / replays;
    assert!(per_replay >= 1, "replay produced no transitions");
    assert_eq!(engine.audit().len(), 2, "ring must cap at its capacity");
    assert_eq!(engine.audit().capacity(), 2);
    assert_eq!(
        engine.audit().evicted(),
        engine.audit().total() - 2,
        "every older transition must be accounted as evicted"
    );
    // Retained entries are the newest: their tick stamps are the largest
    // recorded, in nondecreasing order.
    let ticks: Vec<u64> = engine.audit().iter().map(|t| t.tick).collect();
    assert!(ticks.windows(2).all(|w| w[0] <= w[1]));
    assert_eq!(ticks.last().copied(), Some(replays - 1));
}

#[test]
fn rewind_replay_reproduces_the_audit_trail_of_a_fresh_engine() {
    // The audit ring's rewind contract: levels reset to all-clear, so a
    // rewound replay re-classifies from scratch and must record exactly
    // the transitions a fresh engine records on the same data — same
    // order, same bands, same posteriors (only the tick stamps differ).
    let (twin, bank) = setup_bank(4, 7);
    let nt = twin.solver.grid.nt_obs;
    let wf = twin.windowed(&[1, nt]);
    let cfg = StreamConfig {
        warn_threshold: 0.5,
        infer: false,
        ..StreamConfig::default()
    };
    let strip_tick = |e: &StreamEngine<'_>, skip: usize| -> Vec<_> {
        e.audit()
            .iter()
            .skip(skip)
            .map(|t| {
                let mut t = *t;
                t.tick = 0;
                t
            })
            .collect()
    };

    let mut live = StreamEngine::new(&twin, &wf, cfg).with_bank(&bank);
    let ids: Vec<usize> = (0..bank.len()).map(|_| live.open()).collect();
    for (j, &id) in ids.iter().enumerate() {
        live.push(id, &bank.observations().col(j));
    }
    live.tick();
    let first = strip_tick(&live, 0);
    assert!(!first.is_empty(), "threshold must trip some transitions");

    // Replay on the same engine: the new trail segment must repeat the
    // first one exactly.
    live.rewind();
    live.tick();
    assert_eq!(strip_tick(&live, first.len()), first);

    // And a fresh engine fed identically must produce the same trail.
    let mut fresh = StreamEngine::new(&twin, &wf, cfg).with_bank(&bank);
    let fresh_ids: Vec<usize> = (0..bank.len()).map(|_| fresh.open()).collect();
    for (j, &id) in fresh_ids.iter().enumerate() {
        fresh.push(id, &bank.observations().col(j));
    }
    fresh.tick();
    assert_eq!(strip_tick(&fresh, 0), first);
}

#[test]
fn audit_top_scenario_is_the_first_ranked_match_under_both_backends() {
    // The audit record's top scenario and `ranked_matches` read one
    // posterior: right after the tick that classified a transition, the
    // record's `(scenario, probability)` is the first ranked match, bit
    // for bit — under exact and under mode-space identification.
    let (twin, bank) = setup_bank(5, 11);
    let nt = twin.solver.grid.nt_obs;
    let wf = twin.windowed(&[1, nt / 2, nt]);
    let pod = bank.compress(3);
    let horizon = twin.n_data();
    for backend in [IdentifyBackend::Exact, IdentifyBackend::ModeSpace] {
        let cfg = StreamConfig {
            warn_threshold: 0.5,
            infer: false,
            identify: backend,
            ..StreamConfig::default()
        };
        let mut engine = StreamEngine::new(&twin, &wf, cfg).with_bank(&bank);
        if backend == IdentifyBackend::ModeSpace {
            engine = engine.with_pod(&pod);
        }
        let ids: Vec<usize> = (0..bank.len()).map(|_| engine.open()).collect();
        let (mut fed, mut checked) = (0, 0);
        while fed < horizon {
            let hi = (fed + 5).min(horizon);
            for (j, &id) in ids.iter().enumerate() {
                engine.push(id, &bank.observations().col(j)[fed..hi]);
            }
            fed = hi;
            let before = engine.audit().len();
            engine.tick();
            for t in engine.audit().iter().skip(before) {
                let top = engine.ranked_matches(t.session)[0];
                let (scenario, p) = t.top_scenario.expect("bank attached");
                assert_eq!(
                    (scenario, p.to_bits()),
                    (top.scenario, top.probability.to_bits()),
                    "{backend:?}: session {} at tick {}",
                    t.session,
                    t.tick
                );
                checked += 1;
            }
        }
        assert_eq!(engine.audit().evicted(), 0, "every record was checked");
        assert!(checked > 0, "{backend:?}: threshold must trip transitions");
    }
}

// ---------------------------------------------------------------------------
// Mode-space assimilation backend
// ---------------------------------------------------------------------------

use tsunami_core::{ModeSpaceOptions, RungLadder};
use tsunami_linalg::{randomized_svd, svd::orthonormalize, DMatrix, SvdOptions};
use tsunami_stream::{forecast_band, TickPath};

/// A deterministic complete orthogonal basis of the data space: every
/// rung restriction has orthonormal rows, so mode-space assimilation
/// must reproduce the windowed engine on arbitrary data.
fn complete_basis(n: usize) -> DMatrix {
    let mut m = DMatrix::from_fn(n, n, |i, j| {
        if i == j {
            1.0
        } else {
            0.3 * ((i * 7 + j * 3) as f64 * 0.41).sin()
        }
    });
    let kept = orthonormalize(&mut m);
    assert_eq!(kept, n, "basis must be complete");
    m
}

/// A genuinely rank-`r` basis: leading SVD modes of a smooth block plus
/// a small identity shift (the smooth part alone has numerical rank 4,
/// which would silently clip every requested rank to 4).
fn truncated_basis(n: usize, r: usize) -> DMatrix {
    let block = DMatrix::from_fn(n, n, |i, j| {
        let smooth =
            ((i * 3 + 2 * j) as f64 * 0.11).sin() + 0.4 * ((i + 5 * j) as f64 * 0.07).cos();
        smooth + if i == j { 0.05 } else { 0.0 }
    });
    let u = randomized_svd(&block, r, SvdOptions::default()).u;
    assert_eq!(u.ncols(), r, "generator block must have rank >= {r}");
    u
}

#[test]
fn mode_space_engine_matches_the_windowed_engine_on_a_complete_basis() {
    // Same ragged streams (3-sample pushes, tick after every push)
    // through the windowed engine and a mode-space engine over a square
    // orthogonal basis. Every rung restriction then has full row rank,
    // so forecasts, inference norms, and warning levels must agree
    // within cancellation slack — and the stds bitwise (they are carried
    // over untouched from the windowed operators).
    let (twin, bank) = setup_bank(3, 31);
    let nt = twin.solver.grid.nt_obs;
    let ladder = [2, nt / 2, nt];
    let wf = twin.windowed(&ladder);
    let opts = ModeSpaceOptions { inference: true };
    let ms = twin.mode_space_ladder(&ladder, &complete_basis(twin.n_data()), &opts);
    let cfg = StreamConfig::default();
    let mut exact = StreamEngine::new(&twin, &wf, cfg);
    let mut reduced = StreamEngine::mode_space(&twin, &ms, cfg);

    let ids: Vec<(usize, usize)> = (0..bank.len())
        .map(|_| (exact.open(), reduced.open()))
        .collect();
    let horizon = twin.n_data();
    let mut fed = 0;
    while fed < horizon {
        let hi = (fed + 3).min(horizon);
        for (j, &(ea, ra)) in ids.iter().enumerate() {
            let d = bank.observations().col(j);
            exact.push(ea, &d[fed..hi]);
            reduced.push(ra, &d[fed..hi]);
        }
        fed = hi;
        exact.tick();
        reduced.tick();
    }

    for &(ea, ra) in &ids {
        let (se, sr) = (exact.session(ea), reduced.session(ra));
        assert_eq!(sr.window(), se.window(), "rung positions must agree");
        let (fe, fr) = (se.forecast.as_ref().unwrap(), sr.forecast.as_ref().unwrap());
        assert!(
            rel_err(&fr.q_map, &fe.q_map) < 1e-9,
            "complete-basis mode-space forecast drifted: {}",
            rel_err(&fr.q_map, &fe.q_map)
        );
        assert_eq!(fr.q_std, fe.q_std, "stds must carry over bitwise");
        assert_eq!(sr.level, se.level);
        let (me, mr) = (se.m_norm.unwrap(), sr.m_norm.unwrap());
        assert!(
            (mr - me).abs() < 1e-8 * me.max(1e-12),
            "reduced inference norm drifted: {mr} vs {me}"
        );
    }
}

#[test]
fn shared_fold_projects_each_sample_once_and_matches_the_non_shared_fold() {
    // With identification and assimilation both in mode space over the
    // same basis, the engine folds each drained sample into the shared
    // projection exactly once per tick: the samples_projected counter
    // must equal the number of samples pushed (a double fold would count
    // every row twice). And because the non-shared path segments its own
    // fold at the same rung boundaries, an exact-identify engine over
    // the same ladder must produce bitwise-identical forecasts.
    let (twin, bank) = setup_bank(6, 37);
    let nt = twin.solver.grid.nt_obs;
    let ladder = [2, nt / 2, nt];
    let pod = bank.compress(4);
    let ms = twin.mode_space_ladder(&ladder, pod.modes(), &ModeSpaceOptions::default());

    let run = |identify: IdentifyBackend| {
        let cfg = StreamConfig {
            identify,
            infer: false,
            ..StreamConfig::default()
        };
        let mut engine = StreamEngine::mode_space(&twin, &ms, cfg).with_bank(&bank);
        if identify == IdentifyBackend::ModeSpace {
            engine = engine.with_pod(&pod);
        }
        let ids: Vec<usize> = (0..bank.len()).map(|_| engine.open()).collect();
        let horizon = twin.n_data();
        let mut projected = 0;
        let mut fed = 0;
        while fed < horizon {
            let hi = (fed + 5).min(horizon);
            for (j, &id) in ids.iter().enumerate() {
                engine.push(id, &bank.observations().col(j)[fed..hi]);
            }
            fed = hi;
            projected += engine.tick().samples_projected;
        }
        let forecasts: Vec<(Vec<f64>, Vec<f64>)> = ids
            .iter()
            .map(|&id| {
                let f = engine.session(id).forecast.as_ref().unwrap();
                (f.q_map.clone(), f.q_std.clone())
            })
            .collect();
        (projected, forecasts)
    };

    let total = bank.len() * twin.n_data();
    let (shared_projected, shared_fc) = run(IdentifyBackend::ModeSpace);
    assert_eq!(
        shared_projected, total,
        "shared fold must project each drained sample exactly once"
    );
    let (plain_projected, plain_fc) = run(IdentifyBackend::Exact);
    assert_eq!(plain_projected, total);
    for (j, (a, b)) in shared_fc.iter().zip(&plain_fc).enumerate() {
        assert_eq!(a.0, b.0, "session {j}: shared/non-shared folds diverged");
        assert_eq!(a.1, b.1);
    }
}

#[test]
fn mode_space_panels_report_the_rank_sized_working_set() {
    // A rank-8 mode-space tick never materializes the k-row window
    // panel: the recorded peak working set is max(r·b, Nq·Nt·b), strictly
    // below the windowed engine's k·b gather for the same batch.
    let (twin, bank) = setup_bank(10, 41);
    let nt = twin.solver.grid.nt_obs;
    let r = 8;
    let wf = twin.windowed(&[nt]);
    let ms = twin.mode_space_ladder(
        &[nt],
        &truncated_basis(twin.n_data(), r),
        &ModeSpaceOptions::default(),
    );
    let cfg = StreamConfig {
        infer: false,
        ..StreamConfig::default()
    };
    let mut exact = StreamEngine::new(&twin, &wf, cfg);
    let mut reduced = StreamEngine::mode_space(&twin, &ms, cfg);
    for j in 0..bank.len() {
        let (ea, ra) = (exact.open(), reduced.open());
        exact.push(ea, &bank.observations().col(j));
        reduced.push(ra, &bank.observations().col(j));
    }
    let tm_exact = exact.tick();
    let tm_reduced = reduced.tick();

    let b = bank.len();
    let nq = wf.q_stds[0].len();
    assert_eq!(
        tm_reduced.peak_panel_elems,
        (r * b).max(nq * b),
        "mode-space peak must be the reduced working set"
    );
    assert_eq!(tm_exact.peak_panel_elems, (twin.n_data() * b).max(nq * b));
    assert!(
        tm_reduced.peak_panel_elems < tm_exact.peak_panel_elems,
        "rank-sized tick must shrink the working set: {} vs {}",
        tm_reduced.peak_panel_elems,
        tm_exact.peak_panel_elems
    );
    assert_eq!(
        reduced.shard_panel_peaks().into_iter().max(),
        Some(tm_reduced.peak_panel_elems),
        "per-shard peaks must record the reduced panel too"
    );
}

/// An engine constructor, so one test body can drive several tick paths.
type Build = for<'a> fn(&'a DigitalTwin, &'a RungLadder, StreamConfig) -> StreamEngine<'a>;

#[test]
fn truncated_warnings_flip_only_within_the_certified_bound() {
    // The decision-boundary contract: a truncated engine — a rank-5
    // mode-space basis or a rank-5 goal-oriented compression — may
    // classify a session differently from the dense windowed path only
    // when the dense credible band sits within the rung's certified
    // forecast-error bound of the threshold, and its forecast must stay
    // within that bound. Checked at shard counts 1/2/4, at a threshold
    // pinned to a dense band endpoint (the worst case) and at generic
    // thresholds.
    let (twin, bank) = setup_bank(8, 47);
    let nt = twin.solver.grid.nt_obs;
    let pod = bank.compress(5);
    let ms = twin.mode_space_ladder(&[nt], pod.modes(), &ModeSpaceOptions::default());
    let gl = twin.goal_ladder(&[nt], &GoalOptions::rank(5));
    let wf = twin.windowed(&[nt]);

    // Dense reference forecasts and bands.
    let dense: Vec<_> = (0..bank.len())
        .map(|j| wf.forecast(0, &bank.observations().col(j)))
        .collect();
    let bands: Vec<(f64, f64)> = dense.iter().map(forecast_band).collect();
    let hi_max = bands.iter().fold(0.0f64, |m, b| m.max(b.1));

    let ladders: [(&str, &RungLadder, Build); 2] = [
        ("mode-space", &ms, |t, l, c| {
            StreamEngine::mode_space(t, l, c)
        }),
        ("goal", &gl, |t, l, c| StreamEngine::goal_oriented(t, l, c)),
    ];
    for (label, ladder, build) in ladders {
        assert!(
            ladder.rungs[0].trunc_bound > 0.0,
            "rank-5 {label} ladder should actually truncate"
        );
        // Per-session certified bounds.
        let bounds: Vec<f64> = (0..bank.len())
            .map(|j| {
                let d = bank.observations().col(j);
                let d_norm = d.iter().map(|v| v * v).sum::<f64>().sqrt();
                ladder.mean_error_bound(0, d_norm)
            })
            .collect();
        let bound_max = bounds.iter().fold(0.0f64, |m, &b| m.max(b));
        let thresholds = [
            bands[0].1,               // pinned to a dense endpoint
            0.5 * hi_max,             // generic, inside the range
            1.1 * hi_max + bound_max, // beyond every band: all-clear everywhere
        ];

        for thr in thresholds {
            let mut per_shard: Vec<Vec<(WarningLevel, Vec<f64>)>> = Vec::new();
            for shards in [1usize, 2, 4] {
                let cfg = StreamConfig {
                    shards,
                    infer: false,
                    warn_threshold: thr,
                    ..StreamConfig::default()
                };
                let mut engine = build(&twin, ladder, cfg);
                let ids: Vec<usize> = (0..bank.len()).map(|_| engine.open()).collect();
                for (j, &id) in ids.iter().enumerate() {
                    engine.push(id, &bank.observations().col(j));
                }
                engine.tick();
                per_shard.push(
                    ids.iter()
                        .map(|&id| {
                            let s = engine.session(id);
                            (s.level, s.forecast.as_ref().unwrap().q_map.clone())
                        })
                        .collect(),
                );

                for (j, &(level, ref q)) in per_shard.last().unwrap().iter().enumerate() {
                    let dense_level = tsunami_stream::classify_band(bands[j], thr);
                    let margin = (bands[j].0 - thr).abs().min((bands[j].1 - thr).abs());
                    let certified = bounds[j] * (1.0 + 1e-9) + 1e-12;
                    let err = q
                        .iter()
                        .zip(&dense[j].q_map)
                        .map(|(a, b)| (a - b) * (a - b))
                        .sum::<f64>()
                        .sqrt();
                    assert!(
                        err <= certified,
                        "{label}, {shards} shards, session {j}: forecast error {err} \
                         exceeds certified bound {certified}"
                    );
                    if level != dense_level {
                        assert!(
                            margin <= certified,
                            "{label}, {shards} shards, session {j}, thr {thr}: level \
                             flipped ({dense_level:?} → {level:?}) with dense margin \
                             {margin} outside certified bound {certified}"
                        );
                    }
                    if margin > certified {
                        assert_eq!(
                            level, dense_level,
                            "{label}, {shards} shards, session {j}, thr {thr}: \
                             certified-safe session must not flip"
                        );
                    }
                }
            }
            // Shard invariance: forecasts to roundoff, levels exactly.
            for shard_res in &per_shard[1..] {
                for (j, ((la, qa), (lb, qb))) in per_shard[0].iter().zip(shard_res).enumerate() {
                    assert_eq!(
                        la, lb,
                        "{label}, session {j}: level must be shard-invariant"
                    );
                    assert!(rel_err(qb, qa) < 1e-12, "{label}, session {j}: shard drift");
                }
            }
        }
    }
}

#[test]
fn mode_space_rewind_replay_is_bit_identical_to_a_fresh_engine() {
    // rewind() must zero the per-rung fold snapshots (and, under shared
    // folding, the identification projection they alias): replaying after
    // a rewind refolds [0, filled) segmented only at rung boundaries,
    // exactly like a fresh engine that received the whole stream in one
    // push — forecasts, levels, and the post-rewind audit-trail segment
    // must match bit for bit.
    let (twin, bank) = setup_bank(4, 53);
    let nt = twin.solver.grid.nt_obs;
    let ladder = [2, nt / 2, nt];
    let pod = bank.compress(4);
    let ms = twin.mode_space_ladder(&ladder, pod.modes(), &ModeSpaceOptions::default());
    let strip_tick = |e: &StreamEngine<'_>, skip: usize| -> Vec<_> {
        e.audit()
            .iter()
            .skip(skip)
            .map(|t| {
                let mut t = *t;
                t.tick = 0;
                t
            })
            .collect()
    };

    let check = |mut live: StreamEngine<'_>, mut fresh: StreamEngine<'_>, tag: &str| {
        let ids: Vec<usize> = (0..bank.len()).map(|_| live.open()).collect();
        let horizon = twin.n_data();
        let mut fed = 0;
        while fed < horizon {
            let hi = (fed + 5).min(horizon);
            for (j, &id) in ids.iter().enumerate() {
                live.push(id, &bank.observations().col(j)[fed..hi]);
            }
            fed = hi;
            live.tick();
        }
        let pre_rewind = live.audit().len();
        live.rewind();
        let tm = live.tick();
        assert_eq!(tm.sessions_assimilated, bank.len(), "{tag}: replay");

        let fresh_ids: Vec<usize> = (0..bank.len()).map(|_| fresh.open()).collect();
        for (j, &id) in fresh_ids.iter().enumerate() {
            fresh.push(id, &bank.observations().col(j));
        }
        fresh.tick();

        for (&la, &fa) in ids.iter().zip(&fresh_ids) {
            let (sl, sf) = (live.session(la), fresh.session(fa));
            let (fl, ff) = (sl.forecast.as_ref().unwrap(), sf.forecast.as_ref().unwrap());
            assert_eq!(fl.q_map, ff.q_map, "{tag}: replay diverged from fresh");
            assert_eq!(fl.q_std, ff.q_std, "{tag}: stds diverged");
            assert_eq!(sl.level, sf.level, "{tag}: levels diverged");
        }
        let replay_trail = strip_tick(&live, pre_rewind);
        assert!(
            !replay_trail.is_empty(),
            "{tag}: replay recorded no transitions"
        );
        assert_eq!(
            replay_trail,
            strip_tick(&fresh, 0),
            "{tag}: audit trail diverged"
        );
        assert!(
            replay_trail.iter().all(|t| t.path == TickPath::ModeSpace),
            "{tag}: the audit record must name the path that ran"
        );
    };

    // Tiny threshold: every session trips Warning, so the trail is
    // non-empty on both paths.
    let plain = StreamConfig {
        warn_threshold: 1e-6,
        infer: false,
        ..StreamConfig::default()
    };
    check(
        StreamEngine::mode_space(&twin, &ms, plain),
        StreamEngine::mode_space(&twin, &ms, plain),
        "non-shared",
    );
    let shared = StreamConfig {
        identify: IdentifyBackend::ModeSpace,
        ..plain
    };
    check(
        StreamEngine::mode_space(&twin, &ms, shared)
            .with_bank(&bank)
            .with_pod(&pod),
        StreamEngine::mode_space(&twin, &ms, shared)
            .with_bank(&bank)
            .with_pod(&pod),
        "shared",
    );
}

#[test]
fn a_rewind_keeps_identifications_projection_and_refolds_the_ladders() {
    // A session holds one running projection through the engine's one
    // observation basis. On a windowed ladder under mode-space
    // identification it is identification's alone, and a rewind keeps
    // it: the replay tick projects nothing and the statistic stays bit
    // for bit where it was. On a shared-basis ladder under exact
    // identification it is the ladder's fold, and a rewind resets it:
    // the replay refolds every pushed sample once and lands on the same
    // forecasts to roundoff.
    let (twin, bank) = setup_bank(4, 59);
    let nt = twin.solver.grid.nt_obs;
    let ladder = [2, nt / 2, nt];
    let pod = bank.compress(4);
    let wf = twin.windowed(&ladder);
    let ms = twin.mode_space_ladder(&ladder, pod.modes(), &ModeSpaceOptions::default());
    let pushed = bank.len() * twin.n_data();
    let feed = |engine: &mut StreamEngine<'_>| -> (Vec<usize>, usize) {
        let ids: Vec<usize> = (0..bank.len()).map(|_| engine.open()).collect();
        let (mut fed, mut projected) = (0, 0);
        while fed < twin.n_data() {
            let hi = (fed + 5).min(twin.n_data());
            for (j, &id) in ids.iter().enumerate() {
                engine.push(id, &bank.observations().col(j)[fed..hi]);
            }
            fed = hi;
            projected += engine.tick().samples_projected;
        }
        (ids, projected)
    };
    let forecasts = |engine: &StreamEngine<'_>, ids: &[usize]| -> Vec<Vec<f64>> {
        ids.iter()
            .map(|&id| engine.session(id).forecast.as_ref().unwrap().q_map.clone())
            .collect()
    };

    let modespace_id = StreamConfig {
        identify: IdentifyBackend::ModeSpace,
        infer: false,
        ..StreamConfig::default()
    };
    let mut engine = StreamEngine::new(&twin, &wf, modespace_id)
        .with_bank(&bank)
        .with_pod(&pod);
    let (ids, projected) = feed(&mut engine);
    assert_eq!(
        projected, pushed,
        "identification projects each sample once"
    );
    let statistic = |engine: &StreamEngine<'_>| -> Vec<(u64, Vec<u64>, usize)> {
        ids.iter()
            .map(|&id| {
                let (dd, a, scored) = engine.session(id).identification_statistic();
                assert_eq!(a.len(), pod.rank());
                (
                    dd.to_bits(),
                    a.iter().map(|v| v.to_bits()).collect(),
                    scored,
                )
            })
            .collect()
    };
    let (before, fc_before) = (statistic(&engine), forecasts(&engine, &ids));
    engine.rewind();
    let tm = engine.tick();
    assert_eq!(tm.sessions_assimilated, bank.len(), "the rewind re-lifts");
    assert_eq!(
        tm.samples_projected, 0,
        "the rewind must keep the projection"
    );
    assert_eq!(tm.samples_scored, 0);
    assert_eq!(statistic(&engine), before, "the statistic moved");
    assert_eq!(forecasts(&engine, &ids), fc_before);

    let exact_id = StreamConfig {
        infer: false,
        ..StreamConfig::default()
    };
    let mut engine = StreamEngine::mode_space(&twin, &ms, exact_id).with_bank(&bank);
    let (ids, projected) = feed(&mut engine);
    assert_eq!(projected, pushed, "the ladder folds each sample once");
    let fc_before = forecasts(&engine, &ids);
    engine.rewind();
    let tm = engine.tick();
    assert_eq!(tm.sessions_assimilated, bank.len(), "the rewind re-lifts");
    assert_eq!(tm.samples_projected, pushed, "the rewind must refold");
    assert_eq!(tm.samples_scored, 0, "exact misfits are kept");
    // The refold sums `[0, filled)` in one pass where the feed summed
    // 5-sample pieces, so the forecasts agree to roundoff, not bit for bit
    // (`mode_space_rewind_replay_is_bit_identical_to_a_fresh_engine` pins
    // the bitwise replay against a one-push engine).
    for (a, b) in forecasts(&engine, &ids).iter().zip(&fc_before) {
        assert!(rel_err(a, b) < 1e-12, "refold drifted: {}", rel_err(a, b));
    }
}
