//! Metric names, the lists `BENCHMARK.json` mirrors, and result printing.

use crate::streaming::Path;
use tsunami_obs::render::{json_f64, json_string};

/// A workload of the harness.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The cold offline build timed as a whole.
    Offline,
    Oneshot,
    Lockstep(Path),
    Paced,
}

impl Workload {
    /// The online workloads, in the order the full report runs them.
    pub const ONLINE: [Workload; 5] = [
        Workload::Oneshot,
        Workload::Lockstep(Path::Windowed),
        Workload::Lockstep(Path::Goal),
        Workload::Lockstep(Path::ModeSpace),
        Workload::Paced,
    ];

    /// Every workload: the offline build, then the online ones.
    pub fn all() -> impl Iterator<Item = Workload> {
        std::iter::once(Workload::Offline).chain(Self::ONLINE)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Offline => "offline_k1024",
            Workload::Oneshot => "oneshot_k1024",
            Workload::Lockstep(Path::Windowed) => "lockstep_windowed_k1024",
            Workload::Lockstep(Path::Goal) => "lockstep_goal_k1024",
            Workload::Lockstep(Path::ModeSpace) => "lockstep_modespace_k1024",
            Workload::Paced => "paced_k1024",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Self::all().find(|w| w.name() == name)
    }

    /// Whether `BENCHMARK.json` lists it. The offline build and the
    /// mode-space lockstep replay are left to the full report: the driver
    /// makes 26 runs per workload inside a fixed time cap, each pays a
    /// 15–21 s cold build, and on a noisy host more than four overrun it.
    /// Every stage of the build stays bounded through the `setup_s` of the
    /// workloads that need it, and the mode-space engine through
    /// `Paced`. Between them the listed four run every online path: exact
    /// Phase 4, the windowed and goal-oriented tick paths in lockstep, the
    /// mode-space tick path under paced arrival.
    #[cfg(test)]
    pub fn listed(self) -> bool {
        !matches!(
            self,
            Workload::Offline | Workload::Lockstep(Path::ModeSpace)
        )
    }
}

/// End-to-end metrics: `(name, unit, better, bound)`. Every workload
/// reports every one; the README says what each means per workload, and
/// why the timing bounds are as wide as the contract allows (host noise).
pub const END_TO_END: [(&str, &str, &str, f64); 5] = [
    ("setup_s", "s", "lower", 0.25),
    ("peak_live_mb", "MB", "lower", 0.05),
    ("latency_ms_p50", "ms", "lower", 0.25),
    ("latency_ms_tail", "ms", "lower", 0.25),
    ("throughput_per_s", "1/s", "higher", 0.25),
];

/// Per-layer metrics of the traced pass: `(name, unit, better)`. A layer a
/// workload bypasses reports 0.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    // solver
    ("solver.p2o.busy_s", "s", "lower"),
    ("solver.p2q.busy_s", "s", "lower"),
    ("solver.adjoint_solves", "count", "lower"),
    // prior
    ("prior.smooth_blocks.busy_s", "s", "lower"),
    // fft
    ("fft.from_blocks.busy_s", "s", "lower"),
    ("fft.matmat.busy_s", "s", "lower"),
    ("fft.matmat.gflops", "GF/s", "higher"),
    ("fft.matmat_transpose.busy_s", "s", "lower"),
    ("fft.matmat_transpose.gflops", "GF/s", "higher"),
    ("fft.matvec.us", "us", "lower"),
    ("fft.matvec_transpose.us", "us", "lower"),
    // linalg
    ("linalg.cholesky.factor.busy_s", "s", "lower"),
    ("linalg.cholesky.factor.gflops", "GF/s", "higher"),
    ("linalg.cholesky.solve_multi.gflops", "GF/s", "higher"),
    ("linalg.cholesky.solve.us", "us", "lower"),
    (
        "linalg.cholesky.solve_leading_panel.gflops",
        "GF/s",
        "higher",
    ),
    ("linalg.matmul_into.dense.gflops", "GF/s", "higher"),
    ("linalg.matmul_into.dense.peak_frac", "ratio", "higher"),
    ("linalg.matmul_into.rank.gflops", "GF/s", "higher"),
    ("linalg.matmul_into.rank.peak_frac", "ratio", "higher"),
    ("linalg.dot_lanes.gbs", "GB/s", "higher"),
    ("linalg.block_axpy4.gbs", "GB/s", "higher"),
    ("linalg.block_axpy4.gflops", "GF/s", "higher"),
    ("linalg.randomized_svd.busy_s", "s", "lower"),
    ("linalg.factored.fold.gflops", "GF/s", "higher"),
    // core
    ("core.phase1.busy_s", "s", "lower"),
    ("core.phase2.busy_s", "s", "lower"),
    ("core.phase2.form_k.busy_s", "s", "lower"),
    ("core.phase3.busy_s", "s", "lower"),
    ("core.bank.generate.busy_s", "s", "lower"),
    ("core.pod.compress.busy_s", "s", "lower"),
    ("core.window.build.busy_s", "s", "lower"),
    ("core.goal.build.busy_s", "s", "lower"),
    ("core.modespace.build.busy_s", "s", "lower"),
    ("core.window.resident_mb", "MB", "lower"),
    ("core.goal.resident_mb", "MB", "lower"),
    ("core.modespace.resident_mb", "MB", "lower"),
    ("core.phase4.infer.us", "us", "lower"),
    ("core.phase4.predict.us", "us", "lower"),
    ("core.phase4.infer_batch.busy_s", "s", "lower"),
    ("core.phase4.predict_batch.busy_s", "s", "lower"),
    ("build.peak_live_mb", "MB", "lower"),
    // stream: engine calls
    ("stream.engine.open.ns", "ns", "lower"),
    ("stream.engine.close.ns", "ns", "lower"),
    ("stream.engine.push.ns", "ns", "lower"),
    ("stream.engine.enqueue.ns", "ns", "lower"),
    // stream: ticks
    ("stream.tick.count", "count", "lower"),
    ("stream.tick.plain.ms_p50", "ms", "lower"),
    ("stream.tick.crossing.ms_p50", "ms", "lower"),
    ("stream.tick.crossing.share", "ratio", "lower"),
    ("stream.tick.drain.busy_s", "s", "lower"),
    ("stream.tick.identify.busy_s", "s", "lower"),
    ("stream.tick.assimilate.busy_s", "s", "lower"),
    ("stream.tick.classify.busy_s", "s", "lower"),
    ("stream.tick.self.busy_s", "s", "lower"),
    ("stream.tick.self.share", "ratio", "lower"),
    ("stream.tick.busy_frac", "ratio", "lower"),
    ("stream.inbox.backlog_max", "count", "lower"),
    ("stream.inbox.backlog_slope", "1/s", "lower"),
    // stream: counts
    ("stream.samples.drained", "count", "lower"),
    ("stream.samples.scored", "count", "lower"),
    ("stream.samples.projected", "count", "lower"),
    ("stream.sessions.assimilated", "count", "lower"),
    ("stream.panels", "count", "lower"),
    ("stream.peak_panel_elems", "count", "lower"),
    ("stream.scratch_mb", "MB", "lower"),
    ("stream.audit.transitions", "count", "lower"),
    ("stream.warning_mismatch_frac", "ratio", "lower"),
    ("forecast_rel_err_max", "ratio", "lower"),
    // stream: paced open loop
    ("ingest_latency_ms_p50", "ms", "lower"),
    ("ingest_latency_ms_p99", "ms", "lower"),
    ("decision_latency_ms_p50", "ms", "lower"),
    ("decision_latency_ms_p99", "ms", "lower"),
    ("sustained_rate_steps_per_s", "1/s", "higher"),
    ("deadline_miss_frac", "ratio", "lower"),
    ("paced.r1.ingest_latency_ms_p50", "ms", "lower"),
    ("paced.r1.ingest_latency_ms_p99", "ms", "lower"),
    ("paced.r1.decision_latency_ms_p50", "ms", "lower"),
    ("paced.r1.decision_latency_ms_p99", "ms", "lower"),
    ("paced.r3.ingest_latency_ms_p50", "ms", "lower"),
    ("paced.r3.ingest_latency_ms_p99", "ms", "lower"),
    ("paced.r3.decision_latency_ms_p50", "ms", "lower"),
    ("paced.r3.decision_latency_ms_p99", "ms", "lower"),
    ("gen.lag_ms_p99", "ms", "lower"),
    // stream: identification kernels, standalone
    ("stream.identify.score_group_gemm.gflops", "GF/s", "higher"),
    ("stream.identify.project_group.gflops", "GF/s", "higher"),
    ("stream.identify.score_group_pod.gflops", "GF/s", "higher"),
    // rayon shim
    ("rayon.dispatch.us", "us", "lower"),
    ("rayon.pool.jobs_per_tick", "count", "lower"),
    ("rayon.pool.handoffs_per_tick", "count", "lower"),
    ("rayon.offline_speedup_2t", "ratio", "higher"),
    ("rayon.tick_speedup_2t", "ratio", "higher"),
    // obs
    ("obs.traced.throughput_per_s", "1/s", "higher"),
    ("obs.record.ns", "ns", "lower"),
    // machine probe
    ("probe.fma_gflops", "GF/s", "higher"),
    ("probe.stream_gbs", "GB/s", "higher"),
    ("probe.llc_mb", "MB", "higher"),
    ("probe.array_mb", "MB", "higher"),
];

/// One measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (1 for a single timing, 0 when the
    /// notion does not apply, as for a count).
    pub samples: u64,
}

/// Insertion-ordered metric set of one pass of one workload.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    pub list: Vec<Metric>,
}

impl Metrics {
    /// Set (or overwrite) a metric.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str, samples: u64) {
        let m = Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        };
        match self.list.iter_mut().find(|x| x.name == name) {
            Some(slot) => *slot = m,
            None => self.list.push(m),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.list.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// Take over every metric of `other`.
    pub fn absorb(&mut self, other: Metrics) {
        for m in other.list {
            self.set(&m.name, m.value, m.unit, m.samples);
        }
    }

    /// Human-readable table.
    pub fn print(&self, title: &str) {
        println!("-- {title}");
        for m in &self.list {
            println!(
                "   {:<46} {:>16} {:<6} n={}",
                m.name,
                fmt_value(m.value),
                m.unit,
                m.samples
            );
        }
    }
}

fn fmt_value(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1e5 || v.abs() < 1e-3 {
        format!("{v:.4e}")
    } else {
        format!("{v:.4}")
    }
}

/// What one pass of one workload produced.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Operations attempted, correctness checks included.
    pub attempted: u64,
    /// Operations failed; a failed correctness check is a failed operation.
    pub failed: u64,
    pub metrics: Metrics,
}

impl Outcome {
    /// Count one correctness check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            // Only the first few failures are spelled out.
            if self.failed <= 8 {
                eprintln!("CHECK FAILED: {}", what());
            }
        }
    }
}

/// The driver's result line: exactly the keys `correct`, `attempted`,
/// `failed`, `metrics`; the metrics are the names of `wanted`, a missing
/// one reported as 0 (a layer the workload bypasses).
pub fn driver_json(out: &Outcome, wanted: &[(&str, &str)]) -> String {
    let body: Vec<String> = wanted
        .iter()
        .map(|(name, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(name),
                json_f64(out.metrics.get(name).unwrap_or(0.0)),
                json_string(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted.max(1),
        out.failed,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        let all = END_TO_END
            .iter()
            .map(|m| m.0)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .chain(Workload::all().map(Workload::name));
        for name in all {
            assert!(seen.insert(name), "{name} used twice");
            assert!(name.len() <= 64);
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    /// `BENCHMARK.json` is written by hand; this keeps it equal to the
    /// lists above. Skipped when the file is not there (the package
    /// checked out on its own).
    #[test]
    fn benchmark_json_mirrors_the_lists() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            return;
        };
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Value::as_array)
                .expect("array")
                .iter()
                .map(|e| e.get("name").and_then(Value::as_str).unwrap().to_string())
                .collect()
        };
        let listed: Vec<&str> = Workload::all()
            .filter(|w| w.listed())
            .map(Workload::name)
            .collect();
        assert_eq!(names("workloads"), listed);
        assert_eq!(
            names("end_to_end"),
            END_TO_END.iter().map(|m| m.0).collect::<Vec<_>>()
        );
        assert_eq!(
            names("per_layer"),
            PER_LAYER.iter().map(|m| m.0).collect::<Vec<_>>()
        );
        for (e, want) in doc
            .get("end_to_end")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .zip(END_TO_END)
        {
            assert_eq!(e.get("unit").and_then(Value::as_str), Some(want.1));
            assert_eq!(e.get("better").and_then(Value::as_str), Some(want.2));
            assert_eq!(e.get("bound").and_then(Value::as_f64), Some(want.3));
        }
        for (e, want) in doc
            .get("per_layer")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .zip(PER_LAYER)
        {
            assert_eq!(e.get("unit").and_then(Value::as_str), Some(want.1));
            assert_eq!(e.get("better").and_then(Value::as_str), Some(want.2));
        }
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let mut out = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        out.metrics.set("setup_s", 1.25, "s", 1);
        let line = driver_json(&out, &[("setup_s", "s"), ("absent", "ms")]);
        let v = json::parse(&line).unwrap();
        let Value::Object(keys) = &v else {
            panic!("object")
        };
        let names: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
        let m = v.get("metrics").unwrap();
        assert_eq!(
            m.get("setup_s").unwrap().get("value").unwrap().as_f64(),
            Some(1.25)
        );
        assert_eq!(
            m.get("absent").unwrap().get("value").unwrap().as_f64(),
            Some(0.0)
        );
    }
}
