//! `perf_report`: one seeded harness for the `k1024` problem.
//!
//! Three ways to run it (see the README for the metric glossary):
//!
//! - `perf_report --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!   runs one workload in one pass and prints, as the last line, the
//!   result object the benchmark driver reads: the end-to-end metrics with
//!   `--trace 0` (timed pass: `OBS` off, no spans), the per-layer metrics
//!   with `--trace 1` (traced pass: `OBS` on, the harness's spans around
//!   every call into a layer).
//! - `perf_report [--seed n] [--seconds s] [--record file]` is the full
//!   report: a timed pass then a traced pass over the offline build and
//!   all five online workloads sharing that build, every metric printed
//!   by name with unit and sample count, the tracing overhead per
//!   workload, and optionally one run appended to a record file.
//! - `perf_report --compare A.json B.json` judges two record files by the
//!   bounds of `BENCHMARK.json`.
//!
//! The process exits non-zero when any correctness check failed.

mod alloc;
mod artefacts;
mod compare;
mod gen;
mod json;
mod kernels;
mod lockstep;
mod offline;
mod oneshot;
mod paced;
mod probe;
mod report;
mod stats;
mod streaming;
mod trace;
mod verify;

use artefacts::{Artefacts, Needs};
use json::Value;
use report::{Metrics, Outcome, Workload, END_TO_END, PER_LAYER};
use std::path::{Path as FsPath, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use streaming::{Path, StreamInputs};
use trace::Tracer;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Events in the one-shot workload's stream pool.
const ONESHOT_STREAMS: usize = 512;
/// Seed when none is given.
const DEFAULT_SEED: u64 = 2025;
/// Measured seconds per workload when none are given (`run_seconds` of
/// `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 5.0;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    record: Option<PathBuf>,
    compare: Option<(String, String)>,
    benchmark: String,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::all().map(Workload::name).collect();
    format!(
        "usage:\n  perf_report --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]\n  \
         perf_report [--seed <n>] [--seconds <s>] [--record <file>] [--out <dir>]\n  \
         perf_report --compare <A.json> <B.json> [--benchmark <BENCHMARK.json>]",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let default_out = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string());
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: FsPath::new(&default_out).join("perf_report"),
        record: None,
        compare: None,
        benchmark: "BENCHMARK.json".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a name")?;
                let w = Workload::parse(&name)
                    .ok_or_else(|| format!("unknown workload {name}\n{}", usage()))?;
                a.workload = Some(w);
            }
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                a.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: {other} is neither 0 nor 1")),
                }
            }
            "--out" => a.out = PathBuf::from(value("a directory")?),
            "--record" => a.record = Some(PathBuf::from(value("a file")?)),
            "--benchmark" => a.benchmark = value("a file")?,
            "--compare" => a.compare = Some((value("two files")?, value("two files")?)),
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    Ok(a)
}

/// What a workload serves from.
fn needs_of(workload: Workload) -> Needs {
    let streaming = |window, goal, modespace| Needs {
        bank: true,
        pod: modespace,
        window,
        goal,
        modespace,
    };
    match workload {
        Workload::Offline => Needs::ALL,
        Workload::Oneshot => Needs::TWIN,
        Workload::Lockstep(Path::Windowed) => streaming(true, false, false),
        Workload::Lockstep(Path::Goal) => streaming(false, true, false),
        Workload::Lockstep(Path::ModeSpace) | Workload::Paced => streaming(false, false, true),
    }
}

/// Inputs of the online workloads, generated on first use so each is
/// built once per pass.
struct Inputs {
    seed: u64,
    oneshot: Option<(Vec<Vec<f64>>, f64)>,
    streaming: Option<StreamInputs>,
}

impl Inputs {
    fn new(seed: u64) -> Inputs {
        Inputs {
            seed,
            oneshot: None,
            streaming: None,
        }
    }

    fn oneshot(&mut self) -> &(Vec<Vec<f64>>, f64) {
        let seed = self.seed;
        self.oneshot.get_or_insert_with(|| {
            let t0 = Instant::now();
            let s = gen::synthetic_streams(ONESHOT_STREAMS, seed);
            (s, t0.elapsed().as_secs_f64())
        })
    }

    fn streaming(&mut self, art: &Artefacts) -> &StreamInputs {
        let seed = self.seed;
        self.streaming.get_or_insert_with(|| {
            let inp = StreamInputs::generate(art, gen::SESSIONS, seed);
            println!(
                "   inputs: {} event streams in {:.3} s; oracle (exact forecasts) in {:.3} s; \
                 warning threshold {:.4}",
                inp.streams.len(),
                inp.gen_s,
                inp.oracle_s,
                inp.oracle.threshold
            );
            inp
        })
    }
}

/// Run one workload against built artefacts. Sets every end-to-end
/// metric; `setup_s` of an online workload is the measured build time of
/// the artefacts it uses plus its own input generation.
fn run_workload(
    workload: Workload,
    art: &Artefacts,
    inputs: &mut Inputs,
    seconds: f64,
    threads: usize,
    tr: &Tracer,
) -> Outcome {
    let (mut out, gen_s) = match workload {
        Workload::Offline => return offline::outcome(art, &inputs.oneshot().0),
        Workload::Oneshot => {
            let (streams, gen_s) = inputs.oneshot();
            (oneshot::run(art, streams, seconds, tr), *gen_s)
        }
        Workload::Lockstep(path) => {
            let inp = inputs.streaming(art);
            let mut out = lockstep::run(path, art, inp, seconds, threads, tr);
            if path == Path::Windowed {
                offline::gate(art, &inp.streams, &mut out);
            }
            (out, inp.gen_s)
        }
        Workload::Paced => {
            let t0 = Instant::now();
            let sched = paced::schedule(gen::SESSIONS, seconds, inputs.seed);
            let sched_s = t0.elapsed().as_secs_f64();
            println!(
                "   schedule: {} packets, fingerprint {:016x}, generated in {sched_s:.3} s",
                sched.packets.len(),
                sched.fingerprint()
            );
            let inp = inputs.streaming(art);
            (
                paced::run(art, inp, &sched, threads, tr),
                inp.gen_s + sched_s,
            )
        }
    };
    let setup = art.setup_s(needs_of(workload)) + gen_s;
    out.metrics.set("setup_s", setup, "s", 1);
    out
}

/// Single-thread baselines of the traced pass: the same work on one
/// thread, as a ratio against the two-thread pool. `oneshot_k1024` carries
/// the offline one, `paced_k1024` the tick one.
fn baselines(
    workload: Workload,
    art: &Artefacts,
    inputs: &mut Inputs,
    threads: usize,
    out: &mut Outcome,
) {
    let one = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("the shim's pool builder cannot fail");
    if workload == Workload::Oneshot {
        // Phase-1 `F` build: 16 adjoint solves.
        let t0 = Instant::now();
        one.install(|| std::hint::black_box(tsunami_solver::build_p2o(&art.twin.solver)));
        let serial = t0.elapsed().as_secs_f64();
        let parallel = art.twin.timers.seconds("Phase 1: form F (adjoint solves)");
        println!("   baseline: p2o build {serial:.3} s on 1 thread, {parallel:.3} s on the pool");
        out.metrics.set(
            "rayon.offline_speedup_2t",
            serial / parallel.max(1e-12),
            "ratio",
            1,
        );
    }
    if workload == Workload::Paced {
        // A short mode-space lockstep window: one shard on one thread
        // against one shard per thread on the pool.
        let inp = inputs.streaming(art);
        let off = Tracer::new(false);
        let serial = one.install(|| lockstep::run(Path::ModeSpace, art, inp, 0.5, 1, &off));
        let pooled = lockstep::run(Path::ModeSpace, art, inp, 0.5, threads, &off);
        out.failed += serial.failed + pooled.failed;
        out.attempted += serial.attempted + pooled.attempted;
        let rate = |o: &Outcome| o.metrics.get("throughput_per_s").unwrap_or(0.0);
        let (s, p) = (rate(&serial), rate(&pooled));
        println!("   baseline: {s:.0} session-steps/s on 1 thread and 1 shard, {p:.0} on the pool");
        out.metrics
            .set("rayon.tick_speedup_2t", p / s.max(1e-12), "ratio", 1);
    }
}

/// The driver's contract: one workload, one pass, result object last.
fn driver_mode(a: &Args, workload: Workload, threads: usize) -> ExitCode {
    tsunami_obs::set_enabled(a.trace);
    let tr = Tracer::new(a.trace);
    println!(
        "perf_report: workload {}, seed {}, {} s, {} pass, {threads} threads",
        workload.name(),
        a.seed,
        a.seconds,
        if a.trace { "traced" } else { "timed" }
    );
    let mut layer = Metrics::default();
    if a.trace {
        layer.absorb(probe::run(threads));
    }
    let art = Artefacts::build(needs_of(workload), a.seed, &tr);
    for (name, s) in &art.stages {
        println!("   built {name:<22} {s:>8.3} s");
    }
    let mut inputs = Inputs::new(a.seed);
    let mut out = run_workload(workload, &art, &mut inputs, a.seconds, threads, &tr);
    if a.trace {
        layer.absorb(art.layer_metrics());
        let peak = layer.get("probe.fma_gflops").unwrap_or(0.0);
        layer.absorb(kernels::run(&art.twin, threads, peak, a.seed));
        baselines(workload, &art, &mut inputs, threads, &mut out);
        if let Some(t) = out.metrics.get("throughput_per_s") {
            layer.set("obs.traced.throughput_per_s", t, "1/s", 1);
        }
        let path = a.out.join(format!("spans-{}.jsonl", workload.name()));
        match tr.write_jsonl(&path) {
            Ok(n) => println!("   wrote {n} spans to {}", path.display()),
            Err(e) => eprintln!("cannot write {}: {e}", path.display()),
        }
    }
    layer.absorb(std::mem::take(&mut out.metrics));
    out.metrics = layer;
    out.metrics.print(&format!(
        "{}: attempted {} operations, {} failed",
        workload.name(),
        out.attempted,
        out.failed
    ));
    let wanted: Vec<(&str, &str)> = if a.trace {
        PER_LAYER.iter().map(|m| (m.0, m.1)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.0, m.1)).collect()
    };
    println!("{}", report::driver_json(&out, &wanted));
    if out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One pass of the full report: the cold build, then every online
/// workload against it. Returns `(workload, outcome)` in run order.
fn full_pass(a: &Args, traced: bool, threads: usize) -> Vec<(String, Outcome)> {
    tsunami_obs::set_enabled(traced);
    let tr = Tracer::new(traced);
    let pass = if traced { "traced" } else { "timed" };
    println!("\n==== {pass} pass ====");
    let t_pass = Instant::now();
    let probe = traced.then(|| probe::run(threads));
    let art = Artefacts::build(Needs::ALL, a.seed, &tr);
    let mut inputs = Inputs::new(a.seed);
    let mut results = Vec::new();
    for workload in Workload::all() {
        println!("-- running {}", workload.name());
        let mut out = run_workload(workload, &art, &mut inputs, a.seconds, threads, &tr);
        if traced {
            if workload == Workload::Offline {
                out.metrics.absorb(art.layer_metrics());
            }
            baselines(workload, &art, &mut inputs, threads, &mut out);
        }
        results.push((workload.name().to_string(), out));
    }
    if traced {
        let mut machine = Outcome::default();
        let probe = probe.expect("probe ran in the traced pass");
        let peak = probe.get("probe.fma_gflops").unwrap_or(0.0);
        machine.metrics.absorb(probe);
        machine
            .metrics
            .absorb(kernels::run(&art.twin, threads, peak, a.seed));
        results.push(("machine".to_string(), machine));
        let path = a.out.join("spans-full.jsonl");
        match tr.write_jsonl(&path) {
            Ok(n) => println!("   wrote {n} spans to {}", path.display()),
            Err(e) => eprintln!("cannot write {}: {e}", path.display()),
        }
    }
    for (workload, out) in &results {
        out.metrics.print(&format!(
            "{workload} [{pass}]: attempted {} operations, {} failed",
            out.attempted, out.failed
        ));
    }
    println!(
        "==== {pass} pass took {:.1} s ====",
        t_pass.elapsed().as_secs_f64()
    );
    results
}

/// First `model name` of `/proc/cpuinfo`.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn records_of(results: &[(String, Outcome)], pass: &str) -> Vec<Value> {
    let mut out = Vec::new();
    for (workload, o) in results {
        let config = format!("workload={workload} pass={pass}");
        let rec = |metric: &str, value: f64, unit: &str| {
            Value::Object(vec![
                ("name".to_string(), Value::String("perf_report".to_string())),
                ("config".to_string(), Value::String(config.clone())),
                ("metric".to_string(), Value::String(metric.to_string())),
                ("value".to_string(), Value::Number(value)),
                ("unit".to_string(), Value::String(unit.to_string())),
            ])
        };
        out.push(rec("attempted", o.attempted as f64, "count"));
        out.push(rec("failed", o.failed as f64, "count"));
        for m in &o.metrics.list {
            out.push(rec(&m.name, m.value, m.unit));
        }
    }
    out
}

/// Append one run to a record file (created if absent).
fn append_record(path: &FsPath, run: Value) -> Result<(), String> {
    let mut runs = match std::fs::read_to_string(path) {
        Ok(text) => json::parse(&text)?
            .get("runs")
            .and_then(Value::as_array)
            .map(<[Value]>::to_vec)
            .ok_or_else(|| format!("{}: not a record file", path.display()))?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(format!("{}: {e}", path.display())),
    };
    runs.push(run);
    let doc = Value::Object(vec![
        ("schema".to_string(), Value::Number(1.0)),
        ("runs".to_string(), Value::Array(runs)),
    ]);
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, doc.render() + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

/// The full report: timed pass, traced pass, overheads, optional record.
fn full_mode(a: &Args, threads: usize) -> ExitCode {
    println!(
        "perf_report: full report, seed {}, {} s per workload, {threads} threads ({} cores, {})",
        a.seed,
        a.seconds,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        cpu_model()
    );
    let timed = full_pass(a, false, threads);
    let mut traced = full_pass(a, true, threads);

    // Tracing overhead per workload: how much slower the traced pass ran
    // the same work (latency for the open loop, whose work is fixed).
    println!("\n==== derived ====");
    let get = |set: &[(String, Outcome)], w: &str, m: &str| {
        set.iter()
            .find(|(n, _)| n == w)
            .and_then(|(_, o)| o.metrics.get(m))
    };
    let mut derived = Outcome::default();
    for w in Workload::all() {
        // A time for the build and the open loop, a rate for the closed ones.
        let (metric, is_time) = match w {
            Workload::Offline => ("offline_build_s", true),
            Workload::Paced => ("latency_ms_p50", true),
            _ => ("throughput_per_s", false),
        };
        let pair = get(&timed, w.name(), metric).zip(get(&traced, w.name(), metric));
        if let Some((ti, tr)) = pair {
            let frac = if is_time { tr / ti } else { ti / tr } - 1.0;
            let name = format!("obs.overhead_frac.{}", w.name());
            derived.metrics.set(&name, frac, "ratio", 1);
        }
    }
    let thr = |p: Path| get(&timed, Workload::Lockstep(p).name(), "throughput_per_s");
    if let (Some(w), Some(g), Some(ms)) =
        (thr(Path::Windowed), thr(Path::Goal), thr(Path::ModeSpace))
    {
        println!("   base: windowed {w:.0} session-steps/s");
        derived
            .metrics
            .set("stream.speedup.goal_over_windowed", g / w, "ratio", 1);
        derived
            .metrics
            .set("stream.speedup.modespace_over_windowed", ms / w, "ratio", 1);
    }
    derived.metrics.print("derived");
    traced.push(("derived".to_string(), derived));

    let failed: u64 = timed.iter().chain(&traced).map(|(_, o)| o.failed).sum();
    let attempted: u64 = timed.iter().chain(&traced).map(|(_, o)| o.attempted).sum();
    println!("\nattempted {attempted} operations, {failed} failed");

    if let Some(path) = &a.record {
        let mut records = records_of(&timed, "timed");
        records.extend(records_of(&traced, "traced"));
        let run = Value::Object(vec![
            ("host".to_string(), Value::String(cpu_model())),
            (
                "cores".to_string(),
                Value::Number(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
            ),
            ("threads".to_string(), Value::Number(threads as f64)),
            ("seed".to_string(), Value::Number(a.seed as f64)),
            ("seconds".to_string(), Value::Number(a.seconds)),
            ("records".to_string(), Value::Array(records)),
        ]);
        match append_record(path, run) {
            Ok(()) => println!("appended one run to {}", path.display()),
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if let Some((x, y)) = &a.compare {
        return match compare::run(x, y, &a.benchmark) {
            Ok(0) => ExitCode::SUCCESS,
            Ok(n) => {
                eprintln!("{n} (metric, workload) pairs regressed");
                ExitCode::FAILURE
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(2)
            }
        };
    }
    // The harness pins its own thread budget, so `RAYON_NUM_THREADS` cannot
    // change what is measured: the driver thread plus one pool worker on
    // two or more cores.
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2);
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("the shim's pool builder cannot fail");
    pool.install(|| match a.workload {
        Some(w) => driver_mode(&a, w, threads),
        None => full_mode(&a, threads),
    })
}
