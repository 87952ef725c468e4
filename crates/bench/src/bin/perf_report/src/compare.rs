//! `--compare A.json B.json`: apply the bounds of `BENCHMARK.json` to two
//! record files and print one row per (metric, workload).
//!
//! A side is all the timed runs of one record file. A pair whose runs of
//! one side are spread wider than the bound is *unresolved*: neither
//! "unchanged" nor "regressed" can be read from it.

use crate::json::{self, Value};
use crate::report::Workload;
use crate::stats;

/// Outcome of one (metric, workload) pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge `b` against `a`. `worse` is the share of `a`'s median by which
/// `b`'s median is worse (negative when better). Regressed means worse by
/// *more* than the bound; a value exactly at the bound is unchanged.
pub fn verdict(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> (Verdict, f64, f64) {
    let (ma, mb) = (stats::median(a), stats::median(b));
    let spread = |v: &[f64]| {
        if v.len() >= 2 {
            stats::iqr_share(v)
        } else {
            0.0
        }
    };
    let widest = spread(a).max(spread(b));
    let base = ma.abs().max(f64::MIN_POSITIVE);
    let worse = if lower_is_better {
        (mb - ma) / base
    } else {
        (ma - mb) / base
    };
    let v = if widest > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    (v, worse, widest)
}

/// `workload=… pass=…` → the value of `key`.
fn config_field<'a>(config: &'a str, key: &str) -> Option<&'a str> {
    config
        .split_whitespace()
        .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
}

/// All timed values of `(workload, metric)` in a record document, one per
/// run.
pub fn timed_values(doc: &Value, workload: &str, metric: &str) -> Vec<f64> {
    let mut out = Vec::new();
    for run in doc.get("runs").and_then(Value::as_array).unwrap_or(&[]) {
        for rec in run.get("records").and_then(Value::as_array).unwrap_or(&[]) {
            let config = rec.get("config").and_then(Value::as_str).unwrap_or("");
            if rec.get("metric").and_then(Value::as_str) == Some(metric)
                && config_field(config, "workload") == Some(workload)
                && config_field(config, "pass") == Some("timed")
            {
                if let Some(v) = rec.get("value").and_then(Value::as_f64) {
                    out.push(v);
                }
            }
        }
    }
    out
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Compare two record files under the bounds of `benchmark`. Returns the
/// number of regressed pairs.
pub fn run(a_path: &str, b_path: &str, benchmark: &str) -> Result<usize, String> {
    let (a, b, bench) = (load(a_path)?, load(b_path)?, load(benchmark)?);
    let names = |key: &str| -> Result<Vec<&Value>, String> {
        Ok(bench
            .get(key)
            .and_then(Value::as_array)
            .ok_or_else(|| format!("{benchmark}: no {key}"))?
            .iter()
            .collect())
    };
    println!(
        "{:<26} {:<18} {:>13} {:>13} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "worse", "spread", "bound"
    );
    let mut regressed = 0;
    // Every workload of the full report, not only the ones the driver
    // runs; the offline build's time takes the bound of `setup_s`.
    for w in Workload::all() {
        let workload = w.name();
        for e in names("end_to_end")? {
            let mut metric = e.get("name").and_then(Value::as_str).unwrap_or("");
            let bound = e.get("bound").and_then(Value::as_f64).unwrap_or(0.0);
            let lower = e.get("better").and_then(Value::as_str) != Some("higher");
            if w == Workload::Offline {
                match metric {
                    "setup_s" => metric = "offline_build_s",
                    "peak_live_mb" => {}
                    _ => continue,
                }
            }
            let (va, vb) = (
                timed_values(&a, workload, metric),
                timed_values(&b, workload, metric),
            );
            if va.is_empty() || vb.is_empty() {
                println!(
                    "{workload:<26} {metric:<18} missing on one side ({} vs {} runs)",
                    va.len(),
                    vb.len()
                );
                continue;
            }
            let (v, worse, spread) = verdict(&va, &vb, lower, bound);
            regressed += (v == Verdict::Regressed) as usize;
            println!(
                "{workload:<26} {metric:<18} {:>13.5} {:>13.5} {:>+7.1}% {:>7.1}% {:>5.0}%  {} (n={}/{})",
                stats::median(&va),
                stats::median(&vb),
                worse * 100.0,
                spread * 100.0,
                bound * 100.0,
                v.label(),
                va.len(),
                vb.len()
            );
        }
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_at_just_inside_and_just_outside_a_bound() {
        let a = [100.0, 100.0, 100.0];
        let at = |b: f64, lower: bool| verdict(&a, &[b, b, b], lower, 0.1).0;
        // Lower is better: 110 is exactly the bound.
        assert_eq!(at(110.0, true), Verdict::Unchanged);
        assert_eq!(at(109.9, true), Verdict::Unchanged);
        assert_eq!(at(110.1, true), Verdict::Regressed);
        assert_eq!(at(90.0, true), Verdict::Unchanged);
        assert_eq!(at(89.9, true), Verdict::Improved);
        // Higher is better: the same numbers read the other way.
        assert_eq!(at(90.0, false), Verdict::Unchanged);
        assert_eq!(at(89.9, false), Verdict::Regressed);
        assert_eq!(at(110.1, false), Verdict::Improved);
    }

    #[test]
    fn a_side_spread_wider_than_the_bound_is_unresolved() {
        // IQR of [80, 100, 120, 100, 100] over its median is 0.2 > 0.1,
        // whatever the other side says.
        let noisy = [80.0, 100.0, 120.0, 100.0, 100.0];
        let steady = [150.0; 5];
        assert_eq!(verdict(&noisy, &steady, true, 0.1).0, Verdict::Unresolved);
        assert_eq!(verdict(&steady, &noisy, true, 0.1).0, Verdict::Unresolved);
        assert_eq!(verdict(&steady, &steady, true, 0.1).0, Verdict::Unchanged);
    }

    #[test]
    fn timed_values_are_picked_by_workload_metric_and_pass() {
        let doc = json::parse(
            r#"{"runs": [
              {"records": [
                {"config": "workload=w1 pass=timed", "metric": "m", "value": 1.0},
                {"config": "workload=w1 pass=traced", "metric": "m", "value": 9.0},
                {"config": "workload=w2 pass=timed", "metric": "m", "value": 8.0}]},
              {"records": [
                {"config": "workload=w1 pass=timed", "metric": "m", "value": 2.0},
                {"config": "workload=w1 pass=timed", "metric": "other", "value": 7.0}]}]}"#,
        )
        .unwrap();
        assert_eq!(timed_values(&doc, "w1", "m"), [1.0, 2.0]);
        assert!(timed_values(&doc, "w3", "m").is_empty());
    }
}
