//! Shared harness utilities for the table/figure regenerators.
//!
//! Every binary in `src/bin/` regenerates one table or figure from the
//! paper's evaluation section (the binary's name says which), printing
//! paper-reported values next to the values measured in this repository.
//! Absolute numbers differ — the substrate is a CPU simulator, not El
//! Capitan — but the *shape* (who wins, by what factor, where crossovers
//! fall) is the reproduction target.

use std::fmt::Write as _;

/// A labeled paper-vs-measured comparison row.
#[derive(Clone, Debug)]
pub struct Row {
    /// Quantity name.
    pub label: String,
    /// What the paper reports (free text, e.g. "92% @128x").
    pub paper: String,
    /// What this repository measures.
    pub measured: String,
}

/// Render rows as an aligned comparison table.
pub fn comparison_table(title: &str, rows: &[Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== {title} ==");
    let w0 = rows.iter().map(|r| r.label.len()).max().unwrap_or(8).max(8);
    let w1 = rows
        .iter()
        .map(|r| r.paper.len())
        .max()
        .unwrap_or(5)
        .max(14);
    let _ = writeln!(
        out,
        "{:<w0$}  {:<w1$}  measured (this repo)",
        "quantity",
        "paper",
        w0 = w0,
        w1 = w1
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<w0$}  {:<w1$}  {}",
            r.label,
            r.paper,
            r.measured,
            w0 = w0,
            w1 = w1
        );
    }
    out
}

/// Format seconds in engineering-friendly units.
pub fn fmt_secs(s: f64) -> String {
    if s < 1e-6 {
        format!("{:.1} ns", s * 1e9)
    } else if s < 1e-3 {
        format!("{:.1} µs", s * 1e6)
    } else if s < 1.0 {
        format!("{:.1} ms", s * 1e3)
    } else if s < 120.0 {
        format!("{s:.2} s")
    } else if s < 7200.0 {
        format!("{:.1} min", s / 60.0)
    } else {
        format!("{:.1} h", s / 3600.0)
    }
}

/// Format a byte count.
pub fn fmt_bytes(b: usize) -> String {
    let bf = b as f64;
    if bf < 1024.0 {
        format!("{b} B")
    } else if bf < 1024.0 * 1024.0 {
        format!("{:.1} KiB", bf / 1024.0)
    } else if bf < f64::powi(1024.0, 3) {
        format!("{:.1} MiB", bf / 1024.0 / 1024.0)
    } else {
        format!("{:.2} GiB", bf / f64::powi(1024.0, 3))
    }
}

/// Write a CSV file of named columns (all the same length) under
/// `target/experiments/`, returning the path.
pub fn write_csv(name: &str, columns: &[(&str, &[f64])]) -> std::io::Result<String> {
    use std::io::Write;
    let dir = std::path::Path::new("target/experiments");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(name);
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
    let header: Vec<&str> = columns.iter().map(|(n, _)| *n).collect();
    writeln!(f, "{}", header.join(","))?;
    let len = columns.first().map_or(0, |(_, c)| c.len());
    for i in 0..len {
        let row: Vec<String> = columns
            .iter()
            .map(|(_, c)| format!("{:.8e}", c[i]))
            .collect();
        writeln!(f, "{}", row.join(","))?;
    }
    Ok(path.display().to_string())
}

/// Problem-scale knob for the harness binaries: `TSUNAMI_SCALE` ∈
/// {`tiny`, `demo` (default), `full`}.
pub fn scale_config() -> tsunami_core::TwinConfig {
    match std::env::var("TSUNAMI_SCALE").as_deref() {
        Ok("tiny") => tsunami_core::TwinConfig::tiny(),
        Ok("full") => tsunami_core::TwinConfig::cascadia_scaled(),
        _ => tsunami_core::TwinConfig::demo(),
    }
}

/// Median wall-clock seconds of `f` over `n` runs (after one warmup).
pub fn time_median(n: usize, mut f: impl FnMut()) -> f64 {
    f(); // warmup
    let mut times: Vec<f64> = (0..n.max(1))
        .map(|_| {
            let t0 = std::time::Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    times[times.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_all_rows() {
        let rows = vec![
            Row {
                label: "weak efficiency".into(),
                paper: "92%".into(),
                measured: "91%".into(),
            },
            Row {
                label: "online".into(),
                paper: "0.2 s".into(),
                measured: "3.1 ms".into(),
            },
        ];
        let t = comparison_table("Fig 5", &rows);
        assert!(t.contains("92%"));
        assert!(t.contains("online"));
    }

    #[test]
    fn seconds_formatting() {
        assert!(fmt_secs(2e-9).contains("ns"));
        assert!(fmt_secs(5e-4).contains("µs") || fmt_secs(5e-4).contains("ms"));
        assert!(fmt_secs(0.15).contains("ms"));
        assert!(fmt_secs(62.0).contains("s"));
        assert!(fmt_secs(4000.0).contains("min"));
        assert!(fmt_secs(10_000.0).contains("h"));
    }

    #[test]
    fn bytes_formatting() {
        assert_eq!(fmt_bytes(100), "100 B");
        assert!(fmt_bytes(2048).contains("KiB"));
        assert!(fmt_bytes(5 << 20).contains("MiB"));
        assert!(fmt_bytes(3 << 30).contains("GiB"));
    }

    #[test]
    fn time_median_positive() {
        let t = time_median(3, || {
            std::hint::black_box((0..1000).sum::<usize>());
        });
        assert!(t >= 0.0);
    }
}
