//! Machine probe of the traced pass: the multiply-add peak and the triad
//! bandwidth of the same threads the workloads run on, so every kernel
//! number is a fraction of a ceiling measured in the same run.

use crate::report::Metrics;
use std::hint::black_box;
use std::time::Instant;

/// Cap on the three triad arrays together. (The issue proposed 2 GiB; in
/// this VM first-touching 2 GiB costs 7 s of page faults per traced run,
/// and with a 260 MiB shared L3 the 4× rule is out of reach either way.)
const ARRAY_CAP_BYTES: usize = 1 << 30;
/// Assumed last-level cache when the kernel does not expose one.
const DEFAULT_LLC_BYTES: usize = 32 << 20;

/// Size of the largest cache `cpu0` reports, in bytes.
pub fn detect_llc_bytes() -> Option<usize> {
    let mut best: Option<(u32, usize)> = None;
    for idx in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            continue;
        };
        let Ok(level) = level.trim().parse::<u32>() else {
            continue;
        };
        let Some(bytes) = parse_size(size.trim()) else {
            continue;
        };
        if best.is_none_or(|(l, b)| (level, bytes) > (l, b)) {
            best = Some((level, bytes));
        }
    }
    best.map(|b| b.1)
}

/// `"266240K"`, `"32M"`, `"512"` → bytes.
fn parse_size(s: &str) -> Option<usize> {
    let (digits, mult) = match s.as_bytes().last()? {
        b'K' | b'k' => (&s[..s.len() - 1], 1usize << 10),
        b'M' | b'm' => (&s[..s.len() - 1], 1 << 20),
        b'G' | b'g' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    digits.parse::<usize>().ok()?.checked_mul(mult)
}

/// `MemAvailable` of `/proc/meminfo`, in bytes.
fn mem_available_bytes() -> Option<usize> {
    let text = std::fs::read_to_string("/proc/meminfo").ok()?;
    let line = text.lines().find(|l| l.starts_with("MemAvailable:"))?;
    let kb: usize = line.split_whitespace().nth(1)?.parse().ok()?;
    kb.checked_mul(1024)
}

/// Independent multiply-add chains, wide enough to keep both FP pipes of a
/// core busy and narrow enough to stay in registers. The repository is
/// built for baseline x86-64, so `a*b + c` is a multiply and an add, not a
/// fused instruction: this is the ceiling the shipped kernels can reach.
const CHAINS: usize = 28;

fn mul_add_loop(iters: u64) -> f64 {
    let a = black_box(0.999_999_9f64);
    let b = black_box(1e-9f64);
    let mut acc = [1.0f64; CHAINS];
    for _ in 0..iters {
        for x in &mut acc {
            *x = *x * a + b;
        }
    }
    black_box(acc).iter().sum()
}

/// Peak multiply-add rate of `threads` threads together, GF/s.
fn fma_gflops(threads: usize) -> f64 {
    let iters = 40_000_000u64;
    let mut best = 0.0f64;
    for _ in 0..3 {
        let t0 = Instant::now();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|_| s.spawn(move || mul_add_loop(iters)))
                .collect();
            for h in handles {
                black_box(h.join().expect("probe thread panicked"));
            }
        });
        let flops = 2.0 * CHAINS as f64 * iters as f64 * threads as f64;
        best = best.max(flops / t0.elapsed().as_secs_f64() / 1e9);
    }
    best
}

/// Triad `a = b + s·c` over arrays of `n` doubles split across `threads`;
/// best of three passes, GB/s with 24 bytes per element (computed).
fn triad_gbs(n: usize, threads: usize) -> f64 {
    let mut a = vec![0.0f64; n];
    let b = vec![1.0f64; n];
    let c = vec![2.0f64; n];
    let s = black_box(0.5f64);
    let chunk = n.div_ceil(threads);
    let mut best = 0.0f64;
    for pass in 0..4 {
        let t0 = Instant::now();
        std::thread::scope(|sc| {
            for ((ac, bc), cc) in a
                .chunks_mut(chunk)
                .zip(b.chunks(chunk))
                .zip(c.chunks(chunk))
            {
                sc.spawn(move || {
                    for ((x, y), z) in ac.iter_mut().zip(bc).zip(cc) {
                        *x = *y + s * *z;
                    }
                });
            }
        });
        let gbs = 24.0 * n as f64 / t0.elapsed().as_secs_f64() / 1e9;
        // The first pass pays the page faults of `a`.
        if pass > 0 {
            best = best.max(gbs);
        }
    }
    black_box(&a);
    best
}

/// Run the probe on `threads` threads.
pub fn run(threads: usize) -> Metrics {
    let mut m = Metrics::default();
    let llc = detect_llc_bytes().unwrap_or(DEFAULT_LLC_BYTES);
    let cap = mem_available_bytes().map_or(ARRAY_CAP_BYTES, |avail| ARRAY_CAP_BYTES.min(avail / 4));
    let want = 4 * llc;
    let array_bytes = want.min(cap / 3);
    let capped = array_bytes < want;
    let fma = fma_gflops(threads);
    let gbs = triad_gbs(array_bytes / 8, threads);
    println!(
        "-- machine probe ({threads} threads): multiply-add peak {fma:.2} GF/s; triad {gbs:.2} GB/s \
         over 3 arrays of {:.0} MB, last-level cache {:.0} MB{}",
        array_bytes as f64 / 1e6,
        llc as f64 / 1e6,
        if capped {
            " — arrays below 4x the cache (size cap): triad is CACHE-RESIDENT in part, \
             kernel ops/byte are printed without a roofline ratio"
        } else {
            ""
        }
    );
    m.set("probe.fma_gflops", fma, "GF/s", 3);
    m.set("probe.stream_gbs", gbs, "GB/s", 3);
    m.set("probe.llc_mb", llc as f64 / 1e6, "MB", 0);
    m.set("probe.array_mb", array_bytes as f64 / 1e6, "MB", 0);
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_parse() {
        assert_eq!(parse_size("266240K"), Some(266240 << 10));
        assert_eq!(parse_size("32M"), Some(32 << 20));
        assert_eq!(parse_size("512"), Some(512));
        assert_eq!(parse_size(""), None);
        assert_eq!(parse_size("xK"), None);
    }
}
