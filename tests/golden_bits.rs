//! Bit-exact regression test for the PDE layer: pins FNV-1a fingerprints
//! of the `to_bits` of every Phase 1 Toeplitz block (`F` and `Fq` on
//! `TwinConfig::tiny()`) and of a 3-scenario `WaveSolver::forward_batch`.
//!
//! The golden quickstart test allows 1e-7 relative drift and the p2o
//! impulse test 1e-9; this one allows none. Any change to the order of
//! floating-point operations in the kernel sweep, the RK4 step, the adjoint
//! recurrence or the observation operators flips a bit and fails here —
//! which is the point: a restructuring of the time stepper (lane panels,
//! threading, scratch reuse) must leave every column exactly as it was.

use cascadia_dt::prelude::*;
use cascadia_dt::solver::{build_p2o, build_p2q};

/// 64-bit FNV-1a over the IEEE-754 bit patterns, little-endian bytes.
fn fnv1a(values: impl IntoIterator<Item = f64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Every entry of every defining block, block by block, row-major.
fn toeplitz_fingerprint(t: &BlockToeplitz) -> u64 {
    fnv1a(
        t.blocks
            .iter()
            .flat_map(|b| (0..b.nrows()).flat_map(move |r| (0..b.ncols()).map(move |c| b[(r, c)]))),
    )
}

const GOLDEN_F: u64 = 0x3cbc_3feb_b5c8_29f8;
const GOLDEN_FQ: u64 = 0xc73e_58dc_67b0_2b6e;
const GOLDEN_BANK: u64 = 0x940b_afc4_6b60_6626;

#[test]
fn phase1_blocks_are_bit_identical_to_golden() {
    let config = TwinConfig::tiny();
    let solver = config.build_solver();
    let f = build_p2o(&solver);
    let fq = build_p2q(&solver);
    assert_eq!(
        toeplitz_fingerprint(&f),
        GOLDEN_F,
        "F blocks changed at the bit level"
    );
    assert_eq!(
        toeplitz_fingerprint(&fq),
        GOLDEN_FQ,
        "Fq blocks changed at the bit level"
    );
}

#[test]
fn forward_batch_is_bit_identical_to_golden() {
    let config = TwinConfig::tiny();
    let solver = config.build_solver();
    let ms: Vec<Vec<f64>> = ScenarioBank::family(&config, 3, 2025)
        .iter()
        .map(|spec| SyntheticEvent::sample_rupture(&config, &solver, &spec.build_rupture(&config)))
        .collect();
    let out = solver.forward_batch(&ms);
    assert_eq!(out.len(), 3);
    let bits = fnv1a(
        out.iter()
            .flat_map(|(d, q)| d.iter().chain(q.iter()).copied()),
    );
    assert_eq!(
        bits, GOLDEN_BANK,
        "forward_batch output changed at the bit level"
    );
}
