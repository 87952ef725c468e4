//! Bayesian optimal experimental design: where to put the sensors.
//!
//! §III-A of the paper notes that the NEPTUNE cabled observatory offers
//! "valuable data to inform optimal sensor placement" for proposed future
//! offshore deployments (SZ4D). This module closes that loop: given a set
//! of *candidate* seafloor sites, it selects the subset that most reduces
//! the uncertainty of the tsunami forecast itself — goal-oriented design,
//! not parameter-space design.
//!
//! Everything runs in data space, exactly like the inversion. For a
//! candidate subset `S` (row blocks of the candidate p2o map `F`):
//!
//! ```text
//!   Γpost(q; S) = A0 − B_S (σ²I + P_SS)⁻¹ B_Sᵀ,
//!   A0 = Fq Γprior Fqᵀ,  B = Fq Γprior Fᵀ,  P = F Γprior Fᵀ,
//! ```
//!
//! so the *only* quantities needed are the prior Gram matrices `P`, `B`
//! over the full candidate array and `trace A0` — displacement Grams
//! computed once — and every subset evaluation is a small dense Cholesky.
//! Two classical criteria are provided:
//!
//! - **A-optimal (goal-oriented)**: minimize `trace Γpost(q; S)` — the
//!   total forecast variance at the warning locations.
//! - **D-optimal**: maximize the expected information gain
//!   `½ log det(I + P_SS/σ²)`, a monotone submodular set function, for
//!   which greedy selection carries the Nemhauser–Wolsey–Fisher
//!   `(1 − 1/e)` guarantee.

use crate::phase1::Phase1;
use crate::phase2::{toeplitz_gram, Phase2};
use crate::phase3::Phase3;
use rayon::prelude::*;
use tsunami_linalg::{Cholesky, DMatrix};

/// Prior Gram matrices over a candidate sensor array, ready for subset
/// evaluation.
pub struct OedCandidates {
    /// `P = F Γprior Fᵀ` over all candidates (`Nc·Nt × Nc·Nt`).
    pub p: DMatrix,
    /// `B = Fq Γprior Fᵀ` (`Nq·Nt × Nc·Nt`).
    pub b: DMatrix,
    /// Prior forecast variance `trace A0`, `A0 = Fq Γprior Fqᵀ`.
    pub prior_trace: f64,
    /// Number of candidate sensors `Nc`.
    pub n_cand: usize,
    /// Observation steps `Nt`.
    pub nt: usize,
    /// Noise variance σ².
    pub sigma2: f64,
}

/// Selection criterion for [`greedy_design`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Criterion {
    /// Minimize the total QoI posterior variance `trace Γpost(q; S)`.
    AOptimal,
    /// Maximize the expected information gain `½ log det(I + P_SS/σ²)`.
    DOptimal,
}

/// Result of a greedy design: the chosen sensors in pick order and the
/// objective value after each pick.
#[derive(Clone, Debug)]
pub struct SensorDesign {
    /// Candidate indices in the order they were selected.
    pub selected: Vec<usize>,
    /// Objective after each pick: `trace Γpost(q)` for A-optimal
    /// (decreasing), information gain for D-optimal (increasing).
    pub objective_path: Vec<f64>,
}

impl OedCandidates {
    /// Assemble the Gram matrices from the offline products of a twin
    /// built over the *candidate* array (its Phase 1/2/3 treat every
    /// candidate as a live sensor).
    pub fn build(p1: &Phase1, p2: &Phase2, p3: &Phase3) -> Self {
        // P = K − σ²I, re-formed as a displacement Gram: Phase 2 only
        // keeps the factor of K.
        let mut p = toeplitz_gram(&p2.g, &p1.f);
        p.symmetrize();
        OedCandidates {
            p,
            b: p3.b.clone(),
            prior_trace: p3.a0.diag().iter().sum(),
            n_cand: p1.f.out_dim,
            nt: p1.f.nt,
            sigma2: p2.sigma2,
        }
    }

    /// Data-space row indices of a sensor subset (time-major layout:
    /// sensor `r` occupies rows `{t·Nc + r}`).
    pub fn subset_indices(&self, sensors: &[usize]) -> Vec<usize> {
        let mut idx = Vec::with_capacity(sensors.len() * self.nt);
        for t in 0..self.nt {
            for &r in sensors {
                assert!(r < self.n_cand, "candidate index {r} out of range");
                idx.push(t * self.n_cand + r);
            }
        }
        idx
    }

    /// Total QoI posterior variance `trace Γpost(q; S)` for a subset.
    /// The empty set returns the prior value `trace A0`.
    pub fn qoi_trace(&self, sensors: &[usize]) -> f64 {
        if sensors.is_empty() {
            return self.prior_trace;
        }
        let idx = self.subset_indices(sensors);
        let k = self.restrict_k(&idx);
        let ch = Cholesky::factor(&k).expect("restricted data-space Hessian must be SPD");
        // reduction = trace(B_S K_S⁻¹ B_Sᵀ) = Σ_ij B_S[i,j]·X[j,i], X = K_S⁻¹ B_Sᵀ.
        let nq = self.b.nrows();
        let bs = DMatrix::from_fn(nq, idx.len(), |r, c| self.b[(r, idx[c])]);
        let x = ch.solve_multi(&bs.transpose());
        let mut reduction = 0.0;
        for r in 0..nq {
            for c in 0..idx.len() {
                reduction += bs[(r, c)] * x[(c, r)];
            }
        }
        self.prior_trace - reduction
    }

    /// Expected information gain `½ log det(I + P_SS/σ²)` for a subset.
    pub fn info_gain(&self, sensors: &[usize]) -> f64 {
        if sensors.is_empty() {
            return 0.0;
        }
        let idx = self.subset_indices(sensors);
        let k = self.restrict_k(&idx);
        let ch = Cholesky::factor(&k).expect("restricted data-space Hessian must be SPD");
        0.5 * (ch.log_det() - idx.len() as f64 * self.sigma2.ln())
    }

    /// `K_S = σ²I + P[idx, idx]`.
    fn restrict_k(&self, idx: &[usize]) -> DMatrix {
        let mut k = DMatrix::from_fn(idx.len(), idx.len(), |r, c| self.p[(idx[r], idx[c])]);
        k.shift_diag(self.sigma2);
        k.symmetrize();
        k
    }
}

/// Greedily select `n_pick` sensors from the candidate array: at each step
/// add the candidate with the best marginal improvement of the criterion,
/// evaluated exactly (fresh restricted Cholesky per candidate, in
/// parallel over candidates).
pub fn greedy_design(cand: &OedCandidates, n_pick: usize, criterion: Criterion) -> SensorDesign {
    assert!(
        n_pick <= cand.n_cand,
        "cannot pick {n_pick} of {} candidates",
        cand.n_cand
    );
    let mut selected: Vec<usize> = Vec::with_capacity(n_pick);
    let mut objective_path = Vec::with_capacity(n_pick);
    for _ in 0..n_pick {
        let best = (0..cand.n_cand)
            .into_par_iter()
            .filter(|r| !selected.contains(r))
            .map(|r| {
                let mut trial = selected.clone();
                trial.push(r);
                let score = match criterion {
                    // Lower trace is better: negate so we can max everywhere.
                    Criterion::AOptimal => -cand.qoi_trace(&trial),
                    Criterion::DOptimal => cand.info_gain(&trial),
                };
                (score, r)
            })
            // Argmax as a parallel reduction: the operator is associative
            // and order-independent (ties broken toward the smaller index),
            // so the result is identical for any piece grouping — pinned
            // against the serial std fold in `reduce_matches_serial_fold`.
            .reduce(
                || (f64::NEG_INFINITY, usize::MAX),
                |a, b| {
                    if b.0 > a.0 || (b.0 == a.0 && b.1 < a.1) {
                        b
                    } else {
                        a
                    }
                },
            );
        assert!(best.1 != usize::MAX, "no candidate could be evaluated");
        selected.push(best.1);
        objective_path.push(match criterion {
            Criterion::AOptimal => -best.0,
            Criterion::DOptimal => best.0,
        });
    }
    SensorDesign {
        selected,
        objective_path,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TwinConfig;
    use crate::twin::DigitalTwin;
    use rand::prelude::IndexedRandom;
    use tsunami_linalg::random::seeded_rng;

    fn candidates() -> (DigitalTwin, OedCandidates) {
        let twin = DigitalTwin::offline(TwinConfig::tiny(), 0.03);
        let cand = OedCandidates::build(&twin.phase1, &twin.phase2, &twin.phase3);
        (twin, cand)
    }

    #[test]
    fn full_subset_reproduces_phase3_trace() {
        let (twin, cand) = candidates();
        let all: Vec<usize> = (0..cand.n_cand).collect();
        let trace_full = cand.qoi_trace(&all);
        let trace_p3: f64 = twin.phase3.gamma_post_q().diag().iter().sum();
        assert!(
            (trace_full - trace_p3).abs() < 1e-7 * trace_p3.abs().max(1e-12),
            "full-array OED trace {trace_full} vs Phase 3 trace {trace_p3}"
        );
    }

    #[test]
    fn adding_sensors_never_hurts() {
        // Monotonicity: Γpost(q; S) ⪰ Γpost(q; T) for S ⊆ T, so the trace
        // is non-increasing; info gain is non-decreasing.
        let (_twin, cand) = candidates();
        let mut set: Vec<usize> = Vec::new();
        let mut prev_trace = cand.qoi_trace(&set);
        let mut prev_gain = cand.info_gain(&set);
        for r in 0..cand.n_cand {
            set.push(r);
            let tr = cand.qoi_trace(&set);
            let ig = cand.info_gain(&set);
            assert!(tr <= prev_trace + 1e-9 * prev_trace.abs().max(1e-12));
            assert!(ig >= prev_gain - 1e-9);
            prev_trace = tr;
            prev_gain = ig;
        }
    }

    #[test]
    fn info_gain_is_submodular_on_chains() {
        // Diminishing returns: the gain of adding sensor r to S is at
        // least its gain when added to any superset T ⊇ S.
        let (_twin, cand) = candidates();
        let n = cand.n_cand;
        assert!(n >= 3, "test needs at least 3 candidates");
        let s: Vec<usize> = vec![0];
        let t: Vec<usize> = vec![0, 1];
        for r in 2..n {
            let mut sr = s.clone();
            sr.push(r);
            let mut tr = t.clone();
            tr.push(r);
            let gain_s = cand.info_gain(&sr) - cand.info_gain(&s);
            let gain_t = cand.info_gain(&tr) - cand.info_gain(&t);
            assert!(
                gain_s >= gain_t - 1e-9,
                "submodularity violated at r={r}: {gain_s} < {gain_t}"
            );
        }
    }

    #[test]
    fn greedy_a_optimal_beats_random_on_average() {
        let (_twin, cand) = candidates();
        let n_pick = (cand.n_cand / 2).max(1);
        let design = greedy_design(&cand, n_pick, Criterion::AOptimal);
        let greedy_trace = cand.qoi_trace(&design.selected);

        let mut rng = seeded_rng(42);
        let all: Vec<usize> = (0..cand.n_cand).collect();
        let mut rand_sum = 0.0;
        let trials = 20;
        for _ in 0..trials {
            let pick: Vec<usize> = all.sample(&mut rng, n_pick).copied().collect();
            rand_sum += cand.qoi_trace(&pick);
        }
        let rand_avg = rand_sum / trials as f64;
        assert!(
            greedy_trace <= rand_avg + 1e-9 * rand_avg.abs(),
            "greedy {greedy_trace} should beat random average {rand_avg}"
        );
    }

    #[test]
    fn greedy_objective_path_is_monotone() {
        let (_twin, cand) = candidates();
        let d_a = greedy_design(&cand, cand.n_cand, Criterion::AOptimal);
        for w in d_a.objective_path.windows(2) {
            assert!(w[1] <= w[0] + 1e-9 * w[0].abs().max(1e-12));
        }
        let d_d = greedy_design(&cand, cand.n_cand, Criterion::DOptimal);
        for w in d_d.objective_path.windows(2) {
            assert!(w[1] >= w[0] - 1e-9);
        }
        // No duplicates in either selection.
        let mut sa = d_a.selected.clone();
        sa.sort_unstable();
        sa.dedup();
        assert_eq!(sa.len(), cand.n_cand);
    }

    #[test]
    fn empty_design_returns_prior_uncertainty() {
        let (twin, cand) = candidates();
        let prior_trace: f64 = twin.phase3.a0.diag().iter().sum();
        assert_eq!(cand.qoi_trace(&[]), prior_trace);
        assert_eq!(cand.info_gain(&[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_candidate_rejected() {
        let (_twin, cand) = candidates();
        let _ = cand.qoi_trace(&[cand.n_cand]);
    }

    /// The rayon-style `reduce(identity, op)` in `greedy_design` must pick
    /// exactly what the serial std `fold` it replaced would pick: the
    /// argmax operator is associative with a total tie-break order, so any
    /// parallel piece grouping agrees with the left-to-right fold.
    #[test]
    fn reduce_matches_serial_fold() {
        let (_twin, cand) = candidates();
        let n_pick = 3;
        let design = greedy_design(&cand, n_pick, Criterion::AOptimal);
        let mut selected: Vec<usize> = Vec::new();
        for _ in 0..n_pick {
            let best = (0..cand.n_cand)
                .filter(|r| !selected.contains(r))
                .map(|r| {
                    let mut trial = selected.clone();
                    trial.push(r);
                    (-cand.qoi_trace(&trial), r)
                })
                .fold((f64::NEG_INFINITY, usize::MAX), |a, b| {
                    if b.0 > a.0 || (b.0 == a.0 && b.1 < a.1) {
                        b
                    } else {
                        a
                    }
                });
            selected.push(best.1);
        }
        assert_eq!(design.selected, selected);
    }
}
