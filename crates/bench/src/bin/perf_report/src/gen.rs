//! Seeded input generation. Everything the program under test sees comes
//! from here, and all of it is a function of `--seed`: the bank family and
//! its blends, the event streams and their noise, and the paced arrival
//! schedule. The generator is the harness's own (SplitMix64 + Box–Muller),
//! so inputs stay bit-stable even if the repository's `rand` stand-in
//! changes.

use tsunami_core::{ScenarioBank, TwinConfig};
use tsunami_linalg::DMatrix;

/// Shared problem `k1024` (see the README): 16 sensors × 64 steps.
pub const SENSOR_GRID: (usize, usize) = (4, 4);
pub const NT_OBS: usize = 64;
pub const N_QOI: usize = 32;
pub const NOISE_STD: f64 = 0.02;
pub const WINDOWS: [usize; 4] = [16, 32, 48, 64];
pub const PDE_SCENARIOS: usize = 32;
pub const BANK_WIDTH: usize = 1024;
pub const RANK: usize = 32;
pub const SESSIONS: usize = 2000;
/// Samples per observation step (`Nd`).
pub const ND: usize = SENSOR_GRID.0 * SENSOR_GRID.1;

/// The stretched tiny configuration of the `goal_oriented` and
/// `modespace_assimilation` benches.
pub fn k1024_config() -> TwinConfig {
    let mut cfg = TwinConfig::tiny();
    cfg.sensor_grid = SENSOR_GRID;
    cfg.nt_obs = NT_OBS;
    cfg.n_qoi = N_QOI;
    cfg
}

/// SplitMix64 with a cached Box–Muller spare. `stream` separates the
/// independent uses of one seed (blends, noise, schedule, …).
pub struct Rng {
    state: u64,
    spare: Option<f64>,
}

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng {
            state: seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03),
            spare: None,
        };
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        ((self.unit() * n as f64) as usize).min(n - 1)
    }

    /// Standard normal.
    pub fn normal(&mut self) -> f64 {
        if let Some(z) = self.spare.take() {
            return z;
        }
        let u = (1.0 - self.unit()).max(f64::MIN_POSITIVE);
        let v = self.unit();
        let r = (-2.0 * u.ln()).sqrt();
        let (s, c) = (std::f64::consts::TAU * v).sin_cos();
        self.spare = Some(r * s);
        r * c
    }
}

// RNG stream ids.
const STREAM_BLEND: u64 = 1;
const STREAM_EVENT: u64 = 2;
const STREAM_SYNTH: u64 = 3;
const STREAM_SCHEDULE: u64 = 1 << 20;

/// Convex weights over 2 or 3 distinct columns of a `width`-wide block.
fn convex_blend(rng: &mut Rng, width: usize) -> Vec<(usize, f64)> {
    let n = 2 + rng.below(2);
    let mut picks: Vec<(usize, f64)> = Vec::with_capacity(n);
    while picks.len() < n {
        let c = rng.below(width);
        if picks.iter().all(|&(p, _)| p != c) {
            picks.push((c, 0.1 + rng.unit()));
        }
    }
    let total: f64 = picks.iter().map(|p| p.1).sum();
    for p in &mut picks {
        p.1 /= total;
    }
    picks
}

/// Widen a PDE-generated bank to `width` columns: the PDE columns first,
/// then seeded convex blends of 2–3 of them. Reaches bank scale without
/// `width` forward solves.
pub fn widen_bank(base: &ScenarioBank, width: usize, seed: u64) -> ScenarioBank {
    let src = base.clean_observations();
    let (n, b) = (src.nrows(), src.ncols());
    let mut rng = Rng::new(seed, STREAM_BLEND);
    let mut clean = DMatrix::zeros(n, width);
    for j in 0..width {
        if j < b {
            for i in 0..n {
                clean[(i, j)] = src[(i, j)];
            }
        } else {
            for (c, w) in convex_blend(&mut rng, b) {
                for i in 0..n {
                    clean[(i, j)] += w * src[(i, c)];
                }
            }
        }
    }
    ScenarioBank::synthetic(clean.clone(), clean, NOISE_STD)
}

/// `n` event streams (time-major, `Nd·Nt` samples each): seeded convex
/// blends of 2–3 bank columns plus `N(0, NOISE_STD²)` noise.
pub fn event_streams(bank: &ScenarioBank, n: usize, seed: u64) -> Vec<Vec<f64>> {
    let clean = bank.clean_observations();
    let (rows, width) = (clean.nrows(), clean.ncols());
    let mut rng = Rng::new(seed, STREAM_EVENT);
    (0..n)
        .map(|_| {
            let blend = convex_blend(&mut rng, width);
            (0..rows)
                .map(|i| {
                    let signal: f64 = blend.iter().map(|&(c, w)| w * clean[(i, c)]).sum();
                    signal + NOISE_STD * rng.normal()
                })
                .collect()
        })
        .collect()
}

/// `n` bank-free event streams for the one-shot workload, whose cost does
/// not depend on the data: a few seeded travelling sinusoids plus noise.
pub fn synthetic_streams(n: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = Rng::new(seed, STREAM_SYNTH);
    (0..n)
        .map(|_| {
            let waves: Vec<(f64, f64, f64, f64)> = (0..3)
                .map(|_| {
                    (
                        0.2 + 0.8 * rng.unit(),
                        0.05 + 0.4 * rng.unit(),
                        rng.unit() * 1.5,
                        rng.unit() * std::f64::consts::TAU,
                    )
                })
                .collect();
            (0..ND * NT_OBS)
                .map(|i| {
                    let (t, s) = ((i / ND) as f64, (i % ND) as f64);
                    let signal: f64 = waves
                        .iter()
                        .map(|&(a, w, k, p)| a * (w * t - k * s + p).sin())
                        .sum();
                    signal + NOISE_STD * rng.normal()
                })
                .collect()
        })
        .collect()
}

/// Pack streams as the columns of a `(Nd·Nt) × B` block.
pub fn as_columns(streams: &[Vec<f64>]) -> DMatrix {
    let rows = streams[0].len();
    let mut d = DMatrix::zeros(rows, streams.len());
    for (j, s) in streams.iter().enumerate() {
        d.set_col(j, s);
    }
    d
}

// ---------------------------------------------------------------------
// Paced arrival schedule
// ---------------------------------------------------------------------

/// Which samples of a step a packet carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Part {
    /// All `Nd` samples.
    Whole,
    /// The first half.
    Head,
    /// The second half.
    Tail,
}

impl Part {
    /// Sample range within the step.
    pub fn range(self) -> std::ops::Range<usize> {
        match self {
            Part::Whole => 0..ND,
            Part::Head => 0..ND / 2,
            Part::Tail => ND / 2..ND,
        }
    }

    /// True for the packet that completes its step.
    pub fn completes_step(self) -> bool {
        !matches!(self, Part::Head)
    }
}

/// One scheduled packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Packet {
    /// When the generator is due to send it, ns from the run's start.
    pub due_ns: u64,
    /// Session slot (0..sessions).
    pub slot: u32,
    /// Which event of the slot (0 = the one live at start).
    pub event: u32,
    /// Observation step within the event.
    pub step: u8,
    pub part: Part,
}

/// One phase of the open loop: a fixed offered rate for a fixed time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Phase {
    /// Offered session-steps per second over all sessions.
    pub rate: f64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The whole arrival schedule of a paced run.
pub struct Schedule {
    /// Packets in due order.
    pub packets: Vec<Packet>,
    /// Warm-up first, then the measured rate steps.
    pub phases: Vec<Phase>,
    /// Steps of each slot's first event that arrived before the run
    /// started: fed as one burst at time 0, so every slot starts at a
    /// seeded point of its lifecycle and churn is steady from the start.
    pub prefill_steps: Vec<u8>,
    pub sessions: usize,
}

/// Share of steps that arrive as two half packets.
const SPLIT_SHARE: f64 = 0.2;
/// Arrival jitter: each gap is the mean gap times `1 ± JITTER`.
const JITTER: f64 = 0.3;

impl Schedule {
    /// Build the schedule: `sessions` slots, each an endless sequence of
    /// 64-step events. A slot emits one step per `sessions / rate` seconds
    /// (the rate of the phase the previous step fell in) with ±30 % seeded
    /// jitter; 20 % of steps are split into two half packets, the second
    /// due up to a quarter gap later. After step 64 the slot's next event
    /// starts one gap later. `rates[0]` is the warm-up rate.
    pub fn generate(sessions: usize, rates: &[f64], durations_s: &[f64], seed: u64) -> Self {
        assert_eq!(rates.len(), durations_s.len(), "one duration per rate");
        let mut phases = Vec::with_capacity(rates.len());
        let mut t0 = 0u64;
        for (&rate, &d) in rates.iter().zip(durations_s) {
            assert!(rate > 0.0 && d > 0.0, "rates and durations are positive");
            let end = t0 + (d * 1e9) as u64;
            phases.push(Phase {
                rate,
                start_ns: t0,
                end_ns: end,
            });
            t0 = end;
        }
        let horizon = t0;
        let gap_ns = |t: u64| -> f64 {
            let ph = phases
                .iter()
                .find(|p| t < p.end_ns)
                .unwrap_or(phases.last().expect("at least one phase"));
            sessions as f64 / ph.rate * 1e9
        };

        let mut packets = Vec::new();
        let mut prefill_steps = Vec::with_capacity(sessions);
        for slot in 0..sessions {
            let mut rng = Rng::new(seed, STREAM_SCHEDULE + slot as u64);
            let prefill = rng.below(NT_OBS);
            prefill_steps.push(prefill as u8);
            let mut t = (rng.unit() * gap_ns(0)) as u64;
            let (mut event, mut step) = (0u32, prefill);
            while t < horizon {
                let gap = gap_ns(t);
                let mut push = |due_ns: u64, part: Part| {
                    if due_ns < horizon {
                        packets.push(Packet {
                            due_ns,
                            slot: slot as u32,
                            event,
                            step: step as u8,
                            part,
                        });
                    }
                };
                if rng.unit() < SPLIT_SHARE {
                    push(t, Part::Head);
                    push(t + (rng.unit() * 0.25 * gap) as u64, Part::Tail);
                } else {
                    push(t, Part::Whole);
                }
                t += (gap * (1.0 - JITTER + 2.0 * JITTER * rng.unit())) as u64;
                step += 1;
                if step == NT_OBS {
                    step = 0;
                    event += 1;
                }
            }
        }
        // Per slot the packets are already in due order; a stable sort by
        // due time keeps that order among equal stamps.
        packets.sort_by_key(|p| p.due_ns);
        Schedule {
            packets,
            phases,
            prefill_steps,
            sessions,
        }
    }

    /// FNV-1a over every packet's due time, slot, event, step and size —
    /// the identity of a schedule.
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        let mut eat = |v: u64| {
            for b in v.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        for p in &self.packets {
            eat(p.due_ns);
            eat(p.slot as u64);
            eat(p.event as u64);
            eat(p.step as u64);
            eat(p.part.range().len() as u64);
        }
        h
    }
}

/// Stream index of a slot's `event`-th event: a fixed walk through the
/// stream pool (617 is coprime to every pool size used).
pub fn stream_of(slot: u32, event: u32, n_streams: usize) -> usize {
    (slot as usize + event as usize * 617) % n_streams
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(seed: u64) -> Schedule {
        Schedule::generate(50, &[2000.0, 4000.0], &[0.5, 0.5], seed)
    }

    #[test]
    fn schedule_is_bit_identical_for_one_seed_and_differs_for_another() {
        let (a, b, c) = (small(7), small(7), small(8));
        assert_eq!(a.packets, b.packets);
        assert_eq!(a.prefill_steps, b.prefill_steps);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn schedule_is_ordered_complete_and_on_rate() {
        let s = small(3);
        assert!(s.packets.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        // Per slot: steps advance by one, wrap at 64 into the next event,
        // and every split step has its tail after its head.
        for slot in 0..s.sessions as u32 {
            let mine: Vec<&Packet> = s.packets.iter().filter(|p| p.slot == slot).collect();
            let mut expect = (0u32, s.prefill_steps[slot as usize]);
            let mut open_head = false;
            for p in mine {
                assert_eq!((p.event, p.step), expect, "slot {slot}");
                match p.part {
                    Part::Head => {
                        assert!(!open_head);
                        open_head = true;
                    }
                    Part::Tail => {
                        assert!(open_head);
                        open_head = false;
                    }
                    Part::Whole => assert!(!open_head),
                }
                if p.part.completes_step() {
                    expect.1 += 1;
                    if expect.1 as usize == NT_OBS {
                        expect = (expect.0 + 1, 0);
                    }
                }
            }
        }
        // Offered steps per phase are within 10 % of rate × time.
        for ph in &s.phases {
            let steps = s
                .packets
                .iter()
                .filter(|p| {
                    p.part.completes_step() && p.due_ns >= ph.start_ns && p.due_ns < ph.end_ns
                })
                .count() as f64;
            let want = ph.rate * (ph.end_ns - ph.start_ns) as f64 / 1e9;
            assert!((steps / want - 1.0).abs() < 0.1, "{steps} vs {want}");
        }
        // About a fifth of the steps are split.
        let heads = s.packets.iter().filter(|p| p.part == Part::Head).count() as f64;
        let steps = s.packets.iter().filter(|p| p.part != Part::Tail).count() as f64;
        assert!((heads / steps - SPLIT_SHARE).abs() < 0.05);
    }

    #[test]
    fn rng_is_seeded_and_roughly_standard() {
        let mut a = Rng::new(1, 0);
        let mut b = Rng::new(1, 0);
        let mut c = Rng::new(1, 1);
        assert_eq!(a.next_u64(), b.next_u64());
        assert_ne!(a.next_u64(), c.next_u64());
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| a.normal()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05 && (var - 1.0).abs() < 0.05);
    }

    #[test]
    fn blends_are_convex() {
        let mut rng = Rng::new(9, 9);
        for _ in 0..100 {
            let b = convex_blend(&mut rng, 32);
            assert!(b.len() == 2 || b.len() == 3);
            assert!((b.iter().map(|p| p.1).sum::<f64>() - 1.0).abs() < 1e-12);
            assert!(b.iter().all(|p| p.1 > 0.0 && p.0 < 32));
        }
    }
}
