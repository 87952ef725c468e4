//! Scaling study: measured host thread-scaling plus the modeled Fig 5
//! machine projections.
//!
//! Part 1 measures *real* strong scaling of the Fused-PA operator on this
//! machine's cores (rayon thread pools of increasing size). Part 2 projects
//! the paper's systems with the α–β–γ model.
//!
//! ```text
//! cargo run --release --example scaling_study
//! ```

use cascadia_dt::prelude::*;
use std::sync::Arc;
use tsunami_fem::kernels::{make_kernel, KernelContext};
use tsunami_hpc::scaling::{ComputeCost, ScalingStudy};

fn main() {
    // --- Part 1: honest host measurements.
    let n = 12;
    let mesh = Arc::new(HexMesh::terrain_following(
        n,
        n,
        n,
        50e3,
        50e3,
        &FlatBathymetry { depth: 3000.0 },
    ));
    let ncores = std::thread::available_parallelism()
        .map(|v| v.get())
        .unwrap_or(4);
    println!(
        "== host strong scaling (measured, {} elements, order 4) ==",
        n * n * n
    );
    println!(
        "{:>8} {:>12} {:>12} {:>10}",
        "threads", "t/apply", "GDOF/s", "speedup"
    );
    let mut t1 = 0.0;
    let mut threads = 1usize;
    while threads <= ncores {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let (t, dofs) = pool.install(|| {
            let ctx = Arc::new(KernelContext::new(mesh.clone(), 4));
            let kernel = make_kernel(KernelVariant::FusedPa, ctx.clone());
            let p = vec![1.0; ctx.n_p()];
            let u = vec![1.0; ctx.n_u()];
            let mut ou = vec![0.0; ctx.n_u()];
            let mut op = vec![0.0; ctx.n_p()];
            kernel.apply_fused(&p, &u, &mut ou, &mut op); // warmup
            let reps = 5;
            let t0 = std::time::Instant::now();
            for _ in 0..reps {
                kernel.apply_fused(&p, &u, &mut ou, &mut op);
            }
            (t0.elapsed().as_secs_f64() / reps as f64, ctx.n_dofs())
        });
        if threads == 1 {
            t1 = t;
        }
        println!(
            "{threads:>8} {:>10.2} ms {:>10.3} {:>9.2}x",
            t * 1e3,
            dofs as f64 / t / 1e9,
            t1 / t
        );
        threads *= 2;
    }

    // --- Part 2: modeled machine projections (Fig 5).
    println!("\n== modeled projections (Fig 5; the model is tsunami_hpc::comm, the full tables fig5_scaling) ==");
    let studies = [
        (
            "El Capitan",
            ScalingStudy::weak(
                EL_CAPITAN,
                (171, 171, 171),
                &[340, 2720, 10_880, 43_520],
                256,
                25,
                4,
                ComputeCost::MachineThroughput,
            ),
        ),
        (
            "Alps",
            ScalingStudy::weak(
                ALPS,
                (158, 158, 158),
                &[144, 1152, 9216],
                256,
                25,
                4,
                ComputeCost::MachineThroughput,
            ),
        ),
        (
            "Perlmutter",
            ScalingStudy::weak(
                PERLMUTTER,
                (116, 116, 116),
                &[188, 1504, 6016],
                256,
                25,
                4,
                ComputeCost::MachineThroughput,
            ),
        ),
    ];
    for (name, study) in &studies {
        let eff = study.weak_efficiency();
        let last = study.points.last().unwrap();
        println!(
            "{name:>12}: weak efficiency {:.0}% at {} GPUs ({:.1}T DOF, {:.3} s/step)",
            100.0 * eff.last().unwrap(),
            last.ranks,
            last.total_dofs as f64 / 1e12,
            last.step_time()
        );
    }
    println!("\npaper: El Capitan 92% @43,520 GPUs (55.5T DOF), Alps 99%, Perlmutter ~100%");
}
