//! Fig 6: application timer breakdown in the weak and strong scaling limits.
//!
//! The paper measures Initialization/Setup/Adjoint-p2o/I/O for 200 timesteps
//! and projects the solver and I/O to 20,000 steps, showing the solver at
//! ≥ 95% of application runtime in both limits. We reproduce the protocol on
//! the host at two local problem sizes standing in for the two limits: a
//! large local problem (weak limit) and a small one (strong limit).

use std::sync::Arc;
use tsunami_bench::{comparison_table, fmt_secs, Row};
use tsunami_fem::kernels::KernelContext;
use tsunami_hpc::TimerRegistry;
use tsunami_mesh::{CascadiaBathymetry, HexMesh};
use tsunami_solver::rk4::{rk4_step, Rk4Workspace};
use tsunami_solver::{PhysicalParams, WaveOperator};

fn breakdown(label: &str, nx: usize, ny: usize, nz: usize) -> (Vec<Row>, f64) {
    let timers = TimerRegistry::new();
    timers.time("Initialization", || {
        std::hint::black_box(vec![0u8; 1 << 20]);
    });
    let op = timers.time("Setup", || {
        let bath = CascadiaBathymetry::standard(100e3, 200e3);
        let mesh = Arc::new(HexMesh::terrain_following(nx, ny, nz, 100e3, 200e3, &bath));
        let ctx = Arc::new(KernelContext::new(mesh, 4));
        WaveOperator::new(ctx, PhysicalParams::seawater())
    });
    let n = op.n_state();
    let mut x = vec![0.0; n];
    for (i, v) in x.iter_mut().enumerate() {
        *v = (i as f64 * 1e-3).sin() * 1e-6;
    }
    let mut ws = Rk4Workspace::new(&op, 1);
    let dt = op.params.cfl_dt(200.0, 4, 0.3);
    // Measure 200 steps, project to 20,000 (the paper's protocol).
    timers.time("Adjoint p2o (200 steps)", || {
        for _ in 0..200 {
            rk4_step(&op, &mut x, None, dt, &mut ws);
        }
    });
    let solver_s = timers.seconds("Adjoint p2o (200 steps)") * 100.0; // ×(20000/200)
    timers.add(
        "Adjoint p2o (projected 20k steps)",
        std::time::Duration::from_secs_f64(solver_s - timers.seconds("Adjoint p2o (200 steps)")),
    );
    // I/O: one p2o column write per solve, projected similarly.
    timers.time("I/O", || {
        let bytes = vec![0u8; op.bottom.len() * 8 * 64];
        std::fs::create_dir_all("target/experiments").unwrap();
        std::fs::write("target/experiments/fig6_scratch.bin", &bytes).unwrap();
    });
    let total = timers.seconds("Initialization")
        + timers.seconds("Setup")
        + solver_s
        + timers.seconds("I/O");
    let rows = vec![
        Row {
            label: format!("{label}: Initialization"),
            paper: "0.02–2.3%".into(),
            measured: format!(
                "{} ({:.3}%)",
                fmt_secs(timers.seconds("Initialization")),
                100.0 * timers.seconds("Initialization") / total
            ),
        },
        Row {
            label: format!("{label}: Setup"),
            paper: "0.5–0.6%".into(),
            measured: format!(
                "{} ({:.3}%)",
                fmt_secs(timers.seconds("Setup")),
                100.0 * timers.seconds("Setup") / total
            ),
        },
        Row {
            label: format!("{label}: Adjoint p2o (20k steps)"),
            paper: "95–99%".into(),
            measured: format!("{} ({:.2}%)", fmt_secs(solver_s), 100.0 * solver_s / total),
        },
        Row {
            label: format!("{label}: I/O"),
            paper: "0.08–2.2%".into(),
            measured: format!(
                "{} ({:.3}%)",
                fmt_secs(timers.seconds("I/O")),
                100.0 * timers.seconds("I/O") / total
            ),
        },
    ];
    (rows, 100.0 * solver_s / total)
}

fn main() {
    // Weak limit: large local problem per rank.
    let (mut rows, weak_frac) = breakdown("weak limit", 12, 20, 4);
    // Strong limit: small local problem per rank.
    let (rows2, strong_frac) = breakdown("strong limit", 4, 6, 2);
    rows.extend(rows2);
    println!("{}", comparison_table("Fig 6: timer breakdown", &rows));
    println!("solver fraction: weak limit {weak_frac:.1}%, strong limit {strong_frac:.1}% (paper: 99% / 95%)");
    assert!(
        weak_frac > strong_frac * 0.8,
        "weak limit should be at least as solver-dominated"
    );
}
