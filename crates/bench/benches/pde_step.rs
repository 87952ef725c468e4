//! Criterion bench: runtime per RK4 timestep — the paper's primary
//! application metric (Fig 5 y-axis).
//!
//! Two rows per mesh: `rk4_step` advances one state, `rk4_step_panel`
//! advances a lane-minor panel of `LANES` states through one element sweep
//! per stage. Both rows count every state dof of every lane in their
//! Kelem/s column, so that column is the per-right-hand-side rate and the
//! two rows compare directly (the panel row's time per right-hand side is
//! its mean divided by `LANES`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::sync::Arc;
use std::time::Duration;
use tsunami_fem::kernels::{KernelContext, KernelVariant};
use tsunami_mesh::{CascadiaBathymetry, HexMesh};
use tsunami_solver::rk4::{rk4_step, Rk4Workspace};
use tsunami_solver::{PhysicalParams, WaveOperator, LANES};

fn bench_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("runtime_per_timestep");
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(300));
    group.sample_size(10);
    for &n in &[4usize, 6, 8] {
        let bath = CascadiaBathymetry::standard(100e3, 100e3);
        let mesh = Arc::new(HexMesh::terrain_following(n, n, 2, 100e3, 100e3, &bath));
        let ctx = Arc::new(KernelContext::new(mesh, 4));
        let op = WaveOperator::new(ctx, KernelVariant::FusedPa, PhysicalParams::seawater());
        let dofs = op.n_state();
        let dt = op.params.cfl_dt(500.0, 4, 0.3);

        group.throughput(Throughput::Elements(dofs as u64));
        let mut x = vec![1e-6; dofs];
        let mut ws = Rk4Workspace::new(&op, 1);
        group.bench_with_input(BenchmarkId::new("rk4_step", dofs), &n, |b, _| {
            b.iter(|| rk4_step(&op, &mut x, None, dt, &mut ws));
        });

        group.throughput(Throughput::Elements((dofs * LANES) as u64));
        let mut panel = vec![1e-6; dofs * LANES];
        let mut ws = Rk4Workspace::new(&op, LANES);
        group.bench_with_input(BenchmarkId::new("rk4_step_panel", dofs), &n, |b, _| {
            b.iter(|| rk4_step(&op, &mut panel, None, dt, &mut ws));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_step);
criterion_main!(benches);
