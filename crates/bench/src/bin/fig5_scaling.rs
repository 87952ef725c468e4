//! Fig 5: weak and strong scalability on El Capitan, Alps, Perlmutter.
//!
//! Per-rank compute comes from the machines' published Fused-PA throughput
//! with the Fig 7 saturation roll-off; communication from the α–β–γ
//! dragonfly model (`tsunami_hpc::comm` documents it). Host-kernel
//! measurements (printed first) demonstrate the size-independence of the
//! per-DOF cost in the saturated regime, which is what makes the projection
//! legitimate.

use std::sync::Arc;
use tsunami_bench::{comparison_table, time_median, write_csv, Row};
use tsunami_fem::kernels::{make_kernel, KernelContext, KernelVariant};
use tsunami_hpc::scaling::{ComputeCost, ScalingStudy};
use tsunami_hpc::{ALPS, EL_CAPITAN, FRONTERA, PERLMUTTER};
use tsunami_mesh::{FlatBathymetry, HexMesh};

/// Measure host per-DOF cost of one fused operator application at a given
/// element count (order 4, matching the paper's discretization).
fn host_sec_per_dof(n_elems_target: usize) -> f64 {
    let n = ((n_elems_target as f64).cbrt().round() as usize).max(2);
    let mesh = Arc::new(HexMesh::terrain_following(
        n,
        n,
        n,
        100e3,
        100e3,
        &FlatBathymetry { depth: 3000.0 },
    ));
    let ctx = Arc::new(KernelContext::new(mesh, 4));
    let kernel = make_kernel(KernelVariant::FusedPa, ctx.clone());
    let p = vec![1.0; ctx.n_p()];
    let u = vec![1.0; ctx.n_u()];
    let mut pu = vec![0.0; ctx.n_u()];
    let mut pp = vec![0.0; ctx.n_p()];
    let t = time_median(3, || kernel.apply_fused(&p, &u, &mut pu, &mut pp));
    t / ctx.n_dofs() as f64
}

fn main() {
    println!("host kernel evidence (per-DOF cost should be ~flat once saturated):");
    for &elems in &[512usize, 4_096, 32_768, 110_592] {
        let spd = host_sec_per_dof(elems);
        println!(
            "  {elems:>8} elems: {:.3e} s/DOF ({:.2} GDOF/s host)",
            spd,
            1e-9 / spd
        );
    }

    // Paper discretization constants (order 4): 256 DOF/elem, 25 p-dofs/face.
    let dofs_per_elem = 256;
    let dofs_per_face = 25;

    let el_cap_weak = ScalingStudy::weak(
        EL_CAPITAN,
        (171, 171, 171),
        &[340, 680, 1360, 2720, 5440, 10_880, 21_760, 43_520],
        dofs_per_elem,
        dofs_per_face,
        4,
        ComputeCost::MachineThroughput,
    );
    let alps_weak = ScalingStudy::weak(
        ALPS,
        (158, 158, 158),
        &[144, 288, 576, 1152, 2304, 4608, 9216],
        dofs_per_elem,
        dofs_per_face,
        4,
        ComputeCost::MachineThroughput,
    );
    let perl_weak = ScalingStudy::weak(
        PERLMUTTER,
        (116, 116, 116),
        &[188, 376, 752, 1504, 3008, 6016],
        dofs_per_elem,
        dofs_per_face,
        4,
        ComputeCost::MachineThroughput,
    );

    // Frontera (§VII-A CPU results): one rank = one 56-core node; the
    // paper's 4.80M DOF/core is 268.8M DOF/node (order-4 elems: ~1.05M).
    let frontera_weak = ScalingStudy::weak(
        FRONTERA,
        (102, 102, 101),
        &[1, 8, 64, 512, 4096, 8192],
        dofs_per_elem,
        dofs_per_face,
        4,
        ComputeCost::MachineThroughput,
    );

    for s in [&el_cap_weak, &alps_weak, &perl_weak, &frontera_weak] {
        println!("\n{}", s.report("weak"));
        let eff = s.weak_efficiency();
        let effs: Vec<String> = eff.iter().map(|e| format!("{:.2}", e)).collect();
        println!("weak efficiency: {}", effs.join(" "));
    }

    // Strong scaling: the largest problem fitting the smallest GPU count.
    let el_cap_strong = ScalingStudy::strong(
        EL_CAPITAN,
        (171 * 5, 171 * 17, 171 * 4),
        &[340, 680, 1360, 2720, 5440, 10_880, 21_760, 43_520],
        dofs_per_elem,
        dofs_per_face,
        4,
        ComputeCost::MachineThroughput,
    );
    let alps_strong = ScalingStudy::strong(
        ALPS,
        (158 * 2, 158 * 18, 158 * 4),
        &[144, 288, 576, 1152, 2304, 4608, 9216],
        dofs_per_elem,
        dofs_per_face,
        4,
        ComputeCost::MachineThroughput,
    );
    let perl_strong = ScalingStudy::strong(
        PERLMUTTER,
        (116, 116 * 47, 116 * 4),
        &[188, 376, 752, 1504, 3008, 6016],
        dofs_per_elem,
        dofs_per_face,
        4,
        ComputeCost::MachineThroughput,
    );

    // Frontera strong: the 64-node problem pushed to 8,192 nodes (128x,
    // i.e. 3,584 -> 458,752 cores in the paper's units).
    let frontera_strong = ScalingStudy::strong(
        FRONTERA,
        (102 * 8, 102 * 8, 101),
        &[64, 128, 256, 512, 1024, 2048, 4096, 8192],
        dofs_per_elem,
        dofs_per_face,
        4,
        ComputeCost::MachineThroughput,
    );

    for s in [&el_cap_strong, &alps_strong, &perl_strong, &frontera_strong] {
        println!("\n{}", s.report("strong"));
        let su = s.strong_speedup();
        let sus: Vec<String> = su
            .iter()
            .map(|(sp, ef)| format!("{sp:.1}({ef:.2})"))
            .collect();
        println!("speedup(eff): {}", sus.join(" "));
    }

    // Headline comparisons.
    let rows = vec![
        Row {
            label: "El Capitan weak eff @128x".into(),
            paper: "92% (55.5T DOF)".into(),
            measured: format!(
                "{:.0}% ({:.3}T DOF)",
                100.0 * el_cap_weak.weak_efficiency().last().unwrap(),
                el_cap_weak.points.last().unwrap().total_dofs as f64 / 1e12
            ),
        },
        Row {
            label: "El Capitan strong speedup @128x".into(),
            paper: "100.9x (79%)".into(),
            measured: format!(
                "{:.1}x ({:.0}%)",
                el_cap_strong.strong_speedup().last().unwrap().0,
                100.0 * el_cap_strong.strong_speedup().last().unwrap().1
            ),
        },
        Row {
            label: "Alps weak eff @64x".into(),
            paper: "99% (9.28T DOF)".into(),
            measured: format!(
                "{:.0}%",
                100.0 * alps_weak.weak_efficiency().last().unwrap()
            ),
        },
        Row {
            label: "Alps strong speedup @64x".into(),
            paper: "58.4x (91%)".into(),
            measured: format!(
                "{:.1}x ({:.0}%)",
                alps_strong.strong_speedup().last().unwrap().0,
                100.0 * alps_strong.strong_speedup().last().unwrap().1
            ),
        },
        Row {
            label: "Perlmutter weak eff @32x".into(),
            paper: "100% (2.42T DOF)".into(),
            measured: format!(
                "{:.0}%",
                100.0 * perl_weak.weak_efficiency().last().unwrap()
            ),
        },
        Row {
            label: "Perlmutter strong speedup @32x".into(),
            paper: "29.5x (92%)".into(),
            measured: format!(
                "{:.1}x ({:.0}%)",
                perl_strong.strong_speedup().last().unwrap().0,
                100.0 * perl_strong.strong_speedup().last().unwrap().1
            ),
        },
        Row {
            label: "Frontera weak eff @8192x (CPU)".into(),
            paper: "95% (2.20T DOF)".into(),
            measured: format!(
                "{:.0}% ({:.2}T DOF)",
                100.0 * frontera_weak.weak_efficiency().last().unwrap(),
                frontera_weak.points.last().unwrap().total_dofs as f64 / 1e12
            ),
        },
        Row {
            label: "Frontera strong eff @128x (CPU)".into(),
            paper: "70%".into(),
            measured: format!(
                "{:.1}x ({:.0}%)",
                frontera_strong.strong_speedup().last().unwrap().0,
                100.0 * frontera_strong.strong_speedup().last().unwrap().1
            ),
        },
    ];
    println!(
        "\n{}",
        comparison_table("Fig 5: scalability headlines", &rows)
    );

    // CSV of the El Capitan curves for plotting.
    let gpus: Vec<f64> = el_cap_weak.points.iter().map(|p| p.ranks as f64).collect();
    let step: Vec<f64> = el_cap_weak.points.iter().map(|p| p.step_time()).collect();
    let eff: Vec<f64> = el_cap_weak.weak_efficiency();
    let path = write_csv(
        "fig5_elcapitan_weak.csv",
        &[("gpus", &gpus), ("step_time", &step), ("efficiency", &eff)],
    )
    .expect("csv");
    println!("El Capitan weak curve written to {path}");
}
