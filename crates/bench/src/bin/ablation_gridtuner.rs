//! Ablation: halo-minimizing processor-grid tuner vs naive 1D partitions.
//!
//! Table II rests on one design choice — "the dimensions of
//! the processor grid are adaptively tuned according to the problem sizes
//! and total number of GPUs in order to further reduce communication
//! costs" (§V-A). This harness quantifies the choice: for each machine
//! scale of Table II, compare the tuned `PX × PY × 4` grid against 1D
//! slab partitions in each axis, reporting the per-rank halo surface and
//! the modeled communication time per timestep.
//!
//! ```text
//! cargo run --release -p tsunami-bench --bin ablation_gridtuner
//! ```

use tsunami_hpc::{CommModel, ALPS, EL_CAPITAN, PERLMUTTER};
use tsunami_mesh::partition::halo_surface;
use tsunami_mesh::{Partition, RankGrid};

struct Case {
    machine: &'static str,
    comm: CommModel,
    gpus: usize,
    elems: (usize, usize, usize),
}

fn main() {
    println!("== Ablation: processor-grid tuning vs 1D slab partitions ==\n");
    let cases = [
        Case {
            machine: "El Capitan 340",
            comm: CommModel::new(EL_CAPITAN),
            gpus: 340,
            elems: (640, 2176, 1216),
        },
        Case {
            machine: "El Capitan 43520",
            comm: CommModel::new(EL_CAPITAN),
            gpus: 43_520,
            elems: (5120, 8704, 4864),
        },
        Case {
            machine: "Alps 144",
            comm: CommModel::new(ALPS),
            gpus: 144,
            elems: (512, 1152, 960),
        },
        Case {
            machine: "Alps 9216",
            comm: CommModel::new(ALPS),
            gpus: 9216,
            elems: (2048, 4608, 3840),
        },
        Case {
            machine: "Perlmutter 188",
            comm: CommModel::new(PERLMUTTER),
            gpus: 188,
            elems: (256, 1504, 768),
        },
        Case {
            machine: "Perlmutter 6016",
            comm: CommModel::new(PERLMUTTER),
            gpus: 6016,
            elems: (1024, 4512, 2048),
        },
    ];

    // A fourth-order hex face carries (p+1)² pressure DOFs plus three
    // velocity components at (p)² points; use the same per-face DOF count
    // as the scaling harness.
    let dofs_per_face = 25 + 3 * 16;

    println!(
        "{:<18} {:>10} {:>14} {:>14} {:>14} {:>10}",
        "machine", "grid", "halo(tuned)", "halo(1D-x)", "halo(best 1D)", "comm gain"
    );
    for c in &cases {
        let (ex, ey, ez) = c.elems;
        let tuned = RankGrid::auto(c.gpus, ex, ey, ez, Some(4));
        let tuned_part = Partition::new(tuned, ex, ey, ez);
        let tuned_halo = tuned_part.max_halo_bytes(dofs_per_face);

        // 1D slabs along each axis (pz forced to 1 so the slab count is
        // the full GPU count).
        let slabs = [
            RankGrid {
                px: c.gpus,
                py: 1,
                pz: 1,
            },
            RankGrid {
                px: 1,
                py: c.gpus,
                pz: 1,
            },
        ];
        let slab_halos: Vec<usize> = slabs
            .iter()
            .map(|g| Partition::new(*g, ex, ey, ez).max_halo_bytes(dofs_per_face))
            .collect();
        let best_slab = *slab_halos.iter().min().unwrap();

        // Modeled per-step communication time (halo exchange) for tuned vs
        // the best slab, on this machine's alpha-beta parameters.
        let nodes = (c.gpus / 4).max(1);
        let t_tuned = c.comm.message_time(tuned_halo, nodes);
        let t_slab = c.comm.message_time(best_slab, nodes);

        println!(
            "{:<18} {:>10} {:>12} B {:>12} B {:>12} B {:>9.1}x",
            c.machine,
            format!("{}x{}x{}", tuned.px, tuned.py, tuned.pz),
            tuned_halo,
            slab_halos[0],
            best_slab,
            t_slab / t_tuned
        );

        // Sanity: the tuner must never be worse than the best slab, and the
        // analytic halo-surface objective must rank identically.
        assert!(
            tuned_halo <= best_slab,
            "{}: tuner lost to a slab",
            c.machine
        );
        let hs_tuned = halo_surface(&tuned, ex, ey, ez);
        let hs_slab = slabs
            .iter()
            .map(|g| halo_surface(g, ex, ey, ez))
            .fold(f64::INFINITY, f64::min);
        assert!(hs_tuned <= hs_slab + 1e-9);
    }
    println!("\nThe tuned grids cut the per-rank halo (and hence the modeled halo-");
    println!("exchange time) by an order of magnitude or more at scale, which is");
    println!("what keeps the weak-scaling efficiencies of Fig 5 in the 90s.");
}
