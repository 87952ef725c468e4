//! Optimal sensor placement for the Cascadia array (§III-A / SZ4D).
//!
//! Given a dense grid of *candidate* seafloor sites, greedily select the
//! subset that minimizes the forecast uncertainty at the coastal QoI
//! locations (goal-oriented A-optimal design), and compare against the
//! D-optimal (information-gain) design and random placement.
//!
//! ```text
//! cargo run --release --example sensor_placement
//! ```

use cascadia_dt::prelude::*;

fn main() {
    println!("== Bayesian optimal sensor placement ==\n");

    // Build a twin whose "sensor array" is the full candidate set; the
    // OED machinery then scores sub-arrays without further PDE solves.
    let mut config = TwinConfig::tiny();
    config.sensor_grid = (3, 3); // 9 candidate sites over the offshore band
    let n_cand = config.n_sensors();
    let twin = DigitalTwin::offline(config, 0.02);
    let cand = OedCandidates::build(&twin.phase1, &twin.phase2, &twin.phase3);
    let prior_trace = cand.prior_trace;
    println!(
        "{n_cand} candidate sites | {} QoI entries | prior forecast variance {prior_trace:.4e}",
        cand.b.nrows()
    );

    let n_pick = (n_cand / 2).max(2);

    // Goal-oriented A-optimal greedy design.
    let t0 = std::time::Instant::now();
    let a_design = greedy_design(&cand, n_pick, Criterion::AOptimal);
    println!(
        "\nA-optimal greedy ({} picks, {:.2} s):",
        n_pick,
        t0.elapsed().as_secs_f64()
    );
    println!("  pick  site  trace(Gamma_post(q))  variance reduced");
    for (k, (&site, &tr)) in a_design
        .selected
        .iter()
        .zip(&a_design.objective_path)
        .enumerate()
    {
        println!(
            "  {:>4}  {:>4}  {:>18.4e}  {:>6.1}%",
            k + 1,
            site,
            tr,
            100.0 * (1.0 - tr / prior_trace)
        );
    }

    // D-optimal (information gain) design for comparison.
    let d_design = greedy_design(&cand, n_pick, Criterion::DOptimal);
    println!(
        "\nD-optimal greedy picks:  {:?} (gain {:.2} nats)",
        d_design.selected,
        d_design.objective_path.last().unwrap()
    );
    println!("A-optimal greedy picks:  {:?}", a_design.selected);

    // Random designs of the same size, for scale.
    use cascadia_dt::linalg::random::seeded_rng;
    use rand::prelude::IndexedRandom;
    let mut rng = seeded_rng(11);
    let all: Vec<usize> = (0..n_cand).collect();
    let mut best = f64::INFINITY;
    let mut sum = 0.0;
    let trials = 30;
    for _ in 0..trials {
        let pick: Vec<usize> = all.sample(&mut rng, n_pick).copied().collect();
        let tr = cand.qoi_trace(&pick);
        sum += tr;
        best = best.min(tr);
    }
    let greedy_tr = *a_design.objective_path.last().unwrap();
    println!("\nrandom designs ({trials} trials, same budget):");
    println!(
        "  average trace {:.4e}   best trace {:.4e}",
        sum / trials as f64,
        best
    );
    println!("  greedy  trace {greedy_tr:.4e}");
    println!(
        "  greedy beats the random average by {:.1}% of the prior variance",
        100.0 * (sum / trials as f64 - greedy_tr) / prior_trace
    );
    println!("\nThe diminishing returns along the greedy path are the submodularity");
    println!("that gives the D-optimal design its (1 - 1/e) guarantee.");
}
