//! Sampler throughput: packed-lane simulated annealing vs a one-lane
//! scalar walk.
//!
//! Runs every §6 baseline workload through simulated annealing and
//! tabulates reads/sec, speedup over the one-lane scalar walk of the
//! same algorithm ([`BitParallelSa::sample_reference`]), best energy,
//! and ground fraction.

use std::time::Instant;

use qac_solvers::{BitParallelSa, Sampler};

use crate::{compile_workload, AUSTRALIA, CIRCSAT, FIGURE2};

/// Reads per measurement — a multiple of 64 so the packed sampler runs
/// with every lane active.
const READS: usize = 256;

/// Sweeps per read.
const SWEEPS: usize = 256;

/// The `samplers` experiment: per-workload sampler throughput table.
pub fn run_samplers() {
    println!("== sampler throughput: packed-lane SA vs the one-lane walk ==");
    println!(
        "({READS} reads, {SWEEPS} sweeps; speedup is vs SA's one-lane scalar walk, \
         single-threaded)\n"
    );
    let sa = BitParallelSa::new(7).with_sweeps(SWEEPS);

    for (name, source, top) in [
        ("figure2", FIGURE2, "circuit"),
        ("circsat", CIRCSAT, "circsat"),
        ("australia", AUSTRALIA, "australia"),
    ] {
        let model = compile_workload(source, top).assembled.ising.clone();
        println!(
            "-- {name}: {} vars, {} couplers --",
            model.num_vars(),
            model.num_couplings()
        );
        println!(
            "{:<8} {:>12} {:>9} {:>12} {:>9}",
            "sampler", "reads/sec", "speedup", "best E", "ground%"
        );
        let scalar_start = Instant::now();
        sa.sample_reference(&model, READS);
        let scalar_rps = READS as f64 / scalar_start.elapsed().as_secs_f64().max(1e-9);
        let start = Instant::now();
        let set = sa.sample(&model, READS);
        let rps = READS as f64 / start.elapsed().as_secs_f64().max(1e-9);
        let best = set.best().expect("every run produces samples");
        println!(
            "{:<8} {:>12.0} {:>8.1}× {:>12.3} {:>8.1}%",
            "sa",
            rps,
            rps / scalar_rps.max(1e-9),
            best.energy,
            set.ground_fraction(1e-6) * 100.0
        );
        println!();
    }
}
