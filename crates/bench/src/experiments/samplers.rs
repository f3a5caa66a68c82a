//! Sampler throughput shoot-out: the packed-lane samplers vs a one-lane
//! scalar walk.
//!
//! Runs every §6 baseline workload through simulated annealing,
//! parallel tempering and population annealing at an equal sweep
//! budget and tabulates reads/sec, speedup over the one-lane scalar
//! walk of SA's own algorithm ([`BitParallelSa::sample_reference`]),
//! best energy, and ground fraction.

use std::time::Instant;

use qac_solvers::{BitParallelSa, ParallelTempering, PopulationAnnealing, Sampler};

use crate::{compile_workload, AUSTRALIA, CIRCSAT, FIGURE2};

/// Reads per measurement — a multiple of 64 so the packed samplers run
/// with every lane active.
const READS: usize = 256;

/// Sweeps per read for every sampler (equal budget).
const SWEEPS: usize = 256;

/// The `samplers` experiment: per-workload sampler throughput table.
pub fn run_samplers() {
    println!("== sampler throughput: packed-lane samplers vs the one-lane walk ==");
    println!(
        "({READS} reads, {SWEEPS} sweeps each; speedup is vs SA's one-lane scalar walk, \
         single-threaded)\n"
    );
    let sa = BitParallelSa::new(7).with_sweeps(SWEEPS);
    let samplers: [(&str, Box<dyn Sampler>); 3] = [
        ("sa", Box::new(sa.clone())),
        (
            "pt",
            Box::new(ParallelTempering::new(7).with_sweeps(SWEEPS)),
        ),
        (
            "pa",
            Box::new(PopulationAnnealing::new(7).with_sweeps(SWEEPS)),
        ),
    ];

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
        for (id, sampler) in &samplers {
            let start = Instant::now();
            let set = sampler.sample(&model, READS);
            let rps = READS as f64 / start.elapsed().as_secs_f64().max(1e-9);
            let best = set.best().expect("every run produces samples");
            println!(
                "{:<8} {:>12.0} {:>8.1}× {:>12.3} {:>8.1}%",
                id,
                rps,
                rps / scalar_rps.max(1e-9),
                best.energy,
                set.ground_fraction(1e-6) * 100.0
            );
        }
        println!();
    }
}
