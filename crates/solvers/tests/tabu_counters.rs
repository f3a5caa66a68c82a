//! Tabu search's work counters, read off the global telemetry recorder.
//! This file holds a single test so that no other test in the same
//! process adds to the counters while it reads them.

use qac_pbf::Ising;
use qac_solvers::{Sampler, TabuSearch};

#[test]
fn tabu_reports_steps_moves_and_reads_per_second() {
    let mut model = Ising::new(5);
    model.add_j(0, 1, -1.0);
    model.add_j(1, 2, 0.5);
    model.add_j(2, 3, -0.75);
    model.add_j(3, 4, 1.0);
    model.add_h(0, 0.25);
    // Under tenure 1 a flipped variable is admissible again on the next
    // step, so every one of the 9 steps of each of the 3 reads scans all
    // candidates and takes one move.
    let tabu = TabuSearch::new(4).with_tenure(1).with_steps(9);

    let telemetry = qac_telemetry::global();
    telemetry.clear();
    telemetry.enable();
    tabu.sample(&model, 3);
    telemetry.disable();

    let metrics = telemetry.metrics();
    assert_eq!(
        metrics.counter("qac_sampler_sweeps_total{sampler=\"tabu\"}"),
        27
    );
    assert_eq!(
        metrics.counter("qac_sampler_flips_total{sampler=\"tabu\"}"),
        27
    );
    let reads_per_sec = metrics
        .gauge("qac_sampler_reads_per_sec{sampler=\"tabu\"}")
        .expect("tabu sets its reads/s gauge");
    assert!(reads_per_sec > 0.0, "{reads_per_sec}");
}
