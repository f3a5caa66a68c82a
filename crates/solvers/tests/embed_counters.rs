//! Routing-work counters of the hardware model, read off the global
//! telemetry recorder. This file holds a single test so that no other
//! test in the same process adds to the counters while it reads them.

use qac_pbf::Ising;
use qac_solvers::{DWaveSim, DWaveSimOptions, TopologySpec};

#[test]
fn one_run_adds_each_unlabeled_embed_total_once() {
    // A frustrated triangle plus a tail: small, but it needs real
    // routing (a triangle has no native Chimera embedding).
    let mut model = Ising::new(4);
    model.add_j(0, 1, -1.0);
    model.add_j(1, 2, -1.0);
    model.add_j(0, 2, -1.0);
    model.add_j(2, 3, 1.0);
    model.add_h(0, -0.5);
    let options = DWaveSimOptions {
        topology: TopologySpec::Chimera { m: 3 },
        anneal_sweeps: 16,
        ..Default::default()
    };

    let telemetry = qac_telemetry::global();
    telemetry.clear();
    telemetry.enable();
    DWaveSim::new(options).run(&model, 4).unwrap();
    telemetry.disable();

    let metrics = telemetry.metrics();
    for name in [
        "qac_embed_heap_pops_total",
        "qac_embed_edge_relaxations_total",
        "qac_embed_weight_updates_total",
        "qac_route_iterations_total",
        "qac_embed_restarts_total",
    ] {
        let unlabeled = metrics.counter(name);
        let labeled = metrics.counter(&format!("{name}{{topology=\"chimera\"}}"));
        assert_eq!(unlabeled, labeled, "{name}: unlabeled vs chimera-labeled");
    }
    assert!(
        metrics.counter("qac_embed_heap_pops_total") > 0,
        "the run must have routed"
    );
}
