//! End-to-end acceptance for pluggable topologies: the full hardware
//! model (scale → embed → distort → anneal → unembed) reaches the
//! compiled ground state of the Figure 2 circuit on a *Pegasus* fabric,
//! with a valid minor embedding — i.e. nothing in the pipeline is
//! secretly Chimera-shaped.

use qac_bench::{compile_workload, FIGURE2};
use qac_chimera::Topology;
use qac_solvers::{DWaveSim, DWaveSimOptions, TopologySpec};

#[test]
fn dwave_sim_reaches_figure2_ground_on_pegasus() {
    let compiled = compile_workload(FIGURE2, "circuit");
    let model = &compiled.assembled.ising;
    let spec = TopologySpec::Pegasus { m: 4 };
    let sim = DWaveSim::new(DWaveSimOptions {
        topology: spec,
        anneal_sweeps: 256,
        ..Default::default()
    });
    let result = sim.run(model, 200).expect("figure2 embeds on Pegasus");

    let best = result.logical.best().expect("samples returned");
    assert!(
        (best.energy - compiled.expected_ground_energy).abs() < 1e-6,
        "best sample energy {} missed the compiled ground energy {}",
        best.energy,
        compiled.expected_ground_energy
    );
    assert!(
        result.logical.ground_fraction(1e-6) > 0.05,
        "ground state should be reached by more than a stray read"
    );

    assert!(
        result.embedding.validate(model, &spec.graph()),
        "the embedding used on Pegasus must be a valid minor embedding"
    );
    // Pegasus qubits only: every chain fits the P4 fabric.
    assert!(result.physical_qubits <= spec.num_qubits());
}
