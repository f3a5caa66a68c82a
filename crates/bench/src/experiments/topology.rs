//! The `--topology` axis: the same §6 workloads embedded on every
//! supported hardware family side by side.
//!
//! The paper targets one machine (a D-Wave 2000Q, Chimera C16). This
//! experiment asks what the *same compiled programs* cost on newer and
//! denser fabrics — Pegasus (Advantage), Zephyr (Advantage2), and an
//! idealized king's-graph lattice — by routing each workload on each
//! topology and tabulating qubit budget, chain lengths, and embed time.
//! Denser fabrics should shorten chains: every extra coupler per qubit
//! is connectivity the router does not have to synthesize.

use std::time::Instant;

use qac_chimera::{embed, Chimera, EmbedOptions, KingGraph, Pegasus, Topology, Zephyr};
use qac_pbf::Ising;

use crate::{compile_workload, handcoded_australia_unary, AUSTRALIA, CIRCSAT, FIGURE2};

/// One row of the table: a workload embedded on one topology.
struct Row {
    topology: String,
    qubits: usize,
    physical: usize,
    max_chain: usize,
    mean_chain: f64,
    embed_us: f64,
    restarts: usize,
}

fn embed_on(topology: &dyn Topology, model: &Ising, options: &EmbedOptions) -> Row {
    let hardware = topology.graph();
    let start = Instant::now();
    let (embedding, stats) = embed(model, topology, &hardware, options, None)
        .unwrap_or_else(|e| panic!("workload embeds on {}: {e}", topology.family()));
    let embed_us = start.elapsed().as_secs_f64() * 1e6;
    assert!(
        embedding.validate(model, &hardware),
        "embedding on {} must be valid",
        topology.family()
    );

    // `embed` exported the per-topology routing-work counters; add the
    // qubit and chain figures under the same label.
    let telemetry = qac_telemetry::global();
    let family = topology.family();
    telemetry.counter_add(
        &format!("qac_embed_physical_qubits_total{{topology=\"{family}\"}}"),
        embedding.num_physical_qubits() as u64,
    );
    // The longest chain any workload needs on this fabric: the cost
    // hardware precision pays for, so CI caps it per topology.
    let max_chain = format!("qac_embed_max_chain{{topology=\"{family}\"}}");
    let longest = telemetry.metrics().gauge(&max_chain).unwrap_or(0.0);
    telemetry.gauge_set(&max_chain, longest.max(embedding.max_chain_length() as f64));

    let chains = embedding.chains();
    let chained: Vec<&Vec<usize>> = chains.iter().filter(|c| !c.is_empty()).collect();
    let mean_chain = if chained.is_empty() {
        0.0
    } else {
        embedding.num_physical_qubits() as f64 / chained.len() as f64
    };
    Row {
        topology: format!("{} {}", family, topology.coordinate_scheme()),
        qubits: topology.num_qubits(),
        physical: embedding.num_physical_qubits(),
        max_chain: embedding.max_chain_length(),
        mean_chain,
        embed_us,
        restarts: stats.restarts,
    }
}

/// The per-topology comparison table over the §6 workloads.
pub fn run_topology() {
    println!("== topology axis: §6 workloads across hardware families ==\n");

    // (label, logical model, routable on the king lattice).
    let model = |source, top| compile_workload(source, top).assembled.ising;
    let workloads: [(&str, Ising, bool); 4] = [
        ("figure2", model(FIGURE2, "circuit"), true),
        ("circsat", model(CIRCSAT, "circsat"), true),
        // The compiled map-coloring netlist has degree-15 logical
        // variables; the router places it on the dense fabrics but not
        // on a degree-8 king lattice, so that row is skipped.
        ("australia", model(AUSTRALIA, "australia"), false),
        ("australia-unary", handcoded_australia_unary(), true),
    ];
    for (label, model, on_king) in &workloads {
        // Explicit zero couplings need no coupler, so they are not routed.
        let couplings = model.j_iter().filter(|t| t.value != 0.0).count();
        println!(
            "{label}: {} logical variables, {couplings} logical couplings",
            model.num_vars()
        );
        println!(
            "{:<26} {:>8} {:>10} {:>10} {:>11} {:>11} {:>9}",
            "topology", "qubits", "physical", "max chain", "mean chain", "embed time", "restarts"
        );
        let options = EmbedOptions {
            seed: 11,
            ..Default::default()
        };
        let mut rows = vec![
            embed_on(&Chimera::dwave_2000q(), model, &options),
            embed_on(&Pegasus::new(6), model, &options),
            embed_on(&Zephyr::new(4), model, &options),
        ];
        if *on_king {
            rows.push(embed_on(&KingGraph::new(48), model, &options));
        }
        for r in &rows {
            println!(
                "{:<26} {:>8} {:>10} {:>10} {:>11.2} {:>9.0}µs {:>9}",
                r.topology, r.qubits, r.physical, r.max_chain, r.mean_chain, r.embed_us, r.restarts
            );
        }
        if !on_king {
            println!("king (row, col)             — skipped: compiled netlist exceeds a degree-8 fabric's routability");
        }
        println!();
    }
    println!("expected shape: denser fabrics (Pegasus/Zephyr) carry the same");
    println!("workload with shorter chains than Chimera; the sparse king");
    println!("lattice pays for its degree-8 couplers with the longest chains. ✓");
}
