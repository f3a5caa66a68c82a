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

use qac_chimera::{
    find_embedding_or_clique_with_stats, Chimera, EmbedOptions, KingGraph, Pegasus, Topology,
    Zephyr,
};
use qac_pbf::scale::scale_to_range;

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

fn embed_on(
    topology: &dyn Topology,
    edges: &[(usize, usize)],
    num_vars: usize,
    options: &EmbedOptions,
) -> Row {
    let hardware = topology.graph();
    let start = Instant::now();
    let (embedding, stats) =
        find_embedding_or_clique_with_stats(edges, num_vars, topology, &hardware, options)
            .unwrap_or_else(|e| panic!("workload embeds on {}: {e}", topology.family()));
    let embed_us = start.elapsed().as_secs_f64() * 1e6;
    assert!(
        embedding.validate(edges, &hardware),
        "embedding on {} must be valid",
        topology.family()
    );

    // Per-topology routing-work counters, same names and labels the
    // simulator emits, so one metrics export covers both paths.
    let telemetry = qac_telemetry::global();
    let family = topology.family();
    stats.export_topology_counters(family);
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

/// The interaction graph a workload presents to the router (scaling
/// never changes the edge set, so every family sees the identical
/// logical graph the simulator would route).
fn workload_edges(source: &str, top: &str) -> (Vec<(usize, usize)>, usize) {
    let compiled = compile_workload(source, top);
    let scaled = scale_to_range(
        &compiled.assembled.ising,
        qac_pbf::scale::CoefficientRange::DWAVE_2000Q,
    );
    let edges = scaled.model.j_iter().map(|t| (t.i, t.j)).collect();
    (edges, scaled.model.num_vars())
}

/// The per-topology comparison table over the §6 workloads.
pub fn run_topology() {
    println!("== topology axis: §6 workloads across hardware families ==\n");

    // (label, edges, num_vars, routable on the king lattice).
    type WorkloadRow = (&'static str, Vec<(usize, usize)>, usize, bool);
    let unary = handcoded_australia_unary();
    let workloads: [WorkloadRow; 4] = [
        {
            let (edges, n) = workload_edges(FIGURE2, "circuit");
            ("figure2", edges, n, true)
        },
        {
            let (edges, n) = workload_edges(CIRCSAT, "circsat");
            ("circsat", edges, n, true)
        },
        {
            // The compiled map-coloring netlist has degree-15 logical
            // variables; the router places it on the dense fabrics but
            // not on a degree-8 king lattice, so that row is skipped.
            let (edges, n) = workload_edges(AUSTRALIA, "australia");
            ("australia", edges, n, false)
        },
        {
            let edges = unary.j_iter().map(|t| (t.i, t.j)).collect();
            ("australia-unary", edges, unary.num_vars(), true)
        },
    ];
    for (label, edges, num_vars, on_king) in &workloads {
        println!(
            "{label}: {num_vars} logical variables, {} logical couplings",
            edges.len()
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
            embed_on(&Chimera::dwave_2000q(), edges, *num_vars, &options),
            embed_on(&Pegasus::new(6), edges, *num_vars, &options),
            embed_on(&Zephyr::new(4), edges, *num_vars, &options),
        ];
        if *on_king {
            rows.push(embed_on(&KingGraph::new(48), edges, *num_vars, &options));
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
