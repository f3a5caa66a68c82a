//! Golden-chain fixture generation for the embedding router.
//!
//! `tests/golden/router_chains.txt` (Chimera, captured before the
//! CSR/scratch rewrite) is frozen history and is never regenerated.
//! `tests/golden/router_chains_topology.txt` pins the router on the
//! *other* fabrics — Pegasus and the king's graph — and is produced by
//! [`topology_golden_fixture`], which the `golden_gen` binary writes to
//! disk and the `golden_router` test replays byte-for-byte.

use qac_chimera::{embed, EmbedOptions, KingGraph, Pegasus, Topology};
use qac_pbf::Ising;

use crate::{compile_workload, handcoded_australia_unary, FIGURE2};

/// The workload set the topology goldens cover: the Figure 2 circuit and
/// the §6.1 hand-coded unary map coloring. (The *compiled* map-coloring
/// netlist has degree-15 variables and does not route on a degree-8
/// king lattice, so the hand-coded §6 variant stands in for it here.)
fn golden_workloads() -> Vec<(&'static str, Ising)> {
    vec![
        (
            "figure2",
            compile_workload(FIGURE2, "circuit").assembled.ising,
        ),
        ("australia-unary", handcoded_australia_unary()),
    ]
}

/// The topology set the goldens cover, as `(token, topology)` pairs.
fn golden_topologies() -> Vec<(&'static str, Box<dyn Topology>)> {
    vec![
        ("pegasus6", Box::new(Pegasus::new(6))),
        ("king48", Box::new(KingGraph::new(48))),
    ]
}

/// Renders the topology golden fixture: every golden workload routed on
/// every golden topology with seeds 11 and 12, default options
/// otherwise. Chains print in variable order, one `var: qubits...` line
/// each, under a `workload NAME topology TOKEN seed N` header. Every
/// embedding is validated before it is rendered, so a fixture can never
/// pin an invalid routing.
pub fn topology_golden_fixture() -> String {
    let mut out = String::new();
    for (workload, model) in golden_workloads() {
        for (token, topology) in golden_topologies() {
            let hardware = topology.graph();
            for seed in [11u64, 12] {
                let options = EmbedOptions {
                    seed,
                    ..EmbedOptions::default()
                };
                let (embedding, _) = embed(&model, topology.as_ref(), &hardware, &options, None)
                    .unwrap_or_else(|e| panic!("{workload} on {token} seed {seed}: {e}"));
                assert!(
                    embedding.validate(&model, &hardware),
                    "{workload} on {token} seed {seed}: invalid embedding"
                );
                out.push_str(&format!(
                    "workload {workload} topology {token} seed {seed}\n"
                ));
                for (var, chain) in embedding.chains().iter().enumerate() {
                    out.push_str(&format!("{var}:"));
                    for q in chain {
                        out.push_str(&format!(" {q}"));
                    }
                    out.push('\n');
                }
                out.push('\n');
            }
        }
    }
    out
}
