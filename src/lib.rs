//! QAC — a compiler from classical (Verilog) code to quantum annealers.
//!
//! This is the umbrella crate of the workspace: it re-exports every
//! subsystem so examples, integration tests, and downstream users can
//! depend on a single crate. See the README for the architecture map and
//! DESIGN.md for the paper-reproduction inventory.
//!
//! The subsystems, bottom-up:
//!
//! * [`pbf`] — Ising/QUBO models, scaling, roof duality;
//! * [`simplex`] — the LP solver behind gate synthesis;
//! * [`gatesynth`] — truth table → Hamiltonian synthesis, Table 5 cells;
//! * [`netlist`] — gate-level IR, simulation, optimization, unrolling;
//! * [`verilog`] — the Verilog frontend;
//! * [`edif`] — EDIF interchange;
//! * [`qmasm`] — the QMASM macro assembler;
//! * [`chimera`] — hardware topology and minor embedding;
//! * [`solvers`] — annealers and classical samplers;
//! * [`csp`] — the classical constraint-solver baseline;
//! * [`analysis`] — the multi-pass static analyzer and lint framework;
//! * [`core`] — the end-to-end pipeline ([`core::compile`] / run).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use qac_analysis as analysis;
pub use qac_chimera as chimera;
pub use qac_core as core;
pub use qac_csp as csp;
pub use qac_edif as edif;
pub use qac_gatesynth as gatesynth;
pub use qac_netlist as netlist;
pub use qac_pbf as pbf;
pub use qac_qmasm as qmasm;
pub use qac_simplex as simplex;
pub use qac_solvers as solvers;
pub use qac_verilog as verilog;
