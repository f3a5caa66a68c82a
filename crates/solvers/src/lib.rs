//! Samplers that minimize Ising/QUBO models.
//!
//! The paper's generated Hamiltonians are minimized on a D-Wave 2000Q,
//! but §2 notes the same functions "can be minimized in software on
//! conventional computers using, e.g., simulated annealing". This crate
//! provides that software substrate:
//!
//! * [`ExactSolver`] — exhaustive enumeration (the oracle for tests and
//!   small problems);
//! * [`BitParallelSa`] — multi-read Metropolis simulated annealing with
//!   a geometric β schedule, 64 replicas packed per machine word
//!   (multi-spin coding) and words spread across threads;
//! * [`TabuSearch`] — deterministic local search with a tabu list, the
//!   core move of D-Wave's classical `qbsolv`;
//! * [`DWaveSim`] — an end-to-end hardware model: minor embedding onto
//!   any [`TopologySpec`] fabric (Chimera by default, as in the paper),
//!   coefficient scaling and quantization, analog noise, stochastic
//!   sampling, majority-vote unembedding, chain-break accounting, and a
//!   timing model for §6.2-style per-solution costs.
//!
//! All samplers implement [`Sampler`] and are deterministic under a fixed
//! seed (reads are seeded independently, so thread scheduling cannot
//! change results).
//!
//! # Example
//!
//! ```
//! use qac_pbf::{Ising, Spin};
//! use qac_solvers::{BitParallelSa, Sampler};
//!
//! // A ferromagnetic pair pinned up: ground state (+1, +1).
//! let mut model = Ising::new(2);
//! model.add_h(0, -1.0);
//! model.add_j(0, 1, -1.0);
//! let sampler = BitParallelSa::new(7).with_sweeps(50);
//! let result = sampler.sample(&model, 20);
//! let best = result.best().unwrap();
//! assert_eq!(best.spins, vec![Spin::Up, Spin::Up]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chain_block;
mod dwave_sim;
mod exact;
mod multispin;
mod sample;
mod tabu;

pub use dwave_sim::{DWaveSim, DWaveSimOptions, DWaveSimResult, PhysicalAnnealer, TimingModel};
// Re-exported so DWaveSimOptions call sites can name a fabric without
// depending on qac-chimera directly.
pub use exact::ExactSolver;
pub use multispin::BitParallelSa;
pub use qac_chimera::{Topology, TopologySpec};
pub use sample::{Sample, SampleSet, Sampler};
pub use tabu::TabuSearch;
