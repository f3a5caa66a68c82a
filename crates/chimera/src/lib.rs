//! The D-Wave Chimera hardware topology and minor embedding.
//!
//! "The most severe hardware limitation in practice is that the on-chip
//! network lacks all-to-all connectivity" (paper §2). This crate models
//! that limitation and the compiler's answer to it:
//!
//! * [`Chimera`] — the Chimera graph `C_m`: an m×m mesh of 8-qubit
//!   bipartite unit cells (Figure 1), with optional qubit drop-out;
//! * [`Topology`] — the pluggable hardware-family trait [`Chimera`]
//!   implements, alongside [`Pegasus`], [`Zephyr`], and [`KingGraph`]
//!   (with [`TopologySpec`] as the value-level choice options carry);
//! * [`embed`] — the one minor-embedding entry point: a randomized
//!   heuristic in the style of Cai–Macready–Roy (the SAPI algorithm the
//!   paper uses, §4.4), mapping each logical variable to a connected
//!   *chain* of physical qubits, with an optional [`EmbeddingCache`] and
//!   the topology's clique template as fallback;
//! * [`embed_ising`] / [`unembed`] — applying an embedding to a logical
//!   Ising model (distributing `h` over chains, placing `J` on physical
//!   couplers, adding ferromagnetic intra-chain couplings) and decoding
//!   physical samples back through majority vote.
//!
//! # Example
//!
//! ```
//! use qac_chimera::{embed, Chimera, EmbedOptions};
//! use qac_pbf::Ising;
//!
//! // Embed a triangle (which needs a chain: Chimera has no odd cycles).
//! let mut triangle = Ising::new(3);
//! for (a, b) in [(0, 1), (1, 2), (0, 2)] {
//!     triangle.add_j(a, b, -1.0);
//! }
//! let chimera = Chimera::new(2);
//! let hw = chimera.graph();
//! let (embedding, _) =
//!     embed(&triangle, &chimera, &hw, &EmbedOptions::default(), None).unwrap();
//! assert!(embedding.validate(&triangle, &hw));
//! assert!(embedding.num_physical_qubits() >= 4); // ≥ one chain of 2
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod apply;
mod cache;
mod chimera;
mod embed;
mod graph;
mod topology;
mod witness;

pub use apply::{
    choose_chain_strength, embed_ising, neighborhood_weights, unembed, unembed_by, ChainBreakStats,
    EmbeddedIsing,
};
pub use cache::{embedding_key, CacheStats, EmbeddingCache};
pub use chimera::Chimera;
pub use embed::{embed, EmbedError, EmbedOptions, EmbedStats, Embedding};
pub use graph::{CsrNeighbors, HardwareGraph};
pub use witness::{chain_strength_bound, contraction_witness, ChainWitness};

pub use topology::{
    topology_parameter_hash, KingGraph, Pegasus, Topology, TopologySpec, Zephyr, ADVANTAGE_RANGE,
};
