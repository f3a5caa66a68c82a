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
//! * [`find_embedding`] — a randomized minor-embedding heuristic in the
//!   style of Cai–Macready–Roy (the SAPI algorithm the paper uses, §4.4),
//!   mapping each logical variable to a connected *chain* of physical
//!   qubits;
//! * [`embed_ising`] / [`unembed`] — applying an embedding to a logical
//!   Ising model (distributing `h` over chains, placing `J` on physical
//!   couplers, adding ferromagnetic intra-chain couplings) and decoding
//!   physical samples back through majority vote.
//!
//! # Example
//!
//! ```
//! use qac_chimera::{Chimera, find_embedding, EmbedOptions};
//!
//! // Embed a triangle (which needs a chain: Chimera has no odd cycles).
//! let hw = Chimera::new(2).graph();
//! let edges = [(0, 1), (1, 2), (0, 2)];
//! let embedding = find_embedding(&edges, 3, &hw, &EmbedOptions::default()).unwrap();
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
pub use cache::{embedding_key, topology_embedding_key, CacheStats, EmbeddingCache};
pub use chimera::Chimera;
pub use embed::{
    find_embedding, find_embedding_or_clique, find_embedding_or_clique_with_stats,
    find_embedding_with_stats, EmbedError, EmbedOptions, EmbedStats, Embedding,
};
pub use graph::{CsrNeighbors, HardwareGraph};
pub use witness::{chain_strength_bound, contraction_witness, ChainWitness};

pub use topology::{
    topology_parameter_hash, KingGraph, Pegasus, Topology, TopologySpec, Zephyr, ADVANTAGE_RANGE,
};
