//! Gate-level netlist intermediate representation.
//!
//! This crate is the meeting point of the compiler pipeline: the Verilog
//! frontend lowers into it, the EDIF backend serializes it, the QMASM
//! generator walks it, and the logic [`sim`]ulator executes it (both to
//! verify annealer output and to provide the ground truth for tests).
//!
//! The cell set is exactly the ABC default set the paper lists in Table 5:
//! `NOT/BUF`, `AND/OR/NAND/NOR/XOR/XNOR`, `MUX`, `AOI3/OAI3/AOI4/OAI4` and
//! the two D flip-flops.
//!
//! # Example
//!
//! ```
//! use qac_netlist::{Builder, CombSim};
//!
//! // A 1-bit full adder built by hand.
//! let mut b = Builder::new("fulladd");
//! let a = b.input("a", 1)[0];
//! let c = b.input("b", 1)[0];
//! let cin = b.input("cin", 1)[0];
//! let s1 = b.xor(a, c);
//! let sum = b.xor(s1, cin);
//! let c1 = b.and(a, c);
//! let c2 = b.and(s1, cin);
//! let cout = b.or(c1, c2);
//! b.output("sum", &[sum]);
//! b.output("cout", &[cout]);
//! let netlist = b.finish();
//!
//! let sim = CombSim::new(&netlist).unwrap();
//! let out = sim.eval_words(&[("a", 1), ("b", 1), ("cin", 1)]).unwrap();
//! assert_eq!(out["sum"], 1);
//! assert_eq!(out["cout"], 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod cell;
pub mod cut;
mod error;
mod graph;
pub mod incr;
pub mod opt;
pub mod sim;
mod stats;
pub mod unroll;

pub use builder::Builder;
pub use cell::CellKind;
pub use cut::{cut_functions, cut_functions_filtered, CutFunction, CUT_NOT_SELECTED};
pub use error::NetlistError;
pub use graph::{Cell, CellId, NetId, Netlist, Port};
pub use incr::{fnv_str, Fnv};
pub use sim::{CombSim, SeqSim};
pub use stats::NetlistStats;
