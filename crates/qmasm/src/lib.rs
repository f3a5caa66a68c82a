//! QMASM — the "quantum macro assembler" (paper §4.3).
//!
//! QMASM is the symbolic layer between netlists and raw Hamiltonian
//! coefficients: programs name variables, state weights (`hᵢ`) and
//! couplings (`Jᵢⱼ`), chain variables together (`=` / `!=`), pin variables
//! to constants (`:=`), define and instantiate macros, include libraries,
//! and carry assertions for post-run checking.
//!
//! This crate implements the language and the assembler:
//!
//! * [`parse`] — text → [`Program`] (with `!include` resolution);
//! * [`assemble`] — [`Program`] → logical [`Ising`] model plus a
//!   [`SymbolTable`], with `=`-chain merging (the §4.4 optimization),
//!   pins, and assertions;
//! * [`Assembled::interpret`] — map a spin assignment back to named,
//!   multi-bit values, the way the `qmasm` tool reports results;
//! * [`stdcell_qmasm`] — generate the `stdcell.qmasm` standard-cell
//!   library text (paper Listing 2) from the verified Table 5 cells.
//!
//! # Example: the paper's Listing 4 (3-input AND from two 2-input ANDs)
//!
//! ```
//! use qac_qmasm::{assemble, parse, AssembleOptions, NoIncludes};
//!
//! let src = r#"
//! !begin_macro AND
//! A  -0.5
//! B  -0.5
//! Y   1
//! A B 0.5
//! A Y -1
//! B Y -1
//! !end_macro AND
//!
//! !begin_macro AND3
//! !use_macro AND and1
//! !use_macro AND and2
//! and1.Y = and2.$x
//! and2.A = $x
//! !end_macro AND3
//! "#;
//! // (Definitions only — no instantiations, so the model is empty.)
//! let program = parse(src, &NoIncludes).unwrap();
//! let assembled = assemble(&program, &AssembleOptions::default()).unwrap();
//! assert_eq!(assembled.ising.num_vars(), 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod assemble;
mod assert;
mod error;
mod parse;
pub mod pin;
mod report;
mod sites;
mod stdgen;

pub use assemble::{assemble, AssembleOptions, Assembled, PinStyle, SymbolTable};
pub use assert::{AssertExpr, AssertOutcome};
pub use error::QmasmError;
pub use parse::{parse, IncludeResolver, MapIncludes, NoIncludes, Program, Statement};
pub use report::{format_solution, Solution, SymbolValue};
pub use sites::{macro_sites, MacroSites};
pub use stdgen::stdcell_qmasm;

pub use qac_pbf::Ising;
