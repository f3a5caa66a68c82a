//! The end-to-end compiler: classical (Verilog) code → quantum annealer.
//!
//! This crate drives every stage of the paper's pipeline (§4):
//!
//! 1. **Verilog → netlist** — `qac-verilog` (Yosys substitute), with
//!    ABC-style optimization from `qac-netlist` and optional §4.3.3 time
//!    unrolling for sequential designs;
//! 2. **netlist → EDIF → netlist** — the textual round trip through
//!    `qac-edif` (the pipeline really does pass through EDIF text, like
//!    the original toolchain);
//! 3. **EDIF → QMASM** — the `edif2qmasm` step: one standard-cell macro
//!    instantiation per gate, one `=` chain per net, weight statements
//!    for ground/power (§4.3.4);
//! 4. **QMASM → logical Ising** — `qac-qmasm` assembly with chain
//!    merging;
//! 5. **logical → physical** — optional roof-duality elision, coefficient
//!    scaling, Chimera minor embedding (`qac-chimera`);
//! 6. **execution** — any `qac-solvers` sampler, forward (pin inputs) or
//!    *backward* (pin outputs, solve for inputs — the paper's central
//!    trick, §4.3.6/§5), with assert checking and symbol-level reporting.
//!
//! # Example: factoring by running a multiplier backward (paper §5.3)
//!
//! ```
//! use qac_core::{compile, CompileOptions, RunOptions, SolverChoice};
//!
//! let src = r#"
//!     module mult (A, B, C);
//!       input [3:0] A;
//!       input [3:0] B;
//!       output [7:0] C;
//!       assign C = A * B;
//!     endmodule
//! "#;
//! let compiled = compile(src, "mult", &CompileOptions::default()).unwrap();
//! let run = RunOptions::new()
//!     .pin("C[7:0] := 10001111") // 143
//!     .solver(SolverChoice::Tabu)
//!     .num_reads(20);
//! let outcome = compiled.run(&run).unwrap();
//! let best = outcome.valid_solutions().next().expect("143 factors");
//! let a = best.get("A").unwrap();
//! let b = best.get("B").unwrap();
//! assert_eq!(a * b, 143);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod certify;
mod error;
mod incr;
mod pipeline;
mod qmasm_gen;
mod run;

pub use certify::{
    backend_obligation, certificate_diagnostics, model_terms,
    PROVED_COUNTER as CERT_PROVED_COUNTER, SKIPPED_COUNTER as CERT_SKIPPED_COUNTER,
};
pub use error::CompileError;
pub use incr::{
    artifact_mismatch, compile_incremental, compile_netlist_incremental, IncrState,
    IncrementalReport, StageDisposition,
};
pub use pipeline::{compile, compile_netlist, CompileOptions, Compiled, PipelineStats};
pub use qac_telemetry::{StageTrace, Trace};
pub use qmasm_gen::netlist_to_qmasm;
pub use run::{
    HardwareStats, PinRealization, QualityReport, RunOptions, RunOutcome, SolvedSample,
    SolverChoice,
};

pub use qac_netlist::unroll::InitialState;

pub use qac_analysis::{AnalysisOptions, AnalysisReport, Code, Diagnostic, Diagnostics, Severity};

pub use qac_cert::{verify_certificate, CertIssue, CompileCertificate, IssueKind};
