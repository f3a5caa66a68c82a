//! Translation-validation certificates for the compile pipeline
//! (DESIGN.md §15).
//!
//! Every certified compile emits a [`CompileCertificate`]: a
//! machine-checkable artifact recording, per proof obligation, the
//! evidence that one pipeline translation preserved the semantics of its
//! input. Three obligation kinds cover the pipeline end-to-end:
//!
//! * **front end** ([`CutObligation`]) — the pre-optimization netlist and
//!   the post-EDIF netlist compute the same Boolean function at every
//!   output bit, shown by exhaustively enumerating each output's cut
//!   function over its (bounded) input support on both sides;
//! * **macro library** ([`MacroObligation`]) — every QMASM macro the
//!   program instantiates is a unit Ising model whose ground states,
//!   projected onto the gate's pins, are exactly the gate's satisfying
//!   rows, with a strictly positive energy gap to every other row;
//! * **back end** ([`BackendObligation`]) — the embedded hardware model
//!   chain-contracts, term by term, back to the logical model, every
//!   chain's intra-chain couplers form a connected subgraph, and the
//!   chain strength dominates the QAC03x neighborhood-weight bound.
//!
//! The trust boundary: the *producer* (the compiler's `certify` stage and
//! the embedding driver) records the obligations; the *checker*
//! ([`verify_certificate`]) re-verifies them from the recorded data alone,
//! sharing only the certificate format with the producer — its gate
//! semantics, energy evaluation, connectivity search, and contraction are
//! independent re-implementations, so a bug in `qac-gatesynth`,
//! `qac-qmasm`, or `qac-chimera` cannot vouch for itself.
//!
//! Certificates are deterministic: obligations are emitted in sorted
//! (stage, site, variable) order by [`CompileCertificate::finalize`], so
//! the rendered JSON is byte-identical regardless of thread count or
//! compile path (cold, incremental with reused obligations, replay).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cert;
mod check;

pub use cert::{
    truth_hash, BackendObligation, ChainRecord, CompileCertificate, CutObligation, MacroObligation,
    ModelTerms, CERT_FORMAT, MAX_CUT_SUPPORT, MAX_MACRO_SPINS,
};
pub use check::{verify_certificate, CertIssue, IssueKind};
