//! Incremental recompilation (DESIGN.md §14): a warm recompile runs
//! every stage a cold compile runs, and reuses only the certificate
//! obligations whose cone fingerprints held still.
//!
//! Every compile records an [`IncrState`] on its [`Compiled`] result:
//! deterministic FNV keys for the entry point (source text or input
//! netlist) and the option set. A later [`compile_incremental`] call
//! decides in three steps:
//!
//! * options changed → full rebuild (nothing is reusable);
//! * entry key identical → every stage replays its cached artifact;
//! * otherwise the shared compile driver runs cold, handing the previous
//!   certificate to `certify`, which copies every obligation whose cone
//!   fingerprint held still and re-proves the rest. The result is
//!   byte-identical to a cold compile — the property tests in
//!   `qac-bench` enforce exactly that.
//!
//! Observability: the [`IncrementalReport`] is read off the run's
//! [`Trace`](crate::Trace). Skipped stages appear there with a `cached`
//! mark and zero duration, emit `stage_skip` flight events tagged with
//! the current trace id, and bump `qac_incr_stage_hit_total`; re-run
//! stages bump `qac_incr_stage_miss_total`.

use qac_cert::CompileCertificate;
use qac_netlist::{Fnv, Netlist};
use qac_telemetry::Trace;

use crate::pipeline::{compile_netlist_from, compile_source, CertReuse};
use crate::{CompileError, CompileOptions, Compiled};

/// Keys recorded on every [`Compiled`], consumed by
/// [`compile_incremental`] to decide between a full rebuild, a replay
/// and a cold compile that reuses certificate obligations.
#[derive(Debug, Clone)]
pub struct IncrState {
    /// Key of the entry point's input.
    pub(crate) entry_key: EntryKey,
    /// Key of every compile-relevant option (embed options excluded —
    /// they do not shape compile artifacts).
    pub(crate) options_key: u64,
}

/// Content key of a compile's input, tagged with its entry point so a
/// source key never matches a netlist key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EntryKey {
    /// Key of the Verilog source + top module.
    Source(u64),
    /// Structural key of the input netlist.
    Netlist(u64),
}

/// What [`compile_incremental`] did with one stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageDisposition {
    /// Input key matched — the cached artifact was replayed.
    Skipped,
    /// The stage re-ran from scratch.
    Full,
    /// The stage re-ran, reusing part of the previous compile's
    /// artifact: `certify` copies the obligations whose reuse keys held
    /// still and re-proves the rest.
    Spliced {
        /// Obligations copied from the previous certificate.
        reused: usize,
        /// Obligations proved afresh.
        redone: usize,
    },
}

impl std::fmt::Display for StageDisposition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            StageDisposition::Skipped => write!(f, "skip"),
            StageDisposition::Full => write!(f, "full"),
            StageDisposition::Spliced { reused, redone } => {
                write!(f, "splice({reused} reused, {redone} redone)")
            }
        }
    }
}

/// Per-stage account of one incremental recompile.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IncrementalReport {
    /// `(stage name, disposition)` in execution order.
    pub stages: Vec<(String, StageDisposition)>,
    /// True when the option set changed, so nothing was reusable and the
    /// cold pipeline ran.
    pub full_rebuild: bool,
}

impl IncrementalReport {
    /// How many stages were skipped outright.
    pub fn skipped(&self) -> usize {
        self.stages
            .iter()
            .filter(|(_, d)| *d == StageDisposition::Skipped)
            .count()
    }

    /// The disposition of `stage`, if it appears in the report.
    pub fn disposition(&self, stage: &str) -> Option<StageDisposition> {
        self.stages
            .iter()
            .find(|(name, _)| name == stage)
            .map(|&(_, d)| d)
    }
}

/// Content key of a Verilog compilation unit.
pub(crate) fn source_fingerprint(source: &str, top: &str) -> u64 {
    let mut h = Fnv::new();
    h.write_str(source);
    h.write_str(top);
    h.finish()
}

/// Content key of every compile-relevant option. Embed options are
/// deliberately excluded: they configure downstream runs, not the
/// artifacts this pipeline produces.
pub(crate) fn options_key(options: &CompileOptions) -> u64 {
    let mut h = Fnv::new();
    h.write_str(&format!(
        "{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
        options.opt_level,
        options.unroll_steps,
        options.unroll_initial,
        options.merge_chains,
        options.chain_strength,
        options.analysis,
        options.certify,
    ));
    h.finish()
}

/// Recompiles `source` against the previous compile `prev`. The
/// returned [`Compiled`] is byte-identical (artifact-wise) to what a
/// cold [`compile`](crate::compile) of the same inputs would produce;
/// the [`IncrementalReport`] says which stages were skipped, spliced, or
/// fully re-run.
///
/// # Errors
/// Any [`CompileError`] a re-run stage raises.
pub fn compile_incremental(
    prev: &Compiled,
    source: &str,
    top: &str,
    options: &CompileOptions,
) -> Result<(Compiled, IncrementalReport), CompileError> {
    let entry_key = EntryKey::Source(source_fingerprint(source, top));
    recompile(prev, options, entry_key, |prev_certificate| {
        compile_source(source, top, options, prev_certificate)
    })
}

/// [`compile_incremental`] for the netlist entry point: the entry key is
/// the netlist's structural hash instead of the source text.
///
/// # Errors
/// Any [`CompileError`] a re-run stage raises.
pub fn compile_netlist_incremental(
    prev: &Compiled,
    netlist: Netlist,
    options: &CompileOptions,
) -> Result<(Compiled, IncrementalReport), CompileError> {
    let entry_key = EntryKey::Netlist(netlist.structural_hash());
    recompile(prev, options, entry_key, |prev_certificate| {
        compile_netlist_from(netlist, options, prev_certificate)
    })
}

/// The decision chain both incremental entry points share: changed
/// options rebuild from scratch, an identical entry key replays every
/// stage, and anything else compiles cold with the previous certificate
/// in hand.
fn recompile(
    prev: &Compiled,
    options: &CompileOptions,
    entry_key: EntryKey,
    compile: impl FnOnce(Option<&CompileCertificate>) -> Result<(Compiled, CertReuse), CompileError>,
) -> Result<(Compiled, IncrementalReport), CompileError> {
    let _span = qac_telemetry::global().span("compile");
    if options_key(options) != prev.incr.options_key {
        return Ok(report(compile(None)?, true));
    }
    if prev.incr.entry_key == entry_key {
        return Ok(replay_all(prev, options));
    }
    Ok(report(compile(prev.certificate.as_ref())?, false))
}

/// The entry key matched: replay every stage of the previous compile.
fn replay_all(prev: &Compiled, options: &CompileOptions) -> (Compiled, IncrementalReport) {
    let mut trace = Trace::new();
    for stage in prev.trace.stages() {
        trace.skip(&stage.name, stage.output_size);
    }
    qac_telemetry::global().counter_add("qac_incr_stage_hit_total", trace.len() as u64);
    let mut out = prev.clone();
    out.trace = trace;
    // Keep the caller's options: embed settings may differ without
    // perturbing the compile key.
    out.options = options.clone();
    report((out, None), false)
}

/// Reads the [`IncrementalReport`] off the compile's trace — a skipped
/// entry replayed, a `certify` that reused obligations spliced, anything
/// else ran in full — and accounts the stages that ran as misses.
fn report(
    (compiled, cert_reuse): (Compiled, CertReuse),
    full_rebuild: bool,
) -> (Compiled, IncrementalReport) {
    let stages: Vec<(String, StageDisposition)> = compiled
        .trace
        .stages()
        .iter()
        .map(|stage| {
            let disposition = match cert_reuse {
                _ if stage.skipped => StageDisposition::Skipped,
                Some((reused, proved)) if stage.name == "certify" && reused > 0 => {
                    StageDisposition::Spliced {
                        reused,
                        redone: proved,
                    }
                }
                _ => StageDisposition::Full,
            };
            (stage.name.clone(), disposition)
        })
        .collect();
    let misses = stages
        .iter()
        .filter(|(_, d)| *d != StageDisposition::Skipped)
        .count();
    qac_telemetry::global().counter_add("qac_incr_stage_miss_total", misses as u64);
    (
        compiled,
        IncrementalReport {
            stages,
            full_rebuild,
        },
    )
}

/// Compares every artifact of two compiles, returning a description of
/// the first mismatch (or `None` when they are identical). The
/// incremental property tests use this to pinpoint which artifact diverged.
pub fn artifact_mismatch(a: &Compiled, b: &Compiled) -> Option<String> {
    if a.netlist != b.netlist {
        return Some("netlist differs".to_string());
    }
    if a.edif != b.edif {
        return Some("edif text differs".to_string());
    }
    if a.qmasm != b.qmasm {
        return Some("qmasm text differs".to_string());
    }
    if a.stdcell != b.stdcell {
        return Some("stdcell text differs".to_string());
    }
    if a.assembled != b.assembled {
        if a.assembled.ising != b.assembled.ising {
            return Some("assembled ising differs".to_string());
        }
        return Some("assembled metadata differs".to_string());
    }
    if a.expected_ground_energy.to_bits() != b.expected_ground_energy.to_bits() {
        return Some(format!(
            "expected ground energy differs: {} vs {}",
            a.expected_ground_energy, b.expected_ground_energy
        ));
    }
    if a.analysis != b.analysis {
        return Some("analysis report differs".to_string());
    }
    if a.certificate != b.certificate {
        return Some("compile certificate differs".to_string());
    }
    if a.stats != b.stats {
        return Some("pipeline stats differ".to_string());
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile, compile_netlist};
    use qac_netlist::Builder;

    const MUX_ADD_SUB: &str = r#"
        module circuit (s, a, b, c);
          input s, a, b;
          output [1:0] c;
          assign c = s ? a+b : a-b;
        endmodule
    "#;

    fn demo_netlist() -> Netlist {
        let mut b = Builder::new("demo");
        let a = b.input("a", 1)[0];
        let c = b.input("b", 1)[0];
        let d = b.input("d", 1)[0];
        let x = b.xor(a, c);
        let y = b.and(x, d);
        let z = b.or(y, a);
        b.output("z", &[z]);
        b.finish()
    }

    #[test]
    fn identical_source_skips_every_stage() {
        let options = CompileOptions::default();
        let cold = compile(MUX_ADD_SUB, "circuit", &options).unwrap();
        let (warm, report) = compile_incremental(&cold, MUX_ADD_SUB, "circuit", &options).unwrap();
        assert_eq!(report.stages.len(), 10);
        assert!(report
            .stages
            .iter()
            .all(|(_, d)| *d == StageDisposition::Skipped));
        assert!(!report.full_rebuild);
        assert_eq!(artifact_mismatch(&cold, &warm), None);
        assert!(warm.trace.stages().iter().all(|s| s.skipped));
    }

    #[test]
    fn comment_edit_runs_every_stage_and_reuses_every_proof() {
        // Neither the unrolled nor the optimized netlist moves, so every
        // stage re-runs as in a cold compile and `certify` copies every
        // obligation from the previous certificate.
        let options = CompileOptions::default();
        let cold = compile(MUX_ADD_SUB, "circuit", &options).unwrap();
        let edited = MUX_ADD_SUB.replace(
            "assign c",
            "// the mux, now with a comment\n          assign c",
        );
        let (warm, report) = compile_incremental(&cold, &edited, "circuit", &options).unwrap();
        assert!(!report.full_rebuild);
        assert_eq!(report.stages.len(), 10);
        for (stage, disposition) in &report.stages {
            if stage != "certify" {
                assert_eq!(*disposition, StageDisposition::Full, "{stage}");
            }
        }
        assert!(matches!(
            report.disposition("certify"),
            Some(StageDisposition::Spliced { redone: 0, .. })
        ));
        let recold = compile(&edited, "circuit", &options).unwrap();
        assert_eq!(artifact_mismatch(&recold, &warm), None);
    }

    #[test]
    fn changed_options_force_a_full_rebuild() {
        let cold = compile(MUX_ADD_SUB, "circuit", &CompileOptions::default()).unwrap();
        let options = CompileOptions {
            merge_chains: false,
            ..Default::default()
        };
        let (warm, report) = compile_incremental(&cold, MUX_ADD_SUB, "circuit", &options).unwrap();
        assert!(report.full_rebuild);
        assert!(report
            .stages
            .iter()
            .all(|(_, d)| *d == StageDisposition::Full));
        let recold = compile(MUX_ADD_SUB, "circuit", &options).unwrap();
        assert_eq!(artifact_mismatch(&recold, &warm), None);
    }

    #[test]
    fn embed_options_do_not_perturb_the_compile_key() {
        let mut options = CompileOptions::default();
        let cold = compile(MUX_ADD_SUB, "circuit", &options).unwrap();
        options.embed.tries += 3;
        let (warm, report) = compile_incremental(&cold, MUX_ADD_SUB, "circuit", &options).unwrap();
        assert!(report
            .stages
            .iter()
            .all(|(_, d)| *d == StageDisposition::Skipped));
        assert_eq!(warm.options.embed.tries, options.embed.tries);
    }

    #[test]
    fn gate_edit_reruns_the_back_end_and_reuses_clean_proofs() {
        let options = CompileOptions {
            opt_level: 0,
            ..Default::default()
        };
        let old = demo_netlist();
        let prev = compile_netlist(old.clone(), &options).unwrap();
        let mut new = old.clone();
        new.set_cell_kind(1, qac_netlist::CellKind::Or);
        let cold = compile_netlist(new.clone(), &options).unwrap();
        let (warm, report) = compile_netlist_incremental(&prev, new, &options).unwrap();
        assert_eq!(artifact_mismatch(&cold, &warm), None);
        assert!(!report.full_rebuild);
        for stage in ["edif-write", "qmasm-gen", "assemble", "analyze"] {
            assert_eq!(report.disposition(stage), Some(StageDisposition::Full));
        }
        assert!(matches!(
            report.disposition("certify"),
            Some(StageDisposition::Spliced { .. })
        ));
    }

    #[test]
    fn retarget_edit_stays_byte_identical() {
        let options = CompileOptions {
            opt_level: 0,
            ..Default::default()
        };
        let old = demo_netlist();
        let prev = compile_netlist(old.clone(), &options).unwrap();
        let mut new = old.clone();
        // Feed the OR's second pin from `d` instead of `a`. (Both `a`
        // and `d` were interned earlier, so the symbol sequence holds.)
        let d_net = old.port("d").unwrap().bits[0];
        new.retarget_input(2, 1, d_net);
        let cold = compile_netlist(new.clone(), &options).unwrap();
        let (warm, report) = compile_netlist_incremental(&prev, new, &options).unwrap();
        assert_eq!(artifact_mismatch(&cold, &warm), None);
        assert!(!report.full_rebuild);
    }

    #[test]
    fn a_different_circuit_runs_every_stage() {
        let options = CompileOptions {
            opt_level: 0,
            ..Default::default()
        };
        let prev = compile_netlist(demo_netlist(), &options).unwrap();
        // A different circuit entirely (different cell count).
        let mut b = Builder::new("demo");
        let a = b.input("a", 1)[0];
        let c = b.input("b", 1)[0];
        let x = b.and(a, c);
        b.output("z", &[x]);
        let other = b.finish();
        let cold = compile_netlist(other.clone(), &options).unwrap();
        let (warm, report) = compile_netlist_incremental(&prev, other, &options).unwrap();
        assert_eq!(report.skipped(), 0);
        assert_eq!(
            report.disposition("qmasm-gen"),
            Some(StageDisposition::Full)
        );
        assert_eq!(artifact_mismatch(&cold, &warm), None);
    }

    #[test]
    fn dead_cone_edit_runs_every_stage_and_splices_the_live_cones() {
        // Edit a cell inside a *dead* cone the optimizer eliminates: the
        // unrolled netlist moves, the optimized one holds still. Every
        // stage re-runs anyway, and `certify` copies exactly the
        // obligations of the live cones, whose fingerprints held still;
        // the result must still equal a cold compile's.
        let dead_cone = |kind: qac_netlist::CellKind| {
            let mut b = Builder::new("demo");
            let a = b.input("a", 1)[0];
            let c = b.input("b", 1)[0];
            let d = b.input("d", 1)[0];
            let x = b.xor(a, c);
            let y = b.and(x, d);
            let z = b.or(y, a);
            let dead = b.and(a, d); // output never reaches a port
            b.output("z", &[z]);
            let mut netlist = b.finish();
            let dead_cell = netlist
                .cells()
                .iter()
                .position(|cell| cell.output == dead)
                .unwrap();
            netlist.set_cell_kind(dead_cell, kind);
            netlist
        };
        let options = CompileOptions::default();
        let prev = compile_netlist(dead_cone(qac_netlist::CellKind::And), &options).unwrap();
        let new = dead_cone(qac_netlist::CellKind::Or);
        let cold = compile_netlist(new.clone(), &options).unwrap();
        let (warm, report) = compile_netlist_incremental(&prev, new, &options).unwrap();
        assert_eq!(report.skipped(), 0);
        for (stage, disposition) in &report.stages {
            if stage != "certify" {
                assert_eq!(*disposition, StageDisposition::Full, "{stage}");
            }
        }
        assert!(matches!(
            report.disposition("certify"),
            Some(StageDisposition::Spliced { redone: 0, .. })
        ));
        assert_eq!(artifact_mismatch(&cold, &warm), None);
    }

    #[test]
    fn warm_compile_chains_warm_again() {
        // A second identical-source recompile off a warm result must
        // still skip everything (the IncrState survives replay).
        let options = CompileOptions::default();
        let cold = compile(MUX_ADD_SUB, "circuit", &options).unwrap();
        let (warm1, _) = compile_incremental(&cold, MUX_ADD_SUB, "circuit", &options).unwrap();
        let (warm2, report) =
            compile_incremental(&warm1, MUX_ADD_SUB, "circuit", &options).unwrap();
        assert!(report
            .stages
            .iter()
            .all(|(_, d)| *d == StageDisposition::Skipped));
        assert_eq!(artifact_mismatch(&cold, &warm2), None);
    }
}
