//! The compile pipeline: Verilog → netlist → EDIF → QMASM → logical
//! Ising model, with every intermediate artifact retained (the §6.1
//! static-properties experiment measures them).
//!
//! The pipeline is an explicit sequence of named stages — Verilog
//! parsing, unroll, optimize, the EDIF round trip, QMASM generation,
//! parsing, assembly, analysis and certification — each one
//! [`Trace::try_stage`] call, which records its wall time and artifact
//! sizes into the [`Trace`] carried on [`Compiled`].

use qac_analysis::{analyze_assembled, AnalysisOptions, AnalysisReport, Diagnostics};
use qac_cert::CompileCertificate;
use qac_chimera::EmbedOptions;
use qac_edif::{from_edif, to_edif};
use qac_gatesynth::CellLibrary;
use qac_netlist::unroll::{unroll, InitialState};
use qac_netlist::{opt, Netlist, NetlistStats};
use qac_qmasm::{assemble, parse, stdcell_qmasm, AssembleOptions, Assembled, MapIncludes};
use qac_telemetry::Trace;

use crate::certify::certify;
use crate::incr::{EntryKey, IncrState};
use crate::qmasm_gen::netlist_to_qmasm;
use crate::CompileError;

/// Options controlling compilation.
#[derive(Debug, Clone)]
pub struct CompileOptions {
    /// Optimization level: 0 = none, 1 = cleanup, 2 = full (default).
    pub opt_level: u8,
    /// Unroll sequential designs over this many time steps (§4.3.3).
    /// `None` (default) treats flip-flops as intra-step identities.
    pub unroll_steps: Option<usize>,
    /// Initial flip-flop state when unrolling.
    pub unroll_initial: InitialState,
    /// Merge `=` chains into single variables (§4.4 optimization).
    pub merge_chains: bool,
    /// Chain strength for unmerged chains (`None` = qmasm default).
    pub chain_strength: Option<f64>,
    /// Default minor-embedding options for downstream runs.
    pub embed: EmbedOptions,
    /// Static-analysis options for the `analyze` stage. Error-severity
    /// diagnostics reject the program at compile time.
    pub analysis: AnalysisOptions,
    /// Run the `certify` translation-validation stage (DESIGN.md §15):
    /// prove the optimized netlist equivalent to the unrolled source and
    /// every instantiated macro's ground space correct, and attach the
    /// machine-checkable certificate to [`Compiled::certificate`]. On by
    /// default; a failed proof rejects the compile.
    pub certify: bool,
}

impl Default for CompileOptions {
    fn default() -> CompileOptions {
        CompileOptions {
            opt_level: 2,
            unroll_steps: None,
            unroll_initial: InitialState::Zero,
            merge_chains: true,
            chain_strength: None,
            embed: EmbedOptions::default(),
            analysis: AnalysisOptions::default(),
            certify: true,
        }
    }
}

/// Static size measurements across the pipeline (paper §6.1).
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineStats {
    /// Non-blank lines of Verilog source.
    pub verilog_lines: usize,
    /// Lines of generated EDIF.
    pub edif_lines: usize,
    /// Lines of generated QMASM (excluding the standard-cell library, as
    /// the paper counts it).
    pub qmasm_lines: usize,
    /// Lines of the included standard-cell library.
    pub stdcell_lines: usize,
    /// Logical variables after chain merging.
    pub logical_variables: usize,
    /// Nonzero terms in the logical Hamiltonian.
    pub logical_terms: usize,
    /// Gate-level statistics of the (optimized) netlist.
    pub netlist: NetlistStats,
}

/// A compiled program: every pipeline artifact plus the logical model.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// The optimized, combinational gate-level netlist that was lowered.
    pub netlist: Netlist,
    /// The EDIF text the pipeline round-tripped through.
    pub edif: String,
    /// The generated QMASM program (without the included library body).
    pub qmasm: String,
    /// The generated standard-cell library text.
    pub stdcell: String,
    /// The assembled logical model, symbols, pins, and asserts.
    pub assembled: Assembled,
    /// The energy every valid (relation-satisfying) assignment reaches:
    /// the sum of the instantiated cells' ground energies plus constant
    /// pin contributions (and, with `merge_chains: false`, the chain
    /// couplings). Samples above this energy violate the program.
    pub expected_ground_energy: f64,
    /// The static analyzer's report over the assembled model (empty when
    /// the analyzer is disabled).
    pub analysis: AnalysisReport,
    /// The translation-validation certificate the `certify` stage built
    /// and checked (`None` when [`CompileOptions::certify`] is off). The
    /// back-end obligation is attached at embed time by callers that
    /// embed (see [`crate::backend_obligation`]).
    pub certificate: Option<CompileCertificate>,
    /// Static measurements.
    pub stats: PipelineStats,
    /// Per-stage wall time and artifact sizes of this compilation.
    pub trace: Trace,
    /// The options used (downstream runs reuse the embed settings).
    pub options: CompileOptions,
    /// Entry and option keys for [`crate::compile_incremental`].
    pub incr: IncrState,
}

impl Compiled {
    /// The analyzer's diagnostics (empty when analysis was disabled).
    pub fn diagnostics(&self) -> &Diagnostics {
        &self.analysis.diagnostics
    }
}

/// Compiles Verilog source to a logical Ising program.
///
/// # Errors
/// Any [`CompileError`] stage failure.
pub fn compile(
    source: &str,
    top: &str,
    options: &CompileOptions,
) -> Result<Compiled, CompileError> {
    let _span = qac_telemetry::global().span("compile");
    compile_source(source, top, options, None).map(|(compiled, _)| compiled)
}

/// Compiles an already-built netlist (skipping the Verilog frontend).
///
/// # Errors
/// Any [`CompileError`] stage failure.
pub fn compile_netlist(
    netlist: Netlist,
    options: &CompileOptions,
) -> Result<Compiled, CompileError> {
    let _span = qac_telemetry::global().span("compile");
    compile_netlist_from(netlist, options, None).map(|(compiled, _)| compiled)
}

/// The `(reused, proved)` split of certificate obligations, when the
/// `certify` stage ran.
pub(crate) type CertReuse = Option<(usize, usize)>;

/// [`compile`], optionally re-using a previous certificate (see
/// [`compile_netlist_traced`]).
pub(crate) fn compile_source(
    source: &str,
    top: &str,
    options: &CompileOptions,
    prev_certificate: Option<&CompileCertificate>,
) -> Result<(Compiled, CertReuse), CompileError> {
    let mut trace = Trace::new();
    // Verilog source → netlist (the Yosys role).
    let netlist = trace.try_stage(
        "verilog-parse",
        source.len(),
        || qac_verilog::compile(source, top),
        |netlist| (netlist.cells().len(), 0),
    )?;
    let verilog_lines = source.lines().filter(|l| !l.trim().is_empty()).count();
    let entry_key = EntryKey::Source(crate::incr::source_fingerprint(source, top));
    compile_netlist_traced(
        trace,
        netlist,
        verilog_lines,
        options,
        entry_key,
        prev_certificate,
    )
}

/// [`compile_netlist`], optionally re-using a previous certificate (see
/// [`compile_netlist_traced`]).
pub(crate) fn compile_netlist_from(
    netlist: Netlist,
    options: &CompileOptions,
    prev_certificate: Option<&CompileCertificate>,
) -> Result<(Compiled, CertReuse), CompileError> {
    let entry_key = EntryKey::Netlist(netlist.structural_hash());
    compile_netlist_traced(
        Trace::new(),
        netlist,
        0,
        options,
        entry_key,
        prev_certificate,
    )
}

/// The one compile driver behind every entry point, cold or incremental.
///
/// Each stage is one [`Trace::try_stage`] (or [`Trace::stage`]) call,
/// recorded on `trace`. Every stage runs exactly as in a cold compile.
/// The one exception is `certify`: handed `prev_certificate` (the
/// previous compile's, under the same options), it copies the
/// obligations whose reuse keys (cone fingerprints, macro bodies) held
/// still. The artifacts are therefore
/// byte-identical to a cold compile's by construction.
fn compile_netlist_traced(
    mut trace: Trace,
    netlist: Netlist,
    verilog_lines: usize,
    options: &CompileOptions,
    entry_key: EntryKey,
    prev_certificate: Option<&CompileCertificate>,
) -> Result<(Compiled, CertReuse), CompileError> {
    let cells = |netlist: &Netlist| (netlist.cells().len(), 0);

    // Unroll sequential logic if requested (§4.3.3); identity when no
    // step count was requested.
    let netlist = trace.try_stage(
        "unroll",
        netlist.cells().len(),
        || match options.unroll_steps {
            Some(0) => Err(CompileError::Pipeline(
                "unroll_steps must be at least 1".into(),
            )),
            Some(steps) => Ok(unroll(&netlist, steps, options.unroll_initial)),
            None => Ok(netlist),
        },
        cells,
    )?;
    // The certifier proves the optimizer (and the EDIF round trip)
    // preserved this netlist, so it keeps the pre-optimization form.
    let source_netlist = options.certify.then(|| netlist.clone());
    // Gate-level optimization (the ABC role) plus validation.
    let netlist = trace.try_stage(
        "optimize",
        netlist.cells().len(),
        || {
            let mut netlist = netlist;
            if options.opt_level >= 2 {
                opt::optimize(&mut netlist);
            } else if options.opt_level == 1 {
                opt::merge_buffers(&mut netlist);
                opt::eliminate_dead(&mut netlist);
            }
            netlist.validate().map(|()| netlist)
        },
        cells,
    )?;

    // Round-trip through EDIF text, as the original pipeline does.
    let edif = trace.stage(
        "edif-write",
        netlist.cells().len(),
        || to_edif(&netlist),
        |edif| (edif.len(), 0),
    );
    let netlist = trace.try_stage("edif-read", edif.len(), || from_edif(&edif), cells)?;

    // EDIF → QMASM program text + standard-cell library text (the
    // `edif2qmasm` role).
    let library = CellLibrary::table5();
    let (qmasm, stdcell) = trace.stage(
        "qmasm-gen",
        netlist.cells().len(),
        || (netlist_to_qmasm(&netlist), stdcell_qmasm(&library)),
        |(qmasm, stdcell)| (qmasm.len() + stdcell.len(), 0),
    );
    let mut includes = MapIncludes::new();
    includes.insert("stdcell.qmasm", stdcell.clone());

    // QMASM → logical Ising.
    let program = trace.try_stage(
        "qmasm-parse",
        qmasm.len(),
        || parse(&qmasm, &includes),
        |program| (program.statements.len(), 0),
    )?;
    let assemble_options = AssembleOptions {
        merge_chains: options.merge_chains,
        chain_strength: options.chain_strength,
        pin_weight: None,
    };
    let assembled = trace.try_stage(
        "assemble",
        program.statements.len(),
        || assemble(&program, &assemble_options),
        |assembled| (assembled.ising.num_terms(1e-12), 0),
    )?;

    let expected = expected_ground_energy_of(&netlist, &library, &assembled)?;

    // Static analysis over the assembled model. The expected ground
    // energy just derived feeds the roof-duality and exact-audit
    // passes; the unmerged chain strength feeds the sufficiency bound
    // when the caller did not pick one explicitly. Error-severity
    // diagnostics abort compilation.
    let analysis = if options.analysis.enabled {
        let analysis_options = analysis_options_for(options, expected);
        let report = trace.stage(
            "analyze",
            assembled.ising.num_terms(1e-12),
            || analyze_assembled(&assembled, Some(&program), &analysis_options),
            |report| (report.diagnostics.len(), 0),
        );
        if report.diagnostics.has_errors() {
            return Err(CompileError::Analysis(report.diagnostics.clone()));
        }
        report
    } else {
        AnalysisReport::empty()
    };

    // Translation validation: prove the front end preserved every
    // output's Boolean function and the macro library every gate's
    // ground space; a failed proof rejects the compile like an analyzer
    // error.
    let (certificate, cert_reuse) = match &source_netlist {
        Some(source) => {
            let out = trace.try_stage(
                "certify",
                source.cells().len() + netlist.cells().len(),
                || certify(source, &netlist, &program, &library, prev_certificate),
                |out| (out.certificate.num_obligations(), 0),
            )?;
            (Some(out.certificate), Some((out.reused, out.proved)))
        }
        None => (None, None),
    };

    let stats = build_stats(verilog_lines, &edif, &qmasm, &stdcell, &assembled, &netlist);
    let incr = IncrState {
        entry_key,
        options_key: crate::incr::options_key(options),
    };
    let compiled = Compiled {
        netlist,
        edif,
        qmasm,
        stdcell,
        assembled,
        expected_ground_energy: expected,
        analysis,
        certificate,
        stats,
        trace,
        options: options.clone(),
        incr,
    };
    Ok((compiled, cert_reuse))
}

/// Expected ground energy: Σ instantiated-cell ground energies, plus −1
/// per ground/power tie (H_GND/H_VCC reach −1 when satisfied). With
/// merging disabled, every emitted chain coupling `J = −strength` reaches
/// −strength when the chain is satisfied, so valid executions sit that
/// much lower.
fn expected_ground_energy_of(
    netlist: &Netlist,
    library: &CellLibrary,
    assembled: &Assembled,
) -> Result<f64, CompileError> {
    let mut expected = 0.0;
    for cell in netlist.cells() {
        let lib_cell = library
            .get(cell.kind.name())
            .ok_or_else(|| CompileError::Pipeline(format!("no cell for {}", cell.kind)))?;
        expected += lib_cell.ground_energy();
    }
    expected -= netlist.constants().len() as f64;
    expected -= assembled.num_chain_couplings as f64 * assembled.chain_strength;
    Ok(expected)
}

/// The analyzer options actually passed to the `analyze` stage: the
/// derived expected ground energy feeds the roof-duality and exact-audit
/// passes, and the unmerged chain strength feeds the sufficiency bound
/// when the caller did not pick one explicitly.
fn analysis_options_for(options: &CompileOptions, expected: f64) -> AnalysisOptions {
    let mut analysis_options = options.analysis.clone();
    if analysis_options.expected_ground_energy.is_none() {
        analysis_options.expected_ground_energy = Some(expected);
    }
    if analysis_options.chain_strength.is_none() {
        analysis_options.chain_strength = options.chain_strength;
    }
    analysis_options
}

/// The §6.1 static size measurements over the final artifacts.
fn build_stats(
    verilog_lines: usize,
    edif: &str,
    qmasm: &str,
    stdcell: &str,
    assembled: &Assembled,
    netlist: &Netlist,
) -> PipelineStats {
    PipelineStats {
        verilog_lines,
        edif_lines: edif.lines().count(),
        qmasm_lines: qmasm.lines().count(),
        stdcell_lines: stdcell.lines().count(),
        logical_variables: assembled.ising.num_vars(),
        logical_terms: assembled.ising.num_terms(1e-12),
        netlist: NetlistStats::of(netlist),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qac_solvers::ExactSolver;

    const MUX_ADD_SUB: &str = r#"
        module circuit (s, a, b, c);
          input s, a, b;
          output [1:0] c;
          assign c = s ? a+b : a-b;
        endmodule
    "#;

    #[test]
    fn figure2_compiles_through_all_stages() {
        let compiled = compile(MUX_ADD_SUB, "circuit", &CompileOptions::default()).unwrap();
        assert!(compiled.edif.starts_with("(edif"));
        assert!(compiled.qmasm.contains("!use_macro"));
        assert!(compiled.stats.logical_variables > 3);
        assert!(compiled.stats.edif_lines > compiled.stats.verilog_lines);
        assert!(compiled.stats.qmasm_lines > 0);
    }

    #[test]
    fn trace_names_every_stage_in_order() {
        let compiled = compile(MUX_ADD_SUB, "circuit", &CompileOptions::default()).unwrap();
        let names: Vec<&str> = compiled
            .trace
            .stages()
            .iter()
            .map(|s| s.name.as_str())
            .collect();
        assert_eq!(
            names,
            [
                "verilog-parse",
                "unroll",
                "optimize",
                "edif-write",
                "edif-read",
                "qmasm-gen",
                "qmasm-parse",
                "assemble",
                "analyze",
                "certify"
            ]
        );
        // Artifact sizes are populated: source bytes in, cells out, etc.
        let verilog = compiled.trace.get("verilog-parse").unwrap();
        assert_eq!(verilog.input_size, MUX_ADD_SUB.len());
        assert!(verilog.output_size > 0);
        let edif_write = compiled.trace.get("edif-write").unwrap();
        assert_eq!(edif_write.output_size, compiled.edif.len());
        let assemble = compiled.trace.get("assemble").unwrap();
        assert_eq!(assemble.output_size, compiled.stats.logical_terms);
    }

    #[test]
    fn analysis_runs_by_default_and_reports_every_pass() {
        let compiled = compile(MUX_ADD_SUB, "circuit", &CompileOptions::default()).unwrap();
        assert_eq!(compiled.analysis.passes.len(), 6);
        assert!(!compiled.analysis.unsat);
        assert!(!compiled.diagnostics().has_errors());
        // The analyzer shows up in the trace with its diagnostic count.
        let stage = compiled.trace.get("analyze").unwrap();
        assert_eq!(stage.output_size, compiled.diagnostics().len());
    }

    #[test]
    fn analysis_can_be_disabled() {
        let options = CompileOptions {
            analysis: AnalysisOptions {
                enabled: false,
                ..Default::default()
            },
            ..Default::default()
        };
        let compiled = compile(MUX_ADD_SUB, "circuit", &options).unwrap();
        assert!(compiled.trace.get("analyze").is_none());
        assert!(compiled.analysis.passes.is_empty());
        assert!(compiled.diagnostics().is_empty());
    }

    #[test]
    fn certification_is_on_by_default_and_checkable() {
        let compiled = compile(MUX_ADD_SUB, "circuit", &CompileOptions::default()).unwrap();
        let cert = compiled.certificate.as_ref().expect("certificate");
        assert!(cert.num_obligations() > 0);
        assert!(!cert.frontend.is_empty());
        assert!(!cert.macros.is_empty());
        // The attached certificate re-verifies independently.
        let issues = qac_cert::verify_certificate(cert);
        assert!(issues.iter().all(|i| !i.kind.is_error()), "{issues:?}");
        let stage = compiled.trace.get("certify").unwrap();
        assert_eq!(stage.output_size, cert.num_obligations());
    }

    #[test]
    fn certification_can_be_disabled() {
        let options = CompileOptions {
            certify: false,
            ..Default::default()
        };
        let compiled = compile(MUX_ADD_SUB, "circuit", &options).unwrap();
        assert!(compiled.certificate.is_none());
        assert!(compiled.trace.get("certify").is_none());
    }

    #[test]
    fn netlist_entry_point_skips_the_verilog_stage() {
        let compiled = compile(MUX_ADD_SUB, "circuit", &CompileOptions::default()).unwrap();
        let recompiled =
            compile_netlist(compiled.netlist.clone(), &CompileOptions::default()).unwrap();
        assert!(recompiled.trace.get("verilog-parse").is_none());
        assert_eq!(recompiled.trace.stages()[0].name, "unroll");
    }

    #[test]
    fn ground_states_match_circuit_semantics() {
        // Every ground state of the logical model is a valid (s,a,b,c)
        // relation of the paper's Figure 2 circuit.
        let compiled = compile(MUX_ADD_SUB, "circuit", &CompileOptions::default()).unwrap();
        let model = &compiled.assembled.ising;
        assert!(
            model.num_vars() <= 24,
            "model should be small: {}",
            model.num_vars()
        );
        let (energy, minima) = ExactSolver::new().ground_states(model, 1e-6);
        assert!(
            (energy - compiled.expected_ground_energy).abs() < 1e-6,
            "ground {energy} vs expected {}",
            compiled.expected_ground_energy
        );
        assert_eq!(minima.len(), 8, "one ground state per (s,a,b) input");
        for spins in minima {
            let sol = compiled.assembled.interpret(&spins);
            let s = sol.get("s").unwrap();
            let a = sol.get("a").unwrap();
            let b = sol.get("b").unwrap();
            let c = sol.get("c").unwrap();
            let expect = if s == 1 {
                a + b
            } else {
                a.wrapping_sub(b) & 0b11
            };
            assert_eq!(c, expect, "s={s} a={a} b={b}");
        }
    }

    #[test]
    fn unmerged_chains_reach_the_expected_ground_energy() {
        // With merge_chains: false every `=` chain stays a ferromagnetic
        // coupling; expected_ground_energy must account for them (it used
        // to silently ignore them and mark every sample invalid).
        let src = r#"
            module tiny (a, b, c);
              input a, b;
              output c;
              assign c = a & b;
            endmodule
        "#;
        let options = CompileOptions {
            merge_chains: false,
            ..Default::default()
        };
        let compiled = compile(src, "tiny", &options).unwrap();
        assert!(
            compiled.assembled.num_chain_couplings > 0,
            "unmerged compile should emit chain couplings"
        );
        let model = &compiled.assembled.ising;
        assert!(
            model.num_vars() <= 24,
            "model too big for exact: {}",
            model.num_vars()
        );
        let ground = ExactSolver::new().minimum_energy(model);
        assert!(
            (ground - compiled.expected_ground_energy).abs() < 1e-6,
            "ground {ground} vs expected {}",
            compiled.expected_ground_energy
        );
        // And the merged compile of the same source agrees once the chain
        // contribution is removed.
        let merged = compile(src, "tiny", &CompileOptions::default()).unwrap();
        let chain_part =
            compiled.assembled.num_chain_couplings as f64 * compiled.assembled.chain_strength;
        assert!(
            (compiled.expected_ground_energy + chain_part - merged.expected_ground_energy).abs()
                < 1e-6
        );
    }

    #[test]
    fn opt_level_zero_keeps_buffers() {
        let o0 = CompileOptions {
            opt_level: 0,
            ..Default::default()
        };
        let compiled0 = compile(MUX_ADD_SUB, "circuit", &o0).unwrap();
        let compiled2 = compile(MUX_ADD_SUB, "circuit", &CompileOptions::default()).unwrap();
        assert!(
            compiled0.stats.logical_variables >= compiled2.stats.logical_variables,
            "optimization should not increase variables"
        );
    }

    #[test]
    fn sequential_requires_steps_or_identity() {
        let counter = r#"
            module count (clk, inc, out);
              input clk, inc;
              output [2:0] out;
              reg [2:0] v;
              always @(posedge clk) if (inc) v <= v + 1;
              assign out = v;
            endmodule
        "#;
        // Unrolled: pure combinational model over 2 steps.
        let opts = CompileOptions {
            unroll_steps: Some(2),
            ..Default::default()
        };
        let compiled = compile(counter, "count", &opts).unwrap();
        assert!(!compiled.netlist.is_sequential());
        assert!(compiled.assembled.symbols.resolve("out@0[0]").is_some());
        // Zero steps rejected.
        let bad = CompileOptions {
            unroll_steps: Some(0),
            ..Default::default()
        };
        assert!(matches!(
            compile(counter, "count", &bad),
            Err(CompileError::Pipeline(_))
        ));
    }
}
