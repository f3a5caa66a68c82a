//! qac-analysis — a multi-pass static analyzer and lint framework for
//! QMASM programs and Ising models.
//!
//! The paper's toolchain silently relies on properties it never checks:
//! pins must not contradict the circuit, coefficients must survive
//! rescaling into the hardware range without drowning in analog noise,
//! and chain strengths must dominate neighborhood weight or ground
//! states stop encoding the program (Pakin §4.4). This crate makes
//! those properties checkable at compile time: [`analyze_assembled`]
//! runs a fixed catalog of passes over an assembled QMASM program (or
//! [`analyze_ising`] over a bare Ising model) and produces an
//! [`AnalysisReport`] of [`Diagnostics`] with stable `QACnnn` codes.
//!
//! The pass catalog, in execution order:
//!
//! | pass | codes | what it checks |
//! |---|---|---|
//! | `pins` | QAC001–004 | pin propagation through `=`/`!=` chains; contradictions are compile-time UNSAT |
//! | `dead-code` | QAC010–011 | disconnected variables, macros never instantiated |
//! | `dynamic-range` | QAC020–021 | coefficient precision after scaling into the hardware range |
//! | `chain-strength` | QAC030–031 | chain J vs. per-variable neighborhood weight bound |
//! | `roof-duality` | QAC040–041 | persistency (statically fixable qubits), dual-bound UNSAT proofs |
//! | `exact-audit` | QAC050–053 | ≤`exact_audit_max_vars` models cross-checked against `ExactSolver` |
//!
//! Severity policy: **Error** diagnostics mean the program provably
//! cannot execute validly and the pipeline rejects it; **Warning** means
//! likely hardware misbehavior (broken chains, coefficients inside the
//! noise floor); **Info** is a report. Only syntactic pin contradictions
//! (QAC001), roof-dual bound violations (QAC041), and exact-enumeration
//! proofs (QAC051) mark a model UNSAT — QAC002 stays an Error without
//! the UNSAT claim because the unpinned minimum is unknown statically.
//!
//! Everything here is deterministic: reports render byte-identically
//! across runs and thread counts, which the golden-diagnostics tests
//! pin.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod diag;
mod passes;

pub use diag::{Code, Diagnostic, Diagnostics, Location, Severity};

use qac_pbf::scale::CoefficientRange;
use qac_pbf::{Ising, Spin};
use qac_qmasm::{Assembled, Program, Statement};
use qac_telemetry::json::Json;

/// Options controlling the analyzer.
#[derive(Debug, Clone)]
pub struct AnalysisOptions {
    /// Run the analyzer at all. When false, [`analyze_assembled`]
    /// returns [`AnalysisReport::empty`] without touching the model.
    pub enabled: bool,
    /// The hardware coefficient range models are scaled into before the
    /// dynamic-range and chain-strength passes.
    pub range: CoefficientRange,
    /// Two distinct scaled coefficients closer than this are considered
    /// indistinguishable under analog noise (QAC020).
    pub noise_epsilon: f64,
    /// The exact audit enumerates models with at most this many
    /// variables; larger models get a QAC052 "skipped" report.
    pub exact_audit_max_vars: usize,
    /// Explicit chain strength to check, overriding the embedder's
    /// derived default.
    pub chain_strength: Option<f64>,
    /// The energy every valid execution must reach (the compile
    /// pipeline's expected ground energy). Enables the UNSAT proofs of
    /// the roof-duality and exact-audit passes.
    pub expected_ground_energy: Option<f64>,
    /// Cap on per-code diagnostics for repetitive findings (QAC010,
    /// QAC030); the pass summary still reports the full count.
    pub max_reported_per_code: usize,
}

impl Default for AnalysisOptions {
    fn default() -> AnalysisOptions {
        AnalysisOptions {
            enabled: true,
            range: CoefficientRange::DWAVE_2000Q,
            noise_epsilon: 0.01,
            exact_audit_max_vars: 12,
            chain_strength: None,
            expected_ground_energy: None,
            max_reported_per_code: 8,
        }
    }
}

impl AnalysisOptions {
    /// Defaults tuned for a specific hardware family: the dynamic-range
    /// and chain-strength passes scale into that topology's coefficient
    /// range instead of the 2000Q's (e.g. Pegasus h ∈ [−4, 4]).
    pub fn for_topology<T: qac_chimera::Topology + ?Sized>(topology: &T) -> AnalysisOptions {
        AnalysisOptions {
            range: topology.coefficient_range(),
            ..AnalysisOptions::default()
        }
    }
}

/// One pass's one-line outcome, reported even when the pass found
/// nothing (so every analysis lists the full catalog).
#[derive(Debug, Clone, PartialEq)]
pub struct PassResult {
    /// The pass name (`pins`, `dead-code`, …).
    pub pass: &'static str,
    /// A one-line summary of what the pass concluded.
    pub summary: String,
}

/// Everything the analyzer concluded about one model.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisReport {
    /// All findings, in pass order.
    pub diagnostics: Diagnostics,
    /// One summary per pass, in execution order.
    pub passes: Vec<PassResult>,
    /// The model provably cannot reach its expected ground energy with
    /// its pins satisfied (set only by QAC001, QAC041, QAC051).
    pub unsat: bool,
    /// Two pins demanded opposite values of one merged variable.
    pub pin_contradiction: bool,
    /// Unpinned variables roof duality proved fixable, with their values.
    pub roof_fixed: Vec<(usize, Spin)>,
    /// The roof-dual lower bound of the pinned model, when computed.
    pub roof_lower_bound: Option<f64>,
    /// The factor the model was scaled by to fit the hardware range.
    pub scale: f64,
    /// Smallest gap between distinct scaled coefficients (infinite when
    /// fewer than two distinct values exist).
    pub min_coefficient_gap: f64,
    /// `min_coefficient_gap / noise_epsilon` — below 1.0, distinct
    /// coefficients collapse into the noise floor.
    pub precision_ratio: f64,
    /// The chain strength the chain-strength pass checked against.
    pub chain_strength: f64,
    /// Variables whose neighborhood weight exceeds the chain strength.
    pub chain_unsafe: Vec<usize>,
    /// Number of coupled variables the chain-strength bound considered.
    pub chain_considered: usize,
}

impl Default for AnalysisReport {
    fn default() -> AnalysisReport {
        AnalysisReport::empty()
    }
}

impl AnalysisReport {
    /// The report of a skipped analysis: no passes, no diagnostics.
    pub fn empty() -> AnalysisReport {
        AnalysisReport {
            diagnostics: Diagnostics::new(),
            passes: Vec::new(),
            unsat: false,
            pin_contradiction: false,
            roof_fixed: Vec::new(),
            roof_lower_bound: None,
            scale: 1.0,
            min_coefficient_gap: f64::INFINITY,
            precision_ratio: f64::INFINITY,
            chain_strength: 0.0,
            chain_unsafe: Vec::new(),
            chain_considered: 0,
        }
    }

    /// Renders the full report: a header line, one line per pass, then
    /// one line per diagnostic. Deterministic (no wall times, no
    /// hash-order iteration); pinned byte-for-byte by golden tests.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "analysis: {} passes, {} diagnostics ({} errors, {} warnings, {} infos)",
            self.passes.len(),
            self.diagnostics.len(),
            self.diagnostics.count(Severity::Error),
            self.diagnostics.count(Severity::Warning),
            self.diagnostics.count(Severity::Info),
        ));
        if self.unsat {
            out.push_str(" [UNSAT]");
        }
        out.push('\n');
        for p in &self.passes {
            out.push_str(&format!("  pass {}: {}\n", p.pass, p.summary));
        }
        out.push_str(&self.diagnostics.render_text());
        out
    }

    /// The JSON object consumed by `telemetry_check --diagnostics`
    /// (callers wrap it with a `workload` key).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("unsat".to_string(), Json::Bool(self.unsat)),
            (
                "passes".to_string(),
                Json::Arr(
                    self.passes
                        .iter()
                        .map(|p| {
                            Json::Obj(vec![
                                ("pass".to_string(), Json::Str(p.pass.to_string())),
                                ("summary".to_string(), Json::Str(p.summary.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("diagnostics".to_string(), self.diagnostics.to_json()),
        ])
    }
}

/// What the passes see: the model plus symbolic naming and pin data.
pub(crate) struct Ctx<'a> {
    /// The logical model (pins not applied).
    pub model: &'a Ising,
    /// Resolved pins in program order: `(variable, required spin, net name)`.
    pub pins: Vec<(usize, Spin, String)>,
    /// First symbol name of each variable (first-appearance order),
    /// `None` for bare-Ising analyses.
    pub names: Vec<Option<String>>,
    /// Macros defined but never instantiated, sorted by name.
    pub unused_macros: Vec<String>,
}

impl Ctx<'_> {
    /// The symbolic location of a variable.
    pub fn loc(&self, var: usize) -> Location {
        match self.names.get(var).and_then(|n| n.clone()) {
            Some(name) => Location::Net(name),
            None => Location::Var(var),
        }
    }

    /// The display name of a variable in messages.
    pub fn name(&self, var: usize) -> String {
        match self.names.get(var).and_then(|n| n.clone()) {
            Some(name) => format!("`{name}`"),
            None => format!("variable {var}"),
        }
    }
}

/// Renders a spin as `+1` / `-1` in messages.
pub(crate) fn spin_str(s: Spin) -> &'static str {
    match s {
        Spin::Up => "+1",
        Spin::Down => "-1",
    }
}

/// Detects contradictory and redundant pins (QAC001, QAC003).
///
/// Pins are `(variable, required spin, net name)` in program order; the
/// first pin of a variable wins and later pins are checked against it.
/// This is shared with the run path so a `run()` with contradictory
/// `extra_pins` is rejected before any embedding or sampling happens —
/// callers reject when [`Diagnostics::has_errors`] is true.
pub fn pin_conflicts(pins: &[(usize, Spin, String)]) -> Diagnostics {
    let mut diags = Diagnostics::new();
    let mut first: std::collections::BTreeMap<usize, (Spin, &str)> =
        std::collections::BTreeMap::new();
    for (var, spin, name) in pins {
        match first.get(var) {
            None => {
                first.insert(*var, (*spin, name));
            }
            Some(&(prev_spin, prev_name)) => {
                if prev_spin != *spin {
                    diags.push(Diagnostic::new(
                        Code::PinContradiction,
                        "pins",
                        Location::Nets(prev_name.to_string(), name.clone()),
                        format!(
                            "pin on `{name}` requires spin {} of merged variable {var}, \
                             but the pin on `{prev_name}` already requires spin {}",
                            spin_str(*spin),
                            spin_str(prev_spin),
                        ),
                    ));
                } else if prev_name != name {
                    diags.push(Diagnostic::new(
                        Code::RedundantPin,
                        "pins",
                        Location::Net(name.clone()),
                        format!(
                            "pin repeats the value the pin on `{prev_name}` already \
                             requires of merged variable {var}"
                        ),
                    ));
                }
            }
        }
    }
    diags
}

/// Analyzes an assembled QMASM program: resolves its pins and symbol
/// names, finds unused macros (when the parsed [`Program`] is
/// available), and runs the full pass catalog.
pub fn analyze_assembled(
    assembled: &Assembled,
    program: Option<&Program>,
    options: &AnalysisOptions,
) -> AnalysisReport {
    if !options.enabled {
        return AnalysisReport::empty();
    }
    // Resolve pins to (variable, required spin, name). Unknown symbols
    // cannot occur for program-recorded pins (the assembler interned
    // them); skip defensively rather than panic.
    let mut pins = Vec::new();
    for (name, value) in &assembled.pins {
        if let Some((var, parity)) = assembled.symbols.resolve(name) {
            let target = match parity {
                Spin::Up => Spin::from(*value),
                Spin::Down => Spin::from(!*value),
            };
            pins.push((var, target, name.clone()));
        }
    }
    // First symbol name per variable, in first-appearance order.
    let mut names: Vec<Option<String>> = vec![None; assembled.ising.num_vars()];
    for name in assembled.symbols.names() {
        if let Some((var, _)) = assembled.symbols.resolve(name) {
            if names[var].is_none() {
                names[var] = Some(name.to_string());
            }
        }
    }
    let ctx = Ctx {
        model: &assembled.ising,
        pins,
        names,
        unused_macros: program.map(unused_macros).unwrap_or_default(),
    };
    analyze_ctx(&ctx, options)
}

/// Analyzes a bare Ising model with explicit pins (no QMASM naming);
/// locations degrade to `variable N` and pins are named `vN`.
pub fn analyze_ising(
    model: &Ising,
    pins: &[(usize, Spin)],
    options: &AnalysisOptions,
) -> AnalysisReport {
    if !options.enabled {
        return AnalysisReport::empty();
    }
    let ctx = Ctx {
        model,
        pins: pins
            .iter()
            .map(|&(var, spin)| (var, spin, format!("v{var}")))
            .collect(),
        names: vec![None; model.num_vars()],
        unused_macros: Vec::new(),
    };
    analyze_ctx(&ctx, options)
}

/// Macros defined in `program` but unreachable from its top-level
/// statements, sorted by name (the macro map iterates in hash order).
fn unused_macros(program: &Program) -> Vec<String> {
    use std::collections::BTreeSet;
    let mut used: BTreeSet<&str> = BTreeSet::new();
    let mut queue: Vec<&[Statement]> = vec![&program.statements];
    while let Some(stmts) = queue.pop() {
        for stmt in stmts {
            if let Statement::UseMacro { name, .. } = stmt {
                if used.insert(name.as_str()) {
                    if let Some(body) = program.macros.get(name) {
                        queue.push(body);
                    }
                }
            }
        }
    }
    let mut unused: Vec<String> = program
        .macros
        .keys()
        .filter(|name| !used.contains(name.as_str()))
        .cloned()
        .collect();
    unused.sort();
    unused
}

/// Runs the pass catalog over a prepared context, wrapping every pass
/// in a telemetry span and bumping the per-severity counters.
fn analyze_ctx(ctx: &Ctx<'_>, options: &AnalysisOptions) -> AnalysisReport {
    let recorder = qac_telemetry::global();
    let mut report = AnalysisReport::empty();
    type Pass = fn(&Ctx<'_>, &AnalysisOptions, &mut AnalysisReport);
    let catalog: [(&str, Pass); 6] = [
        ("pins", passes::pins::run),
        ("dead-code", passes::dead::run),
        ("dynamic-range", passes::range::run),
        ("chain-strength", passes::chain::run),
        ("roof-duality", passes::roof::run),
        ("exact-audit", passes::audit::run),
    ];
    for (name, pass) in catalog {
        let mut span = recorder.span(&format!("analyze:{name}"));
        let before = report.diagnostics.len();
        pass(ctx, options, &mut report);
        span.arg("diagnostics", (report.diagnostics.len() - before) as f64);
    }
    for severity in [Severity::Error, Severity::Warning, Severity::Info] {
        recorder.counter_add(
            &format!(
                "qac_analysis_diagnostics_total{{severity=\"{}\"}}",
                severity.as_str()
            ),
            report.diagnostics.count(severity) as u64,
        );
    }
    report
}

/// Per-variable count of nonzero couplings (parallel to the model).
pub(crate) fn degrees(model: &Ising) -> Vec<usize> {
    let mut deg = vec![0usize; model.num_vars()];
    for t in model.j_iter() {
        if t.value != 0.0 {
            deg[t.i] += 1;
            deg[t.j] += 1;
        }
    }
    deg
}

/// The model with first-wins pins substituted out via `try_fix_variable`
/// in variable order (conflicting later pins are ignored — the pins pass
/// already reported them), with the pin values it substituted.
///
/// # Errors
/// The variable and name of the first pin whose substitution would
/// leave a weight or the offset non-finite (QAC004).
pub(crate) fn pinned_fix_model(
    ctx: &Ctx<'_>,
) -> Result<(Ising, std::collections::BTreeMap<usize, Spin>), (usize, String)> {
    let mut first: std::collections::BTreeMap<usize, (Spin, &str)> =
        std::collections::BTreeMap::new();
    for (var, spin, name) in &ctx.pins {
        first.entry(*var).or_insert((*spin, name));
    }
    let mut model = ctx.model.clone();
    for (&var, &(spin, name)) in &first {
        model
            .try_fix_variable(var, spin)
            .map_err(|_| (var, name.to_string()))?;
    }
    let values = first
        .into_iter()
        .map(|(var, (spin, _))| (var, spin))
        .collect();
    Ok((model, values))
}

/// Formats a float for diagnostics: fixed `{:.4}` with infinities as
/// `inf` and negative zero normalized, so renders are stable.
pub(crate) fn fmt4(v: f64) -> String {
    if v.is_infinite() {
        return if v > 0.0 { "inf".into() } else { "-inf".into() };
    }
    let v = if v == 0.0 { 0.0 } else { v };
    format!("{v:.4}")
}

/// [`fmt4`] at six decimal places for small gaps.
pub(crate) fn fmt6(v: f64) -> String {
    if v.is_infinite() {
        return if v > 0.0 { "inf".into() } else { "-inf".into() };
    }
    let v = if v == 0.0 { 0.0 } else { v };
    format!("{v:.6}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use qac_qmasm::{assemble, parse, AssembleOptions, NoIncludes};

    fn analyze_src(src: &str, options: &AnalysisOptions) -> AnalysisReport {
        let program = parse(src, &NoIncludes).unwrap();
        let assembled = assemble(&program, &AssembleOptions::default()).unwrap();
        analyze_assembled(&assembled, Some(&program), options)
    }

    #[test]
    fn disabled_analysis_is_empty() {
        let options = AnalysisOptions {
            enabled: false,
            ..Default::default()
        };
        let report = analyze_src("A B -1\n", &options);
        assert_eq!(report, AnalysisReport::empty());
    }

    #[test]
    fn every_pass_reports_once() {
        let report = analyze_src("A B -1\nA := true\n", &AnalysisOptions::default());
        let names: Vec<&str> = report.passes.iter().map(|p| p.pass).collect();
        assert_eq!(
            names,
            vec![
                "pins",
                "dead-code",
                "dynamic-range",
                "chain-strength",
                "roof-duality",
                "exact-audit"
            ]
        );
    }

    #[test]
    fn for_topology_adopts_the_fabric_coefficient_range() {
        use qac_chimera::{Chimera, Pegasus, ADVANTAGE_RANGE};
        let chimera = AnalysisOptions::for_topology(&Chimera::dwave_2000q());
        assert_eq!(chimera.range, CoefficientRange::DWAVE_2000Q);
        let pegasus = AnalysisOptions::for_topology(&Pegasus::advantage());
        assert_eq!(pegasus.range, ADVANTAGE_RANGE);
        // Everything except the range stays at the defaults.
        assert_eq!(
            pegasus.noise_epsilon,
            AnalysisOptions::default().noise_epsilon
        );
        // The wider Advantage h range (±4 vs the 2000Q's ±2) changes the
        // reported scale factor: an h = 3 bias forces the 2000Q to shrink
        // the whole model while the Advantage takes it unscaled.
        let model = "A 3\nA B -1\n";
        let on_chimera = analyze_src(model, &chimera);
        let on_pegasus = analyze_src(model, &pegasus);
        assert!(on_pegasus.scale > on_chimera.scale);
        assert!(on_pegasus.chain_strength >= on_chimera.chain_strength);
    }

    #[test]
    fn contradictory_pins_through_a_chain_are_unsat() {
        // A = B merges the nets; pinning them apart is a contradiction
        // detectable without looking at energies at all.
        let report = analyze_src(
            "A = B\nA := true\nB := false\nA C -1\n",
            &AnalysisOptions::default(),
        );
        assert!(report.unsat);
        assert!(report.pin_contradiction);
        let err = report.diagnostics.errors().next().unwrap();
        assert_eq!(err.code, Code::PinContradiction);
        assert!(err.to_string().contains("`A`"), "{err}");
        assert!(err.to_string().contains("`B`"), "{err}");
    }

    #[test]
    fn clean_program_has_no_errors() {
        let report = analyze_src("A B -1\nA := true\n", &AnalysisOptions::default());
        assert!(!report.diagnostics.has_errors(), "{}", report.render());
        assert!(!report.unsat);
    }

    #[test]
    fn pin_conflicts_shared_helper() {
        let pins = vec![
            (0, Spin::Up, "a".to_string()),
            (1, Spin::Down, "b".to_string()),
            (0, Spin::Down, "a2".to_string()),
        ];
        let diags = pin_conflicts(&pins);
        assert!(diags.has_errors());
        assert_eq!(diags.errors().count(), 1);
        // Distinct variables never conflict.
        let ok = pin_conflicts(&[(0, Spin::Up, "a".into()), (1, Spin::Down, "b".into())]);
        assert!(ok.is_empty());
    }

    #[test]
    fn unused_macro_detection_is_sorted_and_recursive() {
        let src = "!begin_macro INNER\nA 1\n!end_macro INNER\n\
                   !begin_macro OUTER\n!use_macro INNER i\n!end_macro OUTER\n\
                   !begin_macro ZOMBIE\nB 1\n!end_macro ZOMBIE\n\
                   !begin_macro APPENDIX\nC 1\n!end_macro APPENDIX\n\
                   !use_macro OUTER o\n";
        let program = parse(src, &NoIncludes).unwrap();
        assert_eq!(unused_macros(&program), vec!["APPENDIX", "ZOMBIE"]);
    }

    #[test]
    fn render_is_deterministic_across_calls() {
        let options = AnalysisOptions::default();
        let a = analyze_src("A B -1\nB C 0.5\nA := true\nD 0\n", &options).render();
        let b = analyze_src("A B -1\nB C 0.5\nA := true\nD 0\n", &options).render();
        assert_eq!(a, b);
    }

    #[test]
    fn json_shape_matches_schema() {
        let report = analyze_src("A B -1\nA := true\n", &AnalysisOptions::default());
        let json = report.to_json();
        assert!(matches!(json.get("unsat"), Some(Json::Bool(_))));
        let passes = json.get("passes").unwrap().as_array().unwrap();
        assert_eq!(passes.len(), 6);
        for p in passes {
            assert!(p.get("pass").unwrap().as_str().is_some());
            assert!(p.get("summary").unwrap().as_str().is_some());
        }
        for d in json.get("diagnostics").unwrap().as_array().unwrap() {
            let code = d.get("code").unwrap().as_str().unwrap();
            assert!(code.starts_with("QAC") && code.len() == 6);
        }
    }
}
