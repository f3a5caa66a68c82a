//! The `certify` pipeline stage: translation validation (DESIGN.md §15).
//!
//! Every compile that keeps [`CompileOptions::certify`] on ends by
//! *proving* the work of the earlier stages rather than trusting it:
//!
//! * **front end** — the post-unroll netlist and the post-EDIF netlist
//!   compute the same Boolean function at every output bit, shown by
//!   exhaustive truth-table enumeration over each output's cut;
//! * **macro library** — every QMASM macro the program instantiates is
//!   recorded with its full unit Ising model and its exhaustively
//!   enumerated ground space, so the checker can re-verify that ground
//!   states are exactly the gate's satisfying rows with a strictly
//!   positive gap.
//!
//! The obligations land in a [`CompileCertificate`], and the stage
//! immediately runs `qac-cert`'s independent checker over it —
//! [`verify_certificate`](qac_cert::verify_certificate) shares no code
//! with the passes being validated. Error-severity findings abort the
//! compile exactly like analyzer errors.
//!
//! The third obligation family — back-end chain contraction — needs an
//! embedding, which the compile pipeline does not produce; callers that
//! embed (the `experiments certify` driver) attach it with
//! [`backend_obligation`].
//!
//! [`CompileOptions::certify`]: crate::CompileOptions::certify

use std::collections::{BTreeMap, BTreeSet};

use qac_analysis::{Code, Diagnostic, Diagnostics, Location};
use qac_cert::{
    truth_hash, BackendObligation, CertIssue, ChainRecord, CompileCertificate, CutObligation,
    IssueKind, MacroObligation, ModelTerms, MAX_CUT_SUPPORT, MAX_MACRO_SPINS,
};
use qac_chimera::{contraction_witness, EmbeddedIsing};
use qac_gatesynth::CellLibrary;
use qac_netlist::{cut_functions_filtered, CutFunction, Netlist};
use qac_qmasm::{macro_sites, Ising, Program, Statement};
use qac_telemetry::FlightKind;

use crate::CompileError;

/// Counter bumped once per obligation whose proof data was enumerated
/// fresh in this compile.
pub const PROVED_COUNTER: &str = "qac_cert_obligations_proved_total";
/// Counter bumped once per obligation recorded without fresh
/// enumeration: reused verbatim from the previous certificate, or
/// recorded as skipped (over-wide or undriven cuts).
pub const SKIPPED_COUNTER: &str = "qac_cert_obligations_skipped_total";

/// What the certify stage hands back: the certificate plus the
/// proved/reused split the incremental driver reports as its
/// disposition.
#[derive(Debug, Clone)]
pub(crate) struct CertifyOutput {
    pub(crate) certificate: CompileCertificate,
    /// Obligations enumerated fresh this compile.
    pub(crate) proved: usize,
    /// Obligations cloned from the previous certificate because their
    /// reuse key (cone fingerprint / macro body) was unchanged.
    pub(crate) reused: usize,
}

/// The tenth pipeline stage: builds the front-end and macro obligations
/// (the back end is attached at embed time), then checks them.
///
/// `source` is the post-unroll, pre-optimization netlist; `optimized`
/// the post-EDIF netlist QMASM generation consumed; `program` the parsed
/// program (with `stdcell.qmasm` macros resolved); `library` the
/// verified Table 5 cell library (for pin roles); and `prev` the
/// previous certificate, when recompiling incrementally. The
/// certificate is byte-deterministic: obligations reused from `prev` are
/// byte-identical to a fresh enumeration because the reuse keys (cone
/// fingerprints, macro bodies) determine the proof data completely.
pub(crate) fn certify(
    source: &Netlist,
    optimized: &Netlist,
    program: &Program,
    library: &CellLibrary,
    prev: Option<&CompileCertificate>,
) -> Result<CertifyOutput, CompileError> {
    let mut certificate = CompileCertificate::new(optimized.name());
    let mut proved = 0usize;
    let mut reused = 0usize;
    let mut unproven = 0usize;
    {
        let mut span = qac_telemetry::global().span("certify:frontend");
        certificate.frontend = frontend_obligations(
            source,
            optimized,
            prev,
            &mut proved,
            &mut reused,
            &mut unproven,
        )?;
        span.arg("obligations", certificate.frontend.len() as f64);
    }
    {
        let mut span = qac_telemetry::global().span("certify:macros");
        certificate.macros = macro_obligations(program, library, prev, &mut proved, &mut reused)?;
        span.arg("obligations", certificate.macros.len() as f64);
    }
    certificate.finalize();
    let telemetry = qac_telemetry::global();
    telemetry.counter_add(PROVED_COUNTER, proved as u64);
    telemetry.counter_add(SKIPPED_COUNTER, (reused + unproven) as u64);
    enforce(&certificate)?;
    Ok(CertifyOutput {
        certificate,
        proved,
        reused,
    })
}

/// Runs the independent checker; error-severity issues abort the
/// compile as [`CompileError::Analysis`] and leave a flight-recorder
/// event for the post-mortem.
fn enforce(certificate: &CompileCertificate) -> Result<(), CompileError> {
    let mut span = qac_telemetry::global().span("certify:check");
    let issues = qac_cert::verify_certificate(certificate);
    let errors = issues.iter().filter(|i| i.kind.is_error()).count();
    span.arg("issues", issues.len() as f64);
    if errors > 0 {
        qac_telemetry::global_flight().record(
            FlightKind::JobFailed,
            "certify:check",
            errors as f64,
        );
        return Err(CompileError::Analysis(certificate_diagnostics(
            certificate,
            &issues,
        )));
    }
    Ok(())
}

/// Renders checker issues as analyzer-style diagnostics (pass
/// `certify`, codes `QAC060`–`QAC068`). A clean run yields one
/// [`Code::CertOk`] info naming the obligation count.
pub fn certificate_diagnostics(
    certificate: &CompileCertificate,
    issues: &[CertIssue],
) -> Diagnostics {
    let mut diagnostics = Diagnostics::new();
    if !issues.iter().any(|i| i.kind.is_error()) {
        diagnostics.push(Diagnostic::new(
            Code::CertOk,
            "certify",
            Location::Model,
            format!(
                "certificate for `{}` verified: {} obligations hold",
                certificate.module,
                certificate.num_obligations()
            ),
        ));
    }
    for issue in issues {
        let (code, location) = match issue.kind {
            IssueKind::Malformed => (Code::CertMalformed, Location::Model),
            IssueKind::FrontendMismatch => (
                Code::CertFrontendMismatch,
                Location::Net(issue.site.clone()),
            ),
            IssueKind::MacroGroundSpace => (
                Code::CertMacroGroundSpace,
                Location::Macro(issue.site.clone()),
            ),
            IssueKind::MacroGap => (Code::CertMacroGap, Location::Macro(issue.site.clone())),
            IssueKind::ChainDisconnected => (Code::CertChainDisconnected, Location::Model),
            IssueKind::ContractionMismatch => (Code::CertContractionMismatch, Location::Model),
            IssueKind::ChainStrengthBound => (Code::CertChainStrengthBound, Location::Model),
            IssueKind::Skipped => (
                Code::CertObligationSkipped,
                Location::Net(issue.site.clone()),
            ),
        };
        diagnostics.push(Diagnostic::new(
            code,
            "certify",
            location,
            issue.message.clone(),
        ));
    }
    diagnostics
}

/// Records the back-end obligation off an embedded model: the logical
/// and physical term lists plus each chain's qubits and programmed
/// intra-chain couplers, from which the checker re-derives connectivity
/// and the term-by-term contraction.
pub fn backend_obligation(logical: &Ising, embedded: &EmbeddedIsing) -> BackendObligation {
    let chains = contraction_witness(embedded)
        .into_iter()
        .map(|w| ChainRecord {
            var: w.var,
            qubits: w.qubits,
            edges: w.edges,
        })
        .collect();
    BackendObligation {
        chain_strength: embedded.chain_strength,
        logical: model_terms(logical),
        chains,
        physical: model_terms(&embedded.physical),
    }
}

/// Flattens an Ising model into the certificate's sorted term lists.
pub fn model_terms(model: &Ising) -> ModelTerms {
    let mut terms = ModelTerms {
        num_vars: model.num_vars(),
        h: model.h_iter().filter(|&(_, v)| v != 0.0).collect(),
        j: model
            .j_iter()
            .filter(|t| t.value != 0.0)
            .map(|t| (t.i, t.j, t.value))
            .collect(),
        offset: model.offset(),
    };
    terms.sort();
    terms
}

// ---------------------------------------------------------------------
// Front end
// ---------------------------------------------------------------------

fn frontend_obligations(
    source: &Netlist,
    optimized: &Netlist,
    prev: Option<&CompileCertificate>,
    proved: &mut usize,
    reused: &mut usize,
    unproven: &mut usize,
) -> Result<Vec<CutObligation>, CompileError> {
    // A fingerprint-only pass decides which obligations need no fresh
    // enumeration: equal cone fingerprints on both sides mean the cones
    // (cells, support, constants) are structurally identical, so the
    // previous compile's truth table is exactly what enumeration would
    // reproduce. With no previous certificate the passes are skipped
    // outright — enumeration records each cone's fingerprint itself.
    let reusable: BTreeMap<String, CutObligation> = match prev {
        Some(prev) if !prev.frontend.is_empty() => {
            let source_prints = fingerprints(source)?;
            let optimized_prints = fingerprints(optimized)?;
            prev.frontend
                .iter()
                .filter(|ob| {
                    source_prints.get(&ob.output) == Some(&ob.source_fingerprint)
                        && optimized_prints.get(&ob.output) == Some(&ob.optimized_fingerprint)
                })
                .map(|ob| (ob.output.clone(), ob.clone()))
                .collect()
        }
        _ => BTreeMap::new(),
    };

    let source_cuts = cut_functions_filtered(source, MAX_CUT_SUPPORT, |out, _| {
        !reusable.contains_key(out)
    })
    .map_err(CompileError::Netlist)?;
    let optimized_cuts = cut_functions_filtered(optimized, MAX_CUT_SUPPORT, |out, _| {
        !reusable.contains_key(out)
    })
    .map_err(CompileError::Netlist)?;
    let mut optimized_by_output: BTreeMap<String, CutFunction> = optimized_cuts
        .into_iter()
        .map(|cut| (cut.output.clone(), cut))
        .collect();

    let mut obligations = Vec::with_capacity(source_cuts.len());
    for cut in source_cuts {
        if let Some(previous) = reusable.get(&cut.output) {
            optimized_by_output.remove(&cut.output);
            obligations.push(previous.clone());
            *reused += 1;
            continue;
        }
        let Some(opt_cut) = optimized_by_output.remove(&cut.output) else {
            return Err(CompileError::Pipeline(format!(
                "certify: output `{}` is missing from the optimized netlist",
                cut.output
            )));
        };
        obligations.push(pair_cuts(cut, opt_cut, proved, unproven));
    }
    if let Some(extra) = optimized_by_output.keys().next() {
        return Err(CompileError::Pipeline(format!(
            "certify: output `{extra}` appears only in the optimized netlist"
        )));
    }
    Ok(obligations)
}

/// Output → cone fingerprint, with no truth tables enumerated.
fn fingerprints(netlist: &Netlist) -> Result<BTreeMap<String, u64>, CompileError> {
    Ok(
        cut_functions_filtered(netlist, MAX_CUT_SUPPORT, |_, _| false)
            .map_err(CompileError::Netlist)?
            .into_iter()
            .map(|cut| (cut.output, cut.fingerprint))
            .collect(),
    )
}

/// Joins one output's source-side and optimized-side cuts into a single
/// obligation over the *union* support: each side's truth table is
/// re-expanded over the union, so equal expansions prove the two
/// functions equivalent even when optimization shrank the support.
fn pair_cuts(
    src: CutFunction,
    opt: CutFunction,
    proved: &mut usize,
    unproven: &mut usize,
) -> CutObligation {
    let support = merge_supports(&src.support, &opt.support);
    let reason = if let Some(reason) = &src.skipped {
        Some(format!("source netlist: {reason}"))
    } else if let Some(reason) = &opt.skipped {
        Some(format!("optimized netlist: {reason}"))
    } else if support.len() > MAX_CUT_SUPPORT {
        Some(format!(
            "joint support of {} exceeds the enumeration limit {MAX_CUT_SUPPORT}",
            support.len()
        ))
    } else {
        None
    };
    if let Some(reason) = reason {
        *unproven += 1;
        return CutObligation {
            output: src.output,
            support,
            source_truth: Vec::new(),
            optimized_truth: Vec::new(),
            truth_hash: 0,
            source_fingerprint: src.fingerprint,
            optimized_fingerprint: opt.fingerprint,
            skipped: Some(reason),
        };
    }
    let source_truth = expand_truth(&src, &support);
    let optimized_truth = expand_truth(&opt, &support);
    let hash = truth_hash(&src.output, &support, &source_truth);
    *proved += 1;
    CutObligation {
        output: src.output,
        support,
        source_truth,
        optimized_truth,
        truth_hash: hash,
        source_fingerprint: src.fingerprint,
        optimized_fingerprint: opt.fingerprint,
        skipped: None,
    }
}

fn merge_supports(a: &[String], b: &[String]) -> Vec<String> {
    let mut union: Vec<String> = a.iter().chain(b).cloned().collect();
    union.sort();
    union.dedup();
    union
}

/// Re-tabulates `cut` over the (sorted) union support: pattern bit `i`
/// of the result is the value of `union[i]`, and positions outside the
/// cut's own support are don't-cares.
fn expand_truth(cut: &CutFunction, union: &[String]) -> Vec<u64> {
    let positions: Vec<usize> = cut
        .support
        .iter()
        .map(|name| {
            union
                .binary_search(name)
                .expect("cut support is a subset of the union")
        })
        .collect();
    let patterns = 1usize << union.len();
    let mut words = vec![0u64; patterns.div_ceil(64)];
    for pattern in 0..patterns {
        let mut narrow = 0usize;
        for (i, &pos) in positions.iter().enumerate() {
            if (pattern >> pos) & 1 == 1 {
                narrow |= 1 << i;
            }
        }
        if (cut.truth[narrow / 64] >> (narrow % 64)) & 1 == 1 {
            words[pattern / 64] |= 1u64 << (pattern % 64);
        }
    }
    words
}

// ---------------------------------------------------------------------
// Macro library
// ---------------------------------------------------------------------

fn macro_obligations(
    program: &Program,
    library: &CellLibrary,
    prev: Option<&CompileCertificate>,
    proved: &mut usize,
    reused: &mut usize,
) -> Result<Vec<MacroObligation>, CompileError> {
    let previous: BTreeMap<&str, &MacroObligation> = prev
        .map(|c| c.macros.iter().map(|ob| (ob.kind.as_str(), ob)).collect())
        .unwrap_or_default();
    let mut obligations = Vec::new();
    for site in macro_sites(program).map_err(CompileError::Pipeline)? {
        let cell = library.get(&site.name).ok_or_else(|| {
            CompileError::Pipeline(format!(
                "certify: no standard cell defines macro `{}`",
                site.name
            ))
        })?;
        let pins = cell.pins();
        let output = pins[0].clone();
        let inputs: Vec<String> = pins[1..].to_vec();
        let mut symbols: BTreeSet<String> = BTreeSet::new();
        let mut h: Vec<(String, f64)> = Vec::new();
        let mut j: Vec<(String, String, f64)> = Vec::new();
        for statement in &site.body {
            match statement {
                Statement::Weight { symbol, value } => {
                    symbols.insert(symbol.clone());
                    h.push((symbol.clone(), *value));
                }
                Statement::Coupling { a, b, value } => {
                    symbols.insert(a.clone());
                    symbols.insert(b.clone());
                    let (a, b) = if a <= b { (a, b) } else { (b, a) };
                    j.push((a.clone(), b.clone(), *value));
                }
                Statement::Assert(_) => {}
                other => {
                    return Err(CompileError::Pipeline(format!(
                        "certify: macro `{}` contains a statement the certifier cannot model: {other:?}",
                        site.name
                    )));
                }
            }
        }
        let ancillas: Vec<String> = symbols
            .into_iter()
            .filter(|name| !pins.contains(name))
            .collect();
        h.sort_by(|a, b| a.0.cmp(&b.0));
        j.sort_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));
        let mut sites = site.instances;
        sites.sort();

        if let Some(p) = previous.get(site.name.as_str()) {
            // Everything enumeration depends on is unchanged — the
            // previous ground space, energy, and gap are byte-exact.
            if p.output == output
                && p.inputs == inputs
                && p.ancillas == ancillas
                && p.h == h
                && p.j == j
                && p.offset == 0.0
            {
                let mut ob = (*p).clone();
                ob.sites = sites;
                obligations.push(ob);
                *reused += 1;
                continue;
            }
        }
        let (ground_rows, ground_energy, gap) =
            enumerate_macro_memo(&site.name, &output, &inputs, &ancillas, &h, &j)?;
        *proved += 1;
        obligations.push(MacroObligation {
            kind: site.name,
            output,
            inputs,
            ancillas,
            h,
            j,
            offset: 0.0,
            ground_rows,
            ground_energy,
            gap,
            sites,
        });
    }
    Ok(obligations)
}

/// [`enumerate_macro`] behind a process-wide memo keyed by a structural
/// hash of every value enumeration depends on (kind, pin roles,
/// ancillas, weights, couplings). The standard-cell library is fixed
/// for a session, so after the first compile each macro proof is a
/// lookup. The memo is a pure producer-side optimization: a hit is
/// byte-exact by construction, and the independent checker still
/// re-verifies the recorded facts on every compile, so even a memo
/// defect could not certify a wrong model.
fn enumerate_macro_memo(
    kind: &str,
    output: &str,
    inputs: &[String],
    ancillas: &[String],
    h: &[(String, f64)],
    j: &[(String, String, f64)],
) -> Result<(Vec<u32>, f64, f64), CompileError> {
    use std::sync::{Mutex, OnceLock};
    /// `(ground_rows, ground_energy, gap)` — [`enumerate_macro`]'s result.
    type MacroProof = (Vec<u32>, f64, f64);
    static MEMO: OnceLock<Mutex<BTreeMap<u64, MacroProof>>> = OnceLock::new();

    let mut key: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            key ^= u64::from(b);
            key = key.wrapping_mul(0x100_0000_01b3);
        }
    };
    for name in [kind, output]
        .into_iter()
        .chain(inputs.iter().chain(ancillas.iter()).map(String::as_str))
    {
        eat(name.as_bytes());
        eat(&[0xff]);
    }
    for (name, value) in h {
        eat(name.as_bytes());
        eat(&value.to_bits().to_le_bytes());
    }
    for (a, b, value) in j {
        eat(a.as_bytes());
        eat(b.as_bytes());
        eat(&value.to_bits().to_le_bytes());
    }

    let memo = MEMO.get_or_init(|| Mutex::new(BTreeMap::new()));
    if let Some(hit) = memo.lock().expect("macro memo poisoned").get(&key) {
        return Ok(hit.clone());
    }
    let fresh = enumerate_macro(kind, output, inputs, ancillas, h, j)?;
    memo.lock()
        .expect("macro memo poisoned")
        .insert(key, fresh.clone());
    Ok(fresh)
}

/// Exhaustively enumerates one macro's unit Ising model. Returns the
/// rows (output ∥ input patterns) whose minimum energy attains the
/// global ground energy, that energy, and the strictly positive gap to
/// the rest of the spectrum.
fn enumerate_macro(
    kind: &str,
    output: &str,
    inputs: &[String],
    ancillas: &[String],
    h: &[(String, f64)],
    j: &[(String, String, f64)],
) -> Result<(Vec<u32>, f64, f64), CompileError> {
    let mut index: BTreeMap<&str, usize> = BTreeMap::new();
    index.insert(output, 0);
    for (i, name) in inputs.iter().enumerate() {
        index.insert(name, i + 1);
    }
    for (i, name) in ancillas.iter().enumerate() {
        index.insert(name, 1 + inputs.len() + i);
    }
    let n = 1 + inputs.len() + ancillas.len();
    if n > MAX_MACRO_SPINS {
        return Err(CompileError::Pipeline(format!(
            "certify: macro `{kind}` has {n} spins, beyond the exhaustive limit {MAX_MACRO_SPINS}"
        )));
    }
    let spin_index = |name: &str| -> Result<usize, CompileError> {
        index.get(name).copied().ok_or_else(|| {
            CompileError::Pipeline(format!(
                "certify: macro `{kind}` uses symbol `{name}` outside its pin/ancilla set"
            ))
        })
    };
    let mut weights = vec![0.0f64; n];
    for (name, value) in h {
        weights[spin_index(name)?] += value;
    }
    let mut couplings = vec![0.0f64; n * n];
    for (a, b, value) in j {
        let (a, b) = (spin_index(a)?, spin_index(b)?);
        couplings[a * n + b] += value;
    }
    let num_rows = 1usize << (1 + inputs.len());
    let mut row_min = vec![f64::INFINITY; num_rows];
    for state in 0..(1u32 << n) {
        let spin = |i: usize| -> f64 {
            if (state >> i) & 1 == 1 {
                1.0
            } else {
                -1.0
            }
        };
        let mut energy = 0.0;
        for (i, &w) in weights.iter().enumerate() {
            energy += w * spin(i);
        }
        for a in 0..n {
            for b in 0..n {
                let value = couplings[a * n + b];
                if value != 0.0 {
                    energy += value * spin(a) * spin(b);
                }
            }
        }
        let row = (state as usize) & (num_rows - 1);
        row_min[row] = row_min[row].min(energy);
    }
    let ground = row_min.iter().fold(f64::INFINITY, |a, &b| a.min(b));
    let mut ground_rows = Vec::new();
    let mut gap = f64::INFINITY;
    for (row, &energy) in row_min.iter().enumerate() {
        if energy - ground <= 1e-9 {
            ground_rows.push(row as u32);
        } else {
            gap = gap.min(energy - ground);
        }
    }
    if !gap.is_finite() {
        return Err(CompileError::Pipeline(format!(
            "certify: macro `{kind}` has no excited rows — every output row is a ground state"
        )));
    }
    Ok((ground_rows, ground, gap))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qac_qmasm::{parse, stdcell_qmasm, MapIncludes, NoIncludes};

    fn library_program(body: &str) -> Program {
        let library = CellLibrary::table5();
        let mut includes = MapIncludes::new();
        includes.insert("stdcell.qmasm", stdcell_qmasm(&library));
        let text = format!("!include <stdcell.qmasm>\n{body}");
        parse(&text, &includes).unwrap()
    }

    #[test]
    fn and_macro_obligation_proves_the_truth_table() {
        let program = library_program("!use_macro AND g1\ng1.Y = y\n");
        let library = CellLibrary::table5();
        let (mut proved, mut reused) = (0, 0);
        let obligations =
            macro_obligations(&program, &library, None, &mut proved, &mut reused).unwrap();
        assert_eq!(obligations.len(), 1);
        let ob = &obligations[0];
        assert_eq!(ob.kind, "AND");
        assert_eq!(proved, 1);
        assert_eq!(reused, 0);
        // Ground rows are exactly AND's satisfying rows: output bit 0,
        // inputs bits 1..: rows 0b000, 0b010, 0b100, 0b111.
        assert_eq!(ob.ground_rows, vec![0b000, 0b010, 0b100, 0b111]);
        assert!(ob.gap > 0.0);
        assert_eq!(ob.sites, vec!["g1".to_string()]);
    }

    #[test]
    fn macro_reuse_is_byte_exact() {
        let program = library_program("!use_macro AND g1\ng1.Y = y\n");
        let library = CellLibrary::table5();
        let (mut proved, mut reused) = (0, 0);
        let fresh = macro_obligations(&program, &library, None, &mut proved, &mut reused).unwrap();
        let mut prev = CompileCertificate::new("m");
        prev.macros = fresh.clone();
        let (mut proved2, mut reused2) = (0, 0);
        let again =
            macro_obligations(&program, &library, Some(&prev), &mut proved2, &mut reused2).unwrap();
        assert_eq!(again, fresh);
        assert_eq!(proved2, 0);
        assert_eq!(reused2, 1);
    }

    #[test]
    fn frontend_obligation_survives_the_checker() {
        use qac_netlist::Builder;
        let mut b = Builder::new("m");
        let x = b.input("x", 2);
        let y = b.and(x[0], x[1]);
        b.output("y", &[y]);
        let netlist = b.finish();
        let (mut proved, mut reused, mut unproven) = (0, 0, 0);
        let obligations = frontend_obligations(
            &netlist,
            &netlist,
            None,
            &mut proved,
            &mut reused,
            &mut unproven,
        )
        .unwrap();
        assert_eq!(obligations.len(), 1);
        assert_eq!(proved, 1);
        let mut cert = CompileCertificate::new("m");
        cert.frontend = obligations;
        cert.finalize();
        assert!(qac_cert::verify_certificate(&cert).is_empty());
    }

    #[test]
    fn expansion_aligns_shrunken_supports() {
        use qac_netlist::Builder;
        // Source: y = (a & b) | (a & !b)  — support {a, b}; an optimizer
        // would shrink this to y = a with support {a}. The union
        // expansion must still prove them equal.
        let mut source = Builder::new("m");
        let a = source.input("a", 1)[0];
        let bb = source.input("b", 1)[0];
        let nb = source.not(bb);
        let t1 = source.and(a, bb);
        let t2 = source.and(a, nb);
        let y = source.or(t1, t2);
        source.output("y", &[y]);
        let source = source.finish();

        let mut optimized = Builder::new("m");
        let a2 = optimized.input("a", 1)[0];
        let _b2 = optimized.input("b", 1); // unused input keeps the port list aligned
        let y2 = optimized.buf(a2);
        optimized.output("y", &[y2]);
        let optimized = optimized.finish();

        let (mut proved, mut reused, mut unproven) = (0, 0, 0);
        let obligations = frontend_obligations(
            &source,
            &optimized,
            None,
            &mut proved,
            &mut reused,
            &mut unproven,
        )
        .unwrap();
        let mut cert = CompileCertificate::new("m");
        cert.frontend = obligations;
        cert.finalize();
        let issues = qac_cert::verify_certificate(&cert);
        assert!(issues.is_empty(), "{issues:?}");
    }

    #[test]
    fn diagnostics_map_issue_kinds_to_qac06x_codes() {
        let cert = CompileCertificate::new("m");
        let clean = certificate_diagnostics(&cert, &[]);
        assert_eq!(clean.iter().next().unwrap().code, Code::CertOk);
        let issue = CertIssue {
            kind: IssueKind::FrontendMismatch,
            site: "y[0]".to_string(),
            message: "differs".to_string(),
        };
        let bad = certificate_diagnostics(&cert, &[issue]);
        assert!(bad.has_errors());
        assert_eq!(bad.iter().next().unwrap().code, Code::CertFrontendMismatch);
    }

    #[test]
    fn unknown_macro_statements_are_rejected() {
        // AND exists in the library, but a chain statement in the body
        // is outside the weight/coupling model the certifier enumerates.
        let src = "!begin_macro AND\nA -1\nA = B\n!end_macro AND\n!use_macro AND w1\n";
        let program = parse(src, &NoIncludes).unwrap();
        let library = CellLibrary::table5();
        let (mut proved, mut reused) = (0, 0);
        let err =
            macro_obligations(&program, &library, None, &mut proved, &mut reused).unwrap_err();
        assert!(matches!(err, CompileError::Pipeline(_)));
    }
}
