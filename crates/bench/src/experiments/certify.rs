//! The `certify` experiment: translation-validate the §6 workload
//! corpus end to end.
//!
//! For each workload the experiment compiles with certification on
//! (the default), embeds the logical model on an ideal 2000Q Chimera,
//! attaches the back-end obligation with
//! [`qac_core::backend_obligation`], and re-verifies the completed
//! certificate with the *independent* checker
//! [`qac_cert::verify_certificate`] — the same code path `experiments
//! certify verify CERT.json` runs on a file. The printed table shows
//! per-workload obligation counts (proved / skipped) and the verifier's
//! verdict; any error-severity issue aborts the experiment with exit
//! code 1 so CI can gate on it.
//!
//! With `--cert-dir DIR` (environment `QAC_CERT_DIR`), each completed
//! certificate is additionally written to `DIR/<workload>.cert.json` in
//! the deterministic `qac-cert-v1` rendering, ready for offline
//! re-checking.

use qac_chimera::{chain_strength_bound, embed_ising, Chimera, EmbedOptions};
use qac_core::{backend_obligation, compile, CompileOptions};

use crate::{AUSTRALIA, CIRCSAT, COUNTER, FIGURE2, MULT};

/// `(name, source, top, options, embed)` for every certified workload:
/// the §6 corpus (Figure 2 and Listings 3, 5, 6, 7). The sequential
/// counter is certified on its 2-step unrolling; its `embed` flag is
/// off because the unrolled counter has no minor embedding on an ideal
/// 2000Q under the repo's router, so its certificate carries front-end
/// and macro obligations only (the back end attaches at embed time by
/// design — `CompileCertificate::backend` is optional).
pub fn certified_corpus() -> Vec<(
    &'static str,
    &'static str,
    &'static str,
    CompileOptions,
    bool,
)> {
    let unrolled = CompileOptions {
        unroll_steps: Some(2),
        ..CompileOptions::default()
    };
    vec![
        (
            "figure2",
            FIGURE2,
            "circuit",
            CompileOptions::default(),
            true,
        ),
        ("counter", COUNTER, "count", unrolled, false),
        (
            "circsat",
            CIRCSAT,
            "circsat",
            CompileOptions::default(),
            true,
        ),
        ("mult", MULT, "mult", CompileOptions::default(), true),
        (
            "australia",
            AUSTRALIA,
            "australia",
            CompileOptions::default(),
            true,
        ),
    ]
}

/// Compiles `top`, embeds it on a 2000Q (seed 11, the baseline
/// convention), and returns the completed certificate with its back-end
/// obligation attached.
///
/// # Panics
/// Panics if the workload fails to compile, certify, or embed — the
/// corpus is fixed and known-good, so any failure is a regression.
pub fn certify_workload(
    source: &str,
    top: &str,
    options: &CompileOptions,
    embed: bool,
) -> qac_cert::CompileCertificate {
    let compiled = compile(source, top, options)
        .unwrap_or_else(|e| panic!("workload `{top}` failed to certify: {e}"));
    let mut certificate = compiled
        .certificate
        .clone()
        .expect("certification is on by default");
    if !embed {
        certificate.finalize();
        return certificate;
    }

    let chimera = Chimera::dwave_2000q();
    let hardware = chimera.graph();
    let logical = &compiled.assembled.ising;
    let options = EmbedOptions {
        seed: 11,
        ..Default::default()
    };
    let (embedding, _) = qac_chimera::embed(logical, &chimera, &hardware, &options, None)
        .unwrap_or_else(|e| panic!("workload `{top}` failed to embed: {e}"));
    // The programmed chain strength must dominate the QAC03x
    // neighborhood-weight bound for the certificate's sufficiency check,
    // and by convention at least 2·max|J| and 1.0.
    let max_j = logical
        .j_iter()
        .map(|t| t.value.abs())
        .fold(0.0f64, f64::max);
    let strength = chain_strength_bound(logical).max(2.0 * max_j).max(1.0);
    let embedded = embed_ising(logical, &embedding, &hardware, strength);
    certificate.backend = Some(backend_obligation(logical, &embedded));
    certificate.finalize();
    certificate
}

/// The `certify verify CERT.json` subcommand body: parse and re-verify
/// a rendered certificate file. Returns `Err(why)` on a malformed file
/// or any error-severity issue.
///
/// # Errors
/// A human-readable description of the parse failure or the first
/// verification errors.
pub fn verify_certificate_file(path: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|err| format!("cannot read {path}: {err}"))?;
    let certificate = qac_cert::CompileCertificate::parse(&text)
        .map_err(|err| format!("{path}: not a {} certificate: {err}", qac_cert::CERT_FORMAT))?;
    let issues = qac_cert::verify_certificate(&certificate);
    let errors: Vec<_> = issues.iter().filter(|i| i.kind.is_error()).collect();
    if !errors.is_empty() {
        let mut out = format!("{path}: certificate REJECTED ({} errors)", errors.len());
        for issue in &errors {
            out.push_str(&format!(
                "\n  [{:?}] {}: {}",
                issue.kind, issue.site, issue.message
            ));
        }
        return Err(out);
    }
    let skipped = issues.len() - errors.len();
    Ok(format!(
        "{path}: certificate OK — module `{}`, {} obligations verified ({} skipped notes)",
        certificate.module,
        certificate.num_obligations(),
        skipped,
    ))
}

/// §5/§6 certification table over the workload corpus.
pub fn run_certify() {
    println!("== certify: translation validation over the workload corpus ==\n");
    let cert_dir = std::env::var("QAC_CERT_DIR").ok();
    if let Some(dir) = &cert_dir {
        std::fs::create_dir_all(dir)
            .unwrap_or_else(|e| panic!("cannot create cert dir {dir}: {e}"));
    }

    println!(
        "{:<10} {:>9} {:>7} {:>8} {:>7} {:>7}  verdict",
        "workload", "frontend", "macros", "backend", "proved", "skipped"
    );
    let mut failed = false;
    for (name, source, top, options, embed) in certified_corpus() {
        let certificate = certify_workload(source, top, &options, embed);
        let issues = qac_cert::verify_certificate(&certificate);
        let errors = issues.iter().filter(|i| i.kind.is_error()).count();
        let skipped_notes = issues.len() - errors;
        let enumerated = certificate
            .frontend
            .iter()
            .filter(|o| o.skipped.is_none())
            .count()
            + certificate.macros.len()
            + usize::from(certificate.backend.is_some());
        let verdict = if errors == 0 {
            "OK".to_string()
        } else {
            failed = true;
            format!("REJECTED ({errors} errors)")
        };
        println!(
            "{name:<10} {:>9} {:>7} {:>8} {enumerated:>7} {skipped_notes:>7}  {verdict}",
            certificate.frontend.len(),
            certificate.macros.len(),
            if certificate.backend.is_some() { 1 } else { 0 },
        );
        for issue in issues.iter().filter(|i| i.kind.is_error()) {
            println!("    [{:?}] {}: {}", issue.kind, issue.site, issue.message);
        }
        if let Some(dir) = &cert_dir {
            let path = format!("{dir}/{name}.cert.json");
            std::fs::write(&path, certificate.render())
                .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
            println!("    wrote {path}");
        }
    }
    println!(
        "\nre-check any written certificate offline with:\n  \
         cargo run --release -p qac-bench --bin experiments -- certify verify CERT.json"
    );
    assert!(!failed, "a workload certificate failed verification");
}
