//! The certificate checker on the run path's back end: a Figure 2
//! certificate with its embedded back end verifies, and the same
//! certificate with one logical `h` or `J` coefficient nudged is
//! rejected at exactly that term.

use qac::chimera::{chain_strength_bound, embed, embed_ising, Chimera, EmbedOptions};
use qac::core::{
    backend_obligation, compile, verify_certificate, CertIssue, CompileCertificate, CompileOptions,
    IssueKind,
};

const FIGURE2: &str = r#"
module circuit (s, a, b, c);
  input s, a, b;
  output [1:0] c;
  assign c = s ? a+b : a-b;
endmodule
"#;

/// Figure 2's compile certificate with the back-end obligation of a
/// seed-11 embedding on a C4 attached.
fn figure2_certificate() -> CompileCertificate {
    let compiled = compile(FIGURE2, "circuit", &CompileOptions::default()).unwrap();
    let logical = &compiled.assembled.ising;
    let chimera = Chimera::new(4);
    let hardware = chimera.graph();
    let options = EmbedOptions {
        seed: 11,
        ..Default::default()
    };
    let (embedding, _) = embed(logical, &chimera, &hardware, &options, None).unwrap();
    let strength = chain_strength_bound(logical).max(1.0);
    let embedded = embed_ising(logical, &embedding, &hardware, strength);
    let mut certificate = compiled.certificate.clone().expect("certification is on");
    certificate.backend = Some(backend_obligation(logical, &embedded));
    certificate.finalize();
    certificate
}

fn errors(certificate: &CompileCertificate) -> Vec<CertIssue> {
    verify_certificate(certificate)
        .into_iter()
        .filter(|issue| issue.kind.is_error())
        .collect()
}

fn flags(issues: &[CertIssue], site: &str) -> bool {
    issues
        .iter()
        .any(|issue| issue.kind == IssueKind::ContractionMismatch && issue.site == site)
}

#[test]
fn perturbed_logical_coefficients_are_rejected() {
    let certificate = figure2_certificate();
    let issues = errors(&certificate);
    assert!(
        issues.is_empty(),
        "the honest certificate verifies: {issues:?}"
    );

    let mut bad_h = certificate.clone();
    let h = &mut bad_h.backend.as_mut().unwrap().logical.h[0];
    h.1 += 0.25;
    let site = format!("variable {}", h.0);
    let issues = errors(&bad_h);
    assert!(
        flags(&issues, &site),
        "a nudged h must be caught at {site}: {issues:?}"
    );

    let mut bad_j = certificate;
    let j = &mut bad_j.backend.as_mut().unwrap().logical.j[0];
    j.2 += 0.25;
    let site = format!("coupling ({}, {})", j.0, j.1);
    let issues = errors(&bad_j);
    assert!(
        flags(&issues, &site),
        "a nudged J must be caught at {site}: {issues:?}"
    );
}
