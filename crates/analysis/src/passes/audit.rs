//! Pass `exact-audit`: cross-checking static verdicts against
//! exhaustive enumeration (QAC050–QAC053).
//!
//! For models small enough to enumerate (≤ `exact_audit_max_vars`),
//! `ExactSolver` ground states of the pinned model are the ground
//! truth. The audit verifies that (a) the roof-dual lower bound really
//! is a lower bound, (b) every roof persistency is realized by some
//! ground state, and (c) the expected-energy UNSAT verdicts agree with
//! the true pinned minimum. Disagreement between two *static* results
//! is an internal inconsistency (QAC053 — Error, because one of the
//! verdicts is a lie, but not an UNSAT claim); only the enumeration
//! itself proves UNSAT (QAC051).

use qac_solvers::ExactSolver;

use crate::{
    fmt4, pinned_fix_model, AnalysisOptions, AnalysisReport, Code, Ctx, Diagnostic, Location,
    PassResult,
};

/// Matches the roof pass's fixed-point slack.
const BOUND_MARGIN: f64 = 1e-3;
/// Tolerance for comparing exact energies.
const ENERGY_EPS: f64 = 1e-6;

pub(crate) fn run(ctx: &Ctx<'_>, options: &AnalysisOptions, report: &mut AnalysisReport) {
    let n = ctx.model.num_vars();
    if report.pin_contradiction {
        return skip(
            report,
            "pins contradict syntactically, so the pinned model does not represent \
             the program"
                .to_string(),
            "pin contradiction".to_string(),
        );
    }
    if n > options.exact_audit_max_vars {
        return skip(
            report,
            format!(
                "{} variables exceed the audit cap {}",
                n, options.exact_audit_max_vars
            ),
            format!("{n} vars > cap {}", options.exact_audit_max_vars),
        );
    }
    let pinned = match pinned_fix_model(ctx) {
        Ok((pinned, _)) => pinned,
        Err((_, name)) => {
            return skip(
                report,
                format!("substituting the pin on `{name}` overflows a coefficient"),
                "pin overflow".to_string(),
            )
        }
    };
    let solver = ExactSolver::new().with_max_vars(options.exact_audit_max_vars.max(n));
    let (min, minima) = solver.ground_states(&pinned, 1e-9);
    let mut mismatches = 0usize;
    let mut checks = 0usize;

    if let Some(lb) = report.roof_lower_bound {
        checks += 1;
        if lb > min + BOUND_MARGIN {
            mismatches += 1;
            report.diagnostics.push(Diagnostic::new(
                Code::ExactAuditMismatch,
                "exact-audit",
                Location::Model,
                format!(
                    "roof-dual lower bound {} exceeds the true pinned minimum {}; \
                     the bound is not a lower bound",
                    fmt4(lb),
                    fmt4(min),
                ),
            ));
        }
    }

    if !report.roof_fixed.is_empty() {
        checks += 1;
        let realized = minima
            .iter()
            .any(|assign| report.roof_fixed.iter().all(|&(v, spin)| assign[v] == spin));
        if !realized {
            mismatches += 1;
            report.diagnostics.push(Diagnostic::new(
                Code::ExactAuditMismatch,
                "exact-audit",
                Location::Model,
                format!(
                    "no ground state of the pinned model realizes all {} roof \
                     persistencies jointly",
                    report.roof_fixed.len(),
                ),
            ));
        }
    }

    if let Some(expected) = options.expected_ground_energy {
        checks += 1;
        if min > expected + ENERGY_EPS {
            report.unsat = true;
            report.diagnostics.push(Diagnostic::new(
                Code::ExactAuditUnsat,
                "exact-audit",
                Location::Model,
                format!(
                    "exact minimum {} of the pinned model exceeds the expected ground \
                     energy {}; the pins are unsatisfiable",
                    fmt4(min),
                    fmt4(expected),
                ),
            ));
        } else if min < expected - ENERGY_EPS {
            mismatches += 1;
            report.diagnostics.push(Diagnostic::new(
                Code::ExactAuditMismatch,
                "exact-audit",
                Location::Model,
                format!(
                    "exact minimum {} of the pinned model is below the expected ground \
                     energy {}; the expected-energy bookkeeping is wrong",
                    fmt4(min),
                    fmt4(expected),
                ),
            ));
        } else if report.unsat {
            // An earlier pass claimed UNSAT but enumeration reaches the
            // expected energy — that claim was false.
            mismatches += 1;
            report.diagnostics.push(Diagnostic::new(
                Code::ExactAuditMismatch,
                "exact-audit",
                Location::Model,
                format!(
                    "a static pass claimed UNSAT but the pinned model reaches the \
                     expected ground energy {}",
                    fmt4(expected),
                ),
            ));
        }
    }

    if mismatches == 0 && !report.unsat {
        report.diagnostics.push(Diagnostic::new(
            Code::ExactAuditOk,
            "exact-audit",
            Location::Model,
            format!(
                "enumerated {} assignments; pinned minimum {} with {} ground states; \
                 {} static verdicts confirmed",
                1u64 << pinned.num_vars(),
                fmt4(min),
                minima.len(),
                checks,
            ),
        ));
    }

    report.passes.push(PassResult {
        pass: "exact-audit",
        summary: format!(
            "pinned minimum {} over {} ground states; {} checks, {} mismatches",
            fmt4(min),
            minima.len(),
            checks,
            mismatches,
        ),
    });
}

/// Reports the audit as skipped: `detail` in a QAC052 diagnostic,
/// `reason` in the pass summary.
fn skip(report: &mut AnalysisReport, detail: String, reason: String) {
    report.diagnostics.push(Diagnostic::new(
        Code::ExactAuditSkipped,
        "exact-audit",
        Location::Model,
        format!("skipped: {detail}"),
    ));
    report.passes.push(PassResult {
        pass: "exact-audit",
        summary: format!("skipped ({reason})"),
    });
}

#[cfg(test)]
mod tests {
    use crate::{analyze_ising, AnalysisOptions, Code};
    use qac_pbf::{Ising, Spin};

    fn options_with_expected(e: f64) -> AnalysisOptions {
        AnalysisOptions {
            expected_ground_energy: Some(e),
            ..Default::default()
        }
    }

    #[test]
    fn clean_model_gets_audit_ok() {
        let mut m = Ising::new(2);
        m.add_j(0, 1, -1.0);
        let report = analyze_ising(&m, &[(0, Spin::Up)], &options_with_expected(-1.0));
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == Code::ExactAuditOk));
        assert!(!report.unsat);
    }

    #[test]
    fn energy_infeasible_pins_proven_unsat() {
        // Frustrated triangle: ground energy is −1 (one bond
        // unsatisfied). Expecting −3 (all bonds) is unsatisfiable —
        // roof duality's bound is too loose to see it on this
        // symmetric model, so only the audit catches it.
        let mut m = Ising::new(3);
        m.add_j(0, 1, 1.0);
        m.add_j(1, 2, 1.0);
        m.add_j(0, 2, 1.0);
        let report = analyze_ising(&m, &[], &options_with_expected(-3.0));
        assert!(report.unsat);
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == Code::ExactAuditUnsat));
    }

    #[test]
    fn minimum_below_expected_is_a_bookkeeping_mismatch() {
        let mut m = Ising::new(2);
        m.add_j(0, 1, -1.0);
        let report = analyze_ising(&m, &[], &options_with_expected(0.5));
        assert!(!report.unsat, "model beats expected; not UNSAT");
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == Code::ExactAuditMismatch));
    }

    #[test]
    fn large_model_is_skipped() {
        let mut m = Ising::new(13);
        m.add_j(0, 1, -1.0);
        let report = analyze_ising(&m, &[], &AnalysisOptions::default());
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == Code::ExactAuditSkipped)
            .expect("QAC052 expected");
        assert!(d.message.contains("13 variables exceed the audit cap 12"));
    }

    #[test]
    fn audit_runs_at_the_cap_boundary() {
        let mut m = Ising::new(12);
        m.add_j(0, 1, -1.0);
        let report = analyze_ising(&m, &[], &AnalysisOptions::default());
        assert!(!report
            .diagnostics
            .iter()
            .any(|d| d.code == Code::ExactAuditSkipped));
    }
}
