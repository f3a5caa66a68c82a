//! Pass `roof-duality`: persistency reporting and dual-bound UNSAT
//! proofs (QAC040–QAC041).
//!
//! Roof duality on the *pinned* model (pins substituted out with
//! `try_fix_variable`) reports weak persistencies — variables whose value
//! is already decided in some minimizer, i.e. qubits the compiler could
//! elide (Pakin §4.4 uses SAPI's roof duality for exactly this). The
//! dual lower bound doubles as an UNSAT prover: a valid execution must
//! reach the expected ground energy with its pins satisfied, so when
//! the pinned model's lower bound exceeds that energy (beyond the
//! fixed-point margin), no such execution exists.

use qac_pbf::roof::roof_duality;

use crate::{
    fmt4, pinned_fix_model, AnalysisOptions, AnalysisReport, Code, Ctx, Diagnostic, Location,
    PassResult,
};

/// Slack absorbing the flow network's 2⁻²⁰ fixed-point quantization.
const BOUND_MARGIN: f64 = 1e-3;

pub(crate) fn run(ctx: &Ctx<'_>, options: &AnalysisOptions, report: &mut AnalysisReport) {
    let (pinned, pin_values) = match pinned_fix_model(ctx) {
        Ok(fixed) => fixed,
        Err((_, name)) => {
            report.passes.push(PassResult {
                pass: "roof-duality",
                summary: format!("skipped (substituting the pin on `{name}` overflows)"),
            });
            return;
        }
    };
    let rd = roof_duality(&pinned);
    report.roof_lower_bound = Some(rd.lower_bound);
    report.roof_fixed = rd
        .fixed
        .iter()
        .enumerate()
        .filter_map(|(v, f)| f.map(|spin| (v, spin)))
        .filter(|(v, _)| !pin_values.contains_key(v))
        .collect();

    let unpinned = ctx.model.num_vars() - pin_values.len();
    report.diagnostics.push(Diagnostic::new(
        Code::RoofPersistency,
        "roof-duality",
        Location::Model,
        format!(
            "roof duality fixes {} of {} unpinned variables; pinned-model dual \
             lower bound {}",
            report.roof_fixed.len(),
            unpinned,
            fmt4(rd.lower_bound),
        ),
    ));

    if let Some(expected) = options.expected_ground_energy {
        // A syntactic pin contradiction already proved UNSAT, and the
        // fixed model it produced (first pin wins) is not the program's
        // semantics — don't pile a bound argument on top of it.
        if !report.pin_contradiction && rd.lower_bound > expected + BOUND_MARGIN {
            report.unsat = true;
            report.diagnostics.push(Diagnostic::new(
                Code::RoofUnsat,
                "roof-duality",
                Location::Model,
                format!(
                    "pinned-model dual lower bound {} exceeds the expected ground \
                     energy {}; the pins are unsatisfiable at minimum energy",
                    fmt4(rd.lower_bound),
                    fmt4(expected),
                ),
            ));
        }
    }

    report.passes.push(PassResult {
        pass: "roof-duality",
        summary: format!(
            "{} of {} unpinned variables fixable; dual lower bound {}",
            report.roof_fixed.len(),
            unpinned,
            fmt4(rd.lower_bound),
        ),
    });
}

#[cfg(test)]
mod tests {
    use crate::{analyze_ising, AnalysisOptions, Code};
    use qac_pbf::{Ising, Spin};

    #[test]
    fn persistency_propagates_through_pins() {
        // Pin 0 up; the ferromagnetic chain forces 1 and 2 up in every
        // minimizer ⇒ both reported fixable.
        let mut m = Ising::new(3);
        m.add_j(0, 1, -1.0);
        m.add_j(1, 2, -1.0);
        let report = analyze_ising(&m, &[(0, Spin::Up)], &AnalysisOptions::default());
        assert_eq!(report.roof_fixed, vec![(1, Spin::Up), (2, Spin::Up)]);
        assert!(!report.unsat);
    }

    #[test]
    fn contradictory_pin_energy_proves_unsat() {
        // H = −σ0σ1 has ground energy −1 (expected). Pinning both ends
        // of the *antiferromagnetic-incompatible* way: pin 0 up, 1 down
        // forces energy +1 > −1 ⇒ QAC041.
        let mut m = Ising::new(2);
        m.add_j(0, 1, -1.0);
        let options = AnalysisOptions {
            expected_ground_energy: Some(-1.0),
            ..Default::default()
        };
        let report = analyze_ising(&m, &[(0, Spin::Up), (1, Spin::Down)], &options);
        assert!(report.unsat);
        assert!(report.diagnostics.iter().any(|d| d.code == Code::RoofUnsat));
    }

    #[test]
    fn satisfiable_pins_stay_clean() {
        let mut m = Ising::new(2);
        m.add_j(0, 1, -1.0);
        let options = AnalysisOptions {
            expected_ground_energy: Some(-1.0),
            ..Default::default()
        };
        let report = analyze_ising(&m, &[(0, Spin::Up), (1, Spin::Up)], &options);
        assert!(!report.unsat);
        assert!(!report.diagnostics.iter().any(|d| d.code == Code::RoofUnsat));
        // The pinned model is fully substituted: bound equals expected.
        assert!((report.roof_lower_bound.unwrap() - (-1.0)).abs() < 1e-3);
    }

    #[test]
    fn no_bound_claim_on_syntactic_contradiction() {
        let mut m = Ising::new(2);
        m.add_j(0, 1, -1.0);
        let options = AnalysisOptions {
            expected_ground_energy: Some(-1.0),
            ..Default::default()
        };
        let report = analyze_ising(&m, &[(0, Spin::Up), (0, Spin::Down)], &options);
        assert!(report.unsat, "QAC001 already proves UNSAT");
        assert!(!report.diagnostics.iter().any(|d| d.code == Code::RoofUnsat));
    }
}
