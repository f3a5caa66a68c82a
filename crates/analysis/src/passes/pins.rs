//! Pass `pins`: pin/constant propagation (QAC001–QAC004).
//!
//! Pins already propagate through `=`/`!=` chains because the assembler
//! merged chained nets into single variables with parities — so two
//! pins on the same merged variable demanding opposite spins are a
//! *syntactic* contradiction: no assignment satisfies both, the program
//! is UNSAT before any energy argument (QAC001, Error). A pin can also
//! fight the constant implied by an isolated weight — a degree-0
//! variable with `h != 0` is minimized only at `σ = −sign(h)` (how
//! QMASM's `H_VCC`/`H_GND` encode constants), so pinning it the other
//! way costs `2|h|` over the unpinned minimum (QAC002, Error — but not
//! an UNSAT claim: the unpinned minimum is not known statically).
//! Substituting a pin folds its variable's couplings into the
//! neighbours' weights, which can overflow although every literal is
//! finite (QAC004, Error; roof duality and the exact audit, which
//! analyze the substituted model, then skip).

use std::collections::BTreeMap;

use crate::{
    fmt4, pin_conflicts, spin_str, AnalysisOptions, AnalysisReport, Code, Ctx, Diagnostic,
    PassResult, Severity,
};
use qac_pbf::Spin;

pub(crate) fn run(ctx: &Ctx<'_>, _options: &AnalysisOptions, report: &mut AnalysisReport) {
    let conflicts = pin_conflicts(&ctx.pins);
    let contradictions = conflicts.count(Severity::Error);
    let redundant = conflicts.count(Severity::Info);
    report.pin_contradiction = contradictions > 0;
    if report.pin_contradiction {
        report.unsat = true;
    }
    report.diagnostics.extend(conflicts);

    // Pins vs. isolated constants: first pin per variable wins.
    let mut first: BTreeMap<usize, (Spin, &str)> = BTreeMap::new();
    for (var, spin, name) in &ctx.pins {
        first.entry(*var).or_insert((*spin, name));
    }
    let degrees = crate::degrees(ctx.model);
    let mut constant_conflicts = 0usize;
    for (&var, &(spin, name)) in &first {
        if degrees[var] != 0 {
            continue;
        }
        let h = ctx.model.h(var);
        if h == 0.0 {
            continue;
        }
        let implied = if h < 0.0 { Spin::Up } else { Spin::Down };
        if implied != spin {
            constant_conflicts += 1;
            report.diagnostics.push(Diagnostic::new(
                Code::PinVsConstant,
                "pins",
                ctx.loc(var),
                format!(
                    "pin on `{name}` forces spin {} but the isolated weight h = {} \
                     encodes the constant spin {} (pinning against it costs {} energy)",
                    spin_str(spin),
                    fmt4(h),
                    spin_str(implied),
                    fmt4(2.0 * h.abs()),
                ),
            ));
        }
    }

    // Substituting the pins, as roof duality and the exact audit do,
    // folds each pinned variable's couplings into its neighbours'
    // weights, which can overflow although every literal is finite.
    if let Err((var, name)) = crate::pinned_fix_model(ctx) {
        report.diagnostics.push(Diagnostic::new(
            Code::PinOverflow,
            "pins",
            ctx.loc(var),
            format!(
                "substituting the pin on `{name}` overflows a weight or the offset \
                 to a non-finite value"
            ),
        ));
    }

    let summary = if ctx.pins.is_empty() {
        "no pins".to_string()
    } else {
        format!(
            "{} pins over {} variables; {} contradictions, {} redundant, {} constant conflicts",
            ctx.pins.len(),
            first.len(),
            contradictions,
            redundant,
            constant_conflicts,
        )
    };
    report.passes.push(PassResult {
        pass: "pins",
        summary,
    });
}

#[cfg(test)]
mod tests {
    use crate::{analyze_ising, AnalysisOptions, Code, Severity};
    use qac_pbf::{Ising, Spin};

    #[test]
    fn contradiction_sets_unsat() {
        let mut m = Ising::new(2);
        m.add_j(0, 1, -1.0);
        let report = analyze_ising(
            &m,
            &[(0, Spin::Up), (0, Spin::Down)],
            &AnalysisOptions::default(),
        );
        assert!(report.unsat);
        assert!(report.pin_contradiction);
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == Code::PinContradiction));
    }

    #[test]
    fn pin_against_isolated_constant_is_an_error_but_not_unsat() {
        // Variable 0 is degree-0 with h = −2 (the H_VCC constant-true
        // idiom); pinning it false fights the constant.
        let mut m = Ising::new(2);
        m.add_h(0, -2.0);
        m.add_h(1, 0.5);
        let report = analyze_ising(&m, &[(0, Spin::Down)], &AnalysisOptions::default());
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == Code::PinVsConstant)
            .expect("QAC002 expected");
        assert_eq!(d.severity, Severity::Error);
        assert!(!report.pin_contradiction);
        assert!(!report.unsat, "QAC002 must not claim UNSAT");
    }

    #[test]
    fn pin_agreeing_with_constant_is_clean() {
        let mut m = Ising::new(1);
        m.add_h(0, -2.0);
        let report = analyze_ising(&m, &[(0, Spin::Up)], &AnalysisOptions::default());
        assert!(!report
            .diagnostics
            .iter()
            .any(|d| d.code == Code::PinVsConstant));
    }

    #[test]
    fn coupled_variable_never_triggers_constant_check() {
        let mut m = Ising::new(2);
        m.add_h(0, -2.0);
        m.add_j(0, 1, 1.0);
        let report = analyze_ising(&m, &[(0, Spin::Down)], &AnalysisOptions::default());
        assert!(!report
            .diagnostics
            .iter()
            .any(|d| d.code == Code::PinVsConstant));
    }
}
