//! The QMASM parser on hostile input: weights and strengths that are not
//! finite numbers (`nan`, `inf`, an overflowing `1e400`) are typed
//! `QmasmError::Parse` errors carrying their line, inside a macro body
//! or outside one; finite coefficients whose sum on one term overflows
//! are typed `QmasmError::CoefficientOverflow` errors naming the term,
//! in the assembler (the default chain strength included) and in pin
//! realization; the static analyzer reports a pin whose substitution
//! overflows as QAC004; and no single-character deletion of Figure 2's
//! QMASM panics the parser or the assembler.

use qac::analysis::{analyze_assembled, AnalysisOptions, Code};
use qac::core::{compile, CompileOptions};
use qac::qmasm::{
    assemble, parse, AssembleOptions, Assembled, MapIncludes, NoIncludes, PinStyle, QmasmError,
};

const FIGURE2: &str = r#"
module circuit (s, a, b, c);
  input s, a, b;
  output [1:0] c;
  assign c = s ? a+b : a-b;
endmodule
"#;

/// Parses and, when that succeeds, assembles `source`.
fn parse_and_assemble(source: &str, includes: &MapIncludes) -> Result<(), QmasmError> {
    let program = parse(source, includes)?;
    assemble(&program, &AssembleOptions::default()).map(|_| ())
}

/// Figure 2's generated QMASM and the standard-cell library it includes.
fn figure2_qmasm() -> (String, MapIncludes) {
    let compiled = compile(FIGURE2, "circuit", &CompileOptions::default()).unwrap();
    let mut includes = MapIncludes::new();
    includes.insert("stdcell.qmasm", compiled.stdcell);
    (compiled.qmasm, includes)
}

const NON_FINITE: [&str; 9] = [
    "a nan",
    "a NaN",
    "a inf",
    "a -inf",
    "a infinity",
    "a 1e400",
    "a b inf",
    "a b -NaN",
    "a b 1e400",
];

#[test]
fn the_unmutated_program_assembles() {
    let (qmasm, includes) = figure2_qmasm();
    assert!(parse_and_assemble(&qmasm, &includes).is_ok());
}

#[test]
fn non_finite_coefficients_are_parse_errors_with_their_line() {
    for statement in NON_FINITE {
        let outside = format!("x 0.5\n{statement}\n");
        let inside = format!("!begin_macro m\nx 0.5\n{statement}\n!end_macro m\n");
        for (source, line) in [(outside, 2), (inside, 3)] {
            let result = parse(&source, &NoIncludes);
            assert!(
                matches!(result, Err(QmasmError::Parse { line: l, .. }) if l == line),
                "{statement:?} in {source:?} gave {result:?}"
            );
        }
    }
    // Finite extremes still parse.
    assert!(parse("a 1e300\na b -1e-300\n", &NoIncludes).is_ok());
}

#[test]
fn a_non_finite_weight_in_figure2_is_rejected_at_its_line() {
    let (qmasm, includes) = figure2_qmasm();
    let line = qmasm.lines().count() + 1;
    for statement in NON_FINITE {
        let source = format!("{qmasm}{statement}\n");
        let result = parse_and_assemble(&source, &includes);
        assert!(
            matches!(result, Err(QmasmError::Parse { line: l, .. }) if l == line),
            "{statement:?} gave {result:?}"
        );
    }
}

/// Assembles `source`, which must parse.
fn assemble_source(source: &str) -> Result<Assembled, QmasmError> {
    assemble(
        &parse(source, &NoIncludes).unwrap(),
        &AssembleOptions::default(),
    )
}

fn is_overflow_of(result: &Result<impl std::fmt::Debug, QmasmError>, term: &str) -> bool {
    matches!(result, Err(QmasmError::CoefficientOverflow(t)) if t == term)
}

#[test]
fn finite_coefficients_whose_sum_overflows_are_errors_naming_the_term() {
    // Each weight and strength is finite; only their sums are not.
    for (source, term) in [
        ("a 1e308\na 1e308\na b 1e308\na b 1e308\n", "a"),
        ("a b 1e308\na b 1e308\n", "a b"),
        ("a -1e308\nb 1\na -1e308\n", "a"),
        ("a b -1e308\nb a -1e308\n", "b a"),
        // A merged chain turns the strengths into the model's offset.
        ("a = b\na b 1e308\na b 1e308\n", "a b"),
    ] {
        let result = assemble_source(source);
        assert!(is_overflow_of(&result, term), "{source:?} gave {result:?}");
    }
    // The default chain strength is twice the largest coupling, which
    // overflows here: the error names the strength and that coupling,
    // not the unmerged chain it would have weighted.
    let unmerged = AssembleOptions {
        merge_chains: false,
        ..Default::default()
    };
    let result = assemble(
        &parse("a = b\nc d 1e308\n", &NoIncludes).unwrap(),
        &unmerged,
    );
    assert!(
        is_overflow_of(&result, "chain strength 2 × |c d|"),
        "{result:?}"
    );
    // With merged chains (or none) the strength is still the run path's
    // default pin weight, so it is rejected where it is made rather
    // than blamed on the pin later.
    let result = assemble_source("a b 1e308\nc 1\n");
    assert!(
        is_overflow_of(&result, "chain strength 2 × |a b|"),
        "{result:?}"
    );
    assert!(assemble_source("a b 8e307\nc 1\n").is_ok());
    // A pin bias that overflows the weight on its variable.
    let assembled = assemble_source("a 1e308\n").unwrap();
    let result = assembled.pinned_model(&[("a".to_string(), false)], PinStyle::Bias(1e308));
    assert!(is_overflow_of(&result, "a"), "{result:?}");
    assert!(assembled
        .pinned_model(&[("a".to_string(), true)], PinStyle::Bias(1e308))
        .is_ok());
    // A fixed pin folds its coupling into the neighbour's weight (the
    // coupling stays below 9e307, or the chain strength would overflow).
    let assembled = assemble_source("b 1.7e308\na b 8e307\n").unwrap();
    let result = assembled.pinned_model(&[("a".to_string(), true)], PinStyle::Fix);
    assert!(is_overflow_of(&result, "a"), "{result:?}");
    assert!(assembled
        .pinned_model(&[("a".to_string(), false)], PinStyle::Fix)
        .is_ok());
}

#[test]
fn the_analyzer_reports_a_pin_whose_substitution_overflows() {
    // Fixing `a` to 1 folds `a b` into b's weight: 1.7e308 + 8e307.
    let assembled = assemble_source("b 1.7e308\na b 8e307\na := 1\n").unwrap();
    let report = analyze_assembled(&assembled, None, &AnalysisOptions::default());
    let overflow: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.code == Code::PinOverflow)
        .collect();
    assert_eq!(overflow.len(), 1, "{}", report.render());
    assert!(
        overflow[0].message.contains("pin on `a`"),
        "{}",
        overflow[0]
    );
    assert!(report.diagnostics.has_errors());
    // Neither roof duality nor the exact audit analyzes an infinite model.
    assert_eq!(report.roof_lower_bound, None);
    // The other value folds to a finite weight and analyzes cleanly.
    let assembled = assemble_source("b 1.7e308\na b 8e307\na := 0\n").unwrap();
    let report = analyze_assembled(&assembled, None, &AnalysisOptions::default());
    assert!(!report.diagnostics.has_errors(), "{}", report.render());
    assert!(report.roof_lower_bound.is_some_and(f64::is_finite));
}

#[test]
fn no_single_character_deletion_panics() {
    let (qmasm, includes) = figure2_qmasm();
    let bytes = qmasm.as_bytes();
    let mut rejected = 0;
    for i in 0..bytes.len() {
        let mut text = bytes.to_vec();
        text.remove(i);
        // The program is ASCII, so every deletion is valid UTF-8.
        let text = String::from_utf8(text).unwrap();
        rejected += usize::from(parse_and_assemble(&text, &includes).is_err());
    }
    // Some deletions break a directive or a number the parser needs.
    assert!(rejected > 0);
}
