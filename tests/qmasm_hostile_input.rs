//! The QMASM parser on hostile input: weights and strengths that are not
//! finite numbers (`nan`, `inf`, an overflowing `1e400`) are typed
//! `QmasmError::Parse` errors carrying their line, inside a macro body
//! or outside one, and no single-character deletion of Figure 2's QMASM
//! panics the parser or the assembler.

use qac::core::{compile, CompileOptions};
use qac::qmasm::{assemble, parse, AssembleOptions, MapIncludes, NoIncludes, QmasmError};

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
