//! The EDIF reader on hostile input: truncated forms and absurd port
//! widths in Figure 2's netlist are typed `EdifError::Structure`
//! errors, and no single-character deletion of the netlist panics
//! (every other offset is tried).

use qac::core::{compile, CompileOptions};
use qac::edif::{from_edif, EdifError};

const FIGURE2: &str = r#"
module circuit (s, a, b, c);
  input s, a, b;
  output [1:0] c;
  assign c = s ? a+b : a-b;
endmodule
"#;

fn figure2_edif() -> String {
    compile(FIGURE2, "circuit", &CompileOptions::default())
        .unwrap()
        .edif
}

/// Figure 2's EDIF with the one occurrence of `from` replaced by `to`.
fn mutated(from: &str, to: &str) -> String {
    let edif = figure2_edif();
    assert_eq!(edif.matches(from).count(), 1, "{from:?} occurs once");
    edif.replace(from, to)
}

#[test]
fn the_unmutated_netlist_reads_back() {
    assert!(from_edif(&figure2_edif()).is_ok());
}

#[test]
fn truncated_forms_and_bad_widths_are_structure_errors() {
    for (from, to) in [
        ("(portRef s)", "(portRef)"),
        ("(array c 2)", "(array c)"),
        ("(array c 2)", "(array c -1)"),
        ("(array c 2)", "(array c 0)"),
        ("(array c 2)", "(array c 100000000000)"),
        ("(member c 0)", "(member c -1)"),
        ("(instance (rename xor_0 \"xor$0\")", "(instance"),
        ("(port s (direction INPUT))", "(port)"),
        ("(cell circuit (cellType GENERIC)", "(cell"),
    ] {
        let result = from_edif(&mutated(from, to));
        assert!(
            matches!(result, Err(EdifError::Structure(_))),
            "{from:?} -> {to:?} gave {result:?}"
        );
    }
}

#[test]
fn no_single_character_deletion_panics() {
    let edif = figure2_edif();
    let bytes = edif.as_bytes();
    let mut rejected = 0;
    // Every other offset keeps the debug-build run well under a second;
    // the deletions that hit the reader's index sites are pinned by the
    // explicit mutations above.
    for i in (0..bytes.len()).step_by(2) {
        let mut text = bytes.to_vec();
        text.remove(i);
        // The netlist is ASCII, so every deletion is valid UTF-8.
        let text = String::from_utf8(text).unwrap();
        rejected += usize::from(from_edif(&text).is_err());
    }
    // Most deletions break a paren or a name the reader needs.
    assert!(rejected > 0);
}
