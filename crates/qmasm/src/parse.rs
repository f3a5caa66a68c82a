//! Line-oriented parser for QMASM source, with `!include` resolution and
//! macro collection.

use std::collections::HashMap;

use crate::QmasmError;

/// Resolves `!include` names to source text.
///
/// QMASM's `!include` normally reads files; the compiler pipeline instead
/// supplies library text (e.g. the generated `stdcell.qmasm`) through this
/// trait, keeping the crate free of filesystem access.
pub trait IncludeResolver {
    /// The source text for `name`, or `None` if unknown.
    fn resolve(&self, name: &str) -> Option<String>;
}

/// A resolver with no includes at all.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoIncludes;

impl IncludeResolver for NoIncludes {
    fn resolve(&self, _name: &str) -> Option<String> {
        None
    }
}

/// A resolver backed by a name → text map.
#[derive(Debug, Clone, Default)]
pub struct MapIncludes {
    entries: HashMap<String, String>,
}

impl MapIncludes {
    /// Creates an empty map resolver.
    pub fn new() -> MapIncludes {
        MapIncludes::default()
    }

    /// Registers `text` under `name`.
    pub fn insert(&mut self, name: impl Into<String>, text: impl Into<String>) {
        self.entries.insert(name.into(), text.into());
    }
}

impl IncludeResolver for MapIncludes {
    fn resolve(&self, name: &str) -> Option<String> {
        self.entries.get(name).cloned()
    }
}

/// One QMASM statement (after include expansion, before macro expansion).
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `<sym> <weight>` — a linear coefficient hᵢ.
    Weight {
        /// Symbol name.
        symbol: String,
        /// The weight.
        value: f64,
    },
    /// `<sym1> <sym2> <strength>` — a coupling Jᵢⱼ.
    Coupling {
        /// First symbol.
        a: String,
        /// Second symbol.
        b: String,
        /// The strength.
        value: f64,
    },
    /// `<sym1> = <sym2>` — bias the symbols to be equal (chain).
    Equal(String, String),
    /// `<sym1> != <sym2>` — bias the symbols to be opposite (anti-chain).
    NotEqual(String, String),
    /// `<sym> := <true|false|0|1>` or multi-bit `C[7:0] := 10001111`.
    Pin {
        /// Expanded single-bit pins.
        bits: Vec<(String, bool)>,
    },
    /// `!use_macro MACRO inst1 [inst2 …]`.
    UseMacro {
        /// Macro name.
        name: String,
        /// Instance prefixes.
        instances: Vec<String>,
    },
    /// `!assert <expr>` — checked against solutions after a run.
    Assert(String),
}

/// A parsed program: top-level statements plus macro definitions.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Program {
    /// Statements outside any macro.
    pub statements: Vec<Statement>,
    /// Macro name → body statements.
    pub macros: HashMap<String, Vec<Statement>>,
}

/// Parses QMASM source text, resolving `!include` directives through
/// `includes`.
///
/// # Errors
/// [`QmasmError::Parse`] for malformed lines,
/// [`QmasmError::UnknownInclude`] / [`QmasmError::MacroNesting`] for
/// structural problems.
pub fn parse(source: &str, includes: &dyn IncludeResolver) -> Result<Program, QmasmError> {
    let mut program = Program::default();
    let mut in_macro: Option<(String, Vec<Statement>)> = None;
    parse_into(source, includes, &mut program, &mut in_macro, 0)?;
    if let Some((name, _)) = in_macro {
        return Err(QmasmError::MacroNesting {
            line: 0,
            message: format!("macro `{name}` is never closed"),
        });
    }
    Ok(program)
}

fn parse_into(
    source: &str,
    includes: &dyn IncludeResolver,
    program: &mut Program,
    in_macro: &mut Option<(String, Vec<Statement>)>,
    depth: usize,
) -> Result<(), QmasmError> {
    if depth > 16 {
        return Err(QmasmError::UnknownInclude(
            "include nesting too deep".into(),
        ));
    }
    for (lineno, raw) in source.lines().enumerate() {
        let line = lineno + 1;
        // Strip comments.
        let text = match raw.find('#') {
            Some(idx) => &raw[..idx],
            None => raw,
        };
        let tokens: Vec<&str> = text.split_whitespace().collect();
        if tokens.is_empty() {
            continue;
        }
        // Directives.
        match tokens[0] {
            "!include" => {
                let name = tokens
                    .get(1)
                    .ok_or_else(|| QmasmError::Parse {
                        line,
                        message: "!include needs a file name".into(),
                    })?
                    .trim_matches(|c| c == '"' || c == '<' || c == '>');
                let text = includes
                    .resolve(name)
                    .ok_or_else(|| QmasmError::UnknownInclude(name.to_string()))?;
                parse_into(&text, includes, program, in_macro, depth + 1)?;
                continue;
            }
            "!begin_macro" => {
                if in_macro.is_some() {
                    return Err(QmasmError::MacroNesting {
                        line,
                        message: "macros cannot nest".into(),
                    });
                }
                let name = tokens.get(1).ok_or_else(|| QmasmError::Parse {
                    line,
                    message: "!begin_macro needs a name".into(),
                })?;
                *in_macro = Some((name.to_string(), Vec::new()));
                continue;
            }
            "!end_macro" => {
                let Some((name, body)) = in_macro.take() else {
                    return Err(QmasmError::MacroNesting {
                        line,
                        message: "!end_macro without !begin_macro".into(),
                    });
                };
                if let Some(given) = tokens.get(1) {
                    if *given != name {
                        return Err(QmasmError::MacroNesting {
                            line,
                            message: format!("!end_macro {given} closes macro `{name}`"),
                        });
                    }
                }
                program.macros.insert(name, body);
                continue;
            }
            "!use_macro" => {
                if tokens.len() < 3 {
                    return Err(QmasmError::Parse {
                        line,
                        message: "!use_macro needs a macro name and instance name(s)".into(),
                    });
                }
                let stmt = Statement::UseMacro {
                    name: tokens[1].to_string(),
                    instances: tokens[2..].iter().map(|s| s.to_string()).collect(),
                };
                push(program, in_macro, stmt);
                continue;
            }
            "!assert" => {
                let expr = text.trim_start().trim_start_matches("!assert").trim();
                if expr.is_empty() {
                    return Err(QmasmError::Parse {
                        line,
                        message: "!assert needs an expression".into(),
                    });
                }
                push(program, in_macro, Statement::Assert(expr.to_string()));
                continue;
            }
            t if t.starts_with('!') => {
                return Err(QmasmError::Parse {
                    line,
                    message: format!("unknown directive `{t}`"),
                });
            }
            _ => {}
        }
        // Pin: `<spec> := <value>` (tokens may be `A`, `:=`, `true`).
        if let Some(pos) = tokens.iter().position(|&t| t == ":=") {
            let spec = tokens[..pos].concat();
            let value = tokens[pos + 1..].concat();
            let bits = crate::pin::parse_pin(&format!("{spec} := {value}"))?;
            push(program, in_macro, Statement::Pin { bits });
            continue;
        }
        // Chains.
        if tokens.len() == 3 && tokens[1] == "=" {
            push(
                program,
                in_macro,
                Statement::Equal(tokens[0].into(), tokens[2].into()),
            );
            continue;
        }
        if tokens.len() == 3 && tokens[1] == "!=" {
            push(
                program,
                in_macro,
                Statement::NotEqual(tokens[0].into(), tokens[2].into()),
            );
            continue;
        }
        // Weight / coupling.
        match tokens.len() {
            2 => {
                let value = parse_coefficient(tokens[1], "weight", line)?;
                push(
                    program,
                    in_macro,
                    Statement::Weight {
                        symbol: tokens[0].to_string(),
                        value,
                    },
                );
            }
            3 => {
                let value = parse_coefficient(tokens[2], "strength", line)?;
                push(
                    program,
                    in_macro,
                    Statement::Coupling {
                        a: tokens[0].to_string(),
                        b: tokens[1].to_string(),
                        value,
                    },
                );
            }
            _ => {
                return Err(QmasmError::Parse {
                    line,
                    message: format!("cannot parse statement `{}`", text.trim()),
                });
            }
        }
    }
    Ok(())
}

/// Parses a weight or coupling strength. Rust's float parser accepts
/// `nan`, `inf` and overflowing literals such as `1e400`; none is a
/// coefficient the model can hold, so each is a parse error.
fn parse_coefficient(token: &str, what: &str, line: usize) -> Result<f64, QmasmError> {
    match token.parse::<f64>() {
        Ok(value) if value.is_finite() => Ok(value),
        _ => Err(QmasmError::Parse {
            line,
            message: format!("bad {what} `{token}`: not a finite number"),
        }),
    }
}

fn push(program: &mut Program, in_macro: &mut Option<(String, Vec<Statement>)>, stmt: Statement) {
    match in_macro {
        Some((_, body)) => body.push(stmt),
        None => program.statements.push(stmt),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listing1_weights_and_couplings() {
        // Paper Listing 1.
        let src = "A   -1\nB    2\nA B -5\nB C -5\nC D -5\nD A -5\nA C 10\nB D 10\n";
        let p = parse(src, &NoIncludes).unwrap();
        assert_eq!(p.statements.len(), 8);
        assert!(matches!(
            p.statements[0],
            Statement::Weight { ref symbol, value } if symbol == "A" && value == -1.0
        ));
        assert!(matches!(
            p.statements[2],
            Statement::Coupling { ref a, ref b, value } if a == "A" && b == "B" && value == -5.0
        ));
    }

    #[test]
    fn listing4_macro_with_chains() {
        let src = r#"
!begin_macro AND3
!use_macro AND and1
!use_macro AND and2
and1.Y = and2.$x
and2.A = $x
!end_macro AND3
"#;
        let p = parse(src, &NoIncludes).unwrap();
        let body = &p.macros["AND3"];
        assert_eq!(body.len(), 4);
        assert!(matches!(body[0], Statement::UseMacro { .. }));
        assert!(matches!(body[2], Statement::Equal(..)));
    }

    #[test]
    fn comments_and_blanks() {
        let src = "# full comment\n\nA 1 # trailing\n";
        let p = parse(src, &NoIncludes).unwrap();
        assert_eq!(p.statements.len(), 1);
    }

    #[test]
    fn includes_resolved() {
        let mut inc = MapIncludes::new();
        inc.insert("lib.qmasm", "!begin_macro M\nA 1\n!end_macro M\n");
        let p = parse("!include \"lib.qmasm\"\n!use_macro M m1\n", &inc).unwrap();
        assert!(p.macros.contains_key("M"));
        assert_eq!(p.statements.len(), 1);
    }

    #[test]
    fn unknown_include_rejected() {
        assert!(matches!(
            parse("!include \"nope\"", &NoIncludes),
            Err(QmasmError::UnknownInclude(_))
        ));
    }

    #[test]
    fn pins_single_and_multi_bit() {
        let p = parse("valid := true\nC[3:0] := 1010\n", &NoIncludes).unwrap();
        let Statement::Pin { bits } = &p.statements[0] else {
            panic!()
        };
        assert_eq!(bits, &vec![("valid".to_string(), true)]);
        let Statement::Pin { bits } = &p.statements[1] else {
            panic!()
        };
        assert_eq!(
            bits,
            &vec![
                ("C[3]".to_string(), true),
                ("C[2]".to_string(), false),
                ("C[1]".to_string(), true),
                ("C[0]".to_string(), false),
            ]
        );
    }

    #[test]
    fn nested_macro_rejected() {
        let src = "!begin_macro A\n!begin_macro B\n!end_macro B\n!end_macro A\n";
        assert!(matches!(
            parse(src, &NoIncludes),
            Err(QmasmError::MacroNesting { .. })
        ));
    }

    #[test]
    fn unclosed_macro_rejected() {
        assert!(parse("!begin_macro A\nX 1\n", &NoIncludes).is_err());
    }

    #[test]
    fn asserts_preserved_verbatim() {
        let p = parse("!assert Y == A & B\n", &NoIncludes).unwrap();
        assert_eq!(p.statements[0], Statement::Assert("Y == A & B".into()));
    }

    #[test]
    fn bad_lines_error_with_lineno() {
        let err = parse("A 1\nB notanumber\n", &NoIncludes).unwrap_err();
        assert!(matches!(err, QmasmError::Parse { line: 2, .. }));
    }
}
