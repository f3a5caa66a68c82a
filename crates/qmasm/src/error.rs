use std::fmt;

/// Errors from parsing or assembling QMASM programs.
#[derive(Debug, Clone, PartialEq)]
pub enum QmasmError {
    /// A malformed source line.
    Parse {
        /// 1-based line number (within the including file).
        line: usize,
        /// Description.
        message: String,
    },
    /// An `!include` could not be resolved.
    UnknownInclude(String),
    /// A `!use_macro` names an undefined macro.
    UnknownMacro(String),
    /// Nested or unterminated macro definitions.
    MacroNesting {
        /// Line where the problem was noticed.
        line: usize,
        /// Description.
        message: String,
    },
    /// A pin references an unknown symbol.
    UnknownSymbol(String),
    /// A malformed pin specification (`--pin` syntax).
    BadPin(String),
    /// Contradictory chains (e.g. `A = B` and `A != B`).
    ChainContradiction(String, String),
    /// A malformed assertion expression.
    BadAssert(String),
    /// The coefficients on one term — a symbol's weights and pin biases,
    /// or the strengths of one pair `a b` — add up to a value that is not
    /// finite: finite literals whose sum overflows, or a non-finite pin
    /// weight.
    CoefficientOverflow(String),
}

impl fmt::Display for QmasmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QmasmError::Parse { line, message } => write!(f, "line {line}: {message}"),
            QmasmError::UnknownInclude(name) => write!(f, "cannot resolve !include \"{name}\""),
            QmasmError::UnknownMacro(name) => write!(f, "no such macro `{name}`"),
            QmasmError::MacroNesting { line, message } => write!(f, "line {line}: {message}"),
            QmasmError::UnknownSymbol(name) => write!(f, "unknown symbol `{name}`"),
            QmasmError::BadPin(spec) => write!(f, "malformed pin `{spec}`"),
            QmasmError::ChainContradiction(a, b) => {
                write!(f, "contradictory chains between `{a}` and `{b}`")
            }
            QmasmError::BadAssert(msg) => write!(f, "malformed assertion: {msg}"),
            QmasmError::CoefficientOverflow(term) => {
                write!(
                    f,
                    "the coefficients on `{term}` add up to a non-finite value"
                )
            }
        }
    }
}

impl std::error::Error for QmasmError {}
