//! The diagnostics framework: stable codes, severities, symbolic
//! locations, and text/JSON rendering.
//!
//! Every finding of the analyzer is a [`Diagnostic`]: a stable [`Code`]
//! (`QAC001`, …), a [`Severity`] derived from the code, the pass that
//! produced it, a symbolic [`Location`] (QMASM net or macro, Ising
//! variable), and a human-readable message. [`Diagnostics`] is the
//! ordered collection with text and JSON renderers. The text rendering
//! is pinned by golden tests, so everything here must be deterministic:
//! no wall times, no hash-map iteration order, fixed float formatting.

use std::fmt;

use qac_telemetry::json::Json;

/// How serious a diagnostic is.
///
/// Severity policy (DESIGN.md §11): **Error** means the program provably
/// cannot execute validly and compilation fails; **Warning** means the
/// program is likely to misbehave on hardware (chains can break,
/// coefficients collapse into analog noise, qubits are wasted);
/// **Info** is a report that requires no action.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// The program provably cannot execute validly.
    Error,
    /// The program is likely to misbehave on hardware.
    Warning,
    /// A report; no action required.
    Info,
}

impl Severity {
    /// The lowercase label used in rendered text and JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Info => "info",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Stable diagnostic codes. The numeric ranges group by pass family:
/// `QAC00x` pins, `QAC01x` dead code, `QAC02x` dynamic range, `QAC03x`
/// chain strength, `QAC04x` roof duality, `QAC05x` exact audit,
/// `QAC06x` certification (translation validation). Codes are
/// append-only; never renumber.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Code {
    /// `QAC001`: two pins demand opposite values of one merged variable.
    PinContradiction,
    /// `QAC002`: a pin fights the constant implied by an isolated weight.
    PinVsConstant,
    /// `QAC003`: a pin repeats a value that is already pinned.
    RedundantPin,
    /// `QAC004`: substituting a pin overflows a weight or the offset.
    PinOverflow,
    /// `QAC010`: a variable has no weight and no couplings.
    DisconnectedVariable,
    /// `QAC011`: a macro is defined but never instantiated.
    UnusedMacro,
    /// `QAC020`: distinct coefficients collapse within the noise epsilon.
    CoefficientCollapse,
    /// `QAC021`: the dynamic-range report (scale, min gap, precision).
    DynamicRange,
    /// `QAC030`: a variable's neighborhood weight exceeds the chain strength.
    ChainStrengthInsufficient,
    /// `QAC031`: the chain-strength report (strength vs. worst neighborhood).
    ChainStrengthReport,
    /// `QAC040`: the roof-duality persistency report.
    RoofPersistency,
    /// `QAC041`: the pinned model's roof-dual lower bound proves UNSAT.
    RoofUnsat,
    /// `QAC050`: the exact audit confirmed every static verdict.
    ExactAuditOk,
    /// `QAC051`: exact enumeration proves the pinned program UNSAT.
    ExactAuditUnsat,
    /// `QAC052`: the exact audit was skipped (model too large, or moot).
    ExactAuditSkipped,
    /// `QAC053`: a static verdict disagreed with exact enumeration.
    ExactAuditMismatch,
    /// `QAC060`: the compile certificate verified (the success report).
    CertOk,
    /// `QAC061`: an output's optimized truth table differs from the source.
    CertFrontendMismatch,
    /// `QAC062`: a macro's ground states differ from its gate's truth table.
    CertMacroGroundSpace,
    /// `QAC063`: a macro's invalid-row energy gap is missing or wrong.
    CertMacroGap,
    /// `QAC064`: an embedding chain is not connected by programmed couplers.
    CertChainDisconnected,
    /// `QAC065`: the chain-contracted hardware model differs from the logical model.
    CertContractionMismatch,
    /// `QAC066`: the chain strength is below the neighborhood-weight bound.
    CertChainStrengthBound,
    /// `QAC067`: an obligation was recorded but not proved (e.g. wide cut).
    CertObligationSkipped,
    /// `QAC068`: the certificate itself is malformed or inconsistent.
    CertMalformed,
}

impl Code {
    /// The stable `QACnnn` string.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::PinContradiction => "QAC001",
            Code::PinVsConstant => "QAC002",
            Code::RedundantPin => "QAC003",
            Code::PinOverflow => "QAC004",
            Code::DisconnectedVariable => "QAC010",
            Code::UnusedMacro => "QAC011",
            Code::CoefficientCollapse => "QAC020",
            Code::DynamicRange => "QAC021",
            Code::ChainStrengthInsufficient => "QAC030",
            Code::ChainStrengthReport => "QAC031",
            Code::RoofPersistency => "QAC040",
            Code::RoofUnsat => "QAC041",
            Code::ExactAuditOk => "QAC050",
            Code::ExactAuditUnsat => "QAC051",
            Code::ExactAuditSkipped => "QAC052",
            Code::ExactAuditMismatch => "QAC053",
            Code::CertOk => "QAC060",
            Code::CertFrontendMismatch => "QAC061",
            Code::CertMacroGroundSpace => "QAC062",
            Code::CertMacroGap => "QAC063",
            Code::CertChainDisconnected => "QAC064",
            Code::CertContractionMismatch => "QAC065",
            Code::CertChainStrengthBound => "QAC066",
            Code::CertObligationSkipped => "QAC067",
            Code::CertMalformed => "QAC068",
        }
    }

    /// The severity this code always carries (codes never change
    /// severity between sites; that keeps `ci.sh analyze` gating stable).
    pub fn severity(self) -> Severity {
        match self {
            Code::PinContradiction
            | Code::PinVsConstant
            | Code::PinOverflow
            | Code::RoofUnsat
            | Code::ExactAuditUnsat
            | Code::ExactAuditMismatch
            | Code::CertFrontendMismatch
            | Code::CertMacroGroundSpace
            | Code::CertMacroGap
            | Code::CertChainDisconnected
            | Code::CertContractionMismatch
            | Code::CertChainStrengthBound
            | Code::CertMalformed => Severity::Error,
            Code::DisconnectedVariable
            | Code::CoefficientCollapse
            | Code::ChainStrengthInsufficient => Severity::Warning,
            Code::RedundantPin
            | Code::UnusedMacro
            | Code::DynamicRange
            | Code::ChainStrengthReport
            | Code::RoofPersistency
            | Code::ExactAuditOk
            | Code::ExactAuditSkipped
            | Code::CertOk
            | Code::CertObligationSkipped => Severity::Info,
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Where a diagnostic points: a symbolic location in the QMASM program
/// or the logical Ising model.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Location {
    /// The model as a whole.
    Model,
    /// A QMASM net (symbol) name.
    Net(String),
    /// Two QMASM nets involved in one finding (e.g. conflicting pins).
    Nets(String, String),
    /// A logical Ising variable with no known symbol name.
    Var(usize),
    /// A QMASM macro definition.
    Macro(String),
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Location::Model => f.write_str("model"),
            Location::Net(name) => write!(f, "net `{name}`"),
            Location::Nets(a, b) => write!(f, "nets `{a}` and `{b}`"),
            Location::Var(v) => write!(f, "variable {v}"),
            Location::Macro(name) => write!(f, "macro `{name}`"),
        }
    }
}

/// One analyzer finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// The stable code.
    pub code: Code,
    /// Severity (always `code.severity()`).
    pub severity: Severity,
    /// The pass that produced the finding.
    pub pass: &'static str,
    /// What the finding points at.
    pub location: Location,
    /// The human-readable message.
    pub message: String,
}

impl Diagnostic {
    /// Builds a diagnostic; the severity comes from the code.
    pub fn new(code: Code, pass: &'static str, location: Location, message: String) -> Diagnostic {
        Diagnostic {
            code,
            severity: code.severity(),
            pass,
            location,
            message,
        }
    }

    /// The JSON object form used by `--diagnostics-json` exports.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            (
                "code".to_string(),
                Json::Str(self.code.as_str().to_string()),
            ),
            (
                "severity".to_string(),
                Json::Str(self.severity.as_str().to_string()),
            ),
            ("pass".to_string(), Json::Str(self.pass.to_string())),
            ("location".to_string(), Json::Str(self.location.to_string())),
            ("message".to_string(), Json::Str(self.message.clone())),
        ])
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {} @ {}: {}",
            self.severity, self.code, self.pass, self.location, self.message
        )
    }
}

/// An ordered collection of diagnostics (the order passes emitted them).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Diagnostics {
    items: Vec<Diagnostic>,
}

impl Diagnostics {
    /// An empty collection.
    pub fn new() -> Diagnostics {
        Diagnostics::default()
    }

    /// Appends a diagnostic.
    pub fn push(&mut self, diagnostic: Diagnostic) {
        self.items.push(diagnostic);
    }

    /// Appends every diagnostic of `other`.
    pub fn extend(&mut self, other: Diagnostics) {
        self.items.extend(other.items);
    }

    /// Number of diagnostics.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when no diagnostics were recorded.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Iterates in emission order.
    pub fn iter(&self) -> impl Iterator<Item = &Diagnostic> {
        self.items.iter()
    }

    /// Number of diagnostics at `severity`.
    pub fn count(&self, severity: Severity) -> usize {
        self.items.iter().filter(|d| d.severity == severity).count()
    }

    /// True when any Error-severity diagnostic is present.
    pub fn has_errors(&self) -> bool {
        self.count(Severity::Error) > 0
    }

    /// Iterates over the Error-severity diagnostics only.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.items.iter().filter(|d| d.severity == Severity::Error)
    }

    /// One line per diagnostic, each terminated by `\n`.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for d in &self.items {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        out
    }

    /// The JSON array form used by `--diagnostics-json` exports.
    pub fn to_json(&self) -> Json {
        Json::Arr(self.items.iter().map(Diagnostic::to_json).collect())
    }
}

impl fmt::Display for Diagnostics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.render_text().trim_end())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_comes_from_code() {
        let d = Diagnostic::new(
            Code::PinContradiction,
            "pins",
            Location::Nets("a".into(), "b".into()),
            "boom".into(),
        );
        assert_eq!(d.severity, Severity::Error);
        assert_eq!(d.to_string(), "error[QAC001] pins @ nets `a` and `b`: boom");
    }

    #[test]
    fn counts_and_errors() {
        let mut ds = Diagnostics::new();
        ds.push(Diagnostic::new(
            Code::DynamicRange,
            "dynamic-range",
            Location::Model,
            "report".into(),
        ));
        assert!(!ds.has_errors());
        ds.push(Diagnostic::new(
            Code::RoofUnsat,
            "roof-duality",
            Location::Model,
            "unsat".into(),
        ));
        assert!(ds.has_errors());
        assert_eq!(ds.count(Severity::Info), 1);
        assert_eq!(ds.count(Severity::Error), 1);
        assert_eq!(ds.errors().count(), 1);
        assert_eq!(ds.len(), 2);
    }

    #[test]
    fn json_round_trips_through_the_parser() {
        let mut ds = Diagnostics::new();
        ds.push(Diagnostic::new(
            Code::UnusedMacro,
            "dead-code",
            Location::Macro("XOR".into()),
            "macro is defined but never instantiated".into(),
        ));
        let text = ds.to_json().to_string();
        let parsed = qac_telemetry::json::parse(&text).unwrap();
        let arr = parsed.as_array().unwrap();
        assert_eq!(arr.len(), 1);
        assert_eq!(arr[0].get("code").unwrap().as_str(), Some("QAC011"));
        assert_eq!(arr[0].get("severity").unwrap().as_str(), Some("info"));
    }

    #[test]
    fn every_code_renders_qac_prefix() {
        for code in [
            Code::PinContradiction,
            Code::PinVsConstant,
            Code::RedundantPin,
            Code::PinOverflow,
            Code::DisconnectedVariable,
            Code::UnusedMacro,
            Code::CoefficientCollapse,
            Code::DynamicRange,
            Code::ChainStrengthInsufficient,
            Code::ChainStrengthReport,
            Code::RoofPersistency,
            Code::RoofUnsat,
            Code::ExactAuditOk,
            Code::ExactAuditUnsat,
            Code::ExactAuditSkipped,
            Code::ExactAuditMismatch,
            Code::CertOk,
            Code::CertFrontendMismatch,
            Code::CertMacroGroundSpace,
            Code::CertMacroGap,
            Code::CertChainDisconnected,
            Code::CertContractionMismatch,
            Code::CertChainStrengthBound,
            Code::CertObligationSkipped,
            Code::CertMalformed,
        ] {
            let s = code.as_str();
            assert!(s.starts_with("QAC") && s.len() == 6, "{s}");
        }
    }
}
