//! Assembling a parsed program into a logical Ising model.
//!
//! The assembler expands macros, resolves symbols, merges `=`/`!=` chains
//! into single variables (the paper's §4.4 optimization — optionally
//! disabled to emit explicit chain couplings instead), accumulates weights
//! and strengths, and records pins and assertions.

use std::collections::HashMap;

use qac_pbf::{Ising, Spin};

use crate::assert::AssertExpr;
use crate::parse::{Program, Statement};
use crate::QmasmError;

/// Options controlling assembly.
#[derive(Debug, Clone)]
pub struct AssembleOptions {
    /// Merge `A = B` chains into one variable (§4.4). When false, chains
    /// become explicit ferromagnetic couplings of `chain_strength`.
    pub merge_chains: bool,
    /// Strength used for unmerged chains and `!=` anti-chains. `None`
    /// mirrors the `qmasm` default: twice the largest-magnitude J that
    /// appears literally in the code (at least 1).
    pub chain_strength: Option<f64>,
    /// Bias magnitude used when pins are applied as fields. `None` mirrors
    /// the chain-strength default.
    pub pin_weight: Option<f64>,
}

impl Default for AssembleOptions {
    fn default() -> AssembleOptions {
        AssembleOptions {
            merge_chains: true,
            chain_strength: None,
            pin_weight: None,
        }
    }
}

/// How pins should be realized when building a runnable model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PinStyle {
    /// Add a strong field hᵢ toward the pinned value (hardware style —
    /// what `qmasm` does via `H_VCC`/`H_GND`, §4.3.4).
    Bias(f64),
    /// Substitute the variable out of the model entirely.
    Fix,
}

/// Union-find symbol table with parity tracking.
///
/// Each symbol resolves to a logical variable index plus a [`Spin`]
/// parity: `Spin::Up` means the symbol equals the variable, `Spin::Down`
/// means it is its negation (introduced by `!=` chains).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SymbolTable {
    names: Vec<String>,
    index: HashMap<String, usize>,
    parent: Vec<usize>,
    /// Parity of this entry relative to its parent.
    parity: Vec<i8>,
    /// Root entry → compacted variable index (filled by `compact`).
    var_of_root: HashMap<usize, usize>,
    num_vars: usize,
}

impl SymbolTable {
    fn intern(&mut self, name: &str) -> usize {
        if let Some(&i) = self.index.get(name) {
            return i;
        }
        let i = self.names.len();
        self.names.push(name.to_string());
        self.index.insert(name.to_string(), i);
        self.parent.push(i);
        self.parity.push(1);
        i
    }

    /// Finds the root of entry `i`; returns `(root, parity)` where parity
    /// is +1/−1 relative to the root. Performs path compression.
    fn find(&mut self, i: usize) -> (usize, i8) {
        if self.parent[i] == i {
            return (i, 1);
        }
        let (root, p) = self.find(self.parent[i]);
        let total = self.parity[i] * p;
        self.parent[i] = root;
        self.parity[i] = total;
        (root, total)
    }

    /// Unions entries `a` and `b` with the relation σ_a = rel · σ_b.
    /// Returns `Err(())` on contradiction.
    fn union(&mut self, a: usize, b: usize, rel: i8) -> Result<(), ()> {
        let (ra, pa) = self.find(a);
        let (rb, pb) = self.find(b);
        if ra == rb {
            // Existing relation: σ_a = (pa·pb)σ_b must equal rel.
            if pa * pb != rel {
                return Err(());
            }
            return Ok(());
        }
        // Attach rb under ra: σ_rb = parity · σ_ra.
        // σ_a = pa σ_ra; σ_b = pb σ_rb ⇒ σ_rb = (rel·pa·pb) σ_ra... derive:
        // want σ_a = rel σ_b ⇒ pa σ_ra = rel pb σ_rb ⇒ σ_rb = (pa·rel·pb) σ_ra.
        self.parent[rb] = ra;
        self.parity[rb] = pa * rel * pb;
        Ok(())
    }

    /// Assigns compacted variable indices to every root.
    fn compact(&mut self) {
        let n = self.names.len();
        for i in 0..n {
            let (root, _) = self.find(i);
            let next = self.var_of_root.len();
            self.var_of_root.entry(root).or_insert(next);
        }
        self.num_vars = self.var_of_root.len();
    }

    /// Number of logical variables after chain merging.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of distinct symbols.
    pub fn num_symbols(&self) -> usize {
        self.names.len()
    }

    /// All symbol names, in first-appearance order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.names.iter().map(|s| s.as_str())
    }

    /// Resolves a symbol to `(variable, parity)`.
    pub fn resolve(&self, name: &str) -> Option<(usize, Spin)> {
        let &i = self.index.get(name)?;
        // Non-mutating find.
        let mut cur = i;
        let mut parity = 1i8;
        while self.parent[cur] != cur {
            parity *= self.parity[cur];
            cur = self.parent[cur];
        }
        let var = *self.var_of_root.get(&cur)?;
        Some((var, if parity > 0 { Spin::Up } else { Spin::Down }))
    }

    /// The Boolean value a symbol takes under a spin assignment.
    pub fn value_of(&self, name: &str, spins: &[Spin]) -> Option<bool> {
        let (var, parity) = self.resolve(name)?;
        let spin = spins.get(var)?;
        Some(match parity {
            Spin::Up => spin.to_bool(),
            Spin::Down => !spin.to_bool(),
        })
    }
}

/// The result of assembly: the logical model plus everything needed to
/// run it and interpret results.
#[derive(Debug, Clone, PartialEq)]
pub struct Assembled {
    /// The logical Hamiltonian (no pins applied).
    pub ising: Ising,
    /// Symbol resolution.
    pub symbols: SymbolTable,
    /// Pins gathered from `:=` statements (single-bit, post-expansion).
    pub pins: Vec<(String, bool)>,
    /// Assertions, parsed and ready to evaluate.
    pub asserts: Vec<AssertExpr>,
    /// The chain/pin strength that was used or derived.
    pub chain_strength: f64,
    /// Chain couplings emitted because merging was disabled (0 when
    /// `merge_chains` is on). Each contributes −`chain_strength` to the
    /// energy of every chain-satisfying assignment.
    pub num_chain_couplings: usize,
}

impl Assembled {
    /// Resolves the program's pins plus `extra_pins` to concrete
    /// variables, in program order: `(variable, required spin, symbol
    /// name, pinned value)`. The required spin already folds in the
    /// symbol's chain parity, so two entries on the same variable with
    /// different spins are a genuine contradiction regardless of how
    /// many `=`/`!=` hops separate the pinned nets.
    ///
    /// This is the single pin-resolution path shared by
    /// [`Assembled::pinned_model`] and the static analyzer.
    ///
    /// # Errors
    /// [`QmasmError::UnknownSymbol`] if a pin names an unknown symbol.
    pub fn resolved_pins(
        &self,
        extra_pins: &[(String, bool)],
    ) -> Result<Vec<(usize, Spin, String, bool)>, QmasmError> {
        self.pins
            .iter()
            .chain(extra_pins.iter())
            .map(|(name, value)| {
                let (var, parity) = self
                    .symbols
                    .resolve(name)
                    .ok_or_else(|| QmasmError::UnknownSymbol(name.clone()))?;
                // Spin the variable must take for the symbol to equal `value`.
                let target = match parity {
                    Spin::Up => Spin::from(*value),
                    Spin::Down => Spin::from(!*value),
                };
                Ok((var, target, name.clone(), *value))
            })
            .collect()
    }

    /// Builds the runnable model with `extra_pins` merged onto the
    /// program's own pins, realized per `style`.
    ///
    /// # Errors
    /// [`QmasmError::UnknownSymbol`] if a pin names an unknown symbol;
    /// [`QmasmError::CoefficientOverflow`] naming the pin whose bias, or
    /// whose substitution, leaves a weight or the offset non-finite.
    pub fn pinned_model(
        &self,
        extra_pins: &[(String, bool)],
        style: PinStyle,
    ) -> Result<Ising, QmasmError> {
        let mut model = self.ising.clone();
        for (var, target, name, _) in self.resolved_pins(extra_pins)? {
            match style {
                PinStyle::Bias(weight) => {
                    // H_VCC(σ) = −σ pins true; H_GND(σ) = σ pins false (§4.3.4).
                    model
                        .try_add_h(var, -weight * target.value())
                        .map_err(|_| QmasmError::CoefficientOverflow(name))?;
                }
                PinStyle::Fix => {
                    // Folding the variable's couplings into its
                    // neighbours' weights (and its weight into the offset)
                    // can overflow them.
                    model
                        .try_fix_variable(var, target)
                        .map_err(|_| QmasmError::CoefficientOverflow(name))?;
                }
            }
        }
        Ok(model)
    }

    /// Evaluates every assertion under a spin assignment. Returns
    /// `(expression text, holds?)` pairs.
    pub fn check_asserts(&self, spins: &[Spin]) -> Vec<(String, bool)> {
        self.asserts
            .iter()
            .map(|a| {
                let holds = a
                    .eval(&|name| self.symbols.value_of(name, spins).map(u64::from))
                    .map(|v| v != 0)
                    .unwrap_or(false);
                (a.text().to_string(), holds)
            })
            .collect()
    }
}

/// Maximum macro expansion depth.
const MAX_MACRO_DEPTH: usize = 64;

/// Assembles a parsed program into an [`Assembled`] model.
///
/// # Errors
/// [`QmasmError::UnknownMacro`] for undefined `!use_macro` targets,
/// [`QmasmError::ChainContradiction`] when `=`/`!=` chains conflict,
/// [`QmasmError::BadAssert`] for unparsable assertions, and
/// [`QmasmError::CoefficientOverflow`] when the coefficients on one term
/// (chain couplings included) add up to a non-finite value, or when the
/// default chain strength, twice the strongest coupling `a b`, does
/// (the term is then `chain strength 2 × |a b|`).
pub fn assemble(program: &Program, options: &AssembleOptions) -> Result<Assembled, QmasmError> {
    // --- Macro expansion to a flat statement list. ---
    let mut flat: Vec<Statement> = Vec::new();
    expand_into(program, &program.statements, "", &mut flat, 0)?;

    // --- Symbol interning. ---
    let mut symbols = SymbolTable::default();
    for stmt in &flat {
        match stmt {
            Statement::Weight { symbol, .. } => {
                symbols.intern(symbol);
            }
            Statement::Coupling { a, b, .. } => {
                symbols.intern(a);
                symbols.intern(b);
            }
            Statement::Equal(a, b) | Statement::NotEqual(a, b) => {
                symbols.intern(a);
                symbols.intern(b);
            }
            Statement::Pin { bits } => {
                for (name, _) in bits {
                    symbols.intern(name);
                }
            }
            Statement::UseMacro { .. } | Statement::Assert(_) => {}
        }
    }

    // --- Chain strength (qmasm default: 2 × max |J| in the code). ---
    let strongest = flat
        .iter()
        .filter_map(|s| match s {
            Statement::Coupling { a, b, value } => Some((a, b, value.abs())),
            _ => None,
        })
        .max_by(|x, y| x.2.total_cmp(&y.2));
    let max_j = strongest.map_or(0.0, |(_, _, j)| j);
    let chain_strength = options.chain_strength.unwrap_or((2.0 * max_j).max(1.0));

    // --- Chain handling. ---
    let mut deferred_chains: Vec<(usize, usize, i8)> = Vec::new();
    for stmt in &flat {
        let (a, b, rel) = match stmt {
            Statement::Equal(a, b) => (a, b, 1i8),
            Statement::NotEqual(a, b) => (a, b, -1i8),
            _ => continue,
        };
        let ia = symbols.intern(a);
        let ib = symbols.intern(b);
        if options.merge_chains {
            symbols
                .union(ia, ib, rel)
                .map_err(|_| QmasmError::ChainContradiction(a.clone(), b.clone()))?;
        } else {
            deferred_chains.push((ia, ib, rel));
        }
    }
    symbols.compact();

    // --- Build the Ising model. ---
    let mut ising = Ising::new(symbols.num_vars());
    for stmt in &flat {
        match stmt {
            Statement::Weight { symbol, value } => {
                let (var, parity) = symbols.resolve(symbol).expect("interned");
                ising
                    .try_add_h(var, value * f64::from(parity.sign()))
                    .map_err(|_| QmasmError::CoefficientOverflow(symbol.clone()))?;
            }
            Statement::Coupling { a, b, value } => {
                let (va, pa) = symbols.resolve(a).expect("interned");
                let (vb, pb) = symbols.resolve(b).expect("interned");
                let signed = value * f64::from(pa.sign()) * f64::from(pb.sign());
                // σσ = +1 (or −1 for opposite parity already folded in).
                let added = if va == vb {
                    ising.try_add_offset(signed)
                } else {
                    ising.try_add_j(va, vb, signed)
                };
                added.map_err(|_| QmasmError::CoefficientOverflow(format!("{a} {b}")))?;
            }
            _ => {}
        }
    }
    // The default strength doubles the strongest coupling, so it is
    // infinite when that coupling exceeds f64::MAX / 2. Every later use
    // (unmerged chains here, the run path's pin weight) would then blame
    // an innocent term, so name the strength and the coupling that set
    // it. A term whose own sum overflows was already reported above.
    if options.chain_strength.is_none() && !chain_strength.is_finite() {
        let (a, b, _) = strongest.expect("only a coupling raises the default above 1");
        return Err(QmasmError::CoefficientOverflow(format!(
            "chain strength 2 × |{a} {b}|"
        )));
    }
    // Unmerged chains become explicit couplings.
    let mut num_chain_couplings = 0usize;
    for (ia, ib, rel) in deferred_chains {
        let (va, pa) = {
            let name = symbols.names[ia].clone();
            symbols.resolve(&name).expect("interned")
        };
        let (vb, pb) = {
            let name = symbols.names[ib].clone();
            symbols.resolve(&name).expect("interned")
        };
        if va == vb {
            continue;
        }
        let sign = f64::from(rel) * f64::from(pa.sign()) * f64::from(pb.sign());
        ising
            .try_add_j(va, vb, -chain_strength * sign)
            .map_err(|_| {
                QmasmError::CoefficientOverflow(format!(
                    "{} {}",
                    symbols.names[ia], symbols.names[ib]
                ))
            })?;
        num_chain_couplings += 1;
    }

    // --- Pins and asserts. ---
    let mut pins = Vec::new();
    let mut asserts = Vec::new();
    for stmt in &flat {
        match stmt {
            Statement::Pin { bits } => pins.extend(bits.iter().cloned()),
            Statement::Assert(text) => asserts.push(AssertExpr::parse(text)?),
            _ => {}
        }
    }

    Ok(Assembled {
        ising,
        symbols,
        pins,
        asserts,
        chain_strength,
        num_chain_couplings,
    })
}

/// Expands `statements` (possibly a macro body) with `prefix` applied to
/// every symbol, recursing into `!use_macro`.
fn expand_into(
    program: &Program,
    statements: &[Statement],
    prefix: &str,
    out: &mut Vec<Statement>,
    depth: usize,
) -> Result<(), QmasmError> {
    if depth > MAX_MACRO_DEPTH {
        return Err(QmasmError::UnknownMacro("macro expansion too deep".into()));
    }
    let apply = |name: &str| -> String {
        if prefix.is_empty() {
            name.to_string()
        } else {
            format!("{prefix}.{name}")
        }
    };
    for stmt in statements {
        match stmt {
            Statement::Weight { symbol, value } => {
                out.push(Statement::Weight {
                    symbol: apply(symbol),
                    value: *value,
                });
            }
            Statement::Coupling { a, b, value } => {
                out.push(Statement::Coupling {
                    a: apply(a),
                    b: apply(b),
                    value: *value,
                });
            }
            Statement::Equal(a, b) => out.push(Statement::Equal(apply(a), apply(b))),
            Statement::NotEqual(a, b) => out.push(Statement::NotEqual(apply(a), apply(b))),
            Statement::Pin { bits } => out.push(Statement::Pin {
                bits: bits.iter().map(|(n, v)| (apply(n), *v)).collect(),
            }),
            Statement::Assert(text) => out.push(Statement::Assert(crate::assert::prefix_symbols(
                text, prefix,
            ))),
            Statement::UseMacro { name, instances } => {
                let body = program
                    .macros
                    .get(name)
                    .ok_or_else(|| QmasmError::UnknownMacro(name.clone()))?;
                for inst in instances {
                    let new_prefix = apply(inst);
                    expand_into(program, body, &new_prefix, out, depth + 1)?;
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::{parse, NoIncludes};
    use qac_pbf::bits_to_spins;

    fn assemble_src(src: &str) -> Assembled {
        let program = parse(src, &NoIncludes).unwrap();
        assemble(&program, &AssembleOptions::default()).unwrap()
    }

    #[test]
    fn weights_and_couplings_accumulate() {
        let a = assemble_src("A 1\nA 0.5\nA B -2\nB A -1\n");
        assert_eq!(a.ising.num_vars(), 2);
        let (va, _) = a.symbols.resolve("A").unwrap();
        let (vb, _) = a.symbols.resolve("B").unwrap();
        assert_eq!(a.ising.h(va), 1.5);
        assert_eq!(a.ising.j(va, vb), -3.0);
    }

    #[test]
    fn equal_chain_merges_variables() {
        let a = assemble_src("A 1\nB 2\nA = B\n");
        assert_eq!(a.ising.num_vars(), 1);
        let (va, pa) = a.symbols.resolve("A").unwrap();
        let (vb, pb) = a.symbols.resolve("B").unwrap();
        assert_eq!(va, vb);
        assert_eq!(pa, pb);
        assert_eq!(a.ising.h(va), 3.0);
    }

    #[test]
    fn not_equal_chain_flips_parity() {
        let a = assemble_src("A 1\nB 2\nA != B\n");
        assert_eq!(a.ising.num_vars(), 1);
        let (va, pa) = a.symbols.resolve("A").unwrap();
        let (_, pb) = a.symbols.resolve("B").unwrap();
        assert_ne!(pa, pb);
        // h = 1·σA + 2·σB = 1·σ − 2·σ = −σ  (for A-parity σ)
        let expected = if pa == Spin::Up { -1.0 } else { 1.0 };
        assert_eq!(a.ising.h(va), expected);
    }

    #[test]
    fn contradiction_detected() {
        let program = parse("A = B\nA != B\n", &NoIncludes).unwrap();
        assert!(matches!(
            assemble(&program, &AssembleOptions::default()),
            Err(QmasmError::ChainContradiction(..))
        ));
    }

    #[test]
    fn chain_through_intermediate() {
        let a = assemble_src("A = B\nB != C\nC 1\nA 1\n");
        assert_eq!(a.ising.num_vars(), 1);
        let (_, pa) = a.symbols.resolve("A").unwrap();
        let (_, pc) = a.symbols.resolve("C").unwrap();
        assert_ne!(pa, pc);
    }

    #[test]
    fn coupling_within_merged_chain_becomes_offset() {
        // A = B plus J_AB: σAσB = 1 always, so J becomes constant energy.
        let a = assemble_src("A = B\nA B -5\n");
        assert_eq!(a.ising.offset(), -5.0);
        assert_eq!(a.ising.num_couplings(), 0);
    }

    #[test]
    fn unmerged_chains_emit_couplings() {
        let program = parse("A 1\nB 1\nA = B\nA B -0.5\n", &NoIncludes).unwrap();
        let opts = AssembleOptions {
            merge_chains: false,
            ..Default::default()
        };
        let a = assemble(&program, &opts).unwrap();
        assert_eq!(a.ising.num_vars(), 2);
        let (va, _) = a.symbols.resolve("A").unwrap();
        let (vb, _) = a.symbols.resolve("B").unwrap();
        // Chain strength default = 2 × max|J| = 1.0 ⇒ J_chain = −1, plus
        // the explicit −0.5.
        assert_eq!(a.ising.j(va, vb), -1.5);
        assert_eq!(a.chain_strength, 1.0);
        assert_eq!(a.num_chain_couplings, 1);
    }

    #[test]
    fn chain_coupling_count_zero_when_merged() {
        let a = assemble_src("A 1\nB 1\nA = B\n");
        assert_eq!(a.num_chain_couplings, 0);
        // Self-chains never emit a coupling even unmerged.
        let program = parse("A 1\nA = A\n", &NoIncludes).unwrap();
        let opts = AssembleOptions {
            merge_chains: false,
            ..Default::default()
        };
        let a = assemble(&program, &opts).unwrap();
        assert_eq!(a.num_chain_couplings, 0);
    }

    #[test]
    fn macro_expansion_with_instances() {
        let src = r#"
!begin_macro NOT
A Y 1
!end_macro NOT
!use_macro NOT n1 n2
n1.Y = n2.A
"#;
        let a = assemble_src(src);
        // Symbols: n1.A, n1.Y, n2.A, n2.Y; chain merges n1.Y/n2.A.
        assert_eq!(a.symbols.num_symbols(), 4);
        assert_eq!(a.ising.num_vars(), 3);
    }

    #[test]
    fn and_macro_ground_states() {
        // The stdcell AND macro encodes Y = A ∧ B at minimum energy.
        let src = r#"
!begin_macro AND
A  -0.5
B  -0.5
Y   1
A B 0.5
A Y -1
B Y -1
!end_macro AND
!use_macro AND g
"#;
        let a = assemble_src(src);
        assert_eq!(a.ising.num_vars(), 3);
        let n = a.ising.num_vars();
        let mut best = f64::INFINITY;
        let mut ground = Vec::new();
        for idx in 0..(1u64 << n) {
            let spins = bits_to_spins(idx, n);
            let e = a.ising.energy(&spins);
            if e < best - 1e-9 {
                best = e;
                ground = vec![spins];
            } else if (e - best).abs() < 1e-9 {
                ground.push(spins);
            }
        }
        assert_eq!(ground.len(), 4);
        for g in ground {
            let y = a.symbols.value_of("g.Y", &g).unwrap();
            let av = a.symbols.value_of("g.A", &g).unwrap();
            let bv = a.symbols.value_of("g.B", &g).unwrap();
            assert_eq!(y, av && bv);
        }
    }

    #[test]
    fn pinned_model_bias_and_fix() {
        let a = assemble_src("A B -1\nA := true\n");
        let (va, _) = a.symbols.resolve("A").unwrap();
        let biased = a.pinned_model(&[], PinStyle::Bias(4.0)).unwrap();
        assert_eq!(biased.h(va), -4.0);
        let fixed = a.pinned_model(&[], PinStyle::Fix).unwrap();
        // After fixing A=+1, B gets field −1 (from J), A inert.
        let (vb, _) = a.symbols.resolve("B").unwrap();
        assert_eq!(fixed.h(vb), -1.0);
        assert_eq!(fixed.h(va), 0.0);
    }

    #[test]
    fn extra_pins_resolve() {
        let a = assemble_src("A B -1\n");
        let model = a
            .pinned_model(&[("B".to_string(), false)], PinStyle::Bias(2.0))
            .unwrap();
        let (vb, _) = a.symbols.resolve("B").unwrap();
        assert_eq!(model.h(vb), 2.0);
        assert!(matches!(
            a.pinned_model(&[("ghost".to_string(), true)], PinStyle::Fix),
            Err(QmasmError::UnknownSymbol(_))
        ));
    }

    #[test]
    fn resolved_pins_fold_chain_parity() {
        // B != A: pinning A true and B false demand the SAME spin of the
        // merged variable, so resolution must agree; pinning both true
        // must disagree.
        let a = assemble_src("A != B\nA C -1\nA := true\n");
        let consistent = a.resolved_pins(&[("B".to_string(), false)]).unwrap();
        assert_eq!(consistent.len(), 2);
        assert_eq!(consistent[0].0, consistent[1].0, "same merged variable");
        assert_eq!(consistent[0].1, consistent[1].1, "parity folded in");
        assert_eq!(consistent[0].2, "A");
        assert!(consistent[0].3);
        assert_eq!(consistent[1].2, "B");
        assert!(!consistent[1].3);

        let conflicting = a.resolved_pins(&[("B".to_string(), true)]).unwrap();
        assert_ne!(conflicting[0].1, conflicting[1].1);

        assert!(matches!(
            a.resolved_pins(&[("ghost".to_string(), true)]),
            Err(QmasmError::UnknownSymbol(_))
        ));
    }

    #[test]
    fn asserts_checked() {
        let src = "!begin_macro AND\nA -0.5\nB -0.5\nY 1\nA B 0.5\nA Y -1\nB Y -1\n!assert Y == A & B\n!end_macro AND\n!use_macro AND g\n";
        let a = assemble_src(src);
        assert_eq!(a.asserts.len(), 1);
        // A valid row satisfies the assert; an invalid one does not.
        let spins_for = |av: bool, bv: bool, yv: bool| {
            let n = a.ising.num_vars();
            let mut spins = vec![Spin::Down; n];
            let (va, pa) = a.symbols.resolve("g.A").unwrap();
            let (vb, pb) = a.symbols.resolve("g.B").unwrap();
            let (vy, py) = a.symbols.resolve("g.Y").unwrap();
            let set = |spins: &mut Vec<Spin>, var: usize, parity: Spin, val: bool| {
                spins[var] = if parity == Spin::Up {
                    Spin::from(val)
                } else {
                    Spin::from(!val)
                };
            };
            set(&mut spins, va, pa, av);
            set(&mut spins, vb, pb, bv);
            set(&mut spins, vy, py, yv);
            spins
        };
        let good = a.check_asserts(&spins_for(true, true, true));
        assert!(good[0].1);
        let bad = a.check_asserts(&spins_for(true, false, true));
        assert!(!bad[0].1);
    }
}
