//! Roof duality (QPBO) for quadratic pseudo-Boolean minimization.
//!
//! The paper's toolchain uses "SAPI's implementation of roof duality to
//! elide qubits whose final value can be determined a priori" (§4.4). This
//! module reimplements that optimization from scratch: the QUBO is written
//! as a *posiform* (all term coefficients positive over literals), the
//! posiform induces the Boros–Hammer implication network, and a maximum
//! flow on that network yields
//!
//! * a lower bound on the minimum energy (the *roof dual*), and
//! * *persistent* assignments: variables whose value is the same in some
//!   (weak persistency) minimizer, determined from residual reachability.
//!
//! Fixed variables can then be substituted out of the model with
//! [`Ising::try_fix_variable`], shrinking the qubit footprint.

use crate::flow::FlowNetwork;
use crate::{Ising, Spin};

/// Fixed-point scale for converting real coefficients to integer flow
/// capacities (2²⁰ ≈ 6 decimal digits of precision).
const SCALE: f64 = (1u64 << 20) as f64;

/// The outcome of a roof-duality analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct RoofDuality {
    /// Per-variable persistent assignment, `None` when undetermined.
    pub fixed: Vec<Option<Spin>>,
    /// A lower bound on the minimum energy of the model.
    pub lower_bound: f64,
}

impl RoofDuality {
    /// Number of variables the analysis managed to fix.
    pub fn num_fixed(&self) -> usize {
        self.fixed.iter().filter(|f| f.is_some()).count()
    }
}

/// Runs roof duality on `model` and reports persistencies plus the dual
/// lower bound.
///
/// Persistency is *weak*: for every variable reported as fixed there exists
/// at least one global minimizer agreeing with the fix (and all reported
/// fixes are simultaneously extendable to a minimizer).
///
/// ```
/// use qac_pbf::{roof::roof_duality, Ising, Spin};
///
/// // H = σ0 (pins variable 0 to −1) plus an equality chain to variable 1.
/// let mut m = Ising::new(2);
/// m.add_h(0, 1.0);
/// m.add_j(0, 1, -1.0);
/// let rd = roof_duality(&m);
/// assert_eq!(rd.fixed[0], Some(Spin::Down));
/// assert_eq!(rd.fixed[1], Some(Spin::Down));
/// assert!((rd.lower_bound - (-2.0)).abs() < 1e-3);
/// ```
pub fn roof_duality(model: &Ising) -> RoofDuality {
    let qubo = model.to_qubo();
    let n = qubo.num_vars();
    if n == 0 {
        return RoofDuality {
            fixed: Vec::new(),
            lower_bound: qubo.offset(),
        };
    }

    // --- Build the posiform. ---
    // Literal encoding: literal of variable i is 2i (positive) or 2i+1
    // (negated). Terms: (coefficient > 0, literals).
    let mut constant = qubo.offset();
    let mut linear: Vec<f64> = (0..n).map(|i| qubo.linear(i)).collect();
    // Quadratic posiform terms (c, lit_u, lit_v) with c > 0.
    let mut quad_terms: Vec<(f64, usize, usize)> = Vec::new();
    for ((i, j), c) in qubo.quadratic_iter() {
        if c == 0.0 {
            continue;
        }
        if c > 0.0 {
            quad_terms.push((c, 2 * i, 2 * j));
        } else {
            // c·x_i·x_j = c·x_i(1 − x̄_j) = c·x_i + (−c)·x_i·x̄_j
            linear[i] += c;
            quad_terms.push((-c, 2 * i, 2 * j + 1));
        }
    }
    // Linear posiform terms (c, lit) with c > 0.
    let mut lin_terms: Vec<(f64, usize)> = Vec::new();
    for (i, &c) in linear.iter().enumerate() {
        if c == 0.0 {
            continue;
        }
        if c > 0.0 {
            lin_terms.push((c, 2 * i));
        } else {
            // c·x_i = c(1 − x̄_i) = c + (−c)·x̄_i
            constant += c;
            lin_terms.push((-c, 2 * i + 1));
        }
    }

    // --- Build the implication network. ---
    // Nodes: 0..2n are literals; 2n = source (the constant-true literal),
    // 2n+1 = sink (constant false).
    let source = 2 * n;
    let sink = 2 * n + 1;
    let mut net = FlowNetwork::new(2 * n + 2);
    let negate = |lit: usize| lit ^ 1;
    let cap_of = |c: f64| -> i64 { (c * SCALE).round() as i64 };
    for &(c, u) in &lin_terms {
        // Term c·u: penalty when u = 1. Arcs s → ū and u → t, capacity c each
        // (uniformly doubled relative to the textbook c/2 to stay integral).
        let cap = cap_of(c);
        if cap > 0 {
            net.add_edge(source, negate(u), cap);
            net.add_edge(u, sink, cap);
        }
    }
    for &(c, u, v) in &quad_terms {
        // Term c·u·v: penalty when both true. Arcs u → v̄ and v → ū.
        let cap = cap_of(c);
        if cap > 0 {
            net.add_edge(u, negate(v), cap);
            net.add_edge(v, negate(u), cap);
        }
    }

    let flow = net.max_flow(source, sink);
    // Capacities were doubled, so the dual improvement is flow / 2.
    let lower_bound = constant + (flow as f64) / (2.0 * SCALE);

    // --- Persistency from residual reachability. ---
    let from_source = net.min_cut_side(source);
    let to_sink = net.reaches_sink(sink);
    let mut fixed: Vec<Option<Spin>> = vec![None; n];
    for (i, slot) in fixed.iter_mut().enumerate() {
        let pos = 2 * i;
        let neg = 2 * i + 1;
        // Literal reachable from the true-source in the residual graph must
        // be true; literal that can still reach the false-sink must be false.
        let mut vote_true = false; // x_i = 1
        let mut vote_false = false; // x_i = 0
        if from_source[pos] {
            vote_true = true;
        }
        if from_source[neg] {
            vote_false = true;
        }
        if to_sink[pos] {
            vote_false = true;
        }
        if to_sink[neg] {
            vote_true = true;
        }
        *slot = match (vote_true, vote_false) {
            (true, false) => Some(Spin::Up),
            (false, true) => Some(Spin::Down),
            _ => None,
        };
    }

    RoofDuality { fixed, lower_bound }
}

/// Runs roof duality and substitutes every fixed variable out of `model`
/// in place. Returns the `(variable, value)` pairs that were fixed. A
/// variable whose substitution would overflow a coefficient is left in
/// the model: eliding fewer variables is always sound.
///
/// After this call the fixed variables are inert (zero coefficients); their
/// contribution has been folded into the offset and neighbor fields, so the
/// ground-state energy and the restriction of every ground state to the
/// remaining variables are unchanged.
pub fn apply_roof_duality(model: &mut Ising) -> Vec<(usize, Spin)> {
    let rd = roof_duality(model);
    let mut fixed = Vec::new();
    for (i, f) in rd.fixed.iter().enumerate() {
        if let Some(spin) = f {
            if model.try_fix_variable(i, *spin).is_ok() {
                fixed.push((i, *spin));
            }
        }
    }
    // `try_fix_variable` folds J terms into neighbor fields, but couplings
    // that had accumulated to exactly 0.0 (e.g. `add_j` cancellation)
    // stay behind as stored zero entries — dangling edges that inflate
    // `num_couplings`/`adjacency` degrees after the substitution.
    model.prune(0.0);
    fixed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits_to_spins;

    /// Exact minimum by enumeration (for n ≤ 20).
    fn brute_minima(model: &Ising) -> (f64, Vec<Vec<Spin>>) {
        let n = model.num_vars();
        let mut best = f64::INFINITY;
        let mut minima = Vec::new();
        for idx in 0..(1u64 << n) {
            let spins = bits_to_spins(idx, n);
            let e = model.energy(&spins);
            if e < best - 1e-9 {
                best = e;
                minima = vec![spins];
            } else if (e - best).abs() <= 1e-9 {
                minima.push(spins);
            }
        }
        (best, minima)
    }

    #[test]
    fn pinned_variable_is_fixed() {
        let mut m = Ising::new(1);
        m.add_h(0, -1.0); // minimized at σ = +1
        let rd = roof_duality(&m);
        assert_eq!(rd.fixed[0], Some(Spin::Up));
        assert!((rd.lower_bound - (-1.0)).abs() < 1e-3);
    }

    #[test]
    fn frustration_free_chain_fully_fixed() {
        // σ0 pinned up, ferromagnetic chain propagates to all.
        let mut m = Ising::new(4);
        m.add_h(0, -1.0);
        for i in 0..3 {
            m.add_j(i, i + 1, -1.0);
        }
        let rd = roof_duality(&m);
        for i in 0..4 {
            assert_eq!(rd.fixed[i], Some(Spin::Up), "var {i}");
        }
    }

    #[test]
    fn symmetric_coupler_stays_unknown() {
        // Pure −σ0σ1 has two symmetric minima; nothing is persistent.
        let mut m = Ising::new(2);
        m.add_j(0, 1, -1.0);
        let rd = roof_duality(&m);
        assert_eq!(rd.fixed, vec![None, None]);
        // Dual bound cannot exceed the true minimum of −1.
        assert!(rd.lower_bound <= -1.0 + 1e-3);
    }

    #[test]
    fn lower_bound_never_exceeds_minimum() {
        let cases: Vec<Ising> = {
            let mut v = Vec::new();
            let mut m = Ising::new(3);
            m.add_h(0, 0.5);
            m.add_h(1, -0.25);
            m.add_j(0, 1, 0.75);
            m.add_j(1, 2, -0.5);
            v.push(m);
            let mut m = Ising::new(4);
            m.add_j(0, 1, 1.0);
            m.add_j(1, 2, 1.0);
            m.add_j(2, 3, 1.0);
            m.add_j(0, 3, 1.0); // frustrated cycle
            v.push(m);
            v
        };
        for m in cases {
            let (min, _) = brute_minima(&m);
            let rd = roof_duality(&m);
            assert!(
                rd.lower_bound <= min + 1e-3,
                "bound {} exceeds min {min}",
                rd.lower_bound
            );
        }
    }

    #[test]
    fn persistency_consistent_with_some_optimum_random() {
        // Deterministic xorshift RNG.
        let mut state = 0x2545f4914f6cdd1du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for case in 0..200 {
            let n = 2 + (next() % 6) as usize; // 2..=7 variables
            let mut m = Ising::new(n);
            for i in 0..n {
                if next() % 2 == 0 {
                    let v = ((next() % 9) as f64 - 4.0) / 2.0;
                    m.add_h(i, v);
                }
            }
            for i in 0..n {
                for j in (i + 1)..n {
                    if next() % 3 == 0 {
                        let v = ((next() % 9) as f64 - 4.0) / 2.0;
                        if v != 0.0 {
                            m.add_j(i, j, v);
                        }
                    }
                }
            }
            let (_, minima) = brute_minima(&m);
            let rd = roof_duality(&m);
            // There must exist a global optimum consistent with every fix.
            let consistent = minima.iter().any(|assign| {
                rd.fixed
                    .iter()
                    .enumerate()
                    .all(|(i, f)| f.is_none_or(|s| assign[i] == s))
            });
            assert!(
                consistent,
                "case {case}: fixes {:?} not in any optimum",
                rd.fixed
            );
        }
    }

    #[test]
    fn apply_preserves_ground_energy() {
        let mut m = Ising::new(3);
        m.add_h(0, 1.5);
        m.add_j(0, 1, -1.0);
        m.add_j(1, 2, 0.5);
        let (min_before, _) = brute_minima(&m);
        let mut reduced = m.clone();
        let fixed = apply_roof_duality(&mut reduced);
        let (min_after, _) = brute_minima(&reduced);
        assert!((min_before - min_after).abs() < 1e-9);
        assert!(!fixed.is_empty(), "pinned model should fix something");
    }

    #[test]
    fn apply_prunes_dangling_zero_couplings() {
        // A coupling accumulated to exactly zero is a stored entry that
        // `fix_variable` never touches; after substitution it must not
        // survive as a dangling edge. Regression: variable count,
        // coupling count, and every degree shrink monotonically.
        let mut m = Ising::new(4);
        m.add_h(0, 2.0); // pins var 0 down, chain drags var 1 along
        m.add_j(0, 1, -1.0);
        m.add_j(1, 2, 0.5);
        m.add_j(2, 3, 0.75);
        m.add_j(2, 3, -0.75); // cancels to a stored zero entry
        assert_eq!(m.num_couplings(), 3);
        let before_active = m.active_variables().len();
        let before_couplings = m.num_couplings();
        let before_deg: Vec<usize> = m.adjacency().iter().map(Vec::len).collect();

        let fixed = apply_roof_duality(&mut m);
        assert!(!fixed.is_empty());

        let after_active = m.active_variables().len();
        let after_deg: Vec<usize> = m.adjacency().iter().map(Vec::len).collect();
        assert!(after_active < before_active);
        assert!(m.num_couplings() < before_couplings);
        for (v, (&b, &a)) in before_deg.iter().zip(&after_deg).enumerate() {
            assert!(a <= b, "degree of {v} grew: {b} -> {a}");
        }
        // No stored entry may be exactly zero afterwards.
        assert!(m.j_iter().all(|t| t.value != 0.0));
        // And the fixed variables are fully inert.
        for (v, _) in fixed {
            assert_eq!(m.h(v), 0.0);
            assert!(m.j_iter().all(|t| t.i != v && t.j != v));
        }
    }

    #[test]
    fn empty_model() {
        let m = Ising::new(0);
        let rd = roof_duality(&m);
        assert!(rd.fixed.is_empty());
        assert_eq!(rd.num_fixed(), 0);
    }
}
