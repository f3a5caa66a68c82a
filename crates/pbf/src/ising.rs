use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{PbfError, Qubo, Spin};

/// One quadratic coupling term `J_{i,j} σᵢ σⱼ` with `i < j`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JTerm {
    /// First variable (always the smaller index).
    pub i: usize,
    /// Second variable (always the larger index).
    pub j: usize,
    /// Coupling strength.
    pub value: f64,
}

/// An Ising-model Hamiltonian `H(σ̄) = Σ hᵢσᵢ + Σ_{i<j} Jᵢⱼσᵢσⱼ + offset`
/// over spins σ ∈ {−1, +1} (paper Equation 2).
///
/// This is the logical object a quantum annealer minimizes. Programs for the
/// annealer are "nothing more than a set of hᵢ and Jᵢⱼ coefficients" (§2);
/// this type is that program.
///
/// Couplings are stored sparsely and keyed on ordered pairs, so
/// `add_j(4, 2, w)` and `add_j(2, 4, w)` accumulate onto the same term.
///
/// ```
/// use qac_pbf::{bits_to_spins, Ising};
///
/// // H = 2σ_Y − σ_A − σ_B − 2σ_Yσ_A − 2σ_Yσ_B + σ_Aσ_B  (an AND gate, Table 2)
/// let mut h = Ising::new(3); // order: Y, A, B
/// h.add_h(0, 2.0);
/// h.add_h(1, -1.0);
/// h.add_h(2, -1.0);
/// h.add_j(0, 1, -2.0);
/// h.add_j(0, 2, -2.0);
/// h.add_j(1, 2, 1.0);
/// // Ground states are exactly the rows of the AND truth table.
/// let energies: Vec<f64> = (0..8).map(|i| h.energy(&bits_to_spins(i, 3))).collect();
/// let min = energies.iter().cloned().fold(f64::INFINITY, f64::min);
/// let ground: Vec<usize> =
///     (0..8).filter(|&i| (energies[i] - min).abs() < 1e-9).collect();
/// // bit 0 = Y, bit 1 = A, bit 2 = B: valid rows are Y = A AND B.
/// assert_eq!(ground, vec![0b000, 0b010, 0b100, 0b111]);
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Ising {
    num_vars: usize,
    h: Vec<f64>,
    j: BTreeMap<(usize, usize), f64>,
    offset: f64,
}

impl Ising {
    /// Creates an all-zero Hamiltonian over `num_vars` spins.
    pub fn new(num_vars: usize) -> Ising {
        Ising {
            num_vars,
            h: vec![0.0; num_vars],
            j: BTreeMap::new(),
            offset: 0.0,
        }
    }

    /// Number of spin variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Grows the model to at least `num_vars` variables (no-op if smaller).
    pub fn resize(&mut self, num_vars: usize) {
        if num_vars > self.num_vars {
            self.h.resize(num_vars, 0.0);
            self.num_vars = num_vars;
        }
    }

    /// The constant energy offset.
    pub fn offset(&self) -> f64 {
        self.offset
    }

    /// Adds `delta` to the constant offset.
    pub fn add_offset(&mut self, delta: f64) {
        self.offset += delta;
    }

    /// Fallible version of [`Ising::add_offset`].
    ///
    /// # Errors
    /// [`PbfError::NonFiniteCoefficient`] for a NaN/infinite delta or a
    /// sum that overflows; the offset is left unchanged.
    pub fn try_add_offset(&mut self, delta: f64) -> Result<(), PbfError> {
        self.offset = finite_sum(self.offset, delta)?;
        Ok(())
    }

    /// The linear coefficient `hᵢ`.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn h(&self, i: usize) -> f64 {
        self.h[i]
    }

    /// The quadratic coefficient `Jᵢⱼ` (0.0 if absent).
    pub fn j(&self, i: usize, j: usize) -> f64 {
        let key = if i < j { (i, j) } else { (j, i) };
        self.j.get(&key).copied().unwrap_or(0.0)
    }

    /// Accumulates `delta` onto the linear coefficient `hᵢ`.
    ///
    /// # Panics
    /// Panics if `i` is out of range or the new coefficient is not
    /// finite. Use [`Ising::try_add_h`] for a fallible variant.
    pub fn add_h(&mut self, i: usize, delta: f64) {
        self.try_add_h(i, delta).expect("valid linear term");
    }

    /// Fallible version of [`Ising::add_h`].
    ///
    /// # Errors
    /// Returns [`PbfError::VariableOutOfRange`] if `i ≥ num_vars` and
    /// [`PbfError::NonFiniteCoefficient`] for a NaN/infinite delta or a
    /// sum that overflows; the model is left unchanged.
    pub fn try_add_h(&mut self, i: usize, delta: f64) -> Result<(), PbfError> {
        if i >= self.num_vars {
            return Err(PbfError::VariableOutOfRange {
                index: i,
                num_vars: self.num_vars,
            });
        }
        self.h[i] = finite_sum(self.h[i], delta)?;
        Ok(())
    }

    /// Accumulates `delta` onto the coupling `Jᵢⱼ`, normalizing index order.
    ///
    /// # Panics
    /// Panics if either index is out of range, `i == j`, or the new
    /// coefficient is not finite. Use [`Ising::try_add_j`] for a
    /// fallible variant.
    pub fn add_j(&mut self, i: usize, j: usize, delta: f64) {
        self.try_add_j(i, j, delta).expect("valid coupling");
    }

    /// Fallible version of [`Ising::add_j`].
    ///
    /// # Errors
    /// Returns [`PbfError::SelfCoupling`] when `i == j`,
    /// [`PbfError::VariableOutOfRange`] for indices past the end, and
    /// [`PbfError::NonFiniteCoefficient`] for a NaN/infinite delta or a
    /// sum that overflows; the model is left unchanged.
    pub fn try_add_j(&mut self, i: usize, j: usize, delta: f64) -> Result<(), PbfError> {
        if i == j {
            return Err(PbfError::SelfCoupling(i));
        }
        let (a, b) = if i < j { (i, j) } else { (j, i) };
        if b >= self.num_vars {
            return Err(PbfError::VariableOutOfRange {
                index: b,
                num_vars: self.num_vars,
            });
        }
        if !delta.is_finite() {
            return Err(PbfError::NonFiniteCoefficient(delta));
        }
        // A new entry starts at 0.0 + delta, which is finite, so a failed
        // sum never leaves an inserted entry behind.
        let value = self.j.entry((a, b)).or_insert(0.0);
        *value = finite_sum(*value, delta)?;
        Ok(())
    }

    /// Iterates over the nonzero-keyed linear coefficients `(i, hᵢ)`.
    pub fn h_iter(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.h.iter().copied().enumerate()
    }

    /// Iterates over the stored quadratic terms.
    pub fn j_iter(&self) -> impl Iterator<Item = JTerm> + '_ {
        self.j.iter().map(|(&(i, j), &value)| JTerm { i, j, value })
    }

    /// Number of stored coupling entries (including explicit zeros).
    pub fn num_couplings(&self) -> usize {
        self.j.len()
    }

    /// Number of terms with magnitude above `eps` (linear + quadratic),
    /// the "size" metric of §6.1.
    pub fn num_terms(&self, eps: f64) -> usize {
        self.h.iter().filter(|v| v.abs() > eps).count()
            + self.j.values().filter(|v| v.abs() > eps).count()
    }

    /// Removes stored couplings with magnitude at most `eps`.
    pub fn prune(&mut self, eps: f64) {
        self.j.retain(|_, v| v.abs() > eps);
    }

    /// Evaluates `H(σ̄)` for the given assignment.
    ///
    /// # Panics
    /// Panics if `spins.len() != num_vars`. Use [`Ising::try_energy`] for a
    /// fallible variant.
    pub fn energy(&self, spins: &[Spin]) -> f64 {
        self.try_energy(spins)
            .expect("assignment length matches model")
    }

    /// Fallible version of [`Ising::energy`].
    ///
    /// # Errors
    /// Returns [`PbfError::AssignmentLength`] on a length mismatch.
    pub fn try_energy(&self, spins: &[Spin]) -> Result<f64, PbfError> {
        if spins.len() != self.num_vars {
            return Err(PbfError::AssignmentLength {
                got: spins.len(),
                expected: self.num_vars,
            });
        }
        let mut e = self.offset;
        for (i, &hi) in self.h.iter().enumerate() {
            e += hi * spins[i].value();
        }
        for (&(i, j), &jij) in &self.j {
            e += jij * spins[i].value() * spins[j].value();
        }
        Ok(e)
    }

    /// The energy change from flipping spin `i` in `spins`.
    ///
    /// Computing `ΔE` locally is O(degree) instead of O(model), which
    /// samplers rely on.
    pub fn flip_delta(&self, spins: &[Spin], i: usize, neighbors: &[(usize, f64)]) -> f64 {
        let si = spins[i].value();
        let mut field = self.h[i];
        for &(other, jij) in neighbors {
            field += jij * spins[other].value();
        }
        -2.0 * si * field
    }

    /// Builds an adjacency list: for each variable, its coupled partners and
    /// coupling strengths. Samplers precompute this once.
    pub fn adjacency(&self) -> Vec<Vec<(usize, f64)>> {
        let mut adj = vec![Vec::new(); self.num_vars];
        for (&(i, j), &v) in &self.j {
            if v != 0.0 {
                adj[i].push((j, v));
                adj[j].push((i, v));
            }
        }
        adj
    }

    /// Builds the same adjacency as [`Ising::adjacency`] in
    /// compressed-sparse-row form: one flat `(partner, J)` array plus
    /// per-variable offsets, so a sampler's inner sweep walks a single
    /// allocation instead of `num_vars` separate heap rows. Per-row entry
    /// order matches `adjacency()` exactly (couplings in `BTreeMap`
    /// order), so [`Ising::flip_delta_csr`] accumulates the local field
    /// in the identical order and returns bit-identical deltas.
    ///
    /// # Panics
    /// Panics if the model has `u32::MAX` or more variables.
    pub fn csr_adjacency(&self) -> CsrAdjacency {
        assert!(
            self.num_vars < u32::MAX as usize,
            "model too large for a u32 CSR"
        );
        let mut degree = vec![0u32; self.num_vars];
        for (&(i, j), &v) in &self.j {
            if v != 0.0 {
                degree[i] += 1;
                degree[j] += 1;
            }
        }
        let mut offsets = Vec::with_capacity(self.num_vars + 1);
        let mut total = 0u32;
        offsets.push(0u32);
        for &d in &degree {
            total += d;
            offsets.push(total);
        }
        let mut cursor: Vec<u32> = offsets[..self.num_vars].to_vec();
        let mut entries = vec![(0u32, 0.0f64); total as usize];
        for (&(i, j), &v) in &self.j {
            if v != 0.0 {
                entries[cursor[i] as usize] = (j as u32, v);
                cursor[i] += 1;
                entries[cursor[j] as usize] = (i as u32, v);
                cursor[j] += 1;
            }
        }
        CsrAdjacency { offsets, entries }
    }

    /// [`Ising::flip_delta`] over a [`CsrAdjacency`] row. The field is
    /// accumulated in the same entry order as the `Vec`-of-rows variant,
    /// so the result is bit-identical.
    pub fn flip_delta_csr(&self, spins: &[Spin], i: usize, neighbors: &[(u32, f64)]) -> f64 {
        let si = spins[i].value();
        let mut field = self.h[i];
        for &(other, jij) in neighbors {
            field += jij * spins[other as usize].value();
        }
        -2.0 * si * field
    }

    /// Largest absolute linear coefficient.
    pub fn max_abs_h(&self) -> f64 {
        self.h.iter().fold(0.0_f64, |m, v| m.max(v.abs()))
    }

    /// Largest absolute quadratic coefficient.
    pub fn max_abs_j(&self) -> f64 {
        self.j.values().fold(0.0_f64, |m, v| m.max(v.abs()))
    }

    /// Converts to the equivalent QUBO via σ = 2x − 1.
    ///
    /// Energies are preserved exactly: for every assignment,
    /// `ising.energy(spins) == qubo.energy(bits)` where `bits[i] = spins[i].to_bool()`.
    pub fn to_qubo(&self) -> Qubo {
        let mut q = Qubo::new(self.num_vars);
        let mut offset = self.offset;
        for (i, &hi) in self.h.iter().enumerate() {
            // hσ = h(2x−1) = 2hx − h
            q.add_linear(i, 2.0 * hi);
            offset -= hi;
        }
        for (&(i, j), &jij) in &self.j {
            // Jσσ' = J(2x−1)(2x'−1) = 4Jxx' − 2Jx − 2Jx' + J
            q.add_quadratic(i, j, 4.0 * jij);
            q.add_linear(i, -2.0 * jij);
            q.add_linear(j, -2.0 * jij);
            offset += jij;
        }
        q.add_offset(offset);
        q
    }

    /// Merges variable `b` into variable `a` with the given relative
    /// `parity`: `Spin::Up` means σ_b = σ_a, `Spin::Down` means σ_b = −σ_a.
    ///
    /// All of `b`'s coefficients are folded onto `a` and `b`'s own entries
    /// are zeroed (the variable index remains allocated; callers typically
    /// compact afterwards). A pre-existing coupling between `a` and `b`
    /// becomes a constant (`J·parity`) added to the offset.
    ///
    /// This implements QMASM's `A = B` chain-merging optimization (§4.4).
    ///
    /// # Panics
    /// Panics if `a == b` or either index is out of range.
    pub fn merge_variable(&mut self, a: usize, b: usize, parity: Spin) {
        assert!(a != b, "cannot merge a variable into itself");
        assert!(
            a < self.num_vars && b < self.num_vars,
            "merge indices in range"
        );
        let p = parity.value();
        // Linear: h_b σ_b = h_b p σ_a
        let hb = std::mem::replace(&mut self.h[b], 0.0);
        self.h[a] += p * hb;
        // Quadratic terms touching b.
        let touching: Vec<(usize, usize)> = self
            .j
            .keys()
            .copied()
            .filter(|&(i, j)| i == b || j == b)
            .collect();
        for key in touching {
            let v = self.j.remove(&key).unwrap();
            let other = if key.0 == b { key.1 } else { key.0 };
            if other == a {
                // J σ_a σ_b = J p σ_a² = J p
                self.offset += v * p;
            } else {
                let (x, y) = if a < other { (a, other) } else { (other, a) };
                *self.j.entry((x, y)).or_insert(0.0) += v * p;
            }
        }
    }

    /// Fixes variable `i` to `value`, folding its terms into offsets and
    /// linear coefficients of its neighbors, and zeroing its own entries.
    ///
    /// # Panics
    /// Panics if `i` is out of range or a folded coefficient is not
    /// finite. Use [`Ising::try_fix_variable`] for a fallible variant.
    pub fn fix_variable(&mut self, i: usize, value: Spin) {
        self.try_fix_variable(i, value)
            .expect("fixing leaves every coefficient finite");
    }

    /// Fallible version of [`Ising::fix_variable`], used by roof-duality
    /// elision, pin handling and the static analyzer.
    ///
    /// # Errors
    /// Returns [`PbfError::VariableOutOfRange`] if `i ≥ num_vars` and
    /// [`PbfError::NonFiniteCoefficient`] when folding a term overflows
    /// the offset or a neighbor's weight; the model is left unchanged.
    pub fn try_fix_variable(&mut self, i: usize, value: Spin) -> Result<(), PbfError> {
        if i >= self.num_vars {
            return Err(PbfError::VariableOutOfRange {
                index: i,
                num_vars: self.num_vars,
            });
        }
        let s = value.value();
        // Every fold is computed before any is stored, so a failure
        // leaves the model as it was. Each neighbor has one coupling
        // with i, so it receives exactly one fold.
        let offset = finite_sum(self.offset, self.h[i] * s)?;
        let folds = self
            .j
            .iter()
            .filter(|(&(a, b), _)| a == i || b == i)
            .map(|(&(a, b), &v)| {
                let other = if a == i { b } else { a };
                Ok(((a, b), other, finite_sum(self.h[other], v * s)?))
            })
            .collect::<Result<Vec<_>, PbfError>>()?;
        self.offset = offset;
        self.h[i] = 0.0;
        for (key, other, h) in folds {
            self.j.remove(&key);
            self.h[other] = h;
        }
        Ok(())
    }

    /// Returns the variables that have any nonzero coefficient.
    pub fn active_variables(&self) -> Vec<usize> {
        let mut active = vec![false; self.num_vars];
        for (i, &h) in self.h.iter().enumerate() {
            if h != 0.0 {
                active[i] = true;
            }
        }
        for (&(i, j), &v) in &self.j {
            if v != 0.0 {
                active[i] = true;
                active[j] = true;
            }
        }
        active
            .iter()
            .enumerate()
            .filter_map(|(i, &a)| if a { Some(i) } else { None })
            .collect()
    }
}

/// `value + delta`, or [`PbfError::NonFiniteCoefficient`] when that sum
/// is NaN or infinite (a non-finite delta, or two finite values whose
/// sum overflows).
fn finite_sum(value: f64, delta: f64) -> Result<f64, PbfError> {
    let sum = value + delta;
    if sum.is_finite() {
        Ok(sum)
    } else {
        Err(PbfError::NonFiniteCoefficient(sum))
    }
}

/// A compressed-sparse-row copy of [`Ising::adjacency`]: every
/// variable's `(partner, J)` entries concatenated in variable order, with
/// `offsets[i]..offsets[i + 1]` bounding variable i's row. Built once per
/// sample call and shared (read-only) by every read and thread.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrAdjacency {
    offsets: Vec<u32>,
    entries: Vec<(u32, f64)>,
}

impl CsrAdjacency {
    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Variable i's `(partner, J)` row, in the same order
    /// [`Ising::adjacency`] reports it.
    #[inline]
    pub fn neighbors(&self, i: usize) -> &[(u32, f64)] {
        &self.entries[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }
}

impl fmt::Display for Ising {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "# Ising model: {} variables, {} couplings",
            self.num_vars,
            self.j.len()
        )?;
        if self.offset != 0.0 {
            writeln!(f, "offset {}", self.offset)?;
        }
        for (i, &h) in self.h.iter().enumerate() {
            if h != 0.0 {
                writeln!(f, "{i} {h}")?;
            }
        }
        for (&(i, j), &v) in &self.j {
            if v != 0.0 {
                writeln!(f, "{i} {j} {v}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits_to_spins;

    #[test]
    fn empty_model_energy_is_offset() {
        let mut m = Ising::new(0);
        m.add_offset(2.5);
        assert_eq!(m.energy(&[]), 2.5);
    }

    #[test]
    fn table1_net_ground_states() {
        // Paper Table 1: H = −σ_Aσ_Y minimized exactly when σ_A == σ_Y.
        let mut m = Ising::new(2);
        m.add_j(0, 1, -1.0);
        assert_eq!(m.energy(&[Spin::Down, Spin::Down]), -1.0);
        assert_eq!(m.energy(&[Spin::Down, Spin::Up]), 1.0);
        assert_eq!(m.energy(&[Spin::Up, Spin::Down]), 1.0);
        assert_eq!(m.energy(&[Spin::Up, Spin::Up]), -1.0);
    }

    #[test]
    fn coupling_order_is_normalized() {
        let mut m = Ising::new(3);
        m.add_j(2, 0, 1.5);
        m.add_j(0, 2, 0.5);
        assert_eq!(m.j(0, 2), 2.0);
        assert_eq!(m.j(2, 0), 2.0);
        assert_eq!(m.num_couplings(), 1);
    }

    #[test]
    fn out_of_range_rejected() {
        let mut m = Ising::new(2);
        assert!(matches!(
            m.try_add_h(2, 1.0),
            Err(PbfError::VariableOutOfRange { .. })
        ));
        assert!(matches!(
            m.try_add_j(0, 2, 1.0),
            Err(PbfError::VariableOutOfRange { .. })
        ));
        assert!(matches!(
            m.try_add_j(1, 1, 1.0),
            Err(PbfError::SelfCoupling(1))
        ));
        assert!(matches!(
            m.try_add_h(0, f64::NAN),
            Err(PbfError::NonFiniteCoefficient(_))
        ));
    }

    #[test]
    fn overflowing_sums_are_rejected_and_leave_the_model_unchanged() {
        let mut m = Ising::new(2);
        m.add_h(0, f64::MAX);
        m.add_j(0, 1, -f64::MAX);
        m.add_offset(f64::MAX);
        assert_eq!(
            m.try_add_h(0, f64::MAX),
            Err(PbfError::NonFiniteCoefficient(f64::INFINITY))
        );
        assert_eq!(
            m.try_add_j(1, 0, -f64::MAX),
            Err(PbfError::NonFiniteCoefficient(f64::NEG_INFINITY))
        );
        assert_eq!(
            m.try_add_offset(f64::MAX),
            Err(PbfError::NonFiniteCoefficient(f64::INFINITY))
        );
        assert_eq!(
            (m.h(0), m.j(0, 1), m.offset()),
            (f64::MAX, -f64::MAX, f64::MAX)
        );
        // A rejected delta on a new pair stores nothing.
        let mut fresh = Ising::new(2);
        assert!(fresh.try_add_j(0, 1, f64::NAN).is_err());
        assert_eq!(fresh.num_couplings(), 0);
    }

    #[test]
    fn energy_length_mismatch() {
        let m = Ising::new(3);
        assert!(matches!(
            m.try_energy(&[Spin::Up]),
            Err(PbfError::AssignmentLength {
                got: 1,
                expected: 3
            })
        ));
    }

    #[test]
    fn csr_adjacency_rows_match_vec_adjacency_in_order() {
        let mut m = Ising::new(6);
        m.add_j(0, 3, -1.25);
        m.add_j(0, 1, 0.5);
        m.add_j(3, 1, 2.0);
        m.add_j(2, 4, 1.0);
        m.add_j(4, 5, 0.0); // zero couplings are dropped from both forms
        let adj = m.adjacency();
        let csr = m.csr_adjacency();
        assert_eq!(csr.num_vars(), m.num_vars());
        for (i, expected) in adj.iter().enumerate() {
            let row: Vec<(usize, f64)> = csr
                .neighbors(i)
                .iter()
                .map(|&(p, j)| (p as usize, j))
                .collect();
            assert_eq!(&row, expected, "row {i} must match order and values");
        }
        // And flip deltas over either representation are bit-identical.
        for idx in 0..64 {
            let spins = bits_to_spins(idx, 6);
            for (i, row) in adj.iter().enumerate() {
                assert_eq!(
                    m.flip_delta(&spins, i, row).to_bits(),
                    m.flip_delta_csr(&spins, i, csr.neighbors(i)).to_bits(),
                    "i={i} idx={idx}"
                );
            }
        }
    }

    #[test]
    fn flip_delta_matches_recomputation() {
        let mut m = Ising::new(4);
        m.add_h(0, 0.5);
        m.add_h(3, -1.5);
        m.add_j(0, 1, -1.0);
        m.add_j(1, 2, 2.0);
        m.add_j(0, 3, 0.75);
        let adj = m.adjacency();
        for idx in 0..16 {
            let spins = bits_to_spins(idx, 4);
            for i in 0..4 {
                let mut flipped = spins.clone();
                flipped[i] = flipped[i].flipped();
                let expected = m.energy(&flipped) - m.energy(&spins);
                let got = m.flip_delta(&spins, i, &adj[i]);
                assert!((expected - got).abs() < 1e-12, "i={i} idx={idx}");
            }
        }
    }

    #[test]
    fn merge_equal_preserves_restricted_energies() {
        // Model over (a, b, c); merge b into a with equality.
        let mut m = Ising::new(3);
        m.add_h(0, 0.3);
        m.add_h(1, -0.7);
        m.add_h(2, 1.1);
        m.add_j(0, 1, -2.0);
        m.add_j(1, 2, 0.5);
        m.add_j(0, 2, -0.25);
        let orig = m.clone();
        m.merge_variable(0, 1, Spin::Up);
        for bits in 0..4u64 {
            let a = Spin::from(bits & 1 == 1);
            let c = Spin::from(bits & 2 == 2);
            let merged = m.energy(&[a, a, c]);
            let original = orig.energy(&[a, a, c]);
            assert!((merged - original).abs() < 1e-12);
        }
    }

    #[test]
    fn merge_opposite_preserves_restricted_energies() {
        let mut m = Ising::new(3);
        m.add_h(0, 0.3);
        m.add_h(1, -0.7);
        m.add_j(0, 1, 1.0);
        m.add_j(1, 2, 0.5);
        let orig = m.clone();
        m.merge_variable(0, 1, Spin::Down);
        for bits in 0..4u64 {
            let a = Spin::from(bits & 1 == 1);
            let c = Spin::from(bits & 2 == 2);
            let merged = m.energy(&[a, -a, c]);
            let original = orig.energy(&[a, -a, c]);
            assert!((merged - original).abs() < 1e-12);
        }
    }

    #[test]
    fn fix_variable_preserves_restricted_energies() {
        let mut m = Ising::new(3);
        m.add_h(0, 0.4);
        m.add_h(1, -0.9);
        m.add_j(0, 1, -1.5);
        m.add_j(1, 2, 0.5);
        let orig = m.clone();
        m.fix_variable(1, Spin::Up);
        for bits in 0..4u64 {
            let a = Spin::from(bits & 1 == 1);
            let c = Spin::from(bits & 2 == 2);
            let fixed = m.energy(&[a, Spin::Down, c]); // var 1 now inert
            let original = orig.energy(&[a, Spin::Up, c]);
            assert!((fixed - original).abs() < 1e-12);
        }
    }

    #[test]
    fn try_fix_variable_rejects_an_overflowing_fold_and_leaves_the_model() {
        let mut m = Ising::new(3);
        m.add_h(0, 1e308);
        m.add_h(2, 0.5);
        m.add_j(0, 1, 1e308);
        m.add_j(1, 2, -1.0);
        let orig = m.clone();
        assert_eq!(
            m.try_fix_variable(1, Spin::Up),
            Err(PbfError::NonFiniteCoefficient(f64::INFINITY))
        );
        assert_eq!(m, orig);
        // The other spin folds to 0 and -0.5 + 0.5: finite.
        assert!(m.try_fix_variable(1, Spin::Down).is_ok());
        assert_eq!((m.h(0), m.h(2), m.num_couplings()), (0.0, 1.5, 0));
        assert!(matches!(
            m.try_fix_variable(3, Spin::Up),
            Err(PbfError::VariableOutOfRange { index: 3, .. })
        ));
    }

    #[test]
    fn num_terms_counts_both_kinds() {
        let mut m = Ising::new(3);
        m.add_h(0, 0.5);
        m.add_j(0, 1, -1.0);
        m.add_j(1, 2, 1e-12);
        assert_eq!(m.num_terms(1e-9), 2);
    }

    #[test]
    fn active_variables_reports_touched() {
        let mut m = Ising::new(5);
        m.add_h(1, 1.0);
        m.add_j(3, 4, -1.0);
        assert_eq!(m.active_variables(), vec![1, 3, 4]);
    }
}
