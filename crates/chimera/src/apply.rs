//! Applying a minor embedding to an Ising model, and decoding physical
//! samples back to logical variables.
//!
//! This is the paper's §4.4 transformation: logical `H_log` becomes
//! physical `H_phys` by splitting each variable across its chain,
//! distributing linear coefficients over chain members, placing each
//! logical coupling on the physical couplers that connect the two chains,
//! and adding strong ferromagnetic intra-chain couplings so the chain
//! acts as one variable.

use qac_pbf::{Ising, Spin};

use crate::{Embedding, HardwareGraph};

/// The chain strength the embedding path uses when none is given
/// explicitly: twice the largest scaled |J| (at least 1), clamped so the
/// intra-chain coupling `−strength` still fits the hardware's J range
/// (`j_min` is the most negative allowed coupling, e.g. −2 on a 2000Q).
///
/// This is the single source of truth shared by the D-Wave simulator's
/// run path and the static chain-strength analysis pass, so the
/// analyzer checks exactly the strength the embedder will apply.
pub fn choose_chain_strength(explicit: Option<f64>, scaled_max_abs_j: f64, j_min: f64) -> f64 {
    explicit
        .unwrap_or_else(|| (2.0 * scaled_max_abs_j).max(1.0))
        .min(-j_min)
}

/// Per-variable neighborhood weight `W_v = |h_v| + Σ_u |J_vu|` — the
/// most energy flipping `v` alone can ever recover. A chain coupling of
/// strength `S ≥ W_v` therefore guarantees no broken chain of `v`
/// undercuts an intact ground state, which is the static sufficiency
/// bound the analyzer checks.
pub fn neighborhood_weights(model: &Ising) -> Vec<f64> {
    let mut weights: Vec<f64> = (0..model.num_vars()).map(|v| model.h(v).abs()).collect();
    for t in model.j_iter() {
        weights[t.i] += t.value.abs();
        weights[t.j] += t.value.abs();
    }
    weights
}

/// A physical (embedded) Ising model together with its provenance.
#[derive(Debug, Clone)]
pub struct EmbeddedIsing {
    /// The physical Hamiltonian over hardware qubit indices.
    pub physical: Ising,
    /// The embedding used.
    pub embedding: Embedding,
    /// The chain coupling strength that was applied.
    pub chain_strength: f64,
    /// Number of logical variables.
    pub num_logical: usize,
}

/// Chain-break statistics for one decoded sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChainBreakStats {
    /// Chains whose qubits disagreed (resolved by majority vote).
    pub broken: usize,
    /// Total chains.
    pub total: usize,
}

impl ChainBreakStats {
    /// Fraction of chains broken (0 for an empty embedding).
    pub fn break_fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.broken as f64 / self.total as f64
        }
    }
}

/// Embeds `logical` through `embedding` onto `hardware`.
///
/// * Each `hᵥ` is split evenly over the chain of `v`.
/// * Each `J_{u,v}` is split evenly over all physical couplers joining the
///   two chains.
/// * Every intra-chain coupler receives `−chain_strength`.
///
/// # Panics
/// Panics if the embedding does not cover all model variables or a
/// logical coupling has no physical coupler between its chains (i.e. the
/// embedding is invalid for this model).
pub fn embed_ising(
    logical: &Ising,
    embedding: &Embedding,
    hardware: &HardwareGraph,
    chain_strength: f64,
) -> EmbeddedIsing {
    assert!(
        embedding.num_vars() >= logical.num_vars(),
        "embedding covers {} of {} variables",
        embedding.num_vars(),
        logical.num_vars()
    );
    let mut physical = Ising::new(hardware.num_nodes());
    physical.add_offset(logical.offset());

    // Chains are pairwise disjoint in a valid embedding, so one flat
    // qubit → owning-variable array answers "which chain is this
    // neighbor in?" with a single load. That replaces the pairwise
    // `has_edge` scans — O(|chain_a|·|chain_b|) ordered-set probes per
    // logical coupling, quadratic in chain length — with one walk of
    // each chain member's hardware neighbor list.
    const NO_OWNER: u32 = u32::MAX;
    let mut owner = vec![NO_OWNER; hardware.num_nodes()];
    for (v, chain) in embedding.chains().iter().enumerate() {
        for &q in chain {
            debug_assert_eq!(owner[q], NO_OWNER, "chains must be disjoint");
            owner[q] = v as u32;
        }
    }

    // Linear terms: split over the chain.
    for (v, h) in logical.h_iter() {
        if h == 0.0 {
            continue;
        }
        let chain = embedding.chain(v);
        assert!(!chain.is_empty(), "variable {v} has an empty chain");
        let share = h / chain.len() as f64;
        for &q in chain {
            physical.add_h(q, share);
        }
    }

    // Quadratic terms: split over the connecting couplers.
    for t in logical.j_iter() {
        if t.value == 0.0 {
            continue;
        }
        let chain_a = embedding.chain(t.i);
        let want = t.j as u32;
        let mut couplers = Vec::new();
        for &a in chain_a {
            for &b in hardware.neighbors(a) {
                if owner[b] == want {
                    couplers.push((a, b));
                }
            }
        }
        assert!(
            !couplers.is_empty(),
            "no physical coupler between chains of {} and {}",
            t.i,
            t.j
        );
        let share = t.value / couplers.len() as f64;
        for (a, b) in couplers {
            physical.add_j(a, b, share);
        }
    }

    // Intra-chain ferromagnetic couplings on every available coupler.
    // `b > a` visits each undirected intra-chain edge exactly once.
    for (v, chain) in embedding.chains().iter().enumerate() {
        for &a in chain {
            for &b in hardware.neighbors(a) {
                if b > a && owner[b] == v as u32 {
                    physical.add_j(a, b, -chain_strength);
                }
            }
        }
    }

    EmbeddedIsing {
        physical,
        embedding: embedding.clone(),
        chain_strength,
        num_logical: logical.num_vars(),
    }
}

impl EmbeddedIsing {
    /// Decodes a physical sample to logical spins by majority vote over
    /// each chain (ties resolve down).
    pub fn unembed(&self, physical_spins: &[Spin]) -> (Vec<Spin>, ChainBreakStats) {
        unembed(&self.embedding, self.num_logical, physical_spins)
    }
}

/// Majority-vote decoding of a physical sample through `embedding`,
/// producing `num_logical` logical spins.
///
/// # Panics
/// Panics if a chain references a qubit outside `physical_spins`.
pub fn unembed(
    embedding: &Embedding,
    num_logical: usize,
    physical_spins: &[Spin],
) -> (Vec<Spin>, ChainBreakStats) {
    unembed_by(embedding, num_logical, |q| physical_spins[q] == Spin::Up)
}

/// [`unembed`] for a sample stored in any form: `is_up(q)` reads
/// physical qubit `q` (e.g. from a bit-packed read). Each logical spin is
/// its chain's majority, ties resolving down; a chain whose qubits
/// disagree counts as broken.
pub fn unembed_by(
    embedding: &Embedding,
    num_logical: usize,
    is_up: impl Fn(usize) -> bool,
) -> (Vec<Spin>, ChainBreakStats) {
    let mut logical = Vec::with_capacity(num_logical);
    let mut stats = ChainBreakStats {
        broken: 0,
        total: num_logical,
    };
    for v in 0..num_logical {
        let chain = embedding.chain(v);
        let ups = chain.iter().filter(|&&q| is_up(q)).count();
        let downs = chain.len() - ups;
        if ups > 0 && downs > 0 {
            stats.broken += 1;
        }
        logical.push(if ups > downs { Spin::Up } else { Spin::Down });
    }
    (logical, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{find_embedding, Chimera, EmbedOptions};
    use qac_pbf::bits_to_spins;

    /// Exhaustively minimizes a (small) Ising model.
    fn ground_states(model: &Ising, over: &[usize]) -> (f64, Vec<Vec<Spin>>) {
        // `over` lists the variable indices that actually matter; others
        // are fixed Down.
        let mut best = f64::INFINITY;
        let mut minima = Vec::new();
        let k = over.len();
        for idx in 0..(1u64 << k) {
            let bits = bits_to_spins(idx, k);
            let mut spins = vec![Spin::Down; model.num_vars()];
            for (pos, &var) in over.iter().enumerate() {
                spins[var] = bits[pos];
            }
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
    fn embedded_triangle_preserves_ground_states() {
        // Frustration-free triangle: h biases everything up.
        let mut logical = Ising::new(3);
        logical.add_h(0, -1.0);
        logical.add_j(0, 1, -1.0);
        logical.add_j(1, 2, -1.0);
        logical.add_j(0, 2, -1.0);
        let hw = Chimera::new(2).graph();
        let edges = [(0, 1), (1, 2), (0, 2)];
        let embedding = find_embedding(&edges, 3, &hw, &EmbedOptions::default()).unwrap();
        let embedded = embed_ising(&logical, &embedding, &hw, 4.0);

        // Enumerate over used qubits only.
        let used: Vec<usize> = embedding.chains().iter().flatten().copied().collect();
        let (_, minima) = ground_states(&embedded.physical, &used);
        assert!(!minima.is_empty());
        for phys in &minima {
            let (logical_spins, stats) = embedded.unembed(phys);
            assert_eq!(stats.broken, 0, "ground states should have intact chains");
            assert_eq!(logical_spins, vec![Spin::Up; 3]);
        }
    }

    #[test]
    fn chain_break_detection() {
        let hw = Chimera::new(1).graph();
        let edges = [(0, 1), (1, 2), (0, 2)];
        let embedding = find_embedding(&edges, 3, &hw, &EmbedOptions::default()).unwrap();
        // Find a chained variable and flip half its qubits.
        let chained = (0..3).find(|&v| embedding.chain(v).len() >= 2).unwrap();
        let mut phys = vec![Spin::Down; hw.num_nodes()];
        phys[embedding.chain(chained)[0]] = Spin::Up;
        let (_, stats) = unembed(&embedding, 3, &phys);
        assert_eq!(stats.broken, 1);
        assert!(stats.break_fraction() > 0.0);
    }

    #[test]
    fn h_distribution_preserves_total() {
        let mut logical = Ising::new(2);
        logical.add_h(0, 1.5);
        logical.add_j(0, 1, -0.5);
        let hw = Chimera::new(2).graph();
        let embedding = find_embedding(&[(0, 1)], 2, &hw, &EmbedOptions::default()).unwrap();
        let embedded = embed_ising(&logical, &embedding, &hw, 2.0);
        let total_h: f64 = embedded.physical.h_iter().map(|(_, h)| h).sum();
        assert!((total_h - 1.5).abs() < 1e-12);
        // Total inter-chain J preserved.
        let chain0 = embedding.chain(0);
        let inter: f64 = embedded
            .physical
            .j_iter()
            .filter(|t| chain0.contains(&t.i) != chain0.contains(&t.j))
            .map(|t| t.value)
            .sum();
        assert!((inter - (-0.5)).abs() < 1e-12);
    }

    #[test]
    fn owner_array_matches_pairwise_has_edge_reference() {
        // The owner-array fast path must place exactly the couplers the
        // original pairwise `has_edge` scans found, with the same
        // shares. Compare against a direct reference on a workload
        // whose chains are long enough to have internal couplers.
        let mut logical = Ising::new(5);
        for v in 0..5 {
            logical.add_h(v, 0.3 * (v as f64 + 1.0));
            for u in (v + 1)..5 {
                logical.add_j(v, u, if (v + u) % 2 == 0 { -0.8 } else { 0.6 });
            }
        }
        let hw = Chimera::new(3).graph();
        let edges: Vec<(usize, usize)> = logical.j_iter().map(|t| (t.i, t.j)).collect();
        let embedding = find_embedding(&edges, 5, &hw, &EmbedOptions::default()).unwrap();
        assert!(
            embedding.chains().iter().any(|c| c.len() >= 2),
            "K5 on Chimera needs at least one multi-qubit chain"
        );
        let embedded = embed_ising(&logical, &embedding, &hw, 3.0);

        let mut reference = Ising::new(hw.num_nodes());
        reference.add_offset(logical.offset());
        for (v, h) in logical.h_iter() {
            let chain = embedding.chain(v);
            for &q in chain {
                reference.add_h(q, h / chain.len() as f64);
            }
        }
        for t in logical.j_iter() {
            let mut couplers = Vec::new();
            for &a in embedding.chain(t.i) {
                for &b in embedding.chain(t.j) {
                    if hw.has_edge(a, b) {
                        couplers.push((a, b));
                    }
                }
            }
            for &(a, b) in &couplers {
                reference.add_j(a, b, t.value / couplers.len() as f64);
            }
        }
        for chain in embedding.chains() {
            for (idx, &a) in chain.iter().enumerate() {
                for &b in &chain[idx + 1..] {
                    if hw.has_edge(a, b) {
                        reference.add_j(a, b, -3.0);
                    }
                }
            }
        }
        assert_eq!(embedded.physical, reference);
    }

    #[test]
    fn chain_strength_formula() {
        // Explicit values pass through but still clamp to the J range.
        assert_eq!(choose_chain_strength(Some(1.5), 9.0, -2.0), 1.5);
        assert_eq!(choose_chain_strength(Some(5.0), 9.0, -2.0), 2.0);
        // Derived: 2·max|J| with a floor of 1, clamped at −j_min.
        assert_eq!(choose_chain_strength(None, 0.75, -2.0), 1.5);
        assert_eq!(choose_chain_strength(None, 0.1, -2.0), 1.0);
        assert_eq!(choose_chain_strength(None, 3.0, -2.0), 2.0);
    }

    #[test]
    fn neighborhood_weights_sum_h_and_j_magnitudes() {
        let mut m = Ising::new(4);
        m.add_h(0, -0.5);
        m.add_j(0, 1, 1.0);
        m.add_j(0, 2, -0.25);
        m.add_j(1, 2, 0.5);
        let w = neighborhood_weights(&m);
        assert_eq!(w, vec![0.5 + 1.0 + 0.25, 1.0 + 0.5, 0.25 + 0.5, 0.0]);
    }

    #[test]
    fn offset_carried_through() {
        let mut logical = Ising::new(1);
        logical.add_h(0, 1.0);
        logical.add_offset(2.5);
        let hw = Chimera::new(1).graph();
        let embedding = find_embedding(&[], 1, &hw, &EmbedOptions::default()).unwrap();
        let embedded = embed_ising(&logical, &embedding, &hw, 1.0);
        assert_eq!(embedded.physical.offset(), 2.5);
    }
}
