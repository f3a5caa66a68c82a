//! The hardware model's default physical annealer: chain-block plus
//! single-qubit Metropolis sweeps, run over the embedded qubits only.
//!
//! A 2000Q fabric has 2048 qubits, but a typical program's embedding
//! touches about a tenth of them and the rest carry no term at all.
//! [`ChainBlockModel`] keeps only the *active* qubits — every chain
//! member and every qubit with a field or a coupler — renumbered in
//! ascending id order, so a sweep walks a few hundred qubits instead of
//! the whole fabric. An inactive qubit's flip delta is always zero: the
//! single-qubit pass skips it and the greedy descent never flips it, so
//! dropping it from the sweeps changes nothing. Every neighbor of an
//! active qubit is itself active, so the compact rows are closed.
//!
//! The output is bit-for-bit that of sweeping the whole fabric:
//!
//! * the RNG draws are the same calls in the same order: one chain-start
//!   draw per chain, then one draw per unchained qubit in ascending id
//!   order (an inactive qubit's draw is kept as one bit of its read),
//!   then the same `gen::<f64>` calls in the block pass, the
//!   single-qubit pass and the greedy descent;
//! * every local field and block delta accumulates in the full model's
//!   order — compact CSR rows and per-chain boundary lists keep each
//!   row's neighbor order — so every `exp` argument is the same float;
//! * reads merge exactly as [`SampleSet::from_reads`] merges them, by
//!   equality of the whole assignment (active spins and the inactive
//!   qubits' bits), and sort by the same physical energy.
//!
//! Reads stay bit-packed ([`PackedReads`]) through the majority-vote
//! decode; they never become fabric-wide `Vec<Spin>`s.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use qac_chimera::{unembed_by, ChainBreakStats, Embedding};
use qac_pbf::{Ising, Spin};

use crate::sample::sample_order;
use crate::SampleSet;

/// An embedded physical model restricted to its active qubits, ready
/// for chain-block annealing. Built once per job.
pub(crate) struct ChainBlockModel {
    offset: f64,
    /// Field of each active qubit, by compact position.
    h: Vec<f64>,
    /// Compact CSR: row `p` is `entries[row_starts[p]..row_starts[p + 1]]`.
    row_starts: Vec<u32>,
    entries: Vec<(u32, f64)>,
    /// Chain `c`'s members are `members[chain_starts[c]..chain_starts[c + 1]]`.
    chain_starts: Vec<u32>,
    members: Vec<u32>,
    /// Member `m`'s couplers leaving its chain are
    /// `boundary[boundary_starts[m]..boundary_starts[m + 1]]`.
    boundary_starts: Vec<u32>,
    boundary: Vec<(u32, f64)>,
    /// Where each unchained qubit's start draw lands, ascending qubit id.
    unchained: Vec<u32>,
    /// Nonzero couplings over compact positions, in `Ising::energy` order.
    couplings: Vec<(u32, u32, f64)>,
    /// Bit index of every physical qubit within a packed read.
    layout: Vec<u32>,
    /// `u64` words per packed read.
    words: usize,
    beta_min: f64,
    beta_max: f64,
}

/// ±1.0 for a spin drawn as a bool (`true` is up).
fn spin_value(up: bool) -> f64 {
    if up {
        1.0
    } else {
        -1.0
    }
}

/// Appends `items` to `out` and records the new end in `starts`.
fn push_row<T>(out: &mut Vec<T>, starts: &mut Vec<u32>, items: impl IntoIterator<Item = T>) {
    out.extend(items);
    starts.push(out.len() as u32);
}

impl ChainBlockModel {
    /// Compacts `model` (a physical model over hardware qubit ids) to the
    /// qubits `embedding` and the model's terms touch.
    pub(crate) fn new(model: &Ising, embedding: &Embedding) -> ChainBlockModel {
        let adj = model.csr_adjacency();
        let n = model.num_vars();
        // Chain membership per physical qubit (usize::MAX = unused).
        let mut member = vec![usize::MAX; n];
        for (v, chain) in embedding.chains().iter().enumerate() {
            for &q in chain {
                member[q] = v;
            }
        }
        let active: Vec<usize> = (0..n)
            .filter(|&q| {
                member[q] != usize::MAX || !adj.neighbors(q).is_empty() || model.h(q) != 0.0
            })
            .collect();

        // Read layout: the active qubits' bits first, then, from the next
        // word on, the inactive qubits' start draws.
        let active_words = active.len().div_ceil(64);
        let words = active_words + (n - active.len()).div_ceil(64);
        let mut layout = vec![u32::MAX; n];
        for (p, &q) in active.iter().enumerate() {
            layout[q] = p as u32;
        }
        let unused = layout.iter_mut().filter(|bit| **bit == u32::MAX);
        for (bit, at) in unused.zip((active_words * 64) as u32..) {
            *bit = at;
        }

        let mut row_starts = vec![0u32];
        let mut entries = Vec::new();
        let mut max_local = 0.0f64;
        for &q in &active {
            let row = adj.neighbors(q);
            push_row(
                &mut entries,
                &mut row_starts,
                row.iter().map(|&(other, j)| (layout[other as usize], j)),
            );
            // β schedule bounds from the physical scale (an inactive
            // qubit's local weight is zero, so it never sets the max).
            let local: f64 = model.h(q).abs() + row.iter().map(|(_, j)| j.abs()).sum::<f64>();
            max_local = max_local.max(2.0 * local);
        }
        if max_local == 0.0 {
            max_local = 1.0;
        }

        let mut chain_starts = vec![0u32];
        let mut members = Vec::new();
        let mut boundary_starts = vec![0u32];
        let mut boundary = Vec::new();
        for chain in embedding.chains() {
            for &q in chain {
                members.push(layout[q]);
                push_row(
                    &mut boundary,
                    &mut boundary_starts,
                    adj.neighbors(q)
                        .iter()
                        .filter(|&&(other, _)| member[other as usize] != member[q])
                        .map(|&(other, j)| (layout[other as usize], j)),
                );
            }
            chain_starts.push(members.len() as u32);
        }

        ChainBlockModel {
            offset: model.offset(),
            h: active.iter().map(|&q| model.h(q)).collect(),
            row_starts,
            entries,
            chain_starts,
            members,
            boundary_starts,
            boundary,
            unchained: (0..n)
                .filter(|&q| member[q] == usize::MAX)
                .map(|q| layout[q])
                .collect(),
            couplings: model
                .j_iter()
                .filter(|t| t.value != 0.0)
                .map(|t| (layout[t.i], layout[t.j], t.value))
                .collect(),
            layout,
            words,
            beta_min: 0.7 / max_local,
            beta_max: 50.0 / max_local.clamp(1e-9, 8.0),
        }
    }

    /// Number of active qubits.
    #[cfg(test)]
    fn num_active(&self) -> usize {
        self.h.len()
    }

    fn num_chains(&self) -> usize {
        self.chain_starts.len() - 1
    }

    fn chain_members(&self, c: usize) -> std::ops::Range<usize> {
        self.chain_starts[c] as usize..self.chain_starts[c + 1] as usize
    }

    /// ΔE of flipping chain `c` as a block: intra-chain terms cancel.
    fn block_delta(&self, c: usize, spins: &[f64]) -> f64 {
        let mut delta = 0.0;
        for m in self.chain_members(c) {
            let p = self.members[m] as usize;
            let mut field = self.h[p];
            let couplers = self.boundary_starts[m] as usize..self.boundary_starts[m + 1] as usize;
            for &(other, j) in &self.boundary[couplers] {
                field += j * spins[other as usize];
            }
            delta += -2.0 * spins[p] * field;
        }
        delta
    }

    fn flip_block(&self, c: usize, spins: &mut [f64]) {
        for &p in &self.members[self.chain_members(c)] {
            spins[p as usize] = -spins[p as usize];
        }
    }

    /// ΔE of flipping the single qubit at compact position `p`.
    fn flip_delta(&self, p: usize, spins: &[f64]) -> f64 {
        let mut field = self.h[p];
        let row = self.row_starts[p] as usize..self.row_starts[p + 1] as usize;
        for &(other, j) in &self.entries[row] {
            field += j * spins[other as usize];
        }
        -2.0 * spins[p] * field
    }

    /// Physical energy of a packed read, summed in `Ising::energy`'s
    /// order: offset, fields by ascending qubit, couplings in `BTreeMap`
    /// order. The terms left out (inactive fields, zero couplings) are
    /// ±0.0; they could only flip the sign of a zero total, which no
    /// comparison sees.
    fn energy(&self, read: &[u64]) -> f64 {
        let s = |p: u32| spin_value(bit(read, p));
        let mut e = self.offset;
        for (p, &h) in self.h.iter().enumerate() {
            e += h * s(p as u32);
        }
        for &(a, b, j) in &self.couplings {
            e += j * s(a) * s(b);
        }
        e
    }

    /// Anneals `num_reads` reads. Each sweep proposes one collective flip
    /// per chain (Metropolis on the physical energy) followed by one
    /// single-qubit pass at the same temperature; a greedy descent —
    /// blocks first, then single qubits — finishes each read. The block
    /// moves emulate the collective dynamics a physical annealer gets
    /// from quantum tunneling; the single-qubit moves are where chain
    /// breaks come from.
    pub(crate) fn anneal(&self, sweeps: usize, seed: u64, num_reads: usize) -> PackedReads {
        let active = self.h.len();
        let words = self.words;
        let mut bits = vec![0u64; num_reads * words];
        let mut spins = vec![0.0f64; active];
        let ratio = (self.beta_max / self.beta_min).powf(1.0 / sweeps.max(1) as f64);
        for r in 0..num_reads {
            let read = &mut bits[r * words..(r + 1) * words];
            let mut rng = StdRng::seed_from_u64(seed.wrapping_add(r as u64));
            // Chain-coherent random start.
            for c in 0..self.num_chains() {
                let s = spin_value(rng.gen::<bool>());
                for &p in &self.members[self.chain_members(c)] {
                    spins[p as usize] = s;
                }
            }
            for &at in &self.unchained {
                let up = rng.gen::<bool>();
                let at = at as usize;
                if at < active {
                    spins[at] = spin_value(up);
                } else if up {
                    read[at / 64] |= 1 << (at % 64);
                }
            }
            let mut beta = self.beta_min;
            for _ in 0..sweeps {
                // Block pass: flip whole chains.
                for c in 0..self.num_chains() {
                    let delta = self.block_delta(c, &spins);
                    if delta <= 0.0 || rng.gen::<f64>() < (-beta * delta).exp() {
                        self.flip_block(c, &mut spins);
                    }
                }
                // Single-qubit pass (chain breaks happen here).
                for p in 0..active {
                    let delta = self.flip_delta(p, &spins);
                    if delta <= 0.0 || rng.gen::<f64>() < (-beta * delta).exp() {
                        spins[p] = -spins[p];
                    }
                }
                beta *= ratio;
            }
            let mut improved = true;
            while improved {
                improved = false;
                for c in 0..self.num_chains() {
                    if self.block_delta(c, &spins) < -1e-12 {
                        self.flip_block(c, &mut spins);
                        improved = true;
                    }
                }
                for p in 0..active {
                    if self.flip_delta(p, &spins) < -1e-12 {
                        spins[p] = -spins[p];
                        improved = true;
                    }
                }
            }
            for (p, &s) in spins.iter().enumerate() {
                if s > 0.0 {
                    read[p / 64] |= 1 << (p % 64);
                }
            }
        }

        // Merge identical reads in first-appearance order, then sort the
        // way `SampleSet` does (a stable sort, so ties keep that order).
        let mut index: HashMap<&[u64], usize> = HashMap::with_capacity(num_reads);
        let mut distinct: Vec<(usize, usize)> = Vec::new();
        for r in 0..num_reads {
            match index.entry(&bits[r * words..(r + 1) * words]) {
                Entry::Occupied(slot) => distinct[*slot.get()].1 += 1,
                Entry::Vacant(slot) => {
                    slot.insert(distinct.len());
                    distinct.push((r, 1));
                }
            }
        }
        let mut ranked: Vec<(f64, usize, usize)> = distinct
            .into_iter()
            .map(|(r, occurrences)| {
                let energy = self.energy(&bits[r * words..(r + 1) * words]);
                (energy, occurrences, r)
            })
            .collect();
        ranked.sort_by(|a, b| sample_order((a.0, a.1), (b.0, b.1)));
        let mut sorted = Vec::with_capacity(ranked.len() * words);
        for &(_, _, r) in &ranked {
            sorted.extend_from_slice(&bits[r * words..(r + 1) * words]);
        }
        PackedReads {
            layout: self.layout.clone(),
            words,
            bits: sorted,
            occurrences: ranked
                .into_iter()
                .map(|(_, occurrences, _)| occurrences)
                .collect(),
        }
    }
}

/// Whether bit `at` of a packed read is set (spin up).
fn bit(read: &[u64], at: u32) -> bool {
    read[at as usize / 64] >> (at % 64) & 1 == 1
}

/// Distinct physical reads, bit-packed, in sample-set order (lowest
/// physical energy first), with the bit each physical qubit occupies.
pub(crate) struct PackedReads {
    layout: Vec<u32>,
    words: usize,
    bits: Vec<u64>,
    occurrences: Vec<usize>,
}

impl PackedReads {
    /// Packs an already merged and sorted physical sample set; qubit `q`
    /// occupies bit `q`.
    pub(crate) fn from_sample_set(set: &SampleSet, num_qubits: usize) -> PackedReads {
        let words = num_qubits.div_ceil(64);
        let mut bits = vec![0u64; set.len() * words];
        for (sample, read) in set.iter().zip(bits.chunks_mut(words.max(1))) {
            for (q, spin) in sample.spins.iter().enumerate() {
                if spin.to_bool() {
                    read[q / 64] |= 1 << (q % 64);
                }
            }
        }
        PackedReads {
            layout: (0..num_qubits as u32).collect(),
            words,
            bits,
            occurrences: set.iter().map(|s| s.occurrences).collect(),
        }
    }

    /// Each distinct read with its occurrence count, in order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&[u64], usize)> + '_ {
        (0..self.occurrences.len()).map(|i| {
            (
                &self.bits[i * self.words..(i + 1) * self.words],
                self.occurrences[i],
            )
        })
    }

    /// Decodes one read by majority vote over the first `num_logical`
    /// chains of `embedding`, counting broken chains.
    pub(crate) fn unembed(
        &self,
        read: &[u64],
        embedding: &Embedding,
        num_logical: usize,
    ) -> (Vec<Spin>, ChainBreakStats) {
        unembed_by(embedding, num_logical, |q| bit(read, self.layout[q]))
    }

    /// A read expanded to one spin per physical qubit.
    #[cfg(test)]
    fn spins(&self, read: &[u64]) -> Vec<Spin> {
        self.layout
            .iter()
            .map(|&at| Spin::from(bit(read, at)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dwave_sim::distort;
    use crate::{DWaveSimOptions, Sampler};
    use qac_chimera::{
        embed_ising, find_embedding_or_clique_with_stats, EmbedOptions, Topology, TopologySpec,
    };
    use qac_pbf::scale::scale_to_range;

    /// The full-fabric kernel, the oracle the compact one must match bit
    /// for bit: every qubit visited in every pass, every read a
    /// fabric-wide `Vec<Spin>`, merged by `SampleSet::from_reads`.
    fn reference(
        model: &Ising,
        embedding: &Embedding,
        sweeps: usize,
        seed: u64,
        num_reads: usize,
    ) -> SampleSet {
        let adj = model.csr_adjacency();
        let n = model.num_vars();
        let mut member = vec![usize::MAX; n];
        for (v, chain) in embedding.chains().iter().enumerate() {
            for &q in chain {
                member[q] = v;
            }
        }
        let mut max_local = 0.0f64;
        for i in 0..n {
            let local: f64 =
                model.h(i).abs() + adj.neighbors(i).iter().map(|(_, j)| j.abs()).sum::<f64>();
            max_local = max_local.max(2.0 * local);
        }
        if max_local == 0.0 {
            max_local = 1.0;
        }
        let beta_min = 0.7 / max_local;
        let beta_max = 50.0 / max_local.clamp(1e-9, 8.0);

        let mut reads = Vec::with_capacity(num_reads);
        for r in 0..num_reads {
            let mut rng = StdRng::seed_from_u64(seed.wrapping_add(r as u64));
            let mut spins: Vec<Spin> = vec![Spin::Down; n];
            for chain in embedding.chains() {
                let s = Spin::from(rng.gen::<bool>());
                for &q in chain {
                    spins[q] = s;
                }
            }
            for q in 0..n {
                if member[q] == usize::MAX {
                    spins[q] = Spin::from(rng.gen::<bool>());
                }
            }
            let ratio = (beta_max / beta_min).powf(1.0 / sweeps.max(1) as f64);
            let mut beta = beta_min;
            for _ in 0..sweeps {
                for chain in embedding.chains() {
                    let mut delta = 0.0;
                    for &q in chain {
                        let mut field = model.h(q);
                        for &(other, j) in adj.neighbors(q) {
                            if member[other as usize] != member[q] {
                                field += j * spins[other as usize].value();
                            }
                        }
                        delta += -2.0 * spins[q].value() * field;
                    }
                    if delta <= 0.0 || rng.gen::<f64>() < (-beta * delta).exp() {
                        for &q in chain {
                            spins[q] = spins[q].flipped();
                        }
                    }
                }
                for q in 0..n {
                    if member[q] == usize::MAX && adj.neighbors(q).is_empty() && model.h(q) == 0.0 {
                        continue;
                    }
                    let delta = model.flip_delta_csr(&spins, q, adj.neighbors(q));
                    if delta <= 0.0 || rng.gen::<f64>() < (-beta * delta).exp() {
                        spins[q] = spins[q].flipped();
                    }
                }
                beta *= ratio;
            }
            let mut improved = true;
            while improved {
                improved = false;
                for chain in embedding.chains() {
                    let mut delta = 0.0;
                    for &q in chain {
                        let mut field = model.h(q);
                        for &(other, j) in adj.neighbors(q) {
                            if member[other as usize] != member[q] {
                                field += j * spins[other as usize].value();
                            }
                        }
                        delta += -2.0 * spins[q].value() * field;
                    }
                    if delta < -1e-12 {
                        for &q in chain {
                            spins[q] = spins[q].flipped();
                        }
                        improved = true;
                    }
                }
                for q in 0..n {
                    if model.flip_delta_csr(&spins, q, adj.neighbors(q)) < -1e-12 {
                        spins[q] = spins[q].flipped();
                        improved = true;
                    }
                }
            }
            reads.push(spins);
        }
        SampleSet::from_reads(model, reads)
    }

    /// A seeded sparse logical model, embedded on `spec` (with `dropout`)
    /// and distorted the way `DWaveSim::run` does it.
    fn embedded_fixture(spec: TopologySpec, dropout: f64, seed: u64) -> (Ising, Embedding) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 10;
        let mut logical = Ising::new(n);
        for i in 0..n {
            logical.add_h(i, rng.gen_range(-1.0..1.0));
            for j in (i + 1)..n {
                if rng.gen::<f64>() < 0.3 {
                    logical.add_j(i, j, rng.gen_range(-1.0..1.0));
                }
            }
        }
        let options = DWaveSimOptions {
            topology: spec,
            dropout,
            seed,
            ..DWaveSimOptions::default()
        };
        let hardware = if dropout > 0.0 {
            spec.graph_with_dropout(dropout, seed)
        } else {
            spec.graph()
        };
        let range = spec.coefficient_range();
        let scaled = scale_to_range(&logical, range).model;
        let edges: Vec<(usize, usize)> = scaled.j_iter().map(|t| (t.i, t.j)).collect();
        let (embedding, _) = find_embedding_or_clique_with_stats(
            &edges,
            n,
            &spec,
            &hardware,
            &EmbedOptions::default(),
        )
        .unwrap();
        let strength = spec.chain_strength(None, scaled.max_abs_j());
        let embedded = embed_ising(&scaled, &embedding, &hardware, strength);
        let physical = scale_to_range(&embedded.physical, range).model;
        (distort(&physical, range, &options), embedding)
    }

    /// The kernel's reads, expanded, equal the reference's samples: same
    /// assignments, same occurrences, same order.
    fn assert_matches_reference(
        model: &Ising,
        embedding: &Embedding,
        sweeps: usize,
        seed: u64,
        reads: usize,
    ) {
        let expected = reference(model, embedding, sweeps, seed, reads);
        let compact = ChainBlockModel::new(model, embedding);
        let packed = compact.anneal(sweeps, seed, reads);
        assert_eq!(
            packed.iter().count(),
            expected.len(),
            "seed {seed}: distinct reads"
        );
        for ((read, occurrences), sample) in packed.iter().zip(expected.iter()) {
            assert_eq!(packed.spins(read), sample.spins, "seed {seed}");
            assert_eq!(occurrences, sample.occurrences, "seed {seed}");
            assert_eq!(compact.energy(read), sample.energy, "seed {seed}");
        }
    }

    #[test]
    fn matches_the_full_fabric_kernel_on_every_topology() {
        for (spec, dropout) in [
            (TopologySpec::Chimera { m: 4 }, 0.05),
            (TopologySpec::Pegasus { m: 2 }, 0.0),
            (TopologySpec::Zephyr { m: 1 }, 0.0),
            (TopologySpec::King { m: 8 }, 0.0),
        ] {
            for seed in 0..20 {
                let (model, embedding) = embedded_fixture(spec, dropout, seed);
                let compact = ChainBlockModel::new(&model, &embedding);
                assert!(
                    compact.num_active() < model.num_vars(),
                    "{spec:?}: fabric mostly idle"
                );
                assert_matches_reference(&model, &embedding, 16, seed ^ 0xa1_ea1, 30);
            }
        }
    }

    #[test]
    fn identical_reads_merge_when_every_qubit_is_used() {
        // A K4,4 cell with one single-qubit chain per qubit and a coupler
        // on every edge: no inactive qubit, 256 assignments, so 200 reads
        // must collide and merge.
        let spec = TopologySpec::Chimera { m: 1 };
        let hardware = spec.graph();
        let mut model = Ising::new(8);
        let mut rng = StdRng::seed_from_u64(3);
        for q in 0..8 {
            model.add_h(q, rng.gen_range(-1.0..1.0));
            for &other in hardware.neighbors(q) {
                if other > q {
                    model.add_j(q, other, rng.gen_range(-1.0..1.0));
                }
            }
        }
        let embedding = Embedding::from_chains((0..8).map(|q| vec![q]).collect());
        for seed in 0..20 {
            let compact = ChainBlockModel::new(&model, &embedding);
            assert_eq!(compact.num_active(), 8);
            let packed = compact.anneal(4, seed, 200);
            assert!(packed.occurrences.len() < 200, "reads merged");
            assert_eq!(packed.occurrences.iter().sum::<usize>(), 200);
            assert_matches_reference(&model, &embedding, 4, seed, 200);
        }
    }

    #[test]
    fn inactive_qubit_bits_take_part_in_the_merge() {
        // Half a K4,4 cell used: two 2-qubit chains leave four idle
        // qubits whose random start bits still distinguish reads.
        let mut model = Ising::new(8);
        model.add_h(0, -0.5);
        model.add_j(0, 4, -1.0);
        model.add_j(1, 5, -1.0);
        model.add_j(0, 5, 0.3);
        let embedding = Embedding::from_chains(vec![vec![0, 4], vec![1, 5]]);
        assert_eq!(ChainBlockModel::new(&model, &embedding).num_active(), 4);
        for seed in 0..20 {
            assert_matches_reference(&model, &embedding, 8, seed, 100);
        }
    }

    #[test]
    fn packed_sample_sets_keep_order_and_decode_like_unembed() {
        let (model, embedding) = embedded_fixture(TopologySpec::Chimera { m: 4 }, 0.0, 5);
        let set = crate::BitParallelSa::new(9)
            .with_sweeps(32)
            .sample(&model, 64);
        let packed = PackedReads::from_sample_set(&set, model.num_vars());
        assert_eq!(packed.iter().count(), set.len());
        for ((read, occurrences), sample) in packed.iter().zip(set.iter()) {
            assert_eq!(packed.spins(read), sample.spins);
            assert_eq!(occurrences, sample.occurrences);
            assert_eq!(
                packed.unembed(read, &embedding, 10),
                qac_chimera::unembed(&embedding, 10, &sample.spins)
            );
        }
    }
}
