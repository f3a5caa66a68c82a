//! Samples, sample sets, and the sampler trait.

use std::cmp::Ordering;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

use qac_pbf::{Ising, Spin};

/// One distinct solution with its energy and multiplicity.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// The spin assignment.
    pub spins: Vec<Spin>,
    /// Its energy under the sampled model.
    pub energy: f64,
    /// How many reads produced this assignment.
    pub occurrences: usize,
}

/// A collection of samples, deduplicated and sorted by energy
/// (lowest first) — what a quantum annealer returns after many anneals.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SampleSet {
    samples: Vec<Sample>,
}

impl SampleSet {
    /// Builds a sample set from raw reads, deduplicating and sorting.
    pub fn from_reads(model: &Ising, reads: Vec<Vec<Spin>>) -> SampleSet {
        let samples = merge_by_spins(reads, |spins| spins, |_| 1)
            .into_iter()
            .map(|(spins, occurrences)| Sample {
                energy: model.energy(&spins),
                spins,
                occurrences,
            })
            .collect();
        let mut set = SampleSet { samples };
        set.sort();
        set
    }

    /// Builds a set from already-evaluated samples (used by decoders that
    /// compute logical energies separately).
    pub fn from_samples(samples: Vec<Sample>) -> SampleSet {
        let merged = merge_by_spins(samples, |s| &s.spins, |s| s.occurrences)
            .into_iter()
            .map(|(sample, occurrences)| Sample {
                occurrences,
                ..sample
            })
            .collect();
        let mut set = SampleSet { samples: merged };
        set.sort();
        set
    }

    fn sort(&mut self) {
        self.samples
            .sort_by(|a, b| sample_order((a.energy, a.occurrences), (b.energy, b.occurrences)));
    }

    /// The lowest-energy sample.
    pub fn best(&self) -> Option<&Sample> {
        self.samples.first()
    }

    /// All distinct samples, lowest energy first.
    pub fn iter(&self) -> impl Iterator<Item = &Sample> {
        self.samples.iter()
    }

    /// Number of distinct samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Total reads across all samples.
    pub fn total_reads(&self) -> usize {
        self.samples.iter().map(|s| s.occurrences).sum()
    }

    /// Fraction of reads whose energy is within `eps` of the best.
    pub fn ground_fraction(&self, eps: f64) -> f64 {
        let Some(best) = self.best() else { return 0.0 };
        let ground: usize = self
            .samples
            .iter()
            .filter(|s| (s.energy - best.energy).abs() <= eps)
            .map(|s| s.occurrences)
            .sum();
        ground as f64 / self.total_reads().max(1) as f64
    }
}

impl IntoIterator for SampleSet {
    type Item = Sample;
    type IntoIter = std::vec::IntoIter<Sample>;
    fn into_iter(self) -> Self::IntoIter {
        self.samples.into_iter()
    }
}

/// The order of a sample set, given `(energy, occurrences)`: lowest
/// energy first, the more frequent of two equal energies first. Sorts
/// using it are stable, so full ties keep their first-appearance order.
pub(crate) fn sample_order(a: (f64, usize), b: (f64, usize)) -> Ordering {
    a.0.partial_cmp(&b.0)
        .unwrap_or(Ordering::Equal)
        .then_with(|| b.1.cmp(&a.1))
}

/// Merges items with equal assignments: one entry per distinct
/// assignment, in first-appearance order, holding that first item and
/// the summed weights of the group. The index borrows each assignment,
/// so every item is moved once and none is cloned.
fn merge_by_spins<T>(
    items: Vec<T>,
    spins: impl Fn(&T) -> &[Spin],
    weight: impl Fn(&T) -> usize,
) -> Vec<(T, usize)> {
    let mut is_first = vec![false; items.len()];
    let mut totals: Vec<usize> = Vec::new();
    let mut index: HashMap<&[Spin], usize> = HashMap::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        match index.entry(spins(item)) {
            Entry::Occupied(group) => totals[*group.get()] += weight(item),
            Entry::Vacant(group) => {
                group.insert(totals.len());
                totals.push(weight(item));
                is_first[i] = true;
            }
        }
    }
    items
        .into_iter()
        .zip(is_first)
        .filter_map(|(item, first)| first.then_some(item))
        .zip(totals)
        .collect()
}

/// Anything that can draw samples from an Ising model.
///
/// Implementations are deterministic for a fixed configuration (seeds are
/// part of the sampler's state, not the call).
pub trait Sampler {
    /// Draws `num_reads` samples from `model`.
    fn sample(&self, model: &Ising, num_reads: usize) -> SampleSet;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> Ising {
        let mut m = Ising::new(2);
        m.add_h(0, 1.0);
        m.add_j(0, 1, -0.5);
        m
    }

    #[test]
    fn deduplication_and_sorting() {
        let m = model();
        let reads = vec![
            vec![Spin::Up, Spin::Up],
            vec![Spin::Down, Spin::Down],
            vec![Spin::Down, Spin::Down],
            vec![Spin::Up, Spin::Down],
        ];
        let set = SampleSet::from_reads(&m, reads);
        assert_eq!(set.len(), 3);
        assert_eq!(set.total_reads(), 4);
        let best = set.best().unwrap();
        assert_eq!(best.spins, vec![Spin::Down, Spin::Down]);
        assert_eq!(best.occurrences, 2);
        // Energies ascending.
        let energies: Vec<f64> = set.iter().map(|s| s.energy).collect();
        assert!(energies.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn ground_fraction() {
        let m = model();
        let reads = vec![
            vec![Spin::Down, Spin::Down],
            vec![Spin::Down, Spin::Down],
            vec![Spin::Up, Spin::Down],
            vec![Spin::Up, Spin::Up],
        ];
        let set = SampleSet::from_reads(&m, reads);
        assert!((set.ground_fraction(1e-9) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn from_samples_aggregates_duplicates_and_sorts_by_energy() {
        // Pre-evaluated samples arrive unsorted with duplicate
        // assignments; from_samples must aggregate occurrences and
        // restore the energy-ascending order from_reads guarantees.
        let dup = |e: f64, occ: usize, s: [Spin; 2]| Sample {
            spins: s.to_vec(),
            energy: e,
            occurrences: occ,
        };
        let set = SampleSet::from_samples(vec![
            dup(1.5, 2, [Spin::Up, Spin::Up]),
            dup(-0.5, 1, [Spin::Down, Spin::Down]),
            dup(1.5, 3, [Spin::Up, Spin::Up]),
            dup(0.0, 1, [Spin::Up, Spin::Down]),
        ]);
        assert_eq!(set.len(), 3, "identical assignments collapse");
        assert_eq!(set.total_reads(), 7, "occurrences add up");
        let energies: Vec<f64> = set.iter().map(|s| s.energy).collect();
        assert_eq!(energies, [-0.5, 0.0, 1.5], "sorted by energy ascending");
        let collapsed = set.iter().find(|s| s.energy == 1.5).unwrap();
        assert_eq!(collapsed.occurrences, 5);
    }

    #[test]
    fn best_prefers_occurrences_on_energy_ties() {
        // Two distinct assignments at the same energy: the one seen more
        // often sorts first, so best() is deterministic under ties.
        let tie = |occ: usize, s: [Spin; 2]| Sample {
            spins: s.to_vec(),
            energy: -1.0,
            occurrences: occ,
        };
        let set = SampleSet::from_samples(vec![
            tie(1, [Spin::Up, Spin::Down]),
            tie(4, [Spin::Down, Spin::Up]),
        ]);
        let best = set.best().unwrap();
        assert_eq!(best.spins, vec![Spin::Down, Spin::Up]);
        assert_eq!(best.occurrences, 4);
        // The same two samples in the opposite insertion order produce
        // the same best.
        let flipped = SampleSet::from_samples(vec![
            tie(4, [Spin::Down, Spin::Up]),
            tie(1, [Spin::Up, Spin::Down]),
        ]);
        assert_eq!(flipped.best().unwrap().spins, best.spins);
    }

    #[test]
    fn empty_set() {
        let set = SampleSet::default();
        assert!(set.is_empty());
        assert!(set.best().is_none());
        assert_eq!(set.ground_fraction(1e-9), 0.0);
    }
}
