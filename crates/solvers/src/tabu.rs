//! Tabu search — the core local-search move of D-Wave's classical
//! `qbsolv` tool (paper §3, §4.3, Appendix A).

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use qac_pbf::{CsrAdjacency, Ising, Spin};

use crate::{SampleSet, Sampler};

/// Single-flip tabu search: always take the best non-tabu flip (or a tabu
/// one that improves on the incumbent — aspiration), remembering recent
/// flips for `tenure` steps.
#[derive(Debug, Clone)]
pub struct TabuSearch {
    seed: u64,
    /// Steps a flipped variable stays tabu. `None` = n/4 + 1.
    tenure: Option<usize>,
    /// Total flips per restart. `None` = 50·n.
    steps: Option<usize>,
}

impl TabuSearch {
    /// A tabu sampler with default tenure and step budget.
    pub fn new(seed: u64) -> TabuSearch {
        TabuSearch {
            seed,
            tenure: None,
            steps: None,
        }
    }

    /// Sets the tabu tenure.
    ///
    /// Clamped to at least 1: a tenure of 0 would let the search flip the
    /// same variable back immediately and cycle, so 0 silently behaves
    /// as 1.
    pub fn with_tenure(mut self, tenure: usize) -> TabuSearch {
        self.tenure = Some(tenure.max(1));
        self
    }

    /// Sets the per-restart step budget.
    ///
    /// Clamped to at least 1 so a restart always evaluates at least one
    /// move; 0 silently behaves as 1.
    pub fn with_steps(mut self, steps: usize) -> TabuSearch {
        self.steps = Some(steps.max(1));
        self
    }

    fn tenure_and_steps(&self, n: usize) -> (usize, usize) {
        (
            self.tenure.unwrap_or(n / 4 + 1),
            self.steps.unwrap_or(50 * n),
        )
    }

    /// One tabu restart from a random start; returns the best assignment
    /// visited and the work done.
    ///
    /// `delta[i]` holds the energy change of flipping `i` at the current
    /// spins. A flip changes only the flipped variable's delta and its
    /// neighbours', so only those entries are refreshed — with the same
    /// [`Ising::flip_delta_csr`] call a full rescan would make, never an
    /// incremental ±2J update, so every table entry is bit-identical to
    /// a fresh evaluation and the walk matches the full-rescan kernel
    /// move for move.
    fn run_once(&self, model: &Ising, adj: &CsrAdjacency, seed: u64) -> (Vec<Spin>, TabuWork) {
        let n = model.num_vars();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut spins: Vec<Spin> = (0..n).map(|_| Spin::from(rng.gen::<bool>())).collect();
        let mut work = TabuWork::default();
        if n == 0 {
            return (spins, work);
        }
        let (tenure, steps) = self.tenure_and_steps(n);
        let mut energy = model.energy(&spins);
        let mut best_energy = energy;
        let mut best = spins.clone();
        let mut delta: Vec<f64> = (0..n)
            .map(|i| model.flip_delta_csr(&spins, i, adj.neighbors(i)))
            .collect();
        // tabu_until[i] = step index until which flipping i is forbidden.
        let mut tabu_until = vec![0usize; n];
        for step in 0..steps {
            work.steps += 1;
            // Pick the best admissible flip; the first index wins ties.
            let mut chosen: Option<(usize, f64)> = None;
            for (i, (&until, &d)) in tabu_until.iter().zip(&delta).enumerate() {
                // Aspiration: tabu moves are allowed if they beat the best.
                if until > step && energy + d >= best_energy - 1e-12 {
                    continue;
                }
                match chosen {
                    None => chosen = Some((i, d)),
                    Some((_, bd)) if d < bd => chosen = Some((i, d)),
                    _ => {}
                }
            }
            let Some((flip, d)) = chosen else {
                break; // everything tabu and nothing aspirational
            };
            spins[flip] = spins[flip].flipped();
            energy += d;
            tabu_until[flip] = step + tenure;
            work.flips += 1;
            delta[flip] = model.flip_delta_csr(&spins, flip, adj.neighbors(flip));
            for &(j, _) in adj.neighbors(flip) {
                let j = j as usize;
                delta[j] = model.flip_delta_csr(&spins, j, adj.neighbors(j));
            }
            if energy < best_energy - 1e-12 {
                best_energy = energy;
                best.copy_from_slice(&spins);
            }
        }
        (best, work)
    }

    /// The full-rescan kernel: every step re-evaluates all `n` flip
    /// deltas. Kept as the reference [`TabuSearch::run_once`] must match
    /// read for read.
    #[cfg(test)]
    fn run_once_reference(&self, model: &Ising, adj: &CsrAdjacency, seed: u64) -> Vec<Spin> {
        let n = model.num_vars();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut spins: Vec<Spin> = (0..n).map(|_| Spin::from(rng.gen::<bool>())).collect();
        if n == 0 {
            return spins;
        }
        let (tenure, steps) = self.tenure_and_steps(n);
        let mut energy = model.energy(&spins);
        let mut best_energy = energy;
        let mut best = spins.clone();
        let mut tabu_until = vec![0usize; n];
        for step in 0..steps {
            let mut chosen: Option<(usize, f64)> = None;
            for (i, &until) in tabu_until.iter().enumerate() {
                let delta = model.flip_delta_csr(&spins, i, adj.neighbors(i));
                let is_tabu = until > step;
                if is_tabu && energy + delta >= best_energy - 1e-12 {
                    continue;
                }
                match chosen {
                    None => chosen = Some((i, delta)),
                    Some((_, bd)) if delta < bd => chosen = Some((i, delta)),
                    _ => {}
                }
            }
            let Some((flip, delta)) = chosen else {
                break;
            };
            spins[flip] = spins[flip].flipped();
            energy += delta;
            tabu_until[flip] = step + tenure;
            if energy < best_energy - 1e-12 {
                best_energy = energy;
                best = spins.clone();
            }
        }
        best
    }
}

/// Work counts of tabu restarts: steps scanned (each scans all `n`
/// candidate flips) and moves taken.
#[derive(Debug, Clone, Copy, Default)]
struct TabuWork {
    steps: u64,
    flips: u64,
}

impl Sampler for TabuSearch {
    fn sample(&self, model: &Ising, num_reads: usize) -> SampleSet {
        let started = Instant::now();
        let adj = model.csr_adjacency();
        let mut work = TabuWork::default();
        let reads: Vec<Vec<Spin>> = (0..num_reads)
            .map(|r| {
                let (spins, read) = self.run_once(model, &adj, self.seed.wrapping_add(r as u64));
                work.steps += read.steps;
                work.flips += read.flips;
                spins
            })
            .collect();
        let set = SampleSet::from_reads(model, reads);
        crate::multispin::emit_sampler_metrics("tabu", num_reads, started, work.steps, work.flips);
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExactSolver;

    #[test]
    fn matches_exact_on_random_models() {
        let mut rng = StdRng::seed_from_u64(21);
        for case in 0..5 {
            let n = 12;
            let mut m = Ising::new(n);
            for i in 0..n {
                m.add_h(i, rng.gen_range(-1.0..1.0));
                for j in (i + 1)..n {
                    if rng.gen::<f64>() < 0.3 {
                        m.add_j(i, j, rng.gen_range(-1.0..1.0));
                    }
                }
            }
            let exact = ExactSolver::new().minimum_energy(&m);
            let best = TabuSearch::new(9).sample(&m, 8).best().unwrap().energy;
            assert!(
                (best - exact).abs() < 1e-9,
                "case {case}: {best} vs {exact}"
            );
        }
    }

    #[test]
    fn escapes_local_minima() {
        // A double-well: chain with competing fields; plain descent from
        // the wrong well stalls, tabu must cross.
        let mut m = Ising::new(4);
        m.add_h(0, 0.9);
        m.add_j(0, 1, -1.0);
        m.add_j(1, 2, -1.0);
        m.add_j(2, 3, -1.0);
        let exact = ExactSolver::new().minimum_energy(&m);
        let best = TabuSearch::new(3).sample(&m, 4).best().unwrap().energy;
        assert!((best - exact).abs() < 1e-9);
    }

    #[test]
    fn deterministic() {
        let mut m = Ising::new(6);
        m.add_j(0, 5, 1.0);
        m.add_h(2, -0.4);
        let t = TabuSearch::new(5);
        assert_eq!(t.sample(&m, 5), t.sample(&m, 5));
    }

    /// A random sparse model on `n` variables, about `degree` couplings
    /// per variable. Half the models draw coefficients from a small
    /// grid, so equal deltas (first-index ties) and exact aspiration
    /// boundaries occur often; every fifth variable is left isolated.
    fn sparse_model(seed: u64, n: usize, degree: f64) -> Ising {
        let mut rng = StdRng::seed_from_u64(seed);
        let grid = seed.is_multiple_of(2);
        let coefficient = move |rng: &mut StdRng| {
            if grid {
                [-1.0, -0.5, 0.5, 1.0][rng.gen_range(0..4usize)]
            } else {
                rng.gen_range(-1.0..1.0)
            }
        };
        let mut m = Ising::new(n);
        let p = (degree / n.max(2) as f64).min(1.0);
        for i in 0..n {
            if i % 5 == 4 {
                continue;
            }
            m.add_h(i, coefficient(&mut rng));
            for j in (i + 1)..n {
                if j % 5 != 4 && rng.gen::<f64>() < p {
                    m.add_j(i, j, coefficient(&mut rng));
                }
            }
        }
        m
    }

    /// Asserts the delta-table kernel walks exactly as the full-rescan
    /// reference does, read for read.
    fn assert_matches_reference(tabu: &TabuSearch, m: &Ising, what: &str) {
        let adj = m.csr_adjacency();
        for r in 0..4u64 {
            let seed = tabu.seed.wrapping_add(r);
            let (fast, work) = tabu.run_once(m, &adj, seed);
            let reference = tabu.run_once_reference(m, &adj, seed);
            assert_eq!(fast, reference, "{what}, read {r}");
            assert!(work.flips <= work.steps, "{what}: {work:?}");
        }
    }

    #[test]
    fn delta_table_matches_full_rescan_on_random_sparse_models() {
        for seed in 0..24u64 {
            let n = 1 + (seed as usize * 7) % 48;
            let m = sparse_model(seed, n, 3.0);
            assert_matches_reference(&TabuSearch::new(seed), &m, &format!("seed {seed} n {n}"));
        }
    }

    #[test]
    fn delta_table_matches_full_rescan_with_custom_tenure_and_steps() {
        type Build = fn(u64) -> TabuSearch;
        let configs: [(&str, Build); 9] = [
            ("tenure 1", |seed| TabuSearch::new(seed).with_tenure(1)),
            ("tenure 0", |seed| TabuSearch::new(seed).with_tenure(0)),
            ("tenure 2", |seed| TabuSearch::new(seed).with_tenure(2)),
            ("tenure 3", |seed| TabuSearch::new(seed).with_tenure(3)),
            ("tenure 64", |seed| TabuSearch::new(seed).with_tenure(64)),
            ("steps 1", |seed| TabuSearch::new(seed).with_steps(1)),
            ("steps 0", |seed| TabuSearch::new(seed).with_steps(0)),
            ("steps 37", |seed| TabuSearch::new(seed).with_steps(37)),
            ("tenure 1 steps 500", |seed| {
                TabuSearch::new(seed).with_tenure(1).with_steps(500)
            }),
        ];
        for seed in 0..20u64 {
            let m = sparse_model(100 + seed, 8 + seed as usize, 2.5);
            for (name, build) in configs {
                let tabu = build(seed * 31);
                assert_matches_reference(&tabu, &m, &format!("{name}, model {seed}"));
            }
        }
    }

    #[test]
    fn delta_table_handles_tiny_isolated_and_zero_coupled_models() {
        // n = 1, with and without a field.
        let mut one = Ising::new(1);
        assert_matches_reference(&TabuSearch::new(1), &one, "n = 1, empty");
        one.add_h(0, 0.75);
        assert_matches_reference(&TabuSearch::new(1), &one, "n = 1");
        // No couplings at all: every variable is isolated.
        let mut fields = Ising::new(6);
        for i in 0..6 {
            fields.add_h(i, if i % 2 == 0 { 0.5 } else { -0.25 });
        }
        assert_matches_reference(&TabuSearch::new(2), &fields, "isolated");
        // Couplings that cancel to zero stay in the model but not in the
        // CSR rows, so they neither feed a delta nor trigger a refresh.
        // (`sparse_model` leaves variables 4 and 9 uncoupled.)
        let mut zeros = sparse_model(7, 12, 3.0);
        zeros.add_j(4, 9, 0.5);
        zeros.add_j(4, 9, -0.5);
        zeros.add_j(0, 4, 0.0);
        zeros.add_j(9, 11, 0.25);
        zeros.add_j(9, 11, -0.25);
        let adj = zeros.csr_adjacency();
        assert!(adj.neighbors(4).is_empty() && adj.neighbors(9).is_empty());
        for tabu in [TabuSearch::new(3), TabuSearch::new(3).with_tenure(2)] {
            assert_matches_reference(&tabu, &zeros, "zero couplings");
        }
    }

    #[test]
    fn sample_set_matches_the_reference_reads() {
        let m = sparse_model(4, 30, 3.0);
        let tabu = TabuSearch::new(77);
        let adj = m.csr_adjacency();
        let reads = (0..6)
            .map(|r| tabu.run_once_reference(&m, &adj, 77 + r))
            .collect();
        assert_eq!(tabu.sample(&m, 6), SampleSet::from_reads(&m, reads));
    }

    #[test]
    fn work_counts_steps_and_moves() {
        let m = sparse_model(5, 20, 3.0);
        let adj = m.csr_adjacency();
        // Under tenure 1 a flipped variable is admissible again on the
        // next step, so no scan comes up empty and each of the default
        // 50·n steps takes one move.
        let (_, work) = TabuSearch::new(5).with_tenure(1).run_once(&m, &adj, 5);
        assert_eq!((work.steps, work.flips), (1000, 1000));
        // One variable under tenure 2: after the first move the only
        // candidate is tabu and cannot beat the best, so the second scan
        // finds nothing and the restart ends.
        let mut one = Ising::new(1);
        one.add_h(0, 1.0);
        let tabu = TabuSearch::new(1).with_tenure(2);
        let (_, work) = tabu.run_once(&one, &one.csr_adjacency(), 1);
        assert_eq!((work.steps, work.flips), (2, 1));
    }
}
