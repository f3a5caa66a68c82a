//! qbsolv-style decomposition: solve problems larger than the hardware
//! (or sub-solver) budget by repeatedly optimizing high-impact
//! subproblems with everything else clamped (paper §3, §4.3: qbsolv "can
//! split large problems into sub-problems that fit on the D-Wave
//! hardware").

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use qac_pbf::{CsrAdjacency, Ising, Spin};

use crate::{ExactSolver, SampleSet, Sampler, TabuSearch};

/// The decomposing solver.
#[derive(Debug, Clone)]
pub struct QbsolvStyle {
    seed: u64,
    /// Maximum subproblem size handed to the sub-solver.
    subproblem_size: usize,
    /// Outer iterations without improvement before stopping.
    patience: usize,
    /// Hard cap on outer iterations.
    max_iterations: usize,
}

impl QbsolvStyle {
    /// A decomposer with qbsolv-like defaults (subproblems of 40
    /// variables).
    pub fn new(seed: u64) -> QbsolvStyle {
        QbsolvStyle {
            seed,
            subproblem_size: 40,
            patience: 12,
            max_iterations: 200,
        }
    }

    /// Sets the subproblem size (the "hardware capacity").
    ///
    /// Clamped to at least 2: a 1-variable subproblem cannot carry any
    /// coupling, so 0 and 1 silently behave as 2.
    pub fn with_subproblem_size(mut self, size: usize) -> QbsolvStyle {
        self.subproblem_size = size.max(2);
        self
    }

    /// Sets the no-improvement patience.
    ///
    /// Clamped to at least 1 so the outer loop always tolerates one stale
    /// iteration; 0 silently behaves as 1.
    pub fn with_patience(mut self, patience: usize) -> QbsolvStyle {
        self.patience = patience.max(1);
        self
    }

    /// One decomposition run from a random start.
    fn run_once(&self, model: &Ising, adj: &CsrAdjacency, seed: u64) -> Vec<Spin> {
        let n = model.num_vars();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut spins: Vec<Spin> = (0..n).map(|_| Spin::from(rng.gen::<bool>())).collect();
        if n == 0 {
            return spins;
        }
        if n <= self.subproblem_size {
            // No decomposition needed: one sub-solve over everything.
            return self.solve_sub(model, &spins, &(0..n).collect::<Vec<_>>(), seed);
        }
        let mut energy = model.energy(&spins);
        let mut stale = 0usize;
        for iter in 0..self.max_iterations {
            // Alternate between impact-guided and purely random subsets —
            // impact exploits, random subsets let boundary regions be
            // re-optimized jointly (qbsolv interleaves tabu phases for the
            // same reason).
            let selected: Vec<usize> = if iter % 2 == 0 {
                let mut impact: Vec<(f64, usize)> = (0..n)
                    .map(|i| (model.flip_delta_csr(&spins, i, adj.neighbors(i)), i))
                    .collect();
                impact.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
                let core = self.subproblem_size * 3 / 4;
                let mut selected: Vec<usize> = impact.iter().take(core).map(|&(_, i)| i).collect();
                let mut rest: Vec<usize> = impact.iter().skip(core).map(|&(_, i)| i).collect();
                rest.shuffle(&mut rng);
                selected.extend(rest.into_iter().take(self.subproblem_size - core));
                selected
            } else {
                let mut all: Vec<usize> = (0..n).collect();
                all.shuffle(&mut rng);
                all.truncate(self.subproblem_size);
                all
            };
            let new_spins =
                self.solve_sub(model, &spins, &selected, seed.wrapping_add(1 + iter as u64));
            let new_energy = model.energy(&new_spins);
            if new_energy < energy - 1e-12 {
                energy = new_energy;
                spins = new_spins;
                stale = 0;
            } else {
                stale += 1;
                if stale >= self.patience {
                    break;
                }
            }
        }
        spins
    }

    /// Solves the subproblem over `selected` with all other spins clamped,
    /// returning the full updated assignment.
    fn solve_sub(&self, model: &Ising, spins: &[Spin], selected: &[usize], seed: u64) -> Vec<Spin> {
        let k = selected.len();
        let mut position = vec![usize::MAX; model.num_vars()];
        for (pos, &v) in selected.iter().enumerate() {
            position[v] = pos;
        }
        // Conditioned submodel: clamped neighbors fold into fields.
        let mut sub = Ising::new(k);
        for (pos, &v) in selected.iter().enumerate() {
            sub.add_h(pos, model.h(v));
        }
        for t in model.j_iter() {
            match (position[t.i], position[t.j]) {
                (usize::MAX, usize::MAX) => {}
                (pi, usize::MAX) => sub.add_h(pi, t.value * spins[t.j].value()),
                (usize::MAX, pj) => sub.add_h(pj, t.value * spins[t.i].value()),
                (pi, pj) => sub.add_j(pi, pj, t.value),
            }
        }
        let solution = if k <= 22 {
            ExactSolver::new().ground_states(&sub, 1e-9).1.remove(0)
        } else {
            TabuSearch::new(seed)
                .sample(&sub, 3)
                .best()
                .expect("tabu returns at least one sample")
                .spins
                .clone()
        };
        let mut out = spins.to_vec();
        for (pos, &v) in selected.iter().enumerate() {
            out[v] = solution[pos];
        }
        out
    }
}

impl Sampler for QbsolvStyle {
    fn sample(&self, model: &Ising, num_reads: usize) -> SampleSet {
        let adj = model.csr_adjacency();
        let reads: Vec<Vec<Spin>> = (0..num_reads)
            .map(|r| self.run_once(model, &adj, self.seed.wrapping_add(1000 * r as u64)))
            .collect();
        SampleSet::from_reads(model, reads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn random_model(seed: u64, n: usize, density: f64) -> Ising {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut m = Ising::new(n);
        for i in 0..n {
            m.add_h(i, rng.gen_range(-1.0..1.0));
            for j in (i + 1)..n {
                if rng.gen::<f64>() < density {
                    m.add_j(i, j, rng.gen_range(-1.0..1.0));
                }
            }
        }
        m
    }

    #[test]
    fn matches_exact_on_small_problems() {
        for seed in 0..3 {
            let m = random_model(seed, 14, 0.3);
            let exact = ExactSolver::new().minimum_energy(&m);
            let q = QbsolvStyle::new(1).with_subproblem_size(8);
            let best = q.sample(&m, 6).best().unwrap().energy;
            assert!(
                (best - exact).abs() < 1e-9,
                "seed {seed}: {best} vs {exact}"
            );
        }
    }

    #[test]
    fn handles_problems_larger_than_subsolver() {
        // 60 variables with subproblems of 16: must decompose.
        let m = random_model(9, 60, 0.08);
        let q = QbsolvStyle::new(2).with_subproblem_size(16);
        let best = q.sample(&m, 4).best().unwrap().energy;
        // Compare against long tabu as a strong reference.
        let reference = TabuSearch::new(3).sample(&m, 20).best().unwrap().energy;
        assert!(
            best <= reference + 0.5,
            "decomposer {best} much worse than tabu {reference}"
        );
    }

    #[test]
    fn deterministic() {
        let m = random_model(5, 30, 0.1);
        let q = QbsolvStyle::new(8).with_subproblem_size(12);
        assert_eq!(q.sample(&m, 3), q.sample(&m, 3));
    }
}
