//! Simulated quantum annealing by path-integral Monte Carlo.
//!
//! The transverse-field Ising Hamiltonian that a quantum annealer
//! physically implements can be simulated classically via the
//! Suzuki–Trotter decomposition: `P` replicas ("Trotter slices") of the
//! classical model, coupled ferromagnetically between adjacent slices
//! with a strength derived from the transverse field Γ. This is the
//! algorithm behind Hitachi's "simulated quantum annealer" the paper
//! cites (§2).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use qac_pbf::{CsrAdjacency, Ising, Spin};

use crate::{SampleSet, Sampler};

/// Path-integral Monte Carlo simulated quantum annealing.
#[derive(Debug, Clone)]
pub struct Sqa {
    seed: u64,
    /// Trotter slices.
    slices: usize,
    /// Monte Carlo sweeps over all slices.
    sweeps: usize,
    /// Initial transverse field Γ₀ (linearly annealed to ~0).
    gamma0: f64,
    /// Simulation temperature T (in energy units).
    temperature: f64,
}

impl Sqa {
    /// A sampler with the given seed and conventional defaults
    /// (20 slices, 256 sweeps, Γ₀ = 3, T = 0.05).
    pub fn new(seed: u64) -> Sqa {
        Sqa {
            seed,
            slices: 20,
            sweeps: 256,
            gamma0: 3.0,
            temperature: 0.05,
        }
    }

    /// Sets the number of Trotter slices.
    ///
    /// Clamped to at least 2: the Suzuki–Trotter inter-slice coupling is
    /// undefined for a single replica, so 0 and 1 silently behave as 2.
    pub fn with_slices(mut self, slices: usize) -> Sqa {
        self.slices = slices.max(2);
        self
    }

    /// Sets the sweep count.
    ///
    /// Clamped to at least 1: zero sweeps would return unannealed random
    /// replicas, so 0 silently behaves as 1.
    pub fn with_sweeps(mut self, sweeps: usize) -> Sqa {
        self.sweeps = sweeps.max(1);
        self
    }

    /// Sets the initial transverse field.
    pub fn with_gamma(mut self, gamma0: f64) -> Sqa {
        assert!(gamma0 > 0.0, "Γ₀ must be positive");
        self.gamma0 = gamma0;
        self
    }

    /// Sets the simulation temperature.
    pub fn with_temperature(mut self, temperature: f64) -> Sqa {
        assert!(temperature > 0.0, "temperature must be positive");
        self.temperature = temperature;
        self
    }

    fn anneal_once(&self, model: &Ising, adj: &CsrAdjacency, seed: u64) -> Vec<Spin> {
        let n = model.num_vars();
        let p = self.slices;
        let mut rng = StdRng::seed_from_u64(seed);
        if n == 0 {
            return Vec::new();
        }
        // replicas[k][i] = spin of variable i in slice k.
        let mut replicas: Vec<Vec<Spin>> = (0..p)
            .map(|_| (0..n).map(|_| Spin::from(rng.gen::<bool>())).collect())
            .collect();
        let pt = p as f64 * self.temperature;
        let beta = 1.0 / self.temperature;
        for sweep in 0..self.sweeps {
            // Γ anneals linearly to (nearly) zero.
            let frac = 1.0 - (sweep as f64 / self.sweeps as f64);
            let gamma = (self.gamma0 * frac).max(1e-9);
            // J⊥ = −(PT/2)·ln tanh(Γ/(PT)) — the Trotter inter-slice coupling.
            let j_perp = -(pt / 2.0) * (gamma / pt).tanh().ln();
            for k in 0..p {
                let up = (k + 1) % p;
                let down = (k + p - 1) % p;
                for i in 0..n {
                    // Classical part, scaled 1/P per slice.
                    let classical =
                        model.flip_delta_csr(&replicas[k], i, adj.neighbors(i)) / p as f64;
                    // Quantum part: coupling to the same spin in adjacent
                    // slices with strength J⊥.
                    let si = replicas[k][i].value();
                    let neighbors_sum = replicas[up][i].value() + replicas[down][i].value();
                    let quantum = 2.0 * j_perp * si * neighbors_sum;
                    let delta = classical + quantum;
                    if delta <= 0.0 || rng.gen::<f64>() < (-beta * delta).exp() {
                        replicas[k][i] = replicas[k][i].flipped();
                    }
                }
            }
        }
        // Return the best slice, after greedy descent.
        let mut best: Option<(f64, Vec<Spin>)> = None;
        for mut slice in replicas {
            let mut improved = true;
            while improved {
                improved = false;
                for i in 0..n {
                    if model.flip_delta_csr(&slice, i, adj.neighbors(i)) < -1e-12 {
                        slice[i] = slice[i].flipped();
                        improved = true;
                    }
                }
            }
            let e = model.energy(&slice);
            if best.as_ref().is_none_or(|(be, _)| e < *be) {
                best = Some((e, slice));
            }
        }
        best.expect("at least one slice").1
    }
}

impl Sampler for Sqa {
    fn sample(&self, model: &Ising, num_reads: usize) -> SampleSet {
        let adj = model.csr_adjacency();
        let reads: Vec<Vec<Spin>> = (0..num_reads)
            .map(|r| self.anneal_once(model, &adj, self.seed.wrapping_add(r as u64)))
            .collect();
        SampleSet::from_reads(model, reads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExactSolver;

    #[test]
    fn solves_small_frustrated_models() {
        let mut rng = StdRng::seed_from_u64(11);
        for case in 0..3 {
            let n = 8;
            let mut m = Ising::new(n);
            for i in 0..n {
                m.add_h(i, rng.gen_range(-1.0..1.0));
                for j in (i + 1)..n {
                    if rng.gen::<f64>() < 0.5 {
                        m.add_j(i, j, rng.gen_range(-1.0..1.0));
                    }
                }
            }
            let exact = ExactSolver::new().minimum_energy(&m);
            let sqa = Sqa::new(5).with_sweeps(150).with_slices(10);
            let best = sqa.sample(&m, 15).best().unwrap().energy;
            assert!(
                (best - exact).abs() < 1e-9,
                "case {case}: {best} vs {exact}"
            );
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let mut m = Ising::new(5);
        m.add_j(0, 1, -1.0);
        m.add_j(1, 2, 1.0);
        m.add_h(3, 0.5);
        let sqa = Sqa::new(77).with_sweeps(50);
        assert_eq!(sqa.sample(&m, 5), sqa.sample(&m, 5));
    }

    #[test]
    fn empty_model_ok() {
        let set = Sqa::new(1).sample(&Ising::new(0), 2);
        assert_eq!(set.total_reads(), 2);
    }
}
