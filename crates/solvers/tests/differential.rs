//! Differential testing of every heuristic sampler against the exact
//! enumerator.
//!
//! Two properties over a corpus of random Ising models small enough to
//! enumerate (≤ 12 variables):
//!
//! 1. **Soundness** — no sampler may ever report an energy *below* the
//!    exact ground energy. A violation means the sampler evaluates
//!    energies under a different model than it was handed (the classic
//!    decode/offset bug class).
//! 2. **Usefulness** — each sampler must *reach* the ground energy on at
//!    least a threshold fraction of the corpus. These models are tiny;
//!    a solver that misses ground on many of them is broken, not
//!    unlucky.
//!
//! On a soundness violation the harness greedily shrinks the offending
//! model (deleting h/J terms while the violation persists) and panics
//! with a reproduction: the minimized model as constructor code. The
//! `#[should_panic]` test at the bottom wires a deliberately broken
//! sampler through the same harness to prove failures are loud.

use qac_pbf::Ising;
use qac_solvers::{BitParallelSa, ExactSolver, Sample, SampleSet, Sampler, TabuSearch};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Energy slack for float comparison. Term magnitudes are ≤ 2 and models
/// have ≤ 78 terms, so accumulated error is far below this.
const EPS: f64 = 1e-6;

/// Corpus size (per ISSUE: ~200 random models).
const MODELS: usize = 200;

const READS: usize = 16;

/// A model as an explicit term list, so the shrinker can delete terms
/// one at a time and the reproduction printer can emit constructor code.
#[derive(Clone)]
enum Term {
    H(usize, f64),
    J(usize, usize, f64),
}

fn build(num_vars: usize, terms: &[Term]) -> Ising {
    let mut m = Ising::new(num_vars);
    for t in terms {
        match *t {
            Term::H(i, v) => m.add_h(i, v),
            Term::J(i, j, v) => m.add_j(i, j, v),
        }
    }
    m
}

fn render(num_vars: usize, terms: &[Term]) -> String {
    let mut code = format!("let mut m = Ising::new({num_vars});\n");
    for t in terms {
        match *t {
            Term::H(i, v) => code.push_str(&format!("m.add_h({i}, {v:?});\n")),
            Term::J(i, j, v) => code.push_str(&format!("m.add_j({i}, {j}, {v:?});\n")),
        }
    }
    code
}

/// A random frustrated model: 2–12 variables, biases and couplings in
/// (−2, 2), coupling density ~40%.
fn random_model(seed: u64) -> (usize, Vec<Term>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(2..=12);
    let mut terms = Vec::new();
    for i in 0..n {
        if rng.gen::<f64>() < 0.7 {
            terms.push(Term::H(i, rng.gen_range(-2.0..2.0)));
        }
        for j in (i + 1)..n {
            if rng.gen::<f64>() < 0.4 {
                terms.push(Term::J(i, j, rng.gen_range(-2.0..2.0)));
            }
        }
    }
    (n, terms)
}

/// The reported best energy if the sampler claims to beat the exact
/// ground energy on this model, else `None`.
fn soundness_violation(sampler: &dyn Sampler, num_vars: usize, terms: &[Term]) -> Option<f64> {
    let model = build(num_vars, terms);
    let ground = ExactSolver::new().minimum_energy(&model);
    let best = sampler.sample(&model, READS).best()?.energy;
    (best < ground - EPS).then_some(best)
}

/// Greedily deletes terms while the violation persists, then panics with
/// the minimized reproduction.
fn shrink_and_report(
    name: &str,
    sampler: &dyn Sampler,
    num_vars: usize,
    mut terms: Vec<Term>,
) -> ! {
    loop {
        let mut shrunk = false;
        let mut i = 0;
        while i < terms.len() {
            let mut candidate = terms.clone();
            candidate.remove(i);
            if soundness_violation(sampler, num_vars, &candidate).is_some() {
                terms = candidate;
                shrunk = true;
            } else {
                i += 1;
            }
        }
        if !shrunk {
            break;
        }
    }
    let model = build(num_vars, &terms);
    let ground = ExactSolver::new().minimum_energy(&model);
    let best = sampler
        .sample(&model, READS)
        .best()
        .map(|s| s.energy)
        .unwrap_or(f64::NAN);
    panic!(
        "sampler `{name}` reported energy {best} below the exact ground energy {ground}\n\
         minimized reproduction ({} terms):\n{}",
        terms.len(),
        render(num_vars, &terms),
    );
}

/// Runs the full corpus through `sampler`, panicking (with a shrunk
/// reproduction) on any below-ground report, and returns the fraction of
/// models on which the sampler reached the exact ground energy.
fn differential_sweep(name: &str, sampler: &dyn Sampler) -> f64 {
    let mut reached = 0usize;
    for case in 0..MODELS {
        let (num_vars, terms) = random_model(0x1_d1ff + case as u64);
        let model = build(num_vars, &terms);
        let ground = ExactSolver::new().minimum_energy(&model);
        let best = sampler
            .sample(&model, READS)
            .best()
            .unwrap_or_else(|| panic!("sampler `{name}` returned no samples on model {case}"))
            .energy;
        if best < ground - EPS {
            shrink_and_report(name, sampler, num_vars, terms);
        }
        if best <= ground + EPS {
            reached += 1;
        }
    }
    reached as f64 / MODELS as f64
}

fn assert_reaches_ground(name: &str, sampler: &dyn Sampler, threshold: f64) {
    let fraction = differential_sweep(name, sampler);
    assert!(
        fraction >= threshold,
        "sampler `{name}` reached the ground energy on only {:.0}% of {MODELS} \
         random ≤12-var models (threshold {:.0}%)",
        fraction * 100.0,
        threshold * 100.0,
    );
}

#[test]
fn tabu_matches_exact_enumeration() {
    assert_reaches_ground("tabu", &TabuSearch::new(12), 0.95);
}

#[test]
fn bit_parallel_sa_matches_exact_enumeration() {
    let sa = BitParallelSa::new(15).with_sweeps(100);
    assert_reaches_ground("sa", &sa, 0.95);
}

/// A sampler that under-reports every energy by 0.5 — the bug class the
/// soundness property exists to catch.
struct EnergyDeflator<S>(S);

impl<S: Sampler> Sampler for EnergyDeflator<S> {
    fn sample(&self, model: &Ising, num_reads: usize) -> SampleSet {
        let honest = self.0.sample(model, num_reads);
        SampleSet::from_samples(
            honest
                .iter()
                .map(|s| Sample {
                    spins: s.spins.clone(),
                    energy: s.energy - 0.5,
                    occurrences: s.occurrences,
                })
                .collect(),
        )
    }
}

#[test]
#[should_panic(expected = "below the exact ground energy")]
fn harness_fails_loudly_on_a_broken_sampler() {
    differential_sweep("deflated-tabu", &EnergyDeflator(TabuSearch::new(1)));
}

#[test]
#[should_panic(expected = "below the exact ground energy")]
fn harness_shrinks_the_packed_samplers_too() {
    // The shrinker must work for the packed-lane sampler as well: wire
    // a deflated bit-parallel sampler through the same harness.
    differential_sweep("deflated-bp", &EnergyDeflator(BitParallelSa::new(1)));
}
