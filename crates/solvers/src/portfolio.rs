//! Parallel sampler portfolios.
//!
//! Every stochastic sampler here is an independent-restart method: reads
//! only share a base seed. A [`Portfolio`] exploits that by splitting the
//! read budget across N differently-seeded copies of the same sampler
//! ("arms"), running the arms on separate threads, and merging the arms'
//! sample sets into one. The result is deterministic for a fixed
//! configuration — arm seeds are derived, not scheduled — and equivalent
//! in read count to the single-sampler call it replaces.

use parking_lot::Mutex;

use qac_pbf::Ising;

use crate::{
    BitParallelSa, DWaveSim, ParallelTempering, PopulationAnnealing, QbsolvStyle, SampleSet,
    Sampler, Sqa, TabuSearch,
};

/// Samplers that can produce a differently-seeded copy of themselves
/// (same configuration, fresh random stream) — the requirement for being
/// portfolio arms.
pub trait Reseed: Sized {
    /// A copy of this sampler whose base seed is `seed`.
    fn reseed(&self, seed: u64) -> Self;
}

impl Reseed for BitParallelSa {
    fn reseed(&self, seed: u64) -> BitParallelSa {
        self.clone().with_seed(seed)
    }
}

impl Reseed for ParallelTempering {
    fn reseed(&self, seed: u64) -> ParallelTempering {
        self.clone().with_seed(seed)
    }
}

impl Reseed for PopulationAnnealing {
    fn reseed(&self, seed: u64) -> PopulationAnnealing {
        self.clone().with_seed(seed)
    }
}

impl Reseed for Sqa {
    fn reseed(&self, seed: u64) -> Sqa {
        self.clone().with_seed(seed)
    }
}

impl Reseed for TabuSearch {
    fn reseed(&self, seed: u64) -> TabuSearch {
        self.clone().with_seed(seed)
    }
}

impl Reseed for QbsolvStyle {
    fn reseed(&self, seed: u64) -> QbsolvStyle {
        self.clone().with_seed(seed)
    }
}

impl Reseed for DWaveSim {
    fn reseed(&self, seed: u64) -> DWaveSim {
        let mut options = self.options().clone();
        options.seed = seed;
        DWaveSim::new(options)
    }
}

/// Runs N differently-seeded copies of a base sampler in parallel and
/// merges their reads (restart-portfolio parallelism).
///
/// Reads are split as evenly as possible across arms (earlier arms take
/// the remainder); arm `i` is reseeded with a seed derived from the base
/// sampler-independent portfolio seed, with arm 0 keeping it verbatim.
#[derive(Debug, Clone)]
pub struct Portfolio<S> {
    base: S,
    arms: usize,
    seed: u64,
}

impl<S> Portfolio<S> {
    /// A portfolio of `arms` copies of `base`.
    ///
    /// `arms` is clamped to at least 1 (a 0-arm portfolio would sample
    /// nothing and make every run look UNSAT).
    pub fn new(base: S, arms: usize) -> Portfolio<S> {
        Portfolio {
            base,
            arms: arms.max(1),
            seed: 0x9027_f011_0a5e_ed00,
        }
    }

    /// Replaces the seed the arm seeds are derived from.
    pub fn with_seed(mut self, seed: u64) -> Portfolio<S> {
        self.seed = seed;
        self
    }

    /// Number of arms.
    pub fn arms(&self) -> usize {
        self.arms
    }

    /// The seed arm `arm` runs with: `seed + arm·γ` for the golden-ratio
    /// increment γ. γ is odd, so `arm ↦ arm·γ (mod 2⁶⁴)` is a bijection
    /// and arm seeds are pairwise distinct for every base seed — no two
    /// arms can ever share an RNG stream (tested below; the engine's
    /// retry seeds use the splitmix *finalizer* on top of the same γ
    /// spacing, keeping the two seed families decorrelated).
    pub fn arm_seed(&self, arm: usize) -> u64 {
        self.seed
            .wrapping_add((arm as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }
}

impl<S: Sampler + Reseed + Send + Sync> Sampler for Portfolio<S> {
    fn sample(&self, model: &Ising, num_reads: usize) -> SampleSet {
        // Never give an arm zero reads: samplers treat 0 as "no work".
        let arms = self.arms.min(num_reads.max(1));
        let base_reads = num_reads / arms;
        let remainder = num_reads % arms;
        let telemetry = qac_telemetry::global();
        // Arms run on spawned threads, which have empty span stacks; an
        // explicit parent keeps the arm spans under the caller's span,
        // and the captured trace id keeps arm flight events attributed
        // to the requesting job.
        let parent = telemetry.current();
        let trace = qac_telemetry::current_trace();
        let results: Mutex<Vec<Option<SampleSet>>> = Mutex::new(vec![None; arms]);
        crossbeam::scope(|scope| {
            for arm in 0..arms {
                let results = &results;
                let sampler = self.base.reseed(self.arm_seed(arm));
                let arm_reads = base_reads + usize::from(arm < remainder);
                scope.spawn(move |_| {
                    let _trace = qac_telemetry::TraceScope::enter(trace);
                    let mut span = telemetry.span_under(&format!("arm:{arm}"), parent);
                    span.arg("reads", arm_reads as f64);
                    let set = sampler.sample(model, arm_reads);
                    results.lock()[arm] = Some(set);
                });
            }
        })
        .expect("portfolio arms do not panic");
        let sets: Vec<SampleSet> = results
            .into_inner()
            .into_iter()
            .map(|s| s.expect("every arm ran"))
            .collect();
        // The winning arm is the (first) one whose best read reaches the
        // merged best energy.
        let winner = sets
            .iter()
            .enumerate()
            .filter_map(|(arm, set)| set.best().map(|b| (arm, b.energy)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        if let Some((arm, energy)) = winner {
            if telemetry.is_enabled() {
                telemetry.counter_add(&format!("qac_portfolio_arm_wins_total{{arm=\"{arm}\"}}"), 1);
            }
            // The flight recorder is always-on: a post-mortem of a job
            // that sampled badly should show which arm carried it.
            qac_telemetry::global_flight().record(
                qac_telemetry::FlightKind::ArmWin,
                &format!("arm:{arm}"),
                energy,
            );
        }
        SampleSet::merge(sets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn frustrated_model(seed: u64, n: usize) -> Ising {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut m = Ising::new(n);
        for i in 0..n {
            m.add_h(i, rng.gen_range(-1.0..1.0));
            for j in (i + 1)..n {
                if rng.gen::<f64>() < 0.4 {
                    m.add_j(i, j, rng.gen_range(-1.0..1.0));
                }
            }
        }
        m
    }

    #[test]
    fn read_budget_is_preserved() {
        let m = frustrated_model(1, 10);
        for (arms, reads) in [(1, 10), (3, 10), (4, 7), (8, 3)] {
            let p = Portfolio::new(BitParallelSa::new(2).with_sweeps(20), arms);
            let set = p.sample(&m, reads);
            assert_eq!(set.total_reads(), reads, "arms={arms} reads={reads}");
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let m = frustrated_model(2, 12);
        let p = Portfolio::new(TabuSearch::new(0), 4).with_seed(9);
        assert_eq!(p.sample(&m, 13), p.sample(&m, 13));
    }

    #[test]
    fn at_least_as_good_as_the_worst_arm() {
        // The merged best is the min over arm bests by construction.
        let m = frustrated_model(3, 14);
        let p = Portfolio::new(BitParallelSa::new(0).with_sweeps(30), 4).with_seed(5);
        let merged_best = p.sample(&m, 8).best().unwrap().energy;
        for arm in 0..4 {
            let solo = BitParallelSa::new(0)
                .with_sweeps(30)
                .reseed(p.arm_seed(arm));
            let arm_best = solo.sample(&m, 2).best().unwrap().energy;
            assert!(merged_best <= arm_best + 1e-9, "arm {arm}");
        }
    }

    #[test]
    fn arm_seeds_are_pairwise_distinct() {
        // The Reseed audit: portfolio arms must never silently share an
        // RNG stream. Distinctness is structural (γ is odd, so arm·γ is
        // injective mod 2⁶⁴); pin it over a large arm count and several
        // base seeds, including ones adjacent to γ multiples.
        use std::collections::HashSet;
        for base in [0u64, 1, 0x9e37_79b9_7f4a_7c15, u64::MAX - 3] {
            let p = Portfolio::new(TabuSearch::new(0), 1024).with_seed(base);
            let seeds: HashSet<u64> = (0..1024).map(|arm| p.arm_seed(arm)).collect();
            assert_eq!(seeds.len(), 1024, "collision under base seed {base:#x}");
        }
    }

    #[test]
    fn zero_reads_and_zero_arms_degrade_gracefully() {
        let m = frustrated_model(4, 6);
        let p = Portfolio::new(BitParallelSa::new(1).with_sweeps(5), 0);
        assert_eq!(p.arms(), 1);
        let set = p.sample(&m, 0);
        assert_eq!(set.total_reads(), 0);
    }
}
