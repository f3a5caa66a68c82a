//! Lane-level properties of the packed multi-spin kernel.
//!
//! Three families of guarantees, all aimed at the failure modes that
//! word packing introduces and that whole-distribution goldens would
//! only catch by accident:
//!
//! 1. **Lane equivalence** — the 64-wide packed kernel must produce
//!    *byte-identical* sample sets to the scalar mask-width-1 reference
//!    ([`BitParallelSa::sample_reference`]) for any model, seed, and
//!    read count. The kernel has no cross-lane reductions, so this is
//!    an exact property, not a statistical one.
//! 2. **Partial-word masking** — variables live one word per spin but
//!    replicas share bit positions, so read counts that are not a
//!    multiple of 64 leave inactive lanes in the top bits. Those lanes
//!    must never leak into results (1, 63, 64, 65 variables; 0, 1, and
//!    odd read counts).
//! 3. **Thread invariance** — words are annealed on worker threads, so
//!    the sample distribution must not depend on the thread count.

use proptest::prelude::*;
use qac_pbf::Ising;
use qac_solvers::{BitParallelSa, SampleSet, Sampler};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Flattens a sample set to comparable strings (spins, energy,
/// occurrences) so equality failures print the whole distribution.
fn encode(set: &SampleSet) -> Vec<String> {
    set.iter()
        .map(|s| {
            let bits: String = s
                .spins
                .iter()
                .map(|sp| if sp.value() > 0.0 { '1' } else { '0' })
                .collect();
            format!("{}x{}@{:.12}", s.occurrences, bits, s.energy)
        })
        .collect()
}

/// Strategy producing a random small Ising model (1..=10 variables,
/// ~40% coupling density, terms in (−2, 2)).
fn arb_ising() -> impl Strategy<Value = Ising> {
    (1usize..=10, any::<u64>()).prop_map(|(n, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut m = Ising::new(n);
        for i in 0..n {
            if rng.gen::<f64>() < 0.7 {
                m.add_h(i, rng.gen_range(-2.0..2.0));
            }
            for j in (i + 1)..n {
                if rng.gen::<f64>() < 0.4 {
                    m.add_j(i, j, rng.gen_range(-2.0..2.0));
                }
            }
        }
        m
    })
}

proptest! {
    // Keep the case count moderate: every case runs a full anneal twice.
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The packed kernel agrees with the scalar single-lane reference
    /// bit for bit — including read counts straddling word boundaries.
    #[test]
    fn packed_lanes_match_scalar_reference(
        model in arb_ising(),
        seed in any::<u64>(),
        num_reads in prop_oneof![1usize..=70, Just(100usize), Just(128usize)],
    ) {
        let bp = BitParallelSa::new(seed).with_sweeps(40);
        prop_assert_eq!(
            encode(&bp.sample(&model, num_reads)),
            encode(&bp.sample_reference(&model, num_reads)),
            "packed kernel diverged from the scalar reference \
             (seed {}, {} reads)", seed, num_reads
        );
    }
}

/// A ferromagnetic chain with a uniform positive bias: the unique
/// ground state is all-down at energy −(n−1) − 0.1·n, trivially
/// reachable, so any pollution from inactive lanes or out-of-range
/// variables shows up as a wrong best energy or spin count.
fn chain(n: usize) -> Ising {
    let mut m = Ising::new(n);
    for i in 0..n {
        m.add_h(i, 0.1);
        if i + 1 < n {
            m.add_j(i, i + 1, -1.0);
        }
    }
    m
}

fn chain_ground(n: usize) -> f64 {
    -((n - 1) as f64) - 0.1 * n as f64
}

#[test]
fn partial_words_mask_inactive_lanes() {
    // 1 variable exercises the degenerate single-word model; 63/64/65
    // straddle the word boundary in the *read* direction (lanes), and
    // 65 reads below forces a partial final word of replicas.
    for n in [1usize, 63, 64, 65] {
        let model = chain(n);
        let ground = if n == 1 { -0.1 } else { chain_ground(n) };
        let sampler = BitParallelSa::new(5).with_sweeps(80);
        for num_reads in [1usize, 5, 63, 65] {
            let set = sampler.sample(&model, num_reads);
            assert_eq!(
                set.total_reads(),
                num_reads,
                "lost reads at n={n}, num_reads={num_reads}"
            );
            for s in set.iter() {
                assert_eq!(s.spins.len(), n, "wrong spin count at n={n}");
                let recomputed = model.energy(&s.spins);
                assert!(
                    (s.energy - recomputed).abs() < 1e-6,
                    "reported energy {} but the model evaluates to \
                     {recomputed} at n={n}",
                    s.energy
                );
                assert!(
                    s.energy >= ground - 1e-6,
                    "reported energy {} below the ground {ground} at n={n}",
                    s.energy
                );
            }
            let best = set.best().expect("nonzero reads produce samples").energy;
            assert!(
                (best - ground).abs() < 1e-6,
                "missed the trivial chain ground at n={n}: \
                 best {best}, ground {ground}"
            );
        }
    }
}

#[test]
fn zero_reads_yield_empty_sets() {
    let set = BitParallelSa::new(3).sample(&chain(7), 0);
    assert!(set.is_empty());
    assert_eq!(set.total_reads(), 0);
}

/// A fixed frustrated 12-variable spin glass: dense couplings of mixed
/// sign, so annealing runs on a rugged landscape.
fn frustrated_12() -> Ising {
    let mut rng = StdRng::seed_from_u64(0xf2a5);
    let n = 12;
    let mut m = Ising::new(n);
    for i in 0..n {
        m.add_h(i, rng.gen_range(-0.5..0.5));
        for j in (i + 1)..n {
            if rng.gen::<f64>() < 0.6 {
                m.add_j(i, j, if rng.gen::<bool>() { 1.0 } else { -1.0 });
            }
        }
    }
    m
}

#[test]
fn sa_is_thread_invariant() {
    // 130 reads = two full words plus a partial third, so the threaded
    // path splits work across a ragged word count.
    let model = frustrated_12();
    let one = BitParallelSa::new(21)
        .with_sweeps(48)
        .with_threads(1)
        .sample(&model, 130);
    let eight = BitParallelSa::new(21)
        .with_sweeps(48)
        .with_threads(8)
        .sample(&model, 130);
    assert_eq!(
        encode(&one),
        encode(&eight),
        "sa distribution depends on thread count"
    );
}
