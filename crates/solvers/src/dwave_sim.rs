//! A software model of running on a quantum annealer (a D-Wave 2000Q by
//! default; any [`TopologySpec`] fabric on request).
//!
//! The paper's experiments execute on real hardware; this simulator
//! substitutes for it while exercising the same pipeline stages and
//! artifacts (DESIGN.md, substitution table):
//!
//! 1. scale coefficients into the topology's range (`h ∈ [−2,2]`,
//!    `J ∈ [−2,1]` on a 2000Q, §2);
//! 2. minor-embed onto the hardware graph with qubit drop-out (§4.4);
//! 3. quantize coefficients to a few bits and add analog Gaussian noise
//!    (the machine "is analog rather than digital … limited precision");
//! 4. draw stochastic samples (simulated annealing stands in for the
//!    physical anneal);
//! 5. decode through majority vote, counting chain breaks;
//! 6. account wall-clock time with a programming/anneal/readout model so
//!    §6.2-style per-solution costs can be reported.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use qac_chimera::{
    embed, embed_ising, EmbedError, EmbedOptions, EmbedStats, Embedding, EmbeddingCache, Topology,
    TopologySpec,
};
use qac_pbf::scale::{quantize, scale_to_range, CoefficientRange};
use qac_pbf::Ising;
use qac_telemetry::Trace;

use crate::chain_block::{ChainBlockModel, PackedReads};
use crate::{Sample, SampleSet, Sampler};

/// The time budget of one D-Wave job (microseconds).
///
/// Defaults follow public D-Wave 2000Q timing data: ~10 ms programming,
/// user-set anneal time (the paper uses 20 µs), ~123 µs readout and
/// ~21 µs inter-sample delay per read.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingModel {
    /// One-time problem programming cost.
    pub programming_us: f64,
    /// Annealing time per read (1–2000 µs on the 2000Q, §2).
    pub anneal_us: f64,
    /// Readout time per read.
    pub readout_us: f64,
    /// Thermalization/delay per read.
    pub delay_us: f64,
}

impl Default for TimingModel {
    fn default() -> TimingModel {
        TimingModel {
            programming_us: 10_000.0,
            anneal_us: 20.0,
            readout_us: 123.0,
            delay_us: 21.0,
        }
    }
}

impl TimingModel {
    /// Total wall-clock for a job of `num_reads` anneals.
    pub fn total_us(&self, num_reads: usize) -> f64 {
        self.programming_us + num_reads as f64 * (self.anneal_us + self.readout_us + self.delay_us)
    }
}

/// Which stand-in annealer draws the physical samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PhysicalAnnealer {
    /// Chain-block + single-qubit Metropolis sweeps (the default):
    /// collective chain moves emulate the tunneling dynamics of analog
    /// hardware, single-qubit moves produce realistic chain breaks.
    #[default]
    ChainBlock,
    /// [`BitParallelSa`](crate::BitParallelSa) over the distorted
    /// physical model: 64 reads per word, much faster, but chain-naive —
    /// no collective chain moves, so long chains freeze more often.
    /// Useful when the hardware model is a throughput stand-in rather
    /// than a fidelity model.
    BitParallel,
}

/// Options for the hardware model.
#[derive(Debug, Clone)]
pub struct DWaveSimOptions {
    /// The hardware topology to model (default: the paper's 2000Q,
    /// a Chimera C16). Also selects the coefficient range and the
    /// chain-strength clamp via [`Topology`].
    pub topology: TopologySpec,
    /// Fraction of qubits lost to fabrication (deterministic per seed).
    pub dropout: f64,
    /// Base RNG seed (noise, annealing).
    pub seed: u64,
    /// Chain coupling strength; `None` = 2 × max |J| of the scaled model,
    /// clamped to the hardware J range.
    pub chain_strength: Option<f64>,
    /// Effective DAC precision in bits (0 disables quantization).
    pub precision_bits: u32,
    /// Std-dev of Gaussian coefficient noise, as a fraction of the
    /// coefficient range (0 disables).
    pub noise_sigma: f64,
    /// Sweeps of the stand-in annealer per read (more sweeps ≈ longer
    /// anneal time).
    pub anneal_sweeps: usize,
    /// Which stand-in annealer runs the physical anneal phase.
    pub annealer: PhysicalAnnealer,
    /// Embedding heuristic options.
    pub embed: EmbedOptions,
    /// Shared embedding cache. When set, a repeated (problem, options,
    /// hardware) combination reuses the stored embedding and does zero
    /// routing work.
    pub embedding_cache: Option<Arc<EmbeddingCache>>,
    /// The timing model used for cost accounting.
    pub timing: TimingModel,
}

impl Default for DWaveSimOptions {
    fn default() -> DWaveSimOptions {
        DWaveSimOptions {
            topology: TopologySpec::default(),
            dropout: 0.0,
            seed: 0xd_3caf,
            chain_strength: None,
            precision_bits: 5,
            noise_sigma: 0.01,
            anneal_sweeps: 64,
            annealer: PhysicalAnnealer::default(),
            embed: EmbedOptions::default(),
            embedding_cache: None,
            timing: TimingModel::default(),
        }
    }
}

impl DWaveSimOptions {
    /// The topology this configuration models.
    pub fn topology_spec(&self) -> TopologySpec {
        self.topology
    }
}

/// The result of one simulated hardware job.
#[derive(Debug, Clone)]
pub struct DWaveSimResult {
    /// Decoded logical samples with *logical* energies.
    pub logical: SampleSet,
    /// Mean chain-break fraction across reads.
    pub mean_chain_breaks: f64,
    /// The embedding that was used.
    pub embedding: Embedding,
    /// Physical qubits consumed (the §6.1 metric).
    pub physical_qubits: usize,
    /// Terms in the physical Hamiltonian (the §6.1 metric).
    pub physical_terms: usize,
    /// The positive factor applied to fit the coefficient ranges.
    pub scale: f64,
    /// Estimated wall-clock of the job.
    pub estimated_time_us: f64,
    /// Routing-work counters of the embedding step (all zero with
    /// `cache_hit` set when the embedding came from the cache).
    pub embed_stats: EmbedStats,
    /// One record per internal phase, in execution order:
    /// `sample:scale`, `sample:embed` (retries: embedding restarts),
    /// `sample:distort`, `sample:anneal`, `sample:unembed`.
    pub trace: Trace,
}

/// The simulated D-Wave annealer.
#[derive(Debug, Clone, Default)]
pub struct DWaveSim {
    options: DWaveSimOptions,
}

impl DWaveSim {
    /// A simulator with the given options.
    pub fn new(options: DWaveSimOptions) -> DWaveSim {
        DWaveSim { options }
    }

    /// The configured options.
    pub fn options(&self) -> &DWaveSimOptions {
        &self.options
    }

    /// Runs a job: embed, distort, sample, decode.
    ///
    /// # Errors
    /// Propagates [`EmbedError`] when the logical model does not fit the
    /// hardware graph.
    pub fn run(&self, logical: &Ising, num_reads: usize) -> Result<DWaveSimResult, EmbedError> {
        let telemetry = qac_telemetry::global();
        let o = &self.options;
        let topology = o.topology_spec();
        let hardware = if o.dropout > 0.0 {
            topology.graph_with_dropout(o.dropout, o.seed)
        } else {
            topology.graph()
        };
        let mut trace = Trace::new();

        // 1. Scale the logical model into hardware range.
        let range = topology.coefficient_range();
        let scaled = trace.stage(
            "sample:scale",
            logical.num_terms(1e-12),
            || scale_to_range(logical, range),
            |scaled| (scaled.model.num_terms(1e-12), 0),
        );

        // 2. Embed — optionally through the shared cache. The router's
        // work counters (labeled by fabric) are machine-independent, so
        // CI can put a hard budget on them.
        let (embedding, embed_stats) = trace.try_stage(
            "sample:embed",
            logical.num_vars(),
            || {
                embed(
                    logical,
                    &topology,
                    &hardware,
                    &o.embed,
                    o.embedding_cache.as_deref(),
                )
            },
            |(embedding, stats)| (embedding.num_physical_qubits(), stats.restarts),
        )?;

        // 3. Add chains, rescale (chains may exceed the J range), then
        // apply the analog distortion: quantization plus Gaussian noise.
        let (embedded, distorted) = trace.stage(
            "sample:distort",
            embedding.num_physical_qubits(),
            || {
                let chain_strength =
                    topology.chain_strength(o.chain_strength, scaled.model.max_abs_j());
                let embedded = embed_ising(&scaled.model, &embedding, &hardware, chain_strength);
                let physical = scale_to_range(&embedded.physical, range).model;
                let distorted = distort(&physical, range, o);
                (embedded, distorted)
            },
            |(_, distorted)| (distorted.num_terms(1e-12), 0),
        );

        // 4. Stochastic sampling. Plain single-flip annealing cannot cross
        // the energy barrier of a long intact chain (the physical device
        // tunnels chains collectively), so the stand-in anneal mixes
        // chain-block flips with single-qubit flips: blocks provide the
        // logical dynamics, single-qubit moves let chains break the way
        // analog hardware does.
        let reads = trace.stage(
            "sample:anneal",
            embedding.num_physical_qubits(),
            || {
                let (sweeps, seed) = (o.anneal_sweeps.max(1), o.seed ^ 0xa1_ea1);
                match o.annealer {
                    PhysicalAnnealer::ChainBlock => {
                        ChainBlockModel::new(&distorted, &embedding).anneal(sweeps, seed, num_reads)
                    }
                    PhysicalAnnealer::BitParallel => {
                        let set = crate::BitParallelSa::new(seed)
                            .with_sweeps(sweeps)
                            .sample(&distorted, num_reads);
                        PackedReads::from_sample_set(&set, distorted.num_vars())
                    }
                }
            },
            |_| (num_reads, 0),
        );

        // 5. Decode with majority vote; re-evaluate energies logically.
        let (logical_set, mean_chain_breaks) = trace.stage(
            "sample:unembed",
            num_reads,
            || {
                telemetry.register_histogram(
                    "qac_read_chain_break_fraction",
                    qac_telemetry::FRACTION_BUCKETS,
                );
                let mut decoded: Vec<Sample> = Vec::new();
                let mut breaks = 0.0;
                let mut total_reads = 0usize;
                for (read, occurrences) in reads.iter() {
                    let (logical_spins, stats) =
                        reads.unembed(read, &embedding, embedded.num_logical);
                    breaks += stats.break_fraction() * occurrences as f64;
                    total_reads += occurrences;
                    let energy = logical.energy(&logical_spins);
                    telemetry.observe_n("qac_read_energy", energy, occurrences as u64);
                    // The quantile sketch answers "what was the p99 read
                    // energy" without pre-chosen buckets; one observation
                    // per distinct sample keeps it cheap (occurrences
                    // collapse to one point — the histogram above remains
                    // the occurrence-weighted view).
                    telemetry.sketch_observe("qac_read_energy_quantiles", energy);
                    telemetry.observe_n(
                        "qac_read_chain_break_fraction",
                        stats.break_fraction(),
                        occurrences as u64,
                    );
                    decoded.push(Sample {
                        spins: logical_spins,
                        energy,
                        occurrences,
                    });
                }
                let mean_chain_breaks = if total_reads > 0 {
                    breaks / total_reads as f64
                } else {
                    0.0
                };
                (SampleSet::from_samples(decoded), mean_chain_breaks)
            },
            |(set, _)| (set.len(), 0),
        );

        Ok(DWaveSimResult {
            logical: logical_set,
            mean_chain_breaks,
            embedding,
            physical_qubits: embedded.embedding.num_physical_qubits(),
            physical_terms: embedded.physical.num_terms(1e-12),
            scale: scaled.scale,
            estimated_time_us: o.timing.total_us(num_reads),
            embed_stats,
            trace,
        })
    }
}

impl Sampler for DWaveSim {
    /// Runs a job and returns the decoded logical samples.
    ///
    /// # Panics
    /// Panics if the model cannot be embedded; use [`DWaveSim::run`] to
    /// handle embedding failure.
    fn sample(&self, model: &Ising, num_reads: usize) -> SampleSet {
        self.run(model, num_reads)
            .expect("model embeds on the configured hardware")
            .logical
    }
}

/// The analog distortion of a physical model: quantization to the
/// configured DAC precision plus Gaussian noise on every nonzero
/// coefficient (deterministic per seed).
pub(crate) fn distort(physical: &Ising, range: CoefficientRange, o: &DWaveSimOptions) -> Ising {
    let mut distorted = if o.precision_bits > 0 {
        quantize(physical, range, o.precision_bits)
    } else {
        physical.clone()
    };
    if o.noise_sigma > 0.0 {
        let mut rng = StdRng::seed_from_u64(o.seed ^ 0x6e_015e);
        let mut noisy = Ising::new(distorted.num_vars());
        for (i, h) in distorted.h_iter() {
            if h != 0.0 {
                let sigma = o.noise_sigma * (range.h_max - range.h_min);
                noisy.add_h(i, h + gaussian(&mut rng) * sigma);
            }
        }
        for t in distorted.j_iter() {
            if t.value != 0.0 {
                let sigma = o.noise_sigma * (range.j_max - range.j_min);
                noisy.add_j(t.i, t.j, t.value + gaussian(&mut rng) * sigma);
            }
        }
        noisy.add_offset(distorted.offset());
        distorted = noisy;
    }
    distorted
}

/// Standard normal via Box–Muller (rand_distr is not among the allowed
/// dependencies).
fn gaussian(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qac_pbf::Spin;

    fn small_options() -> DWaveSimOptions {
        DWaveSimOptions {
            topology: TopologySpec::Chimera { m: 3 },
            anneal_sweeps: 60,
            noise_sigma: 0.005,
            ..Default::default()
        }
    }

    #[test]
    fn solves_a_pinned_chain() {
        let mut m = Ising::new(4);
        m.add_h(0, -1.0);
        for i in 0..3 {
            m.add_j(i, i + 1, -1.0);
        }
        let sim = DWaveSim::new(small_options());
        let result = sim.run(&m, 50).unwrap();
        let best = result.logical.best().unwrap();
        assert_eq!(best.spins, vec![Spin::Up; 4]);
        assert!(result.physical_qubits >= 4);
        assert!(result.estimated_time_us > 0.0);
    }

    #[test]
    fn and_gate_relation_sampled() {
        // Table 5 AND gate: all samples at minimum satisfy Y = A ∧ B.
        let mut m = Ising::new(3);
        m.add_h(0, 1.0);
        m.add_h(1, -0.5);
        m.add_h(2, -0.5);
        m.add_j(1, 2, 0.5);
        m.add_j(0, 1, -1.0);
        m.add_j(0, 2, -1.0);
        let sim = DWaveSim::new(small_options());
        let result = sim.run(&m, 100).unwrap();
        let best = result.logical.best().unwrap();
        let y = best.spins[0].to_bool();
        let a = best.spins[1].to_bool();
        let b = best.spins[2].to_bool();
        assert_eq!(y, a && b, "best sample violates the AND relation");
        // A healthy majority of reads should decode to ground states.
        assert!(result.logical.ground_fraction(1e-6) > 0.3);
    }

    #[test]
    fn bit_parallel_annealer_solves_a_pinned_chain() {
        // The multi-spin stand-in is opt-in and still reaches the same
        // logical ground state on an easy chain; the default remains
        // the chain-block annealer (pinned by the golden fixtures).
        let mut m = Ising::new(4);
        m.add_h(0, -1.0);
        for i in 0..3 {
            m.add_j(i, i + 1, -1.0);
        }
        let opts = DWaveSimOptions {
            annealer: PhysicalAnnealer::BitParallel,
            ..small_options()
        };
        let result = DWaveSim::new(opts).run(&m, 50).unwrap();
        assert_eq!(result.logical.best().unwrap().spins, vec![Spin::Up; 4]);
        // Deterministic like every sampler here.
        let opts = DWaveSimOptions {
            annealer: PhysicalAnnealer::BitParallel,
            ..small_options()
        };
        let again = DWaveSim::new(opts).run(&m, 50).unwrap();
        assert_eq!(result.logical, again.logical);
    }

    #[test]
    fn noise_and_quantization_disabled_cleanly() {
        let mut m = Ising::new(2);
        m.add_j(0, 1, -1.0);
        m.add_h(0, -0.5);
        let opts = DWaveSimOptions {
            topology: TopologySpec::Chimera { m: 2 },
            precision_bits: 0,
            noise_sigma: 0.0,
            ..small_options()
        };
        let result = DWaveSim::new(opts).run(&m, 20).unwrap();
        assert_eq!(
            result.logical.best().unwrap().spins,
            vec![Spin::Up, Spin::Up]
        );
    }

    #[test]
    fn runs_on_pegasus_and_zephyr_fabrics() {
        let mut m = Ising::new(4);
        m.add_h(0, -1.0);
        for i in 0..3 {
            m.add_j(i, i + 1, -1.0);
        }
        for spec in [
            TopologySpec::Pegasus { m: 2 },
            TopologySpec::Zephyr { m: 1 },
            TopologySpec::King { m: 8 },
        ] {
            let opts = DWaveSimOptions {
                topology: spec,
                ..small_options()
            };
            let result = DWaveSim::new(opts).run(&m, 50).unwrap();
            let best = result.logical.best().unwrap();
            assert_eq!(best.spins, vec![Spin::Up; 4], "{spec:?} missed ground");
            assert!(
                result.embedding.validate(&m, &spec.graph()),
                "{spec:?} produced an invalid embedding"
            );
        }
    }

    #[test]
    fn timing_model_accounts_reads() {
        let t = TimingModel::default();
        let single = t.total_us(1);
        let many = t.total_us(1000);
        assert!(many > single);
        // Per-read marginal cost equals anneal + readout + delay.
        let marginal = (many - single) / 999.0;
        assert!((marginal - (20.0 + 123.0 + 21.0)).abs() < 1e-9);
    }

    #[test]
    fn trace_records_the_five_phases() {
        let mut m = Ising::new(3);
        m.add_j(0, 1, -1.0);
        m.add_j(1, 2, -1.0);
        let result = DWaveSim::new(small_options()).run(&m, 10).unwrap();
        let names: Vec<&str> = result
            .trace
            .stages()
            .iter()
            .map(|s| s.name.as_str())
            .collect();
        assert_eq!(
            names,
            [
                "sample:scale",
                "sample:embed",
                "sample:distort",
                "sample:anneal",
                "sample:unembed"
            ]
        );
        assert!(result.embed_stats.restarts >= 1);
        assert!(!result.embed_stats.cache_hit);
        let embed = result.trace.get("sample:embed").unwrap();
        assert_eq!(embed.retries, result.embed_stats.restarts);
        assert_eq!(embed.input_size, 3, "logical variables in");
        assert_eq!(embed.output_size, result.physical_qubits, "qubits out");
    }

    #[test]
    fn cache_makes_the_second_run_a_hit() {
        let mut m = Ising::new(4);
        for i in 0..3 {
            m.add_j(i, i + 1, -1.0);
        }
        let cache = Arc::new(EmbeddingCache::new());
        let opts = DWaveSimOptions {
            embedding_cache: Some(Arc::clone(&cache)),
            ..small_options()
        };
        let sim = DWaveSim::new(opts);
        let cold = sim.run(&m, 10).unwrap();
        let warm = sim.run(&m, 10).unwrap();
        assert!(!cold.embed_stats.cache_hit);
        assert!(warm.embed_stats.cache_hit);
        assert_eq!(warm.embed_stats.route_iterations, 0);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        // Identical embedding and identical decoded samples either way.
        assert_eq!(cold.embedding.chains(), warm.embedding.chains());
        assert_eq!(cold.logical, warm.logical);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut m = Ising::new(3);
        m.add_j(0, 1, -1.0);
        m.add_j(1, 2, 1.0);
        let sim = DWaveSim::new(small_options());
        let a = sim.run(&m, 10).unwrap();
        let b = sim.run(&m, 10).unwrap();
        assert_eq!(a.logical, b.logical);
    }
}
