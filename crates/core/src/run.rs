//! Executing compiled programs — forward or backward (§4.3.6, §5).
//!
//! A run is three stages, each one [`Trace::try_stage`] call: realize
//! pins (`pin`), sample (`sample`, followed by the hardware model's own
//! `sample:*` phase records when it ran), and decode (`interpret`). The
//! per-stage [`Trace`] rides on [`RunOutcome`].

use std::fmt;

use qac_pbf::{Ising, Spin};
use qac_qmasm::pin::parse_pins;
use qac_qmasm::Solution;
use qac_solvers::{
    BitParallelSa, DWaveSim, DWaveSimOptions, ExactSolver, SampleSet, Sampler, TabuSearch,
};

use qac_telemetry::Trace;

use crate::{CompileError, Compiled};

/// Which sampler executes the program.
#[derive(Debug, Clone)]
pub enum SolverChoice {
    /// Exhaustive enumeration (small models only).
    Exact,
    /// Simulated annealing with the given sweep count, run by the
    /// packed-lane kernel ([`BitParallelSa`]: 64 reads per word).
    Sa {
        /// Sweeps per read.
        sweeps: usize,
    },
    /// Tabu search.
    Tabu,
    /// The full hardware model: scale, embed on Chimera, distort, sample.
    DWave(Box<DWaveSimOptions>),
}

impl Default for SolverChoice {
    fn default() -> SolverChoice {
        SolverChoice::Sa { sweeps: 256 }
    }
}

/// How pins are realized in the runnable model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PinRealization {
    /// Strong bias fields (`None` = 2 × the assembled chain strength) —
    /// what the hardware does (§4.3.4).
    Bias(Option<f64>),
    /// Substitute pinned variables out of the model.
    Fix,
}

/// Options for one run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    pins: Vec<String>,
    num_reads: usize,
    solver: SolverChoice,
    pin_realization: PinRealization,
    seed: u64,
}

impl Default for RunOptions {
    fn default() -> RunOptions {
        RunOptions {
            pins: Vec::new(),
            num_reads: 100,
            solver: SolverChoice::default(),
            pin_realization: PinRealization::Bias(None),
            seed: 0x5eed,
        }
    }
}

impl RunOptions {
    /// Default options: 100 reads of simulated annealing, bias pins.
    pub fn new() -> RunOptions {
        RunOptions::default()
    }

    /// Adds a pin specification in the `--pin` syntax, e.g.
    /// `"C[7:0] := 10001111"` (§5.3).
    pub fn pin(mut self, spec: &str) -> RunOptions {
        self.pins.push(spec.to_string());
        self
    }

    /// Sets the read count.
    ///
    /// Clamped to at least 1: a 0-read run would produce no samples at
    /// all and make every program look UNSAT, so 0 silently behaves
    /// as 1 (matching the samplers' own clamps).
    pub fn num_reads(mut self, num_reads: usize) -> RunOptions {
        self.num_reads = num_reads.max(1);
        self
    }

    /// Sets the sampler.
    pub fn solver(mut self, solver: SolverChoice) -> RunOptions {
        self.solver = solver;
        self
    }

    /// Realizes pins by substitution instead of bias fields.
    pub fn fix_pins(mut self) -> RunOptions {
        self.pin_realization = PinRealization::Fix;
        self
    }

    /// Sets the pin bias weight explicitly.
    pub fn pin_weight(mut self, weight: f64) -> RunOptions {
        self.pin_realization = PinRealization::Bias(Some(weight));
        self
    }

    /// Sets the sampler seed.
    pub fn seed(mut self, seed: u64) -> RunOptions {
        self.seed = seed;
        self
    }
}

/// One decoded sample.
#[derive(Debug, Clone)]
pub struct SolvedSample {
    /// Values by symbol/group name.
    pub values: Solution,
    /// Energy under the *unpinned* logical model.
    pub energy: f64,
    /// Raw logical spins (for custom decoding).
    pub spins: Vec<Spin>,
    /// Reads that produced this sample.
    pub occurrences: usize,
    /// Whether the sample is a valid program execution: it reaches the
    /// expected ground energy, satisfies every pin, and passes all
    /// embedded assertions. (An invalid best sample is how UNSAT
    /// manifests — the annealer "would return an invalid solution",
    /// §5.2.)
    pub valid: bool,
}

/// Hardware-model statistics, present when [`SolverChoice::DWave`] ran.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HardwareStats {
    /// Physical qubits consumed.
    pub physical_qubits: usize,
    /// Terms in the physical Hamiltonian.
    pub physical_terms: usize,
    /// Mean chain-break fraction.
    pub chain_breaks: f64,
    /// Modeled wall-clock (µs).
    pub time_us: f64,
}

/// The result of a run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Decoded samples, lowest energy first.
    pub samples: Vec<SolvedSample>,
    /// The energy a valid execution reaches (program ground + pins).
    pub expected_energy: f64,
    /// Hardware statistics, if the D-Wave model ran.
    pub hardware: Option<HardwareStats>,
    /// Per-stage wall time of this run (`pin`, `sample`, `sample:*`
    /// sub-phases when the hardware model ran, `interpret`).
    pub trace: Trace,
}

/// Solution-quality summary of one run — the numbers the SAT-annealing
/// literature reports per problem (chain breaks, ground-state fraction,
/// time-to-solution). Derived from a finished [`RunOutcome`] by
/// [`RunOutcome::quality`]; `Display` renders the one-line summary the
/// `experiments` CLI prints after every run.
#[derive(Debug, Clone, PartialEq)]
pub struct QualityReport {
    /// Total reads taken.
    pub reads: usize,
    /// Fraction of reads that decoded to valid executions (pins, asserts,
    /// and expected energy all satisfied).
    pub valid_fraction: f64,
    /// Fraction of reads at the expected ground energy (a weaker bar than
    /// validity: pins and asserts are not checked).
    pub ground_fraction: f64,
    /// Mean chain-break fraction (hardware-model runs only).
    pub chain_break_fraction: Option<f64>,
    /// Wall time per read in µs — modeled anneal time for hardware runs,
    /// measured `sample`-stage time otherwise.
    pub time_per_read_us: f64,
    /// Estimated time-to-solution at 99% confidence in µs (reads needed
    /// to see a valid execution × time per read). `None` when no valid
    /// execution was observed.
    pub tts_us: Option<f64>,
}

impl fmt::Display for QualityReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "quality: reads={} valid={:.1}% ground={:.1}%",
            self.reads,
            self.valid_fraction * 100.0,
            self.ground_fraction * 100.0
        )?;
        if let Some(cb) = self.chain_break_fraction {
            write!(f, " chain-breaks={:.1}%", cb * 100.0)?;
        }
        match self.tts_us {
            Some(tts) => write!(f, " tts(99%)={}", qac_telemetry::quality::fmt_us(tts)),
            None => write!(f, " tts(99%)=n/a (no valid reads)"),
        }
    }
}

impl RunOutcome {
    /// Iterates over valid samples (lowest energy first).
    pub fn valid_solutions(&self) -> impl Iterator<Item = &Solution> {
        self.samples.iter().filter(|s| s.valid).map(|s| &s.values)
    }

    /// The best sample, valid or not.
    pub fn best(&self) -> Option<&SolvedSample> {
        self.samples.first()
    }

    /// Fraction of reads that decoded to valid executions.
    pub fn valid_fraction(&self) -> f64 {
        let total: usize = self.samples.iter().map(|s| s.occurrences).sum();
        if total == 0 {
            return 0.0;
        }
        let valid: usize = self
            .samples
            .iter()
            .filter(|s| s.valid)
            .map(|s| s.occurrences)
            .sum();
        valid as f64 / total as f64
    }

    /// Summarizes solution quality (chain breaks, ground fraction,
    /// time-to-solution).
    pub fn quality(&self) -> QualityReport {
        let reads: usize = self.samples.iter().map(|s| s.occurrences).sum();
        let ground: usize = self
            .samples
            .iter()
            .filter(|s| (s.energy - self.expected_energy).abs() < 1e-6)
            .map(|s| s.occurrences)
            .sum();
        let ground_fraction = if reads == 0 {
            0.0
        } else {
            ground as f64 / reads as f64
        };
        let valid_fraction = self.valid_fraction();
        let total_us = match &self.hardware {
            Some(hw) => hw.time_us,
            None => self.trace.total_for("sample").as_secs_f64() * 1e6,
        };
        let time_per_read_us = if reads == 0 {
            0.0
        } else {
            total_us / reads as f64
        };
        QualityReport {
            reads,
            valid_fraction,
            ground_fraction,
            chain_break_fraction: self.hardware.map(|hw| hw.chain_breaks),
            time_per_read_us,
            tts_us: qac_telemetry::quality::time_to_solution_us(
                valid_fraction,
                time_per_read_us,
                0.99,
            ),
        }
    }
}

/// Draws samples from `model` with the run's solver, seed and read
/// count. The hardware model also reports its statistics and the
/// `sample:*` records of its own phases.
fn sample(
    options: &RunOptions,
    model: &Ising,
) -> Result<(SampleSet, Option<(HardwareStats, Trace)>), CompileError> {
    let (seed, num_reads) = (options.seed, options.num_reads);
    let set = match &options.solver {
        SolverChoice::Exact => ExactSolver::new().sample(model, num_reads),
        SolverChoice::Sa { sweeps } => BitParallelSa::new(seed)
            .with_sweeps(*sweeps)
            .sample(model, num_reads),
        SolverChoice::Tabu => TabuSearch::new(seed).sample(model, num_reads),
        SolverChoice::DWave(sim_options) => {
            let result = DWaveSim::new((**sim_options).clone()).run(model, num_reads)?;
            let hardware = HardwareStats {
                physical_qubits: result.physical_qubits,
                physical_terms: result.physical_terms,
                chain_breaks: result.mean_chain_breaks,
                time_us: result.estimated_time_us,
            };
            return Ok((result.logical, Some((hardware, result.trace))));
        }
    };
    Ok((set, None))
}

/// Decodes raw samples into symbol-level solutions, checking pins,
/// asserts, and the expected energy; lowest energy first, valid before
/// invalid. `force_pins` sets pinned spins to their targets before
/// decoding (Fix-style pins leave the fixed variables inert in the
/// model).
fn interpret(
    compiled: &Compiled,
    set: &SampleSet,
    pin_targets: &[(usize, Spin, String, bool)],
    force_pins: bool,
) -> Vec<SolvedSample> {
    let logical = &compiled.assembled.ising;
    let mut samples = Vec::new();
    for sample in set.iter() {
        let mut spins = sample.spins.clone();
        if force_pins {
            for &(var, target, ..) in pin_targets {
                spins[var] = target;
            }
        }
        let energy = logical.energy(&spins);
        let pins_ok = pin_targets
            .iter()
            .all(|&(var, target, ..)| spins[var] == target);
        let asserts_ok = compiled
            .assembled
            .check_asserts(&spins)
            .iter()
            .all(|(_, ok)| *ok);
        let valid =
            pins_ok && asserts_ok && (energy - compiled.expected_ground_energy).abs() < 1e-6;
        samples.push(SolvedSample {
            values: compiled.assembled.interpret(&spins),
            energy,
            spins,
            occurrences: sample.occurrences,
            valid,
        });
    }
    samples.sort_by(|a, b| {
        b.valid.cmp(&a.valid).then(
            a.energy
                .partial_cmp(&b.energy)
                .unwrap_or(std::cmp::Ordering::Equal),
        )
    });
    samples
}

impl Compiled {
    /// Runs the compiled program.
    ///
    /// Pin inputs to run forward; pin outputs to run backward (§4.3.6).
    ///
    /// # Errors
    /// [`CompileError::Qmasm`] for bad pin specifications, unknown
    /// symbols, or a pin bias that leaves a weight non-finite;
    /// [`CompileError::Analysis`] when pins contradict each
    /// other on the same merged variable; [`CompileError::Embed`] if the
    /// hardware model cannot embed the program.
    pub fn run(&self, options: &RunOptions) -> Result<RunOutcome, CompileError> {
        let telemetry = qac_telemetry::global();
        let mut root = telemetry.span("run");
        let mut trace = Trace::new();
        let pin_specs: Vec<&str> = options.pins.iter().map(String::as_str).collect();
        let extra_pins = parse_pins(pin_specs)?;

        // Resolve every pin (compile-time and run-time) to its target
        // spin up front, and reject pin sets that contradict through `=`
        // chains: two pins landing on the same merged variable with
        // opposite spins can never be satisfied, so that is a static
        // error rather than a run that silently returns invalid samples.
        // (Pins on *distinct* variables may still be jointly
        // unsatisfiable through the circuit — that legitimately shows up
        // as invalid samples, §5.2.)
        let pin_targets = self.assembled.resolved_pins(&extra_pins)?;
        let conflict_view: Vec<(usize, Spin, String)> = pin_targets
            .iter()
            .map(|(var, spin, name, _)| (*var, *spin, name.clone()))
            .collect();
        let conflicts = qac_analysis::pin_conflicts(&conflict_view);
        if conflicts.has_errors() {
            return Err(CompileError::Analysis(conflicts));
        }

        // Realize pins.
        let bias_weight = match options.pin_realization {
            PinRealization::Bias(Some(w)) => Some(w),
            PinRealization::Bias(None) => Some((2.0 * self.assembled.chain_strength).max(2.0)),
            PinRealization::Fix => None,
        };
        let style = match bias_weight {
            Some(w) => qac_qmasm::PinStyle::Bias(w),
            None => qac_qmasm::PinStyle::Fix,
        };
        let model = trace.try_stage(
            "pin",
            self.assembled.pins.len() + extra_pins.len(),
            || self.assembled.pinned_model(&extra_pins, style),
            |model| (model.num_terms(1e-12), 0),
        )?;

        // Sample, then append the hardware model's sample:* phase
        // records after the sample entry; the sample entry's retries are
        // the phases' (embedding restarts).
        let (set, hardware) = trace.try_stage(
            "sample",
            model.num_terms(1e-12),
            || sample(options, &model),
            |(set, hardware)| {
                let retries = hardware.iter().flat_map(|(_, phases)| phases.stages());
                (set.total_reads(), retries.map(|s| s.retries).sum())
            },
        )?;
        if let Some((_, phases)) = &hardware {
            trace.extend(phases.stages().iter().cloned());
        }

        // Decode.
        let samples = trace.stage(
            "interpret",
            set.total_reads(),
            || interpret(self, &set, &pin_targets, bias_weight.is_none()),
            |samples| (samples.len(), 0),
        );

        let outcome = RunOutcome {
            samples,
            expected_energy: self.expected_ground_energy,
            hardware: hardware.map(|(stats, _)| stats),
            trace,
        };

        // Report run-level quality into the telemetry registry (no-ops
        // while the global recorder is disabled).
        let quality = outcome.quality();
        root.arg("reads", quality.reads as f64);
        root.arg("valid_fraction", quality.valid_fraction);
        telemetry.counter_add("qac_reads_total", quality.reads as u64);
        telemetry.gauge_set("qac_valid_fraction", quality.valid_fraction);
        telemetry.gauge_set("qac_ground_fraction", quality.ground_fraction);
        if let Some(cb) = quality.chain_break_fraction {
            telemetry.gauge_set("qac_chain_break_fraction", cb);
        }
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile, CompileOptions};

    const MUX_ADD_SUB: &str = r#"
        module circuit (s, a, b, c);
          input s, a, b;
          output [1:0] c;
          assign c = s ? a+b : a-b;
        endmodule
    "#;

    fn compiled() -> Compiled {
        compile(MUX_ADD_SUB, "circuit", &CompileOptions::default()).unwrap()
    }

    #[test]
    fn forward_execution_all_inputs() {
        // Run forward (pin s, a, b; read c) with the exact solver — the
        // paper's Figure 2 relation.
        let program = compiled();
        for s in 0..2u64 {
            for a in 0..2u64 {
                for b in 0..2u64 {
                    let run = RunOptions::new()
                        .pin(&format!("s := {s}"))
                        .pin(&format!("a := {a}"))
                        .pin(&format!("b := {b}"))
                        .solver(SolverChoice::Exact);
                    let outcome = program.run(&run).unwrap();
                    let best = outcome.best().unwrap();
                    assert!(best.valid, "s={s} a={a} b={b}: {best:?}");
                    let c = best.values.get("c").unwrap();
                    let expect = if s == 1 {
                        a + b
                    } else {
                        a.wrapping_sub(b) & 0b11
                    };
                    assert_eq!(c, expect, "s={s} a={a} b={b}");
                }
            }
        }
    }

    #[test]
    fn backward_execution_solves_for_inputs() {
        // Pin the output c = 2 and s = 1 (addition): inputs must be 1+1.
        let program = compiled();
        let run = RunOptions::new()
            .pin("c[1:0] := 10")
            .pin("s := 1")
            .solver(SolverChoice::Exact);
        let outcome = program.run(&run).unwrap();
        let best = outcome.best().unwrap();
        assert!(best.valid);
        assert_eq!(best.values.get("a"), Some(1));
        assert_eq!(best.values.get("b"), Some(1));
    }

    #[test]
    fn run_trace_covers_pin_sample_interpret() {
        let program = compiled();
        let run = RunOptions::new().pin("s := 1").solver(SolverChoice::Exact);
        let outcome = program.run(&run).unwrap();
        let names: Vec<&str> = outcome
            .trace
            .stages()
            .iter()
            .map(|s| s.name.as_str())
            .collect();
        assert_eq!(names, ["pin", "sample", "interpret"]);
        let sample = outcome.trace.get("sample").unwrap();
        assert!(sample.output_size > 0, "reads recorded");
        let interpret = outcome.trace.get("interpret").unwrap();
        assert_eq!(interpret.input_size, sample.output_size);
        assert_eq!(interpret.output_size, outcome.samples.len());
    }

    #[test]
    fn dwave_run_records_sampler_phases() {
        use qac_solvers::DWaveSimOptions;
        let program = compiled();
        let sim = DWaveSimOptions {
            topology: qac_solvers::TopologySpec::Chimera { m: 4 },
            anneal_sweeps: 40,
            ..Default::default()
        };
        let run = RunOptions::new()
            .pin("s := 1")
            .pin("a := 1")
            .pin("b := 0")
            .solver(SolverChoice::DWave(Box::new(sim)))
            .num_reads(20);
        let outcome = program.run(&run).unwrap();
        assert!(outcome.hardware.is_some());
        let names: Vec<&str> = outcome
            .trace
            .stages()
            .iter()
            .map(|s| s.name.as_str())
            .collect();
        assert_eq!(
            names,
            [
                "pin",
                "sample",
                "sample:scale",
                "sample:embed",
                "sample:distort",
                "sample:anneal",
                "sample:unembed",
                "interpret"
            ]
        );
        // Embedding restarts surface both on the sub-phase and the
        // aggregate sample entry.
        let embed = outcome.trace.get("sample:embed").unwrap();
        assert!(embed.retries >= 1);
        assert_eq!(outcome.trace.get("sample").unwrap().retries, embed.retries);
    }

    #[test]
    fn zero_reads_clamp_to_one() {
        // num_reads(0) behaves exactly like num_reads(1): one read, one
        // sample — never an empty (spuriously UNSAT) outcome.
        let program = compiled();
        let run = RunOptions::new()
            .pin("s := 1")
            .pin("a := 1")
            .pin("b := 1")
            .solver(SolverChoice::Sa { sweeps: 50 })
            .num_reads(0);
        let outcome = program.run(&run).unwrap();
        let total: usize = outcome.samples.iter().map(|s| s.occurrences).sum();
        assert_eq!(total, 1);
        assert_eq!(outcome.trace.get("sample").unwrap().output_size, 1);
    }

    #[test]
    fn fixed_pins_match_biased_pins() {
        let program = compiled();
        for style_fix in [false, true] {
            let mut run = RunOptions::new()
                .pin("s := 0")
                .pin("a := 1")
                .pin("b := 1")
                .solver(SolverChoice::Exact);
            if style_fix {
                run = run.fix_pins();
            }
            let outcome = program.run(&run).unwrap();
            let best = outcome.best().unwrap();
            assert!(best.valid, "fix={style_fix}");
            // 1 − 1 = 0
            assert_eq!(best.values.get("c"), Some(0), "fix={style_fix}");
        }
    }

    #[test]
    fn unsatisfiable_pins_yield_invalid_samples() {
        // Pin an impossible relation: s=1 (add), a=0, b=0, c=3.
        let program = compiled();
        let run = RunOptions::new()
            .pin("s := 1")
            .pin("a := 0")
            .pin("b := 0")
            .pin("c[1:0] := 11")
            .solver(SolverChoice::Exact);
        let outcome = program.run(&run).unwrap();
        // Equation (1) "has no ability to represent 'no solution'": we
        // still get samples, but none is valid.
        assert!(outcome.best().is_some());
        assert_eq!(outcome.valid_solutions().count(), 0);
        assert_eq!(outcome.valid_fraction(), 0.0);
    }

    #[test]
    fn sa_finds_valid_solutions() {
        let program = compiled();
        let run = RunOptions::new()
            .pin("s := 1")
            .pin("a := 1")
            .pin("b := 1")
            .solver(SolverChoice::Sa { sweeps: 200 })
            .num_reads(30);
        let outcome = program.run(&run).unwrap();
        assert!(outcome.valid_fraction() > 0.0);
        let best = outcome.best().unwrap();
        assert!(best.valid);
        assert_eq!(best.values.get("c"), Some(2));
    }

    #[test]
    fn contradictory_pins_on_one_variable_are_rejected() {
        // Pinning the same net both ways is caught statically — before
        // any sampling — and names the offending nets.
        let program = compiled();
        let run = RunOptions::new()
            .pin("s := 1")
            .pin("s := 0")
            .solver(SolverChoice::Exact);
        match program.run(&run) {
            Err(CompileError::Analysis(diags)) => {
                assert!(diags.has_errors());
                let text = diags.render_text();
                assert!(text.contains("QAC001"), "{text}");
                assert!(text.contains('s'), "{text}");
            }
            other => panic!("expected an analysis rejection, got {other:?}"),
        }
    }

    #[test]
    fn bad_pin_spec_is_an_error() {
        let program = compiled();
        let run = RunOptions::new().pin("garbage");
        assert!(matches!(program.run(&run), Err(CompileError::Qmasm(_))));
    }

    #[test]
    fn unknown_pin_symbol_is_an_error() {
        let program = compiled();
        let run = RunOptions::new()
            .pin("ghost := 1")
            .solver(SolverChoice::Exact);
        assert!(program.run(&run).is_err());
    }
}
