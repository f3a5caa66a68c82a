//! The benchmark's inputs: the frozen programs and the seeded job lists.
//!
//! A workload's job list is an endless sequence of *blocks*. Every block
//! holds the same fixed number of jobs per program and job kind, in a
//! seed-shuffled order, so a run that stops at a block boundary always
//! measures the same mix. Block `i` of a workload depends only on the
//! `--seed`, the workload and `i`; the generator uses its own PRNG, so a
//! change to the repository's crates cannot change the inputs.

use std::borrow::Cow;
use std::fmt;

use qac_core::{CompileOptions, InitialState};

/// SplitMix64: small, fast and fully specified here.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// A stream keyed by several values, e.g. `(seed, workload, block)`.
    pub fn keyed(parts: &[u64]) -> Rng {
        let mut rng = Rng::new(0x5eed_e2e0);
        for &part in parts {
            rng.0 ^= part;
            rng.next_u64();
        }
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// Time steps the counter (Listing 3) is unrolled over.
pub const COUNTER_STEPS: usize = 3;

/// One of the benchmark's programs. The Verilog is frozen in
/// `programs/`; multipliers come from [`multiplier_source`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Program {
    /// Figure 2: `c = s ? a+b : a−b`.
    Figure2,
    /// Listing 5: circuit satisfiability.
    Circsat,
    /// Listing 6 at the given operand width: `C = A·B`.
    Mult(u32),
    /// Listing 7: the Australia colouring verifier.
    Australia,
    /// Listing 3 unrolled over [`COUNTER_STEPS`] steps.
    Counter,
}

impl Program {
    pub fn name(self) -> String {
        match self {
            Program::Figure2 => "figure2".into(),
            Program::Circsat => "circsat".into(),
            Program::Mult(n) => format!("mult{n}"),
            Program::Australia => "australia".into(),
            Program::Counter => format!("counter@{COUNTER_STEPS}"),
        }
    }

    pub fn source(self) -> Cow<'static, str> {
        match self {
            Program::Figure2 => Cow::Borrowed(include_str!("../programs/figure2.v")),
            Program::Circsat => Cow::Borrowed(include_str!("../programs/circsat.v")),
            Program::Mult(n) => Cow::Owned(multiplier_source(n)),
            Program::Australia => Cow::Borrowed(include_str!("../programs/australia.v")),
            Program::Counter => Cow::Borrowed(include_str!("../programs/counter.v")),
        }
    }

    pub fn top(self) -> &'static str {
        match self {
            Program::Figure2 => "circuit",
            Program::Circsat => "circsat",
            Program::Mult(_) => "mult",
            Program::Australia => "australia",
            Program::Counter => "count",
        }
    }

    /// The compile options a user of this program passes.
    pub fn options(self) -> CompileOptions {
        match self {
            Program::Counter => CompileOptions {
                unroll_steps: Some(COUNTER_STEPS),
                unroll_initial: InitialState::Zero,
                ..CompileOptions::default()
            },
            _ => CompileOptions::default(),
        }
    }
}

/// Listing 6 generalised to `n`-bit operands.
pub fn multiplier_source(n: u32) -> String {
    format!(
        "module mult (A, B, C);\n  input [{a}:0] A;\n  input [{a}:0] B;\n  output [{c}:0] C;\n  \
         assign C = A * B;\nendmodule\n",
        a = n - 1,
        c = 2 * n - 1
    )
}

/// A pinned value: a single bit when `width` is 0, else the word
/// `name[width-1:0]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pin {
    pub name: String,
    pub width: u32,
    pub value: u64,
}

impl Pin {
    pub fn bit(name: &str, value: bool) -> Pin {
        Pin {
            name: name.into(),
            width: 0,
            value: u64::from(value),
        }
    }

    pub fn word(name: &str, width: u32, value: u64) -> Pin {
        Pin {
            name: name.into(),
            width,
            value,
        }
    }

    /// The `--pin` syntax, always written out bit by bit (MSB first).
    pub fn spec(&self) -> String {
        if self.width == 0 {
            format!("{} := {}", self.name, self.value)
        } else {
            let bits: String = (0..self.width)
                .rev()
                .map(|i| if self.value >> i & 1 == 1 { '1' } else { '0' })
                .collect();
            format!("{}[{}:0] := {bits}", self.name, self.width - 1)
        }
    }
}

/// Which sampler a job runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Solver {
    /// `SolverChoice::DWave` with `DWaveSimOptions::default()` apart from
    /// the seeds (and the cache, on `hw_warm`).
    DWave,
    /// Scalar simulated annealing with this many sweeps.
    Sa(usize),
    /// Tabu search.
    Tabu,
}

/// Run one program with pins and check every answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampleJob {
    pub program: Program,
    /// What the job asks, e.g. `factor-unsat`.
    pub kind: &'static str,
    pub pins: Vec<Pin>,
    /// Whether any answer satisfies the pins (known without the
    /// compiler, by enumeration).
    pub sat: bool,
    pub solver: Solver,
    pub reads: usize,
    /// Sampler / hardware-model seed.
    pub run_seed: u64,
}

/// Swap one 2-input gate of the program's current netlist for its dual.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EditJob {
    pub program: Program,
    /// Which of the program's swappable cells, as a fraction of 2^64 of
    /// their list.
    pub point: u64,
}

impl EditJob {
    /// The index of the cell to swap among `swappable` cells.
    pub fn cell(&self, swappable: usize) -> usize {
        scale(self.point, swappable)
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Job {
    Sample(SampleJob),
    Edit(EditJob),
}

impl Job {
    /// The job's kind label, e.g. `mult4/factor-unsat`; blocks hold a
    /// fixed count of each.
    pub fn label(&self) -> String {
        match self {
            Job::Sample(job) => format!("{}/{}", job.program.name(), job.kind),
            Job::Edit(job) => format!("{}/edit", job.program.name()),
        }
    }

    pub fn pin_specs(&self) -> Vec<String> {
        match self {
            Job::Sample(job) => job.pins.iter().map(Pin::spec).collect(),
            Job::Edit(_) => Vec::new(),
        }
    }
}

impl fmt::Display for Job {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Job::Sample(job) => {
                write!(
                    f,
                    "{} {:?}x{} seed={:#x} sat={}",
                    self.label(),
                    job.solver,
                    job.reads,
                    job.run_seed,
                    job.sat
                )?;
                for spec in self.pin_specs() {
                    write!(f, " [{spec}]")?;
                }
                Ok(())
            }
            Job::Edit(job) => write!(f, "{} point={:#018x}", self.label(), job.point),
        }
    }
}

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    HwCold,
    HwWarm,
    SwRun,
    Edit,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload::HwCold,
    Workload::HwWarm,
    Workload::SwRun,
    Workload::Edit,
];

/// What kind of job to draw, and how many of it go in one block.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Figure2Forward(Solver, usize),
    Circsat(Solver, usize),
    Multiply(Solver, usize),
    Factor(Solver, usize),
    FactorUnsat(Solver, usize),
    Australia(Solver, usize),
    CounterBackward(Solver, usize),
    Edit(Program),
}

const HW: Solver = Solver::DWave;
const HW_READS: usize = 100;

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::HwCold => "hw_cold",
            Workload::HwWarm => "hw_warm",
            Workload::SwRun => "sw_run",
            Workload::Edit => "edit",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    /// One block's composition: `(kind, count)`.
    fn block_mix(self) -> Vec<(Kind, usize)> {
        use Kind::*;
        match self {
            Workload::HwCold | Workload::HwWarm => vec![
                (Australia(HW, HW_READS), 3),
                (Multiply(HW, HW_READS), 1),
                (Factor(HW, HW_READS), 1),
                (FactorUnsat(HW, HW_READS), 1),
                (Figure2Forward(HW, HW_READS), 2),
                (Circsat(HW, HW_READS), 2),
            ],
            Workload::SwRun => vec![
                (Figure2Forward(Solver::Sa(256), 100), 3),
                (Circsat(Solver::Sa(256), 200), 3),
                (Multiply(Solver::Tabu, 30), 2),
                (Factor(Solver::Tabu, 60), 3),
                (FactorUnsat(Solver::Tabu, 60), 2),
                (Australia(Solver::Sa(384), 500), 4),
                (CounterBackward(Solver::Tabu, 60), 3),
            ],
            Workload::Edit => vec![
                (Edit(Program::Figure2), 3),
                (Edit(Program::Circsat), 3),
                (Edit(Program::Mult(4)), 3),
                (Edit(Program::Australia), 3),
                (Edit(Program::Counter), 3),
                (Edit(Program::Mult(6)), 3),
                (Edit(Program::Mult(8)), 1),
            ],
        }
    }

    /// Every program the workload's jobs use, in a fixed order.
    pub fn programs(self) -> Vec<Program> {
        let mut programs: Vec<Program> = self
            .block_mix()
            .into_iter()
            .map(|(kind, _)| kind.program())
            .collect();
        programs.sort();
        programs.dedup();
        programs
    }

    /// Whether jobs reuse one embedding cache warmed in setup.
    pub fn warm_cache(self) -> bool {
        self == Workload::HwWarm
    }

    /// Whether each sampling job compiles its program from source first,
    /// as a program's first run and the examples do.
    pub fn compiles_per_job(self) -> bool {
        matches!(self, Workload::HwCold | Workload::SwRun)
    }

    /// Block `index` of the job list for `seed`.
    ///
    /// Each kind's inputs (pins, or which gate an edit swaps) walk a
    /// golden-ratio sequence from a seeded start, so any run of
    /// consecutive blocks covers the kind's input space evenly and the
    /// mix a run measures barely depends on the seed. Sampler seeds are
    /// drawn at random.
    pub fn block(self, seed: u64, index: u64) -> Vec<Job> {
        let mut rng = Rng::keyed(&[seed, self as u64, index]);
        let mut jobs = Vec::new();
        for (k, (kind, count)) in self.block_mix().into_iter().enumerate() {
            let start = Rng::keyed(&[seed, self as u64, u64::MAX - k as u64]).next_u64();
            for j in 0..count {
                jobs.push(kind.draw(
                    golden_point(start, index * count as u64 + j as u64),
                    &mut rng,
                ));
            }
        }
        rng.shuffle(&mut jobs);
        jobs
    }

    /// The smoke list: one figure2 and one circsat job per workload.
    pub fn smoke_block(self) -> Vec<Job> {
        let mut rng = Rng::keyed(&[0, self as u64, u64::MAX]);
        let mix = self.block_mix();
        [Program::Figure2, Program::Circsat]
            .into_iter()
            .map(|want| {
                let (kind, _) = mix
                    .iter()
                    .find(|(k, _)| k.program() == want)
                    .expect("every workload runs figure2 and circsat");
                kind.draw(0, &mut rng)
            })
            .collect()
    }
}

/// Point `i` of the golden-ratio sequence started at `start`, as a
/// fraction of 2^64.
fn golden_point(start: u64, i: u64) -> u64 {
    start.wrapping_add(i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Scales a fraction of 2^64 to an index in `0..n`.
fn scale(point: u64, n: usize) -> usize {
    ((u128::from(point) * n as u128) >> 64) as usize
}

impl Kind {
    fn program(self) -> Program {
        match self {
            Kind::Figure2Forward(..) => Program::Figure2,
            Kind::Circsat(..) => Program::Circsat,
            Kind::Multiply(..) | Kind::Factor(..) | Kind::FactorUnsat(..) => Program::Mult(4),
            Kind::Australia(..) => Program::Australia,
            Kind::CounterBackward(..) => Program::Counter,
            Kind::Edit(program) => program,
        }
    }

    fn label(self) -> &'static str {
        match self {
            Kind::Figure2Forward(..) => "forward",
            Kind::Circsat(..) | Kind::Australia(..) => "solve",
            Kind::Multiply(..) => "multiply",
            Kind::Factor(..) => "factor",
            Kind::FactorUnsat(..) => "factor-unsat",
            Kind::CounterBackward(..) => "backward",
            Kind::Edit(_) => "edit",
        }
    }

    /// Draws a job whose input is picked by `point` (a fraction of 2^64
    /// of the kind's input space) and whose sampler seed comes from `rng`.
    fn draw(self, point: u64, rng: &mut Rng) -> Job {
        const REGIONS: [&str; 7] = ["NSW", "QLD", "SA", "VIC", "WA", "NT", "ACT"];
        let program = self.program();
        let (solver, reads, pins, sat) = match self {
            Kind::Edit(program) => return Job::Edit(EditJob { program, point }),
            Kind::Figure2Forward(solver, reads) => {
                let combo = scale(point, 8);
                let pins = ["s", "a", "b"]
                    .iter()
                    .enumerate()
                    .map(|(bit, name)| Pin::bit(name, combo >> bit & 1 == 1))
                    .collect();
                (solver, reads, pins, true)
            }
            Kind::Circsat(solver, reads) => (solver, reads, vec![Pin::bit("y", true)], true),
            Kind::Multiply(solver, reads) => {
                let ab = scale(point, 256) as u64;
                let pins = vec![Pin::word("A", 4, ab >> 4), Pin::word("B", 4, ab & 15)];
                (solver, reads, pins, true)
            }
            Kind::Factor(solver, reads) => {
                // Operands 2..=15, so no factor is trivial.
                let ab = scale(point, 14 * 14) as u64;
                let product = (2 + ab / 14) * (2 + ab % 14);
                (solver, reads, vec![Pin::word("C", 8, product)], true)
            }
            Kind::FactorUnsat(solver, reads) => {
                let unsat: Vec<u64> = (0..256).filter(|&c| !is_product(c, 4)).collect();
                let product = unsat[scale(point, unsat.len())];
                (solver, reads, vec![Pin::word("C", 8, product)], false)
            }
            Kind::Australia(solver, reads) => {
                let pick = scale(point, REGIONS.len() * 4);
                let pins = vec![
                    Pin::bit("valid", true),
                    Pin::word(REGIONS[pick / 4], 2, pick as u64 % 4),
                ];
                (solver, reads, pins, true)
            }
            Kind::CounterBackward(solver, reads) => {
                let target = scale(point, COUNTER_STEPS + 1) as u64;
                let mut pins = vec![Pin::word("ff_final", 6, target)];
                pins.extend((0..COUNTER_STEPS).map(|t| Pin::bit(&format!("clk@{t}"), false)));
                (solver, reads, pins, true)
            }
        };
        Job::Sample(SampleJob {
            program,
            kind: self.label(),
            pins,
            sat,
            solver,
            reads,
            run_seed: rng.next_u64(),
        })
    }
}

/// Whether `c` is the product of two `n`-bit numbers.
pub fn is_product(c: u64, n: u32) -> bool {
    (0..1u64 << n).any(|a| (0..1u64 << n).any(|b| a * b == c))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn render(jobs: &[Job]) -> String {
        jobs.iter().map(|j| format!("{j}\n")).collect()
    }

    fn counts(jobs: &[Job]) -> BTreeMap<String, usize> {
        let mut counts = BTreeMap::new();
        for job in jobs {
            *counts.entry(job.label()).or_insert(0) += 1;
        }
        counts
    }

    #[test]
    fn same_seed_gives_a_byte_identical_job_list() {
        for w in WORKLOADS {
            for block in 0..3 {
                assert_eq!(render(&w.block(1, block)), render(&w.block(1, block)));
            }
            assert_ne!(render(&w.block(1, 0)), render(&w.block(1, 1)), "{w:?}");
        }
    }

    #[test]
    fn every_seed_and_block_has_the_same_per_kind_counts() {
        for w in WORKLOADS {
            let reference = counts(&w.block(1, 0));
            for (seed, block) in [(1, 5), (2, 0), (2, 7), (99, 3)] {
                assert_eq!(
                    counts(&w.block(seed, block)),
                    reference,
                    "{w:?} seed {seed}"
                );
            }
        }
    }

    #[test]
    fn factoring_jobs_know_whether_they_are_satisfiable() {
        assert!(is_product(143, 4) && is_product(0, 4) && is_product(225, 4));
        assert!(!is_product(221, 4) && !is_product(17, 4) && !is_product(255, 4));
        for w in WORKLOADS {
            for job in w.block(2, 0) {
                if let Job::Sample(job) = job {
                    if job.pins[0].name == "C" {
                        assert_eq!(job.sat, is_product(job.pins[0].value, 4), "{job:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn pin_specs_are_written_msb_first() {
        assert_eq!(Pin::word("C", 8, 143).spec(), "C[7:0] := 10001111");
        assert_eq!(Pin::bit("y", true).spec(), "y := 1");
    }

    #[test]
    fn multiplier_generator_reproduces_listing_6() {
        let src = multiplier_source(4);
        assert!(src.contains("input [3:0] A;") && src.contains("output [7:0] C;"));
    }
}
