//! Golden output of the logical (software) samplers.
//!
//! Simulated annealing (the packed-lane kernel) and tabu search are
//! deterministic per seed, so a run's decoded samples — every
//! assignment, its energy to the bit, its occurrence count and
//! validity — are a fixed function of
//! (program, pins, sampler, seed, reads). This test pins that function
//! for the job shapes of the examples path: tabu factoring 143 on the
//! 4-bit multiplier, tabu running the 3-step counter backward, 384-sweep
//! SA colouring Australia and 256-sweep SA on circuit satisfiability. A
//! kernel optimisation that claims to change nothing observable is held
//! to exactly that.

use qac::core::{compile, CompileOptions, InitialState, RunOptions, SolverChoice};

/// Listing 6 at 4-bit operands.
const MULT4: &str = r#"
    module mult (A, B, C);
      input [3:0] A;
      input [3:0] B;
      output [7:0] C;
      assign C = A * B;
    endmodule
"#;

/// Listing 3, unrolled over three steps below.
const COUNTER: &str = r#"
    module count (clk, inc, reset, out);
      input clk;
      input inc;
      input reset;
      output [5:0] out;
      reg [5:0] var;
      always @(posedge clk)
        if (reset)
          var <= 0;
        else
          if (inc)
            var <= var + 1;
      assign out = var;
    endmodule
"#;

/// Listing 7.
const AUSTRALIA: &str = r#"
    module australia (NSW, QLD, SA, VIC, WA, NT, ACT, valid);
      input [1:0] NSW, QLD, SA, VIC, WA, NT, ACT;
      output valid;
      assign valid = WA != NT && WA != SA && NT != SA && NT != QLD
                  && SA != QLD && SA != NSW && SA != VIC && QLD != NSW
                  && NSW != VIC && NSW != ACT;
    endmodule
"#;

/// Listing 5.
const CIRCSAT: &str = r#"
    module circsat (a, b, c, y);
      input a, b, c;
      output y;
      wire [1:10] x;
      assign x[1] = a;
      assign x[2] = b;
      assign x[3] = c;
      assign x[4] = ~x[3];
      assign x[5] = x[1] | x[2];
      assign x[6] = ~x[4];
      assign x[7] = x[1] & x[2] & x[4];
      assign x[8] = x[5] | x[6];
      assign x[9] = x[6] | x[7];
      assign x[10] = x[8] & x[9] & x[7];
      assign y = x[10];
    endmodule
"#;

const GOLDEN: &str = include_str!("golden/logical_samplers.txt");

struct Job {
    name: &'static str,
    source: &'static str,
    top: &'static str,
    options: CompileOptions,
    pins: Vec<String>,
    solver: SolverChoice,
    reads: usize,
    seeds: [u64; 2],
}

fn jobs() -> Vec<Job> {
    let counter = CompileOptions {
        unroll_steps: Some(3),
        unroll_initial: InitialState::Zero,
        ..CompileOptions::default()
    };
    let mut counter_pins = vec!["ff_final[5:0] := 000010".to_string()];
    counter_pins.extend((0..3).map(|t| format!("clk@{t} := 0")));
    vec![
        Job {
            name: "mult4/factor",
            source: MULT4,
            top: "mult",
            options: CompileOptions::default(),
            pins: vec!["C[7:0] := 10001111".into()],
            solver: SolverChoice::Tabu,
            reads: 6,
            seeds: [1, 0x5eed],
        },
        Job {
            name: "counter@3/backward",
            source: COUNTER,
            top: "count",
            options: counter,
            pins: counter_pins,
            solver: SolverChoice::Tabu,
            reads: 4,
            seeds: [2, 0xc0de],
        },
        Job {
            name: "australia/solve",
            source: AUSTRALIA,
            top: "australia",
            options: CompileOptions::default(),
            pins: vec!["valid := 1".into(), "WA[1:0] := 01".into()],
            solver: SolverChoice::Sa { sweeps: 384 },
            reads: 24,
            seeds: [3, 0xa5],
        },
        Job {
            name: "circsat/solve",
            source: CIRCSAT,
            top: "circsat",
            options: CompileOptions::default(),
            pins: vec!["y := 1".into()],
            solver: SolverChoice::Sa { sweeps: 256 },
            reads: 40,
            seeds: [4, 0xface],
        },
    ]
}

/// One line per decoded sample, in the outcome's order: spins as a bit
/// string, the energy's IEEE-754 bits, the occurrence count, validity.
fn render() -> String {
    use std::fmt::Write;
    let mut out = String::new();
    for job in jobs() {
        let compiled = compile(job.source, job.top, &job.options).unwrap();
        for seed in job.seeds {
            let mut options = RunOptions::new()
                .solver(job.solver.clone())
                .num_reads(job.reads)
                .seed(seed);
            for pin in &job.pins {
                options = options.pin(pin);
            }
            let outcome = compiled.run(&options).unwrap();
            writeln!(
                out,
                "# {} solver={:?} seed={seed:#x} reads={}",
                job.name, job.solver, job.reads
            )
            .unwrap();
            for sample in &outcome.samples {
                let bits: String = sample
                    .spins
                    .iter()
                    .map(|s| if s.to_bool() { '1' } else { '0' })
                    .collect();
                writeln!(
                    out,
                    "{bits} {:#018x} {} {}",
                    sample.energy.to_bits(),
                    sample.occurrences,
                    if sample.valid { "valid" } else { "invalid" }
                )
                .unwrap();
            }
        }
    }
    out
}

#[test]
fn logical_sampler_outputs_match_the_golden() {
    let rendered = render();
    if rendered != GOLDEN {
        let first = rendered
            .lines()
            .zip(GOLDEN.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| rendered.lines().count().min(GOLDEN.lines().count()));
        panic!(
            "logical-sampler output differs from tests/golden/logical_samplers.txt \
             from line {}:\n{rendered}",
            first + 1
        );
    }
}
