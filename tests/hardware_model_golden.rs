//! Golden output of the hardware model.
//!
//! `DWaveSim` is deterministic per seed, so a run's decoded logical
//! sample set — every assignment, its energy to the bit and its
//! occurrence count — together with the mean chain-break fraction is a
//! fixed function of (program, options, seed, reads). This test pins
//! that function for Figure 2 and circuit satisfiability (Listing 5) on
//! the default 2000Q model, so a sampler optimisation that claims to
//! change nothing observable is held to exactly that.

use qac::core::{compile, CompileOptions};
use qac::solvers::{DWaveSim, DWaveSimOptions, PhysicalAnnealer};

const FIGURE2: &str = r#"
    module circuit (s, a, b, c);
      input s, a, b;
      output [1:0] c;
      assign c = s ? a+b : a-b;
    endmodule
"#;

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

const GOLDEN: &str = include_str!("golden/hardware_model.txt");

/// One line per distinct logical sample, in the set's order: spins as a
/// bit string, the energy's IEEE-754 bits, the occurrence count.
fn render_run(
    out: &mut String,
    name: &str,
    source: &str,
    top: &str,
    seed: u64,
    annealer: PhysicalAnnealer,
) {
    use std::fmt::Write;
    let compiled = compile(source, top, &CompileOptions::default()).unwrap();
    let options = DWaveSimOptions {
        seed,
        annealer,
        ..DWaveSimOptions::default()
    };
    let reads = 100;
    let result = DWaveSim::new(options)
        .run(&compiled.assembled.ising, reads)
        .unwrap();
    writeln!(
        out,
        "# {name} seed={seed:#x} annealer={annealer:?} reads={reads}"
    )
    .unwrap();
    writeln!(
        out,
        "mean_chain_breaks {:#018x}",
        result.mean_chain_breaks.to_bits()
    )
    .unwrap();
    for sample in result.logical.iter() {
        let bits: String = sample
            .spins
            .iter()
            .map(|s| if s.to_bool() { '1' } else { '0' })
            .collect();
        writeln!(
            out,
            "{bits} {:#018x} {}",
            sample.energy.to_bits(),
            sample.occurrences
        )
        .unwrap();
    }
}

fn render() -> String {
    let mut out = String::new();
    for seed in [1, 0x5eed] {
        render_run(
            &mut out,
            "figure2",
            FIGURE2,
            "circuit",
            seed,
            PhysicalAnnealer::ChainBlock,
        );
        render_run(
            &mut out,
            "circsat",
            CIRCSAT,
            "circsat",
            seed,
            PhysicalAnnealer::ChainBlock,
        );
    }
    render_run(
        &mut out,
        "figure2",
        FIGURE2,
        "circuit",
        7,
        PhysicalAnnealer::BitParallel,
    );
    out
}

#[test]
fn default_hardware_model_samples_match_the_golden() {
    let rendered = render();
    if rendered != GOLDEN {
        let first = rendered
            .lines()
            .zip(GOLDEN.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| rendered.lines().count().min(GOLDEN.lines().count()));
        panic!(
            "hardware-model output differs from tests/golden/hardware_model.txt \
             from line {}:\n{rendered}",
            first + 1
        );
    }
}
