//! The stage records a compile and a run leave behind: for Figure 2, the
//! exact `(name, input_size, output_size, retries, skipped)` of every
//! compile stage and of an Exact run with fixed pins, and the stage
//! names, in order, of a hardware-model run. Sizes are deterministic
//! (bytes, cells, statements, terms, reads), so any change to what a
//! stage measures or where it is recorded shows here.

use qac::core::{compile, CompileOptions, Compiled, RunOptions, SolverChoice, Trace};
use qac::solvers::{DWaveSimOptions, TopologySpec};

const FIGURE2: &str = r#"
module circuit (s, a, b, c);
  input s, a, b;
  output [1:0] c;
  assign c = s ? a+b : a-b;
endmodule
"#;

type Record = (String, usize, usize, usize, bool);

fn records(trace: &Trace) -> Vec<Record> {
    trace
        .stages()
        .iter()
        .map(|s| {
            (
                s.name.clone(),
                s.input_size,
                s.output_size,
                s.retries,
                s.skipped,
            )
        })
        .collect()
}

fn figure2() -> Compiled {
    let options = CompileOptions {
        certify: true,
        ..Default::default()
    };
    compile(FIGURE2, "circuit", &options).unwrap()
}

fn record(name: &str, input_size: usize, output_size: usize) -> Record {
    (name.to_string(), input_size, output_size, 0, false)
}

#[test]
fn a_certified_compile_records_ten_stages() {
    assert_eq!(
        records(&figure2().trace),
        [
            record("verilog-parse", 103, 26),
            record("unroll", 26, 26),
            record("optimize", 26, 10),
            record("edif-write", 10, 4913),
            record("edif-read", 4913, 10),
            record("qmasm-gen", 10, 3369),
            record("qmasm-parse", 653, 39),
            record("assemble", 39, 55),
            record("analyze", 55, 22),
            record("certify", 36, 7),
        ]
    );
}

#[test]
fn an_exact_run_records_pin_sample_interpret() {
    let run = RunOptions::new()
        .pin("s := 1")
        .pin("a := 1")
        .pin("b := 0")
        .fix_pins()
        .solver(SolverChoice::Exact);
    let outcome = figure2().run(&run).unwrap();
    assert_eq!(
        records(&outcome.trace),
        [
            record("pin", 3, 36),
            record("sample", 36, 96),
            record("interpret", 96, 8),
        ]
    );
}

#[test]
fn a_hardware_run_records_the_sample_phases_after_sample() {
    let sim = DWaveSimOptions {
        topology: TopologySpec::Chimera { m: 4 },
        anneal_sweeps: 40,
        ..Default::default()
    };
    let run = RunOptions::new()
        .pin("s := 1")
        .pin("a := 1")
        .pin("b := 0")
        .solver(SolverChoice::DWave(Box::new(sim)))
        .num_reads(20);
    let outcome = figure2().run(&run).unwrap();
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
            "interpret",
        ]
    );
}
