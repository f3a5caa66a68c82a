//! A hardware job whose embed fails explains itself from the flight
//! ring: the dump names `sample:embed` as the phase that began and never
//! ended, and carries the failure.
//!
//! This file holds exactly one test, so no other test in the same
//! binary records into the process-global ring while it runs
//! (integration-test binaries are per-file).

use qac_core::{compile, CompileError, CompileOptions, RunOptions, SolverChoice};
use qac_solvers::Topology;
use qac_telemetry::{json, TraceId, TraceScope};

/// Twelve inputs that all meet in one output, so the logical model has
/// more variables than the 8-qubit fabric below has qubits.
const WIDE_AND: &str = r#"
    module wide (a, y);
      input [11:0] a;
      output y;
      assign y = &a;
    endmodule
"#;

#[test]
fn a_failed_embed_names_its_phase_in_the_flight_dump() {
    let program = compile(WIDE_AND, "wide", &CompileOptions::default()).unwrap();
    let fabric = qac_solvers::TopologySpec::Chimera { m: 1 };
    assert!(
        program.stats.logical_variables > fabric.num_qubits(),
        "{} logical variables must not fit {} qubits",
        program.stats.logical_variables,
        fabric.num_qubits()
    );
    let options = RunOptions::new()
        .pin("y := 1")
        .solver(SolverChoice::DWave(Box::new(
            qac_solvers::DWaveSimOptions {
                topology: fabric,
                ..Default::default()
            },
        )))
        .num_reads(10);

    let trace = TraceId::fresh();
    let result = {
        let _scope = TraceScope::enter(trace);
        program.run(&options)
    };
    assert!(
        matches!(result, Err(CompileError::Embed(_))),
        "the job must fail in the embed: {result:?}"
    );

    let events: Vec<(String, String)> = qac_telemetry::global_flight()
        .dump_jsonl(trace)
        .lines()
        .map(|line| {
            let event = json::parse(line).expect("valid JSON");
            let field = |key: &str| {
                event
                    .get(key)
                    .and_then(|v| v.as_str())
                    .expect(key)
                    .to_string()
            };
            (field("kind"), field("name"))
        })
        .collect();
    let has = |kind: &str, name: &str| events.iter().any(|(k, n)| k == kind && n == name);
    assert!(
        has("stage_begin", "sample:embed"),
        "the dying phase began: {events:?}"
    );
    assert!(
        !has("stage_end", "sample:embed"),
        "the dying phase never ended: {events:?}"
    );
    assert!(
        events.iter().any(|(kind, _)| kind == "job_failed"),
        "the failure is recorded: {events:?}"
    );
}
