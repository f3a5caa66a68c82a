//! The flight-recorder post-mortem contract: a job run under its own
//! trace id can explain itself from the ring alone, without re-running.
//!
//! This file holds exactly one test, so no other test in the same
//! binary records into the process-global ring while it runs
//! (integration-test binaries are per-file).

use std::collections::BTreeMap;
use std::sync::Arc;

use qac_core::{compile, CompileOptions, RunOptions, SolverChoice};
use qac_telemetry::{json, TraceId, TraceScope};

const MUX_ADD_SUB: &str = r#"
    module circuit (s, a, b, c);
      input s, a, b;
      output [1:0] c;
      assign c = s ? a+b : a-b;
    endmodule
"#;

#[test]
fn a_traced_job_dumps_its_own_flight_events() {
    let program = compile(MUX_ADD_SUB, "circuit", &CompileOptions::default()).unwrap();
    let cache = Arc::new(qac_chimera::EmbeddingCache::new());
    // The D-Wave solver path exercises the embedding cache, so the
    // post-mortem carries cache events too.
    let options = RunOptions::new()
        .pin("s := 0")
        .pin("a := 1")
        .pin("b := 1")
        .solver(SolverChoice::DWave(Box::new(
            qac_solvers::DWaveSimOptions {
                topology: qac_solvers::TopologySpec::Chimera { m: 4 },
                anneal_sweeps: 8,
                embedding_cache: Some(cache),
                ..Default::default()
            },
        )))
        .num_reads(10);

    // The caller mints the trace where the job starts.
    let trace = TraceId::fresh();
    assert!(!trace.is_none());
    let outcome = {
        let _scope = TraceScope::enter(trace);
        program.run(&options).unwrap()
    };

    // The dump is valid JSONL, every line is a flight event tagged with
    // this job's trace id.
    let dump = qac_telemetry::global_flight().dump_jsonl(trace);
    let token = trace.to_string();
    assert!(
        dump.contains(&token),
        "dump must carry the trace token {token}:\n{dump}"
    );
    let mut kinds = std::collections::BTreeSet::new();
    // stage name → the `stage_end` values (µs) recorded under it, in order.
    let mut stage_ends: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for (i, line) in dump.lines().enumerate() {
        let event = json::parse(line)
            .unwrap_or_else(|err| panic!("dump line {}: invalid JSON: {err}", i + 1));
        assert_eq!(
            event.get("type").and_then(|t| t.as_str()),
            Some("flight"),
            "line {}",
            i + 1
        );
        assert_eq!(
            event.get("trace").and_then(|t| t.as_str()),
            Some(token.as_str()),
            "line {}: foreign trace in a per-job dump",
            i + 1
        );
        let kind = event.get("kind").and_then(|k| k.as_str()).expect("kind");
        if kind == "stage_end" {
            let name = event.get("name").and_then(|n| n.as_str()).expect("name");
            let value = event.get("value").and_then(|v| v.as_f64()).expect("value");
            stage_ends.entry(name.to_string()).or_default().push(value);
        }
        kinds.insert(kind.to_string());
    }

    // One record, three views: every stage — run stages and the hardware
    // model's sample:* phases alike — has exactly one `stage_end` event
    // per trace record, carrying that record's duration.
    let mut records: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for stage in outcome.trace.stages() {
        records
            .entry(stage.name.clone())
            .or_default()
            .push(stage.duration.as_secs_f64() * 1e6);
    }
    assert!(
        records.contains_key("sample:embed"),
        "the hardware phases are on the trace: {records:?}"
    );
    assert_eq!(
        stage_ends, records,
        "stage_end events (name → µs) must match the run's trace records"
    );

    // Pipeline lifecycle: the run's stages ran to completion, and the
    // first embed missed the cache.
    for kind in ["stage_begin", "stage_end", "cache_miss"] {
        assert!(kinds.contains(kind), "missing {kind} event; saw {kinds:?}");
    }
    // Nothing recorded under other traces leaks in: a fresh trace id has
    // no events.
    let foreign = qac_telemetry::global_flight().dump_jsonl(TraceId::fresh());
    assert!(foreign.is_empty());

    // Incremental recompiles are post-mortem-visible too: a warm
    // recompile under its own trace scope leaves one `stage_skip` flight
    // event per replayed stage, tagged with that job's trace id — so a
    // dump can explain not just what ran, but what was *skipped* and
    // under which edit session (DESIGN.md §14).
    let recompile_trace = qac_telemetry::TraceId::fresh();
    let report = {
        let _scope = qac_telemetry::TraceScope::enter(recompile_trace);
        let (_, report) = qac_core::compile_incremental(
            &program,
            MUX_ADD_SUB,
            "circuit",
            &CompileOptions::default(),
        )
        .unwrap();
        report
    };
    assert!(!report.full_rebuild);
    assert!(report.skipped() > 0, "identical source skips stages");
    let skip_events: Vec<String> = qac_telemetry::global_flight()
        .events_for(recompile_trace)
        .iter()
        .filter(|e| e.kind == qac_telemetry::FlightKind::StageSkip)
        .map(|e| e.name.to_string())
        .collect();
    assert_eq!(
        skip_events.len(),
        report.skipped(),
        "every skipped stage leaves a stage_skip event under the job's trace"
    );
    assert!(
        skip_events.iter().any(|n| n == "assemble"),
        "skip events name the skipped stage: {skip_events:?}"
    );
    // The skip events stay scoped: the traced run's dump has none.
    assert!(
        !kinds.contains("stage_skip"),
        "the traced run compiled nothing incrementally"
    );
}
