//! Runs one workload: set up, then a closed loop of jobs, each timed and
//! its answer checked.
//!
//! Only public entry points are called, the ones users call:
//! `qac_core::compile`, `compile_netlist`, `compile_netlist_incremental`,
//! `Compiled::run` (hardware model or a logical sampler), an
//! `EmbeddingCache`, and `verify_certificate`. The benchmark's own spans
//! (`e2e.job`, `e2e.compile`, `e2e.recompile`, `e2e.run`, `e2e.verify`)
//! wrap those calls; the time below them is attributed from the `Trace`
//! each call returns and from counters the crates already export.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use qac_chimera::EmbeddingCache;
use qac_core::{
    artifact_mismatch, compile, compile_netlist, compile_netlist_incremental, verify_certificate,
    CompileOptions, Compiled, RunOptions, RunOutcome, SolverChoice, Trace, CERT_PROVED_COUNTER,
    CERT_SKIPPED_COUNTER,
};
use qac_netlist::{CellKind, Netlist};
use qac_solvers::{DWaveSimOptions, PhysicalAnnealer, Topology};

use crate::jobs::{EditJob, Job, Program, SampleJob, Solver, Workload};
use crate::metrics::{self, Metric};
use crate::oracle;

/// How one run is configured.
#[derive(Debug, Clone)]
pub struct Settings {
    pub workload: Workload,
    pub seed: u64,
    /// Keep starting blocks until this much time has been measured.
    pub seconds: f64,
    /// Run traced and untraced blocks alternately and report per-layer
    /// metrics.
    pub trace: bool,
    pub annealer: PhysicalAnnealer,
    /// Run the two-job smoke list instead of the workload's blocks.
    pub smoke: bool,
}

/// Counters the crates export, read around a run, and the per-layer
/// metric each feeds. The embed counters are read with their
/// `{topology=...}` label: the unlabeled totals are added twice per
/// hardware-model job.
const RUN_COUNTERS: &[(&str, &str)] = &[
    (
        "qac_embed_heap_pops_total{topology=\"chimera\"}",
        "chimera.heap_pops",
    ),
    (
        "qac_embed_edge_relaxations_total{topology=\"chimera\"}",
        "chimera.edge_relaxations",
    ),
    (
        "qac_embed_weight_updates_total{topology=\"chimera\"}",
        "chimera.weight_updates",
    ),
    (
        "qac_route_iterations_total{topology=\"chimera\"}",
        "chimera.route_iterations",
    ),
    (
        "qac_embed_restarts_total{topology=\"chimera\"}",
        "chimera.restarts",
    ),
    (
        "qac_sampler_sweeps_total{sampler=\"sa\"}",
        "solvers.sweeps.sa",
    ),
    (
        "qac_sampler_flips_total{sampler=\"sa\"}",
        "solvers.flips.sa",
    ),
];

/// Counters read around a cold compile.
const COMPILE_COUNTERS: &[(&str, &str)] = &[
    (CERT_PROVED_COUNTER, "cert.obligations_proved"),
    (CERT_SKIPPED_COUNTER, "cert.obligations_skipped"),
];

/// What one job measured.
#[derive(Debug, Default)]
pub struct JobRecord {
    /// Wall time of the job: the calls a user waits for.
    pub wall_ms: f64,
    pub traced: bool,
    /// Answers produced: reads, or one compiled program per edit.
    pub answers: usize,
    /// Answers the oracle accepted.
    pub valid: usize,
    pub solved: bool,
    /// Physical qubits on the hardware model, else logical variables.
    pub qubits: f64,
    /// The cold compile this job made — in the job on `hw_cold` and
    /// `sw_run`, as a check on `hw_warm` and `edit` — and its wall ms.
    pub cold_compile: Option<(Program, f64)>,
    /// The job's kind, e.g. `mult4/factor`, for the per-kind rows.
    pub label: String,
    pub error: Option<String>,
    pub layers: BTreeMap<&'static str, f64>,
}

impl JobRecord {
    fn add(&mut self, layer: &'static str, value: f64) {
        *self.layers.entry(layer).or_insert(0.0) += value;
    }

    fn fail(&mut self, message: String) {
        self.error.get_or_insert(message);
    }
}

/// The outcome of a run.
#[derive(Debug)]
pub struct Report {
    pub attempted: usize,
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Count metrics, for the determinism check.
    pub counts: Vec<Metric>,
    /// One row per job kind.
    pub kinds: Vec<KindRow>,
}

/// A job kind's jobs, median wall time and answer quality.
#[derive(Debug)]
pub struct KindRow {
    pub label: String,
    pub jobs: usize,
    pub p50_ms: f64,
    pub valid_frac: f64,
    pub solved_frac: f64,
}

/// A program's edit state: the netlist as edited so far and its compile.
struct EditState {
    current: Netlist,
    prev: Compiled,
    /// Cells with a 2-input dual (AND/OR, XOR/XNOR, NAND/NOR).
    swappable: Vec<usize>,
}

/// Everything a workload builds once before its jobs run.
struct Bench {
    workload: Workload,
    annealer: PhysicalAnnealer,
    compiled: BTreeMap<Program, Compiled>,
    cache: Option<Arc<EmbeddingCache>>,
    edits: BTreeMap<Program, EditState>,
}

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Runs `f` inside a span named `span`, returning its wall time in ms.
fn timed<T>(span: &str, f: impl FnOnce() -> T) -> (T, f64) {
    let _span = qac_telemetry::global().span(span);
    let start = Instant::now();
    let out = f();
    (out, ms_since(start))
}

/// Runs `f`, adding how far `counters` moved during it to a traced job's
/// layers (with telemetry off, as on untraced jobs, they stand still).
fn counted<T>(rec: &mut JobRecord, counters: &[(&str, &'static str)], f: impl FnOnce() -> T) -> T {
    if !rec.traced {
        return f();
    }
    let metrics = qac_telemetry::global().metrics();
    let before: Vec<u64> = counters
        .iter()
        .map(|(name, _)| metrics.counter(name))
        .collect();
    let out = f();
    for (&(name, layer), before) in counters.iter().zip(before) {
        rec.add(layer, (metrics.counter(name) - before) as f64);
    }
    out
}

fn duals(kind: CellKind) -> Option<CellKind> {
    Some(match kind {
        CellKind::And => CellKind::Or,
        CellKind::Or => CellKind::And,
        CellKind::Xor => CellKind::Xnor,
        CellKind::Xnor => CellKind::Xor,
        CellKind::Nand => CellKind::Nor,
        CellKind::Nor => CellKind::Nand,
        _ => return None,
    })
}

/// Independently re-checks a compile's certificate.
fn verify(compiled: &Compiled, rec: &mut JobRecord) {
    let (issues, ms) = timed("e2e.verify", || {
        compiled.certificate.as_ref().map(verify_certificate)
    });
    rec.add("cert.verify_ms", ms);
    match issues {
        None => rec.fail("compile carries no certificate".into()),
        Some(issues) => {
            if let Some(issue) = issues.iter().find(|i| i.kind.is_error()) {
                rec.fail(format!(
                    "certificate rejected: {}: {}",
                    issue.site, issue.message
                ));
            }
        }
    }
}

/// Compiles `program` from source, recording the cold compile's time
/// and layers; a failure is recorded on the job.
fn compile_cold(program: Program, rec: &mut JobRecord) -> Option<Compiled> {
    let (compiled, ms) = counted(rec, COMPILE_COUNTERS, || {
        timed("e2e.compile", || {
            compile(&program.source(), program.top(), &program.options())
        })
    });
    match compiled {
        Ok(compiled) => {
            rec.cold_compile = Some((program, ms));
            compile_layers(rec, &compiled, ms);
            Some(compiled)
        }
        Err(e) => {
            rec.fail(format!("{} does not compile: {e}", program.name()));
            None
        }
    }
}

/// Attributes a compile's wall time to its stages.
fn compile_layers(rec: &mut JobRecord, compiled: &Compiled, wall_ms: f64) {
    for stage in compiled.trace.stages() {
        let layer = match stage.name.as_str() {
            "verilog-parse" => "verilog.parse_ms",
            "unroll" => "netlist.unroll_ms",
            "optimize" => "netlist.optimize_ms",
            "edif-write" => "edif.write_ms",
            "edif-read" => "edif.read_ms",
            "qmasm-gen" => "qmasm.gen_ms",
            "qmasm-parse" => "qmasm.parse_ms",
            "assemble" => "qmasm.assemble_ms",
            "analyze" => "analysis.analyze_ms",
            "certify" => "cert.certify_ms",
            _ => continue,
        };
        rec.add(layer, stage.duration.as_secs_f64() * 1e3);
    }
    rec.add("e2e.compile_ms", wall_ms);
    unattributed(rec, &compiled.trace, wall_ms);
    let stats = &compiled.stats;
    rec.add("netlist.cells", stats.netlist.cells as f64);
    rec.add("edif.bytes", compiled.edif.len() as f64);
    rec.add("qmasm.logical_vars", stats.logical_variables as f64);
    rec.add("qmasm.logical_terms", stats.logical_terms as f64);
    rec.add("analysis.diagnostics", compiled.diagnostics().len() as f64);
}

/// Attributes a run's wall time to its stages.
fn run_layers(rec: &mut JobRecord, outcome: &RunOutcome, wall_ms: f64, reads: usize) {
    let ms = |name: &str| outcome.trace.total_for(name).as_secs_f64() * 1e3;
    rec.add("e2e.run_ms", wall_ms);
    rec.add("core.pin_ms", ms("pin"));
    rec.add("core.interpret_ms", ms("interpret"));
    unattributed(rec, &outcome.trace, wall_ms);
    let sample = ms("sample");
    let Some(hw) = &outcome.hardware else {
        rec.add("solvers.sample_ms", sample);
        rec.add("solvers.reads_per_s", reads as f64 / (sample / 1e3));
        return;
    };
    let phases =
        ["scale", "embed", "distort", "anneal", "unembed"].map(|p| ms(&format!("sample:{p}")));
    rec.add("core.sample_self_ms", sample - phases.iter().sum::<f64>());
    rec.add("pbf.scale_ms", phases[0]);
    rec.add("chimera.embed_ms", phases[1]);
    rec.add("solvers.distort_ms", phases[2]);
    rec.add("solvers.anneal_ms", phases[3]);
    rec.add("solvers.anneal_us_per_read", phases[3] * 1e3 / reads as f64);
    rec.add("solvers.unembed_ms", phases[4]);
    rec.add("chimera.physical_qubits", hw.physical_qubits as f64);
    rec.add("chimera.physical_terms", hw.physical_terms as f64);
    let fabric = DWaveSimOptions::default().topology_spec().num_qubits();
    rec.add(
        "solvers.active_qubit_frac",
        hw.physical_qubits as f64 / fabric as f64,
    );
    rec.add("solvers.chain_break_frac", hw.chain_breaks);
}

/// The part of a call's wall time its trace's top-level stages do not
/// cover (`sample:*` entries are phases inside `sample`).
fn unattributed(rec: &mut JobRecord, trace: &Trace, wall_ms: f64) {
    let covered: f64 = trace
        .stages()
        .iter()
        .filter(|s| !s.name.contains(':'))
        .map(|s| s.duration.as_secs_f64() * 1e3)
        .sum();
    rec.add("e2e.unattributed_ms", wall_ms - covered);
}

impl Bench {
    fn setup(workload: Workload, annealer: PhysicalAnnealer) -> Result<Bench, String> {
        let mut bench = Bench {
            workload,
            annealer,
            compiled: BTreeMap::new(),
            cache: workload
                .warm_cache()
                .then(|| Arc::new(EmbeddingCache::new())),
            edits: BTreeMap::new(),
        };
        let mut rec = JobRecord::default();
        for program in workload.programs() {
            let compiled = compile(&program.source(), program.top(), &program.options())
                .map_err(|e| format!("{} does not compile: {e}", program.name()))?;
            verify(&compiled, &mut rec);
            if bench.cache.is_some() {
                // One read per program embeds it into the shared cache.
                let options = RunOptions::new().solver(bench.hardware(0)).num_reads(1);
                compiled
                    .run(&options)
                    .map_err(|e| format!("{} does not embed: {e}", program.name()))?;
            }
            if workload == Workload::Edit {
                let base = compiled.netlist.clone();
                let prev = compile_netlist(base.clone(), &CompileOptions::default())
                    .map_err(|e| format!("{} netlist does not compile: {e}", program.name()))?;
                let swappable: Vec<usize> = (0..base.cells().len())
                    .filter(|&c| duals(base.cells()[c].kind).is_some())
                    .collect();
                if swappable.is_empty() {
                    return Err(format!("{} has no swappable gate", program.name()));
                }
                bench.edits.insert(
                    program,
                    EditState {
                        current: base,
                        prev,
                        swappable,
                    },
                );
            }
            bench.compiled.insert(program, compiled);
        }
        match rec.error {
            Some(error) => Err(error),
            None => Ok(bench),
        }
    }

    /// The hardware model as users get it by default (default embedding
    /// options included), with the job's seed and, on `hw_warm`, the
    /// shared cache.
    fn hardware(&self, run_seed: u64) -> SolverChoice {
        SolverChoice::DWave(Box::new(DWaveSimOptions {
            seed: run_seed,
            annealer: self.annealer,
            embedding_cache: self.cache.clone(),
            ..DWaveSimOptions::default()
        }))
    }

    fn run_job(&mut self, job: &Job, traced: bool) -> JobRecord {
        let mut rec = JobRecord {
            traced,
            label: job.label(),
            ..JobRecord::default()
        };
        let cache_before = self.cache.as_ref().map(|c| (c.hits(), c.misses()));
        match job {
            Job::Sample(job) => self.run_sample(job, &mut rec),
            Job::Edit(job) => self.run_edit(job, &mut rec),
        }
        if let (Some(cache), Some((hits, misses))) = (&self.cache, cache_before) {
            let hit = cache.hits() - hits;
            rec.add("chimera.cache_hits", hit as f64);
            rec.add("chimera.cache_misses", (cache.misses() - misses) as f64);
            if hit > 0 {
                let embed = rec.layers.get("chimera.embed_ms").copied().unwrap_or(0.0);
                rec.add("chimera.cache_hit_embed_ms", embed);
            }
        }
        rec.add("e2e.job_ms", rec.wall_ms);
        rec
    }

    fn run_sample(&mut self, job: &SampleJob, rec: &mut JobRecord) {
        let solver = match job.solver {
            Solver::DWave => self.hardware(job.run_seed),
            Solver::Sa(sweeps) => SolverChoice::Sa { sweeps },
            Solver::Tabu => SolverChoice::Tabu,
        };
        let mut options = RunOptions::new()
            .solver(solver)
            .num_reads(job.reads)
            .seed(job.run_seed);
        for pin in &job.pins {
            options = options.pin(&pin.spec());
        }
        let program = job.program;
        let cold = self.workload.compiles_per_job();

        let job_span = qac_telemetry::global().span("e2e.job");
        let start = Instant::now();
        let fresh;
        let compiled = if cold {
            match compile_cold(program, rec) {
                Some(compiled) => {
                    fresh = compiled;
                    &fresh
                }
                None => return,
            }
        } else {
            &self.compiled[&program]
        };
        let (outcome, run_ms) = counted(rec, RUN_COUNTERS, || {
            timed("e2e.run", || compiled.run(&options))
        });
        rec.wall_ms = ms_since(start);
        drop(job_span);

        let outcome = match outcome {
            Ok(outcome) => outcome,
            Err(e) => return rec.fail(format!("{} run failed: {e}", program.name())),
        };
        run_layers(rec, &outcome, run_ms, job.reads);
        if cold {
            verify(compiled, rec);
        } else if let Some(again) = compile_cold(program, rec) {
            // Warm jobs reuse the set-up compile, which is sound only if
            // compiling is deterministic: a fresh compile must match it.
            if let Some(diff) = artifact_mismatch(&again, compiled) {
                rec.fail(format!("{} recompiles differently: {diff}", program.name()));
            }
        }
        for sample in &outcome.samples {
            rec.answers += sample.occurrences;
            if !sample.valid {
                continue;
            }
            match oracle::check(program, &job.pins, &|name| sample.values.get(name)) {
                Ok(()) => rec.valid += sample.occurrences,
                Err(why) => rec.fail(format!("wrong answer from {}: {why}", program.name())),
            }
        }
        rec.solved = if job.sat {
            rec.valid > 0
        } else {
            rec.valid == 0
        };
        rec.qubits = match &outcome.hardware {
            Some(hw) => hw.physical_qubits as f64,
            None => compiled.stats.logical_variables as f64,
        };
    }

    fn run_edit(&mut self, job: &EditJob, rec: &mut JobRecord) {
        let options = CompileOptions::default();
        let state = self
            .edits
            .get_mut(&job.program)
            .expect("set-up compiled every edit program");
        let cell = state.swappable[job.cell(state.swappable.len())];
        let mut edited = state.current.clone();
        let kind = duals(edited.cells()[cell].kind).expect("swaps keep a cell swappable");
        edited.set_cell_kind(cell, kind);
        let (input, cold_input) = (edited.clone(), edited.clone());

        let job_span = qac_telemetry::global().span("e2e.job");
        let (warm, ms) = timed("e2e.recompile", || {
            compile_netlist_incremental(&state.prev, input, &options)
        });
        drop(job_span);
        rec.wall_ms = ms;
        let (warm, report) = match warm {
            Ok(warm) => warm,
            Err(e) => return rec.fail(format!("{} recompile failed: {e}", job.program.name())),
        };
        rec.add("e2e.recompile_ms", ms);
        unattributed(rec, &warm.trace, ms);
        let skipped = report.skipped();
        rec.add("core.recompile_stages_skipped", skipped as f64);
        rec.add(
            "core.recompile_stages_run",
            (report.stages.len() - skipped) as f64,
        );

        // The oracle: a cold compile of the same netlist must produce the
        // same artifacts, and the certificate must verify.
        let (cold, cold_ms) = counted(rec, COMPILE_COUNTERS, || {
            timed("e2e.compile", || compile_netlist(cold_input, &options))
        });
        match cold {
            Ok(cold) => {
                rec.cold_compile = Some((job.program, cold_ms));
                compile_layers(rec, &cold, cold_ms);
                if let Some(diff) = artifact_mismatch(&cold, &warm) {
                    rec.fail(format!(
                        "{} incremental != cold: {diff}",
                        job.program.name()
                    ));
                }
            }
            Err(e) => rec.fail(format!("{} cold compile failed: {e}", job.program.name())),
        }
        verify(&warm, rec);
        rec.answers = 1;
        rec.valid = usize::from(rec.error.is_none());
        rec.solved = rec.error.is_none();
        rec.qubits = warm.stats.logical_variables as f64;
        state.prev = warm;
        state.current = edited;
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The percentile `job_tail_ms` reports: the highest with at least ten
/// jobs beyond it at the job count a run reaches on a 2-core host. It is
/// fixed per workload, so a faster build reports the same quantile.
pub fn tail_percentile(workload: Workload) -> f64 {
    match workload {
        Workload::HwCold => 0.75,
        Workload::HwWarm => 0.90,
        Workload::SwRun => 0.90,
        Workload::Edit => 0.99,
    }
}

/// `setup_s` is the median of several set-ups in one run. A run sets up
/// at least `MIN_SETUPS` times, then keeps going until the set-ups have
/// taken `SETUP_BUDGET_S` seconds or `MAX_SETUPS` were made. On a 2-core
/// host over ten seeds, the cheap set-ups (`hw_cold`, `sw_run`: 6–9 ms)
/// ran ~10% slower the first time in a process, and a single set-up's
/// IQR/median was 6–7% against 3–4% for the median of ~150.
const MIN_SETUPS: usize = 3;
const SETUP_BUDGET_S: f64 = 1.0;
const MAX_SETUPS: usize = 200;

fn setup_done(times: &[f64]) -> bool {
    times.len() >= MAX_SETUPS
        || (times.len() >= MIN_SETUPS && times.iter().sum::<f64>() >= SETUP_BUDGET_S)
}

/// Runs one workload and summarises it.
pub fn run(settings: &Settings) -> Result<Report, String> {
    let telemetry = qac_telemetry::global();
    telemetry.disable();
    let mut setup_s = Vec::new();
    let mut bench = loop {
        let start = Instant::now();
        let bench = Bench::setup(settings.workload, settings.annealer)?;
        setup_s.push(start.elapsed().as_secs_f64());
        if setup_done(&setup_s) {
            break bench;
        }
    };

    // Traced runs alternate untraced and traced blocks so both see the
    // same mix; the untraced blocks give the tracing overhead.
    let min_blocks = if settings.trace { 2 } else { 1 };
    let start = Instant::now();
    let mut records = Vec::new();
    for block in 0u64.. {
        let done = block >= min_blocks
            && (settings.smoke || start.elapsed().as_secs_f64() >= settings.seconds);
        if done {
            break;
        }
        let traced = settings.trace && block % 2 == 1;
        if traced {
            telemetry.enable();
        } else {
            telemetry.disable();
        }
        let jobs = if settings.smoke {
            settings.workload.smoke_block()
        } else {
            settings.workload.block(settings.seed, block)
        };
        for job in &jobs {
            records.push(bench.run_job(job, traced));
        }
    }
    telemetry.disable();

    let failures: Vec<String> = records.iter().filter_map(|r| r.error.clone()).collect();
    let untraced: Vec<&JobRecord> = records.iter().filter(|r| !r.traced).collect();
    let counts = count_metrics(&untraced);
    let metrics = if settings.trace {
        let traced: Vec<&JobRecord> = records.iter().filter(|r| r.traced).collect();
        let mut layers =
            metrics::summarise_layers(&traced.iter().map(|r| r.layers.clone()).collect::<Vec<_>>());
        let p50 =
            |rs: &[&JobRecord]| metrics::median(&rs.iter().map(|r| r.wall_ms).collect::<Vec<_>>());
        let overhead = (p50(&traced) / p50(&untraced) - 1.0) * 100.0;
        layers.push(Metric::new(
            metrics::TRACE_OVERHEAD.0,
            overhead,
            metrics::TRACE_OVERHEAD.1,
        ));
        layers
    } else {
        end_to_end(settings.workload, &untraced, &setup_s)?
    };
    let mut labels: Vec<&str> = untraced.iter().map(|r| r.label.as_str()).collect();
    labels.sort();
    labels.dedup();
    let kinds = labels
        .into_iter()
        .map(|label| {
            let rs: Vec<&JobRecord> = untraced
                .iter()
                .copied()
                .filter(|r| r.label == label)
                .collect();
            let q = quality(&rs);
            KindRow {
                label: label.to_string(),
                jobs: rs.len(),
                p50_ms: metrics::median(&rs.iter().map(|r| r.wall_ms).collect::<Vec<_>>()),
                valid_frac: q.valid_frac,
                solved_frac: q.solved_frac,
            }
        })
        .collect();
    Ok(Report {
        attempted: records.len(),
        failures,
        metrics,
        counts,
        kinds,
    })
}

/// Answer-quality totals over the jobs.
struct Quality {
    answers: usize,
    valid: usize,
    valid_frac: f64,
    solved_frac: f64,
    qubits_mean: f64,
}

fn quality(records: &[&JobRecord]) -> Quality {
    let answers: usize = records.iter().map(|r| r.answers).sum();
    let valid: usize = records.iter().map(|r| r.valid).sum();
    let n = records.len() as f64;
    Quality {
        answers,
        valid,
        valid_frac: valid as f64 / answers as f64,
        solved_frac: records.iter().filter(|r| r.solved).count() as f64 / n,
        qubits_mean: records.iter().map(|r| r.qubits).sum::<f64>() / n,
    }
}

/// The metrics that must repeat exactly for a given job list.
fn count_metrics(records: &[&JobRecord]) -> Vec<Metric> {
    let q = quality(records);
    vec![
        Metric::new("jobs", records.len() as f64, "count"),
        Metric::new("answers", q.answers as f64, "count"),
        Metric::new("valid", q.valid as f64, "count"),
        Metric::new("valid_frac", q.valid_frac, "fraction"),
        Metric::new("solved_frac", q.solved_frac, "fraction"),
        Metric::new("qubits_mean", q.qubits_mean, "qubits"),
    ]
}

fn end_to_end(
    workload: Workload,
    records: &[&JobRecord],
    setup_s: &[f64],
) -> Result<Vec<Metric>, String> {
    let walls: Vec<f64> = records.iter().map(|r| r.wall_ms).collect();
    let total_ms: f64 = walls.iter().sum();
    let compiles: Vec<(Program, f64)> = records.iter().filter_map(|r| r.cold_compile).collect();
    let q = quality(records);
    let values = [
        metrics::median(setup_s),
        metrics::median(&walls),
        metrics::percentile(&walls, tail_percentile(workload)),
        walls.len() as f64 / (total_ms / 1e3),
        median_of_medians(&compiles),
        tts99_ms(total_ms, q.answers, q.valid),
        q.valid_frac,
        q.solved_frac,
        q.qubits_mean,
        peak_rss_mb()?,
    ];
    Ok(metrics::END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric::new(name, value, unit))
        .collect())
}

/// Time to a valid answer with 99% confidence: Σ job wall ÷ Σ answers ×
/// ln(0.01)/ln(1 − valid share). With no valid answer the share is taken
/// as 1/(answers + 1), as if one more answer had been drawn and were
/// valid. That is finite and above what the same jobs report with one
/// valid answer, so a run that loses every valid answer still reports
/// every metric and compares as a regression.
fn tts99_ms(total_ms: f64, answers: usize, valid: usize) -> f64 {
    let share = match valid {
        0 => 1.0 / (answers + 1) as f64,
        _ => valid as f64 / answers as f64,
    };
    let reads = qac_telemetry::quality::reads_to_solution(share, 0.99)
        .expect("the valid share is positive and finite");
    total_ms / answers.max(1) as f64 * reads
}

/// The median over programs of each program's median compile time, so
/// the job mix does not weight it and a few samples per program suffice.
fn median_of_medians(compiles: &[(Program, f64)]) -> f64 {
    let mut by_program: BTreeMap<Program, Vec<f64>> = BTreeMap::new();
    for &(program, ms) in compiles {
        by_program.entry(program).or_default().push(ms);
    }
    let medians: Vec<f64> = by_program.values().map(|v| metrics::median(v)).collect();
    metrics::median(&medians)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(valid: usize) -> JobRecord {
        JobRecord {
            wall_ms: 200.0,
            answers: 100,
            valid,
            cold_compile: Some((Program::Figure2, 1.0)),
            ..JobRecord::default()
        }
    }

    fn tts(records: &[JobRecord]) -> f64 {
        let records: Vec<&JobRecord> = records.iter().collect();
        let metrics = end_to_end(Workload::HwWarm, &records, &[0.1]).expect("every metric");
        assert_eq!(metrics.len(), metrics::END_TO_END.len());
        assert!(metrics.iter().all(|m| m.value.is_finite()), "{metrics:?}");
        metrics.iter().find(|m| m.name == "tts99_ms").unwrap().value
    }

    #[test]
    fn a_run_without_valid_answers_reports_every_metric_and_regresses() {
        let none_valid = tts(&[job(0), job(0), job(0)]);
        let one_valid = tts(&[job(1), job(0), job(0)]);
        assert!(none_valid > one_valid, "{none_valid} <= {one_valid}");

        // The hardware workloads keep ~20% of their reads valid.
        let usual = tts(&[job(20), job(20), job(20)]);
        let text = std::fs::read_to_string(crate::BENCHMARK_JSON).unwrap();
        let bounds = metrics::read_bounds(&text).unwrap();
        let bound = bounds.iter().find(|b| b.name == "tts99_ms").unwrap();
        let old = [usual * 0.98, usual, usual * 1.02];
        let new = [none_valid * 0.98, none_valid, none_valid * 1.02];
        assert_eq!(
            metrics::verdict(&old, &new, bound),
            metrics::Verdict::Regressed
        );
    }
}
