//! The Section 6 workload set through the batch engine.
//!
//! Runs the paper's experiment programs — Figure 2 forward, CLRS
//! circuit-SAT backward, factoring, map coloring, the unrolled counter —
//! as one concurrent batch at 1, 2, and 8 worker threads, prints a
//! per-job quality table, and *asserts* the engine's determinism
//! contract: the fingerprints of every job must be byte-identical across
//! worker counts (a divergence panics with the offending jobs).

use std::sync::Arc;
use std::time::{Duration, Instant};

use qac_chimera::EmbeddingCache;
use qac_core::{compile, CompileOptions, RunOptions, SolverChoice};
use qac_engine::{BatchEngine, EngineOptions, JobResult, JobSpec};
use qac_solvers::DWaveSimOptions;

use crate::{compile_workload, AUSTRALIA, CIRCSAT, COUNTER, FIGURE2, MULT};

/// The §6 batch: every experiment program as an engine job. All jobs
/// share one embedding cache (the hardware-model jobs embed the same
/// program, so the second one is a cache hit).
fn sec6_batch_jobs() -> Vec<JobSpec> {
    let figure2 = Arc::new(compile_workload(FIGURE2, "circuit"));
    let circsat = Arc::new(compile_workload(CIRCSAT, "circsat"));
    let mult = Arc::new(compile_workload(MULT, "mult"));
    let australia = Arc::new(compile_workload(AUSTRALIA, "australia"));
    let counter = Arc::new(
        compile(
            COUNTER,
            "count",
            &CompileOptions {
                unroll_steps: Some(2),
                ..Default::default()
            },
        )
        .expect("counter compiles"),
    );
    let cache = Arc::new(EmbeddingCache::new());
    let dwave = || {
        SolverChoice::DWave(Box::new(DWaveSimOptions {
            topology: qac_solvers::TopologySpec::Chimera { m: 4 },
            anneal_sweeps: 192,
            embedding_cache: Some(Arc::clone(&cache)),
            ..Default::default()
        }))
    };

    let mut jobs = Vec::new();
    // Figure 2 forward, all eight input combinations, alternating
    // solvers (two of them on the modeled hardware).
    for case in 0..8u64 {
        let (s, a, b) = (case & 1, (case >> 1) & 1, case >> 2);
        let solver = match case % 4 {
            0 => SolverChoice::Exact,
            1 => SolverChoice::Sa { sweeps: 256 },
            2 => SolverChoice::Tabu,
            _ => dwave(),
        };
        jobs.push(JobSpec::new(
            Arc::clone(&figure2),
            RunOptions::new()
                .pin(&format!("s := {s}"))
                .pin(&format!("a := {a}"))
                .pin(&format!("b := {b}"))
                .solver(solver)
                .num_reads(32),
            format!("figure2:fwd:{s}{a}{b}"),
        ));
    }
    jobs.push(JobSpec::new(
        Arc::clone(&circsat),
        RunOptions::new()
            .pin("y := true")
            .solver(SolverChoice::Sa { sweeps: 256 })
            .num_reads(200),
        "circsat:y=1",
    ));
    for product in [143u64, 15] {
        jobs.push(JobSpec::new(
            Arc::clone(&mult),
            RunOptions::new()
                .pin(&format!("C[7:0] := {product}"))
                .solver(SolverChoice::Tabu)
                .num_reads(60),
            format!("factor:{product}"),
        ));
    }
    jobs.push(JobSpec::new(
        Arc::clone(&australia),
        RunOptions::new()
            .pin("valid := true")
            .solver(SolverChoice::Sa { sweeps: 384 })
            .num_reads(200),
        "australia:valid",
    ));
    // The other packed-lane samplers as engine jobs (SA already runs
    // circsat and australia above): the map-coloring workload through
    // SolverChoice::ParallelTempering and ::PopulationAnnealing under
    // the engine's determinism contract.
    jobs.push(JobSpec::new(
        Arc::clone(&australia),
        RunOptions::new()
            .pin("valid := true")
            .solver(SolverChoice::ParallelTempering {
                sweeps: 256,
                rungs: 8,
            })
            .num_reads(24),
        "australia:valid:pt",
    ));
    jobs.push(JobSpec::new(
        Arc::clone(&australia),
        RunOptions::new()
            .pin("valid := true")
            .solver(SolverChoice::PopulationAnnealing { sweeps: 256 })
            .num_reads(192),
        "australia:valid:pa",
    ));
    jobs.push(JobSpec::new(
        Arc::clone(&counter),
        RunOptions::new()
            .pin("ff_final[5:0] := 2")
            .pin("clk@0 := 0")
            .pin("clk@1 := 0")
            .solver(SolverChoice::Tabu)
            .num_reads(40),
        "counter:out=2",
    ));
    jobs
}

fn fingerprints(results: &[JobResult]) -> Vec<(String, Option<u64>)> {
    results
        .iter()
        .map(|r| (r.label.clone(), r.fingerprint()))
        .collect()
}

fn quality_table(results: &[JobResult]) {
    println!(
        "{:<18} {:>8} {:>8} {:>4} {:>9} {:>9} {:>7} {:>7}  fingerprint",
        "job", "attempts", "worker", "stol", "queue_ms", "run_ms", "valid%", "best E"
    );
    for r in results {
        let (valid, best, fp) = match r.outcome() {
            Some(outcome) => (
                format!("{:.1}", outcome.valid_fraction() * 100.0),
                outcome
                    .best()
                    .map(|b| format!("{:.2}", b.energy))
                    .unwrap_or_else(|| "-".to_string()),
                r.fingerprint()
                    .map(|f| format!("{f:016x}"))
                    .unwrap_or_default(),
            ),
            None => ("-".to_string(), format!("{:?}", r.status), String::new()),
        };
        println!(
            "{:<18} {:>8} {:>8} {:>4} {:>9.2} {:>9.2} {:>7} {:>7}  {}",
            r.label,
            r.attempts,
            r.worker,
            if r.stolen { "yes" } else { "no" },
            r.queue_wait.as_secs_f64() * 1e3,
            r.run_time.as_secs_f64() * 1e3,
            valid,
            best,
            fp,
        );
    }
}

/// Runs `sec6_batch_jobs` on `workers` threads and reports the batch
/// wall time alongside the results.
fn run_sec6_batch(workers: usize) -> (Duration, Vec<JobResult>) {
    let engine = BatchEngine::new(EngineOptions {
        workers,
        ..Default::default()
    });
    let start = Instant::now();
    let results = engine.run_batch(sec6_batch_jobs());
    (start.elapsed(), results)
}

/// The `batch` experiment: concurrent Section 6 runs + determinism
/// check across worker counts.
pub fn run_batch() {
    println!("== batch engine: §6 workloads, concurrently ==\n");
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("available parallelism: {parallelism} hardware thread(s)\n");

    let mut wall = Vec::new();
    let mut baseline: Option<Vec<(String, Option<u64>)>> = None;
    for workers in [1usize, 2, 8] {
        let (elapsed, results) = run_sec6_batch(workers);
        wall.push((workers, elapsed));
        println!(
            "-- workers = {workers}: {} jobs in {:.1} ms --",
            results.len(),
            elapsed.as_secs_f64() * 1e3
        );
        if workers == 8 {
            quality_table(&results);
        }
        let prints = fingerprints(&results);
        match &baseline {
            None => baseline = Some(prints),
            Some(expected) => {
                let diverged: Vec<&str> = expected
                    .iter()
                    .zip(&prints)
                    .filter(|(a, b)| a != b)
                    .map(|(a, _)| a.0.as_str())
                    .collect();
                assert!(
                    diverged.is_empty(),
                    "determinism violated at {workers} workers: jobs {diverged:?} \
                     fingerprint differently than at 1 worker"
                );
            }
        }
        println!();
    }

    let t1 = wall[0].1.as_secs_f64();
    let t8 = wall[2].1.as_secs_f64();
    let serialized = parallelism < 8;
    println!(
        "speedup 8 workers vs 1: {:.2}×{}",
        t1 / t8.max(1e-9),
        if serialized {
            " (serialized by host)"
        } else {
            ""
        }
    );
    if serialized {
        println!(
            "(host exposes {parallelism} hardware thread(s) — the 8 workers \
             time-slice, so the ratio measures scheduling overhead, not scaling)"
        );
    }
    println!("fingerprints identical at 1/2/8 workers ✓");
}
