//! The `edit` experiment: the edit-recompile loop DESIGN.md §14 serves,
//! measured end to end.
//!
//! For each workload the experiment makes the canonical one-gate edit
//! (swap the first 2-input combinational gate, AND↔OR / XOR↔XNOR /
//! NAND↔NOR), then pays for it twice:
//!
//! * **cold** — recompile the edited netlist from scratch and re-embed
//!   the result with no prior knowledge;
//! * **warm** — [`qac_core::compile_netlist_incremental`] seeded with
//!   the pre-edit compile, then an [`EmbeddingCache`] lookup warmed with
//!   the pre-edit embedding. The cache key leaves out coefficients, and
//!   a dual-gate swap keeps every coupling, so the lookup hits.
//!
//! Both paths must produce byte-identical artifacts and a validating
//! embedding; the ratio is published as
//! `qac_bench_incremental_speedup{workload=...}` on the global recorder
//! so CI can pin an absolute floor on it, alongside the `qac_incr_*`
//! stage counters and the `qac_embed_cache_*` lookups the warm path
//! increments.

use std::time::Instant;

use qac_chimera::{embed, CacheStats, Chimera, EmbedOptions, EmbeddingCache};
use qac_core::{
    artifact_mismatch, compile_netlist, compile_netlist_incremental, CompileOptions, Compiled,
    IncrementalReport,
};
use qac_netlist::{CellKind, Netlist};

use crate::{compile_workload, AUSTRALIA, FIGURE2};

/// Workloads the edit loop is measured on: the small Figure 2 circuit
/// (compile-dominated) and the §6 map-coloring program (embed-dominated
/// — its cold minor embed costs ~200× its compile, which is where the
/// warm path's cache hit earns the speedup floor CI pins).
const WORKLOADS: &[(&str, &str, &str)] = &[
    ("figure2", FIGURE2, "circuit"),
    ("australia", AUSTRALIA, "australia"),
];

/// The canonical single-gate edit: swap the first swappable 2-input
/// combinational gate for its dual. Returns the edited netlist and a
/// human-readable description. Shared by the `edit` experiment and the
/// `compile_edit` criterion pair so they measure the same edit.
pub fn canonical_gate_edit(base: &Netlist) -> (Netlist, String) {
    let (cell, swapped) = base
        .cells()
        .iter()
        .enumerate()
        .find_map(|(id, c)| {
            let to = match c.kind {
                CellKind::And => CellKind::Or,
                CellKind::Or => CellKind::And,
                CellKind::Xor => CellKind::Xnor,
                CellKind::Xnor => CellKind::Xor,
                CellKind::Nand => CellKind::Nor,
                CellKind::Nor => CellKind::Nand,
                _ => return None,
            };
            Some((id, to))
        })
        .expect("every workload has a swappable 2-input gate");
    let mut edited = base.clone();
    let from = base.cells()[cell].kind;
    edited.set_cell_kind(cell, swapped);
    (edited, format!("cell {cell} {from:?}->{swapped:?}"))
}

/// Cold and warm costs of one edit on one workload.
struct Row {
    workload: &'static str,
    edit: String,
    cold_us: f64,
    warm_us: f64,
    skipped: usize,
    report: IncrementalReport,
    cache: CacheStats,
}

fn measure(workload: &'static str, source: &str, top: &str) -> Row {
    let options = CompileOptions::default();
    let chimera = Chimera::dwave_2000q();
    let hardware = chimera.graph();

    // The pre-edit state a warm editor session would already hold: a
    // compiled netlist and a cache holding its embedding.
    let base = compile_workload(source, top).netlist;
    let prev = compile_netlist(base.clone(), &options).expect("pre-edit compile succeeds");
    let cache = EmbeddingCache::new();
    // Seed 11, the baseline convention.
    let embed_options = EmbedOptions {
        seed: 11,
        ..Default::default()
    };
    let embed_on_2000q = |compiled: &Compiled, cache: Option<&EmbeddingCache>| {
        embed(
            &compiled.assembled.ising,
            &chimera,
            &hardware,
            &embed_options,
            cache,
        )
        .expect("edit workloads embed on a 2000Q")
        .0
    };
    embed_on_2000q(&prev, Some(&cache));

    let (edited, edit) = canonical_gate_edit(&base);

    // Cold: recompile + re-embed with no prior knowledge.
    let start = Instant::now();
    let cold = compile_netlist(edited.clone(), &options).expect("cold compile succeeds");
    let cold_embedding = embed_on_2000q(&cold, None);
    let cold_us = start.elapsed().as_secs_f64() * 1e6;
    assert!(cold_embedding.validate(&cold.assembled.ising, &hardware));

    // Warm: recompile reusing clean proofs, then look the embedding up.
    let start = Instant::now();
    let (warm, report) =
        compile_netlist_incremental(&prev, edited, &options).expect("warm compile succeeds");
    let warm_embedding = embed_on_2000q(&warm, Some(&cache));
    let warm_us = start.elapsed().as_secs_f64() * 1e6;

    // The warm path must not trade correctness for speed: artifacts are
    // byte-identical to cold and the reused embedding validates.
    assert_eq!(
        artifact_mismatch(&cold, &warm),
        None,
        "{workload}: warm artifacts diverged from cold"
    );
    assert!(
        warm_embedding.validate(&warm.assembled.ising, &hardware),
        "{workload}: warm embedding must validate"
    );

    let telemetry = qac_telemetry::global();
    telemetry.gauge_set(
        &format!("qac_bench_incremental_cold_us{{workload=\"{workload}\"}}"),
        cold_us,
    );
    telemetry.gauge_set(
        &format!("qac_bench_incremental_warm_us{{workload=\"{workload}\"}}"),
        warm_us,
    );
    telemetry.gauge_set(
        &format!("qac_bench_incremental_speedup{{workload=\"{workload}\"}}"),
        cold_us / warm_us.max(1e-9),
    );

    Row {
        workload,
        edit,
        cold_us,
        warm_us,
        skipped: report.skipped(),
        report,
        cache: cache.stats(),
    }
}

/// Runs the edit-recompile loop measurement and prints the table.
pub fn run_edit() {
    println!("== edit: incremental recompile + cached embedding vs cold ==");
    println!(
        "(one-gate edit; cold = compile + embed from scratch, warm = incremental compile + cache lookup)"
    );
    println!();
    let rows: Vec<Row> = WORKLOADS
        .iter()
        .map(|(name, source, top)| measure(name, source, top))
        .collect();

    println!(
        "{:<10} {:>12} {:>12} {:>9} {:>14} {:>14}",
        "workload", "cold (µs)", "warm (µs)", "speedup", "stages skipped", "embed hit/miss"
    );
    for row in &rows {
        println!(
            "{:<10} {:>12.0} {:>12.0} {:>8.1}x {:>14} {:>14}",
            row.workload,
            row.cold_us,
            row.warm_us,
            row.cold_us / row.warm_us.max(1e-9),
            format!("{}/{}", row.skipped, row.report.stages.len()),
            format!("{}/{}", row.cache.hits, row.cache.misses),
        );
    }

    for row in &rows {
        println!();
        println!("-- {} (edit: {}) --", row.workload, row.edit);
        for (stage, disposition) in &row.report.stages {
            println!("  {stage:<14} {disposition}");
        }
    }
}
