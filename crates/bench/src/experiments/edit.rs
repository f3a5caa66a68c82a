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
//!   the pre-edit compile, then [`qac_chimera::find_embedding_incremental`]
//!   seeded with the pre-edit embedding and the dirtied-variable set.
//!
//! Both paths must produce byte-identical artifacts and a validating
//! embedding; the ratio is published as
//! `qac_bench_incremental_speedup{workload=...}` on the global recorder
//! so CI can pin an absolute floor on it, alongside the `qac_incr_*`
//! skip/re-embed counters the warm path increments.

use std::time::Instant;

use qac_chimera::{find_embedding_with_stats, Chimera, EmbedOptions, Embedding};
use qac_core::{
    artifact_mismatch, compile_netlist, compile_netlist_incremental, dirty_variables,
    CompileOptions, Compiled, IncrementalReport,
};
use qac_netlist::{CellKind, Netlist};
use qac_pbf::scale::{scale_to_range, CoefficientRange};

use crate::{compile_workload, AUSTRALIA, FIGURE2};

/// Workloads the edit loop is measured on: the small Figure 2 circuit
/// (compile-dominated) and the §6 map-coloring program (embed-dominated
/// — its cold minor embed costs ~200× its compile, which is where the
/// warm path's partial re-embed earns the speedup floor CI pins).
const WORKLOADS: &[(&str, &str, &str)] = &[
    ("figure2", FIGURE2, "circuit"),
    ("australia", AUSTRALIA, "australia"),
];

/// The canonical single-gate edit: swap the first swappable 2-input
/// combinational gate for its dual. Returns the edited netlist and a
/// human-readable description. Shared by the `edit` experiment, the
/// `compile_edit` criterion pair, and the BENCH baseline so they all
/// measure the same edit.
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
    dirty: usize,
    num_vars: usize,
}

/// Embeds a compiled program on the 2000Q fabric (seed 11, the baseline
/// convention), returning the embedding and its logical edge list.
fn embed_cold(compiled: &Compiled, chimera: &Chimera) -> (Embedding, Vec<(usize, usize)>) {
    let scaled = scale_to_range(&compiled.assembled.ising, CoefficientRange::DWAVE_2000Q);
    let edges: Vec<(usize, usize)> = scaled.model.j_iter().map(|t| (t.i, t.j)).collect();
    let (embedding, _) = find_embedding_with_stats(
        &edges,
        scaled.model.num_vars(),
        &chimera.graph(),
        &EmbedOptions {
            seed: 11,
            ..Default::default()
        },
    )
    .expect("edit workloads embed on a 2000Q");
    (embedding, edges)
}

fn measure(workload: &'static str, source: &str, top: &str) -> Row {
    let options = CompileOptions::default();
    let chimera = Chimera::dwave_2000q();
    let hardware = chimera.graph();

    // The pre-edit state a warm editor session would already hold: a
    // compiled netlist and its embedding.
    let base = compile_workload(source, top).netlist;
    let prev = compile_netlist(base.clone(), &options).expect("pre-edit compile succeeds");
    let (prev_embedding, _) = embed_cold(&prev, &chimera);

    let (edited, edit) = canonical_gate_edit(&base);

    // Cold: recompile + re-embed with no prior knowledge.
    let start = Instant::now();
    let cold = compile_netlist(edited.clone(), &options).expect("cold compile succeeds");
    let (cold_embedding, cold_edges) = embed_cold(&cold, &chimera);
    let cold_us = start.elapsed().as_secs_f64() * 1e6;
    assert!(cold_embedding.validate(&cold_edges, &hardware));

    // Warm: recompile reusing clean proofs, rip up only the dirtied
    // chains.
    let start = Instant::now();
    let (warm, report) =
        compile_netlist_incremental(&prev, edited, &options).expect("warm compile succeeds");
    let scaled = scale_to_range(&warm.assembled.ising, CoefficientRange::DWAVE_2000Q);
    let edges: Vec<(usize, usize)> = scaled.model.j_iter().map(|t| (t.i, t.j)).collect();
    let dirty = dirty_variables(&prev.assembled, &warm.assembled)
        .expect("a gate swap keeps the variable space comparable");
    let (warm_embedding, _) = qac_chimera::find_embedding_incremental(
        &edges,
        scaled.model.num_vars(),
        &hardware,
        &EmbedOptions {
            seed: 11,
            ..Default::default()
        },
        &prev_embedding,
        &dirty,
    )
    .expect("warm embed succeeds");
    let warm_us = start.elapsed().as_secs_f64() * 1e6;

    // The warm path must not trade correctness for speed: artifacts are
    // byte-identical to cold and the repaired embedding validates.
    assert_eq!(
        artifact_mismatch(&cold, &warm),
        None,
        "{workload}: warm artifacts diverged from cold"
    );
    assert!(
        warm_embedding.validate(&edges, &hardware),
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

    let num_vars = dirty.len();
    Row {
        workload,
        edit,
        cold_us,
        warm_us,
        skipped: report.skipped(),
        report,
        dirty: dirty.iter().filter(|&&d| d).count(),
        num_vars,
    }
}

/// Runs the edit-recompile loop measurement and prints the table.
pub fn run_edit() {
    println!("== edit: incremental recompile + partial re-embed vs cold ==");
    println!(
        "(one-gate edit; cold = compile + embed from scratch, warm = incremental compile + chain repair)"
    );
    println!();
    let rows: Vec<Row> = WORKLOADS
        .iter()
        .map(|(name, source, top)| measure(name, source, top))
        .collect();

    println!(
        "{:<10} {:>12} {:>12} {:>9} {:>14} {:>13}",
        "workload", "cold (µs)", "warm (µs)", "speedup", "stages skipped", "dirty chains"
    );
    for row in &rows {
        println!(
            "{:<10} {:>12.0} {:>12.0} {:>8.1}x {:>14} {:>10}/{}",
            row.workload,
            row.cold_us,
            row.warm_us,
            row.cold_us / row.warm_us.max(1e-9),
            format!("{}/{}", row.skipped, row.report.stages.len()),
            row.dirty,
            row.num_vars,
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
