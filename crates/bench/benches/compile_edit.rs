//! Edit-turnaround cost: cold recompile + re-embed vs the incremental
//! path (incremental compile + seeded chain repair) for the same one-gate
//! edit. The pair is the criterion-side view of the `experiments edit`
//! table and the `qac_bench_incremental_speedup` gauge BENCH_pr9 pins.

use criterion::{criterion_group, criterion_main, Criterion};
use qac_bench::experiments::canonical_gate_edit;
use qac_bench::{compile_workload, AUSTRALIA, FIGURE2};
use qac_chimera::{
    find_embedding_incremental, find_embedding_with_stats, Chimera, EmbedOptions, Embedding,
};
use qac_core::{compile_netlist, compile_netlist_incremental, dirty_variables, CompileOptions};
use qac_pbf::scale::{scale_to_range, CoefficientRange};

fn embed_options() -> EmbedOptions {
    EmbedOptions {
        seed: 11,
        ..Default::default()
    }
}

fn bench_compile_edit(c: &mut Criterion) {
    let options = CompileOptions::default();
    let chimera = Chimera::dwave_2000q();
    let hardware = chimera.graph();
    for (name, source, top) in [
        ("figure2", FIGURE2, "circuit"),
        ("australia", AUSTRALIA, "australia"),
    ] {
        // The pre-edit editor state (outside the measured region): a
        // compiled netlist and its embedding.
        let base = compile_workload(source, top).netlist;
        let prev = compile_netlist(base.clone(), &options).unwrap();
        let edges = |compiled: &qac_core::Compiled| -> (Vec<(usize, usize)>, usize) {
            let scaled = scale_to_range(&compiled.assembled.ising, CoefficientRange::DWAVE_2000Q);
            (
                scaled.model.j_iter().map(|t| (t.i, t.j)).collect(),
                scaled.model.num_vars(),
            )
        };
        let (prev_edges, prev_vars) = edges(&prev);
        let (prev_embedding, _): (Embedding, _) =
            find_embedding_with_stats(&prev_edges, prev_vars, &hardware, &embed_options()).unwrap();
        let (edited, _) = canonical_gate_edit(&base);

        c.bench_function(&format!("compile_edit_cold_{name}"), |b| {
            b.iter(|| {
                let cold = compile_netlist(edited.clone(), &options).unwrap();
                let (e, n) = edges(&cold);
                std::hint::black_box(
                    find_embedding_with_stats(&e, n, &hardware, &embed_options()).unwrap(),
                )
            })
        });
        c.bench_function(&format!("compile_edit_incremental_{name}"), |b| {
            b.iter(|| {
                let (warm, _) =
                    compile_netlist_incremental(&prev, edited.clone(), &options).unwrap();
                let (e, n) = edges(&warm);
                let dirty = dirty_variables(&prev.assembled, &warm.assembled).unwrap();
                std::hint::black_box(
                    find_embedding_incremental(
                        &e,
                        n,
                        &hardware,
                        &embed_options(),
                        &prev_embedding,
                        &dirty,
                    )
                    .unwrap(),
                )
            })
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_compile_edit
}
criterion_main!(benches);
