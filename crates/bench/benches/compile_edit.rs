//! Edit-turnaround cost: cold recompile + re-embed vs the incremental
//! path (incremental compile + an embedding-cache lookup warmed with the
//! pre-edit embedding) for the same one-gate edit. The pair is the
//! criterion-side view of the `experiments edit` table and the
//! `qac_bench_incremental_speedup` gauge that ci.sh's incremental gate
//! floors.

use criterion::{criterion_group, criterion_main, Criterion};
use qac_bench::experiments::{canonical_gate_edit, embed_for_edit};
use qac_bench::{compile_workload, AUSTRALIA, FIGURE2};
use qac_chimera::{Chimera, EmbeddingCache};
use qac_core::{compile_netlist, compile_netlist_incremental, CompileOptions};

fn bench_compile_edit(c: &mut Criterion) {
    let options = CompileOptions::default();
    let chimera = Chimera::dwave_2000q();
    let hardware = chimera.graph();
    for (name, source, top) in [
        ("figure2", FIGURE2, "circuit"),
        ("australia", AUSTRALIA, "australia"),
    ] {
        // The pre-edit editor state (outside the measured region): a
        // compiled netlist and a cache holding its embedding.
        let base = compile_workload(source, top).netlist;
        let prev = compile_netlist(base.clone(), &options).unwrap();
        let cache = EmbeddingCache::new();
        embed_for_edit(&prev, &chimera, &hardware, Some(&cache));
        let (edited, _) = canonical_gate_edit(&base);

        c.bench_function(&format!("compile_edit_cold_{name}"), |b| {
            b.iter(|| {
                let cold = compile_netlist(edited.clone(), &options).unwrap();
                std::hint::black_box(embed_for_edit(&cold, &chimera, &hardware, None))
            })
        });
        c.bench_function(&format!("compile_edit_incremental_{name}"), |b| {
            b.iter(|| {
                let (warm, _) =
                    compile_netlist_incremental(&prev, edited.clone(), &options).unwrap();
                std::hint::black_box(embed_for_edit(&warm, &chimera, &hardware, Some(&cache)))
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
