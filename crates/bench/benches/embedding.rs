//! §4.4 / §6.1: minor embedding of the compiled map-coloring model.

use criterion::{criterion_group, criterion_main, Criterion};
use qac_bench::{compile_workload, AUSTRALIA};
use qac_chimera::{embed, embed_ising, Chimera, EmbedOptions};

fn bench_embedding(c: &mut Criterion) {
    let compiled = compile_workload(AUSTRALIA, "australia");
    let logical = &compiled.assembled.ising;
    let chimera = Chimera::dwave_2000q();
    let hardware = chimera.graph();

    c.bench_function("embed_australia_on_c16", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let options = EmbedOptions {
                seed,
                ..Default::default()
            };
            std::hint::black_box(
                embed(logical, &chimera, &hardware, &options, None).expect("embeds"),
            )
        })
    });

    let (embedding, _) =
        embed(logical, &chimera, &hardware, &EmbedOptions::default(), None).unwrap();
    c.bench_function("apply_embedding_australia", |b| {
        b.iter(|| std::hint::black_box(embed_ising(logical, &embedding, &hardware, 2.0)))
    });

    c.bench_function("clique_template_k64", |b| {
        b.iter(|| std::hint::black_box(chimera.clique_embedding(64).unwrap()))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_embedding
}
criterion_main!(benches);
