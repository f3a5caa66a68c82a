//! Embedding-cache benchmark: a warm lookup vs recomputing the CMR
//! search on the compiled map-coloring model.

use criterion::{criterion_group, criterion_main, Criterion};
use qac_bench::{compile_workload, AUSTRALIA};
use qac_chimera::{embed, embedding_key, Chimera, EmbedOptions, EmbeddingCache};

fn bench_embed_cache(c: &mut Criterion) {
    let compiled = compile_workload(AUSTRALIA, "australia");
    let logical = &compiled.assembled.ising;
    let chimera = Chimera::dwave_2000q();
    let hardware = chimera.graph();
    let options = EmbedOptions::default();

    c.bench_function("embed_australia_cold", |b| {
        b.iter(|| {
            std::hint::black_box(
                embed(logical, &chimera, &hardware, &options, None).expect("embeds"),
            )
        })
    });

    let cache = EmbeddingCache::new();
    embed(logical, &chimera, &hardware, &options, Some(&cache)).expect("embeds");
    c.bench_function("embed_australia_warm_cache", |b| {
        b.iter(|| {
            let (embedding, stats) =
                embed(logical, &chimera, &hardware, &options, Some(&cache)).expect("hits");
            assert!(stats.cache_hit, "warm lookup must hit");
            std::hint::black_box(embedding)
        })
    });

    c.bench_function("embedding_key_australia", |b| {
        b.iter(|| std::hint::black_box(embedding_key(logical, &chimera, &hardware, &options)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_embed_cache
}
criterion_main!(benches);
