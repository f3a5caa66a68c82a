//! Portfolio benchmarks: parallel embedding attempts and parallel
//! sampler arms vs their single-threaded equivalents.

use criterion::{criterion_group, criterion_main, Criterion};
use qac_bench::{compile_workload, AUSTRALIA};
use qac_chimera::{find_embedding_portfolio, find_embedding_with_stats, Chimera, EmbedOptions};
use qac_pbf::scale::{scale_to_range, CoefficientRange};
use qac_solvers::{BitParallelSa, Portfolio, Sampler};

fn bench_portfolio(c: &mut Criterion) {
    let compiled = compile_workload(AUSTRALIA, "australia");
    let model = compiled.assembled.ising.clone();
    let scaled = scale_to_range(&model, CoefficientRange::DWAVE_2000Q);
    let edges: Vec<(usize, usize)> = scaled.model.j_iter().map(|t| (t.i, t.j)).collect();
    let num_vars = scaled.model.num_vars();
    let chimera = Chimera::dwave_2000q();
    let hardware = chimera.graph();
    let options = EmbedOptions::default();

    c.bench_function("embed_single_attempt", |b| {
        b.iter(|| {
            std::hint::black_box(
                find_embedding_with_stats(&edges, num_vars, &hardware, &options).expect("embeds"),
            )
        })
    });
    c.bench_function("embed_portfolio_8", |b| {
        b.iter(|| {
            std::hint::black_box(
                find_embedding_portfolio(&edges, num_vars, &hardware, &options, 8).expect("embeds"),
            )
        })
    });

    let sa = BitParallelSa::new(7).with_sweeps(64).with_threads(1);
    c.bench_function("sample_sa_64reads_single", |b| {
        b.iter(|| std::hint::black_box(sa.sample(&model, 64)))
    });
    let portfolio = Portfolio::new(sa.clone(), 4);
    c.bench_function("sample_sa_64reads_portfolio_4", |b| {
        b.iter(|| std::hint::black_box(portfolio.sample(&model, 64)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_portfolio
}
criterion_main!(benches);
