//! Sampler throughput on a fixed frustrated model, the logical samplers
//! on compiled, pinned programs (the examples' job shapes), and the
//! hardware model's chain-block anneal on a program embedded on the
//! default C16.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use qac_bench::workloads::{compile_workload, AUSTRALIA, MULT};
use qac_chimera::{EmbeddingCache, Topology};
use qac_core::{compile, CompileOptions, RunOptions, SolverChoice};
use qac_pbf::Ising;
use qac_solvers::{BitParallelSa, DWaveSim, DWaveSimOptions, Sampler, TabuSearch};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn fixture(n: usize) -> Ising {
    let mut rng = StdRng::seed_from_u64(42);
    let mut m = Ising::new(n);
    for i in 0..n {
        m.add_h(i, rng.gen_range(-1.0..1.0));
        for j in (i + 1)..n {
            if rng.gen::<f64>() < 0.1 {
                m.add_j(i, j, rng.gen_range(-1.0..1.0));
            }
        }
    }
    m
}

/// A 4×3-bit multiplier (paper Listing 6 at uneven widths): embedded on
/// the default 2000Q its chains take ~240 of the 2048 qubits, the share
/// a typical hardware-model job leaves active.
const MULT_4X3: &str = r#"
    module mult (A, B, C);
      input [3:0] A;
      input [2:0] B;
      output [6:0] C;
      assign C = A * B;
    endmodule
"#;

fn bench_samplers(c: &mut Criterion) {
    let model = fixture(96);
    c.bench_function("sa_96vars_50reads", |b| {
        let sampler = BitParallelSa::new(1).with_sweeps(128);
        b.iter(|| std::hint::black_box(sampler.sample(&model, 50)))
    });
    c.bench_function("tabu_96vars_10reads", |b| {
        let sampler = TabuSearch::new(1);
        b.iter(|| std::hint::black_box(sampler.sample(&model, 10)))
    });

    // Compiled programs run through the public run path with the
    // examples' solver and read settings: factoring 143 by tabu search,
    // and colouring Australia by 384-sweep SA.
    let mult = compile_workload(MULT, "mult");
    let factor = RunOptions::new()
        .pin("C[7:0] := 10001111")
        .solver(SolverChoice::Tabu)
        .num_reads(60)
        .seed(1);
    c.bench_function("tabu_mult4_factor_60reads", |b| {
        b.iter(|| std::hint::black_box(mult.run(&factor).unwrap()))
    });
    let australia = compile_workload(AUSTRALIA, "australia");
    let colour = RunOptions::new()
        .pin("valid := 1")
        .solver(SolverChoice::Sa { sweeps: 384 })
        .num_reads(500)
        .seed(1);
    c.bench_function("sa_australia_384sweeps", |b| {
        b.iter(|| std::hint::black_box(australia.run(&colour).unwrap()))
    });

    // The embedding comes from a warmed cache, so each iteration is a
    // warm hardware-model job: the chain-block anneal is ~98% of it.
    let program = compile(MULT_4X3, "mult", &CompileOptions::default()).unwrap();
    let sim = DWaveSim::new(DWaveSimOptions {
        embedding_cache: Some(Arc::new(EmbeddingCache::new())),
        ..DWaveSimOptions::default()
    });
    let warm = sim.run(&program.assembled.ising, 1).unwrap();
    eprintln!(
        "dwave_chain_block_anneal: {} of {} qubits in chains",
        warm.physical_qubits,
        DWaveSimOptions::default().topology_spec().num_qubits()
    );
    c.bench_function("dwave_chain_block_anneal", |b| {
        b.iter(|| std::hint::black_box(sim.run(&program.assembled.ising, 100).unwrap()))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_samplers
}
criterion_main!(benches);
