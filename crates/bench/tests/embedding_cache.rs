//! Acceptance tests for the embedding cache on the paper's map-coloring
//! workload (§6.1).

use std::sync::Arc;

use qac_bench::{compile_workload, AUSTRALIA};
use qac_chimera::{embed, Chimera, EmbedOptions, EmbeddingCache};
use qac_core::{RunOptions, SolverChoice};
use qac_solvers::DWaveSimOptions;

#[test]
fn warm_cache_run_does_zero_route_iterations() {
    // Two identical map-coloring runs through one cache: the second must
    // reuse the stored embedding and do no routing work at all.
    let compiled = compile_workload(AUSTRALIA, "australia");
    let cache = Arc::new(EmbeddingCache::new());
    let sim = DWaveSimOptions {
        anneal_sweeps: 16,
        embedding_cache: Some(Arc::clone(&cache)),
        ..Default::default()
    };
    let run = RunOptions::new()
        .pin("valid := 1")
        .solver(SolverChoice::DWave(Box::new(sim)))
        .num_reads(10);

    let cold = compiled.run(&run).unwrap();
    assert_eq!(cache.hits(), 0);
    assert_eq!(cache.misses(), 1);
    let cold_embed = cold
        .trace
        .get("sample:embed")
        .expect("embed sub-phase traced");
    assert!(cold_embed.retries >= 1, "cold embed does real routing work");

    let warm = compiled.run(&run).unwrap();
    assert_eq!(cache.hits(), 1);
    let warm_embed = warm
        .trace
        .get("sample:embed")
        .expect("embed sub-phase traced");
    assert_eq!(warm_embed.retries, 0, "warm embed must not restart");
    assert_eq!(warm.trace.get("sample").unwrap().retries, 0);
}

#[test]
fn cache_hit_preserves_solution_validity() {
    // The cached embedding is the one that was computed: sampled
    // solutions (and their validity) are identical cold vs warm.
    let compiled = compile_workload(AUSTRALIA, "australia");
    let cache = Arc::new(EmbeddingCache::new());
    let sim = DWaveSimOptions {
        anneal_sweeps: 32,
        embedding_cache: Some(Arc::clone(&cache)),
        ..Default::default()
    };
    let run = RunOptions::new()
        .pin("valid := 1")
        .solver(SolverChoice::DWave(Box::new(sim)))
        .num_reads(25);

    let cold = compiled.run(&run).unwrap();
    let warm = compiled.run(&run).unwrap();
    assert_eq!(cache.hits(), 1);
    assert_eq!(cold.valid_fraction(), warm.valid_fraction());
    assert_eq!(cold.samples.len(), warm.samples.len());
    for (c, w) in cold.samples.iter().zip(warm.samples.iter()) {
        assert_eq!(c.spins, w.spins);
        assert_eq!(c.valid, w.valid);
    }
    assert_eq!(cold.hardware, warm.hardware);
}

#[test]
fn cached_embedding_validates_on_the_hardware_graph() {
    let logical = compile_workload(AUSTRALIA, "australia").assembled.ising;
    let chimera = Chimera::dwave_2000q();
    let hardware = chimera.graph();
    let options = EmbedOptions {
        seed: 77,
        ..Default::default()
    };
    let cache = EmbeddingCache::new();
    for _ in 0..2 {
        let (embedding, _) = embed(&logical, &chimera, &hardware, &options, Some(&cache))
            .expect("map coloring embeds");
        assert!(embedding.validate(&logical, &hardware));
    }
    assert_eq!((cache.hits(), cache.misses()), (1, 1));
}
