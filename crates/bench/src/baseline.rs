//! Machine-readable perf baseline (BENCH_pr*.json).
//!
//! Times the three costs that dominate the pipeline — compile, minor
//! embedding, and sampling — for the §6-scale workloads, records them as
//! gauges in a private telemetry [`Recorder`], and renders the metric
//! snapshot as JSON. Committing the output gives later sessions a
//! baseline to diff perf changes against.

use std::time::Instant;

use qac_chimera::{
    find_embedding_or_clique_with_stats, Chimera, EmbedOptions, EmbeddingCache, KingGraph, Pegasus,
    Topology, Zephyr,
};
use qac_pbf::scale::{scale_to_range, CoefficientRange};
use qac_solvers::{BitParallelSa, ParallelTempering, PopulationAnnealing, SampleSet, Sampler};
use qac_telemetry::json::Json;
use qac_telemetry::Recorder;

use crate::{compile_workload, AUSTRALIA, CIRCSAT, FIGURE2};

/// Workloads the baseline covers: Figure 2, the CLRS verifier, and the
/// §6 map-coloring program.
const WORKLOADS: &[(&str, &str, &str)] = &[
    ("figure2", FIGURE2, "circuit"),
    ("circsat", CIRCSAT, "circsat"),
    ("australia", AUSTRALIA, "australia"),
];

/// Reads per sampling measurement.
const SAMPLE_READS: usize = 200;

/// Reads per sampler-throughput measurement — a multiple of 64 so the
/// bit-parallel samplers run with every lane active.
const SAMPLER_READS: usize = 256;

/// Measures compile / embed / sample wall time for every baseline
/// workload and renders the result as a JSON document (the
/// `BENCH_pr2.json` format). Uses its own recorder, so it neither
/// requires nor disturbs the global one.
pub fn bench_baseline_json() -> String {
    let recorder = Recorder::new();
    recorder.enable();

    let chimera = Chimera::dwave_2000q();
    let hardware = chimera.graph();
    for (name, source, top) in WORKLOADS {
        let start = Instant::now();
        let compiled = compile_workload(source, top);
        let compile_us = start.elapsed().as_secs_f64() * 1e6;
        recorder.gauge_set(
            &format!("qac_bench_compile_us{{workload=\"{name}\"}}"),
            compile_us,
        );

        let scaled = scale_to_range(&compiled.assembled.ising, CoefficientRange::DWAVE_2000Q);
        let edges: Vec<(usize, usize)> = scaled.model.j_iter().map(|t| (t.i, t.j)).collect();
        let start = Instant::now();
        let (embedding, stats) = find_embedding_or_clique_with_stats(
            &edges,
            scaled.model.num_vars(),
            &chimera,
            &hardware,
            &EmbedOptions {
                seed: 11,
                ..Default::default()
            },
        )
        .expect("baseline workloads embed on a 2000Q");
        let embed_us = start.elapsed().as_secs_f64() * 1e6;
        recorder.gauge_set(
            &format!("qac_bench_embed_us{{workload=\"{name}\"}}"),
            embed_us,
        );
        recorder.gauge_set(
            &format!("qac_bench_physical_qubits{{workload=\"{name}\"}}"),
            embedding.num_physical_qubits() as f64,
        );
        // Routing-work counters: deterministic per seed, unlike the wall
        // times above, so they diff cleanly across machines and make a
        // "the router got slower" claim falsifiable without a stopwatch.
        for (kind, value) in [
            ("route_iterations", stats.route_iterations as u64),
            ("heap_pops", stats.heap_pops),
            ("edge_relaxations", stats.edge_relaxations),
            ("weight_updates", stats.weight_updates),
        ] {
            recorder.gauge_set(
                &format!("qac_bench_embed_{kind}{{workload=\"{name}\"}}"),
                value as f64,
            );
        }

        let sampler = BitParallelSa::new(7).with_sweeps(256);
        let start = Instant::now();
        let set = sampler.sample(&compiled.assembled.ising, SAMPLE_READS);
        let sample_us = start.elapsed().as_secs_f64() * 1e6;
        assert_eq!(set.total_reads(), SAMPLE_READS);
        recorder.gauge_set(
            &format!("qac_bench_sample_us{{workload=\"{name}\"}}"),
            sample_us,
        );
    }

    // Sampler-throughput baseline: the packed-lane samplers vs SA's
    // one-lane scalar walk (`sample_reference`, single-threaded) at an
    // equal budget (256 sweeps, SAMPLER_READS reads — a multiple of 64
    // so the packed kernel wastes no lanes). reads/sec is the number the
    // paper's "verifiers at scale" thesis rides on; the speedup gauge
    // keeps its `bp_vs_scalar` name so committed baselines stay
    // comparable.
    for (name, source, top) in WORKLOADS {
        let model = &compile_workload(source, top).assembled.ising;
        let rps = |sample: &dyn Fn() -> SampleSet, label: &str| -> f64 {
            // Best of three: each repetition's work is identical
            // (deterministic per seed), so the minimum wall time is the
            // least-interfered measurement — scheduler noise only ever
            // inflates a timing, never deflates it.
            let mut secs = f64::INFINITY;
            for _ in 0..3 {
                let start = Instant::now();
                let set = sample();
                secs = secs.min(start.elapsed().as_secs_f64().max(1e-9));
                assert_eq!(set.total_reads(), SAMPLER_READS);
            }
            let reads_per_sec = SAMPLER_READS as f64 / secs;
            recorder.gauge_set(
                &format!("qac_sampler_reads_per_sec{{sampler=\"{label}\",workload=\"{name}\"}}"),
                reads_per_sec,
            );
            reads_per_sec
        };
        let sa = BitParallelSa::new(7).with_sweeps(256);
        let pt = ParallelTempering::new(7).with_sweeps(256);
        let pa = PopulationAnnealing::new(7).with_sweeps(256);
        let scalar = rps(&|| sa.sample_reference(model, SAMPLER_READS), "reference");
        let packed = rps(&|| sa.sample(model, SAMPLER_READS), "sa");
        rps(&|| pt.sample(model, SAMPLER_READS), "pt");
        rps(&|| pa.sample(model, SAMPLER_READS), "pa");
        recorder.gauge_set(
            &format!("qac_bench_sampler_speedup_bp_vs_scalar{{workload=\"{name}\"}}"),
            packed / scalar.max(1e-9),
        );
    }

    // Per-topology embedding baseline: the Figure 2 interaction graph
    // routed on every supported fabric (seed 11, default options). The
    // routing-work gauges are deterministic per (seed, topology), so a
    // baseline diff localizes a router regression to a fabric.
    {
        let compiled = compile_workload(FIGURE2, "circuit");
        let scaled = scale_to_range(&compiled.assembled.ising, CoefficientRange::DWAVE_2000Q);
        let edges: Vec<(usize, usize)> = scaled.model.j_iter().map(|t| (t.i, t.j)).collect();
        let topologies: [Box<dyn Topology>; 4] = [
            Box::new(Chimera::dwave_2000q()),
            Box::new(Pegasus::new(6)),
            Box::new(Zephyr::new(4)),
            Box::new(KingGraph::new(48)),
        ];
        for topology in &topologies {
            let family = topology.family();
            let hardware = topology.graph();
            let start = Instant::now();
            let (embedding, stats) = find_embedding_or_clique_with_stats(
                &edges,
                scaled.model.num_vars(),
                topology.as_ref(),
                &hardware,
                &EmbedOptions {
                    seed: 11,
                    ..Default::default()
                },
            )
            .expect("figure2 embeds on every supported fabric");
            let embed_us = start.elapsed().as_secs_f64() * 1e6;
            let label = format!("workload=\"figure2\",topology=\"{family}\"");
            recorder.gauge_set(&format!("qac_bench_embed_us{{{label}}}"), embed_us);
            for (kind, value) in [
                ("physical_qubits", embedding.num_physical_qubits() as u64),
                ("max_chain", embedding.max_chain_length() as u64),
                ("route_iterations", stats.route_iterations as u64),
                ("heap_pops", stats.heap_pops),
                ("edge_relaxations", stats.edge_relaxations),
                ("weight_updates", stats.weight_updates),
            ] {
                recorder.gauge_set(&format!("qac_bench_embed_{kind}{{{label}}}"), value as f64);
            }
        }
    }

    // Edit-turnaround baseline: the canonical one-gate edit paid for
    // cold (recompile + re-embed from scratch) and warm (incremental
    // compile + an embedding-cache lookup warmed with the pre-edit
    // embedding, DESIGN.md §14). The speedup gauge is a same-machine
    // ratio, so CI pins an absolute `--gauge-min` floor on it (≥10× on
    // australia, whose cold cost is dominated by the minor embed the warm
    // path reuses). Both paths are asserted byte-identical before
    // anything is recorded: a warm compile that drifted from cold would
    // make the speedup meaningless.
    for (name, source, top) in [
        ("figure2", FIGURE2, "circuit"),
        ("australia", AUSTRALIA, "australia"),
    ] {
        let compile_options = qac_core::CompileOptions::default();
        let base = compile_workload(source, top).netlist;
        let prev = qac_core::compile_netlist(base.clone(), &compile_options)
            .expect("pre-edit compile succeeds");
        let cache = EmbeddingCache::new();
        crate::experiments::embed_for_edit(&prev, &chimera, &hardware, Some(&cache));
        let (edited, _) = crate::experiments::canonical_gate_edit(&base);

        // Best of three on both sides, same argument as the sampler
        // throughput loop: the work is deterministic per seed, so the
        // minimum is the least-interfered measurement.
        let mut cold_us = f64::INFINITY;
        let mut cold = None;
        for _ in 0..3 {
            let start = Instant::now();
            let compiled =
                qac_core::compile_netlist(edited.clone(), &compile_options).expect("cold compile");
            let (embedding, edges) =
                crate::experiments::embed_for_edit(&compiled, &chimera, &hardware, None);
            cold_us = cold_us.min(start.elapsed().as_secs_f64() * 1e6);
            assert!(embedding.validate(&edges, &hardware));
            cold = Some(compiled);
        }
        let cold = cold.unwrap();
        let mut warm_us = f64::INFINITY;
        for _ in 0..3 {
            let start = Instant::now();
            let (warm, _) =
                qac_core::compile_netlist_incremental(&prev, edited.clone(), &compile_options)
                    .expect("warm compile");
            let (embedding, edges) =
                crate::experiments::embed_for_edit(&warm, &chimera, &hardware, Some(&cache));
            warm_us = warm_us.min(start.elapsed().as_secs_f64() * 1e6);
            assert!(
                embedding.validate(&edges, &hardware),
                "warm embedding validates"
            );
            assert_eq!(
                qac_core::artifact_mismatch(&cold, &warm),
                None,
                "warm artifacts must be byte-identical to cold"
            );
        }
        recorder.gauge_set(
            &format!("qac_bench_incremental_cold_us{{workload=\"{name}\"}}"),
            cold_us,
        );
        recorder.gauge_set(
            &format!("qac_bench_incremental_warm_us{{workload=\"{name}\"}}"),
            warm_us,
        );
        recorder.gauge_set(
            &format!("qac_bench_incremental_speedup{{workload=\"{name}\"}}"),
            cold_us / warm_us.max(1e-9),
        );
    }

    // Batch-engine wall clock: the §6 job set on one worker vs eight.
    // The speedup gauge is honest, not aspirational — on a single-core
    // host it sits near 1.0, so `qac_bench_available_parallelism` is
    // recorded alongside it to make the ratio interpretable.
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    recorder.gauge_set("qac_bench_available_parallelism", parallelism as f64);
    let (wall_1, results_1) = crate::experiments::run_sec6_batch(1);
    let (wall_8, results_8) = crate::experiments::run_sec6_batch(8);
    let prints = |rs: &[qac_engine::JobResult]| -> Vec<Option<u64>> {
        rs.iter().map(|r| r.fingerprint()).collect()
    };
    assert_eq!(
        prints(&results_1),
        prints(&results_8),
        "batch results must be identical at 1 and 8 workers"
    );
    recorder.gauge_set(
        "qac_bench_batch_wall_us{workers=\"1\"}",
        wall_1.as_secs_f64() * 1e6,
    );
    recorder.gauge_set(
        "qac_bench_batch_wall_us{workers=\"8\"}",
        wall_8.as_secs_f64() * 1e6,
    );
    recorder.gauge_set(
        "qac_bench_batch_speedup_8v1",
        wall_1.as_secs_f64() / wall_8.as_secs_f64().max(1e-9),
    );
    // When the host has fewer cores than the 8-worker run asks for, the
    // "speedup" is really 8 threads time-slicing one core — flag it so a
    // near-1.0 ratio reads as "serialized by host", not "engine broken".
    recorder.gauge_set(
        "qac_bench_batch_serialized_by_host",
        if parallelism < 8 { 1.0 } else { 0.0 },
    );
    recorder.gauge_set("qac_bench_batch_jobs", results_1.len() as f64);

    let snapshot = recorder.snapshot();
    let metrics = Json::Obj(
        snapshot
            .gauges
            .iter()
            .map(|(name, value)| (name.clone(), Json::Num(*value)))
            .collect(),
    );
    let doc = Json::Obj(vec![
        (
            "schema".to_string(),
            Json::Str("qac-bench-baseline-v1".to_string()),
        ),
        (
            "description".to_string(),
            Json::Str(
                "compile/embed/sample wall times (µs) for the Section 6 workloads, \
                 sampler throughput (reads/sec) for the packed-lane samplers vs SA's \
                 one-lane walk, the figure2 embedding baseline per hardware topology, \
                 batch-engine wall clock at 1 vs 8 workers, plus cold-vs-warm \
                 edit turnaround for the incremental compiler"
                    .to_string(),
            ),
        ),
        ("sample_reads".to_string(), Json::Num(SAMPLE_READS as f64)),
        (
            "workloads".to_string(),
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|(name, ..)| Json::Str((*name).to_string()))
                    .collect(),
            ),
        ),
        ("metrics".to_string(), metrics),
    ]);
    format!("{doc}\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_json_parses_and_covers_every_workload() {
        let text = bench_baseline_json();
        let doc = qac_telemetry::json::parse(&text).expect("baseline is valid JSON");
        let metrics = doc.get("metrics").expect("metrics object");
        for (name, ..) in WORKLOADS {
            for kind in ["compile", "embed", "sample"] {
                let key = format!("qac_bench_{kind}_us{{workload=\"{name}\"}}");
                let value = metrics
                    .get(&key)
                    .and_then(|v| v.as_f64())
                    .unwrap_or_else(|| panic!("missing {key}"));
                assert!(value > 0.0, "{key} must be positive, got {value}");
            }
            for kind in [
                "route_iterations",
                "heap_pops",
                "edge_relaxations",
                "weight_updates",
            ] {
                let key = format!("qac_bench_embed_{kind}{{workload=\"{name}\"}}");
                let value = metrics
                    .get(&key)
                    .and_then(|v| v.as_f64())
                    .unwrap_or_else(|| panic!("missing {key}"));
                assert!(value > 0.0, "{key} must be positive, got {value}");
            }
        }
        for (name, ..) in WORKLOADS {
            for sampler in ["reference", "sa", "pt", "pa"] {
                let key = format!(
                    "qac_sampler_reads_per_sec{{sampler=\"{sampler}\",workload=\"{name}\"}}"
                );
                let value = metrics
                    .get(&key)
                    .and_then(|v| v.as_f64())
                    .unwrap_or_else(|| panic!("missing {key}"));
                assert!(value > 0.0, "{key} must be positive, got {value}");
            }
            let key = format!("qac_bench_sampler_speedup_bp_vs_scalar{{workload=\"{name}\"}}");
            let value = metrics
                .get(&key)
                .and_then(|v| v.as_f64())
                .unwrap_or_else(|| panic!("missing {key}"));
            assert!(value > 0.0, "{key} must be positive, got {value}");
        }
        for family in ["chimera", "pegasus", "zephyr", "king"] {
            for kind in ["us", "physical_qubits", "max_chain", "heap_pops"] {
                let key =
                    format!("qac_bench_embed_{kind}{{workload=\"figure2\",topology=\"{family}\"}}");
                let value = metrics
                    .get(&key)
                    .and_then(|v| v.as_f64())
                    .unwrap_or_else(|| panic!("missing {key}"));
                assert!(value > 0.0, "{key} must be positive, got {value}");
            }
        }
        for name in ["figure2", "australia"] {
            for kind in ["cold_us", "warm_us", "speedup"] {
                let key = format!("qac_bench_incremental_{kind}{{workload=\"{name}\"}}");
                let value = metrics
                    .get(&key)
                    .and_then(|v| v.as_f64())
                    .unwrap_or_else(|| panic!("missing {key}"));
                assert!(value > 0.0, "{key} must be positive, got {value}");
            }
            let key = format!("qac_bench_incremental_speedup{{workload=\"{name}\"}}");
            let speedup = metrics.get(&key).and_then(|v| v.as_f64()).unwrap();
            assert!(
                speedup > 1.0,
                "the warm edit path must beat cold, got {speedup}"
            );
        }
        for key in [
            "qac_bench_batch_wall_us{workers=\"1\"}",
            "qac_bench_batch_wall_us{workers=\"8\"}",
            "qac_bench_batch_speedup_8v1",
            "qac_bench_available_parallelism",
            "qac_bench_batch_jobs",
        ] {
            let value = metrics
                .get(key)
                .and_then(|v| v.as_f64())
                .unwrap_or_else(|| panic!("missing {key}"));
            assert!(value > 0.0, "{key} must be positive, got {value}");
        }
        let serialized = metrics
            .get("qac_bench_batch_serialized_by_host")
            .and_then(|v| v.as_f64())
            .expect("missing qac_bench_batch_serialized_by_host");
        let parallelism = metrics
            .get("qac_bench_available_parallelism")
            .and_then(|v| v.as_f64())
            .unwrap();
        assert_eq!(
            serialized,
            if parallelism < 8.0 { 1.0 } else { 0.0 },
            "serialized-by-host flag must reflect the host's parallelism"
        );
    }
}
