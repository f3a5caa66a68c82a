//! Ablations of the design choices DESIGN.md calls out: chain strength,
//! energy-gap headroom, roof duality, and the optimization passes.

use std::sync::Arc;

use qac_chimera::{embed, Chimera, EmbedOptions, EmbeddingCache};
use qac_core::{compile, CompileOptions};
use qac_pbf::roof::apply_roof_duality;
use qac_pbf::Ising;
use qac_qmasm::PinStyle;
use qac_solvers::{DWaveSim, DWaveSimOptions};

use crate::{compile_workload, AUSTRALIA, FIGURE2};

/// A1: chain-strength sweep on the embedded map-coloring program —
/// too weak and chains break, too strong and the logical signal is
/// crushed by coefficient rescaling.
pub fn run_ablation_chain() {
    println!("== A1: chain strength vs chain breaks and solution validity ==\n");
    let compiled = compile_workload(AUSTRALIA, "australia");
    let pinned = compiled
        .assembled
        .pinned_model(&[("valid".to_string(), true)], PinStyle::Bias(4.0))
        .expect("pin resolves");
    let expected = compiled.expected_ground_energy - 4.0;

    // One shared embedding cache across the sweep: chain strength is
    // deliberately not part of the cache key, so every strength reuses
    // the first run's embedding (and the sweep isolates the strength
    // variable instead of also varying the embedding).
    let cache = Arc::new(EmbeddingCache::new());
    println!(
        "{:>14} {:>14} {:>16}",
        "chain strength", "chain breaks", "valid fraction"
    );
    for strength in [0.25, 0.5, 1.0, 2.0] {
        let sim = DWaveSim::new(DWaveSimOptions {
            topology: qac_solvers::TopologySpec::Chimera { m: 16 },
            chain_strength: Some(strength),
            anneal_sweeps: 256,
            embedding_cache: Some(Arc::clone(&cache)),
            ..Default::default()
        });
        let reads = 400;
        let result = sim.run(&pinned, reads).expect("embeds");
        let valid: usize = result
            .logical
            .iter()
            .filter(|s| (s.energy - expected).abs() < 1e-6)
            .map(|s| s.occurrences)
            .sum();
        println!(
            "{:>14.2} {:>14.3} {:>16.3}",
            strength,
            result.mean_chain_breaks,
            valid as f64 / reads as f64
        );
    }
    println!(
        "embedding cache: {} hits, {} misses, {} stored ({} route solves saved)",
        cache.hits(),
        cache.misses(),
        cache.len(),
        cache.hits()
    );
    assert_eq!(
        (cache.hits(), cache.misses()),
        (3, 1),
        "the whole strength sweep shares one embedding"
    );
    println!("\nexpected shape: weak chains break often; strong chains hold. ✓");
}

/// A2: the §4.3.2 gap-maximization claim — cells with more energy
/// headroom survive analog noise better. We emulate shrinking the gap by
/// scaling the whole logical model down before the (fixed-noise)
/// hardware run.
pub fn run_ablation_gap() {
    println!("== A2: energy gap vs robustness under analog noise ==\n");
    let compiled = compile_workload(FIGURE2, "circuit");
    let pinned = compiled
        .assembled
        .pinned_model(
            &[
                ("s".to_string(), true),
                ("a".to_string(), true),
                ("b".to_string(), true),
            ],
            PinStyle::Bias(4.0),
        )
        .expect("pins resolve");
    let expected = compiled.expected_ground_energy - 3.0 * 4.0;

    // Coefficient scaling leaves the interaction graph unchanged, so the
    // whole sweep shares one cached embedding too (the key hashes edges,
    // not weights).
    let cache = Arc::new(EmbeddingCache::new());
    println!("{:>12} {:>16}", "gap scale", "valid fraction");
    for scale in [1.0, 0.5, 0.25, 0.125] {
        // Scale every coefficient: the spectral gap scales identically,
        // but the simulator's noise floor stays fixed.
        let mut scaled = Ising::new(pinned.num_vars());
        for (i, h) in pinned.h_iter() {
            if h != 0.0 {
                scaled.add_h(i, h * scale);
            }
        }
        for t in pinned.j_iter() {
            scaled.add_j(t.i, t.j, t.value * scale);
        }
        let sim = DWaveSim::new(DWaveSimOptions {
            topology: qac_solvers::TopologySpec::Chimera { m: 8 },
            noise_sigma: 0.02,
            anneal_sweeps: 96,
            embedding_cache: Some(Arc::clone(&cache)),
            ..Default::default()
        });
        let reads = 400;
        let result = sim.run(&scaled, reads).expect("embeds");
        let valid: usize = result
            .logical
            .iter()
            .filter(|s| (s.energy - expected * scale).abs() < 1e-6 * scale.max(1e-6))
            .map(|s| s.occurrences)
            .sum();
        println!("{:>12.3} {:>16.3}", scale, valid as f64 / reads as f64);
    }
    println!(
        "embedding cache: {} hits, {} misses, {} stored",
        cache.hits(),
        cache.misses(),
        cache.len()
    );
    assert_eq!((cache.hits(), cache.misses()), (3, 1));
    println!("\nexpected shape: smaller gaps (relative to fixed noise) are less robust. ✓");
}

/// A3: roof-duality qubit elision (§4.4) on pinned programs.
pub fn run_ablation_roof() {
    println!("== A3: roof-duality variable elision on pinned programs ==\n");
    println!(
        "{:<12} {:>10} {:>12} {:>12}",
        "program", "variables", "fixed by RD", "remaining"
    );
    let cases: Vec<(&str, Ising)> = vec![
        (
            "fig2 fwd",
            compile_workload(FIGURE2, "circuit")
                .assembled
                .pinned_model(
                    &[
                        ("s".to_string(), true),
                        ("a".to_string(), true),
                        ("b".to_string(), false),
                    ],
                    PinStyle::Fix,
                )
                .unwrap(),
        ),
        (
            "australia",
            compile_workload(AUSTRALIA, "australia")
                .assembled
                .pinned_model(&[("valid".to_string(), true)], PinStyle::Fix)
                .unwrap(),
        ),
    ];
    for (name, model) in cases {
        let total = model.active_variables().len();
        let mut reduced = model.clone();
        let fixed = apply_roof_duality(&mut reduced);
        let remaining = reduced.active_variables().len();
        println!(
            "{:<12} {:>10} {:>12} {:>12}",
            name,
            total,
            fixed.len(),
            remaining
        );
        assert!(remaining <= total);
    }
    println!("\nfixed variables need no qubits at all (paper §4.4). ✓");
}

/// A4: the optimization passes' effect on every pipeline metric.
pub fn run_ablation_opt() {
    println!("== A4: logic optimization (ABC role) on/off ==\n");
    let workloads: [(&str, &str); 3] = [
        (FIGURE2, "circuit"),
        (crate::MULT, "mult"),
        (AUSTRALIA, "australia"),
    ];
    println!(
        "{:<12} {:>6} {:>12} {:>14} {:>16}",
        "program", "opt", "gate cells", "logical vars", "physical qubits"
    );
    let chimera = Chimera::dwave_2000q();
    let hardware = chimera.graph();
    for (source, top) in workloads {
        for opt_level in [0u8, 2u8] {
            let options = CompileOptions {
                opt_level,
                ..Default::default()
            };
            let compiled = compile(source, top, &options).expect("compiles");
            let logical = &compiled.assembled.ising;
            let qubits = if logical.num_vars() > 200 {
                // Unoptimized multiplier-sized models take minutes to
                // embed; the cell/variable columns already show the story.
                "(skipped)".to_string()
            } else {
                let options = EmbedOptions {
                    seed: 7,
                    ..Default::default()
                };
                embed(logical, &chimera, &hardware, &options, None)
                    .map(|(e, _)| e.num_physical_qubits().to_string())
                    .unwrap_or_else(|_| "n/a".to_string())
            };
            println!(
                "{:<12} {:>6} {:>12} {:>14} {:>16}",
                top,
                opt_level,
                compiled.stats.netlist.cells,
                compiled.stats.logical_variables,
                qubits
            );
        }
    }
    println!("\nexpected shape: optimization shrinks cells, variables, and qubits. ✓");
    // Sanity: optimization never hurts the logical variable count.
    let unopt = compile(
        FIGURE2,
        "circuit",
        &CompileOptions {
            opt_level: 0,
            ..Default::default()
        },
    )
    .unwrap();
    let opt = compile_workload(FIGURE2, "circuit");
    assert!(opt.stats.logical_variables <= unopt.stats.logical_variables);
}
