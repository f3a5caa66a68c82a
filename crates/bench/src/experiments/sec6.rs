//! §6: analysis of the map-coloring program — static properties (6.1)
//! and execution time against a classical CSP solver (6.2).

use std::time::Instant;

use qac_chimera::{embed, embed_ising, Chimera, EmbedOptions};
use qac_pbf::scale::{scale_to_range, CoefficientRange};
use qac_solvers::{DWaveSim, DWaveSimOptions, TimingModel};

use crate::{compile_workload, handcoded_australia_unary, mean_std, AUSTRALIA};

/// §6.1: static properties of the compiled Listing 7 vs a hand-coded
/// unary encoding.
///
/// Paper numbers for the compiled version: 6 lines Verilog → 123 EDIF →
/// 736 QMASM; 74 logical variables; 312 logical terms; 369 ± 26 physical
/// qubits over 25 compilations; 963 ± 53 physical terms. Hand-coded:
/// 28 logical variables, 88 qubits — a 2.6× / 4× advantage.
pub fn run_sec6_1() {
    println!("== §6.1: static properties of the map-coloring program ==\n");
    let compiled = compile_workload(AUSTRALIA, "australia");

    println!("compiled (automated) version:");
    println!(
        "  Verilog lines:        {:>6}   (paper: 6)",
        compiled.stats.verilog_lines
    );
    println!(
        "  EDIF lines:           {:>6}   (paper: 123)",
        compiled.stats.edif_lines
    );
    println!(
        "  QMASM lines:          {:>6}   (paper: 736, excl. stdcell)",
        compiled.stats.qmasm_lines
    );
    println!(
        "  stdcell.qmasm lines:  {:>6}   (paper: 232)",
        compiled.stats.stdcell_lines
    );
    println!(
        "  logical variables:    {:>6}   (paper: 74)",
        compiled.stats.logical_variables
    );
    println!(
        "  logical terms:        {:>6}   (paper: 312)",
        compiled.stats.logical_terms
    );

    println!("\nper-stage compile trace (wall time, artifact sizes, retries):");
    println!("{}", compiled.trace);

    // Per-stage times over repeated compilations, aggregated with
    // Trace::all / Trace::total_for (the paper's §6.1 protocol averages
    // over 25 compilations; 5 keep this experiment snappy).
    let repeats = 5usize;
    let mut combined = qac_core::Trace::new();
    for _ in 0..repeats {
        let trace = compile_workload(AUSTRALIA, "australia").trace;
        combined.extend(trace.stages().iter().cloned());
    }
    println!("mean stage times over {repeats} repeated compilations:");
    println!("{:<14} {:>6} {:>12}", "stage", "runs", "mean time");
    for stage in compiled.trace.stages() {
        let runs = combined.all(&stage.name).count();
        assert_eq!(runs, repeats, "every compile runs every stage once");
        let mean_us = combined.total_for(&stage.name).as_secs_f64() * 1e6 / runs.max(1) as f64;
        println!("{:<14} {runs:>6} {mean_us:>10.1}µs", stage.name);
    }

    // 25 randomized embeddings on a C16 (the paper's protocol).
    let chimera = Chimera::dwave_2000q();
    let hardware = chimera.graph();
    // Scaled first: the physical-term count below is of the scaled model.
    let scaled = scale_to_range(&compiled.assembled.ising, CoefficientRange::DWAVE_2000Q);
    let mut qubits = Vec::new();
    let mut terms = Vec::new();
    // (physical qubits, max chain, seed) of the cheapest embedding.
    let mut best: Option<(usize, usize, u64)> = None;
    for seed in 0..25u64 {
        let options = EmbedOptions {
            seed: 1000 + seed,
            ..Default::default()
        };
        let (embedding, _) = embed(&scaled.model, &chimera, &hardware, &options, None)
            .expect("map coloring embeds on a 2000Q");
        let embedded = embed_ising(&scaled.model, &embedding, &hardware, 2.0);
        let physical = embedding.num_physical_qubits();
        if best.is_none_or(|(fewest, ..)| physical < fewest) {
            best = Some((physical, embedding.max_chain_length(), options.seed));
        }
        qubits.push(physical as f64);
        terms.push(embedded.physical.num_terms(1e-12) as f64);
    }
    let (qm, qs) = mean_std(&qubits);
    let (tm, ts) = mean_std(&terms);
    println!(
        "  physical qubits:      {qm:>6.0} ± {qs:.0}   (paper: 369 ± 26, over 25 compilations)"
    );
    println!("  physical terms:       {tm:>6.0} ± {ts:.0}   (paper: 963 ± 53)");

    // The ± spread above is the price of one randomized compilation;
    // the cheapest of the 25 shows what re-seeding could buy.
    let (fewest, max_chain, seed) = best.expect("25 embeddings ran");
    println!("  best of 25:           {fewest:>6} qubits, max chain {max_chain} (seed {seed})");

    // Hand-coded unary encoding.
    println!("\nhand-coded unary encoding (Dahl/Lucas):");
    let hand = handcoded_australia_unary();
    println!(
        "  logical variables:    {:>6}   (paper: 28)",
        hand.num_vars()
    );
    let mut hand_qubits = Vec::new();
    for seed in 0..25u64 {
        let options = EmbedOptions {
            seed: 2000 + seed,
            ..Default::default()
        };
        let (embedding, _) =
            embed(&hand, &chimera, &hardware, &options, None).expect("unary encoding embeds");
        hand_qubits.push(embedding.num_physical_qubits() as f64);
    }
    let (hm, hs) = mean_std(&hand_qubits);
    println!("  physical qubits:      {hm:>6.0} ± {hs:.0}   (paper's pencil-and-paper: 88)");

    println!("\nconvenience cost of the compiled version (paper: 2.6× / 4×):");
    println!(
        "  logical blow-up:  {:.1}×",
        compiled.stats.logical_variables as f64 / hand.num_vars() as f64
    );
    println!("  physical blow-up: {:.1}×", qm / hm);
    assert!(
        compiled.stats.logical_variables > hand.num_vars(),
        "the compiled version must cost more logical variables"
    );
    assert!(
        qm > hm,
        "the compiled version must cost more physical qubits"
    );
}

/// §6.2: execution time — the D-Wave timing model vs the classical CSP
/// solver, per solution.
///
/// Paper: 1,000,000 anneals of 20 µs → 734 µs per solution (including
/// network and queueing); Chuffed: 1798 µs per solution. "The performance
/// of our approach is not necessarily worse than that of a classical
/// solver."
pub fn run_sec6_2() {
    println!("== §6.2: execution time, annealer vs classical CSP solver ==\n");

    // --- Annealer side. ---
    // Valid fraction measured on the hardware model, then extrapolated to
    // the paper's 1e6 anneals with its timing model.
    let compiled = compile_workload(AUSTRALIA, "australia");
    let pinned = {
        use qac_qmasm::PinStyle;
        compiled
            .assembled
            .pinned_model(&[("valid".to_string(), true)], PinStyle::Bias(4.0))
            .expect("pin resolves")
    };
    let sim = DWaveSim::new(DWaveSimOptions {
        topology: qac_solvers::TopologySpec::Chimera { m: 16 },
        anneal_sweeps: 256,
        chain_strength: Some(1.5),
        ..Default::default()
    });
    let reads = 2000usize;
    let result = sim.run(&pinned, reads).expect("embeds on 2000Q");
    // A read is a "solution" when it decodes to a valid execution of the
    // verifier at the expected ground energy.
    let expected = compiled.expected_ground_energy - 4.0; // pin adds −weight
    let valid_reads: usize = result
        .logical
        .iter()
        .filter(|s| (s.energy - expected).abs() < 1e-6)
        .map(|s| s.occurrences)
        .sum();
    let valid_fraction = valid_reads as f64 / reads as f64;
    println!(
        "hardware model: {} physical qubits, chain breaks {:.3}",
        result.physical_qubits, result.mean_chain_breaks
    );
    println!("valid-solution fraction over {reads} reads: {valid_fraction:.3}");

    // The paper's cost accounting: total job time / number of solutions.
    // The paper's 734 µs/solution at 164 µs/read implies the real 2000Q
    // decoded ~22% of anneals into solutions; we tabulate both our
    // measured fraction and that implied one.
    let timing = TimingModel::default(); // 20 µs anneals, readout, delays
    let anneals = 1_000_000usize;
    let total_us = timing.total_us(anneals);
    println!(
        "\nmodeled D-Wave job of {anneals} anneals ({} µs each + readout):",
        timing.anneal_us
    );
    println!("{:>24} {:>18}", "solution fraction", "µs per solution");
    for (label, fraction) in [
        ("measured (ours)", valid_fraction),
        ("paper-implied 0.223", 0.223),
    ] {
        let solutions = (anneals as f64 * fraction).max(1.0);
        println!("{label:>24} {:>18.0}", total_us / solutions);
    }
    let us_per_solution = total_us / (anneals as f64 * valid_fraction).max(1.0);
    println!("(paper reports 734 µs per solution)");

    // --- Classical CSP side (Listing 8). ---
    let model = qac_csp::mapcolor::australia(4);
    let runs = 20_000usize;
    let start = Instant::now();
    let mut found = 0usize;
    for _ in 0..runs {
        if model.solve().is_some() {
            found += 1;
        }
    }
    let elapsed = start.elapsed();
    assert_eq!(found, runs);
    let csp_us_per_solution = elapsed.as_micros() as f64 / runs as f64;
    println!(
        "classical CSP solver: {runs} runs in {:.1} ms → {csp_us_per_solution:.0} µs per solution (paper, Chuffed: 1798 µs)",
        elapsed.as_secs_f64() * 1e3
    );

    println!("\nshape check:");
    println!(
        "  annealer / CSP time ratio: {:.1} (paper: 734/1798 = 0.41)",
        us_per_solution / csp_us_per_solution.max(1e-9)
    );
    println!("  caveats: our software anneal reaches the ground state less often than the");
    println!("  physical annealer, and our in-process CSP solver has none of Chuffed's");
    println!("  process/FlatZinc overheads — both shift the ratio against the annealer.");
    println!("  The qualitative §6.2 point stands: the CSP solver returns the SAME");
    println!("  coloring every run; the annealer SAMPLES the solution space.");
}
