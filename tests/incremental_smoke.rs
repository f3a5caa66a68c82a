//! The incremental compiler's contract on the paper's Figure 2 circuit:
//! a warm recompile matches a cold one byte for byte, runs on the
//! pre-edit embedding, and an edit that changes nothing after the front
//! end runs every stage and copies every certificate obligation.

use std::sync::Arc;

use qac::chimera::EmbeddingCache;
use qac::core::{
    artifact_mismatch, compile, compile_incremental, compile_netlist, compile_netlist_incremental,
    verify_certificate, CompileOptions, RunOptions, SolverChoice, StageDisposition,
};
use qac::netlist::CellKind;
use qac::solvers::{DWaveSimOptions, TopologySpec};

const FIGURE2: &str = r#"
module circuit (s, a, b, c);
  input s, a, b;
  output [1:0] c;
  assign c = s ? a+b : a-b;
endmodule
"#;

#[test]
fn gate_swap_recompiles_like_a_cold_compile() {
    let options = CompileOptions::default();
    let base = compile(FIGURE2, "circuit", &options).unwrap().netlist;
    let prev = compile_netlist(base.clone(), &options).unwrap();
    let (cell, swapped) = base
        .cells()
        .iter()
        .enumerate()
        .find_map(|(id, c)| match c.kind {
            CellKind::And => Some((id, CellKind::Or)),
            CellKind::Or => Some((id, CellKind::And)),
            CellKind::Xor => Some((id, CellKind::Xnor)),
            CellKind::Xnor => Some((id, CellKind::Xor)),
            _ => None,
        })
        .expect("figure 2 has a swappable gate");
    let mut edited = base;
    edited.set_cell_kind(cell, swapped);

    let cold = compile_netlist(edited.clone(), &options).unwrap();
    let (warm, _) = compile_netlist_incremental(&prev, edited, &options).unwrap();
    assert_eq!(artifact_mismatch(&cold, &warm), None);
    let certificate = warm.certificate.as_ref().expect("certification is on");
    let issues = verify_certificate(certificate);
    assert!(issues.iter().all(|i| !i.kind.is_error()), "{issues:?}");

    // Edit → run: the swap keeps every coupling and the cache key leaves
    // out coefficients, so the warm program reuses the pre-edit embedding.
    let cache = Arc::new(EmbeddingCache::new());
    let run = RunOptions::new()
        .num_reads(8)
        .solver(SolverChoice::DWave(Box::new(DWaveSimOptions {
            topology: TopologySpec::Chimera { m: 4 },
            embedding_cache: Some(Arc::clone(&cache)),
            ..Default::default()
        })));
    let lookups = || (cache.stats().hits, cache.stats().misses);
    prev.run(&run).unwrap();
    assert_eq!(lookups(), (0, 1), "the pre-edit run embeds");
    warm.run(&run).unwrap();
    assert_eq!(lookups(), (1, 1), "the edited run reuses the embedding");
}

#[test]
fn whitespace_edit_runs_every_stage_and_splices_the_certificate() {
    let options = CompileOptions::default();
    let prev = compile(FIGURE2, "circuit", &options).unwrap();
    let touched = format!("\n\n{FIGURE2}   \n");
    let (warm, report) = compile_incremental(&prev, &touched, "circuit", &options).unwrap();
    for (stage, disposition) in &report.stages {
        if stage != "certify" {
            assert_eq!(*disposition, StageDisposition::Full, "{stage}");
        }
    }
    assert!(
        matches!(
            report.disposition("certify"),
            Some(StageDisposition::Spliced { redone: 0, .. })
        ),
        "{:?}",
        report.disposition("certify")
    );
    let cold = compile(&touched, "circuit", &options).unwrap();
    assert_eq!(artifact_mismatch(&cold, &warm), None);
}
