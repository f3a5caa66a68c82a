//! The incremental compiler's byte-identity contract, property-tested
//! over the paper's workload corpus.
//!
//! DESIGN.md §14 promises that a warm [`compile_netlist_incremental`]
//! produces artifacts **byte-identical** to a cold compile of the same
//! netlist — for any edit, not just the ones its unit tests picked. This
//! file checks that promise the adversarial way: every workload's
//! compiled netlist is hit with random single-step edits (flip a pin
//! constant, swap a gate, retarget a net), alone and in short bursts,
//! and `qac_core::artifact_mismatch` must come back empty every time.
//! On a failure a greedy shrinker minimizes the edit sequence before
//! panicking, so the reproduction is as small as the bug allows.
//!
//! `incremental_dispositions_match_golden` additionally pins how each
//! stage ran for a canonical one-gate edit, a whitespace-only source
//! edit and a symmetric input swap: every stage re-runs in full, and
//! `certify` splices the obligations whose cone fingerprints held still.
//! A lost splice keeps artifacts identical, so only a disposition
//! fixture can catch it. Update deliberately with
//! `QAC_UPDATE_GOLDEN=1 cargo test -p qac-bench --test
//! incremental_identity`.

use qac_bench::{AUSTRALIA, CIRCSAT, COUNTER, FIGURE2, MULT};
use qac_core::{
    artifact_mismatch, compile, compile_incremental, compile_netlist, compile_netlist_incremental,
    CompileOptions, Compiled,
};
use qac_netlist::{CellKind, Netlist};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `(name, source, top, compile options)` for every corpus program. The
/// counter is sequential, so its *source* compile unrolls two steps; the
/// netlist-entry trials then start from the unrolled (combinational)
/// netlist with default options.
fn corpus() -> Vec<(&'static str, &'static str, &'static str, CompileOptions)> {
    let unrolled = CompileOptions {
        unroll_steps: Some(2),
        ..CompileOptions::default()
    };
    vec![
        ("figure2", FIGURE2, "circuit", CompileOptions::default()),
        ("counter", COUNTER, "count", unrolled),
        ("circsat", CIRCSAT, "circsat", CompileOptions::default()),
        ("mult", MULT, "mult", CompileOptions::default()),
        (
            "australia",
            AUSTRALIA,
            "australia",
            CompileOptions::default(),
        ),
    ]
}

/// One reversible single-step netlist edit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Edit {
    /// Swap cell `cell`'s gate kind (same arity and sequentiality).
    SwapGate { cell: usize, kind: CellKind },
    /// Point input pin `pin` of `cell` at `net`.
    Retarget { cell: usize, pin: usize, net: usize },
    /// Invert the `index`-th constant tie.
    FlipConstant { index: usize },
}

fn apply(netlist: &mut Netlist, edit: Edit) {
    match edit {
        Edit::SwapGate { cell, kind } => netlist.set_cell_kind(cell, kind),
        Edit::Retarget { cell, pin, net } => netlist.retarget_input(cell, pin, net),
        Edit::FlipConstant { index } => {
            netlist.flip_constant(index);
        }
    }
}

/// Draws one random edit that leaves `base` a valid (acyclic) netlist,
/// or `None` if the draw budget runs out (e.g. a retarget that would
/// form a cycle).
fn random_edit(base: &Netlist, rng: &mut StdRng) -> Option<Edit> {
    for _ in 0..32 {
        let edit = match rng.gen_range(0..3u8) {
            0 => {
                let cell = rng.gen_range(0..base.cells().len());
                let current = base.cells()[cell].kind;
                let swaps: Vec<CellKind> = CellKind::ALL
                    .into_iter()
                    .filter(|k| {
                        *k != current
                            && k.num_inputs() == current.num_inputs()
                            && k.is_sequential() == current.is_sequential()
                    })
                    .collect();
                if swaps.is_empty() {
                    continue;
                }
                Edit::SwapGate {
                    cell,
                    kind: swaps[rng.gen_range(0..swaps.len())],
                }
            }
            1 => {
                let cell = rng.gen_range(0..base.cells().len());
                let pin = rng.gen_range(0..base.cells()[cell].inputs.len());
                Edit::Retarget {
                    cell,
                    pin,
                    net: rng.gen_range(0..base.num_nets()),
                }
            }
            _ => {
                if base.constants().is_empty() {
                    continue;
                }
                Edit::FlipConstant {
                    index: rng.gen_range(0..base.constants().len()),
                }
            }
        };
        let mut probe = base.clone();
        apply(&mut probe, edit);
        if probe.validate().is_ok() {
            return Some(edit);
        }
    }
    None
}

/// Applies `edits` to a fresh copy of `base` and compares the warm
/// incremental compile against a cold one. `None` means byte-identical
/// (or the sequence stopped being applicable — an invalid or
/// uncompilable mutant cannot witness a mismatch).
fn mismatch_for(
    prev: &Compiled,
    base: &Netlist,
    edits: &[Edit],
    options: &CompileOptions,
) -> Option<String> {
    let mut mutated = base.clone();
    for &edit in edits {
        apply(&mut mutated, edit);
    }
    if mutated.validate().is_err() {
        return None;
    }
    let cold = match compile_netlist(mutated.clone(), options) {
        Ok(cold) => cold,
        Err(_) => {
            // A mutant the cold pipeline rejects must be rejected warm
            // too — "fails identically" is the degenerate byte-identity.
            assert!(
                compile_netlist_incremental(prev, mutated, options).is_err(),
                "cold compile failed but the incremental compile succeeded"
            );
            return None;
        }
    };
    let (warm, _) = compile_netlist_incremental(prev, mutated, options)
        .expect("cold compile succeeded, warm must too");
    artifact_mismatch(&cold, &warm)
}

/// Greedily drops edits while the mismatch still reproduces.
fn shrink(prev: &Compiled, base: &Netlist, edits: &[Edit], options: &CompileOptions) -> Vec<Edit> {
    let mut kept: Vec<Edit> = edits.to_vec();
    loop {
        let mut shrunk = false;
        for i in 0..kept.len() {
            let mut candidate = kept.clone();
            candidate.remove(i);
            if mismatch_for(prev, base, &candidate, options).is_some() {
                kept = candidate;
                shrunk = true;
                break;
            }
        }
        if !shrunk {
            return kept;
        }
    }
}

#[test]
fn random_edits_stay_byte_identical_across_the_corpus() {
    let options = CompileOptions::default();
    let mut rng = StdRng::seed_from_u64(0x1ec2_e5e5);
    for (name, source, top, source_options) in corpus() {
        let base = compile(source, top, &source_options)
            .unwrap_or_else(|e| panic!("{name}: base compile failed: {e}"))
            .netlist;
        let prev = compile_netlist(base.clone(), &options)
            .unwrap_or_else(|e| panic!("{name}: netlist compile failed: {e}"));
        for trial in 0..8 {
            let burst = rng.gen_range(1..=3usize);
            let mut edits = Vec::with_capacity(burst);
            let mut scratch = base.clone();
            for _ in 0..burst {
                let Some(edit) = random_edit(&scratch, &mut rng) else {
                    break;
                };
                apply(&mut scratch, edit);
                edits.push(edit);
            }
            if edits.is_empty() {
                continue;
            }
            if let Some(what) = mismatch_for(&prev, &base, &edits, &options) {
                let minimal = shrink(&prev, &base, &edits, &options);
                panic!(
                    "{name} trial {trial}: incremental compile diverged from cold: {what}\n\
                     minimal reproduction ({} of {} edits): {minimal:?}",
                    minimal.len(),
                    edits.len(),
                );
            }
        }
    }
}

#[test]
fn warm_chain_of_single_edits_stays_byte_identical() {
    // Edit → recompile → edit again, reusing each warm result as the
    // next seed (the editor loop DESIGN.md §14 actually serves): the
    // IncrState carried by a warm compile must be as good a seed as a
    // cold one's.
    let options = CompileOptions::default();
    let mut rng = StdRng::seed_from_u64(0xcafe);
    let base = compile(FIGURE2, "circuit", &options).unwrap().netlist;
    let mut prev = compile_netlist(base.clone(), &options).unwrap();
    let mut current = base;
    for step in 0..6 {
        let Some(edit) = random_edit(&current, &mut rng) else {
            continue;
        };
        let mut next = current.clone();
        apply(&mut next, edit);
        let cold = match compile_netlist(next.clone(), &options) {
            Ok(cold) => cold,
            Err(_) => continue,
        };
        let (warm, _) = compile_netlist_incremental(&prev, next.clone(), &options).unwrap();
        assert_eq!(
            artifact_mismatch(&cold, &warm),
            None,
            "step {step} ({edit:?}) diverged"
        );
        prev = warm;
        current = next;
    }
}

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/incremental_dispositions.txt"
);

/// Renders the per-stage dispositions for the two canonical warm
/// recompiles the fixture pins.
fn disposition_fixture() -> String {
    let options = CompileOptions::default();
    let mut out = String::new();

    // A one-gate edit on the figure 2 circuit: the first 2-input
    // combinational gate swaps AND↔OR (or XOR↔XNOR, whichever it is).
    let base = compile(FIGURE2, "circuit", &options).unwrap().netlist;
    let prev = compile_netlist(base.clone(), &options).unwrap();
    let (cell, swapped) = base
        .cells()
        .iter()
        .enumerate()
        .find_map(|(id, c)| {
            let to = match c.kind {
                CellKind::And => CellKind::Or,
                CellKind::Or => CellKind::And,
                CellKind::Xor => CellKind::Xnor,
                CellKind::Xnor => CellKind::Xor,
                CellKind::Nand => CellKind::Nor,
                CellKind::Nor => CellKind::Nand,
                _ => return None,
            };
            Some((id, to))
        })
        .expect("figure2 has a swappable 2-input gate");
    let mut edited = base.clone();
    edited.set_cell_kind(cell, swapped);
    let (warm, report) = compile_netlist_incremental(&prev, edited, &options).unwrap();
    let cold_kind = base.cells()[cell].kind;
    out.push_str(&format!(
        "edit figure2 swap-gate cell {cell} {cold_kind}->{swapped}\n"
    ));
    out.push_str(&format!("full_rebuild {}\n", report.full_rebuild));
    for (stage, disposition) in &report.stages {
        out.push_str(&format!("stage {stage} {disposition}\n"));
    }
    assert_eq!(
        artifact_mismatch(
            &compile_netlist(
                {
                    let mut n = base.clone();
                    n.set_cell_kind(cell, swapped);
                    n
                },
                &options
            )
            .unwrap(),
            &warm
        ),
        None
    );

    // A whitespace/comment-only source edit: every stage re-runs, and
    // `certify` copies every obligation since no cone moved.
    let prev = compile(FIGURE2, "circuit", &options).unwrap();
    let touched = format!("// cosmetic\n{FIGURE2}\n");
    let (_, report) = compile_incremental(&prev, &touched, "circuit", &options).unwrap();
    out.push_str("\nedit figure2 whitespace-only\n");
    out.push_str(&format!("full_rebuild {}\n", report.full_rebuild));
    for (stage, disposition) in &report.stages {
        out.push_str(&format!("stage {stage} {disposition}\n"));
    }

    // A symmetric input swap at opt level 0: the QMASM text changes, so
    // the whole back end re-runs even though the assembled model is
    // content-identical; certification reuses the untouched cones'
    // proofs.
    let options = CompileOptions {
        opt_level: 0,
        ..CompileOptions::default()
    };
    let mut b = qac_netlist::Builder::new("demo");
    let a = b.input("a", 1)[0];
    let c = b.input("b", 1)[0];
    let d = b.input("d", 1)[0];
    let x = b.xor(a, c);
    let y = b.and(x, d);
    let z = b.or(y, a);
    b.output("z", &[z]);
    let old = b.finish();
    let prev = compile_netlist(old.clone(), &options).unwrap();
    let mut new = old.clone();
    let a_net = old.port("a").unwrap().bits[0];
    let y_net = old.cells()[1].output;
    new.retarget_input(2, 0, a_net);
    new.retarget_input(2, 1, y_net);
    let (warm, report) = compile_netlist_incremental(&prev, new.clone(), &options).unwrap();
    assert_ne!(warm.qmasm, prev.qmasm, "the swap must reach the QMASM text");
    out.push_str("\nedit demo symmetric-input-swap (opt level 0)\n");
    out.push_str(&format!("full_rebuild {}\n", report.full_rebuild));
    for (stage, disposition) in &report.stages {
        out.push_str(&format!("stage {stage} {disposition}\n"));
    }
    assert_eq!(
        artifact_mismatch(&compile_netlist(new, &options).unwrap(), &warm),
        None
    );
    out
}

#[test]
fn incremental_dispositions_match_golden() {
    let actual = disposition_fixture();
    if std::env::var("QAC_UPDATE_GOLDEN").is_ok() {
        std::fs::write(GOLDEN_PATH, &actual).expect("write golden fixture");
        println!("updated {GOLDEN_PATH}");
        return;
    }
    let expected = std::fs::read_to_string(GOLDEN_PATH).expect("golden fixture exists");
    assert!(
        actual == expected,
        "incremental stage dispositions diverged from the golden fixture.\n\
         Re-run with QAC_UPDATE_GOLDEN=1 if the change is intended.\n\
         --- expected ---\n{expected}\n--- actual ---\n{actual}"
    );
}
