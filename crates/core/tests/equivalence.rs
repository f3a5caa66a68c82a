//! The stage-graph pipeline is a refactor, not a rewrite: for every
//! workload and option combination it must produce byte-identical
//! artifacts and identical statistics to a straight-line transcription
//! of the pre-stage-graph compile path.

use proptest::prelude::*;

use qac_core::{compile, netlist_to_qmasm, CompileError, CompileOptions, PipelineStats};
use qac_edif::{from_edif, to_edif};
use qac_gatesynth::CellLibrary;
use qac_netlist::unroll::unroll;
use qac_netlist::{opt, NetlistStats};
use qac_qmasm::{assemble, parse, AssembleOptions, MapIncludes};

/// The paper's workload corpus (Figure 2 and Listings 3, 5, 6, 7).
const CORPUS: &[(&str, &str)] = &[
    (
        r#"
        module circuit (s, a, b, c);
          input s, a, b;
          output [1:0] c;
          assign c = s ? a+b : a-b;
        endmodule
        "#,
        "circuit",
    ),
    (
        r#"
        module circsat (a, b, c, y);
          input a, b, c;
          output y;
          wire [1:10] x;
          assign x[1] = a;
          assign x[2] = b;
          assign x[3] = c;
          assign x[4] = ~x[3];
          assign x[5] = x[1] | x[2];
          assign x[6] = ~x[4];
          assign x[7] = x[1] & x[2] & x[4];
          assign x[8] = x[5] | x[6];
          assign x[9] = x[6] | x[7];
          assign x[10] = x[8] & x[9] & x[7];
          assign y = x[10];
        endmodule
        "#,
        "circsat",
    ),
    (
        r#"
        module mult (A, B, C);
          input [3:0] A;
          input [3:0] B;
          output[7:0] C;
          assign C = A * B;
        endmodule
        "#,
        "mult",
    ),
    (
        r#"
        module australia (NSW, QLD, SA, VIC, WA, NT, ACT, valid);
          input [1:0] NSW, QLD, SA, VIC, WA, NT, ACT;
          output valid;
          assign valid = WA != NT && WA != SA && NT != SA && NT != QLD
                      && SA != QLD && SA != NSW && SA != VIC && QLD != NSW
                      && NSW != VIC && NSW != ACT;
        endmodule
        "#,
        "australia",
    ),
    (
        r#"
        module count (clk, inc, reset, out);
          input clk;
          input inc;
          input reset;
          output [5:0] out;
          reg [5:0] var;
          always @(posedge clk)
            if (reset)
              var <= 0;
            else
              if (inc)
                var <= var + 1;
          assign out = var;
        endmodule
        "#,
        "count",
    ),
];

/// Everything the reference path produces that the stage-graph path must
/// reproduce exactly.
#[derive(Debug, PartialEq)]
struct ReferenceArtifacts {
    edif: String,
    qmasm: String,
    stdcell: String,
    expected_ground_energy: f64,
    stats: PipelineStats,
}

/// A straight-line transcription of the compile path: the same calls in
/// the same order, with no `Trace::try_stage` recording around them.
fn reference_compile(
    source: &str,
    top: &str,
    options: &CompileOptions,
) -> Result<ReferenceArtifacts, CompileError> {
    let mut netlist = qac_verilog::compile(source, top)?;
    let verilog_lines = source.lines().filter(|l| !l.trim().is_empty()).count();

    if let Some(steps) = options.unroll_steps {
        if steps == 0 {
            return Err(CompileError::Pipeline(
                "unroll_steps must be at least 1".into(),
            ));
        }
        netlist = unroll(&netlist, steps, options.unroll_initial);
    }

    if options.opt_level >= 2 {
        opt::optimize(&mut netlist);
    } else if options.opt_level == 1 {
        opt::merge_buffers(&mut netlist);
        opt::eliminate_dead(&mut netlist);
    }
    netlist.validate()?;

    let edif = to_edif(&netlist);
    let netlist = from_edif(&edif)?;

    let library = CellLibrary::table5();
    let stdcell = qac_qmasm::stdcell_qmasm(&library);
    let qmasm = netlist_to_qmasm(&netlist);
    let mut includes = MapIncludes::new();
    includes.insert("stdcell.qmasm", stdcell.clone());

    let program = parse(&qmasm, &includes)?;
    let assembled = assemble(
        &program,
        &AssembleOptions {
            merge_chains: options.merge_chains,
            chain_strength: options.chain_strength,
            pin_weight: None,
        },
    )?;

    let mut expected = 0.0;
    for cell in netlist.cells() {
        let lib_cell = library
            .get(cell.kind.name())
            .ok_or_else(|| CompileError::Pipeline(format!("no cell for {}", cell.kind)))?;
        expected += lib_cell.ground_energy();
    }
    expected -= netlist.constants().len() as f64;
    expected -= assembled.num_chain_couplings as f64 * assembled.chain_strength;

    let stats = PipelineStats {
        verilog_lines,
        edif_lines: edif.lines().count(),
        qmasm_lines: qmasm.lines().count(),
        stdcell_lines: stdcell.lines().count(),
        logical_variables: assembled.ising.num_vars(),
        logical_terms: assembled.ising.num_terms(1e-12),
        netlist: NetlistStats::of(&netlist),
    };

    Ok(ReferenceArtifacts {
        edif,
        qmasm,
        stdcell,
        expected_ground_energy: expected,
        stats,
    })
}

fn options_strategy() -> impl Strategy<Value = CompileOptions> {
    (
        0u8..=2,
        any::<bool>(),
        prop_oneof![Just(None), (1usize..=2).prop_map(Some)],
    )
        .prop_map(|(opt_level, merge_chains, unroll_steps)| CompileOptions {
            opt_level,
            merge_chains,
            unroll_steps,
            ..Default::default()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn stage_graph_matches_the_straight_line_path(options in options_strategy()) {
        for &(source, top) in CORPUS {
            let staged = compile(source, top, &options).unwrap();
            let reference = reference_compile(source, top, &options).unwrap();
            prop_assert_eq!(&staged.edif, &reference.edif, "{}: edif differs", top);
            prop_assert_eq!(&staged.qmasm, &reference.qmasm, "{}: qmasm differs", top);
            prop_assert_eq!(&staged.stdcell, &reference.stdcell, "{}: stdcell differs", top);
            prop_assert_eq!(&staged.stats, &reference.stats, "{}: stats differ", top);
            prop_assert!(
                (staged.expected_ground_energy - reference.expected_ground_energy).abs()
                    < 1e-12,
                "{}: expected energy {} vs {}",
                top,
                staged.expected_ground_energy,
                reference.expected_ground_energy
            );
            // The trace is the one thing the stage graph adds: every
            // compile stage must be present and populated.
            prop_assert_eq!(staged.trace.len(), 10, "{}: missing stages", top);
            // Every compile stage produces a nonempty artifact — except
            // the analyzer, whose output size is its diagnostic count
            // (zero on a clean program).
            prop_assert!(staged
                .trace
                .stages()
                .iter()
                .filter(|s| s.name != "analyze")
                .all(|s| s.output_size > 0));
        }
    }
}
