//! One module per paper artifact; see DESIGN.md §4 for the index.

mod ablations;
mod analyze;
mod apps;
mod certify;
mod edit;
mod figure2;
mod samplers;
mod sec6;
mod tables;
mod topology;

pub use ablations::{run_ablation_chain, run_ablation_gap, run_ablation_opt, run_ablation_roof};
pub use analyze::{
    analysis_diagnostics_json, analysis_report_text, analyze_workloads, run_analyze, BROKEN_QMASM,
};
pub use apps::{run_circsat, run_counter, run_factor, run_map_color};
pub use certify::{certified_corpus, certify_workload, run_certify, verify_certificate_file};
pub use edit::{canonical_gate_edit, embed_for_edit, run_edit};
pub use figure2::run_figure2_3;
pub use samplers::run_samplers;
pub use sec6::{run_sec6_1, run_sec6_2};
pub use tables::{run_table1, run_table2, run_table3_4, run_table5};
pub use topology::run_topology;

/// Every experiment id, in paper order.
pub const ALL: &[(&str, fn())] = &[
    ("table1", run_table1 as fn()),
    ("table2", run_table2),
    ("table3_4", run_table3_4),
    ("table5", run_table5),
    ("figure2_3", run_figure2_3),
    ("circsat", run_circsat),
    ("factor", run_factor),
    ("map_color", run_map_color),
    ("counter", run_counter),
    ("sec6_1", run_sec6_1),
    ("sec6_2", run_sec6_2),
    ("samplers", run_samplers),
    ("ablation_chain", run_ablation_chain),
    ("ablation_gap", run_ablation_gap),
    ("ablation_roof", run_ablation_roof),
    ("ablation_opt", run_ablation_opt),
    ("analyze", run_analyze),
    ("topology", run_topology),
    ("edit", run_edit),
    ("certify", run_certify),
];
