//! Experiment harness reproducing every table and figure of
//! "Targeting Classical Code to a Quantum Annealer" (Pakin, ASPLOS 2019).
//!
//! Each `run_*` function regenerates one paper artifact and prints it in
//! the paper's shape; the `experiments` binary dispatches on experiment
//! ids (see DESIGN.md §4 for the index). Criterion benches under
//! `benches/` time the hot paths.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod golden;
pub mod report;
pub mod workloads;

pub use golden::topology_golden_fixture;
pub use workloads::*;

/// Mean and (population) standard deviation of a sample.
pub fn mean_std(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / values.len() as f64;
    (mean, var.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_std_basics() {
        let (m, s) = mean_std(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((m - 5.0).abs() < 1e-12);
        assert!((s - 2.0).abs() < 1e-12);
        assert_eq!(mean_std(&[]), (0.0, 0.0));
    }
}
