//! Per-stage instrumentation of the compile and run pipelines.
//!
//! Every stage a [`crate::Session`] executes leaves a [`StageTrace`]
//! behind: what ran, how long it took, how big its input and output
//! artifacts were, and how often it had to retry. The collected
//! [`Trace`] rides on [`crate::Compiled`] and [`crate::RunOutcome`], so
//! experiments can report where compilation and execution time goes
//! without re-running anything.

use std::fmt;
use std::time::Duration;

/// The record one stage leaves behind.
///
/// Artifact sizes are in stage-specific units — bytes for text stages,
/// cells for netlist stages, statements for the QMASM parser, nonzero
/// terms for models, reads for sample sets. The point is comparing a
/// stage against itself across runs, not stages against each other.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageTrace {
    /// Stage name (e.g. `"edif-write"`; `"sample:embed"` for sampler
    /// sub-phases).
    pub name: String,
    /// Wall-clock time the stage spent.
    pub duration: Duration,
    /// Size of the input artifact, in the stage's own units.
    pub input_size: usize,
    /// Size of the output artifact, in the stage's own units.
    pub output_size: usize,
    /// Internal retries/restarts the stage needed (embedding restarts;
    /// 0 for deterministic stages).
    pub retries: usize,
    /// Bytes allocated during the stage (process-wide; 0 unless the
    /// `qac-alloc` counting allocator is linked, e.g. `experiments`
    /// built with `--features alloc-track`).
    pub alloc_bytes: u64,
    /// Growth of the process allocation high-water mark during the
    /// stage (0 when the stage set no new peak, or no allocator).
    pub alloc_peak_bytes: u64,
    /// Whether the stage was skipped by the incremental compiler and
    /// its cached artifact replayed (DESIGN.md §14). Skipped stages
    /// report the replay bookkeeping time, not the original cost.
    pub skipped: bool,
}

/// An ordered collection of [`StageTrace`]s — the execution history of
/// one compile or run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Trace {
    stages: Vec<StageTrace>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Trace {
        Trace::default()
    }

    /// Appends a stage record.
    pub fn record(&mut self, stage: StageTrace) {
        self.stages.push(stage);
    }

    /// The recorded stages, in execution order.
    pub fn stages(&self) -> &[StageTrace] {
        &self.stages
    }

    /// The first stage with the given name, if it ran.
    ///
    /// Repeated stages (several runs merged into one trace) hide behind the first entry here; use
    /// [`Trace::all`] or [`Trace::total_for`] when a name can repeat.
    pub fn get(&self, name: &str) -> Option<&StageTrace> {
        self.stages.iter().find(|s| s.name == name)
    }

    /// Every stage with the given name, in execution order.
    pub fn all<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a StageTrace> {
        self.stages.iter().filter(move |s| s.name == name)
    }

    /// Total wall-clock across every stage with the given name
    /// (`Duration::ZERO` if none ran).
    pub fn total_for(&self, name: &str) -> Duration {
        self.all(name).map(|s| s.duration).sum()
    }

    /// Total wall-clock across all recorded stages.
    pub fn total_duration(&self) -> Duration {
        self.stages.iter().map(|s| s.duration).sum()
    }

    /// Number of recorded stages.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }
}

impl fmt::Display for Trace {
    /// Renders an aligned table: stage, time, sizes, retries.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name_width = self
            .stages
            .iter()
            .map(|s| s.name.len())
            .max()
            .unwrap_or(5)
            .max(5);
        // Allocation columns only appear when a counting allocator fed
        // them — the default build's table is unchanged. Likewise the
        // cached column only appears when the incremental compiler
        // actually skipped something.
        let show_alloc = self.stages.iter().any(|s| s.alloc_bytes > 0);
        let show_skip = self.stages.iter().any(|s| s.skipped);
        write!(
            f,
            "{:<name_width$}  {:>10}  {:>9}  {:>9}  {:>7}",
            "stage", "time", "in", "out", "retries"
        )?;
        if show_alloc {
            write!(f, "  {:>12}  {:>12}", "alloc", "peak+")?;
        }
        if show_skip {
            write!(f, "  {:>6}", "cached")?;
        }
        writeln!(f)?;
        for s in &self.stages {
            write!(
                f,
                "{:<name_width$}  {:>8.1}µs  {:>9}  {:>9}  {:>7}",
                s.name,
                s.duration.as_secs_f64() * 1e6,
                s.input_size,
                s.output_size,
                s.retries
            )?;
            if show_alloc {
                write!(f, "  {:>12}  {:>12}", s.alloc_bytes, s.alloc_peak_bytes)?;
            }
            if show_skip {
                write!(f, "  {:>6}", if s.skipped { "yes" } else { "" })?;
            }
            writeln!(f)?;
        }
        write!(
            f,
            "{:<name_width$}  {:>8.1}µs",
            "total",
            self.total_duration().as_secs_f64() * 1e6
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stage(name: &str, us: u64) -> StageTrace {
        StageTrace {
            name: name.to_string(),
            duration: Duration::from_micros(us),
            input_size: 10,
            output_size: 20,
            retries: 0,
            alloc_bytes: 0,
            alloc_peak_bytes: 0,
            skipped: false,
        }
    }

    #[test]
    fn records_in_order_and_sums_time() {
        let mut trace = Trace::new();
        assert!(trace.is_empty());
        trace.record(stage("unroll", 5));
        trace.record(stage("optimize", 7));
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.stages()[0].name, "unroll");
        assert_eq!(
            trace.get("optimize").unwrap().duration,
            Duration::from_micros(7)
        );
        assert!(trace.get("missing").is_none());
        assert_eq!(trace.total_duration(), Duration::from_micros(12));
    }

    #[test]
    fn all_and_total_for_see_repeated_stages() {
        // `get` only ever returns the first entry with a name — traces
        // merged from several runs repeat `sample:*`, so repeated names
        // are the norm.
        let mut trace = Trace::new();
        trace.record(stage("sample:embed", 5));
        trace.record(stage("sample:anneal", 2));
        trace.record(stage("sample:embed", 7));
        trace.record(stage("sample:embed", 11));
        assert_eq!(
            trace.get("sample:embed").unwrap().duration,
            Duration::from_micros(5),
            "get returns the first entry only"
        );
        let all: Vec<u64> = trace
            .all("sample:embed")
            .map(|s| s.duration.as_micros() as u64)
            .collect();
        assert_eq!(all, [5, 7, 11], "all returns every entry in order");
        assert_eq!(trace.total_for("sample:embed"), Duration::from_micros(23));
        assert_eq!(trace.total_for("sample:anneal"), Duration::from_micros(2));
        assert_eq!(trace.total_for("missing"), Duration::ZERO);
        assert_eq!(trace.all("missing").count(), 0);
    }

    #[test]
    fn display_is_a_table_with_all_stages() {
        let mut trace = Trace::new();
        trace.record(stage("edif-write", 3));
        trace.record(stage("assemble", 4));
        let text = trace.to_string();
        assert!(text.contains("edif-write"));
        assert!(text.contains("assemble"));
        assert!(text.lines().count() >= 4, "header + 2 stages + total");
        assert!(text.lines().last().unwrap().starts_with("total"));
    }

    #[test]
    fn cached_column_appears_only_when_a_stage_was_skipped() {
        let mut plain = Trace::new();
        plain.record(stage("assemble", 4));
        assert!(!plain.to_string().contains("cached"));
        let mut warm = Trace::new();
        warm.record(StageTrace {
            skipped: true,
            ..stage("assemble", 0)
        });
        warm.record(stage("analyze", 3));
        let text = warm.to_string();
        assert!(text.contains("cached"));
        let skipped_row = text.lines().find(|l| l.starts_with("assemble")).unwrap();
        assert!(skipped_row.trim_end().ends_with("yes"));
    }

    #[test]
    fn alloc_columns_appear_only_when_an_allocator_fed_them() {
        // Default build: no counting allocator, no alloc columns — the
        // table must be byte-identical to the pre-allocator format.
        let mut plain = Trace::new();
        plain.record(stage("assemble", 4));
        assert!(!plain.to_string().contains("alloc"));
        // With data the columns appear, on every row.
        let mut fed = Trace::new();
        fed.record(StageTrace {
            alloc_bytes: 4096,
            alloc_peak_bytes: 1024,
            ..stage("assemble", 4)
        });
        fed.record(stage("edif-write", 3));
        let text = fed.to_string();
        assert!(text.contains("alloc") && text.contains("peak+"));
        assert!(text.contains("4096") && text.contains("1024"));
    }
}
