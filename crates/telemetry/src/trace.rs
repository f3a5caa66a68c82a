//! Per-stage records of the compile and run pipelines.
//!
//! Every stage — a compile stage, a run stage, or a phase of the
//! hardware model — leaves one [`StageTrace`] behind: what ran, how long
//! it took, how big its input and output artifacts were, and how often
//! it had to retry. [`Trace::try_stage`] is the one place a stage is
//! recorded, and it writes all three views of that record at once: the
//! [`StageTrace`] itself, the stage's span in the [`global()`] recorder
//! (with the record's sizes and retries as args), and the
//! `stage_begin` / `stage_end` events of the [`global_flight()`] ring.
//!
//! [`global()`]: crate::global
//! [`global_flight()`]: crate::global_flight

use std::convert::Infallible;
use std::fmt;
use std::time::{Duration, Instant};

use crate::flight::{global_flight, FlightKind};

/// The record one stage leaves behind.
///
/// Artifact sizes are in stage-specific units — bytes for text stages,
/// cells for netlist stages, statements for the QMASM parser, nonzero
/// terms for models, reads for sample sets, qubits for embeddings. The
/// point is comparing a stage against itself across runs, not stages
/// against each other.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageTrace {
    /// Stage name (e.g. `"edif-write"`; `"sample:embed"` for phases of
    /// the hardware model).
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
    /// Whether the stage was skipped by the incremental compiler and
    /// its cached artifact replayed. Skipped stages report zero time.
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

    /// Runs one stage and records it.
    ///
    /// Opens the `name` span, records a `stage_begin` flight event
    /// (value: `input_size`) and times `run`. On success it records
    /// `stage_end` (value: the duration in µs), reads the output size
    /// and retries off the output with `measure`, appends the
    /// [`StageTrace`] and copies its sizes and retries onto the span.
    ///
    /// # Errors
    /// Whatever `run` returns. A failed stage records a `job_failed`
    /// flight event and appends nothing — the trace only describes
    /// completed work, and a `stage_begin` with no matching `stage_end`
    /// marks the stage that died.
    pub fn try_stage<T, E>(
        &mut self,
        name: &str,
        input_size: usize,
        run: impl FnOnce() -> Result<T, E>,
        measure: impl FnOnce(&T) -> (usize, usize),
    ) -> Result<T, E> {
        let mut span = crate::global().span(name);
        let flight = global_flight();
        flight.record(FlightKind::StageBegin, name, input_size as f64);
        let start = Instant::now();
        let output = match run() {
            Ok(output) => output,
            Err(err) => {
                flight.record(FlightKind::JobFailed, name, 0.0);
                return Err(err);
            }
        };
        let duration = start.elapsed();
        flight.record(FlightKind::StageEnd, name, duration.as_secs_f64() * 1e6);
        let (output_size, retries) = measure(&output);
        let record = StageTrace {
            name: name.to_string(),
            duration,
            input_size,
            output_size,
            retries,
            skipped: false,
        };
        span.arg("input_size", record.input_size as f64);
        span.arg("output_size", record.output_size as f64);
        span.arg("retries", record.retries as f64);
        self.stages.push(record);
        Ok(output)
    }

    /// [`Trace::try_stage`] for a stage that cannot fail.
    pub fn stage<T>(
        &mut self,
        name: &str,
        input_size: usize,
        run: impl FnOnce() -> T,
        measure: impl FnOnce(&T) -> (usize, usize),
    ) -> T {
        let Ok(output) = self.try_stage(name, input_size, || Ok::<T, Infallible>(run()), measure);
        output
    }

    /// Records a stage the incremental compiler skipped because its
    /// cached artifact was replayed: a zero-time [`StageTrace`] with
    /// `skipped` set, and a `stage_skip` flight event (value:
    /// `output_size`).
    pub fn skip(&mut self, name: &str, output_size: usize) {
        global_flight().record(FlightKind::StageSkip, name, output_size as f64);
        self.stages.push(StageTrace {
            name: name.to_string(),
            duration: Duration::ZERO,
            input_size: 0,
            output_size,
            retries: 0,
            skipped: true,
        });
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

/// Appends records another trace already holds (merging several runs,
/// or a sampler's phases into the run that called it).
impl Extend<StageTrace> for Trace {
    fn extend<I: IntoIterator<Item = StageTrace>>(&mut self, records: I) {
        self.stages.extend(records);
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
        // The cached column only appears when the incremental compiler
        // actually skipped something.
        let show_skip = self.stages.iter().any(|s| s.skipped);
        write!(
            f,
            "{:<name_width$}  {:>10}  {:>9}  {:>9}  {:>7}",
            "stage", "time", "in", "out", "retries"
        )?;
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
            skipped: false,
        }
    }

    fn trace_of(stages: impl IntoIterator<Item = StageTrace>) -> Trace {
        let mut trace = Trace::new();
        trace.extend(stages);
        trace
    }

    #[test]
    fn records_in_order_and_sums_time() {
        assert!(Trace::new().is_empty());
        let trace = trace_of([stage("unroll", 5), stage("optimize", 7)]);
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
    fn try_stage_measures_each_stage_and_records_no_failed_one() {
        let double = |input: &[u32]| input.iter().flat_map(|&x| [x, x]).collect::<Vec<_>>();
        let mut trace = Trace::new();
        let input = vec![1, 2, 3];
        let out = trace.stage("double", input.len(), || double(&input), |o| (o.len(), 0));
        let failed = trace.try_stage("failing", 0, || Err::<(), _>("boom"), |_| (1, 1));
        assert_eq!(failed, Err("boom"));
        let out = trace
            .try_stage(
                "double",
                out.len(),
                || Ok::<_, ()>(double(&out)),
                |o| (o.len(), 2),
            )
            .unwrap();
        assert_eq!(out.len(), 12);
        let sizes: Vec<(&str, usize, usize, usize, bool)> = trace
            .stages()
            .iter()
            .map(|s| {
                (
                    s.name.as_str(),
                    s.input_size,
                    s.output_size,
                    s.retries,
                    s.skipped,
                )
            })
            .collect();
        assert_eq!(
            sizes,
            [("double", 3, 6, 0, false), ("double", 6, 12, 2, false)]
        );
    }

    #[test]
    fn all_and_total_for_see_repeated_stages() {
        // `get` only ever returns the first entry with a name — traces
        // merged from several runs repeat `sample:*`, so repeated names
        // are the norm.
        let trace = trace_of([
            stage("sample:embed", 5),
            stage("sample:anneal", 2),
            stage("sample:embed", 7),
            stage("sample:embed", 11),
        ]);
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
        let trace = trace_of([stage("edif-write", 3), stage("assemble", 4)]);
        let text = trace.to_string();
        assert!(text.contains("edif-write"));
        assert!(text.contains("assemble"));
        assert!(text.lines().count() >= 4, "header + 2 stages + total");
        assert!(text.lines().last().unwrap().starts_with("total"));
    }

    #[test]
    fn cached_column_appears_only_when_a_stage_was_skipped() {
        let plain = trace_of([stage("assemble", 4)]);
        assert!(!plain.to_string().contains("cached"));
        let mut warm = Trace::new();
        warm.skip("assemble", 7);
        warm.extend([stage("analyze", 3)]);
        assert!(warm.stages()[0].skipped);
        assert_eq!(warm.stages()[0].output_size, 7);
        let text = warm.to_string();
        assert!(text.contains("cached"));
        let skipped_row = text.lines().find(|l| l.starts_with("assemble")).unwrap();
        assert!(skipped_row.trim_end().ends_with("yes"));
    }
}
