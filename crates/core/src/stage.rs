//! The stage abstraction the compile and run pipelines are built from.
//!
//! A [`Stage`] is one named transformation of a pipeline artifact; a
//! [`Session`] executes stages in sequence and records each through
//! [`Trace::try_stage`] — wall time, artifact sizes, retries, and the
//! stage's span and flight events. The drivers in `pipeline.rs` and
//! `run.rs` are plain sequences of `session.run(...)` calls, so what
//! executed (and what it cost) is always observable on the result.

use qac_telemetry::Trace;

use crate::CompileError;

/// One named pipeline transformation.
///
/// Stages that need context beyond the flowing artifact (source text,
/// libraries, options) carry it in their own fields — `Input` is only
/// the artifact handed over from the previous stage, and may be `()`
/// for stages that read everything from themselves.
pub trait Stage {
    /// The artifact the stage consumes.
    type Input;
    /// The artifact the stage produces.
    type Output;

    /// Stable stage name, e.g. `"edif-write"`.
    fn name(&self) -> &'static str;

    /// Performs the transformation.
    ///
    /// # Errors
    /// Any [`CompileError`] the transformation raises.
    fn run(&self, input: Self::Input) -> Result<Self::Output, CompileError>;

    /// Size of the input artifact in the stage's own units (0 when there
    /// is nothing meaningful to measure).
    fn input_size(&self, _input: &Self::Input) -> usize {
        0
    }

    /// Size of the output artifact in the stage's own units.
    fn output_size(&self, _output: &Self::Output) -> usize {
        0
    }

    /// Retries the stage needed, read off the finished output.
    fn retries(&self, _output: &Self::Output) -> usize {
        0
    }
}

/// Executes [`Stage`]s and accumulates their [`StageTrace`](qac_telemetry::StageTrace)s.
#[derive(Debug, Default)]
pub struct Session {
    trace: Trace,
}

impl Session {
    /// A session with an empty trace.
    pub fn new() -> Session {
        Session::default()
    }

    /// Runs one stage, timing it and recording its trace entry.
    ///
    /// # Errors
    /// Whatever the stage raises. A failed stage records nothing — the
    /// session's trace only ever describes completed work.
    pub fn run<S: Stage>(&mut self, stage: &S, input: S::Input) -> Result<S::Output, CompileError> {
        let input_size = stage.input_size(&input);
        self.trace.try_stage(
            stage.name(),
            input_size,
            || stage.run(input),
            |output| (stage.output_size(output), stage.retries(output)),
        )
    }

    /// Records a stage the incremental compiler skipped: the entry key
    /// matched the previous compile, so the cached artifact is replayed
    /// instead of re-running the stage (DESIGN.md §14). Emits a
    /// `stage_skip` flight event (tagged with the current trace id, if
    /// any) and bumps `qac_incr_stage_hit_total`.
    pub fn skip_named(&mut self, name: &str, output_size: usize) {
        self.trace.skip(name, output_size);
        qac_telemetry::global().counter_add("qac_incr_stage_hit_total", 1);
    }

    /// Appends records a sampler made of its own phases (the hardware
    /// model's `sample:*` entries), after the stage that ran it.
    pub fn append(&mut self, phases: &Trace) {
        self.trace.extend(phases.stages().iter().cloned());
    }

    /// Consumes the session, yielding the finished trace.
    pub fn finish(self) -> Trace {
        self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Doubler;
    impl Stage for Doubler {
        type Input = Vec<u32>;
        type Output = Vec<u32>;
        fn name(&self) -> &'static str {
            "double"
        }
        fn run(&self, input: Vec<u32>) -> Result<Vec<u32>, CompileError> {
            Ok(input.iter().flat_map(|&x| [x, x]).collect())
        }
        fn input_size(&self, input: &Vec<u32>) -> usize {
            input.len()
        }
        fn output_size(&self, output: &Vec<u32>) -> usize {
            output.len()
        }
    }

    struct Failing;
    impl Stage for Failing {
        type Input = ();
        type Output = ();
        fn name(&self) -> &'static str {
            "failing"
        }
        fn run(&self, (): ()) -> Result<(), CompileError> {
            Err(CompileError::Pipeline("boom".into()))
        }
    }

    #[test]
    fn session_times_and_measures_each_stage_and_skips_failed_ones() {
        let mut session = Session::new();
        let out = session.run(&Doubler, vec![1, 2, 3]).unwrap();
        assert!(session.run(&Failing, ()).is_err());
        let out = session.run(&Doubler, out).unwrap();
        assert_eq!(out.len(), 12);
        let trace = session.finish();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.stages()[0].input_size, 3);
        assert_eq!(trace.stages()[0].output_size, 6);
        assert_eq!(trace.stages()[1].input_size, 6);
        assert_eq!(trace.stages()[1].output_size, 12);
    }
}
