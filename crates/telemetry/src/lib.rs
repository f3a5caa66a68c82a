//! Observability for the QAC pipeline.
//!
//! Every pipeline stage and hardware-model phase is recorded once, by
//! [`Trace::try_stage`], and that one record has three views: the
//! always-on [`Trace`] table that rides on compile and run results, the
//! stage's span, and its flight events. Beyond "what executed" this
//! crate answers the deeper questions — *where* did time go across
//! nested sampler phases, how often do chains break, is the embedding
//! cache paying off — without a debugger:
//!
//! * [`trace`] — the per-stage [`StageTrace`] records and the one
//!   function that writes them;
//! * [`Recorder`] — hierarchical **spans** (compile → stage → sampler
//!   sub-phase) with parent/child IDs, recorded behind a
//!   Mutex; disabled by default, one relaxed atomic load on the hot path;
//! * [`Metrics`] — a registry of named **counters**, **gauges**, and
//!   fixed-bucket **histograms** (cache hits/misses, route iterations,
//!   reads, per-read energy and chain-break fraction, …);
//! * [`export`] — three render targets for one [`Snapshot`]: a JSONL
//!   event log, Chrome trace-event JSON (loadable in Perfetto /
//!   `chrome://tracing`), and Prometheus text exposition;
//! * [`quality`] — solution-quality math (time-to-solution estimates);
//! * [`flight`] — the always-on **flight recorder**: a bounded ring of
//!   structured events tagged with job-scoped trace ids, dumpable as
//!   JSONL for post-mortems without re-running;
//! * [`sketch`] — streaming, mergeable **quantile sketches** (p50 / p90
//!   / p99) alongside the fixed-bucket histograms.
//!
//! Instrumented code uses the process-wide [`global()`] recorder so no
//! API has to thread a handle through every layer; tests construct their
//! own [`Recorder`] instances.
//!
//! # Example
//!
//! ```
//! use qac_telemetry::Recorder;
//!
//! let recorder = Recorder::new();
//! recorder.enable();
//! {
//!     let _outer = recorder.span("compile");
//!     let _inner = recorder.span("optimize"); // child of "compile"
//!     recorder.counter_add("qac_reads_total", 100);
//! }
//! let snapshot = recorder.snapshot();
//! assert_eq!(snapshot.spans.len(), 2);
//! let jsonl = qac_telemetry::export::jsonl(&snapshot);
//! for line in jsonl.lines() {
//!     qac_telemetry::json::parse(line).expect("every line is valid JSON");
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod flight;
pub mod json;
pub mod metrics;
pub mod quality;
pub mod sketch;
mod span;
pub mod trace;

pub use export::Snapshot;
pub use flight::{
    current_trace, global_flight, FlightEvent, FlightKind, FlightRecorder, TraceId, TraceScope,
};
pub use metrics::{Histogram, Metrics, DEFAULT_ENERGY_BUCKETS, FRACTION_BUCKETS};
pub use sketch::QuantileSketch;
pub use span::{global, Recorder, SpanGuard, SpanRecord};
pub use trace::{StageTrace, Trace};
