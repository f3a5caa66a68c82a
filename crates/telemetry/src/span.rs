//! Hierarchical spans and the recorder they land in.
//!
//! A span is one timed region of execution with a parent: the span that
//! was open on the same thread when it began. Spans are opened as
//! RAII guards and recorded on drop, so the span tree always nests —
//! a child's interval lies within its parent's.
//!
//! Recording is **disabled by default**: an inert recorder costs one
//! relaxed atomic load per call and never allocates, which keeps the
//! instrumented compile path within noise of the uninstrumented one.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use crate::export::Snapshot;
use crate::metrics::Metrics;

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Unique id (1-based; 0 never occurs).
    pub id: u64,
    /// Id of the enclosing span, if any.
    pub parent: Option<u64>,
    /// Span name (e.g. `"compile"`, `"sample:embed"`, `"arm:2"`).
    pub name: String,
    /// Thread-track the span ran on (stable per thread; Chrome trace
    /// `tid`).
    pub track: u64,
    /// Start, µs since the recorder's epoch.
    pub start_us: f64,
    /// Duration in µs.
    pub dur_us: f64,
    /// Numeric attributes (artifact sizes, retries, …).
    pub args: Vec<(String, f64)>,
}

impl SpanRecord {
    /// End of the span, µs since the recorder's epoch.
    pub fn end_us(&self) -> f64 {
        self.start_us + self.dur_us
    }
}

thread_local! {
    /// Ids of the spans currently open on this thread, outermost first.
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// A stable per-thread track number (Chrome trace `tid`).
fn current_track() -> u64 {
    static NEXT_TRACK: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static TRACK: u64 = NEXT_TRACK.fetch_add(1, Ordering::Relaxed);
    }
    TRACK.with(|t| *t)
}

/// Collects spans and metrics. Cheap while disabled; `Sync`, so one
/// instance (usually [`global()`]) serves the whole process.
pub struct Recorder {
    enabled: AtomicBool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
    metrics: Metrics,
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder::new()
    }
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("enabled", &self.is_enabled())
            .field("spans", &self.lock_spans().len())
            .finish()
    }
}

impl Recorder {
    /// A disabled recorder with an empty span list and metric registry.
    pub fn new() -> Recorder {
        Recorder {
            enabled: AtomicBool::new(false),
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            metrics: Metrics::new(),
        }
    }

    /// Starts recording spans and metrics.
    pub fn enable(&self) {
        self.enabled.store(true, Ordering::Relaxed);
    }

    /// Stops recording (already-recorded data is kept).
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Relaxed);
    }

    /// Whether recording is on.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Drops all recorded spans and metrics (the enabled flag is kept).
    pub fn clear(&self) {
        self.lock_spans().clear();
        self.metrics.clear();
    }

    /// Opens a span as a child of the span currently open on this thread.
    ///
    /// Inert (no allocation, nothing recorded) while disabled.
    pub fn span(&self, name: &str) -> SpanGuard<'_> {
        if !self.is_enabled() {
            return SpanGuard::inert();
        }
        let parent = SPAN_STACK.with(|s| s.borrow().last().copied());
        self.open(name, parent)
    }

    fn open(&self, name: &str, parent: Option<u64>) -> SpanGuard<'_> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        SPAN_STACK.with(|s| s.borrow_mut().push(id));
        SpanGuard {
            recorder: Some(self),
            id,
            parent,
            name: name.to_string(),
            start: self.epoch.elapsed(),
            args: Vec::new(),
        }
    }

    /// All finished spans, in completion order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.lock_spans().clone()
    }

    /// The metric registry (always callable; pair writes with
    /// [`Recorder::is_enabled`] or use the gated convenience methods).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Adds to a counter (no-op while disabled).
    pub fn counter_add(&self, name: &str, delta: u64) {
        if self.is_enabled() {
            self.metrics.counter_add(name, delta);
        }
    }

    /// Sets a gauge (no-op while disabled).
    pub fn gauge_set(&self, name: &str, value: f64) {
        if self.is_enabled() {
            self.metrics.gauge_set(name, value);
        }
    }

    /// Records one histogram observation (no-op while disabled).
    pub fn observe(&self, name: &str, value: f64) {
        self.observe_n(name, value, 1);
    }

    /// Records `n` identical histogram observations (no-op while
    /// disabled).
    pub fn observe_n(&self, name: &str, value: f64, n: u64) {
        if self.is_enabled() {
            self.metrics.observe_n(name, value, n);
        }
    }

    /// Registers a histogram with explicit bucket bounds (no-op while
    /// disabled; observations of unregistered names fall back to
    /// [`crate::DEFAULT_ENERGY_BUCKETS`]).
    pub fn register_histogram(&self, name: &str, bounds: &[f64]) {
        if self.is_enabled() {
            self.metrics.register_histogram(name, bounds);
        }
    }

    /// Records one observation into a streaming quantile sketch (no-op
    /// while disabled).
    pub fn sketch_observe(&self, name: &str, value: f64) {
        if self.is_enabled() {
            self.metrics.sketch_observe(name, value);
        }
    }

    /// A consistent copy of everything recorded so far.
    pub fn snapshot(&self) -> Snapshot {
        let metrics = self.metrics.snapshot();
        Snapshot {
            spans: self.spans(),
            counters: metrics.counters,
            gauges: metrics.gauges,
            histograms: metrics.histograms,
            sketches: metrics.sketches,
        }
    }

    fn lock_spans(&self) -> MutexGuard<'_, Vec<SpanRecord>> {
        // A poisoned lock only means another thread panicked mid-push;
        // the vector itself is still consistent.
        self.spans.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// The process-wide recorder the instrumented pipeline reports into.
///
/// Disabled until something (the `experiments` CLI, a test) calls
/// `global().enable()`.
pub fn global() -> &'static Recorder {
    static GLOBAL: OnceLock<Recorder> = OnceLock::new();
    GLOBAL.get_or_init(Recorder::new)
}

/// An open span; records itself into the recorder when dropped.
#[must_use = "a span measures the region until the guard is dropped"]
pub struct SpanGuard<'a> {
    recorder: Option<&'a Recorder>,
    id: u64,
    parent: Option<u64>,
    name: String,
    start: Duration,
    args: Vec<(String, f64)>,
}

impl SpanGuard<'_> {
    fn inert() -> SpanGuard<'static> {
        SpanGuard {
            recorder: None,
            id: 0,
            parent: None,
            name: String::new(),
            start: Duration::ZERO,
            args: Vec::new(),
        }
    }

    /// Whether this guard will record anything.
    pub fn is_active(&self) -> bool {
        self.recorder.is_some()
    }

    /// Attaches a numeric attribute (artifact size, retry count, …).
    pub fn arg(&mut self, name: &str, value: f64) {
        if self.recorder.is_some() {
            self.args.push((name.to_string(), value));
        }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(recorder) = self.recorder else {
            return;
        };
        let end = recorder.epoch.elapsed();
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if let Some(pos) = stack.iter().rposition(|&id| id == self.id) {
                stack.remove(pos);
            }
        });
        recorder.lock_spans().push(SpanRecord {
            id: self.id,
            parent: self.parent,
            name: std::mem::take(&mut self.name),
            track: current_track(),
            start_us: self.start.as_secs_f64() * 1e6,
            dur_us: end.saturating_sub(self.start).as_secs_f64() * 1e6,
            args: std::mem::take(&mut self.args),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let recorder = Recorder::new();
        {
            let mut span = recorder.span("ignored");
            assert!(!span.is_active());
            span.arg("size", 1.0);
            recorder.counter_add("c", 1);
            recorder.gauge_set("g", 1.0);
            recorder.observe("h", 1.0);
        }
        let snapshot = recorder.snapshot();
        assert!(snapshot.spans.is_empty());
        assert!(snapshot.counters.is_empty());
        assert!(snapshot.gauges.is_empty());
        assert!(snapshot.histograms.is_empty());
    }

    #[test]
    fn spans_nest_on_one_thread() {
        let recorder = Recorder::new();
        recorder.enable();
        {
            let _outer = recorder.span("outer");
            {
                let mut inner = recorder.span("inner");
                inner.arg("size", 3.0);
            }
            let _sibling = recorder.span("sibling");
        }
        let spans = recorder.spans();
        // Completion order: inner, sibling, outer.
        assert_eq!(spans.len(), 3);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let sibling = spans.iter().find(|s| s.name == "sibling").unwrap();
        assert_eq!(outer.parent, None);
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(sibling.parent, Some(outer.id));
        assert_eq!(inner.args, vec![("size".to_string(), 3.0)]);
        // Child intervals lie within the parent's.
        for child in [inner, sibling] {
            assert!(child.start_us >= outer.start_us);
            assert!(child.end_us() <= outer.end_us() + 1e-9);
        }
    }

    #[test]
    fn clear_resets_spans_and_metrics_but_not_enablement() {
        let recorder = Recorder::new();
        recorder.enable();
        {
            let _span = recorder.span("s");
        }
        recorder.counter_add("c", 2);
        recorder.clear();
        assert!(recorder.is_enabled());
        let snapshot = recorder.snapshot();
        assert!(snapshot.spans.is_empty());
        assert!(snapshot.counters.is_empty());
    }

    #[test]
    fn metric_conveniences_are_gated_on_enablement() {
        let recorder = Recorder::new();
        recorder.enable();
        recorder.counter_add("c", 2);
        recorder.counter_add("c", 3);
        recorder.gauge_set("g", 0.5);
        recorder.observe_n("h", 1.0, 4);
        let snapshot = recorder.snapshot();
        assert_eq!(snapshot.counters, vec![("c".to_string(), 5)]);
        assert_eq!(snapshot.gauges, vec![("g".to_string(), 0.5)]);
        assert_eq!(snapshot.histograms.len(), 1);
        assert_eq!(snapshot.histograms[0].1.count(), 4);
    }
}
