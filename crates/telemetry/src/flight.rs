//! The flight recorder: an always-on bounded ring of structured events.
//!
//! Spans and metrics answer "where does time go" for a run someone chose
//! to instrument; the flight recorder answers "what just happened" for a
//! run nobody expected to go wrong. It is **on by default** and cheap
//! enough to stay on: recording an event is one atomic `fetch_add` to
//! reserve a slot (wait-free — writers never contend on a shared lock)
//! plus a store under that slot's own short-lived guard, and the ring is
//! bounded, so a service that runs for a month holds exactly the last
//! `capacity` events, not a month of logs.
//!
//! Every event carries a **trace id** — a job-scoped correlation key set
//! with [`TraceScope`] where a job starts and propagated explicitly
//! across thread spawns (the packed samplers' worker threads). When a
//! job fails or misbehaves, [`FlightRecorder::dump_jsonl`] extracts that
//! job's events from the ring as JSONL for post-mortem analysis, without
//! re-running anything.
//!
//! # Example
//!
//! ```
//! use qac_telemetry::flight::{FlightKind, FlightRecorder, TraceId, TraceScope};
//!
//! let flight = FlightRecorder::with_capacity(64);
//! let trace = TraceId::fresh();
//! {
//!     let _scope = TraceScope::enter(trace);
//!     flight.record(FlightKind::StageBegin, "optimize", 0.0);
//!     flight.record(FlightKind::StageEnd, "optimize", 12.5);
//! }
//! let events = flight.events_for(trace);
//! assert_eq!(events.len(), 2);
//! assert!(flight.dump_jsonl(trace).contains(&trace.to_string()));
//! ```

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::json::Json;

/// A job-scoped correlation id. `0` means "no trace" (events recorded
/// outside any scope); fresh ids are never zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TraceId(pub u64);

impl TraceId {
    /// A process-unique, non-zero trace id (a splitmix64-mixed counter,
    /// so consecutive ids do not share low bits).
    pub fn fresh() -> TraceId {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        let raw = NEXT.fetch_add(1, Ordering::Relaxed);
        // splitmix64 finalizer; bijective, so distinct counters give
        // distinct ids and 0 maps to a non-zero output for raw >= 1.
        let mut z = raw.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        TraceId(z.max(1))
    }

    /// Whether this is the "no trace" sentinel.
    pub fn is_none(&self) -> bool {
        self.0 == 0
    }
}

impl std::fmt::Display for TraceId {
    /// Renders as a fixed-width hex token (`trace-0123456789abcdef`), the
    /// form the JSONL dump uses — u64 ids exceed the exact range of the
    /// JSON number type, so they travel as strings.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace-{:016x}", self.0)
    }
}

/// What happened: pipeline stage boundaries, embedding-cache traffic,
/// sampler progress, and failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightKind {
    /// A pipeline stage started (`name` = stage name).
    StageBegin,
    /// A pipeline stage finished (`value` = duration in µs).
    StageEnd,
    /// The incremental compiler skipped a stage and replayed its cached
    /// artifact (`name` = stage name, `value` = artifact size).
    StageSkip,
    /// The embedding cache answered a lookup (`name` = topology family
    /// or `"embed"`).
    CacheHit,
    /// The embedding cache had to route (`name` as for `CacheHit`).
    CacheMiss,
    /// A sampler passed a progress milestone (`value` = reads done).
    SamplerMilestone,
    /// A stage or a certificate check failed (`name` = what failed).
    JobFailed,
}

impl FlightKind {
    /// The stable snake_case token exported to JSONL.
    pub fn as_str(&self) -> &'static str {
        match self {
            FlightKind::StageBegin => "stage_begin",
            FlightKind::StageEnd => "stage_end",
            FlightKind::StageSkip => "stage_skip",
            FlightKind::CacheHit => "cache_hit",
            FlightKind::CacheMiss => "cache_miss",
            FlightKind::SamplerMilestone => "sampler_milestone",
            FlightKind::JobFailed => "job_failed",
        }
    }
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightEvent {
    /// Global sequence number (monotone; total order of all events).
    pub seq: u64,
    /// Microseconds since the recorder's epoch.
    pub at_us: f64,
    /// The trace scope the event was recorded under (0 = none).
    pub trace: TraceId,
    /// Event kind.
    pub kind: FlightKind,
    /// Subject — stage name, topology family, job label.
    pub name: String,
    /// Kind-specific payload (duration µs, artifact size, reads).
    pub value: f64,
}

impl FlightEvent {
    /// The JSONL form: `{"type":"flight","seq":…,"trace":"trace-…",…}`.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("type".to_string(), Json::Str("flight".to_string())),
            ("seq".to_string(), Json::Num(self.seq as f64)),
            ("at_us".to_string(), Json::Num(self.at_us)),
            ("trace".to_string(), Json::Str(self.trace.to_string())),
            (
                "kind".to_string(),
                Json::Str(self.kind.as_str().to_string()),
            ),
            ("name".to_string(), Json::Str(self.name.clone())),
            ("value".to_string(), Json::Num(self.value)),
        ])
    }
}

thread_local! {
    /// The trace id events on this thread are tagged with.
    static CURRENT_TRACE: Cell<u64> = const { Cell::new(0) };
}

/// The trace id currently in scope on this thread (the "no trace"
/// sentinel outside any [`TraceScope`]). Capture it before spawning and
/// re-enter it inside the spawned closure to propagate across threads.
pub fn current_trace() -> TraceId {
    CURRENT_TRACE.with(|c| TraceId(c.get()))
}

/// RAII guard that sets the thread's current trace id and restores the
/// previous one on drop (scopes nest).
#[must_use = "the trace id is only in scope while the guard lives"]
#[derive(Debug)]
pub struct TraceScope {
    prev: u64,
}

impl TraceScope {
    /// Enters `trace` on this thread.
    pub fn enter(trace: TraceId) -> TraceScope {
        let prev = CURRENT_TRACE.with(|c| c.replace(trace.0));
        TraceScope { prev }
    }
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        CURRENT_TRACE.with(|c| c.set(self.prev));
    }
}

/// A bounded ring of [`FlightEvent`]s.
///
/// Writers reserve a slot with one wait-free `fetch_add` on the global
/// cursor and publish under that slot's own mutex — two writers only
/// ever contend when the ring has wrapped far enough for them to land on
/// the same slot, and the critical section is a short copy. Readers
/// lock slots one at a time, so a dump never stalls the writers for more
/// than one slot.
pub struct FlightRecorder {
    enabled: AtomicBool,
    epoch: Instant,
    cursor: AtomicU64,
    slots: Box<[Mutex<Option<FlightEvent>>]>,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("enabled", &self.is_enabled())
            .field("capacity", &self.slots.len())
            .field("recorded", &self.cursor.load(Ordering::Relaxed))
            .finish()
    }
}

/// Default ring capacity: enough for several jobs' worth of stage,
/// cache, and sampler events without ever exceeding ~1 MB resident.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 4096;

impl Default for FlightRecorder {
    fn default() -> FlightRecorder {
        FlightRecorder::with_capacity(DEFAULT_FLIGHT_CAPACITY)
    }
}

impl FlightRecorder {
    /// An enabled recorder holding the last `capacity` events
    /// (`capacity` is clamped to at least 1).
    pub fn with_capacity(capacity: usize) -> FlightRecorder {
        let capacity = capacity.max(1);
        FlightRecorder {
            enabled: AtomicBool::new(true),
            epoch: Instant::now(),
            cursor: AtomicU64::new(0),
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
        }
    }

    /// Whether recording is on (it is, unless [`FlightRecorder::disable`]
    /// was called — the flight recorder is always-on by design).
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording off (for paired overhead benchmarks).
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Relaxed);
    }

    /// Turns recording back on.
    pub fn enable(&self) {
        self.enabled.store(true, Ordering::Relaxed);
    }

    /// Records an event under the thread's current trace scope.
    pub fn record(&self, kind: FlightKind, name: &str, value: f64) {
        self.record_for(current_trace(), kind, name, value);
    }

    /// Records an event under an explicit trace id (for threads that
    /// have not entered a [`TraceScope`], e.g. a sampler's workers).
    pub fn record_for(&self, trace: TraceId, kind: FlightKind, name: &str, value: f64) {
        if !self.is_enabled() {
            return;
        }
        let seq = self.cursor.fetch_add(1, Ordering::Relaxed);
        let at_us = self.epoch.elapsed().as_secs_f64() * 1e6;
        let slot = (seq % self.slots.len() as u64) as usize;
        // Last-writer-wins on wraparound: a newer event may already sit
        // here if the ring lapped us between reserve and publish; keep
        // whichever has the larger seq so the ring converges on the
        // newest events.
        let mut guard = self.slots[slot].lock().unwrap_or_else(|p| p.into_inner());
        if guard.as_ref().is_some_and(|held| held.seq > seq) {
            return;
        }
        // Reuse the evicted event's name buffer: a wrapped ring then
        // records without allocating, so a long run's heap is not
        // fragmented by a stream of short-lived names.
        let mut buffer = guard.take().map(|held| held.name).unwrap_or_default();
        buffer.clear();
        buffer.push_str(name);
        *guard = Some(FlightEvent {
            seq,
            at_us,
            trace,
            kind,
            name: buffer,
            value,
        });
    }

    /// Every resident event, oldest first.
    pub fn events(&self) -> Vec<FlightEvent> {
        let mut out: Vec<FlightEvent> = self
            .slots
            .iter()
            .filter_map(|slot| slot.lock().unwrap_or_else(|p| p.into_inner()).clone())
            .collect();
        out.sort_by_key(|e| e.seq);
        out
    }

    /// The resident events recorded under `trace`, oldest first — the
    /// job's last-N window for post-mortems.
    pub fn events_for(&self, trace: TraceId) -> Vec<FlightEvent> {
        let mut out: Vec<FlightEvent> = self
            .slots
            .iter()
            .filter_map(|slot| slot.lock().unwrap_or_else(|p| p.into_inner()).clone())
            .filter(|e| e.trace == trace)
            .collect();
        out.sort_by_key(|e| e.seq);
        out
    }

    /// Renders [`FlightRecorder::events_for`] as JSONL — one
    /// self-describing `{"type":"flight",…}` object per line, the same
    /// event grammar `telemetry_check` validates.
    pub fn dump_jsonl(&self, trace: TraceId) -> String {
        let mut out = String::new();
        for event in self.events_for(trace) {
            out.push_str(&event.to_json().to_string());
            out.push('\n');
        }
        out
    }

    /// Drops every resident event (the cursor and enablement are kept).
    pub fn clear(&self) {
        for slot in self.slots.iter() {
            *slot.lock().unwrap_or_else(|p| p.into_inner()) = None;
        }
    }
}

/// The process-wide flight recorder the pipeline, cache, and samplers
/// all record into. Enabled from the first call on.
///
/// The ring holds [`DEFAULT_FLIGHT_CAPACITY`] events unless the
/// `QAC_FLIGHT_CAPACITY` environment variable names a different size at
/// the moment of first use (retry-heavy post-mortems can need a deeper
/// ring than the default; 0 or garbage falls back to the default).
pub fn global_flight() -> &'static FlightRecorder {
    static GLOBAL: OnceLock<FlightRecorder> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let capacity = std::env::var("QAC_FLIGHT_CAPACITY")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&c| c > 0)
            .unwrap_or(DEFAULT_FLIGHT_CAPACITY);
        FlightRecorder::with_capacity(capacity)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_trace_ids_are_unique_and_nonzero() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..4096 {
            let id = TraceId::fresh();
            assert!(!id.is_none());
            assert!(seen.insert(id), "duplicate trace id {id}");
        }
    }

    #[test]
    fn scopes_nest_and_restore() {
        assert!(current_trace().is_none());
        let outer = TraceId::fresh();
        let inner = TraceId::fresh();
        {
            let _a = TraceScope::enter(outer);
            assert_eq!(current_trace(), outer);
            {
                let _b = TraceScope::enter(inner);
                assert_eq!(current_trace(), inner);
            }
            assert_eq!(current_trace(), outer);
        }
        assert!(current_trace().is_none());
    }

    #[test]
    fn events_are_tagged_with_the_scope_and_filterable() {
        let flight = FlightRecorder::with_capacity(16);
        let a = TraceId::fresh();
        let b = TraceId::fresh();
        {
            let _s = TraceScope::enter(a);
            flight.record(FlightKind::StageBegin, "optimize", 0.0);
            flight.record(FlightKind::CacheMiss, "chimera", 0.0);
        }
        {
            let _s = TraceScope::enter(b);
            flight.record(FlightKind::StageBegin, "optimize", 0.0);
        }
        flight.record(FlightKind::CacheHit, "untagged", 0.0);
        assert_eq!(flight.events().len(), 4);
        assert_eq!(flight.events_for(a).len(), 2);
        assert_eq!(flight.events_for(b).len(), 1);
        assert_eq!(flight.events_for(TraceId(0)).len(), 1);
        let kinds: Vec<_> = flight.events_for(a).iter().map(|e| e.kind).collect();
        assert_eq!(kinds, [FlightKind::StageBegin, FlightKind::CacheMiss]);
    }

    #[test]
    fn ring_keeps_only_the_newest_events() {
        let flight = FlightRecorder::with_capacity(4);
        let trace = TraceId::fresh();
        let _s = TraceScope::enter(trace);
        // Names of two lengths, so evicting a slot in place must replace
        // a long name with a short one and back.
        let names = ["sample:unembed", "sa"];
        for i in 0..10 {
            flight.record(FlightKind::SamplerMilestone, names[i % 2], i as f64);
        }
        let events = flight.events_for(trace);
        assert_eq!(events.len(), 4, "ring holds exactly its capacity");
        let values: Vec<f64> = events.iter().map(|e| e.value).collect();
        assert_eq!(values, [6.0, 7.0, 8.0, 9.0], "oldest evicted first");
        let resident: Vec<&str> = events.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(resident, [names[0], names[1], names[0], names[1]]);
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, [6, 7, 8, 9], "all ten events were sequenced");
    }

    #[test]
    fn dump_jsonl_lines_parse_and_carry_the_trace_token() {
        let flight = FlightRecorder::with_capacity(8);
        let trace = TraceId::fresh();
        {
            let _s = TraceScope::enter(trace);
            flight.record(FlightKind::StageEnd, "assemble", 42.0);
            flight.record(FlightKind::JobFailed, "assemble", 0.0);
        }
        let dump = flight.dump_jsonl(trace);
        assert_eq!(dump.lines().count(), 2);
        for line in dump.lines() {
            let value = crate::json::parse(line).expect("dump line parses");
            assert_eq!(value.get("type").unwrap().as_str(), Some("flight"));
            assert_eq!(
                value.get("trace").unwrap().as_str(),
                Some(trace.to_string().as_str())
            );
        }
        assert!(dump.contains("\"job_failed\""));
        assert!(dump.contains("\"stage_end\""));
    }

    #[test]
    fn disabled_recorder_drops_events() {
        let flight = FlightRecorder::with_capacity(4);
        flight.disable();
        flight.record(FlightKind::StageBegin, "s", 0.0);
        assert!(flight.events().is_empty());
        flight.enable();
        flight.record(FlightKind::StageBegin, "s", 0.0);
        let events = flight.events();
        assert_eq!(events.len(), 1);
        assert_eq!(
            events[0].seq, 0,
            "the dropped event took no sequence number"
        );
    }

    #[test]
    fn wraparound_under_eight_thread_hammering_loses_no_slots() {
        // The satellite's ring-buffer stress test: 8 threads × 4 000
        // events through a 64-slot ring. Afterwards the ring must hold
        // exactly `capacity` events, all distinct sequence numbers, every
        // one from the newest half of the stream — wraparound may race
        // (reserve and publish are two steps) but must never resurrect
        // old events over newer ones or tear a slot.
        let capacity = 64usize;
        let flight = FlightRecorder::with_capacity(capacity);
        let threads = 8usize;
        let per_thread = 4000usize;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let flight = &flight;
                scope.spawn(move || {
                    let trace = TraceId::fresh();
                    let _s = TraceScope::enter(trace);
                    for i in 0..per_thread {
                        flight.record(
                            FlightKind::SamplerMilestone,
                            "hammer",
                            (t * per_thread + i) as f64,
                        );
                    }
                });
            }
        });
        let total = (threads * per_thread) as u64;
        let events = flight.events();
        assert_eq!(events.len(), capacity, "ring stays full");
        let mut seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        // The newest reservation is resident (no older writer overwrites
        // a newer event), so its seq shows every reserve was counted.
        assert_eq!(seqs.last(), Some(&(total - 1)), "every reserve counted");
        seqs.dedup();
        assert_eq!(seqs.len(), capacity, "no duplicated slots");
        // Every resident event is from the most recent `2 × capacity`
        // reservations: a slot can lag by at most one lap of the ring
        // (an in-flight writer that was lapped), never more.
        let horizon = total.saturating_sub(2 * capacity as u64);
        for event in &events {
            assert!(
                event.seq >= horizon,
                "slot held a stale event: seq {} < horizon {horizon}",
                event.seq
            );
        }
    }
}
