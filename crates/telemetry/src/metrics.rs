//! The metrics registry: named counters, gauges, and fixed-bucket
//! histograms.
//!
//! Metric names follow Prometheus conventions (`snake_case`, counters end
//! in `_total`, units spelled out: `_us`, `_fraction`). A name may carry
//! a label set in curly braces —
//! `qac_route_iterations_total{topology="chimera"}` — which the Prometheus exporter passes through verbatim while emitting
//! `# HELP` / `# TYPE` once per base name.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};

use crate::sketch::QuantileSketch;

/// Default buckets for energy-valued histograms: symmetric around zero,
/// roughly geometric. Model energies vary per problem; these bound the
/// shape, not the precision.
pub const DEFAULT_ENERGY_BUCKETS: &[f64] = &[
    -256.0, -128.0, -64.0, -32.0, -16.0, -8.0, -4.0, -2.0, -1.0, 0.0, 1.0, 2.0, 4.0, 8.0, 16.0,
    32.0, 64.0, 128.0, 256.0,
];

/// Buckets for fraction-valued histograms (chain-break fraction, ground
/// fraction): dense near zero, where healthy runs live.
pub const FRACTION_BUCKETS: &[f64] = &[0.0, 0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.75, 1.0];

/// A fixed-bucket histogram (cumulative export, Prometheus-style).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Finite upper bounds, ascending; an implicit `+Inf` bucket follows.
    bounds: Vec<f64>,
    /// Per-bucket (non-cumulative) counts; `bounds.len() + 1` entries,
    /// the last being the `+Inf` overflow bucket.
    counts: Vec<u64>,
    sum: f64,
    count: u64,
}

impl Histogram {
    /// A histogram with the given upper bounds (sorted and deduplicated;
    /// non-finite bounds are dropped — `+Inf` is always implicit).
    pub fn new(bounds: &[f64]) -> Histogram {
        let mut bounds: Vec<f64> = bounds.iter().copied().filter(|b| b.is_finite()).collect();
        bounds.sort_by(|a, b| a.partial_cmp(b).expect("finite bounds compare"));
        bounds.dedup();
        let buckets = bounds.len() + 1;
        Histogram {
            bounds,
            counts: vec![0; buckets],
            sum: 0.0,
            count: 0,
        }
    }

    /// Records `n` observations of `value`.
    pub fn observe_n(&mut self, value: f64, n: u64) {
        let index = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[index] += n;
        self.sum += value * n as f64;
        self.count += n;
    }

    /// The finite upper bounds.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket counts (last entry = overflow past the largest bound).
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Cumulative counts, one per bound plus the final `+Inf` total.
    pub fn cumulative(&self) -> Vec<u64> {
        let mut running = 0u64;
        self.counts
            .iter()
            .map(|&c| {
                running += c;
                running
            })
            .collect()
    }

    /// Sum of all observed values (weighted by multiplicity).
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }
}

/// A point-in-time copy of every metric.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter name → value, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge name → value, sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// Histogram name → state, sorted by name.
    pub histograms: Vec<(String, Histogram)>,
    /// Quantile-sketch name → state, sorted by name.
    pub sketches: Vec<(String, QuantileSketch)>,
}

/// The registry. `Sync`; all methods take `&self`.
#[derive(Debug, Default)]
pub struct Metrics {
    counters: Mutex<BTreeMap<String, u64>>,
    gauges: Mutex<BTreeMap<String, f64>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
    sketches: Mutex<BTreeMap<String, QuantileSketch>>,
}

impl Metrics {
    /// An empty registry.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Adds `delta` to a (monotonic) counter, creating it at zero first.
    pub fn counter_add(&self, name: &str, delta: u64) {
        *lock(&self.counters).entry(name.to_string()).or_insert(0) += delta;
    }

    /// The current value of a counter (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        lock(&self.counters).get(name).copied().unwrap_or(0)
    }

    /// Sets a gauge to `value`.
    pub fn gauge_set(&self, name: &str, value: f64) {
        lock(&self.gauges).insert(name.to_string(), value);
    }

    /// The current value of a gauge.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        lock(&self.gauges).get(name).copied()
    }

    /// Registers a histogram with explicit bucket bounds. No-op if the
    /// name already exists (the first registration wins).
    pub fn register_histogram(&self, name: &str, bounds: &[f64]) {
        lock(&self.histograms)
            .entry(name.to_string())
            .or_insert_with(|| Histogram::new(bounds));
    }

    /// Records `n` observations of `value` into a histogram, registering
    /// it with [`DEFAULT_ENERGY_BUCKETS`] if it does not exist yet.
    pub fn observe_n(&self, name: &str, value: f64, n: u64) {
        lock(&self.histograms)
            .entry(name.to_string())
            .or_insert_with(|| Histogram::new(DEFAULT_ENERGY_BUCKETS))
            .observe_n(value, n);
    }

    /// A copy of a histogram's current state.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        lock(&self.histograms).get(name).cloned()
    }

    /// Records one observation into a streaming quantile sketch,
    /// creating it on first use. Unlike histograms, sketches need no
    /// bucket choice — any percentile is queryable afterwards.
    pub fn sketch_observe(&self, name: &str, value: f64) {
        lock(&self.sketches)
            .entry(name.to_string())
            .or_default()
            .observe(value);
    }

    /// A copy of a quantile sketch's current state.
    pub fn sketch(&self, name: &str) -> Option<QuantileSketch> {
        lock(&self.sketches).get(name).cloned()
    }

    /// A copy of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: lock(&self.counters)
                .iter()
                .map(|(k, &v)| (k.clone(), v))
                .collect(),
            gauges: lock(&self.gauges)
                .iter()
                .map(|(k, &v)| (k.clone(), v))
                .collect(),
            histograms: lock(&self.histograms)
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
            sketches: lock(&self.sketches)
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
        }
    }

    /// Drops every metric.
    pub fn clear(&self) {
        lock(&self.counters).clear();
        lock(&self.gauges).clear();
        lock(&self.histograms).clear();
        lock(&self.sketches).clear();
    }
}

/// The base metric name: everything before the label set, if any
/// (`a_total{arm="2"}` → `a_total`).
pub fn base_name(name: &str) -> &str {
    name.split('{').next().unwrap_or(name)
}

/// Escapes a label *value* for the Prometheus text format: backslash,
/// double-quote, and newline must be backslash-escaped inside the
/// quoted value.
pub fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Builds a labeled metric name — `base{k1="v1",k2="v2"}` — escaping
/// each value. With no labels, the base name alone. Every call site
/// that embeds caller-provided strings (topology families, workload
/// names, job labels) in a label goes through this so a value carrying
/// `"` or `\` cannot corrupt the exposition.
pub fn labeled(base: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return base.to_string();
    }
    let body: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect();
    format!("{base}{{{}}}", body.join(","))
}

/// Parses a (possibly labeled) metric name back into its base and
/// unescaped `(key, value)` pairs — the inverse of [`labeled`], used by
/// the exporter round-trip test and the baseline differ. Returns `None`
/// on malformed label syntax (unterminated quote, missing `=`, …).
pub fn parse_labels(name: &str) -> Option<(&str, Vec<(String, String)>)> {
    let Some(open) = name.find('{') else {
        return Some((name, Vec::new()));
    };
    let base = &name[..open];
    let rest = name[open + 1..].strip_suffix('}')?;
    let mut labels = Vec::new();
    let mut chars = rest.chars().peekable();
    loop {
        // key, up to '='
        let mut key = String::new();
        for c in chars.by_ref() {
            if c == '=' {
                break;
            }
            key.push(c);
        }
        if key.is_empty() {
            return None;
        }
        // opening quote
        if chars.next() != Some('"') {
            return None;
        }
        // value, unescaping, up to the closing quote
        let mut value = String::new();
        loop {
            match chars.next()? {
                '"' => break,
                '\\' => match chars.next()? {
                    'n' => value.push('\n'),
                    c => value.push(c),
                },
                c => value.push(c),
            }
        }
        labels.push((key, value));
        match chars.next() {
            None => return Some((base, labels)),
            Some(',') => continue,
            Some(_) => return None,
        }
    }
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    // Poisoning only signals a panic elsewhere; the maps stay consistent.
    mutex.lock().unwrap_or_else(|p| p.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_default_to_zero() {
        let m = Metrics::new();
        assert_eq!(m.counter("missing"), 0);
        m.counter_add("hits_total", 1);
        m.counter_add("hits_total", 2);
        assert_eq!(m.counter("hits_total"), 3);
    }

    #[test]
    fn gauges_overwrite() {
        let m = Metrics::new();
        m.gauge_set("fraction", 0.25);
        m.gauge_set("fraction", 0.75);
        assert_eq!(m.gauge("fraction"), Some(0.75));
        assert_eq!(m.gauge("missing"), None);
    }

    #[test]
    fn histogram_buckets_boundaries_and_overflow() {
        let mut h = Histogram::new(&[1.0, 2.0, 4.0]);
        h.observe_n(0.5, 1); // ≤ 1
        h.observe_n(1.0, 1); // ≤ 1 (boundary is inclusive, le-style)
        h.observe_n(3.0, 2); // ≤ 4
        h.observe_n(100.0, 1); // +Inf overflow
        assert_eq!(h.bucket_counts(), &[2, 0, 2, 1]);
        assert_eq!(h.cumulative(), vec![2, 2, 4, 5]);
        assert_eq!(h.count(), 5);
        assert!((h.sum() - (0.5 + 1.0 + 6.0 + 100.0)).abs() < 1e-12);
    }

    #[test]
    fn histogram_bounds_are_sorted_deduplicated_and_finite() {
        let h = Histogram::new(&[4.0, 1.0, f64::INFINITY, 1.0, 2.0]);
        assert_eq!(h.bounds(), &[1.0, 2.0, 4.0]);
        assert_eq!(h.bucket_counts().len(), 4);
    }

    #[test]
    fn first_histogram_registration_wins() {
        let m = Metrics::new();
        m.register_histogram("h", &[1.0]);
        m.register_histogram("h", &[5.0, 6.0]);
        assert_eq!(m.histogram("h").unwrap().bounds(), &[1.0]);
        // Unregistered names fall back to the default energy buckets.
        m.observe_n("auto", 0.0, 1);
        assert_eq!(
            m.histogram("auto").unwrap().bounds(),
            DEFAULT_ENERGY_BUCKETS
        );
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let m = Metrics::new();
        m.counter_add("b_total", 1);
        m.counter_add("a_total", 1);
        m.gauge_set("g", 1.0);
        m.observe_n("h", 2.0, 3);
        let s = m.snapshot();
        assert_eq!(s.counters[0].0, "a_total");
        assert_eq!(s.counters[1].0, "b_total");
        assert_eq!(s.gauges.len(), 1);
        assert_eq!(s.histograms[0].1.count(), 3);
        m.clear();
        assert_eq!(m.snapshot(), MetricsSnapshot::default());
    }

    #[test]
    fn base_name_strips_labels() {
        assert_eq!(base_name("a_total"), "a_total");
        assert_eq!(base_name("a_total{arm=\"2\"}"), "a_total");
    }

    #[test]
    fn sketches_register_and_snapshot() {
        let m = Metrics::new();
        assert_eq!(m.sketch("missing"), None);
        for i in 0..100 {
            m.sketch_observe("wait_us", i as f64);
        }
        let sketch = m.sketch("wait_us").unwrap();
        assert_eq!(sketch.count(), 100);
        assert_eq!(sketch.max(), Some(99.0));
        let s = m.snapshot();
        assert_eq!(s.sketches.len(), 1);
        assert_eq!(s.sketches[0].0, "wait_us");
        m.clear();
        assert_eq!(m.sketch("wait_us"), None);
    }

    #[test]
    fn labeled_names_escape_and_round_trip() {
        assert_eq!(labeled("a_total", &[]), "a_total");
        assert_eq!(
            labeled("a_total", &[("arm", "2"), ("kind", "sa")]),
            "a_total{arm=\"2\",kind=\"sa\"}"
        );
        // Hostile label values survive a build → parse round trip.
        for hostile in ["plain", "with\"quote", "back\\slash", "a\nnewline", "\\\""] {
            let name = labeled("qac_x_total", &[("label", hostile)]);
            let (base, labels) = parse_labels(&name).expect("escaped names parse");
            assert_eq!(base, "qac_x_total");
            assert_eq!(labels, vec![("label".to_string(), hostile.to_string())]);
        }
    }

    #[test]
    fn parse_labels_rejects_malformed_sets() {
        assert_eq!(parse_labels("plain"), Some(("plain", Vec::new())));
        for bad in [
            "x{unterminated",
            "x{k=\"v\"",
            "x{k=v}",
            "x{=\"v\"}",
            "x{k=\"v\" j=\"w\"}",
            "x{k=\"unclosed}",
        ] {
            assert_eq!(parse_labels(bad), None, "should reject {bad:?}");
        }
    }
}
