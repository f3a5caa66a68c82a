//! `experiments report` — a post-hoc dashboard over exported telemetry.
//!
//! Reads the JSONL event log a run produced (`--trace-json`, optionally
//! with flight-recorder lines appended) and renders it as either an
//! aligned text dashboard or a standalone HTML page: top spans by
//! duration, counters, gauges, quantile summaries, and the flight
//! recorder's last events grouped by trace id. No re-run needed — this
//! is the "what happened" view over artifacts already on disk, the same
//! files CI archives.

use std::collections::BTreeMap;

use qac_telemetry::json::{parse, Json};

/// One span row from a `"type":"span"` line.
#[derive(Debug, Clone)]
pub struct SpanRow {
    /// Span name.
    pub name: String,
    /// Duration in microseconds.
    pub dur_us: f64,
    /// Start offset in microseconds.
    pub start_us: f64,
}

/// One quantile-summary row from a `"type":"quantile"` line.
#[derive(Debug, Clone)]
pub struct QuantileRow {
    /// Sketch name.
    pub name: String,
    /// Observation count.
    pub count: f64,
    /// p50 / p90 / p99 (absent when the sketch was empty).
    pub p50: Option<f64>,
    /// 90th percentile.
    pub p90: Option<f64>,
    /// 99th percentile.
    pub p99: Option<f64>,
}

/// One flight-recorder row from a `"type":"flight"` line.
#[derive(Debug, Clone)]
pub struct FlightRow {
    /// Ring sequence number.
    pub seq: f64,
    /// Microseconds since recorder start.
    pub at_us: f64,
    /// Trace id string (`trace-…`), empty when untagged.
    pub trace: String,
    /// Event kind (`stage_end`, `cache_hit`, …).
    pub kind: String,
    /// Event subject.
    pub name: String,
    /// Event payload value.
    pub value: f64,
}

/// Everything the dashboard shows, parsed out of one JSONL file.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Spans, as exported.
    pub spans: Vec<SpanRow>,
    /// Counter name → value.
    pub counters: Vec<(String, f64)>,
    /// Gauge name → value.
    pub gauges: Vec<(String, f64)>,
    /// Quantile summaries.
    pub quantiles: Vec<QuantileRow>,
    /// Flight events, in seq order.
    pub flights: Vec<FlightRow>,
    /// Lines that were valid JSON but an unknown event type.
    pub skipped: usize,
}

fn num(event: &Json, key: &str) -> f64 {
    event.get(key).and_then(|v| v.as_f64()).unwrap_or(0.0)
}

fn text(event: &Json, key: &str) -> String {
    event
        .get(key)
        .and_then(|v| v.as_str())
        .unwrap_or_default()
        .to_string()
}

/// Parses a telemetry JSONL export (span/counter/gauge/histogram/
/// quantile/flight lines) into a [`Report`]. Fails on the first line
/// that is not valid JSON or lacks the `type` discriminator; unknown
/// types are counted, not fatal, so the format can grow.
pub fn parse_jsonl(jsonl: &str) -> Result<Report, String> {
    let mut report = Report::default();
    for (i, line) in jsonl.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let event = parse(line).map_err(|err| format!("line {}: invalid JSON: {err}", i + 1))?;
        let kind = event
            .get("type")
            .and_then(|t| t.as_str())
            .ok_or_else(|| format!("line {}: event lacks a \"type\" discriminator", i + 1))?;
        match kind {
            "span" => report.spans.push(SpanRow {
                name: text(&event, "name"),
                dur_us: num(&event, "dur_us"),
                start_us: num(&event, "start_us"),
            }),
            "counter" => report
                .counters
                .push((text(&event, "name"), num(&event, "value"))),
            "gauge" => report
                .gauges
                .push((text(&event, "name"), num(&event, "value"))),
            "quantile" => {
                let pick = |key: &str| event.get(key).and_then(|v| v.as_f64());
                report.quantiles.push(QuantileRow {
                    name: text(&event, "name"),
                    count: num(&event, "count"),
                    p50: pick("p50"),
                    p90: pick("p90"),
                    p99: pick("p99"),
                });
            }
            "flight" => report.flights.push(FlightRow {
                seq: num(&event, "seq"),
                at_us: num(&event, "at_us"),
                trace: text(&event, "trace"),
                kind: text(&event, "kind"),
                name: text(&event, "name"),
                value: num(&event, "value"),
            }),
            // Histograms are already summarized by the quantile lines;
            // anything else is a future event type.
            _ => report.skipped += 1,
        }
    }
    report.flights.sort_by(|a, b| {
        a.seq
            .partial_cmp(&b.seq)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    Ok(report)
}

/// Top spans by total (summed) duration per name.
fn span_rollup(report: &Report) -> Vec<(String, usize, f64, f64)> {
    let mut by_name: BTreeMap<&str, (usize, f64, f64)> = BTreeMap::new();
    for span in &report.spans {
        let entry = by_name.entry(&span.name).or_insert((0, 0.0, 0.0));
        entry.0 += 1;
        entry.1 += span.dur_us;
        entry.2 = entry.2.max(span.dur_us);
    }
    let mut rows: Vec<(String, usize, f64, f64)> = by_name
        .into_iter()
        .map(|(name, (count, total, max))| (name.to_string(), count, total, max))
        .collect();
    rows.sort_by(|a, b| b.2.partial_cmp(&a.2).unwrap_or(std::cmp::Ordering::Equal));
    rows
}

/// Flight events grouped by trace id, each trace's events in seq order.
fn flight_by_trace(report: &Report) -> Vec<(String, Vec<&FlightRow>)> {
    let mut by_trace: BTreeMap<&str, Vec<&FlightRow>> = BTreeMap::new();
    for row in &report.flights {
        let key = if row.trace.is_empty() {
            "(untagged)"
        } else {
            &row.trace
        };
        by_trace.entry(key).or_default().push(row);
    }
    by_trace
        .into_iter()
        .map(|(trace, rows)| (trace.to_string(), rows))
        .collect()
}

const TOP_SPANS: usize = 20;

/// Renders the dashboard as plain text.
pub fn render_text(report: &Report) -> String {
    let mut out = String::new();
    out.push_str("== telemetry report ==\n");
    out.push_str(&format!(
        "{} spans, {} counters, {} gauges, {} quantile summaries, {} flight events\n",
        report.spans.len(),
        report.counters.len(),
        report.gauges.len(),
        report.quantiles.len(),
        report.flights.len()
    ));

    let rollup = span_rollup(report);
    if !rollup.is_empty() {
        out.push_str(&format!(
            "\n-- top spans by total time (showing {} of {}) --\n",
            rollup.len().min(TOP_SPANS),
            rollup.len()
        ));
        out.push_str(&format!(
            "{:<40} {:>6} {:>14} {:>14}\n",
            "span", "calls", "total_us", "max_us"
        ));
        for (name, count, total, max) in rollup.iter().take(TOP_SPANS) {
            out.push_str(&format!(
                "{name:<40} {count:>6} {total:>14.1} {max:>14.1}\n"
            ));
        }
    }

    if !report.quantiles.is_empty() {
        out.push_str("\n-- quantile summaries --\n");
        out.push_str(&format!(
            "{:<44} {:>8} {:>12} {:>12} {:>12}\n",
            "sketch", "count", "p50", "p90", "p99"
        ));
        let fmt = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.1}"));
        for q in &report.quantiles {
            out.push_str(&format!(
                "{:<44} {:>8} {:>12} {:>12} {:>12}\n",
                q.name,
                q.count,
                fmt(q.p50),
                fmt(q.p90),
                fmt(q.p99)
            ));
        }
    }

    if !report.counters.is_empty() {
        out.push_str("\n-- counters --\n");
        for (name, value) in &report.counters {
            out.push_str(&format!("{name:<64} {value}\n"));
        }
    }
    if !report.gauges.is_empty() {
        out.push_str("\n-- gauges --\n");
        for (name, value) in &report.gauges {
            out.push_str(&format!("{name:<64} {value:.3}\n"));
        }
    }

    let traces = flight_by_trace(report);
    if !traces.is_empty() {
        out.push_str("\n-- flight recorder (events by trace) --\n");
        for (trace, rows) in &traces {
            out.push_str(&format!("{trace}: {} events\n", rows.len()));
            for row in rows {
                out.push_str(&format!(
                    "  seq {:>6}  {:>12.1}us  {:<18} {:<24} {}\n",
                    row.seq, row.at_us, row.kind, row.name, row.value
                ));
            }
        }
    }
    if report.skipped > 0 {
        out.push_str(&format!(
            "\n({} events of unknown type skipped)\n",
            report.skipped
        ));
    }
    out
}

fn html_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

/// Renders the dashboard as a standalone HTML page (no external
/// assets, so the file is archivable as a single CI artifact).
pub fn render_html(report: &Report) -> String {
    let mut body = String::new();
    let table = |body: &mut String, title: &str, header: &[&str], rows: Vec<Vec<String>>| {
        if rows.is_empty() {
            return;
        }
        body.push_str(&format!("<h2>{}</h2>\n<table>\n<tr>", html_escape(title)));
        for h in header {
            body.push_str(&format!("<th>{}</th>", html_escape(h)));
        }
        body.push_str("</tr>\n");
        for row in rows {
            body.push_str("<tr>");
            for cell in row {
                body.push_str(&format!("<td>{}</td>", html_escape(&cell)));
            }
            body.push_str("</tr>\n");
        }
        body.push_str("</table>\n");
    };

    body.push_str(&format!(
        "<p>{} spans, {} counters, {} gauges, {} quantile summaries, {} flight events</p>\n",
        report.spans.len(),
        report.counters.len(),
        report.gauges.len(),
        report.quantiles.len(),
        report.flights.len()
    ));
    table(
        &mut body,
        "Top spans by total time",
        &["span", "calls", "total µs", "max µs"],
        span_rollup(report)
            .into_iter()
            .take(TOP_SPANS)
            .map(|(name, count, total, max)| {
                vec![
                    name,
                    count.to_string(),
                    format!("{total:.1}"),
                    format!("{max:.1}"),
                ]
            })
            .collect(),
    );
    let fmt = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.1}"));
    table(
        &mut body,
        "Quantile summaries",
        &["sketch", "count", "p50", "p90", "p99"],
        report
            .quantiles
            .iter()
            .map(|q| {
                vec![
                    q.name.clone(),
                    q.count.to_string(),
                    fmt(q.p50),
                    fmt(q.p90),
                    fmt(q.p99),
                ]
            })
            .collect(),
    );
    table(
        &mut body,
        "Counters",
        &["counter", "value"],
        report
            .counters
            .iter()
            .map(|(n, v)| vec![n.clone(), v.to_string()])
            .collect(),
    );
    table(
        &mut body,
        "Gauges",
        &["gauge", "value"],
        report
            .gauges
            .iter()
            .map(|(n, v)| vec![n.clone(), format!("{v:.3}")])
            .collect(),
    );
    table(
        &mut body,
        "Flight recorder",
        &["trace", "seq", "at µs", "kind", "name", "value"],
        flight_by_trace(report)
            .iter()
            .flat_map(|(trace, rows)| {
                rows.iter()
                    .map(|r| {
                        vec![
                            trace.clone(),
                            r.seq.to_string(),
                            format!("{:.1}", r.at_us),
                            r.kind.clone(),
                            r.name.clone(),
                            r.value.to_string(),
                        ]
                    })
                    .collect::<Vec<_>>()
            })
            .collect(),
    );
    format!(
        "<!doctype html>\n<html><head><meta charset=\"utf-8\">\n\
         <title>qac telemetry report</title>\n\
         <style>\n\
         body {{ font: 14px/1.4 system-ui, sans-serif; margin: 2em; }}\n\
         table {{ border-collapse: collapse; margin-bottom: 1.5em; }}\n\
         th, td {{ border: 1px solid #ccc; padding: 3px 9px; text-align: left; \
         font-variant-numeric: tabular-nums; }}\n\
         th {{ background: #f0f0f0; }}\n\
         </style></head><body>\n<h1>qac telemetry report</h1>\n{body}</body></html>\n"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = concat!(
        "{\"type\": \"span\", \"id\": 1, \"parent\": null, \"name\": \"compile\", ",
        "\"track\": 0, \"start_us\": 0, \"dur_us\": 120.5}\n",
        "{\"type\": \"span\", \"id\": 2, \"parent\": 1, \"name\": \"compile\", ",
        "\"track\": 0, \"start_us\": 130, \"dur_us\": 80}\n",
        "{\"type\": \"counter\", \"name\": \"qac_cache_hit_total\", \"value\": 3}\n",
        "{\"type\": \"gauge\", \"name\": \"qac_bench_incremental_speedup\", \"value\": 9}\n",
        "{\"type\": \"quantile\", \"name\": \"qac_read_energy_quantiles\", ",
        "\"count\": 40, \"sum\": 900, \"p50\": 10.5, \"p90\": 44, \"p99\": 80}\n",
        "{\"type\": \"flight\", \"seq\": 7, \"at_us\": 1500.5, ",
        "\"trace\": \"trace-00000000deadbeef\", \"kind\": \"cache_hit\", ",
        "\"name\": \"king\", \"value\": 1}\n",
        "{\"type\": \"flight\", \"seq\": 5, \"at_us\": 1200.0, ",
        "\"trace\": \"trace-00000000deadbeef\", \"kind\": \"stage_begin\", ",
        "\"name\": \"parse\", \"value\": 0}\n",
        "{\"type\": \"histogram\", \"name\": \"h\", \"bounds\": [], \"counts\": [], ",
        "\"sum\": 0, \"count\": 0}\n",
    );

    #[test]
    fn parses_every_event_type_and_sorts_flights() {
        let report = parse_jsonl(SAMPLE).unwrap();
        assert_eq!(report.spans.len(), 2);
        assert_eq!(
            report.counters,
            vec![("qac_cache_hit_total".to_string(), 3.0)]
        );
        assert_eq!(report.gauges.len(), 1);
        assert_eq!(report.quantiles.len(), 1);
        assert_eq!(report.flights.len(), 2);
        // Flight rows come back in seq order even when the file isn't.
        assert_eq!(report.flights[0].kind, "stage_begin");
        assert_eq!(report.flights[1].kind, "cache_hit");
        // Histogram is a known-but-unreported type here: folded into the
        // quantile view, not an error.
        assert_eq!(report.skipped, 1);
    }

    #[test]
    fn rejects_garbage_lines() {
        assert!(parse_jsonl("not json\n").is_err());
        assert!(parse_jsonl("{\"no_type\": 1}\n").is_err());
        assert!(parse_jsonl("").unwrap().spans.is_empty());
    }

    #[test]
    fn text_dashboard_shows_rollups_quantiles_and_traces() {
        let report = parse_jsonl(SAMPLE).unwrap();
        let text = render_text(&report);
        assert!(text.contains("top spans by total time"));
        assert!(text.contains("compile"));
        assert!(text.contains("200.5"), "summed span time:\n{text}");
        assert!(text.contains("qac_read_energy_quantiles"));
        assert!(text.contains("trace-00000000deadbeef: 2 events"));
        assert!(text.contains("cache_hit"));
    }

    #[test]
    fn html_dashboard_is_standalone_and_escaped() {
        let mut report = parse_jsonl(SAMPLE).unwrap();
        report.counters.push(("evil<script>".to_string(), 1.0));
        let html = render_html(&report);
        assert!(html.starts_with("<!doctype html>"));
        assert!(html.contains("qac telemetry report"));
        assert!(html.contains("evil&lt;script&gt;"));
        assert!(!html.contains("evil<script>"));
        assert!(html.contains("trace-00000000deadbeef"));
    }
}
