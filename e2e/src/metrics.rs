//! Statistics, the per-layer metric table, and the `--compare` verdicts.

use std::collections::BTreeMap;

use qac_telemetry::json::{self, Json};

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

/// How a per-layer value is summarised over the traced jobs: times as
/// the median per job, counts as the mean per job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Agg {
    Median,
    Mean,
}

use Agg::{Mean, Median};

/// The end-to-end metrics `(name, unit)`, in report order.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("job_p50_ms", "ms"),
    ("job_tail_ms", "ms"),
    ("jobs_per_s", "1/s"),
    ("cold_compile_p50_ms", "ms"),
    ("tts99_ms", "ms"),
    ("valid_frac", "fraction"),
    ("solved_frac", "fraction"),
    ("qubits_mean", "qubits"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metric that is not a per-job summary: traced against
/// untraced `job_p50_ms`, reported after [`LAYERS`].
pub const TRACE_OVERHEAD: (&str, &str) = ("telemetry.trace_overhead_pct", "%");

/// Every per-job per-layer metric, in report order. A layer a workload
/// does not exercise reads 0 there.
pub const LAYERS: &[(&str, &str, Agg)] = &[
    ("e2e.job_ms", "ms", Median),
    ("e2e.compile_ms", "ms", Median),
    ("e2e.recompile_ms", "ms", Median),
    ("e2e.run_ms", "ms", Median),
    ("e2e.unattributed_ms", "ms", Median),
    ("verilog.parse_ms", "ms", Median),
    ("netlist.unroll_ms", "ms", Median),
    ("netlist.optimize_ms", "ms", Median),
    ("netlist.cells", "count", Mean),
    ("edif.write_ms", "ms", Median),
    ("edif.read_ms", "ms", Median),
    ("edif.bytes", "bytes", Mean),
    ("qmasm.gen_ms", "ms", Median),
    ("qmasm.parse_ms", "ms", Median),
    ("qmasm.assemble_ms", "ms", Median),
    ("qmasm.logical_vars", "count", Mean),
    ("qmasm.logical_terms", "count", Mean),
    ("analysis.analyze_ms", "ms", Median),
    ("analysis.diagnostics", "count", Mean),
    ("cert.certify_ms", "ms", Median),
    ("cert.verify_ms", "ms", Median),
    ("cert.obligations_proved", "count", Mean),
    ("cert.obligations_skipped", "count", Mean),
    ("core.recompile_stages_run", "count", Mean),
    ("core.recompile_stages_skipped", "count", Mean),
    ("core.pin_ms", "ms", Median),
    ("core.interpret_ms", "ms", Median),
    ("core.sample_self_ms", "ms", Median),
    ("pbf.scale_ms", "ms", Median),
    ("chimera.embed_ms", "ms", Median),
    ("chimera.heap_pops", "count", Mean),
    ("chimera.edge_relaxations", "count", Mean),
    ("chimera.weight_updates", "count", Mean),
    ("chimera.route_iterations", "count", Mean),
    ("chimera.restarts", "count", Mean),
    ("chimera.cache_hits", "count", Mean),
    ("chimera.cache_misses", "count", Mean),
    ("chimera.cache_hit_embed_ms", "ms", Median),
    ("chimera.physical_qubits", "qubits", Mean),
    ("chimera.physical_terms", "count", Mean),
    ("solvers.distort_ms", "ms", Median),
    ("solvers.anneal_ms", "ms", Median),
    ("solvers.anneal_us_per_read", "us", Median),
    ("solvers.active_qubit_frac", "fraction", Mean),
    ("solvers.unembed_ms", "ms", Median),
    ("solvers.chain_break_frac", "fraction", Mean),
    ("solvers.sample_ms", "ms", Median),
    ("solvers.reads_per_s", "1/s", Median),
    ("solvers.sweeps.sa", "count", Mean),
    ("solvers.flips.sa", "count", Mean),
];

/// The `p`-quantile by nearest rank (`p` in `(0, 1]`); NaN when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` (the
/// default "exclusive" method) computes them.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    if ld < 2 {
        return [data.first().copied().unwrap_or(f64::NAN); 3];
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// Summarises per-job layer values into the [`LAYERS`] metrics; a job
/// without a value for a layer counts as 0 there.
pub fn summarise_layers(jobs: &[BTreeMap<&'static str, f64>]) -> Vec<Metric> {
    LAYERS
        .iter()
        .map(|&(name, unit, agg)| {
            let values: Vec<f64> = jobs
                .iter()
                .map(|job| job.get(name).copied().unwrap_or(0.0))
                .collect();
            let value = match agg {
                Median => median(&values),
                Mean => mean(&values),
            };
            Metric::new(name, value, unit)
        })
        .collect()
}

/// The JSON result line of one run.
pub fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> Json {
    let metrics = metrics
        .iter()
        .map(|m| {
            let value = Json::Obj(vec![
                ("value".into(), Json::Num(m.value)),
                ("unit".into(), Json::Str(m.unit.into())),
            ]);
            (m.name.clone(), value)
        })
        .collect();
    Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Num(attempted as f64)),
        ("failed".into(), Json::Num(failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
}

/// An end-to-end metric's bound, as `BENCHMARK.json` fixes it.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

/// Reads the `end_to_end` bounds from a `BENCHMARK.json`.
pub fn read_bounds(text: &str) -> Result<Vec<Bound>, String> {
    let doc = json::parse(text)?;
    let list = doc
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("no end_to_end list")?;
    list.iter()
        .map(|entry| {
            let field = |key: &str| {
                entry
                    .get(key)
                    .ok_or(format!("end_to_end entry lacks {key}"))
            };
            Ok(Bound {
                name: field("name")?
                    .as_str()
                    .ok_or("name is not a string")?
                    .to_string(),
                higher_is_better: field("better")?.as_str() == Some("higher"),
                bound: field("bound")?.as_f64().ok_or("bound is not a number")?,
            })
        })
        .collect()
}

/// Metric values per workload, one entry per repeat, from a runs file
/// (`--out` lines). Traced runs are skipped: their metrics are per-layer.
pub fn read_runs(text: &str) -> Result<BTreeMap<String, BTreeMap<String, Vec<f64>>>, String> {
    let mut runs: BTreeMap<String, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let record = json::parse(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        if record.get("trace") == Some(&Json::Bool(true)) {
            continue;
        }
        let workload = record
            .get("workload")
            .and_then(Json::as_str)
            .ok_or(format!("line {}: no workload", n + 1))?;
        let Some(Json::Obj(metrics)) = record.get("result").and_then(|r| r.get("metrics")) else {
            return Err(format!("line {}: no result metrics", n + 1));
        };
        let slot = runs.entry(workload.to_string()).or_default();
        for (name, metric) in metrics {
            if let Some(value) = metric.get("value").and_then(Json::as_f64) {
                slot.entry(name.clone()).or_default().push(value);
            }
        }
    }
    Ok(runs)
}

/// How a metric moved between two sets of repeats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    WithinBound,
    Unresolved,
    Regressed,
}

/// Judges `new` against `old` for one metric, by medians and quartiles as
/// Python's `statistics` computes them. The change is *worse* by the
/// relative median shift in the bad direction. It regressed when worse by
/// more than the bound; the result is unresolved instead when either
/// side's own spread (IQR / median) exceeds the bound, unless every new
/// run beats every old run. It is better when it improved by more than
/// the old runs' spread.
pub fn verdict(old: &[f64], new: &[f64], bound: &Bound) -> Verdict {
    let sign = if bound.higher_is_better { -1.0 } else { 1.0 };
    let ([o1, old_med, o3], [n1, new_med, n3]) = (quartiles(old), quartiles(new));
    let (old_spread, new_spread) = ((o3 - o1) / old_med, (n3 - n1) / new_med);
    let worse = sign * (new_med - old_med) / old_med;
    let all_better = old
        .iter()
        .all(|&o| new.iter().all(|&n| sign * (n - o) < 0.0));
    if old_spread.max(new_spread) > bound.bound && !all_better {
        Verdict::Unresolved
    } else if worse > bound.bound {
        Verdict::Regressed
    } else if -worse > old_spread {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

/// Prints the comparison table; returns whether nothing regressed.
pub fn compare(old: &str, new: &str, bounds: &str) -> Result<bool, String> {
    let bounds = read_bounds(bounds)?;
    let (old, new) = (read_runs(old)?, read_runs(new)?);
    let mut ok = true;
    println!(
        "{:<9} {:<20} {:>6} {:>34} {:>34}  verdict",
        "workload", "metric", "bound", "old median [q1, q3] (n)", "new median [q1, q3] (n)"
    );
    for (workload, old_metrics) in &old {
        let Some(new_metrics) = new.get(workload) else {
            println!("{workload:<9} (absent from the new runs)");
            ok = false;
            continue;
        };
        for bound in &bounds {
            let (Some(o), Some(n)) = (old_metrics.get(&bound.name), new_metrics.get(&bound.name))
            else {
                continue;
            };
            let cell = |v: &[f64]| {
                let [q1, q2, q3] = quartiles(v);
                format!("{q2:.5} [{q1:.5}, {q3:.5}] ({})", v.len())
            };
            let verdict = verdict(o, n, bound);
            ok &= verdict != Verdict::Regressed;
            println!(
                "{workload:<9} {:<20} {:>5.0}% {:>34} {:>34}  {verdict:?}",
                bound.name,
                bound.bound * 100.0,
                cell(o),
                cell(n)
            );
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.5), 2.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let lower = Bound {
            name: "job_p50_ms".into(),
            higher_is_better: false,
            bound: 0.1,
        };
        let old = [100.0, 101.0, 99.0, 100.5, 99.5];
        let shift = |d: f64| old.map(|v| v + d);
        assert_eq!(verdict(&old, &shift(5.0), &lower), Verdict::WithinBound);
        assert_eq!(verdict(&old, &shift(20.0), &lower), Verdict::Regressed);
        assert_eq!(verdict(&old, &shift(-20.0), &lower), Verdict::Better);
        let noisy = [50.0, 100.0, 150.0, 80.0, 120.0];
        assert_eq!(verdict(&noisy, &noisy, &lower), Verdict::Unresolved);
        let higher = Bound {
            higher_is_better: true,
            ..lower
        };
        assert_eq!(verdict(&old, &shift(-20.0), &higher), Verdict::Regressed);
    }

    #[test]
    fn every_layer_metric_is_named_once() {
        let mut names: Vec<&str> = LAYERS.iter().map(|l| l.0).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), LAYERS.len());
    }
}
