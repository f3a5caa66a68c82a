//! CI smoke checker for telemetry export files (no jq/python needed).
//!
//! ```text
//! telemetry_check <trace.jsonl> <metrics.prom> [--counter-max name=value]... [--gauge-min name=value]...
//! telemetry_check --diagnostics <diagnostics.json>
//! telemetry_check --help
//! ```
//!
//! Exit codes: **0** all checks passed, **1** a check failed (schema
//! violation, budget exceeded, floor missed), **2** usage error
//! (bad flags, unreadable spec).
//!
//! Asserts that every JSONL line deserializes into the event schema
//! (a JSON object carrying a `"type"` discriminator) and that every
//! Prometheus line matches the text-exposition grammar
//! `^# (HELP|TYPE)|^[a-z_]+({.*})? [0-9.eE+-]+$`. Exits 1 with a
//! line-numbered message on the first violation.
//!
//! `--diagnostics FILE` instead (or additionally) validates an analyzer
//! diagnostics export (`experiments analyze --diagnostics-json`): a JSON
//! array of per-workload objects, each carrying `workload`, `unsat`,
//! `passes` (objects with nonempty `pass`/`summary`), and `diagnostics`
//! (objects whose `code` matches `QACnnn`, whose `severity` is one of
//! error/warning/info, and whose `pass`/`location`/`message` are
//! nonempty strings).
//!
//! Each `--counter-max name=value` additionally requires the Prometheus
//! file to contain a sample named `name` (exact match, including any
//! label set — the spec splits at the *last* `=`, so labeled names like
//! `qac_embed_heap_pops_total{topology="king"}=98000000` parse) whose
//! value is at most `value`; the sample may be a counter or a gauge
//! (CI caps `qac_embed_max_chain{topology=…}` this way). Routing-work
//! counters are deterministic per seed, so CI uses this as a
//! machine-independent perf budget: the budget only trips when the
//! algorithm does more work, never because the runner was slow.
//!
//! Each `--gauge-min name=value` requires a Prometheus sample named
//! `name` (exact match, labels embedded) with value at least `value`.
//! A budget caps work; a floor pins work that must keep happening (an
//! obligation count that collapses toward 0) or a dimensionless
//! same-machine ratio such as the incremental-recompile speedup, which
//! is machine-independent even though raw `_per_sec`/`_us` samples are
//! not. CI passes exports written by the same run, so every gate
//! measures the code under test.

const USAGE: &str = "\
usage:
  telemetry_check <trace.jsonl> <metrics.prom> [--counter-max name=value]... [--gauge-min name=value]...
  telemetry_check --diagnostics <diagnostics.json>
  telemetry_check --help

exit codes:
  0  all checks passed
  1  a check failed (schema violation, budget exceeded, floor missed)
  2  usage error (unknown flag, malformed spec, missing operand)";

/// A failed check: exit 1.
fn die(msg: String) -> ! {
    eprintln!("telemetry_check: {msg}");
    std::process::exit(1);
}

/// A usage error: exit 2 (distinct from a failed check so CI scripts
/// can tell "the gate tripped" from "the gate was invoked wrong").
fn usage_die(msg: String) -> ! {
    eprintln!("telemetry_check: {msg}\n{USAGE}");
    std::process::exit(2);
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|err| die(format!("cannot read {path}: {err}")))
}

/// Validates the analyzer diagnostics JSON schema; dies on the first
/// violation.
fn check_diagnostics(path: &str) {
    use qac_telemetry::json::Json;

    let nonempty_str = |value: Option<&Json>, what: String| -> String {
        match value.and_then(|v| v.as_str()) {
            Some(s) if !s.is_empty() => s.to_string(),
            Some(_) => die(format!("{what} is empty")),
            None => die(format!("{what} is missing or not a string")),
        }
    };

    let text = read(path);
    let root = qac_telemetry::json::parse(&text)
        .unwrap_or_else(|err| die(format!("{path}: invalid JSON: {err}")));
    let workloads = root
        .as_array()
        .unwrap_or_else(|| die(format!("{path}: top level is not an array")));
    if workloads.is_empty() {
        die(format!("{path}: no workloads at all"));
    }
    let mut total_diagnostics = 0usize;
    for (w, entry) in workloads.iter().enumerate() {
        let name = nonempty_str(
            entry.get("workload"),
            format!("{path}: workload[{w}].workload"),
        );
        if !matches!(entry.get("unsat"), Some(Json::Bool(_))) {
            die(format!("{path}: {name}: unsat is missing or not a boolean"));
        }
        let passes = entry
            .get("passes")
            .and_then(|p| p.as_array())
            .unwrap_or_else(|| die(format!("{path}: {name}: passes is not an array")));
        if passes.len() < 6 {
            die(format!(
                "{path}: {name}: only {} analysis passes (expected >= 6)",
                passes.len()
            ));
        }
        for (i, pass) in passes.iter().enumerate() {
            nonempty_str(
                pass.get("pass"),
                format!("{path}: {name}: passes[{i}].pass"),
            );
            nonempty_str(
                pass.get("summary"),
                format!("{path}: {name}: passes[{i}].summary"),
            );
        }
        let diagnostics = entry
            .get("diagnostics")
            .and_then(|d| d.as_array())
            .unwrap_or_else(|| die(format!("{path}: {name}: diagnostics is not an array")));
        for (i, diag) in diagnostics.iter().enumerate() {
            let at = |field: &str| format!("{path}: {name}: diagnostics[{i}].{field}");
            let code = nonempty_str(diag.get("code"), at("code"));
            let digits = code.strip_prefix("QAC").unwrap_or("");
            if digits.len() != 3 || !digits.bytes().all(|b| b.is_ascii_digit()) {
                die(format!("{}: {code:?} does not match QACnnn", at("code")));
            }
            let severity = nonempty_str(diag.get("severity"), at("severity"));
            if !matches!(severity.as_str(), "error" | "warning" | "info") {
                die(format!(
                    "{}: {severity:?} is not error/warning/info",
                    at("severity")
                ));
            }
            nonempty_str(diag.get("pass"), at("pass"));
            nonempty_str(diag.get("location"), at("location"));
            nonempty_str(diag.get("message"), at("message"));
            total_diagnostics += 1;
        }
    }
    println!(
        "telemetry_check: {} workloads, {total_diagnostics} diagnostics conform to the \
         analyzer schema — OK",
        workloads.len()
    );
}

fn main() {
    let mut paths = Vec::new();
    let mut budgets: Vec<(String, f64)> = Vec::new();
    let mut gauge_floors: Vec<(String, f64)> = Vec::new();
    let mut diagnostics: Option<String> = None;
    // Split at the LAST '=': labeled sample names such as
    // `qac_embed_heap_pops_total{topology="king"}` contain '=' inside
    // the label set.
    let parse_spec = |flag: &str, spec: String| -> (String, f64) {
        let Some((name, value)) = spec.rsplit_once('=') else {
            usage_die(format!("{flag} {spec:?} is not name=value"));
        };
        let value: f64 = value
            .parse()
            .unwrap_or_else(|err| usage_die(format!("{flag} {spec:?}: bad value: {err}")));
        (name.to_string(), value)
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut operand = |flag: &str| {
            args.next()
                .unwrap_or_else(|| usage_die(format!("{flag} needs an argument")))
        };
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            "--diagnostics" => diagnostics = Some(operand("--diagnostics")),
            "--counter-max" => {
                let spec = operand("--counter-max");
                budgets.push(parse_spec("--counter-max", spec));
            }
            "--gauge-min" => {
                let spec = operand("--gauge-min");
                gauge_floors.push(parse_spec("--gauge-min", spec));
            }
            other if other.starts_with("--") => usage_die(format!("unknown flag `{other}`")),
            _ => paths.push(arg),
        }
    }
    if let Some(path) = &diagnostics {
        check_diagnostics(path);
        if paths.is_empty() {
            return;
        }
    }
    let [jsonl_path, prom_path] = paths.as_slice() else {
        usage_die("expected exactly two operands: <trace.jsonl> <metrics.prom>".to_string());
    };

    let jsonl = read(jsonl_path);
    let mut events = 0usize;
    for (i, line) in jsonl.lines().enumerate() {
        let value = qac_telemetry::json::parse(line)
            .unwrap_or_else(|err| die(format!("{jsonl_path}:{}: invalid JSON: {err}", i + 1)));
        if value.get("type").and_then(|t| t.as_str()).is_none() {
            die(format!(
                "{jsonl_path}:{}: event lacks a \"type\" discriminator",
                i + 1
            ));
        }
        events += 1;
    }
    if events == 0 {
        die(format!("{jsonl_path}: no events at all"));
    }

    let prom = read(prom_path);
    let mut samples = 0usize;
    for (i, line) in prom.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        if !qac_telemetry::export::is_prometheus_line(line) {
            die(format!(
                "{prom_path}:{}: not valid Prometheus exposition: {line:?}",
                i + 1
            ));
        }
        if !line.starts_with('#') {
            samples += 1;
        }
    }
    if samples == 0 {
        die(format!("{prom_path}: no metric samples at all"));
    }

    let sample = |name: &str| -> f64 {
        let value = prom
            .lines()
            .filter(|l| !l.starts_with('#'))
            .find_map(|l| {
                let (sample_name, rest) = l.split_once(' ')?;
                (sample_name == name).then(|| rest.trim())
            })
            .unwrap_or_else(|| die(format!("{prom_path}: no sample named {name}")));
        value
            .parse()
            .unwrap_or_else(|err| die(format!("{prom_path}: {name} value {value:?}: {err}")))
    };
    for (name, max) in &budgets {
        let value = sample(name);
        if value > *max {
            die(format!(
                "{prom_path}: {name} = {value} exceeds the budget of {max}"
            ));
        }
        println!("telemetry_check: {name} = {value} within budget {max}");
    }
    for (name, min) in &gauge_floors {
        let value = sample(name);
        if value < *min {
            die(format!(
                "{prom_path}: {name} = {value} is below the required floor of {min}"
            ));
        }
        println!("telemetry_check: {name} = {value} meets floor {min}");
    }

    println!("telemetry_check: {events} JSONL events, {samples} Prometheus samples — OK");
}
