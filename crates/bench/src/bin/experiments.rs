//! Regenerates the paper's tables and figures.
//!
//! ```text
//! cargo run --release -p qac-bench --bin experiments            # run all
//! cargo run --release -p qac-bench --bin experiments -- sec6_1  # run one
//! cargo run --release -p qac-bench --bin experiments -- list
//! ```
//!
//! Telemetry flags (any of them enables the global recorder for the
//! whole invocation; see DESIGN.md "Observability"):
//!
//! ```text
//! --trace-json PATH     write every span, metric, and flight event as JSONL
//! --chrome-trace PATH   write a Chrome trace-event file (Perfetto)
//! --metrics PATH        write Prometheus text exposition
//! ```
//!
//! `report TRACE.jsonl [--html PATH]` is a subcommand, not an
//! experiment: it renders a previously exported JSONL trace as a text
//! dashboard on stdout (spans by total time, counters, gauges, quantile
//! summaries, flight events grouped by trace id) and, with `--html`,
//! additionally writes a standalone HTML page. No experiment re-runs.
//!
//! `--diagnostics-json PATH` makes the `analyze` experiment write its
//! per-workload analyzer diagnostics as JSON (checked in CI by
//! `telemetry_check --diagnostics`).
//!
//! `--topology` adds the per-topology axis: after the selected
//! experiments, the §6 workloads are embedded on every supported
//! hardware family (Chimera, Pegasus, Zephyr, king's graph) and
//! tabulated by qubit count, chain lengths, and embed time. The same
//! table is available directly as the `topology` experiment id; with
//! `--metrics` it exports per-fabric routing work, physical qubits and
//! max chain, which ci.sh's topology gate budgets.

use qac_bench::experiments;

struct Cli {
    names: Vec<String>,
    trace_json: Option<String>,
    chrome_trace: Option<String>,
    metrics: Option<String>,
    diagnostics_json: Option<String>,
    html: Option<String>,
    cert_dir: Option<String>,
    topology: bool,
}

fn parse_cli() -> Cli {
    let mut cli = Cli {
        names: Vec::new(),
        trace_json: None,
        chrome_trace: None,
        metrics: None,
        diagnostics_json: None,
        html: None,
        cert_dir: None,
        topology: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut flag = |slot: &mut Option<String>| match args.next() {
            Some(path) => *slot = Some(path),
            None => {
                eprintln!("{arg} needs a file path argument");
                std::process::exit(1);
            }
        };
        match arg.as_str() {
            "--trace-json" => flag(&mut cli.trace_json),
            "--chrome-trace" => flag(&mut cli.chrome_trace),
            "--metrics" => flag(&mut cli.metrics),
            "--diagnostics-json" => flag(&mut cli.diagnostics_json),
            "--html" => flag(&mut cli.html),
            "--cert-dir" => flag(&mut cli.cert_dir),
            "--topology" => cli.topology = true,
            other if other.starts_with("--") => {
                eprintln!("unknown flag `{other}`");
                std::process::exit(1);
            }
            name => cli.names.push(name.to_string()),
        }
    }
    cli
}

/// The `report` subcommand: render an exported JSONL trace as a
/// dashboard without re-running anything.
fn run_report(cli: &Cli) {
    let [_, trace_path] = cli.names.as_slice() else {
        eprintln!("usage: experiments report <trace.jsonl> [--html PATH]");
        std::process::exit(1);
    };
    let jsonl = match std::fs::read_to_string(trace_path) {
        Ok(text) => text,
        Err(err) => {
            eprintln!("cannot read {trace_path}: {err}");
            std::process::exit(1);
        }
    };
    let report = match qac_bench::report::parse_jsonl(&jsonl) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("{trace_path}: {err}");
            std::process::exit(1);
        }
    };
    print!("{}", qac_bench::report::render_text(&report));
    if let Some(path) = &cli.html {
        write_or_die(
            path,
            &qac_bench::report::render_html(&report),
            "HTML report",
        );
    }
}

fn write_or_die(path: &str, contents: &str, what: &str) {
    match std::fs::write(path, contents) {
        Ok(()) => println!("[telemetry] wrote {what} to {path}"),
        Err(err) => {
            eprintln!("cannot write {what} to {path}: {err}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let mut cli = parse_cli();
    if cli.names.iter().any(|a| a == "list") {
        println!("available experiments:");
        for (name, _) in experiments::ALL {
            println!("  {name}");
        }
        return;
    }
    if cli.names.first().map(String::as_str) == Some("report") {
        run_report(&cli);
        return;
    }
    // `certify verify CERT.json...` is a subcommand like `report`: it
    // re-checks previously written certificates with the independent
    // verifier and exits 1 if any is rejected. Bare `certify` (no
    // `verify`) falls through to the experiment of the same name.
    if cli.names.first().map(String::as_str) == Some("certify")
        && cli.names.get(1).map(String::as_str) == Some("verify")
    {
        let files = &cli.names[2..];
        if files.is_empty() {
            eprintln!("usage: experiments certify verify <CERT.json>...");
            std::process::exit(1);
        }
        let mut failed = false;
        for path in files {
            match experiments::verify_certificate_file(path) {
                Ok(summary) => println!("{summary}"),
                Err(why) => {
                    eprintln!("{why}");
                    failed = true;
                }
            }
        }
        std::process::exit(i32::from(failed));
    }

    if let Some(path) = &cli.diagnostics_json {
        // The analyze experiment reads this to know where to write its
        // per-workload diagnostics JSON.
        std::env::set_var("QAC_ANALYZE_JSON", path);
    }
    if let Some(dir) = &cli.cert_dir {
        // The certify experiment reads this to know where to write the
        // per-workload certificate JSON files.
        std::env::set_var("QAC_CERT_DIR", dir);
        if cli.names.is_empty() {
            cli.names.push("certify".to_string());
        }
    }

    let telemetry_on =
        cli.trace_json.is_some() || cli.chrome_trace.is_some() || cli.metrics.is_some();
    if telemetry_on {
        qac_telemetry::global().enable();
    }

    // `tables` is a group alias for the paper's four table experiments.
    let expanded: Vec<String> = cli
        .names
        .iter()
        .flat_map(|arg| {
            if arg == "tables" {
                vec!["table1", "table2", "table3_4", "table5"]
            } else {
                vec![arg.as_str()]
            }
        })
        .map(str::to_string)
        .collect();
    let mut selected: Vec<&(&str, fn())> = if expanded.is_empty() {
        experiments::ALL.iter().collect()
    } else {
        expanded
            .iter()
            .map(|arg| {
                experiments::ALL
                    .iter()
                    .find(|(name, _)| name == arg)
                    .unwrap_or_else(|| {
                        eprintln!("unknown experiment `{arg}` (try `list`)");
                        std::process::exit(1);
                    })
            })
            .collect()
    };
    if cli.topology && !selected.iter().any(|(name, _)| *name == "topology") {
        selected.push(
            experiments::ALL
                .iter()
                .find(|(name, _)| *name == "topology")
                .expect("the topology experiment is registered"),
        );
    }
    let total = selected.len();
    for (i, (name, run)) in selected.into_iter().enumerate() {
        println!("\n──────────────────────────────────────────────────────────────");
        println!("[{}/{}] {name}", i + 1, total);
        println!("──────────────────────────────────────────────────────────────");
        let start = std::time::Instant::now();
        run();
        println!("\n[{name} done in {:.1?}]", start.elapsed());
    }

    if telemetry_on {
        let snapshot = qac_telemetry::global().snapshot();
        if let Some(path) = &cli.trace_json {
            // The flight recorder is always-on and ring-bounded; its
            // surviving events ride along in the same JSONL file so
            // `experiments report` (and post-mortems) see them without
            // a separate export path.
            let mut jsonl = qac_telemetry::export::jsonl(&snapshot);
            for event in qac_telemetry::global_flight().events() {
                jsonl.push_str(&event.to_json().to_string());
                jsonl.push('\n');
            }
            write_or_die(path, &jsonl, "JSONL trace");
        }
        if let Some(path) = &cli.chrome_trace {
            write_or_die(
                path,
                &qac_telemetry::export::chrome_trace(&snapshot),
                "Chrome trace",
            );
        }
        if let Some(path) = &cli.metrics {
            write_or_die(
                path,
                &qac_telemetry::export::prometheus(&snapshot),
                "Prometheus metrics",
            );
        }
        println!(
            "[telemetry] {} spans, {} counters, {} gauges, {} histograms",
            snapshot.spans.len(),
            snapshot.counters.len(),
            snapshot.gauges.len(),
            snapshot.histograms.len()
        );
    }
}
