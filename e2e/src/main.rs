//! `e2e`: the repository's end-to-end benchmark.
//!
//! It drives the path users run — Verilog → compile → embed → anneal →
//! answer — through the public API, checks every answer against an
//! oracle of its own, and prints every metric by name with its unit.
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```text
//! cargo run --release --manifest-path e2e/Cargo.toml -- [options]
//!   --workload NAME      hw_cold | hw_warm | sw_run | edit (default: all four,
//!                        each in its own child process)
//!   --seed N             job-list seed (default 1; seed 2 is held out)
//!   --seconds S          keep starting job blocks for S seconds (default 25)
//!   --trace 0|1          1: alternate traced and untraced blocks and report
//!                        the per-layer metrics instead of the end-to-end ones
//!   --trace-dir DIR      as --trace 1, and write DIR/<workload>.jsonl
//!   --out FILE           append one JSON record per workload run to FILE
//!   --annealer NAME      chain-block (default) | bit-parallel
//!   --smoke              two figure2/circsat jobs per workload, traced
//!   --compare OLD NEW    compare two --out files using the bounds in
//!                        BENCHMARK.json
//! ```

mod jobs;
mod metrics;
mod oracle;
mod run;

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use qac_solvers::PhysicalAnnealer;
use qac_telemetry::json::Json;

use jobs::{Workload, WORKLOADS};
use run::Settings;

/// The benchmark's description, next to this package; `--compare` reads
/// its bounds.
const BENCHMARK_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_dir: Option<PathBuf>,
    out: Option<PathBuf>,
    annealer: PhysicalAnnealer,
    smoke: bool,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 25.0,
        trace: false,
        trace_dir: None,
        out: None,
        annealer: PhysicalAnnealer::ChainBlock,
        smoke: false,
        compare: None,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !args.seconds.is_finite() || args.seconds < 0.0 {
                    return Err("--seconds must be a finite, non-negative number".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--trace-dir" => {
                args.trace_dir = Some(value()?.into());
                args.trace = true;
            }
            "--out" => args.out = Some(value()?.into()),
            "--annealer" => {
                args.annealer = match value()?.as_str() {
                    "chain-block" => PhysicalAnnealer::ChainBlock,
                    "bit-parallel" => PhysicalAnnealer::BitParallel,
                    other => return Err(format!("unknown annealer `{other}`")),
                }
            }
            "--smoke" => args.smoke = true,
            "--compare" => args.compare = Some((value()?.into(), value()?.into())),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let result = parse_args(std::env::args().skip(1)).and_then(|args| {
        if let Some((old, new)) = &args.compare {
            let read =
                |p: &Path| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
            return metrics::compare(&read(old)?, &read(new)?, &read(Path::new(BENCHMARK_JSON))?);
        }
        if args.smoke {
            let dir = args
                .trace_dir
                .clone()
                .unwrap_or_else(|| std::env::temp_dir().join("qac-e2e-smoke"));
            return smoke(&dir).map(|_| true);
        }
        match args.workload {
            Some(workload) => run_one(&args, workload),
            None => run_all(&args),
        }
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("e2e: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs one workload in this process and prints its result; returns
/// whether every answer was right.
fn run_one(args: &Args, workload: Workload) -> Result<bool, String> {
    let settings = Settings {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        annealer: args.annealer,
        smoke: false,
    };
    let report = run::run(&settings)?;
    if let Some(dir) = &args.trace_dir {
        write_trace(dir, workload)?;
    }
    for failure in report.failures.iter().take(10) {
        eprintln!("e2e {}: FAILED: {failure}", workload.name());
    }
    println!(
        "e2e {} seed={} trace={}: {} jobs, {} failed",
        workload.name(),
        args.seed,
        u8::from(args.trace),
        report.attempted,
        report.failures.len()
    );
    for m in &report.metrics {
        println!("  {:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "  {:<24} {:>6} {:>12} {:>10} {:>10}",
        "job kind", "jobs", "p50 ms", "valid", "solved"
    );
    for k in &report.kinds {
        println!(
            "  {:<24} {:>6} {:>12.3} {:>10.4} {:>10.4}",
            k.label, k.jobs, k.p50_ms, k.valid_frac, k.solved_frac
        );
    }
    let correct = report.failures.is_empty();
    let result = metrics::result_json(
        correct,
        report.attempted,
        report.failures.len(),
        &report.metrics,
    );
    if let Some(out) = &args.out {
        let record = Json::Obj(vec![
            ("workload".into(), Json::Str(workload.name().into())),
            ("seed".into(), Json::Num(args.seed as f64)),
            ("trace".into(), Json::Bool(args.trace)),
            ("result".into(), result.clone()),
        ]);
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(out)
            .map_err(|e| format!("{}: {e}", out.display()))?;
        writeln!(file, "{record}").map_err(|e| format!("{}: {e}", out.display()))?;
    }
    println!("{result}");
    Ok(correct)
}

/// Runs every workload, each in its own child process (one client, one
/// thread, its own peak RSS).
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut ok = true;
    for workload in WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", workload.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if let Some(dir) = &args.trace_dir {
            cmd.arg("--trace-dir").arg(dir);
        }
        if let Some(out) = &args.out {
            cmd.arg("--out").arg(out);
        }
        if args.annealer == PhysicalAnnealer::BitParallel {
            cmd.args(["--annealer", "bit-parallel"]);
        }
        let status = cmd
            .stdin(Stdio::null())
            .status()
            .map_err(|e| format!("cannot run {}: {e}", workload.name()))?;
        if !status.success() {
            eprintln!("e2e: {} exited with {status}", workload.name());
            ok = false;
        }
    }
    Ok(ok)
}

fn write_trace(dir: &Path, workload: Workload) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{}.jsonl", workload.name()));
    let text = qac_telemetry::export::jsonl(&qac_telemetry::global().snapshot());
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Every per-layer metric `(name, unit)` a traced run reports, in order.
fn per_layer_table() -> Vec<(&'static str, &'static str)> {
    metrics::LAYERS
        .iter()
        .map(|&(name, unit, _)| (name, unit))
        .chain([metrics::TRACE_OVERHEAD])
        .collect()
}

/// Runs the smoke list of every workload traced, writes and re-reads the
/// trace, and returns each workload's count metrics.
fn smoke(dir: &Path) -> Result<Vec<Vec<metrics::Metric>>, String> {
    let mut all_counts = Vec::new();
    for workload in WORKLOADS {
        qac_telemetry::global().clear();
        let settings = Settings {
            workload,
            seed: 1,
            seconds: 0.0,
            trace: true,
            annealer: PhysicalAnnealer::ChainBlock,
            smoke: true,
        };
        let report = run::run(&settings)?;
        if let Some(failure) = report.failures.first() {
            return Err(format!("{} smoke: {failure}", workload.name()));
        }
        let reported: Vec<(&str, &str)> = report
            .metrics
            .iter()
            .map(|m| (m.name.as_str(), m.unit))
            .collect();
        if reported != per_layer_table() {
            return Err(format!("{} smoke reported {reported:?}", workload.name()));
        }
        write_trace(dir, workload)?;
        let path = dir.join(format!("{}.jsonl", workload.name()));
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut jobs = 0;
        for line in text.lines() {
            let record =
                qac_telemetry::json::parse(line).map_err(|e| format!("{}: {e}", path.display()))?;
            if record.get("name").and_then(Json::as_str) == Some("e2e.job") {
                jobs += 1;
            }
        }
        if jobs != 2 {
            return Err(format!(
                "{} trace holds {jobs} e2e.job spans, expected 2",
                workload.name()
            ));
        }
        println!(
            "smoke {}: {} jobs, trace {}",
            workload.name(),
            report.attempted,
            path.display()
        );
        all_counts.push(report.counts);
    }
    Ok(all_counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qac_core::{compile, RunOptions, SolverChoice};

    #[test]
    fn smoke_runs_every_workload_and_repeats_its_counts() {
        let dir = std::env::temp_dir().join(format!("qac-e2e-smoke-{}", std::process::id()));
        let first = smoke(&dir).expect("first smoke run");
        let second = smoke(&dir).expect("second smoke run");
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(first, second, "count metrics must repeat exactly");
    }

    #[test]
    fn held_out_seed_pins_resolve_against_their_programs() {
        let mut compiled = std::collections::BTreeMap::new();
        for w in WORKLOADS {
            for block in 0..2 {
                for job in w.block(2, block) {
                    let program = match &job {
                        jobs::Job::Sample(job) => job.program,
                        jobs::Job::Edit(job) => job.program,
                    };
                    let program_compiled = compiled.entry(program).or_insert_with(|| {
                        compile(&program.source(), program.top(), &program.options()).unwrap()
                    });
                    let mut options = RunOptions::new().solver(SolverChoice::Tabu).num_reads(1);
                    for spec in job.pin_specs() {
                        options = options.pin(&spec);
                    }
                    if let Err(e) = program_compiled.run(&options) {
                        panic!("{job}: {e}");
                    }
                }
            }
        }
    }

    #[test]
    fn arguments_parse_and_reject_nonsense() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let args = parse("--workload edit --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(args.workload, Some(Workload::Edit));
        assert_eq!((args.seed, args.seconds, args.trace), (7, 3.0, true));
        assert!(parse("--workload nope").is_err());
        assert!(parse("--trace 2").is_err());
        assert!(parse("--seconds -1").is_err());
        assert!(parse("--bogus").is_err());
    }

    #[test]
    fn release_profile_matches_the_repository() {
        let profile = |path: String| -> Vec<String> {
            let text = std::fs::read_to_string(&path).unwrap();
            text.lines()
                .map(str::trim)
                .skip_while(|l| *l != "[profile.release]")
                .skip(1)
                .take_while(|l| !l.starts_with('['))
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .map(String::from)
                .collect()
        };
        let dir = env!("CARGO_MANIFEST_DIR");
        let own = profile(format!("{dir}/Cargo.toml"));
        assert!(!own.is_empty());
        assert_eq!(own, profile(format!("{dir}/../Cargo.toml")));
    }

    #[test]
    fn benchmark_json_lists_what_the_benchmark_reports() {
        let text = std::fs::read_to_string(BENCHMARK_JSON).unwrap();
        let doc = qac_telemetry::json::parse(&text).unwrap();
        let field = |m: &Json, key: &str| m.get(key).and_then(Json::as_str).unwrap().to_string();
        let entries = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    (
                        field(m, "name"),
                        m.get("unit").map_or(String::new(), |_| field(m, "unit")),
                    )
                })
                .collect()
        };
        let owned = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        let workloads: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name().to_string(), String::new()))
            .collect();
        assert_eq!(entries("workloads"), workloads);
        assert_eq!(entries("end_to_end"), owned(&metrics::END_TO_END));
        assert_eq!(entries("per_layer"), owned(&per_layer_table()));
        let bounds = metrics::read_bounds(&text).unwrap();
        assert!(bounds.iter().all(|b| b.bound > 0.0 && b.bound <= 0.25));
    }
}
