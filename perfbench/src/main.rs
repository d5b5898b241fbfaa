//! Benchmark harness for the serve, engine and distributed tiers.
//!
//! ```text
//! perfbench prepare --workload <name> --seed <n> --seconds <s> --trace <0|1> --work <dir>
//! perfbench run     --workload <name> --seed <n> --seconds <s> --trace <0|1> --work <dir>
//! ```
//!
//! `prepare` writes, untimed and from the seed alone, the state each
//! workload restarts from (a tenant map, an engine checkpoint, a durable
//! coordinator). `run` restores it, drives a fixed amount of work derived
//! from `--seconds`, checks the outputs, and prints the host record, every
//! figure by name and unit, and finally one JSON result line. With
//! `--trace 1` the run traces every tier's layers instead (the named
//! workload at full size, the other two at a quarter) and the result line
//! carries the per-layer figures.
//! `perfbench/run.py` builds this binary and runs both steps in separate
//! processes, so preparation never shows in the run's memory figures.

mod distrib;
mod engine;
mod host;
mod report;
mod serve;
mod stats;
mod trace;

use host::HostRecord;
use report::TierReport;
use serde::Serialize;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The three workloads, by the name `--workload` takes.
const WORKLOADS: &[&str] = &["serve-mixed", "engine-syndrift20", "distrib-commit"];

/// End-to-end figures of the result line, with their units (the gated
/// set of `BENCHMARK.json`; the rest are printed above it).
const RESULT_E2E: &[(&str, &str)] = &[
    ("throughput_pts_s", "1/s"),
    ("cpu_us_per_pt", "us"),
    ("setup_s", "s"),
];

/// Share of `--seconds` the tiers other than the named one run at in a
/// traced run.
const SECONDARY_SCALE: f64 = 0.25;

/// One figure of the result line.
#[derive(Serialize)]
struct Figure {
    value: f64,
    unit: String,
}

/// The result line: the last line a run prints.
#[derive(Serialize)]
struct ResultLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, Figure>,
}

struct Args {
    cmd: String,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let cmd = it.next().ok_or("missing command: prepare | run")?;
    let mut args = Args {
        cmd,
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        work: PathBuf::from(".bench_work"),
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value != "0",
            "--work" => args.work = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got {:?}",
            args.workload
        ));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// The tiers a run drives, with their size in seconds of work: the named
/// workload alone, or (traced) every tier with the others scaled down.
fn plan(args: &Args) -> Vec<(&'static str, f64)> {
    WORKLOADS
        .iter()
        .filter(|w| args.trace || **w == args.workload)
        .map(|w| {
            let share = if *w == args.workload {
                1.0
            } else {
                SECONDARY_SCALE
            };
            (*w, args.seconds * share)
        })
        .collect()
}

fn prepare(workload: &str, seed: u64, dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    match workload {
        "serve-mixed" => serve::prepare(seed, dir),
        "engine-syndrift20" => engine::prepare(seed, dir),
        _ => distrib::prepare(seed, dir),
    }
}

fn run_tier(
    workload: &str,
    seed: u64,
    dir: &Path,
    scale: f64,
    traced: bool,
    trace_dir: &Path,
) -> Result<TierReport, String> {
    match workload {
        "serve-mixed" => serve::run(seed, dir, scale, traced, trace_dir),
        "engine-syndrift20" => engine::run(seed, dir, scale, traced, trace_dir),
        _ => distrib::run(seed, dir, scale, traced, trace_dir),
    }
}

fn print_report(workload: &str, rep: &TierReport) {
    for m in &rep.e2e {
        println!("[{workload}] {} = {} {}", m.name, m.value, m.unit);
    }
    println!(
        "[{workload}] failed_ratio = {} ({} failed of {} attempted)",
        rep.outcomes.failed_ratio(),
        rep.outcomes.failed(),
        rep.outcomes.attempted
    );
    for n in &rep.notes {
        println!("[{workload}] {n}");
    }
    for m in &rep.layers {
        println!("[{workload}] layer {} = {} {}", m.name, m.value, m.unit);
    }
}

fn run(args: &Args) -> Result<String, String> {
    let host = HostRecord::read(Path::new("."));
    let trace_dir = args.work.join("traces");
    if args.trace {
        std::fs::create_dir_all(&trace_dir).map_err(|e| e.to_string())?;
    }
    let mut reports = Vec::new();
    for (workload, scale) in plan(args) {
        let dir = args.work.join(workload);
        let rep = run_tier(workload, args.seed, &dir, scale, args.trace, &trace_dir)
            .map_err(|e| format!("{workload}: {e}"))?;
        print_report(workload, &rep);
        reports.push((workload, rep));
    }
    let peak = host::peak_rss_mb();
    println!("host {}", host.to_json());

    let mut metrics = BTreeMap::new();
    let mut put = |name: &str, value: f64, unit: &str| {
        let unit = unit.to_string();
        metrics.insert(name.to_string(), Figure { value, unit });
    };
    if args.trace {
        for (_, rep) in &reports {
            for m in &rep.layers {
                put(&m.name, m.value, m.unit);
            }
        }
    } else {
        let (_, rep) = reports.first().ok_or("no tier ran")?;
        println!("[{}] peak_rss_mb = {peak} MB", args.workload);
        for (name, unit) in RESULT_E2E {
            let value = rep
                .e2e_value(name)
                .ok_or_else(|| format!("{} did not report {name}", args.workload))?;
            put(name, value, unit);
        }
    }
    let attempted: u64 = reports.iter().map(|(_, r)| r.outcomes.attempted).sum();
    let failed: u64 = reports.iter().map(|(_, r)| r.outcomes.failed()).sum();
    let correct = reports.iter().all(|(_, r)| r.gate_failures.is_empty());
    for (w, r) in &reports {
        for g in &r.gate_failures {
            eprintln!("[{w}] correctness gate failed: {g}");
        }
    }
    let line = ResultLine {
        correct,
        attempted: attempted.max(1),
        failed,
        metrics,
    };
    serde_json::to_string(&line).map_err(|e| e.to_string())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match args.cmd.as_str() {
        "prepare" => {
            for (workload, _) in plan(&args) {
                if let Err(e) = prepare(workload, args.seed, &args.work.join(workload)) {
                    eprintln!("perfbench: prepare {workload}: {e}");
                    return ExitCode::FAILURE;
                }
            }
            ExitCode::SUCCESS
        }
        "run" => match run(&args) {
            Ok(line) => {
                println!("{line}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        },
        other => {
            eprintln!("perfbench: unknown command {other:?} (prepare | run)");
            ExitCode::from(2)
        }
    }
}
