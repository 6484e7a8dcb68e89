//! The asicgap benchmark harness (ISSUE 11): one command that prints
//! every metric by name with its unit and checks the program's outputs.
//!
//! ```text
//! asicgap-benchmark --workload W --seed N --seconds S --trace 0|1
//! asicgap-benchmark all      [--seed N] [--seconds S] [--repeat K] [--out FILE]
//! asicgap-benchmark trace    [--seed N] [--seconds S] [--out FILE]
//! asicgap-benchmark check    [FIRST.json SECOND.json] [--seconds S]
//! asicgap-benchmark baseline --out FILE [--seconds S]
//! ```
//!
//! Run from the repository root (`BENCHMARK.json` names the command).
//! `benchmark/README.md` is the glossary of workloads and metrics.

mod check;
mod children;
mod gen;
mod json;
mod probes;
mod run;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::process::{Command, ExitCode};
use std::time::Duration;

use check::{Manifest, ResultSet};
use gen::DEFAULT_SEED;
use json::Json;
use run::{RunConfig, WorkloadResult};
use spec::{Workload, WORKLOADS};
use trace::Span;

/// No run may outlive this: the driver allows 180 s per run.
const RUN_LIMIT: Duration = Duration::from_secs(170);

const SPANS_PATH: &str = "benchmark/out/trace.json";

fn usage() -> String {
    "usage: asicgap-benchmark --workload <flow_cold|soc_ingest|serve_warm|cluster_resume> \
     --seed <n> --seconds <s> --trace <0|1>\n       \
     asicgap-benchmark all [--seed N] [--seconds S] [--repeat K] [--out FILE]\n       \
     asicgap-benchmark trace [--seed N] [--seconds S] [--out FILE]\n       \
     asicgap-benchmark check [FIRST.json SECOND.json] [--seconds S]\n       \
     asicgap-benchmark baseline --out FILE [--seconds S]"
        .to_string()
}

/// Flags shared by every mode. `seconds` defaults to the manifest's
/// `run_seconds`.
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    repeat: usize,
    out: Option<String>,
    files: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        repeat: 1,
        out: None,
        files: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or(format!("{flag} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                a.workload = Some(Workload::parse(v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => a.seed = value()?.parse().map_err(|_| "bad --seed".to_string())?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "bad --seconds".to_string())?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--repeat" => {
                a.repeat = value()?
                    .parse()
                    .ok()
                    .filter(|&k| k >= 1)
                    .ok_or("bad --repeat")?;
            }
            "--out" => a.out = Some(value()?.clone()),
            f if f.starts_with("--") => return Err(format!("unknown flag {f:?}\n{}", usage())),
            file => a.files.push(file.to_string()),
        }
    }
    Ok(a)
}

fn write_file(path: &str, text: &str) -> Result<(), String> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{dir:?}: {e}"))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// One traced run's entry in the spans file.
fn spans_entry(workload: &str, spans: &[Span]) -> Json {
    Json::obj([
        ("workload", Json::str(workload)),
        ("spans", trace::spans_json(spans)),
    ])
}

/// Writes the spans file: one entry per traced run.
fn write_spans(runs: Vec<Json>) -> Result<(), String> {
    write_file(SPANS_PATH, &Json::obj([("runs", Json::Arr(runs))]).write())
}

fn print_layer_table(workload: &str, spans: &[Span]) -> Json {
    let (rows, coverage) = trace::layer_table(spans);
    let total: f64 = rows.iter().map(|r| r.self_ms).sum();
    println!("-- {workload}: spans by layer (self = total minus direct children) --");
    println!(
        "  {:<24} {:>8} {:>14} {:>14} {:>7}",
        "span", "count", "total ms", "self ms", "self %"
    );
    for r in &rows {
        println!(
            "  {:<24} {:>8} {:>14.3} {:>14.3} {:>6.1}%",
            r.name,
            r.count,
            r.total_ms,
            r.self_ms,
            100.0 * r.self_ms / total.max(f64::MIN_POSITIVE)
        );
    }
    println!(
        "  child spans cover {:.1}% of the operation spans (ROADMAP 1c asks for 95%; \
         reported, not enforced)",
        coverage * 100.0
    );
    Json::Arr(
        rows.iter()
            .map(|r| {
                Json::obj([
                    ("span", Json::str(r.name)),
                    ("count", Json::Num(r.count as f64)),
                    ("total_ms", Json::Num(r.total_ms)),
                    ("self_ms", Json::Num(r.self_ms)),
                ])
            })
            .collect(),
    )
}

/// The driver's entry: one workload, one JSON line last on stdout. With
/// `--out`, the full record (and a traced run's layer table) is also
/// written there — how the multi-run modes read a run back.
fn contract_run(a: &Args, workload: Workload) -> Result<bool, String> {
    let cfg = RunConfig {
        workload,
        seed: a.seed,
        seconds: a.seconds.ok_or("--seconds is required with --workload")?,
        trace: a.trace,
    };
    let measured = workloads::run(&cfg).map_err(|e| format!("{}: {e}", workload.name()))?;
    let (result, spans) = WorkloadResult::from_measured(&cfg, measured);
    result.print();
    let mut table = Json::Null;
    if cfg.trace {
        table = print_layer_table(workload.name(), &spans);
        write_spans(vec![spans_entry(workload.name(), &spans)])?;
    }
    if let Some(out) = &a.out {
        let doc = Json::obj([("result", result.to_json()), ("layer_table", table)]);
        write_file(out, &doc.write())?;
    }
    println!("{}", result.contract_line());
    Ok(true)
}

/// Runs one workload in a process of its own and reads its record back.
/// `peak_rss_mb` is a process-lifetime high-water mark and an allocator
/// keeps what it was once given, so a result is only comparable with the
/// driver's if nothing ran in the process before it.
fn run_isolated(cfg: &RunConfig) -> Result<(WorkloadResult, Json), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the harness: {e}"))?;
    let out = format!("benchmark/out/run-{}.json", std::process::id());
    let run = Command::new(exe)
        .args(["--workload", cfg.workload.name()])
        .args(["--seed", &cfg.seed.to_string()])
        .args(["--seconds", &cfg.seconds.to_string()])
        .args(["--trace", if cfg.trace { "1" } else { "0" }])
        .args(["--out", &out])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot re-run the harness: {e}"))?;
    // Pass on what the run printed, minus its last line: that one is
    // for the driver.
    let printed = String::from_utf8_lossy(&run.stdout);
    if let Some((tables, _contract_line)) = printed.trim_end().rsplit_once('\n') {
        println!("{tables}");
    }
    if !run.status.success() {
        return Err(format!(
            "{} run failed ({})",
            cfg.workload.name(),
            run.status
        ));
    }
    let doc = read_json(&out)?;
    let _ = std::fs::remove_file(&out);
    let result = WorkloadResult::from_json(doc.get("result").ok_or("run record lacks result")?)?;
    Ok((
        result,
        doc.get("layer_table").cloned().unwrap_or(Json::Null),
    ))
}

fn provenance(seconds: f64) -> Json {
    let tool = |cmd: &str, args: &[&str]| {
        Command::new(cmd)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map_or("unknown".to_string(), |o| {
                String::from_utf8_lossy(&o.stdout).trim().to_string()
            })
    };
    Json::obj([
        ("commit", Json::str(tool("git", &["rev-parse", "HEAD"]))),
        ("rustc", Json::str(tool("rustc", &["--version"]))),
        ("threads", Json::Num(run::threads() as f64)),
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        ("seconds", Json::Num(seconds)),
    ])
}

/// One result set: every workload untraced, `repeat` seeds each.
fn run_set(seed: u64, seconds: f64, repeat: usize) -> Result<ResultSet, String> {
    let mut results = Vec::new();
    for workload in WORKLOADS {
        for k in 0..repeat as u64 {
            let cfg = RunConfig {
                workload,
                seed: seed + k,
                seconds,
                trace: false,
            };
            results.push(run_isolated(&cfg)?.0);
        }
    }
    Ok(ResultSet {
        meta: provenance(seconds),
        results,
    })
}

/// The traced run of every workload: per-layer metrics, layer tables,
/// and the tracing overhead against an untraced window of equal length.
fn run_traced(seed: u64, seconds: f64) -> Result<(Vec<WorkloadResult>, Json), String> {
    let mut results = Vec::new();
    let mut tables = Vec::new();
    let mut span_runs = Vec::new();
    for workload in WORKLOADS {
        let traced = RunConfig {
            workload,
            seed,
            seconds,
            trace: true,
        };
        // A traced run replays the stream for half its window.
        let plain = RunConfig {
            seconds: seconds / 2.0,
            trace: false,
            ..traced
        };
        let (untraced, _) = run_isolated(&plain)?;
        let (result, table) = run_isolated(&traced)?;
        let (with, without) = (
            result.metrics["trace.ops_per_s"],
            untraced.metrics["ops_per_s"],
        );
        println!(
            "  tracing overhead: {with:.3} ops/s traced vs {without:.3} untraced ({:+.1}%)",
            (without - with) / without * 100.0
        );
        results.push(result);
        tables.push((workload.name(), table));
        // Each traced child leaves its spans in the spans file; gather
        // them so the file ends up holding all four workloads.
        span_runs.extend(
            read_json(SPANS_PATH)?
                .get("runs")
                .map_or(&[][..], Json::items)
                .iter()
                .cloned(),
        );
    }
    write_spans(span_runs)?;
    println!("spans written to {SPANS_PATH}");
    Ok((results, Json::obj(tables)))
}

fn report_verdict(v: &check::Verdict) -> bool {
    for line in &v.lines {
        println!("{line}");
    }
    println!(
        "check: {} comparisons, {} breaches",
        v.lines.len(),
        v.breaches
    );
    v.breaches == 0
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    let (mode, rest) = match args.first().map(String::as_str) {
        Some(m @ ("all" | "trace" | "check" | "baseline")) => (m, &args[1..]),
        _ => ("run", args),
    };
    let a = parse_args(rest)?;
    if mode == "run" {
        let workload = a.workload.ok_or_else(usage)?;
        return contract_run(&a, workload);
    }
    let manifest = Manifest::load()?;
    let seconds = a.seconds.unwrap_or(manifest.run_seconds);
    match mode {
        "all" => {
            let set = run_set(a.seed, seconds, a.repeat)?;
            if let Some(out) = &a.out {
                write_file(out, &set.to_json().write_pretty())?;
                println!("result set written to {out}");
            }
            Ok(set.results.iter().all(|r| r.correct && r.failed == 0))
        }
        "trace" => {
            let (results, tables) = run_traced(a.seed, seconds)?;
            if let Some(out) = &a.out {
                let doc = Json::obj([
                    ("meta", provenance(seconds)),
                    (
                        "results",
                        Json::Arr(results.iter().map(WorkloadResult::to_json).collect()),
                    ),
                    ("layer_tables", tables),
                ]);
                write_file(out, &doc.write_pretty())?;
            }
            Ok(results.iter().all(|r| r.correct))
        }
        "check" => {
            let (first, second) = match a.files.as_slice() {
                [first, second] => (ResultSet::read(first)?, ResultSet::read(second)?),
                [] => (
                    run_set(a.seed, seconds, a.repeat)?,
                    run_set(a.seed, seconds, a.repeat)?,
                ),
                _ => return Err(format!("check takes two result sets or none\n{}", usage())),
            };
            Ok(report_verdict(&check::compare(&manifest, &first, &second)))
        }
        "baseline" => {
            let out = a.out.as_deref().ok_or("baseline needs --out FILE")?;
            let mut first = run_set(a.seed, seconds, a.repeat)?;
            let mut second = run_set(a.seed, seconds, a.repeat)?;
            let (traced, tables) = run_traced(a.seed, seconds)?;
            let (again, _) = run_traced(a.seed, seconds)?;
            // The traced runs ride in the sets so `check` can hold the
            // exact counts of the two to each other.
            first.results.extend(traced.iter().cloned());
            second.results.extend(again);
            let agree = report_verdict(&check::compare(&manifest, &first, &second));
            let doc = Json::obj([
                ("issue", Json::Num(11.0)),
                ("claim", Json::Null),
                ("meta", provenance(seconds)),
                ("sets_agree", Json::Bool(agree)),
                ("sets", Json::Arr(vec![first.to_json(), second.to_json()])),
                ("layer_tables", tables),
            ]);
            write_file(out, &doc.write_pretty())?;
            println!("baseline written to {out}");
            Ok(agree)
        }
        _ => unreachable!("modes are matched above"),
    }
}

fn main() -> ExitCode {
    // The in-process workloads and every child size their pools by T.
    std::env::set_var("ASICGAP_THREADS", run::threads().to_string());
    let args: Vec<String> = std::env::args().skip(1).collect();
    // A single run must end inside the driver's limit whatever hangs;
    // the multi-run modes are a developer's tools and run unbounded.
    if args.first().is_some_and(|a| a.starts_with("--")) {
        children::arm_watchdog(RUN_LIMIT);
    }
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
