//! The repo's benchmark: one workload per process, host-time end-to-end
//! metrics, per-layer metrics and spans in the traced mode. See `README.md`.

mod calibrate;
mod compare;
mod host;
mod json;
mod layers;
mod micro;
mod rng;
mod run;
mod spec;
mod stats;
mod trace;
mod workload;
mod workloads;

use std::process::ExitCode;

use json::Json;
use run::{Config, Report};
use spec::Metric;
use stats::Summary;

const USAGE: &str = "usage: mcr-benchmark --workload <name> [--seed N] [--seconds S] [--trace [0|1]]
       mcr-benchmark --compare a.json b.json";

/// Default seed: fixed, and recorded in every report.
const DEFAULT_SEED: u64 = 20_140_812;
const DEFAULT_SECONDS: f64 = 10.0;

enum Command {
    Run(Config),
    Compare(String, String),
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut cfg =
        Config { workload: String::new(), seed: DEFAULT_SEED, seconds: DEFAULT_SECONDS, trace: false };
    let mut i = 0;
    let value = |i: &mut usize| -> Result<&String, String> {
        *i += 1;
        args.get(*i).ok_or_else(|| format!("{} needs a value", args[*i - 1]))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--compare" => {
                let a = value(&mut i)?.clone();
                return Ok(Command::Compare(a, value(&mut i)?.clone()));
            }
            "--workload" => cfg.workload = value(&mut i)?.clone(),
            "--seed" => cfg.seed = value(&mut i)?.parse().map_err(|_| "--seed takes a whole number")?,
            "--seconds" => {
                cfg.seconds = value(&mut i)?.parse().map_err(|_| "--seconds takes a number")?;
                if !(cfg.seconds > 0.0 && cfg.seconds <= 600.0) {
                    return Err("--seconds must be above 0 and at most 600".into());
                }
            }
            // `--trace` alone switches tracing on; `--trace 0|1` says which.
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => (cfg.trace, i) = (false, i + 1),
                Some("1") => (cfg.trace, i) = (true, i + 1),
                _ => cfg.trace = true,
            },
            other => return Err(format!("unknown argument {other}")),
        }
        i += 1;
    }
    if workloads::by_name(&cfg.workload).is_none() {
        let list: Vec<String> = spec::WORKLOADS.iter().map(|w| format!("  {}: {}", w.name, w.why)).collect();
        return Err(format!("--workload must be one of\n{}", list.join("\n")));
    }
    Ok(Command::Run(cfg))
}

fn summaries_json(rows: &[(&'static Metric, Summary)]) -> Json {
    Json::Obj(
        rows.iter()
            .map(|(m, s)| {
                let row = Json::obj([
                    ("unit", Json::str(m.unit)),
                    ("n", s.n.into()),
                    ("q1", s.q1.into()),
                    ("median", s.median.into()),
                    ("q3", s.q3.into()),
                ]);
                (m.name.to_string(), row)
            })
            .collect(),
    )
}

/// The full report: what `--compare` reads.
fn report_json(report: &Report) -> Json {
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("workload", Json::str(&report.workload)),
        ("seed", report.seed.into()),
        ("seconds", report.seconds.into()),
        ("trace", report.trace.into()),
        ("threads_available", threads.into()),
        ("attempted", report.tally.attempted.into()),
        ("failed", report.tally.failed.into()),
        ("failures", Json::Arr(report.tally.failures.iter().map(Json::str).collect())),
        ("trace_file", report.trace_file.as_deref().map_or(Json::Null, Json::str)),
        ("end_to_end", summaries_json(&report.end_to_end)),
        ("per_layer", summaries_json(&report.per_layer)),
    ])
}

/// The result line: end-to-end medians untraced, per-layer medians traced.
fn result_json(report: &Report) -> Json {
    let rows = if report.trace { &report.per_layer } else { &report.end_to_end };
    let metrics = rows
        .iter()
        .map(|(m, s)| {
            (m.name.to_string(), Json::obj([("value", s.median.into()), ("unit", Json::str(m.unit))]))
        })
        .collect();
    Json::obj([
        ("correct", (report.tally.failed == 0).into()),
        ("attempted", report.tally.attempted.into()),
        ("failed", report.tally.failed.into()),
        ("metrics", Json::Obj(metrics)),
    ])
}

/// Every metric by name and unit, for the human reader, on standard error.
fn print_table(report: &Report) {
    eprintln!(
        "workload {} seed {} seconds {} trace {}: {} operations attempted, {} failed",
        report.workload,
        report.seed,
        report.seconds,
        report.trace,
        report.tally.attempted,
        report.tally.failed
    );
    for failure in &report.tally.failures {
        eprintln!("  FAILED {failure}");
    }
    eprintln!(
        "{:<42} {:>10} {:>16} {:>16} {:>16} {:>5}  {:<6} definition",
        "metric", "unit", "median", "q1", "q3", "n", "better"
    );
    for (m, s) in report.end_to_end.iter().chain(&report.per_layer) {
        eprintln!(
            "{:<42} {:>10} {:>16.4} {:>16.4} {:>16.4} {:>5}  {:<6} {}",
            m.name,
            m.unit,
            s.median,
            s.q1,
            s.q3,
            s.n,
            m.better.label(),
            m.definition
        );
    }
    if let Some(path) = &report.trace_file {
        eprintln!("spans written to {path}");
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse_args(&args) {
        Ok(command) => command,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match command {
        Command::Compare(a, b) => match compare::compare(&a, &b) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(message) => {
                eprintln!("{message}");
                ExitCode::from(2)
            }
        },
        Command::Run(cfg) => match run::run(&cfg) {
            Ok(report) => {
                print_table(&report);
                println!("{}", report_json(&report).render());
                println!("{}", result_json(&report).render());
                if report.tally.failed == 0 {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            Err(message) => {
                eprintln!("{message}");
                ExitCode::from(2)
            }
        },
    }
}
