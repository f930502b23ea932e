//! ```sh
//! slide-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! slide-benchmark [--seed N] [--seconds S] [--trace 0|1] [--out FILE]    # all six, one process each
//! slide-benchmark compare BASE.jsonl OTHER.jsonl ...
//! slide-benchmark spec                                                   # prints BENCHMARK.json
//! ```
//!
//! Exit code 0: every output was correct. 1: a correctness failure, after
//! all metrics were printed. 2: the run could not be made (bad arguments,
//! unwritable directory); no result is printed.

use std::io::Write;
use std::process::ExitCode;

use slide_benchmark::{compare, spec};

const USAGE: &str =
    "usage: slide-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
       slide-benchmark compare BASE.jsonl OTHER.jsonl ...
       slide-benchmark spec";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?.clone()),
            "--seed" => {
                parsed.seed = value()?
                    .parse()
                    .map_err(|_| "--seed needs a whole number")?
            }
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|_| "--seconds needs a number")?
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--out" => parsed.out = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(parsed)
}

fn run_one(workload: &str, args: &Args) -> Result<bool, String> {
    let report = slide_benchmark::run(workload, args.seed, args.seconds, args.trace, false)?;
    if let Some(path) = &args.out {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("opening {path}: {e}"))?;
        writeln!(file, "{}", report.summary_json()).map_err(|e| format!("writing {path}: {e}"))?;
    }
    print!("{}", report.table());
    println!("summary {}", report.summary_json());
    println!("{}", report.result_line());
    Ok(report.correct())
}

/// Every workload in a process of its own, so `peak_rss_mb` is each
/// workload's and not the suite's.
fn run_all(args: &[String]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut all_correct = true;
    for workload in spec::workload_names() {
        let status = std::process::Command::new(&exe)
            .args(["--workload", workload])
            .args(args)
            .status()
            .map_err(|e| format!("spawning {workload}: {e}"))?;
        all_correct &= status.success();
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("spec") => {
            print!("{}", spec::render_benchmark_json());
            Ok(true)
        }
        Some("compare") if args.len() >= 3 => args[1..]
            .iter()
            .map(|path| {
                let text =
                    std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
                let file = compare::parse_results(&text).map_err(|e| format!("{path}: {e}"))?;
                Ok((path.clone(), file))
            })
            .collect::<Result<Vec<_>, String>>()
            .map(|files| compare::compare(&files)),
        Some("compare") => Err("compare needs a base file and at least one other".to_string()),
        _ => parse_args(&args).and_then(|parsed| match &parsed.workload {
            Some(workload) => run_one(workload, &parsed),
            None => run_all(&args),
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("slide-benchmark: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
