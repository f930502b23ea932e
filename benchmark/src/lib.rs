//! `slide-benchmark`: one seeded harness for six workloads.
//!
//! One command runs one workload from one seed in one process, prints
//! every metric by name with its unit, checks the program's outputs and
//! fails on a wrong one. End-to-end metrics come from an untraced run;
//! `--trace 1` repeats the workload with spans recorded from this crate's
//! own files around calls into each layer, and reports per-layer metrics.
//! See `README.md` for the tables and `BENCHMARK.json` for the contract.

use std::path::PathBuf;

pub mod compare;
pub mod host;
pub mod report;
pub mod serve;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod train;

use report::{Context, Report};

/// Full set-ups per untraced run; `setup_s` and `load_s` are their medians.
pub const SETUP_REPS: usize = 3;

/// Windows a timed section is cut into; throughput is their median.
pub const SEGMENTS: usize = 5;

/// What `load_s` times is built again and again until this much time is
/// spent or this many are built (always at least once): a small model
/// loads in milliseconds, where one sample is mostly thread-start noise.
const LOAD_BUDGET: std::time::Duration = std::time::Duration::from_millis(150);
const LOAD_MAX_REPS: usize = 15;

/// Returns the last value built and the median seconds per build; every
/// earlier value goes to `discard`.
pub fn timed_loads<T, E>(
    mut build: impl FnMut() -> Result<T, E>,
    mut discard: impl FnMut(T),
) -> Result<(T, f64), E> {
    let start = std::time::Instant::now();
    let mut seconds = Vec::new();
    loop {
        let t0 = std::time::Instant::now();
        let built = build()?;
        seconds.push(t0.elapsed().as_secs_f64());
        if seconds.len() == LOAD_MAX_REPS || start.elapsed() >= LOAD_BUDGET {
            return Ok((built, stats::median(&seconds)));
        }
        discard(built);
    }
}

/// Sets up [`SETUP_REPS`] times from the same seed, tearing each set-up down
/// before the next, and returns the last one with the medians of what
/// `times` reads off each: `(setup_s, load_s)`.
pub fn set_up_repeatedly<P>(
    mut prepare: impl FnMut() -> Result<P, String>,
    mut tear_down: impl FnMut(P),
    times: impl Fn(&P) -> (f64, f64),
) -> Result<(P, f64, f64), String> {
    let (mut setups, mut loads) = (Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..SETUP_REPS {
        if let Some(previous) = last.take() {
            tear_down(previous);
        }
        let prepared = prepare()?;
        let (setup_s, load_s) = times(&prepared);
        setups.push(setup_s);
        loads.push(load_s);
        last = Some(prepared);
    }
    let prepared = last.expect("SETUP_REPS > 0");
    Ok((prepared, stats::median(&setups), stats::median(&loads)))
}

/// One invocation: which workload, from which seed, for how long.
#[derive(Debug, Clone)]
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub threads: usize,
    /// Per-run scratch files; removed when the run ends.
    pub scratch: PathBuf,
    /// Where `<workload>.trace.json` goes.
    pub out_dir: PathBuf,
}

/// Runs one workload and returns its report; `Err` is a failure outside
/// the program under test (a bad workload name, an unwritable directory).
/// `tiny` shrinks every shape so the whole suite runs in seconds — for the
/// integration test, never the configuration a number is quoted from.
pub fn run(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
) -> Result<Report, String> {
    if !spec::workload_names().contains(&workload) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {}",
            spec::workload_names().join(", ")
        ));
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    let out_dir = host::output_dir();
    let scratch = host::ScratchDir::create(&out_dir, workload)
        .map_err(|e| format!("creating scratch under {}: {e}", out_dir.display()))?;
    let threads = host::load_threads();
    let run = Run {
        workload: workload.to_string(),
        seed,
        seconds,
        trace,
        threads,
        scratch: scratch.path().to_path_buf(),
        out_dir,
    };
    let mut report = Report::new(Context {
        workload: run.workload.clone(),
        seed,
        seconds,
        trace,
        threads,
        nproc: host::nproc(),
        isa: slide_kernels::dispatched_isa(slide_kernels::KernelMode::Vectorized),
        rev: host::git_rev(),
    });
    match workload {
        "train_kernel" => train::run(&train::TrainShape::kernel(tiny), &run, &mut report, false),
        "train_select" => train::run(&train::TrainShape::select(tiny), &run, &mut report, false),
        "train_disk" => train::run(&train::TrainShape::disk(tiny), &run, &mut report, true),
        "serve_single" => serve::run(&serve::ServeShape::single(tiny), &run, &mut report),
        "serve_batch" => serve::run(&serve::ServeShape::batch(tiny), &run, &mut report),
        "serve_cluster" => serve::run(&serve::ServeShape::cluster(tiny), &run, &mut report),
        _ => unreachable!("workload names are checked against the spec above"),
    }?;
    // Servers are shut down and corpora dropped by now.
    if !trace {
        report.set("peak_rss_mb", host::peak_rss_mb());
    }
    Ok(report)
}
