//! # slide-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! SLIDE paper's evaluation. Each binary under `src/bin/` prints one
//! table/figure as an aligned text table (and CSV with `--csv`); Criterion
//! benches under `benches/` cover the micro-benchmarks. Three binaries
//! are behaviour gates rather than figures — `hot_path`, `serve_rpc` and
//! `serve_chaos` — and exit nonzero under `--check` when a gate fails.

use std::time::Instant;

use slide_core::LshLayerConfig;
use slide_lsh::SamplingStrategy;

pub use slide_data::synth::Scale;

/// Paper-faithful LSH configuration scaled to the problem size.
///
/// The paper's settings (SimHash K=9 L=50, DWTA K=8 L=50, ~0.5% active
/// budget) are tuned for 205K–670K output neurons. At the harness's
/// smaller scales the same K makes per-table collision probabilities
/// (`p^K`) vanish and a 0.5% budget rounds to a handful of neurons, so we
/// relax K and the budget fraction as the scale shrinks — preserving the
/// *retrieval quality* the paper's configuration achieves at full scale.
pub fn scaled_lsh(simhash: bool, scale: Scale, labels: usize) -> LshLayerConfig {
    let (k, frac) = match scale {
        Scale::Smoke => (5, 0.05),
        Scale::Medium => (7, 0.02),
        Scale::Full => (if simhash { 9 } else { 8 }, 0.005),
    };
    let budget = ((labels as f64 * frac).ceil() as usize).clamp(16.min(labels), labels);
    let base = if simhash {
        LshLayerConfig::simhash(k, 50)
    } else {
        LshLayerConfig::dwta(k, 50)
    };
    base.with_strategy(SamplingStrategy::Vanilla { budget })
}

/// Command-line arguments shared by the figure and gate binaries.
#[derive(Debug, Clone)]
pub struct ExpArgs {
    /// Problem-size preset.
    pub scale: Scale,
    /// Emit CSV instead of an aligned table.
    pub csv: bool,
    /// Seed override (figure binaries only; `0` for gates).
    pub seed: u64,
    /// Exit nonzero when a behaviour gate fails (gate binaries only).
    pub check: bool,
}

impl ExpArgs {
    /// Parses a figure binary's `[scale|--smoke] [--csv] [--seed N]`
    /// from `std::env::args`.
    pub fn parse() -> Self {
        Self::parse_args(false)
    }

    /// Parses a behaviour gate's `[scale|--smoke] [--csv] [--check]`
    /// from `std::env::args`. Gates run fixed seeds, so `--seed` is
    /// rejected.
    pub fn parse_gate() -> Self {
        Self::parse_args(true)
    }

    fn parse_args(gate: bool) -> Self {
        let mut scale = Scale::Smoke;
        let mut csv = false;
        let mut seed = 0u64;
        let mut check = false;
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--csv" => csv = true,
                "--smoke" => scale = Scale::Smoke,
                "--check" if gate => check = true,
                "--seed" if !gate => {
                    seed = args
                        .next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| panic!("--seed requires a number"));
                }
                other => {
                    if let Some(s) = Scale::parse(other) {
                        scale = s;
                    } else {
                        let last = if gate { "--check" } else { "--seed N" };
                        panic!(
                            "unknown argument {other:?}; expected smoke|medium|full, --smoke, \
                             --csv, {last}"
                        );
                    }
                }
            }
        }
        Self {
            scale,
            csv,
            seed,
            check,
        }
    }
}

/// Aligned-table / CSV printer for experiment output.
#[derive(Debug)]
pub struct TablePrinter {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    csv: bool,
}

impl TablePrinter {
    /// Creates a printer with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>, csv: bool) -> Self {
        Self {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
            csv,
        }
    }

    /// Adds one row (must match the header count).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        if self.csv {
            println!("{}", self.headers.join(","));
            for r in &self.rows {
                println!("{}", r.join(","));
            }
            return;
        }
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            for (w, c) in widths.iter_mut().zip(r) {
                *w = (*w).max(c.len());
            }
        }
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        println!("{}", fmt_row(&self.headers));
        println!(
            "{}",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  ")
        );
        for r in &self.rows {
            println!("{}", fmt_row(r));
        }
    }
}

/// Times a closure, returning (result, seconds).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Thread counts to sweep, bounded by the machine (paper: 2…44). Never
/// empty: a single-core machine sweeps `[1]`.
pub fn thread_sweep() -> Vec<usize> {
    let max = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let mut sweep: Vec<usize> = [2usize, 4, 8, 16, 32, 44]
        .into_iter()
        .filter(|&t| t <= max)
        .collect();
    if sweep.is_empty() {
        sweep.push(max.max(1));
    }
    sweep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_printer_aligns() {
        let mut t = TablePrinter::new(vec!["a", "long_header"], false);
        t.row(vec!["1", "2"]);
        t.row(vec!["100", "20000"]);
        t.print(); // must not panic
        assert_eq!(t.rows.len(), 2);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_printer_checks_width() {
        let mut t = TablePrinter::new(vec!["a"], false);
        t.row(vec!["1", "2"]);
    }

    #[test]
    fn timed_measures() {
        let (v, s) = timed(|| 42);
        assert_eq!(v, 42);
        assert!(s >= 0.0);
    }

    #[test]
    fn thread_sweep_nonempty_and_sorted() {
        let ts = thread_sweep();
        assert!(!ts.is_empty());
        assert!(ts.windows(2).all(|w| w[0] < w[1]));
    }
}
