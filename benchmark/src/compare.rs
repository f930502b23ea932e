//! `slide-benchmark compare BASE.jsonl OTHER.jsonl …`: one row per
//! (end-to-end metric, workload) with each side's median and quartiles,
//! labelled against the bound the benchmark fixed. The tool the two-run-set
//! acceptance check and every later performance change use.
//!
//! A result file holds one summary per line, as `--out` appends them; the
//! i-th run of a workload in one file pairs with the i-th in the other, so
//! alternate which side runs first when producing them.

use std::collections::BTreeMap;

use slide_serve::json::{self, Json};

use crate::spec::{Better, END_TO_END, WORKLOADS};
use crate::stats::{median, quartiles};

/// Values of one metric on one workload, in run order.
type Series = BTreeMap<(String, String), Vec<f64>>;

#[derive(Debug, Default)]
pub struct ResultFile {
    pub series: Series,
    pub runs: usize,
    /// Runs that were not correct or had failed operations.
    pub failed_runs: usize,
}

pub fn parse_results(text: &str) -> Result<ResultFile, String> {
    let mut out = ResultFile::default();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let v = json::parse(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        let workload = v
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("line {}: no \"workload\"", n + 1))?;
        out.runs += 1;
        let correct = v.get("correct") == Some(&Json::Bool(true));
        let failed = v.get("failed").and_then(Json::as_u64).unwrap_or(1);
        out.failed_runs += (!correct || failed > 0) as usize;
        let Some(Json::Obj(metrics)) = v.get("metrics") else {
            return Err(format!("line {}: no \"metrics\"", n + 1));
        };
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("line {}: metric {name} has no value", n + 1))?;
            out.series
                .entry((name.clone(), workload.to_string()))
                .or_default()
                .push(value);
        }
    }
    Ok(out)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Label {
    Ok,
    /// Worse than the base median by more than the bound.
    Worse,
    /// A side's own quartile spread is wider than the bound, so the bound
    /// cannot tell a regression from noise.
    Unresolved,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    pub label: Label,
    /// Positive when `other` is better, as a share of the base median.
    pub gain: f64,
    /// Pairs `other` won, of those that did not tie.
    pub wins: usize,
    pub decided: usize,
    /// `other` won nine tenths of the decided pairs and the medians differ
    /// by more than the base's own quartile spread.
    pub gain_shown: bool,
}

fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs().max(1e-300)
}

pub fn judge(base: &[f64], other: &[f64], better: Better, bound: f64) -> Verdict {
    let (mb, mo) = (median(base), median(other));
    let sign = if better == Better::Higher { 1.0 } else { -1.0 };
    let gain = sign * (mo - mb) / mb.abs().max(1e-300);
    let pairs = base.iter().zip(other);
    let wins = pairs
        .clone()
        .filter(|(b, o)| sign * (*o - *b) > 0.0)
        .count();
    let decided = pairs.filter(|(b, o)| o != b).count();
    let (q1, q3) = quartiles(base);
    let gain_shown =
        decided > 0 && wins * 10 >= decided * 9 && (mo - mb).abs() > q3 - q1 && gain > 0.0;
    let label = if gain < -bound {
        Label::Worse
    } else if spread(base) > bound || spread(other) > bound {
        Label::Unresolved
    } else {
        Label::Ok
    };
    Verdict {
        label,
        gain,
        wins,
        decided,
        gain_shown,
    }
}

fn cell(values: &[f64]) -> String {
    let (q1, q3) = quartiles(values);
    format!(
        "{:.6} [{:.6}, {:.6}] n={}",
        median(values),
        q1,
        q3,
        values.len()
    )
}

/// Prints the comparison; returns whether every pair is `ok` and no run
/// failed.
pub fn compare(files: &[(String, ResultFile)]) -> bool {
    let (base_name, base) = &files[0];
    let mut clean = true;
    for (name, file) in files {
        println!(
            "{name}: {} runs, {} with failures",
            file.runs, file.failed_runs
        );
        clean &= file.failed_runs == 0;
    }
    for (other_name, other) in &files[1..] {
        println!("\n{base_name} (base) vs {other_name}");
        println!(
            "{:<16} {:<14} {:<11} {:>8}  {:>7}  base median [q1, q3] | other median [q1, q3]",
            "metric", "workload", "label", "gain", "wins"
        );
        for e in &END_TO_END {
            for w in &WORKLOADS {
                let key = (e.metric.name.to_string(), w.name.to_string());
                let (Some(b), Some(o)) = (base.series.get(&key), other.series.get(&key)) else {
                    continue;
                };
                let v = judge(b, o, e.metric.better, e.bound);
                clean &= v.label == Label::Ok;
                let label = match v.label {
                    Label::Ok if v.gain_shown => "ok+gain",
                    Label::Ok => "ok",
                    Label::Worse => "worse",
                    Label::Unresolved => "unresolved",
                };
                println!(
                    "{:<16} {:<14} {:<11} {:>+7.2}%  {:>3}/{:<3}  {} | {}",
                    e.metric.name,
                    w.name,
                    label,
                    v.gain * 100.0,
                    v.wins,
                    v.decided,
                    cell(b),
                    cell(o)
                );
            }
        }
    }
    clean
}

#[cfg(test)]
mod tests {
    use super::*;

    const HI: Better = Better::Higher;
    const LO: Better = Better::Lower;

    #[test]
    fn within_bound_is_ok_and_beyond_is_worse() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower = [93.0, 94.0, 92.0, 93.5, 92.5];
        assert_eq!(judge(&base, &base, HI, 0.05).label, Label::Ok);
        assert_eq!(judge(&base, &slower, HI, 0.10).label, Label::Ok);
        assert_eq!(judge(&base, &slower, HI, 0.05).label, Label::Worse);
        // Lower is better: the same numbers the other way round are a gain.
        let v = judge(&base, &slower, LO, 0.05);
        assert_eq!(v.label, Label::Ok);
        assert!(v.gain > 0.06 && v.gain_shown && v.wins == 5);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let noisy = [90.0, 110.0, 95.0, 105.0, 100.0];
        assert_eq!(judge(&noisy, &noisy, HI, 0.05).label, Label::Unresolved);
        assert_eq!(judge(&noisy, &noisy, HI, 0.25).label, Label::Ok);
    }

    #[test]
    fn a_gain_needs_nine_tenths_of_pairs_and_more_than_the_base_spread() {
        let base: Vec<f64> = (0..10).map(|i| 100.0 + i as f64 * 0.1).collect();
        let mut other: Vec<f64> = base.iter().map(|b| b + 5.0).collect();
        assert!(judge(&base, &other, HI, 0.1).gain_shown);
        other[0] = 90.0;
        other[1] = 90.0; // wins 8 of 10
        assert!(!judge(&base, &other, HI, 0.1).gain_shown);
        let tiny_shift: Vec<f64> = base.iter().map(|b| b + 0.01).collect();
        assert!(
            !judge(&base, &tiny_shift, HI, 0.1).gain_shown,
            "inside the base's own spread"
        );
    }

    #[test]
    fn result_lines_parse_into_series_and_failures_are_counted() {
        let text = "\
{\"workload\": \"serve_single\", \"correct\": true, \"failed\": 0, \"metrics\": {\"op_p50_us\": {\"value\": 140.5, \"unit\": \"us\"}}, \"claim\": null}\n\
\n\
{\"workload\": \"serve_single\", \"correct\": false, \"failed\": 2, \"metrics\": {\"op_p50_us\": {\"value\": 150, \"unit\": \"us\"}}, \"claim\": null}\n";
        let f = parse_results(text).unwrap();
        assert_eq!((f.runs, f.failed_runs), (2, 1));
        let key = ("op_p50_us".to_string(), "serve_single".to_string());
        assert_eq!(f.series[&key], vec![140.5, 150.0]);
        assert!(parse_results("{\"metrics\": {}}").is_err());
    }
}
