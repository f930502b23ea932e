//! One run's result: operations attempted and failed, the mode's metrics,
//! and the context a reader needs to repeat it.

use std::fmt::Write as _;

use crate::spec::{self, Metric};

/// What every run prints beside its numbers.
#[derive(Debug, Clone)]
pub struct Context {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// `T = min(nproc, 4)` trainer threads / client connections.
    pub threads: usize,
    pub nproc: usize,
    pub isa: &'static str,
    pub rev: String,
}

#[derive(Debug)]
pub struct Report {
    pub context: Context,
    pub attempted: u64,
    pub failed: u64,
    /// Gates that are not operations (a P@1 floor, a phase-sum check).
    pub gate_failures: Vec<String>,
    /// Sample counts and other facts printed beside the metrics.
    pub notes: Vec<String>,
    values: Vec<(&'static Metric, Option<f64>)>,
}

impl Report {
    pub fn new(context: Context) -> Self {
        let values = spec::metrics_for(context.trace)
            .into_iter()
            .map(|m| (m, None))
            .collect();
        Self {
            context,
            attempted: 0,
            failed: 0,
            gate_failures: Vec::new(),
            notes: Vec::new(),
            values,
        }
    }

    /// Records a metric of this run's mode.
    ///
    /// # Panics
    ///
    /// Panics on a name the mode does not declare, a second value for one
    /// name, or a non-finite value: each is a bug in a workload.
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        let slot = self
            .values
            .iter_mut()
            .find(|(m, _)| m.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared for this mode"));
        assert!(slot.1.is_none(), "metric {name} set twice");
        slot.1 = Some(value);
    }

    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    pub fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Fails the run without counting an operation.
    pub fn gate(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.gate_failures.push(what.into());
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.gate_failures.is_empty() && self.attempted > 0
    }

    /// The value recorded for `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(m, _)| m.name == name)
            .and_then(|(_, v)| *v)
    }

    /// Names in declaration order with their values. An end-to-end metric
    /// left unset is a bug; a per-layer metric left unset belongs to a
    /// layer this workload never calls and reads 0.
    fn resolved(&self) -> Vec<(&'static Metric, f64)> {
        self.values
            .iter()
            .map(|&(m, v)| match v {
                Some(v) => (m, v),
                None if self.context.trace => (m, 0.0),
                None => panic!("end-to-end metric {} was never set", m.name),
            })
            .collect()
    }

    fn metrics_json(&self) -> String {
        let fields: Vec<String> = self
            .resolved()
            .iter()
            .map(|(m, v)| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(*v),
                    m.unit
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    /// The line the driver reads: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            self.metrics_json()
        )
    }

    /// The result file `compare` reads: the result line's fields plus the
    /// run's context. This issue defines the benchmark and claims no gain.
    pub fn summary_json(&self) -> String {
        let c = &self.context;
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"threads\": {}, \"nproc\": {}, \"isa\": \"{}\", \"rev\": \"{}\", \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}, \"claim\": null}}",
            c.workload,
            c.seed,
            json_number(c.seconds),
            c.trace,
            c.threads,
            c.nproc,
            c.isa,
            c.rev,
            self.correct(),
            self.attempted.max(1),
            self.failed,
            self.metrics_json()
        )
    }

    /// Every metric by name with its unit, then notes and failures.
    pub fn table(&self) -> String {
        let c = &self.context;
        let mut out = format!(
            "slide-benchmark workload={} seed={} seconds={} trace={} T={} nproc={} isa={} rev={}\n",
            c.workload, c.seed, c.seconds, c.trace as u8, c.threads, c.nproc, c.isa, c.rev
        );
        for (m, v) in self.resolved() {
            let _ = writeln!(out, "  {:<38} {:>16} {}", m.name, human(v), m.unit);
        }
        let share = self.failed as f64 / self.attempted.max(1) as f64;
        let _ = writeln!(
            out,
            "  failed_share {share} ({} of {} operations)",
            self.failed, self.attempted
        );
        for n in &self.notes {
            let _ = writeln!(out, "  note: {n}");
        }
        for g in &self.gate_failures {
            let _ = writeln!(out, "  FAILED GATE: {g}");
        }
        out
    }
}

/// A value as measured, with all its digits.
fn json_number(v: f64) -> String {
    // `{}` prints the shortest decimal that round-trips; it never uses an
    // exponent, so the output is always a JSON number.
    format!("{v}")
}

fn human(v: f64) -> String {
    if v == 0.0 || v.abs() >= 1000.0 {
        format!("{v:.1}")
    } else if v.abs() >= 1.0 {
        format!("{v:.3}")
    } else {
        format!("{v:.6}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn context(trace: bool) -> Context {
        Context {
            workload: "train_kernel".into(),
            seed: 1,
            seconds: 10.0,
            trace,
            threads: 2,
            nproc: 2,
            isa: "avx2+fma",
            rev: "unknown".into(),
        }
    }

    #[test]
    fn result_line_has_every_metric_of_its_mode_and_only_those() {
        let mut r = Report::new(context(true));
        r.count(10, 0);
        r.set("selector.hash_s", 0.125);
        let line = r.result_line();
        let parsed = slide_serve::json::parse(&line).expect("valid json");
        let metrics = parsed.get("metrics").expect("metrics");
        for m in spec::metrics_for(true) {
            let v = metrics.get(m.name).unwrap_or_else(|| panic!("{}", m.name));
            assert_eq!(v.get("unit").and_then(|u| u.as_str()), Some(m.unit));
        }
        for m in spec::metrics_for(false) {
            assert!(metrics.get(m.name).is_none());
        }
        let hash = metrics.get("selector.hash_s").and_then(|m| m.get("value"));
        assert_eq!(hash.and_then(|v| v.as_f64()), Some(0.125));
        assert_eq!(
            parsed.get("correct"),
            Some(&slide_serve::json::Json::Bool(true))
        );
        assert!(r.summary_json().ends_with("\"claim\": null}"));
    }

    #[test]
    fn failures_and_gates_make_the_run_incorrect() {
        let mut r = Report::new(context(true));
        assert!(!r.correct(), "nothing attempted");
        r.count(5, 0);
        assert!(r.correct());
        r.gate(false, "p_at_1 below floor");
        assert!(!r.correct());
        let mut r = Report::new(context(true));
        r.count(5, 1);
        assert!(!r.correct());
    }

    #[test]
    #[should_panic(expected = "never set")]
    fn an_unset_end_to_end_metric_is_a_bug() {
        let mut r = Report::new(context(false));
        r.count(1, 0);
        let _ = r.result_line();
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn a_metric_of_the_other_mode_is_rejected() {
        Report::new(context(false)).set("selector.hash_s", 1.0);
    }
}
