//! The benchmark against its own contract: `BENCHMARK.json` and the binary
//! name the same workloads and metrics, both ways, and every workload runs
//! (at the shrunken test scale) with correct outputs in both modes.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

use slide_benchmark::{run, spec};
use slide_serve::json::{self, Json};

fn benchmark_json() -> (String, Json) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
    let parsed = json::parse(&text).expect("BENCHMARK.json parses");
    (text, parsed)
}

fn names(list: &Json) -> Vec<(String, String)> {
    list.as_array()
        .expect("a list")
        .iter()
        .map(|e| {
            let field = |k: &str| {
                e.get(k)
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn benchmark_json_is_the_spec_rendered() {
    let (text, parsed) = benchmark_json();
    assert_eq!(
        text,
        spec::render_benchmark_json(),
        "run `slide-benchmark spec > BENCHMARK.json`"
    );
    let Json::Obj(members) = &parsed else {
        panic!("not an object")
    };
    let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
}

/// Every workload, both modes: the result line names exactly the metrics
/// `BENCHMARK.json` declares for the mode, with their units, and every
/// output was correct. Across the six traced runs every per-layer metric
/// is measured by at least one workload.
#[test]
fn every_workload_reports_exactly_the_declared_metrics() {
    let (_, contract) = benchmark_json();
    let workloads = names(contract.get("workloads").expect("workloads"));
    assert_eq!(workloads.len(), 6);
    let mut measured: BTreeSet<String> = BTreeSet::new();
    for (workload, _) in &workloads {
        for trace in [false, true] {
            let report =
                run(workload, 3, 0.3, trace, true).unwrap_or_else(|e| panic!("{workload}: {e}"));
            assert!(
                report.correct(),
                "{workload} trace={trace}:\n{}",
                report.table()
            );
            let line = json::parse(&report.result_line()).expect("result line parses");
            let Json::Obj(top) = &line else {
                panic!("not an object")
            };
            let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert!(line.get("attempted").and_then(Json::as_u64).unwrap() >= 1);
            let Some(Json::Obj(metrics)) = line.get("metrics") else {
                panic!("no metrics")
            };
            let got: Vec<(String, String)> = metrics
                .iter()
                .map(|(k, v)| {
                    (
                        k.clone(),
                        v.get("unit").and_then(Json::as_str).unwrap().to_string(),
                    )
                })
                .collect();
            let key = if trace { "per_layer" } else { "end_to_end" };
            assert_eq!(
                got,
                names(contract.get(key).unwrap()),
                "{workload} trace={trace}"
            );
            for (name, v) in metrics {
                let value = v.get("value").and_then(Json::as_f64).expect("a number");
                assert!(
                    trace || value > 0.0,
                    "{workload}: end-to-end {name} is {value}"
                );
                if trace && report.get(name).is_some() {
                    measured.insert(name.clone());
                }
            }
            if trace {
                let file =
                    slide_benchmark::host::output_dir().join(format!("{workload}.trace.json"));
                let spans = json::parse(&std::fs::read_to_string(&file).expect("trace file"))
                    .expect("trace parses");
                assert!(!spans
                    .get("spans")
                    .and_then(Json::as_array)
                    .unwrap()
                    .is_empty());
            }
        }
    }
    let declared: BTreeSet<String> = spec::PER_LAYER.iter().map(|m| m.name.to_string()).collect();
    assert_eq!(
        measured, declared,
        "a declared per-layer metric no workload measures"
    );
}

#[test]
fn the_binary_refuses_bad_arguments_without_printing_a_result() {
    let exe = env!("CARGO_BIN_EXE_slide-benchmark");
    for args in [
        &["--workload", "no_such"][..],
        &["--trace", "2"],
        &["--seconds"],
        &["compare", "only-one"],
    ] {
        let out = Command::new(exe).args(args).output().expect("spawn");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
    let spec_out = Command::new(exe).arg("spec").output().expect("spawn");
    assert_eq!(
        String::from_utf8(spec_out.stdout).unwrap(),
        benchmark_json().0
    );
}
