//! The benchmark's contract: workloads, metrics, units, directions and
//! regression bounds. `BENCHMARK.json` at the repo root is this table
//! rendered by `slide-benchmark spec`; a test keeps the two identical.

/// The driver's command; it appends `--workload --seed --seconds --trace`.
pub const COMMAND: [&str; 7] = [
    "cargo",
    "run",
    "--quiet",
    "--release",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// How long one run measures, seconds.
pub const RUN_SECONDS: u32 = 10;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "train_kernel",
        why: "wide active set (budget 1000 of 20000, K=6 L=12): fused forward/backward kernels dominate an example, so kernel and HOGWILD work shows and selection work must not",
    },
    Workload {
        name: "train_select",
        why: "the paper's SimHash K=9 L=50 at a 0.5% budget, tables rebuilt every 6 steps: hashing, probing and stop-the-world rebuilds dominate, kernel work barely shows",
    },
    Workload {
        name: "train_disk",
        why: "svmlight text to verified cache to mmap epochs under a microsecond-scale model: the data layer's write path beside its read path, where decode and per-batch dispatch are visible",
    },
    Workload {
        name: "serve_single",
        why: "single-input requests to one server, small model: the engine is a fifth of a round trip, so transport, parsing and queue hand-off show; the bypass for router work",
    },
    Workload {
        name: "serve_batch",
        why: "32-input requests to one server, 20000-label model: retrieval and batched scoring dominate and bodies are 32x larger, so engine and codec-size work shows, transport barely",
    },
    Workload {
        name: "serve_cluster",
        why: "serve_single's model and requests through a router over 4 output-layer shards: scatter/gather is the cost, the workload for moving the router onto the event loop",
    },
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

pub struct EndToEnd {
    pub metric: Metric,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

const fn hi(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Higher,
    }
}

const fn lo(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
    }
}

/// Every workload reports every one of these (README.md defines each per
/// workload family). Failures are not a metric here: they are the
/// `failed` ÷ `attempted` of the result line.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        metric: lo("setup_s", "s"),
        bound: 0.25,
    },
    EndToEnd {
        metric: lo("load_s", "s"),
        bound: 0.25,
    },
    EndToEnd {
        metric: hi("examples_per_s", "1/s"),
        bound: 0.25,
    },
    EndToEnd {
        metric: hi("p_at_1", "fraction"),
        bound: 0.25,
    },
    EndToEnd {
        metric: lo("op_p50_us", "us"),
        bound: 0.25,
    },
    EndToEnd {
        metric: lo("op_tail_us", "us"),
        bound: 0.25,
    },
    EndToEnd {
        metric: lo("peak_rss_mb", "MB"),
        bound: 0.15,
    },
];

/// Measured from outside each layer in the traced run. A layer the
/// workload never calls reports 0.
pub const PER_LAYER: [Metric; 53] = [
    lo("selector.hash_s", "s"),
    lo("selector.probe_s", "s"),
    lo("selector.active_per_example", "count"),
    lo("network.forward_s", "s"),
    lo("network.backward_s", "s"),
    lo("layer.rebuild_s", "s"),
    lo("layer.rebuilds", "count"),
    lo("lsh.avg_bucket_load", "count"),
    lo("lsh.full_bucket_share", "fraction"),
    lo("kernels.gather_dot_ns", "ns"),
    lo("kernels.adam_step_gather_ns", "ns"),
    lo("kernels.project_dense_ns", "ns"),
    hi("trainer.examples_per_s_1t", "1/s"),
    hi("trainer.scaling_x", "ratio"),
    hi("trainer.utilization", "fraction"),
    lo("trainer.weight_touches_per_example", "count"),
    lo("trainer.compute_ops_per_example", "count"),
    lo("trainer.final_loss", "nats"),
    lo("stream.parse_s", "s"),
    lo("cache.build_s", "s"),
    lo("cache.bytes_per_example", "bytes"),
    hi("cache.ingest_mb_per_s", "MB/s"),
    lo("source.open_verify_s", "s"),
    lo("source.read_into_ns", "ns"),
    lo("source.epoch_share", "fraction"),
    lo("snapshot.bytes", "bytes"),
    lo("snapshot.load_s", "s"),
    lo("snapshot.slice_s", "s"),
    lo("wire.encode_request_us", "us"),
    lo("conn.parse_us", "us"),
    lo("wire.decode_request_us", "us"),
    lo("wire.encode_response_us", "us"),
    lo("wire.decode_response_us", "us"),
    lo("engine.predict_us", "us"),
    lo("inference.select_us", "us"),
    lo("inference.score_us", "us"),
    lo("engine.candidates_per_example", "count"),
    lo("engine.dense_fallback_share", "fraction"),
    hi("engine.retrieval_agreement", "fraction"),
    lo("batch.queue_wait_us", "us"),
    hi("batch.mean_batch", "count"),
    lo("batch.rejected_share", "fraction"),
    lo("http.transport_us", "us"),
    hi("http.responses_2xx", "count"),
    lo("http.responses_4xx", "count"),
    lo("http.responses_5xx", "count"),
    lo("router.shard_us", "us"),
    lo("router.overhead_us", "us"),
    lo("router.overhead_x", "ratio"),
    hi("router.merged", "count"),
    lo("router.shard_errors", "count"),
    lo("trace.overhead_share", "fraction"),
    hi("trace.coverage_share", "fraction"),
];

pub fn workload_names() -> Vec<&'static str> {
    WORKLOADS.iter().map(|w| w.name).collect()
}

/// The metrics a run in the given mode must report, in order.
pub fn metrics_for(trace: bool) -> Vec<&'static Metric> {
    if trace {
        PER_LAYER.iter().collect()
    } else {
        END_TO_END.iter().map(|e| &e.metric).collect()
    }
}

/// `BENCHMARK.json`, byte for byte.
pub fn render_benchmark_json() -> String {
    let quote = |s: &str| format!("\"{s}\"");
    let mut out = String::from("{\n");
    let command: Vec<String> = COMMAND.iter().map(|c| quote(c)).collect();
    out.push_str(&format!("  \"command\": [{}],\n", command.join(", ")));
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    out.push_str(&format!(
        "  \"workloads\": [\n{}\n  ],\n",
        workloads.join(",\n")
    ));
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|e| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                e.metric.name,
                e.metric.unit,
                e.metric.better.as_str(),
                e.bound
            )
        })
        .collect();
    out.push_str(&format!(
        "  \"end_to_end\": [\n{}\n  ],\n",
        end_to_end.join(",\n")
    ));
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            )
        })
        .collect();
    out.push_str(&format!(
        "  \"per_layer\": [\n{}\n  ]\n}}\n",
        per_layer.join(",\n")
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn charset_ok(s: &str, extra: &str, max: usize) -> bool {
        !s.is_empty()
            && s.len() <= max
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn names_units_and_whys_fit_the_contract() {
        let mut names: Vec<&str> = workload_names();
        names.extend(END_TO_END.iter().map(|e| e.metric.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(charset_ok(n, "_.-", 64), "name {n:?}");
            assert!(n.chars().next().unwrap().is_ascii_alphanumeric(), "{n:?}");
        }
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for m in metrics_for(false).into_iter().chain(metrics_for(true)) {
            assert!(charset_ok(m.unit, "_/%.-", 16), "unit {:?}", m.unit);
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains(['\n', '"', '\\']));
        }
        for e in &END_TO_END {
            assert!(e.bound > 0.0 && e.bound <= 0.25, "{}", e.metric.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|e| e.metric.name == "setup_s" && e.metric.unit == "s" && e.bound == 0.25));
        assert!(render_benchmark_json().len() < 64 << 10);
    }
}
