//! **Connection-fleet drill**: the event-loop HTTP front-end under
//! cross-connection load, failing (`--check`) on any failed request or
//! any sign that singles from different connections stop coalescing.
//!
//! Two phases over a trained model frozen as an i16-quantized (`q16`)
//! snapshot:
//!
//! 1. **coalesced** — hundreds of simultaneous keep-alive connections
//!    each issuing *single* predicts in bursts. The admission queue must
//!    fuse those singles from different connections into multi-row batch
//!    passes; `--check` fails if the mean coalesced batch stays ≤ 1 or
//!    any request fails;
//! 2. **sustained** (medium/full only) — the connection-scaling drill:
//!    10K simultaneous keep-alive connections against the same server,
//!    proving the readiness loop holds a five-digit fleet without a
//!    thread per connection. Throughput is reported but not the point —
//!    `--check` fails on any failed request or dropped connection.
//!
//! ```sh
//! cargo run -p slide-bench --release --bin serve_rpc -- [smoke|medium|full] [--csv] [--check]
//! # CI smoke drill:
//! cargo run -p slide-bench --release --bin serve_rpc -- --smoke --check
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use slide_bench::{ExpArgs, Scale, TablePrinter};
use slide_core::config::{LshLayerConfig, NetworkConfig};
use slide_core::trainer::{SlideTrainer, TrainOptions};
use slide_data::synth::{generate, SyntheticConfig};
use slide_data::SparseVector;
use slide_serve::http::{HttpOptions, HttpServer};
use slide_serve::{EngineHandle, ServeOptions};

struct BenchConfig {
    features: usize,
    labels: usize,
    hidden: usize,
    train_size: usize,
    epochs: usize,
    /// Simultaneous keep-alive connections in the coalesced phase.
    coalesce_conns: usize,
    /// Client threads multiplexing those connections.
    coalesce_threads: usize,
    /// Burst rounds (one single predict per connection per round).
    coalesce_rounds: usize,
    /// Connections in the sustain drill (0 skips the phase). Kept apart
    /// from the coalesced phase: at 10K connections on a small box the
    /// client fleet's own socket work competes with the server for CPU,
    /// which measures contention, not coalescing throughput.
    sustain_conns: usize,
    /// Client threads in the sustain drill.
    sustain_threads: usize,
    /// Burst rounds in the sustain drill.
    sustain_rounds: usize,
}

impl BenchConfig {
    fn for_scale(scale: Scale) -> Self {
        match scale {
            Scale::Smoke => Self {
                features: 200,
                labels: 100,
                hidden: 24,
                train_size: 600,
                epochs: 1,
                coalesce_conns: 300,
                coalesce_threads: 6,
                coalesce_rounds: 8,
                sustain_conns: 0,
                sustain_threads: 0,
                sustain_rounds: 0,
            },
            Scale::Medium => Self {
                features: 600,
                labels: 1_000,
                hidden: 64,
                train_size: 2_000,
                epochs: 2,
                coalesce_conns: 512,
                coalesce_threads: 4,
                coalesce_rounds: 40,
                sustain_conns: 10_000,
                sustain_threads: 16,
                sustain_rounds: 4,
            },
            Scale::Full => Self {
                features: 2_000,
                labels: 10_000,
                hidden: 128,
                train_size: 8_000,
                epochs: 3,
                coalesce_conns: 512,
                coalesce_threads: 8,
                coalesce_rounds: 80,
                sustain_conns: 10_000,
                sustain_threads: 16,
                sustain_rounds: 8,
            },
        }
    }
}

fn percentile(sorted_us: &[f64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_us.len() - 1) as f64 * p).round() as usize;
    sorted_us[idx]
}

#[derive(Debug, Clone, Copy)]
struct CoalescedPhase {
    connections: usize,
    requests: u64,
    failures: u64,
    wall_s: f64,
    p50_us: f64,
    p99_us: f64,
    mean_coalesced_batch: f64,
    largest_batch: u64,
}

/// Reads one HTTP response off a raw keep-alive socket; returns the
/// status, or `None` on any transport/parse problem.
fn read_raw_response(reader: &mut std::io::BufReader<std::net::TcpStream>) -> Option<u16> {
    use std::io::{BufRead, Read};
    let mut line = String::new();
    if reader.read_line(&mut line).ok()? == 0 {
        return None;
    }
    let status: u16 = line.split_whitespace().nth(1)?.parse().ok()?;
    let mut content_length = 0usize;
    loop {
        let mut h = String::new();
        reader.read_line(&mut h).ok()?;
        let h = h.trim_end();
        if h.is_empty() {
            break;
        }
        if let Some((name, value)) = h.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().ok()?;
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).ok()?;
    Some(status)
}

/// The client half of the coalescing drill, run in a CHILD process (the
/// hidden `--coalesce-client` mode): this container caps every process
/// at a hard `RLIMIT_NOFILE`, and 10K connections cost 2 fds each when
/// both ends share a process. A child gives the fleet its own fd budget
/// and leaves the parent's entirely to the server.
///
/// Prints one machine-parseable `COALESCE ...` line on stdout and exits.
fn coalesce_client_main(args: &[String]) -> ! {
    use std::io::Write;
    let (addr, conns, threads, rounds, bodies_path) = match args {
        [a, c, t, r, p] => (
            a.parse::<std::net::SocketAddr>().expect("client addr"),
            c.parse::<usize>().expect("client conns"),
            t.parse::<usize>().expect("client threads"),
            r.parse::<usize>().expect("client rounds"),
            p.clone(),
        ),
        _ => panic!("--coalesce-client ADDR CONNS THREADS ROUNDS BODIES_FILE"),
    };
    slide_serve::net::raise_nofile_limit(conns as u64 + 1024).ok();
    // Length-prefixed request blobs prepared by the parent (the child
    // has no model or dataset to encode from).
    let raw = std::fs::read(&bodies_path).expect("bodies file");
    let mut bodies: Vec<Vec<u8>> = Vec::new();
    let mut at = 0usize;
    while at + 4 <= raw.len() {
        let len = u32::from_le_bytes(raw[at..at + 4].try_into().unwrap()) as usize;
        at += 4;
        bodies.push(raw[at..at + len].to_vec());
        at += len;
    }
    let bodies = Arc::new(bodies);
    let per_thread = conns.div_ceil(threads);
    // Dialing thousands of connections is setup, not serving: every
    // thread parks on the barrier once its share is connected, and the
    // clock starts when the whole fleet is up.
    let ready = Arc::new(std::sync::Barrier::new(threads + 1));
    let workers: Vec<_> = (0..threads)
        .map(|t| {
            let bodies = Arc::clone(&bodies);
            let ready = Arc::clone(&ready);
            let conns_here = per_thread.min(conns.saturating_sub(t * per_thread));
            std::thread::spawn(move || {
                let mut failures = 0u64;
                let mut requests = 0u64;
                let mut lat_us: Vec<f64> = Vec::with_capacity(conns_here * rounds);
                // Dial this thread's share, with retries: thousands of
                // concurrent connects can transiently overflow the
                // accept backlog. Failures count, never panic — a dead
                // thread would deadlock the barrier.
                let mut fleet = Vec::with_capacity(conns_here);
                for _ in 0..conns_here {
                    let mut dialed = None;
                    for attempt in 0..50u64 {
                        match std::net::TcpStream::connect(addr) {
                            Ok(s) => {
                                dialed = Some(s);
                                break;
                            }
                            Err(_) => std::thread::sleep(Duration::from_millis(attempt + 1)),
                        }
                    }
                    let conn = dialed.map(|s| {
                        s.set_nodelay(true).ok();
                        // A bound on every blocking op: a server bug must
                        // surface as a counted failure, not a hang.
                        s.set_read_timeout(Some(Duration::from_secs(60))).ok();
                        s.set_write_timeout(Some(Duration::from_secs(60))).ok();
                        // The reader owns the stream; writes go through
                        // `get_ref()`. One fd per connection — a
                        // `try_clone` here would double the fleet's fd
                        // bill and bust the process hard cap at 10K conns.
                        std::io::BufReader::with_capacity(512, s)
                    });
                    match conn {
                        Some(c) => fleet.push(Some(c)),
                        None => failures += 1,
                    }
                }
                ready.wait();
                for round in 0..rounds {
                    let round_start = Instant::now();
                    // Burst: one request down every connection...
                    for (i, slot) in fleet.iter_mut().enumerate() {
                        if let Some(reader) = slot {
                            let req = &bodies[(t * 131 + round * 17 + i) % bodies.len()];
                            requests += 1;
                            if reader.get_ref().write_all(req).is_err() {
                                failures += 1;
                                *slot = None;
                            }
                        }
                    }
                    // ... then collect every answer. Responses queue in
                    // kernel buffers while later ones are read, so the
                    // measured latency is the client-observed burst
                    // drain, not a per-request RTT.
                    for slot in fleet.iter_mut() {
                        if let Some(reader) = slot {
                            match read_raw_response(reader) {
                                Some(200) => {
                                    lat_us.push(round_start.elapsed().as_secs_f64() * 1e6);
                                }
                                _ => {
                                    failures += 1;
                                    *slot = None;
                                }
                            }
                        }
                    }
                }
                (requests, failures, lat_us)
            })
        })
        .collect();
    ready.wait();
    let t0 = Instant::now();
    let mut requests = 0u64;
    let mut failures = 0u64;
    let mut lat_us: Vec<f64> = Vec::new();
    for w in workers {
        let (r, f, mut l) = w.join().expect("client thread");
        requests += r;
        failures += f;
        lat_us.append(&mut l);
    }
    let wall_s = t0.elapsed().as_secs_f64();
    lat_us.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    println!(
        "COALESCE requests={} failures={} wall_s={:.6} p50_us={:.1} p99_us={:.1}",
        requests,
        failures,
        wall_s,
        percentile(&lat_us, 0.50),
        percentile(&lat_us, 0.99),
    );
    let _ = std::io::stdout().flush();
    std::process::exit(0);
}

/// The cross-connection micro-batching drill: `coalesce_conns`
/// simultaneous keep-alive connections (multiplexed over a few client
/// threads in a child process — the *server* must not need a thread per
/// connection), each burst-writing one single predict per round, then
/// collecting all the answers. Concurrent singles from different
/// connections hit the shared admission queue together, so the server's
/// drains must coalesce them into multi-row fused batches.
fn run_coalesced(
    addr: std::net::SocketAddr,
    inputs: &Arc<Vec<SparseVector>>,
    conns: usize,
    threads: usize,
    rounds: usize,
    server: &HttpServer,
) -> CoalescedPhase {
    let before = server.batch_stats();
    // Pre-encode request bytes once; every connection rotates through
    // them. Shipped to the client child as length-prefixed blobs.
    let mut framed = Vec::new();
    for f in inputs.iter().take(64) {
        let body = slide_serve::wire::encode_predict_request(&slide_serve::PredictRequest {
            inputs: vec![f.clone()],
            top_k: Some(5),
        });
        let req = format!(
            "POST /v1/predict HTTP/1.1\r\nContent-Length: {}\r\n\r\n{}",
            body.len(),
            body
        );
        framed.extend_from_slice(&(req.len() as u32).to_le_bytes());
        framed.extend_from_slice(req.as_bytes());
    }
    let bodies_path =
        std::env::temp_dir().join(format!("slide_serve_rpc_bodies_{}.bin", std::process::id()));
    std::fs::write(&bodies_path, &framed).expect("write bodies file");

    let exe = std::env::current_exe().expect("own binary path");
    let output = std::process::Command::new(exe)
        .args([
            "--coalesce-client",
            &addr.to_string(),
            &conns.to_string(),
            &threads.to_string(),
            &rounds.to_string(),
            bodies_path.to_str().expect("utf-8 temp path"),
        ])
        .output()
        .expect("spawn coalesce client");
    std::fs::remove_file(&bodies_path).ok();
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .find(|l| l.starts_with("COALESCE "))
        .unwrap_or_else(|| {
            panic!(
                "coalesce client produced no report (status {:?}):\n{}\n{}",
                output.status,
                stdout,
                String::from_utf8_lossy(&output.stderr)
            )
        });
    let field = |key: &str| -> f64 {
        line.split_whitespace()
            .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('=')?.parse().ok())
            .unwrap_or_else(|| panic!("missing {key} in {line:?}"))
    };
    let after = server.batch_stats();
    let jobs = after.requests - before.requests;
    let batches = after.batches - before.batches;
    CoalescedPhase {
        connections: conns,
        requests: field("requests") as u64,
        failures: field("failures") as u64,
        wall_s: field("wall_s"),
        p50_us: field("p50_us"),
        p99_us: field("p99_us"),
        mean_coalesced_batch: jobs as f64 / batches.max(1) as f64,
        largest_batch: after.largest_batch,
    }
}

fn main() {
    // Hidden child mode for the coalescing drill (see
    // `coalesce_client_main`); never part of the public CLI surface.
    let raw_args: Vec<String> = std::env::args().skip(1).collect();
    if raw_args.first().map(String::as_str) == Some("--coalesce-client") {
        coalesce_client_main(&raw_args[1..]);
    }
    let ExpArgs {
        scale, csv, check, ..
    } = ExpArgs::parse_gate();
    let cfg = BenchConfig::for_scale(scale);
    eprintln!(
        "serve_rpc {scale}: {} classes x {} features, {} connections",
        cfg.labels, cfg.features, cfg.coalesce_conns
    );

    let mut synth = SyntheticConfig::delicious_like(Scale::Smoke).with_seed(0x5EC7);
    synth.feature_dim = cfg.features;
    synth.label_dim = cfg.labels;
    synth.train_size = cfg.train_size;
    synth.test_size = 256;
    let data = generate(&synth);
    let net_config = NetworkConfig::builder(data.train.feature_dim(), data.train.label_dim())
        .hidden(cfg.hidden)
        .output_lsh(LshLayerConfig::simhash(4, 16).with_tables(10, cfg.labels))
        .learning_rate(2e-3)
        .seed(0xBE11)
        .build()
        .expect("valid config");
    let mut trainer = SlideTrainer::new(net_config).expect("valid network");
    trainer.train(
        &data.train,
        &TrainOptions::new(cfg.epochs).batch_size(64).seed(7),
    );
    let q16_bytes = trainer.network().to_quantized_snapshot_bytes();

    let inputs: Arc<Vec<SparseVector>> = Arc::new(
        data.test
            .iter()
            .map(|ex| ex.features.clone())
            .collect::<Vec<_>>(),
    );

    // The client fleet runs in a child process with its own fd budget;
    // this process only holds the server ends.
    eprintln!(
        "coalesced: {} keep-alive connections ...",
        cfg.coalesce_conns
    );
    let fleet_cap = cfg.coalesce_conns.max(cfg.sustain_conns);
    slide_serve::net::raise_nofile_limit(fleet_cap as u64 + 4096).ok();
    let options = ServeOptions::default().with_top_k(5);
    let handle = Arc::new(EngineHandle::new(
        slide_serve::ServingEngine::from_snapshot_bytes(&q16_bytes, options).expect("q16 engine"),
    ));
    let server = HttpServer::serve(
        Arc::clone(&handle),
        "127.0.0.1:0",
        HttpOptions {
            max_connections: fleet_cap + 64,
            // Sized for the burst: the whole connection fleet may have a
            // single in flight at once, and overflow here would turn the
            // drill's zero-failure gate into a tautology about 429s.
            queue_capacity: 2 * fleet_cap,
            // 64-deep drains won this box's sweep: two workers (or
            // 256-deep drains) just trade event-loop time for worker
            // time on one core and lose ~20%.
            max_batch: 64,
            workers: 1,
            ..HttpOptions::default()
        },
    )
    .expect("bind coalesce server");
    let coalesced = run_coalesced(
        server.local_addr(),
        &inputs,
        cfg.coalesce_conns,
        cfg.coalesce_threads,
        cfg.coalesce_rounds,
        &server,
    );
    let sustained = (cfg.sustain_conns > 0).then(|| {
        eprintln!(
            "sustained: {} keep-alive connections ...",
            cfg.sustain_conns
        );
        run_coalesced(
            server.local_addr(),
            &inputs,
            cfg.sustain_conns,
            cfg.sustain_threads,
            cfg.sustain_rounds,
            &server,
        )
    });
    let http = server.stats();
    server.shutdown();

    let mut printer = TablePrinter::new(
        vec![
            "phase",
            "conns",
            "requests",
            "failures",
            "req/s",
            "mean_batch",
            "largest",
            "p50_us",
            "p99_us",
        ],
        csv,
    );
    for (name, phase) in
        std::iter::once(("coalesced", &coalesced)).chain(sustained.iter().map(|s| ("sustained", s)))
    {
        printer.row(vec![
            name.to_string(),
            phase.connections.to_string(),
            phase.requests.to_string(),
            phase.failures.to_string(),
            format!("{:.0}", phase.requests as f64 / phase.wall_s.max(1e-12)),
            format!("{:.2}", phase.mean_coalesced_batch),
            phase.largest_batch.to_string(),
            format!("{:.1}", phase.p50_us),
            format!("{:.1}", phase.p99_us),
        ]);
    }
    printer.print();
    println!(
        "http: {} connections, {} requests, 2xx={} 4xx={} 5xx={}",
        http.connections, http.requests, http.responses_2xx, http.responses_4xx, http.responses_5xx
    );

    if check {
        let mut failed = false;
        if http.responses_4xx > 0 || http.responses_5xx > 0 {
            eprintln!(
                "FAIL: fleet server answered non-2xx (4xx {}, 5xx {})",
                http.responses_4xx, http.responses_5xx
            );
            failed = true;
        }
        if coalesced.failures > 0 {
            eprintln!(
                "FAIL: coalesced phase saw {} client failures",
                coalesced.failures
            );
            failed = true;
        }
        if coalesced.mean_coalesced_batch <= 1.0 {
            eprintln!(
                "FAIL: singles never coalesced across connections (mean batch {:.3})",
                coalesced.mean_coalesced_batch
            );
            failed = true;
        }
        if let Some(s) = &sustained {
            if s.failures > 0 {
                eprintln!(
                    "FAIL: sustained fleet dropped connections or requests ({} failures at {} conns)",
                    s.failures, s.connections
                );
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
        eprintln!(
            "check passed: zero failures, coalesced mean batch {:.2} > 1",
            coalesced.mean_coalesced_batch
        );
    }
}
