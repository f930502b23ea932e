//! **Chaos drill**: proves the serving stack's fault-tolerance story
//! end to end — with `--check`, every recovery path must actually
//! recover, and no fault may ever corrupt an answer.
//!
//! Four phases over a trained, snapshot-frozen model (reference answers
//! are computed engine-side first; every 200 the chaos phases receive
//! must be bit-identical to them):
//!
//! 1. **panics** — the fault plan injects worker panics under a live
//!    client. Each poisoned drain must answer a *typed* `500
//!    worker_panicked` (never a hang, never a wrong answer), the
//!    supervisor must respawn every panicked worker, and the pool must
//!    then answer a recovery burst flawlessly;
//! 2. **rollback** — a corrupt snapshot is published (atomically — the
//!    torn-write case is covered by unit tests) under a live
//!    [`SnapshotWatcher`](slide_serve::SnapshotWatcher). The server must keep answering from the
//!    last-good engine, quarantine the bad file on the next poll, and
//!    hot-load the following good publish;
//! 3. **degrade** — the same closed-loop overload is driven as an
//!    interleaved best-of-3 A/B: plain (degradation off) vs pinned at
//!    the configured operating level, both on the default
//!    [`ServeOptions`] budget. Degradation must engage with zero failed
//!    requests; both p99s are printed but not gated, because on a small
//!    box they move with scheduler noise. The gate is the deterministic
//!    half of the trade, over the same inputs: the operating level must
//!    score strictly fewer (input, candidate) pairs than the full
//!    budget, and its P@1 may trail the full budget's by at most 0.02.
//!    Level 1 — the first three quarters of each retrieval — holds both;
//!    deeper levels cut more work at real accuracy cost and are an
//!    operator's call;
//! 4. **chaos transport** — slow-loris writers and mid-request
//!    disconnectors share the server with well-behaved clients (opt-in
//!    [`RetryPolicy`] armed). The well-behaved traffic must see zero
//!    failures and bit-identical answers while the transport sweeps the
//!    abusers.
//!
//! ```sh
//! cargo run -p slide-bench --release --bin serve_chaos -- [smoke|medium|full] [--csv] [--check]
//! # CI smoke drill:
//! cargo run -p slide-bench --release --bin serve_chaos -- --smoke --check
//! ```

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use slide_bench::{ExpArgs, Scale, TablePrinter};
use slide_core::config::{LshLayerConfig, NetworkConfig};
use slide_core::inference::{BatchScratch, TopK};
use slide_core::trainer::{SlideTrainer, TrainOptions};
use slide_data::synth::{generate, SyntheticConfig};
use slide_data::{Dataset, SparseVector};
use slide_serve::http::{HttpOptions, HttpServer};
use slide_serve::{
    Client, ClientError, DegradeOptions, EngineHandle, FaultPlan, RetryPolicy, ServeOptions,
    ServingEngine,
};

struct BenchConfig {
    features: usize,
    labels: usize,
    hidden: usize,
    train_size: usize,
    epochs: usize,
    synth_seed: u64,
    hash_k: usize,
    hash_l: usize,
    /// Worker panics the fault plan arms in the panic phase.
    injected_panics: u64,
    /// Requests sent after the panics drain; all must answer 200.
    recovery_requests: usize,
    /// Snapshot watcher poll interval in the rollback phase.
    watcher_poll: Duration,
    /// Closed-loop client threads in the degrade phase.
    degrade_clients: usize,
    /// Batch predicts each degrade client sends per run.
    degrade_rounds: usize,
    /// Wire batch size in the degrade phase.
    degrade_batch: usize,
    /// Operating level the degraded overload run pins itself to.
    degrade_level: u32,
    /// Well-behaved clients in the chaos-transport phase.
    chaos_clients: usize,
    /// Requests per well-behaved chaos client.
    chaos_requests: usize,
    /// Slow-loris connections (partial request, then silence).
    loris_conns: usize,
    /// Mid-request disconnect connections.
    disconnect_conns: usize,
}

impl BenchConfig {
    fn for_scale(scale: Scale) -> Self {
        match scale {
            Scale::Smoke => Self {
                features: 300,
                labels: 400,
                hidden: 32,
                train_size: 800,
                epochs: 2,
                synth_seed: 0xC4A0,
                hash_k: 4,
                hash_l: 16,
                injected_panics: 3,
                recovery_requests: 50,
                watcher_poll: Duration::from_millis(100),
                degrade_clients: 4,
                degrade_rounds: 12,
                degrade_batch: 16,
                degrade_level: 1,
                chaos_clients: 3,
                chaos_requests: 40,
                loris_conns: 4,
                disconnect_conns: 4,
            },
            Scale::Medium => Self {
                features: 600,
                labels: 1_000,
                hidden: 64,
                train_size: 4_000,
                epochs: 6,
                synth_seed: 0xC4A0,
                hash_k: 4,
                hash_l: 16,
                injected_panics: 5,
                recovery_requests: 200,
                watcher_poll: Duration::from_millis(100),
                degrade_clients: 6,
                degrade_rounds: 60,
                degrade_batch: 32,
                degrade_level: 1,
                chaos_clients: 4,
                chaos_requests: 150,
                loris_conns: 8,
                disconnect_conns: 8,
            },
            Scale::Full => Self {
                features: 2_000,
                labels: 10_000,
                hidden: 128,
                train_size: 8_000,
                epochs: 3,
                synth_seed: 0xC4A0,
                hash_k: 6,
                hash_l: 16,
                injected_panics: 8,
                recovery_requests: 500,
                watcher_poll: Duration::from_millis(100),
                degrade_clients: 8,
                degrade_rounds: 60,
                degrade_batch: 64,
                degrade_level: 1,
                chaos_clients: 6,
                chaos_requests: 400,
                loris_conns: 16,
                disconnect_conns: 16,
            },
        }
    }
}

/// Reference `(class, score-bits)` answers computed engine-side from the
/// exact snapshot bytes the servers load: any full-budget 200 that
/// differs is a wrong answer, full stop.
type Reference = Vec<Vec<(u32, u32)>>;

fn reference_answers(bytes: &[u8], inputs: &[SparseVector], options: ServeOptions) -> Reference {
    let engine = ServingEngine::from_snapshot_bytes(bytes, options).expect("reference engine");
    inputs
        .iter()
        .map(|f| {
            engine
                .predict(f)
                .expect("reference predict")
                .topk
                .items()
                .iter()
                .map(|&(id, s)| (id, s.to_bits()))
                .collect()
        })
        .collect()
}

/// `0` iff the served prediction is bit-identical to the reference.
fn wrong(reference: &[(u32, u32)], classes: &[u32], scores: &[f32]) -> u64 {
    let served: Vec<(u32, u32)> = classes
        .iter()
        .zip(scores)
        .map(|(&c, &s)| (c, s.to_bits()))
        .collect();
    u64::from(served != reference)
}

fn percentile(sorted_us: &[f64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_us.len() - 1) as f64 * p).round() as usize;
    sorted_us[idx]
}

// ---------------------------------------------------------------------
// Phase 1: injected worker panics → typed 500s, respawn, clean recovery.

#[derive(Debug, Clone, Copy, Default)]
struct PanicPhase {
    injected: u64,
    typed_500s: u64,
    other_failures: u64,
    recovery_requests: u64,
    recovery_failures: u64,
    wrong_answers: u64,
    worker_respawns: u64,
}

fn run_panics(
    addr: SocketAddr,
    server: &HttpServer,
    plan: &FaultPlan,
    inputs: &[SparseVector],
    reference: &Reference,
    cfg: &BenchConfig,
) -> PanicPhase {
    let mut phase = PanicPhase {
        injected: cfg.injected_panics,
        ..PanicPhase::default()
    };
    plan.inject_worker_panics(cfg.injected_panics);
    let mut client = Client::connect(addr).expect("connect");
    // Drive requests until every armed panic has fired: each poisoned
    // drain answers its (solo) job with the typed 500.
    let mut i = 0usize;
    while plan.panics_pending() > 0 && (phase.typed_500s + phase.other_failures) < 10_000 {
        let idx = i % inputs.len();
        i += 1;
        match client.predict(&inputs[idx], None) {
            Ok(resp) => {
                let p = &resp.predictions[0];
                phase.wrong_answers += wrong(&reference[idx], &p.classes, &p.scores);
            }
            Err(ClientError::Api { status, code, .. })
                if status == 500 && code == "worker_panicked" =>
            {
                phase.typed_500s += 1;
            }
            Err(_) => phase.other_failures += 1,
        }
    }
    // The pool must be whole again: every recovery request answers 200
    // and bit-identically.
    for r in 0..cfg.recovery_requests {
        let idx = r % inputs.len();
        phase.recovery_requests += 1;
        match client.predict(&inputs[idx], None) {
            Ok(resp) => {
                let p = &resp.predictions[0];
                phase.wrong_answers += wrong(&reference[idx], &p.classes, &p.scores);
            }
            Err(_) => phase.recovery_failures += 1,
        }
    }
    // Respawns are asynchronous; give the supervisor a beat.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let b = server.batch_stats();
        phase.worker_respawns = b.worker_respawns;
        if b.worker_respawns >= cfg.injected_panics || Instant::now() >= deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    phase
}

// ---------------------------------------------------------------------
// Phase 2: corrupt publish → quarantine + last-good rollback → good
// publish → recovery.

#[derive(Debug, Clone, Copy, Default)]
struct RollbackPhase {
    requests: u64,
    wrong_answers: u64,
    reload_failures: u64,
    quarantined: u64,
    /// Epoch observed while the corrupt snapshot sat on disk; must stay
    /// at the last-good value.
    bad_installs: u64,
    /// Wall time from the corrupt publish to its quarantine, in watcher
    /// polls.
    rollback_polls: f64,
    /// Epoch after the clean publish; must reach 2.
    recovered_epoch: u64,
}

fn run_rollback(
    bytes_a: &[u8],
    bytes_b: &[u8],
    inputs: &[SparseVector],
    reference: &Reference,
    options: ServeOptions,
    cfg: &BenchConfig,
) -> RollbackPhase {
    let mut phase = RollbackPhase::default();
    let dir = std::env::temp_dir();
    let watched = dir.join(format!(
        "slide_chaos_watch_{}.slidesnap",
        std::process::id()
    ));
    slide_core::snapshot::publish_bytes(&watched, bytes_a).expect("publish A");
    let handle = Arc::new(EngineHandle::from_snapshot_file(&watched, options).expect("load A"));
    let watcher = handle.spawn_watcher(watched.clone(), cfg.watcher_poll);
    let server = HttpServer::serve(Arc::clone(&handle), "127.0.0.1:0", HttpOptions::default())
        .expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    // Corrupt publish: atomic rename lands a complete-but-garbage file.
    let plan = FaultPlan::new();
    plan.inject_corrupt_publishes(1);
    let t0 = Instant::now();
    plan.publish(&watched, bytes_b).expect("corrupt publish");
    let deadline = t0 + Duration::from_secs(10);
    while handle.reload_failures() == 0 && Instant::now() < deadline {
        let idx = (phase.requests as usize) % inputs.len();
        match client.predict(&inputs[idx], None) {
            Ok(resp) => {
                phase.requests += 1;
                phase.bad_installs += u64::from(resp.epoch != 1);
                let p = &resp.predictions[0];
                phase.wrong_answers += wrong(&reference[idx], &p.classes, &p.scores);
            }
            Err(_) => phase.wrong_answers += 1,
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    phase.rollback_polls = t0.elapsed().as_secs_f64() / cfg.watcher_poll.as_secs_f64();
    phase.reload_failures = handle.reload_failures();
    // Quarantine renames the bad file aside; poll briefly for it.
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.quarantined() == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    phase.quarantined = handle.quarantined();

    // The next good publish must hot-load within a few polls.
    plan.publish(&watched, bytes_b).expect("clean publish");
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.epoch() < 2 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    phase.recovered_epoch = handle.epoch();

    watcher.stop();
    server.shutdown();
    std::fs::remove_file(&watched).ok();
    let mut q = watched.into_os_string();
    q.push(".quarantined");
    std::fs::remove_file(std::path::PathBuf::from(q)).ok();
    phase
}

// ---------------------------------------------------------------------
// Phase 3: overload with and without adaptive degradation.

#[derive(Debug, Clone, Copy, Default)]
struct DegradePhase {
    plain_requests: u64,
    plain_p99_us: f64,
    degraded_requests: u64,
    degraded_p99_us: f64,
    /// Requests the degraded server actually answered under a shrunken
    /// budget (from its own counters).
    degraded_answers: u64,
    failures: u64,
    /// Scored pairs (see [`score_level`]) at full budget and at the
    /// operating level.
    pairs_full: usize,
    pairs_degraded: usize,
    p_at_1_full: f64,
    p_at_1_degraded: f64,
}

/// Closed-loop overload: every client keeps exactly one batch predict in
/// flight, so a faster service time directly shortens the queue — which
/// is precisely the trade degradation makes.
fn drive_overload(
    addr: SocketAddr,
    inputs: &Arc<Vec<SparseVector>>,
    cfg: &BenchConfig,
    failures: &AtomicU64,
) -> (u64, f64) {
    let lat_us = std::sync::Mutex::new(Vec::<f64>::new());
    let requests = AtomicU64::new(0);
    std::thread::scope(|s| {
        for t in 0..cfg.degrade_clients {
            let inputs = Arc::clone(inputs);
            let lat_us = &lat_us;
            let requests = &requests;
            s.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let mut local = Vec::with_capacity(cfg.degrade_rounds);
                for r in 0..cfg.degrade_rounds {
                    let start = (t * 37 + r * cfg.degrade_batch) % inputs.len();
                    let mut chunk = Vec::with_capacity(cfg.degrade_batch);
                    for j in 0..cfg.degrade_batch {
                        chunk.push(inputs[(start + j) % inputs.len()].clone());
                    }
                    let r0 = Instant::now();
                    match client.predict_batch(&chunk, None) {
                        Ok(_) => {
                            local.push(r0.elapsed().as_secs_f64() * 1e6);
                            requests.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(_) => {
                            failures.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                lat_us.lock().unwrap().extend(local);
            });
        }
    });
    let mut lat = lat_us.into_inner().unwrap();
    lat.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    (requests.load(Ordering::Relaxed), percentile(&lat, 0.99))
}

/// Scores `test` in `batch`-sized chunks through `engine`'s selector for
/// degradation `level`. Returns the (input, candidate) pairs the answers
/// were reduced over — `BatchReport::own_pairs`, plus the whole output
/// layer for each input whose retrieval fell back to dense scoring, so a
/// level cannot look cheaper by emptying its retrievals — and P@1.
fn score_level(engine: &ServingEngine, test: &Dataset, level: u32, batch: usize) -> (usize, f64) {
    let net = engine.network();
    let selector = engine.degraded_selector(level);
    let mut ws = net.workspace(0);
    let mut scratch = BatchScratch::default();
    let (mut pairs, mut hits) = (0usize, 0usize);
    for chunk in test.examples().chunks(batch) {
        let features: Vec<&SparseVector> = chunk.iter().map(|ex| &ex.features).collect();
        let mut outs = vec![TopK::new(engine.default_top_k()); chunk.len()];
        let report = net.predict_topk_batch(&selector, &mut ws, &mut scratch, &features, &mut outs);
        pairs += report.own_pairs + report.dense_examples * engine.output_dim();
        for (out, ex) in outs.iter().zip(chunk) {
            hits += out
                .top1()
                .is_some_and(|t| ex.labels.binary_search(&t).is_ok()) as usize;
        }
    }
    (pairs, hits as f64 / test.len().max(1) as f64)
}

fn run_degrade(
    bytes: &[u8],
    test: &Dataset,
    inputs: &Arc<Vec<SparseVector>>,
    options: ServeOptions,
    cfg: &BenchConfig,
) -> DegradePhase {
    let mut phase = DegradePhase::default();
    let failures = AtomicU64::new(0);
    let overload_opts = |degrade: DegradeOptions| HttpOptions {
        workers: 1,
        max_batch: cfg.degrade_batch,
        queue_capacity: 1 << 16,
        degrade,
        ..HttpOptions::default()
    };

    // Interleaved best-of-3: each round runs the plain control and the
    // pinned-degraded server back to back, so transient machine noise
    // hits both arms, and each arm keeps its best p99. Degraded: zero
    // watermarks + 1-drain streak pin the level at the configured
    // operating step for the whole burst.
    let degrade = DegradeOptions::default()
        .with_enabled(true)
        .with_watermarks(Duration::ZERO, Duration::ZERO)
        .with_max_level(cfg.degrade_level)
        .with_streaks(1, u32::MAX);
    for _round in 0..3 {
        let handle = Arc::new(EngineHandle::new(
            ServingEngine::from_snapshot_bytes(bytes, options).expect("engine"),
        ));
        let server = HttpServer::serve(
            Arc::clone(&handle),
            "127.0.0.1:0",
            overload_opts(DegradeOptions::default()),
        )
        .expect("bind");
        let (n, p99) = drive_overload(server.local_addr(), inputs, cfg, &failures);
        phase.plain_requests += n;
        phase.plain_p99_us = if phase.plain_p99_us == 0.0 {
            p99
        } else {
            phase.plain_p99_us.min(p99)
        };
        server.shutdown();

        let handle = Arc::new(EngineHandle::new(
            ServingEngine::from_snapshot_bytes(bytes, options).expect("engine"),
        ));
        let server = HttpServer::serve(Arc::clone(&handle), "127.0.0.1:0", overload_opts(degrade))
            .expect("bind");
        let (n, p99) = drive_overload(server.local_addr(), inputs, cfg, &failures);
        phase.degraded_requests += n;
        phase.degraded_p99_us = if phase.degraded_p99_us == 0.0 {
            p99
        } else {
            phase.degraded_p99_us.min(p99)
        };
        phase.degraded_answers += server.batch_stats().degraded_requests;
        server.shutdown();
    }
    phase.failures = failures.load(Ordering::Relaxed);

    // The deterministic half of the trade, engine-side over the same
    // inputs: the scoring work the budget shrink saves, and what it
    // costs in accuracy.
    let engine = ServingEngine::from_snapshot_bytes(bytes, options).expect("engine");
    (phase.pairs_full, phase.p_at_1_full) = score_level(&engine, test, 0, cfg.degrade_batch);
    (phase.pairs_degraded, phase.p_at_1_degraded) =
        score_level(&engine, test, cfg.degrade_level, cfg.degrade_batch);
    phase
}

// ---------------------------------------------------------------------
// Phase 4: abusive transport alongside well-behaved retrying clients.

#[derive(Debug, Clone, Copy, Default)]
struct ChaosPhase {
    normal_requests: u64,
    normal_failures: u64,
    wrong_answers: u64,
    retries: u64,
    timeouts: u64,
}

fn run_chaos_transport(
    bytes: &[u8],
    inputs: &Arc<Vec<SparseVector>>,
    reference: &Arc<Reference>,
    options: ServeOptions,
    cfg: &BenchConfig,
) -> ChaosPhase {
    let mut phase = ChaosPhase::default();
    let handle = Arc::new(EngineHandle::new(
        ServingEngine::from_snapshot_bytes(bytes, options).expect("engine"),
    ));
    let server = HttpServer::serve(
        Arc::clone(&handle),
        "127.0.0.1:0",
        HttpOptions {
            request_timeout: Duration::from_millis(300),
            read_timeout: Duration::from_millis(800),
            ..HttpOptions::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();

    let normal_failures = AtomicU64::new(0);
    let wrong_answers = AtomicU64::new(0);
    let normal_requests = AtomicU64::new(0);
    let retries = AtomicU64::new(0);
    std::thread::scope(|s| {
        // Slow loris: half a request line, then silence past the
        // request timeout. The sweep must 400 (or EOF) them away.
        for _ in 0..cfg.loris_conns {
            s.spawn(move || {
                use std::io::{Read, Write};
                let Ok(mut stream) = std::net::TcpStream::connect(addr) else {
                    return;
                };
                stream.write_all(b"POST /v1/predi").ok();
                std::thread::sleep(Duration::from_millis(500));
                let mut sink = Vec::new();
                stream.read_to_end(&mut sink).ok();
            });
        }
        // Mid-request disconnects: a complete header promising a body
        // that never finishes, then a hard drop.
        for _ in 0..cfg.disconnect_conns {
            s.spawn(move || {
                use std::io::Write;
                let Ok(mut stream) = std::net::TcpStream::connect(addr) else {
                    return;
                };
                stream
                    .write_all(b"POST /v1/predict HTTP/1.1\r\nContent-Length: 4096\r\n\r\n{\"ind")
                    .ok();
                std::thread::sleep(Duration::from_millis(50));
                drop(stream);
            });
        }
        // Well-behaved clients with the opt-in retry policy armed; the
        // abusers must never perturb their answers.
        for t in 0..cfg.chaos_clients {
            let inputs = Arc::clone(inputs);
            let reference = Arc::clone(reference);
            let normal_failures = &normal_failures;
            let wrong_answers = &wrong_answers;
            let normal_requests = &normal_requests;
            let retries = &retries;
            s.spawn(move || {
                let mut client = Client::connect(addr)
                    .expect("connect")
                    .with_retry_policy(RetryPolicy::default());
                for r in 0..cfg.chaos_requests {
                    let idx = (t * 131 + r) % inputs.len();
                    normal_requests.fetch_add(1, Ordering::Relaxed);
                    match client.predict(&inputs[idx], None) {
                        Ok(resp) => {
                            let p = &resp.predictions[0];
                            wrong_answers.fetch_add(
                                wrong(&reference[idx], &p.classes, &p.scores),
                                Ordering::Relaxed,
                            );
                        }
                        Err(_) => {
                            normal_failures.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                retries.fetch_add(client.retries_attempted(), Ordering::Relaxed);
            });
        }
    });
    phase.normal_requests = normal_requests.load(Ordering::Relaxed);
    phase.normal_failures = normal_failures.load(Ordering::Relaxed);
    phase.wrong_answers = wrong_answers.load(Ordering::Relaxed);
    phase.retries = retries.load(Ordering::Relaxed);
    // The loris sweep may need one more tick past the client sleeps.
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.stats().timeouts == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(50));
    }
    phase.timeouts = server.stats().timeouts;
    server.shutdown();
    phase
}

fn main() {
    let ExpArgs {
        scale, csv, check, ..
    } = ExpArgs::parse_gate();
    let cfg = BenchConfig::for_scale(scale);
    eprintln!(
        "serve_chaos {scale}: {} classes x {} features, {} injected panics, degrade level {}",
        cfg.labels, cfg.features, cfg.injected_panics, cfg.degrade_level
    );

    // One trained model (A) and one "retrained" successor (B) for the
    // rollback drill.
    let mut synth = SyntheticConfig::delicious_like(Scale::Smoke).with_seed(cfg.synth_seed);
    synth.feature_dim = cfg.features;
    synth.label_dim = cfg.labels;
    synth.train_size = cfg.train_size;
    synth.test_size = 256;
    let data = generate(&synth);
    let net_config = NetworkConfig::builder(data.train.feature_dim(), data.train.label_dim())
        .hidden(cfg.hidden)
        .output_lsh(LshLayerConfig::simhash(cfg.hash_k, cfg.hash_l).with_tables(10, cfg.labels))
        .learning_rate(2e-3)
        .seed(0xFA11)
        .build()
        .expect("valid config");
    // One thread: HOGWILD races would make the model, and with it the
    // degrade phase's P@1 gate, vary from run to run.
    let mut trainer = SlideTrainer::new(net_config).expect("valid network");
    trainer.train(
        &data.train,
        &TrainOptions::new(cfg.epochs)
            .batch_size(64)
            .threads(1)
            .seed(7),
    );
    let bytes_a = trainer.network().to_snapshot_bytes();
    trainer.train(
        &data.train,
        &TrainOptions::new(1).batch_size(64).threads(1).seed(8),
    );
    let bytes_b = trainer.network().to_snapshot_bytes();

    let inputs: Arc<Vec<SparseVector>> = Arc::new(
        data.test
            .iter()
            .map(|ex| ex.features.clone())
            .collect::<Vec<_>>(),
    );
    let options = ServeOptions::default().with_top_k(5);
    let reference = Arc::new(reference_answers(&bytes_a, &inputs, options));

    eprintln!("phase 1: injected worker panics ...");
    let plan = Arc::new(FaultPlan::new());
    let handle = Arc::new(EngineHandle::new(
        ServingEngine::from_snapshot_bytes(&bytes_a, options).expect("engine"),
    ));
    let panic_server = HttpServer::serve_with_faults(
        Arc::clone(&handle),
        "127.0.0.1:0",
        HttpOptions::default(),
        Arc::clone(&plan),
    )
    .expect("bind");
    let panics = run_panics(
        panic_server.local_addr(),
        &panic_server,
        &plan,
        &inputs,
        &reference,
        &cfg,
    );
    panic_server.shutdown();

    eprintln!("phase 2: corrupt-publish rollback ...");
    let rollback = run_rollback(&bytes_a, &bytes_b, &inputs, &reference, options, &cfg);

    eprintln!("phase 3: overload with vs without degradation ...");
    let degrade = run_degrade(&bytes_a, &data.test, &inputs, options, &cfg);

    eprintln!("phase 4: chaos transport ...");
    let chaos = run_chaos_transport(&bytes_a, &inputs, &reference, options, &cfg);

    let mut printer = TablePrinter::new(
        vec![
            "phase", "requests", "failures", "wrong", "detail_1", "detail_2",
        ],
        csv,
    );
    printer.row(vec![
        "panics".to_string(),
        (panics.typed_500s + panics.recovery_requests).to_string(),
        panics.recovery_failures.to_string(),
        panics.wrong_answers.to_string(),
        format!("typed_500s={}", panics.typed_500s),
        format!("respawns={}", panics.worker_respawns),
    ]);
    printer.row(vec![
        "rollback".to_string(),
        rollback.requests.to_string(),
        rollback.bad_installs.to_string(),
        rollback.wrong_answers.to_string(),
        format!("quarantined={}", rollback.quarantined),
        format!("polls={:.1}", rollback.rollback_polls),
    ]);
    printer.row(vec![
        "degrade".to_string(),
        (degrade.plain_requests + degrade.degraded_requests).to_string(),
        degrade.failures.to_string(),
        "-".to_string(),
        format!(
            "p99 {:.0}us vs {:.0}us",
            degrade.degraded_p99_us, degrade.plain_p99_us
        ),
        format!(
            "P@1 {:.3} vs {:.3}",
            degrade.p_at_1_degraded, degrade.p_at_1_full
        ),
    ]);
    printer.row(vec![
        "chaos".to_string(),
        chaos.normal_requests.to_string(),
        chaos.normal_failures.to_string(),
        chaos.wrong_answers.to_string(),
        format!("timeouts={}", chaos.timeouts),
        format!("retries={}", chaos.retries),
    ]);
    printer.print();

    println!(
        "panics: {} injected, {} typed 500s, {} respawns, recovery failures {}",
        panics.injected, panics.typed_500s, panics.worker_respawns, panics.recovery_failures
    );
    println!(
        "rollback: quarantined in {:.1} polls, {} bad installs, recovered to epoch {}",
        rollback.rollback_polls, rollback.bad_installs, rollback.recovered_epoch
    );
    println!(
        "degrade: level {} vs full: scored pairs {} vs {}, P@1 {:.4} vs {:.4}, p99 {:.0}us vs {:.0}us",
        cfg.degrade_level,
        degrade.pairs_degraded,
        degrade.pairs_full,
        degrade.p_at_1_degraded,
        degrade.p_at_1_full,
        degrade.degraded_p99_us,
        degrade.plain_p99_us,
    );
    println!(
        "chaos: {} well-behaved requests, {} failures, {} wrong answers, {} server timeouts",
        chaos.normal_requests, chaos.normal_failures, chaos.wrong_answers, chaos.timeouts
    );

    if check {
        let mut failed = false;
        let total_wrong = panics.wrong_answers + rollback.wrong_answers + chaos.wrong_answers;
        if total_wrong > 0 {
            eprintln!("FAIL: {total_wrong} wrong answers under fault injection");
            failed = true;
        }
        if panics.typed_500s < cfg.injected_panics {
            eprintln!(
                "FAIL: only {} of {} injected panics surfaced as typed 500s",
                panics.typed_500s, cfg.injected_panics
            );
            failed = true;
        }
        if panics.worker_respawns < cfg.injected_panics {
            eprintln!(
                "FAIL: pool did not respawn every panicked worker ({} of {})",
                panics.worker_respawns, cfg.injected_panics
            );
            failed = true;
        }
        if panics.recovery_failures > 0 || panics.other_failures > 0 {
            eprintln!(
                "FAIL: post-panic recovery saw {} failures ({} untyped)",
                panics.recovery_failures, panics.other_failures
            );
            failed = true;
        }
        if rollback.bad_installs > 0 || rollback.reload_failures == 0 || rollback.quarantined == 0 {
            eprintln!(
                "FAIL: corrupt publish was not contained (bad installs {}, reload failures {}, quarantined {})",
                rollback.bad_installs, rollback.reload_failures, rollback.quarantined
            );
            failed = true;
        }
        if rollback.recovered_epoch < 2 {
            eprintln!(
                "FAIL: good publish after quarantine never loaded (epoch {})",
                rollback.recovered_epoch
            );
            failed = true;
        }
        if degrade.failures > 0 {
            eprintln!(
                "FAIL: degrade phase saw {} request failures",
                degrade.failures
            );
            failed = true;
        }
        if degrade.degraded_answers == 0 {
            eprintln!("FAIL: degradation never engaged under overload");
            failed = true;
        }
        if degrade.pairs_degraded >= degrade.pairs_full {
            eprintln!(
                "FAIL: level {} scored {} pairs, not fewer than the full budget's {}",
                cfg.degrade_level, degrade.pairs_degraded, degrade.pairs_full
            );
            failed = true;
        }
        if degrade.p_at_1_degraded < degrade.p_at_1_full - 0.02 {
            eprintln!(
                "FAIL: degraded P@1 {:.4} fell more than 0.02 below full {:.4}",
                degrade.p_at_1_degraded, degrade.p_at_1_full
            );
            failed = true;
        }
        if chaos.normal_failures > 0 {
            eprintln!(
                "FAIL: well-behaved clients saw {} failures under transport chaos",
                chaos.normal_failures
            );
            failed = true;
        }
        if chaos.timeouts == 0 {
            eprintln!("FAIL: the transport never swept an abusive connection");
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        eprintln!(
            "check passed: zero wrong answers, pool recovered from {} panics, corrupt publish \
             quarantined in {:.1} polls, degraded pairs {} < full {} (P@1 delta {:+.4})",
            panics.typed_500s,
            rollback.rollback_polls,
            degrade.pairs_degraded,
            degrade.pairs_full,
            degrade.p_at_1_degraded - degrade.p_at_1_full
        );
    }
}
