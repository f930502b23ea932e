//! The three serving workloads: `serve_single`, `serve_batch` (one
//! `HttpServer`) and `serve_cluster` (a `Router` over output-layer shards).
//!
//! Closed loop: `T` keep-alive clients each send their next request when
//! the reply arrives — the RPC-caller and router→shard pattern. With no
//! more connections than cores no backlog can form, so queueing claims
//! stay with `serve_rpc`'s 512-connection phase. Servers run the shipped
//! `HttpOptions::default()` / `RouterOptions::default()`, so a changed
//! default shows. Every reply is compared, classes and score bits, with
//! `ServingEngine::predict_batch_k` on the unsliced snapshot.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use slide_core::selector::{ActiveSet, NeuronSelector, SelectionContext, SelectorScratch};
use slide_core::snapshot::slice_snapshot;
use slide_core::trainer::{SlideTrainer, TrainOptions};
use slide_core::{BatchScratch, InferenceSelector, LshLayerConfig, NetworkConfig, TopK};
use slide_data::rng::{Rng, Xoshiro256PlusPlus};
use slide_data::synth::{generate, Scale, SyntheticConfig};
use slide_data::SparseVector;
use slide_serve::conn::{ParseStatus, RequestParser};
use slide_serve::http::{HttpOptions, HttpServer};
use slide_serve::wire::{
    decode_predict_request, decode_predict_response, encode_predict_request,
    encode_predict_response, response_from_predictions,
};
use slide_serve::{
    Client, EngineHandle, PredictRequest, PredictResponse, Router, RouterOptions, ServeOptions,
    ServingEngine, WirePrediction,
};

use crate::report::Report;
use crate::stats::{median, percentile, sorted, tail_note};
use crate::trace::{span_cost_s, Tracer};
use crate::{set_up_repeatedly, timed_loads, Run, SEGMENTS};

/// The declared tail of request latency. p99 has its ten samples beyond it
/// in every run and is printed in the notes, but on this shared 2-core box
/// it moved twice as much from run to run as p95 did (±13 % against ±7 %),
/// more than any bound the contract allows.
pub const REQUEST_TAIL: f64 = 0.95;

const TOP_K: usize = 5;

/// The served model is a fixture, not an input: its corpus, initial
/// weights, hash functions and single-thread training order are the same
/// in every run, so every run serves the same snapshot. `--seed` draws
/// the traffic: which held-out examples are the inputs, and the order the
/// clients request them in. A model drawn from the seed moved `p_at_1`
/// from 0.55 to 0.79 and retrieval cost with it, which says nothing about
/// the serving path.
const MODEL_SEED: u64 = 0xC157;

/// The held-out pool is this many times the inputs one run draws from it.
const POOL_FACTOR: usize = 4;

/// Model, traffic and topology of one serving workload.
#[derive(Debug, Clone)]
pub struct ServeShape {
    pub features: usize,
    pub labels: usize,
    pub hidden: usize,
    /// SimHash `(K, L)` and the table address bits.
    pub lsh: (usize, usize, u32),
    pub train_size: usize,
    pub epochs: usize,
    /// Held-out inputs the clients draw requests from.
    pub inputs: usize,
    /// Inputs per request.
    pub per_request: usize,
    /// Shard servers behind a router; 0 serves from one `HttpServer`.
    pub shards: usize,
    /// Requests of the traced pass: fixed work, so counts repeat.
    pub traced_requests: usize,
}

impl ServeShape {
    /// Model S, one input per request: the engine is a small part of a
    /// round trip.
    pub fn single(tiny: bool) -> Self {
        Self {
            features: 600,
            labels: if tiny { 200 } else { 1_000 },
            hidden: if tiny { 16 } else { 64 },
            lsh: (4, 16, 10),
            train_size: if tiny { 500 } else { 4_000 },
            epochs: 2,
            inputs: if tiny { 64 } else { 1_024 },
            per_request: 1,
            shards: 0,
            traced_requests: if tiny { 50 } else { 5_000 },
        }
    }

    /// Model L, 32 inputs per request: scoring dominates.
    pub fn batch(tiny: bool) -> Self {
        Self {
            features: if tiny { 1_000 } else { 10_000 },
            labels: if tiny { 2_000 } else { 20_000 },
            hidden: if tiny { 32 } else { 128 },
            lsh: (6, 16, 12),
            train_size: if tiny { 500 } else { 4_096 },
            epochs: 1,
            per_request: 32,
            traced_requests: if tiny { 20 } else { 150 },
            ..Self::single(tiny)
        }
    }

    /// Model S behind a router over four shards, `serve_single`'s traffic.
    pub fn cluster(tiny: bool) -> Self {
        Self {
            shards: 4,
            traced_requests: if tiny { 50 } else { 2_000 },
            ..Self::single(tiny)
        }
    }

    /// The corpus the served model is trained on and the pool of held-out
    /// examples the requests are drawn from.
    pub fn synth(&self) -> SyntheticConfig {
        let mut s = SyntheticConfig::delicious_like(Scale::Smoke).with_seed(MODEL_SEED);
        s.feature_dim = self.features;
        s.label_dim = self.labels;
        s.with_sizes(self.train_size, POOL_FACTOR * self.inputs)
    }

    fn network(&self) -> NetworkConfig {
        let (k, l, bits) = self.lsh;
        // Bucket capacity == labels: no FIFO eviction ever fires, so a
        // global insert order and per-shard insert orders keep the same
        // survivors and sharded answers can equal single-box answers.
        NetworkConfig::builder(self.features, self.labels)
            .hidden(self.hidden)
            .output_lsh(LshLayerConfig::simhash(k, l).with_tables(bits, self.labels))
            .learning_rate(2e-3)
            .seed(MODEL_SEED)
            .build()
            .expect("valid benchmark network")
    }
}

/// Dense fallback off: a full engine falling back to dense scoring would
/// score neurons no shard retrieves, and bit-identity is about retrieval.
fn serve_options() -> ServeOptions {
    ServeOptions::default()
        .with_top_k(TOP_K)
        .with_dense_fallback(false)
}

/// An engine over the whole (unsliced) snapshot.
fn full_engine(snapshot: &[u8]) -> Result<ServingEngine, String> {
    ServingEngine::from_snapshot_bytes(snapshot, serve_options())
        .map_err(|e| format!("engine: {e}"))
}

/// One `HttpServer` with the shipped defaults on an ephemeral port.
fn serve_engine(engine: ServingEngine) -> Result<HttpServer, String> {
    HttpServer::serve(
        Arc::new(EngineHandle::new(engine)),
        "127.0.0.1:0",
        HttpOptions::default(),
    )
    .map_err(|e| format!("bind: {e}"))
}

type Answer = Vec<(u32, f32)>;

fn matches_reference(got: &WirePrediction, want: &Answer) -> bool {
    got.classes.len() == want.len()
        && got
            .classes
            .iter()
            .zip(&got.scores)
            .zip(want)
            .all(|((&c, &s), &(wc, ws))| c == wc && s.to_bits() == ws.to_bits())
}

/// The servers of one set-up; `addr` is where clients connect.
struct Fleet {
    servers: Vec<HttpServer>,
    router: Option<Router>,
    addr: SocketAddr,
}

impl Fleet {
    fn start(shape: &ServeShape, snapshot: &[u8], slices: &[Vec<u8>]) -> Result<Self, String> {
        if shape.shards == 0 {
            let server = serve_engine(full_engine(snapshot)?)?;
            let addr = server.local_addr();
            return Ok(Self {
                servers: vec![server],
                router: None,
                addr,
            });
        }
        let mut servers = Vec::new();
        for slice in slices {
            let engine = ServingEngine::from_slice_bytes(slice, serve_options())
                .map_err(|e| format!("shard engine: {e}"))?;
            servers.push(serve_engine(engine)?);
        }
        let addrs = servers.iter().map(HttpServer::local_addr).collect();
        let router = Router::serve("127.0.0.1:0", addrs, RouterOptions::default())
            .map_err(|e| format!("bind router: {e}"))?;
        let addr = router.local_addr();
        Ok(Self {
            servers,
            router: Some(router),
            addr,
        })
    }

    fn shutdown(self) {
        if let Some(r) = self.router {
            r.shutdown();
        }
        for s in self.servers {
            s.shutdown();
        }
    }
}

/// What the clients send and what each reply must equal.
struct Traffic {
    /// The inputs, followed by the first `per_request − 1` again so every
    /// request is one contiguous slice.
    inputs: Vec<SparseVector>,
    labels: Vec<Vec<u32>>,
    reference: Vec<Answer>,
}

/// Which `count` of the `pool` held-out examples this seed's run sends.
fn draw_inputs(pool: usize, count: usize, seed: u64) -> Vec<usize> {
    Xoshiro256PlusPlus::seed_from_u64(seed ^ 0x1290).sample_distinct(pool, count.min(pool))
}

struct Prepared {
    fleet: Fleet,
    /// The unsliced snapshot's engine: the oracle, never behind a socket.
    oracle: ServingEngine,
    traffic: Traffic,
    snapshot: Vec<u8>,
    snapshot_load_s: f64,
    slice_s: f64,
    load_s: f64,
    setup_s: f64,
}

fn prepare(shape: &ServeShape, run: &Run) -> Result<Prepared, String> {
    let t0 = Instant::now();
    let data = generate(&shape.synth());
    let mut trainer = SlideTrainer::new(shape.network()).expect("valid benchmark network");
    trainer.train(
        &data.train,
        &TrainOptions::new(shape.epochs)
            .batch_size(64)
            .threads(1)
            .seed(MODEL_SEED),
    );
    let snapshot = trainer.network().to_quantized_snapshot_bytes();
    drop(trainer);
    let s0 = Instant::now();
    let slices = match shape.shards {
        0 => Vec::new(),
        n => slice_snapshot(&snapshot, n).map_err(|e| format!("slice: {e}"))?,
    };
    let slice_s = s0.elapsed().as_secs_f64();

    let (fleet, load_s) = timed_loads(|| Fleet::start(shape, &snapshot, &slices), Fleet::shutdown)?;

    let o0 = Instant::now();
    let oracle = full_engine(&snapshot)?;
    let snapshot_load_s = o0.elapsed().as_secs_f64();
    let drawn = draw_inputs(data.test.len(), shape.inputs, run.seed);
    let pool = data.test.examples();
    let mut inputs: Vec<SparseVector> = drawn.iter().map(|&i| pool[i].features.clone()).collect();
    let labels: Vec<Vec<u32>> = drawn.iter().map(|&i| pool[i].labels.clone()).collect();
    let reference: Vec<Answer> = oracle
        .predict_batch_k(&inputs, TOP_K)
        .map_err(|e| format!("reference answers: {e}"))?
        .iter()
        .map(|p| p.topk.items().to_vec())
        .collect();
    let wrap: Vec<SparseVector> = inputs[..shape.per_request - 1].to_vec();
    inputs.extend(wrap);
    Ok(Prepared {
        fleet,
        oracle,
        traffic: Traffic {
            inputs,
            labels,
            reference,
        },
        snapshot,
        snapshot_load_s,
        slice_s,
        load_s,
        setup_s: t0.elapsed().as_secs_f64(),
    })
}

/// One answered (or failed) request as its client saw it.
#[derive(Debug, Clone, Copy)]
struct Op {
    /// Completion time since the section began, seconds.
    done_s: f64,
    latency_s: f64,
    /// Inputs answered bit-identically to the reference.
    ok: u32,
    bad: u32,
    /// Of the `ok` inputs, those whose best class is a true label.
    hits: u32,
}

impl Traffic {
    /// Distinct inputs.
    fn len(&self) -> usize {
        self.reference.len()
    }

    /// Scores one reply against the reference answers of inputs
    /// `start..start + n`: `(ok, bad, hits)`.
    fn score(&self, start: usize, n: usize, reply: Option<&PredictResponse>) -> (u32, u32, u32) {
        let Some(reply) = reply.filter(|r| r.predictions.len() == n) else {
            return (0, n as u32, 0);
        };
        let (mut ok, mut hits) = (0, 0);
        for (j, got) in reply.predictions.iter().enumerate() {
            let i = (start + j) % self.len();
            if matches_reference(got, &self.reference[i]) {
                ok += 1;
                let best = got.classes.first();
                hits += best.is_some_and(|c| self.labels[i].binary_search(c).is_ok()) as u32;
            }
        }
        (ok, n as u32 - ok, hits)
    }
}

/// One closed-loop client until `deadline`; request order comes from its
/// own seeded stream.
fn client_loop(
    addr: SocketAddr,
    traffic: &Traffic,
    n: usize,
    mut rng: Xoshiro256PlusPlus,
    origin: Instant,
    deadline: Instant,
) -> Vec<Op> {
    let mut ops = Vec::new();
    let mut client = Client::connect(addr).ok();
    while Instant::now() < deadline {
        let start = rng.gen_range(0, traffic.len());
        let t0 = Instant::now();
        if client.is_none() {
            client = Client::connect(addr).ok();
        }
        let reply = client.as_mut().and_then(|c| {
            c.predict_batch(&traffic.inputs[start..start + n], None)
                .ok()
        });
        let latency_s = t0.elapsed().as_secs_f64();
        let (ok, bad, hits) = traffic.score(start, n, reply.as_ref());
        ops.push(Op {
            done_s: origin.elapsed().as_secs_f64(),
            latency_s,
            ok,
            bad,
            hits,
        });
    }
    ops
}

/// `T` clients for `seconds`; returns every client's operations pooled.
fn drive(p: &Prepared, shape: &ServeShape, run: &Run, seconds: f64, stream: u64) -> Vec<Op> {
    let (addr, traffic, n) = (p.fleet.addr, &p.traffic, shape.per_request);
    let origin = Instant::now();
    let deadline = origin + Duration::from_secs_f64(seconds);
    let root = Xoshiro256PlusPlus::seed_from_u64(run.seed ^ 0xC11E);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..run.threads as u64)
            .map(|c| {
                let rng = root.stream(stream * 64 + c);
                scope.spawn(move || client_loop(addr, traffic, n, rng, origin, deadline))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// Correct inputs per second in each of `segments` equal windows of
/// `seconds`, by completion time.
fn segment_rates(ops: &[Op], seconds: f64, segments: usize) -> Vec<f64> {
    let width = seconds / segments as f64;
    let mut ok = vec![0u64; segments];
    for op in ops {
        let s = (op.done_s / width) as usize;
        if s < segments {
            ok[s] += op.ok as u64;
        }
    }
    ok.iter().map(|&n| n as f64 / width).collect()
}

fn serve_untraced(shape: &ServeShape, run: &Run, report: &mut Report) -> Result<(), String> {
    let (p, setup_s, load_s) = set_up_repeatedly(
        || prepare(shape, run),
        |p| p.fleet.shutdown(),
        |p| (p.setup_s, p.load_s),
    )?;

    let warm_s = (run.seconds / 5.0).min(2.0);
    let warm = drive(&p, shape, run, warm_s, 0);
    let ops = drive(&p, shape, run, run.seconds, 1);
    let fleet_5xx: u64 = p
        .fleet
        .servers
        .iter()
        .map(|s| s.stats().responses_5xx)
        .sum();
    let Prepared { fleet, .. } = p;
    fleet.shutdown();

    let sent: u64 = ops.iter().map(|o| (o.ok + o.bad) as u64).sum();
    let ok: u64 = ops.iter().map(|o| o.ok as u64).sum();
    let hits: u64 = ops.iter().map(|o| o.hits as u64).sum();
    report.count(sent, sent - ok);
    let latencies = sorted(ops.iter().map(|o| o.latency_s * 1e6).collect());
    report.set("setup_s", setup_s);
    report.set("load_s", load_s);
    report.set(
        "examples_per_s",
        median(&segment_rates(&ops, run.seconds, SEGMENTS)),
    );
    report.set("p_at_1", hits as f64 / ok.max(1) as f64);
    report.set("op_p50_us", percentile(&latencies, 0.50));
    report.set("op_tail_us", percentile(&latencies, REQUEST_TAIL));
    report.note(format!(
        "latency p90 {:.1} p95 {:.1} p99 {:.1} us",
        percentile(&latencies, 0.90),
        percentile(&latencies, 0.95),
        percentile(&latencies, 0.99)
    ));
    report.note(format!(
        "an operation is one {}-input request: {} timed from {} closed-loop clients after {} in a {warm_s:.1}s warm-up; {}; servers answered {fleet_5xx} 5xx",
        shape.per_request,
        ops.len(),
        run.threads,
        warm.len(),
        tail_note(ops.len(), REQUEST_TAIL)
    ));
    Ok(())
}

// ---------------------------------------------------------------------
// Traced: per-layer metrics.

/// `InferenceSelector` with a clock around the output layer's selection.
#[derive(Debug)]
struct TimedInference {
    inner: InferenceSelector,
    nanos: AtomicU64,
}

impl NeuronSelector for TimedInference {
    fn name(&self) -> &'static str {
        "inference"
    }

    fn select(
        &self,
        ctx: &SelectionContext<'_>,
        scratch: &mut SelectorScratch,
        active: &mut ActiveSet,
    ) {
        if !ctx.is_output {
            return self.inner.select(ctx, scratch, active);
        }
        let t0 = Instant::now();
        self.inner.select(ctx, scratch, active);
        self.nanos
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    fn force_label_activation(&self) -> bool {
        self.inner.force_label_activation()
    }
}

/// The bytes `Client` puts on the socket for this body (its head format
/// is private to the client; the parser only needs a faithful copy).
fn http_request_bytes(body: &str) -> Vec<u8> {
    format!(
        "POST /v1/predict HTTP/1.1\r\nHost: slide\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// `(status, body)` of one pre-encoded predict over `client`, or `None`.
fn post(client: &mut Client, body: &str) -> Option<String> {
    match client.request("POST", "/v1/predict", Some(body)) {
        Ok((200, reply)) => Some(reply),
        _ => None,
    }
}

fn median_us(tracer: &Tracer, name: &str) -> f64 {
    median(&tracer.durations(name)) * 1e6
}

fn serve_traced(shape: &ServeShape, run: &Run, report: &mut Report) -> Result<(), String> {
    let p = prepare(shape, run)?;
    let n = shape.per_request;
    let picks: Vec<usize> = {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(run.seed ^ 0x7ACE);
        (0..shape.traced_requests)
            .map(|_| rng.gen_range(0, p.traffic.len()))
            .collect()
    };
    let connect = |addr| Client::connect(addr).map_err(|e| format!("connect: {e}"));

    // A tenth of the requests first, untraced, so the pass is not cold.
    let mut client = connect(p.fleet.addr)?;
    for &start in &picks[..picks.len() / 10] {
        let _ = client.predict_batch(&p.traffic.inputs[start..start + n], None);
    }

    // Cluster only: each shard addressed directly, and one server over
    // the unsliced snapshot, for the router's overhead.
    let mut shard_clients = Vec::new();
    let mut single_box = None;
    if p.fleet.router.is_some() {
        for s in &p.fleet.servers {
            shard_clients.push(connect(s.local_addr())?);
        }
        let server = serve_engine(full_engine(&p.snapshot)?)?;
        let client = connect(server.local_addr())?;
        single_box = Some((server, client));
    }

    let http_before: Vec<_> = p.fleet.servers.iter().map(HttpServer::stats).collect();
    let batch_before: Vec<_> = p
        .fleet
        .servers
        .iter()
        .map(HttpServer::batch_stats)
        .collect();
    let router_before = p.fleet.router.as_ref().map(Router::stats);
    let engine_before = p.oracle.stats();

    let mut tracer = Tracer::default();
    let mut parser = RequestParser::new(HttpOptions::default().max_body_bytes);
    for (r, &start) in picks.iter().enumerate() {
        let id = r as u64;
        let inputs = &p.traffic.inputs[start..start + n];
        tracer.begin("request", id);
        let body = tracer.span("encode", id, || {
            encode_predict_request(&PredictRequest {
                inputs: inputs.to_vec(),
                top_k: None,
            })
        });
        let reply_body = tracer.span("roundtrip", id, || post(&mut client, &body));
        let reply = tracer.span("decode", id, || {
            reply_body
                .as_deref()
                .and_then(|b| decode_predict_response(b).ok())
        });
        tracer.end();
        let (ok, bad, _) = p.traffic.score(start, n, reply.as_ref());
        report.count((ok + bad) as u64, bad as u64);

        if !shard_clients.is_empty() {
            tracer.begin("shards", id);
            for c in &mut shard_clients {
                let answered = tracer
                    .span("shard.roundtrip", id, || post(c, &body))
                    .is_some();
                report.count(1, !answered as u64);
            }
            tracer.end();
        }
        if let Some((_, c)) = &mut single_box {
            let answered = tracer
                .span("single.roundtrip", id, || post(c, &body))
                .is_some();
            report.count(1, !answered as u64);
        }

        // The same bytes through each stage in process.
        let bytes = http_request_bytes(&body);
        tracer.begin("replay", id);
        let parsed = tracer.span("conn.parse", id, || match parser.advance(&bytes) {
            (used, ParseStatus::Request(req)) if used == bytes.len() => Some(req),
            _ => None,
        });
        let decoded = tracer.span("wire.decode_request", id, || {
            parsed.and_then(|req| decode_predict_request(&req.body).ok())
        });
        let predictions = tracer.span("engine.predict", id, || {
            decoded.and_then(|req| p.oracle.predict_batch_k(&req.inputs, TOP_K).ok())
        });
        let encoded = tracer.span("wire.encode_response", id, || {
            predictions.map(|ps| encode_predict_response(&response_from_predictions(1, &ps)))
        });
        tracer.end();
        report.count(1, encoded.is_none() as u64);
    }

    let http_after: Vec<_> = p.fleet.servers.iter().map(HttpServer::stats).collect();
    let batch_after: Vec<_> = p
        .fleet
        .servers
        .iter()
        .map(HttpServer::batch_stats)
        .collect();
    let router_after = p.fleet.router.as_ref().map(Router::stats);
    let engine_after = p.oracle.stats();
    drop(shard_clients);
    if let Some((server, client)) = single_box {
        drop(client);
        server.shutdown();
    }
    drop(client);

    let totals = tracer.totals();
    let total_s = |name: &str| totals.get(name).map_or(0.0, |t| t.total_s);
    let self_s = |name: &str| totals.get(name).map_or(0.0, |t| t.self_s);
    let roundtrip_us = median_us(&tracer, "roundtrip");
    let stages = [
        "conn.parse",
        "wire.decode_request",
        "engine.predict",
        "wire.encode_response",
    ];
    let stage_us: f64 = stages.iter().map(|s| median_us(&tracer, s)).sum();
    report.set("wire.encode_request_us", median_us(&tracer, "encode"));
    report.set("conn.parse_us", median_us(&tracer, "conn.parse"));
    report.set(
        "wire.decode_request_us",
        median_us(&tracer, "wire.decode_request"),
    );
    report.set(
        "wire.encode_response_us",
        median_us(&tracer, "wire.encode_response"),
    );
    report.set("wire.decode_response_us", median_us(&tracer, "decode"));
    report.set(
        "engine.predict_us",
        median_us(&tracer, "engine.predict") / n as f64,
    );
    report.set("http.transport_us", roundtrip_us - stage_us);
    report.set(
        "trace.coverage_share",
        (self_s("encode") + self_s("roundtrip") + self_s("decode")) / total_s("request").max(1e-12),
    );
    // Spans of the traced client only; the replay is not part of a request.
    let client_spans = 4 * picks.len();
    report.set(
        "trace.overhead_share",
        client_spans as f64 * span_cost_s() / total_s("request").max(1e-12),
    );

    let sum = |f: &dyn Fn(usize) -> f64| (0..p.fleet.servers.len()).map(f).sum::<f64>();
    let d2xx = sum(&|i| (http_after[i].responses_2xx - http_before[i].responses_2xx) as f64);
    report.set("http.responses_2xx", d2xx);
    report.set(
        "http.responses_4xx",
        sum(&|i| (http_after[i].responses_4xx - http_before[i].responses_4xx) as f64),
    );
    report.set(
        "http.responses_5xx",
        sum(&|i| (http_after[i].responses_5xx - http_before[i].responses_5xx) as f64),
    );
    let jobs = sum(&|i| (batch_after[i].requests - batch_before[i].requests) as f64).max(1.0);
    let batches = sum(&|i| (batch_after[i].batches - batch_before[i].batches) as f64).max(1.0);
    let wait_s = sum(&|i| {
        batch_after[i].mean_queue_wait.as_secs_f64() * batch_after[i].requests as f64
            - batch_before[i].mean_queue_wait.as_secs_f64() * batch_before[i].requests as f64
    });
    let rejected = sum(&|i| (batch_after[i].rejected - batch_before[i].rejected) as f64);
    report.set("batch.queue_wait_us", (wait_s / jobs * 1e6).max(0.0));
    report.set("batch.mean_batch", jobs / batches);
    report.set("batch.rejected_share", rejected / (jobs + rejected));
    if let (Some(before), Some(after)) = (router_before, router_after) {
        let shard_us = {
            // The slowest shard bounds a merged answer: per request, the
            // longest of its direct shard round trips.
            let all = tracer.durations("shard.roundtrip");
            let worst: Vec<f64> = all
                .chunks(shape.shards)
                .map(|c| c.iter().copied().fold(0.0, f64::max))
                .collect();
            median(&worst) * 1e6
        };
        report.set("router.shard_us", shard_us);
        report.set("router.overhead_us", roundtrip_us - shard_us);
        report.set(
            "router.overhead_x",
            roundtrip_us / median_us(&tracer, "single.roundtrip").max(1e-9),
        );
        report.set("router.merged", (after.merged - before.merged) as f64);
        report.set(
            "router.shard_errors",
            (after.shard_errors - before.shard_errors) as f64,
        );
    }

    // The engine's two halves, and what retrieval costs and keeps.
    let net = p.oracle.network();
    let distinct = &p.traffic.inputs[..p.traffic.len()];
    let sample = &distinct[..distinct.len().min(512)];
    let timed = TimedInference {
        inner: p.oracle.degraded_selector(0),
        nanos: AtomicU64::new(0),
    };
    let mut ws = net.workspace(run.seed);
    let mut topk = TopK::new(TOP_K);
    let i0 = Instant::now();
    for f in sample {
        net.predict_topk(&timed, &mut ws, f, &mut topk);
    }
    let predict_us = i0.elapsed().as_secs_f64() * 1e6 / sample.len() as f64;
    let select_us = timed.nanos.load(Ordering::Relaxed) as f64 * 1e-3 / sample.len() as f64;
    report.set("inference.select_us", select_us);
    report.set("inference.score_us", predict_us - select_us);

    let selector = p.oracle.degraded_selector(0);
    let mut scratch = BatchScratch::default();
    let mut candidates = 0usize;
    for chunk in sample.chunks(n) {
        let mut outs: Vec<TopK> = chunk.iter().map(|_| TopK::new(TOP_K)).collect();
        candidates += net
            .predict_topk_batch(&selector, &mut ws, &mut scratch, chunk, &mut outs)
            .candidates;
    }
    // A batch scores the union of its examples' candidates once.
    report.set(
        "engine.candidates_per_example",
        candidates as f64 / sample.len() as f64,
    );
    let answered = (engine_after.requests - engine_before.requests).max(1);
    report.set(
        "engine.dense_fallback_share",
        (engine_after.dense_fallbacks - engine_before.dense_fallbacks) as f64 / answered as f64,
    );
    let agree = sample
        .iter()
        .zip(&p.traffic.reference)
        .filter(|(f, want)| want.first().map(|w| w.0) == Some(net.predict_top1(&mut ws, f)))
        .count();
    report.set(
        "engine.retrieval_agreement",
        agree as f64 / sample.len() as f64,
    );
    report.set("snapshot.bytes", p.snapshot.len() as f64);
    report.set("snapshot.load_s", p.snapshot_load_s);
    report.set("snapshot.slice_s", p.slice_s);

    let Prepared { fleet, .. } = p;
    fleet.shutdown();
    let trace_path = run.out_dir.join(format!("{}.trace.json", run.workload));
    tracer
        .write_json(&trace_path, &run.workload)
        .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;
    report.note(format!(
        "{} traced requests of {n} inputs from one client; round trip p50 {roundtrip_us:.1}us = replayed stages {stage_us:.1}us + transport {:.1}us; {d2xx} 2xx; {} spans in {}",
        picks.len(),
        roundtrip_us - stage_us,
        tracer.spans().len(),
        trace_path.display()
    ));
    Ok(())
}

pub fn run(shape: &ServeShape, run: &Run, report: &mut Report) -> Result<(), String> {
    if run.trace {
        serve_traced(shape, run, report)
    } else {
        serve_untraced(shape, run, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(done_s: f64, ok: u32) -> Op {
        Op {
            done_s,
            latency_s: 0.001,
            ok,
            bad: 0,
            hits: 0,
        }
    }

    #[test]
    fn segment_rates_bin_by_completion_and_drop_late_finishers() {
        let ops = [op(0.1, 2), op(0.9, 2), op(1.5, 8), op(2.0, 100)];
        assert_eq!(segment_rates(&ops, 2.0, 2), vec![4.0, 8.0]);
    }

    #[test]
    fn reference_match_is_classes_and_score_bits() {
        let want: Answer = vec![(3, 0.5), (1, 0.25)];
        let mut got = WirePrediction {
            classes: vec![3, 1],
            scores: vec![0.5, 0.25],
            latency_us: 0,
        };
        assert!(matches_reference(&got, &want));
        got.scores[1] = f32::from_bits(0.25f32.to_bits() + 1);
        assert!(!matches_reference(&got, &want));
        got.scores[1] = 0.25;
        got.classes.swap(0, 1);
        assert!(!matches_reference(&got, &want));
    }

    #[test]
    fn the_replayed_request_bytes_parse_as_one_request() {
        let body = "{\"indices\":[1],\"values\":[0.5]}";
        let bytes = http_request_bytes(body);
        let mut parser = RequestParser::new(1 << 20);
        match parser.advance(&bytes) {
            (used, ParseStatus::Request(req)) => {
                assert_eq!(used, bytes.len());
                assert_eq!(
                    (req.method.as_str(), req.path.as_str()),
                    ("POST", "/v1/predict")
                );
                assert_eq!(req.body, body);
            }
            other => panic!("not a request: {other:?}"),
        }
    }

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(draw_inputs(4_096, 1_024, 5), draw_inputs(4_096, 1_024, 5));
        assert_ne!(draw_inputs(4_096, 1_024, 5), draw_inputs(4_096, 1_024, 6));
        let mut drawn = draw_inputs(64, 64, 5);
        drawn.sort_unstable();
        assert_eq!(drawn, (0..64).collect::<Vec<_>>(), "distinct inputs");
    }
}
