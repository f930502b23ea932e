//! End-to-end fault-tolerance guarantees of the serving stack:
//!
//! 1. a corrupt (or truncated) snapshot publish under a live
//!    [`SnapshotWatcher`] never reaches the engine — the last-good model
//!    keeps answering bit-identically, the bad file is quarantined, and
//!    the next good publish hot-loads;
//! 2. an injected worker panic surfaces as a typed `500
//!    worker_panicked` answer (never a hang), the supervisor respawns
//!    the worker, and the pool then serves flawlessly;
//! 3. the degraded [`QueryBudget`] trades accuracy for scoring work
//!    *boundedly*: level 0 is the identity, and each deeper level's P@1
//!    stays within a per-level tolerance of the full budget;
//! 4. losing a shard behind the scatter-gather [`Router`] — whether a
//!    worker panic mid-load or the whole process — answers a typed
//!    `503 shard_unavailable` (never a partial merge), flips `/readyz`,
//!    and a restarted shard rejoins with bit-identical answers.

use std::sync::Arc;
use std::time::{Duration, Instant};

use slide::prelude::*;
use slide::serve::{Client, ClientError, PublishFault, Router, RouterOptions};

fn trained_snapshot(epochs: usize) -> (Vec<u8>, slide::data::synth::SyntheticData) {
    let mut synth = SyntheticConfig::tiny().with_seed(97);
    synth.test_size = 64;
    let data = generate(&synth);
    let config = NetworkConfig::builder(data.train.feature_dim(), data.train.label_dim())
        .hidden(24)
        .output_lsh(LshLayerConfig::simhash(3, 10))
        .learning_rate(2e-3)
        .seed(41)
        .build()
        .unwrap();
    let mut trainer = SlideTrainer::new(config).unwrap();
    trainer.train(
        &data.train,
        &TrainOptions::new(epochs).batch_size(32).seed(5),
    );
    (trainer.network().to_snapshot_bytes(), data)
}

fn wait_until(deadline: Duration, mut done: impl FnMut() -> bool) -> bool {
    let t0 = Instant::now();
    while t0.elapsed() < deadline {
        if done() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    done()
}

/// Table-driven: each way a publish can go bad must roll back the same
/// way — last-good engine keeps serving, bad file quarantined, next
/// good publish loads.
#[test]
fn corrupt_publishes_roll_back_to_last_good_and_recover() {
    let (bytes_a, data) = trained_snapshot(1);
    let (bytes_b, _) = trained_snapshot(2);
    let options = ServeOptions::default().with_top_k(3);
    let direct = ServingEngine::from_snapshot_bytes(&bytes_a, options).unwrap();
    let reference: Vec<Vec<(u32, f32)>> = data
        .test
        .iter()
        .take(8)
        .map(|ex| direct.predict(&ex.features).unwrap().topk.items().to_vec())
        .collect();

    for (name, fault) in [
        ("corrupt", PublishFault::Corrupt),
        ("truncate", PublishFault::Truncate),
    ] {
        let path = std::env::temp_dir().join(format!(
            "slide_ft_{}_{}.slidesnap",
            name,
            std::process::id()
        ));
        slide::core::snapshot::publish_bytes(&path, &bytes_a).unwrap();
        let handle = Arc::new(EngineHandle::from_snapshot_file(&path, options).unwrap());
        let watcher = handle.spawn_watcher(path.clone(), Duration::from_millis(25));

        let plan = FaultPlan::new();
        match fault {
            PublishFault::Truncate => plan.inject_truncated_publishes(1),
            _ => plan.inject_corrupt_publishes(1),
        }
        let applied = plan.publish(&path, &bytes_b).unwrap();
        assert_eq!(applied, fault, "{name}: the armed fault must fire");

        // The watcher must notice, fail the load, and quarantine —
        // without ever installing the bad snapshot.
        assert!(
            wait_until(Duration::from_secs(10), || handle.quarantined() > 0),
            "{name}: bad publish was never quarantined"
        );
        assert_eq!(handle.epoch(), 1, "{name}: bad snapshot must not install");
        assert!(handle.reload_failures() >= 1, "{name}");
        assert!(handle.consecutive_reload_failures() >= 1, "{name}");
        assert_eq!(handle.last_good_epoch(), 1, "{name}");
        // Last-good engine still answers bit-identically.
        let engine = handle.engine();
        for (ex, want) in data.test.iter().take(8).zip(&reference) {
            let got = engine.predict(&ex.features).unwrap();
            assert_eq!(got.topk.items(), want.as_slice(), "{name}: wrong answer");
        }

        // The next good publish recovers within a few polls.
        let applied = plan.publish(&path, &bytes_b).unwrap();
        assert_eq!(applied, PublishFault::None, "{name}: plan must be drained");
        assert!(
            wait_until(Duration::from_secs(10), || handle.epoch() >= 2),
            "{name}: good publish after quarantine never loaded"
        );
        assert_eq!(handle.consecutive_reload_failures(), 0, "{name}");
        assert_eq!(handle.last_good_epoch(), 2, "{name}");

        watcher.stop();
        std::fs::remove_file(&path).ok();
        let mut q = path.into_os_string();
        q.push(".quarantined");
        std::fs::remove_file(std::path::PathBuf::from(q)).ok();
    }
}

/// An injected worker panic must answer a typed 500 over the wire, the
/// supervisor must respawn the worker, and the pool must then heal.
#[test]
fn worker_panic_answers_typed_500_over_http_and_self_heals() {
    let (bytes, data) = trained_snapshot(1);
    let options = ServeOptions::default().with_top_k(3);
    let handle = Arc::new(EngineHandle::new(
        ServingEngine::from_snapshot_bytes(&bytes, options).unwrap(),
    ));
    let plan = Arc::new(FaultPlan::new());
    let server = HttpServer::serve_with_faults(
        Arc::clone(&handle),
        "127.0.0.1:0",
        HttpOptions::default(),
        Arc::clone(&plan),
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    plan.inject_worker_panics(2);
    let mut typed = 0u64;
    let mut i = 0usize;
    while plan.panics_pending() > 0 && i < 1_000 {
        let ex = &data.test.examples()[i % data.test.len()];
        i += 1;
        match client.predict(&ex.features, None) {
            Ok(_) => {}
            Err(ClientError::Api { status, code, .. }) => {
                assert_eq!((status, code.as_str()), (500, "worker_panicked"));
                typed += 1;
            }
            Err(e) => panic!("unexpected failure under injected panics: {e}"),
        }
    }
    assert_eq!(
        typed, 2,
        "each injected panic answers exactly one typed 500"
    );
    assert_eq!(plan.panics_fired(), 2);

    // Self-healed: the respawned workers answer everything.
    for ex in data.test.iter().take(30) {
        client.predict(&ex.features, None).unwrap();
    }
    assert!(
        wait_until(Duration::from_secs(10), || {
            server.batch_stats().worker_respawns >= 2
        }),
        "supervisor never respawned the panicked workers"
    );
    assert_eq!(server.batch_stats().worker_panics, 2);
    server.shutdown();
}

/// Losing a shard must never produce a silently partial merge: a
/// FaultPlan-injected worker panic on one shard mid-load surfaces at the
/// router as a typed `503 shard_unavailable`, a hard-killed shard does
/// the same and flips `/readyz`, and restarting the shard on its old
/// address restores answers bit-identical to the pre-kill reference.
#[test]
fn shard_death_is_typed_and_rejoin_restores_bit_identical_answers() {
    let (bytes, data) = trained_snapshot(1);
    // Bit-identity across the merge needs raw scores that do not depend
    // on which candidates a shard happened to score, so the dense safety
    // net stays off — exactly how the cluster bench deploys.
    let options = ServeOptions::default()
        .with_top_k(3)
        .with_dense_fallback(false);
    let slices = slide::core::snapshot::slice_snapshot(&bytes, 3).unwrap();

    let mut handles = Vec::new();
    let mut plans = Vec::new();
    let mut servers = Vec::new();
    for slice in &slices {
        let engine = ServingEngine::from_slice_bytes(slice, options).unwrap();
        let handle = Arc::new(EngineHandle::new(engine));
        let plan = Arc::new(FaultPlan::new());
        let server = HttpServer::serve_with_faults(
            Arc::clone(&handle),
            "127.0.0.1:0",
            HttpOptions::default(),
            Arc::clone(&plan),
        )
        .unwrap();
        handles.push(handle);
        plans.push(plan);
        servers.push(Some(server));
    }
    let shard_addrs: Vec<_> = servers
        .iter()
        .map(|s| s.as_ref().unwrap().local_addr())
        .collect();
    let router = Router::serve(
        "127.0.0.1:0",
        shard_addrs.clone(),
        RouterOptions::default().with_top_k(3),
    )
    .unwrap();
    let mut client = Client::connect(router.local_addr()).unwrap();
    assert!(client.readyz().unwrap(), "fresh cluster must be ready");

    // Pre-kill reference: merged answers for a fixed probe set, pinned
    // down to the score bits.
    let probes: Vec<&SparseVector> = data.test.iter().take(12).map(|ex| &ex.features).collect();
    let reference: Vec<(Vec<u32>, Vec<u32>)> = probes
        .iter()
        .map(|features| {
            let p = client
                .predict(features, None)
                .unwrap()
                .predictions
                .remove(0);
            (p.classes, p.scores.iter().map(|s| s.to_bits()).collect())
        })
        .collect();

    // Phase 1 — FaultPlan worker panic on shard 1 mid-load: the shard's
    // typed 500 must reach the caller as the router's typed 503 (the
    // merge is all-or-nothing), and the shard then self-heals.
    plans[1].inject_worker_panics(1);
    let mut typed = 0u64;
    let mut i = 0usize;
    while plans[1].panics_pending() > 0 && i < 1_000 {
        let ex = &data.test.examples()[i % data.test.len()];
        i += 1;
        match client.predict(&ex.features, None) {
            Ok(_) => {}
            Err(ClientError::Api { status, code, .. }) => {
                assert_eq!((status, code.as_str()), (503, "shard_unavailable"));
                typed += 1;
            }
            Err(e) => panic!("unexpected failure under an injected shard panic: {e}"),
        }
    }
    assert_eq!(typed, 1, "the injected shard panic answers one typed 503");
    assert_eq!(plans[1].panics_fired(), 1);
    assert!(
        wait_until(Duration::from_secs(10), || {
            client
                .predict(&data.test.examples()[0].features, None)
                .is_ok()
        }),
        "cluster never healed after the shard's worker respawned"
    );

    // Phase 2 — kill the whole shard process. Every predict is a typed
    // 503 (never a partial answer), readiness reflects the hole, and
    // liveness stays up for the surviving shards.
    servers[1].take().unwrap().shutdown();
    let mut saw_unavailable = false;
    for _ in 0..5 {
        match client.predict(probes[0], None) {
            Err(ClientError::Api { status, code, .. }) => {
                assert_eq!((status, code.as_str()), (503, "shard_unavailable"));
                saw_unavailable = true;
            }
            Ok(_) => panic!("a merged answer appeared while a shard was dead"),
            Err(e) => panic!("untyped failure with a dead shard: {e}"),
        }
    }
    assert!(saw_unavailable);
    assert!(
        !client.readyz().unwrap(),
        "readyz must flip with a shard down"
    );
    assert_eq!(client.healthz().unwrap().epoch, 1, "survivors stay live");

    // Phase 3 — restart the shard on its old address (the listener may
    // linger in TIME_WAIT briefly) and require bit-identical recovery.
    let rejoined = {
        let handle = Arc::clone(&handles[1]);
        let addr = shard_addrs[1];
        let t0 = Instant::now();
        loop {
            match HttpServer::serve(Arc::clone(&handle), addr, HttpOptions::default()) {
                Ok(server) => break server,
                Err(e) if t0.elapsed() < Duration::from_secs(10) => {
                    std::thread::sleep(Duration::from_millis(50));
                    let _ = e;
                }
                Err(e) => panic!("shard could not rebind {addr}: {e}"),
            }
        }
    };
    assert!(
        wait_until(Duration::from_secs(10), || client.readyz().unwrap_or(false)),
        "cluster never became ready after the shard rejoined"
    );
    for (features, (classes, score_bits)) in probes.iter().zip(&reference) {
        let p = client
            .predict(features, None)
            .unwrap()
            .predictions
            .remove(0);
        assert_eq!(&p.classes, classes, "recovered classes differ");
        let got_bits: Vec<u32> = p.scores.iter().map(|s| s.to_bits()).collect();
        assert_eq!(&got_bits, score_bits, "recovered score bits differ");
    }
    assert!(router.stats().shard_errors >= 1);

    rejoined.shutdown();
    for server in servers.into_iter().flatten() {
        server.shutdown();
    }
    router.shutdown();
}

/// Table-driven: the degraded budget's accuracy loss is bounded per
/// level — and level 0 is exactly the full budget.
///
/// Uses a wider label space than the other tests: with only 50 classes,
/// a retrieval holds a handful of candidates and the measurement would
/// say little about budget-shrink quality. The model is the one
/// `serve_chaos --smoke` trains.
#[test]
fn degraded_budgets_lose_bounded_accuracy() {
    let mut synth = SyntheticConfig::delicious_like(Scale::Smoke).with_seed(0xC4A0);
    synth.feature_dim = 300;
    synth.label_dim = 400;
    synth.train_size = 800;
    synth.test_size = 256;
    let data = generate(&synth);
    let config = NetworkConfig::builder(data.train.feature_dim(), data.train.label_dim())
        .hidden(32)
        .output_lsh(LshLayerConfig::simhash(4, 16).with_tables(10, 400))
        .learning_rate(2e-3)
        .seed(0xFA11)
        .build()
        .unwrap();
    // One thread: HOGWILD races make a multi-threaded model, and with it
    // every P@1 below, vary from run to run under load.
    let mut trainer = SlideTrainer::new(config).unwrap();
    trainer.train(
        &data.train,
        &TrainOptions::new(2).batch_size(64).threads(1).seed(7),
    );
    let bytes = trainer.network().to_snapshot_bytes();
    let options = ServeOptions::default().with_top_k(5);
    let full = ServingEngine::from_snapshot_bytes(&bytes, options).unwrap();
    let p_at_1 = |engine: &ServingEngine| -> f64 {
        let mut hits = 0usize;
        for ex in data.test.iter() {
            if let Some(t) = engine.predict(&ex.features).unwrap().topk.top1() {
                hits += ex.labels.binary_search(&t).is_ok() as usize;
            }
        }
        hits as f64 / data.test.len() as f64
    };
    let baseline = p_at_1(&full);
    assert!(baseline > 0.3, "model too weak to measure: P@1 {baseline}");

    // (level, max tolerated P@1 drop). `serve_chaos --smoke --check`
    // pins the 0.02 bound at its operating level on this model and the
    // default budget; this table guards the *shape* — identity at 0,
    // graceful decay after.
    for (level, tolerance) in [(0u32, 0.0f64), (1, 0.05), (2, 0.30)] {
        let budget = options.budget.degraded(level);
        let engine =
            ServingEngine::from_snapshot_bytes(&bytes, options.with_budget(budget)).unwrap();
        let got = p_at_1(&engine);
        assert!(
            got >= baseline - tolerance,
            "level {level}: P@1 {got:.4} fell more than {tolerance} below {baseline:.4}"
        );
        if level == 0 {
            // Identity: the level-0 budget must not change a single
            // answer.
            for ex in data.test.iter().take(16) {
                assert_eq!(
                    engine.predict(&ex.features).unwrap().topk.items(),
                    full.predict(&ex.features).unwrap().topk.items(),
                );
            }
        }
    }
}
