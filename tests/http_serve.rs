//! End-to-end guarantees of the versioned HTTP service API:
//!
//! 1. snapshot A serves over a real localhost socket; `/v1/reload`
//!    swaps in snapshot B *under concurrent keep-alive load* with zero
//!    request failures;
//! 2. every response names the model epoch that answered, epochs are
//!    monotone per connection, a request sent after the reload is
//!    acknowledged is answered by the new epoch, and post-reload
//!    answers are **bit-identical** to calling `ServingEngine::predict`
//!    on snapshot B directly — classes and scores survive the JSON wire
//!    exactly;
//! 3. the typed error contract holds over the wire (bad request → 400,
//!    out-of-range feature → 422).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use slide::prelude::*;
use slide::serve::{Client, ClientError};

fn trained_snapshot(epochs: usize) -> (Vec<u8>, slide::data::synth::SyntheticData) {
    let mut synth = SyntheticConfig::tiny().with_seed(31);
    synth.test_size = 64;
    let data = generate(&synth);
    let config = NetworkConfig::builder(data.train.feature_dim(), data.train.label_dim())
        .hidden(24)
        .output_lsh(LshLayerConfig::simhash(3, 10))
        .learning_rate(2e-3)
        .seed(17)
        .build()
        .unwrap();
    let mut trainer = SlideTrainer::new(config).unwrap();
    trainer.train(
        &data.train,
        &TrainOptions::new(epochs).batch_size(32).seed(5),
    );
    (trainer.network().to_snapshot_bytes(), data)
}

#[test]
fn hot_reload_under_concurrent_load_is_downtime_free_and_bit_identical() {
    let (bytes_a, data) = trained_snapshot(1);
    let (bytes_b, _) = trained_snapshot(3);
    let options = ServeOptions::default().with_top_k(3);

    let dir = std::env::temp_dir();
    let path_a = dir.join(format!("slide_e2e_a_{}.slidesnap", std::process::id()));
    let path_b = dir.join(format!("slide_e2e_b_{}.slidesnap", std::process::id()));
    std::fs::write(&path_a, &bytes_a).unwrap();
    std::fs::write(&path_b, &bytes_b).unwrap();

    // Ground truth for both models, computed through the direct
    // in-process path the wire answers must match bit-for-bit.
    let direct_a = ServingEngine::from_snapshot_bytes(&bytes_a, options).unwrap();
    let direct_b = ServingEngine::from_snapshot_bytes(&bytes_b, options).unwrap();
    let reference: Vec<[Vec<(u32, f32)>; 2]> = data
        .test
        .iter()
        .map(|ex| {
            [
                direct_a
                    .predict(&ex.features)
                    .unwrap()
                    .topk
                    .items()
                    .to_vec(),
                direct_b
                    .predict(&ex.features)
                    .unwrap()
                    .topk
                    .items()
                    .to_vec(),
            ]
        })
        .collect();

    let handle = Arc::new(EngineHandle::from_snapshot_file(&path_a, options).unwrap());
    let server =
        HttpServer::serve(Arc::clone(&handle), "127.0.0.1:0", HttpOptions::default()).unwrap();
    let addr = server.local_addr();

    // Concurrent keep-alive clients: each loops the test set until it has
    // seen the post-reload model answer several times. Every single
    // response must be 2xx and bit-identical to the reference for the
    // epoch that answered it.
    let epoch_2_served = Arc::new(AtomicU64::new(0));
    // Set once `/v1/reload` has answered: a request sent after that must
    // be answered by the new epoch.
    let reload_acked = Arc::new(AtomicBool::new(false));
    let data = Arc::new(data);
    let reference = Arc::new(reference);
    let clients: Vec<_> = (0..4)
        .map(|t| {
            let data = Arc::clone(&data);
            let reference = Arc::clone(&reference);
            let epoch_2_served = Arc::clone(&epoch_2_served);
            let reload_acked = Arc::clone(&reload_acked);
            std::thread::spawn(move || -> Result<u64, String> {
                let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
                let deadline = Instant::now() + Duration::from_secs(60);
                let mut last_epoch = 0u64;
                let mut post_reload_hits = 0u64;
                let mut requests = 0u64;
                'outer: while post_reload_hits < 5 {
                    if Instant::now() > deadline {
                        return Err(format!(
                            "thread {t}: deadline before 5 epoch-2 answers \
                             ({requests} requests, last epoch {last_epoch})"
                        ));
                    }
                    for (i, ex) in data.test.iter().enumerate() {
                        let issued_after_ack = reload_acked.load(Ordering::SeqCst);
                        let resp = client
                            .predict(&ex.features, None)
                            .map_err(|e| format!("thread {t} request failed: {e}"))?;
                        requests += 1;
                        if issued_after_ack && resp.epoch != 2 {
                            return Err(format!(
                                "thread {t}: request sent after the reload ack \
                                 answered by epoch {}",
                                resp.epoch
                            ));
                        }
                        // Epochs never run backwards on one connection.
                        if resp.epoch < last_epoch {
                            return Err(format!(
                                "thread {t}: epoch went backwards {last_epoch} -> {}",
                                resp.epoch
                            ));
                        }
                        last_epoch = resp.epoch;
                        let want = match resp.epoch {
                            1 => &reference[i][0],
                            2 => &reference[i][1],
                            e => return Err(format!("thread {t}: unexpected epoch {e}")),
                        };
                        let p = &resp.predictions[0];
                        if p.classes.len() != want.len() {
                            return Err(format!(
                                "thread {t} input {i}: {} classes, want {}",
                                p.classes.len(),
                                want.len()
                            ));
                        }
                        for (j, (&(wc, ws), (&c, &s))) in
                            want.iter().zip(p.classes.iter().zip(&p.scores)).enumerate()
                        {
                            if c != wc || s.to_bits() != ws.to_bits() {
                                return Err(format!(
                                    "thread {t} input {i} rank {j} (epoch {}): \
                                     got class {c} score {s:?}, want {wc} {ws:?}",
                                    resp.epoch
                                ));
                            }
                        }
                        if resp.epoch == 2 {
                            post_reload_hits += 1;
                            epoch_2_served.fetch_add(1, Ordering::Relaxed);
                            if post_reload_hits >= 5 {
                                break 'outer;
                            }
                        }
                    }
                }
                Ok(requests)
            })
        })
        .collect();

    // Let the clients build traffic on epoch 1, then swap in snapshot B
    // through the public endpoint, mid-flight. The wait is bounded so a
    // client-side failure surfaces through the joins below instead of
    // hanging the test here.
    let mut ops = Client::connect(addr).unwrap();
    let wait_deadline = Instant::now() + Duration::from_secs(60);
    while server.stats().responses_2xx < 20 && Instant::now() < wait_deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    let new_epoch = ops.reload(path_b.to_str().unwrap()).unwrap();
    reload_acked.store(true, Ordering::SeqCst);
    assert_eq!(new_epoch, 2);
    assert_eq!(ops.healthz().unwrap().epoch, 2);

    let mut total_requests = 0u64;
    for c in clients {
        total_requests += c.join().unwrap().unwrap_or_else(|e| panic!("{e}"));
    }
    assert!(total_requests >= 20);
    assert!(epoch_2_served.load(Ordering::Relaxed) >= 20);

    // Post-reload, the batch form is bit-identical to the direct batched
    // path too.
    let batch: Vec<SparseVector> = data
        .test
        .iter()
        .take(9)
        .map(|ex| ex.features.clone())
        .collect();
    let wire_batch = ops.predict_batch(&batch, None).unwrap();
    assert_eq!(wire_batch.epoch, 2);
    let direct_batch = direct_b.predict_batch(&batch).unwrap();
    for (w, d) in wire_batch.predictions.iter().zip(&direct_batch) {
        let items = d.topk.items();
        assert_eq!(w.classes.len(), items.len());
        for ((&c, &s), &(dc, ds)) in w.classes.iter().zip(&w.scores).zip(items) {
            assert_eq!(c, dc);
            assert_eq!(s.to_bits(), ds.to_bits());
        }
    }

    // Zero failures across the whole run: every response the transport
    // sent was a 2xx.
    let stats = server.stats();
    assert_eq!(stats.responses_4xx, 0, "{stats:?}");
    assert_eq!(stats.responses_5xx, 0, "{stats:?}");
    assert!(stats.responses_2xx >= total_requests);

    // The typed error contract over the wire (on top of the clean run —
    // these land in 4xx counters only now).
    let err = ops
        .request("POST", "/v1/predict", Some("{not json"))
        .unwrap();
    assert_eq!(err.0, 400);
    let input_dim = handle.engine().input_dim();
    let bad = format!("{{\"indices\":[{}],\"values\":[1.0]}}", input_dim + 7);
    let err = ops.predict(
        &SparseVector::from_pairs([(input_dim as u32 + 7, 1.0)]),
        None,
    );
    match err {
        Err(ClientError::Api { status, code, .. }) => {
            assert_eq!(status, 422);
            assert_eq!(code, "feature_index_out_of_range");
        }
        other => panic!("expected 422 Api error, got {other:?}"),
    }
    let err = ops.request("POST", "/v1/predict", Some(&bad)).unwrap();
    assert_eq!(err.0, 422);

    server.shutdown();
    std::fs::remove_file(&path_a).ok();
    std::fs::remove_file(&path_b).ok();
}

#[test]
fn coalesced_singles_batched_requests_and_direct_predict_are_bit_identical() {
    // The admission queue fuses singles from different connections into
    // shared batch passes. That optimization must be invisible in the
    // answers: a single that rode a coalesced batch, the same input in
    // an explicit HTTP batch, and `ServingEngine::predict` called
    // directly must agree bit-for-bit.
    let (bytes, data) = trained_snapshot(2);
    let options = ServeOptions::default().with_top_k(3);
    let direct = ServingEngine::from_snapshot_bytes(&bytes, options).unwrap();
    let reference: Vec<Vec<(u32, f32)>> = data
        .test
        .iter()
        .map(|ex| direct.predict(&ex.features).unwrap().topk.items().to_vec())
        .collect();

    let engine = ServingEngine::from_snapshot_bytes(&bytes, options).unwrap();
    let handle = Arc::new(EngineHandle::new(engine));
    let server =
        HttpServer::serve(Arc::clone(&handle), "127.0.0.1:0", HttpOptions::default()).unwrap();
    let addr = server.local_addr();

    // Phase 1: concurrent keep-alive connections each firing singles.
    // Every answer must match the direct reference bit-for-bit even
    // when it was computed inside a fused cross-connection batch.
    let data = Arc::new(data);
    let reference = Arc::new(reference);
    let clients: Vec<_> = (0..6)
        .map(|t| {
            let data = Arc::clone(&data);
            let reference = Arc::clone(&reference);
            std::thread::spawn(move || -> Result<(), String> {
                let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
                for round in 0..4 {
                    for (i, ex) in data.test.iter().enumerate() {
                        let resp = client
                            .predict(&ex.features, None)
                            .map_err(|e| format!("thread {t} round {round}: {e}"))?;
                        let p = &resp.predictions[0];
                        let want = &reference[i];
                        if p.classes.len() != want.len() {
                            return Err(format!(
                                "thread {t} input {i}: {} classes, want {}",
                                p.classes.len(),
                                want.len()
                            ));
                        }
                        for ((&c, &s), &(wc, ws)) in
                            p.classes.iter().zip(&p.scores).zip(want.iter())
                        {
                            if c != wc || s.to_bits() != ws.to_bits() {
                                return Err(format!(
                                    "thread {t} input {i}: coalesced single diverged: \
                                     got class {c} score {s:?}, want {wc} {ws:?}"
                                ));
                            }
                        }
                    }
                }
                Ok(())
            })
        })
        .collect();
    for c in clients {
        c.join().unwrap().unwrap_or_else(|e| panic!("{e}"));
    }

    // The concurrency above must actually have exercised coalescing,
    // otherwise phase 1 proved nothing about fused batches.
    let b = server.batch_stats();
    assert!(
        b.largest_batch > 1,
        "no cross-connection coalescing happened: {b:?}"
    );

    // Phase 2: the explicit HTTP batch form answers identically too.
    let mut ops = Client::connect(addr).unwrap();
    let batch: Vec<SparseVector> = data
        .test
        .iter()
        .take(16)
        .map(|ex| ex.features.clone())
        .collect();
    let wire_batch = ops.predict_batch(&batch, None).unwrap();
    assert_eq!(wire_batch.predictions.len(), 16);
    for (i, p) in wire_batch.predictions.iter().enumerate() {
        let want = &reference[i];
        assert_eq!(p.classes.len(), want.len());
        for ((&c, &s), &(wc, ws)) in p.classes.iter().zip(&p.scores).zip(want.iter()) {
            assert_eq!(c, wc, "batch input {i}");
            assert_eq!(s.to_bits(), ws.to_bits(), "batch input {i}");
        }
    }

    // Nothing failed anywhere in the run.
    let stats = server.stats();
    assert_eq!(stats.responses_4xx, 0, "{stats:?}");
    assert_eq!(stats.responses_5xx, 0, "{stats:?}");
    server.shutdown();
}

/// `/readyz` is routing advice layered over `/healthz` liveness: a
/// server whose snapshot source keeps failing goes not-ready while its
/// last-good engine keeps answering, and recovers with the next good
/// reload.
#[test]
fn readyz_tracks_reload_health_while_healthz_stays_liveness() {
    let (bytes, data) = trained_snapshot(1);
    let options = ServeOptions::default().with_top_k(3);
    let handle = Arc::new(EngineHandle::new(
        ServingEngine::from_snapshot_bytes(&bytes, options).unwrap(),
    ));
    let server =
        HttpServer::serve(Arc::clone(&handle), "127.0.0.1:0", HttpOptions::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    assert!(client.readyz().unwrap());

    // Three consecutive reload failures trip readiness.
    for _ in 0..3 {
        let (status, _) = client
            .request("POST", "/v1/reload", Some("{\"path\":\"/nope.slidesnap\"}"))
            .unwrap();
        assert_eq!(status, 500);
    }
    assert!(!client.readyz().unwrap());
    // Liveness and serving are untouched.
    assert_eq!(client.healthz().unwrap().epoch, 1);
    let ex = &data.test.examples()[0];
    assert!(client.predict(&ex.features, None).is_ok());

    // A good reload resets the failure streak and readiness.
    let path = std::env::temp_dir().join(format!("slide_readyz_{}.slidesnap", std::process::id()));
    slide::core::snapshot::publish_bytes(&path, &bytes).unwrap();
    let (status, _) = client
        .request(
            "POST",
            "/v1/reload",
            Some(&format!("{{\"path\":\"{}\"}}", path.display())),
        )
        .unwrap();
    assert_eq!(status, 200);
    assert!(client.readyz().unwrap());
    assert_eq!(handle.consecutive_reload_failures(), 0);
    assert_eq!(handle.last_good_epoch(), 2);
    server.shutdown();
    std::fs::remove_file(&path).ok();
}
