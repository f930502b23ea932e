//! The serving-path guarantees of the inference refactor:
//!
//! 1. a snapshot round trip is *bit-identical* — config, weights, biases
//!    and dense predictions all survive serialization exactly;
//! 2. LSH-retrieval inference (no label forcing, centered tables) agrees
//!    with dense argmax on a large majority of a wide-output test set;
//! 3. a `ServingEngine` loaded from a snapshot file serves concurrent
//!    batched requests that match direct (unbatched) predictions.

use std::sync::Arc;

use slide::core::inference::{InferenceSelector, TopK};
use slide::prelude::*;
use slide::serve::BatchOptions;

/// A small SLIDE network trained on a synthetic task; `labels` controls
/// the output width.
fn trained_network(labels: usize, epochs: usize) -> (Network, slide::data::synth::SyntheticData) {
    let mut synth = SyntheticConfig::delicious_like(Scale::Smoke);
    synth.label_dim = labels;
    synth.feature_dim = 600;
    synth.train_size = 1_500;
    synth.test_size = 300;
    let data = generate(&synth);
    let config = NetworkConfig::builder(data.train.feature_dim(), data.train.label_dim())
        .hidden(48)
        .output_lsh(
            // Buckets sized to the layer so serving-time retrieval never
            // loses neurons to FIFO eviction.
            LshLayerConfig::simhash(4, 24).with_tables(10, labels),
        )
        .learning_rate(2e-3)
        .seed(0xBEEF)
        .build()
        .unwrap();
    let mut trainer = SlideTrainer::new(config).unwrap();
    trainer.train(
        &data.train,
        &TrainOptions::new(epochs).batch_size(64).seed(7),
    );
    // Move the trained parameters over via the snapshot bytes so every
    // test exercises the real freeze path end to end.
    let net = Network::from_snapshot_bytes(&trainer.network().to_snapshot_bytes()).unwrap();
    (net, data)
}

#[test]
fn snapshot_round_trip_is_bit_identical() {
    let (net, data) = trained_network(200, 2);
    let bytes = net.to_snapshot_bytes();
    let restored = Network::from_snapshot_bytes(&bytes).unwrap();

    // Config identical.
    assert_eq!(restored.config(), net.config());

    // Every weight and bias identical at the bit level.
    for (l, (a, b)) in net.layers().iter().zip(restored.layers()).enumerate() {
        let (wa, wb) = (a.weights().flat(), b.weights().flat());
        assert_eq!(wa.len(), wb.len());
        for i in 0..wa.len() {
            assert_eq!(
                wa.get(i).to_bits(),
                wb.get(i).to_bits(),
                "layer {l} weight {i}"
            );
        }
        for i in 0..a.biases().len() {
            assert_eq!(
                a.biases().get(i).to_bits(),
                b.biases().get(i).to_bits(),
                "layer {l} bias {i}"
            );
        }
    }

    // Dense predictions identical on real inputs.
    let mut ws_a = net.workspace(1);
    let mut ws_b = restored.workspace(1);
    let mut logits_a = Vec::new();
    let mut logits_b = Vec::new();
    for ex in data.test.iter().take(25) {
        net.predict_logits_into(&mut ws_a, &ex.features, &mut logits_a);
        restored.predict_logits_into(&mut ws_b, &ex.features, &mut logits_b);
        assert_eq!(logits_a.len(), logits_b.len());
        for (j, (a, b)) in logits_a.iter().zip(&logits_b).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "class {j}");
        }
    }
}

#[test]
fn corrupted_snapshot_is_rejected() {
    let (net, _) = trained_network(100, 1);
    let mut bytes = net.to_snapshot_bytes();
    let mid = bytes.len() / 3;
    bytes[mid] ^= 0x40;
    assert!(Network::from_snapshot_bytes(&bytes).is_err());
}

#[test]
fn lsh_retrieval_agrees_with_dense_argmax() {
    let (mut net, data) = trained_network(800, 3);
    // Serving-time table geometry: hash centered rows (ranking-neutral).
    net.set_lsh_centering(true);

    let retrieval = InferenceSelector::default().with_dense_fallback(false);
    let mut ws = net.workspace(2);
    let mut topk = TopK::new(1);
    let n = data.test.len();
    let mut agree = 0usize;
    let mut dense_hits = 0usize;
    let mut lsh_hits = 0usize;
    for ex in data.test.iter() {
        let dense_top = net.predict_top1(&mut ws, &ex.features);
        net.predict_topk(&retrieval, &mut ws, &ex.features, &mut topk);
        let lsh_top = topk.top1();
        agree += (lsh_top == Some(dense_top)) as usize;
        dense_hits += ex.labels.binary_search(&dense_top).is_ok() as usize;
        if let Some(t) = lsh_top {
            lsh_hits += ex.labels.binary_search(&t).is_ok() as usize;
        }
    }
    let agreement = agree as f64 / n as f64;
    let dense_p1 = dense_hits as f64 / n as f64;
    let lsh_p1 = lsh_hits as f64 / n as f64;
    assert!(
        agreement > 0.7,
        "retrieval top-1 agrees with dense argmax on only {agreement:.3}"
    );
    assert!(
        lsh_p1 >= dense_p1 - 0.05,
        "retrieval P@1 {lsh_p1:.3} fell too far below dense {dense_p1:.3}"
    );
}

#[test]
fn serving_engine_serves_concurrent_batched_requests_from_disk() {
    let (net, data) = trained_network(300, 2);
    let path = std::env::temp_dir().join("slide_serving_test.slidesnap");
    net.save_snapshot(&path).unwrap();

    let handle = Arc::new(EngineHandle::new(
        ServingEngine::from_snapshot_file(&path, ServeOptions::default().with_top_k(3)).unwrap(),
    ));
    let engine = handle.engine();
    std::fs::remove_file(&path).ok();

    // Reference answers from the direct (unbatched) path.
    let reference: Vec<Option<u32>> = data
        .test
        .iter()
        .take(60)
        .map(|ex| engine.predict(&ex.features).unwrap().topk.top1())
        .collect();

    let server = Arc::new(BatchServer::over_handle(
        handle,
        BatchOptions::default().with_workers(3).with_max_batch(8),
    ));
    let data = Arc::new(data);
    let submitters: Vec<_> = (0..4)
        .map(|t| {
            let server = Arc::clone(&server);
            let data = Arc::clone(&data);
            std::thread::spawn(move || {
                let mut answers = Vec::new();
                for (i, ex) in data.test.iter().take(60).enumerate() {
                    if i % 4 == t {
                        answers.push((i, server.predict(ex.features.clone()).unwrap().topk.top1()));
                    }
                }
                answers
            })
        })
        .collect();
    let mut served = 0usize;
    for s in submitters {
        for (i, top) in s.join().unwrap() {
            assert_eq!(top, reference[i], "request {i} diverged under batching");
            served += 1;
        }
    }
    assert_eq!(served, 60);

    let stats = server.stats();
    assert_eq!(stats.requests, 60);
    assert!(stats.batches >= 1);
    // 60 direct + 60 batched requests hit the same engine counters.
    assert_eq!(engine.stats().requests, 120);
}

#[test]
fn batched_prediction_matches_per_request_path() {
    // The fused shared-union batch path (`ServingEngine::predict_batch` →
    // `Network::predict_topk_batch` → `gather_dot_batch`) is an execution
    // detail: every example is still reduced over its own candidate set,
    // so batched answers must match the per-request path.
    let (net, data) = trained_network(250, 2);
    let engine = ServingEngine::new(net, ServeOptions::default().with_top_k(4));

    let features: Vec<_> = data
        .test
        .iter()
        .take(24)
        .map(|ex| ex.features.clone())
        .collect();
    let singles: Vec<_> = features
        .iter()
        .map(|f| engine.predict(f).unwrap())
        .collect();
    let mut start = 0usize;
    for chunk in features.chunks(7) {
        let batched = engine.predict_batch(chunk).unwrap();
        assert_eq!(batched.len(), chunk.len());
        for (b, p) in batched.iter().enumerate() {
            let single = &singles[start + b];
            assert_eq!(p.topk.len(), single.topk.len());
            // The two paths sum in different orders (gather_dot vs
            // gather_dot_batch), so rankings may legitimately swap where
            // scores tie within the reordering tolerance; any larger
            // positional score gap is a real divergence.
            for (pos, (x, y)) in p.topk.items().iter().zip(single.topk.items()).enumerate() {
                let tol = 1e-4 * (1.0 + y.1.abs());
                assert!(
                    (x.1 - y.1).abs() <= 2.0 * tol,
                    "request {} position {pos}: class {} score {} vs class {} score {}",
                    start + b,
                    x.0,
                    x.1,
                    y.0,
                    y.1
                );
                assert!(
                    x.0 == y.0 || (x.1 - y.1).abs() <= 2.0 * tol,
                    "request {} position {pos}: ranking diverged beyond a near-tie",
                    start + b
                );
            }
        }
        start += chunk.len();
    }
}

#[test]
fn batched_dense_fallback_examples_match_single_path() {
    // min_collisions above L empties every retrieval, so each request
    // takes the dense fallback; the batch path must route such examples
    // around the shared union and still answer identically.
    let (net, data) = trained_network(120, 1);
    let options = ServeOptions::default()
        .with_top_k(3)
        .with_budget(slide::lsh::QueryBudget::all().with_min_collisions(64));
    let engine = ServingEngine::new(net, options);
    let features: Vec<_> = data
        .test
        .iter()
        .take(8)
        .map(|ex| ex.features.clone())
        .collect();
    let singles: Vec<_> = features
        .iter()
        .map(|f| engine.predict(f).unwrap())
        .collect();
    let batched = engine.predict_batch(&features).unwrap();
    for (i, (b, s)) in batched.iter().zip(&singles).enumerate() {
        assert_eq!(b.topk.top1(), s.topk.top1(), "request {i}");
    }
    // Every request (8 single + 8 batched) ran the dense fallback.
    assert_eq!(engine.stats().dense_fallbacks, 16);
}

#[test]
fn batch_of_one_equals_single_prediction() {
    let (net, data) = trained_network(150, 1);
    let engine = ServingEngine::new(net, ServeOptions::default().with_top_k(5));
    for ex in data.test.iter().take(10) {
        let single = engine.predict(&ex.features).unwrap();
        let batched = engine
            .predict_batch(std::slice::from_ref(&ex.features))
            .unwrap();
        assert_eq!(batched.len(), 1);
        assert_eq!(batched[0].topk.top1(), single.topk.top1());
    }
}

#[test]
fn quantized_snapshot_preserves_serving_accuracy() {
    // The i16 fixed-point snapshot is a lossy-but-bounded compression of
    // the output layer (error ≤ scale/2 per weight ≈ max|row|/65534).
    // Engine-level P@1 over a trained network must survive it, and the
    // quantized artifact itself must be materially smaller.
    let (net, data) = trained_network(400, 2);
    let f32_bytes = net.to_snapshot_bytes();
    let q_bytes = net.to_quantized_snapshot_bytes();
    // The saving target is the output layer (the part that dominates at
    // extreme-classification scale): i16 codes + per-row scales must
    // reclaim close to half its f32 weight bytes.
    let out = net.layers().last().unwrap();
    let out_w_bytes = out.units() * out.fan_in() * 4;
    assert!(
        f32_bytes.len() - q_bytes.len() > out_w_bytes * 2 / 5,
        "quantized snapshot {} vs f32 {} (output layer {} bytes)",
        q_bytes.len(),
        f32_bytes.len(),
        out_w_bytes
    );

    let options = ServeOptions::default().with_top_k(1);
    let f_engine = ServingEngine::from_snapshot_bytes(&f32_bytes, options).unwrap();
    let q_engine = ServingEngine::from_snapshot_bytes(&q_bytes, options).unwrap();
    assert!(!f_engine.quantized_active());
    assert!(q_engine.quantized_active());

    let features: Vec<_> = data.test.iter().map(|ex| ex.features.clone()).collect();
    let p1 = |engine: &ServingEngine| -> f64 {
        let mut hits = 0usize;
        for (preds, ex) in engine
            .predict_batch(&features)
            .unwrap()
            .iter()
            .zip(data.test.iter())
        {
            if let Some(t) = preds.topk.top1() {
                hits += ex.labels.binary_search(&t).is_ok() as usize;
            }
        }
        hits as f64 / features.len() as f64
    };
    let f_p1 = p1(&f_engine);
    let q_p1 = p1(&q_engine);
    // Smoke-scale test set (300 examples): one flipped answer moves P@1
    // by 0.0033, so gate at a granularity-aware bound.
    assert!(
        q_p1 >= f_p1 - 0.02,
        "quantized P@1 {q_p1:.4} fell below f32 P@1 {f_p1:.4}"
    );
}

#[test]
fn quantized_engine_matches_f32_engine_on_same_weights() {
    // The same quantized bytes served with and without their i16 rows
    // score identical (dequantized) weights through different kernels;
    // top-1 answers must agree except on floating-point near-ties.
    let (net, data) = trained_network(200, 2);
    let q_bytes = net.to_quantized_snapshot_bytes();
    let q_engine =
        ServingEngine::from_snapshot_bytes(&q_bytes, ServeOptions::default().with_top_k(1))
            .unwrap();
    let dequantized = slide::core::snapshot::read_snapshot_with_centering(&q_bytes, Some(true))
        .unwrap()
        .network;
    let f_engine = ServingEngine::new(dequantized, ServeOptions::default().with_top_k(1));
    let features: Vec<_> = data
        .test
        .iter()
        .take(100)
        .map(|ex| ex.features.clone())
        .collect();
    let qp = q_engine.predict_batch(&features).unwrap();
    let fp = f_engine.predict_batch(&features).unwrap();
    let agree = qp
        .iter()
        .zip(&fp)
        .filter(|(a, b)| a.topk.top1() == b.topk.top1())
        .count();
    assert!(
        agree >= features.len() * 95 / 100,
        "only {agree}/{} top-1 answers agree",
        features.len()
    );
}
