//! Train → snapshot → serve: the full inference lifecycle.
//!
//! Trains a small SLIDE network, freezes it to a snapshot file, loads it
//! into a `ServingEngine` (which rebuilds the hash tables with centered
//! rows for retrieval quality), and serves top-k requests both directly
//! and through the micro-batching `BatchServer`.
//!
//! ```sh
//! cargo run --release --example inference
//! ```

use std::sync::Arc;

use slide::prelude::*;
use slide::serve::BatchOptions;

fn main() {
    // 1. Train a SLIDE network on a synthetic extreme-classification task.
    let data = generate(&SyntheticConfig::tiny().with_seed(3));
    let config = NetworkConfig::builder(data.train.feature_dim(), data.train.label_dim())
        .hidden(24)
        .output_lsh(LshLayerConfig::simhash(3, 10))
        .learning_rate(2e-3)
        .seed(11)
        .build()
        .expect("valid config");
    let mut trainer = SlideTrainer::new(config).expect("valid network");
    let report = trainer.train(&data.train, &TrainOptions::new(3).batch_size(32));
    println!(
        "trained {} iterations in {:.2}s; dense P@1 = {:.3}",
        report.iterations,
        report.seconds,
        trainer.evaluate_n(&data.test, 200)
    );

    // 2. Freeze the trained network to a versioned snapshot file.
    let path = std::env::temp_dir().join("slide_example.slidesnap");
    trainer
        .network()
        .save_snapshot(&path)
        .expect("snapshot written");
    println!(
        "snapshot: {} bytes at {}",
        std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0),
        path.display()
    );

    // 3. Serve: load the snapshot into an engine (tables rebuilt with
    //    centered rows) and answer requests without label leakage.
    let handle = Arc::new(EngineHandle::new(
        ServingEngine::from_snapshot_file(&path, ServeOptions::default().with_top_k(3))
            .expect("snapshot loads"),
    ));
    let engine = handle.engine();
    std::fs::remove_file(&path).ok();

    let example = &data.test.examples()[0];
    let answer = engine.predict(&example.features).expect("valid request");
    println!(
        "direct predict: top-3 {:?} in {:?} (true labels {:?})",
        answer.topk.items(),
        answer.latency,
        example.labels
    );

    // 4. The same engine behind the micro-batching request queue.
    let server = BatchServer::over_handle(
        handle,
        BatchOptions::default().with_workers(2).with_max_batch(8),
    );
    let handles: Vec<_> = data
        .test
        .iter()
        .take(64)
        .map(|ex| server.submit(ex.features.clone()).expect("valid request"))
        .collect();
    let mut hits = 0usize;
    for (h, ex) in handles.into_iter().zip(data.test.iter()) {
        let p = h.wait().expect("answered");
        if let Some(top) = p.topk.top1() {
            hits += ex.labels.binary_search(&top).is_ok() as usize;
        }
    }
    let stats = server.stats();
    println!(
        "batched: {} requests, mean batch {:.1}, mean queue wait {:?}, served P@1 = {:.3}",
        stats.requests,
        stats.mean_batch,
        stats.mean_queue_wait,
        hits as f64 / 64.0
    );
    server.shutdown();
    println!(
        "engine totals: {} requests, mean latency {:?}",
        engine.stats().requests,
        engine.stats().mean_latency()
    );
}
