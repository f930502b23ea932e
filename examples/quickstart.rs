//! Quickstart: train a SLIDE network on a small synthetic
//! extreme-classification task and compare it against the dense baseline.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use slide::prelude::*;

fn main() {
    // 1. A synthetic extreme-classification dataset (stands in for the
    //    paper's Delicious-200K).
    let mut cfg = SyntheticConfig::tiny();
    cfg.label_dim = 500;
    cfg.feature_dim = 2_000;
    cfg.train_size = 4_000;
    cfg.test_size = 500;
    let data = generate(&cfg.with_seed(42));
    let stats = data.train.stats();
    println!(
        "dataset: {} train / {} test, {} features ({:.3}% dense), {} labels",
        data.train.len(),
        data.test.len(),
        stats.feature_dim,
        stats.feature_sparsity * 100.0,
        stats.label_dim
    );

    // 2. The paper's architecture: one 128-unit hidden layer, LSH-sampled
    //    softmax output (SimHash, K=6, L=20 scaled to this label count).
    let config = NetworkConfig::builder(data.train.feature_dim(), data.train.label_dim())
        .hidden(128)
        .output_lsh(LshLayerConfig::simhash(6, 20))
        .learning_rate(1e-3)
        .seed(7)
        .build()
        .expect("valid config");
    println!(
        "network: {} parameters, LSH on the output layer",
        config.num_parameters()
    );

    // 3. Train SLIDE.
    let options = TrainOptions::new(5).batch_size(128).seed(1);
    let mut slide = SlideTrainer::new(config.clone()).expect("valid network");
    let report = slide.train(&data.train, &options);
    let p1 = slide.evaluate_n(&data.test, 500);
    println!(
        "SLIDE : {:6.2}s for {} iterations, P@1 = {:.3}, avg active output = {:.0}/{} ({:.2}%)",
        report.seconds,
        report.iterations,
        p1,
        report.telemetry.avg_active_output,
        data.train.label_dim(),
        100.0 * report.telemetry.avg_active_output / data.train.label_dim() as f64,
    );

    // 4. The dense full-softmax baseline on the same architecture.
    let mut dense = DenseTrainer::new(config).expect("valid network");
    let dreport = dense.train(&data.train, &options);
    let dp1 = dense.evaluate_n(&data.test, 500);
    println!(
        "Dense : {:6.2}s for {} iterations, P@1 = {:.3}",
        dreport.seconds, dreport.iterations, dp1
    );

    println!(
        "speedup: {:.1}x per-epoch at comparable accuracy",
        dreport.seconds / report.seconds.max(1e-9)
    );
}
