//! **Figure 5** — SLIDE vs the dense full-softmax baseline: accuracy as a
//! function of wall-clock time and of iterations, on both dataset shapes.
//!
//! Paper shape: per *iteration* the two systems converge identically
//! (adaptive sampling does not hurt optimization); per *second* SLIDE
//! reaches any accuracy first because each iteration computes <1% of the
//! output layer. (The paper's TF-GPU line is substituted by the dense
//! CPU baseline.)
//!
//! ```sh
//! cargo run -p slide-bench --release --bin fig5_time_accuracy [-- smoke|medium|full] [--csv]
//! ```

use slide_bench::{ExpArgs, TablePrinter};
use slide_core::{
    DenseTrainer, LshLayerConfig, NetworkConfig, SlideTrainer, TrainOptions, TrainReport,
};
use slide_data::synth::{generate, SyntheticConfig};

fn run_dataset(
    name: &str,
    cfg: SyntheticConfig,
    lsh: LshLayerConfig,
    batch: usize,
    args: &ExpArgs,
) {
    let data = generate(&cfg);
    let epochs = match args.scale {
        slide_bench::Scale::Smoke => 6,
        _ => 3,
    };
    let eval_every = ((data.train.len() / batch).max(4) / 4).max(1) as u64;
    let net = NetworkConfig::builder(data.train.feature_dim(), data.train.label_dim())
        .hidden(128)
        .output_lsh(lsh)
        .learning_rate(1e-3)
        .seed(args.seed ^ 0xF15)
        .build()
        .expect("valid config");
    let options = TrainOptions::new(epochs)
        .batch_size(batch)
        .eval_every(eval_every)
        .eval_examples(400)
        .seed(args.seed);

    println!(
        "\n=== {name}: {} train, {} labels ===",
        data.train.len(),
        data.train.label_dim()
    );
    let mut slide = SlideTrainer::new(net.clone()).expect("valid network");
    let rs = slide.train_with_eval(&data.train, &data.test, &options);
    let mut dense = DenseTrainer::new(net).expect("valid network");
    let rd = dense.train_with_eval(&data.train, &data.test, &options);

    let mut table = TablePrinter::new(
        vec!["system", "iteration", "seconds", "p_at_1", "train_loss"],
        args.csv,
    );
    let mut fill = |label: &str, r: &TrainReport| {
        for c in &r.history {
            table.row(vec![
                label.to_string(),
                c.iteration.to_string(),
                format!("{:.3}", c.seconds),
                format!("{:.4}", c.p_at_1),
                format!("{:.4}", c.train_loss),
            ]);
        }
    };
    fill("SLIDE", &rs);
    fill("Dense", &rd);
    table.print();

    let final_s = slide.evaluate_n(&data.test, 1000);
    let final_d = dense.evaluate_n(&data.test, 1000);
    println!(
        "final: SLIDE P@1={final_s:.3} in {:.2}s | Dense P@1={final_d:.3} in {:.2}s | speedup {:.2}x | SLIDE active {:.1}/{} outputs",
        rs.seconds,
        rd.seconds,
        rd.seconds / rs.seconds.max(1e-9),
        rs.telemetry.avg_active_output,
        data.train.label_dim(),
    );
}

fn main() {
    let args = ExpArgs::parse();
    println!(
        "Figure 5: SLIDE vs dense full softmax (scale = {})",
        args.scale
    );
    let deli = SyntheticConfig::delicious_like(args.scale);
    let deli_lsh = slide_bench::scaled_lsh(true, args.scale, deli.label_dim);
    run_dataset("delicious-like", deli, deli_lsh, 128, &args);
    let amzn = SyntheticConfig::amazon_like(args.scale);
    let amzn_lsh = slide_bench::scaled_lsh(false, args.scale, amzn.label_dim);
    run_dataset("amazon-like", amzn, amzn_lsh, 256, &args);
}
