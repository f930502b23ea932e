//! **Figure 7** — SLIDE's input-adaptive LSH sampling vs the static
//! sampled-softmax heuristic.
//!
//! Paper shape: sampled softmax may rise faster initially but saturates
//! at a distinctly lower accuracy, even when it samples *far more*
//! neurons than SLIDE (the paper needed 20% of classes for any decent
//! accuracy vs SLIDE's <0.5%).
//!
//! ```sh
//! cargo run -p slide-bench --release --bin fig7_sampled_softmax [-- smoke|medium|full] [--csv]
//! ```

use slide_bench::{ExpArgs, TablePrinter};
use slide_core::{NetworkConfig, SampledSoftmaxTrainer, SlideTrainer, TrainOptions};
use slide_data::synth::{generate, SyntheticConfig};

fn main() {
    let args = ExpArgs::parse();
    println!(
        "Figure 7: SLIDE vs static sampled softmax (scale = {})",
        args.scale
    );
    // The adaptive-vs-static contrast needs a label space that is large
    // relative to the sampling budget and not dominated by a handful of
    // head classes (the paper has 205K–670K labels). Keep the
    // delicious-like shape but enforce a floor on the label dimension and
    // flatten the label prior so tail classes carry accuracy.
    let mut synth = SyntheticConfig::delicious_like(args.scale);
    synth.label_dim = synth.label_dim.max(2_500);
    synth.feature_dim = synth.feature_dim.max(5_000);
    synth.train_size = synth.train_size.max(4_000);
    synth.test_size = synth.test_size.max(500);
    synth.zipf_exponent = 0.5;
    let data = generate(&synth);
    let labels = data.train.label_dim();
    let batch = 128;
    let epochs = match args.scale {
        slide_bench::Scale::Smoke => 10,
        _ => 3,
    };
    let eval_every = ((data.train.len() / batch).max(4) / 4).max(1) as u64;

    let net = NetworkConfig::builder(data.train.feature_dim(), labels)
        .hidden(128)
        .output_lsh(slide_bench::scaled_lsh(true, args.scale, labels))
        .learning_rate(1e-3)
        .seed(args.seed ^ 0xF17)
        .build()
        .expect("valid config");
    let options = TrainOptions::new(epochs)
        .batch_size(batch)
        .eval_every(eval_every)
        .eval_examples(400)
        .seed(args.seed);

    let mut slide = SlideTrainer::new(net.clone()).expect("valid network");
    let rs = slide.train_with_eval(&data.train, &data.test, &options);

    // Two static baselines: one with the SAME budget as SLIDE (the
    // apples-to-apples adaptive-vs-static comparison — the paper notes
    // "with a comparable number of samples, sampled softmax leads to poor
    // accuracy"), and one with the paper's 20% of classes (the smallest
    // static sample they found usable at 670K scale; at smoke scale 20%
    // of a small label space is a very strong baseline).
    let equal_budget = (rs.telemetry.avg_active_output.round() as usize).max(1);
    let mut ssm_eq = SampledSoftmaxTrainer::new(net.clone(), equal_budget).expect("valid network");
    let rq = ssm_eq.train_with_eval(&data.train, &data.test, &options);
    let ssm_count = (labels / 5).max(1);
    let mut ssm = SampledSoftmaxTrainer::new(net, ssm_count).expect("valid network");
    let rm = ssm.train_with_eval(&data.train, &data.test, &options);

    let mut table = TablePrinter::new(vec!["system", "iteration", "seconds", "p_at_1"], args.csv);
    for (label, r) in [
        ("SLIDE", &rs),
        ("SSM(equal-budget)", &rq),
        ("SSM(20%)", &rm),
    ] {
        for c in &r.history {
            table.row(vec![
                label.to_string(),
                c.iteration.to_string(),
                format!("{:.3}", c.seconds),
                format!("{:.4}", c.p_at_1),
            ]);
        }
    }
    table.print();
    println!(
        "\nfinal: SLIDE P@1={:.3} with {:.0} active neurons ({:.2}% of {labels})",
        slide.evaluate_n(&data.test, 1000),
        rs.telemetry.avg_active_output,
        100.0 * rs.telemetry.avg_active_output / labels as f64,
    );
    println!(
        "       SSM(equal-budget) P@1={:.3} with {:.0} sampled neurons",
        ssm_eq.evaluate_n(&data.test, 1000),
        rq.telemetry.avg_active_output,
    );
    println!(
        "       SSM(20%) P@1={:.3} with {:.0} sampled neurons ({:.0}% of {labels})",
        ssm.evaluate_n(&data.test, 1000),
        rm.telemetry.avg_active_output,
        100.0 * rm.telemetry.avg_active_output / labels as f64,
    );
    println!("\npaper shape (at 205K-670K labels): static sampling saturates at lower accuracy");
    println!("than SLIDE despite sampling 40x more neurons. NOTE: at this harness's reduced");
    println!("label-space scale the static baseline is competitive — the coverage failure that");
    println!("cripples static sampling needs a label space orders of magnitude larger than the");
    println!("sample.");
}
