//! **Table 2** — core utilization of SLIDE vs the dense baseline at
//! 8 / 16 / 32 threads.
//!
//! Paper: TF-CPU utilization is low (<50%) and *decreases* with threads;
//! SLIDE holds a stable ~80%+ across thread counts. Our utilization is
//! `Σ per-thread busy time / (threads × wall)`, the software analogue of
//! VTune's measurement.
//!
//! ```sh
//! cargo run -p slide-bench --release --bin table2_utilization [-- smoke|medium|full] [--csv]
//! ```

use slide_bench::{ExpArgs, TablePrinter};
use slide_core::{DenseTrainer, NetworkConfig, SlideTrainer, TrainOptions};
use slide_data::synth::{generate, SyntheticConfig};

fn main() {
    let args = ExpArgs::parse();
    println!("Table 2: core utilization (scale = {})\n", args.scale);
    let data = generate(&SyntheticConfig::delicious_like(args.scale));
    let net = NetworkConfig::builder(data.train.feature_dim(), data.train.label_dim())
        .hidden(128)
        .output_lsh(slide_bench::scaled_lsh(
            true,
            args.scale,
            data.train.label_dim(),
        ))
        .seed(args.seed ^ 0x7AB2)
        .build()
        .expect("valid config");
    let max = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);

    let mut table = TablePrinter::new(vec!["threads", "dense_util", "slide_util"], args.csv);
    for &t in [8usize, 16, 32].iter().filter(|&&t| t <= max) {
        let options = TrainOptions::new(1)
            .batch_size(128)
            .threads(t)
            .seed(args.seed);
        let mut dense = DenseTrainer::new(net.clone()).expect("valid network");
        let rd = dense.train(&data.train, &options);
        let mut slide = SlideTrainer::new(net.clone()).expect("valid network");
        let rs = slide.train(&data.train, &options);
        table.row(vec![
            t.to_string(),
            format!("{:.0}%", rd.telemetry.utilization * 100.0),
            format!("{:.0}%", rs.telemetry.utilization * 100.0),
        ]);
    }
    table.print();
    println!("\npaper: TF-CPU 45%/35%/32%; SLIDE 82%/81%/85%.");
}
