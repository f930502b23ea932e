//! **Figure 10** — impact of the platform optimizations: vectorized
//! kernels + cache-line-aligned data (our stand-in for the paper's
//! Hugepages + AVX work) against plain
//! scalar SLIDE. The hugepage side of the paper's optimization is not
//! reproduced: it needs hugepage and PMU settings of the host kernel.
//!
//! Paper shape: optimized SLIDE ≈ 1.3× faster than plain SLIDE.
//!
//! ```sh
//! cargo run -p slide-bench --release --bin fig10_optimizations [-- smoke|medium|full] [--csv]
//! ```

use slide_bench::{ExpArgs, TablePrinter};
use slide_core::{NetworkConfig, SlideTrainer, TrainOptions};
use slide_data::synth::{generate, SyntheticConfig};
use slide_kernels::KernelMode;

fn main() {
    let args = ExpArgs::parse();
    println!(
        "Figure 10: plain vs optimized SLIDE (scale = {})\n",
        args.scale
    );
    let epochs = match args.scale {
        slide_bench::Scale::Smoke => 4,
        _ => 2,
    };
    let mut table = TablePrinter::new(
        vec!["dataset", "kernel", "seconds", "p_at_1", "speedup"],
        args.csv,
    );
    let deli = SyntheticConfig::delicious_like(args.scale);
    let deli_lsh = slide_bench::scaled_lsh(true, args.scale, deli.label_dim);
    let amzn = SyntheticConfig::amazon_like(args.scale);
    let amzn_lsh = slide_bench::scaled_lsh(false, args.scale, amzn.label_dim);
    for (name, cfg, lsh, batch) in [
        ("delicious-like", deli, deli_lsh, 128usize),
        ("amazon-like", amzn, amzn_lsh, 256),
    ] {
        let data = generate(&cfg);
        let mut seconds = Vec::new();
        for mode in [KernelMode::Scalar, KernelMode::Vectorized] {
            let net = NetworkConfig::builder(data.train.feature_dim(), data.train.label_dim())
                .hidden(128)
                .output_lsh(lsh.clone())
                .kernel_mode(mode)
                .learning_rate(1e-3)
                .seed(args.seed ^ 0xF1A)
                .build()
                .expect("valid config");
            let mut trainer = SlideTrainer::new(net).expect("valid network");
            let r = trainer.train(
                &data.train,
                &TrainOptions::new(epochs).batch_size(batch).seed(args.seed),
            );
            seconds.push(r.seconds);
            table.row(vec![
                name.to_string(),
                mode.to_string(),
                format!("{:.3}", r.seconds),
                format!("{:.3}", trainer.evaluate_n(&data.test, 300)),
                if seconds.len() == 2 {
                    format!("{:.2}x", seconds[0] / seconds[1].max(1e-9))
                } else {
                    "-".to_string()
                },
            ]);
        }
    }
    table.print();

    // Micro-kernel view of the SIMD half of the optimization: a strict
    // sequential-FP dot (cannot be auto-vectorized) vs the 8-accumulator
    // unrolled dot.
    let n = 4096;
    let a: Vec<f32> = (0..n).map(|i| (i as f32 * 0.13).sin()).collect();
    let b: Vec<f32> = (0..n).map(|i| (i as f32 * 0.29).cos()).collect();
    let reps = 200_000;
    let mut sink = 0.0f32;
    let (_, t_scalar) = slide_bench::timed(|| {
        for _ in 0..reps {
            sink += slide_kernels::dot(
                std::hint::black_box(&a),
                std::hint::black_box(&b),
                KernelMode::Scalar,
            );
        }
    });
    let (_, t_vec) = slide_bench::timed(|| {
        for _ in 0..reps {
            sink += slide_kernels::dot(
                std::hint::black_box(&a),
                std::hint::black_box(&b),
                KernelMode::Vectorized,
            );
        }
    });
    std::hint::black_box(sink);
    println!("\nmicro-kernel (dot, {n} floats): scalar {t_scalar:.2}s vs vectorized {t_vec:.2}s = {:.2}x", t_scalar / t_vec.max(1e-9));
    println!("\npaper: optimized SLIDE ~1.3x over plain SLIDE end-to-end (SIMD + Hugepages).");
    println!("Here the SIMD effect shows in the micro-kernel; the end-to-end delta at small");
    println!("scale is within timing noise because the sparse gather dominates. The hugepage");
    println!("half is not reproduced: it needs hugepage and PMU settings of the host kernel.");
}
