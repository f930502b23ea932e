//! **Figure 6** — memory-bound inefficiency of SLIDE vs the dense
//! baseline as the core count grows.
//!
//! Paper shape (VTune): memory-bound stalls are the dominant inefficiency
//! for both systems; the dense system's memory-bound fraction *rises*
//! with cores while SLIDE's *falls*.
//!
//! Substitution for VTune: we harvest the output-layer rows each
//! system actually touches per example — SLIDE's from real LSH active
//! sets after a short training run (so they carry the real Zipf reuse
//! structure), the dense baseline's being every row — and replay each
//! core's stream through `slide-memsim`'s multi-core hierarchy (private
//! TLB/L1/L2 per core, shared LLC). The mechanism the paper measures
//! falls out: adding cores adds *private* cache capacity, which helps
//! SLIDE's small hot set of frequently-retrieved rows, while the dense
//! stream is LLC/RAM-bound at any core count and only gains contention.
//!
//! ```sh
//! cargo run -p slide-bench --release --bin fig6_inefficiencies [-- smoke|medium|full] [--csv]
//! ```

use slide_bench::{ExpArgs, TablePrinter};
use slide_core::{LshSelector, NetworkConfig, SlideTrainer, TrainOptions};
use slide_data::synth::{generate, SyntheticConfig};
use slide_memsim::{MultiCoreHierarchy, PageSize};

const ROW_BYTES: u64 = 128 * 4; // hidden size 128 × f32
const LINE: u64 = 64;

/// Replays per-example row sets across `cores`, interleaving example by
/// example; returns the memory-bound fraction.
fn replay(per_example_rows: &[Vec<u32>], cores: usize, row_space: u64, passes: usize) -> f64 {
    let mut sim = MultiCoreHierarchy::typical_server(cores, PageSize::Kb4);
    let mut floats = 0u64;
    for _ in 0..passes {
        for (i, rows) in per_example_rows.iter().enumerate() {
            let core = i % cores;
            for &j in rows {
                let row = (j as u64).min(row_space - 1);
                let base = row * ROW_BYTES;
                let mut a = base;
                while a < base + ROW_BYTES {
                    sim.access(core, a);
                    a += LINE;
                }
                floats += ROW_BYTES / 4;
            }
        }
    }
    // Two multiply-adds per touched float.
    sim.report(floats * 2).memory_bound_fraction
}

fn main() {
    let args = ExpArgs::parse();
    println!(
        "Figure 6: memory-bound fraction via multi-core memsim replay (scale = {})\n",
        args.scale
    );
    let mut cfg = SyntheticConfig::delicious_like(args.scale);
    cfg.train_size = cfg.train_size.min(3000);
    // A label space large enough that the dense weight matrix
    // (labels × 128 × 4 B) exceeds the 32 MiB LLC, as at paper scale.
    cfg.label_dim = cfg.label_dim.max(80_000);
    cfg.feature_dim = cfg.feature_dim.max(20_000);
    let data = generate(&cfg);
    let labels = data.train.label_dim();

    // Short SLIDE training run so the harvested active sets are real.
    let net = NetworkConfig::builder(data.train.feature_dim(), labels)
        .hidden(128)
        .output_lsh(
            // The paper's 0.5% active fraction: the per-core hot set must
            // be small enough that added private cache capacity matters.
            slide_core::LshLayerConfig::simhash(5, 50).with_strategy(
                slide_lsh::SamplingStrategy::Vanilla {
                    budget: labels / 200,
                },
            ),
        )
        .seed(args.seed ^ 0xF16)
        .build()
        .expect("valid config");
    let mut trainer = SlideTrainer::new(net).expect("valid network");
    trainer.train(
        &data.train,
        &TrainOptions::new(1)
            .batch_size(128)
            .max_iterations(10)
            .seed(args.seed),
    );

    // Harvest output-layer active sets (with labels, as during training).
    let network = trainer.network();
    let mut ws = network.workspace(7);
    let slide_rows: Vec<Vec<u32>> = data
        .train
        .iter()
        .take(96)
        .map(|ex| {
            network.forward(&LshSelector, &mut ws, &ex.features, Some(&ex.labels));
            ws.output().map(|(id, _)| id).collect()
        })
        .collect();
    let all_rows: Vec<u32> = (0..labels as u32).collect();
    let dense_rows: Vec<Vec<u32>> = vec![all_rows; 8];

    let mut table = TablePrinter::new(vec!["cores", "dense_membound", "slide_membound"], args.csv);
    for &t in &[8usize, 16, 32] {
        let d = replay(&dense_rows, t, labels as u64, 1);
        let s = replay(&slide_rows, t, labels as u64, 8);
        table.row(vec![t.to_string(), format!("{d:.2}"), format!("{s:.2}")]);
    }
    table.print();
    let avg_active = slide_rows.iter().map(Vec::len).sum::<usize>() / slide_rows.len().max(1);
    println!(
        "\nSLIDE touches ~{avg_active} of {labels} output rows per example; dense touches all."
    );
    println!("paper shape: memory-bound dominates both; rises with cores for the dense");
    println!("baseline, falls for SLIDE (private caches absorb its hot rows).");
}
