//! The data layer end to end: stream a corpus to svmlight text without
//! ever materializing it, compile it into the binary cache, memory-map
//! the cache, and train through the same `ExampleSource` interface the
//! in-memory path uses.
//!
//! ```sh
//! cargo run --release --example dataset_cache
//! ```

use std::io::{BufWriter, Write as _};

use slide::data::svmlight;
use slide::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join("slide-dataset-cache-example");
    std::fs::create_dir_all(&dir)?;
    let svm_path = dir.join("corpus.svm");
    let cache_path = dir.join("corpus.slidecache");

    // 1. Stream a synthetic corpus straight to disk: no Dataset is ever
    //    built, so this scales to corpora far larger than RAM.
    let cfg = SyntheticConfig::tiny().with_seed(42).with_sizes(2_000, 200);
    {
        let mut w = BufWriter::new(std::fs::File::create(&svm_path)?);
        svmlight::write_header(&mut w, cfg.train_size, cfg.feature_dim, cfg.label_dim)?;
        let mut stream = SyntheticStream::train(&cfg);
        for _ in 0..cfg.train_size {
            svmlight::write_record(&mut w, &stream.next_example())?;
        }
        w.flush()?;
    }
    println!(
        "wrote {} ({} examples of svmlight text)",
        svm_path.display(),
        cfg.train_size
    );

    // 2. A validating streaming pass: allocation-free, typed errors.
    let mut reader = StreamingSvmReader::open(&svm_path)?;
    println!(
        "header: {} examples, {} features, {} labels",
        reader.header().num_examples,
        reader.header().feature_dim,
        reader.header().label_dim
    );
    let mut ex = Example::empty();
    let mut nnz = 0usize;
    while reader.read_into(&mut ex)? {
        nnz += ex.features.nnz();
    }
    println!("streamed {} nonzeros without materializing the corpus", nnz);

    // 3. Compile the binary cache (one pass, constant memory, FNV
    //    checksum) and memory-map it.
    let summary = build_cache_from_svmlight(&svm_path, &cache_path)?;
    println!(
        "compiled {} -> {:.1} KB cache",
        cache_path.display(),
        summary.bytes as f64 / 1e3
    );
    let train = MmapDataset::open(&cache_path)?;
    println!("mapped {} examples", train.len());

    // 4. Train straight off the cache — same Trainer, same loop; the
    //    shard-aware shuffle keeps batch reads in bounded windows.
    let test = generate(&cfg).test;
    let config = NetworkConfig::builder(train.feature_dim(), train.label_dim())
        .hidden(24)
        .output_lsh(
            LshLayerConfig::simhash(3, 10).with_strategy(SamplingStrategy::Vanilla { budget: 10 }),
        )
        .learning_rate(2e-3)
        .seed(11)
        .build()?;
    let mut trainer = SlideTrainer::new(config)?;
    let report = trainer.train_source(&train, &TrainOptions::new(3).batch_size(32).threads(2));
    println!(
        "trained {} iterations in {:.2}s ({:.0} ex/s), P@1 = {:.3}",
        report.iterations,
        report.seconds,
        (train.len() * 3) as f64 / report.seconds.max(1e-12),
        trainer.evaluate_n(&test, 200)
    );

    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}
