//! The data-layer contract, end to end: eager ≡ streamed ≡ mmap'd,
//! example for example, bit for bit — and training consumes all three
//! through the one `ExampleSource` interface with identical results.
//!
//! Also pins the malformed-input story (typed errors, never panics, the
//! two readers agreeing) and the cache's corruption detection.

use std::io::Write as _;
use std::path::PathBuf;

use slide::prelude::*;
use slide_data::cache::{build_cache_from_svmlight, CacheError};
use slide_data::source::{CacheOptions, ExampleSource, MmapDataset};
use slide_data::stream::StreamingSvmReader;
use slide_data::svmlight;

fn tmp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("slide-ingestion-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Writes a synthetic corpus as svmlight text and returns (path, data).
fn corpus(name: &str, seed: u64) -> (PathBuf, Dataset) {
    let cfg = SyntheticConfig::tiny().with_seed(seed).with_sizes(300, 0);
    let data = generate(&cfg).train;
    let path = tmp_dir().join(name);
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path).expect("create corpus"));
    svmlight::write(&data, &mut f).expect("write corpus");
    f.flush().expect("flush corpus");
    (path, data)
}

fn assert_examples_bit_identical(a: &Example, b: &Example, what: &str, i: usize) {
    assert_eq!(a.labels, b.labels, "{what}: labels of example {i}");
    assert_eq!(
        a.features.indices(),
        b.features.indices(),
        "{what}: indices of example {i}"
    );
    let bits_a: Vec<u32> = a.features.values().iter().map(|v| v.to_bits()).collect();
    let bits_b: Vec<u32> = b.features.values().iter().map(|v| v.to_bits()).collect();
    assert_eq!(bits_a, bits_b, "{what}: value bits of example {i}");
}

#[test]
fn eager_streamed_and_mmap_agree_bit_for_bit() {
    let (path, original) = corpus("agree.svm", 11);

    // Eager (itself built on the streaming reader).
    let eager = svmlight::read(std::io::BufReader::new(
        std::fs::File::open(&path).expect("open corpus"),
    ))
    .expect("eager read");
    assert_eq!(eager.len(), original.len());

    // Streamed, via the reusable-buffer API.
    let mut streamed = Vec::new();
    let mut reader = StreamingSvmReader::open(&path).expect("open stream");
    let mut buf = Example::empty();
    while reader.read_into(&mut buf).expect("valid corpus") {
        streamed.push(buf.clone());
    }
    assert_eq!(streamed.len(), original.len());

    // Compiled + mmap'd.
    let cache = path.with_extension("slidecache");
    let summary = build_cache_from_svmlight(&path, &cache).expect("build cache");
    assert_eq!(summary.examples as usize, original.len());

    let ds = MmapDataset::open(&cache).expect("open cache");
    assert_eq!(ds.len(), original.len());
    assert_eq!(ds.feature_dim(), original.feature_dim());
    assert_eq!(ds.label_dim(), original.label_dim());
    let mut out = Example::empty();
    for (i, want) in original.examples().iter().enumerate() {
        assert_examples_bit_identical(&eager.examples()[i], want, "eager", i);
        assert_examples_bit_identical(&streamed[i], want, "streamed", i);
        ds.read_into(i, &mut out);
        assert_examples_bit_identical(&out, want, "mmap", i);
    }

    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&cache).ok();
}

#[test]
fn training_through_any_source_is_bit_identical() {
    // The acceptance pin: one deterministic (no-shuffle, 1-thread)
    // training run consuming the corpus as an in-memory Dataset and as
    // an mmap'd cache produces bit-identical networks — the decode path
    // feeds the engine the exact same bits the eager loader does.
    let (path, original) = corpus("train.svm", 23);
    let cache = path.with_extension("slidecache");
    build_cache_from_svmlight(&path, &cache).expect("build cache");

    let config = NetworkConfig::builder(original.feature_dim(), original.label_dim())
        .hidden(16)
        .output_lsh(LshLayerConfig::simhash(3, 8))
        .learning_rate(2e-3)
        .seed(5)
        .build()
        .expect("valid config");
    let opts = TrainOptions::new(2).batch_size(32).threads(1).no_shuffle();

    let snap = |report_net: &slide::core::Network| report_net.to_snapshot_bytes();

    let mut eager_t = SlideTrainer::new(config.clone()).expect("trainer");
    eager_t.train(&original, &opts);
    let eager_bytes = snap(eager_t.network());

    let ds = MmapDataset::open(&cache).expect("open cache");
    let mut t = SlideTrainer::new(config.clone()).expect("trainer");
    t.train_source(&ds, &opts);
    assert_eq!(
        snap(t.network()),
        eager_bytes,
        "training via mmap diverged from eager"
    );

    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&cache).ok();
}

#[test]
fn shard_shuffled_training_still_learns_and_terminates() {
    // With a small forced shard_len the epoch order is the shard-local
    // permutation; the run must cover every example each epoch and
    // still learn the planted structure.
    let cfg = SyntheticConfig::tiny().with_seed(3);
    let data = generate(&cfg);
    let path = tmp_dir().join("sharded.svm");
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path).expect("create"));
    svmlight::write(&data.train, &mut f).expect("write");
    f.flush().expect("flush");
    let cache = path.with_extension("slidecache");
    build_cache_from_svmlight(&path, &cache).expect("build");
    let ds = MmapDataset::open_with(
        &cache,
        CacheOptions {
            shard_len: Some(64),
        },
    )
    .expect("open");
    assert_eq!(ds.shard_len(), Some(64));

    let config = NetworkConfig::builder(data.train.feature_dim(), data.train.label_dim())
        .hidden(24)
        .output_lsh(
            LshLayerConfig::simhash(3, 10).with_strategy(SamplingStrategy::Vanilla { budget: 10 }),
        )
        .learning_rate(2e-3)
        .seed(11)
        .build()
        .expect("valid config");
    let mut trainer = SlideTrainer::new(config).expect("trainer");
    let before = trainer.evaluate_n(&data.test, 100);
    let report = trainer.train_source(&ds, &TrainOptions::new(4).batch_size(32).threads(2).seed(1));
    let after = trainer.evaluate_n(&data.test, 100);
    // 600 examples / 32 → 19 batches × 4 epochs: full coverage.
    assert_eq!(report.iterations, 76);
    assert!(
        after > before + 0.15,
        "P@1 {before:.3} -> {after:.3} under shard-shuffled mmap training"
    );

    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&cache).ok();
}

#[test]
fn over_ram_budget_corpus_trains_via_mmap_only() {
    // The over-budget drill at test scale: stream a corpus to disk
    // without ever materializing it (SyntheticStream → DatasetBuilder),
    // then train from the cache. No eager Dataset of the corpus ever
    // exists in this test.
    use slide_data::cache::DatasetBuilder;
    use slide_data::synth::SyntheticStream;

    let cfg = SyntheticConfig::tiny().with_seed(77).with_sizes(2_000, 0);
    let cache = tmp_dir().join("overbudget.slidecache");
    let mut builder =
        DatasetBuilder::create(&cache, cfg.feature_dim, cfg.label_dim).expect("builder");
    let mut stream = SyntheticStream::train(&cfg);
    for _ in 0..cfg.train_size {
        builder.push(&stream.next_example()).expect("push");
    }
    let summary = builder.finish().expect("finish");
    assert_eq!(summary.examples, 2_000);

    let ds = MmapDataset::open(&cache).expect("open");
    let config = NetworkConfig::builder(cfg.feature_dim, cfg.label_dim)
        .hidden(16)
        .output_lsh(LshLayerConfig::simhash(3, 8))
        .seed(7)
        .build()
        .expect("config");
    let mut trainer = SlideTrainer::new(config).expect("trainer");
    let report = trainer.train_source(&ds, &TrainOptions::new(1).batch_size(64).threads(2));
    assert_eq!(report.iterations, (2_000f64 / 64.0).ceil() as u64);
    assert!(report.final_loss.is_finite());

    std::fs::remove_file(&cache).ok();
}

#[test]
fn malformed_inputs_are_typed_errors_in_both_readers() {
    // (name, text) — every case must error in the streaming reader AND
    // the eager loader (which shares the parser), never panic.
    let cases: &[(&str, &str)] = &[
        ("missing header", ""),
        ("short header", "5 10\n"),
        ("non-numeric header", "a 10 5\n"),
        ("truncated record (no value)", "1 10 5\n0 3:\n"),
        ("truncated record (no colon)", "1 10 5\n0 3\n"),
        ("bad float", "1 10 5\n0 1:not-a-float\n"),
        ("bad index", "1 10 5\n0 x:1\n"),
        ("bad label", "1 10 5\nfoo 1:1\n"),
        ("feature index out of range", "1 10 5\n0 10:1\n"),
        ("label out of range", "1 10 5\n5 1:1\n"),
        ("non-monotone indices", "1 10 5\n0 4:1 2:1\n"),
        ("duplicate indices", "1 10 5\n0 4:1 4:1\n"),
        ("too few examples", "3 10 5\n0 1:1\n"),
        ("too many examples", "1 10 5\n0 1:1\n0 2:1\n"),
    ];
    for (name, text) in cases {
        let eager = svmlight::read(text.as_bytes());
        assert!(eager.is_err(), "eager accepted {name:?}");
        let streamed = StreamingSvmReader::new(text.as_bytes()).and_then(|r| r.validate_to_end());
        assert!(streamed.is_err(), "streaming accepted {name:?}");
        // Same line number blamed by both (they share the parser, but
        // pin it: clients match on this).
        let (e, s) = (eager.unwrap_err(), streamed.unwrap_err());
        let line = |err: &slide_data::svmlight::SvmlightError| match err {
            slide_data::svmlight::SvmlightError::Parse { line, .. } => Some(*line),
            _ => None,
        };
        assert_eq!(line(&e), line(&s), "line mismatch for {name:?}: {e} vs {s}");
    }
}

#[test]
fn cache_corruption_is_detected_not_panicked() {
    let (path, _) = corpus("corrupt.svm", 31);
    let cache = path.with_extension("slidecache");
    build_cache_from_svmlight(&path, &cache).expect("build");
    let good = std::fs::read(&cache).expect("read cache");

    // Bit flip anywhere in the payload → checksum mismatch.
    let mut bad = good.clone();
    let mid = bad.len() / 2;
    bad[mid] ^= 0x01;
    std::fs::write(&cache, &bad).expect("write");
    assert!(matches!(
        MmapDataset::open(&cache),
        Err(CacheError::ChecksumMismatch)
    ));

    // Truncation → structural error before any decode.
    std::fs::write(&cache, &good[..good.len() / 2]).expect("write");
    assert!(MmapDataset::open(&cache).is_err());

    // Garbage file (long enough to reach the magic check) → bad magic;
    // anything shorter than a header is structurally corrupt.
    std::fs::write(&cache, [b'x'; 128]).expect("write");
    assert!(matches!(
        MmapDataset::open(&cache),
        Err(CacheError::BadMagic)
    ));
    std::fs::write(&cache, b"definitely not a cache").expect("write");
    assert!(matches!(
        MmapDataset::open(&cache),
        Err(CacheError::Corrupt(_))
    ));

    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&cache).ok();
}

#[test]
fn streaming_reader_doc_example_shape_holds_for_generated_corpora() {
    // SyntheticStream ↔ generate equivalence at integration level: the
    // corpus written by the stream parses back equal to the eager
    // generator's dataset.
    use slide_data::synth::SyntheticStream;
    let cfg = SyntheticConfig::tiny().with_seed(4).with_sizes(100, 0);
    let eager = generate(&cfg).train;

    let path = tmp_dir().join("stream-gen.svm");
    let mut w = std::io::BufWriter::new(std::fs::File::create(&path).expect("create"));
    svmlight::write_header(&mut w, cfg.train_size, cfg.feature_dim, cfg.label_dim).expect("header");
    let mut stream = SyntheticStream::train(&cfg);
    for _ in 0..cfg.train_size {
        svmlight::write_record(&mut w, &stream.next_example()).expect("record");
    }
    w.flush().expect("flush");

    let parsed = slide_data::stream::read_file(&path).expect("parse");
    assert_eq!(parsed, eager);
    std::fs::remove_file(&path).ok();
}
