//! Determinism guarantees: everything keyed by a seed reproduces exactly.

use slide::kernels::{dispatched_isa, KernelMode};
use slide::prelude::*;

#[test]
fn dataset_generation_is_bit_identical() {
    let cfg = SyntheticConfig::tiny().with_seed(123);
    let a = generate(&cfg);
    let b = generate(&cfg);
    assert_eq!(a.train, b.train);
    assert_eq!(a.test, b.test);
}

#[test]
fn network_initialization_is_deterministic() {
    let data = generate(&SyntheticConfig::tiny().with_seed(1));
    let cfg = NetworkConfig::builder(data.train.feature_dim(), data.train.label_dim())
        .hidden(16)
        .output_lsh(LshLayerConfig::simhash(3, 8))
        .seed(99)
        .build()
        .unwrap();
    let a = SlideTrainer::new(cfg.clone()).unwrap();
    let b = SlideTrainer::new(cfg).unwrap();
    let wa = &a.network().layers()[0];
    let wb = &b.network().layers()[0];
    for j in 0..wa.units() {
        for i in 0..wa.fan_in() {
            assert_eq!(wa.weight(j, i), wb.weight(j, i), "weight ({j},{i}) differs");
        }
    }
}

#[test]
fn single_threaded_training_reproduces_exactly() {
    let data = generate(&SyntheticConfig::tiny().with_seed(2));
    let make = || {
        let cfg = NetworkConfig::builder(data.train.feature_dim(), data.train.label_dim())
            .hidden(16)
            .output_lsh(LshLayerConfig::simhash(3, 8))
            .seed(7)
            .build()
            .unwrap();
        SlideTrainer::new(cfg).unwrap()
    };
    let opts = TrainOptions::new(1)
        .batch_size(32)
        .threads(1)
        .no_shuffle()
        .seed(5);
    let mut a = make();
    a.train(&data.train, &opts);
    let mut b = make();
    b.train(&data.train, &opts);
    let wa = a.network().layers()[1].weights();
    let wb = b.network().layers()[1].weights();
    let mut diffs = 0;
    for j in 0..wa.rows().min(50) {
        for i in 0..wa.cols() {
            if wa.get(j, i) != wb.get(j, i) {
                diffs += 1;
            }
        }
    }
    assert_eq!(
        diffs, 0,
        "{diffs} weights differ after identical 1-thread runs"
    );
}

/// FNV-1a of the snapshot left by one single-threaded, unshuffled LSH
/// epoch on the scalar kernels (no FMA, so the bytes do not depend on
/// the host's ISA).
fn lsh_epoch_snapshot_fnv(strategy: SamplingStrategy, tables: Option<(u32, usize)>) -> u64 {
    let data = generate(&SyntheticConfig::tiny().with_seed(4));
    let mut lsh = LshLayerConfig::simhash(3, 8).with_strategy(strategy);
    if let Some((bits, capacity)) = tables {
        lsh = lsh.with_tables(bits, capacity);
    }
    let cfg = NetworkConfig::builder(data.train.feature_dim(), data.train.label_dim())
        .hidden(16)
        .output_lsh(lsh)
        .kernel_mode(slide::kernels::KernelMode::Scalar)
        .seed(41)
        .build()
        .unwrap();
    let mut trainer = SlideTrainer::new(cfg).unwrap();
    let opts = TrainOptions::new(1)
        .batch_size(32)
        .threads(1)
        .no_shuffle()
        .seed(47);
    trainer.train(&data.train, &opts);
    slide::data::cache::fnv1a(&trainer.network().to_snapshot_bytes())
}

#[test]
fn lsh_training_snapshot_bytes_are_pinned() {
    // Any change to which ids a strategy emits, their order, or the RNG
    // draws it makes moves these. Capacity-2 buckets overflow, so FIFO
    // slot order matters.
    let strategies = [
        SamplingStrategy::Vanilla { budget: 8 },
        SamplingStrategy::TopK { budget: 8 },
        SamplingStrategy::HardThreshold { min_count: 2 },
    ];
    let mut got = Vec::new();
    for tables in [None, Some((6, 2))] {
        for strategy in strategies {
            got.push(lsh_epoch_snapshot_fnv(strategy, tables));
        }
    }
    let want: [u64; 6] = [
        0xd051_b18f_4ede_7143,
        0xd1e7_65e4_345c_5350,
        0x92eb_53e4_51fd_29a3,
        0xfb17_4ecb_cadc_ab71,
        0x553e_aa13_67c9_a1d0,
        0xdab3_30e4_0578_3c27,
    ];
    assert_eq!(
        got, want,
        "rows: default buckets × (vanilla, topk, hard threshold), then 64 × 2 buckets"
    );
}

/// FNV-1a of the snapshot left by one single-threaded, unshuffled epoch
/// of a 2-layer SimHash network in `mode`. Documents of ≈ 20 features
/// cross the first-layer kernels' 16-id threshold both ways, and 20
/// hidden units leave a partial 8-lane block.
fn kernel_mode_snapshot_fnv(mode: KernelMode) -> u64 {
    let mut synth = SyntheticConfig::tiny().with_seed(6).with_sizes(320, 10);
    synth.doc_nnz = 20;
    let data = generate(&synth);
    let cfg = NetworkConfig::builder(data.train.feature_dim(), data.train.label_dim())
        .hidden(20)
        .output_lsh(LshLayerConfig::simhash(3, 8))
        .kernel_mode(mode)
        .seed(43)
        .build()
        .unwrap();
    let mut trainer = SlideTrainer::new(cfg).unwrap();
    let opts = TrainOptions::new(1)
        .batch_size(32)
        .threads(1)
        .no_shuffle()
        .seed(53);
    trainer.train(&data.train, &opts);
    slide::data::cache::fnv1a(&trainer.network().to_snapshot_bytes())
}

/// [`kernel_mode_snapshot_fnv`] in `Scalar` mode (ISA-independent).
const SCALAR_FNV: u64 = 0x7939_f03c_9971_5546;
/// [`kernel_mode_snapshot_fnv`] in `Vectorized` mode on an AVX2+FMA host.
const AVX2_FMA_FNV: u64 = 0x9c2a_4e11_bcea_fb31;

#[test]
fn snapshot_bytes_are_pinned_in_both_kernel_modes() {
    // Pins the trained bits of every kernel, the first layer's included,
    // and the snapshot's unit-major byte order. The Vectorized bits
    // depend on the dispatched ISA (FMA), so that constant is asserted
    // only where it was captured.
    assert_eq!(kernel_mode_snapshot_fnv(KernelMode::Scalar), SCALAR_FNV);
    if dispatched_isa(KernelMode::Vectorized) == "avx2+fma" {
        assert_eq!(
            kernel_mode_snapshot_fnv(KernelMode::Vectorized),
            AVX2_FMA_FNV
        );
    }
}

#[test]
fn evaluation_is_deterministic() {
    let data = generate(&SyntheticConfig::tiny().with_seed(3));
    let cfg = NetworkConfig::builder(data.train.feature_dim(), data.train.label_dim())
        .hidden(16)
        .seed(11)
        .build()
        .unwrap();
    let trainer = DenseTrainer::new(cfg).unwrap();
    let p1 = trainer.evaluate_n(&data.test, 100);
    let p2 = trainer.evaluate_n(&data.test, 100);
    assert_eq!(p1, p2);
}
