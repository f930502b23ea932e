//! Refactor-preservation guarantees for the selector-based engine:
//!
//! 1. the dense [`NeuronSelector`] is *exactly* full softmax — bit-identical
//!    logits to an independent dense matrix-vector reference;
//! 2. pooled/reused workspaces are behavior-neutral — a pooled run and a
//!    fresh-workspace run produce the same `TrainReport` and weights under
//!    a fixed seed and one thread.

use slide::kernels::{relu_in_place, softmax_in_place, KernelMode};
use slide::prelude::*;

fn tiny_data(seed: u64) -> slide::data::synth::SyntheticData {
    generate(&SyntheticConfig::tiny().with_seed(seed))
}

/// Independent full-softmax forward pass: plain dense matrix-vector
/// products over the network's weights, mirroring the engine's scalar
/// accumulation order so equality is exact, not approximate.
fn reference_full_softmax_logits(
    net: &slide::core::network::Network,
    features: &SparseVector,
) -> Vec<f32> {
    let mut input_ids: Vec<u32> = features.indices().to_vec();
    let mut input_vals: Vec<f32> = features.values().to_vec();
    let mut acts: Vec<f32> = Vec::new();
    for (l, layer) in net.layers().iter().enumerate() {
        acts = (0..layer.units())
            .map(|j| {
                let mut z = layer.biases().get(j);
                for (&id, &v) in input_ids.iter().zip(&input_vals) {
                    z += layer.weight(j, id as usize) * v;
                }
                z
            })
            .collect();
        if l + 1 == net.layers().len() {
            softmax_in_place(&mut acts, KernelMode::Scalar);
        } else {
            relu_in_place(&mut acts, KernelMode::Scalar);
            input_ids = (0..layer.units() as u32).collect();
            input_vals = acts.clone();
        }
    }
    acts
}

#[test]
fn dense_selector_is_bit_identical_to_full_softmax() {
    let data = tiny_data(42);
    let cfg = NetworkConfig::builder(data.train.feature_dim(), data.train.label_dim())
        .hidden(24)
        .kernel_mode(KernelMode::Scalar)
        .seed(7)
        .build()
        .unwrap();
    let mut trainer = DenseTrainer::new(cfg).unwrap();
    // Compare on the random init AND after training (weights far from
    // init), so the equivalence is not an artifact of symmetric weights.
    for round in 0..2 {
        let net = trainer.network();
        let mut ws = net.workspace(1);
        for (i, ex) in data.test.iter().take(25).enumerate() {
            let engine = net.predict_logits(&mut ws, &ex.features);
            let reference = reference_full_softmax_logits(net, &ex.features);
            assert_eq!(engine.len(), reference.len());
            for (j, (a, b)) in engine.iter().zip(&reference).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "round {round}, example {i}, class {j}: engine {a} != reference {b}"
                );
            }
        }
        if round == 0 {
            trainer.train(
                &data.train,
                &TrainOptions::new(1).batch_size(32).threads(1).seed(3),
            );
        }
    }
}

/// Strips the wall-clock fields (which legitimately differ between runs)
/// from a report, keeping everything deterministic.
fn deterministic_view(r: &TrainReport) -> (u64, u64, Vec<(u64, u64, u64)>) {
    (
        r.iterations,
        r.final_loss.to_bits(),
        r.history
            .iter()
            .map(|c| (c.iteration, c.p_at_1.to_bits(), c.train_loss.to_bits()))
            .collect(),
    )
}

#[test]
fn pooled_workspaces_match_fresh_workspaces() {
    let data = tiny_data(11);
    let cfg = || {
        NetworkConfig::builder(data.train.feature_dim(), data.train.label_dim())
            .hidden(16)
            .learning_rate(2e-3)
            .seed(13)
            .build()
            .unwrap()
    };
    let opts = TrainOptions::new(2)
        .batch_size(32)
        .threads(1)
        .seed(5)
        .eval_every(4)
        .eval_examples(60);

    let mut pooled = DenseTrainer::new(cfg()).unwrap();
    let rp = pooled.train_with_eval(&data.train, &data.test, &opts.clone());

    let mut fresh = DenseTrainer::new(cfg()).unwrap();
    let rf = fresh.train_with_eval(&data.train, &data.test, &opts.workspace_pooling(false));

    assert_eq!(
        deterministic_view(&rp),
        deterministic_view(&rf),
        "pooled and fresh workspaces diverged"
    );

    // Stronger: the learned parameters are bit-identical.
    for (l, (a, b)) in pooled
        .network()
        .layers()
        .iter()
        .zip(fresh.network().layers())
        .enumerate()
    {
        for j in 0..a.units() {
            for i in 0..a.fan_in() {
                assert_eq!(
                    a.weight(j, i).to_bits(),
                    b.weight(j, i).to_bits(),
                    "layer {l} weight ({j},{i}) differs"
                );
            }
            assert_eq!(
                a.biases().get(j).to_bits(),
                b.biases().get(j).to_bits(),
                "layer {l} bias {j} differs"
            );
        }
    }
}

#[test]
fn pooled_lsh_training_is_reproducible() {
    // The LSH selector consumes workspace RNG, so pooling changes which
    // stream each example draws from vs fresh workspaces — but two pooled
    // runs with the same seed must agree exactly.
    let data = tiny_data(17);
    let make = || {
        let cfg = NetworkConfig::builder(data.train.feature_dim(), data.train.label_dim())
            .hidden(16)
            .output_lsh(LshLayerConfig::simhash(3, 8))
            .seed(19)
            .build()
            .unwrap();
        SlideTrainer::new(cfg).unwrap()
    };
    let opts = TrainOptions::new(1).batch_size(32).threads(1).seed(23);
    let mut a = make();
    let ra = a.train(&data.train, &opts);
    let mut b = make();
    let rb = b.train(&data.train, &opts);
    assert_eq!(deterministic_view(&ra), deterministic_view(&rb));
    let wa = a.network().layers()[1].weights();
    let wb = b.network().layers()[1].weights();
    for j in 0..wa.rows() {
        for i in 0..wa.cols() {
            assert_eq!(
                wa.get(j, i).to_bits(),
                wb.get(j, i).to_bits(),
                "weight ({j},{i}) differs between identical pooled runs"
            );
        }
    }
}
