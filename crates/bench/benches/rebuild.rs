//! Table rebuild cost at `train_select`'s output shape (50 000 rows ×
//! 128 inputs, SimHash K = 9, L = 50): a full build, which rehashes
//! every row, and a build after 29 % of the rows were written, the mean
//! share one six-step window of that workload writes. Both insert every
//! id, so the gap between the rows is the hash work a build saves.

use criterion::{criterion_group, criterion_main, Criterion};
use slide_core::layer::Layer;
use slide_core::{LshLayerConfig, Network, NetworkConfig};
use slide_data::rng::{Rng, Xoshiro256PlusPlus};

const UNITS: usize = 50_000;

/// Flags each of `units` for the next build by rewriting one weight.
fn write(layer: &Layer, units: &[usize]) {
    for &j in units {
        layer.set_weight(j, 0, layer.weight(j, 0));
    }
}

fn bench(c: &mut Criterion) {
    let cfg = NetworkConfig::builder(1_000, UNITS)
        .hidden(128)
        .output_lsh(LshLayerConfig::simhash(9, 50))
        .seed(7)
        .build()
        .unwrap();
    let mut net = Network::new(cfg).unwrap();
    let out = &mut net.layers_mut()[1];
    let all: Vec<usize> = (0..UNITS).collect();
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(3);
    let written: Vec<usize> = (0..UNITS).filter(|_| rng.next_f32() < 0.29).collect();

    let mut group = c.benchmark_group("rebuild");
    group.bench_function("full", |b| {
        b.iter(|| {
            write(out, &all);
            out.rebuild_tables();
        })
    });
    group.bench_function("written_29pct", |b| {
        b.iter(|| {
            write(out, &written);
            out.rebuild_tables();
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15).measurement_time(std::time::Duration::from_secs(4)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench
}
criterion_main!(benches);
