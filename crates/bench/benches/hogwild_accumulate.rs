//! Ablation bench: HOGWILD racy accumulation vs lossless
//! CAS accumulation, single-threaded cost and multi-threaded sparse
//! scatter (the pattern SLIDE actually produces).

use criterion::{criterion_group, criterion_main, Criterion};
use slide_core::hogwild::HogwildArray;
use slide_data::rng::{Rng, SplitMix64};

fn bench(c: &mut Criterion) {
    let n = 1 << 16;
    let arr = HogwildArray::zeroed(n);
    let mut group = c.benchmark_group("hogwild_accumulate");

    group.bench_function("racy_sequential_64k", |b| {
        b.iter(|| {
            for i in 0..4096 {
                arr.add_racy(i * 16, 0.5);
            }
        })
    });
    group.bench_function("cas_sequential_64k", |b| {
        b.iter(|| {
            for i in 0..4096 {
                arr.add_cas(i * 16, 0.5);
            }
        })
    });

    // Multi-threaded sparse scatter: 8 threads × 4096 random updates.
    for (name, racy) in [("racy_parallel_8t", true), ("cas_parallel_8t", false)] {
        group.bench_function(name, |b| {
            b.iter(|| {
                std::thread::scope(|s| {
                    for t in 0..8u64 {
                        let arr = &arr;
                        s.spawn(move || {
                            let mut rng = SplitMix64::new(t);
                            for _ in 0..4096 {
                                let i = rng.gen_range(0, n);
                                if racy {
                                    arr.add_racy(i, 0.1);
                                } else {
                                    arr.add_cas(i, 0.1);
                                }
                            }
                        });
                    }
                });
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench
}
criterion_main!(benches);
