//! Criterion micro-bench for the hash families (paper §3.2 / Appendix A).

use criterion::{criterion_group, criterion_main, Criterion};
use slide_data::rng::{Rng, Xoshiro256PlusPlus};
use slide_data::SparseVector;
use slide_lsh::dwta::DwtaHash;
use slide_lsh::family::HashFamily;
use slide_lsh::minhash::DophHash;
use slide_lsh::simhash::SimHash;
use slide_lsh::wta::WtaHash;

const DIM: usize = 1024;
const K: usize = 8;
const L: usize = 50;

fn bench(c: &mut Criterion) {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(3);
    let simhash = SimHash::new(DIM, K, L, 1.0 / 3.0, &mut rng);
    let wta = WtaHash::new(DIM, K, L, 8, &mut rng);
    let dwta = DwtaHash::new(DIM, K, L, 8, &mut rng);
    let doph = DophHash::new(DIM, K, L, 16, 32, &mut rng);

    let dense: Vec<f32> = (0..DIM).map(|_| rng.next_normal() as f32).collect();
    let sparse = SparseVector::from_pairs(
        rng.sample_distinct(DIM, 48)
            .into_iter()
            .map(|i| (i as u32, rng.next_f32() + 0.1)),
    );

    let mut group = c.benchmark_group("hash_families");
    let families: [(&str, &dyn HashFamily); 4] = [
        ("simhash", &simhash),
        ("wta", &wta),
        ("dwta", &dwta),
        ("doph", &doph),
    ];
    for (name, family) in families {
        let mut out = vec![0u32; family.num_codes()];
        group.bench_function(format!("{name}_dense_{DIM}"), |b| {
            b.iter(|| {
                family.hash_dense(std::hint::black_box(&dense), &mut out);
                out[0]
            })
        });
        group.bench_function(format!("{name}_sparse_48nnz"), |b| {
            b.iter(|| {
                family.hash_sparse(std::hint::black_box(&sparse), &mut out);
                out[0]
            })
        });
    }

    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench
}
criterion_main!(benches);
