//! Criterion micro-bench behind **Table 3**: filling the tables under the
//! Reservoir vs FIFO replacement policies, and the full insertion
//! including hash-code computation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use slide_data::rng::{Rng, Xoshiro256PlusPlus};
use slide_lsh::family::HashFamily;
use slide_lsh::policy::InsertionPolicy;
use slide_lsh::simhash::SimHash;
use slide_lsh::table::{LshTables, TableConfig};

const NEURONS: usize = 10_000;
const K: usize = 9;
const L: usize = 50;
const DIM: usize = 128;

fn precomputed_codes() -> (SimHash, Vec<u32>) {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(7);
    let family = SimHash::new(DIM, K, L, 1.0 / 3.0, &mut rng);
    let nc = family.num_codes();
    let mut all = vec![0u32; NEURONS * nc];
    let mut w = vec![0.0f32; DIM];
    for j in 0..NEURONS {
        for x in w.iter_mut() {
            *x = rng.next_normal() as f32;
        }
        family.hash_dense(&w, &mut all[j * nc..(j + 1) * nc]);
    }
    (family, all)
}

fn bench(c: &mut Criterion) {
    let (family, codes) = precomputed_codes();
    let nc = family.num_codes();
    let mut group = c.benchmark_group("table3_insertion");
    group.sample_size(10);

    for policy in [InsertionPolicy::Reservoir, InsertionPolicy::Fifo] {
        group.bench_with_input(
            BenchmarkId::new("insertion_to_ht", policy),
            &policy,
            |b, &policy| {
                b.iter(|| {
                    let mut tables = LshTables::new(
                        TableConfig::new(K, L)
                            .with_table_bits(12)
                            .with_bucket_capacity(128)
                            .with_policy(policy),
                    );
                    let mut rng = Xoshiro256PlusPlus::seed_from_u64(11);
                    tables.fill(&codes, &mut rng);
                    tables.stats().total_items
                })
            },
        );
    }

    // "Full insertion": hash + fill (the paper's second column).
    group.bench_function("full_insertion_fifo", |b| {
        let mut all = vec![0u32; NEURONS * nc];
        b.iter(|| {
            let mut tables = LshTables::new(
                TableConfig::new(K, L)
                    .with_table_bits(12)
                    .with_bucket_capacity(128),
            );
            let mut rng = Xoshiro256PlusPlus::seed_from_u64(13);
            let mut w = vec![0.0f32; DIM];
            for cs in all.chunks_exact_mut(nc) {
                for x in w.iter_mut() {
                    *x = rng.next_normal() as f32;
                }
                family.hash_dense(&w, cs);
            }
            tables.fill(&all, &mut rng);
            tables.stats().total_items
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench
}
criterion_main!(benches);
