//! Criterion micro-bench behind **Figure 4 / Figure 12**: per-query cost
//! of the three sampling strategies, at the table shapes of the
//! benchmark's training workloads, plus label-free retrieval at the
//! serving workload's shape — all four run the same bucket walk.
//!
//! * `train_select`: 50 000 neurons, SimHash K=9 L=50, β = 100;
//! * `train_kernel`: 20 000 neurons, K=6 L=12, β = 1 000;
//! * `serve_batch`: 20 000 neurons, K=6 L=16, bucket capacity 20 000,
//!   `retrieve_union` at two collisions.
//!
//! Neuron and query vectors are Gaussian in the 128-wide hidden space;
//! each iteration takes the next of 64 queries, and each benchmark runs
//! for a second.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use slide_data::rng::{Rng, Xoshiro256PlusPlus};
use slide_lsh::family::HashFamily;
use slide_lsh::retrieve::{retrieve_union, QueryBudget};
use slide_lsh::sampling::{sample, SamplerScratch, SamplingStrategy};
use slide_lsh::simhash::SimHash;
use slide_lsh::table::{LshTables, TableConfig};

const DIM: usize = 128;
const QUERIES: usize = 64;

struct Setup {
    tables: LshTables,
    queries: Vec<Vec<u32>>,
    scratch: SamplerScratch,
    rng: Xoshiro256PlusPlus,
}

fn setup(neurons: usize, k: usize, l: usize, capacity: usize) -> Setup {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(42);
    let family = SimHash::new(DIM, k, l, 1.0 / 3.0, &mut rng);
    let mut tables = LshTables::new(
        TableConfig::new(k, l)
            .with_table_bits(12)
            .with_bucket_capacity(capacity),
    );
    let nc = family.num_codes();
    let mut w = vec![0.0f32; DIM];
    let mut gaussian_codes = |rng: &mut Xoshiro256PlusPlus, codes: &mut [u32]| {
        for x in w.iter_mut() {
            *x = rng.next_normal() as f32;
        }
        family.hash_dense(&w, codes);
    };
    let mut all = vec![0u32; neurons * nc];
    for codes in all.chunks_exact_mut(nc) {
        gaussian_codes(&mut rng, codes);
    }
    tables.fill(&all, &mut rng);
    let queries = (0..QUERIES)
        .map(|_| {
            let mut q = vec![0u32; nc];
            gaussian_codes(&mut rng, &mut q);
            q
        })
        .collect();
    Setup {
        tables,
        queries,
        scratch: SamplerScratch::new(neurons),
        rng,
    }
}

fn bench(c: &mut Criterion) {
    let mut out = Vec::new();
    let mut group = c.benchmark_group("fig4_sampling");
    for (shape, neurons, k, l, budget) in [
        ("train_select", 50_000, 9, 50, 100),
        ("train_kernel", 20_000, 6, 12, 1_000),
    ] {
        let mut s = setup(neurons, k, l, 128);
        for strategy in [
            SamplingStrategy::Vanilla { budget },
            SamplingStrategy::TopK { budget },
            SamplingStrategy::HardThreshold { min_count: 2 },
        ] {
            let mut q = 0;
            group.bench_with_input(
                BenchmarkId::new(strategy.name(), shape),
                &strategy,
                |b, &strategy| {
                    b.iter(|| {
                        q = (q + 1) % QUERIES;
                        sample(
                            &s.tables,
                            &s.queries[q],
                            strategy,
                            &mut s.scratch,
                            &mut s.rng,
                            &mut out,
                        );
                        out.len()
                    })
                },
            );
        }
    }
    let mut s = setup(20_000, 6, 16, 20_000);
    let budget = QueryBudget::all().with_min_collisions(2);
    let mut q = 0;
    group.bench_function("retrieve_union/serve_batch", |b| {
        b.iter(|| {
            q = (q + 1) % QUERIES;
            retrieve_union(&s.tables, &s.queries[q], budget, &mut s.scratch, &mut out);
            out.len()
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(1_000_000).measurement_time(std::time::Duration::from_secs(1)).warm_up_time(std::time::Duration::from_millis(300));
    targets = bench
}
criterion_main!(benches);
