//! Criterion micro-bench behind **Figure 10**: scalar vs vectorized
//! kernels (the SIMD half of the paper's platform optimizations), plus
//! the first layer's kernels at the `train_kernel` shape: the
//! input-major forward/Adam pair against the per-unit gather kernels
//! they replace, and the batched q16 scorer at the `serve_batch` shape:
//! every union row against the whole batch, against only its owners.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use slide_core::hogwild::HogwildMatrix;
use slide_kernels::{
    adam_step_gather, adam_step_input_major, axpy, dot, dot_batch_q16, gather_dot,
    gather_dot_input_major, quantize_row, softmax_in_place, AdamParams, KernelMode,
};

fn bench(c: &mut Criterion) {
    let n = 4096usize;
    let a: Vec<f32> = (0..n).map(|i| (i as f32 * 0.13).sin()).collect();
    let b: Vec<f32> = (0..n).map(|i| (i as f32 * 0.29).cos()).collect();

    let mut group = c.benchmark_group("fig10_kernels");
    for mode in [KernelMode::Scalar, KernelMode::Vectorized] {
        group.bench_with_input(BenchmarkId::new("dot_4096", mode), &mode, |bch, &mode| {
            bch.iter(|| dot(std::hint::black_box(&a), std::hint::black_box(&b), mode))
        });
        group.bench_with_input(BenchmarkId::new("axpy_4096", mode), &mode, |bch, &mode| {
            let mut y = b.clone();
            bch.iter(|| {
                axpy(0.5, std::hint::black_box(&a), &mut y, mode);
                y[0]
            })
        });
        group.bench_with_input(
            BenchmarkId::new("softmax_1024", mode),
            &mode,
            |bch, &mode| {
                bch.iter(|| {
                    let mut x: Vec<f32> = a[..1024].to_vec();
                    softmax_in_place(&mut x, mode);
                    x[0]
                })
            },
        );
    }
    group.finish();
}

/// One example through a 10 000 → 128 first layer (`train_kernel`):
/// 75 feature ids, every unit active, half the deltas zero (ReLU).
fn first_layer(c: &mut Criterion) {
    let (fan_in, units, nnz) = (10_000usize, 128usize, 75usize);
    let ids: Vec<u32> = (0..nnz as u32).map(|p| p * 131 + 7).collect();
    let vals: Vec<f32> = (0..nnz)
        .map(|p| 0.1 + (p as f32 * 0.37).sin().abs())
        .collect();
    let active: Vec<u32> = (0..units as u32).collect();
    let deltas: Vec<f32> = (0..units)
        .map(|j| {
            if j % 2 == 0 {
                0.0
            } else {
                1e-3 * (j as f32).cos()
            }
        })
        .collect();
    let values: Vec<f32> = (0..fan_in * units)
        .map(|i| (i as f32 * 0.013).sin() * 0.02)
        .collect();
    let adam = AdamParams::default();
    let clr = adam.corrected_lr(100);
    // The same parameters in both orientations.
    let unit_major = [0, 1, 2].map(|_| HogwildMatrix::from_values(units, fan_in, &values));
    let input_major = [0, 1, 2].map(|_| HogwildMatrix::from_values(fan_in, units, &values));

    let mut group = c.benchmark_group("first_layer_train_kernel");
    for mode in [KernelMode::Scalar, KernelMode::Vectorized] {
        group.bench_with_input(
            BenchmarkId::new("forward_unit_major", mode),
            &mode,
            |b, &mode| {
                let mut out = vec![0.0f32; units];
                b.iter(|| {
                    for (z, &j) in out.iter_mut().zip(&active) {
                        *z = gather_dot(unit_major[0].row(j as usize), &ids, &vals, 0.0, mode);
                    }
                    out[0]
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("forward_input_major", mode),
            &mode,
            |b, &mode| {
                let mut out = vec![0.0f32; units];
                b.iter(|| {
                    out.fill(0.0);
                    gather_dot_input_major(
                        input_major[0].all_rows(),
                        units,
                        &ids,
                        &vals,
                        &active,
                        &mut out,
                        mode,
                    );
                    out[0]
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("adam_unit_major", mode),
            &mode,
            |b, &mode| {
                let [w, m, v] = &unit_major;
                b.iter(|| {
                    for (&j, &d) in active.iter().zip(&deltas) {
                        if d != 0.0 {
                            let j = j as usize;
                            adam_step_gather(
                                w.row(j),
                                m.row(j),
                                v.row(j),
                                &ids,
                                &vals,
                                d,
                                None,
                                &adam,
                                clr,
                                mode,
                            );
                        }
                    }
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("adam_input_major", mode),
            &mode,
            |b, &mode| {
                let [w, m, v] = &input_major;
                b.iter(|| {
                    adam_step_input_major(
                        w.all_rows(),
                        m.all_rows(),
                        v.all_rows(),
                        units,
                        &ids,
                        &vals,
                        &active,
                        &deltas,
                        &adam,
                        clr,
                        mode,
                    )
                })
            },
        );
    }
    group.finish();
}

/// One 32-input `serve_batch` batch through a 20 000 × 128 quantized
/// output layer: a 12 460-row candidate union visited in id order, each
/// row scored against all 32 examples, or against only the examples that
/// retrieved it (41 % of them on average, as measured on that workload).
fn batched_scorer(c: &mut Criterion) {
    let (units, h, b, union) = (20_000usize, 128usize, 32usize, 12_460usize);
    let mut state = 0x5eed_u64;
    let mut next = move || {
        // splitmix64
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut codes = vec![0i16; units * h];
    let mut scales = vec![0.0f32; units];
    for (r, scale) in scales.iter_mut().enumerate() {
        let row: Vec<f32> = (0..h)
            .map(|i| ((r * h + i) as f32 * 0.013).sin() * 0.02)
            .collect();
        *scale = quantize_row(&row, &mut codes[r * h..(r + 1) * h]);
    }
    let hidden: Vec<f32> = (0..b * h)
        .map(|i| (i as f32 * 0.37).sin().max(0.0))
        .collect();
    let mut ids: Vec<usize> = (0..units).collect();
    for i in (1..units).rev() {
        ids.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    ids.truncate(union);
    ids.sort_unstable();
    let all = u64::MAX >> (64 - b);
    let owned: Vec<u64> = ids
        .iter()
        .map(|_| {
            let mask = (0..b).fold(0u64, |m, e| m | u64::from(next() % 100 < 41) << e);
            if mask == 0 {
                1 << (next() % b as u64)
            } else {
                mask
            }
        })
        .collect();

    let mut group = c.benchmark_group("serve_batch_scorer_q16");
    for (name, masks) in [("full_union", vec![all; union]), ("owners_41pct", owned)] {
        group.bench_function(name, |bch| {
            let mut z = [0.0f32; 32];
            bch.iter(|| {
                for (&r, &mask) in ids.iter().zip(&masks) {
                    dot_batch_q16(
                        &codes[r * h..(r + 1) * h],
                        scales[r],
                        h,
                        &hidden,
                        mask,
                        0.0,
                        &mut z,
                        KernelMode::Vectorized,
                    );
                }
                z[0]
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench, first_layer, batched_scorer
}
criterion_main!(benches);
