//! Criterion micro-bench behind **Figure 10**: scalar vs vectorized
//! kernels (the SIMD half of the paper's platform optimizations), plus
//! the first layer's kernels at the `train_kernel` shape: the
//! input-major forward/Adam pair against the per-unit gather kernels
//! they replace.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use slide_core::hogwild::HogwildMatrix;
use slide_kernels::{
    adam_step_gather, adam_step_input_major, axpy, dot, gather_dot, gather_dot_input_major,
    softmax_in_place, AdamParams, KernelMode,
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

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench, first_layer
}
criterion_main!(benches);
