//! **Hot-path kernel benchmark**: epoch training throughput and per-phase
//! breakdown (select / forward / backward / rebuild) for
//! `KernelMode::Scalar` vs `KernelMode::Vectorized` — the repo's
//! instrument for the paper's "SLIDE-CPU Optimized vs SLIDE-CPU"
//! comparison (Figure 10, §5.4/Appendix D) over the fused slice kernels
//! (`gather_dot`, `adam_step_gather`).
//!
//! The loop drives `Network::forward`/`backward` directly (one thread,
//! the same per-example path the trainer runs) so each phase can be
//! timed: selection is measured inside a wrapping selector — split into
//! its `hash` (K×L code computation) and `probe` (table lookup +
//! sampling) sub-phases, since the SIMD hash kernel moves only the
//! former — forward is the remainder of the forward call, backward and
//! scheduled table rebuilds are timed at their call sites, and each
//! rebuild is split into its hash and insert phases by the layer's own
//! phase clock (`LayerLsh::rebuild_phase_seconds`). The first
//! epoch of each mode is warmup and is excluded from the timings. Each
//! mode's row names the ISA its kernels actually dispatched to
//! (`scalar`, `avx2+fma`, or `portable-unrolled`).
//!
//! ```sh
//! cargo run -p slide-bench --release --bin hot_path -- [smoke|medium|full] [--csv] [--check]
//! # CI regression tripwire (fails if vectorized epoch throughput or the
//! # select phase is >10% behind scalar, or the rebuild hash phase is
//! # behind scalar at all):
//! cargo run -p slide-bench --release --bin hot_path -- --smoke --check
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use slide_bench::{ExpArgs, Scale, TablePrinter};
use slide_core::selector::{ActiveSet, NeuronSelector, SelectionContext};
use slide_core::{hash_layer_input, probe_tables, Network, NetworkConfig, RebuildSchedule};
use slide_data::synth::{generate, SyntheticConfig};
use slide_data::Dataset;
use slide_kernels::{dispatched_isa, KernelMode};

/// `LshSelector` exploded into its two sub-phases — hashing the layer
/// input into K×L codes, then probing the tables and sampling the active
/// set — with a wall-time accumulator around each, so the bench can
/// report where selection time actually goes (the SIMD hash kernel
/// moves `hash`, not `probe`).
#[derive(Debug, Default)]
struct TimedLshSelector {
    hash_nanos: AtomicU64,
    probe_nanos: AtomicU64,
}

impl TimedLshSelector {
    fn hash_nanos(&self) -> u64 {
        self.hash_nanos.load(Ordering::Relaxed)
    }

    fn probe_nanos(&self) -> u64 {
        self.probe_nanos.load(Ordering::Relaxed)
    }
}

impl NeuronSelector for TimedLshSelector {
    fn name(&self) -> &'static str {
        "lsh"
    }

    /// The exact body of `LshSelector::select`, with a timer between the
    /// two halves.
    fn select(
        &self,
        ctx: &SelectionContext<'_>,
        scratch: &mut slide_core::selector::SelectorScratch,
        active: &mut ActiveSet,
    ) {
        let Some(lsh) = ctx.layer.lsh() else {
            active.fill_dense(ctx.layer.units());
            return;
        };
        let t0 = Instant::now();
        hash_layer_input(lsh, ctx, scratch, false);
        let t1 = Instant::now();
        probe_tables(lsh, ctx, scratch, active);
        let t2 = Instant::now();
        self.hash_nanos
            .fetch_add((t1 - t0).as_nanos() as u64, Ordering::Relaxed);
        self.probe_nanos
            .fetch_add((t2 - t1).as_nanos() as u64, Ordering::Relaxed);
    }

    fn maintains_tables(&self) -> bool {
        true
    }
}

#[derive(Debug, Default, Clone, Copy)]
struct Phases {
    hash_s: f64,
    probe_s: f64,
    forward_s: f64,
    backward_s: f64,
    rebuild_s: f64,
    rebuild_hash_s: f64,
    rebuild_insert_s: f64,
}

impl Phases {
    fn select_s(&self) -> f64 {
        self.hash_s + self.probe_s
    }
}

#[derive(Debug, Clone, Copy)]
struct ModeResult {
    mode: KernelMode,
    examples: u64,
    wall_s: f64,
    phases: Phases,
    mean_loss: f64,
}

impl ModeResult {
    fn examples_per_s(&self) -> f64 {
        self.examples as f64 / self.wall_s.max(1e-12)
    }
}

struct BenchConfig {
    scale: Scale,
    features: usize,
    labels: usize,
    hidden: usize,
    train_size: usize,
    /// LSH geometry `(K, L, active budget)`. At the paper's full scale
    /// (Amazon-670K: thousands of active neurons × wide fan-in) the
    /// gather/update kernels dominate an epoch; at the harness's
    /// shrunken scales the paper's L=50 tables would make *hashing* the
    /// top cost and this bench would measure the hash functions instead
    /// of the kernels it exists to track. Fewer tables plus a larger
    /// active fraction restores the full-scale phase balance.
    lsh: (usize, usize, usize),
    warmup_epochs: usize,
    timed_epochs: usize,
    batch_size: usize,
}

impl BenchConfig {
    fn for_scale(scale: Scale) -> Self {
        let (features, labels, hidden, train_size, lsh) = match scale {
            Scale::Smoke => (1_000, 4_000, 64, 1_000, (5, 8, 400)),
            Scale::Medium => (10_000, 20_000, 128, 4_000, (6, 12, 1_000)),
            Scale::Full => (50_000, 100_000, 256, 20_000, (7, 24, 3_000)),
        };
        Self {
            scale,
            features,
            labels,
            hidden,
            train_size,
            lsh,
            warmup_epochs: 1,
            timed_epochs: 2,
            batch_size: 128,
        }
    }

    fn dataset(&self) -> Dataset {
        let mut synth = SyntheticConfig::delicious_like(self.scale);
        synth.feature_dim = self.features;
        synth.label_dim = self.labels;
        synth.train_size = self.train_size;
        synth.test_size = 1;
        generate(&synth).train
    }

    fn network(&self, mode: KernelMode) -> Network {
        // Kernel-dominant LSH geometry (see the `lsh` field), with a
        // fixed rebuild period that puts roughly one table rebuild per
        // epoch in the measurement (so the rebuild phase is visible
        // without dominating the run).
        let per_epoch = self.train_size.div_ceil(self.batch_size) as u64;
        let (k, l, budget) = self.lsh;
        let lsh = slide_core::LshLayerConfig::simhash(k, l)
            .with_strategy(slide_lsh::SamplingStrategy::Vanilla { budget })
            .with_rebuild(RebuildSchedule::fixed(per_epoch.max(1)));
        let config = NetworkConfig::builder(self.features, self.labels)
            .hidden(self.hidden)
            .output_lsh(lsh)
            .learning_rate(2e-3)
            .kernel_mode(mode)
            .seed(0xB0B)
            .build()
            .expect("valid bench config");
        Network::new(config).expect("valid bench network")
    }
}

/// `(hash, insert)` rebuild seconds so far, summed over the LSH layers.
fn rebuild_phase_seconds(net: &Network) -> (f64, f64) {
    net.layers()
        .iter()
        .filter_map(|layer| layer.lsh())
        .map(|lsh| lsh.rebuild_phase_seconds())
        .fold((0.0, 0.0), |(h, i), (dh, di)| (h + dh, i + di))
}

/// One single-threaded training run of `warmup + timed` epochs; phases
/// and throughput are accumulated over the timed epochs only.
fn run_mode(bench: &BenchConfig, train: &Dataset, mode: KernelMode) -> ModeResult {
    let mut net = bench.network(mode);
    let selector = TimedLshSelector::default();
    let mut ws = net.workspace(0xF00D);
    let order: Vec<u32> = (0..train.len() as u32).collect();

    let mut phases = Phases::default();
    let mut wall_s = 0.0f64;
    let mut examples = 0u64;
    let mut iteration = 0u64;
    let mut loss_acc = 0.0f64;
    let mut rebuild_before = (0.0, 0.0);

    for epoch in 0..bench.warmup_epochs + bench.timed_epochs {
        let timed = epoch >= bench.warmup_epochs;
        if epoch == bench.warmup_epochs {
            rebuild_before = rebuild_phase_seconds(&net);
        }
        let e0 = Instant::now();
        for chunk in order.chunks(bench.batch_size) {
            let clr = net.begin_step();
            for &idx in chunk {
                let ex = &train.examples()[idx as usize];
                let h0 = selector.hash_nanos();
                let p0 = selector.probe_nanos();
                let t0 = Instant::now();
                let loss = net.forward(&selector, &mut ws, &ex.features, Some(&ex.labels));
                let fwd_ns = t0.elapsed().as_nanos() as u64;
                let hash_ns = selector.hash_nanos() - h0;
                let probe_ns = selector.probe_nanos() - p0;
                let t1 = Instant::now();
                net.backward(&mut ws, &ex.features, &ex.labels, clr);
                let bwd_ns = t1.elapsed().as_nanos() as u64;
                if timed {
                    phases.hash_s += hash_ns as f64 * 1e-9;
                    phases.probe_s += probe_ns as f64 * 1e-9;
                    phases.forward_s += fwd_ns.saturating_sub(hash_ns + probe_ns) as f64 * 1e-9;
                    phases.backward_s += bwd_ns as f64 * 1e-9;
                    examples += 1;
                    loss_acc += loss as f64;
                }
            }
            iteration += 1;
            let t2 = Instant::now();
            for layer in net.layers_mut() {
                layer.maintain(iteration);
            }
            if timed {
                phases.rebuild_s += t2.elapsed().as_secs_f64();
            }
        }
        if timed {
            wall_s += e0.elapsed().as_secs_f64();
        }
    }

    let rebuild_after = rebuild_phase_seconds(&net);
    phases.rebuild_hash_s = rebuild_after.0 - rebuild_before.0;
    phases.rebuild_insert_s = rebuild_after.1 - rebuild_before.1;

    ModeResult {
        mode,
        examples,
        wall_s,
        phases,
        mean_loss: loss_acc / examples.max(1) as f64,
    }
}

fn main() {
    let ExpArgs {
        scale, csv, check, ..
    } = ExpArgs::parse_gate();
    let bench = BenchConfig::for_scale(scale);
    eprintln!(
        "hot_path {scale}: {} classes x {} features, hidden {}, {} examples, {}+{} epochs per mode",
        bench.labels,
        bench.features,
        bench.hidden,
        bench.train_size,
        bench.warmup_epochs,
        bench.timed_epochs
    );
    let train = bench.dataset();

    let mut results = Vec::new();
    for mode in [KernelMode::Scalar, KernelMode::Vectorized] {
        eprintln!("running {mode} ...");
        results.push(run_mode(&bench, &train, mode));
    }

    let mut printer = TablePrinter::new(
        vec![
            "mode",
            "isa",
            "ex/s",
            "us/ex",
            "hash_s",
            "probe_s",
            "forward_s",
            "backward_s",
            "rebuild_s",
            "rebuild_hash_s",
            "rebuild_insert_s",
            "loss",
        ],
        csv,
    );
    for r in &results {
        printer.row(vec![
            r.mode.to_string(),
            dispatched_isa(r.mode).to_string(),
            format!("{:.0}", r.examples_per_s()),
            format!("{:.1}", r.wall_s * 1e6 / r.examples.max(1) as f64),
            format!("{:.3}", r.phases.hash_s),
            format!("{:.3}", r.phases.probe_s),
            format!("{:.3}", r.phases.forward_s),
            format!("{:.3}", r.phases.backward_s),
            format!("{:.3}", r.phases.rebuild_s),
            format!("{:.4}", r.phases.rebuild_hash_s),
            format!("{:.4}", r.phases.rebuild_insert_s),
            format!("{:.4}", r.mean_loss),
        ]);
    }
    printer.print();

    let speedup = results[1].examples_per_s() / results[0].examples_per_s().max(1e-12);
    let select_speedup = results[0].phases.select_s() / results[1].phases.select_s().max(1e-12);
    println!("speedup vectorized/scalar: {speedup:.3}x");
    let rebuild_speedup =
        results[0].phases.rebuild_hash_s / results[1].phases.rebuild_hash_s.max(1e-12);
    println!("select speedup vectorized/scalar: {select_speedup:.3}x");
    println!("rebuild hash speedup vectorized/scalar: {rebuild_speedup:.3}x");

    if check {
        let mut failed = false;
        if speedup < 0.9 {
            eprintln!("FAIL: vectorized path is >10% slower than scalar ({speedup:.3}x)");
            failed = true;
        }
        // Select-phase tripwire: the vectorized hash kernel plus the
        // dense-identity fast path must never let selection fall behind
        // the scalar reference by more than timing noise.
        if select_speedup < 0.9 {
            eprintln!(
                "FAIL: vectorized select phase regressed >10% vs scalar ({select_speedup:.3}x)"
            );
            failed = true;
        }
        // Rebuild tripwire: the row-tiled hash kernel must never make the
        // rebuild's hash phase slower than the scalar reference.
        if rebuild_speedup < 1.0 {
            eprintln!(
                "FAIL: vectorized rebuild hash phase slower than scalar ({rebuild_speedup:.3}x)"
            );
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
    }
}
