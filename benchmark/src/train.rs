//! The three training workloads: `train_kernel`, `train_select` (in
//! memory) and `train_disk` (svmlight text → cache → mmap epochs).
//!
//! Untraced, one `Trainer` call runs a warm-up epoch and then the timed
//! steps; a per-step checkpoint (`eval_every(1)` over zero test examples)
//! gives each mini-batch step's training seconds, so throughput, the
//! step-latency median and tail, and per-step loss all come from the
//! library's own clock. Traced, a hand-driven single-thread pass records
//! spans around `forward`/`backward`/`maintain` and inside a wrapping
//! selector.

use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use slide_core::hogwild::HogwildMatrix;
use slide_core::selector::{ActiveSet, NeuronSelector, SelectionContext, SelectorScratch};
use slide_core::trainer::{SlideTrainer, TrainOptions, TrainReport};
use slide_core::{hash_layer_input, probe_tables, LshLayerConfig, Network, NetworkConfig};
use slide_core::{Checkpoint, RebuildSchedule};
use slide_data::cache::build_cache_from_svmlight;
use slide_data::rng::{Rng, Xoshiro256PlusPlus};
use slide_data::source::{ExampleSource, MmapDataset};
use slide_data::stream::StreamingSvmReader;
use slide_data::synth::{generate, Scale, SyntheticConfig, SyntheticStream};
use slide_data::{svmlight, Dataset, Example};
use slide_kernels::{adam_step_gather, gather_dot, AdamParams, KernelMode, SignedPlanesBuilder};
use slide_lsh::SamplingStrategy;

use crate::report::Report;
use crate::stats::{median, percentile, segment_median_rate, sorted, tail_note};
use crate::trace::{span_cost_s, Tracer};
use crate::{set_up_repeatedly, timed_loads, Run, SEGMENTS};

/// Examples per mini-batch step (the paper's Delicious setting).
pub const BATCH: usize = 128;

/// The declared tail of step latency: a timed section holds at least a
/// hundred steps, so p90 always has ten samples beyond it.
pub const STEP_TAIL: f64 = 0.90;

/// Initial weights and hash functions are configuration of the program
/// under test, not inputs: `--seed` draws the corpus, its order and the
/// shuffle, and every run starts from this same network. Drawing the
/// network from the seed as well moved throughput by a tenth on its own.
const NETWORK_SEED: u64 = 0xB0B;

/// Model and data geometry of one training workload.
#[derive(Debug, Clone)]
pub struct TrainShape {
    pub features: usize,
    pub labels: usize,
    pub hidden: usize,
    pub doc_nnz: usize,
    /// SimHash `(K, L)` and the active-neuron budget.
    pub lsh: (usize, usize, usize),
    /// Steps between table rebuilds.
    pub rebuild_every: u64,
    pub learning_rate: f32,
    /// A multiple of [`BATCH`], so every step has the same size.
    pub train_size: usize,
    /// Untimed steps before the timed ones, in the same `Trainer` call.
    pub warm_steps: u64,
    pub test_size: usize,
    /// Timed steps per second of `--seconds`, as measured at the baseline
    /// on the 2-core box. The step count is fixed before the run starts
    /// (the rebuild schedule counts steps within one `Trainer` call, so a
    /// timed section cannot be a loop of short calls), which also makes
    /// `p_at_1` the accuracy after a fixed number of examples.
    pub steps_per_second: f64,
    /// Steps of each traced-mode pass: fixed work, so counts repeat.
    pub trace_steps: u64,
    /// A run whose P@1 ends below this fails.
    pub p_at_1_floor: f64,
}

impl TrainShape {
    pub fn kernel(tiny: bool) -> Self {
        // Large enough that a run is one pass and a bit: revisiting a small
        // set many times at T threads made the trajectory, and with it the
        // work per example, differ from seed to seed by a quarter.
        let train_size = if tiny { 4 * BATCH } else { 512 * BATCH };
        Self {
            features: if tiny { 1_000 } else { 10_000 },
            labels: if tiny { 2_000 } else { 20_000 },
            hidden: if tiny { 32 } else { 128 },
            doc_nnz: 75,
            lsh: if tiny { (5, 8, 200) } else { (6, 12, 1_000) },
            rebuild_every: if tiny { 4 } else { 48 },
            learning_rate: 3e-4,
            train_size,
            warm_steps: if tiny { 4 } else { 64 },
            test_size: if tiny { 100 } else { 2_000 },
            steps_per_second: 60.0,
            trace_steps: if tiny { 4 } else { 48 },
            p_at_1_floor: if tiny { 0.0 } else { 0.30 },
        }
    }

    pub fn select(tiny: bool) -> Self {
        Self {
            labels: if tiny { 2_000 } else { 50_000 },
            lsh: if tiny { (6, 16, 20) } else { (9, 50, 100) },
            rebuild_every: 6,
            steps_per_second: 24.0,
            trace_steps: if tiny { 8 } else { 48 },
            ..Self::kernel(tiny)
        }
    }

    pub fn disk(tiny: bool) -> Self {
        Self {
            features: if tiny { 2_000 } else { 50_000 },
            labels: if tiny { 200 } else { 2_000 },
            hidden: 16,
            doc_nnz: if tiny { 40 } else { 150 },
            lsh: (4, 4, 32),
            rebuild_every: 50,
            learning_rate: 1e-3,
            train_size: if tiny { 4 * BATCH } else { 640 * BATCH },
            warm_steps: if tiny { 4 } else { 160 },
            test_size: if tiny { 100 } else { 2_000 },
            steps_per_second: 450.0,
            trace_steps: if tiny { 4 } else { 160 },
            p_at_1_floor: 0.0,
        }
    }

    fn steps_per_epoch(&self) -> u64 {
        assert_eq!(self.train_size % BATCH, 0, "train_size must be whole steps");
        (self.train_size / BATCH) as u64
    }

    pub fn synth(&self, seed: u64) -> SyntheticConfig {
        let mut s = SyntheticConfig::delicious_like(Scale::Smoke).with_seed(seed);
        s.feature_dim = self.features;
        s.label_dim = self.labels;
        s.doc_nnz = self.doc_nnz;
        s.with_sizes(self.train_size, self.test_size)
    }

    fn network(&self) -> NetworkConfig {
        let (k, l, budget) = self.lsh;
        let lsh = LshLayerConfig::simhash(k, l)
            .with_strategy(SamplingStrategy::Vanilla { budget })
            .with_rebuild(RebuildSchedule::fixed(self.rebuild_every));
        NetworkConfig::builder(self.features, self.labels)
            .hidden(self.hidden)
            .output_lsh(lsh)
            .learning_rate(self.learning_rate)
            .seed(NETWORK_SEED)
            .build()
            .expect("valid benchmark network")
    }

    fn trainer(&self) -> SlideTrainer {
        SlideTrainer::new(self.network()).expect("valid benchmark network")
    }

    fn options(&self, run: &Run, threads: usize, steps: u64) -> TrainOptions {
        let epochs = steps.div_ceil(self.steps_per_epoch()).max(1) as usize;
        TrainOptions::new(epochs)
            .batch_size(BATCH)
            .threads(threads)
            .seed(run.seed)
            .max_iterations(steps)
    }
}

// ---------------------------------------------------------------------
// Untraced: end-to-end metrics.

/// Where a workload's examples live once set-up is done.
enum Corpus {
    Memory(Dataset),
    Disk(MmapDataset),
}

impl Corpus {
    fn source(&self) -> &dyn ExampleSource {
        match self {
            Corpus::Memory(d) => d,
            Corpus::Disk(m) => m,
        }
    }
}

struct Prepared {
    corpus: Corpus,
    test: Dataset,
    trainer: SlideTrainer,
    /// Seconds from the artifact to a ready object: building the network
    /// and its tables in memory, ingesting the text on disk.
    load_s: f64,
    setup_s: f64,
    /// What the ingest path produced (`train_disk` only).
    ingest: Option<Ingest>,
}

fn prepare_memory(shape: &TrainShape, run: &Run) -> Prepared {
    let t0 = Instant::now();
    let data = generate(&shape.synth(run.seed));
    let built: Result<_, std::convert::Infallible> = timed_loads(|| Ok(shape.trainer()), drop);
    let Ok((trainer, load_s)) = built;
    Prepared {
        corpus: Corpus::Memory(data.train),
        test: data.test,
        trainer,
        load_s,
        setup_s: t0.elapsed().as_secs_f64(),
        ingest: None,
    }
}

/// Streams the corpus to svmlight text without ever holding it.
fn write_corpus(shape: &TrainShape, seed: u64, path: &Path) -> std::io::Result<u64> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    svmlight::write_header(&mut w, shape.train_size, shape.features, shape.labels)?;
    let mut stream = SyntheticStream::train(&shape.synth(seed));
    for _ in 0..shape.train_size {
        svmlight::write_record(&mut w, &stream.next_example())?;
    }
    w.flush()?;
    Ok(std::fs::metadata(path)?.len())
}

/// What the ingest path produced, for the per-layer metrics.
#[derive(Debug, Clone, Copy)]
struct Ingest {
    text_bytes: u64,
    cache_bytes: u64,
    build_s: f64,
    open_s: f64,
}

fn prepare_disk(shape: &TrainShape, run: &Run, report: &mut Report) -> Result<Prepared, String> {
    let text = run.scratch.join("corpus.svm");
    let cache = run.scratch.join("corpus.slidecache");
    let t0 = Instant::now();
    let text_bytes = write_corpus(shape, run.seed, &text).map_err(|e| format!("corpus: {e}"))?;
    let test: Dataset = {
        let mut ds = Dataset::new(shape.features, shape.labels);
        ds.extend(SyntheticStream::test(&shape.synth(run.seed)).take(shape.test_size));
        ds
    };
    let l0 = Instant::now();
    let summary = build_cache_from_svmlight(&text, &cache).map_err(|e| format!("ingest: {e}"))?;
    let build_s = l0.elapsed().as_secs_f64();
    let o0 = Instant::now();
    let mmap = MmapDataset::open(&cache).map_err(|e| format!("cache open: {e}"))?;
    let open_s = o0.elapsed().as_secs_f64();
    let load_s = l0.elapsed().as_secs_f64();
    let setup_s = t0.elapsed().as_secs_f64();
    report.count(1, (summary.examples != shape.train_size as u64) as u64);
    Ok(Prepared {
        corpus: Corpus::Disk(mmap),
        test,
        trainer: shape.trainer(),
        load_s,
        setup_s,
        ingest: Some(Ingest {
            text_bytes,
            cache_bytes: summary.bytes,
            build_s,
            open_s,
        }),
    })
}

fn prepare(
    shape: &TrainShape,
    run: &Run,
    report: &mut Report,
    disk: bool,
) -> Result<Prepared, String> {
    if disk {
        prepare_disk(shape, run, report)
    } else {
        Ok(prepare_memory(shape, run))
    }
}

/// Every `stride`-th example read back through the mmap must equal the
/// one the text parser yields; each is one operation.
fn spot_check(
    text: &Path,
    mmap: &MmapDataset,
    checks: usize,
    report: &mut Report,
) -> Result<(), String> {
    let stride = (mmap.len() / checks.max(1)).max(1);
    let mut reader = StreamingSvmReader::open(text).map_err(|e| format!("reopen corpus: {e}"))?;
    let (mut parsed, mut mapped) = (Example::empty(), Example::empty());
    let mut index = 0usize;
    while reader
        .read_into(&mut parsed)
        .map_err(|e| format!("reparse: {e}"))?
    {
        if index.is_multiple_of(stride) {
            mmap.read_into(index, &mut mapped);
            report.count(1, (parsed != mapped) as u64);
        }
        index += 1;
    }
    report.count(1, (index != mmap.len()) as u64);
    Ok(())
}

/// Per-step training seconds and mean loss out of a per-step checkpoint
/// history (cumulative seconds → differences).
fn steps_of(history: &[Checkpoint]) -> Vec<(f64, f64)> {
    let mut prev = 0.0;
    history
        .iter()
        .map(|c| {
            let step = c.seconds - prev;
            prev = c.seconds;
            (step, c.train_loss)
        })
        .collect()
}

fn train_untraced(
    shape: &TrainShape,
    run: &Run,
    report: &mut Report,
    disk: bool,
) -> Result<(), String> {
    // One corpus resident at a time, as in one set-up.
    let (mut prepared, setup_s, load_s) = set_up_repeatedly(
        || prepare(shape, run, report, disk),
        drop,
        |p| (p.setup_s, p.load_s),
    )?;
    if let Corpus::Disk(mmap) = &prepared.corpus {
        spot_check(&run.scratch.join("corpus.svm"), mmap, 1_000, report)?;
    }
    let source = prepared.corpus.source();

    let warm = shape.warm_steps;
    // Never fewer than leave ten samples beyond the declared tail.
    let timed = ((run.seconds * shape.steps_per_second).ceil() as u64)
        .max((10.0 / (1.0 - STEP_TAIL)) as u64);
    let options = shape
        .options(run, run.threads, warm + timed)
        .eval_every(1)
        .eval_examples(0);
    let t0 = Instant::now();
    let result: TrainReport = prepared
        .trainer
        .try_train_source(source, Some(&prepared.test), &options)
        .map_err(|e| format!("train: {e}"))?;
    let wall_s = t0.elapsed().as_secs_f64();
    let p_at_1 = prepared.trainer.evaluate_n(&prepared.test, shape.test_size);

    let steps = steps_of(&result.history);
    let timed_steps = &steps[(warm as usize).min(steps.len())..];
    let bad = timed_steps
        .iter()
        .filter(|(_, loss)| !loss.is_finite())
        .count();
    report.count(timed_steps.len() as u64, bad as u64);
    report.gate(
        p_at_1 >= shape.p_at_1_floor,
        format!("p_at_1 {p_at_1:.4} below the floor {}", shape.p_at_1_floor),
    );
    report.gate(result.final_loss.is_finite(), "final loss is not finite");

    let work: Vec<(f64, f64)> = timed_steps
        .iter()
        .map(|&(s, _)| (BATCH as f64, s))
        .collect();
    let latencies = sorted(timed_steps.iter().map(|&(s, _)| s * 1e6).collect());
    report.set("setup_s", setup_s);
    report.set("load_s", load_s);
    report.set("examples_per_s", segment_median_rate(&work, SEGMENTS));
    report.set("p_at_1", p_at_1);
    report.set("op_p50_us", percentile(&latencies, 0.50));
    report.set("op_tail_us", percentile(&latencies, STEP_TAIL));
    report.note(format!(
        "an operation is one {BATCH}-example step: {} timed after {warm} warm-up steps ({:.2} epochs, {:.2}s of training in {wall_s:.2}s wall); {}",
        timed_steps.len(),
        timed_steps.len() as f64 / shape.steps_per_epoch() as f64,
        timed_steps.iter().map(|s| s.0).sum::<f64>(),
        tail_note(timed_steps.len(), STEP_TAIL)
    ));
    report.note(format!(
        "final_loss {:.4}, utilization {:.3} at T={}, p_at_1 over {} held-out examples after {} examples",
        result.final_loss,
        result.telemetry.utilization,
        run.threads,
        shape.test_size,
        result.telemetry.examples
    ));
    Ok(())
}

// ---------------------------------------------------------------------
// Traced: per-layer metrics.

/// `LshSelector::select` with a span around each half (the exact body,
/// as `hot_path`'s `TimedLshSelector`); spans nest under whichever span
/// the caller has open — `forward`.
#[derive(Debug)]
struct TracedSelector<'a> {
    tracer: &'a Mutex<Tracer>,
}

impl NeuronSelector for TracedSelector<'_> {
    fn name(&self) -> &'static str {
        "lsh"
    }

    fn select(
        &self,
        ctx: &SelectionContext<'_>,
        scratch: &mut SelectorScratch,
        active: &mut ActiveSet,
    ) {
        let id = ctx.layer_index as u64;
        let span = |name| self.tracer.lock().expect("tracer lock").begin(name, id);
        let end = || self.tracer.lock().expect("tracer lock").end();
        span("select");
        match ctx.layer.lsh() {
            None => active.fill_dense(ctx.layer.units()),
            Some(lsh) => {
                span("hash");
                hash_layer_input(lsh, ctx, scratch, false);
                end();
                span("probe");
                probe_tables(lsh, ctx, scratch, active);
                end();
            }
        }
        end();
    }

    fn maintains_tables(&self) -> bool {
        true
    }
}

/// The trainer's shard-local permutation, rebuilt here because the traced
/// pass drives the network by hand: shards in shuffled order, each
/// shuffled inside.
fn shard_order(len: usize, shard: Option<usize>, rng: &mut Xoshiro256PlusPlus) -> Vec<u32> {
    let shard = shard.filter(|&s| s > 0 && s < len).unwrap_or(len.max(1));
    let mut shards: Vec<usize> = (0..len.div_ceil(shard)).collect();
    rng.shuffle(&mut shards);
    let mut order = Vec::with_capacity(len);
    for s in shards {
        let at = order.len();
        order.extend((s * shard) as u32..((s + 1) * shard).min(len) as u32);
        rng.shuffle(&mut order[at..]);
    }
    order
}

struct TracedPass {
    tracer: Tracer,
    examples: u64,
    rebuilds: u64,
    active_sum: u64,
    bad_losses: u64,
}

/// One hand-driven single-thread pass of `steps` steps over `order`:
/// `epoch > batch > example > {read, forward > select > {hash, probe},
/// backward}` and `batch > maintain`.
fn traced_pass(
    net: &mut Network,
    corpus: &Corpus,
    order: &[u32],
    steps: u64,
    seed: u64,
) -> TracedPass {
    let tracer = Mutex::new(Tracer::default());
    let selector = TracedSelector { tracer: &tracer };
    let begin = |name, id| tracer.lock().expect("tracer lock").begin(name, id);
    let end = || tracer.lock().expect("tracer lock").end();
    let mut ws = net.workspace(seed ^ 0xF00D);
    let mut buf = Example::empty();
    let last = net.layers().len() - 1;
    let (mut examples, mut rebuilds, mut active_sum, mut bad_losses) = (0u64, 0u64, 0u64, 0u64);

    begin("epoch", 0);
    for (step, chunk) in order.chunks(BATCH).take(steps as usize).enumerate() {
        begin("batch", step as u64);
        let clr = net.begin_step();
        for &idx in chunk {
            let id = idx as u64;
            begin("example", id);
            let ex: &Example = match corpus {
                Corpus::Memory(d) => &d.examples()[idx as usize],
                Corpus::Disk(m) => {
                    begin("read", id);
                    m.read_into(idx as usize, &mut buf);
                    end();
                    &buf
                }
            };
            begin("forward", id);
            let loss = net.forward(&selector, &mut ws, &ex.features, Some(&ex.labels));
            end();
            begin("backward", id);
            net.backward(&mut ws, &ex.features, &ex.labels, clr);
            end();
            end();
            examples += 1;
            active_sum += ws.active_set(last).ids().len() as u64;
            bad_losses += !loss.is_finite() as u64;
        }
        begin("maintain", step as u64);
        for layer in net.layers_mut() {
            rebuilds += layer.maintain(step as u64 + 1) as u64;
        }
        end();
        end();
    }
    end();
    TracedPass {
        tracer: tracer.into_inner().expect("tracer lock"),
        examples,
        rebuilds,
        active_sum,
        bad_losses,
    }
}

/// Median nanoseconds per call of `f`, over batches of calls spread
/// across `budget`.
fn ns_per_call(budget: Duration, mut f: impl FnMut(usize)) -> f64 {
    const CALLS: usize = 512;
    for i in 0..CALLS {
        f(i);
    }
    let mut batches = Vec::new();
    let start = Instant::now();
    let mut i = CALLS;
    while start.elapsed() < budget || batches.len() < 5 {
        let t0 = Instant::now();
        for _ in 0..CALLS {
            f(i);
            i += 1;
        }
        batches.push(t0.elapsed().as_nanos() as f64 / CALLS as f64);
    }
    median(&batches)
}

/// The three kernels under a training example, called directly at this
/// workload's row shapes: a `hidden`-wide identity-id dot (output-layer
/// forward), an Adam step over one example's feature ids in a
/// `features`-wide row (first-layer backward), and `K·L` planes over the
/// hidden activations (output-layer hashing).
fn kernel_metrics(shape: &TrainShape, seed: u64, report: &mut Report) {
    let mode = KernelMode::Vectorized;
    let budget = Duration::from_millis(150);
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed ^ 0x4E27);
    let mut randoms = |n: usize| -> Vec<f32> { (0..n).map(|_| rng.next_f32() - 0.5).collect() };

    let rows = 1024;
    let out_w = HogwildMatrix::from_values(rows, shape.hidden, &randoms(rows * shape.hidden));
    let acts = randoms(shape.hidden);
    let identity: Vec<u32> = (0..shape.hidden as u32).collect();
    let mut sink = 0.0f32;
    report.set(
        "kernels.gather_dot_ns",
        ns_per_call(budget, |i| {
            sink += gather_dot(out_w.row(i * 193 % rows), &identity, &acts, 0.1, mode);
        }),
    );

    let rows = shape.hidden;
    let hid = |v: &[f32]| HogwildMatrix::from_values(rows, shape.features, v);
    let (w, m, v) = (
        hid(&randoms(rows * shape.features)),
        hid(&vec![0.0; rows * shape.features]),
        hid(&vec![0.0; rows * shape.features]),
    );
    let mut ids: Vec<u32> = Xoshiro256PlusPlus::seed_from_u64(seed ^ 0xAD4)
        .sample_distinct(shape.features, shape.doc_nnz.min(shape.features))
        .into_iter()
        .map(|i| i as u32)
        .collect();
    ids.sort_unstable();
    let vals = randoms(ids.len());
    let adam = AdamParams::with_lr(shape.learning_rate);
    report.set(
        "kernels.adam_step_gather_ns",
        ns_per_call(budget, |i| {
            let r = i % rows;
            adam_step_gather(
                w.row(r),
                m.row(r),
                v.row(r),
                &ids,
                &vals,
                0.01,
                None,
                &adam,
                1e-3,
                mode,
            );
        }),
    );

    let (k, l, _) = shape.lsh;
    let nnz = shape.hidden.div_ceil(3);
    let mut planes = SignedPlanesBuilder::new(shape.hidden);
    let mut plane_rng = Xoshiro256PlusPlus::seed_from_u64(seed ^ 0x51A);
    for _ in 0..k * l {
        let mut idx = plane_rng.sample_distinct(shape.hidden, nnz);
        idx.sort_unstable();
        let signs: Vec<i8> = idx
            .iter()
            .map(|_| if plane_rng.gen_bool(0.5) { 1 } else { -1 })
            .collect();
        planes.push_plane(idx.into_iter().map(|i| i as u32).zip(signs));
    }
    let planes = planes.finish();
    let mut projections = vec![0.0f32; k * l];
    report.set(
        "kernels.project_dense_ns",
        ns_per_call(budget, |_| {
            planes.project_dense(&acts, &mut projections, mode);
            sink += projections[0];
        }),
    );
    std::hint::black_box(sink);
}

fn train_traced(
    shape: &TrainShape,
    run: &Run,
    report: &mut Report,
    disk: bool,
) -> Result<(), String> {
    let prepared = prepare(shape, run, report, disk)?;
    let source = prepared.corpus.source();
    let steps = shape.trace_steps;
    let examples = (steps as usize * BATCH) as f64;

    // The same steps through the trainer at one thread and at T threads,
    // each from a fresh network.
    let one = shape
        .trainer()
        .train_source(source, &shape.options(run, 1, steps).no_shuffle());
    let many = shape
        .trainer()
        .train_source(source, &shape.options(run, run.threads, steps).no_shuffle());
    let rate_1t = examples / one.seconds.max(1e-9);
    let tel = &one.telemetry;
    report.set("trainer.examples_per_s_1t", rate_1t);
    report.set("trainer.scaling_x", one.seconds / many.seconds.max(1e-9));
    report.set("trainer.utilization", many.telemetry.utilization);
    report.set(
        "trainer.weight_touches_per_example",
        tel.weight_touches as f64 / tel.examples.max(1) as f64,
    );
    report.set(
        "trainer.compute_ops_per_example",
        tel.compute_ops as f64 / tel.examples.max(1) as f64,
    );
    report.set("trainer.final_loss", one.final_loss);
    report.gate(
        one.final_loss.is_finite() && many.final_loss.is_finite(),
        "loss is not finite",
    );

    let order: Vec<u32> = match &prepared.corpus {
        Corpus::Memory(d) => (0..d.len() as u32).collect(),
        Corpus::Disk(m) => shard_order(
            m.len(),
            m.shard_len(),
            &mut Xoshiro256PlusPlus::seed_from_u64(run.seed),
        ),
    };
    let mut net = Network::new(shape.network()).expect("valid benchmark network");
    let pass = traced_pass(&mut net, &prepared.corpus, &order, steps, run.seed);
    report.count(pass.examples, pass.bad_losses);

    let totals = pass.tracer.totals();
    let self_s = |name: &str| totals.get(name).map_or(0.0, |t| t.self_s);
    let epoch_s = totals.get("epoch").map_or(0.0, |t| t.total_s);
    let phases = ["hash", "probe", "forward", "backward", "maintain", "read"];
    report.set("selector.hash_s", self_s("hash"));
    report.set("selector.probe_s", self_s("probe"));
    report.set(
        "selector.active_per_example",
        pass.active_sum as f64 / pass.examples.max(1) as f64,
    );
    report.set("network.forward_s", self_s("forward"));
    report.set("network.backward_s", self_s("backward"));
    report.set("layer.rebuild_s", self_s("maintain"));
    report.set("layer.rebuilds", pass.rebuilds as f64);
    report.set(
        "trace.coverage_share",
        phases.iter().map(|p| self_s(p)).sum::<f64>() / epoch_s.max(1e-12),
    );
    report.set(
        "trace.overhead_share",
        pass.tracer.spans().len() as f64 * span_cost_s() / epoch_s.max(1e-12),
    );
    if let Some(lsh) = net.layers().last().and_then(|l| l.lsh()) {
        let stats = lsh.tables().stats();
        report.set("lsh.avg_bucket_load", stats.avg_bucket_load);
        report.set(
            "lsh.full_bucket_share",
            stats.full_buckets as f64 / stats.total_buckets.max(1) as f64,
        );
    }
    kernel_metrics(shape, run.seed, report);

    if let (Some(ingest), Corpus::Disk(mmap)) = (&prepared.ingest, &prepared.corpus) {
        let text = run.scratch.join("corpus.svm");
        let p0 = Instant::now();
        let parsed = StreamingSvmReader::open(&text)
            .and_then(|r| r.validate_to_end())
            .map_err(|e| format!("parse: {e}"))?;
        let parse_s = p0.elapsed().as_secs_f64();
        report.count(1, (parsed != mmap.len()) as u64);
        report.set("stream.parse_s", parse_s);
        report.set("cache.build_s", (ingest.build_s - parse_s).max(0.0));
        report.set(
            "cache.bytes_per_example",
            ingest.cache_bytes as f64 / mmap.len().max(1) as f64,
        );
        report.set(
            "cache.ingest_mb_per_s",
            ingest.text_bytes as f64 / 1e6 / ingest.build_s.max(1e-9),
        );
        report.set("source.open_verify_s", ingest.open_s);
        let mut buf = Example::empty();
        let r0 = Instant::now();
        for &i in &order {
            mmap.read_into(i as usize, &mut buf);
        }
        std::hint::black_box(&buf);
        report.set(
            "source.read_into_ns",
            r0.elapsed().as_nanos() as f64 / order.len().max(1) as f64,
        );
        report.set("source.epoch_share", self_s("read") / epoch_s.max(1e-12));
    }

    let trace_path = run.out_dir.join(format!("{}.trace.json", run.workload));
    pass.tracer
        .write_json(&trace_path, &run.workload)
        .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;
    report.note(format!(
        "{steps} steps ({} examples) per pass; traced pass {epoch_s:.3}s; {} spans in {}",
        pass.examples,
        pass.tracer.spans().len(),
        trace_path.display()
    ));
    Ok(())
}

pub fn run(shape: &TrainShape, run: &Run, report: &mut Report, disk: bool) -> Result<(), String> {
    if run.trace {
        train_traced(shape, run, report, disk)
    } else {
        train_untraced(shape, run, report, disk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_seconds_are_checkpoint_differences() {
        let cp = |iteration, seconds, train_loss| Checkpoint {
            iteration,
            seconds,
            p_at_1: 0.0,
            train_loss,
        };
        let steps = steps_of(&[cp(1, 0.5, 3.0), cp(2, 0.75, 2.0), cp(3, 1.75, 1.0)]);
        assert_eq!(steps, vec![(0.5, 3.0), (0.25, 2.0), (1.0, 1.0)]);
    }

    #[test]
    fn shard_order_is_a_permutation_that_stays_inside_shards() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(3);
        let order = shard_order(1_024, Some(64), &mut rng);
        let mut seen = order.clone();
        seen.sort_unstable();
        assert_eq!(seen, (0..1_024).collect::<Vec<u32>>());
        for chunk in order.chunks(64) {
            let shard = chunk[0] / 64;
            assert!(chunk.iter().all(|&i| i / 64 == shard));
        }
        let whole = shard_order(10, None, &mut rng);
        assert_eq!(whole.len(), 10);
    }

    #[test]
    fn same_seed_same_corpus_bytes() {
        let shape = TrainShape::disk(true);
        let dir =
            crate::host::ScratchDir::create(&crate::host::output_dir(), "corpus-test").unwrap();
        let (a, b, c) = (
            dir.path().join("a"),
            dir.path().join("b"),
            dir.path().join("c"),
        );
        write_corpus(&shape, 7, &a).unwrap();
        write_corpus(&shape, 7, &b).unwrap();
        write_corpus(&shape, 8, &c).unwrap();
        let read = |p: &Path| std::fs::read(p).unwrap();
        assert_eq!(read(&a), read(&b), "same seed, byte-identical inputs");
        assert_ne!(read(&a), read(&c), "another seed, other inputs");
        assert_eq!(
            generate(&shape.synth(7)).train,
            generate(&shape.synth(7)).train
        );
    }
}
