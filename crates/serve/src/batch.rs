//! Micro-batching request queue over a worker thread pool.
//!
//! Concurrent callers enqueue `(features, k)` jobs; worker threads sleep
//! on a condvar and, on wakeup, *drain up to `max_batch` jobs in one
//! critical section*. That aggregation is the point of micro-batching:
//! under load, one lock acquisition and one wakeup amortize over a whole
//! batch, and the drained jobs score through the fused batch kernels
//! (each candidate weight row streams through the cache once for the
//! whole batch). Each job carries a private reply callback — the
//! event-driven HTTP front-end posts to its event loop, an in-process
//! [`RequestHandle`] wraps a channel — so requests complete independently:
//! a batch is an execution detail, not an API contract.
//!
//! The server runs over an [`EngineHandle`] ([`BatchServer::over_handle`];
//! a pinned engine is [`EngineHandle::new`] at epoch 1, never reloaded).
//! Each drain reads the `(engine, epoch)` pair **inside** the queue
//! critical section, so the epoch a job is answered under is ordered by
//! dequeue order — a connection that receives its responses in request
//! order can never observe the model epoch move backwards.
//!
//! The queue is bounded ([`BatchOptions::queue_cap`]): a full queue
//! rejects new jobs with [`ServeError::Overloaded`] *before* they cost
//! any compute, which the HTTP layer surfaces as `429 Retry-After`.
//!
//! Each drain scores under one `catch_unwind`. A worker that catches a
//! panic answers every job of that drain with
//! [`ServeError::WorkerPanicked`], drops the drain's workspace and its
//! own buffers (a panic may have left any of them mid-write), and goes
//! back to its loop: the pool never shrinks and spawns no thread after
//! it starts.

use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use slide_core::inference::BatchScratch;
use slide_data::SparseVector;

use crate::engine::{Prediction, ServingEngine};
use crate::error::ServeError;
use crate::fault::FaultPlan;
use crate::handle::EngineHandle;

/// The retry delay a full queue advertises, seconds. One second is a
/// round trip through a worker drain with plenty of slack: a queue that
/// stays full for longer is genuinely saturated, not just bursty.
pub const RETRY_AFTER_SECS: u64 = 1;

/// Number of coalesced-batch-size histogram buckets
/// (`1, 2, 3-4, 5-8, 9-16, 17-32, 33+`).
pub const BATCH_HIST_BUCKETS: usize = 7;

/// Load-adaptive graceful-degradation policy for a [`BatchServer`].
///
/// When enabled, each worker drain measures the worst queue wait of the
/// jobs it picked up and votes through a streak-based hysteresis: after
/// [`DegradeOptions::step_up_after`] consecutive drains waiting past
/// [`DegradeOptions::high_wait`], the pool steps its degradation level
/// up (to at most [`DegradeOptions::max_level`]); after
/// [`DegradeOptions::step_down_after`] consecutive drains below
/// [`DegradeOptions::low_wait`], it steps back down. Each level answers
/// under a shrunk LSH [`slide_lsh::QueryBudget`]
/// ([`slide_lsh::QueryBudget::degraded`]) — a quarter fewer candidates
/// scored per level — so latency stays bounded at slightly lower
/// recall, recovering to the full budget when pressure clears.
///
/// **Off by default**: degraded answers are intentionally *different*
/// from full-budget answers, so shrinking the budget must be an explicit
/// operator decision, never a surprise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegradeOptions {
    /// Master switch; everything else is inert while false.
    pub enabled: bool,
    /// Queue wait above which a drain votes to step the level up.
    pub high_wait: Duration,
    /// Queue wait below which a drain votes to step the level down.
    pub low_wait: Duration,
    /// Deepest degradation level (each level shrinks the budget again).
    pub max_level: u32,
    /// Consecutive high-wait drains before stepping up.
    pub step_up_after: u32,
    /// Consecutive low-wait drains before stepping down.
    pub step_down_after: u32,
    /// Deadline shed: a job that already waited longer than this when a
    /// worker picks it up is answered [`ServeError::Overloaded`] without
    /// any compute — the client was going to time out anyway, so the
    /// cycles go to requests that can still make their deadline. `None`
    /// (the default) sheds nothing.
    pub shed_after: Option<Duration>,
}

impl Default for DegradeOptions {
    fn default() -> Self {
        Self {
            enabled: false,
            high_wait: Duration::from_millis(2),
            low_wait: Duration::from_micros(500),
            max_level: 3,
            step_up_after: 2,
            step_down_after: 8,
            shed_after: None,
        }
    }
}

impl DegradeOptions {
    /// Enables/disables adaptive degradation (builder style).
    pub fn with_enabled(mut self, enabled: bool) -> Self {
        self.enabled = enabled;
        self
    }

    /// Sets the step-up / step-down wait watermarks (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `low > high`.
    pub fn with_watermarks(mut self, low: Duration, high: Duration) -> Self {
        assert!(low <= high, "low watermark must not exceed high");
        self.low_wait = low;
        self.high_wait = high;
        self
    }

    /// Sets the deepest degradation level (builder style).
    pub fn with_max_level(mut self, max_level: u32) -> Self {
        self.max_level = max_level;
        self
    }

    /// Sets the up/down streak lengths (builder style).
    ///
    /// # Panics
    ///
    /// Panics if either streak is zero.
    pub fn with_streaks(mut self, step_up_after: u32, step_down_after: u32) -> Self {
        assert!(
            step_up_after > 0 && step_down_after > 0,
            "streaks must be positive"
        );
        self.step_up_after = step_up_after;
        self.step_down_after = step_down_after;
        self
    }

    /// Sets the deadline past which queued jobs are shed (builder
    /// style); `None` disables shedding.
    pub fn with_shed_after(mut self, shed_after: Option<Duration>) -> Self {
        self.shed_after = shed_after;
        self
    }
}

/// Sizing for a [`BatchServer`]; the defaults are what the HTTP
/// front-end serves with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchOptions {
    /// Worker threads serving the queue.
    pub workers: usize,
    /// Maximum jobs one worker drains into a single fused batch.
    pub max_batch: usize,
    /// Largest number of jobs the queue holds before new submissions are
    /// rejected with [`ServeError::Overloaded`] (HTTP `429` +
    /// `Retry-After`), before any compute.
    pub queue_cap: usize,
    /// Load-adaptive degradation policy (off by default). Over HTTP, a
    /// response answered under a shrunken budget carries an
    /// `X-Slide-Degraded` header with the level.
    pub degrade: DegradeOptions,
}

impl Default for BatchOptions {
    fn default() -> Self {
        Self {
            workers: 2,
            max_batch: 32,
            queue_cap: 1024,
            degrade: DegradeOptions::default(),
        }
    }
}

impl BatchOptions {
    /// Sets the worker count (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn with_workers(mut self, workers: usize) -> Self {
        assert!(workers > 0, "workers must be positive");
        self.workers = workers;
        self
    }

    /// Sets the per-wakeup batch cap (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `max_batch == 0`.
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        assert!(max_batch > 0, "max_batch must be positive");
        self.max_batch = max_batch;
        self
    }

    /// Bounds the admission queue (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `queue_cap == 0`.
    pub fn with_queue_cap(mut self, queue_cap: usize) -> Self {
        assert!(queue_cap > 0, "queue_cap must be positive");
        self.queue_cap = queue_cap;
        self
    }

    /// Sets the degradation policy (builder style).
    pub fn with_degrade(mut self, degrade: DegradeOptions) -> Self {
        self.degrade = degrade;
        self
    }
}

/// A completion callback: receives the result and the model epoch that
/// answered. Runs on the worker thread —
/// keep it cheap (the HTTP front-end just posts to an event-loop inbox;
/// [`BatchServer::submit_k`] sends on its handle's channel). Dropping it
/// unrun answers nothing: a channel reply then reads as
/// [`ServeError::ServerShutdown`].
pub(crate) type ReplyCallback = Box<dyn FnOnce(Result<Prediction, ServeError>, u64) + Send>;

struct Job {
    features: SparseVector,
    k: usize,
    enqueued: Instant,
    reply: ReplyCallback,
}

#[derive(Default)]
struct BatchCounters {
    requests: AtomicU64,
    batches: AtomicU64,
    batched_jobs: AtomicU64,
    largest_batch: AtomicU64,
    total_queue_ns: AtomicU64,
    depth: AtomicU64,
    rejected: AtomicU64,
    shed: AtomicU64,
    worker_panics: AtomicU64,
    degraded_requests: AtomicU64,
    hist: [AtomicU64; BATCH_HIST_BUCKETS],
}

/// The pool's shared degradation state: the active level plus the
/// hysteresis streak counters the drains vote through.
struct DegradeState {
    opts: DegradeOptions,
    level: AtomicU32,
    high_streak: AtomicU32,
    low_streak: AtomicU32,
}

impl DegradeState {
    fn new(opts: DegradeOptions) -> Self {
        Self {
            opts,
            level: AtomicU32::new(0),
            high_streak: AtomicU32::new(0),
            low_streak: AtomicU32::new(0),
        }
    }

    /// Feeds one drain's worst queue wait into the hysteresis and
    /// returns the level this drain should answer under. The
    /// read-modify-write is racy across workers by design — a missed or
    /// doubled vote only shifts a step by one drain, and the level
    /// itself moves one step at a time either way.
    fn observe(&self, worst_wait: Duration) -> u32 {
        if !self.opts.enabled {
            return 0;
        }
        if worst_wait >= self.opts.high_wait {
            self.low_streak.store(0, Ordering::Relaxed);
            if self.high_streak.fetch_add(1, Ordering::Relaxed) + 1 >= self.opts.step_up_after {
                self.high_streak.store(0, Ordering::Relaxed);
                let level = self.level.load(Ordering::Relaxed);
                if level < self.opts.max_level {
                    self.level.store(level + 1, Ordering::Relaxed);
                }
            }
        } else if worst_wait <= self.opts.low_wait {
            self.high_streak.store(0, Ordering::Relaxed);
            if self.low_streak.fetch_add(1, Ordering::Relaxed) + 1 >= self.opts.step_down_after {
                self.low_streak.store(0, Ordering::Relaxed);
                let level = self.level.load(Ordering::Relaxed);
                if level > 0 {
                    self.level.store(level - 1, Ordering::Relaxed);
                }
            }
        } else {
            // Between the watermarks: hold the level, reset both streaks.
            self.high_streak.store(0, Ordering::Relaxed);
            self.low_streak.store(0, Ordering::Relaxed);
        }
        self.level.load(Ordering::Relaxed)
    }
}

fn hist_bucket(n: usize) -> usize {
    match n {
        0 | 1 => 0,
        2 => 1,
        3..=4 => 2,
        5..=8 => 3,
        9..=16 => 4,
        17..=32 => 5,
        _ => 6,
    }
}

struct Shared {
    /// Where drains take their engine from: each drain answers with
    /// whatever engine the handle holds at dequeue time.
    handle: Arc<EngineHandle>,
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    shutdown: AtomicBool,
    queue_cap: usize,
    counters: BatchCounters,
    degrade: DegradeState,
    /// Injected-fault switchboard for chaos drills; `None` (the default)
    /// costs one pointer check per drain.
    faults: Option<Arc<FaultPlan>>,
}

/// Queue + throughput statistics of a running [`BatchServer`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServerStats {
    /// Requests completed.
    pub requests: u64,
    /// Worker wakeups that processed at least one job.
    pub batches: u64,
    /// Mean jobs per processed batch.
    pub mean_batch: f64,
    /// Largest single batch drained.
    pub largest_batch: u64,
    /// Mean time a request waited in the queue before a worker picked it
    /// up.
    pub mean_queue_wait: Duration,
    /// Jobs currently waiting in the queue (gauge, sampled at the last
    /// enqueue/drain).
    pub queue_depth: u64,
    /// Submissions rejected by the queue bound.
    pub rejected: u64,
    /// Jobs shed at drain time because they outwaited
    /// [`DegradeOptions::shed_after`] (answered `Overloaded`, no
    /// compute spent).
    pub shed: u64,
    /// Worker panics caught (injected or real); each one answered its
    /// whole drain with typed `worker_panicked` errors.
    pub worker_panics: u64,
    /// Workers that recovered in place after a caught panic, on fresh
    /// buffers and a fresh workspace. Every caught panic recovers, so
    /// this equals `worker_panics`; both are counted before the
    /// panicked drain's first reply runs.
    pub worker_respawns: u64,
    /// The active degradation level (gauge; 0 = full budget).
    pub degradation_level: u32,
    /// Requests answered under a degraded (level > 0) budget.
    pub degraded_requests: u64,
    /// Drained-batch-size histogram over buckets
    /// `1, 2, 3-4, 5-8, 9-16, 17-32, 33+`.
    pub batch_hist: [u64; BATCH_HIST_BUCKETS],
}

/// Handle to one in-flight request; resolves to its [`Prediction`].
#[derive(Debug)]
pub struct RequestHandle {
    rx: mpsc::Receiver<Result<Prediction, ServeError>>,
}

impl RequestHandle {
    /// Blocks until the prediction arrives.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::ServerShutdown`] if the worker pool shut
    /// down (or a worker died) before answering — a dead pool is a typed
    /// error, never a silent non-answer — and forwards any typed error
    /// the engine returned for this request.
    pub fn wait(self) -> Result<Prediction, ServeError> {
        self.rx.recv().map_err(|_| ServeError::ServerShutdown)?
    }
}

/// A micro-batching server over a shared [`ServingEngine`] (or a
/// hot-reloadable [`EngineHandle`]).
///
/// Submitting is non-blocking ([`BatchServer::submit`] returns a
/// [`RequestHandle`]); [`BatchServer::predict`] is the blocking
/// convenience. Dropping the server drains nothing: workers finish the
/// jobs already queued, then exit.
pub struct BatchServer {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for BatchServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchServer")
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl BatchServer {
    /// Starts `options.workers` worker threads over a hot-reloadable
    /// handle: each drain answers with the handle's current engine, and
    /// replies carry the epoch that actually answered.
    pub fn over_handle(handle: Arc<EngineHandle>, options: BatchOptions) -> Self {
        Self::spawn_pool(handle, options, None)
    }

    /// [`BatchServer::over_handle`] with a fault-injection plan attached
    /// for chaos drills.
    pub fn over_handle_with_faults(
        handle: Arc<EngineHandle>,
        options: BatchOptions,
        faults: Arc<FaultPlan>,
    ) -> Self {
        Self::spawn_pool(handle, options, Some(faults))
    }

    fn spawn_pool(
        handle: Arc<EngineHandle>,
        options: BatchOptions,
        faults: Option<Arc<FaultPlan>>,
    ) -> Self {
        assert!(options.workers > 0, "workers must be positive");
        assert!(options.max_batch > 0, "max_batch must be positive");
        assert!(options.queue_cap > 0, "queue_cap must be positive");
        let shared = Arc::new(Shared {
            handle,
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            queue_cap: options.queue_cap,
            counters: BatchCounters::default(),
            degrade: DegradeState::new(options.degrade),
            faults,
        });
        let workers = (0..options.workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared, options.max_batch))
            })
            .collect();
        Self { shared, workers }
    }

    /// Enqueues a request for the engine's configured `top_k`.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::FeatureIndexOutOfRange`] if the request's
    /// feature indices do not fit the network's input dimension, or
    /// [`ServeError::Overloaded`] if the queue bound is hit.
    pub fn submit(&self, features: SparseVector) -> Result<RequestHandle, ServeError> {
        let k = self.engine().default_top_k();
        self.submit_k(features, k)
    }

    /// Enqueues a request for an explicit `k`.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidTopK`] if `k == 0`, or
    /// [`ServeError::FeatureIndexOutOfRange`] on an out-of-range feature
    /// index — both checked on the submitting thread, so a malformed
    /// request is rejected before it can ever reach a worker — or
    /// [`ServeError::Overloaded`] if the queue bound is hit.
    pub fn submit_k(&self, features: SparseVector, k: usize) -> Result<RequestHandle, ServeError> {
        self.engine().validate_request(&features, k)?;
        let (tx, rx) = mpsc::channel();
        // A dropped handle just discards the answer.
        let reply: ReplyCallback = Box::new(move |result, _epoch| {
            tx.send(result).ok();
        });
        self.submit_callbacks(vec![(features, k, reply)])?;
        Ok(RequestHandle { rx })
    }

    /// Enqueues already-validated callback jobs, all or nothing: either
    /// every job fits under the queue bound (one critical section, so
    /// the jobs of one wire request stay contiguous in the queue) or the
    /// whole set is rejected. Validation is the caller's job — the HTTP
    /// layer validates against the current engine before building
    /// callbacks (workers re-validate anyway; a model swapped mid-queue
    /// answers with its own typed error).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Overloaded`] if the jobs do not fit; no job
    /// was enqueued and no callback will run.
    pub(crate) fn submit_callbacks(
        &self,
        jobs: Vec<(SparseVector, usize, ReplyCallback)>,
    ) -> Result<(), ServeError> {
        let n = jobs.len();
        {
            let mut q = self
                .shared
                .queue
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if q.len() + n > self.shared.queue_cap {
                self.shared
                    .counters
                    .rejected
                    .fetch_add(n as u64, Ordering::Relaxed);
                return Err(ServeError::Overloaded {
                    retry_after_secs: RETRY_AFTER_SECS,
                });
            }
            let enqueued = Instant::now();
            for (features, k, reply) in jobs {
                q.push_back(Job {
                    features,
                    k,
                    enqueued,
                    reply,
                });
            }
            self.shared
                .counters
                .depth
                .store(q.len() as u64, Ordering::Relaxed);
        }
        if n > 1 {
            self.shared.available.notify_all();
        } else {
            self.shared.available.notify_one();
        }
        Ok(())
    }

    /// Blocking request: enqueue, wait, return the prediction.
    ///
    /// # Errors
    ///
    /// Returns the submit-time validation error, or
    /// [`ServeError::ServerShutdown`] if the pool died before answering.
    pub fn predict(&self, features: SparseVector) -> Result<Prediction, ServeError> {
        self.submit(features)?.wait()
    }

    /// The handle's live engine at call time.
    pub fn engine(&self) -> Arc<ServingEngine> {
        self.shared.handle.engine()
    }

    /// A snapshot of the batching statistics.
    pub fn stats(&self) -> ServerStats {
        let c = &self.shared.counters;
        let requests = c.requests.load(Ordering::Relaxed);
        let batches = c.batches.load(Ordering::Relaxed);
        let batched = c.batched_jobs.load(Ordering::Relaxed);
        let mut batch_hist = [0u64; BATCH_HIST_BUCKETS];
        for (out, bucket) in batch_hist.iter_mut().zip(&c.hist) {
            *out = bucket.load(Ordering::Relaxed);
        }
        ServerStats {
            requests,
            batches,
            mean_batch: if batches == 0 {
                0.0
            } else {
                batched as f64 / batches as f64
            },
            largest_batch: c.largest_batch.load(Ordering::Relaxed),
            mean_queue_wait: Duration::from_nanos(
                c.total_queue_ns
                    .load(Ordering::Relaxed)
                    .checked_div(requests)
                    .unwrap_or(0),
            ),
            queue_depth: c.depth.load(Ordering::Relaxed),
            rejected: c.rejected.load(Ordering::Relaxed),
            shed: c.shed.load(Ordering::Relaxed),
            worker_panics: c.worker_panics.load(Ordering::Relaxed),
            worker_respawns: c.worker_panics.load(Ordering::Relaxed),
            degradation_level: self.shared.degrade.level.load(Ordering::Relaxed),
            degraded_requests: c.degraded_requests.load(Ordering::Relaxed),
            batch_hist,
        }
    }

    /// The active degradation level (0 = serving the full budget).
    pub fn degradation_level(&self) -> u32 {
        self.shared.degrade.level.load(Ordering::Relaxed)
    }

    /// Stops the workers after the queued jobs finish and joins them.
    pub fn shutdown(mut self) {
        self.join_all();
    }

    fn join_all(&mut self) {
        // Set the flag while holding the queue mutex: a worker that has
        // seen an empty queue but not yet parked on the condvar holds the
        // lock through that window, so the store-then-notify cannot slip
        // between its check and its wait (the classic lost wakeup).
        {
            let _q = self
                .shared
                .queue
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            self.shared.shutdown.store(true, Ordering::SeqCst);
        }
        self.shared.available.notify_all();
        for h in self.workers.drain(..) {
            h.join().ok();
        }
    }
}

impl Drop for BatchServer {
    fn drop(&mut self) {
        self.join_all();
    }
}

/// What a worker's scoring touches: the batched-scoring scratch (hidden
/// activations and per-class owner masks — engine-independent, and all
/// zero between drains) and the buffers a drain's jobs are staged into,
/// so the hot loop's only steady-state allocation is the k-slot result.
struct Staging {
    scratch: BatchScratch,
    feats: Vec<SparseVector>,
    ks: Vec<usize>,
    replies: Vec<ReplyCallback>,
    predictions: Vec<Prediction>,
}

impl Staging {
    fn new(max_batch: usize) -> Self {
        Self {
            scratch: BatchScratch::default(),
            feats: Vec::with_capacity(max_batch),
            ks: Vec::with_capacity(max_batch),
            replies: Vec::with_capacity(max_batch),
            predictions: Vec::with_capacity(max_batch),
        }
    }
}

fn worker_loop(shared: &Shared, max_batch: usize) {
    let mut batch: Vec<Job> = Vec::with_capacity(max_batch);
    let mut st = Staging::new(max_batch);
    loop {
        // Drain up to max_batch jobs — and read the (engine, epoch) pair
        // — in one critical section. Drains are serialized by the queue
        // mutex and the epoch only ever grows, so dequeue order implies
        // epoch order: FIFO responses can never show an epoch rollback.
        let (engine, epoch);
        {
            let mut q = shared
                .queue
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            loop {
                if !q.is_empty() {
                    break;
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                q = shared
                    .available
                    .wait(q)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
            while batch.len() < max_batch {
                match q.pop_front() {
                    Some(job) => batch.push(job),
                    None => break,
                }
            }
            shared
                .counters
                .depth
                .store(q.len() as u64, Ordering::Relaxed);
            let (e, ep) = shared.handle.current();
            engine = e;
            epoch = ep;
        }

        let c = &shared.counters;
        c.batches.fetch_add(1, Ordering::Relaxed);
        c.batched_jobs
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        c.largest_batch
            .fetch_max(batch.len() as u64, Ordering::Relaxed);
        c.hist[hist_bucket(batch.len())].fetch_add(1, Ordering::Relaxed);
        let mut worst_wait = Duration::ZERO;
        for job in &batch {
            let wait = job.enqueued.elapsed();
            worst_wait = worst_wait.max(wait);
            c.total_queue_ns
                .fetch_add(wait.as_nanos() as u64, Ordering::Relaxed);
        }
        let level = shared.degrade.observe(worst_wait);

        // Deadline shed: jobs that already outwaited the limit answer
        // Overloaded without compute — the saved cycles go to jobs that
        // can still make their deadline.
        if let Some(limit) = shared.degrade.opts.shed_after {
            let mut i = 0;
            while i < batch.len() {
                if batch[i].enqueued.elapsed() > limit {
                    let job = batch.remove(i);
                    c.shed.fetch_add(1, Ordering::Relaxed);
                    (job.reply)(
                        Err(ServeError::Overloaded {
                            retry_after_secs: RETRY_AFTER_SECS,
                        }),
                        epoch,
                    );
                } else {
                    i += 1;
                }
            }
            if batch.is_empty() {
                continue;
            }
        }

        // One relaxed load when a plan is attached, one pointer check
        // when not: injected panics fire after dequeue, before scoring —
        // exactly where a real scoring bug would.
        let injected_panic = shared
            .faults
            .as_ref()
            .is_some_and(|f| f.take_worker_panic());

        // Stage the jobs into worker-owned buffers with the replies held
        // OUTSIDE the panic guard: whatever happens inside scoring,
        // every reply is answered — a dropped callback reply would hang
        // its HTTP connection forever.
        st.feats.clear();
        st.ks.clear();
        st.replies.clear();
        for job in batch.drain(..) {
            st.feats.push(job.features);
            st.ks.push(job.k);
            st.replies.push(job.reply);
        }
        let selector = engine.degraded_selector(level);

        // The workspace is checked out per drain (it belongs to the
        // drain's engine — a reload swaps the pool too); one pool-mutex
        // acquisition amortized over the whole batch.
        // Everything batch-sized routes through the fused owner-masked
        // path (a batch-of-1 is bit-identical to a solo predict).
        let mut ws = engine.checkout_workspace();
        st.predictions.clear();
        let scored = std::panic::catch_unwind(AssertUnwindSafe(|| {
            if injected_panic {
                // lint:allow(no-panic-paths): deliberate fault injection for
                // the panic-isolation tests, caught by the surrounding
                // catch_unwind.
                panic!("injected worker panic");
            }
            let whole = engine.predict_batch_in(
                &mut ws,
                &mut st.scratch,
                &st.feats,
                &st.ks,
                &mut st.predictions,
                &selector,
            );
            if whole.is_err() {
                // Jobs are validated at submit, so a batch is rejected
                // only when a hot reload swapped in a model some queued
                // jobs no longer fit. Each such job answers its own typed
                // error and leaves the batch; the rest score together.
                let mut i = 0;
                while i < st.feats.len() {
                    match engine.validate_request(&st.feats[i], st.ks[i]) {
                        Ok(()) => i += 1,
                        Err(e) => {
                            st.feats.remove(i);
                            st.ks.remove(i);
                            (st.replies.remove(i))(Err(e), epoch);
                        }
                    }
                }
                engine
                    .predict_batch_in(
                        &mut ws,
                        &mut st.scratch,
                        &st.feats,
                        &st.ks,
                        &mut st.predictions,
                        &selector,
                    )
                    // lint:allow(no-panic-paths): every job left just
                    // passed the validation predict_batch_in rejects on;
                    // if it ever failed, the guard answers WorkerPanicked.
                    .expect("validated jobs score");
            }
        }));
        if scored.is_err() {
            // Nothing the panic may have left mid-write is reused: the
            // workspace leaves the pool and the buffers are rebuilt. The
            // recovery is counted before any reply runs, so a caller
            // that reads the stats after its typed error sees it.
            ws.discard();
            c.worker_panics.fetch_add(1, Ordering::Relaxed);
            let panicked = std::mem::replace(&mut st, Staging::new(max_batch));
            for reply in panicked.replies {
                reply(Err(ServeError::WorkerPanicked), epoch);
            }
            continue;
        }
        c.requests
            .fetch_add(st.feats.len() as u64, Ordering::Relaxed);
        if level > 0 {
            c.degraded_requests
                .fetch_add(st.feats.len() as u64, Ordering::Relaxed);
        }
        for (reply, prediction) in st.replies.drain(..).zip(st.predictions.drain(..)) {
            reply(Ok(prediction), epoch);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{ServeOptions, ServingEngine};
    use slide_core::config::{LshLayerConfig, NetworkConfig};
    use slide_core::Network;
    use slide_data::synth::{generate, SyntheticConfig};

    fn tiny_server(options: BatchOptions) -> (BatchServer, slide_data::synth::SyntheticData) {
        let data = generate(&SyntheticConfig::tiny().with_seed(8));
        let config = NetworkConfig::builder(data.train.feature_dim(), data.train.label_dim())
            .hidden(16)
            .output_lsh(LshLayerConfig::simhash(3, 8))
            .seed(9)
            .build()
            .unwrap();
        let engine = ServingEngine::new(
            Network::new(config).unwrap(),
            ServeOptions::default().with_top_k(3),
        );
        (
            BatchServer::over_handle(Arc::new(EngineHandle::new(engine)), options),
            data,
        )
    }

    #[test]
    fn serves_queued_requests() {
        let (server, data) = tiny_server(BatchOptions::default());
        let handles: Vec<RequestHandle> = data
            .test
            .iter()
            .take(30)
            .map(|ex| server.submit(ex.features.clone()).unwrap())
            .collect();
        for h in handles {
            let p = h.wait().expect("answered");
            assert!(!p.topk.is_empty());
        }
        let stats = server.stats();
        assert_eq!(stats.requests, 30);
        assert!(stats.batches >= 1);
        assert!(stats.mean_batch >= 1.0);
        assert!(stats.largest_batch >= 1);
        // The histogram saw every drain.
        assert_eq!(stats.batch_hist.iter().sum::<u64>(), stats.batches);
        server.shutdown();
    }

    #[test]
    fn batches_aggregate_under_backlog() {
        // A group enqueue lands all its jobs under ONE queue lock, so
        // the single worker's next drain must pick them up together —
        // deterministic coalescing, no timing luck required.
        let (server, data) = tiny_server(BatchOptions::default().with_workers(1).with_max_batch(8));
        let (tx, rx) = std::sync::mpsc::channel();
        let jobs: Vec<_> = (0..8)
            .map(|i| {
                let tx = tx.clone();
                let cb: ReplyCallback = Box::new(move |result, _epoch| {
                    tx.send(result).ok();
                });
                (
                    data.test.examples()[i % data.test.len()].features.clone(),
                    3,
                    cb,
                )
            })
            .collect();
        server.submit_callbacks(jobs).unwrap();
        for _ in 0..8 {
            rx.recv().unwrap().expect("answered");
        }
        let stats = server.stats();
        assert_eq!(stats.requests, 8);
        // All 8 were queued atomically with max_batch 8: one fused drain.
        assert!(stats.largest_batch > 1, "no batching observed: {stats:?}");
        assert!(stats.largest_batch <= 8);
        // Multi-job drains land in buckets past the first.
        assert!(stats.batch_hist[1..].iter().sum::<u64>() >= 1);
    }

    #[test]
    fn concurrent_submitters_all_get_answers() {
        let (server, data) = tiny_server(BatchOptions::default().with_workers(3));
        let server = Arc::new(server);
        let data = Arc::new(data);
        let submitters: Vec<_> = (0..6)
            .map(|t| {
                let server = Arc::clone(&server);
                let data = Arc::clone(&data);
                std::thread::spawn(move || {
                    for i in 0..20 {
                        let ex = &data.test.examples()[(t * 20 + i) % data.test.len()];
                        let p = server.predict(ex.features.clone()).unwrap();
                        assert!(p.topk.len() <= 3);
                    }
                })
            })
            .collect();
        for s in submitters {
            s.join().unwrap();
        }
        assert_eq!(server.stats().requests, 120);
        assert_eq!(server.engine().stats().requests, 120);
    }

    #[test]
    fn shutdown_drains_then_stops() {
        let (server, data) = tiny_server(BatchOptions::default().with_workers(2));
        let handles: Vec<RequestHandle> = data
            .test
            .iter()
            .take(10)
            .map(|ex| server.submit(ex.features.clone()).unwrap())
            .collect();
        server.shutdown();
        // Workers drain the queue before exiting, so every handle resolves.
        let answered = handles.into_iter().filter_map(|h| h.wait().ok()).count();
        assert_eq!(answered, 10);
    }

    #[test]
    fn malformed_submissions_are_rejected_on_the_submitting_thread() {
        let (server, data) = tiny_server(BatchOptions::default());
        let dim = server.engine().input_dim();
        let bad = SparseVector::from_pairs([(dim as u32 + 5, 1.0)]);
        assert!(matches!(
            server.submit(bad),
            Err(ServeError::FeatureIndexOutOfRange { .. })
        ));
        assert!(matches!(
            server.submit_k(data.test.examples()[0].features.clone(), 0),
            Err(ServeError::InvalidTopK { .. })
        ));
        // The pool is still healthy after rejections.
        let p = server.predict(data.test.examples()[0].features.clone());
        assert!(p.is_ok());
    }

    #[test]
    fn bounded_queue_rejects_with_overloaded() {
        // No workers can be zero, so saturate a 1-worker pool through a
        // cap of 2 with callback jobs that are free to construct.
        let (server, data) = tiny_server(
            BatchOptions::default()
                .with_workers(1)
                .with_max_batch(4)
                .with_queue_cap(2),
        );
        let ex = data.test.examples()[0].features.clone();
        // Sequential fill without a draining race is not guaranteed (a
        // worker may pop between pushes), so drive until a rejection is
        // observed or the attempt budget proves the bound never fired.
        let mut saw_reject = false;
        let mut handles = Vec::new();
        for _ in 0..2000 {
            match server.submit(ex.clone()) {
                Ok(h) => handles.push(h),
                Err(ServeError::Overloaded { retry_after_secs }) => {
                    assert_eq!(retry_after_secs, RETRY_AFTER_SECS);
                    saw_reject = true;
                    break;
                }
                Err(other) => panic!("unexpected {other:?}"),
            }
        }
        assert!(saw_reject, "queue bound never rejected");
        assert!(server.stats().rejected >= 1);
        // Accepted jobs still answer.
        for h in handles {
            h.wait().unwrap();
        }
    }

    #[test]
    fn handle_mode_reports_the_epoch_that_answered() {
        let data = generate(&SyntheticConfig::tiny().with_seed(8));
        let config = NetworkConfig::builder(data.train.feature_dim(), data.train.label_dim())
            .hidden(16)
            .output_lsh(LshLayerConfig::simhash(3, 8))
            .seed(9)
            .build()
            .unwrap();
        let network = Network::new(config).unwrap();
        let bytes = network.to_snapshot_bytes();
        let handle = Arc::new(EngineHandle::new(ServingEngine::new(
            network,
            ServeOptions::default().with_top_k(3),
        )));
        let server = BatchServer::over_handle(Arc::clone(&handle), BatchOptions::default());

        let (tx, rx) = mpsc::channel();
        let tx2 = tx.clone();
        server
            .submit_callbacks(vec![(
                data.test.examples()[0].features.clone(),
                3,
                Box::new(move |r, epoch| {
                    tx.send((r.map(|p| p.topk.len()), epoch)).ok();
                }),
            )])
            .unwrap();
        let (r, epoch) = rx.recv_timeout(Duration::from_secs(30)).unwrap();
        assert!(r.is_ok());
        assert_eq!(epoch, 1);

        // After a reload, new jobs answer under the new epoch.
        handle.reload_from_bytes(&bytes).unwrap();
        server
            .submit_callbacks(vec![(
                data.test.examples()[0].features.clone(),
                3,
                Box::new(move |r, epoch| {
                    tx2.send((r.map(|p| p.topk.len()), epoch)).ok();
                }),
            )])
            .unwrap();
        let (r, epoch) = rx.recv_timeout(Duration::from_secs(30)).unwrap();
        assert!(r.is_ok());
        assert_eq!(epoch, 2);
        server.shutdown();
    }

    #[test]
    fn injected_panic_answers_typed_500_and_the_pool_self_heals() {
        let data = generate(&SyntheticConfig::tiny().with_seed(8));
        let config = NetworkConfig::builder(data.train.feature_dim(), data.train.label_dim())
            .hidden(16)
            .output_lsh(LshLayerConfig::simhash(3, 8))
            .seed(9)
            .build()
            .unwrap();
        let engine = ServingEngine::new(
            Network::new(config).unwrap(),
            ServeOptions::default().with_top_k(3),
        );
        let faults = Arc::new(FaultPlan::new());
        let server = BatchServer::over_handle_with_faults(
            Arc::new(EngineHandle::new(engine)),
            BatchOptions::default().with_workers(2),
            Arc::clone(&faults),
        );
        let ex = data.test.examples()[0].features.clone();

        // Three consecutive injected panics: each submission answers the
        // typed error (never hangs), and the worker recovers in place
        // each time.
        faults.inject_worker_panics(3);
        let mut panics_seen = 0;
        for _ in 0..200 {
            match server.predict(ex.clone()) {
                Err(ServeError::WorkerPanicked) => panics_seen += 1,
                Ok(_) => {}
                Err(other) => panic!("unexpected {other:?}"),
            }
            if panics_seen == 3 {
                break;
            }
        }
        assert_eq!(panics_seen, 3, "all injected panics must surface");
        assert_eq!(faults.panics_fired(), 3);

        // The pool recovered: a full pool's worth of requests all answer.
        for _ in 0..20 {
            server.predict(ex.clone()).expect("pool must self-heal");
        }
        assert_eq!(server.stats().worker_panics, 3);
        // Recoveries are counted before the typed error goes out, so a
        // point read is exact.
        assert_eq!(server.stats().worker_respawns, 3);
        server.shutdown();
    }

    #[test]
    fn a_reload_mismatch_answers_each_queued_job_under_the_new_model() {
        // Model A accepts every queued job; model B, swapped in while
        // the jobs wait, has half A's input width and fewer classes, so
        // the drain's batch no longer validates as a whole.
        let data = generate(&SyntheticConfig::tiny().with_seed(8));
        let network = |input_dim: usize, classes: usize| {
            let config = NetworkConfig::builder(input_dim, classes)
                .hidden(16)
                .output_lsh(LshLayerConfig::simhash(3, 8))
                .seed(9)
                .build()
                .unwrap();
            Network::new(config).unwrap()
        };
        let (dim_a, classes_a) = (data.train.feature_dim(), data.train.label_dim());
        let (dim_b, classes_b) = (dim_a / 2, 10);
        let b_bytes = network(dim_b, classes_b).to_snapshot_bytes();
        let options = ServeOptions::default().with_top_k(3);
        let reference = ServingEngine::from_snapshot_bytes(&b_bytes, options).unwrap();
        let handle = Arc::new(EngineHandle::new(ServingEngine::new(
            network(dim_a, classes_a),
            options,
        )));
        let server =
            BatchServer::over_handle(Arc::clone(&handle), BatchOptions::default().with_workers(1));

        // Park the only worker inside the first job's reply.
        let (entered_tx, entered_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let first: ReplyCallback = Box::new(move |result, epoch| {
            entered_tx.send((result.is_ok(), epoch)).ok();
            release_rx.recv().ok();
        });
        let narrow = |i: usize| {
            SparseVector::from_pairs(
                data.test.examples()[i]
                    .features
                    .iter()
                    .filter(|&(j, _)| (j as usize) < dim_b),
            )
        };
        server
            .submit_callbacks(vec![(narrow(0), 3, first)])
            .unwrap();
        assert_eq!(
            entered_rx.recv_timeout(Duration::from_secs(30)).unwrap(),
            (true, 1)
        );

        // Queued under A: valid jobs interleaved with jobs that B rejects
        // for a feature index past its input or a k past its classes.
        let wide = SparseVector::from_pairs([(1, 0.5), (dim_a as u32 - 1, 1.0)]);
        let jobs: Vec<(SparseVector, usize)> = vec![
            (narrow(1), 3),
            (wide.clone(), 3),
            (narrow(2), classes_b + 1),
            (narrow(3), 2),
            (narrow(4), classes_a),
            (wide, 1),
            (narrow(5), classes_b),
            (narrow(6), 3),
        ];
        let (tx, rx) = mpsc::channel();
        let callbacks = jobs
            .iter()
            .enumerate()
            .map(|(i, (features, k))| {
                let tx = tx.clone();
                let reply: ReplyCallback = Box::new(move |result, epoch| {
                    tx.send((i, result, epoch)).ok();
                });
                (features.clone(), *k, reply)
            })
            .collect();
        server.submit_callbacks(callbacks).unwrap();
        assert_eq!(handle.reload_from_bytes(&b_bytes).unwrap(), 2);
        release_tx.send(()).unwrap();

        let mut answered = vec![false; jobs.len()];
        for _ in 0..jobs.len() {
            let (i, result, epoch) = rx.recv_timeout(Duration::from_secs(30)).unwrap();
            answered[i] = true;
            assert_eq!(epoch, 2, "job {i}");
            let (features, k) = &jobs[i];
            if features.min_dim() > dim_b {
                assert!(
                    matches!(
                        result,
                        Err(ServeError::FeatureIndexOutOfRange { needed_dim, input_dim })
                            if needed_dim == dim_a && input_dim == dim_b
                    ),
                    "job {i}: {result:?}"
                );
            } else if *k > classes_b {
                assert!(
                    matches!(
                        result,
                        Err(ServeError::InvalidTopK { k: got, max }) if got == *k && max == classes_b
                    ),
                    "job {i}: {result:?}"
                );
            } else {
                let want = reference.predict_k(features, *k).unwrap();
                assert_eq!(
                    result.unwrap().topk.to_bits(),
                    want.topk.to_bits(),
                    "job {i}"
                );
            }
        }
        assert!(answered.iter().all(|&a| a));
        assert_eq!(server.stats().worker_panics, 0);
        server.shutdown();
    }

    #[test]
    fn the_drain_after_a_caught_panic_runs_on_a_freshly_built_workspace() {
        let data = generate(&SyntheticConfig::tiny().with_seed(8));
        let config = NetworkConfig::builder(data.train.feature_dim(), data.train.label_dim())
            .hidden(16)
            .output_lsh(LshLayerConfig::simhash(3, 8))
            .seed(9)
            .build()
            .unwrap();
        let handle = Arc::new(EngineHandle::new(ServingEngine::new(
            Network::new(config).unwrap(),
            ServeOptions::default().with_top_k(3),
        )));
        let faults = Arc::new(FaultPlan::new());
        let server = BatchServer::over_handle_with_faults(
            Arc::clone(&handle),
            BatchOptions::default().with_workers(1),
            Arc::clone(&faults),
        );
        let engine = handle.engine();
        let ex = data.test.examples()[0].features.clone();
        let want = engine.predict(&ex).unwrap().topk.to_bits();
        let built = engine.workspaces_created();

        // The one worker's drains reuse the pooled workspace...
        for _ in 0..3 {
            server.predict(ex.clone()).unwrap();
        }
        assert_eq!(engine.workspaces_created(), built);
        // ...until a drain panics: its workspace is dropped, the pool
        // builds exactly one more, and the recovered worker answers as
        // before.
        faults.inject_worker_panics(1);
        assert!(matches!(
            server.predict(ex.clone()),
            Err(ServeError::WorkerPanicked)
        ));
        for _ in 0..3 {
            assert_eq!(server.predict(ex.clone()).unwrap().topk.to_bits(), want);
        }
        assert_eq!(engine.workspaces_created(), built + 1);
        assert_eq!(server.stats().worker_respawns, 1);
        server.shutdown();
    }

    #[test]
    fn degradation_steps_up_under_pressure_and_recovers() {
        // Drive the hysteresis directly: waits above the high watermark
        // step the level up after the streak, waits below the low
        // watermark step it back down.
        let opts = DegradeOptions::default()
            .with_enabled(true)
            .with_watermarks(Duration::from_micros(10), Duration::from_micros(100))
            .with_max_level(2)
            .with_streaks(2, 3);
        let state = DegradeState::new(opts);
        let high = Duration::from_millis(1);
        let low = Duration::ZERO;
        assert_eq!(state.observe(high), 0, "one vote is not a streak");
        assert_eq!(state.observe(high), 1, "streak of 2 steps up");
        assert_eq!(state.observe(high), 1);
        assert_eq!(state.observe(high), 2, "second streak steps again");
        for _ in 0..10 {
            state.observe(high);
        }
        assert_eq!(
            state.level.load(Ordering::Relaxed),
            2,
            "capped at max_level"
        );
        // Recovery needs the longer down-streak.
        assert_eq!(state.observe(low), 2);
        assert_eq!(state.observe(low), 2);
        assert_eq!(state.observe(low), 1, "streak of 3 steps down");
        assert_eq!(state.observe(low), 1);
        assert_eq!(state.observe(low), 1);
        assert_eq!(state.observe(low), 0);
        // A mid-band wait holds the level and resets streaks.
        let mid = Duration::from_micros(50);
        assert_eq!(state.observe(high), 0);
        assert_eq!(state.observe(mid), 0);
        assert_eq!(
            state.observe(high),
            0,
            "streak was reset by the mid-band wait"
        );
        // Disabled state never degrades.
        let off = DegradeState::new(DegradeOptions::default());
        assert_eq!(off.observe(Duration::from_secs(5)), 0);
    }

    #[test]
    fn expired_jobs_are_shed_with_overloaded() {
        // shed_after = 0 means every job that waited at all is shed, and
        // must answer Overloaded without compute.
        let data = generate(&SyntheticConfig::tiny().with_seed(8));
        let config = NetworkConfig::builder(data.train.feature_dim(), data.train.label_dim())
            .hidden(16)
            .output_lsh(LshLayerConfig::simhash(3, 8))
            .seed(9)
            .build()
            .unwrap();
        let engine = ServingEngine::new(
            Network::new(config).unwrap(),
            ServeOptions::default().with_top_k(3),
        );
        let server = BatchServer::over_handle(
            Arc::new(EngineHandle::new(engine)),
            BatchOptions::default()
                .with_workers(1)
                .with_degrade(DegradeOptions::default().with_shed_after(Some(Duration::ZERO))),
        );
        let ex = data.test.examples()[0].features.clone();
        let mut shed = 0;
        for _ in 0..50 {
            match server.predict(ex.clone()) {
                Err(ServeError::Overloaded { retry_after_secs }) => {
                    assert_eq!(retry_after_secs, RETRY_AFTER_SECS);
                    shed += 1;
                }
                Ok(_) => {}
                Err(other) => panic!("unexpected {other:?}"),
            }
        }
        assert!(shed > 0, "zero-deadline shed never fired");
        assert_eq!(server.stats().shed, shed);
        server.shutdown();
    }

    #[test]
    fn dead_worker_pool_surfaces_as_typed_shutdown_error() {
        // A handle whose reply sender is gone without an answer models a
        // dead pool: wait() must return the typed error, not hang or
        // panic.
        let (tx, rx) = mpsc::channel::<Result<Prediction, ServeError>>();
        drop(tx);
        let handle = RequestHandle { rx };
        assert!(matches!(handle.wait(), Err(ServeError::ServerShutdown)));
    }
}
