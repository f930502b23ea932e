//! An event-driven HTTP/1.1 front-end with cross-connection
//! micro-batching.
//!
//! The old thread-per-connection server handled every connection in
//! isolation: singles from different clients never shared a fused batch
//! row pass, and concurrency was capped at the thread count. This server
//! inverts that. An acceptor thread hands nonblocking connections to a
//! small set of event-loop threads (a dependency-free epoll
//! readiness loop — [`crate::net`]); each connection is a state machine
//! over an incremental parser ([`crate::conn`]); and every parsed
//! `POST /v1/predict` input becomes a job in ONE shared admission queue
//! draining through the micro-batching [`BatchServer`]. Under concurrent
//! load, singles from *different connections* coalesce into one fused
//! (quantized, when active) batch row pass — and because the batch
//! kernels accumulate each example in a fixed order independent of batch
//! composition, a coalesced answer is bit-identical to the same request
//! answered alone. HTTP batch requests ride the same queue, one job per
//! input, so they coalesce with the singles instead of bypassing them.
//!
//! The transport protects itself: a bounded admission queue rejects with
//! `429` + `Retry-After` before any compute (the connection stays open),
//! a per-request timeout cuts off slow-loris writers, an idle sweep
//! closes quiet keep-alive connections, and shutdown drains in-flight
//! requests before closing. The server owns nothing but transport — it
//! forwards each [`ServeError`]'s *own* status mapping and lets hot
//! reloads swap the engine under it with zero request downtime.
//!
//! Routes (`v1` wire schema):
//!
//! * `POST /v1/predict` — single or batch sparse inputs;
//! * `GET  /healthz`    — liveness + current model epoch;
//! * `GET  /readyz`     — readiness: `503` while draining or after
//!   [`READY_MAX_RELOAD_FAILURES`] consecutive snapshot-reload failures
//!   (the last-good engine still answers; routing should look away);
//! * `GET  /v1/stats`   — engine, reload, transport, and admission-queue
//!   counters (queue depth, coalesced-batch histogram, 429/timeout
//!   counts);
//! * `POST /v1/reload`  — `{"path": "..."}`: load a snapshot file and
//!   atomically swap it in (operator-trusted, like the rest of the
//!   unauthenticated API).
//!
//! The same transport core — acceptor, event loops, parser, sweeps,
//! drain — also fronts the scatter-gather [`crate::router::Router`]:
//! only the route table behind it differs, so a router enforces exactly
//! the limits, timeouts and error answers of a single box.

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::batch::{
    BatchOptions, BatchServer, DegradeOptions, ReplyCallback, ServerStats, RETRY_AFTER_SECS,
};
use crate::conn::{ParseStatus, ParsedRequest, RequestParser};
use crate::engine::Prediction;
use crate::error::ServeError;
use crate::fault::FaultPlan;
use crate::handle::EngineHandle;
use crate::json;
use crate::net::{raw_fd, Event, Poller, WakeReceiver, Waker};
use crate::router::Fleet;
use crate::wire;

/// Transport limits and timeouts for an [`HttpServer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HttpOptions {
    /// Largest accepted request body.
    pub max_body_bytes: usize,
    /// How long an idle keep-alive connection may sit between requests
    /// before the server closes it.
    pub read_timeout: Duration,
    /// How long a single request may take to arrive once its first byte
    /// has been read (the slow-loris bound): a connection that dribbles
    /// header bytes is answered `400` and closed.
    pub request_timeout: Duration,
    /// Most simultaneous connections; beyond it, new connections are
    /// answered `429` and closed immediately.
    pub max_connections: usize,
    /// Event-loop threads. One loop comfortably drives thousands of
    /// connections; raise it only on many-core machines where the loop
    /// itself saturates.
    pub event_loops: usize,
    /// Worker threads draining the shared admission queue.
    pub workers: usize,
    /// Most jobs one worker drains into a single fused batch.
    pub max_batch: usize,
    /// Admission-queue bound: jobs beyond it are rejected with `429` +
    /// `Retry-After` before any compute.
    pub queue_capacity: usize,
    /// How long shutdown waits for in-flight requests to finish before
    /// force-closing connections.
    pub drain_timeout: Duration,
    /// Load-adaptive degradation policy for the admission queue
    /// (disabled by default — see [`DegradeOptions`]). When a request is
    /// answered under a shrunken budget, the response carries an
    /// `X-Slide-Degraded` header with the level.
    pub degrade: DegradeOptions,
}

impl Default for HttpOptions {
    fn default() -> Self {
        Self {
            max_body_bytes: 8 << 20,
            read_timeout: Duration::from_secs(30),
            request_timeout: Duration::from_secs(10),
            max_connections: 16_384,
            event_loops: 1,
            workers: 2,
            max_batch: 32,
            queue_capacity: 1024,
            drain_timeout: Duration::from_secs(5),
            degrade: DegradeOptions::default(),
        }
    }
}

/// Consecutive snapshot-reload failures after which `/readyz` reports
/// not-ready: the serving engine is still the last-good model (requests
/// keep answering), but an operator's rollout should stop routing new
/// traffic here until a good snapshot lands.
pub const READY_MAX_RELOAD_FAILURES: u64 = 3;

/// Most responses one connection may have in flight (pipelining bound);
/// past it, the loop stops reading from that connection until responses
/// drain.
const PIPELINE_CAP: usize = 64;

/// Largest number of unread request bytes drained before an error close.
const DRAIN_CAP_BYTES: usize = 1 << 20;

/// The event loop's tick: timeout sweeps and shutdown checks run at
/// least this often even with no socket activity.
const SWEEP_INTERVAL: Duration = Duration::from_millis(250);

/// Transport-level counters of a running [`HttpServer`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HttpStats {
    /// Connections accepted.
    pub connections: u64,
    /// Connections currently open.
    pub current_connections: u64,
    /// Requests parsed (any outcome).
    pub requests: u64,
    /// Responses with a 2xx status.
    pub responses_2xx: u64,
    /// Responses with a 4xx status (429s included).
    pub responses_4xx: u64,
    /// Responses with a 5xx status.
    pub responses_5xx: u64,
    /// Backpressure responses (admission queue or connection limit).
    pub responses_429: u64,
    /// Connections cut by the idle or slow-loris timeout.
    pub timeouts: u64,
}

#[derive(Default)]
struct Counters {
    connections: AtomicU64,
    current_connections: AtomicU64,
    requests: AtomicU64,
    responses_2xx: AtomicU64,
    responses_4xx: AtomicU64,
    responses_5xx: AtomicU64,
    responses_429: AtomicU64,
    timeouts: AtomicU64,
}

/// What answers the requests a transport parses.
pub(crate) enum Backend {
    /// One engine behind the shared micro-batching admission queue.
    Engine {
        handle: Arc<EngineHandle>,
        batch: Arc<BatchServer>,
    },
    /// A scatter-gather front over shard servers.
    Router(Arc<Fleet>),
}

/// A router's answer to one request.
pub(crate) enum Answer {
    /// Answered on the event loop.
    Now(u16, String),
    /// Blocking work, run on a one-off thread (see [`Conn::defer`]).
    Later(Box<dyn FnOnce() -> (u16, String) + Send>),
}

struct Shared {
    backend: Backend,
    options: HttpOptions,
    shutdown: AtomicBool,
    counters: Counters,
}

impl Shared {
    fn stats(&self) -> HttpStats {
        let c = &self.counters;
        HttpStats {
            connections: c.connections.load(Ordering::Relaxed),
            current_connections: c.current_connections.load(Ordering::Relaxed),
            requests: c.requests.load(Ordering::Relaxed),
            responses_2xx: c.responses_2xx.load(Ordering::Relaxed),
            responses_4xx: c.responses_4xx.load(Ordering::Relaxed),
            responses_5xx: c.responses_5xx.load(Ordering::Relaxed),
            responses_429: c.responses_429.load(Ordering::Relaxed),
            timeouts: c.timeouts.load(Ordering::Relaxed),
        }
    }
}

/// A message posted into an event loop's inbox from another thread.
enum Msg {
    /// A freshly accepted connection from the acceptor.
    Conn(TcpStream),
    /// One predict job's answer from a batch worker.
    Done {
        conn: u64,
        req: u64,
        index: usize,
        result: Box<Result<Prediction, ServeError>>,
        epoch: u64,
    },
    /// A deferred answer finished on its one-off thread.
    Deferred {
        conn: u64,
        req: u64,
        status: u16,
        body: String,
    },
}

/// Cross-thread mailbox of one event loop: batch-worker callbacks and
/// the acceptor post here and wake the loop's poller.
struct Inbox {
    queue: Mutex<Vec<Msg>>,
    waker: Waker,
}

impl Inbox {
    fn post(&self, msg: Msg) {
        self.queue
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(msg);
        self.waker.wake();
    }
}

/// Everything an event loop (and its connections) needs to dispatch.
struct LoopCtx {
    shared: Arc<Shared>,
    inbox: Arc<Inbox>,
}

/// The running server: an acceptor thread, `event_loops` readiness-loop
/// threads, and the admission queue's worker pool.
/// [`HttpServer::shutdown`] (or drop) stops accepting, drains in-flight
/// requests, and joins all of it.
pub struct HttpServer {
    // Declared first so it drops first: the event loops are joined
    // before the last `batch` reference (below) joins the worker pool.
    transport: Transport,
    handle: Arc<EngineHandle>,
    batch: Arc<BatchServer>,
}

impl std::fmt::Debug for HttpServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HttpServer")
            .field("addr", &self.local_addr())
            .finish()
    }
}

impl HttpServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// serving `handle` in background threads.
    ///
    /// # Errors
    ///
    /// Returns the bind error, or the poller-creation error.
    pub fn serve<A: ToSocketAddrs>(
        handle: Arc<EngineHandle>,
        addr: A,
        options: HttpOptions,
    ) -> std::io::Result<Self> {
        Self::serve_inner(handle, addr, options, None)
    }

    /// [`HttpServer::serve`] with a fault-injection plan wired into the
    /// worker pool and snapshot publisher, for chaos drills. The plan is
    /// inert (single relaxed load per drain) until armed.
    ///
    /// # Errors
    ///
    /// Same as [`HttpServer::serve`].
    pub fn serve_with_faults<A: ToSocketAddrs>(
        handle: Arc<EngineHandle>,
        addr: A,
        options: HttpOptions,
        faults: Arc<FaultPlan>,
    ) -> std::io::Result<Self> {
        Self::serve_inner(handle, addr, options, Some(faults))
    }

    fn serve_inner<A: ToSocketAddrs>(
        handle: Arc<EngineHandle>,
        addr: A,
        options: HttpOptions,
        faults: Option<Arc<FaultPlan>>,
    ) -> std::io::Result<Self> {
        let batch_options = BatchOptions::default()
            .with_workers(options.workers)
            .with_max_batch(options.max_batch)
            .with_queue_cap(options.queue_capacity)
            .with_degrade(options.degrade);
        let batch = Arc::new(match faults {
            Some(plan) => {
                BatchServer::over_handle_with_faults(Arc::clone(&handle), batch_options, plan)
            }
            None => BatchServer::over_handle(Arc::clone(&handle), batch_options),
        });
        let backend = Backend::Engine {
            handle: Arc::clone(&handle),
            batch: Arc::clone(&batch),
        };
        Ok(Self {
            transport: Transport::start(addr, options, backend)?,
            handle,
            batch,
        })
    }

    /// The bound address (resolves the actual ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.transport.local_addr()
    }

    /// The engine handle this server fronts.
    pub fn handle(&self) -> &Arc<EngineHandle> {
        &self.handle
    }

    /// A snapshot of the transport counters.
    pub fn stats(&self) -> HttpStats {
        self.transport.stats()
    }

    /// A snapshot of the shared admission queue's batching statistics
    /// (coalesced batch sizes, queue depth, rejections).
    pub fn batch_stats(&self) -> ServerStats {
        self.batch.stats()
    }

    /// Stops accepting, drains in-flight requests (bounded by
    /// [`HttpOptions::drain_timeout`]), closes connections, and joins
    /// every thread.
    pub fn shutdown(mut self) {
        self.transport.stop();
    }
}

/// The one transport core behind [`HttpServer`] and
/// [`crate::router::Router`]: an acceptor thread and `event_loops`
/// readiness-loop threads serving one [`Backend`]. Dropping it stops
/// accepting, drains in-flight requests and joins every thread.
pub(crate) struct Transport {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<std::thread::JoinHandle<()>>,
    loops: Vec<std::thread::JoinHandle<()>>,
    inboxes: Vec<Arc<Inbox>>,
}

impl Transport {
    /// Binds `addr` and starts serving `backend` in background threads.
    pub(crate) fn start<A: ToSocketAddrs>(
        addr: A,
        options: HttpOptions,
        backend: Backend,
    ) -> std::io::Result<Self> {
        assert!(options.event_loops > 0, "event_loops must be positive");
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        // Best-effort: the 10K-connection target needs the fd budget.
        // The listener + loops + wakers cost a handful on top.
        crate::net::raise_nofile_limit(options.max_connections as u64 + 64).ok();
        let shared = Arc::new(Shared {
            backend,
            options,
            shutdown: AtomicBool::new(false),
            counters: Counters::default(),
        });
        // Create every poller before spawning anything, so a failure
        // (e.g. the descriptor limit) leaves no threads behind.
        let mut plumbing = Vec::new();
        for _ in 0..options.event_loops {
            let poller = Poller::new()?;
            let (waker, receiver) = Waker::pair()?;
            plumbing.push((poller, receiver, waker));
        }
        let mut loops = Vec::new();
        let mut inboxes = Vec::new();
        for (poller, receiver, waker) in plumbing {
            let inbox = Arc::new(Inbox {
                queue: Mutex::new(Vec::new()),
                waker,
            });
            let ctx = LoopCtx {
                shared: Arc::clone(&shared),
                inbox: Arc::clone(&inbox),
            };
            loops.push(std::thread::spawn(move || {
                event_loop(&ctx, poller, &receiver)
            }));
            inboxes.push(inbox);
        }
        let accept_shared = Arc::clone(&shared);
        let accept_inboxes = inboxes.clone();
        let accept =
            std::thread::spawn(move || accept_loop(&accept_shared, &listener, &accept_inboxes));
        Ok(Self {
            shared,
            addr,
            accept: Some(accept),
            loops,
            inboxes,
        })
    }

    pub(crate) fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    pub(crate) fn stats(&self) -> HttpStats {
        self.shared.stats()
    }

    /// Stops accepting, drains in-flight requests (bounded by
    /// [`HttpOptions::drain_timeout`]), closes connections, and joins the
    /// acceptor and the event loops. Idempotent.
    pub(crate) fn stop(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the blocking accept() with a throwaway connection. A
        // wildcard bind address (0.0.0.0 / ::) is not connectable on
        // every platform, so aim the wake-up at loopback on the bound
        // port instead.
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake.ip() {
                std::net::IpAddr::V4(_) => std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST),
                std::net::IpAddr::V6(_) => std::net::IpAddr::V6(std::net::Ipv6Addr::LOCALHOST),
            });
        }
        TcpStream::connect(wake).ok();
        if let Some(t) = self.accept.take() {
            t.join().ok();
        }
        // The loops notice the flag, drain their connections, and exit.
        for inbox in &self.inboxes {
            inbox.waker.wake();
        }
        for t in self.loops.drain(..) {
            t.join().ok();
        }
    }
}

impl Drop for Transport {
    fn drop(&mut self) {
        self.stop();
    }
}

// ---------------------------------------------------------------------
// Acceptor.

fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener, inboxes: &[Arc<Inbox>]) {
    let mut next = 0usize;
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let c = &shared.counters;
        if c.current_connections.load(Ordering::Relaxed) >= shared.options.max_connections as u64 {
            reject_connection(c, stream);
            continue;
        }
        c.connections.fetch_add(1, Ordering::Relaxed);
        c.current_connections.fetch_add(1, Ordering::Relaxed);
        stream.set_nodelay(true).ok();
        if stream.set_nonblocking(true).is_err() {
            c.current_connections.fetch_sub(1, Ordering::Relaxed);
            continue;
        }
        inboxes[next].post(Msg::Conn(stream));
        next = (next + 1) % inboxes.len();
    }
}

/// Over the connection limit: a minimal blocking `429` so the client
/// learns *why* instead of seeing an unexplained reset.
fn reject_connection(counters: &Counters, mut stream: TcpStream) {
    let e = ServeError::Overloaded {
        retry_after_secs: RETRY_AFTER_SECS,
    };
    let bytes = render_response(
        counters,
        e.http_status(),
        &wire::encode_error_body(&e),
        false,
        Some(RETRY_AFTER_SECS),
        0,
    );
    stream.set_write_timeout(Some(Duration::from_secs(1))).ok();
    stream.write_all(&bytes).ok();
}

// ---------------------------------------------------------------------
// Event loop.

const WAKER_TOKEN: u64 = 0;

fn event_loop(ctx: &LoopCtx, mut poller: Poller, receiver: &WakeReceiver) {
    if poller
        .register(receiver.fd(), WAKER_TOKEN, true, false)
        .is_err()
    {
        return;
    }
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token: u64 = WAKER_TOKEN + 1;
    let mut events: Vec<Event> = Vec::new();
    let mut msgs: Vec<Msg> = Vec::new();
    let mut ids: Vec<u64> = Vec::new();
    let mut drain_deadline: Option<Instant> = None;
    loop {
        events.clear();
        if poller.wait(&mut events, Some(SWEEP_INTERVAL)).is_err() {
            break;
        }
        receiver.drain();

        // Cross-thread messages first: job completions free slots that
        // this tick's writable events can then flush.
        msgs.clear();
        {
            let mut q = ctx
                .inbox
                .queue
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            msgs.append(&mut q);
        }
        for msg in msgs.drain(..) {
            match msg {
                Msg::Conn(stream) => {
                    let token = next_token;
                    next_token += 1;
                    let fd = raw_fd(&stream);
                    if poller.register(fd, token, true, false).is_err() {
                        ctx.shared
                            .counters
                            .current_connections
                            .fetch_sub(1, Ordering::Relaxed);
                        continue; // dropped: accept-level failure
                    }
                    let parser = RequestParser::new(ctx.shared.options.max_body_bytes);
                    conns.insert(token, Conn::new(stream, token, parser));
                }
                Msg::Done {
                    conn,
                    req,
                    index,
                    result,
                    epoch,
                } => {
                    // The connection may have died while the job was in
                    // flight; its answer just evaporates.
                    if let Some(c) = conns.get_mut(&conn) {
                        let keep = c.apply_done(req, index, *result, epoch, ctx);
                        settle(&mut poller, &mut conns, &ctx.shared, conn, keep);
                    }
                }
                Msg::Deferred {
                    conn,
                    req,
                    status,
                    body,
                } => {
                    if let Some(c) = conns.get_mut(&conn) {
                        let keep = c.apply_deferred(req, status, &body, ctx);
                        settle(&mut poller, &mut conns, &ctx.shared, conn, keep);
                    }
                }
            }
        }

        for ev in &events {
            if ev.token == WAKER_TOKEN {
                continue;
            }
            if let Some(c) = conns.get_mut(&ev.token) {
                let keep = c.on_event(ev.readable, ev.writable, ctx);
                settle(&mut poller, &mut conns, &ctx.shared, ev.token, keep);
            }
        }

        // Timeout sweep.
        let now = Instant::now();
        ids.clear();
        ids.extend(conns.keys().copied());
        for &id in &ids {
            if let Some(c) = conns.get_mut(&id) {
                let keep = c.sweep(now, ctx);
                settle(&mut poller, &mut conns, &ctx.shared, id, keep);
            }
        }

        // Graceful drain: stop reading new requests, finish what's
        // pending, close as connections empty out, force-close at the
        // deadline.
        if ctx.shared.shutdown.load(Ordering::SeqCst) {
            if drain_deadline.is_none() {
                drain_deadline = Some(now + ctx.shared.options.drain_timeout);
                ids.clear();
                ids.extend(conns.keys().copied());
                for &id in &ids {
                    if let Some(c) = conns.get_mut(&id) {
                        c.stop_reading = true;
                        let keep = !c.is_quiescent();
                        settle(&mut poller, &mut conns, &ctx.shared, id, keep);
                    }
                }
            }
            if conns.is_empty() {
                break;
            }
            if drain_deadline.is_some_and(|d| now >= d) {
                break;
            }
        }
    }
    // Whatever is left (force-closed on drain timeout, or a poller
    // failure) still decrements the gauge.
    for (_, c) in conns.drain() {
        poller.deregister(raw_fd(&c.stream)).ok();
        ctx.shared
            .counters
            .current_connections
            .fetch_sub(1, Ordering::Relaxed);
    }
}

/// Applies a connection's post-event fate: close it, or sync its
/// read/write interest with the poller.
fn settle(
    poller: &mut Poller,
    conns: &mut HashMap<u64, Conn>,
    shared: &Shared,
    id: u64,
    keep: bool,
) {
    let Some(c) = conns.get_mut(&id) else { return };
    if !keep {
        poller.deregister(raw_fd(&c.stream)).ok();
        // Decrement before the drop closes the socket, so a client that
        // sees EOF never reads a stale gauge.
        shared
            .counters
            .current_connections
            .fetch_sub(1, Ordering::Relaxed);
        conns.remove(&id);
        return;
    }
    let want = (c.want_read(), c.want_write());
    if want != (c.reg_read, c.reg_write) {
        poller.modify(raw_fd(&c.stream), id, want.0, want.1).ok();
        (c.reg_read, c.reg_write) = want;
    }
}

// ---------------------------------------------------------------------
// Per-connection state machine.

/// One queued response slot. Responses go out strictly in request order
/// (HTTP/1.1 pipelining), so a slot holds either a finished response or
/// the aggregation state of one still being answered.
enum Slot {
    /// A predict request waiting for its jobs to come back from the
    /// admission queue.
    Predict(PredictSlot),
    /// A deferred answer (a reload, a router fan-out) being computed on
    /// its one-off thread.
    Deferred { req: u64, keep_alive: bool },
    /// A rendered response ready to write.
    Ready {
        bytes: Vec<u8>,
        keep_alive: bool,
        error_close: bool,
    },
}

struct PredictSlot {
    req: u64,
    expected: usize,
    got: usize,
    predictions: Vec<Option<Prediction>>,
    /// The newest epoch that answered any of this request's jobs (for a
    /// single-input request this is exact; a multi-input request racing
    /// a hot reload reports the newest model that contributed).
    epoch: u64,
    /// First job error wins; the whole request answers with it.
    error: Option<ServeError>,
    keep_alive: bool,
}

struct Conn {
    stream: TcpStream,
    token: u64,
    parser: RequestParser,
    /// Bytes read but not yet consumed by the parser (pipelined requests
    /// beyond [`PIPELINE_CAP`] wait here).
    inbuf: Vec<u8>,
    out: Vec<u8>,
    out_pos: usize,
    pending: VecDeque<Slot>,
    next_req: u64,
    last_activity: Instant,
    /// When the currently-arriving request started (slow-loris clock).
    req_started: Option<Instant>,
    /// The server decided to parse no more bytes from this connection
    /// (error close pending, EOF handled, or shutdown drain).
    stop_reading: bool,
    /// The peer half-closed its write side (EOF observed).
    read_closed: bool,
    /// The response currently in `out` closes the connection once
    /// flushed.
    close_after_flush: bool,
    /// That close is an error close: half-close write and drain reads so
    /// the kernel doesn't RST the in-flight error response away.
    error_close: bool,
    /// Post-error drain mode, counting drained bytes toward
    /// [`DRAIN_CAP_BYTES`].
    draining: Option<usize>,
    reg_read: bool,
    reg_write: bool,
}

impl Conn {
    fn new(stream: TcpStream, token: u64, parser: RequestParser) -> Self {
        Self {
            stream,
            token,
            parser,
            inbuf: Vec::new(),
            out: Vec::new(),
            out_pos: 0,
            pending: VecDeque::new(),
            next_req: 0,
            last_activity: Instant::now(),
            req_started: None,
            stop_reading: false,
            read_closed: false,
            close_after_flush: false,
            error_close: false,
            draining: None,
            reg_read: true,
            reg_write: false,
        }
    }

    fn want_read(&self) -> bool {
        self.draining.is_some()
            || (!self.stop_reading && !self.read_closed && self.pending.len() < PIPELINE_CAP)
    }

    fn want_write(&self) -> bool {
        self.out_pos < self.out.len()
    }

    /// Nothing left to answer or flush: during shutdown drain this
    /// connection can close.
    fn is_quiescent(&self) -> bool {
        self.pending.is_empty() && self.out_pos >= self.out.len() && self.draining.is_none()
    }

    fn on_event(&mut self, readable: bool, writable: bool, ctx: &LoopCtx) -> bool {
        if readable && !self.on_readable(ctx) {
            return false;
        }
        if (writable || readable) && !self.try_flush(ctx) {
            return false;
        }
        true
    }

    fn on_readable(&mut self, ctx: &LoopCtx) -> bool {
        self.last_activity = Instant::now();
        if let Some(drained) = self.draining {
            return self.drain_reads(drained);
        }
        if self.stop_reading || self.read_closed {
            // A level-triggered event raced an interest change; ignore.
            return true;
        }
        let mut buf = [0u8; 16 << 10];
        loop {
            match self.stream.read(&mut buf) {
                Ok(0) => {
                    self.read_closed = true;
                    break;
                }
                Ok(n) => {
                    self.inbuf.extend_from_slice(&buf[..n]);
                    // Bound one tick's buffering: past the cap the
                    // kernel's socket buffer holds the rest (level-
                    // triggered readiness re-fires).
                    if self.inbuf.len() >= DRAIN_CAP_BYTES {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
        self.feed(ctx);
        if self.read_closed && self.inbuf.is_empty() && !self.stop_reading {
            match self.parser.eof_error() {
                // Clean between-requests EOF: finish what's pending,
                // then close.
                None => {
                    self.stop_reading = true;
                }
                Some(what) => {
                    self.push_error_close(
                        ctx,
                        &ServeError::BadRequest {
                            message: what.into(),
                        },
                    );
                }
            }
        }
        true
    }

    /// Post-error read drain (see [`Conn::push_error_close`]): consume
    /// the client's unread request bytes until EOF or the cap, so the
    /// kernel doesn't RST away the error response. Returns `false` when
    /// the connection is done.
    fn drain_reads(&mut self, mut drained: usize) -> bool {
        let mut sink = [0u8; 8 << 10];
        loop {
            match self.stream.read(&mut sink) {
                Ok(0) => return false,
                Ok(n) => {
                    drained += n;
                    if drained >= DRAIN_CAP_BYTES {
                        return false;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
        self.draining = Some(drained);
        true
    }

    /// Runs the incremental parser over the buffered bytes, dispatching
    /// every complete request (bounded by [`PIPELINE_CAP`] in-flight
    /// responses).
    fn feed(&mut self, ctx: &LoopCtx) {
        while !self.stop_reading && !self.inbuf.is_empty() && self.pending.len() < PIPELINE_CAP {
            let (consumed, status) = self.parser.advance(&self.inbuf);
            self.inbuf.drain(..consumed);
            match status {
                ParseStatus::NeedMore => break,
                ParseStatus::Request(req) => {
                    self.req_started = None;
                    self.dispatch(*req, ctx);
                }
                ParseStatus::Malformed(what) => {
                    self.push_error_close(
                        ctx,
                        &ServeError::BadRequest {
                            message: what.into(),
                        },
                    );
                    return;
                }
                ParseStatus::TooLarge => {
                    self.push_error_close(
                        ctx,
                        &ServeError::PayloadTooLarge {
                            limit: ctx.shared.options.max_body_bytes,
                        },
                    );
                    return;
                }
            }
        }
        // Start (or clear) the slow-loris clock: it runs while a request
        // is partially arrived.
        if self.parser.is_idle() {
            self.req_started = None;
        } else if self.req_started.is_none() {
            self.req_started = Some(Instant::now());
        }
    }

    /// Queues a terminal error response: answer, then close with the
    /// half-close + bounded-drain courtesy.
    fn push_error_close(&mut self, ctx: &LoopCtx, e: &ServeError) {
        let bytes = render_response(
            &ctx.shared.counters,
            e.http_status(),
            &wire::encode_error_body(e),
            false,
            retry_after(e),
            0,
        );
        self.pending.push_back(Slot::Ready {
            bytes,
            keep_alive: false,
            error_close: true,
        });
        self.stop_reading = true;
        self.inbuf.clear();
        self.req_started = None;
    }

    /// Queues a normal (route-level) response; route errors keep the
    /// connection alive — only transport-level failures close it.
    fn push_response(&mut self, ctx: &LoopCtx, status: u16, body: &str, keep_alive: bool) {
        let slot = ready_slot(ctx, status, body, keep_alive, None, 0);
        self.pending.push_back(slot);
    }

    fn push_err(&mut self, ctx: &LoopCtx, e: &ServeError, keep_alive: bool) {
        let body = wire::encode_error_body(e);
        let slot = ready_slot(ctx, e.http_status(), &body, keep_alive, retry_after(e), 0);
        self.pending.push_back(slot);
    }

    fn dispatch(&mut self, req: ParsedRequest, ctx: &LoopCtx) {
        ctx.shared.counters.requests.fetch_add(1, Ordering::Relaxed);
        let keep_alive = req.keep_alive && !ctx.shared.shutdown.load(Ordering::SeqCst);
        let (handle, batch) = match &ctx.shared.backend {
            Backend::Engine { handle, batch } => (handle, batch),
            Backend::Router(fleet) => {
                return match fleet.route(&req.method, &req.path, req.body, || ctx.shared.stats()) {
                    Answer::Now(status, body) => self.push_response(ctx, status, &body, keep_alive),
                    Answer::Later(work) => self.defer(ctx, keep_alive, work),
                };
            }
        };
        // Probes and load balancers append query strings
        // (`/healthz?t=1`); routing matches on the path alone.
        let path = req.path.split('?').next().unwrap_or("");
        match (req.method.as_str(), path) {
            ("GET", "/healthz") => {
                let body = format!(
                    "{{\"api_version\":{},\"status\":\"ok\",\"epoch\":{}}}",
                    wire::API_VERSION,
                    handle.epoch()
                );
                self.push_response(ctx, 200, &body, keep_alive);
            }
            ("GET", "/readyz") => {
                // Readiness is routing advice, distinct from /healthz
                // liveness: a draining server and one whose snapshot
                // source keeps failing both still *answer* (last-good
                // engine), but should stop receiving new traffic.
                let draining = ctx.shared.shutdown.load(Ordering::SeqCst);
                let failures = handle.consecutive_reload_failures();
                let reason = if draining {
                    Some("draining")
                } else if failures >= READY_MAX_RELOAD_FAILURES {
                    Some("reload_failures")
                } else {
                    None
                };
                let ready = reason.is_none();
                let body = format!(
                    "{{\"api_version\":{},\"ready\":{},\"epoch\":{},\
                     \"consecutive_reload_failures\":{}{}}}",
                    wire::API_VERSION,
                    ready,
                    handle.epoch(),
                    failures,
                    reason
                        .map(|r| format!(",\"reason\":\"{r}\""))
                        .unwrap_or_default(),
                );
                self.push_response(ctx, if ready { 200 } else { 503 }, &body, keep_alive);
            }
            ("GET", "/v1/stats") => {
                let body = stats_body(&ctx.shared, handle, batch);
                self.push_response(ctx, 200, &body, keep_alive);
            }
            ("POST", "/v1/predict") => {
                self.dispatch_predict(&req.body, keep_alive, handle, batch, ctx)
            }
            // Reloads are deferred: snapshot IO + table builds take an
            // event loop's eternity.
            ("POST", "/v1/reload") => match reload_path(&req.body) {
                Ok(path) => {
                    let handle = Arc::clone(handle);
                    self.defer(ctx, keep_alive, move || reload(&handle, &path));
                }
                Err(e) => self.push_err(ctx, &e, keep_alive),
            },
            (_, "/healthz" | "/readyz" | "/v1/stats" | "/v1/predict" | "/v1/reload") => self
                .push_err(
                    ctx,
                    &ServeError::MethodNotAllowed {
                        method: req.method,
                        path: req.path,
                    },
                    keep_alive,
                ),
            _ => self.push_err(
                ctx,
                &ServeError::UnknownRoute { path: req.path },
                keep_alive,
            ),
        }
    }

    /// Every input becomes one job in the shared admission queue, so
    /// singles from this and every other connection coalesce into the
    /// same fused batch passes (and HTTP batches don't bypass the
    /// queue). Validation runs here, before enqueue — a malformed
    /// request answers immediately and costs no queue slot.
    fn dispatch_predict(
        &mut self,
        body: &str,
        keep_alive: bool,
        handle: &EngineHandle,
        batch: &BatchServer,
        ctx: &LoopCtx,
    ) {
        let wreq = match wire::decode_predict_request(body) {
            Ok(r) => r,
            Err(e) => return self.push_err(ctx, &e, keep_alive),
        };
        let engine = handle.engine();
        let k = wreq.top_k.unwrap_or_else(|| engine.default_top_k());
        for f in &wreq.inputs {
            if let Err(e) = engine.validate_request(f, k) {
                return self.push_err(ctx, &e, keep_alive);
            }
        }
        let expected = wreq.inputs.len();
        let req = self.next_req;
        self.next_req += 1;
        let token = self.token;
        let jobs = wreq
            .inputs
            .into_iter()
            .enumerate()
            .map(|(index, f)| {
                let inbox = Arc::clone(&ctx.inbox);
                let cb: ReplyCallback = Box::new(move |result, epoch| {
                    inbox.post(Msg::Done {
                        conn: token,
                        req,
                        index,
                        result: Box::new(result),
                        epoch,
                    });
                });
                (f, k, cb)
            })
            .collect();
        match batch.submit_callbacks(jobs) {
            Ok(()) => self.pending.push_back(Slot::Predict(PredictSlot {
                req,
                expected,
                got: 0,
                predictions: vec![None; expected],
                epoch: 0,
                error: None,
                keep_alive,
            })),
            // Backpressure: 429 + Retry-After, connection intact — an
            // overloaded server must never answer load with a hangup.
            Err(e) => self.push_err(ctx, &e, keep_alive),
        }
    }

    /// Runs blocking `work` on a one-off thread and queues its slot; the
    /// finished `(status, body)` posts back through the inbox (see
    /// [`Conn::apply_deferred`]). A panic in `work` answers a typed
    /// `500` rather than leaving the slot unanswered, and a thread that
    /// cannot be spawned answers `429`.
    fn defer<F>(&mut self, ctx: &LoopCtx, keep_alive: bool, work: F)
    where
        F: FnOnce() -> (u16, String) + Send + 'static,
    {
        let req = self.next_req;
        self.next_req += 1;
        let conn = self.token;
        let inbox = Arc::clone(&ctx.inbox);
        let spawned = std::thread::Builder::new().spawn(move || {
            let (status, body) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(work))
                .unwrap_or_else(|_| {
                    let e = ServeError::WorkerPanicked;
                    (e.http_status(), wire::encode_error_body(&e))
                });
            inbox.post(Msg::Deferred {
                conn,
                req,
                status,
                body,
            });
        });
        match spawned {
            Ok(_) => self.pending.push_back(Slot::Deferred { req, keep_alive }),
            Err(_) => self.push_err(
                ctx,
                &ServeError::Overloaded {
                    retry_after_secs: RETRY_AFTER_SECS,
                },
                keep_alive,
            ),
        }
    }

    /// One predict job came back; when the whole request's jobs are in,
    /// the slot renders to a response.
    fn apply_done(
        &mut self,
        req: u64,
        index: usize,
        result: Result<Prediction, ServeError>,
        epoch: u64,
        ctx: &LoopCtx,
    ) -> bool {
        for slot in &mut self.pending {
            let Slot::Predict(p) = slot else { continue };
            if p.req != req {
                continue;
            }
            p.got += 1;
            p.epoch = p.epoch.max(epoch);
            match result {
                Ok(pr) => p.predictions[index] = Some(pr),
                Err(e) => {
                    p.error.get_or_insert(e);
                }
            }
            if p.got < p.expected {
                break;
            }
            let (status, body) = match p.error.take() {
                Some(e) => (e.http_status(), wire::encode_error_body(&e)),
                None => {
                    // Every job reported Ok, so every slot should be
                    // filled; if one is missing anyway, answer a typed
                    // 500 rather than panic the event loop.
                    let predictions: Option<Vec<Prediction>> =
                        p.predictions.iter_mut().map(Option::take).collect();
                    match predictions {
                        Some(predictions) => (
                            200,
                            wire::encode_predict_response(&wire::response_from_predictions(
                                p.epoch,
                                &predictions,
                            )),
                        ),
                        None => {
                            let e = ServeError::WorkerPanicked;
                            (e.http_status(), wire::encode_error_body(&e))
                        }
                    }
                }
            };
            // Advisory header: the level *now*, which is the level that
            // answered (or raced within one drain of it).
            let degraded = match &ctx.shared.backend {
                Backend::Engine { batch, .. } => batch.degradation_level(),
                Backend::Router(_) => 0,
            };
            *slot = ready_slot(ctx, status, &body, p.keep_alive, None, degraded);
            break;
        }
        self.try_flush(ctx)
    }

    /// A deferred answer came back: its slot renders to a response.
    fn apply_deferred(&mut self, req: u64, status: u16, body: &str, ctx: &LoopCtx) -> bool {
        for slot in &mut self.pending {
            if let Slot::Deferred { req: r, keep_alive } = *slot {
                if r == req {
                    *slot = ready_slot(ctx, status, body, keep_alive, None, 0);
                    break;
                }
            }
        }
        self.try_flush(ctx)
    }

    /// Writes whatever is writable: drains the out buffer, promotes the
    /// next in-order ready slot, and — once responses free pipeline
    /// slots — parses more buffered bytes. Returns `false` when the
    /// connection is finished.
    fn try_flush(&mut self, ctx: &LoopCtx) -> bool {
        loop {
            while self.out_pos < self.out.len() {
                match self.stream.write(&self.out[self.out_pos..]) {
                    Ok(0) => return false,
                    Ok(n) => self.out_pos += n,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        return self.still_alive()
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => return false,
                }
            }
            if !self.out.is_empty() {
                // A whole response just flushed.
                self.out.clear();
                self.out_pos = 0;
                self.last_activity = Instant::now();
                if self.close_after_flush {
                    if self.error_close {
                        // Half-close so the response arrives, then drain
                        // the client's unread bytes (closing with bytes
                        // queued would RST the response away).
                        self.stream.shutdown(Shutdown::Write).ok();
                        self.close_after_flush = false;
                        self.draining = Some(0);
                        return true;
                    }
                    return false;
                }
            }
            if let Some(Slot::Ready {
                bytes,
                keep_alive,
                error_close,
            }) = self.pending.front_mut()
            {
                self.out = std::mem::take(bytes);
                self.out_pos = 0;
                self.close_after_flush = !*keep_alive;
                self.error_close = *error_close;
                self.pending.pop_front();
                continue;
            }
            // Responses freed pipeline slots: buffered bytes may hold
            // complete requests whose answers can go out right now.
            if !self.inbuf.is_empty() && !self.stop_reading && self.pending.len() < PIPELINE_CAP {
                let before = self.pending.len();
                self.feed(ctx);
                if self.pending.len() != before {
                    continue;
                }
            }
            return self.still_alive();
        }
    }

    /// Whether anything is left to do; a connection that will never
    /// produce another byte in either direction closes.
    fn still_alive(&self) -> bool {
        if self.draining.is_some() {
            return true;
        }
        let done_reading = self.stop_reading || self.read_closed;
        !(done_reading && self.pending.is_empty() && self.out_pos >= self.out.len())
    }

    /// Periodic timeout check. Returns `false` to close.
    fn sweep(&mut self, now: Instant, ctx: &LoopCtx) -> bool {
        let options = &ctx.shared.options;
        if self.draining.is_some() {
            // A client that neither finishes sending nor closes gets cut
            // off once the idle bound passes.
            if now.duration_since(self.last_activity) > options.read_timeout {
                return false;
            }
            return true;
        }
        if let Some(t0) = self.req_started {
            if now.duration_since(t0) > options.request_timeout {
                // Slow loris: the request started but never finished
                // arriving.
                ctx.shared.counters.timeouts.fetch_add(1, Ordering::Relaxed);
                self.push_error_close(
                    ctx,
                    &ServeError::BadRequest {
                        message: "request timed out".into(),
                    },
                );
                return self.try_flush(ctx);
            }
        }
        if self.parser.is_idle()
            && self.pending.is_empty()
            && self.out_pos >= self.out.len()
            && self.inbuf.is_empty()
            && now.duration_since(self.last_activity) > options.read_timeout
        {
            // Idle keep-alive hygiene: a quiet close between requests.
            ctx.shared.counters.timeouts.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        true
    }
}

// ---------------------------------------------------------------------
// Response rendering.

/// The snapshot path a `POST /v1/reload` body names.
fn reload_path(body: &str) -> Result<String, ServeError> {
    let bad = |message: String| ServeError::BadRequest { message };
    let v = json::parse(body).map_err(|e| bad(format!("invalid json: {e}")))?;
    v.get("path")
        .and_then(json::Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| bad("reload body needs a \"path\" string".into()))
}

/// Loads the snapshot at `path` and swaps it in.
fn reload(handle: &EngineHandle, path: &str) -> (u16, String) {
    match handle.reload_from_file(path) {
        Ok(epoch) => (
            200,
            format!(
                "{{\"api_version\":{},\"epoch\":{epoch}}}",
                wire::API_VERSION
            ),
        ),
        Err(e) => (e.http_status(), wire::encode_error_body(&e)),
    }
}

fn retry_after(e: &ServeError) -> Option<u64> {
    match e {
        ServeError::Overloaded { retry_after_secs } => Some(*retry_after_secs),
        _ => None,
    }
}

/// A rendered answer that keeps the connection open when `keep_alive`
/// asks for it — unless shutdown began since: a response finishing
/// during drain closes its connection.
fn ready_slot(
    ctx: &LoopCtx,
    status: u16,
    body: &str,
    keep_alive: bool,
    retry_after_secs: Option<u64>,
    degraded: u32,
) -> Slot {
    let keep_alive = keep_alive && !ctx.shared.shutdown.load(Ordering::SeqCst);
    let bytes = render_response(
        &ctx.shared.counters,
        status,
        body,
        keep_alive,
        retry_after_secs,
        degraded,
    );
    Slot::Ready {
        bytes,
        keep_alive,
        error_close: false,
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Renders one response (head + body in one buffer → one write syscall
/// per response with TCP_NODELAY on) and counts it. A nonzero
/// `degraded` level adds an `X-Slide-Degraded` header so clients can
/// tell a full-budget answer from a load-shedding one.
fn render_response(
    counters: &Counters,
    status: u16,
    body: &str,
    keep_alive: bool,
    retry_after_secs: Option<u64>,
    degraded: u32,
) -> Vec<u8> {
    match status / 100 {
        2 => counters.responses_2xx.fetch_add(1, Ordering::Relaxed),
        4 => counters.responses_4xx.fetch_add(1, Ordering::Relaxed),
        _ => counters.responses_5xx.fetch_add(1, Ordering::Relaxed),
    };
    if status == 429 {
        counters.responses_429.fetch_add(1, Ordering::Relaxed);
    }
    let mut response = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {}\r\n",
        status,
        reason(status),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" }
    );
    if let Some(secs) = retry_after_secs {
        response.push_str(&format!("Retry-After: {secs}\r\n"));
    }
    if degraded > 0 {
        response.push_str(&format!("X-Slide-Degraded: {degraded}\r\n"));
    }
    response.push_str("\r\n");
    response.push_str(body);
    response.into_bytes()
}

fn stats_body(shared: &Shared, handle: &EngineHandle, batch: &BatchServer) -> String {
    let (engine, epoch) = handle.current();
    let e = engine.stats();
    let b = batch.stats();
    let c = &shared.counters;
    let mut hist = String::from("[");
    for (i, n) in b.batch_hist.iter().enumerate() {
        if i > 0 {
            hist.push(',');
        }
        hist.push_str(&n.to_string());
    }
    hist.push(']');
    format!(
        concat!(
            "{{\"api_version\":{},\"epoch\":{},\"reloads\":{},\"reload_failures\":{},",
            "\"last_good_epoch\":{},\"consecutive_reload_failures\":{},",
            "\"quarantined_snapshots\":{},",
            "\"engine\":{{\"requests\":{},\"mean_latency_us\":{:.1},\"max_latency_us\":{:.1},",
            "\"dense_fallbacks\":{}}},",
            "\"http\":{{\"connections\":{},\"current_connections\":{},\"requests\":{},",
            "\"responses_2xx\":{},\"responses_4xx\":{},\"responses_5xx\":{},",
            "\"responses_429\":{},\"timeouts\":{}}},",
            "\"batch\":{{\"queue_depth\":{},\"queue_capacity\":{},\"rejected\":{},",
            "\"shed\":{},\"requests\":{},\"batches\":{},\"mean_batch\":{:.3},",
            "\"largest_batch\":{},\"mean_queue_wait_us\":{:.1},",
            "\"worker_panics\":{},\"worker_respawns\":{},",
            "\"degradation_level\":{},\"degraded_requests\":{},",
            "\"batch_hist\":{}}}}}"
        ),
        wire::API_VERSION,
        epoch,
        handle.reloads(),
        handle.reload_failures(),
        handle.last_good_epoch(),
        handle.consecutive_reload_failures(),
        handle.quarantined(),
        e.requests,
        e.mean_latency().as_secs_f64() * 1e6,
        Duration::from_nanos(e.max_latency_ns).as_secs_f64() * 1e6,
        e.dense_fallbacks,
        c.connections.load(Ordering::Relaxed),
        c.current_connections.load(Ordering::Relaxed),
        c.requests.load(Ordering::Relaxed),
        c.responses_2xx.load(Ordering::Relaxed),
        c.responses_4xx.load(Ordering::Relaxed),
        c.responses_5xx.load(Ordering::Relaxed),
        c.responses_429.load(Ordering::Relaxed),
        c.timeouts.load(Ordering::Relaxed),
        b.queue_depth,
        shared.options.queue_capacity,
        b.rejected,
        b.shed,
        b.requests,
        b.batches,
        b.mean_batch,
        b.largest_batch,
        b.mean_queue_wait.as_secs_f64() * 1e6,
        b.worker_panics,
        b.worker_respawns,
        b.degradation_level,
        b.degraded_requests,
        hist,
    )
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::client::Client;
    use crate::engine::{ServeOptions, ServingEngine};
    use slide_core::config::{LshLayerConfig, NetworkConfig};
    use slide_core::Network;
    use slide_data::synth::{generate, SyntheticConfig};
    use slide_data::SparseVector;
    use std::io::BufRead;

    fn tiny_server() -> (HttpServer, slide_data::synth::SyntheticData) {
        tiny_server_with(HttpOptions::default())
    }

    fn tiny_server_with(options: HttpOptions) -> (HttpServer, slide_data::synth::SyntheticData) {
        let data = generate(&SyntheticConfig::tiny().with_seed(21));
        let config = NetworkConfig::builder(data.train.feature_dim(), data.train.label_dim())
            .hidden(16)
            .output_lsh(LshLayerConfig::simhash(3, 8))
            .seed(22)
            .build()
            .unwrap();
        let engine = ServingEngine::new(
            Network::new(config).unwrap(),
            ServeOptions::default().with_top_k(3),
        );
        let handle = Arc::new(EngineHandle::new(engine));
        let server = HttpServer::serve(handle, "127.0.0.1:0", options).unwrap();
        (server, data)
    }

    /// Reads one full HTTP response off a raw socket: status, headers,
    /// Content-Length-bounded body.
    pub(crate) fn read_response(
        reader: &mut std::io::BufReader<TcpStream>,
    ) -> Option<(u16, Vec<String>, String)> {
        let mut line = String::new();
        if reader.read_line(&mut line).ok()? == 0 {
            return None;
        }
        let status: u16 = line.split_whitespace().nth(1)?.parse().ok()?;
        let mut headers = Vec::new();
        let mut content_length = 0usize;
        loop {
            let mut h = String::new();
            reader.read_line(&mut h).ok()?;
            let h = h.trim_end().to_string();
            if h.is_empty() {
                break;
            }
            if let Some((name, value)) = h.split_once(':') {
                if name.trim().eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse().ok()?;
                }
            }
            headers.push(h);
        }
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body).ok()?;
        Some((status, headers, String::from_utf8(body).ok()?))
    }

    #[test]
    fn healthz_predict_and_stats_over_one_keep_alive_connection() {
        let (server, data) = tiny_server();
        let mut client = Client::connect(server.local_addr()).unwrap();

        let health = client.healthz().unwrap();
        assert_eq!(health.epoch, 1);

        // Probe-style query strings route to the same handler.
        let (status, _) = client.request("GET", "/healthz?probe=1", None).unwrap();
        assert_eq!(status, 200);

        let ex = &data.test.examples()[0];
        let resp = client.predict(&ex.features, None).unwrap();
        assert_eq!(resp.epoch, 1);
        assert_eq!(resp.predictions.len(), 1);
        assert!(!resp.predictions[0].classes.is_empty());
        assert!(resp.predictions[0].classes.len() <= 3);

        let batch: Vec<SparseVector> = data
            .test
            .iter()
            .take(4)
            .map(|e| e.features.clone())
            .collect();
        let resp = client.predict_batch(&batch, Some(2)).unwrap();
        assert_eq!(resp.predictions.len(), 4);
        assert!(resp.predictions.iter().all(|p| p.classes.len() <= 2));

        let stats = client.stats_json().unwrap();
        assert_eq!(stats.get("epoch").and_then(json::Json::as_u64), Some(1));
        // 3 requests so far on this connection (health, predict, batch)
        // plus this stats call in flight; the transport saw ≥ 4.
        let http_requests = stats
            .get("http")
            .and_then(|h| h.get("requests"))
            .and_then(json::Json::as_u64)
            .unwrap();
        assert!(http_requests >= 4);
        // One connection, many requests: keep-alive worked.
        let conns = stats
            .get("http")
            .and_then(|h| h.get("connections"))
            .and_then(json::Json::as_u64)
            .unwrap();
        assert_eq!(conns, 1);
        // The new admission-queue stats are visible over the wire: the
        // predict requests above went through the queue.
        let batch_requests = stats
            .get("batch")
            .and_then(|b| b.get("requests"))
            .and_then(json::Json::as_u64)
            .unwrap();
        assert!(
            batch_requests >= 5,
            "singles + batch inputs: {batch_requests}"
        );
        assert!(stats
            .get("batch")
            .and_then(|b| b.get("batch_hist"))
            .is_some());
        server.shutdown();
    }

    #[test]
    fn error_statuses_map_one_to_one() {
        let (server, data) = tiny_server();
        let mut client = Client::connect(server.local_addr()).unwrap();

        // Malformed JSON → 400 bad_request.
        let (status, body) = client
            .request("POST", "/v1/predict", Some("this is not json"))
            .unwrap();
        assert_eq!(status, 400);
        assert_eq!(wire::decode_error_body(&body).0, "bad_request");

        // Out-of-range feature index → 422 feature_index_out_of_range.
        let input_dim = server.handle().engine().input_dim();
        let bad = format!("{{\"indices\":[{input_dim}],\"values\":[1.0]}}");
        let (status, body) = client.request("POST", "/v1/predict", Some(&bad)).unwrap();
        assert_eq!(status, 422);
        assert_eq!(
            wire::decode_error_body(&body).0,
            "feature_index_out_of_range"
        );

        // top_k 0 → 422 invalid_top_k.
        let (status, body) = client
            .request(
                "POST",
                "/v1/predict",
                Some("{\"indices\":[0],\"values\":[1.0],\"top_k\":0}"),
            )
            .unwrap();
        assert_eq!(status, 422);
        assert_eq!(wire::decode_error_body(&body).0, "invalid_top_k");

        // Unknown route → 404; wrong method → 405.
        let (status, _) = client.request("GET", "/v2/predict", None).unwrap();
        assert_eq!(status, 404);
        let (status, _) = client.request("PUT", "/healthz", None).unwrap();
        assert_eq!(status, 405);

        // Reload pointing at a missing file → 500 model_error; the old
        // engine keeps serving.
        let (status, body) = client
            .request(
                "POST",
                "/v1/reload",
                Some("{\"path\":\"/nonexistent/model.slidesnap\"}"),
            )
            .unwrap();
        assert_eq!(status, 500);
        assert_eq!(wire::decode_error_body(&body).0, "model_error");
        let ex = &data.test.examples()[0];
        assert!(client.predict(&ex.features, None).is_ok());
        assert_eq!(server.handle().epoch(), 1);
        server.shutdown();
    }

    #[test]
    fn oversized_body_rejected_with_413() {
        let (server, _) = tiny_server();
        let handle = Arc::clone(server.handle());
        let small = HttpServer::serve(
            handle,
            "127.0.0.1:0",
            HttpOptions {
                max_body_bytes: 64,
                read_timeout: Duration::from_secs(5),
                ..HttpOptions::default()
            },
        )
        .unwrap();
        let mut client = Client::connect(small.local_addr()).unwrap();
        let big = format!(
            "{{\"indices\":[0],\"values\":[1.0],\"pad\":\"{}\"}}",
            "x".repeat(256)
        );
        let (status, body) = client.request("POST", "/v1/predict", Some(&big)).unwrap();
        assert_eq!(status, 413);
        assert_eq!(wire::decode_error_body(&body).0, "payload_too_large");
        small.shutdown();
        server.shutdown();
    }

    #[test]
    fn shutdown_is_idempotent_and_frees_the_port() {
        let (server, _) = tiny_server();
        let addr = server.local_addr();
        server.shutdown();
        // The port is free again.
        let rebound = TcpListener::bind(addr);
        assert!(rebound.is_ok());
    }

    #[test]
    fn pipelined_requests_answer_in_order() {
        let (server, data) = tiny_server();
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = std::io::BufReader::new(stream);

        let ex = &data.test.examples()[0];
        let predict = wire::encode_predict_request(&wire::PredictRequest {
            inputs: vec![ex.features.clone()],
            top_k: Some(2),
        });
        // Three requests in ONE write: the answers must come back
        // complete and in order.
        let burst = format!(
            "GET /healthz HTTP/1.1\r\n\r\n\
             POST /v1/predict HTTP/1.1\r\nContent-Length: {}\r\n\r\n{}\
             GET /healthz HTTP/1.1\r\n\r\n",
            predict.len(),
            predict
        );
        writer.write_all(burst.as_bytes()).unwrap();
        writer.flush().unwrap();

        let (s1, _, b1) = read_response(&mut reader).unwrap();
        let (s2, _, b2) = read_response(&mut reader).unwrap();
        let (s3, _, b3) = read_response(&mut reader).unwrap();
        assert_eq!((s1, s2, s3), (200, 200, 200));
        assert!(b1.contains("\"status\":\"ok\""), "{b1}");
        assert!(b2.contains("\"predictions\""), "{b2}");
        assert!(b3.contains("\"status\":\"ok\""), "{b3}");
        server.shutdown();
    }

    #[test]
    fn overload_returns_429_with_retry_after_and_keeps_the_connection() {
        // queue_capacity 2 with a 4-input batch request: admission is
        // all-or-nothing, so the request deterministically overflows the
        // bound and answers 429 — while the connection stays usable.
        let (server, data) = tiny_server_with(HttpOptions {
            queue_capacity: 2,
            workers: 1,
            max_batch: 1,
            ..HttpOptions::default()
        });
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = std::io::BufReader::new(stream);

        let inputs: Vec<SparseVector> = data
            .test
            .iter()
            .take(4)
            .map(|e| e.features.clone())
            .collect();
        let body = wire::encode_predict_request(&wire::PredictRequest {
            inputs,
            top_k: Some(1),
        });
        let req = format!(
            "POST /v1/predict HTTP/1.1\r\nContent-Length: {}\r\n\r\n{}",
            body.len(),
            body
        );
        writer.write_all(req.as_bytes()).unwrap();
        let (status, headers, body) = read_response(&mut reader).unwrap();
        assert_eq!(status, 429);
        assert_eq!(wire::decode_error_body(&body).0, "overloaded");
        assert!(
            headers
                .iter()
                .any(|h| h.to_ascii_lowercase().starts_with("retry-after:")),
            "{headers:?}"
        );

        // The connection survived the rejection: a request that fits the
        // queue answers 200 on the same socket.
        let single = wire::encode_predict_request(&wire::PredictRequest {
            inputs: vec![data.test.examples()[0].features.clone()],
            top_k: Some(1),
        });
        let req = format!(
            "POST /v1/predict HTTP/1.1\r\nContent-Length: {}\r\n\r\n{}",
            single.len(),
            single
        );
        writer.write_all(req.as_bytes()).unwrap();
        let (status, _, _) = read_response(&mut reader).unwrap();
        assert_eq!(status, 200);
        assert!(server.stats().responses_429 >= 1);
        assert!(server.batch_stats().rejected >= 4);
        server.shutdown();
    }

    #[test]
    fn slow_loris_is_cut_off_with_400() {
        let (server, _) = tiny_server_with(HttpOptions {
            request_timeout: Duration::from_millis(200),
            ..HttpOptions::default()
        });
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = std::io::BufReader::new(stream);
        // Half a request line, then silence.
        writer.write_all(b"GET /heal").unwrap();
        writer.flush().unwrap();
        // The sweep answers 400 and closes; allow a couple of ticks.
        let (status, _, body) = read_response(&mut reader).unwrap();
        assert_eq!(status, 400);
        assert!(body.contains("timed out"), "{body}");
        // Then EOF.
        let mut rest = Vec::new();
        reader.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty());
        assert!(server.stats().timeouts >= 1);
        server.shutdown();
    }

    #[test]
    fn idle_connections_are_swept() {
        let (server, _) = tiny_server_with(HttpOptions {
            read_timeout: Duration::from_millis(200),
            ..HttpOptions::default()
        });
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut reader = std::io::BufReader::new(stream);
        // No bytes sent: the idle sweep closes the connection quietly
        // (EOF, no response bytes).
        let mut rest = Vec::new();
        reader.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty());
        assert!(server.stats().timeouts >= 1);
        assert_eq!(server.stats().current_connections, 0);
        server.shutdown();
    }

    #[test]
    fn readyz_flips_not_ready_after_reload_failures_and_recovers() {
        let (server, _) = tiny_server();
        let mut client = Client::connect(server.local_addr()).unwrap();

        // Healthy server: ready.
        assert!(client.readyz().unwrap());

        // Drive consecutive reload failures past the readiness bound.
        for _ in 0..READY_MAX_RELOAD_FAILURES {
            let (status, _) = client
                .request(
                    "POST",
                    "/v1/reload",
                    Some("{\"path\":\"/nonexistent/model.slidesnap\"}"),
                )
                .unwrap();
            assert_eq!(status, 500);
        }
        assert!(!client.readyz().unwrap(), "3 consecutive failures");
        let (status, _, body) = {
            // Raw request to check the body shape of the 503.
            let stream = TcpStream::connect(server.local_addr()).unwrap();
            let mut writer = stream.try_clone().unwrap();
            let mut reader = std::io::BufReader::new(stream);
            writer.write_all(b"GET /readyz HTTP/1.1\r\n\r\n").unwrap();
            read_response(&mut reader).unwrap()
        };
        assert_eq!(status, 503);
        assert!(body.contains("\"reason\":\"reload_failures\""), "{body}");

        // /healthz stays liveness: still 200 with the old epoch, and
        // predict still answers from the last-good engine.
        let health = client.healthz().unwrap();
        assert_eq!(health.epoch, 1);

        // A good snapshot publishes; reloading it restores readiness.
        let dir = std::env::temp_dir().join(format!("slide-readyz-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.slidesnap");
        let bytes = server.handle().engine().network().to_snapshot_bytes();
        slide_core::snapshot::publish_bytes(&path, &bytes).unwrap();
        let (status, _) = client
            .request(
                "POST",
                "/v1/reload",
                Some(&format!("{{\"path\":\"{}\"}}", path.display())),
            )
            .unwrap();
        assert_eq!(status, 200);
        assert!(client.readyz().unwrap(), "good reload resets the streak");

        // Wrong method on the new route: 405, not 404.
        let (status, _) = client.request("POST", "/readyz", None).unwrap();
        assert_eq!(status, 405);

        // The new fault-tolerance stats fields are on the wire.
        let stats = client.stats_json().unwrap();
        assert_eq!(
            stats
                .get("consecutive_reload_failures")
                .and_then(json::Json::as_u64),
            Some(0)
        );
        assert_eq!(
            stats.get("last_good_epoch").and_then(json::Json::as_u64),
            Some(2)
        );
        assert!(stats
            .get("batch")
            .and_then(|b| b.get("worker_panics"))
            .is_some());
        assert!(stats
            .get("batch")
            .and_then(|b| b.get("degradation_level"))
            .is_some());
        server.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cross_connection_singles_coalesce_into_batches() {
        // Many connections each fire one single concurrently; the shared
        // admission queue must merge them into multi-job drains.
        let (server, data) = tiny_server();
        let addr = server.local_addr();
        let data = Arc::new(data);
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let data = Arc::clone(&data);
                std::thread::spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    for i in 0..25 {
                        let ex = &data.test.examples()[(t * 25 + i) % data.test.len()];
                        client.predict(&ex.features, Some(2)).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let b = server.batch_stats();
        assert_eq!(b.requests, 200);
        // With 8 concurrent senders on a shared queue, at least some
        // drains must have coalesced more than one connection's single.
        assert!(b.largest_batch > 1, "no cross-connection coalescing: {b:?}");
        server.shutdown();
    }
}
