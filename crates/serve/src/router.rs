//! Scatter-gather routing over sharded serving back-ends.
//!
//! A large output layer can be *sliced* into contiguous neuron ranges
//! ([`slide_core::snapshot::slice_snapshot`]), each range served by its
//! own [`crate::ServingEngine`] behind its own [`crate::http::HttpServer`]
//! — each shard scores only its own rows and answers with globally
//! offset class ids. The [`Router`] is the thin front door that makes
//! the fleet look like one box: every `POST /v1/predict` fans out to
//! all shards over keep-alive connections, the per-shard top-k lists
//! merge through the same [`TopK`] reduction the engine uses (so
//! tie-breaking matches to the bit), and the merged answer equals the
//! single full engine's — classes *and* score bits — under a
//! precondition: no output bucket of the full model ever overflowed, no
//! `max_candidates` cap, degradation level 0, and dense fallback off.
//! Each shard rebuilds its FIFO buckets over its own range, so once a
//! bucket overflows a shard keeps ids the full table evicted; a cap, a
//! degraded level or a fallback is likewise applied per shard. The
//! shards then score a superset and the merge can only gain items and
//! score (pinned by the engine's `slice_answers_dominate_after_overflow`).
//!
//! The router owns no transport of its own: it is a second back-end of
//! [`crate::http`]'s event-loop server, so its limits, timeouts,
//! pipelining and transport-level errors (`400`, `413`, `429`) are the
//! single box's with [`HttpOptions::default`]. The fan-out runs on that
//! same loop, too. Each loop keeps its shard links: per shard, a stack of
//! idle keep-alive nonblocking connections registered on the loop's
//! poller, dialed with [`crate::net::connect_nonblocking`], each
//! carrying at most one request. A fan-out renders its shard request
//! once, writes it to one link per shard, and parses the replies with
//! [`crate::conn`]'s response parser as readiness events arrive; when
//! the last one lands the gather runs on the loop and fills the
//! client's response slot. No step waits on a timer except the
//! [`RouterOptions::merge_timeout`] deadline, which the loop's sweep
//! enforces. What lives here is the route table, those links, and the
//! all-or-nothing [`TopK`] merge.
//!
//! Failure policy is all-or-nothing: a partial merge would silently
//! drop one shard's classes, so an unreachable (or 5xx, or undecodable)
//! shard turns the whole request into a typed `503 shard_unavailable`,
//! and a shard slower than [`RouterOptions::merge_timeout`] into `504
//! merge_timeout` (its link is closed, never reused). A shard's own
//! `4xx` (bad request, invalid `top_k`) is relayed verbatim — shard
//! engines validate against the *full* model's class count, so their
//! rejections read exactly like a single box's.
//!
//! Endpoints mirror the single-box server's: `POST /v1/predict`,
//! `GET /healthz` (min epoch over reachable shards), `GET /readyz`
//! (ready only when *every* shard is), `GET /v1/stats` (router-role
//! counters). [`crate::client`] speaks to a router unchanged.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use slide_core::TopK;

use crate::conn::ResponseParser;
use crate::engine::ServeOptions;
use crate::error::ServeError;
use crate::http::{Answer, Backend, HttpOptions, HttpStats, Transport};
use crate::net::{connect_nonblocking, raw_fd, Poller};
use crate::wire::{self, PredictRequest, PredictResponse, WirePrediction};

/// Tuning for a [`Router`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouterOptions {
    /// Classes per merged answer when the request carries no `top_k`.
    /// Must match the shard engines' [`ServeOptions::top_k`] for merged
    /// defaults to equal a single box's.
    pub top_k: usize,
    /// Deadline for every shard's answer within one fan-out. Scatter is
    /// parallel, so the slowest shard bounds the merge; past this the
    /// request fails typed `504 merge_timeout`. The event loop's sweep
    /// enforces it, so the answer can trail the deadline by up to one
    /// sweep tick.
    pub merge_timeout: Duration,
}

impl Default for RouterOptions {
    fn default() -> Self {
        Self {
            top_k: ServeOptions::default().top_k,
            merge_timeout: Duration::from_secs(5),
        }
    }
}

impl RouterOptions {
    /// Sets the default merged `top_k` (builder style).
    pub fn with_top_k(mut self, top_k: usize) -> Self {
        self.top_k = top_k;
        self
    }

    /// Sets the per-fan-out merge deadline (builder style).
    pub fn with_merge_timeout(mut self, timeout: Duration) -> Self {
        self.merge_timeout = timeout;
        self
    }
}

/// A point-in-time copy of a router's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouterStats {
    /// Requests accepted (any endpoint).
    pub requests: u64,
    /// `POST /v1/predict` fan-outs that merged successfully.
    pub merged: u64,
    /// Fan-outs that failed on a shard (unreachable, 5xx, undecodable
    /// or past the merge deadline).
    pub shard_errors: u64,
    /// Responses by status class.
    pub responses_2xx: u64,
    /// 4xx responses (router-typed or relayed from a shard).
    pub responses_4xx: u64,
    /// 5xx responses (including `503 shard_unavailable` and
    /// `504 merge_timeout`).
    pub responses_5xx: u64,
}

/// The router's back-end state, shared by the transport's event loops.
pub(crate) struct Fleet {
    shards: Vec<SocketAddr>,
    options: RouterOptions,
    merged: AtomicU64,
    shard_errors: AtomicU64,
}

/// The scatter-gather front door over a fleet of shard servers.
///
/// Served by the same event-loop transport as [`crate::http::HttpServer`];
/// each fan-out runs on the loop that read the request, over that loop's
/// keep-alive shard links, so busy traffic re-uses warm sockets end to
/// end and no request costs a thread.
pub struct Router {
    transport: Transport,
    fleet: Arc<Fleet>,
}

impl std::fmt::Debug for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Router")
            .field("local_addr", &self.local_addr())
            .field("shards", &self.fleet.shards)
            .finish()
    }
}

impl Router {
    /// Binds `addr` and serves scatter-gather over `shards` until
    /// [`Router::shutdown`].
    ///
    /// # Errors
    ///
    /// Returns the bind error, or `InvalidInput` for an empty shard
    /// list (a router with nothing behind it could never answer).
    pub fn serve<A: ToSocketAddrs>(
        addr: A,
        shards: Vec<SocketAddr>,
        options: RouterOptions,
    ) -> std::io::Result<Self> {
        if shards.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "router needs at least one shard",
            ));
        }
        let fleet = Arc::new(Fleet {
            shards,
            options,
            merged: AtomicU64::new(0),
            shard_errors: AtomicU64::new(0),
        });
        let backend = Backend::Router(Arc::clone(&fleet));
        Ok(Self {
            transport: Transport::start(addr, HttpOptions::default(), backend)?,
            fleet,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.transport.local_addr()
    }

    /// The shard back-ends this router fans over.
    pub fn shards(&self) -> &[SocketAddr] {
        &self.fleet.shards
    }

    /// A snapshot of the router's counters.
    pub fn stats(&self) -> RouterStats {
        self.fleet.stats(&self.transport.stats())
    }

    /// Stops accepting, drains in-flight requests, closes every client
    /// connection and shard link, and joins the transport's threads.
    pub fn shutdown(mut self) {
        self.transport.stop();
    }
}

/// A fan-out the route table hands to the event loop's [`ShardLinks`].
pub(crate) struct ShardCall {
    gather: Gather,
    /// The shard request, rendered once and written to every shard.
    request: Vec<u8>,
}

/// How a fan-out's replies become the client's answer.
enum Gather {
    Predict(PredictRequest),
    Healthz,
    Readyz,
}

/// What one shard contributed to a fan-out.
enum ShardReply {
    Answer(u16, String),
    TimedOut,
    Unreachable,
}

impl Fleet {
    /// The router's route table. Fan-outs come back as
    /// [`Answer::FanOut`] for the event loop to run over its shard
    /// links; everything else answers at once. `http` reads the
    /// transport's counters for `/v1/stats`.
    pub(crate) fn route(
        &self,
        method: &str,
        path: &str,
        body: String,
        http: impl FnOnce() -> HttpStats,
    ) -> Answer {
        let fan_out = |gather, path: &str, body: &str| {
            Answer::FanOut(ShardCall {
                gather,
                request: shard_request(method, path, body),
            })
        };
        match (method, path.split('?').next().unwrap_or("")) {
            // Decode locally first so malformed bodies die here with the
            // same typed 400 a single box gives, without burning a
            // fan-out.
            ("POST", "/v1/predict") => match wire::decode_predict_request(&body) {
                Ok(req) => fan_out(Gather::Predict(req), "/v1/predict", &body),
                Err(e) => self.error_answer(&e),
            },
            ("GET", "/healthz") => fan_out(Gather::Healthz, "/healthz", ""),
            ("GET", "/readyz") => fan_out(Gather::Readyz, "/readyz", ""),
            ("GET", "/v1/stats") => Answer::Now(200, self.stats_body(&http())),
            (_, "/healthz" | "/readyz" | "/v1/stats" | "/v1/predict") => {
                self.error_answer(&ServeError::MethodNotAllowed {
                    method: method.to_string(),
                    path: path.to_string(),
                })
            }
            _ => self.error_answer(&ServeError::UnknownRoute {
                path: path.to_string(),
            }),
        }
    }

    fn error_answer(&self, e: &ServeError) -> Answer {
        let (status, body) = self.error_response(e);
        Answer::Now(status, body)
    }

    fn error_response(&self, e: &ServeError) -> (u16, String) {
        if matches!(
            e,
            ServeError::ShardUnavailable { .. } | ServeError::MergeTimeout
        ) {
            self.shard_errors.fetch_add(1, Ordering::Relaxed);
        }
        (e.http_status(), wire::encode_error_body(e))
    }

    fn stats(&self, http: &HttpStats) -> RouterStats {
        RouterStats {
            requests: http.requests,
            merged: self.merged.load(Ordering::Relaxed),
            shard_errors: self.shard_errors.load(Ordering::Relaxed),
            responses_2xx: http.responses_2xx,
            responses_4xx: http.responses_4xx,
            responses_5xx: http.responses_5xx,
        }
    }

    fn stats_body(&self, http: &HttpStats) -> String {
        let s = self.stats(http);
        format!(
            "{{\"api_version\":{},\"role\":\"router\",\"shards\":{},\"requests\":{},\
             \"merged\":{},\"shard_errors\":{},\"responses_2xx\":{},\"responses_4xx\":{},\
             \"responses_5xx\":{}}}",
            wire::API_VERSION,
            self.shards.len(),
            s.requests,
            s.merged,
            s.shard_errors,
            s.responses_2xx,
            s.responses_4xx,
            s.responses_5xx,
        )
    }

    // -----------------------------------------------------------------
    // Gathers: every shard's reply, in shard order, to one answer.

    fn gather(&self, gather: &Gather, replies: Vec<ShardReply>) -> (u16, String) {
        match gather {
            Gather::Predict(req) => self.predict(req, replies),
            Gather::Healthz => self.healthz(replies),
            Gather::Readyz => self.readyz(replies),
        }
    }

    fn predict(&self, req: &PredictRequest, replies: Vec<ShardReply>) -> (u16, String) {
        // All-or-nothing gather: relay a shard's own 4xx verbatim (its
        // validation is the full model's), refuse to merge around any
        // missing or failed shard.
        let mut bodies: Vec<String> = Vec::with_capacity(replies.len());
        for (i, reply) in replies.into_iter().enumerate() {
            match reply {
                ShardReply::Answer(status, shard_body) => {
                    if (400..500).contains(&status) {
                        return (status, shard_body);
                    }
                    if !(200..300).contains(&status) {
                        return self.error_response(&ServeError::ShardUnavailable { shard: i });
                    }
                    bodies.push(shard_body);
                }
                ShardReply::TimedOut => return self.error_response(&ServeError::MergeTimeout),
                ShardReply::Unreachable => {
                    return self.error_response(&ServeError::ShardUnavailable { shard: i })
                }
            }
        }
        let mut shard_resps: Vec<PredictResponse> = Vec::with_capacity(bodies.len());
        for (i, b) in bodies.iter().enumerate() {
            match wire::decode_predict_response(b) {
                Ok(r) if r.predictions.len() == req.inputs.len() => shard_resps.push(r),
                // A 2xx that does not parse (or answers the wrong batch
                // size, or pairs classes with a different number of
                // scores) is a broken shard, not a client error.
                _ => return self.error_response(&ServeError::ShardUnavailable { shard: i }),
            }
        }
        // Every shard accepted the request, so `k` passed the full-width
        // validation and bounds this preallocation.
        let k = req.top_k.unwrap_or(self.options.top_k);
        let mut epoch = u64::MAX;
        let mut merged: Vec<TopK> = req.inputs.iter().map(|_| TopK::new(k)).collect();
        let mut latencies = vec![0u64; req.inputs.len()];
        for resp in &shard_resps {
            epoch = epoch.min(resp.epoch);
            for (j, p) in resp.predictions.iter().enumerate() {
                for (&class, &score) in p.classes.iter().zip(&p.scores) {
                    merged[j].offer(class, score);
                }
                // The fan-out's critical path is its slowest shard.
                latencies[j] = latencies[j].max(p.latency_us);
            }
        }
        let predictions = merged
            .iter_mut()
            .zip(&latencies)
            .map(|(t, &latency_us)| {
                t.finish();
                let items = t.items();
                WirePrediction {
                    classes: items.iter().map(|&(c, _)| c).collect(),
                    scores: items.iter().map(|&(_, s)| s).collect(),
                    latency_us,
                }
            })
            .collect();
        self.merged.fetch_add(1, Ordering::Relaxed);
        let resp = PredictResponse { epoch, predictions };
        (200, wire::encode_predict_response(&resp))
    }

    fn healthz(&self, replies: Vec<ShardReply>) -> (u16, String) {
        // Liveness: the router itself answers as long as it runs; the
        // epoch reported is the fleet's trailing edge (the smallest epoch
        // any reachable shard serves), 0 when no shard is reachable.
        let mut epoch: Option<u64> = None;
        for reply in &replies {
            if let ShardReply::Answer(status, body) = reply {
                if (200..300).contains(status) {
                    if let Ok(v) = crate::json::parse(body) {
                        if let Some(e) = v.get("epoch").and_then(crate::json::Json::as_u64) {
                            epoch = Some(epoch.map_or(e, |cur| cur.min(e)));
                        }
                    }
                }
            }
        }
        let body = format!(
            "{{\"api_version\":{},\"status\":\"ok\",\"epoch\":{}}}",
            wire::API_VERSION,
            epoch.unwrap_or(0)
        );
        (200, body)
    }

    fn readyz(&self, replies: Vec<ShardReply>) -> (u16, String) {
        // Readiness is strict: a merged answer needs EVERY shard, so one
        // not-ready (or unreachable) shard makes the whole router not
        // ready, typed with the shard index so operators know where to
        // look.
        for (i, reply) in replies.iter().enumerate() {
            let ready =
                matches!(reply, ShardReply::Answer(status, _) if (200..300).contains(status));
            if !ready {
                return self.error_response(&ServeError::ShardUnavailable { shard: i });
            }
        }
        let body = format!(
            "{{\"api_version\":{},\"ready\":true,\"shards\":{}}}",
            wire::API_VERSION,
            self.shards.len()
        );
        (200, body)
    }
}

/// The bytes of one shard request.
fn shard_request(method: &str, path: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: slide\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

// ---------------------------------------------------------------------
// Shard links: the fan-out on the event loop.

/// Set on every shard link's poller token; client connections count up
/// from 1 below it.
pub(crate) const LINK_TOKEN: u64 = 1 << 63;

/// How long a link may sit idle and still be reused: half a shard's
/// default idle sweep ([`HttpOptions::read_timeout`]), so a shard does
/// not close a link under a fan-out.
const LINK_MAX_IDLE: Duration = Duration::from_secs(15);

/// A fan-out whose gather ran: the answer for slot `req` of client
/// connection `conn`.
pub(crate) struct Finished {
    pub(crate) conn: u64,
    pub(crate) req: u64,
    pub(crate) status: u16,
    pub(crate) body: String,
}

/// One fan-out waiting for its shards.
struct FanOut {
    conn: u64,
    req: u64,
    gather: Gather,
    deadline: Instant,
    /// Per shard, the reply once it is in.
    replies: Vec<Option<ShardReply>>,
}

/// One keep-alive connection to a shard.
struct Link {
    stream: TcpStream,
    shard: usize,
    /// The fan-out whose request this link carries; `None` while idle.
    fanout: Option<u64>,
    /// The nonblocking connect has not reported back yet.
    connecting: bool,
    /// Request bytes the socket has not taken yet (connect in progress,
    /// or a full send buffer). Reused from request to request.
    out: Vec<u8>,
    out_pos: usize,
    parser: ResponseParser,
    idle_since: Instant,
    reg_write: bool,
}

/// One event loop's side of the router: its keep-alive links to every
/// shard and the fan-outs in flight over them. Only its loop's thread
/// touches it; links live on that loop's poller under [`LINK_TOKEN`]
/// tokens and never count as client connections.
pub(crate) struct ShardLinks {
    fleet: Arc<Fleet>,
    links: HashMap<u64, Link>,
    /// Per shard, the idle links' tokens, newest last: a steady load
    /// keeps re-using the warmest socket.
    idle: Vec<Vec<u64>>,
    fanouts: HashMap<u64, FanOut>,
    next_link: u64,
    next_fanout: u64,
    /// Gathers that ran, for the loop to hand to their connections.
    finished: Vec<Finished>,
}

impl ShardLinks {
    pub(crate) fn new(fleet: Arc<Fleet>) -> Self {
        let shards = fleet.shards.len();
        Self {
            fleet,
            links: HashMap::new(),
            idle: vec![Vec::new(); shards],
            fanouts: HashMap::new(),
            next_link: 0,
            next_fanout: 0,
            finished: Vec::new(),
        }
    }

    /// The next finished fan-out, if any.
    pub(crate) fn pop_finished(&mut self) -> Option<Finished> {
        self.finished.pop()
    }

    /// Writes `call`'s request to one link per shard. A shard that
    /// cannot take it (dial or write failed) is unreachable at once; if
    /// every shard is, the gather runs now.
    pub(crate) fn start(&mut self, poller: &mut Poller, conn: u64, req: u64, call: ShardCall) {
        let id = self.next_fanout;
        self.next_fanout += 1;
        let mut fanout = FanOut {
            conn,
            req,
            gather: call.gather,
            deadline: Instant::now() + self.fleet.options.merge_timeout,
            replies: self.fleet.shards.iter().map(|_| None).collect(),
        };
        for shard in 0..fanout.replies.len() {
            if self.send(poller, shard, id, &call.request).is_none() {
                fanout.replies[shard] = Some(ShardReply::Unreachable);
            }
        }
        if fanout.replies.iter().all(Option::is_some) {
            self.finish(fanout);
        } else {
            self.fanouts.insert(id, fanout);
        }
    }

    /// Puts `request` on a link to `shard` (the newest idle one, or a
    /// fresh dial) for fan-out `id`; `None` if the shard is unreachable.
    fn send(&mut self, poller: &mut Poller, shard: usize, id: u64, request: &[u8]) -> Option<()> {
        let token = match self.idle[shard].pop() {
            Some(token) => token,
            None => self.dial(poller, shard)?,
        };
        let link = self.links.get_mut(&token)?;
        link.fanout = Some(id);
        link.out.clear();
        link.out_pos = 0;
        let sent = if link.connecting {
            0
        } else {
            match write_some(&link.stream, request) {
                Ok(n) => n,
                Err(_) => {
                    self.close(poller, token);
                    return None;
                }
            }
        };
        link.out.extend_from_slice(&request[sent..]);
        link.sync_interest(poller, token);
        Some(())
    }

    fn dial(&mut self, poller: &mut Poller, shard: usize) -> Option<u64> {
        let stream = connect_nonblocking(self.fleet.shards[shard]).ok()?;
        let token = LINK_TOKEN | self.next_link;
        self.next_link += 1;
        // Write interest reports the connect's outcome.
        poller.register(raw_fd(&stream), token, true, true).ok()?;
        self.links.insert(
            token,
            Link {
                stream,
                shard,
                fanout: None,
                connecting: true,
                out: Vec::new(),
                out_pos: 0,
                parser: ResponseParser::new(HttpOptions::default().max_body_bytes),
                idle_since: Instant::now(),
                reg_write: true,
            },
        );
        Some(token)
    }

    /// Drives one link on a readiness event: finish its connect, flush
    /// its request, parse its reply.
    pub(crate) fn on_event(&mut self, poller: &mut Poller, token: u64, readable: bool) {
        let Some(link) = self.links.get_mut(&token) else {
            return;
        };
        if link.connecting {
            match link.stream.take_error() {
                Ok(None) => link.connecting = false,
                _ => return self.fail(poller, token),
            }
        }
        if link.out_pos < link.out.len() {
            match write_some(&link.stream, &link.out[link.out_pos..]) {
                Ok(n) => link.out_pos += n,
                Err(_) => return self.fail(poller, token),
            }
        }
        if readable {
            match link.read_reply() {
                Ok(None) => {}
                Ok(Some((status, body, reusable))) => {
                    return self.complete(poller, token, ShardReply::Answer(status, body), reusable)
                }
                Err(()) => return self.fail(poller, token),
            }
        }
        link.sync_interest(poller, token);
    }

    /// A link delivered `reply` to its fan-out; it goes back on the idle
    /// stack if `reusable`, else closes.
    fn complete(&mut self, poller: &mut Poller, token: u64, reply: ShardReply, reusable: bool) {
        let Some(link) = self.links.get_mut(&token) else {
            return;
        };
        let Some(id) = link.fanout.take() else {
            // Bytes nobody asked for: the link is out of step.
            return self.close(poller, token);
        };
        let shard = link.shard;
        if reusable {
            link.idle_since = Instant::now();
            link.sync_interest(poller, token);
            self.idle[shard].push(token);
        } else {
            self.close(poller, token);
        }
        self.record(id, shard, reply);
    }

    /// A link broke (connect refused, reset, EOF, malformed reply): it
    /// closes, and a request it carried counts its shard unreachable.
    fn fail(&mut self, poller: &mut Poller, token: u64) {
        let Some(link) = self.links.get(&token) else {
            return;
        };
        let (fanout, shard) = (link.fanout, link.shard);
        self.close(poller, token);
        if let Some(id) = fanout {
            self.record(id, shard, ShardReply::Unreachable);
        }
    }

    fn close(&mut self, poller: &mut Poller, token: u64) {
        if let Some(link) = self.links.remove(&token) {
            poller.deregister(raw_fd(&link.stream)).ok();
            if link.fanout.is_none() {
                self.idle[link.shard].retain(|&t| t != token);
            }
        }
    }

    fn record(&mut self, id: u64, shard: usize, reply: ShardReply) {
        let Some(fanout) = self.fanouts.get_mut(&id) else {
            return;
        };
        fanout.replies[shard] = Some(reply);
        if fanout.replies.iter().all(Option::is_some) {
            if let Some(fanout) = self.fanouts.remove(&id) {
                self.finish(fanout);
            }
        }
    }

    fn finish(&mut self, fanout: FanOut) {
        let replies = fanout
            .replies
            .into_iter()
            .map(|r| r.unwrap_or(ShardReply::TimedOut))
            .collect();
        let (status, body) = self.fleet.gather(&fanout.gather, replies);
        self.finished.push(Finished {
            conn: fanout.conn,
            req: fanout.req,
            status,
            body,
        });
    }

    /// Enforces the merge deadline — a shard still owing a reply times
    /// out and its link closes, since a late reply would arrive out of
    /// step — and retires links idle past [`LINK_MAX_IDLE`].
    pub(crate) fn sweep(&mut self, poller: &mut Poller, now: Instant) {
        let expired: Vec<u64> = self
            .fanouts
            .iter()
            .filter(|(_, f)| now >= f.deadline)
            .map(|(&id, _)| id)
            .collect();
        for id in expired {
            let Some(fanout) = self.fanouts.remove(&id) else {
                continue;
            };
            let stuck: Vec<u64> = self
                .links
                .iter()
                .filter(|(_, l)| l.fanout == Some(id))
                .map(|(&token, _)| token)
                .collect();
            for token in stuck {
                self.close(poller, token);
            }
            self.finish(fanout);
        }
        for shard in 0..self.idle.len() {
            // Newest last: the stale links sit at the bottom.
            let stale = self.idle[shard]
                .iter()
                .take_while(|t| {
                    self.links
                        .get(t)
                        .is_some_and(|l| now.duration_since(l.idle_since) > LINK_MAX_IDLE)
                })
                .count();
            for token in self.idle[shard].drain(..stale).collect::<Vec<_>>() {
                if let Some(link) = self.links.remove(&token) {
                    poller.deregister(raw_fd(&link.stream)).ok();
                }
            }
        }
    }
}

impl Link {
    /// Reads what the socket holds into the parser. `Ok(Some)` is a
    /// complete reply `(status, body, reusable)`; `Err` means the link
    /// is broken — EOF, a read error, a malformed reply, or bytes while
    /// idle.
    fn read_reply(&mut self) -> Result<Option<(u16, String, bool)>, ()> {
        let mut buf = [0u8; 16 << 10];
        loop {
            let n = match self.stream.read(&mut buf) {
                Ok(0) => return Err(()),
                Ok(n) => n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(None),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return Err(()),
            };
            if self.fanout.is_none() {
                return Err(());
            }
            match self.parser.advance(&buf[..n]) {
                (_, Ok(None)) => {}
                (used, Ok(Some(r))) => {
                    // One request in flight, so trailing bytes mean the
                    // link is out of step: answer, then close it.
                    return Ok(Some((r.status, r.body, r.keep_alive && used == n)));
                }
                (_, Err(_)) => return Err(()),
            }
        }
    }

    /// Syncs write interest with what the link has to send (read
    /// interest stays on: an idle link's EOF closes it promptly).
    fn sync_interest(&mut self, poller: &mut Poller, token: u64) {
        let want = self.connecting || self.out_pos < self.out.len();
        if want != self.reg_write {
            poller.modify(raw_fd(&self.stream), token, true, want).ok();
            self.reg_write = want;
        }
    }
}

/// One nonblocking write: the bytes the socket took (0 when its buffer
/// is full), or the error that broke it.
fn write_some(mut stream: &TcpStream, bytes: &[u8]) -> std::io::Result<usize> {
    loop {
        match stream.write(bytes) {
            Ok(0) if !bytes.is_empty() => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => return Ok(n),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(0),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;
    use std::net::TcpListener;
    use std::sync::mpsc;
    use std::thread::JoinHandle;

    use slide_core::config::{LshLayerConfig, NetworkConfig};
    use slide_core::Network;
    use slide_data::synth::{generate, SyntheticConfig, SyntheticData};

    use crate::client::{Client, ClientError};
    use crate::conn::{ParseStatus, RequestParser, MAX_LINE_BYTES};
    use crate::http::tests::read_response;
    use crate::http::HttpServer;
    use crate::{EngineHandle, ServingEngine};

    fn tiny_snapshot() -> (Vec<u8>, SyntheticData) {
        let data = generate(&SyntheticConfig::tiny().with_seed(4));
        let config = NetworkConfig::builder(data.train.feature_dim(), data.train.label_dim())
            .hidden(16)
            .output_lsh(LshLayerConfig::simhash(3, 8))
            .seed(5)
            .build()
            .unwrap();
        let network = Network::new(config).unwrap();
        (network.to_snapshot_bytes(), data)
    }

    fn shard_opts() -> ServeOptions {
        ServeOptions::default()
            .with_top_k(3)
            .with_dense_fallback(false)
    }

    /// Slices `bytes` `n` ways and brings up one HttpServer per shard
    /// plus a router over them.
    fn cluster(bytes: &[u8], n: usize) -> (Vec<HttpServer>, Router) {
        let slices = slide_core::snapshot::slice_snapshot(bytes, n).unwrap();
        let mut servers = Vec::new();
        let mut addrs = Vec::new();
        for s in &slices {
            let engine = ServingEngine::from_slice_bytes(s, shard_opts()).unwrap();
            let handle = Arc::new(EngineHandle::new(engine));
            let server = HttpServer::serve(handle, "127.0.0.1:0", HttpOptions::default()).unwrap();
            addrs.push(server.local_addr());
            servers.push(server);
        }
        let router =
            Router::serve("127.0.0.1:0", addrs, RouterOptions::default().with_top_k(3)).unwrap();
        (servers, router)
    }

    #[test]
    fn merged_answers_equal_the_single_box_bit_for_bit() {
        let (bytes, data) = tiny_snapshot();
        let single = ServingEngine::from_snapshot_bytes(&bytes, shard_opts()).unwrap();
        for n in [1usize, 3] {
            let (servers, router) = cluster(&bytes, n);
            let mut client = Client::connect(router.local_addr()).unwrap();
            for ex in data.test.iter().take(12) {
                let want = single.predict(&ex.features).unwrap();
                let got = client.predict(&ex.features, None).unwrap();
                assert_eq!(got.predictions.len(), 1);
                let p = &got.predictions[0];
                let want_items = want.topk.items();
                assert_eq!(
                    p.classes,
                    want_items.iter().map(|&(c, _)| c).collect::<Vec<_>>()
                );
                let want_bits: Vec<u32> = want_items.iter().map(|&(_, s)| s.to_bits()).collect();
                let got_bits: Vec<u32> = p.scores.iter().map(|s| s.to_bits()).collect();
                assert_eq!(
                    got_bits, want_bits,
                    "scores must survive the wire bit-exactly"
                );
            }
            assert!(router.stats().merged >= 12);
            drop(client);
            router.shutdown();
            for s in servers {
                s.shutdown();
            }
        }
    }

    #[test]
    fn router_endpoints_and_typed_errors() {
        let (bytes, data) = tiny_snapshot();
        let (servers, router) = cluster(&bytes, 2);
        let mut client = Client::connect(router.local_addr()).unwrap();
        // healthz / readyz / stats all answer.
        assert_eq!(client.healthz().unwrap().epoch, 1);
        assert!(client.readyz().unwrap());
        let stats = client.stats_json().unwrap();
        assert_eq!(
            stats.get("role").and_then(crate::json::Json::as_str),
            Some("router")
        );
        assert_eq!(
            stats.get("shards").and_then(crate::json::Json::as_u64),
            Some(2)
        );
        // A shard's 4xx relays verbatim: k too large for the FULL model.
        let total = data.train.label_dim();
        match client.predict(&data.test.examples()[0].features, Some(total + 1)) {
            Err(ClientError::Api { status, code, .. }) => {
                assert_eq!(status, 422);
                assert_eq!(code, "invalid_top_k");
            }
            other => panic!("expected relayed 422, got {other:?}"),
        }
        // Malformed body dies at the router with the typed 400.
        let (status, body) = client
            .request("POST", "/v1/predict", Some("{\"nope\":1}"))
            .unwrap();
        assert_eq!(status, 400);
        assert_eq!(wire::decode_error_body(&body).0, "bad_request");
        // Unknown route and wrong method.
        let (status, _) = client.request("GET", "/nope", None).unwrap();
        assert_eq!(status, 404);
        let (status, body) = client.request("DELETE", "/v1/predict", None).unwrap();
        assert_eq!(status, 405);
        assert_eq!(wire::decode_error_body(&body).0, "method_not_allowed");
        // The router exposes no reload: shards reload individually.
        let (status, _) = client
            .request("POST", "/v1/reload", Some("{\"path\":\"x\"}"))
            .unwrap();
        assert_eq!(status, 404);
        drop(client);
        router.shutdown();
        for s in servers {
            s.shutdown();
        }
    }

    #[test]
    fn dead_shard_turns_predict_into_shard_unavailable() {
        let (bytes, data) = tiny_snapshot();
        let (mut servers, router) = cluster(&bytes, 2);
        // Kill shard 1; its address now refuses connections.
        servers.remove(1).shutdown();
        let mut client = Client::connect(router.local_addr()).unwrap();
        match client.predict(&data.test.examples()[0].features, None) {
            Err(ClientError::Api { status, code, .. }) => {
                assert_eq!(status, 503);
                assert_eq!(code, "shard_unavailable");
            }
            other => panic!("expected 503 shard_unavailable, got {other:?}"),
        }
        // readyz reflects the outage; healthz stays alive.
        assert!(!client.readyz().unwrap());
        assert_eq!(client.healthz().unwrap().epoch, 1);
        assert!(router.stats().shard_errors >= 1);
        drop(client);
        router.shutdown();
        for s in servers {
            s.shutdown();
        }
    }

    /// The router answers transport faults exactly like a single box:
    /// each raw request below gets its typed error and then a close.
    #[test]
    fn router_transport_matches_the_single_box() {
        let (bytes, _) = tiny_snapshot();
        let (servers, router) = cluster(&bytes, 2);
        let limit = HttpOptions::default().max_body_bytes;
        let cases: [(&str, String, u16, &str, String); 3] = [
            (
                "garbage request line",
                "GARBAGE\r\n\r\n".into(),
                400,
                "bad_request",
                String::new(),
            ),
            (
                "header line past MAX_LINE_BYTES",
                format!(
                    "GET /healthz HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
                    "a".repeat(MAX_LINE_BYTES)
                ),
                400,
                "bad_request",
                String::new(),
            ),
            (
                "declared body past the transport limit",
                format!(
                    "POST /v1/predict HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                    limit + 1
                ),
                413,
                "payload_too_large",
                limit.to_string(),
            ),
        ];
        for (name, request, want_status, want_code, want_in_message) in cases {
            let stream = TcpStream::connect(router.local_addr()).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            let mut writer = stream.try_clone().unwrap();
            let mut reader = BufReader::new(stream);
            writer.write_all(request.as_bytes()).unwrap();
            let (status, _, body) =
                read_response(&mut reader).unwrap_or_else(|| panic!("{name}: no answer"));
            let (code, message) = wire::decode_error_body(&body);
            assert_eq!((status, code.as_str()), (want_status, want_code), "{name}");
            assert!(message.contains(&want_in_message), "{name}: {message}");
            let mut rest = Vec::new();
            reader.read_to_end(&mut rest).unwrap();
            assert!(rest.is_empty(), "{name}: error answers close");
        }

        // Shutdown closes an idle keep-alive client and frees the port.
        let addr = router.local_addr();
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        writer.write_all(b"GET /v1/stats HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(read_response(&mut reader).unwrap().0, 200);
        router.shutdown();
        let mut rest = Vec::new();
        reader.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty(), "shutdown closes the idle connection");
        assert!(TcpListener::bind(addr).is_ok());
        for s in servers {
            s.shutdown();
        }
    }

    /// A three-shard router answers three pipelined predicts, written in
    /// one `write`, in request order — each bit-identical to the
    /// unsliced engine.
    #[test]
    fn pipelined_predicts_answer_in_order_bit_for_bit() {
        let (bytes, data) = tiny_snapshot();
        let single = ServingEngine::from_snapshot_bytes(&bytes, shard_opts()).unwrap();
        let (servers, router) = cluster(&bytes, 3);
        let inputs: Vec<_> = data.test.iter().take(3).map(|ex| &ex.features).collect();
        let mut burst = String::new();
        for features in &inputs {
            let body = wire::encode_predict_request(&PredictRequest {
                inputs: vec![(*features).clone()],
                top_k: None,
            });
            burst.push_str(&format!(
                "POST /v1/predict HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            ));
        }
        let stream = TcpStream::connect(router.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        writer.write_all(burst.as_bytes()).unwrap();
        for (i, features) in inputs.iter().enumerate() {
            let (status, _, body) = read_response(&mut reader).expect("answer");
            assert_eq!(status, 200, "request {i}: {body}");
            let got = wire::decode_predict_response(&body).unwrap();
            let want = single.predict(features).unwrap();
            let want_items = want.topk.items();
            let p = &got.predictions[0];
            assert_eq!(
                p.classes,
                want_items.iter().map(|&(c, _)| c).collect::<Vec<_>>(),
                "request {i}"
            );
            assert_eq!(
                p.scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
                want_items
                    .iter()
                    .map(|&(_, s)| s.to_bits())
                    .collect::<Vec<_>>(),
                "request {i}"
            );
        }
        // Shard links are the router's own, not clients.
        assert_eq!(router.transport.stats().current_connections, 1);
        drop(writer);
        router.shutdown();
        for s in servers {
            s.shutdown();
        }
    }

    /// What a stand-in shard did, in order.
    #[derive(Debug, PartialEq, Eq)]
    enum StubEvent {
        Accepted,
        Closed,
    }

    /// A stand-in shard: one thread that accepts `connections`
    /// connections one after another, hands each request's stream to
    /// `answer`, and reads on until the router closes the connection.
    /// Reports accepts and closes; join it once the router is down.
    fn stub_shard(
        connections: usize,
        answer: fn(&mut TcpStream),
    ) -> (SocketAddr, mpsc::Receiver<StubEvent>, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (tx, rx) = mpsc::channel();
        let thread = std::thread::spawn(move || {
            for stream in listener.incoming().take(connections) {
                let mut stream = stream.unwrap();
                tx.send(StubEvent::Accepted).unwrap();
                let mut parser = RequestParser::new(1 << 20);
                let mut buf = [0u8; 4096];
                loop {
                    let n = match stream.read(&mut buf) {
                        Ok(0) | Err(_) => break,
                        Ok(n) => n,
                    };
                    let mut rest = &buf[..n];
                    while !rest.is_empty() {
                        let (used, status) = parser.advance(rest);
                        rest = &rest[used..];
                        if let ParseStatus::Request(_) = status {
                            answer(&mut stream);
                        }
                    }
                }
                tx.send(StubEvent::Closed).unwrap();
            }
        });
        (addr, rx, thread)
    }

    fn stub_router(shard: SocketAddr, merge_timeout: Duration) -> Router {
        let options = RouterOptions::default()
            .with_top_k(3)
            .with_merge_timeout(merge_timeout);
        Router::serve("127.0.0.1:0", vec![shard], options).unwrap()
    }

    /// A raw keep-alive connection to `addr`: `(writer, reader)`.
    fn raw(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        (stream.try_clone().unwrap(), BufReader::new(stream))
    }

    const PREDICT: &str = "POST /v1/predict HTTP/1.1\r\nContent-Length: 30\r\n\r\n\
                           {\"indices\":[0],\"values\":[1.0]}";

    /// A shard whose prediction pairs 3 classes with 2 scores is broken:
    /// the router refuses to merge a truncated list and answers the
    /// typed `503`.
    #[test]
    fn classes_and_scores_of_different_lengths_are_shard_unavailable() {
        let (shard, _events, stub) = stub_shard(1, |stream| {
            let body = "{\"api_version\":1,\"epoch\":1,\"predictions\":\
                        [{\"classes\":[1,2,3],\"scores\":[0.5,0.25],\"latency_us\":1}]}";
            let head = format!("HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n", body.len());
            stream.write_all(format!("{head}{body}").as_bytes()).ok();
        });
        let router = stub_router(shard, Duration::from_secs(5));
        let (mut writer, mut reader) = raw(router.local_addr());
        writer.write_all(PREDICT.as_bytes()).unwrap();
        let (status, _, body) = read_response(&mut reader).expect("answer");
        assert_eq!(
            (status, wire::decode_error_body(&body).0.as_str()),
            (503, "shard_unavailable"),
            "{body}"
        );
        assert_eq!(router.stats().merged, 0);
        assert_eq!(router.stats().shard_errors, 1);
        router.shutdown();
        stub.join().unwrap();
    }

    /// A shard that reads but never answers: `504 merge_timeout` no
    /// sooner than the deadline and within a second of it, the stuck
    /// link is closed rather than reused, and the client's connection
    /// stays open.
    #[test]
    fn a_silent_shard_is_a_typed_merge_timeout() {
        let deadline = Duration::from_millis(300);
        let (shard, events, stub) = stub_shard(2, |_| {});
        let router = stub_router(shard, deadline);
        let (mut writer, mut reader) = raw(router.local_addr());
        let wait = Duration::from_secs(5);
        for round in 1..=2 {
            let t0 = Instant::now();
            writer.write_all(PREDICT.as_bytes()).unwrap();
            let (status, _, body) = read_response(&mut reader).expect("answer");
            let elapsed = t0.elapsed();
            assert_eq!(
                (status, wire::decode_error_body(&body).0.as_str()),
                (504, "merge_timeout"),
                "{body}"
            );
            assert!(
                elapsed >= deadline && elapsed <= deadline + Duration::from_secs(1),
                "answered after {elapsed:?}"
            );
            assert_eq!(router.stats().shard_errors, round);
            // Each round dials a fresh link, and the stuck one closes.
            assert_eq!(events.recv_timeout(wait), Ok(StubEvent::Accepted));
            assert_eq!(events.recv_timeout(wait), Ok(StubEvent::Closed));
        }
        writer.write_all(b"GET /v1/stats HTTP/1.1\r\n\r\n").unwrap();
        let (status, _, body) = read_response(&mut reader).expect("stats on the same connection");
        assert_eq!(status, 200);
        assert!(body.contains("\"shard_errors\":2"), "{body}");
        router.shutdown();
        stub.join().unwrap();
    }

    /// A shard that hangs up halfway through its answer is unavailable,
    /// not a timeout and not a partial merge.
    #[test]
    fn a_shard_closing_mid_response_is_shard_unavailable() {
        let (shard, _events, stub) = stub_shard(1, |stream| {
            stream
                .write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n{\"api_ver")
                .ok();
            stream.shutdown(std::net::Shutdown::Both).ok();
        });
        let router = stub_router(shard, Duration::from_secs(5));
        let (mut writer, mut reader) = raw(router.local_addr());
        let t0 = Instant::now();
        writer.write_all(PREDICT.as_bytes()).unwrap();
        let (status, _, body) = read_response(&mut reader).expect("answer");
        assert_eq!(
            (status, wire::decode_error_body(&body).0.as_str()),
            (503, "shard_unavailable"),
            "{body}"
        );
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "no wait for the deadline"
        );
        router.shutdown();
        stub.join().unwrap();
    }
}
