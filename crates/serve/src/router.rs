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
//! single box's with [`HttpOptions::default`]. What lives here is only
//! the route table, the all-or-nothing scatter over shard [`Client`]s,
//! and the [`TopK`] merge.
//!
//! Failure policy is all-or-nothing: a partial merge would silently
//! drop one shard's classes, so an unreachable (or 5xx) shard turns the
//! whole request into a typed `503 shard_unavailable`, and a shard
//! slower than [`RouterOptions::merge_timeout`] into `504
//! merge_timeout`. A shard's own `4xx` (bad request, invalid `top_k`)
//! is relayed verbatim — shard engines validate against the *full*
//! model's class count, so their rejections read exactly like a single
//! box's.
//!
//! Endpoints mirror the single-box server's: `POST /v1/predict`,
//! `GET /healthz` (min epoch over reachable shards), `GET /readyz`
//! (ready only when *every* shard is), `GET /v1/stats` (router-role
//! counters). [`crate::client::Client`] speaks to a router unchanged.

use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use slide_core::TopK;

use crate::client::{Client, ClientError};
use crate::engine::ServeOptions;
use crate::error::ServeError;
use crate::http::{Answer, Backend, HttpOptions, HttpStats, Transport};
use crate::wire::{self, PredictRequest, PredictResponse, WirePrediction};

/// Tuning for a [`Router`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouterOptions {
    /// Classes per merged answer when the request carries no `top_k`.
    /// Must match the shard engines' [`ServeOptions::top_k`] for merged
    /// defaults to equal a single box's.
    pub top_k: usize,
    /// Deadline for any single shard's answer within one fan-out.
    /// Scatter is parallel, so the slowest shard bounds the merge; past
    /// this the request fails typed `504 merge_timeout`.
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

    /// Sets the per-shard merge deadline (builder style).
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
    /// Shard round-trips that failed (transport, timeout, or 5xx).
    pub shard_errors: u64,
    /// Responses by status class.
    pub responses_2xx: u64,
    /// 4xx responses (router-typed or relayed from a shard).
    pub responses_4xx: u64,
    /// 5xx responses (including `503 shard_unavailable` and
    /// `504 merge_timeout`).
    pub responses_5xx: u64,
}

/// A set of keep-alive shard clients: slot `i` talks to shard `i` and
/// is dialed on first use.
type ShardSet = Vec<Option<Client>>;

/// How long a shard set may sit idle and still be reused: half a
/// shard's default idle sweep ([`HttpOptions::read_timeout`]), so a
/// reused connection has not been closed under the router.
const SHARD_SET_MAX_IDLE: Duration = Duration::from_secs(15);

/// The router's back-end state, shared by the transport's event loops
/// and the one-off threads that run fan-outs.
pub(crate) struct Fleet {
    shards: Vec<SocketAddr>,
    options: RouterOptions,
    /// Shard sets between requests, each stamped with when it came back.
    /// A stack: the newest set is reused first, so a steady load keeps
    /// re-using warm sockets and the stamps ascend bottom to top.
    idle: Mutex<Vec<(Instant, ShardSet)>>,
    merged: AtomicU64,
    shard_errors: AtomicU64,
}

/// The scatter-gather front door over a fleet of shard servers.
///
/// Served by the same event-loop transport as [`crate::http::HttpServer`];
/// each blocking fan-out runs on a one-off thread, through a keep-alive
/// shard connection set taken from a shared idle stack, so busy traffic
/// re-uses warm sockets end to end.
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
            idle: Mutex::new(Vec::new()),
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
    /// connection, and joins the transport's threads.
    pub fn shutdown(mut self) {
        self.transport.stop();
    }
}

impl Fleet {
    /// The router's route table. Fan-outs block on shard round trips, so
    /// they come back as [`Answer::Later`] for the transport to run off
    /// its event loop; everything else answers at once. `http` reads the
    /// transport's counters for `/v1/stats`.
    pub(crate) fn route(
        self: &Arc<Self>,
        method: &str,
        path: &str,
        body: String,
        http: impl FnOnce() -> HttpStats,
    ) -> Answer {
        let fleet = Arc::clone(self);
        match (method, path.split('?').next().unwrap_or("")) {
            // Decode locally first so malformed bodies die here with the
            // same typed 400 a single box gives, without burning a
            // fan-out.
            ("POST", "/v1/predict") => match wire::decode_predict_request(&body) {
                Ok(req) => Answer::Later(Box::new(move || fleet.predict(&req, &body))),
                Err(e) => self.error_answer(&e),
            },
            ("GET", "/healthz") => Answer::Later(Box::new(move || fleet.healthz())),
            ("GET", "/readyz") => Answer::Later(Box::new(move || fleet.readyz())),
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
    // Shard fan-out.

    /// The newest idle shard set, or an undialed one. A stale top means
    /// every set is stale (the stamps ascend), so all of them go.
    fn checkout(&self) -> ShardSet {
        let mut idle = self.idle.lock().unwrap_or_else(PoisonError::into_inner);
        match idle.pop() {
            Some((returned, set)) if returned.elapsed() < SHARD_SET_MAX_IDLE => set,
            stale => {
                if stale.is_some() {
                    idle.clear();
                }
                self.shards.iter().map(|_| None).collect()
            }
        }
    }

    fn checkin(&self, set: ShardSet) {
        self.idle
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push((Instant::now(), set));
    }

    /// Fans one request over every shard in parallel and collects the
    /// replies in shard order. The calling thread runs shard 0's round
    /// trip itself; every other shard gets one scoped thread.
    fn scatter(&self, method: &str, path: &str, body: Option<&str>) -> Vec<ShardReply> {
        let timeout = self.options.merge_timeout;
        let mut set = self.checkout();
        let replies = std::thread::scope(|s| {
            let mut slots = set.iter_mut().zip(&self.shards);
            let first = slots.next();
            let handles: Vec<_> = slots
                .map(|(slot, &addr)| {
                    s.spawn(move || shard_roundtrip(slot, addr, timeout, method, path, body))
                })
                .collect();
            let mut replies = Vec::with_capacity(self.shards.len());
            if let Some((slot, &addr)) = first {
                replies.push(shard_roundtrip(slot, addr, timeout, method, path, body));
            }
            replies.extend(
                handles
                    .into_iter()
                    .map(|h| h.join().unwrap_or(ShardReply::Unreachable)),
            );
            replies
        });
        // Back on the stack before the answer posts, so a client's next
        // request finds these warm sockets.
        self.checkin(set);
        replies
    }

    // -----------------------------------------------------------------
    // Endpoints.

    fn predict(&self, req: &PredictRequest, body: &str) -> (u16, String) {
        let replies = self.scatter("POST", "/v1/predict", Some(body));
        // All-or-nothing gather: relay a shard's own 4xx verbatim (its
        // validation is the full model's), refuse to merge around any
        // missing or failed shard.
        let mut bodies: Vec<&str> = Vec::with_capacity(replies.len());
        for (i, reply) in replies.iter().enumerate() {
            match reply {
                ShardReply::Answer(status, shard_body) => {
                    if (400..500).contains(status) {
                        return (*status, shard_body.clone());
                    }
                    if !(200..300).contains(status) {
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
                // size) is a broken shard, not a client error.
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

    fn healthz(&self) -> (u16, String) {
        // Liveness: the router itself answers as long as it runs; the
        // epoch reported is the fleet's trailing edge (the smallest epoch
        // any reachable shard serves), 0 when no shard is reachable.
        let replies = self.scatter("GET", "/healthz", None);
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

    fn readyz(&self) -> (u16, String) {
        // Readiness is strict: a merged answer needs EVERY shard, so one
        // not-ready (or unreachable) shard makes the whole router not
        // ready, typed with the shard index so operators know where to
        // look.
        let replies = self.scatter("GET", "/readyz", None);
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

enum ShardReply {
    Answer(u16, String),
    TimedOut,
    Unreachable,
}

/// One blocking shard round-trip through a keep-alive slot, dialing on
/// first use (and re-dialing after a transport error, which `Client`
/// surfaces by dropping its broken connection).
fn shard_roundtrip(
    slot: &mut Option<Client>,
    addr: SocketAddr,
    timeout: Duration,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> ShardReply {
    if slot.is_none() {
        match Client::connect(addr) {
            Ok(c) => *slot = Some(c.with_read_timeout(timeout)),
            Err(_) => return ShardReply::Unreachable,
        }
    }
    let Some(client) = slot.as_mut() else {
        return ShardReply::Unreachable;
    };
    match client.request(method, path, body) {
        Ok((status, body)) => ShardReply::Answer(status, body),
        Err(ClientError::Io(e))
            if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) =>
        {
            // The connection's read stream is now mid-response garbage;
            // force a fresh dial next time.
            *slot = None;
            ShardReply::TimedOut
        }
        Err(_) => {
            *slot = None;
            ShardReply::Unreachable
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufReader, Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::sync::Arc;

    use slide_core::config::{LshLayerConfig, NetworkConfig};
    use slide_core::Network;
    use slide_data::synth::{generate, SyntheticConfig, SyntheticData};

    use crate::conn::MAX_LINE_BYTES;
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
}
