//! A minimal blocking HTTP/1.1 client for the `v1` service API.
//!
//! Dependency-free like the server, it exists so examples, tests, and
//! the `serve_rpc` bench can drive a running [`crate::http::HttpServer`]
//! over a real socket with typed requests and responses. One [`Client`]
//! holds one keep-alive connection and transparently reconnects once if
//! the server closed it between requests (idle timeout, restart).
//! Responses are read by the server's own framing
//! ([`crate::conn::read_response`]), under the server's default body
//! limit.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};

use slide_data::SparseVector;

use crate::conn::{self, ParsedResponse, ResponseParser};
use crate::http::HttpOptions;
use crate::json::{self, Json};
use crate::wire::{self, PredictRequest, PredictResponse};

/// Client-side failure talking to the service.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure (after the one reconnect attempt).
    Io(std::io::Error),
    /// The peer's bytes were not parseable as HTTP or as the wire
    /// schema.
    Protocol(String),
    /// The service answered with a non-2xx status and a wire
    /// `ErrorBody`.
    Api {
        /// HTTP status.
        status: u16,
        /// Machine-readable code from the error body.
        code: String,
        /// Human-readable message from the error body.
        message: String,
    },
    /// The service rejected the request with backpressure (`429`).
    /// Distinct from [`ClientError::Api`] so callers can branch on
    /// "wait and retry" without string-matching a code.
    Overloaded {
        /// Seconds the `Retry-After` header asked us to wait, when the
        /// server sent one.
        retry_after_secs: Option<u64>,
        /// Human-readable message from the error body.
        message: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol: {m}"),
            ClientError::Api {
                status,
                code,
                message,
            } => write!(f, "api error {status} ({code}): {message}"),
            ClientError::Overloaded {
                retry_after_secs,
                message,
            } => match retry_after_secs {
                Some(secs) => write!(f, "overloaded: {message} (retry after {secs}s)"),
                None => write!(f, "overloaded: {message}"),
            },
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Decoded `/healthz` answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Health {
    /// The model epoch currently serving.
    pub epoch: u64,
}

/// Capped exponential backoff with jitter for retrying
/// [`ClientError::Overloaded`] (`429`) answers.
///
/// Opt-in via [`Client::with_retry_policy`]; without one the client
/// never retries a 429 — backpressure is the caller's signal by default.
/// The wait before retry `n` (0-based) is
/// `max(base_delay · 2ⁿ, Retry-After)`, jittered by a deterministic
/// multiplicative factor in `[1 − jitter, 1 + jitter]`, and capped at
/// [`RetryPolicy::max_delay`] — the cap applies even to a
/// server-advertised `Retry-After` larger than it, so one bad header
/// cannot stall a client for minutes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Most retries after the initial attempt.
    pub max_retries: u32,
    /// Backoff base: the pre-jitter wait before the first retry.
    pub base_delay: std::time::Duration,
    /// Hard cap on any single wait (including `Retry-After`).
    pub max_delay: std::time::Duration,
    /// Jitter fraction in `[0, 1]`: each wait is scaled by a factor in
    /// `[1 − jitter, 1 + jitter]` so a fleet of rejected clients does
    /// not retry in lockstep.
    pub jitter: f64,
    /// Seed for the deterministic jitter stream (tests pin it).
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 3,
            base_delay: std::time::Duration::from_millis(25),
            max_delay: std::time::Duration::from_secs(2),
            jitter: 0.2,
            seed: 0x51DE,
        }
    }
}

impl RetryPolicy {
    /// Sets the retry cap (builder style).
    pub fn with_max_retries(mut self, max_retries: u32) -> Self {
        self.max_retries = max_retries;
        self
    }

    /// Sets the backoff base and cap (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `base > max`.
    pub fn with_delays(mut self, base: std::time::Duration, max: std::time::Duration) -> Self {
        assert!(base <= max, "base delay must not exceed the cap");
        self.base_delay = base;
        self.max_delay = max;
        self
    }

    /// Sets the jitter fraction (builder style).
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 ≤ jitter ≤ 1.0`.
    pub fn with_jitter(mut self, jitter: f64) -> Self {
        assert!((0.0..=1.0).contains(&jitter), "jitter must be in [0, 1]");
        self.jitter = jitter;
        self
    }

    /// The pre-jitter wait before 0-based retry `attempt`, honoring the
    /// server's `Retry-After` (if any) up to [`RetryPolicy::max_delay`].
    fn wait_before(&self, attempt: u32, retry_after_secs: Option<u64>) -> std::time::Duration {
        let backoff = self
            .base_delay
            .saturating_mul(1u32.checked_shl(attempt).unwrap_or(u32::MAX));
        let advertised = retry_after_secs
            .map(std::time::Duration::from_secs)
            .unwrap_or(std::time::Duration::ZERO);
        backoff.max(advertised).min(self.max_delay)
    }
}

/// One keep-alive socket: requests are written through `reader`'s
/// stream, responses parsed out of its buffer.
struct Conn {
    reader: BufReader<TcpStream>,
    parser: ResponseParser,
}

/// One keep-alive connection to a serving front-end.
pub struct Client {
    addr: SocketAddr,
    conn: Option<Conn>,
    retry: Option<RetryPolicy>,
    /// xorshift64 state for the retry jitter.
    jitter_state: u64,
    retries_attempted: u64,
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client").field("addr", &self.addr).finish()
    }
}

impl Client {
    /// Connects to `addr`.
    ///
    /// # Errors
    ///
    /// Returns the connect error.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let mut c = Self {
            addr,
            conn: None,
            retry: None,
            jitter_state: 1,
            retries_attempted: 0,
        };
        c.reconnect()?;
        Ok(c)
    }

    /// Attaches a [`RetryPolicy`]: typed requests that come back
    /// [`ClientError::Overloaded`] are retried with capped exponential
    /// backoff + jitter, honoring the server's `Retry-After`.
    pub fn with_retry_policy(mut self, policy: RetryPolicy) -> Self {
        // xorshift needs a non-zero state.
        self.jitter_state = policy.seed | 1;
        self.retry = Some(policy);
        self
    }

    /// Backoff retries performed so far (429s replayed under the
    /// [`RetryPolicy`]).
    pub fn retries_attempted(&self) -> u64 {
        self.retries_attempted
    }

    /// The next jitter factor in `[1 − j, 1 + j]` from the deterministic
    /// xorshift64 stream.
    fn jitter_factor(&mut self, jitter: f64) -> f64 {
        let mut x = self.jitter_state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.jitter_state = x;
        let unit = (x >> 11) as f64 / (1u64 << 53) as f64;
        1.0 - jitter + 2.0 * jitter * unit
    }

    fn reconnect(&mut self) -> std::io::Result<()> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true).ok();
        self.conn = Some(Conn {
            reader: BufReader::new(stream),
            parser: ResponseParser::new(HttpOptions::default().max_body_bytes),
        });
        Ok(())
    }

    /// Sends one request and returns `(status, body)`. Reuses the
    /// keep-alive connection. Only `GET`s are retried on a fresh
    /// connection after a transport failure: a failed non-idempotent
    /// request may already have been executed server-side (the response
    /// was lost, not necessarily the request), so replaying it is the
    /// caller's decision. The typed `predict*` helpers opt into the
    /// retry because prediction is pure; [`Client::reload`] never
    /// retries.
    ///
    /// # Errors
    ///
    /// Returns [`ClientError::Io`] / [`ClientError::Protocol`] on
    /// transport failures. Non-2xx statuses are returned as `Ok`; typed
    /// helpers layer [`ClientError::Api`] on top.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<(u16, String), ClientError> {
        self.request_with_retry(method, path, body, method.eq_ignore_ascii_case("GET"))
    }

    fn request_with_retry(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
        retry: bool,
    ) -> Result<(u16, String), ClientError> {
        self.request_full(method, path, body, retry)
            .map(|r| (r.status, r.body))
    }

    fn request_full(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
        retry: bool,
    ) -> Result<ParsedResponse, ClientError> {
        match self.try_request(method, path, body) {
            Ok(r) => Ok(r),
            Err(ClientError::Io(_)) | Err(ClientError::Protocol(_)) if retry => {
                // One retry on a fresh connection (try_request dropped
                // the broken one).
                self.reconnect()?;
                self.try_request(method, path, body)
            }
            Err(e) => Err(e),
        }
    }

    fn try_request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<ParsedResponse, ClientError> {
        if self.conn.is_none() {
            self.reconnect()?;
        }
        let result = {
            let conn = self.conn.as_mut().expect("connected above");
            Self::roundtrip(conn, method, path, body)
        };
        match result {
            Ok(response) => {
                if !response.keep_alive {
                    self.conn = None;
                }
                Ok(response)
            }
            Err(e) => {
                // A broken connection is stale state: drop it so the
                // caller (or the retry above) starts clean.
                self.conn = None;
                Err(e)
            }
        }
    }

    fn roundtrip(
        conn: &mut Conn,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<ParsedResponse, ClientError> {
        let body = body.unwrap_or("");
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: slide\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n",
            body.len()
        );
        let mut stream = conn.reader.get_ref();
        stream.write_all(head.as_bytes())?;
        stream.write_all(body.as_bytes())?;

        conn::read_response(&mut conn.parser, &mut conn.reader).map_err(|e| {
            if e.kind() == std::io::ErrorKind::InvalidData {
                ClientError::Protocol(e.to_string())
            } else {
                ClientError::Io(e)
            }
        })
    }

    fn expect_2xx(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
        retry: bool,
    ) -> Result<String, ClientError> {
        let mut attempt = 0u32;
        loop {
            match self.expect_2xx_once(method, path, body, retry) {
                Err(ClientError::Overloaded {
                    retry_after_secs,
                    message,
                }) => {
                    let Some(policy) = self.retry else {
                        return Err(ClientError::Overloaded {
                            retry_after_secs,
                            message,
                        });
                    };
                    if attempt >= policy.max_retries {
                        return Err(ClientError::Overloaded {
                            retry_after_secs,
                            message,
                        });
                    }
                    let wait = policy
                        .wait_before(attempt, retry_after_secs)
                        .mul_f64(self.jitter_factor(policy.jitter))
                        .min(policy.max_delay);
                    std::thread::sleep(wait);
                    self.retries_attempted += 1;
                    attempt += 1;
                }
                other => return other,
            }
        }
    }

    fn expect_2xx_once(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
        retry: bool,
    ) -> Result<String, ClientError> {
        let response = self.request_full(method, path, body, retry)?;
        if (200..300).contains(&response.status) {
            Ok(response.body)
        } else {
            let (code, message) = wire::decode_error_body(&response.body);
            if response.status == 429 {
                return Err(ClientError::Overloaded {
                    retry_after_secs: response.retry_after,
                    message,
                });
            }
            Err(ClientError::Api {
                status: response.status,
                code,
                message,
            })
        }
    }

    /// `GET /healthz`.
    ///
    /// # Errors
    ///
    /// Transport failures or a non-2xx answer.
    pub fn healthz(&mut self) -> Result<Health, ClientError> {
        let body = self.expect_2xx("GET", "/healthz", None, true)?;
        let v =
            json::parse(&body).map_err(|e| ClientError::Protocol(format!("healthz body: {e}")))?;
        let epoch = v
            .get("epoch")
            .and_then(Json::as_u64)
            .ok_or_else(|| ClientError::Protocol("healthz missing epoch".into()))?;
        Ok(Health { epoch })
    }

    /// `GET /readyz`: `Ok(true)` when the server is ready to take
    /// traffic, `Ok(false)` when it answered 503 (draining, or too many
    /// consecutive reload failures).
    ///
    /// # Errors
    ///
    /// Transport failures only — a not-ready answer is data, not an
    /// error.
    pub fn readyz(&mut self) -> Result<bool, ClientError> {
        let (status, _body) = self.request("GET", "/readyz", None)?;
        Ok((200..300).contains(&status))
    }

    /// `POST /v1/predict` with one input.
    ///
    /// # Errors
    ///
    /// Transport failures or a non-2xx answer ([`ClientError::Api`]).
    pub fn predict(
        &mut self,
        features: &SparseVector,
        top_k: Option<usize>,
    ) -> Result<PredictResponse, ClientError> {
        self.predict_batch(std::slice::from_ref(features), top_k)
    }

    /// `POST /v1/predict` with a batch of inputs (a single input uses
    /// the wire's single form).
    ///
    /// # Errors
    ///
    /// Transport failures or a non-2xx answer ([`ClientError::Api`]).
    pub fn predict_batch(
        &mut self,
        features: &[SparseVector],
        top_k: Option<usize>,
    ) -> Result<PredictResponse, ClientError> {
        let req = PredictRequest {
            inputs: features.to_vec(),
            top_k,
        };
        let body = wire::encode_predict_request(&req);
        // Prediction is a pure function of the snapshot, so replaying it
        // after a broken keep-alive connection is safe.
        let resp = self.expect_2xx("POST", "/v1/predict", Some(&body), true)?;
        wire::decode_predict_response(&resp)
            .map_err(|e| ClientError::Protocol(format!("predict body: {e}")))
    }

    /// `POST /v1/reload` with a snapshot path; returns the new epoch.
    ///
    /// # Errors
    ///
    /// Transport failures or a non-2xx answer ([`ClientError::Api`]).
    pub fn reload(&mut self, snapshot_path: &str) -> Result<u64, ClientError> {
        let mut body = String::from("{\"path\":");
        json::push_escaped(&mut body, snapshot_path);
        body.push('}');
        // Never auto-replayed: a lost response does not mean a lost
        // request, and a duplicate reload swaps the engine twice.
        let resp = self.expect_2xx("POST", "/v1/reload", Some(&body), false)?;
        let v =
            json::parse(&resp).map_err(|e| ClientError::Protocol(format!("reload body: {e}")))?;
        v.get("epoch")
            .and_then(Json::as_u64)
            .ok_or_else(|| ClientError::Protocol("reload missing epoch".into()))
    }

    /// `GET /v1/stats`, parsed as raw JSON.
    ///
    /// # Errors
    ///
    /// Transport failures or a non-2xx answer.
    pub fn stats_json(&mut self) -> Result<Json, ClientError> {
        let body = self.expect_2xx("GET", "/v1/stats", None, true)?;
        json::parse(&body).map_err(|e| ClientError::Protocol(format!("stats body: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufRead;
    use std::net::TcpListener;
    use std::time::Duration;

    /// A canned one-response-per-connection server: reads one request
    /// head, writes the scripted response verbatim, closes.
    fn scripted_server(responses: Vec<String>) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            for response in responses {
                let (mut stream, _) = listener.accept().unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                loop {
                    let mut line = String::new();
                    if reader.read_line(&mut line).unwrap_or(0) == 0 || line.trim_end().is_empty() {
                        break;
                    }
                }
                stream.write_all(response.as_bytes()).unwrap();
            }
        });
        addr
    }

    #[test]
    fn a_429_maps_to_the_typed_overloaded_error() {
        let body = "{\"error\":{\"code\":\"overloaded\",\"message\":\"queue full\"}}";
        let addr = scripted_server(vec![format!(
            "HTTP/1.1 429 Too Many Requests\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\nConnection: keep-alive\r\nRetry-After: 7\r\n\r\n{}",
            body.len(),
            body
        )]);
        let mut client = Client::connect(addr).unwrap();
        match client.healthz() {
            Err(ClientError::Overloaded {
                retry_after_secs,
                message,
            }) => {
                assert_eq!(retry_after_secs, Some(7));
                assert_eq!(message, "queue full");
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
    }

    #[test]
    fn a_declared_body_past_the_limit_is_refused_before_allocation() {
        // The first declaration overflows any allocation; the second is
        // one byte past the server's own body limit. Neither may panic
        // or reserve the declared bytes: both are typed protocol errors.
        let limit = HttpOptions::default().max_body_bytes;
        let declared = [u64::MAX, limit as u64 + 1];
        let addr = scripted_server(
            declared
                .iter()
                .map(|n| format!("HTTP/1.1 200 OK\r\nContent-Length: {n}\r\n\r\n"))
                .collect(),
        );
        let mut client = Client::connect(addr).unwrap();
        for n in declared {
            // A POST, so the failure is not replayed on a fresh socket.
            match client.request("POST", "/v1/predict", Some("{}")) {
                Err(ClientError::Protocol(m)) => assert_eq!(m, "body too large", "{n}"),
                other => panic!("Content-Length {n}: expected Protocol, got {other:?}"),
            }
        }
    }

    #[test]
    fn a_header_line_past_the_line_bound_is_a_protocol_error() {
        let name = "X-Pad: ";
        let pad = "x".repeat(conn::MAX_LINE_BYTES + 1 - name.len() - 2);
        let addr = scripted_server(vec![format!(
            "HTTP/1.1 200 OK\r\n{name}{pad}\r\nContent-Length: 2\r\n\r\n{{}}"
        )]);
        let mut client = Client::connect(addr).unwrap();
        match client.request("POST", "/v1/predict", Some("{}")) {
            Err(ClientError::Protocol(m)) => assert_eq!(m, "line too long"),
            other => panic!("expected Protocol, got {other:?}"),
        }
    }

    #[test]
    fn retry_policy_replays_429_with_backoff_until_success() {
        let reject = "{\"error\":{\"code\":\"overloaded\",\"message\":\"queue full\"}}";
        let ok = "{\"api_version\":1,\"status\":\"ok\",\"epoch\":5}";
        // Two 429s (Connection: close so the next attempt reconnects to
        // the scripted listener), then a 200.
        let rejection = format!(
            "HTTP/1.1 429 Too Many Requests\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\nConnection: close\r\nRetry-After: 0\r\n\r\n{}",
            reject.len(),
            reject
        );
        let addr = scripted_server(vec![
            rejection.clone(),
            rejection,
            format!(
                "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
                 Content-Length: {}\r\nConnection: keep-alive\r\n\r\n{}",
                ok.len(),
                ok
            ),
        ]);
        let mut client = Client::connect(addr).unwrap().with_retry_policy(
            RetryPolicy::default()
                .with_max_retries(3)
                .with_delays(Duration::from_millis(1), Duration::from_millis(10)),
        );
        let health = client.healthz().expect("retries must reach the 200");
        assert_eq!(health.epoch, 5);
        assert_eq!(client.retries_attempted(), 2);
    }

    #[test]
    fn without_a_policy_a_429_is_not_retried() {
        let reject = "{\"error\":{\"code\":\"overloaded\",\"message\":\"queue full\"}}";
        let addr = scripted_server(vec![format!(
            "HTTP/1.1 429 Too Many Requests\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\nConnection: keep-alive\r\n\r\n{}",
            reject.len(),
            reject
        )]);
        let mut client = Client::connect(addr).unwrap();
        assert!(matches!(
            client.healthz(),
            Err(ClientError::Overloaded { .. })
        ));
        assert_eq!(client.retries_attempted(), 0);
    }

    #[test]
    fn retry_waits_honor_retry_after_under_the_cap() {
        let policy = RetryPolicy::default()
            .with_delays(Duration::from_millis(10), Duration::from_millis(500));
        // Backoff doubles from the base...
        assert_eq!(policy.wait_before(0, None), Duration::from_millis(10));
        assert_eq!(policy.wait_before(2, None), Duration::from_millis(40));
        // ...a larger Retry-After wins...
        assert_eq!(
            policy.wait_before(0, Some(0)),
            Duration::from_millis(10),
            "zero Retry-After falls back to the backoff"
        );
        // ...and the cap bounds everything, including Retry-After.
        assert_eq!(policy.wait_before(30, None), Duration::from_millis(500));
        assert_eq!(
            policy.wait_before(0, Some(3600)),
            Duration::from_millis(500)
        );
    }

    #[test]
    fn connection_close_is_honored_and_the_next_request_reconnects() {
        let first = "{\"api_version\":1,\"status\":\"ok\",\"epoch\":3}";
        let second = "{\"api_version\":1,\"status\":\"ok\",\"epoch\":4}";
        let addr = scripted_server(vec![
            format!(
                "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
                 Content-Length: {}\r\nConnection: close\r\n\r\n{}",
                first.len(),
                first
            ),
            format!(
                "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
                 Content-Length: {}\r\nConnection: keep-alive\r\n\r\n{}",
                second.len(),
                second
            ),
        ]);
        let mut client = Client::connect(addr).unwrap();
        // First answer says close: the client must drop the connection
        // and transparently dial a fresh one for the next request.
        assert_eq!(client.healthz().unwrap().epoch, 3);
        assert_eq!(client.healthz().unwrap().epoch, 4);
    }
}
