//! The serving layer's typed error hierarchy.
//!
//! Every fallible path in `slide-serve` — snapshot loads and reloads,
//! request validation, malformed wire payloads, a dead worker pool —
//! returns a [`ServeError`], and each variant maps onto exactly one HTTP
//! status ([`ServeError::http_status`]) and one stable machine-readable
//! code ([`ServeError::code`]). The HTTP front-end is therefore a pure
//! transport: it never invents status codes, it just forwards the
//! error's own mapping.

use std::fmt;

use slide_core::snapshot::SnapshotError;
use slide_core::{ConfigError, SlideError};

/// Error answering, validating, or (re)loading behind a serving request.
#[derive(Debug)]
pub enum ServeError {
    /// A `slide-core` failure: the snapshot could not be read or its
    /// embedded config is invalid. Server-side model state, not the
    /// client's fault → HTTP 500.
    Core(SlideError),
    /// The request body was not parseable as the versioned wire format
    /// (malformed JSON, missing field, wrong type) → HTTP 400.
    BadRequest {
        /// What failed to parse.
        message: String,
    },
    /// A request's feature index does not fit the model's input
    /// dimension → HTTP 422.
    FeatureIndexOutOfRange {
        /// Smallest dimension that would admit the request
        /// (`max index + 1`).
        needed_dim: usize,
        /// The model's actual input dimension.
        input_dim: usize,
    },
    /// The requested `top_k` was zero or larger than the model's output
    /// dimension → HTTP 422. The upper bound is a hard cap: `TopK`
    /// preallocates `k` slots, so an unbounded wire-supplied `k` would
    /// let one request demand an arbitrary allocation.
    InvalidTopK {
        /// The `top_k` requested.
        k: usize,
        /// The largest accepted value (the model's output dimension).
        max: usize,
    },
    /// No route at this path → HTTP 404.
    UnknownRoute {
        /// The path requested.
        path: String,
    },
    /// The route exists but not under this method → HTTP 405.
    MethodNotAllowed {
        /// The method used.
        method: String,
        /// The path requested.
        path: String,
    },
    /// The request body exceeded the configured size limit → HTTP 413.
    PayloadTooLarge {
        /// The configured limit, bytes.
        limit: usize,
    },
    /// The bounded admission queue is full → HTTP 429 with a
    /// `Retry-After` header. Backpressure, not failure: the request was
    /// rejected before any compute and is safe to replay after the
    /// advertised delay.
    Overloaded {
        /// How long the client should wait before retrying, seconds
        /// (what the `Retry-After` header carries).
        retry_after_secs: u64,
    },
    /// The worker pool shut down (or a worker died) before answering →
    /// HTTP 503.
    ServerShutdown,
    /// A worker thread panicked while computing this request's batch →
    /// HTTP 500. Every job caught in the panicked drain gets this typed
    /// answer instead of a hung reply channel, and the worker recovers in
    /// place on a fresh workspace before it answers, so the request is
    /// safe to retry immediately.
    WorkerPanicked,
    /// A scatter-gather router could not reach (or got a server-side
    /// failure from) one of its shard back-ends → HTTP 503. A partial
    /// merge would silently drop that shard's classes, so the router
    /// refuses to answer; the request is safe to replay once the shard
    /// is back (`GET /readyz` on the router tracks that).
    ShardUnavailable {
        /// Zero-based index of the unreachable shard in the router's
        /// configured back-end list.
        shard: usize,
    },
    /// The scatter-gather merge deadline elapsed before every shard
    /// answered → HTTP 504. The slowest shard bounds the merged answer;
    /// the router gives up rather than hold the client past the
    /// configured `merge_timeout`.
    MergeTimeout,
}

impl ServeError {
    /// The HTTP status this error maps onto — a total, 1:1 mapping; the
    /// front-end never chooses a status itself.
    pub fn http_status(&self) -> u16 {
        match self {
            ServeError::Core(_) => 500,
            ServeError::BadRequest { .. } => 400,
            ServeError::FeatureIndexOutOfRange { .. } | ServeError::InvalidTopK { .. } => 422,
            ServeError::UnknownRoute { .. } => 404,
            ServeError::MethodNotAllowed { .. } => 405,
            ServeError::PayloadTooLarge { .. } => 413,
            ServeError::Overloaded { .. } => 429,
            ServeError::ServerShutdown => 503,
            ServeError::WorkerPanicked => 500,
            ServeError::ShardUnavailable { .. } => 503,
            ServeError::MergeTimeout => 504,
        }
    }

    /// Stable machine-readable error code for the wire `ErrorBody`.
    pub fn code(&self) -> &'static str {
        match self {
            ServeError::Core(_) => "model_error",
            ServeError::BadRequest { .. } => "bad_request",
            ServeError::FeatureIndexOutOfRange { .. } => "feature_index_out_of_range",
            ServeError::InvalidTopK { .. } => "invalid_top_k",
            ServeError::UnknownRoute { .. } => "not_found",
            ServeError::MethodNotAllowed { .. } => "method_not_allowed",
            ServeError::PayloadTooLarge { .. } => "payload_too_large",
            ServeError::Overloaded { .. } => "overloaded",
            ServeError::ServerShutdown => "server_shutdown",
            ServeError::WorkerPanicked => "worker_panicked",
            ServeError::ShardUnavailable { .. } => "shard_unavailable",
            ServeError::MergeTimeout => "merge_timeout",
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Core(e) => write!(f, "model error: {e}"),
            ServeError::BadRequest { message } => write!(f, "bad request: {message}"),
            ServeError::FeatureIndexOutOfRange {
                needed_dim,
                input_dim,
            } => write!(
                f,
                "feature index out of range: request needs dim {needed_dim}, \
                 model input_dim is {input_dim}"
            ),
            ServeError::InvalidTopK { k, max } => {
                write!(f, "top_k must be positive and at most {max} (got {k})")
            }
            ServeError::UnknownRoute { path } => write!(f, "no route at {path}"),
            ServeError::MethodNotAllowed { method, path } => {
                write!(f, "method {method} not allowed at {path}")
            }
            ServeError::PayloadTooLarge { limit } => {
                write!(f, "request body exceeds the {limit}-byte limit")
            }
            ServeError::Overloaded { retry_after_secs } => {
                write!(f, "admission queue full; retry after {retry_after_secs}s")
            }
            ServeError::ServerShutdown => write!(f, "server shut down before answering"),
            ServeError::WorkerPanicked => {
                write!(f, "worker panicked while answering; the pool respawned it")
            }
            ServeError::ShardUnavailable { shard } => {
                write!(
                    f,
                    "shard {shard} unavailable; merged answer would be partial"
                )
            }
            ServeError::MergeTimeout => {
                write!(f, "merge deadline elapsed before every shard answered")
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SlideError> for ServeError {
    fn from(e: SlideError) -> Self {
        ServeError::Core(e)
    }
}

impl From<SnapshotError> for ServeError {
    fn from(e: SnapshotError) -> Self {
        ServeError::Core(SlideError::Snapshot(e))
    }
}

impl From<ConfigError> for ServeError {
    fn from(e: ConfigError) -> Self {
        ServeError::Core(SlideError::Config(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statuses_and_codes_are_one_to_one() {
        let cases: Vec<(ServeError, u16, &str)> = vec![
            (
                ServeError::Core(SlideError::Snapshot(SnapshotError::BadMagic)),
                500,
                "model_error",
            ),
            (
                ServeError::BadRequest {
                    message: "not json".into(),
                },
                400,
                "bad_request",
            ),
            (
                ServeError::FeatureIndexOutOfRange {
                    needed_dim: 10,
                    input_dim: 4,
                },
                422,
                "feature_index_out_of_range",
            ),
            (
                ServeError::InvalidTopK { k: 0, max: 10 },
                422,
                "invalid_top_k",
            ),
            (
                ServeError::UnknownRoute {
                    path: "/nope".into(),
                },
                404,
                "not_found",
            ),
            (
                ServeError::MethodNotAllowed {
                    method: "PUT".into(),
                    path: "/healthz".into(),
                },
                405,
                "method_not_allowed",
            ),
            (
                ServeError::PayloadTooLarge { limit: 1024 },
                413,
                "payload_too_large",
            ),
            (
                ServeError::Overloaded {
                    retry_after_secs: 1,
                },
                429,
                "overloaded",
            ),
            (ServeError::ServerShutdown, 503, "server_shutdown"),
            (ServeError::WorkerPanicked, 500, "worker_panicked"),
            (
                ServeError::ShardUnavailable { shard: 2 },
                503,
                "shard_unavailable",
            ),
            (ServeError::MergeTimeout, 504, "merge_timeout"),
        ];
        for (e, status, code) in cases {
            assert_eq!(e.http_status(), status, "{e}");
            assert_eq!(e.code(), code, "{e}");
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn conversions_from_core_errors() {
        let e: ServeError = SnapshotError::UnsupportedVersion(9).into();
        assert_eq!(e.http_status(), 500);
        let e: ServeError = ConfigError::NoLayers.into();
        assert_eq!(e.code(), "model_error");
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ServeError>();
    }
}
