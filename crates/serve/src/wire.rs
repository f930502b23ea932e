//! The versioned request/response wire schema — `v1`.
//!
//! This is the service's public contract, versioned *independently* of
//! the snapshot byte format: [`API_VERSION`] names the JSON schema (and
//! the `/v1/` URL prefix), while the snapshot's own version number only
//! governs what model files a build can load. A deployment can bump one
//! without touching the other.
//!
//! ```text
//! POST /v1/predict           single:  {"indices":[u32...],"values":[f32...],"top_k":k?}
//!                            batch:   {"batch":[{"indices":[...],"values":[...]},...],"top_k":k?}
//!   → 200 {"api_version":1,"epoch":e,"predictions":[{"classes":[...],"scores":[...],"latency_us":n},...]}
//! any error
//!   → 4xx/5xx {"api_version":1,"error":{"code":"...","message":"..."}}
//! ```
//!
//! Scores cross the wire through shortest-round-trip decimal formatting
//! (see [`crate::json::push_f32`]), so a served score equals the
//! in-process `f32` bit-for-bit after decode.

use slide_data::SparseVector;

use crate::engine::Prediction;
use crate::error::ServeError;
use crate::json::{self, Json};

/// Version of the request/response JSON schema (also the `/v1` URL
/// prefix). Independent of the snapshot format version.
pub const API_VERSION: u32 = 1;

/// Largest number of inputs one `batch` request may carry.
pub const MAX_WIRE_BATCH: usize = 4096;

/// A decoded `/v1/predict` request body.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictRequest {
    /// The request's inputs: one for a single-input body, any number for
    /// a `batch` body.
    pub inputs: Vec<SparseVector>,
    /// Per-request `top_k` override; `None` means the engine default.
    pub top_k: Option<usize>,
}

/// One answered input on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct WirePrediction {
    /// Ranked classes, best first.
    pub classes: Vec<u32>,
    /// Scores parallel to `classes`.
    pub scores: Vec<f32>,
    /// Engine-side compute latency, microseconds.
    pub latency_us: u64,
}

impl From<&Prediction> for WirePrediction {
    fn from(p: &Prediction) -> Self {
        let items = p.topk.items();
        Self {
            classes: items.iter().map(|&(c, _)| c).collect(),
            scores: items.iter().map(|&(_, s)| s).collect(),
            latency_us: p.latency.as_micros() as u64,
        }
    }
}

/// A `/v1/predict` response body.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictResponse {
    /// The model epoch that answered (see
    /// [`crate::handle::EngineHandle`]).
    pub epoch: u64,
    /// One prediction per request input, in order.
    pub predictions: Vec<WirePrediction>,
}

fn bad(message: impl Into<String>) -> ServeError {
    ServeError::BadRequest {
        message: message.into(),
    }
}

fn decode_one_input(v: &Json, what: &str) -> Result<SparseVector, ServeError> {
    let indices = v
        .get("indices")
        .ok_or_else(|| bad(format!("{what}: missing \"indices\"")))?
        .as_array()
        .ok_or_else(|| bad(format!("{what}: \"indices\" must be an array")))?;
    let values = v
        .get("values")
        .ok_or_else(|| bad(format!("{what}: missing \"values\"")))?
        .as_array()
        .ok_or_else(|| bad(format!("{what}: \"values\" must be an array")))?;
    let mut idx = Vec::with_capacity(indices.len());
    for (i, x) in indices.iter().enumerate() {
        let n = x
            .as_u64()
            .filter(|&n| n <= u32::MAX as u64)
            .ok_or_else(|| bad(format!("{what}: indices[{i}] must be a u32")))?;
        idx.push(n as u32);
    }
    let mut vals = Vec::with_capacity(values.len());
    for (i, x) in values.iter().enumerate() {
        let f = x
            .as_f64()
            .ok_or_else(|| bad(format!("{what}: values[{i}] must be a number")))?;
        let v = json::f64_to_f32(f);
        // Finiteness is checked after the f32 narrowing: 1e39 is a
        // finite f64 but overflows f32, and an infinite input would
        // poison the scores into values JSON cannot carry back.
        if !v.is_finite() {
            return Err(bad(format!("{what}: values[{i}] out of f32 range")));
        }
        vals.push(v);
    }
    SparseVector::from_unsorted_parts(idx, vals).map_err(|e| bad(format!("{what}: {e}")))
}

/// Decodes a `/v1/predict` request body.
///
/// # Errors
///
/// Returns [`ServeError::BadRequest`] on malformed JSON, a missing or
/// mistyped field, or an oversized batch.
pub fn decode_predict_request(body: &str) -> Result<PredictRequest, ServeError> {
    let v = json::parse(body).map_err(|e| bad(format!("invalid json: {e}")))?;
    if !matches!(v, Json::Obj(_)) {
        return Err(bad("request body must be a JSON object"));
    }
    let top_k = match v.get("top_k") {
        None | Some(Json::Null) => None,
        Some(t) => {
            let n = t
                .as_u64()
                .ok_or_else(|| bad("\"top_k\" must be a non-negative integer"))?;
            Some(usize::try_from(n).map_err(|_| bad("\"top_k\" out of range"))?)
        }
    };
    let inputs = match v.get("batch") {
        Some(batch) => {
            let items = batch
                .as_array()
                .ok_or_else(|| bad("\"batch\" must be an array"))?;
            if items.is_empty() {
                // An empty batch has no per-input validation to run, so
                // accepting it would let an invalid top_k (or anything
                // else checked per input) slip through with a 200.
                return Err(bad("\"batch\" must not be empty"));
            }
            if items.len() > MAX_WIRE_BATCH {
                return Err(bad(format!(
                    "batch of {} exceeds the limit of {MAX_WIRE_BATCH}",
                    items.len()
                )));
            }
            items
                .iter()
                .enumerate()
                .map(|(i, item)| decode_one_input(item, &format!("batch[{i}]")))
                .collect::<Result<Vec<_>, _>>()?
        }
        None => vec![decode_one_input(&v, "request")?],
    };
    Ok(PredictRequest { inputs, top_k })
}

/// Encodes a `/v1/predict` request body — the client half of the
/// protocol. A single input encodes as the single form; anything else as
/// the batch form.
pub fn encode_predict_request(req: &PredictRequest) -> String {
    let mut out = String::new();
    out.push('{');
    if req.inputs.len() == 1 {
        push_input_fields(&mut out, &req.inputs[0]);
    } else {
        out.push_str("\"batch\":[");
        for (i, input) in req.inputs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('{');
            push_input_fields(&mut out, input);
            out.push('}');
        }
        out.push(']');
    }
    if let Some(k) = req.top_k {
        out.push_str(&format!(",\"top_k\":{k}"));
    }
    out.push('}');
    out
}

fn push_input_fields(out: &mut String, input: &SparseVector) {
    out.push_str("\"indices\":[");
    for (i, &idx) in input.indices().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&idx.to_string());
    }
    out.push_str("],\"values\":[");
    for (i, &v) in input.values().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::push_f32(out, v);
    }
    out.push(']');
}

/// Encodes a `/v1/predict` response body.
pub fn encode_predict_response(resp: &PredictResponse) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"api_version\":{API_VERSION},\"epoch\":{},\"predictions\":[",
        resp.epoch
    ));
    for (i, p) in resp.predictions.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"classes\":[");
        for (j, c) in p.classes.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&c.to_string());
        }
        out.push_str("],\"scores\":[");
        for (j, &s) in p.scores.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            json::push_f32(&mut out, s);
        }
        out.push_str(&format!("],\"latency_us\":{}}}", p.latency_us));
    }
    out.push_str("]}");
    out
}

/// Decodes a `/v1/predict` response body — the client half of the
/// protocol (and how the end-to-end test pins bit-identity).
///
/// # Errors
///
/// Returns [`ServeError::BadRequest`] on malformed JSON or a schema
/// mismatch (including an unknown `api_version`, and a prediction whose
/// `classes` and `scores` differ in length).
pub fn decode_predict_response(body: &str) -> Result<PredictResponse, ServeError> {
    let v = json::parse(body).map_err(|e| bad(format!("invalid response json: {e}")))?;
    let version = v
        .get("api_version")
        .and_then(Json::as_u64)
        .ok_or_else(|| bad("response missing \"api_version\""))?;
    if version != API_VERSION as u64 {
        return Err(bad(format!("unsupported api_version {version}")));
    }
    let epoch = v
        .get("epoch")
        .and_then(Json::as_u64)
        .ok_or_else(|| bad("response missing \"epoch\""))?;
    let predictions = v
        .get("predictions")
        .and_then(Json::as_array)
        .ok_or_else(|| bad("response missing \"predictions\""))?
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let classes = p
                .get("classes")
                .and_then(Json::as_array)
                .ok_or_else(|| bad(format!("predictions[{i}] missing \"classes\"")))?
                .iter()
                .map(|c| {
                    c.as_u64()
                        .filter(|&n| n <= u32::MAX as u64)
                        .map(|n| n as u32)
                        .ok_or_else(|| bad(format!("predictions[{i}]: class must be a u32")))
                })
                .collect::<Result<Vec<_>, _>>()?;
            let scores = p
                .get("scores")
                .and_then(Json::as_array)
                .ok_or_else(|| bad(format!("predictions[{i}] missing \"scores\"")))?
                .iter()
                .map(|s| {
                    s.as_f64()
                        .map(json::f64_to_f32)
                        .ok_or_else(|| bad(format!("predictions[{i}]: score must be a number")))
                })
                .collect::<Result<Vec<_>, _>>()?;
            if scores.len() != classes.len() {
                return Err(bad(format!(
                    "predictions[{i}]: {} classes but {} scores",
                    classes.len(),
                    scores.len()
                )));
            }
            let latency_us = p.get("latency_us").and_then(Json::as_u64).unwrap_or(0);
            Ok(WirePrediction {
                classes,
                scores,
                latency_us,
            })
        })
        .collect::<Result<Vec<_>, ServeError>>()?;
    Ok(PredictResponse { epoch, predictions })
}

/// Encodes the wire `ErrorBody` for a [`ServeError`].
pub fn encode_error_body(e: &ServeError) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"api_version\":{API_VERSION},\"error\":{{\"code\":"
    ));
    json::push_escaped(&mut out, e.code());
    out.push_str(",\"message\":");
    json::push_escaped(&mut out, &e.to_string());
    out.push_str("}}");
    out
}

/// Decodes a wire `ErrorBody` into `(code, message)`, tolerating a
/// missing or foreign body (both fields default to empty).
pub fn decode_error_body(body: &str) -> (String, String) {
    let Ok(v) = json::parse(body) else {
        return (String::new(), String::new());
    };
    let code = v
        .get("error")
        .and_then(|e| e.get("code"))
        .and_then(Json::as_str)
        .unwrap_or_default()
        .to_string();
    let message = v
        .get("error")
        .and_then(|e| e.get("message"))
        .and_then(Json::as_str)
        .unwrap_or_default()
        .to_string();
    (code, message)
}

/// Builds the [`PredictResponse`] for a batch of engine answers.
pub fn response_from_predictions(epoch: u64, predictions: &[Prediction]) -> PredictResponse {
    PredictResponse {
        epoch,
        predictions: predictions.iter().map(WirePrediction::from).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_request_round_trip() {
        let req = PredictRequest {
            inputs: vec![SparseVector::from_pairs([(3, 1.5), (10, -0.25)])],
            top_k: Some(4),
        };
        let body = encode_predict_request(&req);
        assert_eq!(decode_predict_request(&body).unwrap(), req);
        // Hand-written client form with unsorted indices also decodes.
        let decoded =
            decode_predict_request(r#"{"indices":[10,3],"values":[-0.25,1.5],"top_k":4}"#).unwrap();
        assert_eq!(decoded, req);
    }

    #[test]
    fn batch_request_round_trip() {
        let req = PredictRequest {
            inputs: vec![
                SparseVector::from_pairs([(0, 1.0)]),
                SparseVector::from_pairs([(2, 0.5), (7, 2.0)]),
                SparseVector::new(),
            ],
            top_k: None,
        };
        let body = encode_predict_request(&req);
        assert_eq!(decode_predict_request(&body).unwrap(), req);
    }

    #[test]
    fn malformed_requests_are_typed_bad_request() {
        for body in [
            "",
            "not json",
            "[1,2,3]",
            r#"{"values":[1.0]}"#,
            r#"{"indices":"x","values":[1.0]}"#,
            r#"{"indices":[1.5],"values":[1.0]}"#,
            r#"{"indices":[-1],"values":[1.0]}"#,
            r#"{"indices":[4294967296],"values":[1.0]}"#,
            r#"{"indices":[1],"values":["x"]}"#,
            r#"{"indices":[1],"values":[1e999]}"#,
            r#"{"indices":[1],"values":[1e39]}"#,
            r#"{"indices":[1,2],"values":[1.0]}"#,
            r#"{"indices":[1],"values":[1.0],"top_k":-2}"#,
            r#"{"batch":{"indices":[1],"values":[1.0]}}"#,
            r#"{"batch":[{"indices":[1]}]}"#,
            // An empty batch would dodge every per-input validation
            // (e.g. top_k bounds), so it is rejected outright.
            r#"{"batch":[]}"#,
            r#"{"batch":[],"top_k":0}"#,
        ] {
            assert!(
                matches!(
                    decode_predict_request(body),
                    Err(ServeError::BadRequest { .. })
                ),
                "accepted {body:?}"
            );
        }
    }

    #[test]
    fn oversized_batch_rejected() {
        let mut body = String::from("{\"batch\":[");
        for i in 0..=MAX_WIRE_BATCH {
            if i > 0 {
                body.push(',');
            }
            body.push_str("{\"indices\":[0],\"values\":[1.0]}");
        }
        body.push_str("]}");
        assert!(matches!(
            decode_predict_request(&body),
            Err(ServeError::BadRequest { .. })
        ));
    }

    #[test]
    fn response_round_trip_is_bit_exact() {
        let resp = PredictResponse {
            epoch: 7,
            predictions: vec![
                WirePrediction {
                    classes: vec![12, 5, 900],
                    scores: vec![1.000_000_1, -2.5e-7, std::f32::consts::E],
                    latency_us: 42,
                },
                WirePrediction {
                    classes: vec![],
                    scores: vec![],
                    latency_us: 0,
                },
            ],
        };
        let body = encode_predict_response(&resp);
        let decoded = decode_predict_response(&body).unwrap();
        assert_eq!(decoded.epoch, 7);
        assert_eq!(decoded.predictions.len(), 2);
        for (a, b) in resp.predictions.iter().zip(&decoded.predictions) {
            assert_eq!(a.classes, b.classes);
            assert_eq!(a.latency_us, b.latency_us);
            for (x, y) in a.scores.iter().zip(&b.scores) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn unknown_api_version_rejected() {
        let body = r#"{"api_version":2,"epoch":1,"predictions":[]}"#;
        assert!(decode_predict_response(body).is_err());
    }

    #[test]
    fn classes_and_scores_of_different_lengths_are_rejected() {
        let body = r#"{"api_version":1,"epoch":1,"predictions":[{"classes":[1,2,3],"scores":[0.5,0.25]}]}"#;
        match decode_predict_response(body) {
            Err(ServeError::BadRequest { message }) => {
                assert!(message.contains("3 classes but 2 scores"), "{message}")
            }
            other => panic!("expected a typed decode error, got {other:?}"),
        }
    }

    #[test]
    fn error_body_round_trip() {
        let e = ServeError::FeatureIndexOutOfRange {
            needed_dim: 100,
            input_dim: 64,
        };
        let body = encode_error_body(&e);
        let (code, message) = decode_error_body(&body);
        assert_eq!(code, "feature_index_out_of_range");
        assert!(message.contains("100"));
        assert_eq!(decode_error_body("garbage"), (String::new(), String::new()));
    }
}
