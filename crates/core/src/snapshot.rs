//! Versioned serialization of a trained [`Network`] — the handoff point
//! between training and serving.
//!
//! The paper trains on one beefy CPU box; a production deployment trains
//! somewhere, freezes the model, and serves it elsewhere. A snapshot
//! captures exactly what inference needs — the full [`NetworkConfig`]
//! (architecture, LSH parameters, seed) plus every layer's weights and
//! biases — and *rebuilds the hash tables on load* from the restored
//! weights, because bucket contents are a pure function of the weights
//! and the (seeded) hash family. Adam moments and the optimizer step are
//! deliberately not captured: a snapshot is a frozen inference artifact,
//! not a training checkpoint.
//!
//! ## Format (version 2, little-endian)
//!
//! ```text
//! magic   b"SLIDSNAP"                      8 bytes
//! version u32 = 2
//! config  (see encode_config: dims, adam, per-layer LSH params)
//! layers  per layer:
//!           enc u8                         0 = f32, 1 = q16
//!           enc 0: weights len u64 + f32 bits
//!           enc 1: code count u64, per-row f32 scales (units of them),
//!                  i16 codes (count of them, stored as u16 bits)
//!           biases len u64 + f32 bits      (always f32)
//! check   u64 FNV-1a over everything above
//! ```
//!
//! Only version 2 is read; any other version is
//! [`SnapshotError::UnsupportedVersion`].
//! [`write_network`] emits version 2 with every layer f32 — a round trip
//! is bit-identical, so restored dense predictions equal the source
//! network's exactly (pinned by `tests/serving.rs`).
//! [`write_network_quantized`] stores the *output layer* as i16
//! fixed-point with per-row scales ([`QuantizedRows`]): the reader
//! dequantizes into the network weights (so selection tables are built
//! from the same values serving dots against) and also hands back the
//! quantized rows for the fused [`slide_kernels::gather_dot_q16`] /
//! [`slide_kernels::dot_batch_q16`] inference path.

use std::io::{Read, Write};
use std::path::Path;

use slide_kernels::{AdamParams, KernelMode};
use slide_lsh::policy::InsertionPolicy;
use slide_lsh::sampling::SamplingStrategy;

use crate::config::{Activation, FamilySpec, LayerConfig, LshLayerConfig, NetworkConfig};
use crate::error::ConfigError;
use crate::layer::Layer;
use crate::network::Network;
use crate::quant::QuantizedRows;
use crate::schedule::RebuildSchedule;

const MAGIC: &[u8; 8] = b"SLIDSNAP";
const VERSION: u32 = 2;

/// Per-layer weight encoding tag.
const ENC_F32: u8 = 0;
const ENC_Q16: u8 = 1;

/// Error restoring a snapshot.
#[derive(Debug)]
pub enum SnapshotError {
    /// Filesystem error reading or writing the snapshot.
    Io(std::io::Error),
    /// The bytes do not start with the snapshot magic.
    BadMagic,
    /// The snapshot's format version is not the one this build reads.
    UnsupportedVersion(u32),
    /// The byte stream is truncated or internally inconsistent.
    Corrupt(&'static str),
    /// The embedded configuration failed validation.
    Config(ConfigError),
    /// A snapshot-slice operation failed: invalid shard count or neuron
    /// range, or a slice set that does not reassemble into one snapshot
    /// (gaps, overlaps, mismatched origins).
    Slice(&'static str),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot io: {e}"),
            SnapshotError::BadMagic => write!(f, "not a SLIDE snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot version {v} (reads {VERSION})")
            }
            SnapshotError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
            SnapshotError::Config(e) => write!(f, "snapshot config invalid: {e}"),
            SnapshotError::Slice(what) => write!(f, "snapshot slice: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

impl From<ConfigError> for SnapshotError {
    fn from(e: ConfigError) -> Self {
        SnapshotError::Config(e)
    }
}

// ---------------------------------------------------------------------
// Little-endian writer/reader over a byte buffer.

#[derive(Debug, Default)]
struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn i16(&mut self, v: i16) {
        self.buf.extend_from_slice(&(v as u16).to_le_bytes());
    }
    fn f32(&mut self, v: f32) {
        self.u32(v.to_bits());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

#[derive(Debug)]
struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(SnapshotError::Corrupt("truncated"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn i16(&mut self) -> Result<i16, SnapshotError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()) as i16)
    }
    fn f32(&mut self) -> Result<f32, SnapshotError> {
        Ok(f32::from_bits(self.u32()?))
    }
    fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }
    fn usize(&mut self) -> Result<usize, SnapshotError> {
        usize::try_from(self.u64()?).map_err(|_| SnapshotError::Corrupt("size overflow"))
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x100_0000_01B3);
    }
    h
}

fn check_version(version: u32) -> Result<(), SnapshotError> {
    if version == VERSION {
        Ok(())
    } else {
        Err(SnapshotError::UnsupportedVersion(version))
    }
}

// ---------------------------------------------------------------------
// Config encoding.

fn encode_config(e: &mut Enc, c: &NetworkConfig) {
    e.u64(c.input_dim as u64);
    e.u64(c.seed);
    e.u8(match c.kernel_mode {
        KernelMode::Scalar => 0,
        KernelMode::Vectorized => 1,
    });
    e.f32(c.adam.lr);
    e.f32(c.adam.beta1);
    e.f32(c.adam.beta2);
    e.f32(c.adam.eps);
    e.u32(c.layers.len() as u32);
    for layer in &c.layers {
        e.u64(layer.units as u64);
        e.u8(match layer.activation {
            Activation::Relu => 0,
            Activation::Softmax => 1,
        });
        match &layer.lsh {
            None => e.u8(0),
            Some(lsh) => {
                e.u8(1);
                match lsh.family {
                    FamilySpec::SimHash { sparsity } => {
                        e.u8(0);
                        e.f64(sparsity);
                    }
                    FamilySpec::Wta { m } => {
                        e.u8(1);
                        e.u64(m as u64);
                    }
                    FamilySpec::Dwta { m } => {
                        e.u8(2);
                        e.u64(m as u64);
                    }
                    FamilySpec::Doph { bin_width, top_t } => {
                        e.u8(3);
                        e.u32(bin_width);
                        e.u64(top_t as u64);
                    }
                }
                e.u64(lsh.k as u64);
                e.u64(lsh.l as u64);
                e.u32(lsh.table_bits);
                e.u64(lsh.bucket_capacity as u64);
                e.u8(match lsh.policy {
                    InsertionPolicy::Reservoir => 0,
                    InsertionPolicy::Fifo => 1,
                });
                match lsh.strategy {
                    SamplingStrategy::Vanilla { budget } => {
                        e.u8(0);
                        e.u64(budget as u64);
                    }
                    SamplingStrategy::TopK { budget } => {
                        e.u8(1);
                        e.u64(budget as u64);
                    }
                    SamplingStrategy::HardThreshold { min_count } => {
                        e.u8(2);
                        e.u64(min_count as u64);
                    }
                }
                e.u64(lsh.rebuild.initial_period);
                e.f64(lsh.rebuild.decay);
                e.u8(lsh.center_rows as u8);
            }
        }
    }
}

fn decode_config(d: &mut Dec<'_>) -> Result<NetworkConfig, SnapshotError> {
    let input_dim = d.usize()?;
    let seed = d.u64()?;
    let kernel_mode = match d.u8()? {
        0 => KernelMode::Scalar,
        1 => KernelMode::Vectorized,
        _ => return Err(SnapshotError::Corrupt("kernel mode tag")),
    };
    let adam = AdamParams {
        lr: d.f32()?,
        beta1: d.f32()?,
        beta2: d.f32()?,
        eps: d.f32()?,
    };
    let n_layers = d.u32()? as usize;
    if n_layers > 1024 {
        return Err(SnapshotError::Corrupt("layer count implausible"));
    }
    let mut layers = Vec::with_capacity(n_layers);
    for _ in 0..n_layers {
        let units = d.usize()?;
        let activation = match d.u8()? {
            0 => Activation::Relu,
            1 => Activation::Softmax,
            _ => return Err(SnapshotError::Corrupt("activation tag")),
        };
        let lsh = match d.u8()? {
            0 => None,
            1 => {
                let family = match d.u8()? {
                    0 => FamilySpec::SimHash { sparsity: d.f64()? },
                    1 => FamilySpec::Wta { m: d.usize()? },
                    2 => FamilySpec::Dwta { m: d.usize()? },
                    3 => FamilySpec::Doph {
                        bin_width: d.u32()?,
                        top_t: d.usize()?,
                    },
                    _ => return Err(SnapshotError::Corrupt("family tag")),
                };
                let k = d.usize()?;
                let l = d.usize()?;
                let table_bits = d.u32()?;
                let bucket_capacity = d.usize()?;
                let policy = match d.u8()? {
                    0 => InsertionPolicy::Reservoir,
                    1 => InsertionPolicy::Fifo,
                    _ => return Err(SnapshotError::Corrupt("policy tag")),
                };
                let strategy = match d.u8()? {
                    0 => SamplingStrategy::Vanilla { budget: d.usize()? },
                    1 => SamplingStrategy::TopK { budget: d.usize()? },
                    2 => SamplingStrategy::HardThreshold {
                        min_count: d.usize()?,
                    },
                    _ => return Err(SnapshotError::Corrupt("strategy tag")),
                };
                let rebuild = RebuildSchedule {
                    initial_period: d.u64()?,
                    decay: d.f64()?,
                };
                let center_rows = match d.u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(SnapshotError::Corrupt("center_rows flag")),
                };
                Some(LshLayerConfig {
                    family,
                    k,
                    l,
                    table_bits,
                    bucket_capacity,
                    policy,
                    strategy,
                    rebuild,
                    center_rows,
                })
            }
            _ => return Err(SnapshotError::Corrupt("lsh flag")),
        };
        layers.push(LayerConfig {
            units,
            activation,
            lsh,
        });
    }
    Ok(NetworkConfig {
        input_dim,
        layers,
        seed,
        kernel_mode,
        adam,
    })
}

// ---------------------------------------------------------------------
// Public API.

/// A restored snapshot: the network plus, when the snapshot stored the
/// output layer as i16 fixed-point, the decoded [`QuantizedRows`] for the
/// fused quantized inference path.
#[derive(Debug)]
pub struct LoadedSnapshot {
    /// The restored network (quantized layers dequantized in place,
    /// hash tables rebuilt).
    pub network: Network,
    /// The output layer's quantized rows, when the snapshot carried them.
    pub quantized: Option<QuantizedRows>,
}

fn write_with(network: &Network, quantize_output: bool) -> Vec<u8> {
    let mut e = Enc::default();
    e.buf.extend_from_slice(MAGIC);
    e.u32(VERSION);
    encode_config(&mut e, network.config());
    let last = network.layers().len() - 1;
    for (li, layer) in network.layers().iter().enumerate() {
        if quantize_output && li == last {
            let q = QuantizedRows::from_layer(layer);
            e.u8(ENC_Q16);
            e.u64(q.codes().len() as u64);
            for &s in q.scales() {
                e.f32(s);
            }
            for &c in q.codes() {
                e.i16(c);
            }
        } else {
            let w = layer.weights().flat();
            e.u8(ENC_F32);
            e.u64(w.len() as u64);
            for i in 0..w.len() {
                e.f32(w.get(i));
            }
        }
        let b = layer.biases();
        e.u64(b.len() as u64);
        for i in 0..b.len() {
            e.f32(b.get(i));
        }
    }
    let check = fnv1a(&e.buf);
    e.u64(check);
    e.buf
}

/// Serializes `network` (config + weights + biases) to the version-2 byte
/// format with every layer stored as exact f32.
pub fn write_network(network: &Network) -> Vec<u8> {
    write_with(network, false)
}

/// Serializes `network` with the *output layer* stored as i16 fixed-point
/// rows with per-row scales ([`QuantizedRows`]) — roughly half the bytes
/// of [`write_network`] when the output layer dominates. Hidden layers
/// and all biases stay exact f32; training state is unaffected.
pub fn write_network_quantized(network: &Network) -> Vec<u8> {
    write_with(network, true)
}

/// Restores a [`Network`] from snapshot bytes: validates magic, version
/// and checksum, rebuilds the network from the embedded config, copies
/// the weights and biases in, and rebuilds every LSH layer's hash tables
/// from the restored weights.
pub fn read_network(bytes: &[u8]) -> Result<Network, SnapshotError> {
    read_network_with_centering(bytes, None)
}

/// [`read_network`] with the centering mode decided up front — discards
/// any quantized rows; see [`read_snapshot_with_centering`] to keep them.
pub fn read_network_with_centering(
    bytes: &[u8],
    center_rows: Option<bool>,
) -> Result<Network, SnapshotError> {
    read_snapshot_with_centering(bytes, center_rows).map(|s| s.network)
}

/// Walks the per-layer parameter payload *by size only* and verifies it
/// is exactly consistent with the config's dimensions, before any
/// dimension-derived allocation happens. A corrupt/crafted header
/// claiming units = 2^40 must fail here, not OOM in `Network::new`.
///
/// Each layer starts with an encoding tag byte that decides the
/// section's size, so the walk reads each tag at its computed offset.
fn validate_payload_size(
    payload: &[u8],
    start: usize,
    config: &NetworkConfig,
) -> Result<(), SnapshotError> {
    let remaining = (payload.len() - start) as u128;
    let mut offset: u128 = 0;
    let mut fan_in = config.input_dim as u128;
    for layer in &config.layers {
        let units = layer.units as u128;
        let tag = *payload
            .get(
                start
                    + usize::try_from(offset).map_err(|_| {
                        SnapshotError::Corrupt("parameter payload size inconsistent with config")
                    })?,
            )
            .ok_or(SnapshotError::Corrupt(
                "parameter payload size inconsistent with config",
            ))?;
        let weights = match tag {
            // tag + weights len + f32s
            ENC_F32 => 1 + 8 + units * fan_in * 4,
            // tag + code count + per-row f32 scales + i16 codes
            ENC_Q16 => 1 + 8 + units * 4 + units * fan_in * 2,
            _ => return Err(SnapshotError::Corrupt("layer encoding tag")),
        };
        // Biases: len + f32s, always.
        offset += weights + 8 + units * 4;
        if offset > remaining {
            return Err(SnapshotError::Corrupt(
                "parameter payload size inconsistent with config",
            ));
        }
        fan_in = units;
    }
    if offset != remaining {
        return Err(SnapshotError::Corrupt(
            "parameter payload size inconsistent with config",
        ));
    }
    Ok(())
}

/// Restores a network *and* any quantized output rows from snapshot
/// bytes, with the centering mode decided up front: when `center_rows`
/// is `Some`, every LSH layer's [`LshLayerConfig::center_rows`] is
/// overridden *before* the post-copy table rebuild, so the tables are
/// built once in the requested geometry instead of being rebuilt again
/// by a later [`Network::set_lsh_centering`] call. The serving engine
/// loads snapshots through this path.
///
/// Quantized layers are dequantized into the network's weights — hash
/// tables are therefore built over exactly the values the quantized dot
/// kernels reproduce — and the output layer's codes are returned in
/// [`LoadedSnapshot::quantized`].
pub fn read_snapshot_with_centering(
    bytes: &[u8],
    center_rows: Option<bool>,
) -> Result<LoadedSnapshot, SnapshotError> {
    if bytes.len() < MAGIC.len() + 4 + 8 {
        return Err(SnapshotError::Corrupt("too short"));
    }
    let (payload, check_bytes) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(check_bytes.try_into().unwrap());
    if fnv1a(payload) != stored {
        return Err(SnapshotError::Corrupt("checksum mismatch"));
    }
    let mut d = Dec::new(payload);
    if d.take(MAGIC.len())? != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    check_version(d.u32()?)?;
    let mut config = decode_config(&mut d)?;
    if let Some(center) = center_rows {
        for layer in &mut config.layers {
            if let Some(lsh) = &mut layer.lsh {
                lsh.center_rows = center;
            }
        }
    }
    validate_payload_size(payload, d.pos, &config)?;
    let mut network = Network::new(config)?;
    let n_layers = network.layers().len();
    let mut quantized: Option<QuantizedRows> = None;
    let mut values: Vec<f32> = Vec::new();
    for (li, layer) in network.layers_mut().iter_mut().enumerate() {
        let q = decode_layer_params(&mut d, layer, &mut values)?;
        if li == n_layers - 1 {
            quantized = q;
        }
        // Bucket contents are a function of the weights: re-hash now that
        // the trained weights are in place.
        layer.rebuild_tables();
    }
    if d.pos != payload.len() {
        return Err(SnapshotError::Corrupt("trailing bytes"));
    }
    Ok(LoadedSnapshot { network, quantized })
}

/// Decodes one layer's parameter section (weights + biases) from `d`
/// into `layer`, dequantizing q16 rows into the weight matrix (so table
/// rebuilds and the f32 fallback see exactly the values the quantized
/// kernels compute against). Returns the decoded [`QuantizedRows`] when
/// the section was q16. Does **not** rebuild the layer's tables.
fn decode_layer_params(
    d: &mut Dec<'_>,
    layer: &mut Layer,
    values: &mut Vec<f32>,
) -> Result<Option<QuantizedRows>, SnapshotError> {
    let mut quantized: Option<QuantizedRows> = None;
    match d.u8()? {
        ENC_F32 => {
            let n_w = d.usize()?;
            if n_w != layer.weights().flat().len() {
                return Err(SnapshotError::Corrupt("weight count mismatch"));
            }
            values.clear();
            values.reserve(n_w);
            for _ in 0..n_w {
                values.push(d.f32()?);
            }
            layer.weights().flat().copy_from(values);
        }
        ENC_Q16 => {
            let count = d.usize()?;
            let (units, fan_in) = (layer.units(), layer.fan_in());
            if count != units * fan_in {
                return Err(SnapshotError::Corrupt("quantized code count mismatch"));
            }
            let mut scales = Vec::with_capacity(units);
            for _ in 0..units {
                let s = d.f32()?;
                if !s.is_finite() || s < 0.0 {
                    return Err(SnapshotError::Corrupt("quantized scale invalid"));
                }
                scales.push(s);
            }
            let mut codes = Vec::with_capacity(count);
            for _ in 0..count {
                codes.push(d.i16()?);
            }
            let q = QuantizedRows::from_parts(units, fan_in, codes, scales);
            values.resize(fan_in, 0.0);
            for j in 0..units {
                q.dequantize_row(j, values);
                for (i, &v) in values.iter().enumerate() {
                    layer.weights().set(j, i, v);
                }
            }
            quantized = Some(q);
        }
        _ => return Err(SnapshotError::Corrupt("layer encoding tag")),
    }
    let n_b = d.usize()?;
    if n_b != layer.biases().len() {
        return Err(SnapshotError::Corrupt("bias count mismatch"));
    }
    values.clear();
    values.reserve(n_b);
    for _ in 0..n_b {
        values.push(d.f32()?);
    }
    layer.biases().copy_from(values);
    Ok(quantized)
}

// ---------------------------------------------------------------------
// Snapshot slices: scatter a snapshot's output layer across shards.
//
// A *slice* is a section of a full snapshot carrying one
// shard's contiguous output-neuron range — its weight rows (f32 or q16
// with per-row scales) and biases — plus everything a shard engine needs
// to reproduce the unsharded engine's behaviour bit-for-bit: the full
// network's config and hidden layers verbatim, and the full output
// layer's centering vector (a shard cannot recompute the mean of rows it
// does not hold). `slice_snapshot` produces the slices,
// `assemble_slices` reassembles the original bytes exactly, and
// `read_slice` restores a shard-sized network whose hash family, tables
// and scores match the full network's over the shard's range.

/// Slice container magic.
const SLICE_MAGIC: &[u8; 8] = b"SLIDSLCE";
/// Slice container format version.
const SLICE_VERSION: u32 = 1;

/// A full snapshot parsed down to section offsets (checksum and payload
/// sizes already verified).
struct FullParts<'a> {
    config: NetworkConfig,
    /// The snapshot bytes minus the trailing checksum.
    payload: &'a [u8],
    /// Offset of the output layer's parameter section in `payload`.
    out_start: usize,
    /// The output layer's fan-in (last hidden width, or the input dim).
    out_fan_in: usize,
}

/// Byte size of one layer's parameter section. `tag` is the section's
/// first byte.
fn layer_section_size(
    tag: Option<u8>,
    units: usize,
    fan_in: usize,
) -> Result<usize, SnapshotError> {
    let weights = match tag.ok_or(SnapshotError::Corrupt("truncated"))? {
        ENC_F32 => 1 + 8 + units * fan_in * 4,
        ENC_Q16 => 1 + 8 + units * 4 + units * fan_in * 2,
        _ => return Err(SnapshotError::Corrupt("layer encoding tag")),
    };
    Ok(weights + 8 + units * 4)
}

/// Walks the non-output layer sections starting at `start`, returning
/// the offset of the output section and the output layer's fan-in.
fn walk_hidden_sections(
    bytes: &[u8],
    start: usize,
    config: &NetworkConfig,
) -> Result<(usize, usize), SnapshotError> {
    let mut off = start;
    let mut fan_in = config.input_dim;
    for layer in &config.layers[..config.layers.len() - 1] {
        let size = layer_section_size(bytes.get(off).copied(), layer.units, fan_in)?;
        off = off
            .checked_add(size)
            .filter(|&o| o <= bytes.len())
            .ok_or(SnapshotError::Corrupt("truncated"))?;
        fan_in = layer.units;
    }
    Ok((off, fan_in))
}

fn parse_full(bytes: &[u8]) -> Result<FullParts<'_>, SnapshotError> {
    if bytes.len() < MAGIC.len() + 4 + 8 {
        return Err(SnapshotError::Corrupt("too short"));
    }
    let (payload, check_bytes) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(check_bytes.try_into().unwrap());
    if fnv1a(payload) != stored {
        return Err(SnapshotError::Corrupt("checksum mismatch"));
    }
    let mut d = Dec::new(payload);
    if d.take(MAGIC.len())? != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    check_version(d.u32()?)?;
    let config = decode_config(&mut d)?;
    if config.layers.is_empty() {
        return Err(SnapshotError::Corrupt("no layers"));
    }
    validate_payload_size(payload, d.pos, &config)?;
    let (out_start, out_fan_in) = walk_hidden_sections(payload, d.pos, &config)?;
    Ok(FullParts {
        config,
        payload,
        out_start,
        out_fan_in,
    })
}

/// Offsets of the output section's pieces within a parsed snapshot.
struct OutSection {
    enc: u8,
    /// Offset of the per-row f32 scales (q16 only; 0 for f32).
    scales: usize,
    /// Offset of the weight value array (f32 bits, or i16 codes).
    rows: usize,
    /// Offset of the bias f32 array (past its length prefix).
    biases: usize,
}

fn out_section(parts: &FullParts<'_>) -> Result<OutSection, SnapshotError> {
    let out = &parts.config.layers[parts.config.layers.len() - 1];
    let (units, fan_in) = (out.units, parts.out_fan_in);
    let off = parts.out_start;
    match parts.payload[off] {
        ENC_F32 => Ok(OutSection {
            enc: ENC_F32,
            scales: 0,
            rows: off + 9,
            biases: off + 9 + units * fan_in * 4 + 8,
        }),
        ENC_Q16 => {
            let scales = off + 9;
            let rows = scales + units * 4;
            Ok(OutSection {
                enc: ENC_Q16,
                scales,
                rows,
                biases: rows + units * fan_in * 2 + 8,
            })
        }
        _ => Err(SnapshotError::Corrupt("layer encoding tag")),
    }
}

/// Reads f32 number `i` from a little-endian byte array.
fn f32_at(bytes: &[u8], i: usize) -> f32 {
    let p = i * 4;
    f32::from_bits(u32::from_le_bytes([
        bytes[p],
        bytes[p + 1],
        bytes[p + 2],
        bytes[p + 3],
    ]))
}

/// The full output layer's centering vector — the serial f64 column mean
/// over **all** rows, exactly as `Layer::rebuild_tables` computes it
/// after the full snapshot load (q16 rows dequantized first, like the
/// reader does). Empty when the output layer has no LSH config.
fn output_center(parts: &FullParts<'_>, sec: &OutSection) -> Result<Vec<f32>, SnapshotError> {
    let out = &parts.config.layers[parts.config.layers.len() - 1];
    if out.lsh.is_none() {
        return Ok(Vec::new());
    }
    let (units, fan_in) = (out.units, parts.out_fan_in);
    let payload = parts.payload;
    let mut acc = vec![0.0f64; fan_in];
    if sec.enc == ENC_Q16 {
        let mut scales = Vec::with_capacity(units);
        for j in 0..units {
            let s = f32_at(&payload[sec.scales..], j);
            if !s.is_finite() || s < 0.0 {
                return Err(SnapshotError::Corrupt("quantized scale invalid"));
            }
            scales.push(s);
        }
        let mut codes = Vec::with_capacity(units * fan_in);
        for i in 0..units * fan_in {
            let p = sec.rows + i * 2;
            codes.push(u16::from_le_bytes([payload[p], payload[p + 1]]) as i16);
        }
        let q = QuantizedRows::from_parts(units, fan_in, codes, scales);
        let mut row = vec![0.0f32; fan_in];
        for j in 0..units {
            q.dequantize_row(j, &mut row);
            for (a, &r) in acc.iter_mut().zip(&row) {
                *a += r as f64;
            }
        }
    } else {
        for j in 0..units {
            for (i, a) in acc.iter_mut().enumerate() {
                *a += f32_at(&payload[sec.rows..], j * fan_in + i) as f64;
            }
        }
    }
    Ok(acc.iter().map(|&a| (a / units as f64) as f32).collect())
}

/// Splits a full snapshot into `num_shards` self-contained slices, shard
/// `s` carrying output neurons `s·units/n .. (s+1)·units/n`. The slices
/// reassemble byte-identically via [`assemble_slices`] and each loads as
/// a shard engine via [`read_slice`].
///
/// # Errors
///
/// Any full-snapshot validation error, plus [`SnapshotError::Slice`] for
/// a zero shard count or more shards than output neurons.
pub fn slice_snapshot(bytes: &[u8], num_shards: usize) -> Result<Vec<Vec<u8>>, SnapshotError> {
    if num_shards == 0 {
        return Err(SnapshotError::Slice("num_shards must be positive"));
    }
    let parts = parse_full(bytes)?;
    let units = parts.config.layers[parts.config.layers.len() - 1].units;
    if num_shards > units {
        return Err(SnapshotError::Slice("more shards than output neurons"));
    }
    let sec = out_section(&parts)?;
    let center = output_center(&parts, &sec)?;
    let fan_in = parts.out_fan_in;
    let payload = parts.payload;
    let mut slices = Vec::with_capacity(num_shards);
    for s in 0..num_shards {
        let lo = s * units / num_shards;
        let hi = (s + 1) * units / num_shards;
        let mut e = Enc::default();
        e.buf.extend_from_slice(SLICE_MAGIC);
        e.u32(SLICE_VERSION);
        e.u32(VERSION);
        e.u64(lo as u64);
        e.u64(hi as u64);
        e.u64(units as u64);
        e.u64(parts.out_start as u64);
        e.buf.extend_from_slice(&payload[..parts.out_start]);
        e.u64(center.len() as u64);
        for &c in &center {
            e.f32(c);
        }
        e.u8(sec.enc);
        if sec.enc == ENC_Q16 {
            e.buf
                .extend_from_slice(&payload[sec.scales + lo * 4..sec.scales + hi * 4]);
            e.buf.extend_from_slice(
                &payload[sec.rows + lo * fan_in * 2..sec.rows + hi * fan_in * 2],
            );
        } else {
            e.buf.extend_from_slice(
                &payload[sec.rows + lo * fan_in * 4..sec.rows + hi * fan_in * 4],
            );
        }
        e.buf
            .extend_from_slice(&payload[sec.biases + lo * 4..sec.biases + hi * 4]);
        let check = fnv1a(&e.buf);
        e.u64(check);
        slices.push(e.buf);
    }
    Ok(slices)
}

/// A parsed slice, borrowing section byte ranges from the input.
struct SlicePart<'a> {
    lo: usize,
    hi: usize,
    total: usize,
    /// The original snapshot's bytes up to the output section: magic,
    /// version, config and every non-output layer section, verbatim.
    prefix: &'a [u8],
    out_fan_in: usize,
    /// The full output layer's centering vector (f32 bits; may be empty).
    center: &'a [u8],
    enc: u8,
    /// Per-row f32 scales (q16 only; empty for f32).
    scales: &'a [u8],
    /// Weight rows: f32 bits, or i16 codes for q16.
    rows: &'a [u8],
    /// Bias f32 bits.
    biases: &'a [u8],
}

fn parse_slice(bytes: &[u8]) -> Result<SlicePart<'_>, SnapshotError> {
    if bytes.len() < SLICE_MAGIC.len() + 4 + 4 + 8 * 4 + 8 {
        return Err(SnapshotError::Corrupt("too short"));
    }
    let (payload, check_bytes) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(check_bytes.try_into().unwrap());
    if fnv1a(payload) != stored {
        return Err(SnapshotError::Corrupt("checksum mismatch"));
    }
    let mut d = Dec::new(payload);
    if d.take(SLICE_MAGIC.len())? != SLICE_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let slice_version = d.u32()?;
    if slice_version != SLICE_VERSION {
        return Err(SnapshotError::UnsupportedVersion(slice_version));
    }
    check_version(d.u32()?)?;
    let lo = d.usize()?;
    let hi = d.usize()?;
    let total = d.usize()?;
    if !(lo < hi && hi <= total) {
        return Err(SnapshotError::Slice("invalid neuron range"));
    }
    let prefix_len = d.usize()?;
    let prefix = d.take(prefix_len)?;
    let mut pd = Dec::new(prefix);
    if pd.take(MAGIC.len())? != MAGIC {
        return Err(SnapshotError::Corrupt("embedded snapshot magic"));
    }
    if pd.u32()? != VERSION {
        return Err(SnapshotError::Corrupt("embedded snapshot version"));
    }
    let config = decode_config(&mut pd)?;
    if config.layers.is_empty() {
        return Err(SnapshotError::Corrupt("no layers"));
    }
    let (prefix_end, out_fan_in) = walk_hidden_sections(prefix, pd.pos, &config)?;
    if prefix_end != prefix.len() {
        return Err(SnapshotError::Corrupt("prefix size inconsistent"));
    }
    if config.layers[config.layers.len() - 1].units != total {
        return Err(SnapshotError::Slice("total differs from embedded config"));
    }
    let center_len = d.usize()?;
    if center_len != 0 && center_len != out_fan_in {
        return Err(SnapshotError::Corrupt("center length"));
    }
    let center = d.take(
        center_len
            .checked_mul(4)
            .ok_or(SnapshotError::Corrupt("size overflow"))?,
    )?;
    let enc = d.u8()?;
    let n = hi - lo;
    let row_count = n
        .checked_mul(out_fan_in)
        .ok_or(SnapshotError::Corrupt("size overflow"))?;
    let (scales, rows) = match enc {
        ENC_F32 => {
            let rows = d.take(
                row_count
                    .checked_mul(4)
                    .ok_or(SnapshotError::Corrupt("size overflow"))?,
            )?;
            (&[][..], rows)
        }
        ENC_Q16 => {
            let scales = d.take(n * 4)?;
            let rows = d.take(
                row_count
                    .checked_mul(2)
                    .ok_or(SnapshotError::Corrupt("size overflow"))?,
            )?;
            (scales, rows)
        }
        _ => return Err(SnapshotError::Corrupt("layer encoding tag")),
    };
    let biases = d.take(n * 4)?;
    if d.pos != payload.len() {
        return Err(SnapshotError::Corrupt("trailing bytes"));
    }
    Ok(SlicePart {
        lo,
        hi,
        total,
        prefix,
        out_fan_in,
        center,
        enc,
        scales,
        rows,
        biases,
    })
}

/// Reassembles slices produced by [`slice_snapshot`] into the original
/// full snapshot, **byte-identical** to the input `slice_snapshot` was
/// given. Order-insensitive.
///
/// # Errors
///
/// [`SnapshotError::Slice`] when the set does not partition one
/// snapshot's output layer: slices from different snapshots, overlapping
/// or gapped ranges, or incomplete coverage. Individual malformed slices
/// yield the usual typed errors ([`SnapshotError::Corrupt`] etc.).
pub fn assemble_slices(slices: &[Vec<u8>]) -> Result<Vec<u8>, SnapshotError> {
    if slices.is_empty() {
        return Err(SnapshotError::Slice("no slices"));
    }
    let mut parts = Vec::with_capacity(slices.len());
    for s in slices {
        parts.push(parse_slice(s)?);
    }
    for i in 1..parts.len() {
        if parts[i].prefix != parts[0].prefix
            || parts[i].total != parts[0].total
            || parts[i].enc != parts[0].enc
            || parts[i].center != parts[0].center
        {
            return Err(SnapshotError::Slice("slices come from different snapshots"));
        }
    }
    parts.sort_by_key(|p| p.lo);
    let mut expect = 0usize;
    for p in &parts {
        if p.lo > expect {
            return Err(SnapshotError::Slice("gap between slices"));
        }
        if p.lo < expect {
            return Err(SnapshotError::Slice("overlapping slices"));
        }
        expect = p.hi;
    }
    if expect != parts[0].total {
        return Err(SnapshotError::Slice("slices do not cover the output layer"));
    }
    let (total, fan_in) = (parts[0].total, parts[0].out_fan_in);
    let mut e = Enc::default();
    e.buf.extend_from_slice(parts[0].prefix);
    e.u8(parts[0].enc);
    e.u64((total * fan_in) as u64);
    if parts[0].enc == ENC_Q16 {
        for p in &parts {
            e.buf.extend_from_slice(p.scales);
        }
    }
    for p in &parts {
        e.buf.extend_from_slice(p.rows);
    }
    e.u64(total as u64);
    for p in &parts {
        e.buf.extend_from_slice(p.biases);
    }
    let check = fnv1a(&e.buf);
    e.u64(check);
    Ok(e.buf)
}

/// A restored snapshot slice: a network whose output layer holds only
/// neurons `lo..hi` of a `total`-wide original, hashing and scoring
/// bit-identically to the full network over that range.
#[derive(Debug)]
pub struct LoadedSlice {
    /// The shard network (plus its quantized rows for q16 slices).
    pub snapshot: LoadedSnapshot,
    /// First global output-neuron id this shard holds.
    pub lo: usize,
    /// One past the last global output-neuron id this shard holds.
    pub hi: usize,
    /// The original network's output width.
    pub total: usize,
}

/// Restores a shard network from slice bytes. `center_rows` overrides
/// every LSH layer's centering mode up front, exactly like
/// [`read_snapshot_with_centering`] — and the output layer additionally
/// gets the *full* layer's centering vector installed (carried by the
/// slice), so centered hashing subtracts the same mean the unsharded
/// engine computes. The output layer's sampling budget is clamped to the
/// shard's width; serving-path retrieval does not consult it.
///
/// # Errors
///
/// Typed [`SnapshotError`]s for malformed bytes, plus the embedded
/// config's validation errors.
pub fn read_slice(bytes: &[u8], center_rows: Option<bool>) -> Result<LoadedSlice, SnapshotError> {
    let part = parse_slice(bytes)?;
    let mut pd = Dec::new(part.prefix);
    pd.take(MAGIC.len())?;
    pd.u32()?;
    let mut config = decode_config(&mut pd)?;
    let params_start = pd.pos;
    if let Some(center) = center_rows {
        for layer in &mut config.layers {
            if let Some(lsh) = &mut layer.lsh {
                lsh.center_rows = center;
            }
        }
    }
    let n = part.hi - part.lo;
    let fan_in = part.out_fan_in;
    let last_idx = config.layers.len() - 1;
    config.layers[last_idx].units = n;
    if let Some(lsh) = &mut config.layers[last_idx].lsh {
        lsh.strategy = match lsh.strategy {
            SamplingStrategy::Vanilla { budget } => SamplingStrategy::Vanilla {
                budget: budget.min(n),
            },
            SamplingStrategy::TopK { budget } => SamplingStrategy::TopK {
                budget: budget.min(n),
            },
            other => other,
        };
    }
    let mut network = Network::new_output_sliced(config, part.total)?;
    let mut values: Vec<f32> = Vec::new();
    let mut d = Dec::new(part.prefix);
    d.pos = params_start;
    for li in 0..last_idx {
        let layer = &mut network.layers_mut()[li];
        decode_layer_params(&mut d, layer, &mut values)?;
        layer.rebuild_tables();
    }
    if d.pos != part.prefix.len() {
        return Err(SnapshotError::Corrupt("prefix size inconsistent"));
    }
    let mut quantized: Option<QuantizedRows> = None;
    {
        let out = &mut network.layers_mut()[last_idx];
        if part.center.is_empty() {
            out.set_center_override(None);
        } else {
            let mut center = Vec::with_capacity(fan_in);
            for i in 0..fan_in {
                center.push(f32_at(part.center, i));
            }
            out.set_center_override(Some(center));
        }
        if part.enc == ENC_Q16 {
            let mut scales = Vec::with_capacity(n);
            for j in 0..n {
                let s = f32_at(part.scales, j);
                if !s.is_finite() || s < 0.0 {
                    return Err(SnapshotError::Corrupt("quantized scale invalid"));
                }
                scales.push(s);
            }
            let mut codes = Vec::with_capacity(n * fan_in);
            for i in 0..n * fan_in {
                let p = i * 2;
                codes.push(u16::from_le_bytes([part.rows[p], part.rows[p + 1]]) as i16);
            }
            let q = QuantizedRows::from_parts(n, fan_in, codes, scales);
            values.resize(fan_in, 0.0);
            for j in 0..n {
                q.dequantize_row(j, &mut values);
                for (i, &v) in values.iter().enumerate() {
                    out.weights().set(j, i, v);
                }
            }
            quantized = Some(q);
        } else {
            values.clear();
            values.reserve(n * fan_in);
            for i in 0..n * fan_in {
                values.push(f32_at(part.rows, i));
            }
            out.weights().flat().copy_from(&values);
        }
        values.clear();
        for j in 0..n {
            values.push(f32_at(part.biases, j));
        }
        out.biases().copy_from(&values);
        out.rebuild_tables();
    }
    Ok(LoadedSlice {
        snapshot: LoadedSnapshot { network, quantized },
        lo: part.lo,
        hi: part.hi,
        total: part.total,
    })
}

/// Atomically publishes `bytes` at `path`: the bytes are written to a
/// uniquely-named sibling temp file, fsynced, and then renamed over
/// `path` in one step. Because the rename is atomic (POSIX, same
/// directory), a concurrent reader — in particular a polling
/// `SnapshotWatcher` — can never observe a partially-written snapshot:
/// the path always names either the previous complete file or the new
/// complete one.
///
/// # Errors
///
/// Returns [`SnapshotError::Io`] on filesystem failure; the temp file is
/// removed on a failed rename so aborted publishes leave no debris.
pub fn publish_bytes<P: AsRef<Path>>(path: P, bytes: &[u8]) -> Result<(), SnapshotError> {
    use std::sync::atomic::{AtomicU64, Ordering};
    // Process-unique temp names: pid guards against a concurrent
    // publisher process, the sequence against concurrent threads.
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let path = path.as_ref();
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d.to_path_buf(),
        _ => std::path::PathBuf::from("."),
    };
    let name = path
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("snapshot");
    let tmp = dir.join(format!(
        ".{name}.tmp.{}.{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let result = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        // The data must be durable before the rename makes it visible,
        // or a crash could publish a name pointing at unwritten blocks.
        f.sync_all()?;
        drop(f);
        std::fs::rename(&tmp, path)
    })();
    if let Err(e) = result {
        std::fs::remove_file(&tmp).ok();
        return Err(e.into());
    }
    // Best-effort directory sync so the rename itself survives a crash;
    // not all platforms allow opening a directory for sync.
    if let Ok(d) = std::fs::File::open(&dir) {
        d.sync_all().ok();
    }
    Ok(())
}

/// Writes a snapshot of `network` to `path` via the atomic
/// tmp+fsync+rename publication path ([`publish_bytes`]), so a watcher
/// polling `path` never sees a torn file.
///
/// # Errors
///
/// Returns [`SnapshotError::Io`] on filesystem failure.
pub fn save_network<P: AsRef<Path>>(network: &Network, path: P) -> Result<(), SnapshotError> {
    publish_bytes(path, &write_network(network))
}

/// [`save_network`] with a quantized output layer
/// ([`write_network_quantized`]), also via atomic publication.
///
/// # Errors
///
/// Returns [`SnapshotError::Io`] on filesystem failure.
pub fn save_network_quantized<P: AsRef<Path>>(
    network: &Network,
    path: P,
) -> Result<(), SnapshotError> {
    publish_bytes(path, &write_network_quantized(network))
}

/// Loads a snapshot from `path` and restores the network (tables rebuilt).
///
/// # Errors
///
/// Returns [`SnapshotError`] on filesystem failure or a malformed
/// snapshot.
pub fn load_network<P: AsRef<Path>>(path: P) -> Result<Network, SnapshotError> {
    let mut bytes = Vec::new();
    std::fs::File::open(path)?.read_to_end(&mut bytes)?;
    read_network(&bytes)
}

impl Network {
    /// Serializes this network to snapshot bytes ([`write_network`]).
    pub fn to_snapshot_bytes(&self) -> Vec<u8> {
        write_network(self)
    }

    /// Serializes this network with a quantized output layer
    /// ([`write_network_quantized`]).
    pub fn to_quantized_snapshot_bytes(&self) -> Vec<u8> {
        write_network_quantized(self)
    }

    /// Restores a network from snapshot bytes ([`read_network`]).
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] on a malformed snapshot.
    pub fn from_snapshot_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        read_network(bytes)
    }

    /// Writes a snapshot file ([`save_network`]) — atomically published,
    /// so a concurrent reader never sees a torn file.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Io`] on filesystem failure.
    pub fn save_snapshot<P: AsRef<Path>>(&self, path: P) -> Result<(), SnapshotError> {
        save_network(self, path)
    }

    /// Writes a quantized snapshot file ([`save_network_quantized`]),
    /// also atomically published.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Io`] on filesystem failure.
    pub fn save_quantized_snapshot<P: AsRef<Path>>(&self, path: P) -> Result<(), SnapshotError> {
        save_network_quantized(self, path)
    }

    /// Loads a snapshot file ([`load_network`]).
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] on filesystem failure or a malformed
    /// snapshot.
    pub fn load_snapshot<P: AsRef<Path>>(path: P) -> Result<Self, SnapshotError> {
        load_network(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LshLayerConfig;

    fn trained_network() -> Network {
        let cfg = NetworkConfig::builder(32, 60)
            .hidden(12)
            .output_lsh(
                LshLayerConfig::dwta(3, 6).with_strategy(SamplingStrategy::TopK { budget: 20 }),
            )
            .seed(99)
            .build()
            .unwrap();
        let net = Network::new(cfg).unwrap();
        // Perturb weights away from init so the round trip is not trivial.
        net.layers()[0].weights().set(3, 5, 1.25);
        net.layers()[1].biases().set(7, -0.5);
        net
    }

    #[test]
    fn publish_is_atomic_and_leaves_no_temp_debris() {
        let net = trained_network();
        let dir = std::env::temp_dir().join(format!("slide_publish_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.slidesnap");
        // Publish twice (an initial write and an overwrite): both must
        // land complete and loadable.
        save_network(&net, &path).unwrap();
        save_network_quantized(&net, &path).unwrap();
        let restored = load_network(&path).unwrap();
        assert_eq!(restored.config().input_dim, net.config().input_dim);
        // No temp siblings survive a successful publish.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "temp debris: {leftovers:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn round_trip_preserves_config_and_parameters() {
        let net = trained_network();
        let bytes = net.to_snapshot_bytes();
        let restored = Network::from_snapshot_bytes(&bytes).unwrap();
        assert_eq!(restored.config(), net.config());
        for (a, b) in net.layers().iter().zip(restored.layers()) {
            let (wa, wb) = (a.weights().flat(), b.weights().flat());
            assert_eq!(wa.len(), wb.len());
            for i in 0..wa.len() {
                assert_eq!(wa.get(i).to_bits(), wb.get(i).to_bits(), "weight {i}");
            }
            for i in 0..a.biases().len() {
                assert_eq!(
                    a.biases().get(i).to_bits(),
                    b.biases().get(i).to_bits(),
                    "bias {i}"
                );
            }
        }
    }

    #[test]
    fn restored_tables_reflect_restored_weights() {
        let net = trained_network();
        let restored = Network::from_snapshot_bytes(&net.to_snapshot_bytes()).unwrap();
        let lsh = restored.layers()[1].lsh().expect("output layer has LSH");
        // One initial build at Network::new + one rebuild after the weight
        // copy.
        assert_eq!(lsh.rebuild_count(), 2);
        assert!(lsh.tables().stats().total_items > 0);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = trained_network().to_snapshot_bytes();
        bytes[0] = b'X';
        // Checksum now fails first; flip the stored checksum too to reach
        // the magic check.
        let n = bytes.len();
        let check = fnv1a(&bytes[..n - 8]).to_le_bytes();
        bytes[n - 8..].copy_from_slice(&check);
        assert!(matches!(
            Network::from_snapshot_bytes(&bytes),
            Err(SnapshotError::BadMagic)
        ));
    }

    #[test]
    fn corruption_is_detected() {
        let mut bytes = trained_network().to_snapshot_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        assert!(matches!(
            Network::from_snapshot_bytes(&bytes),
            Err(SnapshotError::Corrupt("checksum mismatch"))
        ));
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = trained_network().to_snapshot_bytes();
        for cut in [0, 4, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                Network::from_snapshot_bytes(&bytes[..cut]).is_err(),
                "cut at {cut} accepted"
            );
        }
    }

    #[test]
    fn inflated_dimensions_rejected_before_allocation() {
        // A crafted header claiming absurd layer sizes (with a fixed-up
        // checksum — FNV is not tamper-proof) must fail the payload-size
        // check instead of attempting a huge allocation.
        let mut bytes = trained_network().to_snapshot_bytes();
        // First layer's `units` sits after magic(8) + version(4) +
        // input_dim(8) + seed(8) + kernel_mode(1) + adam(16) +
        // n_layers(4) = 49 bytes.
        bytes[49..57].copy_from_slice(&(1u64 << 40).to_le_bytes());
        let n = bytes.len();
        let check = fnv1a(&bytes[..n - 8]).to_le_bytes();
        bytes[n - 8..].copy_from_slice(&check);
        assert!(matches!(
            Network::from_snapshot_bytes(&bytes),
            Err(SnapshotError::Corrupt(
                "parameter payload size inconsistent with config"
            ))
        ));
    }

    #[test]
    fn unsupported_version_rejected() {
        let mut bytes = trained_network().to_snapshot_bytes();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        let n = bytes.len();
        let check = fnv1a(&bytes[..n - 8]).to_le_bytes();
        bytes[n - 8..].copy_from_slice(&check);
        assert!(matches!(
            Network::from_snapshot_bytes(&bytes),
            Err(SnapshotError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn malformed_snapshots_return_matching_typed_errors() {
        // Table-driven failure paths: every mutation must surface as the
        // matching typed error — never a panic, never a wrong category.
        // The checksum is recomputed after each mutation (except in the
        // corruption cases, where the stale checksum *is* the failure) so
        // each case reaches the check it targets.
        enum Expect {
            Corrupt,
            BadMagic,
            UnsupportedVersion(u32),
        }
        let fix_checksum = |bytes: &mut Vec<u8>| {
            let n = bytes.len();
            let check = fnv1a(&bytes[..n - 8]).to_le_bytes();
            bytes[n - 8..].copy_from_slice(&check);
        };
        type Case = (&'static str, Box<dyn Fn(Vec<u8>) -> Vec<u8>>, Expect);
        let cases: Vec<Case> = vec![
            ("empty", Box::new(|_| Vec::new()), Expect::Corrupt),
            (
                "truncated inside magic",
                Box::new(|b: Vec<u8>| b[..4].to_vec()),
                Expect::Corrupt,
            ),
            (
                "truncated inside config",
                Box::new(|b: Vec<u8>| b[..30].to_vec()),
                Expect::Corrupt,
            ),
            (
                "truncated inside parameters",
                Box::new(|b: Vec<u8>| {
                    let cut = b.len() * 3 / 4;
                    let mut t = b[..cut].to_vec();
                    // Long enough to carry its own (recomputed) checksum,
                    // so the *payload* truncation is what fails.
                    let n = t.len();
                    let check = fnv1a(&t[..n - 8]).to_le_bytes();
                    t[n - 8..].copy_from_slice(&check);
                    t
                }),
                Expect::Corrupt,
            ),
            (
                "last byte missing",
                Box::new(|b: Vec<u8>| b[..b.len() - 1].to_vec()),
                Expect::Corrupt,
            ),
            (
                "checksum bytes flipped",
                Box::new(|mut b: Vec<u8>| {
                    let n = b.len();
                    b[n - 1] ^= 0xFF;
                    b
                }),
                Expect::Corrupt,
            ),
            (
                "header byte corrupted",
                Box::new(|mut b: Vec<u8>| {
                    b[20] ^= 0x10;
                    b
                }),
                Expect::Corrupt,
            ),
            (
                "weight byte corrupted",
                Box::new(|mut b: Vec<u8>| {
                    let mid = b.len() / 2;
                    b[mid] ^= 0x01;
                    b
                }),
                Expect::Corrupt,
            ),
            (
                "bad magic (checksum fixed up)",
                Box::new(move |mut b: Vec<u8>| {
                    b[..8].copy_from_slice(b"NOTSNAPS");
                    fix_checksum(&mut b);
                    b
                }),
                Expect::BadMagic,
            ),
            (
                "future version 3 (checksum fixed up)",
                Box::new(move |mut b: Vec<u8>| {
                    b[8..12].copy_from_slice(&3u32.to_le_bytes());
                    fix_checksum(&mut b);
                    b
                }),
                Expect::UnsupportedVersion(3),
            ),
            (
                "version 0 (checksum fixed up)",
                Box::new(move |mut b: Vec<u8>| {
                    b[8..12].copy_from_slice(&0u32.to_le_bytes());
                    fix_checksum(&mut b);
                    b
                }),
                Expect::UnsupportedVersion(0),
            ),
            (
                "retired version 1 (checksum fixed up)",
                Box::new(move |mut b: Vec<u8>| {
                    b[8..12].copy_from_slice(&1u32.to_le_bytes());
                    fix_checksum(&mut b);
                    b
                }),
                Expect::UnsupportedVersion(1),
            ),
            (
                "future version u32::MAX (checksum fixed up)",
                Box::new(move |mut b: Vec<u8>| {
                    b[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
                    fix_checksum(&mut b);
                    b
                }),
                Expect::UnsupportedVersion(u32::MAX),
            ),
        ];
        let good = trained_network().to_snapshot_bytes();
        for (name, mutate, expect) in cases {
            let bytes = mutate(good.clone());
            let got = Network::from_snapshot_bytes(&bytes);
            match (expect, got) {
                (Expect::Corrupt, Err(SnapshotError::Corrupt(_))) => {}
                (Expect::BadMagic, Err(SnapshotError::BadMagic)) => {}
                (Expect::UnsupportedVersion(want), Err(SnapshotError::UnsupportedVersion(v)))
                    if v == want => {}
                (_, got) => panic!("case {name:?}: wrong outcome {got:?}"),
            }
        }
    }

    #[test]
    fn quantized_round_trip_bounds_error_and_returns_rows() {
        let net = trained_network();
        let bytes = net.to_quantized_snapshot_bytes();
        let loaded = read_snapshot_with_centering(&bytes, None).unwrap();
        let q = loaded.quantized.as_ref().expect("quantized rows present");
        let out = &net.layers()[1];
        assert_eq!(q.units(), out.units());
        assert_eq!(q.fan_in(), out.fan_in());
        // Hidden layer and all biases are exact.
        let (ha, hb) = (
            net.layers()[0].weights().flat(),
            loaded.network.layers()[0].weights().flat(),
        );
        for i in 0..ha.len() {
            assert_eq!(
                ha.get(i).to_bits(),
                hb.get(i).to_bits(),
                "hidden weight {i}"
            );
        }
        for (a, b) in net.layers().iter().zip(loaded.network.layers()) {
            for i in 0..a.biases().len() {
                assert_eq!(a.biases().get(i).to_bits(), b.biases().get(i).to_bits());
            }
        }
        // Output rows are within half a quantization step, and the
        // network's restored weights equal the dequantized codes exactly
        // (tables and any f32 fallback see the same values).
        let mut row = vec![0.0f32; out.fan_in()];
        let mut deq = vec![0.0f32; out.fan_in()];
        for j in 0..q.units() {
            out.weights().read_row_into(j, &mut row);
            q.dequantize_row(j, &mut deq);
            // Half a quantization step, padded for f32 rounding in the
            // encode (the reciprocal 32767/max is not exact).
            let bound = q.scale(j) * 0.505 + 1e-12;
            for i in 0..row.len() {
                assert!((row[i] - deq[i]).abs() <= bound, "row {j} col {i}");
                assert_eq!(
                    loaded.network.layers()[1].weights().get(j, i).to_bits(),
                    deq[i].to_bits(),
                    "restored weight must equal dequantized code ({j},{i})"
                );
            }
        }
    }

    #[test]
    fn quantized_snapshot_is_smaller() {
        let net = trained_network();
        let f32_len = net.to_snapshot_bytes().len();
        let q_len = net.to_quantized_snapshot_bytes().len();
        // The 60×12 output layer dominates this net; q16 halves its rows.
        assert!(q_len < f32_len, "{q_len} vs {f32_len}");
        let out_w_bytes = 60 * 12 * 4;
        assert!(f32_len - q_len > out_w_bytes / 3, "{q_len} vs {f32_len}");
    }

    #[test]
    fn quantized_corruption_and_bad_tags_detected() {
        let net = trained_network();
        let good = net.to_quantized_snapshot_bytes();
        // Flipped code byte → checksum.
        let mut bytes = good.clone();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        assert!(matches!(
            read_snapshot_with_centering(&bytes, None),
            Err(SnapshotError::Corrupt("checksum mismatch"))
        ));
        // Unknown encoding tag (checksum fixed up) → typed error from the
        // payload-size walk, before any allocation.
        let mut ce = Enc::default();
        ce.buf.extend_from_slice(MAGIC);
        ce.u32(VERSION);
        encode_config(&mut ce, net.config());
        let tag_pos = ce.buf.len();
        assert_eq!(good[tag_pos], ENC_F32, "first layer is f32");
        let mut bytes = good.clone();
        bytes[tag_pos] = 7;
        let n = bytes.len();
        let check = fnv1a(&bytes[..n - 8]).to_le_bytes();
        bytes[n - 8..].copy_from_slice(&check);
        assert!(matches!(
            read_snapshot_with_centering(&bytes, None),
            Err(SnapshotError::Corrupt("layer encoding tag"))
        ));
        // Truncation inside the quantized section (own checksum) → size
        // inconsistency.
        let cut = good.len() - 100;
        let mut bytes = good[..cut].to_vec();
        let n = bytes.len();
        let check = fnv1a(&bytes[..n - 8]).to_le_bytes();
        bytes[n - 8..].copy_from_slice(&check);
        assert!(matches!(
            read_snapshot_with_centering(&bytes, None),
            Err(SnapshotError::Corrupt(
                "parameter payload size inconsistent with config"
            ))
        ));
    }

    /// A network with *centered* output-row hashing, so slice tests
    /// exercise the carried centering vector, not just the rows.
    fn centered_network() -> Network {
        let cfg = NetworkConfig::builder(32, 60)
            .hidden(12)
            .output_lsh(
                LshLayerConfig::simhash(3, 6)
                    .with_strategy(SamplingStrategy::TopK { budget: 20 })
                    .with_centered_rows(true),
            )
            .seed(123)
            .build()
            .unwrap();
        let net = Network::new(cfg).unwrap();
        net.layers()[0].weights().set(2, 9, -0.75);
        net.layers()[1].weights().set(41, 3, 2.5);
        net.layers()[1].biases().set(17, 0.25);
        net
    }

    #[test]
    fn slices_reassemble_byte_identically() {
        let net = centered_network();
        for (label, bytes) in [
            ("f32", net.to_snapshot_bytes()),
            ("q16", net.to_quantized_snapshot_bytes()),
        ] {
            for n in [1usize, 2, 3, 7] {
                let slices = slice_snapshot(&bytes, n).unwrap();
                assert_eq!(slices.len(), n, "{label}/{n}");
                let back = assemble_slices(&slices).unwrap();
                assert_eq!(back, bytes, "{label}/{n} reassembly not byte-identical");
                // Order-insensitive: reversed input reassembles too.
                let mut rev = slices.clone();
                rev.reverse();
                assert_eq!(
                    assemble_slices(&rev).unwrap(),
                    bytes,
                    "{label}/{n} reversed"
                );
            }
        }
    }

    #[test]
    fn slice_restores_shard_rows_center_and_codes_bit_identically() {
        let net = centered_network();
        for bytes in [net.to_snapshot_bytes(), net.to_quantized_snapshot_bytes()] {
            let full = read_snapshot_with_centering(&bytes, Some(true)).unwrap();
            let full_out = &full.network.layers()[1];
            let (units, fan_in) = (full_out.units(), full_out.fan_in());
            let slices = slice_snapshot(&bytes, 3).unwrap();
            let mut covered = 0usize;
            for slice in &slices {
                let loaded = read_slice(slice, Some(true)).unwrap();
                let (lo, hi) = (loaded.lo, loaded.hi);
                assert_eq!(loaded.total, units);
                covered += hi - lo;
                let shard_out = &loaded.snapshot.network.layers()[1];
                assert_eq!(shard_out.units(), hi - lo);
                // Rows and biases equal the full layer's, bit for bit.
                for j in 0..hi - lo {
                    for i in 0..fan_in {
                        assert_eq!(
                            shard_out.weights().get(j, i).to_bits(),
                            full_out.weights().get(lo + j, i).to_bits(),
                            "row {j} col {i}"
                        );
                    }
                    assert_eq!(
                        shard_out.biases().get(j).to_bits(),
                        full_out.biases().get(lo + j).to_bits()
                    );
                }
                // Hidden layer identical.
                let (ha, hb) = (
                    full.network.layers()[0].weights().flat(),
                    loaded.snapshot.network.layers()[0].weights().flat(),
                );
                for i in 0..ha.len() {
                    assert_eq!(ha.get(i).to_bits(), hb.get(i).to_bits());
                }
                // The shard's hash codes for its rows equal the full
                // layer's for the same global rows: same family draws,
                // same centering vector.
                let mut full_codes = Vec::new();
                let mut shard_codes = Vec::new();
                full_out.hash_row_range(lo, hi, &mut full_codes);
                shard_out.hash_row_range(0, hi - lo, &mut shard_codes);
                assert_eq!(full_codes, shard_codes, "codes diverged for {lo}..{hi}");
                // Quantized slices return the shard's rows.
                match (&full.quantized, &loaded.snapshot.quantized) {
                    (None, None) => {}
                    (Some(fq), Some(sq)) => {
                        assert_eq!(sq.units(), hi - lo);
                        for j in 0..hi - lo {
                            assert_eq!(sq.scale(j).to_bits(), fq.scale(lo + j).to_bits());
                            assert_eq!(sq.row(j), fq.row(lo + j));
                        }
                    }
                    other => panic!("quantization mismatch: {other:?}"),
                }
            }
            assert_eq!(covered, units, "shards must partition the output layer");
        }
    }

    #[test]
    fn malformed_slice_sets_return_matching_typed_errors() {
        let net = centered_network();
        let bytes = net.to_snapshot_bytes();
        let other = trained_network().to_snapshot_bytes();
        // Table-driven: (case, mutated slice set) → expected typed error.
        type Mutate = Box<dyn Fn(Vec<Vec<u8>>) -> Vec<Vec<u8>>>;
        enum Expect {
            Slice(&'static str),
            Corrupt,
        }
        let other_slices = slice_snapshot(&other, 3).unwrap();
        let cases: Vec<(&'static str, Mutate, Expect)> = vec![
            (
                "empty set",
                Box::new(|_| Vec::new()),
                Expect::Slice("no slices"),
            ),
            (
                "gap (middle slice dropped)",
                Box::new(|mut s: Vec<Vec<u8>>| {
                    s.remove(1);
                    s
                }),
                Expect::Slice("gap between slices"),
            ),
            (
                "missing tail",
                Box::new(|mut s: Vec<Vec<u8>>| {
                    s.pop();
                    s
                }),
                Expect::Slice("slices do not cover the output layer"),
            ),
            (
                "overlap (slice duplicated)",
                Box::new(|mut s: Vec<Vec<u8>>| {
                    let dup = s[1].clone();
                    s.push(dup);
                    s
                }),
                Expect::Slice("overlapping slices"),
            ),
            (
                "slice from a different snapshot",
                Box::new(move |mut s: Vec<Vec<u8>>| {
                    s[1] = other_slices[1].clone();
                    s
                }),
                Expect::Slice("slices come from different snapshots"),
            ),
            (
                "truncated slice",
                Box::new(|mut s: Vec<Vec<u8>>| {
                    let n = s[0].len();
                    s[0].truncate(n - 10);
                    s
                }),
                Expect::Corrupt,
            ),
            (
                "corrupted slice byte",
                Box::new(|mut s: Vec<Vec<u8>>| {
                    let mid = s[2].len() / 2;
                    s[2][mid] ^= 0xFF;
                    s
                }),
                Expect::Corrupt,
            ),
        ];
        for (name, mutate, expect) in cases {
            let slices = mutate(slice_snapshot(&bytes, 3).unwrap());
            let got = assemble_slices(&slices);
            match (expect, got) {
                (Expect::Slice(want), Err(SnapshotError::Slice(what))) if what == want => {}
                (Expect::Corrupt, Err(SnapshotError::Corrupt(_))) => {}
                (_, got) => panic!("case {name:?}: wrong outcome {got:?}"),
            }
        }
        // Degenerate shard counts are typed errors, not panics.
        assert!(matches!(
            slice_snapshot(&bytes, 0),
            Err(SnapshotError::Slice("num_shards must be positive"))
        ));
        assert!(matches!(
            slice_snapshot(&bytes, 61),
            Err(SnapshotError::Slice("more shards than output neurons"))
        ));
        // A slice is not a snapshot, and vice versa.
        let slices = slice_snapshot(&bytes, 2).unwrap();
        assert!(matches!(
            Network::from_snapshot_bytes(&slices[0]),
            Err(SnapshotError::BadMagic)
        ));
        assert!(matches!(
            read_slice(&bytes, None),
            Err(SnapshotError::BadMagic)
        ));
    }

    #[test]
    fn file_round_trip() {
        let net = trained_network();
        let path = std::env::temp_dir().join("slide_snapshot_test.slidesnap");
        net.save_snapshot(&path).unwrap();
        let restored = Network::load_snapshot(&path).unwrap();
        assert_eq!(restored.config(), net.config());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn error_display() {
        assert!(SnapshotError::BadMagic.to_string().contains("magic"));
        assert!(SnapshotError::UnsupportedVersion(7)
            .to_string()
            .contains('7'));
        assert!(SnapshotError::Corrupt("x").to_string().contains('x'));
    }
}
