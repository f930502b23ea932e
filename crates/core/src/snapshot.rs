//! Versioned serialization of a trained [`Network`] — the handoff point
//! between training and serving.
//!
//! The paper trains on one beefy CPU box; a production deployment trains
//! somewhere, freezes the model, and serves it elsewhere. A snapshot
//! captures exactly what inference needs — the full [`NetworkConfig`]
//! (architecture, LSH parameters, seed) plus every layer's weights and
//! biases — and *builds the hash tables once on load* from the restored
//! weights, because bucket contents are a pure function of the weights
//! and the (seeded) hash family. The restore draws no initial weights:
//! it advances the seeded RNG past them in O(log n)
//! ([`slide_data::rng::Xoshiro256PlusPlus::advance`]) to where the hash
//! families are drawn. Adam moments and the optimizer step are
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
//! [`Network::to_snapshot_bytes`] stores every layer as f32 — a round
//! trip is bit-identical, so restored dense predictions equal the source
//! network's exactly (pinned by `tests/serving.rs`).
//! [`Network::to_quantized_snapshot_bytes`] stores the *output layer* as
//! i16 fixed-point with per-row scales ([`QuantizedRows`]): the reader
//! dequantizes into the network weights (so selection tables are built
//! from the same values serving dots against) and also hands back the
//! quantized rows for the fused [`slide_kernels::dot_batch_q16`]
//! inference path.
//!
//! ## Slices (slice version 1, little-endian)
//!
//! [`slice_snapshot`] cuts a snapshot's output layer into contiguous
//! neuron ranges, one self-contained slice per shard:
//!
//! ```text
//! magic    b"SLIDSLCE"                     8 bytes
//! version  u32 = 1                         slice format version
//! snapshot u32 = 2                         embedded snapshot version
//! lo hi    u64 u64                         output neurons lo..hi
//! total    u64                             original output width
//! prefix   len u64 + bytes                 the snapshot up to its output
//!                                          section, verbatim: magic,
//!                                          version, config, other layers
//! center   len u64 + f32 bits              full output layer's centering
//!                                          vector (0 or fan-in of them)
//! output   enc u8                          0 = f32, 1 = q16
//!          enc 1: f32 scales of rows lo..hi
//!          rows lo..hi                     f32 bits, or i16 codes
//!          biases lo..hi                   f32 bits
//! check    u64 FNV-1a over everything above
//! ```
//!
//! ## One parse
//!
//! Every reader — [`read_snapshot_with_centering`], [`slice_snapshot`],
//! [`read_slice`] and [`assemble_slices`] — first parses its bytes into
//! borrowed per-layer sections: checksum, magic, version and config,
//! then one walk over the layer sections whose sizes are all checked
//! against the config before any of them is read or allocated from. A
//! malformed input is a typed [`SnapshotError`], never a panic.

use std::io::Write;
use std::path::Path;

use slide_data::cache::fnv1a;
use slide_kernels::{AdamParams, KernelMode};
use slide_lsh::policy::InsertionPolicy;
use slide_lsh::sampling::SamplingStrategy;

use crate::config::{Activation, FamilySpec, LayerConfig, LshLayerConfig, NetworkConfig};
use crate::error::ConfigError;
use crate::layer::{Layer, UNIT_BLOCK};
use crate::network::Network;
use crate::quant::QuantizedRows;
use crate::schedule::RebuildSchedule;

const MAGIC: &[u8; 8] = b"SLIDSNAP";
const VERSION: u32 = 2;

/// Per-layer weight encoding tag.
const ENC_F32: u8 = 0;
const ENC_Q16: u8 = 1;

/// Largest `k · l` a decoded LSH layer may declare. The paper's widest
/// setting is K = 9, L = 50; the bound keeps a corrupt count from
/// sizing a hash family or table set in the billions.
const MAX_HASHES: usize = 1 << 16;

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
    /// Appends the FNV-1a checksum of everything written so far.
    fn finish(mut self) -> Vec<u8> {
        let check = fnv1a(&self.buf);
        self.u64(check);
        self.buf
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
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if n > self.remaining() {
            return Err(SnapshotError::Corrupt("truncated"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn array<const N: usize>(&mut self) -> Result<[u8; N], SnapshotError> {
        let mut a = [0u8; N];
        a.copy_from_slice(self.take(N)?);
        Ok(a)
    }
    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(u8::from_le_bytes(self.array()?))
    }
    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.array()?))
    }
    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.array()?))
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

/// Decodes little-endian f32 bit patterns.
fn f32s(bytes: &[u8]) -> impl Iterator<Item = f32> + '_ {
    bytes
        .chunks_exact(4)
        .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
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
                if k.checked_mul(l).is_none_or(|n| n > MAX_HASHES) {
                    return Err(SnapshotError::Corrupt("hash count implausible"));
                }
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
// Writing.

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
            // Unit-major on disk whatever the in-memory orientation.
            let mut row = vec![0.0f32; layer.fan_in()];
            e.u8(ENC_F32);
            e.u64((layer.units() * layer.fan_in()) as u64);
            for j in 0..layer.units() {
                layer.read_unit_into(j, &mut row);
                for &w in &row {
                    e.f32(w);
                }
            }
        }
        let b = layer.biases();
        e.u64(b.len() as u64);
        for i in 0..b.len() {
            e.f32(b.get(i));
        }
    }
    e.finish()
}

// ---------------------------------------------------------------------
// The one parse: checksum, header, config and checked layer sections.

/// One layer's parameter section as byte ranges of its snapshot or
/// slice. Every range's length has been checked against
/// `units × fan_in`.
#[derive(Debug, Clone, Copy)]
struct Section<'a> {
    enc: u8,
    units: usize,
    fan_in: usize,
    /// Per-row f32 scales (q16 only; empty for f32).
    scales: &'a [u8],
    /// Weight rows: f32 bits, or i16 codes for q16.
    rows: &'a [u8],
    /// Bias f32 bits.
    biases: &'a [u8],
}

impl<'a> Section<'a> {
    /// Walks one section at `d`'s position. In a snapshot the weights
    /// and biases each carry a u64 element count (`counted`); in a slice
    /// only the tag precedes the arrays. The section's whole size is
    /// checked against the bytes left before any of it is read.
    fn take(
        d: &mut Dec<'a>,
        units: usize,
        fan_in: usize,
        counted: bool,
    ) -> Result<Self, SnapshotError> {
        let enc = d.u8()?;
        let (scale_width, value_width) = match enc {
            ENC_F32 => (0, 4),
            ENC_Q16 => (4, 2),
            _ => return Err(SnapshotError::Corrupt("layer encoding tag")),
        };
        let sizes = units.checked_mul(fan_in).and_then(|count| {
            let rows = count.checked_mul(value_width)?;
            let biases = units.checked_mul(4)?;
            let scales = units * scale_width;
            let size = [scales, biases, if counted { 16 } else { 0 }]
                .into_iter()
                .try_fold(rows, usize::checked_add)?;
            (size <= d.remaining()).then_some((count, scales, rows, biases))
        });
        let Some((count, scales, rows, biases)) = sizes else {
            return Err(SnapshotError::Corrupt(
                "parameter payload size inconsistent with config",
            ));
        };
        if counted && d.usize()? != count {
            return Err(SnapshotError::Corrupt("weight count mismatch"));
        }
        let (scales, rows) = (d.take(scales)?, d.take(rows)?);
        if counted && d.usize()? != units {
            return Err(SnapshotError::Corrupt("bias count mismatch"));
        }
        Ok(Self {
            enc,
            units,
            fan_in,
            scales,
            rows,
            biases: d.take(biases)?,
        })
    }

    /// Rows `lo..hi` of this section (`lo ≤ hi ≤ units`).
    fn rows(&self, lo: usize, hi: usize) -> Self {
        let (scale, row) = if self.enc == ENC_Q16 {
            (4, self.fan_in * 2)
        } else {
            (0, self.fan_in * 4)
        };
        Self {
            units: hi - lo,
            scales: &self.scales[lo * scale..hi * scale],
            rows: &self.rows[lo * row..hi * row],
            biases: &self.biases[lo * 4..hi * 4],
            ..*self
        }
    }

    /// Appends this section in slice form: the tag, then the arrays.
    fn put(&self, e: &mut Enc) {
        e.u8(self.enc);
        for part in [self.scales, self.rows, self.biases] {
            e.buf.extend_from_slice(part);
        }
    }

    /// Decodes the weight rows in order, handing each to `row` as f32
    /// values: f32 rows verbatim, q16 rows dequantized from their codes
    /// once every scale is validated. Returns the codes of a q16 section.
    fn decode_rows(
        &self,
        mut row: impl FnMut(usize, &[f32]),
    ) -> Result<Option<QuantizedRows>, SnapshotError> {
        let mut values = vec![0.0f32; self.fan_in];
        if self.enc == ENC_F32 {
            let width = self.fan_in * 4;
            for j in 0..self.units {
                for (v, x) in values
                    .iter_mut()
                    .zip(f32s(&self.rows[j * width..(j + 1) * width]))
                {
                    *v = x;
                }
                row(j, &values);
            }
            return Ok(None);
        }
        let scales: Vec<f32> = f32s(self.scales).collect();
        if scales.iter().any(|s| !s.is_finite() || *s < 0.0) {
            return Err(SnapshotError::Corrupt("quantized scale invalid"));
        }
        let codes = self
            .rows
            .chunks_exact(2)
            .map(|c| i16::from_le_bytes([c[0], c[1]]))
            .collect();
        let q = QuantizedRows::from_parts(self.units, self.fan_in, codes, scales);
        for j in 0..self.units {
            q.dequantize_row(j, &mut values);
            row(j, &values);
        }
        Ok(Some(q))
    }

    /// Installs this section into `layer` — weights (q16 dequantized, so
    /// table rebuilds and the f32 fallback see exactly the values the
    /// quantized kernels compute against) and biases. Returns the
    /// section's [`QuantizedRows`] when it is q16. Does **not** rebuild
    /// the layer's tables.
    fn install(&self, layer: &Layer) -> Result<Option<QuantizedRows>, SnapshotError> {
        debug_assert_eq!((layer.units(), layer.fan_in()), (self.units, self.fan_in));
        // An input-major layer takes whole blocks of units, so it is
        // written row by row rather than column by column.
        let mut block = Vec::new();
        let mut first = 0;
        let quantized = self.decode_rows(|j, row| {
            if !layer.input_major() {
                return layer.set_units(j, row);
            }
            if block.is_empty() {
                first = j;
            }
            block.extend_from_slice(row);
            if block.len() == UNIT_BLOCK * row.len() {
                layer.set_units(first, &block);
                block.clear();
            }
        })?;
        layer.set_units(first, &block);
        for (i, b) in f32s(self.biases).enumerate() {
            layer.biases().set(i, b);
        }
        Ok(quantized)
    }

    /// The layer's centering vector: the serial f64 column mean over all
    /// rows, exactly as `Layer::rebuild_tables` computes it after a full
    /// load (q16 rows dequantized first, like the reader does).
    fn column_mean(&self) -> Result<Vec<f32>, SnapshotError> {
        let mut acc = vec![0.0f64; self.fan_in];
        self.decode_rows(|_, row| {
            for (a, &r) in acc.iter_mut().zip(row) {
                *a += r as f64;
            }
        })?;
        Ok(acc
            .iter()
            .map(|&a| (a / self.units as f64) as f32)
            .collect())
    }
}

/// A snapshot parsed into its config and checked layer sections.
struct Parsed<'a> {
    config: NetworkConfig,
    /// The snapshot up to its output section — magic, version, config
    /// and every other layer's section — as a slice embeds it.
    prefix: &'a [u8],
    /// One section per layer, input to output. A slice's embedded
    /// prefix holds every layer but the output.
    sections: Vec<Section<'a>>,
}

/// Verifies the length and the trailing checksum, returning the payload
/// the checksum covers.
fn checked_payload(bytes: &[u8], min_len: usize) -> Result<&[u8], SnapshotError> {
    if bytes.len() < min_len {
        return Err(SnapshotError::Corrupt("too short"));
    }
    let (payload, check) = bytes.split_at(bytes.len() - 8);
    if fnv1a(payload) != Dec::new(check).u64()? {
        return Err(SnapshotError::Corrupt("checksum mismatch"));
    }
    Ok(payload)
}

/// Parses a checksum-verified payload: magic, version, config, then every
/// layer's section in one checked walk that must end exactly at the
/// payload's end. With `output` false the payload is a slice's embedded
/// prefix, which stops before the output layer's section.
fn parse_payload(payload: &[u8], output: bool) -> Result<Parsed<'_>, SnapshotError> {
    let mut d = Dec::new(payload);
    if d.take(MAGIC.len())? != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    check_version(d.u32()?)?;
    let config = decode_config(&mut d)?;
    let walked = match (output, config.layers.len()) {
        (true, n) => n,
        (false, 0) => return Err(SnapshotError::Corrupt("no layers")),
        (false, n) => n - 1,
    };
    let mut sections = Vec::with_capacity(config.layers.len());
    let (mut fan_in, mut last_start) = (config.input_dim, d.pos);
    for layer in &config.layers[..walked] {
        last_start = d.pos;
        sections.push(Section::take(&mut d, layer.units, fan_in, true)?);
        fan_in = layer.units;
    }
    if d.pos != payload.len() {
        return Err(SnapshotError::Corrupt(
            "parameter payload size inconsistent with config",
        ));
    }
    let prefix = &payload[..if output { last_start } else { d.pos }];
    Ok(Parsed {
        config,
        prefix,
        sections,
    })
}

/// Parses a full snapshot; see [`parse_payload`].
fn parse_snapshot(bytes: &[u8]) -> Result<Parsed<'_>, SnapshotError> {
    parse_payload(checked_payload(bytes, MAGIC.len() + 4 + 8)?, true)
}

/// Builds a network from parsed sections — the one restore path. The
/// network starts from [`Network::for_restore`]: zeroed weights, hash
/// families drawn as [`Network::new`] draws them, no tables. Each layer's
/// section is installed and its tables are then built once, from the
/// restored weights. When `center_rows` is `Some`, every LSH layer's
/// centering mode is overridden first, so that one build is in the
/// requested geometry. For a slice, `slice` carries the original output
/// width (the RNG skips the full layer's draws, so hash families match
/// the full network's) and the full output layer's centering vector,
/// installed before the output tables are built.
fn restore(
    mut parsed: Parsed<'_>,
    center_rows: Option<bool>,
    slice: Option<(usize, &[u8])>,
) -> Result<LoadedSnapshot, SnapshotError> {
    if let Some(center) = center_rows {
        for layer in &mut parsed.config.layers {
            if let Some(lsh) = &mut layer.lsh {
                lsh.center_rows = center;
            }
        }
    }
    let mut network = Network::for_restore(parsed.config, slice.map(|(total, _)| total))?;
    if let (Some((_, center)), Some(out)) = (slice, network.layers_mut().last_mut()) {
        out.set_center_override((!center.is_empty()).then(|| f32s(center).collect()));
    }
    let mut quantized = None;
    for (layer, section) in network.layers_mut().iter_mut().zip(&parsed.sections) {
        // Only the output layer is ever stored q16, so the last layer's
        // rows are the ones kept.
        quantized = section.install(layer)?;
        // Bucket contents are a function of the weights: re-hash now that
        // the trained weights are in place.
        layer.rebuild_tables();
    }
    Ok(LoadedSnapshot { network, quantized })
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
///
/// # Errors
///
/// Typed [`SnapshotError`]s for malformed bytes, plus the embedded
/// config's validation errors.
pub fn read_snapshot_with_centering(
    bytes: &[u8],
    center_rows: Option<bool>,
) -> Result<LoadedSnapshot, SnapshotError> {
    restore(parse_snapshot(bytes)?, center_rows, None)
}

// ---------------------------------------------------------------------
// Snapshot slices: scatter a snapshot's output layer across shards.
//
// A *slice* carries one shard's contiguous output-neuron range — its
// weight rows (f32 or q16 with per-row scales) and biases — plus
// everything a shard engine needs to reproduce the unsharded engine's
// behaviour bit-for-bit: the full network's config and hidden layers
// verbatim, and the full output layer's centering vector (a shard cannot
// recompute the mean of rows it does not hold).

/// Slice container magic.
const SLICE_MAGIC: &[u8; 8] = b"SLIDSLCE";
/// Slice container format version.
const SLICE_VERSION: u32 = 1;

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
    let snap = parse_snapshot(bytes)?;
    let out = snap
        .sections
        .last()
        .ok_or(SnapshotError::Corrupt("no layers"))?;
    let units = out.units;
    if num_shards > units {
        return Err(SnapshotError::Slice("more shards than output neurons"));
    }
    let center = match snap.config.layers.last().and_then(|l| l.lsh.as_ref()) {
        Some(_) => out.column_mean()?,
        None => Vec::new(),
    };
    let slices = (0..num_shards).map(|s| {
        let lo = s * units / num_shards;
        let hi = (s + 1) * units / num_shards;
        let mut e = Enc::default();
        e.buf.extend_from_slice(SLICE_MAGIC);
        e.u32(SLICE_VERSION);
        e.u32(VERSION);
        e.u64(lo as u64);
        e.u64(hi as u64);
        e.u64(units as u64);
        e.u64(snap.prefix.len() as u64);
        e.buf.extend_from_slice(snap.prefix);
        e.u64(center.len() as u64);
        for &c in &center {
            e.f32(c);
        }
        out.rows(lo, hi).put(&mut e);
        e.finish()
    });
    Ok(slices.collect())
}

/// A parsed slice: the embedded snapshot plus its output rows `lo..hi`.
struct ParsedSlice<'a> {
    lo: usize,
    hi: usize,
    total: usize,
    /// The full output layer's centering vector (f32 bits; may be empty).
    center: &'a [u8],
    /// The output layer's rows `lo..hi`.
    out: Section<'a>,
    /// The embedded snapshot prefix: config and every other layer.
    snap: Parsed<'a>,
}

fn parse_slice(bytes: &[u8]) -> Result<ParsedSlice<'_>, SnapshotError> {
    let payload = checked_payload(bytes, SLICE_MAGIC.len() + 4 + 4 + 8 * 4 + 8)?;
    let mut d = Dec::new(payload);
    if d.take(SLICE_MAGIC.len())? != SLICE_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let slice_version = d.u32()?;
    if slice_version != SLICE_VERSION {
        return Err(SnapshotError::UnsupportedVersion(slice_version));
    }
    check_version(d.u32()?)?;
    let (lo, hi, total) = (d.usize()?, d.usize()?, d.usize()?);
    if !(lo < hi && hi <= total) {
        return Err(SnapshotError::Slice("invalid neuron range"));
    }
    let prefix_len = d.usize()?;
    let snap = parse_payload(d.take(prefix_len)?, false).map_err(|e| match e {
        SnapshotError::BadMagic => SnapshotError::Corrupt("embedded snapshot magic"),
        SnapshotError::UnsupportedVersion(_) => SnapshotError::Corrupt("embedded snapshot version"),
        e => e,
    })?;
    if snap.config.layers.last().map(|l| l.units) != Some(total) {
        return Err(SnapshotError::Slice("total differs from embedded config"));
    }
    let fan_in = snap
        .sections
        .last()
        .map_or(snap.config.input_dim, |s| s.units);
    let center_len = d.usize()?;
    if center_len != 0 && center_len != fan_in {
        return Err(SnapshotError::Corrupt("center length"));
    }
    let center = d.take(
        center_len
            .checked_mul(4)
            .ok_or(SnapshotError::Corrupt("size overflow"))?,
    )?;
    let out = Section::take(&mut d, hi - lo, fan_in, false)?;
    if d.pos != payload.len() {
        return Err(SnapshotError::Corrupt("trailing bytes"));
    }
    Ok(ParsedSlice {
        lo,
        hi,
        total,
        center,
        out,
        snap,
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
    let mut parts = slices
        .iter()
        .map(|s| parse_slice(s))
        .collect::<Result<Vec<_>, _>>()?;
    parts.sort_by_key(|p| p.lo);
    let Some(first) = parts.first() else {
        return Err(SnapshotError::Slice("no slices"));
    };
    if parts.iter().any(|p| {
        p.snap.prefix != first.snap.prefix
            || p.total != first.total
            || p.out.enc != first.out.enc
            || p.center != first.center
    }) {
        return Err(SnapshotError::Slice("slices come from different snapshots"));
    }
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
    if expect != first.total {
        return Err(SnapshotError::Slice("slices do not cover the output layer"));
    }
    // The parts now tile 0..total, and each one's sizes were checked
    // against its own bytes, so these counts cannot overflow.
    let (total, out) = (first.total, first.out);
    let mut e = Enc::default();
    e.buf.extend_from_slice(first.snap.prefix);
    e.u8(out.enc);
    e.u64((total * out.fan_in) as u64);
    for p in &parts {
        e.buf.extend_from_slice(p.out.scales);
    }
    for p in &parts {
        e.buf.extend_from_slice(p.out.rows);
    }
    e.u64(total as u64);
    for p in &parts {
        e.buf.extend_from_slice(p.out.biases);
    }
    Ok(e.finish())
}

/// The `(lo, hi, total)` output-neuron range of slice bytes, after the
/// checksum and the full structural parse but without restoring
/// anything. A caller that knows which range it expects — a shard
/// reloading its own slice — checks it here first, so it never restores
/// another shard's range.
///
/// # Errors
///
/// The typed [`SnapshotError`]s of [`read_slice`]'s parse.
pub fn slice_range(bytes: &[u8]) -> Result<(usize, usize, usize), SnapshotError> {
    let p = parse_slice(bytes)?;
    Ok((p.lo, p.hi, p.total))
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
    let ParsedSlice {
        lo,
        hi,
        total,
        center,
        out,
        mut snap,
    } = parse_slice(bytes)?;
    snap.sections.push(out);
    if let Some(layer) = snap.config.layers.last_mut() {
        layer.units = out.units;
        if let Some(lsh) = &mut layer.lsh {
            if let SamplingStrategy::Vanilla { budget } | SamplingStrategy::TopK { budget } =
                &mut lsh.strategy
            {
                *budget = (*budget).min(out.units);
            }
        }
    }
    Ok(LoadedSlice {
        snapshot: restore(snap, center_rows, Some((total, center)))?,
        lo,
        hi,
        total,
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

impl Network {
    /// Serializes this network (config + weights + biases) to version-2
    /// snapshot bytes with every layer stored as exact f32.
    pub fn to_snapshot_bytes(&self) -> Vec<u8> {
        write_with(self, false)
    }

    /// Serializes this network with the *output layer* stored as i16
    /// fixed-point rows with per-row scales ([`QuantizedRows`]) — roughly
    /// half the bytes of [`Network::to_snapshot_bytes`] when the output
    /// layer dominates. Hidden layers and all biases stay exact f32.
    pub fn to_quantized_snapshot_bytes(&self) -> Vec<u8> {
        write_with(self, true)
    }

    /// Restores a network from snapshot bytes: validates checksum, magic,
    /// version and every section size, rebuilds the network from the
    /// embedded config, copies the weights and biases in, and rebuilds
    /// every LSH layer's hash tables from the restored weights. Quantized
    /// rows are discarded; [`read_snapshot_with_centering`] keeps them.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] on a malformed snapshot.
    pub fn from_snapshot_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        read_snapshot_with_centering(bytes, None).map(|s| s.network)
    }

    /// Writes [`Network::to_snapshot_bytes`] to `path` via
    /// [`publish_bytes`] — atomically published, so a concurrent reader
    /// never sees a torn file.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Io`] on filesystem failure.
    pub fn save_snapshot<P: AsRef<Path>>(&self, path: P) -> Result<(), SnapshotError> {
        publish_bytes(path, &self.to_snapshot_bytes())
    }

    /// Loads a snapshot file ([`Network::from_snapshot_bytes`]).
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] on filesystem failure or a malformed
    /// snapshot.
    pub fn load_snapshot<P: AsRef<Path>>(path: P) -> Result<Self, SnapshotError> {
        Self::from_snapshot_bytes(&std::fs::read(path)?)
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
        net.layers()[0].set_weight(3, 5, 1.25);
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
        net.save_snapshot(&path).unwrap();
        publish_bytes(&path, &net.to_quantized_snapshot_bytes()).unwrap();
        let restored = Network::load_snapshot(&path).unwrap();
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
    fn restore_builds_the_tables_network_new_would_rebuild() {
        // The reference restores the slow way: `Network::new` (Glorot
        // draws, initial build), install, rebuild. Both LSH layers use
        // small tables so buckets overflow and the insertion policy (and
        // for Reservoir, the RNG stream) decides their contents; the
        // hidden layer is input-major, the output layer unit-major.
        use crate::layer::oracle::{assert_same_tables, reference_tables};
        let policies = [InsertionPolicy::Fifo, InsertionPolicy::Reservoir];
        for (policy, centered) in policies.into_iter().flat_map(|p| [(p, false), (p, true)]) {
            let lsh = |l: LshLayerConfig| {
                l.with_policy(policy)
                    .with_tables(3, 2)
                    .with_centered_rows(centered)
            };
            let cfg = NetworkConfig::builder(32, 60)
                .hidden_lsh(24, lsh(LshLayerConfig::simhash(2, 3)))
                .output_lsh(lsh(LshLayerConfig::dwta(2, 4)))
                .seed(71)
                .build()
                .unwrap();
            // Train-side hashing is raw; the restore overrides it.
            let mut raw = cfg.clone();
            for layer in &mut raw.layers {
                layer.lsh.as_mut().unwrap().center_rows = false;
            }
            let net = Network::new(raw).unwrap();
            net.layers()[0].set_weight(5, 7, 1.5);
            net.layers()[1].set_weight(33, 2, -2.0);
            for (enc, bytes) in [
                ("f32", net.to_snapshot_bytes()),
                ("q16", net.to_quantized_snapshot_bytes()),
            ] {
                let case = format!("{policy} centered={centered} {enc}");
                let mut reference = Network::new(cfg.clone()).unwrap();
                let parsed = parse_snapshot(&bytes).unwrap();
                for (layer, section) in reference.layers_mut().iter_mut().zip(&parsed.sections) {
                    section.install(layer).unwrap();
                    layer.rebuild_tables();
                }
                let want = |li: usize| reference.layers()[li].lsh().unwrap().tables();

                let full = read_snapshot_with_centering(&bytes, Some(centered)).unwrap();
                let mut overflowed = 0;
                for (li, layer) in full.network.layers().iter().enumerate() {
                    let lsh = layer.lsh().unwrap();
                    assert_eq!(lsh.rebuild_count(), 2, "{case}: layer {li}");
                    assert_eq!(lsh.centered(), centered, "{case}: layer {li}");
                    overflowed += assert_same_tables(lsh.tables(), want(li), &case);
                }
                assert!(overflowed > 0, "{case}: no bucket overflowed");

                let ref_out = &reference.layers()[1];
                for slice in slice_snapshot(&bytes, 3).unwrap() {
                    let loaded = read_slice(&slice, Some(centered)).unwrap();
                    let case = format!("{case} slice {}..{}", loaded.lo, loaded.hi);
                    let layers = loaded.snapshot.network.layers();
                    assert_same_tables(layers[0].lsh().unwrap().tables(), want(0), &case);
                    let out = layers[1].lsh().unwrap();
                    assert_eq!(out.rebuild_count(), 2, "{case}");
                    let shard = reference_tables(ref_out, loaded.lo..loaded.hi);
                    assert_same_tables(out.tables(), &shard, &case);
                }
            }
        }
    }

    #[test]
    fn weights_are_unit_major_on_disk_in_either_orientation() {
        // 12 hidden units install as one partial block, 32 as two whole
        // ones.
        for hidden in [12, 32] {
            let cfg = NetworkConfig::builder(32, 60).hidden(hidden).seed(5);
            let net = Network::new(cfg.build().unwrap()).unwrap();
            net.layers()[0].set_weight(3, 5, 1.25);
            assert!(net.layers()[0].input_major() && !net.layers()[1].input_major());
            let bytes = net.to_snapshot_bytes();
            let parsed = parse_snapshot(&bytes).unwrap();
            for (layer, section) in net.layers().iter().zip(&parsed.sections) {
                let mut on_disk = f32s(section.rows);
                for j in 0..layer.units() {
                    for i in 0..layer.fan_in() {
                        let w = on_disk.next().unwrap();
                        assert_eq!(w.to_bits(), layer.weight(j, i).to_bits(), "({j},{i})");
                    }
                }
            }
            let restored = Network::from_snapshot_bytes(&bytes).unwrap();
            for (a, b) in net.layers().iter().zip(restored.layers()) {
                let (wa, wb) = (a.weights().flat(), b.weights().flat());
                assert!((0..wa.len()).all(|i| wa.get(i).to_bits() == wb.get(i).to_bits()));
            }
            assert_eq!(restored.layers()[0].weight(3, 5), 1.25);
        }
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
        net.layers()[0].set_weight(2, 9, -0.75);
        net.layers()[1].set_weight(41, 3, 2.5);
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
                // The shard hashed its rows to the full layer's codes for
                // the same global rows (same family draws, same centering
                // vector): with no bucket overflowing, full-layer id
                // `lo + j` sits in a bucket exactly when shard id `j` does.
                let full_tables = full_out.lsh().unwrap().tables().tables();
                let shard_tables = shard_out.lsh().unwrap().tables().tables();
                assert_eq!(full_tables.len(), shard_tables.len());
                for (t, (ft, st)) in full_tables.iter().zip(shard_tables).enumerate() {
                    assert_eq!(ft.buckets().len(), st.buckets().len());
                    for (b, (fb, sb)) in ft.buckets().iter().zip(st.buckets()).enumerate() {
                        assert!(fb.attempts() <= fb.capacity() as u64, "bucket overflowed");
                        for j in 0..hi - lo {
                            assert_eq!(
                                fb.items().contains(&((lo + j) as u32)),
                                sb.items().contains(&(j as u32)),
                                "table {t} bucket {b}: id {} vs shard id {j}",
                                lo + j
                            );
                        }
                    }
                }
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
    fn snapshot_and_slice_bytes_are_pinned() {
        // FNV-1a of the f32 and q16 snapshots of `centered_network()`,
        // each followed by its three slices: any drift in either byte
        // format fails here.
        let net = centered_network();
        let mut got = Vec::new();
        for bytes in [net.to_snapshot_bytes(), net.to_quantized_snapshot_bytes()] {
            got.push(fnv1a(&bytes));
            got.extend(slice_snapshot(&bytes, 3).unwrap().iter().map(|s| fnv1a(s)));
        }
        assert_eq!(
            got,
            [
                0x9DDA_9834_0BA1_4D80,
                0x0371_E094_2025_5F2B,
                0x8D1A_D23A_8890_76FC,
                0xACA3_11BB_0697_26E7,
                0xFC23_95A5_07DE_D1A1,
                0x612C_356B_9477_DA9A,
                0x0B1C_DD97_5F52_0B00,
                0x67D8_EE91_837C_6CC2,
            ]
        );
    }

    /// Recomputes the trailing checksum after a deliberate mutation.
    fn refix(bytes: &mut [u8]) {
        let n = bytes.len();
        let check = fnv1a(&bytes[..n - 8]).to_le_bytes();
        bytes[n - 8..].copy_from_slice(&check);
    }

    #[test]
    fn crafted_slice_with_overflowing_width_is_corrupt() {
        // A q16 slice of a hidden-width-2 network whose `hi`, `total` and
        // embedded output `units` all claim 2^62 + 1 rows: the row-size
        // arithmetic overflows, which must be a typed error, not a panic.
        let cfg = NetworkConfig::builder(32, 60)
            .hidden(2)
            .output_lsh(
                LshLayerConfig::simhash(3, 6).with_strategy(SamplingStrategy::TopK { budget: 20 }),
            )
            .seed(7)
            .build()
            .unwrap();
        let net = Network::new(cfg).unwrap();
        let mut slice = slice_snapshot(&net.to_quantized_snapshot_bytes(), 2)
            .unwrap()
            .remove(0);
        // `hi` and `total` sit at 24 and 32. The embedded prefix starts at
        // 48; its output `units` follow the 49-byte head (magic, version,
        // fixed config fields) and the hidden layer's 10 config bytes.
        let units_at = 48 + 49 + 10;
        assert_eq!(slice[units_at..units_at + 8], 60u64.to_le_bytes());
        for at in [24, 32, units_at] {
            slice[at..at + 8].copy_from_slice(&((1u64 << 62) + 1).to_le_bytes());
        }
        refix(&mut slice);
        assert!(matches!(
            read_slice(&slice, None),
            Err(SnapshotError::Corrupt(_))
        ));
        assert!(matches!(
            assemble_slices(&[slice]),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    /// `(offset, width)` of every u32/u64 header and count field in the
    /// snapshot of `sweep_network()`: version, input_dim, seed, n_layers,
    /// both layers' units, the output layer's k, l, table_bits,
    /// bucket_capacity, budget and rebuild period, then each section's
    /// weight and bias counts.
    const SWEEP_FIELDS: [(usize, usize); 16] = [
        (8, 4),
        (12, 8),
        (20, 8),
        (45, 4),
        (49, 8),
        (59, 8),
        (78, 8),
        (86, 8),
        (94, 4),
        (98, 8),
        (108, 8),
        (116, 8),
        (134, 8),
        (190, 8),
        (207, 8),
        (311, 8),
    ];

    /// A network small enough to sweep exhaustively. Every field in
    /// [`SWEEP_FIELDS`] holds a value below 2^16, which lets the sweep
    /// check the table's offsets against the bytes.
    fn sweep_network() -> Network {
        let cfg = NetworkConfig::builder(6, 12)
            .hidden(2)
            .output_lsh(
                LshLayerConfig::simhash(2, 3)
                    .with_tables(3, 4)
                    .with_strategy(SamplingStrategy::TopK { budget: 4 })
                    .with_centered_rows(true),
            )
            .seed(5)
            .build()
            .unwrap();
        Network::new(cfg).unwrap()
    }

    #[test]
    fn adversarial_inputs_never_panic() {
        use slide_data::Rng;
        let net = sweep_network();
        let read_u = |b: &[u8], (at, width): (usize, usize)| {
            let mut v = [0u8; 8];
            v[..width].copy_from_slice(&b[at..at + width]);
            u64::from_le_bytes(v)
        };
        // (input, the other slices of its set, its u32/u64 fields)
        let mut bases = Vec::new();
        for (shard, bytes) in [net.to_snapshot_bytes(), net.to_quantized_snapshot_bytes()]
            .into_iter()
            .enumerate()
        {
            let mut slices = slice_snapshot(&bytes, 3).unwrap();
            let slice = slices.remove(shard);
            let prefix_len = read_u(&slice, (40, 8)) as usize;
            let mut fields = vec![(8, 4), (12, 4), (16, 8), (24, 8), (32, 8), (40, 8)];
            fields.extend(
                SWEEP_FIELDS
                    .iter()
                    .filter(|&&(at, width)| at + width <= prefix_len)
                    .map(|&(at, width)| (48 + at, width)),
            );
            fields.push((48 + prefix_len, 8));
            bases.push((bytes, Vec::new(), SWEEP_FIELDS.to_vec()));
            bases.push((slice, slices, fields));
        }
        let mut rng = slide_data::rng::Xoshiro256PlusPlus::seed_from_u64(29);
        let mut inputs = Vec::new();
        for (good, siblings, fields) in &bases {
            let n = good.len();
            let mut push = |bytes: Vec<u8>| inputs.push((bytes, siblings));
            for cut in 0..n {
                push(good[..cut].to_vec());
            }
            // Every byte inverted; config bytes included, since an
            // inverted count or table_bits lands far outside its range.
            for at in 0..n - 8 {
                let mut b = good.clone();
                b[at] ^= 0xFF;
                refix(&mut b);
                push(b);
            }
            // A seeded sample of arbitrary byte values past the config
            // head (offset 133, or 181 inside a slice), where weights,
            // scales, biases and counts live.
            let head = if good.starts_with(MAGIC) { 133 } else { 181 };
            for _ in 0..128 {
                let mut b = good.clone();
                let at = head + rng.next_u64() as usize % (n - 8 - head);
                b[at] ^= (rng.next_u64() % 255 + 1) as u8;
                refix(&mut b);
                push(b);
            }
            for &field in fields {
                assert!(read_u(good, field) < 1 << 16, "field {field:?} misplaced");
                for v in [0, 1, u32::MAX as u64, (1 << 62) + 1, u64::MAX] {
                    let mut b = good.clone();
                    b[field.0..field.0 + field.1].copy_from_slice(&v.to_le_bytes()[..field.1]);
                    refix(&mut b);
                    push(b);
                }
            }
        }
        let mut panicked = 0;
        for (bytes, siblings) in &inputs {
            let mut set = vec![bytes.clone()];
            set.extend(siblings.iter().cloned());
            let outcome = std::panic::catch_unwind(|| {
                let _ = Network::from_snapshot_bytes(bytes);
                let _ = slice_snapshot(bytes, 3);
                let _ = read_slice(bytes, Some(true));
                let _ = assemble_slices(&set);
            });
            panicked += outcome.is_err() as usize;
        }
        assert!(inputs.len() > 2_000, "{} inputs", inputs.len());
        assert_eq!(
            panicked,
            0,
            "{panicked} of {} inputs panicked",
            inputs.len()
        );
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
