//! Quantized output-layer rows for inference snapshots.
//!
//! The serving working set is dominated by the output layer: a
//! 128 × 670k extreme-classification head is ~343 MB of f32 weights, and
//! every retrieved candidate costs one row-gather through it. Storing
//! those rows as i16 fixed-point with a per-row scale halves the bytes
//! touched per candidate — the paper's memory-bandwidth argument applied
//! to serving — while training stays f32/HOGWILD untouched.
//!
//! [`QuantizedRows`] is the in-memory decoded form: row-major i16 codes
//! plus one f32 scale per row. Snapshots carry it as the `q16` per-layer
//! encoding (see [`crate::snapshot`]); inference consumes it through the
//! fused dequantize-dot kernel [`slide_kernels::dot_batch_q16`], which
//! never materializes an f32 row.
//!
//! Biases are *not* duplicated here: they are per-unit f32 (tiny) and the
//! restored [`crate::layer::Layer`] already holds them.

use slide_kernels::quantize_row;

use crate::layer::Layer;

/// Row-major i16 fixed-point weight rows with per-row scales.
///
/// Row `j` decodes as `w[j][i] ≈ scales[j] * q[j*fan_in + i]`. The
/// quantization error per element is bounded by `scales[j] / 2`
/// (≈ `max|w[j]| / 65534`, up to f32 rounding in the encode).
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedRows {
    units: usize,
    fan_in: usize,
    q: Vec<i16>,
    scales: Vec<f32>,
}

impl QuantizedRows {
    /// Builds quantized rows from raw parts.
    ///
    /// # Panics
    ///
    /// Panics if `q.len() != units * fan_in` or `scales.len() != units`.
    pub fn from_parts(units: usize, fan_in: usize, q: Vec<i16>, scales: Vec<f32>) -> Self {
        assert_eq!(q.len(), units * fan_in, "code count mismatch");
        assert_eq!(scales.len(), units, "scale count mismatch");
        Self {
            units,
            fan_in,
            q,
            scales,
        }
    }

    /// Quantizes every weight row of `layer` (biases stay on the layer).
    pub fn from_layer(layer: &Layer) -> Self {
        let units = layer.units();
        let fan_in = layer.fan_in();
        let mut row = vec![0.0f32; fan_in];
        let mut q = vec![0i16; units * fan_in];
        let mut scales = Vec::with_capacity(units);
        for j in 0..units {
            layer.read_unit_into(j, &mut row);
            scales.push(quantize_row(&row, &mut q[j * fan_in..(j + 1) * fan_in]));
        }
        Self {
            units,
            fan_in,
            q,
            scales,
        }
    }

    /// Number of rows (output units).
    #[inline]
    pub fn units(&self) -> usize {
        self.units
    }

    /// Row width (fan-in of the quantized layer).
    #[inline]
    pub fn fan_in(&self) -> usize {
        self.fan_in
    }

    /// The i16 codes of row `j`.
    #[inline]
    pub fn row(&self, j: usize) -> &[i16] {
        &self.q[j * self.fan_in..(j + 1) * self.fan_in]
    }

    /// The dequantization scale of row `j`.
    #[inline]
    pub fn scale(&self, j: usize) -> f32 {
        self.scales[j]
    }

    /// All codes, row-major.
    #[inline]
    pub fn codes(&self) -> &[i16] {
        &self.q
    }

    /// All per-row scales.
    #[inline]
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Decodes row `j` into `out` (for tests and diagnostics; inference
    /// uses the fused kernels and never calls this).
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != fan_in`.
    pub fn dequantize_row(&self, j: usize, out: &mut [f32]) {
        assert_eq!(out.len(), self.fan_in, "row buffer size mismatch");
        let s = self.scales[j];
        for (o, &c) in out.iter_mut().zip(self.row(j)) {
            *o = s * c as f32;
        }
    }

    /// Bytes of the decoded working set (codes + scales), for telemetry.
    pub fn bytes(&self) -> usize {
        self.q.len() * std::mem::size_of::<i16>() + self.scales.len() * std::mem::size_of::<f32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{LshLayerConfig, NetworkConfig};
    use crate::network::Network;

    fn network() -> Network {
        let cfg = NetworkConfig::builder(24, 40)
            .hidden(10)
            .output_lsh(LshLayerConfig::simhash(3, 6))
            .seed(5)
            .build()
            .unwrap();
        Network::new(cfg).unwrap()
    }

    #[test]
    fn from_layer_bounds_error_by_half_scale() {
        let net = network();
        let out = &net.layers()[1];
        let q = QuantizedRows::from_layer(out);
        assert_eq!(q.units(), out.units());
        assert_eq!(q.fan_in(), out.fan_in());
        let mut row = vec![0.0f32; out.fan_in()];
        let mut deq = vec![0.0f32; out.fan_in()];
        for j in 0..q.units() {
            out.weights().read_row_into(j, &mut row);
            q.dequantize_row(j, &mut deq);
            // Half a step, padded for f32 rounding in the encode.
            let bound = q.scale(j) * 0.505 + 1e-12;
            for (i, (&w, &d)) in row.iter().zip(&deq).enumerate() {
                assert!(
                    (w - d).abs() <= bound,
                    "row {j} col {i}: |{w} - {d}| > {bound}"
                );
            }
        }
    }

    #[test]
    fn round_trip_through_parts() {
        let net = network();
        let q = QuantizedRows::from_layer(&net.layers()[1]);
        let rebuilt = QuantizedRows::from_parts(
            q.units(),
            q.fan_in(),
            q.codes().to_vec(),
            q.scales().to_vec(),
        );
        assert_eq!(rebuilt, q);
    }

    #[test]
    #[should_panic(expected = "code count mismatch")]
    fn from_parts_validates_code_count() {
        QuantizedRows::from_parts(2, 3, vec![0i16; 5], vec![0.0; 2]);
    }

    #[test]
    #[should_panic(expected = "scale count mismatch")]
    fn from_parts_validates_scale_count() {
        QuantizedRows::from_parts(2, 3, vec![0i16; 6], vec![0.0; 3]);
    }

    #[test]
    fn bytes_reports_halved_working_set() {
        let net = network();
        let out = &net.layers()[1];
        let q = QuantizedRows::from_layer(out);
        let f32_bytes = out.units() * out.fan_in() * 4;
        assert!(
            q.bytes() <= f32_bytes * 6 / 10,
            "{} vs {}",
            q.bytes(),
            f32_bytes
        );
    }
}
