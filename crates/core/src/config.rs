//! Network and layer configuration.
//!
//! A SLIDE network is a stack of fully connected layers; any layer can
//! carry an [`LshLayerConfig`] that replaces its dense forward pass with
//! LSH-sampled adaptive sparsity. The paper's experimental configuration —
//! one 128-unit ReLU hidden layer and an LSH-sampled softmax output — is
//! expressed as:
//!
//! ```
//! use slide_core::config::{LshLayerConfig, NetworkConfig};
//!
//! let cfg = NetworkConfig::builder(782_585, 205_443)
//!     .hidden(128)
//!     .output_lsh(LshLayerConfig::simhash(9, 50))
//!     .seed(42)
//!     .build()?;
//! assert_eq!(cfg.layers.len(), 2);
//! # Ok::<(), slide_core::error::ConfigError>(())
//! ```

use slide_kernels::{AdamParams, KernelMode};
use slide_lsh::family::HashFamilyKind;
use slide_lsh::policy::InsertionPolicy;
use slide_lsh::sampling::SamplingStrategy;

use crate::error::ConfigError;
use crate::schedule::RebuildSchedule;

/// Neuron nonlinearity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Rectified linear (hidden layers).
    Relu,
    /// Softmax over the active set (output layer).
    Softmax,
}

/// Hash-family construction parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FamilySpec {
    /// SimHash with the given plane sparsity (paper default 1/3).
    SimHash {
        /// Fraction of nonzero ±1 components per plane, in `(0, 1]`.
        sparsity: f64,
    },
    /// WTA with bin size `m`.
    Wta {
        /// Coordinates per bin; the code range.
        m: usize,
    },
    /// DWTA with bin size `m`.
    Dwta {
        /// Coordinates per bin; the code range.
        m: usize,
    },
    /// DOPH with the given bin width and top-`t` binarization.
    Doph {
        /// Permuted values per bin; the code range.
        bin_width: u32,
        /// Coordinates kept by the binarization threshold.
        top_t: usize,
    },
}

impl FamilySpec {
    /// Which family kind this spec builds.
    pub fn kind(&self) -> HashFamilyKind {
        match self {
            FamilySpec::SimHash { .. } => HashFamilyKind::SimHash,
            FamilySpec::Wta { .. } => HashFamilyKind::Wta,
            FamilySpec::Dwta { .. } => HashFamilyKind::Dwta,
            FamilySpec::Doph { .. } => HashFamilyKind::Doph,
        }
    }
}

/// Per-layer LSH configuration (paper §3.2: parameters `K`, `L` and the
/// bucket size; §4.1: sampling strategy; §4.2: rebuild schedule and
/// bucket replacement policy).
#[derive(Debug, Clone, PartialEq)]
pub struct LshLayerConfig {
    /// Hash family and its parameters.
    pub family: FamilySpec,
    /// Hash functions per table.
    pub k: usize,
    /// Number of tables.
    pub l: usize,
    /// `2^table_bits` buckets per table.
    pub table_bits: u32,
    /// Fixed bucket capacity.
    pub bucket_capacity: usize,
    /// Replacement policy for full buckets.
    pub policy: InsertionPolicy,
    /// Active-set selection strategy. A budget of `0` means *auto*:
    /// resolved to ~0.5% of the layer's units (the paper's observed
    /// active fraction), at least 16.
    pub strategy: SamplingStrategy,
    /// When to rebuild the tables.
    pub rebuild: RebuildSchedule,
    /// Hash *centered* weight rows (`wⱼ − w̄`) when building the tables.
    ///
    /// Softmax training pushes every class away from the typical input,
    /// so all weight rows share a large common component that dominates
    /// cosine similarity and makes raw-row LSH retrieve the wrong
    /// neurons at inference. Subtracting the layer-mean row from every
    /// row before hashing removes that component *without changing the
    /// score ranking* (a fixed offset shifts every `wⱼ·x` by the same
    /// query constant). Off by default to preserve the paper's
    /// training-time sampling; the serving engine turns it on.
    pub center_rows: bool,
}

impl LshLayerConfig {
    /// SimHash configuration with paper-style defaults (sparsity 1/3,
    /// vanilla sampling with auto budget, FIFO buckets, exponential-decay
    /// rebuilds with `N₀ = 50`).
    pub fn simhash(k: usize, l: usize) -> Self {
        Self {
            family: FamilySpec::SimHash {
                sparsity: 1.0 / 3.0,
            },
            k,
            l,
            table_bits: 12,
            bucket_capacity: 128,
            policy: InsertionPolicy::Fifo,
            strategy: SamplingStrategy::Vanilla { budget: 0 },
            rebuild: RebuildSchedule::default(),
            center_rows: false,
        }
    }

    /// DWTA configuration with bin size 8 (the paper's Amazon-670K
    /// setting uses DWTA with `K = 8, L = 50`).
    pub fn dwta(k: usize, l: usize) -> Self {
        Self {
            family: FamilySpec::Dwta { m: 8 },
            ..Self::simhash(k, l)
        }
    }

    /// WTA configuration with bin size 8 (dense inputs).
    pub fn wta(k: usize, l: usize) -> Self {
        Self {
            family: FamilySpec::Wta { m: 8 },
            ..Self::simhash(k, l)
        }
    }

    /// DOPH configuration (bin width 16, top-32 binarization).
    pub fn doph(k: usize, l: usize) -> Self {
        Self {
            family: FamilySpec::Doph {
                bin_width: 16,
                top_t: 32,
            },
            ..Self::simhash(k, l)
        }
    }

    /// Overrides the sampling strategy (builder style).
    pub fn with_strategy(mut self, strategy: SamplingStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Overrides the rebuild schedule (builder style).
    pub fn with_rebuild(mut self, rebuild: RebuildSchedule) -> Self {
        self.rebuild = rebuild;
        self
    }

    /// Overrides the bucket replacement policy (builder style).
    pub fn with_policy(mut self, policy: InsertionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Overrides table bits / bucket capacity (builder style).
    pub fn with_tables(mut self, table_bits: u32, bucket_capacity: usize) -> Self {
        self.table_bits = table_bits;
        self.bucket_capacity = bucket_capacity;
        self
    }

    /// Enables/disables centered-row hashing (builder style); see
    /// [`LshLayerConfig::center_rows`].
    pub fn with_centered_rows(mut self, on: bool) -> Self {
        self.center_rows = on;
        self
    }

    fn validate(&self, layer: usize, fan_in: usize, units: usize) -> Result<(), ConfigError> {
        let err = |message: String| ConfigError::InvalidLsh { layer, message };
        if self.k == 0 || self.l == 0 {
            return Err(err("k and l must be positive".into()));
        }
        if !(1..=30).contains(&self.table_bits) {
            return Err(err(format!(
                "table_bits {} outside 1..=30",
                self.table_bits
            )));
        }
        if self.bucket_capacity == 0 {
            return Err(err("bucket_capacity must be positive".into()));
        }
        if self.rebuild.initial_period == 0
            || self.rebuild.decay.is_nan()
            || self.rebuild.decay < 0.0
        {
            return Err(err(
                "rebuild schedule needs initial_period > 0 and decay >= 0".into(),
            ));
        }
        match self.family {
            FamilySpec::SimHash { sparsity } => {
                if !(sparsity > 0.0 && sparsity <= 1.0) {
                    return Err(err(format!("simhash sparsity {sparsity} outside (0, 1]")));
                }
            }
            FamilySpec::Wta { m } | FamilySpec::Dwta { m } => {
                if m == 0 || m > fan_in {
                    return Err(err(format!("bin size m={m} outside 1..={fan_in}")));
                }
            }
            FamilySpec::Doph { bin_width, top_t } => {
                if bin_width == 0 {
                    return Err(err("doph bin_width must be positive".into()));
                }
                if top_t == 0 || top_t > fan_in {
                    return Err(err(format!("doph top_t={top_t} outside 1..={fan_in}")));
                }
            }
        }
        match self.strategy {
            SamplingStrategy::Vanilla { budget } | SamplingStrategy::TopK { budget } => {
                if budget > units {
                    return Err(err(format!("budget {budget} exceeds units {units}")));
                }
            }
            SamplingStrategy::HardThreshold { min_count } => {
                if min_count == 0 || min_count > self.l {
                    return Err(err(format!(
                        "hard threshold m={min_count} outside 1..={}",
                        self.l
                    )));
                }
            }
        }
        Ok(())
    }

    /// The auto-resolved sampling budget for a layer of `units` neurons:
    /// 0.5% of units, clamped to `[16, units]`.
    pub fn resolve_budget(budget: usize, units: usize) -> usize {
        if budget > 0 {
            budget.min(units)
        } else {
            ((units as f64 * 0.005).ceil() as usize).clamp(16.min(units), units)
        }
    }
}

/// One layer: size, nonlinearity and optional LSH sampling.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerConfig {
    /// Number of neurons.
    pub units: usize,
    /// Nonlinearity.
    pub activation: Activation,
    /// LSH sampling; `None` means a dense layer.
    pub lsh: Option<LshLayerConfig>,
}

/// Complete network configuration. Build with [`NetworkConfig::builder`].
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkConfig {
    /// Input feature dimension.
    pub input_dim: usize,
    /// Layers, first-to-last; the last is the softmax output.
    pub layers: Vec<LayerConfig>,
    /// RNG seed for weight init and hash functions.
    pub seed: u64,
    /// Kernel implementation toggle (Figure 10).
    pub kernel_mode: KernelMode,
    /// Adam hyper-parameters.
    pub adam: AdamParams,
}

impl NetworkConfig {
    /// Starts a builder for a network mapping `input_dim` features to
    /// `output_dim` classes.
    pub fn builder(input_dim: usize, output_dim: usize) -> NetworkConfigBuilder {
        NetworkConfigBuilder {
            input_dim,
            output_dim,
            hidden: Vec::new(),
            output_lsh: None,
            seed: 0,
            kernel_mode: KernelMode::default(),
            adam: AdamParams::default(),
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns the first inconsistency found.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.input_dim == 0 {
            return Err(ConfigError::ZeroDimension { what: "input_dim" });
        }
        if self.layers.is_empty() {
            return Err(ConfigError::NoLayers);
        }
        let mut fan_in = self.input_dim;
        for (i, layer) in self.layers.iter().enumerate() {
            if layer.units == 0 {
                return Err(ConfigError::ZeroDimension {
                    what: "layer units",
                });
            }
            if let Some(lsh) = &layer.lsh {
                lsh.validate(i, fan_in, layer.units)?;
            }
            fan_in = layer.units;
        }
        Ok(())
    }

    /// A clone with all LSH configs removed — the dense baseline runs the
    /// *same architecture* without adaptive sparsity.
    pub fn without_lsh(&self) -> Self {
        let mut c = self.clone();
        for l in &mut c.layers {
            l.lsh = None;
        }
        c
    }

    /// Number of trainable parameters (weights + biases).
    pub fn num_parameters(&self) -> usize {
        let mut fan_in = self.input_dim;
        let mut total = 0;
        for l in &self.layers {
            total += l.units * (fan_in + 1);
            fan_in = l.units;
        }
        total
    }
}

/// Builder for [`NetworkConfig`].
#[derive(Debug, Clone)]
pub struct NetworkConfigBuilder {
    input_dim: usize,
    output_dim: usize,
    hidden: Vec<LayerConfig>,
    output_lsh: Option<LshLayerConfig>,
    seed: u64,
    kernel_mode: KernelMode,
    adam: AdamParams,
}

impl NetworkConfigBuilder {
    /// Appends a dense ReLU hidden layer.
    pub fn hidden(mut self, units: usize) -> Self {
        self.hidden.push(LayerConfig {
            units,
            activation: Activation::Relu,
            lsh: None,
        });
        self
    }

    /// Appends an LSH-sampled ReLU hidden layer.
    pub fn hidden_lsh(mut self, units: usize, lsh: LshLayerConfig) -> Self {
        self.hidden.push(LayerConfig {
            units,
            activation: Activation::Relu,
            lsh: Some(lsh),
        });
        self
    }

    /// Puts LSH sampling on the output layer (the paper's configuration:
    /// "we maintain the hash tables for the last layer, where we have a
    /// computational bottleneck").
    pub fn output_lsh(mut self, lsh: LshLayerConfig) -> Self {
        self.output_lsh = Some(lsh);
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the kernel mode (Figure 10 toggle).
    pub fn kernel_mode(mut self, mode: KernelMode) -> Self {
        self.kernel_mode = mode;
        self
    }

    /// Sets the Adam learning rate.
    pub fn learning_rate(mut self, lr: f32) -> Self {
        self.adam.lr = lr;
        self
    }

    /// Sets full Adam hyper-parameters.
    pub fn adam(mut self, adam: AdamParams) -> Self {
        self.adam = adam;
        self
    }

    /// Finalizes and validates.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] describing the first inconsistency.
    pub fn build(self) -> Result<NetworkConfig, ConfigError> {
        let mut layers = self.hidden;
        layers.push(LayerConfig {
            units: self.output_dim,
            activation: Activation::Softmax,
            lsh: self.output_lsh,
        });
        let config = NetworkConfig {
            input_dim: self.input_dim,
            layers,
            seed: self.seed,
            kernel_mode: self.kernel_mode,
            adam: self.adam,
        };
        config.validate()?;
        Ok(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_assembles_paper_architecture() {
        let cfg = NetworkConfig::builder(1000, 500)
            .hidden(128)
            .output_lsh(LshLayerConfig::simhash(9, 50))
            .seed(7)
            .build()
            .unwrap();
        assert_eq!(cfg.layers.len(), 2);
        assert_eq!(cfg.layers[0].units, 128);
        assert_eq!(cfg.layers[0].activation, Activation::Relu);
        assert!(cfg.layers[0].lsh.is_none());
        assert_eq!(cfg.layers[1].units, 500);
        assert_eq!(cfg.layers[1].activation, Activation::Softmax);
        assert!(cfg.layers[1].lsh.is_some());
        assert_eq!(cfg.num_parameters(), 128 * 1001 + 500 * 129);
    }

    #[test]
    fn zero_dims_rejected() {
        assert!(matches!(
            NetworkConfig::builder(0, 5).hidden(4).build(),
            Err(ConfigError::ZeroDimension { .. })
        ));
        assert!(matches!(
            NetworkConfig::builder(5, 0).build(),
            Err(ConfigError::ZeroDimension { .. })
        ));
    }

    #[test]
    fn bad_lsh_params_rejected() {
        // DWTA bin larger than the fan-in (hidden size 8).
        let lsh = LshLayerConfig {
            family: FamilySpec::Dwta { m: 100 },
            ..LshLayerConfig::dwta(4, 8)
        };
        let err = NetworkConfig::builder(1000, 50)
            .hidden(8)
            .output_lsh(lsh)
            .build()
            .unwrap_err();
        assert!(matches!(err, ConfigError::InvalidLsh { layer: 1, .. }));
    }

    #[test]
    fn hard_threshold_bounds_checked() {
        let lsh = LshLayerConfig::simhash(3, 10)
            .with_strategy(SamplingStrategy::HardThreshold { min_count: 11 });
        assert!(NetworkConfig::builder(100, 50)
            .hidden(16)
            .output_lsh(lsh)
            .build()
            .is_err());
    }

    #[test]
    fn budget_auto_resolution() {
        assert_eq!(LshLayerConfig::resolve_budget(0, 100_000), 500);
        assert_eq!(LshLayerConfig::resolve_budget(0, 1000), 16);
        assert_eq!(LshLayerConfig::resolve_budget(0, 10), 10);
        assert_eq!(LshLayerConfig::resolve_budget(250, 100_000), 250);
        assert_eq!(LshLayerConfig::resolve_budget(250, 100), 100);
    }

    #[test]
    fn without_lsh_strips_everything() {
        let cfg = NetworkConfig::builder(100, 50)
            .hidden_lsh(32, LshLayerConfig::simhash(2, 4))
            .output_lsh(LshLayerConfig::simhash(3, 5))
            .build()
            .unwrap();
        let dense = cfg.without_lsh();
        assert!(dense.layers.iter().all(|l| l.lsh.is_none()));
        assert_eq!(dense.num_parameters(), cfg.num_parameters());
    }

    #[test]
    fn family_spec_kinds() {
        assert_eq!(
            FamilySpec::SimHash { sparsity: 0.5 }.kind(),
            HashFamilyKind::SimHash
        );
        assert_eq!(FamilySpec::Dwta { m: 4 }.kind(), HashFamilyKind::Dwta);
    }

    #[test]
    fn lsh_builder_overrides() {
        let lsh = LshLayerConfig::simhash(2, 3)
            .with_policy(InsertionPolicy::Reservoir)
            .with_tables(8, 32)
            .with_strategy(SamplingStrategy::TopK { budget: 64 })
            .with_rebuild(RebuildSchedule::fixed(100));
        assert_eq!(lsh.policy, InsertionPolicy::Reservoir);
        assert_eq!(lsh.table_bits, 8);
        assert_eq!(lsh.bucket_capacity, 32);
        assert_eq!(lsh.strategy, SamplingStrategy::TopK { budget: 64 });
        assert_eq!(lsh.rebuild, RebuildSchedule::fixed(100));
    }
}
