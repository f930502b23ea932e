//! # slide-kernels
//!
//! Numeric kernels for the SLIDE reproduction, in two flavours selected by
//! [`KernelMode`]:
//!
//! * [`KernelMode::Scalar`] — straightforward element-at-a-time loops, the
//!   "plain SLIDE" of the paper's Figure 10;
//! * [`KernelMode::Vectorized`] — 8-lane unrolled loops written so the
//!   compiler's auto-vectorizer emits SIMD, standing in for the paper's
//!   hand-written Intel AVX kernels (§5.4, Appendix D), plus explicit
//!   x86 prefetch hints where available (the paper's software pipelining).
//!
//! The [`aligned`] module provides [`CachePadded`], the cache-line padding
//! that is the paper's fix for false sharing between OpenMP threads
//! ("carefully allocating data structures and aligning them on cache line
//! boundaries"; Appendix D).
//!
//! The [`fused`] module holds the slice-based hot-path kernels that
//! operate directly on HOGWILD `&[AtomicU32]` rows: [`gather_dot`]
//! (forward pre-activation), [`gather_dot_batch`] (batched serving: one
//! contiguous row against the examples of a batch that own it, over a
//! dense hidden basis),
//! [`adam_step_gather`] (backward's fused gather + error-signal + Adam
//! sweep) and the input-major pair [`gather_dot_input_major`] /
//! [`adam_step_input_major`] (the first layer's forward and Adam, one
//! contiguous row per input id, bit-identical to the per-unit kernels).
//!
//! The [`hash`] module holds the blocked signed-projection kernel behind
//! SimHash-style LSH families ([`SignedPlanes`]), and [`quant`] the fused
//! dequantize-dot kernel for i16 fixed-point serving rows
//! ([`dot_batch_q16`], the quantized sibling of [`gather_dot_batch`]).

pub mod aligned;
pub mod fused;
pub mod hash;
pub mod ops;
pub mod quant;

pub use aligned::CachePadded;
pub use fused::{
    adam_step_gather, adam_step_input_major, gather_dot, gather_dot_batch, gather_dot_input_major,
};
pub use hash::{SignedPlanes, SignedPlanesBuilder, ROW_TILE};
pub use ops::{
    adam_step, axpy, dispatched_isa, dot, relu_in_place, softmax_in_place, AdamParams, KernelMode,
};
pub use quant::{dot_batch_q16, quantize_row};
