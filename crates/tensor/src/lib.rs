//! Dense tensor substrate for the FlexiQ reproduction.
//!
//! This crate provides the minimal numerical foundation that every other
//! crate in the workspace builds on:
//!
//! * [`Tensor`] — a dense, row-major, contiguous `f32` tensor with shape
//!   arithmetic, elementwise/matrix operations and structured random
//!   initialization.
//! * [`I8Tensor`] / [`I4Packed`] — integer tensor storage used by the
//!   quantized execution paths. `I4Packed` stores two signed nibbles per
//!   byte exactly like the packed operand layout of 4-bit MMA tiles.
//! * [`gemm`] — blocked, packed f32 and integer GEMM micro-kernels
//!   (`i8×i8→i32` with optional packed-i4 operands) that the functional
//!   GPU/NPU simulators are validated against; the naive loops survive
//!   as [`gemm::reference`], the executable specification the blocked
//!   kernels are property-tested bit-exact against.
//! * [`im2col`] — convolution lowering used by both the inference engine
//!   and the autograd engine.
//! * [`stats`] — reductions (per-channel ranges, norms, percentiles) used
//!   by calibration and by the paper's analysis figures.
//! * [`scratch`] — per-thread reusable buffers behind the kernels'
//!   packing and lowering scratch, so the steady-state hot path performs
//!   zero heap allocations here.
//!
//! The `unsafe` in the crate is the explicit SIMD: the `std::arch`
//! register tiles in [`simd`], behind once-per-process runtime feature
//! detection (AVX-VNNI, AVX2, `FLEXIQ_NO_SIMD=1` escape hatch), each a
//! bit-identical drop-in for the scalar tile it replaces, and the four
//! call sites in [`gemm`] that dispatch to them once detection said
//! yes. Everything else gets its throughput from cache blocking, operand
//! packing and register tiling (see [`gemm`]), not from pointer tricks,
//! and the kernels are still structured the way the paper's CUDA kernel
//! is (tiles over feature-channel groups). Large GEMMs fan disjoint
//! output row bands across the shared `flexiq-parallel` pool — the one
//! intra-batch fan-out of a forward pass. Each band is whole contiguous
//! rows of the output, written through safe slices, and keeps every
//! element's reduction order, so parallel results are bit-exact with
//! serial; the pointer plumbing that splits the output lives entirely in
//! that crate.

pub mod error;
pub mod gemm;
pub mod im2col;
pub mod int;
pub mod mask;
pub mod rng;
pub mod scratch;
pub mod shape;
pub mod simd;
pub mod stats;
pub mod tensor;

pub use error::TensorError;
pub use int::{I4Packed, I8Tensor};
pub use mask::SeqMask;
pub use shape::Shape;
pub use tensor::Tensor;

/// Result alias for fallible tensor operations.
pub type Result<T> = std::result::Result<T, TensorError>;
