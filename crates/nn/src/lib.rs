//! Neural-network inference substrate for the FlexiQ reproduction.
//!
//! The paper evaluates FlexiQ on eleven computer-vision models plus two
//! small language models; none of their pretrained weights (or PyTorch)
//! are available here, so this crate provides the replacement substrate:
//!
//! * [`graph`] — a small layer-graph IR. Nodes consume earlier nodes'
//!   outputs, which expresses residual connections and lets §5's layout
//!   pass insert explicit channel-reorder nodes.
//! * [`ops`] — the operator set: conv2d (with groups/depthwise), linear,
//!   batch/layer-norm, ReLU/GELU/softmax, pooling, multi-head attention,
//!   window attention (Swin), patch merging, token reshapes.
//! * [`exec`] — the reference f32 executor. Quantized execution reuses the
//!   same walker through a [`exec::Compute`] hook, so the float and the
//!   mixed-precision paths cannot drift structurally. [`exec::run_batch`]
//!   walks the same graph with stacked `[N, …]` activations through the
//!   batched hook methods — per-sample bit-exact with [`exec::run`].
//! * [`qexec`] — mixed-precision execution: 8-bit master weights,
//!   per-output-channel scales, per-tensor activation scales and
//!   per-feature-group bit-lowering, executed by one exact integer
//!   engine that implements the batched hooks (one quantization + weight
//!   lowering per layer per batch).
//! * [`calibrate`] — runs calibration batches and records the per-layer,
//!   per-feature-channel ranges every downstream component needs.
//! * [`zoo`] — scaled-down, architecture-faithful builds of ResNet-20/18/
//!   34/50, MobileNetV2, ViT-S/B, DeiT-S/B, Swin-S/B and a tiny decoder
//!   LM, with structured random weights reproducing the channel-range
//!   diversity and activation outliers the paper exploits.
//! * [`data`] — synthetic inputs, the teacher-labelled accuracy task and
//!   the token stream for the LM case study.
//! * [`kv`] — the quantized key/value cache for autoregressive decode:
//!   8-bit cached rows with 4-bit bands carved through the same
//!   bit-lowering rules the weight path uses, read by the same band
//!   GEMM kernels.
//! * [`decode`] — the incremental decode walker: prefill + single-token
//!   steps over per-session [`kv::KvLayerCache`]s, bit-exact with the
//!   full-context executor at every precision level.

pub mod calibrate;
pub mod data;
pub mod decode;
pub mod error;
pub mod exec;
pub mod graph;
pub mod kv;
pub mod ops;
pub mod qexec;
pub mod workspace;
pub mod zoo;

pub use error::NnError;
pub use graph::{Graph, LayerId, NodeId, Op};

/// Result alias for fallible NN operations.
pub type Result<T> = std::result::Result<T, NnError>;
