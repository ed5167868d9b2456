//! Mixed-precision quantized execution (§4, §7).
//!
//! A [`QuantizedModel`] holds the static 8-bit state of every quantizable
//! layer: integer master weights with per-output-channel scales, a
//! per-tensor activation scale, and the calibrated per-feature-group
//! maxima that determine bit-extraction positions. A [`MixedPlan`] says
//! which feature groups run at 4 bits; the plan is the *only* thing that
//! changes when the serving runtime adjusts its low-bitwidth ratio.
//!
//! There is one engine: the integer path — real `i8` GEMMs,
//! bit-extracted 4-bit operands and bit-shifted `i32` accumulation, bit
//! for bit what the paper's GPU kernel and NPU datapath compute, and the
//! arithmetic the simulators cross-validate against. Serving, fitness
//! evaluation, layer-error profiling, the ablation and the layout
//! search all run it. Its float reconstruction
//! (`dequantize(round_trip(quantize(x)))` on weights and activations,
//! then the f32 op) lives only in this module's tests, as the oracle the
//! integer engine's divergence is bounded against at every level.
//!
//! # Integer data flow
//!
//! A 4-bit feature group's sum enters the layer accumulator as
//! `Σ (a_low·w_low) << (s_a + s_w[o])` — the paper's *bit-shifted
//! accumulation*. The two layer kinds realise it differently:
//!
//! * **Linear** layers run `quantize + round-trip → one GEMM →
//!   requantize`. The shift moves into the operands, exactly:
//!   `(a_low << s_a)·(w_low << s_w) = (a_low·w_low) << (s_a + s_w)` in
//!   integers, and both round-tripped operands still fit `i8` (see
//!   `BitLowering::round_trip_in_place`). Activation quantization
//!   round-trips the 4-bit groups' columns in the same sweep, and a
//!   [`PackCache`] entry per (layer, low-group mask) holds the **effective
//!   weights** — the master with those groups' columns round-tripped —
//!   prepacked. So a linear layer is one band GEMM over its whole
//!   reduction at every level, per run of valid rows.
//! * **Convolution** layers run `quantize + lower → im2col → band GEMMs
//!   → requantize`, arranged so a 4-bit band costs **less** than an
//!   8-bit one. Activation quantization bit-lowers the 4-bit groups'
//!   channel planes in place, in the same sweep (lowering is per channel
//!   and `lower(0) == 0`, so it commutes with im2col's
//!   copy-and-zero-pad); im2col runs once over the lowered data and the
//!   band GEMMs read their rows of it where they lie. Adjacent bands of
//!   one precision run as one GEMM call, and a 4-bit run's shifts are
//!   the call's write-back ([`gemm::gemm_i8_low_bands`]), applied
//!   straight from the kernel's registers. Where the ISA has one,
//!   nibble-range operands take a denser tile (see
//!   `flexiq_tensor::simd`) — which is why conv bands stay lowered
//!   rather than round-tripped. Lowered weights, their shifts and their
//!   packed forms come from the [`PackCache`], built from calibration
//!   and options only, never from the plan.
//!
//! Dynamic extraction ([`QuantExecOptions::dynamic_extract`]) derives
//! each group's rule from the values its GEMM reads, so it rewrites them
//! inside the layer instead — after quantization for a linear, in the
//! band loop for a convolution — in place, through the same calls.
//!
//! # Batched execution
//!
//! The engine implements the batched [`Compute`] hooks: a stacked
//! `[N, …]` activation is quantized (and lowered) **once per layer per
//! batch** and the GEMMs run over all samples stacked together;
//! the single-sample hooks are the same code at `N = 1`. With
//! calibrated (static) extraction positions the batched
//! integer path is **bit-exact** per sample with the single-sample path —
//! the equivalence tests in `tests/batch_equivalence.rs` pin this down at
//! every ratio level. The one intentional divergence: with
//! [`QuantExecOptions::dynamic_extract`], extraction positions derive
//! from the *live* values, and a batched call computes them over the
//! whole batch's activations rather than per sample (the batch shares
//! one plan, one scale, and one extraction rule per group — §7's premise
//! that a batch executes one configuration).
//!
//! Everything in this module runs on the calling thread. The one
//! parallel stage is inside the band GEMMs, which split large problems
//! into output row bands on the ambient pool (`flexiq_tensor::gemm`).
//! Row bands keep every accumulator element's reduction order, so the
//! integer path is bit-exact with serial execution at every thread
//! count.

use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

use flexiq_quant::dynamic::{dynamic_lowering, lowering_for_or, or_magnitude};
use flexiq_quant::lowering::BitLowering;
use flexiq_quant::quantize::{PerChannelQ, RANGE_EPS};
use flexiq_quant::{GroupSpec, QParams, QuantBits};
use flexiq_telemetry as tel;
use flexiq_tensor::im2col::im2col_i8_batch_fill;
use flexiq_tensor::{gemm, simd, I8Tensor, Tensor};

use crate::calibrate::CalibrationRecord;
use crate::error::NnError;
use crate::exec::Compute;
use crate::graph::{Graph, LayerId, LayerView};
use crate::ops::{Conv2d, Linear};
use crate::workspace::{self, Buf, Workspace};
use crate::Result;

/// Static quantization state of one layer.
#[derive(Debug, Clone)]
pub struct LayerQuant {
    /// Feature (input) channels.
    pub c_in: usize,
    /// Output channels.
    pub c_out: usize,
    /// 8-bit master weights in the layer's original layout.
    pub w_q: I8Tensor,
    /// Per-output-channel weight scales.
    pub w_scales: Vec<f32>,
    /// Per-tensor activation scale (8-bit).
    pub act_scale: f32,
    /// Calibrated per-feature-group activation maxima, in quantized units.
    pub act_group_max_q: Vec<u32>,
    /// Per-feature-group, per-output-channel weight maxima, in quantized
    /// units (`[group][c_out]`).
    pub w_group_max_q: Vec<Vec<u32>>,
}

impl LayerQuant {
    /// Number of feature groups.
    pub fn num_groups(&self) -> usize {
        self.act_group_max_q.len()
    }

    /// Static activation extraction rule for group `g`.
    pub fn act_lowering(&self, g: usize, low_bits: QuantBits) -> BitLowering {
        BitLowering::for_max_abs(self.act_group_max_q[g], low_bits)
    }

    /// Static weight extraction rule for group `g`, output channel `o`.
    pub fn w_lowering(&self, g: usize, o: usize, low_bits: QuantBits) -> BitLowering {
        BitLowering::for_max_abs(self.w_group_max_q[g][o], low_bits)
    }
}

/// A quantized model: per-layer 8-bit state plus the group spec.
#[derive(Debug, Clone)]
pub struct QuantizedModel {
    /// Per-layer state, indexed by [`LayerId`].
    pub layers: Vec<LayerQuant>,
    /// The feature-group granularity used throughout.
    pub groups: GroupSpec,
}

impl QuantizedModel {
    /// Quantizes a calibrated graph to 8-bit master state.
    pub fn prepare(graph: &Graph, calib: &CalibrationRecord, groups: GroupSpec) -> Result<Self> {
        if calib.num_layers() != graph.num_layers() {
            return Err(NnError::Invalid(format!(
                "calibration covers {} layers, graph has {}",
                calib.num_layers(),
                graph.num_layers()
            )));
        }
        let mut layers = Vec::with_capacity(graph.num_layers());
        for l in 0..graph.num_layers() {
            let view = graph.layer(l)?;
            let weight = view.weight();
            let pc = PerChannelQ::calibrate_axis0(weight, QuantBits::B8)?;
            let w_q = pc.quantize_axis0(weight)?;
            let (c_in, c_out) = (view.c_in(), view.c_out());

            let lc = &calib.layers[l];
            let act_scale = lc.act_abs_max.max(RANGE_EPS) / QuantBits::B8.qmax() as f32;
            let act_params = QParams::new(act_scale, QuantBits::B8)?;
            let n_groups = groups.num_groups(c_in);
            let mut act_group_max_q = vec![0u32; n_groups];
            if lc.act_channel_abs.len() == c_in {
                for g in 0..n_groups {
                    let r = groups.channel_range(g, c_in);
                    let m = lc.act_channel_abs[r].iter().fold(0.0f32, |a, &b| a.max(b));
                    act_group_max_q[g] = act_params.quantize(m).unsigned_abs();
                }
            } else {
                // No per-channel data (layer never calibrated): assume the
                // full 8-bit range so lowering degrades to naive.
                act_group_max_q.fill(QuantBits::B8.qmax() as u32);
            }

            let w_group_max_q = weight_group_maxima(&view, &w_q, groups);
            layers.push(LayerQuant {
                c_in,
                c_out,
                w_q,
                w_scales: pc.scales().to_vec(),
                act_scale,
                act_group_max_q,
                w_group_max_q,
            });
        }
        Ok(QuantizedModel { layers, groups })
    }

    /// Number of quantizable layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }
}

/// Per-feature-group, per-output-channel maxima of the quantized weights.
fn weight_group_maxima(view: &LayerView<'_>, w_q: &I8Tensor, groups: GroupSpec) -> Vec<Vec<u32>> {
    match view {
        LayerView::Linear(lin) => {
            let (c_out, c_in) = (lin.c_out(), lin.c_in());
            let n_groups = groups.num_groups(c_in);
            let mut out = vec![vec![0u32; c_out]; n_groups];
            for o in 0..c_out {
                for c in 0..c_in {
                    let g = groups.group_of(c);
                    let v = w_q.data()[o * c_in + c].unsigned_abs() as u32;
                    if v > out[g][o] {
                        out[g][o] = v;
                    }
                }
            }
            out
        }
        LayerView::Conv(conv) => {
            let (c_out, c_in) = (conv.c_out(), conv.c_in());
            let c_in_g = conv.weight.dims()[1];
            let khkw = conv.kh() * conv.kw();
            let c_out_g = c_out / conv.groups;
            let n_groups = groups.num_groups(c_in);
            let mut out = vec![vec![0u32; c_out]; n_groups];
            for o in 0..c_out {
                let cg = o / c_out_g;
                for cl in 0..c_in_g {
                    let c = cg * c_in_g + cl; // global feature channel
                    let g = groups.group_of(c);
                    for k in 0..khkw {
                        let v = w_q.data()[(o * c_in_g + cl) * khkw + k].unsigned_abs() as u32;
                        if v > out[g][o] {
                            out[g][o] = v;
                        }
                    }
                }
            }
            out
        }
    }
}

/// Which feature groups run at low bitwidth, per layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MixedPlan {
    /// `low_groups[layer][group]` — `true` selects 4-bit computation.
    pub low_groups: Vec<Vec<bool>>,
}

impl MixedPlan {
    /// Plan with every group at 8 bits (equivalent to uniform INT8).
    pub fn all_high(model: &QuantizedModel) -> Self {
        MixedPlan {
            low_groups: model
                .layers
                .iter()
                .map(|l| vec![false; l.num_groups()])
                .collect(),
        }
    }

    /// Plan with every group at 4 bits (FlexiQ 100%).
    pub fn all_low(model: &QuantizedModel) -> Self {
        MixedPlan {
            low_groups: model
                .layers
                .iter()
                .map(|l| vec![true; l.num_groups()])
                .collect(),
        }
    }

    /// Validates plan dimensions against a model.
    pub fn validate(&self, model: &QuantizedModel) -> Result<()> {
        if self.low_groups.len() != model.num_layers() {
            return Err(NnError::Invalid(format!(
                "plan covers {} layers, model has {}",
                self.low_groups.len(),
                model.num_layers()
            )));
        }
        for (l, groups) in self.low_groups.iter().enumerate() {
            if groups.len() != model.layers[l].num_groups() {
                return Err(NnError::Invalid(format!(
                    "plan layer {l} has {} groups, model has {}",
                    groups.len(),
                    model.layers[l].num_groups()
                )));
            }
        }
        Ok(())
    }

    /// Fraction of weight parameters computed at low bitwidth.
    pub fn low_param_fraction(&self, model: &QuantizedModel) -> f64 {
        let mut low = 0usize;
        let mut total = 0usize;
        for (l, lq) in model.layers.iter().enumerate() {
            let per_channel = lq.w_q.numel() / lq.c_in.max(1);
            for g in 0..lq.num_groups() {
                let channels = model.groups.channel_range(g, lq.c_in).len();
                let params = channels * per_channel;
                total += params;
                if self.low_groups[l][g] {
                    low += params;
                }
            }
        }
        if total == 0 {
            0.0
        } else {
            low as f64 / total as f64
        }
    }

    /// Average bitwidth implied by the plan (weights and activations share
    /// the ratio, so one number covers both — Table 2's header).
    pub fn avg_bits(&self, model: &QuantizedModel) -> f64 {
        8.0 - 4.0 * self.low_param_fraction(model)
    }

    /// Returns `true` if `other` selects a superset of this plan's low
    /// groups (the nested-ratio invariant of §5).
    pub fn subset_of(&self, other: &MixedPlan) -> bool {
        self.low_groups.len() == other.low_groups.len()
            && self
                .low_groups
                .iter()
                .zip(other.low_groups.iter())
                .all(|(a, b)| a.len() == b.len() && a.iter().zip(b.iter()).all(|(&x, &y)| !x || y))
    }
}

/// Which arithmetic the quantized executor uses. The integer engine is
/// the only one; the enum stays because the end-to-end benchmark
/// (`benchmark/`, a separately versioned package) names it, and goes
/// with the next change to that package.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Exact integer path (band GEMMs + shifted accumulation).
    Int,
}

/// Options for quantized execution.
#[derive(Debug, Clone, Copy)]
pub struct QuantExecOptions {
    /// Arithmetic path. Always [`ExecMode::Int`]; kept only because the
    /// end-to-end benchmark spells it out (see [`ExecMode`]).
    pub mode: ExecMode,
    /// Recompute activation extraction positions per call via bitwise OR
    /// (§4.1 dynamic mode) instead of using calibrated positions.
    pub dynamic_extract: bool,
    /// Low bitwidth (4 in the paper; 2 for the NPU extension).
    pub low_bits: QuantBits,
    /// Force naive top-bit lowering (ignore calibrated extraction
    /// positions) — the `Random` baseline of the Table 7 ablation.
    pub naive_lowering: bool,
}

impl Default for QuantExecOptions {
    fn default() -> Self {
        QuantExecOptions {
            mode: ExecMode::Int,
            dynamic_extract: false,
            low_bits: QuantBits::B4,
            naive_lowering: false,
        }
    }
}

impl QuantExecOptions {
    /// Whether batched execution under these options is bit-exact, per
    /// sample, with running each sample alone. False exactly when live
    /// (dynamic) extraction is in effect: its rules derive from the
    /// whole batch's values (see the module docs). The single source of
    /// this predicate — the engine's [`Compute::batch_invariant`] and
    /// every samplewise driver that pre-stacks (e.g. the selection
    /// loop's fitness evaluator) must route through it.
    pub fn batch_invariant(&self) -> bool {
        !self.dynamic_extract || self.naive_lowering
    }
}

/// Static weight extraction rule for `(layer, group, out-channel)`.
/// Depends on the model's calibrated maxima and the exec options only —
/// **not** on the [`MixedPlan`] — which is what makes cached lowered
/// conv weights level-independent: switching levels re-selects which
/// bands run low, never what a low band's lowering looks like.
fn static_w_rule(
    model: &QuantizedModel,
    opts: &QuantExecOptions,
    l: LayerId,
    g: usize,
    o: usize,
) -> BitLowering {
    if opts.naive_lowering {
        BitLowering::naive(QuantBits::B8, opts.low_bits)
    } else {
        model.layers[l].w_lowering(g, o, opts.low_bits)
    }
}

// ───────────────────────── prepacked-weight cache ─────────────────────────

/// Cached state of one linear layer under one low-group mask: the
/// layer's **effective weights** — the `[C_out, C_in]` master with each
/// low group's columns replaced by their static round trip (`lower`,
/// then `<< s_w`, see [`BitLowering::round_trip_in_place`]) — and their
/// rhs panel prepacked over the whole reduction, so the layer is one
/// [`gemm::gemm_i8_band_wt_prepacked`] call at any level.
struct LinearPack {
    mask: Vec<bool>,
    w: Vec<i8>,
    panel: gemm::PackedRhsI8,
}

impl LinearPack {
    fn bytes(&self) -> usize {
        self.mask.len() + self.w.len() + self.panel.bytes()
    }
}

/// One feature-group band of a conv group: the feature group it
/// belongs to and its rows `[k0, k1)` of the conv group's im2col matrix.
struct ConvBand {
    g: usize,
    k0: usize,
    k1: usize,
}

/// Every feature-group band of one conv group, in reduction order:
/// where each band sits, its lowered weights (the GEMM **lhs**, with
/// per-output-row extraction shifts and prepacked dense tiles — see
/// [`gemm::LowBandLhs`]) and its static activation extraction shift.
/// Indexed alike, so a run of adjacent low bands is one sub-slice of
/// each vector.
struct ConvGroupBands {
    bands: Vec<ConvBand>,
    lhs: Vec<gemm::LowBandLhs>,
    a_shifts: Vec<u8>,
}

/// Cached state of one conv layer: the bands of each conv group.
struct ConvPack {
    groups: Vec<ConvGroupBands>,
}

impl ConvPack {
    fn bytes(&self) -> usize {
        self.groups
            .iter()
            .map(|g| {
                g.lhs.iter().map(gemm::LowBandLhs::bytes).sum::<usize>()
                    + g.a_shifts.len()
                    + std::mem::size_of_val(&g.bands[..])
            })
            .sum()
    }
}

/// Static activation extraction rule for `(layer, group)` — like
/// `static_w_rule`, a function of the calibrated maxima and the exec
/// options only.
fn static_a_rule(
    model: &QuantizedModel,
    opts: &QuantExecOptions,
    l: LayerId,
    g: usize,
) -> BitLowering {
    if opts.naive_lowering {
        BitLowering::naive(QuantBits::B8, opts.low_bits)
    } else {
        model.layers[l].act_lowering(g, opts.low_bits)
    }
}

/// Builds linear layer `l`'s effective weights under low-group mask
/// `mask` and prepacks them. The mask need not be contiguous: each low
/// group's columns are folded on their own.
fn build_linear_pack(
    model: &QuantizedModel,
    opts: &QuantExecOptions,
    l: LayerId,
    mask: &[bool],
) -> LinearPack {
    let lq = &model.layers[l];
    let (c_in, c_out) = (lq.c_in, lq.c_out);
    let mut w = lq.w_q.data().to_vec();
    for (g, _) in mask.iter().enumerate().filter(|(_, &low)| low) {
        let range = model.groups.channel_range(g, c_in);
        for (o, row) in w.chunks_exact_mut(c_in).enumerate() {
            static_w_rule(model, opts, l, g, o).round_trip_in_place(&mut row[range.clone()]);
        }
    }
    let panel = gemm::prepack_i8_wt_band(c_out, c_in, 0, c_in, &w);
    LinearPack {
        mask: mask.to_vec(),
        w,
        panel,
    }
}

/// Lowers every feature-group band of conv layer `l`. The geometry
/// comes from the master weights (`[C_out, C_in/groups, KH, KW]`); a
/// band is a maximal run of one conv group's local channels that share
/// a feature group, so `C_in` need not divide evenly into either.
fn build_conv_pack(model: &QuantizedModel, opts: &QuantExecOptions, l: LayerId) -> ConvPack {
    let lq = &model.layers[l];
    let wq = lq.w_q.data();
    let dims = lq.w_q.dims();
    let (c_in_g, khkw) = (dims[1], dims[2] * dims[3]);
    let conv_groups = lq.c_in / c_in_g;
    let c_out_g = lq.c_out / conv_groups;
    let k = c_in_g * khkw;
    let groups = (0..conv_groups)
        .map(|cg| {
            let w_base = cg * c_out_g * k;
            let mut gb = ConvGroupBands {
                bands: Vec::new(),
                lhs: Vec::new(),
                a_shifts: Vec::new(),
            };
            let mut cl = 0usize;
            while cl < c_in_g {
                let g = model.groups.group_of(cg * c_in_g + cl);
                let g_end = model.groups.channel_range(g, lq.c_in).end;
                let run_end = (g_end - cg * c_in_g).min(c_in_g);
                let (k0, k1) = (cl * khkw, run_end * khkw);
                let bw = k1 - k0;
                let rules: Vec<BitLowering> = (0..c_out_g)
                    .map(|ol| static_w_rule(model, opts, l, g, cg * c_out_g + ol))
                    .collect();
                let mut wb = wq[w_base..w_base + c_out_g * k]
                    .chunks_exact(k)
                    .flat_map(|row| &row[k0..k1])
                    .copied()
                    .collect::<Vec<i8>>();
                for (row, rule) in wb.chunks_exact_mut(bw).zip(&rules) {
                    rule.lower_in_place(row);
                }
                let shifts = rules.iter().map(BitLowering::shift).collect();
                gb.bands.push(ConvBand { g, k0, k1 });
                gb.lhs.push(gemm::LowBandLhs::new(c_out_g, bw, wb, shifts));
                gb.a_shifts.push(static_a_rule(model, opts, l, g).shift());
                cl = run_end;
            }
            gb
        })
        .collect();
    ConvPack { groups }
}

/// Everything a cache entry's content depends on besides the immutable
/// model weights. A mismatch (options changed, SIMD toggled) flushes the
/// whole cache rather than keying entries individually — these never
/// change mid-serving.
#[derive(Clone, Copy, PartialEq, Eq)]
struct CacheKey {
    low_bits: QuantBits,
    naive_lowering: bool,
    isa: simd::Isa,
}

/// Per-layer tables, sized to the model on first use: `linear[l]` is a
/// short list of layer `l`'s effective-weight entries, one per low-group
/// mask a plan has run it under (a schedule has a handful of levels, so
/// a lookup is a linear scan — no hashing, no allocation on a hit);
/// `conv[l]` is conv layer `l`'s one level-independent entry.
#[derive(Default)]
struct CacheInner {
    key: Option<CacheKey>,
    linear: Vec<Vec<Arc<LinearPack>>>,
    conv: Vec<Option<Arc<ConvPack>>>,
}

/// Ahead-of-time prepacked-weight cache (the tentpole of PR 8).
///
/// Holds the quantized + bit-lowered + packed weight state that
/// [`QuantCompute`] consumes: per `(linear layer, low-group mask)` the
/// effective weights with their prepacked panel; per conv layer every
/// band's lowered block with its shifts and dense lhs tiles. Conv
/// entries are level-independent (see `static_w_rule`); a linear entry
/// is keyed by the plan's mask for that layer, so a level switch reads
/// another entry and invalidates nothing — [`PackCache::invalidate`]
/// exists for weight mutation. Lookups clone an `Arc` out of the tables
/// under a read lock (one lookup per layer per pass); builds run outside
/// the lock.
///
/// Populated lazily on first use, or eagerly via [`PackCache::prewarm`].
/// A hook created without a shared cache builds the same entries into a
/// private cache of its own, so there is one weight path either way.
pub struct PackCache {
    inner: RwLock<CacheInner>,
    /// Whether lookups feed the `PackCache*` telemetry counters (a
    /// hook's private cache does not: those count the shared one).
    counted: bool,
}

impl Default for PackCache {
    fn default() -> Self {
        PackCache {
            inner: RwLock::default(),
            counted: true,
        }
    }
}

impl PackCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache private to one hook.
    fn private() -> Self {
        PackCache {
            inner: RwLock::default(),
            counted: false,
        }
    }

    /// Drops every entry (call after mutating model weights).
    pub fn invalidate(&self) {
        *self.write() = CacheInner::default();
    }

    /// Total bytes held by cache entries (effective weights, panels,
    /// lowered blocks, shifts and dense tiles).
    pub fn resident_bytes(&self) -> usize {
        let inner = self.read();
        let lin: usize = inner.linear.iter().flatten().map(|p| p.bytes()).sum();
        let cv: usize = inner.conv.iter().flatten().map(|p| p.bytes()).sum();
        lin + cv
    }

    fn read(&self) -> RwLockReadGuard<'_, CacheInner> {
        self.inner.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write(&self) -> RwLockWriteGuard<'_, CacheInner> {
        self.inner.write().unwrap_or_else(|e| e.into_inner())
    }

    fn key_for(opts: &QuantExecOptions) -> CacheKey {
        CacheKey {
            low_bits: opts.low_bits,
            naive_lowering: opts.naive_lowering,
            isa: simd::active(),
        }
    }

    /// Flushes and resizes the tables when the key doesn't match.
    fn align(inner: &mut CacheInner, key: CacheKey, model: &QuantizedModel) {
        if inner.key != Some(key) {
            *inner = CacheInner {
                key: Some(key),
                linear: vec![Vec::new(); model.num_layers()],
                conv: vec![None; model.num_layers()],
            };
        }
    }

    /// The resident entry `get` finds, if the cache is keyed for `key`.
    fn lookup<T>(
        &self,
        key: CacheKey,
        get: impl FnOnce(&CacheInner) -> Option<&Arc<T>>,
    ) -> Option<Arc<T>> {
        let inner = self.read();
        let hit = (inner.key == Some(key)).then(|| get(&inner).cloned())??;
        self.count(tel::Counter::PackCacheHits, 1);
        Some(hit)
    }

    /// Installs an entry built outside the lock (so concurrent hits
    /// keep flowing): `install` returns the resident entry and whether
    /// it is the one just built. A lost build race keeps the resident
    /// entry — identical content — so bytes aren't double-booked.
    fn insert<T>(
        &self,
        key: CacheKey,
        model: &QuantizedModel,
        bytes: usize,
        install: impl FnOnce(&mut CacheInner) -> (Arc<T>, bool),
    ) -> Arc<T> {
        self.count(tel::Counter::PackCacheMisses, 1);
        let mut inner = self.write();
        Self::align(&mut inner, key, model);
        let (entry, fresh) = install(&mut inner);
        if fresh {
            self.count(tel::Counter::PackCacheBytes, bytes as u64);
        }
        entry
    }

    fn count(&self, counter: tel::Counter, by: u64) {
        if self.counted {
            tel::count(counter, by);
        }
    }

    /// Effective weights of linear layer `l` under low-group mask `mask`.
    fn linear(
        &self,
        model: &QuantizedModel,
        opts: &QuantExecOptions,
        l: LayerId,
        mask: &[bool],
    ) -> Arc<LinearPack> {
        let key = Self::key_for(opts);
        if let Some(p) = self.lookup(key, |i| i.linear.get(l)?.iter().find(|p| p.mask == mask)) {
            return p;
        }
        let entry = Arc::new(build_linear_pack(model, opts, l, mask));
        self.insert(key, model, entry.bytes(), |i| {
            match i.linear[l].iter().find(|p| p.mask == mask) {
                Some(resident) => (resident.clone(), false),
                None => {
                    i.linear[l].push(entry.clone());
                    (entry, true)
                }
            }
        })
    }

    /// Lowered bands of conv layer `l`.
    fn conv(&self, model: &QuantizedModel, opts: &QuantExecOptions, l: LayerId) -> Arc<ConvPack> {
        let key = Self::key_for(opts);
        if let Some(p) = self.lookup(key, |i| i.conv.get(l)?.as_ref()) {
            return p;
        }
        let entry = build_conv_pack(model, opts, l);
        let bytes = entry.bytes();
        self.insert(key, model, bytes, |i| {
            let fresh = i.conv[l].is_none();
            (
                i.conv[l].get_or_insert_with(|| Arc::new(entry)).clone(),
                fresh,
            )
        })
    }

    /// Eagerly builds every entry the given plans read: one effective
    /// linear entry per distinct (layer, mask) and every conv layer's
    /// bands — what the serve crate runs at server startup over the
    /// schedule's levels, so no level switch ever pays packing latency.
    pub fn prewarm<'p>(
        &self,
        graph: &Graph,
        model: &QuantizedModel,
        opts: QuantExecOptions,
        plans: impl IntoIterator<Item = &'p MixedPlan>,
    ) -> Result<()> {
        let plans: Vec<&MixedPlan> = plans.into_iter().collect();
        for plan in &plans {
            plan.validate(model)?;
        }
        for l in 0..model.num_layers() {
            match graph.layer(l)? {
                LayerView::Linear(_) => {
                    for plan in &plans {
                        self.linear(model, &opts, l, &plan.low_groups[l]);
                    }
                }
                LayerView::Conv(_) => {
                    self.conv(model, &opts, l);
                }
            }
        }
        Ok(())
    }
}

/// How an activation buffer's elements map to feature channels — what
/// [`QuantCompute::quantize_act_into`] needs to lower the plan's 4-bit
/// groups in place.
#[derive(Clone, Copy)]
enum ActLayout {
    /// Stacked `[N, C, H, W]` convolution input: channel `c` of a sample
    /// is one contiguous plane of `hw` elements.
    Planes { c_in: usize, hw: usize },
    /// Stacked `[rows, C]` linear input: channel `c` is column `c`.
    Rows { c_in: usize },
}

/// The quantized compute hook.
///
/// A hook runs one plan. It reads its weights from the [`PackCache`] it
/// was given (or a private one), so a hook is cheap to build.
///
/// Construction checks the calling thread's parked [`Workspace`] out and
/// drop parks it again, so consecutive hooks on one thread (a serve
/// worker's dispatches, a bench loop's `infer` calls) reuse the same
/// scratch buffers: the steady-state linear/conv hot path allocates
/// nothing beyond its output tensors.
pub struct QuantCompute<'m> {
    model: &'m QuantizedModel,
    plan: MixedPlan,
    opts: QuantExecOptions,
    /// Per-thread scratch, checked out for this hook's lifetime. Taken
    /// out of `self` (`std::mem::take`) for the duration of each layer
    /// call so its fields can be borrowed alongside `&self` helpers.
    ws: Workspace,
    /// The prepacked-weight cache every layer reads its
    /// effective or lowered weights from: the shared one handed to
    /// [`QuantCompute::with_cache`], or a private one filled lazily for
    /// this hook's lifetime.
    cache: Arc<PackCache>,
    /// K/V-cache precision spec attention cores run under. Stays the
    /// f32 default (uncached [`crate::ops::Attention::core`]) unless the
    /// runtime installs a quantized spec via
    /// [`crate::exec::Compute::set_kv_spec`].
    kv: crate::kv::KvSpec,
}

impl Drop for QuantCompute<'_> {
    fn drop(&mut self) {
        workspace::put(std::mem::take(&mut self.ws));
    }
}

impl<'m> QuantCompute<'m> {
    /// Creates a quantized compute hook for the given plan.
    pub fn new(model: &'m QuantizedModel, plan: MixedPlan, opts: QuantExecOptions) -> Result<Self> {
        Self::with_cache(model, plan, opts, None)
    }

    /// Like [`QuantCompute::new`], with a shared prepacked-weight cache.
    /// Linear and conv layers read their packed weights from it
    /// instead of building them into a private cache per hook;
    /// outputs are bit-identical either way (both hold what the same
    /// builders produce).
    pub fn with_cache(
        model: &'m QuantizedModel,
        plan: MixedPlan,
        opts: QuantExecOptions,
        cache: Option<Arc<PackCache>>,
    ) -> Result<Self> {
        plan.validate(model)?;
        Ok(QuantCompute {
            model,
            plan,
            opts,
            ws: workspace::take(),
            cache: cache.unwrap_or_else(|| Arc::new(PackCache::private())),
            kv: crate::kv::KvSpec::f32(),
        })
    }

    /// The active plan.
    pub fn plan(&self) -> &MixedPlan {
        &self.plan
    }

    /// Quantizes an activation tensor to `i8` with the layer's per-tensor
    /// scale, into a workspace buffer (no steady-state allocation): one
    /// [`QParams::quantize_slice`] sweep. Serial on purpose — at 0.25 ns
    /// per element a pool dispatch only breaks even at 512 k elements
    /// (16 k: 4 → 14 µs across two threads), sixteen times the largest
    /// activation a bundled model quantizes at batch 8.
    ///
    /// The buffer leaves **GEMM-ready**: under static or naive
    /// extraction, the channels of every feature group the plan runs at
    /// low precision are rewritten in place by the group's rule, right
    /// here on the activation — one
    /// branch-free sweep over data that is still cache-hot. Convolution
    /// planes are bit-lowered (the low bands' GEMMs shift their sums in
    /// at write-back, and the dense low-range tile needs lowered
    /// values); lowering is per channel and `lower(0) == 0`, so it
    /// commutes with im2col's copy-and-zero-pad and saves a pass over
    /// each band of the (`KH·KW`× larger) im2col matrix. Linear rows are
    /// round-tripped (`lower`, then `<< s_a`), the activation half of the
    /// effective operands a linear layer's one GEMM reads. Dynamic
    /// extraction derives its rules from the values the GEMM will
    /// actually read, so it rewrites them later, inside the layer.
    fn quantize_act_into(&self, l: LayerId, x: &Tensor, layout: ActLayout, buf: &mut Buf<i8>) {
        let quant_span = tel::span("act_quant", tel::Cat::Phase);
        let p = QParams::new(self.model.layers[l].act_scale, QuantBits::B8)
            .expect("scale validated at prepare");
        let data = x.data();
        let out = buf.prep_dirty(data.len());
        p.quantize_slice(data, out);
        drop(quant_span);
        let low = &self.plan.low_groups[l];
        if self.needs_live() || !low.contains(&true) {
            return;
        }
        let _span = tel::span("bit_lower", tel::Cat::Phase);
        let (c_in, plane) = match layout {
            ActLayout::Planes { c_in, hw } => (c_in, hw),
            ActLayout::Rows { c_in } => (c_in, 1),
        };
        // One slab is one sample's `[C, H·W]` planes or one `[C]` row;
        // a group's channels are contiguous inside it either way.
        for slab in out.chunks_exact_mut(c_in * plane) {
            for (g, _) in low.iter().enumerate().filter(|(_, &is_low)| is_low) {
                let range = self.model.groups.channel_range(g, c_in);
                let rule = static_a_rule(self.model, &self.opts, l, g);
                let group = &mut slab[range.start * plane..range.end * plane];
                match layout {
                    ActLayout::Planes { .. } => rule.lower_in_place(group),
                    ActLayout::Rows { .. } => rule.round_trip_in_place(group),
                }
            }
        }
    }

    fn linear_int(&mut self, l: LayerId, lin: &Linear, x: &Tensor) -> Result<Tensor> {
        let (t, _c_in) = lin.check_input(x)?;
        let out = self.linear_int_rows(l, lin, x, t);
        if x.dims().len() == 1 {
            Ok(Tensor::from_vec([lin.c_out()], out)?)
        } else {
            Ok(Tensor::from_vec([t, lin.c_out()], out)?)
        }
    }

    /// Integer linear over `rows` stacked token rows — the single copy
    /// of the linear algorithm, shared by the single-sample and batched
    /// hooks. One activation quantization (low groups round-tripped in
    /// the same sweep), then **one** band GEMM over the whole reduction
    /// against the layer's effective weights for the plan's mask. The
    /// 4-bit groups' bit-shifted accumulation rides in the operands:
    /// `(a_low << s_a)·(w_low << s_w) = (a_low·w_low) << (s_a + s_w)`
    /// exactly, and both round-tripped operands stay in `i8` (see
    /// [`BitLowering::round_trip_in_place`]), so the sum equals the
    /// per-group shifted sums bit for bit at every level.
    fn linear_int_rows(&mut self, l: LayerId, lin: &Linear, x: &Tensor, rows: usize) -> Vec<f32> {
        let (c_in, c_out) = (lin.c_in(), lin.c_out());
        // The workspace is taken out of `self` for the duration of the
        // layer so its fields can be borrowed alongside `&self` helpers.
        let mut ws = std::mem::take(&mut self.ws);
        self.quantize_act_into(l, x, ActLayout::Rows { c_in }, &mut ws.act_q);
        let low = &self.plan.low_groups[l];
        if self.needs_live() && low.contains(&true) {
            // Dynamic extraction: each low group's rule derives from the
            // live values of every row, then those rows round-trip.
            let _lower = tel::span("bit_lower", tel::Cat::Phase);
            for (g, _) in low.iter().enumerate().filter(|(_, &is_low)| is_low) {
                let range = self.model.groups.channel_range(g, c_in);
                let band = |ti: usize| ti * c_in + range.start..ti * c_in + range.end;
                let or = (0..rows).fold(0, |or, ti| or | or_magnitude(&ws.act_q[band(ti)]));
                let rule = lowering_for_or(or, self.opts.low_bits);
                for ti in 0..rows {
                    rule.round_trip_in_place(&mut ws.act_q[band(ti)]);
                }
            }
        }
        let lq = &self.model.layers[l];
        let pack = self.cache.linear(self.model, &self.opts, l, low);
        ws.acc.prep(rows * c_out);
        let band_span = tel::span("band_gemm", tel::Cat::Phase);
        gemm::gemm_i8_band_wt_prepacked(
            rows,
            c_out,
            c_in,
            0,
            c_in,
            &ws.act_q[..],
            &pack.w,
            &pack.panel,
            &mut ws.acc[..],
        );
        drop(band_span);
        let requant_span = tel::span("requant", tel::Cat::Phase);
        let mut out = vec![0.0f32; rows * c_out];
        for ti in 0..rows {
            for o in 0..c_out {
                let mut v = ws.acc[ti * c_out + o] as f32 * lq.act_scale * lq.w_scales[o];
                if let Some(b) = &lin.bias {
                    v += b[o];
                }
                out[ti * c_out + o] = v;
            }
        }
        drop(requant_span);
        self.ws = ws;
        out
    }

    fn conv_int(&mut self, l: LayerId, conv: &Conv2d, x: &Tensor) -> Result<Tensor> {
        let (_c_in, h, w) = conv.check_input(x)?;
        let geom = conv.group_geometry(h, w);
        let out = self.conv_int_stack(l, conv, x, 1, h, w);
        Ok(Tensor::from_vec(
            [conv.c_out(), geom.out_h(), geom.out_w()],
            out,
        )?)
    }

    /// Whether an extraction rule needs the live quantized values (only
    /// dynamic mode does; static/naive rules come from calibration).
    fn needs_live(&self) -> bool {
        !self.opts.batch_invariant()
    }

    /// Accumulates one conv group's feature-group bands into `acc`
    /// (`[c_out_g, ncols]`, zeroed by the caller), reading the group's
    /// im2col matrix `cols_q` (`[k, ncols]`) in place. This is the single
    /// copy of the band algorithm — the single-sample and batched paths
    /// both call it.
    ///
    /// Adjacent bands of one precision run as **one call**: a run of
    /// 8-bit bands is one plain band GEMM over their joint rows (the
    /// same exact integer sum), a run of 4-bit bands one fused low-band
    /// call that shifts each band's sum in at write-back. Under static
    /// extraction the low bands' rows arrive already lowered (see
    /// [`QuantCompute::quantize_act_into`]); dynamic extraction derives
    /// each band's rule from exactly the rows its GEMM reads, lowers
    /// them in place, and hands the live shifts to the same call.
    fn conv_group_bands(
        &self,
        l: LayerId,
        conv: &Conv2d,
        cg: usize,
        gb: &ConvGroupBands,
        cols_q: &mut [i8],
        live_shifts: &mut Buf<u8>,
        acc: &mut [i32],
    ) {
        let c_out_g = conv.c_out() / conv.groups;
        let k = conv.weight.dims()[1] * conv.kh() * conv.kw();
        let ncols = cols_q.len() / k;
        let wq = &self.model.layers[l].w_q.data()[cg * c_out_g * k..(cg + 1) * c_out_g * k];
        let low = |b: &ConvBand| self.plan.low_groups[l][b.g];
        let mut i = 0;
        while i < gb.bands.len() {
            let is_low = low(&gb.bands[i]);
            let j = i + gb.bands[i..]
                .iter()
                .take_while(|b| low(b) == is_low)
                .count();
            let (k0, k1) = (gb.bands[i].k0, gb.bands[j - 1].k1);
            if !is_low {
                let _band = tel::span("band_gemm", tel::Cat::Phase);
                gemm::gemm_i8_band(c_out_g, ncols, k, k0, k1, wq, cols_q, acc);
            } else {
                let a_shifts: &[u8] = if self.needs_live() {
                    let _lower = tel::span("bit_lower", tel::Cat::Phase);
                    live_shifts.collect_from(gb.bands[i..j].iter().map(|b| {
                        let band = &mut cols_q[b.k0 * ncols..b.k1 * ncols];
                        let rule = dynamic_lowering(band, self.opts.low_bits);
                        rule.lower_in_place(band);
                        rule.shift()
                    }))
                } else {
                    &gb.a_shifts[i..j]
                };
                let _band = tel::span("band_gemm", tel::Cat::Phase);
                let call = gemm::LowBands {
                    n: ncols,
                    bands: &gb.lhs[i..j],
                    a_shifts,
                    b: &cols_q[k0 * ncols..k1 * ncols],
                };
                gemm::gemm_i8_low_bands(call, acc);
            }
            i = j;
        }
    }

    /// Batched integer linear: one quantization and one GEMM for the
    /// whole `[N(,T), C]` stack.
    fn linear_int_batch(&mut self, l: LayerId, lin: &Linear, x: &Tensor) -> Result<Tensor> {
        let (n, t, _c_in) = lin.check_input_batch(x)?;
        let out = self.linear_int_rows(l, lin, x, n * t);
        if x.dims().len() == 2 {
            Ok(Tensor::from_vec([n, lin.c_out()], out)?)
        } else {
            Ok(Tensor::from_vec([n, t, lin.c_out()], out)?)
        }
    }

    /// Batched integer convolution over a stacked `[N, C, H, W]` input.
    fn conv_int_batch(&mut self, l: LayerId, conv: &Conv2d, x: &Tensor) -> Result<Tensor> {
        let (n, h, w) = conv.check_input_batch(x)?;
        let geom = conv.group_geometry(h, w);
        let out = self.conv_int_stack(l, conv, x, n, h, w);
        Ok(Tensor::from_vec(
            [n, conv.c_out(), geom.out_h(), geom.out_w()],
            out,
        )?)
    }

    /// Integer convolution of `n` stacked samples (`n == 1` for the
    /// single-sample hook): one activation quantization (low groups
    /// lowered in the same sweep), then per conv group one batched
    /// im2col (`[K, N*cols]`) and the run-coalesced band GEMMs of
    /// [`QuantCompute::conv_group_bands`] against the layer's cached
    /// lowered weights.
    ///
    /// Conv groups run one after another; the only parallelism is the
    /// band GEMMs' own row bands, which keep each accumulator element's
    /// serial reduction order — bit-exact at any thread count.
    fn conv_int_stack(
        &mut self,
        l: LayerId,
        conv: &Conv2d,
        x: &Tensor,
        n: usize,
        h: usize,
        w: usize,
    ) -> Vec<f32> {
        let geom = conv.group_geometry(h, w);
        let cols = geom.cols();
        let ncols = n * cols;
        let k = geom.rows();
        let c_in_g = conv.weight.dims()[1];
        let c_out = conv.c_out();
        let c_out_g = c_out / conv.groups;
        let chw = conv.c_in() * h * w;
        let mut ws = std::mem::take(&mut self.ws);
        let layout = ActLayout::Planes {
            c_in: conv.c_in(),
            hw: h * w,
        };
        self.quantize_act_into(l, x, layout, &mut ws.act_q);
        let lq = &self.model.layers[l];
        let pack = self.cache.conv(self.model, &self.opts, l);
        let mut out = vec![0.0f32; n * c_out * cols];
        // One group at a time through this hook's workspace, so peak
        // scratch stays one group's accumulator (matters for depthwise
        // layers, where groups == C_in).
        for cg in 0..conv.groups {
            let im2col_span = tel::span("im2col", tel::Cat::Phase);
            let cols_q = ws.cols_q.prep_dirty(k * ncols);
            im2col_i8_batch_fill(&ws.act_q[cg * c_in_g * h * w..], n, chw, &geom, cols_q);
            drop(im2col_span);
            let acc = ws.acc.prep(c_out_g * ncols);
            let gb = &pack.groups[cg];
            self.conv_group_bands(l, conv, cg, gb, cols_q, &mut ws.live_shifts, acc);
            // Requantize the group's `c_out_g * cols` output columns of
            // every sample.
            let _requant = tel::span("requant", tel::Cat::Phase);
            for smp in 0..n {
                let row = &mut out[(smp * c_out + cg * c_out_g) * cols..][..c_out_g * cols];
                for (ol, dst) in row.chunks_exact_mut(cols).enumerate() {
                    let o = cg * c_out_g + ol;
                    let s = lq.act_scale * lq.w_scales[o];
                    let sums = &acc[ol * ncols + smp * cols..][..cols];
                    match &conv.bias {
                        Some(b) => {
                            for (v, &sum) in dst.iter_mut().zip(sums) {
                                *v = sum as f32 * s + b[o];
                            }
                        }
                        None => {
                            for (v, &sum) in dst.iter_mut().zip(sums) {
                                *v = sum as f32 * s;
                            }
                        }
                    }
                }
            }
        }
        self.ws = ws;
        out
    }
}

impl Compute for QuantCompute<'_> {
    fn conv2d(&mut self, layer: LayerId, conv: &Conv2d, x: &Tensor) -> Result<Tensor> {
        self.conv_int(layer, conv, x)
    }

    fn linear(&mut self, layer: LayerId, lin: &Linear, x: &Tensor) -> Result<Tensor> {
        self.linear_int(layer, lin, x)
    }

    fn conv2d_batch(
        &mut self,
        layer: LayerId,
        conv: &Conv2d,
        x: &Tensor,
        _n: usize,
    ) -> Result<Tensor> {
        self.conv_int_batch(layer, conv, x)
    }

    fn linear_batch(
        &mut self,
        layer: LayerId,
        lin: &Linear,
        x: &Tensor,
        _n: usize,
    ) -> Result<Tensor> {
        self.linear_int_batch(layer, lin, x)
    }

    fn batch_invariant(&self) -> bool {
        // Dynamic extraction derives positions from the live batch (the
        // documented intentional divergence in the module docs), so
        // samplewise drivers must not silently stack under it.
        !self.needs_live()
    }

    fn kv_spec(&self) -> crate::kv::KvSpec {
        self.kv
    }

    fn set_kv_spec(&mut self, spec: crate::kv::KvSpec) {
        self.kv = spec;
    }
}

/// Runs a graph under a mixed-precision plan.
pub fn run_quantized(
    graph: &Graph,
    model: &QuantizedModel,
    plan: &MixedPlan,
    opts: QuantExecOptions,
    input: &Tensor,
) -> Result<Tensor> {
    let mut hook = QuantCompute::new(model, plan.clone(), opts)?;
    crate::exec::run(graph, input, &mut hook)
}

/// Runs a stacked `[N, …]` batch under a mixed-precision plan in one
/// pass (the batched counterpart of [`run_quantized`]).
pub fn run_quantized_batch(
    graph: &Graph,
    model: &QuantizedModel,
    plan: &MixedPlan,
    opts: QuantExecOptions,
    input: &Tensor,
) -> Result<Tensor> {
    let mut hook = QuantCompute::new(model, plan.clone(), opts)?;
    crate::exec::run_batch(graph, input, &mut hook)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibrate::calibrate_default;
    use crate::exec::run_f32;
    use crate::graph::Graph;
    use flexiq_tensor::rng::seeded;
    use flexiq_tensor::stats;

    /// A small conv + linear graph with diverse channel ranges.
    fn build_graph(seed: u64) -> (Graph, Vec<Tensor>) {
        let mut rng = seeded(seed);
        let mut g = Graph::new("qtest");
        let x = g.input();
        let ch_scales: Vec<f32> = (0..8)
            .map(|i| if i % 4 == 3 { 1.0 } else { 0.05 })
            .collect();
        let w1 = Tensor::randn_axis_scaled([8, 4, 3, 3], 1, &ch_scales[..4], &mut rng).unwrap();
        let c1 = g
            .conv2d(x, Conv2d::new(w1, Some(vec![0.01; 8]), 1, 1, 1).unwrap())
            .unwrap();
        let r1 = g.relu(c1).unwrap();
        let gp = g
            .add_node(crate::graph::Op::GlobalAvgPool, vec![r1])
            .unwrap();
        let w2 = Tensor::randn_axis_scaled([6, 8], 1, &ch_scales, &mut rng).unwrap();
        let l1 = g.linear(gp, Linear::new(w2, None).unwrap()).unwrap();
        g.set_output(l1).unwrap();
        let samples: Vec<Tensor> = (0..6)
            .map(|_| Tensor::randn([4, 6, 6], 0.0, 1.0, &mut rng))
            .collect();
        (g, samples)
    }

    fn prepared(seed: u64, group: usize) -> (Graph, QuantizedModel, Vec<Tensor>) {
        let (g, samples) = build_graph(seed);
        let calib = calibrate_default(&g, &samples).unwrap();
        let model = QuantizedModel::prepare(&g, &calib, GroupSpec::new(group)).unwrap();
        (g, model, samples)
    }

    #[test]
    fn all_high_plan_matches_int8_closely() {
        // The tiny 6-logit output makes the relative-error metric long-
        // tailed across weight draws; this seed sits well inside the bulk
        // of the distribution (rel ≈ 0.003) rather than at its tail.
        let (g, model, samples) = prepared(133, 2);
        let plan = MixedPlan::all_high(&model);
        let y_fp = run_f32(&g, &samples[0]).unwrap();
        let y_q =
            run_quantized(&g, &model, &plan, QuantExecOptions::default(), &samples[0]).unwrap();
        let rel =
            stats::l2_distance(y_fp.data(), y_q.data()) / stats::l2_norm(y_fp.data()).max(1e-6);
        assert!(rel < 0.05, "INT8 relative error {rel}");
    }

    /// The float reconstruction of the integer engine, the oracle its
    /// divergence is bounded against: weights and activations go through
    /// `dequantize(round_trip(quantize(·)))` under the plan's low groups,
    /// then the f32 op runs. A dynamic rule derives from the whole input
    /// of a feature group, which is what the engine's bands read when a
    /// conv's groups do not split a feature group and every input pixel
    /// reaches im2col.
    struct FloatOracle<'m> {
        model: &'m QuantizedModel,
        plan: MixedPlan,
        opts: QuantExecOptions,
    }

    impl FloatOracle<'_> {
        /// Layer `l`'s reconstructed f32 weights (linear `[C_out, C_in]`
        /// or conv `[C_out, C_in/groups, KH, KW]`).
        fn weight(&self, l: LayerId) -> Tensor {
            let lq = &self.model.layers[l];
            let dims = lq.w_q.dims();
            let per_o = lq.w_q.numel() / lq.c_out;
            let c_in_g = dims[1];
            let khkw = per_o / c_in_g;
            let c_out_g = lq.c_out / (lq.c_in / c_in_g);
            let data = (lq.w_q.data().iter().enumerate())
                .map(|(i, &q)| {
                    let o = i / per_o;
                    let c = o / c_out_g * c_in_g + i % per_o / khkw;
                    let g = self.model.groups.group_of(c);
                    let v = if self.plan.low_groups[l][g] {
                        static_w_rule(self.model, &self.opts, l, g, o).round_trip(q)
                    } else {
                        q as i32
                    };
                    v as f32 * lq.w_scales[o]
                })
                .collect();
            Tensor::from_vec(dims.to_vec(), data).unwrap()
        }

        /// Layer `l`'s reconstructed input; `channel(i)` is the feature
        /// channel of element `i`.
        fn act(&self, l: LayerId, x: &Tensor, channel: impl Fn(usize) -> usize) -> Tensor {
            let lq = &self.model.layers[l];
            let p = QParams::new(lq.act_scale, QuantBits::B8).unwrap();
            let xq: Vec<i8> = x.data().iter().map(|&v| p.quantize(v) as i8).collect();
            let group = |i: usize| self.model.groups.group_of(channel(i));
            let rules: Vec<Option<BitLowering>> = (0..lq.num_groups())
                .map(|g| {
                    self.plan.low_groups[l][g].then(|| {
                        if self.opts.batch_invariant() {
                            return static_a_rule(self.model, &self.opts, l, g);
                        }
                        let live: Vec<i8> = (xq.iter().enumerate())
                            .filter_map(|(i, &q)| (group(i) == g).then_some(q))
                            .collect();
                        dynamic_lowering(&live, self.opts.low_bits)
                    })
                })
                .collect();
            let data = (xq.iter().enumerate())
                .map(|(i, &q)| rules[group(i)].map_or(q as i32, |r| r.round_trip(q)) as f32)
                .map(|v| v * lq.act_scale)
                .collect();
            Tensor::from_vec(x.dims().to_vec(), data).unwrap()
        }
    }

    impl Compute for FloatOracle<'_> {
        fn conv2d(&mut self, l: LayerId, conv: &Conv2d, x: &Tensor) -> Result<Tensor> {
            let (c_in, h, w) = conv.check_input(x)?;
            let x = self.act(l, x, |i| i / (h * w) % c_in);
            let w = self.weight(l);
            Conv2d::new(w, conv.bias.clone(), conv.stride, conv.pad, conv.groups)?.forward(&x)
        }

        fn linear(&mut self, l: LayerId, lin: &Linear, x: &Tensor) -> Result<Tensor> {
            let c_in = lin.c_in();
            let x = self.act(l, x, |i| i % c_in);
            Linear::new(self.weight(l), lin.bias.clone())?.forward(&x)
        }
    }

    /// Relative L2 distance of the integer engine from the float oracle
    /// on one input.
    fn oracle_divergence(
        g: &Graph,
        model: &QuantizedModel,
        plan: &MixedPlan,
        opts: QuantExecOptions,
        x: &Tensor,
    ) -> f32 {
        let int = run_quantized(g, model, plan, opts, x).unwrap();
        let mut oracle = FloatOracle {
            model,
            plan: plan.clone(),
            opts,
        };
        let float = crate::exec::run(g, x, &mut oracle).unwrap();
        stats::l2_distance(float.data(), int.data()) / stats::l2_norm(int.data()).max(1e-6)
    }

    /// Nested plans with the leading `pct` % of every layer's groups low.
    fn nested_plan(model: &QuantizedModel, pct: usize) -> MixedPlan {
        let mut plan = MixedPlan::all_high(model);
        for groups in &mut plan.low_groups {
            let low = (groups.len() * pct).div_ceil(100);
            groups[..low].fill(true);
        }
        plan
    }

    #[test]
    fn int_and_fake_paths_agree() {
        let (g, model, samples) = prepared(132, 2);
        let vit = crate::zoo::ModelId::ViTS;
        let vit_graph = vit.build(crate::zoo::Scale::Test).unwrap();
        let dims = vit.input_dims(crate::zoo::Scale::Test);
        let vit_samples = crate::data::gen_image_inputs(4, &dims, 132);
        let calib = calibrate_default(&vit_graph, &vit_samples).unwrap();
        let vit_model = QuantizedModel::prepare(&vit_graph, &calib, GroupSpec::new(4)).unwrap();
        let inputs = [
            ("qtest", &g, &model, &samples[1]),
            ("ViT-S", &vit_graph, &vit_model, &vit_samples[1]),
        ];
        for (name, g, model, x) in inputs {
            for low_bits in [QuantBits::B4, QuantBits::B2] {
                for (dynamic_extract, naive_lowering) in
                    [(false, false), (true, false), (false, true)]
                {
                    let opts = QuantExecOptions {
                        low_bits,
                        dynamic_extract,
                        naive_lowering,
                        ..Default::default()
                    };
                    for pct in [0, 25, 50, 75, 100] {
                        let rel = oracle_divergence(g, model, &nested_plan(model, pct), opts, x);
                        println!(
                            "{name} {low_bits:?} dynamic={dynamic_extract} naive={naive_lowering} \
                             {pct:>3}% low: rel L2 {rel:.2e}"
                        );
                        assert!(rel < 1e-4, "{name} {opts:?} at {pct}%: Int vs oracle {rel}");
                    }
                }
            }
        }
    }

    #[test]
    fn mixed_plan_interpolates_between_extremes() {
        let (g, model, samples) = prepared(133, 2);
        let high = MixedPlan::all_high(&model);
        let low = MixedPlan::all_low(&model);
        let y8 =
            run_quantized(&g, &model, &high, QuantExecOptions::default(), &samples[2]).unwrap();
        let y4 = run_quantized(&g, &model, &low, QuantExecOptions::default(), &samples[2]).unwrap();
        // A plan with only some groups low must sit between the extremes
        // in error vs the 8-bit output.
        let mut mid = high.clone();
        mid.low_groups[0][0] = true;
        let ym = run_quantized(&g, &model, &mid, QuantExecOptions::default(), &samples[2]).unwrap();
        let e_mid = stats::l2_distance(y8.data(), ym.data());
        let e_low = stats::l2_distance(y8.data(), y4.data());
        assert!(e_mid > 0.0);
        assert!(e_mid <= e_low + 1e-6, "mid {e_mid} vs low {e_low}");
    }

    #[test]
    fn plan_accounting() {
        let (_, model, _) = prepared(134, 2);
        let high = MixedPlan::all_high(&model);
        let low = MixedPlan::all_low(&model);
        assert_eq!(high.low_param_fraction(&model), 0.0);
        assert_eq!(low.low_param_fraction(&model), 1.0);
        assert_eq!(high.avg_bits(&model), 8.0);
        assert_eq!(low.avg_bits(&model), 4.0);
        assert!(high.subset_of(&low));
        assert!(!low.subset_of(&high));
    }

    #[test]
    fn plan_validation_rejects_mismatches() {
        let (_, model, _) = prepared(135, 2);
        let mut plan = MixedPlan::all_high(&model);
        plan.low_groups.pop();
        assert!(plan.validate(&model).is_err());
        let mut plan = MixedPlan::all_high(&model);
        plan.low_groups[0].pop();
        assert!(plan.validate(&model).is_err());
    }

    #[test]
    fn dynamic_extraction_never_increases_error() {
        // Dynamic positions adapt to the live input, so the error vs the
        // f32 output should not exceed the static-position error by more
        // than noise.
        let (g, model, samples) = prepared(136, 2);
        let plan = MixedPlan::all_low(&model);
        let y_fp = run_f32(&g, &samples[3]).unwrap();
        let stat =
            run_quantized(&g, &model, &plan, QuantExecOptions::default(), &samples[3]).unwrap();
        let dyn_ = run_quantized(
            &g,
            &model,
            &plan,
            QuantExecOptions {
                dynamic_extract: true,
                ..Default::default()
            },
            &samples[3],
        )
        .unwrap();
        let e_stat = stats::l2_distance(y_fp.data(), stat.data());
        let e_dyn = stats::l2_distance(y_fp.data(), dyn_.data());
        assert!(
            e_dyn <= e_stat * 1.25 + 1e-5,
            "dynamic {e_dyn} vs static {e_stat}"
        );
    }

    #[test]
    fn depthwise_conv_quantized_path() {
        let mut rng = seeded(137);
        let mut g = Graph::new("dw");
        let x = g.input();
        let w = Tensor::randn([4, 1, 3, 3], 0.0, 0.4, &mut rng);
        let c = g.conv2d(x, Conv2d::new(w, None, 1, 1, 4).unwrap()).unwrap();
        g.set_output(c).unwrap();
        let samples: Vec<Tensor> = (0..3)
            .map(|_| Tensor::randn([4, 5, 5], 0.0, 1.0, &mut rng))
            .collect();
        let calib = calibrate_default(&g, &samples).unwrap();
        let model = QuantizedModel::prepare(&g, &calib, GroupSpec::new(2)).unwrap();
        for plan in [MixedPlan::all_high(&model), MixedPlan::all_low(&model)] {
            let opts = QuantExecOptions::default();
            let rel = oracle_divergence(&g, &model, &plan, opts, &samples[0]);
            assert!(rel < 1e-4, "depthwise Int vs oracle: {rel}");
        }
    }

    #[test]
    fn batched_run_is_bit_exact_with_per_sample_in_both_modes() {
        let (g, model, samples) = prepared(139, 2);
        let stacked = Tensor::stack(&samples[..4]).unwrap();
        let mut mixed = MixedPlan::all_high(&model);
        mixed.low_groups[0][1] = true;
        mixed.low_groups[1][0] = true;
        for plan in [
            MixedPlan::all_high(&model),
            MixedPlan::all_low(&model),
            mixed,
        ] {
            let opts = QuantExecOptions::default();
            let yb = run_quantized_batch(&g, &model, &plan, opts, &stacked).unwrap();
            for (i, s) in samples[..4].iter().enumerate() {
                let yi = run_quantized(&g, &model, &plan, opts, s).unwrap();
                let ybi = yb.index_axis0(i).unwrap();
                assert_eq!(ybi.dims(), yi.dims());
                for (a, b) in ybi.data().iter().zip(yi.data().iter()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "batched diverged at sample {i}");
                }
            }
        }
    }

    #[test]
    fn batched_depthwise_conv_is_bit_exact() {
        let mut rng = seeded(140);
        let mut g = Graph::new("dw_batch");
        let x = g.input();
        let w = Tensor::randn([4, 1, 3, 3], 0.0, 0.4, &mut rng);
        let c = g.conv2d(x, Conv2d::new(w, None, 1, 1, 4).unwrap()).unwrap();
        g.set_output(c).unwrap();
        let samples: Vec<Tensor> = (0..3)
            .map(|_| Tensor::randn([4, 5, 5], 0.0, 1.0, &mut rng))
            .collect();
        let calib = calibrate_default(&g, &samples).unwrap();
        let model = QuantizedModel::prepare(&g, &calib, GroupSpec::new(2)).unwrap();
        let stacked = Tensor::stack(&samples).unwrap();
        for plan in [MixedPlan::all_high(&model), MixedPlan::all_low(&model)] {
            let opts = QuantExecOptions::default();
            let yb = run_quantized_batch(&g, &model, &plan, opts, &stacked).unwrap();
            for (i, s) in samples.iter().enumerate() {
                let yi = run_quantized(&g, &model, &plan, opts, s).unwrap();
                for (a, b) in yb.index_axis0(i).unwrap().data().iter().zip(yi.data()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "depthwise sample {i}");
                }
            }
        }
    }

    /// Serializes the cache tests: their counter-delta assertions read
    /// the global telemetry counters, which other cache tests bump.
    fn cache_test_lock() -> std::sync::MutexGuard<'static, ()> {
        static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
        GATE.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Runs one sample through a hook with the given cache.
    fn run_cached(
        g: &Graph,
        model: &QuantizedModel,
        plan: &MixedPlan,
        opts: QuantExecOptions,
        cache: Option<Arc<PackCache>>,
        x: &Tensor,
    ) -> Tensor {
        let mut hook = QuantCompute::with_cache(model, plan.clone(), opts, cache).unwrap();
        crate::exec::run(g, x, &mut hook).unwrap()
    }

    #[test]
    fn pack_cache_is_bit_exact_with_uncached_and_hits_on_reuse() {
        let _gate = cache_test_lock();
        let (g, model, samples) = prepared(141, 2);
        let opts = QuantExecOptions::default();
        let mut mixed = MixedPlan::all_high(&model);
        mixed.low_groups[0][1] = true;
        mixed.low_groups[1][0] = true;
        let cache = Arc::new(PackCache::new());
        for plan in [
            MixedPlan::all_high(&model),
            MixedPlan::all_low(&model),
            mixed,
        ] {
            for s in &samples[..3] {
                let base = run_quantized(&g, &model, &plan, opts, s).unwrap();
                let cached = run_cached(&g, &model, &plan, opts, Some(cache.clone()), s);
                for (a, b) in base.data().iter().zip(cached.data()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "cached output diverged");
                }
            }
        }
        assert!(cache.resident_bytes() > 0, "cache stayed empty");
        // A re-run over a warm cache must hit, not rebuild.
        let before = tel::counters();
        let _ = run_cached(
            &g,
            &model,
            &MixedPlan::all_low(&model),
            opts,
            Some(cache.clone()),
            &samples[0],
        );
        let after = tel::counters();
        assert!(
            after.pack_cache_hits > before.pack_cache_hits,
            "no hits on warm cache"
        );
        assert_eq!(
            after.pack_cache_misses, before.pack_cache_misses,
            "warm cache rebuilt entries"
        );
    }

    #[test]
    fn pack_cache_batched_runs_are_bit_exact() {
        let _gate = cache_test_lock();
        let (g, model, samples) = prepared(142, 2);
        let stacked = Tensor::stack(&samples[..4]).unwrap();
        let opts = QuantExecOptions::default();
        let cache = Arc::new(PackCache::new());
        let mut mixed = MixedPlan::all_high(&model);
        mixed.low_groups[0][0] = true;
        for plan in [MixedPlan::all_low(&model), mixed] {
            let base = run_quantized_batch(&g, &model, &plan, opts, &stacked).unwrap();
            let mut hook =
                QuantCompute::with_cache(&model, plan.clone(), opts, Some(cache.clone())).unwrap();
            let cached = crate::exec::run_batch(&g, &stacked, &mut hook).unwrap();
            drop(hook);
            for (a, b) in base.data().iter().zip(cached.data()) {
                assert_eq!(a.to_bits(), b.to_bits(), "cached batch diverged");
            }
        }
    }

    #[test]
    fn pack_cache_prewarm_covers_every_band() {
        let _gate = cache_test_lock();
        let (g, model, samples) = prepared(143, 2);
        let opts = QuantExecOptions::default();
        let plans = [MixedPlan::all_high(&model), MixedPlan::all_low(&model)];
        let cache = Arc::new(PackCache::new());
        cache.prewarm(&g, &model, opts, &plans).unwrap();
        let warm_bytes = cache.resident_bytes();
        assert!(warm_bytes > 0, "prewarm built nothing");
        // No prewarmed plan may trigger a build afterwards.
        let before = tel::counters();
        for plan in &plans {
            let _ = run_cached(&g, &model, plan, opts, Some(cache.clone()), &samples[0]);
        }
        let after = tel::counters();
        assert_eq!(
            after.pack_cache_misses, before.pack_cache_misses,
            "prewarmed cache missed"
        );
        assert_eq!(
            cache.resident_bytes(),
            warm_bytes,
            "cache grew after prewarm"
        );
    }

    #[test]
    fn pack_cache_invalidate_and_option_change_rebuild() {
        let _gate = cache_test_lock();
        let (g, model, samples) = prepared(144, 2);
        let opts = QuantExecOptions::default();
        let plan = MixedPlan::all_low(&model);
        let cache = Arc::new(PackCache::new());
        let y0 = run_cached(&g, &model, &plan, opts, Some(cache.clone()), &samples[0]);
        cache.invalidate();
        assert_eq!(cache.resident_bytes(), 0);
        let y1 = run_cached(&g, &model, &plan, opts, Some(cache.clone()), &samples[0]);
        for (a, b) in y0.data().iter().zip(y1.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // Changing the lowering options must flush stale entries (the
        // fingerprint, not the caller, owns this) and still be exact.
        let opts2 = QuantExecOptions {
            low_bits: QuantBits::B2,
            ..Default::default()
        };
        let base = run_quantized(&g, &model, &plan, opts2, &samples[0]).unwrap();
        let cached = run_cached(&g, &model, &plan, opts2, Some(cache.clone()), &samples[0]);
        for (a, b) in base.data().iter().zip(cached.data()) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "stale entries served after opts change"
            );
        }
    }

    /// The folded linear against the arithmetic it replaced, written the
    /// slow way: per low feature group, `Σ a_low·w_low` in `i64`, shifted
    /// left by `s_a + s_w[o]`; plain `Σ a·w` elsewhere.
    fn per_group_shifted_linear(
        model: &QuantizedModel,
        low: &[bool],
        opts: QuantExecOptions,
        x: &[f32],
    ) -> Vec<f32> {
        let lq = &model.layers[0];
        let (c_in, c_out) = (lq.c_in, lq.c_out);
        let p = QParams::new(lq.act_scale, QuantBits::B8).unwrap();
        let xq: Vec<i8> = x.iter().map(|&v| p.quantize(v) as i8).collect();
        let rows = xq.len() / c_in;
        let mut acc = vec![0i64; rows * c_out];
        for g in 0..lq.num_groups() {
            let range = model.groups.channel_range(g, c_in);
            let a_rule = if opts.naive_lowering {
                BitLowering::naive(QuantBits::B8, opts.low_bits)
            } else if opts.dynamic_extract {
                let live: Vec<i8> = (0..rows)
                    .flat_map(|r| xq[r * c_in + range.start..r * c_in + range.end].to_vec())
                    .collect();
                dynamic_lowering(&live, opts.low_bits)
            } else {
                lq.act_lowering(g, opts.low_bits)
            };
            for r in 0..rows {
                for o in 0..c_out {
                    let w_rule = static_w_rule(model, &opts, 0, g, o);
                    let mut sum = 0i64;
                    for c in range.clone() {
                        let (a, w) = (xq[r * c_in + c], lq.w_q.data()[o * c_in + c]);
                        sum += if low[g] {
                            a_rule.lower(a) as i64 * w_rule.lower(w) as i64
                        } else {
                            a as i64 * w as i64
                        };
                    }
                    acc[r * c_out + o] += if low[g] {
                        sum << (a_rule.shift() + w_rule.shift())
                    } else {
                        sum
                    };
                }
            }
        }
        acc.iter()
            .enumerate()
            .map(|(i, &v)| i32::try_from(v).unwrap() as f32 * lq.act_scale * lq.w_scales[i % c_out])
            .collect()
    }

    #[test]
    fn folded_linear_matches_per_group_shifted_sums() {
        use rand::Rng;
        let mut rng = seeded(0xF01D);
        let (c_in, c_out, n, t) = (26usize, 40usize, 3usize, 5usize);
        let groups = GroupSpec::new(4);
        let n_groups = groups.num_groups(c_in);
        for trial in 0..16 {
            // Weight magnitudes capped per (output, group), so the static
            // shifts differ across a group's output channels.
            let caps: Vec<i16> = (0..c_out * n_groups)
                .map(|_| [3i16, 12, 40, 127][rng.gen_range(0..4)])
                .collect();
            let w: Vec<i8> = (0..c_out * c_in)
                .map(|i| {
                    let cap = caps[i / c_in * n_groups + groups.group_of(i % c_in)];
                    rng.gen_range(-cap..=cap) as i8
                })
                .collect();
            let mut w_group_max_q = vec![vec![0u32; c_out]; n_groups];
            for (i, &v) in w.iter().enumerate() {
                let (o, g) = (i / c_in, groups.group_of(i % c_in));
                w_group_max_q[g][o] = w_group_max_q[g][o].max(v.unsigned_abs() as u32);
            }
            let model = QuantizedModel {
                layers: vec![LayerQuant {
                    c_in,
                    c_out,
                    w_q: I8Tensor::from_vec(vec![c_out, c_in], w).unwrap(),
                    w_scales: (0..c_out).map(|_| rng.gen_range(0.001f32..0.02)).collect(),
                    act_scale: 0.05,
                    act_group_max_q: (0..n_groups)
                        .map(|_| [7u32, 31, 127][rng.gen_range(0..3)])
                        .collect(),
                    w_group_max_q,
                }],
                groups,
            };
            // Random masks: mostly non-contiguous, now and then empty.
            let low: Vec<bool> = (0..n_groups).map(|_| rng.gen_bool(0.5)).collect();
            let x: Vec<f32> = (0..n * t * c_in)
                .map(|_| rng.gen_range(-7.0f32..7.0))
                .collect();
            let x = Tensor::from_vec([n, t, c_in], x).unwrap();
            let lin = Linear::new(Tensor::zeros([c_out, c_in]), None).unwrap();
            let plan = MixedPlan {
                low_groups: vec![low.clone()],
            };
            for bits in [2u8, 3, 4] {
                for (dynamic_extract, naive_lowering) in
                    [(false, false), (true, false), (false, true)]
                {
                    let opts = QuantExecOptions {
                        dynamic_extract,
                        low_bits: QuantBits::new(bits).unwrap(),
                        naive_lowering,
                        ..Default::default()
                    };
                    let what = format!("trial {trial} B{bits} {opts:?} low={low:?}");
                    let mut hook = QuantCompute::new(&model, plan.clone(), opts).unwrap();
                    let got = hook.linear_batch(0, &lin, &x, n).unwrap();
                    let want = per_group_shifted_linear(&model, &low, opts, x.data());
                    for (i, (a, b)) in want.iter().zip(got.data()).enumerate() {
                        assert_eq!(a.to_bits(), b.to_bits(), "{what} elem {i}");
                    }
                }
            }
        }
    }

    #[test]
    fn lowering_error_smaller_than_naive_for_small_range_groups() {
        // The effective-bit extraction must make 100% 4-bit much closer to
        // the 8-bit output than naive top-bit lowering would be. We check
        // via the 2-bit mode upper bound: B4 lowering error < B2 error.
        let (g, model, samples) = prepared(138, 2);
        let plan = MixedPlan::all_low(&model);
        let y8 = run_quantized(
            &g,
            &model,
            &MixedPlan::all_high(&model),
            QuantExecOptions::default(),
            &samples[4],
        )
        .unwrap();
        let y4 =
            run_quantized(&g, &model, &plan, QuantExecOptions::default(), &samples[4]).unwrap();
        let y2 = run_quantized(
            &g,
            &model,
            &plan,
            QuantExecOptions {
                low_bits: QuantBits::B2,
                ..Default::default()
            },
            &samples[4],
        )
        .unwrap();
        let e4 = stats::l2_distance(y8.data(), y4.data());
        let e2 = stats::l2_distance(y8.data(), y2.data());
        assert!(e4 < e2, "4-bit error {e4} must beat 2-bit error {e2}");
    }
}
