//! The mixed-precision serving runtime (§7).
//!
//! A [`FlexiRuntime`] owns one set of 8-bit master weights (the layout-
//! optimized graph plus its [`QuantizedModel`]) and a nested
//! [`RatioSchedule`]. Because every plan's low groups are contiguous
//! prefixes per layer after layout optimization, switching the active
//! ratio is just rewriting one word per layer — the paper's
//! `max_4bit_ch` update, measured at microseconds (§8.5). Here the whole
//! switch is a single atomic level index plus precomputed per-layer
//! boundaries, and [`FlexiRuntime::set_level`] is safe to call from a
//! serving thread while inference threads read the current level.
//!
//! Inference comes in two shapes: [`FlexiRuntime::infer`] for one sample
//! and [`FlexiRuntime::infer_batch`] for a stacked batch executed as one
//! forward pass (one level read, one quantization and bit-lowering per
//! layer per batch) — the serving worker's dispatch unit.
//!
//! The runtime owns no threads and picks no pool. The one intra-batch
//! fan-out is inside the GEMM kernels, which split large problems into
//! output row bands on the ambient pool: the `flexiq_parallel::with_pool`
//! scope the caller installed (the serve worker installs one per
//! dispatch), else the global `FLEXIQ_THREADS`-sized pool. Row bands
//! keep every output element's reduction order, so inference is
//! bit-exact with serial at every level and thread count.
//!
//! Inference entry points are also **allocation-steady**: the quantized
//! engine draws its per-layer scratch (activation quantization, its
//! channel quads, bit-lowered bands, band accumulators) from a per-thread
//! [`flexiq_nn::workspace::Workspace`] checked out for each pass, and
//! the blocked GEMM kernels underneath draw their packing panels from
//! per-thread scratch pools. A thread that calls `infer`/`infer_batch`
//! repeatedly — a serve worker, a bench loop — reuses the same buffers
//! after its first pass: the steady-state linear/conv hot path performs
//! no heap allocation beyond the output tensors (pinned by
//! `tests/alloc_steady_state.rs`).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use flexiq_nn::data::Dataset;
use flexiq_nn::decode::DecodeState;
use flexiq_nn::exec::{self, Compute as _};
use flexiq_nn::graph::Graph;
use flexiq_nn::kv::KvSpec;
use flexiq_nn::qexec::{MixedPlan, PackCache, QuantCompute, QuantExecOptions, QuantizedModel};
use flexiq_nn::NnError;
use flexiq_telemetry as tel;
use flexiq_tensor::Tensor;

use crate::schedule::RatioSchedule;
use crate::Result;

/// A servable FlexiQ model with runtime-adjustable low-bitwidth ratio.
pub struct FlexiRuntime {
    graph: Graph,
    model: QuantizedModel,
    schedule: RatioSchedule,
    /// Per level, per layer: number of leading low groups (the
    /// `max_4bit_ch` analogue; meaningful for contiguous layers).
    max_low_group: Vec<Vec<usize>>,
    /// Active level: `0..len` into the schedule, or `usize::MAX` for the
    /// all-8-bit configuration.
    level: AtomicUsize,
    opts: QuantExecOptions,
    /// Shared prepacked-weight cache: quantized + bit-lowered + NR-lane
    /// packed weights, built lazily on first use (or eagerly via
    /// [`FlexiRuntime::prewarm_levels`]) and consumed by every
    /// inference. Each level reads its own entries, so
    /// [`FlexiRuntime::set_level`] stays a single atomic store — no
    /// invalidation on a precision switch.
    pack_cache: Arc<PackCache>,
    /// K/V-cache precision for attention: the f32 default keeps
    /// attention on the uncached core; a quantized spec makes **every**
    /// entry point — full-context and incremental — run attention
    /// through the same effective-bit cache arithmetic, which is what
    /// keeps decode bit-exact with full forwards.
    kv_spec: KvSpec,
}

/// Level index denoting the pure 8-bit configuration (0% 4-bit).
pub const LEVEL_INT8: usize = usize::MAX;

/// Per-request autoregressive generation state.
///
/// Created by [`FlexiRuntime::decode_start`], advanced by
/// [`FlexiRuntime::decode_step`] / [`FlexiRuntime::decode_step_batch`].
/// Holds one quantized K/V cache per attention layer (in the runtime's
/// [`KvSpec`] representation) plus the absolute position, so a session
/// can leave and re-enter the running batch freely — continuous
/// batching's admission unit.
pub struct DecodeSession {
    state: DecodeState,
    prompt_len: usize,
}

impl DecodeSession {
    /// Prompt length this session was prefilled with.
    pub fn prompt_len(&self) -> usize {
        self.prompt_len
    }

    /// Absolute position of the next token (prompt + generated).
    pub fn pos(&self) -> usize {
        self.state.pos()
    }

    /// Tokens generated so far (excludes the prompt).
    pub fn generated(&self) -> usize {
        self.state.pos() - self.prompt_len
    }

    /// Positional-table capacity: `pos()` may not exceed this.
    pub fn context(&self) -> usize {
        self.state.context()
    }

    /// Resident bytes across this session's K/V caches.
    pub fn kv_bytes(&self) -> usize {
        self.state.kv_bytes()
    }
}

impl FlexiRuntime {
    /// Assembles a runtime from its parts.
    pub fn new(
        graph: Graph,
        model: QuantizedModel,
        schedule: RatioSchedule,
        opts: QuantExecOptions,
    ) -> Result<Self> {
        for plan in &schedule.plans {
            plan.validate(&model)?;
        }
        let max_low_group = schedule
            .plans
            .iter()
            .map(|plan| {
                plan.low_groups
                    .iter()
                    .map(|groups| groups.iter().filter(|&&b| b).count())
                    .collect()
            })
            .collect();
        Ok(FlexiRuntime {
            graph,
            model,
            schedule,
            max_low_group,
            level: AtomicUsize::new(LEVEL_INT8),
            opts,
            pack_cache: Arc::new(PackCache::new()),
            kv_spec: KvSpec::f32(),
        })
    }

    /// Eagerly builds every prepacked-weight cache entry a level reads —
    /// the INT8 level and every schedule level — so no serving request,
    /// and no level switch, ever pays lazy packing latency. Safe to call
    /// more than once (warm entries are hits).
    pub fn prewarm_levels(&self) -> Result<()> {
        let int8 = MixedPlan::all_high(&self.model);
        let plans = std::iter::once(&int8).chain(&self.schedule.plans);
        self.pack_cache
            .prewarm(&self.graph, &self.model, self.opts, plans)?;
        Ok(())
    }

    /// Drops every prepacked-weight cache entry. Required after mutating
    /// master weights in place; **not** needed for level switches: each
    /// level reads its own entries (a linear layer's are keyed by the
    /// level's low-group mask), so a switch only reads other entries and
    /// never makes one stale.
    pub fn invalidate_pack_cache(&self) {
        self.pack_cache.invalidate();
    }

    /// The shared prepacked-weight cache.
    pub fn pack_cache(&self) -> &Arc<PackCache> {
        &self.pack_cache
    }

    /// Installs a K/V-cache precision spec (see
    /// [`flexiq_nn::kv::KvSpec`]). Geometry is validated lazily against
    /// each attention node at first use; LM serving typically installs
    /// [`KvSpec::mixed`] so the cache carries the same effective-bit
    /// representation as the weights.
    pub fn with_kv_spec(mut self, spec: KvSpec) -> Self {
        self.kv_spec = spec;
        self
    }

    /// The installed K/V-cache precision spec.
    pub fn kv_spec(&self) -> &KvSpec {
        &self.kv_spec
    }

    /// The layout-optimized graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The quantized master state.
    pub fn model(&self) -> &QuantizedModel {
        &self.model
    }

    /// The nested schedule.
    pub fn schedule(&self) -> &RatioSchedule {
        &self.schedule
    }

    /// Number of ratio levels (excluding the implicit 8-bit level).
    pub fn num_levels(&self) -> usize {
        self.schedule.len()
    }

    /// The schedule level with the largest 4-bit ratio — the cheapest
    /// (fastest, lowest-accuracy) configuration the runtime can run.
    /// This is the brownout target: a degraded server pins this level
    /// to survive overload. Robust to unsorted schedules; `None` when
    /// the schedule is empty (INT8 is then the only configuration).
    pub fn cheapest_level(&self) -> Option<usize> {
        self.schedule
            .ratios
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
    }

    /// Switches the active ratio level.
    ///
    /// This is the runtime's entire precision switch: one atomic store.
    /// The per-layer boundaries (`max_4bit_ch`) were precomputed at build
    /// time; [`FlexiRuntime::layer_boundaries`] exposes them as the
    /// paper's kernels would read them.
    pub fn set_level(&self, level: usize) -> Result<()> {
        if level != LEVEL_INT8 && level >= self.schedule.len() {
            return Err(NnError::Invalid(format!(
                "level {level} out of range 0..{}",
                self.schedule.len()
            )));
        }
        self.level.store(level, Ordering::Release);
        Ok(())
    }

    /// Switches to the level whose ratio is nearest to `ratio` (0 picks
    /// the 8-bit configuration).
    pub fn set_ratio(&self, ratio: f64) -> Result<()> {
        if ratio <= 0.0 {
            return self.set_level(LEVEL_INT8);
        }
        match self.schedule.nearest_level(ratio) {
            Some(l) => self.set_level(l),
            None => self.set_level(LEVEL_INT8),
        }
    }

    /// The active level.
    pub fn level(&self) -> usize {
        self.level.load(Ordering::Acquire)
    }

    /// The active low-bitwidth ratio (0.0 in the 8-bit configuration).
    pub fn current_ratio(&self) -> f64 {
        match self.level() {
            LEVEL_INT8 => 0.0,
            l => self.schedule.ratios[l],
        }
    }

    /// Per-layer `max_4bit_ch` boundaries of a level.
    pub fn layer_boundaries(&self, level: usize) -> Option<&[usize]> {
        self.max_low_group.get(level).map(|v| v.as_slice())
    }

    /// The plan of a specific level (the single source of the
    /// level-to-plan dispatch).
    fn plan_at(&self, level: usize) -> MixedPlan {
        match level {
            LEVEL_INT8 => MixedPlan::all_high(&self.model),
            l => self.schedule.plans[l].clone(),
        }
    }

    /// The plan for the active level.
    pub fn current_plan(&self) -> MixedPlan {
        self.plan_at(self.level())
    }

    /// A compute hook for `plan`, sharing the runtime's prepacked-weight
    /// cache (the single construction site every inference entry point
    /// routes through).
    fn hook(&self, plan: MixedPlan) -> Result<QuantCompute<'_>> {
        let mut hook =
            QuantCompute::with_cache(&self.model, plan, self.opts, Some(self.pack_cache.clone()))?;
        hook.set_kv_spec(self.kv_spec);
        Ok(hook)
    }

    /// Runs inference at the active ratio.
    pub fn infer(&self, input: &Tensor) -> Result<Tensor> {
        self.infer_traced(input).map(|(y, _)| y)
    }

    /// Runs inference and reports the level it actually executed at.
    ///
    /// The level is read exactly once and the whole forward pass uses
    /// that level's plan, so the returned value is authoritative even
    /// while a serving thread is concurrently flipping levels.
    pub fn infer_traced(&self, input: &Tensor) -> Result<(Tensor, usize)> {
        let level = self.level();
        let mut hook = self.hook(self.plan_at(level))?;
        Ok((exec::run(&self.graph, input, &mut hook)?, level))
    }

    /// Runs a batch of same-shaped inputs as **one** stacked forward pass.
    ///
    /// See [`FlexiRuntime::infer_batch_traced`]; this drops the level.
    pub fn infer_batch(&self, inputs: &[Tensor]) -> Result<Vec<Tensor>> {
        self.infer_batch_traced(inputs).map(|(ys, _)| ys)
    }

    /// Runs a batch of same-shaped inputs as one stacked `[N, …]` forward
    /// pass and reports the level the whole batch executed at.
    ///
    /// The level is read exactly once: quantization parameters, the
    /// mixed-precision plan, and any concurrent [`FlexiRuntime::set_level`]
    /// switch are shared across the batch, so every sample of a dispatch
    /// runs the same configuration (the §7 switching model). Activations
    /// are quantized and per-layer bit-lowering applied once per layer
    /// per batch, and with static extraction positions each sample's
    /// output is bit-exact with a standalone [`FlexiRuntime::infer`] call
    /// at the same level.
    ///
    /// Inputs must share one shape (mixed-shape dispatch is the caller's
    /// concern — see `flexiq-serve`'s worker, which groups by shape). An
    /// empty batch returns no outputs.
    pub fn infer_batch_traced(&self, inputs: &[Tensor]) -> Result<(Vec<Tensor>, usize)> {
        let level = self.level();
        if inputs.is_empty() {
            return Ok((Vec::new(), level));
        }
        let stacked = Tensor::stack(inputs).map_err(NnError::from)?;
        let mut hook = self.hook(self.plan_at(level))?;
        let y = exec::run_batch(&self.graph, &stacked, &mut hook)?;
        let mut outs = Vec::with_capacity(inputs.len());
        for i in 0..inputs.len() {
            outs.push(y.index_axis0(i).map_err(NnError::from)?);
        }
        Ok((outs, level))
    }

    /// Starts an autoregressive decode session: runs the `[T]` prompt
    /// through the incremental walker (filling the session's quantized
    /// K/V caches) and returns the session, the last position's
    /// `[vocab]` logits, and the level the prefill executed at.
    ///
    /// The prefill is **bit-exact** with [`FlexiRuntime::infer`] on the
    /// same prompt at the same level — the identity the decode
    /// equivalence suite pins — because full-context attention routes
    /// through the very same cache arithmetic whenever a non-f32
    /// [`KvSpec`] is installed.
    pub fn decode_start(&self, prompt: &Tensor) -> Result<(DecodeSession, Tensor, usize)> {
        let level = self.level();
        let mut hook = self.hook(self.plan_at(level))?;
        let mut state = DecodeState::new(&self.graph, self.kv_spec)?;
        let t = prompt.dims().first().copied().unwrap_or(0);
        let _span = tel::span_full("prefill", tel::Cat::Phase, 0, [t as u64, 1, 0, 0]);
        let logits = flexiq_nn::decode::prefill(&self.graph, &mut state, prompt, &mut hook)?;
        let last = logits
            .index_axis0(t.saturating_sub(1))
            .map_err(NnError::from)?;
        tel::count(tel::Counter::DecodeSteps, 1);
        tel::count(tel::Counter::DecodeTokens, t as u64);
        tel::count(tel::Counter::KvCacheBytes, state.kv_bytes() as u64);
        Ok((
            DecodeSession {
                state,
                prompt_len: t,
            },
            last,
            level,
        ))
    }

    /// Runs one decode step: `token` enters at the session's position,
    /// attends over the cached context, and the step's `[vocab]` logits
    /// come back with the level that step executed at.
    ///
    /// The level is re-read per step, so a concurrent
    /// [`FlexiRuntime::set_level`] takes effect from the next token —
    /// the §7 switching model applied to generation. (Cached K/V rows
    /// embedded before a switch keep the representation they were
    /// written with; only new rows and new linears see the new plan.)
    pub fn decode_step(&self, session: &mut DecodeSession, token: f32) -> Result<(Tensor, usize)> {
        let level = self.level();
        let mut hook = self.hook(self.plan_at(level))?;
        let before = session.state.kv_bytes();
        let _span = tel::span_full("decode_step", tel::Cat::Phase, 0, [1, 1, 0, 0]);
        let y = flexiq_nn::decode::step(&self.graph, &mut session.state, token, &mut hook)?;
        let row = y.index_axis0(0).map_err(NnError::from)?;
        tel::count(tel::Counter::DecodeSteps, 1);
        tel::count(tel::Counter::DecodeTokens, 1);
        tel::count(
            tel::Counter::KvCacheBytes,
            session.state.kv_bytes().saturating_sub(before) as u64,
        );
        Ok((row, level))
    }

    /// Runs one decode step for **each** of several sessions as a single
    /// fused pass: every per-step linear executes once at `m = N` — the
    /// regime where the prepacked-weight cache pays — while attention
    /// fans back out to each session's own cache. Per session bit-exact
    /// with [`FlexiRuntime::decode_step`] (the walker requires a
    /// batch-invariant hook). Returns each session's `[vocab]` logits in
    /// order, plus the level the fused step executed at.
    pub fn decode_step_batch(
        &self,
        sessions: &mut [&mut DecodeSession],
        tokens: &[f32],
    ) -> Result<(Vec<Tensor>, usize)> {
        let level = self.level();
        let mut hook = self.hook(self.plan_at(level))?;
        let before: usize = sessions.iter().map(|s| s.state.kv_bytes()).sum();
        let _span = tel::span_full(
            "decode_step",
            tel::Cat::Phase,
            0,
            [tokens.len() as u64, sessions.len() as u64, 0, 0],
        );
        let mut states: Vec<&mut DecodeState> = sessions.iter_mut().map(|s| &mut s.state).collect();
        let y = flexiq_nn::decode::step_batch(&self.graph, &mut states, tokens, &mut hook)?;
        let mut rows = Vec::with_capacity(sessions.len());
        for i in 0..sessions.len() {
            rows.push(y.index_axis0(i).map_err(NnError::from)?);
        }
        let after: usize = sessions.iter().map(|s| s.state.kv_bytes()).sum();
        tel::count(tel::Counter::DecodeSteps, 1);
        tel::count(tel::Counter::DecodeTokens, tokens.len() as u64);
        tel::count(
            tel::Counter::KvCacheBytes,
            after.saturating_sub(before) as u64,
        );
        Ok((rows, level))
    }

    /// Top-1 agreement with a teacher-labelled dataset at the active
    /// ratio, in percent.
    pub fn accuracy(&self, data: &Dataset) -> Result<f64> {
        let plan = self.current_plan();
        let mut hook = self.hook(plan)?;
        flexiq_nn::data::accuracy(&self.graph, &mut hook, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{optimize_layout, remap_schedule};
    use crate::score::GroupScores;
    use crate::selection::{default_exclusions, SelectionContext, Strategy};
    use flexiq_nn::calibrate::calibrate_default;
    use flexiq_nn::data::{gen_image_inputs, teacher_dataset};
    use flexiq_nn::zoo::{ModelId, Scale};
    use flexiq_quant::GroupSpec;

    fn runtime() -> (FlexiRuntime, Dataset) {
        let id = ModelId::RNet20;
        let graph = id.build(Scale::Test).unwrap();
        let inputs = gen_image_inputs(6, &id.input_dims(Scale::Test), 241);
        let calib = calibrate_default(&graph, &inputs).unwrap();
        let model = QuantizedModel::prepare(&graph, &calib, GroupSpec::new(4)).unwrap();
        let scores = GroupScores::compute(&model);
        let excl = default_exclusions(&graph);
        let ctx = SelectionContext::build(&graph, &model, &scores, &excl, true).unwrap();
        let schedule = RatioSchedule::build(
            &ctx,
            &model,
            None,
            &RatioSchedule::paper_ratios(),
            &Strategy::Greedy,
            42,
        )
        .unwrap();
        let layout = optimize_layout(&graph, &model, &schedule).unwrap();
        let calib2 = calibrate_default(&layout.graph, &inputs).unwrap();
        let model2 = QuantizedModel::prepare(&layout.graph, &calib2, GroupSpec::new(4)).unwrap();
        let schedule2 = remap_schedule(&schedule, &layout, &model2).unwrap();
        let data = teacher_dataset(
            &graph,
            gen_image_inputs(8, &id.input_dims(Scale::Test), 242),
        )
        .unwrap();
        let rt = FlexiRuntime::new(layout.graph, model2, schedule2, Default::default()).unwrap();
        (rt, data)
    }

    #[test]
    fn starts_at_int8_and_switches_levels() {
        let (rt, _) = runtime();
        assert_eq!(rt.level(), LEVEL_INT8);
        assert_eq!(rt.current_ratio(), 0.0);
        rt.set_level(2).unwrap();
        assert_eq!(rt.current_ratio(), 0.75);
        rt.set_ratio(0.4).unwrap();
        assert_eq!(rt.current_ratio(), 0.5);
        rt.set_ratio(0.0).unwrap();
        assert_eq!(rt.level(), LEVEL_INT8);
        assert!(rt.set_level(9).is_err());
    }

    #[test]
    fn boundaries_are_monotone_across_levels() {
        let (rt, _) = runtime();
        for l in 0..rt.num_levels() - 1 {
            let a = rt.layer_boundaries(l).unwrap();
            let b = rt.layer_boundaries(l + 1).unwrap();
            for (x, y) in a.iter().zip(b.iter()) {
                assert!(x <= y, "boundaries shrank across levels");
            }
        }
    }

    #[test]
    fn accuracy_degrades_gracefully_with_ratio() {
        let (rt, data) = runtime();
        let mut accs = Vec::new();
        rt.set_ratio(0.0).unwrap();
        accs.push(rt.accuracy(&data).unwrap());
        for l in 0..rt.num_levels() {
            rt.set_level(l).unwrap();
            accs.push(rt.accuracy(&data).unwrap());
        }
        // INT8 should be near-perfect agreement on the tiny model.
        assert!(accs[0] >= 70.0, "INT8 accuracy {} too low", accs[0]);
        // No configuration should fall below random guessing by much.
        for (i, &a) in accs.iter().enumerate() {
            assert!(a >= 0.0 && a <= 100.0, "acc[{i}]={a}");
        }
    }

    #[test]
    fn infer_batch_is_bit_exact_with_per_sample_infer() {
        let (rt, data) = runtime();
        let inputs = &data.inputs[..5];
        let mut levels = vec![LEVEL_INT8];
        levels.extend(0..rt.num_levels());
        for level in levels {
            rt.set_level(level).unwrap();
            let (ys, ran_at) = rt.infer_batch_traced(inputs).unwrap();
            assert_eq!(ran_at, level);
            assert_eq!(ys.len(), inputs.len());
            for (i, x) in inputs.iter().enumerate() {
                let yi = rt.infer(x).unwrap();
                assert_eq!(ys[i].dims(), yi.dims());
                for (a, b) in ys[i].data().iter().zip(yi.data().iter()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "level {level} sample {i}");
                }
            }
        }
    }

    #[test]
    fn infer_batch_handles_empty_and_mismatched_batches() {
        let (rt, data) = runtime();
        let (ys, level) = rt.infer_batch_traced(&[]).unwrap();
        assert!(ys.is_empty());
        assert_eq!(level, rt.level());
        let bad = [data.inputs[0].clone(), Tensor::zeros([1, 2, 2])];
        assert!(rt.infer_batch(&bad).is_err());
    }

    #[test]
    fn pinned_pool_keeps_inference_bit_exact() {
        // The caller pins the pool with an ambient scope; the runtime
        // itself holds none.
        use flexiq_parallel::{with_pool, ThreadPool};
        let (rt, data) = runtime();
        let inputs = &data.inputs[..4];
        let (one, three) = (ThreadPool::new(1), ThreadPool::new(3));
        let mut levels = vec![LEVEL_INT8];
        levels.extend(0..rt.num_levels());
        for level in levels {
            rt.set_level(level).unwrap();
            let serial = with_pool(&one, || rt.infer_batch(inputs)).unwrap();
            let parallel = with_pool(&three, || rt.infer_batch(inputs)).unwrap();
            for (i, (a, b)) in serial.iter().zip(parallel.iter()).enumerate() {
                for (x, y) in a.data().iter().zip(b.data().iter()) {
                    assert_eq!(x.to_bits(), y.to_bits(), "level {level} sample {i}");
                }
            }
        }
    }

    #[test]
    fn prewarmed_int_runtime_matches_uncached_execution_at_every_level() {
        use flexiq_nn::qexec::run_quantized;
        let (rt, data) = runtime();
        rt.prewarm_levels().unwrap();
        let x = &data.inputs[0];
        let mut levels = vec![LEVEL_INT8];
        levels.extend(0..rt.num_levels());
        for level in levels {
            rt.set_level(level).unwrap();
            let y = rt.infer(x).unwrap();
            // Oracle: the free function runs the same plan without any
            // cache (per-call lowering + packing).
            let base = run_quantized(
                rt.graph(),
                rt.model(),
                &rt.current_plan(),
                QuantExecOptions::default(),
                x,
            )
            .unwrap();
            for (a, b) in base.data().iter().zip(y.data().iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "level {level} diverged");
            }
        }
        // Weight-mutation hook: invalidation empties the cache and the
        // next pass transparently rebuilds.
        assert!(rt.pack_cache().resident_bytes() > 0);
        rt.invalidate_pack_cache();
        assert_eq!(rt.pack_cache().resident_bytes(), 0);
        let y = rt.infer(x).unwrap();
        assert!(y.data().iter().all(|v| v.is_finite()));
        assert!(rt.pack_cache().resident_bytes() > 0);
    }

    #[test]
    fn decode_session_reproduces_full_context_logits() {
        use crate::pipeline::{prepare, FlexiQConfig};
        use flexiq_nn::data::{gen_token_stream, lm_sequences};
        use flexiq_nn::kv::KvSpec;
        use flexiq_nn::zoo::TinyLmCfg;
        let graph = ModelId::TinyLm.build(Scale::Test).unwrap();
        let cfg = TinyLmCfg::at(Scale::Test);
        let seqs = lm_sequences(
            &gen_token_stream(cfg.vocab, 8 * cfg.context, 993),
            cfg.context,
        );
        let prepared =
            prepare(&graph, &seqs[..4], &FlexiQConfig::new(4, Strategy::Greedy)).unwrap();
        let base = prepared.runtime;
        for spec in [KvSpec::f32(), KvSpec::mixed(2, 0.5)] {
            let rt = FlexiRuntime::new(
                base.graph().clone(),
                base.model().clone(),
                base.schedule().clone(),
                Default::default(),
            )
            .unwrap()
            .with_kv_spec(spec);
            assert_eq!(*rt.kv_spec(), spec);
            rt.set_level(0).unwrap();
            let full_seq = &seqs[5];
            let prompt = full_seq.slice_axis0(3).unwrap();
            let (mut session, first, level) = rt.decode_start(&prompt).unwrap();
            assert_eq!(level, 0);
            assert_eq!(session.prompt_len(), 3);
            assert_eq!(session.pos(), 3);
            assert_eq!(session.generated(), 0);
            // Prefill logits == full forward's last row at the same level.
            let oracle = rt.infer(&prompt).unwrap();
            let vocab = oracle.dims()[1];
            for d in 0..vocab {
                assert_eq!(
                    first.data()[d].to_bits(),
                    oracle.data()[2 * vocab + d].to_bits()
                );
            }
            // Each step == the next prefix's full forward, bit for bit.
            for t in 3..cfg.context {
                let tok = full_seq.data()[t];
                let (row, _) = rt.decode_step(&mut session, tok).unwrap();
                let prefix = full_seq.slice_axis0(t + 1).unwrap();
                let full = rt.infer(&prefix).unwrap();
                for d in 0..vocab {
                    assert_eq!(
                        row.data()[d].to_bits(),
                        full.data()[t * vocab + d].to_bits(),
                        "spec {spec:?} token {t} logit {d}"
                    );
                }
            }
            assert_eq!(session.generated(), cfg.context - 3);
            assert!(session.kv_bytes() > 0);
            // The session is full: the next step must fail cleanly.
            assert!(rt.decode_step(&mut session, 0.0).is_err());
        }
    }

    #[test]
    fn fused_decode_step_batch_matches_per_session_steps() {
        use crate::pipeline::{prepare, FlexiQConfig};
        use flexiq_nn::data::{gen_token_stream, lm_sequences};
        use flexiq_nn::kv::KvSpec;
        use flexiq_nn::zoo::TinyLmCfg;
        let graph = ModelId::TinyLm.build(Scale::Test).unwrap();
        let cfg = TinyLmCfg::at(Scale::Test);
        let seqs = lm_sequences(
            &gen_token_stream(cfg.vocab, 8 * cfg.context, 994),
            cfg.context,
        );
        let prepared =
            prepare(&graph, &seqs[..4], &FlexiQConfig::new(4, Strategy::Greedy)).unwrap();
        let rt = FlexiRuntime::new(
            prepared.runtime.graph().clone(),
            prepared.runtime.model().clone(),
            prepared.runtime.schedule().clone(),
            Default::default(),
        )
        .unwrap()
        .with_kv_spec(KvSpec::mixed(2, 1.0));
        rt.set_level(1).unwrap();
        // Sessions admitted at different positions (continuous batching).
        let (mut a, _, _) = rt.decode_start(&seqs[5].slice_axis0(2).unwrap()).unwrap();
        let (mut b, _, _) = rt.decode_start(&seqs[6].slice_axis0(5).unwrap()).unwrap();
        let (mut a2, mut b2) = (
            rt.decode_start(&seqs[5].slice_axis0(2).unwrap()).unwrap().0,
            rt.decode_start(&seqs[6].slice_axis0(5).unwrap()).unwrap().0,
        );
        let (ra, _) = rt.decode_step(&mut a, 3.0).unwrap();
        let (rb, _) = rt.decode_step(&mut b, 7.0).unwrap();
        let mut refs: Vec<&mut DecodeSession> = vec![&mut a2, &mut b2];
        let (fused, level) = rt.decode_step_batch(&mut refs, &[3.0, 7.0]).unwrap();
        assert_eq!(level, 1);
        for (x, y) in fused[0].data().iter().zip(ra.data().iter()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        for (x, y) in fused[1].data().iter().zip(rb.data().iter()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert_eq!(a2.pos(), a.pos());
        assert_eq!(b2.pos(), b.pos());
    }

    #[test]
    fn inference_runs_at_every_level() {
        let (rt, data) = runtime();
        let x = &data.inputs[0];
        rt.set_ratio(0.0).unwrap();
        let y8 = rt.infer(x).unwrap();
        for l in 0..rt.num_levels() {
            rt.set_level(l).unwrap();
            let y = rt.infer(x).unwrap();
            assert_eq!(y.dims(), y8.dims());
            assert!(y.data().iter().all(|v| v.is_finite()));
        }
    }
}
