//! Graph execution.
//!
//! One walker serves every precision mode: the float path, calibration,
//! and the mixed-precision integer path all call [`run`] with a different
//! [`Compute`] hook. The hook intercepts exactly the quantizable
//! operations (convolutions and linears, including attention projections);
//! everything else — normalization, activations, attention cores, pooling
//! — executes in floating point, matching the paper's execution model
//! (§8.2: integer compute for conv/linear, 16-bit float for the rest).
//!
//! # Batched execution
//!
//! [`run_batch`] walks the same graph with **stacked** `[N, …]`
//! activations: quantizable layers go through the batched [`Compute`]
//! hooks ([`Compute::conv2d_batch`] / [`Compute::linear_batch`], with
//! per-sample fallbacks for hooks that do not override them), and every
//! other operator has a batch-aware forward. Per-sample outputs are
//! bit-exact with [`run`] — the batched kernels preserve each output
//! element's reduction order — which is what lets the serving stack batch
//! freely without perturbing the mixed-precision arithmetic.
//!
//! A stacked pass also parallelizes **within** a dispatch: per-sample
//! attention cores and window cores fan across the ambient
//! [`flexiq_parallel`] pool, and the kernels underneath (GEMM row bands,
//! conv channel groups) band their own disjoint output
//! ranges. No float reduction is reordered anywhere, so parallel output
//! is bit-exact with serial at every thread count.
//!
//! # Variable-length (padded) batches
//!
//! [`run_batch_masked`] walks a stacked batch whose samples are
//! right-padded to a common bucket length, carrying a
//! [`flexiq_tensor::SeqMask`] of per-sample valid prefixes. The mask
//! reaches every operator that could otherwise leak padding into valid
//! outputs: embeddings zero their pad rows without reading them,
//! attention cores run a masked softmax restricted to valid keys (pad
//! positions are *skipped*, never multiplied by a zero probability, so
//! the float arithmetic of valid rows is untouched), token pooling
//! averages each sample's valid prefix, and `AddParam` positional tables
//! apply their leading rows. Compute hooks receive the mask through
//! [`Compute::set_seq_mask`] so engines that inspect live batch values
//! (dynamic extraction) can exclude pad rows. Everything else is
//! per-token, which is what makes the invariant hold end to end: a
//! padded batch's valid region is **bit-exact** with running each
//! unpadded sample alone (pinned by `tests/varlen_equivalence.rs`).

use flexiq_tensor::{SeqMask, Tensor};

use crate::error::NnError;
use crate::graph::{Graph, LayerId, NodeId, Op};
use crate::ops::{act, pool, tokens, Attention, Conv2d, Linear};
use crate::Result;

/// Hook deciding how quantizable layers are computed.
pub trait Compute {
    /// Computes a convolution layer.
    fn conv2d(&mut self, layer: LayerId, conv: &Conv2d, x: &Tensor) -> Result<Tensor>;

    /// Computes a linear layer (standalone or attention projection).
    fn linear(&mut self, layer: LayerId, lin: &Linear, x: &Tensor) -> Result<Tensor>;

    /// Computes a convolution over a stacked batch `[N, C, H, W]`.
    ///
    /// The default runs the single-sample hook per slice; engines with a
    /// real batched kernel (the f32 reference, the quantized engines)
    /// override it.
    fn conv2d_batch(
        &mut self,
        layer: LayerId,
        conv: &Conv2d,
        x: &Tensor,
        n: usize,
    ) -> Result<Tensor> {
        map_samples(x, n, |xi| self.conv2d(layer, conv, xi))
    }

    /// Computes a linear layer over a stacked batch (`[N, C]` or
    /// `[N, T, C]`). Default: per-sample fallback.
    fn linear_batch(
        &mut self,
        layer: LayerId,
        lin: &Linear,
        x: &Tensor,
        n: usize,
    ) -> Result<Tensor> {
        map_samples(x, n, |xi| self.linear(layer, lin, xi))
    }

    /// Whether this hook's batched execution is bit-exact, per sample,
    /// with running each sample alone. True for almost every hook (the
    /// per-sample fallback trivially, the reference kernels by the
    /// banded-GEMM construction); the quantized engine returns false
    /// under *dynamic* extraction, whose rules derive from the live batch
    /// rather than per sample. Sample-iterating drivers
    /// ([`crate::data::forward_all`], [`run_stepwise`]) consult this
    /// before stacking, so batching never silently changes results.
    fn batch_invariant(&self) -> bool {
        true
    }

    /// Installs the sequence mask of the current padded batch (`None`
    /// between masked dispatches). [`run_batch_masked`] calls this around
    /// its walk; hooks whose arithmetic inspects **live** batch values —
    /// the quantized engine's dynamic extraction — use it to exclude pad
    /// rows from those statistics. The default ignores the mask, which is
    /// correct for every per-element hook.
    fn set_seq_mask(&mut self, _mask: Option<&SeqMask>) {}

    /// The K/V precision spec attention cores run under. The f32 default
    /// keeps attention on the uncached [`Attention::core`] path
    /// byte-for-byte; engines carrying a quantized spec make every
    /// full-context forward route through the *same* cache arithmetic
    /// the decode loop uses ([`crate::kv::core_kv`]), which is what
    /// makes "N decode steps == one full forward" an identity rather
    /// than a tolerance.
    fn kv_spec(&self) -> crate::kv::KvSpec {
        crate::kv::KvSpec::f32()
    }

    /// Installs the K/V precision spec. The default discards it, which
    /// is correct for hooks that never claim one in [`Compute::kv_spec`].
    fn set_kv_spec(&mut self, _spec: crate::kv::KvSpec) {}
}

/// Applies `f` to every sample slice of a stacked `[N, …]` tensor and
/// restacks the results — the generic per-sample fallback for operators
/// without a dedicated batched kernel.
pub fn map_samples(
    x: &Tensor,
    n: usize,
    mut f: impl FnMut(&Tensor) -> Result<Tensor>,
) -> Result<Tensor> {
    if n == 0 || x.dims().first() != Some(&n) {
        return Err(NnError::BadActivation {
            op: "batch",
            expected: format!("non-empty stacked activation [{n}, …]"),
            got: x.dims().to_vec(),
        });
    }
    let mut outs = Vec::with_capacity(n);
    for s in 0..n {
        outs.push(f(&x.index_axis0(s)?)?);
    }
    Ok(Tensor::stack(&outs)?)
}

/// Reference f32 compute: every layer runs at full precision.
#[derive(Debug, Clone, Copy, Default)]
pub struct F32Compute;

impl Compute for F32Compute {
    fn conv2d(&mut self, _layer: LayerId, conv: &Conv2d, x: &Tensor) -> Result<Tensor> {
        conv.forward(x)
    }

    fn linear(&mut self, _layer: LayerId, lin: &Linear, x: &Tensor) -> Result<Tensor> {
        lin.forward(x)
    }

    fn conv2d_batch(
        &mut self,
        _layer: LayerId,
        conv: &Conv2d,
        x: &Tensor,
        _n: usize,
    ) -> Result<Tensor> {
        conv.forward_batch(x)
    }

    fn linear_batch(
        &mut self,
        _layer: LayerId,
        lin: &Linear,
        x: &Tensor,
        _n: usize,
    ) -> Result<Tensor> {
        lin.forward_batch(x)
    }
}

/// Runs the graph on one input through the given compute hook.
pub fn run(graph: &Graph, input: &Tensor, compute: &mut dyn Compute) -> Result<Tensor> {
    let output = graph.output()?;
    let mut memo: Vec<Option<Tensor>> = vec![None; graph.nodes().len()];
    eval(graph, output, input, compute, &mut memo, None, None, false)?;
    memo[output]
        .take()
        .ok_or_else(|| NnError::Invalid("output was not computed".into()))
}

/// Runs the graph at full f32 precision.
pub fn run_f32(graph: &Graph, input: &Tensor) -> Result<Tensor> {
    run(graph, input, &mut F32Compute)
}

/// Runs the graph on a stacked `[N, …]` batch in **one** pass.
///
/// Quantizable layers execute through the batched [`Compute`] hooks, so
/// an engine quantizes activations and lowers weights once per layer per
/// batch rather than once per sample. The output keeps the leading batch
/// axis; slice it with [`Tensor::index_axis0`].
pub fn run_batch(graph: &Graph, input: &Tensor, compute: &mut dyn Compute) -> Result<Tensor> {
    run_batch_masked(graph, input, None, compute)
}

/// Runs a **padded** stacked `[N, T, …]` batch in one pass, carrying a
/// per-sample valid-length mask (see the module docs).
///
/// `mask = None` is exactly [`run_batch`]. With a mask, every sample's
/// valid region of the output is bit-exact with running that sample
/// unpadded through [`run`]; pad positions hold well-defined (zero or
/// per-token-computed) values that no valid position ever reads.
pub fn run_batch_masked(
    graph: &Graph,
    input: &Tensor,
    mask: Option<&SeqMask>,
    compute: &mut dyn Compute,
) -> Result<Tensor> {
    let n = batch_size(input)?;
    if let Some(m) = mask {
        if m.n() != n {
            return Err(NnError::Invalid(format!(
                "sequence mask covers {} samples, batch has {n}",
                m.n()
            )));
        }
    }
    let output = graph.output()?;
    let mut memo: Vec<Option<Tensor>> = vec![None; graph.nodes().len()];
    compute.set_seq_mask(mask);
    let walked = eval(
        graph,
        output,
        input,
        compute,
        &mut memo,
        Some(n),
        mask,
        false,
    );
    compute.set_seq_mask(None);
    walked?;
    memo[output]
        .take()
        .ok_or_else(|| NnError::Invalid("output was not computed".into()))
}

/// Runs a stacked batch at full f32 precision.
pub fn run_batch_f32(graph: &Graph, input: &Tensor) -> Result<Tensor> {
    run_batch(graph, input, &mut F32Compute)
}

/// Runs the graph and returns **every** node's output.
///
/// Nodes unreachable from the output stay `None`. Used by batch-norm
/// statistics calibration and by the per-layer error analyses (paper
/// Fig. 14, Table 6), which compare intermediate activations across
/// precision modes.
pub fn run_traced(
    graph: &Graph,
    input: &Tensor,
    compute: &mut dyn Compute,
) -> Result<Vec<Option<Tensor>>> {
    let output = graph.output()?;
    let mut memo: Vec<Option<Tensor>> = vec![None; graph.nodes().len()];
    eval(graph, output, input, compute, &mut memo, None, None, true)?;
    Ok(memo)
}

/// Batched [`run_traced`]: every node's stacked `[N, …]` output.
pub fn run_batch_traced(
    graph: &Graph,
    input: &Tensor,
    compute: &mut dyn Compute,
) -> Result<Vec<Option<Tensor>>> {
    let n = batch_size(input)?;
    let output = graph.output()?;
    let mut memo: Vec<Option<Tensor>> = vec![None; graph.nodes().len()];
    eval(
        graph,
        output,
        input,
        compute,
        &mut memo,
        Some(n),
        None,
        true,
    )?;
    Ok(memo)
}

fn batch_size(input: &Tensor) -> Result<usize> {
    match input.dims().first() {
        Some(&n) if n > 0 => Ok(n),
        _ => Err(NnError::BadActivation {
            op: "batch",
            expected: "non-empty stacked input [N, …]".into(),
            got: input.dims().to_vec(),
        }),
    }
}

#[allow(clippy::too_many_arguments)]
fn eval(
    graph: &Graph,
    id: NodeId,
    input: &Tensor,
    compute: &mut dyn Compute,
    memo: &mut [Option<Tensor>],
    batch: Option<usize>,
    mask: Option<&SeqMask>,
    retain_all: bool,
) -> Result<()> {
    if memo[id].is_some() {
        return Ok(());
    }
    // Remaining-consumer counts over the whole graph: once a node's last
    // consumer has resolved, its memoized activation can be **moved** out
    // instead of cloned. Only activations feeding several consumers (the
    // shared trunk of a residual block, say) pay for a clone; on a linear
    // chain nothing is copied. `retain_all` (tracing/calibration) keeps
    // every activation alive instead.
    let mut remaining = vec![0usize; graph.nodes().len()];
    for node in graph.nodes() {
        for &inp in &node.inputs {
            remaining[inp] += 1;
        }
    }
    // Iterative post-order traversal: deep residual chains would otherwise
    // exhaust the stack on large graphs.
    let mut stack: Vec<(NodeId, bool)> = vec![(id, false)];
    while let Some((nid, expanded)) = stack.pop() {
        if memo[nid].is_some() {
            continue;
        }
        let node = graph.node(nid)?;
        if !expanded {
            stack.push((nid, true));
            for &inp in &node.inputs {
                if memo[inp].is_none() {
                    stack.push((inp, false));
                }
            }
            continue;
        }
        let mut resolved = Vec::with_capacity(node.inputs.len());
        for (slot, &inp) in node.inputs.iter().enumerate() {
            if memo[inp].is_none() {
                return Err(NnError::Invalid(format!(
                    "input {slot} of node {nid} missing"
                )));
            }
            remaining[inp] = remaining[inp].saturating_sub(1);
            let value = if !retain_all && remaining[inp] == 0 && inp != id {
                memo[inp].take().expect("checked above")
            } else {
                memo[inp].clone().expect("checked above")
            };
            resolved.push(value);
        }
        // Graph-node span: one per node per pass, named after the op.
        let _span = flexiq_telemetry::span_full(
            node.op.name(),
            flexiq_telemetry::Cat::Node,
            nid as u32,
            [batch.unwrap_or(0) as u64, 0, 0, 0],
        );
        memo[nid] = Some(match batch {
            None => apply_node(node, &resolved, input, compute)?,
            Some(n) => apply_node_batch_masked(node, &resolved, input, n, mask, compute)?,
        });
    }
    Ok(())
}

/// Applies one node's operator to resolved input activations.
pub fn apply_node(
    node: &crate::graph::Node,
    inputs: &[Tensor],
    graph_input: &Tensor,
    compute: &mut dyn Compute,
) -> Result<Tensor> {
    let get = |slot: usize| -> Result<&Tensor> {
        inputs
            .get(slot)
            .ok_or_else(|| NnError::Invalid(format!("missing input {slot}")))
    };
    Ok(match &node.op {
        Op::Input => graph_input.clone(),
        Op::Conv2d(conv) => compute.conv2d(node.layers[0], conv, get(0)?)?,
        Op::Linear(lin) => compute.linear(node.layers[0], lin, get(0)?)?,
        Op::BatchNorm(bn) => bn.forward(get(0)?)?,
        Op::LayerNorm(ln) => ln.forward(get(0)?)?,
        Op::Relu => act::relu(get(0)?),
        Op::Gelu => act::gelu(get(0)?),
        Op::Add => get(0)?.add(get(1)?)?,
        Op::MaxPool { k, stride } => pool::max_pool2d(get(0)?, *k, *stride)?,
        Op::AvgPool { k, stride } => pool::avg_pool2d(get(0)?, *k, *stride)?,
        Op::GlobalAvgPool => pool::global_avg_pool(get(0)?)?,
        Op::ToTokens => tokens::to_tokens(get(0)?)?,
        Op::MeanTokens => tokens::mean_tokens(get(0)?)?,
        Op::PatchMerge { h, w } => tokens::patch_merge(get(0)?, *h, *w)?,
        Op::Attention(attn) => run_attention(attn, &node.layers_array()?, get(0)?, compute)?,
        Op::WindowAttention(wa) => {
            let x = get(0)?;
            let lids = node.layers_array()?;
            // Projections are per-token, so they commute with the window
            // partition: project once on the full grid, then run the
            // attention core per window.
            let q = compute.linear(lids[0], &wa.attn.q, x)?;
            let k = compute.linear(lids[1], &wa.attn.k, x)?;
            let v = compute.linear(lids[2], &wa.attn.v, x)?;
            let qw = wa.partition(&q)?;
            let kw = wa.partition(&k)?;
            let vw = wa.partition(&v)?;
            let mut outs = Vec::with_capacity(qw.len());
            for ((qi, ki), vi) in qw.iter().zip(kw.iter()).zip(vw.iter()) {
                outs.push(wa.attn.core(qi, ki, vi)?);
            }
            let merged = wa.merge(&outs)?;
            compute.linear(lids[3], &wa.attn.o, &merged)?
        }
        Op::Reorder(perm) => tokens::reorder_channels(get(0)?, perm)?,
        Op::AddParam(p) => add_param(get(0)?, p)?,
        Op::Embedding(emb) => emb.forward(get(0)?)?,
    })
}

/// `AddParam` with the positional-table prefix semantics documented on
/// [`Op::AddParam`]: a `[T, C]` activation may be shorter than its
/// `[P, C]` parameter (a variable-length sequence against a full-context
/// positional table), in which case the parameter's first `T` rows
/// apply. Every other shape difference — including an activation
/// *longer* than the table — still fails with the usual shape mismatch
/// from [`Tensor::add`].
fn add_param(x: &Tensor, p: &Tensor) -> Result<Tensor> {
    if x.dims() != p.dims()
        && x.dims().len() == 2
        && p.dims().len() == 2
        && x.dims()[1] == p.dims()[1]
        && x.dims()[0] < p.dims()[0]
    {
        return Ok(x.add(&p.slice_axis0(x.dims()[0])?)?);
    }
    Ok(x.add(p)?)
}

/// Batched [`add_param`]: broadcast over the batch axis, slicing the
/// parameter's leading rows when the stacked `[N, T, C]` activation is
/// shorter than the `[P, C]` parameter.
fn add_param_batch(x: &Tensor, p: &Tensor) -> Result<Tensor> {
    if x.dims().len() == 3
        && p.dims().len() == 2
        && &x.dims()[1..] != p.dims()
        && x.dims()[2] == p.dims()[1]
        && x.dims()[1] < p.dims()[0]
    {
        return Ok(x.add_bcast0(&p.slice_axis0(x.dims()[1])?)?);
    }
    Ok(x.add_bcast0(p)?)
}

/// Applies one node's operator to resolved **stacked** `[N, …]` input
/// activations (the batched counterpart of [`apply_node`]).
///
/// Quantizable operators route through the batched [`Compute`] hooks;
/// token-mixing cores (attention, window attention) run per sample, since
/// attention never mixes tokens across samples; everything else uses the
/// batch-aware op forwards.
pub fn apply_node_batch(
    node: &crate::graph::Node,
    inputs: &[Tensor],
    graph_input: &Tensor,
    n: usize,
    compute: &mut dyn Compute,
) -> Result<Tensor> {
    apply_node_batch_masked(node, inputs, graph_input, n, None, compute)
}

/// [`apply_node_batch`] with a per-sample valid-length mask for padded
/// variable-length batches.
///
/// The mask engages only on the operators where padding could leak:
/// embeddings, attention cores (masked softmax), token pooling, and
/// positional `AddParam` tables. It applies to an operator exactly when
/// the activation is token-shaped for it — `[N, bucket]` ids or
/// `[N, bucket, C]` tokens matching the mask — so CNN-side operators in
/// the same graph are untouched.
pub fn apply_node_batch_masked(
    node: &crate::graph::Node,
    inputs: &[Tensor],
    graph_input: &Tensor,
    n: usize,
    mask: Option<&SeqMask>,
    compute: &mut dyn Compute,
) -> Result<Tensor> {
    let get = |slot: usize| -> Result<&Tensor> {
        inputs
            .get(slot)
            .ok_or_else(|| NnError::Invalid(format!("missing input {slot}")))
    };
    // The mask engages only where the activation is token-shaped for the
    // operator at hand.
    let mask_for = |dims: &[usize]| -> Option<&SeqMask> {
        mask.filter(|m| dims.len() >= 2 && m.matches(dims[0], dims[1]))
    };
    Ok(match &node.op {
        Op::Input => graph_input.clone(),
        Op::Conv2d(conv) => compute.conv2d_batch(node.layers[0], conv, get(0)?, n)?,
        Op::Linear(lin) => compute.linear_batch(node.layers[0], lin, get(0)?, n)?,
        Op::BatchNorm(bn) => bn.forward_batch(get(0)?)?,
        Op::LayerNorm(ln) => ln.forward_batch(get(0)?)?,
        Op::Relu => act::relu(get(0)?),
        Op::Gelu => act::gelu(get(0)?),
        Op::Add => get(0)?.add(get(1)?)?,
        Op::MaxPool { k, stride } => pool::max_pool2d_batch(get(0)?, *k, *stride)?,
        Op::AvgPool { k, stride } => pool::avg_pool2d_batch(get(0)?, *k, *stride)?,
        Op::GlobalAvgPool => pool::global_avg_pool_batch(get(0)?)?,
        Op::ToTokens => tokens::to_tokens_batch(get(0)?)?,
        Op::MeanTokens => {
            let x = get(0)?;
            tokens::mean_tokens_batch_masked(x, mask_for(x.dims()))?
        }
        Op::PatchMerge { h, w } => {
            let x = get(0)?;
            // PatchMerge mixes tokens across positions with no mask
            // support: silently running it on a padded batch would leak
            // pad rows into valid outputs, so a matching mask is a hard
            // error, not a latent corruption.
            if mask_for(x.dims()).is_some() {
                return Err(NnError::Invalid(
                    "patch_merge is not mask-aware; cannot run it over a padded batch".into(),
                ));
            }
            tokens::patch_merge_batch(x, *h, *w)?
        }
        Op::Attention(attn) => {
            let lids = node.layers_array()?;
            let x = get(0)?;
            let q = compute.linear_batch(lids[0], &attn.q, x, n)?;
            let k = compute.linear_batch(lids[1], &attn.k, x, n)?;
            let v = compute.linear_batch(lids[2], &attn.v, x, n)?;
            let spec = compute.kv_spec();
            let core = if spec.is_f32() {
                attn.core_batch_masked(&q, &k, &v, mask_for(q.dims()))?
            } else {
                crate::kv::core_kv_batch_masked(attn, &spec, &q, &k, &v, mask_for(q.dims()))?
            };
            compute.linear_batch(lids[3], &attn.o, &core, n)?
        }
        Op::WindowAttention(wa) => {
            let x = get(0)?;
            let lids = node.layers_array()?;
            // Window attention mixes tokens across its (spatial) grid
            // with no mask support — same hard error as PatchMerge.
            if mask_for(x.dims()).is_some() {
                return Err(NnError::Invalid(
                    "window attention is not mask-aware; cannot run it over a padded batch".into(),
                ));
            }
            // Projections are per-token, so they run batched on the full
            // stack; the window cores run per sample, fanned across the
            // ambient pool (samples are independent, so parallel output
            // is bit-exact with the serial loop).
            let q = compute.linear_batch(lids[0], &wa.attn.q, x, n)?;
            let k = compute.linear_batch(lids[1], &wa.attn.k, x, n)?;
            let v = compute.linear_batch(lids[2], &wa.attn.v, x, n)?;
            let pool = flexiq_parallel::current();
            let merged = pool
                .map(n, |s| -> Result<Tensor> {
                    let (qs, ks, vs) = (q.index_axis0(s)?, k.index_axis0(s)?, v.index_axis0(s)?);
                    let qw = wa.partition(&qs)?;
                    let kw = wa.partition(&ks)?;
                    let vw = wa.partition(&vs)?;
                    let mut outs = Vec::with_capacity(qw.len());
                    for ((qi, ki), vi) in qw.iter().zip(kw.iter()).zip(vw.iter()) {
                        outs.push(wa.attn.core(qi, ki, vi)?);
                    }
                    wa.merge(&outs)
                })
                .into_iter()
                .collect::<Result<Vec<_>>>()?;
            let merged = Tensor::stack(&merged)?;
            compute.linear_batch(lids[3], &wa.attn.o, &merged, n)?
        }
        Op::Reorder(perm) => tokens::reorder_channels_batch(get(0)?, perm)?,
        Op::AddParam(p) => add_param_batch(get(0)?, p)?,
        Op::Embedding(emb) => {
            let ids = get(0)?;
            match mask_for(ids.dims()) {
                Some(m) => {
                    let mut s = 0usize;
                    map_samples(ids, n, |row| {
                        let y = emb.forward_masked(row, m.len_of(s));
                        s += 1;
                        y
                    })?
                }
                None => map_samples(ids, n, |ids| emb.forward(ids))?,
            }
        }
    })
}

/// Steps through the graph in node-index order (topological for graphs
/// built through the [`Graph`] builders), running several samples in
/// lockstep and letting `visit` mutate each node's operator **before**
/// it executes — with all upstream mutations already in effect.
///
/// This is what batch-norm statistics calibration needs: each BN sees
/// inputs produced by already-calibrated upstream BNs, so one pass
/// suffices even for very deep residual networks.
///
/// When all samples share one shape (the common case — calibration
/// sets are homogeneous) and the hook's batching is invariant
/// ([`Compute::batch_invariant`]), each node executes as **one**
/// stacked `[N, …]` pass instead of N per-sample calls; the visitor
/// still receives per-sample activations, sliced from the stack, whose
/// values are bit-exact with the per-sample walk.
pub fn run_stepwise(
    graph: &mut Graph,
    samples: &[Tensor],
    compute: &mut dyn Compute,
    mut visit: impl FnMut(&mut Op, &[Tensor]) -> Result<()>,
) -> Result<()> {
    if samples.is_empty() {
        return Ok(());
    }
    let same_shape = samples.windows(2).all(|w| w[0].dims() == w[1].dims());
    if !(same_shape && compute.batch_invariant()) {
        return run_stepwise_per_sample(graph, samples, compute, visit);
    }
    let n = samples.len();
    let stacked = Tensor::stack(samples)?;
    let n_nodes = graph.nodes().len();
    let mut memo: Vec<Option<Tensor>> = vec![None; n_nodes];
    for nid in 0..n_nodes {
        // Gather every sample's first-input activation for the visitor.
        let node_inputs = graph.node(nid)?.inputs.clone();
        let first_inputs: Vec<Tensor> = if node_inputs.is_empty() {
            Vec::new()
        } else {
            let stack = memo[node_inputs[0]].as_ref().ok_or_else(|| {
                NnError::Invalid(format!(
                    "node {nid} executed before its input {} (graph not in topological index order)",
                    node_inputs[0]
                ))
            })?;
            (0..n)
                .map(|s| Ok(stack.index_axis0(s)?))
                .collect::<Result<Vec<_>>>()?
        };
        visit(graph.op_mut(nid)?, &first_inputs)?;
        let node = graph.node(nid)?.clone();
        let resolved: Vec<Tensor> = node
            .inputs
            .iter()
            .map(|&i| {
                memo[i]
                    .clone()
                    .ok_or_else(|| NnError::Invalid(format!("missing memo {i}")))
            })
            .collect::<Result<Vec<_>>>()?;
        memo[nid] = Some(apply_node_batch(&node, &resolved, &stacked, n, compute)?);
    }
    Ok(())
}

/// Per-sample fallback of [`run_stepwise`] for heterogeneous sample
/// shapes or non-batch-invariant hooks.
fn run_stepwise_per_sample(
    graph: &mut Graph,
    samples: &[Tensor],
    compute: &mut dyn Compute,
    mut visit: impl FnMut(&mut Op, &[Tensor]) -> Result<()>,
) -> Result<()> {
    let n_nodes = graph.nodes().len();
    let mut memos: Vec<Vec<Option<Tensor>>> = vec![vec![None; n_nodes]; samples.len()];
    for nid in 0..n_nodes {
        let node_inputs = graph.node(nid)?.inputs.clone();
        let first_inputs: Vec<Tensor> = if node_inputs.is_empty() {
            Vec::new()
        } else {
            memos
                .iter()
                .map(|m| {
                    m[node_inputs[0]].clone().ok_or_else(|| {
                        NnError::Invalid(format!(
                            "node {nid} executed before its input {} (graph not in topological index order)",
                            node_inputs[0]
                        ))
                    })
                })
                .collect::<Result<Vec<_>>>()?
        };
        visit(graph.op_mut(nid)?, &first_inputs)?;
        let node = graph.node(nid)?.clone();
        for (s, sample) in samples.iter().enumerate() {
            let resolved: Vec<Tensor> = node
                .inputs
                .iter()
                .map(|&i| {
                    memos[s][i]
                        .clone()
                        .ok_or_else(|| NnError::Invalid(format!("missing memo {i}")))
                })
                .collect::<Result<Vec<_>>>()?;
            memos[s][nid] = Some(apply_node(&node, &resolved, sample, compute)?);
        }
    }
    Ok(())
}

fn run_attention(
    attn: &Attention,
    lids: &[LayerId; 4],
    x: &Tensor,
    compute: &mut dyn Compute,
) -> Result<Tensor> {
    let q = compute.linear(lids[0], &attn.q, x)?;
    let k = compute.linear(lids[1], &attn.k, x)?;
    let v = compute.linear(lids[2], &attn.v, x)?;
    let spec = compute.kv_spec();
    let core = if spec.is_f32() {
        attn.core(&q, &k, &v)?
    } else {
        crate::kv::core_kv(attn, &spec, &q, &k, &v)?
    };
    compute.linear(lids[3], &attn.o, &core)
}

impl crate::graph::Node {
    pub(crate) fn layers_array(&self) -> Result<[LayerId; 4]> {
        if self.layers.len() != 4 {
            return Err(NnError::Invalid(format!(
                "attention node has {} registered layers, expected 4",
                self.layers.len()
            )));
        }
        Ok([
            self.layers[0],
            self.layers[1],
            self.layers[2],
            self.layers[3],
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{BatchNorm2d, Conv2d};
    use flexiq_tensor::rng::seeded;

    #[test]
    fn residual_graph_executes() {
        let mut g = Graph::new("resblock");
        let x = g.input();
        let w = Tensor::eye(2).reshape([2, 2, 1, 1]).unwrap();
        let c = g.conv2d(x, Conv2d::new(w, None, 1, 0, 1).unwrap()).unwrap();
        let b = g.batch_norm(c, BatchNorm2d::identity(2)).unwrap();
        let s = g.add(b, x).unwrap();
        let r = g.relu(s).unwrap();
        g.set_output(r).unwrap();
        let input = Tensor::from_vec([2, 1, 1], vec![1.0, -3.0]).unwrap();
        let y = run_f32(&g, &input).unwrap();
        // Identity conv + identity bn: y = relu(2x).
        assert!((y.data()[0] - 2.0).abs() < 1e-5);
        assert_eq!(y.data()[1], 0.0);
    }

    #[test]
    fn diamond_graph_memoizes_shared_input() {
        // Two branches off the same node, merged by Add: the shared node
        // must evaluate once (checked via a counting hook).
        struct Counting {
            calls: usize,
        }
        impl Compute for Counting {
            fn conv2d(&mut self, _l: LayerId, c: &Conv2d, x: &Tensor) -> Result<Tensor> {
                self.calls += 1;
                c.forward(x)
            }
            fn linear(&mut self, _l: LayerId, lin: &Linear, x: &Tensor) -> Result<Tensor> {
                lin.forward(x)
            }
        }
        let mut g = Graph::new("diamond");
        let x = g.input();
        let w = Tensor::eye(2).reshape([2, 2, 1, 1]).unwrap();
        let shared = g.conv2d(x, Conv2d::new(w, None, 1, 0, 1).unwrap()).unwrap();
        let a = g.relu(shared).unwrap();
        let b = g.gelu(shared).unwrap();
        let s = g.add(a, b).unwrap();
        g.set_output(s).unwrap();
        let mut hook = Counting { calls: 0 };
        let input = Tensor::ones([2, 2, 2]);
        run(&g, &input, &mut hook).unwrap();
        assert_eq!(hook.calls, 1);
    }

    #[test]
    fn attention_node_routes_projections_through_hook() {
        struct Names(Vec<LayerId>);
        impl Compute for Names {
            fn conv2d(&mut self, _l: LayerId, c: &Conv2d, x: &Tensor) -> Result<Tensor> {
                c.forward(x)
            }
            fn linear(&mut self, l: LayerId, lin: &Linear, x: &Tensor) -> Result<Tensor> {
                self.0.push(l);
                lin.forward(x)
            }
        }
        let mut rng = seeded(111);
        let mk = |rng: &mut _| Linear::new(Tensor::randn([4, 4], 0.0, 0.3, rng), None).unwrap();
        let attn = Attention::new(
            mk(&mut rng),
            mk(&mut rng),
            mk(&mut rng),
            mk(&mut rng),
            2,
            false,
        )
        .unwrap();
        let mut g = Graph::new("attn");
        let x = g.input();
        let a = g.attention(x, attn).unwrap();
        g.set_output(a).unwrap();
        let mut hook = Names(vec![]);
        let input = Tensor::randn([3, 4], 0.0, 1.0, &mut rng);
        run(&g, &input, &mut hook).unwrap();
        assert_eq!(hook.0, vec![0, 1, 2, 3]);
    }

    #[test]
    fn window_attention_matches_manual_path() {
        let mut rng = seeded(112);
        let mk = |rng: &mut _| Linear::new(Tensor::randn([4, 4], 0.0, 0.3, rng), None).unwrap();
        let attn = Attention::new(
            mk(&mut rng),
            mk(&mut rng),
            mk(&mut rng),
            mk(&mut rng),
            2,
            false,
        )
        .unwrap();
        let wa = crate::ops::WindowAttention::new(attn.clone(), 4, 4, 2, false).unwrap();
        let mut g = Graph::new("swinblock");
        let x = g.input();
        let a = g.window_attention(x, wa.clone()).unwrap();
        g.set_output(a).unwrap();
        let input = Tensor::randn([16, 4], 0.0, 1.0, &mut rng);
        let got = run_f32(&g, &input).unwrap();

        // Manual: project, partition, core per window, merge, output proj.
        let q = attn.q.forward(&input).unwrap();
        let k = attn.k.forward(&input).unwrap();
        let v = attn.v.forward(&input).unwrap();
        let (qw, kw, vw) = (
            wa.partition(&q).unwrap(),
            wa.partition(&k).unwrap(),
            wa.partition(&v).unwrap(),
        );
        let outs: Vec<Tensor> = qw
            .iter()
            .zip(kw.iter())
            .zip(vw.iter())
            .map(|((qi, ki), vi)| attn.core(qi, ki, vi).unwrap())
            .collect();
        let expect = attn.o.forward(&wa.merge(&outs).unwrap()).unwrap();
        for (a, b) in got.data().iter().zip(expect.data().iter()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn missing_output_errors() {
        let mut g = Graph::new("none");
        let _ = g.input();
        assert!(run_f32(&g, &Tensor::zeros([1])).is_err());
    }

    #[test]
    fn run_batch_matches_per_sample_run_on_residual_graph() {
        let mut rng = seeded(113);
        let mut g = Graph::new("resblock");
        let x = g.input();
        let w = Tensor::randn([2, 2, 3, 3], 0.0, 0.3, &mut rng);
        let c = g.conv2d(x, Conv2d::new(w, None, 1, 1, 1).unwrap()).unwrap();
        let b = g.batch_norm(c, BatchNorm2d::identity(2)).unwrap();
        let s = g.add(b, x).unwrap();
        let r = g.relu(s).unwrap();
        let p = g.add_node(Op::GlobalAvgPool, vec![r]).unwrap();
        g.set_output(p).unwrap();
        let samples: Vec<Tensor> = (0..4)
            .map(|_| Tensor::randn([2, 5, 5], 0.0, 1.0, &mut rng))
            .collect();
        let yb = run_batch_f32(&g, &Tensor::stack(&samples).unwrap()).unwrap();
        assert_eq!(yb.dims(), &[4, 2]);
        for (i, s) in samples.iter().enumerate() {
            let yi = run_f32(&g, s).unwrap();
            for (a, b) in yb.index_axis0(i).unwrap().data().iter().zip(yi.data()) {
                assert_eq!(a.to_bits(), b.to_bits(), "sample {i} diverged");
            }
        }
    }

    #[test]
    fn run_batch_matches_per_sample_run_on_window_attention() {
        let mut rng = seeded(114);
        let mk = |rng: &mut _| Linear::new(Tensor::randn([4, 4], 0.0, 0.3, rng), None).unwrap();
        let attn = Attention::new(
            mk(&mut rng),
            mk(&mut rng),
            mk(&mut rng),
            mk(&mut rng),
            2,
            false,
        )
        .unwrap();
        let wa = crate::ops::WindowAttention::new(attn, 4, 4, 2, true).unwrap();
        let mut g = Graph::new("swinblock");
        let x = g.input();
        let a = g.window_attention(x, wa).unwrap();
        g.set_output(a).unwrap();
        let samples: Vec<Tensor> = (0..3)
            .map(|_| Tensor::randn([16, 4], 0.0, 1.0, &mut rng))
            .collect();
        let yb = run_batch_f32(&g, &Tensor::stack(&samples).unwrap()).unwrap();
        for (i, s) in samples.iter().enumerate() {
            let yi = run_f32(&g, s).unwrap();
            for (a, b) in yb.index_axis0(i).unwrap().data().iter().zip(yi.data()) {
                assert_eq!(a.to_bits(), b.to_bits(), "sample {i} diverged");
            }
        }
    }

    #[test]
    fn batch_hooks_fall_back_per_sample_by_default() {
        // A hook that only implements the single-sample methods still
        // serves batched runs through the default fallback.
        struct Minimal {
            calls: usize,
        }
        impl Compute for Minimal {
            fn conv2d(&mut self, _l: LayerId, c: &Conv2d, x: &Tensor) -> Result<Tensor> {
                self.calls += 1;
                c.forward(x)
            }
            fn linear(&mut self, _l: LayerId, lin: &Linear, x: &Tensor) -> Result<Tensor> {
                lin.forward(x)
            }
        }
        let mut g = Graph::new("fallback");
        let x = g.input();
        let w = Tensor::eye(2).reshape([2, 2, 1, 1]).unwrap();
        let c = g.conv2d(x, Conv2d::new(w, None, 1, 0, 1).unwrap()).unwrap();
        g.set_output(c).unwrap();
        let stacked = Tensor::ones([3, 2, 2, 2]);
        let mut hook = Minimal { calls: 0 };
        let y = run_batch(&g, &stacked, &mut hook).unwrap();
        assert_eq!(y.dims(), &[3, 2, 2, 2]);
        assert_eq!(hook.calls, 3, "fallback must run once per sample");
    }

    #[test]
    fn run_batch_rejects_empty_batch() {
        let mut g = Graph::new("empty");
        let x = g.input();
        let r = g.relu(x).unwrap();
        g.set_output(r).unwrap();
        assert!(run_batch_f32(&g, &Tensor::zeros([0, 2])).is_err());
        assert!(run_batch_f32(&g, &Tensor::scalar(1.0)).is_err());
    }
}
