//! Graph execution: one graph walk, one op-dispatch table.
//!
//! One walker serves every precision mode and every driver: the float
//! path, calibration, the mixed-precision integer path, incremental
//! decode ([`crate::decode`]) and the training forward
//! (`flexiq_train::diff::forward`) all traverse the graph with [`walk`]
//! and apply operators through [`apply_node`], differing only in what
//! they intercept. Inference passes a [`Compute`] hook, which intercepts
//! exactly the quantizable operations (convolutions and linears,
//! including attention projections); decode answers the two
//! position-dependent operators from its caches; training fake-quantizes
//! the quantizable operators and keeps the walk's activations as its
//! tape. Everything else — normalization, activations, attention cores,
//! pooling — executes in floating point in the table's one arm per
//! operator, matching the paper's execution model (§8.2: integer compute
//! for conv/linear, 16-bit float for the rest), so the drivers cannot
//! disagree about what an operator does.
//!
//! # Batched execution
//!
//! The batch size is data, not a second table: [`apply_node`] applies an
//! operator to one sample (`n = None`) or to **stacked** `[N, …]`
//! activations (`n = Some(N)`), and each operator's one arithmetic body
//! serves both (the single sample is the batch of one — see
//! [`crate::ops`]). [`run_batch`] is [`run`] with `n` set: quantizable
//! layers go through the batched [`Compute`] hooks
//! ([`Compute::conv2d_batch`] / [`Compute::linear_batch`], with
//! per-sample fallbacks for hooks that do not override them). Per-sample
//! outputs are bit-exact with [`run`] — the batched kernels preserve each
//! output element's reduction order — which is what lets the serving
//! stack batch freely without perturbing the mixed-precision arithmetic.
//!
//! The walk, the operators and the attention cores run on the calling
//! thread. The one place a pass fans out is inside the GEMM kernels,
//! which split large problems into output row bands on the ambient pool
//! (`flexiq_tensor::gemm`). No float reduction is reordered there, so
//! output is bit-exact with serial at every thread count.
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
use crate::graph::{Graph, LayerId, Node, NodeId, Op};
use crate::ops::pool::{self, Window};
use crate::ops::{act, split_stack, tokens, Conv2d, Linear};
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
    /// keeps attention on the uncached [`crate::ops::Attention::core`] path
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
    take_output(graph, eval(graph, input, compute, None, None, false)?)
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
    let n = split_stack("batch", input, true)?.0;
    if let Some(m) = mask {
        if m.n() != n {
            return Err(NnError::Invalid(format!(
                "sequence mask covers {} samples, batch has {n}",
                m.n()
            )));
        }
    }
    compute.set_seq_mask(mask);
    let walked = eval(graph, input, compute, Some(n), mask, false);
    compute.set_seq_mask(None);
    take_output(graph, walked?)
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
    eval(graph, input, compute, None, None, true)
}

/// Batched [`run_traced`]: every node's stacked `[N, …]` output.
pub fn run_batch_traced(
    graph: &Graph,
    input: &Tensor,
    compute: &mut dyn Compute,
) -> Result<Vec<Option<Tensor>>> {
    let n = split_stack("batch", input, true)?.0;
    eval(graph, input, compute, Some(n), None, true)
}

/// Moves the output node's activation out of a finished walk.
fn take_output(graph: &Graph, mut memo: Vec<Option<Tensor>>) -> Result<Tensor> {
    memo[graph.output()?]
        .take()
        .ok_or_else(|| NnError::Invalid("output was not computed".into()))
}

/// The inference walk: [`walk`] with every node sent to [`apply_node`]
/// under a graph-node telemetry span.
fn eval(
    graph: &Graph,
    input: &Tensor,
    compute: &mut dyn Compute,
    n: Option<usize>,
    mask: Option<&SeqMask>,
    retain_all: bool,
) -> Result<Vec<Option<Tensor>>> {
    walk(graph, graph.output()?, retain_all, |nid, node, resolved| {
        // Graph-node span: one per node per pass, named after the op.
        let _span = flexiq_telemetry::span_full(
            node.op.name(),
            flexiq_telemetry::Cat::Node,
            nid as u32,
            [n.unwrap_or(0) as u64, 0, 0, 0],
        );
        apply_node(node, resolved, input, n, mask, compute)
    })
}

/// The one graph walk: demand-driven from `output`, calling `visit` once
/// per reachable node in a topological (post-)order with the node's
/// resolved input activations, and returning every activation still
/// alive — the output's always, all of them under `retain_all`.
///
/// Demand-driven rather than an index-order sweep because the layout
/// optimizer appends reorder nodes out of index order; iterative because
/// deep residual chains would otherwise exhaust the stack on large
/// graphs. A node reading a nonexistent input, or a cycle (reachable
/// through [`Graph::reroute_input`]), is a typed error, not a hang.
pub fn walk(
    graph: &Graph,
    output: NodeId,
    retain_all: bool,
    mut visit: impl FnMut(NodeId, &Node, &[Tensor]) -> Result<Tensor>,
) -> Result<Vec<Option<Tensor>>> {
    let n_nodes = graph.nodes().len();
    let mut memo: Vec<Option<Tensor>> = vec![None; n_nodes];
    // Remaining-consumer counts over the whole graph: once a node's last
    // consumer has resolved, its memoized activation can be **moved** out
    // instead of cloned. Only activations feeding several consumers (the
    // shared trunk of a residual block, say) pay for a clone; on a linear
    // chain nothing is copied. `retain_all` (tracing/calibration/training)
    // keeps every activation alive instead.
    let mut remaining = vec![0usize; n_nodes];
    for &inp in graph.nodes().iter().flat_map(|node| &node.inputs) {
        if let Some(count) = remaining.get_mut(inp) {
            *count += 1;
        }
    }
    // A node is `expanding` from the moment its inputs are queued until
    // it is computed; meeting it again unexpanded in that window means
    // one of its own inputs depends on it.
    let mut expanding = vec![false; n_nodes];
    let mut stack: Vec<(NodeId, bool)> = vec![(output, false)];
    while let Some((nid, expanded)) = stack.pop() {
        let node = graph.node(nid)?;
        if memo[nid].is_some() {
            continue;
        }
        if !expanded {
            if std::mem::replace(&mut expanding[nid], true) {
                return Err(NnError::Invalid(format!("graph cycle through node {nid}")));
            }
            stack.push((nid, true));
            for &inp in &node.inputs {
                if !memo.get(inp).is_some_and(Option::is_some) {
                    stack.push((inp, false));
                }
            }
            continue;
        }
        let mut resolved = Vec::with_capacity(node.inputs.len());
        for (slot, &inp) in node.inputs.iter().enumerate() {
            remaining[inp] = remaining[inp].saturating_sub(1);
            let value = if !retain_all && remaining[inp] == 0 && inp != output {
                memo[inp].take()
            } else {
                memo[inp].clone()
            };
            resolved.push(
                value.ok_or_else(|| {
                    NnError::Invalid(format!("input {slot} of node {nid} missing"))
                })?,
            );
        }
        memo[nid] = Some(visit(nid, node, &resolved)?);
    }
    Ok(memo)
}

/// Projects through the hook: the single-sample method for one sample,
/// the batched one for a stack.
fn project(
    compute: &mut dyn Compute,
    n: Option<usize>,
    layer: LayerId,
    lin: &Linear,
    x: &Tensor,
) -> Result<Tensor> {
    match n {
        None => compute.linear(layer, lin, x),
        Some(n) => compute.linear_batch(layer, lin, x, n),
    }
}

/// The one op-dispatch table: applies one node's operator to its resolved
/// input activations — single samples when `n` is `None`, **stacked**
/// `[N, …]` activations when it is `Some(N)`.
///
/// The two hook operators pick the single or batched [`Compute`] method;
/// every other operator has one body, told only whether a leading batch
/// axis is present. Token-mixing cores (attention, window attention) run
/// per sample inside that body, since attention never mixes tokens across
/// samples.
///
/// `mask` (stacked passes only) is the per-sample valid-length mask of a
/// padded variable-length batch (module docs). It applies to an operator
/// exactly when the activation is token-shaped for it — `[N, bucket]`
/// ids or `[N, bucket, C]` tokens matching the mask — so CNN-side
/// operators in the same graph are untouched.
pub fn apply_node(
    node: &Node,
    inputs: &[Tensor],
    graph_input: &Tensor,
    n: Option<usize>,
    mask: Option<&SeqMask>,
    compute: &mut dyn Compute,
) -> Result<Tensor> {
    let get = |slot: usize| -> Result<&Tensor> {
        inputs
            .get(slot)
            .ok_or_else(|| NnError::Invalid(format!("missing input {slot}")))
    };
    let stacked = n.is_some();
    // The mask engages only where the activation is token-shaped for the
    // operator at hand.
    let mask_for = |dims: &[usize]| -> Option<&SeqMask> {
        mask.filter(|m| dims.len() >= 2 && m.matches(dims[0], dims[1]))
    };
    // Operators that mix tokens across positions with no mask support:
    // silently running one on a padded batch would leak pad rows into
    // valid outputs, so a matching mask is a hard error, not a latent
    // corruption.
    let unmasked = |x: &Tensor| match mask_for(x.dims()) {
        Some(_) => Err(NnError::Invalid(format!(
            "{} is not mask-aware; cannot run it over a padded batch",
            node.op.name()
        ))),
        None => Ok(()),
    };
    Ok(match &node.op {
        Op::Input => graph_input.clone(),
        Op::Conv2d(conv) => match n {
            None => compute.conv2d(node.layers[0], conv, get(0)?)?,
            Some(n) => compute.conv2d_batch(node.layers[0], conv, get(0)?, n)?,
        },
        Op::Linear(lin) => project(compute, n, node.layers[0], lin, get(0)?)?,
        Op::BatchNorm(bn) => bn.forward_n(get(0)?, stacked)?,
        Op::LayerNorm(ln) => ln.forward_n(get(0)?, stacked)?,
        Op::Relu => act::relu(get(0)?),
        Op::Gelu => act::gelu(get(0)?),
        Op::Add => get(0)?.add(get(1)?)?,
        Op::MaxPool { k, stride } => pool::window_pool(Window::Max, get(0)?, *k, *stride, stacked)?,
        Op::AvgPool { k, stride } => pool::window_pool(Window::Avg, get(0)?, *k, *stride, stacked)?,
        Op::GlobalAvgPool => pool::global_pool(get(0)?, stacked)?,
        Op::ToTokens => tokens::to_tokens_n(get(0)?, stacked)?,
        Op::MeanTokens => tokens::mean_tokens_n(get(0)?, stacked, mask_for(get(0)?.dims()))?,
        Op::PatchMerge { h, w } => {
            unmasked(get(0)?)?;
            tokens::patch_merge_n(get(0)?, *h, *w, stacked)?
        }
        Op::Attention(attn) => {
            let lids = node.layers_array()?;
            let q = project(compute, n, lids[0], &attn.q, get(0)?)?;
            let k = project(compute, n, lids[1], &attn.k, get(0)?)?;
            let v = project(compute, n, lids[2], &attn.v, get(0)?)?;
            let spec = compute.kv_spec();
            let mask = mask_for(q.dims());
            let core = if spec.is_f32() {
                attn.core_n(&q, &k, &v, stacked, mask)?
            } else {
                crate::kv::core_kv_n(attn, &spec, &q, &k, &v, stacked, mask)?
            };
            project(compute, n, lids[3], &attn.o, &core)?
        }
        Op::WindowAttention(wa) => {
            unmasked(get(0)?)?;
            let lids = node.layers_array()?;
            // Projections are per-token, so they commute with the window
            // partition: project once on the full grid (the whole stack
            // at once when batched), then run the attention core per
            // window.
            let q = project(compute, n, lids[0], &wa.attn.q, get(0)?)?;
            let k = project(compute, n, lids[1], &wa.attn.k, get(0)?)?;
            let v = project(compute, n, lids[2], &wa.attn.v, get(0)?)?;
            let core = wa.core_n(&q, &k, &v, stacked)?;
            project(compute, n, lids[3], &wa.attn.o, &core)?
        }
        Op::Reorder(perm) => tokens::reorder_channels_n(get(0)?, perm, stacked)?,
        Op::AddParam(p) => add_param(get(0)?, p, stacked)?,
        Op::Embedding(emb) => emb.forward_n(get(0)?, stacked, mask_for(get(0)?.dims()))?,
    })
}

/// `AddParam` under the positional-table prefix contract documented on
/// [`Op::AddParam`]: a `[T, C]` sample shorter than its `[P, C]`
/// parameter adds the parameter's first `T` rows; every other shape
/// difference — a sample *longer* than the table included — fails with
/// the usual shape mismatch. A stacked activation broadcasts the
/// (sliced) parameter over its batch axis.
fn add_param(x: &Tensor, p: &Tensor, stacked: bool) -> Result<Tensor> {
    let sample = x.dims().get(usize::from(stacked)..).unwrap_or(&[]);
    let prefix = match (sample, p.dims()) {
        (&[t, c], &[rows, pc]) if c == pc && t < rows => Some(p.slice_axis0(t)?),
        _ => None,
    };
    let p = prefix.as_ref().unwrap_or(p);
    Ok(if stacked { x.add_bcast0(p)? } else { x.add(p)? })
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
/// The samples run as **lanes** of [`apply_node`]: one stacked `[N, …]`
/// lane when all samples share one shape (the common case — calibration
/// sets are homogeneous) and the hook's batching is invariant
/// ([`Compute::batch_invariant`]), else one single-sample lane each. The
/// visitor receives per-sample activations either way — sliced from the
/// stack in the first case, with values bit-exact with the per-sample
/// lanes.
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
    let stacked;
    let lanes: Vec<(&Tensor, Option<usize>)> = if same_shape && compute.batch_invariant() {
        stacked = Tensor::stack(samples)?;
        vec![(&stacked, Some(samples.len()))]
    } else {
        samples.iter().map(|s| (s, None)).collect()
    };
    let n_nodes = graph.nodes().len();
    let mut memos: Vec<Vec<Option<Tensor>>> = vec![vec![None; n_nodes]; lanes.len()];
    fn computed(memo: &[Option<Tensor>], nid: NodeId, inp: NodeId) -> Result<&Tensor> {
        memo.get(inp).and_then(Option::as_ref).ok_or_else(|| {
            NnError::Invalid(format!(
                "node {nid} executed before its input {inp} (graph not in topological index order)"
            ))
        })
    }
    for nid in 0..n_nodes {
        // Gather every sample's first-input activation for the visitor.
        let mut first_inputs = Vec::new();
        if let Some(&src) = graph.node(nid)?.inputs.first() {
            for (&(_, n), memo) in lanes.iter().zip(&memos) {
                let act = computed(memo, nid, src)?;
                match n {
                    Some(n) => {
                        for s in 0..n {
                            first_inputs.push(act.index_axis0(s)?);
                        }
                    }
                    None => first_inputs.push(act.clone()),
                }
            }
        }
        visit(graph.op_mut(nid)?, &first_inputs)?;
        let node = graph.node(nid)?;
        for (&(input, n), memo) in lanes.iter().zip(&mut memos) {
            let resolved = node
                .inputs
                .iter()
                .map(|&inp| computed(memo, nid, inp).cloned())
                .collect::<Result<Vec<_>>>()?;
            memo[nid] = Some(apply_node(node, &resolved, input, n, None, compute)?);
        }
    }
    Ok(())
}

impl Node {
    pub(crate) fn layers_array(&self) -> Result<[LayerId; 4]> {
        <[LayerId; 4]>::try_from(self.layers.as_slice()).map_err(|_| {
            NnError::Invalid(format!(
                "attention node has {} registered layers, expected 4",
                self.layers.len()
            ))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{Attention, BatchNorm2d, Conv2d};
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
    fn cyclic_graph_is_a_typed_error_in_every_driver() {
        // input → embedding → relu → gelu, then relu rewired to read gelu:
        // relu and gelu now feed each other. Every driver rides the one
        // walk, so all of them must report the cycle instead of spinning.
        let mut g = Graph::new("cycle");
        let x = g.input();
        let table = Tensor::ones([4, 2]);
        let emb = crate::ops::Embedding::new(table).unwrap();
        let e = g.add_node(Op::Embedding(emb), vec![x]).unwrap();
        let a = g.relu(e).unwrap();
        let b = g.gelu(a).unwrap();
        g.set_output(b).unwrap();
        g.reroute_input(a, 0, b).unwrap();
        let ids = Tensor::from_vec([2], vec![1.0, 3.0]).unwrap();
        let invalid =
            |r: Result<Tensor>| matches!(r, Err(NnError::Invalid(m)) if m.contains("cycle"));
        assert!(invalid(run_f32(&g, &ids)));
        assert!(invalid(run_batch_f32(
            &g,
            &Tensor::stack(std::slice::from_ref(&ids)).unwrap()
        )));
        let mut st = crate::decode::DecodeState::new(&g, crate::kv::KvSpec::f32()).unwrap();
        assert!(invalid(crate::decode::prefill(
            &g,
            &mut st,
            &ids,
            &mut F32Compute
        )));
        // A self-loop is the smallest cycle.
        g.reroute_input(a, 0, a).unwrap();
        g.reroute_input(b, 0, a).unwrap();
        assert!(invalid(run_f32(&g, &ids)));
    }

    /// Visitor inputs `run_stepwise` must reproduce: each sample's own
    /// single-sample trace, read at every node's first input.
    fn per_sample_first_inputs(g: &Graph, samples: &[Tensor]) -> Vec<Vec<Tensor>> {
        let traces: Vec<_> = samples
            .iter()
            .map(|s| run_traced(g, s, &mut F32Compute).unwrap())
            .collect();
        g.nodes()
            .iter()
            .map(|node| match node.inputs.first() {
                Some(&src) => traces.iter().map(|t| t[src].clone().unwrap()).collect(),
                None => Vec::new(),
            })
            .collect()
    }

    #[test]
    fn stepwise_takes_per_sample_lanes_when_it_cannot_stack() {
        /// The f32 reference, except that it declares its batching
        /// variant and counts any batched call it still receives.
        struct NoStack(usize);
        impl Compute for NoStack {
            fn conv2d(&mut self, _l: LayerId, c: &Conv2d, x: &Tensor) -> Result<Tensor> {
                c.forward(x)
            }
            fn linear(&mut self, _l: LayerId, lin: &Linear, x: &Tensor) -> Result<Tensor> {
                lin.forward(x)
            }
            fn conv2d_batch(
                &mut self,
                _l: LayerId,
                c: &Conv2d,
                x: &Tensor,
                _n: usize,
            ) -> Result<Tensor> {
                self.0 += 1;
                c.forward_batch(x)
            }
            fn batch_invariant(&self) -> bool {
                false
            }
        }
        let mut rng = seeded(115);
        let mut g = Graph::new("bnchain");
        let x = g.input();
        let w = Tensor::randn([2, 2, 3, 3], 0.0, 0.3, &mut rng);
        let c = g.conv2d(x, Conv2d::new(w, None, 1, 1, 1).unwrap()).unwrap();
        let b = g.batch_norm(c, BatchNorm2d::identity(2)).unwrap();
        let r = g.relu(b).unwrap();
        let p = g.add_node(Op::GlobalAvgPool, vec![r]).unwrap();
        g.set_output(p).unwrap();
        let same: Vec<Tensor> = (0..3)
            .map(|_| Tensor::randn([2, 4, 4], 0.0, 1.0, &mut rng))
            .collect();
        let mut mixed = same.clone();
        mixed[1] = Tensor::randn([2, 5, 3], 0.0, 1.0, &mut rng);
        let collect = |g: &mut Graph, samples: &[Tensor], hook: &mut dyn Compute| {
            let mut seen = Vec::new();
            run_stepwise(g, samples, hook, |_, inputs| {
                seen.push(inputs.to_vec());
                Ok(())
            })
            .unwrap();
            seen
        };
        // Heterogeneous shapes cannot stack, whatever the hook says.
        let expect = per_sample_first_inputs(&g, &mixed);
        assert_eq!(collect(&mut g, &mixed, &mut F32Compute), expect);
        // A hook whose batching is not invariant must not be stacked
        // under, even over a homogeneous set.
        let expect = per_sample_first_inputs(&g, &same);
        let mut hook = NoStack(0);
        assert_eq!(collect(&mut g, &same, &mut hook), expect);
        assert_eq!(hook.0, 0, "a non-batch-invariant hook was stacked under");
        // And the stacked lane hands the visitor the same per-sample bits.
        assert_eq!(collect(&mut g, &same, &mut F32Compute), expect);
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
