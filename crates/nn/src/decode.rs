//! Incremental (autoregressive) decode over token-sequence graphs.
//!
//! The full-context executor ([`crate::exec`]) recomputes every position
//! on every call; generation needs the incremental form — each new token
//! runs once, attending over the cached keys/values of everything before
//! it. This module is that driver: a [`DecodeState`] holds one
//! [`KvLayerCache`] per attention node, [`prefill`] runs the prompt and
//! fills the caches, [`step`] runs one token, and [`step_batch`] fuses
//! one token from each of several sessions into a single stacked pass
//! (the regime where the prepacked-weight cache pays: every per-step
//! linear runs once at `m = batch` instead of `batch` times at `m = 1`).
//!
//! It owns no graph traversal and no operator table: every pass is the
//! executor's walk ([`exec::walk`]) over its dispatch table
//! ([`exec::apply_node`]), with only the two position-dependent operators
//! — positional `AddParam` tables and attention — answered here instead.
//!
//! # The equivalence ladder
//!
//! Decode is **bit-exact** with the full-context executor over the same
//! prefix, at every precision level, by construction:
//!
//! * Every non-attention operator the driver admits is per-token: row
//!   `i` of its output depends only on row `i` of its input, so running
//!   rows one at a time is the same arithmetic as running them stacked.
//!   (Positional tables are re-based: a step at position `p` adds table
//!   row `p`, exactly the row the full forward adds at index `p`.)
//! * Quantized linears are row-independent too — calibrated per-tensor
//!   activation scales and static weight lowering don't look at the
//!   activation's other rows. The walker therefore requires
//!   [`Compute::batch_invariant`] hooks (dynamic extraction derives
//!   lowering positions from live batch statistics, which a single row
//!   cannot reproduce — the same reason the samplewise drivers refuse
//!   to stack under it).
//! * Attention goes through the cache on **both** sides: the
//!   full-context executor routes its cores through `kv::core_kv`
//!   whenever a non-f32 [`KvSpec`] is installed, and `core_kv` is
//!   definitionally "append every row, attend every row" — the exact
//!   loop the decode walker runs, spread over N calls. With the f32
//!   spec the cache path is bit-exact with the uncached
//!   [`crate::ops::Attention::core`] (pinned in [`crate::kv`]'s tests).
//!
//! The ladder is pinned end to end by `decode_equivalence.rs` in
//! `flexiq-core`: N steps vs. one masked forward, every level, every
//! K/V spec, 1/2/4 threads.

use flexiq_tensor::Tensor;

use crate::error::NnError;
use crate::exec::{self, Compute};
use crate::graph::{Graph, NodeId, Op};
use crate::kv::{KvLayerCache, KvSpec};
use crate::Result;

/// Per-request decode state: one K/V cache per attention node plus the
/// absolute position of the next token.
///
/// Construction validates the graph for incremental execution; the state
/// is then advanced exclusively through [`prefill`], [`step`] and
/// [`step_batch`]. One state serves one generation — it is cheap to
/// build, so sessions create a fresh one per request.
#[derive(Debug, Clone)]
pub struct DecodeState {
    spec: KvSpec,
    /// `caches[nid]` is `Some` exactly for attention nodes.
    caches: Vec<Option<KvLayerCache>>,
    /// Absolute position of the next token to be appended.
    pos: usize,
    /// Positional-table capacity: decoding past this is an error.
    context: usize,
}

impl DecodeState {
    /// Builds empty decode state for a token-sequence graph.
    ///
    /// Rejects graphs containing operators that mix tokens in ways an
    /// incremental walker cannot reproduce (convolutions, pooling,
    /// window attention, patch merging, token means) and non-causal
    /// attention (an incremental cache never sees future positions).
    pub fn new(graph: &Graph, spec: KvSpec) -> Result<Self> {
        let mut context = usize::MAX;
        let mut caches: Vec<Option<KvLayerCache>> = Vec::with_capacity(graph.nodes().len());
        for (nid, node) in graph.nodes().iter().enumerate() {
            let mut cache = None;
            match &node.op {
                Op::Input
                | Op::Linear(_)
                | Op::LayerNorm(_)
                | Op::Relu
                | Op::Gelu
                | Op::Add
                | Op::Reorder(_)
                | Op::Embedding(_) => {}
                Op::AddParam(p) => {
                    if p.dims().len() == 2 {
                        context = context.min(p.dims()[0]);
                    }
                }
                Op::Attention(attn) => {
                    if !attn.causal {
                        return Err(NnError::Invalid(format!(
                            "node {nid}: non-causal attention cannot decode incrementally"
                        )));
                    }
                    spec.validate(attn.width(), attn.heads)?;
                    cache = Some(KvLayerCache::new(attn.width(), attn.heads, spec, 0)?);
                }
                other => {
                    return Err(NnError::Invalid(format!(
                        "node {nid}: `{}` is not a per-token operator; graph cannot decode \
                         incrementally",
                        other.name()
                    )));
                }
            }
            caches.push(cache);
        }
        Ok(DecodeState {
            spec,
            caches,
            pos: 0,
            context,
        })
    }

    /// Absolute position of the next token.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Positional-table capacity (`usize::MAX` when the graph has no
    /// positional table).
    pub fn context(&self) -> usize {
        self.context
    }

    /// The K/V precision spec the caches store under.
    pub fn spec(&self) -> &KvSpec {
        &self.spec
    }

    /// Resident bytes across every attention node's K/V cache.
    pub fn kv_bytes(&self) -> usize {
        self.caches
            .iter()
            .flatten()
            .map(KvLayerCache::resident_bytes)
            .sum()
    }

    fn check_advance(&self, t: usize, compute: &dyn Compute) -> Result<()> {
        if self.pos + t > self.context {
            return Err(NnError::Invalid(format!(
                "decode position {} + {t} tokens exceeds the positional context {}",
                self.pos, self.context
            )));
        }
        if !compute.batch_invariant() {
            return Err(NnError::Invalid(
                "incremental decode requires a batch-invariant compute hook (dynamic \
                 extraction derives lowering positions from live batch statistics, which \
                 a single row cannot reproduce)"
                    .into(),
            ));
        }
        if compute.kv_spec() != self.spec {
            return Err(NnError::Invalid(
                "decode state and compute hook disagree on the K/V spec; their full-context \
                 and incremental arithmetics would diverge"
                    .into(),
            ));
        }
        Ok(())
    }
}

/// Runs the prompt (`[T]` token ids) through the graph, filling every
/// attention cache, and returns the full `[T, out]` activation of the
/// output node — bit-exact with the full-context executor on the same
/// prompt under the same hook.
pub fn prefill(
    graph: &Graph,
    state: &mut DecodeState,
    tokens: &Tensor,
    compute: &mut dyn Compute,
) -> Result<Tensor> {
    let t = tokens.dims().first().copied().unwrap_or(0);
    if tokens.dims().len() != 1 || t == 0 {
        return Err(NnError::BadActivation {
            op: "decode_prefill",
            expected: "non-empty [T] token ids".into(),
            got: tokens.dims().to_vec(),
        });
    }
    if state.pos != 0 {
        return Err(NnError::Invalid(format!(
            "prefill on a session already at position {}",
            state.pos
        )));
    }
    forward(graph, state, tokens, compute)
}

/// Runs one token through the graph at the session's current position,
/// returning the `[1, out]` output row.
pub fn step(
    graph: &Graph,
    state: &mut DecodeState,
    token: f32,
    compute: &mut dyn Compute,
) -> Result<Tensor> {
    if state.pos == 0 {
        return Err(NnError::Invalid(
            "decode step before prefill; the cache has no context".into(),
        ));
    }
    forward(graph, state, &Tensor::from_vec([1], vec![token])?, compute)
}

/// Fuses one decode step from each of `states.len()` sessions into a
/// single stacked pass: the `[N]` pseudo-sequence runs every per-token
/// operator (and in particular every linear) **once** at `m = N`, while
/// attention fans back out to each session's own cache. Bit-exact, per
/// session, with calling [`step`] N times — the per-token operators are
/// row-independent and the hook is required to be batch-invariant.
///
/// Returns the stacked `[N, out]` rows in session order.
pub fn step_batch(
    graph: &Graph,
    states: &mut [&mut DecodeState],
    tokens: &[f32],
    compute: &mut dyn Compute,
) -> Result<Tensor> {
    let n = states.len();
    if n == 0 || tokens.len() != n {
        return Err(NnError::Invalid(format!(
            "step_batch with {n} sessions and {} tokens",
            tokens.len()
        )));
    }
    for s in states.iter() {
        if s.pos == 0 {
            return Err(NnError::Invalid(
                "decode step before prefill; the cache has no context".into(),
            ));
        }
        if s.spec != states[0].spec {
            return Err(NnError::Invalid(
                "step_batch sessions disagree on the K/V spec".into(),
            ));
        }
        s.check_advance(1, compute)?;
    }
    let input = Tensor::from_vec([n], tokens.to_vec())?;
    let out = run_rows(graph, &input, compute, states)?;
    for s in states.iter_mut() {
        s.pos += 1;
    }
    Ok(out)
}

/// Single-session incremental forward over `t` new tokens.
fn forward(
    graph: &Graph,
    state: &mut DecodeState,
    tokens: &Tensor,
    compute: &mut dyn Compute,
) -> Result<Tensor> {
    let t = tokens.dims()[0];
    state.check_advance(t, compute)?;
    let out = run_rows(graph, tokens, compute, &mut [&mut *state])?;
    state.pos += t;
    Ok(out)
}

/// One pass of token rows through the graph on the executor's walk
/// ([`exec::walk`]) and dispatch table ([`exec::apply_node`], one sample):
/// every per-token operator runs there, and only the two
/// position-dependent arms — positional tables and attention — are
/// answered here, from the sessions' positions and caches.
fn run_rows(
    graph: &Graph,
    input: &Tensor,
    compute: &mut dyn Compute,
    states: &mut [&mut DecodeState],
) -> Result<Tensor> {
    let output = graph.output()?;
    let mut memo = exec::walk(graph, output, false, |nid, node, resolved| match &node.op {
        Op::AddParam(_) | Op::Attention(_) => attend_rows(node, nid, resolved, compute, states),
        _ => exec::apply_node(node, resolved, input, None, compute),
    })?;
    memo[output]
        .take()
        .ok_or_else(|| NnError::Invalid("graph output was not computed".into()))
}

/// The position-dependent arms of the walk, shared by the single-session
/// and fused paths.
///
/// With one session in `states`, all `t` activation rows belong to it
/// and row `i` sits at absolute position `pos + i`; with `t` sessions,
/// row `i` is session `i`'s single token at its own `pos`.
fn attend_rows(
    node: &crate::graph::Node,
    nid: NodeId,
    inputs: &[Tensor],
    compute: &mut dyn Compute,
    states: &mut [&mut DecodeState],
) -> Result<Tensor> {
    let x = inputs.first().filter(|x| !x.dims().is_empty());
    let x = x.ok_or_else(|| NnError::BadActivation {
        op: "decode_rows",
        expected: "[T, …] token rows".into(),
        got: inputs.first().map_or(Vec::new(), |x| x.dims().to_vec()),
    })?;
    let t = x.dims()[0];
    let fused = states.len() > 1;
    if fused && states.len() != t {
        return Err(NnError::Invalid(format!(
            "{} sessions against {t} activation rows",
            states.len()
        )));
    }
    match &node.op {
        // Positional table, re-based to each row's absolute position:
        // row i adds the table row the full-context forward adds at the
        // same absolute index.
        Op::AddParam(p) => {
            let c = p.dims().last().copied().unwrap_or(0);
            if x.dims().len() != 2 || x.dims()[1] != c || p.dims().len() != 2 {
                return Err(NnError::BadActivation {
                    op: "decode_add_param",
                    expected: format!("[T, {c}] tokens against a rank-2 table"),
                    got: x.dims().to_vec(),
                });
            }
            let mut out = Vec::with_capacity(t * c);
            for i in 0..t {
                let pos = if fused {
                    states[i].pos
                } else {
                    states[0].pos + i
                };
                if pos >= p.dims()[0] {
                    return Err(NnError::Invalid(format!(
                        "position {pos} outside the [{}, {c}] table",
                        p.dims()[0]
                    )));
                }
                for d in 0..c {
                    out.push(x.data()[i * c + d] + p.data()[pos * c + d]);
                }
            }
            Ok(Tensor::from_vec([t, c], out)?)
        }
        Op::Attention(attn) => {
            let lids = node.layers_array()?;
            let q = compute.linear(lids[0], &attn.q, x)?;
            let k = compute.linear(lids[1], &attn.k, x)?;
            let v = compute.linear(lids[2], &attn.v, x)?;
            let c = attn.width();
            let mut core = vec![0.0f32; t * c];
            let (qd, kd, vd) = (q.data(), k.data(), v.data());
            let append_attend = |state: &mut DecodeState, i: usize, out: &mut [f32]| {
                let cache = state.caches[nid]
                    .as_mut()
                    .ok_or_else(|| NnError::Invalid(format!("node {nid} has no decode cache")))?;
                cache.append(&kd[i * c..(i + 1) * c], &vd[i * c..(i + 1) * c])?;
                cache.attend(&qd[i * c..(i + 1) * c], out)
            };
            // Fused rows touch independent caches (and single-session
            // rows are causally ordered), but the loop stays serial
            // either way: at this model scale one row's append+attend is
            // microseconds of work, well under a pool dispatch.
            for (i, out) in core.chunks_mut(c).enumerate() {
                let state = if fused {
                    &mut *states[i]
                } else {
                    &mut *states[0]
                };
                append_attend(state, i, out)?;
            }
            compute.linear(lids[3], &attn.o, &Tensor::from_vec([t, c], core)?)
        }
        other => Err(NnError::Invalid(format!(
            "`{}` reached the position-dependent arm",
            other.name()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{run, F32Compute};
    use crate::zoo::{ModelId, Scale};

    fn lm() -> Graph {
        ModelId::TinyLm.build(Scale::Test).unwrap()
    }

    fn ids(n: usize, seed: usize) -> Vec<f32> {
        (0..n).map(|i| ((i * 7 + seed * 3) % 16) as f32).collect()
    }

    #[test]
    fn prefill_matches_the_full_context_executor_bit_for_bit() {
        let g = lm();
        let prompt = Tensor::from_vec([5], ids(5, 1)).unwrap();
        let full = run(&g, &prompt, &mut F32Compute).unwrap();
        let mut st = DecodeState::new(&g, KvSpec::f32()).unwrap();
        let inc = prefill(&g, &mut st, &prompt, &mut F32Compute).unwrap();
        assert_eq!(full.dims(), inc.dims());
        for (a, b) in full.data().iter().zip(inc.data().iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(st.pos(), 5);
        assert!(st.kv_bytes() > 0);
    }

    #[test]
    fn steps_match_full_context_rows_bit_for_bit() {
        let g = lm();
        let all = ids(8, 2);
        let mut st = DecodeState::new(&g, KvSpec::f32()).unwrap();
        prefill(
            &g,
            &mut st,
            &Tensor::from_vec([3], all[..3].to_vec()).unwrap(),
            &mut F32Compute,
        )
        .unwrap();
        for t in 3..8 {
            let row = step(&g, &mut st, all[t], &mut F32Compute).unwrap();
            let full = run(
                &g,
                &Tensor::from_vec([t + 1], all[..t + 1].to_vec()).unwrap(),
                &mut F32Compute,
            )
            .unwrap();
            let vocab = row.dims()[1];
            assert_eq!(full.dims(), [t + 1, vocab]);
            for d in 0..vocab {
                assert_eq!(
                    row.data()[d].to_bits(),
                    full.data()[t * vocab + d].to_bits(),
                    "token {t} logit {d}"
                );
            }
        }
    }

    #[test]
    fn fused_step_batch_matches_per_session_steps() {
        let g = lm();
        let mut a = DecodeState::new(&g, KvSpec::f32()).unwrap();
        let mut b = DecodeState::new(&g, KvSpec::f32()).unwrap();
        // Different prompt lengths: fused rows sit at different positions.
        prefill(
            &g,
            &mut a,
            &Tensor::from_vec([2], ids(2, 3)).unwrap(),
            &mut F32Compute,
        )
        .unwrap();
        prefill(
            &g,
            &mut b,
            &Tensor::from_vec([4], ids(4, 4)).unwrap(),
            &mut F32Compute,
        )
        .unwrap();
        let (mut a2, mut b2) = (a.clone(), b.clone());
        let ra = step(&g, &mut a, 3.0, &mut F32Compute).unwrap();
        let rb = step(&g, &mut b, 5.0, &mut F32Compute).unwrap();
        let mut refs: Vec<&mut DecodeState> = vec![&mut a2, &mut b2];
        let fused = step_batch(&g, &mut refs, &[3.0, 5.0], &mut F32Compute).unwrap();
        let vocab = ra.dims()[1];
        assert_eq!(fused.dims(), [2, vocab]);
        for d in 0..vocab {
            assert_eq!(fused.data()[d].to_bits(), ra.data()[d].to_bits(), "s0 d{d}");
            assert_eq!(
                fused.data()[vocab + d].to_bits(),
                rb.data()[d].to_bits(),
                "s1 d{d}"
            );
        }
        assert_eq!(a2.pos(), a.pos());
        assert_eq!(b2.pos(), b.pos());
    }

    #[test]
    fn rank0_rows_are_a_typed_error_not_a_panic() {
        let g = lm();
        let mut st = DecodeState::new(&g, KvSpec::f32()).unwrap();
        for (nid, node) in g.nodes().iter().enumerate() {
            if !matches!(node.op, Op::AddParam(_) | Op::Attention(_)) {
                continue;
            }
            let r = attend_rows(
                node,
                nid,
                &[Tensor::scalar(1.0)],
                &mut F32Compute,
                &mut [&mut st],
            );
            assert!(matches!(r, Err(NnError::BadActivation { .. })), "{r:?}");
        }
    }

    #[test]
    fn guards_reject_misuse() {
        let g = lm();
        let mut st = DecodeState::new(&g, KvSpec::f32()).unwrap();
        // Step before prefill.
        assert!(step(&g, &mut st, 0.0, &mut F32Compute).is_err());
        // Context overflow (TinyLm Test context is 8).
        let long = Tensor::from_vec([9], ids(9, 5)).unwrap();
        assert!(prefill(&g, &mut st, &long, &mut F32Compute).is_err());
        // Double prefill.
        let ok = Tensor::from_vec([8], ids(8, 5)).unwrap();
        prefill(&g, &mut st, &ok, &mut F32Compute).unwrap();
        assert!(prefill(&g, &mut st, &ok, &mut F32Compute).is_err());
        // Past-context step.
        assert!(step(&g, &mut st, 0.0, &mut F32Compute).is_err());
        // Conv graphs cannot decode.
        let resnet = ModelId::RNet20.build(Scale::Test).unwrap();
        assert!(DecodeState::new(&resnet, KvSpec::f32()).is_err());
    }
}
