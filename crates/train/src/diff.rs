//! Tape-based reverse-mode differentiation over the inference graph.
//!
//! [`forward`] runs the same [`Graph`] on the inference engine's own walk
//! and op-dispatch table ([`flexiq_nn::exec::walk`] /
//! [`flexiq_nn::exec::apply_node`]), intercepting only the quantizable
//! operators to apply fake quantization, and records a [`Tape`] (node
//! outputs plus per-node auxiliary state). [`backward`]
//! replays the tape in reverse, producing weight/bias gradients per
//! [`LayerId`] with straight-through-estimator semantics for the
//! quantizers.
//!
//! Normalization parameters, positional embeddings and the LM embedding
//! table are frozen (standard for quantization-aware finetuning); their
//! nodes still propagate input gradients.

use flexiq_quant::GroupSpec;
use flexiq_tensor::im2col::{col2im, im2col};
use flexiq_tensor::{gemm, Tensor};

use flexiq_nn::exec;
use flexiq_nn::graph::{Graph, LayerId, NodeId, Op};
use flexiq_nn::ops::tokens::invert_perm;
use flexiq_nn::ops::{Attention, Conv2d, Linear, WindowAttention};
use flexiq_nn::NnError;

use crate::ste::{fake_act, fake_weight, FakeQuant, QuantMode};
use crate::Result;

/// Per-layer weight and bias gradients.
#[derive(Debug, Clone)]
pub struct Grads {
    /// Weight gradients, indexed by [`LayerId`].
    pub w: Vec<Option<Tensor>>,
    /// Bias gradients, indexed by [`LayerId`].
    pub b: Vec<Option<Vec<f32>>>,
}

impl Grads {
    /// Zero gradients for `n` layers.
    pub fn new(n: usize) -> Self {
        Grads {
            w: vec![None; n],
            b: vec![None; n],
        }
    }

    /// Accumulates `other` into `self`.
    pub fn accumulate(&mut self, other: &Grads) -> Result<()> {
        if self.w.len() != other.w.len() {
            return Err(NnError::Invalid("gradient layer counts differ".into()));
        }
        for (a, b) in self.w.iter_mut().zip(other.w.iter()) {
            match (a.as_mut(), b) {
                (Some(x), Some(y)) => x.add_assign(y)?,
                (None, Some(y)) => *a = Some(y.clone()),
                _ => {}
            }
        }
        for (a, b) in self.b.iter_mut().zip(other.b.iter()) {
            match (a.as_mut(), b) {
                (Some(x), Some(y)) => {
                    for (u, v) in x.iter_mut().zip(y.iter()) {
                        *u += v;
                    }
                }
                (None, Some(y)) => *a = Some(y.clone()),
                _ => {}
            }
        }
        Ok(())
    }

    /// Multiplies all gradients by a scalar (loss weighting / batch mean).
    pub fn scale(&mut self, s: f32) {
        for g in self.w.iter_mut().flatten() {
            g.map_inplace(|v| v * s);
        }
        for g in self.b.iter_mut().flatten() {
            for v in g.iter_mut() {
                *v *= s;
            }
        }
    }

    /// Global L2 norm over all gradients.
    pub fn l2_norm(&self) -> f32 {
        let mut acc = 0.0f64;
        for g in self.w.iter().flatten() {
            acc += g
                .data()
                .iter()
                .map(|&v| (v as f64) * (v as f64))
                .sum::<f64>();
        }
        for g in self.b.iter().flatten() {
            acc += g.iter().map(|&v| (v as f64) * (v as f64)).sum::<f64>();
        }
        acc.sqrt() as f32
    }
}

struct LinAux {
    x_eff: Tensor,
    w_fq: FakeQuant,
}

struct AttnAux {
    x_eff: Tensor,
    wq: FakeQuant,
    wk: FakeQuant,
    wv: FakeQuant,
    wo: FakeQuant,
    q: Tensor,
    k: Tensor,
    v: Tensor,
    core_eff: Tensor,
}

enum NodeAux {
    None,
    Lin(LinAux),
    Conv(LinAux),
    // Boxed: the attention record dwarfs the other variants, and `aux`
    // holds one entry per graph node.
    Attn(Box<AttnAux>),
}

/// The recorded forward pass.
pub struct Tape {
    /// Node outputs (pre-quantization of the *next* consumer).
    pub values: Vec<Option<Tensor>>,
    aux: Vec<NodeAux>,
    topo: Vec<NodeId>,
}

impl Tape {
    /// The output value of a node, if it was computed.
    pub fn value(&self, id: NodeId) -> Option<&Tensor> {
        self.values.get(id).and_then(|v| v.as_ref())
    }
}

fn layer_mode(mode: QuantMode, exempt: &[bool], layer: LayerId) -> QuantMode {
    if exempt.get(layer).copied().unwrap_or(false) {
        match mode {
            QuantMode::Fp32 => QuantMode::Fp32,
            _ => QuantMode::Int8,
        }
    } else {
        mode
    }
}

const TRAIN_GROUP: GroupSpec = GroupSpec::GPU;

fn quantized_linear(lin: &Linear, x: &Tensor, mode: QuantMode) -> Result<(Tensor, LinAux)> {
    let xf = fake_act(x, mode, TRAIN_GROUP, lin.c_in());
    let wf = fake_weight(&lin.weight, mode, TRAIN_GROUP, lin.c_in());
    let eff = Linear::new(wf.value.clone(), lin.bias.clone())?;
    let y = eff.forward(&xf.value)?;
    Ok((
        y,
        LinAux {
            x_eff: xf.value,
            w_fq: wf,
        },
    ))
}

fn quantized_conv(conv: &Conv2d, x: &Tensor, mode: QuantMode) -> Result<(Tensor, LinAux)> {
    let xf = fake_act(x, mode, TRAIN_GROUP, conv.c_in());
    let wf = fake_weight(&conv.weight, mode, TRAIN_GROUP, conv.c_in());
    let eff = Conv2d::new(
        wf.value.clone(),
        conv.bias.clone(),
        conv.stride,
        conv.pad,
        conv.groups,
    )?;
    let y = eff.forward(&xf.value)?;
    Ok((
        y,
        LinAux {
            x_eff: xf.value,
            w_fq: wf,
        },
    ))
}

/// Runs a differentiable forward pass.
///
/// `exempt_to_int8` lists layers kept at 8-bit even in low-bit modes —
/// the paper's convention for the first and last layers (§8.2).
pub fn forward(
    graph: &Graph,
    input: &Tensor,
    mode: QuantMode,
    exempt_to_int8: &[LayerId],
) -> Result<(Tensor, Tape)> {
    let n = graph.nodes().len();
    let mut exempt = vec![false; graph.num_layers()];
    for &l in exempt_to_int8 {
        if l < exempt.len() {
            exempt[l] = true;
        }
    }
    let mut aux: Vec<NodeAux> = (0..n).map(|_| NodeAux::None).collect();
    let mut topo = Vec::with_capacity(n);
    fn first(inputs: &[Tensor], nid: NodeId) -> Result<&Tensor> {
        inputs
            .first()
            .ok_or_else(|| NnError::Invalid(format!("missing input 0 of node {nid}")))
    }
    let attn_modes = |layers: &[LayerId]| -> Result<[QuantMode; 4]> {
        let layers = <[LayerId; 4]>::try_from(layers)
            .map_err(|_| NnError::Invalid("attention node needs 4 registered layers".into()))?;
        Ok(layers.map(|l| layer_mode(mode, &exempt, l)))
    };
    let output = graph.output()?;
    // The executor's walk, retaining every activation as the tape; its
    // completion order is the topological order `backward` replays.
    let values = exec::walk(graph, output, true, |nid, node, inputs| {
        let (out, node_aux) = match &node.op {
            Op::Linear(lin) => {
                let m = layer_mode(mode, &exempt, node.layers[0]);
                let (y, aux) = quantized_linear(lin, first(inputs, nid)?, m)?;
                (y, NodeAux::Lin(aux))
            }
            Op::Conv2d(conv) => {
                let m = layer_mode(mode, &exempt, node.layers[0]);
                let (y, aux) = quantized_conv(conv, first(inputs, nid)?, m)?;
                (y, NodeAux::Conv(aux))
            }
            Op::Attention(attn) => {
                let modes = attn_modes(&node.layers)?;
                let (y, aux) = attention_forward(attn, None, modes, first(inputs, nid)?)?;
                (y, NodeAux::Attn(Box::new(aux)))
            }
            Op::WindowAttention(wa) => {
                let modes = attn_modes(&node.layers)?;
                let (y, aux) = attention_forward(&wa.attn, Some(wa), modes, first(inputs, nid)?)?;
                (y, NodeAux::Attn(Box::new(aux)))
            }
            // Everything unquantized is the inference executor's arm.
            _ => (
                exec::apply_node(node, inputs, input, None, None, &mut exec::F32Compute)?,
                NodeAux::None,
            ),
        };
        aux[nid] = node_aux;
        topo.push(nid);
        Ok(out)
    })?;
    let out = values[output]
        .clone()
        .ok_or_else(|| NnError::Invalid("output not computed".into()))?;
    Ok((out, Tape { values, aux, topo }))
}

/// Fake-quantized attention forward: the four projections quantize under
/// their own layer modes (`modes`, in Q/K/V/O order); the core runs in
/// f32 — over the whole sequence, or per window when `wa` is given.
fn attention_forward(
    attn: &Attention,
    wa: Option<&WindowAttention>,
    [mq, mk, mv, mo]: [QuantMode; 4],
    x: &Tensor,
) -> Result<(Tensor, AttnAux)> {
    let xf = fake_act(x, mq, TRAIN_GROUP, attn.q.c_in());
    let proj = |lin: &Linear, m: QuantMode, x_eff: &Tensor| -> Result<(Tensor, FakeQuant)> {
        let wf = fake_weight(&lin.weight, m, TRAIN_GROUP, lin.c_in());
        let eff = Linear::new(wf.value.clone(), lin.bias.clone())?;
        Ok((eff.forward(x_eff)?, wf))
    };
    let (q, wq) = proj(&attn.q, mq, &xf.value)?;
    let (k, wk) = proj(&attn.k, mk, &xf.value)?;
    let (v, wv) = proj(&attn.v, mv, &xf.value)?;
    let core = match wa {
        None => attn.core(&q, &k, &v)?,
        Some(wa) => {
            let (qw, kw, vw) = (wa.partition(&q)?, wa.partition(&k)?, wa.partition(&v)?);
            let mut outs = Vec::with_capacity(qw.len());
            for ((qi, ki), vi) in qw.iter().zip(kw.iter()).zip(vw.iter()) {
                outs.push(attn.core(qi, ki, vi)?);
            }
            wa.merge(&outs)?
        }
    };
    let cf = fake_act(&core, mo, TRAIN_GROUP, attn.o.c_in());
    let (y, wo) = proj(&attn.o, mo, &cf.value)?;
    Ok((
        y,
        AttnAux {
            x_eff: xf.value,
            wq,
            wk,
            wv,
            wo,
            q,
            k,
            v,
            core_eff: cf.value,
        },
    ))
}

/// Linear backward: returns `(dX, dW, db)` for `y = x_eff · Wᵀ + b`.
fn linear_backward(
    x_eff: &Tensor,
    w_eff: &Tensor,
    d_y: &Tensor,
) -> Result<(Tensor, Tensor, Vec<f32>)> {
    let (c_out, c_in) = (w_eff.dims()[0], w_eff.dims()[1]);
    let t = x_eff.numel() / c_in;
    // dX[t,c] = sum_o dY[t,o] W[o,c]  → gemm(dY [t,o], W [o,c]).
    let mut dx = vec![0.0f32; t * c_in];
    gemm::gemm_f32(t, c_in, c_out, d_y.data(), w_eff.data(), &mut dx);
    // dW[o,c] = sum_t dY[t,o] X[t,c] → gemm(dYᵀ [o,t], X [t,c]).
    let dyt = transpose(d_y.data(), t, c_out);
    let mut dw = vec![0.0f32; c_out * c_in];
    gemm::gemm_f32(c_out, c_in, t, &dyt, x_eff.data(), &mut dw);
    let mut db = vec![0.0f32; c_out];
    for ti in 0..t {
        for o in 0..c_out {
            db[o] += d_y.data()[ti * c_out + o];
        }
    }
    Ok((
        Tensor::from_vec(x_eff.dims().to_vec(), dx)?,
        Tensor::from_vec([c_out, c_in], dw)?,
        db,
    ))
}

fn transpose(a: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; a.len()];
    for r in 0..rows {
        for c in 0..cols {
            out[c * rows + r] = a[r * cols + c];
        }
    }
    out
}

/// Conv backward via im2col: returns `(dX, dW, db)`.
fn conv_backward(
    conv: &Conv2d,
    x_eff: &Tensor,
    w_eff: &Tensor,
    d_y: &Tensor,
) -> Result<(Tensor, Tensor, Vec<f32>)> {
    let (_c_in, h, w) = conv.check_input(x_eff)?;
    let geom = conv.group_geometry(h, w);
    let (k, cols) = (geom.rows(), geom.cols());
    let c_out = conv.c_out();
    let c_out_g = c_out / conv.groups;
    let c_in_g = conv.weight.dims()[1];
    let mut dx = vec![0.0f32; x_eff.numel()];
    let mut dw = vec![0.0f32; w_eff.numel()];
    let mut db = vec![0.0f32; c_out];
    for grp in 0..conv.groups {
        let x_slice = &x_eff.data()[grp * c_in_g * h * w..(grp + 1) * c_in_g * h * w];
        let cols_mat = im2col(x_slice, &geom);
        let dy_g = &d_y.data()[grp * c_out_g * cols..(grp + 1) * c_out_g * cols];
        let w_g = &w_eff.data()[grp * c_out_g * k..(grp + 1) * c_out_g * k];
        // dW_g[o,k] = dY_g[o,:] · colsᵀ[:,k]  → gemm(dY [o, cols], colsᵀ [cols, k]).
        let cols_t = transpose(&cols_mat, k, cols);
        gemm::gemm_f32(
            c_out_g,
            k,
            cols,
            dy_g,
            &cols_t,
            &mut dw[grp * c_out_g * k..(grp + 1) * c_out_g * k],
        );
        // dCols[k, cols] = W_gᵀ · dY_g.
        let w_t = transpose(w_g, c_out_g, k);
        let mut dcols = vec![0.0f32; k * cols];
        gemm::gemm_f32(k, cols, c_out_g, &w_t, dy_g, &mut dcols);
        let dx_g = col2im(&dcols, &geom);
        for (i, v) in dx_g.iter().enumerate() {
            dx[grp * c_in_g * h * w + i] += v;
        }
        for ol in 0..c_out_g {
            let o = grp * c_out_g + ol;
            db[o] += dy_g[ol * cols..(ol + 1) * cols].iter().sum::<f32>();
        }
    }
    Ok((
        Tensor::from_vec(x_eff.dims().to_vec(), dx)?,
        Tensor::from_vec(w_eff.dims().to_vec(), dw)?,
        db,
    ))
}

/// Attention-core backward (recomputes per-head softmax probabilities).
fn core_backward(
    attn: &Attention,
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    d_core: &Tensor,
) -> Result<(Tensor, Tensor, Tensor)> {
    let t = q.dims()[0];
    let c = attn.width();
    let dh = c / attn.heads;
    let scale = 1.0 / (dh as f32).sqrt();
    let mut dq = vec![0.0f32; t * c];
    let mut dk = vec![0.0f32; t * c];
    let mut dv = vec![0.0f32; t * c];
    for h in 0..attn.heads {
        // Recompute probabilities for this head.
        let mut scores = vec![0.0f32; t * t];
        for i in 0..t {
            for j in 0..t {
                if attn.causal && j > i {
                    scores[i * t + j] = f32::NEG_INFINITY;
                    continue;
                }
                let mut acc = 0.0f32;
                for d in 0..dh {
                    acc += q.data()[i * c + h * dh + d] * k.data()[j * c + h * dh + d];
                }
                scores[i * t + j] = acc * scale;
            }
        }
        let probs = flexiq_nn::ops::act::softmax_lastdim(&Tensor::from_vec([t, t], scores)?)?;
        let p = probs.data();
        // dV_h = Pᵀ dC_h ; dP = dC_h V_hᵀ.
        let mut dp = vec![0.0f32; t * t];
        for i in 0..t {
            for j in 0..t {
                let mut acc = 0.0f32;
                for d in 0..dh {
                    acc += d_core.data()[i * c + h * dh + d] * v.data()[j * c + h * dh + d];
                }
                dp[i * t + j] = acc;
            }
        }
        for j in 0..t {
            for d in 0..dh {
                let mut acc = 0.0f32;
                for i in 0..t {
                    acc += p[i * t + j] * d_core.data()[i * c + h * dh + d];
                }
                dv[j * c + h * dh + d] += acc;
            }
        }
        // dS = P ⊙ (dP - rowsum(dP ⊙ P)).
        let mut ds = vec![0.0f32; t * t];
        for i in 0..t {
            let mut row_dot = 0.0f32;
            for j in 0..t {
                row_dot += dp[i * t + j] * p[i * t + j];
            }
            for j in 0..t {
                ds[i * t + j] = p[i * t + j] * (dp[i * t + j] - row_dot);
            }
        }
        // dQ_h = dS K_h * scale ; dK_h = dSᵀ Q_h * scale.
        for i in 0..t {
            for d in 0..dh {
                let mut acc = 0.0f32;
                for j in 0..t {
                    acc += ds[i * t + j] * k.data()[j * c + h * dh + d];
                }
                dq[i * c + h * dh + d] += acc * scale;
            }
        }
        for j in 0..t {
            for d in 0..dh {
                let mut acc = 0.0f32;
                for i in 0..t {
                    acc += ds[i * t + j] * q.data()[i * c + h * dh + d];
                }
                dk[j * c + h * dh + d] += acc * scale;
            }
        }
    }
    Ok((
        Tensor::from_vec([t, c], dq)?,
        Tensor::from_vec([t, c], dk)?,
        Tensor::from_vec([t, c], dv)?,
    ))
}

/// Runs the backward pass, returning per-layer gradients.
pub fn backward(graph: &Graph, tape: &Tape, d_output: Tensor) -> Result<Grads> {
    let n = graph.nodes().len();
    let mut grads = Grads::new(graph.num_layers());
    let mut d_node: Vec<Option<Tensor>> = vec![None; n];
    let output = graph.output()?;
    d_node[output] = Some(d_output);

    let push = |d_node: &mut Vec<Option<Tensor>>, id: NodeId, g: Tensor| -> Result<()> {
        match &mut d_node[id] {
            Some(existing) => existing.add_assign(&g)?,
            slot @ None => *slot = Some(g),
        }
        Ok(())
    };

    for &nid in tape.topo.iter().rev() {
        let Some(dy) = d_node[nid].take() else {
            continue;
        };
        let node = graph.node(nid)?;
        let in_val = |slot: usize| -> Result<&Tensor> {
            tape.value(node.inputs[slot])
                .ok_or_else(|| NnError::Invalid(format!("missing value for node {nid}")))
        };
        match (&node.op, &tape.aux[nid]) {
            (Op::Input, _) | (Op::Embedding(_), _) => {}
            (Op::Linear(_), NodeAux::Lin(aux)) => {
                let (dx, dw, db) = linear_backward(&aux.x_eff, &aux.w_fq.value, &dy)?;
                let dw = aux.w_fq.apply_mask(dw);
                accumulate_layer(&mut grads, node.layers[0], dw, db)?;
                push(&mut d_node, node.inputs[0], dx)?;
            }
            (Op::Conv2d(conv), NodeAux::Conv(aux)) => {
                let (dx, dw, db) = conv_backward(conv, &aux.x_eff, &aux.w_fq.value, &dy)?;
                let dw = aux.w_fq.apply_mask(dw);
                accumulate_layer(&mut grads, node.layers[0], dw, db)?;
                push(&mut d_node, node.inputs[0], dx)?;
            }
            (Op::Attention(attn), NodeAux::Attn(aux)) => {
                let dx = attention_backward(attn, None, node, aux, &dy, &mut grads)?;
                push(&mut d_node, node.inputs[0], dx)?;
            }
            (Op::WindowAttention(wa), NodeAux::Attn(aux)) => {
                let dx = attention_backward(&wa.attn, Some(wa), node, aux, &dy, &mut grads)?;
                push(&mut d_node, node.inputs[0], dx)?;
            }
            (Op::BatchNorm(bn), _) => {
                let x = in_val(0)?;
                let dims = x.dims();
                let hw = dims[1] * dims[2];
                let mut dx = dy.clone();
                for c in 0..bn.channels() {
                    let inv = bn.gamma[c] / (bn.var[c] + bn.eps).sqrt();
                    for v in &mut dx.data_mut()[c * hw..(c + 1) * hw] {
                        *v *= inv;
                    }
                }
                push(&mut d_node, node.inputs[0], dx)?;
            }
            (Op::LayerNorm(ln), _) => {
                let x = in_val(0)?;
                let c = ln.features();
                let t = x.numel() / c;
                let mut dx = vec![0.0f32; x.numel()];
                for ti in 0..t {
                    let row = &x.data()[ti * c..(ti + 1) * c];
                    let mean = row.iter().sum::<f32>() / c as f32;
                    let var = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / c as f32;
                    let sigma = (var + ln.eps).sqrt();
                    // dxhat_i = dy_i * gamma_i.
                    let dxhat: Vec<f32> = (0..c)
                        .map(|i| dy.data()[ti * c + i] * ln.gamma[i])
                        .collect();
                    let m1 = dxhat.iter().sum::<f32>() / c as f32;
                    let xhat: Vec<f32> = row.iter().map(|&v| (v - mean) / sigma).collect();
                    let m2 = dxhat
                        .iter()
                        .zip(xhat.iter())
                        .map(|(a, b)| a * b)
                        .sum::<f32>()
                        / c as f32;
                    for i in 0..c {
                        dx[ti * c + i] = (dxhat[i] - m1 - xhat[i] * m2) / sigma;
                    }
                }
                push(
                    &mut d_node,
                    node.inputs[0],
                    Tensor::from_vec(x.dims().to_vec(), dx)?,
                )?;
            }
            (Op::Relu, _) => {
                let x = in_val(0)?;
                let dx = dy.zip_map(x, |g, v| if v > 0.0 { g } else { 0.0 })?;
                push(&mut d_node, node.inputs[0], dx)?;
            }
            (Op::Gelu, _) => {
                let x = in_val(0)?;
                let dx = dy.zip_map(x, |g, v| g * gelu_derivative(v))?;
                push(&mut d_node, node.inputs[0], dx)?;
            }
            (Op::Add, _) => {
                push(&mut d_node, node.inputs[0], dy.clone())?;
                push(&mut d_node, node.inputs[1], dy)?;
            }
            (Op::AddParam(_), _) => {
                push(&mut d_node, node.inputs[0], dy)?;
            }
            (Op::MaxPool { k, stride }, _) => {
                let x = in_val(0)?;
                let dx = max_pool_backward(x, &dy, *k, *stride)?;
                push(&mut d_node, node.inputs[0], dx)?;
            }
            (Op::AvgPool { k, stride }, _) => {
                let x = in_val(0)?;
                let dx = avg_pool_backward(x, &dy, *k, *stride)?;
                push(&mut d_node, node.inputs[0], dx)?;
            }
            (Op::GlobalAvgPool, _) => {
                let x = in_val(0)?;
                let dims = x.dims();
                let (c, hw) = (dims[0], dims[1] * dims[2]);
                let mut dx = vec![0.0f32; x.numel()];
                for ci in 0..c {
                    let g = dy.data()[ci] / hw as f32;
                    for v in &mut dx[ci * hw..(ci + 1) * hw] {
                        *v = g;
                    }
                }
                push(
                    &mut d_node,
                    node.inputs[0],
                    Tensor::from_vec(dims.to_vec(), dx)?,
                )?;
            }
            (Op::ToTokens, _) => {
                // Inverse of [C,H,W] → [H*W, C].
                let x = in_val(0)?;
                let dims = x.dims();
                let (c, h, w) = (dims[0], dims[1], dims[2]);
                let mut dx = vec![0.0f32; x.numel()];
                for hw_i in 0..h * w {
                    for ci in 0..c {
                        dx[ci * h * w + hw_i] = dy.data()[hw_i * c + ci];
                    }
                }
                push(
                    &mut d_node,
                    node.inputs[0],
                    Tensor::from_vec(dims.to_vec(), dx)?,
                )?;
            }
            (Op::MeanTokens, _) => {
                let x = in_val(0)?;
                let (t, c) = (x.dims()[0], x.dims()[1]);
                let mut dx = vec![0.0f32; t * c];
                for ti in 0..t {
                    for ci in 0..c {
                        dx[ti * c + ci] = dy.data()[ci] / t as f32;
                    }
                }
                push(&mut d_node, node.inputs[0], Tensor::from_vec([t, c], dx)?)?;
            }
            (Op::PatchMerge { h, w }, _) => {
                let x = in_val(0)?;
                let c = x.dims()[1];
                let (oh, ow) = (h / 2, w / 2);
                let mut dx = vec![0.0f32; x.numel()];
                let quad = [(0usize, 0usize), (1, 0), (0, 1), (1, 1)];
                for oy in 0..oh {
                    for ox in 0..ow {
                        let src = (oy * ow + ox) * 4 * c;
                        for (qi, (dyq, dxq)) in quad.iter().enumerate() {
                            let dst = ((2 * oy + dyq) * w + 2 * ox + dxq) * c;
                            for i in 0..c {
                                dx[dst + i] += dy.data()[src + qi * c + i];
                            }
                        }
                    }
                }
                push(
                    &mut d_node,
                    node.inputs[0],
                    Tensor::from_vec(x.dims().to_vec(), dx)?,
                )?;
            }
            (Op::Reorder(perm), _) => {
                let dx = flexiq_nn::ops::tokens::reorder_channels(&dy, &invert_perm(perm))?;
                push(&mut d_node, node.inputs[0], dx)?;
            }
            (op, _) => {
                return Err(NnError::Invalid(format!(
                    "missing backward for op `{}`",
                    op.name()
                )))
            }
        }
    }
    Ok(grads)
}

fn accumulate_layer(grads: &mut Grads, layer: LayerId, dw: Tensor, db: Vec<f32>) -> Result<()> {
    match &mut grads.w[layer] {
        Some(g) => g.add_assign(&dw)?,
        slot @ None => *slot = Some(dw),
    }
    match &mut grads.b[layer] {
        Some(g) => {
            for (a, b) in g.iter_mut().zip(db.iter()) {
                *a += b;
            }
        }
        slot @ None => *slot = Some(db),
    }
    Ok(())
}

fn attention_backward(
    attn: &Attention,
    wa: Option<&WindowAttention>,
    node: &flexiq_nn::graph::Node,
    aux: &AttnAux,
    dy: &Tensor,
    grads: &mut Grads,
) -> Result<Tensor> {
    // Output projection.
    let (d_core_eff, dwo, dbo) = linear_backward(&aux.core_eff, &aux.wo.value, dy)?;
    accumulate_layer(grads, node.layers[3], aux.wo.apply_mask(dwo), dbo)?;
    // Core (STE through the activation fake-quant of the o input).
    let (dq, dk, dv) = match wa {
        None => core_backward(attn, &aux.q, &aux.k, &aux.v, &d_core_eff)?,
        Some(wa) => {
            let qw = wa.partition(&aux.q)?;
            let kw = wa.partition(&aux.k)?;
            let vw = wa.partition(&aux.v)?;
            let dw_core = wa.partition(&d_core_eff)?;
            let mut dqs = Vec::with_capacity(qw.len());
            let mut dks = Vec::with_capacity(qw.len());
            let mut dvs = Vec::with_capacity(qw.len());
            for i in 0..qw.len() {
                let (a, b, c) = core_backward(attn, &qw[i], &kw[i], &vw[i], &dw_core[i])?;
                dqs.push(a);
                dks.push(b);
                dvs.push(c);
            }
            (wa.merge(&dqs)?, wa.merge(&dks)?, wa.merge(&dvs)?)
        }
    };
    // Q/K/V projections (shared input).
    let (dx_q, dwq, dbq) = linear_backward(&aux.x_eff, &aux.wq.value, &dq)?;
    let (dx_k, dwk, dbk) = linear_backward(&aux.x_eff, &aux.wk.value, &dk)?;
    let (dx_v, dwv, dbv) = linear_backward(&aux.x_eff, &aux.wv.value, &dv)?;
    accumulate_layer(grads, node.layers[0], aux.wq.apply_mask(dwq), dbq)?;
    accumulate_layer(grads, node.layers[1], aux.wk.apply_mask(dwk), dbk)?;
    accumulate_layer(grads, node.layers[2], aux.wv.apply_mask(dwv), dbv)?;
    let mut dx = dx_q;
    dx.add_assign(&dx_k)?;
    dx.add_assign(&dx_v)?;
    Ok(dx)
}

fn gelu_derivative(v: f32) -> f32 {
    const C: f32 = 0.797_884_6;
    let u = C * (v + 0.044715 * v * v * v);
    let th = u.tanh();
    let du = C * (1.0 + 3.0 * 0.044715 * v * v);
    0.5 * (1.0 + th) + 0.5 * v * (1.0 - th * th) * du
}

fn max_pool_backward(x: &Tensor, dy: &Tensor, k: usize, stride: usize) -> Result<Tensor> {
    let dims = x.dims();
    let (c, h, w) = (dims[0], dims[1], dims[2]);
    let (oh, ow) = (dy.dims()[1], dy.dims()[2]);
    let mut dx = vec![0.0f32; x.numel()];
    for ci in 0..c {
        for oy in 0..oh {
            for ox in 0..ow {
                // Find the argmax tap (ties: first).
                let mut best = (0usize, 0usize);
                let mut best_v = f32::NEG_INFINITY;
                for dyi in 0..k {
                    for dxi in 0..k {
                        let v = x.data()[(ci * h + oy * stride + dyi) * w + ox * stride + dxi];
                        if v > best_v {
                            best_v = v;
                            best = (dyi, dxi);
                        }
                    }
                }
                dx[(ci * h + oy * stride + best.0) * w + ox * stride + best.1] +=
                    dy.data()[(ci * oh + oy) * ow + ox];
            }
        }
    }
    Ok(Tensor::from_vec(dims.to_vec(), dx)?)
}

fn avg_pool_backward(x: &Tensor, dy: &Tensor, k: usize, stride: usize) -> Result<Tensor> {
    let dims = x.dims();
    let (c, h, w) = (dims[0], dims[1], dims[2]);
    let (oh, ow) = (dy.dims()[1], dy.dims()[2]);
    let norm = 1.0 / (k * k) as f32;
    let mut dx = vec![0.0f32; x.numel()];
    for ci in 0..c {
        for oy in 0..oh {
            for ox in 0..ow {
                let g = dy.data()[(ci * oh + oy) * ow + ox] * norm;
                for dyi in 0..k {
                    for dxi in 0..k {
                        dx[(ci * h + oy * stride + dyi) * w + ox * stride + dxi] += g;
                    }
                }
            }
        }
    }
    Ok(Tensor::from_vec(dims.to_vec(), dx)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexiq_nn::graph::LayerViewMut;
    use flexiq_nn::ops::{BatchNorm2d, LayerNorm};
    use flexiq_tensor::rng::seeded;

    /// Finite-difference gradient check of the loss `0.5 * ||f(x)||²`
    /// with respect to every weight of every layer.
    fn grad_check(graph: &mut Graph, input: &Tensor, tol: f32) {
        let (y, tape) = forward(graph, input, QuantMode::Fp32, &[]).unwrap();
        let grads = backward(graph, &tape, y.clone()).unwrap();
        let eps = 1e-2f32;
        for l in 0..graph.num_layers() {
            let Some(gw) = &grads.w[l] else { continue };
            let gw = gw.clone();
            // Check a few entries per layer.
            let n = gw.numel();
            for idx in [0, n / 2, n - 1] {
                let orig = graph.layer(l).unwrap().weight().data()[idx];
                set_weight(graph, l, idx, orig + eps);
                let (y1, _) = forward(graph, input, QuantMode::Fp32, &[]).unwrap();
                set_weight(graph, l, idx, orig - eps);
                let (y2, _) = forward(graph, input, QuantMode::Fp32, &[]).unwrap();
                set_weight(graph, l, idx, orig);
                let f1: f32 = y1.data().iter().map(|v| 0.5 * v * v).sum();
                let f2: f32 = y2.data().iter().map(|v| 0.5 * v * v).sum();
                let numeric = (f1 - f2) / (2.0 * eps);
                let analytic = gw.data()[idx];
                let denom = numeric.abs().max(analytic.abs()).max(1e-3);
                assert!(
                    (numeric - analytic).abs() / denom < tol,
                    "layer {l} idx {idx}: numeric {numeric} vs analytic {analytic}"
                );
            }
        }
    }

    fn set_weight(graph: &mut Graph, l: LayerId, idx: usize, v: f32) {
        match graph.layer_mut(l).unwrap() {
            LayerViewMut::Conv(c) => c.weight.data_mut()[idx] = v,
            LayerViewMut::Linear(li) => li.weight.data_mut()[idx] = v,
        }
    }

    #[test]
    fn grad_check_linear_relu_chain() {
        let mut rng = seeded(161);
        let mut g = Graph::new("lin");
        let x = g.input();
        let l1 = g
            .linear(
                x,
                Linear::new(
                    Tensor::randn([6, 4], 0.0, 0.5, &mut rng),
                    Some(vec![0.1; 6]),
                )
                .unwrap(),
            )
            .unwrap();
        let r = g.relu(l1).unwrap();
        let l2 = g
            .linear(
                r,
                Linear::new(Tensor::randn([3, 6], 0.0, 0.5, &mut rng), None).unwrap(),
            )
            .unwrap();
        g.set_output(l2).unwrap();
        let input = Tensor::randn([4], 0.0, 1.0, &mut rng);
        grad_check(&mut g, &input, 0.05);
    }

    #[test]
    fn grad_check_conv_bn_pool() {
        let mut rng = seeded(162);
        let mut g = Graph::new("conv");
        let x = g.input();
        let c1 = g
            .conv2d(
                x,
                Conv2d::new(
                    Tensor::randn([4, 2, 3, 3], 0.0, 0.4, &mut rng),
                    Some(vec![0.05; 4]),
                    1,
                    1,
                    1,
                )
                .unwrap(),
            )
            .unwrap();
        let bn = BatchNorm2d::new(
            vec![1.2, 0.8, 1.0, 0.9],
            vec![0.0; 4],
            vec![0.1; 4],
            vec![1.5; 4],
            1e-5,
        )
        .unwrap();
        let b = g.batch_norm(c1, bn).unwrap();
        let r = g.gelu(b).unwrap();
        let p = g.add_node(Op::GlobalAvgPool, vec![r]).unwrap();
        let l = g
            .linear(
                p,
                Linear::new(Tensor::randn([3, 4], 0.0, 0.5, &mut rng), None).unwrap(),
            )
            .unwrap();
        g.set_output(l).unwrap();
        let input = Tensor::randn([2, 5, 5], 0.0, 1.0, &mut rng);
        grad_check(&mut g, &input, 0.05);
    }

    #[test]
    fn grad_check_residual_and_pools() {
        // Seed choice matters here: the finite-difference probe is invalid
        // when a ±eps weight nudge flips a MaxPool argmax (the loss is only
        // piecewise smooth); seed 165 keeps all probed weights away from
        // pooling decision boundaries.
        let mut rng = seeded(165);
        let mut g = Graph::new("res");
        let x = g.input();
        let c1 = g
            .conv2d(
                x,
                Conv2d::new(
                    Tensor::randn([2, 2, 3, 3], 0.0, 0.4, &mut rng),
                    None,
                    1,
                    1,
                    1,
                )
                .unwrap(),
            )
            .unwrap();
        let s = g.add(c1, x).unwrap();
        let mp = g
            .add_node(Op::MaxPool { k: 2, stride: 2 }, vec![s])
            .unwrap();
        let ap = g
            .add_node(Op::AvgPool { k: 2, stride: 2 }, vec![mp])
            .unwrap();
        let gp = g.add_node(Op::GlobalAvgPool, vec![ap]).unwrap();
        let l = g
            .linear(
                gp,
                Linear::new(Tensor::randn([2, 2], 0.0, 0.5, &mut rng), None).unwrap(),
            )
            .unwrap();
        g.set_output(l).unwrap();
        let input = Tensor::randn([2, 8, 8], 0.0, 1.0, &mut rng);
        grad_check(&mut g, &input, 0.08);
    }

    #[test]
    fn grad_check_attention_block() {
        let mut rng = seeded(164);
        let mut g = Graph::new("attn");
        let x = g.input();
        let ln = g.layer_norm(x, LayerNorm::identity(4)).unwrap();
        let mk = |rng: &mut _| {
            Linear::new(Tensor::randn([4, 4], 0.0, 0.4, rng), Some(vec![0.01; 4])).unwrap()
        };
        let attn = Attention::new(
            mk(&mut rng),
            mk(&mut rng),
            mk(&mut rng),
            mk(&mut rng),
            2,
            false,
        )
        .unwrap();
        let a = g.attention(ln, attn).unwrap();
        let s = g.add(a, x).unwrap();
        let m = g.add_node(Op::MeanTokens, vec![s]).unwrap();
        let l = g
            .linear(
                m,
                Linear::new(Tensor::randn([2, 4], 0.0, 0.5, &mut rng), None).unwrap(),
            )
            .unwrap();
        g.set_output(l).unwrap();
        let input = Tensor::randn([3, 4], 0.0, 0.8, &mut rng);
        grad_check(&mut g, &input, 0.08);
    }

    #[test]
    fn grad_check_window_attention_and_patch_merge() {
        let mut rng = seeded(165);
        let mut g = Graph::new("swin");
        let x = g.input();
        let mk = |rng: &mut _| Linear::new(Tensor::randn([4, 4], 0.0, 0.4, rng), None).unwrap();
        let attn = Attention::new(
            mk(&mut rng),
            mk(&mut rng),
            mk(&mut rng),
            mk(&mut rng),
            2,
            false,
        )
        .unwrap();
        let wa = WindowAttention::new(attn, 4, 4, 2, true).unwrap();
        let a = g.window_attention(x, wa).unwrap();
        let s = g.add(a, x).unwrap();
        let pm = g.add_node(Op::PatchMerge { h: 4, w: 4 }, vec![s]).unwrap();
        let red = g
            .linear(
                pm,
                Linear::new(Tensor::randn([4, 16], 0.0, 0.3, &mut rng), None).unwrap(),
            )
            .unwrap();
        let m = g.add_node(Op::MeanTokens, vec![red]).unwrap();
        g.set_output(m).unwrap();
        let input = Tensor::randn([16, 4], 0.0, 0.8, &mut rng);
        grad_check(&mut g, &input, 0.08);
    }

    #[test]
    fn grad_check_causal_lm_block() {
        let mut rng = seeded(166);
        let mut g = Graph::new("lm");
        let x = g.input();
        let emb =
            flexiq_nn::ops::Embedding::new(Tensor::randn([6, 4], 0.0, 1.0, &mut rng)).unwrap();
        let e = g.add_node(Op::Embedding(emb), vec![x]).unwrap();
        // A 6-position table under a 4-token prompt: the positional
        // prefix rule (first 4 rows apply), as on a short LM prompt.
        let pos = Tensor::randn([6, 4], 0.0, 0.5, &mut seeded(266));
        let e = g.add_node(Op::AddParam(pos), vec![e]).unwrap();
        let mk = |rng: &mut _| Linear::new(Tensor::randn([4, 4], 0.0, 0.4, rng), None).unwrap();
        let attn = Attention::new(
            mk(&mut rng),
            mk(&mut rng),
            mk(&mut rng),
            mk(&mut rng),
            2,
            true,
        )
        .unwrap();
        let a = g.attention(e, attn).unwrap();
        let head = g
            .linear(
                a,
                Linear::new(Tensor::randn([6, 4], 0.0, 0.5, &mut rng), None).unwrap(),
            )
            .unwrap();
        g.set_output(head).unwrap();
        let ids = Tensor::from_vec([4], vec![0.0, 1.0, 2.0, 3.0]).unwrap();
        grad_check(&mut g, &ids, 0.08);
    }

    #[test]
    fn short_prompt_forward_matches_the_executor_bit_for_bit() {
        // TinyLm's positional table covers the full context (8 at
        // `Scale::Test`); a 3-token prompt adds its first 3 rows. The
        // training forward shares the executor's arm for that operator,
        // so it accepts the prompt and lands on the same bits.
        use flexiq_nn::zoo::{ModelId, Scale};
        let g = ModelId::TinyLm.build(Scale::Test).unwrap();
        let prompt = Tensor::from_vec([3], vec![2.0, 9.0, 4.0]).unwrap();
        let want = exec::run_f32(&g, &prompt).unwrap();
        let (got, tape) = forward(&g, &prompt, QuantMode::Fp32, &[]).unwrap();
        assert_eq!(got.dims(), want.dims());
        for (i, (a, b)) in got.data().iter().zip(want.data()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "logit {i}");
        }
        let grads = backward(&g, &tape, got).unwrap();
        assert!(
            grads.w.iter().all(Option::is_some),
            "a layer got no gradient"
        );
        assert!(grads.l2_norm().is_finite() && grads.l2_norm() > 0.0);
    }

    #[test]
    fn quantized_forward_matches_inference_fake_path_loosely() {
        // The training forward with Int8 should land close to the f32
        // forward (within quantization noise).
        let mut rng = seeded(167);
        let mut g = Graph::new("q");
        let x = g.input();
        let l1 = g
            .linear(
                x,
                Linear::new(Tensor::randn([8, 8], 0.0, 0.4, &mut rng), None).unwrap(),
            )
            .unwrap();
        let r = g.relu(l1).unwrap();
        let l2 = g
            .linear(
                r,
                Linear::new(Tensor::randn([4, 8], 0.0, 0.4, &mut rng), None).unwrap(),
            )
            .unwrap();
        g.set_output(l2).unwrap();
        let input = Tensor::randn([8], 0.0, 1.0, &mut rng);
        let (y_fp, _) = forward(&g, &input, QuantMode::Fp32, &[]).unwrap();
        let (y_q, _) = forward(&g, &input, QuantMode::Int8, &[]).unwrap();
        let rel = flexiq_tensor::stats::l2_distance(y_fp.data(), y_q.data())
            / flexiq_tensor::stats::l2_norm(y_fp.data()).max(1e-6);
        assert!(rel < 0.05, "int8 training forward diverges: {rel}");
    }

    #[test]
    fn grads_accumulate_and_scale() {
        let mut a = Grads::new(2);
        a.w[0] = Some(Tensor::ones([2]));
        a.b[0] = Some(vec![1.0, 1.0]);
        let mut b = Grads::new(2);
        b.w[0] = Some(Tensor::ones([2]));
        b.w[1] = Some(Tensor::ones([3]));
        a.accumulate(&b).unwrap();
        assert_eq!(a.w[0].as_ref().unwrap().data(), &[2.0, 2.0]);
        assert_eq!(a.w[1].as_ref().unwrap().data(), &[1.0, 1.0, 1.0]);
        a.scale(0.5);
        assert_eq!(a.w[0].as_ref().unwrap().data(), &[1.0, 1.0]);
        assert!(a.l2_norm() > 0.0);
    }
}
