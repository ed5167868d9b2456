//! Operator implementations.
//!
//! Parameter-carrying operators live in their own modules; pure functions
//! (activations, pooling, token reshapes) are free functions over
//! [`flexiq_tensor::Tensor`].
//!
//! Every operator has **one** arithmetic body, written over `N` leading
//! samples: the single-sample entry point (`forward`, `max_pool2d`, …) is
//! that body at `N = 1` on the unstacked activation, the `_batch` entry
//! point is the same body on a stacked `[N, …]` activation. Neither
//! copies its input to change rank.

use flexiq_tensor::Tensor;

use crate::error::NnError;
use crate::Result;

pub mod act;
pub mod attention;
pub mod conv;
pub mod linear;
pub mod norm;
pub mod pool;
pub mod tokens;

pub use attention::{Attention, WindowAttention};
pub use conv::Conv2d;
pub use linear::{Embedding, Linear};
pub use norm::{BatchNorm2d, LayerNorm};

/// Splits an activation into `(N, per-sample dims)`: a single sample is
/// the batch of one, a stacked activation must carry a non-empty leading
/// batch axis.
pub(crate) fn split_stack<'a>(
    op: &'static str,
    x: &'a Tensor,
    stacked: bool,
) -> Result<(usize, &'a [usize])> {
    match x.dims() {
        dims if !stacked => Ok((1, dims)),
        [n, sample @ ..] if *n > 0 => Ok((*n, sample)),
        dims => Err(NnError::BadActivation {
            op,
            expected: "non-empty stacked activation [N, …]".into(),
            got: dims.to_vec(),
        }),
    }
}

/// [`split_stack`] for operators over rank-`R` samples: `(N, [C, H, W])`
/// for image operators, `(N, [T, C])` for token operators.
pub(crate) fn split_sample<const R: usize>(
    op: &'static str,
    x: &Tensor,
    stacked: bool,
) -> Result<(usize, [usize; R])> {
    let (n, sample) = split_stack(op, x, stacked)?;
    match <[usize; R]>::try_from(sample) {
        Ok(sample) => Ok((n, sample)),
        Err(_) => Err(NnError::BadActivation {
            op,
            expected: format!("rank-{R} activation per sample"),
            got: x.dims().to_vec(),
        }),
    }
}

/// Output dims of an `N`-sample body: the per-sample dims, behind the
/// batch axis when the input was stacked.
pub(crate) fn stack_dims(stacked: bool, n: usize, sample: &[usize]) -> Vec<usize> {
    let mut dims = Vec::with_capacity(sample.len() + 1);
    if stacked {
        dims.push(n);
    }
    dims.extend_from_slice(sample);
    dims
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_stacked_body_rejects_an_empty_batch() {
        let z = |dims: &[usize]| Tensor::zeros(dims.to_vec());
        let conv = Conv2d::new(z(&[2, 3, 1, 1]), None, 1, 0, 1).unwrap();
        let lin = Linear::new(z(&[2, 4]), None).unwrap();
        let sq = Linear::new(z(&[4, 4]), None).unwrap();
        let attn = Attention::new(sq.clone(), sq.clone(), sq.clone(), sq, 2, true).unwrap();
        let wa = WindowAttention::new(attn.clone(), 2, 2, 2, false).unwrap();
        let emb = Embedding::new(z(&[3, 4])).unwrap();
        let (img, toks) = (z(&[0, 3, 4, 4]), z(&[0, 4, 4]));
        let table: Vec<(&str, Result<Tensor>)> = vec![
            ("conv2d", conv.forward_batch(&img)),
            ("linear", lin.forward_batch(&toks)),
            ("batch_norm", BatchNorm2d::identity(3).forward_batch(&img)),
            ("layer_norm", LayerNorm::identity(4).forward_batch(&toks)),
            ("max_pool", pool::max_pool2d_batch(&img, 2, 2)),
            ("avg_pool", pool::avg_pool2d_batch(&img, 2, 2)),
            ("global_avg_pool", pool::global_avg_pool_batch(&img)),
            ("to_tokens", tokens::to_tokens_batch(&img)),
            ("mean_tokens", tokens::mean_tokens_batch(&toks)),
            ("patch_merge", tokens::patch_merge_batch(&toks, 2, 2)),
            (
                "reorder",
                tokens::reorder_channels_batch(&toks, &[0, 1, 2, 3]),
            ),
            ("attention", attn.core_n(&toks, &toks, &toks, true)),
            (
                "attention_kv",
                crate::kv::core_kv_n(
                    &attn,
                    &crate::kv::KvSpec::int8(2),
                    &toks,
                    &toks,
                    &toks,
                    true,
                ),
            ),
            ("window_attention", wa.core_n(&toks, &toks, &toks, true)),
            ("embedding", emb.forward_n(&z(&[0, 4]), true)),
        ];
        for (op, got) in table {
            assert!(
                matches!(got, Err(NnError::BadActivation { .. })),
                "{op} on N = 0: {got:?}"
            );
        }
    }
}
