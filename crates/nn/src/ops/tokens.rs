//! Token-layout operators for transformer models.

use flexiq_tensor::Tensor;

use crate::error::NnError;
use crate::ops::{split_sample, split_stack, stack_dims};
use crate::Result;

/// Converts a CNN activation `[C, H, W]` into a token matrix `[H*W, C]`.
pub fn to_tokens(x: &Tensor) -> Result<Tensor> {
    to_tokens_n(x, false)
}

/// Batched [`to_tokens`]: `[N, C, H, W]` → `[N, H*W, C]` (pure data
/// movement, bit-exact per sample).
pub fn to_tokens_batch(x: &Tensor) -> Result<Tensor> {
    to_tokens_n(x, true)
}

pub(crate) fn to_tokens_n(x: &Tensor, stacked: bool) -> Result<Tensor> {
    let (n, [c, h, w]) = split_sample("to_tokens", x, stacked)?;
    let hw = h * w;
    let mut out = vec![0.0f32; n * hw * c];
    for s in 0..n {
        for ch in 0..c {
            for p in 0..hw {
                out[(s * hw + p) * c + ch] = x.data()[(s * c + ch) * hw + p];
            }
        }
    }
    Ok(Tensor::from_vec(stack_dims(stacked, n, &[hw, c]), out)?)
}

/// Mean over tokens: `[T, C]` → `[C]` (the zoo's pooling head).
pub fn mean_tokens(x: &Tensor) -> Result<Tensor> {
    mean_tokens_n(x, false)
}

/// Batched [`mean_tokens`]: `[N, T, C]` → `[N, C]`, summing tokens in the
/// same order as the single-sample op (bit-exact per sample).
pub fn mean_tokens_batch(x: &Tensor) -> Result<Tensor> {
    mean_tokens_n(x, true)
}

/// The one body: each sample averages its `T` token rows, in ascending
/// token order.
pub(crate) fn mean_tokens_n(x: &Tensor, stacked: bool) -> Result<Tensor> {
    let (n, [t, c]) = split_sample("mean_tokens", x, stacked)?;
    if t == 0 {
        return Err(NnError::BadActivation {
            op: "mean_tokens",
            expected: "non-empty [T, C] per sample".into(),
            got: x.dims().to_vec(),
        });
    }
    let mut out = vec![0.0f32; n * c];
    for s in 0..n {
        for ti in 0..t {
            for ci in 0..c {
                out[s * c + ci] += x.data()[(s * t + ti) * c + ci];
            }
        }
        for v in &mut out[s * c..(s + 1) * c] {
            *v /= t as f32;
        }
    }
    Ok(Tensor::from_vec(stack_dims(stacked, n, &[c]), out)?)
}

/// Swin-style patch merging: a `[h*w, C]` token grid becomes
/// `[(h/2)*(w/2), 4C]` by concatenating each 2×2 neighbourhood.
///
/// A linear `4C → 2C` reduction follows as a separate (quantizable) node.
pub fn patch_merge(x: &Tensor, h: usize, w: usize) -> Result<Tensor> {
    patch_merge_n(x, h, w, false)
}

/// Batched [`patch_merge`]: applies the 2×2 merge to every sample of an
/// `[N, h*w, C]` stack.
pub fn patch_merge_batch(x: &Tensor, h: usize, w: usize) -> Result<Tensor> {
    patch_merge_n(x, h, w, true)
}

pub(crate) fn patch_merge_n(x: &Tensor, h: usize, w: usize, stacked: bool) -> Result<Tensor> {
    let (n, [t, c]) = split_sample("patch_merge", x, stacked)?;
    if t != h * w {
        return Err(NnError::BadActivation {
            op: "patch_merge",
            expected: format!("[{} tokens, C] per sample", h * w),
            got: x.dims().to_vec(),
        });
    }
    if h % 2 != 0 || w % 2 != 0 {
        return Err(NnError::Invalid(format!(
            "patch_merge needs even grid, got {h}x{w}"
        )));
    }
    let (oh, ow) = (h / 2, w / 2);
    let mut out = vec![0.0f32; n * oh * ow * 4 * c];
    for s in 0..n {
        let xs = &x.data()[s * t * c..(s + 1) * t * c];
        for oy in 0..oh {
            for ox in 0..ow {
                let dst = ((s * oh + oy) * ow + ox) * 4 * c;
                // Order: (0,0), (1,0), (0,1), (1,1) — matches Swin's reference.
                let quad = [(0, 0), (1, 0), (0, 1), (1, 1)];
                for (qi, (dy, dx)) in quad.iter().enumerate() {
                    let src = ((2 * oy + dy) * w + 2 * ox + dx) * c;
                    out[dst + qi * c..dst + (qi + 1) * c].copy_from_slice(&xs[src..src + c]);
                }
            }
        }
    }
    Ok(Tensor::from_vec(
        stack_dims(stacked, n, &[oh * ow, 4 * c]),
        out,
    )?)
}

/// Permutes the channel dimension of an activation (layout pass, §5).
///
/// `perm[i] = j` means output channel `i` takes input channel `j`. The
/// channel axis is inferred from the layout conventions: axis 0 for
/// `[C, H, W]` and `[C]`, axis 1 for `[T, C]`.
pub fn reorder_channels(x: &Tensor, perm: &[usize]) -> Result<Tensor> {
    reorder_channels_n(x, perm, false)
}

/// Batched [`reorder_channels`]: applies the permutation to every sample
/// of a stacked activation (the sample rank decides the channel axis,
/// exactly as in the single-sample op).
pub fn reorder_channels_batch(x: &Tensor, perm: &[usize]) -> Result<Tensor> {
    reorder_channels_n(x, perm, true)
}

pub(crate) fn reorder_channels_n(x: &Tensor, perm: &[usize], stacked: bool) -> Result<Tensor> {
    // Every layout is `outer` blocks of `C` runs of `inner` elements:
    // `[C, H, W]` moves whole planes, `[T, C]` and `[C]` single values.
    let (outer, c, inner) = match split_stack("reorder", x, stacked)? {
        (n, &[c, h, w]) => (n, c, h * w),
        (n, &[t, c]) => (n * t, c, 1),
        (n, &[c]) => (n, c, 1),
        _ => {
            return Err(NnError::BadActivation {
                op: "reorder",
                expected: "rank 1..=3 activation per sample".into(),
                got: x.dims().to_vec(),
            })
        }
    };
    check_perm(perm, c)?;
    let block = c * inner;
    let mut out = vec![0.0f32; x.numel()];
    for b in 0..outer {
        for (i, &j) in perm.iter().enumerate() {
            let (dst, src) = (b * block + i * inner, b * block + j * inner);
            out[dst..dst + inner].copy_from_slice(&x.data()[src..src + inner]);
        }
    }
    Ok(Tensor::from_vec(x.dims().to_vec(), out)?)
}

fn check_perm(perm: &[usize], c: usize) -> Result<()> {
    if perm.len() != c {
        return Err(NnError::Invalid(format!(
            "permutation length {} != channels {c}",
            perm.len()
        )));
    }
    let mut seen = vec![false; c];
    for &p in perm {
        if p >= c || seen[p] {
            return Err(NnError::Invalid(format!("invalid permutation entry {p}")));
        }
        seen[p] = true;
    }
    Ok(())
}

/// Inverts a permutation.
pub fn invert_perm(perm: &[usize]) -> Vec<usize> {
    let mut inv = vec![0usize; perm.len()];
    for (i, &p) in perm.iter().enumerate() {
        inv[p] = i;
    }
    inv
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn to_tokens_transposes_correctly() {
        // [2, 1, 2]: channels {a,b} at two positions.
        let x = Tensor::from_vec([2, 1, 2], vec![1.0, 2.0, 10.0, 20.0]).unwrap();
        let t = to_tokens(&x).unwrap();
        assert_eq!(t.dims(), &[2, 2]);
        // Token 0 = (position 0 of each channel).
        assert_eq!(t.data(), &[1.0, 10.0, 2.0, 20.0]);
    }

    #[test]
    fn mean_tokens_averages() {
        let x = Tensor::from_vec([2, 2], vec![1.0, 2.0, 3.0, 6.0]).unwrap();
        assert_eq!(mean_tokens(&x).unwrap().data(), &[2.0, 4.0]);
        assert!(mean_tokens(&Tensor::zeros([0, 2])).is_err());
    }

    #[test]
    fn patch_merge_concatenates_quads() {
        // 2x2 grid, 1 channel, tokens valued 0..4 row-major.
        let x = Tensor::from_vec([4, 1], vec![0.0, 1.0, 2.0, 3.0]).unwrap();
        let y = patch_merge(&x, 2, 2).unwrap();
        assert_eq!(y.dims(), &[1, 4]);
        // Quad order (0,0), (1,0), (0,1), (1,1) = tokens 0, 2, 1, 3.
        assert_eq!(y.data(), &[0.0, 2.0, 1.0, 3.0]);
    }

    #[test]
    fn patch_merge_validates() {
        let x = Tensor::zeros([6, 2]);
        assert!(patch_merge(&x, 3, 2).is_err()); // odd grid
        assert!(patch_merge(&x, 2, 2).is_err()); // token mismatch
    }

    #[test]
    fn reorder_cnn_and_token_layouts() {
        let x = Tensor::from_vec([2, 1, 1], vec![1.0, 2.0]).unwrap();
        let y = reorder_channels(&x, &[1, 0]).unwrap();
        assert_eq!(y.data(), &[2.0, 1.0]);

        let t = Tensor::from_vec([2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let y = reorder_channels(&t, &[1, 0]).unwrap();
        assert_eq!(y.data(), &[2.0, 1.0, 4.0, 3.0]);

        let v = Tensor::from_vec([3], vec![5.0, 6.0, 7.0]).unwrap();
        let y = reorder_channels(&v, &[2, 0, 1]).unwrap();
        assert_eq!(y.data(), &[7.0, 5.0, 6.0]);
    }

    #[test]
    fn batched_token_ops_match_per_sample() {
        use flexiq_tensor::rng::seeded;
        let mut rng = seeded(86);
        let imgs: Vec<Tensor> = (0..3)
            .map(|_| Tensor::randn([2, 4, 4], 0.0, 1.0, &mut rng))
            .collect();
        let tb = to_tokens_batch(&Tensor::stack(&imgs).unwrap()).unwrap();
        assert_eq!(tb.dims(), &[3, 16, 2]);
        let toks: Vec<Tensor> = imgs.iter().map(|s| to_tokens(s).unwrap()).collect();
        for (i, t) in toks.iter().enumerate() {
            assert_eq!(tb.index_axis0(i).unwrap().data(), t.data());
        }
        let stacked_toks = Tensor::stack(&toks).unwrap();
        let mb = mean_tokens_batch(&stacked_toks).unwrap();
        let pb = patch_merge_batch(&stacked_toks, 4, 4).unwrap();
        let rb = reorder_channels_batch(&stacked_toks, &[1, 0]).unwrap();
        for (i, t) in toks.iter().enumerate() {
            assert_eq!(
                mb.index_axis0(i).unwrap().data(),
                mean_tokens(t).unwrap().data()
            );
            assert_eq!(
                pb.index_axis0(i).unwrap().data(),
                patch_merge(t, 4, 4).unwrap().data()
            );
            assert_eq!(
                rb.index_axis0(i).unwrap().data(),
                reorder_channels(t, &[1, 0]).unwrap().data()
            );
        }
        assert!(to_tokens_batch(&Tensor::zeros([2, 4, 4])).is_err());
        assert!(mean_tokens_batch(&Tensor::zeros([2, 0, 4])).is_err());
        assert!(reorder_channels_batch(&Tensor::zeros([4]), &[0]).is_err());
    }

    #[test]
    fn reorder_then_inverse_is_identity() {
        let x = Tensor::from_vec([4], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let perm = vec![2, 0, 3, 1];
        let y = reorder_channels(&x, &perm).unwrap();
        let z = reorder_channels(&y, &invert_perm(&perm)).unwrap();
        assert_eq!(z.data(), x.data());
    }

    #[test]
    fn reorder_rejects_bad_perms() {
        let x = Tensor::zeros([3]);
        assert!(reorder_channels(&x, &[0, 1]).is_err());
        assert!(reorder_channels(&x, &[0, 0, 1]).is_err());
        assert!(reorder_channels(&x, &[0, 1, 3]).is_err());
    }
}
