//! Fully connected layer and token embedding.

use flexiq_tensor::{gemm, Tensor};

use crate::error::NnError;
use crate::ops::{split_sample, stack_dims};
use crate::Result;

/// A fully connected (dense) layer.
///
/// Weights follow the `[C_out, C_in]` layout. Inputs may be `[C_in]`
/// (vectors) or `[T, C_in]` (token matrices); the transform applies to the
/// last dimension.
#[derive(Debug, Clone, PartialEq)]
pub struct Linear {
    /// Weight matrix `[C_out, C_in]`.
    pub weight: Tensor,
    /// Optional per-output bias.
    pub bias: Option<Vec<f32>>,
}

impl Linear {
    /// Creates a linear layer, validating the weight layout.
    pub fn new(weight: Tensor, bias: Option<Vec<f32>>) -> Result<Self> {
        if weight.shape().rank() != 2 {
            return Err(NnError::BadActivation {
                op: "linear",
                expected: "rank-2 weight [C_out, C_in]".into(),
                got: weight.dims().to_vec(),
            });
        }
        if let Some(b) = &bias {
            if b.len() != weight.dims()[0] {
                return Err(NnError::Invalid(format!(
                    "bias length {} != C_out {}",
                    b.len(),
                    weight.dims()[0]
                )));
            }
        }
        Ok(Linear { weight, bias })
    }

    /// Output features.
    pub fn c_out(&self) -> usize {
        self.weight.dims()[0]
    }

    /// Input features.
    pub fn c_in(&self) -> usize {
        self.weight.dims()[1]
    }

    /// Interprets an activation as `(tokens, features)`, treating vectors
    /// as a single token.
    pub fn check_input(&self, x: &Tensor) -> Result<(usize, usize)> {
        let dims = x.dims();
        let (t, c) = match dims.len() {
            1 => (1, dims[0]),
            2 => (dims[0], dims[1]),
            _ => {
                return Err(NnError::BadActivation {
                    op: "linear",
                    expected: "rank-1 or rank-2 activation".into(),
                    got: dims.to_vec(),
                })
            }
        };
        if c != self.c_in() {
            return Err(NnError::BadActivation {
                op: "linear",
                expected: format!("last dim {}", self.c_in()),
                got: dims.to_vec(),
            });
        }
        Ok((t, c))
    }

    /// Reference f32 forward pass: `y = x · Wᵀ + b`.
    ///
    /// Runs the blocked weight-transposed GEMM ([`gemm::gemm_f32_wt`]):
    /// the `[C_out, C_in]` weight feeds the packed kernels directly (no
    /// transpose is materialized), large inputs band across the ambient
    /// thread pool inside the kernel, and every token's dot products
    /// keep their in-order reduction over `C_in` — so the output is
    /// bit-exact with the naive per-token loop at any thread count.
    pub fn forward(&self, x: &Tensor) -> Result<Tensor> {
        let (t, _) = self.check_input(x)?;
        self.forward_rows(x, t)
    }

    /// The one body: `rows` token rows of `C_in` in, the same dims with
    /// the last replaced by `C_out` out.
    fn forward_rows(&self, x: &Tensor, rows: usize) -> Result<Tensor> {
        let (c_in, c_out) = (self.c_in(), self.c_out());
        let mut out = vec![0.0f32; rows * c_out];
        gemm::gemm_f32_wt(rows, c_out, c_in, x.data(), self.weight.data(), &mut out);
        if let Some(bias) = &self.bias {
            for orow in out.chunks_exact_mut(c_out) {
                for (o, &b) in bias.iter().enumerate() {
                    orow[o] += b;
                }
            }
        }
        let mut dims = x.dims().to_vec();
        *dims.last_mut().expect("rank checked by the caller") = c_out;
        Ok(Tensor::from_vec(dims, out)?)
    }

    /// Interprets a stacked batch activation as `(N, tokens, features)`.
    ///
    /// Accepts `[N, C_in]` (vector samples, one token each) and
    /// `[N, T, C_in]` (token-matrix samples).
    pub fn check_input_batch(&self, x: &Tensor) -> Result<(usize, usize, usize)> {
        let dims = x.dims();
        let (n, t, c) = match dims.len() {
            2 => (dims[0], 1, dims[1]),
            3 => (dims[0], dims[1], dims[2]),
            _ => {
                return Err(NnError::BadActivation {
                    op: "linear",
                    expected: "rank-2 or rank-3 batched activation".into(),
                    got: dims.to_vec(),
                })
            }
        };
        if c != self.c_in() || n == 0 {
            return Err(NnError::BadActivation {
                op: "linear",
                expected: format!("non-empty batch with last dim {}", self.c_in()),
                got: dims.to_vec(),
            });
        }
        Ok((n, t, c))
    }

    /// Batched forward pass: the whole batch's tokens run through one
    /// row-matrix transform (`[N*T, C_in] → [N*T, C_out]`), bit-exact per
    /// sample with [`Linear::forward`].
    pub fn forward_batch(&self, x: &Tensor) -> Result<Tensor> {
        let (n, t, _) = self.check_input_batch(x)?;
        self.forward_rows(x, n * t)
    }
}

/// A token-embedding table for the language-model case study (§8.10).
///
/// Inputs are `[T]` tensors whose values are token ids; output is `[T, C]`.
/// Embeddings are not quantized (the paper quantizes convolution and
/// linear operations only).
#[derive(Debug, Clone, PartialEq)]
pub struct Embedding {
    /// Embedding table `[vocab, C]`.
    pub table: Tensor,
}

impl Embedding {
    /// Creates an embedding, validating the table layout.
    pub fn new(table: Tensor) -> Result<Self> {
        if table.shape().rank() != 2 {
            return Err(NnError::BadActivation {
                op: "embedding",
                expected: "rank-2 table [vocab, C]".into(),
                got: table.dims().to_vec(),
            });
        }
        Ok(Embedding { table })
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.table.dims()[0]
    }

    /// Embedding width.
    pub fn dim(&self) -> usize {
        self.table.dims()[1]
    }

    /// Looks up a sequence of token ids.
    pub fn forward(&self, ids: &Tensor) -> Result<Tensor> {
        self.forward_n(ids, false)
    }

    /// The one body: `N` id sequences (one when not `stacked`) of `T`
    /// ids each.
    pub(crate) fn forward_n(&self, ids: &Tensor, stacked: bool) -> Result<Tensor> {
        let (n, [t]) = split_sample("embedding", ids, stacked)?;
        let c = self.dim();
        let mut out = vec![0.0f32; n * t * c];
        for (ti, &idf) in ids.data().iter().enumerate() {
            let id = idf as usize;
            if idf < 0.0 || id >= self.vocab() || idf.fract() != 0.0 {
                return Err(NnError::Invalid(format!(
                    "token id {idf} invalid for vocab {}",
                    self.vocab()
                )));
            }
            out[ti * c..(ti + 1) * c].copy_from_slice(&self.table.data()[id * c..(id + 1) * c]);
        }
        Ok(Tensor::from_vec(stack_dims(stacked, n, &[t, c]), out)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexiq_tensor::rng::seeded;

    #[test]
    fn vector_and_token_inputs_agree() {
        let mut rng = seeded(91);
        let lin = Linear::new(
            Tensor::randn([3, 4], 0.0, 1.0, &mut rng),
            Some(vec![0.1, 0.2, 0.3]),
        )
        .unwrap();
        let x = Tensor::randn([4], 0.0, 1.0, &mut rng);
        let y_vec = lin.forward(&x).unwrap();
        let x2 = x.reshape([1, 4]).unwrap();
        let y_tok = lin.forward(&x2).unwrap();
        assert_eq!(y_vec.dims(), &[3]);
        assert_eq!(y_tok.dims(), &[1, 3]);
        for (a, b) in y_vec.data().iter().zip(y_tok.data().iter()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn matches_manual_matmul() {
        let lin = Linear::new(
            Tensor::from_vec([2, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap(),
            None,
        )
        .unwrap();
        let x = Tensor::from_vec([2, 3], vec![1., 0., 0., 0., 1., 0.]).unwrap();
        let y = lin.forward(&x).unwrap();
        // Token 0 picks column 0 of Wᵀ = first weights of each row.
        assert_eq!(y.data(), &[1., 4., 2., 5.]);
    }

    #[test]
    fn batched_forward_is_bit_exact_with_per_sample() {
        let mut rng = seeded(92);
        let lin = Linear::new(
            Tensor::randn([3, 4], 0.0, 0.5, &mut rng),
            Some(vec![0.1, -0.2, 0.3]),
        )
        .unwrap();
        // Vector samples [N, C] and token samples [N, T, C].
        let vecs: Vec<Tensor> = (0..3)
            .map(|_| Tensor::randn([4], 0.0, 1.0, &mut rng))
            .collect();
        let yb = lin.forward_batch(&Tensor::stack(&vecs).unwrap()).unwrap();
        assert_eq!(yb.dims(), &[3, 3]);
        for (i, v) in vecs.iter().enumerate() {
            let yi = lin.forward(v).unwrap();
            for (a, b) in yb.index_axis0(i).unwrap().data().iter().zip(yi.data()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        let toks: Vec<Tensor> = (0..2)
            .map(|_| Tensor::randn([5, 4], 0.0, 1.0, &mut rng))
            .collect();
        let yb = lin.forward_batch(&Tensor::stack(&toks).unwrap()).unwrap();
        assert_eq!(yb.dims(), &[2, 5, 3]);
        for (i, tm) in toks.iter().enumerate() {
            let yi = lin.forward(tm).unwrap();
            for (a, b) in yb.index_axis0(i).unwrap().data().iter().zip(yi.data()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        assert!(lin.forward_batch(&Tensor::zeros([4])).is_err());
        assert!(lin.forward_batch(&Tensor::zeros([0, 4])).is_err());
    }

    #[test]
    fn rejects_bad_inputs() {
        let lin = Linear::new(Tensor::zeros([2, 3]), None).unwrap();
        assert!(lin.forward(&Tensor::zeros([4])).is_err());
        assert!(lin.forward(&Tensor::zeros([2, 2, 3])).is_err());
        assert!(Linear::new(Tensor::zeros([2, 3, 1]), None).is_err());
        assert!(Linear::new(Tensor::zeros([2, 3]), Some(vec![0.0])).is_err());
    }

    #[test]
    fn embedding_lookup() {
        let table = Tensor::from_vec([3, 2], vec![0., 1., 10., 11., 20., 21.]).unwrap();
        let emb = Embedding::new(table).unwrap();
        let ids = Tensor::from_vec([3], vec![2.0, 0.0, 1.0]).unwrap();
        let y = emb.forward(&ids).unwrap();
        assert_eq!(y.data(), &[20., 21., 0., 1., 10., 11.]);
    }

    #[test]
    fn embedding_rejects_invalid_ids() {
        let emb = Embedding::new(Tensor::zeros([3, 2])).unwrap();
        assert!(emb
            .forward(&Tensor::from_vec([1], vec![3.0]).unwrap())
            .is_err());
        assert!(emb
            .forward(&Tensor::from_vec([1], vec![-1.0]).unwrap())
            .is_err());
        assert!(emb
            .forward(&Tensor::from_vec([1], vec![0.5]).unwrap())
            .is_err());
        assert!(emb.forward(&Tensor::zeros([1, 1])).is_err());
    }
}
