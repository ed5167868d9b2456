//! Normalization layers (inference mode).

use flexiq_tensor::Tensor;

use crate::error::NnError;
use crate::ops::{split_sample, split_stack};
use crate::Result;

/// Batch normalization over `[C, H, W]` activations, inference mode.
///
/// Uses frozen running statistics; finetuning keeps them fixed (standard
/// practice for quantization-aware finetuning).
#[derive(Debug, Clone, PartialEq)]
pub struct BatchNorm2d {
    /// Per-channel scale.
    pub gamma: Vec<f32>,
    /// Per-channel shift.
    pub beta: Vec<f32>,
    /// Frozen running mean.
    pub mean: Vec<f32>,
    /// Frozen running variance.
    pub var: Vec<f32>,
    /// Numerical-stability epsilon.
    pub eps: f32,
}

impl BatchNorm2d {
    /// Creates a batch norm layer, validating parameter lengths.
    pub fn new(
        gamma: Vec<f32>,
        beta: Vec<f32>,
        mean: Vec<f32>,
        var: Vec<f32>,
        eps: f32,
    ) -> Result<Self> {
        let c = gamma.len();
        if beta.len() != c || mean.len() != c || var.len() != c {
            return Err(NnError::Invalid(format!(
                "batch norm parameter lengths differ: {c}/{}/{}/{}",
                beta.len(),
                mean.len(),
                var.len()
            )));
        }
        if var.iter().any(|&v| v < 0.0) {
            return Err(NnError::Invalid("negative running variance".into()));
        }
        Ok(BatchNorm2d {
            gamma,
            beta,
            mean,
            var,
            eps,
        })
    }

    /// Identity batch norm for `c` channels.
    pub fn identity(c: usize) -> Self {
        BatchNorm2d {
            gamma: vec![1.0; c],
            beta: vec![0.0; c],
            mean: vec![0.0; c],
            var: vec![1.0; c],
            eps: 1e-5,
        }
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.gamma.len()
    }

    /// Forward pass over a `[C, H, W]` activation.
    pub fn forward(&self, x: &Tensor) -> Result<Tensor> {
        self.forward_n(x, false)
    }

    /// Batched forward pass over a stacked `[N, C, H, W]` activation;
    /// bit-exact per sample with [`BatchNorm2d::forward`].
    pub fn forward_batch(&self, x: &Tensor) -> Result<Tensor> {
        self.forward_n(x, true)
    }

    /// The one body: every `[H, W]` plane of every sample scales and
    /// shifts by its channel's frozen statistics.
    pub(crate) fn forward_n(&self, x: &Tensor, stacked: bool) -> Result<Tensor> {
        let (n, [c, h, w]) = split_sample("batch_norm", x, stacked)?;
        if c != self.channels() {
            return Err(NnError::BadActivation {
                op: "batch_norm",
                expected: format!("{} channels", self.channels()),
                got: x.dims().to_vec(),
            });
        }
        let hw = h * w;
        let mut out = x.data().to_vec();
        for s in 0..n {
            for ch in 0..c {
                let inv = self.gamma[ch] / (self.var[ch] + self.eps).sqrt();
                let shift = self.beta[ch] - self.mean[ch] * inv;
                for v in &mut out[(s * c + ch) * hw..(s * c + ch + 1) * hw] {
                    *v = *v * inv + shift;
                }
            }
        }
        Ok(Tensor::from_vec(x.dims().to_vec(), out)?)
    }

    /// Applies a permutation to the channel dimension (layout pass, §5).
    pub fn permute_channels(&mut self, perm: &[usize]) {
        debug_assert_eq!(perm.len(), self.channels());
        self.gamma = perm.iter().map(|&p| self.gamma[p]).collect();
        self.beta = perm.iter().map(|&p| self.beta[p]).collect();
        self.mean = perm.iter().map(|&p| self.mean[p]).collect();
        self.var = perm.iter().map(|&p| self.var[p]).collect();
    }
}

/// Layer normalization over the last dimension of `[T, C]` (or `[C]`).
#[derive(Debug, Clone, PartialEq)]
pub struct LayerNorm {
    /// Per-feature scale.
    pub gamma: Vec<f32>,
    /// Per-feature shift.
    pub beta: Vec<f32>,
    /// Numerical-stability epsilon.
    pub eps: f32,
}

impl LayerNorm {
    /// Creates a layer norm, validating parameter lengths.
    pub fn new(gamma: Vec<f32>, beta: Vec<f32>, eps: f32) -> Result<Self> {
        if gamma.len() != beta.len() {
            return Err(NnError::Invalid(format!(
                "layer norm parameter lengths differ: {} vs {}",
                gamma.len(),
                beta.len()
            )));
        }
        Ok(LayerNorm { gamma, beta, eps })
    }

    /// Identity layer norm for `c` features.
    pub fn identity(c: usize) -> Self {
        LayerNorm {
            gamma: vec![1.0; c],
            beta: vec![0.0; c],
            eps: 1e-5,
        }
    }

    /// Number of features.
    pub fn features(&self) -> usize {
        self.gamma.len()
    }

    /// Forward pass over `[T, C]` (or `[C]`); normalizes each token's
    /// feature vector.
    pub fn forward(&self, x: &Tensor) -> Result<Tensor> {
        self.forward_n(x, false)
    }

    /// Batched forward pass over `[N, T, C]` or `[N, C]`; every token row
    /// normalizes independently, bit-exact with [`LayerNorm::forward`].
    pub fn forward_batch(&self, x: &Tensor) -> Result<Tensor> {
        self.forward_n(x, true)
    }

    /// The one body: every row of `C` features, whatever sample or token
    /// it belongs to, normalizes on its own.
    pub(crate) fn forward_n(&self, x: &Tensor, stacked: bool) -> Result<Tensor> {
        let c = self.features();
        let rows = match split_stack("layer_norm", x, stacked)? {
            (n, &[last]) if last == c => n,
            (n, &[t, last]) if last == c => n * t,
            _ => {
                return Err(NnError::BadActivation {
                    op: "layer_norm",
                    expected: format!("[{c}] or [T, {c}] per sample"),
                    got: x.dims().to_vec(),
                })
            }
        };
        let mut out = vec![0.0f32; rows * c];
        for ti in 0..rows {
            let row = &x.data()[ti * c..(ti + 1) * c];
            let mean = row.iter().sum::<f32>() / c as f32;
            let var = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / c as f32;
            let inv = 1.0 / (var + self.eps).sqrt();
            for i in 0..c {
                out[ti * c + i] = (row[i] - mean) * inv * self.gamma[i] + self.beta[i];
            }
        }
        Ok(Tensor::from_vec(x.dims().to_vec(), out)?)
    }

    /// Applies a permutation to the feature dimension (layout pass, §5).
    pub fn permute_channels(&mut self, perm: &[usize]) {
        debug_assert_eq!(perm.len(), self.features());
        self.gamma = perm.iter().map(|&p| self.gamma[p]).collect();
        self.beta = perm.iter().map(|&p| self.beta[p]).collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_bn_is_noop() {
        let bn = BatchNorm2d::identity(2);
        let x = Tensor::from_vec([2, 1, 2], vec![1.0, -2.0, 3.0, 4.0]).unwrap();
        let y = bn.forward(&x).unwrap();
        for (a, b) in x.data().iter().zip(y.data().iter()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn bn_normalizes_with_running_stats() {
        let bn = BatchNorm2d::new(vec![2.0], vec![1.0], vec![3.0], vec![4.0], 0.0).unwrap();
        let x = Tensor::from_vec([1, 1, 1], vec![5.0]).unwrap();
        // (5 - 3) / 2 * 2 + 1 = 3.
        let y = bn.forward(&x).unwrap();
        assert!((y.data()[0] - 3.0).abs() < 1e-6);
    }

    #[test]
    fn bn_validation() {
        assert!(BatchNorm2d::new(vec![1.0], vec![], vec![0.0], vec![1.0], 1e-5).is_err());
        assert!(BatchNorm2d::new(vec![1.0], vec![0.0], vec![0.0], vec![-1.0], 1e-5).is_err());
        let bn = BatchNorm2d::identity(2);
        assert!(bn.forward(&Tensor::zeros([3, 1, 1])).is_err());
    }

    #[test]
    fn layer_norm_zero_mean_unit_var() {
        let ln = LayerNorm::identity(4);
        let x = Tensor::from_vec([2, 4], vec![1., 2., 3., 4., -1., 0., 1., 2.]).unwrap();
        let y = ln.forward(&x).unwrap();
        for ti in 0..2 {
            let row = &y.data()[ti * 4..(ti + 1) * 4];
            let mean: f32 = row.iter().sum::<f32>() / 4.0;
            let var: f32 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 4.0;
            assert!(mean.abs() < 1e-5);
            assert!((var - 1.0).abs() < 1e-3);
        }
    }

    #[test]
    fn layer_norm_gamma_creates_outlier_channels() {
        // This is how the zoo injects transformer activation outliers.
        let mut gamma = vec![1.0f32; 8];
        gamma[3] = 40.0;
        let ln = LayerNorm::new(gamma, vec![0.0; 8], 1e-5).unwrap();
        let x = Tensor::from_vec([1, 8], (0..8).map(|i| i as f32).collect()).unwrap();
        let y = ln.forward(&x).unwrap();
        let out3 = y.data()[3].abs();
        let others = y
            .data()
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != 3)
            .map(|(_, v)| v.abs())
            .fold(0.0f32, f32::max);
        assert!(out3 > 5.0 * others);
    }

    #[test]
    fn bn_permute_channels_relabels() {
        let mut bn = BatchNorm2d::new(
            vec![1.0, 2.0],
            vec![3.0, 4.0],
            vec![5.0, 6.0],
            vec![7.0, 8.0],
            1e-5,
        )
        .unwrap();
        bn.permute_channels(&[1, 0]);
        assert_eq!(bn.gamma, vec![2.0, 1.0]);
        assert_eq!(bn.beta, vec![4.0, 3.0]);
        assert_eq!(bn.mean, vec![6.0, 5.0]);
        assert_eq!(bn.var, vec![8.0, 7.0]);
    }

    #[test]
    fn ln_rejects_mismatched_input() {
        let ln = LayerNorm::identity(4);
        assert!(ln.forward(&Tensor::zeros([2, 3])).is_err());
        assert!(ln.forward(&Tensor::zeros([2, 2, 4])).is_err());
    }
}
