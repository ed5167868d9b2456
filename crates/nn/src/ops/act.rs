//! Activation functions and softmax.

use flexiq_tensor::Tensor;

use crate::error::NnError;
use crate::Result;

/// Rectified linear unit, elementwise.
pub fn relu(x: &Tensor) -> Tensor {
    x.map(|v| v.max(0.0))
}

/// Scalar GELU (tanh approximation), used by the transformer MLPs.
pub fn gelu_scalar(v: f32) -> f32 {
    const C: f32 = 0.797_884_6; // sqrt(2 / pi)
    0.5 * v * (1.0 + (C * (v + 0.044715 * v * v * v)).tanh())
}

/// GELU, elementwise (tanh approximation).
pub fn gelu(x: &Tensor) -> Tensor {
    x.map(gelu_scalar)
}

/// Numerically stable softmax over the last dimension.
pub fn softmax_lastdim(x: &Tensor) -> Result<Tensor> {
    let dims = x.dims();
    let c = *dims.last().ok_or_else(|| NnError::BadActivation {
        op: "softmax",
        expected: "rank >= 1".into(),
        got: dims.to_vec(),
    })?;
    if c == 0 {
        return Err(NnError::BadActivation {
            op: "softmax",
            expected: "non-empty last dim".into(),
            got: dims.to_vec(),
        });
    }
    let mut out = x.data().to_vec();
    out.chunks_exact_mut(c).for_each(softmax_row);
    Ok(Tensor::from_vec(dims.to_vec(), out)?)
}

/// In-place softmax over one row: max-fold, ascending exp with running
/// denominator, divide in place. The one softmax arithmetic —
/// [`softmax_lastdim`], the attention cores and the K/V cache attends all
/// run it, which is what keeps them bit-compatible.
pub(crate) fn softmax_row(row: &mut [f32]) {
    let m = row.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
    let mut denom = 0.0f32;
    for v in row.iter_mut() {
        *v = (*v - m).exp();
        denom += *v;
    }
    for v in row.iter_mut() {
        *v /= denom;
    }
}

/// Log-softmax over the last dimension (used by the LM perplexity path
/// and the training losses).
pub fn log_softmax_lastdim(x: &Tensor) -> Result<Tensor> {
    let dims = x.dims();
    let c = *dims.last().ok_or_else(|| NnError::BadActivation {
        op: "log_softmax",
        expected: "rank >= 1".into(),
        got: dims.to_vec(),
    })?;
    let rows = x.numel() / c.max(1);
    let mut out = vec![0.0f32; x.numel()];
    for r in 0..rows {
        let row = &x.data()[r * c..(r + 1) * c];
        let m = row.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
        let lse = m + row.iter().map(|&v| (v - m).exp()).sum::<f32>().ln();
        for (i, &v) in row.iter().enumerate() {
            out[r * c + i] = v - lse;
        }
    }
    Ok(Tensor::from_vec(dims.to_vec(), out)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives() {
        let x = Tensor::from_vec([4], vec![-1.0, 0.0, 0.5, 2.0]).unwrap();
        assert_eq!(relu(&x).data(), &[0.0, 0.0, 0.5, 2.0]);
    }

    #[test]
    fn gelu_known_values() {
        // GELU(0) = 0; GELU is odd-ish: large positive ≈ identity, large
        // negative ≈ 0.
        assert_eq!(gelu_scalar(0.0), 0.0);
        assert!((gelu_scalar(10.0) - 10.0).abs() < 1e-3);
        assert!(gelu_scalar(-10.0).abs() < 1e-3);
        assert!((gelu_scalar(1.0) - 0.8412).abs() < 1e-3);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = Tensor::from_vec([2, 3], vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]).unwrap();
        let s = softmax_lastdim(&x).unwrap();
        for r in 0..2 {
            let sum: f32 = s.data()[r * 3..(r + 1) * 3].iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
        // Monotone in the logits.
        assert!(s.data()[2] > s.data()[1]);
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let x = Tensor::from_vec([2], vec![1000.0, 1001.0]).unwrap();
        let s = softmax_lastdim(&x).unwrap();
        assert!(s.data().iter().all(|v| v.is_finite()));
        assert!((s.data()[1] - 0.731).abs() < 1e-2);
    }

    #[test]
    fn log_softmax_matches_softmax_log() {
        let x = Tensor::from_vec([3], vec![0.5, -1.0, 2.0]).unwrap();
        let ls = log_softmax_lastdim(&x).unwrap();
        let s = softmax_lastdim(&x).unwrap();
        for (a, b) in ls.data().iter().zip(s.data().iter()) {
            assert!((a - b.ln()).abs() < 1e-5);
        }
    }

    #[test]
    fn softmax_rejects_empty_last_dim() {
        assert!(softmax_lastdim(&Tensor::zeros([2, 0])).is_err());
    }
}
