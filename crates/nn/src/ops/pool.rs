//! Spatial pooling operators.
//!
//! Pooling treats channels independently, so a stacked `[N, C, H, W]`
//! batch is just `N * C` planes: each operator has one body over planes,
//! and the `_batch` entry points are bit-exact per sample with the
//! single-sample ones by construction.

use flexiq_tensor::im2col::conv_out_size;
use flexiq_tensor::Tensor;

use crate::error::NnError;
use crate::ops::{split_sample, stack_dims};
use crate::Result;

/// Max pooling with a `k`×`k` window and the given stride.
pub fn max_pool2d(x: &Tensor, k: usize, stride: usize) -> Result<Tensor> {
    window_pool(Window::Max, x, k, stride, false)
}

/// Batched [`max_pool2d`] over `[N, C, H, W]`.
pub fn max_pool2d_batch(x: &Tensor, k: usize, stride: usize) -> Result<Tensor> {
    window_pool(Window::Max, x, k, stride, true)
}

/// Average pooling with a `k`×`k` window and the given stride.
pub fn avg_pool2d(x: &Tensor, k: usize, stride: usize) -> Result<Tensor> {
    window_pool(Window::Avg, x, k, stride, false)
}

/// Batched [`avg_pool2d`] over `[N, C, H, W]`.
pub fn avg_pool2d_batch(x: &Tensor, k: usize, stride: usize) -> Result<Tensor> {
    window_pool(Window::Avg, x, k, stride, true)
}

/// Global average pooling: `[C, H, W]` → `[C]`.
pub fn global_avg_pool(x: &Tensor) -> Result<Tensor> {
    global_pool(x, false)
}

/// Batched [`global_avg_pool`]: `[N, C, H, W]` → `[N, C]`.
pub fn global_avg_pool_batch(x: &Tensor) -> Result<Tensor> {
    global_pool(x, true)
}

/// What a pooling window reduces its taps to.
#[derive(Clone, Copy)]
pub(crate) enum Window {
    Max,
    Avg,
}

/// The one windowed body: every `k`×`k` window of every plane reduces
/// its taps in row-major order.
pub(crate) fn window_pool(
    kind: Window,
    x: &Tensor,
    k: usize,
    stride: usize,
    stacked: bool,
) -> Result<Tensor> {
    let (op, init, scale) = match kind {
        Window::Max => ("max_pool2d", f32::NEG_INFINITY, 1.0),
        Window::Avg => ("avg_pool2d", 0.0, 1.0 / (k * k) as f32),
    };
    let (n, [c, h, w]) = split_sample(op, x, stacked)?;
    if k == 0 || stride == 0 || k > h || k > w {
        return Err(NnError::Invalid(format!(
            "bad pool window k={k} stride={stride} for {h}x{w}"
        )));
    }
    let (oh, ow) = (
        conv_out_size(h, k, stride, 0),
        conv_out_size(w, k, stride, 0),
    );
    let mut out = vec![0.0f32; n * c * oh * ow];
    for ci in 0..n * c {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = init;
                for dy in 0..k {
                    for dx in 0..k {
                        let tap = x.data()[(ci * h + oy * stride + dy) * w + ox * stride + dx];
                        acc = match kind {
                            Window::Max => acc.max(tap),
                            Window::Avg => acc + tap,
                        };
                    }
                }
                out[(ci * oh + oy) * ow + ox] = acc * scale;
            }
        }
    }
    Ok(Tensor::from_vec(stack_dims(stacked, n, &[c, oh, ow]), out)?)
}

pub(crate) fn global_pool(x: &Tensor, stacked: bool) -> Result<Tensor> {
    let (n, [c, h, w]) = split_sample("global_avg_pool", x, stacked)?;
    let hw = (h * w).max(1);
    let mut out = vec![0.0f32; n * c];
    for ci in 0..n * c {
        out[ci] = x.data()[ci * h * w..(ci + 1) * h * w].iter().sum::<f32>() / hw as f32;
    }
    Ok(Tensor::from_vec(stack_dims(stacked, n, &[c]), out)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_pool_takes_window_maxima() {
        let x = Tensor::from_vec([1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let y = max_pool2d(&x, 2, 2).unwrap();
        assert_eq!(y.dims(), &[1, 1, 1]);
        assert_eq!(y.data(), &[4.0]);
    }

    #[test]
    fn avg_pool_takes_window_means() {
        let x = Tensor::from_vec([1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let y = avg_pool2d(&x, 2, 2).unwrap();
        assert_eq!(y.data(), &[2.5]);
    }

    #[test]
    fn strided_pooling_shapes() {
        let x = Tensor::zeros([3, 8, 8]);
        assert_eq!(max_pool2d(&x, 2, 2).unwrap().dims(), &[3, 4, 4]);
        assert_eq!(avg_pool2d(&x, 3, 2).unwrap().dims(), &[3, 3, 3]);
    }

    #[test]
    fn global_avg_pool_reduces_to_channels() {
        let x = Tensor::from_vec([2, 1, 2], vec![1.0, 3.0, -2.0, -4.0]).unwrap();
        let y = global_avg_pool(&x).unwrap();
        assert_eq!(y.dims(), &[2]);
        assert_eq!(y.data(), &[2.0, -3.0]);
    }

    #[test]
    fn batched_pools_match_per_sample() {
        use flexiq_tensor::rng::seeded;
        let mut rng = seeded(85);
        let samples: Vec<Tensor> = (0..3)
            .map(|_| Tensor::randn([2, 6, 6], 0.0, 1.0, &mut rng))
            .collect();
        let stacked = Tensor::stack(&samples).unwrap();
        let mb = max_pool2d_batch(&stacked, 2, 2).unwrap();
        let ab = avg_pool2d_batch(&stacked, 3, 1).unwrap();
        let gb = global_avg_pool_batch(&stacked).unwrap();
        assert_eq!(mb.dims(), &[3, 2, 3, 3]);
        assert_eq!(gb.dims(), &[3, 2]);
        for (i, s) in samples.iter().enumerate() {
            assert_eq!(
                mb.index_axis0(i).unwrap().data(),
                max_pool2d(s, 2, 2).unwrap().data()
            );
            assert_eq!(
                ab.index_axis0(i).unwrap().data(),
                avg_pool2d(s, 3, 1).unwrap().data()
            );
            assert_eq!(
                gb.index_axis0(i).unwrap().data(),
                global_avg_pool(s).unwrap().data()
            );
        }
        assert!(max_pool2d_batch(&Tensor::zeros([2, 2, 2]), 2, 2).is_err());
    }

    #[test]
    fn pools_validate_inputs() {
        let x = Tensor::zeros([2, 2]);
        assert!(max_pool2d(&x, 2, 2).is_err());
        assert!(global_avg_pool(&x).is_err());
        let x = Tensor::zeros([1, 2, 2]);
        assert!(max_pool2d(&x, 3, 1).is_err());
        assert!(avg_pool2d(&x, 0, 1).is_err());
    }
}
