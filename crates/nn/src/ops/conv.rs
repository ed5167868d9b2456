//! 2-D convolution with optional channel groups (depthwise support).

use flexiq_tensor::im2col::{im2col_batch_into, Conv2dGeometry};
use flexiq_tensor::{gemm, scratch, Tensor};

use crate::error::NnError;
use crate::Result;

/// A 2-D convolution layer.
///
/// Weights follow the `[C_out, C_in / groups, KH, KW]` layout. Inputs and
/// outputs are single-sample `[C, H, W]` tensors through [`Conv2d::forward`];
/// [`Conv2d::forward_batch`] runs a stacked `[N, C, H, W]` batch through
/// one column-batched GEMM per channel group (im2col amortized across the
/// batch), bit-exact per sample with the single-sample path.
#[derive(Debug, Clone, PartialEq)]
pub struct Conv2d {
    /// Kernel weights `[C_out, C_in / groups, KH, KW]`.
    pub weight: Tensor,
    /// Optional per-output-channel bias.
    pub bias: Option<Vec<f32>>,
    /// Spatial stride (both dimensions).
    pub stride: usize,
    /// Zero padding (all sides).
    pub pad: usize,
    /// Channel groups; `groups == C_in` makes this a depthwise conv.
    pub groups: usize,
}

impl Conv2d {
    /// Creates a convolution, validating the weight layout.
    pub fn new(
        weight: Tensor,
        bias: Option<Vec<f32>>,
        stride: usize,
        pad: usize,
        groups: usize,
    ) -> Result<Self> {
        if weight.shape().rank() != 4 {
            return Err(NnError::BadActivation {
                op: "conv2d",
                expected: "rank-4 weight [C_out, C_in/groups, KH, KW]".into(),
                got: weight.dims().to_vec(),
            });
        }
        if groups == 0 || weight.dims()[0] % groups != 0 {
            return Err(NnError::Invalid(format!(
                "groups {groups} must divide C_out {}",
                weight.dims()[0]
            )));
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
        if stride == 0 {
            return Err(NnError::Invalid("stride must be positive".into()));
        }
        Ok(Conv2d {
            weight,
            bias,
            stride,
            pad,
            groups,
        })
    }

    /// Output channels.
    pub fn c_out(&self) -> usize {
        self.weight.dims()[0]
    }

    /// Input (feature) channels, including all groups.
    pub fn c_in(&self) -> usize {
        self.weight.dims()[1] * self.groups
    }

    /// Kernel height.
    pub fn kh(&self) -> usize {
        self.weight.dims()[2]
    }

    /// Kernel width.
    pub fn kw(&self) -> usize {
        self.weight.dims()[3]
    }

    /// The im2col geometry of one channel group for an `[C_in, H, W]`
    /// input.
    pub fn group_geometry(&self, h: usize, w: usize) -> Conv2dGeometry {
        Conv2dGeometry {
            c_in: self.weight.dims()[1],
            h,
            w,
            kh: self.kh(),
            kw: self.kw(),
            stride: self.stride,
            pad: self.pad,
        }
    }

    /// Validates an input activation and returns `(C_in, H, W)`.
    pub fn check_input(&self, x: &Tensor) -> Result<(usize, usize, usize)> {
        let dims = x.dims();
        if dims.len() != 3 || dims[0] != self.c_in() {
            return Err(NnError::BadActivation {
                op: "conv2d",
                expected: format!("[{}, H, W]", self.c_in()),
                got: dims.to_vec(),
            });
        }
        Ok((dims[0], dims[1], dims[2]))
    }

    /// Reference f32 forward pass: [`Conv2d::forward_batch`]'s body at
    /// `N = 1`, on the unstacked `[C_in, H, W]` activation.
    pub fn forward(&self, x: &Tensor) -> Result<Tensor> {
        let (_, h, w) = self.check_input(x)?;
        let g = self.group_geometry(h, w);
        let out = self.forward_stack(x.data(), 1, h, w);
        Ok(Tensor::from_vec([self.c_out(), g.out_h(), g.out_w()], out)?)
    }

    /// Validates a stacked batch activation and returns `(N, H, W)`.
    pub fn check_input_batch(&self, x: &Tensor) -> Result<(usize, usize, usize)> {
        let dims = x.dims();
        if dims.len() != 4 || dims[1] != self.c_in() || dims[0] == 0 {
            return Err(NnError::BadActivation {
                op: "conv2d",
                expected: format!("non-empty [N, {}, H, W]", self.c_in()),
                got: dims.to_vec(),
            });
        }
        Ok((dims[0], dims[2], dims[3]))
    }

    /// Batched f32 forward pass over a stacked `[N, C_in, H, W]` input.
    ///
    /// Each channel group is lowered once for the whole batch
    /// (`im2col_batch`) and multiplied in one GEMM over the samples
    /// stacked along `n`, so the weight rows stream across all `N`
    /// samples. Groups run one after another; the only parallelism is the
    /// GEMM's own row bands, so per-sample results are bit-exact with
    /// [`Conv2d::forward`] at any thread count.
    pub fn forward_batch(&self, x: &Tensor) -> Result<Tensor> {
        let (n, h, w) = self.check_input_batch(x)?;
        let g = self.group_geometry(h, w);
        let out = self.forward_stack(x.data(), n, h, w);
        Ok(Tensor::from_vec(
            [n, self.c_out(), g.out_h(), g.out_w()],
            out,
        )?)
    }

    /// The one convolution body: `n` stacked `[C_in, h, w]` samples in,
    /// sample-major `[n, C_out, OH*OW]` out.
    fn forward_stack(&self, x: &[f32], n: usize, h: usize, w: usize) -> Vec<f32> {
        let g = self.group_geometry(h, w);
        let cols = g.cols();
        let k = g.rows();
        let c_out = self.c_out();
        let c_out_g = c_out / self.groups;
        let c_in_g = self.weight.dims()[1];
        let chw = self.c_in() * h * w;
        let ncols = n * cols;
        let mut out = vec![0.0f32; n * c_out * cols];
        // One group's buffers alive at a time, drawn from the thread's
        // scratch pool so steady-state passes do not re-allocate the
        // lowering or the GEMM output.
        let mut cols_mat = scratch::take_f32();
        let mut big = scratch::take_f32();
        for grp in 0..self.groups {
            // Lower + multiply one group into `big` ([c_out_g, N*cols]).
            im2col_batch_into(&x[grp * c_in_g * h * w..], n, chw, &g, &mut cols_mat);
            big.clear();
            big.resize(c_out_g * ncols, 0.0);
            gemm::gemm_f32(
                c_out_g,
                ncols,
                k,
                &self.weight.data()[grp * c_out_g * k..(grp + 1) * c_out_g * k],
                &cols_mat,
                &mut big,
            );
            // Scatter [c_out_g, N*cols] back to sample-major [N, C_out, OH*OW].
            for ol in 0..c_out_g {
                let o = grp * c_out_g + ol;
                for s in 0..n {
                    let src = ol * ncols + s * cols;
                    let dst = (s * c_out + o) * cols;
                    out[dst..dst + cols].copy_from_slice(&big[src..src + cols]);
                }
            }
        }
        scratch::put_f32(big);
        scratch::put_f32(cols_mat);
        if let Some(bias) = &self.bias {
            for s in 0..n {
                for (co, &b) in bias.iter().enumerate() {
                    for v in &mut out[(s * c_out + co) * cols..(s * c_out + co + 1) * cols] {
                        *v += b;
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexiq_tensor::rng::seeded;

    #[test]
    fn identity_kernel_passes_through() {
        // 1x1 conv with identity weights is a no-op.
        let w = Tensor::from_vec([2, 2, 1, 1], vec![1.0, 0.0, 0.0, 1.0]).unwrap();
        let conv = Conv2d::new(w, None, 1, 0, 1).unwrap();
        let mut rng = seeded(81);
        let x = Tensor::rand_uniform([2, 3, 3], -1.0, 1.0, &mut rng);
        let y = conv.forward(&x).unwrap();
        assert_eq!(y.dims(), &[2, 3, 3]);
        for (a, b) in x.data().iter().zip(y.data().iter()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn bias_is_added_per_output_channel() {
        let w = Tensor::zeros([2, 1, 1, 1]);
        let conv = Conv2d::new(w, Some(vec![1.5, -2.0]), 1, 0, 1).unwrap();
        let x = Tensor::zeros([1, 2, 2]);
        let y = conv.forward(&x).unwrap();
        assert_eq!(&y.data()[..4], &[1.5; 4]);
        assert_eq!(&y.data()[4..], &[-2.0; 4]);
    }

    #[test]
    fn stride_and_padding_shape() {
        let mut rng = seeded(82);
        let w = Tensor::randn([4, 3, 3, 3], 0.0, 0.1, &mut rng);
        let conv = Conv2d::new(w, None, 2, 1, 1).unwrap();
        let x = Tensor::randn([3, 8, 8], 0.0, 1.0, &mut rng);
        let y = conv.forward(&x).unwrap();
        assert_eq!(y.dims(), &[4, 4, 4]);
    }

    #[test]
    fn depthwise_conv_processes_channels_independently() {
        // Depthwise 1x1 conv scaling each channel by its own factor.
        let w = Tensor::from_vec([3, 1, 1, 1], vec![2.0, 3.0, 4.0]).unwrap();
        let conv = Conv2d::new(w, None, 1, 0, 3).unwrap();
        let x = Tensor::ones([3, 2, 2]);
        let y = conv.forward(&x).unwrap();
        assert_eq!(&y.data()[..4], &[2.0; 4]);
        assert_eq!(&y.data()[4..8], &[3.0; 4]);
        assert_eq!(&y.data()[8..], &[4.0; 4]);
        assert_eq!(conv.c_in(), 3);
    }

    #[test]
    fn grouped_conv_matches_split_convs() {
        let mut rng = seeded(83);
        // groups=2: equivalent to two independent convs on channel halves.
        let w = Tensor::randn([4, 2, 3, 3], 0.0, 0.3, &mut rng);
        let conv = Conv2d::new(w.clone(), None, 1, 1, 2).unwrap();
        let x = Tensor::randn([4, 5, 5], 0.0, 1.0, &mut rng);
        let y = conv.forward(&x).unwrap();

        for grp in 0..2usize {
            let wg = Tensor::from_vec(
                [2, 2, 3, 3],
                w.data()[grp * 2 * 2 * 9..(grp + 1) * 2 * 2 * 9].to_vec(),
            )
            .unwrap();
            let sub = Conv2d::new(wg, None, 1, 1, 1).unwrap();
            let xg =
                Tensor::from_vec([2, 5, 5], x.data()[grp * 50..(grp + 1) * 50].to_vec()).unwrap();
            let yg = sub.forward(&xg).unwrap();
            for (i, &v) in yg.data().iter().enumerate() {
                assert!((v - y.data()[grp * 50 + i]).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn batched_forward_is_bit_exact_with_per_sample() {
        let mut rng = seeded(84);
        // Plain, strided+padded, grouped and depthwise configurations.
        let cases = [
            (
                Tensor::randn([4, 3, 3, 3], 0.0, 0.3, &mut rng),
                1usize,
                1usize,
                1usize,
                3usize,
            ),
            (Tensor::randn([4, 3, 3, 3], 0.0, 0.3, &mut rng), 2, 1, 1, 3),
            (Tensor::randn([4, 2, 3, 3], 0.0, 0.3, &mut rng), 1, 1, 2, 4),
            (Tensor::randn([3, 1, 1, 1], 0.0, 0.5, &mut rng), 1, 0, 3, 3),
        ];
        for (wt, stride, pad, groups, c_in) in cases {
            let bias: Vec<f32> = (0..wt.dims()[0]).map(|i| 0.1 * i as f32 - 0.2).collect();
            let conv = Conv2d::new(wt, Some(bias), stride, pad, groups).unwrap();
            let samples: Vec<Tensor> = (0..3)
                .map(|_| Tensor::randn([c_in, 6, 5], 0.0, 1.0, &mut rng))
                .collect();
            let stacked = Tensor::stack(&samples).unwrap();
            let yb = conv.forward_batch(&stacked).unwrap();
            for (i, s) in samples.iter().enumerate() {
                let yi = conv.forward(s).unwrap();
                let ybi = yb.index_axis0(i).unwrap();
                assert_eq!(ybi.dims(), yi.dims());
                for (a, b) in ybi.data().iter().zip(yi.data().iter()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "batched conv diverged");
                }
            }
        }
    }

    #[test]
    fn batched_forward_validates_input() {
        let conv = Conv2d::new(Tensor::zeros([2, 3, 1, 1]), None, 1, 0, 1).unwrap();
        assert!(conv.forward_batch(&Tensor::zeros([3, 2, 2])).is_err());
        assert!(conv.forward_batch(&Tensor::zeros([2, 4, 2, 2])).is_err());
        assert!(conv.forward_batch(&Tensor::zeros([0, 3, 2, 2])).is_err());
    }

    #[test]
    fn input_validation() {
        let w = Tensor::zeros([2, 3, 1, 1]);
        let conv = Conv2d::new(w, None, 1, 0, 1).unwrap();
        assert!(conv.forward(&Tensor::zeros([4, 2, 2])).is_err());
        assert!(conv.forward(&Tensor::zeros([3, 4])).is_err());
    }

    #[test]
    fn constructor_validation() {
        assert!(Conv2d::new(Tensor::zeros([2, 1, 1]), None, 1, 0, 1).is_err());
        assert!(Conv2d::new(Tensor::zeros([2, 1, 1, 1]), None, 0, 0, 1).is_err());
        assert!(Conv2d::new(Tensor::zeros([2, 1, 1, 1]), None, 1, 0, 3).is_err());
        assert!(Conv2d::new(Tensor::zeros([2, 1, 1, 1]), Some(vec![0.0]), 1, 0, 1).is_err());
    }
}
