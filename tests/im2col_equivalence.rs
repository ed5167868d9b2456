//! im2col by spans ≡ im2col by definition.
//!
//! `tensor::im2col` writes each `OH × OW` plane of the lowered matrix as
//! clipped spans — one shifted copy, a copy per row, or a strided gather
//! per row, with the padding zeros written around them. The definition is
//! one bounds-checked tap per element; it lives on here as the oracle.
//! Every lowering fills a **dirty** output (`0x55` bytes), so a padding
//! tap the span code forgot to zero fails the comparison instead of
//! passing on a lucky pre-cleared buffer.

use flexiq::tensor::im2col::{
    im2col_batch_into, im2col_i8_batch_fill, im2col_i8_batch_into, im2col_i8_fill, im2col_into,
    Conv2dGeometry,
};
use flexiq::tensor::rng::seeded;
use proptest::prelude::*;
use rand::Rng;

/// The definition: output `(row, s, oy, ox)` is the input tap
/// `(c, oy*stride + kh - pad, ox*stride + kw - pad)` of sample `s`, or
/// zero when the tap falls outside the image.
fn naive<T: Copy + Default>(
    input: &[T],
    nb: usize,
    sample_stride: usize,
    g: &Conv2dGeometry,
) -> Vec<T> {
    let (oh, ow) = (g.out_h(), g.out_w());
    let total = nb * oh * ow;
    let mut out = vec![T::default(); g.rows() * total];
    for row in 0..g.rows() {
        let (c, kh, kw) = (row / (g.kw * g.kh), (row / g.kw) % g.kh, row % g.kw);
        for s in 0..nb {
            for oy in 0..oh {
                let iy = (oy * g.stride + kh) as isize - g.pad as isize;
                if iy < 0 || iy >= g.h as isize {
                    continue;
                }
                for ox in 0..ow {
                    let ix = (ox * g.stride + kw) as isize - g.pad as isize;
                    if ix < 0 || ix >= g.w as isize {
                        continue;
                    }
                    out[row * total + s * oh * ow + oy * ow + ox] =
                        input[s * sample_stride + (c * g.h + iy as usize) * g.w + ix as usize];
                }
            }
        }
    }
    out
}

const DIRTY_I8: i8 = 0x55;
const DIRTY_F32: f32 = f32::from_bits(0x5555_5555);

/// Lowers one random batch of this geometry through every public entry
/// point, i8 and f32, into dirty outputs, and compares with [`naive`].
fn check(g: &Conv2dGeometry, nb: usize, gap: usize, seed: u64) {
    let mut rng = seeded(seed);
    let chw = g.c_in * g.h * g.w;
    let stride = chw + gap;
    let len = (nb - 1) * stride + chw;
    // Non-zero everywhere, so a copied tap is never mistaken for padding.
    let xi: Vec<i8> = (0..len).map(|_| rng.gen_range(1i16..=127) as i8).collect();
    let xf: Vec<f32> = xi.iter().map(|&v| v as f32 * 0.5).collect();
    let size = g.rows() * nb * g.cols();
    let ctx = (g, nb, gap);

    let want = naive(&xi, nb, stride, g);
    let mut out = vec![DIRTY_I8; size];
    im2col_i8_batch_fill(&xi, nb, stride, g, &mut out);
    assert_eq!(out, want, "i8 fill {ctx:?}");
    // The `Vec` variants resize without clearing: longer and shorter
    // dirty buffers must both come back exact.
    for dirty_len in [size + 5, size / 2] {
        let mut out = vec![DIRTY_I8; dirty_len];
        im2col_i8_batch_into(&xi, nb, stride, g, &mut out);
        assert_eq!(out, want, "i8 into (from {dirty_len}) {ctx:?}");
    }

    let want: Vec<u32> = naive(&xf, nb, stride, g)
        .iter()
        .map(|v| v.to_bits())
        .collect();
    for dirty_len in [size + 5, size / 2] {
        let mut out = vec![DIRTY_F32; dirty_len];
        im2col_batch_into(&xf, nb, stride, g, &mut out);
        let got: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, want, "f32 into (from {dirty_len}) {ctx:?}");
    }

    // The single-sample entry points are the batch of one.
    let want = naive(&xi[..chw], 1, chw, g);
    let mut out = vec![DIRTY_I8; want.len()];
    im2col_i8_fill(&xi[..chw], g, &mut out);
    assert_eq!(out, want, "i8 single {ctx:?}");
    let mut out = vec![DIRTY_F32; want.len() + 3];
    im2col_into(&xf[..chw], g, &mut out);
    let want = naive(&xf[..chw], 1, chw, g);
    assert_eq!(out, want, "f32 single {ctx:?}");
}

/// The whole grid of square kernels: every kernel size × stride × pad,
/// on images taller than wide, wider than tall, and smaller than the
/// kernel (rows that are all padding, and `conv_out_size` saturating to
/// one output), one sample and three, packed and strided apart.
#[test]
fn every_kernel_stride_and_pad_matches_the_definition() {
    let mut seed = 0;
    for k in [1, 3, 5, 7] {
        for stride in [1, 2, 3] {
            for pad in 0..=3 {
                for (h, w) in [(5, 4), (2, 3), (8, 11)] {
                    for (c_in, nb, gap) in [(1, 1, 0), (2, 3, 0), (2, 3, 7)] {
                        let g = Conv2dGeometry {
                            c_in,
                            h,
                            w,
                            kh: k,
                            kw: k,
                            stride,
                            pad,
                        };
                        seed += 1;
                        check(&g, nb, gap, seed);
                    }
                }
            }
        }
    }
}

proptest! {
    /// Random geometries, rectangular kernels included (`OW == W` with
    /// `OH != H`, and the other way round).
    #[test]
    fn random_geometries_match_the_definition(
        c_in in 1usize..=3,
        h in 1usize..=9,
        w in 1usize..=9,
        kh in 1usize..=7,
        kw in 1usize..=7,
        stride in 1usize..=3,
        pad in 0usize..=3,
        nb in 1usize..=3,
        gap in 0usize..=9,
        seed in 0u64..1 << 32,
    ) {
        let g = Conv2dGeometry { c_in, h, w, kh, kw, stride, pad };
        check(&g, nb, gap, seed);
    }
}
