//! Convolution lowering (im2col / col2im).
//!
//! A convolution over an input laid out as `[C_in, H, W]` with kernels
//! `[C_out, C_in, KH, KW]` is lowered to a single GEMM:
//!
//! ```text
//! weights  [C_out, C_in*KH*KW]  ×  im2col(input) [C_in*KH*KW, OH*OW]
//! ```
//!
//! The reduction dimension is ordered **input-channel-major** (`c_in`,
//! then `kh`, then `kw`): a feature-channel group of `G` input channels
//! corresponds to a contiguous band of `G*KH*KW` rows of the lowered
//! matrix, which is how a mixed-precision GEMM can run each group's band
//! at its own bitwidth and bit-shift the partial sums (§7).
//!
//! The lowered matrix serves the f32 convolution
//! (`flexiq_nn::ops::Conv2d`), the training tape's conv backward
//! ([`col2im`]), the end-to-end benchmark's GEMM replays, and the tests,
//! as the definition the integer engine is checked against. The integer
//! engine itself builds no lowered matrix: its band GEMMs pack their
//! panels straight from channel-quad activations
//! ([`crate::gemm::ConvSource`]), in the band order (channel quad, `kh`,
//! `kw`, channel) — a permutation of each band's rows here.

/// Output spatial size of a convolution along one dimension.
pub fn conv_out_size(input: usize, kernel: usize, stride: usize, pad: usize) -> usize {
    assert!(stride > 0, "stride must be positive");
    (input + 2 * pad).saturating_sub(kernel) / stride + 1
}

/// Parameters of a 2-D convolution lowering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dGeometry {
    /// Input channels.
    pub c_in: usize,
    /// Input height.
    pub h: usize,
    /// Input width.
    pub w: usize,
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Stride (same in both dimensions).
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub pad: usize,
}

impl Conv2dGeometry {
    /// Output height.
    pub fn out_h(&self) -> usize {
        conv_out_size(self.h, self.kh, self.stride, self.pad)
    }

    /// Output width.
    pub fn out_w(&self) -> usize {
        conv_out_size(self.w, self.kw, self.stride, self.pad)
    }

    /// Rows of the lowered matrix (`C_in * KH * KW`).
    pub fn rows(&self) -> usize {
        self.c_in * self.kh * self.kw
    }

    /// Columns of the lowered matrix (`OH * OW`).
    pub fn cols(&self) -> usize {
        self.out_h() * self.out_w()
    }
}

/// Lowers an input image `[C_in, H, W]` to the im2col matrix
/// `[C_in*KH*KW, OH*OW]` (row-major).
///
/// Out-of-bounds taps read as zero (zero padding).
pub fn im2col(input: &[f32], g: &Conv2dGeometry) -> Vec<f32> {
    let mut out = Vec::new();
    im2col_into(input, g, &mut out);
    out
}

/// [`im2col`] into a caller-provided buffer (resized to the lowered
/// extent, reusing its capacity) — the allocation-free variant the hot
/// path uses with [`crate::scratch`] buffers.
pub fn im2col_into(input: &[f32], g: &Conv2dGeometry, out: &mut Vec<f32>) {
    assert_eq!(input.len(), g.c_in * g.h * g.w, "input length mismatch");
    im2col_batch_into(input, 1, input.len(), g, out);
}

/// Integer variant of [`im2col`] for the quantized execution path.
pub fn im2col_i8(input: &[i8], g: &Conv2dGeometry) -> Vec<i8> {
    let mut out = Vec::new();
    im2col_i8_into(input, g, &mut out);
    out
}

/// [`im2col_i8`] into a caller-provided buffer (resized, reusing its
/// capacity).
pub fn im2col_i8_into(input: &[i8], g: &Conv2dGeometry, out: &mut Vec<i8>) {
    assert_eq!(input.len(), g.c_in * g.h * g.w, "input length mismatch");
    im2col_i8_batch_into(input, 1, input.len(), g, out);
}

/// [`im2col_i8`] into a caller-managed slice of exactly
/// `rows() * cols()` elements. Every element is written — padding taps
/// as zero — so the slice need not be cleared first.
pub fn im2col_i8_fill(input: &[i8], g: &Conv2dGeometry, out: &mut [i8]) {
    assert_eq!(input.len(), g.c_in * g.h * g.w, "input length mismatch");
    im2col_i8_batch_fill(input, 1, input.len(), g, out);
}

/// Batched im2col: lowers `nb` samples into **one** column-stacked matrix
/// `[C_in*KH*KW, nb*OH*OW]`, with sample `s` occupying columns
/// `[s*OH*OW, (s+1)*OH*OW)`.
///
/// Sample `s` reads `input[s*sample_stride .. s*sample_stride + C_in*H*W]`,
/// so a strided view into a larger stacked activation (e.g. one channel
/// group of a `[N, C, H, W]` batch with `sample_stride = C*H*W`) lowers
/// without an intermediate copy. The result is the rhs of one
/// [`crate::gemm`] call over the samples stacked along `n`: one lowering
/// + one GEMM per layer per batch instead of per sample.
pub fn im2col_batch(
    input: &[f32],
    nb: usize,
    sample_stride: usize,
    g: &Conv2dGeometry,
) -> Vec<f32> {
    let mut out = Vec::new();
    im2col_batch_into(input, nb, sample_stride, g, &mut out);
    out
}

/// Integer variant of [`im2col_batch`] for the quantized execution path.
pub fn im2col_i8_batch(
    input: &[i8],
    nb: usize,
    sample_stride: usize,
    g: &Conv2dGeometry,
) -> Vec<i8> {
    let mut out = Vec::new();
    im2col_i8_batch_into(input, nb, sample_stride, g, &mut out);
    out
}

/// [`im2col_batch`] into a caller-provided buffer (resized, reusing its
/// capacity).
pub fn im2col_batch_into(
    input: &[f32],
    nb: usize,
    sample_stride: usize,
    g: &Conv2dGeometry,
    out: &mut Vec<f32>,
) {
    batch_lowering(input, nb, sample_stride, g, out);
}

/// [`im2col_i8_batch`] into a caller-provided buffer (resized, reusing
/// its capacity).
pub fn im2col_i8_batch_into(
    input: &[i8],
    nb: usize,
    sample_stride: usize,
    g: &Conv2dGeometry,
    out: &mut Vec<i8>,
) {
    batch_lowering(input, nb, sample_stride, g, out);
}

/// [`im2col_i8_batch`] into a caller-managed slice of exactly
/// `rows() * nb * cols()` elements. Every element is written — padding
/// taps as zero — so the slice need not be cleared first.
pub fn im2col_i8_batch_fill(
    input: &[i8],
    nb: usize,
    sample_stride: usize,
    g: &Conv2dGeometry,
    out: &mut [i8],
) {
    batch_fill(input, nb, sample_stride, g, out);
}

/// Shared worker behind the `Vec` lowerings: sets the output's length
/// (keeping whatever it held — the fill overwrites all of it) and fills
/// it.
fn batch_lowering<T: Copy + Default>(
    input: &[T],
    nb: usize,
    sample_stride: usize,
    g: &Conv2dGeometry,
    out: &mut Vec<T>,
) {
    let len = g.rows() * nb * g.cols();
    out.truncate(len);
    out.resize(len, T::default());
    batch_fill(input, nb, sample_stride, g, out);
}

/// The outputs `o` along one axis whose kernel tap `tap` reads inside
/// the input: `0 <= o*stride + tap - pad < in_len`, clipped to
/// `out_len`. Everything outside the span is a padding tap.
fn tap_span(
    tap: usize,
    stride: usize,
    pad: usize,
    in_len: usize,
    out_len: usize,
) -> std::ops::Range<usize> {
    let lo = pad.saturating_sub(tap).div_ceil(stride);
    let hi = (in_len + pad)
        .checked_sub(tap + 1)
        .map_or(0, |last| last / stride + 1);
    lo.min(out_len)..hi.min(out_len)
}

/// Validates the strided batch layout and writes every element of
/// `out`, the `[rows(), nb * cols()]` lowering. A row decomposes as
/// `row = (c * KH + kh) * KW + kw`, and within a row sample `s` owns one
/// `OH × OW` plane.
///
/// A plane is written by spans, never by element: the valid outputs of a
/// tap form one rectangle ([`tap_span`] per axis), everything outside it
/// is zero. At stride 1 with `OW == W` the rectangle's flat output index
/// and its flat input index differ by a constant, so the whole rectangle
/// (with the padding columns between its rows) is one copy and the
/// padding columns are zeroed afterwards; at stride 1 otherwise each
/// output row is one copy; at larger strides each output row is a
/// branch-free strided gather. On the i8 planes of the bench CNN the
/// one-copy form measures 0.08 / 0.22 / 0.79 ns per element at 16 / 8 /
/// 4-wide rows against 0.30 / 0.62 / 1.27 for a copy per row.
///
/// It is not cheap next to the GEMM it feeds: over the 21 conv layers
/// of a batch-8 RNet20 pass on a 2-vCPU AVX-VNNI box, the i8 lowerings
/// took 0.53 ms against 0.92 ms for the `gemm_i8_band` calls that read
/// them — which is why the integer engine no longer builds this matrix
/// (see the module docs) and the function now serves the f32 path, the
/// replays and the tests. Serial on purpose: fanning it out across a
/// 2-thread pool only starts to pay (1.45×) at 4.7 M elements — sixteen
/// times the largest matrix a bundled model lowers at batch 8 — while
/// it doubles the cost (27 → 47 µs at 295 k elements) below that.
fn batch_fill<T: Copy + Default>(
    input: &[T],
    nb: usize,
    sample_stride: usize,
    g: &Conv2dGeometry,
    out: &mut [T],
) {
    let (oh, ow) = (g.out_h(), g.out_w());
    let (cols, plane) = (oh * ow, g.h * g.w);
    assert!(nb > 0, "empty batch");
    assert!(
        input.len() >= (nb - 1) * sample_stride + g.c_in * plane,
        "batched input too short"
    );
    assert_eq!(out.len(), g.rows() * nb * cols, "output length mismatch");
    let zero = T::default();
    let flat = g.stride == 1 && ow == g.w;
    for (row, out_row) in out.chunks_exact_mut(nb * cols).enumerate() {
        let (c, kh, kw) = (row / (g.kw * g.kh), (row / g.kw) % g.kh, row % g.kw);
        let ys = tap_span(kh, g.stride, g.pad, g.h, oh);
        let xs = tap_span(kw, g.stride, g.pad, g.w, ow);
        if ys.is_empty() || xs.is_empty() {
            out_row.fill(zero);
            continue;
        }
        // Input coordinates of the rectangle's first tap.
        let iy0 = ys.start * g.stride + kh - g.pad;
        let ix0 = xs.start * g.stride + kw - g.pad;
        for (s, dst) in out_row.chunks_exact_mut(cols).enumerate() {
            let src = &input[s * sample_stride + c * plane..][..plane];
            dst[..ys.start * ow].fill(zero);
            dst[ys.end * ow..].fill(zero);
            if flat {
                let (j0, j1) = (ys.start * ow + xs.start, (ys.end - 1) * ow + xs.end);
                dst[j0..j1].copy_from_slice(&src[iy0 * g.w + ix0..][..j1 - j0]);
            } else {
                for (i, oy) in ys.clone().enumerate() {
                    let src_row = &src[(iy0 + i * g.stride) * g.w + ix0..];
                    let dst_row = &mut dst[oy * ow..][xs.clone()];
                    if g.stride == 1 {
                        dst_row.copy_from_slice(&src_row[..dst_row.len()]);
                    } else {
                        for (d, v) in dst_row.iter_mut().zip(src_row.iter().step_by(g.stride)) {
                            *d = *v;
                        }
                    }
                }
            }
            // Padding columns of the rectangle's rows, column by column:
            // a strided store the compiler keeps as a loop (a per-row
            // `fill` of one or two elements is a `memset` call each).
            for ox in (0..xs.start).chain(xs.end..ow) {
                for oy in ys.clone() {
                    dst[oy * ow + ox] = zero;
                }
            }
        }
    }
}

/// Scatters a col-matrix gradient `[C_in*KH*KW, OH*OW]` back to input
/// layout `[C_in, H, W]`, accumulating overlapping taps.
///
/// This is the adjoint of [`im2col`], used by the autograd engine for the
/// gradient with respect to a convolution's input.
pub fn col2im(cols_mat: &[f32], g: &Conv2dGeometry) -> Vec<f32> {
    let (oh, ow) = (g.out_h(), g.out_w());
    let cols = oh * ow;
    assert_eq!(
        cols_mat.len(),
        g.rows() * cols,
        "col matrix length mismatch"
    );
    let mut input = vec![0.0f32; g.c_in * g.h * g.w];
    for c in 0..g.c_in {
        for kh in 0..g.kh {
            for kw in 0..g.kw {
                let row = (c * g.kh + kh) * g.kw + kw;
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
                        input[(c * g.h + iy as usize) * g.w + ix as usize] +=
                            cols_mat[row * cols + oy * ow + ox];
                    }
                }
            }
        }
    }
    input
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::gemm_f32;

    fn naive_conv(input: &[f32], weight: &[f32], g: &Conv2dGeometry, c_out: usize) -> Vec<f32> {
        let (oh, ow) = (g.out_h(), g.out_w());
        let mut out = vec![0.0f32; c_out * oh * ow];
        for co in 0..c_out {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = 0.0;
                    for ci in 0..g.c_in {
                        for kh in 0..g.kh {
                            for kw in 0..g.kw {
                                let iy = (oy * g.stride + kh) as isize - g.pad as isize;
                                let ix = (ox * g.stride + kw) as isize - g.pad as isize;
                                if iy < 0 || iy >= g.h as isize || ix < 0 || ix >= g.w as isize {
                                    continue;
                                }
                                acc += input[(ci * g.h + iy as usize) * g.w + ix as usize]
                                    * weight[((co * g.c_in + ci) * g.kh + kh) * g.kw + kw];
                            }
                        }
                    }
                    out[(co * oh + oy) * ow + ox] = acc;
                }
            }
        }
        out
    }

    #[test]
    fn out_size_formula() {
        assert_eq!(conv_out_size(8, 3, 1, 1), 8);
        assert_eq!(conv_out_size(8, 3, 2, 1), 4);
        assert_eq!(conv_out_size(7, 7, 1, 0), 1);
        assert_eq!(conv_out_size(4, 1, 1, 0), 4);
    }

    #[test]
    fn im2col_gemm_matches_naive_conv() {
        use crate::rng::seeded;
        use rand::Rng;
        let mut rng = seeded(31);
        for &(stride, pad) in &[(1usize, 0usize), (1, 1), (2, 1)] {
            let g = Conv2dGeometry {
                c_in: 3,
                h: 6,
                w: 5,
                kh: 3,
                kw: 3,
                stride,
                pad,
            };
            let c_out = 4;
            let input: Vec<f32> = (0..g.c_in * g.h * g.w)
                .map(|_| rng.gen_range(-1.0..1.0))
                .collect();
            let weight: Vec<f32> = (0..c_out * g.rows())
                .map(|_| rng.gen_range(-1.0..1.0))
                .collect();
            let cols = im2col(&input, &g);
            let mut out = vec![0.0f32; c_out * g.cols()];
            gemm_f32(c_out, g.cols(), g.rows(), &weight, &cols, &mut out);
            let expect = naive_conv(&input, &weight, &g, c_out);
            for (a, b) in out.iter().zip(expect.iter()) {
                assert!((a - b).abs() < 1e-4, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn i8_and_f32_lowering_agree() {
        use crate::rng::seeded;
        use rand::Rng;
        let mut rng = seeded(32);
        let g = Conv2dGeometry {
            c_in: 2,
            h: 4,
            w: 4,
            kh: 3,
            kw: 3,
            stride: 1,
            pad: 1,
        };
        let input_i: Vec<i8> = (0..g.c_in * g.h * g.w)
            .map(|_| rng.gen_range(-50i16..=50) as i8)
            .collect();
        let input_f: Vec<f32> = input_i.iter().map(|&x| x as f32).collect();
        let ci = im2col_i8(&input_i, &g);
        let cf = im2col(&input_f, &g);
        for (a, b) in ci.iter().zip(cf.iter()) {
            assert_eq!(*a as f32, *b);
        }
    }

    #[test]
    fn batched_im2col_matches_per_sample() {
        use crate::rng::seeded;
        use rand::Rng;
        let mut rng = seeded(34);
        let g = Conv2dGeometry {
            c_in: 2,
            h: 5,
            w: 4,
            kh: 3,
            kw: 3,
            stride: 1,
            pad: 1,
        };
        let nb = 3;
        let chw = g.c_in * g.h * g.w;
        // Strided layout: each sample sits inside a wider activation.
        let stride = chw + 10;
        let input_f: Vec<f32> = (0..(nb - 1) * stride + chw)
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        let input_i: Vec<i8> = input_f.iter().map(|&v| (v * 50.0) as i8).collect();
        let big_f = im2col_batch(&input_f, nb, stride, &g);
        let big_i = im2col_i8_batch(&input_i, nb, stride, &g);
        let cols = g.cols();
        for s in 0..nb {
            let single_f = im2col(&input_f[s * stride..s * stride + chw], &g);
            let single_i = im2col_i8(&input_i[s * stride..s * stride + chw], &g);
            for row in 0..g.rows() {
                for j in 0..cols {
                    assert_eq!(
                        big_f[row * nb * cols + s * cols + j].to_bits(),
                        single_f[row * cols + j].to_bits()
                    );
                    assert_eq!(
                        big_i[row * nb * cols + s * cols + j],
                        single_i[row * cols + j]
                    );
                }
            }
        }
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random x, y — the defining
        // property of the adjoint, which is exactly what backprop needs.
        use crate::rng::seeded;
        use rand::Rng;
        let mut rng = seeded(33);
        let g = Conv2dGeometry {
            c_in: 2,
            h: 5,
            w: 4,
            kh: 3,
            kw: 2,
            stride: 2,
            pad: 1,
        };
        let x: Vec<f32> = (0..g.c_in * g.h * g.w)
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        let y: Vec<f32> = (0..g.rows() * g.cols())
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        let ax: Vec<f32> = im2col(&x, &g);
        let aty: Vec<f32> = col2im(&y, &g);
        let lhs: f32 = ax.iter().zip(y.iter()).map(|(a, b)| a * b).sum();
        let rhs: f32 = x.iter().zip(aty.iter()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    fn feature_group_rows_are_contiguous() {
        // Rows belonging to input channel c occupy [c*kh*kw, (c+1)*kh*kw).
        let g = Conv2dGeometry {
            c_in: 4,
            h: 3,
            w: 3,
            kh: 2,
            kw: 2,
            stride: 1,
            pad: 0,
        };
        let mut input = vec![0.0f32; g.c_in * g.h * g.w];
        // Mark channel 2 with a sentinel value.
        for i in 0..g.h * g.w {
            input[2 * g.h * g.w + i] = 7.0;
        }
        let cols = im2col(&input, &g);
        let band = 2 * g.kh * g.kw..3 * g.kh * g.kw;
        for row in 0..g.rows() {
            let has_sentinel = cols[row * g.cols()..(row + 1) * g.cols()].contains(&7.0);
            assert_eq!(has_sentinel, band.contains(&row), "row {row}");
        }
    }
}
