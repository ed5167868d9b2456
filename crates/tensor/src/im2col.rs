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
//! then `kh`, then `kw`). This ordering is load-bearing for FlexiQ: a
//! feature-channel group of `G` input channels corresponds to a contiguous
//! band of `G*KH*KW` rows of the lowered matrix, so the mixed-precision
//! GEMM can run each group's band at its own bitwidth and bit-shift the
//! partial sums exactly as the paper's GPU kernel does (§7).

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

/// [`im2col`] into a caller-provided buffer (cleared and resized to the
/// lowered extent, reusing its capacity) — the allocation-free variant
/// the hot path uses with [`crate::scratch`] buffers.
pub fn im2col_into(input: &[f32], g: &Conv2dGeometry, out: &mut Vec<f32>) {
    assert_eq!(input.len(), g.c_in * g.h * g.w, "input length mismatch");
    let cols = g.cols();
    out.clear();
    out.resize(g.rows() * cols, 0.0);
    fill_im2col(input, g, out, cols, 0);
}

/// Integer variant of [`im2col`] for the quantized execution path.
pub fn im2col_i8(input: &[i8], g: &Conv2dGeometry) -> Vec<i8> {
    let mut out = Vec::new();
    im2col_i8_into(input, g, &mut out);
    out
}

/// [`im2col_i8`] into a caller-provided buffer (cleared and resized,
/// reusing its capacity).
pub fn im2col_i8_into(input: &[i8], g: &Conv2dGeometry, out: &mut Vec<i8>) {
    out.clear();
    out.resize(g.rows() * g.cols(), 0);
    im2col_i8_fill(input, g, out);
}

/// [`im2col_i8`] into a caller-managed **pre-zeroed** slice of exactly
/// `rows() * cols()` elements (padding taps are left untouched, so a
/// dirty buffer would leak stale values into the padding positions).
pub fn im2col_i8_fill(input: &[i8], g: &Conv2dGeometry, out: &mut [i8]) {
    assert_eq!(input.len(), g.c_in * g.h * g.w, "input length mismatch");
    assert_eq!(out.len(), g.rows() * g.cols(), "output length mismatch");
    fill_im2col(input, g, out, g.cols(), 0);
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
    batch_lowering(input, nb, sample_stride, g, 0.0, &mut out);
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
    batch_lowering(input, nb, sample_stride, g, 0, &mut out);
    out
}

/// [`im2col_batch`] into a caller-provided buffer (cleared and resized,
/// reusing its capacity).
pub fn im2col_batch_into(
    input: &[f32],
    nb: usize,
    sample_stride: usize,
    g: &Conv2dGeometry,
    out: &mut Vec<f32>,
) {
    batch_lowering(input, nb, sample_stride, g, 0.0, out);
}

/// [`im2col_i8_batch`] into a caller-provided buffer (cleared and
/// resized, reusing its capacity).
pub fn im2col_i8_batch_into(
    input: &[i8],
    nb: usize,
    sample_stride: usize,
    g: &Conv2dGeometry,
    out: &mut Vec<i8>,
) {
    batch_lowering(input, nb, sample_stride, g, 0, out);
}

/// [`im2col_i8_batch`] into a caller-managed **pre-zeroed** slice of
/// exactly `rows() * nb * cols()` elements (padding taps are left
/// untouched — see [`im2col_i8_fill`]).
pub fn im2col_i8_batch_fill(
    input: &[i8],
    nb: usize,
    sample_stride: usize,
    g: &Conv2dGeometry,
    out: &mut [i8],
) {
    assert_eq!(
        out.len(),
        g.rows() * nb * g.cols(),
        "output length mismatch"
    );
    batch_fill(input, nb, sample_stride, g, out);
}

/// Shared worker behind the batched lowerings: resizes the output and
/// fills each sample's column block.
fn batch_lowering<T: Copy + Send + Sync>(
    input: &[T],
    nb: usize,
    sample_stride: usize,
    g: &Conv2dGeometry,
    zero: T,
    out: &mut Vec<T>,
) {
    assert!(nb > 0, "empty batch");
    out.clear();
    out.resize(g.rows() * nb * g.cols(), zero);
    batch_fill(input, nb, sample_stride, g, out);
}

/// Validates the strided batch layout and fills a pre-zeroed slice.
fn batch_fill<T: Copy + Send + Sync>(
    input: &[T],
    nb: usize,
    sample_stride: usize,
    g: &Conv2dGeometry,
    out: &mut [T],
) {
    let chw = g.c_in * g.h * g.w;
    assert!(nb > 0, "empty batch");
    assert!(
        input.len() >= (nb - 1) * sample_stride + chw,
        "batched input too short"
    );
    let cols = g.cols();
    let total = nb * cols;
    let rows = g.rows();
    // Output rows are contiguous, so chunks of rows partition the matrix
    // into disjoint slabs: each task lowers its rows for every sample.
    // The writes per element are identical to the serial fill, so the
    // parallel lowering is bit-exact at any thread count.
    // (The `in_task` check also skips the pool lookup, which may lazily
    // spawn the global pool, when a nested submit would inline anyway.)
    let worth_it = !flexiq_parallel::in_task() && rows >= 2 && rows * total >= 32 * 1024;
    if worth_it {
        let pool = flexiq_parallel::current();
        if pool.threads() >= 2 {
            let mut bands = flexiq_parallel::take_ranges();
            flexiq_parallel::chunk_ranges_into(rows, pool.threads() * 4, &mut bands);
            let mut elems = flexiq_parallel::take_ranges();
            elems.extend(bands.iter().map(|r| r.start * total..r.end * total));
            pool.run_disjoint_mut(&mut out[..], &elems, |bi, slab| {
                let rows = bands[bi].clone();
                for s in 0..nb {
                    fill_im2col_rows(
                        &input[s * sample_stride..s * sample_stride + chw],
                        g,
                        rows.clone(),
                        slab,
                        total,
                        s * cols,
                    );
                }
            });
            flexiq_parallel::put_ranges(elems);
            flexiq_parallel::put_ranges(bands);
            return;
        }
    }
    for s in 0..nb {
        fill_im2col_rows(
            &input[s * sample_stride..s * sample_stride + chw],
            g,
            0..rows,
            out,
            total,
            s * cols,
        );
    }
}

/// Writes one sample's lowering into `out`, whose rows are `total_cols`
/// wide, starting at column `col_off` (zero-padding taps stay zero).
fn fill_im2col<T: Copy>(
    input: &[T],
    g: &Conv2dGeometry,
    out: &mut [T],
    total_cols: usize,
    col_off: usize,
) {
    fill_im2col_rows(input, g, 0..g.rows(), out, total_cols, col_off);
}

/// Fills the lowered rows `[rows.start, rows.end)` of one sample; `out`
/// starts at row `rows.start`. A row decomposes as
/// `row = (c * KH + kh) * KW + kw`.
fn fill_im2col_rows<T: Copy>(
    input: &[T],
    g: &Conv2dGeometry,
    rows: std::ops::Range<usize>,
    out: &mut [T],
    total_cols: usize,
    col_off: usize,
) {
    let (oh, ow) = (g.out_h(), g.out_w());
    let row0 = rows.start;
    for row in rows {
        let kw = row % g.kw;
        let kh = (row / g.kw) % g.kh;
        let c = row / (g.kw * g.kh);
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
                out[(row - row0) * total_cols + col_off + oy * ow + ox] =
                    input[(c * g.h + iy as usize) * g.w + ix as usize];
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
