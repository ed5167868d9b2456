//! Property tests for the blocked, packed GEMM micro-kernels (ISSUE 5).
//!
//! The naive loops the blocked kernels replaced survive as
//! `gemm::reference` — the executable specification. These properties pin
//! the blocked kernels **bit-exact** against it across random shapes
//! (straddling the packing/blocking thresholds and tile edges), random
//! reduction bands `[k0, k1)`, both rhs layouts (row-major and
//! weight-transposed), column-batched stacking, sparse lhs operands (the
//! zero-skip case), and thread counts 1/2/4 (exercising the serial and
//! row-band plans).
//!
//! f32 comparisons are on exact bits, not tolerances: the blocked kernel
//! keeps every output element's in-order k-accumulation, so it must
//! reproduce the naive loop's rounding exactly.
//!
//! The SIMD-vs-scalar properties additionally pin the explicit vector
//! tiles (AVX2 and AVX-VNNI, runtime-dispatched) bit-identical to the
//! scalar tiles they replace, by running every kernel once under each
//! ISA cap the host supports (`simd::host_caps`) — scalar first — and
//! against the reference. The extreme-operand tests pin the byte-quad
//! tiles' offset-and-correction arithmetic where the VNNI accumulator
//! wraps mid-sum.

use std::sync::Mutex;

use flexiq::parallel::ThreadPool;
use flexiq::tensor::gemm::{self, reference};
use flexiq::tensor::im2col::{im2col_i8_batch, Conv2dGeometry};
use flexiq::tensor::rng::seeded;
use flexiq::tensor::simd;
use proptest::prelude::*;
use rand::Rng;

const THREADS: [usize; 3] = [1, 2, 4];

/// Serializes every test that moves the process-wide ISA cap, so a
/// concurrent cross-ISA comparison never observes a half-toggled state.
static CAP_LOCK: Mutex<()> = Mutex::new(());

fn cap_lock() -> std::sync::MutexGuard<'static, ()> {
    CAP_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// RAII ISA-cap scope: dispatch is capped at `isa` until drop.
struct Cap;

impl Cap {
    fn pin(isa: simd::Isa) -> Cap {
        simd::set_cap(Some(isa));
        Cap
    }
}

impl Drop for Cap {
    fn drop(&mut self) {
        simd::set_cap(None);
    }
}

fn rand_f32(len: usize, rng: &mut impl Rng) -> Vec<f32> {
    (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect()
}

/// Random i8 data with the requested per-mille zero rate (sparse lhs
/// operands exercise the integer kernels' zero-skip).
fn rand_i8(len: usize, zero_pct: u32, rng: &mut impl Rng) -> Vec<i8> {
    (0..len)
        .map(|_| {
            if rng.gen_range(0..100) < zero_pct {
                0
            } else {
                rng.gen_range(-128i16..=127) as i8
            }
        })
        .collect()
}

proptest! {
    /// Blocked f32 == naive f32, bit for bit, at any shape and thread
    /// count, including nonzero incoming C.
    #[test]
    fn f32_blocked_matches_reference_bitwise(
        m in 1usize..48,
        n in 1usize..180,
        k in 1usize..140,
        seed in 0u64..1000,
    ) {
        let mut rng = seeded(seed);
        let a = rand_f32(m * k, &mut rng);
        let b = rand_f32(k * n, &mut rng);
        let c0 = rand_f32(m * n, &mut rng);
        let mut expect = c0.clone();
        reference::gemm_f32(m, n, k, &a, &b, &mut expect);
        for threads in THREADS {
            let pool = ThreadPool::new(threads);
            let mut c = c0.clone();
            flexiq::parallel::with_pool(&pool, || gemm::gemm_f32(m, n, k, &a, &b, &mut c));
            for (i, (x, y)) in c.iter().zip(expect.iter()).enumerate() {
                prop_assert_eq!(x.to_bits(), y.to_bits(),
                    "({}, {}, {}) x{} elem {}", m, n, k, threads, i);
            }
        }
    }

    /// Blocked weight-transposed f32 == its reference, bit for bit.
    #[test]
    fn f32_wt_matches_reference_bitwise(
        m in 1usize..40,
        n in 1usize..120,
        k in 1usize..120,
        seed in 0u64..1000,
    ) {
        let mut rng = seeded(seed ^ 0xA5A5);
        let a = rand_f32(m * k, &mut rng);
        let w = rand_f32(n * k, &mut rng);
        let mut expect = vec![0.0f32; m * n];
        reference::gemm_f32_wt(m, n, k, &a, &w, &mut expect);
        for threads in THREADS {
            let pool = ThreadPool::new(threads);
            let mut c = vec![0.0f32; m * n];
            flexiq::parallel::with_pool(&pool, || gemm::gemm_f32_wt(m, n, k, &a, &w, &mut c));
            for (x, y) in c.iter().zip(expect.iter()) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    /// Blocked integer band GEMM == reference over random bands and
    /// sparsity (zero-skip is a pure optimization), at any thread count.
    #[test]
    fn i8_band_matches_reference(
        m in 1usize..48,
        n in 1usize..180,
        k in 2usize..140,
        band in 0.0f64..1.0,
        zero_pct in 0u32..70,
        seed in 0u64..1000,
    ) {
        let mut rng = seeded(seed ^ 0x17);
        let k0 = ((k as f64) * band * 0.5) as usize;
        let k1 = k - ((k as f64) * (1.0 - band) * 0.3) as usize;
        let (k0, k1) = (k0.min(k), k1.clamp(k0, k));
        let a = rand_i8(m * k, zero_pct, &mut rng);
        let b = rand_i8(k * n, 0, &mut rng);
        let mut expect = vec![0i32; m * n];
        reference::gemm_i8_band(m, n, k, k0, k1, &a, &b, &mut expect);
        for threads in THREADS {
            let pool = ThreadPool::new(threads);
            let mut c = vec![0i32; m * n];
            flexiq::parallel::with_pool(&pool, || {
                gemm::gemm_i8_band(m, n, k, k0, k1, &a, &b, &mut c)
            });
            prop_assert_eq!(&c, &expect, "({}, {}, {}) band [{}, {}) x{}",
                m, n, k, k0, k1, threads);
        }
    }

    /// Blocked weight-transposed integer band == its reference.
    #[test]
    fn i8_band_wt_matches_reference(
        m in 1usize..40,
        n in 1usize..120,
        k in 2usize..120,
        zero_pct in 0u32..70,
        seed in 0u64..1000,
    ) {
        let mut rng = seeded(seed ^ 0x2B);
        let k0 = rng.gen_range(0..k);
        let k1 = rng.gen_range(k0..=k);
        let a = rand_i8(m * k, zero_pct, &mut rng);
        let w = rand_i8(n * k, 0, &mut rng);
        let mut expect = vec![0i32; m * n];
        reference::gemm_i8_band_wt(m, n, k, k0, k1, &a, &w, &mut expect);
        for threads in THREADS {
            let pool = ThreadPool::new(threads);
            let mut c = vec![0i32; m * n];
            flexiq::parallel::with_pool(&pool, || {
                gemm::gemm_i8_band_wt(m, n, k, k0, k1, &a, &w, &mut c)
            });
            prop_assert_eq!(&c, &expect);
        }
    }

    /// Column-batched layouts (the stacked-batch rhs) stay bit-exact with
    /// per-sample reference calls — f32 and i8 — including the
    /// wide-but-short shapes (at most one row tile) that stay serial.
    #[test]
    fn colbatch_matches_per_sample_reference(
        nb in 1usize..6,
        m in 1usize..12,
        n in 1usize..80,
        k in 1usize..60,
        seed in 0u64..1000,
    ) {
        let mut rng = seeded(seed ^ 0x3C);
        let af = rand_f32(m * k, &mut rng);
        let ai = rand_i8(m * k, 30, &mut rng);
        let samples_f: Vec<Vec<f32>> = (0..nb).map(|_| rand_f32(k * n, &mut rng)).collect();
        let samples_i: Vec<Vec<i8>> = (0..nb).map(|_| rand_i8(k * n, 0, &mut rng)).collect();
        // Column-stacked rhs [k, nb*n].
        let mut bf = vec![0.0f32; k * nb * n];
        let mut bi = vec![0i8; k * nb * n];
        for p in 0..k {
            for s in 0..nb {
                bf[p * nb * n + s * n..p * nb * n + (s + 1) * n]
                    .copy_from_slice(&samples_f[s][p * n..(p + 1) * n]);
                bi[p * nb * n + s * n..p * nb * n + (s + 1) * n]
                    .copy_from_slice(&samples_i[s][p * n..(p + 1) * n]);
            }
        }
        for threads in THREADS {
            let pool = ThreadPool::new(threads);
            let mut cf = vec![0.0f32; m * nb * n];
            let mut ci = vec![0i32; m * nb * n];
            flexiq::parallel::with_pool(&pool, || {
                gemm::gemm_f32(m, nb * n, k, &af, &bf, &mut cf);
                gemm::gemm_i8(m, nb * n, k, &ai, &bi, &mut ci);
            });
            for s in 0..nb {
                let mut ef = vec![0.0f32; m * n];
                let mut ei = vec![0i32; m * n];
                reference::gemm_f32(m, n, k, &af, &samples_f[s], &mut ef);
                reference::gemm_i8(m, n, k, &ai, &samples_i[s], &mut ei);
                for i in 0..m {
                    for j in 0..n {
                        prop_assert_eq!(
                            cf[i * nb * n + s * n + j].to_bits(),
                            ef[i * n + j].to_bits(),
                            "f32 sample {} ({}, {}) x{}", s, i, j, threads
                        );
                        prop_assert_eq!(ci[i * nb * n + s * n + j], ei[i * n + j]);
                    }
                }
            }
        }
    }

    /// f32 under every ISA cap == f32 capped at scalar on the same
    /// inputs, bit for bit, across shapes, both rhs layouts, and thread
    /// counts — the exactness contract for the vector tiles. (Under
    /// `FLEXIQ_NO_SIMD=1` only the scalar cap runs and the property
    /// holds trivially.)
    #[test]
    fn f32_simd_matches_forced_scalar_bitwise(
        m in 1usize..48,
        n in 1usize..180,
        k in 1usize..140,
        seed in 0u64..1000,
    ) {
        let _serial = cap_lock();
        let mut rng = seeded(seed ^ 0x51);
        let a = rand_f32(m * k, &mut rng);
        let b = rand_f32(k * n, &mut rng);
        let w = rand_f32(n * k, &mut rng);
        let c0 = rand_f32(m * n, &mut rng);
        for threads in THREADS {
            let pool = ThreadPool::new(threads);
            let run = |isa| {
                let (mut c, mut cw) = (c0.clone(), vec![0.0f32; m * n]);
                flexiq::parallel::with_pool(&pool, || {
                    let _cap = Cap::pin(isa);
                    gemm::gemm_f32(m, n, k, &a, &b, &mut c);
                    gemm::gemm_f32_wt(m, n, k, &a, &w, &mut cw);
                });
                (c, cw)
            };
            let (c_scalar, cw_scalar) = run(simd::Isa::Scalar);
            for isa in simd::host_caps() {
                let (c, cw) = run(isa);
                for (i, (x, y)) in c.iter().zip(&c_scalar).enumerate() {
                    prop_assert_eq!(x.to_bits(), y.to_bits(),
                        "{:?} ({}, {}, {}) x{} elem {}", isa, m, n, k, threads, i);
                }
                for (i, (x, y)) in cw.iter().zip(&cw_scalar).enumerate() {
                    prop_assert_eq!(x.to_bits(), y.to_bits(),
                        "{:?} wt ({}, {}, {}) x{} elem {}", isa, m, n, k, threads, i);
                }
            }
        }
    }

    /// i8 under every ISA cap == the reference across bands, sparsity,
    /// both rhs layouts (prepacked weights too), column batching, and
    /// thread counts (exact in i32 every way — this pins the pair- and
    /// quad-panel packing, the quad corrections and tail handling).
    #[test]
    fn i8_simd_matches_forced_scalar(
        nb in 1usize..4,
        m in 1usize..40,
        n in 1usize..120,
        k in 2usize..140,
        zero_pct in 0u32..70,
        seed in 0u64..1000,
    ) {
        let _serial = cap_lock();
        let mut rng = seeded(seed ^ 0x6E);
        let k0 = rng.gen_range(0..k);
        let k1 = rng.gen_range(k0..=k);
        let a = rand_i8(m * k, zero_pct, &mut rng);
        let b = rand_i8(k * n, 0, &mut rng);
        let w = rand_i8(n * k, 0, &mut rng);
        let bcol = rand_i8(k * nb * n, 0, &mut rng);
        let mut want = vec![0i32; m * n];
        reference::gemm_i8_band(m, n, k, k0, k1, &a, &b, &mut want);
        let mut want_w = vec![0i32; m * n];
        reference::gemm_i8_band_wt(m, n, k, k0, k1, &a, &w, &mut want_w);
        let mut want_b = vec![0i32; m * nb * n];
        reference::gemm_i8(m, nb * n, k, &a, &bcol, &mut want_b);
        for threads in THREADS {
            let pool = ThreadPool::new(threads);
            for isa in simd::host_caps() {
                let mut c = vec![0i32; m * n];
                let (mut cw, mut cp) = (vec![0i32; m * n], vec![0i32; m * n]);
                let mut cb = vec![0i32; m * nb * n];
                flexiq::parallel::with_pool(&pool, || {
                    let _cap = Cap::pin(isa);
                    gemm::gemm_i8_band(m, n, k, k0, k1, &a, &b, &mut c);
                    gemm::gemm_i8_band_wt(m, n, k, k0, k1, &a, &w, &mut cw);
                    let packed = gemm::prepack_i8_wt_band(n, k, k0, k1, &w);
                    gemm::gemm_i8_band_wt_prepacked(m, n, k, k0, k1, &a, &w, &packed, &mut cp);
                    gemm::gemm_i8(m, nb * n, k, &a, &bcol, &mut cb);
                });
                prop_assert_eq!(&c, &want,
                    "{:?} band ({}, {}, {}) [{}, {}) x{}", isa, m, n, k, k0, k1, threads);
                prop_assert_eq!(&cw, &want_w, "{:?} wt x{}", isa, threads);
                prop_assert_eq!(&cp, &want_w, "{:?} prepacked wt x{}", isa, threads);
                prop_assert_eq!(&cb, &want_b, "{:?} colbatch nb={} x{}", isa, nb, threads);
            }
        }
    }
}

/// Low-range (`[-8, 7]`) or full-range i8 data.
fn rand_band(len: usize, nibble: bool, rng: &mut impl Rng) -> Vec<i8> {
    let (lo, hi) = if nibble { (-8i16, 7) } else { (-128, 127) };
    (0..len).map(|_| rng.gen_range(lo..=hi) as i8).collect()
}

/// One convolution case for the conv entry point: geometry, batch,
/// channels, conv groups and the feature-band width.
#[derive(Debug, Clone, Copy)]
struct ConvCase {
    geom: Conv2dGeometry,
    nb: usize,
    c_in: usize,
    groups: usize,
    band: usize,
    m: usize,
}

/// Checks every conv group of `case` through [`gemm::gemm_i8_low_bands`]
/// — lowered (`+8` operands, shifted write-back) when `nibble`, an 8-bit
/// full-range run otherwise — against `reference::gemm_i8_band` over
/// the group's `im2col_i8_batch` matrix with its rows permuted to the
/// band order, at threads 1/2/4 under every ISA cap the host has.
fn check_conv_case(case: ConvCase, nibble: bool, seed: u64) {
    let ConvCase {
        geom,
        nb,
        c_in,
        groups,
        band,
        m,
    } = case;
    let mut rng = seeded(seed);
    let (hw, khkw) = (geom.h * geom.w, geom.kh * geom.kw);
    let c_in_g = c_in / groups;
    let planes = rand_band(nb * c_in * hw, nibble, &mut rng);
    // Bands of `band` channels per conv group, the last one ragged.
    let widths: Vec<usize> = (0..groups)
        .flat_map(|_| (0..c_in_g).step_by(band).map(move |c| band.min(c_in_g - c)))
        .collect();
    let nq: usize = widths.iter().map(|w| w.div_ceil(4)).sum();
    let quad_len = 4 * (geom.h + 2 * geom.pad) * (geom.w + 2 * geom.pad);
    let mut quads = vec![0i8; nb * nq * quad_len];
    gemm::channel_quads_fill(&planes, nb, [geom.h, geom.w], geom.pad, &widths, &mut quads);
    let per_group = widths.len() / groups;
    let g_geom = Conv2dGeometry {
        c_in: c_in_g,
        ..geom
    };
    let n = nb * g_geom.cols();
    let mut q0 = 0;
    for cg in 0..groups {
        let bands_w = &widths[cg * per_group..(cg + 1) * per_group];
        // The group's im2col rows `(c, kh, kw)`, permuted to the band
        // order `(band, quad, kh, kw, channel)`: zero rows for the
        // channels that pad a band's last quad.
        let cols = im2col_i8_batch(&planes[cg * c_in_g * hw..], nb, c_in * hw, &g_geom);
        let mut b = Vec::new();
        let mut c0 = 0;
        for &w in bands_w {
            for p in 0..w.div_ceil(4) * 4 * khkw {
                let (ch, tap) = (4 * (p / (4 * khkw)) + p % 4, p / 4 % khkw);
                match ch < w {
                    true => b.extend_from_slice(&cols[((c0 + ch) * khkw + tap) * n..][..n]),
                    false => b.extend(std::iter::repeat_n(0, n)),
                }
            }
            c0 += w;
        }
        let kbs: Vec<usize> = bands_w.iter().map(|w| w.div_ceil(4) * 4 * khkw).collect();
        let k: usize = kbs.iter().sum();
        let a = rand_band(m * k, nibble, &mut rng);
        let shifts: Vec<Vec<u8>> = kbs
            .iter()
            .map(|_| (0..m).map(|_| rng.gen_range(0u8..=5)).collect())
            .collect();
        let a_shifts: Vec<u8> = match nibble {
            true => kbs.iter().map(|_| rng.gen_range(0u8..=5)).collect(),
            false => Vec::new(),
        };
        let c0: Vec<i32> = (0..m * n).map(|_| rng.gen_range(-500..500)).collect();
        // Per band, a reference GEMM into a scratch, then the shifted
        // accumulation as its own loop.
        let mut want = c0.clone();
        let mut k0 = 0;
        for (s, &kb) in kbs.iter().enumerate() {
            let mut scratch = vec![0i32; m * n];
            reference::gemm_i8_band(m, n, k, k0, k0 + kb, &a, &b, &mut scratch);
            for i in 0..m {
                let sh = a_shifts.get(s).map_or(0, |act| act + shifts[s][i]);
                for j in 0..n {
                    want[i * n + j] += scratch[i * n + j] << sh;
                }
            }
            k0 += kb;
        }
        let src = gemm::ConvSource {
            quads: &quads,
            nb,
            sample_stride: nq * quad_len,
            geom: g_geom,
            q0,
        };
        for isa in simd::host_caps() {
            let _cap = Cap::pin(isa);
            // The bands prepack for the capped ISA, as the engine's
            // cache does.
            let mut k0 = 0;
            let bands: Vec<gemm::LowBandLhs> = kbs
                .iter()
                .enumerate()
                .map(|(s, &kb)| {
                    let rows: Vec<i8> = (0..m)
                        .flat_map(|i| a[i * k + k0..i * k + k0 + kb].to_vec())
                        .collect();
                    k0 += kb;
                    match nibble {
                        true => gemm::LowBandLhs::new(m, kb, rows, shifts[s].clone()),
                        false => gemm::LowBandLhs::full(m, kb, rows),
                    }
                })
                .collect();
            for threads in THREADS {
                let pool = ThreadPool::new(threads);
                let mut c = c0.clone();
                flexiq::parallel::with_pool(&pool, || {
                    let call = gemm::LowBands {
                        bands: &bands,
                        a_shifts: &a_shifts,
                        src,
                    };
                    gemm::gemm_i8_low_bands(call, &mut c);
                });
                assert_eq!(
                    c, want,
                    "{isa:?} group {cg} {case:?} nibble={nibble} x{threads}"
                );
            }
        }
        q0 += bands_w.iter().map(|w| w.div_ceil(4)).sum::<usize>();
    }
}

/// A geometry whose output row is exactly `ow` wide (padding dropped
/// where the input would otherwise vanish).
fn conv_geometry(ow: usize, oh: usize, kernel: usize, stride: usize, pad: usize) -> Conv2dGeometry {
    let pad = if (ow - 1) * stride + kernel > 2 * pad && (oh - 1) * stride + kernel > 2 * pad {
        pad
    } else {
        0
    };
    let g = Conv2dGeometry {
        c_in: 0,
        h: (oh - 1) * stride + kernel - 2 * pad,
        w: (ow - 1) * stride + kernel - 2 * pad,
        kh: kernel,
        kw: kernel,
        stride,
        pad,
    };
    assert_eq!((g.out_h(), g.out_w()), (oh, ow), "{g:?}");
    g
}

proptest! {
    /// The conv entry point == per-band reference GEMMs over the
    /// permuted im2col matrix, shifted in afterwards, over random
    /// geometries: kernels 1–3, strides 1–3 (past the kernel too), pads
    /// 0–2, output rows that split panels and cross samples, channel
    /// counts that pad quads, bands of 1, 2 and 4 channels and
    /// depthwise groups — for lowered `+8` runs and full-range `+128`
    /// runs, at threads 1/2/4, under every ISA cap the host supports.
    #[test]
    fn low_bands_match_shifted_reference(
        ow in 0usize..6,
        oh in 1usize..4,
        kernel in 1usize..4,
        stride in 1usize..4,
        pad in 0usize..3,
        shape in 0usize..5,
        band in 0usize..3,
        depthwise in 0usize..4,
        nb in 1usize..4,
        m in 1usize..20,
        seed in 0u64..1000,
    ) {
        let _serial = cap_lock();
        let ow = [1usize, 3, 4, 8, 16, 33][ow];
        let c_in = [1usize, 3, 4, 5, 16][shape];
        let geom = conv_geometry(ow, oh, kernel, stride, pad);
        let groups = if depthwise == 0 { c_in } else { 1 };
        let case = ConvCase { geom, nb, c_in, groups, band: [1, 2, 4][band], m };
        check_conv_case(case, true, seed);
        check_conv_case(case, false, seed ^ 0x10B);
    }
}

/// The geometries where the reached pixels are not the whole plane —
/// 1×1 stride 2 and 2×2 stride 3 — and wide outputs whose panels span
/// many output rows, pinned outside the random draw.
#[test]
fn strides_past_the_kernel_read_the_right_pixels() {
    let _serial = cap_lock();
    for (ow, oh, kernel, stride, pad, c_in, band) in [
        (8, 8, 1, 2, 0, 16, 4),
        (4, 3, 2, 3, 0, 5, 4),
        (16, 4, 2, 3, 1, 3, 2),
        (33, 2, 3, 1, 1, 4, 4),
        (1, 5, 3, 2, 2, 5, 1),
    ] {
        let geom = conv_geometry(ow, oh, kernel, stride, pad);
        for groups in [1, c_in] {
            let case = ConvCase {
                geom,
                nb: 2,
                c_in,
                groups,
                band,
                m: 9,
            };
            check_conv_case(case, true, 77);
            check_conv_case(case, false, 78);
        }
    }
}

/// The cap really selects the dispatched ISA: the kernels record which
/// ISA they dispatched, pinning each cap the host supports must show
/// exactly that ISA (scalar included), and releasing the cap must
/// restore the hardware pick, modulo `FLEXIQ_NO_SIMD`.
#[test]
fn forced_scalar_really_disables_the_simd_path() {
    let _serial = cap_lock();
    let m = 8;
    let (n, k) = (16, 12);
    let mut rng = seeded(99);
    let a = rand_f32(m * k, &mut rng);
    let b = rand_f32(k * n, &mut rng);
    let mut c = vec![0.0f32; m * n];
    let ai = rand_i8(m * k, 0, &mut rng);
    let bi = rand_i8(k * n, 0, &mut rng);
    let mut ci = vec![0i32; m * n];
    for isa in simd::host_caps() {
        let _cap = Cap::pin(isa);
        assert_eq!(simd::active(), isa);
        gemm::gemm_f32(m, n, k, &a, &b, &mut c);
        assert_eq!(simd::last_dispatch(), Some(isa));
        gemm::gemm_i8_band(m, n, k, 0, k, &ai, &bi, &mut ci);
        assert_eq!(simd::last_dispatch(), Some(isa));
    }
    // Released: dispatch returns to whatever the process resolves to
    // (hardware detection, unless FLEXIQ_NO_SIMD pinned it to scalar).
    gemm::gemm_f32(m, n, k, &a, &b, &mut c);
    assert_eq!(simd::last_dispatch(), Some(simd::active()));
    gemm::gemm_i8_band(m, n, k, 0, k, &ai, &bi, &mut ci);
    assert_eq!(simd::last_dispatch(), Some(simd::active()));
    assert_eq!(simd::active(), *simd::host_caps().last().unwrap());
}

/// Runs `gemm_i8_band` (conv orientation), `gemm_i8_band_wt` and its
/// prepacked twin (linear orientation) on one `[m, k] × [k, n]` problem
/// under every ISA cap the host supports, and asserts each equals
/// `want`.
fn check_i8_every_cap(m: usize, n: usize, k: usize, a: &[i8], b: &[i8], want: &[i32]) {
    let w: Vec<i8> = (0..n * k).map(|i| b[(i % k) * n + i / k]).collect();
    for isa in simd::host_caps() {
        let _cap = Cap::pin(isa);
        let packed = gemm::prepack_i8_wt_band(n, k, 0, k, &w);
        let (mut c, mut cw, mut cp) = (vec![0i32; m * n], vec![0i32; m * n], vec![0i32; m * n]);
        gemm::gemm_i8_band(m, n, k, 0, k, a, b, &mut c);
        gemm::gemm_i8_band_wt(m, n, k, 0, k, a, &w, &mut cw);
        gemm::gemm_i8_band_wt_prepacked(m, n, k, 0, k, a, &w, &packed, &mut cp);
        assert_eq!(c, want, "{isa:?} band ({m}, {n}, {k})");
        assert_eq!(cw, want, "{isa:?} wt ({m}, {n}, {k})");
        assert_eq!(cp, want, "{isa:?} prepacked ({m}, {n}, {k})");
    }
}

/// The four corners of the i8 range at K = 70 000: under AVX-VNNI the
/// `+128`-offset sum `Σ a·(b + 128)` (up to `128·255·K ≈ 2.3·10⁹`)
/// wraps the i32 accumulator mid-sum, and the `-128·Σa` correction must
/// still bring every element back to exactly `K·a·b`. A ragged shape
/// (5 rows, 33 columns) also runs the edge tiles.
#[test]
fn extreme_operands_stay_exact_where_the_accumulator_wraps() {
    let _serial = cap_lock();
    let (m, n, k) = (5usize, 33usize, 70_000usize);
    for (av, bv) in [(-128i8, 127i8), (-128, -128), (127, 127), (127, -128)] {
        let (a, b) = (vec![av; m * k], vec![bv; k * n]);
        let want = vec![k as i32 * av as i32 * bv as i32; m * n];
        check_i8_every_cap(m, n, k, &a, &b, &want);
    }
}

/// Odd reduction tails (K = 27, the RNet20 stem's 3×3×3 patch, and
/// K = 4q ± 1 around a quad) and ragged edge tiles in both directions,
/// against the reference under every cap.
#[test]
fn odd_k_tails_and_ragged_tiles_match_the_reference_under_every_cap() {
    let _serial = cap_lock();
    let mut rng = seeded(0x27);
    for (m, n, k) in [
        (16, 1024, 27),
        (13, 70, 27),
        (7, 45, 129),
        (33, 97, 35),
        (2, 4096, 3),
    ] {
        let a = rand_i8(m * k, 20, &mut rng);
        let b = rand_i8(k * n, 0, &mut rng);
        let mut want = vec![0i32; m * n];
        reference::gemm_i8(m, n, k, &a, &b, &mut want);
        check_i8_every_cap(m, n, k, &a, &b, &want);
    }
}
