//! Low-band GEMM sweep: the dense nibble-range tile against the i8 pair
//! tile, at the shapes the integer engine issues.
//!
//! Times [`gemm::gemm_i8_low_bands`] — the 4-bit band of the integer
//! engines, shifted accumulation fused into the write-back — at the
//! RNet20 band shapes, once on nibble-range (`[-8, 7]`) operands and
//! once on full-range i8 operands of the same shape. Same entry point,
//! same arithmetic work; the only difference is the tile the operand
//! range admits. Every call is first checked against per-band
//! [`flexiq_tensor::gemm::reference`] GEMMs shifted in by hand, so a
//! speedup can never come from skipped work, and both runs are timed
//! inside an explicit 1-thread pool (kernel quality, not fan-out).
//!
//! **Floor** ([`floors`], the only place it is stated): on AVX2 the
//! nibble run takes the dense `vpmaddubsw` tile and must beat the pair
//! tile by ≥ [`LOW_BAND_MIN_SPEEDUP`] on every conv row. The sweep caps
//! dispatch at AVX2 (`simd::set_cap`), so an AVX-VNNI host gates the
//! same two tiles; scalar dispatch runs one tile for both operand
//! ranges, so the sweep cannot discriminate and the floor is skipped.
//! Where the host has AVX-VNNI, both runs are timed once more uncapped
//! (`vnni_i8_ms`, `vnni_low_ms`): there both ranges take the one
//! `vpdpbusd` tile (`+128` and `+8` panels), so those columns report
//! without a floor what the precision knob still buys on that tier. Linear layers issue no low-band
//! call (their shifts fold into the operands of one plain GEMM), so
//! every row is a conv shape. The binary prints its table (CSV under
//! `results/`) and exits 1 on a miss — CI reads the exit code.
//!
//! Blocked-kernel throughput and panel reuse are not timed here: the
//! end-to-end benchmark reads them off the served engine
//! (`tensor.gemm_gmadds_per_s`, `tensor.pack_hits`).
//!
//! `FLEXIQ_BENCH_REPS` overrides the auto-calibrated repetition count.

use std::time::Instant;

use flexiq_bench::{f2, ResultTable};
use flexiq_nn::exec::{self, Compute};
use flexiq_nn::ops::{Conv2d, Linear};
use flexiq_nn::zoo::{ModelId, Scale};
use flexiq_nn::LayerId;
use flexiq_tensor::gemm::{self, reference};
use flexiq_tensor::im2col::{im2col_i8_batch, im2col_i8_batch_fill, Conv2dGeometry};
use flexiq_tensor::rng::seeded;
use flexiq_tensor::simd::{self, Isa};
use flexiq_tensor::Tensor;
use rand::Rng;

/// Floor for the dense low-range tile over the i8 pair tile on the conv
/// band shapes (AVX2 tiles only).
const LOW_BAND_MIN_SPEEDUP: f64 = 1.3;

/// Best-of-3 wall time of `reps` calls to `run`, with one untimed
/// warm-up call first so pack/scratch buffers are allocated before the
/// clock starts (steady state, not first-iteration cost).
fn time_best(reps: usize, mut run: impl FnMut()) -> f64 {
    run();
    (0..3)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..reps {
                run();
            }
            t0.elapsed().as_secs_f64() / reps as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Repetitions per timing: `FLEXIQ_BENCH_REPS` if set, else `auto`
/// clamped to `[3, cap]`.
fn reps_for(auto: usize, cap: usize) -> usize {
    std::env::var("FLEXIQ_BENCH_REPS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .map(|r| r.max(1))
        .unwrap_or_else(|| auto.clamp(3, cap))
}

/// One row of the low-band sweep: a run of `bands` 4-channel 3×3
/// feature-group bands (`kb = 36` reduction steps each) of a stride-1
/// conv over batch-8 `hw × hw` inputs, the weights on the lhs (`[m, kb]`
/// per band) against the channel-quad activations.
struct LowShape {
    name: &'static str,
    m: usize,
    hw: usize,
    bands: usize,
}

const fn low(name: &'static str, m: usize, hw: usize, bands: usize) -> LowShape {
    LowShape { name, m, hw, bands }
}

/// Batch of every sweep row.
const NB: usize = 8;

/// Channels of one feature-group band in the sweep.
const BAND: usize = 4;

/// RNet20's conv layers at batch 8 (`c_out` × `8·H·W`), as single
/// 4-channel 3×3 bands (kb = 36) and as the coalesced runs a fully
/// 4-bit layer issues (all of a layer's bands in one call).
const LOW_SHAPES: [LowShape; 6] = [
    low("rnet20_s1_band", 16, 16, 1),
    low("rnet20_s1_run", 16, 16, 4),
    low("rnet20_s2_band", 24, 8, 1),
    low("rnet20_s2_run", 24, 8, 6),
    low("rnet20_s3_band", 32, 4, 1),
    low("rnet20_s3_run", 32, 4, 8),
];

/// The 3×3, pad-1, stride-1 geometry of a sweep row.
fn geom3x3(c_in: usize, hw: usize) -> Conv2dGeometry {
    Conv2dGeometry {
        c_in,
        h: hw,
        w: hw,
        kh: 3,
        kw: 3,
        stride: 1,
        pad: 1,
    }
}

/// Random `[nb, C, H, W]` i8 planes in `[-hi - 1, hi]`.
fn draw(len: usize, hi: i16, rng: &mut impl Rng) -> Vec<i8> {
    (0..len)
        .map(|_| rng.gen_range(-hi - 1..=hi) as i8)
        .collect()
}

/// Channel quads of `planes` (`[nb, Σ widths, H, W]`) cut into bands
/// of `widths` channels, padded for `g`.
fn quads_of(planes: &[i8], nb: usize, g: &Conv2dGeometry, widths: &[usize]) -> Vec<i8> {
    let nq: usize = widths.iter().map(|w| w.div_ceil(4)).sum();
    let mut quads = vec![0i8; nb * nq * 4 * (g.h + 2 * g.pad) * (g.w + 2 * g.pad)];
    gemm::channel_quads_fill(planes, nb, [g.h, g.w], g.pad, widths, &mut quads);
    quads
}

/// The im2col matrix of `planes` with its rows permuted from `(channel,
/// tap)` to the conv source's band order `(band, quad, tap, channel)`,
/// zero rows on the channels that pad a band's last quad: the
/// `[Σ kb, n]` rhs the conv entry point must reproduce.
fn band_block(planes: &[i8], nb: usize, g: &Conv2dGeometry, widths: &[usize]) -> Vec<i8> {
    let cols = im2col_i8_batch(planes, nb, g.c_in * g.h * g.w, g);
    let (n, khkw) = (nb * g.cols(), g.kh * g.kw);
    let mut block = Vec::with_capacity(cols.len());
    let mut c0 = 0;
    for &w in widths {
        for p in 0..w.div_ceil(4) * 4 * khkw {
            let (ch, tap) = (4 * (p / (4 * khkw)) + p % 4, p / 4 % khkw);
            match ch < w {
                true => block.extend_from_slice(&cols[((c0 + ch) * khkw + tap) * n..][..n]),
                false => block.extend(std::iter::repeat_n(0, n)),
            }
        }
        c0 += w;
    }
    block
}

/// Times one low-band shape on operands drawn from `[-hi - 1, hi]`,
/// after checking the call against per-band reference GEMMs over the
/// permuted im2col matrix, shifted in by hand.
fn measure_low(s: &LowShape, hi: i16, reps: usize, rng: &mut impl Rng) -> f64 {
    let (m, kb) = (s.m, BAND * 9);
    let g = geom3x3(BAND * s.bands, s.hw);
    let n = NB * g.cols();
    let widths = vec![BAND; s.bands];
    let planes = draw(NB * g.c_in * s.hw * s.hw, hi, rng);
    let quads = quads_of(&planes, NB, &g, &widths);
    let b = band_block(&planes, NB, &g, &widths);
    let mut c = vec![0i32; m * n];
    let mut expect = vec![0i32; m * n];
    let blocks: Vec<Vec<i8>> = (0..s.bands).map(|_| draw(m * kb, hi, rng)).collect();
    let shifts: Vec<u8> = (0..m).map(|i| (i % 3) as u8).collect();
    let a_shifts: Vec<u8> = (0..s.bands).map(|b| (b % 4) as u8).collect();
    let bands: Vec<gemm::LowBandLhs> = blocks
        .iter()
        .map(|w| gemm::LowBandLhs::new(m, kb, w.clone(), shifts.clone()))
        .collect();
    let call = gemm::LowBands {
        bands: &bands,
        a_shifts: &a_shifts,
        src: gemm::ConvSource {
            quads: &quads,
            nb: NB,
            sample_stride: quads.len() / NB,
            geom: g,
            q0: 0,
        },
    };
    for (bi, w) in blocks.iter().enumerate() {
        let mut scratch = vec![0i32; m * n];
        reference::gemm_i8(m, n, kb, w, &b[bi * kb * n..], &mut scratch);
        for (i, (e, v)) in expect.iter_mut().zip(&scratch).enumerate() {
            *e += v << (a_shifts[bi] + shifts[i / n]);
        }
    }
    gemm::gemm_i8_low_bands(call, &mut c);
    assert_eq!(c, expect, "low-band run diverged ({})", s.name);
    time_best(reps, || {
        c.fill(0);
        gemm::gemm_i8_low_bands(call, &mut c);
        std::hint::black_box(&c);
    })
}

/// One conv layer's operand shape as the integer engine meets it.
struct ConvCall {
    layer: LayerId,
    geom: Conv2dGeometry,
}

/// Records every conv layer's input geometry of an f32 forward pass.
#[derive(Default)]
struct ConvShapes(Vec<ConvCall>);

impl Compute for ConvShapes {
    fn conv2d(&mut self, layer: LayerId, conv: &Conv2d, x: &Tensor) -> flexiq_nn::Result<Tensor> {
        let (c_in, h, w) = conv.check_input(x)?;
        self.0.push(ConvCall {
            layer,
            geom: Conv2dGeometry {
                c_in,
                ..conv.group_geometry(h, w)
            },
        });
        conv.forward(x)
    }

    fn linear(&mut self, _: LayerId, lin: &Linear, x: &Tensor) -> flexiq_nn::Result<Tensor> {
        lin.forward(x)
    }
}

/// The rhs operand cost of every RNet20 conv layer at batch 8, the two
/// ways the engine has built it: `im2col_pack_ms` is the lowered matrix
/// (`im2col_i8_batch_fill`) plus its `+128` quad pack, `quads_ms` the
/// channel-quad interleave of the activation and `conv_pack_ms` the
/// same quad panels packed straight from those quads. Before timing,
/// the straight panels are checked byte-identical to the quad pack of
/// the permuted im2col matrix. Reported as measured, with no floor.
fn conv_pack_table() {
    let graph = ModelId::RNet20.build(Scale::Eval).expect("RNet20 builds");
    let dims = ModelId::RNet20.input_dims(Scale::Eval);
    let mut shapes = ConvShapes::default();
    let x = Tensor::zeros(dims);
    exec::run(&graph, &x, &mut shapes).expect("RNet20 runs");
    let mut rng = seeded(0xC0D5);
    let pool = flexiq_parallel::ThreadPool::new(1);
    let mut table = ResultTable::new(
        "Conv rhs panels at batch 8: im2col + quad pack vs straight from channel quads (single thread)",
        &[
            "layer",
            "c_in",
            "hw",
            "kernel",
            "stride",
            "n",
            "k",
            "im2col_pack_ms",
            "quads_ms",
            "conv_pack_ms",
        ],
    );
    let (mut old_total, mut new_total) = (0.0, 0.0);
    for ConvCall { layer, geom: g } in &shapes.0 {
        let hw = g.h * g.w;
        let widths: Vec<usize> = (0..g.c_in)
            .step_by(BAND)
            .map(|c| BAND.min(g.c_in - c))
            .collect();
        let planes = draw(NB * g.c_in * hw, 127, &mut rng);
        let quads = quads_of(&planes, NB, g, &widths);
        let src = gemm::ConvSource {
            quads: &quads,
            nb: NB,
            sample_stride: quads.len() / NB,
            geom: *g,
            q0: 0,
        };
        let (n, k) = (src.n(), g.rows());
        let kb = widths.iter().map(|w| w.div_ceil(4)).sum::<usize>() * src.quad_steps();
        let (mut straight, mut permuted) = (Vec::new(), Vec::new());
        src.pack_quads(kb, 128, &mut straight);
        gemm::pack_rows_quads(
            &band_block(&planes, NB, g, &widths),
            n,
            kb,
            128,
            &mut permuted,
        );
        assert_eq!(
            straight.len(),
            permuted.len(),
            "layer {layer}: panel extents differ"
        );
        for (i, (a, b)) in straight.iter().zip(&permuted).enumerate() {
            // Lanes past `n` hold the offset's zero against a raw zero.
            if i / (kb * gemm::NR_I8) * gemm::NR_I8 + i / 4 % gemm::NR_I8 < n {
                assert_eq!(a, b, "layer {layer}: panel byte {i} differs");
            }
        }
        let reps = reps_for(400_000_000 / (k * n).max(1), 400);
        let (old, interleave, new) = flexiq_parallel::with_pool(&pool, || {
            let mut cols = vec![0i8; k * n];
            let mut panel = Vec::new();
            let old = time_best(reps, || {
                im2col_i8_batch_fill(&planes, NB, g.c_in * hw, g, &mut cols);
                gemm::pack_rows_quads(&cols, n, k, 128, &mut panel);
                std::hint::black_box(&panel);
            });
            let mut out = quads.clone();
            let interleave = time_best(reps, || {
                gemm::channel_quads_fill(&planes, NB, [g.h, g.w], g.pad, &widths, &mut out);
                std::hint::black_box(&out);
            });
            let new = time_best(reps, || {
                src.pack_quads(kb, 128, &mut panel);
                std::hint::black_box(&panel);
            });
            (old, interleave, new)
        });
        old_total += old;
        new_total += interleave + new;
        table.row(vec![
            layer.to_string(),
            g.c_in.to_string(),
            format!("{}x{}", g.h, g.w),
            format!("{}x{}", g.kh, g.kw),
            g.stride.to_string(),
            n.to_string(),
            k.to_string(),
            format!("{:.4}", old * 1e3),
            format!("{:.4}", interleave * 1e3),
            format!("{:.4}", new * 1e3),
        ]);
    }
    table.row(vec![
        "total".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        format!("{:.4}", old_total * 1e3),
        "-".into(),
        format!("{:.4}", new_total * 1e3),
    ]);
    table.emit("gemm_conv_pack");
}

/// One measured row: nibble-range speedup over full-range i8.
struct Row {
    name: &'static str,
    speedup: f64,
}

/// The floor, stated once: with a dense tile (`dense`, any ISA with
/// AVX2, capped at AVX2 by the sweep) every row
/// must reach [`LOW_BAND_MIN_SPEEDUP`]; without a dense tile nothing can
/// be gated. Returns one message per miss — empty means pass.
fn floors(dense: bool, rows: &[Row]) -> Vec<String> {
    if !dense {
        return Vec::new();
    }
    let mut misses: Vec<String> = rows
        .iter()
        .filter(|r| r.speedup < LOW_BAND_MIN_SPEEDUP)
        .map(|r| {
            format!(
                "{}: low-band tile {:.2}x the i8 tile, floor {LOW_BAND_MIN_SPEEDUP}x",
                r.name, r.speedup
            )
        })
        .collect();
    if rows.is_empty() {
        misses.push("no band row was measured — the floor vouches for nothing".into());
    }
    misses
}

fn main() {
    let mut rng = seeded(0x6E77);
    // The floor compares two AVX2 tiles; a VNNI host runs them too.
    simd::set_cap(Some(Isa::Avx2));
    let isa = simd::active();
    let dense = isa.has_avx2();
    let vnni = simd::host_caps().contains(&Isa::AvxVnni);
    println!(
        "[kernel isa: {} (host: {})]",
        isa.name(),
        simd::detect().name()
    );
    let pool = flexiq_parallel::ThreadPool::new(1);
    let mut table = ResultTable::new(
        "Low-band GEMM: nibble-range operands vs full-range i8, same shapes (single thread)",
        &[
            "shape",
            "m",
            "n",
            "kb",
            "bands",
            "i8_ms",
            "low_ms",
            "speedup",
            "vnni_i8_ms",
            "vnni_low_ms",
        ],
    );
    let mut rows = Vec::with_capacity(LOW_SHAPES.len());
    for s in &LOW_SHAPES {
        let madds = s.m * NB * s.hw * s.hw * BAND * 9 * s.bands;
        let reps = reps_for(80_000_000 / madds, 2000);
        let (i8_s, low_s) = flexiq_parallel::with_pool(&pool, || {
            (
                measure_low(s, 127, reps, &mut rng),
                measure_low(s, 7, reps, &mut rng),
            )
        });
        let speedup = i8_s / low_s;
        let [vnni_i8, vnni_low] = if vnni {
            simd::set_cap(None);
            let t = [127, 7].map(|hi| {
                let t = flexiq_parallel::with_pool(&pool, || measure_low(s, hi, reps, &mut rng));
                format!("{:.4}", t * 1e3)
            });
            simd::set_cap(Some(Isa::Avx2));
            t
        } else {
            ["-".into(), "-".into()]
        };
        table.row(vec![
            s.name.into(),
            s.m.to_string(),
            (NB * s.hw * s.hw).to_string(),
            (BAND * 9).to_string(),
            s.bands.to_string(),
            format!("{:.4}", i8_s * 1e3),
            format!("{:.4}", low_s * 1e3),
            f2(speedup),
            vnni_i8,
            vnni_low,
        ]);
        rows.push(Row {
            name: s.name,
            speedup,
        });
    }
    table.emit("gemm_low_bands");
    simd::set_cap(None);
    conv_pack_table();

    let misses = floors(dense, &rows);
    for m in &misses {
        eprintln!("FAIL: {m}");
    }
    if !misses.is_empty() {
        std::process::exit(1);
    }
    if dense {
        println!("low-band sweep PASS (every row >= {LOW_BAND_MIN_SPEEDUP}x)");
    } else {
        println!(
            "low-band floor skipped: isa {} has no dense tile",
            isa.name()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(band: f64) -> Vec<Row> {
        let row = |name, speedup| Row { name, speedup };
        vec![row("rnet20_s1_band", band), row("rnet20_s1_run", 2.8)]
    }

    #[test]
    fn low_band_floor_is_avx2_only_and_fails_a_doctored_regression() {
        // Healthy AVX2 sweep.
        assert!(floors(true, &rows(1.5)).is_empty());
        assert!(floors(true, &rows(LOW_BAND_MIN_SPEEDUP)).is_empty());
        // The dense tile losing its edge on one band shape fails, and
        // names the row.
        let misses = floors(true, &rows(1.1));
        assert_eq!(misses.len(), 1);
        assert!(misses[0].starts_with("rnet20_s1_band"), "{misses:?}");
        // Every other ISA shares one tile: nothing to gate.
        assert!(floors(false, &rows(1.0)).is_empty());
        // A sweep whose rows vanished cannot pass by vacuity.
        assert_eq!(floors(true, &rows(1.5)[2..]).len(), 1);
    }
}
