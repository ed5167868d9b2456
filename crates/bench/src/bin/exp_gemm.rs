//! GEMM kernel sweep (ISSUE 5): naive reference loops vs the blocked,
//! packed micro-kernels, at shapes representative of the zoo's hot
//! layers.
//!
//! For each shape the blocked kernel's output is first verified
//! **bit-identical** to the [`flexiq_tensor::gemm::reference`] loop (so
//! a speedup can never come from skipped or approximated work), then
//! both are timed single-threaded inside an explicit 1-thread pool —
//! the sweep measures kernel quality (packing, blocking, register
//! tiling), not parallel fan-out, and a 1-thread pool is also far less
//! sensitive to CI runner noise.
//!
//! Emits `BENCH_gemm.json` at the workspace root (and a CSV under
//! `results/`), stamped with the dispatched kernel `isa` (avx2 / neon /
//! scalar). Gates are ISA-conditional, enforced here (exit 1) and
//! re-checked by CI's `bench_check`:
//!
//! * `large_i8` — the shape where the serving hot path spends its time —
//!   must beat naive by ≥ 2.5× when a SIMD ISA dispatched (the
//!   `maddubs`-style register tiles), ≥ 1.5× scalar;
//! * the small f32 shapes (`rnet20_conv_colbatch_f32`,
//!   `vits_linear_f32`) must reach ≥ 1.0× under SIMD — blocked f32 used
//!   to stay on the naive loop below `BLOCK_MIN_RHS_F32` precisely
//!   because it lost there; the vector tile removes that regression, so
//!   parity-or-better is now enforced;
//! * the i8 linear shapes additionally time the **prepacked** weight
//!   band as the integer engine runs it (`prepack_i8_wt_band` once
//!   outside the timed loop — the cached-weight serving pattern — then
//!   `gemm_i8_band_wt_prepacked` over the full band) against
//!   `gemm_i8_band_wt` packing the same weight-layout rhs per call:
//!   prepacked must never lose (≥ 1.0×) and must reach ≥ 1.3× on the
//!   decode-step linear, where per-call packing dominates the pass. A
//!   conv's rhs is activations and is never prepacked, so the other
//!   shapes carry no prepacked fields.
//!
//! * the **low-band** sweep times [`gemm::gemm_i8_low_bands`] — the
//!   4-bit band of the integer engines, shifted accumulation fused into
//!   the write-back — at the RNet20 band shapes, once on nibble-range
//!   (`[-8, 7]`) operands and once on full-range i8 operands of the same
//!   shape. Same entry point, same arithmetic work; the only difference
//!   is the tile the operand range admits. On AVX2 the nibble run takes
//!   the dense `vpmaddubsw` tile and must beat the pair tile by ≥ 1.3×
//!   on the conv rows; other ISAs run one tile for both and the gate is
//!   skipped. A decode-shape linear row (m = 8) rides along ungated.
//!
//! `FLEXIQ_BENCH_REPS` overrides the auto-calibrated repetition count.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use flexiq_bench::{f2, ResultTable};
use flexiq_tensor::gemm::{self, reference};
use flexiq_tensor::rng::seeded;
use flexiq_tensor::simd;
use rand::Rng;

/// Factor the gated int8 shape must beat naive by with scalar tiles.
const MIN_SPEEDUP: f64 = 1.5;
/// Factor the gated int8 shape must beat naive by when AVX2/NEON
/// dispatched.
const SIMD_MIN_SPEEDUP: f64 = 2.5;
/// Small-shape f32 floor under SIMD: the vector tile must at least match
/// the naive loop where the scalar blocked kernel used to lose.
const F32_MIN_SPEEDUP: f64 = 1.0;
/// Floor for the ahead-of-time prepacked weight band vs per-call
/// packing: reusing a cached panel must never lose to packing in-call.
const PREPACK_MIN_SPEEDUP: f64 = 1.0;
/// Prepacked floor on the decode-step linear, where per-call packing is
/// a substantial fraction of the work and caching it must pay off.
const PREPACK_SMALL_MIN_SPEEDUP: f64 = 1.3;

/// Floor for the dense low-range tile over the i8 pair tile on the conv
/// band shapes (AVX2 only — no other ISA has a dense tile).
const LOW_BAND_MIN_SPEEDUP: f64 = 1.3;

#[derive(Clone, Copy)]
enum Dtype {
    F32,
    I8,
}

struct Shape {
    /// Stable identifier in the JSON artifact.
    name: &'static str,
    dtype: Dtype,
    m: usize,
    n: usize,
    k: usize,
    /// Always-enforced shape: `speedup >= SIMD_MIN_SPEEDUP` when a SIMD
    /// ISA dispatched, `>= MIN_SPEEDUP` scalar.
    gated: bool,
}

/// Minimum speedup this shape must reach under the active ISA, or
/// `None` for informational-only shapes. Beyond the always-gated int8
/// shape, the two small f32 shapes are gated at parity when SIMD
/// dispatched: below `BLOCK_MIN_RHS_F32` the *scalar* blocked kernel
/// defers to the naive loop (which streams contiguously and
/// auto-vectorizes well), but the explicit vector tile engages blocking
/// everywhere — so losing to naive there again would be a regression.
fn gate_for(s: &Shape, simd_on: bool) -> Option<f64> {
    if s.gated {
        Some(if simd_on {
            SIMD_MIN_SPEEDUP
        } else {
            MIN_SPEEDUP
        })
    } else if simd_on && matches!(s.name, "rnet20_conv_colbatch_f32" | "vits_linear_f32") {
        Some(F32_MIN_SPEEDUP)
    } else {
        None
    }
}

/// Prepacked-vs-per-call floor for the shapes that time the prepacked
/// weight band — the i8 linears, the one production consumer of a
/// prepacked rhs — or `None` for every other shape: parity on the
/// context linear, `PREPACK_SMALL_MIN_SPEEDUP` on the decode step,
/// where per-call packing is the dominant overhead the cache exists to
/// delete.
fn prepack_gate_for(s: &Shape) -> Option<f64> {
    match s.name {
        "tinylm_linear_i8" => Some(PREPACK_MIN_SPEEDUP),
        "tinylm_linear_decode_i8" => Some(PREPACK_SMALL_MIN_SPEEDUP),
        _ => None,
    }
}

/// Representative hot-layer shapes: an RNet20 conv lowered over a
/// 16-sample colbatch, a ViTS token-matrix linear, a TinyLm context
/// linear, the large int8 GEMM the acceptance criterion gates, and a
/// wide f32 GEMM whose rhs exceeds `BLOCK_MIN_RHS_F32` (the threshold
/// below which the scalar f32 kernel defers to the naive loop; the SIMD
/// f32 tile blocks everywhere).
const SHAPES: [Shape; 8] = [
    Shape {
        name: "rnet20_conv_colbatch_f32",
        dtype: Dtype::F32,
        m: 32,
        n: 16 * 64,
        k: 16 * 9,
        gated: false,
    },
    Shape {
        name: "rnet20_conv_colbatch_i8",
        dtype: Dtype::I8,
        m: 32,
        n: 16 * 64,
        k: 16 * 9,
        gated: false,
    },
    Shape {
        name: "vits_linear_f32",
        dtype: Dtype::F32,
        m: 16 * 17,
        n: 192,
        k: 48,
        gated: false,
    },
    Shape {
        name: "tinylm_linear_i8",
        dtype: Dtype::I8,
        m: 16 * 12,
        n: 128,
        k: 64,
        gated: false,
    },
    // Decode-step linears: the same layers at a small token batch (one
    // decode step of an 8-request batch), where per-call rhs packing is
    // a large fraction of the pass — the regime the prepacked-weight
    // cache exists for.
    Shape {
        name: "vits_linear_decode_f32",
        dtype: Dtype::F32,
        m: 8,
        n: 192,
        k: 48,
        gated: false,
    },
    Shape {
        name: "tinylm_linear_decode_i8",
        dtype: Dtype::I8,
        m: 8,
        n: 128,
        k: 64,
        gated: false,
    },
    Shape {
        name: "large_i8",
        dtype: Dtype::I8,
        m: 192,
        n: 1024,
        k: 512,
        gated: true,
    },
    Shape {
        name: "wide_f32",
        dtype: Dtype::F32,
        m: 96,
        n: 4096,
        k: 256,
        gated: false,
    },
];

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

struct Measured {
    naive_s: f64,
    blocked_s: f64,
    /// Per-call and prepacked weight-band times, where timed.
    wt: Option<WtBand>,
}

/// The weight-layout band of an i8 linear, packed per call vs consumed
/// from a panel built once.
struct WtBand {
    per_call_s: f64,
    prepacked_s: f64,
}

fn measure_f32(m: usize, n: usize, k: usize, reps: usize, rng: &mut impl Rng) -> Measured {
    let a: Vec<f32> = (0..m * k).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let b: Vec<f32> = (0..k * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let mut c = vec![0.0f32; m * n];
    let mut expect = vec![0.0f32; m * n];
    gemm::gemm_f32(m, n, k, &a, &b, &mut c);
    reference::gemm_f32(m, n, k, &a, &b, &mut expect);
    for (i, (x, y)) in c.iter().zip(expect.iter()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "blocked f32 diverged at {i}");
    }
    let naive_s = time_best(reps, || {
        expect.fill(0.0);
        reference::gemm_f32(m, n, k, &a, &b, &mut expect);
        std::hint::black_box(&expect);
    });
    let blocked_s = time_best(reps, || {
        c.fill(0.0);
        gemm::gemm_f32(m, n, k, &a, &b, &mut c);
        std::hint::black_box(&c);
    });
    Measured {
        naive_s,
        blocked_s,
        wt: None,
    }
}

/// `linear` additionally times the shape as a quantized linear's 8-bit
/// band: the same rhs in weight layout `[n, k]`, packed per call vs
/// prepacked once.
fn measure_i8(
    m: usize,
    n: usize,
    k: usize,
    linear: bool,
    reps: usize,
    rng: &mut impl Rng,
) -> Measured {
    // ~25% zeros in the lhs, the sparsity regime of bit-lowered operands,
    // so both kernels' zero-skip paths see representative work.
    let a: Vec<i8> = (0..m * k)
        .map(|_| {
            if rng.gen_range(0..4) == 0 {
                0
            } else {
                rng.gen_range(-128i16..=127) as i8
            }
        })
        .collect();
    let b: Vec<i8> = (0..k * n)
        .map(|_| rng.gen_range(-128i16..=127) as i8)
        .collect();
    let mut c = vec![0i32; m * n];
    let mut expect = vec![0i32; m * n];
    gemm::gemm_i8(m, n, k, &a, &b, &mut c);
    reference::gemm_i8(m, n, k, &a, &b, &mut expect);
    assert_eq!(c, expect, "blocked i8 diverged");
    let naive_s = time_best(reps, || {
        expect.fill(0);
        reference::gemm_i8(m, n, k, &a, &b, &mut expect);
        std::hint::black_box(&expect);
    });
    let blocked_s = time_best(reps, || {
        c.fill(0);
        gemm::gemm_i8(m, n, k, &a, &b, &mut c);
        std::hint::black_box(&c);
    });
    let wt = linear.then(|| {
        let mut w = vec![0i8; n * k];
        for (p, brow) in b.chunks_exact(n).enumerate() {
            for (j, &v) in brow.iter().enumerate() {
                w[j * k + p] = v;
            }
        }
        // Prepack once outside the timed loop — the cached-weight
        // serving pattern — and hold both entry points to the same bits.
        let packed = gemm::prepack_i8_wt_band(n, k, 0, k, &w);
        c.fill(0);
        gemm::gemm_i8_band_wt(m, n, k, 0, k, &a, &w, &mut c);
        assert_eq!(c, expect, "weight-layout i8 band diverged");
        c.fill(0);
        gemm::gemm_i8_band_wt_prepacked(m, n, k, 0, k, &a, &w, &packed, &mut c);
        assert_eq!(c, expect, "prepacked i8 band diverged");
        let per_call_s = time_best(reps, || {
            c.fill(0);
            gemm::gemm_i8_band_wt(m, n, k, 0, k, &a, &w, &mut c);
            std::hint::black_box(&c);
        });
        let prepacked_s = time_best(reps, || {
            c.fill(0);
            gemm::gemm_i8_band_wt_prepacked(m, n, k, 0, k, &a, &w, &packed, &mut c);
            std::hint::black_box(&c);
        });
        WtBand {
            per_call_s,
            prepacked_s,
        }
    });
    Measured {
        naive_s,
        blocked_s,
        wt,
    }
}

/// One row of the low-band sweep: a run of `bands` feature-group bands
/// of `kb` reduction steps each. `conv` rows put the weights on the lhs
/// (`[m, kb]` per band against `[bands·kb, n]` im2col rows), the linear
/// row puts them on the rhs (`[m, kb]` strided activations against a
/// `[kb, n]` block).
struct LowShape {
    name: &'static str,
    conv: bool,
    m: usize,
    n: usize,
    kb: usize,
    bands: usize,
}

/// RNet20's conv layers at batch 8 (`c_out` × `8·H·W`), as single
/// 4-channel 3×3 bands (kb = 36) and as the coalesced runs a fully
/// 4-bit layer issues (all of a layer's bands in one call), plus the
/// decode-step linear band.
const LOW_SHAPES: [LowShape; 7] = [
    LowShape {
        name: "rnet20_s1_band",
        conv: true,
        m: 16,
        n: 2048,
        kb: 36,
        bands: 1,
    },
    LowShape {
        name: "rnet20_s1_run",
        conv: true,
        m: 16,
        n: 2048,
        kb: 36,
        bands: 4,
    },
    LowShape {
        name: "rnet20_s2_band",
        conv: true,
        m: 24,
        n: 512,
        kb: 36,
        bands: 1,
    },
    LowShape {
        name: "rnet20_s2_run",
        conv: true,
        m: 24,
        n: 512,
        kb: 36,
        bands: 6,
    },
    LowShape {
        name: "rnet20_s3_band",
        conv: true,
        m: 32,
        n: 128,
        kb: 36,
        bands: 1,
    },
    LowShape {
        name: "rnet20_s3_run",
        conv: true,
        m: 32,
        n: 128,
        kb: 36,
        bands: 8,
    },
    LowShape {
        name: "tinylm_linear_decode_band",
        conv: false,
        m: 8,
        n: 128,
        kb: 16,
        bands: 1,
    },
];

/// Times one low-band shape on operands drawn from `[-hi - 1, hi]`,
/// after checking the call against per-band reference GEMMs shifted in
/// by hand.
fn measure_low(s: &LowShape, hi: i16, reps: usize, rng: &mut impl Rng) -> f64 {
    let mut draw = |len: usize| -> Vec<i8> {
        (0..len)
            .map(|_| rng.gen_range(-hi - 1..=hi) as i8)
            .collect()
    };
    let (m, n, kb) = (s.m, s.n, s.kb);
    let mut c = vec![0i32; m * n];
    let mut expect = vec![0i32; m * n];
    if s.conv {
        let blocks: Vec<Vec<i8>> = (0..s.bands).map(|_| draw(m * kb)).collect();
        let shifts: Vec<u8> = (0..m).map(|i| (i % 3) as u8).collect();
        let a_shifts: Vec<u8> = (0..s.bands).map(|b| (b % 4) as u8).collect();
        let b = draw(s.bands * kb * n);
        let bands: Vec<gemm::LowBandLhs> = blocks
            .iter()
            .map(|w| gemm::LowBandLhs::new(m, kb, w.clone(), shifts.clone()))
            .collect();
        let call = gemm::LowBands::WeightLhs {
            n,
            bands: &bands,
            a_shifts: &a_shifts,
            b: &b,
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
    } else {
        let lda = 4 * kb;
        let a = draw(m * lda);
        let w = draw(kb * n);
        let shifts: Vec<u8> = (0..n).map(|j| (j % 3) as u8).collect();
        let band = gemm::LowBandRhs::new(n, kb, w.clone(), shifts.clone());
        let call = gemm::LowBands::WeightRhs {
            m,
            a: &a[kb..],
            lda,
            a_shift: 2,
            w: &band,
        };
        for i in 0..m {
            for j in 0..n {
                let dot: i32 = (0..kb)
                    .map(|p| a[i * lda + kb + p] as i32 * w[p * n + j] as i32)
                    .sum();
                expect[i * n + j] = dot << (2 + shifts[j]);
            }
        }
        gemm::gemm_i8_low_bands(call, &mut c);
        assert_eq!(c, expect, "low-band linear diverged ({})", s.name);
        time_best(reps, || {
            c.fill(0);
            gemm::gemm_i8_low_bands(call, &mut c);
            std::hint::black_box(&c);
        })
    }
}

/// Runs the low-band sweep, appends its JSON section, and returns
/// whether every gated row passed.
fn low_band_sweep(json: &mut String, isa: simd::Isa, rng: &mut impl Rng) -> bool {
    let dense = isa == simd::Isa::Avx2;
    let mut table = ResultTable::new(
        "Low-band GEMM: nibble-range operands vs full-range i8, same shapes (single thread)",
        &[
            "shape", "m", "n", "kb", "bands", "i8_ms", "low_ms", "speedup",
        ],
    );
    let mut all_pass = true;
    json.push_str("  \"low_bands\": [\n");
    for (si, s) in LOW_SHAPES.iter().enumerate() {
        let madds = s.m * s.n * s.kb * s.bands;
        let reps = reps_for(80_000_000 / madds, 2000);
        let i8_s = measure_low(s, 127, reps, rng);
        let low_s = measure_low(s, 7, reps, rng);
        let speedup = i8_s / low_s;
        let gate = (dense && s.conv).then_some(LOW_BAND_MIN_SPEEDUP);
        let gate_field = gate.map_or(String::new(), |min| format!(", \"min_speedup\": {min}"));
        table.row(vec![
            s.name.into(),
            s.m.to_string(),
            s.n.to_string(),
            s.kb.to_string(),
            s.bands.to_string(),
            format!("{:.4}", i8_s * 1e3),
            format!("{:.4}", low_s * 1e3),
            f2(speedup),
        ]);
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"m\": {}, \"n\": {}, \"kb\": {}, \"bands\": {}, \
             \"i8_ms\": {:.6}, \"low_ms\": {:.6}, \"speedup\": {:.4}{gate_field}}}{}",
            s.name,
            s.m,
            s.n,
            s.kb,
            s.bands,
            i8_s * 1e3,
            low_s * 1e3,
            speedup,
            if si + 1 < LOW_SHAPES.len() { "," } else { "" }
        );
        let verdict = match gate {
            None if s.conv => "skipped: isa",
            None => "informational",
            Some(min) if speedup >= min => "PASS",
            Some(_) => {
                all_pass = false;
                "FAIL"
            }
        };
        println!(
            "[{}] i8 tile {:.4} ms, low-band tile {:.4} ms ({speedup:.2}x, {verdict})",
            s.name,
            i8_s * 1e3,
            low_s * 1e3
        );
    }
    json.push_str("  ]\n");
    table.emit("gemm_low_bands");
    all_pass
}

fn main() {
    let mut rng = seeded(0x6E77);
    let isa = simd::active();
    let simd_on = isa != simd::Isa::Scalar;
    println!("[kernel isa: {}]", isa.name());
    let pool = flexiq_parallel::ThreadPool::new(1);
    let mut table = ResultTable::new(
        "GEMM kernels: naive reference vs blocked+packed (single thread)",
        &[
            "shape",
            "dtype",
            "m",
            "n",
            "k",
            "naive_ms",
            "blocked_ms",
            "wt_ms",
            "prepacked_ms",
            "naive_gflops",
            "blocked_gflops",
            "speedup",
            "prepacked_speedup",
        ],
    );
    let mut json = String::from("{\n  \"threads\": 1,\n");
    let _ = writeln!(json, "  \"isa\": \"{}\",", isa.name());
    let _ = writeln!(json, "  \"min_speedup\": {MIN_SPEEDUP},");
    json.push_str("  \"shapes\": [\n");

    let mut all_pass = true;
    for (si, s) in SHAPES.iter().enumerate() {
        let madds = s.m * s.n * s.k;
        // Calibrate reps to ~0.2 s of naive measurement per shape.
        let reps = reps_for(40_000_000 / madds, 400);
        let prepack_min = prepack_gate_for(s);
        let (dtype, meas) = flexiq_parallel::with_pool(&pool, || match s.dtype {
            Dtype::F32 => ("f32", measure_f32(s.m, s.n, s.k, reps, &mut rng)),
            Dtype::I8 => {
                let linear = prepack_min.is_some();
                ("i8", measure_i8(s.m, s.n, s.k, linear, reps, &mut rng))
            }
        });
        let gflops = |secs: f64| 2.0 * madds as f64 / secs / 1e9;
        let speedup = meas.naive_s / meas.blocked_s;
        // Prepacked weight band vs the same band packed per call.
        let wt = meas.wt.as_ref().zip(prepack_min);
        let wt_ratio = |wt: &WtBand| wt.per_call_s / wt.prepacked_s;
        let cell =
            |v: Option<f64>, digits: usize| v.map_or("-".to_string(), |v| format!("{v:.digits$}"));
        table.row(vec![
            s.name.into(),
            dtype.into(),
            s.m.to_string(),
            s.n.to_string(),
            s.k.to_string(),
            format!("{:.4}", meas.naive_s * 1e3),
            format!("{:.4}", meas.blocked_s * 1e3),
            cell(wt.map(|(wt, _)| wt.per_call_s * 1e3), 4),
            cell(wt.map(|(wt, _)| wt.prepacked_s * 1e3), 4),
            f2(gflops(meas.naive_s)),
            f2(gflops(meas.blocked_s)),
            f2(speedup),
            cell(wt.map(|(wt, _)| wt_ratio(wt)), 2),
        ]);
        let gate = gate_for(s, simd_on);
        let gate_field = match gate {
            Some(min) => format!(", \"min_speedup\": {min}"),
            None => String::new(),
        };
        let prepack_fields = wt.map_or(String::new(), |(wt, min)| {
            format!(
                ", \"wt_ms\": {:.6}, \"prepacked_ms\": {:.6}, \"prepacked_speedup\": {:.4}, \
                 \"min_prepacked_speedup\": {min}",
                wt.per_call_s * 1e3,
                wt.prepacked_s * 1e3,
                wt_ratio(wt)
            )
        });
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"dtype\": \"{dtype}\", \"m\": {}, \"n\": {}, \"k\": {}, \
             \"naive_ms\": {:.6}, \"blocked_ms\": {:.6}, \"naive_gflops\": {:.4}, \
             \"blocked_gflops\": {:.4}, \"speedup\": {:.4}{gate_field}{prepack_fields}}}{}",
            s.name,
            s.m,
            s.n,
            s.k,
            meas.naive_s * 1e3,
            meas.blocked_s * 1e3,
            gflops(meas.naive_s),
            gflops(meas.blocked_s),
            speedup,
            if si + 1 < SHAPES.len() { "," } else { "" }
        );
        let verdict = match gate {
            None => "informational",
            Some(min) if speedup >= min => "PASS",
            Some(_) => {
                all_pass = false;
                "FAIL"
            }
        };
        println!(
            "[{}] naive {:.2} GFLOP/s, blocked {:.2} GFLOP/s ({speedup:.2}x, {verdict})",
            s.name,
            gflops(meas.naive_s),
            gflops(meas.blocked_s),
        );
        if let Some((wt, min)) = wt {
            let ratio = wt_ratio(wt);
            let verdict = if ratio >= min {
                "PASS"
            } else {
                all_pass = false;
                "FAIL"
            };
            println!(
                "[{}] prepacked weight band {ratio:.2}x vs per-call (>= {min}x, {verdict})",
                s.name
            );
        }
    }
    json.push_str("  ],\n");
    all_pass &= flexiq_parallel::with_pool(&pool, || low_band_sweep(&mut json, isa, &mut rng));
    json.push_str("}\n");

    table.emit("gemm_kernels");
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let path = root.join("BENCH_gemm.json");
    match std::fs::write(&path, json) {
        Ok(()) => println!("[written {}]", path.display()),
        // A stale artifact would let the bench_check gate validate old
        // numbers and silently pass — a failed write must fail the run.
        Err(e) => {
            eprintln!("FAIL: could not write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
    if !all_pass {
        eprintln!(
            "FAIL: blocked kernel below its gate on a shape above (isa: {})",
            isa.name()
        );
        std::process::exit(1);
    }
}
