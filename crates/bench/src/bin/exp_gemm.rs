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
use flexiq_tensor::gemm::{self, reference};
use flexiq_tensor::rng::seeded;
use flexiq_tensor::simd::{self, Isa};
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

/// One row of the low-band sweep: a run of `bands` feature-group bands
/// of `kb` reduction steps each, the weights on the lhs (`[m, kb]` per
/// band against `[bands·kb, n]` im2col rows).
struct LowShape {
    name: &'static str,
    m: usize,
    n: usize,
    kb: usize,
    bands: usize,
}

const fn low(name: &'static str, m: usize, n: usize, kb: usize, bands: usize) -> LowShape {
    LowShape {
        name,
        m,
        n,
        kb,
        bands,
    }
}

/// RNet20's conv layers at batch 8 (`c_out` × `8·H·W`), as single
/// 4-channel 3×3 bands (kb = 36) and as the coalesced runs a fully
/// 4-bit layer issues (all of a layer's bands in one call).
const LOW_SHAPES: [LowShape; 6] = [
    low("rnet20_s1_band", 16, 2048, 36, 1),
    low("rnet20_s1_run", 16, 2048, 36, 4),
    low("rnet20_s2_band", 24, 512, 36, 1),
    low("rnet20_s2_run", 24, 512, 36, 6),
    low("rnet20_s3_band", 32, 128, 36, 1),
    low("rnet20_s3_run", 32, 128, 36, 8),
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
    let blocks: Vec<Vec<i8>> = (0..s.bands).map(|_| draw(m * kb)).collect();
    let shifts: Vec<u8> = (0..m).map(|i| (i % 3) as u8).collect();
    let a_shifts: Vec<u8> = (0..s.bands).map(|b| (b % 4) as u8).collect();
    let b = draw(s.bands * kb * n);
    let bands: Vec<gemm::LowBandLhs> = blocks
        .iter()
        .map(|w| gemm::LowBandLhs::new(m, kb, w.clone(), shifts.clone()))
        .collect();
    let call = gemm::LowBands {
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
        let madds = s.m * s.n * s.kb * s.bands;
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
            s.n.to_string(),
            s.kb.to_string(),
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
