//! The branch-free quantizer ≡ the `f32::round` definition, and
//! `quantize_slice` (SIMD and scalar dispatch) ≡ the per-element formula.
//!
//! `QParams::quantize` is the one quantization formula production runs;
//! it replaced `clip(round(x / scale))` written with `f32::round` (a libm
//! call per element) by a truncation after adding the largest f32 below
//! one half. The old body lives on here as the oracle, and the suite
//! walks the inputs where the two could part: every rounding tie and its
//! float neighbours, the clamp edges, the non-finite and subnormal
//! values, and millions of random bit patterns — at several scales and
//! at 2, 4 and 8 bits. CI re-runs it with `FLEXIQ_NO_SIMD=1`, where
//! `quantize_slice` takes the scalar path throughout.

use std::sync::{Mutex, MutexGuard};

use flexiq::quant::{QParams, QuantBits};
use flexiq::tensor::rng::seeded;
use flexiq::tensor::simd;
use rand::Rng;

/// The definition: Eq. 1 with `f32::round` (ties away from zero), the
/// body `QParams::quantize` had before it went branch-free.
fn reference(p: &QParams, x: f32) -> i32 {
    let q = (x / p.scale()).round() as i64;
    q.clamp(p.bits().qmin() as i64, p.bits().qmax() as i64) as i32
}

const BITS: [QuantBits; 3] = [QuantBits::B2, QuantBits::B4, QuantBits::B8];

/// Scales from the calibrated range (`0.05`, the paper's `0.033`), exact
/// powers of two, and magnitudes that push `x / scale` to the ends of
/// the f32 range.
const SCALES: [f32; 8] = [0.05, 0.033, 1.0, 0.007_812_5, 3.7, 1.0e-3, 2.5e-30, 6.0e28];

/// `simd::set_cap` is process-global: the tests of this binary take
/// turns, so a capped window never hides the SIMD body from a test that
/// means to cover it.
fn dispatch_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Checks `quantize` against the reference on every value, then the same
/// values through `quantize_slice`.
fn check(p: &QParams, xs: &[f32]) {
    let mut out = vec![0x55i8; xs.len()];
    p.quantize_slice(xs, &mut out);
    for (&x, &got) in xs.iter().zip(&out) {
        let want = reference(p, x);
        let ctx = (x, x.to_bits(), p.scale(), p.bits());
        assert_eq!(p.quantize(x), want, "quantize{ctx:?}");
        assert_eq!(got as i32, want, "quantize_slice{ctx:?}");
    }
}

/// `x` moved by `ulps` representable values (away from zero for positive
/// `ulps`), staying on `x`'s side of zero.
fn nudge(x: f32, ulps: i32) -> f32 {
    f32::from_bits(
        x.to_bits()
            .saturating_add_signed(ulps)
            .max(x.to_bits() & 0x8000_0000),
    )
}

#[test]
fn every_tie_and_its_neighbours_round_like_f32_round() {
    let _guard = dispatch_lock();
    for bits in BITS {
        for scale in SCALES {
            let p = QParams::new(scale, bits).unwrap();
            let mut xs = Vec::new();
            // Half-integer multiples of the scale from two steps below
            // qmin to two above qmax — ties, exact integers, and the
            // clamp edges on both sides — each with ±3 ulps around it.
            for halves in 2 * (bits.qmin() - 2)..=2 * (bits.qmax() + 2) {
                let x = halves as f32 * 0.5 * scale;
                xs.extend((-3..=3).map(|ulps| nudge(x, ulps)));
            }
            // The same neighbourhoods in the quotient's own terms: the
            // largest float below one half is where adding 0.5 fails.
            for r in [
                0.499_999_97f32,
                0.5,
                0.500_000_06,
                1.499_999_9,
                2.5,
                126.5,
                127.5,
            ] {
                xs.extend([r * scale, -r * scale]);
            }
            check(&p, &xs);
        }
    }
}

#[test]
fn non_finite_zero_subnormal_and_extreme_inputs() {
    let _guard = dispatch_lock();
    let specials = [
        f32::NAN,
        -f32::NAN,
        f32::from_bits(0x7F80_0001), // signalling NaN
        f32::from_bits(0xFFFF_FFFF),
        f32::INFINITY,
        f32::NEG_INFINITY,
        0.0,
        -0.0,
        f32::from_bits(1), // smallest subnormal
        -f32::from_bits(1),
        f32::MIN_POSITIVE / 2.0,
        -f32::MIN_POSITIVE / 2.0,
        f32::MIN_POSITIVE,
        f32::MAX,
        f32::MIN,
        f32::EPSILON,
    ];
    // Slide the specials through three SIMD blocks' worth of ordinary
    // values, so each meets every lane position and the scalar tail.
    for offset in 0..=32 {
        let mut xs = vec![1.0f32; 80];
        xs[offset..offset + specials.len()].copy_from_slice(&specials);
        for bits in BITS {
            for scale in SCALES {
                check(&QParams::new(scale, bits).unwrap(), &xs);
            }
        }
    }
}

#[test]
fn four_million_random_bit_patterns_per_bitwidth() {
    let _guard = dispatch_lock();
    const CHUNK: usize = 4096;
    // Half of the draws are raw bit patterns: 2²² of them per bitwidth.
    const DRAWS: usize = 1 << 23;
    let mut rng = seeded(0xF1E8);
    let mut xs = vec![0.0f32; CHUNK];
    for bits in BITS {
        for chunk in 0..DRAWS / CHUNK {
            let p = QParams::new(SCALES[chunk % SCALES.len()], bits).unwrap();
            let span = (bits.qmax() + 3) as f32 * p.scale();
            for (i, x) in xs.iter_mut().enumerate() {
                // Raw bit patterns reach every exponent, NaN payload
                // and subnormal; in-range draws crowd the interval the
                // integer range maps to.
                *x = if i % 2 == 0 {
                    f32::from_bits(rng.gen::<u32>())
                } else {
                    rng.gen_range(-span..span)
                };
            }
            check(&p, &xs);
        }
    }
}

#[test]
fn slice_matches_per_element_at_every_length_and_dispatch() {
    let _guard = dispatch_lock();
    let mut rng = seeded(0x51CE);
    // One spare element in front: `[1..]` shifts the data off whatever
    // alignment the allocation has.
    let xs: Vec<f32> = (0..68).map(|_| rng.gen_range(-9.0..9.0)).collect();
    for isa in simd::host_caps() {
        simd::set_cap(Some(isa));
        for bits in BITS {
            let p = QParams::new(0.05, bits).unwrap();
            for len in 0..=67 {
                for xs in [&xs[..len], &xs[1..1 + len]] {
                    let mut out = vec![0x55i8; len + 2];
                    p.quantize_slice(xs, &mut out[1..1 + len]);
                    let want: Vec<i8> = xs.iter().map(|&x| reference(&p, x) as i8).collect();
                    assert_eq!(&out[1..1 + len], &want[..], "len {len} {isa:?}");
                    // Nothing outside the destination is touched.
                    assert_eq!((out[0], out[len + 1]), (0x55, 0x55), "len {len}");
                }
            }
        }
    }
    simd::set_cap(None);
}

#[test]
#[should_panic(expected = "length mismatch")]
fn slice_rejects_mismatched_lengths() {
    let p = QParams::new(0.05, QuantBits::B8).unwrap();
    p.quantize_slice(&[0.0; 4], &mut [0i8; 3]);
}
