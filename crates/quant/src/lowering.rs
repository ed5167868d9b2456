//! Effective-bit extraction (the paper's bit-lowering method, §4.1).
//!
//! Lowering an 8-bit quantized value to 4 bits naively keeps the top four
//! bits — equivalent to re-quantizing with a 16× larger step. FlexiQ
//! instead observes that channels with small calibrated ranges leave their
//! high bits *unused* (they merely replicate the sign bit), and extracts
//! the four bits starting right below the highest *used* bit.
//!
//! Worked example from paper Fig. 3: the value `0.957` quantizes to `29`
//! (`0001_1101`) under 8 bits. Its channel's maximum is below 32, so bits
//! 6 and 5 replicate the sign bit. Naive lowering keeps bits `[7:4]`
//! (→ `32` after reconstruction, ~10% error); FlexiQ extracts bits `[5:2]`
//! (→ `28`, <4% error), because the dropped high bits carried no
//! information. The extracted value still reconstructs by a plain left
//! shift, so mixed-precision GEMMs only need *bit-shifted accumulation*.
//!
//! A [`BitLowering`] is fully described by the number of low bits dropped
//! (`shift`) and the target width (`low_bits`); `effective_bits = low_bits
//! + shift` matches the paper's "six effective bits instead of four".

use crate::params::QuantBits;

/// Number of magnitude bits required to represent `q` in two's complement
/// (excluding the sign bit).
///
/// Uses the one's-complement trick `q ^ (q >> 7)`: for negative values
/// this is `|q| - 1`, which correctly accounts for two's-complement
/// asymmetry (e.g. `-16` fits in 4 magnitude bits, `+16` needs 5).
pub fn magnitude_bits(q: i8) -> u8 {
    let mag = (q ^ (q >> 7)) as u8;
    (8 - mag.leading_zeros()) as u8
}

/// Magnitude bits needed for a non-negative maximum absolute value.
pub fn magnitude_bits_for_abs(max_abs_q: u32) -> u8 {
    (32 - max_abs_q.leading_zeros()) as u8
}

/// Unused high bits (below the sign bit) of an `src_bits`-wide value whose
/// channel maximum absolute value is `max_abs_q`.
///
/// For 8-bit storage there are 7 magnitude bits; a channel with
/// `max_abs_q = 29` uses 5 of them, leaving 2 unused (paper Fig. 1).
pub fn unused_bits(max_abs_q: u32, src_bits: QuantBits) -> u8 {
    let available = src_bits.bits() - 1;
    available.saturating_sub(magnitude_bits_for_abs(max_abs_q))
}

/// A bit-extraction rule lowering `src_bits`-wide integers to `low_bits`.
///
/// The rule drops `shift` low bits (with round-half-away-from-zero) and
/// clamps into the `low_bits` range; reconstruction is `q_low << shift`.
/// `shift` is chosen from the channel group's calibrated range so that the
/// highest *used* bit survives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BitLowering {
    shift: u8,
    low_bits: QuantBits,
}

impl BitLowering {
    /// Builds the extraction rule for a channel group whose maximum
    /// absolute quantized value is `max_abs_q`.
    ///
    /// `shift = max(0, magnitude_bits(max_abs_q) - (low_bits - 1))`: the
    /// extracted window keeps the top `low_bits - 1` magnitude bits plus
    /// the sign.
    pub fn for_max_abs(max_abs_q: u32, low_bits: QuantBits) -> Self {
        let b = magnitude_bits_for_abs(max_abs_q);
        let shift = b.saturating_sub(low_bits.bits() - 1);
        BitLowering { shift, low_bits }
    }

    /// Builds an extraction rule with an explicit shift.
    pub fn with_shift(shift: u8, low_bits: QuantBits) -> Self {
        BitLowering { shift, low_bits }
    }

    /// The naive lowering used by uniform re-quantization: always keep the
    /// top `low_bits` of the full `src_bits` representation.
    pub fn naive(src_bits: QuantBits, low_bits: QuantBits) -> Self {
        BitLowering {
            shift: src_bits.bits() - low_bits.bits(),
            low_bits,
        }
    }

    /// Bits dropped from the bottom (= extraction position offset).
    pub fn shift(&self) -> u8 {
        self.shift
    }

    /// Target bitwidth.
    pub fn low_bits(&self) -> QuantBits {
        self.low_bits
    }

    /// Effective precision of the lowered representation in bits.
    ///
    /// `low_bits + shift`: a 4-bit extraction at shift 2 spans a 6-bit
    /// signed range at step 4 — the paper's "six effective bits".
    pub fn effective_bits(&self) -> u8 {
        self.low_bits.bits() + self.shift
    }

    /// Lowers one value with rounding, clamping into the low range.
    pub fn lower(&self, q: i8) -> i8 {
        let shifted = if self.shift == 0 {
            q as i32
        } else {
            let bias = 1i32 << (self.shift - 1);
            let v = q as i32;
            if v >= 0 {
                (v + bias) >> self.shift
            } else {
                -((-v + bias) >> self.shift)
            }
        };
        shifted.clamp(self.low_bits.qmin(), self.low_bits.qmax()) as i8
    }

    /// Lowers one value by pure truncating bit extraction (arithmetic
    /// shift), exactly as drawn in paper Fig. 3.
    ///
    /// [`BitLowering::lower`] adds rounding, which hardware implements
    /// with one extra adder; both are exposed so the ablation can measure
    /// the difference.
    pub fn lower_trunc(&self, q: i8) -> i8 {
        let shifted = (q as i32) >> self.shift;
        shifted.clamp(self.low_bits.qmin(), self.low_bits.qmax()) as i8
    }

    /// Reconstructs the original-scale integer from a lowered value.
    pub fn reconstruct(&self, q_low: i8) -> i32 {
        (q_low as i32) << self.shift
    }

    /// Round-trips a value through lowering and reconstruction.
    pub fn round_trip(&self, q: i8) -> i32 {
        self.reconstruct(self.lower(q))
    }

    /// Returns `true` if `q` exceeds the window's design capacity — i.e.
    /// the value *saturates* the statically chosen extraction window
    /// (paper §8.6, Fig. 13).
    ///
    /// A window with `shift` dropped bits and `low_bits` kept bits covers
    /// values with up to `low_bits - 1 + shift` magnitude bits. Values at
    /// the top of that capacity clamp by less than one extraction step,
    /// which is ordinary truncation error, not saturation; values beyond
    /// it lose their high bits.
    pub fn saturates(&self, q: i8) -> bool {
        magnitude_bits(q) > self.low_bits.bits() - 1 + self.shift
    }

    /// Lowers a slice of values in place — the branch-free twin of
    /// [`BitLowering::lower`], element for element identical to it.
    ///
    /// Sign and magnitude are split arithmetically (`neg` is the sign
    /// mask, `0` or `-1`), the magnitude is biased, shifted and clamped
    /// to `qmax` (`qmax + 1` on the negative side, i.e. `-qmin`), and the
    /// sign is restored with the same mask. No data-dependent branch, and
    /// the shift count is uniform across the slice, so the loop
    /// vectorizes in 16-bit lanes. This is what the convolution engine
    /// runs over the activation planes of its 4-bit feature groups.
    pub fn lower_in_place(&self, qs: &mut [i8]) {
        self.lower_shl_in_place(qs, 0);
    }

    /// Round-trips a slice of values in place — the slice twin of
    /// [`BitLowering::round_trip`]: [`BitLowering::lower_in_place`], then
    /// `<< shift`, stored back as `i8`.
    ///
    /// This is what lets a mixed-precision linear run as one GEMM: the
    /// bit-shifted accumulation `(a_low·w_low) << (s_a + s_w)` equals
    /// `(a_low << s_a)·(w_low << s_w)` exactly in integers, so the shift
    /// can move into the operands. The stored value fits `i8` whenever
    /// `shift ≤ 8 − low_bits`: the lowered value lies in
    /// `[−2^(b−1), 2^(b−1) − 1]`, so the result lies in `[−128, 128 −
    /// 2^shift]`. Every rule the engines build meets that bound —
    /// [`BitLowering::for_max_abs`] over a symmetric 8-bit magnitude
    /// (`≤ 127`, 7 bits, shift `≤ 8 − b`), the dynamic rules (an
    /// [`crate::dynamic::or_magnitude`] is at most 127) and
    /// [`BitLowering::naive`] (shift `8 − b`); the tests check each over
    /// all 256 inputs.
    pub fn round_trip_in_place(&self, qs: &mut [i8]) {
        debug_assert!(
            self.shift + self.low_bits.bits() <= 8,
            "a round trip at shift {} over {} leaves i8",
            self.shift,
            self.low_bits
        );
        self.lower_shl_in_place(qs, self.shift as u32);
    }

    /// The one branch-free sweep behind both slice primitives: lower
    /// each value, then shift it left by `shl` (0 or the rule's shift).
    fn lower_shl_in_place(&self, qs: &mut [i8], shl: u32) {
        let shift = self.shift as u32;
        let bias: i16 = if shift == 0 { 0 } else { 1 << (shift - 1) };
        let qmax = self.low_bits.qmax() as i16;
        for q in qs.iter_mut() {
            let v = *q as i16;
            let neg = v >> 15;
            let mag = (v ^ neg) - neg;
            let low = ((mag + bias) >> shift).min(qmax - neg);
            *q = (((low ^ neg) - neg) << shl) as i8;
        }
    }

    /// Lowers a slice of values into a new vector.
    pub fn lower_slice(&self, qs: &[i8]) -> Vec<i8> {
        let mut out = qs.to_vec();
        self.lower_in_place(&mut out);
        out
    }

    /// Sum of squared reconstruction errors over a slice, in units of the
    /// source quantization step.
    pub fn sq_error(&self, qs: &[i8]) -> f64 {
        qs.iter()
            .map(|&q| {
                let e = (q as i32 - self.round_trip(q)) as f64;
                e * e
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn magnitude_bits_handles_asymmetry() {
        assert_eq!(magnitude_bits(0), 0);
        assert_eq!(magnitude_bits(1), 1);
        assert_eq!(magnitude_bits(-1), 0); // -1 = all ones, fits 0 magnitude bits
        assert_eq!(magnitude_bits(15), 4);
        assert_eq!(magnitude_bits(-16), 4); // two's complement asymmetry
        assert_eq!(magnitude_bits(16), 5);
        assert_eq!(magnitude_bits(127), 7);
        assert_eq!(magnitude_bits(-128), 7);
    }

    #[test]
    fn unused_bits_matches_paper_fig1() {
        // Channel max 29 under 8-bit: 5 magnitude bits used, 2 unused.
        assert_eq!(unused_bits(29, QuantBits::B8), 2);
        assert_eq!(unused_bits(127, QuantBits::B8), 0);
        assert_eq!(unused_bits(7, QuantBits::B8), 4);
        assert_eq!(unused_bits(0, QuantBits::B8), 7);
    }

    #[test]
    fn paper_fig3_positive_example() {
        // Channel max < 32 → shift 2; value 29 extracts to 7, reconstructs
        // to 28: |29-28|/29 ≈ 3.4% < 4% as the paper states.
        let l = BitLowering::for_max_abs(31, QuantBits::B4);
        assert_eq!(l.shift(), 2);
        assert_eq!(l.effective_bits(), 6);
        assert_eq!(l.lower(29), 7);
        assert_eq!(l.round_trip(29), 28);
        let rel_err = (29.0 - 28.0) / 29.0;
        assert!(rel_err < 0.04);

        // Naive conversion keeps the top 4 bits: 29 → 2 → 32, ~10% error.
        let naive = BitLowering::naive(QuantBits::B8, QuantBits::B4);
        assert_eq!(naive.shift(), 4);
        assert_eq!(naive.round_trip(29), 32);
        let naive_err = (32.0 - 29.0) / 29.0;
        assert!(naive_err > 0.09);
    }

    #[test]
    fn paper_fig3_negative_example() {
        // Channel min > -16 → values fit 4 magnitude bits → shift 1.
        // Value -9 lowers to round(-9/2) = -5 (away from zero) → -10.
        let l = BitLowering::for_max_abs(15, QuantBits::B4);
        assert_eq!(l.shift(), 1);
        assert_eq!(l.effective_bits(), 5);
        assert_eq!(l.lower(-9), -5);
        assert_eq!(l.round_trip(-9), -10);
        assert!(!l.saturates(-9));
    }

    #[test]
    fn zero_shift_is_lossless() {
        let l = BitLowering::for_max_abs(7, QuantBits::B4);
        assert_eq!(l.shift(), 0);
        for q in -8..=7i8 {
            assert_eq!(l.round_trip(q), q as i32);
            assert!(!l.saturates(q));
        }
    }

    #[test]
    fn saturation_detection() {
        // Window calibrated for |q| <= 31 (shift 2): representable range
        // after rounding is about [-34, 30].
        let l = BitLowering::for_max_abs(31, QuantBits::B4);
        assert!(!l.saturates(29));
        assert!(!l.saturates(-31));
        assert!(l.saturates(127));
        assert!(l.saturates(40));
        assert!(l.saturates(-128));
    }

    #[test]
    fn rounding_beats_truncation_on_average() {
        let l = BitLowering::for_max_abs(63, QuantBits::B4);
        let values: Vec<i8> = (-63..=63).collect();
        let rounded: f64 = l.sq_error(&values);
        let trunc: f64 = values
            .iter()
            .map(|&q| {
                let e = (q as i32 - l.reconstruct(l.lower_trunc(q))) as f64;
                e * e
            })
            .sum();
        assert!(rounded <= trunc, "rounded {rounded} vs trunc {trunc}");
    }

    #[test]
    fn reconstruction_error_bounded_within_capacity() {
        // Within the window's design capacity the error of lowering is
        // below one extraction step (2^shift); interior values stay within
        // half a step, the clamped top edge within a full step.
        for max_abs in [7u32, 15, 31, 63, 127] {
            let l = BitLowering::for_max_abs(max_abs, QuantBits::B4);
            let step = 1i32 << l.shift();
            for q in -(max_abs as i32)..=(max_abs as i32) {
                let q = q as i8;
                assert!(
                    !l.saturates(q),
                    "q={q} within calibrated range must not saturate"
                );
                let err = (q as i32 - l.round_trip(q)).abs();
                assert!(err < step, "q={q} max_abs={max_abs} err={err} step={step}");
            }
        }
    }

    #[test]
    fn effective_bits_progression() {
        // Smaller ranges → fewer dropped bits → the effective bitwidth
        // degrades gracefully from 8 (lossless window) down to 4 (naive).
        let cases = [(7u32, 4u8), (15, 5), (31, 6), (63, 7), (127, 8)];
        for (max_abs, eff) in cases {
            let l = BitLowering::for_max_abs(max_abs, QuantBits::B4);
            assert_eq!(l.effective_bits(), eff, "max_abs={max_abs}");
        }
    }

    #[test]
    fn lower_slice_matches_scalar() {
        let l = BitLowering::for_max_abs(31, QuantBits::B4);
        let qs: Vec<i8> = (-32..32).collect();
        let lowered = l.lower_slice(&qs);
        for (i, &q) in qs.iter().enumerate() {
            assert_eq!(lowered[i], l.lower(q));
        }
    }

    #[test]
    fn lower_in_place_matches_scalar_exhaustively() {
        // Every 8-bit input under every reachable rule: the branch-free
        // slice primitive is `lower`, element for element.
        let all: Vec<i8> = (i8::MIN..=i8::MAX).collect();
        for low_bits in [QuantBits::B4, QuantBits::B2, QuantBits::B8] {
            for shift in 0..=6u8 {
                let l = BitLowering::with_shift(shift, low_bits);
                let mut got = all.clone();
                l.lower_in_place(&mut got);
                for (&q, &g) in all.iter().zip(&got) {
                    assert_eq!(g, l.lower(q), "q={q} shift={shift} {low_bits}");
                }
                assert_eq!(l.lower_slice(&all), got);
                // Odd lengths and unaligned starts take the same path.
                let mut tail = all[3..10].to_vec();
                l.lower_in_place(&mut tail);
                assert_eq!(tail, got[3..10]);
            }
        }
    }

    #[test]
    fn round_trip_in_place_is_exact_and_fits_i8_under_every_reachable_rule() {
        use crate::dynamic::{lowering_for_or, or_magnitude};
        use crate::params::QParams;
        let all: Vec<i8> = (i8::MIN..=i8::MAX).collect();
        // The domains the constructors are fed. Static maxima are the
        // magnitudes of symmetric 8-bit values — a quantizer scaled to
        // `abs_max / 127` never yields −128 — and a dynamic rule's input
        // is an `or_magnitude`, at most 127 for any i8 values.
        for abs_max in [1e-8f32, 0.3, 1.0, 7.77, 1e6] {
            let p = QParams::from_abs_max(abs_max, QuantBits::B8).unwrap();
            assert!(p.quantize(-abs_max) >= -127 && p.quantize(abs_max) <= 127);
        }
        assert!(all.iter().all(|&q| or_magnitude(&[q]) <= 127));
        for low_bits in (2..=8).map(|b| QuantBits::new(b).unwrap()) {
            let mut rules: Vec<BitLowering> = (0..=127u32)
                .map(|m| BitLowering::for_max_abs(m, low_bits))
                .chain((0..=127u8).map(|or| lowering_for_or(or, low_bits)))
                .collect();
            rules.push(BitLowering::naive(QuantBits::B8, low_bits));
            rules.sort_by_key(BitLowering::shift);
            rules.dedup();
            assert_eq!(rules.len() as u8, 9 - low_bits.bits(), "{low_bits}");
            for rule in rules {
                assert!(rule.shift() <= 8 - low_bits.bits(), "{rule:?}");
                let mut got = all.clone();
                rule.round_trip_in_place(&mut got);
                for (&q, &g) in all.iter().zip(&got) {
                    let want = rule.round_trip(q);
                    assert!(i8::try_from(want).is_ok(), "{rule:?} q={q} -> {want}");
                    assert_eq!(g as i32, want, "{rule:?} q={q}");
                }
            }
        }
    }

    #[test]
    fn zero_lowers_to_zero_under_every_rule() {
        // The property that lets the engines lower *before* im2col:
        // zero padding stays zero padding.
        for low_bits in [QuantBits::B2, QuantBits::B4, QuantBits::B6, QuantBits::B8] {
            for shift in 0..=7u8 {
                let l = BitLowering::with_shift(shift, low_bits);
                assert_eq!(l.lower(0), 0);
                assert_eq!(l.lower_trunc(0), 0);
                let mut z = [0i8; 5];
                l.lower_in_place(&mut z);
                assert_eq!(z, [0; 5]);
            }
        }
    }

    #[test]
    fn two_bit_lowering() {
        // The NPU extension (§7) lowers to 2 bits; window keeps sign + 1
        // magnitude bit.
        let l = BitLowering::for_max_abs(31, QuantBits::B2);
        assert_eq!(l.shift(), 4);
        assert_eq!(l.lower(29), 1);
        assert_eq!(l.round_trip(29), 16);
    }
}
