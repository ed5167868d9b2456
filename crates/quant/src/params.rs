//! Symmetric uniform quantization parameters (paper Eq. 1).

use crate::error::QuantError;
use crate::Result;
use flexiq_tensor::simd::Isa;

/// The largest `f32` below one half, `0.5 − 2⁻²⁵`: what
/// [`QParams::quantize`] adds before truncating (see there for why this
/// and not `0.5`).
const HALF_BELOW: f32 = 0.499_999_97;
const _: () = assert!(HALF_BELOW.to_bits() + 1 == 0.5f32.to_bits());

/// A supported integer bitwidth.
///
/// The paper's prototype mixes 4-bit and 8-bit computation and sketches a
/// 2-bit NPU extension (§7); intermediate widths (5/6/7) appear in
/// Table 2's "average bitwidth" accounting and in the multi-precision
/// baselines of Table 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QuantBits(u8);

impl QuantBits {
    /// 2-bit quantization (NPU extension mode).
    pub const B2: QuantBits = QuantBits(2);
    /// 4-bit quantization (the paper's low bitwidth).
    pub const B4: QuantBits = QuantBits(4);
    /// 6-bit quantization (Table 5 comparisons).
    pub const B6: QuantBits = QuantBits(6);
    /// 8-bit quantization (the paper's high bitwidth).
    pub const B8: QuantBits = QuantBits(8);

    /// Creates a bitwidth, validating it is in `2..=8`.
    pub fn new(bits: u8) -> Result<Self> {
        if (2..=8).contains(&bits) {
            Ok(QuantBits(bits))
        } else {
            Err(QuantError::UnsupportedBits(bits))
        }
    }

    /// The raw bit count.
    pub fn bits(self) -> u8 {
        self.0
    }

    /// Smallest representable integer, `-(2^(b-1))`.
    ///
    /// `-128` for 8 bits, matching the paper's `[-128, 127]` example.
    pub fn qmin(self) -> i32 {
        -(1 << (self.0 - 1))
    }

    /// Largest representable integer, `2^(b-1) - 1`.
    pub fn qmax(self) -> i32 {
        (1 << (self.0 - 1)) - 1
    }
}

impl std::fmt::Display for QuantBits {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "INT{}", self.0)
    }
}

/// Scale + bitwidth of a symmetric uniform quantizer.
///
/// Maps a real value `x` to `clip(round(x / scale), qmin, qmax)` — the
/// paper's Eq. 1. Symmetric quantization (zero-point 0) is what both the
/// paper's NPU and its GPU kernel implement, because it keeps GEMMs as
/// pure integer dot products.
///
/// # Examples
///
/// ```
/// use flexiq_quant::{QParams, QuantBits};
/// let p = QParams::from_abs_max(1.0, QuantBits::B8).unwrap();
/// assert_eq!(p.quantize(1.0), 127);
/// assert_eq!(p.quantize(-2.0), -128); // clipped
/// assert!((p.dequantize(127) - 1.0).abs() < 0.01);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QParams {
    scale: f32,
    bits: QuantBits,
}

impl QParams {
    /// Creates quantization parameters from an explicit scale.
    pub fn new(scale: f32, bits: QuantBits) -> Result<Self> {
        if !scale.is_finite() || scale <= 0.0 {
            return Err(QuantError::BadScale(scale));
        }
        Ok(QParams { scale, bits })
    }

    /// Derives the scale from the maximum absolute value to represent.
    ///
    /// `scale = abs_max / qmax`, so `abs_max` itself maps to `qmax`.
    /// A zero or non-finite `abs_max` yields an error; degenerate all-zero
    /// channels should be given a tiny epsilon range by the caller.
    pub fn from_abs_max(abs_max: f32, bits: QuantBits) -> Result<Self> {
        if !abs_max.is_finite() || abs_max <= 0.0 {
            return Err(QuantError::BadScale(abs_max));
        }
        QParams::new(abs_max / bits.qmax() as f32, bits)
    }

    /// The quantization step size.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// The bitwidth.
    pub fn bits(&self) -> QuantBits {
        self.bits
    }

    /// Quantizes one value: `clip(round(x / scale), qmin, qmax)`, ties
    /// away from zero, NaN to 0.
    ///
    /// This is the one quantization formula of the workspace
    /// ([`QParams::quantize_slice`] and its SIMD bodies are tested equal
    /// to it), written without a branch or a `roundf` call so it inlines
    /// and vectorizes: clamp `r = x / scale` in f32 to one step past the
    /// integer range, add `0.5 − 2⁻²⁵` (the largest f32 below one half)
    /// with `r`'s sign, truncate, clamp to the integer range.
    ///
    /// # Why the constant is exact
    ///
    /// `trunc(r + copysign(0.5 − 2⁻²⁵, r))` equals `round(r)` (ties away)
    /// for every f32 `|r| < 2²²`. Take `r = n + f ≥ 0` with `n` an
    /// integer and `0 ≤ f < 1`, and let `u ≥ 2⁻²⁴` be the f32 spacing
    /// just below `n + 1`; f32 addition rounds the real sum to nearest,
    /// monotonically:
    ///
    /// * `f ≥ ½`: the real sum is at least `n + 1 − 2⁻²⁵`, at most `u/2`
    ///   below `n + 1`, so it rounds up to `n + 1` (on the one exact
    ///   tie, `n = 0`, because `1.0` has the even mantissa) and
    ///   truncates to `n + 1`.
    /// * `f < ½`: for `n ≥ 1`, `r` sits on the grid of spacing `u`, and
    ///   so does `½`, hence `f ≤ ½ − u`; for `n = 0`, `f` is at most the
    ///   constant itself. Either way the real sum is at most
    ///   `n + 1 − u`, which is representable, so the rounded sum stays
    ///   below `n + 1` and truncates to `n`.
    ///
    /// (Adding `0.5` itself fails the second case: `0.49999997 + 0.5`
    /// rounds up to `1.0`.) Negative `r` mirrors. The division stays a
    /// division — `x * (1 / scale)` rounds differently. The f32 clamp
    /// keeps `r` far inside that range and maps ±∞ one step outside the
    /// integer range, where the integer clamp finishes the job; NaN
    /// passes the f32 clamp and the add, and `as` maps it to 0.
    #[inline]
    pub fn quantize(&self, x: f32) -> i32 {
        let (lo, hi) = (self.bits.qmin(), self.bits.qmax());
        let r = (x / self.scale).clamp((lo - 1) as f32, (hi + 1) as f32);
        ((r + HALF_BELOW.copysign(r)) as i32).clamp(lo, hi)
    }

    /// Quantizes `xs` into `out` (equal lengths), element for element
    /// what [`QParams::quantize`] returns, narrowed to `i8` (every
    /// supported bitwidth fits).
    ///
    /// Dispatches on [`flexiq_tensor::simd::active`]: 32 values per step
    /// on any ISA with AVX2, the scalar formula for the tail and
    /// everywhere else (`FLEXIQ_NO_SIMD=1` included).
    pub fn quantize_slice(&self, xs: &[f32], out: &mut [i8]) {
        assert_eq!(xs.len(), out.len(), "quantize_slice length mismatch");
        let done = match flexiq_tensor::simd::active() {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: an ISA with AVX2 only after runtime detection.
            Isa::Avx2 | Isa::AvxVnni => unsafe { x86::quantize_avx2(self, xs, out) },
            _ => 0,
        };
        for (q, &x) in out[done..].iter_mut().zip(&xs[done..]) {
            *q = self.quantize(x) as i8;
        }
    }

    /// Dequantizes one integer back to a real value.
    pub fn dequantize(&self, q: i32) -> f32 {
        q as f32 * self.scale
    }

    /// Round-trips a value through the quantizer (fake quantization).
    pub fn fake(&self, x: f32) -> f32 {
        self.dequantize(self.quantize(x))
    }

    /// Returns a copy of these parameters at a different bitwidth with the
    /// same real-valued range.
    ///
    /// The scale is adjusted so the new `qmax` maps to the same `abs_max`.
    /// This is the conversion used by *uniform* bit-lowering (the naive
    /// middle row of paper Fig. 3), against which FlexiQ's effective-bit
    /// extraction is compared.
    pub fn with_bits(&self, bits: QuantBits) -> QParams {
        let abs_max = self.scale * self.bits.qmax() as f32;
        QParams {
            scale: abs_max / bits.qmax() as f32,
            bits,
        }
    }
}

/// AVX2 body of [`QParams::quantize_slice`].
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{QParams, HALF_BELOW};
    use std::arch::x86_64::*;

    /// Quantizes the leading whole blocks of 32 values and returns how
    /// many elements that was; lane for lane the arithmetic of
    /// [`QParams::quantize`].
    ///
    /// # Safety
    /// AVX2 must be supported by the executing CPU.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn quantize_avx2(p: &QParams, xs: &[f32], out: &mut [i8]) -> usize {
        assert_eq!(xs.len(), out.len());
        let (lo, hi) = (p.bits.qmin(), p.bits.qmax());
        let scale = _mm256_set1_ps(p.scale);
        let flo = _mm256_set1_ps((lo - 1) as f32);
        let fhi = _mm256_set1_ps((hi + 1) as f32);
        let half = _mm256_set1_ps(HALF_BELOW);
        let sign = _mm256_set1_ps(-0.0);
        let (ilo, ihi) = (_mm256_set1_epi8(lo as i8), _mm256_set1_epi8(hi as i8));
        // The two pack rounds interleave the four source registers per
        // 128-bit lane; this dword order restores element order.
        let order = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
        let blocks = xs.len() / 32;
        for b in 0..blocks {
            // SAFETY: `b < blocks`, so elements `[32b, 32b + 32)` are in
            // bounds of both slices (equal lengths asserted above).
            let src = xs.as_ptr().add(32 * b);
            let mut q = [_mm256_setzero_si256(); 4];
            for (i, lanes) in q.iter_mut().enumerate() {
                let r = _mm256_div_ps(_mm256_loadu_ps(src.add(8 * i)), scale);
                // max/min return their second operand when either is
                // NaN, so a NaN survives the clamp as it does in scalar.
                let r = _mm256_min_ps(fhi, _mm256_max_ps(flo, r));
                let t = _mm256_add_ps(r, _mm256_or_ps(half, _mm256_and_ps(r, sign)));
                // `cvttps` turns NaN into i32::MIN where `as` gives 0:
                // zero the unordered lanes first.
                let t = _mm256_and_ps(t, _mm256_cmp_ps::<_CMP_ORD_Q>(t, t));
                *lanes = _mm256_cvttps_epi32(t);
            }
            // Every lane is within one step of the integer range, so
            // the saturating packs clip nothing at i16 and, at i8, only
            // what the integer clamp below would clip anyway.
            let bytes = _mm256_packs_epi16(
                _mm256_packs_epi32(q[0], q[1]),
                _mm256_packs_epi32(q[2], q[3]),
            );
            let bytes = _mm256_permutevar8x32_epi32(bytes, order);
            let bytes = _mm256_min_epi8(ihi, _mm256_max_epi8(ilo, bytes));
            _mm256_storeu_si256(out.as_mut_ptr().add(32 * b).cast(), bytes);
        }
        blocks * 32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_ranges_match_twos_complement() {
        assert_eq!(QuantBits::B8.qmin(), -128);
        assert_eq!(QuantBits::B8.qmax(), 127);
        assert_eq!(QuantBits::B4.qmin(), -8);
        assert_eq!(QuantBits::B4.qmax(), 7);
        assert_eq!(QuantBits::B2.qmin(), -2);
        assert_eq!(QuantBits::B2.qmax(), 1);
    }

    #[test]
    fn new_validates_bits() {
        assert!(QuantBits::new(1).is_err());
        assert!(QuantBits::new(9).is_err());
        assert!(QuantBits::new(5).is_ok());
    }

    #[test]
    fn quantize_rounds_and_clips() {
        let p = QParams::new(0.1, QuantBits::B8).unwrap();
        assert_eq!(p.quantize(0.25), 3); // round-half-to-even not required; 2.5 rounds away
        assert_eq!(p.quantize(100.0), 127);
        assert_eq!(p.quantize(-100.0), -128);
        assert_eq!(p.quantize(0.0), 0);
    }

    #[test]
    fn from_abs_max_maps_extreme_to_qmax() {
        let p = QParams::from_abs_max(3.3, QuantBits::B4).unwrap();
        assert_eq!(p.quantize(3.3), 7);
        assert_eq!(p.quantize(-3.3), -7);
    }

    #[test]
    fn bad_scales_rejected() {
        assert!(QParams::new(0.0, QuantBits::B8).is_err());
        assert!(QParams::new(-1.0, QuantBits::B8).is_err());
        assert!(QParams::new(f32::NAN, QuantBits::B8).is_err());
        assert!(QParams::from_abs_max(0.0, QuantBits::B8).is_err());
    }

    #[test]
    fn fake_quant_error_bounded_by_half_step() {
        let p = QParams::from_abs_max(1.0, QuantBits::B8).unwrap();
        for i in -100..=100 {
            let x = i as f32 / 100.0;
            assert!((p.fake(x) - x).abs() <= p.scale() * 0.5 + 1e-7);
        }
    }

    #[test]
    fn with_bits_preserves_range() {
        let p8 = QParams::from_abs_max(2.0, QuantBits::B8).unwrap();
        let p4 = p8.with_bits(QuantBits::B4);
        assert_eq!(p4.quantize(2.0), 7);
        assert!((p4.dequantize(7) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn paper_figure3_example() {
        // Full-precision 0.957 is represented as 29 in 8-bit quantization:
        // this corresponds to a scale of 0.957/29 ≈ 0.033. The paper's
        // channel has max < 32 quantization steps.
        let p = QParams::new(0.033, QuantBits::B8).unwrap();
        assert_eq!(p.quantize(0.957), 29);
    }
}
