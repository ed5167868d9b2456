//! Runtime (dynamic) extraction-position discovery (§4.1).
//!
//! Static extraction positions come from calibration data and can be
//! wrong for an individual input: a channel group may saturate (values
//! above the presumed range lose their top bits) or waste precision
//! (values far below the presumed range leave the window half empty).
//!
//! The paper's optional dynamic mode recomputes the position per input
//! "by performing a bitwise OR operation across values within the same
//! channel group to identify the highest unset bit". The OR of the
//! one's-complement magnitudes is a single pass over the group and maps
//! directly onto a vectorized reduction on GPUs/NPUs; the paper measures
//! the overhead at 2–5% of the surrounding convolution/linear operation,
//! which the GPU cost model accounts for.

use crate::lowering::BitLowering;
use crate::params::QuantBits;

/// OR-reduction of the one's-complement magnitudes of a value group.
///
/// Every bit set in the result is used by at least one value; the highest
/// set bit therefore determines the minimal extraction window.
pub fn or_magnitude(values: &[i8]) -> u8 {
    values
        .iter()
        .fold(0u8, |acc, &q| acc | (q ^ (q >> 7)) as u8)
}

/// Computes the optimal extraction rule for a live value group.
///
/// The shift is the smallest that makes every value representable, so a
/// dynamically positioned window never saturates on the group it was
/// derived from.
pub fn dynamic_lowering(values: &[i8], low_bits: QuantBits) -> BitLowering {
    lowering_for_or(or_magnitude(values), low_bits)
}

/// The extraction rule for a group whose [`or_magnitude`] is `or`.
///
/// Split out of [`dynamic_lowering`] for groups that are not one
/// contiguous slice (the feature band of a row-major activation): OR
/// the per-row reductions together, then ask for the rule once.
pub fn lowering_for_or(or: u8, low_bits: QuantBits) -> BitLowering {
    let b = (8 - or.leading_zeros()) as u8;
    let shift = b.saturating_sub(low_bits.bits() - 1);
    BitLowering::with_shift(shift, low_bits)
}

/// Relative cost of the dynamic OR pass, as a fraction of the surrounding
/// convolution/linear operation (paper §8.6: "2–5%").
///
/// The reduction touches each activation once while the GEMM touches each
/// activation `C_out / tile` times, so the fraction shrinks with larger
/// layers; we model it as `base + span / sqrt(c_out)`, clamped into the
/// paper's measured band.
pub fn dynamic_overhead_fraction(c_out: usize) -> f64 {
    let frac = 0.02 + 0.24 / (c_out.max(1) as f64).sqrt();
    frac.clamp(0.02, 0.05)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn or_magnitude_covers_all_values() {
        assert_eq!(or_magnitude(&[]), 0);
        assert_eq!(or_magnitude(&[0]), 0);
        assert_eq!(or_magnitude(&[1, 2, 4]), 7);
        // One's-complement magnitude of -16 is 15.
        assert_eq!(or_magnitude(&[-16]), 15);
        assert_eq!(or_magnitude(&[-128]), 127);
    }

    #[test]
    fn dynamic_window_never_saturates_its_own_group() {
        use flexiq_tensor::rng::seeded;
        use rand::Rng;
        let mut rng = seeded(61);
        for _ in 0..200 {
            let n = rng.gen_range(1..64);
            let hi = rng.gen_range(1i16..=127);
            let vals: Vec<i8> = (0..n).map(|_| rng.gen_range(-hi..=hi) as i8).collect();
            let l = dynamic_lowering(&vals, QuantBits::B4);
            for &v in &vals {
                assert!(!l.saturates(v), "value {v} saturates shift {}", l.shift());
            }
        }
    }

    #[test]
    fn dynamic_matches_static_for_exact_ranges() {
        // When the live data hits the calibrated max exactly, dynamic and
        // static windows coincide.
        let vals: Vec<i8> = vec![31, -30, 5, 0];
        let dynamic = dynamic_lowering(&vals, QuantBits::B4);
        let fixed = BitLowering::for_max_abs(31, QuantBits::B4);
        assert_eq!(dynamic, fixed);
    }

    #[test]
    fn dynamic_tightens_when_data_is_small() {
        // Calibration said |q| <= 127 but the live group only reaches 6:
        // the dynamic window drops the shift to 0 (lossless).
        let vals: Vec<i8> = vec![6, -5, 3];
        let l = dynamic_lowering(&vals, QuantBits::B4);
        assert_eq!(l.shift(), 0);
        for &v in &vals {
            assert_eq!(l.round_trip(v), v as i32);
        }
    }

    #[test]
    fn overhead_fraction_is_in_paper_band() {
        for c_out in [8, 32, 64, 128, 512, 4096] {
            let f = dynamic_overhead_fraction(c_out);
            assert!((0.02..=0.05).contains(&f), "c_out={c_out} frac={f}");
        }
        // Larger layers amortize the reduction better.
        assert!(dynamic_overhead_fraction(4096) < dynamic_overhead_fraction(64));
    }
}
