//! Order statistics and the quiet reading over a run's segments: the
//! arithmetic that could silently lie, kept small and unit-tested.

/// Nearest-rank percentile of `sorted` (ascending), `p` in `[0, 1]`.
/// `None` on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Sorts a copy of `values` ascending (NaNs last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Greater));
    v
}

/// Median of `values` (mean of the two middle values on even counts);
/// `None` on an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let s = sorted(values);
    match s.len() {
        0 => None,
        n if n % 2 == 1 => Some(s[n / 2]),
        n => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// The candidate tail percentiles, highest first, per mille.
const TAILS_PER_MILLE: [usize; 4] = [999, 990, 950, 900];

/// The highest candidate percentile (p99.9, p99, p95, p90) that still
/// has at least ten samples beyond it among `n` samples — the tail a
/// run of this size can support. `None` when even p90 has fewer than
/// ten (n < 100).
pub fn highest_supported_tail(n: usize) -> Option<f64> {
    TAILS_PER_MILLE
        .iter()
        .find(|&&pm| n * (1000 - pm) / 1000 >= 10)
        .map(|&pm| pm as f64 / 1000.0)
}

/// A metric is read one in this many of a run's segments in from the
/// better end.
pub const QUIET_ONE_IN: usize = 10;

/// The value a tenth of the way in from the better end of `values`
/// (nearest rank): the best of up to ten, the second best of eleven to
/// twenty, the sixth best of fifty-six.
///
/// The reference box is a shared VM whose speed drops by a third to a
/// half for seconds to minutes at a time (a fixed L1-resident kernel
/// timed beside the benchmark reads 0.28 ms or 0.68 ms, flipping
/// every few seconds), so the median over a run's segments reads the
/// neighbour, not the program. The quiet reading is the program on the
/// box at its quiet speed as long as a tenth of the segments were
/// quiet. What it hides — how much of the run was slower — is reported
/// beside it as `loadgen.median_to_quiet`. `None` on an empty slice.
pub fn quiet(values: &[f64], higher_is_better: bool) -> Option<f64> {
    let s = sorted(values);
    let rank = s.len().div_ceil(QUIET_ONE_IN).max(1);
    if higher_is_better {
        s.len().checked_sub(rank).map(|i| s[i])
    } else {
        s.get(rank - 1).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.95), Some(95.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[3.0], 0.99), Some(3.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_tail(99), None);
        assert_eq!(highest_supported_tail(100), Some(0.90));
        assert_eq!(highest_supported_tail(199), Some(0.90));
        assert_eq!(highest_supported_tail(200), Some(0.95));
        assert_eq!(highest_supported_tail(999), Some(0.95));
        assert_eq!(highest_supported_tail(1000), Some(0.99));
        assert_eq!(highest_supported_tail(10_000), Some(0.999));
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn slow_segments_do_not_move_the_quiet_reading() {
        // Twelve segments; a neighbour slows seven of them by 30-70%.
        let latency = [
            7.6, 12.5, 12.6, 11.8, 7.6, 9.9, 7.5, 7.4, 12.7, 12.8, 9.9, 12.7,
        ];
        let rate: Vec<f64> = latency.iter().map(|l| 8000.0 / l).collect();
        let q = quiet(&latency, false).unwrap();
        assert!((7.4..=7.6).contains(&q), "latency {q}");
        let r = quiet(&rate, true).unwrap();
        assert!((8000.0 / 7.6..=8000.0 / 7.4).contains(&r), "rate {r}");
        // Past ten values the single best no longer sets it.
        let mut lucky = latency.to_vec();
        lucky[0] = 0.1;
        assert!(quiet(&lucky, false).unwrap() > 7.0);
        assert_eq!(quiet(&[], true), None);
        assert_eq!(quiet(&[3.0], true), Some(3.0));
    }

    #[test]
    fn the_quiet_reading_is_symmetric_in_its_rank() {
        let six = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        assert_eq!(quiet(&six, false), Some(1.0));
        assert_eq!(quiet(&six, true), Some(6.0));
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(quiet(&twenty, false), Some(2.0));
        assert_eq!(quiet(&twenty, true), Some(19.0));
        let fifty_six: Vec<f64> = (1..=56).map(f64::from).collect();
        assert_eq!(quiet(&fifty_six, false), Some(6.0));
        assert_eq!(quiet(&fifty_six, true), Some(51.0));
    }
}
