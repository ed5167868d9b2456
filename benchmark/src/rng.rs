//! The benchmark's own seeded generator: request order, budgets and
//! arrival times come from here, so the library under test sees only
//! the generated tensors and a library RNG change cannot move a
//! workload.

/// SplitMix64 (Steele, Lea & Flood): tiny, seedable, and good enough
/// for index draws and exponential gaps.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// An independent stream for one purpose (`tag`) of one seed.
    pub fn stream(seed: u64, tag: u64) -> Self {
        let mut r = Rng(seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        debug_assert!(lo <= hi);
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    /// Standard normal (Box–Muller).
    pub fn normal(&mut self) -> f32 {
        let u1 = (1.0 - self.unit()).max(f64::MIN_POSITIVE);
        let u2 = self.unit();
        ((-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()) as f32
    }

    /// Exponential gap with the given rate (events per second).
    pub fn exponential(&mut self, rate: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate
    }
}

/// Arrival times (seconds, ascending) of a Poisson process whose rate
/// is piecewise constant over `(duration_s, rate_per_s)` phases.
pub fn piecewise_poisson(phases: &[(f64, f64)], rng: &mut Rng) -> Vec<f64> {
    let mut out = Vec::new();
    let mut phase_start = 0.0;
    for &(dur, rate) in phases {
        let phase_end = phase_start + dur;
        let mut t = phase_start;
        if rate > 0.0 {
            loop {
                t += rng.exponential(rate);
                if t >= phase_end {
                    break;
                }
                out.push(t);
            }
        }
        phase_start = phase_end;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_tags_differ() {
        let a: Vec<u64> = (0..4)
            .map(|_| 0)
            .scan(Rng::stream(7, 1), |r, _| Some(r.next_u64()))
            .collect();
        let b: Vec<u64> = (0..4)
            .map(|_| 0)
            .scan(Rng::stream(7, 1), |r, _| Some(r.next_u64()))
            .collect();
        let c: Vec<u64> = (0..4)
            .map(|_| 0)
            .scan(Rng::stream(7, 2), |r, _| Some(r.next_u64()))
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn piecewise_poisson_is_ascending_and_tracks_the_rates() {
        let mut rng = Rng::new(11);
        let t = piecewise_poisson(&[(2.0, 500.0), (1.0, 4000.0), (1.0, 0.0)], &mut rng);
        assert!(t.windows(2).all(|w| w[0] <= w[1]));
        let calm = t.iter().filter(|&&x| x < 2.0).count() as f64;
        let burst = t.iter().filter(|&&x| (2.0..3.0).contains(&x)).count() as f64;
        assert!((calm - 1000.0).abs() < 150.0, "calm {calm}");
        assert!((burst - 4000.0).abs() < 300.0, "burst {burst}");
        assert!(t.iter().all(|&x| x < 3.0));
    }

    #[test]
    fn range_is_inclusive() {
        let mut rng = Rng::new(3);
        let draws: Vec<usize> = (0..2000).map(|_| rng.range(2, 8)).collect();
        assert_eq!(*draws.iter().min().unwrap(), 2);
        assert_eq!(*draws.iter().max().unwrap(), 8);
    }
}
