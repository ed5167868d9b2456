//! Deterministic, seeded fault injection for the serve tier.
//!
//! Named failure points are compiled into the hot path the same way the
//! telemetry crate gates span recording: when injection is disarmed the
//! entire check is **one relaxed atomic load** ([`armed`]), so the
//! framework can stay in release builds permanently. When armed, each
//! site draws a deterministic pseudo-random decision from
//! `(seed, site, per-site hit index)` — the same seed and workload
//! order reproduce the same fault schedule, which is what lets the
//! chaos suite assert exact recovery properties.
//!
//! # Sites
//!
//! | site | effect | where it fires |
//! |---|---|---|
//! | [`FaultSite::WorkerPanic`] | `panic!` inside the worker's per-pass `catch_unwind` | before a stacked model pass |
//! | [`FaultSite::WorkerDeath`] | `panic!` outside any catch — the worker thread dies | after a batch is popped |
//! | [`FaultSite::SlowPass`] | sleep, simulating a straggler pass | inside the guarded pass |
//! | [`FaultSite::PoisonInput`] | overwrites one input value with `NaN` | at `Server::submit` |
//! | [`FaultSite::QueueStall`] | sleep, simulating a stalled consumer | top of the worker loop |
//! | [`FaultSite::SchedulerPanic`] | `panic!` in the decode scheduler loop | top of each scheduler iteration |
//!
//! # Arming
//!
//! Programmatic: [`arm`] / [`disarm`]. Environmental: set `FLEXIQ_FAULT`
//! to a spec string before the first site is evaluated, e.g.
//!
//! ```text
//! FLEXIQ_FAULT=seed=7,panic=0.05,death=0.01,slow=0.03,slow_ms=2,nan=0.02,stall=0.02,stall_ms=5,sched=0.02
//! ```
//!
//! Unknown keys are an error (typos must not silently disable chaos).
//! Every fired fault increments
//! [`flexiq_telemetry::Counter::FaultsInjected`] and the process-local
//! [`injected_total`] counter.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use flexiq_telemetry as tel;

use crate::error::{Result, ServeError};

/// Number of named fault sites.
const N_SITES: usize = 6;

/// A named failure point in the serve tier.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum FaultSite {
    /// Panic inside the worker's per-pass `catch_unwind` region.
    WorkerPanic,
    /// Panic outside any catch: the worker thread dies and must be
    /// respawned by the supervisor.
    WorkerDeath,
    /// Artificial slow pass (straggler).
    SlowPass,
    /// Overwrite an input value with `NaN` at submission.
    PoisonInput,
    /// Stall the worker loop before it pops a batch.
    QueueStall,
    /// Panic in the decode scheduler loop.
    SchedulerPanic,
}

impl FaultSite {
    /// Stable short name (used in panic messages and docs).
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::WorkerPanic => "worker-panic",
            FaultSite::WorkerDeath => "worker-death",
            FaultSite::SlowPass => "slow-pass",
            FaultSite::PoisonInput => "poison-input",
            FaultSite::QueueStall => "queue-stall",
            FaultSite::SchedulerPanic => "scheduler-panic",
        }
    }
}

/// What an armed site does when its decision fires.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultAction {
    /// Unwind with a recognizable payload.
    Panic,
    /// Sleep for the configured duration.
    Sleep(Duration),
    /// Corrupt the value under test (site-specific).
    Poison,
}

/// Per-site firing rates and the schedule seed.
///
/// Rates are per *evaluation* of the site (per pass, per popped batch,
/// per scheduler iteration, per submission) in `[0, 1]`.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultConfig {
    /// Schedule seed: same seed + same workload order ⇒ same faults.
    pub seed: u64,
    /// Per-pass probability of a caught worker panic.
    pub worker_panic: f64,
    /// Per-batch probability the worker thread dies.
    pub worker_death: f64,
    /// Per-pass probability of an artificial straggler sleep.
    pub slow_pass: f64,
    /// Straggler sleep duration.
    pub slow: Duration,
    /// Per-submission probability of NaN-poisoning the input.
    pub poison_input: f64,
    /// Per-loop probability the worker stalls before popping.
    pub queue_stall: f64,
    /// Stall duration.
    pub stall: Duration,
    /// Per-iteration probability the decode scheduler panics.
    pub scheduler_panic: f64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::off()
    }
}

impl FaultConfig {
    /// All rates zero: armed-but-idle (useful to measure the armed
    /// check's cost; nothing ever fires).
    pub fn off() -> Self {
        FaultConfig {
            seed: 0,
            worker_panic: 0.0,
            worker_death: 0.0,
            slow_pass: 0.0,
            slow: Duration::from_millis(1),
            poison_input: 0.0,
            queue_stall: 0.0,
            stall: Duration::from_millis(1),
            scheduler_panic: 0.0,
        }
    }

    /// The firing rate of a site.
    pub fn rate(&self, site: FaultSite) -> f64 {
        match site {
            FaultSite::WorkerPanic => self.worker_panic,
            FaultSite::WorkerDeath => self.worker_death,
            FaultSite::SlowPass => self.slow_pass,
            FaultSite::PoisonInput => self.poison_input,
            FaultSite::QueueStall => self.queue_stall,
            FaultSite::SchedulerPanic => self.scheduler_panic,
        }
    }

    /// The action a site performs when it fires.
    pub fn action(&self, site: FaultSite) -> FaultAction {
        match site {
            FaultSite::WorkerPanic | FaultSite::WorkerDeath | FaultSite::SchedulerPanic => {
                FaultAction::Panic
            }
            FaultSite::SlowPass => FaultAction::Sleep(self.slow),
            FaultSite::QueueStall => FaultAction::Sleep(self.stall),
            FaultSite::PoisonInput => FaultAction::Poison,
        }
    }

    /// Validates all rates are finite probabilities.
    pub fn validate(&self) -> Result<()> {
        for site in SITES {
            let r = self.rate(site);
            if !r.is_finite() || !(0.0..=1.0).contains(&r) {
                return Err(ServeError::Config(format!(
                    "fault rate for {} must be in [0, 1], got {r}",
                    site.name()
                )));
            }
        }
        Ok(())
    }

    /// Parses a `FLEXIQ_FAULT` spec string:
    /// `seed=7,panic=0.05,death=0.01,slow=0.03,slow_ms=2,nan=0.02,stall=0.02,stall_ms=5,sched=0.02`.
    /// Every key is optional; unknown keys are an error.
    pub fn parse(spec: &str) -> Result<FaultConfig> {
        let mut cfg = FaultConfig::off();
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (key, val) = part
                .split_once('=')
                .map(|(k, v)| (k.trim(), v.trim()))
                .ok_or_else(|| ServeError::Config(format!("fault spec `{part}`: expected k=v")))?;
            let bad = |what: &str| ServeError::Config(format!("fault spec {key}={val}: {what}"));
            let f = || val.parse::<f64>().map_err(|_| bad("not a number"));
            let ms = || {
                val.parse::<u64>()
                    .map(Duration::from_millis)
                    .map_err(|_| bad("not a millisecond count"))
            };
            match key {
                "seed" => cfg.seed = val.parse().map_err(|_| bad("not a u64"))?,
                "panic" => cfg.worker_panic = f()?,
                "death" => cfg.worker_death = f()?,
                "slow" => cfg.slow_pass = f()?,
                "slow_ms" => cfg.slow = ms()?,
                "nan" => cfg.poison_input = f()?,
                "stall" => cfg.queue_stall = f()?,
                "stall_ms" => cfg.stall = ms()?,
                "sched" => cfg.scheduler_panic = f()?,
                other => {
                    return Err(ServeError::Config(format!(
                        "fault spec: unknown key `{other}`"
                    )))
                }
            }
        }
        cfg.validate()?;
        Ok(cfg)
    }
}

const SITES: [FaultSite; N_SITES] = [
    FaultSite::WorkerPanic,
    FaultSite::WorkerDeath,
    FaultSite::SlowPass,
    FaultSite::PoisonInput,
    FaultSite::QueueStall,
    FaultSite::SchedulerPanic,
];

/// An armed schedule: the config plus per-site evaluation counters.
struct Plan {
    cfg: FaultConfig,
    hits: [AtomicU64; N_SITES],
}

// Tri-state, telemetry-style: 0 = uninitialized (consult FLEXIQ_FAULT
// once), 1 = disarmed, 2 = armed. The disarmed hot path is exactly one
// relaxed load of this byte.
static ARMED: AtomicU8 = AtomicU8::new(0);
static PLAN: Mutex<Option<Arc<Plan>>> = Mutex::new(None);
/// Process-lifetime count of fired faults (monotonic across re-arms).
static FIRED: AtomicU64 = AtomicU64::new(0);

/// Whether fault injection is armed. One relaxed atomic load after the
/// first call — this is the only cost sites pay when injection is off.
#[inline]
pub fn armed() -> bool {
    match ARMED.load(Ordering::Relaxed) {
        1 => false,
        2 => true,
        _ => init_armed(),
    }
}

#[cold]
fn init_armed() -> bool {
    match std::env::var("FLEXIQ_FAULT") {
        Ok(spec) if !spec.is_empty() => match FaultConfig::parse(&spec) {
            Ok(cfg) => {
                arm(cfg);
                true
            }
            Err(e) => {
                // A typo'd spec must be loud, not a silent no-chaos run.
                eprintln!("FLEXIQ_FAULT ignored: {e}");
                ARMED.store(1, Ordering::Relaxed);
                false
            }
        },
        _ => {
            ARMED.store(1, Ordering::Relaxed);
            false
        }
    }
}

/// Arms fault injection process-wide with a fresh schedule (per-site
/// hit counters restart at zero).
pub fn arm(cfg: FaultConfig) {
    let plan = Arc::new(Plan {
        cfg,
        hits: [const { AtomicU64::new(0) }; N_SITES],
    });
    *lock_plan() = Some(plan);
    ARMED.store(2, Ordering::Relaxed);
}

/// Disarms fault injection process-wide.
pub fn disarm() {
    ARMED.store(1, Ordering::Relaxed);
    *lock_plan() = None;
}

/// Total faults fired since process start (monotonic across re-arms).
pub fn injected_total() -> u64 {
    FIRED.load(Ordering::Relaxed)
}

fn lock_plan() -> std::sync::MutexGuard<'static, Option<Arc<Plan>>> {
    // The plan lock is tiny and never held across user code; clear
    // poison rather than cascade (a panicking fault site is *expected*
    // here).
    PLAN.lock().unwrap_or_else(PoisonError::into_inner)
}

/// splitmix64 — the one-instruction-per-stage mixer we use everywhere a
/// deterministic hash-to-uniform is needed (also reused by
/// [`crate::retry`] for jitter).
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Pure firing decision: does evaluation `hit` of `site` fire under
/// `(seed, rate)`? Exposed for the chaos suite's determinism checks.
pub fn decide(seed: u64, site: FaultSite, hit: u64, rate: f64) -> bool {
    if rate <= 0.0 {
        return false;
    }
    if rate >= 1.0 {
        return true;
    }
    let mixed = splitmix64(seed ^ splitmix64(((site as u64) << 32) ^ hit));
    // 53 high bits → uniform in [0, 1).
    let u = (mixed >> 11) as f64 / (1u64 << 53) as f64;
    u < rate
}

/// Evaluates a site against the armed schedule. `None` when disarmed or
/// the decision does not fire. Callers should gate on [`armed`] first
/// so the disarmed path never reaches this function.
pub fn check(site: FaultSite) -> Option<FaultAction> {
    if !armed() {
        return None;
    }
    let plan = lock_plan().clone()?;
    let hit = plan.hits[site as usize].fetch_add(1, Ordering::Relaxed);
    if !decide(plan.cfg.seed, site, hit, plan.cfg.rate(site)) {
        return None;
    }
    FIRED.fetch_add(1, Ordering::Relaxed);
    tel::count(tel::Counter::FaultsInjected, 1);
    Some(plan.cfg.action(site))
}

/// Fires a panic- or sleep-style site in place: panics with a
/// recognizable payload or sleeps, per the armed schedule. The disarmed
/// cost is one relaxed load.
#[inline]
pub fn fire(site: FaultSite) {
    if !armed() {
        return;
    }
    fire_armed(site);
}

#[cold]
fn fire_armed(site: FaultSite) {
    match check(site) {
        Some(FaultAction::Panic) => panic!("injected fault: {}", site.name()),
        Some(FaultAction::Sleep(d)) => std::thread::sleep(d),
        Some(FaultAction::Poison) | None => {}
    }
}

/// Evaluates the [`FaultSite::PoisonInput`] site against `input`,
/// overwriting its first element with `NaN` when the decision fires.
/// The disarmed cost is one relaxed load.
#[inline]
pub fn maybe_poison(input: &mut flexiq_tensor::Tensor) {
    if !armed() {
        return;
    }
    if matches!(check(FaultSite::PoisonInput), Some(FaultAction::Poison)) {
        if let Some(v) = input.data_mut().first_mut() {
            *v = f32::NAN;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // arm()/disarm() are process-global; every test that touches them
    // serializes here so concurrently running serve unit tests never see
    // a surprise schedule.
    static GLOBAL: Mutex<()> = Mutex::new(());

    #[test]
    fn parse_full_spec_round_trips() {
        let cfg = FaultConfig::parse(
            "seed=7, panic=0.05,death=0.01,slow=0.03,slow_ms=2,nan=0.02,stall=0.5,stall_ms=5,sched=0.02",
        )
        .unwrap();
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.worker_panic, 0.05);
        assert_eq!(cfg.worker_death, 0.01);
        assert_eq!(cfg.slow_pass, 0.03);
        assert_eq!(cfg.slow, Duration::from_millis(2));
        assert_eq!(cfg.poison_input, 0.02);
        assert_eq!(cfg.queue_stall, 0.5);
        assert_eq!(cfg.stall, Duration::from_millis(5));
        assert_eq!(cfg.scheduler_panic, 0.02);
        // Blanks around either side of `=` are insignificant.
        for spec in ["panic=0.5 , nan= 0.1", "panic =0.5,nan =0.1"] {
            let cfg = FaultConfig::parse(spec).unwrap();
            assert_eq!((cfg.worker_panic, cfg.poison_input), (0.5, 0.1), "{spec}");
        }
    }

    proptest::proptest! {
        /// Any string parses to a typed answer: no panic, and every
        /// accepted schedule passes `validate`. Specs are drawn near the
        /// grammar (keys, rates in and out of range, stray blanks,
        /// missing `=`) and then salted with arbitrary characters.
        #[test]
        fn parse_is_total(
            parts in proptest::collection::vec(0u32..u32::MAX, 0..6),
            noise in proptest::collection::vec(0u32..0x11_0000, 0..4),
        ) {
            const KEYS: [&str; 11] = [
                "seed", "panic", "death", "slow", "slow_ms", "nan", "stall", "stall_ms",
                "sched", "bogus", "",
            ];
            const VALS: [&str; 12] =
                ["0", "0.1", "0.5", "1", "7", "1.5", "-1", "1e400", "NaN", "inf", "", "x"];
            let spec = parts
                .iter()
                .map(|&p| {
                    let pad = if p & 1 == 1 { " " } else { "" };
                    let key = KEYS[(p >> 1) as usize % KEYS.len()];
                    let val = VALS[(p >> 5) as usize % VALS.len()];
                    let eq = if (p >> 9) % 8 == 0 { "" } else { "=" };
                    format!("{pad}{key}{pad}{eq}{pad}{val}{pad}")
                })
                .collect::<Vec<_>>()
                .join(",");
            let mut chars: Vec<char> = spec.chars().collect();
            for &c in &noise {
                if let Some(ch) = char::from_u32(c) {
                    chars.insert(c as usize % (chars.len() + 1), ch);
                }
            }
            let spec: String = chars.into_iter().collect();
            if let Ok(cfg) = FaultConfig::parse(&spec) {
                proptest::prop_assert!(cfg.validate().is_ok(), "{spec:?}");
            }
        }
    }

    #[test]
    fn parse_rejects_unknown_keys_and_bad_rates() {
        assert!(matches!(
            FaultConfig::parse("panics=0.5"),
            Err(ServeError::Config(_))
        ));
        assert!(matches!(
            FaultConfig::parse("panic=1.5"),
            Err(ServeError::Config(_))
        ));
        assert!(matches!(
            FaultConfig::parse("panic"),
            Err(ServeError::Config(_))
        ));
        assert!(matches!(
            FaultConfig::parse("slow_ms=abc"),
            Err(ServeError::Config(_))
        ));
    }

    #[test]
    fn decisions_are_deterministic_and_rate_shaped() {
        // Same (seed, site, hit) → same decision.
        for hit in 0..256 {
            assert_eq!(
                decide(42, FaultSite::WorkerPanic, hit, 0.3),
                decide(42, FaultSite::WorkerPanic, hit, 0.3)
            );
        }
        // Extremes.
        assert!(!decide(1, FaultSite::SlowPass, 0, 0.0));
        assert!(decide(1, FaultSite::SlowPass, 0, 1.0));
        // Empirical rate tracks the configured rate.
        let n = 10_000u64;
        let fired = (0..n)
            .filter(|&h| decide(7, FaultSite::QueueStall, h, 0.2))
            .count() as f64;
        let frac = fired / n as f64;
        assert!((0.15..0.25).contains(&frac), "observed {frac}");
        // Different sites draw different streams from the same seed.
        let a: Vec<bool> = (0..64)
            .map(|h| decide(7, FaultSite::WorkerPanic, h, 0.5))
            .collect();
        let b: Vec<bool> = (0..64)
            .map(|h| decide(7, FaultSite::SchedulerPanic, h, 0.5))
            .collect();
        assert_ne!(a, b);
    }

    #[test]
    fn armed_idle_schedule_never_fires() {
        let _g = GLOBAL.lock().unwrap_or_else(PoisonError::into_inner);
        // All-zero rates: armed() is true but nothing fires — harmless
        // to any concurrently running test.
        arm(FaultConfig::off());
        assert!(armed());
        let before = injected_total();
        for _ in 0..64 {
            fire(FaultSite::WorkerPanic);
            fire(FaultSite::SlowPass);
            assert!(check(FaultSite::QueueStall).is_none());
        }
        assert_eq!(injected_total(), before);
        disarm();
        assert!(!armed());
        // Disarmed sites don't even consult the plan.
        assert!(check(FaultSite::WorkerPanic).is_none());
    }

    #[test]
    fn sites_have_stable_names() {
        for s in SITES {
            assert!(!s.name().is_empty());
        }
    }
}
