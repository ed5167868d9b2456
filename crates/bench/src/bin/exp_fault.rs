//! Fault-tolerance sweep (ISSUE 10).
//!
//! Drives the batch server (integer engine at eval scale, what
//! `benchmark/` deploys) through the same RNet20 request trace
//! fault-free and under a fixed seeded fault schedule (worker panics,
//! worker deaths, slow passes, poisoned inputs, queue stalls), in
//! [`PAIRS`] alternating clean/faulted pairs. The floors live in [`floors`] and nowhere else;
//! the binary exits 1 on a miss and CI reads the exit code:
//!
//! 1. **Goodput.** Successful responses per second under the schedule
//!    must stay at or above `MIN_GOODPUT_RATIO` of the fault-free rate:
//!    faults may kill the work they hit, never collapse the service.
//!    The ratio is the median over the pairs — single pairs on a shared
//!    box read anywhere from 0.6 to 1.6. (Eval scale matters: at test
//!    scale a clean run lasts 7 ms, the schedule's fixed 0.5 ms sleeps
//!    and 1 ms respawn tick alone put the ratio at 0.70–0.72, and the
//!    floor measures those constants instead of lost work.)
//! 2. **No hung tickets, and recovery.** Every ticket of every run must
//!    resolve within its wait bound, the schedule must actually have
//!    fired, and once it is disarmed the supervisor must restore a
//!    whole, idle fleet within `MAX_RECOVERY_MS` (worst pair).
//! 3. **Disarmed overhead.** The fault-injection framework is compiled
//!    in unconditionally, so every serve request walks its fire sites
//!    even in production. The disarmed per-site cost (one relaxed
//!    atomic load) is timed directly in a calibrated loop and expressed
//!    as a fraction of the measured request round trip; it must stay
//!    within `MAX_OVERHEAD_PCT`. (An end-to-end A/B against an
//!    armed-zero-rate schedule is printed informationally — at
//!    sub-100µs round trips, scheduler jitter dwarfs the nanoseconds
//!    under test, so the floor does not hang off that difference.)
//!
//! `FLEXIQ_CHAOS_SEED` varies the schedule seed (the CI chaos matrix
//! sets it); any seed must clear the floors.

use std::sync::Arc;
use std::time::{Duration, Instant};

use flexiq_core::pipeline::{prepare, FlexiQConfig};
use flexiq_core::selection::Strategy;
use flexiq_core::FlexiRuntime;
use flexiq_nn::data::gen_image_inputs;
use flexiq_nn::zoo::{ModelId, Scale};
use flexiq_serve::fault::{self, FaultConfig, FaultSite};
use flexiq_serve::{
    admission_retryable, retry_with, BackoffPolicy, BrownoutConfig, ServeConfig, ServeState, Server,
};
use flexiq_tensor::Tensor;

/// Requests per goodput run. Large enough that the fixed schedule fires
/// tens of faults and the rps ratio is not one unlucky batch.
const REQUESTS: usize = 480;
/// Alternating clean/faulted run pairs; the goodput ratio is their
/// median.
const PAIRS: usize = 5;
/// The gated goodput floor: faulted rps / clean rps.
const MIN_GOODPUT_RATIO: f64 = 0.7;
/// The gated post-disarm recovery budget, milliseconds.
const MAX_RECOVERY_MS: f64 = 5000.0;
/// The gated disarmed-overhead budget, percent of a request round trip.
const MAX_OVERHEAD_PCT: f64 = 1.0;
/// Fire-site evaluations per request on the worst-case (batch-1) serve
/// path: queue-stall + worker-death per pop, slow-pass + worker-panic
/// per pass, poison per submit.
const SITES_PER_REQUEST: f64 = 5.0;

fn chaos_seed() -> u64 {
    std::env::var("FLEXIQ_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(11)
}

/// The serving shape both goodput runs share; only `fault` differs.
/// Brownout is off so the comparison isolates the fault schedule itself
/// (the ladder's shedding would skew rps for reasons the chaos suite,
/// not this sweep, covers).
fn goodput_cfg(fault: Option<FaultConfig>) -> ServeConfig {
    ServeConfig {
        workers: 2,
        max_batch: 4,
        batch_timeout: Duration::from_millis(1),
        queue_capacity: 256,
        brownout: BrownoutConfig {
            enabled: false,
            ..Default::default()
        },
        fault,
        ..Default::default()
    }
}

struct RunStats {
    ok: u64,
    errs: u64,
    hung: u64,
    elapsed_s: f64,
}

/// Submits `REQUESTS` tickets (with the shared bounded admission
/// backoff) and resolves every one; rps is measured from first submit
/// to last resolution.
fn goodput_run(server: &Server, inputs: &[Tensor], seed: u64) -> RunStats {
    let policy = BackoffPolicy::default();
    let t0 = Instant::now();
    let mut tickets = Vec::with_capacity(REQUESTS);
    for i in 0..REQUESTS {
        let input = inputs[i % inputs.len()].clone();
        let (r, _) = retry_with(
            &policy,
            seed ^ i as u64,
            || server.submit_with_deadline(input.clone(), None),
            admission_retryable,
        );
        match r {
            Ok(t) => tickets.push(t),
            Err(e) => {
                eprintln!("FAIL: admission failed beyond the retry budget: {e}");
                std::process::exit(1);
            }
        }
    }
    let (mut ok, mut errs, mut hung) = (0u64, 0u64, 0u64);
    for t in tickets {
        match t.wait_timeout(Duration::from_secs(60)) {
            Ok(Some(_)) => ok += 1,
            Ok(None) => hung += 1,
            Err(_) => errs += 1,
        }
    }
    RunStats {
        ok,
        errs,
        hung,
        elapsed_s: t0.elapsed().as_secs_f64(),
    }
}

/// Best per-request seconds over `groups` timed groups of sequential
/// submit-and-wait round trips (max_batch 1, zero batch timeout: every
/// request walks the queue-stall, worker-death, slow-pass and
/// worker-panic fire sites exactly once).
fn best_roundtrip_s(server: &Server, inputs: &[Tensor], groups: usize, reps: usize) -> f64 {
    let roundtrip = |x: &Tensor| {
        server
            .submit_with_deadline(x.clone(), None)
            .expect("overhead probe admission")
            .wait_timeout(Duration::from_secs(10))
            .expect("overhead probe failed")
            .expect("overhead probe hung");
    };
    roundtrip(&inputs[0]);
    let mut best = f64::INFINITY;
    for _ in 0..groups {
        let t0 = Instant::now();
        for r in 0..reps {
            roundtrip(&inputs[r % inputs.len()]);
        }
        best = best.min(t0.elapsed().as_secs_f64() / reps as f64);
    }
    best
}

/// Nanoseconds per disarmed fire-site evaluation, best of 5 calibrated
/// loops. `black_box` keeps the per-call branch and relaxed load alive.
fn disarmed_fire_ns() -> f64 {
    const N: u32 = 4_000_000;
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t0 = Instant::now();
        for _ in 0..N {
            fault::fire(std::hint::black_box(FaultSite::WorkerPanic));
        }
        best = best.min(t0.elapsed().as_secs_f64() * 1e9 / f64::from(N));
    }
    best
}

fn overhead_cfg(fault: Option<FaultConfig>) -> ServeConfig {
    ServeConfig {
        workers: 1,
        max_batch: 1,
        batch_timeout: Duration::ZERO,
        queue_capacity: 16,
        brownout: BrownoutConfig {
            enabled: false,
            ..Default::default()
        },
        fault,
        ..Default::default()
    }
}

/// What the sweep measured, as the floors see it.
struct Measured {
    /// Faulted / clean goodput, one per alternating pair.
    pair_ratios: Vec<f64>,
    hung_tickets: u64,
    faults_injected: u64,
    /// Worst post-disarm recovery over the pairs; infinite = never.
    recovery_ms: f64,
    overhead_pct: f64,
}

impl Measured {
    /// Median of the per-pair goodput ratios (NaN when there are none).
    fn goodput_ratio(&self) -> f64 {
        let mut r = self.pair_ratios.clone();
        r.sort_by(f64::total_cmp);
        r.get(r.len() / 2).copied().unwrap_or(f64::NAN)
    }
}

/// The floors, stated once. Returns one message per miss — empty means
/// pass.
fn floors(m: &Measured) -> Vec<String> {
    let mut misses = Vec::new();
    let ratio = m.goodput_ratio();
    // Each stated as the pass condition so a NaN reading is a miss.
    let goodput_held = ratio >= MIN_GOODPUT_RATIO;
    if !goodput_held {
        misses.push(format!(
            "goodput ratio {ratio:.3} (median of {:.3?}) below {MIN_GOODPUT_RATIO}",
            m.pair_ratios
        ));
    }
    if m.hung_tickets > 0 {
        misses.push(format!(
            "{} ticket(s) hung past the wait bound",
            m.hung_tickets
        ));
    }
    if m.faults_injected == 0 {
        misses.push("the schedule never fired — the faulted runs measured nothing".into());
    }
    let recovered = m.recovery_ms <= MAX_RECOVERY_MS;
    if !recovered {
        misses.push(format!(
            "no recovery to a whole, Ready fleet within {MAX_RECOVERY_MS} ms of disarm"
        ));
    }
    let cheap = m.overhead_pct <= MAX_OVERHEAD_PCT;
    if !cheap {
        misses.push(format!(
            "disarmed overhead {:.2}% exceeds {MAX_OVERHEAD_PCT}%",
            m.overhead_pct
        ));
    }
    misses
}

/// One faulted goodput run plus the time the fleet takes to return to
/// whole, idle and Ready once the schedule is disarmed (infinite when it
/// does not within `MAX_RECOVERY_MS`).
fn faulted_run(
    rt: &Arc<FlexiRuntime>,
    inputs: &[Tensor],
    schedule: FaultConfig,
    seed: u64,
) -> (RunStats, f64) {
    let server = Server::start_fixed(Arc::clone(rt), goodput_cfg(Some(schedule))).unwrap();
    let stats = goodput_run(&server, inputs, seed);
    fault::disarm();
    let t0 = Instant::now();
    let recovery_ms = loop {
        let h = server.health();
        if h.state == ServeState::Ready && h.workers_alive == h.workers && h.inflight == 0 {
            break t0.elapsed().as_secs_f64() * 1e3;
        }
        if t0.elapsed().as_secs_f64() * 1e3 > MAX_RECOVERY_MS {
            break f64::INFINITY;
        }
        std::thread::sleep(Duration::from_micros(200));
    };
    server.shutdown();
    (stats, recovery_ms)
}

fn main() {
    let id = ModelId::RNet20;
    println!(
        "preparing {} (eval scale) for the fault-tolerance sweep...",
        id.name()
    );
    let graph = id.build(Scale::Eval).unwrap();
    let calib = gen_image_inputs(8, &id.input_dims(Scale::Eval), 0xFA0701);
    let prepared = prepare(&graph, &calib, &FlexiQConfig::new(4, Strategy::Greedy)).unwrap();
    let rt = Arc::new(prepared.runtime);
    let inputs = gen_image_inputs(8, &id.input_dims(Scale::Eval), 0xFA0702);
    let seed = chaos_seed();

    // Disarmed overhead: the directly-timed per-site cost, scaled by
    // the worst-case sites-per-request count, as a fraction of the
    // measured disarmed round trip. The armed-zero round trip is
    // reported informationally.
    fault::disarm();
    let reps = std::env::var("FLEXIQ_BENCH_REPS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .map(|r| r.max(1))
        .unwrap_or(48);
    let fire_ns = disarmed_fire_ns();
    let disarmed_server = Server::start_fixed(Arc::clone(&rt), overhead_cfg(None)).unwrap();
    let disarmed = best_roundtrip_s(&disarmed_server, &inputs, 7, reps);
    disarmed_server.shutdown();
    let armed_server = Server::start_fixed(
        Arc::clone(&rt),
        overhead_cfg(Some(FaultConfig {
            seed,
            ..FaultConfig::off()
        })),
    )
    .unwrap();
    let armed = best_roundtrip_s(&armed_server, &inputs, 7, reps);
    armed_server.shutdown();
    let overhead_pct = SITES_PER_REQUEST * fire_ns / (disarmed * 1e9) * 100.0;

    // Goodput: alternating fault-free / fixed-schedule runs over the
    // same trace, each faulted run followed by its recovery probe.
    let schedule = FaultConfig {
        seed,
        worker_panic: 0.05,
        worker_death: 0.02,
        slow_pass: 0.05,
        slow: Duration::from_micros(500),
        poison_input: 0.03,
        queue_stall: 0.03,
        stall: Duration::from_micros(500),
        scheduler_panic: 0.0,
    };
    let mut m = Measured {
        pair_ratios: Vec::with_capacity(PAIRS),
        hung_tickets: 0,
        faults_injected: 0,
        recovery_ms: 0.0,
        overhead_pct,
    };
    for pair in 0..PAIRS {
        fault::disarm();
        let clean_server = Server::start_fixed(Arc::clone(&rt), goodput_cfg(None)).unwrap();
        let clean = goodput_run(&clean_server, &inputs, seed);
        clean_server.shutdown();
        if clean.ok != REQUESTS as u64 {
            eprintln!(
                "FAIL: fault-free run lost requests ({} ok, {} errs, {} hung of {REQUESTS})",
                clean.ok, clean.errs, clean.hung
            );
            std::process::exit(1);
        }
        let fired_before = fault::injected_total();
        let (faulted, recovery_ms) = faulted_run(&rt, &inputs, schedule.clone(), seed);
        let fired = fault::injected_total() - fired_before;
        let clean_rps = clean.ok as f64 / clean.elapsed_s;
        let fault_rps = faulted.ok as f64 / faulted.elapsed_s;
        let ratio = fault_rps / clean_rps;
        println!(
            "pair {pair}: clean {clean_rps:.1} rps, faulted {fault_rps:.1} rps (ratio {ratio:.3}; \
             {} ok, {} errs, {fired} faults fired; recovery {recovery_ms:.2} ms)",
            faulted.ok, faulted.errs
        );
        m.pair_ratios.push(ratio);
        m.hung_tickets += clean.hung + faulted.hung;
        m.faults_injected += fired;
        m.recovery_ms = m.recovery_ms.max(recovery_ms);
    }

    println!(
        "goodput ratio {:.3} (median of {PAIRS} pairs), {} faults fired, worst recovery {:.2} ms",
        m.goodput_ratio(),
        m.faults_injected,
        m.recovery_ms
    );
    println!(
        "disarmed site cost {fire_ns:.2} ns x {SITES_PER_REQUEST} sites over a {:.4} ms round \
         trip = {overhead_pct:.4}% (armed-zero round trip {:.4} ms, informational)",
        disarmed * 1e3,
        armed * 1e3
    );

    let misses = floors(&m);
    for miss in &misses {
        eprintln!("FAIL: {miss}");
    }
    if !misses.is_empty() {
        std::process::exit(1);
    }
    println!("fault-tolerance sweep PASS");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn healthy() -> Measured {
        Measured {
            pair_ratios: vec![0.91, 0.62, 1.1, 0.88, 0.95],
            hung_tickets: 0,
            faults_injected: 42,
            recovery_ms: 12.5,
            overhead_pct: 0.2,
        }
    }

    #[test]
    fn doctored_fault_regression_fails() {
        // One noisy pair below the floor does not fail the median.
        assert!(floors(&healthy()).is_empty());
        // Goodput collapsing under the schedule: the regression this
        // floor exists for.
        let collapsed = Measured {
            pair_ratios: vec![0.55, 0.6, 0.9, 0.5, 0.69],
            ..healthy()
        };
        let misses = floors(&collapsed);
        assert_eq!(misses.len(), 1);
        assert!(misses[0].contains("0.600"), "{misses:?}");
        // At the floor exactly: pass. No pairs at all: miss.
        let at_floor = Measured {
            pair_ratios: vec![MIN_GOODPUT_RATIO; 5],
            ..healthy()
        };
        assert!(floors(&at_floor).is_empty());
        let none = Measured {
            pair_ratios: Vec::new(),
            ..healthy()
        };
        assert_eq!(floors(&none).len(), 1);
        // A hung ticket is the invariant violation, never acceptable.
        let hung = Measured {
            hung_tickets: 1,
            ..healthy()
        };
        assert_eq!(floors(&hung).len(), 1);
        // A schedule that never fired cannot vouch for the ratio.
        let silent = Measured {
            faults_injected: 0,
            ..healthy()
        };
        assert_eq!(floors(&silent).len(), 1);
        // Recovery beyond the budget (or never) fails.
        for recovery_ms in [9000.0, f64::INFINITY] {
            let slow = Measured {
                recovery_ms,
                ..healthy()
            };
            assert_eq!(floors(&slow).len(), 1);
        }
        // Disarmed overhead above the budget fails.
        let costly = Measured {
            overhead_pct: 2.5,
            ..healthy()
        };
        assert_eq!(floors(&costly).len(), 1);
    }
}
