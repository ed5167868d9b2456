//! Chaos property tests for the fault-tolerant serving tier (ISSUE 10).
//!
//! Under arbitrary seeded fault schedules — worker-pass panics, worker
//! deaths, artificial slow passes, poisoned (NaN) inputs, queue stalls,
//! scheduler death mid-stream — the serving invariants must hold:
//!
//! 1. **No ticket left unanswered.** Every submitted ticket resolves
//!    with a response or a typed `ServeError` within a generous bound;
//!    a timed-out wait is a hung ticket and fails the test.
//! 2. **Survivors are exact.** Any `Ok` response is bit-equal to the
//!    fault-free oracle (`FlexiRuntime::infer` for the batch server,
//!    the solo greedy decode loop for the decode server): faults may
//!    kill work, never corrupt it.
//! 3. **Recovery.** Once the schedule is disarmed the server returns to
//!    `Ready` with a whole worker fleet and nothing in flight, and clean
//!    probes serve normally.
//!
//! Both servers run on one supervised core, so one helper
//! ([`assert_invariants`]) asserts all three over either of them through
//! the shared `health()`. A deterministic crash loop — a 100 % death
//! schedule — must make the core give up with typed answers instead of
//! spinning, again for both.
//!
//! The fault plan is process-global, so every test serializes on one
//! mutex and disarms before releasing it. `FLEXIQ_CHAOS_SEED` varies
//! the schedule seed (the CI matrix sets it); any seed must pass.

use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use flexiq::core::pipeline::{prepare, FlexiQConfig};
use flexiq::core::selection::Strategy;
use flexiq::core::FlexiRuntime;
use flexiq::nn::data::{gen_image_inputs, gen_token_stream, lm_sequences};
use flexiq::nn::zoo::{ModelId, Scale, TinyLmCfg};
use flexiq::serve::fault::{self, FaultConfig};
use flexiq::serve::{
    DecodeConfig, DecodeServer, Health, ServeConfig, ServeError, ServeState, Server,
};
use flexiq::tensor::Tensor;

/// One test at a time: the fault plan is process-global state.
fn chaos_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

/// The CI matrix's knob; any seed must satisfy the invariants.
fn chaos_seed() -> u64 {
    std::env::var("FLEXIQ_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(7)
}

fn image_fixture() -> (Arc<FlexiRuntime>, Vec<Tensor>) {
    let id = ModelId::RNet20;
    let graph = id.build(Scale::Test).unwrap();
    let calib = gen_image_inputs(4, &id.input_dims(Scale::Test), 7101);
    let prepared = prepare(&graph, &calib, &FlexiQConfig::new(4, Strategy::Greedy)).unwrap();
    (Arc::new(prepared.runtime), calib)
}

fn lm_fixture() -> (Arc<FlexiRuntime>, Vec<Tensor>) {
    let cfg = TinyLmCfg::at(Scale::Test);
    let graph = ModelId::TinyLm.build(Scale::Test).unwrap();
    let seqs = lm_sequences(
        &gen_token_stream(cfg.vocab, 8 * cfg.context, 7103),
        cfg.context,
    );
    let prepared = prepare(&graph, &seqs[..4], &FlexiQConfig::new(4, Strategy::Greedy)).unwrap();
    (Arc::new(prepared.runtime), seqs)
}

/// Offline greedy oracle for one prompt (mirrors the decode tests).
fn offline_greedy(rt: &FlexiRuntime, prompt: &Tensor, max_new: usize) -> Vec<u32> {
    fn argmax(row: &Tensor) -> usize {
        let d = row.data();
        (0..d.len()).fold(0, |b, i| if d[i] > d[b] { i } else { b })
    }
    let (mut session, first, _) = rt.decode_start(prompt).unwrap();
    let mut tokens = vec![argmax(&first) as u32];
    let mut last = tokens[0] as f32;
    let room = session.context() - session.pos();
    for _ in 0..room.min(max_new - 1) {
        let (row, _) = rt.decode_step(&mut session, last).unwrap();
        let tok = argmax(&row);
        tokens.push(tok as u32);
        last = tok as f32;
    }
    tokens
}

fn assert_bit_equal(got: &Tensor, want: &Tensor, what: &str) {
    assert_eq!(got.dims(), want.dims(), "{what}: shape diverged");
    for (a, b) in got.data().iter().zip(want.data().iter()) {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}: output diverged");
    }
}

/// The three serving invariants, for either server. `answers` are the
/// resolved tickets as `(oracle index, answer)`, `None` meaning the wait
/// timed out — a hung ticket. `Ok` answers go to `exact`; errors must be
/// one of the schedule's `typed` fault answers. Then the plan is
/// disarmed and `health` must heal. Returns `(ok, failed)` counts.
fn assert_invariants<T>(
    seed: u64,
    answers: impl IntoIterator<Item = (usize, Option<Result<T, ServeError>>)>,
    exact: impl Fn(usize, &T),
    typed: impl Fn(&ServeError) -> bool,
    health: impl Fn() -> Health,
) -> (u64, u64) {
    let (mut ok, mut failed) = (0, 0);
    for (src, answer) in answers {
        match answer {
            None => panic!("hung ticket: no answer within 60s (seed {seed})"),
            Some(Ok(resp)) => {
                exact(src, &resp);
                ok += 1;
            }
            Some(Err(e)) => {
                assert!(typed(&e), "unexpected terminal error: {e} (seed {seed})");
                failed += 1;
            }
        }
    }
    fault::disarm();
    let t0 = Instant::now();
    loop {
        let h = health();
        if h.state == ServeState::Ready && h.workers_alive == h.workers && h.inflight == 0 {
            return (ok, failed);
        }
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "no recovery to Ready within 30s: {h:?} (seed {seed})"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Names (`comm`, so cut at 15 bytes) of this process's live threads
/// that start with `flexiq-` and are not intra-batch pool helpers.
#[cfg(target_os = "linux")]
fn service_threads() -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
        .map(|n| n.trim().to_string())
        .filter(|n| n.starts_with("flexiq-") && !n.starts_with("flexiq-pool-"))
        .collect();
    names.sort();
    names
}

/// Asserts the census settles on `want` (a thread names itself only
/// once it runs, and a joined one lingers briefly in `/proc`).
#[cfg(target_os = "linux")]
fn assert_service_threads(want: &[&str]) {
    let t0 = Instant::now();
    while service_threads() != want && t0.elapsed() < Duration::from_secs(5) {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(service_threads(), want);
}

#[test]
fn server_survives_arbitrary_fault_schedules() {
    let _g = chaos_lock().lock().unwrap_or_else(|e| e.into_inner());
    let (rt, inputs) = image_fixture();
    rt.set_level(0).unwrap();
    let oracle: Vec<Tensor> = inputs.iter().map(|x| rt.infer(x).unwrap()).collect();
    let mut ok_total = 0u64;
    for round in 0..3u64 {
        let seed = chaos_seed().wrapping_mul(1 + round).wrapping_add(round);
        let cfg = ServeConfig {
            workers: 2,
            max_batch: 4,
            batch_timeout: Duration::from_millis(1),
            queue_capacity: 64,
            fault: Some(FaultConfig {
                seed,
                worker_panic: 0.15,
                worker_death: 0.10,
                slow_pass: 0.10,
                poison_input: 0.10,
                queue_stall: 0.05,
                scheduler_panic: 0.0,
                slow: Duration::from_millis(1),
                stall: Duration::from_millis(2),
            }),
            ..Default::default()
        };
        let server = Server::start_fixed(Arc::clone(&rt), cfg).unwrap();
        // Submit with the shared bounded backoff on typed admission
        // rejections — exactly what a well-behaved client does.
        let policy = flexiq::serve::BackoffPolicy::default();
        let mut tickets = Vec::new();
        for i in 0..60usize {
            let input = inputs[i % inputs.len()].clone();
            let (r, _stats) = flexiq::serve::retry_with(
                &policy,
                seed ^ i as u64,
                || server.submit_with_deadline(input.clone(), None),
                flexiq::serve::admission_retryable,
            );
            match r {
                Ok(t) => tickets.push((i % inputs.len(), t)),
                Err(e) => panic!("admission failed beyond retry budget: {e}"),
            }
        }
        let (ok, _) = assert_invariants(
            seed,
            tickets
                .into_iter()
                .map(|(src, t)| (src, t.wait_timeout(Duration::from_secs(60)).transpose())),
            |src, resp| assert_bit_equal(&resp.output, &oracle[src], "chaos survivor"),
            |e| {
                matches!(
                    e,
                    ServeError::WorkerPanic { .. }
                        | ServeError::PoisonedInput
                        | ServeError::ReplyDropped
                        | ServeError::Nn(_)
                )
            },
            || server.health(),
        );
        ok_total += ok;
        // Healed: clean probes serve bit-exact.
        for (i, x) in inputs.iter().enumerate() {
            let resp = server
                .submit_with_deadline(x.clone(), None)
                .unwrap()
                .wait_timeout(Duration::from_secs(30))
                .unwrap()
                .expect("post-recovery probe hung");
            assert_bit_equal(&resp.output, &oracle[i], "post-recovery probe");
        }
        let snap = server.shutdown();
        assert_eq!(
            snap.inflight, 0,
            "in-flight gauge must deflate to zero (seed {seed})"
        );
    }
    assert!(ok_total > 0, "some requests must survive the schedules");
    assert!(
        fault::injected_total() > 0,
        "the schedules must actually have fired"
    );
}

#[test]
fn crash_looping_workers_give_up_without_hanging_tickets() {
    let _g = chaos_lock().lock().unwrap_or_else(|e| e.into_inner());
    let (rt, inputs) = image_fixture();
    // Rate 1.0: every worker dies on every batch it pops, so nothing is
    // ever dispatched. The core must conclude it is crash-looping, close
    // the queue and refuse what is queued — the decode give-up rule,
    // from the same code.
    let cfg = ServeConfig {
        workers: 2,
        max_batch: 1,
        batch_timeout: Duration::from_millis(1),
        queue_capacity: 64,
        fault: Some(FaultConfig {
            seed: chaos_seed(),
            worker_death: 1.0,
            ..FaultConfig::off()
        }),
        ..Default::default()
    };
    let server = Server::start_fixed(Arc::clone(&rt), cfg).unwrap();
    // Keep the queue fed until admission closes: each death eats one
    // request, and the give-up must find some still queued.
    let mut tickets = Vec::new();
    let t0 = Instant::now();
    loop {
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "the core never gave up: {:?}",
            server.health()
        );
        match server.submit_with_deadline(inputs[0].clone(), None) {
            Ok(t) => tickets.push(t),
            Err(ServeError::ShuttingDown) => break,
            Err(ServeError::QueueFull { .. } | ServeError::Shedding) => {
                std::thread::sleep(Duration::from_millis(1))
            }
            Err(e) => panic!("unexpected admission error: {e}"),
        }
    }
    let mut refused = 0u64;
    for (i, t) in tickets.into_iter().enumerate() {
        match t.wait_timeout(Duration::from_secs(60)) {
            Err(ServeError::ReplyDropped) => {} // died in a worker's hand
            Err(ServeError::ShuttingDown) => refused += 1,
            Ok(None) => panic!("hung ticket {i} under rate-1.0 worker deaths"),
            other => panic!(
                "rate-1.0 deaths cannot serve, got {:?} for ticket {i}",
                other.map(|r| r.map(|r| r.id))
            ),
        }
    }
    assert!(refused > 0, "queued tickets must be refused, not dropped");
    let h = server.health();
    assert!(
        h.worker_respawns >= 1,
        "give-up is reached through respawns"
    );
    assert_eq!((h.queue_depth, h.inflight), (0, 0));
    assert!(matches!(
        server.submit(inputs[0].clone()),
        Err(ServeError::ShuttingDown)
    ));
    server.shutdown();
}

#[test]
fn decode_scheduler_death_answers_everything_and_recovers() {
    let _g = chaos_lock().lock().unwrap_or_else(|e| e.into_inner());
    let (rt, seqs) = lm_fixture();
    rt.set_level(0).unwrap();
    let lens = [2usize, 5, 3, 7, 4, 2, 6, 3];
    let prompts: Vec<Tensor> = lens
        .iter()
        .enumerate()
        .map(|(i, &l)| seqs[i % seqs.len()].slice_axis0(l).unwrap())
        .collect();
    let oracle: Vec<Vec<u32>> = prompts.iter().map(|p| offline_greedy(&rt, p, 4)).collect();
    let seed = chaos_seed();
    fault::arm(FaultConfig {
        seed,
        scheduler_panic: 0.3,
        ..FaultConfig::off()
    });
    let server = DecodeServer::start(
        Arc::clone(&rt),
        DecodeConfig {
            max_active: 3,
            max_new_tokens: 4,
            ..DecodeConfig::default()
        },
    )
    .unwrap();
    let tickets: Vec<_> = prompts
        .iter()
        .map(|p| server.submit(p.clone()).unwrap())
        .collect();
    let (ok, restarted) = assert_invariants(
        seed,
        tickets.into_iter().enumerate().map(|(i, t)| {
            // A hung ticket surfaces as the wait's own timeout.
            match t.wait_timeout(Duration::from_secs(60)) {
                Err(ServeError::DeadlineExpired) => (i, None),
                answer => (i, Some(answer)),
            }
        }),
        |i, resp| assert_eq!(resp.tokens, oracle[i], "surviving stream {i} diverged"),
        |e| *e == ServeError::SchedulerRestarted,
        || server.health(),
    );
    assert_eq!(
        ok + restarted,
        lens.len() as u64,
        "every ticket must resolve"
    );
    assert!(
        server.respawns() >= 1,
        "a 30% panic schedule must have killed the scheduler at least once"
    );
    // Recovery: disarmed, a fresh submission decodes exactly.
    let probe = server
        .submit(prompts[0].clone())
        .unwrap()
        .wait_timeout(Duration::from_secs(60))
        .expect("post-disarm decode failed");
    assert_eq!(probe.tokens, oracle[0], "post-disarm stream diverged");
    server.shutdown();
}

#[test]
fn crash_looping_scheduler_gives_up_without_hanging_tickets() {
    let _g = chaos_lock().lock().unwrap_or_else(|e| e.into_inner());
    let (rt, seqs) = lm_fixture();
    rt.set_level(0).unwrap();
    // Rate 1.0: the scheduler panics on every iteration and can never
    // make progress. The supervisor must conclude it is crash-looping,
    // close the queue, and error-answer everything — no ticket hangs.
    fault::arm(FaultConfig {
        seed: chaos_seed(),
        scheduler_panic: 1.0,
        ..FaultConfig::off()
    });
    let server = DecodeServer::start(
        Arc::clone(&rt),
        DecodeConfig {
            max_active: 2,
            max_new_tokens: 2,
            ..DecodeConfig::default()
        },
    )
    .unwrap();
    let mut tickets = Vec::new();
    for i in 0..6usize {
        // Admission may race the give-up close; both outcomes are typed.
        match server.submit(seqs[i % seqs.len()].slice_axis0(2).unwrap()) {
            Ok(t) => tickets.push(t),
            Err(ServeError::ShuttingDown) => {}
            Err(e) => panic!("unexpected admission error: {e}"),
        }
    }
    for (i, t) in tickets.into_iter().enumerate() {
        match t.wait_timeout(Duration::from_secs(60)) {
            Err(ServeError::SchedulerRestarted) => {}
            Err(ServeError::DeadlineExpired) => panic!("hung ticket {i} under rate-1.0 panics"),
            other => panic!("rate-1.0 panics cannot decode, got {other:?} for ticket {i}"),
        }
    }
    assert!(
        server.respawns() >= 1,
        "the give-up path is reached through respawns"
    );
    fault::disarm();
    server.shutdown();
}

/// Every service thread of both servers is spawned by the one core: an
/// adaptive `Server` runs its workers plus the supervisor, a
/// `DecodeServer` its scheduler plus the supervisor, and a stopped
/// server leaves none behind. (This binary runs one test at a time, so
/// the census sees only this test's servers.)
#[cfg(target_os = "linux")]
#[test]
fn each_server_runs_its_bodies_plus_one_supervisor() {
    let _g = chaos_lock().lock().unwrap_or_else(|e| e.into_inner());
    let (rt, _) = image_fixture();
    let cfg = ServeConfig {
        workers: 3,
        ..Default::default()
    };
    let server = Server::start_adaptive(rt, cfg).unwrap();
    assert_service_threads(&[
        "flexiq-supervis",
        "flexiq-worker-0",
        "flexiq-worker-1",
        "flexiq-worker-2",
    ]);
    server.shutdown();
    let (rt, _) = lm_fixture();
    let server = DecodeServer::start(rt, DecodeConfig::default()).unwrap();
    assert_service_threads(&["flexiq-decode-s", "flexiq-supervis"]);
    server.shutdown();
    assert_service_threads(&[]);
}
