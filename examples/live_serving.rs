//! Live serving: a bursty trace through **real** `FlexiRuntime`
//! execution (the §8.3 experiment, executed instead of simulated).
//!
//! A small zoo model is prepared once, then served by the threaded
//! batching server in `flexiq-serve`: bounded admission queue, dynamic
//! batching, a worker pool running quantized forward passes, and the
//! measured-latency feedback controller adapting the 4-bit ratio from
//! sliding-window p95 — no offline profile anywhere.
//!
//! The offered load is derived from the machine's own measured INT8
//! inference latency, so the burst reliably pushes the server past
//! saturation wherever this runs:
//!
//! ```sh
//! cargo run --release --example live_serving
//! ```
//!
//! Setting `FLEXIQ_SMOKE=1` replays a much shorter trace (sub-second
//! segments, smaller probe) — the CI smoke mode that exercises the
//! batched server path on every PR without burning minutes.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use flexiq::core::pipeline::{prepare, FlexiQConfig};
use flexiq::core::runtime::LEVEL_INT8;
use flexiq::core::selection::Strategy;
use flexiq::nn::data::gen_image_inputs;
use flexiq::nn::zoo::{ModelId, Scale};
use flexiq::serve::{open_loop, ControlConfig, ServeConfig, Server};
use flexiq::serving::piecewise_poisson;

fn level_name(runtime_level: usize, ratios: &[f64]) -> String {
    if runtime_level == LEVEL_INT8 {
        "INT8".to_string()
    } else {
        format!(
            "{:.0}% 4-bit",
            ratios.get(runtime_level).copied().unwrap_or(f64::NAN) * 100.0
        )
    }
}

fn main() {
    // CI smoke mode: same code path end to end, sub-second trace.
    let smoke = std::env::var("FLEXIQ_SMOKE").is_ok_and(|v| v != "0");
    if smoke {
        println!("FLEXIQ_SMOKE set: running the short CI trace");
    }

    // ── 1. Prepare a real runtime on a small zoo model ───────────────
    println!("preparing RNet20 (test scale): calibrate → select → layout → runtime...");
    let id = ModelId::RNet20;
    let graph = id.build(Scale::Test).unwrap();
    let calib = gen_image_inputs(8, &id.input_dims(Scale::Test), 93);
    let prepared = prepare(&graph, &calib, &FlexiQConfig::new(4, Strategy::Greedy)).unwrap();
    let runtime = Arc::new(prepared.runtime);
    let ratios = runtime.schedule().ratios.clone();

    // ── 2. Probe this machine's real INT8 serving capacity ───────────
    // A closed loop against a fixed-level server measures what the full
    // stack (queue + batcher + workers + reply channels) sustains —
    // a bare single-thread infer loop would overestimate it badly.
    runtime.set_ratio(0.0).unwrap();
    for x in calib.iter().take(3) {
        let _ = runtime.infer(x).unwrap(); // warm-up
    }
    let t0 = Instant::now();
    for i in 0..10 {
        let _ = runtime.infer(&calib[i % calib.len()]).unwrap();
    }
    let t_infer = t0.elapsed().as_secs_f64() / 10.0;
    let workers = 2usize;
    // Intra-batch threads: explicit here so the smoke run always covers
    // the composed setup (2 workers × 2 pool threads, one shared pool —
    // each stacked pass fans sample cores and GEMM bands across it).
    let pool_threads = Some(2usize);
    let probe_cfg = ServeConfig {
        workers,
        pool_threads,
        max_batch: 8,
        batch_timeout: Duration::from_millis(2),
        queue_capacity: 512,
        ..Default::default()
    };
    let probe_server = Server::start_fixed(Arc::clone(&runtime), probe_cfg).unwrap();
    println!(
        "worker pool: {} workers × {} intra-batch threads (one shared pool)",
        workers,
        probe_server.pool_threads()
    );
    // Enough concurrent clients to keep batches full, enough requests
    // for ~half a second of steady state.
    let probe_clients = 4 * probe_server.config().max_batch;
    let probe_budget = if smoke { 0.15 } else { 0.8 };
    let probe_total =
        ((probe_budget / t_infer) as usize).clamp(if smoke { 64 } else { 400 }, 16_000);
    let probe = flexiq::serve::closed_loop(
        &probe_server,
        &calib,
        probe_clients,
        probe_total / probe_clients,
    );
    probe_server.shutdown();
    let capacity_rps = probe.throughput_rps();
    println!(
        "measured INT8 inference: {:.2} ms;  probed serving capacity: {:.0} rps ({} workers)",
        t_infer * 1e3,
        capacity_rps,
        workers
    );

    // ── 3. Start the adaptive server ─────────────────────────────────
    let target = Duration::from_secs_f64((6.0 * t_infer).max(0.02));
    let cfg = ServeConfig {
        workers,
        pool_threads,
        max_batch: 8,
        batch_timeout: Duration::from_millis(2),
        queue_capacity: 512,
        default_deadline: Some(Duration::from_secs(2)),
        // Trace a deterministic fraction of requests end to end:
        // sampled requests record telemetry spans for their whole batch
        // even with global telemetry off, feeding the per-level
        // attribution and the Chrome trace written at the end. The full
        // trace offers tens of thousands of requests, and span rings
        // drop newest once full — sample sparsely so the retained spans
        // cover the whole burst, not just its first second.
        trace_sample_rate: if smoke { 0.1 } else { 0.005 },
        control: ControlConfig {
            target,
            percentile: 0.95,
            window: Duration::from_millis(500),
            down_margin: 0.5,
            min_samples: 8,
            tick: Duration::from_millis(10),
            hold: Duration::from_millis(150),
        },
        ..Default::default()
    };
    println!(
        "controller: raise 4-bit ratio while measured p95 > {:.1} ms (window 500 ms)\n",
        target.as_secs_f64() * 1e3
    );
    let server = Server::start_adaptive(Arc::clone(&runtime), cfg).unwrap();

    // ── 4. A bursty open-loop trace: calm → 1.8× capacity → calm ─────
    let seg_scale = if smoke { 0.2 } else { 1.0 };
    let segments = [
        (1.2f64 * seg_scale, 0.5 * capacity_rps),
        (1.5 * seg_scale, 1.8 * capacity_rps),
        (1.8 * seg_scale, 0.4 * capacity_rps),
    ];
    let arrivals = piecewise_poisson(&segments, 4242);
    println!(
        "trace: {} requests over {:.1} s  (burst: {:.0} rps ≈ 1.8× capacity)",
        arrivals.len(),
        segments.iter().map(|s| s.0).sum::<f64>(),
        segments[1].1
    );

    // ── 5. Live monitor: measured p95 / queue depth / level ──────────
    println!("\n   t      p95(win)   queue  rejected  level");
    let stop = Arc::new(AtomicBool::new(false));
    let monitor = {
        let stop = Arc::clone(&stop);
        let runtime = Arc::clone(&runtime);
        let metrics_start = server.metrics().started_at();
        let server_metrics = server.metrics_handle();
        let ratios = ratios.clone();
        std::thread::spawn(move || {
            while !stop.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_millis(250));
                let snap = server_metrics.snapshot();
                let p95 = server_metrics
                    .window
                    .percentile_s(Instant::now(), 0.95)
                    .map(|(_, p)| p * 1e3)
                    .unwrap_or(0.0);
                println!(
                    "{:5.2}s  {:8.1}ms  {:5}  {:8}  {}",
                    metrics_start.elapsed().as_secs_f64(),
                    p95,
                    snap.queue_depth,
                    snap.rejected,
                    level_name(runtime.level(), &ratios),
                );
            }
        })
    };

    let report = open_loop(&server, &calib, &arrivals, 1.0);

    // Let the queue drain and the controller step back down.
    std::thread::sleep(Duration::from_millis(if smoke { 400 } else { 1200 }));
    stop.store(true, Ordering::Release);
    monitor.join().unwrap();

    // ── 6. Report ────────────────────────────────────────────────────
    let trace = server.metrics().level_trace();
    let metrics = server.metrics_handle();
    let snap = server.shutdown();
    println!("\nlevel-switch trace (each switch with the observation that caused it):");
    for s in &trace {
        println!(
            "  t={:6.2}s  → {:<11}  p95(win) {:7.1} ms over {:4} samples  state {}",
            s.at_s,
            level_name(s.level, &ratios),
            s.percentile_s * 1e3,
            s.samples,
            s.state.name()
        );
    }
    if trace.is_empty() {
        println!("  (no switches — burst did not exceed the latency target)");
    }

    println!(
        "\nload report:   offered {}  accepted {}  rejected {}  completed {}  expired {}",
        report.offered, report.accepted, report.rejected, report.completed, report.expired
    );
    println!(
        "histograms:    p50 {:.1} ms   p95 {:.1} ms   p99 {:.1} ms   mean {:.1} ms",
        snap.p50_s * 1e3,
        snap.p95_s * 1e3,
        snap.p99_s * 1e3,
        snap.mean_s * 1e3
    );
    println!(
        "throughput:    {:.0} completed rps over {:.1} s  (mean batch {:.1}, {} batches)",
        snap.throughput_rps, report.wall_s, snap.mean_batch, snap.batches
    );
    println!(
        "queue delay:   p95 {:.1} ms;   level switches: {}",
        snap.queue_delay_p95_s * 1e3,
        snap.level_switches
    );

    let burst_up = trace.iter().any(|s| s.level != LEVEL_INT8);
    let recovered = trace.last().is_none_or(|s| s.level == LEVEL_INT8);
    println!(
        "\nadaptive behaviour: raised during burst: {burst_up};  recovered to INT8: {recovered}"
    );

    // ── 7. Telemetry: per-level attribution + sampled Chrome trace ───
    // Sampled requests (trace_sample_rate) recorded spans for their
    // batches; join those node spans against the level-switch trace to
    // show where model time actually went, per ratio level.
    let threads = flexiq::telemetry::drain();
    let spans: usize = threads.iter().map(|t| t.spans.len()).sum();
    let dropped: u64 = threads.iter().map(|t| t.dropped).sum();
    if dropped > 0 {
        println!("\n({dropped} spans dropped — ring full; attribution covers the retained prefix)");
    }
    // The adaptive server started at INT8 (step 2 set ratio 0).
    let attr = metrics.level_attribution(&threads, LEVEL_INT8);
    let total_ns: u64 = attr.iter().map(|a| a.node_ns).sum();
    println!("\nper-level attribution (from {spans} sampled spans):");
    println!("  level        node time   spans   share");
    for a in &attr {
        println!(
            "  {:<11}  {:8.2} ms  {:6}  {:5.1}%",
            level_name(a.level, &ratios),
            a.node_ns as f64 / 1e6,
            a.spans,
            100.0 * a.node_ns as f64 / total_ns.max(1) as f64
        );
    }
    if attr.is_empty() {
        println!("  (no sampled spans — the short trace sampled no batch)");
    }
    let trace_path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results/live_serving_trace.json");
    match flexiq::telemetry::chrome::write_trace(&trace_path, &threads) {
        Ok(()) => println!("[written {}]", trace_path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", trace_path.display()),
    }
}
