//! Autoregressive decode sweep (ISSUE 9): continuous batching vs.
//! static (drain-then-refill) batching on an open-loop generation trace.
//!
//! Builds the TinyLm runtime at eval scale with the quantized KV cache
//! (Int execution, mixed effective-bit spec — 4-bit bands carved from
//! the live 8-bit rows), synthesizes a trace of generation requests
//! with short prompts and widely mixed per-request token budgets
//! (completion times diverge hard, as they do in real serving), and
//! times two schedulers over the same trace:
//!
//! * **static** — [`flexiq_serve::DecodeServer`] with `continuous:
//!   false`: classic padded batching. The drafted batch steps at full
//!   width until its slowest member finishes; early finishers ride
//!   along as discarded pad rows, burning slots on work nobody reads.
//! * **continuous** — the same server with `continuous: true`: every
//!   fused step, slots freed by finished sessions are refilled from the
//!   admission queue, so the fused width (the `m` of every per-step
//!   linear, exactly the regime the prepacked-weight cache serves)
//!   stays high for the whole trace.
//!
//! Outputs are verified identical before timing — each request's token
//! stream must equal its offline solo greedy decode under both
//! schedulers — so the speedup can never come from changed or skipped
//! work. Prints tokens/sec for both schedulers and TTFT p50/p95 under
//! the continuous scheduler (CSV under `results/`).
//!
//! **Floor** ([`floors`], the only place it is stated): continuous must
//! reach [`MIN_SPEEDUP`]× static in tokens/sec, the trace must have
//! generated tokens, and the TTFT percentiles must be coherent. The
//! binary exits 1 on a miss — CI reads the exit code.
//!
//! `FLEXIQ_BENCH_REPS` overrides the auto-calibrated repetition count.

use std::sync::Arc;
use std::time::{Duration, Instant};

use flexiq_bench::{f2, ResultTable};
use flexiq_core::pipeline::{prepare, FlexiQConfig};
use flexiq_core::selection::Strategy;
use flexiq_core::FlexiRuntime;
use flexiq_nn::data::{gen_token_stream, lm_sequences};
use flexiq_nn::kv::KvSpec;
use flexiq_nn::qexec::{ExecMode, QuantExecOptions};
use flexiq_nn::zoo::{ModelId, Scale, TinyLmCfg};
use flexiq_serve::{DecodeConfig, DecodeServer};
use flexiq_tensor::rng::seeded;
use flexiq_tensor::Tensor;
use rand::Rng;

const REQUESTS: usize = 48;
const MAX_ACTIVE: usize = 8;
const MAX_NEW: usize = 14;
/// The floor: continuous-over-static tokens/sec.
const MIN_SPEEDUP: f64 = 1.2;

/// What the sweep measured, as the floor sees it.
struct Measured {
    static_tok_s: f64,
    continuous_tok_s: f64,
    tokens: usize,
    ttft_p50_ms: f64,
    ttft_p95_ms: f64,
}

impl Measured {
    fn speedup(&self) -> f64 {
        self.continuous_tok_s / self.static_tok_s
    }
}

/// The floor, stated once. Returns one message per miss — empty means
/// pass.
fn floors(m: &Measured) -> Vec<String> {
    let mut misses = Vec::new();
    let speedup = m.speedup();
    // Stated as the pass condition so a NaN reading is a miss.
    let fast_enough = speedup >= MIN_SPEEDUP;
    if !fast_enough {
        misses.push(format!(
            "continuous batching {speedup:.2}x static ({:.0} vs {:.0} tok/s), floor {MIN_SPEEDUP}x",
            m.continuous_tok_s, m.static_tok_s
        ));
    }
    if m.tokens == 0 {
        misses.push("the trace generated no tokens — the throughput is vacuous".into());
    }
    let coherent = m.ttft_p50_ms > 0.0 && m.ttft_p50_ms <= m.ttft_p95_ms;
    if !coherent {
        misses.push(format!(
            "TTFT percentiles incoherent: p50 {:.3} ms, p95 {:.3} ms",
            m.ttft_p50_ms, m.ttft_p95_ms
        ));
    }
    misses
}

fn config(continuous: bool) -> DecodeConfig {
    DecodeConfig {
        max_active: MAX_ACTIVE,
        max_new_tokens: MAX_NEW,
        continuous,
        batch_timeout: Duration::from_millis(1),
        ..DecodeConfig::default()
    }
}

/// Serves the whole trace once; returns each request's token stream,
/// its TTFT, and the total tokens generated.
fn serve_trace(
    rt: &Arc<FlexiRuntime>,
    prompts: &[Tensor],
    bounds: &[usize],
    continuous: bool,
) -> (Vec<Vec<u32>>, Vec<Duration>, usize) {
    let server = DecodeServer::start(Arc::clone(rt), config(continuous)).expect("start server");
    let tickets: Vec<_> = prompts
        .iter()
        .zip(bounds)
        .map(|(p, &b)| server.submit_bounded(p.clone(), b).expect("submit"))
        .collect();
    let mut streams = Vec::with_capacity(prompts.len());
    let mut ttfts = Vec::with_capacity(prompts.len());
    let mut tokens = 0usize;
    for t in tickets {
        let resp = t.wait().expect("generation");
        tokens += resp.tokens.len();
        ttfts.push(resp.ttft);
        streams.push(resp.tokens);
    }
    server.shutdown();
    (streams, ttfts, tokens)
}

/// The offline oracle: one solo session per request, no batching.
fn solo_stream(rt: &FlexiRuntime, prompt: &Tensor, max_new: usize) -> Vec<u32> {
    let argmax = |row: &Tensor| -> usize {
        let d = row.data();
        let mut best = 0usize;
        for (i, &v) in d.iter().enumerate() {
            if v > d[best] {
                best = i;
            }
        }
        best
    };
    let (mut s, first, _) = rt.decode_start(prompt).expect("prefill");
    let mut toks = vec![argmax(&first) as u32];
    let room = s.context() - s.pos();
    for _ in 0..room.min(max_new - 1) {
        let (row, _) = rt
            .decode_step(&mut s, *toks.last().unwrap() as f32)
            .expect("step");
        toks.push(argmax(&row) as u32);
    }
    toks
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    let idx = ((p / 100.0) * (sorted_ms.len() - 1) as f64).round() as usize;
    sorted_ms[idx]
}

fn main() {
    let cfg = TinyLmCfg::at(Scale::Eval);
    println!("preparing TinyLm (eval scale) for the decode sweep...");
    let graph = ModelId::TinyLm.build(Scale::Eval).unwrap();
    let seqs = lm_sequences(
        &gen_token_stream(cfg.vocab, (REQUESTS + 8) * cfg.context, 0xDECA),
        cfg.context,
    );
    let prepared = prepare(&graph, &seqs[..8], &FlexiQConfig::new(4, Strategy::Greedy)).unwrap();
    let rt = prepared
        .runtime
        .with_exec_options(QuantExecOptions {
            mode: ExecMode::Int,
            ..Default::default()
        })
        .with_kv_spec(KvSpec::mixed(2, 0.5));
    rt.set_level(rt.num_levels() - 1).unwrap();
    rt.prewarm_levels().unwrap();
    let rt = Arc::new(rt);

    // Short prompts (prefill cost, identical across schedulers, stays
    // small — and pad rows always have context room) with widely mixed
    // per-request token budgets: finish times diverge, which is exactly
    // what fills the static scheduler's batches with padding.
    let mut rng = seeded(0xDECB);
    let prompts: Vec<Tensor> = (0..REQUESTS)
        .map(|i| {
            let len = rng.gen_range(2..=3);
            seqs[8 + (i % (seqs.len() - 8))].slice_axis0(len).unwrap()
        })
        .collect();
    let bounds: Vec<usize> = (0..REQUESTS).map(|_| rng.gen_range(2..=MAX_NEW)).collect();

    // Correctness first: both schedulers must reproduce the offline solo
    // streams exactly — continuous batching may change *when* a token is
    // computed, never *which* token. Also the warm-up.
    let (cont_streams, _, tokens) = serve_trace(&rt, &prompts, &bounds, true);
    let (stat_streams, _, _) = serve_trace(&rt, &prompts, &bounds, false);
    for (i, prompt) in prompts.iter().enumerate() {
        let want = solo_stream(&rt, prompt, bounds[i]);
        assert_eq!(cont_streams[i], want, "continuous stream {i} diverged");
        assert_eq!(stat_streams[i], want, "static stream {i} diverged");
    }
    println!("[schedulers agree with the solo oracle on all {REQUESTS} streams]");

    // Calibrate repetitions off one static run (the slower scheduler).
    let t0 = Instant::now();
    serve_trace(&rt, &prompts, &bounds, false);
    let once = t0.elapsed().as_secs_f64();
    let reps = std::env::var("FLEXIQ_BENCH_REPS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .map(|r| r.max(1))
        .unwrap_or_else(|| ((0.5 / once.max(1e-6)) as usize).clamp(3, 200));

    let time_sched = |continuous: bool| -> (f64, Vec<Duration>) {
        let mut total = 0.0f64;
        let mut ttfts = Vec::new();
        for _ in 0..reps {
            let t0 = Instant::now();
            let (_, t, _) = serve_trace(&rt, &prompts, &bounds, continuous);
            total += t0.elapsed().as_secs_f64();
            ttfts = t;
        }
        (total / reps as f64, ttfts)
    };
    let (stat_s, _) = time_sched(false);
    let (cont_s, cont_ttfts) = time_sched(true);
    let mut ttft_ms: Vec<f64> = cont_ttfts.iter().map(|d| d.as_secs_f64() * 1e3).collect();
    ttft_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let m = Measured {
        static_tok_s: tokens as f64 / stat_s,
        continuous_tok_s: tokens as f64 / cont_s,
        tokens,
        ttft_p50_ms: percentile(&ttft_ms, 50.0),
        ttft_p95_ms: percentile(&ttft_ms, 95.0),
    };

    let mut table = ResultTable::new(
        "Decode: continuous vs static batching over the generation trace",
        &["scheduler", "trace_ms", "tok_s", "speedup"],
    );
    table.row(vec![
        "static".into(),
        f2(stat_s * 1e3),
        f2(m.static_tok_s),
        "1.00".into(),
    ]);
    table.row(vec![
        "continuous".into(),
        f2(cont_s * 1e3),
        f2(m.continuous_tok_s),
        f2(m.speedup()),
    ]);
    table.emit("decode_batching");
    println!(
        "decode trace ({reps} reps, {tokens} tokens): static {:.1} tok/s, continuous {:.1} tok/s, \
         speedup {:.2}x (TTFT p50 {:.3} ms, p95 {:.3} ms)",
        m.static_tok_s,
        m.continuous_tok_s,
        m.speedup(),
        m.ttft_p50_ms,
        m.ttft_p95_ms
    );

    let misses = floors(&m);
    for miss in &misses {
        eprintln!("FAIL: {miss}");
    }
    if !misses.is_empty() {
        std::process::exit(1);
    }
    println!("decode sweep PASS (continuous >= {MIN_SPEEDUP}x static)");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn measured(speedup: f64) -> Measured {
        Measured {
            static_tok_s: 1000.0,
            continuous_tok_s: 1000.0 * speedup,
            tokens: 240,
            ttft_p50_ms: 0.8,
            ttft_p95_ms: 2.4,
        }
    }

    #[test]
    fn doctored_decode_regression_fails() {
        assert!(floors(&measured(1.5)).is_empty());
        // At the factor exactly: pass.
        assert!(floors(&measured(MIN_SPEEDUP)).is_empty());
        // Continuous batching losing its edge over static: the
        // regression this floor exists for.
        let misses = floors(&measured(1.05));
        assert_eq!(misses.len(), 1);
        assert!(misses[0].contains("1.05x"), "{misses:?}");
        assert_eq!(floors(&measured(f64::NAN)).len(), 1);
        // A trace that generated nothing cannot vouch for throughput.
        let empty = Measured {
            tokens: 0,
            ..measured(1.5)
        };
        assert_eq!(floors(&empty).len(), 1);
        // Incoherent TTFT percentiles (p50 > p95) fail.
        let crossed = Measured {
            ttft_p50_ms: 5.0,
            ttft_p95_ms: 2.0,
            ..measured(1.5)
        };
        assert_eq!(floors(&crossed).len(), 1);
    }
}
