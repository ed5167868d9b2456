//! CI bench gate: re-derives the perf acceptance criteria from the
//! `BENCH_*.json` artifacts and fails (exit 1) on any regression.
//!
//! Run after `exp_batch_scaling`, `exp_varlen`, `exp_gemm`,
//! `exp_telemetry`, `exp_decode` and `exp_fault`:
//!
//! ```text
//! cargo run --release -p flexiq-bench --bin bench_check
//! ```
//!
//! The criteria live in [`flexiq_bench::gate`] (and are unit-tested
//! there, including on doctored regressions): batched N=16 per-sample
//! latency below sequential and below N=1; 4-thread total below 1-thread
//! on multi-core runners; bucketed padded batching below shape-group
//! splitting on the mixed-length LM trace; blocked+packed GEMM kernels
//! at least their gated factor over the naive reference, and (AVX2)
//! the dense low-band tile at least 1.3× over the i8 pair tile; full span
//! tracing within its declared overhead budget; continuous-batching
//! decode at least its gated factor over static batching in tokens/sec;
//! goodput under the fixed fault schedule at least its gated fraction
//! of the fault-free rate with zero hung tickets, bounded recovery and
//! a disarmed fault framework within its overhead budget.
//! A missing or malformed artifact fails the gate — silence is the
//! failure mode this bin exists to remove.

use std::path::PathBuf;

use flexiq_bench::gate::run_gate;

fn main() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let read = |name: &str| -> Option<String> { std::fs::read_to_string(root.join(name)).ok() };
    let (checks, all_pass) = run_gate(
        read("BENCH_batch.json").as_deref(),
        read("BENCH_parallel.json").as_deref(),
        read("BENCH_varlen.json").as_deref(),
        read("BENCH_gemm.json").as_deref(),
        read("BENCH_telemetry.json").as_deref(),
        read("BENCH_decode.json").as_deref(),
        read("BENCH_fault.json").as_deref(),
    );
    println!("bench gate: {} checks", checks.len());
    for c in &checks {
        println!(
            "  [{}] {} ({})",
            if c.pass { "PASS" } else { "FAIL" },
            c.name,
            c.detail
        );
    }
    if !all_pass {
        eprintln!("bench gate FAILED: a benchmark criterion regressed (see above)");
        std::process::exit(1);
    }
    println!("bench gate passed");
}
