//! Prometheus text-exposition rendering for the global counters.
//!
//! The serve crate appends this to its own `MetricsHub` exposition so a
//! scrape (or a human) sees runtime-internal counters — workspace
//! growth, scratch-pool traffic, pool busy/idle, GEMM volume — next to
//! the request-level histograms. Format follows the Prometheus text
//! format v0.0.4: `# HELP` / `# TYPE` comment pairs then one sample per
//! line.

use std::fmt::Write as _;

use crate::CountersSnapshot;

/// One metric: name, help text, kind, value.
fn sample(out: &mut String, name: &str, help: &str, kind: &str, value: u64) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
    let _ = writeln!(out, "{name} {value}");
}

/// Renders the telemetry counters as Prometheus text exposition.
pub fn render(c: &CountersSnapshot) -> String {
    let mut out = String::with_capacity(2048);
    sample(
        &mut out,
        "flexiq_workspace_buf_growth_total",
        "Workspace Buf growth events (0 in steady state).",
        "counter",
        c.ws_buf_growth,
    );
    sample(
        &mut out,
        "flexiq_scratch_takes_total",
        "Kernel scratch-pool buffer takes.",
        "counter",
        c.scratch_takes,
    );
    sample(
        &mut out,
        "flexiq_scratch_puts_total",
        "Kernel scratch-pool buffer returns.",
        "counter",
        c.scratch_puts,
    );
    sample(
        &mut out,
        "flexiq_pool_tasks_total",
        "Tasks executed by the shared thread pool.",
        "counter",
        c.pool_tasks,
    );
    sample(
        &mut out,
        "flexiq_pool_busy_nanoseconds_total",
        "Nanoseconds pool participants spent inside task bodies.",
        "counter",
        c.pool_busy_ns,
    );
    sample(
        &mut out,
        "flexiq_pool_idle_nanoseconds_total",
        "Nanoseconds pool helpers spent parked waiting for work.",
        "counter",
        c.pool_idle_ns,
    );
    sample(
        &mut out,
        "flexiq_gemm_calls_total",
        "Kernel GEMM invocations.",
        "counter",
        c.gemm_calls,
    );
    sample(
        &mut out,
        "flexiq_gemm_madds_total",
        "Multiply-adds issued by kernel GEMMs.",
        "counter",
        c.gemm_madds,
    );
    sample(
        &mut out,
        "flexiq_gemm_packed_bytes_total",
        "Estimated bytes staged through packed GEMM panels.",
        "counter",
        c.gemm_packed_bytes,
    );
    // One labeled family for the per-ISA dispatch counters, so a scrape
    // can attribute GEMM volume to the kernel path that produced it.
    let _ = writeln!(
        out,
        "# HELP flexiq_gemm_isa_calls_total GEMM calls by dispatched kernel ISA."
    );
    let _ = writeln!(out, "# TYPE flexiq_gemm_isa_calls_total counter");
    for (isa, v) in [
        ("avx2", c.gemm_isa_avx2),
        ("avxvnni", c.gemm_isa_vnni),
        ("scalar", c.gemm_isa_scalar),
    ] {
        let _ = writeln!(out, "flexiq_gemm_isa_calls_total{{isa=\"{isa}\"}} {v}");
    }
    // One labeled family for prepacked-weight cache traffic: hits serve
    // panels straight from the cache, misses paid a build.
    let _ = writeln!(
        out,
        "# HELP flexiq_pack_cache_events_total Prepacked-weight cache lookups by outcome."
    );
    let _ = writeln!(out, "# TYPE flexiq_pack_cache_events_total counter");
    for (event, v) in [("hit", c.pack_cache_hits), ("miss", c.pack_cache_misses)] {
        let _ = writeln!(
            out,
            "flexiq_pack_cache_events_total{{event=\"{event}\"}} {v}"
        );
    }
    sample(
        &mut out,
        "flexiq_pack_cache_bytes_total",
        "Bytes built into prepacked-weight cache entries.",
        "counter",
        c.pack_cache_bytes,
    );
    sample(
        &mut out,
        "flexiq_decode_steps_total",
        "Fused decode passes run (prefills and decode steps).",
        "counter",
        c.decode_steps,
    );
    sample(
        &mut out,
        "flexiq_decode_tokens_total",
        "Tokens pushed through the decode walker.",
        "counter",
        c.decode_tokens,
    );
    sample(
        &mut out,
        "flexiq_kv_cache_bytes_total",
        "Bytes appended to quantized K/V decode caches.",
        "counter",
        c.kv_cache_bytes,
    );
    sample(
        &mut out,
        "flexiq_faults_injected_total",
        "Faults fired by the seeded fault-injection framework.",
        "counter",
        c.faults_injected,
    );
    sample(
        &mut out,
        "flexiq_worker_respawns_total",
        "Serve worker threads respawned by the supervisor.",
        "counter",
        c.worker_respawns,
    );
    sample(
        &mut out,
        "flexiq_scheduler_respawns_total",
        "Decode scheduler restarts after a caught panic.",
        "counter",
        c.scheduler_respawns,
    );
    sample(
        &mut out,
        "flexiq_telemetry_spans_dropped_total",
        "Telemetry spans lost to ring-buffer exhaustion.",
        "counter",
        c.spans_dropped,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_emits_help_type_and_value_lines() {
        let c = CountersSnapshot {
            gemm_calls: 7,
            pool_tasks: 3,
            gemm_isa_avx2: 5,
            gemm_isa_vnni: 6,
            pack_cache_hits: 11,
            pack_cache_bytes: 4096,
            decode_steps: 9,
            decode_tokens: 42,
            kv_cache_bytes: 1536,
            faults_injected: 2,
            worker_respawns: 1,
            scheduler_respawns: 1,
            ..Default::default()
        };
        let text = render(&c);
        assert!(text.contains("# HELP flexiq_gemm_calls_total"));
        assert!(text.contains("# TYPE flexiq_gemm_calls_total counter"));
        assert!(text.contains("\nflexiq_gemm_calls_total 7\n"));
        assert!(text.contains("\nflexiq_pool_tasks_total 3\n"));
        assert!(text.contains("\nflexiq_gemm_isa_calls_total{isa=\"avx2\"} 5\n"));
        assert!(text.contains("\nflexiq_gemm_isa_calls_total{isa=\"avxvnni\"} 6\n"));
        assert!(text.contains("\nflexiq_gemm_isa_calls_total{isa=\"scalar\"} 0\n"));
        assert!(text.contains("\nflexiq_pack_cache_events_total{event=\"hit\"} 11\n"));
        assert!(text.contains("\nflexiq_pack_cache_events_total{event=\"miss\"} 0\n"));
        assert!(text.contains("\nflexiq_pack_cache_bytes_total 4096\n"));
        assert!(text.contains("\nflexiq_decode_steps_total 9\n"));
        assert!(text.contains("\nflexiq_decode_tokens_total 42\n"));
        assert!(text.contains("\nflexiq_kv_cache_bytes_total 1536\n"));
        assert!(text.contains("\nflexiq_faults_injected_total 2\n"));
        assert!(text.contains("\nflexiq_worker_respawns_total 1\n"));
        assert!(text.contains("\nflexiq_scheduler_respawns_total 1\n"));
        // Every sample line is `name[{labels}] value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let mut parts = line.split_whitespace();
            assert!(parts.next().unwrap().starts_with("flexiq_"));
            parts.next().unwrap().parse::<u64>().unwrap();
            assert!(parts.next().is_none());
        }
    }
}
