//! Performance gate over the `BENCH_*.json` artifacts (`bench_check`).
//!
//! CI has always *run* the scaling sweeps but never read their numbers —
//! a perf regression that still exited 0 (or a sweep quietly downgraded
//! to unenforced) would merge silently. The gate re-derives the
//! acceptance criteria from the emitted JSON, so the check is decoupled
//! from the bench binaries' own exit codes and can be re-run on archived
//! artifacts:
//!
//! * `BENCH_batch.json` — batched N=16 per-sample latency must beat both
//!   the sequential per-sample baseline and the N=1 stacked pass, per
//!   level (batching must amortize).
//! * `BENCH_parallel.json` — on multi-core runners (`enforced: true`),
//!   the 4-thread N=16 total must beat 1-thread, per level.
//! * `BENCH_varlen.json` — bucketed padded batching must beat exact
//!   shape-group splitting on the mixed-length LM trace, per level.
//! * `BENCH_gemm.json` — the blocked, packed kernels must beat the naive
//!   reference loops by each gated shape's `min_speedup` factor; ungated
//!   shapes are informational. The artifact also records the dispatched
//!   kernel `isa` (avx2 / neon / scalar), and when a SIMD ISA ran, some
//!   gated shape must carry the SIMD-tier factor (≥ 2.5×) — a sweep that
//!   detected AVX2/NEON but only enforced the scalar 1.5× tier would
//!   silently under-gate. The same artifact carries the **prepacked**
//!   sweep ([`check_prepacked`]) on the i8 linear shapes: the
//!   ahead-of-time packed weight band must never lose to per-call
//!   packing, and must clear the 1.3× tier on the decode-step linear.
//!   And the **low-band** sweep ([`check_low_bands`]): where the dense
//!   nibble-range tile exists (AVX2), the fused low-band call on
//!   `[-8, 7]` operands must beat the same call on full-range i8
//!   operands by 1.3× on every conv band shape; on other ISAs both runs
//!   share one tile and the check reports `skipped: isa`.
//! * `BENCH_telemetry.json` — full span tracing must cost at most its
//!   declared `max_overhead_pct` over the untraced batch-16 pass, and
//!   the traced pass must actually record spans.
//! * `BENCH_decode.json` — continuous batching must beat static
//!   (drain-then-refill) batching by the declared `min_speedup` factor
//!   in tokens/sec on the decode trace, the trace must actually have
//!   generated tokens, and the artifact may not weaken the gate factor
//!   below the repo's floor (`DECODE_MIN_SPEEDUP`).
//! * `BENCH_fault.json` — under the fixed fault schedule the server
//!   must keep at least `min_goodput_ratio` of its fault-free goodput
//!   (floor `FAULT_MIN_GOODPUT_RATIO`), no ticket may hang, the
//!   schedule must actually have fired, the fleet must recover within
//!   its disarm budget, and the disarmed fault framework must cost at
//!   most `max_overhead_pct` (floor `FAULT_MAX_OVERHEAD_PCT`).

use crate::json::Json;

/// One named pass/fail criterion derived from a bench artifact.
#[derive(Debug, Clone)]
pub struct GateCheck {
    /// Human-readable criterion, e.g. `batch[int8]: N=16 < sequential`.
    pub name: String,
    /// Whether the artifact satisfies it.
    pub pass: bool,
    /// The numbers behind the verdict.
    pub detail: String,
}

impl GateCheck {
    fn new(name: impl Into<String>, pass: bool, detail: impl Into<String>) -> Self {
        GateCheck {
            name: name.into(),
            pass,
            detail: detail.into(),
        }
    }
}

fn levels_of<'j>(doc: &'j Json, file: &str) -> Result<&'j [Json], String> {
    doc.get("levels")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{file}: missing \"levels\" array"))
}

fn level_name(level: &Json) -> &str {
    level.get("level").and_then(Json::as_str).unwrap_or("?")
}

/// Finds the point with `key == want` in a level's `points` array and
/// reads `field` from it.
fn point_field(level: &Json, key: &str, want: f64, field: &str) -> Option<f64> {
    level
        .get("points")?
        .as_arr()?
        .iter()
        .find(|p| p.num(key) == Some(want))?
        .num(field)
}

/// Criteria over `BENCH_batch.json`: batching must amortize per-sample
/// cost at N=16, against both the sequential baseline and N=1.
pub fn check_batch(doc: &Json) -> Result<Vec<GateCheck>, String> {
    let mut checks = Vec::new();
    for level in levels_of(doc, "BENCH_batch.json")? {
        let name = level_name(level);
        let n16 = point_field(level, "batch", 16.0, "per_sample_ms")
            .ok_or_else(|| format!("batch[{name}]: no N=16 point"))?;
        let n1 = point_field(level, "batch", 1.0, "per_sample_ms")
            .ok_or_else(|| format!("batch[{name}]: no N=1 point"))?;
        let seq = level
            .num("sequential_16_per_sample_ms")
            .ok_or_else(|| format!("batch[{name}]: no sequential baseline"))?;
        checks.push(GateCheck::new(
            format!("batch[{name}]: N=16 per-sample < sequential"),
            n16 < seq,
            format!("{n16:.4} ms vs {seq:.4} ms"),
        ));
        checks.push(GateCheck::new(
            format!("batch[{name}]: N=16 per-sample < N=1"),
            n16 < n1,
            format!("{n16:.4} ms vs {n1:.4} ms"),
        ));
    }
    if checks.is_empty() {
        return Err("BENCH_batch.json: no levels".into());
    }
    Ok(checks)
}

/// Criteria over `BENCH_parallel.json`: 4 intra-batch threads must beat
/// 1 thread wherever the sweep declared itself enforceable (multi-core).
pub fn check_parallel(doc: &Json) -> Result<Vec<GateCheck>, String> {
    let enforced = doc
        .get("enforced")
        .and_then(Json::as_bool)
        .ok_or("BENCH_parallel.json: missing \"enforced\"")?;
    let mut checks = Vec::new();
    for level in levels_of(doc, "BENCH_parallel.json")? {
        let name = level_name(level);
        let t1 = point_field(level, "threads", 1.0, "total_ms")
            .ok_or_else(|| format!("parallel[{name}]: no 1-thread point"))?;
        let t4 = point_field(level, "threads", 4.0, "total_ms")
            .ok_or_else(|| format!("parallel[{name}]: no 4-thread point"))?;
        if enforced {
            checks.push(GateCheck::new(
                format!("parallel[{name}]: 4-thread total < 1-thread"),
                t4 < t1,
                format!("{t4:.3} ms vs {t1:.3} ms"),
            ));
        } else {
            checks.push(GateCheck::new(
                format!("parallel[{name}]: not enforced (single-core runner)"),
                true,
                format!("{t4:.3} ms vs {t1:.3} ms, informational"),
            ));
        }
    }
    if checks.is_empty() {
        return Err("BENCH_parallel.json: no levels".into());
    }
    Ok(checks)
}

/// Criteria over `BENCH_varlen.json`: bucketed padded batching must beat
/// per-shape-group splitting on the mixed-length trace, per level.
pub fn check_varlen(doc: &Json) -> Result<Vec<GateCheck>, String> {
    let mut checks = Vec::new();
    for level in levels_of(doc, "BENCH_varlen.json")? {
        let name = level_name(level);
        let grouped = level
            .num("grouped_total_ms")
            .ok_or_else(|| format!("varlen[{name}]: no grouped total"))?;
        let bucketed = level
            .num("bucketed_total_ms")
            .ok_or_else(|| format!("varlen[{name}]: no bucketed total"))?;
        checks.push(GateCheck::new(
            format!("varlen[{name}]: bucketed total < shape-grouped"),
            bucketed < grouped,
            format!("{bucketed:.3} ms vs {grouped:.3} ms"),
        ));
    }
    if checks.is_empty() {
        return Err("BENCH_varlen.json: no levels".into());
    }
    Ok(checks)
}

/// The SIMD-tier gate factor `exp_gemm` applies to the large int8 shape
/// when AVX2/NEON dispatched. Mirrored here so a SIMD-run artifact that
/// only carries the scalar-tier factor is rejected as under-gated.
const SIMD_MIN_SPEEDUP: f64 = 2.5;

/// Criteria over `BENCH_gemm.json`: every shape carrying a
/// `min_speedup` field must show the blocked kernel at least that factor
/// over the naive reference; shapes without one are informational. The
/// artifact must name the dispatched `isa`, and a non-scalar ISA must
/// gate at least one shape at the SIMD-tier factor.
pub fn check_gemm(doc: &Json) -> Result<Vec<GateCheck>, String> {
    let isa = doc
        .get("isa")
        .and_then(Json::as_str)
        .ok_or("BENCH_gemm.json: missing \"isa\"")?;
    let shapes = doc
        .get("shapes")
        .and_then(Json::as_arr)
        .ok_or("BENCH_gemm.json: missing \"shapes\" array")?;
    let mut checks = Vec::new();
    let mut gated = 0usize;
    let mut simd_tier = 0usize;
    for shape in shapes {
        let name = shape.get("name").and_then(Json::as_str).unwrap_or("?");
        let speedup = shape
            .num("speedup")
            .ok_or_else(|| format!("gemm[{name}]: no speedup"))?;
        match shape.num("min_speedup") {
            Some(min) => {
                gated += 1;
                if min >= SIMD_MIN_SPEEDUP {
                    simd_tier += 1;
                }
                checks.push(GateCheck::new(
                    format!("gemm[{name}]: blocked >= {min}x naive"),
                    speedup >= min,
                    format!("{speedup:.2}x"),
                ));
            }
            None => checks.push(GateCheck::new(
                format!("gemm[{name}]: informational"),
                true,
                format!("{speedup:.2}x"),
            )),
        }
    }
    if gated == 0 {
        return Err("BENCH_gemm.json: no gated shape (min_speedup)".into());
    }
    if isa != "scalar" {
        checks.push(GateCheck::new(
            format!("gemm: {isa} run gated at SIMD tier (>= {SIMD_MIN_SPEEDUP}x)"),
            simd_tier > 0,
            if simd_tier > 0 {
                format!("{simd_tier} shape(s) at the SIMD-tier factor")
            } else {
                "SIMD dispatched but only scalar-tier gates present".into()
            },
        ));
    }
    Ok(checks)
}

/// The floor `exp_gemm` applies to the decode-step linear shape, where
/// per-call packing dominates the pass. Mirrored here so an artifact
/// whose small-linear tier was quietly dropped is rejected.
const PREPACK_SMALL_MIN_SPEEDUP: f64 = 1.3;

/// Criteria over `BENCH_gemm.json`'s prepacked sweep: every shape that
/// carries `prepacked_speedup` (the i8 linears — the prepacked weight
/// band vs the same band packed per call) must reach its
/// `min_prepacked_speedup` floor, some shape must carry the field — an
/// artifact predating weight prepacking fails structurally rather than
/// passing on stale numbers — and some shape must be gated at the
/// small-linear tier, where caching the pack is the whole point.
pub fn check_prepacked(doc: &Json) -> Result<Vec<GateCheck>, String> {
    let shapes = doc
        .get("shapes")
        .and_then(Json::as_arr)
        .ok_or("BENCH_gemm.json: missing \"shapes\" array")?;
    let mut checks = Vec::new();
    let mut small_tier = 0usize;
    for shape in shapes {
        let name = shape.get("name").and_then(Json::as_str).unwrap_or("?");
        let Some(speedup) = shape.num("prepacked_speedup") else {
            continue;
        };
        let min = shape
            .num("min_prepacked_speedup")
            .ok_or_else(|| format!("gemm[{name}]: no min_prepacked_speedup"))?;
        if min >= PREPACK_SMALL_MIN_SPEEDUP {
            small_tier += 1;
        }
        checks.push(GateCheck::new(
            format!("gemm[{name}]: prepacked >= {min}x per-call"),
            speedup >= min,
            format!("{speedup:.2}x"),
        ));
    }
    if checks.is_empty() {
        return Err(
            "BENCH_gemm.json: no shape carries prepacked_speedup — artifact predates weight \
             prepacking?"
                .into(),
        );
    }
    checks.push(GateCheck::new(
        format!("gemm: small-linear prepack tier present (>= {PREPACK_SMALL_MIN_SPEEDUP}x)"),
        small_tier > 0,
        if small_tier > 0 {
            format!("{small_tier} shape(s) at the small-linear factor")
        } else {
            "no shape gated at the small-linear prepack tier".into()
        },
    ));
    Ok(checks)
}

/// The floor `exp_gemm` applies to the dense low-range tile over the i8
/// pair tile on the conv band shapes. Mirrored here so an AVX2 artifact
/// whose low-band rows lost their gate is rejected.
const LOW_BAND_MIN_SPEEDUP: f64 = 1.3;

/// Criteria over `BENCH_gemm.json`'s low-band sweep. Only AVX2 has a
/// dense low-range tile: there, every row carrying `min_speedup` must
/// reach it, some row must carry the repo floor, and a missing section
/// fails structurally. Every other ISA runs one tile for both operand
/// ranges, so the sweep cannot discriminate — one `skipped: isa` check.
pub fn check_low_bands(doc: &Json) -> Result<Vec<GateCheck>, String> {
    let isa = doc
        .get("isa")
        .and_then(Json::as_str)
        .ok_or("BENCH_gemm.json: missing \"isa\"")?;
    if isa != "avx2" {
        return Ok(vec![GateCheck::new(
            "gemm: low-band tile >= i8 pair tile",
            true,
            "skipped: isa",
        )]);
    }
    let rows = doc
        .get("low_bands")
        .and_then(Json::as_arr)
        .ok_or("BENCH_gemm.json: no \"low_bands\" — artifact predates the low-band tile?")?;
    let mut checks = Vec::new();
    let mut floor_tier = 0usize;
    for row in rows {
        let name = row.get("name").and_then(Json::as_str).unwrap_or("?");
        let speedup = row
            .num("speedup")
            .ok_or_else(|| format!("low_bands[{name}]: no speedup"))?;
        match row.num("min_speedup") {
            Some(min) => {
                if min >= LOW_BAND_MIN_SPEEDUP {
                    floor_tier += 1;
                }
                checks.push(GateCheck::new(
                    format!("low_bands[{name}]: low >= {min}x i8"),
                    speedup >= min,
                    format!("{speedup:.2}x"),
                ));
            }
            None => checks.push(GateCheck::new(
                format!("low_bands[{name}]: informational"),
                true,
                format!("{speedup:.2}x"),
            )),
        }
    }
    checks.push(GateCheck::new(
        format!("gemm: low-band rows gated at the repo floor (>= {LOW_BAND_MIN_SPEEDUP}x)"),
        floor_tier > 0,
        format!("{floor_tier} row(s) at the floor"),
    ));
    Ok(checks)
}

/// Criteria over `BENCH_telemetry.json`: with full span tracing enabled
/// the traced batch-16 pass must stay within its declared overhead
/// budget over the untraced pass, and the traced pass must actually
/// have recorded spans — an empty trace would make the overhead number
/// vacuous.
pub fn check_telemetry(doc: &Json) -> Result<Vec<GateCheck>, String> {
    let field = |name: &str| {
        doc.num(name)
            .ok_or_else(|| format!("BENCH_telemetry.json: missing \"{name}\""))
    };
    let disabled = field("disabled_ms")?;
    let enabled = field("enabled_ms")?;
    let overhead = field("overhead_pct")?;
    let max = field("max_overhead_pct")?;
    let spans = field("spans_per_pass")?;
    Ok(vec![
        GateCheck::new(
            format!("telemetry: traced overhead <= {max}%"),
            overhead <= max,
            format!("{overhead:.2}% ({enabled:.3} ms traced vs {disabled:.3} ms untraced)"),
        ),
        GateCheck::new(
            "telemetry: traced pass records spans",
            spans > 0.0,
            format!("{spans:.0} spans/pass"),
        ),
    ])
}

/// The continuous-over-static floor `exp_decode` gates its trace at.
/// Mirrored here so an artifact whose `min_speedup` was quietly lowered
/// is rejected as under-gated.
const DECODE_MIN_SPEEDUP: f64 = 1.2;

/// Criteria over `BENCH_decode.json`: continuous batching must beat the
/// static drain-then-refill baseline by the artifact's `min_speedup`
/// factor in tokens/sec, that factor may not be weakened below the
/// repo's floor, the trace must actually have generated tokens (an
/// empty trace would make the throughput numbers vacuous), and the TTFT
/// percentiles must be coherent.
pub fn check_decode(doc: &Json) -> Result<Vec<GateCheck>, String> {
    let field = |name: &str| {
        doc.num(name)
            .ok_or_else(|| format!("BENCH_decode.json: missing \"{name}\""))
    };
    let cont = field("continuous_tok_s")?;
    let stat = field("static_tok_s")?;
    let speedup = field("speedup")?;
    let min = field("min_speedup")?;
    let p50 = field("ttft_p50_ms")?;
    let p95 = field("ttft_p95_ms")?;
    let tokens = field("tokens")?;
    Ok(vec![
        GateCheck::new(
            format!("decode: continuous >= {min}x static tokens/sec"),
            speedup >= min,
            format!("{speedup:.2}x ({cont:.0} vs {stat:.0} tok/s)"),
        ),
        GateCheck::new(
            format!("decode: gate factor at the repo floor (>= {DECODE_MIN_SPEEDUP}x)"),
            min >= DECODE_MIN_SPEEDUP,
            format!("min_speedup = {min}"),
        ),
        GateCheck::new(
            "decode: trace generated tokens",
            tokens > 0.0,
            format!("{tokens:.0} tokens"),
        ),
        GateCheck::new(
            "decode: TTFT percentiles coherent",
            p50 > 0.0 && p50 <= p95,
            format!("p50 {p50:.3} ms, p95 {p95:.3} ms"),
        ),
    ])
}

/// The goodput floor `exp_fault` gates its schedule at. Mirrored here
/// so an artifact whose `min_goodput_ratio` was quietly lowered is
/// rejected as under-gated.
const FAULT_MIN_GOODPUT_RATIO: f64 = 0.7;

/// The disarmed-overhead budget `exp_fault` declares. Mirrored here so
/// an artifact that quietly inflated its own budget is rejected.
const FAULT_MAX_OVERHEAD_PCT: f64 = 1.0;

/// Criteria over `BENCH_fault.json`: under the fixed fault schedule
/// goodput must stay at or above the declared ratio of the fault-free
/// run (and that ratio may not be weakened below the repo floor), no
/// ticket may hang, the schedule must actually have fired (a zero-fault
/// run would make the ratio vacuous), the fleet must return to Ready
/// within the declared recovery budget after disarm, and the disarmed
/// fault-injection framework must stay within its declared overhead
/// budget (which may not be inflated above the repo floor).
pub fn check_fault(doc: &Json) -> Result<Vec<GateCheck>, String> {
    let field = |name: &str| {
        doc.num(name)
            .ok_or_else(|| format!("BENCH_fault.json: missing \"{name}\""))
    };
    let clean = field("goodput_clean_rps")?;
    let faulted = field("goodput_fault_rps")?;
    let ratio = field("goodput_ratio")?;
    let min_ratio = field("min_goodput_ratio")?;
    let hung = field("hung_tickets")?;
    let injected = field("faults_injected")?;
    let recovery = field("recovery_ms")?;
    let max_recovery = field("max_recovery_ms")?;
    let overhead = field("overhead_pct")?;
    let max_overhead = field("max_overhead_pct")?;
    Ok(vec![
        GateCheck::new(
            format!("fault: goodput >= {min_ratio}x fault-free"),
            ratio >= min_ratio,
            format!("{ratio:.3}x ({faulted:.1} vs {clean:.1} rps)"),
        ),
        GateCheck::new(
            format!("fault: goodput floor at the repo floor (>= {FAULT_MIN_GOODPUT_RATIO})"),
            min_ratio >= FAULT_MIN_GOODPUT_RATIO,
            format!("min_goodput_ratio = {min_ratio}"),
        ),
        GateCheck::new(
            "fault: no hung tickets",
            hung == 0.0,
            format!("{hung:.0} hung"),
        ),
        GateCheck::new(
            "fault: schedule actually fired",
            injected > 0.0,
            format!("{injected:.0} faults injected"),
        ),
        GateCheck::new(
            format!("fault: fleet recovered within {max_recovery} ms of disarm"),
            recovery.is_finite() && recovery <= max_recovery,
            format!("{recovery:.2} ms"),
        ),
        GateCheck::new(
            format!("fault: disarmed overhead <= {max_overhead}%"),
            overhead <= max_overhead,
            format!("{overhead:.2}%"),
        ),
        GateCheck::new(
            format!("fault: overhead budget at the repo floor (<= {FAULT_MAX_OVERHEAD_PCT}%)"),
            max_overhead <= FAULT_MAX_OVERHEAD_PCT,
            format!("max_overhead_pct = {max_overhead}"),
        ),
    ])
}

/// Runs every gate over artifact texts (missing file = `None` = failed
/// gate, since CI produces all seven right before the check). Returns
/// the checks and the overall verdict.
pub fn run_gate(
    batch: Option<&str>,
    parallel: Option<&str>,
    varlen: Option<&str>,
    gemm: Option<&str>,
    telemetry: Option<&str>,
    decode: Option<&str>,
    fault: Option<&str>,
) -> (Vec<GateCheck>, bool) {
    let mut checks = Vec::new();
    for (file, text, check) in [
        (
            "BENCH_batch.json",
            batch,
            check_batch as fn(&Json) -> Result<Vec<GateCheck>, String>,
        ),
        ("BENCH_parallel.json", parallel, check_parallel),
        ("BENCH_varlen.json", varlen, check_varlen),
        ("BENCH_gemm.json", gemm, check_gemm),
        ("BENCH_gemm.json", gemm, check_prepacked),
        ("BENCH_gemm.json", gemm, check_low_bands),
        ("BENCH_telemetry.json", telemetry, check_telemetry),
        ("BENCH_decode.json", decode, check_decode),
        ("BENCH_fault.json", fault, check_fault),
    ] {
        match text {
            None => checks.push(GateCheck::new(
                format!("{file}: present"),
                false,
                "artifact missing — did the sweep run?",
            )),
            Some(text) => match Json::parse(text)
                .map_err(|e| format!("{file}: {e}"))
                .and_then(|doc| check(&doc))
            {
                Ok(mut file_checks) => checks.append(&mut file_checks),
                Err(e) => checks.push(GateCheck::new(format!("{file}: parses"), false, e)),
            },
        }
    }
    let all_pass = checks.iter().all(|c| c.pass);
    (checks, all_pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch_doc(n16: f64, seq: f64) -> String {
        format!(
            "{{\"levels\": [{{\"level\": \"int8\", \"points\": [\
             {{\"batch\": 1, \"per_sample_ms\": 1.0}}, \
             {{\"batch\": 16, \"per_sample_ms\": {n16}}}], \
             \"sequential_16_per_sample_ms\": {seq}}}]}}"
        )
    }

    fn parallel_doc(enforced: bool, t1: f64, t4: f64) -> String {
        format!(
            "{{\"enforced\": {enforced}, \"levels\": [{{\"level\": \"int8\", \"points\": [\
             {{\"threads\": 1, \"total_ms\": {t1}}}, \
             {{\"threads\": 4, \"total_ms\": {t4}}}]}}]}}"
        )
    }

    fn varlen_doc(grouped: f64, bucketed: f64) -> String {
        format!(
            "{{\"levels\": [{{\"level\": \"int8\", \
             \"grouped_total_ms\": {grouped}, \"bucketed_total_ms\": {bucketed}}}]}}"
        )
    }

    fn gemm_doc(isa: &str, gated_speedup: f64, min: f64) -> String {
        gemm_doc_prepacked(isa, gated_speedup, min, 1.55, 1.3)
    }

    fn gemm_doc_prepacked(
        isa: &str,
        gated_speedup: f64,
        min: f64,
        decode_prepacked: f64,
        decode_min: f64,
    ) -> String {
        format!(
            "{{\"isa\": \"{isa}\", \"shapes\": [\
             {{\"name\": \"tinylm_linear_i8\", \"speedup\": 6.1, \
               \"prepacked_speedup\": 1.05, \"min_prepacked_speedup\": 1.0}}, \
             {{\"name\": \"tinylm_linear_decode_i8\", \"speedup\": 4.0, \
               \"prepacked_speedup\": {decode_prepacked}, \
               \"min_prepacked_speedup\": {decode_min}}}, \
             {{\"name\": \"large_i8\", \"speedup\": {gated_speedup}, \"min_speedup\": {min}}}]}}"
        )
    }

    fn telemetry_doc(overhead_pct: f64, spans: f64) -> String {
        format!(
            "{{\"disabled_ms\": 10.0, \"enabled_ms\": {:.4}, \
             \"overhead_pct\": {overhead_pct}, \"max_overhead_pct\": 3.0, \
             \"spans_per_pass\": {spans}}}",
            10.0 * (1.0 + overhead_pct / 100.0)
        )
    }

    fn fault_doc(
        ratio: f64,
        min_ratio: f64,
        hung: f64,
        injected: f64,
        recovery_ms: f64,
        overhead: f64,
        max_overhead: f64,
    ) -> String {
        format!(
            "{{\"goodput_clean_rps\": 100.0, \"goodput_fault_rps\": {:.1}, \
             \"goodput_ratio\": {ratio}, \"min_goodput_ratio\": {min_ratio}, \
             \"hung_tickets\": {hung}, \"faults_injected\": {injected}, \
             \"recovery_ms\": {recovery_ms}, \"max_recovery_ms\": 5000.0, \
             \"overhead_pct\": {overhead}, \"max_overhead_pct\": {max_overhead}}}",
            100.0 * ratio
        )
    }

    fn healthy_fault_doc() -> String {
        fault_doc(0.91, 0.7, 0.0, 42.0, 12.5, 0.2, 1.0)
    }

    fn decode_doc(speedup: f64, min: f64, tokens: f64) -> String {
        format!(
            "{{\"continuous_tok_s\": {:.1}, \"static_tok_s\": 1000.0, \
             \"speedup\": {speedup}, \"min_speedup\": {min}, \
             \"ttft_p50_ms\": 0.8, \"ttft_p95_ms\": 2.4, \
             \"tokens\": {tokens}, \"requests\": 24}}",
            1000.0 * speedup
        )
    }

    #[test]
    fn healthy_artifacts_pass() {
        let (checks, ok) = run_gate(
            Some(&batch_doc(0.4, 1.0)),
            Some(&parallel_doc(true, 10.0, 4.0)),
            Some(&varlen_doc(8.0, 3.0)),
            Some(&gemm_doc("scalar", 2.3, 1.5)),
            Some(&telemetry_doc(1.1, 120.0)),
            Some(&decode_doc(1.5, 1.2, 240.0)),
            Some(&healthy_fault_doc()),
        );
        assert!(ok, "checks: {checks:?}");
        assert_eq!(checks.len(), 24);
    }

    fn low_band_doc(isa: &str, band: f64, min: f64) -> String {
        format!(
            "{{\"isa\": \"{isa}\", \"low_bands\": [\
             {{\"name\": \"rnet20_s1_band\", \"speedup\": {band}, \"min_speedup\": {min}}}, \
             {{\"name\": \"rnet20_s1_run\", \"speedup\": 2.8, \"min_speedup\": 1.3}}, \
             {{\"name\": \"tinylm_linear_decode_band\", \"speedup\": 1.0}}]}}"
        )
    }

    #[test]
    fn low_band_gate_is_avx2_only_and_holds_its_floor() {
        // Healthy AVX2 artifact: both gated rows, the informational row,
        // the floor-present check.
        let doc = Json::parse(&low_band_doc("avx2", 1.5, 1.3)).unwrap();
        let checks = check_low_bands(&doc).unwrap();
        assert_eq!(checks.len(), 4);
        assert!(checks.iter().all(|c| c.pass), "{checks:?}");
        // The dense tile losing its edge on a band shape fails.
        let doc = Json::parse(&low_band_doc("avx2", 1.1, 1.3)).unwrap();
        assert!(!check_low_bands(&doc).unwrap()[0].pass);
        // Every other ISA: one passing check that says why.
        for isa in ["scalar", "neon"] {
            let doc = Json::parse(&low_band_doc(isa, 1.0, 1.3)).unwrap();
            let checks = check_low_bands(&doc).unwrap();
            assert_eq!(checks.len(), 1);
            assert!(checks[0].pass);
            assert_eq!(checks[0].detail, "skipped: isa");
        }
        // An AVX2 artifact without the section predates the tile.
        let doc = Json::parse("{\"isa\": \"avx2\", \"shapes\": []}").unwrap();
        assert!(check_low_bands(&doc).unwrap_err().contains("predates"));
        // Gates quietly dropped from every row fail the floor check.
        let doc = Json::parse(
            "{\"isa\": \"avx2\", \"low_bands\": [{\"name\": \"x\", \"speedup\": 0.9}]}",
        )
        .unwrap();
        assert!(!check_low_bands(&doc).unwrap().last().unwrap().pass);
    }

    #[test]
    fn doctored_batch_regression_fails() {
        // N=16 slower than sequential: the regression the gate exists for.
        let doc = Json::parse(&batch_doc(1.2, 1.0)).unwrap();
        let checks = check_batch(&doc).unwrap();
        assert!(!checks[0].pass);
        let (_, ok) = run_gate(
            Some(&batch_doc(1.2, 1.0)),
            Some(&parallel_doc(true, 10.0, 4.0)),
            Some(&varlen_doc(8.0, 3.0)),
            Some(&gemm_doc("scalar", 2.3, 1.5)),
            Some(&telemetry_doc(1.1, 120.0)),
            Some(&decode_doc(1.5, 1.2, 240.0)),
            Some(&healthy_fault_doc()),
        );
        assert!(!ok);
    }

    #[test]
    fn doctored_fault_regression_fails() {
        // Goodput collapsing under the schedule: the regression this
        // gate exists for.
        let doc = Json::parse(&fault_doc(0.55, 0.7, 0.0, 42.0, 12.5, 0.2, 1.0)).unwrap();
        let checks = check_fault(&doc).unwrap();
        assert!(!checks[0].pass, "goodput below the ratio floor must fail");
        assert!(checks[1..].iter().all(|c| c.pass));
        // At the ratio exactly: pass.
        let doc = Json::parse(&fault_doc(0.7, 0.7, 0.0, 42.0, 12.5, 0.2, 1.0)).unwrap();
        assert!(check_fault(&doc).unwrap()[0].pass);
        // A quietly weakened ratio floor fails even when the (weak)
        // goodput clears it.
        let doc = Json::parse(&fault_doc(0.6, 0.5, 0.0, 42.0, 12.5, 0.2, 1.0)).unwrap();
        let checks = check_fault(&doc).unwrap();
        assert!(checks[0].pass, "ratio clears its (weakened) gate");
        assert!(!checks[1].pass, "weakened min_goodput_ratio must fail");
        // A hung ticket is the invariant violation, never acceptable.
        let doc = Json::parse(&fault_doc(0.91, 0.7, 1.0, 42.0, 12.5, 0.2, 1.0)).unwrap();
        assert!(!check_fault(&doc).unwrap()[2].pass);
        // A schedule that never fired cannot vouch for the ratio.
        let doc = Json::parse(&fault_doc(0.91, 0.7, 0.0, 0.0, 12.5, 0.2, 1.0)).unwrap();
        assert!(!check_fault(&doc).unwrap()[3].pass);
        // Recovery beyond the declared budget fails.
        let doc = Json::parse(&fault_doc(0.91, 0.7, 0.0, 42.0, 9000.0, 0.2, 1.0)).unwrap();
        assert!(!check_fault(&doc).unwrap()[4].pass);
        // Disarmed overhead above the budget fails; an inflated budget
        // fails the repo floor even when the overhead clears it.
        let doc = Json::parse(&fault_doc(0.91, 0.7, 0.0, 42.0, 12.5, 2.5, 1.0)).unwrap();
        assert!(!check_fault(&doc).unwrap()[5].pass);
        let doc = Json::parse(&fault_doc(0.91, 0.7, 0.0, 42.0, 12.5, 2.5, 3.0)).unwrap();
        let checks = check_fault(&doc).unwrap();
        assert!(checks[5].pass, "overhead clears its (inflated) budget");
        assert!(!checks[6].pass, "inflated max_overhead_pct must fail");
        // An artifact predating the sweep fails structurally, not
        // silently on stale numbers.
        assert!(Json::parse("{\"goodput_ratio\": 0.9}")
            .map(|d| check_fault(&d).is_err())
            .unwrap_or(false));
    }

    #[test]
    fn doctored_decode_regression_fails() {
        // Continuous batching losing its edge over static: the
        // regression this gate exists for.
        let doc = Json::parse(&decode_doc(1.05, 1.2, 240.0)).unwrap();
        let checks = check_decode(&doc).unwrap();
        assert!(!checks[0].pass, "speedup below min_speedup must fail");
        // At the factor exactly: pass.
        let doc = Json::parse(&decode_doc(1.2, 1.2, 240.0)).unwrap();
        assert!(check_decode(&doc).unwrap()[0].pass);
        // A quietly weakened gate factor fails even when the (weak)
        // speedup clears it.
        let doc = Json::parse(&decode_doc(1.1, 1.05, 240.0)).unwrap();
        let checks = check_decode(&doc).unwrap();
        assert!(checks[0].pass, "shape clears its (weakened) gate");
        assert!(!checks[1].pass, "weakened min_speedup must fail the floor");
        // A trace that generated nothing cannot vouch for throughput.
        let doc = Json::parse(&decode_doc(1.5, 1.2, 0.0)).unwrap();
        assert!(!check_decode(&doc).unwrap()[2].pass);
        // Incoherent TTFT percentiles (p50 > p95) fail.
        let doc = Json::parse(
            "{\"continuous_tok_s\": 1500.0, \"static_tok_s\": 1000.0, \
             \"speedup\": 1.5, \"min_speedup\": 1.2, \
             \"ttft_p50_ms\": 5.0, \"ttft_p95_ms\": 2.0, \
             \"tokens\": 240, \"requests\": 24}",
        )
        .unwrap();
        assert!(!check_decode(&doc).unwrap()[3].pass);
        // An artifact predating the decode bench fails structurally.
        assert!(Json::parse("{\"tokens\": 240}")
            .map(|d| check_decode(&d).is_err())
            .unwrap_or(false));
    }

    #[test]
    fn doctored_telemetry_regression_fails() {
        // Overhead above the declared budget: the regression this gate
        // exists for.
        let doc = Json::parse(&telemetry_doc(7.5, 120.0)).unwrap();
        let checks = check_telemetry(&doc).unwrap();
        assert!(!checks[0].pass, "overhead above budget must fail");
        assert!(checks[1].pass);
        // At the budget exactly: pass.
        let doc = Json::parse(&telemetry_doc(3.0, 120.0)).unwrap();
        assert!(check_telemetry(&doc).unwrap()[0].pass);
        // A traced pass that recorded nothing cannot vouch for the
        // overhead number.
        let doc = Json::parse(&telemetry_doc(1.0, 0.0)).unwrap();
        assert!(!check_telemetry(&doc).unwrap()[1].pass);
        // Structurally missing fields fail.
        assert!(Json::parse("{\"disabled_ms\": 1.0}")
            .map(|d| check_telemetry(&d).is_err())
            .unwrap_or(false));
    }

    #[test]
    fn doctored_gemm_regression_fails_only_on_gated_shapes() {
        // Gated shape below its factor: fail.
        let doc = Json::parse(&gemm_doc("scalar", 1.2, 1.5)).unwrap();
        let checks = check_gemm(&doc).unwrap();
        assert!(checks[0].pass, "ungated shape is informational");
        assert!(!checks[2].pass, "gated shape below min_speedup must fail");
        // At the factor exactly: pass.
        let doc = Json::parse(&gemm_doc("scalar", 1.5, 1.5)).unwrap();
        assert!(check_gemm(&doc).unwrap()[2].pass);
        // An artifact with no gated shape at all cannot vouch for the
        // acceptance criterion: structural failure.
        let doc =
            Json::parse("{\"isa\": \"scalar\", \"shapes\": [{\"name\": \"x\", \"speedup\": 9.0}]}")
                .unwrap();
        assert!(check_gemm(&doc).is_err());
    }

    #[test]
    fn gemm_isa_field_is_required_and_simd_runs_must_gate_at_simd_tier() {
        // Artifact predating the isa field: structural failure, not a
        // silent pass on stale numbers.
        let doc = Json::parse(
            "{\"shapes\": [{\"name\": \"large_i8\", \"speedup\": 9.0, \"min_speedup\": 1.5}]}",
        )
        .unwrap();
        assert!(check_gemm(&doc).is_err());
        // A SIMD run carrying only the scalar-tier factor is under-gated:
        // the appended tier check must fail even though the shape passes.
        let doc = Json::parse(&gemm_doc("avx2", 2.0, 1.5)).unwrap();
        let checks = check_gemm(&doc).unwrap();
        assert!(checks[2].pass, "shape itself clears its (weak) gate");
        assert!(
            !checks.last().unwrap().pass,
            "SIMD run without a SIMD-tier gate must fail"
        );
        // The same run gated at the SIMD tier passes, and the extra tier
        // check is present exactly when isa != scalar.
        let doc = Json::parse(&gemm_doc("avx2", 2.7, 2.5)).unwrap();
        let checks = check_gemm(&doc).unwrap();
        assert_eq!(checks.len(), 4);
        assert!(checks.iter().all(|c| c.pass), "checks: {checks:?}");
        let doc = Json::parse(&gemm_doc("scalar", 2.0, 1.5)).unwrap();
        assert_eq!(check_gemm(&doc).unwrap().len(), 3);
    }

    #[test]
    fn doctored_prepacked_regression_fails() {
        // Decode-linear shape below the small-linear factor: the
        // regression this gate exists for (prepacked path quietly losing
        // its edge over per-call packing).
        let doc = Json::parse(&gemm_doc_prepacked("scalar", 2.3, 1.5, 1.1, 1.3)).unwrap();
        let checks = check_prepacked(&doc).unwrap();
        assert!(checks[0].pass);
        assert!(!checks[1].pass, "decode shape below its factor must fail");
        // At the factor exactly: pass.
        let doc = Json::parse(&gemm_doc_prepacked("scalar", 2.3, 1.5, 1.3, 1.3)).unwrap();
        assert!(check_prepacked(&doc).unwrap()[1].pass);
        // Prepacked losing to per-call anywhere fails the parity floor;
        // shapes without the field (no prepacked rhs in production) are
        // not gated.
        let doc = Json::parse(
            "{\"isa\": \"scalar\", \"shapes\": [\
             {\"name\": \"tinylm_linear_i8\", \"speedup\": 6.0, \
              \"prepacked_speedup\": 0.93, \"min_prepacked_speedup\": 1.0}, \
             {\"name\": \"large_i8\", \"speedup\": 6.0, \"min_speedup\": 1.5}, \
             {\"name\": \"tinylm_linear_decode_i8\", \"speedup\": 4.0, \
              \"prepacked_speedup\": 1.5, \"min_prepacked_speedup\": 1.3}]}",
        )
        .unwrap();
        let checks = check_prepacked(&doc).unwrap();
        assert_eq!(checks.len(), 3, "two gated shapes + the tier check");
        assert!(!checks[0].pass);
        // An artifact predating the prepacked sweep fails structurally,
        // not silently on stale numbers.
        let doc = Json::parse(
            "{\"isa\": \"scalar\", \"shapes\": [\
             {\"name\": \"large_i8\", \"speedup\": 6.0, \"min_speedup\": 1.5}]}",
        )
        .unwrap();
        assert!(check_prepacked(&doc).is_err());
        // A sweep whose small-linear tier was dropped (every floor at
        // parity) fails the appended tier check.
        let doc = Json::parse(&gemm_doc_prepacked("scalar", 2.3, 1.5, 1.5, 1.0)).unwrap();
        let checks = check_prepacked(&doc).unwrap();
        assert!(checks[..checks.len() - 1].iter().all(|c| c.pass));
        assert!(
            !checks.last().unwrap().pass,
            "missing small-linear tier must fail"
        );
    }

    #[test]
    fn doctored_parallel_regression_fails_only_when_enforced() {
        let flat = parallel_doc(true, 5.0, 5.0);
        let doc = Json::parse(&flat).unwrap();
        assert!(!check_parallel(&doc).unwrap()[0].pass);
        // The same flat sweep on a single-core runner is informational.
        let single = parallel_doc(false, 5.0, 5.0);
        let doc = Json::parse(&single).unwrap();
        assert!(check_parallel(&doc).unwrap()[0].pass);
    }

    #[test]
    fn doctored_varlen_regression_fails() {
        let doc = Json::parse(&varlen_doc(3.0, 8.0)).unwrap();
        assert!(!check_varlen(&doc).unwrap()[0].pass);
    }

    #[test]
    fn missing_or_malformed_artifacts_fail() {
        let (checks, ok) = run_gate(
            None,
            Some("{not json"),
            Some(&varlen_doc(8.0, 3.0)),
            Some(&gemm_doc("scalar", 2.3, 1.5)),
            Some(&telemetry_doc(1.1, 120.0)),
            Some(&decode_doc(1.5, 1.2, 240.0)),
            Some(&healthy_fault_doc()),
        );
        assert!(!ok);
        assert!(!checks[0].pass, "missing file must fail");
        assert!(!checks[1].pass, "malformed file must fail");
        // Structurally valid JSON missing the expected fields also fails.
        let (_, ok) = run_gate(
            Some("{\"levels\": []}"),
            Some(&parallel_doc(true, 10.0, 4.0)),
            Some(&varlen_doc(8.0, 3.0)),
            Some(&gemm_doc("scalar", 2.3, 1.5)),
            Some(&telemetry_doc(1.1, 120.0)),
            Some(&decode_doc(1.5, 1.2, 240.0)),
            Some(&healthy_fault_doc()),
        );
        assert!(!ok);
        // A missing decode artifact fails (CI runs exp_decode right
        // before the check).
        let (checks, ok) = run_gate(
            Some(&batch_doc(0.4, 1.0)),
            Some(&parallel_doc(true, 10.0, 4.0)),
            Some(&varlen_doc(8.0, 3.0)),
            Some(&gemm_doc("scalar", 2.3, 1.5)),
            Some(&telemetry_doc(1.1, 120.0)),
            None,
            Some(&healthy_fault_doc()),
        );
        assert!(!ok);
        assert!(
            checks
                .iter()
                .any(|c| !c.pass && c.name == "BENCH_decode.json: present"),
            "missing decode artifact"
        );
        // Likewise a missing fault artifact (CI runs exp_fault right
        // before the check).
        let (checks, ok) = run_gate(
            Some(&batch_doc(0.4, 1.0)),
            Some(&parallel_doc(true, 10.0, 4.0)),
            Some(&varlen_doc(8.0, 3.0)),
            Some(&gemm_doc("scalar", 2.3, 1.5)),
            Some(&telemetry_doc(1.1, 120.0)),
            Some(&decode_doc(1.5, 1.2, 240.0)),
            None,
        );
        assert!(!ok);
        assert!(!checks.last().unwrap().pass, "missing fault artifact");
    }
}
