//! What the benchmark is: its workloads, its metrics, and the total
//! parser of `BENCHMARK.json` that registers both.
//!
//! The tables here are the code side of the registry; the smoke test
//! checks them against `BENCHMARK.json` name by name, unit by unit.

use std::fmt;

use crate::json::{Json, JsonError};

/// Whether a larger or a smaller value is the better one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One registered metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen;
    /// `None` for per-layer metrics, which carry no bound.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// The end-to-end metrics, measured with tracing off. Every one is
/// reported on every workload; README.md gives each one's reading on
/// the one-shot and on the decode workloads, and why everything the
/// box's speed touches carries the widest bound.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.25),
    e2e("quality_pct", "%", Higher, 0.02),
    e2e("answered_pct", "%", Higher, 0.25),
    e2e("throughput_rps", "1/s", Higher, 0.25),
    e2e("latency_p50_ms", "ms", Lower, 0.25),
    e2e("slo_attainment_pct", "%", Higher, 0.25),
    e2e("goodput_rps", "1/s", Higher, 0.25),
    e2e("tokens_per_s", "1/s", Higher, 0.25),
    e2e("ttft_p50_ms", "ms", Lower, 0.25),
    e2e("itl_p50_ms", "ms", Lower, 0.25),
];

/// The per-layer metrics of the traced run, one block per crate on the
/// serving path.
pub const PER_LAYER: &[MetricDef] = &[
    // flexiq-serve, from response fields and the server's own snapshot.
    layer("serve.queue_wait_p50_ms", "ms", Lower),
    layer("serve.queue_wait_p95_ms", "ms", Lower),
    layer("serve.exec_p50_ms", "ms", Lower),
    layer("serve.overhead_ms", "ms", Lower),
    layer("serve.submit_us", "us", Lower),
    layer("serve.batch_mean", "count", Higher),
    layer("serve.batches", "count", Lower),
    layer("serve.rejected", "count", Lower),
    layer("serve.shed", "count", Lower),
    layer("serve.expired", "count", Lower),
    layer("serve.exec_failed", "count", Lower),
    layer("serve.level_switches", "count", Lower),
    layer("serve.brownout_transitions", "count", Lower),
    layer("serve.level_share.int8", "share", Higher),
    layer("serve.level_share.25", "share", Higher),
    layer("serve.level_share.50", "share", Higher),
    layer("serve.level_share.75", "share", Higher),
    layer("serve.level_share.100", "share", Higher),
    layer("serve.decode.tokens_per_step", "count", Higher),
    layer("loadgen.lateness_p95_ms", "ms", Lower),
    // The tails: too sensitive to the box to carry a bound.
    layer("loadgen.latency_p95_ms", "ms", Lower),
    layer("loadgen.latency_p99_ms", "ms", Lower),
    layer("loadgen.ttft_p95_ms", "ms", Lower),
    layer("loadgen.itl_p95_ms", "ms", Lower),
    layer("loadgen.offered", "count", Higher),
    layer("loadgen.median_to_quiet", "share", Higher),
    // flexiq-core, direct calls on the workload's runtime.
    layer("core.prepare_s", "s", Lower),
    layer("core.prewarm_s", "s", Lower),
    layer("core.first_pass_ms", "ms", Lower),
    layer("core.pass_ms.b1", "ms", Lower),
    layer("core.pass_ms.b8", "ms", Lower),
    layer("core.level_ms.int8", "ms", Lower),
    layer("core.level_ms.25", "ms", Lower),
    layer("core.level_ms.50", "ms", Lower),
    layer("core.level_ms.75", "ms", Lower),
    layer("core.level_ms.100", "ms", Lower),
    layer("core.set_level_ns", "ns", Lower),
    layer("core.hook_ms", "ms", Lower),
    // flexiq-nn, a timing Compute wrapper under the public executor.
    layer("nn.pass_ms", "ms", Lower),
    layer("nn.qexec.conv_share", "share", Lower),
    layer("nn.qexec.linear_share", "share", Lower),
    layer("nn.exec.other_share", "share", Lower),
    layer("nn.coverage", "share", Higher),
    layer("nn.ws_growth", "count", Lower),
    layer("nn.kv.append_us", "us", Lower),
    layer("nn.kv.attend_us", "us", Lower),
    // flexiq-tensor, exact counter deltas per pass and shape replays.
    layer("tensor.gemm_calls", "count", Lower),
    layer("tensor.gemm_madds", "count", Lower),
    layer("tensor.gemm_packed_bytes", "count", Lower),
    layer("tensor.pack_hits", "count", Higher),
    layer("tensor.pack_misses", "count", Lower),
    layer("tensor.gemm_replay_ms", "ms", Lower),
    layer("tensor.im2col_replay_ms", "ms", Lower),
    layer("tensor.gemm_gmadds_per_s", "G/s", Higher),
    layer("tensor.gemm_share", "share", Lower),
    // flexiq-quant, replays on each layer's activation sizes.
    layer("quant.act_quant_replay_ms", "ms", Lower),
    layer("quant.lower_replay_ms", "ms", Lower),
    // flexiq-parallel.
    layer("parallel.ping_us", "us", Lower),
    layer("parallel.pool_tasks", "count", Lower),
    layer("parallel.speedup_2t", "x", Higher),
    // The benchmark's own tracing.
    layer("telemetry.overhead_pct", "%", Lower),
    layer("telemetry.spans_dropped", "count", Lower),
];

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    CnnInt8,
    CnnInt4,
    VitBurst,
    LmDecode,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::CnnInt8,
        Workload::CnnInt4,
        Workload::VitBurst,
        Workload::LmDecode,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CnnInt8 => "cnn_int8",
            Workload::CnnInt4 => "cnn_int4",
            Workload::VitBurst => "vit_burst",
            Workload::LmDecode => "lm_decode",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists: the layer it stresses and the change it
    /// is the control for.
    pub fn why(self) -> &'static str {
        match self {
            Workload::CnnInt8 => "RNet20 at INT8, closed loop: conv, im2col and the i8 GEMM do the work and the 4-bit path does none; the control for every 4-bit change",
            Workload::CnnInt4 => "RNet20 at 100% 4-bit, closed loop: bit-lowering and the low-band GEMMs do the work; with cnn_int8 it is the two ends of the precision knob",
            Workload::VitBurst => "ViT-S on the library-default engine, adaptive server, open-loop bursts past capacity: admission, batching, controller and shedding decide the outcome",
            Workload::LmDecode => "TinyLm continuous-batching decode at 50% 4-bit with a mixed KV cache, closed loop: m=8 step GEMMs, KV append/attend and slot refill; bypasses conv and the batcher",
        }
    }

    /// Latency limit of the workload's SLO, milliseconds from when the
    /// request was due.
    pub fn slo_ms(self) -> f64 {
        match self {
            Workload::CnnInt8 | Workload::CnnInt4 => 50.0,
            Workload::VitBurst => 20.0,
            Workload::LmDecode => 50.0,
        }
    }
}

// ───────────────────────── fixed sizing ─────────────────────────

/// `run_seconds` of `BENCHMARK.json`: how long one run measures. Seven
/// whole `vit_burst` cycles, 56 closed-loop segments; 92 runs of it
/// with their set-ups and two builds fit the driver's 3420 s.
pub const RUN_SECONDS: u64 = 28;

/// Serve worker threads (both servers' one dispatching thread).
pub const WORKERS: usize = 1;
/// Intra-batch pool threads.
pub const POOL_THREADS: usize = 1;
/// Requests the closed loops keep in flight from their one thread.
pub const IN_FLIGHT: usize = 8;
/// Inputs (images or prompts) in the fixed dataset requests draw from.
pub const DATASET: usize = 64;
/// Seed of the dataset and of the calibration samples: the deployment
/// is fixed, the `--seed` argument moves only the traffic (request
/// order, budgets, arrival times).
pub const DATASET_SEED: u64 = 0x0DA7_A5E7;
/// Calibration samples `prepare` sees.
pub const CALIB_SAMPLES: usize = 16;
/// Fresh set-ups per untraced run, half before the traffic and half
/// after; `setup_s` is their quiet reading (`stats::quiet`).
pub const SETUPS: usize = 11;
/// Length of the segments a closed-loop run is cut into; every
/// end-to-end metric is the quiet reading over them (`vit_burst`'s
/// segments are its burst cycles).
pub const SEGMENT_S: f64 = 0.5;

/// `vit_burst`: one cycle is a calm phase then a burst, `(seconds,
/// requests per second)`. The burst is about twice the server's INT8
/// capacity on the reference box on purpose: deep overload repeats, a
/// burst at 1.1x capacity is bistable.
pub const BURST_CYCLE: [(f64, f64); 2] = [(2.5, 400.0), (1.5, 3500.0)];
/// `vit_burst`: per-request deadline handed to the server.
pub const BURST_DEADLINE_MS: u64 = 200;

/// `lm_decode`: prompt lengths and per-request token budgets.
pub const LM_PROMPT: (usize, usize) = (2, 8);
pub const LM_BUDGET: (usize, usize) = (4, 12);
pub const LM_MAX_NEW: usize = 14;
pub const LM_MAX_ACTIVE: usize = 8;
pub const LM_BATCH_TIMEOUT_MS: u64 = 1;
/// `lm_decode`: KV cache spec `KvSpec::mixed(group, low_frac)`.
pub const LM_KV: (usize, f64) = (4, 0.5);
/// `lm_decode`: schedule level index (1 = 50% 4-bit).
pub const LM_LEVEL: usize = 1;

/// FNV-1a over the sizing constants and the metric and workload names:
/// two results with different hashes did not measure the same thing.
pub fn spec_hash() -> String {
    let mut text = format!(
        "{RUN_SECONDS}|{WORKERS}|{POOL_THREADS}|{IN_FLIGHT}|{DATASET}|{DATASET_SEED}|{CALIB_SAMPLES}|{SETUPS}|{SEGMENT_S}|{BURST_CYCLE:?}|{BURST_DEADLINE_MS}|{LM_PROMPT:?}|{LM_BUDGET:?}|{LM_MAX_NEW}|{LM_MAX_ACTIVE}|{LM_BATCH_TIMEOUT_MS}|{LM_KV:?}|{LM_LEVEL}"
    );
    for w in Workload::ALL {
        text.push_str(&format!("|{}:{}", w.name(), w.slo_ms()));
    }
    for m in END_TO_END.iter().chain(PER_LAYER) {
        text.push_str(&format!("|{}:{}:{:?}", m.name, m.unit, m.bound));
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

// ───────────────────────── BENCHMARK.json ─────────────────────────

/// Why a `BENCHMARK.json` is refused.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    Json(JsonError),
    /// A key is absent, or holds the wrong type.
    Missing(String),
    /// A key the contract does not know.
    UnknownKey(String),
    /// A name or unit outside its alphabet or length.
    BadName(String),
    /// A name used twice.
    Duplicate(String),
    /// A number outside its range.
    OutOfRange(String),
    /// The file and the code disagree.
    Mismatch(String),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Json(e) => write!(f, "{e}"),
            SpecError::Missing(k) => write!(f, "missing or mistyped key: {k}"),
            SpecError::UnknownKey(k) => write!(f, "unknown key: {k}"),
            SpecError::BadName(n) => write!(f, "bad name or unit: {n:?}"),
            SpecError::Duplicate(n) => write!(f, "name used twice: {n}"),
            SpecError::OutOfRange(m) => write!(f, "out of range: {m}"),
            SpecError::Mismatch(m) => write!(f, "BENCHMARK.json and the code disagree: {m}"),
        }
    }
}

impl std::error::Error for SpecError {}

impl From<JsonError> for SpecError {
    fn from(e: JsonError) -> Self {
        SpecError::Json(e)
    }
}

/// A metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct FileMetric {
    pub name: String,
    pub unit: String,
    pub better: Better,
    pub bound: Option<f64>,
}

/// A parsed, validated `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkFile {
    pub command: Vec<String>,
    pub paths: Vec<String>,
    pub run_seconds: u64,
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<FileMetric>,
    pub per_layer: Vec<FileMetric>,
}

/// Letters, digits, `_`, `.`, `-`; starts with a letter or digit; at
/// most 64 characters.
pub fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Letters, digits, `_`, `/`, `%`, `.`, `-`; at most 16 characters.
pub fn valid_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

fn keys_exactly(v: &Json, what: &str, keys: &[&str]) -> Result<(), SpecError> {
    let kv = v
        .as_obj()
        .ok_or_else(|| SpecError::Missing(format!("{what} (an object)")))?;
    for (k, _) in kv {
        if !keys.contains(&k.as_str()) {
            return Err(SpecError::UnknownKey(format!("{what}.{k}")));
        }
    }
    for k in keys {
        if v.get(k).is_none() {
            return Err(SpecError::Missing(format!("{what}.{k}")));
        }
    }
    Ok(())
}

fn string_of(v: &Json, what: &str, key: &str) -> Result<String, SpecError> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| SpecError::Missing(format!("{what}.{key} (a string)")))
}

fn strings_of(v: &Json, key: &str, max: usize) -> Result<Vec<String>, SpecError> {
    let arr = v
        .get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| SpecError::Missing(format!("{key} (a list)")))?;
    if arr.is_empty() || arr.len() > max {
        return Err(SpecError::OutOfRange(format!("{key}: 1 to {max} entries")));
    }
    arr.iter()
        .map(|s| {
            s.as_str()
                .filter(|s| s.len() <= 200)
                .map(str::to_string)
                .ok_or_else(|| SpecError::Missing(format!("{key}[] (strings of at most 200)")))
        })
        .collect()
}

fn metrics_of(
    v: &Json,
    key: &str,
    max: usize,
    bounded: bool,
) -> Result<Vec<FileMetric>, SpecError> {
    let arr = v
        .get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| SpecError::Missing(format!("{key} (a list)")))?;
    if arr.is_empty() || arr.len() > max {
        return Err(SpecError::OutOfRange(format!("{key}: 1 to {max} metrics")));
    }
    let keys: &[&str] = if bounded {
        &["name", "unit", "better", "bound"]
    } else {
        &["name", "unit", "better"]
    };
    let mut out = Vec::with_capacity(arr.len());
    for m in arr {
        keys_exactly(m, key, keys)?;
        let name = string_of(m, key, "name")?;
        let unit = string_of(m, key, "unit")?;
        if !valid_name(&name) {
            return Err(SpecError::BadName(name));
        }
        if !valid_unit(&unit) {
            return Err(SpecError::BadName(unit));
        }
        let better = match string_of(m, key, "better")?.as_str() {
            "higher" => Better::Higher,
            "lower" => Better::Lower,
            other => return Err(SpecError::OutOfRange(format!("{name}.better = {other:?}"))),
        };
        let bound = if bounded {
            let b = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or_else(|| SpecError::Missing(format!("{name}.bound (a number)")))?;
            if !(b > 0.0 && b <= 0.25) {
                return Err(SpecError::OutOfRange(format!("{name}.bound = {b}")));
            }
            Some(b)
        } else {
            None
        };
        out.push(FileMetric {
            name,
            unit,
            better,
            bound,
        });
    }
    Ok(out)
}

impl BenchmarkFile {
    /// Parses and validates the text of a `BENCHMARK.json`. Total:
    /// every malformed file is a [`SpecError`], never a panic.
    pub fn parse(text: &str) -> Result<BenchmarkFile, SpecError> {
        if text.len() > 64 * 1024 {
            return Err(SpecError::OutOfRange("file larger than 64 KiB".into()));
        }
        let v = Json::parse(text)?;
        keys_exactly(
            &v,
            "BENCHMARK.json",
            &[
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer",
            ],
        )?;
        let command = strings_of(&v, "command", 32)?;
        let paths = strings_of(&v, "paths", 16)?;
        let run_seconds = v
            .get("run_seconds")
            .and_then(Json::as_f64)
            .filter(|s| s.fract() == 0.0 && (1.0..=60.0).contains(s))
            .ok_or_else(|| SpecError::OutOfRange("run_seconds: a whole number, 1 to 60".into()))?
            as u64;
        let wl = v
            .get("workloads")
            .and_then(Json::as_arr)
            .ok_or_else(|| SpecError::Missing("workloads (a list)".into()))?;
        if !(2..=8).contains(&wl.len()) {
            return Err(SpecError::OutOfRange("workloads: 2 to 8".into()));
        }
        let mut workloads = Vec::with_capacity(wl.len());
        for w in wl {
            keys_exactly(w, "workloads", &["name", "why"])?;
            let name = string_of(w, "workloads", "name")?;
            let why = string_of(w, "workloads", "why")?;
            if !valid_name(&name) {
                return Err(SpecError::BadName(name));
            }
            if why.len() > 200 || why.contains('\n') {
                return Err(SpecError::OutOfRange(format!(
                    "{name}.why: one line of at most 200"
                )));
            }
            workloads.push((name, why));
        }
        let end_to_end = metrics_of(&v, "end_to_end", 16, true)?;
        let per_layer = metrics_of(&v, "per_layer", 128, false)?;
        let mut seen = std::collections::BTreeSet::new();
        let names = workloads
            .iter()
            .map(|(n, _)| n)
            .chain(end_to_end.iter().chain(&per_layer).map(|m| &m.name));
        for n in names {
            if !seen.insert(n.clone()) {
                return Err(SpecError::Duplicate(n.clone()));
            }
        }
        if !end_to_end
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower)
        {
            return Err(SpecError::Missing(
                "end_to_end metric setup_s [s, lower]".into(),
            ));
        }
        Ok(BenchmarkFile {
            command,
            paths,
            run_seconds,
            workloads,
            end_to_end,
            per_layer,
        })
    }

    /// Checks the file against the tables in this module: same run
    /// length, same names in the same order, same units, directions,
    /// bounds and reasons.
    pub fn check_against_code(&self) -> Result<(), SpecError> {
        if self.run_seconds != RUN_SECONDS {
            return Err(SpecError::Mismatch("run_seconds".into()));
        }
        let code_w: Vec<(String, String)> = Workload::ALL
            .iter()
            .map(|w| (w.name().to_string(), w.why().to_string()))
            .collect();
        if self.workloads != code_w {
            return Err(SpecError::Mismatch("workloads".into()));
        }
        for (key, file, code) in [
            ("end_to_end", &self.end_to_end, END_TO_END),
            ("per_layer", &self.per_layer, PER_LAYER),
        ] {
            if file.len() != code.len() {
                return Err(SpecError::Mismatch(format!(
                    "{key}: {} metrics in the file, {} in the code",
                    file.len(),
                    code.len()
                )));
            }
            for (f, c) in file.iter().zip(code) {
                if f.name != c.name
                    || f.unit != c.unit
                    || f.better != c.better
                    || f.bound != c.bound
                {
                    return Err(SpecError::Mismatch(format!(
                        "{key}: {} vs {}",
                        f.name, c.name
                    )));
                }
            }
        }
        Ok(())
    }
}

/// The `BENCHMARK.json` the tables in this module describe.
pub fn render_benchmark_file() -> String {
    let metric = |m: &MetricDef| {
        let mut kv = vec![
            ("name".to_string(), Json::Str(m.name.into())),
            ("unit".to_string(), Json::Str(m.unit.into())),
            ("better".to_string(), Json::Str(m.better.as_str().into())),
        ];
        if let Some(b) = m.bound {
            kv.push(("bound".to_string(), Json::Num(b)));
        }
        Json::Obj(kv)
    };
    let strs = |v: &[&str]| Json::Arr(v.iter().map(|s| Json::Str(s.to_string())).collect());
    let mut out = String::from("{\n");
    let mut line = |key: &str, value: String, last: bool| {
        out.push_str(&format!(
            "  \"{key}\": {value}{}\n",
            if last { "" } else { "," }
        ));
    };
    let list = |items: Vec<Json>| {
        let rows: Vec<String> = items.iter().map(|j| format!("    {j}")).collect();
        format!("[\n{}\n  ]", rows.join(",\n"))
    };
    line(
        "command",
        strs(&[
            "cargo",
            "run",
            "--release",
            "--quiet",
            "--manifest-path",
            "benchmark/Cargo.toml",
            "--",
        ])
        .to_string(),
        false,
    );
    line("paths", strs(&["benchmark"]).to_string(), false);
    line("run_seconds", RUN_SECONDS.to_string(), false);
    line(
        "workloads",
        list(
            Workload::ALL
                .iter()
                .map(|w| {
                    crate::json::obj([
                        ("name", Json::Str(w.name().into())),
                        ("why", Json::Str(w.why().into())),
                    ])
                })
                .collect(),
        ),
        false,
    );
    line(
        "end_to_end",
        list(END_TO_END.iter().map(metric).collect()),
        false,
    );
    line(
        "per_layer",
        list(PER_LAYER.iter().map(metric).collect()),
        true,
    );
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_code_tables_render_to_a_file_that_parses_and_matches() {
        let file = BenchmarkFile::parse(&render_benchmark_file()).unwrap();
        file.check_against_code().unwrap();
        assert_eq!(file.run_seconds, RUN_SECONDS);
        assert_eq!(file.end_to_end.len(), END_TO_END.len());
        assert!(file.per_layer.len() <= 128);
    }

    #[test]
    fn names_and_units_are_restricted() {
        assert!(valid_name("serve.level_share.int8"));
        assert!(valid_name("9lives"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("a b"));
        assert!(!valid_name("a/b"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("1/s") && valid_unit("%") && valid_unit("G/s"));
        assert!(!valid_unit("ms per op") && !valid_unit("") && !valid_unit(&"u".repeat(17)));
        for w in Workload::ALL {
            assert!(valid_name(w.name()));
            assert!(
                w.why().len() <= 200,
                "{} why is {} long",
                w.name(),
                w.why().len()
            );
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}", m.unit);
        }
    }

    #[test]
    fn bad_specs_are_typed_errors_never_panics() {
        let good = render_benchmark_file();
        let seconds = format!("\"run_seconds\": {RUN_SECONDS}");
        type Case = (String, fn(&SpecError) -> bool);
        let cases: Vec<Case> = vec![
            ("".into(), |e| matches!(e, SpecError::Json(_))),
            ("[]".into(), |e| matches!(e, SpecError::Missing(_))),
            ("{}".into(), |e| matches!(e, SpecError::Missing(_))),
            (good.replace(&seconds, "\"run_seconds\": 10.5"), |e| {
                matches!(e, SpecError::OutOfRange(_))
            }),
            (good.replace(&seconds, "\"run_seconds\": 61"), |e| {
                matches!(e, SpecError::OutOfRange(_))
            }),
            (good.replace("\"cnn_int8\"", "\"cnn int8\""), |e| {
                matches!(e, SpecError::BadName(_))
            }),
            (good.replace("\"cnn_int4\"", "\"cnn_int8\""), |e| {
                matches!(e, SpecError::Duplicate(_))
            }),
            (
                good.replace("\"unit\": \"MB\"", "\"unit\": \"mega bytes\""),
                |e| matches!(e, SpecError::BadName(_)),
            ),
            (good.replace("\"bound\": 0.02", "\"bound\": 0.5"), |e| {
                matches!(e, SpecError::OutOfRange(_))
            }),
            (
                good.replace("\"better\": \"lower\"", "\"better\": \"sideways\""),
                |e| matches!(e, SpecError::OutOfRange(_)),
            ),
            (good.replace("\"paths\"", "\"extra\": 1, \"paths\""), |e| {
                matches!(e, SpecError::UnknownKey(_))
            }),
            (good.replace("\"setup_s\"", "\"setup_seconds\""), |e| {
                matches!(e, SpecError::Missing(_))
            }),
        ];
        for (text, expect) in cases {
            let err = BenchmarkFile::parse(&text).expect_err("a bad spec parsed");
            assert!(expect(&err), "unexpected error {err:?}");
        }
        // A valid file that registers something else is a mismatch.
        let other = good.replace("\"latency_p50_ms\"", "\"latency_p51_ms\"");
        let err = BenchmarkFile::parse(&other).unwrap().check_against_code();
        assert!(matches!(err, Err(SpecError::Mismatch(_))));
    }

    #[test]
    fn truncations_of_a_good_file_never_panic() {
        let good = render_benchmark_file();
        for cut in (0..good.len()).step_by(37) {
            if good.is_char_boundary(cut) {
                let _ = BenchmarkFile::parse(&good[..cut]);
            }
        }
    }

    #[test]
    fn spec_hash_is_stable_within_a_build() {
        assert_eq!(spec_hash(), spec_hash());
        assert_eq!(spec_hash().len(), 16);
    }
}
