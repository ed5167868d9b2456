//! Where and with what a result was measured, and the history file.

use std::io::Write;
use std::process::{Command, Stdio};

use crate::json::{obj, Json};
use crate::spec;

fn first_line(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok().filter(|o| o.status.success())?;
    Some(
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()?
            .trim()
            .to_string(),
    )
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// `HEAD` of the checkout the benchmark runs in. Git may not look
/// above the working directory: a checkout that is not a repository
/// has no sha, whatever repository happens to contain it.
fn git_sha() -> Option<String> {
    let here = std::env::current_dir().ok()?;
    let mut git = Command::new("git");
    git.args(["rev-parse", "HEAD"]).stderr(Stdio::null());
    if let Some(above) = here.parent() {
        git.env("GIT_CEILING_DIRECTORIES", above);
    }
    first_line(&mut git)
}

/// The stamp every result carries. Unknowns (no git, no rustc on the
/// path) are recorded as such, never guessed.
pub fn stamp(seed: u64) -> Json {
    let unknown = || "unknown".to_string();
    obj([
        ("cpu", Json::Str(cpu_model())),
        (
            "nproc",
            Json::Num(flexiq_parallel::machine_threads() as f64),
        ),
        (
            "simd",
            Json::Str(flexiq_tensor::simd::active().name().into()),
        ),
        (
            "rustc",
            Json::Str(first_line(Command::new("rustc").arg("-V")).unwrap_or_else(unknown)),
        ),
        ("git_sha", Json::Str(git_sha().unwrap_or_else(unknown))),
        ("seed", Json::Num(seed as f64)),
        ("spec_hash", Json::Str(spec::spec_hash())),
        (
            "sizing",
            obj([
                ("workers", Json::Num(spec::WORKERS as f64)),
                ("pool_threads", Json::Num(spec::POOL_THREADS as f64)),
                ("in_flight", Json::Num(spec::IN_FLIGHT as f64)),
            ]),
        ),
    ])
}

/// Appends one line to `benchmark/out/history.jsonl`.
pub fn append_history(line: &Json) -> std::io::Result<()> {
    std::fs::create_dir_all("benchmark/out")?;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open("benchmark/out/history.jsonl")?;
    writeln!(f, "{line}")
}
