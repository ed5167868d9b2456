//! The end-to-end serving benchmark of the FlexiQ workspace: four
//! workloads through the real `Server` / `DecodeServer`, every response
//! checked against an oracle, eleven end-to-end metrics from an
//! untraced run and the per-layer metrics from a separate traced run.
//! See `README.md` beside this crate.

pub mod json;
pub mod layers;
pub mod loadgen;
pub mod metrics;
pub mod rng;
pub mod run;
pub mod spec;
pub mod stamp;
pub mod stats;
pub mod trace;
pub mod workload;
