//! Live threaded batching inference serving on top of
//! [`flexiq_core::FlexiRuntime`] (§8.3, executed for real).
//!
//! Where `flexiq-serving` *simulates* the paper's serving experiment —
//! this crate's [`Policy`] ticked under a virtual clock over a latency
//! table — this crate runs it: real requests carry real tensors through
//! a bounded admission queue, a dynamic batcher, and a worker pool
//! executing quantized forward
//! passes on one shared set of 8-bit master weights — while one
//! supervisor thread ticks one pure [`Policy`] that adapts the 4-bit
//! ratio from *measured* sliding-window latency percentiles and flips it
//! with the runtime's one-atomic-store
//! [`flexiq_core::FlexiRuntime::set_level`] switch. Levels are spoken
//! in the runtime's encoding everywhere
//! ([`flexiq_core::runtime::LEVEL_INT8`] or a schedule index).
//!
//! Both serving modes are one supervised core (the private `core`
//! module: queue → service threads → supervisor → [`Policy`] → metrics,
//! with the admission gate, `health` / `drain` / `resume` and the stop
//! path) running a different *body* on its threads: [`Server`] runs
//! `pop_batch → run_batch` on `workers` threads, [`DecodeServer`] runs
//! the continuous-batching scheduler loop on one.
//!
//! | module | contents |
//! |---|---|
//! | [`config`] | [`ServeConfig`] / [`ControlConfig`] knobs |
//! | [`queue`] | bounded admission queue: backpressure + dynamic batching policy |
//! | [`request`] | request/response/ticket types, per-request deadlines |
//! | [`worker`] | `run_batch`: one dispatched batch as stacked, panic-isolated `FlexiRuntime` passes |
//! | [`decode`] | continuous-batching autoregressive generation: [`DecodeServer`], the core plus the scheduler body |
//! | [`policy`] | the control plane as one pure state machine: latency ratchet + Ready → Degraded → Shedding → Draining brownout ladder |
//! | [`metrics`] | latency histograms, p50/p95/p99, throughput, queue depth, level-switch trace |
//! | [`server`] | the one-shot [`Server`] (the core plus the worker body) and the shared [`Health`] report |
//! | [`fault`] | deterministic seeded fault injection (`FLEXIQ_FAULT`), one relaxed load when disarmed |
//! | [`retry`] | shared bounded retry/backoff with deterministic jitter |
//!
//! # Quickstart
//!
//! ```no_run
//! use std::sync::Arc;
//! use flexiq_core::pipeline::{prepare, FlexiQConfig};
//! use flexiq_core::selection::Strategy;
//! use flexiq_nn::data::gen_image_inputs;
//! use flexiq_nn::zoo::{ModelId, Scale};
//! use flexiq_serve::{ServeConfig, Server};
//!
//! let id = ModelId::RNet20;
//! let graph = id.build(Scale::Test).unwrap();
//! let calib = gen_image_inputs(4, &id.input_dims(Scale::Test), 7);
//! let prepared = prepare(&graph, &calib, &FlexiQConfig::new(4, Strategy::Greedy)).unwrap();
//! let server = Server::start_adaptive(Arc::new(prepared.runtime), ServeConfig::default()).unwrap();
//! let response = server.submit(calib[0].clone()).unwrap().wait().unwrap();
//! println!("served at level {:?} in {:?}", response.level, response.latency);
//! server.shutdown();
//! ```
//!
//! The end-to-end benchmark (`benchmark/`, workload `vit_burst`) drives
//! an adaptive [`Server`] through open-loop bursts and reports the level
//! trace and the latency percentiles.

pub mod config;
mod core;
pub mod decode;
pub mod error;
pub mod fault;
pub mod metrics;
pub mod policy;
pub mod queue;
pub mod request;
pub mod retry;
pub mod server;
pub mod worker;

pub use self::core::SUPERVISE_TICK;
pub use config::{ControlConfig, ServeConfig};
pub use decode::{DecodeConfig, DecodeServer, GenResponse, GenTicket};
pub use error::{Result, ServeError};
pub use fault::{FaultConfig, FaultSite};
pub use metrics::{LatencyHistogram, LevelSwitch, MetricsHub, Snapshot};
pub use policy::{BrownoutConfig, Decision, Observation, Policy, ServeState};
pub use request::{InferResponse, RequestId, Ticket};
pub use retry::{admission_retryable, retry_with, Backoff, BackoffPolicy, RetryStats};
pub use server::{Health, Server};
