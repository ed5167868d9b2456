//! Inference-serving **simulation** (§8.3, Figs. 8 and 9).
//!
//! A discrete-event model of the paper's serving setup: requests arrive
//! as a (possibly non-homogeneous) Poisson process, a single GPU worker
//! serves FIFO batches whose service times come from the
//! `flexiq-gpu-sim` latency model, and per-request response times include
//! queueing delay. FlexiQ's runtime knob appears as the *level* the
//! server computes each batch at; the [`controller`] raises the 4-bit
//! ratio by 25% whenever the profiled latency at the observed request
//! rate exceeds a threshold, and lowers it when headroom returns.
//!
//! # Simulated vs. live serving
//!
//! This crate and `flexiq-serve` are the two halves of the serving
//! story:
//!
//! * **`flexiq-serving` (this crate) — simulation.** Time is virtual,
//!   service times come from a cost model ([`sim::ServiceModel`]), and a
//!   whole day of traffic replays in milliseconds. Use it to *explore*:
//!   sweep arrival rates for Fig. 8-style profiles, compare controller
//!   policies over long traces, and regenerate the paper's figures
//!   deterministically. Nothing here touches model weights.
//! * **`flexiq-serve` — live execution.** Real threads push real
//!   tensors through `flexiq_core::FlexiRuntime` forward passes;
//!   latency is *measured*, not modeled, and the adaptive controller
//!   reacts to sliding-window percentiles instead of an offline
//!   profile. Use it to *validate*: batching, backpressure, deadlines
//!   and level switches behave as the simulator predicted, on your
//!   hardware.
//!
//! The two crates share no code: [`FixedLevel`] and the profile-driven
//! [`AdaptiveController`] drive `exp_fig08/09` and
//! `examples/adaptive_serving.rs`, while the live control plane is
//! `flexiq_serve::Policy`, whose input — measured latency — only exists
//! there. The planned link runs from that crate to this one: the
//! simulator replaying `Policy` under virtual time (ROADMAP item 2a).

pub mod arrivals;
pub mod controller;
pub mod sim;
pub mod stats;

pub use arrivals::{azure_like_trace, piecewise_poisson, poisson};
pub use controller::{
    AdaptiveController, Controller, FixedLevel, ProfileError, ProfiledLatency, DEFAULT_DOWN_MARGIN,
};
pub use sim::{simulate, RequestRecord, ServiceModel, SimConfig, SimResult};
