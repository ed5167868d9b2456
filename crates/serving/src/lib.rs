//! Inference-serving **simulation** (§8.3, Figs. 8 and 9).
//!
//! A discrete-event model of the paper's serving setup: requests arrive
//! as a (possibly non-homogeneous) Poisson process, a single worker
//! serves FIFO batches whose service times come from a cost model (the
//! `flexiq-gpu-sim` latency model in the experiments), and per-request
//! response times include queueing delay. FlexiQ's runtime knob is the
//! *level* each batch runs at, and the controller that moves it is the
//! live server's own: [`sim::simulate`] ticks `flexiq_serve::Policy`
//! under virtual time, so the ratchet raises the 4-bit ratio one step
//! while the windowed latency percentile exceeds its target and lowers
//! it when headroom returns, exactly as it does in production.
//!
//! # Simulated vs. live serving
//!
//! This crate and `flexiq-serve` run one control plane on two clocks:
//!
//! * **`flexiq-serving` (this crate) — virtual time.** Service times come
//!   from a cost model ([`sim::ServiceModel`]) and a whole day of traffic
//!   replays in milliseconds, deterministically. Use it to *explore*:
//!   sweep arrival rates for Fig. 8-style curves, judge a policy change on
//!   a replayed trace before it meets real hardware, and regenerate the
//!   paper's figures. Nothing here touches model weights.
//! * **`flexiq-serve` — wall-clock time.** Real threads push real tensors
//!   through `flexiq_core::FlexiRuntime` forward passes; latency is
//!   *measured*, not modeled. Use it to *validate*: batching,
//!   backpressure, deadlines and level switches behave as the simulator
//!   predicted, on your hardware.
//!
//! The dependency runs one way: this crate depends on `flexiq-serve` for
//! its `Policy`, `ServeConfig` and `SUPERVISE_TICK`; `flexiq-serve`
//! knows nothing of the simulator.

pub mod arrivals;
pub mod sim;
pub mod stats;

pub use arrivals::{azure_like_trace, piecewise_poisson, poisson};
pub use sim::{simulate, RequestRecord, ServiceModel, SimResult, TableService};
