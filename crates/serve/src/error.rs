//! Error type of the live serving stack.

use std::fmt;

/// Errors produced by the serving stack.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The admission queue was full — backpressure, the request was
    /// rejected and must be retried (or shed) by the caller.
    QueueFull {
        /// Configured capacity at rejection time.
        capacity: usize,
    },
    /// The server is shutting down and no longer admits requests.
    ShuttingDown,
    /// The request's deadline expired before a worker picked it up.
    DeadlineExpired,
    /// The reply channel was dropped before a response arrived (a worker
    /// panicked or the server was torn down mid-flight).
    ReplyDropped,
    /// A model pass panicked under this request's batch. The panic was
    /// caught at the worker's pass boundary; sibling batches and the
    /// worker thread survive.
    WorkerPanic {
        /// Panic payload rendered as text (best effort).
        message: String,
    },
    /// The decode scheduler died mid-stream and was restarted; this
    /// request's generation state was lost. Safe to resubmit.
    SchedulerRestarted,
    /// The request's input contained a non-finite value (NaN/Inf) and
    /// was rejected before batching — one poisoned sample must not
    /// corrupt a stacked batch's shared activation quantization.
    PoisonedInput,
    /// The server is shedding load (brownout state machine at
    /// [`Shedding`](crate::ServeState::Shedding)); retry with
    /// backoff.
    Shedding,
    /// The server is draining and no longer admits requests.
    Draining,
    /// A configuration value is invalid.
    Config(String),
    /// Propagated model-execution error.
    Nn(flexiq_nn::NnError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::QueueFull { capacity } => {
                write!(f, "admission queue full (capacity {capacity})")
            }
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::DeadlineExpired => write!(f, "deadline expired before service"),
            ServeError::ReplyDropped => write!(f, "reply channel dropped before response"),
            ServeError::WorkerPanic { message } => {
                write!(f, "model pass panicked (isolated): {message}")
            }
            ServeError::SchedulerRestarted => {
                write!(f, "decode scheduler restarted; in-flight stream lost")
            }
            ServeError::PoisonedInput => {
                write!(f, "input rejected: non-finite value (NaN/Inf)")
            }
            ServeError::Shedding => write!(f, "server is shedding load (brownout)"),
            ServeError::Draining => write!(f, "server is draining"),
            ServeError::Config(msg) => write!(f, "invalid configuration: {msg}"),
            ServeError::Nn(e) => write!(f, "model execution failed: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<flexiq_nn::NnError> for ServeError {
    fn from(e: flexiq_nn::NnError) -> Self {
        ServeError::Nn(e)
    }
}

/// Result alias for the serving stack.
pub type Result<T> = std::result::Result<T, ServeError>;
