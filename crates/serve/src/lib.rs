//! `mlcnn-serve` — dynamic micro-batching inference runtime over the
//! compiled [`mlcnn_core::ExecutionPlan`].
//!
//! The crate turns a plan into an in-process service:
//!
//! ```text
//! submit() ──▶ bounded window ──▶ batcher thread ──▶ batch channel ──▶ workers
//!   │            (reject when        coalesces under     (bounded,        │
//!   │             full: V001          (max_batch,         blocks the      ▼
//!   ▼             capacity)           max_wait)           batcher)     forward
//! Ticket ◀──────────── per-request response channel ◀────────────── fan-out
//! ```
//!
//! * **Backpressure everywhere.** The submission window rejects with
//!   [`ServeError::QueueFull`] at capacity; the batch channel is bounded
//!   and blocks the batcher; nothing in the pipeline is unbounded.
//! * **Parity.** Every execution path the service takes is bitwise
//!   identical to calling [`mlcnn_core::ExecutionPlan::forward`] on each
//!   request alone — including INT8, where coalesced whole-batch
//!   execution would change the batch-global activation scale, so the
//!   service runs INT8 batches per-item via `forward_each`.
//! * **Deadlines.** Requests carry optional deadlines; expired work is
//!   shed before execution and answered with
//!   [`ServeError::DeadlineExceeded`].
//! * **Graceful shutdown.** [`Service::shutdown`] drains every admitted
//!   request exactly once, then joins the batcher and workers.
//! * **SLO classes.** Requests (or whole services) carry an
//!   [`mlcnn_sched::SloSpec`]: `guaranteed` work is admission-checked
//!   against the calibrated cost oracle and scheduled
//!   earliest-deadline-first; `best_effort` work absorbs rejection and
//!   overload shedding. With no spec configured the batcher stays on its
//!   pre-SLO FIFO path verbatim.
//! * **Gated construction.** [`Service::spawn`] refuses configurations
//!   that fail the `mlcnn-check` `V###` serving lints.
//!
//! * **Multi-model routing & hot-swap.** [`Router`] fronts a
//!   [`mlcnn_registry::ModelRegistry`]: one endpoint per model over a
//!   shared workspace pool, publish/rollback swapping revisions under
//!   live traffic with in-flight requests draining on the old plan and
//!   zero lost submissions.
//!
//! The [`wire`] module defines the length-prefixed frame protocol and
//! [`net`] the [`Dispatch`] backend contract plus a blocking [`Client`];
//! the event-driven server itself (`mlcnn-served`, single-model or
//! `--registry` mode) lives in `mlcnn-net`. `mlcnn-pack` packs the zoo
//! (or trained checkpoints) into registry artifacts, and `mlcnn-density`
//! measures copy-on-write revision density.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod config;
pub mod error;
pub mod metrics;
pub mod microbatch;
pub mod models;
pub mod net;
pub mod router;
pub mod service;
pub mod wire;

pub use config::{available_workers, ServeConfig, DEFAULT_ARENA_BUDGET_BYTES};
pub use error::ServeError;
pub use metrics::{ClassSnapshot, LatencyHistogram, Metrics, MetricsSnapshot};
pub use microbatch::{Arrival, BatchPolicy, Microbatcher};
pub use mlcnn_sched::{SloClass, SloSpec};
pub use models::{find_model, serving_zoo, ServeModel, SERVE_SEED};
pub use net::{Client, Dispatch, NamedService};
pub use router::Router;
pub use service::{CompletionNotify, Service, Ticket};
pub use wire::{read_frame, write_frame, Frame, MAX_FRAME_BYTES, MAX_WIRE_MODEL_NAME};
