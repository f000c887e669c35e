//! `mlcnn-net` — event-driven, sharded network layer for MLCNN
//! serving.
//!
//! The transport behind `mlcnn-served`: a readiness-based design over
//! the vendored `minimio` epoll wrapper that serves tens of thousands of
//! sockets from a fixed thread count:
//!
//! ```text
//!            accept()                round-robin
//! clients ──► acceptor thread ──────┬───────────┬─────────…
//!                                   ▼           ▼
//!                              shard 0      shard 1        (epoll each)
//!                            ┌─────────┐  ┌─────────┐
//!                            │ conn conn│  │ conn conn│    state machines:
//!                            │ conn …  │  │ conn …  │     decode → slots → wbuf
//!                            └────┬────┘  └────┬────┘
//!                                 │ submit_notified
//!                                 ▼
//!                      Dispatch (Service / Router)
//!                                 │ CompletionNotify ──► shard waker
//! ```
//!
//! * **Per-connection state machines** (`conn`): an incremental
//!   [`FrameDecoder`] reassembles the length-prefixed wire protocol
//!   across arbitrary TCP segmentation; a FIFO slot queue keeps
//!   pipelined responses in request order; a write buffer with a
//!   high-watermark and a pipeline cap give real backpressure.
//! * **No blocked reactors**: inference completions arrive via
//!   [`mlcnn_serve::CompletionNotify`] — the worker pushes the
//!   connection's token into the shard's inbox and fires its
//!   `eventfd` waker; the reactor then *polls* the resolved tickets.
//! * **Any backend**: the backend is any [`mlcnn_serve::Dispatch`] —
//!   a single-model `NamedService`, or a `Router` with its hot-swap and
//!   revision attribution.
//! * **Gated construction**: [`NetServer::spawn`] refuses configs the
//!   `mlcnn-check` `N0xx` lints deny, the way `Service::spawn` is
//!   gated by `V0xx`.
//! * **A multiplexing client** ([`client`]): tens of thousands of
//!   concurrent connections from a handful of threads, with order,
//!   correlation-id, and bitwise-parity checking — the engine behind
//!   `mlcnn-loadgen --sweep` and the integration tests.
//!
//! Binaries: `mlcnn-served` (the server), `mlcnn-loadgen` (load and
//! parity harness), and `mlcnn-registry-smoke` (a registry hot-swap
//! rehearsed under live load).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod client;
pub mod config;
mod conn;
pub mod decode;
mod reactor;
pub mod server;

pub use client::{run_mux, MuxOptions, MuxReport};
pub use config::NetConfig;
pub use decode::FrameDecoder;
pub use server::NetServer;
