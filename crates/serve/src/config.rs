//! Service configuration and its `V0xx` lint gate.

use crate::error::ServeError;
use mlcnn_check::ServeConfigLint;
use mlcnn_core::ExecutionPlan;
use mlcnn_quant::Precision;
use mlcnn_sched::SloSpec;
use std::time::Duration;

/// Default arena memory budget across all workers: 1 GiB.
pub const DEFAULT_ARENA_BUDGET_BYTES: usize = 1 << 30;

/// Knobs of the micro-batching service.
///
/// Validated against the `mlcnn-check` `V0xx` codes before any thread is
/// spawned — [`crate::Service::spawn`] refuses a config the lint denies,
/// the same construction-gating contract `ExecutionPlan::compile` has with
/// the S/F codes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Bounded submission-queue capacity. Submissions beyond it are
    /// rejected with [`ServeError::QueueFull`] — the queue never grows.
    pub queue_capacity: usize,
    /// Most requests the micro-batcher coalesces into one plan call.
    pub max_batch: usize,
    /// Longest the batcher holds the oldest pending request while waiting
    /// for the batch to fill; when it elapses the batch dispatches
    /// whatever has accumulated.
    pub max_wait: Duration,
    /// Worker threads executing dispatched batches.
    pub workers: usize,
    /// Datapath precision the plan is compiled at (when the service
    /// compiles its own plan via [`crate::Service::compile`]); also linted
    /// against a pre-compiled plan's precision on [`crate::Service::spawn`].
    pub precision: Precision,
    /// Deadline applied to every request that does not carry its own:
    /// requests older than this are shed without running inference.
    pub default_deadline: Option<Duration>,
    /// Budget for the workers' workspace arenas (V007 gate).
    pub arena_budget_bytes: usize,
    /// Default SLO applied to requests that do not carry their own.
    /// `None` preserves the pre-SLO FIFO behavior verbatim: no oracle is
    /// calibrated, no admission control runs, and the batcher never
    /// leaves its FIFO fast path.
    pub slo: Option<SloSpec>,
    /// Derive `(max_batch, max_wait)` from the cost oracle's
    /// batch-latency curve at spawn instead of using the hand-set values
    /// (which then only serve as the batch-size ceiling). Requires a
    /// guaranteed `slo` budget to tune against.
    pub auto_tune: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 256,
            max_batch: 8,
            max_wait: Duration::from_micros(2_000),
            workers: available_workers(),
            precision: Precision::Fp32,
            default_deadline: None,
            arena_budget_bytes: DEFAULT_ARENA_BUDGET_BYTES,
            slo: None,
            auto_tune: false,
        }
    }
}

impl ServeConfig {
    /// Select a precision, keeping the other options.
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }

    /// Select a micro-batch policy, keeping the other options.
    pub fn with_batching(mut self, max_batch: usize, max_wait: Duration) -> Self {
        self.max_batch = max_batch;
        self.max_wait = max_wait;
        self
    }

    /// Select a worker count, keeping the other options.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Select a submission-queue capacity, keeping the other options.
    pub fn with_queue(mut self, queue_capacity: usize) -> Self {
        self.queue_capacity = queue_capacity;
        self
    }

    /// Attach a default SLO class, keeping the other options.
    pub fn with_slo(mut self, slo: SloSpec) -> Self {
        self.slo = Some(slo);
        self
    }

    /// Enable oracle-driven `(max_batch, max_wait)` auto-tuning at
    /// spawn, keeping the other options.
    pub fn with_auto_tune(mut self, auto_tune: bool) -> Self {
        self.auto_tune = auto_tune;
        self
    }

    /// Raw-scalar view of this config for the `mlcnn-check` `V0xx` pass,
    /// bound to the plan it would serve.
    pub fn lint(&self, name: &str, plan: &ExecutionPlan) -> ServeConfigLint {
        ServeConfigLint {
            name: name.to_string(),
            queue_capacity: self.queue_capacity,
            max_batch: self.max_batch,
            max_wait_micros: self.max_wait.as_micros().min(u64::MAX as u128) as u64,
            workers: self.workers,
            available_parallelism: available_workers(),
            arena_bytes_per_worker: plan.arena_bytes(self.max_batch),
            arena_budget_bytes: self.arena_budget_bytes,
        }
    }

    /// Run the `V0xx` gate; denials become [`ServeError::Config`].
    pub fn validate(&self, name: &str, plan: &ExecutionPlan) -> Result<(), ServeError> {
        mlcnn_check::check_serve_config_summary(&self.lint(name, plan)).map_err(ServeError::Config)
    }
}

/// Hardware threads the host exposes (1 when unknown).
pub fn available_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}
