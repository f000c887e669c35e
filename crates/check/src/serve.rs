//! Serving-runtime configuration lints (`V0xx`).
//!
//! `mlcnn-serve` composes a bounded submission queue, a `(max_batch,
//! max_wait)` micro-batcher, and a worker pool around a compiled
//! `ExecutionPlan` — four knobs that are easy to mis-set long before any
//! request flows. As with the accelerator lints, this module takes *raw
//! scalars* rather than `mlcnn-serve` types (the serve crate sits above
//! the checker and calls in from `Service::spawn`, mirroring how
//! `ExecutionPlan::compile` gates on the S/F codes).

use crate::diag::{Code, Reporter};

/// Sanity ceiling for `max_wait`: a micro-batcher holding requests longer
/// than this is almost certainly a time-unit mistake (the plan executor
/// finishes any zoo model in well under a second).
pub const MAX_WAIT_CEILING_MICROS: u64 = 1_000_000;

/// Raw view of a serving configuration for linting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfigLint {
    /// Service name, used in messages.
    pub name: String,
    /// Bounded submission-queue capacity (requests).
    pub queue_capacity: usize,
    /// Micro-batch size ceiling.
    pub max_batch: usize,
    /// Micro-batch coalescing window in microseconds.
    pub max_wait_micros: u64,
    /// Worker-thread count.
    pub workers: usize,
    /// Hardware threads the host exposes (`0` when unknown — skips the
    /// oversubscription check).
    pub available_parallelism: usize,
    /// Workspace arena bytes one worker needs at `max_batch` (from
    /// `ExecutionPlan::arena_bytes`; `0` when no plan is at hand).
    pub arena_bytes_per_worker: usize,
    /// Total arena memory budget in bytes across all workers.
    pub arena_budget_bytes: usize,
}

/// Lint one serving configuration.
pub fn check_serve_config(cfg: &ServeConfigLint, reporter: &mut Reporter) {
    reporter.with_context(cfg.name.clone(), |reporter| {
        if cfg.queue_capacity == 0 {
            reporter.emit(
                Code::ZeroQueueCapacity,
                None,
                "submission queue capacity is zero; every request would be \
                 rejected as queue-full",
            );
        }
        if cfg.max_batch == 0 {
            reporter.emit(
                Code::ZeroMaxBatch,
                None,
                "max_batch is zero; the micro-batcher could never form a batch",
            );
        }
        if cfg.workers == 0 {
            reporter.emit(
                Code::ZeroServeWorkers,
                None,
                "worker count is zero; dispatched batches would never execute",
            );
        }
        if cfg.max_wait_micros > MAX_WAIT_CEILING_MICROS {
            reporter.emit(
                Code::ExcessiveMaxWait,
                None,
                format!(
                    "max_wait of {} µs exceeds the {} µs sanity ceiling; \
                     batching delay would dominate end-to-end latency",
                    cfg.max_wait_micros, MAX_WAIT_CEILING_MICROS
                ),
            );
        }
        if cfg.available_parallelism > 0 && cfg.workers > cfg.available_parallelism {
            reporter.emit(
                Code::WorkersExceedParallelism,
                None,
                format!(
                    "{} workers on a host with {} hardware threads; the \
                     surplus only adds context switching",
                    cfg.workers, cfg.available_parallelism
                ),
            );
        }
        if cfg.max_batch > cfg.queue_capacity && cfg.queue_capacity > 0 {
            reporter.emit(
                Code::BatchExceedsQueue,
                None,
                format!(
                    "max_batch {} exceeds the queue capacity {}; a full \
                     batch can never accumulate",
                    cfg.max_batch, cfg.queue_capacity
                ),
            );
        }
        let total_arena = cfg.arena_bytes_per_worker.saturating_mul(cfg.workers);
        if cfg.arena_budget_bytes > 0 && total_arena > cfg.arena_budget_bytes {
            reporter.emit(
                Code::ArenaBudgetExceeded,
                None,
                format!(
                    "{} workers × {} arena bytes at max_batch = {} bytes, \
                     over the {} byte budget",
                    cfg.workers, cfg.arena_bytes_per_worker, total_arena, cfg.arena_budget_bytes
                ),
            );
        }
    });
}

/// [`check_serve_config`] with denial diagnostics flattened into one
/// `"; "`-joined summary — the form `mlcnn_serve::Service::spawn` embeds
/// in its error value, matching [`crate::check_compile_summary`].
pub fn check_serve_config_summary(cfg: &ServeConfigLint) -> Result<(), String> {
    let mut reporter = Reporter::new();
    check_serve_config(cfg, &mut reporter);
    if reporter.has_deny() {
        Err(reporter
            .diagnostics()
            .iter()
            .filter(|d| d.severity == crate::Severity::Deny)
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("; "))
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Severity;

    fn sane() -> ServeConfigLint {
        ServeConfigLint {
            name: "svc".into(),
            queue_capacity: 256,
            max_batch: 8,
            max_wait_micros: 2_000,
            workers: 2,
            available_parallelism: 4,
            arena_bytes_per_worker: 1 << 20,
            arena_budget_bytes: 1 << 30,
        }
    }

    #[test]
    fn sane_config_is_clean() {
        let mut r = Reporter::new();
        check_serve_config(&sane(), &mut r);
        assert!(r.is_clean(), "{}", r.pretty());
        assert!(check_serve_config_summary(&sane()).is_ok());
    }

    #[test]
    fn zero_queue_capacity_is_v001() {
        let mut cfg = sane();
        cfg.queue_capacity = 0;
        let mut r = Reporter::new();
        check_serve_config(&cfg, &mut r);
        let d = r.find(Code::ZeroQueueCapacity).unwrap();
        assert_eq!(d.severity, Severity::Deny);
        // no spurious batch-exceeds-queue diagnostic rides along
        assert!(r.find(Code::BatchExceedsQueue).is_none());
    }

    #[test]
    fn zero_batch_and_workers_are_v002_v003() {
        let mut cfg = sane();
        cfg.max_batch = 0;
        cfg.workers = 0;
        let mut r = Reporter::new();
        check_serve_config(&cfg, &mut r);
        assert!(r.find(Code::ZeroMaxBatch).is_some());
        assert!(r.find(Code::ZeroServeWorkers).is_some());
        assert!(check_serve_config_summary(&cfg).is_err());
    }

    #[test]
    fn excessive_max_wait_warns_v004() {
        let mut cfg = sane();
        cfg.max_wait_micros = MAX_WAIT_CEILING_MICROS + 1;
        let mut r = Reporter::new();
        check_serve_config(&cfg, &mut r);
        let d = r.find(Code::ExcessiveMaxWait).unwrap();
        assert_eq!(d.severity, Severity::Warn);
        // warnings never fail the construction gate
        assert!(check_serve_config_summary(&cfg).is_ok());
    }

    #[test]
    fn oversubscription_warns_v005_unless_unknown() {
        let mut cfg = sane();
        cfg.workers = 16;
        let mut r = Reporter::new();
        check_serve_config(&cfg, &mut r);
        assert_eq!(
            r.find(Code::WorkersExceedParallelism).unwrap().severity,
            Severity::Warn
        );
        cfg.available_parallelism = 0;
        let mut r = Reporter::new();
        check_serve_config(&cfg, &mut r);
        assert!(r.find(Code::WorkersExceedParallelism).is_none());
    }

    #[test]
    fn batch_wider_than_queue_warns_v006() {
        let mut cfg = sane();
        cfg.max_batch = 512;
        let mut r = Reporter::new();
        check_serve_config(&cfg, &mut r);
        assert_eq!(
            r.find(Code::BatchExceedsQueue).unwrap().severity,
            Severity::Warn
        );
    }

    #[test]
    fn arena_overrun_denies_v007() {
        let mut cfg = sane();
        cfg.arena_bytes_per_worker = 1 << 30;
        cfg.workers = 4;
        cfg.available_parallelism = 4;
        cfg.arena_budget_bytes = 1 << 30;
        let mut r = Reporter::new();
        check_serve_config(&cfg, &mut r);
        let d = r.find(Code::ArenaBudgetExceeded).unwrap();
        assert_eq!(d.severity, Severity::Deny);
        assert!(check_serve_config_summary(&cfg).is_err());
    }

    #[test]
    fn v_codes_have_stable_strings() {
        assert_eq!(Code::ZeroQueueCapacity.as_str(), "V001");
        assert_eq!(Code::ZeroMaxBatch.as_str(), "V002");
        assert_eq!(Code::ZeroServeWorkers.as_str(), "V003");
        assert_eq!(Code::ExcessiveMaxWait.as_str(), "V004");
        assert_eq!(Code::WorkersExceedParallelism.as_str(), "V005");
        assert_eq!(Code::BatchExceedsQueue.as_str(), "V006");
        assert_eq!(Code::ArenaBudgetExceeded.as_str(), "V007");
    }
}
