//! `mlcnn-sched` — SLO-aware scheduling primitives built on the paper's
//! analytic cost model.
//!
//! The repo's distinguishing asset is an *exact* op-count model for every
//! compiled plan (`mlcnn_core::opcount` / `core::analytic`). This crate
//! turns it into a serving-time **cost oracle** and derives every
//! scheduling decision from it instead of hand tuning:
//!
//! * [`cost::CostOracle`] — per-request cost from the plan's own op
//!   counts, calibrated against a short measured warmup; exposes
//!   predicted service time as a function of batch size (provably
//!   monotone in the batch).
//! * [`slo::SloClass`] / [`slo::SloSpec`] — the two serving classes
//!   (`guaranteed` with a latency budget vs `best_effort`), attached per
//!   model and carried on the wire.
//! * [`admission::AdmissionPolicy`] — cost-based admission control:
//!   a guaranteed request provably unable to meet its budget is rejected
//!   at submit time instead of queued and shed later.
//! * [`autotune`](mod@autotune) — sizes `(max_batch, max_wait)` per model from the
//!   oracle's batch-latency curve.
//! * [`arrivals::ArrivalSchedule`] — deterministic seeded open-loop
//!   arrival schedules (uniform + bursty) so overload experiments
//!   reproduce run-to-run and in CI.
//!
//! The serving integration (EDF batch formation, per-class metrics,
//! overload shedding) lives in `mlcnn-serve`; this crate stays free of
//! threads and sockets so every policy is unit-testable in virtual time.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod admission;
pub mod arrivals;
pub mod autotune;
pub mod cost;
pub mod slo;

pub use admission::AdmissionPolicy;
pub use arrivals::ArrivalSchedule;
pub use autotune::{autotune, TunedPolicy};
pub use cost::{plan_counts, step_counts, CostOracle};
pub use slo::{SloClass, SloSpec};
