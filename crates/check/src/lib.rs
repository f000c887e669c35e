//! Static analysis for MLCNN network specs, fusion legality, and
//! accelerator configurations.
//!
//! The rest of the workspace describes everything declaratively — networks
//! as [`LayerSpec`] lists, hardware as plain config structs, tilings as
//! four extents — which makes the data easy to get subtly wrong long
//! before anything executes. This crate checks that data *before* it is
//! built, simulated, or swept:
//!
//! * [`shape::check_shapes`] — shape inference over a spec list, with a
//!   specific diagnostic per rejection class (`S0xx` codes) and
//!   warning-level smells (a pool that drops rows, a `Linear` on an
//!   unflattened map);
//! * [`fusion::check_fusion`] — classifies every average pool against the
//!   fused conv-pool datapath (`F0xx`), reporting the predicted
//!   multiplication saving `1 − 1/Kp²` for fusable groups;
//! * [`accel::check_accel_config`] / [`accel::check_tiling`] — Table VII
//!   invariants and tile-footprint checks (`A0xx`);
//! * [`serve::check_serve_config`] — serving-runtime configuration checks
//!   (`V0xx`): queue capacity, micro-batch policy, worker sizing and
//!   workspace-arena budgets, gating `mlcnn_serve::Service::spawn` the way
//!   [`check_compile`] gates the compilers;
//! * [`registry::check_registry_scan`] — model-registry artifact checks
//!   (`R0xx`): corrupt bundles, spec/parameter disagreement, incompilable
//!   specs, and duplicate `model@revision` identities, gating
//!   `ModelRegistry::open` so no request-time path ever touches a bad
//!   artifact;
//! * [`plan::check_plan`] — dataflow verification of *compiled* execution
//!   plans (`P0xx`): symbolic execution over the abstract ping-pong
//!   workspace, proving the shape chain, in-place aliasing, exact arena
//!   bounds, parameter agreement and rounding placement the executor
//!   relies on — the one pass that checks the compiler's *output* rather
//!   than its inputs;
//! * [`qrange::check_qrange`] — quantization range analysis (`Q0xx`):
//!   interval propagation through FP16/INT8 plans, flagging saturation
//!   and collapse-to-zero risks and emitting the per-layer scale report
//!   the planned integer INT8 kernel will consume;
//! * [`net::check_net_config`] — event-driven network front-end checks
//!   (`N0xx`): reactor shard sizing, connection caps, pipelining depth
//!   against the service queue, and idle-timeout bounds, gating
//!   `mlcnn_net::NetServer::spawn` the same way the `V0xx` lints gate
//!   `Service::spawn`;
//! * [`slo::check_slo_config`] — SLO-configuration checks (`D0xx`):
//!   class/budget consistency and budget feasibility against the cost
//!   oracle's predictions (budget inside the batching window, budget
//!   below the single-item service floor), denying promises the
//!   scheduler provably cannot keep.
//!
//! All passes report through [`diag::Reporter`], which collects
//! [`diag::Diagnostic`]s with stable codes, supports a deny-warnings mode,
//! and renders as text or JSON. The `mlcnn-lint` binary in the workspace
//! root runs the whole suite over the model zoo and the paper's hardware
//! configs.
//!
//! Higher-level crates consume two entry points here:
//! [`check_compile`] gates `ExecutionPlan::compile`, and [`lint_network`]
//! is the one-call "lint this spec" used by the binary and the bench
//! reports.

#![forbid(unsafe_code)]

pub mod accel;
pub mod diag;
pub mod fusion;
pub mod net;
pub mod plan;
pub mod qrange;
pub mod registry;
pub mod serve;
pub mod shape;
pub mod slo;

pub use accel::{check_accel_config, check_tiling, AccelConfigLint, TilingLint};
pub use diag::{code_table_markdown, Code, Diagnostic, Reporter, Severity, Span};
pub use fusion::{check_fusion, rme_ratio, FusionClass, FusionGroup};
pub use net::{check_net_config, check_net_config_summary, NetConfigLint};
pub use plan::{check_plan, ChannelProfile, OpView, ParamProfile, PlanView, StepView};
pub use qrange::{check_qrange, QRangeOptions, QRangeReport, StepRange};
pub use registry::{
    check_registry_scan, check_registry_scan_summary, ArtifactFinding, ArtifactLint,
};
pub use serve::{check_serve_config, check_serve_config_summary, ServeConfigLint};
pub use shape::{check_shapes, ShapeTrace};
pub use slo::{check_slo_config, check_slo_config_summary, SloConfigLint};

use mlcnn_nn::LayerSpec;
use mlcnn_tensor::Shape4;

/// Check that a spec list is acceptable to `ExecutionPlan::compile`: the
/// shapes must propagate, and the pipeline must be strictly sequential
/// (the fused executor flattens no composites and folds no batch norm).
///
/// Returns the denial diagnostics on failure; warnings never fail this
/// gate.
pub fn check_compile(specs: &[LayerSpec], input: Shape4) -> Result<(), Vec<Diagnostic>> {
    let mut reporter = Reporter::new();
    shape::check_shapes(specs, input, &mut reporter);
    for (i, spec) in specs.iter().enumerate() {
        match spec {
            LayerSpec::Inception { .. }
            | LayerSpec::DenseBlock { .. }
            | LayerSpec::Residual { .. } => {
                reporter.emit(
                    Code::CompositeNotCompilable,
                    Some(Span::layer(i)),
                    "the fused executor handles sequential pipelines only; \
                     flatten this composite layer first",
                );
            }
            LayerSpec::BatchNorm => {
                reporter.emit(
                    Code::BatchNormNotFoldable,
                    Some(Span::layer(i)),
                    "fold batch norm into the preceding convolution before \
                     compiling for the fused executor",
                );
            }
            _ => {}
        }
    }
    if reporter.has_deny() {
        Err(reporter
            .into_diagnostics()
            .into_iter()
            .filter(|d| d.severity == Severity::Deny)
            .collect())
    } else {
        Ok(())
    }
}

/// [`check_compile`] with the denial diagnostics flattened into one
/// `"; "`-joined summary string — the form the execution-plan and fused-
/// network compilers embed in their error values, kept here so every
/// compiler front-end reports identically.
pub fn check_compile_summary(specs: &[LayerSpec], input: Shape4) -> Result<(), String> {
    check_compile(specs, input).map_err(|diags| {
        diags
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("; ")
    })
}

/// Run the full network lint suite — shape inference, then fusion
/// classification fed by the inferred shapes — under one reporter.
pub fn lint_network(
    name: &str,
    specs: &[LayerSpec],
    input: Shape4,
    deny_warnings: bool,
) -> Reporter {
    let mut reporter = if deny_warnings {
        Reporter::deny_warnings()
    } else {
        Reporter::new()
    };
    reporter.with_context(name.to_string(), |r| {
        let trace = shape::check_shapes(specs, input, r);
        // shapes[i] is the input of layer i, so a global pool's effective
        // window is that plane's extent
        let windows: Vec<Option<usize>> = (0..specs.len())
            .map(|i| trace.shapes.get(i).map(|s| s.h))
            .collect();
        fusion::check_fusion(specs, |i| windows.get(i).copied().flatten(), r);
    });
    reporter
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_gate_accepts_sequential_lenet() {
        let specs = mlcnn_nn::zoo::lenet5_spec(10);
        assert!(check_compile(&specs, Shape4::new(1, 3, 32, 32)).is_ok());
    }

    #[test]
    fn compile_gate_rejects_composites_with_f004() {
        let specs = vec![LayerSpec::Residual {
            inner: vec![LayerSpec::conv3(3)],
            projector: vec![],
        }];
        let diags = check_compile(&specs, Shape4::new(1, 3, 8, 8)).unwrap_err();
        assert!(diags.iter().any(|d| d.code == Code::CompositeNotCompilable));
    }

    #[test]
    fn compile_gate_rejects_batchnorm_with_f005() {
        let specs = vec![LayerSpec::conv3(8), LayerSpec::BatchNorm];
        let diags = check_compile(&specs, Shape4::new(1, 3, 8, 8)).unwrap_err();
        assert!(diags.iter().any(|d| d.code == Code::BatchNormNotFoldable));
    }

    #[test]
    fn compile_gate_rejects_bad_shapes() {
        let specs = vec![LayerSpec::Conv {
            out_ch: 4,
            k: 64,
            stride: 1,
            pad: 0,
        }];
        let diags = check_compile(&specs, Shape4::new(1, 3, 8, 8)).unwrap_err();
        assert!(diags.iter().any(|d| d.code == Code::KernelExceedsInput));
    }

    #[test]
    fn lint_network_derives_global_pool_windows() {
        // conv keeps 8x8, so the global pool fuses with window 8
        let specs = vec![LayerSpec::conv3(8), LayerSpec::GlobalAvgPool];
        let r = lint_network("g", &specs, Shape4::new(1, 3, 8, 8), false);
        assert!(r.is_clean(), "{}", r.pretty());
    }

    #[test]
    fn deny_warnings_escalates_zoo_reorder_warnings() {
        let specs = mlcnn_nn::zoo::lenet5_spec(10);
        let relaxed = lint_network("lenet5", &specs, Shape4::new(1, 3, 32, 32), false);
        assert!(!relaxed.has_deny(), "{}", relaxed.pretty());
        let strict = lint_network("lenet5", &specs, Shape4::new(1, 3, 32, 32), true);
        assert!(strict.has_deny());
    }
}
