//! # mlcnn
//!
//! Facade crate for the MLCNN reproduction workspace (Jiang et al.,
//! *MLCNN: Cross-Layer Cooperative Optimization and Accelerator
//! Architecture for Speeding Up Deep Learning Applications*, IPDPS 2022).
//!
//! Re-exports the workspace crates under stable names:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`tensor`] | `mlcnn-tensor` | NCHW tensors and reference kernels |
//! | [`data`] | `mlcnn-data` | deterministic synthetic datasets |
//! | [`quant`] | `mlcnn-quant` | binary16, Q2.6 fixed point, DoReFa |
//! | [`nn`] | `mlcnn-nn` | trainable CNN framework + model zoo |
//! | [`core`] | `mlcnn-core` | the MLCNN contribution (reorder + fuse) |
//! | [`accel`] | `mlcnn-accel` | accelerator cycle & energy model |
//! | [`check`] | `mlcnn-check` | static analysis over specs, configs, tilings |
//! | [`serve`] | `mlcnn-serve` | micro-batching inference service, wire protocol + model router |
//! | [`net`] | `mlcnn-net` | event-driven, sharded epoll server (`mlcnn-served`) + mux client |
//!
//! ## The thirty-second tour
//!
//! Fuse a convolution with its (reordered) average pool and check it
//! computes the dense reference:
//!
//! ```
//! use mlcnn::core::FusedConvPool;
//! use mlcnn::tensor::{init, Shape4};
//!
//! let mut rng = init::rng(7);
//! let input = init::uniform(Shape4::new(1, 3, 12, 12), -1.0, 1.0, &mut rng);
//! let weight = init::kaiming(Shape4::new(8, 3, 3, 3), &mut rng);
//!
//! let fused = FusedConvPool::new(weight, vec![0.0; 8], 1, 1, 2).unwrap();
//! let mlcnn_out = fused.forward(&input).unwrap();
//! let dense_out = fused.reference(&input).unwrap(); // relu(avg_pool(conv(x)))
//! assert!(mlcnn_out.approx_eq(&dense_out, 1e-4));
//! ```
//!
//! Reorder a whole model and compile it into an execution plan — all
//! geometry resolved and weights baked at compile, zero steady-state
//! allocation at run time:
//!
//! ```
//! use mlcnn::core::{EvalPlan, PlanOptions, Workspace};
//! use mlcnn::core::reorder::reorder_activation_pool;
//! use mlcnn::nn::{spec::build_network, zoo};
//! use mlcnn::tensor::{init, Shape4};
//!
//! let specs = reorder_activation_pool(&zoo::lenet5_spec(10)).specs;
//! let input = Shape4::new(1, 3, 32, 32);
//! let mut net = build_network(&specs, input, 0).unwrap();
//! let plan = net.eval_plan(PlanOptions::default()).unwrap();
//! assert_eq!(plan.fused_op_count(), 2); // both LeNet pools fuse
//!
//! let mut ws = Workspace::for_plan(&plan, 1); // reusable arena
//! let x = init::uniform(input, -1.0, 1.0, &mut init::rng(1));
//! let logits = plan.forward(&x, &mut ws).unwrap(); // &self: Send + Sync
//! assert_eq!(logits.shape(), Shape4::new(1, 1, 1, 10));
//! ```
//!
//! Serve a compiled plan behind the dynamic micro-batching runtime:
//!
//! ```
//! use mlcnn::quant::Precision;
//! use mlcnn::serve::{find_model, ServeConfig, Service};
//! use mlcnn::tensor::{init, Shape4};
//! use std::sync::Arc;
//!
//! let model = find_model("mlp-mini").unwrap();
//! let plan = Arc::new(model.compile(Precision::Fp32).unwrap());
//! let svc = Service::spawn(plan, ServeConfig::default()).unwrap();
//! let x = init::uniform(Shape4::new(1, 3, 8, 8), -1.0, 1.0, &mut init::rng(2));
//! let logits = svc.infer(x).unwrap(); // batched with concurrent submitters
//! assert_eq!(logits.shape(), Shape4::new(1, 1, 1, 10));
//! assert!(svc.shutdown().fully_drained());
//! ```
//!
//! Simulate the paper's accelerators:
//!
//! ```
//! use mlcnn::accel::{config::AcceleratorConfig, cycle, energy::EnergyModel};
//! use mlcnn::nn::zoo;
//!
//! let em = EnergyModel::default();
//! let model = zoo::lenet5(10);
//! let base = cycle::simulate_model(&model, &AcceleratorConfig::dcnn_fp32(), &em);
//! let fast = cycle::simulate_model(&model, &AcceleratorConfig::mlcnn_fp32(), &em);
//! assert!(cycle::mean_speedup(&base, &fast) > 2.0);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub use mlcnn_accel as accel;
pub use mlcnn_check as check;
pub use mlcnn_core as core;
pub use mlcnn_data as data;
pub use mlcnn_net as net;
pub use mlcnn_nn as nn;
pub use mlcnn_quant as quant;
pub use mlcnn_sched as sched;
pub use mlcnn_serve as serve;
pub use mlcnn_tensor as tensor;

/// Everything a typical user needs, importable in one line.
pub mod prelude {
    pub use mlcnn_accel::config::AcceleratorConfig;
    pub use mlcnn_core::reorder::{reorder_activation_pool, to_all_conv_full};
    pub use mlcnn_core::{
        EvalPlan, ExecutionPlan, FusedConvPool, OpCounts, PlanOptions, Workspace,
    };
    pub use mlcnn_nn::spec::build_network;
    pub use mlcnn_nn::train::{evaluate, fit, TrainConfig};
    pub use mlcnn_nn::{LayerSpec, Network};
    pub use mlcnn_quant::Precision;
    pub use mlcnn_serve::{ServeConfig, Service};
    pub use mlcnn_tensor::{Shape4, Tensor};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_is_usable() {
        use crate::prelude::*;
        let _ = Shape4::new(1, 3, 32, 32);
        let _ = AcceleratorConfig::table7();
        let _ = Precision::ALL;
        let _: Vec<LayerSpec> = mlcnn_nn::zoo::lenet5_spec(10);
    }
}
