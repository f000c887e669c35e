//! # mlcnn-quant
//!
//! Precision substrate for the MLCNN reproduction.
//!
//! The paper evaluates the accelerator at three operand widths (Table VII):
//! 32-bit floating point, 16-bit floating point and 8-bit fixed point, and
//! quantizes weights/activations with the DoReFa-Net scheme (Eqs. 8–9).
//! None of that machinery exists in the offline crate set, so it is built
//! here from scratch:
//!
//! * [`f16`](mod@f16) — software IEEE 754 binary16 with round-to-nearest-even
//!   conversion and arithmetic that rounds through binary16 after every
//!   operation (matching what FP16 MAC hardware produces for single
//!   operations). Implements `mlcnn_tensor::Scalar`, so every kernel in the
//!   workspace runs at FP16 unchanged.
//! * [`fixed`] — saturating Q-format 8-bit fixed point (`Fx8`), the INT8
//!   operand model, plus widening i32 MAC helpers mirroring the
//!   accelerator's adder tree.
//! * [`dorefa`] — DoReFa-style k-bit quantizers: the straight-through
//!   uniform quantizer of Eq. 8 for post-ReLU activations and the
//!   tanh-rescaled weight quantizer of Eq. 9.
//! * [`precision`] — the [`Precision`](precision::Precision) enum shared
//!   with the accelerator model (bit width, MAC-slice multiplier under the
//!   fixed area budget, per-op energy class).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod dorefa;
pub mod f16;
pub mod fixed;
pub mod precision;

pub use f16::F16;
pub use fixed::Fx8;
pub use precision::Precision;
