//! The compiled execution plan: one inference engine behind every
//! forward path.
//!
//! [`ExecutionPlan::compile`] turns a *sequential* [`LayerSpec`] pipeline
//! plus its trained parameters into a flat list of ops with all geometry
//! resolved, Linear weights pre-transposed, and (for reduced precisions)
//! weights pre-quantized — work the legacy paths redid on every call. The
//! plan executes out of a [`Workspace`] arena of ping-pong buffers sized at
//! compile time, so steady-state [`ExecutionPlan::forward`] performs **zero
//! heap allocation** beyond the returned tensor (none at all via
//! [`ExecutionPlan::forward_into`]).
//!
//! `forward` takes `&self` and the plan is `Send + Sync`: one compiled plan
//! can serve many threads, each holding its own workspace — the
//! multi-mode-engine shape argued for by the cross-layer-reuse literature,
//! and the substrate the serving/batching roadmap items build on.
//!
//! Mode selection is the accelerator's: with [`PlanOptions::fuse`] on,
//! `Conv, AvgPool{w==s}[, ReLU]` and `Conv, GlobalAvgPool[, ReLU]` groups
//! run through the MLCNN fused operator (Algorithm 1) — the fused mode —
//! and everything else runs the reference kernels — the regular mode. All
//! kernels are the shared `_into` slice variants from `mlcnn-tensor`, so
//! the layerwise plan is bitwise identical to the `Network` /
//! `forward_quantized` paths it replaces.

mod exec;
mod segments;
mod view;
mod workspace;

pub use segments::{ParamHandle, SegmentKey, SegmentStats, SegmentStore};
pub use workspace::{PooledWorkspace, Workspace, WorkspacePool};

use crate::content::Sha256;
use crate::fused::FusedConvPool;
use crate::quantized::round_tensor_f16;
use mlcnn_nn::{LayerSpec, Network};
use mlcnn_quant::{dorefa, Precision};
use mlcnn_tensor::linalg::transpose;
use mlcnn_tensor::parallel::par_map_batch;
use mlcnn_tensor::{ConvGeometry, PoolGeometry, Result, Shape2, Shape4, Tensor, TensorError};
use segments::{Fingerprint, Segment};
use std::sync::Arc;

use crate::fused::FusedGeometry;

/// Compilation knobs for [`ExecutionPlan::compile`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanOptions {
    /// Numeric precision: weights are pre-quantized at compile, activations
    /// re-rounded through the precision's grid after each op at run time
    /// (the reduced-precision datapath semantics of `forward_quantized`).
    pub precision: Precision,
    /// Fuse `Conv, AvgPool[, ReLU]` groups into the MLCNN fused operator.
    /// Disable to reproduce the layerwise paths exactly (required for
    /// bit-identity with `Network::forward` / `forward_quantized`, which
    /// round between conv and pool).
    pub fuse: bool,
}

impl Default for PlanOptions {
    fn default() -> Self {
        Self {
            precision: Precision::Fp32,
            fuse: true,
        }
    }
}

impl PlanOptions {
    /// Layerwise (unfused) plan at FP32 — the `Network::forward` twin.
    pub fn layerwise() -> Self {
        Self {
            precision: Precision::Fp32,
            fuse: false,
        }
    }

    /// Select a precision, keeping the other options.
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }

    /// Toggle fusion, keeping the other options.
    pub fn with_fusion(mut self, fuse: bool) -> Self {
        self.fuse = fuse;
        self
    }
}

/// One executable op with fully resolved geometry and baked weights.
///
/// Parameter blocks are held behind `Arc`s: a plan compiled through a
/// [`SegmentStore`] ([`ExecutionPlan::compile_shared`]) shares them with
/// every other plan whose source layer has the same content hash, so a
/// revision that changes one layer keeps a single resident copy of all the
/// others. Plans compiled without a store get private (but still `Arc`'d)
/// segments — execution is identical either way.
pub(crate) enum Op {
    /// MLCNN fused conv + avg-pool (+ ReLU) group.
    Fused {
        kernel: Arc<FusedConvPool<f32>>,
        geom: FusedGeometry,
    },
    /// Plain convolution (regular mode), executed im2col + GEMM.
    Conv {
        weight: Arc<Tensor<f32>>,
        bias: Arc<Vec<f32>>,
        geom: ConvGeometry,
    },
    /// ReLU, in place.
    ReLU,
    /// Sigmoid, in place.
    Sigmoid,
    /// Average pooling.
    AvgPool(PoolGeometry),
    /// Max pooling (values only; inference needs no argmax).
    MaxPool(PoolGeometry),
    /// Flatten: pure shape bookkeeping, no data movement.
    Flatten,
    /// Fully connected layer with the weight pre-transposed to
    /// `in × out` so the forward GEMM needs no per-call transpose.
    Linear {
        weight_t: Arc<Vec<f32>>,
        bias: Arc<Vec<f32>>,
        in_features: usize,
        out_features: usize,
    },
}

/// A baked bias or pre-transposed weight vector, shareable across plans.
type SharedVec = Arc<Vec<f32>>;

/// Quantize a source FP32 weight into its baked form for `precision` —
/// the single definition both the private and the shared compile paths
/// bake through, so a segment-store hit is bitwise identical to a private
/// bake by construction.
fn bake_weight(precision: Precision, w: Tensor<f32>) -> Tensor<f32> {
    match precision {
        Precision::Fp32 => w,
        Precision::Fp16 => round_tensor_f16(&w),
        Precision::Int8 => dorefa::quantize_weights_ptq(&w, 8),
    }
}

fn precision_tag(p: Precision) -> u8 {
    match p {
        Precision::Fp32 => 0,
        Precision::Fp16 => 1,
        Precision::Int8 => 2,
    }
}

/// Common prefix of every segment content hash: domain tag, segment form,
/// precision, and the source weight's shape. Callers append form-specific
/// geometry and then the FP32 parameter bytes.
fn segment_hasher(form: u8, precision: Precision, w: &Tensor<f32>) -> Sha256 {
    let mut h = Sha256::new();
    h.update(b"mlcnn-seg-v1");
    h.update(&[form, precision_tag(precision)]);
    let s = w.shape();
    h.update_usize(s.n);
    h.update_usize(s.c);
    h.update_usize(s.h);
    h.update_usize(s.w);
    h
}

/// Bake (or share) a plain conv segment: quantized weight + bias.
fn shared_conv(
    store: Option<&SegmentStore>,
    precision: Precision,
    w: Tensor<f32>,
    b: Tensor<f32>,
) -> Result<(Arc<Tensor<f32>>, SharedVec)> {
    let expect = Fingerprint {
        form: 0,
        weight_len: w.len(),
        bias_len: b.len(),
    };
    let key = store.map(|_| {
        let mut h = segment_hasher(0, precision, &w);
        h.update_f32(w.as_slice());
        h.update_f32(b.as_slice());
        h.finish()
    });
    let bake = move || -> Result<Segment> {
        Ok(Segment::Conv {
            weight: Arc::new(bake_weight(precision, w)),
            bias: Arc::new(b.into_vec()),
        })
    };
    let seg = match (store, key) {
        (Some(s), Some(key)) => s.get_or_bake(key, expect, bake)?,
        _ => bake()?,
    };
    match seg {
        Segment::Conv { weight, bias } => Ok((weight, bias)),
        _ => unreachable!("conv content key always bakes a conv segment"),
    }
}

/// Bake (or share) a fused conv-pool kernel. The kernel embeds its conv
/// stride/pad, pool window and ReLU flag but *not* the input geometry, so
/// one shared kernel serves plans over any input size.
#[allow(clippy::too_many_arguments)]
fn shared_fused(
    store: Option<&SegmentStore>,
    precision: Precision,
    w: Tensor<f32>,
    b: Tensor<f32>,
    stride: usize,
    pad: usize,
    window: usize,
    with_relu: bool,
) -> Result<Arc<FusedConvPool<f32>>> {
    let expect = Fingerprint {
        form: 2,
        weight_len: w.len(),
        bias_len: b.len(),
    };
    let key = store.map(|_| {
        let mut h = segment_hasher(2, precision, &w);
        h.update_usize(stride);
        h.update_usize(pad);
        h.update_usize(window);
        h.update(&[u8::from(with_relu)]);
        h.update_f32(w.as_slice());
        h.update_f32(b.as_slice());
        h.finish()
    });
    let bake = move || -> Result<Segment> {
        let kernel =
            FusedConvPool::new(bake_weight(precision, w), b.into_vec(), stride, pad, window)?
                .with_relu(with_relu);
        Ok(Segment::Fused {
            kernel: Arc::new(kernel),
        })
    };
    let seg = match (store, key) {
        (Some(s), Some(key)) => s.get_or_bake(key, expect, bake)?,
        _ => bake()?,
    };
    match seg {
        Segment::Fused { kernel } => Ok(kernel),
        _ => unreachable!("fused content key always bakes a fused segment"),
    }
}

/// Bake (or share) a linear segment: pre-transposed quantized weight + bias.
fn shared_linear(
    store: Option<&SegmentStore>,
    precision: Precision,
    w: Tensor<f32>,
    b: Tensor<f32>,
    in_features: usize,
    out_features: usize,
) -> Result<(SharedVec, SharedVec)> {
    let expect = Fingerprint {
        form: 1,
        weight_len: w.len(),
        bias_len: b.len(),
    };
    let key = store.map(|_| {
        let mut h = segment_hasher(1, precision, &w);
        h.update_usize(in_features);
        h.update_usize(out_features);
        h.update_f32(w.as_slice());
        h.update_f32(b.as_slice());
        h.finish()
    });
    let bake = move || -> Result<Segment> {
        let wq = bake_weight(precision, w);
        let weight_t = transpose(wq.as_slice(), Shape2::new(out_features, in_features));
        Ok(Segment::Linear {
            weight_t: Arc::new(weight_t),
            bias: Arc::new(b.into_vec()),
        })
    };
    let seg = match (store, key) {
        (Some(s), Some(key)) => s.get_or_bake(key, expect, bake)?,
        _ => bake()?,
    };
    match seg {
        Segment::Linear { weight_t, bias } => Ok((weight_t, bias)),
        _ => unreachable!("linear content key always bakes a linear segment"),
    }
}

/// An op plus its per-item input/output shapes (batch dim fixed at 1) and
/// whether the precision's activation rounding applies after it.
pub(crate) struct Step {
    pub(crate) op: Op,
    pub(crate) in_shape: Shape4,
    pub(crate) out_shape: Shape4,
    pub(crate) round_after: bool,
}

/// A compiled, shareable (`Send + Sync`) inference pipeline. See the
/// [module docs](self).
pub struct ExecutionPlan {
    pub(crate) steps: Vec<Step>,
    pub(crate) input_shape: Shape4,
    pub(crate) output_shape: Shape4,
    pub(crate) precision: Precision,
    /// Largest per-item activation buffer any step needs (elements).
    pub(crate) buf_item_len: usize,
    /// Largest per-item im2col scratch any conv step needs (elements).
    pub(crate) cols_item_len: usize,
}

impl ExecutionPlan {
    /// Compile a sequential spec list plus its trained parameters (in
    /// `Network::export_params` order: conv/linear layers contribute
    /// `[weight, bias]` pairs in execution order). The static gate
    /// `mlcnn_check::check_compile` runs first: composites and batch norm
    /// are rejected with their diagnostic codes; dropout is identity at
    /// inference and compiles to nothing. Leftover or missing parameters
    /// are errors.
    pub fn compile(
        specs: &[LayerSpec],
        params: &[Tensor<f32>],
        input: Shape4,
        opts: PlanOptions,
    ) -> Result<ExecutionPlan> {
        Self::compile_with(specs, params, input, opts, None)
    }

    /// [`Self::compile`] deduplicating baked parameter segments through a
    /// content-addressed [`SegmentStore`]: every conv / fused / linear
    /// segment is keyed by a SHA-256 over its source form (geometry,
    /// precision, FP32 parameters) and shared with any other plan compiled
    /// through the same store whose layer hashes identically — other
    /// revisions of the same model, or structurally identical layers of
    /// different models. The compiled plan is bitwise identical to
    /// [`Self::compile`]'s output; only the ownership of the baked bytes
    /// changes.
    pub fn compile_shared(
        specs: &[LayerSpec],
        params: &[Tensor<f32>],
        input: Shape4,
        opts: PlanOptions,
        store: &SegmentStore,
    ) -> Result<ExecutionPlan> {
        Self::compile_with(specs, params, input, opts, Some(store))
    }

    fn compile_with(
        specs: &[LayerSpec],
        params: &[Tensor<f32>],
        input: Shape4,
        opts: PlanOptions,
        store: Option<&SegmentStore>,
    ) -> Result<ExecutionPlan> {
        mlcnn_check::check_compile_summary(specs, input)
            .map_err(|reason| TensorError::BadGeometry { reason })?;
        let precision = opts.precision;
        let mut steps: Vec<(Step, usize)> = Vec::new(); // step + source spec index
        let mut shape = Shape4::new(1, input.c, input.h, input.w);
        let mut p = 0usize; // parameter cursor
        let mut i = 0usize;

        let take_pair = |p: &mut usize| -> Result<(Tensor<f32>, Tensor<f32>)> {
            if *p + 2 > params.len() {
                return Err(TensorError::BadGeometry {
                    reason: "parameter list exhausted during compile".into(),
                });
            }
            let w = params[*p].clone();
            let b = params[*p + 1].clone();
            *p += 2;
            Ok((w, b))
        };
        let push = |steps: &mut Vec<(Step, usize)>,
                    shape: &mut Shape4,
                    op: Op,
                    out: Shape4,
                    spec_idx: usize| {
            steps.push((
                Step {
                    op,
                    in_shape: *shape,
                    out_shape: out,
                    round_after: false, // filled in below, once
                },
                spec_idx,
            ));
            *shape = out;
        };

        while i < specs.len() {
            match &specs[i] {
                LayerSpec::Conv {
                    out_ch,
                    k,
                    stride,
                    pad,
                } => {
                    let (w, b) = take_pair(&mut p)?;
                    if w.shape() != Shape4::new(*out_ch, shape.c, *k, *k) {
                        return Err(TensorError::ShapeMismatch {
                            left: w.shape(),
                            right: Shape4::new(*out_ch, shape.c, *k, *k),
                            op: "compile conv weights",
                        });
                    }
                    let geom = ConvGeometry::new(shape.h, shape.w, *k, *k, *stride, *pad)?;
                    // look ahead for a fusable pool
                    let pool = if opts.fuse {
                        match specs.get(i + 1) {
                            Some(LayerSpec::AvgPool { window, stride: ps }) if window == ps => {
                                Some(*window)
                            }
                            Some(LayerSpec::GlobalAvgPool) if geom.out_h == geom.out_w => {
                                Some(geom.out_h)
                            }
                            _ => None,
                        }
                    } else {
                        None
                    };
                    match pool {
                        Some(window) if window <= geom.out_h && window <= geom.out_w => {
                            let with_relu = matches!(specs.get(i + 2), Some(LayerSpec::ReLU));
                            let kernel = shared_fused(
                                store, precision, w, b, *stride, *pad, window, with_relu,
                            )?;
                            let fgeom = kernel.geometry(shape)?;
                            let out = kernel.out_shape(shape)?;
                            let group_end = i + if with_relu { 2 } else { 1 };
                            push(
                                &mut steps,
                                &mut shape,
                                Op::Fused {
                                    kernel,
                                    geom: fgeom,
                                },
                                out,
                                group_end,
                            );
                            i = group_end + 1;
                            continue;
                        }
                        _ => {
                            let (weight, bias) = shared_conv(store, precision, w, b)?;
                            let out = Shape4::new(1, *out_ch, geom.out_h, geom.out_w);
                            push(
                                &mut steps,
                                &mut shape,
                                Op::Conv { weight, bias, geom },
                                out,
                                i,
                            );
                        }
                    }
                }
                LayerSpec::ReLU => {
                    let out = shape;
                    push(&mut steps, &mut shape, Op::ReLU, out, i);
                }
                LayerSpec::Sigmoid => {
                    let out = shape;
                    push(&mut steps, &mut shape, Op::Sigmoid, out, i);
                }
                LayerSpec::AvgPool { window, stride } => {
                    let g = PoolGeometry::new(shape.h, shape.w, *window, *stride)?;
                    let out = Shape4::new(1, shape.c, g.out_h, g.out_w);
                    push(&mut steps, &mut shape, Op::AvgPool(g), out, i);
                }
                LayerSpec::GlobalAvgPool => {
                    let g = PoolGeometry::new(shape.h, shape.w, shape.h, shape.h)?;
                    let out = Shape4::new(1, shape.c, g.out_h, g.out_w);
                    push(&mut steps, &mut shape, Op::AvgPool(g), out, i);
                }
                LayerSpec::MaxPool { window, stride } => {
                    let g = PoolGeometry::new(shape.h, shape.w, *window, *stride)?;
                    let out = Shape4::new(1, shape.c, g.out_h, g.out_w);
                    push(&mut steps, &mut shape, Op::MaxPool(g), out, i);
                }
                LayerSpec::Flatten => {
                    let out = Shape4::new(1, 1, 1, shape.c * shape.h * shape.w);
                    push(&mut steps, &mut shape, Op::Flatten, out, i);
                }
                LayerSpec::Linear { out } => {
                    let (w, b) = take_pair(&mut p)?;
                    let in_features = shape.c * shape.h * shape.w;
                    if w.len() != out * in_features {
                        return Err(TensorError::BadGeometry {
                            reason: format!(
                                "linear weight length {} != {out}x{in_features}",
                                w.len()
                            ),
                        });
                    }
                    let (weight_t, bias) =
                        shared_linear(store, precision, w, b, in_features, *out)?;
                    let out_shape = Shape4::new(1, 1, 1, *out);
                    push(
                        &mut steps,
                        &mut shape,
                        Op::Linear {
                            weight_t,
                            bias,
                            in_features,
                            out_features: *out,
                        },
                        out_shape,
                        i,
                    );
                }
                LayerSpec::Dropout { .. } => {
                    // dropout is identity at inference; compiles to nothing
                }
                LayerSpec::Inception { .. }
                | LayerSpec::DenseBlock { .. }
                | LayerSpec::Residual { .. }
                | LayerSpec::BatchNorm => {
                    unreachable!("rejected by check_compile above");
                }
            }
            i += 1;
        }
        if p != params.len() {
            return Err(TensorError::BadGeometry {
                reason: format!(
                    "{} unused parameter tensors after compile",
                    params.len() - p
                ),
            });
        }

        // Activation rounding placement, mirroring `forward_quantized`:
        // FP16 rounds after every layer; INT8 after every layer except the
        // last (DoReFa leaves the logits unquantized). Flatten moves no
        // data and rounding is idempotent, so it never rounds.
        let last_spec = specs.len().saturating_sub(1);
        let mut steps: Vec<Step> = steps
            .into_iter()
            .map(|(mut s, spec_idx)| {
                s.round_after = match precision {
                    Precision::Fp32 => false,
                    Precision::Fp16 => !matches!(s.op, Op::Flatten),
                    Precision::Int8 => !matches!(s.op, Op::Flatten) && spec_idx != last_spec,
                };
                s
            })
            .collect();
        steps.shrink_to_fit();

        // Arena sizing: the ping-pong buffers must hold the largest
        // per-item activation, the cols scratch the largest im2col matrix.
        // All products go through checked arithmetic — a hostile artifact
        // must surface as a P008 compile error, never a debug-build panic
        // or a release-build wraparound that undersizes the arena.
        let overflow = || TensorError::BadGeometry {
            reason: "error[P008]: plan size arithmetic overflows usize; \
                     the workspace arena cannot be sized"
                .into(),
        };
        let checked_len = |s: Shape4| -> Result<usize> { s.checked_len().ok_or_else(overflow) };
        let mut buf_item_len = checked_len(Shape4::new(1, input.c, input.h, input.w))?;
        let mut cols_item_len = 0usize;
        for s in &steps {
            buf_item_len = buf_item_len.max(checked_len(s.out_shape)?);
            if let Op::Conv { geom, .. } = &s.op {
                let need = s
                    .in_shape
                    .c
                    .checked_mul(geom.taps())
                    .and_then(|x| x.checked_mul(geom.out_len()))
                    .ok_or_else(overflow)?;
                cols_item_len = cols_item_len.max(need);
            }
        }

        let plan = ExecutionPlan {
            steps,
            input_shape: Shape4::new(1, input.c, input.h, input.w),
            output_shape: shape,
            precision,
            buf_item_len,
            cols_item_len,
        };
        // The compiler checking its own output: every debug build re-runs
        // the P0xx dataflow verifier over the freshly lowered plan, so a
        // lowering bug that breaks a plan invariant fails here instead of
        // corrupting an inference. Release builds skip the pass; the
        // deny-mode gates (registry trial-compile, router publish) still
        // run it where untrusted plans enter.
        #[cfg(debug_assertions)]
        if let Err(e) = plan.verify() {
            panic!("ExecutionPlan::compile produced a plan its own verifier rejects: {e}");
        }
        Ok(plan)
    }

    /// Expected single-item input shape (batch dim fixed at 1).
    pub fn input_shape(&self) -> Shape4 {
        self.input_shape
    }

    /// Single-item output shape (batch dim fixed at 1).
    pub fn output_shape(&self) -> Shape4 {
        self.output_shape
    }

    /// The precision the plan was compiled at.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Number of executable ops.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// True when the plan has no ops (identity pipeline).
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Number of MLCNN fused conv-pool groups selected at compile.
    pub fn fused_op_count(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| matches!(s.op, Op::Fused { .. }))
            .count()
    }

    /// Workspace arena footprint in bytes for a forward at `batch` items:
    /// the two ping-pong activation buffers scale with the batch, the
    /// im2col scratch does not. Used by the serving-config lints to sanity
    /// check `workers × max_batch` memory before spawning anything.
    pub fn arena_bytes(&self, batch: usize) -> usize {
        let elems = 2usize
            .saturating_mul(self.buf_item_len)
            .saturating_mul(batch.max(1))
            .saturating_add(self.cols_item_len);
        elems.saturating_mul(std::mem::size_of::<f32>())
    }

    /// Estimated parameter bytes this plan keeps resident: every baked
    /// weight and bias across its steps, counting shared segments at full
    /// size. Together with [`Self::arena_bytes`] this is the byte estimate
    /// the registry's `PlanCache` evicts by; for the *deduplicated*
    /// footprint across many plans, intersect [`Self::param_handles`] by
    /// address instead.
    pub fn resident_param_bytes(&self) -> usize {
        let f32s = std::mem::size_of::<f32>();
        self.steps
            .iter()
            .map(|s| match &s.op {
                Op::Fused { kernel, .. } => {
                    (kernel.weight().len() + kernel.bias().len()).saturating_mul(f32s)
                }
                Op::Conv { weight, bias, .. } => (weight.len() + bias.len()).saturating_mul(f32s),
                Op::Linear { weight_t, bias, .. } => {
                    (weight_t.len() + bias.len()).saturating_mul(f32s)
                }
                _ => 0,
            })
            .fold(0usize, usize::saturating_add)
    }

    /// Type-erased handles on the plan's parameter segments, in step
    /// order. Two plans compiled through one [`SegmentStore`] return
    /// handles with equal [`ParamHandle::addr`] wherever they share a
    /// segment — dedup accounting keys resident bytes by address, and
    /// drain tests downgrade a handle to observe exactly when the last
    /// owner lets the bytes go.
    pub fn param_handles(&self) -> Vec<ParamHandle> {
        let f32s = std::mem::size_of::<f32>();
        let mut out = Vec::new();
        for s in &self.steps {
            match &s.op {
                Op::Fused { kernel, .. } => {
                    let bytes = (kernel.weight().len() + kernel.bias().len()) * f32s;
                    out.push(ParamHandle::new(kernel.clone(), bytes));
                }
                Op::Conv { weight, bias, .. } => {
                    out.push(ParamHandle::new(weight.clone(), weight.len() * f32s));
                    out.push(ParamHandle::new(bias.clone(), bias.len() * f32s));
                }
                Op::Linear { weight_t, bias, .. } => {
                    out.push(ParamHandle::new(weight_t.clone(), weight_t.len() * f32s));
                    out.push(ParamHandle::new(bias.clone(), bias.len() * f32s));
                }
                _ => {}
            }
        }
        out
    }

    /// Output shape for a batched input shape.
    pub fn batched_output_shape(&self, batch: usize) -> Shape4 {
        Shape4::new(
            batch,
            self.output_shape.c,
            self.output_shape.h,
            self.output_shape.w,
        )
    }

    fn check_input(&self, input: &Tensor<f32>) -> Result<()> {
        let s = input.shape();
        let e = self.input_shape;
        if (s.c, s.h, s.w) != (e.c, e.h, e.w) {
            return Err(TensorError::ShapeMismatch {
                left: s,
                right: e,
                op: "execution plan input",
            });
        }
        Ok(())
    }

    /// Run inference. `&self` — the plan is immutable and shareable; all
    /// mutable state lives in the caller's [`Workspace`]. Steady-state the
    /// only allocation is the returned tensor; use
    /// [`Self::forward_into`] to eliminate that too.
    pub fn forward(&self, input: &Tensor<f32>, ws: &mut Workspace) -> Result<Tensor<f32>> {
        self.check_input(input)?;
        let batch = input.shape().n;
        let out_shape = self.batched_output_shape(batch);
        let mut out = vec![0.0_f32; out_shape.len()];
        exec::run(self, input, ws, &mut out)?;
        Tensor::from_vec(out_shape, out)
    }

    /// Allocation-free forward: write into a caller-owned output tensor,
    /// which must already have [`Self::batched_output_shape`] for the
    /// input's batch size.
    pub fn forward_into(
        &self,
        input: &Tensor<f32>,
        ws: &mut Workspace,
        out: &mut Tensor<f32>,
    ) -> Result<()> {
        self.check_input(input)?;
        let expect = self.batched_output_shape(input.shape().n);
        if out.shape() != expect {
            return Err(TensorError::ShapeMismatch {
                left: out.shape(),
                right: expect,
                op: "execution plan output",
            });
        }
        exec::run(self, input, ws, out.as_mut_slice())
    }

    /// Batch-parallel forward: items fan out across threads via
    /// `par_map_batch`, each worker with its own workspace.
    ///
    /// FP32/FP16 are bitwise identical to [`Self::forward`] (rounding is
    /// per-element). INT8's activation scale is the *batch-global* max, so
    /// per-item execution would change results — the plan falls back to the
    /// sequential full-batch path to preserve semantics.
    pub fn forward_batch(&self, input: &Tensor<f32>) -> Result<Tensor<f32>> {
        self.forward_batch_with(input, &WorkspacePool::new())
    }

    /// [`Self::forward_batch`] drawing workspaces from a caller-owned
    /// [`WorkspacePool`] instead of allocating fresh arenas per item: the
    /// pool is `Sync`, leasing never blocks, and every rayon worker (or
    /// serving thread) gets its own warm workspace — many threads can batch
    /// through one shared plan + pool concurrently without contending on a
    /// single `Workspace`.
    pub fn forward_batch_with(
        &self,
        input: &Tensor<f32>,
        pool: &WorkspacePool,
    ) -> Result<Tensor<f32>> {
        self.check_input(input)?;
        if self.precision == Precision::Int8 || input.shape().n <= 1 {
            let mut ws = pool.lease();
            return self.forward(input, &mut ws);
        }
        par_map_batch(input, |item| {
            let mut ws = pool.lease();
            self.forward(&item, &mut ws)
        })
    }

    /// Per-item batch execution: every batch item runs as its own
    /// batch-of-1 forward, so item `i` of the output is **bitwise
    /// identical to [`Self::forward`] on item `i` alone — at every
    /// precision**. This is the request-level semantics a serving batcher
    /// needs: coalescing requests into one call must not change any
    /// individual response.
    ///
    /// For FP32/FP16 this coincides with [`Self::forward_batch`] (rounding
    /// is per-element). For INT8 it differs: `forward`/`forward_batch`
    /// quantize activations with a *batch-global* scale, while here each
    /// item keeps the scale it would have had on its own.
    pub fn forward_each(&self, input: &Tensor<f32>, pool: &WorkspacePool) -> Result<Tensor<f32>> {
        self.check_input(input)?;
        if input.shape().n <= 1 {
            let mut ws = pool.lease();
            return self.forward(input, &mut ws);
        }
        par_map_batch(input, |item| {
            let mut ws = pool.lease();
            self.forward(&item, &mut ws)
        })
    }
}

/// Compile an [`ExecutionPlan`] straight from a built network: the
/// inference export for `mlcnn_nn::Network`.
pub trait EvalPlan {
    /// Compile this network's recorded blueprint into an execution plan.
    /// Fails if the network was assembled without specs (see
    /// [`Network::with_specs`]) or the blueprint is not plan-compilable.
    fn eval_plan(&mut self, opts: PlanOptions) -> Result<ExecutionPlan>;
}

impl EvalPlan for Network {
    fn eval_plan(&mut self, opts: PlanOptions) -> Result<ExecutionPlan> {
        let specs = self
            .specs()
            .ok_or_else(|| TensorError::BadGeometry {
                reason: "network has no recorded LayerSpec blueprint; \
                         build it with build_network or attach one via with_specs"
                    .into(),
            })?
            .to_vec();
        let params = self.export_params();
        ExecutionPlan::compile(&specs, &params, self.input_shape(), opts)
    }
}

#[cfg(test)]
mod shared_tests {
    use super::*;
    use mlcnn_nn::zoo;

    fn lenet() -> (Vec<LayerSpec>, Vec<Tensor<f32>>, Shape4) {
        let specs = zoo::lenet5_spec(10);
        let input = Shape4::new(1, 3, 32, 32);
        let mut net = mlcnn_nn::spec::build_network(&specs, input, 7).unwrap();
        let params = net.export_params();
        (specs, params, input)
    }

    fn forward_bits(plan: &ExecutionPlan, input: Shape4) -> Vec<u32> {
        let x = Tensor::from_fn(input, |_, c, h, w| {
            (((c * 31 + h * 7 + w) % 97) as f32 - 48.0) / 40.0
        });
        let mut ws = Workspace::for_plan(plan, 1);
        plan.forward(&x, &mut ws)
            .unwrap()
            .as_slice()
            .iter()
            .map(|v| v.to_bits())
            .collect()
    }

    #[test]
    fn shared_compile_is_bitwise_identical_and_verifies() {
        let (specs, params, input) = lenet();
        for precision in Precision::ALL {
            let opts = PlanOptions::default().with_precision(precision);
            let direct = ExecutionPlan::compile(&specs, &params, input, opts).unwrap();
            let store = SegmentStore::new();
            let shared =
                ExecutionPlan::compile_shared(&specs, &params, input, opts, &store).unwrap();
            shared
                .verify()
                .unwrap_or_else(|e| panic!("{precision}: {e}"));
            assert_eq!(
                forward_bits(&direct, input),
                forward_bits(&shared, input),
                "{precision}"
            );
        }
    }

    #[test]
    fn recompiling_through_one_store_shares_every_segment() {
        let (specs, params, input) = lenet();
        let store = SegmentStore::new();
        let opts = PlanOptions::default();
        let a = ExecutionPlan::compile_shared(&specs, &params, input, opts, &store).unwrap();
        let b = ExecutionPlan::compile_shared(&specs, &params, input, opts, &store).unwrap();
        let (ha, hb) = (a.param_handles(), b.param_handles());
        assert!(!ha.is_empty());
        assert_eq!(ha.len(), hb.len());
        for (x, y) in ha.iter().zip(&hb) {
            assert_eq!(x.addr(), y.addr());
            assert_eq!(x.bytes(), y.bytes());
        }
        let stats = store.stats();
        assert_eq!(stats.misses as usize, stats.live);
        assert_eq!(stats.hits, stats.misses); // second compile hit every key
                                              // dedup'd resident bytes: two plans, one copy
        assert_eq!(stats.resident_bytes, a.resident_param_bytes());
        assert_eq!(a.resident_param_bytes(), b.resident_param_bytes());
    }

    #[test]
    fn different_precisions_never_share_segments() {
        let (specs, params, input) = lenet();
        let store = SegmentStore::new();
        let a =
            ExecutionPlan::compile_shared(&specs, &params, input, PlanOptions::default(), &store)
                .unwrap();
        let b = ExecutionPlan::compile_shared(
            &specs,
            &params,
            input,
            PlanOptions::default().with_precision(Precision::Fp16),
            &store,
        )
        .unwrap();
        let addrs: std::collections::HashSet<usize> =
            a.param_handles().iter().map(|h| h.addr()).collect();
        assert!(b.param_handles().iter().all(|h| !addrs.contains(&h.addr())));
        assert_eq!(store.stats().hits, 0);
    }

    #[test]
    fn dropping_the_last_plan_releases_shared_segments() {
        let (specs, params, input) = lenet();
        let store = SegmentStore::new();
        let opts = PlanOptions::default();
        let a = ExecutionPlan::compile_shared(&specs, &params, input, opts, &store).unwrap();
        let b = ExecutionPlan::compile_shared(&specs, &params, input, opts, &store).unwrap();
        let weak: Vec<_> = a.param_handles().iter().map(|h| h.downgrade()).collect();
        drop(a);
        assert!(weak.iter().all(|w| w.upgrade().is_some()), "b still owns");
        drop(b);
        assert!(
            weak.iter().all(|w| w.upgrade().is_none()),
            "all owners gone"
        );
        let s = store.stats();
        assert_eq!((s.live, s.resident_bytes), (0, 0));
    }

    #[test]
    fn index_conflict_surfaces_as_r006() {
        let (specs, params, input) = lenet();
        let store = SegmentStore::new();
        let opts = PlanOptions::default();
        let _keep = ExecutionPlan::compile_shared(&specs, &params, input, opts, &store).unwrap();
        for key in store.keys_for_tests() {
            assert!(store.corrupt_fingerprint_for_tests(&key));
        }
        let err = match ExecutionPlan::compile_shared(&specs, &params, input, opts, &store) {
            Err(e) => e,
            Ok(_) => panic!("corrupted index must fail the compile"),
        };
        assert!(err.to_string().contains("error[R006]"), "{err}");
    }
}

#[cfg(test)]
mod compile_tests {
    use super::*;
    use crate::reorder::reorder_activation_pool;
    use mlcnn_nn::spec::build_network;
    use mlcnn_nn::zoo;
    use mlcnn_tensor::init;

    fn fused_plan(specs: &[LayerSpec], input: Shape4, seed: u64) -> ExecutionPlan {
        let mut net = build_network(specs, input, seed).unwrap();
        let params = net.export_params();
        ExecutionPlan::compile(specs, &params, input, PlanOptions::default()).unwrap()
    }

    #[test]
    fn reordered_lenet_fuses_two_groups_and_leaves_c3_regular() {
        let specs = reorder_activation_pool(&zoo::lenet5_spec(10)).specs;
        let plan = fused_plan(&specs, Shape4::new(1, 3, 32, 32), 17);
        assert_eq!(plan.fused_op_count(), 2);
        let count = |pred: fn(&Op) -> bool| plan.steps.iter().filter(|s| pred(&s.op)).count();
        assert_eq!(count(|op| matches!(op, Op::Conv { .. })), 1);
        assert_eq!(count(|op| matches!(op, Op::Linear { .. })), 2);
    }

    #[test]
    fn reordered_vgg_mini_fuses_three_groups() {
        let specs = reorder_activation_pool(&zoo::vgg_mini_spec(3, 10)).specs;
        let plan = fused_plan(&specs, Shape4::new(1, 3, 32, 32), 23);
        assert_eq!(plan.fused_op_count(), 3);
    }

    #[test]
    fn global_pool_fuses_when_square() {
        let specs = vec![
            LayerSpec::conv3(4),
            LayerSpec::GlobalAvgPool,
            LayerSpec::ReLU,
            LayerSpec::Flatten,
            LayerSpec::Linear { out: 2 },
        ];
        let input = Shape4::new(1, 1, 8, 8);
        let mut net = build_network(&specs, input, 5).unwrap();
        let plan = fused_plan(&specs, input, 5);
        assert_eq!(plan.fused_op_count(), 1);
        let x = init::uniform(input, -1.0, 1.0, &mut init::rng(6));
        let mut ws = Workspace::for_plan(&plan, 1);
        let a = plan.forward(&x, &mut ws).unwrap();
        let b = net.forward(&x).unwrap();
        assert!(a.approx_eq(&b, 1e-4));
    }

    #[test]
    fn rejects_composite_specs() {
        let specs = zoo::googlenet_mini_spec(2, 10);
        let input = Shape4::new(1, 3, 32, 32);
        let mut net = build_network(&specs, input, 1).unwrap();
        let params = net.export_params();
        assert!(ExecutionPlan::compile(&specs, &params, input, PlanOptions::default()).is_err());
    }

    #[test]
    fn compile_errors_carry_diagnostic_codes() {
        let input = Shape4::new(1, 3, 8, 8);
        let opts = PlanOptions::default();
        let expect_err = |specs: &[LayerSpec]| match ExecutionPlan::compile(specs, &[], input, opts)
        {
            Err(e) => e,
            Ok(_) => panic!("expected a compile error"),
        };
        // the static gate fires before any parameter is consumed
        let err = expect_err(&[LayerSpec::conv3(4), LayerSpec::BatchNorm]);
        assert!(err.to_string().contains("F005"), "{err}");
        let too_big = LayerSpec::Conv {
            out_ch: 4,
            k: 64,
            stride: 1,
            pad: 0,
        };
        let err = expect_err(&[too_big]);
        assert!(err.to_string().contains("S003"), "{err}");
    }

    #[test]
    fn rejects_leftover_or_missing_params() {
        let specs = reorder_activation_pool(&zoo::lenet5_spec(10)).specs;
        let input = Shape4::new(1, 3, 32, 32);
        let mut net = build_network(&specs, input, 17).unwrap();
        let mut params = net.export_params();
        params.push(params[0].clone());
        let opts = PlanOptions::default();
        assert!(ExecutionPlan::compile(&specs, &params, input, opts).is_err());
        params.truncate(params.len() - 3);
        assert!(ExecutionPlan::compile(&specs, &params, input, opts).is_err());
    }
}
