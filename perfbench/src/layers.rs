//! In-process layer probes for the traced run. Each probe times calls
//! into one layer's public functions from outside:
//!
//! * `core`: whole-plan forwards, and every plan step compiled as a
//!   one-step plan from the same specs and weights (checked against the
//!   full plan's `view()`, and at FP32 chained bitwise to the full output);
//! * `tensor`: `im2col_into` and `matmul_into` at each conv step's shapes;
//! * `quant`: INT8 over FP32 per-item forward time;
//! * `registry` / `check`: open, decode, cold and warm `compile_shared`,
//!   `ExecutionPlan::verify`, segment reuse;
//! * `serve`: an in-process `Service` at the server's settings;
//! * `net`: the frame codec.
//!
//! Beside the times it records exact counts (`step_counts` op counts and
//! `simulate_layer` cycles) that must repeat identically between runs.

use std::collections::VecDeque;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mlcnn_accel::cycle::LayerContext;
use mlcnn_accel::energy::EnergyModel;
use mlcnn_accel::{simulate_layer, AcceleratorConfig};
use mlcnn_check::{OpView, StepView};
use mlcnn_core::{ExecutionPlan, PlanOptions, SegmentStore, Workspace, WorkspacePool};
use mlcnn_net::FrameDecoder;
use mlcnn_nn::zoo::{ConvLayerGeom, PoolAfter};
use mlcnn_nn::LayerSpec;
use mlcnn_quant::Precision;
use mlcnn_registry::{Artifact, ModelRegistry};
use mlcnn_serve::{Frame, Service};
use mlcnn_tensor::im2col::im2col_into;
use mlcnn_tensor::linalg::matmul_into;
use mlcnn_tensor::{ConvGeometry, Shape4, Tensor};

use crate::stats::{calibrate, median, time_us};
use crate::workload::{self, bits, make_inputs, Target, Workload, MAX_BATCH};

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.0.push(Metric {
            name: name.into(),
            unit,
            value,
        });
    }
}

const ROUNDS: usize = 21;
const ROUND: Duration = Duration::from_millis(3);

/// Median µs per call of `f` over [`ROUNDS`] rounds of about [`ROUND`].
fn bench(mut f: impl FnMut()) -> f64 {
    let iters = calibrate(ROUND, &mut f);
    time_us(ROUNDS, iters, f)
}

fn kind(op: &OpView) -> &'static str {
    match op {
        OpView::Fused { .. } => "fused",
        OpView::Conv { .. } => "conv",
        OpView::ReLU => "relu",
        OpView::Sigmoid => "sigmoid",
        OpView::AvgPool { .. } => "avgpool",
        OpView::MaxPool { .. } => "maxpool",
        OpView::Flatten => "flatten",
        OpView::Linear { .. } => "linear",
    }
}

fn param_tensors(spec: &LayerSpec) -> usize {
    match spec {
        LayerSpec::Conv { .. } | LayerSpec::Linear { .. } => 2,
        _ => 0,
    }
}

/// One plan step lowered on its own.
struct OneStep {
    plan: ExecutionPlan,
    /// Source specs `[first, end)` and the index of their first param tensor.
    specs: (usize, usize),
    param0: usize,
    /// The full plan re-rounds this step's output; a one-step plan never
    /// rounds its final output, so the probe adds that rounding itself.
    rounds: bool,
}

/// Compile every step of `plan` as a one-step plan: for step `i`, the
/// shortest run of source specs from the cursor that lowers to exactly
/// that step (dropout and other erased specs fold into the next run),
/// except for the output re-rounding a plan skips after its last step.
fn one_step_plans(
    artifact: &Artifact,
    plan: &ExecutionPlan,
    opts: PlanOptions,
) -> Result<Vec<OneStep>, String> {
    let view = plan.view();
    let specs = &artifact.specs;
    let mut out = Vec::with_capacity(view.steps.len());
    let (mut first, mut param0) = (0usize, 0usize);
    for (i, step) in view.steps.iter().enumerate() {
        let input = Shape4::new(1, step.in_shape.c, step.in_shape.h, step.in_shape.w);
        let mut found = None;
        for end in first + 1..=specs.len() {
            let nparams: usize = specs[first..end].iter().map(param_tensors).sum();
            let params = &artifact.params[param0..param0 + nparams];
            let Ok(sub) = ExecutionPlan::compile(&specs[first..end], params, input, opts) else {
                continue;
            };
            let sub_view = sub.view();
            if sub_view.steps.len() > 1 {
                break;
            }
            if sub_view.steps.len() == 1 {
                let mut lowered = sub_view.steps[0].clone();
                lowered.round_after = step.round_after;
                if lowered == *step {
                    found = Some((sub, end, nparams));
                    break;
                }
            }
        }
        let (sub, end, nparams) = found.ok_or_else(|| {
            format!(
                "step {i} ({}) has no one-step plan that lowers to it",
                step.op.name()
            )
        })?;
        let rounds = step.round_after && !sub.view().steps[0].round_after;
        out.push(OneStep {
            plan: sub,
            specs: (first, end),
            param0,
            rounds,
        });
        first = end;
        param0 += nparams;
    }
    Ok(out)
}

/// The plan's activation re-rounding for `precision`, in place.
fn round(xs: &mut [f32], precision: Precision) {
    match precision {
        Precision::Fp32 => {}
        Precision::Fp16 => mlcnn_core::quantized::round_f16_slice(xs),
        Precision::Int8 => mlcnn_quant::dorefa::quantize_activations_ptq_slice(xs, 8),
    }
}

fn accel_config(p: Precision) -> AcceleratorConfig {
    match p {
        Precision::Fp32 => AcceleratorConfig::mlcnn_fp32(),
        Precision::Fp16 => AcceleratorConfig::mlcnn_fp16(),
        Precision::Int8 => AcceleratorConfig::mlcnn_int8(),
    }
}

fn conv_geom(step: &StepView) -> Option<ConvLayerGeom> {
    let (k, stride, pad, pool) = match step.op {
        OpView::Fused {
            k,
            stride,
            pad,
            pool,
            ..
        } => (k, stride, pad, Some(pool)),
        OpView::Conv { k, stride, pad, .. } => (k, stride, pad, None),
        _ => return None,
    };
    Some(ConvLayerGeom {
        name: String::new(),
        in_ch: step.in_shape.c,
        out_ch: step.out_shape.c,
        in_h: step.in_shape.h,
        in_w: step.in_shape.w,
        k,
        stride,
        pad,
        pool: pool.map(|window| PoolAfter {
            window,
            stride: window,
            avg: true,
        }),
    })
}

fn batch_of(items: &[Tensor<f32>]) -> Result<Tensor<f32>, String> {
    let s = items[0].shape();
    let data: Vec<f32> = items
        .iter()
        .flat_map(|t| t.as_slice().iter().copied())
        .collect();
    Tensor::from_vec(Shape4::new(items.len(), s.c, s.h, s.w), data).map_err(|e| e.to_string())
}

/// The plan a workload serves, compiled from its seeded artifact.
fn workload_artifact(w: &Workload, seed: u64) -> Result<(Artifact, ExecutionPlan), String> {
    let model = mlcnn_serve::find_model(w.model).map_err(|e| e.to_string())?;
    let artifact = model
        .artifact(1, w.precision, seed)
        .map_err(|e| e.to_string())?;
    let plan = artifact.compile(w.precision).map_err(|e| e.to_string())?;
    Ok((artifact, plan))
}

/// Times several closures in interleaved rounds, so that every median
/// samples the same stretch of the host's (drifting) speed and ratios
/// between cases are fair.
#[derive(Default)]
struct Interleaved<'a> {
    cases: Vec<(usize, Box<dyn FnMut() + 'a>)>,
}

impl<'a> Interleaved<'a> {
    /// Register `f` (calibrated to rounds of about [`ROUND`]); returns its index.
    fn add(&mut self, mut f: impl FnMut() + 'a) -> usize {
        let iters = calibrate(ROUND, &mut f);
        self.cases.push((iters, Box::new(f)));
        self.cases.len() - 1
    }

    /// Median µs per call of every case.
    fn run(mut self) -> Vec<f64> {
        let mut samples = vec![Vec::with_capacity(ROUNDS); self.cases.len()];
        for _ in 0..ROUNDS {
            for (c, (iters, f)) in self.cases.iter_mut().enumerate() {
                let t = Instant::now();
                for _ in 0..*iters {
                    f();
                }
                samples[c].push(t.elapsed().as_secs_f64() * 1e6 / *iters as f64);
            }
        }
        samples.iter_mut().map(|s| median(s)).collect()
    }
}

fn forward_case<'a>(b: &mut Interleaved<'a>, plan: &'a ExecutionPlan, x: &'a Tensor<f32>) -> usize {
    let mut ws = Workspace::for_plan(plan, x.shape().n);
    b.add(move || {
        std::hint::black_box(
            plan.forward(std::hint::black_box(x), &mut ws)
                .expect("forward"),
        );
    })
}

/// A step's timed cases: the one-step plan (plus the re-rounding the
/// full plan does after it), and its unfused twin or its kernels.
struct StepCases {
    step: usize,
    round: Option<usize>,
    unfused: Option<usize>,
    kernels: Option<(usize, usize)>,
}

/// `core`, `tensor` (and, for lenet5-reordered, fusion and `quant`)
/// probes for workload `w`, named `<workload>.<layer>.…`. Appends the
/// exact counts to `counts`.
pub fn model_probes(
    w: &Workload,
    seed: u64,
    m: &mut Metrics,
    counts: &mut String,
) -> Result<(), String> {
    let (artifact, plan) = workload_artifact(w, seed)?;
    let model = mlcnn_serve::find_model(w.model).map_err(|e| e.to_string())?;
    let items = make_inputs(&model, seed ^ 0xA5, MAX_BATCH);
    let x = &items[0];
    let xb = batch_of(&items)?;
    let p = |s: &str| format!("{}.{s}", w.name);
    let opts = PlanOptions::default().with_precision(w.precision);
    let steps = one_step_plans(&artifact, &plan, opts)?;
    let view = plan.view();

    // chain the one-step plans; at FP32 the chain must equal the full plan bitwise
    let mut acts = vec![x.clone()];
    for s in &steps {
        let mut ws = Workspace::for_plan(&s.plan, 1);
        let mut y = s
            .plan
            .forward(acts.last().expect("non-empty"), &mut ws)
            .map_err(|e| e.to_string())?;
        if s.rounds {
            round(y.as_mut_slice(), w.precision);
        }
        acts.push(y);
    }
    if w.precision == Precision::Fp32 {
        let mut ws = Workspace::for_plan(&plan, 1);
        let full = plan.forward(x, &mut ws).map_err(|e| e.to_string())?;
        if bits(&full) != bits(acts.last().expect("non-empty")) {
            return Err(format!(
                "{}: chained one-step plans differ from the full plan",
                w.name
            ));
        }
    }

    // everything a case borrows must outlive the harness
    let mut unfused_plans = Vec::new();
    for (s, sv) in steps.iter().zip(&view.steps) {
        if let OpView::Fused { .. } = sv.op {
            // the same conv + pool (+ relu) lowered without fusion
            let (a, b) = s.specs;
            let nparams: usize = artifact.specs[a..b].iter().map(param_tensors).sum();
            let unfused = ExecutionPlan::compile(
                &artifact.specs[a..b],
                &artifact.params[s.param0..s.param0 + nparams],
                Shape4::new(1, sv.in_shape.c, sv.in_shape.h, sv.in_shape.w),
                opts.with_fusion(false),
            )
            .map_err(|e| e.to_string())?;
            unfused_plans.push(unfused);
        }
    }
    let fp32 = match w.precision {
        Precision::Int8 => Some(
            artifact
                .compile(Precision::Fp32)
                .map_err(|e| e.to_string())?,
        ),
        _ => None,
    };

    let mut b = Interleaved::default();
    let b1 = forward_case(&mut b, &plan, x);
    let pool = WorkspacePool::for_plan(&plan, MAX_BATCH, MAX_BATCH);
    let plan_ref = &plan;
    let xb_ref = &xb;
    let bmax = b.add(move || {
        let y = if w.precision == Precision::Int8 {
            plan_ref.forward_each(xb_ref, &pool)
        } else {
            plan_ref.forward_batch_with(xb_ref, &pool)
        };
        std::hint::black_box(y.expect("batched forward"));
    });
    let fp32_b1 = fp32.as_ref().map(|f| forward_case(&mut b, f, x));
    let mut unfused_iter = unfused_plans.iter();
    let mut cases = Vec::new();
    for (i, (s, sv)) in steps.iter().zip(&view.steps).enumerate() {
        let input = &acts[i];
        let step = forward_case(&mut b, &s.plan, input);
        let round = s.rounds.then(|| {
            let out = &acts[i + 1];
            let mut buf = out.as_slice().to_vec();
            b.add(move || {
                buf.copy_from_slice(out.as_slice());
                round(&mut buf, w.precision);
                std::hint::black_box(&buf);
            })
        });
        let mut c = StepCases {
            step,
            round,
            unfused: None,
            kernels: None,
        };
        match sv.op {
            OpView::Fused { .. } => {
                let unfused = unfused_iter
                    .next()
                    .expect("one unfused plan per fused step");
                c.unfused = Some(forward_case(&mut b, unfused, input));
            }
            OpView::Conv { k, stride, pad, .. } => {
                let geom = ConvGeometry::new(sv.in_shape.h, sv.in_shape.w, k, k, stride, pad)
                    .map_err(|e| e.to_string())?;
                let (mm, kk, nn) = (sv.out_shape.c, sv.in_shape.c * geom.taps(), geom.out_len());
                let channels = sv.in_shape.c;
                let mut cols = vec![0.0f32; kk * nn];
                let im2col = b.add(move || {
                    im2col_into(input.as_slice(), channels, &geom, &mut cols);
                    std::hint::black_box(&cols);
                });
                let weight = artifact.params[s.param0].as_slice();
                let cols = acts_cols(input, channels, &geom, kk * nn);
                let mut out = vec![0.0f32; mm * nn];
                let gemm = b.add(move || {
                    matmul_into(weight, &cols, &mut out, mm, kk, nn);
                    std::hint::black_box(&out);
                });
                c.kernels = Some((im2col, gemm));
            }
            _ => {}
        }
        cases.push(c);
    }
    let t = b.run();

    m.push(p("core.forward_us.b1"), "us", t[b1]);
    m.push(
        p("core.forward_us_per_item.bmax"),
        "us",
        t[bmax] / MAX_BATCH as f64,
    );
    let cfg = accel_config(w.precision);
    let energy = EnergyModel::default();
    let (mut step_sum, mut round_sum) = (0.0, 0.0);
    counts.push_str(&format!("{} {}\n", w.name, w.precision));
    for (i, (c, sv)) in cases.iter().zip(&view.steps).enumerate() {
        let name = format!("core.step.{i:02}-{}", kind(&sv.op));
        let rounding = c.round.map_or(0.0, |r| t[r]);
        round_sum += rounding;
        let us = t[c.step] + rounding;
        step_sum += us;
        m.push(p(&format!("{name}.us")), "us", us);
        let n = mlcnn_sched::step_counts(sv);
        let flops = n.mults + n.adds;
        if flops > 0 {
            m.push(
                p(&format!("{name}.gflops")),
                "GFLOP/s",
                flops as f64 / (us * 1e3),
            );
        }
        if let Some(u) = c.unfused {
            // the unfused twin's last step is not re-rounded either
            m.push(
                p(&format!("{name}.unfused_ratio")),
                "ratio",
                t[c.step] / t[u],
            );
        }
        if let Some((im2col, gemm)) = c.kernels {
            m.push(p(&format!("tensor.{i:02}.im2col_us")), "us", t[im2col]);
            m.push(p(&format!("tensor.{i:02}.gemm_us")), "us", t[gemm]);
        }
        let mut line = format!(
            "  {name} in={:?} out={:?} mults={} adds={} divs={} cmps={}",
            (sv.in_shape.c, sv.in_shape.h, sv.in_shape.w),
            (sv.out_shape.c, sv.out_shape.h, sv.out_shape.w),
            n.mults,
            n.adds,
            n.divs,
            n.cmps
        );
        if let Some(g) = conv_geom(sv) {
            let perf = simulate_layer(&g, &cfg, &energy, LayerContext::default());
            line.push_str(&format!(
                " accel_cycles={} accel_fused={}",
                perf.cycles, perf.fused
            ));
        }
        counts.push_str(&line);
        counts.push('\n');
    }
    m.push(p("core.step_coverage"), "ratio", step_sum / t[b1]);
    if w.precision != Precision::Fp32 {
        m.push(p("quant.round_us"), "us", round_sum);
    }
    if let Some(f) = fp32_b1 {
        m.push("quant.int8_over_fp32", "ratio", t[b1] / t[f]);
    }
    Ok(())
}

/// The im2col matrix of `input`, as the GEMM case's right-hand side.
fn acts_cols(input: &Tensor<f32>, channels: usize, geom: &ConvGeometry, len: usize) -> Vec<f32> {
    let mut cols = vec![0.0f32; len];
    im2col_into(input.as_slice(), channels, geom, &mut cols);
    cols
}

fn median_ms(runs: usize, mut f: impl FnMut() -> Result<(), String>) -> Result<f64, String> {
    f()?;
    let mut v = Vec::with_capacity(runs);
    for _ in 0..runs {
        let t = Instant::now();
        f()?;
        v.push(t.elapsed().as_secs_f64() * 1e3);
    }
    Ok(median(&mut v))
}

/// `registry` and `check` probes over the swap workload's packed registry.
pub fn registry_probes(
    dir: &Path,
    artifacts: &[Artifact],
    precision: Precision,
    m: &mut Metrics,
) -> Result<(), String> {
    let open_ms = median_ms(5, || {
        ModelRegistry::open(dir)
            .map(drop)
            .map_err(|e| e.to_string())
    })?;
    m.push("registry.open_ms", "ms", open_ms);
    // compile every revision through the registry, as publishes do; the
    // cached plans keep their segments live, so unchanged layers are hits
    let registry = ModelRegistry::open(dir).map_err(|e| e.to_string())?;
    let before = registry.segment_stats();
    let mut held = Vec::new();
    for a in artifacts {
        held.push(
            registry
                .plan(&a.model, Some(a.revision), precision)
                .map_err(|e| e.to_string())?,
        );
    }
    let after = registry.segment_stats();
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    m.push(
        "registry.segment_hit_ratio",
        "ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    drop(held);

    let base = &artifacts[0];
    let bytes = base.encode().map_err(|e| e.to_string())?;
    m.push(
        "registry.decode_ms",
        "ms",
        median_ms(15, || {
            Artifact::decode(&bytes)
                .map(drop)
                .map_err(|e| e.to_string())
        })?,
    );
    m.push(
        "registry.compile_ms",
        "ms",
        median_ms(15, || {
            base.compile_shared(precision, &SegmentStore::new())
                .map(drop)
                .map_err(|e| e.to_string())
        })?,
    );
    // warm: the base revision's segments stay live, so a one-layer
    // revision bakes only its changed layer
    let store = SegmentStore::new();
    let _live = base
        .compile_shared(precision, &store)
        .map_err(|e| e.to_string())?;
    m.push(
        "registry.compile_warm_ms",
        "ms",
        median_ms(15, || {
            artifacts[1]
                .compile_shared(precision, &store)
                .map(drop)
                .map_err(|e| e.to_string())
        })?,
    );
    let plan = base.compile(precision).map_err(|e| e.to_string())?;
    m.push(
        "check.verify_us",
        "us",
        bench(|| plan.verify().expect("plan verifies")),
    );
    Ok(())
}

/// `serve.inproc_rps` (the closed-loop window against an in-process
/// `Service` at the server's settings) and `serve.dispatch_us`.
pub fn service_probes(
    target: &Target,
    window: usize,
    duration: Duration,
    forward_b1: f64,
    m: &mut Metrics,
) -> Result<(), String> {
    let w = &target.workload;
    let plan = if w.registry {
        let newest = target.artifacts.last().expect("registry has revisions");
        newest.compile(w.precision).map_err(|e| e.to_string())?
    } else {
        target
            .serve_model
            .compile(w.precision)
            .map_err(|e| e.to_string())?
    };
    let slot = target.refs.len() - 1;
    let svc = Service::spawn(Arc::new(plan), workload::serve_config(w.precision))
        .map_err(|e| e.to_string())?;
    let check = |input: usize, y: &Tensor<f32>| -> Result<(), String> {
        if bits(y) == target.refs[slot][input] {
            Ok(())
        } else {
            Err("in-process service response differs from the reference".into())
        }
    };

    // low rate: one request at a time, so nothing queues
    let mut lat = Vec::new();
    let deadline = Instant::now() + duration / 4;
    let mut i = 0;
    while Instant::now() < deadline || lat.len() < 20 {
        let input = i % target.inputs.len();
        let t = Instant::now();
        let y = svc
            .infer(target.inputs[input].clone())
            .map_err(|e| e.to_string())?;
        lat.push(t.elapsed().as_secs_f64() * 1e6);
        check(input, &y)?;
        i += 1;
    }
    m.push("serve.dispatch_us", "us", median(&mut lat) - forward_b1);

    // the closed-loop window from the same number of client threads
    let per = (window / crate::load::CONNS).max(1);
    let start = Instant::now();
    let end = start + duration;
    let done: Vec<Result<u64, String>> = std::thread::scope(|s| {
        let hs: Vec<_> = (0..crate::load::CONNS)
            .map(|c| {
                let svc = &svc;
                s.spawn(move || -> Result<u64, String> {
                    let mut q = VecDeque::with_capacity(per);
                    let mut next = c;
                    let mut ok = 0u64;
                    let mut submit = |q: &mut VecDeque<_>| -> Result<(), String> {
                        let input = next % target.inputs.len();
                        next += crate::load::CONNS;
                        let t = svc
                            .submit(target.inputs[input].clone())
                            .map_err(|e| e.to_string())?;
                        q.push_back((input, t));
                        Ok(())
                    };
                    for _ in 0..per {
                        submit(&mut q)?;
                    }
                    while let Some((input, t)) = q.pop_front() {
                        let y = t.wait().map_err(|e| e.to_string())?;
                        check(input, &y)?;
                        ok += 1;
                        if Instant::now() < end {
                            submit(&mut q)?;
                        }
                    }
                    Ok(ok)
                })
            })
            .collect();
        hs.into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("service client panicked".into()))
            })
            .collect()
    });
    let elapsed = start.elapsed().as_secs_f64();
    let mut total = 0;
    for d in done {
        total += d?;
    }
    m.push("serve.inproc_rps", "1/s", total as f64 / elapsed);
    let snap = svc.shutdown();
    if !snap.fully_drained() {
        return Err("in-process service did not drain every request exactly once".into());
    }
    Ok(())
}

/// `net.codec_ns`: encode and decode one request and one response frame.
pub fn codec_probe(target: &Target, m: &mut Metrics) -> Result<(), String> {
    let req = Frame::InferRequest {
        id: 9,
        model: target.wire_model.clone(),
        input: target.inputs[0].clone(),
    };
    let out_shape = {
        let s = target.refs[0][0].len();
        Shape4::new(1, s, 1, 1)
    };
    let resp = Frame::InferOk {
        id: 9,
        output: Tensor::from_vec(out_shape, vec![0.5; out_shape.len()])
            .map_err(|e| e.to_string())?,
    };
    let mut dec = FrameDecoder::new();
    let us = bench(|| {
        for f in [&req, &resp] {
            let bytes = f.encode().expect("encodable frame");
            dec.extend(&bytes);
            std::hint::black_box(
                dec.next()
                    .expect("decodable frame")
                    .expect("complete frame"),
            );
        }
    });
    m.push("net.codec_ns", "ns", us * 1e3);
    Ok(())
}
