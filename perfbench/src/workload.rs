//! The workloads and everything a seed derives from them: inputs,
//! reference outputs, and (for the swap workload) the registry revisions.

use std::path::Path;
use std::time::Duration;

use mlcnn_core::{ExecutionPlan, Workspace};
use mlcnn_quant::Precision;
use mlcnn_registry::artifact::artifact_file_name;
use mlcnn_registry::Artifact;
use mlcnn_serve::{find_model, Frame, ServeConfig, ServeModel};
use mlcnn_tensor::Tensor;

use crate::stats::Rng;

/// Server settings shared by every workload (besides model selection).
/// The in-process `Service` probes use the same values.
pub const WORKERS: usize = 2;
pub const MAX_BATCH: usize = 8;
pub const MAX_WAIT_MICROS: u64 = 500;
pub const QUEUE: usize = 1024;
pub const SHARDS: usize = 1;
pub const MAX_PIPELINE: usize = 256;

/// `mlcnn-served` flags for the settings above.
pub fn server_flags() -> Vec<String> {
    [
        ("--workers", WORKERS as u64),
        ("--max-batch", MAX_BATCH as u64),
        ("--max-wait-micros", MAX_WAIT_MICROS),
        ("--queue", QUEUE as u64),
        ("--shards", SHARDS as u64),
        ("--max-pipeline", MAX_PIPELINE as u64),
    ]
    .iter()
    .flat_map(|(flag, v)| [flag.to_string(), v.to_string()])
    .collect()
}

/// The in-process twin of [`server_flags`].
pub fn serve_config(precision: Precision) -> ServeConfig {
    ServeConfig::default()
        .with_precision(precision)
        .with_workers(WORKERS)
        .with_batching(MAX_BATCH, Duration::from_micros(MAX_WAIT_MICROS))
        .with_queue(QUEUE)
}

/// Distinct request inputs per run.
pub const INPUTS: usize = 64;

/// One benchmark workload: a fixed model, precision and server mode.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub model: &'static str,
    pub precision: Precision,
    /// Served from a registry directory of copy-on-write revisions.
    pub registry: bool,
    /// Closed-loop in-flight window over all connections.
    pub window: usize,
    /// Fixed open-loop arrival rate (requests/s).
    pub open_rps: f64,
    /// Lowest rate of the SLO ladder; rung `k` offers `ladder_base · 1.25^k`.
    pub ladder_base: f64,
    pub ladder_rungs: usize,
    /// p99 limit the ladder searches against.
    pub p99_limit: Duration,
    /// Publish/rollback period during the open loop (swap workload only).
    pub swap_period: Option<Duration>,
}

pub const LADDER_STEP: f64 = 1.25;

pub fn all() -> Vec<Workload> {
    vec![
        Workload {
            name: "mlp-tiny",
            model: "mlp-mini",
            precision: Precision::Fp32,
            registry: false,
            window: 32,
            open_rps: 30_000.0,
            ladder_base: 45_000.0,
            ladder_rungs: 8,
            p99_limit: Duration::from_millis(20),
            swap_period: None,
        },
        Workload {
            name: "lenet-int8-swap",
            model: "lenet5-reordered",
            precision: Precision::Int8,
            registry: true,
            window: 32,
            open_rps: 450.0,
            ladder_base: 1_200.0,
            ladder_rungs: 8,
            p99_limit: Duration::from_millis(20),
            swap_period: Some(Duration::from_secs(1)),
        },
    ]
}

pub fn find(name: &str) -> Result<Workload, String> {
    all().into_iter().find(|w| w.name == name).ok_or_else(|| {
        let names: Vec<&str> = all().iter().map(|w| w.name).collect();
        format!("unknown workload '{name}' ({})", names.join(", "))
    })
}

/// Revisions packed for the swap workload: revision 1 is the base,
/// revision `r > 1` differs from it in param layer `(r - 2) % layers`.
pub const REVISIONS: u64 = 4;

/// What a run sends and what it expects back.
pub struct Target {
    pub workload: Workload,
    pub serve_model: ServeModel,
    /// Model name on the wire (empty = the single-model server's model).
    pub wire_model: String,
    pub inputs: Vec<Tensor<f32>>,
    /// Encoded request frame per input, id 0 (patched per request).
    pub templates: Vec<Vec<u8>>,
    /// Revision id per reference slot (`[0]` for a single-model server).
    pub revisions: Vec<u64>,
    /// `refs[slot][input]`: the reference output's bit patterns.
    pub refs: Vec<Vec<Vec<u32>>>,
    /// Artifacts per slot (swap workload only).
    pub artifacts: Vec<Artifact>,
}

/// Byte offset of the correlation id in an encoded frame
/// (`[len u32][kind u8][id u64]`).
pub const ID_OFFSET: usize = 5;

pub fn bits(t: &Tensor<f32>) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn reference_outputs(
    plan: &ExecutionPlan,
    inputs: &[Tensor<f32>],
) -> Result<Vec<Vec<u32>>, String> {
    let mut ws = Workspace::for_plan(plan, 1);
    inputs
        .iter()
        .map(|x| {
            plan.forward(x, &mut ws)
                .map(|y| bits(&y))
                .map_err(|e| e.to_string())
        })
        .collect()
}

/// Seeded input items for `model`, uniform in `[-1, 1)`.
pub fn make_inputs(model: &ServeModel, seed: u64, count: usize) -> Vec<Tensor<f32>> {
    let mut rng = Rng::new(seed);
    let len = model.input.c * model.input.h * model.input.w;
    (0..count)
        .map(|_| {
            let data: Vec<f32> = (0..len).map(|_| rng.signed()).collect();
            Tensor::from_vec(model.input, data).expect("input length matches its shape")
        })
        .collect()
}

/// Base artifact plus `REVISIONS - 1` copy-on-write revisions, each with
/// one param layer's weights scaled by seeded factors in `[0.9, 1.1)`.
pub fn make_revisions(
    model: &ServeModel,
    precision: Precision,
    seed: u64,
) -> Result<Vec<Artifact>, String> {
    let base = model
        .artifact(1, precision, seed)
        .map_err(|e| e.to_string())?;
    let layers = base.param_layer_specs().len();
    let mut rng = Rng::new(seed ^ 0x005E_ED0F_AE57);
    let mut out = vec![base.clone()];
    for rev in 2..=REVISIONS {
        let layer = (rev as usize - 2) % layers;
        let w = &base.params[layer * 2];
        let scaled: Vec<f32> = w
            .as_slice()
            .iter()
            .map(|v| v * (1.0 + 0.1 * rng.signed()))
            .collect();
        let weight = Tensor::from_vec(w.shape(), scaled).map_err(|e| e.to_string())?;
        let bias = base.params[layer * 2 + 1].clone();
        out.push(
            base.with_layer_params(rev, layer, weight, bias)
                .map_err(|e| e.to_string())?,
        );
    }
    Ok(out)
}

/// Write `artifacts` as a fresh registry directory.
pub fn pack_registry(dir: &Path, artifacts: &[Artifact]) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for a in artifacts {
        let bytes = a.encode().map_err(|e| e.to_string())?;
        let path = dir.join(artifact_file_name(&a.model, a.revision));
        std::fs::write(&path, bytes).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(())
}

impl Target {
    pub fn prepare(workload: &Workload, seed: u64) -> Result<Target, String> {
        let serve_model = find_model(workload.model).map_err(|e| e.to_string())?;
        let inputs = make_inputs(&serve_model, seed, INPUTS);
        let (wire_model, revisions, refs, artifacts) = if workload.registry {
            let artifacts = make_revisions(&serve_model, workload.precision, seed)?;
            let mut refs = Vec::new();
            for a in &artifacts {
                let plan = a.compile(workload.precision).map_err(|e| e.to_string())?;
                refs.push(reference_outputs(&plan, &inputs)?);
            }
            // attribution needs every input to tell every revision apart
            for i in 0..inputs.len() {
                for a in 0..refs.len() {
                    for b in a + 1..refs.len() {
                        if refs[a][i] == refs[b][i] {
                            return Err(format!(
                                "revisions {} and {} agree on input {i}: responses would be unattributable",
                                artifacts[a].revision, artifacts[b].revision
                            ));
                        }
                    }
                }
            }
            let revisions = artifacts.iter().map(|a| a.revision).collect();
            (serve_model.name.to_string(), revisions, refs, artifacts)
        } else {
            let plan = serve_model
                .compile(workload.precision)
                .map_err(|e| e.to_string())?;
            (
                String::new(),
                vec![0],
                vec![reference_outputs(&plan, &inputs)?],
                Vec::new(),
            )
        };
        let templates = inputs
            .iter()
            .map(|x| {
                Frame::InferRequest {
                    id: 0,
                    model: wire_model.clone(),
                    input: x.clone(),
                }
                .encode()
                .map_err(|e| e.to_string())
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Target {
            workload: workload.clone(),
            serve_model,
            wire_model,
            inputs,
            templates,
            revisions,
            refs,
            artifacts,
        })
    }

    /// Request frame for input `input` with correlation id `id`.
    pub fn request(&self, input: usize, id: u64, buf: &mut Vec<u8>) {
        let start = buf.len();
        buf.extend_from_slice(&self.templates[input]);
        buf[start + ID_OFFSET..start + ID_OFFSET + 8].copy_from_slice(&id.to_be_bytes());
    }

    /// Reference slot whose output for `input` equals `output` bitwise.
    pub fn attribute(&self, input: usize, output: &Tensor<f32>) -> Option<usize> {
        let got = output.as_slice();
        self.refs.iter().position(|r| {
            let want = &r[input];
            want.len() == got.len() && want.iter().zip(got).all(|(w, g)| *w == g.to_bits())
        })
    }

    pub fn slot_of(&self, revision: u64) -> Option<usize> {
        self.revisions.iter().position(|&r| r == revision)
    }
}
