//! `mlcnn-served` — TCP inference server over the micro-batching
//! service.
//!
//! ```text
//! mlcnn-served [--model NAME] [--precision fp32|fp16|int8]
//!              [--registry DIR]
//!              [--addr HOST:PORT] [--workers N] [--max-batch N]
//!              [--max-wait-micros N] [--queue N]
//!              [--slo guaranteed:MICROS|best-effort] [--auto-tune]
//!              [--shards N] [--max-conns N]
//!              [--max-pipeline N] [--idle-timeout-millis N]
//! ```
//!
//! `--slo` attaches a default SLO class to every served model:
//! `guaranteed:25000` admission-checks each request against the
//! calibrated cost oracle with a 25 ms latency budget; `best-effort`
//! marks work sheddable under overload. `--auto-tune` derives
//! `(max_batch, max_wait)` from the oracle's batch-latency curve instead
//! of the hand-set flags (requires a guaranteed `--slo` budget). Without
//! `--slo` the server keeps its pre-SLO FIFO behavior verbatim.
//!
//! Two model modes:
//!
//! * **Single model** (default): compiles the named serving-zoo model at
//!   the requested precision and serves it. Weights come from the fixed
//!   serving seed, so any `mlcnn-loadgen --remote` pointed at the same
//!   model/precision can verify responses against a local reference plan.
//! * **Registry** (`--registry DIR`): opens a directory of packed
//!   `.mlcnn` artifacts (see `mlcnn-pack`), stands up one endpoint per
//!   model at its active revision, and routes requests by the wire
//!   protocol's model name. Publish/rollback frames hot-swap revisions
//!   under live traffic. `--model`/`--precision` are ignored in this
//!   mode — each artifact records its own serving precision.
//!
//! Either way the transport is the event-driven sharded reactor in
//! `mlcnn-net`: `--shards` event-loop threads, a `--max-conns`
//! admission cap, `--max-pipeline` per-connection pipelining with
//! backpressure, and `--idle-timeout-millis` idle reaping. It scales to
//! tens of thousands of concurrent connections.

use std::net::TcpListener;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use mlcnn_net::{NetConfig, NetServer};
use mlcnn_quant::Precision;
use mlcnn_registry::ModelRegistry;
use mlcnn_serve::{find_model, Dispatch, NamedService, Router, ServeConfig, Service};

struct Args {
    model: String,
    precision: Precision,
    registry: Option<String>,
    addr: String,
    cfg: ServeConfig,
    net: NetConfig,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        model: "lenet5".into(),
        precision: Precision::Fp32,
        registry: None,
        addr: "127.0.0.1:7433".into(),
        cfg: ServeConfig::default(),
        net: NetConfig::default(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--model" => args.model = val("--model")?,
            "--precision" => args.precision = val("--precision")?.parse()?,
            "--registry" => args.registry = Some(val("--registry")?),
            "--addr" => args.addr = val("--addr")?,
            "--workers" => {
                args.cfg.workers = val("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?
            }
            "--max-batch" => {
                args.cfg.max_batch = val("--max-batch")?
                    .parse()
                    .map_err(|e| format!("--max-batch: {e}"))?
            }
            "--max-wait-micros" => {
                let micros: u64 = val("--max-wait-micros")?
                    .parse()
                    .map_err(|e| format!("--max-wait-micros: {e}"))?;
                args.cfg.max_wait = Duration::from_micros(micros);
            }
            "--queue" => {
                args.cfg.queue_capacity = val("--queue")?
                    .parse()
                    .map_err(|e| format!("--queue: {e}"))?
            }
            "--slo" => {
                let spec: mlcnn_serve::SloSpec =
                    val("--slo")?.parse().map_err(|e| format!("--slo: {e}"))?;
                args.cfg.slo = Some(spec);
            }
            "--auto-tune" => args.cfg.auto_tune = true,
            "--shards" => {
                args.net.shards = val("--shards")?
                    .parse()
                    .map_err(|e| format!("--shards: {e}"))?
            }
            "--max-conns" => {
                args.net.max_connections = val("--max-conns")?
                    .parse()
                    .map_err(|e| format!("--max-conns: {e}"))?
            }
            "--max-pipeline" => {
                args.net.max_pipeline = val("--max-pipeline")?
                    .parse()
                    .map_err(|e| format!("--max-pipeline: {e}"))?
            }
            "--idle-timeout-millis" => {
                let millis: u64 = val("--idle-timeout-millis")?
                    .parse()
                    .map_err(|e| format!("--idle-timeout-millis: {e}"))?;
                args.net.idle_timeout = Duration::from_millis(millis);
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    args.cfg.precision = args.precision;
    // let the N006 pipeline-vs-queue lint see the real queue bound
    args.net.queue_capacity = args.cfg.queue_capacity;
    Ok(args)
}

fn bind(addr: &str) -> Result<TcpListener, String> {
    TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))
}

fn slo_banner(args: &Args) -> String {
    match args.cfg.slo {
        None => "slo=none".to_string(),
        Some(spec) => format!(
            "slo={spec}{}",
            if args.cfg.auto_tune { " auto_tune" } else { "" }
        ),
    }
}

fn net_banner(args: &Args) -> String {
    format!(
        "shards={} max_conns={} max_pipeline={} idle_timeout={:?}",
        args.net.shards, args.net.max_connections, args.net.max_pipeline, args.net.idle_timeout
    )
}

/// Serve `backend` on `listener` over the event-driven transport; blocks
/// until the process is killed.
fn serve<D: Dispatch>(args: &Args, listener: TcpListener, backend: Arc<D>) -> Result<(), String> {
    let server = NetServer::spawn(listener, backend, args.net.clone())
        .map_err(|e| format!("event-driven server failed to start: {e}"))?;
    server.join().map_err(|e| format!("acceptor failed: {e}"))
}

fn run_registry(args: &Args, dir: &str) -> Result<(), String> {
    let registry = ModelRegistry::open(dir).map_err(|e| e.to_string())?;
    let router =
        Arc::new(Router::new(Arc::new(registry), args.cfg.clone()).map_err(|e| e.to_string())?);
    let listener = bind(&args.addr)?;
    let mut summary = Vec::new();
    for status in router.registry().status() {
        summary.push(format!(
            "{}@{} ({})",
            status.model, status.active, status.precision
        ));
    }
    println!(
        "mlcnn-served: registry {dir} on {} — {} (workers={}, max_batch={}, max_wait={:?}, queue={}, {}, {})",
        listener
            .local_addr()
            .map_or(args.addr.clone(), |a| a.to_string()),
        summary.join(", "),
        args.cfg.workers,
        args.cfg.max_batch,
        args.cfg.max_wait,
        args.cfg.queue_capacity,
        slo_banner(args),
        net_banner(args),
    );
    serve(args, listener, router)
}

fn run_single(args: &Args) -> Result<(), String> {
    let model = find_model(&args.model).map_err(|e| e.to_string())?;
    let plan = Arc::new(model.compile(args.precision).map_err(|e| e.to_string())?);
    let svc = Service::spawn(plan, args.cfg.clone()).map_err(|e| e.to_string())?;
    let backend = Arc::new(NamedService::new(model.name, svc));
    let listener = bind(&args.addr)?;
    println!(
        "mlcnn-served: {} @ {:?} on {} (workers={}, max_batch={}, max_wait={:?}, queue={}, {}, {})",
        model.name,
        args.precision,
        listener
            .local_addr()
            .map_or(args.addr.clone(), |a| a.to_string()),
        args.cfg.workers,
        args.cfg.max_batch,
        args.cfg.max_wait,
        args.cfg.queue_capacity,
        slo_banner(args),
        net_banner(args),
    );
    serve(args, listener, backend)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mlcnn-served: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = match &args.registry {
        Some(dir) => run_registry(&args, &dir.clone()),
        None => run_single(&args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("mlcnn-served: {e}");
            ExitCode::FAILURE
        }
    }
}
