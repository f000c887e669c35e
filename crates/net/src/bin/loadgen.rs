//! `mlcnn-loadgen` — load generator and correctness harness for the
//! micro-batching service and its event-driven network transport.
//!
//! ```text
//! mlcnn-loadgen [--out PATH] [--smoke] [--requests N] [--clients N]
//!               [--rate-rps N] [--remote HOST:PORT --model NAME --precision P]
//!               [--sweep] [--sweep-conns N,N,...] [--sched]
//! ```
//!
//! Default (in-process) run, written to `BENCH_serve.json`:
//!
//! 1. **Parity sweep** — every serving-zoo model at FP32/FP16/INT8:
//!    service responses must be *bitwise* identical to
//!    `ExecutionPlan::forward` on the same single item.
//! 2. **Closed loop** — concurrent clients each awaiting their response
//!    before sending the next; reports throughput and latency quantiles.
//! 3. **Batching speedup** — pipelined load through a `max_batch = 8`
//!    service vs an otherwise-identical `max_batch = 1` service on the
//!    dispatch-bound `vgg-nano` model.
//! 4. **Open loop** — fixed-rate arrivals with a deadline, reporting how
//!    much load the deadline sheds.
//!
//! `--smoke` shrinks the run and asserts the CI gate: parity everywhere,
//! every service drains fully (zero dropped in-flight), and closed-loop
//! p99 stays under 250 ms.
//!
//! `--remote` instead drives a running `mlcnn-served` over TCP with
//! closed-loop clients, checking parity against a locally compiled
//! reference plan (same seed).
//!
//! `--sweep` exercises the event-driven transport: it spawns
//! `mlcnn-served` child processes, first checking served responses
//! bitwise against the local reference plan (`plan.forward`), then
//! driving a connection-count sweep with the multiplexing client —
//! thousands of concurrent sockets from a few threads, every response
//! checked for order, correlation id, and bitwise parity — and writes
//! `BENCH_net.json` with rps and p50/p99 per point plus the p99 ratio
//! against an in-process baseline at the same outstanding-request
//! depth. With `--smoke` the sweep shrinks
//! (and the oracle narrows) to CI size and asserts every point clean.
//!
//! `--sched` exercises the SLO-aware scheduler and writes
//! `BENCH_sched.json`: it measures a FIFO baseline's capacity, then
//! offers ≥3× that rate from a seeded bursty arrival schedule as mixed
//! traffic (every 4th request `guaranteed:25000`, the rest
//! best-effort) into an auto-tuned admission-controlled service. The
//! gate: the guaranteed class holds its p99 budget with zero
//! deadline-expired sheds while the best-effort class absorbs all
//! overload shedding. A second phase replays SLO-tagged requests
//! through `mlcnn-served --slo` and requires bitwise parity with the
//! local plan.

use std::collections::VecDeque;
use std::io::BufRead;
use std::net::SocketAddr;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mlcnn_core::{ExecutionPlan, Workspace};
use mlcnn_net::{run_mux, MuxOptions};
use mlcnn_quant::Precision;
use mlcnn_sched::ArrivalSchedule;
use mlcnn_serve::{
    find_model, serving_zoo, ClassSnapshot, Client, MetricsSnapshot, ServeConfig, Service, SloSpec,
};
use mlcnn_tensor::{init, Shape4, Tensor};

const ALL_PRECISIONS: [Precision; 3] = [Precision::Fp32, Precision::Fp16, Precision::Int8];
/// Smoke-mode latency gate: generous enough for a loaded single-core CI
/// runner, tight enough to catch a stalled batcher (whose symptom is
/// requests waiting forever).
const SMOKE_P99_MICROS: u64 = 250_000;
/// The sweep drives this model: dispatch-bound, so the transport (not
/// the arithmetic) dominates what the sweep measures.
const SWEEP_MODEL: &str = "mlp-mini";
/// Distinct input items cycled across sweep connections.
const SWEEP_INPUTS: usize = 4;

struct Args {
    out: String,
    smoke: bool,
    requests: usize,
    clients: usize,
    rate_rps: u64,
    remote: Option<String>,
    model: String,
    precision: Precision,
    sweep: bool,
    sweep_conns: Vec<usize>,
    sched: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        out: String::new(),
        smoke: false,
        requests: 2000,
        clients: 8,
        rate_rps: 2000,
        remote: None,
        model: "lenet5".into(),
        precision: Precision::Fp32,
        sweep: false,
        sweep_conns: Vec::new(),
        sched: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--out" => args.out = val("--out")?,
            "--smoke" => args.smoke = true,
            "--requests" => {
                args.requests = val("--requests")?
                    .parse()
                    .map_err(|e| format!("--requests: {e}"))?
            }
            "--clients" => {
                args.clients = val("--clients")?
                    .parse()
                    .map_err(|e| format!("--clients: {e}"))?
            }
            "--rate-rps" => {
                args.rate_rps = val("--rate-rps")?
                    .parse()
                    .map_err(|e| format!("--rate-rps: {e}"))?
            }
            "--remote" => args.remote = Some(val("--remote")?),
            "--model" => args.model = val("--model")?,
            "--precision" => args.precision = val("--precision")?.parse()?,
            "--sweep" => args.sweep = true,
            "--sched" => args.sched = true,
            "--sweep-conns" => {
                args.sweep_conns = val("--sweep-conns")?
                    .split(',')
                    .map(|s| s.trim().parse().map_err(|e| format!("--sweep-conns: {e}")))
                    .collect::<Result<_, _>>()?
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if args.smoke {
        args.requests = args.requests.min(600);
    }
    if args.out.is_empty() {
        args.out = if args.sched {
            "BENCH_sched.json".into()
        } else if args.sweep {
            "BENCH_net.json".into()
        } else {
            "BENCH_serve.json".into()
        };
    }
    if args.sweep_conns.is_empty() {
        args.sweep_conns = if args.smoke {
            vec![256, 1024]
        } else {
            vec![1_000, 5_000, 10_000]
        };
    }
    Ok(args)
}

fn item_input(shape: Shape4, seed: u64) -> Tensor<f32> {
    init::uniform(
        Shape4::new(1, shape.c, shape.h, shape.w),
        -1.0,
        1.0,
        &mut init::rng(seed),
    )
}

/// Bitwise parity: a handful of service responses vs the plan's own
/// single-item `forward` on a fresh workspace.
fn parity_check(svc: &Service, plan: &ExecutionPlan, shape: Shape4) -> Result<(), String> {
    let mut ws = Workspace::for_plan(plan, 1);
    for seed in 0..6u64 {
        let x = item_input(shape, 1000 + seed);
        let got = svc.infer(x.clone()).map_err(|e| e.to_string())?;
        let want = plan.forward(&x, &mut ws).map_err(|e| e.to_string())?;
        if got != want {
            return Err(format!("response diverges from plan.forward (seed {seed})"));
        }
    }
    Ok(())
}

/// Closed loop: `clients` threads, each awaiting its response before the
/// next request. Returns achieved requests-per-second.
fn closed_loop(svc: &Service, shape: Shape4, clients: usize, total: usize) -> f64 {
    let per_client = total.div_ceil(clients.max(1));
    let start = Instant::now();
    std::thread::scope(|s| {
        for c in 0..clients {
            s.spawn(move || {
                let x = item_input(shape, 7 + c as u64);
                for _ in 0..per_client {
                    svc.infer(x.clone()).expect("closed-loop infer");
                }
            });
        }
    });
    (per_client * clients) as f64 / start.elapsed().as_secs_f64()
}

/// Pipelined load: one submitter alternates between bursts of submissions
/// and draining the accumulated tickets. The service sees a standing
/// queue (so the batcher can actually coalesce), while most `wait` calls
/// find their response already buffered — the client is measuring the
/// service's dispatch cost, not its own context switches. This is the
/// fixture for the batched-vs-batch=1 comparison — identical client
/// behaviour on both sides, only the service policy differs — and, with
/// `burst` matched to a sweep point's connection count, the in-process
/// baseline the network p99 is compared against.
fn pipelined_loop(svc: &Service, shape: Shape4, total: usize, burst: usize) -> f64 {
    let x = item_input(shape, 100);
    let mut inflight: VecDeque<mlcnn_serve::Ticket> = VecDeque::new();
    let mut submitted = 0usize;
    let start = Instant::now();
    while submitted < total {
        let goal = (submitted + burst).min(total);
        while submitted < goal {
            match svc.submit(x.clone()) {
                Ok(t) => {
                    inflight.push_back(t);
                    submitted += 1;
                }
                // backpressure: drain one and retry
                Err(mlcnn_serve::ServeError::QueueFull(_)) => {
                    if let Some(t) = inflight.pop_front() {
                        t.wait().expect("pipelined wait");
                    }
                }
                Err(e) => panic!("pipelined submit: {e}"),
            }
        }
        while inflight.len() > burst / 2 {
            inflight
                .pop_front()
                .unwrap()
                .wait()
                .expect("pipelined wait");
        }
    }
    for t in inflight {
        t.wait().expect("pipelined drain");
    }
    total as f64 / start.elapsed().as_secs_f64()
}

/// Open loop: submit on a seeded, jittered uniform arrival schedule with
/// a per-request deadline; expired requests are shed by the service and
/// surface in the snapshot. The schedule is deterministic per seed, so
/// reruns offer byte-identical arrival times.
fn open_loop(svc: &Service, shape: Shape4, rate_rps: u64, total: usize) -> (f64, u64) {
    let schedule = ArrivalSchedule::uniform(55, rate_rps, total);
    let deadline = Duration::from_millis(100);
    let (tx, rx) = std::sync::mpsc::channel();
    let start = Instant::now();
    std::thread::scope(|s| {
        s.spawn(move || {
            // collector: resolve tickets off the pacer's critical path
            let mut shed = 0u64;
            while let Ok(ticket) = rx.recv() {
                let t: mlcnn_serve::Ticket = ticket;
                if matches!(t.wait(), Err(mlcnn_serve::ServeError::DeadlineExceeded)) {
                    shed += 1;
                }
            }
            shed
        });
        let x = item_input(shape, 55);
        for &offset in schedule.offsets_nanos() {
            let due = start + Duration::from_nanos(offset);
            if let Some(sleep) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(sleep);
            }
            // a full queue under overload is a rejection, counted by metrics
            if let Ok(t) = svc.submit_with_deadline(x.clone(), Some(deadline)) {
                let _ = tx.send(t);
            }
        }
        drop(tx);
    });
    let elapsed = start.elapsed().as_secs_f64();
    let snap = svc.metrics();
    (total as f64 / elapsed, snap.shed_expired)
}

fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.2}")
    } else {
        "null".into()
    }
}

fn snapshot_fragment(s: &MetricsSnapshot) -> String {
    format!(
        concat!(
            "\"p50_micros\": {}, \"p90_micros\": {}, \"p99_micros\": {}, ",
            "\"mean_batch_size\": {:.3}, \"batches\": {}, \"shed_expired\": {}, ",
            "\"rejected_full\": {}, \"fully_drained\": {}"
        ),
        s.p50_micros,
        s.p90_micros,
        s.p99_micros,
        s.mean_batch_size,
        s.batches,
        s.shed_expired,
        s.rejected_full,
        s.fully_drained(),
    )
}

fn run_remote(args: &Args) -> Result<String, String> {
    let addr = args.remote.clone().expect("remote mode");
    let model = find_model(&args.model).map_err(|e| e.to_string())?;
    let plan = model.compile(args.precision).map_err(|e| e.to_string())?;
    let mut ws = Workspace::for_plan(&plan, 1);

    // parity against the local reference plan (same seed as the server)
    let mut probe = Client::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
    for seed in 0..4u64 {
        let x = item_input(model.input, 2000 + seed);
        let got = probe
            .infer_model(&args.model, x.clone())
            .map_err(|e| e.to_string())?;
        let want = plan.forward(&x, &mut ws).map_err(|e| e.to_string())?;
        if got != want {
            return Err(format!(
                "remote response diverges from reference (seed {seed})"
            ));
        }
    }

    let per_client = args.requests.div_ceil(args.clients.max(1));
    let start = Instant::now();
    std::thread::scope(|s| -> Result<(), String> {
        let mut handles = Vec::new();
        for c in 0..args.clients {
            let addr = addr.clone();
            let input = model.input;
            let name = args.model.clone();
            handles.push(s.spawn(move || -> Result<(), String> {
                let mut client = Client::connect(&addr).map_err(|e| e.to_string())?;
                let x = item_input(input, 300 + c as u64);
                for _ in 0..per_client {
                    client
                        .infer_model(&name, x.clone())
                        .map_err(|e| e.to_string())?;
                }
                Ok(())
            }));
        }
        for h in handles {
            h.join()
                .map_err(|_| "client thread panicked".to_string())??;
        }
        Ok(())
    })?;
    let rps = (per_client * args.clients) as f64 / start.elapsed().as_secs_f64();
    let metrics = probe.metrics_json().map_err(|e| e.to_string())?;
    Ok(format!(
        "{{\n  \"mode\": \"remote\",\n  \"addr\": \"{addr}\",\n  \"model\": \"{}\",\n  \"precision\": \"{}\",\n  \"parity\": true,\n  \"requests\": {},\n  \"clients\": {},\n  \"throughput_rps\": {},\n  \"server_metrics\": {metrics}\n}}\n",
        model.name,
        args.precision,
        per_client * args.clients,
        args.clients,
        fmt_f64(rps),
    ))
}

fn run_local(args: &Args) -> Result<String, String> {
    let mut model_sections = Vec::new();
    let mut all_drained = true;
    let mut worst_p99: u64 = 0;

    // 1 + 2: parity sweep and closed-loop load, zoo × precisions
    for model in serving_zoo() {
        for precision in ALL_PRECISIONS {
            let plan = Arc::new(model.compile(precision).map_err(|e| e.to_string())?);
            let cfg = ServeConfig::default()
                .with_precision(precision)
                .with_batching(8, Duration::from_micros(200));
            let svc = Service::spawn(Arc::clone(&plan), cfg).map_err(|e| e.to_string())?;
            parity_check(&svc, &plan, model.input)
                .map_err(|e| format!("{}@{precision}: {e}", model.name))?;
            let rps = closed_loop(&svc, model.input, args.clients, args.requests);
            let snap = svc.shutdown();
            all_drained &= snap.fully_drained();
            worst_p99 = worst_p99.max(snap.p99_micros);
            println!(
                "[loadgen] {}@{precision}: parity ok, closed-loop {:.0} rps, p99 {} µs, mean batch {:.2}",
                model.name, rps, snap.p99_micros, snap.mean_batch_size
            );
            model_sections.push(format!(
                "    {{\"model\": \"{}\", \"precision\": \"{precision}\", \"parity\": true, \"closed_loop_rps\": {}, {}}}",
                model.name,
                fmt_f64(rps),
                snapshot_fragment(&snap)
            ));
        }
    }

    // 3: batching speedup on the dispatch-bound model, identical pipelined
    // client, only (max_batch, max_wait) differs
    let demo = find_model("mlp-mini").map_err(|e| e.to_string())?;
    let plan = Arc::new(demo.compile(Precision::Fp32).map_err(|e| e.to_string())?);
    let speedup_requests = args.requests.max(500) * 8;

    let batched_cfg = ServeConfig::default()
        .with_batching(16, Duration::from_micros(200))
        .with_queue(1024);
    let svc = Service::spawn(Arc::clone(&plan), batched_cfg).map_err(|e| e.to_string())?;
    let batched_rps = pipelined_loop(&svc, demo.input, speedup_requests, 256);
    let batched_snap = svc.shutdown();
    all_drained &= batched_snap.fully_drained();

    let batch1_cfg = ServeConfig::default()
        .with_batching(1, Duration::ZERO)
        .with_queue(1024);
    let svc = Service::spawn(Arc::clone(&plan), batch1_cfg).map_err(|e| e.to_string())?;
    let batch1_rps = pipelined_loop(&svc, demo.input, speedup_requests, 256);
    let batch1_snap = svc.shutdown();
    all_drained &= batch1_snap.fully_drained();

    let speedup = batched_rps / batch1_rps;
    println!(
        "[loadgen] {} batching: {batched_rps:.0} rps (mean batch {:.2}) vs {batch1_rps:.0} rps at batch=1 → {speedup:.2}x",
        demo.name, batched_snap.mean_batch_size
    );

    // 4: open loop at a fixed arrival rate with a deadline
    let open_cfg = ServeConfig::default().with_batching(8, Duration::from_micros(200));
    let svc = Service::spawn(Arc::clone(&plan), open_cfg).map_err(|e| e.to_string())?;
    let (offered_rps, _) = open_loop(&svc, demo.input, args.rate_rps, args.requests);
    let open_snap = svc.shutdown();
    all_drained &= open_snap.fully_drained();
    println!(
        "[loadgen] open loop: offered {offered_rps:.0} rps, shed {} of {} by deadline",
        open_snap.shed_expired, open_snap.submitted
    );

    if args.smoke {
        assert!(all_drained, "smoke: a service dropped in-flight requests");
        assert!(
            worst_p99 < SMOKE_P99_MICROS,
            "smoke: closed-loop p99 {worst_p99} µs breaches the {SMOKE_P99_MICROS} µs gate"
        );
        println!("[loadgen] smoke gate passed (drained everywhere, worst p99 {worst_p99} µs)");
    }

    Ok(format!(
        "{{\n  \"mode\": \"local\",\n  \"threads\": {},\n  \"requests_per_section\": {},\n  \"clients\": {},\n  \"smoke\": {},\n  \"all_fully_drained\": {},\n  \"worst_closed_loop_p99_micros\": {},\n  \"models\": [\n{}\n  ],\n  \"batching_speedup\": {{\n    \"model\": \"{}\", \"precision\": \"{}\", \"requests\": {},\n    \"batched_rps\": {}, \"batched_mean_batch_size\": {:.3},\n    \"batch1_rps\": {}, \"speedup\": {}\n  }},\n  \"open_loop\": {{\n    \"model\": \"{}\", \"offered_rps\": {}, \"deadline_millis\": 100, {}\n  }}\n}}\n",
        rayon::current_num_threads(),
        args.requests,
        args.clients,
        args.smoke,
        all_drained,
        worst_p99,
        model_sections.join(",\n"),
        demo.name,
        Precision::Fp32,
        speedup_requests,
        fmt_f64(batched_rps),
        batched_snap.mean_batch_size,
        fmt_f64(batch1_rps),
        fmt_f64(speedup),
        demo.name,
        fmt_f64(offered_rps),
        snapshot_fragment(&open_snap),
    ))
}

// ---------------------------------------------------------------------------
// --sweep: the event-driven transport under a connection-count sweep
// ---------------------------------------------------------------------------

/// A spawned `mlcnn-served` child, killed on drop.
struct ChildServer {
    child: std::process::Child,
    addr: SocketAddr,
}

impl Drop for ChildServer {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Launch `mlcnn-served` (from this binary's own directory) with
/// `extra` flags on an ephemeral port, and parse the bound address out
/// of its startup banner (`"… on HOST:PORT (…"`).
fn spawn_served(extra: &[&str]) -> Result<ChildServer, String> {
    let exe = std::env::current_exe()
        .map_err(|e| format!("current_exe: {e}"))?
        .parent()
        .ok_or("current_exe has no parent dir")?
        .join("mlcnn-served");
    let mut child = std::process::Command::new(&exe)
        .args(["--addr", "127.0.0.1:0"])
        .args(extra)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
    let stdout = child.stdout.take().ok_or("child stdout not captured")?;
    let mut lines = std::io::BufReader::new(stdout).lines();
    let banner = loop {
        match lines.next() {
            Some(Ok(line)) => {
                if line.contains(" on ") {
                    break line;
                }
            }
            Some(Err(e)) => {
                let _ = child.kill();
                return Err(format!("reading server banner: {e}"));
            }
            None => {
                let _ = child.kill();
                return Err("server exited before printing its banner".into());
            }
        }
    };
    let addr = banner
        .split(" on ")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|tok| tok.parse::<SocketAddr>().ok())
        .ok_or_else(|| format!("no address in server banner: {banner}"))?;
    Ok(ChildServer { child, addr })
}

/// Bitwise oracle: the same inputs through an `mlcnn-served` child and
/// the local reference plan must produce identical bytes.
fn oracle_check(model_name: &str, precision: Precision) -> Result<(), String> {
    let model = find_model(model_name).map_err(|e| e.to_string())?;
    let plan = model.compile(precision).map_err(|e| e.to_string())?;
    let mut ws = Workspace::for_plan(&plan, 1);
    let precision_flag = precision.to_string();
    let server = spawn_served(&[
        "--model",
        model_name,
        "--precision",
        &precision_flag,
        "--shards",
        "1",
    ])?;
    let mut client = Client::connect(server.addr).map_err(|e| e.to_string())?;
    for seed in 0..3u64 {
        let x = item_input(model.input, 4000 + seed);
        let want = plan.forward(&x, &mut ws).map_err(|e| e.to_string())?;
        let got = client
            .infer_model(model_name, x)
            .map_err(|e| format!("served: {e}"))?;
        if got != want {
            return Err(format!(
                "{model_name}@{precision}: served response diverges from plan.forward (seed {seed})"
            ));
        }
    }
    Ok(())
}

fn run_sweep(args: &Args) -> Result<String, String> {
    let model = find_model(SWEEP_MODEL).map_err(|e| e.to_string())?;
    let plan = Arc::new(model.compile(Precision::Fp32).map_err(|e| e.to_string())?);

    // Phase 1: bitwise oracle, served vs local plan. The full
    // sweep covers the whole serving zoo at every precision; smoke mode
    // narrows to one model so the CI job stays bounded.
    let oracle_set: Vec<(String, Precision)> = if args.smoke {
        vec![(SWEEP_MODEL.into(), Precision::Fp32)]
    } else {
        serving_zoo()
            .iter()
            .flat_map(|m| ALL_PRECISIONS.map(|p| (m.name.to_string(), p)))
            .collect()
    };
    let mut oracle_entries = Vec::new();
    for (name, precision) in &oracle_set {
        oracle_check(name, *precision)?;
        println!("[loadgen] oracle {name}@{precision}: served == plan.forward");
        oracle_entries.push(format!("\"{name}@{precision}\""));
    }

    // Phase 2: the connection sweep. One long-lived epoll server child
    // sized for the largest point; the client checks parity per
    // response, so references come from the local plan (same seed).
    let max_conns = args.sweep_conns.iter().copied().max().unwrap_or(1024);
    let queue = (max_conns + 1024).max(8192);
    let queue_flag = queue.to_string();
    let cap_flag = (max_conns + 256).to_string();
    let server = spawn_served(&[
        "--model",
        SWEEP_MODEL,
        "--precision",
        "fp32",
        "--shards",
        "1",
        "--max-batch",
        "16",
        "--max-wait-micros",
        "200",
        "--queue",
        &queue_flag,
        "--max-conns",
        &cap_flag,
    ])?;

    let mut ws = Workspace::for_plan(&plan, 1);
    let mut inputs = Vec::with_capacity(SWEEP_INPUTS);
    let mut expected = Vec::with_capacity(SWEEP_INPUTS);
    for seed in 0..SWEEP_INPUTS as u64 {
        let x = item_input(model.input, 9000 + seed);
        expected.push(plan.forward(&x, &mut ws).map_err(|e| e.to_string())?);
        inputs.push(x);
    }

    let mut points = Vec::new();
    let mut all_clean = true;
    let mut peak_conns = 0usize;
    for &conns in &args.sweep_conns {
        let requests_per_conn = if args.smoke {
            4
        } else {
            (20_000usize.div_ceil(conns)).max(2)
        };
        let opts = MuxOptions {
            connections: conns,
            threads: 4,
            pipeline: 1,
            requests_per_conn,
            model: SWEEP_MODEL.into(),
            inputs: inputs.clone(),
            expected: Some(expected.clone()),
            connect_retries: 400,
            deadline: Duration::from_secs(180),
        };
        let report = run_mux(server.addr, &opts).map_err(|e| format!("{conns} conns: {e}"))?;
        let clean = report.clean();
        all_clean &= clean;
        if clean {
            peak_conns = peak_conns.max(conns);
        }

        // in-process baseline at the same outstanding-request depth
        let base_cfg = ServeConfig::default()
            .with_batching(16, Duration::from_micros(200))
            .with_queue(queue);
        let base_svc = Service::spawn(Arc::clone(&plan), base_cfg).map_err(|e| e.to_string())?;
        pipelined_loop(
            &base_svc,
            model.input,
            conns * requests_per_conn,
            conns.min(queue - 16),
        );
        let base = base_svc.shutdown();
        let ratio = report.p99_micros as f64 / base.p99_micros.max(1) as f64;

        println!(
            "[loadgen] sweep {conns} conns × {requests_per_conn} reqs: {} — {:.0} rps, p50 {} µs, p99 {} µs (p99 ratio vs in-process {:.2})",
            if clean { "clean" } else { "DIRTY" },
            report.rps,
            report.p50_micros,
            report.p99_micros,
            ratio
        );
        points.push(format!(
            "    {{\"requests_per_conn\": {requests_per_conn}, \"clean\": {clean}, \"report\": {}, \"baseline_p99_micros\": {}, \"p99_ratio_vs_inprocess\": {:.3}}}",
            report.to_json(),
            base.p99_micros,
            ratio
        ));
    }
    drop(server);

    if args.smoke {
        assert!(
            all_clean,
            "smoke: a sweep point lost, duplicated, reordered, or corrupted responses"
        );
        println!("[loadgen] net smoke gate passed (all sweep points clean)");
    }

    Ok(format!
        (
        "{{\n  \"mode\": \"sweep\",\n  \"smoke\": {},\n  \"model\": \"{SWEEP_MODEL}\",\n  \"precision\": \"fp32\",\n  \"oracle_bitwise_identical\": true,\n  \"oracle_checked\": [{}],\n  \"all_points_clean\": {},\n  \"peak_clean_connections\": {},\n  \"points\": [\n{}\n  ]\n}}\n",
        args.smoke,
        oracle_entries.join(", "),
        all_clean,
        peak_conns,
        points.join(",\n"),
    ))
}

// ---------------------------------------------------------------------------
// --sched: the SLO-aware scheduler under ≥3× overload + served parity
// ---------------------------------------------------------------------------

/// Model the sched run drives. Convolution-bound, so one worker's
/// capacity is low enough for a single pacer thread to offer a clean 3×
/// overload, and per-item service time is well under the budget.
const SCHED_MODEL: &str = "lenet5";
/// Guaranteed-class latency budget for the sched run. The pipeline's
/// structural floor — one forming window plus `workers + 1` full batches
/// the EDF window cannot reorder past — is ~half of this on the
/// one-worker fixture, so the gate has real margin without being slack.
const SCHED_BUDGET_MICROS: u64 = 50_000;
/// Every `SCHED_GUARANTEED_EVERY`-th arrival is guaranteed; the rest are
/// best-effort. 1-in-8 keeps the guaranteed class itself well inside
/// capacity (~0.44× at a 3.5× offered rate) — the gate tests that
/// best-effort overload cannot displace an admissible guaranteed class,
/// not that an over-committed guaranteed class meets its own budget.
const SCHED_GUARANTEED_EVERY: usize = 8;

fn class_fragment(c: &ClassSnapshot) -> String {
    format!(
        concat!(
            "{{\"admitted\": {}, \"rejected_admission\": {}, \"shed\": {}, ",
            "\"completed\": {}, \"p50_micros\": {}, \"p99_micros\": {}}}"
        ),
        c.admitted, c.rejected_admission, c.shed, c.completed, c.p50_micros, c.p99_micros,
    )
}

/// SLO parity: the same SLO-tagged inputs through an `mlcnn-served
/// --slo` child and the local reference plan must produce identical
/// bytes, for both the guaranteed and the best-effort class.
fn sched_parity(model_name: &str, precision: Precision) -> Result<(), String> {
    let model = find_model(model_name).map_err(|e| e.to_string())?;
    let plan = model.compile(precision).map_err(|e| e.to_string())?;
    let mut ws = Workspace::for_plan(&plan, 1);
    let precision_flag = precision.to_string();
    let slo_flag = format!("guaranteed:{SCHED_BUDGET_MICROS}");
    let server = spawn_served(&[
        "--model",
        model_name,
        "--precision",
        &precision_flag,
        "--slo",
        &slo_flag,
        "--shards",
        "1",
    ])?;
    let mut client = Client::connect(server.addr).map_err(|e| e.to_string())?;
    let specs = [
        SloSpec::guaranteed(Duration::from_micros(SCHED_BUDGET_MICROS)),
        SloSpec::best_effort(),
    ];
    for seed in 0..3u64 {
        for spec in specs {
            let x = item_input(model.input, 6000 + seed);
            let want = plan.forward(&x, &mut ws).map_err(|e| e.to_string())?;
            let got = client
                .infer_slo(model_name, spec, x)
                .map_err(|e| format!("served ({spec}): {e}"))?;
            if got != want {
                return Err(format!(
                    "{model_name}@{precision}: SLO response diverges from plan.forward (seed {seed}, {spec})"
                ));
            }
        }
    }
    Ok(())
}

fn run_sched(args: &Args) -> Result<String, String> {
    let model = find_model(SCHED_MODEL).map_err(|e| e.to_string())?;
    let plan = Arc::new(model.compile(Precision::Fp32).map_err(|e| e.to_string())?);
    let budget = Duration::from_micros(SCHED_BUDGET_MICROS);

    // Phase 1: FIFO baseline capacity on one worker — the reference the
    // overload is sized against. One worker keeps capacity low enough
    // that a single pacer thread can genuinely offer 3× of it.
    let cap_requests = if args.smoke { 1_500 } else { 6_000 };
    let cap_cfg = ServeConfig::default()
        .with_workers(1)
        .with_batching(16, Duration::from_micros(200))
        .with_queue(1024);
    let cap_svc = Service::spawn(Arc::clone(&plan), cap_cfg).map_err(|e| e.to_string())?;
    let capacity_rps = pipelined_loop(&cap_svc, model.input, cap_requests, 256);
    cap_svc.shutdown();
    println!("[loadgen] sched capacity: {capacity_rps:.0} rps (1 worker, FIFO)");

    // Phase 2: mixed traffic at ≥3× capacity from a seeded bursty
    // schedule into an admission-controlled, auto-tuned service.
    // target 3.5× so pacer overhead cannot drag the *achieved* rate
    // under the 3× floor the gate asserts
    let offered_target = (capacity_rps * 3.5).ceil().max(1.0) as u64;
    let total = if args.smoke { 2_000 } else { 8_000 };
    let schedule = ArrivalSchedule::bursty(42, offered_target, total, 16);
    let sched_cfg = ServeConfig::default()
        .with_workers(1)
        .with_batching(16, Duration::from_micros(2_000))
        .with_queue(256)
        .with_slo(SloSpec::guaranteed(budget))
        .with_auto_tune(true);
    let svc = Service::spawn(Arc::clone(&plan), sched_cfg).map_err(|e| e.to_string())?;

    let mut submit_rejected = [0u64; 2]; // [guaranteed, best_effort]
    let mut pacer_secs = 0.0f64;
    let (tx, rx) = std::sync::mpsc::channel();
    let start = Instant::now();
    std::thread::scope(|s| {
        s.spawn(move || {
            // collector: resolve tickets off the pacer's critical path
            while let Ok(ticket) = rx.recv() {
                let t: mlcnn_serve::Ticket = ticket;
                let _ = t.wait();
            }
        });
        let x = item_input(model.input, 77);
        for (i, &offset) in schedule.offsets_nanos().iter().enumerate() {
            let due = start + Duration::from_nanos(offset);
            if let Some(sleep) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(sleep);
            }
            let guaranteed = i % SCHED_GUARANTEED_EVERY == 0;
            let spec = if guaranteed {
                SloSpec::guaranteed(budget)
            } else {
                SloSpec::best_effort()
            };
            match svc.submit_with_slo(x.clone(), spec) {
                Ok(t) => {
                    let _ = tx.send(t);
                }
                // overload rejections (admission or full queue) are the
                // scheduler doing its job; metrics attribute them
                Err(_) => submit_rejected[usize::from(!guaranteed)] += 1,
            }
        }
        // measure the pacer alone: the scope also waits for the
        // collector, whose drain time is not part of the offered rate
        pacer_secs = start.elapsed().as_secs_f64();
        drop(tx);
    });
    let offered_rps = total as f64 / pacer_secs.max(f64::EPSILON);
    let snap = svc.shutdown();

    let overload_factor = offered_rps / capacity_rps.max(1.0);
    let zero_guaranteed_sheds = snap.guaranteed.shed == 0;
    let guaranteed_holds_budget = snap.guaranteed.p99_micros <= SCHED_BUDGET_MICROS;
    let best_effort_absorbed = snap.shed_overload + snap.rejected_full + snap.best_effort.shed > 0;
    println!(
        "[loadgen] sched overload: offered {offered_rps:.0} rps ({overload_factor:.2}x capacity) — guaranteed p99 {} µs (budget {SCHED_BUDGET_MICROS}), {} guaranteed sheds, best-effort absorbed {} (shed_overload {} + rejected_full {})",
        snap.guaranteed.p99_micros,
        snap.guaranteed.shed,
        snap.shed_overload + snap.rejected_full,
        snap.shed_overload,
        snap.rejected_full,
    );

    // Phase 3: SLO frames served bitwise equal to the local plan.
    sched_parity(SCHED_MODEL, Precision::Fp32)?;
    println!("[loadgen] sched parity: served == plan.forward under --slo");

    if args.smoke {
        assert!(
            overload_factor >= 3.0,
            "sched: offered only {overload_factor:.2}x capacity (pacer fell behind)"
        );
        assert!(
            zero_guaranteed_sheds,
            "sched: {} guaranteed requests were shed past their deadline",
            snap.guaranteed.shed
        );
        assert!(
            guaranteed_holds_budget,
            "sched: guaranteed p99 {} µs breaches the {SCHED_BUDGET_MICROS} µs budget",
            snap.guaranteed.p99_micros
        );
        assert!(
            best_effort_absorbed,
            "sched: no overload was shed or rejected at 3x capacity"
        );
        assert!(
            snap.fully_drained(),
            "sched: service dropped in-flight requests"
        );
        println!("[loadgen] sched smoke gate passed");
    }

    Ok(format!(
        concat!(
            "{{\n",
            "  \"mode\": \"sched\",\n",
            "  \"smoke\": {smoke},\n",
            "  \"model\": \"{model}\",\n",
            "  \"precision\": \"fp32\",\n",
            "  \"budget_micros\": {budget},\n",
            "  \"guaranteed_every\": {every},\n",
            "  \"arrivals\": {{\"kind\": \"bursty\", \"seed\": 42, \"burst\": 16, \"total\": {total}}},\n",
            "  \"capacity_rps\": {capacity},\n",
            "  \"offered_rps\": {offered},\n",
            "  \"overload_factor\": {factor},\n",
            "  \"zero_guaranteed_sheds\": {zgs},\n",
            "  \"guaranteed_holds_budget\": {ghb},\n",
            "  \"best_effort_absorbed\": {bea},\n",
            "  \"fully_drained\": {drained},\n",
            "  \"shed_overload\": {shed_overload},\n",
            "  \"rejected_full\": {rejected_full},\n",
            "  \"shed_expired\": {shed_expired},\n",
            "  \"submit_rejected\": {{\"guaranteed\": {srg}, \"best_effort\": {srb}}},\n",
            "  \"guaranteed\": {g},\n",
            "  \"best_effort\": {b},\n",
            "  \"served_parity\": {{\"model\": \"{model}\", \"bitwise_identical\": true}}\n",
            "}}\n",
        ),
        smoke = args.smoke,
        model = SCHED_MODEL,
        budget = SCHED_BUDGET_MICROS,
        every = SCHED_GUARANTEED_EVERY,
        total = total,
        capacity = fmt_f64(capacity_rps),
        offered = fmt_f64(offered_rps),
        factor = fmt_f64(overload_factor),
        zgs = zero_guaranteed_sheds,
        ghb = guaranteed_holds_budget,
        bea = best_effort_absorbed,
        drained = snap.fully_drained(),
        shed_overload = snap.shed_overload,
        rejected_full = snap.rejected_full,
        shed_expired = snap.shed_expired,
        srg = submit_rejected[0],
        srb = submit_rejected[1],
        g = class_fragment(&snap.guaranteed),
        b = class_fragment(&snap.best_effort),
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mlcnn-loadgen: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = if args.sched {
        run_sched(&args)
    } else if args.sweep {
        run_sweep(&args)
    } else if args.remote.is_some() {
        run_remote(&args)
    } else {
        run_local(&args)
    };
    match result {
        Ok(json) => {
            if let Err(e) = std::fs::write(&args.out, &json) {
                eprintln!("mlcnn-loadgen: write {}: {e}", args.out);
                return ExitCode::FAILURE;
            }
            println!("[loadgen] wrote {}", args.out);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("mlcnn-loadgen: {e}");
            ExitCode::FAILURE
        }
    }
}
