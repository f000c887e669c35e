//! `perfbench` — the repository's benchmark: drives a real `mlcnn-served`
//! over TCP and measures it end to end, or (with `--trace 1`) layer by
//! layer from outside. See `README.md` beside this crate.
//!
//! ```text
//! perfbench --server PATH --workload NAME|all --seed N --seconds S --trace 0|1
//!           [--out DIR]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Any correctness failure (parity,
//! attribution, unreconciled counters, an invalid open-loop phase) exits
//! with status 1.

mod layers;
mod load;
mod server;
mod stats;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use layers::Metrics;
use load::{attribution, closed_loop, open_loop, Span, Tally};
use server::{launch_to_first_response, server_args, Server, Snapshot};
use stats::{json_num, json_str, median, quantile};
use workload::{pack_registry, Target, Workload, LADDER_STEP};

/// Server launches timed before the first block, and before each block
/// (spare servers beside the idle measured one, so the launches sample
/// the whole run); `setup_s` is the median of all of them.
const SETUP_LAUNCHES: usize = 5;
const SETUP_LAUNCHES_PER_BLOCK: usize = 2;
/// Equal slices per closed- or open-loop block; `throughput_rps` and
/// `p50_ms` are medians over the slices of all blocks.
const SLICES: usize = 5;
/// An open-loop phase is invalid when the generator's median lateness
/// exceeds this share of a connection's mean inter-arrival gap.
const MAX_LATENESS_SHARE: f64 = 0.5;
/// A timed run fails when fewer than this share of its open-loop blocks
/// are valid; `p50_ms` comes from the valid ones only.
const MIN_VALID_BLOCKS_SHARE: f64 = 0.5;
/// Attempts at the traced run's open loop before an invalid one fails it.
const TRACED_OPEN_ATTEMPTS: usize = 3;
/// Seed held out for confirming claims (also named in `BENCHMARK.json`).
const HELD_OUT_SEED: u64 = 9001;

struct Args {
    server: PathBuf,
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        server: PathBuf::new(),
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        out: PathBuf::from(".bench_out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--server" => a.server = PathBuf::from(v),
            "--workload" => a.workload = v,
            "--seed" => a.seed = num(&v)?,
            "--seconds" => a.seconds = num(&v)?.max(1),
            "--trace" => a.trace = num(&v)? != 0,
            "--out" => a.out = PathBuf::from(v),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if a.workload.is_empty() || a.server.as_os_str().is_empty() {
        return Err("--workload and --server are required".into());
    }
    Ok(a)
}

/// What a run observed beyond its metrics: correctness counters and the
/// run record written to the report file.
#[derive(Default)]
struct Run {
    tally: Tally,
    problems: Vec<String>,
    notes: Vec<(String, String)>,
    /// Metrics printed and recorded but not in `BENCHMARK.json`.
    reported: Metrics,
    spans: Vec<Span>,
}

impl Run {
    fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    fn problem(&mut self, p: impl Into<String>) {
        self.problems.push(p.into());
    }

    /// Fold a phase's client tally in, checking it reconciles.
    fn phase(&mut self, name: &str, t: &Tally) {
        if !t.reconciles() {
            self.problem(format!("{name}: client counts do not reconcile: {t:?}"));
        }
        if t.errors() > 0 {
            self.problem(format!("{name}: {} failed requests: {t:?}", t.errors()));
        }
        self.tally.add(t);
    }

    /// Cross-check a phase's client tally against the server's counter
    /// growth over the same phase (same endpoint, no swap in between).
    fn reconcile(&mut self, name: &str, before: &Snapshot, after: &Snapshot, t: &Tally) {
        if before.revision != after.revision {
            self.problem(format!(
                "{name}: endpoint changed during a phase without swaps"
            ));
            return;
        }
        let d = before.delta(after);
        let responses = t.ok + t.parity + t.misattributed;
        let ok = d.drained()
            && t.sent == d.submitted + d.rejected
            && responses == d.completed
            && t.wire_errors == d.failed + d.shed + d.rejected;
        if !ok {
            self.problem(format!(
                "{name}: server counters do not reconcile with the client's: server {d:?}, client {t:?}"
            ));
        }
    }
}

struct Env {
    nproc: usize,
    rayon_threads: usize,
}

/// `RAYON_NUM_THREADS` for the server and for this process. The vendored
/// rayon stand-in spawns scoped OS threads on every parallel call, which
/// made runs noisy; pinned to one, the server's parallelism is exactly
/// its `--workers`.
const RAYON_THREADS: usize = 1;

fn env() -> Env {
    // before any parallel call: the stand-in reads the variable once
    std::env::set_var("RAYON_NUM_THREADS", RAYON_THREADS.to_string());
    Env {
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        rayon_threads: RAYON_THREADS,
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn command_line(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

struct Phases {
    closed: Duration,
    open: Duration,
    rung: Duration,
}

/// Closed/open block pairs per timed run.
const BLOCKS: usize = 8;

/// 45% of the run in closed-loop blocks, 45% in open-loop blocks, 10% on
/// the ladder (whose result is reported but too unsteady to gate on).
fn phases(w: &Workload, seconds: u64) -> Phases {
    let total = Duration::from_secs(seconds);
    Phases {
        closed: total.mul_f64(0.45) / BLOCKS as u32,
        open: total.mul_f64(0.45) / BLOCKS as u32,
        rung: total.mul_f64(0.1) / w.ladder_rungs as u32,
    }
}

fn registry_dir(out: &Path, seed: u64) -> PathBuf {
    out.join(format!("registry-{seed}"))
}

/// Launch the server `launches` times, timing each to its first correct
/// response; keeps the last one running.
fn setup(
    a: &Args,
    env: &Env,
    target: &Target,
    launches: usize,
    run: &mut Run,
) -> Result<(Server, Vec<f64>, usize), String> {
    let args = server_args(target, &registry_dir(&a.out, a.seed));
    run.note("server_flags", args.join(" "));
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..launches {
        drop(last.take()); // stop the previous server before timing the next
        let (srv, t) = timed_launch(a, env, target, run)?;
        times.push(t);
        last = Some(srv);
    }
    Ok((
        last.expect("at least one launch"),
        times,
        target.refs.len() - 1,
    ))
}

/// Launch one server and time it to its first correct response, which
/// must come from the newest revision.
fn timed_launch(
    a: &Args,
    env: &Env,
    target: &Target,
    run: &mut Run,
) -> Result<(Server, f64), String> {
    let args = server_args(target, &registry_dir(&a.out, a.seed));
    let (srv, t, slot) = launch_to_first_response(&a.server, &args, env.rayon_threads, target)?;
    if slot != target.refs.len() - 1 {
        run.problem(format!(
            "first response came from slot {slot}, expected the newest revision"
        ));
    }
    Ok((srv, t.as_secs_f64()))
}

/// Median latency (µs) of each of `slices` equal slices of an open-loop
/// phase of length `span`, by response time; the drain after the
/// schedule ends counts in the last slice.
fn slice_p50s(r: &load::OpenResult, span: Duration, slices: usize) -> Vec<f64> {
    let width = span.as_secs_f64() / slices as f64;
    let mut groups = vec![Vec::new(); slices];
    for (rec, &lat) in r.received.iter().zip(&r.latency_us) {
        let at = rec.recv.saturating_duration_since(r.start).as_secs_f64();
        groups[((at / width) as usize).min(slices - 1)].push(lat);
    }
    groups
        .iter_mut()
        .filter(|g| !g.is_empty())
        .map(|g| median(g))
        .collect()
}

/// Whether an open-loop phase's generator kept its schedule: its median
/// lateness must stay within [`MAX_LATENESS_SHARE`] of the gap.
fn lateness_ok(name: &str, r: &load::OpenResult, run: &mut Run) -> bool {
    let mut late = r.lateness_us.clone();
    let p50 = median(&mut late);
    let p99 = quantile(&mut late, 0.99);
    run.note(&format!("{name}_lateness_p50_us"), format!("{p50:.1}"));
    run.note(&format!("{name}_lateness_p99_us"), format!("{p99:.1}"));
    run.note(
        &format!("{name}_conn_gap_us"),
        format!("{:.1}", r.conn_gap_us),
    );
    p50 <= MAX_LATENESS_SHARE * r.conn_gap_us
}

/// One open-loop phase with its checks: attribution against the swap
/// timeline, the generator's lateness, and (without swaps) counter
/// reconciliation with the server. Updates `active` to the revision live
/// at the end; returns the result, the per-swap publish times, and
/// whether the generator kept its schedule (an invalid phase is not
/// reported).
fn open_phase(
    name: &str,
    target: &Target,
    srv: &Server,
    rate: f64,
    span: Duration,
    seed: u64,
    swap: Option<Duration>,
    spans_on: bool,
    active: &mut usize,
    run: &mut Run,
) -> Result<(load::OpenResult, Vec<f64>, bool), String> {
    let before = Snapshot::fetch(srv.addr)?;
    let mut r = open_loop(target, srv.addr, rate, span, seed, swap, spans_on)?;
    let after = Snapshot::fetch(srv.addr)?;
    let (mis, publish_ms) = attribution(target, *active, &r.admin, &r.received)?;
    r.tally.ok -= mis;
    r.tally.misattributed += mis;
    if r.admin_failures > 0 {
        run.problem(format!(
            "{name}: {} publish/rollback frames failed",
            r.admin_failures
        ));
    }
    run.phase(name, &r.tally);
    match r.admin.last() {
        Some(last) => {
            // the endpoint changed: its fresh counters must still balance
            if !after.drained() {
                run.problem(format!("{name}: active endpoint not drained: {after:?}"));
            }
            if after.revision != Some(last.active) {
                run.problem(format!(
                    "{name}: server's active revision is not the last one acknowledged"
                ));
            }
            *active = target
                .slot_of(last.active)
                .ok_or("unknown active revision")?;
        }
        None => run.reconcile(name, &before, &after, &r.tally),
    }
    let valid = lateness_ok(name, &r, run);
    Ok((r, publish_ms, valid))
}

/// Untraced run: every end-to-end metric of one workload. The closed
/// and open loops alternate in [`BLOCKS`] blocks so that both sample the
/// whole run (the host's speed drifts over seconds); the ladder follows.
fn timed(a: &Args, env: &Env, target: &Target, run: &mut Run) -> Result<Metrics, String> {
    let w = &target.workload;
    let ph = phases(w, a.seconds);
    let (srv, mut setups, mut active) = setup(a, env, target, SETUP_LAUNCHES, run)?;
    let mut m = Metrics::default();

    let warm = closed_loop(
        target,
        srv.addr,
        w.window,
        Duration::from_millis(300),
        1,
        a.seed ^ 1,
        active,
        false,
    )?;
    run.phase("warmup", &warm.tally);
    let mut slice_rps = Vec::new();
    let mut latency_us = Vec::new();
    let mut slice_p50_us = Vec::new();
    let mut publish_ms = Vec::new();
    let mut valid_blocks = 0;
    for b in 0..BLOCKS {
        for _ in 0..SETUP_LAUNCHES_PER_BLOCK {
            setups.push(timed_launch(a, env, target, run)?.1); // the spare stops here
        }
        let seed = a.seed.wrapping_add(1000 * b as u64);
        let s0 = Snapshot::fetch(srv.addr)?;
        let closed = closed_loop(
            target, srv.addr, w.window, ph.closed, SLICES, seed, active, false,
        )?;
        let s1 = Snapshot::fetch(srv.addr)?;
        run.phase(&format!("closed{b}"), &closed.tally);
        run.reconcile(&format!("closed{b}"), &s0, &s1, &closed.tally);
        slice_rps.extend(closed.slice_rps);
        let (open, publish, valid) = open_phase(
            &format!("open{b}"),
            target,
            &srv,
            w.open_rps,
            ph.open,
            seed,
            w.swap_period,
            false,
            &mut active,
            run,
        )?;
        publish_ms.extend(publish);
        if !valid {
            // the host stalled the generator: the phase's latencies
            // measure the stall, so it is marked and left out
            run.note(
                &format!("open{b}"),
                "invalid: the generator fell behind its schedule",
            );
            continue;
        }
        valid_blocks += 1;
        slice_p50_us.extend(slice_p50s(&open, ph.open, SLICES));
        latency_us.extend(open.latency_us);
    }
    run.note("open_valid_blocks", format!("{valid_blocks}/{BLOCKS}"));
    if (valid_blocks as f64) < MIN_VALID_BLOCKS_SHARE * BLOCKS as f64 {
        run.problem(format!(
            "only {valid_blocks} of {BLOCKS} open-loop blocks kept the generator's schedule"
        ));
    }
    m.push("setup_s", "s", median(&mut setups.clone()));
    // medians over all slices: on a shared host a few slices fall in
    // episodes where other tenants slow it 2-4x, and a mean follows them
    m.push("throughput_rps", "1/s", median(&mut slice_rps.clone()));
    m.push("p50_ms", "ms", median(&mut slice_p50_us.clone()) / 1e3);
    run.note("setup_s_samples", format!("{setups:.5?}"));
    run.note("closed_slice_rps", format!("{slice_rps:.0?}"));
    run.note("open_slice_p50_us", format!("{slice_p50_us:.0?}"));
    run.note("open_responses", latency_us.len());
    // reported, but not steady enough across seeds to gate on
    run.reported
        .push("p99_ms", "ms", quantile(&mut latency_us, 0.99) / 1e3);
    if w.swap_period.is_some() {
        if publish_ms.is_empty() {
            run.problem("no swap was followed by a response from its revision");
        }
        run.reported
            .push("publish_ms", "ms", median(&mut publish_ms.clone()));
        run.note("publish_ms_samples", format!("{publish_ms:.3?}"));
    }

    // ladder: highest fixed rung meeting the p99 limit without a growing backlog
    let mut slo = 0.0;
    for k in 0..w.ladder_rungs {
        let rate = w.ladder_base * LADDER_STEP.powi(k as i32);
        let seed = a.seed.wrapping_add(k as u64 + 1);
        let (r, _, valid) = open_phase(
            &format!("rung{k}"),
            target,
            &srv,
            rate,
            ph.rung,
            seed,
            None,
            false,
            &mut active,
            run,
        )?;
        if !valid {
            run.note(
                &format!("rung{k}"),
                format!("rate={rate} invalid: the generator fell behind"),
            );
            break;
        }
        let p99 = quantile(&mut r.latency_us.clone(), 0.99);
        let backlog_ok = (r.backlog as f64) <= rate * w.p99_limit.as_secs_f64();
        run.note(
            &format!("rung{k}"),
            format!("rate={rate} p99_us={p99:.0} backlog={}", r.backlog),
        );
        if r.tally.errors() == 0 && p99 <= w.p99_limit.as_secs_f64() * 1e6 && backlog_ok {
            slo = rate;
        } else {
            break;
        }
    }
    run.reported.push("slo_rps", "1/s", slo);
    drop(srv);
    Ok(m)
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

fn share(part: u64, whole: u64) -> f64 {
    part as f64 / whole.max(1) as f64
}

/// Traced run: the per-layer metrics.
fn traced(a: &Args, env: &Env, target: &Target, run: &mut Run) -> Result<Metrics, String> {
    let w = &target.workload;
    let span = Duration::from_secs(a.seconds).mul_f64(0.2);
    let mut m = Metrics::default();
    let (srv, _, mut active) = setup(a, env, target, 1, run)?;
    let warm = closed_loop(
        target,
        srv.addr,
        w.window,
        Duration::from_millis(300),
        1,
        a.seed ^ 1,
        active,
        false,
    )?;
    run.phase("warmup", &warm.tally);

    // untraced and traced closed loops alternate in blocks (the host's
    // speed drifts); the difference in throughput is the tracing overhead
    let s0 = Snapshot::fetch(srv.addr)?;
    let block = span / BLOCKS as u32;
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let (mut batches, mut completed, mut sent) = (0, 0, 0);
    for b in 0..BLOCKS {
        for spans_on in [false, true] {
            let name = format!("closed{}{b}", if spans_on { "_traced" } else { "" });
            let before = Snapshot::fetch(srv.addr)?;
            let r = closed_loop(
                target, srv.addr, w.window, block, SLICES, a.seed, active, spans_on,
            )?;
            let after = Snapshot::fetch(srv.addr)?;
            run.phase(&name, &r.tally);
            run.reconcile(&name, &before, &after, &r.tally);
            let d = before.delta(&after);
            (batches, completed, sent) = (
                batches + d.batches,
                completed + d.completed,
                sent + r.tally.sent,
            );
            if spans_on {
                traced.extend(r.slice_rps);
                run.spans.extend(r.spans);
            } else {
                plain.extend(r.slice_rps);
            }
        }
    }
    let (rps, rps_traced) = (mean(&plain), mean(&traced));
    run.reported.push("throughput_rps_untraced", "1/s", rps);
    run.reported
        .push("throughput_rps_traced", "1/s", rps_traced);
    m.push("trace.overhead_share", "ratio", 1.0 - rps_traced / rps);
    m.push("serve.mean_batch", "count", share(completed, batches));

    // open loop at the fixed rate (no swaps: one endpoint, so the
    // server's histogram growth covers exactly this phase); a phase whose
    // generator fell behind is marked invalid and run again
    let (mut attempt, mut sent) = (0, sent);
    let (open, s2) = loop {
        attempt += 1;
        let s2 = Snapshot::fetch(srv.addr)?;
        let (open, _, valid) = open_phase(
            &format!("open{attempt}"),
            target,
            &srv,
            w.open_rps,
            span,
            a.seed,
            None,
            true,
            &mut active,
            run,
        )?;
        sent += open.tally.sent;
        if valid {
            break (open, s2);
        }
        run.note(
            &format!("open{attempt}"),
            "invalid: the generator fell behind its schedule",
        );
        if attempt == TRACED_OPEN_ATTEMPTS {
            return Err(format!(
                "the generator fell behind its schedule in all {attempt} open-loop attempts"
            ));
        }
    };
    let s3 = Snapshot::fetch(srv.addr)?;
    let d = s2.delta(&s3);
    let server_p50 = stats::bucket_quantile(&d.buckets, 0.5);
    m.push("serve.server_p50_us", "us", server_p50);
    m.push(
        "serve.server_p99_us",
        "us",
        stats::bucket_quantile(&d.buckets, 0.99),
    );
    m.push(
        "net.wire_overhead_us",
        "us",
        median(&mut open.latency_us.clone()) - server_p50,
    );
    let all = s0.delta(&s3);
    m.push("serve.rejected_share", "ratio", share(all.rejected, sent));
    m.push("serve.shed_share", "ratio", share(all.shed, sent));
    drop(srv);
    run.spans.extend(open.spans);

    let mut counts = String::new();
    let mut model = Metrics::default();
    for wl in workload::all() {
        layers::model_probes(&wl, a.seed, &mut model, &mut counts)?;
    }
    let b1 = model
        .0
        .iter()
        .find(|x| x.name == format!("{}.core.forward_us.b1", w.name))
        .map(|x| x.value)
        .ok_or("missing core.forward_us.b1")?;
    layers::service_probes(target, w.window, span, b1, &mut m)?;
    let inproc =
        m.0.iter()
            .find(|x| x.name == "serve.inproc_rps")
            .map(|x| x.value);
    m.push(
        "net.wire_vs_inproc",
        "ratio",
        rps / inproc.ok_or("missing serve.inproc_rps")?,
    );
    layers::codec_probe(target, &mut m)?;

    // the swap workload's registry, packed whatever the selected workload
    let swap = workload::all()
        .into_iter()
        .find(|x| x.registry)
        .expect("a registry workload");
    let swap_target = if w.registry {
        None
    } else {
        Some(Target::prepare(&swap, a.seed)?)
    };
    let st = swap_target.as_ref().unwrap_or(target);
    let dir = registry_dir(&a.out, a.seed);
    pack_registry(&dir, &st.artifacts)?;
    layers::registry_probes(&dir, &st.artifacts, swap.precision, &mut m)?;
    m.0.extend(model.0);
    check_counts(&a.out, a.seed, &counts, run)?;
    Ok(m)
}

/// The exact counts must repeat identically between runs of one seed.
fn check_counts(out: &Path, seed: u64, counts: &str, run: &mut Run) -> Result<(), String> {
    let path = out.join(format!("counts-{seed}.txt"));
    match std::fs::read_to_string(&path) {
        Ok(prev) if prev != counts => run.problem(format!(
            "exact op counts / simulated cycles differ from the previous run's {}",
            path.display()
        )),
        Ok(_) => {}
        Err(_) => std::fs::write(&path, counts).map_err(|e| format!("{}: {e}", path.display()))?,
    }
    Ok(())
}

fn write_spans(path: &Path, spans: &[Span]) -> Result<(), String> {
    let mut s = String::from("name,req,start_ns,end_ns\n");
    for sp in spans {
        s.push_str(&format!(
            "{},{},{},{}\n",
            sp.name, sp.req, sp.start_ns, sp.end_ns
        ));
    }
    std::fs::write(path, s).map_err(|e| format!("{}: {e}", path.display()))
}

fn metrics_json(m: &Metrics) -> String {
    let body: Vec<String> =
        m.0.iter()
            .map(|x| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(&x.name),
                    json_num(x.value),
                    json_str(x.unit)
                )
            })
            .collect();
    format!("{{{}}}", body.join(", "))
}

/// Run one workload; prints its row and returns (correct, attempted,
/// failed, metrics).
fn run_one(a: &Args, env: &Env, name: &str) -> Result<(bool, u64, u64, Metrics), String> {
    let w = workload::find(name)?;
    let started = Instant::now();
    std::fs::create_dir_all(&a.out).map_err(|e| format!("{}: {e}", a.out.display()))?;
    let target = Target::prepare(&w, a.seed)?;
    if w.registry {
        pack_registry(&registry_dir(&a.out, a.seed), &target.artifacts)?;
    }
    let mut run = Run::default();
    let m = if a.trace {
        traced(a, env, &target, &mut run)?
    } else {
        timed(a, env, &target, &mut run)?
    };
    let t = run.tally;
    let error_rate = share(t.errors(), t.sent);
    let correct = run.problems.is_empty() && t.errors() == 0;

    // human-readable: a row per timed workload, a line per traced metric
    let cell = |x: &layers::Metric| format!("{}={:.4} {}", x.name, x.value, x.unit);
    if a.trace {
        for x in m.0.iter().chain(&run.reported.0) {
            println!("{:<16} {:<56} {:>14.4} {}", w.name, x.name, x.value, x.unit);
        }
    } else {
        let gated: Vec<String> = m.0.iter().map(cell).collect();
        let reported: Vec<String> = run.reported.0.iter().map(cell).collect();
        println!(
            "{:<16} {} | {} error_rate={error_rate:.6}",
            w.name,
            gated.join(" "),
            reported.join(" ")
        );
    }
    for p in &run.problems {
        eprintln!("perfbench: {}: {p}", w.name);
    }

    // run record
    let mode = if a.trace { "trace" } else { "timed" };
    let mut rec = vec![
        ("workload".to_string(), json_str(w.name)),
        ("model".into(), json_str(w.model)),
        ("precision".into(), json_str(&w.precision.to_string())),
        ("seed".into(), a.seed.to_string()),
        ("held_out_seed".into(), HELD_OUT_SEED.to_string()),
        ("seconds".into(), a.seconds.to_string()),
        ("mode".into(), json_str(mode)),
        ("nproc".into(), env.nproc.to_string()),
        ("cpu".into(), json_str(&cpu_model())),
        (
            "rustc".into(),
            json_str(&command_line("rustc", &["--version"])),
        ),
        (
            "commit".into(),
            json_str(&command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rayon_num_threads".into(), env.rayon_threads.to_string()),
        ("correct".into(), correct.to_string()),
        ("error_rate".into(), json_num(error_rate)),
        ("client".into(), json_str(&format!("{t:?}"))),
        (
            "problems".into(),
            format!(
                "[{}]",
                run.problems
                    .iter()
                    .map(|p| json_str(p))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ),
        ("metrics".into(), metrics_json(&m)),
        ("reported".into(), metrics_json(&run.reported)),
        ("wall_s".into(), json_num(started.elapsed().as_secs_f64())),
    ];
    rec.extend(run.notes.iter().map(|(k, v)| (k.clone(), json_str(v))));
    let body: Vec<String> = rec
        .iter()
        .map(|(k, v)| format!("  {}: {v}", json_str(k)))
        .collect();
    let report = a
        .out
        .join(format!("report-{}-{}-{mode}.json", w.name, a.seed));
    std::fs::write(&report, format!("{{\n{}\n}}\n", body.join(",\n")))
        .map_err(|e| format!("{}: {e}", report.display()))?;
    if a.trace {
        write_spans(
            &a.out.join(format!("spans-{}-{}.csv", w.name, a.seed)),
            &run.spans,
        )?;
    }
    Ok((correct, t.sent.max(1), t.errors(), m))
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let env = env();
    let names: Vec<&str> = if a.workload == "all" {
        workload::all().iter().map(|w| w.name).collect()
    } else {
        vec![a.workload.as_str()]
    };
    // one workload: its own metrics; `all`: every workload's, prefixed
    let prefix = names.len() > 1;
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut metrics = Metrics::default();
    for name in names {
        match run_one(&a, &env, name) {
            Ok((ok, n, f, m)) => {
                correct &= ok;
                attempted += n;
                failed += f;
                for x in m.0 {
                    let key = if prefix {
                        format!("{name}.{}", x.name)
                    } else {
                        x.name
                    };
                    metrics.push(key, x.unit, x.value);
                }
            }
            Err(e) => {
                eprintln!("perfbench: {name}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(&metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
