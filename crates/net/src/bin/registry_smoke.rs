//! `mlcnn-registry-smoke` — end-to-end rehearsal of a registry hot-swap
//! under live load.
//!
//! ```text
//! mlcnn-registry-smoke [--model NAME] [--clients N] [--requests N]
//!                      [--out BENCH_registry.json]
//! ```
//!
//! The rehearsal, in order:
//!
//! 1. pack two revisions of one zoo model into a scratch registry
//!    directory (different weight seeds, so their outputs are
//!    distinguishable);
//! 2. open the directory with [`ModelRegistry`], front it with a
//!    [`Router`], and serve it over TCP with a [`NetServer`];
//! 3. hammer the server from concurrent clients while the main thread
//!    publishes revision 2 mid-load;
//! 4. assert **zero failed requests** and that every single response is
//!    bitwise attributable to exactly one of the two revisions;
//! 5. roll back to revision 1 and verify responses follow;
//! 6. write the tallies to a benchmark JSON report.
//!
//! Exits non-zero if any request fails, any response matches neither
//! revision, or the swap/rollback don't take effect.

use std::net::TcpListener;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mlcnn_core::Workspace;
use mlcnn_net::{NetConfig, NetServer};
use mlcnn_quant::Precision;
use mlcnn_registry::{Artifact, ModelRegistry};
use mlcnn_serve::{find_model, Client, Router, ServeConfig};
use mlcnn_tensor::{init, Shape4, Tensor};

const SEED_REV1: u64 = 1001;
const SEED_REV2: u64 = 2002;

struct Args {
    model: String,
    clients: usize,
    requests: usize,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        model: "mlp-mini".into(),
        clients: 4,
        requests: 200,
        out: PathBuf::from("BENCH_registry.json"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--model" => args.model = val("--model")?,
            "--clients" => {
                args.clients = val("--clients")?
                    .parse()
                    .map_err(|e| format!("--clients: {e}"))?
            }
            "--requests" => {
                args.requests = val("--requests")?
                    .parse()
                    .map_err(|e| format!("--requests: {e}"))?
            }
            "--out" => args.out = PathBuf::from(val("--out")?),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if args.clients == 0 || args.requests == 0 {
        return Err("--clients and --requests must be positive".into());
    }
    Ok(args)
}

/// `model` at `revision` with FP32 weights from `seed`.
fn artifact(model: &str, revision: u64, seed: u64) -> Result<Artifact, String> {
    find_model(model)
        .and_then(|zoo| zoo.artifact(revision, Precision::Fp32, seed))
        .map_err(|e| e.to_string())
}

/// Pack `model` at `revision` with weights from `seed`.
fn pack(dir: &std::path::Path, model: &str, revision: u64, seed: u64) -> Result<(), String> {
    let artifact = artifact(model, revision, seed)?;
    let bytes = artifact.encode().map_err(|e| e.to_string())?;
    std::fs::write(dir.join(artifact.file_name()), bytes).map_err(|e| e.to_string())
}

/// Reference single-item forward for `(model, seed)` on `input`.
fn reference(model: &str, seed: u64, input: &Tensor<f32>) -> Result<Vec<f32>, String> {
    let plan = artifact(model, 1, seed)?
        .compile(Precision::Fp32)
        .map_err(|e| e.to_string())?;
    let mut ws = Workspace::new();
    let out = plan.forward(input, &mut ws).map_err(|e| e.to_string())?;
    Ok(out.as_slice().to_vec())
}

struct Tally {
    ok_rev1: usize,
    ok_rev2: usize,
    failed: usize,
    unattributed: usize,
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let dir = std::env::temp_dir().join(format!("mlcnn-registry-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;

    pack(&dir, &args.model, 1, SEED_REV1)?;
    pack(&dir, &args.model, 2, SEED_REV2)?;

    let registry = ModelRegistry::open(&dir).map_err(|e| e.to_string())?;
    let active = registry.active(&args.model).map_err(|e| e.to_string())?;
    // open() activates the highest revision; start from rev 1 so the
    // publish mid-load is a real upgrade.
    assert_eq!(active, 2, "open should activate the highest revision");
    registry
        .publish(&args.model, 1)
        .map_err(|e| e.to_string())?;

    let router = Arc::new(
        Router::new(Arc::new(registry), ServeConfig::default()).map_err(|e| e.to_string())?,
    );
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let server = NetServer::spawn(listener, Arc::clone(&router), NetConfig::default())
        .map_err(|e| e.to_string())?;
    let addr = server.local_addr();

    let shape = find_model(&args.model).map_err(|e| e.to_string())?.input;
    let input = init::uniform(
        Shape4::new(1, shape.c, shape.h, shape.w),
        -1.0,
        1.0,
        &mut init::rng(7),
    );
    let ref1 = reference(&args.model, SEED_REV1, &input)?;
    let ref2 = reference(&args.model, SEED_REV2, &input)?;
    if ref1 == ref2 {
        return Err("revision outputs are indistinguishable; smoke cannot attribute".into());
    }

    let start = Instant::now();
    let swapped = Arc::new(AtomicBool::new(false));
    let per_client = args.requests / args.clients;
    let mut tally = Tally {
        ok_rev1: 0,
        ok_rev2: 0,
        failed: 0,
        unattributed: 0,
    };
    std::thread::scope(|s| -> Result<(), String> {
        let mut handles = Vec::new();
        for _ in 0..args.clients {
            let model = args.model.clone();
            let input = input.clone();
            let (ref1, ref2) = (&ref1, &ref2);
            let swapped = Arc::clone(&swapped);
            handles.push(s.spawn(move || -> Result<Tally, String> {
                let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
                let mut t = Tally {
                    ok_rev1: 0,
                    ok_rev2: 0,
                    failed: 0,
                    unattributed: 0,
                };
                for i in 0..per_client {
                    match client.infer_model(&model, input.clone()) {
                        Ok(out) => {
                            let got = out.as_slice();
                            if got == &ref1[..] {
                                t.ok_rev1 += 1;
                            } else if got == &ref2[..] {
                                t.ok_rev2 += 1;
                            } else {
                                t.unattributed += 1;
                            }
                        }
                        Err(_) => t.failed += 1,
                    }
                    // once the swap has landed, responses must be rev2
                    if swapped.load(Ordering::Acquire) && i % 8 == 0 {
                        std::thread::yield_now();
                    }
                }
                Ok(t)
            }));
        }

        // Let traffic establish on rev 1, then hot-swap to rev 2 while
        // the clients keep hammering.
        std::thread::sleep(Duration::from_millis(30));
        let mut admin = Client::connect(addr).map_err(|e| e.to_string())?;
        let (active, previous) = admin.publish(&args.model, 2).map_err(|e| e.to_string())?;
        if (active, previous) != (2, 1) {
            return Err(format!(
                "publish returned ({active}, {previous}), want (2, 1)"
            ));
        }
        swapped.store(true, Ordering::Release);

        for h in handles {
            let t = h
                .join()
                .map_err(|_| "client thread panicked".to_string())??;
            tally.ok_rev1 += t.ok_rev1;
            tally.ok_rev2 += t.ok_rev2;
            tally.failed += t.failed;
            tally.unattributed += t.unattributed;
        }
        Ok(())
    })?;
    let elapsed = start.elapsed();

    // After the load: the active revision must be 2 and fresh responses
    // must match it.
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    let post_swap = client
        .infer_model(&args.model, input.clone())
        .map_err(|e| e.to_string())?;
    if post_swap.as_slice() != &ref2[..] {
        return Err("post-swap response does not match revision 2".into());
    }
    let (active, previous) = client.rollback(&args.model).map_err(|e| e.to_string())?;
    if (active, previous) != (1, 2) {
        return Err(format!(
            "rollback returned ({active}, {previous}), want (1, 2)"
        ));
    }
    let post_rollback = client
        .infer_model(&args.model, input.clone())
        .map_err(|e| e.to_string())?;
    if post_rollback.as_slice() != &ref1[..] {
        return Err("post-rollback response does not match revision 1".into());
    }
    server.shutdown();

    let total = tally.ok_rev1 + tally.ok_rev2 + tally.failed + tally.unattributed;
    let report = format!(
        "{{\n  \"model\": \"{}\",\n  \"clients\": {},\n  \"requests\": {},\n  \"rev1_responses\": {},\n  \"rev2_responses\": {},\n  \"failed\": {},\n  \"unattributed\": {},\n  \"swap_under_load\": true,\n  \"rollback_verified\": true,\n  \"elapsed_ms\": {}\n}}\n",
        args.model,
        args.clients,
        total,
        tally.ok_rev1,
        tally.ok_rev2,
        tally.failed,
        tally.unattributed,
        elapsed.as_millis(),
    );
    std::fs::write(&args.out, &report).map_err(|e| format!("write {}: {e}", args.out.display()))?;
    println!(
        "mlcnn-registry-smoke: {} requests — rev1 {}, rev2 {}, failed {}, unattributed {} ({} ms)",
        total,
        tally.ok_rev1,
        tally.ok_rev2,
        tally.failed,
        tally.unattributed,
        elapsed.as_millis()
    );
    let _ = std::fs::remove_dir_all(&dir);

    if tally.failed > 0 {
        return Err(format!("{} requests failed during the swap", tally.failed));
    }
    if tally.unattributed > 0 {
        return Err(format!(
            "{} responses matched neither revision",
            tally.unattributed
        ));
    }
    if tally.ok_rev2 == 0 {
        return Err("no response was served by revision 2; swap never took effect".into());
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("mlcnn-registry-smoke: {e}");
            ExitCode::FAILURE
        }
    }
}
