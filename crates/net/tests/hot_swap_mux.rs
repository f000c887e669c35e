//! The hot-swap contract on the event-driven transport: publishing and
//! rolling back a revision under concurrent multiplexed load loses
//! zero requests, and every response is bitwise attributable to
//! exactly one revision — never a blend, never a third thing. The
//! `Router` is wired under [`NetServer`] exactly as `mlcnn-served
//! --registry` wires it.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use mlcnn_core::{ExecutionPlan, PlanOptions, Workspace};
use mlcnn_net::{run_mux, MuxOptions, NetConfig, NetServer};
use mlcnn_nn::spec::build_network;
use mlcnn_quant::Precision;
use mlcnn_registry::{Artifact, ModelRegistry};
use mlcnn_serve::{find_model, Client, Router, ServeConfig};
use mlcnn_tensor::{init, Shape4, Tensor};

const MODEL: &str = "mlp-mini";
const SEED_REV1: u64 = 41;
const SEED_REV2: u64 = 42;

struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("mlcnn-netswap-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn pack(dir: &std::path::Path, revision: u64, seed: u64) {
    let zoo = find_model(MODEL).unwrap();
    let mut net = build_network(&zoo.specs, zoo.input, seed).unwrap();
    let artifact = Artifact {
        model: MODEL.to_string(),
        revision,
        specs: zoo.specs.clone(),
        input: zoo.input,
        precision: Precision::Fp32,
        params: net.export_params(),
    };
    std::fs::write(dir.join(artifact.file_name()), artifact.encode().unwrap()).unwrap();
}

fn reference(seed: u64, input: &Tensor<f32>) -> Tensor<f32> {
    let zoo = find_model(MODEL).unwrap();
    let mut net = build_network(&zoo.specs, zoo.input, seed).unwrap();
    let params = net.export_params();
    let plan = ExecutionPlan::compile(
        &zoo.specs,
        &params,
        zoo.input,
        PlanOptions::default().with_precision(Precision::Fp32),
    )
    .unwrap();
    let mut ws = Workspace::new();
    plan.forward(input, &mut ws).unwrap()
}

fn fixed_input() -> Tensor<f32> {
    let shape = find_model(MODEL).unwrap().input;
    init::uniform(
        Shape4::new(1, shape.c, shape.h, shape.w),
        -1.0,
        1.0,
        &mut init::rng(11),
    )
}

/// Two-revision registry, revision 1 active, served over the
/// event-driven transport.
fn server_on_rev1(scratch: &Scratch) -> NetServer {
    pack(&scratch.0, 1, SEED_REV1);
    pack(&scratch.0, 2, SEED_REV2);
    let registry = ModelRegistry::open(&scratch.0).unwrap();
    registry.publish(MODEL, 1).unwrap(); // open() activated rev 2 (highest)
    let cfg = ServeConfig::default()
        .with_batching(16, Duration::from_micros(200))
        .with_queue(4096);
    let router = Arc::new(Router::new(Arc::new(registry), cfg).unwrap());
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    NetServer::spawn(
        listener,
        router,
        NetConfig::default()
            .with_shards(2)
            .with_queue_capacity(4096),
    )
    .unwrap()
}

fn mux_against(server: &NetServer, input: &Tensor<f32>, expected: Option<&Tensor<f32>>) {
    let mut opts = MuxOptions::new(MODEL, vec![input.clone()]);
    opts.expected = expected.map(|e| vec![e.clone()]);
    opts.connections = 64;
    opts.threads = 2;
    opts.pipeline = 4;
    opts.requests_per_conn = 8;
    let report = run_mux(server.local_addr(), &opts).unwrap();
    assert!(report.clean(), "dirty mux run: {report:?}");
}

#[test]
fn hot_swap_under_mux_load_loses_nothing_and_attributes_bitwise() {
    let scratch = Scratch::new("underload");
    let server = server_on_rev1(&scratch);
    let input = fixed_input();
    let ref1 = reference(SEED_REV1, &input);
    let ref2 = reference(SEED_REV2, &input);
    assert_ne!(ref1, ref2, "revisions must be distinguishable");

    // before the swap: every multiplexed response is bitwise rev 1
    mux_against(&server, &input, Some(&ref1));

    // during: heavy multiplexed load with the wire publish landing in
    // the middle; blocking clients audit attribution the whole time
    let addr = server.local_addr();
    let (mut from_rev1, mut from_rev2) = (0usize, 0usize);
    std::thread::scope(|s| {
        // volume: pipelined mux load across the swap — transport-level
        // cleanliness (zero lost, zero reordered, zero duplicated)
        let mux = s.spawn(|| {
            let mut opts = MuxOptions::new(MODEL, vec![input.clone()]);
            opts.connections = 64;
            opts.threads = 2;
            opts.pipeline = 4;
            opts.requests_per_conn = 24;
            run_mux(addr, &opts).unwrap()
        });

        // audit: every response must equal exactly one reference
        let mut auditors = Vec::new();
        for _ in 0..3 {
            let input = input.clone();
            let (ref1, ref2) = (&ref1, &ref2);
            auditors.push(s.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let mut counts = (0usize, 0usize);
                for _ in 0..60 {
                    let out = client.infer_model(MODEL, input.clone()).unwrap();
                    if &out == ref1 {
                        counts.0 += 1;
                    } else if &out == ref2 {
                        counts.1 += 1;
                    } else {
                        panic!("response matches neither revision bitwise");
                    }
                }
                counts
            }));
        }

        // the swap, as a wire frame, mid-load
        std::thread::sleep(Duration::from_millis(15));
        let mut admin = Client::connect(addr).unwrap();
        assert_eq!(admin.publish(MODEL, 2).unwrap(), (2, 1));

        let report = mux.join().unwrap();
        assert!(report.clean(), "swap dirtied the mux run: {report:?}");
        assert_eq!(report.received, 64 * 24);
        for a in auditors {
            let (r1, r2) = a.join().unwrap();
            from_rev1 += r1;
            from_rev2 += r2;
        }
    });
    assert_eq!(from_rev1 + from_rev2, 3 * 60, "every audit answered once");

    // strictly after the publish returned, only rev 2 answers
    let mut client = Client::connect(addr).unwrap();
    assert_eq!(client.infer_model(MODEL, input.clone()).unwrap(), ref2);
    mux_against(&server, &input, Some(&ref2));

    // rollback over the wire restores rev 1 bitwise, still under mux
    let mut admin = Client::connect(addr).unwrap();
    assert_eq!(admin.rollback(MODEL).unwrap(), (1, 2));
    mux_against(&server, &input, Some(&ref1));

    server.shutdown();
}

/// Admin frames for unknown models/revisions come back as wire errors
/// on the event-driven transport without disturbing the connection.
#[test]
fn admin_errors_are_wire_errors_not_teardowns() {
    let scratch = Scratch::new("guards");
    let server = server_on_rev1(&scratch);
    let input = fixed_input();
    let ref1 = reference(SEED_REV1, &input);

    let mut client = Client::connect(server.local_addr()).unwrap();
    let err = client.publish(MODEL, 9).unwrap_err();
    assert!(err.to_string().contains("revision 9"), "{err}");
    let err = client.publish("resnet18", 1).unwrap_err();
    assert!(err.to_string().contains("resnet18"), "{err}");

    // same connection still serves and rev 1 is untouched
    assert_eq!(client.infer_model(MODEL, input).unwrap(), ref1);
    server.shutdown();
}
