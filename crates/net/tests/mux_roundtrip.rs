//! End-to-end contract of the event-driven transport, in-process:
//! hundreds of multiplexed, pipelined connections against a
//! [`NetServer`] must lose nothing, duplicate nothing, answer in
//! order, and return bitwise the same tensors the plan computes —
//! including when the client pipelines far beyond the server's
//! per-connection cap (backpressure, not failure), when peers go
//! silent (idle reaping), when they speak garbage (connection close),
//! and when they arrive beyond the admission cap (dropped at the
//! door, budget respected).

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mlcnn_core::Workspace;
use mlcnn_net::{run_mux, MuxOptions, NetConfig, NetServer};
use mlcnn_quant::Precision;
use mlcnn_serve::{find_model, Client, NamedService, ServeConfig, Service};
use mlcnn_tensor::{init, Shape4, Tensor};

const MODEL: &str = "mlp-mini";

fn inputs_and_expected(n: usize) -> (Vec<Tensor<f32>>, Vec<Tensor<f32>>) {
    let model = find_model(MODEL).unwrap();
    let plan = model.compile(Precision::Fp32).unwrap();
    let mut ws = Workspace::for_plan(&plan, 1);
    let mut inputs = Vec::with_capacity(n);
    let mut expected = Vec::with_capacity(n);
    for seed in 0..n as u64 {
        let x = init::uniform(
            Shape4::new(1, model.input.c, model.input.h, model.input.w),
            -1.0,
            1.0,
            &mut init::rng(500 + seed),
        );
        expected.push(plan.forward(&x, &mut ws).unwrap());
        inputs.push(x);
    }
    (inputs, expected)
}

fn spawn_server(cfg: NetConfig, queue: usize) -> (NetServer, Arc<NamedService>) {
    let model = find_model(MODEL).unwrap();
    let plan = Arc::new(model.compile(Precision::Fp32).unwrap());
    let svc = Service::spawn(
        plan,
        ServeConfig::default()
            .with_batching(16, Duration::from_micros(200))
            .with_queue(queue),
    )
    .unwrap();
    let backend = Arc::new(NamedService::new(MODEL, svc));
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let server = NetServer::spawn(listener, Arc::clone(&backend), cfg).unwrap();
    (server, backend)
}

/// The headline: 200 pipelined connections, every response present,
/// ordered, attributed, and bitwise equal to the plan's output.
#[test]
fn mux_load_round_trips_clean_with_parity() {
    let (server, backend) = spawn_server(
        NetConfig::default()
            .with_shards(2)
            .with_queue_capacity(4096),
        4096,
    );
    let (inputs, expected) = inputs_and_expected(4);

    let mut opts = MuxOptions::new(MODEL, inputs);
    opts.expected = Some(expected);
    opts.connections = 200;
    opts.threads = 3;
    opts.pipeline = 4;
    opts.requests_per_conn = 8;
    let report = run_mux(server.local_addr(), &opts).unwrap();

    assert!(report.clean(), "dirty run: {report:?}");
    assert_eq!(report.sent, 200 * 8);
    assert_eq!(report.received, 200 * 8);
    let snap = backend.service().metrics();
    assert!(snap.fully_drained(), "requests unaccounted for: {snap:?}");
    assert_eq!(snap.submitted, 200 * 8);
    server.shutdown();
}

/// A client pipelining far past the server's per-connection cap gets
/// backpressured (reads pause, the TCP window closes), not errored:
/// the run still finishes clean.
#[test]
fn pipelining_beyond_server_cap_is_backpressured_not_lossy() {
    let cfg = NetConfig::default()
        .with_max_pipeline(4)
        .with_queue_capacity(4096);
    let (server, _) = spawn_server(cfg, 4096);
    let (inputs, expected) = inputs_and_expected(2);

    let mut opts = MuxOptions::new(MODEL, inputs);
    opts.expected = Some(expected);
    opts.connections = 16;
    opts.threads = 2;
    opts.pipeline = 32; // 8x the server's cap
    opts.requests_per_conn = 64;
    let report = run_mux(server.local_addr(), &opts).unwrap();

    assert!(report.clean(), "dirty run: {report:?}");
    assert_eq!(report.received, 16 * 64);
    server.shutdown();
}

/// The blocking `mlcnn_serve::Client` speaks to the event-driven
/// transport: inference, metrics, and the error path for an unknown
/// model, all on one connection.
#[test]
fn blocking_client_interops_with_event_driven_server() {
    let (server, _) = spawn_server(NetConfig::default(), 256);
    let (inputs, expected) = inputs_and_expected(1);

    let mut client = Client::connect(server.local_addr()).unwrap();
    let out = client.infer_model(MODEL, inputs[0].clone()).unwrap();
    assert_eq!(out, expected[0], "bitwise parity over the blocking client");

    let metrics = client.metrics_json().unwrap();
    assert!(
        metrics.contains("\"submitted\""),
        "unexpected metrics: {metrics}"
    );

    let err = client
        .infer_model("resnet18", inputs[0].clone())
        .unwrap_err();
    assert!(
        err.to_string().contains("resnet18"),
        "unknown-model error should name the model: {err}"
    );
    // the error was a wire-level response, not a teardown: same
    // connection keeps working
    let again = client.infer_model(MODEL, inputs[0].clone()).unwrap();
    assert_eq!(again, expected[0]);
    server.shutdown();
}

/// Connections beyond `max_connections` are dropped at the door and
/// the admitted population never exceeds the budget.
#[test]
fn admission_cap_drops_excess_connections() {
    let cfg = NetConfig::default()
        .with_max_connections(2)
        .with_idle_timeout(Duration::from_secs(60));
    let (server, _) = spawn_server(cfg, 256);

    let mut sockets = Vec::new();
    for _ in 0..6 {
        sockets.push(TcpStream::connect(server.local_addr()).unwrap());
    }
    // give the acceptor time to deal (and drop) them all
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.open_connections() < 2 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    std::thread::sleep(Duration::from_millis(100));
    let open = server.open_connections();
    assert!(open <= 2, "admission cap breached: {open} connections open");

    // at least 6 - 2 sockets must observe the drop as EOF/reset
    let mut rejected = 0;
    for mut s in sockets {
        s.set_read_timeout(Some(Duration::from_millis(500)))
            .unwrap();
        let mut byte = [0u8; 1];
        match s.read(&mut byte) {
            Ok(0) | Err(_) => rejected += 1, // EOF or reset/timeout
            Ok(_) => panic!("server sent unsolicited data"),
        }
    }
    assert!(rejected >= 4, "only {rejected} of 4+ rejections observed");
    server.shutdown();
}

/// A connection that goes silent past the idle timeout is reaped; one
/// mid-frame (torn prefix buffered) is NOT — it may still be sending.
#[test]
fn idle_connections_are_reaped_but_mid_frame_ones_are_not() {
    let cfg = NetConfig::default().with_idle_timeout(Duration::from_millis(150));
    let (server, _) = spawn_server(cfg, 256);

    let idle = TcpStream::connect(server.local_addr()).unwrap();
    let mut mid_frame = TcpStream::connect(server.local_addr()).unwrap();
    // half a length prefix: clearly inside a frame
    mid_frame.write_all(&[0x00, 0x00]).unwrap();

    let deadline = Instant::now() + Duration::from_secs(5);
    while server.open_connections() < 2 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(server.open_connections(), 2, "both connections admitted");

    // past the idle timeout the silent one goes; the mid-frame one stays
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.open_connections() > 1 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(
        server.open_connections(),
        1,
        "idle connection was not reaped"
    );
    drop(idle);
    drop(mid_frame);
    server.shutdown();
}

/// Garbage on the wire (an oversized length announcement) closes that
/// connection — and only that connection.
#[test]
fn malformed_frames_close_only_their_connection() {
    let (server, _) = spawn_server(NetConfig::default(), 256);
    let (inputs, expected) = inputs_and_expected(1);

    let mut bad = TcpStream::connect(server.local_addr()).unwrap();
    bad.write_all(&u32::MAX.to_be_bytes()).unwrap(); // 4 GiB frame claim
    bad.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut byte = [0u8; 1];
    match bad.read(&mut byte) {
        Ok(0) | Err(_) => {} // closed, as required
        Ok(_) => panic!("server answered a malformed frame"),
    }

    // a well-behaved neighbour is unaffected
    let mut client = Client::connect(server.local_addr()).unwrap();
    let out = client.infer_model(MODEL, inputs[0].clone()).unwrap();
    assert_eq!(out, expected[0]);
    server.shutdown();
}

/// `NetServer::spawn` is gated by the deny-mode `N0xx` lints: a config
/// the checker rejects never starts a thread.
#[test]
fn spawn_refuses_lint_denied_configs() {
    let model = find_model(MODEL).unwrap();
    let plan = Arc::new(model.compile(Precision::Fp32).unwrap());
    let svc = Service::spawn(plan, ServeConfig::default()).unwrap();
    let backend = Arc::new(NamedService::new(MODEL, svc));
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();

    let err = NetServer::spawn(listener, backend, NetConfig::default().with_shards(0))
        .expect_err("zero shards must be refused");
    assert!(err.to_string().contains("N001"), "want N001 in: {err}");
}
