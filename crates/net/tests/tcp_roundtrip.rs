//! End-to-end TCP test: a [`NetServer`] on an ephemeral port, the
//! blocking client, bitwise parity with the reference plan through the
//! full wire → service → wire path, and request accounting that adds up
//! once every response is back.

use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

use mlcnn_core::Workspace;
use mlcnn_net::{NetConfig, NetServer};
use mlcnn_quant::Precision;
use mlcnn_serve::{find_model, Client, NamedService, ServeConfig, Service};
use mlcnn_tensor::{init, Shape4, Tensor};

fn item(shape: Shape4, seed: u64) -> Tensor<f32> {
    init::uniform(
        Shape4::new(1, shape.c, shape.h, shape.w),
        -1.0,
        1.0,
        &mut init::rng(seed),
    )
}

#[test]
fn tcp_round_trip_matches_plan_forward() {
    let model = find_model("lenet5").unwrap();
    let plan = Arc::new(model.compile(Precision::Fp32).unwrap());
    let cfg = ServeConfig::default().with_batching(4, Duration::from_micros(200));
    let svc = Service::spawn(Arc::clone(&plan), cfg).unwrap();
    let backend = Arc::new(NamedService::new(model.name, svc));

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let server = NetServer::spawn(listener, Arc::clone(&backend), NetConfig::default()).unwrap();
    let addr = server.local_addr();

    // several clients in parallel, each checking bitwise parity
    std::thread::scope(|s| {
        for c in 0..3u64 {
            let plan = Arc::clone(&plan);
            s.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let mut ws = Workspace::for_plan(&plan, 1);
                for i in 0..4u64 {
                    let x = item(model.input, 40 + 10 * c + i);
                    let got = client.infer(x.clone()).unwrap();
                    let want = plan.forward(&x, &mut ws).unwrap();
                    assert_eq!(got, want, "TCP response diverges from plan.forward");
                }
            });
        }
    });

    let mut client = Client::connect(addr).unwrap();
    let json = client.metrics_json().unwrap();
    assert!(
        json.contains("\"submitted\":12"),
        "unexpected metrics: {json}"
    );
    assert!(
        json.contains("\"queue_depth\":0"),
        "requests still queued: {json}"
    );

    // malformed input shape travels back as a wire error, connection stays up
    let bad = Tensor::<f32>::zeros(Shape4::new(1, 1, 2, 2));
    let err = client.infer(bad).unwrap_err();
    assert!(err.to_string().contains("expected one"), "{err}");
    assert!(
        client.metrics_json().is_ok(),
        "connection died after an error reply"
    );

    // addressing the single model by name works; a wrong name is a
    // typed wire error and the connection survives it too
    let x = item(model.input, 99);
    client.infer_model("lenet5", x.clone()).unwrap();
    let err = client.infer_model("resnet18", x).unwrap_err();
    assert!(err.to_string().contains("unknown model"), "{err}");
    assert!(client.metrics_json().is_ok());

    // admin frames against a registry-less server: typed refusal
    let err = client.publish("lenet5", 2).unwrap_err();
    assert!(err.to_string().contains("no registry"), "{err}");

    // every request that entered the queue got exactly one outcome
    let snap = backend.service().metrics();
    assert!(snap.fully_drained(), "requests unaccounted for: {snap:?}");
    server.shutdown();
}
