//! The `mlcnn-served` child process and the blocking side channel the
//! benchmark uses between load phases (metrics and first-response probes).

use std::io::{BufRead, BufReader, Lines};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use mlcnn_serve::{read_frame, write_frame, Frame};

use crate::stats::{json_number, json_u64_array};
use crate::workload::Target;

/// A running server; killed and reaped on drop.
pub struct Server {
    child: Child,
    pub addr: SocketAddr,
    // keeps the pipe open so a late write from the server cannot fail
    _stdout: Lines<BufReader<ChildStdout>>,
}

impl Server {
    /// Start `exe` with `args` on an ephemeral port and wait for its
    /// startup banner (`"… on HOST:PORT …"`), which it prints once the
    /// models are compiled and the listener is bound.
    pub fn launch(exe: &Path, args: &[String], rayon_threads: usize) -> Result<Server, String> {
        let mut child = Command::new(exe)
            .args(["--addr", "127.0.0.1:0"])
            .args(args)
            .env("RAYON_NUM_THREADS", rayon_threads.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut lines = BufReader::new(stdout).lines();
        let banner = match lines.next() {
            Some(Ok(line)) => line,
            other => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("server exited before its banner: {other:?}"));
            }
        };
        let addr = banner
            .split(" on ")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|tok| tok.parse::<SocketAddr>().ok());
        match addr {
            Some(addr) => Ok(Server {
                child,
                addr,
                _stdout: lines,
            }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("no address in server banner: {banner}"))
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Command-line flags that start `target`'s server.
pub fn server_args(target: &Target, registry_dir: &Path) -> Vec<String> {
    let w = &target.workload;
    let mut args: Vec<String> = if w.registry {
        vec!["--registry".into(), registry_dir.display().to_string()]
    } else {
        vec![
            "--model".into(),
            w.model.into(),
            "--precision".into(),
            w.precision.to_string(),
        ]
    };
    args.extend(crate::workload::server_flags());
    args
}

pub fn connect(addr: SocketAddr) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    Ok(stream)
}

pub fn roundtrip(stream: &mut TcpStream, frame: &Frame) -> Result<Frame, String> {
    write_frame(stream, frame).map_err(|e| format!("write: {e}"))?;
    match read_frame(stream) {
        Ok(Some(f)) if f.id() == frame.id() => Ok(f),
        Ok(Some(f)) => Err(format!("reply to id {} carries id {}", frame.id(), f.id())),
        Ok(None) => Err("server closed the connection".into()),
        Err(e) => Err(format!("read: {e}")),
    }
}

/// Launch a server and time it to its first correct response: process
/// start, model load, compile and verify, bind, and one inference.
/// Returns the server, the elapsed time and the slot that answered.
pub fn launch_to_first_response(
    exe: &Path,
    args: &[String],
    rayon_threads: usize,
    target: &Target,
) -> Result<(Server, Duration, usize), String> {
    let start = Instant::now();
    let server = Server::launch(exe, args, rayon_threads)?;
    let mut stream = connect(server.addr)?;
    let reply = roundtrip(
        &mut stream,
        &Frame::InferRequest {
            id: 1,
            model: target.wire_model.clone(),
            input: target.inputs[0].clone(),
        },
    )?;
    let elapsed = start.elapsed();
    match reply {
        Frame::InferOk { output, .. } => match target.attribute(0, &output) {
            Some(slot) => Ok((server, elapsed, slot)),
            None => Err("first response differs from every reference output".into()),
        },
        other => Err(format!("first request failed: {other:?}")),
    }
}

/// The counters of one server metrics snapshot the benchmark reconciles.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Active revision (registry servers only).
    pub revision: Option<u64>,
    pub submitted: u64,
    pub completed: u64,
    pub failed: u64,
    pub rejected: u64,
    pub shed: u64,
    pub batches: u64,
    pub queue_depth: u64,
    pub buckets: Vec<u64>,
}

impl Snapshot {
    pub fn parse(json: &str) -> Result<Snapshot, String> {
        // registry servers wrap each model's snapshot:
        // {"models":{"<name>":{"revision":N,"metrics":{...}}}}
        let (revision, body) = match json.find("\"metrics\":") {
            Some(at) => (json_number(json, "revision").map(|r| r as u64), &json[at..]),
            None => (None, json),
        };
        let num = |key: &str| {
            json_number(body, key)
                .map(|v| v as u64)
                .ok_or_else(|| format!("metrics snapshot lacks '{key}'"))
        };
        Ok(Snapshot {
            revision,
            submitted: num("submitted")?,
            completed: num("completed")?,
            failed: num("failed")?,
            rejected: num("rejected_full")? + num("rejected_shutdown")?,
            shed: num("shed_expired")? + num("shed_overload")?,
            batches: num("batches")?,
            queue_depth: num("queue_depth")?,
            buckets: json_u64_array(body, "latency_buckets")
                .ok_or("metrics snapshot lacks 'latency_buckets'")?,
        })
    }

    pub fn fetch(addr: SocketAddr) -> Result<Snapshot, String> {
        let mut stream = connect(addr)?;
        match roundtrip(&mut stream, &Frame::MetricsRequest { id: 7 })? {
            Frame::MetricsOk { json, .. } => Snapshot::parse(&json),
            other => Err(format!("metrics request failed: {other:?}")),
        }
    }

    /// Counter growth from `self` to `later` (same endpoint).
    pub fn delta(&self, later: &Snapshot) -> Snapshot {
        Snapshot {
            revision: later.revision,
            submitted: later.submitted.saturating_sub(self.submitted),
            completed: later.completed.saturating_sub(self.completed),
            failed: later.failed.saturating_sub(self.failed),
            rejected: later.rejected.saturating_sub(self.rejected),
            shed: later.shed.saturating_sub(self.shed),
            batches: later.batches.saturating_sub(self.batches),
            queue_depth: later.queue_depth,
            buckets: later
                .buckets
                .iter()
                .zip(self.buckets.iter().chain(std::iter::repeat(&0)))
                .map(|(b, a)| b.saturating_sub(*a))
                .collect(),
        }
    }

    /// Every admitted request ended exactly once and none is in flight.
    pub fn drained(&self) -> bool {
        self.queue_depth == 0 && self.submitted == self.completed + self.failed + self.shed
    }
}
