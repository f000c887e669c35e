//! The request-backend contract the network front-end serves over,
//! its single-model implementation, and a synchronous [`Client`] for
//! the [`crate::wire`] frame protocol.
//!
//! The front-end (`mlcnn_net::NetServer`) is generic over *what* serves
//! the requests. A single-model server wraps its [`Service`] in
//! [`NamedService`]; a registry server plugs in
//! [`crate::router::Router`], which adds multi-model routing and
//! hot-swap.

use std::io::{self, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::Arc;

use mlcnn_sched::SloSpec;
use mlcnn_tensor::Tensor;

use crate::error::ServeError;
use crate::service::{CompletionNotify, Service, Ticket};
use crate::wire::{read_frame, write_frame, Frame};

/// A request backend the TCP front-end can serve: routes inference by
/// model name, snapshots metrics, and (for registry servers) switches
/// revisions.
pub trait Dispatch: Send + Sync + 'static {
    /// Submit one input item to `model` (empty = the only model) with a
    /// completion hook: `notify.completed(tag)` fires once the ticket
    /// holds the response (see [`crate::Service::submit_notified`]).
    fn submit_notified(
        &self,
        model: &str,
        input: Tensor<f32>,
        notify: Arc<dyn CompletionNotify>,
        tag: u64,
    ) -> Result<Ticket, ServeError>;

    /// Submit one input item to `model` under an explicit SLO spec,
    /// optionally with a completion hook. Guaranteed requests are
    /// admission-checked against the model's cost oracle; best-effort
    /// requests become sheddable under overload.
    fn submit_slo(
        &self,
        model: &str,
        input: Tensor<f32>,
        spec: SloSpec,
        done: Option<(Arc<dyn CompletionNotify>, u64)>,
    ) -> Result<Ticket, ServeError>;

    /// Metrics snapshot as JSON.
    fn metrics_json(&self) -> String;

    /// Make `revision` the active revision of `model`; returns
    /// `(active, previous)`.
    fn publish(&self, model: &str, revision: u64) -> Result<(u64, u64), ServeError>;

    /// Revert `model` to the previously active revision; returns
    /// `(active, previous)`.
    fn rollback(&self, model: &str) -> Result<(u64, u64), ServeError>;
}

/// A single [`Service`] exposed under a model name. Accepts requests
/// addressed to the empty name (the protocol's "only model" form) or to
/// its own name; publish/rollback are rejected — there is no registry.
#[derive(Debug)]
pub struct NamedService {
    name: String,
    svc: Service,
}

impl NamedService {
    /// Wrap `svc` under `name`.
    pub fn new(name: impl Into<String>, svc: Service) -> Self {
        NamedService {
            name: name.into(),
            svc,
        }
    }

    /// The wrapped service.
    pub fn service(&self) -> &Service {
        &self.svc
    }

    /// Accept the empty name or this service's own name.
    fn check_model(&self, model: &str) -> Result<(), ServeError> {
        if model.is_empty() || model == self.name {
            Ok(())
        } else {
            Err(ServeError::UnknownModel(model.to_string()))
        }
    }
}

impl Dispatch for NamedService {
    fn submit_notified(
        &self,
        model: &str,
        input: Tensor<f32>,
        notify: Arc<dyn CompletionNotify>,
        tag: u64,
    ) -> Result<Ticket, ServeError> {
        self.check_model(model)?;
        self.svc.submit_notified(input, notify, tag)
    }

    fn submit_slo(
        &self,
        model: &str,
        input: Tensor<f32>,
        spec: SloSpec,
        done: Option<(Arc<dyn CompletionNotify>, u64)>,
    ) -> Result<Ticket, ServeError> {
        self.check_model(model)?;
        self.svc.submit_slo(input, spec, done)
    }

    fn metrics_json(&self) -> String {
        self.svc.metrics().to_json()
    }

    fn publish(&self, _model: &str, _revision: u64) -> Result<(u64, u64), ServeError> {
        Err(ServeError::Registry(
            "this server has no registry; publish is unavailable".into(),
        ))
    }

    fn rollback(&self, _model: &str) -> Result<(u64, u64), ServeError> {
        Err(ServeError::Registry(
            "this server has no registry; rollback is unavailable".into(),
        ))
    }
}

/// Blocking client for the `mlcnn-served` frame protocol. One request in
/// flight at a time; ids are assigned internally and checked on reply.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    next_id: u64,
}

impl Client {
    /// Connect to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Client { stream, next_id: 1 })
    }

    fn roundtrip(&mut self, frame: &Frame) -> io::Result<Frame> {
        let want = frame.id();
        write_frame(&mut self.stream, frame)?;
        self.stream.flush()?;
        let reply = read_frame(&mut self.stream)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection")
        })?;
        if reply.id() != want {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("response id {} for request {want}", reply.id()),
            ));
        }
        Ok(reply)
    }

    fn next_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Run inference on one input item against the server's only model.
    pub fn infer(&mut self, input: Tensor<f32>) -> io::Result<Tensor<f32>> {
        self.infer_model("", input)
    }

    /// Run inference on one input item against a named model (registry
    /// servers route by name; single-model servers also accept their own
    /// name).
    pub fn infer_model(&mut self, model: &str, input: Tensor<f32>) -> io::Result<Tensor<f32>> {
        let id = self.next_id();
        let frame = Frame::InferRequest {
            id,
            model: model.to_string(),
            input,
        };
        match self.roundtrip(&frame)? {
            Frame::InferOk { output, .. } => Ok(output),
            Frame::Error { message, .. } => Err(io::Error::other(message)),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected reply frame for infer: {other:?}"),
            )),
        }
    }

    /// Run inference under an explicit SLO spec against a named model
    /// (empty = the server's only model). The spec rides the wire on the
    /// `0x05` frame; pre-SLO servers reject it with an error reply.
    pub fn infer_slo(
        &mut self,
        model: &str,
        spec: SloSpec,
        input: Tensor<f32>,
    ) -> io::Result<Tensor<f32>> {
        let id = self.next_id();
        let frame = Frame::InferSloRequest {
            id,
            model: model.to_string(),
            class: spec.class,
            budget_micros: spec.budget_micros(),
            input,
        };
        match self.roundtrip(&frame)? {
            Frame::InferOk { output, .. } => Ok(output),
            Frame::Error { message, .. } => Err(io::Error::other(message)),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected reply frame for infer_slo: {other:?}"),
            )),
        }
    }

    /// Fetch the server's metrics snapshot as JSON.
    pub fn metrics_json(&mut self) -> io::Result<String> {
        let id = self.next_id();
        match self.roundtrip(&Frame::MetricsRequest { id })? {
            Frame::MetricsOk { json, .. } => Ok(json),
            Frame::Error { message, .. } => Err(io::Error::other(message)),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected reply frame for metrics: {other:?}"),
            )),
        }
    }

    /// Make `revision` the active revision of `model` on a registry
    /// server; returns `(active, previous)`.
    pub fn publish(&mut self, model: &str, revision: u64) -> io::Result<(u64, u64)> {
        let id = self.next_id();
        let frame = Frame::PublishRequest {
            id,
            model: model.to_string(),
            revision,
        };
        self.admin_roundtrip(&frame)
    }

    /// Revert `model` to its previously active revision on a registry
    /// server; returns `(active, previous)`.
    pub fn rollback(&mut self, model: &str) -> io::Result<(u64, u64)> {
        let id = self.next_id();
        let frame = Frame::RollbackRequest {
            id,
            model: model.to_string(),
        };
        self.admin_roundtrip(&frame)
    }

    fn admin_roundtrip(&mut self, frame: &Frame) -> io::Result<(u64, u64)> {
        match self.roundtrip(frame)? {
            Frame::AdminOk {
                active, previous, ..
            } => Ok((active, previous)),
            Frame::Error { message, .. } => Err(io::Error::other(message)),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected reply frame for admin request: {other:?}"),
            )),
        }
    }
}
