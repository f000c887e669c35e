//! Multi-model routing and zero-downtime hot-swap over a
//! [`ModelRegistry`].
//!
//! The router keeps one live [`Service`] per model — its *endpoint* —
//! pinned to the registry's active revision and sharing one
//! [`WorkspacePool`] across all models. Publish and rollback replace an
//! endpoint without dropping requests:
//!
//! ```text
//! publish(m, r2):
//!   1. compile r2's plan (lazy, LRU-cached in the registry)
//!   2. spawn the NEW service — old endpoint still serving
//!   3. registry.publish(m, r2), swap the endpoint map entry atomically
//!   4. hand the OLD service to a reaper thread; its Drop drains every
//!      in-flight request exactly once, off the admin path
//! ```
//!
//! A submission that loses the race — it drew the old endpoint just as
//! shutdown closed its intake — observes [`ServeError::ShuttingDown`] and
//! retries against the freshly swapped endpoint, so no request is lost
//! across a swap. Every response is attributable to exactly one revision:
//! the revision of the endpoint that accepted the submission (the value
//! [`Router::submit`] returns).

use crate::config::ServeConfig;
use crate::error::ServeError;
use crate::net::Dispatch;
use crate::service::{CompletionNotify, Service, Ticket};
use mlcnn_core::WorkspacePool;
use mlcnn_registry::{ModelRegistry, RegistryError};
use mlcnn_sched::SloSpec;
use mlcnn_tensor::Tensor;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::{Arc, RwLock};

/// How many times a submission re-reads the endpoint map when it keeps
/// drawing endpoints that are already shutting down. Each retry observes
/// a *newer* endpoint, so in practice one retry suffices; the bound only
/// guards against a pathological publish storm.
const SWAP_RETRIES: usize = 8;

/// One model's live serving endpoint.
struct Endpoint {
    revision: u64,
    svc: Arc<Service>,
}

/// Multi-model serving front over a [`ModelRegistry`]. See the
/// [module docs](self).
pub struct Router {
    registry: Arc<ModelRegistry>,
    cfg: ServeConfig,
    /// Per-model SLO overriding `cfg.slo`; survives publish/rollback so a
    /// hot-swapped endpoint keeps its model's serving class.
    slos: BTreeMap<String, SloSpec>,
    pool: Arc<WorkspacePool>,
    endpoints: RwLock<BTreeMap<String, Arc<Endpoint>>>,
}

impl std::fmt::Debug for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Router")
            .field("registry", &self.registry.root())
            .field("models", &self.models())
            .finish_non_exhaustive()
    }
}

impl Router {
    /// Stand up one endpoint per registry model, each at its active
    /// revision and the precision its artifact recorded, all sharing one
    /// workspace pool. `cfg` supplies the batching/worker/queue knobs;
    /// its precision field is overridden per model.
    pub fn new(registry: Arc<ModelRegistry>, cfg: ServeConfig) -> Result<Router, ServeError> {
        Router::with_slos(registry, cfg, BTreeMap::new())
    }

    /// [`Router::new`] with a per-model SLO map. A model present in
    /// `slos` serves under that spec (overriding `cfg.slo`) on its
    /// initial endpoint *and* on every endpoint spawned by a later
    /// publish or rollback — the class is a property of the model, not of
    /// the revision currently serving it.
    pub fn with_slos(
        registry: Arc<ModelRegistry>,
        cfg: ServeConfig,
        slos: BTreeMap<String, SloSpec>,
    ) -> Result<Router, ServeError> {
        let pool = Arc::new(WorkspacePool::new());
        let mut endpoints = BTreeMap::new();
        for model in registry.models() {
            let slo = slos.get(&model).copied();
            let endpoint = spawn_endpoint(&registry, &model, None, &cfg, slo, &pool)?;
            endpoints.insert(model, Arc::new(endpoint));
        }
        Ok(Router {
            registry,
            cfg,
            slos,
            pool,
            endpoints: RwLock::new(endpoints),
        })
    }

    /// The SLO spec `model` serves under, whether from the per-model map
    /// or the config default. `None` = classless FIFO.
    pub fn slo_of(&self, model: &str) -> Option<SloSpec> {
        self.slos.get(model).copied().or(self.cfg.slo)
    }

    /// The registry backing this router.
    pub fn registry(&self) -> &ModelRegistry {
        &self.registry
    }

    /// Routable model names, sorted.
    pub fn models(&self) -> Vec<String> {
        self.read_endpoints().keys().cloned().collect()
    }

    /// The revision currently serving `model`.
    pub fn active_revision(&self, model: &str) -> Result<u64, ServeError> {
        self.read_endpoints()
            .get(model)
            .map(|e| e.revision)
            .ok_or_else(|| ServeError::UnknownModel(model.to_string()))
    }

    /// Submit one input item to `model`, returning the revision that
    /// accepted it (the attribution for its eventual response) and the
    /// ticket. Retries transparently when a hot-swap closes the drawn
    /// endpoint mid-submission, so swaps never lose requests.
    pub fn submit(&self, model: &str, input: Tensor<f32>) -> Result<(u64, Ticket), ServeError> {
        self.submit_with(model, |svc| svc.submit(input.clone()))
    }

    /// [`Router::submit`] with a completion hook (see
    /// [`Service::submit_notified`]): same hot-swap retry discipline,
    /// same revision attribution, but `notify.completed(tag)` fires once
    /// the ticket holds the response — the form the event-driven
    /// transport uses.
    pub fn submit_notified(
        &self,
        model: &str,
        input: Tensor<f32>,
        notify: Arc<dyn CompletionNotify>,
        tag: u64,
    ) -> Result<(u64, Ticket), ServeError> {
        self.submit_with(model, |svc| {
            svc.submit_notified(input.clone(), Arc::clone(&notify), tag)
        })
    }

    /// [`Router::submit`] under an explicit SLO spec, optionally with a
    /// completion hook: same hot-swap retry discipline, same revision
    /// attribution. Guaranteed requests are admission-checked by the
    /// drawn endpoint's cost oracle.
    pub fn submit_slo(
        &self,
        model: &str,
        input: Tensor<f32>,
        spec: SloSpec,
        done: Option<(Arc<dyn CompletionNotify>, u64)>,
    ) -> Result<(u64, Ticket), ServeError> {
        self.submit_with(model, |svc| {
            let done = done
                .as_ref()
                .map(|(notify, tag)| (Arc::clone(notify), *tag));
            svc.submit_slo(input.clone(), spec, done)
        })
    }

    /// The hot-swap retry loop behind every submission form: draw
    /// `model`'s endpoint, run `submit` against its service, and return
    /// the accepting revision with the ticket.
    fn submit_with(
        &self,
        model: &str,
        mut submit: impl FnMut(&Service) -> Result<Ticket, ServeError>,
    ) -> Result<(u64, Ticket), ServeError> {
        for _ in 0..SWAP_RETRIES {
            let endpoint = self
                .read_endpoints()
                .get(model)
                .cloned()
                .ok_or_else(|| ServeError::UnknownModel(model.to_string()))?;
            match submit(&endpoint.svc) {
                Ok(ticket) => return Ok((endpoint.revision, ticket)),
                // the endpoint we drew was swapped out and is draining;
                // the map already holds (or is about to hold) its
                // replacement — re-read and retry
                Err(ServeError::ShuttingDown) => std::thread::yield_now(),
                Err(other) => return Err(other),
            }
        }
        Err(ServeError::ShuttingDown)
    }

    /// Resolve a wire model name: the empty name addresses the only
    /// model, which is unambiguous only on a single-model registry.
    fn resolve<'a>(&self, model: &'a str) -> Result<Cow<'a, str>, ServeError> {
        if !model.is_empty() {
            return Ok(Cow::Borrowed(model));
        }
        let endpoints = self.read_endpoints();
        match (endpoints.len(), endpoints.keys().next()) {
            (1, Some(only)) => Ok(Cow::Owned(only.clone())),
            _ => Err(ServeError::UnknownModel(
                "(empty — this server routes multiple models; name one)".into(),
            )),
        }
    }

    /// Submit and block for the response.
    pub fn infer(&self, model: &str, input: Tensor<f32>) -> Result<Tensor<f32>, ServeError> {
        self.submit(model, input)?.1.wait()
    }

    /// Make `revision` the active revision of `model`, hot-swapping its
    /// endpoint with zero downtime. Returns `(active, previous)`. No-op
    /// (and no swap) when `revision` is already active.
    pub fn publish(&self, model: &str, revision: u64) -> Result<(u64, u64), ServeError> {
        // Validate against the *registry* first so an unknown revision
        // fails before any service is spawned.
        let current = self.registry.active(model).map_err(registry_err)?;
        if current == revision && self.active_revision(model)? == revision {
            return Ok((revision, revision));
        }
        let endpoint = spawn_endpoint(
            &self.registry,
            model,
            Some(revision),
            &self.cfg,
            self.slos.get(model).copied(),
            &self.pool,
        )?;
        let (active, previous) = self
            .registry
            .publish(model, revision)
            .map_err(registry_err)?;
        self.swap_endpoint(model, endpoint);
        Ok((active, previous))
    }

    /// Revert `model` to the revision active before the last publish,
    /// hot-swapping its endpoint. Returns `(active, previous)`.
    pub fn rollback(&self, model: &str) -> Result<(u64, u64), ServeError> {
        // Rollback mutates registry history, so consult it first; spawn
        // the target endpoint before the old one is retired.
        let (active, previous) = self.registry.rollback(model).map_err(registry_err)?;
        let endpoint = match spawn_endpoint(
            &self.registry,
            model,
            Some(active),
            &self.cfg,
            self.slos.get(model).copied(),
            &self.pool,
        ) {
            Ok(e) => e,
            Err(e) => {
                // Put the history back so a failed rollback is a no-op.
                let _ = self.registry.publish(model, previous);
                return Err(e);
            }
        };
        self.swap_endpoint(model, endpoint);
        Ok((active, previous))
    }

    /// Metrics of every endpoint as one JSON object:
    /// `{"models":{"<name>":{"revision":N,"metrics":{...}}}}`.
    pub fn metrics_json(&self) -> String {
        let endpoints = self.read_endpoints();
        let mut out = String::from("{\"models\":{");
        for (i, (name, e)) in endpoints.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{name}\":{{\"revision\":{},\"metrics\":{}}}",
                e.revision,
                e.svc.metrics().to_json()
            ));
        }
        out.push_str("}}");
        out
    }

    fn read_endpoints(&self) -> std::sync::RwLockReadGuard<'_, BTreeMap<String, Arc<Endpoint>>> {
        self.endpoints.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Atomically replace `model`'s endpoint and retire the old one on a
    /// detached reaper thread: its `Drop` drains all in-flight requests
    /// (each resolves exactly once) without blocking the admin caller.
    fn swap_endpoint(&self, model: &str, endpoint: Endpoint) {
        let old = {
            let mut endpoints = self.endpoints.write().unwrap_or_else(|e| e.into_inner());
            endpoints.insert(model.to_string(), Arc::new(endpoint))
        };
        if let Some(old) = old {
            let spawned = std::thread::Builder::new()
                .name("mlcnn-endpoint-reaper".into())
                .spawn(move || drop(old));
            if let Err(e) = spawned {
                // Could not detach: drain inline rather than leak the
                // old service's threads.
                eprintln!("mlcnn-serve: reaper spawn failed ({e}); draining inline");
            }
        }
    }
}

impl Dispatch for Router {
    fn submit_notified(
        &self,
        model: &str,
        input: Tensor<f32>,
        notify: Arc<dyn CompletionNotify>,
        tag: u64,
    ) -> Result<Ticket, ServeError> {
        let model = self.resolve(model)?;
        Router::submit_notified(self, &model, input, notify, tag).map(|(_, t)| t)
    }

    fn submit_slo(
        &self,
        model: &str,
        input: Tensor<f32>,
        spec: SloSpec,
        done: Option<(Arc<dyn CompletionNotify>, u64)>,
    ) -> Result<Ticket, ServeError> {
        let model = self.resolve(model)?;
        Router::submit_slo(self, &model, input, spec, done).map(|(_, t)| t)
    }

    fn metrics_json(&self) -> String {
        Router::metrics_json(self)
    }

    fn publish(&self, model: &str, revision: u64) -> Result<(u64, u64), ServeError> {
        Router::publish(self, model, revision)
    }

    fn rollback(&self, model: &str) -> Result<(u64, u64), ServeError> {
        Router::rollback(self, model)
    }
}

fn registry_err(e: RegistryError) -> ServeError {
    match e {
        RegistryError::UnknownModel(name) => ServeError::UnknownModel(name),
        other => ServeError::Registry(other.to_string()),
    }
}

/// Compile `(model, revision)` through the registry's plan cache and
/// spawn a service for it at the artifact's recorded default precision,
/// over the router's shared pool. `slo`, when set, overrides the config
/// default so the endpoint serves under its model's class.
fn spawn_endpoint(
    registry: &ModelRegistry,
    model: &str,
    revision: Option<u64>,
    cfg: &ServeConfig,
    slo: Option<SloSpec>,
    pool: &Arc<WorkspacePool>,
) -> Result<Endpoint, ServeError> {
    let rev = match revision {
        Some(r) => r,
        None => registry.active(model).map_err(registry_err)?,
    };
    let precision = registry
        .default_precision(model, rev)
        .map_err(registry_err)?;
    let (rev, plan) = registry
        .plan(model, Some(rev), precision)
        .map_err(registry_err)?;
    let cfg = ServeConfig {
        precision,
        slo: slo.or(cfg.slo),
        ..cfg.clone()
    };
    let svc = Service::spawn_with_pool(plan, cfg, Arc::clone(pool))?;
    Ok(Endpoint {
        revision: rev,
        svc: Arc::new(svc),
    })
}
