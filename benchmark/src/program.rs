//! Bringing the program under test up: artifact load, registry, engine,
//! loopback server.  Everything `setup_s` covers lives here.

use crate::model::{Entry, Model, LANES};
use nfm_net::{NetClient, NetServer, ServerFrame, ServerHandle, WireRequest};
use nfm_serve::{Engine, EngineBuilder, InferenceRequest, ModelRegistry, RequestOptions};
use std::time::{Duration, Instant};

/// Loads every model from its artifact, registers it (a memoized model's
/// binary mirror is built here) and builds the engine.
pub fn build_engine(
    models: &[Model],
    workers: usize,
    queue_capacity: usize,
    paused: bool,
) -> Result<Engine, String> {
    let mut registry = ModelRegistry::new();
    for model in models {
        let loaded = nfm_model::load_from_slice(&model.artifact)
            .map_err(|e| format!("{}: load artifact: {e}", model.spec.id))?;
        registry
            .register(model.spec.id, loaded.network, model.predictor())
            .map_err(|e| format!("{}: register: {e}", model.spec.id))?;
    }
    let mut builder = EngineBuilder::from_registry(registry)
        .lanes(LANES)
        .workers(workers)
        .queue_capacity(queue_capacity);
    if paused {
        builder = builder.start_paused();
    }
    builder.build().map_err(|e| format!("build engine: {e}"))
}

/// The engine request for pool entry `entry`, under id `id`.
pub fn engine_request(models: &[Model], entry: &Entry, id: u64) -> InferenceRequest {
    let mut options = RequestOptions::new().model(models[entry.model].spec.id);
    if let Some(theta) = entry.theta_override {
        options = options.threshold(theta);
    }
    InferenceRequest::new(id, entry.sequence.clone()).with_options(options)
}

/// The wire request for pool entry `entry`; the drivers fill in the id.
pub fn wire_request(models: &[Model], entry: &Entry) -> WireRequest {
    let mut request =
        WireRequest::new(0, entry.sequence.clone()).with_model(models[entry.model].spec.id);
    if let Some(theta) = entry.theta_override {
        request = request.with_threshold(theta);
    }
    request
}

/// A served engine on loopback with one connected client.
pub struct Served {
    pub handle: ServerHandle,
    pub client: NetClient,
}

/// Engine build, bind, serving thread, connect, and one warm-up request
/// answered: the point from which a client gets service.
pub fn serve(
    models: &[Model],
    workers: usize,
    queue_capacity: usize,
    warmup: &WireRequest,
) -> Result<(Served, Duration), String> {
    let started = Instant::now();
    let engine = build_engine(models, workers, queue_capacity, false)?;
    let handle = NetServer::bind("127.0.0.1:0", engine)
        .map_err(|e| format!("bind loopback: {e}"))?
        .spawn()
        .map_err(|e| format!("spawn server: {e}"))?;
    let mut client = NetClient::connect(handle.addr()).map_err(|e| format!("connect: {e}"))?;
    client
        .send(warmup)
        .map_err(|e| format!("warm-up send: {e}"))?;
    match client.recv().map_err(|e| format!("warm-up recv: {e}"))? {
        ServerFrame::Response(_) => {}
        other => return Err(format!("warm-up request was not served: {other:?}")),
    }
    Ok((Served { handle, client }, started.elapsed()))
}
