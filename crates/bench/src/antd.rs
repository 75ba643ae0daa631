//! `antd`: the ANT serving daemon.
//!
//! Everything below PR 8 served a single process through the in-crate
//! [`Engine`] API; this module is the network front end that the
//! ROADMAP's "millions of users" require. The shape is deliberately
//! boring: a blocking accept loop over `std::net` (crates.io is
//! unavailable, so HTTP is the hand-rolled [`crate::http`] module), one
//! OS thread per connection, and every inference request funneled into
//! a per-model [`Engine`] — so *continuous batching happens across
//! connections*: requests from concurrent users that queue together
//! share one batch, one LUT-decode + GEMM pass per layer. A lone
//! request does not wait for company: the engine dispatches a batch as
//! soon as it stops growing (see [`BatchPolicy::max_wait`]).
//!
//! Serving policies the daemon adds on top of the engine:
//!
//! * **Admission control.** The engine's submit queue is bounded
//!   ([`BatchPolicy::max_queue`]); [`RuntimeError::Overloaded`] maps to
//!   HTTP 429 with a `Retry-After` header instead of unbounded memory
//!   growth.
//! * **Deadlines.** Waits go through [`Engine::wait_timeout`]; an
//!   expired deadline cancels the request ([`Engine::cancel`]) and
//!   returns 504 rather than trusting worker liveness.
//! * **Hot reload.** `POST /v1/models/{name}/reload` re-maps the
//!   artifact and swaps the model's engine behind an
//!   `RwLock<Arc<ModelState>>`; in-flight requests keep the old engine
//!   (and, through the plan's owner tokens, the old mmap) alive until
//!   they finish.
//! * **Graceful drain.** `shutdown()` / SIGTERM stops accepting, lets
//!   each connection finish its in-flight exchange (responses carry
//!   `Connection: close`), and joins every worker before `join`
//!   returns.
//! * **Self-healing.** A per-model circuit breaker watches for engine
//!   death (the engine's supervisor only dies once its restart budget
//!   is exhausted): a dead engine trips the breaker open, requests
//!   answer 503 with `Retry-After` while a background task rebuilds
//!   the engine from the still-mapped artifact, and the first request
//!   through the half-open breaker proves the rebuilt engine before
//!   traffic fully resumes. `--chaos SPEC` arms the runtime's
//!   deterministic fault-injection plan (`ant_runtime::chaos`) for
//!   drills and the chaos e2e suite.
//!
//! * **Token streaming.** `POST /v1/models/{name}/generate` drives a
//!   causal model's decode loop through the engine's prefill/decode
//!   phases and streams one JSON line per generated token over chunked
//!   transfer coding — the client sees tokens as they decode, not a
//!   buffered blob after the fact. The per-session packed KV cache is
//!   opened before the first chunk and closed on *every* exit path
//!   (drop guard), so an abandoned stream cannot pin cache bytes.
//!
//! Endpoints: `GET /healthz`, `GET /metrics` (Prometheus text via
//! `ant-obs`), `GET /v1/models`, `POST /v1/models/{name}/infer`,
//! `POST /v1/models/{name}/generate`, `POST /v1/models/{name}/reload`,
//! `POST /shutdown`. See `docs/serving.md` for the wire contract.

use crate::http::{
    finish_chunked, read_request, write_chunk, write_chunked_head, HttpError, Request, Response,
};
use crate::json::Json;
use ant_obs::export::prometheus_text;
use ant_obs::{global, Counter, Gauge, Histogram};
use ant_runtime::{
    ArtifactError, BatchPolicy, Engine, FaultPlan, MappedArtifact, RequestId, RuntimeError,
};
use std::collections::HashMap;
use std::fmt;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// How a daemon failed to start or run.
#[derive(Debug)]
pub enum DaemonError {
    /// Socket setup or accept-loop failure.
    Io(io::Error),
    /// An artifact failed to load or compile.
    Artifact(ArtifactError),
    /// Invalid configuration (duplicate model names, no models, ...).
    Config(String),
}

impl fmt::Display for DaemonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DaemonError::Io(e) => write!(f, "i/o error: {e}"),
            DaemonError::Artifact(e) => write!(f, "artifact error: {e}"),
            DaemonError::Config(m) => write!(f, "config error: {m}"),
        }
    }
}

impl std::error::Error for DaemonError {}

impl From<io::Error> for DaemonError {
    fn from(e: io::Error) -> Self {
        DaemonError::Io(e)
    }
}

impl From<ArtifactError> for DaemonError {
    fn from(e: ArtifactError) -> Self {
        DaemonError::Artifact(e)
    }
}

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Listen address, e.g. `127.0.0.1:7171` (`:0` for an ephemeral
    /// port — `Daemon::local_addr` reports what was bound).
    pub addr: String,
    /// Served models: display name → `.antm` artifact path.
    pub models: Vec<(String, PathBuf)>,
    /// Batching/admission policy for every model's engine.
    pub policy: BatchPolicy,
    /// Per-request deadline: a wait past this cancels the request and
    /// answers 504.
    pub request_timeout: Duration,
    /// Fault-injection plan installed process-wide at startup
    /// (`--chaos SPEC`); `None` leaves whatever plan is already active.
    pub chaos: Option<FaultPlan>,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            addr: "127.0.0.1:0".to_string(),
            models: Vec::new(),
            policy: BatchPolicy::default(),
            request_timeout: Duration::from_secs(30),
            chaos: None,
        }
    }
}

/// One model's serving state. Immutable once built — reload builds a
/// fresh `ModelState` and swaps the `Arc`, so in-flight requests keep
/// batching through the generation they started on.
struct ModelState {
    engine: Engine,
    in_features: Option<usize>,
    /// `Some(dim)` when the model is a causal decoder that can serve
    /// `/generate`; the dim doubles as the synthetic vocabulary size.
    token_dim: Option<usize>,
    /// Bumped on every successful reload or rebuild (starts at 1).
    generation: u64,
    /// The mapped artifact the engine was compiled from, kept so the
    /// breaker's background rebuild can recompile without re-reading
    /// the file (the bytes that already served are known-good even if
    /// the path was replaced or deleted since).
    mapped: Arc<MappedArtifact>,
}

/// Circuit-breaker position for one model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BreakerState {
    /// Healthy: requests flow.
    Closed,
    /// Engine dead: requests answer 503 while a rebuild runs.
    Open,
    /// Engine rebuilt: one probe request is let through; its success
    /// closes the breaker, its death re-opens it.
    HalfOpen,
}

/// Mutable breaker bookkeeping, behind the slot's `breaker` mutex.
struct BreakerInner {
    state: BreakerState,
    /// A half-open probe has been admitted and has not reported back.
    probe_in_flight: bool,
    /// A background rebuild thread is running (or about to).
    rebuilding: bool,
}

/// `antd_breaker_state` gauge encoding.
fn breaker_gauge_value(state: BreakerState) -> i64 {
    match state {
        BreakerState::Closed => 0,
        BreakerState::Open => 1,
        BreakerState::HalfOpen => 2,
    }
}

/// A served model: its name, artifact path, swappable state, and the
/// circuit breaker guarding admission to its engine.
struct ModelSlot {
    name: String,
    path: PathBuf,
    state: RwLock<Arc<ModelState>>,
    /// Serializes reloads (the compile happens outside the state lock).
    reload_lock: Mutex<()>,
    breaker: Mutex<BreakerInner>,
    /// `antd_breaker_state{model=...}`: 0 closed, 1 open, 2 half-open.
    breaker_state: Arc<Gauge>,
    /// `antd_breaker_trips_total{model=...}`.
    breaker_trips: Arc<Counter>,
    /// `antd_engine_rebuilds_total{model=...}`.
    engine_rebuilds: Arc<Counter>,
}

impl ModelSlot {
    fn new(name: String, path: PathBuf, state: ModelState) -> ModelSlot {
        let r = global();
        ModelSlot {
            breaker: Mutex::new(BreakerInner {
                state: BreakerState::Closed,
                probe_in_flight: false,
                rebuilding: false,
            }),
            breaker_state: r.gauge_with(
                "antd_breaker_state",
                "model",
                &name,
                "Per-model circuit breaker: 0 closed, 1 open, 2 half-open",
            ),
            breaker_trips: r.counter_with(
                "antd_breaker_trips_total",
                "model",
                &name,
                "Breaker trips: engine deaths that opened the circuit",
            ),
            engine_rebuilds: r.counter_with(
                "antd_engine_rebuilds_total",
                "model",
                &name,
                "Engines rebuilt from the still-mapped artifact after death",
            ),
            name,
            path,
            state: RwLock::new(Arc::new(state)),
            reload_lock: Mutex::new(()),
        }
    }

    /// The current generation's state (cheap: one `Arc` clone).
    fn current(&self) -> Arc<ModelState> {
        Arc::clone(&self.state.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// Locks the breaker, recovering from poison (a panicking rebuild
    /// thread must not wedge admission forever).
    fn breaker(&self) -> std::sync::MutexGuard<'_, BreakerInner> {
        self.breaker.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Daemon-level metrics, registered once in the process-global `ant-obs`
/// registry so `/metrics` exposes them alongside the runtime's engine
/// and layer series.
struct DaemonMetrics {
    /// Responses by status code.
    by_code: HashMap<u16, Arc<Counter>>,
    /// Fallback for codes outside the precreated set.
    other: Arc<Counter>,
    connections_open: Arc<Gauge>,
    reloads: Arc<Counter>,
    request_time_ns: Arc<Histogram>,
}

impl DaemonMetrics {
    fn new() -> DaemonMetrics {
        let r = global();
        let help = "antd responses by HTTP status code";
        let by_code = [200u16, 400, 404, 405, 408, 413, 422, 429, 500, 503, 504]
            .into_iter()
            .map(|code| {
                let c =
                    r.counter_with("antd_http_responses_total", "code", &code.to_string(), help);
                (code, c)
            })
            .collect();
        DaemonMetrics {
            by_code,
            other: global().counter_with("antd_http_responses_total", "code", "other", help),
            connections_open: r.gauge("antd_connections_open", "Open client connections"),
            reloads: r.counter("antd_reloads_total", "Successful hot artifact reloads"),
            request_time_ns: r.histogram(
                "antd_request_time_ns",
                "Wall time from parsed request to written response",
            ),
        }
    }

    fn count(&self, status: u16) {
        self.by_code.get(&status).unwrap_or(&self.other).add(1);
    }
}

/// State shared by the accept loop and every connection worker.
struct Inner {
    models: Vec<ModelSlot>,
    policy: BatchPolicy,
    request_timeout: Duration,
    /// Drain flag: set once, never cleared.
    draining: AtomicBool,
    metrics: DaemonMetrics,
}

impl Inner {
    fn model(&self, name: &str) -> Option<&ModelSlot> {
        self.models.iter().find(|m| m.name == name)
    }

    fn model_idx(&self, name: &str) -> Option<usize> {
        self.models.iter().position(|m| m.name == name)
    }
}

/// A running serving daemon. Dropping it without [`Daemon::join`]
/// initiates shutdown and detaches the worker threads.
pub struct Daemon {
    inner: Arc<Inner>,
    local_addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
}

/// Compiles a mapped artifact into a fresh engine: the one way a
/// [`ModelState`] is made, whether the mapping is new (start, reload)
/// or the one that already served (rebuild).
fn model_state(
    mapped: Arc<MappedArtifact>,
    policy: BatchPolicy,
    generation: u64,
) -> Result<ModelState, DaemonError> {
    let plan = mapped.compile()?;
    let in_features = plan.in_features();
    let token_dim = plan.token_dim();
    Ok(ModelState {
        engine: Engine::new(plan, policy),
        in_features,
        token_dim,
        generation,
        mapped,
    })
}

/// Loads and compiles one artifact into a fresh engine.
fn build_state(
    path: &PathBuf,
    policy: BatchPolicy,
    generation: u64,
) -> Result<ModelState, DaemonError> {
    model_state(Arc::new(MappedArtifact::open(path)?), policy, generation)
}

/// Recompiles a model's engine from its still-mapped artifact — the
/// breaker's background self-heal. No file I/O: the mapping that
/// already served requests is the trusted source.
fn rebuild_state(slot: &ModelSlot, policy: BatchPolicy) -> Result<ModelState, DaemonError> {
    let old = slot.current();
    if ant_runtime::chaos::maybe_fail(ant_runtime::chaos::FaultSite::ReloadCorrupt) {
        return Err(DaemonError::Artifact(ArtifactError::Io(io::Error::other(
            "chaos: injected artifact-reload corruption",
        ))));
    }
    model_state(Arc::clone(&old.mapped), policy, old.generation + 1)
}

/// Rebuild attempts per breaker trip. Exhausting them leaves the
/// breaker open; the next refused request re-arms a fresh rebuild, so
/// a transiently failing recompile (e.g. injected reload corruption)
/// never strands the model permanently.
const REBUILD_ATTEMPTS: u32 = 10;

/// The breaker's refusal: same shape as overload shedding (503 +
/// `Retry-After`) so clients reuse their backoff path.
fn breaker_refuse(name: &str) -> Response {
    Response::new(503)
        .header("Retry-After", "1")
        .text(format!("model {name:?} is recovering; retry shortly\n"))
}

/// Admission through the model's circuit breaker. `Ok(probe)` admits
/// the request (`probe` marks the single half-open canary);
/// `Err(resp)` is the 503 to send instead. An open breaker with no
/// rebuild running re-arms one — traffic keeps the self-heal alive
/// even after a rebuild gave up.
fn breaker_admit(inner: &Arc<Inner>, idx: usize) -> Result<bool, Response> {
    let slot = &inner.models[idx];
    let mut b = slot.breaker();
    match b.state {
        BreakerState::Closed => Ok(false),
        BreakerState::Open => {
            if !b.rebuilding {
                b.rebuilding = true;
                spawn_rebuild(inner, idx);
            }
            Err(breaker_refuse(&slot.name))
        }
        BreakerState::HalfOpen => {
            if b.probe_in_flight {
                Err(breaker_refuse(&slot.name))
            } else {
                b.probe_in_flight = true;
                Ok(true)
            }
        }
    }
}

/// Post-request breaker bookkeeping: an engine found dead (on the
/// still-current generation) trips the breaker open and arms a
/// rebuild; a surviving half-open probe closes it.
fn breaker_report(inner: &Arc<Inner>, idx: usize, probe: bool, engine_dead: bool) {
    let slot = &inner.models[idx];
    let mut b = slot.breaker();
    if engine_dead {
        if b.state != BreakerState::Open {
            slot.breaker_trips.add(1);
            eprintln!(
                "[antd] model {:?}: engine dead; breaker open, rebuilding",
                slot.name
            );
        }
        b.state = BreakerState::Open;
        b.probe_in_flight = false;
        slot.breaker_state.set(breaker_gauge_value(b.state));
        if !b.rebuilding {
            b.rebuilding = true;
            spawn_rebuild(inner, idx);
        }
    } else if probe {
        b.state = BreakerState::Closed;
        b.probe_in_flight = false;
        slot.breaker_state.set(breaker_gauge_value(b.state));
        eprintln!(
            "[antd] model {:?}: probe succeeded; breaker closed",
            slot.name
        );
    }
}

/// Background self-heal: recompile the engine from the still-mapped
/// artifact under a bounded retry budget, then move the breaker to
/// half-open. The caller must have set `rebuilding` before spawning.
fn spawn_rebuild(inner: &Arc<Inner>, idx: usize) {
    let inner = Arc::clone(inner);
    std::thread::spawn(move || {
        let slot = &inner.models[idx];
        let mut backoff = Duration::from_millis(10);
        for attempt in 1..=REBUILD_ATTEMPTS {
            match rebuild_state(slot, inner.policy) {
                Ok(fresh) => {
                    let generation = fresh.generation;
                    *slot.state.write().unwrap_or_else(|e| e.into_inner()) = Arc::new(fresh);
                    slot.engine_rebuilds.add(1);
                    let mut b = slot.breaker();
                    b.state = BreakerState::HalfOpen;
                    b.probe_in_flight = false;
                    b.rebuilding = false;
                    slot.breaker_state.set(breaker_gauge_value(b.state));
                    eprintln!(
                        "[antd] model {:?}: engine rebuilt (generation {generation}); \
                         breaker half-open",
                        slot.name
                    );
                    return;
                }
                Err(e) => {
                    eprintln!(
                        "[antd] model {:?}: rebuild attempt {attempt}/{REBUILD_ATTEMPTS} \
                         failed: {e}",
                        slot.name
                    );
                    std::thread::sleep(backoff);
                    backoff = (backoff * 2).min(Duration::from_millis(500));
                }
            }
        }
        // Give up for now; stay open. The next refused request re-arms.
        slot.breaker().rebuilding = false;
    });
}

impl Daemon {
    /// Binds the listen socket, loads every configured artifact, and
    /// starts the accept loop.
    ///
    /// # Errors
    ///
    /// [`DaemonError`] when the config is empty or duplicated, an
    /// artifact fails to load/compile, or the socket cannot bind.
    pub fn start(config: DaemonConfig) -> Result<Daemon, DaemonError> {
        if config.models.is_empty() {
            return Err(DaemonError::Config("no models configured".into()));
        }
        if let Some(plan) = &config.chaos {
            // Installed before the first artifact opens so mmap-load
            // faults can hit startup paths too.
            eprintln!("[antd] chaos plan armed: {plan:?}");
            ant_runtime::chaos::install(plan.clone());
        }
        let mut models = Vec::new();
        for (name, path) in &config.models {
            if models.iter().any(|m: &ModelSlot| m.name == *name) {
                return Err(DaemonError::Config(format!(
                    "duplicate model name {name:?}"
                )));
            }
            let state = build_state(path, config.policy, 1)?;
            models.push(ModelSlot::new(name.clone(), path.clone(), state));
        }
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        // Nonblocking accept so the loop can poll the drain flag; 10ms
        // granularity is far below any human-visible shutdown latency.
        listener.set_nonblocking(true)?;
        let inner = Arc::new(Inner {
            models,
            policy: config.policy,
            request_timeout: config.request_timeout,
            draining: AtomicBool::new(false),
            metrics: DaemonMetrics::new(),
        });
        let accept_inner = Arc::clone(&inner);
        let accept = std::thread::spawn(move || accept_loop(&listener, &accept_inner));
        Ok(Daemon {
            inner,
            local_addr,
            accept: Some(accept),
        })
    }

    /// The bound listen address (resolves `:0` ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Initiates a graceful drain: stop accepting, finish in-flight
    /// exchanges, close every connection. Idempotent; returns
    /// immediately — use [`Daemon::join`] to wait for completion.
    pub fn shutdown(&self) {
        self.inner.draining.store(true, Ordering::SeqCst);
    }

    /// Whether a drain has been initiated (by [`Daemon::shutdown`] or
    /// `POST /shutdown`).
    pub fn is_draining(&self) -> bool {
        self.inner.draining.load(Ordering::SeqCst)
    }

    /// Waits for the accept loop and every connection worker to finish.
    /// Call after [`Daemon::shutdown`] (or after `POST /shutdown`
    /// arrived) for a clean exit; the engines drain on drop afterwards.
    pub fn join(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.shutdown();
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

/// Accept connections until drain, then join the connection workers.
fn accept_loop(listener: &TcpListener, inner: &Arc<Inner>) {
    let mut workers: Vec<JoinHandle<()>> = Vec::new();
    while !inner.draining.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let conn_inner = Arc::clone(inner);
                workers.push(std::thread::spawn(move || {
                    conn_inner.metrics.connections_open.add(1);
                    let _ = handle_connection(&conn_inner, stream);
                    conn_inner.metrics.connections_open.add(-1);
                }));
                // Opportunistically reap finished workers so a
                // long-lived daemon does not accumulate handles.
                workers.retain(|h| !h.is_finished());
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    for h in workers {
        let _ = h.join();
    }
}

/// Serves one connection: HTTP/1.1 keep-alive, one exchange at a time.
///
/// Reads poll at 100ms so the worker notices a drain between requests;
/// an idle timeout mid-exchange only drops clients that stall longer
/// than that *inside* a request, which local serving tolerates.
fn handle_connection(inner: &Arc<Inner>, stream: TcpStream) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(100)))?;
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    loop {
        // Idle wait: sleep on the socket until bytes arrive, EOF, or a
        // drain begins. `fill_buf` does not consume, so a request that
        // arrives in pieces is intact when `read_request` takes over.
        loop {
            match reader.fill_buf() {
                Ok([]) => return Ok(()), // clean EOF between requests
                Ok(_) => break,
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    if inner.draining.load(Ordering::SeqCst) {
                        return Ok(()); // idle at drain: just close
                    }
                }
                Err(_) => return Ok(()),
            }
        }
        let req = match read_request(&mut reader) {
            Ok(Some(req)) => req,
            Ok(None) => return Ok(()),
            Err(HttpError::Io(_) | HttpError::UnexpectedEof) => return Ok(()),
            Err(HttpError::TooLarge(m)) => {
                let resp = Response::new(413).text(format!("{m}\n"));
                inner.metrics.count(resp.status);
                let _ = resp.write_to(&mut writer, true);
                return Ok(());
            }
            Err(HttpError::Malformed(m)) => {
                let resp = Response::new(400).text(format!("{m}\n"));
                inner.metrics.count(resp.status);
                let _ = resp.write_to(&mut writer, true);
                return Ok(());
            }
        };
        let started = ant_obs::now_ns();
        if ant_runtime::chaos::maybe_fail(ant_runtime::chaos::FaultSite::ConnDrop) {
            return Ok(()); // chaos: hang up without answering
        }
        let close = req.wants_close() || inner.draining.load(Ordering::SeqCst);
        // `/generate` streams its body chunk by chunk, so it writes the
        // socket itself instead of returning a buffered `Response`.
        let status = match generate_target(&req) {
            Some(name) if req.method == "POST" => {
                generate(inner, &name, &req.body, &mut writer, close)?
            }
            Some(_) => {
                Response::new(405)
                    .text("use POST\n")
                    .write_to(&mut writer, close)?;
                405
            }
            None => {
                let resp = route(inner, &req);
                let status = resp.status;
                resp.write_to(&mut writer, close)?;
                status
            }
        };
        inner.metrics.count(status);
        inner
            .metrics
            .request_time_ns
            .record(ant_obs::now_ns().saturating_sub(started));
        if close {
            return Ok(());
        }
    }
}

/// Dispatches one request to its endpoint handler.
fn route(inner: &Arc<Inner>, req: &Request) -> Response {
    let path = req.path.as_str();
    match (req.method.as_str(), path) {
        ("GET", "/healthz") => {
            if inner.draining.load(Ordering::SeqCst) {
                // Same contract as overload shedding: tell pollers when
                // to come back instead of leaving them to guess.
                Response::new(503)
                    .header("Retry-After", "1")
                    .text("draining\n")
            } else {
                Response::new(200).text("ok\n")
            }
        }
        ("GET", "/metrics") => Response::new(200).body(
            "text/plain; version=0.0.4; charset=utf-8",
            prometheus_text(&global().snapshot()),
        ),
        ("GET", "/v1/models") => list_models(inner),
        ("POST", "/shutdown") => {
            inner.draining.store(true, Ordering::SeqCst);
            Response::new(200).text("draining\n")
        }
        _ => {
            if let Some(rest) = path.strip_prefix("/v1/models/") {
                if let Some(name) = rest.strip_suffix("/infer") {
                    return if req.method == "POST" {
                        infer(inner, name, &req.body)
                    } else {
                        Response::new(405).text("use POST\n")
                    };
                }
                if let Some(name) = rest.strip_suffix("/reload") {
                    return if req.method == "POST" {
                        reload(inner, name)
                    } else {
                        Response::new(405).text("use POST\n")
                    };
                }
            }
            Response::new(404).text("no such endpoint\n")
        }
    }
}

/// `GET /v1/models`: the served models and their current generations.
fn list_models(inner: &Inner) -> Response {
    let models = inner
        .models
        .iter()
        .map(|m| {
            let state = m.current();
            Json::Obj(vec![
                ("name".into(), Json::Str(m.name.clone())),
                (
                    "in_features".into(),
                    state
                        .in_features
                        .map_or(Json::Null, |f| Json::Num(f as f64)),
                ),
                (
                    "token_dim".into(),
                    state.token_dim.map_or(Json::Null, |d| Json::Num(d as f64)),
                ),
                ("generation".into(), Json::Num(state.generation as f64)),
                ("max_queue".into(), Json::Num(inner.policy.max_queue as f64)),
            ])
        })
        .collect();
    let doc = Json::Obj(vec![("models".into(), Json::Arr(models))]);
    Response::new(200).json(doc.render())
}

/// Extracts the input row from an infer body: `{"input": [..]}` or a
/// bare array of numbers.
fn parse_input(body: &[u8]) -> Result<Vec<f32>, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let doc = Json::parse(text).map_err(|e| e.to_string())?;
    let arr = match doc.get("input") {
        Some(v) => v,
        None => &doc,
    };
    let items = arr
        .as_arr()
        .ok_or_else(|| "expected {\"input\": [numbers]} or a bare array".to_string())?;
    items
        .iter()
        .map(|v| {
            v.as_f64()
                .map(|n| n as f32)
                .ok_or_else(|| "input array must hold numbers".to_string())
        })
        .collect()
}

/// Maps an unexpected engine error to HTTP: a dead engine answers like
/// the breaker's refusal (the trip itself happens in the caller's
/// `breaker_report`), anything else is a plain 500.
fn engine_failure(name: &str, engine: &Engine, e: &RuntimeError) -> Response {
    if engine.is_dead() {
        breaker_refuse(name)
    } else {
        Response::new(500).text(format!("{e}\n"))
    }
}

/// `POST /v1/models/{name}/infer`: admit through the breaker, submit
/// through the model's engine, wait under the request deadline, map
/// engine errors to HTTP, and report the outcome back to the breaker.
fn infer(inner: &Arc<Inner>, name: &str, body: &[u8]) -> Response {
    let Some(idx) = inner.model_idx(name) else {
        return Response::new(404).text(format!("no model {name:?}\n"));
    };
    let input = match parse_input(body) {
        Ok(v) => v,
        Err(m) => return Response::new(400).text(format!("{m}\n")),
    };
    let probe = match breaker_admit(inner, idx) {
        Ok(p) => p,
        Err(resp) => return resp,
    };
    let slot = &inner.models[idx];
    // Pin this request to the current generation: a concurrent reload
    // swaps the slot, but this Arc keeps the old engine (and its mmap)
    // alive until the response is out.
    let state = slot.current();
    let resp = infer_on(inner, name, &state, &input);
    // Only the still-current generation can trip the breaker: a dead
    // engine pinned from before a reload/rebuild says nothing about
    // the engine now serving.
    let dead = state.engine.is_dead() && Arc::ptr_eq(&state, &slot.current());
    breaker_report(inner, idx, probe, dead);
    resp
}

/// The engine round trip of [`infer`], after breaker admission.
fn infer_on(inner: &Inner, name: &str, state: &ModelState, input: &[f32]) -> Response {
    let output = match round_trip(inner, name, &state.engine, |e| e.submit(input)) {
        Ok(output) => output,
        Err(resp) => return resp,
    };
    let doc = Json::Obj(vec![
        (
            "output".into(),
            Json::Arr(output.iter().map(|v| Json::Num(f64::from(*v))).collect()),
        ),
        ("generation".into(), Json::Num(state.generation as f64)),
    ]);
    Response::new(200).json(doc.render())
}

/// One engine round trip — an infer row, a prefill or a single decode
/// step, as `submit` decides — under the request deadline, with engine
/// errors mapped to the HTTP response the caller sends (or, once a
/// stream is under way, folds into its body).
fn round_trip(
    inner: &Inner,
    name: &str,
    engine: &Engine,
    submit: impl FnOnce(&Engine) -> Result<RequestId, RuntimeError>,
) -> Result<Vec<f32>, Response> {
    let id = match submit(engine) {
        Ok(id) => id,
        Err(RuntimeError::Overloaded { queued, max_queue }) => {
            return Err(Response::new(429)
                .header("Retry-After", "1")
                .text(format!("overloaded: queue {queued}/{max_queue}\n")));
        }
        Err(e @ RuntimeError::ShapeMismatch { .. }) => {
            return Err(Response::new(400).text(format!("{e}\n")));
        }
        Err(e) => return Err(engine_failure(name, engine, &e)),
    };
    match engine.wait_timeout(id, inner.request_timeout) {
        Ok(Some(row)) => Ok(row),
        Ok(None) => {
            // Deadline expired: drop the eventual result so it does not
            // park in the engine forever.
            engine.cancel(id);
            Err(Response::new(504).text("request deadline exceeded\n"))
        }
        // The quarantine isolated this request as the one that poisons
        // its batch: a client bug, not a server fault — don't retry.
        Err(e @ RuntimeError::PoisonedRequest { .. }) => {
            Err(Response::new(422).text(format!("{e}\n")))
        }
        Err(e) => Err(engine_failure(name, engine, &e)),
    }
}

/// `/v1/models/{name}/generate` path match (any method; the caller
/// enforces POST).
fn generate_target(req: &Request) -> Option<String> {
    req.path
        .strip_prefix("/v1/models/")
        .and_then(|rest| rest.strip_suffix("/generate"))
        .map(str::to_string)
}

/// Longest accepted prompt, in tokens.
const MAX_PROMPT_TOKENS: usize = 1024;
/// Largest accepted `max_tokens` (bounds the per-request KV arena).
const MAX_GENERATE_TOKENS: usize = 1024;

/// Parsed `/generate` body: `{"prompt": [ids], "max_tokens": N}`.
struct GenerateParams {
    prompt: Vec<u32>,
    max_tokens: usize,
}

fn parse_generate(body: &[u8]) -> Result<GenerateParams, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let doc = Json::parse(text).map_err(|e| e.to_string())?;
    let items = doc
        .get("prompt")
        .and_then(Json::as_arr)
        .ok_or_else(|| "expected {\"prompt\": [token ids], \"max_tokens\": N}".to_string())?;
    let prompt: Vec<u32> = items
        .iter()
        .map(|v| match v.as_f64() {
            Some(n) if n >= 0.0 && n.fract() == 0.0 && n <= f64::from(u32::MAX) => Ok(n as u32),
            _ => Err("prompt must hold non-negative integer token ids".to_string()),
        })
        .collect::<Result<_, _>>()?;
    if prompt.is_empty() {
        return Err("prompt must hold at least one token".to_string());
    }
    if prompt.len() > MAX_PROMPT_TOKENS {
        return Err(format!("prompt beyond {MAX_PROMPT_TOKENS} tokens"));
    }
    let max_tokens = match doc.get("max_tokens") {
        None => 16,
        Some(v) => match v.as_f64() {
            Some(n) if n >= 1.0 && n.fract() == 0.0 && n <= MAX_GENERATE_TOKENS as f64 => {
                n as usize
            }
            _ => {
                return Err(format!(
                    "max_tokens must be an integer in 1..={MAX_GENERATE_TOKENS}"
                ))
            }
        },
    };
    Ok(GenerateParams { prompt, max_tokens })
}

/// SplitMix64: the deterministic token embedding's bit mixer.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic hash embedding: token id → `dim` floats in [-1, 1).
/// The daemon serves synthetic decoders with no trained embedding
/// table, so the mapping only has to be fixed and well-spread — the
/// conformance suite proves the *decode math*, this proves the wiring.
fn embed_token(id: u32, dim: usize, out: &mut Vec<f32>) {
    for j in 0..dim {
        let z = splitmix((u64::from(id) << 32) | j as u64);
        // Top 24 bits → [0, 1) → [-1, 1).
        out.push(((z >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0);
    }
}

/// Greedy sampling: the model's last output row is read as logits over
/// the synthetic vocabulary (one entry per token dim).
fn argmax(row: &[f32]) -> u32 {
    let mut best = 0usize;
    for (i, v) in row.iter().enumerate() {
        if *v > row[best] {
            best = i;
        }
    }
    best as u32
}

/// Closes the session on every exit path out of [`generate`] — an
/// abandoned or failed stream must not pin KV cache bytes.
struct SessionGuard<'a> {
    engine: &'a Engine,
    sid: ant_runtime::SessionId,
}

impl Drop for SessionGuard<'_> {
    fn drop(&mut self) {
        self.engine.close_session(self.sid);
    }
}

/// Writes a buffered (non-streaming) response and returns its status.
fn buffered(w: &mut impl Write, resp: Response, close: bool) -> io::Result<u16> {
    let status = resp.status;
    resp.write_to(w, close)?;
    Ok(status)
}

/// `POST /v1/models/{name}/generate`: admit through the breaker, then
/// prefill the prompt and stream one greedy-sampled token per decode
/// step as a JSON line over chunked transfer coding, ending with a
/// `{"done": true, ...}` line. Errors before the first chunk are
/// ordinary buffered responses; errors mid-stream become a final
/// `{"error": ...}` line (the HTTP status is already on the wire).
/// Returns the status for metrics.
fn generate(
    inner: &Arc<Inner>,
    name: &str,
    body: &[u8],
    w: &mut impl Write,
    close: bool,
) -> io::Result<u16> {
    let Some(idx) = inner.model_idx(name) else {
        return buffered(
            w,
            Response::new(404).text(format!("no model {name:?}\n")),
            close,
        );
    };
    let params = match parse_generate(body) {
        Ok(p) => p,
        Err(m) => return buffered(w, Response::new(400).text(format!("{m}\n")), close),
    };
    let probe = match breaker_admit(inner, idx) {
        Ok(p) => p,
        Err(resp) => return buffered(w, resp, close),
    };
    let slot = &inner.models[idx];
    let state = slot.current();
    let status = stream_generate(inner, name, &state, &params, w, close);
    let dead = state.engine.is_dead() && Arc::ptr_eq(&state, &slot.current());
    breaker_report(inner, idx, probe, dead);
    status
}

/// The streaming body of [`generate`], after breaker admission.
fn stream_generate(
    inner: &Inner,
    name: &str,
    state: &ModelState,
    params: &GenerateParams,
    w: &mut impl Write,
    close: bool,
) -> io::Result<u16> {
    let Some(dim) = state.token_dim else {
        return buffered(
            w,
            Response::new(400).text(format!("model {name:?} is not a causal decoder\n")),
            close,
        );
    };
    // One KV slot per prompt token plus one per generated token; the
    // last generated token is sampled without being fed back, so this
    // bound is never hit mid-stream.
    let capacity = params.prompt.len() + params.max_tokens;
    let sid = match state.engine.open_session(capacity) {
        Ok(sid) => sid,
        Err(e) => return buffered(w, Response::new(500).text(format!("{e}\n")), close),
    };
    let guard = SessionGuard {
        engine: &state.engine,
        sid,
    };
    let mut rows = Vec::with_capacity(capacity * dim);
    for id in &params.prompt {
        embed_token(*id, dim, &mut rows);
    }
    // Prefill before committing to a 200: its errors (overload, a
    // mid-flight reload closing the session) still map to clean HTTP.
    let prefill = round_trip(inner, name, &state.engine, |e| e.submit_prefill(sid, &rows));
    let mut last = match prefill {
        Ok(row) => row,
        Err(resp) => return buffered(w, resp, close),
    };
    drop(rows);
    write_chunked_head(w, 200, "application/json", close)?;
    let mut produced = 0usize;
    let mut error = None;
    let mut step = Vec::with_capacity(dim);
    while produced < params.max_tokens {
        let token = argmax(&last);
        write_chunk(w, format!("{{\"token\":{token}}}\n").as_bytes())?;
        if ant_runtime::chaos::maybe_fail(ant_runtime::chaos::FaultSite::ConnDrop) {
            // The guard closes the session; the io error closes the
            // connection — exactly what a dropped client looks like.
            return Err(io::Error::other(
                "chaos: injected mid-stream connection drop",
            ));
        }
        produced += 1;
        if produced == params.max_tokens {
            break;
        }
        step.clear();
        embed_token(token, dim, &mut step);
        match round_trip(inner, name, &state.engine, |e| e.submit_decode(sid, &step)) {
            Ok(row) => last = row,
            Err(resp) => {
                // Already streaming: the failure rides the body.
                error = Some(String::from_utf8_lossy(&resp.body).trim().to_string());
                break;
            }
        }
    }
    let tail = match &error {
        None => format!("{{\"done\":true,\"tokens\":{produced}}}\n"),
        Some(m) => format!(
            "{{\"done\":false,\"tokens\":{produced},\"error\":{}}}\n",
            Json::Str(m.clone()).render()
        ),
    };
    write_chunk(w, tail.as_bytes())?;
    finish_chunked(w)?;
    drop(guard);
    Ok(200)
}

/// `POST /v1/models/{name}/reload`: re-map the artifact, compile,
/// swap the engine. The old generation keeps serving until the swap.
fn reload(inner: &Inner, name: &str) -> Response {
    let Some(slot) = inner.model(name) else {
        return Response::new(404).text(format!("no model {name:?}\n"));
    };
    // One reload at a time per model; the expensive compile runs outside
    // the state lock so serving never blocks on it.
    let _serialized = slot.reload_lock.lock().unwrap_or_else(|e| e.into_inner());
    let generation = slot.current().generation + 1;
    let fresh = match build_state(&slot.path, inner.policy, generation) {
        Ok(s) => s,
        Err(e) => return Response::new(500).text(format!("reload failed: {e}\n")),
    };
    *slot.state.write().unwrap_or_else(|e| e.into_inner()) = Arc::new(fresh);
    inner.metrics.reloads.add(1);
    {
        // An operator-driven reload installed a known-fresh engine: any
        // open breaker can close without waiting out a probe.
        let mut b = slot.breaker();
        b.state = BreakerState::Closed;
        b.probe_in_flight = false;
        slot.breaker_state.set(breaker_gauge_value(b.state));
    }
    let doc = Json::Obj(vec![
        ("model".into(), Json::Str(name.to_string())),
        ("generation".into(), Json::Num(generation as f64)),
    ]);
    Response::new(200).json(doc.render())
}

/// SIGTERM/SIGINT wiring for the `antd` binary: installs handlers that
/// set a process-wide flag the serve loop polls. Declared here (not in
/// the binary) so the e2e test can exercise the same code path.
pub mod signal {
    use std::sync::atomic::{AtomicBool, Ordering};

    static REQUESTED: AtomicBool = AtomicBool::new(false);

    mod sys {
        //! The libc surface this module needs, declared directly: std
        //! links libc on unix, so these resolve without any external
        //! crate (same pattern as `ant_runtime`'s mmap shim).
        #![allow(non_camel_case_types)]

        pub type c_int = i32;
        pub type sighandler_t = usize;

        pub const SIGINT: c_int = 2;
        pub const SIGTERM: c_int = 15;

        extern "C" {
            pub fn signal(signum: c_int, handler: sighandler_t) -> sighandler_t;
        }
    }

    extern "C" fn on_signal(_signum: i32) {
        // Only an atomic store: anything more is not async-signal-safe.
        REQUESTED.store(true, Ordering::SeqCst);
    }

    /// Installs SIGTERM/SIGINT handlers that record the request.
    pub fn install() {
        let handler = on_signal as *const () as usize;
        unsafe {
            sys::signal(sys::SIGTERM, handler);
            sys::signal(sys::SIGINT, handler);
        }
    }

    /// Whether a termination signal has arrived since [`install`].
    pub fn requested() -> bool {
        REQUESTED.load(Ordering::SeqCst)
    }

    /// Test hook: simulate a signal delivery.
    pub fn request() {
        REQUESTED.store(true, Ordering::SeqCst);
    }
}

/// Runs a daemon until shutdown: blocks the calling thread, polling the
/// signal flag, and drains cleanly on SIGTERM/SIGINT or `POST
/// /shutdown`. This is the whole `antd` binary behind argument parsing.
pub fn serve_until_shutdown(daemon: Daemon) {
    while !signal::requested() && !daemon.is_draining() {
        std::thread::sleep(Duration::from_millis(50));
    }
    daemon.shutdown();
    daemon.join();
}

/// Parses `antd` binary arguments into a config.
///
/// Usage: `antd --model NAME=PATH [--model ...] [--addr HOST:PORT]
/// [--max-batch N] [--max-wait-ms N] [--max-queue N] [--timeout-ms N]
/// [--max-restarts N] [--chaos SPEC]`
///
/// `--chaos` arms the runtime's deterministic fault-injection plan
/// (e.g. `seed=42,worker_panic=0.05,poison=1000000`); see
/// `ant_runtime::chaos` for the grammar.
///
/// # Errors
///
/// A usage string when the arguments do not parse.
pub fn parse_args(args: &[String]) -> Result<DaemonConfig, String> {
    let mut config = DaemonConfig {
        addr: "127.0.0.1:7171".to_string(),
        ..DaemonConfig::default()
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} expects {what}"))
        };
        match arg.as_str() {
            "--model" => {
                let spec = value("NAME=PATH")?;
                let (name, path) = spec
                    .split_once('=')
                    .ok_or_else(|| format!("--model expects NAME=PATH, got {spec:?}"))?;
                config.models.push((name.to_string(), PathBuf::from(path)));
            }
            "--addr" => config.addr = value("HOST:PORT")?,
            "--max-batch" => {
                config.policy.max_batch = parse_num(&value("N")?)?;
            }
            "--max-wait-ms" => {
                config.policy.max_wait = Duration::from_millis(parse_num(&value("N")?)? as u64);
            }
            "--max-queue" => {
                config.policy.max_queue = parse_num(&value("N")?)?;
            }
            "--timeout-ms" => {
                config.request_timeout = Duration::from_millis(parse_num(&value("N")?)? as u64);
            }
            "--max-restarts" => {
                config.policy.max_restarts = parse_num(&value("N")?)? as u32;
            }
            "--chaos" => {
                let spec = value("SPEC")?;
                config.chaos = Some(FaultPlan::parse(&spec).map_err(|e| format!("--chaos: {e}"))?);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if config.models.is_empty() {
        return Err("at least one --model NAME=PATH is required".to_string());
    }
    Ok(config)
}

fn parse_num(s: &str) -> Result<usize, String> {
    s.parse().map_err(|_| format!("not a number: {s:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse_into_a_config() {
        let args: Vec<String> = [
            "--model",
            "mlp=/tmp/m.antm",
            "--addr",
            "127.0.0.1:0",
            "--max-queue",
            "8",
            "--max-batch",
            "16",
            "--max-wait-ms",
            "2",
            "--timeout-ms",
            "5000",
            "--max-restarts",
            "5",
            "--chaos",
            "seed=7,worker_panic=0.25,poison=1000000",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let c = parse_args(&args).unwrap();
        assert_eq!(c.models.len(), 1);
        assert_eq!(c.models[0].0, "mlp");
        assert_eq!(c.addr, "127.0.0.1:0");
        assert_eq!(c.policy.max_queue, 8);
        assert_eq!(c.policy.max_batch, 16);
        assert_eq!(c.policy.max_wait, Duration::from_millis(2));
        assert_eq!(c.request_timeout, Duration::from_millis(5000));
        assert_eq!(c.policy.max_restarts, 5);
        let plan = c.chaos.expect("--chaos parses into a plan");
        assert_eq!(plan.seed(), 7);
        assert_eq!(plan.poison(), Some(1_000_000.0));
    }

    #[test]
    fn args_reject_bad_chaos_specs() {
        let bad: Vec<String> = ["--model", "m=/tmp/m.antm", "--chaos", "seed=nope"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(parse_args(&bad).is_err());
    }

    #[test]
    fn args_reject_missing_models_and_bad_specs() {
        assert!(parse_args(&[]).is_err());
        let bad: Vec<String> = ["--model", "no-equals"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(parse_args(&bad).is_err());
        let unknown: Vec<String> = ["--frob"].iter().map(|s| s.to_string()).collect();
        assert!(parse_args(&unknown).is_err());
    }

    #[test]
    fn generate_body_parses_and_validates() {
        let p = parse_generate(b"{\"prompt\": [3, 0, 7], \"max_tokens\": 4}").unwrap();
        assert_eq!(p.prompt, vec![3, 0, 7]);
        assert_eq!(p.max_tokens, 4);
        // max_tokens defaults when omitted.
        assert_eq!(parse_generate(b"{\"prompt\": [1]}").unwrap().max_tokens, 16);
        assert!(parse_generate(b"{\"prompt\": []}").is_err());
        assert!(parse_generate(b"{\"prompt\": [1.5]}").is_err());
        assert!(parse_generate(b"{\"prompt\": [-1]}").is_err());
        assert!(parse_generate(b"{\"prompt\": [1], \"max_tokens\": 0}").is_err());
        assert!(parse_generate(b"{\"prompt\": [1], \"max_tokens\": 1000000}").is_err());
        assert!(parse_generate(b"{\"max_tokens\": 4}").is_err());
        assert!(parse_generate(b"not json").is_err());
    }

    #[test]
    fn token_embedding_is_deterministic_and_spread() {
        let (mut a, mut b, mut c) = (Vec::new(), Vec::new(), Vec::new());
        embed_token(42, 16, &mut a);
        embed_token(42, 16, &mut b);
        embed_token(43, 16, &mut c);
        assert_eq!(a, b, "same token must embed identically");
        assert_ne!(a, c, "distinct tokens must embed differently");
        assert!(a.iter().all(|v| (-1.0..1.0).contains(v)));
        // Not degenerate: the row is not a constant.
        assert!(a.iter().any(|v| (v - a[0]).abs() > 1e-3));
    }

    #[test]
    fn greedy_argmax_picks_first_maximum() {
        assert_eq!(argmax(&[0.1, 3.0, -2.0, 3.0]), 1);
        assert_eq!(argmax(&[-1.0]), 0);
    }

    #[test]
    fn infer_body_parses_both_shapes() {
        assert_eq!(
            parse_input(b"{\"input\": [1, 2.5, -3]}").unwrap(),
            vec![1.0, 2.5, -3.0]
        );
        assert_eq!(parse_input(b"[0.5, 0.5]").unwrap(), vec![0.5, 0.5]);
        assert!(parse_input(b"{\"input\": \"nope\"}").is_err());
        assert!(parse_input(b"not json").is_err());
        assert!(parse_input(b"{\"input\": [1, null]}").is_err());
    }
}
