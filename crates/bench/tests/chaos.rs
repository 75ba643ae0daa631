//! Chaos e2e suite: a real `antd` daemon with the runtime's
//! deterministic fault-injection plan armed (`DaemonConfig::chaos`),
//! driven over real sockets. Each scenario pins one leg of the
//! self-healing contract from `docs/serving.md`:
//!
//! * poison quarantine — a poisoned request fails 422, its batchmates
//!   complete, the engine survives;
//! * breaker recovery — a killed engine answers 503 + `Retry-After`
//!   until the background rebuild + half-open probe restore 200s;
//! * KV hygiene — a worker death mid-generate drains the KV gauges to
//!   zero and a fresh session on the recovered engine decodes;
//! * fault storm — under a seeded panic rate no request ever hangs and
//!   the daemon ends the run serving.
//!
//! The chaos plan is process-global (`ant_runtime::chaos::install`),
//! so every test serializes on one lock and installs its own seeded
//! plan via the daemon config.

use ant_bench::antc::{run_generate, run_quantize, GenerateConfig, ModelKind, QuantizeConfig};
use ant_bench::antd::{Daemon, DaemonConfig};
use ant_bench::http::{read_response, write_request, ClientResponse};
use ant_bench::promcheck;
use ant_runtime::{BatchPolicy, FaultPlan};
use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::{Arc, Barrier, Mutex};
use std::time::Duration;

/// Serializes the tests in this binary: the chaos plan and the obs
/// gauges are process-global.
static CHAOS_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn artifact(name: &str, kind: ModelKind) -> PathBuf {
    let path = std::env::temp_dir().join(format!("antd-chaos-{}-{name}.antm", std::process::id()));
    run_quantize(
        QuantizeConfig {
            model: kind,
            epochs: 0,
            ..QuantizeConfig::default()
        },
        &path,
    )
    .expect("quantize test artifact");
    path
}

/// One request/response on a fresh connection, with a bounded read
/// timeout — a hang here is a test failure, never a harness timeout.
fn call(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<ClientResponse, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut writer = stream;
    write_request(
        &mut writer,
        method,
        path,
        body.map(|b| ("application/json", b.as_bytes())),
    )
    .map_err(|e| format!("send: {e}"))?;
    read_response(&mut reader).map_err(|e| format!("read: {e}"))
}

fn infer_body(v: f32) -> String {
    let row: Vec<String> = (0..8).map(|_| format!("{v:.2}")).collect();
    format!("{{\"input\": [{}]}}", row.join(", "))
}

/// An infer body whose first element is the installed poison sentinel.
fn poison_body() -> String {
    let mut row: Vec<String> = (0..8).map(|_| "0.25".to_string()).collect();
    row[0] = "1000000".to_string();
    format!("{{\"input\": [{}]}}", row.join(", "))
}

/// Scrapes `/metrics` and returns the value of `name{labels}`.
fn metric(addr: SocketAddr, name: &str, labels: &str) -> Option<f64> {
    let resp = call(addr, "GET", "/metrics", None).ok()?;
    let samples = promcheck::validate(&resp.body_str()).expect("valid exposition");
    samples
        .iter()
        .find(|s| s.name == name && s.labels == labels)
        .map(|s| s.value)
}

/// Polls until `f` returns true or ~10s pass.
fn eventually(mut f: impl FnMut() -> bool) -> bool {
    for _ in 0..1000 {
        if f() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    false
}

#[test]
fn poison_request_fails_422_and_batchmates_complete() {
    let _g = lock();
    let path = artifact("poison", ModelKind::Mlp);
    let daemon = Daemon::start(DaemonConfig {
        addr: "127.0.0.1:0".to_string(),
        models: vec![("mlp".to_string(), path.clone())],
        policy: BatchPolicy {
            // Unreachable max_batch, and a fresh engine has no service
            // time to poll by, so its first batch gathers for the whole
            // cap: the four concurrent requests below coalesce into it.
            // The assertions hold either way — a poisoned request alone
            // in its batch is isolated the same.
            max_batch: 64,
            max_wait: Duration::from_millis(300),
            ..BatchPolicy::default()
        },
        // Poison sentinel only: no random faults in this scenario.
        chaos: Some(FaultPlan::parse("seed=11,poison=1000000").unwrap()),
        ..DaemonConfig::default()
    })
    .expect("daemon start");
    let addr = daemon.local_addr();

    // Three innocents and one poison, fired together so they share the
    // first batch.
    let barrier = Arc::new(Barrier::new(4));
    let workers: Vec<_> = (0..4)
        .map(|t| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let body = if t == 0 {
                    poison_body()
                } else {
                    infer_body(0.1 * t as f32)
                };
                barrier.wait();
                let resp = call(addr, "POST", "/v1/models/mlp/infer", Some(&body)).unwrap();
                (t, resp.status, resp.body_str())
            })
        })
        .collect();
    for w in workers {
        let (t, status, body) = w.join().unwrap();
        if t == 0 {
            assert_eq!(status, 422, "poison request: {body}");
            assert!(body.contains("poisoned"), "{body}");
        } else {
            assert_eq!(status, 200, "innocent request {t}: {body}");
        }
    }

    // The engine survived: healthz is green, a fresh request completes,
    // and the quarantine shows up in the runtime metrics.
    assert_eq!(call(addr, "GET", "/healthz", None).unwrap().status, 200);
    let after = call(addr, "POST", "/v1/models/mlp/infer", Some(&infer_body(0.5))).unwrap();
    assert_eq!(after.status, 200, "{}", after.body_str());
    assert!(
        metric(addr, "ant_engine_poisoned_total", "").unwrap_or(0.0) >= 1.0,
        "quarantine not recorded"
    );

    daemon.shutdown();
    daemon.join();
    ant_runtime::chaos::clear();
    std::fs::remove_file(&path).ok();
}

#[test]
fn dead_engine_trips_breaker_then_rebuild_restores_traffic() {
    let _g = lock();
    let path = artifact("breaker", ModelKind::Mlp);
    let daemon = Daemon::start(DaemonConfig {
        addr: "127.0.0.1:0".to_string(),
        models: vec![("mlp".to_string(), path.clone())],
        policy: BatchPolicy {
            max_batch: 16,
            max_wait: Duration::from_millis(2),
            // No supervision budget: the injected panic kills the
            // engine outright, which is the breaker's cue.
            max_restarts: 0,
            ..BatchPolicy::default()
        },
        // Exactly the first batch execution panics.
        chaos: Some(FaultPlan::parse("seed=12,worker_panic=@1").unwrap()),
        ..DaemonConfig::default()
    })
    .expect("daemon start");
    let addr = daemon.local_addr();

    // The request that rides the panicking batch is answered 503 +
    // Retry-After (not a 500, not a hang) and trips the breaker.
    let first = call(addr, "POST", "/v1/models/mlp/infer", Some(&infer_body(0.2))).unwrap();
    assert_eq!(first.status, 503, "{}", first.body_str());
    assert_eq!(
        first.header("retry-after"),
        Some("1"),
        "breaker 503 must carry Retry-After"
    );

    // Background rebuild + half-open probe: traffic recovers without
    // any operator action. Requests meanwhile only ever see 503.
    let recovered = eventually(|| {
        let resp = call(addr, "POST", "/v1/models/mlp/infer", Some(&infer_body(0.3))).unwrap();
        assert!(
            resp.status == 200 || resp.status == 503,
            "unexpected status {} during recovery: {}",
            resp.status,
            resp.body_str()
        );
        resp.status == 200
    });
    assert!(recovered, "breaker never closed after engine rebuild");

    // The healed generation serves steadily and the episode is visible
    // in the metrics: one trip, one rebuild, breaker closed (0).
    for i in 0..5 {
        let resp = call(
            addr,
            "POST",
            "/v1/models/mlp/infer",
            Some(&infer_body(0.1 * i as f32)),
        )
        .unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body_str());
    }
    let labels = "{model=\"mlp\"}";
    assert!(metric(addr, "antd_breaker_trips_total", labels).unwrap_or(0.0) >= 1.0);
    assert!(metric(addr, "antd_engine_rebuilds_total", labels).unwrap_or(0.0) >= 1.0);
    assert_eq!(metric(addr, "antd_breaker_state", labels), Some(0.0));

    daemon.shutdown();
    daemon.join();
    ant_runtime::chaos::clear();
    std::fs::remove_file(&path).ok();
}

#[test]
fn worker_death_mid_generate_drains_kv_and_recovered_engine_decodes() {
    let _g = lock();
    let path = artifact("kv-drain", ModelKind::Decoder);
    let daemon = Daemon::start(DaemonConfig {
        addr: "127.0.0.1:0".to_string(),
        models: vec![("dec".to_string(), path.clone())],
        policy: BatchPolicy {
            max_batch: 16,
            max_wait: Duration::from_millis(2),
            max_restarts: 0,
            ..BatchPolicy::default()
        },
        // Batch 1 is the generate prefill; batch 2 (the first decode
        // step) panics and — with no restart budget — kills the engine
        // while the session is open and its KV arena allocated.
        chaos: Some(FaultPlan::parse("seed=13,worker_panic=@2").unwrap()),
        ..DaemonConfig::default()
    })
    .expect("daemon start");
    let addr = daemon.local_addr();

    let gen = |prompt: Vec<u32>| {
        run_generate(GenerateConfig {
            addr: addr.to_string(),
            model: "dec".to_string(),
            prompt,
            max_tokens: 6,
        })
    };
    // The stream dies mid-generate with an error line, never a hang.
    let killed = gen(vec![1, 2, 3]);
    assert!(killed.is_err(), "generate should have died: {killed:?}");

    // Every KV byte and session of the dead stack is released.
    let drained = eventually(|| {
        metric(addr, "ant_kv_cache_bytes", "") == Some(0.0)
            && metric(addr, "ant_kv_sessions", "") == Some(0.0)
    });
    assert!(drained, "dead engine left KV bytes or sessions pinned");

    // The breaker heals the model; a fresh session on the rebuilt
    // engine decodes correctly and deterministically.
    let mut healed = None;
    let recovered = eventually(|| match gen(vec![1, 2, 3]) {
        Ok(report) => {
            healed = Some(report);
            true
        }
        Err(_) => false,
    });
    assert!(recovered, "generate never recovered after engine rebuild");
    let report = healed.unwrap();
    assert!(
        report.contains("generated 6 token(s) from 3 prompt token(s)"),
        "unexpected generate report:\n{report}"
    );
    let again = gen(vec![1, 2, 3]).expect("repeat generate");
    assert_eq!(report, again, "greedy decode drifted after recovery");

    daemon.shutdown();
    daemon.join();
    ant_runtime::chaos::clear();
    std::fs::remove_file(&path).ok();
}

/// Seeded fault storm: with a sustained worker-panic rate under the
/// supervisor's budget, no request ever hangs, every answer is one of
/// the contract's codes, and the daemon ends the run serving. The seed
/// comes from `ANT_CHAOS_SEED` (CI sweeps several), so a failure
/// prints enough to reproduce: rerun with the same seed.
#[test]
fn fault_storm_never_hangs_and_recovers() {
    let _g = lock();
    let seed: u64 = std::env::var("ANT_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);
    let spec = format!("seed={seed},worker_panic=0.2,slow_batch=0.1,slow_ms=3");
    let path = artifact("storm", ModelKind::Mlp);
    let daemon = Daemon::start(DaemonConfig {
        addr: "127.0.0.1:0".to_string(),
        models: vec![("mlp".to_string(), path.clone())],
        policy: BatchPolicy {
            max_batch: 16,
            max_wait: Duration::from_millis(2),
            // A deep budget: the storm must be absorbed, not fatal.
            max_restarts: 1000,
            restart_backoff: Duration::from_millis(1),
            ..BatchPolicy::default()
        },
        chaos: Some(FaultPlan::parse(&spec).unwrap()),
        ..DaemonConfig::default()
    })
    .expect("daemon start");
    let addr = daemon.local_addr();

    let mut tally = [0u32; 3]; // 200 / 422 / other-contract codes
    for i in 0..80 {
        let resp = call(
            addr,
            "POST",
            "/v1/models/mlp/infer",
            Some(&infer_body(0.01 * i as f32)),
        )
        .unwrap_or_else(|e| panic!("request {i} failed transport under seed {seed}: {e}"));
        match resp.status {
            200 => tally[0] += 1,
            // A lone request in a panicked batch is indistinguishable
            // from poison: 422 is in-contract during a storm.
            422 => tally[1] += 1,
            429 | 503 | 504 => tally[2] += 1,
            other => panic!(
                "request {i} got out-of-contract status {other} under seed {seed}: {}",
                resp.body_str()
            ),
        }
    }
    assert!(
        tally[0] >= 40,
        "storm seed {seed} starved throughput: {tally:?}"
    );
    // The supervisor absorbed panics (rate 0.2 over 80+ batches) and
    // the daemon ends the run healthy.
    assert!(
        metric(addr, "ant_engine_restarts_total", "").unwrap_or(0.0) >= 1.0,
        "no restart recorded under seed {seed}"
    );
    assert_eq!(call(addr, "GET", "/healthz", None).unwrap().status, 200);
    // Storm over: with the plan disarmed, service is immediately clean —
    // no residual state from the absorbed panics.
    ant_runtime::chaos::clear();
    let last = call(addr, "POST", "/v1/models/mlp/infer", Some(&infer_body(0.9)));
    assert_eq!(last.unwrap().status, 200, "daemon not serving after storm");

    daemon.shutdown();
    daemon.join();
    ant_runtime::chaos::clear();
    std::fs::remove_file(&path).ok();
}
