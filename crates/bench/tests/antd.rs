//! End-to-end tests for the `antd` serving daemon: a real artifact, a
//! real listening socket on an ephemeral port, real HTTP clients on
//! threads. Covers the serving contract from `docs/serving.md`:
//! concurrent inference through continuous batching, `/healthz`,
//! structurally valid `/metrics`, hot reload generations, a served
//! artifact overwritten on disk changing nothing until its reload, 429 +
//! `Retry-After` under forced overload, deadline 504s never hanging, and
//! a clean drain through `POST /shutdown`.

use ant_bench::antc::{run_generate, run_quantize, GenerateConfig, ModelKind, QuantizeConfig};
use ant_bench::antd::{Daemon, DaemonConfig};
use ant_bench::http::{read_response, write_request, ClientResponse};
use ant_bench::json::Json;
use ant_bench::promcheck;
use ant_runtime::{BatchPolicy, MappedArtifact};
use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// Quantizes the untrained reference MLP (8 features, 4 classes) into a
/// temp `.antm` — training is skipped, so this is fast enough to run
/// per test.
fn artifact(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("antd-test-{}-{name}.antm", std::process::id()));
    run_quantize(
        QuantizeConfig {
            epochs: 0,
            ..QuantizeConfig::default()
        },
        &path,
    )
    .expect("quantize test artifact");
    path
}

/// One request/response on a fresh connection.
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

#[test]
fn serves_concurrent_clients_with_metrics_reload_and_drain() {
    let path = artifact("e2e");
    let daemon = Daemon::start(DaemonConfig {
        addr: "127.0.0.1:0".to_string(),
        models: vec![("mlp".to_string(), path.clone())],
        policy: BatchPolicy {
            max_batch: 16,
            max_wait: Duration::from_millis(2),
            ..BatchPolicy::default()
        },
        request_timeout: Duration::from_secs(30),
        ..DaemonConfig::default()
    })
    .expect("daemon start");
    let addr = daemon.local_addr();

    // Liveness and the model listing.
    let health = call(addr, "GET", "/healthz", None).unwrap();
    assert_eq!(health.status, 200);
    assert_eq!(health.body_str(), "ok\n");
    let models = call(addr, "GET", "/v1/models", None).unwrap();
    assert_eq!(models.status, 200);
    let doc = Json::parse(&models.body_str()).unwrap();
    let entry = &doc.get("models").unwrap().as_arr().unwrap()[0];
    assert_eq!(entry.get("name").unwrap().as_str(), Some("mlp"));
    assert_eq!(entry.get("in_features").unwrap().as_f64(), Some(8.0));
    assert_eq!(entry.get("generation").unwrap().as_f64(), Some(1.0));

    // Concurrent clients batch through one engine; every response is a
    // 4-logit row from generation 1.
    let workers: Vec<_> = (0..8)
        .map(|t| {
            std::thread::spawn(move || {
                for i in 0..5 {
                    let resp = call(
                        addr,
                        "POST",
                        "/v1/models/mlp/infer",
                        Some(&infer_body(0.1 * (t as f32) + 0.01 * (i as f32))),
                    )
                    .unwrap();
                    assert_eq!(resp.status, 200, "{}", resp.body_str());
                    let doc = Json::parse(&resp.body_str()).unwrap();
                    assert_eq!(doc.get("output").unwrap().as_arr().unwrap().len(), 4);
                    assert_eq!(doc.get("generation").unwrap().as_f64(), Some(1.0));
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }

    // Bad inputs are client errors, not 500s or hangs.
    let bad = call(addr, "POST", "/v1/models/mlp/infer", Some("not json")).unwrap();
    assert_eq!(bad.status, 400);
    let wrong_shape = call(
        addr,
        "POST",
        "/v1/models/mlp/infer",
        Some("{\"input\": [1, 2]}"),
    )
    .unwrap();
    assert_eq!(wrong_shape.status, 400, "{}", wrong_shape.body_str());
    let missing = call(addr, "POST", "/v1/models/nope/infer", Some("[1]")).unwrap();
    assert_eq!(missing.status, 404);
    assert_eq!(call(addr, "GET", "/nope", None).unwrap().status, 404);
    assert_eq!(
        call(addr, "GET", "/v1/models/mlp/infer", None)
            .unwrap()
            .status,
        405
    );

    // Hot reload: generation bumps, serving continues.
    let reload = call(addr, "POST", "/v1/models/mlp/reload", None).unwrap();
    assert_eq!(reload.status, 200, "{}", reload.body_str());
    let doc = Json::parse(&reload.body_str()).unwrap();
    assert_eq!(doc.get("generation").unwrap().as_f64(), Some(2.0));
    let after = call(addr, "POST", "/v1/models/mlp/infer", Some(&infer_body(0.3))).unwrap();
    assert_eq!(after.status, 200);
    let doc = Json::parse(&after.body_str()).unwrap();
    assert_eq!(doc.get("generation").unwrap().as_f64(), Some(2.0));

    // /metrics parses with the structural validator and carries both
    // daemon-level and engine-level series.
    let metrics = call(addr, "GET", "/metrics", None).unwrap();
    assert_eq!(metrics.status, 200);
    let samples = promcheck::validate(&metrics.body_str()).expect("valid exposition");
    let count = |name: &str, labels: &str| {
        samples
            .iter()
            .find(|s| s.name == name && s.labels == labels)
            .map(|s| s.value)
    };
    assert!(
        count("antd_http_responses_total", "{code=\"200\"}").unwrap() >= 40.0,
        "under-counted 200s"
    );
    assert!(
        count("antd_reloads_total", "").unwrap() >= 1.0,
        "reload not counted"
    );
    assert!(
        count("antd_request_time_ns_count", "").unwrap() >= 40.0,
        "request histogram missing"
    );

    // Clean drain through the endpoint: the daemon stops serving and
    // join returns (bounded by the test harness timeout). The drain is
    // initiated over a keep-alive connection so the draining /healthz
    // answer — 503 *with* Retry-After, same contract as overload
    // shedding — is observable after /shutdown (fresh connections are
    // refused once the accept loop stops).
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    write_request(&mut writer, "POST", "/shutdown", None).unwrap();
    let bye = read_response(&mut reader).unwrap();
    assert_eq!(bye.status, 200);
    assert!(daemon.is_draining());
    write_request(&mut writer, "GET", "/healthz", None).unwrap();
    let draining = read_response(&mut reader).unwrap();
    assert_eq!(draining.status, 503, "{}", draining.body_str());
    assert_eq!(
        draining.header("retry-after"),
        Some("1"),
        "draining 503 must carry Retry-After"
    );
    daemon.join();
    // The listener is gone: new connections are refused (or reset).
    assert!(call(addr, "GET", "/healthz", None).is_err());
    std::fs::remove_file(&path).ok();
}

#[test]
fn overwritten_artifact_serves_its_old_bits_until_reload() {
    let path = artifact("overwrite");
    let daemon = Daemon::start(DaemonConfig {
        addr: "127.0.0.1:0".to_string(),
        models: vec![("mlp".to_string(), path.clone())],
        ..DaemonConfig::default()
    })
    .expect("daemon start");
    let addr = daemon.local_addr();
    let body = infer_body(0.25);
    // One infer: its generation and its output bits.
    let infer = || {
        let resp = call(addr, "POST", "/v1/models/mlp/infer", Some(&body)).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body_str());
        let doc = Json::parse(&resp.body_str()).unwrap();
        let generation = doc.get("generation").unwrap().as_f64().unwrap();
        let output = doc.get("output").unwrap().as_arr().unwrap();
        let f32_bits = |v: &Json| (v.as_f64().unwrap() as f32).to_bits();
        (generation, output.iter().map(f32_bits).collect::<Vec<_>>())
    };
    let (generation, old) = infer();
    assert_eq!(generation, 1.0);

    // A different model (another seed, same shape) saved over the
    // served path: generation 1 keeps serving the bytes it mapped.
    let reseeded = QuantizeConfig {
        epochs: 0,
        seed: 18,
        ..QuantizeConfig::default()
    };
    run_quantize(reseeded, &path).expect("quantize over the served path");
    assert_eq!(infer(), (1.0, old.clone()), "generation 1 changed bits");
    assert_eq!(call(addr, "GET", "/healthz", None).unwrap().status, 200);

    // The reload maps the new file: generation 2 answers from it.
    let reload = call(addr, "POST", "/v1/models/mlp/reload", None).unwrap();
    assert_eq!(reload.status, 200, "{}", reload.body_str());
    let (generation, new) = infer();
    assert_eq!(generation, 2.0);
    let mut want = Vec::new();
    let mut plan = MappedArtifact::open(&path).unwrap().compile().unwrap();
    plan.forward_rows(&[0.25; 8], 1, &mut want).unwrap();
    assert_eq!(new, want.iter().map(|v| v.to_bits()).collect::<Vec<_>>());
    assert_ne!(new, old, "the new model must answer differently");
    daemon.shutdown();
    daemon.join();
    std::fs::remove_file(&path).ok();
}

#[test]
fn overload_sheds_with_429_and_retry_after_then_recovers() {
    let path = artifact("overload");
    // A tiny queue behind an unreachable batch size. A fresh engine has
    // no service time to poll by, so its first batch gathers for the
    // whole 500ms cap while requests pile up, and concurrent clients
    // overflow the 2-deep queue.
    let daemon = Daemon::start(DaemonConfig {
        addr: "127.0.0.1:0".to_string(),
        models: vec![("mlp".to_string(), path.clone())],
        policy: BatchPolicy {
            max_batch: 64,
            max_wait: Duration::from_millis(500),
            max_queue: 2,
            ..BatchPolicy::default()
        },
        request_timeout: Duration::from_secs(30),
        ..DaemonConfig::default()
    })
    .expect("daemon start");
    let addr = daemon.local_addr();

    // All clients connect first, then fire together.
    let clients = 12;
    let barrier = Arc::new(Barrier::new(clients));
    let workers: Vec<_> = (0..clients)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).unwrap();
                stream
                    .set_read_timeout(Some(Duration::from_secs(60)))
                    .unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut writer = stream;
                barrier.wait();
                let body = infer_body(0.25);
                write_request(
                    &mut writer,
                    "POST",
                    "/v1/models/mlp/infer",
                    Some(("application/json", body.as_bytes())),
                )
                .unwrap();
                let resp = read_response(&mut reader).unwrap();
                let retry_after = resp.header("retry-after").map(|v| v.to_string());
                (resp.status, retry_after)
            })
        })
        .collect();
    let outcomes: Vec<(u16, Option<String>)> =
        workers.into_iter().map(|w| w.join().unwrap()).collect();
    let ok = outcomes.iter().filter(|(s, _)| *s == 200).count();
    let shed: Vec<_> = outcomes.iter().filter(|(s, _)| *s == 429).collect();
    assert!(ok >= 1, "no request succeeded: {outcomes:?}");
    assert!(
        !shed.is_empty(),
        "queue of 2 never overflowed across {clients} concurrent clients: {outcomes:?}"
    );
    assert_eq!(
        ok + shed.len(),
        clients,
        "unexpected statuses: {outcomes:?}"
    );
    for (_, retry_after) in &shed {
        assert_eq!(retry_after.as_deref(), Some("1"), "429 without Retry-After");
    }

    // Recovery: once the stuck batch drains, admission reopens.
    let resp = call(addr, "POST", "/v1/models/mlp/infer", Some(&infer_body(0.5))).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_str());

    daemon.shutdown();
    daemon.join();
    std::fs::remove_file(&path).ok();
}

/// The decode-smoke path end to end: quantize a causal decoder, serve
/// it, and stream tokens through `POST /v1/models/{name}/generate` with
/// the same chunked client `antc generate` (and the CI decode-smoke
/// job) uses. A non-decoder model on the same daemon pins the 400
/// contract, and a clean drain proves no generate session leaks KV.
#[test]
fn generate_streams_tokens_and_drains_cleanly() {
    let dec_path =
        std::env::temp_dir().join(format!("antd-test-{}-decoder.antm", std::process::id()));
    run_quantize(
        QuantizeConfig {
            model: ModelKind::Decoder,
            ..QuantizeConfig::default()
        },
        &dec_path,
    )
    .expect("quantize decoder artifact");
    let mlp_path = artifact("gen-mlp");
    let daemon = Daemon::start(DaemonConfig {
        addr: "127.0.0.1:0".to_string(),
        models: vec![
            ("dec".to_string(), dec_path.clone()),
            ("mlp".to_string(), mlp_path.clone()),
        ],
        policy: BatchPolicy {
            max_batch: 16,
            max_wait: Duration::from_millis(2),
            ..BatchPolicy::default()
        },
        request_timeout: Duration::from_secs(30),
        ..DaemonConfig::default()
    })
    .expect("daemon start");
    let addr = daemon.local_addr();

    // The listing advertises the decode surface: a decoder carries its
    // synthetic vocabulary (token dim), the MLP carries none.
    let models = call(addr, "GET", "/v1/models", None).unwrap();
    let doc = Json::parse(&models.body_str()).unwrap();
    for entry in doc.get("models").unwrap().as_arr().unwrap() {
        let token_dim = entry.get("token_dim").unwrap().as_f64();
        match entry.get("name").unwrap().as_str().unwrap() {
            "dec" => assert_eq!(token_dim, Some(16.0)),
            _ => assert_eq!(token_dim, None),
        }
    }

    // Stream through the same client `antc generate` uses: it verifies
    // chunked framing, per-line JSON, and the done-line token count.
    let report = run_generate(GenerateConfig {
        addr: addr.to_string(),
        model: "dec".to_string(),
        prompt: vec![1, 2, 3],
        max_tokens: 8,
    })
    .expect("generate stream");
    assert!(
        report.contains("generated 8 token(s) from 3 prompt token(s)"),
        "unexpected generate report:\n{report}"
    );
    assert_eq!(report.matches("token[").count(), 8, "{report}");

    // Determinism: greedy argmax over a fixed artifact is repeatable.
    let again = run_generate(GenerateConfig {
        addr: addr.to_string(),
        model: "dec".to_string(),
        prompt: vec![1, 2, 3],
        max_tokens: 8,
    })
    .expect("repeat generate stream");
    assert_eq!(report, again, "greedy decode drifted between requests");

    // Concurrent sessions coalesce through the engine's decode phase.
    let workers: Vec<_> = (0..4)
        .map(|t| {
            std::thread::spawn(move || {
                run_generate(GenerateConfig {
                    addr: addr.to_string(),
                    model: "dec".to_string(),
                    prompt: vec![t, t + 1],
                    max_tokens: 6,
                })
                .expect("concurrent generate")
            })
        })
        .collect();
    for w in workers {
        let report = w.join().unwrap();
        assert!(report.contains("generated 6 token(s)"), "{report}");
    }

    // Error contract: non-decoder model 400, bad bodies 400, wrong
    // method 405, unknown model 404 — all buffered HTTP, never a stream.
    let wrong_kind = call(
        addr,
        "POST",
        "/v1/models/mlp/generate",
        Some("{\"prompt\":[1]}"),
    )
    .unwrap();
    assert_eq!(wrong_kind.status, 400, "{}", wrong_kind.body_str());
    assert!(wrong_kind.body_str().contains("not a causal decoder"));
    let empty = call(
        addr,
        "POST",
        "/v1/models/dec/generate",
        Some("{\"prompt\":[]}"),
    )
    .unwrap();
    assert_eq!(empty.status, 400);
    let oob = call(
        addr,
        "POST",
        "/v1/models/dec/generate",
        Some("{\"prompt\":[1],\"max_tokens\":9999}"),
    )
    .unwrap();
    assert_eq!(oob.status, 400, "{}", oob.body_str());
    assert_eq!(
        call(addr, "GET", "/v1/models/dec/generate", None)
            .unwrap()
            .status,
        405
    );
    assert_eq!(
        call(
            addr,
            "POST",
            "/v1/models/nope/generate",
            Some("{\"prompt\":[1]}")
        )
        .unwrap()
        .status,
        404
    );

    // Every generate session must have been released: the KV gauge and
    // session count come back to zero before the drain.
    let metrics = call(addr, "GET", "/metrics", None).unwrap();
    let samples = promcheck::validate(&metrics.body_str()).expect("valid exposition");
    for gauge in ["ant_kv_cache_bytes", "ant_kv_sessions"] {
        let s = samples
            .iter()
            .find(|s| s.name == gauge)
            .unwrap_or_else(|| panic!("{gauge} missing from /metrics"));
        assert_eq!(s.value, 0.0, "{gauge} leaked after generate streams");
    }

    daemon.shutdown();
    daemon.join();
    std::fs::remove_file(&dec_path).ok();
    std::fs::remove_file(&mlp_path).ok();
}

#[test]
fn request_deadline_maps_to_504_not_a_hang() {
    let path = artifact("deadline");
    // A fresh engine's first batch gathers for the whole 2s cap (no
    // service time to poll by yet); a 50ms request deadline expires
    // first and must surface as 504.
    let daemon = Daemon::start(DaemonConfig {
        addr: "127.0.0.1:0".to_string(),
        models: vec![("mlp".to_string(), path.clone())],
        policy: BatchPolicy {
            max_batch: 64,
            max_wait: Duration::from_millis(2_000),
            max_queue: 64,
            ..BatchPolicy::default()
        },
        request_timeout: Duration::from_millis(50),
        ..DaemonConfig::default()
    })
    .expect("daemon start");
    let addr = daemon.local_addr();
    let resp = call(addr, "POST", "/v1/models/mlp/infer", Some(&infer_body(0.1))).unwrap();
    assert_eq!(resp.status, 504, "{}", resp.body_str());
    daemon.shutdown();
    daemon.join();
    std::fs::remove_file(&path).ok();
}
