//! Exporter format contracts: the Prometheus text exposition and the
//! chrome://tracing JSON are parsed structurally, not substring-matched.
//!
//! A deterministic registry is rendered and compared byte-for-byte
//! against a checked-in golden file (`golden/metrics.prom`), then both
//! that exposition and the *live* process registry after real forward
//! traffic are run through a small Prometheus parser: `# HELP`/`# TYPE`
//! exactly once per family and before its first sample, no duplicate
//! series, cumulative histogram buckets that end at `_count`. The chrome
//! trace is parsed with the in-tree JSON parser and checked event by
//! event.

use ant_bench::json::Json;
use ant_bench::promcheck::{validate, Sample};
use ant_obs::export::{chrome_trace, prometheus_text};
use ant_obs::{Registry, SpanEvent};

/// A fixed registry: every value type, labeled and unlabeled series,
/// a label value that needs escaping, and a second label key (the
/// engine's batch-close `reason`).
fn sample_registry() -> Registry {
    let r = Registry::new();
    r.counter("ant_requests_total", "Requests served").add(1234);
    r.gauge("ant_queue_depth", "Queued requests").set(-3);
    let h = r.histogram("ant_latency_ns", "Request latency");
    for v in [1, 5, 100, 3_000, 100_000, 100_000] {
        h.record(v);
    }
    for (kind, n) in [("packed_linear", 21), ("relu", 7), ("quo\"ted", 1)] {
        r.counter_with("ant_layer_calls_total", "kind", kind, "Per-kind calls")
            .add(n);
    }
    for (reason, n) in [("full", 12), ("quiet", 40), ("cap", 2)] {
        r.counter_with(
            "ant_engine_batch_close_total",
            "reason",
            reason,
            "Batches dispatched, by why the gather loop closed them",
        )
        .add(n);
    }
    let hl = r.histogram_with(
        "ant_layer_time_ns",
        "kind",
        "packed_linear",
        "Per-kind time",
    );
    hl.record(50);
    hl.record(900);
    r
}

/// Panicking wrapper over the shared structural validator
/// (`ant_bench::promcheck`) — the same parser `antc loadgen
/// --check-metrics` and the antd smoke job run against a live daemon.
fn validate_prometheus(text: &str) -> Vec<Sample> {
    validate(text).expect("structural violation in exposition")
}

#[test]
fn golden_prometheus_exposition_is_stable() {
    let text = prometheus_text(&sample_registry().snapshot());
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(
            concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/metrics.prom"),
            &text,
        )
        .unwrap();
        return;
    }
    assert_eq!(
        text,
        include_str!("golden/metrics.prom"),
        "exporter output drifted from the checked-in golden file; \
         update tests/golden/metrics.prom only on a deliberate format change"
    );
}

#[test]
fn prometheus_exposition_parses_cleanly() {
    let samples = validate_prometheus(&prometheus_text(&sample_registry().snapshot()));
    let get = |name: &str, labels: &str| {
        samples
            .iter()
            .find(|s| s.name == name && s.labels == labels)
            .unwrap_or_else(|| panic!("missing series {name}{labels}"))
            .value
    };
    assert_eq!(get("ant_requests_total", ""), 1234.0);
    assert_eq!(get("ant_queue_depth", ""), -3.0);
    assert_eq!(get("ant_latency_ns_count", ""), 6.0);
    assert_eq!(get("ant_latency_ns_sum", ""), 203106.0);
    assert_eq!(get("ant_layer_calls_total", "{kind=\"relu\"}"), 7.0);
    assert_eq!(get("ant_layer_calls_total", "{kind=\"quo\\\"ted\"}"), 1.0);
    assert_eq!(
        get("ant_engine_batch_close_total", "{reason=\"quiet\"}"),
        40.0
    );
    assert_eq!(
        get("ant_layer_time_ns_count", "{kind=\"packed_linear\"}"),
        2.0
    );
}

/// In instrumented builds the *live* process registry — after real
/// forward traffic — must also render a clean exposition: real family
/// names, labeled per-kind series, no duplicates.
#[test]
fn live_registry_exposition_parses_cleanly() {
    use ant_nn::model::deep_mlp;
    use ant_nn::qat::{quantize_model, QuantSpec};
    use ant_tensor::dist::{sample_tensor, Distribution};

    let mut model = deep_mlp(16, 10, 24, 6, 5);
    let calib = sample_tensor(
        Distribution::Gaussian {
            mean: 0.0,
            std: 1.0,
        },
        &[64, 16],
        7,
    );
    quantize_model(&mut model, &calib, QuantSpec::default()).unwrap();
    let mut plan = ant_runtime::CompiledPlan::from_quantized_strict(&model)
        .unwrap()
        .with_threads(1);
    let x = sample_tensor(
        Distribution::Gaussian {
            mean: 0.0,
            std: 1.0,
        },
        &[4, 16],
        11,
    );
    let mut out = Vec::new();
    for _ in 0..8 {
        plan.forward_rows(x.as_slice(), 4, &mut out).unwrap();
    }
    let samples = validate_prometheus(&prometheus_text(&ant_obs::global().snapshot()));
    assert!(
        samples
            .iter()
            .any(|s| s.name == "ant_forward_time_ns_count" && s.value >= 8.0),
        "forward histogram missing from the live exposition"
    );
    assert!(
        samples
            .iter()
            .any(|s| s.name == "ant_layer_time_ns_count" && s.labels == "{kind=\"packed_linear\"}"),
        "per-kind layer series missing from the live exposition"
    );
}

/// The decode-phase series: drive real engine prefill/decode traffic
/// and require the structural checker to find the batch-size and
/// per-step histograms plus the KV byte gauge — live, labeled, and
/// rendered without duplicates.
#[test]
fn live_decode_series_parse_cleanly() {
    use ant_nn::model::decoder_block;
    use ant_nn::qat::{quantize_model, QuantSpec};
    use ant_runtime::{BatchPolicy, Engine};
    use ant_tensor::dist::{sample_tensor, Distribution};
    use std::time::Duration;

    let (seq, dim) = (6usize, 16usize);
    let mut model = decoder_block(seq, dim, 1, 23);
    let calib = sample_tensor(
        Distribution::Gaussian {
            mean: 0.0,
            std: 1.0,
        },
        &[24, seq * dim],
        3,
    );
    quantize_model(&mut model, &calib, QuantSpec::default()).unwrap();
    let plan = ant_runtime::CompiledPlan::from_quantized_strict(&model)
        .unwrap()
        .with_threads(1);
    let engine = Engine::new(
        plan,
        BatchPolicy {
            max_batch: 64,
            max_wait: Duration::from_millis(50),
            max_queue: 64,
            ..BatchPolicy::default()
        },
    );
    let token = |seed: u64| {
        sample_tensor(
            Distribution::Gaussian {
                mean: 0.0,
                std: 1.0,
            },
            &[1, dim],
            seed,
        )
        .as_slice()
        .to_vec()
    };
    let sids: Vec<_> = (0..3).map(|_| engine.open_session(seq).unwrap()).collect();
    for (i, sid) in sids.iter().enumerate() {
        let p = engine.submit_prefill(*sid, &token(i as u64)).unwrap();
        engine.wait(p).unwrap();
    }
    // With sessions still open, the gauge must expose their bytes.
    let samples = validate_prometheus(&prometheus_text(&ant_obs::global().snapshot()));
    let kv_now = samples
        .iter()
        .find(|s| s.name == "ant_kv_cache_bytes")
        .expect("KV byte gauge missing from the live exposition")
        .value;
    assert_eq!(kv_now, engine.kv_bytes() as f64);
    assert!(kv_now > 0.0);
    // Decode a few steps from every session, close, and re-validate.
    let ids: Vec<_> = sids
        .iter()
        .enumerate()
        .map(|(i, sid)| engine.submit_decode(*sid, &token(10 + i as u64)).unwrap())
        .collect();
    for id in ids {
        engine.wait(id).unwrap();
    }
    for sid in sids {
        assert!(engine.close_session(sid));
    }
    let samples = validate_prometheus(&prometheus_text(&ant_obs::global().snapshot()));
    let get = |name: &str| {
        samples
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("missing series {name}"))
            .value
    };
    assert!(get("ant_engine_decode_batch_size_count") >= 1.0);
    assert!(get("ant_engine_decode_step_ns_count") >= 1.0);
    assert!(get("ant_engine_decode_tokens_total") >= 3.0);
    let prefill_closes = samples
        .iter()
        .find(|s| s.name == "ant_engine_batch_close_total" && s.labels == "{reason=\"prefill\"}")
        .expect("batch-close series missing from the live exposition")
        .value;
    assert!(prefill_closes >= 3.0, "{prefill_closes}");
    assert_eq!(
        get("ant_kv_cache_bytes"),
        0.0,
        "closed sessions must zero the gauge"
    );
    assert_eq!(get("ant_kv_sessions"), 0.0);
}

/// The catalog in `docs/observability.md` and the registry agree both
/// ways: every family the process registers is named in the document,
/// and every family a catalog table lists is registered. A daemon on a
/// decoder artifact registers all three sets — the runtime's (first
/// hook), the pool's (plan compile) and `antd`'s (start).
#[test]
fn metric_catalog_matches_the_registry() {
    use ant_bench::antc::{run_quantize, ModelKind, QuantizeConfig};
    use ant_bench::antd::{Daemon, DaemonConfig};
    use std::collections::BTreeSet;

    let path = std::env::temp_dir().join(format!("obs-catalog-{}.antm", std::process::id()));
    run_quantize(
        QuantizeConfig {
            model: ModelKind::Decoder,
            ..QuantizeConfig::default()
        },
        &path,
    )
    .expect("quantize decoder artifact");
    let daemon = Daemon::start(DaemonConfig {
        models: vec![("dec".to_string(), path.clone())],
        ..DaemonConfig::default()
    })
    .expect("daemon starts");
    let registered: BTreeSet<String> = ant_obs::global()
        .snapshot()
        .series
        .into_iter()
        .map(|s| s.family)
        .collect();
    daemon.shutdown();
    daemon.join();
    std::fs::remove_file(&path).ok();

    // A family is written `ant_…` or `antd_…` in backticks, optionally
    // followed by its `{label}`; `ant_obs::…` paths are not families.
    let families = |text: &str| -> BTreeSet<String> {
        text.split('`')
            .skip(1)
            .step_by(2)
            .map(|code| code.split('{').next().unwrap_or(code))
            .filter(|name| {
                (name.starts_with("ant_") || name.starts_with("antd_")) && !name.contains("::")
            })
            .map(str::to_string)
            .collect()
    };
    let doc = include_str!("../../../docs/observability.md");
    let documented = families(doc);
    // A catalog row's first cell is the family.
    let cataloged: BTreeSet<String> = doc
        .lines()
        .filter(|l| l.starts_with("| `"))
        .flat_map(|l| families(l.split('|').nth(1).unwrap_or("")))
        .collect();
    assert!(
        !cataloged.is_empty(),
        "no catalog rows found in the document"
    );
    let undocumented: Vec<_> = registered.difference(&documented).collect();
    assert!(
        undocumented.is_empty(),
        "registered but missing from docs/observability.md: {undocumented:?}"
    );
    let unregistered: Vec<_> = cataloged.difference(&registered).collect();
    assert!(
        unregistered.is_empty(),
        "cataloged in docs/observability.md but never registered: {unregistered:?}"
    );
}

#[test]
fn chrome_trace_is_valid_json_with_complete_events() {
    let events = vec![
        SpanEvent {
            name: "forward",
            tid: 0,
            start_ns: 1_000,
            dur_ns: 4_000,
        },
        SpanEvent {
            name: "layer.packed_linear",
            tid: 0,
            start_ns: 1_250,
            dur_ns: 2_500,
        },
        SpanEvent {
            name: "engine.batch",
            tid: 3,
            start_ns: 9_000,
            dur_ns: 700,
        },
    ];
    let doc = Json::parse(&chrome_trace(&events)).unwrap();
    assert_eq!(
        doc.get("displayTimeUnit").and_then(Json::as_str),
        Some("ns")
    );
    let rendered = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
    assert_eq!(rendered.len(), events.len());
    for (e, r) in events.iter().zip(rendered) {
        assert_eq!(r.get("name").and_then(Json::as_str), Some(e.name));
        assert_eq!(r.get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(r.get("cat").and_then(Json::as_str), Some("ant"));
        assert_eq!(r.get("pid").and_then(Json::as_f64), Some(1.0));
        assert_eq!(r.get("tid").and_then(Json::as_f64), Some(e.tid as f64));
        // Timestamps are µs with ns precision kept in the decimals.
        let ts = r.get("ts").and_then(Json::as_f64).unwrap();
        let dur = r.get("dur").and_then(Json::as_f64).unwrap();
        assert!((ts - e.start_ns as f64 / 1e3).abs() < 1e-9);
        assert!((dur - e.dur_ns as f64 / 1e3).abs() < 1e-9);
    }
    // The empty trace is still a complete, loadable document.
    let empty = Json::parse(&chrome_trace(&[])).unwrap();
    assert_eq!(
        empty.get("traceEvents").and_then(Json::as_arr),
        Some(&[][..])
    );
}
