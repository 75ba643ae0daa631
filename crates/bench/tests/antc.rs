//! Round-trip tests for the `antc` subcommands: quantize → inspect →
//! serve on a real temp-file artifact, plus argv validation. The binary
//! in `src/bin/antc.rs` is a thin adapter over the same `run` entry
//! point, so these cover the CLI's behaviour end to end.

use ant_bench::antc::{parse_combo, run, CliError, ModelKind};
use ant_bench::json::Json;
use ant_core::select::PrimitiveCombo;
use ant_runtime::{ArtifactError, ModelArtifact, RuntimeError, FORMAT_VERSION};
use std::path::PathBuf;

fn temp_artifact(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("antc-test-{}-{name}.antm", std::process::id()));
    p
}

fn args(parts: &[&str]) -> Vec<String> {
    parts.iter().map(|s| s.to_string()).collect()
}

#[test]
fn quantize_inspect_serve_roundtrip() {
    let path = temp_artifact("roundtrip");
    let path_str = path.to_str().unwrap();

    let report = run(&args(&[
        "quantize", "--out", path_str, "--model", "mlp", "--epochs", "2", "--seed", "5",
    ]))
    .unwrap();
    assert!(report.contains("combo IP-F, 4 bits"), "{report}");
    assert!(
        report.contains("memoized selection fingerprint"),
        "{report}"
    );
    assert!(path.exists());

    let inspect = run(&args(&["inspect", path_str])).unwrap();
    assert!(inspect.contains(".antm version 3"), "{inspect}");
    assert!(inspect.contains("section MODL"), "{inspect}");
    assert!(inspect.contains("section PANL"), "{inspect}");
    assert!(inspect.contains("section CACH"), "{inspect}");
    assert!(inspect.contains("64-byte aligned"), "{inspect}");
    assert!(inspect.contains("storage:"), "{inspect}");
    assert!(inspect.contains("on-load weight-byte copies:"), "{inspect}");
    if cfg!(all(unix, target_endian = "little")) {
        assert!(inspect.contains("mmap zero-copy"), "{inspect}");
    }
    assert!(inspect.contains("dense"), "{inspect}");
    assert!(inspect.contains("plan: compiles"), "{inspect}");

    let dump = temp_artifact("roundtrip-metrics");
    let serve = run(&args(&[
        "serve",
        path_str,
        "--requests",
        "48",
        "--batch",
        "8",
        "--metrics-dump",
        dump.to_str().unwrap(),
    ]))
    .unwrap();
    assert!(
        serve.contains("served 48 request(s), all verified"),
        "{serve}"
    );
    assert!(serve.contains("metrics: wrote"), "{serve}");
    let prom = std::fs::read_to_string(&dump).unwrap();
    {
        // The serve loop drives the engine, so its counters must be in
        // the dump (the registry is process-wide; other tests may add
        // more series, never fewer).
        assert!(
            prom.contains("# TYPE ant_engine_requests_total counter"),
            "{prom}"
        );
        assert!(prom.contains("ant_forward_time_ns_bucket"), "{prom}");
    }

    std::fs::remove_file(&dump).ok();
    std::fs::remove_file(&path).ok();
}

#[test]
fn quantize_supports_bits_and_combo_overrides() {
    let path = temp_artifact("int8");
    let path_str = path.to_str().unwrap();
    let report = run(&args(&[
        "quantize", "--out", path_str, "--model", "mlp", "--epochs", "1", "--bits", "8", "--combo",
        "int",
    ]))
    .unwrap();
    assert!(report.contains("combo Int, 8 bits"), "{report}");
    let inspect = run(&args(&["inspect", path_str])).unwrap();
    assert!(inspect.contains("int8s"), "{inspect}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn quantize_refuses_a_float_selection_and_leaves_no_file() {
    // FIP-F on this seed selects float4 activations, which need the
    // float-based PE: the refusal names the layer and the type, and comes
    // before anything is written.
    let path = temp_artifact("fipf");
    let err = run(&args(&[
        "quantize",
        "--out",
        path.to_str().unwrap(),
        "--model",
        "mlp",
        "--combo",
        "fipf",
        "--seed",
        "7",
    ]))
    .unwrap_err();
    assert!(
        matches!(
            &err,
            CliError::Runtime(RuntimeError::UnsupportedLayer { layer, .. }) if layer == "fc2"
        ),
        "{err:?}"
    );
    let message = err.to_string();
    assert!(
        message.contains("selected type float4u has no exact integer-domain execution"),
        "{message}"
    );
    assert!(message.contains("float-based PE"), "{message}");
    assert!(!path.exists(), "a refused quantize must not write {path:?}");
}

#[test]
fn inspect_says_why_a_float_typed_artifact_does_not_compile() {
    // The library can still save a float-typed selection (a file an older
    // `antc quantize --combo fipf` wrote looks like this): inspect dumps
    // it and reports the refusal, serve fails with it.
    use ant_nn::model::{mlp, NetLayer};
    use ant_nn::qat::{quantize_model, QuantSpec};
    let mut model = mlp(8, 4, 31);
    let calib = ant_tensor::dist::sample_tensor(
        ant_tensor::dist::Distribution::Gaussian {
            mean: 0.0,
            std: 1.0,
        },
        &[64, 8],
        32,
    );
    quantize_model(&mut model, &calib, QuantSpec::default()).unwrap();
    if let NetLayer::Dense(d) = &mut model.layers_mut()[2] {
        let float4 = ant_core::DataType::float(4, false).unwrap();
        d.quant.activation = Some(ant_core::Quantizer::with_scale(float4, 0.5).unwrap());
    }
    let path = temp_artifact("float-typed");
    let path_str = path.to_str().unwrap();
    ModelArtifact::from_model(&model)
        .unwrap()
        .save_path(&path)
        .unwrap();
    let inspect = run(&args(&["inspect", path_str])).unwrap();
    assert!(
        inspect.contains("plan: does not compile (")
            && inspect.contains("layer fc2")
            && inspect.contains("float4u has no exact integer-domain execution"),
        "{inspect}"
    );
    assert!(matches!(
        run(&args(&["serve", path_str])),
        Err(CliError::Artifact(ArtifactError::Runtime(
            RuntimeError::UnsupportedLayer { .. }
        )))
    ));
    std::fs::remove_file(&path).ok();
}

#[test]
fn usage_errors_are_structured() {
    assert!(matches!(run(&[]), Err(CliError::Usage(_))));
    assert!(matches!(
        run(&args(&["quantize", "--model", "mlp"])),
        Err(CliError::Usage(_)) // missing --out
    ));
    assert!(matches!(
        run(&args(&[
            "quantize",
            "--out",
            "/tmp/x.antm",
            "--model",
            "resnet"
        ])),
        Err(CliError::Usage(_))
    ));
    assert!(matches!(run(&args(&["inspect"])), Err(CliError::Usage(_))));
    assert!(matches!(
        run(&args(&["frobnicate"])),
        Err(CliError::Usage(_))
    ));
    let help = run(&args(&["--help"])).unwrap();
    assert!(help.contains("USAGE"));
}

#[test]
fn inspect_and_serve_report_artifact_errors_not_panics() {
    // Nonexistent file.
    assert!(matches!(
        run(&args(&["inspect", "/tmp/definitely-missing.antm"])),
        Err(CliError::Artifact(_))
    ));
    // Not an artifact.
    let path = temp_artifact("garbage");
    std::fs::write(&path, b"not an artifact at all").unwrap();
    assert!(matches!(
        run(&args(&["inspect", path.to_str().unwrap()])),
        Err(CliError::Artifact(_))
    ));
    assert!(matches!(
        run(&args(&["serve", path.to_str().unwrap()])),
        Err(CliError::Artifact(_))
    ));
    std::fs::remove_file(&path).ok();
}

#[test]
fn model_and_combo_parsers_cover_all_labels() {
    assert_eq!(ModelKind::parse("mlp").unwrap(), ModelKind::Mlp);
    assert_eq!(ModelKind::parse("cnn").unwrap(), ModelKind::Cnn);
    assert_eq!(
        ModelKind::parse("transformer").unwrap(),
        ModelKind::Transformer
    );
    assert!(ModelKind::parse("bert").is_err());
    assert_eq!(parse_combo("int").unwrap(), PrimitiveCombo::Int);
    assert_eq!(parse_combo("ip").unwrap(), PrimitiveCombo::IntPot);
    assert_eq!(parse_combo("fip").unwrap(), PrimitiveCombo::FloatIntPot);
    assert_eq!(parse_combo("IPF").unwrap(), PrimitiveCombo::IntPotFlint);
    assert_eq!(
        parse_combo("fipf").unwrap(),
        PrimitiveCombo::FloatIntPotFlint
    );
    assert!(parse_combo("xyz").is_err());
}

#[test]
fn bench_quick_writes_valid_json_and_reports_no_regression() {
    let out = temp_artifact("bench-json");
    let report = run(&args(&[
        "bench",
        "--quick",
        "--seed",
        "3",
        "--out",
        out.to_str().unwrap(),
    ]))
    .unwrap();
    // The human table names every fixed workload, the kernel ratio and
    // the codec row.
    for needle in ["mlp", "cnn", "attention", "dense GEMM", "codec (ns"] {
        assert!(report.contains(needle), "report missing {needle}: {report}");
    }
    assert!(
        !report.contains("REGRESSION"),
        "regression marker in: {report}"
    );
    // The JSON artifact round-trips through the in-tree parser and has
    // the stable v2 schema: exact key set per workload, not substrings.
    let doc = Json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("ant-bench/runtime-v2")
    );
    assert_eq!(doc.get("quick").and_then(Json::as_bool), Some(true));
    assert_eq!(doc.get("regression").and_then(Json::as_bool), Some(false));
    assert!(doc.get("gemm_speedup_i8_vs_i32").unwrap().as_f64().unwrap() > 0.0);
    let top = "schema quick gemm_speedup_i8_vs_i32 decode telemetry codec regression workloads";
    assert_eq!(doc.keys().join(" "), top, "top-level key set drifted");
    // Per-element codec cost of each 4-bit type, both operations.
    let codec = doc.get("codec").unwrap();
    assert_eq!(codec.keys(), ["int4s", "pot4s", "flint4s"]);
    for dtype in codec.keys() {
        let cost = codec.get(dtype).unwrap();
        assert_eq!(cost.keys(), ["encode_ns", "snap_ns"]);
        for ns in ["encode_ns", "snap_ns"].map(|op| cost.get(op).unwrap().as_f64().unwrap()) {
            assert!(ns > 0.0 && ns < 1e4, "{dtype}: {ns} ns");
        }
    }
    let workloads = doc.get("workloads").and_then(Json::as_arr).unwrap();
    let names: Vec<_> = workloads
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(names, ["mlp", "cnn", "attention"]);
    for w in workloads {
        assert_eq!(
            w.keys(),
            vec![
                "name",
                "features",
                "batched_ops_per_sec",
                "engine_ops_per_sec",
                "p50_us",
                "p90_us",
                "p99_us",
                "p999_us",
                "allocs_per_request",
                "load_us_v2",
                "mapped_zero_copy",
                "mapped_private_dirty_kb",
                "stages",
                "telemetry_share",
            ],
            "workload key set drifted from the runtime-v2 schema"
        );
        // Quantile ordering is free validation of the histogram path.
        let q = |k: &str| w.get(k).and_then(Json::as_f64).unwrap();
        assert!(q("p50_us") <= q("p90_us") && q("p90_us") <= q("p99_us"));
        assert!(q("p99_us") <= q("p999_us"), "p999 below p99");
        // Library test processes do not install the counting allocator,
        // so allocation counts must be honestly reported as unknown.
        assert!(w.get("allocs_per_request").unwrap().is_null());
        if cfg!(all(unix, target_endian = "little")) {
            assert_eq!(
                w.get("mapped_zero_copy").and_then(Json::as_bool),
                Some(true)
            );
        }
        // Shared-RSS metric: measured (a number) on linux, honestly
        // null — not a fake 0 — where smaps_rollup does not exist.
        let dirty = w.get("mapped_private_dirty_kb").unwrap();
        if cfg!(target_os = "linux") {
            assert!(
                dirty.as_f64().is_some(),
                "dirty-kB should be measured: {dirty:?}"
            );
        } else {
            assert!(
                dirty.is_null(),
                "dirty-kB must be null off-linux: {dirty:?}"
            );
        }
        let stages = w.get("stages").unwrap();
        {
            let layers = stages.get("layers").and_then(Json::as_arr).unwrap();
            assert!(!layers.is_empty(), "obs build must report layer stages");
            for l in layers {
                assert_eq!(
                    l.keys(),
                    vec!["kind", "calls", "total_us", "share", "p50_us", "p99_us", "gops", "gbps"]
                );
            }
            let coverage = stages
                .get("coverage_of_forward")
                .and_then(Json::as_f64)
                .unwrap();
            assert!(
                coverage > 0.5 && coverage < 1.2,
                "layer-stage coverage implausible: {coverage}"
            );
            assert!(
                !stages.get("engine").unwrap().is_null(),
                "engine wave ran, stage latencies must be present"
            );
        }
    }
    std::fs::remove_file(&out).ok();
}

#[test]
fn bench_baseline_guard_flags_regressions_and_skips_missing() {
    let base = temp_artifact("bench-baseline");
    let out = temp_artifact("bench-baseline-out");
    // A hand-crafted baseline: "mlp" with absurdly high throughput (any
    // real run regresses against it), "cnn" with near-zero (any real
    // run clears it), and no "attention" entry at all.
    std::fs::write(
        &base,
        "{\n  \"schema\": \"ant-bench/runtime-v2\",\n  \"workloads\": [\n    \
         {\"name\": \"mlp\", \"batched_ops_per_sec\": 1e15},\n    \
         {\"name\": \"cnn\", \"batched_ops_per_sec\": 0.001}\n  ]\n}\n",
    )
    .unwrap();
    let report = run(&args(&[
        "bench",
        "--quick",
        "--seed",
        "3",
        "--baseline",
        base.to_str().unwrap(),
        "--out",
        out.to_str().unwrap(),
    ]))
    .unwrap();
    assert!(report.contains("perf guard vs"), "{report}");
    assert!(
        report.contains("mlp") && report.contains("REGRESSED"),
        "{report}"
    );
    assert!(report.contains("cnn") && report.contains("ok"), "{report}");
    assert!(
        report.contains("attention: no baseline entry, skipped"),
        "{report}"
    );
    // The guard verdict lands in both the human report and the JSON.
    assert!(report.contains("REGRESSION"), "{report}");
    let doc = Json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
    assert_eq!(doc.get("regression").and_then(Json::as_bool), Some(true));
    // The record carries the baseline it was judged against: before and
    // after sit in one file.
    let before = doc.get("before").expect("baseline kept as \"before\"");
    let rows = before.get("workloads").and_then(Json::as_arr).unwrap();
    assert_eq!(rows.len(), 2, "{before:?}");
    assert_eq!(
        rows[0].get("batched_ops_per_sec").and_then(Json::as_f64),
        Some(1e15)
    );
    assert!(before.get("gemm_speedup_i8_vs_i32").is_some());
    std::fs::remove_file(&base).ok();
    std::fs::remove_file(&out).ok();
}

#[test]
fn stats_reports_per_layer_breakdown_and_exports() {
    let path = temp_artifact("stats");
    let path_str = path.to_str().unwrap();
    run(&args(&[
        "quantize", "--out", path_str, "--model", "mlp", "--epochs", "1", "--seed", "9",
    ]))
    .unwrap();
    let prom = temp_artifact("stats-prom");
    let trace = temp_artifact("stats-trace");
    let report = run(&args(&[
        "stats",
        path_str,
        "--requests",
        "64",
        "--batch",
        "8",
        "--prom",
        prom.to_str().unwrap(),
        "--trace",
        trace.to_str().unwrap(),
    ]))
    .unwrap();
    // Both exporters write.
    assert!(report.contains("Prometheus text exposition"), "{report}");
    assert!(report.contains("chrome://tracing JSON"), "{report}");
    let trace_doc = Json::parse(&std::fs::read_to_string(&trace).unwrap()).unwrap();
    let events = trace_doc.get("traceEvents").and_then(Json::as_arr).unwrap();
    {
        // The acceptance budget: per-layer-kind timing sums to within
        // 10% of the end-to-end forward time.
        assert!(report.contains("layer kind"), "{report}");
        let tail = report
            .split("per-layer timing covers ")
            .nth(1)
            .unwrap_or_else(|| panic!("no coverage line in: {report}"));
        let pct: f64 = tail.split('%').next().unwrap().trim().parse().unwrap();
        assert!(
            (90.0..=110.0).contains(&pct),
            "stage timing covers {pct}% of forward; budget is within 10%"
        );
        assert!(
            std::fs::read_to_string(&prom)
                .unwrap()
                .contains("ant_layer_time_ns_bucket"),
            "stats prom export lacks layer histograms"
        );
        assert!(!events.is_empty(), "obs build must retain span events");
    }
    std::fs::remove_file(&prom).ok();
    std::fs::remove_file(&trace).ok();
    std::fs::remove_file(&path).ok();
}

fn quantized_artifact(seed: u64) -> ModelArtifact {
    use ant_nn::model::mlp;
    use ant_nn::qat::{quantize_model, QuantSpec};
    use ant_tensor::dist::{sample_tensor, Distribution};
    let mut model = mlp(8, 4, seed);
    let calib = sample_tensor(
        Distribution::Gaussian {
            mean: 0.0,
            std: 1.0,
        },
        &[64, 8],
        seed.wrapping_add(1),
    );
    quantize_model(&mut model, &calib, QuantSpec::default()).unwrap();
    ModelArtifact::from_model(&model).unwrap()
}

#[test]
fn inspect_refuses_version_1_and_0_streams_with_unsupported_version() {
    let path = temp_artifact("old-version");
    let path_str = path.to_str().unwrap();
    let mut bytes = Vec::new();
    quantized_artifact(23).save(&mut bytes).unwrap();
    for found in [1u16, 0] {
        bytes[4..6].copy_from_slice(&found.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        for cmd in ["inspect", "verify"] {
            match run(&args(&[cmd, path_str])) {
                Err(CliError::Artifact(ArtifactError::UnsupportedVersion {
                    found: f,
                    supported: FORMAT_VERSION,
                })) => assert_eq!(f, found, "{cmd}"),
                other => {
                    panic!("{cmd}, version {found}: expected UnsupportedVersion, got {other:?}")
                }
            }
        }
    }
    // There is no migrate subcommand any more.
    assert!(matches!(
        run(&args(&["migrate", path_str])),
        Err(CliError::Usage(_))
    ));
    std::fs::remove_file(&path).ok();
}

#[test]
fn verify_reports_ok_and_catches_what_lazy_load_skips() {
    let path = temp_artifact("verify");
    let path_str = path.to_str().unwrap();
    quantized_artifact(29).save_path(&path).unwrap();

    let report = run(&args(&["verify", path_str])).unwrap();
    assert!(report.contains("OK"), "{report}");
    assert!(report.contains("PANL images match"), "{report}");

    // Corrupt the tail of the file (PANL/CACH payload territory): the
    // lazy load may not notice, verify must.
    let mut bytes = std::fs::read(&path).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();
    assert!(matches!(
        run(&args(&["verify", path_str])),
        Err(CliError::Artifact(_))
    ));
    std::fs::remove_file(&path).ok();
}

#[test]
fn bench_rejects_unknown_flags() {
    assert!(matches!(
        run(&args(&["bench", "--wat"])),
        Err(CliError::Usage(_))
    ));
}
