//! The metric catalogue (the same names, units, directions and bounds
//! `BENCHMARK.json` declares) and the result a run prints and writes.

use crate::stats::{SliceStat, Timeline};
use ant_bench::json::Json;
use std::collections::BTreeMap;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One catalogue entry. `bound` is the share of the parent's median by
/// which an end-to-end metric may worsen; per-layer metrics carry none.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    e2e(name, unit, Better::Lower, 0.0)
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    e2e(name, unit, Better::Higher, 0.0)
}

/// The workloads, in the order the suite runs them.
pub const WORKLOADS: [&str; 6] = [
    "dense_batch",
    "conv_batch",
    "xfmr_batch",
    "decode",
    "serve_open",
    "engine_wave",
];

/// End-to-end metrics: every workload reports every one (`--trace 0`).
/// What each means on each workload is tabulated in the README.
pub const END_TO_END: [MetricDef; 4] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("throughput_per_s", "1/s", Better::Higher, 0.25),
    e2e("latency_p50_us", "us", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.15),
];

/// Per-layer metrics (`--trace 1`), named after the module they time.
/// A metric reads 0 on a workload that never executes that layer.
pub const PER_LAYER: [MetricDef; 103] = [
    // ant_core::select via ant_nn::qat::quantize_model
    lo("select.quantize_s", "s"),
    hi("select.tensors", "count"),
    hi("select.flint_share", "share"),
    // Planner / SelectionCache
    lo("cache.compile_cold_ms", "ms"),
    lo("cache.compile_warm_ms", "ms"),
    hi("cache.hit_share", "share"),
    // ModelArtifact / MappedArtifact / Mmap
    lo("artifact.save_ms", "ms"),
    lo("artifact.bytes", "B"),
    lo("artifact.open_us", "us"),
    lo("artifact.compile_strict_us", "us"),
    lo("artifact.verify_ms", "ms"),
    hi("artifact.zero_copy", "bool"),
    // gemm::PanelGemm::matmul at the workload's dominant (k, n)
    hi("gemm.m_batch_gmacs", "GMAC/s"),
    hi("gemm.m1_gmacs", "GMAC/s"),
    lo("gemm.macs_per_row", "count"),
    lo("gemm.im2row_us", "us"),
    // WorkerPool
    lo("pool.dispatch_us", "us"),
    lo("pool.tasks", "count"),
    lo("pool.parks", "count"),
    hi("pool.speedup_batch", "ratio"),
    hi("pool.speedup_b1", "ratio"),
    // CompiledPlan
    lo("plan.forward_batch_us", "us"),
    lo("plan.forward_b1_us", "us"),
    lo("plan.row_p99_us", "us"),
    lo("plan.linear_us", "us"),
    lo("plan.conv_us", "us"),
    lo("plan.attn_us", "us"),
    lo("plan.gelu_us", "us"),
    lo("plan.norm_us", "us"),
    lo("plan.relu_us", "us"),
    lo("plan.pool_us", "us"),
    lo("plan.layer_sum_share", "share"),
    lo("plan.prefill_us", "us"),
    lo("plan.decode_step_s1_us", "us"),
    lo("plan.decode_step_s4_us", "us"),
    lo("plan.ref_max_rel_err", "share"),
    lo("plan.ref_rows_off", "count"),
    lo("plan.weight_bytes_packed", "B"),
    // kv (DecodeSession arenas)
    lo("kv.open_session_us", "us"),
    lo("kv.reserved_bytes", "B"),
    hi("kv.used_share", "share"),
    lo("kv.bytes_per_token", "B"),
    // Engine
    lo("engine.submit_us", "us"),
    lo("engine.lone_rt_us", "us"),
    lo("engine.window_share", "share"),
    hi("engine.mean_batch", "count"),
    hi("engine.largest_batch", "count"),
    lo("engine.batches", "count"),
    hi("engine.decode_mean_batch", "count"),
    lo("engine.restarts", "count"),
    lo("engine.poisoned", "count"),
    // the workload-specific end-to-end readings, by their own names
    lo("e2e.latency_p99_us", "us"),
    hi("e2e.rows_per_s", "1/s"),
    lo("e2e.row_p50_us", "us"),
    hi("e2e.tokens_per_s", "1/s"),
    lo("e2e.ttft_p50_us", "us"),
    lo("e2e.itl_p50_us", "us"),
    lo("e2e.itl_p99_us", "us"),
    hi("e2e.max_rate_ok", "1/s"),
    // http over in-memory buffers, 16- and 2048-float bodies
    lo("http.read_request_us", "us"),
    lo("http.read_request_2048_us", "us"),
    lo("http.write_response_us", "us"),
    lo("http.write_response_2048_us", "us"),
    // json over the same bodies
    lo("json.parse_us", "us"),
    lo("json.parse_2048_us", "us"),
    lo("json.render_us", "us"),
    lo("json.render_2048_us", "us"),
    // antd::Daemon
    lo("antd.start_ms", "ms"),
    lo("antd.rtt_idle_us", "us"),
    lo("antd.infer_overhead_us", "us"),
    hi("antd.resp_200", "count"),
    lo("antd.resp_429", "count"),
    lo("antd.resp_5xx", "count"),
    lo("antd.r250.p50_us", "us"),
    lo("antd.r250.p99_us", "us"),
    hi("antd.r250.ok_share", "share"),
    lo("antd.r500.p50_us", "us"),
    lo("antd.r500.p99_us", "us"),
    hi("antd.r500.ok_share", "share"),
    lo("antd.r1000.p50_us", "us"),
    lo("antd.r1000.p99_us", "us"),
    hi("antd.r1000.ok_share", "share"),
    lo("antd.r2000.p50_us", "us"),
    lo("antd.r2000.p99_us", "us"),
    hi("antd.r2000.ok_share", "share"),
    lo("antd.r4000.p50_us", "us"),
    lo("antd.r4000.p99_us", "us"),
    hi("antd.r4000.ok_share", "share"),
    lo("antd.r8000.p50_us", "us"),
    lo("antd.r8000.p99_us", "us"),
    hi("antd.r8000.ok_share", "share"),
    // the benchmark's own generator
    lo("loadgen.late_p99_us", "us"),
    hi("loadgen.sent", "count"),
    hi("loadgen.ok", "count"),
    lo("loadgen.failed", "count"),
    lo("loadgen.dropped", "count"),
    // the benchmark itself
    lo("bench.trace_overhead_share", "share"),
    hi("bench.span_coverage_share", "share"),
    hi("bench.spans", "count"),
    lo("bench.spans_dropped", "count"),
    lo("bench.setup_reps", "count"),
    lo("bench.untraced_primary", "1/s"),
    lo("bench.traced_primary", "1/s"),
];

/// One timed phase of a run: how long it measured and how many samples
/// its percentiles pooled.
#[derive(Debug, Clone)]
pub struct Phase {
    pub name: String,
    pub seconds: f64,
    pub samples: u64,
    pub slices: Vec<SliceStat>,
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub values: BTreeMap<&'static str, f64>,
    pub phases: Vec<Phase>,
    pub attempted: u64,
    pub failed: u64,
    pub gate_failures: Vec<String>,
}

impl Outcome {
    /// Records a metric; the name must be in the catalogue.
    pub fn set(&mut self, name: &str, value: f64) {
        let def = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not in the catalogue"));
        self.values.insert(def.name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Records a timed phase: its length, sample count and slices.
    pub fn phase(&mut self, name: &str, timeline: &Timeline) {
        self.phases.push(Phase {
            name: name.to_string(),
            seconds: timeline.phase_ns as f64 / 1e9,
            samples: timeline.samples(),
            slices: timeline.slices().to_vec(),
        });
    }

    /// A correctness gate: records `what()` as a failure unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.gate_failures.push(what());
        }
    }

    pub fn gates_passed(&self) -> bool {
        self.gate_failures.is_empty()
    }

    /// Correct means every gate passed and nothing failed while timed.
    pub fn correct(&self) -> bool {
        self.gates_passed() && self.failed == 0
    }

    /// `(attempted, failed)` as reported: at least one attempt, and a
    /// failed gate fails the whole run (`fail_share = 1`).
    pub fn counts(&self) -> (u64, u64) {
        let attempted = self.attempted.max(1);
        if self.gates_passed() {
            (attempted, self.failed)
        } else {
            (attempted, attempted)
        }
    }

    /// The metrics a run reports: every end-to-end metric untraced,
    /// every per-layer metric traced (0 where the layer never ran).
    pub fn reported(&self, trace: bool) -> Vec<(MetricDef, f64)> {
        let defs: &[MetricDef] = if trace { &PER_LAYER } else { &END_TO_END };
        defs.iter().map(|d| (*d, self.get(d.name))).collect()
    }

    /// The `metrics` object of the result line and the result file.
    pub fn metrics_json(&self, trace: bool) -> Json {
        Json::Obj(
            self.reported(trace)
                .into_iter()
                .map(|(d, v)| {
                    (
                        d.name.to_string(),
                        Json::Obj(vec![
                            ("value".into(), Json::Num(v)),
                            ("unit".into(), Json::Str(d.unit.into())),
                        ]),
                    )
                })
                .collect(),
        )
    }

    /// The one-line JSON object the driver reads last on stdout.
    pub fn result_line(&self, trace: bool) -> String {
        let (attempted, failed) = self.counts();
        let doc = Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::Num(attempted as f64)),
            ("failed".into(), Json::Num(failed as f64)),
            ("metrics".into(), self.metrics_json(trace)),
        ]);
        one_line(&doc)
    }

    /// Every reported metric by name with its unit, as an aligned table.
    pub fn table(&self, trace: bool) -> String {
        let rows: Vec<Vec<String>> = self
            .reported(trace)
            .into_iter()
            .map(|(d, v)| {
                vec![
                    d.name.to_string(),
                    format!("{v:.4}"),
                    d.unit.to_string(),
                    d.better.as_str().to_string(),
                ]
            })
            .collect();
        ant_bench::render_table(&["metric", "value", "unit", "better"], &rows)
    }
}

/// Renders `doc` on a single line (the pretty renderer's newlines and
/// indentation removed; strings here never hold a newline).
pub fn one_line(doc: &Json) -> String {
    let pretty = doc.render();
    let mut out = String::with_capacity(pretty.len());
    for line in pretty.lines() {
        out.push_str(line.trim_start());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(d.name), "{} listed twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
        assert!(PER_LAYER.len() <= 128);
    }

    /// `BENCHMARK.json` at the repo root must say what the code says.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS);
        assert_eq!(
            names("end_to_end"),
            END_TO_END.iter().map(|d| d.name).collect::<Vec<_>>()
        );
        assert_eq!(
            names("per_layer"),
            PER_LAYER.iter().map(|d| d.name).collect::<Vec<_>>()
        );
        for (m, d) in doc
            .get("end_to_end")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .zip(END_TO_END)
        {
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(d.unit));
            assert_eq!(
                m.get("better").and_then(Json::as_str),
                Some(d.better.as_str())
            );
            assert_eq!(m.get("bound").and_then(Json::as_f64), Some(d.bound));
        }
        for (m, d) in doc
            .get("per_layer")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .zip(PER_LAYER)
        {
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(d.unit));
            assert_eq!(
                m.get("better").and_then(Json::as_str),
                Some(d.better.as_str())
            );
        }
    }

    #[test]
    fn result_line_is_one_line_with_the_contract_keys() {
        let mut o = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        for d in END_TO_END {
            o.set(d.name, 1.5);
        }
        let line = o.result_line(false);
        assert!(!line.contains('\n'));
        let doc = Json::parse(&line).unwrap();
        assert_eq!(doc.keys(), ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(doc.get("metrics").unwrap().keys().len(), END_TO_END.len());
        // Traced: every per-layer metric, 0 where nothing was measured.
        let traced = Json::parse(&o.result_line(true)).unwrap();
        assert_eq!(traced.get("metrics").unwrap().keys().len(), PER_LAYER.len());

        o.check(true, || unreachable!());
        assert!(o.gates_passed());
        o.check(false, || "mismatch".into());
        let failed = Json::parse(&o.result_line(false)).unwrap();
        assert_eq!(failed.get("correct").and_then(Json::as_bool), Some(false));
        assert_eq!(failed.get("failed").and_then(Json::as_f64), Some(10.0));
    }
}
