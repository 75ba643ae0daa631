//! Per-layer measurements of a traced run: each layer is timed from
//! outside, by calling the module's public functions at the shape the
//! workload drives it at.

use crate::inputs::{stream_seed, ModelSpec, SplitMix64, Stream};
use crate::report::Outcome;
use crate::setup::Built;
use crate::stats::median;
use crate::BenchError;
use ant_bench::http::{read_request, write_request, Response};
use ant_bench::json::Json;
use ant_nn::model::{NetLayer, Sequential};
use ant_nn::qat::QuantSpec;
use ant_runtime::gemm::{im2row, PanelGemm};
use ant_runtime::{
    BatchPolicy, CompiledPlan, Engine, MappedArtifact, ModelArtifact, Planner, WorkerPool,
};
use ant_tensor::linalg::Conv2dGeometry;
use ant_tensor::Tensor;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Calls `f` for about `budget` (at least 5 times) and returns the
/// median call in microseconds.
fn median_call_us(budget: Duration, mut f: impl FnMut()) -> f64 {
    f(); // first call pays one-time growth
    let started = Instant::now();
    let mut us = Vec::new();
    while us.len() < 5 || started.elapsed() < budget {
        let t = Instant::now();
        f();
        us.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    median(&us)
}

const SHORT: Duration = Duration::from_millis(40);

/// `select`, `cache` and `artifact`: the layers behind `setup_s`.
pub fn setup_layers(
    spec: &ModelSpec,
    built: &Built,
    seed: u64,
    out: &mut Outcome,
) -> Result<(), BenchError> {
    let s = &built.stages;
    out.set("select.quantize_s", s.quantize_s);
    out.set("select.tensors", s.tensors as f64);
    out.set("select.flint_share", s.flint_share);
    out.set("artifact.save_ms", s.save_s * 1e3);
    out.set("artifact.bytes", s.artifact_bytes as f64);
    out.set("artifact.zero_copy", f64::from(u8::from(s.zero_copy)));
    out.set(
        "plan.weight_bytes_packed",
        built.plan.weight_bytes().0 as f64,
    );

    let mut failure = None;
    out.set(
        "artifact.open_us",
        median_call_us(SHORT, || {
            if let Err(e) = MappedArtifact::open(&built.path) {
                failure = Some(e);
            }
        }),
    );
    out.set(
        "artifact.compile_strict_us",
        median_call_us(SHORT, || {
            if let Err(e) = built.mapped.compile_strict() {
                failure = Some(e);
            }
        }),
    );
    out.set(
        "artifact.verify_ms",
        median_call_us(SHORT, || {
            if let Err(e) = ModelArtifact::verify_path(&built.path) {
                failure = Some(e);
            }
        }) / 1e3,
    );
    if let Some(e) = failure {
        return Err(e.into());
    }

    // Planner: a cold compile runs Algorithm 2, a warm one replays the
    // memoized decisions for the same (model, calibration, spec).
    let mut planner = Planner::new().strict();
    let mut compile_ms = || -> Result<f64, BenchError> {
        let mut model = spec.build(seed);
        let t = Instant::now();
        black_box(planner.compile(&mut model, &built.calib, QuantSpec::default())?);
        Ok(t.elapsed().as_secs_f64() * 1e3)
    };
    out.set("cache.compile_cold_ms", compile_ms()?);
    out.set("cache.compile_warm_ms", compile_ms()?);
    let (hits, misses) = planner.cache().stats();
    out.set(
        "cache.hit_share",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    Ok(())
}

/// The integer GEMM a workload spends most of its MACs in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GemmShape {
    pub k: usize,
    pub n: usize,
    /// GEMM rows one input row contributes (1 for dense, output pixels
    /// for conv, tokens for attention).
    pub m_per_row: usize,
    /// Integer MACs one input row costs across the whole model.
    pub macs_per_row: u64,
    /// `(channels, height, width, geometry)` of the dominant conv.
    pub conv: Option<(usize, usize, usize, Conv2dGeometry)>,
}

/// Walks the model for its MAC count and dominant GEMM.
pub fn gemm_shape(model: &Sequential) -> GemmShape {
    let mut best = (0u64, 0usize, 0usize, 0usize, None);
    let mut total = 0u64;
    for layer in model.layers() {
        let (macs, k, n, m, conv) = match layer {
            NetLayer::Dense(d) => {
                let (k, n) = (d.in_features(), d.out_features());
                ((k * n) as u64, k, n, 1, None)
            }
            NetLayer::Conv(c) => {
                let (ci, h, w) = c.in_shape();
                let (co, oh, ow) = c.out_shape();
                let geo = c.geometry();
                let k = ci * geo.kh * geo.kw;
                (
                    (oh * ow * co * k) as u64,
                    k,
                    co,
                    oh * ow,
                    Some((ci, h, w, geo)),
                )
            }
            NetLayer::Attn(a) => {
                let (seq, dim) = (a.seq(), a.dim());
                // Four projections plus QKᵀ and AV.
                let macs = 4 * seq * dim * dim + 2 * seq * seq * dim;
                (macs as u64, dim, dim, seq, None)
            }
            _ => continue,
        };
        total += macs;
        if macs > best.0 {
            best = (macs, k, n, m, conv);
        }
    }
    GemmShape {
        k: best.1,
        n: best.2,
        m_per_row: best.3,
        macs_per_row: total,
        conv: best.4,
    }
}

/// `gemm`: `PanelGemm::matmul` on `i8` operands (what every ≤8-bit
/// type decodes to) on one thread at the dominant `(k, n)`, for the
/// batched and the single-row `m`; plus `im2row` for conv models.
pub fn gemm_layer(shape: GemmShape, m_batch: usize, m1: usize, seed: u64, out: &mut Outcome) {
    out.set("gemm.macs_per_row", shape.macs_per_row as f64);
    if shape.k == 0 {
        return;
    }
    let mut rng = SplitMix64::new(stream_seed(seed, Stream::Kernels));
    let mut draw = |len: usize, lo: i64, span: u64| -> Vec<i8> {
        (0..len)
            .map(|_| (lo + (rng.next_u64() % span) as i64) as i8)
            .collect()
    };
    // Weights over the 4-bit flint lattice range, unsigned 4-bit
    // activations: the operand magnitudes the default QuantSpec yields.
    let b = draw(shape.n * shape.k, -64, 129);
    let packed = PanelGemm::pack(&b, shape.n, shape.k, 15);
    let pool = WorkerPool::global();
    let mut gmacs = |m: usize| {
        let a = draw(m * shape.k, 0, 16);
        let mut acc = vec![0i64; m * shape.n];
        let us = median_call_us(SHORT * 3, || {
            packed.matmul(black_box(&a), m, &mut acc, pool, 1);
            black_box(&mut acc);
        });
        (m * shape.k * shape.n) as f64 / us / 1e3
    };
    out.set("gemm.m_batch_gmacs", gmacs(m_batch));
    out.set("gemm.m1_gmacs", gmacs(m1));
    if let Some((c, h, w, geo)) = shape.conv {
        let sample = draw(c * h * w, 0, 16);
        let mut lowered = vec![0i8; shape.m_per_row * shape.k];
        out.set(
            "gemm.im2row_us",
            median_call_us(SHORT, || {
                im2row(black_box(&sample), c, h, w, geo, &mut lowered);
                black_box(&mut lowered);
            }),
        );
    }
}

/// `pool`: the cost of handing `nproc` empty tasks to the pool and
/// getting them back.
pub fn pool_layer(out: &mut Outcome) {
    let pool = WorkerPool::global();
    let tasks = pool.width();
    out.set(
        "pool.dispatch_us",
        median_call_us(SHORT * 2, || {
            pool.run(tasks, &|t| {
                black_box(t);
            })
        }),
    );
}

/// Threads a default plan runs on: the global pool's width.
pub fn pool_width() -> usize {
    WorkerPool::global().width()
}

/// Pool task and park counters, to be differenced around a phase.
pub fn pool_counts() -> (f64, f64) {
    let pool = WorkerPool::global();
    (
        pool.executed_tasks() as f64,
        pool.slot_park_counts().iter().sum::<u64>() as f64,
    )
}

/// `plan.*_us` by layer kind: each layer of the quantized model is
/// compiled as a single-layer plan and `forward_rows` is timed on it at
/// the workload's batch and thread count, fed the activations the
/// layers before it produce. The layers are called in model order, round after round, so
/// each finds the caches as its predecessors leave them.
/// `plan.layer_sum_share` is the sum over the whole-plan call.
pub fn single_layers(
    reference: &mut Sequential,
    rows: &Tensor,
    threads: usize,
    whole_us: f64,
    out: &mut Outcome,
) -> Result<(), BenchError> {
    let batch = rows.dims()[0];
    let mut cur = rows.clone();
    let mut singles = Vec::new();
    for layer in reference.layers_mut() {
        let key = match layer {
            NetLayer::Dense(_) => "plan.linear_us",
            NetLayer::Conv(_) => "plan.conv_us",
            NetLayer::Attn(_) => "plan.attn_us",
            NetLayer::Gelu(_) => "plan.gelu_us",
            NetLayer::Norm(_) => "plan.norm_us",
            NetLayer::Relu(_) => "plan.relu_us",
            NetLayer::Pool(_) => "plan.pool_us",
        };
        let plan = CompiledPlan::from_quantized_strict(&Sequential::new().push(layer.clone()))?
            .with_threads(threads);
        let next = layer.forward(&cur)?;
        singles.push((key, plan, cur, Vec::new()));
        cur = next;
    }
    let mut result = Vec::new();
    let started = Instant::now();
    let mut rounds = 0;
    while rounds < 6 || started.elapsed() < SHORT * 8 {
        for (_, plan, input, us) in &mut singles {
            let t = Instant::now();
            plan.forward_rows(input.as_slice(), batch, &mut result)?;
            us.push(t.elapsed().as_nanos() as f64 / 1e3);
        }
        rounds += 1;
    }
    let mut sum = 0.0;
    for (key, _, _, us) in &singles {
        // The first round pays each plan's one-time scratch growth.
        let us = median(&us[1..]);
        out.set(key, out.get(key) + us);
        sum += us;
    }
    out.set("plan.layer_sum_share", sum / whole_us);
    Ok(())
}

/// `engine`: one request at a time through an otherwise idle `Engine`
/// under the default policy. `engine.window_share` is the part of that
/// round trip that is not the model: (lone − direct) / lone.
pub fn engine_lone(
    plan: CompiledPlan,
    row: &[f32],
    direct_b1_us: f64,
    out: &mut Outcome,
) -> Result<(), BenchError> {
    let engine = Engine::new(plan, BatchPolicy::default());
    let (mut submit_us, mut rt_us) = (Vec::new(), Vec::new());
    for i in 0..220 {
        let t0 = Instant::now();
        let id = engine.submit(row)?;
        let t1 = Instant::now();
        black_box(engine.wait(id)?);
        if i >= 20 {
            submit_us.push((t1 - t0).as_nanos() as f64 / 1e3);
            rt_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
        }
    }
    let lone = median(&rt_us);
    out.set("engine.submit_us", median(&submit_us));
    out.set("engine.lone_rt_us", lone);
    out.set("engine.window_share", (lone - direct_b1_us) / lone);
    Ok(())
}

/// `http` and `json`: parse and render over in-memory buffers, with a
/// 16-float and a 2048-float body.
pub fn http_json_layers(out: &mut Outcome) {
    for (floats, suffix) in [(16usize, ""), (2048, "_2048")] {
        let values: Vec<Json> = (0..floats)
            .map(|i| Json::Num(f64::from(i as f32 * 0.37 - 3.0)))
            .collect();
        let body = Json::Obj(vec![("input".into(), Json::Arr(values.clone()))]).render();
        let mut request = Vec::new();
        write_request(
            &mut request,
            "POST",
            "/v1/models/tiny/infer",
            Some(("application/json", body.as_bytes())),
        )
        .expect("writing to a Vec cannot fail");
        let reply = Json::Obj(vec![
            ("output".into(), Json::Arr(values)),
            ("generation".into(), Json::Num(1.0)),
        ]);
        let response = Response::new(200).json(reply.render());
        let mut wire = Vec::with_capacity(request.len() * 2);
        let mut set = |name: &str, us: f64| out.set(&format!("{name}{suffix}_us"), us);
        set(
            "http.read_request",
            median_call_us(SHORT, || {
                black_box(read_request(&mut black_box(&request[..])).expect("well-formed request"));
            }),
        );
        set(
            "http.write_response",
            median_call_us(SHORT, || {
                wire.clear();
                response.write_to(&mut wire, false).expect("Vec write");
                black_box(&wire);
            }),
        );
        set(
            "json.parse",
            median_call_us(SHORT, || {
                black_box(Json::parse(black_box(&body)).expect("well-formed body"));
            }),
        );
        set(
            "json.render",
            median_call_us(SHORT, || {
                black_box(reply.render());
            }),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{CONV, DENSE, XFMR};

    #[test]
    fn dominant_gemm_and_mac_counts() {
        let dense = gemm_shape(&DENSE.build(1));
        assert_eq!((dense.k, dense.n, dense.m_per_row), (512, 512, 1));
        assert_eq!(dense.macs_per_row, 256 * 512 + 5 * 512 * 512 + 512 * 32);
        assert!(dense.conv.is_none());

        let conv = gemm_shape(&CONV.build(1));
        assert_eq!((conv.k, conv.n, conv.m_per_row), (144, 24, 576));
        assert_eq!(
            conv.macs_per_row,
            576 * 24 * 144 + 144 * 48 * 216 + 48 * 36 * 64
        );
        assert!(conv.conv.is_some());

        let xfmr = gemm_shape(&XFMR.build(1));
        assert_eq!((xfmr.k, xfmr.n, xfmr.m_per_row), (128, 128, 16));
    }
}
