//! Criterion benches for the packed-domain runtime: f32 forward vs
//! fake-quantized forward vs packed integer forward, and batched vs
//! unbatched serving through the engine — the perf trajectory of the
//! serving path (all rates are per *request*, so higher elem/s directly
//! means higher request throughput). Conv (im2row-lowered) and attention
//! (integer Q/K/V) plans get their own groups so the paper's
//! CNN/Transformer workloads are tracked, not just MLPs.

use ant_nn::model::{deep_mlp, small_cnn, transformer_block, Sequential};
use ant_nn::qat::{quantize_model, QuantSpec};
use ant_runtime::gemm::{int_gemm, PanelGemm};
use ant_runtime::{BatchPolicy, CompiledPlan, Engine, WorkerPool};
use ant_tensor::dist::{sample_tensor, Distribution};
use ant_tensor::Tensor;
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use std::time::Duration;

const INPUT: usize = 16;
const BATCH: usize = 32;

fn gaussian(dims: &[usize], seed: u64) -> Tensor {
    sample_tensor(
        Distribution::Gaussian {
            mean: 0.0,
            std: 1.0,
        },
        dims,
        seed,
    )
}

fn bench_runtime(c: &mut Criterion) {
    // The serving-shaped reference model: deep and narrow, where per-call
    // overhead matters and batching pays.
    let mut fp32_model = deep_mlp(INPUT, 4, 8, 6, 5);
    let mut qat_model = deep_mlp(INPUT, 4, 8, 6, 5);
    let calib = gaussian(&[64, INPUT], 3);
    quantize_model(&mut qat_model, &calib, QuantSpec::default()).expect("quantize");
    let mut plan = CompiledPlan::from_quantized(&qat_model).expect("compile");
    let x32 = gaussian(&[BATCH, INPUT], 9);
    let x1 = Tensor::from_vec(x32.as_slice()[..INPUT].to_vec(), &[1, INPUT]).expect("row");

    let mut group = c.benchmark_group("runtime");

    // Model-level forwards, normalized per request.
    group.throughput(Throughput::Elements(BATCH as u64));
    group.bench_function("f32_forward/batch32", |b| {
        b.iter(|| fp32_model.forward(black_box(&x32)).expect("forward"))
    });
    group.bench_function("qat_forward/batch32", |b| {
        b.iter(|| qat_model.forward(black_box(&x32)).expect("forward"))
    });
    group.bench_function("packed_forward/batch32", |b| {
        b.iter(|| plan.forward(black_box(&x32)).expect("forward"))
    });
    group.throughput(Throughput::Elements(1));
    group.bench_function("packed_forward/batch1", |b| {
        b.iter(|| plan.forward(black_box(&x1)).expect("forward"))
    });

    // Engine-level serving: 32 concurrent requests coalesced into one
    // batch, vs unbatched serving (one request in flight at a time). The
    // packed-path batching win is the ratio of these two rates.
    group.throughput(Throughput::Elements(BATCH as u64));
    let rows: Vec<&[f32]> = (0..BATCH)
        .map(|i| &x32.as_slice()[i * INPUT..(i + 1) * INPUT])
        .collect();
    let policy = |max_batch| BatchPolicy {
        max_batch,
        max_wait: Duration::from_millis(1),
        ..BatchPolicy::default()
    };
    let batched = Engine::new(plan.clone(), policy(BATCH));
    for row in &rows {
        let id = batched.submit(row).expect("submit");
        let _ = batched.wait(id).expect("warmup");
    }
    group.bench_function("engine_batched/32_concurrent", |b| {
        b.iter(|| {
            let ids: Vec<_> = rows
                .iter()
                .map(|row| batched.submit(row).expect("submit"))
                .collect();
            for id in ids {
                black_box(batched.wait(id).expect("result"));
            }
        })
    });
    let unbatched = Engine::new(plan.clone(), policy(1));
    for row in &rows {
        let id = unbatched.submit(row).expect("submit");
        let _ = unbatched.wait(id).expect("warmup");
    }
    group.bench_function("engine_unbatched/one_in_flight", |b| {
        b.iter(|| {
            for row in &rows {
                let id = unbatched.submit(row).expect("submit");
                black_box(unbatched.wait(id).expect("result"));
            }
        })
    });
    group.finish();
}

/// One packed-vs-fake-quant forward pair for a model family, normalized
/// per request.
fn bench_packed_family(
    c: &mut Criterion,
    group_name: &str,
    mut qat_model: Sequential,
    features: usize,
) {
    let calib = gaussian(&[64, features], 3);
    quantize_model(&mut qat_model, &calib, QuantSpec::default()).expect("quantize");
    let mut plan = CompiledPlan::from_quantized(&qat_model).expect("compile");
    let x = gaussian(&[BATCH, features], 9);
    let mut group = c.benchmark_group(group_name);
    group.throughput(Throughput::Elements(BATCH as u64));
    group.bench_function("qat_forward/batch32", |b| {
        b.iter(|| qat_model.forward(black_box(&x)).expect("forward"))
    });
    group.bench_function("packed_forward/batch32", |b| {
        b.iter(|| plan.forward(black_box(&x)).expect("forward"))
    });
    // Engine serving: 32 concurrent requests coalesced into one batch.
    let rows: Vec<&[f32]> = (0..BATCH)
        .map(|i| &x.as_slice()[i * features..(i + 1) * features])
        .collect();
    let engine = Engine::new(
        plan.clone(),
        BatchPolicy {
            max_batch: BATCH,
            max_wait: Duration::from_millis(1),
            ..BatchPolicy::default()
        },
    );
    for row in &rows {
        let id = engine.submit(row).expect("submit");
        let _ = engine.wait(id).expect("warmup");
    }
    group.bench_function("engine_batched/32_concurrent", |b| {
        b.iter(|| {
            let ids: Vec<_> = rows
                .iter()
                .map(|row| engine.submit(row).expect("submit"))
                .collect();
            for id in ids {
                black_box(engine.wait(id).expect("result"));
            }
        })
    });
    group.finish();
}

/// Raw dense-GEMM kernels at a serving-typical shape: the scalar `i32`
/// reference vs the panel-packed narrow microkernel (bit-identical
/// results; the rate gap is the whole point of the narrow hot path), plus
/// the microkernel at the batch-1 wide-layer shape that historically
/// never parallelized.
fn bench_runtime_gemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("runtime_gemm");
    let (m, k, n) = (64usize, 256usize, 256usize);
    let a32: Vec<i32> = (0..m * k).map(|i| (i % 127) as i32 - 63).collect();
    let b32: Vec<i32> = (0..n * k).map(|i| (i % 129) as i32 - 64).collect();
    let a8: Vec<i8> = a32.iter().map(|&v| v as i8).collect();
    let b8: Vec<i8> = b32.iter().map(|&v| v as i8).collect();
    let a16: Vec<i16> = a32.iter().map(|&v| v as i16).collect();
    let b16: Vec<i16> = b32.iter().map(|&v| v as i16).collect();
    let packed8 = PanelGemm::pack(&b8, n, k, 127);
    let packed16 = PanelGemm::pack(&b16, n, k, 127);
    let pool = WorkerPool::global();
    let mut out = vec![0i64; m * n];
    group.throughput(Throughput::Elements((m * k * n) as u64));
    group.bench_function("dense/i32_reference", |bch| {
        bch.iter(|| int_gemm(black_box(&a32), &b32, m, k, n, &mut out))
    });
    group.bench_function("dense/i16_microkernel", |bch| {
        bch.iter(|| packed16.matmul(black_box(&a16), m, &mut out, pool, 1))
    });
    group.bench_function("dense/i8_microkernel", |bch| {
        bch.iter(|| packed8.matmul(black_box(&a8), m, &mut out, pool, 1))
    });
    // The m=1 tall-weight serving shape: the old row-only partitioning
    // pinned this to one thread regardless of budget.
    let (m1, k1, n1) = (1usize, 512usize, 2048usize);
    let a1_8: Vec<i8> = (0..m1 * k1)
        .map(|i| ((i % 127) as i32 - 63) as i8)
        .collect();
    let w1_8: Vec<i8> = (0..n1 * k1)
        .map(|i| ((i % 129) as i32 - 64) as i8)
        .collect();
    let mut out1 = vec![0i64; m1 * n1];
    group.throughput(Throughput::Elements((m1 * k1 * n1) as u64));
    let packed1 = PanelGemm::pack(&w1_8, n1, k1, 127);
    group.bench_function("batch1_wide/i8_microkernel", |bch| {
        bch.iter(|| packed1.matmul(black_box(&a1_8), m1, &mut out1, pool, 8))
    });
    group.finish();
}

/// The CNN serving path: conv → pool → dense through the integer im2row
/// GEMM pipeline.
fn bench_runtime_conv(c: &mut Criterion) {
    bench_packed_family(c, "runtime_conv", small_cnn(4, 7), 144);
}

/// The Transformer serving path: integer Q/K/V projections with the f32
/// softmax decode boundary.
fn bench_runtime_attn(c: &mut Criterion) {
    bench_packed_family(c, "runtime_attn", transformer_block(6, 16, 4, 9), 96);
}

criterion_group!(
    benches,
    bench_runtime,
    bench_runtime_gemm,
    bench_runtime_conv,
    bench_runtime_attn
);
criterion_main!(benches);
