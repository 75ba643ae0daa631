//! Serving quantized models end to end: train a model, compile it to a
//! packed-domain plan (with the memoizing type-selection cache), start the
//! batched engine, and push thousands of requests through
//! `submit`/`poll`/`wait`, verifying every response against the
//! fake-quantized reference forward.
//!
//! Two workloads exercise both packed compute families:
//!
//! * a deep MLP on the blobs task — the dense serving regime where
//!   per-layer overhead dominates and batching pays,
//! * a CNN on the 12×12 shapes task — conv → pool → dense, every step in
//!   the packed domain (a plan is packed or it does not compile).
//!
//! Run with: `cargo run --release --example serve_quantized`

use ant::nn::data::{blobs, shapes, Dataset};
use ant::nn::model::{deep_mlp, small_cnn, Sequential};
use ant::nn::qat::QuantSpec;
use ant::nn::train::{evaluate, train, TrainConfig};
use ant::runtime::{BatchPolicy, CompiledPlan, Engine, Planner, RequestId};
use std::time::{Duration, Instant};

fn train_model(
    model: &mut Sequential,
    train_set: &Dataset,
    test_set: &Dataset,
    epochs: usize,
    label: &str,
) -> Result<(), Box<dyn std::error::Error>> {
    train(
        model,
        train_set,
        TrainConfig {
            epochs,
            batch_size: 32,
            lr: 0.05,
            momentum: 0.9,
            seed: 3,
        },
    )?;
    println!(
        "{label}: trained fp32 model, {:.1}% test accuracy",
        evaluate(model, test_set)? * 100.0
    );
    Ok(())
}

/// Serves `requests` deterministic rows twice — batched (concurrent
/// submissions coalesced) and unbatched (one in flight at a time) —
/// checking every response against the reference outputs, and returns the
/// batched-over-unbatched speedup.
fn serve_and_verify(
    plan: &CompiledPlan,
    inputs: &ant::tensor::Tensor,
    reference: &ant::tensor::Tensor,
    requests: usize,
) -> Result<f64, Box<dyn std::error::Error>> {
    let n_test = inputs.dims()[0];
    let f = inputs.dims()[1];
    let classes = reference.dims()[1];
    let mut throughputs = Vec::new();
    for (label, max_batch, closed_loop) in
        [("batched(32)", 32usize, false), ("unbatched  ", 1, true)]
    {
        let engine = Engine::new(
            plan.clone(),
            BatchPolicy {
                max_batch,
                max_wait: Duration::from_millis(1),
                // The open-loop pass submits every request before its
                // first wait; size the admission valve for that burst
                // (at the default 1024 the engine would shed with
                // `Overloaded`, which is backpressure, not a bug).
                max_queue: requests.max(64),
                ..BatchPolicy::default()
            },
        );
        // Warm up the worker (first batches pay one-time page-in costs).
        for i in 0..64 {
            let row = (i * 7) % n_test;
            let id = engine.submit(&inputs.as_slice()[row * f..(row + 1) * f])?;
            let _ = engine.wait(id)?;
        }
        let warmup = engine.stats();
        let check = |i: usize, got: &[f32]| -> usize {
            let row = (i * 7) % n_test;
            let expect = &reference.as_slice()[row * classes..(row + 1) * classes];
            got.iter()
                .zip(expect)
                .filter(|(a, b)| (*a - *b).abs() > 1e-4 * (1.0 + b.abs()))
                .count()
        };
        let t0 = Instant::now();
        let mut wrong = 0usize;
        if closed_loop {
            for i in 0..requests {
                let row = (i * 7) % n_test; // deterministic request mix
                let id = engine.submit(&inputs.as_slice()[row * f..(row + 1) * f])?;
                wrong += check(i, &engine.wait(id)?);
            }
        } else {
            let ids: Vec<RequestId> = (0..requests)
                .map(|i| {
                    let row = (i * 7) % n_test;
                    engine.submit(&inputs.as_slice()[row * f..(row + 1) * f])
                })
                .collect::<Result<_, _>>()?;
            for (i, id) in ids.iter().enumerate() {
                wrong += check(i, &engine.wait(*id)?);
            }
        }
        let elapsed = t0.elapsed();
        let stats = engine.stats();
        let rps = requests as f64 / elapsed.as_secs_f64();
        throughputs.push(rps);
        println!(
            "  {label}: {requests} requests in {:>7.1} ms ({rps:>9.0} req/s, \
             {} batches, largest {}, {} mismatches)",
            elapsed.as_secs_f64() * 1e3,
            stats.batches - warmup.batches,
            stats.largest_batch,
            wrong,
        );
        assert_eq!(stats.completed - warmup.completed, requests as u64);
        assert_eq!(wrong, 0, "packed outputs diverged from the QAT reference");
    }
    Ok(throughputs[0] / throughputs[1])
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---- Deep MLP on blobs: the dense serving path -----------------------
    let data = blobs(400, 16, 4, 0.4, 11);
    let (train_set, test_set) = data.split(0.25);
    let mut model = deep_mlp(16, 4, 8, 6, 5);
    train_model(&mut model, &train_set, &test_set, 8, "mlp")?;

    // Compile to a packed plan; the second compilation replays the cached
    // Algorithm-2 decisions instead of refitting. A layer the packed
    // domain cannot execute is a compile error, so a plan that compiles
    // is fully packed.
    let (calib, _) = train_set.batch(&(0..100).collect::<Vec<_>>());
    let mut planner = Planner::new();
    let t0 = Instant::now();
    let _cold_plan = planner.compile(&mut model, &calib, QuantSpec::default())?;
    let cold = t0.elapsed();
    let t0 = Instant::now();
    let plan = planner.compile(&mut model, &calib, QuantSpec::default())?;
    let warm = t0.elapsed();
    let (packed_bytes, f32_bytes) = plan.weight_bytes();
    println!(
        "mlp plan: {} packed layers, {packed_bytes} B packed weights ({f32_bytes} B as f32)",
        plan.packed_layer_count(),
    );
    println!(
        "mlp compile: {:.1} ms cold, {:.3} ms warm (cache hits/misses: {:?})",
        cold.as_secs_f64() * 1e3,
        warm.as_secs_f64() * 1e3,
        planner.cache().stats(),
    );
    let reference = model.forward(test_set.inputs())?;
    let speedup = serve_and_verify(&plan, test_set.inputs(), &reference, 3200)?;
    println!("mlp batched speedup over unbatched: {speedup:.1}x");

    // ---- CNN on shapes: conv → pool → dense in the packed domain ---------
    let data = shapes(320, 0.15, 21);
    let (train_set, test_set) = data.split(0.25);
    let mut cnn = small_cnn(data.num_classes(), 13);
    train_model(&mut cnn, &train_set, &test_set, 3, "cnn")?;
    let (calib, _) = train_set.batch(&(0..64).collect::<Vec<_>>());
    let cnn_plan = planner.compile(&mut cnn, &calib, QuantSpec::default())?;
    let (packed_bytes, f32_bytes) = cnn_plan.weight_bytes();
    println!(
        "cnn plan: {} packed layers (2 conv + head), {packed_bytes} B packed weights \
         ({f32_bytes} B as f32)",
        cnn_plan.packed_layer_count(),
    );
    let reference = cnn.forward(test_set.inputs())?;
    let speedup = serve_and_verify(&cnn_plan, test_set.inputs(), &reference, 768)?;
    println!("cnn batched speedup over unbatched: {speedup:.1}x");
    Ok(())
}
