//! Property suite for the engine's poison-request quarantine: for a
//! batch of `n` requests of which exactly `k` are poisoned (their
//! execution panics), the supervisor's bisection must isolate exactly
//! those `k` — each failing as [`RuntimeError::PoisonedRequest`] —
//! while every innocent request completes with results bit-identical
//! to a fault-free run, and the engine stays alive throughout.
//!
//! The poison is modelled through the public [`Engine::with_exec`]
//! seam (an executor that panics when any row leads with the
//! sentinel), the same seam `ant_runtime::chaos` uses, so the property
//! covers the exact code path the chaos harness exercises.

use ant_nn::model::mlp;
use ant_nn::qat::{quantize_model, QuantSpec};
use ant_runtime::{BatchExec, BatchPolicy, CompiledPlan, Engine, RuntimeError};
use ant_tensor::dist::{sample_tensor, Distribution};
use ant_tensor::Tensor;
use proptest::prelude::*;
use std::sync::mpsc::{channel, Receiver};
use std::time::Duration;

const FEATURES: usize = 8;

/// The sentinel a poisoned row leads with — far outside the Gaussian
/// input range, so no innocent row can collide.
const POISON: f32 = 1.0e6;

fn plan() -> CompiledPlan {
    let mut model = mlp(FEATURES, 4, 17);
    let calib = sample_tensor(
        Distribution::Gaussian {
            mean: 0.0,
            std: 1.0,
        },
        &[64, FEATURES],
        3,
    );
    quantize_model(&mut model, &calib, QuantSpec::default()).unwrap();
    CompiledPlan::from_quantized(&model).unwrap()
}

/// An executor that panics whenever any row of the batch is poisoned —
/// the whole batch dies, exactly like a poison request crashing a
/// shared forward pass. Its first batch parks until `gate` sends or
/// drops, so the requests submitted meanwhile pile up behind it and
/// dispatch as one batch.
fn poison_sensitive_exec(gate: Receiver<()>) -> BatchExec {
    let mut first = true;
    Box::new(move |plan, x, batch, out| {
        if std::mem::replace(&mut first, false) {
            let _ = gate.recv();
        }
        let per = x.len() / batch;
        for row in x.chunks(per) {
            assert!(row[0] != POISON, "poisoned row reached the plan");
        }
        plan.forward_rows(x, batch, out)
    })
}

/// SplitMix64, for choosing poisoned indices from the case seed.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `k` distinct indices in `0..n`, deterministic in `seed`.
fn poisoned_indices(n: usize, k: usize, seed: u64) -> Vec<usize> {
    let mut picked = Vec::new();
    let mut draw = 0u64;
    while picked.len() < k {
        let idx = (splitmix(seed.wrapping_add(draw)) % n as u64) as usize;
        draw += 1;
        if !picked.contains(&idx) {
            picked.push(idx);
        }
    }
    picked
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Bisection quarantine isolates exactly the k poisoned requests of
    /// n; innocents are bit-identical to a fault-free forward.
    #[test]
    fn quarantine_isolates_exactly_the_poisoned_requests(
        n in 4usize..9, k in 1usize..4, seed in 0u64..500,
    ) {
        let p = plan();
        let mut reference = p.clone();
        let (gate, held) = channel();
        let engine = Engine::with_exec(
            p,
            BatchPolicy {
                // Unreachable max_batch: the n submits below pile up
                // behind the held first batch and land in ONE batch,
                // however short the gather window.
                max_batch: 64,
                max_wait: Duration::from_millis(1),
                max_queue: 64,
                // Room for k panics in a row even if every probe of a
                // bisection level is all-poison.
                max_restarts: 16,
                restart_backoff: Duration::ZERO,
            },
            poison_sensitive_exec(held),
        );
        let inputs = sample_tensor(
            Distribution::Gaussian { mean: 0.0, std: 1.0 },
            &[n, FEATURES],
            seed,
        );
        let poisoned = poisoned_indices(n, k, seed.wrapping_mul(31).wrapping_add(7));
        let first = engine.submit(&inputs.as_slice()[..FEATURES]).unwrap();
        while engine.queue_depth() > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let mut ids = Vec::with_capacity(n);
        for i in 0..n {
            let mut row = inputs.as_slice()[i * FEATURES..(i + 1) * FEATURES].to_vec();
            if poisoned.contains(&i) {
                row[0] = POISON;
            }
            ids.push(engine.submit(&row).unwrap());
        }
        drop(gate);
        prop_assert!(engine.wait(first).is_ok());
        for (i, id) in ids.into_iter().enumerate() {
            if poisoned.contains(&i) {
                // Exactly the poisoned requests fail, and as
                // PoisonedRequest — never a blanket engine error.
                let err = engine.wait(id).unwrap_err();
                prop_assert!(
                    matches!(err, RuntimeError::PoisonedRequest { .. }),
                    "request {i} should be poisoned, got: {err}"
                );
            } else {
                let got = engine.wait(id);
                prop_assert!(got.is_ok(), "innocent request {} failed: {:?}", i, got);
                let got = got.unwrap();
                let row = Tensor::from_vec(
                    inputs.as_slice()[i * FEATURES..(i + 1) * FEATURES].to_vec(),
                    &[1, FEATURES],
                )
                .unwrap();
                let want = reference.forward(&row).unwrap();
                prop_assert_eq!(
                    got.as_slice(),
                    want.as_slice(),
                    "innocent request {} diverged from the fault-free run",
                    i
                );
            }
        }
        // The engine survived the storm and keeps serving.
        prop_assert!(!engine.is_dead());
        let id = engine
            .submit(&inputs.as_slice()[..FEATURES])
            .unwrap();
        prop_assert!(engine.wait(id).is_ok());
        let stats = engine.stats();
        prop_assert_eq!(stats.largest_batch, n, "stats: {:?}", stats);
        prop_assert_eq!(stats.poisoned, k as u64, "stats: {:?}", stats);
        prop_assert!(stats.restarts >= 1, "stats: {:?}", stats);
    }
}
