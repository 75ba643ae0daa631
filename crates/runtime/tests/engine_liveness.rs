//! Liveness and backpressure contracts of the public `Engine` API.
//!
//! These pin the two serving-critical behaviors from the outside, with
//! no test hooks: a full submit queue sheds load with
//! [`RuntimeError::Overloaded`] (and recovers once drained), and
//! deadline-bounded waits expire instead of trusting worker liveness.
//!
//! Determinism on one core: the worker's gather loop holds the first
//! batch open for `max_wait` *without draining the queue* (the drain
//! happens when the batch closes), so with a large `max_batch` and a
//! generous `max_wait`, quick submits pile into the bounded queue and
//! the `max_queue + 1`-th is rejected — no sleeps, no racing.

use ant_nn::model::{decoder_block, mlp};
use ant_nn::qat::{quantize_model, QuantSpec};
use ant_runtime::{BatchPolicy, CompiledPlan, Engine, RuntimeError};
use ant_tensor::dist::{sample_tensor, Distribution};
use std::time::{Duration, Instant};

fn plan() -> CompiledPlan {
    let mut model = mlp(8, 4, 17);
    let calib = sample_tensor(
        Distribution::Gaussian {
            mean: 0.0,
            std: 1.0,
        },
        &[64, 8],
        3,
    );
    quantize_model(&mut model, &calib, QuantSpec::default()).unwrap();
    CompiledPlan::from_quantized(&model).unwrap()
}

const SEQ: usize = 8;
const DIM: usize = 16;

fn decoder_plan() -> CompiledPlan {
    let mut model = decoder_block(SEQ, DIM, 1, 19);
    let calib = sample_tensor(
        Distribution::Gaussian {
            mean: 0.0,
            std: 1.0,
        },
        &[24, SEQ * DIM],
        5,
    );
    quantize_model(&mut model, &calib, QuantSpec::default()).unwrap();
    CompiledPlan::from_quantized_strict(&model)
        .unwrap()
        .with_threads(1)
}

fn token(seed: u64) -> Vec<f32> {
    sample_tensor(
        Distribution::Gaussian {
            mean: 0.0,
            std: 1.0,
        },
        &[1, DIM],
        seed,
    )
    .as_slice()
    .to_vec()
}

#[test]
fn bounded_queue_sheds_load_and_recovers() {
    // max_batch is unreachable, so the worker holds its gather window
    // open for the full max_wait while our submits land in the queue.
    let engine = Engine::new(
        plan(),
        BatchPolicy {
            max_batch: 64,
            max_wait: Duration::from_millis(500),
            max_queue: 4,
            ..BatchPolicy::default()
        },
    );
    let row = [0.5_f32; 8];
    let ids: Vec<_> = (0..4).map(|_| engine.submit(&row).unwrap()).collect();
    let err = engine.submit(&row).unwrap_err();
    match err {
        RuntimeError::Overloaded { queued, max_queue } => {
            assert_eq!(queued, 4);
            assert_eq!(max_queue, 4);
        }
        other => panic!("expected Overloaded, got: {other}"),
    }
    // Everything admitted completes; nothing admitted was lost.
    for id in ids {
        assert_eq!(engine.wait(id).unwrap().len(), 4);
    }
    // The queue drained with the batch: admission is open again.
    assert_eq!(engine.queue_depth(), 0);
    let id = engine.submit(&row).unwrap();
    assert_eq!(engine.wait(id).unwrap().len(), 4);
    let stats = engine.stats();
    assert_eq!(stats.submitted, 5, "the shed request must not be counted");
    assert_eq!(stats.completed, 5);
}

#[test]
fn wait_timeout_expires_while_batch_is_held_open() {
    let engine = Engine::new(
        plan(),
        BatchPolicy {
            max_batch: 64,
            max_wait: Duration::from_millis(500),
            max_queue: 64,
            ..BatchPolicy::default()
        },
    );
    let id = engine.submit(&[0.5; 8]).unwrap();
    // The batch is held open for ~500ms; a 20ms deadline expires first.
    let start = Instant::now();
    let got = engine.wait_timeout(id, Duration::from_millis(20)).unwrap();
    assert!(got.is_none(), "deadline cannot have been met");
    assert!(
        start.elapsed() < Duration::from_millis(450),
        "expiry returned only after the batch closed"
    );
    // The request was not lost: an unbounded wait still delivers it.
    assert_eq!(engine.wait(id).unwrap().len(), 4);
}

#[test]
fn cancel_after_timeout_drops_the_result() {
    let engine = Engine::new(
        plan(),
        BatchPolicy {
            max_batch: 64,
            max_wait: Duration::from_millis(200),
            max_queue: 64,
            ..BatchPolicy::default()
        },
    );
    let id = engine.submit(&[0.5; 8]).unwrap();
    assert!(engine
        .wait_timeout(id, Duration::from_millis(10))
        .unwrap()
        .is_none());
    // Deadline handling à la antd: give up and cancel so the eventual
    // result is dropped instead of parking in the engine forever. The
    // request was still queued, so cancel removes it outright.
    assert!(engine.cancel(id));
    assert_eq!(engine.queue_depth(), 0);
    // The worker survives its now-empty batch window: a fresh request
    // still completes, and the cancelled id is gone, not parked.
    let fresh = engine.submit(&[0.25; 8]).unwrap();
    assert_eq!(engine.wait(fresh).unwrap().len(), 4);
    assert!(matches!(engine.wait(id), Err(RuntimeError::Engine(_))));
}

#[test]
fn decode_steps_from_many_sessions_coalesce_into_one_batch() {
    // Gather-window determinism trick: max_batch is unreachable, so the
    // first decode step holds the window open for the full max_wait
    // while the other sessions' steps pile in behind it — the batch
    // that finally closes must contain every one of them.
    let engine = Engine::new(
        decoder_plan(),
        BatchPolicy {
            max_batch: 64,
            max_wait: Duration::from_millis(500),
            max_queue: 64,
            ..BatchPolicy::default()
        },
    );
    let sids: Vec<_> = (0..6).map(|_| engine.open_session(SEQ).unwrap()).collect();
    assert_eq!(engine.session_count(), 6);
    assert!(engine.kv_bytes() > 0);
    let ids: Vec<_> = sids
        .iter()
        .enumerate()
        .map(|(i, sid)| engine.submit_decode(*sid, &token(i as u64)).unwrap())
        .collect();
    for id in &ids {
        assert_eq!(engine.wait(*id).unwrap().len(), DIM);
    }
    let stats = engine.stats();
    assert_eq!(stats.decode_batches, 1, "{stats:?}");
    assert_eq!(stats.largest_decode_batch, 6, "{stats:?}");
    assert_eq!(stats.decode_tokens, 6);
    for sid in sids {
        assert!(engine.close_session(sid));
    }
    assert_eq!(engine.kv_bytes(), 0);
}

#[test]
fn prefill_does_not_starve_queued_decode_steps_past_max_wait() {
    // A prefill at the queue head closes its gather window immediately
    // (it always runs alone), so decode steps queued behind a prefill
    // are dispatched right after it rather than waiting out a second
    // max_wait-long gather window.
    let max_wait = Duration::from_millis(400);
    let engine = Engine::new(
        decoder_plan(),
        BatchPolicy {
            max_batch: 64,
            max_wait,
            max_queue: 64,
            ..BatchPolicy::default()
        },
    );
    let a = engine.open_session(SEQ).unwrap();
    let b = engine.open_session(SEQ).unwrap();
    // Warm the plan (scratch growth, first-touch) outside the timed
    // region, and give both sessions a token of history.
    let w = engine.submit_prefill(a, &token(1)).unwrap();
    engine.wait(w).unwrap();
    let start = Instant::now();
    // One long-ish prompt, then a decode step right behind it.
    let prompt: Vec<f32> = (0..SEQ - 1).flat_map(|t| token(10 + t as u64)).collect();
    let p = engine.submit_prefill(b, &prompt).unwrap();
    let d = engine.submit_decode(a, &token(2)).unwrap();
    assert_eq!(engine.wait(p).unwrap().len(), DIM);
    assert_eq!(engine.wait(d).unwrap().len(), DIM);
    let elapsed = start.elapsed();
    // The decode step rides out at most ONE gather window (its own),
    // never the prefill's: well under 2×max_wait total.
    assert!(
        elapsed < 2 * max_wait,
        "decode step starved behind prefill: {elapsed:?}"
    );
    let stats = engine.stats();
    assert_eq!(stats.prefills, 2);
    assert_eq!(stats.decode_tokens, 1);
}

#[test]
fn decode_step_with_a_prefill_behind_it_does_not_wait_for_company() {
    // The mirror of the test above: a decode step at the queue head with
    // a prefill queued *behind* it is a closed run — FIFO order means no
    // later step could ever join it — so it dispatches at once instead
    // of holding the window (and the prefill) for max_wait.
    let max_wait = Duration::from_millis(400);
    let engine = Engine::new(
        decoder_plan(),
        BatchPolicy {
            max_batch: 64,
            max_wait,
            max_queue: 64,
            ..BatchPolicy::default()
        },
    );
    let a = engine.open_session(SEQ).unwrap();
    let b = engine.open_session(SEQ).unwrap();
    // Warm the plan outside the timed region and give `a` a token of
    // history to decode against.
    let w = engine.submit_prefill(a, &token(1)).unwrap();
    engine.wait(w).unwrap();
    let prompt: Vec<f32> = (0..SEQ - 1).flat_map(|t| token(10 + t as u64)).collect();
    let start = Instant::now();
    let d = engine.submit_decode(a, &token(2)).unwrap();
    let p = engine.submit_prefill(b, &prompt).unwrap();
    assert_eq!(engine.wait(d).unwrap().len(), DIM);
    let decode_done = start.elapsed();
    assert_eq!(engine.wait(p).unwrap().len(), DIM);
    let prefill_done = start.elapsed();
    assert!(
        decode_done < max_wait / 2,
        "decode step waited out the window for company FIFO order forbids: {decode_done:?}"
    );
    assert!(
        prefill_done < max_wait / 2,
        "prefill was delayed by the run ahead of it: {prefill_done:?}"
    );
    let stats = engine.stats();
    assert_eq!(stats.decode_batches, 1, "{stats:?}");
    assert_eq!(stats.prefills, 2, "{stats:?}");
}

#[test]
fn session_close_frees_kv_even_with_requests_in_flight() {
    // Public-API variant of the eager-release regression: a caller that
    // times out, cancels, and closes its session must leave no KV bytes
    // pinned once the engine quiesces — with no further caller action.
    let engine = Engine::new(
        decoder_plan(),
        BatchPolicy {
            max_batch: 64,
            max_wait: Duration::from_millis(300),
            max_queue: 64,
            ..BatchPolicy::default()
        },
    );
    let sid = engine.open_session(SEQ).unwrap();
    assert!(engine.kv_bytes() > 0);
    let id = engine.submit_decode(sid, &token(3)).unwrap();
    // Expire a deadline shorter than the gather window, then abandon.
    assert!(engine
        .wait_timeout(id, Duration::from_millis(10))
        .unwrap()
        .is_none());
    assert!(engine.cancel(id));
    assert!(engine.close_session(sid));
    assert!(!engine.close_session(sid), "close is idempotent");
    // Whether the step was still queued (dropped by cancel) or already
    // claimed by the worker (dropped at the batch boundary), the cache
    // is released without the caller reaping anything.
    let mut freed = false;
    for _ in 0..5000 {
        if engine.kv_bytes() == 0 && engine.session_count() == 0 {
            freed = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(freed, "closed session left KV bytes pinned");
    // The engine stays live for other traffic.
    let sid2 = engine.open_session(SEQ).unwrap();
    let id2 = engine.submit_decode(sid2, &token(4)).unwrap();
    assert_eq!(engine.wait(id2).unwrap().len(), DIM);
}
