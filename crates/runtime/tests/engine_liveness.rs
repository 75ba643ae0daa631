//! Liveness and backpressure contracts of the public `Engine` API.
//!
//! These pin the serving-critical behaviors from the outside: a full
//! submit queue sheds load with [`RuntimeError::Overloaded`] (and
//! recovers once drained), deadline-bounded waits expire instead of
//! trusting worker liveness, decode steps coalesce across sessions, and
//! closed sessions release their KV cache.
//!
//! Determinism on any core count: the gather window adapts — a run
//! dispatches once it has not grown for one quiet poll, and at once
//! when waiting could not grow it — so no test here relies on the window
//! to hold requests back. Instead the worker is *held*: an executor
//! ([`Engine::with_exec`]) or step gate ([`Engine::with_hooks`]) parks
//! the first batch until the test releases it, and whatever the test
//! submits meanwhile piles up in the queue behind it — no sleeps, no
//! racing.

use ant_nn::model::{decoder_block, mlp};
use ant_nn::qat::{quantize_model, QuantSpec};
use ant_runtime::{BatchExec, BatchPolicy, CompiledPlan, Engine, RuntimeError, StepGate};
use ant_tensor::dist::{sample_tensor, Distribution};
use std::sync::mpsc::{channel, Receiver, Sender};
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

/// An infer executor that parks the first batch until the test sends
/// (or drops the sender), then forwards every batch through the plan.
fn hold_first_batch(gate: Receiver<()>) -> BatchExec {
    let mut first = true;
    Box::new(move |plan, x, batch, out| {
        if std::mem::replace(&mut first, false) {
            let _ = gate.recv();
        }
        plan.forward_rows(x, batch, out)
    })
}

/// The same hold for the first prefill/decode batch.
fn hold_first_step(gate: Receiver<()>) -> StepGate {
    let mut first = true;
    Box::new(move || {
        if std::mem::replace(&mut first, false) {
            let _ = gate.recv();
        }
    })
}

/// An MLP engine whose first batch is held until the returned sender
/// sends or drops.
fn held_engine(policy: BatchPolicy) -> (Engine, Sender<()>) {
    let (gate_tx, gate_rx) = channel();
    (
        Engine::with_exec(plan(), policy, hold_first_batch(gate_rx)),
        gate_tx,
    )
}

/// A decoder engine whose first prefill/decode batch is held.
fn held_decoder(policy: BatchPolicy) -> (Engine, Sender<()>) {
    let (gate_tx, gate_rx) = channel();
    let engine = Engine::with_hooks(
        decoder_plan(),
        policy,
        Box::new(|plan, x, batch, out| plan.forward_rows(x, batch, out)),
        Some(hold_first_step(gate_rx)),
    );
    (engine, gate_tx)
}

/// Blocks until the worker has drained the queue into its (held) batch.
fn until_dispatched(engine: &Engine) {
    for _ in 0..5000 {
        if engine.queue_depth() == 0 {
            return;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    panic!("worker never picked up the queued requests");
}

#[test]
fn bounded_queue_sheds_load_and_recovers() {
    let (engine, gate) = held_engine(BatchPolicy {
        max_batch: 64,
        max_wait: Duration::from_millis(500),
        max_queue: 4,
        ..BatchPolicy::default()
    });
    let row = [0.5_f32; 8];
    let held = engine.submit(&row).unwrap();
    until_dispatched(&engine);
    // The worker is parked: submits pile into the bounded queue.
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
    drop(gate);
    assert_eq!(engine.wait(held).unwrap().len(), 4);
    for id in ids {
        assert_eq!(engine.wait(id).unwrap().len(), 4);
    }
    // The queue drained with the batch: admission is open again.
    assert_eq!(engine.queue_depth(), 0);
    let id = engine.submit(&row).unwrap();
    assert_eq!(engine.wait(id).unwrap().len(), 4);
    let stats = engine.stats();
    assert_eq!(stats.submitted, 6, "the shed request must not be counted");
    assert_eq!(stats.completed, 6);
}

#[test]
fn wait_timeout_expires_while_batch_is_held_open() {
    let (engine, gate) = held_engine(BatchPolicy {
        max_batch: 64,
        max_wait: Duration::from_millis(500),
        max_queue: 64,
        ..BatchPolicy::default()
    });
    let id = engine.submit(&[0.5; 8]).unwrap();
    until_dispatched(&engine);
    // The batch is held until the gate opens; a 20ms deadline expires
    // first, with the request still in flight.
    let got = engine.wait_timeout(id, Duration::from_millis(20)).unwrap();
    assert!(got.is_none(), "deadline cannot have been met");
    // The request was not lost: an unbounded wait still delivers it.
    drop(gate);
    assert_eq!(engine.wait(id).unwrap().len(), 4);
}

#[test]
fn cancel_after_timeout_drops_the_result() {
    let (engine, gate) = held_engine(BatchPolicy {
        max_batch: 64,
        max_wait: Duration::from_millis(200),
        max_queue: 64,
        ..BatchPolicy::default()
    });
    let held = engine.submit(&[0.25; 8]).unwrap();
    until_dispatched(&engine);
    let id = engine.submit(&[0.5; 8]).unwrap();
    assert!(engine
        .wait_timeout(id, Duration::from_millis(10))
        .unwrap()
        .is_none());
    // Deadline handling à la antd: give up and cancel so the eventual
    // result is dropped instead of parking in the engine forever. The
    // request is queued behind the held batch, so cancel removes it
    // outright.
    assert!(engine.cancel(id));
    assert_eq!(engine.queue_depth(), 0);
    drop(gate);
    assert_eq!(engine.wait(held).unwrap().len(), 4);
    // The worker carries on: a fresh request still completes, and the
    // cancelled id is gone, not parked — it never ran.
    let fresh = engine.submit(&[0.25; 8]).unwrap();
    assert_eq!(engine.wait(fresh).unwrap().len(), 4);
    assert!(matches!(engine.wait(id), Err(RuntimeError::Engine(_))));
    assert_eq!(engine.stats().completed, 2);
}

#[test]
fn decode_steps_from_many_sessions_coalesce_into_one_batch() {
    // The first session's prefill is held; one step from each of the six
    // sessions piles up behind it. Released, they form a run holding a
    // step from every open session, which dispatches as one batch.
    let (engine, gate) = held_decoder(BatchPolicy {
        max_batch: 64,
        max_wait: Duration::from_millis(500),
        max_queue: 64,
        ..BatchPolicy::default()
    });
    let sids: Vec<_> = (0..6).map(|_| engine.open_session(SEQ).unwrap()).collect();
    assert_eq!(engine.session_count(), 6);
    assert!(engine.kv_bytes() > 0);
    let prefill = engine.submit_prefill(sids[0], &token(99)).unwrap();
    until_dispatched(&engine);
    let ids: Vec<_> = sids
        .iter()
        .enumerate()
        .map(|(i, sid)| engine.submit_decode(*sid, &token(i as u64)).unwrap())
        .collect();
    drop(gate);
    assert_eq!(engine.wait(prefill).unwrap().len(), DIM);
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
    // A prefill at the queue head closes its run immediately (it always
    // runs alone), so a decode step queued behind a prefill is
    // dispatched right after it, at most one quiet poll later — never
    // after a second max_wait-long window.
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
    let (engine, gate) = held_decoder(BatchPolicy {
        max_batch: 64,
        max_wait: Duration::from_millis(300),
        max_queue: 64,
        ..BatchPolicy::default()
    });
    let sid = engine.open_session(SEQ).unwrap();
    assert!(engine.kv_bytes() > 0);
    let id = engine.submit_decode(sid, &token(3)).unwrap();
    // The step of the only open session dispatches at once and parks in
    // the gate with the session claimed: expire a deadline, then abandon.
    until_dispatched(&engine);
    assert!(engine
        .wait_timeout(id, Duration::from_millis(10))
        .unwrap()
        .is_none());
    assert!(engine.cancel(id));
    assert!(engine.close_session(sid));
    assert!(!engine.close_session(sid), "close is idempotent");
    // The worker still holds the session; it drops the cache at the
    // batch boundary without the caller reaping anything.
    assert_eq!(engine.session_count(), 1);
    drop(gate);
    let mut freed = false;
    for _ in 0..5000 {
        if engine.kv_bytes() == 0 && engine.session_count() == 0 {
            freed = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(freed, "closed session left KV bytes pinned");
    assert!(engine.poll(id).is_none());
    // The engine stays live for other traffic.
    let sid2 = engine.open_session(SEQ).unwrap();
    let id2 = engine.submit_decode(sid2, &token(4)).unwrap();
    assert_eq!(engine.wait(id2).unwrap().len(), DIM);
}
