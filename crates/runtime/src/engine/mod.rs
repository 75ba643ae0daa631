//! Batched request scheduling over a compiled plan.
//!
//! Serving traffic arrives one request at a time, but the packed engine is
//! most efficient on batches: one LUT decode + GEMM pass per layer
//! amortizes per-call overhead across every queued request. [`Engine`]
//! owns a worker thread that coalesces submissions into batches under a
//! [`BatchPolicy`]: a batch closes at `max_batch` requests, as soon as
//! waiting could not grow it, and at the latest `max_wait` after its
//! first request was submitted.
//!
//! Because the packed layers compute in exact integer arithmetic, results
//! are bit-identical no matter how requests are grouped; batching is
//! invisible to callers except in latency. Regrouping requests,
//! coalescing decode steps and re-running the innocents of a panicked
//! batch are therefore all *policy* over one exact executor, and the
//! module is split along those policies:
//!
//! * this file — the public surface: [`Engine`] validates shapes and
//!   delegates,
//! * `scheduler.rs` — admission into the bounded queue, the request
//!   table, the session slots, the gather rule, the batch runner and
//!   the worker loop,
//! * `supervisor.rs` — what a panicking batch costs: the restart budget,
//!   bisection quarantine and the backoff. The scheduler knows no panic
//!   policy; a supervisor with `max_restarts = 0` *is* the unsupervised
//!   engine.
//!
//! # Prefill and decode phases
//!
//! Causal plans add a second traffic class. A caller opens a
//! [`SessionId`]-handled decode session ([`Engine::open_session`]) whose
//! packed KV caches live with the worker's plan, prefills its prompt
//! ([`Engine::submit_prefill`] — runs alone, full-sequence), then streams
//! tokens ([`Engine::submit_decode`]). The scheduler stays FIFO but
//! gathers *same-kind runs*: consecutive decode steps from distinct
//! sessions coalesce into one batched [`CompiledPlan::decode_steps`] call
//! (the continuous-batching shape — one step, many sequences), while a
//! prefill executes as its own batch.
//!
//! Only an *open* run waits at all. The run at the queue head is
//! **closed** — dispatched at once — when it is full, is a prefill, is
//! followed in the FIFO by a request that could not join it (another
//! kind of work, or a second step of a session already in the run:
//! order forbids overtaking, so no later arrival could join it either),
//! or is a decode run holding a step from every open session (no session
//! is left that could join it). An open run waits for company one
//! **quiet poll** at a time — the wall time of the worker's previous
//! batch execution — and dispatches as soon as it has not grown for one
//! poll (each arrival starts a fresh one): waiting longer than one
//! service time costs the head more than dispatching now costs a late
//! companion, which waits at most one service time behind it.
//! `max_wait`, counted from the head request's submit, is only the cap.
//! Before the first batch has run there is no service time to go by, so
//! the first poll is the cap. A poll shorter than the scheduler's
//! minimum sleep (50 µs, Linux's default timer slack) is spun out with
//! the lock released, watching an arrival counter `submit` bumps: slept
//! out on the condvar, a 3 µs poll would return after ~55 µs.
//!
//! Sessions are freed *eagerly*: [`Engine::close_session`] releases the
//! KV cache immediately when the session is idle, and at the executing
//! batch's completion (the earliest safe point) when the worker holds
//! it — a timed-out caller that cancels its request and closes its
//! session never leaves cache bytes pinned behind a long batch.

mod scheduler;
mod supervisor;

use crate::error::RuntimeError;
use crate::plan::{no_causal_err, CompiledPlan, SessionFactory};
use scheduler::{Runner, Scheduler, Work};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use supervisor::Supervisor;

/// When the scheduler closes a batch, and how much work it will hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Maximum requests per batch.
    pub max_batch: usize,
    /// The cap on how long the first request of a batch waits for
    /// company, counted from its submit. A batch usually closes sooner:
    /// as soon as it has not grown for one quiet poll (the previous
    /// batch's execution time) or waiting could not grow it at all —
    /// see the [module docs](crate::engine).
    pub max_wait: Duration,
    /// Maximum requests the submit queue will hold before
    /// [`Engine::submit`] rejects with [`RuntimeError::Overloaded`].
    /// This is the engine's admission-control valve: under sustained
    /// overload the queue stops growing and callers (a serving front
    /// end, say) shed load instead of the process eating memory without
    /// limit. The default is generous — overload should mean *overload*,
    /// not a batch worth of burst.
    pub max_queue: usize,
    /// Consecutive panicking batch executions the supervisor absorbs
    /// before declaring the engine dead. Each absorbed panic fails (or
    /// quarantines) only its own batch; the counter resets on any
    /// successful execution — including a successful bisection probe —
    /// so sporadic poison never accumulates toward death, while an
    /// engine that can no longer execute *anything* dies within the
    /// budget. `0` restores the pre-supervision contract: the first
    /// panic kills the engine.
    pub max_restarts: u32,
    /// Base delay before the worker resumes scheduling after an
    /// absorbed panic; doubles per consecutive panic, capped at 1 s.
    /// Zero disables the backoff (useful in tests).
    pub restart_backoff: Duration,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy {
            max_batch: 32,
            max_wait: Duration::from_millis(1),
            max_queue: 1024,
            max_restarts: 3,
            restart_backoff: Duration::from_millis(10),
        }
    }
}

/// Handle to a submitted request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RequestId(u64);

impl RequestId {
    /// Reconstructs a handle from its raw value (deserialization/test
    /// hook). Waiting on an id the engine never issued errors — it does
    /// not hang.
    pub fn from_raw(raw: u64) -> RequestId {
        RequestId(raw)
    }

    /// The raw id value.
    pub fn raw(&self) -> u64 {
        self.0
    }
}

/// Handle to an open decode session (its packed KV caches live inside
/// the engine).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SessionId(u64);

impl SessionId {
    /// The raw id value (for logging / serving-layer bookkeeping).
    pub fn raw(&self) -> u64 {
        self.0
    }
}

/// Scheduler counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Requests accepted by [`Engine::submit`] (plus prefill/decode
    /// submissions).
    pub submitted: u64,
    /// Requests completed (result available or delivered).
    pub completed: u64,
    /// Batches executed (all kinds).
    pub batches: u64,
    /// Largest batch executed.
    pub largest_batch: usize,
    /// Prefill batches executed.
    pub prefills: u64,
    /// Decode step batches executed.
    pub decode_batches: u64,
    /// Tokens produced by decode steps (sum of decode batch sizes).
    pub decode_tokens: u64,
    /// Largest decode step batch (sessions advanced in one call).
    pub largest_decode_batch: usize,
    /// Supervisor recoveries: batch executions that panicked and were
    /// absorbed (the engine kept serving).
    pub restarts: u64,
    /// Requests isolated by bisection and failed with
    /// [`RuntimeError::PoisonedRequest`].
    pub poisoned: u64,
    /// Bisection probe executions performed while isolating poisoned
    /// requests.
    pub quarantine_probes: u64,
}

/// The batch-execution seam ([`Engine::with_exec`]): production engines
/// forward through the plan's scratch arena; chaos and contract tests
/// inject blocking, panicking or fault-scheduled executors to pin the
/// overload, supervision and quarantine contracts deterministically.
/// Arguments are `(plan, stacked_rows, batch_size, outputs)`.
pub type BatchExec = Box<
    dyn FnMut(&mut CompiledPlan, &[f32], usize, &mut Vec<f32>) -> Result<(), RuntimeError> + Send,
>;

/// A gate invoked at the start of every prefill/decode batch execution
/// (after the sessions were taken from their slots), so tests can hold
/// the worker mid-batch deterministically ([`Engine::with_hooks`]).
pub type StepGate = Box<dyn FnMut() + Send>;

/// A batched inference engine over a [`CompiledPlan`].
pub struct Engine {
    scheduler: Arc<Scheduler>,
    in_features: Option<usize>,
    token_dim: Option<usize>,
    session_factory: Option<SessionFactory>,
    policy: BatchPolicy,
    worker: Option<JoinHandle<()>>,
}

impl Engine {
    /// Starts the engine: spawns the worker thread that owns `plan` and
    /// serves batches under `policy`.
    ///
    /// # Panics
    ///
    /// Panics if `policy.max_batch` or `policy.max_queue` is zero.
    pub fn new(plan: CompiledPlan, policy: BatchPolicy) -> Self {
        Self::with_exec(
            plan,
            policy,
            Box::new(|plan, x, batch, out| plan.forward_rows(x, batch, out)),
        )
    }

    /// Starts the engine with a custom batch executor — the
    /// fault-injection seam. Production code uses [`Engine::new`];
    /// tests and the chaos harness ([`crate::chaos`]) substitute
    /// executors that block, panic or fail on schedule to prove the
    /// overload, supervision and quarantine contracts deterministically.
    ///
    /// # Panics
    ///
    /// Panics if `policy.max_batch` or `policy.max_queue` is zero.
    pub fn with_exec(plan: CompiledPlan, policy: BatchPolicy, exec: BatchExec) -> Self {
        Self::with_hooks(plan, policy, exec, None)
    }

    /// [`Engine::with_exec`] plus a [`StepGate`] called at the start of
    /// every prefill/decode batch execution (after the sessions were
    /// claimed from their slots), so tests can hold the worker mid-batch.
    ///
    /// # Panics
    ///
    /// Panics if `policy.max_batch` or `policy.max_queue` is zero.
    pub fn with_hooks(
        plan: CompiledPlan,
        policy: BatchPolicy,
        exec: BatchExec,
        step_gate: Option<StepGate>,
    ) -> Self {
        assert!(policy.max_batch > 0, "max_batch must be positive");
        assert!(policy.max_queue > 0, "max_queue must be positive");
        let in_features = plan.in_features();
        let token_dim = plan.token_dim();
        let session_factory = plan.session_factory().ok();
        let scheduler = Arc::new(Scheduler::new(policy));
        let sched = Arc::clone(&scheduler);
        let worker = std::thread::spawn(move || {
            // Batch-execution panics are the supervisor's (failed batch,
            // bisection quarantine, bounded restarts); this outer guard
            // is the backstop for panics in the scheduler itself.
            // Swallowing an unwind silently would leave every waiter
            // blocked forever; instead the engine is marked dead, every
            // in-flight request is failed, and all waiters are woken so
            // `wait` returns an error promptly.
            let unwind = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                sched.work(
                    Runner::new(plan, exec, step_gate),
                    Supervisor::new(policy.max_restarts, policy.restart_backoff),
                )
            }));
            if let Err(payload) = unwind {
                sched.fail_after_worker_panic(&supervisor::panic_message(payload));
            }
        });
        Engine {
            scheduler,
            in_features,
            token_dim,
            session_factory,
            policy,
            worker: Some(worker),
        }
    }

    /// The policy this engine was started with.
    pub fn policy(&self) -> BatchPolicy {
        self.policy
    }

    /// Enqueues one request (a single feature row). Returns immediately
    /// with a handle to [`Self::poll`] or [`Self::wait`] on.
    ///
    /// # Errors
    ///
    /// * [`RuntimeError::ShapeMismatch`] when the feature count disagrees
    ///   with the plan,
    /// * [`RuntimeError::Overloaded`] when the submit queue already holds
    ///   [`BatchPolicy::max_queue`] requests — the queue is **bounded**,
    ///   so sustained overload sheds load here instead of growing memory
    ///   without limit; retry after a short backoff (serving front ends
    ///   map this to HTTP 429 + `Retry-After`),
    /// * [`RuntimeError::Engine`] after shutdown or a worker death.
    ///
    /// # Example
    ///
    /// ```
    /// use ant_nn::model::mlp;
    /// use ant_nn::qat::{quantize_model, QuantSpec};
    /// use ant_runtime::{BatchPolicy, CompiledPlan, Engine, RuntimeError};
    /// use ant_tensor::dist::{sample_tensor, Distribution};
    ///
    /// let mut model = mlp(8, 4, 1);
    /// let calib = sample_tensor(Distribution::Gaussian { mean: 0.0, std: 1.0 }, &[64, 8], 2);
    /// quantize_model(&mut model, &calib, QuantSpec::default())?;
    /// let engine = Engine::new(CompiledPlan::from_quantized(&model)?, BatchPolicy::default());
    /// let id = engine.submit(&[0.25; 8])?;            // returns immediately
    /// assert_eq!(engine.wait(id)?.len(), 4);
    /// // A mis-sized row is rejected up front, before it can poison a batch.
    /// assert!(matches!(engine.submit(&[0.0; 3]), Err(RuntimeError::ShapeMismatch { .. })));
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn submit(&self, input: &[f32]) -> Result<RequestId, RuntimeError> {
        if let Some(expected) = self.in_features {
            if input.len() != expected {
                return Err(RuntimeError::ShapeMismatch {
                    expected,
                    actual: input.len(),
                });
            }
        }
        self.scheduler.submit(Work::Infer, input)
    }

    /// Opens a decode session against the worker's plan: every byte of
    /// its packed KV cache is allocated here, and stays pinned (counted
    /// by [`Self::kv_bytes`]) until [`Self::close_session`].
    ///
    /// # Errors
    ///
    /// [`RuntimeError::UnsupportedLayer`] when the plan is not causal or
    /// `max_tokens` is zero, [`RuntimeError::Engine`] after shutdown.
    pub fn open_session(&self, max_tokens: usize) -> Result<SessionId, RuntimeError> {
        let factory = self.session_factory.as_ref().ok_or_else(no_causal_err)?;
        self.scheduler.open_session(factory.open(max_tokens)?)
    }

    /// Closes a decode session, releasing its KV cache **eagerly**: an
    /// idle session is freed before this returns; one held by the
    /// worker's executing batch is dropped at that batch's completion —
    /// the earliest safe point — instead of being returned to its slot.
    /// Queued prefill/decode requests against the session are failed
    /// immediately (their waiters wake with an error).
    ///
    /// Idempotent: returns `false` when the id is unknown or already
    /// closed.
    pub fn close_session(&self, sid: SessionId) -> bool {
        self.scheduler.close_session(sid.0)
    }

    /// Enqueues a full-prompt prefill (`n·token_dim` features) into
    /// `sid`'s KV cache. The result row delivered through
    /// [`Self::wait`] / [`Self::poll`] is the **last** token's output —
    /// the next-token state a sampler consumes.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::ShapeMismatch`] for a prompt that is not a whole
    /// positive number of token rows, [`RuntimeError::Overloaded`] /
    /// [`RuntimeError::Engine`] per [`Self::submit`], and an
    /// [`RuntimeError::Engine`] for an unknown or closed session.
    pub fn submit_prefill(
        &self,
        sid: SessionId,
        prompt: &[f32],
    ) -> Result<RequestId, RuntimeError> {
        let dim = self.token_dim.ok_or_else(no_causal_err)?;
        if prompt.is_empty() || !prompt.len().is_multiple_of(dim) {
            return Err(RuntimeError::ShapeMismatch {
                expected: dim,
                actual: prompt.len(),
            });
        }
        self.scheduler.submit(Work::Prefill { sid: sid.0 }, prompt)
    }

    /// Enqueues one decode step: a single `token_dim`-feature token row
    /// appended to `sid`'s KV cache. Consecutive decode steps from
    /// distinct sessions at the queue head coalesce into one batched
    /// step.
    ///
    /// # Errors
    ///
    /// The same classes as [`Self::submit_prefill`].
    pub fn submit_decode(&self, sid: SessionId, token: &[f32]) -> Result<RequestId, RuntimeError> {
        let dim = self.token_dim.ok_or_else(no_causal_err)?;
        if token.len() != dim {
            return Err(RuntimeError::ShapeMismatch {
                expected: dim,
                actual: token.len(),
            });
        }
        self.scheduler.submit(Work::Decode { sid: sid.0 }, token)
    }

    /// Decode sessions currently open (including any the worker holds).
    pub fn session_count(&self) -> usize {
        self.scheduler.session_count()
    }

    /// Bytes pinned by open sessions' packed KV caches.
    pub fn kv_bytes(&self) -> usize {
        self.scheduler.kv_bytes()
    }

    /// The decode pipeline's per-token feature width; `None` for
    /// non-causal plans.
    pub fn token_dim(&self) -> Option<usize> {
        self.token_dim
    }

    /// Non-blocking result check: `None` while the request is in flight,
    /// the result (taken out of the engine) once its batch completed.
    pub fn poll(&self, id: RequestId) -> Option<Result<Vec<f32>, RuntimeError>> {
        self.scheduler.poll(id.0)
    }

    /// Blocks until the request's batch completes and returns its result.
    ///
    /// Equivalent to [`Self::wait_timeout`] with an infinite deadline:
    /// the same in-flight / delivered / shut-down state machine, minus
    /// the `Ok(None)` expiry arm. `wait` never blocks on a dead worker —
    /// if the worker thread panics, every in-flight request is failed
    /// and all waiters wake with an error; callers that need a bounded
    /// wall-clock bound regardless (a serving deadline, say) should use
    /// [`Self::wait_timeout`] instead of trusting liveness.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Engine`] if the worker fails the request,
    /// shuts down or panics first, or `id` is unknown / already
    /// delivered (results are taken out of the engine exactly once).
    ///
    /// # Example
    ///
    /// ```
    /// use ant_nn::model::mlp;
    /// use ant_nn::qat::{quantize_model, QuantSpec};
    /// use ant_runtime::{BatchPolicy, CompiledPlan, Engine, RequestId, RuntimeError};
    /// use ant_tensor::dist::{sample_tensor, Distribution};
    ///
    /// let mut model = mlp(8, 4, 1);
    /// let calib = sample_tensor(Distribution::Gaussian { mean: 0.0, std: 1.0 }, &[64, 8], 2);
    /// quantize_model(&mut model, &calib, QuantSpec::default())?;
    /// let engine = Engine::new(CompiledPlan::from_quantized(&model)?, BatchPolicy::default());
    /// let id = engine.submit(&[0.5; 8])?;
    /// let logits = engine.wait(id)?;                  // blocks until the batch ran
    /// assert_eq!(logits.len(), 4);
    /// // Results leave the engine exactly once; waiting again errors
    /// // instead of hanging, as does a never-issued id.
    /// assert!(matches!(engine.wait(id), Err(RuntimeError::Engine(_))));
    /// assert!(matches!(engine.wait(RequestId::from_raw(9999)), Err(RuntimeError::Engine(_))));
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn wait(&self, id: RequestId) -> Result<Vec<f32>, RuntimeError> {
        match self.scheduler.wait_deadline(id.0, None) {
            Ok(Some(r)) => Ok(r),
            Ok(None) => unreachable!("deadline-free wait cannot expire"),
            Err(e) => Err(e),
        }
    }

    /// Bounded [`Self::wait`]: blocks at most `timeout` for the request's
    /// batch to complete.
    ///
    /// Returns `Ok(Some(result))` when the batch completed in time and
    /// `Ok(None)` when the deadline expired with the request still in
    /// flight — the request keeps executing; the caller can keep waiting,
    /// or [`Self::cancel`] it so the eventual result is dropped instead
    /// of parking in the engine forever. Serving front ends use this to
    /// enforce per-request deadlines instead of trusting worker
    /// liveness.
    ///
    /// # Errors
    ///
    /// The same errors as [`Self::wait`]: the worker failed the request,
    /// the engine shut down or its worker panicked, or `id` is unknown /
    /// already delivered.
    pub fn wait_timeout(
        &self,
        id: RequestId,
        timeout: Duration,
    ) -> Result<Option<Vec<f32>>, RuntimeError> {
        self.scheduler
            .wait_deadline(id.0, Some(Instant::now() + timeout))
    }

    /// Abandons a request: a queued request is dropped before execution,
    /// an executing one has its eventual result discarded on publish, a
    /// completed one has its result taken and dropped. Returns `false`
    /// when the id is unknown (or its result already left the engine) —
    /// cancel is idempotent, never an error.
    ///
    /// This is the cleanup half of a [`Self::wait_timeout`] deadline:
    /// without it, results of timed-out requests would accumulate in the
    /// engine for the life of the process.
    pub fn cancel(&self, id: RequestId) -> bool {
        self.scheduler.cancel(id.0)
    }

    /// Requests currently queued (excluding the executing batch). The
    /// admission headroom is `policy().max_queue - queue_depth()`.
    pub fn queue_depth(&self) -> usize {
        self.scheduler.queue_depth()
    }

    /// Scheduler counters so far.
    pub fn stats(&self) -> EngineStats {
        self.scheduler.stats()
    }

    /// Whether the worker died by panic (its restart budget exhausted,
    /// or the scheduler itself panicked): every in-flight result is
    /// already failed and no future request can complete. Serving front
    /// ends use this to distinguish "rebuild the engine" (trip a
    /// circuit breaker) from a per-request failure.
    pub fn is_dead(&self) -> bool {
        self.scheduler.is_dead()
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.scheduler.shut_down();
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ant_nn::model::mlp;
    use ant_nn::qat::{quantize_model, QuantSpec};
    use ant_tensor::dist::{sample_tensor, Distribution};
    use ant_tensor::Tensor;

    fn plan() -> (CompiledPlan, Tensor) {
        let mut model = mlp(8, 4, 23);
        let calib = sample_tensor(
            Distribution::Gaussian {
                mean: 0.0,
                std: 1.0,
            },
            &[64, 8],
            7,
        );
        quantize_model(&mut model, &calib, QuantSpec::default()).unwrap();
        (CompiledPlan::from_quantized(&model).unwrap(), calib)
    }

    #[test]
    fn batched_results_match_direct_forward() {
        let (plan_for_engine, calib) = plan();
        let mut reference_plan = plan_for_engine.clone();
        let engine = Engine::new(
            plan_for_engine,
            BatchPolicy {
                max_batch: 16,
                max_wait: Duration::from_millis(5),
                ..BatchPolicy::default()
            },
        );
        let f = calib.dims()[1];
        let n = 40;
        let ids: Vec<RequestId> = (0..n)
            .map(|i| engine.submit(&calib.as_slice()[(i % 64) * f..((i % 64) + 1) * f]))
            .collect::<Result<_, _>>()
            .unwrap();
        for (i, id) in ids.iter().enumerate() {
            let got = engine.wait(*id).unwrap();
            let row = Tensor::from_vec(
                calib.as_slice()[(i % 64) * f..((i % 64) + 1) * f].to_vec(),
                &[1, f],
            )
            .unwrap();
            let expect = reference_plan.forward(&row).unwrap();
            assert_eq!(got, expect.as_slice(), "request {i}");
        }
        let stats = engine.stats();
        assert_eq!(stats.submitted, n as u64);
        assert_eq!(stats.completed, n as u64);
        assert!(stats.batches >= 3, "expected ≥3 batches of ≤16: {stats:?}");
        assert!(stats.largest_batch <= 16);
    }

    #[test]
    fn poll_is_nonblocking_and_consumes() {
        let (p, calib) = plan();
        let engine = Engine::new(p, BatchPolicy::default());
        let id = engine.submit(&calib.as_slice()[..8]).unwrap();
        // Spin briefly until the batch closes (max_wait 1ms).
        let mut got = None;
        for _ in 0..500 {
            if let Some(r) = engine.poll(id) {
                got = Some(r);
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(got.unwrap().is_ok());
        // Result was taken out.
        assert!(engine.poll(id).is_none());
    }

    #[test]
    fn consumed_or_unknown_id_errors_instead_of_hanging() {
        let (p, calib) = plan();
        let engine = Engine::new(
            p,
            BatchPolicy {
                max_batch: 1,
                max_wait: Duration::from_millis(1),
                ..BatchPolicy::default()
            },
        );
        let id = engine.submit(&calib.as_slice()[..8]).unwrap();
        assert!(engine.wait(id).is_ok());
        // Second take of the same result: error, not a deadlock.
        assert!(matches!(engine.wait(id), Err(RuntimeError::Engine(_))));
        // Never-issued id: same.
        assert!(matches!(
            engine.wait(RequestId(12345)),
            Err(RuntimeError::Engine(_))
        ));
    }

    #[test]
    fn submit_validates_features() {
        let (p, _) = plan();
        let engine = Engine::new(p, BatchPolicy::default());
        assert!(matches!(
            engine.submit(&[1.0, 2.0]),
            Err(RuntimeError::ShapeMismatch {
                expected: 8,
                actual: 2
            })
        ));
    }

    #[test]
    fn drop_drains_cleanly() {
        let (p, calib) = plan();
        let engine = Engine::new(
            p,
            BatchPolicy {
                max_batch: 4,
                max_wait: Duration::from_millis(1),
                ..BatchPolicy::default()
            },
        );
        for i in 0..8 {
            engine
                .submit(&calib.as_slice()[i * 8..(i + 1) * 8])
                .unwrap();
        }
        drop(engine); // must not deadlock or panic
    }

    /// An executor that parks every batch on a channel until the test
    /// releases it (or drops the sender), then emits one dummy output
    /// per request. Lets tests hold the worker mid-batch deterministically.
    fn gated_exec(gate: std::sync::mpsc::Receiver<()>) -> BatchExec {
        Box::new(move |_plan, _x, batch, out| {
            let _ = gate.recv(); // sender dropped => proceed (drain on Drop)
            out.clear();
            out.resize(batch, 0.0);
            Ok(())
        })
    }

    /// Blocks until the worker has drained the queue into a batch — with
    /// a gated executor, until it is parked on the gate.
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
    fn full_queue_rejects_with_overloaded_and_recovers() {
        let (p, calib) = plan();
        let (gate_tx, gate_rx) = std::sync::mpsc::channel();
        let engine = Engine::with_exec(
            p,
            BatchPolicy {
                max_batch: 1,
                max_wait: Duration::from_millis(1),
                max_queue: 2,
                ..BatchPolicy::default()
            },
            gated_exec(gate_rx),
        );
        let row = &calib.as_slice()[..8];
        // First request is taken by the worker immediately (max_batch 1)
        // and parks on the gate; wait until it has left the queue.
        let a = engine.submit(row).unwrap();
        until_dispatched(&engine);
        // Fill the bounded queue behind the stuck batch...
        let b = engine.submit(row).unwrap();
        let c = engine.submit(row).unwrap();
        // ...and the next submit is shed, not enqueued.
        assert!(matches!(
            engine.submit(row),
            Err(RuntimeError::Overloaded {
                queued: 2,
                max_queue: 2
            })
        ));
        // Release the worker: everything queued completes...
        drop(gate_tx);
        assert_eq!(engine.wait(a).unwrap(), vec![0.0]);
        assert!(engine.wait(b).is_ok());
        assert!(engine.wait(c).is_ok());
        // ...and admission recovers once the queue drained.
        let d = engine.submit(row).unwrap();
        assert!(engine.wait(d).is_ok());
    }

    #[test]
    fn worker_panic_fails_wait_promptly_and_kills_engine() {
        // `max_restarts: 0` pins the pre-supervision contract: the first
        // panicked batch exhausts the budget and the engine dies.
        let (p, calib) = plan();
        let engine = Engine::with_exec(
            p,
            BatchPolicy {
                max_batch: 4,
                max_wait: Duration::from_millis(1),
                max_queue: 16,
                max_restarts: 0,
                restart_backoff: Duration::ZERO,
            },
            Box::new(|_, _, _, _| panic!("injected batch failure")),
        );
        let row = &calib.as_slice()[..8];
        let id = engine.submit(row).unwrap();
        // Before the fix, `wait` hung forever here: the worker died with
        // `shutdown` unset and nobody signalled `done_cv`.
        let start = Instant::now();
        let err = engine.wait(id).unwrap_err();
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "wait did not return promptly after worker death"
        );
        assert!(
            err.to_string().contains("panicked"),
            "error does not name the panic: {err}"
        );
        assert!(engine.is_dead());
        // The engine is dead: later submits fail fast with the cause.
        let err = engine.submit(row).unwrap_err();
        assert!(matches!(err, RuntimeError::Engine(_)));
        assert!(err.to_string().contains("panicked"), "{err}");
        drop(engine); // join of the panicked worker must not deadlock
    }

    /// The poison sentinel the supervision tests key panics on: an exec
    /// that panics whenever a request row leads with this value.
    const POISON: f32 = 1.0e6;

    fn poison_sensitive_exec() -> BatchExec {
        Box::new(|plan, x, batch, out| {
            let per = x.len() / batch;
            for row in x.chunks(per) {
                assert!(row[0] != POISON, "poisoned row reached the plan");
            }
            plan.forward_rows(x, batch, out)
        })
    }

    #[test]
    fn supervisor_quarantines_poison_and_keeps_serving() {
        let (p, calib) = plan();
        let mut reference = p.clone();
        let (gate_tx, gate_rx) = std::sync::mpsc::channel::<()>();
        let mut exec = poison_sensitive_exec();
        let mut first = true;
        let engine = Engine::with_exec(
            p,
            BatchPolicy {
                max_batch: 8,
                max_wait: Duration::from_millis(1),
                max_queue: 64,
                max_restarts: 3,
                restart_backoff: Duration::ZERO,
            },
            // The first batch parks on the gate, so the requests below
            // pile up behind it and dispatch as one batch.
            Box::new(move |plan, x, batch, out| {
                if std::mem::replace(&mut first, false) {
                    let _ = gate_rx.recv();
                }
                exec(plan, x, batch, out)
            }),
        );
        let f = 8;
        let held = engine.submit(&calib.as_slice()[..f]).unwrap();
        until_dispatched(&engine);
        let mut poison_row = calib.as_slice()[..f].to_vec();
        poison_row[0] = POISON;
        // One poisoned request sandwiched between innocents.
        let a = engine.submit(&calib.as_slice()[..f]).unwrap();
        let bad = engine.submit(&poison_row).unwrap();
        let b = engine.submit(&calib.as_slice()[f..2 * f]).unwrap();
        let c = engine.submit(&calib.as_slice()[2 * f..3 * f]).unwrap();
        drop(gate_tx);
        assert!(engine.wait(held).is_ok());
        // The offender is isolated and fails as PoisonedRequest...
        let err = engine.wait(bad).unwrap_err();
        assert!(
            matches!(err, RuntimeError::PoisonedRequest { .. }),
            "expected PoisonedRequest, got: {err}"
        );
        // ...innocents complete bit-identically to a fault-free run...
        for (i, id) in [(0usize, a), (1, b), (2, c)] {
            let got = engine.wait(id).unwrap();
            let row =
                Tensor::from_vec(calib.as_slice()[i * f..(i + 1) * f].to_vec(), &[1, f]).unwrap();
            assert_eq!(got, reference.forward(&row).unwrap().as_slice());
        }
        // ...and the engine is alive and still serving.
        assert!(!engine.is_dead());
        let d = engine.submit(&calib.as_slice()[..f]).unwrap();
        assert!(engine.wait(d).is_ok());
        let stats = engine.stats();
        assert_eq!(stats.poisoned, 1, "{stats:?}");
        assert!(stats.restarts >= 1, "{stats:?}");
        assert!(stats.quarantine_probes >= 2, "{stats:?}");
    }

    #[test]
    fn restart_budget_exhaustion_kills_engine() {
        // An exec that panics unconditionally: no quarantine probe can
        // succeed, so consecutive panics accumulate to the budget.
        let (p, calib) = plan();
        let engine = Engine::with_exec(
            p,
            BatchPolicy {
                max_batch: 1,
                max_wait: Duration::from_millis(1),
                max_queue: 16,
                max_restarts: 2,
                restart_backoff: Duration::ZERO,
            },
            Box::new(|_, _, _, _| panic!("engine is broken")),
        );
        let row = &calib.as_slice()[..8];
        // Each single-request batch panics; the first two are absorbed
        // (isolated => PoisonedRequest), the third exhausts the budget.
        let mut dead = false;
        for _ in 0..64 {
            match engine.submit(row) {
                Ok(id) => {
                    let _ = engine.wait(id);
                }
                Err(e) => {
                    assert!(e.to_string().contains("panicked"), "{e}");
                    dead = true;
                    break;
                }
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(dead, "engine never exhausted its restart budget");
        assert!(engine.is_dead());
    }

    #[test]
    fn step_batch_panic_closes_sessions_and_engine_recovers() {
        // A panicking decode step cannot leave its session behind: the
        // KV state is unknowable after a partial append, so the session
        // is closed, its bytes drain, and a fresh session decodes
        // correctly on the recovered engine.
        let (seq, dim) = (8, 16);
        let plan = decoder_plan(seq, dim);
        let mut direct = plan.clone();
        let mut first = true;
        let engine = Engine::with_hooks(
            plan,
            BatchPolicy {
                max_batch: 4,
                max_wait: Duration::from_millis(1),
                max_queue: 16,
                max_restarts: 3,
                restart_backoff: Duration::ZERO,
            },
            Box::new(|plan, x, batch, out| plan.forward_rows(x, batch, out)),
            Some(Box::new(move || {
                if std::mem::replace(&mut first, false) {
                    panic!("injected step failure");
                }
            })),
        );
        let sid = engine.open_session(seq).unwrap();
        assert!(engine.kv_bytes() > 0);
        // The first step batch panics in the gate: the lone request is
        // the isolated offender, and its session is gone.
        let id = engine.submit_decode(sid, &token(dim, 3)).unwrap();
        let err = engine.wait(id).unwrap_err();
        assert!(
            matches!(err, RuntimeError::PoisonedRequest { .. }),
            "lone step batch panic must isolate the offender: {err}"
        );
        assert_eq!(engine.kv_bytes(), 0, "KV bytes must drain");
        assert_eq!(engine.session_count(), 0, "session must be closed");
        assert!(matches!(
            engine.submit_decode(sid, &token(dim, 4)),
            Err(RuntimeError::Engine(_))
        ));
        // The engine recovered: a fresh session decodes bit-identically
        // to direct plan execution.
        assert!(!engine.is_dead());
        let t = token(dim, 5);
        let mut sess = direct.open_session(seq).unwrap();
        let mut want = Vec::new();
        direct
            .decode_steps(&mut [&mut sess], &t, &mut want)
            .unwrap();
        let sid2 = engine.open_session(seq).unwrap();
        let id2 = engine.submit_decode(sid2, &t).unwrap();
        assert_eq!(engine.wait(id2).unwrap(), want);
        assert!(engine.close_session(sid2));
        assert_eq!(engine.stats().restarts, 1);
    }

    #[test]
    fn wait_timeout_expires_then_delivers() {
        let (p, calib) = plan();
        let (gate_tx, gate_rx) = std::sync::mpsc::channel();
        let engine = Engine::with_exec(
            p,
            BatchPolicy {
                max_batch: 1,
                max_wait: Duration::from_millis(1),
                max_queue: 16,
                ..BatchPolicy::default()
            },
            gated_exec(gate_rx),
        );
        let row = &calib.as_slice()[..8];
        let id = engine.submit(row).unwrap();
        // Worker is parked on the gate: a short deadline expires with the
        // request still in flight.
        assert!(matches!(
            engine.wait_timeout(id, Duration::from_millis(20)),
            Ok(None)
        ));
        // Released, the same id delivers through the bounded wait.
        gate_tx.send(()).unwrap();
        let got = engine.wait_timeout(id, Duration::from_secs(60)).unwrap();
        assert_eq!(got, Some(vec![0.0]));
    }

    #[test]
    fn cancel_covers_queued_executing_and_completed() {
        let (p, calib) = plan();
        let (gate_tx, gate_rx) = std::sync::mpsc::channel();
        let engine = Engine::with_exec(
            p,
            BatchPolicy {
                max_batch: 1,
                max_wait: Duration::from_millis(1),
                max_queue: 16,
                ..BatchPolicy::default()
            },
            gated_exec(gate_rx),
        );
        let row = &calib.as_slice()[..8];
        let executing = engine.submit(row).unwrap();
        until_dispatched(&engine);
        let queued = engine.submit(row).unwrap();
        // Queued: removed before execution; cancel is idempotent.
        assert!(engine.cancel(queued));
        assert!(!engine.cancel(queued));
        assert_eq!(engine.queue_depth(), 0);
        // Executing: the eventual result is dropped on publish.
        assert!(engine.cancel(executing));
        drop(gate_tx);
        for _ in 0..5000 {
            if engine.stats().completed >= 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(matches!(
            engine.wait(executing),
            Err(RuntimeError::Engine(_))
        ));
        // Completed: cancel takes and drops the parked result.
        let done = engine.submit(row).unwrap();
        let mut seen = false;
        for _ in 0..5000 {
            if engine.cancel(done) {
                seen = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(seen, "completed result never became cancellable");
        assert!(engine.poll(done).is_none());
        // Unknown ids are a no-op.
        assert!(!engine.cancel(RequestId(9_999_999)));
    }

    #[test]
    fn lone_request_on_an_idle_engine_does_not_wait_out_max_wait() {
        let (p, calib) = plan();
        let engine = Engine::new(
            p,
            BatchPolicy {
                max_batch: 4,
                max_wait: Duration::from_secs(5),
                ..BatchPolicy::default()
            },
        );
        let row = |i: usize| &calib.as_slice()[i * 8..(i + 1) * 8];
        // A full first batch closes at once and gives the worker a
        // service time to poll by; until then its poll is the cap.
        let ids: Vec<RequestId> = (0..4).map(|i| engine.submit(row(i)).unwrap()).collect();
        for id in ids {
            assert!(engine.wait(id).is_ok());
        }
        let start = Instant::now();
        let id = engine.submit(row(4)).unwrap();
        assert!(engine.wait(id).is_ok());
        let took = start.elapsed();
        assert!(
            took < Duration::from_secs(1),
            "a lone request waited for company that never came: {took:?}"
        );
        assert_eq!(engine.stats().batches, 2);
    }

    #[test]
    fn max_wait_counts_from_the_head_request_submit() {
        // Batch 1 is held for longer than `max_wait`; the request queued
        // behind it has used its whole budget by then, so it dispatches
        // as soon as the worker is free instead of opening a new window.
        let (p, calib) = plan();
        let max_wait = Duration::from_millis(400);
        let (gate_tx, gate_rx) = std::sync::mpsc::channel();
        let engine = Engine::with_exec(
            p,
            BatchPolicy {
                max_batch: 2,
                max_wait,
                ..BatchPolicy::default()
            },
            gated_exec(gate_rx),
        );
        let row = &calib.as_slice()[..8];
        let held: Vec<RequestId> = (0..2).map(|_| engine.submit(row).unwrap()).collect();
        until_dispatched(&engine);
        let behind = engine.submit(row).unwrap();
        std::thread::sleep(max_wait + Duration::from_millis(100));
        drop(gate_tx);
        let released = Instant::now();
        assert_eq!(engine.wait(behind).unwrap(), vec![0.0]);
        let took = released.elapsed();
        assert!(
            took < max_wait / 2,
            "the queued request waited a second window: {took:?}"
        );
        for id in held {
            assert!(engine.wait(id).is_ok());
        }
        assert_eq!(engine.stats().batches, 2);
    }

    #[test]
    fn burst_behind_a_held_batch_dispatches_as_one_full_batch() {
        // The engine_wave shape: `max_batch` rows queued at once.
        let (p, calib) = plan();
        let (gate_tx, gate_rx) = std::sync::mpsc::channel();
        let engine = Engine::with_exec(p, BatchPolicy::default(), gated_exec(gate_rx));
        let wave = BatchPolicy::default().max_batch;
        let row = &calib.as_slice()[..8];
        let held = engine.submit(row).unwrap();
        until_dispatched(&engine);
        let ids: Vec<RequestId> = (0..wave).map(|_| engine.submit(row).unwrap()).collect();
        drop(gate_tx);
        assert!(engine.wait(held).is_ok());
        for id in ids {
            assert!(engine.wait(id).is_ok());
        }
        let stats = engine.stats();
        assert_eq!(stats.batches, 2, "{stats:?}");
        assert_eq!(stats.largest_batch, wave, "{stats:?}");
    }

    fn decoder_plan(seq: usize, dim: usize) -> CompiledPlan {
        let mut model = ant_nn::model::decoder_block(seq, dim, 1, 41);
        let calib = sample_tensor(
            Distribution::Gaussian {
                mean: 0.0,
                std: 1.0,
            },
            &[24, seq * dim],
            9,
        );
        quantize_model(&mut model, &calib, QuantSpec::default()).unwrap();
        CompiledPlan::from_quantized(&model)
            .unwrap()
            .with_threads(1)
    }

    fn token(dim: usize, seed: u64) -> Vec<f32> {
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
    }

    #[test]
    fn prefill_then_decode_matches_direct_plan_execution() {
        let (seq, dim) = (8, 16);
        let plan = decoder_plan(seq, dim);
        let mut direct = plan.clone();
        let engine = Engine::new(plan, BatchPolicy::default());
        assert_eq!(engine.token_dim(), Some(dim));

        let x: Vec<f32> = (0..seq).flat_map(|t| token(dim, 100 + t as u64)).collect();
        let prompt = 3;

        // Reference: direct prefill + steps against a twin plan.
        let mut sess = direct.open_session(seq).unwrap();
        let mut full = Vec::new();
        direct
            .prefill(&mut sess, &x[..prompt * dim], &mut full)
            .unwrap();
        let want_prefill = full[(prompt - 1) * dim..prompt * dim].to_vec();
        let mut want_steps = Vec::new();
        for t in prompt..seq {
            let mut out = Vec::new();
            direct
                .decode_steps(&mut [&mut sess], &x[t * dim..(t + 1) * dim], &mut out)
                .unwrap();
            want_steps.push(out);
        }

        // Engine: same tokens through the phased scheduler.
        let sid = engine.open_session(seq).unwrap();
        let pid = engine.submit_prefill(sid, &x[..prompt * dim]).unwrap();
        assert_eq!(engine.wait(pid).unwrap(), want_prefill);
        for (i, t) in (prompt..seq).enumerate() {
            let id = engine
                .submit_decode(sid, &x[t * dim..(t + 1) * dim])
                .unwrap();
            assert_eq!(engine.wait(id).unwrap(), want_steps[i], "step {t}");
        }
        let stats = engine.stats();
        assert_eq!(stats.prefills, 1);
        assert_eq!(stats.decode_tokens, (seq - prompt) as u64);
        assert!(engine.close_session(sid));
        assert!(!engine.close_session(sid), "close is idempotent");
        assert_eq!(engine.kv_bytes(), 0);
        assert_eq!(engine.session_count(), 0);
    }

    /// A step gate that parks the first prefill/decode batch until the
    /// test sends (or drops the sender), and lets every later one pass.
    fn hold_first(gate: std::sync::mpsc::Receiver<()>) -> StepGate {
        let mut first = true;
        Box::new(move || {
            if std::mem::replace(&mut first, false) {
                let _ = gate.recv();
            }
        })
    }

    #[test]
    fn decode_steps_from_many_sessions_coalesce() {
        // The steps pile up behind a prefill held for `hold`, so the
        // worker's quiet poll is `hold` long. A step from every open
        // session closes the run, so it dispatches without that poll.
        let (seq, dim) = (6, 16);
        let hold = Duration::from_millis(500);
        let (gate_tx, gate_rx) = std::sync::mpsc::channel();
        let engine = Engine::with_hooks(
            decoder_plan(seq, dim),
            BatchPolicy {
                max_batch: 64,
                max_wait: Duration::from_secs(5),
                ..BatchPolicy::default()
            },
            Box::new(|plan, x, batch, out| plan.forward_rows(x, batch, out)),
            Some(hold_first(gate_rx)),
        );
        let n = 5;
        let sids: Vec<SessionId> = (0..n).map(|_| engine.open_session(seq).unwrap()).collect();
        let prefill = engine.submit_prefill(sids[0], &token(dim, 99)).unwrap();
        until_dispatched(&engine);
        let ids: Vec<RequestId> = sids
            .iter()
            .enumerate()
            .map(|(i, sid)| engine.submit_decode(*sid, &token(dim, i as u64)).unwrap())
            .collect();
        std::thread::sleep(hold);
        gate_tx.send(()).unwrap();
        let released = Instant::now();
        assert_eq!(engine.wait(prefill).unwrap().len(), dim);
        for id in ids {
            assert_eq!(engine.wait(id).unwrap().len(), dim);
        }
        let took = released.elapsed();
        assert!(
            took < hold / 2,
            "a step from every session waited for company: {took:?}"
        );
        let stats = engine.stats();
        assert_eq!(stats.decode_tokens, n as u64);
        assert_eq!(
            stats.largest_decode_batch, n,
            "steps from distinct sessions must coalesce: {stats:?}"
        );
        assert_eq!(stats.decode_batches, 1);
    }

    #[test]
    fn same_session_steps_never_share_a_batch() {
        let (seq, dim) = (6, 16);
        let engine = Engine::new(
            decoder_plan(seq, dim),
            BatchPolicy {
                max_batch: 64,
                max_wait: Duration::from_millis(200),
                ..BatchPolicy::default()
            },
        );
        let sid = engine.open_session(seq).unwrap();
        let a = engine.submit_decode(sid, &token(dim, 1)).unwrap();
        let b = engine.submit_decode(sid, &token(dim, 2)).unwrap();
        assert!(engine.wait(a).is_ok());
        assert!(engine.wait(b).is_ok());
        let stats = engine.stats();
        assert_eq!(stats.decode_batches, 2, "sequential steps: {stats:?}");
        assert_eq!(stats.largest_decode_batch, 1);
    }

    #[test]
    fn session_errors_are_structured() {
        let (seq, dim) = (4, 16);
        let engine = Engine::new(decoder_plan(seq, dim), BatchPolicy::default());
        // Ragged token row.
        let sid = engine.open_session(seq).unwrap();
        assert!(matches!(
            engine.submit_decode(sid, &token(dim + 1, 0)),
            Err(RuntimeError::ShapeMismatch { .. })
        ));
        assert!(matches!(
            engine.submit_prefill(sid, &[]),
            Err(RuntimeError::ShapeMismatch { .. })
        ));
        // Unknown/closed sessions.
        assert!(engine.close_session(sid));
        assert!(matches!(
            engine.submit_decode(sid, &token(dim, 0)),
            Err(RuntimeError::Engine(_))
        ));
        // Capacity: prefill + steps past max_tokens fail that request.
        let sid = engine.open_session(2).unwrap();
        let p = engine.submit_prefill(sid, &token(2 * dim, 3)).unwrap();
        assert!(engine.wait(p).is_ok());
        let d = engine.submit_decode(sid, &token(dim, 4)).unwrap();
        let err = engine.wait(d).unwrap_err();
        assert!(err.to_string().contains("full"), "{err}");
        // Sessions on a non-causal plan.
        let (p, _) = plan();
        let engine = Engine::new(p, BatchPolicy::default());
        assert_eq!(engine.token_dim(), None);
        assert!(engine.open_session(4).is_err());
    }

    #[test]
    fn close_session_mid_batch_releases_kv_eagerly() {
        // Regression: a request whose batch is mid-execution used to pin
        // its session's KV cache until the caller reaped the result.
        // Now cancel + close free the cache at the batch boundary with
        // no further caller involvement.
        let (seq, dim) = (6, 16);
        let (gate_tx, gate_rx) = std::sync::mpsc::channel();
        let engine = Engine::with_hooks(
            decoder_plan(seq, dim),
            BatchPolicy {
                max_batch: 4,
                max_wait: Duration::from_millis(1),
                max_queue: 16,
                ..BatchPolicy::default()
            },
            Box::new(|plan, x, batch, out| plan.forward_rows(x, batch, out)),
            Some(hold_first(gate_rx)),
        );
        let sid = engine.open_session(seq).unwrap();
        let bytes = engine.kv_bytes();
        assert!(bytes > 0);
        let id = engine.submit_decode(sid, &token(dim, 7)).unwrap();
        // The worker picks up the step and parks inside the gate with
        // the session claimed.
        until_dispatched(&engine);
        // Caller gives up: deadline expires, cancel + close.
        assert!(matches!(
            engine.wait_timeout(id, Duration::from_millis(10)),
            Ok(None)
        ));
        assert!(engine.cancel(id));
        assert!(engine.close_session(sid));
        // The cache is still claimed by the executing batch...
        assert_eq!(engine.session_count(), 1);
        // ...and is freed the moment the batch completes, with the
        // abandoned result dropped rather than parked.
        gate_tx.send(()).unwrap();
        let mut freed = false;
        for _ in 0..5000 {
            if engine.kv_bytes() == 0 && engine.session_count() == 0 {
                freed = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(freed, "mid-batch close must free the cache at batch end");
        assert!(engine.poll(id).is_none());
    }

    #[test]
    fn close_session_fails_queued_work_for_that_session() {
        let (seq, dim) = (6, 16);
        let (gate_tx, gate_rx) = std::sync::mpsc::channel::<()>();
        let engine = Engine::with_hooks(
            decoder_plan(seq, dim),
            BatchPolicy {
                max_batch: 1,
                max_wait: Duration::from_millis(1),
                max_queue: 16,
                ..BatchPolicy::default()
            },
            Box::new(|plan, x, batch, out| plan.forward_rows(x, batch, out)),
            Some(Box::new(move || {
                let _ = gate_rx.recv();
            })),
        );
        let a = engine.open_session(seq).unwrap();
        let b = engine.open_session(seq).unwrap();
        // First step occupies the worker (parked in the gate)...
        let running = engine.submit_decode(a, &token(dim, 1)).unwrap();
        until_dispatched(&engine);
        // ...so b's step is still queued when b closes.
        let queued = engine.submit_decode(b, &token(dim, 2)).unwrap();
        assert!(engine.close_session(b));
        let err = engine.wait(queued).unwrap_err();
        assert!(err.to_string().contains("closed"), "{err}");
        drop(gate_tx);
        assert!(engine.wait(running).is_ok());
        assert!(engine.close_session(a));
        assert_eq!(engine.kv_bytes(), 0);
    }

    #[test]
    #[should_panic(expected = "max_queue must be positive")]
    fn zero_max_queue_is_rejected() {
        let (p, _) = plan();
        let _ = Engine::new(
            p,
            BatchPolicy {
                max_queue: 0,
                ..BatchPolicy::default()
            },
        );
    }
}
