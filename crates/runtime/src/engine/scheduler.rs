//! The scheduler: everything about a request's life except what a panic
//! costs ([`super::supervisor`]).
//!
//! One lock guards one [`State`]: the bounded FIFO queue, the request
//! table ([`Flight`] — the single record of where every id is), the
//! decode-session slots and the counters. [`Scheduler::submit`] is the
//! one admission path, [`gatherable`] the one batching rule,
//! [`Runner::run`] the one batch executor (scheduled batches and
//! quarantine probes alike) and [`Scheduler::publish`] the one place
//! results, stats and telemetry leave the worker.

use super::supervisor::{Episode, Supervisor};
use super::{BatchExec, BatchPolicy, EngineStats, RequestId, SessionId, StepGate};
use crate::error::RuntimeError;
use crate::kv::DecodeSession;
use crate::obs::{self, BatchClose};
use crate::plan::CompiledPlan;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::{atomic::AtomicU64, atomic::Ordering, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// The shortest quiet poll the gather loop sleeps out on the condvar.
/// A timed wait oversleeps by the kernel's timer slack — 50 µs by
/// default for a normal Linux thread — so a 3 µs poll slept out returns
/// after ~55 µs. A shorter poll is spun out instead, with the lock
/// released ([`spins`]).
const MIN_SLEEP: Duration = Duration::from_micros(50);

/// What a queued request asks the worker to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Work {
    /// A stateless single-row forward (the original engine traffic).
    Infer,
    /// Full-prompt prefill into session `sid` (executes alone).
    Prefill { sid: u64 },
    /// One decode step advancing session `sid` by one token.
    Decode { sid: u64 },
}

impl Work {
    /// The session this work touches, if any.
    fn sid(&self) -> Option<u64> {
        match self {
            Work::Infer => None,
            Work::Prefill { sid } | Work::Decode { sid } => Some(*sid),
        }
    }
}

/// One queued request.
pub(super) struct Queued {
    pub(super) id: u64,
    pub(super) work: Work,
    pub(super) input: Vec<f32>,
    /// Submit timestamp ([`obs::now`]): telemetry, and where the
    /// `max_wait` cap of the batch this request heads starts.
    pub(super) submitted: u64,
}

/// What a request resolves to.
type Outcome = Result<Vec<f32>, RuntimeError>;

/// Per-request `(id, outcome)` pairs one batch yields.
pub(super) type BatchResults = Vec<(u64, Outcome)>;

/// Where a request is in its life. The table holds one entry per id the
/// engine still owes an answer, so a missing entry *is* "unknown or
/// already taken" — results leave the engine exactly once.
enum Flight {
    /// In the submit queue.
    Queued,
    /// Drained from the queue; its batch is executing.
    Executing,
    /// Executing, but the caller gave up ([`super::Engine::cancel`]):
    /// the result is dropped on publish instead of parking forever.
    Abandoned,
    /// Finished; waiting to be taken.
    Done(Outcome),
}

/// One open decode session as the scheduler tracks it.
struct SessionSlot {
    /// The session itself; `None` while the worker holds it for an
    /// executing batch.
    session: Option<DecodeSession>,
    /// Cache bytes this session pins (fixed at open).
    bytes: usize,
    /// Close was requested while the worker held the session: the
    /// worker drops it at the batch boundary instead of returning it.
    closed: bool,
}

#[derive(Default)]
struct State {
    queue: VecDeque<Queued>,
    flights: HashMap<u64, Flight>,
    sessions: HashMap<u64, SessionSlot>,
    /// Sum of `bytes` over `sessions` (the `ant_kv_cache_bytes` gauge).
    kv_bytes: usize,
    next_sid: u64,
    next_id: u64,
    shutdown: bool,
    /// Set when the worker thread died by panic (a strictly stronger
    /// condition than `shutdown`): every result is already failed and no
    /// future request can complete.
    worker_panicked: bool,
    stats: EngineStats,
}

impl State {
    /// Removes session `sid`'s slot and returns its cache to the
    /// allocator, maintaining the byte gauge.
    fn free_session(&mut self, sid: u64) {
        if let Some(slot) = self.sessions.remove(&sid) {
            self.kv_bytes -= slot.bytes;
        }
        obs::metrics().kv_cache_usage(self.kv_bytes, self.sessions.len());
    }

    /// Takes `sid`'s session out of its slot so a batch can advance it by
    /// `tokens`. A missing, closed or exhausted session fails its own
    /// request alone (the exhausted one stays in its slot).
    fn claim_session(&mut self, sid: u64, tokens: usize) -> Result<DecodeSession, RuntimeError> {
        let not_open = || RuntimeError::Engine(format!("session {sid} is not open"));
        let slot = self.sessions.get_mut(&sid).ok_or_else(not_open)?;
        let sess = slot.session.take().ok_or_else(not_open)?;
        if sess.tokens() + tokens > sess.max_tokens() {
            let capacity = sess.max_tokens();
            slot.session = Some(sess);
            return Err(RuntimeError::KvCacheFull { capacity });
        }
        Ok(sess)
    }

    /// Takes `id`'s result out of the table, if its batch has finished.
    fn take_done(&mut self, id: u64) -> Option<Outcome> {
        if let Some(Flight::Done(_)) = self.flights.get(&id) {
            if let Some(Flight::Done(outcome)) = self.flights.remove(&id) {
                return Some(outcome);
            }
        }
        None
    }

    /// The `Engine`/`wait` error for a dead engine, distinguishing a
    /// panicked worker from an orderly shutdown.
    fn shutdown_error(&self) -> RuntimeError {
        RuntimeError::Engine(if self.worker_panicked {
            "engine worker panicked; engine is dead".to_string()
        } else {
            "engine is shut down".to_string()
        })
    }
}

/// The state every [`super::Engine`] handle and the worker share.
#[derive(Default)]
pub(super) struct Scheduler {
    state: Mutex<State>,
    work_cv: Condvar,
    done_cv: Condvar,
    /// Requests ever admitted, bumped by [`Self::submit`] under the
    /// lock: what a spinning quiet poll watches for growth. `Relaxed`
    /// throughout — it publishes nothing; the queue it hints at is read
    /// under the lock.
    arrivals: AtomicU64,
    policy: BatchPolicy,
}

impl Scheduler {
    pub(super) fn new(policy: BatchPolicy) -> Self {
        Scheduler {
            policy,
            ..Scheduler::default()
        }
    }

    /// Locks the state, recovering from poison: a panicking worker must
    /// leave the engine *observable* (so [`super::Engine::wait`] can
    /// report the death), not wedge every caller behind a poisoned mutex.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The one admission path: engine alive, queue not full and — for
    /// session work — the session open (and not pending close). Pushes
    /// the (shape-validated) request and wakes the worker.
    pub(super) fn submit(&self, work: Work, input: &[f32]) -> Result<RequestId, RuntimeError> {
        let mut state = self.lock();
        if state.shutdown {
            return Err(state.shutdown_error());
        }
        if state.queue.len() >= self.policy.max_queue {
            return Err(RuntimeError::Overloaded {
                queued: state.queue.len(),
                max_queue: self.policy.max_queue,
            });
        }
        if let Some(sid) = work.sid() {
            if state.sessions.get(&sid).is_none_or(|slot| slot.closed) {
                return Err(RuntimeError::Engine(format!("session {sid} is not open")));
            }
        }
        let id = state.next_id;
        state.next_id += 1;
        state.stats.submitted += 1;
        state.flights.insert(id, Flight::Queued);
        state.queue.push_back(Queued {
            id,
            work,
            input: input.to_vec(),
            submitted: obs::now(),
        });
        self.arrivals.fetch_add(1, Ordering::Relaxed);
        let m = obs::metrics();
        m.engine_submit();
        m.engine_queue_depth(state.queue.len());
        drop(state);
        self.work_cv.notify_one();
        Ok(RequestId(id))
    }

    /// Registers a freshly opened session; its bytes stay pinned until
    /// [`Self::close_session`].
    pub(super) fn open_session(&self, session: DecodeSession) -> Result<SessionId, RuntimeError> {
        let bytes = session.kv_bytes();
        let mut state = self.lock();
        if state.shutdown {
            return Err(state.shutdown_error());
        }
        let sid = state.next_sid;
        state.next_sid += 1;
        state.sessions.insert(
            sid,
            SessionSlot {
                session: Some(session),
                bytes,
                closed: false,
            },
        );
        state.kv_bytes += bytes;
        obs::metrics().kv_cache_usage(state.kv_bytes, state.sessions.len());
        Ok(SessionId(sid))
    }

    /// See [`super::Engine::close_session`].
    pub(super) fn close_session(&self, sid: u64) -> bool {
        let mut guard = self.lock();
        let state = &mut *guard;
        match state.sessions.get_mut(&sid) {
            None => return false,
            Some(slot) if slot.closed => return false,
            Some(slot) if slot.session.is_none() => slot.closed = true,
            Some(_) => state.free_session(sid),
        }
        // Fail queued work targeting the closed session so callers
        // don't wait on steps that will never run.
        let before = state.queue.len();
        state.queue.retain(|q| {
            let orphaned = q.work.sid() == Some(sid);
            if orphaned {
                let err = RuntimeError::Engine(format!("session {sid} was closed"));
                state.flights.insert(q.id, Flight::Done(Err(err)));
            }
            !orphaned
        });
        obs::metrics().engine_queue_depth(state.queue.len());
        let woke = state.queue.len() < before;
        drop(guard);
        if woke {
            self.done_cv.notify_all();
        }
        true
    }

    /// See [`super::Engine::poll`].
    pub(super) fn poll(&self, id: u64) -> Option<Outcome> {
        self.lock().take_done(id)
    }

    /// The condvar loop behind [`super::Engine::wait`] (no deadline) and
    /// [`super::Engine::wait_timeout`] (deadline): take the result if
    /// present, error on unknown/taken ids and dead engines, otherwise
    /// sleep on `done_cv` until woken or past the deadline.
    pub(super) fn wait_deadline(
        &self,
        id: u64,
        deadline: Option<Instant>,
    ) -> Result<Option<Vec<f32>>, RuntimeError> {
        let mut state = self.lock();
        loop {
            if let Some(outcome) = state.take_done(id) {
                return outcome.map(Some);
            }
            if !state.flights.contains_key(&id) {
                return Err(RuntimeError::Engine(format!(
                    "request {id} is unknown or its result was already taken"
                )));
            }
            if state.shutdown {
                return Err(state.shutdown_error());
            }
            state = match deadline {
                None => self
                    .done_cv
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner),
                Some(d) => {
                    let left = d.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return Ok(None);
                    }
                    self.done_cv
                        .wait_timeout(state, left)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0
                }
            };
        }
    }

    /// See [`super::Engine::cancel`].
    pub(super) fn cancel(&self, id: u64) -> bool {
        let mut guard = self.lock();
        let state = &mut *guard;
        match state.flights.get_mut(&id) {
            None => return false,
            Some(flight @ (Flight::Executing | Flight::Abandoned)) => {
                *flight = Flight::Abandoned;
                return true;
            }
            Some(Flight::Queued) => {
                state.queue.retain(|q| q.id != id);
                obs::metrics().engine_queue_depth(state.queue.len());
            }
            Some(Flight::Done(_)) => {}
        }
        state.flights.remove(&id);
        true
    }

    pub(super) fn session_count(&self) -> usize {
        self.lock().sessions.len()
    }

    pub(super) fn kv_bytes(&self) -> usize {
        self.lock().kv_bytes
    }

    pub(super) fn queue_depth(&self) -> usize {
        self.lock().queue.len()
    }

    pub(super) fn stats(&self) -> EngineStats {
        self.lock().stats
    }

    pub(super) fn is_dead(&self) -> bool {
        self.lock().worker_panicked
    }

    /// Orderly shutdown ([`super::Engine`]'s `Drop`): the worker drains
    /// what is queued and exits; waiters wake.
    pub(super) fn shut_down(&self) {
        self.lock().shutdown = true;
        self.work_cv.notify_all();
        self.done_cv.notify_all();
    }

    /// The worker: gather a same-kind batch under the policy, execute it
    /// **under supervision**, publish, repeat. Queued work is drained
    /// even during shutdown so submitted requests are never silently
    /// dropped. The engine dies only when the supervisor gives up.
    ///
    /// The wall time of each execution, capped at `max_wait`, is the
    /// next gather's quiet poll ([`Self::next_batch`]). Until a batch has
    /// run there is no service time to go by, so the first poll is the
    /// cap.
    pub(super) fn work(&self, mut runner: Runner, mut supervisor: Supervisor) {
        let m = obs::metrics();
        let mut quiet = self.policy.max_wait;
        while let Some(batch) = self.next_batch(quiet) {
            let dispatch = obs::now();
            for q in &batch {
                m.engine_request_wait(dispatch.saturating_sub(q.submitted));
            }
            // Only stateless work can be re-run to isolate an offender.
            let rerunnable = batch[0].work == Work::Infer;
            let episode = supervisor.execute(&batch, rerunnable, &mut |b| runner.run(self, b));
            let service = obs::now().saturating_sub(dispatch);
            quiet = Duration::from_nanos(service).min(self.policy.max_wait);
            match episode {
                Ok(episode) => self.publish(&batch, dispatch, service, episode),
                Err(msg) => return self.fail_after_worker_panic(&msg),
            }
            std::thread::sleep(supervisor.backoff());
        }
    }

    /// Blocks for work, then gathers the run at the queue head while it
    /// is *open* ([`gatherable`]). The run dispatches as soon as it has
    /// not grown for one `quiet` poll, or once `max_wait` has passed
    /// since its head request was submitted — not since gathering began,
    /// so a request that queued behind a long batch does not wait a
    /// second window. A closed run dispatches at once. Holding a run for
    /// longer than one service time costs its head more than dispatching
    /// now costs a late companion, which waits at most one service time
    /// behind it. A poll shorter than [`MIN_SLEEP`] is spun out with the
    /// lock released, watching the arrival counter, because a condvar
    /// wait that short oversleeps by the timer slack. `None` once the
    /// engine shut down and the queue drained.
    fn next_batch(&self, quiet: Duration) -> Option<Vec<Queued>> {
        let mut state = self.lock();
        loop {
            while state.queue.is_empty() && !state.shutdown {
                state = self
                    .work_cv
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            if state.queue.is_empty() {
                return None;
            }
            // The run's longest length so far, and when it reached it.
            // Timing the poll from there, not from the last wake-up,
            // keeps a wake-up that brought nothing new (a notify for an
            // arrival already counted) from closing the run early.
            let (mut longest, mut grew) = (0, 0);
            let (take, why) = loop {
                let (take, close) =
                    gatherable(&state.queue, self.policy.max_batch, state.sessions.len());
                if let Some(why) = close {
                    break (take, why);
                }
                let Some(head) = state.queue.front() else {
                    break (0, BatchClose::Quiet);
                };
                let now = obs::now();
                let since = |t: u64| Duration::from_nanos(now.saturating_sub(t));
                let left = self.policy.max_wait.saturating_sub(since(head.submitted));
                if left.is_zero() {
                    break (take, BatchClose::Cap);
                }
                if take > longest {
                    (longest, grew) = (take, now);
                }
                let poll = quiet.saturating_sub(since(grew));
                // After shutdown nothing can be admitted to grow the run.
                if state.shutdown || poll.is_zero() {
                    break (take, BatchClose::Quiet);
                }
                let wait = poll.min(left);
                if !spins(wait, MIN_SLEEP) {
                    let woke = self.work_cv.wait_timeout(state, wait);
                    state = woke.unwrap_or_else(PoisonError::into_inner).0;
                    continue;
                }
                // `seen` is read under the lock: any later submit changes it.
                let (seen, until) = (self.arrivals.load(Ordering::Relaxed), Instant::now() + wait);
                drop(state);
                while self.arrivals.load(Ordering::Relaxed) == seen && Instant::now() < until {
                    std::hint::spin_loop();
                }
                state = self.lock();
            };
            // take == 0: every gathered request was cancelled out of the
            // queue while the run was gathering; nothing to run.
            if take > 0 {
                let batch: Vec<Queued> = state.queue.drain(..take).collect();
                for q in &batch {
                    state.flights.insert(q.id, Flight::Executing);
                }
                let m = obs::metrics();
                m.engine_queue_depth(state.queue.len());
                m.engine_batch_close(why);
                return Some(batch);
            }
        }
    }

    /// The one place a finished episode leaves the worker: both stat
    /// sinks (the `ant-obs` registry and [`EngineStats`]) are fed,
    /// results move into the request table — or are dropped, for
    /// abandoned ids — and waiters wake. A panicked prefill/decode
    /// batch's sessions are closed and freed here: their KV state is
    /// unknowable after a partial append (and the claimed caches went
    /// with the unwind), so the byte/session gauges drain.
    fn publish(&self, batch: &[Queued], dispatch: u64, dur: u64, episode: Episode) {
        let decode_steps = match batch[0].work {
            Work::Decode { .. } => episode.step_count,
            _ => 0,
        };
        let m = obs::metrics();
        if decode_steps > 0 {
            m.engine_decode_batch(dispatch, dur, decode_steps);
        } else {
            m.engine_batch_done(dispatch, dur, batch.len());
        }
        if episode.restarted > 0 {
            m.engine_restart();
        }
        if episode.poisoned > 0 {
            m.engine_poisoned(episode.poisoned);
        }
        if episode.probes > 0 {
            m.engine_quarantine_probes(episode.probes);
        }
        let mut state = self.lock();
        let stats = &mut state.stats;
        stats.batches += 1;
        stats.largest_batch = stats.largest_batch.max(batch.len());
        stats.completed += batch.len() as u64;
        stats.restarts += episode.restarted;
        stats.poisoned += episode.poisoned;
        stats.quarantine_probes += episode.probes;
        if let Work::Prefill { .. } = batch[0].work {
            stats.prefills += 1;
        }
        if decode_steps > 0 {
            stats.decode_batches += 1;
            stats.decode_tokens += decode_steps as u64;
            stats.largest_decode_batch = stats.largest_decode_batch.max(decode_steps);
        }
        if episode.restarted > 0 {
            for sid in batch.iter().filter_map(|q| q.work.sid()) {
                state.free_session(sid);
            }
        }
        for (id, outcome) in episode.results {
            match state.flights.get_mut(&id) {
                Some(Flight::Abandoned) => {
                    state.flights.remove(&id); // caller timed out and cancelled
                }
                Some(flight) => *flight = Flight::Done(outcome),
                None => {}
            }
        }
        drop(state);
        self.done_cv.notify_all();
    }

    /// The worker died by panic: mark the engine dead, fail every request
    /// still inside it (queued or mid-batch), and wake all waiters so
    /// [`super::Engine::wait`] returns an error instead of blocking
    /// forever on a worker that will never publish again.
    pub(super) fn fail_after_worker_panic(&self, msg: &str) {
        let mut state = self.lock();
        state.shutdown = true;
        state.worker_panicked = true;
        state.queue.clear();
        state.flights.retain(|_, flight| match flight {
            Flight::Done(_) => true,
            Flight::Abandoned => false,
            Flight::Queued | Flight::Executing => {
                let err = RuntimeError::Engine(format!("engine worker panicked: {msg}"));
                *flight = Flight::Done(Err(err));
                true
            }
        });
        // Sessions the dead worker held are gone with its stack; the rest
        // can never be served again. Drop them all so the byte gauge stays
        // truthful.
        state.sessions.clear();
        state.kv_bytes = 0;
        let m = obs::metrics();
        m.kv_cache_usage(0, 0);
        m.engine_queue_depth(0);
        drop(state);
        self.work_cv.notify_all();
        self.done_cv.notify_all();
    }

    /// Returns a claimed session to its slot — unless the caller closed
    /// it while the batch ran, in which case the cache is freed right
    /// now (the eager-release half of [`super::Engine::close_session`]).
    fn return_session(&self, sid: u64, sess: DecodeSession) {
        let mut state = self.lock();
        match state.sessions.get_mut(&sid) {
            Some(slot) if !slot.closed => slot.session = Some(sess),
            _ => {
                drop(sess);
                state.free_session(sid);
            }
        }
    }
}

/// The executable same-kind run at the queue head, and why it is
/// *closed* — `None` while it is open, that is while waiting could grow
/// it. Infer requests batch with infer requests, decode steps with
/// decode steps **from distinct sessions** (a session advances at most
/// one token per batch — steps are sequentially dependent), and a
/// prefill always runs alone. A run is closed once it is a prefill, is
/// full, or is followed in the FIFO by a request that could not join it
/// (order forbids overtaking, so no later arrival can join either), and
/// a decode run once it holds a step from every one of the `sessions`
/// open sessions: no session is left that could join it.
fn gatherable(
    queue: &VecDeque<Queued>,
    max_batch: usize,
    sessions: usize,
) -> (usize, Option<BatchClose>) {
    let Some(head) = queue.front() else {
        return (0, None);
    };
    let run = queue.iter().take(max_batch);
    let take = match head.work {
        Work::Prefill { .. } => 1,
        Work::Infer => run.take_while(|q| q.work == Work::Infer).count(),
        Work::Decode { .. } => {
            let mut sids = HashSet::new();
            run.take_while(|q| matches!(q.work, Work::Decode { sid } if sids.insert(sid)))
                .count()
        }
    };
    let close = match head.work {
        Work::Prefill { .. } => Some(BatchClose::Prefill),
        _ if take == max_batch => Some(BatchClose::Full),
        _ if take < queue.len() => Some(BatchClose::Blocked),
        Work::Decode { .. } if take >= sessions => Some(BatchClose::Sessions),
        _ => None,
    };
    (take, close)
}

/// Whether the gather loop spins out a quiet `poll` rather than sleeping
/// on the condvar: a timed wait shorter than `min_sleep` would oversleep
/// by the kernel's timer slack.
fn spins(poll: Duration, min_sleep: Duration) -> bool {
    poll < min_sleep
}

/// The worker's executor: the plan, the injected seams, and the
/// input-stacking and output buffers, which persist across batches —
/// the plan executes through its scratch arena, so a steady-state batch
/// costs one allocation per *request* (the result row handed to the
/// caller), not one per intermediate.
pub(super) struct Runner {
    plan: CompiledPlan,
    exec: BatchExec,
    step_gate: Option<StepGate>,
    stacked: Vec<f32>,
    outputs: Vec<f32>,
}

impl Runner {
    pub(super) fn new(plan: CompiledPlan, exec: BatchExec, step_gate: Option<StepGate>) -> Self {
        Runner {
            plan,
            exec,
            step_gate,
            stacked: Vec::new(),
            outputs: Vec::new(),
        }
    }

    /// Executes one same-kind batch — infer rows, a lone prefill or a
    /// coalesced decode step: claims the sessions session work names,
    /// stacks the inputs into one `[b, features]` slice, runs the plan,
    /// splits the output back into per-request rows and returns the
    /// sessions to their slots. Returns the per-request results plus how
    /// many sessions actually advanced. Called both for the scheduled
    /// batch and for quarantine probes over its subsets, so the chaos
    /// poison scan at the top re-triggers on exactly the poisoned members
    /// during bisection.
    fn run(&mut self, sched: &Scheduler, batch: &[Queued]) -> (BatchResults, usize) {
        crate::chaos::assert_unpoisoned(batch.iter().map(|q| q.input.as_slice()));
        let mut results = BatchResults::with_capacity(batch.len());
        let mut ready: Vec<&Queued> = Vec::with_capacity(batch.len());
        // The sessions `ready` advances, index for index (none for infer).
        let mut held: Vec<(u64, DecodeSession)> = Vec::new();
        if batch[0].work == Work::Infer {
            ready.extend(batch);
        } else {
            let dim = self.plan.token_dim().unwrap_or(1).max(1);
            let mut state = sched.lock();
            for q in batch {
                let sid = q.work.sid().expect("step batches carry session work");
                match state.claim_session(sid, q.input.len() / dim) {
                    Ok(sess) => {
                        ready.push(q);
                        held.push((sid, sess));
                    }
                    Err(e) => results.push((q.id, Err(e))),
                }
            }
            drop(state);
            if let Some(gate) = self.step_gate.as_mut() {
                gate();
            }
        }
        let features = ready.first().map_or(0, |q| q.input.len());
        if ready.iter().any(|q| q.input.len() != features) {
            // Heterogeneous rows can only happen when the plan has no
            // pinned input width; fail each request individually.
            for q in &ready {
                let err = RuntimeError::Engine("mixed feature counts in batch".to_string());
                deliver(&mut results, std::slice::from_ref(q), Err(err), &[]);
            }
        } else if !ready.is_empty() {
            self.stacked.clear();
            for q in &ready {
                self.stacked.extend_from_slice(&q.input);
            }
            let (plan, x, out) = (&mut self.plan, &self.stacked, &mut self.outputs);
            let outcome = match batch[0].work {
                Work::Infer => (self.exec)(plan, x, ready.len(), out),
                Work::Prefill { .. } => plan.prefill(&mut held[0].1, x, out),
                Work::Decode { .. } => {
                    let mut refs: Vec<&mut DecodeSession> =
                        held.iter_mut().map(|(_, s)| s).collect();
                    plan.decode_steps(&mut refs, x, out)
                }
            };
            let rows = match batch[0].work {
                // A prefill's serving result is the last token's row —
                // the next-token state a sampler consumes.
                Work::Prefill { .. } => &out[out.len() - out.len() / held[0].1.tokens().max(1)..],
                _ => &out[..],
            };
            deliver(&mut results, &ready, outcome, rows);
        }
        let step_count = held.len();
        for (sid, sess) in held {
            sched.return_session(sid, sess);
        }
        (results, step_count)
    }
}

/// Turns one execution's outcome into per-request results: the output
/// buffer splits into equal rows, one per request, in order; an error
/// stays structured for a lone request and spreads to coalesced ones as
/// its text (the failing member is unknown).
fn deliver(
    results: &mut BatchResults,
    ready: &[&Queued],
    outcome: Result<(), RuntimeError>,
    rows: &[f32],
) {
    match outcome {
        Ok(()) => {
            let per = rows.len() / ready.len();
            let row = |i: usize| rows[i * per..(i + 1) * per].to_vec();
            results.extend(ready.iter().enumerate().map(|(i, q)| (q.id, Ok(row(i)))));
        }
        Err(e) if ready.len() == 1 => results.push((ready[0].id, Err(e))),
        Err(e) => {
            let text = e.to_string();
            results.extend(
                ready
                    .iter()
                    .map(|q| (q.id, Err(RuntimeError::Engine(text.clone())))),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const I: Work = Work::Infer;
    const fn p(sid: u64) -> Work {
        Work::Prefill { sid }
    }
    const fn d(sid: u64) -> Work {
        Work::Decode { sid }
    }

    #[test]
    fn gatherable_takes_the_head_run_and_says_whether_waiting_could_grow_it() {
        use BatchClose::{Blocked, Full, Prefill, Sessions};
        // (case, queue, max_batch, open sessions, (take, close))
        type Case<'a> = (
            &'a str,
            &'a [Work],
            usize,
            usize,
            (usize, Option<BatchClose>),
        );
        let cases: &[Case<'_>] = &[
            ("empty queue", &[], 4, 0, (0, None)),
            ("infer run under max_batch", &[I, I, I], 4, 0, (3, None)),
            (
                "infer run at max_batch",
                &[I, I, I, I],
                4,
                0,
                (4, Some(Full)),
            ),
            (
                "infer run past max_batch",
                &[I, I, I, I, I, I],
                4,
                0,
                (4, Some(Full)),
            ),
            (
                "decode steps of distinct sessions, one session missing",
                &[d(1), d(2), d(3)],
                4,
                4,
                (3, None),
            ),
            (
                "a step from every open session closes the run",
                &[d(1), d(2), d(3)],
                4,
                3,
                (3, Some(Sessions)),
            ),
            (
                "a full run is full before it is every session",
                &[d(1), d(2), d(3), d(4)],
                4,
                4,
                (4, Some(Full)),
            ),
            (
                "a repeated session closes the run",
                &[d(1), d(2), d(1), d(3)],
                8,
                3,
                (2, Some(Blocked)),
            ),
            (
                "a lone step of one of two sessions stays open",
                &[d(1)],
                4,
                2,
                (1, None),
            ),
            (
                "a lone step of the only session is closed",
                &[d(1)],
                4,
                1,
                (1, Some(Sessions)),
            ),
            (
                "a prefill alone is closed",
                &[p(1)],
                4,
                1,
                (1, Some(Prefill)),
            ),
            (
                "a prefill takes nothing with it",
                &[p(1), p(2), d(3)],
                4,
                3,
                (1, Some(Prefill)),
            ),
            (
                "infer run closed by a decode step",
                &[I, I, d(1)],
                4,
                1,
                (2, Some(Blocked)),
            ),
            (
                "infer runs ignore the session count",
                &[I, I],
                4,
                2,
                (2, None),
            ),
            (
                "decode run closed by a prefill",
                &[d(1), p(2)],
                4,
                2,
                (1, Some(Blocked)),
            ),
            (
                "decode run closed by an infer",
                &[d(1), d(2), I, d(3)],
                4,
                3,
                (2, Some(Blocked)),
            ),
        ];
        for (name, works, max_batch, sessions, want) in cases {
            let queue: VecDeque<Queued> = works
                .iter()
                .zip(0..)
                .map(|(&work, id)| Queued {
                    id,
                    work,
                    input: Vec::new(),
                    submitted: 0,
                })
                .collect();
            assert_eq!(gatherable(&queue, *max_batch, *sessions), *want, "{name}");
        }
    }

    #[test]
    fn a_poll_shorter_than_the_minimum_sleep_spins_and_any_other_sleeps() {
        let us = Duration::from_micros;
        // (poll, min_sleep, spins)
        let cases = [
            (us(3), MIN_SLEEP, true),
            (MIN_SLEEP - Duration::from_nanos(1), MIN_SLEEP, true),
            (MIN_SLEEP, MIN_SLEEP, false),
            (us(800), MIN_SLEEP, false),
            (us(3), us(0), false),
            (us(0), us(1), true),
        ];
        for (poll, min_sleep, want) in cases {
            assert_eq!(spins(poll, min_sleep), want, "{poll:?} vs {min_sleep:?}");
        }
    }
}
