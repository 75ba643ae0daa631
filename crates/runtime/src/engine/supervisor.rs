//! The supervisor: what a panicking batch costs, and nothing else.
//!
//! [`Supervisor::execute`] runs one batch through a caller-supplied
//! runner and absorbs its panics. It holds every `catch_unwind` of the
//! engine except the worker thread's backstop, and knows no lock, queue
//! or session — it sees a batch as a slice of requests with ids and the
//! runner as a closure, so its whole policy is unit-testable without a
//! thread. With `max_restarts = 0` it *is* the unsupervised engine: the
//! first panic is an `Err`, and the worker dies.

use super::scheduler::{BatchResults, Queued};
use crate::chaos::{self, FaultSite};
use crate::error::RuntimeError;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// What one supervised batch episode produced: the per-request results
/// to publish plus the supervision counters it moved.
pub(super) struct Episode {
    pub(super) results: BatchResults,
    /// Sessions a prefill/decode batch actually advanced.
    pub(super) step_count: usize,
    /// 1 when the supervisor absorbed a panic this episode.
    pub(super) restarted: u64,
    pub(super) poisoned: u64,
    pub(super) probes: u64,
}

impl Episode {
    /// Fails `id` as the isolated cause of a panic.
    fn poison(&mut self, id: u64, message: String) {
        self.poisoned += 1;
        self.results
            .push((id, Err(RuntimeError::PoisonedRequest { message })));
    }
}

/// The restart budget ([`super::BatchPolicy::max_restarts`] and
/// [`super::BatchPolicy::restart_backoff`]) and how much of it is spent.
pub(super) struct Supervisor {
    max_restarts: u32,
    restart_backoff: Duration,
    /// Consecutive panicked episodes; any successful execution
    /// (including a quarantine probe) resets it.
    consecutive_panics: u32,
}

impl Supervisor {
    pub(super) fn new(max_restarts: u32, restart_backoff: Duration) -> Self {
        Supervisor {
            max_restarts,
            restart_backoff,
            consecutive_panics: 0,
        }
    }

    /// Runs `batch` under `catch_unwind` and decides what a panic costs.
    ///
    /// A `rerunnable` (stateless infer) batch that panics is re-run in
    /// bisection to isolate the poisoned request(s) — innocents are
    /// transparently re-executed, offenders fail with
    /// [`RuntimeError::PoisonedRequest`]. A prefill/decode batch cannot
    /// be re-run (the unwind may have interrupted a partial KV append,
    /// so the scheduler closes its sessions on publish): one that ran
    /// *alone* isolates its offender by construction and fails it as
    /// `PoisonedRequest`; members of a coalesced step fail with a
    /// retriable engine error, because the panicking member is unknown.
    ///
    /// `Err(message)` means `max_restarts` *consecutive* episodes
    /// panicked: the engine can no longer execute anything and must die.
    /// The `catch_unwind` wrapper allocates nothing on the non-panicking
    /// path.
    pub(super) fn execute(
        &mut self,
        batch: &[Queued],
        rerunnable: bool,
        run: &mut dyn FnMut(&[Queued]) -> (BatchResults, usize),
    ) -> Result<Episode, String> {
        let first = catch_unwind(AssertUnwindSafe(|| {
            chaos::maybe_slow(FaultSite::SlowBatch);
            chaos::maybe_panic(FaultSite::WorkerPanic);
            run(batch)
        }));
        let mut episode = Episode {
            results: Vec::new(),
            step_count: 0,
            restarted: 0,
            poisoned: 0,
            probes: 0,
        };
        let msg = match first {
            Ok((results, step_count)) => {
                self.consecutive_panics = 0;
                episode.results = results;
                episode.step_count = step_count;
                return Ok(episode);
            }
            Err(payload) => panic_message(payload),
        };
        self.consecutive_panics += 1;
        if self.consecutive_panics > self.max_restarts {
            eprintln!(
                "engine: batch execution panicked ({msg}); restart budget \
                 ({}) exhausted -- engine is dead",
                self.max_restarts
            );
            return Err(msg);
        }
        eprintln!(
            "engine: batch execution panicked ({msg}); supervisor recovering \
             (restart {}/{})",
            self.consecutive_panics, self.max_restarts
        );
        episode.restarted = 1;
        episode.results.reserve(batch.len());
        match batch {
            [lone] if rerunnable => episode.poison(lone.id, msg),
            [lone] => episode.poison(
                lone.id,
                format!("{msg} (ran alone; its session was closed)"),
            ),
            _ if rerunnable => self.bisect(batch, run, &mut episode),
            _ => episode.results.extend(batch.iter().map(|q| {
                let text =
                    format!("engine worker panicked during a decode step; session closed: {msg}");
                (q.id, Err(RuntimeError::Engine(text)))
            })),
        }
        Ok(episode)
    }

    /// Isolates the poisoned request(s) of a panicked batch of two or
    /// more: halves of a known-panicking subset are re-executed under
    /// `catch_unwind`; a half that completes delivers its (innocent)
    /// results — bit-identical to a fault-free run, since integer
    /// execution is grouping-independent — while a panicking half
    /// shrinks further, and a member that panics alone is the offender.
    /// Costs O(k·log n) probes for k offenders in a batch of n.
    fn bisect(
        &mut self,
        batch: &[Queued],
        run: &mut dyn FnMut(&[Queued]) -> (BatchResults, usize),
        episode: &mut Episode,
    ) {
        // Subsets known to panic as a whole, shrunk by halving.
        let mut suspect: Vec<&[Queued]> = vec![batch];
        while let Some(sub) = suspect.pop() {
            let (left, right) = sub.split_at(sub.len() / 2);
            for half in [left, right] {
                episode.probes += 1;
                match catch_unwind(AssertUnwindSafe(|| run(half))) {
                    Ok((results, _)) => {
                        // The plan still executes work: isolated poison,
                        // not a broken engine.
                        self.consecutive_panics = 0;
                        episode.results.extend(results);
                    }
                    Err(payload) if half.len() == 1 => {
                        episode.poison(half[0].id, panic_message(payload))
                    }
                    Err(_) => suspect.push(half),
                }
            }
        }
    }

    /// How long the worker should pause before scheduling again: zero
    /// while healthy; after an absorbed panic that did not prove the
    /// engine healthy (no successful execution since), `restart_backoff`
    /// doubling per consecutive panic and capped at 1 s — don't spin on
    /// a broken plan at full speed.
    pub(super) fn backoff(&self) -> Duration {
        match self.consecutive_panics.checked_sub(1) {
            None => Duration::ZERO,
            Some(doublings) => self
                .restart_backoff
                .saturating_mul(1u32 << doublings.min(16))
                .min(Duration::from_secs(1)),
        }
    }
}

/// Renders a panic payload the way `std` would print it. Takes the box
/// by value: a `&Box<dyn Any>` argument would unsize-coerce to a
/// `&dyn Any` *of the box itself*, and every downcast would miss.
pub(super) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::super::scheduler::Work;
    use super::*;

    fn batch(ids: std::ops::Range<u64>, work: impl Fn(u64) -> Work) -> Vec<Queued> {
        ids.map(|id| Queued {
            id,
            work: work(id),
            input: Vec::new(),
            submitted: 0,
        })
        .collect()
    }

    /// A runner that panics when any member of the (sub-)batch is in
    /// `poisoned`, and otherwise answers every id with its own value.
    /// `calls` counts executions.
    fn runner<'a>(
        poisoned: &'a [u64],
        calls: &'a mut usize,
    ) -> impl FnMut(&[Queued]) -> (BatchResults, usize) + 'a {
        move |sub| {
            *calls += 1;
            if let Some(q) = sub.iter().find(|q| poisoned.contains(&q.id)) {
                panic!("request {} is poison", q.id);
            }
            let results = sub.iter().map(|q| (q.id, Ok(vec![q.id as f32]))).collect();
            (results, sub.len())
        }
    }

    fn streak(max_restarts: u32, consecutive_panics: u32) -> Supervisor {
        Supervisor {
            consecutive_panics,
            ..Supervisor::new(max_restarts, Duration::from_millis(10))
        }
    }

    #[test]
    fn clean_batch_moves_no_counter_and_ends_a_panic_streak() {
        let mut sup = streak(3, 2);
        let mut calls = 0;
        let b = batch(0..4, |_| Work::Infer);
        let ep = sup.execute(&b, true, &mut runner(&[], &mut calls)).unwrap();
        assert_eq!((ep.restarted, ep.poisoned, ep.probes), (0, 0, 0));
        assert_eq!(ep.step_count, 4);
        assert_eq!(ep.results.len(), 4);
        assert!(ep
            .results
            .iter()
            .all(|(id, r)| r.as_ref().unwrap() == &[*id as f32]));
        assert_eq!(calls, 1, "a clean batch runs exactly once");
        assert_eq!(sup.consecutive_panics, 0);
        assert_eq!(sup.backoff(), Duration::ZERO);
    }

    #[test]
    fn bisection_fails_exactly_the_poisoned_and_delivers_each_innocent_once() {
        let cases: &[(u64, &[u64])] = &[
            (2, &[1]),
            (3, &[2]),
            (8, &[5]),
            (8, &[0, 7]),
            (8, &[2, 3]),
            (13, &[0, 6, 12]),
            (32, &[31]),
            (4, &[0, 1, 2, 3]),
        ];
        for &(n, poisoned) in cases {
            let mut sup = streak(3, 0);
            let mut calls = 0;
            let b = batch(0..n, |_| Work::Infer);
            let ep = sup
                .execute(&b, true, &mut runner(poisoned, &mut calls))
                .unwrap();
            let k = poisoned.len() as u64;
            assert_eq!((ep.restarted, ep.poisoned), (1, k), "n={n} {poisoned:?}");
            let mut seen: Vec<u64> = ep.results.iter().map(|(id, _)| *id).collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..n).collect::<Vec<_>>(), "every id answered once");
            for (id, r) in &ep.results {
                match r {
                    Ok(row) => assert_eq!(
                        (row.as_slice(), false),
                        (&[*id as f32][..], poisoned.contains(id))
                    ),
                    Err(RuntimeError::PoisonedRequest { message }) => {
                        assert!(poisoned.contains(id), "innocent {id} failed: {message}");
                        assert!(message.contains(&format!("request {id} is poison")));
                    }
                    Err(other) => panic!("request {id}: unexpected {other}"),
                }
            }
            let levels = u64::from(n.next_power_of_two().trailing_zeros());
            assert!(
                ep.probes <= 2 * k * levels,
                "n={n} k={k}: {} probes exceed 2·k·⌈log2 n⌉",
                ep.probes
            );
            assert_eq!(calls as u64, 1 + ep.probes);
            // Any successful probe proves the plan still executes.
            assert_eq!(sup.consecutive_panics, u32::from(k == n), "n={n} k={k}");
        }
    }

    #[test]
    fn max_restarts_zero_is_the_unsupervised_engine() {
        let mut sup = streak(0, 0);
        let mut calls = 0;
        let b = batch(0..4, |_| Work::Infer);
        let err = sup
            .execute(&b, true, &mut runner(&[2], &mut calls))
            .err()
            .expect("the first panic must exhaust a zero budget");
        assert_eq!(err, "request 2 is poison");
        assert_eq!(calls, 1, "no recovery is attempted");
    }

    #[test]
    fn the_restart_budget_counts_consecutive_panicked_episodes() {
        let lone = batch(0..1, |_| Work::Infer);
        let pair = batch(0..2, |_| Work::Infer);
        let mut sup = streak(2, 0);
        let mut survives = |b: &[Queued], poisoned: &[u64]| {
            let ok = sup.execute(b, true, &mut runner(poisoned, &mut 0)).is_ok();
            (ok, sup.consecutive_panics)
        };
        // Two straight panics are absorbed; a clean batch ends the streak...
        assert_eq!(survives(&lone, &[0]), (true, 1));
        assert_eq!(survives(&lone, &[0]), (true, 2));
        assert_eq!(survives(&lone, &[]), (true, 0));
        // ...and so does a successful quarantine probe...
        assert_eq!(survives(&lone, &[0]), (true, 1));
        assert_eq!(survives(&pair, &[1]), (true, 0));
        // ...but max_restarts + 1 straight panics are fatal.
        assert_eq!(survives(&lone, &[0]), (true, 1));
        assert_eq!(survives(&lone, &[0]), (true, 2));
        assert_eq!(survives(&lone, &[0]), (false, 3));
    }

    #[test]
    fn a_panicked_step_batch_is_failed_without_being_rerun() {
        let mut sup = streak(3, 0);
        let mut calls = 0;
        let lone = batch(7..8, |sid| Work::Decode { sid });
        let ep = sup
            .execute(&lone, false, &mut runner(&[7], &mut calls))
            .unwrap();
        assert_eq!((ep.restarted, ep.poisoned, ep.probes), (1, 1, 0));
        assert!(matches!(
            &ep.results[..],
            [(7, Err(RuntimeError::PoisonedRequest { message }))] if message.contains("ran alone")
        ));
        let coalesced = batch(0..3, |sid| Work::Decode { sid });
        let ep = sup
            .execute(&coalesced, false, &mut runner(&[1], &mut calls))
            .unwrap();
        assert_eq!((ep.restarted, ep.poisoned, ep.probes), (1, 0, 0));
        assert_eq!(ep.results.len(), 3);
        for (i, (id, r)) in ep.results.iter().enumerate() {
            assert_eq!(*id, i as u64);
            assert!(
                matches!(r, Err(RuntimeError::Engine(m)) if m.contains("during a decode step")),
                "member {id} must fail with the retriable engine error"
            );
        }
        assert_eq!(calls, 2, "neither step batch was re-executed");
    }

    #[test]
    fn backoff_doubles_from_the_base_and_caps_at_one_second() {
        let ms = Duration::from_millis;
        for (panics, want) in [
            (0, Duration::ZERO),
            (1, ms(10)),
            (2, ms(20)),
            (3, ms(40)),
            (7, ms(640)),
            (8, ms(1000)),
            (u32::MAX, ms(1000)),
        ] {
            assert_eq!(streak(u32::MAX, panics).backoff(), want, "{panics} panics");
        }
        let mut no_backoff = streak(3, 5);
        no_backoff.restart_backoff = Duration::ZERO;
        assert_eq!(no_backoff.backoff(), Duration::ZERO);
    }
}
