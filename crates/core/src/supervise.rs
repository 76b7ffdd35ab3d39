//! Supervised evaluation of one sweep point: panic isolation, per-point
//! deadlines, and capped-exponential-backoff retries.
//!
//! [`pool::parallel_map`] is all-or-nothing: one bad point aborts the
//! whole map (now with the point's identity, but still an abort). A
//! long-running sweep *server* needs the opposite contract — a panicking
//! or wedged point must become a structured error row while every other
//! point keeps flowing. [`supervise`] provides that contract for a single
//! evaluation:
//!
//! * the closure runs under `catch_unwind`, so a panic becomes
//!   [`FailureKind::Panic`] carrying the payload message;
//! * with a deadline, the attempt runs on a watchdog-observed worker
//!   thread; if it does not finish in time the attempt is abandoned and
//!   becomes [`FailureKind::Deadline`] (the abandoned thread parks no
//!   resources beyond its stack and dies with the simulator's
//!   `max_instructions` runaway guard or process exit);
//! * failures are retried up to [`RetryPolicy::max_attempts`] with
//!   capped exponential backoff; a point that exhausts its budget is
//!   *poisoned* — the caller blacklists it (journals the failure row) so
//!   a `--resume` run does not burn the budget again.
//!
//! [`pool::parallel_map`]: crate::pool::parallel_map

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use crate::pool::panic_message;

/// Retry budget and backoff shape for supervised evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per point (first try included); at least 1.
    pub max_attempts: u32,
    /// Backoff before the second attempt; doubles per further attempt.
    pub backoff_base: Duration,
    /// Upper bound every backoff is clamped to.
    pub backoff_cap: Duration,
    /// Full-jitter mode: `Some(seed)` replaces each backoff with a
    /// uniform draw from `[0, backoff(n)]` (AWS-style *full jitter*),
    /// decorrelating retries across a fleet so a shared failure does not
    /// produce a synchronized retry stampede. The seed makes the draw
    /// sequence deterministic — tests and reproductions pin it — and a
    /// per-worker seed (what the coordinator passes each spawned server)
    /// is what actually spreads the fleet. `None` keeps the exact
    /// deterministic schedule.
    pub jitter_seed: Option<u64>,
}

/// A tiny deterministic PRNG (xorshift64*) used only for backoff jitter;
/// the stream is a pure function of the seed, which is what makes
/// jittered runs reproducible.
#[derive(Debug, Clone, Copy)]
pub struct JitterRng(u64);

impl JitterRng {
    /// Seeds the generator. A zero seed is remapped (xorshift has a zero
    /// fixed point).
    pub fn new(seed: u64) -> Self {
        JitterRng(if seed == 0 {
            0x9e37_79b9_7f4a_7c15
        } else {
            seed
        })
    }

    /// The next draw in `[0, bound]` (inclusive); 0 when `bound` is 0.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        let x = self.0.wrapping_mul(0x2545_f491_4f6c_dd1d);
        match bound.checked_add(1) {
            Some(n) => x % n,
            None => x,
        }
    }
}

impl RetryPolicy {
    /// No retries: one attempt, no backoff.
    pub fn once() -> Self {
        RetryPolicy {
            max_attempts: 1,
            backoff_base: Duration::ZERO,
            backoff_cap: Duration::ZERO,
            jitter_seed: None,
        }
    }

    /// The *ceiling* backoff after the `failed_attempts`-th failed
    /// attempt (1-based): `base · 2^(failed_attempts−1)`, clamped to the
    /// cap. With jitter enabled the slept backoff is a uniform draw below
    /// this ceiling ([`RetryPolicy::jittered_backoff`]).
    pub fn backoff(&self, failed_attempts: u32) -> Duration {
        let doublings = failed_attempts.saturating_sub(1).min(16);
        self.backoff_base
            .saturating_mul(1u32 << doublings)
            .min(self.backoff_cap)
    }

    /// The backoff actually slept after the `failed_attempts`-th failure:
    /// the deterministic [`RetryPolicy::backoff`] ceiling without jitter,
    /// or a full-jitter draw in `[0, ceiling]` from `rng` with it.
    pub fn jittered_backoff(&self, failed_attempts: u32, rng: &mut Option<JitterRng>) -> Duration {
        let ceiling = self.backoff(failed_attempts);
        match rng {
            None => ceiling,
            Some(rng) => Duration::from_millis(
                rng.next_below(ceiling.as_millis().min(u128::from(u64::MAX)) as u64),
            ),
        }
    }

    /// The jitter generator this policy starts each supervised point
    /// with: `None` without a seed (exact deterministic backoff).
    pub fn jitter_rng(&self) -> Option<JitterRng> {
        self.jitter_seed.map(JitterRng::new)
    }
}

impl Default for RetryPolicy {
    /// Three attempts, 10 ms base backoff, 1 s cap, no jitter.
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_secs(1),
            jitter_seed: None,
        }
    }
}

/// Why a supervised attempt (and, terminally, a point) failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureKind {
    /// The closure panicked; the payload message is preserved.
    Panic {
        /// The panic payload, rendered as text.
        message: String,
    },
    /// The attempt exceeded its deadline and was abandoned.
    Deadline {
        /// The deadline that was exceeded.
        limit: Duration,
    },
}

impl FailureKind {
    /// The wire-protocol error-kind tag for this failure.
    pub fn kind(&self) -> &'static str {
        match self {
            FailureKind::Panic { .. } => "panic",
            FailureKind::Deadline { .. } => "timeout",
        }
    }

    /// A one-line human-readable description.
    pub fn message(&self) -> String {
        match self {
            FailureKind::Panic { message } => format!("panicked: {message}"),
            FailureKind::Deadline { limit } => {
                format!("exceeded the {} ms deadline", limit.as_millis())
            }
        }
    }
}

/// The terminal result of supervising one point.
#[derive(Debug, Clone, PartialEq)]
pub struct Supervised<R> {
    /// The value, or the *last* attempt's failure.
    pub result: Result<R, FailureKind>,
    /// Attempts actually made (1..=`max_attempts`).
    pub attempts: u32,
    /// Backoffs slept between attempts, in milliseconds, in order.
    pub backoff_ms: Vec<u64>,
}

impl<R> Supervised<R> {
    /// Whether the point exhausted its retry budget without succeeding
    /// (the poison-point condition).
    pub fn poisoned(&self) -> bool {
        self.result.is_err()
    }

    /// Whether more than one attempt was needed, whatever the outcome.
    pub fn retried(&self) -> bool {
        self.attempts > 1
    }
}

/// One attempt: inline when there is no deadline, on a watchdog-observed
/// worker thread otherwise.
fn attempt<R, F>(f: &Arc<F>, deadline: Option<Duration>) -> Result<R, FailureKind>
where
    F: Fn() -> R + Send + Sync + 'static,
    R: Send + 'static,
{
    let Some(limit) = deadline else {
        return catch_unwind(AssertUnwindSafe(|| f())).map_err(|p| FailureKind::Panic {
            message: panic_message(p.as_ref()),
        });
    };
    let (tx, rx) = mpsc::channel();
    let worker = Arc::clone(f);
    let spawned = std::thread::Builder::new()
        .name("macs-sweep-point".into())
        .spawn(move || {
            // A send failure means the supervisor already gave up on the
            // deadline and dropped the receiver; the result is discarded.
            let _ = tx.send(catch_unwind(AssertUnwindSafe(|| worker())));
        });
    if spawned.is_err() {
        // Thread exhaustion: treat as a (retryable) deadline failure
        // rather than tearing the server down.
        return Err(FailureKind::Deadline { limit });
    }
    match rx.recv_timeout(limit) {
        Ok(Ok(value)) => Ok(value),
        Ok(Err(payload)) => Err(FailureKind::Panic {
            message: panic_message(payload.as_ref()),
        }),
        Err(mpsc::RecvTimeoutError::Timeout) => Err(FailureKind::Deadline { limit }),
        // The worker vanished without sending — only possible if the
        // process is being torn down; report it as a panic.
        Err(mpsc::RecvTimeoutError::Disconnected) => Err(FailureKind::Panic {
            message: "worker thread vanished".into(),
        }),
    }
}

/// A supervision lifecycle event, reported to the observer of
/// [`supervise`] *as it happens* — not summarized after the
/// fact — so a live metrics plane can count watchdog fires, retries, and
/// backoff sleeps while a point is still being retried.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SuperviseEvent<'a> {
    /// An attempt failed (the watchdog fired, or the closure panicked).
    /// More attempts may follow if the retry budget allows.
    AttemptFailed {
        /// Which attempt failed (1-based).
        attempt: u32,
        /// Why it failed.
        failure: &'a FailureKind,
    },
    /// The supervisor is about to sleep `ms` milliseconds of backoff
    /// before the next attempt.
    Backoff {
        /// The backoff about to be slept, in milliseconds.
        ms: u64,
    },
}

/// Runs `f` under supervision: panics caught, the deadline enforced per
/// attempt, failures retried per `retry`, and each [`SuperviseEvent`]
/// reported to `observe` as it happens (pass `&mut |_| {}` to ignore
/// them).
///
/// The closure must be `'static` because a deadline-exceeding attempt is
/// abandoned on its worker thread (which may still be running when this
/// function returns); share state with the caller through the return
/// value only. The observer runs on the supervising thread between
/// attempts, never inside the supervised closure, so it may freely touch
/// non-`'static` state (a metrics registry, a span).
pub fn supervise<R, F>(
    f: F,
    deadline: Option<Duration>,
    retry: &RetryPolicy,
    observe: &mut dyn FnMut(SuperviseEvent<'_>),
) -> Supervised<R>
where
    F: Fn() -> R + Send + Sync + 'static,
    R: Send + 'static,
{
    let f = Arc::new(f);
    let budget = retry.max_attempts.max(1);
    let mut backoff_ms = Vec::new();
    let mut attempts = 0;
    let mut rng = retry.jitter_rng();
    loop {
        attempts += 1;
        match attempt(&f, deadline) {
            Ok(value) => {
                return Supervised {
                    result: Ok(value),
                    attempts,
                    backoff_ms,
                }
            }
            Err(failure) => {
                observe(SuperviseEvent::AttemptFailed {
                    attempt: attempts,
                    failure: &failure,
                });
                if attempts >= budget {
                    return Supervised {
                        result: Err(failure),
                        attempts,
                        backoff_ms,
                    };
                }
                let pause = retry.jittered_backoff(attempts, &mut rng);
                let ms = pause.as_millis() as u64;
                observe(SuperviseEvent::Backoff { ms });
                backoff_ms.push(ms);
                std::thread::sleep(pause);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn fast_retry(max_attempts: u32) -> RetryPolicy {
        RetryPolicy {
            max_attempts,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(4),
            jitter_seed: None,
        }
    }

    #[test]
    fn healthy_point_succeeds_first_try() {
        let s = supervise(|| 42u32, None, &RetryPolicy::default(), &mut |_| {});
        assert_eq!(s.result, Ok(42));
        assert_eq!(s.attempts, 1);
        assert!(s.backoff_ms.is_empty());
        assert!(!s.poisoned());
        assert!(!s.retried());
    }

    #[test]
    fn panicking_point_is_poisoned_after_the_budget() {
        let s = supervise(
            || -> u32 { panic!("injected fault") },
            None,
            &fast_retry(3),
            &mut |_| {},
        );
        assert_eq!(s.attempts, 3);
        assert!(s.poisoned());
        assert!(s.retried());
        assert_eq!(s.backoff_ms, vec![1, 2]);
        match s.result {
            Err(FailureKind::Panic { ref message }) => {
                assert!(message.contains("injected fault"))
            }
            other => panic!("expected a panic failure, got {other:?}"),
        }
        assert_eq!(s.result.unwrap_err().kind(), "panic");
    }

    #[test]
    fn flaky_point_recovers_within_the_budget() {
        static TRIES: AtomicU32 = AtomicU32::new(0);
        let s = supervise(
            || {
                if TRIES.fetch_add(1, Ordering::SeqCst) < 2 {
                    panic!("transient");
                }
                7u32
            },
            None,
            &fast_retry(5),
            &mut |_| {},
        );
        assert_eq!(s.result, Ok(7));
        assert_eq!(s.attempts, 3);
        assert!(s.retried());
        assert!(!s.poisoned());
    }

    #[test]
    fn slow_point_times_out_and_is_abandoned() {
        let s = supervise(
            || {
                std::thread::sleep(Duration::from_secs(5));
                1u32
            },
            Some(Duration::from_millis(20)),
            &fast_retry(2),
            &mut |_| {},
        );
        assert_eq!(s.attempts, 2);
        match s.result {
            Err(FailureKind::Deadline { limit }) => {
                assert_eq!(limit, Duration::from_millis(20))
            }
            other => panic!("expected a deadline failure, got {other:?}"),
        }
    }

    #[test]
    fn deadline_passes_through_a_fast_point() {
        let s = supervise(
            || 9u32,
            Some(Duration::from_secs(10)),
            &fast_retry(1),
            &mut |_| {},
        );
        assert_eq!(s.result, Ok(9));
        assert_eq!(s.attempts, 1);
    }

    #[test]
    fn observer_sees_failures_and_backoffs_in_order() {
        static TRIES: AtomicU32 = AtomicU32::new(0);
        let mut events = Vec::new();
        let s = supervise(
            || {
                if TRIES.fetch_add(1, Ordering::SeqCst) < 2 {
                    panic!("transient");
                }
                7u32
            },
            None,
            &fast_retry(5),
            &mut |e| {
                events.push(match e {
                    SuperviseEvent::AttemptFailed { attempt, failure } => {
                        format!("fail#{attempt}:{}", failure.kind())
                    }
                    SuperviseEvent::Backoff { ms } => format!("backoff:{ms}"),
                });
            },
        );
        assert_eq!(s.result, Ok(7));
        assert_eq!(
            events,
            vec!["fail#1:panic", "backoff:1", "fail#2:panic", "backoff:2"]
        );
        // The observed backoffs are exactly what the summary records.
        assert_eq!(s.backoff_ms, vec![1, 2]);
    }

    #[test]
    fn observer_sees_watchdog_fires() {
        let mut timeouts = 0u32;
        let s = supervise(
            || {
                std::thread::sleep(Duration::from_secs(5));
                1u32
            },
            Some(Duration::from_millis(10)),
            &fast_retry(2),
            &mut |e| {
                if let SuperviseEvent::AttemptFailed {
                    failure: FailureKind::Deadline { .. },
                    ..
                } = e
                {
                    timeouts += 1;
                }
            },
        );
        assert!(s.poisoned());
        assert_eq!(timeouts, 2, "both watchdog fires observed");
    }

    #[test]
    fn full_jitter_draws_below_the_ceiling_and_is_seed_deterministic() {
        let p = RetryPolicy {
            max_attempts: 10,
            backoff_base: Duration::from_millis(64),
            backoff_cap: Duration::from_millis(256),
            jitter_seed: Some(42),
        };
        let draw_all = || {
            let mut rng = p.jitter_rng();
            (1..=6)
                .map(|n| {
                    let d = p.jittered_backoff(n, &mut rng);
                    assert!(d <= p.backoff(n), "jitter must stay below the ceiling");
                    d.as_millis() as u64
                })
                .collect::<Vec<_>>()
        };
        // Same seed → the same draw sequence, run after run.
        assert_eq!(draw_all(), draw_all());
        // Different seeds decorrelate (the stampede-prevention property).
        let other = RetryPolicy {
            jitter_seed: Some(43),
            ..p
        };
        let mut rng = other.jitter_rng();
        let theirs: Vec<u64> = (1..=6)
            .map(|n| other.jittered_backoff(n, &mut rng).as_millis() as u64)
            .collect();
        assert_ne!(draw_all(), theirs, "distinct seeds must decorrelate");
        // Jitter actually varies across attempts (not a constant stream).
        let draws = draw_all();
        assert!(
            draws.iter().collect::<std::collections::HashSet<_>>().len() > 1,
            "{draws:?}"
        );
        // No seed → the exact deterministic ceiling (legacy behavior).
        let plain = RetryPolicy {
            jitter_seed: None,
            ..p
        };
        let mut rng = plain.jitter_rng();
        assert_eq!(plain.jittered_backoff(3, &mut rng), plain.backoff(3));
    }

    #[test]
    fn jittered_supervise_stays_reproducible_with_a_pinned_seed() {
        let retry = RetryPolicy {
            max_attempts: 4,
            backoff_base: Duration::from_millis(2),
            backoff_cap: Duration::from_millis(8),
            jitter_seed: Some(7),
        };
        let run =
            || supervise(|| -> u32 { panic!("always") }, None, &retry, &mut |_| {}).backoff_ms;
        let first = run();
        assert_eq!(first.len(), 3, "three failed retries → three backoffs");
        assert_eq!(first, run(), "pinned seed → identical backoff schedule");
        for (n, &ms) in first.iter().enumerate() {
            assert!(ms <= retry.backoff(n as u32 + 1).as_millis() as u64);
        }
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy {
            max_attempts: 10,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(35),
            jitter_seed: None,
        };
        assert_eq!(p.backoff(1), Duration::from_millis(10));
        assert_eq!(p.backoff(2), Duration::from_millis(20));
        assert_eq!(p.backoff(3), Duration::from_millis(35));
        assert_eq!(
            p.backoff(30),
            Duration::from_millis(35),
            "deep doublings clamp"
        );
        assert_eq!(RetryPolicy::once().backoff(1), Duration::ZERO);
    }
}
