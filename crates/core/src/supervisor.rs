//! Supervised task execution for the DSE sweep.
//!
//! [`run_supervised`] wraps one unit of work (a design-point
//! evaluation) in the failure-containment machinery the sweep engine
//! relies on:
//!
//! * **panic isolation** — the task runs under
//!   `std::panic::catch_unwind`, so a bug in one design point cannot
//!   take down the worker pool;
//! * **watchdog timeout** — with
//!   [`SupervisorConfig::task_timeout`] set, the attempt runs on a
//!   dedicated thread and is abandoned (its attempt token, a
//!   [`CancelToken::child`] of the caller's, tripped, so it exits at
//!   the next chunk boundary) when the wall clock expires;
//! * **retry with exponential backoff** — panics, timeouts and typed
//!   errors are retried up to [`SupervisorConfig::max_retries`] times,
//!   sleeping `base_backoff * 2^attempt` between attempts; retries
//!   after a panic or timeout bypass the shared candidate cache so a
//!   crashing computation cannot be answered from (or write into)
//!   shared state;
//! * **poison classification** — a task that exhausts its retries
//!   panicking or stalling is reported
//!   [`SupervisedOutcome::Poisoned`] with the captured panic payload
//!   or timeout cause, distinct from an ordinary typed-error
//!   [`SupervisedOutcome::Failed`];
//! * **cancellation** — once the caller's token is cancelled (by its
//!   job, or by a process-wide shutdown, which every token observes)
//!   the task short-circuits to [`SupervisedOutcome::Cancelled`]
//!   without burning retries.
//!
//! Everything is observable through `secureloop-telemetry`: a
//! `supervisor` span per task plus the `supervisor.retries`,
//! `supervisor.panics`, `supervisor.timeouts`, `supervisor.poisoned`
//! and `supervisor.cancelled` counters.

use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use secureloop_mapper::cancel::{self, CancelToken, TaskContext, TaskScope};
use secureloop_telemetry::{self as telemetry, Counter};

use crate::error::SecureLoopError;

static RETRIES: Counter = Counter::new("supervisor.retries");
static PANICS: Counter = Counter::new("supervisor.panics");
static TIMEOUTS: Counter = Counter::new("supervisor.timeouts");
static POISONED: Counter = Counter::new("supervisor.poisoned");
static CANCELLED: Counter = Counter::new("supervisor.cancelled");

/// Retry/timeout policy for supervised tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// Additional attempts after the first one fails (0 = no retries).
    pub max_retries: u32,
    /// Sleep before retry `n` is `base_backoff * 2^n`.
    pub base_backoff: Duration,
    /// Wall-clock budget per attempt. `None` disables the watchdog:
    /// attempts run inline on the calling worker thread.
    pub task_timeout: Option<Duration>,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            max_retries: 2,
            base_backoff: Duration::from_millis(25),
            task_timeout: None,
        }
    }
}

impl SupervisorConfig {
    /// Replace the retry budget.
    pub fn with_max_retries(mut self, retries: u32) -> Self {
        self.max_retries = retries;
        self
    }

    /// Replace the backoff base.
    pub fn with_base_backoff(mut self, backoff: Duration) -> Self {
        self.base_backoff = backoff;
        self
    }

    /// Set a per-attempt wall-clock budget.
    pub fn with_task_timeout(mut self, timeout: Duration) -> Self {
        self.task_timeout = Some(timeout);
        self
    }

    /// Backoff before the retry following failed attempt `attempt`
    /// (0-based), capped at 1024x the base.
    pub fn backoff_after(&self, attempt: u32) -> Duration {
        self.base_backoff.saturating_mul(1 << attempt.min(10))
    }
}

/// How one supervised task resolved.
#[derive(Debug)]
pub enum SupervisedOutcome<T> {
    /// The task succeeded (possibly after retries).
    Completed {
        /// The task's result.
        value: T,
        /// Attempts spent, including the successful one.
        attempts: u32,
    },
    /// Every attempt returned a typed error; the last one is reported.
    Failed {
        /// The final attempt's error.
        error: SecureLoopError,
        /// Attempts spent.
        attempts: u32,
    },
    /// The final attempt panicked or stalled past its timeout: the task
    /// is poison and must be quarantined, not re-run on resume.
    Poisoned {
        /// Captured panic payload or timeout cause.
        cause: String,
        /// Attempts spent.
        attempts: u32,
    },
    /// The caller's token (its job, or a process-wide shutdown) stopped
    /// the task; it is neither failed nor poisoned and will be re-run on
    /// resume.
    Cancelled,
}

/// Why one attempt failed.
enum AttemptError {
    Panic(String),
    Timeout(Duration),
    Engine(SecureLoopError),
}

fn panic_payload(e: Box<dyn std::any::Any + Send>) -> String {
    e.downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| e.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

fn run_attempt<T, F>(
    timeout: Option<Duration>,
    ctx: TaskContext,
    task: F,
) -> Result<T, AttemptError>
where
    T: Send + 'static,
    F: FnOnce() -> Result<T, SecureLoopError> + Send + 'static,
{
    let token = ctx.token.clone();
    match timeout {
        None => {
            let _scope = TaskScope::enter(ctx);
            match panic::catch_unwind(AssertUnwindSafe(task)) {
                Ok(Ok(v)) => Ok(v),
                Ok(Err(e)) => Err(AttemptError::Engine(e)),
                Err(p) => Err(AttemptError::Panic(panic_payload(p))),
            }
        }
        Some(budget) => {
            // The attempt runs on a dedicated thread so the watchdog
            // can abandon it: on timeout the token is tripped (the
            // mapper exits at its next chunk boundary) and the thread
            // is left to unwind on its own — never joined, because a
            // stalled task is exactly what we must not wait for.
            // The caller's telemetry job scope is re-entered on the
            // attempt thread so the task's events stay attributed.
            let scope = telemetry::current_scope();
            let (tx, rx) = mpsc::channel();
            let handle = thread::spawn(move || {
                let _job = scope.map(telemetry::enter_scope);
                let _scope = TaskScope::enter(ctx);
                let result = panic::catch_unwind(AssertUnwindSafe(task));
                let _ = tx.send(result);
            });
            match rx.recv_timeout(budget) {
                Ok(outcome) => {
                    let _ = handle.join();
                    match outcome {
                        Ok(Ok(v)) => Ok(v),
                        Ok(Err(e)) => Err(AttemptError::Engine(e)),
                        Err(p) => Err(AttemptError::Panic(panic_payload(p))),
                    }
                }
                Err(_) => {
                    token.cancel();
                    drop(handle);
                    Err(AttemptError::Timeout(budget))
                }
            }
        }
    }
}

/// Run `task` under the supervisor's panic/timeout/retry policy.
///
/// Each attempt runs under a [`CancelToken::child`] of `parent`: a
/// cancelled `parent` resolves the task [`SupervisedOutcome::Cancelled`]
/// without burning retries; the watchdog stops one attempt only. Every
/// attempt also carries the calling task's fault plan, if it has one.
///
/// `task` must be `Clone` because each retry needs a fresh callable,
/// and `'static + Send` because a watchdogged attempt runs on its own
/// thread. Design-point tasks clone their (cheap, `Arc`-heavy) inputs
/// up front.
pub fn run_supervised<T, F>(
    label: &str,
    cfg: &SupervisorConfig,
    parent: &CancelToken,
    task: F,
) -> SupervisedOutcome<T>
where
    T: Send + 'static,
    F: FnOnce() -> Result<T, SecureLoopError> + Clone + Send + 'static,
{
    let mut span = telemetry::span("supervisor", label.to_string());
    let fault = cancel::current_context().fault;
    let total_attempts = cfg.max_retries.saturating_add(1);
    let mut last: Option<AttemptError> = None;
    let mut attempts = 0u32;
    for attempt in 0..total_attempts {
        if parent.is_cancelled() {
            CANCELLED.incr();
            span.add_field("outcome", "cancelled");
            return SupervisedOutcome::Cancelled;
        }
        if attempt > 0 {
            RETRIES.incr();
            thread::sleep(cfg.backoff_after(attempt - 1));
        }
        // After a panic or timeout the shared candidate cache is
        // suspect for this task: bypass it on the retry.
        let bypass_cache = matches!(
            last,
            Some(AttemptError::Panic(_)) | Some(AttemptError::Timeout(_))
        );
        attempts = attempt + 1;
        let ctx = TaskContext {
            token: parent.child(),
            bypass_cache,
            fault: fault.clone(),
        };
        match run_attempt(cfg.task_timeout, ctx, task.clone()) {
            Ok(value) => {
                span.add_field("outcome", "completed");
                span.add_field("attempts", u64::from(attempts));
                return SupervisedOutcome::Completed { value, attempts };
            }
            Err(AttemptError::Engine(e)) if e.is_interruption() || parent.is_cancelled() => {
                CANCELLED.incr();
                span.add_field("outcome", "cancelled");
                return SupervisedOutcome::Cancelled;
            }
            Err(e) => {
                match &e {
                    AttemptError::Panic(_) => PANICS.incr(),
                    AttemptError::Timeout(_) => TIMEOUTS.incr(),
                    AttemptError::Engine(_) => {}
                }
                last = Some(e);
            }
        }
    }
    span.add_field("attempts", u64::from(attempts));
    match last.expect("at least one attempt ran") {
        AttemptError::Engine(error) => {
            span.add_field("outcome", "failed");
            SupervisedOutcome::Failed { error, attempts }
        }
        AttemptError::Panic(payload) => {
            POISONED.incr();
            span.add_field("outcome", "poisoned");
            SupervisedOutcome::Poisoned {
                cause: format!("panicked: {payload}"),
                attempts,
            }
        }
        AttemptError::Timeout(budget) => {
            POISONED.incr();
            span.add_field("outcome", "poisoned");
            SupervisedOutcome::Poisoned {
                cause: format!("timed out after {:.3}s", budget.as_secs_f64()),
                attempts,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use secureloop_mapper::cancel;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

    fn quick() -> SupervisorConfig {
        SupervisorConfig::default().with_base_backoff(Duration::from_millis(1))
    }

    #[test]
    fn success_passes_through() {
        let out = run_supervised("t", &quick(), &CancelToken::new(), || {
            Ok::<_, SecureLoopError>(42)
        });
        match out {
            SupervisedOutcome::Completed { value, attempts } => {
                assert_eq!(value, 42);
                assert_eq!(attempts, 1);
            }
            other => panic!("expected success, got {other:?}"),
        }
    }

    #[test]
    fn typed_errors_retry_then_fail() {
        let calls = Arc::new(AtomicU32::new(0));
        let c = calls.clone();
        let out = run_supervised(
            "t",
            &quick().with_max_retries(2),
            &CancelToken::new(),
            move || {
                c.fetch_add(1, Ordering::SeqCst);
                Err::<(), _>(SecureLoopError::Schedule("boom".into()))
            },
        );
        match out {
            SupervisedOutcome::Failed { error, attempts } => {
                assert!(error.to_string().contains("boom"));
                assert_eq!(attempts, 3);
            }
            other => panic!("expected failure, got {other:?}"),
        }
        assert_eq!(calls.load(Ordering::SeqCst), 3, "1 attempt + 2 retries");
    }

    #[test]
    fn transient_errors_recover_within_the_retry_budget() {
        let calls = Arc::new(AtomicU32::new(0));
        let c = calls.clone();
        let out = run_supervised(
            "t",
            &quick().with_max_retries(2),
            &CancelToken::new(),
            move || {
                if c.fetch_add(1, Ordering::SeqCst) < 2 {
                    Err(SecureLoopError::Schedule("transient".into()))
                } else {
                    Ok(7)
                }
            },
        );
        match out {
            SupervisedOutcome::Completed { value, attempts } => {
                assert_eq!(value, 7);
                assert_eq!(attempts, 3);
            }
            other => panic!("expected recovery, got {other:?}"),
        }
    }

    #[test]
    fn panics_are_contained_and_poison_after_retries() {
        let out = run_supervised(
            "t",
            &quick().with_max_retries(1),
            &CancelToken::new(),
            || -> Result<(), SecureLoopError> {
                panic!("injected chaos");
            },
        );
        match out {
            SupervisedOutcome::Poisoned { cause, attempts } => {
                assert!(cause.contains("injected chaos"), "{cause}");
                assert_eq!(attempts, 2);
            }
            other => panic!("expected poison, got {other:?}"),
        }
    }

    #[test]
    fn stalls_past_the_watchdog_poison_with_a_timeout_cause() {
        let cfg = quick()
            .with_max_retries(0)
            .with_task_timeout(Duration::from_millis(20));
        let job = CancelToken::new();
        let out = run_supervised("t", &cfg, &job, || -> Result<(), SecureLoopError> {
            // Cooperative stall: wake up early if cancelled.
            let token = cancel::current_context().token;
            for _ in 0..200 {
                if token.is_cancelled() {
                    break;
                }
                thread::sleep(Duration::from_millis(5));
            }
            Ok(())
        });
        match out {
            SupervisedOutcome::Poisoned { cause, attempts } => {
                assert!(cause.contains("timed out"), "{cause}");
                assert_eq!(attempts, 1);
            }
            other => panic!("expected timeout poison, got {other:?}"),
        }
        assert!(
            !job.is_cancelled(),
            "the watchdog stops the attempt, not the job"
        );
    }

    #[test]
    fn fast_tasks_pass_under_a_watchdog() {
        let cfg = quick().with_task_timeout(Duration::from_secs(30));
        let out = run_supervised("t", &cfg, &CancelToken::new(), || {
            Ok::<_, SecureLoopError>("ok")
        });
        assert!(matches!(
            out,
            SupervisedOutcome::Completed { value: "ok", .. }
        ));
    }

    #[test]
    fn job_token_cancellation_short_circuits_without_retries() {
        let token = CancelToken::new();
        token.cancel();
        let calls = Arc::new(AtomicU32::new(0));
        let c = calls.clone();
        let out = run_supervised("t", &quick().with_max_retries(5), &token, move || {
            c.fetch_add(1, Ordering::SeqCst);
            Ok::<_, SecureLoopError>(1)
        });
        assert!(matches!(out, SupervisedOutcome::Cancelled));
        assert_eq!(calls.load(Ordering::SeqCst), 0, "no attempt runs");
    }

    #[test]
    fn job_token_reaches_the_task_context() {
        let job = CancelToken::new();
        let in_task = job.clone();
        let out = run_supervised("t", &quick().with_max_retries(0), &job, move || {
            let token = cancel::current_context().token;
            let before = token.is_cancelled();
            in_task.cancel();
            Ok::<_, SecureLoopError>((before, token.is_cancelled()))
        });
        match out {
            SupervisedOutcome::Completed { value, .. } => {
                assert_eq!(
                    value,
                    (false, true),
                    "the attempt token is a child of the job's"
                );
            }
            other => panic!("expected success, got {other:?}"),
        }
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let cfg = SupervisorConfig::default().with_base_backoff(Duration::from_millis(10));
        assert_eq!(cfg.backoff_after(0), Duration::from_millis(10));
        assert_eq!(cfg.backoff_after(1), Duration::from_millis(20));
        assert_eq!(cfg.backoff_after(3), Duration::from_millis(80));
        assert_eq!(cfg.backoff_after(40), Duration::from_millis(10) * 1024);
    }
}
