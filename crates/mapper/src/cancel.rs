//! Cooperative cancellation for mapper searches.
//!
//! One stop signal, shaped as a tree of [`CancelToken`]s:
//!
//! * the root is the **process-wide shutdown flag** — flipped by a
//!   signal handler (or a test) via [`request_shutdown`]; setting an
//!   atomic is async-signal-safe, so this is the only thing a handler
//!   does. Every token observes it;
//! * [`CancelToken::new`] makes a token under that root (a service job,
//!   a sweep), and [`CancelToken::child`] one under another token (the
//!   supervisor's per-attempt token under its sweep's). A token is
//!   cancelled when its own flag, an ancestor's flag or the shutdown
//!   flag is set; cancelling it never touches its parent or siblings,
//!   so a watchdog abandons exactly one stalled attempt.
//!
//! The mapper polls [`CancelToken::is_cancelled`] at its chunk
//! boundaries (the same stride that polls the search deadline), so a
//! cancelled search stops within one [`crate::CHUNK_SAMPLES`] chunk and
//! returns [`crate::MapperError::Cancelled`] instead of partial
//! garbage.
//!
//! The per-task state (the token, and a test's fault plan) travels
//! through a thread-local [`TaskScope`] rather than through
//! [`crate::SearchConfig`] (which is `Copy` and serialised into cache
//! keys): the supervisor enters a scope on the thread that runs the
//! task, [`crate::search`] reads it once at entry, and [`run_ordered`]
//! re-enters the caller's context on every worker it spawns.
//!
//! [`run_ordered`] is the work pool that stops on these checks: the
//! random rung's chunks and a sweep's design points run on it.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use secureloop_telemetry as telemetry;

use crate::fault::ArmedPlan;

static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// Flip the process-wide shutdown flag. Safe to call from a signal
/// handler: it only stores to an atomic.
pub fn request_shutdown() {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Whether a shutdown has been requested (and not yet reset).
pub fn shutdown_requested() -> bool {
    SHUTDOWN.load(Ordering::SeqCst)
}

/// Clear the shutdown flag. For tests and for re-entrant embedders; the
/// CLI never resets — it drains and exits.
pub fn reset_shutdown() {
    SHUTDOWN.store(false, Ordering::SeqCst);
}

/// A node in the cancellation tree: cloneable, and clones share state.
///
/// A fresh token observes only the process shutdown flag; a
/// [`CancelToken::child`] also observes every ancestor.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<Node>);

#[derive(Debug, Default)]
struct Node {
    cancelled: AtomicBool,
    parent: Option<CancelToken>,
}

impl CancelToken {
    /// A fresh, uncancelled token under the shutdown flag.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// A fresh token that is also cancelled whenever `self` is.
    pub fn child(&self) -> Self {
        CancelToken(Arc::new(Node {
            cancelled: AtomicBool::new(false),
            parent: Some(self.clone()),
        }))
    }

    /// Cancel this token and its descendants (idempotent).
    pub fn cancel(&self) {
        self.0.cancelled.store(true, Ordering::SeqCst);
    }

    /// Whether this token, an ancestor or the process was asked to stop.
    pub fn is_cancelled(&self) -> bool {
        let Node { cancelled, parent } = &*self.0;
        shutdown_requested()
            || cancelled.load(Ordering::SeqCst)
            || parent.as_ref().is_some_and(CancelToken::is_cancelled)
    }
}

/// Per-task context installed by the supervisor for the duration of one
/// supervised attempt.
#[derive(Debug, Clone, Default)]
pub struct TaskContext {
    /// The attempt's token: a child of its job's token, which the
    /// watchdog cancels on timeout.
    pub token: CancelToken,
    /// Bypass the candidate cache for this attempt. Set on retries
    /// after a panic or timeout: a key whose computation just crashed
    /// must not be answered from (or written into) shared state.
    pub bypass_cache: bool,
    /// The task's armed fault plan, if a test (or a chaos job) armed one
    /// with [`crate::FaultScope::inject`].
    pub fault: Option<Arc<ArmedPlan>>,
}

thread_local! {
    static TASK: RefCell<TaskContext> = RefCell::new(TaskContext::default());
}

/// RAII guard installing a [`TaskContext`] on the current thread.
pub struct TaskScope {
    previous: TaskContext,
}

impl TaskScope {
    /// Install `ctx` until the returned scope drops.
    pub fn enter(ctx: TaskContext) -> TaskScope {
        let previous = TASK.with(|t| std::mem::replace(&mut *t.borrow_mut(), ctx));
        TaskScope { previous }
    }
}

impl Drop for TaskScope {
    fn drop(&mut self) {
        let previous = std::mem::take(&mut self.previous);
        TASK.with(|t| *t.borrow_mut() = previous);
    }
}

/// The current thread's task context (cloned; tokens share state).
pub fn current_context() -> TaskContext {
    TASK.with(|t| t.borrow().clone())
}

/// Whether the current thread's task bypasses the candidate cache: it
/// retries after a panic or timeout ([`TaskContext::bypass_cache`]), or
/// it carries a fault plan, whose faults key on layer names that no
/// cache key holds.
pub fn cache_bypassed() -> bool {
    TASK.with(|t| {
        let ctx = t.borrow();
        ctx.bypass_cache || ctx.fault.is_some()
    })
}

/// Run `task(worker, index)` for every index in `0..count` on
/// `min(workers, count)` threads and return the results in index order.
///
/// Workers pull indices from a shared queue. A task returns its result
/// and whether its worker stops: that worker pulls no further index,
/// the others run on, and an index no worker pulled has no result. With
/// at most one worker every task runs on the calling thread and nothing
/// is spawned. Spawned workers re-enter the caller's task context
/// ([`current_context`]) and telemetry scope
/// ([`telemetry::current_scope`]), so they observe the caller's token
/// and fault plan, and the events they emit carry the caller's job. A
/// panicking task's panic resumes on the caller.
pub fn run_ordered<T: Send>(
    count: usize,
    workers: usize,
    task: impl Fn(usize, usize) -> (T, bool) + Sync,
) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let worker_loop = |worker: usize| {
        let mut out = Vec::new();
        loop {
            let index = next.fetch_add(1, Ordering::Relaxed);
            if index >= count {
                break;
            }
            let (result, stop) = task(worker, index);
            out.push((index, result));
            if stop {
                break;
            }
        }
        out
    };
    let workers = workers.min(count);
    let mut done = if workers <= 1 {
        worker_loop(0)
    } else {
        let scope = telemetry::current_scope();
        let ctx = current_context();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|worker| {
                    let (scope, ctx) = (scope.clone(), ctx.clone());
                    s.spawn(move || {
                        let _scope = scope.map(telemetry::enter_scope);
                        let _task = TaskScope::enter(ctx);
                        worker_loop(worker)
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .collect()
        })
    };
    done.sort_by_key(|&(index, _)| index);
    done.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;
    use std::thread::{self, ThreadId};

    #[test]
    fn token_cancels_exactly_its_task() {
        let a = CancelToken::new();
        let b = a.clone();
        let other = CancelToken::new();
        assert!(!a.is_cancelled());
        b.cancel();
        assert!(a.is_cancelled(), "clones share the flag");
        assert!(!other.is_cancelled(), "independent tokens are untouched");
    }

    #[test]
    fn job_token_cancels_every_task_in_the_job() {
        let job = CancelToken::new();
        let task = job.child();
        let nested = task.child();
        assert!(!nested.is_cancelled());
        job.cancel();
        assert!(task.is_cancelled(), "job token trips the whole job");
        assert!(nested.is_cancelled(), "every ancestor is observed");
    }

    #[test]
    fn cancelling_a_child_leaves_parent_and_siblings_alone() {
        let parent = CancelToken::new();
        let child = parent.child();
        let sibling = parent.child();
        child.cancel();
        assert!(child.is_cancelled());
        assert!(!parent.is_cancelled(), "the parent is untouched");
        assert!(!sibling.is_cancelled(), "siblings are untouched");
    }

    #[test]
    fn task_scope_installs_and_restores() {
        assert!(!cache_bypassed());
        let token = CancelToken::new();
        {
            let _scope = TaskScope::enter(TaskContext {
                token: token.clone(),
                bypass_cache: true,
                ..TaskContext::default()
            });
            assert!(cache_bypassed());
            let ctx = current_context();
            assert!(!ctx.token.is_cancelled());
            token.cancel();
            assert!(ctx.token.is_cancelled());
        }
        assert!(!cache_bypassed(), "scope restores the previous context");
        assert!(!current_context().token.is_cancelled());
    }

    #[test]
    fn pool_returns_results_in_index_order_for_any_worker_count() {
        let squares: Vec<usize> = (0..50).map(|i| i * i).collect();
        for workers in [1, 2, 4, 16] {
            let got = run_ordered(50, workers, |_, i| (i * i, false));
            assert_eq!(got, squares, "workers={workers}");
        }
    }

    #[test]
    fn pool_stop_ends_only_the_reporting_worker() {
        // Indices 0 and 1 meet at the barrier, so two workers hold them
        // at once; the one holding index 0 stops, the other runs the
        // rest of the queue.
        let barrier = Barrier::new(2);
        let ran = run_ordered(20, 2, |worker, i| {
            if i < 2 {
                barrier.wait();
            }
            ((worker, i), i == 0)
        });
        let indices: Vec<usize> = ran.iter().map(|&(_, i)| i).collect();
        assert_eq!(indices, (0..20).collect::<Vec<_>>());
        let stopped = ran[0].0;
        assert_eq!(
            ran.iter().filter(|&&(w, _)| w == stopped).count(),
            1,
            "the stopped worker pulled nothing after index 0"
        );
    }

    #[test]
    fn pool_with_one_worker_runs_inline() {
        let caller = thread::current().id();
        for workers in [0, 1] {
            let ids: Vec<(usize, ThreadId)> = run_ordered(8, workers, |worker, _| {
                ((worker, thread::current().id()), false)
            });
            assert_eq!(ids.len(), 8);
            assert!(ids.iter().all(|&(w, id)| w == 0 && id == caller));
        }
    }

    // The process-wide shutdown flag is exercised in the serialised
    // `supervision` integration suite: flipping it here would race
    // with the search tests running concurrently in this process.
}
