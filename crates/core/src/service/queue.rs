//! The bounded FIFO job queue: backpressure by shedding, not
//! buffering.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

use secureloop_mapper::cancel;

/// How a submission fared against the queue bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// Admitted; `depth` is the queue depth including this job.
    Accepted {
        /// Queue depth after the push.
        depth: usize,
    },
    /// Shed: the queue was at its limit. The job never took a slot.
    Overloaded {
        /// Queue depth at rejection time (== the limit).
        depth: usize,
        /// The configured bound.
        limit: usize,
    },
}

struct Inner {
    queue: VecDeque<String>,
    /// Set on drain: stop admitting; workers exit once empty.
    draining: bool,
}

/// A bounded FIFO of job ids with condition-variable handoff to the
/// worker pool. Overflow is *shed* with a typed outcome — the queue
/// never grows past its limit, so a submission burst cannot balloon
/// memory or hide minutes of latency behind an unbounded backlog.
pub struct JobQueue {
    inner: Mutex<Inner>,
    ready: Condvar,
    limit: usize,
}

impl JobQueue {
    /// An empty queue bounded at `limit` (min 1) entries.
    pub fn new(limit: usize) -> JobQueue {
        JobQueue {
            inner: Mutex::new(Inner {
                queue: VecDeque::new(),
                draining: false,
            }),
            ready: Condvar::new(),
            limit: limit.max(1),
        }
    }

    /// The configured bound.
    pub fn limit(&self) -> usize {
        self.limit
    }

    /// Jobs currently waiting.
    pub fn len(&self) -> usize {
        self.lock().queue.len()
    }

    /// Whether no job is waiting.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Try to enqueue a job id. Full or draining queues shed.
    pub fn submit(&self, id: impl Into<String>) -> SubmitOutcome {
        let mut g = self.lock();
        if g.draining || g.queue.len() >= self.limit {
            return SubmitOutcome::Overloaded {
                depth: g.queue.len(),
                limit: self.limit,
            };
        }
        g.queue.push_back(id.into());
        let depth = g.queue.len();
        drop(g);
        self.ready.notify_one();
        SubmitOutcome::Accepted { depth }
    }

    /// Re-enqueue a journalled job during startup recovery, bypassing
    /// the bound: the job was already admitted by a previous
    /// incarnation, and shedding it now would renege on that
    /// acceptance. (A config change can therefore briefly overfill the
    /// queue after a restart; it drains back under the bound as workers
    /// pull.)
    pub fn restore(&self, id: impl Into<String>) {
        self.lock().queue.push_back(id.into());
        self.ready.notify_one();
    }

    /// Remove a queued job (client cancellation). Returns whether the
    /// id was still queued.
    pub fn remove(&self, id: &str) -> bool {
        let mut g = self.lock();
        let before = g.queue.len();
        g.queue.retain(|q| q != id);
        g.queue.len() != before
    }

    /// Worker-side blocking pop.
    ///
    /// Returns `Some(id)` when a job is available; `None` when the
    /// worker should exit — either a process-wide shutdown was
    /// requested (queued jobs stay queued for the restart) or the
    /// queue is draining *and* empty (EOF drain: every queued job has
    /// been handed out). Wakes at least every 100ms to observe the
    /// shutdown flag, which a signal handler can flip while this
    /// thread is parked.
    pub fn next(&self) -> Option<String> {
        let mut g = self.lock();
        loop {
            if cancel::shutdown_requested() {
                return None;
            }
            if let Some(id) = g.queue.pop_front() {
                return Some(id);
            }
            if g.draining {
                return None;
            }
            let (guard, _timeout) = self
                .ready
                .wait_timeout(g, Duration::from_millis(100))
                .unwrap_or_else(|e| e.into_inner());
            g = guard;
        }
    }

    /// Stop admitting. Workers drain the remaining entries (EOF drain)
    /// or exit immediately if a shutdown is also in flight.
    pub fn start_drain(&self) {
        self.lock().draining = true;
        self.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sheds_exactly_past_the_limit_in_fifo_order() {
        let q = JobQueue::new(2);
        assert_eq!(q.submit("a"), SubmitOutcome::Accepted { depth: 1 });
        assert_eq!(q.submit("b"), SubmitOutcome::Accepted { depth: 2 });
        assert_eq!(
            q.submit("c"),
            SubmitOutcome::Overloaded { depth: 2, limit: 2 }
        );
        assert_eq!(q.next().as_deref(), Some("a"));
        // A slot freed up: admission works again.
        assert_eq!(q.submit("d"), SubmitOutcome::Accepted { depth: 2 });
        assert_eq!(q.next().as_deref(), Some("b"));
        assert_eq!(q.next().as_deref(), Some("d"));
    }

    #[test]
    fn cancel_removes_only_queued_entries() {
        let q = JobQueue::new(4);
        q.submit("a");
        q.submit("b");
        assert!(q.remove("a"));
        assert!(!q.remove("a"), "already gone");
        assert!(!q.remove("zzz"));
        assert_eq!(q.next().as_deref(), Some("b"));
    }

    #[test]
    fn drain_stops_admission_and_releases_idle_workers() {
        let q = JobQueue::new(4);
        q.submit("a");
        q.start_drain();
        assert!(matches!(q.submit("late"), SubmitOutcome::Overloaded { .. }));
        // The queued job is still handed out (EOF drain finishes work)...
        assert_eq!(q.next().as_deref(), Some("a"));
        // ...then workers are released.
        assert_eq!(q.next(), None);
    }

    #[test]
    fn parked_workers_wake_on_drain() {
        let q = std::sync::Arc::new(JobQueue::new(2));
        let worker = {
            let q = q.clone();
            std::thread::spawn(move || q.next())
        };
        std::thread::sleep(Duration::from_millis(20));
        q.start_drain();
        assert_eq!(worker.join().unwrap(), None);
    }
}
