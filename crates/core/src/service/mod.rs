//! DSE as a service: a long-running, multi-tenant job server.
//!
//! `secureloop serve` turns the one-shot CLI into a resident process
//! speaking a JSON-Lines protocol on stdin/stdout (see [`protocol`]).
//! Clients submit jobs — a workload, a design list, and a search budget
//! — and the server runs each one through the full supervised sweep
//! engine ([`crate::dse::evaluate_designs_sweep`]). The robustness
//! properties the one-shot CLI earned per invocation are promoted to
//! per-job for the lifetime of the process:
//!
//! * **Bounded queue, typed shedding** — a FIFO [`queue::JobQueue`]
//!   with a configurable depth. A submission that would overflow it is
//!   *shed* with a typed `overloaded` response, never buffered
//!   unboundedly ([`job::JobState::Shed`]).
//! * **Admission control** — [`job::AdmissionPolicy`] rejects jobs
//!   whose sample, design-count, or deadline budgets exceed the
//!   server's caps before they consume a queue slot.
//! * **Per-job supervision and isolation** — every design point runs
//!   under [`crate::supervisor::run_supervised`] with the job's
//!   [`secureloop_mapper::CancelToken`] as parent, so a client `cancel`
//!   stops exactly that job; one tenant's panicking or stalling design
//!   is quarantined (reported `poisoned` with its cause) without
//!   disturbing other tenants, whose results stay byte-identical to
//!   running alone.
//! * **Crash-safe lifecycle** — the `Queued → Running →
//!   Completed/Failed/Poisoned/Cancelled` state machine (plus the
//!   out-of-band `Shed`) is journalled to `<state_dir>/service.json`
//!   and each job checkpoints per design point, so a killed server
//!   resumes in-flight jobs on restart with zero recomputation of
//!   completed designs.
//! * **One warm cache** — a process-wide
//!   [`secureloop_mapper::CandidateCache`] with a byte budget and LRU
//!   eviction is shared across every job and persisted across
//!   restarts.
//! * **Graceful drain** — SIGINT/SIGTERM stops admission, lets running
//!   jobs finish or checkpoint (the process-wide shutdown flag is the
//!   root every job token observes, and the mapper polls its token at
//!   chunk boundaries), flushes the cache, journal and
//!   telemetry sink, and exits with code 3. Client EOF instead drains
//!   the queue *fully* (every queued job runs) before a clean exit.

pub mod job;
pub mod persist;
pub mod protocol;
pub mod queue;
pub mod server;

pub use job::{AdmissionPolicy, FaultSpec, JobRecord, JobSpec, JobState};
pub use persist::ServiceJournal;
pub use protocol::Request;
pub use queue::{JobQueue, SubmitOutcome};
pub use server::{Server, ServiceConfig};
