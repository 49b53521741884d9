//! The resilient DSE server: worker pool, request loop, and the glue
//! between the queue, the journal, the warm cache, and the sweep
//! engine.
//!
//! One [`Server`] owns:
//!
//! - a bounded [`JobQueue`] (backpressure by shedding),
//! - the job table (every record the journal persists),
//! - one process-wide [`CandidateCache`] shared by every job, and
//! - the state dir holding the journal, the cache, and one sweep
//!   checkpoint per job.
//!
//! [`Server::serve`] is generic over the transport (`BufRead` in,
//! `Write` out) so integration tests drive an in-process server over
//! plain pipes while the CLI binds it to stdin/stdout.

use std::collections::HashMap;
use std::fs;
use std::io::{BufRead as _, BufReader, Read, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use secureloop_artifact::{self as artifact, DurabilityPolicy};

use secureloop_json::Json;
use secureloop_mapper::{cancel, CancelToken, CandidateCache, FaultScope, SearchMode};
use secureloop_telemetry::{self as telemetry, Sink};

use crate::cli::RunStatus;
use crate::dse::{evaluate_designs_sweep, pareto_front, SweepOptions};
use crate::error::SecureLoopError;
use crate::report;
use crate::run::Entry;
use crate::service::job::{AdmissionPolicy, JobRecord, JobSpec, JobState};
use crate::service::persist::{self, ServiceJournal};
use crate::service::protocol::{self, Request};
use crate::service::queue::{JobQueue, SubmitOutcome};
use crate::supervisor::SupervisorConfig;

/// Server knobs; everything has a conservative default.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Where the journal, the cache, and per-job checkpoints live.
    pub state_dir: PathBuf,
    /// Queue bound: submissions past this are shed, never buffered.
    pub queue_depth: usize,
    /// Concurrent jobs (worker threads pulling from the queue).
    pub workers: usize,
    /// Sweep workers *inside* each job (design points in parallel).
    pub job_workers: usize,
    /// Memory budget for the shared candidate cache (`None` =
    /// unbounded).
    pub cache_budget_bytes: Option<usize>,
    /// Per-job budget caps enforced before a job takes a queue slot.
    pub admission: AdmissionPolicy,
    /// Panic/timeout/retry policy handed to every job's sweep.
    pub supervisor: SupervisorConfig,
    /// Mapper exploration strategy for every job (server-level, so all
    /// jobs of one process share cache entries; mirrors the CLI's
    /// `--search-mode`).
    pub search_mode: SearchMode,
    /// Protection scheme applied to jobs that do not choose their own
    /// (mirrors the CLI's `--scheme` on `serve`). `None` keeps each
    /// job's default AES-GCM pricing.
    pub default_scheme: Option<secureloop_crypto::SchemeId>,
    /// Durability policy for every artifact the server persists
    /// (journal, shared cache, per-job checkpoints): fsync discipline
    /// and the retry/backoff budget for transient write errors.
    pub durability: DurabilityPolicy,
}

impl ServiceConfig {
    /// Defaults: queue depth 8, 2 job workers, 1 sweep worker per job,
    /// unbounded cache, default admission and supervision.
    pub fn new(state_dir: impl Into<PathBuf>) -> ServiceConfig {
        ServiceConfig {
            state_dir: state_dir.into(),
            queue_depth: 8,
            workers: 2,
            job_workers: 1,
            cache_budget_bytes: None,
            admission: AdmissionPolicy::default(),
            supervisor: SupervisorConfig::default(),
            search_mode: SearchMode::Guided,
            default_scheme: None,
            durability: DurabilityPolicy::default(),
        }
    }

    /// Set the queue bound (min 1).
    pub fn with_queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth.max(1);
        self
    }

    /// Set the number of concurrent jobs.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Set the sweep worker count inside each job.
    pub fn with_job_workers(mut self, workers: usize) -> Self {
        self.job_workers = workers.max(1);
        self
    }

    /// Budget the shared candidate cache.
    pub fn with_cache_budget_bytes(mut self, bytes: usize) -> Self {
        self.cache_budget_bytes = Some(bytes);
        self
    }

    /// Replace the admission policy.
    pub fn with_admission(mut self, policy: AdmissionPolicy) -> Self {
        self.admission = policy;
        self
    }

    /// Replace the supervisor policy.
    pub fn with_supervisor(mut self, supervisor: SupervisorConfig) -> Self {
        self.supervisor = supervisor;
        self
    }

    /// Replace the mapper exploration strategy.
    pub fn with_search_mode(mut self, mode: SearchMode) -> Self {
        self.search_mode = mode;
        self
    }

    /// Set the protection scheme for jobs that do not choose their own.
    pub fn with_default_scheme(mut self, scheme: Option<secureloop_crypto::SchemeId>) -> Self {
        self.default_scheme = scheme;
        self
    }

    /// Replace the artifact durability policy.
    pub fn with_durability(mut self, durability: DurabilityPolicy) -> Self {
        self.durability = durability;
        self
    }
}

struct JobEntry {
    record: JobRecord,
    /// Trips on client cancellation; every in-flight search belonging
    /// to the job observes it at its next chunk boundary.
    token: CancelToken,
}

#[derive(Default)]
struct JobTable {
    /// Admission order, for a stable journal.
    order: Vec<String>,
    map: HashMap<String, JobEntry>,
}

/// Line-oriented writer shared by the control loop, the worker pool,
/// and the progress sink. One event = one line, flushed immediately —
/// clients block on lines, not on buffers.
struct SharedWriter<W: Write> {
    w: Arc<Mutex<W>>,
}

impl<W: Write> Clone for SharedWriter<W> {
    fn clone(&self) -> Self {
        SharedWriter { w: self.w.clone() }
    }
}

impl<W: Write> SharedWriter<W> {
    fn new(w: W) -> Self {
        SharedWriter {
            w: Arc::new(Mutex::new(w)),
        }
    }

    fn send(&self, event: Json) {
        let mut g = self.w.lock().unwrap_or_else(|e| e.into_inner());
        // A gone client must not kill the server (mirrors the binary's
        // BrokenPipe tolerance).
        let _ = writeln!(g, "{event}");
        let _ = g.flush();
    }
}

/// Telemetry sink that forwards every event to the previously
/// installed sink (the CLI's `--trace-out` file, when present) and
/// additionally streams per-design progress to clients: each job-scoped
/// `dse` span becomes a `progress` event on the wire.
struct ProgressSink<W: Write + Send> {
    out: SharedWriter<W>,
    inner: Option<Box<dyn Sink>>,
}

impl<W: Write + Send> Sink for ProgressSink<W> {
    fn write_line(&mut self, line: &str) {
        if let Some(s) = self.inner.as_mut() {
            s.write_line(line);
        }
        // Cheap pre-filter: only per-design dse spans carrying a job
        // scope are worth parsing (mapper chunk events are far too
        // frequent to parse speculatively).
        if !(line.contains("\"phase\":\"dse\"") && line.contains("\"job\":")) {
            return;
        }
        let Ok(v) = Json::parse(line) else { return };
        let (Some(job), Some(design)) = (v["job"].as_str(), v["name"].as_str()) else {
            return;
        };
        let mut ev = Json::obj()
            .field("event", "progress")
            .field("id", job)
            .field("design", design);
        if let Some(outcome) = v["outcome"].as_str() {
            ev = ev.field("outcome", outcome);
        }
        if let Some(us) = v["us"].as_u64() {
            ev = ev.field("us", us);
        }
        self.out.send(ev);
    }

    fn flush(&mut self) {
        if let Some(s) = self.inner.as_mut() {
            s.flush();
        }
    }
}

fn warning(reason: String) -> Json {
    Json::obj()
        .field("event", "warning")
        .field("reason", reason)
}

/// The DSE service. Construct with [`Server::new`] (which restores any
/// journalled state), then hand a transport to [`Server::serve`].
pub struct Server {
    cfg: ServiceConfig,
    cache: Arc<CandidateCache>,
    jobs: Mutex<JobTable>,
    queue: JobQueue,
    resumed: usize,
    /// What state restoration had to work around (empty artifacts,
    /// salvaged journals, backup-generation fallbacks) — emitted as
    /// `warning` events when `serve` starts.
    recovery_warnings: Vec<String>,
    /// Trips when a journal or cache write exhausts its durability
    /// retries: the server keeps running in-memory but exits 2.
    degraded: AtomicBool,
}

impl Server {
    /// Create the state dir (if needed), sweep stale `.tmp` orphans,
    /// reload the journal and the candidate cache, and re-enqueue every
    /// resumable (`Queued`/`Running`) job. Their per-job checkpoints
    /// make the re-runs zero-recomputation.
    ///
    /// # Errors
    ///
    /// [`SecureLoopError::Checkpoint`] when the state dir cannot be
    /// created, or a typed error when an existing journal cannot be
    /// recovered even after record salvage and the `.bak` generation
    /// (an unreadable journal needs operator attention — silently
    /// dropping admitted jobs would be worse). A 0-byte journal (a
    /// crash between create and write) and a corrupted cache file are
    /// *not* errors: the first holds no jobs, the second only costs
    /// recomputation; both leave a recovery warning.
    pub fn new(cfg: ServiceConfig) -> Result<Server, SecureLoopError> {
        fs::create_dir_all(&cfg.state_dir).map_err(|e| SecureLoopError::Checkpoint {
            path: cfg.state_dir.display().to_string(),
            message: format!("create state dir: {e}"),
        })?;
        persist::remove_stale_tmps(&cfg.state_dir);

        let queue = JobQueue::new(cfg.queue_depth);
        let mut table = JobTable::default();
        let mut resumed = 0;
        let mut recovery_warnings = Vec::new();
        let journal_path = persist::journal_path(&cfg.state_dir);
        if journal_path.exists() {
            let journal = match artifact::load::<ServiceJournal>(&journal_path) {
                Ok(rec) => {
                    recovery_warnings.extend(rec.warnings);
                    rec.value
                }
                Err(e) if e.is_empty() => {
                    recovery_warnings.push(format!(
                        "journal '{}' is empty (crash between create and write); \
                         treating it as absent",
                        journal_path.display()
                    ));
                    ServiceJournal::default()
                }
                Err(e) => return Err(e.into()),
            };
            for mut record in journal.jobs {
                if record.state.is_resumable() {
                    // `restore`, not `submit`: these jobs were already
                    // admitted by the previous incarnation; shedding
                    // them now would renege on that acceptance.
                    record.state = JobState::Queued;
                    record.cause = None;
                    queue.restore(record.spec.id.clone());
                    resumed += 1;
                }
                table.order.push(record.spec.id.clone());
                table.map.insert(
                    record.spec.id.clone(),
                    JobEntry {
                        record,
                        token: CancelToken::new(),
                    },
                );
            }
        }

        let cache_path = persist::cache_path(&cfg.state_dir);
        let mut cache = if cache_path.exists() {
            match artifact::load::<CandidateCache>(&cache_path) {
                Ok(rec) => {
                    recovery_warnings.extend(rec.warnings);
                    rec.value
                }
                Err(e) => {
                    recovery_warnings.push(if e.is_empty() {
                        format!(
                            "candidate cache '{}' is empty (crash between create and \
                             write); treating it as absent",
                            cache_path.display()
                        )
                    } else {
                        format!("ignoring candidate cache '{}': {e}", cache_path.display())
                    });
                    CandidateCache::new()
                }
            }
        } else {
            CandidateCache::new()
        };
        if let Some(bytes) = cfg.cache_budget_bytes {
            cache = cache.with_budget_bytes(bytes);
        }

        Ok(Server {
            cfg,
            cache: Arc::new(cache),
            jobs: Mutex::new(table),
            queue,
            resumed,
            recovery_warnings,
            degraded: AtomicBool::new(false),
        })
    }

    /// Jobs re-enqueued from the journal by [`Server::new`].
    pub fn resumed(&self) -> usize {
        self.resumed
    }

    /// The shared candidate cache (tests inspect its stats).
    pub fn cache(&self) -> &CandidateCache {
        &self.cache
    }

    fn table(&self) -> MutexGuard<'_, JobTable> {
        self.jobs.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Serialise the job table to the journal. Holds the table lock
    /// across the write so concurrent transitions cannot interleave a
    /// stale snapshot over a fresh one.
    fn save_journal<W: Write>(&self, out: &SharedWriter<W>) {
        let t = self.table();
        let journal = ServiceJournal {
            jobs: t
                .order
                .iter()
                .filter_map(|id| t.map.get(id))
                .map(|e| e.record.clone())
                .collect(),
        };
        if let Err(e) = artifact::save(
            &journal,
            &persist::journal_path(&self.cfg.state_dir),
            &self.cfg.durability,
        ) {
            drop(t);
            self.degraded.store(true, Ordering::Relaxed);
            out.send(warning(format!(
                "journal save failed: {e}; continuing in-memory (state will not survive a crash)"
            )));
        }
    }

    /// Run the service over a transport until EOF, a `shutdown`
    /// request, or a process-wide shutdown signal.
    ///
    /// - EOF / `shutdown` op: stop admitting, **drain the queue
    ///   fully**, persist everything, return [`RunStatus::Success`].
    /// - SIGINT/SIGTERM (the process shutdown flag): stop admitting,
    ///   running jobs checkpoint and go back to `Queued`, persist
    ///   everything, return [`RunStatus::Interrupted`] (exit code 3); a
    ///   restarted server resumes them with zero recomputation.
    pub fn serve<R, W>(&self, reader: R, writer: W) -> RunStatus
    where
        R: Read + Send + 'static,
        W: Write + Send + 'static,
    {
        let out = SharedWriter::new(writer);

        // Wrap any pre-installed sink (e.g. `--trace-out`) so every
        // job-scoped dse span also streams to clients as progress.
        let inner = telemetry::take_sink();
        telemetry::install_sink(Box::new(ProgressSink {
            out: out.clone(),
            inner,
        }));

        // The input thread is detached on purpose: a thread blocked in
        // `read_line` cannot be joined on a signal-driven drain, and
        // the process exits right after `serve` returns anyway.
        let (tx, rx) = mpsc::channel::<String>();
        std::thread::spawn(move || {
            for line in BufReader::new(reader).lines() {
                let Ok(line) = line else { break };
                if tx.send(line).is_err() {
                    break;
                }
            }
        });

        out.send(protocol::ready(
            self.resumed,
            self.queue.limit(),
            self.cfg.workers,
        ));
        for w in &self.recovery_warnings {
            out.send(warning(w.clone()));
        }

        std::thread::scope(|s| {
            for _ in 0..self.cfg.workers.max(1) {
                s.spawn(|| {
                    while let Some(id) = self.queue.next() {
                        self.run_job(&id, &out);
                    }
                });
            }
            loop {
                if cancel::shutdown_requested() {
                    break;
                }
                match rx.recv_timeout(Duration::from_millis(100)) {
                    Ok(line) => {
                        let line = line.trim();
                        if line.is_empty() {
                            continue;
                        }
                        if !self.handle_request(line, &out) {
                            break;
                        }
                    }
                    Err(RecvTimeoutError::Timeout) => {}
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            }
            self.queue.start_drain();
            // Scope exit joins the workers: an EOF drain finishes every
            // queued job first; a signal drain exits after the jobs in
            // flight have checkpointed.
        });

        self.save_journal(&out);
        if let Err(e) = self.cache.save_with(
            &persist::cache_path(&self.cfg.state_dir),
            &self.cfg.durability,
        ) {
            self.degraded.store(true, Ordering::Relaxed);
            out.send(warning(format!("cache save failed: {e}")));
        }
        let resumable = {
            let t = self.table();
            t.map
                .values()
                .filter(|e| e.record.state.is_resumable())
                .count()
        };
        out.send(protocol::shutdown(resumable));

        // Flush-on-drain: the wrapped `--trace-out` sink buffers; the
        // process often exits right after this returns, so flush and
        // drop it now rather than trusting a later teardown to run.
        telemetry::flush_sink();
        drop(telemetry::take_sink());

        if cancel::shutdown_requested() {
            RunStatus::Interrupted
        } else if self.degraded.load(Ordering::Relaxed) {
            // Jobs all ran to completion, but some state never reached
            // disk — exit 2 so operators notice the journal/cache gap.
            RunStatus::Degraded
        } else {
            RunStatus::Success
        }
    }

    /// Returns `false` when the control loop should stop (a `shutdown`
    /// request).
    fn handle_request<W: Write>(&self, line: &str, out: &SharedWriter<W>) -> bool {
        match protocol::parse_request(line) {
            Err(reason) => out.send(protocol::protocol_error(&reason)),
            Ok(Request::Ping) => out.send(protocol::pong()),
            Ok(Request::Stats) => out.send(self.stats_event()),
            Ok(Request::Shutdown) => return false,
            Ok(Request::Cancel(id)) => self.cancel_job(&id, out),
            Ok(Request::Submit(spec)) => self.submit_job(*spec, out),
        }
        true
    }

    fn submit_job<W: Write>(&self, mut spec: JobSpec, out: &SharedWriter<W>) {
        let id = spec.id.clone();
        // A shed id may retry later (that is the point of shedding);
        // any other reuse is a client bug.
        if self
            .table()
            .map
            .get(&id)
            .is_some_and(|e| e.record.state != JobState::Shed)
        {
            out.send(protocol::rejected(&id, "duplicate job id"));
            return;
        }
        // Fill in the server-level default scheme *before* admission so
        // the scheme/engine-class validation applies to what will run,
        // and the journalled spec records the effective scheme.
        if spec.run.scheme.is_none() {
            spec.run.scheme = self.cfg.default_scheme;
        }
        if let Err(reason) = self.cfg.admission.admit(&spec) {
            out.send(protocol::rejected(&id, &reason));
            return;
        }

        // Insert the record *before* the queue push so a worker that
        // pops immediately always finds the entry.
        {
            let mut t = self.table();
            if !t.map.contains_key(&id) {
                t.order.push(id.clone());
            }
            t.map.insert(
                id.clone(),
                JobEntry {
                    record: JobRecord::queued(spec),
                    token: CancelToken::new(),
                },
            );
        }
        match self.queue.submit(id.clone()) {
            SubmitOutcome::Accepted { depth } => {
                self.save_journal(out);
                out.send(protocol::accepted(&id, depth));
            }
            SubmitOutcome::Overloaded { depth, limit } => {
                if let Some(e) = self.table().map.get_mut(&id) {
                    e.record.state = JobState::Shed;
                    e.record.cause = Some(format!("queue full ({depth}/{limit}); resubmit later"));
                }
                self.save_journal(out);
                out.send(protocol::overloaded(&id, depth, limit));
            }
        }
    }

    fn cancel_job<W: Write>(&self, id: &str, out: &SharedWriter<W>) {
        let mut t = self.table();
        let Some(e) = t.map.get_mut(id) else {
            drop(t);
            out.send(protocol::rejected(id, "unknown job id"));
            return;
        };
        match e.record.state {
            JobState::Queued if self.queue.remove(id) => {
                e.record.state = JobState::Cancelled;
                e.record.cause = Some("cancelled while queued".into());
                drop(t);
                self.save_journal(out);
                out.send(protocol::cancelled(id));
            }
            // Queued-but-not-in-queue means a worker grabbed it between
            // journal state and pop — treat as running.
            JobState::Queued | JobState::Running => {
                e.token.cancel();
                drop(t);
                out.send(Json::obj().field("event", "cancelling").field("id", id));
            }
            _ => {
                drop(t);
                out.send(protocol::rejected(id, "job already finished"));
            }
        }
    }

    fn stats_event(&self) -> Json {
        let t = self.table();
        let mut jobs = Json::obj();
        for state in [
            JobState::Queued,
            JobState::Running,
            JobState::Completed,
            JobState::Failed,
            JobState::Poisoned,
            JobState::Cancelled,
            JobState::Shed,
        ] {
            let n = t.map.values().filter(|e| e.record.state == state).count();
            jobs = jobs.field(state.name(), n as u64);
        }
        drop(t);
        Json::obj()
            .field("event", "stats")
            .field("queue_depth", self.queue.len())
            .field("queue_limit", self.queue.limit())
            .field("jobs", jobs)
            .field(
                "cache",
                Json::obj()
                    .field("entries", self.cache.len())
                    .field("approx_bytes", self.cache.approx_bytes())
                    .field("hits", self.cache.hits())
                    .field("misses", self.cache.misses())
                    .field("evictions", self.cache.evictions()),
            )
    }

    /// Transition a job to a terminal (or re-queued) state and persist.
    fn settle<W: Write>(
        &self,
        id: &str,
        state: JobState,
        cause: Option<String>,
        out: &SharedWriter<W>,
    ) {
        {
            let mut t = self.table();
            if let Some(e) = t.map.get_mut(id) {
                e.record.state = state;
                e.record.cause = cause;
            }
        }
        if state.is_terminal() {
            // The sweep checkpoint has served its purpose; a terminal
            // job never resumes.
            let _ = fs::remove_file(persist::job_checkpoint_path(&self.cfg.state_dir, id));
        }
        self.save_journal(out);
    }

    fn run_job<W: Write>(&self, id: &str, out: &SharedWriter<W>) {
        let (spec, token) = {
            let mut t = self.table();
            let Some(e) = t.map.get_mut(id) else { return };
            if e.record.state.is_terminal() {
                // Cancelled (or otherwise settled) while queued.
                return;
            }
            e.record.state = JobState::Running;
            e.record.cause = None;
            (e.record.spec.clone(), e.token.clone())
        };
        self.save_journal(out);
        out.send(protocol::started(id));

        // Every telemetry event this job emits — including from the
        // sweep's own worker threads, which re-enter this scope —
        // carries its id, so the progress stream and any trace file
        // stay attributable per tenant.
        let _scope = telemetry::enter_scope(id.to_string());

        let fail = |reason: String| {
            self.settle(id, JobState::Failed, Some(reason.clone()), out);
            out.send(protocol::result(id, "failed", Json::Null, Some(&reason)));
        };
        let designs = match spec.resolve_designs() {
            Ok(d) => d,
            Err(e) => return fail(e),
        };
        let network = match spec.resolve_workload() {
            Ok(n) => n,
            Err(e) => return fail(e),
        };

        // Budgets are the one-shot `secureloop dse` command's, so a
        // healthy service job is byte-identical to the same run through
        // the CLI.
        let (search, annealing) = spec.run.configs(Entry::Sweep, self.cfg.search_mode);
        let ckpt_path = persist::job_checkpoint_path(&self.cfg.state_dir, id);
        let opts = SweepOptions::new()
            .with_checkpoint(ckpt_path)
            .with_resume(true)
            .with_workers(self.cfg.job_workers)
            .with_supervisor(self.cfg.supervisor)
            .with_shared_cache(Arc::clone(&self.cache))
            .with_cancel(token.clone())
            .with_durability(self.cfg.durability);

        // Chaos hook: a planned fault stays scoped to this job's
        // designated architecture; while armed, other jobs bypass the
        // cache (results unchanged) rather than risk poisoned entries.
        let armed = match spec.fault.as_ref().map(|f| f.to_plan()) {
            None => None,
            Some(Ok(plan)) => Some(FaultScope::inject(plan)),
            Some(Err(e)) => return fail(e),
        };
        let outcome = evaluate_designs_sweep(
            &network,
            &designs,
            spec.run.algorithm,
            &search,
            &annealing,
            &opts,
        );
        drop(armed);

        let sweep = match outcome {
            Ok(sweep) => sweep,
            Err(e) => return fail(e.to_string()),
        };
        if sweep.degraded_persistence {
            // The job itself ran fine; its checkpoint writes did not.
            self.degraded.store(true, Ordering::Relaxed);
            for w in &sweep.warnings {
                out.send(warning(format!("{id}: {w}")));
            }
        }
        if sweep.interrupted {
            if token.is_cancelled() {
                let cause = "cancelled by client".to_string();
                self.settle(id, JobState::Cancelled, Some(cause.clone()), out);
                out.send(protocol::result(id, "cancelled", Json::Null, Some(&cause)));
            } else {
                // Process-wide drain: the finished design points are
                // checkpointed; back to Queued so a restarted server
                // resumes with zero recomputation.
                self.settle(id, JobState::Queued, None, out);
                out.send(protocol::checkpointed(id));
            }
            return;
        }

        let report = report::sweep_to_json_value(&sweep, &pareto_front(&sweep.results));
        if !sweep.poisoned.is_empty() {
            let cause = sweep
                .poisoned
                .iter()
                .map(|(label, cause)| format!("{label}: {cause}"))
                .collect::<Vec<_>>()
                .join("; ");
            self.settle(id, JobState::Poisoned, Some(cause.clone()), out);
            out.send(protocol::result(id, "poisoned", report, Some(&cause)));
        } else if sweep.results.is_empty() && !sweep.skipped.is_empty() {
            let cause = sweep
                .skipped
                .iter()
                .map(|(label, error)| format!("{label}: {error}"))
                .collect::<Vec<_>>()
                .join("; ");
            self.settle(id, JobState::Failed, Some(cause.clone()), out);
            out.send(protocol::result(id, "failed", report, Some(&cause)));
        } else {
            self.settle(id, JobState::Completed, None, out);
            out.send(protocol::result(id, "completed", report, None));
        }
    }
}
