//! Chaos suite for the DSE service: overload shedding is a typed
//! response, poisoned tenants report their cause without disturbing
//! neighbours, healthy results are byte-identical to one-shot engine
//! runs, and a SIGTERM-style drain checkpoints in-flight jobs so a
//! restarted server resumes them with zero recomputation.
//!
//! The server is driven fully in-process over channel-backed
//! transports (see [`Harness`]); `Server::serve` is generic over
//! `Read`/`Write` exactly so these tests need no subprocess.
//!
//! Several tests flip process-global state (the shutdown flag, the
//! telemetry sink), so every test serialises on a file-level mutex, and
//! this file is its own test binary. A job's fault plan is not such
//! state: it belongs to the job, which the neighbour tests check.

use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use secureloop::cli::RunStatus;
use secureloop::dse::{evaluate_designs_sweep, fig16_design_space, pareto_front, SweepOptions};
use secureloop::report;
use secureloop::service::{AdmissionPolicy, Server, ServiceConfig};
use secureloop::{Algorithm, AnnealingConfig, SupervisorConfig};
use secureloop_json::Json;
use secureloop_mapper::{cancel, SearchConfig, SearchMode};
use secureloop_telemetry as telemetry;
use secureloop_workload::zoo;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Clears the shutdown flag on drop, so a failing assertion cannot
/// leave it set for the next test.
struct ShutdownReset;

impl Drop for ShutdownReset {
    fn drop(&mut self) {
        cancel::reset_shutdown();
    }
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sl-service-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The Fig. 16 label the tests pin their single-design jobs to.
const DESIGN_A: &str = "14x12/16kB/Pipelined";
/// A second and third label for the multi-design drain test.
const DESIGN_B: &str = "14x12/32kB/Pipelined";
const DESIGN_C: &str = "14x12/131kB/Pipelined";

/// Budgets shared by every job and every reference run: `mlp` (4
/// layers, fc0..fc3) with small budgets keeps one design point around
/// a second.
const SAMPLES: usize = 20;
const ITERATIONS: usize = 3;
const SEED: u64 = 1;

// ---------------------------------------------------------------------------
// In-process transport
// ---------------------------------------------------------------------------

/// Blocking `Read` over an mpsc of byte chunks; sender-drop is EOF.
struct ChannelReader {
    rx: mpsc::Receiver<Vec<u8>>,
    buf: Vec<u8>,
    pos: usize,
}

impl Read for ChannelReader {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        while self.pos >= self.buf.len() {
            match self.rx.recv() {
                Ok(chunk) => {
                    self.buf = chunk;
                    self.pos = 0;
                }
                Err(_) => return Ok(0),
            }
        }
        let n = (self.buf.len() - self.pos).min(out.len());
        out[..n].copy_from_slice(&self.buf[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// Collects complete lines into a shared vector the test polls.
struct LineWriter {
    lines: Arc<Mutex<Vec<String>>>,
    partial: Vec<u8>,
}

impl Write for LineWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.partial.extend_from_slice(buf);
        while let Some(pos) = self.partial.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.partial.drain(..=pos).collect();
            let text = String::from_utf8_lossy(&line[..line.len() - 1]).into_owned();
            self.lines.lock().unwrap().push(text);
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// One running server plus its client-side channel ends.
struct Harness {
    tx: Option<mpsc::Sender<Vec<u8>>>,
    lines: Arc<Mutex<Vec<String>>>,
    thread: JoinHandle<RunStatus>,
}

impl Harness {
    fn start(cfg: ServiceConfig) -> Harness {
        let server = Arc::new(Server::new(cfg).expect("server starts"));
        Harness::start_on(server)
    }

    fn start_on(server: Arc<Server>) -> Harness {
        let (tx, rx) = mpsc::channel::<Vec<u8>>();
        let reader = ChannelReader {
            rx,
            buf: Vec::new(),
            pos: 0,
        };
        let lines = Arc::new(Mutex::new(Vec::new()));
        let writer = LineWriter {
            lines: lines.clone(),
            partial: Vec::new(),
        };
        let thread = {
            let server = server.clone();
            std::thread::spawn(move || server.serve(reader, writer))
        };
        let h = Harness {
            tx: Some(tx),
            lines,
            thread,
        };
        h.wait(|v| v["event"].as_str() == Some("ready"), 30);
        h
    }

    fn send(&self, line: &str) {
        self.tx
            .as_ref()
            .expect("input still open")
            .send(format!("{line}\n").into_bytes())
            .expect("server input thread alive");
    }

    /// Block until an emitted event matches, scanning everything seen
    /// so far first.
    fn wait(&self, pred: impl Fn(&Json) -> bool, secs: u64) -> Json {
        let deadline = Instant::now() + Duration::from_secs(secs);
        loop {
            // Copy the transcript and release the lock before asserting:
            // a panic while holding it would poison the server's writer.
            let transcript = {
                let lines = self.lines.lock().unwrap();
                let found = lines.iter().filter_map(|l| Json::parse(l).ok()).find(&pred);
                if let Some(v) = found {
                    return v;
                }
                lines.join("\n")
            };
            assert!(
                Instant::now() < deadline,
                "timed out waiting for an event; transcript:\n{transcript}"
            );
            std::thread::sleep(Duration::from_millis(25));
        }
    }

    fn wait_event(&self, event: &str, id: &str, secs: u64) -> Json {
        self.wait(
            |v| v["event"].as_str() == Some(event) && v["id"].as_str() == Some(id),
            secs,
        )
    }

    /// Whether job `id` has sent its `result` yet.
    fn settled(&self, id: &str) -> bool {
        self.lines.lock().unwrap().iter().any(|l| {
            Json::parse(l).is_ok_and(|v| {
                v["event"].as_str() == Some("result") && v["id"].as_str() == Some(id)
            })
        })
    }

    /// Cancel job `id` and wait for it to settle as cancelled.
    fn cancel(&self, id: &str) {
        self.send(&format!("{{\"op\":\"cancel\",\"id\":\"{id}\"}}"));
        let result = self.wait_event("result", id, 60);
        assert_eq!(result["status"].as_str(), Some("cancelled"), "{result}");
    }

    /// Close the input (EOF drain: every queued job still completes)
    /// and return the exit status plus the full event transcript.
    fn finish(mut self) -> (RunStatus, Vec<Json>) {
        drop(self.tx.take());
        let status = self.thread.join().expect("serve thread exits");
        let events = self
            .lines
            .lock()
            .unwrap()
            .iter()
            .map(|l| Json::parse(l).expect("every emitted line is JSON"))
            .collect();
        (status, events)
    }
}

fn quick_cfg(dir: &Path) -> ServiceConfig {
    ServiceConfig::new(dir).with_workers(1).with_supervisor(
        SupervisorConfig::default()
            .with_max_retries(1)
            .with_base_backoff(Duration::from_millis(1)),
    )
}

fn submit_line(id: &str, designs: &[&str], fault: Option<&str>) -> String {
    let list = designs
        .iter()
        .map(|d| format!("\"{d}\""))
        .collect::<Vec<_>>()
        .join(",");
    let fault = fault.map(|f| format!(",\"fault\":{f}")).unwrap_or_default();
    format!(
        "{{\"op\":\"submit\",\"id\":\"{id}\",\"workload\":\"mlp\",\"designs\":[{list}],\
         \"samples\":{SAMPLES},\"iterations\":{ITERATIONS},\"seed\":{SEED}{fault}}}"
    )
}

/// A stall fault keeps a job *slow* (the search sleeps, then proceeds
/// normally — results are unchanged) so tests can reliably observe it
/// mid-run.
fn stall_fault(arch: &str, ms: u64) -> String {
    format!("{{\"kind\":\"stall\",\"layers\":[\"fc0\"],\"arch\":\"{arch}\",\"stall_ms\":{ms}}}")
}

/// What the one-shot engine produces for the same job, through the
/// exact config the service mirrors from the `dse` command.
fn reference_designs_json(designs: &[&str]) -> String {
    let all = fig16_design_space();
    let archs: Vec<_> = designs
        .iter()
        .map(|want| {
            all.iter()
                .find(|a| a.name() == *want)
                .cloned()
                .expect("label exists")
        })
        .collect();
    let sweep = evaluate_designs_sweep(
        &zoo::mlp(4, 4096),
        &archs,
        Algorithm::CryptOptCross,
        &SearchConfig {
            samples: SAMPLES,
            top_k: 4,
            seed: SEED,
            threads: 4,
            deadline: None,
            mode: SearchMode::Guided,
        },
        &AnnealingConfig::paper_default().with_iterations(ITERATIONS.min(300)),
        &SweepOptions::new(),
    )
    .expect("reference sweep runs");
    assert!(sweep.skipped.is_empty() && sweep.poisoned.is_empty());
    report::sweep_to_json_value(&sweep, &pareto_front(&sweep.results))["designs"].to_string()
}

// ---------------------------------------------------------------------------
// Protocol and admission
// ---------------------------------------------------------------------------

#[test]
fn protocol_admission_and_stats_respond_without_running_jobs() {
    let _guard = serial();
    let dir = fresh_dir("protocol");
    let h = Harness::start(quick_cfg(&dir).with_admission(AdmissionPolicy {
        max_samples: 100,
        max_designs: 2,
        max_deadline_secs: 5.0,
    }));

    h.send(r#"{"op":"ping"}"#);
    h.wait(|v| v["event"].as_str() == Some("pong"), 10);

    h.send("this is not json");
    let err = h.wait(|v| v["event"].as_str() == Some("error"), 10);
    assert!(err["reason"].as_str().unwrap().contains("JSON"));

    // Admission control: over-budget jobs are rejected before taking a
    // queue slot, with the reason on the wire.
    h.send(r#"{"op":"submit","id":"big","workload":"mlp","samples":101}"#);
    let rej = h.wait_event("rejected", "big", 10);
    assert!(rej["reason"].as_str().unwrap().contains("admission cap"));

    h.send(r#"{"op":"submit","id":"wide","workload":"mlp"}"#); // full 18-design space
    let rej = h.wait_event("rejected", "wide", 10);
    assert!(rej["reason"].as_str().unwrap().contains("admission cap"));

    h.send(r#"{"op":"submit","id":"lost","workload":"gpt-17","samples":10}"#);
    h.wait_event("rejected", "lost", 10);

    h.send(r#"{"op":"submit","id":"../evil","workload":"mlp"}"#);
    // (ids that fail validation never reach a `rejected` event — the id
    // itself is untrusted, so the whole line is refused)
    h.wait(
        |v| {
            v["event"].as_str() == Some("error")
                && v["reason"]
                    .as_str()
                    .is_some_and(|r| r.contains("invalid job id"))
        },
        10,
    );

    h.send(r#"{"op":"stats"}"#);
    let stats = h.wait(|v| v["event"].as_str() == Some("stats"), 10);
    assert_eq!(stats["queue_limit"].as_u64(), Some(8));
    assert_eq!(stats["jobs"]["queued"].as_u64(), Some(0));
    assert!(stats["cache"]["entries"].as_u64().is_some());

    // A graceful shutdown op drains and exits 0.
    h.send(r#"{"op":"shutdown"}"#);
    let (status, events) = h.finish();
    assert_eq!(status, RunStatus::Success);
    let last = events.last().unwrap();
    assert_eq!(last["event"].as_str(), Some("shutdown"));
    assert_eq!(last["resumable"].as_u64(), Some(0));
}

// ---------------------------------------------------------------------------
// Backpressure, shedding, cancellation
// ---------------------------------------------------------------------------

#[test]
fn overload_is_shed_with_a_typed_response_and_cancel_frees_slots() {
    let _guard = serial();
    let dir = fresh_dir("shed");
    let h = Harness::start(quick_cfg(&dir).with_queue_depth(1));

    // A stalled tenant occupies the single worker...
    h.send(&submit_line(
        "slow",
        &[DESIGN_A],
        Some(&stall_fault(DESIGN_A, 4000)),
    ));
    h.wait_event("accepted", "slow", 10);
    h.wait_event("started", "slow", 30);

    // ...one more job fits the queue...
    h.send(&submit_line("q1", &[DESIGN_A], None));
    h.wait_event("accepted", "q1", 10);

    // ...and the burst past the bound is SHED, not buffered: a typed
    // Overloaded response naming depth and limit, never an error.
    h.send(&submit_line("burst1", &[DESIGN_A], None));
    let shed = h.wait_event("overloaded", "burst1", 10);
    assert_eq!(shed["queue_depth"].as_u64(), Some(1));
    assert_eq!(shed["queue_limit"].as_u64(), Some(1));
    h.send(&submit_line("burst2", &[DESIGN_A], None));
    h.wait_event("overloaded", "burst2", 10);

    // Cancelling the queued job frees its slot; the shed id retries
    // and is admitted this time.
    h.send(r#"{"op":"cancel","id":"q1"}"#);
    h.wait_event("cancelled", "q1", 10);
    h.send(&submit_line("burst1", &[DESIGN_A], None));
    h.wait_event("accepted", "burst1", 10);

    // Cancelling the running job trips its token; the stall wakes
    // early and the job settles as cancelled.
    h.send(r#"{"op":"cancel","id":"slow"}"#);
    h.wait_event("cancelling", "slow", 10);
    let result = h.wait_event("result", "slow", 60);
    assert_eq!(result["status"].as_str(), Some("cancelled"));

    // The re-admitted job completes on the freed worker.
    let result = h.wait_event("result", "burst1", 240);
    assert_eq!(result["status"].as_str(), Some("completed"));

    let (status, _) = h.finish();
    assert_eq!(status, RunStatus::Success);

    // The lifecycle survives in the journal: shed and cancelled states
    // are first-class, persisted records.
    let journal = std::fs::read_to_string(dir.join("service.json")).unwrap();
    // Journals carry the artifact-envelope footer; parse the payload.
    let (payload, integrity) = secureloop::artifact::open(&journal);
    assert_eq!(integrity, secureloop::artifact::Integrity::Verified);
    let journal = Json::parse(payload).unwrap();
    let state_of = |id: &str| {
        journal["jobs"]
            .as_array()
            .unwrap()
            .iter()
            .find(|r| r["spec"]["id"].as_str() == Some(id))
            .map(|r| r["state"].as_str().unwrap().to_string())
    };
    assert_eq!(state_of("slow").as_deref(), Some("cancelled"));
    assert_eq!(state_of("q1").as_deref(), Some("cancelled"));
    assert_eq!(state_of("burst1").as_deref(), Some("completed"));
    assert_eq!(state_of("burst2").as_deref(), Some("shed"));
}

// ---------------------------------------------------------------------------
// Poison quarantine and byte-identical healthy results
// ---------------------------------------------------------------------------

#[test]
fn poisoned_tenant_reports_cause_and_healthy_results_are_byte_identical() {
    let _guard = serial();
    let dir = fresh_dir("poison");
    let h = Harness::start(quick_cfg(&dir));

    // A tenant whose design panics on every attempt: quarantined, with
    // the captured cause on the wire — the server survives.
    let panic_fault =
        format!("{{\"kind\":\"panic\",\"layers\":[\"fc0\"],\"arch\":\"{DESIGN_A}\"}}");
    h.send(&submit_line("toxic", &[DESIGN_A], Some(&panic_fault)));
    h.wait_event("accepted", "toxic", 10);
    let result = h.wait_event("result", "toxic", 240);
    assert_eq!(result["status"].as_str(), Some("poisoned"));
    let cause = result["cause"].as_str().unwrap();
    assert!(cause.contains(DESIGN_A), "cause names the design: {cause}");
    assert!(
        cause.contains("panic") || cause.contains("injected"),
        "cause carries the payload: {cause}"
    );

    // The same design, submitted healthy by the next tenant, completes
    // with results byte-identical to a one-shot engine run.
    h.send(&submit_line("clean", &[DESIGN_A], None));
    let result = h.wait_event("result", "clean", 240);
    assert_eq!(result["status"].as_str(), Some("completed"));
    assert_eq!(
        result["report"]["designs"].to_string(),
        reference_designs_json(&[DESIGN_A]),
        "a poisoned neighbour must not perturb healthy results"
    );

    // A duplicate id is a client bug, not a new job.
    h.send(&submit_line("clean", &[DESIGN_A], None));
    let rej = h.wait_event("rejected", "clean", 10);
    assert!(rej["reason"].as_str().unwrap().contains("duplicate"));

    let (status, _) = h.finish();
    assert_eq!(status, RunStatus::Success);
}

#[test]
fn warm_cache_reruns_are_byte_identical_and_traced_per_job() {
    let _guard = serial();
    let dir = fresh_dir("warm");

    // Pre-install a collecting trace sink: serve() must *wrap* it, so
    // everything a `--trace-out` user would capture still arrives,
    // now attributed per job.
    let (sink, trace_lines) = telemetry::VecSink::new();
    telemetry::install_sink(sink);

    let h = Harness::start(quick_cfg(&dir));
    h.send(&submit_line("first", &[DESIGN_A], None));
    let cold = h.wait_event("result", "first", 240);
    assert_eq!(cold["status"].as_str(), Some("completed"));

    // Per-design progress streamed while the job ran.
    let progress = h.wait_event("progress", "first", 10);
    assert_eq!(progress["design"].as_str(), Some(DESIGN_A));
    assert_eq!(progress["outcome"].as_str(), Some("evaluated"));

    // Identical spec under a new id: answered through the warm shared
    // cache, byte-identical to the cold run.
    h.send(&submit_line("second", &[DESIGN_A], None));
    let warm = h.wait_event("result", "second", 240);
    assert_eq!(warm["status"].as_str(), Some("completed"));
    assert_eq!(
        warm["report"]["designs"].to_string(),
        cold["report"]["designs"].to_string(),
        "cache hits must be byte-identical to the searches they memoised"
    );
    assert!(
        warm["report"]["cache_hits"].as_u64().unwrap() > 0,
        "the second tenant hit the shared cache: {warm}"
    );

    let (status, _) = h.finish();
    assert_eq!(status, RunStatus::Success);

    let lines = trace_lines.lock().unwrap();
    assert!(
        lines.iter().any(|l| l.contains("\"job\":\"first\"")),
        "wrapped trace sink received job-scoped events"
    );
    drop(lines);

    // The cache was persisted on drain: a fresh server starts warm.
    assert!(dir.join("service.cache.json").exists());
    let server = Server::new(quick_cfg(&dir)).unwrap();
    assert!(
        !server.cache().is_empty(),
        "restored a warm cache from disk"
    );
}

// ---------------------------------------------------------------------------
// Fault plans belong to their job
// ---------------------------------------------------------------------------

/// A stall far longer than any wait below: a job that waited on it
/// could not settle in time. Each test cancels its stalled jobs, which
/// wakes them at once.
const LONG_STALL_MS: u64 = 120_000;

#[test]
fn healthy_job_on_the_chaos_design_never_sees_the_plan() {
    let _guard = serial();
    let dir = fresh_dir("overlap");
    let h = Harness::start(quick_cfg(&dir).with_workers(2));

    h.send(&submit_line(
        "chaos",
        &[DESIGN_A],
        Some(&stall_fault(DESIGN_A, LONG_STALL_MS)),
    ));
    h.wait_event("started", "chaos", 30);

    // The neighbour searches the very design the plan targets, on the
    // other worker: it settles without stalling, byte-identical to a
    // one-shot run.
    h.send(&submit_line("healthy", &[DESIGN_A, DESIGN_B], None));
    let result = h.wait_event("result", "healthy", 60);
    assert_eq!(result["status"].as_str(), Some("completed"));
    assert_eq!(
        result["report"]["designs"].to_string(),
        reference_designs_json(&[DESIGN_A, DESIGN_B]),
        "a chaos job's plan must not reach its neighbour"
    );
    assert!(!h.settled("chaos"), "the chaos job is still stalled");

    h.cancel("chaos");
    let (status, _) = h.finish();
    assert_eq!(status, RunStatus::Success);
}

#[test]
fn chaos_jobs_run_side_by_side() {
    let _guard = serial();
    let dir = fresh_dir("side-by-side");
    let h = Harness::start(quick_cfg(&dir).with_workers(2));

    h.send(&submit_line(
        "chaos-a",
        &[DESIGN_A],
        Some(&stall_fault(DESIGN_A, LONG_STALL_MS)),
    ));
    h.wait_event("started", "chaos-a", 30);

    // A second chaos job finishes its first design while the first
    // chaos job is still stalled: neither waits for the other's plan.
    h.send(&submit_line(
        "chaos-b",
        &[DESIGN_C, DESIGN_B],
        Some(&stall_fault(DESIGN_B, LONG_STALL_MS)),
    ));
    let progress = h.wait_event("progress", "chaos-b", 60);
    assert_eq!(progress["design"].as_str(), Some(DESIGN_C));
    assert!(
        !h.settled("chaos-a"),
        "the first chaos job is still stalled"
    );

    h.cancel("chaos-a");
    h.cancel("chaos-b");
    let (status, _) = h.finish();
    assert_eq!(status, RunStatus::Success);
}

#[test]
fn healthy_job_beside_a_chaos_job_still_hits_the_cache() {
    let _guard = serial();
    let dir = fresh_dir("cache-beside-chaos");
    let h = Harness::start(quick_cfg(&dir).with_workers(2));

    h.send(&submit_line("cold", &[DESIGN_A], None));
    let cold = h.wait_event("result", "cold", 240);
    assert_eq!(cold["status"].as_str(), Some("completed"));

    h.send(&submit_line(
        "chaos",
        &[DESIGN_B],
        Some(&stall_fault(DESIGN_B, LONG_STALL_MS)),
    ));
    h.wait_event("started", "chaos", 30);

    // Only the chaos job bypasses the shared cache.
    h.send(&submit_line("warm", &[DESIGN_A], None));
    let warm = h.wait_event("result", "warm", 60);
    assert_eq!(warm["status"].as_str(), Some("completed"));
    assert!(
        warm["report"]["cache_hits"].as_u64().unwrap() > 0,
        "the healthy job hit the shared cache: {warm}"
    );
    assert_eq!(
        warm["report"]["designs"].to_string(),
        cold["report"]["designs"].to_string()
    );

    h.cancel("chaos");
    let (status, _) = h.finish();
    assert_eq!(status, RunStatus::Success);
}

// ---------------------------------------------------------------------------
// Drain, restart, zero recomputation
// ---------------------------------------------------------------------------

#[test]
fn signal_drain_checkpoints_and_restart_resumes_with_zero_recompute() {
    let _guard = serial();
    let _reset = ShutdownReset;
    let dir = fresh_dir("drain");

    // Three designs; fc0 of the *second* stalls, so the drain lands
    // mid-job with the first design already checkpointed.
    let h = Harness::start(quick_cfg(&dir));
    h.send(&submit_line(
        "longjob",
        &[DESIGN_A, DESIGN_B, DESIGN_C],
        Some(&stall_fault(DESIGN_B, 3000)),
    ));
    h.wait_event("started", "longjob", 30);
    let progress = h.wait_event("progress", "longjob", 240);
    assert_eq!(progress["design"].as_str(), Some(DESIGN_A));

    // SIGINT/SIGTERM handlers store exactly this flag; flip it directly
    // (the test keeps its default signal disposition).
    cancel::request_shutdown();

    let (status, events) = h.finish();
    assert_eq!(
        status,
        RunStatus::Interrupted,
        "signal drain exits as code 3"
    );
    assert!(
        events
            .iter()
            .any(|v| v["event"].as_str() == Some("checkpointed")
                && v["id"].as_str() == Some("longjob")),
        "the in-flight job was checkpointed, not lost"
    );
    let last = events.last().unwrap();
    assert_eq!(last["event"].as_str(), Some("shutdown"));
    assert_eq!(last["resumable"].as_u64(), Some(1));

    cancel::reset_shutdown();

    // Restart on the same state dir: the journalled job is re-enqueued
    // automatically and completes from its checkpoint.
    let server = Arc::new(Server::new(quick_cfg(&dir)).unwrap());
    assert_eq!(server.resumed(), 1);
    let h = Harness::start_on(server);
    let result = h.wait_event("result", "longjob", 600);
    assert_eq!(result["status"].as_str(), Some("completed"));

    // Zero recomputation: the design finished before the drain was
    // restored from the checkpoint, and restored + evaluated covers the
    // whole job.
    let reused = result["report"]["reused"].as_u64().unwrap();
    let evaluated = result["report"]["evaluated"].as_u64().unwrap();
    assert!(reused >= 1, "at least the first design was restored");
    assert_eq!(reused + evaluated, 3, "restored + evaluated covers the job");

    // And the stitched-together result is byte-identical to a one-shot
    // run of the same three designs (the stall only sleeps; it never
    // changes results).
    assert_eq!(
        result["report"]["designs"].to_string(),
        reference_designs_json(&[DESIGN_A, DESIGN_B, DESIGN_C]),
        "resume must not change results"
    );

    let (status, _) = h.finish();
    assert_eq!(status, RunStatus::Success);
}

// ---------------------------------------------------------------------------
// Trace-sink flush on drain (regression: buffered --trace-out sinks
// used to lose their tail on signal exits)
// ---------------------------------------------------------------------------

struct FlushCounter {
    flushes: Arc<AtomicUsize>,
}

impl telemetry::Sink for FlushCounter {
    fn write_line(&mut self, _line: &str) {}

    fn flush(&mut self) {
        self.flushes.fetch_add(1, Ordering::SeqCst);
    }
}

#[test]
fn drain_flushes_the_wrapped_trace_sink() {
    let _guard = serial();
    let _reset = ShutdownReset;
    let dir = fresh_dir("flush");

    let flushes = Arc::new(AtomicUsize::new(0));
    telemetry::install_sink(Box::new(FlushCounter {
        flushes: flushes.clone(),
    }));

    let h = Harness::start(quick_cfg(&dir));
    cancel::request_shutdown();
    let (status, _) = h.finish();
    assert_eq!(status, RunStatus::Interrupted);
    assert!(
        flushes.load(Ordering::SeqCst) >= 1,
        "a signal drain must flush the wrapped sink before exit"
    );
    assert!(
        telemetry::take_sink().is_none(),
        "serve() owned and released the sink"
    );
}
