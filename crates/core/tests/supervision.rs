//! Chaos suite for the supervised sweep engine: injected panics,
//! stalls, and transient I/O errors must be contained to the design
//! point they hit — retried where transient, quarantined where not —
//! while every healthy design point stays byte-identical to a
//! fault-free run. Shutdown requests drain cleanly into a resumable
//! checkpoint.
//!
//! Several tests flip process-global state (the shutdown flag, the
//! telemetry registry, the fault plan), so every test serialises on a
//! file-level mutex. This file is its own test binary, so nothing
//! outside it can observe the flips.

use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use secureloop::dse::{evaluate_designs_sweep, DseResult, SweepOptions, SweepRun};
use secureloop::{Algorithm, AnnealingConfig, SupervisorConfig};
use secureloop_arch::Architecture;
use secureloop_crypto::{CryptoConfig, EngineClass};
use secureloop_mapper::{cancel, CancelToken, FaultPlan, FaultScope, SearchConfig};
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

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// `n` distinct design points named `chaos-00..`, differing only in
/// GLB capacity so every one is cheap to schedule.
fn chaos_designs(n: usize) -> Vec<Architecture> {
    (0..n)
        .map(|i| {
            Architecture::eyeriss_base()
                .with_glb_kb(32 + i as u64)
                .with_crypto(CryptoConfig::new(EngineClass::Parallel, 3))
                .with_name(format!("chaos-{i:02}"))
        })
        .collect()
}

/// A tiny two-layer workload (layers `fc0`, `fc1`) so 50-design sweeps
/// stay fast; fault plans below target these layer names.
fn net() -> secureloop_workload::Network {
    zoo::mlp(2, 64)
}

fn sweep(designs: &[Architecture], opts: &SweepOptions) -> SweepRun {
    evaluate_designs_sweep(
        &net(),
        designs,
        Algorithm::CryptOptSingle,
        &SearchConfig::quick(),
        &AnnealingConfig::quick(),
        opts,
    )
    .expect("sweep returns Ok even under injected faults")
}

fn quick_supervisor() -> SupervisorConfig {
    SupervisorConfig::default()
        .with_max_retries(1)
        .with_base_backoff(Duration::from_millis(1))
}

/// Bit-exact transcript of everything a caller can observe in the
/// results (same shape as the `sweep_determinism` suite's).
fn transcript<'a>(results: impl IntoIterator<Item = &'a DseResult>) -> String {
    let mut out = String::new();
    for r in results {
        out.push_str(&format!(
            "{}|{}|{:016x}|{:016x}|{}|{:?}\n",
            r.label,
            r.schedule.total_latency_cycles,
            r.schedule.total_energy_pj.to_bits(),
            r.area_mm2().to_bits(),
            r.schedule.layers.len(),
            r.schedule
                .outcomes
                .iter()
                .map(|(n, o)| format!("{n}:{o:?}"))
                .collect::<Vec<_>>(),
        ));
    }
    out
}

/// The headline containment property: one design point panicking in a
/// 50-design sweep is quarantined, and the other 49 results are
/// byte-identical to a fault-free run of the same sweep.
#[test]
fn poisoned_design_is_contained_to_its_slot() {
    let _guard = serial();
    let designs = chaos_designs(50);
    let opts = SweepOptions::new()
        .with_cache(false)
        .with_workers(4)
        .with_supervisor(quick_supervisor());

    let baseline = sweep(&designs, &opts);
    assert_eq!(baseline.evaluated, 50);
    assert!(baseline.poisoned.is_empty());
    assert!(baseline.skipped.is_empty());

    let faulted = {
        let _scope = FaultScope::inject(FaultPlan::panic(["fc1"]).for_arch("chaos-17"));
        sweep(&designs, &opts)
    };
    assert_eq!(
        faulted.poisoned.len(),
        1,
        "exactly the faulted design is quarantined: {:?}",
        faulted.poisoned
    );
    let (label, cause) = &faulted.poisoned[0];
    assert_eq!(label, "chaos-17");
    assert!(
        cause.contains("injected panic"),
        "the captured panic payload is surfaced: {cause}"
    );
    assert!(faulted.skipped.is_empty());
    assert_eq!(faulted.evaluated, 49);
    assert!(!faulted.interrupted);

    let healthy = transcript(baseline.results.iter().filter(|r| r.label != "chaos-17"));
    assert!(!healthy.is_empty());
    assert_eq!(
        transcript(faulted.results.iter()),
        healthy,
        "the 49 healthy design points must be byte-identical to the fault-free run"
    );
}

/// A transient typed error (injected I/O failure with a budget of one
/// firing per layer) makes every layer of one design fail on the first
/// attempt; the supervisor retries and the second attempt — budget
/// spent, faults cleared — succeeds. Nothing is skipped or poisoned.
#[test]
fn transient_errors_are_retried_to_success() {
    let _guard = serial();
    telemetry::reset();
    let designs = chaos_designs(4);
    let opts = SweepOptions::new()
        .with_cache(false)
        .with_workers(1)
        .with_supervisor(quick_supervisor().with_max_retries(2));

    let run = {
        let _scope =
            FaultScope::inject(FaultPlan::io_error(["fc0", "fc1"], 1).for_arch("chaos-02"));
        sweep(&designs, &opts)
    };
    assert!(run.poisoned.is_empty(), "poisoned: {:?}", run.poisoned);
    assert!(run.skipped.is_empty(), "skipped: {:?}", run.skipped);
    assert_eq!(run.evaluated, 4, "the faulted design recovers on retry");

    let snap = telemetry::snapshot();
    assert!(
        snap.counter("supervisor.retries") >= 1,
        "the recovery must have gone through the supervisor's retry path"
    );
    assert_eq!(snap.counter("supervisor.poisoned"), 0);
    assert_eq!(snap.counter("dse.designs_poisoned"), 0);
}

/// A stalled search trips the per-task watchdog: the attempt is
/// cancelled, retried, and — the stall being permanent — the design is
/// quarantined with a timeout cause while its neighbours complete.
#[test]
fn stalled_design_is_timed_out_and_quarantined() {
    let _guard = serial();
    telemetry::reset();
    let designs = chaos_designs(3);
    let opts = SweepOptions::new()
        .with_cache(false)
        .with_workers(1)
        .with_supervisor(quick_supervisor().with_task_timeout(Duration::from_millis(200)));

    let run = {
        let _scope = FaultScope::inject(
            FaultPlan::stall(["fc0"], Duration::from_secs(5)).for_arch("chaos-01"),
        );
        sweep(&designs, &opts)
    };
    assert_eq!(run.poisoned.len(), 1, "poisoned: {:?}", run.poisoned);
    let (label, cause) = &run.poisoned[0];
    assert_eq!(label, "chaos-01");
    assert!(cause.contains("timed out"), "cause: {cause}");
    assert_eq!(run.evaluated, 2, "the healthy designs still complete");

    let snap = telemetry::snapshot();
    assert!(snap.counter("supervisor.timeouts") >= 1);
}

/// A shutdown request before the sweep starts drains immediately: no
/// design point runs, the run is flagged interrupted, and re-running
/// with `--resume` semantics (flag cleared) completes with results
/// byte-identical to a never-interrupted sweep.
#[test]
fn shutdown_request_drains_and_resume_completes() {
    let _guard = serial();
    let dir = tmp_dir("secureloop-supervision-shutdown");
    let ckpt = dir.join("sweep.json");
    let _ = std::fs::remove_file(&ckpt);
    let designs = chaos_designs(6);

    let golden = sweep(&designs, &SweepOptions::new().with_cache(false));
    assert_eq!(golden.evaluated, 6);

    let opts = SweepOptions::new()
        .with_cache(false)
        .with_workers(2)
        .with_checkpoint(&ckpt);
    let interrupted = {
        let _reset = ShutdownReset;
        cancel::request_shutdown();
        sweep(&designs, &opts)
    };
    assert!(interrupted.interrupted, "the run reports the interruption");
    assert_eq!(interrupted.evaluated, 0);
    assert!(interrupted.results.is_empty());
    assert!(
        !cancel::shutdown_requested(),
        "the reset guard cleared the flag for the resume"
    );

    let resumed = sweep(&designs, &opts.clone().with_resume(true));
    assert!(!resumed.interrupted);
    assert_eq!(resumed.evaluated + resumed.reused, 6);
    assert_eq!(
        transcript(resumed.results.iter()),
        transcript(golden.results.iter()),
        "the resumed sweep must match a never-interrupted one"
    );
}

/// The shutdown flag is the root of the cancellation tree: every token,
/// a fresh one or a deep child, observes it without its own flag being
/// set, so clearing the flag leaves them all uncancelled.
#[test]
fn every_token_observes_a_shutdown_request() {
    let _guard = serial();
    let job = CancelToken::new();
    let tokens = [job.clone(), job.child().child(), CancelToken::new()];
    {
        let _reset = ShutdownReset;
        cancel::request_shutdown();
        assert!(tokens.iter().all(CancelToken::is_cancelled));
    }
    assert!(!tokens.iter().any(CancelToken::is_cancelled));
}

/// A design that exhausted its retries is quarantined in the
/// checkpoint: a resumed sweep restores the verdict — captured cause
/// included — without ever re-running the poisoned design.
#[test]
fn quarantined_design_is_not_rerun_on_resume() {
    let _guard = serial();
    let dir = tmp_dir("secureloop-supervision-quarantine");
    let ckpt = dir.join("sweep.json");
    let _ = std::fs::remove_file(&ckpt);
    let designs = chaos_designs(5);
    let opts = SweepOptions::new()
        .with_cache(false)
        .with_checkpoint(&ckpt)
        .with_supervisor(quick_supervisor());

    let first = {
        let _scope = FaultScope::inject(FaultPlan::panic(["fc0"]).for_arch("chaos-03"));
        sweep(&designs, &opts)
    };
    assert_eq!(first.evaluated, 4);
    assert_eq!(first.poisoned.len(), 1);
    let first_cause = first.poisoned[0].1.clone();

    // Resume with the fault gone: the quarantine, not luck, must keep
    // the design out — zero mapper searches prove nothing re-ran.
    telemetry::reset();
    let resumed = sweep(&designs, &opts.clone().with_resume(true));
    assert_eq!(resumed.reused, 4);
    assert_eq!(resumed.evaluated, 0);
    assert_eq!(resumed.poisoned.len(), 1);
    assert_eq!(resumed.poisoned[0].0, "chaos-03");
    assert_eq!(
        resumed.poisoned[0].1, first_cause,
        "the captured cause survives the checkpoint round trip"
    );
    assert_eq!(
        telemetry::snapshot().counter("mapper.searches"),
        0,
        "a quarantined design must not be re-evaluated on resume"
    );
}
