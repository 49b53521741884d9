//! Kill-injection and I/O-failure recovery, end to end.
//!
//! The durable-artifact layer promises two things:
//!
//! 1. **Crash safety** — a process killed at *any* point of the durable
//!    write path leaves a recoverable state: a restart restores every
//!    completed design point (zero recomputation) and finishes with
//!    results byte-identical to an uninterrupted run.
//! 2. **Graceful persistence failure** — a disk that keeps failing
//!    (ENOSPC, EROFS) never aborts a sweep: computation continues
//!    in-memory, the run reports degraded persistence, and the binary
//!    exits 2.
//!
//! The subprocess tests drive the real binary through the
//! `SECURELOOP_CRASH_POINT` / `SECURELOOP_ARTIFACT_IO_FAIL` hooks; the
//! in-process tests give their sweep's [`DurabilityPolicy`] a budget of
//! injected failures for the deterministic transient-vs-persistent
//! retry behaviour. `scripts/crash_soak.sh`
//! extends the same checks to randomized SIGKILLs of `secureloop
//! serve`.

use std::path::PathBuf;
use std::process::Command;
use std::time::Duration;

use secureloop::artifact::{self, DurabilityPolicy, LoadSource};
use secureloop::checkpoint::SweepCheckpoint;
use secureloop::dse::{evaluate_designs_sweep, SweepOptions, SweepRun};
use secureloop::{Algorithm, AnnealingConfig};
use secureloop_arch::Architecture;
use secureloop_crypto::{CryptoConfig, EngineClass};
use secureloop_json::Json;
use secureloop_mapper::SearchConfig;
use secureloop_workload::zoo;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_secureloop"))
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The deterministic sweep every subprocess leg runs: fixed seed, no
/// cache, so results depend on nothing but the workload and space.
const DSE_ARGS: &[&str] = &[
    "dse",
    "--workload",
    "mlp",
    "--samples",
    "20",
    "--iterations",
    "3",
    "--no-cache",
    "--json",
    "--checkpoint",
];

fn parse_stdout(out: &std::process::Output) -> Json {
    assert_eq!(
        out.status.code(),
        Some(0),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    Json::parse(&String::from_utf8_lossy(&out.stdout)).expect("--json output parses")
}

#[test]
fn crash_mid_write_resumes_with_zero_recomputation_and_identical_results() {
    let dir = tmp_dir("secureloop-crash-recovery");

    // Uninterrupted reference run.
    let ref_ckpt = dir.join("reference.ckpt.json");
    let _ = std::fs::remove_file(&ref_ckpt);
    let reference = parse_stdout(&bin().args(DSE_ARGS).arg(&ref_ckpt).output().unwrap());
    let ref_designs = reference["designs"].to_string();
    assert_eq!(reference["evaluated"].as_u64(), Some(18));

    // Two representative crash points bound the rename: before it the
    // previous checkpoint generation must survive; after it the new one
    // must be complete. (`scripts/crash_soak.sh` covers every point at
    // random offsets against the release binary.)
    for point in ["after-temp-fsync", "after-rename"] {
        let ckpt = dir.join(format!("crash-{point}.ckpt.json"));
        let _ = std::fs::remove_file(&ckpt);

        // Abort during the *second* checkpoint write: at least one
        // design generation is durably on disk, and the write in
        // flight is torn at exactly this point.
        let out = bin()
            .args(DSE_ARGS)
            .arg(&ckpt)
            .env("SECURELOOP_CRASH_POINT", format!("{point}@2"))
            .output()
            .unwrap();
        assert!(
            !out.status.success(),
            "{point}: the crash point must abort the process"
        );

        // The restart must load a consistent checkpoint (strict or via
        // salvage/backup), recompute nothing that was completed, and
        // finish byte-identical to the uninterrupted run.
        let resumed = parse_stdout(
            &bin()
                .args(DSE_ARGS)
                .arg(&ckpt)
                .arg("--resume")
                .output()
                .unwrap(),
        );
        let reused = resumed["reused"].as_u64().unwrap();
        let evaluated = resumed["evaluated"].as_u64().unwrap();
        assert!(reused >= 1, "{point}: nothing restored (reused {reused})");
        assert_eq!(
            reused + evaluated,
            18,
            "{point}: the space must be covered exactly once"
        );
        assert_eq!(
            resumed["designs"].to_string(),
            ref_designs,
            "{point}: resumed results must be byte-identical to the reference"
        );
    }
}

#[test]
fn persistent_write_failure_completes_degraded_with_exit_two() {
    let dir = tmp_dir("secureloop-crash-enospc");
    let ckpt = dir.join("enospc.ckpt.json");
    let _ = std::fs::remove_file(&ckpt);

    // Every artifact write fails (the persistent full-disk model); no
    // retries and no backoff so the run degrades immediately.
    let out = bin()
        .args(DSE_ARGS)
        .arg(&ckpt)
        .args(["--io-retries", "0", "--durability", "fast"])
        .env("SECURELOOP_ARTIFACT_IO_FAIL", "all")
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(2),
        "degraded persistence maps to exit 2; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = Json::parse(&String::from_utf8_lossy(&out.stdout)).unwrap();
    assert_eq!(json["degraded_persistence"].as_bool(), Some(true));
    assert_eq!(
        json["designs"].as_array().map(Vec::len),
        Some(18),
        "a full disk must never cost results"
    );
    assert!(
        json["warnings"]
            .as_array()
            .unwrap()
            .iter()
            .any(|w| w.as_str().unwrap().contains("persistence degraded")),
        "warnings: {}",
        json["warnings"]
    );
    assert!(!ckpt.exists(), "no partial checkpoint must appear");
}

fn designs(n: usize) -> Vec<Architecture> {
    (0..n)
        .map(|i| {
            Architecture::eyeriss_base()
                .with_glb_kb(32 + i as u64)
                .with_crypto(CryptoConfig::new(EngineClass::Parallel, 3))
                .with_name(format!("crash-{i:02}"))
        })
        .collect()
}

fn sweep(designs: &[Architecture], opts: &SweepOptions) -> SweepRun {
    evaluate_designs_sweep(
        &zoo::mlp(2, 64),
        designs,
        Algorithm::CryptOptSingle,
        &SearchConfig::quick(),
        &AnnealingConfig::quick(),
        opts,
    )
    .expect("persistence failures must degrade, not error")
}

#[test]
fn transient_write_failures_are_outlasted_by_retries() {
    let dir = tmp_dir("secureloop-crash-transient");
    let ckpt = dir.join("transient.ckpt.json");
    let _ = std::fs::remove_file(&ckpt);

    // Two injected failures against a three-retry budget: the first
    // checkpoint write fails twice, then sticks. Nothing degrades.
    let run = sweep(
        &designs(2),
        &SweepOptions::new()
            .with_cache(false)
            .with_checkpoint(&ckpt)
            .with_durability(
                DurabilityPolicy {
                    retries: 3,
                    backoff: Duration::from_millis(1),
                    ..DurabilityPolicy::fast()
                }
                .with_injected_failures(2),
            ),
    );
    assert!(!run.degraded_persistence, "warnings: {:?}", run.warnings);
    assert_eq!(run.results.len(), 2);
    let rec = artifact::load::<SweepCheckpoint>(&ckpt).expect("retried write landed");
    assert_eq!(rec.source, LoadSource::Primary);
    let ckpt_state = rec.value;
    assert_eq!(ckpt_state.entries.len(), 2);
}

#[test]
fn exhausted_retries_degrade_in_memory_and_keep_computing() {
    let dir = tmp_dir("secureloop-crash-exhausted");
    let ckpt = dir.join("exhausted.ckpt.json");
    let _ = std::fs::remove_file(&ckpt);

    let run = sweep(
        &designs(2),
        &SweepOptions::new()
            .with_cache(false)
            .with_checkpoint(&ckpt)
            .with_durability(
                DurabilityPolicy {
                    retries: 0,
                    backoff: Duration::ZERO,
                    ..DurabilityPolicy::fast()
                }
                .with_injected_failures(DurabilityPolicy::FAIL_EVERY_WRITE),
            ),
    );
    assert!(run.degraded_persistence);
    assert_eq!(run.results.len(), 2, "the sweep keeps computing");
    assert!(
        run.warnings
            .iter()
            .any(|w| w.contains("persistence degraded")),
        "warnings: {:?}",
        run.warnings
    );
    assert!(!ckpt.exists());
}
