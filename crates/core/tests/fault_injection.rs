//! Fault-injection harness: sabotage the mapper underneath the full
//! scheduling engine and check the failures stay contained — partial
//! schedules instead of panics, typed errors instead of hangs, and
//! checkpoints that survive an interrupted sweep.

use std::time::Duration;

use secureloop::cli;
use secureloop::{Algorithm, LayerOutcome, Scheduler, SecureLoopError};
use secureloop_arch::Architecture;
use secureloop_crypto::{CryptoConfig, EngineClass};
use secureloop_mapper::{FaultPlan, FaultScope, SearchConfig, SearchMode};
use secureloop_workload::zoo;

fn secure_scheduler() -> Scheduler {
    let arch =
        Architecture::eyeriss_base().with_crypto(CryptoConfig::new(EngineClass::Parallel, 3));
    Scheduler::new(arch)
        .with_search(SearchConfig::quick())
        .with_annealing(secureloop::AnnealingConfig::quick())
}

#[test]
fn cli_schedule_survives_injected_layer_failures() {
    // 2 of AlexNet's 5 layers fail their search outright; the CLI run
    // must still exit cleanly and report the casualties.
    let _scope = FaultScope::inject(FaultPlan::fail(["conv2", "conv4"]));
    let args: Vec<String> = [
        "schedule",
        "--workload",
        "alexnet",
        "--samples",
        "200",
        "--iterations",
        "40",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let out = cli::run(&args).expect("partial schedule is not a CLI error");
    assert!(out.contains("failed"), "output reports failures:\n{out}");
    assert!(
        out.contains("conv2"),
        "output names the failed layer:\n{out}"
    );
    assert!(
        out.contains("conv4"),
        "output names the failed layer:\n{out}"
    );
}

#[test]
fn nan_poisoned_costs_never_reach_the_schedule() {
    // Every evaluation of conv3 returns NaN cost: the mapper must
    // reject those candidates and the scheduler must isolate the layer.
    let _scope = FaultScope::inject(FaultPlan::nan_cost(["conv3"]));
    let net = zoo::alexnet_conv();
    let s = secure_scheduler()
        .schedule(&net, Algorithm::CryptOptSingle)
        .expect("remaining layers still schedule");
    assert_eq!(s.failed_count(), 1);
    assert_eq!(s.layers.len(), 4);
    let failed: Vec<&str> = s
        .outcomes
        .iter()
        .filter(|(_, o)| matches!(o, LayerOutcome::Failed { .. }))
        .map(|(n, _)| n.as_str())
        .collect();
    assert_eq!(failed, ["conv3"]);
    // The poison must not leak into the totals.
    assert!(s.total_energy_pj.is_finite() && s.total_energy_pj > 0.0);
    assert!(s.total_latency_cycles > 0);
}

#[test]
fn zero_bandwidth_engine_is_a_typed_error_not_a_panic() {
    // A crypto configuration with zero engines has zero authenticated
    // bandwidth: every candidate saturates and is rejected, so the
    // schedule fails as a whole — with an error, not a crash.
    let arch =
        Architecture::eyeriss_base().with_crypto(CryptoConfig::new(EngineClass::Parallel, 0));
    let err = Scheduler::new(arch)
        .with_search(SearchConfig::quick())
        .with_annealing(secureloop::AnnealingConfig::quick())
        .schedule(&zoo::alexnet_conv(), Algorithm::CryptOptSingle)
        .expect_err("no layer can schedule against a dead engine");
    assert!(matches!(err, SecureLoopError::Schedule(_)), "{err}");
}

#[test]
fn expired_deadline_degrades_instead_of_hanging() {
    // A zero wall-clock budget forces the sampler to give up
    // immediately; the greedy floor must still produce a full schedule,
    // flagged as degraded rather than silently passed off as optimal.
    let arch =
        Architecture::eyeriss_base().with_crypto(CryptoConfig::new(EngineClass::Parallel, 3));
    let s = Scheduler::new(arch)
        .with_search(SearchConfig {
            samples: 1_000_000,
            top_k: 4,
            seed: 1,
            threads: 1,
            deadline: Some(Duration::ZERO),
            mode: SearchMode::Random,
        })
        .with_annealing(secureloop::AnnealingConfig::quick().with_deadline(Duration::ZERO))
        .schedule(&zoo::alexnet_conv(), Algorithm::CryptOptSingle)
        .expect("greedy floor still schedules");
    assert_eq!(s.failed_count(), 0);
    assert_eq!(s.layers.len(), 5);
    assert!(
        s.degraded_count() == 5,
        "all layers report degraded search, got {} ({:?})",
        s.degraded_count(),
        s.outcomes
    );
}

#[test]
fn interrupted_cli_dse_resumes_from_checkpoint() {
    let dir = std::env::temp_dir().join("secureloop-cli-dse-resume");
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("sweep.json");
    let cache = dir.join("sweep.cache.json");
    let _ = std::fs::remove_file(&ckpt);
    let _ = std::fs::remove_file(&cache);

    let base = |extra: &[&str]| -> Vec<String> {
        let mut v: Vec<String> = [
            "dse",
            "--workload",
            "alexnet",
            "--samples",
            "60",
            "--iterations",
            "5",
            "--checkpoint",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        v.push(ckpt.display().to_string());
        v.extend(extra.iter().map(|s| s.to_string()));
        v
    };

    // First sweep writes the checkpoint as it goes.
    let first = cli::run(&base(&[])).expect("sweep succeeds");
    assert!(!first.contains("resumed:"));
    assert!(ckpt.exists(), "checkpoint written during the sweep");
    assert!(
        cache.exists(),
        "candidate cache persisted next to the checkpoint"
    );

    // The re-run restores every finished design point: nothing is
    // re-evaluated, and the table is identical.
    let second = cli::run(&base(&["--resume"])).expect("resumed sweep succeeds");
    assert!(
        second.contains("resumed: 18 design point(s) restored from checkpoint, 0 evaluated"),
        "resume accounting missing:\n{second}"
    );
    // Compare the design table only: the trailing telemetry summary
    // and the candidate-cache accounting legitimately differ (the
    // resumed run reuses every design point, so its mapper/annealing
    // counters are near zero and it never consults the cache).
    let table = |s: &str| -> String {
        s.lines()
            .take_while(|l| !l.starts_with("telemetry:"))
            .filter(|l| !l.starts_with("resumed:") && !l.starts_with("candidate cache:"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(table(&first), table(&second));
    let _ = std::fs::remove_file(&ckpt);
    let _ = std::fs::remove_file(&cache);
}
