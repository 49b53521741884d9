//! The telemetry that perfbench and the `sweep` gate read: a
//! checkpointed sweep counts one `checkpoint.save` (timer) and one
//! `checkpoint.saves` (counter) per design, and the
//! work counters they report are registered and non-zero.
//!
//! This is deliberately the only test in this binary: the registry is
//! process-global, so any other search in the same process would move
//! the counts.

use secureloop::dse::{evaluate_designs_sweep, fig16_design_space, SweepOptions};
use secureloop::{Algorithm, AnnealingConfig};
use secureloop_mapper::SearchConfig;
use secureloop_telemetry as telemetry;
use secureloop_workload::zoo;

#[test]
fn checkpointed_sweep_feeds_the_counts_perfbench_reads() {
    let net = zoo::alexnet_conv();
    let designs = &fig16_design_space()[..3];
    let dir = std::env::temp_dir().join(format!(
        "secureloop-telemetry-contract-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("sweep.ckpt.json");

    telemetry::reset();
    let run = evaluate_designs_sweep(
        &net,
        designs,
        Algorithm::CryptOptCross,
        &SearchConfig::quick().with_samples(64),
        &AnnealingConfig::quick(),
        &SweepOptions::new().with_checkpoint(&ckpt),
    )
    .expect("checkpointed sweep succeeds");
    let snap = telemetry::snapshot();
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(run.results.len(), 3, "every design evaluated");
    assert_eq!(
        snap.timer("checkpoint.save").map(|t| t.count),
        Some(3),
        "one checkpoint write per evaluated design"
    );
    assert_eq!(
        snap.counter("checkpoint.saves"),
        3,
        "the save counter agrees with the save timer"
    );
    for name in [
        "mapper.samples_evaluated",
        "authblock.optimize_runs",
        "scheduler.overhead_cache_misses",
    ] {
        assert!(
            snap.counters.iter().any(|c| c.name == name),
            "{name} is registered"
        );
        assert!(snap.counter(name) > 0, "{name} counted work");
    }
}
