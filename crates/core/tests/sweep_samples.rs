//! The tentpole's acceptance criterion: with the candidate cache warm,
//! a Fig. 16 sweep evaluates strictly fewer mapper samples than with
//! the cache disabled, as observed through the process-global telemetry
//! counters.
//!
//! This is deliberately the only test in this binary: the counters are
//! process-global, so any concurrently running search in the same
//! process would pollute the deltas.

use secureloop::dse::{evaluate_designs_sweep, fig16_design_space, SweepOptions};
use secureloop::{Algorithm, AnnealingConfig};
use secureloop_mapper::SearchConfig;
use secureloop_telemetry as telemetry;
use secureloop_workload::zoo;

#[test]
fn warm_cache_evaluates_strictly_fewer_mapper_samples() {
    let net = zoo::alexnet_conv();
    let designs = fig16_design_space();
    let search = SearchConfig::quick().with_samples(64);
    let annealing = AnnealingConfig::quick();
    let dir = std::env::temp_dir().join("secureloop-sweep-samples");
    std::fs::create_dir_all(&dir).unwrap();
    let cache = dir.join("fig16.cache.json");
    let _ = std::fs::remove_file(&cache);

    // Baseline: cache disabled. Every design point pays for its own
    // mapper searches.
    telemetry::reset();
    let disabled = evaluate_designs_sweep(
        &net,
        &designs,
        Algorithm::CryptOptSingle,
        &search,
        &annealing,
        &SweepOptions::new().with_cache(false),
    )
    .expect("cache-disabled sweep succeeds");
    let disabled_samples = telemetry::snapshot().counter("mapper.samples_evaluated");
    assert!(disabled_samples > 0);
    assert_eq!(disabled.cache_hits + disabled.cache_misses, 0);

    // Populate the on-disk cache. The 18 Fig. 16 designs have distinct
    // search-space keys, but the 6 that share a PE array draw the same
    // random stream, so each of the 5 AlexNet shapes costs one group
    // search per PE array: 15 misses, and the other 75 requests hit...
    telemetry::reset();
    let cold = evaluate_designs_sweep(
        &net,
        &designs,
        Algorithm::CryptOptSingle,
        &search,
        &annealing,
        &SweepOptions::new().with_cache_path(&cache),
    )
    .expect("cold cache-enabled sweep succeeds");
    assert_eq!(
        (cold.cache_hits, cold.cache_misses),
        (75, 15),
        "one group search per (layer shape, PE array)"
    );
    // ...and evaluates exactly as many samples as the cache-disabled
    // sweep: a group search still prices every draw for every design.
    let snap = telemetry::snapshot();
    assert_eq!(snap.counter("mapper.samples_evaluated"), disabled_samples);
    assert_eq!(snap.counter("mapper.draws"), disabled_samples / 6);

    // ...then measure the warm cache-enabled sweep. Every search is a
    // hit: the mapper draws no samples at all.
    telemetry::reset();
    let warm = evaluate_designs_sweep(
        &net,
        &designs,
        Algorithm::CryptOptSingle,
        &search,
        &annealing,
        &SweepOptions::new().with_cache_path(&cache),
    )
    .expect("warm cache-enabled sweep succeeds");
    let warm_samples = telemetry::snapshot().counter("mapper.samples_evaluated");
    let warm_hits = telemetry::snapshot().counter("dse.cache_hit");

    assert!(
        warm_samples < disabled_samples,
        "warm cache must evaluate strictly fewer samples \
         ({warm_samples} vs {disabled_samples})"
    );
    assert_eq!(warm.cache_misses, 0);
    assert_eq!(warm.cache_hits, warm_hits, "SweepRun mirrors telemetry");
    assert!((warm.cache_hit_rate() - 1.0).abs() < f64::EPSILON);

    // And the cached sweep's results are bit-identical to the
    // cache-disabled baseline.
    assert_eq!(warm.results.len(), disabled.results.len());
    for (a, b) in warm.results.iter().zip(&disabled.results) {
        assert_eq!(a.label, b.label);
        assert_eq!(
            a.schedule.total_latency_cycles,
            b.schedule.total_latency_cycles
        );
        assert_eq!(
            a.schedule.total_energy_pj.to_bits(),
            b.schedule.total_energy_pj.to_bits()
        );
    }
    let _ = std::fs::remove_file(&cache);
}
