//! Concurrent `CandidateCache` access under LRU eviction.
//!
//! The service layer shares one budget-bounded cache across every
//! tenant's jobs, so the soundness bar is: a hit observed by one job
//! must be **byte-identical** to a cold search, even while another job
//! is concurrently inserting entries and forcing evictions. Eviction
//! may only ever cost recomputation — never correctness.

use std::sync::Arc;

use proptest::prelude::*;

use secureloop_arch::Architecture;
use secureloop_mapper::{search, search_cached, CandidateCache, MapperResult, SearchConfig};
use secureloop_workload::{zoo, ConvLayer};

/// Bit-exact comparison of two mapper results: same candidates in the
/// same order, with identical evaluations down to the f64 bits.
fn assert_identical(a: &MapperResult, b: &MapperResult, ctx: &str) {
    assert_eq!(a.tier, b.tier, "{ctx}: tier diverged");
    assert_eq!(a.valid_samples, b.valid_samples, "{ctx}: valid_samples");
    assert_eq!(a.total_samples, b.total_samples, "{ctx}: total_samples");
    assert_eq!(
        a.candidates.len(),
        b.candidates.len(),
        "{ctx}: candidate count"
    );
    for (i, ((ma, ea), (mb, eb))) in a.candidates.iter().zip(&b.candidates).enumerate() {
        assert_eq!(ma, mb, "{ctx}: mapping {i}");
        assert_eq!(
            ea.latency_cycles, eb.latency_cycles,
            "{ctx}: candidate {i} latency"
        );
        assert_eq!(
            ea.energy_pj.to_bits(),
            eb.energy_pj.to_bits(),
            "{ctx}: candidate {i} energy bits"
        );
    }
}

/// Pool of layers drawn from the model zoo, 19 distinct search-space
/// keys charged about 26 kB at `SearchConfig::quick()`: more than twice
/// the largest budget below.
fn layer_pool() -> Vec<ConvLayer> {
    let mut layers: Vec<ConvLayer> = zoo::alexnet_conv().layers().to_vec();
    layers.extend(zoo::mlp(4, 96).layers().iter().cloned());
    layers.extend(zoo::mlp(3, 128).layers().iter().cloned());
    layers.extend(zoo::resnet18().layers().iter().cloned());
    layers
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// One thread repeatedly reads a fixed key while another churns the
    /// rest of the pool through a budget so small that eviction fires
    /// constantly. Every read — hit, cold miss, or recompute-after-
    /// eviction — must equal the reference cold search bit for bit.
    #[test]
    fn concurrent_hits_survive_eviction_byte_identical(
        budget_kb in 2usize..12,
        churn_rounds in 2usize..5,
        reader_key in 0usize..4,
    ) {
        let layers = layer_pool();
        let arch = Architecture::eyeriss_base();
        let cfg = SearchConfig::quick();
        let target = layers[reader_key].clone();
        // Reference: a cache-less cold search.
        let reference = search(&target, &arch, &cfg).unwrap();

        let cache = Arc::new(CandidateCache::new().with_budget_bytes(budget_kb * 1024));
        let churn_layers: Vec<ConvLayer> =
            layers.iter().filter(|l| **l != target).cloned().collect();

        std::thread::scope(|scope| {
            let reader = {
                let cache = Arc::clone(&cache);
                let target = target.clone();
                let arch = arch.clone();
                scope.spawn(move || {
                    let mut observed = Vec::new();
                    for _ in 0..16 {
                        observed.push(
                            search_cached(&target, &arch, &[], &cfg, Some(&cache)).unwrap(),
                        );
                    }
                    observed
                })
            };
            let churner = {
                let cache = Arc::clone(&cache);
                let arch = arch.clone();
                scope.spawn(move || {
                    for _ in 0..churn_rounds {
                        for layer in &churn_layers {
                            search_cached(layer, &arch, &[], &cfg, Some(&cache)).unwrap();
                        }
                    }
                })
            };
            let observed = reader.join().expect("reader thread");
            churner.join().expect("churner thread");
            for (i, got) in observed.iter().enumerate() {
                assert_identical(got, &reference, &format!("read {i}"));
            }
        });

        // The budget forced real churn (the pool is much larger than
        // the budget), yet the target key stayed coherent throughout.
        prop_assert!(cache.evictions() > 0, "budget {}kB never evicted", budget_kb);
    }
}

/// Deterministic (non-proptest) variant pinning the exact hit/miss
/// accounting story: evict the key, observe a miss, get identical data.
#[test]
fn eviction_then_reread_recomputes_identically() {
    let layers = layer_pool();
    let arch = Architecture::eyeriss_base();
    let cfg = SearchConfig::quick();
    let cache = CandidateCache::new().with_budget_bytes(4 * 1024);

    let first = search_cached(&layers[0], &arch, &[], &cfg, Some(&cache)).unwrap();
    // Push enough other keys through to guarantee layers[0] is evicted.
    for layer in &layers[1..] {
        search_cached(layer, &arch, &[], &cfg, Some(&cache)).unwrap();
    }
    assert!(cache.evictions() > 0);
    let misses_before = cache.misses();
    let again = search_cached(&layers[0], &arch, &[], &cfg, Some(&cache)).unwrap();
    assert!(
        cache.misses() > misses_before,
        "evicted key must re-enter as a miss"
    );
    assert_identical(&again, &first, "recompute after eviction");
}
