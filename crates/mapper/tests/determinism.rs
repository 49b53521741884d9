//! Pins the chunked-RNG contract: for a fixed [`SearchConfig`] seed and
//! sample budget, `search` must return **byte-identical** results for
//! any worker-thread count. Chunk seeds derive from chunk indices and
//! chunk results merge in index order, so the thread count only decides
//! who runs a chunk, never what the chunk computes.
//!
//! Guided mode carries the same contract with a different argument: it
//! runs its chunks in order on the calling thread whatever `threads`
//! says, so the guides any chunk sees are a pure function of the chunks
//! before it.
//! The guided tests below pin that, plus cache hygiene: a warm
//! [`CandidateCache`] must return exactly what the cold search
//! computed, and guided and random results must never alias one
//! another's cache entries.

use secureloop_arch::Architecture;
use secureloop_crypto::{CryptoConfig, EngineClass};
use secureloop_mapper::{
    cache_key, search, search_cached, CandidateCache, MapperResult, SearchConfig, SearchMode,
};
use secureloop_workload::{zoo, ConvLayer};

fn cfg(threads: usize) -> SearchConfig {
    SearchConfig {
        samples: 700, // deliberately not a multiple of CHUNK_SAMPLES
        top_k: 5,
        seed: 0xdead_beef,
        threads,
        deadline: None,
        mode: SearchMode::Random,
    }
}

fn guided_cfg(threads: usize) -> SearchConfig {
    SearchConfig {
        mode: SearchMode::Guided,
        ..cfg(threads)
    }
}

/// Everything observable about a result, rendered byte-for-byte.
fn fingerprint(r: &MapperResult) -> String {
    format!(
        "tier={} truncated={} total={} valid={} candidates={:?}",
        r.tier, r.truncated, r.total_samples, r.valid_samples, r.candidates
    )
}

fn assert_thread_invariant(layer: &ConvLayer, arch: &Architecture) {
    let baseline = fingerprint(&search(layer, arch, &cfg(1)).expect("search succeeds"));
    for threads in [2usize, 4] {
        let got = fingerprint(&search(layer, arch, &cfg(threads)).expect("search succeeds"));
        assert_eq!(
            baseline,
            got,
            "threads={threads} diverged from threads=1 on layer {}",
            layer.name()
        );
    }
}

#[test]
fn thread_count_does_not_change_results_on_alexnet() {
    let net = zoo::alexnet_conv();
    let arch = Architecture::eyeriss_base();
    for layer in net.layers() {
        assert_thread_invariant(layer, &arch);
    }
}

#[test]
fn thread_count_does_not_change_results_on_secure_arch() {
    // The crypt-aware evaluation path (effective bandwidth + crypto
    // energy) must be just as deterministic as the unsecure one.
    let net = zoo::alexnet_conv();
    let arch =
        Architecture::eyeriss_base().with_crypto(CryptoConfig::new(EngineClass::Parallel, 3));
    assert_thread_invariant(&net.layers()[2], &arch);
}

#[test]
fn repeated_runs_are_identical_too() {
    // Same-thread-count repeatability: the global telemetry layer and
    // the shared chunk queue must introduce no run-to-run jitter.
    let net = zoo::alexnet_conv();
    let arch = Architecture::eyeriss_base();
    let layer = &net.layers()[0];
    let a = fingerprint(&search(layer, &arch, &cfg(4)).expect("search succeeds"));
    let b = fingerprint(&search(layer, &arch, &cfg(4)).expect("search succeeds"));
    assert_eq!(a, b);
}

#[test]
fn oversubscribed_thread_counts_are_harmless() {
    // More workers than chunks: extra workers find the queue drained
    // and exit; the result is still the thread=1 result.
    let net = zoo::alexnet_conv();
    let arch = Architecture::eyeriss_base();
    let layer = &net.layers()[1];
    let seq = fingerprint(&search(layer, &arch, &cfg(1)).expect("search succeeds"));
    let wide = fingerprint(&search(layer, &arch, &cfg(16)).expect("search succeeds"));
    assert_eq!(seq, wide);
}

#[test]
fn guided_search_is_thread_invariant() {
    // Guided chunks run in order on the calling thread, so guided
    // results must be byte-identical for any thread count — including
    // oversubscription far past the chunk count.
    let net = zoo::alexnet_conv();
    let arch =
        Architecture::eyeriss_base().with_crypto(CryptoConfig::new(EngineClass::Parallel, 3));
    for layer in [&net.layers()[0], &net.layers()[2]] {
        let baseline = fingerprint(&search(layer, &arch, &guided_cfg(1)).expect("search succeeds"));
        for threads in [2usize, 4, 16] {
            let got =
                fingerprint(&search(layer, &arch, &guided_cfg(threads)).expect("search succeeds"));
            assert_eq!(
                baseline,
                got,
                "guided threads={threads} diverged on layer {}",
                layer.name()
            );
        }
    }
}

#[test]
fn guided_repeated_runs_are_identical() {
    let net = zoo::alexnet_conv();
    let arch = Architecture::eyeriss_base();
    let layer = &net.layers()[1];
    let a = fingerprint(&search(layer, &arch, &guided_cfg(4)).expect("search succeeds"));
    let b = fingerprint(&search(layer, &arch, &guided_cfg(4)).expect("search succeeds"));
    assert_eq!(a, b);
}

#[test]
fn guided_cold_and_warm_cache_agree() {
    // A warm CandidateCache must hand back exactly what the cold
    // search computed — same candidates, same tier, same counters.
    let net = zoo::alexnet_conv();
    let arch = Architecture::eyeriss_base();
    let layer = &net.layers()[3];
    let cache = CandidateCache::new();
    let uncached = fingerprint(&search(layer, &arch, &guided_cfg(2)).expect("search succeeds"));
    let cold = fingerprint(
        &search_cached(layer, &arch, &[], &guided_cfg(2), Some(&cache)).expect("search succeeds"),
    );
    assert_eq!(cache.misses(), 1);
    let warm = fingerprint(
        &search_cached(layer, &arch, &[], &guided_cfg(2), Some(&cache)).expect("search succeeds"),
    );
    assert_eq!(cache.hits(), 1, "second lookup must hit");
    assert_eq!(cold, warm, "warm hit must replay the cold result");
    assert_eq!(uncached, cold, "caching must not perturb the search");
}

#[test]
fn guided_and_random_never_poison_each_others_cache() {
    // The two modes explore the same space differently; their cache
    // keys carry a distinct mode component so a guided run can never
    // serve (or be served) a random result.
    let net = zoo::alexnet_conv();
    let arch = Architecture::eyeriss_base();
    let layer = &net.layers()[2];
    let random = cfg(2);
    let guided = guided_cfg(2);
    assert!(cache_key(layer, &arch, &random).ends_with(",mr]"));
    assert!(cache_key(layer, &arch, &guided).ends_with(",mg]"));
    assert_ne!(
        cache_key(layer, &arch, &random),
        cache_key(layer, &arch, &guided),
        "modes must key distinct cache entries"
    );

    let cache = CandidateCache::new();
    let g_cold = fingerprint(
        &search_cached(layer, &arch, &[], &guided, Some(&cache)).expect("search succeeds"),
    );
    let r_cold = fingerprint(
        &search_cached(layer, &arch, &[], &random, Some(&cache)).expect("search succeeds"),
    );
    assert_eq!(cache.misses(), 2, "each mode computes its own entry");
    assert_eq!(cache.hits(), 0);
    // Replaying either mode hits its own entry and reproduces its own
    // cold result — not the other mode's.
    let g_warm = fingerprint(
        &search_cached(layer, &arch, &[], &guided, Some(&cache)).expect("search succeeds"),
    );
    let r_warm = fingerprint(
        &search_cached(layer, &arch, &[], &random, Some(&cache)).expect("search succeeds"),
    );
    assert_eq!(cache.hits(), 2);
    assert_eq!(g_cold, g_warm);
    assert_eq!(r_cold, r_warm);
}
