//! Step 1: per-layer top-k loopnest candidates.
//!
//! Runs the crypt-aware mapper once per *distinct search* (repeated
//! blocks in ResNet/MobileNetV2 share their search, and one
//! [`LayerCandidates`] behind an [`Arc`]) and exposes the retained
//! candidates per layer index. A failing layer does not abort
//! the search: its [`LayerCandidates`] carries the typed error instead,
//! and the scheduler isolates it (see
//! [`crate::scheduler::LayerOutcome`]).

use std::collections::HashMap;
use std::sync::Arc;

use secureloop_arch::Architecture;
use secureloop_loopnest::{Evaluation, Mapping};
use secureloop_mapper::{
    cache_key, cancel, search_cached, CandidateCache, MapperError, SearchConfig, SearchTier,
};
use secureloop_workload::{ConvLayer, Network};

/// The retained schedules of one distinct layer search, shared by
/// every layer of a network that has the same search key.
#[derive(Debug, Clone)]
pub struct LayerCandidates {
    /// `(mapping, evaluation)` pairs, best-latency first. Empty when
    /// the search failed (see [`LayerCandidates::error`]).
    pub options: Vec<(Mapping, Evaluation)>,
    /// Which rung of the mapper's degradation ladder produced the
    /// options.
    pub tier: SearchTier,
    /// Whether a deadline truncated the search.
    pub truncated: bool,
    /// Why the search failed, when `options` is empty.
    pub error: Option<MapperError>,
}

impl LayerCandidates {
    /// The single best schedule, if the search found any.
    pub fn best(&self) -> Option<&(Mapping, Evaluation)> {
        self.options.first()
    }

    /// Number of retained options (≤ the search's top-k).
    pub fn len(&self) -> usize {
        self.options.len()
    }

    /// Whether no schedule was found.
    pub fn is_empty(&self) -> bool {
        self.options.is_empty()
    }
}

/// Top-k candidates for every layer of a network.
#[derive(Debug, Clone)]
pub struct CandidateSet {
    /// Indexed like `network.layers()`. Layers with the same search key
    /// share one [`LayerCandidates`].
    pub per_layer: Vec<Arc<LayerCandidates>>,
}

fn search_layer(
    layer: &ConvLayer,
    arch: &Architecture,
    siblings: &[Architecture],
    cfg: &SearchConfig,
    cache: Option<&CandidateCache>,
) -> LayerCandidates {
    match search_cached(layer, arch, siblings, cfg, cache) {
        Ok(r) => LayerCandidates {
            options: r.candidates,
            tier: r.tier,
            truncated: r.truncated,
            error: None,
        },
        Err(e) => LayerCandidates {
            options: Vec::new(),
            tier: SearchTier::Greedy,
            truncated: false,
            error: Some(e),
        },
    }
}

/// Run the step-1 search for every layer of `network`, deduplicating
/// layers with the same [`cache_key`]: they share one
/// [`LayerCandidates`]. Never panics: failed layers come back with
/// empty options and their [`MapperError`] attached.
pub fn find_candidates(network: &Network, arch: &Architecture, cfg: &SearchConfig) -> CandidateSet {
    find_candidates_cached(network, arch, &[], cfg, None)
}

/// [`find_candidates`] backed by a cross-design [`CandidateCache`]:
/// layer searches whose canonical key (see
/// `secureloop_loopnest::SearchSpaceKey`) already sits in the cache are
/// answered from it, and misses populate it for later design points —
/// within one sweep and, once persisted, across `--resume` runs. A miss
/// searches `arch` together with the `siblings` that share its draw
/// stream (see [`search_cached`]).
pub fn find_candidates_cached(
    network: &Network,
    arch: &Architecture,
    siblings: &[Architecture],
    cfg: &SearchConfig,
    cache: Option<&CandidateCache>,
) -> CandidateSet {
    // Fault plans key on layer names, which no search key holds: the
    // memo would smear one layer's injected fault over every layer with
    // the same key. (`search_cached` independently bypasses the
    // cross-design cache for a task carrying a plan.)
    let use_dedup = cancel::current_context().fault.is_none();
    let mut by_key: HashMap<String, Arc<LayerCandidates>> = HashMap::new();
    let per_layer = network
        .layers()
        .iter()
        .map(|layer| {
            let search = || Arc::new(search_layer(layer, arch, siblings, cfg, cache));
            if !use_dedup {
                return search();
            }
            Arc::clone(
                by_key
                    .entry(cache_key(layer, arch, cfg))
                    .or_insert_with(search),
            )
        })
        .collect();
    CandidateSet { per_layer }
}

#[cfg(test)]
mod tests {
    use super::*;
    use secureloop_mapper::{FaultPlan, FaultScope};
    use secureloop_workload::zoo;

    #[test]
    fn candidates_found_for_every_alexnet_layer() {
        let net = zoo::alexnet_conv();
        let set = find_candidates(&net, &Architecture::eyeriss_base(), &SearchConfig::quick());
        assert_eq!(set.per_layer.len(), net.len());
        for (i, c) in set.per_layer.iter().enumerate() {
            assert!(!c.is_empty(), "layer {i}");
            assert!(c.error.is_none());
            // Sorted best-first.
            for w in c.options.windows(2) {
                assert!(w[0].1.latency_cycles <= w[1].1.latency_cycles);
            }
        }
    }

    #[test]
    fn shape_dedup_shares_results() {
        // ResNet's repeated 3x3 blocks are identical shapes: layers with
        // one key share one `LayerCandidates`, and each still equals the
        // search it would have run alone.
        let net = zoo::resnet18();
        let arch = Architecture::eyeriss_base();
        let cfg = SearchConfig::quick();
        let set = find_candidates(&net, &arch, &cfg);
        let keys: Vec<String> = net
            .layers()
            .iter()
            .map(|l| cache_key(l, &arch, &cfg))
            .collect();
        let mut shared = 0;
        for (i, layer) in net.layers().iter().enumerate() {
            for j in 0..i {
                let same = Arc::ptr_eq(&set.per_layer[i], &set.per_layer[j]);
                assert_eq!(same, keys[i] == keys[j], "layers {j} and {i}");
                shared += usize::from(same);
            }
            let own = secureloop_mapper::search(layer, &arch, &cfg).unwrap();
            assert_eq!(set.per_layer[i].options, own.candidates, "{}", layer.name());
        }
        assert!(shared > 0, "ResNet18 repeats a search key");
    }

    #[test]
    fn layers_differing_only_in_dilation_search_separately() {
        // Equal N, M, C, P, Q, R, S, stride and pad (8x8 outputs of a
        // 3x3 kernel), but dilation 1 vs 2: different searches.
        let layer = |name: &str, hw: u64, dilation: u64| {
            ConvLayer::builder(name)
                .input_hw(hw, hw)
                .channels(16, 16)
                .kernel(3, 3)
                .dilation(dilation)
                .build()
                .unwrap()
        };
        let mut net = Network::new("dilated");
        net.push(layer("plain", 10, 1), &[]);
        net.push(layer("dilated", 12, 2), &[]);
        assert_eq!(net.layers()[0].bounds(), net.layers()[1].bounds());
        let arch = Architecture::eyeriss_base();
        let cfg = SearchConfig::quick();
        let set = find_candidates(&net, &arch, &cfg);
        for (layer, got) in net.layers().iter().zip(&set.per_layer) {
            let own = secureloop_mapper::search(layer, &arch, &cfg).unwrap();
            assert_eq!(got.options, own.candidates, "{}", layer.name());
        }
    }

    #[test]
    fn injected_failure_isolates_to_the_named_layer() {
        let net = zoo::alexnet_conv();
        let arch = Architecture::eyeriss_base().with_name("fault-target");
        let _scope = FaultScope::inject(FaultPlan::fail(["conv2"]).for_arch("fault-target"));
        let set = find_candidates(&net, &arch, &SearchConfig::quick());
        let idx = net
            .layers()
            .iter()
            .position(|l| l.name() == "conv2")
            .unwrap();
        assert!(set.per_layer[idx].is_empty());
        assert!(matches!(
            set.per_layer[idx].error,
            Some(MapperError::InjectedFailure { .. })
        ));
        for (i, c) in set.per_layer.iter().enumerate() {
            if i != idx {
                assert!(!c.is_empty(), "layer {i} must be unaffected");
            }
        }
    }
}
