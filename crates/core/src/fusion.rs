//! Fused-layer execution — the extension the paper points to.
//!
//! §4.3 calls joint scheduling of multiple layers in the style of
//! fused-layer processing \[43\] "promising yet orthogonal" to
//! SecureLoop. This module implements the simplest useful member of
//! that family: executing a *coupled pair* of layers tile-by-tile with
//! the intermediate tensor pinned in the GLB, so it never visits DRAM —
//! eliminating both its data traffic **and its entire AuthBlock
//! problem** (no hashes, no redundancy, no rehash: data that never
//! leaves the chip needs no memory authentication).
//!
//! The price is GLB capacity: the resident set of both layers plus the
//! whole intermediate plane-slab must fit, which is why fusion pays off
//! mainly for the thin tensors of depthwise/pointwise chains.

use secureloop_arch::Architecture;
use secureloop_loopnest::{evaluate, Evaluation, Mapping};
use secureloop_workload::{ConvLayer, Datatype};

/// Evaluation of one fused pair.
#[derive(Debug, Clone, PartialEq)]
pub struct FusedPair {
    /// Combined latency in cycles.
    pub latency_cycles: u64,
    /// Combined energy in pJ.
    pub energy_pj: f64,
    /// Off-chip bits eliminated: the intermediate tensor's round trip.
    pub saved_data_bits: u64,
    /// GLB bytes needed to pin the intermediate.
    pub pinned_bytes: u64,
}

/// Try to fuse `producer` and `consumer` under the given mappings.
///
/// The model: both layers run as scheduled, but the producer's ofmap is
/// written to (and the consumer's ifmap read from) the GLB instead of
/// DRAM. Feasible when the intermediate tensor fits in the GLB *on top
/// of* both layers' double-buffered working sets; we approximate that
/// residual capacity as `GLB − 2·(max of the two layers' tile sets)`.
///
/// Returns `None` when the intermediate does not fit or either mapping
/// is invalid.
pub fn fuse_pair(
    producer: &ConvLayer,
    consumer: &ConvLayer,
    arch: &Architecture,
    producer_mapping: &Mapping,
    consumer_mapping: &Mapping,
) -> Option<FusedPair> {
    let pe = evaluate(producer, arch, producer_mapping).ok()?;
    let ce = evaluate(consumer, arch, consumer_mapping).ok()?;

    let word_bytes = u64::from(producer.word_bits()).div_ceil(8);
    let intermediate_words = producer.tensor_elems(Datatype::Ofmap);
    let pinned_bytes = intermediate_words * word_bytes;

    // Residual GLB capacity after both layers' double-buffered tiles.
    let tile_bytes = |layer: &ConvLayer, mapping: &Mapping| -> u64 {
        use secureloop_loopnest::{footprint_words, inner_products, Boundary};
        let inner = inner_products(mapping, Boundary::BelowDram);
        let words: u64 = Datatype::ALL
            .iter()
            .filter(|&&dt| !arch.dataflow().constraints().bypasses_glb(dt))
            .map(|&dt| footprint_words(layer, dt, &inner))
            .sum();
        2 * words * word_bytes
    };
    let working =
        tile_bytes(producer, producer_mapping).max(tile_bytes(consumer, consumer_mapping));
    if working + pinned_bytes > arch.glb_bytes() {
        return None;
    }

    // Remove the intermediate's DRAM traffic from both sides.
    let saved_producer = dt_bits(&pe, Datatype::Ofmap);
    let saved_consumer = dt_bits(&ce, Datatype::Ifmap);
    let p_adj = without_dt_traffic(&pe, arch, Datatype::Ofmap);
    let c_adj = without_dt_traffic(&ce, arch, Datatype::Ifmap);

    Some(FusedPair {
        latency_cycles: p_adj.latency_cycles + c_adj.latency_cycles,
        energy_pj: p_adj.energy_pj + c_adj.energy_pj,
        saved_data_bits: saved_producer + saved_consumer,
        pinned_bytes,
    })
}

fn dt_bits(e: &Evaluation, dt: Datatype) -> u64 {
    e.dram_bits_by_dt[secureloop_loopnest::dt_index(dt)]
}

/// Re-derive an evaluation with one datatype's DRAM traffic removed
/// (it now flows through the GLB instead). The GLB/NoC side of that
/// traffic already exists in the counts; the DRAM+crypto side and its
/// energy disappear.
fn without_dt_traffic(e: &Evaluation, arch: &Architecture, dt: Datatype) -> Evaluation {
    let i = secureloop_loopnest::dt_index(dt);
    let mut bits = e.dram_bits_by_dt;
    let removed = bits[i];
    bits[i] = 0;
    // Rebuild through the public adjuster: zero extra, then recompute
    // by constructing a copy with reduced traffic.
    let mut out = e.clone();
    out.dram_bits_by_dt = bits;
    out.dram_total_bits -= removed;
    // Effective-bandwidth cycles for the reduced traffic.
    let probe = out.with_extra_dram_bits(arch, [0, 0, 0]);
    let mut adj = probe;
    // Energy: subtract the off-chip share of the removed bits.
    let energy = secureloop_energy::EnergyModel::of(arch);
    adj.energy_pj = e.energy_pj - energy.offchip_pj(removed);
    adj
}

/// Scan a network's coupled pairs and report which are fusable on this
/// architecture (using each layer's given mapping), with the saved
/// traffic.
pub fn fusable_pairs(
    network: &secureloop_workload::Network,
    arch: &Architecture,
    mappings: &[Mapping],
) -> Vec<(usize, usize, FusedPair)> {
    assert_eq!(mappings.len(), network.len(), "one mapping per layer");
    let mut out = Vec::new();
    for seg in network.segments() {
        for (a, b) in seg.coupled_pairs() {
            if let Some(f) = fuse_pair(
                &network.layers()[a],
                &network.layers()[b],
                arch,
                &mappings[a],
                &mappings[b],
            ) {
                out.push((a, b, f));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::find_candidates;
    use secureloop_crypto::{CryptoConfig, EngineClass};
    use secureloop_mapper::SearchConfig;
    use secureloop_workload::zoo;

    fn setup(net: &secureloop_workload::Network) -> (Architecture, Vec<Mapping>) {
        let arch =
            Architecture::eyeriss_base().with_crypto(CryptoConfig::new(EngineClass::Parallel, 3));
        let cands = find_candidates(net, &arch, &SearchConfig::quick());
        let mappings = cands
            .per_layer
            .iter()
            .map(|c| c.best().expect("has candidates").0.clone())
            .collect();
        (arch, mappings)
    }

    #[test]
    fn small_intermediates_fuse_large_ones_do_not() {
        // MobileNetV2's late blocks have 7x7 intermediates (tiny);
        // AlexNet conv1's 55x55x96 ofmap (290 kB) cannot be pinned in
        // a 131 kB GLB.
        let mnet = zoo::mobilenet_v2();
        let (arch, mappings) = setup(&mnet);
        let fusable = fusable_pairs(&mnet, &arch, &mappings);
        assert!(!fusable.is_empty(), "late MobileNetV2 pairs must fuse");
        for (_, _, f) in &fusable {
            assert!(f.pinned_bytes <= arch.glb_bytes());
            assert!(f.saved_data_bits > 0);
        }

        let anet = zoo::alexnet_conv();
        let (aarch, amappings) = setup(&anet);
        let producer = &anet.layers()[2];
        let consumer = &anet.layers()[3];
        // conv3 ofmap: 13*13*384 = 65 kB — fits; conv1 would not, but
        // conv1 has no coupled consumer in AlexNet anyway. Check the
        // fused pair saves the full intermediate round trip.
        if let Some(f) = fuse_pair(producer, consumer, &aarch, &amappings[2], &amappings[3]) {
            let min_saved = producer.tensor_bits(Datatype::Ofmap);
            assert!(f.saved_data_bits >= min_saved);
        }
    }

    #[test]
    fn fusion_never_increases_latency_for_memory_bound_pairs() {
        let net = zoo::mobilenet_v2();
        let (arch, mappings) = setup(&net);
        for (a, b, f) in fusable_pairs(&net, &arch, &mappings) {
            let pe = evaluate(&net.layers()[a], &arch, &mappings[a]).unwrap();
            let ce = evaluate(&net.layers()[b], &arch, &mappings[b]).unwrap();
            let unfused = pe.latency_cycles + ce.latency_cycles;
            assert!(
                f.latency_cycles <= unfused,
                "fusing {}-{} regressed: {} > {unfused}",
                a,
                b,
                f.latency_cycles
            );
        }
    }

    #[test]
    fn oversized_intermediate_rejected() {
        let net = zoo::vgg16();
        let (arch, mappings) = setup(&net);
        // b1c1 -> b1c2: 224x224x64 intermediate (3 MB) >> 131 kB GLB.
        assert!(fuse_pair(
            &net.layers()[0],
            &net.layers()[1],
            &arch,
            &mappings[0],
            &mappings[1]
        )
        .is_none());
    }
}
