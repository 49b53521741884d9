//! The divisor-table samplers against a verbatim copy of the
//! trial-division samplers they replaced.
//!
//! `mod oracle` below is the sampler as it was before the divisor
//! table: every lookup factors its value by trial division into fresh
//! `Vec`s. The table serves the same lists in the same order, so both
//! implementations must consume the same random numbers and yield the
//! same `Mapping` sequence for every zoo layer on every Fig. 16 design,
//! uniform and guided, with and without guides and anchors. A stream
//! that drifts would silently move every golden and committed result.

use secureloop::dse::fig16_design_space;
use secureloop_arch::Architecture;
use secureloop_loopnest::Mapping;
use secureloop_mapper::factors::divisors;
use secureloop_mapper::sampler::DivisorTable;
use secureloop_mapper::{GuidedSampler, MappingSampler};
use secureloop_workload::{zoo, ConvLayer, Dim, DimMap};

#[path = "sampler_stream/oracle.rs"]
mod oracle;

/// Every layer of every zoo network the CLI names, one per distinct
/// bound vector: a sampler reads nothing else of the layer.
fn zoo_layers() -> Vec<ConvLayer> {
    let nets = [
        zoo::alexnet_conv(),
        zoo::alexnet_conv_grouped(),
        zoo::resnet18(),
        zoo::resnet50(),
        zoo::mobilenet_v2(),
        zoo::vgg16(),
        zoo::mlp(4, 4096),
        zoo::attention(128, 512),
        zoo::llm_decode(1024),
        zoo::vit_tiny(2),
        zoo::dilated_context(56, 64, 4),
        zoo::resnext_stage(28, 128, 32, 2),
    ];
    let mut seen: Vec<DimMap<u64>> = Vec::new();
    let mut layers = Vec::new();
    for net in &nets {
        for layer in net.layers() {
            if !seen.contains(&layer.bounds()) {
                seen.push(layer.bounds());
                layers.push(layer.clone());
            }
        }
    }
    layers
}

const SEEDS: [u64; 3] = [1, 42, 0x5ec0_4e10];
const DRAWS: usize = 40;

/// Oracle and table samplers on one layer and design: `DRAWS` uniform
/// draws, then guided draws without guides, with guides, with anchors
/// fed back, and with both — the last built over a base sampler that
/// has already drawn, as a search's per-chunk samplers are.
fn assert_same_stream(layer: &ConvLayer, arch: &Architecture, seed: u64) {
    let ctx = |what: &str| format!("{} on {} seed {seed}: {what}", layer.name(), arch.name());

    let mut want = oracle::MappingSampler::new(layer, arch, seed);
    let mut got = MappingSampler::new(layer, arch, seed);
    for i in 0..DRAWS {
        assert_eq!(got.sample(), want.sample(), "{} draw {i}", ctx("uniform"));
    }

    let mut pool = oracle::MappingSampler::new(layer, arch, seed ^ 5);
    let guides: Vec<Mapping> = (0..4).map(|_| pool.sample()).collect();
    for (with_guides, with_anchors) in [(false, false), (true, false), (false, true), (true, true)]
    {
        let guides: &[Mapping] = if with_guides { &guides } else { &[] };
        let what = ctx(&format!(
            "guided, guides {with_guides}, anchors {with_anchors}"
        ));
        let mut want = oracle::GuidedSampler::new(layer, arch, seed, guides);
        let mut got = if with_anchors {
            // A used base: `with_base` must restart its stream.
            let mut base = MappingSampler::new(layer, arch, seed.wrapping_add(1));
            base.sample();
            GuidedSampler::with_base(base, seed, guides)
        } else {
            GuidedSampler::new(layer, arch, seed, guides)
        };
        for i in 0..DRAWS {
            let draw = got.sample();
            assert_eq!(draw, want.sample(), "{what} draw {i}");
            if with_anchors && i % 3 == 0 {
                want.add_anchor(draw.0.clone());
                got.add_anchor(draw.0);
            }
        }
    }
}

#[test]
fn table_samplers_replay_the_trial_division_stream() {
    let layers = zoo_layers();
    let designs = fig16_design_space();
    assert_eq!(designs.len(), 18);
    for layer in &layers {
        for arch in &designs {
            for seed in SEEDS {
                assert_same_stream(layer, arch, seed);
            }
        }
    }
}

#[test]
fn table_slices_match_trial_division() {
    for layer in zoo_layers() {
        let bounds = layer.bounds();
        let table = DivisorTable::new(bounds);
        for d in Dim::ALL {
            for n in divisors(bounds[d]) {
                let all = divisors(n);
                assert_eq!(
                    table.divisors(d, n),
                    all.as_slice(),
                    "{} {d} {n}",
                    layer.name()
                );
                // Every cap at, just below and just above each divisor,
                // plus the RF cap and the Fig. 16 PE extents.
                let caps = all
                    .iter()
                    .flat_map(|&x| [x - 1, x, x + 1])
                    .chain([8, 12, 14, 24, 28]);
                for cap in caps {
                    assert_eq!(
                        table.divisors_up_to(d, n, cap),
                        oracle::divisors_up_to(n, cap).as_slice(),
                        "{} {d} {n} cap {cap}",
                        layer.name()
                    );
                }
                if n >= 2 {
                    assert_eq!(
                        table.smallest_prime_factor(d, n),
                        oracle::smallest_prime_factor(n),
                        "{} {d} {n}",
                        layer.name()
                    );
                }
            }
        }
    }
}
