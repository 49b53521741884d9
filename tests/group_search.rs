//! One random-mode draw stream priced for every design that shares it.
//!
//! In random mode a mapper search draws the same mappings on every
//! design with the same PE array, register file and dataflow (its
//! `DrawIdentity`). `search_group` draws them once, runs the first
//! cost stage (`traffic`) once per draw on the largest-GLB design, and
//! prices each draw per design (`Traffic::price`). This file checks
//! that the split is exact: every design's group result equals its own
//! `search` byte for byte, for every zoo layer shape on every Fig. 16
//! PE group, and `traffic` + `price` equals `evaluate` on valid and
//! invalid mappings alike.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use secureloop::dse::fig16_design_space;
use secureloop_arch::{Architecture, Dataflow};
use secureloop_loopnest::{
    evaluate, traffic, DrawIdentity, Mapping, MappingError, Pricing, SearchSpaceKey,
};
use secureloop_mapper::{search, search_group, MappingSampler, SearchConfig, SearchMode};
use secureloop_workload::{zoo, ConvLayer, Dim};

/// Every layer of every zoo network the CLI names, one per distinct
/// search space on the base design: the search reads nothing else of
/// the layer.
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
    let base = Architecture::eyeriss_base();
    let mut seen: Vec<String> = Vec::new();
    let mut layers = Vec::new();
    for net in &nets {
        for layer in net.layers() {
            let key = SearchSpaceKey::of(layer, &base).as_str().to_string();
            if !seen.contains(&key) {
                seen.push(key);
                layers.push(layer.clone());
            }
        }
    }
    layers
}

/// The Fig. 16 designs grouped by draw identity, in design order.
fn groups(designs: &[Architecture]) -> Vec<Vec<&Architecture>> {
    let mut groups: Vec<Vec<&Architecture>> = Vec::new();
    for arch in designs {
        match groups
            .iter_mut()
            .find(|g| DrawIdentity::of(g[0]) == DrawIdentity::of(arch))
        {
            Some(g) => g.push(arch),
            None => groups.push(vec![arch]),
        }
    }
    groups
}

const SEEDS: [u64; 3] = [1, 42, 0x5ec0_4e10];

#[test]
fn fig16_designs_fall_into_one_group_per_pe_array() {
    let designs = fig16_design_space();
    let groups = groups(&designs);
    assert_eq!(groups.len(), 3);
    assert!(groups.iter().all(|g| g.len() == 6));
}

#[test]
fn group_search_equals_per_design_search() {
    let designs = fig16_design_space();
    let groups = groups(&designs);
    for layer in zoo_layers() {
        for group in &groups {
            for seed in SEEDS {
                // Two chunks, the second short, so four threads split
                // the budget and the per-design merge order matters.
                let cfg = SearchConfig {
                    samples: 300,
                    top_k: 4,
                    seed,
                    threads: 1,
                    deadline: None,
                    mode: SearchMode::Random,
                };
                let alone: Vec<String> = group
                    .iter()
                    .map(|arch| format!("{:?}", search(&layer, arch, &cfg)))
                    .collect();
                for threads in [1, 4] {
                    let together = search_group(&layer, group, &cfg.with_threads(threads));
                    assert_eq!(together.len(), group.len());
                    for ((arch, got), want) in group.iter().zip(&together).zip(&alone) {
                        assert_eq!(
                            &format!("{got:?}"),
                            want,
                            "layer {} on {} (seed {seed}, {threads} threads)",
                            layer.name(),
                            arch.name()
                        );
                    }
                }
            }
        }
    }
}

/// Damage a drawn mapping in one of the ways `validate` rejects, or
/// leave it as drawn.
fn damage(mut m: Mapping, rng: &mut StdRng) -> Mapping {
    let d = Dim::ALL[rng.gen_range(0..7usize)];
    match rng.gen_range(0..6u32) {
        0 => m.rf[d] += 1,
        1 => m.dram_order[0] = m.dram_order[1],
        2 => {
            // The DRAM factor onto the PE array: spatial overflow or a
            // dataflow violation.
            m.spatial_x[d] *= m.dram[d];
            m.dram[d] = 1;
        }
        3 => {
            // Everything into one GLB tile: the capacity checks fire.
            m.glb[d] *= m.dram[d];
            m.dram[d] = 1;
        }
        _ => {}
    }
    m
}

/// The bytes a GLB capacity error says the tiles need.
fn glb_overflow<T>(r: &Result<T, MappingError>) -> Option<u64> {
    match r {
        Err(MappingError::CapacityExceeded {
            level: "GLB",
            needed,
            ..
        }) => Some(*needed),
        _ => None,
    }
}

#[test]
fn traffic_then_price_equals_evaluate() {
    // The Fig. 16 designs (row-stationary: weights bypass the GLB),
    // plus the other dataflows, none of which bypasses it, and the
    // partitioned register file, each at the three Fig. 15 GLB sizes.
    let mut designs = fig16_design_space();
    for kb in [16, 32, 131] {
        for dataflow in [
            Dataflow::WeightStationary,
            Dataflow::OutputStationary,
            Dataflow::Unconstrained,
        ] {
            designs.push(
                Architecture::eyeriss_base()
                    .with_dataflow(dataflow)
                    .with_glb_kb(kb),
            );
        }
        designs.push(Architecture::eyeriss_partitioned().with_glb_kb(kb));
    }
    let groups = groups(&designs);
    let mut rng = StdRng::seed_from_u64(7);
    let (mut ok, mut err) = (0usize, 0usize);
    for layer in zoo_layers() {
        for group in &groups {
            let widest = group.iter().max_by_key(|a| a.glb_bytes()).unwrap();
            let mut sampler = MappingSampler::new(&layer, widest, rng.gen_range(0..u64::MAX));
            for _ in 0..40 {
                let m = damage(sampler.sample(), &mut rng);
                let t = traffic(&layer, widest, &m);
                for arch in group {
                    let want = evaluate(&layer, arch, &m);
                    let got = t.clone().and_then(|t| t.price(&Pricing::of(arch)));
                    // `traffic` checks the widest GLB, so its capacity
                    // error names that GLB's size, not this design's.
                    if let (Some(a), Some(b)) = (glb_overflow(&t), glb_overflow(&want)) {
                        assert_eq!(a, b);
                        err += 1;
                        continue;
                    }
                    assert_eq!(
                        format!("{got:?}"),
                        format!("{want:?}"),
                        "layer {} on {}: {m:?}",
                        layer.name(),
                        arch.name()
                    );
                    if got.is_ok() {
                        ok += 1;
                    } else {
                        err += 1;
                    }
                }
            }
        }
    }
    assert!(ok > 1000 && err > 1000, "{ok} valid, {err} invalid");
}
