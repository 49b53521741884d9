//! A deterministic, constructive mapper — the CoSA-style counterpoint
//! to random-pruned search.
//!
//! The paper's step-1 approach is "compatible with a broad range of
//! existing loopnest scheduling algorithms, such as Timeloop and CoSA"
//! (§4.1). This module provides a second backend in that spirit: a
//! greedy heuristic that builds one good mapping directly instead of
//! sampling, useful as a fast seed, a sanity baseline for the random
//! search, and a determinism anchor in tests.
//!
//! Construction order:
//! 1. **Spatial**: fill the PE array with the largest legal divisors of
//!    the dataflow-allowed dimensions (Y first, then X).
//! 2. **RF**: keep the filter taps and a small reuse factor per PE.
//! 3. **GLB**: grow per-dimension tile factors round-robin while the
//!    double-buffered tile still fits the buffer.
//! 4. **Orders**: reduction-innermost at both temporal levels, so
//!    partial sums accumulate on-chip.

use secureloop_arch::Architecture;
use secureloop_loopnest::{evaluate, Evaluation, Mapping};
use secureloop_workload::{ConvLayer, Dim, DimMap};

use crate::error::MapperError;
use crate::factors::divisors;

/// Deterministically construct a mapping for `layer` on `arch`.
///
/// # Errors
///
/// [`MapperError::Infeasible`] only if even the minimal tiling violates
/// a capacity constraint (which does not happen for realistic
/// configurations: the fallback keeps every GLB factor at 1).
pub fn greedy_mapping(
    layer: &ConvLayer,
    arch: &Architecture,
) -> Result<(Mapping, Evaluation), MapperError> {
    let constraints = arch.dataflow().constraints();
    let mut remaining = layer.bounds();

    // 1. Spatial fill: largest divisor first, preferring dimensions
    // with more headroom.
    let mut spatial_y = DimMap::splat(1u64);
    let mut spatial_x = DimMap::splat(1u64);
    let fill = |allowed: &[Dim], cap: u64, out: &mut DimMap<u64>, remaining: &mut DimMap<u64>| {
        let mut left = cap;
        for &d in allowed {
            if left <= 1 {
                break;
            }
            let f = largest_divisor_up_to(remaining[d], left);
            out[d] = f;
            remaining[d] /= f;
            left /= f;
        }
    };
    fill(
        constraints.spatial_y,
        arch.pe_y() as u64,
        &mut spatial_y,
        &mut remaining,
    );
    fill(
        constraints.spatial_x,
        arch.pe_x() as u64,
        &mut spatial_x,
        &mut remaining,
    );

    // 2. RF: whole filter taps, modest channel reuse.
    let mut rf = DimMap::splat(1u64);
    for d in [Dim::S, Dim::R] {
        rf[d] = remaining[d];
        remaining[d] = 1;
    }
    for d in [Dim::C, Dim::Q] {
        let f = largest_divisor_up_to(remaining[d], 4);
        rf[d] = f;
        remaining[d] /= f;
    }

    // 3. GLB: grow factors round-robin while the double-buffered tiles
    // fit (validation re-checks; we grow greedily and back off on
    // failure).
    let mut glb = DimMap::splat(1u64);
    let order = [Dim::M, Dim::P, Dim::Q, Dim::C, Dim::N];
    let mut grew = true;
    while grew {
        grew = false;
        for &d in &order {
            if remaining[d] == 1 {
                continue;
            }
            // Smallest prime factor of the remainder.
            let next = (2..=remaining[d])
                .find(|f| remaining[d].is_multiple_of(*f))
                .expect("remainder > 1 has a factor");
            glb[d] *= next;
            remaining[d] /= next;
            let candidate = assemble(layer, glb, spatial_x, spatial_y, rf, remaining);
            if candidate.validate(layer, arch).is_err() {
                // Back off this growth step.
                glb[d] /= next;
                remaining[d] *= next;
            } else {
                grew = true;
            }
        }
    }

    let mapping = assemble(layer, glb, spatial_x, spatial_y, rf, remaining);
    match evaluate(layer, arch, &mapping) {
        Ok(e) => Ok((mapping, e)),
        Err(e) => Err(MapperError::Infeasible {
            layer: layer.name().to_string(),
            reason: e.to_string(),
        }),
    }
}

/// The largest divisor of `n` that is ≤ `cap` (1 always qualifies).
fn largest_divisor_up_to(n: u64, cap: u64) -> u64 {
    divisors(n)
        .into_iter()
        .rfind(|&f| f <= cap)
        .expect("1 always divides")
}

fn assemble(
    _layer: &ConvLayer,
    glb: DimMap<u64>,
    spatial_x: DimMap<u64>,
    spatial_y: DimMap<u64>,
    rf: DimMap<u64>,
    dram: DimMap<u64>,
) -> Mapping {
    const REDUCTION_INNER: [Dim; 7] = [Dim::N, Dim::M, Dim::P, Dim::Q, Dim::C, Dim::R, Dim::S];
    Mapping {
        dram,
        glb,
        spatial_x,
        spatial_y,
        rf,
        dram_order: REDUCTION_INNER,
        glb_order: REDUCTION_INNER,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use secureloop_workload::zoo;

    #[test]
    fn greedy_succeeds_on_every_zoo_layer() {
        // Collect failures instead of panicking per layer, so one bad
        // layer reports alongside the rest.
        let arch = Architecture::eyeriss_base();
        let mut failures: Vec<String> = Vec::new();
        for net in [zoo::alexnet_conv(), zoo::resnet18(), zoo::mobilenet_v2()] {
            for layer in net.layers() {
                match greedy_mapping(layer, &arch) {
                    Ok((m, e)) => {
                        m.validate(layer, &arch).unwrap();
                        assert!(e.latency_cycles > 0);
                    }
                    Err(e) => failures.push(e.to_string()),
                }
            }
        }
        assert!(failures.is_empty(), "greedy failed on: {failures:?}");
    }

    #[test]
    fn greedy_is_deterministic() {
        let arch = Architecture::eyeriss_base();
        let net = zoo::resnet18();
        let a = greedy_mapping(&net.layers()[3], &arch).unwrap();
        let b = greedy_mapping(&net.layers()[3], &arch).unwrap();
        assert_eq!(a.0, b.0);
    }

    #[test]
    fn greedy_accumulates_on_chip() {
        // Reduction-innermost ordering: no partial sums spill to DRAM
        // unless C is tiled at the DRAM level.
        let arch = Architecture::eyeriss_base();
        let net = zoo::alexnet_conv();
        let (m, e) = greedy_mapping(&net.layers()[2], &arch).unwrap();
        if m.dram[Dim::C] == 1 && m.dram[Dim::R] == 1 && m.dram[Dim::S] == 1 {
            assert_eq!(e.counts.dram_read_words[2], 0, "ofmap reads should be zero");
        }
    }

    #[test]
    fn random_search_beats_or_matches_greedy_with_budget() {
        // The greedy construction is a strong seed; a sizeable random
        // search should find something at least as good.
        let arch = Architecture::eyeriss_base();
        let net = zoo::alexnet_conv();
        let layer = &net.layers()[1];
        let (_, greedy) = greedy_mapping(layer, &arch).unwrap();
        let random = crate::search(
            layer,
            &arch,
            &crate::SearchConfig {
                samples: 4000,
                top_k: 1,
                seed: 5,
                threads: 2,
                deadline: None,
                mode: crate::SearchMode::Random,
            },
        )
        .expect("search succeeds");
        let best = random.best().unwrap().1.latency_cycles;
        assert!(
            best <= greedy.latency_cycles * 2,
            "random {best} much worse than greedy {}",
            greedy.latency_cycles
        );
    }
}
