//! Bounded exhaustive mapping search — Timeloop's brute-force mode
//! (paper §2.1: "Timeloop used brute-force search over all possible
//! loopnests"), practical for small layers and used as the optimality
//! oracle for the random-pruned search.
//!
//! The enumeration covers every split of each dimension across the five
//! factor positions (DRAM, GLB, spatial-X, spatial-Y, RF) and a
//! representative set of loop orders (all rotations of the reduction-
//! innermost template plus the canonical order at both temporal
//! levels). Loop orders only influence the cost model through which
//! loops sit outside which (see `secureloop-loopnest`), so this order
//! set covers the distinct reuse structures without the full 5040².

use std::time::Instant;

use secureloop_arch::Architecture;
use secureloop_loopnest::{evaluate, Evaluation, Mapping};
use secureloop_workload::{ConvLayer, Dim, DimMap};

use crate::factors::divisors;

/// Spaces no larger than this (see [`space_upper_bound`]) are enumerated
/// outright by [`crate::search`] — the top rung of its degradation
/// ladder.
pub const EXHAUSTIVE_SPACE_CAP: u128 = 20_000;

/// Upper bound on the number of mappings the exhaustive rung would
/// enumerate for `layer`: ordered 5-slot factorisations of every
/// dimension times the representative order set at both temporal
/// levels. Cheap (no allocation) — used to decide whether exhaustive
/// enumeration is affordable before attempting it.
pub fn space_upper_bound(layer: &ConvLayer) -> u128 {
    // Ordered factorisations of p^e into 5 slots: C(e+4, 4).
    fn slot_count(e: u128) -> u128 {
        (e + 1) * (e + 2) * (e + 3) * (e + 4) / 24
    }
    let mut total: u128 = (order_set().len() * order_set().len()) as u128;
    for &d in Dim::ALL.iter() {
        let mut n = layer.dim(d);
        let mut count: u128 = 1;
        let mut p = 2u64;
        while p * p <= n {
            let mut e = 0u128;
            while n.is_multiple_of(p) {
                n /= p;
                e += 1;
            }
            if e > 0 {
                count = count.saturating_mul(slot_count(e));
            }
            p += 1;
        }
        if n > 1 {
            count = count.saturating_mul(5);
        }
        total = total.saturating_mul(count);
    }
    total
}

/// All ways to split `n` into `k` ordered factors.
fn splits(n: u64, k: usize) -> Vec<Vec<u64>> {
    if k == 1 {
        return vec![vec![n]];
    }
    let mut out = Vec::new();
    for d in divisors(n) {
        for mut rest in splits(n / d, k - 1) {
            let mut v = vec![d];
            v.append(&mut rest);
            out.push(v);
        }
    }
    out
}

fn order_set() -> Vec<[Dim; 7]> {
    const BASE: [Dim; 7] = [Dim::N, Dim::M, Dim::P, Dim::Q, Dim::C, Dim::R, Dim::S];
    vec![
        BASE,
        [Dim::N, Dim::M, Dim::C, Dim::P, Dim::Q, Dim::R, Dim::S], // canonical
        [Dim::C, Dim::R, Dim::S, Dim::N, Dim::M, Dim::P, Dim::Q], // reduction outer
        [Dim::N, Dim::P, Dim::Q, Dim::M, Dim::C, Dim::R, Dim::S], // output rows outer
    ]
}

/// Top-k exhaustive enumeration with an optional wall-clock deadline —
/// the exhaustive rung of [`crate::search`].
pub(crate) struct ExhaustiveTopK {
    /// Retained `(mapping, evaluation)` pairs, best first.
    pub keep: Vec<(Mapping, Evaluation)>,
    /// How many evaluated mappings were valid.
    pub valid: usize,
    /// Mappings attempted (valid or not).
    pub evaluated: u64,
    /// Whether the budget or deadline truncated the enumeration.
    pub truncated: bool,
}

/// How often the enumeration polls the wall clock.
const DEADLINE_STRIDE: u64 = 256;

pub(crate) fn run_exhaustive(
    layer: &ConvLayer,
    arch: &Architecture,
    budget: u64,
    deadline: Option<Instant>,
    top_k: usize,
) -> ExhaustiveTopK {
    // Per-dimension factor splits: (dram, glb, sx, sy, rf). Ordered
    // with small on-chip (RF, then GLB) factors first, so truncated
    // enumerations visit capacity-feasible mappings early.
    let per_dim: Vec<Vec<Vec<u64>>> = Dim::ALL
        .iter()
        .map(|&d| {
            let mut v: Vec<Vec<u64>> = splits(layer.dim(d), 5)
                .into_iter()
                // Prune spatial assignments that cannot fit the array
                // or violate the dataflow before full enumeration.
                .filter(|s| {
                    let constraints = arch.dataflow().constraints();
                    (s[2] == 1 || (s[2] <= arch.pe_x() as u64 && constraints.allows_spatial_x(d)))
                        && (s[3] == 1
                            || (s[3] <= arch.pe_y() as u64 && constraints.allows_spatial_y(d)))
                })
                .collect();
            v.sort_by_key(|s| (s[4], s[1]));
            v
        })
        .collect();

    let orders = order_set();
    let mut keep: Vec<(Mapping, Evaluation)> = Vec::new();
    let mut valid = 0usize;
    let mut evaluated = 0u64;
    let mut truncated = false;

    // Odometer over the per-dimension split choices.
    let mut idx = [0usize; 7];
    'outer: loop {
        // Assemble the factor maps.
        let mut dram = DimMap::splat(1u64);
        let mut glb = DimMap::splat(1u64);
        let mut sx = DimMap::splat(1u64);
        let mut sy = DimMap::splat(1u64);
        let mut rf = DimMap::splat(1u64);
        for (i, &d) in Dim::ALL.iter().enumerate() {
            let s = &per_dim[i][idx[i]];
            dram[d] = s[0];
            glb[d] = s[1];
            sx[d] = s[2];
            sy[d] = s[3];
            rf[d] = s[4];
        }
        // Spatial product feasibility across dimensions.
        let fits = sx.product() <= arch.pe_x() as u64 && sy.product() <= arch.pe_y() as u64;
        if fits {
            for &dram_order in &orders {
                for &glb_order in &orders {
                    let m = Mapping {
                        dram,
                        glb,
                        spatial_x: sx,
                        spatial_y: sy,
                        rf,
                        dram_order,
                        glb_order,
                    };
                    evaluated += 1;
                    if let Ok(e) = evaluate(layer, arch, &m) {
                        valid += 1;
                        crate::insert_candidate(&mut keep, top_k, &m, e);
                    }
                    if evaluated >= budget {
                        truncated = true;
                        break 'outer;
                    }
                    if evaluated.is_multiple_of(DEADLINE_STRIDE) {
                        if let Some(dl) = deadline {
                            if Instant::now() >= dl {
                                truncated = true;
                                break 'outer;
                            }
                        }
                    }
                }
            }
        }
        // Advance the odometer.
        let mut i = 6;
        loop {
            idx[i] += 1;
            if idx[i] < per_dim[i].len() {
                break;
            }
            idx[i] = 0;
            if i == 0 {
                break 'outer;
            }
            i -= 1;
        }
    }

    ExhaustiveTopK {
        keep,
        valid,
        evaluated,
        truncated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{search, SearchConfig};

    fn tiny_layer() -> ConvLayer {
        ConvLayer::builder("tiny")
            .input_hw(4, 4)
            .channels(2, 2)
            .kernel(3, 3)
            .build()
            .unwrap()
    }

    #[test]
    fn splits_enumerate_all_orderings() {
        let s = splits(12, 2);
        assert_eq!(s.len(), 6); // one per divisor
        assert!(s.contains(&vec![3, 4]));
        assert!(s.contains(&vec![4, 3]));
        assert_eq!(splits(7, 3).len(), 3); // 7 in one of three slots
    }

    #[test]
    fn exhaustive_finds_a_certified_optimum_on_a_tiny_layer() {
        let layer = tiny_layer();
        let arch = Architecture::eyeriss_base();
        let r = run_exhaustive(&layer, &arch, 2_000_000, None, 1);
        assert!(!r.truncated, "tiny layer must fit the budget");
        let (_, best) = r.keep.into_iter().next().expect("found");
        assert!(r.evaluated > 1000);
        // The random search must approach (never beat by much, since
        // the exhaustive order set is representative but not total).
        let random = search(
            &layer,
            &arch,
            &SearchConfig {
                samples: 6000,
                top_k: 1,
                seed: 3,
                threads: 2,
                deadline: None,
                mode: crate::SearchMode::Random,
            },
        )
        .expect("search succeeds");
        let rnd = random.best().unwrap().1.latency_cycles;
        assert!(
            rnd >= best.latency_cycles,
            "random ({rnd}) beat the exhaustive optimum ({})",
            best.latency_cycles
        );
        assert!(
            rnd <= best.latency_cycles * 3 / 2,
            "random ({rnd}) too far from optimum ({})",
            best.latency_cycles
        );
    }

    #[test]
    fn budget_truncation_reports() {
        let layer = ConvLayer::builder("mid")
            .input_hw(28, 28)
            .channels(16, 32)
            .kernel(3, 3)
            .pad(1)
            .build()
            .unwrap();
        let arch = Architecture::eyeriss_base();
        let r = run_exhaustive(&layer, &arch, 200_000, None, 1);
        assert!(r.truncated, "mid-sized layer must exceed 200k attempts");
        assert_eq!(r.evaluated, 200_000);
        // Enough of the space is covered to have found something.
        assert!(!r.keep.is_empty());
    }
}
