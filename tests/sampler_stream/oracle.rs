//! The mapping samplers as they were before the divisor table, kept
//! verbatim as the oracle for `tests/sampler_stream.rs`: every divisor
//! lookup factors its value by trial division into fresh `Vec`s.

#![allow(dead_code)]

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use secureloop_arch::{Architecture, DataflowConstraints};
use secureloop_loopnest::Mapping;
use secureloop_workload::{ConvLayer, Dim, DimMap};

/// All divisors of `n`, ascending, by trial division.
fn divisors(n: u64) -> Vec<u64> {
    assert!(n > 0, "divisors of zero are undefined");
    let mut small = Vec::new();
    let mut large = Vec::new();
    let mut d = 1;
    while d * d <= n {
        if n.is_multiple_of(d) {
            small.push(d);
            if d != n / d {
                large.push(n / d);
            }
        }
        d += 1;
    }
    large.reverse();
    small.extend(large);
    small
}

/// Divisors of `n` that are ≤ `cap`.
pub fn divisors_up_to(n: u64, cap: u64) -> Vec<u64> {
    divisors(n).into_iter().filter(|&d| d <= cap).collect()
}

/// Draws random, structurally plausible mappings of one layer onto one
/// architecture. Capacity feasibility is *not* guaranteed — the caller
/// filters through [`evaluate`](secureloop_loopnest::evaluate) — but
/// factor products always match the layer bounds and spatial factors
/// always respect the dataflow constraints and PE-array extents.
#[derive(Debug)]
pub struct MappingSampler {
    bounds: DimMap<u64>,
    constraints: DataflowConstraints,
    pe_x: u64,
    pe_y: u64,
    rng: StdRng,
}

impl MappingSampler {
    /// Create a sampler with a deterministic seed.
    pub fn new(layer: &ConvLayer, arch: &Architecture, seed: u64) -> Self {
        MappingSampler {
            bounds: layer.bounds(),
            constraints: arch.dataflow().constraints(),
            pe_x: arch.pe_x() as u64,
            pe_y: arch.pe_y() as u64,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Draw one mapping.
    pub fn sample(&mut self) -> Mapping {
        let mut remaining = self.bounds;
        let mut spatial_x = DimMap::splat(1u64);
        let mut spatial_y = DimMap::splat(1u64);

        // Spatial Y, then X: walk the allowed dims in random order and
        // assign a random divisor within the remaining array capacity.
        // Biasing toward the largest divisor keeps utilisation high.
        let assign_axis = |rng: &mut StdRng,
                           allowed: &[Dim],
                           cap: u64,
                           out: &mut DimMap<u64>,
                           remaining: &mut DimMap<u64>| {
            let mut dims: Vec<Dim> = allowed.to_vec();
            dims.shuffle(rng);
            let mut left = cap;
            for d in dims {
                if left <= 1 {
                    break;
                }
                let choices = divisors_up_to(remaining[d], left);
                let pick = if rng.gen_bool(0.5) {
                    *choices.last().expect("1 always divides")
                } else {
                    *choices.choose(rng).expect("nonempty")
                };
                out[d] = pick;
                remaining[d] /= pick;
                left /= pick;
            }
        };
        let y_allowed = self.constraints.spatial_y;
        let x_allowed = self.constraints.spatial_x;
        assign_axis(
            &mut self.rng,
            y_allowed,
            self.pe_y,
            &mut spatial_y,
            &mut remaining,
        );
        assign_axis(
            &mut self.rng,
            x_allowed,
            self.pe_x,
            &mut spatial_x,
            &mut remaining,
        );

        // Temporal split: RF gets a small factor (register files are
        // tiny), GLB a random share, DRAM the rest.
        let mut rf = DimMap::splat(1u64);
        let mut glb = DimMap::splat(1u64);
        let mut dram = DimMap::splat(1u64);
        for d in Dim::ALL {
            let b = remaining[d];
            let rf_cap = match d {
                Dim::R | Dim::S => b, // filter taps usually fit a PE
                _ => 8,
            };
            let rf_f = *divisors_up_to(b, rf_cap)
                .choose(&mut self.rng)
                .expect("1 always divides");
            let rest = b / rf_f;
            // Bias toward large GLB tiles: maximal on-chip residency is
            // where most good schedules live.
            let glb_f = if self.rng.gen_bool(0.4) {
                rest
            } else {
                *divisors(rest).choose(&mut self.rng).expect("nonempty")
            };
            rf[d] = rf_f;
            glb[d] = glb_f;
            dram[d] = rest / glb_f;
        }

        // Loop orders: half the time start from the reduction-innermost
        // template (ofmap accumulates on-chip, the usual best order),
        // otherwise explore a random permutation.
        const REDUCTION_INNER: [Dim; 7] = [Dim::N, Dim::M, Dim::P, Dim::Q, Dim::C, Dim::R, Dim::S];
        let draw_order = |rng: &mut StdRng| {
            if rng.gen_bool(0.5) {
                REDUCTION_INNER
            } else {
                let mut o = Dim::ALL;
                o.shuffle(rng);
                o
            }
        };
        let dram_order = draw_order(&mut self.rng);
        let glb_order = draw_order(&mut self.rng);

        Mapping {
            dram,
            glb,
            spatial_x,
            spatial_y,
            rf,
            dram_order,
            glb_order,
        }
    }
}

/// Smallest prime factor of `n` (n ≥ 2): the gentlest unit by which a
/// tile factor can migrate between memory levels.
pub fn smallest_prime_factor(n: u64) -> u64 {
    debug_assert!(n >= 2);
    let mut f = 2;
    while f * f <= n {
        if n.is_multiple_of(f) {
            return f;
        }
        f += 1;
    }
    n
}

/// Neighbourhood-biased sampler for guided search: mixes uniform draws
/// from an inner [`MappingSampler`] with small mutations of *guide*
/// mappings (current Pareto-front members).
///
/// Mutations permute loop orders, migrate factors between temporal
/// levels (DRAM↔GLB, GLB↔RF), or grow/shrink the spatial assignment by
/// one prime factor along a constraint-allowed dim. Per-dim factor
/// products, the dataflow constraints and the PE-array extents are all
/// preserved by construction; capacity feasibility is filtered by
/// `evaluate`, same as the base sampler's contract.
///
/// Mutation decisions consume a *separate* RNG stream (derived from the
/// same seed), so a guided draw sequence is a pure function of
/// `(layer, arch, seed, guides)` — the determinism contract guided
/// chunks rely on.
#[derive(Debug)]
pub struct GuidedSampler<'a> {
    base: MappingSampler,
    rng: StdRng,
    guides: &'a [Mapping],
    /// Chunk-local anchors fed back by the caller as its own draws land
    /// on the chunk's front: the hill-climbing state that lets a single
    /// chunk descend a cost gradient instead of orbiting the round's
    /// static guide snapshot.
    local: Vec<Mapping>,
    constraints: DataflowConstraints,
    pe_x: u64,
    pe_y: u64,
}

/// How many of the caller's most recent front discoveries a sampler
/// keeps as live anchors (a FIFO window — recency tracks the current
/// descent path).
const LOCAL_ANCHORS: usize = 8;

/// Fraction of guided draws that stay uniform even when guides exist:
/// pure exploitation collapses onto the front's basin; a third of the
/// budget keeps exploring.
const EXPLORE_PROB: f64 = 1.0 / 3.0;

impl<'a> GuidedSampler<'a> {
    /// Create a guided sampler with a deterministic seed and a fixed
    /// guide snapshot.
    pub fn new(layer: &ConvLayer, arch: &Architecture, seed: u64, guides: &'a [Mapping]) -> Self {
        GuidedSampler {
            base: MappingSampler::new(layer, arch, seed),
            // Distinct stream from the base sampler so mutation
            // decisions never perturb the uniform draw sequence.
            rng: StdRng::seed_from_u64(seed ^ 0xa5a5_5a5a_c3c3_3c3c),
            guides,
            local: Vec::new(),
            constraints: arch.dataflow().constraints(),
            pe_x: arch.pe_x() as u64,
            pe_y: arch.pe_y() as u64,
        }
    }

    /// Register one of the caller's own discoveries as a live anchor
    /// for subsequent neighbourhood draws. Keeps the [`LOCAL_ANCHORS`]
    /// most recent. Determinism: callers feed anchors in draw order, so
    /// the anchor set stays a pure function of the chunk's own stream.
    pub fn add_anchor(&mut self, m: Mapping) {
        if self.local.len() == LOCAL_ANCHORS {
            self.local.remove(0);
        }
        self.local.push(m);
    }

    /// Draw one mapping; the flag is `true` when it came from a guide's
    /// neighbourhood rather than the uniform sampler.
    pub fn sample(&mut self) -> (Mapping, bool) {
        if (self.guides.is_empty() && self.local.is_empty()) || self.rng.gen_bool(EXPLORE_PROB) {
            return (self.base.sample(), false);
        }
        let n = self.guides.len() + self.local.len();
        let i = self.rng.gen_range(0..n);
        let guide = if i < self.guides.len() {
            &self.guides[i]
        } else {
            &self.local[i - self.guides.len()]
        };
        let mut m = guide.clone();
        let mutations = self.rng.gen_range(1..=2u32);
        for _ in 0..mutations {
            self.mutate(&mut m);
        }
        (m, true)
    }

    fn mutate(&mut self, m: &mut Mapping) {
        match self.rng.gen_range(0..11u32) {
            0 => {
                let i = self.rng.gen_range(0..m.dram_order.len());
                let j = self.rng.gen_range(0..m.dram_order.len());
                m.dram_order.swap(i, j);
            }
            1 => {
                let i = self.rng.gen_range(0..m.glb_order.len());
                let j = self.rng.gen_range(0..m.glb_order.len());
                m.glb_order.swap(i, j);
            }
            2 => {
                if self.rng.gen_bool(0.5) {
                    move_factor(&mut self.rng, &mut m.dram, &mut m.glb);
                } else {
                    move_factor(&mut self.rng, &mut m.glb, &mut m.dram);
                }
            }
            3 => {
                if self.rng.gen_bool(0.5) {
                    move_factor(&mut self.rng, &mut m.glb, &mut m.rf);
                } else {
                    move_factor(&mut self.rng, &mut m.rf, &mut m.glb);
                }
            }
            4 => {
                // Collapse one dim's DRAM factor entirely into the GLB
                // tile: the big jump toward maximal on-chip residency,
                // where most low-energy schedules live.
                let eligible: Vec<Dim> = Dim::ALL.into_iter().filter(|&d| m.dram[d] > 1).collect();
                if let Some(&d) = eligible.choose(&mut self.rng) {
                    m.glb[d] *= m.dram[d];
                    m.dram[d] = 1;
                }
            }
            5 => {
                // Rotate a random dim to the innermost position of one
                // loop order — a targeted reuse-distance change, unlike
                // the blind swaps above.
                let order = if self.rng.gen_bool(0.5) {
                    &mut m.dram_order
                } else {
                    &mut m.glb_order
                };
                let i = self.rng.gen_range(0..order.len());
                let d = order[i];
                order.copy_within(i + 1.., i);
                let last = order.len() - 1;
                order[last] = d;
            }
            6 => {
                // Coarse factor migration: a random divisor (not just
                // the smallest prime), so distant factorisations are a
                // couple of hops away instead of many.
                if self.rng.gen_bool(0.5) {
                    move_divisor(&mut self.rng, &mut m.dram, &mut m.glb);
                } else {
                    move_divisor(&mut self.rng, &mut m.glb, &mut m.dram);
                }
            }
            7 => self.grow_spatial(m),
            8 => self.shrink_spatial(m),
            9 => self.resample_spatial(m),
            _ => self.resample_temporal(m),
        }
    }

    /// Pull one prime factor of a constraint-allowed dim from DRAM (or
    /// GLB) into the spatial assignment, when the PE-array extent
    /// allows it — the move that reaches mappings whose parallelisation
    /// differs from every guide's.
    fn grow_spatial(&mut self, m: &mut Mapping) {
        let axis_x = self.rng.gen_bool(0.5);
        let (allowed, cap, extent) = if axis_x {
            (&self.constraints.spatial_x, self.pe_x, m.spatial_x_extent())
        } else {
            (&self.constraints.spatial_y, self.pe_y, m.spatial_y_extent())
        };
        let eligible: Vec<Dim> = allowed
            .iter()
            .copied()
            .filter(|&d| {
                let source = m.dram[d].max(m.glb[d]);
                source > 1 && extent * smallest_prime_factor(source) <= cap
            })
            .collect();
        let Some(&d) = eligible.choose(&mut self.rng) else {
            return;
        };
        let from = if m.dram[d] > 1 {
            &mut m.dram
        } else {
            &mut m.glb
        };
        let f = smallest_prime_factor(from[d]);
        if extent * f > cap {
            return;
        }
        from[d] /= f;
        if axis_x {
            m.spatial_x[d] *= f;
        } else {
            m.spatial_y[d] *= f;
        }
    }

    /// Push one prime factor of a spatial dim back into the DRAM loop —
    /// the inverse of [`GuidedSampler::grow_spatial`], so the spatial
    /// neighbourhood is reachable in both directions.
    fn shrink_spatial(&mut self, m: &mut Mapping) {
        let axis_x = self.rng.gen_bool(0.5);
        let spatial = if axis_x {
            &mut m.spatial_x
        } else {
            &mut m.spatial_y
        };
        let eligible: Vec<Dim> = Dim::ALL.into_iter().filter(|&d| spatial[d] > 1).collect();
        let Some(&d) = eligible.choose(&mut self.rng) else {
            return;
        };
        let f = smallest_prime_factor(spatial[d]);
        spatial[d] /= f;
        m.dram[d] *= f;
    }

    /// Rebuild one spatial axis from scratch: fold every factor on the
    /// axis back into DRAM, then greedily re-grow random prime factors
    /// until the PE extent is saturated (or an early stop fires). The
    /// macro-jump the single-factor moves can't make — e.g. hopping
    /// from a 10-wide to a 12-wide parallelisation, where every
    /// intermediate extent is dominated and would never survive on the
    /// front to guide the next step.
    fn resample_spatial(&mut self, m: &mut Mapping) {
        let axis_x = self.rng.gen_bool(0.5);
        let cap = if axis_x { self.pe_x } else { self.pe_y };
        for d in Dim::ALL {
            let s = if axis_x {
                m.spatial_x[d]
            } else {
                m.spatial_y[d]
            };
            if s > 1 {
                m.dram[d] *= s;
                if axis_x {
                    m.spatial_x[d] = 1;
                } else {
                    m.spatial_y[d] = 1;
                }
            }
        }
        loop {
            let (allowed, extent) = if axis_x {
                (&self.constraints.spatial_x, m.spatial_x_extent())
            } else {
                (&self.constraints.spatial_y, m.spatial_y_extent())
            };
            let eligible: Vec<Dim> = allowed
                .iter()
                .copied()
                .filter(|&d| m.dram[d] > 1 && extent * smallest_prime_factor(m.dram[d]) <= cap)
                .collect();
            let Some(&d) = eligible.choose(&mut self.rng) else {
                return;
            };
            let f = smallest_prime_factor(m.dram[d]);
            m.dram[d] /= f;
            if axis_x {
                m.spatial_x[d] *= f;
            } else {
                m.spatial_y[d] *= f;
            }
            if self.rng.gen_bool(0.25) {
                return;
            }
        }
    }

    /// Re-roll the whole temporal hierarchy (RF/GLB/DRAM split per dim,
    /// same distribution as the uniform sampler) while keeping the
    /// guide's spatial assignment and loop orders. The temporal twin of
    /// [`GuidedSampler::resample_spatial`]: basins whose DRAM residency
    /// differs on several dims at once (e.g. streaming weights instead
    /// of activations) are many single-factor moves apart, with every
    /// intermediate dominated — but one hop away for this move.
    fn resample_temporal(&mut self, m: &mut Mapping) {
        for d in Dim::ALL {
            let b = m.dram[d] * m.glb[d] * m.rf[d];
            let rf_cap = match d {
                Dim::R | Dim::S => b,
                _ => 8,
            };
            let rf_f = *divisors_up_to(b, rf_cap)
                .choose(&mut self.rng)
                .expect("1 always divides");
            let rest = b / rf_f;
            let glb_f = if self.rng.gen_bool(0.4) {
                rest
            } else {
                *divisors(rest).choose(&mut self.rng).expect("nonempty")
            };
            m.rf[d] = rf_f;
            m.glb[d] = glb_f;
            m.dram[d] = rest / glb_f;
        }
    }
}

/// Migrate the smallest prime factor of one random dim from one
/// temporal level to another (no-op when every factor is already 1).
fn move_factor(rng: &mut StdRng, from: &mut DimMap<u64>, to: &mut DimMap<u64>) {
    let eligible: Vec<Dim> = Dim::ALL.into_iter().filter(|&d| from[d] > 1).collect();
    if let Some(&d) = eligible.choose(rng) {
        let f = smallest_prime_factor(from[d]);
        from[d] /= f;
        to[d] *= f;
    }
}

/// Migrate a random non-trivial divisor of one random dim between
/// temporal levels (no-op when every factor is already 1).
fn move_divisor(rng: &mut StdRng, from: &mut DimMap<u64>, to: &mut DimMap<u64>) {
    let eligible: Vec<Dim> = Dim::ALL.into_iter().filter(|&d| from[d] > 1).collect();
    if let Some(&d) = eligible.choose(rng) {
        let choices: Vec<u64> = divisors(from[d]).into_iter().filter(|&f| f > 1).collect();
        let f = *choices.choose(rng).expect("from[d] > 1 has a divisor > 1");
        from[d] /= f;
        to[d] *= f;
    }
}
