//! Random mapping generation (Timeloop-style random pruning).

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use secureloop_arch::{Architecture, DataflowConstraints};
use secureloop_loopnest::Mapping;
use secureloop_workload::{ConvLayer, Dim, DimMap};

use crate::factors::divisors;

/// The largest RF factor a uniform draw gives a dim other than the
/// filter taps `R`/`S` (register files are tiny).
const RF_CAP: u64 = 8;

/// The divisors of every divisor of one layer's bounds, per dim.
///
/// Every factor a draw splits divides its dim's layer bound: a uniform
/// draw only ever divides the bound down, and a mutation moves factors
/// between the levels of a mapping whose per-dim product is the bound.
/// So this table answers every divisor lookup a sampler makes. Each
/// list holds exactly what [`divisors`] returns for that value, in the
/// same order, so a draw that picks from it consumes the same random
/// numbers as one that picks from a fresh trial-division list.
///
/// The table has one *row* per divisor of the bound, ascending, and
/// each row lists its value's divisors together with the row of the
/// quotient. A uniform draw keeps each dim's remaining factor as a row
/// and steps to the quotient's row after each pick, so it never
/// searches for a value. Memory is `Σ` over the bound's divisors of
/// their divisor counts per dim, bounded by the square of the bound's
/// divisor count and never by the bound's value.
#[derive(Debug)]
pub struct DivisorTable(DimMap<DimRows>);

/// One dim of a [`DivisorTable`].
#[derive(Debug)]
struct DimRows {
    /// Each row's divisors, ascending, the rows concatenated in
    /// ascending order of their values.
    values: Vec<u64>,
    /// For each entry of `values`, the row of its row's value divided
    /// by it.
    quotients: Vec<u32>,
    /// Each row's value, where its divisors sit in `values`, and how
    /// many of them are at most [`RF_CAP`].
    rows: Vec<RowSpan>,
}

#[derive(Debug, Clone, Copy)]
struct RowSpan {
    value: u64,
    start: u32,
    len: u32,
    rf_len: u32,
}

/// One row of a [`DivisorTable`]: a value's divisors, ascending, and
/// the row of the value divided by each.
#[derive(Debug, Clone, Copy)]
struct Row<'a> {
    values: &'a [u64],
    quotients: &'a [u32],
    rf_len: usize,
}

impl DimRows {
    fn new(bound: u64) -> Self {
        // The bound's divisors are every row's value, ascending, and a
        // divisor of a row's value divides the bound too: `ds` already
        // holds every divisor of every row, ascending.
        let ds = divisors(bound);
        let row_of = |n: u64| ds.binary_search(&n).expect("a divisor of the bound");
        let mut out = DimRows {
            values: Vec::new(),
            quotients: Vec::new(),
            rows: Vec::with_capacity(ds.len()),
        };
        for &n in &ds {
            let start = out.values.len();
            for &x in ds.iter().filter(|&&x| n.is_multiple_of(x)) {
                out.values.push(x);
                out.quotients.push(index_u32(row_of(n / x)));
            }
            let row = &out.values[start..];
            out.rows.push(RowSpan {
                value: n,
                start: index_u32(start),
                len: index_u32(row.len()),
                rf_len: index_u32(row.partition_point(|&x| x <= RF_CAP)),
            });
        }
        out
    }

    fn row(&self, r: usize) -> Row<'_> {
        let RowSpan {
            start, len, rf_len, ..
        } = self.rows[r];
        let range = start as usize..(start + len) as usize;
        Row {
            values: &self.values[range.clone()],
            quotients: &self.quotients[range],
            rf_len: rf_len as usize,
        }
    }

    /// The row of the bound itself: the last one.
    fn top(&self) -> usize {
        self.rows.len() - 1
    }

    /// The value row `r` describes.
    fn value(&self, r: usize) -> u64 {
        self.rows[r].value
    }

    /// The row describing `n`, by binary search.
    fn row_of(&self, d: Dim, n: u64) -> usize {
        match self.row(self.top()).values.binary_search(&n) {
            Ok(r) => r,
            Err(_) => panic!("{n} does not divide the {d} bound"),
        }
    }
}

fn index_u32(i: usize) -> u32 {
    u32::try_from(i).expect("divisor counts fit in u32")
}

impl DivisorTable {
    /// Tabulate the divisors of every divisor of `bounds`.
    pub fn new(bounds: DimMap<u64>) -> Self {
        DivisorTable(DimMap(Dim::ALL.map(|d| DimRows::new(bounds[d]))))
    }

    /// All divisors of `n`, ascending.
    ///
    /// # Panics
    ///
    /// If `n` does not divide the `d` bound.
    pub fn divisors(&self, d: Dim, n: u64) -> &[u64] {
        let rows = &self.0[d];
        rows.row(rows.row_of(d, n)).values
    }

    /// Divisors of `n` that are ≤ `cap`: a prefix of
    /// [`DivisorTable::divisors`].
    pub fn divisors_up_to(&self, d: Dim, n: u64, cap: u64) -> &[u64] {
        let ds = self.divisors(d, n);
        &ds[..ds.partition_point(|&x| x <= cap)]
    }

    /// Smallest prime factor of `n` (n ≥ 2): the gentlest unit by which
    /// a tile factor can migrate between memory levels.
    pub fn smallest_prime_factor(&self, d: Dim, n: u64) -> u64 {
        debug_assert!(n >= 2);
        self.divisors(d, n)[1]
    }
}

/// A uniform index below `len`. Consumes the same random numbers as
/// `choose` on a slice of `len` elements: both are one uniform draw
/// over `0..len`.
fn choose_index(rng: &mut StdRng, len: usize) -> usize {
    rng.gen_range(0..len)
}

/// Pick one dim uniformly among `dims` (at most seven), on the stack.
/// Consumes the same random numbers as `choose` on a collected `Vec`.
fn choose_dim(rng: &mut StdRng, dims: impl IntoIterator<Item = Dim>) -> Option<Dim> {
    let mut buf = [Dim::N; 7];
    let mut len = 0;
    for d in dims {
        buf[len] = d;
        len += 1;
    }
    buf[..len].choose(rng).copied()
}

/// Draws random, structurally plausible mappings of one layer onto one
/// architecture. Capacity feasibility is *not* guaranteed — the caller
/// filters through [`evaluate`](secureloop_loopnest::evaluate) — but
/// factor products always match the layer bounds and spatial factors
/// always respect the dataflow constraints and PE-array extents.
///
/// Clones share the layer's [`DivisorTable`]; [`MappingSampler::reseed`]
/// restarts the draw stream without rebuilding it.
#[derive(Debug, Clone)]
pub struct MappingSampler {
    table: Arc<DivisorTable>,
    constraints: DataflowConstraints,
    pe_x: u64,
    pe_y: u64,
    rng: StdRng,
}

impl MappingSampler {
    /// Create a sampler with a deterministic seed.
    pub fn new(layer: &ConvLayer, arch: &Architecture, seed: u64) -> Self {
        MappingSampler {
            table: Arc::new(DivisorTable::new(layer.bounds())),
            constraints: arch.dataflow().constraints(),
            pe_x: arch.pe_x() as u64,
            pe_y: arch.pe_y() as u64,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Restart the draw stream at `seed`: the draws that follow are
    /// those of a fresh `new(.., seed)` sampler.
    pub fn reseed(&mut self, seed: u64) {
        self.rng = StdRng::seed_from_u64(seed);
    }

    /// Draw one mapping.
    pub fn sample(&mut self) -> Mapping {
        let table = &self.table.0;
        let rng = &mut self.rng;
        // Each dim's factor still to place, as its row in the table.
        let mut remaining = DimMap(Dim::ALL.map(|d| table[d].top()));
        let mut spatial_x = DimMap::splat(1u64);
        let mut spatial_y = DimMap::splat(1u64);

        // Spatial Y, then X: walk the allowed dims in random order and
        // assign a random divisor within the remaining array capacity.
        // Biasing toward the largest divisor keeps utilisation high.
        let assign_axis = |rng: &mut StdRng,
                           allowed: &[Dim],
                           cap: u64,
                           out: &mut DimMap<u64>,
                           remaining: &mut DimMap<usize>| {
            let mut buf = [Dim::N; 7];
            let dims = &mut buf[..allowed.len()];
            dims.copy_from_slice(allowed);
            dims.shuffle(rng);
            // The axis has `⌊cap / used⌋` PEs left. For positive
            // integers `x ≤ ⌊c/u⌋ ⇔ x·u ≤ c`, so the loop compares
            // products with `cap` instead of dividing; it stops once
            // `⌊cap / used⌋ ≤ 1`, that is once `used > ⌊cap / 2⌋`.
            let mut used = 1u64;
            for &d in dims.iter() {
                if used > cap / 2 {
                    break;
                }
                let row = table[d].row(remaining[d]);
                // The divisors that fit what is left: a prefix, never
                // empty (1 divides).
                let choices = row
                    .values
                    .iter()
                    .take_while(|&&x| x.checked_mul(used).is_some_and(|p| p <= cap))
                    .count();
                let k = if rng.gen_bool(0.5) {
                    choices - 1
                } else {
                    choose_index(rng, choices)
                };
                out[d] = row.values[k];
                remaining[d] = row.quotients[k] as usize;
                used *= row.values[k];
            }
        };
        assign_axis(
            rng,
            self.constraints.spatial_y,
            self.pe_y,
            &mut spatial_y,
            &mut remaining,
        );
        assign_axis(
            rng,
            self.constraints.spatial_x,
            self.pe_x,
            &mut spatial_x,
            &mut remaining,
        );

        let mut rf = DimMap::splat(1u64);
        let mut glb = DimMap::splat(1u64);
        let mut dram = DimMap::splat(1u64);
        for d in Dim::ALL {
            (rf[d], glb[d], dram[d]) = split_temporal(rng, &table[d], d, remaining[d]);
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
        let dram_order = draw_order(rng);
        let glb_order = draw_order(rng);

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

/// Split a dim's temporal factor, the value of `row`, into
/// `(rf, glb, dram)`: RF gets a small factor (register files are tiny),
/// GLB a random share biased toward maximal on-chip residency — where
/// most good schedules live — and DRAM the rest.
fn split_temporal(rng: &mut StdRng, rows: &DimRows, d: Dim, row: usize) -> (u64, u64, u64) {
    let b = rows.row(row);
    let rf_choices = match d {
        Dim::R | Dim::S => b.values.len(), // filter taps usually fit a PE
        _ => b.rf_len,
    };
    let k = choose_index(rng, rf_choices);
    let rest = rows.row(b.quotients[k] as usize);
    let (glb_f, dram_row) = if rng.gen_bool(0.4) {
        (rows.value(b.quotients[k] as usize), 0)
    } else {
        let j = choose_index(rng, rest.values.len());
        (rest.values[j], rest.quotients[j] as usize)
    };
    (b.values[k], glb_f, rows.value(dram_row))
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
/// `evaluate`, same as the base sampler's contract. Guides and anchors
/// must be mappings of the sampler's layer: their factors are looked up
/// in its [`DivisorTable`].
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
        Self::with_base(MappingSampler::new(layer, arch, seed), seed, guides)
    }

    /// [`GuidedSampler::new`] on `base`'s layer and architecture,
    /// reusing its divisor table: `base` is reseeded to `seed`.
    pub fn with_base(mut base: MappingSampler, seed: u64, guides: &'a [Mapping]) -> Self {
        base.reseed(seed);
        GuidedSampler {
            base,
            // Distinct stream from the base sampler so mutation
            // decisions never perturb the uniform draw sequence.
            rng: StdRng::seed_from_u64(seed ^ 0xa5a5_5a5a_c3c3_3c3c),
            guides,
            local: Vec::new(),
        }
    }

    /// Register one of the caller's own discoveries as a live anchor
    /// for subsequent neighbourhood draws. Keeps the `LOCAL_ANCHORS`
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
                    self.move_factor(&mut m.dram, &mut m.glb);
                } else {
                    self.move_factor(&mut m.glb, &mut m.dram);
                }
            }
            3 => {
                if self.rng.gen_bool(0.5) {
                    self.move_factor(&mut m.glb, &mut m.rf);
                } else {
                    self.move_factor(&mut m.rf, &mut m.glb);
                }
            }
            4 => {
                // Collapse one dim's DRAM factor entirely into the GLB
                // tile: the big jump toward maximal on-chip residency,
                // where most low-energy schedules live.
                let eligible = Dim::ALL.into_iter().filter(|&d| m.dram[d] > 1);
                if let Some(d) = choose_dim(&mut self.rng, eligible) {
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
                    self.move_divisor(&mut m.dram, &mut m.glb);
                } else {
                    self.move_divisor(&mut m.glb, &mut m.dram);
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
        let base = &self.base;
        let table = &*base.table;
        let axis_x = self.rng.gen_bool(0.5);
        let (allowed, cap, extent) = if axis_x {
            (&base.constraints.spatial_x, base.pe_x, m.spatial_x_extent())
        } else {
            (&base.constraints.spatial_y, base.pe_y, m.spatial_y_extent())
        };
        let eligible = allowed.iter().copied().filter(|&d| {
            let source = m.dram[d].max(m.glb[d]);
            source > 1 && extent * table.smallest_prime_factor(d, source) <= cap
        });
        let Some(d) = choose_dim(&mut self.rng, eligible) else {
            return;
        };
        let from = if m.dram[d] > 1 {
            &mut m.dram
        } else {
            &mut m.glb
        };
        let f = table.smallest_prime_factor(d, from[d]);
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
        let eligible = Dim::ALL.into_iter().filter(|&d| spatial[d] > 1);
        let Some(d) = choose_dim(&mut self.rng, eligible) else {
            return;
        };
        let f = self.base.table.smallest_prime_factor(d, spatial[d]);
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
        let base = &self.base;
        let table = &*base.table;
        let axis_x = self.rng.gen_bool(0.5);
        let cap = if axis_x { base.pe_x } else { base.pe_y };
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
                (&base.constraints.spatial_x, m.spatial_x_extent())
            } else {
                (&base.constraints.spatial_y, m.spatial_y_extent())
            };
            let eligible = allowed.iter().copied().filter(|&d| {
                m.dram[d] > 1 && extent * table.smallest_prime_factor(d, m.dram[d]) <= cap
            });
            let Some(d) = choose_dim(&mut self.rng, eligible) else {
                return;
            };
            let f = table.smallest_prime_factor(d, m.dram[d]);
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
            let rows = &self.base.table.0[d];
            let row = rows.row_of(d, m.dram[d] * m.glb[d] * m.rf[d]);
            (m.rf[d], m.glb[d], m.dram[d]) = split_temporal(&mut self.rng, rows, d, row);
        }
    }

    /// Migrate the smallest prime factor of one random dim from one
    /// temporal level to another (no-op when every factor is already 1).
    fn move_factor(&mut self, from: &mut DimMap<u64>, to: &mut DimMap<u64>) {
        if let Some(d) = choose_dim(&mut self.rng, Dim::ALL.into_iter().filter(|&d| from[d] > 1)) {
            let f = self.base.table.smallest_prime_factor(d, from[d]);
            from[d] /= f;
            to[d] *= f;
        }
    }

    /// Migrate a random non-trivial divisor of one random dim between
    /// temporal levels (no-op when every factor is already 1).
    fn move_divisor(&mut self, from: &mut DimMap<u64>, to: &mut DimMap<u64>) {
        if let Some(d) = choose_dim(&mut self.rng, Dim::ALL.into_iter().filter(|&d| from[d] > 1)) {
            let choices = &self.base.table.divisors(d, from[d])[1..];
            let f = *choices
                .choose(&mut self.rng)
                .expect("from[d] > 1 has a divisor > 1");
            from[d] /= f;
            to[d] *= f;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use secureloop_workload::zoo;

    #[test]
    fn samples_always_factorise_exactly() {
        let net = zoo::resnet18();
        let arch = Architecture::eyeriss_base();
        for layer in net.layers().iter().take(6) {
            let mut s = MappingSampler::new(layer, &arch, 42);
            for _ in 0..200 {
                let m = s.sample();
                for d in Dim::ALL {
                    assert_eq!(m.total_factor(d), layer.dim(d), "{} {d}", layer.name());
                }
                assert!(m.spatial_x_extent() <= 14);
                assert!(m.spatial_y_extent() <= 12);
            }
        }
    }

    #[test]
    fn samples_respect_dataflow() {
        let net = zoo::alexnet_conv();
        let arch = Architecture::eyeriss_base();
        let constraints = arch.dataflow().constraints();
        let mut s = MappingSampler::new(&net.layers()[1], &arch, 1);
        for _ in 0..200 {
            let m = s.sample();
            for d in Dim::ALL {
                if m.spatial_x[d] > 1 {
                    assert!(constraints.allows_spatial_x(d));
                }
                if m.spatial_y[d] > 1 {
                    assert!(constraints.allows_spatial_y(d));
                }
            }
        }
    }

    #[test]
    fn sampler_is_seed_deterministic() {
        let net = zoo::alexnet_conv();
        let arch = Architecture::eyeriss_base();
        let layer = &net.layers()[0];
        let a: Vec<Mapping> = {
            let mut s = MappingSampler::new(layer, &arch, 99);
            (0..10).map(|_| s.sample()).collect()
        };
        let b: Vec<Mapping> = {
            let mut s = MappingSampler::new(layer, &arch, 99);
            (0..10).map(|_| s.sample()).collect()
        };
        assert_eq!(a, b);
        let c: Vec<Mapping> = {
            let mut s = MappingSampler::new(layer, &arch, 100);
            (0..10).map(|_| s.sample()).collect()
        };
        assert_ne!(a, c);
    }

    fn guide_pool(layer: &ConvLayer, arch: &Architecture) -> Vec<Mapping> {
        let mut s = MappingSampler::new(layer, arch, 5);
        (0..4).map(|_| s.sample()).collect()
    }

    #[test]
    fn guided_samples_still_factorise_exactly() {
        let net = zoo::alexnet_conv();
        let arch = Architecture::eyeriss_base();
        for layer in net.layers().iter().take(3) {
            let guides = guide_pool(layer, &arch);
            let mut s = GuidedSampler::new(layer, &arch, 42, &guides);
            let mut saw_neighbourhood = false;
            for _ in 0..200 {
                let (m, from_neighbourhood) = s.sample();
                saw_neighbourhood |= from_neighbourhood;
                for d in Dim::ALL {
                    assert_eq!(m.total_factor(d), layer.dim(d), "{} {d}", layer.name());
                }
                assert!(m.spatial_x_extent() <= 14);
                assert!(m.spatial_y_extent() <= 12);
            }
            assert!(saw_neighbourhood, "mutations never fired");
        }
    }

    #[test]
    fn guided_mutations_respect_dataflow_and_pe_extents() {
        // Spatial mutations may grow/shrink the parallelisation, but
        // only along constraint-allowed dims and never past the PE
        // array — the same invariants the uniform sampler guarantees.
        let net = zoo::alexnet_conv();
        let arch = Architecture::eyeriss_base();
        let constraints = arch.dataflow().constraints();
        let layer = &net.layers()[1];
        let guides = guide_pool(layer, &arch);
        let mut s = GuidedSampler::new(layer, &arch, 9, &guides);
        let mut saw_new_spatial = false;
        for _ in 0..400 {
            let (m, from_neighbourhood) = s.sample();
            if !from_neighbourhood {
                continue;
            }
            for d in Dim::ALL {
                if m.spatial_x[d] > 1 {
                    assert!(constraints.allows_spatial_x(d));
                }
                if m.spatial_y[d] > 1 {
                    assert!(constraints.allows_spatial_y(d));
                }
            }
            assert!(m.spatial_x_extent() <= arch.pe_x() as u64);
            assert!(m.spatial_y_extent() <= arch.pe_y() as u64);
            saw_new_spatial |= !guides
                .iter()
                .any(|g| g.spatial_x == m.spatial_x && g.spatial_y == m.spatial_y);
        }
        assert!(
            saw_new_spatial,
            "spatial mutations must reach configurations no guide has"
        );
    }

    #[test]
    fn guided_sampler_is_seed_deterministic() {
        let net = zoo::alexnet_conv();
        let arch = Architecture::eyeriss_base();
        let layer = &net.layers()[0];
        let guides = guide_pool(layer, &arch);
        let draw = |seed: u64| -> Vec<(Mapping, bool)> {
            let mut s = GuidedSampler::new(layer, &arch, seed, &guides);
            (0..20).map(|_| s.sample()).collect()
        };
        assert_eq!(draw(99), draw(99));
        assert_ne!(draw(99), draw(100));
    }

    #[test]
    fn guided_without_guides_matches_the_uniform_sampler() {
        let net = zoo::alexnet_conv();
        let arch = Architecture::eyeriss_base();
        let layer = &net.layers()[0];
        let mut base = MappingSampler::new(layer, &arch, 123);
        let mut guided = GuidedSampler::new(layer, &arch, 123, &[]);
        for _ in 0..20 {
            let (m, from_neighbourhood) = guided.sample();
            assert!(!from_neighbourhood);
            assert_eq!(m, base.sample());
        }
    }
}
