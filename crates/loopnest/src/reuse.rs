//! Order-sensitive temporal reuse analysis.
//!
//! Given the temporal loops above a hierarchy boundary (outermost
//! first), these functions compute how often the tile below the boundary
//! must be re-fetched from (or re-written to) the parent level.
//!
//! The rule (see crate docs): walk to the *innermost loop relevant* to
//! the datatype; the tile is refetched once per combined iteration of
//! that loop and everything outside it. Loops nested inside the
//! innermost relevant loop do not change the tile, so the buffered copy
//! is reused across them.

use secureloop_workload::{ConvLayer, Datatype, Dim};

/// One temporal loop above a boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OuterLoop {
    /// Dimension iterated by this loop.
    pub dim: Dim,
    /// Loop bound (trip count); unit loops should be omitted.
    pub bound: u64,
}

/// The most temporal levels [`collect_loops`] concatenates: DRAM and
/// GLB, the two levels with a loop order.
const MAX_LEVELS: usize = 2;

/// The non-unit temporal loops of up to two levels, outermost first,
/// held on the stack: at most seven loops per level. Dereferences to
/// `[OuterLoop]`.
#[derive(Debug, Clone, Copy)]
pub struct Loops {
    buf: [OuterLoop; 7 * MAX_LEVELS],
    len: usize,
}

impl std::ops::Deref for Loops {
    type Target = [OuterLoop];

    fn deref(&self) -> &[OuterLoop] {
        &self.buf[..self.len]
    }
}

/// Collect the non-unit loops of `order`/`factors` pairs, outermost
/// first, concatenating multiple levels outer-to-inner.
///
/// # Panics
///
/// If `levels` has more than two entries.
pub fn collect_loops(levels: &[(&[Dim; 7], &secureloop_workload::DimMap<u64>)]) -> Loops {
    assert!(
        levels.len() <= MAX_LEVELS,
        "at most {MAX_LEVELS} temporal levels"
    );
    let mut out = Loops {
        buf: [OuterLoop {
            dim: Dim::N,
            bound: 1,
        }; 7 * MAX_LEVELS],
        len: 0,
    };
    for (order, factors) in levels {
        for &dim in order.iter() {
            // Write every loop, keep the non-unit ones: no branch on a
            // factor. The slot written is at most the count of loops
            // seen before, so it stays inside the buffer.
            let bound = factors[dim];
            out.buf[out.len] = OuterLoop { dim, bound };
            out.len += usize::from(bound > 1);
        }
    }
    out
}

/// How many times the tile of `dt` below the boundary is fetched from
/// the parent: the product of all loop bounds at or outside the
/// innermost loop relevant to `dt` (1 if no relevant loop exists).
pub fn fetch_multiplier(layer: &ConvLayer, dt: Datatype, loops: &[OuterLoop]) -> u64 {
    reuse_counts(layer, dt, loops).epochs
}

/// One pass over `loops`: the [`fetch_multiplier`] of `dt` (`epochs`)
/// and the product of the loops relevant to `dt` (`distinct`, the
/// number of distinct tiles). The running product of the loops seen so
/// far is the product up to each relevant loop. Both products wrap on
/// overflow, as release-mode products do.
pub(crate) fn reuse_counts(layer: &ConvLayer, dt: Datatype, loops: &[OuterLoop]) -> OfmapTraffic {
    let mut outer = 1u64;
    let mut out = OfmapTraffic {
        distinct: 1,
        epochs: 1,
    };
    for l in loops {
        outer = outer.wrapping_mul(l.bound);
        if layer.is_relevant(dt, l.dim) {
            out.epochs = outer;
            out.distinct = out.distinct.wrapping_mul(l.bound);
        }
    }
    out
}

/// Output-tile accumulation statistics above a boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OfmapTraffic {
    /// Number of distinct output tiles (product of relevant bounds).
    pub distinct: u64,
    /// Number of accumulation epochs: tile visits that end with a
    /// write-back to the parent. `epochs − distinct` of them start with
    /// a read of previously written partial sums.
    pub epochs: u64,
}

impl OfmapTraffic {
    /// Tile-granularity reads of partial sums from the parent.
    pub fn reads(&self) -> u64 {
        self.epochs - self.distinct
    }

    /// Tile-granularity writes to the parent.
    pub fn writes(&self) -> u64 {
        self.epochs
    }
}

/// Compute [`OfmapTraffic`] for the given outer loops.
///
/// Epochs use the same innermost-relevant rule as reads — a reduction
/// loop (`C`, `R`, `S`) *outside* the innermost relevant loop forces the
/// tile to be written out and revisited; a reduction loop *inside* it
/// accumulates while the tile stays resident.
pub fn ofmap_traffic(layer: &ConvLayer, loops: &[OuterLoop]) -> OfmapTraffic {
    reuse_counts(layer, Datatype::Ofmap, loops)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer() -> ConvLayer {
        ConvLayer::builder("t")
            .input_hw(18, 18)
            .channels(8, 16)
            .kernel(3, 3)
            .build()
            .unwrap()
    }

    fn lp(dim: Dim, bound: u64) -> OuterLoop {
        OuterLoop { dim, bound }
    }

    #[test]
    fn no_relevant_loops_means_single_fetch() {
        let l = layer();
        // P/Q loops don't index weights.
        let loops = [lp(Dim::P, 4), lp(Dim::Q, 4)];
        assert_eq!(fetch_multiplier(&l, Datatype::Weight, &loops), 1);
    }

    #[test]
    fn inner_irrelevant_loops_are_reused_across() {
        let l = layer();
        // for m { for p { w-tile(m) } }: P inside M, weight stays.
        let loops = [lp(Dim::M, 4), lp(Dim::P, 8)];
        assert_eq!(fetch_multiplier(&l, Datatype::Weight, &loops), 4);
    }

    #[test]
    fn outer_irrelevant_loops_force_refetch() {
        let l = layer();
        // for p { for m { w-tile(m) } }: tiles cycle under P.
        let loops = [lp(Dim::P, 8), lp(Dim::M, 4)];
        assert_eq!(fetch_multiplier(&l, Datatype::Weight, &loops), 32);
    }

    #[test]
    fn sandwiched_irrelevant_loop_counts() {
        let l = layer();
        // for m { for p { for c { w-tile(m,c) } } }
        let loops = [lp(Dim::M, 4), lp(Dim::P, 2), lp(Dim::C, 8)];
        assert_eq!(fetch_multiplier(&l, Datatype::Weight, &loops), 64);
        // Reordering P innermost restores reuse.
        let loops = [lp(Dim::M, 4), lp(Dim::C, 8), lp(Dim::P, 2)];
        assert_eq!(fetch_multiplier(&l, Datatype::Weight, &loops), 32);
    }

    #[test]
    fn ofmap_reduction_outside_costs_roundtrips() {
        let l = layer();
        // for c { for m { psum(m) } }: every (c,m) is an epoch.
        let t = ofmap_traffic(&l, &[lp(Dim::C, 8), lp(Dim::M, 4)]);
        assert_eq!(t.distinct, 4);
        assert_eq!(t.epochs, 32);
        assert_eq!(t.reads(), 28);
        assert_eq!(t.writes(), 32);
    }

    #[test]
    fn ofmap_reduction_inside_accumulates_in_place() {
        let l = layer();
        // for m { for c { psum(m) } }: tile m resident across c.
        let t = ofmap_traffic(&l, &[lp(Dim::M, 4), lp(Dim::C, 8)]);
        assert_eq!(t.distinct, 4);
        assert_eq!(t.epochs, 4);
        assert_eq!(t.reads(), 0);
        assert_eq!(t.writes(), 4);
    }

    #[test]
    fn ofmap_no_outer_loops_writes_once() {
        let l = layer();
        let t = ofmap_traffic(&l, &[]);
        assert_eq!(t.distinct, 1);
        assert_eq!(t.epochs, 1);
        assert_eq!(t.reads(), 0);
        assert_eq!(t.writes(), 1);
    }

    #[test]
    fn depthwise_m_is_relevant_to_ifmap() {
        let l = ConvLayer::builder("dw")
            .input_hw(8, 8)
            .channels(4, 4)
            .kernel(3, 3)
            .pad(1)
            .depthwise()
            .build()
            .unwrap();
        let loops = [lp(Dim::M, 4)];
        assert_eq!(fetch_multiplier(&l, Datatype::Ifmap, &loops), 4);
        // For a normal conv, M would multicast the ifmap.
        let n = layer();
        assert_eq!(fetch_multiplier(&n, Datatype::Ifmap, &loops), 1);
    }

    #[test]
    fn collect_loops_skips_unit_bounds() {
        let l = layer();
        let m = crate::Mapping::untiled(&l);
        let loops = collect_loops(&[(&m.dram_order, &m.dram)]);
        assert!(loops.is_empty());
        let loops = collect_loops(&[(&m.dram_order, &m.dram), (&m.glb_order, &m.rf)]);
        // rf holds the full bounds; non-unit dims of the layer appear.
        assert_eq!(loops.len(), 6); // N=1 skipped
    }
}
