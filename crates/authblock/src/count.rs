//! Counting AuthBlocks touched by a tile, three ways.
//!
//! * [`count_blocks_brute`] — visit every element; the obviously-correct
//!   reference used by the property tests.
//! * [`count_blocks_rows`] — `O(tile rows)` union of per-row block
//!   ranges; what a "detailed simulation" would do per tile.
//! * [`count_blocks`] — the paper's closed-form solver: `O(log)` floor
//!   sums and one linear-congruence count (§4.2). This is what the
//!   optimiser's exhaustive orientation×size sweep uses, which is how
//!   SecureLoop keeps the search tractable.

use std::collections::HashSet;

use secureloop_telemetry::Counter;

use crate::congruence::{residues_le_at, to_u64, word, Word, NATIVE_BOUND};
use crate::lattice::{BlockAssignment, Region, TileRect};

/// How many times the closed-form congruence solver ran — the unit the
/// optimiser's `OPTIMIZE_BUDGET` is denominated in.
static CONGRUENCE_CALLS: Counter = Counter::new("authblock.congruence_calls");

/// The outcome of overlapping one tile against one block lattice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BlockCount {
    /// Distinct AuthBlocks touched (each costs one hash fetch).
    pub blocks: u64,
    /// Total elements that must be fetched to verify those blocks
    /// (block size × blocks, trimmed for the region's short final
    /// block). Redundant reads = `fetched_elems - tile.elems()`.
    pub fetched_elems: u64,
}

impl BlockCount {
    /// Elements fetched beyond the tile's own data.
    pub fn redundant_elems(&self, tile: TileRect) -> u64 {
        self.fetched_elems - tile.elems()
    }
}

fn assert_tile_fits(region: Region, tile: TileRect) {
    assert!(
        tile.fits_in(region),
        "tile {tile:?} exceeds region {region:?}"
    );
}

/// Trim `blocks * u` down by the region's short final block, if block
/// `last_id` is among the touched ones.
///
/// The raw product `blocks * u` can exceed `u64` (up to `elems + u - 1`
/// before trimming, ~2^65 for near-`u32::MAX` extents), so it is formed
/// in `u128`; the trimmed value is at most `region.elems()` and
/// converts back losslessly.
fn fetched_from_blocks(region: Region, u: u64, blocks: u64, touches_last: bool) -> u64 {
    let total = region.elems();
    let mut fetched = blocks as u128 * u as u128;
    if touches_last && !total.is_multiple_of(u) {
        fetched -= (u - total % u) as u128;
    }
    u64::try_from(fetched).expect("trimmed fetch volume fits the region")
}

/// Reference implementation: enumerate every tile element.
pub fn count_blocks_brute(region: Region, tile: TileRect, assign: BlockAssignment) -> BlockCount {
    let (region, tile) = assign.to_row_major(region, tile);
    assert_tile_fits(region, tile);
    let u = assign.size;
    let mut ids = HashSet::new();
    for r in tile.row0..tile.row0 + tile.rows {
        for c in tile.col0..tile.col0 + tile.cols {
            ids.insert((r * region.w + c) / u);
        }
    }
    let last_id = (region.elems() - 1) / u;
    let touches_last = ids.contains(&last_id);
    BlockCount {
        blocks: ids.len() as u64,
        fetched_elems: fetched_from_blocks(region, u, ids.len() as u64, touches_last),
    }
}

/// Per-row interval union: `O(tile rows)`.
pub fn count_blocks_rows(region: Region, tile: TileRect, assign: BlockAssignment) -> BlockCount {
    let (region, tile) = assign.to_row_major(region, tile);
    assert_tile_fits(region, tile);
    // Linear indices are formed in u128: `r * w + col0` is bounded by
    // `elems - 1` for an in-bounds tile, but widening keeps the
    // intermediate products exact even at the extreme of that range.
    let u = assign.size as u128;
    let mut blocks = 0u64;
    let mut prev_hi: Option<u128> = None;
    let mut max_hi = 0u128;
    for r in tile.row0..tile.row0 + tile.rows {
        let start = r as u128 * region.w as u128 + tile.col0 as u128;
        let end = start + tile.cols as u128 - 1;
        let lo = start / u;
        let hi = end / u;
        let from = match prev_hi {
            Some(p) if p >= lo => p + 1,
            _ => lo,
        };
        if hi >= from {
            blocks += (hi - from + 1) as u64;
        }
        prev_hi = Some(prev_hi.map_or(hi, |p| p.max(hi)));
        max_hi = max_hi.max(hi);
    }
    let last_id = (region.elems() - 1) as u128 / u;
    BlockCount {
        blocks,
        fetched_elems: fetched_from_blocks(region, assign.size, blocks, max_hi == last_id),
    }
}

/// Closed-form counter (paper §4.2): two floor sums for the block-range
/// envelope plus one congruence count for inter-row gaps.
///
/// With row-major blocks of size `u` on a region of width `w`, the tile's
/// row `r` occupies blocks `[⌊s_r/u⌋, ⌊e_r/u⌋]` where `s_r, e_r` are
/// arithmetic progressions with common difference `w`. Those intervals
/// are monotone, so their union is the envelope minus the gaps between
/// consecutive rows — and the gap sizes depend only on
/// `(e_r mod u)`, a linear-congruence count.
///
/// Regions with fewer than [`NATIVE_BOUND`] elements and block sizes
/// below it run at native width (see its doc for why that is exact);
/// larger ones, up to near-`u32::MAX` extents, run the same formulas
/// widened to `i128`.
pub fn count_blocks(region: Region, tile: TileRect, assign: BlockAssignment) -> BlockCount {
    CONGRUENCE_CALLS.incr();
    let (region, tile) = assign.to_row_major(region, tile);
    assert_tile_fits(region, tile);
    let u = assign.size;
    let (blocks, touches_last) = if region.elems() < NATIVE_BOUND && u < NATIVE_BOUND {
        closed_form::<i64>(region, tile, u)
    } else {
        closed_form::<i128>(region, tile, u)
    };
    BlockCount {
        blocks,
        fetched_elems: fetched_from_blocks(region, u, blocks, touches_last),
    }
}

/// [`count_blocks`] on a row-major region at width `T`: the distinct
/// blocks touched and whether the region's last block is among them.
fn closed_form<T: Word>(region: Region, tile: TileRect, u: u64) -> (u64, bool) {
    let (zero, one) = (word::<T>(0), word::<T>(1));
    let (uw, w, n) = (word::<T>(u), word::<T>(region.w), word::<T>(tile.rows));
    // `e0 + (n-1)*w` is the tile's last linear element, bounded by
    // `elems - 1` for an in-bounds tile; at `i128` the products along
    // the way cannot wrap even for near-`u32::MAX` extents.
    let s0 = word::<T>(tile.row0) * w + word(tile.col0);
    let e0 = s0 + word(tile.cols) - one;

    let lo_first = s0 / uw;
    let hi_last = (e0 + (n - one) * w) / uw;
    let envelope = hi_last - lo_first + one;

    // Gap between row r-1's last block and row r's first block:
    // g = s_r - e_{r-1} = w - cols + 1 linear positions. The number of
    // block boundaries inside that span is q = ⌊g/u⌋ plus one more when
    // (e_{r-1} mod u) >= u - (g mod u); gaps of zero blocks are free.
    let gaps = if tile.rows >= 2 {
        let g = region.w - tile.cols + 1;
        let q = g / u;
        if q == 0 {
            zero
        } else {
            let rem = g % u;
            let pairs = n - one;
            let extra = if rem == 0 {
                zero
            } else {
                // #{r in [0, pairs): (w*r + e0) mod u >= u - rem}
                pairs - residues_le_at(pairs, w % uw, e0 % uw, uw, word(u - rem - 1))
            };
            pairs * (word::<T>(q) - one) + extra
        }
    } else {
        zero
    };
    // The union of the per-row intervals has at least one block per
    // row-pair boundary left, so `gaps < envelope` and the count fits
    // u64 (it is at most `blocks_in(region)`).
    let last_id = word::<T>(region.elems() - 1) / uw;
    (to_u64(envelope - gaps), hi_last == last_id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lattice::Orientation;

    fn all_three(region: Region, tile: TileRect, assign: BlockAssignment) -> BlockCount {
        let a = count_blocks_brute(region, tile, assign);
        let b = count_blocks_rows(region, tile, assign);
        let c = count_blocks(region, tile, assign);
        assert_eq!(a, b, "rows vs brute: {region:?} {tile:?} {assign}");
        assert_eq!(a, c, "congruence vs brute: {region:?} {tile:?} {assign}");
        a
    }

    #[test]
    fn paper_fig7_examples() {
        // Fig. 7: a 2x6 region written as 1x3 ofmap tiles, read as 2x2
        // ifmap tiles. The first ifmap tile is the 2x2 at the origin.
        let region = Region::new(2, 6);
        let tile = TileRect::new(0, 0, 2, 2);

        // (c) horizontal, size 1: one hash per element, no redundancy.
        let c = all_three(
            region,
            tile,
            BlockAssignment::new(Orientation::Horizontal, 1),
        );
        assert_eq!(c.blocks, 4);
        assert_eq!(c.redundant_elems(tile), 0);

        // (d) horizontal, size 2: fewer hashes, no redundancy for this
        // tile (blocks [0,1] and [6,7] align with columns 0-1).
        let d = all_three(
            region,
            tile,
            BlockAssignment::new(Orientation::Horizontal, 2),
        );
        assert_eq!(d.blocks, 2);
        assert_eq!(d.redundant_elems(tile), 0);

        // (e) vertical, size 3: wraps down column 0 into column 1 —
        // 2 blocks cover rows {0,1} of cols {0,1} exactly? Col-major
        // linearisation: (0,0),(1,0),(0,1) = block 0; (1,1),(0,2),(1,2)
        // = block 1. Tile touches blocks 0 and 1; block 1 brings
        // (0,2),(1,2) as redundant data.
        let e = all_three(region, tile, BlockAssignment::new(Orientation::Vertical, 3));
        assert_eq!(e.blocks, 2);
        assert_eq!(e.redundant_elems(tile), 2);

        // (f) vertical, size 6: one block covers half the region.
        let f = all_three(region, tile, BlockAssignment::new(Orientation::Vertical, 6));
        assert_eq!(f.blocks, 1);
        assert_eq!(f.redundant_elems(tile), 2);
    }

    #[test]
    fn paper_fig9_optima() {
        // h = 30, w_i = 30; consumer tile is the 30x20 right-aligned
        // region of the next layer (the misaligned 20-wide tile).
        let region = Region::new(30, 30);
        let tile = TileRect::new(0, 10, 30, 20);

        // Vertical u = 300 = h * (w_i - w_j): zero redundant reads
        // (paper: "the optimal AuthBlock size is 300").
        let v = all_three(
            region,
            tile,
            BlockAssignment::new(Orientation::Vertical, 300),
        );
        assert_eq!(v.redundant_elems(tile), 0);
        assert_eq!(v.blocks, 2);

        // Horizontal u = 10 hits a local redundancy minimum: blocks of
        // 10 align with the 10-column offset.
        let h10 = all_three(
            region,
            tile,
            BlockAssignment::new(Orientation::Horizontal, 10),
        );
        assert_eq!(h10.redundant_elems(tile), 0);
        assert_eq!(h10.blocks, 60);

        // Horizontal u = 7 misaligns: some rows fetch extra elements.
        let h7 = all_three(
            region,
            tile,
            BlockAssignment::new(Orientation::Horizontal, 7),
        );
        assert!(h7.redundant_elems(tile) > 0);
    }

    #[test]
    fn whole_region_as_one_block() {
        let region = Region::new(30, 30);
        let tile = TileRect::new(5, 5, 10, 10);
        let c = all_three(
            region,
            tile,
            BlockAssignment::new(Orientation::Horizontal, 900),
        );
        assert_eq!(c.blocks, 1);
        assert_eq!(c.fetched_elems, 900);
        assert_eq!(c.redundant_elems(tile), 800);
    }

    #[test]
    fn short_final_block_is_trimmed() {
        // 3x5 region, u = 4: blocks are 4,4,4,3 elements.
        let region = Region::new(3, 5);
        let tile = TileRect::new(2, 0, 1, 5); // last row: elems 10..15
        let c = all_three(
            region,
            tile,
            BlockAssignment::new(Orientation::Horizontal, 4),
        );
        // Row covers linear 10..=14 -> blocks 2 (8..11) and 3 (12..14).
        assert_eq!(c.blocks, 2);
        assert_eq!(c.fetched_elems, 4 + 3);
    }

    #[test]
    fn unit_blocks_never_redundant() {
        let region = Region::new(17, 13);
        for (r0, c0, rs, cs) in [(0, 0, 17, 13), (3, 2, 5, 7), (16, 12, 1, 1)] {
            let tile = TileRect::new(r0, c0, rs, cs);
            for o in Orientation::ALL {
                let c = all_three(region, tile, BlockAssignment::new(o, 1));
                assert_eq!(c.blocks, tile.elems());
                assert_eq!(c.redundant_elems(tile), 0);
            }
        }
    }

    #[test]
    fn cross_check_grid_of_geometries() {
        // Dense cross-check of the three implementations.
        for (h, w) in [(6u64, 9u64), (13, 7), (16, 16)] {
            let region = Region::new(h, w);
            for (r0, c0, rs, cs) in [
                (0u64, 0u64, h, w),
                (1, 1, h - 2, w - 2),
                (0, w / 2, h, w - w / 2),
                (h / 2, 0, h - h / 2, w / 3 + 1),
            ] {
                let tile = TileRect::new(r0, c0, rs, cs);
                for u in 1..=(h * w + 2) {
                    for o in Orientation::ALL {
                        all_three(region, tile, BlockAssignment::new(o, u));
                    }
                }
            }
        }
    }
}
