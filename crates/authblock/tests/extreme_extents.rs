//! Overflow-hardening property tests: tile and halo extents near
//! `u32::MAX` (linear indices and block sizes approaching `2^64`) must
//! neither wrap nor panic in the closed-form counter or the
//! linear-congruence machinery underneath it.
//!
//! At this scale the enumeration oracles (`count_blocks_brute`,
//! `count_blocks_rows`) are infeasible — a single tile has ~2^64
//! elements — so the invariants here are closed-form cross-checks:
//! range bounds, unit-block exactness, whole-region degeneracy,
//! row-split subadditivity, orientation-transpose symmetry, and the
//! residue-count partition identities that the gap formula relies on.

use proptest::prelude::*;

use secureloop_authblock::congruence::{count_residues_in, count_residues_le, floor_sum_i128};
use secureloop_authblock::count::count_blocks;
use secureloop_authblock::{BlockAssignment, Orientation, Region, TileRect};

const NEAR: u64 = u32::MAX as u64;

/// Regions and tiles with extents in the top half of the `u32` range,
/// plus a block size drawn across every interesting scale (unit, small,
/// near the row width, near half the region, near the whole region).
fn extreme_geometry() -> impl proptest::strategy::Strategy<Value = (Region, TileRect, u64)> {
    let extent = || prop_oneof![NEAR - 64..=NEAR, (NEAR / 2)..=NEAR];
    (extent(), extent()).prop_flat_map(|(h, w)| {
        let elems = h * w; // < 2^64 for u32-range extents
        (
            Just(Region::new(h, w)),
            (0..h, 0..w).prop_flat_map(move |(r0, c0)| {
                (1..=h - r0, 1..=w - c0)
                    .prop_map(move |(rows, cols)| TileRect::new(r0, c0, rows, cols))
            }),
            prop_oneof![
                Just(1u64),
                2u64..1024,
                (w - 64)..=(w + 64),
                (elems / 2 - 64)..=(elems / 2 + 64),
                (elems - 64)..=elems,
            ],
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn extreme_extents_stay_in_bounds((region, tile, u) in extreme_geometry()) {
        for o in Orientation::ALL {
            let assign = BlockAssignment::new(o, u);
            let c = count_blocks(region, tile, assign);
            prop_assert!(c.blocks >= 1);
            prop_assert!(c.blocks <= assign.blocks_in(region));
            prop_assert!(c.fetched_elems >= tile.elems());
            prop_assert!(c.fetched_elems <= region.elems());
        }
    }

    #[test]
    fn unit_blocks_are_exact_at_scale((region, tile, _u) in extreme_geometry()) {
        for o in Orientation::ALL {
            let c = count_blocks(region, tile, BlockAssignment::new(o, 1));
            prop_assert_eq!(c.blocks, tile.elems());
            prop_assert_eq!(c.fetched_elems, tile.elems());
        }
    }

    #[test]
    fn whole_region_is_one_block((region, tile, _u) in extreme_geometry()) {
        for o in Orientation::ALL {
            let c = count_blocks(region, tile, BlockAssignment::new(o, region.elems()));
            prop_assert_eq!(c.blocks, 1);
            prop_assert_eq!(c.fetched_elems, region.elems());
        }
    }

    #[test]
    fn row_split_is_subadditive((region, tile, u) in extreme_geometry()) {
        // Splitting a tile into top/bottom halves can only split blocks
        // at the seam: union <= sum of parts, union >= each part.
        prop_assume!(tile.rows >= 2);
        let assign = BlockAssignment::new(Orientation::Horizontal, u);
        let top_rows = tile.rows / 2;
        let top = TileRect::new(tile.row0, tile.col0, top_rows, tile.cols);
        let bottom = TileRect::new(
            tile.row0 + top_rows,
            tile.col0,
            tile.rows - top_rows,
            tile.cols,
        );
        let whole = count_blocks(region, tile, assign);
        let a = count_blocks(region, top, assign);
        let b = count_blocks(region, bottom, assign);
        prop_assert!(whole.blocks <= a.blocks + b.blocks);
        prop_assert!(whole.blocks >= a.blocks.max(b.blocks));
    }

    #[test]
    fn orientation_transposes_consistently((region, tile, u) in extreme_geometry()) {
        // Vertical counting on the transposed geometry is by definition
        // horizontal counting on the original.
        let h = count_blocks(region, tile, BlockAssignment::new(Orientation::Horizontal, u));
        let t_region = Region::new(region.w, region.h);
        let t_tile = TileRect::new(tile.col0, tile.row0, tile.cols, tile.rows);
        let v = count_blocks(t_region, t_tile, BlockAssignment::new(Orientation::Vertical, u));
        prop_assert_eq!(h, v);
    }

    #[test]
    fn block_count_monotone_in_size((region, tile, u) in extreme_geometry()) {
        if let Some(u2) = u.checked_mul(2) {
            let c1 = count_blocks(region, tile, BlockAssignment::new(Orientation::Horizontal, u));
            let c2 = count_blocks(region, tile, BlockAssignment::new(Orientation::Horizontal, u2));
            prop_assert!(c2.blocks <= c1.blocks);
        }
    }
}

/// Congruence-layer operands at the scale the counter feeds it for
/// near-`u32::MAX` geometry: moduli up to `2^64`, offsets up to the
/// modulus, progression lengths up to `u32::MAX` rows.
fn residue_operands() -> impl proptest::strategy::Strategy<Value = (u64, u64, u64, u64, u64)> {
    (
        prop_oneof![1u64..=NEAR, NEAR - 16..=NEAR],
        any::<u64>(),
        any::<u64>(),
        prop_oneof![1u64..1024, (u64::MAX / 2)..u64::MAX, NEAR - 16..=NEAR + 16],
    )
        .prop_flat_map(|(n, a, b, m)| (Just(n), Just(a), Just(b), Just(m), 0..m))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn residue_counts_partition((n, a, b, m, t) in residue_operands()) {
        // Every i lands in exactly one of [0, t] and [t+1, m-1].
        let le_t = count_residues_le(n, a, b, m, t);
        prop_assert!(le_t <= n);
        let above = if t < m - 1 {
            count_residues_in(n, a, b, m, t + 1, m - 1)
        } else {
            0
        };
        prop_assert_eq!(le_t + above, n);
        prop_assert_eq!(count_residues_le(n, a, b, m, m - 1), n);
    }

    #[test]
    fn residue_counts_are_monotone((n, a, b, m, t) in residue_operands()) {
        if t > 0 {
            prop_assert!(
                count_residues_le(n, a, b, m, t - 1) <= count_residues_le(n, a, b, m, t)
            );
        }
    }

    #[test]
    fn floor_sum_i128_closed_form(
        n in 0u64..=NEAR,
        m in 1u64..=u64::MAX,
        ka in 0u64..8,
        kb in 0u64..8,
    ) {
        // When m | a and m | b the sum telescopes exactly:
        // sum floor((m*ka*i + m*kb)/m) = ka*n(n-1)/2 + kb*n.
        let (n, m, ka, kb) = (n as i128, m as i128, ka as i128, kb as i128);
        let got = floor_sum_i128(n, m, m * ka, m * kb);
        prop_assert_eq!(got, ka * n * (n - 1) / 2 + kb * n);
    }
}
