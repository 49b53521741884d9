//! The closed-form counter runs at native width (`i64`) below
//! `NATIVE_BOUND` and at `i128` above it. These properties pin the band
//! where that dispatch flips: regions whose element count straddles the
//! bound, and block sizes on either side of it, must count exactly what
//! the `O(rows)` row-range union counts; and the two floor-sum widths
//! must agree on every operand the native path accepts. Debug builds
//! also check the native path for arithmetic overflow here.

use proptest::prelude::*;

use secureloop_authblock::congruence::{floor_sum_i128, floor_sum_i64, NATIVE_BOUND};
use secureloop_authblock::count::{count_blocks, count_blocks_rows};
use secureloop_authblock::{BlockAssignment, Orientation, Region, TileRect};

/// Largest tile extent: keeps the row-range oracle cheap in either
/// orientation (it walks the tile's rows after the transpose).
const MAX_TILE: u64 = 3000;

/// Regions with `h, w ∈ [2^15, 2^17)`: half of them pick `w` so the
/// element count lands within a few rows of `NATIVE_BOUND`, the rest
/// span `2^30..2^34`. Block sizes cover unit, small, the row width,
/// the bound itself and the whole region.
fn boundary_geometry() -> impl proptest::strategy::Strategy<Value = (Region, TileRect, u64)> {
    (1u64 << 15..1u64 << 17)
        .prop_flat_map(|h| {
            let near = NATIVE_BOUND / h;
            (
                Just(h),
                prop_oneof![near - 2..=near + 2, 1u64 << 15..1u64 << 17],
            )
        })
        .prop_flat_map(|(h, w)| {
            let elems = h * w;
            (
                Just(Region::new(h, w)),
                (0..h, 0..w).prop_flat_map(move |(r0, c0)| {
                    (1..=(h - r0).min(MAX_TILE), 1..=(w - c0).min(MAX_TILE))
                        .prop_map(move |(rows, cols)| TileRect::new(r0, c0, rows, cols))
                }),
                prop_oneof![
                    Just(1u64),
                    2u64..4096,
                    (w - 64)..=(w + 64),
                    (NATIVE_BOUND - 64)..=(NATIVE_BOUND + 64),
                    (elems - 64)..=elems,
                ],
            )
        })
}

/// `0 <= n < 2^31`, `0 < m < 2^31` and `a, b ∈ (-m, m)`: the domain
/// `floor_sum_i64` accepts.
fn native_operands() -> impl proptest::strategy::Strategy<Value = (i64, i64, i64, i64)> {
    (0..NATIVE_BOUND, 1..NATIVE_BOUND).prop_flat_map(|(n, m)| {
        let signed = move |x: u64| x as i64 - (m as i64 - 1);
        (
            Just(n as i64),
            Just(m as i64),
            (0..2 * m - 1).prop_map(signed),
            (0..2 * m - 1).prop_map(signed),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn closed_form_matches_row_ranges_across_the_bound(
        (region, tile, u) in boundary_geometry()
    ) {
        for o in Orientation::ALL {
            let assign = BlockAssignment::new(o, u);
            prop_assert_eq!(
                count_blocks(region, tile, assign),
                count_blocks_rows(region, tile, assign),
                "{:?} {:?} {}", region, tile, assign
            );
        }
    }

    #[test]
    fn floor_sum_widths_agree_under_the_bound(
        (n, m, a, b) in native_operands()
    ) {
        prop_assert_eq!(
            i128::from(floor_sum_i64(n, m, a, b)),
            floor_sum_i128(n.into(), m.into(), a.into(), b.into())
        );
    }
}

#[test]
fn floor_sum_widths_agree_at_the_corners() {
    let top = NATIVE_BOUND as i64 - 1;
    for (n, m) in [(top, top), (top, 1), (1, top), (0, top), (top, 2)] {
        let near_zero = [-(m - 1), -1, 0, 1, m - 1].map(|x| x.clamp(-(m - 1), m - 1));
        for a in near_zero {
            for b in near_zero {
                assert_eq!(
                    i128::from(floor_sum_i64(n, m, a, b)),
                    floor_sum_i128(n.into(), m.into(), a.into(), b.into()),
                    "n={n} m={m} a={a} b={b}"
                );
            }
        }
    }
}

#[test]
fn floor_sum_i64_rejects_operands_outside_its_domain() {
    let bound = NATIVE_BOUND as i64;
    for (n, m, a, b) in [
        (bound, 7, 1, 1),
        (1, bound, 1, 1),
        (1, 0, 0, 0),
        (1, 7, 7, 0),
        (1, 7, 0, -7),
        (1, 7, i64::MIN, 0),
    ] {
        let outcome = std::panic::catch_unwind(|| floor_sum_i64(n, m, a, b));
        assert!(outcome.is_err(), "n={n} m={m} a={a} b={b} was accepted");
    }
}
