//! The premise of the host-provisioned early exit: for a tensor with no
//! producer traffic (`producer_write_sweeps == 0`: weights and a
//! segment's input), `ReaderAligned` is already optimal.
//!
//! Such a tensor pays no producer-side bits. Every reader tile touches
//! at least one AuthBlock, so every strategy pays at least
//! `Σ tiles × tag × sweeps`, which is exactly what `ReaderAligned` pays.
//! So `optimize` must return the `ReaderAligned` total, and no baseline
//! and no point of the exhaustive `sweep` may be cheaper. Checked on
//! random problems and on the weight and segment-input geometry of every
//! zoo network's layers.

use proptest::prelude::*;
// The crate's `Strategy` enum shadows proptest's trait of the same name;
// re-import the trait anonymously so combinator methods resolve.
use proptest::strategy::Strategy as _;

use secureloop_authblock::{
    evaluate_assignment, optimize, sweep, AccessPattern, AssignmentProblem, Orientation, Region,
    Strategy, TileGrid,
};
use secureloop_workload::{zoo, ConvLayer, Dim, Network};

/// Assert the premise on `p`, naming `what` on failure.
fn assert_reader_aligned_is_optimal(p: &AssignmentProblem, what: &str) {
    let total = |s: Strategy| evaluate_assignment(p, s).total().total_bits();
    let aligned = total(Strategy::ReaderAligned);
    assert_eq!(
        optimize(p).overhead.total().total_bits(),
        aligned,
        "{what}: optimize differs from ReaderAligned on {p:?}"
    );
    for baseline in [Strategy::TileAsAuthBlock, Strategy::Rehash] {
        assert!(
            total(baseline) >= aligned,
            "{what}: {baseline:?} is cheaper"
        );
    }
    for orientation in Orientation::ALL {
        for (size, o) in sweep(p, orientation) {
            assert!(
                o.total_bits() >= aligned,
                "{what}: {orientation:?} blocks of {size} are cheaper"
            );
        }
    }
}

/// A reader grid over `region`: plain tiles, or windows overlapping by a
/// halo when `step` is shorter than `tile`.
fn reader(region: Region, tile: (u64, u64), step: (u64, u64), sweeps: u64) -> AccessPattern {
    AccessPattern {
        grid: TileGrid::covering_with_halo(region, tile.0, tile.1, step.0, step.1),
        sweeps,
    }
}

fn random_problem() -> impl proptest::strategy::Strategy<Value = AssignmentProblem> {
    (1u64..24, 1u64..24).prop_flat_map(|(h, w)| {
        let region = Region::new(h, w);
        let reader = move || {
            (1u64..=h, 1u64..=w, 1u64..=h, 1u64..=w, 1u64..4).prop_map(
                move |(tile_h, tile_w, step_h, step_w, sweeps)| {
                    reader(
                        region,
                        (tile_h, tile_w),
                        (step_h.min(tile_h), step_w.min(tile_w)),
                        sweeps,
                    )
                },
            )
        };
        (
            1u64..=h,
            1u64..=w,
            proptest::collection::vec(reader(), 1..3),
            prop_oneof![Just(8u32), Just(16)],
            prop_oneof![Just(32u32), Just(64), Just(128)],
        )
            .prop_map(move |(pt_h, pt_w, readers, word_bits, tag_bits)| {
                AssignmentProblem {
                    region,
                    producer_grid: TileGrid::covering(region, pt_h, pt_w),
                    producer_write_sweeps: 0,
                    readers,
                    word_bits,
                    tag_bits,
                }
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn reader_aligned_is_optimal_on_random_host_provisioned_problems(p in random_problem()) {
        assert_reader_aligned_is_optimal(&p, "random problem");
    }
}

/// A host-provisioned tensor: the whole region is one producer tile.
fn host_provisioned(region: Region, reader: AccessPattern) -> AssignmentProblem {
    AssignmentProblem {
        region,
        producer_grid: TileGrid::covering(region, region.h, region.w),
        producer_write_sweeps: 0,
        readers: vec![reader],
        word_bits: 8,
        tag_bits: 64,
    }
}

/// The layer's weights flattened to `(M, C·R·S)`, read in tiles that
/// split `M` and `C` into `parts` each.
fn weight_problem(layer: &ConvLayer, parts: u64) -> AssignmentProblem {
    let (r, s) = (layer.dim(Dim::R), layer.dim(Dim::S));
    let region = Region::new(layer.dim(Dim::M), layer.dim(Dim::C) * r * s);
    let tile = (
        region.h.div_ceil(parts),
        layer.dim(Dim::C).div_ceil(parts) * r * s,
    );
    host_provisioned(region, reader(region, tile, tile, 2))
}

/// One channel plane of the layer's input, read as convolution windows
/// for an output tiled into `parts × parts` (the channel vector, carved
/// into `parts` tiles, for a fully-connected layer).
fn input_problem(layer: &ConvLayer, parts: u64) -> AssignmentProblem {
    let (p, q) = (layer.dim(Dim::P), layer.dim(Dim::Q));
    if p == 1 && q == 1 {
        let region = Region::new(1, layer.ifmap_channels());
        let tile = (1, region.w.div_ceil(parts));
        return host_provisioned(region, reader(region, tile, tile, 1));
    }
    let region = Region::new(layer.ifmap_height(), layer.ifmap_width());
    let (p_t, q_t) = (p.div_ceil(parts), q.div_ceil(parts));
    let window = |out_t: u64, taps: u64, extent: u64| {
        ((out_t - 1) * layer.stride() + (taps - 1) * layer.dilation() + 1).min(extent)
    };
    let pad = i64::try_from(layer.pad()).expect("pad fits i64");
    let grid = TileGrid {
        n_rows: p.div_ceil(p_t),
        n_cols: q.div_ceil(q_t),
        tile_h: window(p_t, layer.dim(Dim::R), region.h),
        tile_w: window(q_t, layer.dim(Dim::S), region.w),
        step_h: p_t * layer.stride(),
        step_w: q_t * layer.stride(),
        off_h: -pad,
        off_w: -pad,
    };
    host_provisioned(region, AccessPattern { grid, sweeps: 1 })
}

fn zoo_networks() -> Vec<Network> {
    vec![
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
    ]
}

#[test]
fn reader_aligned_is_optimal_on_zoo_weights_and_segment_inputs() {
    let mut checked = 0;
    for net in zoo_networks() {
        for layer in net.layers() {
            for parts in [2, 3] {
                let what = format!("{} {} ({parts} parts)", net.name(), layer.name());
                assert_reader_aligned_is_optimal(&weight_problem(layer, parts), &what);
                assert_reader_aligned_is_optimal(&input_problem(layer, parts), &what);
                checked += 2;
            }
        }
    }
    assert!(checked > 500, "only {checked} zoo cases");
}
