//! DRAM-boundary tile statistics consumed by the AuthBlock engine.
//!
//! The AuthBlock optimiser (paper §4.2) needs to know, for each
//! datatype, how the DRAM-resident tensor is carved into tiles and how
//! often each tile is fetched. This module derives that from a mapping:
//!
//! * `tile_dims[d]` — tensor-coordinate extent of one tile along `d`;
//! * `tiles[d]` — how many tiles the tensor is carved into along `d`;
//! * `fetch_events` — total tile-fetch events over the layer's
//!   execution (reads for weight/ifmap, accumulation epochs for the
//!   ofmap);
//! * `distinct` — number of distinct tiles, so
//!   `fetch_events / distinct` is the per-tile sweep count.

use secureloop_arch::Architecture;
use secureloop_workload::{ConvLayer, Datatype, Dim, DimMap};

use crate::footprint::{inner_products, Boundary};
use crate::mapping::Mapping;
use crate::reuse::{collect_loops, reuse_counts};

/// Per-datatype DRAM tiling statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramTileStats {
    /// Extent of one DRAM tile along each dimension.
    pub tile_dims: DimMap<u64>,
    /// Number of tiles along each dimension.
    pub tiles: DimMap<u64>,
    /// Total tile-fetch events (for the ofmap: accumulation epochs —
    /// each ends in a write-back; `epochs − distinct` of them start
    /// with a partial-sum read).
    pub fetch_events: u64,
    /// Number of distinct tiles fetched (product of `tiles[d]` over
    /// the datatype's relevant dims). Divides `fetch_events`.
    pub distinct: u64,
}

impl DramTileStats {
    /// Fetches of each distinct tile (`fetch_events / distinct`).
    pub fn sweeps(&self) -> u64 {
        self.fetch_events / self.distinct
    }
}

/// Compute [`DramTileStats`] for every datatype of a mapping.
///
/// For datatypes that bypass the GLB the "DRAM tile" is the PE-array
/// tile and the fetch events are governed by all temporal loops.
pub fn dram_stats(layer: &ConvLayer, arch: &Architecture, mapping: &Mapping) -> [DramTileStats; 3] {
    let constraints = arch.dataflow().constraints();
    let dram_loops = collect_loops(&[(&mapping.dram_order, &mapping.dram)]);
    let all_loops = collect_loops(&[
        (&mapping.dram_order, &mapping.dram),
        (&mapping.glb_order, &mapping.glb),
    ]);

    let mut out = [DramTileStats {
        tile_dims: DimMap::splat(1),
        tiles: DimMap::splat(1),
        fetch_events: 1,
        distinct: 1,
    }; 3];

    for (i, &dt) in Datatype::ALL.iter().enumerate() {
        let bypass = dt != Datatype::Ofmap && constraints.bypasses_glb(dt);
        let (tile_dims, tiles) = if bypass {
            let inner = inner_products(mapping, Boundary::BelowGlb);
            let mut t = DimMap::splat(1u64);
            for d in Dim::ALL {
                t[d] = mapping.dram[d] * mapping.glb[d];
            }
            (inner, t)
        } else {
            let inner = inner_products(mapping, Boundary::BelowDram);
            let mut t = DimMap::splat(1u64);
            for d in Dim::ALL {
                t[d] = mapping.dram[d];
            }
            (inner, t)
        };
        let loops = if bypass { &all_loops } else { &dram_loops };
        // For the ofmap these are the accumulation epochs and distinct
        // tiles of `ofmap_traffic`; for the others, the fetch count of
        // `fetch_multiplier` and the distinct tiles.
        let counts = reuse_counts(layer, dt, loops);
        out[i] = DramTileStats {
            tile_dims,
            tiles,
            fetch_events: counts.epochs,
            distinct: counts.distinct,
        };
    }
    out
}

/// Index of a datatype within the `[weight, ifmap, ofmap]` arrays.
pub fn dt_index(dt: Datatype) -> usize {
    dt.index()
}

#[cfg(test)]
mod tests {
    use super::*;
    use secureloop_workload::Dim;

    fn fixture() -> (ConvLayer, Architecture, Mapping) {
        let layer = ConvLayer::builder("t")
            .input_hw(58, 58)
            .channels(64, 64)
            .kernel(3, 3)
            .build()
            .unwrap();
        let arch = Architecture::eyeriss_base();
        let mut m = Mapping::untiled(&layer);
        m.rf = DimMap::splat(1);
        m.rf[Dim::S] = 3;
        m.rf[Dim::C] = 4;
        m.spatial_y[Dim::R] = 3;
        m.spatial_x[Dim::Q] = 14;
        m.glb[Dim::M] = 8;
        m.glb[Dim::P] = 8;
        m.dram[Dim::M] = 8;
        m.dram[Dim::C] = 16;
        m.dram[Dim::P] = 7;
        m.dram[Dim::Q] = 4;
        m.validate(&layer, &arch).unwrap();
        (layer, arch, m)
    }

    #[test]
    fn distinct_divides_events() {
        let (layer, arch, m) = fixture();
        for s in dram_stats(&layer, &arch, &m) {
            assert_eq!(s.fetch_events % s.distinct, 0);
            assert!(s.sweeps() >= 1);
        }
    }

    #[test]
    fn ofmap_tiles_cover_tensor() {
        let (layer, arch, m) = fixture();
        let s = dram_stats(&layer, &arch, &m)[dt_index(Datatype::Ofmap)];
        assert_eq!(s.tile_dims[Dim::P] * s.tiles[Dim::P], layer.dim(Dim::P));
        assert_eq!(s.tile_dims[Dim::Q] * s.tiles[Dim::Q], layer.dim(Dim::Q));
        assert_eq!(s.tile_dims[Dim::M] * s.tiles[Dim::M], layer.dim(Dim::M));
        // Distinct ofmap tiles = grid size over relevant dims.
        assert_eq!(
            s.distinct,
            s.tiles[Dim::M] * s.tiles[Dim::P] * s.tiles[Dim::Q]
        );
    }

    #[test]
    fn bypassed_weights_use_pe_tile() {
        let (layer, arch, m) = fixture();
        let s = dram_stats(&layer, &arch, &m)[dt_index(Datatype::Weight)];
        // Weight bypasses GLB in row-stationary: tiles counted over
        // dram x glb factors.
        assert_eq!(s.tiles[Dim::M], 64); // 8 dram * 8 glb
        assert_eq!(s.tile_dims[Dim::M], 1);
    }

    #[test]
    fn events_match_cost_model_traffic() {
        // dram reads of ifmap = events * tile footprint.
        let (layer, arch, m) = fixture();
        let stats = dram_stats(&layer, &arch, &m);
        let eval = crate::evaluate(&layer, &arch, &m).unwrap();
        let s = stats[dt_index(Datatype::Ifmap)];
        let inner = inner_products(&m, Boundary::BelowDram);
        let fp = crate::footprint_words(&layer, Datatype::Ifmap, &inner);
        assert_eq!(eval.counts.dram_read_words[1], s.fetch_events * fp);
        // Ofmap: writes = epochs * fp.
        let so = stats[dt_index(Datatype::Ofmap)];
        let fpo = crate::footprint_words(&layer, Datatype::Ofmap, &inner);
        assert_eq!(eval.counts.dram_write_words[2], so.fetch_events * fpo);
    }
}
