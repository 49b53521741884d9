//! The mapping (loopnest) intermediate representation.

use std::fmt;

use secureloop_arch::{Architecture, DataflowConstraints};
use secureloop_workload::{ConvLayer, Datatype, Dim, DimMap};

use crate::footprint::{footprint_words, inner_products, Boundary};

/// A complete schedule of one layer onto the three-level hierarchy
/// (paper Fig. 1c).
///
/// For every dimension, the product of the five factors must equal the
/// layer's loop bound:
/// `dram[d] · glb[d] · spatial_x[d] · spatial_y[d] · rf[d] == bound(d)`.
///
/// `dram_order` and `glb_order` give the temporal loop order at the two
/// outer levels, outermost first. The RF-level loop order is canonical
/// (it does not affect traffic above the PEs in this model).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Mapping {
    /// Temporal tiling factors at the DRAM level (outermost loops).
    pub dram: DimMap<u64>,
    /// Temporal tiling factors at the GLB level.
    pub glb: DimMap<u64>,
    /// Spatial factors across the PE-array X axis.
    pub spatial_x: DimMap<u64>,
    /// Spatial factors across the PE-array Y axis.
    pub spatial_y: DimMap<u64>,
    /// Temporal tiling factors inside one PE (register-file level).
    pub rf: DimMap<u64>,
    /// Loop order at the DRAM level, outermost first.
    pub dram_order: [Dim; 7],
    /// Loop order at the GLB level, outermost first.
    pub glb_order: [Dim; 7],
}

/// Why a mapping is invalid for a given (layer, architecture) pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MappingError {
    /// Factors do not multiply to the layer bound for a dimension.
    FactorMismatch {
        /// Offending dimension.
        dim: Dim,
        /// Product of the mapping's factors.
        product: u64,
        /// The layer's loop bound.
        bound: u64,
    },
    /// The spatial factors exceed the PE array extent on an axis.
    SpatialOverflow {
        /// `'x'` or `'y'`.
        axis: char,
        /// Product of spatial factors on that axis.
        used: u64,
        /// PEs available on that axis.
        available: u64,
    },
    /// A dimension is mapped spatially but the dataflow forbids it.
    DataflowViolation {
        /// Offending dimension.
        dim: Dim,
        /// `'x'` or `'y'`.
        axis: char,
    },
    /// A tile does not fit in a buffer.
    CapacityExceeded {
        /// `"RF"` or `"GLB"`.
        level: &'static str,
        /// Bytes required.
        needed: u64,
        /// Bytes available.
        available: u64,
    },
    /// A loop-order array is not a permutation of the seven dimensions.
    BadPermutation,
}

impl fmt::Display for MappingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MappingError::FactorMismatch {
                dim,
                product,
                bound,
            } => write!(
                f,
                "factors for {dim} multiply to {product}, layer bound is {bound}"
            ),
            MappingError::SpatialOverflow {
                axis,
                used,
                available,
            } => {
                write!(
                    f,
                    "spatial-{axis} uses {used} PEs, only {available} available"
                )
            }
            MappingError::DataflowViolation { dim, axis } => {
                write!(f, "dataflow forbids mapping {dim} on spatial-{axis}")
            }
            MappingError::CapacityExceeded {
                level,
                needed,
                available,
            } => {
                write!(f, "{level} needs {needed} B, capacity {available} B")
            }
            MappingError::BadPermutation => f.write_str("loop order is not a permutation"),
        }
    }
}

impl std::error::Error for MappingError {}

/// The canonical loop order `N M C P Q R S` (outermost first).
pub const CANONICAL_ORDER: [Dim; 7] = [Dim::N, Dim::M, Dim::C, Dim::P, Dim::Q, Dim::R, Dim::S];

impl Mapping {
    /// The degenerate mapping holding the entire layer in one on-chip
    /// tile (factors of 1 at DRAM/GLB/spatial, full bounds at RF). Valid
    /// only for tiny layers; useful as a test fixture.
    pub fn untiled(layer: &ConvLayer) -> Self {
        Mapping {
            dram: DimMap::splat(1),
            glb: DimMap::splat(1),
            spatial_x: DimMap::splat(1),
            spatial_y: DimMap::splat(1),
            rf: layer.bounds(),
            dram_order: CANONICAL_ORDER,
            glb_order: CANONICAL_ORDER,
        }
    }

    /// Product of the five factors for dimension `d`.
    pub fn total_factor(&self, d: Dim) -> u64 {
        self.dram[d] * self.glb[d] * self.spatial_x[d] * self.spatial_y[d] * self.rf[d]
    }

    /// Number of PEs used along X.
    pub fn spatial_x_extent(&self) -> u64 {
        self.spatial_x.product()
    }

    /// Number of PEs used along Y.
    pub fn spatial_y_extent(&self) -> u64 {
        self.spatial_y.product()
    }

    /// Total PEs active under this mapping.
    pub fn pes_used(&self) -> u64 {
        self.spatial_x_extent() * self.spatial_y_extent()
    }

    /// Total temporal iterations (compute cycles assuming one MAC per PE
    /// per cycle).
    pub fn temporal_iterations(&self) -> u64 {
        Dim::ALL
            .iter()
            .map(|&d| self.dram[d] * self.glb[d] * self.rf[d])
            .product()
    }

    /// Validate this mapping against a layer and an architecture.
    ///
    /// # Errors
    ///
    /// Returns the first [`MappingError`] found; see its variants for
    /// the full list of checks (factorisation, permutations, spatial
    /// fit, dataflow legality, RF and GLB capacity).
    pub fn validate(&self, layer: &ConvLayer, arch: &Architecture) -> Result<(), MappingError> {
        let glb = self.check_draw(layer, arch, &arch.dataflow().constraints())?;
        check_glb(glb.bytes_needed, arch)
    }

    /// Every check of [`Mapping::validate`] but the last one, the GLB
    /// capacity. These read only the layer and the architecture's
    /// [`DrawIdentity`](crate::DrawIdentity), so they pass or fail alike
    /// on every design that shares it. Returns the GLB tile it sized on
    /// the way, for [`traffic`](crate::traffic) to reuse.
    pub(crate) fn check_draw(
        &self,
        layer: &ConvLayer,
        arch: &Architecture,
        constraints: &DataflowConstraints,
    ) -> Result<GlbTile, MappingError> {
        for d in Dim::ALL {
            let product = self.total_factor(d);
            if product != layer.dim(d) {
                return Err(MappingError::FactorMismatch {
                    dim: d,
                    product,
                    bound: layer.dim(d),
                });
            }
        }
        // Seven entries cover all seven dims iff none repeats.
        for order in [&self.dram_order, &self.glb_order] {
            if order.iter().fold(0u8, |seen, d| seen | 1 << d.index()) != 0x7f {
                return Err(MappingError::BadPermutation);
            }
        }
        let (x_used, y_used) = (self.spatial_x_extent(), self.spatial_y_extent());
        if x_used > arch.pe_x() as u64 {
            return Err(MappingError::SpatialOverflow {
                axis: 'x',
                used: x_used,
                available: arch.pe_x() as u64,
            });
        }
        if y_used > arch.pe_y() as u64 {
            return Err(MappingError::SpatialOverflow {
                axis: 'y',
                used: y_used,
                available: arch.pe_y() as u64,
            });
        }
        for d in Dim::ALL {
            if self.spatial_x[d] > 1 && !constraints.allows_spatial_x(d) {
                return Err(MappingError::DataflowViolation { dim: d, axis: 'x' });
            }
            if self.spatial_y[d] > 1 && !constraints.allows_spatial_y(d) {
                return Err(MappingError::DataflowViolation { dim: d, axis: 'y' });
            }
        }

        // RF capacity: one PE holds its private tile of all datatypes.
        // Capacities are charged at 2x for double-buffering: the paper
        // (§4.1) assumes levels are pipelined, which needs the next
        // tile's buffer while the current one is consumed.
        let word_bytes = u64::from(layer.word_bits()).div_ceil(8);
        let rf_inner = inner_products(self, Boundary::BelowSpatial);
        if let Some(partition) = arch.rf_partition() {
            // Eyeriss-style separate scratchpads: each datatype's
            // double-buffered tile must fit its own spad.
            for (i, &dt) in Datatype::ALL.iter().enumerate() {
                let needed = 2 * footprint_words(layer, dt, &rf_inner) * word_bytes;
                if needed > partition[i] {
                    return Err(MappingError::CapacityExceeded {
                        level: "RF",
                        needed,
                        available: partition[i],
                    });
                }
            }
        } else {
            let rf_words: u64 = Datatype::ALL
                .iter()
                .map(|&dt| footprint_words(layer, dt, &rf_inner))
                .sum();
            let rf_needed = 2 * rf_words * word_bytes;
            if rf_needed > arch.rf_bytes_per_pe() {
                return Err(MappingError::CapacityExceeded {
                    level: "RF",
                    needed: rf_needed,
                    available: arch.rf_bytes_per_pe(),
                });
            }
        }

        // GLB footprint: tiles of all datatypes that do not bypass.
        let glb_inner = inner_products(self, Boundary::BelowDram);
        let words = Datatype::ALL.map(|dt| footprint_words(layer, dt, &glb_inner));
        let glb_words: u64 = Datatype::ALL
            .iter()
            .filter(|&&dt| !constraints.bypasses_glb(dt))
            .map(|&dt| words[dt.index()])
            .sum();
        Ok(GlbTile {
            words,
            bytes_needed: 2 * glb_words * word_bytes,
        })
    }
}

/// The footprints of a mapping's GLB-resident tile, as
/// [`Mapping::check_draw`] sizes it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GlbTile {
    /// Footprint in words per datatype, indexed like [`Datatype::ALL`],
    /// bypassing datatypes included.
    pub(crate) words: [u64; 3],
    /// Bytes the double-buffered tiles of the non-bypassing datatypes
    /// need.
    pub(crate) bytes_needed: u64,
}

/// The GLB capacity check of [`Mapping::validate`], given the bytes
/// [`Mapping::check_draw`] found the tiles need.
pub(crate) fn check_glb(needed: u64, arch: &Architecture) -> Result<(), MappingError> {
    if needed > arch.glb_bytes() {
        return Err(MappingError::CapacityExceeded {
            level: "GLB",
            needed,
            available: arch.glb_bytes(),
        });
    }
    Ok(())
}

impl fmt::Display for Mapping {
    /// Pretty-print in the nested-loop style of paper Fig. 1c.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut indent = 0;
        let emit = |f: &mut fmt::Formatter<'_>,
                    label: &str,
                    dims: &[(Dim, u64)],
                    indent: &mut usize|
         -> fmt::Result {
            writeln!(f, "{:indent$}// {label}", "", indent = *indent)?;
            for (d, b) in dims {
                if *b > 1 {
                    writeln!(
                        f,
                        "{:indent$}for {l} in [0:{b})",
                        "",
                        indent = *indent,
                        l = d.letter().to_ascii_lowercase()
                    )?;
                    *indent += 2;
                }
            }
            Ok(())
        };
        let dram: Vec<_> = self.dram_order.iter().map(|&d| (d, self.dram[d])).collect();
        emit(f, "DRAM", &dram, &mut indent)?;
        let glb: Vec<_> = self.glb_order.iter().map(|&d| (d, self.glb[d])).collect();
        emit(f, "GLB", &glb, &mut indent)?;
        let spat: Vec<_> = Dim::ALL
            .iter()
            .map(|&d| (d, self.spatial_x[d] * self.spatial_y[d]))
            .collect();
        emit(f, "spatial (PE array)", &spat, &mut indent)?;
        let rf: Vec<_> = Dim::ALL.iter().map(|&d| (d, self.rf[d])).collect();
        emit(f, "RF", &rf, &mut indent)?;
        writeln!(f, "{:indent$}mac(w, i, o)", "", indent = indent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use secureloop_arch::Architecture;

    fn small_layer() -> ConvLayer {
        ConvLayer::builder("t")
            .input_hw(10, 10)
            .channels(4, 8)
            .kernel(3, 3)
            .build()
            .unwrap()
    }

    #[test]
    fn untiled_products_match_bounds() {
        let l = small_layer();
        let m = Mapping::untiled(&l);
        for d in Dim::ALL {
            assert_eq!(m.total_factor(d), l.dim(d));
        }
        assert_eq!(m.pes_used(), 1);
        assert_eq!(m.temporal_iterations(), l.macs());
    }

    #[test]
    fn factor_mismatch_detected() {
        let l = small_layer();
        let mut m = Mapping::untiled(&l);
        m.rf[Dim::M] = 4; // product now 4 != 8
        let err = m.validate(&l, &Architecture::eyeriss_base()).unwrap_err();
        assert!(matches!(
            err,
            MappingError::FactorMismatch { dim: Dim::M, .. }
        ));
    }

    #[test]
    fn spatial_overflow_detected() {
        let l = small_layer();
        let mut m = Mapping::untiled(&l);
        m.rf[Dim::P] = 1;
        m.spatial_x[Dim::P] = 8; // 8 <= 14, fine
        assert!(!matches!(
            m.validate(&l, &Architecture::eyeriss_base()),
            Err(MappingError::SpatialOverflow { .. })
        ));
        let arch_tiny = Architecture::eyeriss_base().with_pe_array(4, 4);
        let err = m.validate(&l, &arch_tiny).unwrap_err();
        assert!(matches!(
            err,
            MappingError::SpatialOverflow { axis: 'x', .. }
        ));
    }

    #[test]
    fn dataflow_violation_detected() {
        let l = small_layer();
        let mut m = Mapping::untiled(&l);
        // Row-stationary forbids S on the Y axis.
        m.rf[Dim::S] = 1;
        m.spatial_y[Dim::S] = 3;
        let err = m.validate(&l, &Architecture::eyeriss_base()).unwrap_err();
        assert!(matches!(
            err,
            MappingError::DataflowViolation {
                dim: Dim::S,
                axis: 'y'
            }
        ));
    }

    #[test]
    fn rf_capacity_detected() {
        let l = ConvLayer::builder("big")
            .input_hw(64, 64)
            .channels(64, 64)
            .kernel(3, 3)
            .pad(1)
            .build()
            .unwrap();
        let m = Mapping::untiled(&l);
        let err = m.validate(&l, &Architecture::eyeriss_base()).unwrap_err();
        assert!(matches!(
            err,
            MappingError::CapacityExceeded { level: "RF", .. }
        ));
    }

    #[test]
    fn partitioned_rf_is_stricter_per_datatype() {
        // A mapping whose ifmap tile exceeds the small ifmap spad but
        // fits the unified 512 B file.
        let l = ConvLayer::builder("t")
            .input_hw(14, 14)
            .channels(4, 8)
            .kernel(3, 3)
            .build()
            .unwrap();
        let mut m = Mapping::untiled(&l);
        // RF tile: ifmap 4ch x 6x6 window = 144 words (288 B double
        // buffered); weights stay at one filter row set.
        m.rf = secureloop_workload::DimMap::splat(1);
        m.rf[Dim::P] = 4;
        m.rf[Dim::Q] = 4;
        m.rf[Dim::R] = 3;
        m.rf[Dim::S] = 3;
        m.rf[Dim::C] = 4;
        m.dram[Dim::M] = 8;
        m.glb[Dim::P] = 3;
        m.glb[Dim::Q] = 3;
        let unified = Architecture::eyeriss_base();
        m.validate(&l, &unified)
            .expect("fits the unified 512 B file");
        let partitioned = Architecture::eyeriss_partitioned();
        let err = m.validate(&l, &partitioned).unwrap_err();
        assert!(
            matches!(err, MappingError::CapacityExceeded { level: "RF", .. }),
            "ifmap tile (288 B double-buffered) must overflow the 48 B spad: {err}"
        );
    }

    #[test]
    fn bad_permutation_detected() {
        let l = small_layer();
        let mut m = Mapping::untiled(&l);
        m.dram_order[0] = Dim::S; // duplicates S
        let err = m.validate(&l, &Architecture::eyeriss_base()).unwrap_err();
        assert_eq!(err, MappingError::BadPermutation);
    }

    #[test]
    fn display_produces_loopnest() {
        let l = small_layer();
        let m = Mapping::untiled(&l);
        let s = m.to_string();
        assert!(s.contains("for m in [0:8)"));
        assert!(s.contains("mac(w, i, o)"));
    }

    #[test]
    fn error_messages_are_informative() {
        let e = MappingError::CapacityExceeded {
            level: "GLB",
            needed: 100,
            available: 50,
        };
        assert!(e.to_string().contains("GLB"));
    }
}
