//! Dataflow constraint sets.
//!
//! Like Timeloop, SecureLoop models a named dataflow (e.g. Eyeriss's
//! row-stationary, paper §5) as a set of *constraints* on the mapping
//! search: which dimensions may be mapped spatially on each PE-array
//! axis, and which datatypes bypass the global buffer.

use secureloop_workload::{Datatype, Dim};

/// Named dataflows with built-in constraint sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dataflow {
    /// Eyeriss-style row-stationary (paper §5 base configuration):
    /// filter rows `R` are mapped along one PE axis and output rows /
    /// output channels along the other; weights stream past the GLB.
    RowStationary,
    /// Weight-stationary systolic style: `M` and `C` spread spatially,
    /// weights resident in the PEs.
    WeightStationary,
    /// Output-stationary: output pixels spread spatially.
    OutputStationary,
    /// No constraints: the mapper explores every legal assignment.
    Unconstrained,
}

impl Dataflow {
    /// The constraint set for this dataflow.
    pub fn constraints(self) -> DataflowConstraints {
        match self {
            Dataflow::RowStationary => DataflowConstraints {
                spatial_y: &[Dim::R, Dim::C],
                spatial_x: &[Dim::P, Dim::Q, Dim::M],
                glb_bypass: [true, false, false],
            },
            Dataflow::WeightStationary => DataflowConstraints {
                spatial_y: &[Dim::C, Dim::R, Dim::S],
                spatial_x: &[Dim::M],
                glb_bypass: [false, false, false],
            },
            Dataflow::OutputStationary => DataflowConstraints {
                spatial_y: &[Dim::P],
                spatial_x: &[Dim::Q, Dim::M],
                glb_bypass: [false, false, false],
            },
            Dataflow::Unconstrained => DataflowConstraints {
                spatial_y: &Dim::ALL,
                spatial_x: &Dim::ALL,
                glb_bypass: [false, false, false],
            },
        }
    }
}

/// Constraints the mapper must respect for a given dataflow.
///
/// Built from static tables, so it is `Copy` and building it allocates
/// nothing: the mapper's hot loop reads it once per draw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataflowConstraints {
    /// Dimensions that may take a spatial factor along the PE-array Y
    /// axis.
    pub spatial_y: &'static [Dim],
    /// Dimensions that may take a spatial factor along the PE-array X
    /// axis.
    pub spatial_x: &'static [Dim],
    /// Per-datatype GLB bypass, indexed like [`Datatype::ALL`]:
    /// `true` means the datatype streams directly between DRAM and the
    /// PE level without occupying GLB capacity.
    pub glb_bypass: [bool; 3],
}

impl DataflowConstraints {
    /// Whether `dt` bypasses the global buffer.
    pub fn bypasses_glb(&self, dt: Datatype) -> bool {
        self.glb_bypass[dt.index()]
    }

    /// Whether `dim` may be mapped spatially on the Y axis.
    pub fn allows_spatial_y(&self, dim: Dim) -> bool {
        self.spatial_y.contains(&dim)
    }

    /// Whether `dim` may be mapped spatially on the X axis.
    pub fn allows_spatial_x(&self, dim: Dim) -> bool {
        self.spatial_x.contains(&dim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_stationary_maps_filter_rows_on_y() {
        let c = Dataflow::RowStationary.constraints();
        assert!(c.allows_spatial_y(Dim::R));
        assert!(!c.allows_spatial_y(Dim::P));
        assert!(c.allows_spatial_x(Dim::P));
        assert!(c.allows_spatial_x(Dim::M));
        assert!(!c.allows_spatial_x(Dim::S));
    }

    #[test]
    fn row_stationary_streams_weights_past_glb() {
        let c = Dataflow::RowStationary.constraints();
        assert!(c.bypasses_glb(Datatype::Weight));
        assert!(!c.bypasses_glb(Datatype::Ifmap));
        assert!(!c.bypasses_glb(Datatype::Ofmap));
    }

    #[test]
    fn unconstrained_allows_everything() {
        let c = Dataflow::Unconstrained.constraints();
        for d in Dim::ALL {
            assert!(c.allows_spatial_x(d) && c.allows_spatial_y(d));
        }
    }
}
