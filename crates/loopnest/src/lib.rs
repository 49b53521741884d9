#![warn(missing_docs)]

//! The Timeloop-style analytical cost model at the heart of SecureLoop.
//!
//! A [`Mapping`] assigns every convolution dimension a tiling factor at
//! each level of the memory hierarchy (DRAM → GLB → PE-array spatial →
//! register file) plus a loop order for the two temporal levels — exactly
//! the "loopnest" of paper Fig. 1c. [`evaluate`] turns a
//! (layer, architecture, mapping) triple into per-level access counts,
//! latency and energy using the standard analytical reuse model
//! (see `DESIGN.md`, "Modelling decisions"):
//!
//! * A datatype's tile at a level is refetched once per iteration of
//!   every outer temporal loop at or outside its innermost *relevant*
//!   loop; loops inside that point give temporal reuse.
//! * Output tiles additionally pay read-modify-write round trips for
//!   reduction loops (`C`, `R`, `S`) above the level boundary; the first
//!   visit of each distinct tile needs no read.
//! * Spatial loops multicast irrelevant datatypes and spatially reduce
//!   partial sums, which falls out of computing the *footprint* of the
//!   combined spatial+RF tile rather than multiplying bounds.
//!
//! Latency assumes perfectly pipelined levels (paper §4.1):
//! `max(compute cycles, traffic/bandwidth at each level)`, with the
//! off-chip bandwidth replaced by the crypto-limited *effective*
//! bandwidth for secure designs.
//!
//! # Example
//!
//! ```
//! use secureloop_arch::Architecture;
//! use secureloop_loopnest::{evaluate, Mapping};
//! use secureloop_workload::ConvLayer;
//!
//! let layer = ConvLayer::builder("l")
//!     .input_hw(56, 56)
//!     .channels(64, 64)
//!     .kernel(3, 3)
//!     .pad(1)
//!     .build()?;
//! let arch = Architecture::eyeriss_base();
//! let mapping = Mapping::untiled(&layer); // everything in one DRAM tile
//! let eval = evaluate(&layer, &arch, &mapping);
//! // The untiled mapping almost never fits on-chip:
//! assert!(eval.is_err());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod cost;
pub mod footprint;
pub mod key;
pub mod mapping;
pub mod reuse;
pub mod stats;
pub mod text;

pub use cost::{
    evaluate, traffic, AccessCounts, DrawIdentity, EnergyBreakdown, Evaluation, Pricing, Traffic,
};
pub use footprint::{footprint_words, inner_products, Boundary};
pub use key::SearchSpaceKey;
pub use mapping::{Mapping, MappingError};
pub use stats::{dram_stats, dt_index, DramTileStats};
pub use text::{CompactMapping, ParseMappingError};
