#![warn(missing_docs)]

//! Trace-driven tile-level simulation.
//!
//! The SecureLoop scheduler is purely analytical (paper §4.1): latency
//! is `max(compute, traffic / effective bandwidth)` under a perfect
//! double-buffering assumption, and traffic comes from a closed-form
//! reuse analysis. This crate *checks* both halves against an actual
//! execution trace:
//!
//! * [`trace`] walks the DRAM-level loop nest of a mapping in program
//!   order and emits every tile-fetch / write-back event. Summing the
//!   trace must reproduce the analytical
//!   [`AccessCounts`](secureloop_loopnest::AccessCounts) *exactly* —
//!   the integration tests assert it.
//! * [`replay`](fn@replay) plays the trace through a double-buffered pipeline
//!   (compute overlapped with DRAM + per-stream crypto engines) and
//!   reports a latency that the analytical bound must match up to
//!   fill/drain effects.
//!
//! # Example
//!
//! ```
//! use secureloop_arch::Architecture;
//! use secureloop_loopnest::Mapping;
//! use secureloop_sim::{generate_trace, replay};
//! use secureloop_workload::ConvLayer;
//!
//! let layer = ConvLayer::builder("l")
//!     .input_hw(4, 4)
//!     .channels(2, 2)
//!     .kernel(3, 3)
//!     .pad(1)
//!     .build()?;
//! let arch = Architecture::eyeriss_base();
//! let mapping = Mapping::untiled(&layer);
//! let trace = generate_trace(&layer, &arch, &mapping)?;
//! let result = replay(&trace, &arch);
//! assert!(result.total_cycles > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod dram;
pub mod replay;
pub mod trace;

pub use dram::{replay_dram, DramSim, DramSimResult, DramTiming};
pub use replay::{replay, replay_detailed, ReplayResult};
pub use trace::{generate_trace, TileEvent, Trace, TraceError};
