#![warn(missing_docs)]

//! Authentication-block (AuthBlock) assignment — SecureLoop's step-2
//! scheduler (paper §3.2, §4.2).
//!
//! Every block of off-chip data carries a cryptographic hash; fetching
//! any element of a block forces fetching the *whole* block plus its
//! hash. When the block lattice is misaligned with the accelerator's
//! tiles — because the producing layer tiled the tensor differently than
//! the consuming layer, or because convolution tiles overlap in *halos* —
//! the accelerator pays:
//!
//! * **hash reads** — one tag per touched block, and
//! * **redundant reads** — elements fetched only because they share a
//!   block with needed data.
//!
//! This crate models the tensor as a 2-D region, AuthBlocks as
//! contiguous runs of `u` elements in row-major ([`Orientation::Horizontal`])
//! or column-major ([`Orientation::Vertical`]) linearisation, aligned to
//! each *producer* tile (hashes are computed as the ofmap streams out,
//! paper §4.2), and provides:
//!
//! * three interchangeable counting back-ends ([`count`]): a brute-force
//!   per-element reference, an `O(tile height)` row-range union, and the
//!   paper's closed-form **linear-congruence** solver built on a
//!   Euclidean floor-sum ([`congruence`]) — `O(log)` per tile;
//! * whole-tensor overhead evaluation over tile grids ([`grid`],
//!   [`optimize::evaluate_assignment`]);
//! * the exhaustive orientation × size search for the optimal
//!   assignment, with `tile-as-an-AuthBlock` and *rehash* as the
//!   baselines it must beat ([`optimize`](fn@optimize)).
//!
//! # Example: the paper's Fig. 8/9 geometry
//!
//! ```
//! use secureloop_authblock::{
//!     count::count_blocks, BlockAssignment, Orientation, Region, TileRect,
//! };
//!
//! // h = 30, w_i = 30 producer region; the consumer tile is 30x20.
//! let region = Region::new(30, 30);
//! let tile = TileRect::new(0, 0, 30, 20);
//! // Vertical AuthBlocks of size 300 = h x (w_i - w_j) divide evenly:
//! let assign = BlockAssignment::new(Orientation::Vertical, 300);
//! let c = count_blocks(region, tile, assign);
//! assert_eq!(c.fetched_elems, 600); // no redundant data
//! assert_eq!(c.blocks, 2);
//! ```

pub mod channel;
pub mod congruence;
pub mod count;
pub mod grid;
pub mod lattice;
pub mod optimize;

pub use channel::{count_channel_blocks, ChannelRequest};
pub use count::BlockCount;
pub use grid::TileGrid;
pub use lattice::{BlockAssignment, Orientation, Region, TileRect};
pub use optimize::{
    evaluate_assignment, optimize, sweep, AccessPattern, AssignmentChoice, AssignmentProblem,
    OverheadBreakdown, SplitOverhead, Strategy,
};
