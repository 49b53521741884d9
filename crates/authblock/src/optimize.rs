//! AuthBlock assignment strategies and the exhaustive
//! orientation × size optimiser (paper §4.2).

use secureloop_telemetry::{self as telemetry, Counter};

use crate::count::{count_blocks_uncounted, CONGRUENCE_CALLS};
use crate::grid::TileGrid;
use crate::lattice::{BlockAssignment, Orientation, Region, TileRect};

static OPTIMIZE_RUNS: Counter = Counter::new("authblock.optimize_runs");
static CANDIDATES_CONSIDERED: Counter = Counter::new("authblock.candidates_considered");
static CHOSEN_REDUNDANT_BITS: Counter = Counter::new("authblock.chosen_redundant_bits");

fn strategy_name(s: Strategy) -> &'static str {
    match s {
        Strategy::TileAsAuthBlock => "tile_as_authblock",
        Strategy::Assigned(_) => "assigned",
        Strategy::Rehash => "rehash",
        Strategy::ReaderAligned => "reader_aligned",
    }
}

/// The additional off-chip traffic caused by memory authentication,
/// broken down as in paper Fig. 11(b).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct OverheadBreakdown {
    /// Hash (tag) traffic in bits — tags written when blocks are hashed
    /// and read back for every verification.
    pub hash_bits: u64,
    /// Redundant data reads in bits: elements fetched only for
    /// integrity verification.
    pub redundant_bits: u64,
    /// Rehashing traffic in bits (full re-read + re-write of the
    /// tensor), zero unless the [`Strategy::Rehash`] fallback is used.
    pub rehash_bits: u64,
}

impl OverheadBreakdown {
    /// Total additional off-chip bits.
    pub fn total_bits(&self) -> u64 {
        self.hash_bits + self.redundant_bits + self.rehash_bits
    }

    /// Component-wise sum.
    pub fn add(&mut self, other: &OverheadBreakdown) {
        self.hash_bits += other.hash_bits;
        self.redundant_bits += other.redundant_bits;
        self.rehash_bits += other.rehash_bits;
    }

    /// Component-wise scale (e.g. by the number of channel planes).
    pub fn scaled(&self, factor: u64) -> OverheadBreakdown {
        OverheadBreakdown {
            hash_bits: self.hash_bits * factor,
            redundant_bits: self.redundant_bits * factor,
            rehash_bits: self.rehash_bits * factor,
        }
    }
}

/// Overhead attributed to the producing layer vs the consuming layer
/// of the tensor — the scheduler charges each side's traffic to the
/// layer during whose execution it occurs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SplitOverhead {
    /// Traffic during the producer's execution: hash writes for every
    /// write sweep (including partial-sum epochs and their hash
    /// re-reads).
    pub producer: OverheadBreakdown,
    /// Traffic during the consumer's execution: hash reads, redundant
    /// reads and (if rehashing) the rehash pass.
    pub consumer: OverheadBreakdown,
}

impl SplitOverhead {
    /// Combined overhead.
    pub fn total(&self) -> OverheadBreakdown {
        let mut t = self.producer;
        t.add(&self.consumer);
        t
    }
}

/// One reader of the tensor: a tile grid swept `sweeps` times
/// (the refetch multiplier the loopnest analysis computed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AccessPattern {
    /// The reader's tile grid (possibly overlapping — halos).
    pub grid: TileGrid,
    /// How many times the whole grid is fetched.
    pub sweeps: u64,
}

/// A tensor with one producer tiling and any number of readers.
///
/// AuthBlocks are aligned per producer tile: hashes are computed as the
/// producer streams the data out, so a block never spans two producer
/// tiles (paper §4.2, "assign horizontal AuthBlocks to fully cover
/// tile_i").
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AssignmentProblem {
    /// One channel plane of the tensor (callers multiply plane counts).
    pub region: Region,
    /// The producer's (non-overlapping) tile grid.
    pub producer_grid: TileGrid,
    /// Tag-traffic sweeps on the producer side: write epochs plus
    /// partial-sum re-read epochs (each moves every block's tag once).
    /// Zero for tensors written outside the measured execution (weights
    /// and segment-boundary inputs, whose provisioning is TEE-entry
    /// cost, paper §5.2).
    pub producer_write_sweeps: u64,
    /// The readers (consumer side).
    pub readers: Vec<AccessPattern>,
    /// Data word size in bits.
    pub word_bits: u32,
    /// Truncated tag size in bits (the paper's evaluation corresponds to
    /// 64-bit tags).
    pub tag_bits: u32,
}

/// An AuthBlock strategy for one tensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Prior work's baseline [18, 19]: each producer tile is one
    /// AuthBlock.
    TileAsAuthBlock,
    /// A uniform orientation × size lattice aligned per producer tile
    /// (the paper's search space).
    Assigned(BlockAssignment),
    /// Give up on a unified assignment: re-read, re-hash and re-write
    /// the whole tensor between producer and consumer (paper §3.2.1).
    /// After rehashing, each *reader* tile is its own AuthBlock.
    Rehash,
    /// Each *reader* tile is its own AuthBlock, provisioned that way
    /// from the start. Only available for tensors written outside the
    /// measured execution (`producer_write_sweeps == 0`: weights and
    /// segment-boundary inputs) — overlapping reader tiles (halos) are
    /// duplicated at provisioning time, which costs off-chip *storage*
    /// but no runtime traffic. This is prior work's
    /// "tile-as-an-AuthBlock" for host-provisioned data [18, 19].
    ReaderAligned,
}

/// The optimiser's verdict for one tensor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AssignmentChoice {
    /// Chosen strategy.
    pub strategy: Strategy,
    /// Its overhead, split by side.
    pub overhead: SplitOverhead,
}

fn producer_tiles(problem: &AssignmentProblem) -> Vec<TileRect> {
    problem.producer_grid.tiles(problem.region).collect()
}

/// Count blocks/fetched for `reader_tile` against per-producer-tile
/// lattices with assignment `assign` (`None` = tile-as-AuthBlock),
/// adding the closed-form counts it runs to `calls`.
fn reader_tile_cost(
    producers: &[TileRect],
    reader_tile: TileRect,
    assign: Option<BlockAssignment>,
    calls: &mut u64,
) -> (u64, u64) {
    let mut blocks = 0u64;
    let mut fetched = 0u64;
    for p in producers {
        let Some(sub) = reader_tile.intersect(p) else {
            continue;
        };
        match assign {
            None => {
                // Tile-as-AuthBlock: the whole producer tile is one block.
                blocks += 1;
                fetched += p.elems();
            }
            Some(a) => {
                // Lattice local to the producer tile.
                let local_region = Region::new(p.rows, p.cols);
                let local_tile =
                    TileRect::new(sub.row0 - p.row0, sub.col0 - p.col0, sub.rows, sub.cols);
                let c = count_blocks_uncounted(local_region, local_tile, a);
                *calls += 1;
                blocks += c.blocks;
                fetched += c.fetched_elems;
            }
        }
    }
    (blocks, fetched)
}

/// Evaluate the overhead of `strategy` on `problem`, split into the
/// producer-side and consumer-side shares.
pub fn evaluate_assignment(problem: &AssignmentProblem, strategy: Strategy) -> SplitOverhead {
    let word = u64::from(problem.word_bits);
    let tag = u64::from(problem.tag_bits);
    let producers = producer_tiles(problem);
    let mut out = SplitOverhead::default();

    match strategy {
        Strategy::TileAsAuthBlock | Strategy::Assigned(_) => {
            let assign = match strategy {
                Strategy::Assigned(a) => Some(a),
                _ => None,
            };
            // Producer-side hash traffic: one tag per block per
            // write/psum sweep.
            let producer_blocks: u64 = producers
                .iter()
                .map(|p| match assign {
                    None => 1,
                    Some(a) => a.blocks_in(Region::new(p.rows, p.cols)),
                })
                .sum();
            out.producer.hash_bits += producer_blocks * tag * problem.producer_write_sweeps;

            // Closed-form counts, added to the counter once per
            // evaluation rather than once per tile.
            let mut calls = 0u64;
            for reader in &problem.readers {
                for t in reader.grid.tiles(problem.region) {
                    let (blocks, fetched) = reader_tile_cost(&producers, t, assign, &mut calls);
                    out.consumer.hash_bits += blocks * tag * reader.sweeps;
                    out.consumer.redundant_bits += (fetched - t.elems()) * word * reader.sweeps;
                }
            }
            if calls > 0 {
                CONGRUENCE_CALLS.add(calls);
            }
        }
        Strategy::ReaderAligned => {
            assert_eq!(
                problem.producer_write_sweeps, 0,
                "ReaderAligned requires an offline-provisioned tensor"
            );
            for reader in &problem.readers {
                let tiles = reader.grid.tiles(problem.region).count() as u64;
                out.consumer.hash_bits += tiles * tag * reader.sweeps;
            }
        }
        Strategy::Rehash => {
            // Producer writes with tile-as-AuthBlock on its own grid.
            out.producer.hash_bits += producers.len() as u64 * tag * problem.producer_write_sweeps;
            // Rehash pass: read everything back (with its hashes), then
            // write it out re-blocked per reader tile. Overlapping
            // reader tiles duplicate their halo data on the rewrite.
            let region_bits = problem.region.elems() * word;
            out.consumer.rehash_bits += region_bits + producers.len() as u64 * tag;
            for reader in &problem.readers {
                let rewrite_elems: u64 = reader.grid.tiles(problem.region).map(|t| t.elems()).sum();
                let tiles = reader.grid.tiles(problem.region).count() as u64;
                out.consumer.rehash_bits += rewrite_elems * word + tiles * tag;
                // Subsequent reads are perfectly aligned: hash only.
                out.consumer.hash_bits += tiles * tag * reader.sweeps;
            }
        }
    }
    out
}

/// Candidate block sizes for the exhaustive sweep: every size up to 64,
/// a linear ladder beyond, plus geometry-derived sizes (divisors and
/// small multiples of tile widths/steps and the `h × (wᵢ − wⱼ)` family
/// where the paper's Fig. 9 finds its optima), capped at `cap`.
fn candidate_sizes(problem: &AssignmentProblem, cap: u64) -> Vec<u64> {
    let mut cands: Vec<u64> = (1..=64.min(cap)).collect();
    let mut v = 128u64;
    while v <= cap {
        cands.push(v);
        v += 64;
    }
    let mut geometry = vec![
        problem.region.w,
        problem.region.h,
        problem.producer_grid.tile_w,
        problem.producer_grid.tile_h,
        problem.producer_grid.tile_w * problem.producer_grid.tile_h,
    ];
    for r in &problem.readers {
        geometry.push(r.grid.tile_w);
        geometry.push(r.grid.tile_h);
        geometry.push(r.grid.step_w);
        geometry.push(r.grid.step_h);
        if problem.producer_grid.tile_w > r.grid.tile_w {
            geometry.push(problem.region.h * (problem.producer_grid.tile_w - r.grid.tile_w));
        }
        if r.grid.tile_w > r.grid.step_w {
            geometry.push(r.grid.tile_w - r.grid.step_w);
        }
    }
    for g in geometry {
        if g == 0 {
            continue;
        }
        for mult in 1..=4u64 {
            let s = g * mult;
            if s > 0 && s <= cap {
                cands.push(s);
            }
        }
        // Divisors of the geometry value capture alignment sweet spots.
        let mut d = 1;
        while d * d <= g {
            if g % d == 0 {
                if d <= cap {
                    cands.push(d);
                }
                if g / d <= cap {
                    cands.push(g / d);
                }
            }
            d += 1;
        }
    }
    cands.sort_unstable();
    cands.dedup();
    cands
}

/// Evaluate every candidate size of one orientation and return the
/// `(size, overhead)` curve — the API behind Fig. 9-style analyses for
/// arbitrary tensors. The candidate set matches [`optimize`]'s.
pub fn sweep(
    problem: &AssignmentProblem,
    orientation: Orientation,
) -> Vec<(u64, OverheadBreakdown)> {
    let cap = (problem.producer_grid.tile_h * problem.producer_grid.tile_w).min(4096);
    candidate_sizes(problem, cap)
        .into_iter()
        .map(|size| {
            let o = evaluate_assignment(
                problem,
                Strategy::Assigned(BlockAssignment::new(orientation, size)),
            );
            (size, o.total())
        })
        .collect()
}

/// How many `count_blocks` evaluations `optimize` may spend per tensor.
/// Large reader grids thin the candidate list to stay within budget
/// (geometry-derived candidates are kept).
const OPTIMIZE_BUDGET: u64 = 200_000;

/// Exhaustively search orientations × candidate sizes, compare against
/// the tile-as-AuthBlock and rehash baselines, and return the strategy
/// with the least total additional off-chip traffic.
pub fn optimize(problem: &AssignmentProblem) -> AssignmentChoice {
    OPTIMIZE_RUNS.incr();
    let mut span = telemetry::span_with("authblock", || {
        format!("{}x{}", problem.region.h, problem.region.w)
    });
    // Strategies evaluated this run, flushed to the global counter once.
    let mut considered = 2u64; // tile-as-AuthBlock + rehash baselines

    let cap = (problem.producer_grid.tile_h * problem.producer_grid.tile_w).min(4096);
    let mut best = AssignmentChoice {
        strategy: Strategy::TileAsAuthBlock,
        overhead: evaluate_assignment(problem, Strategy::TileAsAuthBlock),
    };
    let rehash = evaluate_assignment(problem, Strategy::Rehash);
    if rehash.total().total_bits() < best.overhead.total().total_bits() {
        best = AssignmentChoice {
            strategy: Strategy::Rehash,
            overhead: rehash,
        };
    }
    if problem.producer_write_sweeps == 0 {
        considered += 1;
        let aligned = evaluate_assignment(problem, Strategy::ReaderAligned);
        if aligned.total().total_bits() < best.overhead.total().total_bits() {
            best = AssignmentChoice {
                strategy: Strategy::ReaderAligned,
                overhead: aligned,
            };
        }
    }

    let mut cands = candidate_sizes(problem, cap);
    let tiles_per_eval: u64 = problem
        .readers
        .iter()
        .map(|r| r.grid.len())
        .sum::<u64>()
        .max(1)
        + problem.producer_grid.len();
    let max_cands = (OPTIMIZE_BUDGET / (2 * tiles_per_eval)).max(16) as usize;
    if cands.len() > max_cands {
        // Keep every k-th candidate; alignment sweet spots from the
        // geometry set remain dense at the small end where they matter.
        let stride = cands.len().div_ceil(max_cands);
        cands = cands.into_iter().step_by(stride).collect();
    }

    for orientation in Orientation::ALL {
        considered += cands.len() as u64;
        for &size in &cands {
            let a = BlockAssignment::new(orientation, size);
            let o = evaluate_assignment(problem, Strategy::Assigned(a));
            if o.total().total_bits() < best.overhead.total().total_bits() {
                best = AssignmentChoice {
                    strategy: Strategy::Assigned(a),
                    overhead: o,
                };
            }
        }
    }

    CANDIDATES_CONSIDERED.add(considered);
    CHOSEN_REDUNDANT_BITS.add(best.overhead.total().redundant_bits);
    span.add_field("strategy", strategy_name(best.strategy));
    span.add_field("candidates", considered);
    span.add_field("redundant_bits", best.overhead.total().redundant_bits);
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn total(o: SplitOverhead) -> u64 {
        o.total().total_bits()
    }

    /// The paper's Fig. 8/9 setup: producer writes one 30x30 tile, a
    /// consumer reads 30x20 tiles stepping 20 (second tile clipped to
    /// 30x10 — the misaligned read).
    fn fig9_problem() -> AssignmentProblem {
        let region = Region::new(30, 30);
        AssignmentProblem {
            region,
            producer_grid: TileGrid::covering(region, 30, 30),
            producer_write_sweeps: 1,
            readers: vec![AccessPattern {
                grid: TileGrid::covering(region, 30, 20),
                sweeps: 1,
            }],
            word_bits: 8,
            tag_bits: 64,
        }
    }

    #[test]
    fn optimal_beats_tile_as_authblock() {
        let p = fig9_problem();
        let tile = evaluate_assignment(&p, Strategy::TileAsAuthBlock);
        let best = optimize(&p);
        assert!(total(best.overhead) <= total(tile));
        // The misaligned reader makes tile-as-AuthBlock fetch the whole
        // region for the 10-wide second tile: large redundancy.
        assert!(tile.consumer.redundant_bits > 0);
    }

    #[test]
    fn fig9_vertical_300_eliminates_redundancy() {
        let p = fig9_problem();
        let o = evaluate_assignment(
            &p,
            Strategy::Assigned(BlockAssignment::new(Orientation::Vertical, 300)),
        );
        // Reader tiles at columns 0 (30x20) and 20 (30x10): vertical
        // blocks of 300 = 30x10 columns align with both boundaries.
        assert_eq!(o.consumer.redundant_bits, 0);
        assert_eq!(o.consumer.rehash_bits, 0);
        // 3 blocks in the region: written once + read across tiles.
        assert!(o.total().hash_bits >= 3 * 64);
    }

    #[test]
    fn hash_traffic_shrinks_with_block_size() {
        let p = fig9_problem();
        let small = evaluate_assignment(
            &p,
            Strategy::Assigned(BlockAssignment::new(Orientation::Horizontal, 1)),
        );
        let large = evaluate_assignment(
            &p,
            Strategy::Assigned(BlockAssignment::new(Orientation::Horizontal, 30)),
        );
        assert!(small.total().hash_bits > large.total().hash_bits);
        assert_eq!(small.consumer.redundant_bits, 0); // size-1 never overfetches
    }

    #[test]
    fn sweeps_scale_reader_overhead() {
        let mut p = fig9_problem();
        let once = evaluate_assignment(&p, Strategy::TileAsAuthBlock);
        p.readers[0].sweeps = 3;
        let thrice = evaluate_assignment(&p, Strategy::TileAsAuthBlock);
        assert_eq!(
            thrice.consumer.redundant_bits,
            3 * once.consumer.redundant_bits
        );
        // Producer side is unaffected by reader sweeps.
        assert_eq!(thrice.producer, once.producer);
    }

    #[test]
    fn rehash_pays_two_full_passes_on_consumer_side() {
        let p = fig9_problem();
        let r = evaluate_assignment(&p, Strategy::Rehash);
        // Read 900 + rewrite 900 elements at 8 bits: at least 14400 bits.
        assert!(r.consumer.rehash_bits >= 2 * 900 * 8);
        assert_eq!(r.consumer.redundant_bits, 0);
        assert_eq!(r.producer.rehash_bits, 0);
    }

    #[test]
    fn psum_sweeps_charge_producer_hash_traffic() {
        let mut p = fig9_problem();
        p.producer_write_sweeps = 5; // 1 write + 4 psum round trips
        let o = evaluate_assignment(
            &p,
            Strategy::Assigned(BlockAssignment::new(Orientation::Horizontal, 30)),
        );
        // 30 blocks x 64 bits x 5 sweeps on the producer side.
        assert_eq!(o.producer.hash_bits, 30 * 64 * 5);
    }

    #[test]
    fn halo_reader_with_aligned_blocks() {
        // 11x11 ifmap read with 5x5 windows stepping 3 (halo = 2).
        let region = Region::new(11, 11);
        let p = AssignmentProblem {
            region,
            producer_grid: TileGrid::covering(region, 11, 11),
            producer_write_sweeps: 1,
            readers: vec![AccessPattern {
                grid: TileGrid::covering_with_halo(region, 5, 5, 3, 3),
                sweeps: 1,
            }],
            word_bits: 8,
            tag_bits: 64,
        };
        // Unit blocks: zero redundancy even with halos.
        let unit = evaluate_assignment(
            &p,
            Strategy::Assigned(BlockAssignment::new(Orientation::Horizontal, 1)),
        );
        assert_eq!(unit.consumer.redundant_bits, 0);
        // Whole-region block: every one of the 9 reads fetches all 121
        // elements.
        let whole = evaluate_assignment(
            &p,
            Strategy::Assigned(BlockAssignment::new(Orientation::Horizontal, 121)),
        );
        let fetched_total = 9 * 121 * 8;
        let needed: u64 = p.readers[0].grid.tiles(region).map(|t| t.elems() * 8).sum();
        assert_eq!(whole.consumer.redundant_bits, fetched_total - needed);
        // The optimiser must find something at least as good as either.
        let best = optimize(&p);
        assert!(total(best.overhead) <= total(unit));
        assert!(total(best.overhead) <= total(whole));
    }

    #[test]
    fn optimizer_considers_rehash_fallback() {
        // A pathological producer tiling (1-wide columns) against a
        // row-reader swept many times: the optimiser must at worst
        // match tile-as-AuthBlock.
        let region = Region::new(64, 64);
        let p = AssignmentProblem {
            region,
            producer_grid: TileGrid::covering(region, 64, 1),
            producer_write_sweeps: 1,
            readers: vec![AccessPattern {
                grid: TileGrid::covering(region, 1, 64),
                sweeps: 50,
            }],
            word_bits: 8,
            tag_bits: 64,
        };
        let best = optimize(&p);
        let tile = evaluate_assignment(&p, Strategy::TileAsAuthBlock);
        assert!(total(best.overhead) <= total(tile));
    }

    #[test]
    fn aligned_case_tile_as_authblock_is_already_good() {
        // Producer and consumer tilings match: tile-as-AuthBlock has no
        // redundancy and minimal hash count; the optimiser must not do
        // worse.
        let region = Region::new(32, 32);
        let grid = TileGrid::covering(region, 8, 8);
        let p = AssignmentProblem {
            region,
            producer_grid: grid,
            producer_write_sweeps: 1,
            readers: vec![AccessPattern { grid, sweeps: 1 }],
            word_bits: 8,
            tag_bits: 64,
        };
        let tile = evaluate_assignment(&p, Strategy::TileAsAuthBlock);
        assert_eq!(tile.consumer.redundant_bits, 0);
        let best = optimize(&p);
        assert!(total(best.overhead) <= total(tile));
    }

    #[test]
    fn sweep_contains_the_optimum() {
        let p = fig9_problem();
        let best = optimize(&p);
        for orientation in Orientation::ALL {
            let curve = sweep(&p, orientation);
            assert!(!curve.is_empty());
            // Monotone non-increasing candidate coverage: every curve
            // point is >= the global optimum.
            for (_, o) in &curve {
                assert!(o.total_bits() >= best.overhead.total().total_bits());
            }
            // Hash bits shrink (weakly) as size grows.
            let first_hash = curve.first().unwrap().1.hash_bits;
            let last_hash = curve.last().unwrap().1.hash_bits;
            assert!(last_hash <= first_hash);
        }
        // The optimum value is attained somewhere in one of the sweeps
        // (unless a non-Assigned strategy won).
        if let Strategy::Assigned(a) = best.strategy {
            let curve = sweep(&p, a.orientation);
            assert!(
                curve
                    .iter()
                    .any(|&(u, o)| u == a.size
                        && o.total_bits() == best.overhead.total().total_bits())
            );
        }
    }

    #[test]
    fn scaled_multiplies_all_components() {
        let o = OverheadBreakdown {
            hash_bits: 3,
            redundant_bits: 5,
            rehash_bits: 7,
        };
        let s = o.scaled(4);
        assert_eq!(s.hash_bits, 12);
        assert_eq!(s.redundant_bits, 20);
        assert_eq!(s.rehash_bits, 28);
        assert_eq!(s.total_bits(), 60);
    }
}
