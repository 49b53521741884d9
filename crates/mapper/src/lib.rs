#![warn(missing_docs)]

//! The loopnest mapper: SecureLoop's step-1 scheduler (paper §4.1).
//!
//! Like Timeloop's random-pruned search mode — which the paper builds
//! on — the mapper samples valid mappings from the factorisation space,
//! evaluates each with the analytical model in `secureloop-loopnest`,
//! and keeps the **top-k** schedules per layer (the paper's extension:
//! "an extension to support top-k loopnests searching", §5.1).
//!
//! Secure designs need no special casing here: the architecture's
//! *effective* bandwidth and crypto energy already flow through
//! [`evaluate`], which is exactly the
//! paper's "crypt-aware" scheduling — supplying the proper bandwidth and
//! energy parameters to the baseline scheduler.
//!
//! # Fault tolerance
//!
//! [`search`] never panics on a well-formed layer: it returns a typed
//! [`MapperError`] when no usable mapping exists, honours an optional
//! wall-clock [`SearchConfig::deadline`], and reports which rung of the
//! degradation ladder produced the result ([`SearchTier`]):
//!
//! 1. **Exhaustive** — tiny factorisation spaces are enumerated outright
//!    (certified optimum over the representative order set);
//! 2. **Sampled** — the default random-pruned search;
//! 3. **Greedy** — if sampling finds nothing (or the deadline cuts it
//!    off first), the deterministic constructive mapping still anchors a
//!    result.
//!
//! Non-finite costs (NaN, or latencies saturated by a zero-bandwidth
//! interface) are rejected at insertion, so corrupted models degrade
//! into `NoValidMapping` errors instead of propagating garbage.
//!
//! # Determinism
//!
//! The sample budget is split into fixed-size logical chunks of
//! [`CHUNK_SAMPLES`] draws. Each chunk's RNG seed derives from the
//! **chunk index** (never from the worker thread that happens to run
//! it). In random mode `threads` workers pull chunks from one queue
//! ([`cancel::run_ordered`]) and results merge in chunk order; guided
//! mode runs its chunks in order on the calling thread. Consequence:
//! for a given [`SearchConfig`] without a deadline, [`search`] returns
//! byte-identical results for any `threads` value — pinned by
//! `tests/determinism.rs`.
//!
//! # Design groups
//!
//! In random mode the draw stream depends only on the layer, the PE
//! array and the dataflow, and the first cost stage
//! ([`traffic`]) only on those plus the
//! register file: the architecture's
//! [`DrawIdentity`]. [`search_group`]
//! searches several designs that share one: it draws and runs `traffic`
//! once per sample, then prices the sample for each design. Each
//! design's result equals its own [`search`] byte for byte. A sweep's
//! candidate cache forms such groups on a miss ([`search_cached`]).
//!
//! # Telemetry
//!
//! Every search emits into [`secureloop_telemetry`]: a `mapper` span
//! per layer (its `designs` field counts the designs it searched),
//! `mapper.draws` per sampled mapping, `mapper.samples_evaluated` /
//! `mapper.samples_valid` per sampled mapping and design,
//! reject causes bucketed under `mapper.reject.*`, ladder-tier
//! transitions under `mapper.tier.*`, and, when a sink is installed,
//! one `chunk` event per chunk with its time, tagged with the worker
//! that ran it. Hot loops accumulate locally and flush once per chunk,
//! so the sink-less overhead stays within the 5% budget of the
//! `mapper_search_1k_telemetry_on_vs_off` row of `secureloop-bench
//! micro`.
//!
//! # Example
//!
//! ```
//! use secureloop_arch::Architecture;
//! use secureloop_mapper::{search, SearchConfig, SearchMode};
//! use secureloop_workload::zoo;
//!
//! let net = zoo::alexnet_conv();
//! let result = search(
//!     &net.layers()[2],
//!     &Architecture::eyeriss_base(),
//!     &SearchConfig::quick(),
//! )
//! .expect("a valid mapping exists for every zoo layer");
//! let best = result.best().expect("top-k retained at least one schedule");
//! assert!(best.1.latency_cycles > 0);
//! ```

pub mod cache;
pub mod cancel;
pub mod error;
pub mod exhaustive;
pub mod factors;
pub mod fault;
pub mod greedy;
pub mod pareto;
pub mod sampler;

use std::time::{Duration, Instant};

use secureloop_arch::Architecture;
use secureloop_json::Json;
use secureloop_loopnest::{evaluate, traffic, DrawIdentity, Evaluation, Mapping, Pricing};
use secureloop_telemetry::{self as telemetry, Counter};
use secureloop_workload::ConvLayer;

pub use cache::{cache_key, search_cached, CandidateCache};
pub use cancel::{CancelToken, TaskContext, TaskScope};
pub use error::MapperError;
pub use exhaustive::space_upper_bound;
pub use fault::{FaultPlan, FaultScope};
pub use greedy::greedy_mapping;
pub use pareto::{dominates, hypervolume, FrontInsert, ParetoFront, ParetoPoint};
pub use sampler::{GuidedSampler, MappingSampler};

/// How the sampled rung explores the factorisation space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SearchMode {
    /// Timeloop-style random pruning: every chunk draws independently
    /// from the uniform sampler. The library default, and the mode all
    /// committed random-search artifacts (goldens, `BENCH_sweep.json`)
    /// were measured under.
    #[default]
    Random,
    /// Pareto-guided exploration: chunks, run in order, biased toward the
    /// neighbourhood of the current per-space Pareto front, with
    /// patience-based early stopping. Reaches comparable fronts with
    /// far fewer samples (gated ≥5× by `secureloop-bench guided --check`).
    Guided,
}

impl SearchMode {
    /// Human-readable mode name (matches the `--search-mode` CLI
    /// values).
    pub fn name(&self) -> &'static str {
        match self {
            SearchMode::Random => "random",
            SearchMode::Guided => "guided",
        }
    }

    /// Parse a `--search-mode` value.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "random" => Some(SearchMode::Random),
            "guided" => Some(SearchMode::Guided),
            _ => None,
        }
    }

    /// One-character component embedded in [`cache_key`] so guided and
    /// random results never alias in the [`CandidateCache`].
    pub fn key_component(&self) -> char {
        match self {
            SearchMode::Random => 'r',
            SearchMode::Guided => 'g',
        }
    }
}

impl std::fmt::Display for SearchMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Search-budget knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchConfig {
    /// Number of random candidates to draw (Timeloop's random pruning).
    pub samples: usize,
    /// How many best schedules to retain per layer (paper uses k = 6).
    pub top_k: usize,
    /// RNG seed: searches are reproducible.
    pub seed: u64,
    /// Worker threads for the random rung's chunks (0 and 1 =
    /// sequential). Guided mode runs its chunks in order on the calling
    /// thread whatever this is.
    pub threads: usize,
    /// Optional wall-clock budget for one [`search`] call. When it
    /// expires the search returns whatever it has (flagged
    /// [`MapperResult::truncated`]) instead of running to completion.
    pub deadline: Option<Duration>,
    /// How the sampled rung explores the space. In [`SearchMode::Guided`]
    /// mode `samples` becomes a *cap*: rounds stop early once the top-k
    /// stops improving, which is where the ≥5× sample savings come from.
    pub mode: SearchMode,
}

impl SearchConfig {
    /// The paper's default: k = 6 retained schedules.
    pub fn paper_default() -> Self {
        SearchConfig {
            samples: 4000,
            top_k: 6,
            seed: 0x5ec0_4e10,
            threads: 4,
            deadline: None,
            mode: SearchMode::Random,
        }
    }

    /// A small budget for unit tests and doctests.
    pub fn quick() -> Self {
        SearchConfig {
            samples: 400,
            top_k: 3,
            seed: 7,
            threads: 1,
            deadline: None,
            mode: SearchMode::Random,
        }
    }

    /// Replace the sample budget.
    pub fn with_samples(mut self, samples: usize) -> Self {
        self.samples = samples;
        self
    }

    /// Replace the retained-schedule count.
    pub fn with_top_k(mut self, k: usize) -> Self {
        self.top_k = k;
        self
    }

    /// Replace the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replace the worker-thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Set a wall-clock budget for each search call.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Replace the search mode.
    pub fn with_mode(mut self, mode: SearchMode) -> Self {
        self.mode = mode;
        self
    }
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig::paper_default()
    }
}

/// Which rung of the degradation ladder produced a [`MapperResult`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SearchTier {
    /// The whole (order-representative) space was enumerated: the best
    /// candidate is a certified optimum over that set.
    Exhaustive,
    /// Random-pruned sampling, the paper's default mode.
    #[default]
    Sampled,
    /// Only the deterministic greedy construction survived — sampling
    /// found nothing valid or the deadline expired first.
    Greedy,
}

impl SearchTier {
    /// Human-readable rung name.
    pub fn name(&self) -> &'static str {
        match self {
            SearchTier::Exhaustive => "exhaustive",
            SearchTier::Sampled => "sampled",
            SearchTier::Greedy => "greedy",
        }
    }

    /// Parse a rung name written by [`SearchTier::name`].
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "exhaustive" => Some(SearchTier::Exhaustive),
            "sampled" => Some(SearchTier::Sampled),
            "greedy" => Some(SearchTier::Greedy),
            _ => None,
        }
    }
}

impl std::fmt::Display for SearchTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The outcome of a per-layer search: up to `top_k` mappings sorted by
/// ascending latency (ties broken by energy).
#[derive(Debug, Clone, Default)]
pub struct MapperResult {
    /// Retained `(mapping, evaluation)` pairs, best first.
    pub candidates: Vec<(Mapping, Evaluation)>,
    /// How many of the sampled mappings were valid (finite cost).
    pub valid_samples: usize,
    /// Total samples drawn.
    pub total_samples: usize,
    /// Which rung of the degradation ladder produced the candidates.
    pub tier: SearchTier,
    /// Whether a deadline cut the search short of its sample budget.
    pub truncated: bool,
}

impl MapperResult {
    /// The best retained schedule, if any candidate was valid.
    pub fn best(&self) -> Option<&(Mapping, Evaluation)> {
        self.candidates.first()
    }
}

/// Latencies at or above this are treated as saturated (a zero- or
/// near-zero-bandwidth interface turns `f64::INFINITY` into `u64::MAX`
/// through the `ceil() as u64` cast) and rejected: summing them across
/// layers would overflow.
pub const SATURATED_LATENCY: u64 = u64::MAX / 4;

fn better(a: &Evaluation, b: &Evaluation) -> bool {
    (a.latency_cycles, a.energy_pj) < (b.latency_cycles, b.energy_pj)
}

/// Why (or whether) a candidate entered the top-k list. The sampling
/// loop buckets rejects by cause into `mapper.reject.*` counters; the
/// merge paths ignore the outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum InsertOutcome {
    /// Entered the retained list.
    Inserted,
    /// NaN/infinite energy: comparisons would be vacuous.
    RejectedNonFinite,
    /// Latency at or beyond [`SATURATED_LATENCY`]: would overflow
    /// network totals.
    RejectedSaturated,
    /// Exact duplicate of an already-retained schedule.
    RejectedDuplicate,
    /// Valid, but worse than every retained schedule with the list
    /// already full.
    RejectedBelowCutoff,
}

/// Offer a priced mapping to `keep`, a list of at most `top_k`
/// schedules sorted best first by `(latency, energy)`, ties in arrival
/// order. The mapping is cloned only when it enters the list.
///
/// Every call on one list must price a given mapping the same way (one
/// design, one cost model), as every caller does: so a retained
/// duplicate of the candidate has the candidate's cost.
///
/// When the list is full and the candidate is not better than its last
/// entry, the candidate's place is past the end: it is a duplicate or
/// below the cutoff. A retained duplicate would sit at or before the
/// last entry, and the list is sorted, so its cost, which is the
/// candidate's, is no worse than the last entry's; as the candidate is
/// not better than the last entry either, the two costs tie. So a
/// candidate that neither beats nor ties the last entry is below the
/// cutoff, and the fast path returns that before the duplicate scan.
pub(crate) fn insert_candidate(
    keep: &mut Vec<(Mapping, Evaluation)>,
    top_k: usize,
    mapping: &Mapping,
    eval: Evaluation,
) -> InsertOutcome {
    // Non-finite or saturated costs never enter the list: NaN makes the
    // sort comparisons vacuous and saturated latencies overflow network
    // totals.
    if !eval.energy_pj.is_finite() {
        return InsertOutcome::RejectedNonFinite;
    }
    if eval.latency_cycles >= SATURATED_LATENCY {
        return InsertOutcome::RejectedSaturated;
    }
    if keep.len() >= top_k
        && !keep.last().is_some_and(|(_, last)| {
            better(&eval, last)
                || (eval.latency_cycles, eval.energy_pj) == (last.latency_cycles, last.energy_pj)
        })
    {
        return InsertOutcome::RejectedBelowCutoff;
    }
    // Skip exact duplicates of an already-retained schedule.
    if keep.iter().any(|(m, _)| m == mapping) {
        return InsertOutcome::RejectedDuplicate;
    }
    let pos = keep
        .iter()
        .position(|(_, e)| better(&eval, e))
        .unwrap_or(keep.len());
    if pos < top_k {
        keep.insert(pos, (mapping.clone(), eval));
        keep.truncate(top_k);
        InsertOutcome::Inserted
    } else {
        InsertOutcome::RejectedBelowCutoff
    }
}

/// [`insert_candidate`] with cost-level deduplication, used by the
/// guided rung: neighbourhood mutations produce many cost-equivalent
/// variants of the same guide (e.g. order permutations the cost model
/// is invariant to), and letting them flood the top-k would collapse it
/// onto one objective point. Random mode keeps the plain mapping-level
/// dedup — independent draws rarely collide, and its semantics predate
/// guided search.
pub(crate) fn insert_candidate_distinct(
    keep: &mut Vec<(Mapping, Evaluation)>,
    top_k: usize,
    mapping: &Mapping,
    eval: Evaluation,
) -> InsertOutcome {
    let same_cost = |e: &Evaluation| {
        e.latency_cycles == eval.latency_cycles
            && e.energy_pj.to_bits() == eval.energy_pj.to_bits()
            && e.energy.crypto_pj.to_bits() == eval.energy.crypto_pj.to_bits()
    };
    if keep.iter().any(|(_, e)| same_cost(e)) {
        return InsertOutcome::RejectedDuplicate;
    }
    insert_candidate(keep, top_k, mapping, eval)
}

/// How often the sampling loops poll the wall clock.
const DEADLINE_STRIDE: usize = 32;

/// Samples per logical work chunk. Part of the determinism contract:
/// chunk `c` always covers draws `[c * CHUNK_SAMPLES, (c+1) *
/// CHUNK_SAMPLES)` of the budget with a seed derived from `c`, so the
/// sample stream is a pure function of [`SearchConfig`] — never of the
/// worker-thread count.
pub const CHUNK_SAMPLES: usize = 256;

fn chunk_seed(base: u64, chunk: usize) -> u64 {
    base.wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(chunk as u64 + 1))
}

// --- guided-mode knobs ----------------------------------------------------
//
// Guided search runs its chunks one after another on the calling thread
// (`SearchConfig::threads` parallelises only the random rung). After each
// chunk the Pareto front absorbs the chunk's finds, so the guides a chunk
// sees are a pure function of the chunks before it, and the search stops
// once the merged top-k and front go stale for a couple of chunks.

/// Consecutive chunks without a top-k or front insertion before guided
/// search stops drawing (the budget's `samples` is only a cap).
const GUIDED_STALL_ROUNDS: usize = 2;

/// Consecutive draws without a chunk-local top-k insertion before a
/// guided chunk stops early.
const GUIDED_CHUNK_PATIENCE: usize = 32;

/// Maximum front members handed to [`GuidedSampler`] as neighbourhood
/// seeds (evenly spread across the front when it is larger).
const GUIDED_MAX_GUIDES: usize = 12;

/// Sample caps at or below this many chunks get a pure-uniform round-0
/// burn-in (full chunk, no guides, no patience): tiny budgets don't
/// leave enough uniform draws for basin coverage, so the first chunk
/// buys it outright. Larger budgets get that coverage from
/// `EXPLORE_PROB` spread across many chunks.
const GUIDED_BURNIN_MAX_CHUNKS: usize = 4;

// --- telemetry wiring (names documented in DESIGN.md) ---------------------

static SEARCHES: Counter = Counter::new("mapper.searches");
static DRAWS: Counter = Counter::new("mapper.draws");
static SAMPLES_EVALUATED: Counter = Counter::new("mapper.samples_evaluated");
static SAMPLES_VALID: Counter = Counter::new("mapper.samples_valid");
static REJECT_EVAL_ERROR: Counter = Counter::new("mapper.reject.eval_error");
static REJECT_NONFINITE: Counter = Counter::new("mapper.reject.nonfinite");
static REJECT_SATURATED: Counter = Counter::new("mapper.reject.saturated");
static REJECT_DUPLICATE: Counter = Counter::new("mapper.reject.duplicate");
static REJECT_BELOW_CUTOFF: Counter = Counter::new("mapper.reject.below_cutoff");
static TIER_EXHAUSTIVE: Counter = Counter::new("mapper.tier.exhaustive");
static TIER_SAMPLED: Counter = Counter::new("mapper.tier.sampled");
static TIER_GREEDY: Counter = Counter::new("mapper.tier.greedy");
static TRUNCATED: Counter = Counter::new("mapper.truncated");

/// Per-chunk reject tallies, accumulated on the stack and flushed to
/// the global counters once per chunk (hot-path discipline: the sample
/// loop itself touches no atomics).
#[derive(Default, Clone, Copy)]
struct ChunkTally {
    drawn: u64,
    valid: u64,
    eval_error: u64,
    nonfinite: u64,
    saturated: u64,
    duplicate: u64,
    below_cutoff: u64,
}

impl ChunkTally {
    fn flush(&self) {
        SAMPLES_EVALUATED.add(self.drawn);
        SAMPLES_VALID.add(self.valid);
        REJECT_EVAL_ERROR.add(self.eval_error);
        REJECT_NONFINITE.add(self.nonfinite);
        REJECT_SATURATED.add(self.saturated);
        REJECT_DUPLICATE.add(self.duplicate);
        REJECT_BELOW_CUTOFF.add(self.below_cutoff);
    }
}

/// Why a sampling chunk ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChunkEnd {
    /// It drew its share of the budget, or its draw ended it early.
    Done,
    /// The search deadline passed.
    Deadline,
    /// The task was cancelled or a shutdown requested.
    Cancelled,
}

/// What every sampling chunk of one search shares.
struct ChunkRunner<'a> {
    layer: &'a ConvLayer,
    cfg: &'a SearchConfig,
    ctx: &'a TaskContext,
    deadline: Option<Instant>,
}

impl ChunkRunner<'_> {
    /// Run chunk `chunk` on `worker`: call `draw` once per sample of the
    /// chunk's share of the budget, polling cancellation and the
    /// deadline every [`DEADLINE_STRIDE`] samples. `draw` records into
    /// `tallies` and ends the chunk early by returning `false` before it
    /// draws. Then flush the draws and `tallies` to the counters and
    /// emit the chunk's `chunk` event with its time (which in random
    /// mode names the number of designs, one tally each).
    fn run(
        &self,
        worker: usize,
        chunk: usize,
        tallies: &mut [ChunkTally],
        mut draw: impl FnMut(&mut [ChunkTally]) -> bool,
    ) -> ChunkEnd {
        let start = Instant::now();
        let samples = CHUNK_SAMPLES.min(self.cfg.samples - chunk * CHUNK_SAMPLES);
        let mut draws = 0u64;
        let mut end = ChunkEnd::Done;
        for i in 0..samples {
            if i % DEADLINE_STRIDE == 0 {
                if self.ctx.token.is_cancelled() {
                    end = ChunkEnd::Cancelled;
                    break;
                }
                if self.deadline.is_some_and(|dl| Instant::now() >= dl) {
                    end = ChunkEnd::Deadline;
                    break;
                }
            }
            if !draw(tallies) {
                break;
            }
            draws += 1;
        }
        DRAWS.add(draws);
        tallies.iter().for_each(ChunkTally::flush);
        telemetry::emit(|| {
            let event = Json::obj()
                .field("event", "chunk")
                .field("phase", "mapper")
                .field("name", self.layer.name())
                .field("chunk", chunk as u64)
                .field("worker", worker as u64);
            let event = match self.cfg.mode {
                SearchMode::Random => event.field("designs", tallies.len() as u64),
                SearchMode::Guided => event,
            };
            event
                .field("samples", tallies.iter().map(|t| t.drawn).sum::<u64>())
                .field("valid", tallies.iter().map(|t| t.valid).sum::<u64>())
                .field("us", start.elapsed().as_micros() as u64)
        });
        end
    }
}

/// Record a group search's outcome: tier counters per design, and on
/// the span the tier (or `mixed`) plus samples and valid samples summed
/// over designs, like `mapper.samples_evaluated`.
fn record_outcome(span: &mut telemetry::Span, results: &[Result<MapperResult, MapperError>]) {
    let ok: Vec<&MapperResult> = results.iter().filter_map(|r| r.as_ref().ok()).collect();
    let Some(first) = ok.first() else {
        return;
    };
    let tier = if ok.iter().all(|r| r.tier == first.tier) {
        first.tier.name()
    } else {
        "mixed"
    };
    span.add_field("tier", tier);
    span.add_field(
        "samples",
        ok.iter().map(|r| r.total_samples as u64).sum::<u64>(),
    );
    span.add_field(
        "valid",
        ok.iter().map(|r| r.valid_samples as u64).sum::<u64>(),
    );
    for r in ok {
        match r.tier {
            SearchTier::Exhaustive => TIER_EXHAUSTIVE.incr(),
            SearchTier::Sampled => TIER_SAMPLED.incr(),
            SearchTier::Greedy => TIER_GREEDY.incr(),
        }
        if r.truncated {
            TRUNCATED.incr();
        }
    }
}

/// Search the mapping space of one layer and keep the top-k schedules.
///
/// Walks the degradation ladder described in the crate docs: exhaustive
/// enumeration for tiny spaces, random sampling otherwise, with the
/// greedy construction merged in as a floor. The search is deterministic
/// for a given [`SearchConfig`] when no deadline is set: the sample
/// budget is cut into [`CHUNK_SAMPLES`]-draw chunks whose seeds derive
/// from the chunk index, and chunk results merge in index order, so the
/// outcome is byte-identical for any `threads` value.
///
/// This is [`search_group`] over a group of one design.
///
/// # Errors
///
/// [`MapperError::NoValidMapping`] when nothing evaluable was found and
/// [`MapperError::InjectedFailure`] under an armed [`FaultPlan`].
pub fn search(
    layer: &ConvLayer,
    arch: &Architecture,
    cfg: &SearchConfig,
) -> Result<MapperResult, MapperError> {
    search_group(layer, &[arch], cfg)
        .pop()
        .expect("one result per design")
}

/// [`search`] for several designs that share one [`DrawIdentity`]: one
/// result per design, in order, each equal to that design's own
/// `search` byte for byte.
///
/// In [`SearchMode::Random`] the sampled rung draws each mapping once,
/// runs [`traffic`] once on the largest-GLB design, and prices it for
/// every design (see [`secureloop_loopnest::evaluate`] for why that is
/// exact). The exhaustive rung, the greedy floor and the errors stay per
/// design. [`SearchMode::Guided`] anchors on per-design discoveries, so
/// it searches the designs one after another.
///
/// # Panics
///
/// If `designs` is empty or its designs differ in draw identity.
pub fn search_group(
    layer: &ConvLayer,
    designs: &[&Architecture],
    cfg: &SearchConfig,
) -> Vec<Result<MapperResult, MapperError>> {
    assert!(!designs.is_empty(), "a search group needs a design");
    let identity = DrawIdentity::of(designs[0]);
    assert!(
        designs.iter().all(|a| DrawIdentity::of(a) == identity),
        "the designs of a search group must share one draw identity"
    );
    if cfg.mode == SearchMode::Guided && designs.len() > 1 {
        return designs.iter().map(|a| search(layer, a, cfg)).collect();
    }

    let mut search_span = telemetry::span("mapper", layer.name());
    search_span.add_field("designs", designs.len() as u64);
    SEARCHES.add(designs.len() as u64);

    // Per-task cancellation context, installed by the supervisor on
    // this thread; the chunk workers spawned below borrow it.
    let ctx = cancel::current_context();
    let cancelled = |span: &mut telemetry::Span| {
        span.add_field("error", "cancelled");
        designs
            .iter()
            .map(|_| {
                Err(MapperError::Cancelled {
                    layer: layer.name().to_string(),
                })
            })
            .collect()
    };
    if ctx.token.is_cancelled() {
        return cancelled(&mut search_span);
    }

    // One slot per design; `None` while the design is still searching.
    let mut out: Vec<Option<Result<MapperResult, MapperError>>> = vec![None; designs.len()];
    let mut nan = vec![false; designs.len()];
    for (i, arch) in designs.iter().enumerate() {
        match fault::verdict_for(&ctx, layer.name(), arch.name()) {
            fault::Verdict::Fail => {
                search_span.add_field("error", "injected_failure");
                out[i] = Some(Err(MapperError::InjectedFailure {
                    layer: layer.name().to_string(),
                }));
            }
            fault::Verdict::Panic => {
                search_span.add_field("error", "injected_panic");
                panic!(
                    "injected panic in mapper search for layer '{}'",
                    layer.name()
                );
            }
            fault::Verdict::IoError => {
                search_span.add_field("error", "injected_io");
                out[i] = Some(Err(MapperError::InjectedIo {
                    layer: layer.name().to_string(),
                }));
            }
            fault::Verdict::Stall(d) => {
                // Sleep in short slices so a watchdog cancellation (or a
                // process shutdown) wakes the stalled search promptly.
                search_span.add_field("fault", "stall");
                let end = Instant::now() + d;
                loop {
                    let now = Instant::now();
                    if now >= end {
                        break;
                    }
                    if ctx.token.is_cancelled() {
                        return cancelled(&mut search_span);
                    }
                    std::thread::sleep((end - now).min(Duration::from_millis(5)));
                }
            }
            fault::Verdict::NanCost => nan[i] = true,
            fault::Verdict::Clean => {}
        }
    }
    let poison = |i: usize, mut e: Evaluation| {
        if nan[i] {
            e.energy_pj = f64::NAN;
        }
        e
    };

    let deadline = cfg.deadline.map(|d| Instant::now() + d);

    // Ladder rung 1: certified enumeration when the whole space fits a
    // small budget (skipped under NaN injection — the poisoning applies
    // to the rungs below, which is where the tests aim it). Deadline
    // expiry or nothing valid falls through to the cheaper rungs.
    if space_upper_bound(layer) <= exhaustive::EXHAUSTIVE_SPACE_CAP {
        for (i, arch) in designs.iter().enumerate() {
            if out[i].is_some() || nan[i] {
                continue;
            }
            let run = exhaustive::run_exhaustive(
                layer,
                arch,
                exhaustive::EXHAUSTIVE_SPACE_CAP as u64,
                deadline,
                cfg.top_k.max(1),
            );
            if !run.truncated && !run.keep.is_empty() {
                out[i] = Some(Ok(MapperResult {
                    candidates: run.keep,
                    valid_samples: run.valid,
                    total_samples: run.evaluated as usize,
                    tier: SearchTier::Exhaustive,
                    truncated: false,
                }));
            }
        }
    }

    // Ladder rung 2: sampling over fixed-size logical chunks. Seeds
    // derive from the chunk index — never from the worker that happens
    // to run the chunk — and results merge in chunk order, so any
    // thread count reproduces the same result. Guided mode runs its
    // chunks in order on this thread (see `run_guided_rung`).
    let open: Vec<usize> = (0..designs.len()).filter(|&i| out[i].is_none()).collect();
    if !open.is_empty() {
        let chunks = ChunkRunner {
            layer,
            cfg,
            ctx: &ctx,
            deadline,
        };
        let rungs = if cfg.mode == SearchMode::Guided {
            let i = open[0];
            run_guided_rung(&chunks, designs[i], nan[i]).map(|rung| vec![rung])
        } else {
            let group: Vec<(&Architecture, bool)> =
                open.iter().map(|&i| (designs[i], nan[i])).collect();
            run_random_rung(&chunks, &group)
        };
        // A cancelled search returns the typed error instead of partial
        // results: the caller (supervisor or shutdown path) asked it to
        // stop, so whatever it gathered must not masquerade as a
        // schedule.
        let Some(rungs) = rungs else {
            return cancelled(&mut search_span);
        };
        for (&i, (mut merged, sampled_any)) in open.iter().zip(rungs) {
            finish_sampled(&mut merged, sampled_any, layer, designs[i], cfg, &|e| {
                poison(i, e)
            });
            out[i] = Some(if merged.candidates.is_empty() {
                search_span.add_field("error", "no_valid_mapping");
                Err(MapperError::NoValidMapping {
                    layer: layer.name().to_string(),
                    samples: merged.total_samples,
                })
            } else {
                Ok(merged)
            });
        }
    }

    let results: Vec<_> = out
        .into_iter()
        .map(|r| r.expect("every design settled"))
        .collect();
    record_outcome(&mut search_span, &results);
    results
}

/// Ladder rung 2 in random mode, for designs that share one draw
/// identity (each with its NaN-injection flag): one sampled result per
/// design, and whether its sampling kept anything, or `None` when
/// cancelled.
///
/// Each chunk draws its mappings once and runs [`traffic`] once per
/// draw on the largest-GLB design; every design then prices the draw
/// and keeps its own top-k. Per design, the chunk keep lists merge in
/// chunk order exactly as a one-design search merges them, so each
/// result is the one that design's own search would return.
fn run_random_rung(
    chunks: &ChunkRunner,
    designs: &[(&Architecture, bool)],
) -> Option<Vec<(MapperResult, bool)>> {
    let (layer, cfg) = (chunks.layer, chunks.cfg);
    let widest = designs
        .iter()
        .map(|&(a, _)| a)
        .max_by_key(|a| a.glb_bytes())
        .expect("a search group needs a design");
    let pricing: Vec<Pricing> = designs.iter().map(|&(a, _)| Pricing::of(a)).collect();

    // One divisor table per search: every chunk's sampler clones this
    // one and is reseeded.
    let base = MappingSampler::new(layer, widest, 0);
    // Per chunk: per design its keep list and tally, and how it ended.
    let n_chunks = cfg.samples.div_ceil(CHUNK_SAMPLES);
    let chunk_results = cancel::run_ordered(n_chunks, cfg.threads, |worker, chunk| {
        let mut sampler = base.clone();
        sampler.reseed(chunk_seed(cfg.seed, chunk));
        let mut keeps: Vec<Vec<(Mapping, Evaluation)>> = vec![Vec::new(); designs.len()];
        let mut tallies = vec![ChunkTally::default(); designs.len()];
        let end = chunks.run(worker, chunk, &mut tallies, |tallies| {
            let mapping = sampler.sample();
            let Ok(traffic) = traffic(layer, widest, &mapping) else {
                // Invalid on the widest design, so on every design.
                for tally in tallies {
                    tally.drawn += 1;
                    tally.eval_error += 1;
                }
                return true;
            };
            for ((pricing, (_, nan)), (keep, tally)) in pricing
                .iter()
                .zip(designs)
                .zip(keeps.iter_mut().zip(tallies.iter_mut()))
            {
                tally.drawn += 1;
                let Ok(mut eval) = traffic.price(pricing) else {
                    tally.eval_error += 1;
                    continue;
                };
                if *nan {
                    eval.energy_pj = f64::NAN;
                }
                if eval.energy_pj.is_finite() {
                    tally.valid += 1;
                }
                match insert_candidate(keep, cfg.top_k, &mapping, eval) {
                    InsertOutcome::Inserted => {}
                    InsertOutcome::RejectedNonFinite => tally.nonfinite += 1,
                    InsertOutcome::RejectedSaturated => tally.saturated += 1,
                    InsertOutcome::RejectedDuplicate => tally.duplicate += 1,
                    InsertOutcome::RejectedBelowCutoff => tally.below_cutoff += 1,
                }
            }
            true
        });
        ((keeps, tallies, end), end != ChunkEnd::Done)
    });
    if chunk_results
        .iter()
        .any(|(_, _, end)| *end == ChunkEnd::Cancelled)
    {
        return None;
    }

    let mut merged: Vec<(MapperResult, bool)> =
        vec![(MapperResult::default(), false); designs.len()];
    for (keeps, tallies, end) in chunk_results {
        for ((result, sampled_any), (keep, tally)) in
            merged.iter_mut().zip(keeps.into_iter().zip(tallies))
        {
            result.valid_samples += tally.valid as usize;
            result.total_samples += tally.drawn as usize;
            result.truncated |= end != ChunkEnd::Done;
            *sampled_any |= !keep.is_empty();
            for (m, e) in keep {
                insert_candidate(&mut result.candidates, cfg.top_k, &m, e);
            }
        }
    }
    Some(merged)
}

/// Ladder rung 3, shared by both sampling modes: merge the
/// deterministic greedy construction in as a floor — guarantees a
/// candidate exists (when one does) and anchors quality independent of
/// the sample budget — and settle the result's tier. Greedy's own
/// failure is not fatal if sampling found candidates.
fn finish_sampled(
    merged: &mut MapperResult,
    sampled_any: bool,
    layer: &ConvLayer,
    arch: &Architecture,
    cfg: &SearchConfig,
    poison: &dyn Fn(Evaluation) -> Evaluation,
) {
    if let Ok((m, e)) = greedy::greedy_mapping(layer, arch) {
        let e = poison(e);
        if e.energy_pj.is_finite() {
            merged.valid_samples += 1;
        }
        insert_candidate(&mut merged.candidates, cfg.top_k, &m, e);
    }

    merged.tier = if sampled_any {
        SearchTier::Sampled
    } else {
        SearchTier::Greedy
    };
}

/// How many uniform-draw candidates the final selection guarantees a
/// slot (when `top_k` has room beyond the latency-best survivor).
const GUIDED_EXPLORE_SLOTS: usize = 1;

/// The guided replacement for the random rung: chunks biased toward
/// the neighbourhood of the current Pareto front, run one after another
/// on the calling thread. Returns the sampled result and whether its
/// sampling kept anything (before the shared greedy floor and tier
/// settlement), or `None` when cancelled.
///
/// Determinism argument: the front is only mutated between chunks, with
/// the chunk's finds, so the guides any chunk sees are a pure function
/// of the chunks before it. Chunk seeds derive from the chunk index via
/// [`chunk_seed`], exactly like random mode. Early stopping decisions
/// (per-chunk patience, the stall across chunks) depend only on those
/// same deterministic streams. Pinned by `tests/determinism.rs`.
fn run_guided_rung(
    chunks: &ChunkRunner,
    arch: &Architecture,
    nan: bool,
) -> Option<(MapperResult, bool)> {
    let (layer, cfg) = (chunks.layer, chunks.cfg);
    let max_chunks = cfg.samples.div_ceil(CHUNK_SAMPLES);
    let poison = |mut e: Evaluation| {
        if nan {
            e.energy_pj = f64::NAN;
        }
        e
    };

    // Seed the front with the greedy construction: a zero-sample-cost
    // anchor so even chunk 0 has a neighbourhood to explore.
    let mut front = pareto::ParetoFront::new();
    if let Ok((m, e)) = greedy::greedy_mapping(layer, arch) {
        let e = poison(e);
        if e.energy_pj.is_finite() && e.latency_cycles < SATURATED_LATENCY {
            front.insert(m, pareto::ParetoPoint::of(&e));
        }
    }

    let mut merged = MapperResult::default();
    let mut sampled_any = false;
    // The best among *uniform* draws only. Neighbourhood
    // exploitation converges onto one structural family; downstream
    // consumers (cross-layer AuthBlock optimisation) need at least one
    // candidate whose loop structure was drawn unbiased.
    let mut explore_best: Vec<(Mapping, Evaluation)> = Vec::new();
    // One divisor table per search, shared by every chunk's sampler.
    let base = MappingSampler::new(layer, arch, 0);
    let mut stall = 0usize;

    for chunk in 0..max_chunks {
        if stall >= GUIDED_STALL_ROUNDS {
            break;
        }
        // At small sample caps, chunk 0 is a pure-uniform burn-in: full
        // chunk, no guides, no patience. With only a couple of chunks
        // to spend there aren't enough uniform draws (EXPLORE_PROB of a
        // few hundred) to cover the basins, and exploitation from the
        // single greedy anchor converges onto whatever temporal family
        // the constructor happens to sit in — so guided at a tiny cap
        // degrades to random-plus-polish instead. At larger caps the
        // uniform share spread across many chunks already supplies that
        // unbiased coverage, and spending a full chunk on it first only
        // starves the exploitation chunks.
        let burnin = chunk == 0 && max_chunks <= GUIDED_BURNIN_MAX_CHUNKS;
        let guides = if burnin {
            Vec::new()
        } else {
            front.guides(GUIDED_MAX_GUIDES)
        };
        let mut sampler =
            GuidedSampler::with_base(base.clone(), chunk_seed(cfg.seed, chunk), &guides);
        // Chunk-local top-k by (latency, energy), and the chunk-local
        // Pareto front: multi-objective progress the top-k ranking
        // would discard (e.g. low-energy points off the latency floor),
        // fed into the global front so guides stay diverse.
        let mut keep: Vec<(Mapping, Evaluation)> = Vec::new();
        let mut local_front = pareto::ParetoFront::new();
        let mut explore: Vec<(Mapping, Evaluation)> = Vec::new();
        let mut tally = [ChunkTally::default()];
        let mut patience = 0usize;
        let end = chunks.run(0, chunk, &mut tally, |tally| {
            let tally = &mut tally[0];
            if !burnin && patience >= GUIDED_CHUNK_PATIENCE {
                return false;
            }
            tally.drawn += 1;
            let (mapping, from_neighbourhood) = sampler.sample();
            let Ok(eval) = evaluate(layer, arch, &mapping) else {
                tally.eval_error += 1;
                patience += 1;
                return true;
            };
            let eval = poison(eval);
            if eval.energy_pj.is_finite() {
                tally.valid += 1;
            }
            let point = pareto::ParetoPoint::of(&eval);
            // Multi-objective progress counts as progress: a low-energy
            // point off the latency floor would never enter the top-k,
            // but it keeps the chunk alive and feeds the global front.
            let front_added = eval.latency_cycles < SATURATED_LATENCY
                && local_front.insert(mapping.clone(), point) == pareto::FrontInsert::Added;
            // Feed the discovery back as a live anchor: the chunk
            // hill-climbs its own front instead of orbiting the static
            // guide snapshot it started from.
            if front_added && !burnin {
                sampler.add_anchor(mapping.clone());
            }
            if !from_neighbourhood {
                insert_candidate_distinct(
                    &mut explore,
                    GUIDED_EXPLORE_SLOTS,
                    &mapping,
                    eval.clone(),
                );
            }
            match insert_candidate_distinct(&mut keep, cfg.top_k, &mapping, eval) {
                InsertOutcome::Inserted => patience = 0,
                InsertOutcome::RejectedNonFinite => {
                    tally.nonfinite += 1;
                    patience += 1;
                }
                InsertOutcome::RejectedSaturated => {
                    tally.saturated += 1;
                    patience += 1;
                }
                InsertOutcome::RejectedDuplicate => {
                    tally.duplicate += 1;
                    patience += 1;
                }
                InsertOutcome::RejectedBelowCutoff => {
                    tally.below_cutoff += 1;
                    patience += 1;
                }
            }
            if front_added {
                patience = 0;
            }
            true
        });
        if end == ChunkEnd::Cancelled {
            return None;
        }

        let [tally] = tally;
        merged.valid_samples += tally.valid as usize;
        merged.total_samples += tally.drawn as usize;
        merged.truncated |= end != ChunkEnd::Done;
        sampled_any |= !keep.is_empty();
        let mut inserted = false;
        for (m, e) in keep {
            if insert_candidate_distinct(&mut merged.candidates, cfg.top_k, &m, e)
                == InsertOutcome::Inserted
            {
                inserted = true;
            }
        }
        // The chunk-local front carries the multi-objective points the
        // top-k ranking discards; merging it is what keeps the guides
        // diverse.
        for (p, m) in local_front.entries() {
            if front.insert(m.clone(), *p) == pareto::FrontInsert::Added {
                inserted = true;
            }
        }
        for (m, e) in explore {
            insert_candidate_distinct(&mut explore_best, GUIDED_EXPLORE_SLOTS, &m, e);
        }
        stall = if inserted { 0 } else { stall + 1 };
        if merged.truncated {
            break;
        }
    }

    // Final selection: a guided search's value is its *front*, not just
    // the k lowest-latency points. Downstream cross-layer optimisation
    // trades latency against energy and crypto overhead, and a
    // latency-clustered top-k starves it of options. Keep the
    // latency-best survivor in slot 0, then backfill with front members
    // evenly spaced along the latency axis (on a front, the far end is
    // the energy-lean extreme), then the remaining latency-sorted
    // survivors. Pure function of the merged state, so determinism is
    // unaffected.
    let slots = cfg.top_k.max(1);
    if !front.is_empty() && !merged.candidates.is_empty() {
        let mut fr: Vec<(pareto::ParetoPoint, Mapping)> = front.entries().to_vec();
        fr.sort_by(|a, b| {
            (a.0.latency_cycles, a.0.energy_pj.to_bits())
                .cmp(&(b.0.latency_cycles, b.0.energy_pj.to_bits()))
        });
        let mut fin: Vec<(Mapping, Evaluation)> = Vec::new();
        let mut seen: Vec<(u64, u64)> = Vec::new();
        fn push(
            fin: &mut Vec<(Mapping, Evaluation)>,
            seen: &mut Vec<(u64, u64)>,
            slots: usize,
            m: Mapping,
            e: Evaluation,
        ) {
            let key = (e.latency_cycles, e.energy_pj.to_bits());
            if fin.len() < slots && !seen.contains(&key) {
                seen.push(key);
                fin.push((m, e));
            }
        }
        let (m0, e0) = merged.candidates[0].clone();
        push(&mut fin, &mut seen, slots, m0, e0);
        // Guaranteed slot for the best unbiased draw: exploitation
        // converges onto one structural family, and downstream
        // consumers (cross-layer AuthBlock optimisation, which scores
        // loop structure the search objective can't see) need at least
        // one candidate outside it.
        for (m, e) in &explore_best {
            push(&mut fin, &mut seen, slots, m.clone(), e.clone());
        }
        let picks = slots.min(fr.len());
        for i in 0..picks {
            let idx = if picks <= 1 {
                0
            } else {
                i * (fr.len() - 1) / (picks - 1)
            };
            let m = &fr[idx].1;
            if let Ok(e) = evaluate(layer, arch, m) {
                let e = poison(e);
                if e.energy_pj.is_finite() && e.latency_cycles < SATURATED_LATENCY {
                    push(&mut fin, &mut seen, slots, m.clone(), e);
                }
            }
        }
        for (m, e) in merged.candidates.iter().skip(1) {
            push(&mut fin, &mut seen, slots, m.clone(), e.clone());
        }
        fin.sort_by(|a, b| {
            (a.1.latency_cycles, a.1.energy_pj.to_bits())
                .cmp(&(b.1.latency_cycles, b.1.energy_pj.to_bits()))
        });
        merged.candidates = fin;
    }

    Some((merged, sampled_any))
}

#[cfg(test)]
mod tests {
    use super::*;
    use secureloop_crypto::{CryptoConfig, EngineClass};
    use secureloop_workload::zoo;

    fn test_layer() -> ConvLayer {
        zoo::alexnet_conv().layers()[2].clone() // conv3: 13x13, 256->384
    }

    #[test]
    fn search_finds_valid_mappings() {
        let r = search(
            &test_layer(),
            &Architecture::eyeriss_base(),
            &SearchConfig::quick(),
        )
        .expect("search succeeds");
        assert!(
            r.valid_samples > 0,
            "no valid samples out of {}",
            r.total_samples
        );
        assert!(!r.candidates.is_empty());
        assert_eq!(r.tier, SearchTier::Sampled);
        assert!(!r.truncated);
    }

    #[test]
    fn candidates_are_sorted_and_unique() {
        let cfg = SearchConfig::quick().with_top_k(5);
        let r = search(&test_layer(), &Architecture::eyeriss_base(), &cfg).unwrap();
        for w in r.candidates.windows(2) {
            assert!(
                (w[0].1.latency_cycles, w[0].1.energy_pj)
                    <= (w[1].1.latency_cycles, w[1].1.energy_pj)
            );
            assert_ne!(w[0].0, w[1].0);
        }
        assert!(r.candidates.len() <= 5);
    }

    #[test]
    fn search_is_deterministic() {
        let cfg = SearchConfig::quick();
        let a = search(&test_layer(), &Architecture::eyeriss_base(), &cfg).unwrap();
        let b = search(&test_layer(), &Architecture::eyeriss_base(), &cfg).unwrap();
        assert_eq!(
            a.best().unwrap().1.latency_cycles,
            b.best().unwrap().1.latency_cycles
        );
    }

    #[test]
    fn all_candidates_validate() {
        let arch = Architecture::eyeriss_base();
        let layer = test_layer();
        let r = search(&layer, &arch, &SearchConfig::quick()).unwrap();
        for (m, _) in &r.candidates {
            m.validate(&layer, &arch)
                .expect("retained mapping must be valid");
        }
    }

    #[test]
    fn more_samples_do_not_hurt() {
        let layer = test_layer();
        let arch = Architecture::eyeriss_base();
        let small = search(
            &layer,
            &arch,
            &SearchConfig {
                samples: 100,
                top_k: 1,
                seed: 1,
                threads: 1,
                deadline: None,
                mode: SearchMode::Random,
            },
        )
        .unwrap();
        let large = search(
            &layer,
            &arch,
            &SearchConfig {
                samples: 2000,
                top_k: 1,
                seed: 1,
                threads: 1,
                deadline: None,
                mode: SearchMode::Random,
            },
        )
        .unwrap();
        assert!(large.best().unwrap().1.latency_cycles <= small.best().unwrap().1.latency_cycles);
    }

    #[test]
    fn secure_arch_prefers_higher_intensity_schedules() {
        // Under a throttled interface, the best schedule's DRAM traffic
        // matters more; the search must still find something valid and
        // its latency must not be lower than the unsecure optimum.
        let layer = test_layer();
        let base = Architecture::eyeriss_base();
        let secure = base
            .clone()
            .with_crypto(CryptoConfig::new(EngineClass::Parallel, 3));
        let cfg = SearchConfig::quick();
        let b = search(&layer, &base, &cfg).unwrap();
        let s = search(&layer, &secure, &cfg).unwrap();
        assert!(s.best().unwrap().1.latency_cycles >= b.best().unwrap().1.latency_cycles);
    }

    #[test]
    fn parallel_search_matches_quality() {
        let layer = test_layer();
        let arch = Architecture::eyeriss_base();
        let seq = search(
            &layer,
            &arch,
            &SearchConfig {
                samples: 800,
                top_k: 3,
                seed: 3,
                threads: 1,
                deadline: None,
                mode: SearchMode::Random,
            },
        )
        .unwrap();
        let par = search(
            &layer,
            &arch,
            &SearchConfig {
                samples: 800,
                top_k: 3,
                seed: 3,
                threads: 4,
                deadline: None,
                mode: SearchMode::Random,
            },
        )
        .unwrap();
        // Different sample streams, but both must find reasonable
        // schedules (within 3x of each other).
        let a = seq.best().unwrap().1.latency_cycles as f64;
        let b = par.best().unwrap().1.latency_cycles as f64;
        assert!(a / b < 3.0 && b / a < 3.0, "seq {a} vs par {b}");
    }

    #[test]
    fn tiny_layers_take_the_exhaustive_rung() {
        let layer = ConvLayer::builder("pointwise")
            .input_hw(1, 1)
            .channels(4, 8)
            .kernel(1, 1)
            .build()
            .unwrap();
        let r = search(
            &layer,
            &Architecture::eyeriss_base(),
            &SearchConfig::quick(),
        )
        .unwrap();
        assert_eq!(r.tier, SearchTier::Exhaustive);
        assert!(!r.truncated);
        assert!(r.best().is_some());
    }

    #[test]
    fn zero_sample_budget_degrades_to_greedy() {
        let r = search(
            &test_layer(),
            &Architecture::eyeriss_base(),
            &SearchConfig {
                samples: 0,
                top_k: 3,
                seed: 1,
                threads: 1,
                deadline: None,
                mode: SearchMode::Random,
            },
        )
        .unwrap();
        assert_eq!(r.tier, SearchTier::Greedy);
        assert_eq!(r.candidates.len(), 1, "only the greedy seed can exist");
    }

    #[test]
    fn expired_deadline_still_returns_the_greedy_floor() {
        let r = search(
            &test_layer(),
            &Architecture::eyeriss_base(),
            &SearchConfig::quick()
                .with_samples(1_000_000)
                .with_deadline(Duration::ZERO),
        )
        .unwrap();
        assert!(r.truncated, "a zero deadline must cut sampling short");
        assert_eq!(r.tier, SearchTier::Greedy);
        assert!(r.best().is_some(), "greedy floor survives the deadline");
    }

    #[test]
    fn injected_failure_surfaces_as_typed_error() {
        let layer = test_layer();
        let _scope = FaultScope::inject(FaultPlan::fail([layer.name()]));
        let err = search(
            &layer,
            &Architecture::eyeriss_base(),
            &SearchConfig::quick(),
        )
        .expect_err("fault plan must fail the search");
        assert_eq!(
            err,
            MapperError::InjectedFailure {
                layer: layer.name().to_string()
            }
        );
    }

    #[test]
    fn nan_poisoned_costs_are_rejected_not_propagated() {
        let layer = test_layer();
        let _scope = FaultScope::inject(FaultPlan::nan_cost([layer.name()]));
        let err = search(
            &layer,
            &Architecture::eyeriss_base(),
            &SearchConfig::quick(),
        )
        .expect_err("NaN costs must leave no retainable candidate");
        assert!(
            matches!(err, MapperError::NoValidMapping { .. }),
            "got {err}"
        );
    }

    /// [`insert_candidate`] as it was before the below-cutoff fast
    /// path, verbatim but for taking the mapping by reference.
    fn insert_candidate_full_scan(
        keep: &mut Vec<(Mapping, Evaluation)>,
        top_k: usize,
        mapping: &Mapping,
        eval: Evaluation,
    ) -> InsertOutcome {
        if !eval.energy_pj.is_finite() {
            return InsertOutcome::RejectedNonFinite;
        }
        if eval.latency_cycles >= SATURATED_LATENCY {
            return InsertOutcome::RejectedSaturated;
        }
        if keep.iter().any(|(m, _)| m == mapping) {
            return InsertOutcome::RejectedDuplicate;
        }
        let pos = keep
            .iter()
            .position(|(_, e)| better(&eval, e))
            .unwrap_or(keep.len());
        if pos < top_k {
            keep.insert(pos, (mapping.clone(), eval));
            keep.truncate(top_k);
            InsertOutcome::Inserted
        } else {
            InsertOutcome::RejectedBelowCutoff
        }
    }

    #[test]
    fn insert_fast_path_matches_the_full_scan() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use secureloop_loopnest::{AccessCounts, EnergyBreakdown};
        use secureloop_workload::Dim;

        let base = Mapping::untiled(&test_layer());
        let eval = |latency_cycles: u64, energy_pj: f64| Evaluation {
            counts: AccessCounts::default(),
            compute_cycles: latency_cycles,
            dram_cycles: 0,
            glb_cycles: 0,
            noc_cycles: 0,
            latency_cycles,
            energy_pj,
            energy: EnergyBreakdown::default(),
            utilization: 1.0,
            dram_total_bits: 0,
            dram_bits_by_dt: [0; 3],
            word_bits: 8,
        };
        let mut rng = StdRng::seed_from_u64(0x1_75e7);
        let (mut inserted, mut duplicates, mut cutoffs) = (0, 0, 0);
        for _ in 0..300 {
            // A pool of mappings, each priced once, on a coarse cost
            // grid: many ties, equal costs on distinct mappings, signed
            // zeros, NaN and saturated latencies.
            let pool: Vec<(Mapping, Evaluation)> = (0..10)
                .map(|i| {
                    let mut m = base.clone();
                    m.dram[Dim::N] = i + 1;
                    let latency = match rng.gen_range(0..20u32) {
                        0 => SATURATED_LATENCY + rng.gen_range(0..2u64),
                        _ => rng.gen_range(1..4u64),
                    };
                    let energy = match rng.gen_range(0..20u32) {
                        0 => f64::NAN,
                        1 => 0.0,
                        2 => -0.0,
                        _ => f64::from(rng.gen_range(1..4u32)),
                    };
                    (m, eval(latency, energy))
                })
                .collect();
            for top_k in 0..=5 {
                let (mut got_keep, mut want_keep) = (Vec::new(), Vec::new());
                for _ in 0..40 {
                    let (m, e) = &pool[rng.gen_range(0..pool.len())];
                    let got = insert_candidate(&mut got_keep, top_k, m, e.clone());
                    let want = insert_candidate_full_scan(&mut want_keep, top_k, m, e.clone());
                    assert_eq!(got, want, "top_k {top_k}");
                    assert_eq!(got_keep, want_keep, "top_k {top_k}");
                    match got {
                        InsertOutcome::Inserted => inserted += 1,
                        InsertOutcome::RejectedDuplicate => duplicates += 1,
                        InsertOutcome::RejectedBelowCutoff => cutoffs += 1,
                        _ => {}
                    }
                }
            }
        }
        // The streams reach every branch the fast path sits between.
        assert!(inserted > 0 && duplicates > 0 && cutoffs > 0);
    }

    #[test]
    fn saturated_latencies_never_enter_the_candidate_list() {
        // A zero-bandwidth crypto interface saturates dram_cycles; the
        // search must reject those candidates and report the failure as
        // an error instead of overflowing downstream totals.
        let layer = test_layer();
        let arch =
            Architecture::eyeriss_base().with_crypto(CryptoConfig::new(EngineClass::Parallel, 0));
        match search(&layer, &arch, &SearchConfig::quick()) {
            Ok(r) => {
                for (_, e) in &r.candidates {
                    assert!(e.latency_cycles < SATURATED_LATENCY);
                    assert!(e.energy_pj.is_finite());
                }
            }
            Err(MapperError::NoValidMapping { .. }) => {}
            Err(e) => panic!("unexpected error class: {e}"),
        }
    }
}
