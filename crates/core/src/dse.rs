//! Design space exploration: the sweeps behind paper Figs. 13–16.
//!
//! Sweeps are fault-tolerant: a design point whose schedule fails
//! entirely is recorded in [`SweepRun::skipped`] and the sweep moves
//! on, and [`evaluate_designs_sweep`] checkpoints every finished
//! design point so an interrupted sweep resumes without re-evaluating
//! completed work.
//!
//! # Supervised execution
//!
//! Every design point runs under [`crate::supervisor::run_supervised`]:
//! panics are caught, attempts can carry a wall-clock watchdog
//! ([`SupervisorConfig::task_timeout`]), and failures retry with
//! exponential backoff. A design point that exhausts its retries
//! panicking or stalling is poisoned: it is
//! quarantined in the checkpoint (so `--resume` skips it instead of
//! re-crashing), and the other design points are unaffected — their
//! results are byte-identical to a fault-free run. Cancelling
//! [`SweepOptions::cancel`] — or a process-wide shutdown request (see
//! [`crate::shutdown`]), which every token observes — stops workers
//! between design points and in-flight searches at their next chunk
//! boundary; the partial [`SweepRun`] comes back with
//! [`SweepRun::interrupted`] set after the checkpoint and candidate
//! cache have been flushed, so the run is resumable.
//!
//! # Incremental evaluation
//!
//! [`evaluate_designs_sweep`] is the incremental engine: design points
//! run on a worker pool ([`SweepOptions::workers`]) that share one
//! cross-design [`CandidateCache`], so per-layer mapper searches whose
//! canonical key (see `secureloop_loopnest::SearchSpaceKey`) repeats
//! across design points — or across `--resume` invocations, via the
//! on-disk cache file next to the [`SweepCheckpoint`] — are computed
//! once. In random mode a search that misses also covers the other
//! pending designs with the same PE array, register file and dataflow:
//! they draw the same mapping stream, so one group search prices it for
//! all of them and fills their cache entries (see
//! `secureloop_mapper::search_cached`). The designs also share one
//! AuthBlock overhead memo
//! ([`crate::segment::OverheadCache`]), made fresh per call, so a
//! per-tensor assignment problem that recurs across design points is
//! optimised once per sweep. Determinism is preserved exactly as in
//! the mapper: every design point owns a fixed result slot, workers
//! pull indices from an atomic queue, and results merge in design
//! order, so the [`SweepRun`] is byte-identical for any worker count
//! and any cache state.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use secureloop_arch::{Architecture, DramSpec};
use secureloop_artifact::{self as artifact, DurabilityPolicy};
use secureloop_crypto::{CryptoConfig, EngineClass, SchemeId};
use secureloop_energy::AreaModel;
use secureloop_mapper::{cancel, CancelToken, CandidateCache, SearchConfig};
use secureloop_telemetry::{self as telemetry, Counter};
use secureloop_workload::Network;

use crate::annealing::AnnealingConfig;
use crate::checkpoint::SweepCheckpoint;
use crate::error::SecureLoopError;
use crate::scheduler::{Algorithm, NetworkSchedule, Scheduler};
use crate::segment::OverheadCache;
use crate::supervisor::{self, SupervisedOutcome, SupervisorConfig};

static DESIGNS_EVALUATED: Counter = Counter::new("dse.designs_evaluated");
static DESIGNS_REUSED: Counter = Counter::new("dse.designs_reused");
static DESIGNS_SKIPPED: Counter = Counter::new("dse.designs_skipped");
static DESIGNS_POISONED: Counter = Counter::new("dse.designs_poisoned");
static SWEEP_INTERRUPTED: Counter = Counter::new("dse.interrupted");

/// One evaluated design point.
#[derive(Debug, Clone)]
pub struct DseResult {
    /// Design label.
    pub label: String,
    /// Area model of the design.
    pub area: AreaModel,
    /// The resulting schedule.
    pub schedule: NetworkSchedule,
}

impl DseResult {
    /// Total die area in mm².
    pub fn area_mm2(&self) -> f64 {
        self.area.total_mm2()
    }

    /// Latency in cycles.
    pub fn latency(&self) -> u64 {
        self.schedule.total_latency_cycles
    }
}

/// The cryptographic-engine configurations of paper Fig. 13.
pub fn fig13_engine_configs() -> Vec<CryptoConfig> {
    vec![
        CryptoConfig::new(EngineClass::Parallel, 1),
        CryptoConfig::new(EngineClass::Parallel, 5),
        CryptoConfig::new(EngineClass::Pipelined, 1),
        CryptoConfig::new(EngineClass::Parallel, 10),
        CryptoConfig::new(EngineClass::Serial, 30),
        CryptoConfig::new(EngineClass::Pipelined, 2),
    ]
}

/// The PE-array shapes of paper Fig. 14.
pub const FIG14_PE_ARRAYS: [(usize, usize); 3] = [(14, 12), (14, 24), (28, 24)];

/// The GLB capacities (kB) of paper Fig. 15.
pub const FIG15_GLB_KB: [u64; 3] = [16, 32, 131];

/// The DRAM interfaces of the paper's §5.2 DRAM-technology study.
pub fn dram_configs() -> Vec<DramSpec> {
    vec![
        DramSpec::lpddr4_64(),
        DramSpec::lpddr4_128(),
        DramSpec::hbm2_64(),
    ]
}

/// The Fig. 16 design space: PE array × GLB size × engine class
/// (one engine per datatype), all scheduled with `Crypt-Opt-Cross`.
pub fn fig16_design_space() -> Vec<Architecture> {
    let mut designs = Vec::new();
    for &(x, y) in &FIG14_PE_ARRAYS {
        for &kb in &FIG15_GLB_KB {
            for class in [EngineClass::Pipelined, EngineClass::Parallel] {
                designs.push(
                    Architecture::eyeriss_base()
                        .with_pe_array(x, y)
                        .with_glb_kb(kb)
                        .with_crypto(CryptoConfig::new(class, 3))
                        .with_name(format!("{x}x{y}/{kb}kB/{class}")),
                );
            }
        }
    }
    designs
}

/// Re-price one design under a protection scheme.
///
/// `none` strips the crypto configuration (the unprotected baseline);
/// any other scheme re-prices the existing engine configuration via
/// [`CryptoConfig::with_scheme`], adopting the scheme's default tag
/// width. The design's name is kept: a scheme selection applies to a
/// whole run, so labels stay comparable across schemes.
///
/// # Errors
///
/// A client-facing reason when the design has no engine configuration
/// to re-price, or when the scheme cannot be realised on the design's
/// engine class (e.g. `seculator` on `Serial`).
pub fn apply_scheme(arch: &Architecture, scheme: SchemeId) -> Result<Architecture, String> {
    match scheme {
        SchemeId::None => Ok(arch.clone().without_crypto()),
        s => {
            let cc = arch.crypto().ok_or_else(|| {
                format!("scheme '{s}' needs a crypto engine configuration (engines > 0)")
            })?;
            if !s.model().supports(cc.class) {
                return Err(format!(
                    "scheme '{s}' does not support the {} engine class",
                    cc.class
                ));
            }
            let repriced = cc.clone().with_scheme(s);
            Ok(arch.clone().with_crypto(repriced))
        }
    }
}

/// The Fig. 16 designs a `dse` run or a service job sweeps: `labels`
/// resolved against [`fig16_design_space`] in the order given (empty =
/// the whole space, in space order), re-priced under `scheme` when one
/// is chosen.
///
/// With explicit labels, a scheme that cannot be realised on a named
/// design's engine class is an error (the caller asked for a
/// contradiction). With the whole space, unsupported designs are
/// filtered out instead — "the whole space under scheme S" means the
/// supported part of it.
///
/// # Errors
///
/// Names the first unknown label or invalid scheme/class pairing, or
/// a scheme that supports no design in the space.
pub fn fig16_designs(
    labels: &[String],
    scheme: Option<SchemeId>,
) -> Result<Vec<Architecture>, String> {
    let space = fig16_design_space();
    if labels.is_empty() {
        let Some(s) = scheme else {
            return Ok(space);
        };
        let kept: Vec<Architecture> = space
            .iter()
            .filter_map(|a| apply_scheme(a, s).ok())
            .collect();
        if kept.is_empty() {
            return Err(format!("scheme '{s}' supports no design in the space"));
        }
        return Ok(kept);
    }
    let named: Vec<Architecture> = labels
        .iter()
        .map(|want| {
            space
                .iter()
                .find(|a| a.name() == want)
                .cloned()
                .ok_or_else(|| format!("unknown design '{want}'"))
        })
        .collect::<Result<_, _>>()?;
    let Some(s) = scheme else {
        return Ok(named);
    };
    named
        .iter()
        .map(|a| apply_scheme(a, s).map_err(|e| format!("design '{}': {e}", a.name())))
        .collect()
}

/// One completed sweep (possibly resumed from a checkpoint).
#[derive(Debug, Clone, Default)]
pub struct SweepRun {
    /// Successfully evaluated design points, in design order.
    pub results: Vec<DseResult>,
    /// `(design label, error)` for design points whose schedule failed
    /// entirely; the sweep continued past them.
    pub skipped: Vec<(String, String)>,
    /// Design points evaluated by *this* invocation.
    pub evaluated: usize,
    /// Design points restored from the checkpoint without re-running.
    /// Distinct from [`SweepRun::cache_hits`]: `reused` counts whole
    /// *design points* skipped via the checkpoint, `cache_hits` counts
    /// per-layer *mapper searches* answered by the candidate cache
    /// while a design point ran.
    pub reused: usize,
    /// Per-layer mapper searches answered from the candidate cache.
    pub cache_hits: u64,
    /// Per-layer mapper searches the cache had to compute.
    pub cache_misses: u64,
    /// Non-fatal problems (e.g. a corrupted cache file that was
    /// ignored), for the caller to surface.
    pub warnings: Vec<String>,
    /// `(design label, cause)` for design points the supervisor
    /// quarantined: they exhausted their retries panicking or timing
    /// out. Recorded in the checkpoint so a resumed sweep skips them.
    pub poisoned: Vec<(String, String)>,
    /// Whether a cancellation stopped the sweep before every design
    /// point resolved. The checkpoint and candidate cache were flushed;
    /// re-running with resume completes the remainder.
    pub interrupted: bool,
    /// Whether persistence failed mid-run (disk full, read-only
    /// filesystem) and the sweep fell back to degraded in-memory mode:
    /// results are complete and correct, but checkpoint/cache state may
    /// not have reached disk. Maps to the "completed with degradations"
    /// exit code. Details are in [`SweepRun::warnings`].
    pub degraded_persistence: bool,
}

impl SweepRun {
    /// Fraction of cache-eligible mapper searches answered from the
    /// cache (0 when the cache was disabled or never consulted).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// Knobs for [`evaluate_designs_sweep`].
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Where to checkpoint finished design points (atomic writes after
    /// every design). `None` disables checkpointing.
    pub checkpoint_path: Option<PathBuf>,
    /// Restore design points already present in a matching checkpoint
    /// instead of re-evaluating them.
    pub resume: bool,
    /// Share per-layer mapper searches across design points through a
    /// [`CandidateCache`].
    pub use_cache: bool,
    /// On-disk home of the candidate cache. Defaults to the checkpoint
    /// path with a `.cache.json` extension; `None` with no checkpoint
    /// keeps the cache in memory only.
    pub cache_path: Option<PathBuf>,
    /// Worker threads evaluating independent design points (0 and 1
    /// both mean sequential). The result is byte-identical for any
    /// value.
    pub workers: usize,
    /// Panic/timeout/retry policy for the per-design supervisor.
    pub supervisor: SupervisorConfig,
    /// A caller-owned [`CandidateCache`] to use instead of loading one
    /// from [`SweepOptions::cache_path`]. The service hands every job
    /// the same process-wide warm cache this way; the sweep neither
    /// loads nor saves it (the owner controls persistence), and
    /// [`SweepRun::cache_hits`]/[`SweepRun::cache_misses`] report this
    /// invocation's delta (approximate when jobs share concurrently).
    pub shared_cache: Option<Arc<CandidateCache>>,
    /// The sweep's cancellation token, parent of every design point's
    /// attempt token. When it trips (its owner cancelled it, or a
    /// process-wide shutdown was requested), workers stop picking up
    /// design points and in-flight searches exit at their next chunk
    /// boundary. The run comes back [`SweepRun::interrupted`].
    pub cancel: CancelToken,
    /// How hard checkpoint/cache writes try to make it to disk (fsync,
    /// retries, backoff). When retries are exhausted the sweep keeps
    /// computing in degraded in-memory mode instead of aborting — see
    /// [`SweepRun::degraded_persistence`].
    pub durability: DurabilityPolicy,
}

impl Default for SweepOptions {
    /// Cache on, sequential, no checkpoint — the default for plain
    /// sweeps.
    fn default() -> Self {
        SweepOptions {
            checkpoint_path: None,
            resume: false,
            use_cache: true,
            cache_path: None,
            workers: 0,
            supervisor: SupervisorConfig::default(),
            shared_cache: None,
            cancel: CancelToken::new(),
            durability: DurabilityPolicy::default(),
        }
    }
}

impl SweepOptions {
    /// The [`Default`] options.
    pub fn new() -> Self {
        SweepOptions::default()
    }

    /// Set the checkpoint path.
    pub fn with_checkpoint(mut self, path: impl Into<PathBuf>) -> Self {
        self.checkpoint_path = Some(path.into());
        self
    }

    /// Enable resuming from an existing checkpoint.
    pub fn with_resume(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }

    /// Enable or disable the cross-design candidate cache.
    pub fn with_cache(mut self, use_cache: bool) -> Self {
        self.use_cache = use_cache;
        self
    }

    /// Set an explicit on-disk cache file.
    pub fn with_cache_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.cache_path = Some(path.into());
        self
    }

    /// Set the worker-pool size.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Replace the whole supervisor policy.
    pub fn with_supervisor(mut self, supervisor: SupervisorConfig) -> Self {
        self.supervisor = supervisor;
        self
    }

    /// Use a caller-owned candidate cache (implies `use_cache`); the
    /// sweep will not load or persist it.
    pub fn with_shared_cache(mut self, cache: Arc<CandidateCache>) -> Self {
        self.use_cache = true;
        self.shared_cache = Some(cache);
        self
    }

    /// Replace the sweep's cancellation token.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = token;
        self
    }

    /// Replace the durability policy for checkpoint/cache writes.
    pub fn with_durability(mut self, durability: DurabilityPolicy) -> Self {
        self.durability = durability;
        self
    }

    /// The effective cache-file location: the explicit
    /// [`SweepOptions::cache_path`], else a `.cache.json` sibling of
    /// the checkpoint, else none (in-memory only).
    pub fn effective_cache_path(&self) -> Option<PathBuf> {
        if !self.use_cache {
            return None;
        }
        self.cache_path.clone().or_else(|| {
            self.checkpoint_path
                .as_ref()
                .map(|p| p.with_extension("cache.json"))
        })
    }
}

/// Evaluate a set of designs on one workload, sequentially and without
/// a candidate cache. Design points that fail entirely are skipped (see
/// [`SweepRun::skipped`] via [`evaluate_designs_sweep`] for the full
/// accounting).
pub fn evaluate_designs(
    network: &Network,
    designs: &[Architecture],
    algorithm: Algorithm,
    search: &SearchConfig,
    annealing: &AnnealingConfig,
) -> Vec<DseResult> {
    let opts = SweepOptions {
        workers: 1,
        use_cache: false,
        ..SweepOptions::default()
    };
    evaluate_designs_sweep(network, designs, algorithm, search, annealing, &opts)
        .map(|run| run.results)
        .unwrap_or_default()
}

/// How one design point resolved within a sweep. The checkpoint holds
/// an evaluated design's schedule and a poisoned design's cause.
enum DesignOutcome {
    /// The design point produced a schedule.
    Evaluated,
    /// The design point failed with a typed error (after retries) and
    /// the sweep moved on.
    Skipped(String),
    /// The design point exhausted its supervised retries panicking or
    /// stalling, and is quarantined.
    Poisoned,
}

/// The incremental DSE engine: design points evaluated by a worker
/// pool, with checkpoint/resume and a cross-design candidate cache.
///
/// Design points are assigned fixed result slots up front; workers pull
/// indices from one queue ([`cancel::run_ordered`]) and the finished
/// slots merge in design order, so for a deadline-free [`SearchConfig`]
/// the returned [`SweepRun`] is byte-identical for any
/// [`SweepOptions::workers`] value and for any cache state (a cache hit
/// returns exactly what the search it memoised computed — see
/// `secureloop_mapper::cache`).
///
/// The sweep's [`SweepCheckpoint`] is its single store of finished
/// schedules, with or without a path, keyed by design label (a label
/// names one design): each evaluated schedule moves into it, and the
/// merge moves them out in design order. With
/// [`SweepOptions::checkpoint_path`] set, the checkpoint is written
/// (atomically) to that file after every finished design point; with
/// [`SweepOptions::resume`] also set, design points already present in
/// a matching checkpoint are restored instead of re-evaluated. A
/// checkpoint written for a different workload or algorithm is ignored,
/// not trusted.
///
/// A corrupted or mismatched on-disk cache is ignored with an entry in
/// [`SweepRun::warnings`], never an error: it only costs recomputation.
///
/// # Errors
///
/// Persistence failures never error: a checkpoint or cache write that
/// exhausts its [`SweepOptions::durability`] retries flips the run into
/// degraded in-memory mode ([`SweepRun::degraded_persistence`]) and the
/// sweep keeps computing. A corrupted checkpoint under `resume` is
/// salvaged record-by-record or recovered from its `.bak` generation
/// where possible, else degrades to a cold start — each with a
/// [`SweepRun::warnings`] entry (losing a checkpoint only costs
/// recomputation). Individual design-point failures do *not* error —
/// they land in [`SweepRun::skipped`] or [`SweepRun::poisoned`].
pub fn evaluate_designs_sweep(
    network: &Network,
    designs: &[Architecture],
    algorithm: Algorithm,
    search: &SearchConfig,
    annealing: &AnnealingConfig,
    opts: &SweepOptions,
) -> Result<SweepRun, SecureLoopError> {
    let mut run = SweepRun::default();

    // A previous invocation killed between temp-write and rename leaves
    // a torn temp file next to the checkpoint (and cache) file; sweep it
    // away before trusting or writing anything here.
    if let Some(path) = &opts.checkpoint_path {
        artifact::remove_stale_temp(path);
    }
    if let Some(path) = opts.effective_cache_path() {
        artifact::remove_stale_temp(&path);
    }

    let fresh = || SweepCheckpoint::new(network.name(), algorithm);
    let ckpt = match (&opts.checkpoint_path, opts.resume) {
        (Some(path), true) => {
            match artifact::load_warm::<SweepCheckpoint>(path, "checkpoint", &mut run.warnings) {
                Ok(Some(c)) if c.matches(network.name(), algorithm) => c,
                Ok(_) => fresh(),
                Err(e) => {
                    // The load error already names the file.
                    run.warnings
                        .push(format!("ignoring corrupted checkpoint: {e}; starting cold"));
                    fresh()
                }
            }
        }
        _ => fresh(),
    };

    // A caller-owned cache (the service's process-wide warm cache)
    // takes precedence: the sweep uses it in place and leaves loading
    // and persistence to its owner.
    let cache_path = if opts.shared_cache.is_some() {
        None
    } else {
        opts.effective_cache_path()
    };
    let cache: Option<Arc<CandidateCache>> = if let Some(shared) = &opts.shared_cache {
        Some(Arc::clone(shared))
    } else if opts.use_cache {
        let loaded = match &cache_path {
            Some(path) => artifact::load_warm(path, "candidate cache", &mut run.warnings)
                .unwrap_or_else(|e| {
                    run.warnings.push(format!(
                        "ignoring candidate cache '{}': {e}",
                        path.display()
                    ));
                    None
                }),
            None => None,
        };
        Some(Arc::new(loaded.unwrap_or_default()))
    } else {
        None
    };
    let stats_base = cache.as_ref().map(|c| (c.hits(), c.misses()));
    // One AuthBlock overhead memo for the whole sweep: the designs of a
    // space repeat most per-tensor problems, and its key fully
    // determines its value, so sharing it never changes a result.
    let overheads = Arc::new(OverheadCache::new());

    // Fixed slot per design point. Checkpointed designs (finished or
    // quarantined) fill theirs before the pool starts; the queue only
    // carries the rest.
    let mut slots: Vec<Option<DesignOutcome>> = Vec::with_capacity(designs.len());
    for arch in designs {
        if ckpt.get(arch.name()).is_some() {
            run.reused += 1;
            DESIGNS_REUSED.incr();
            slots.push(Some(DesignOutcome::Evaluated));
        } else if ckpt.poisoned_cause(arch.name()).is_some() {
            // Quarantined by a previous invocation: report it without
            // re-running it (that is the point of the quarantine).
            DESIGNS_POISONED.incr();
            slots.push(Some(DesignOutcome::Poisoned));
        } else {
            slots.push(None);
        }
    }
    let pending: Vec<usize> = slots
        .iter()
        .enumerate()
        .filter(|(_, s)| s.is_none())
        .map(|(i, _)| i)
        .collect();

    // A random-mode search that misses the cache also serves the other
    // pending designs that share its draw stream.
    let siblings: Arc<[Architecture]> = pending.iter().map(|&i| designs[i].clone()).collect();

    let ckpt_state: Mutex<(SweepCheckpoint, Option<SecureLoopError>)> = Mutex::new((ckpt, None));
    // Records are written in design order, so the checkpoint's bytes do
    // not depend on which worker finished first. After the first
    // exhausted-retries failure the disk is presumed gone (full,
    // read-only): stop paying retry backoff per design and keep
    // computing in-memory. The run is reported degraded.
    let rank: HashMap<&str, usize> = designs
        .iter()
        .enumerate()
        .map(|(i, a)| (a.name(), i))
        .collect();
    let save = |state: &mut (SweepCheckpoint, Option<SecureLoopError>)| {
        if let (Some(path), None) = (&opts.checkpoint_path, &state.1) {
            state
                .0
                .order_by(|label| rank.get(label).copied().unwrap_or(usize::MAX));
            if let Err(e) = state.0.save_with(path, &opts.durability) {
                state.1 = Some(e);
            }
        }
    };
    // `None` from `evaluate_one` means a cancellation stopped the
    // design point before it resolved: the slot stays unfilled and the
    // merge marks the run interrupted.
    let evaluate_one = |idx: usize| -> (usize, Option<DesignOutcome>) {
        let arch = &designs[idx];
        let label = arch.name().to_string();
        let mut span = telemetry::span("dse", label.clone());
        // Tag every search with its protection scheme so traces from a
        // scheme-matrix run can be sliced per backend.
        let scheme = arch
            .crypto()
            .map(|c| c.scheme.name())
            .unwrap_or(SchemeId::None.name());
        span.add_field("scheme", scheme);
        // The supervisor may run the attempt on a watchdog thread, so
        // the task must own (`'static`) everything it touches; it must
        // also be `Clone` so a panicking attempt can be retried.
        let task = {
            let arch = arch.clone();
            let network = network.clone();
            let cache = cache.clone();
            let siblings = Arc::clone(&siblings);
            let overheads = Arc::clone(&overheads);
            let search = *search;
            let annealing = *annealing;
            move || {
                let mut scheduler = Scheduler::new(arch)
                    .with_search(search)
                    .with_annealing(annealing)
                    .with_overhead_cache(Arc::clone(&overheads));
                if let Some(cache) = &cache {
                    scheduler = scheduler
                        .with_candidate_cache(Arc::clone(cache))
                        .with_siblings(Arc::clone(&siblings));
                }
                scheduler.schedule(&network, algorithm)
            }
        };
        match supervisor::run_supervised(&label, &opts.supervisor, &opts.cancel, task) {
            SupervisedOutcome::Completed { value: s, attempts } => {
                DESIGNS_EVALUATED.incr();
                span.add_field("outcome", "evaluated");
                if attempts > 1 {
                    span.add_field("attempts", attempts.to_string());
                }
                let mut state = ckpt_state.lock().expect("checkpoint lock");
                state.0.insert(label, s);
                save(&mut state);
                (idx, Some(DesignOutcome::Evaluated))
            }
            SupervisedOutcome::Failed { error, .. } => {
                DESIGNS_SKIPPED.incr();
                span.add_field("outcome", "skipped");
                (idx, Some(DesignOutcome::Skipped(error.to_string())))
            }
            SupervisedOutcome::Poisoned { cause, .. } => {
                DESIGNS_POISONED.incr();
                span.add_field("outcome", "poisoned");
                let mut state = ckpt_state.lock().expect("checkpoint lock");
                state.0.insert_poisoned(label, cause);
                save(&mut state);
                (idx, Some(DesignOutcome::Poisoned))
            }
            SupervisedOutcome::Cancelled => {
                span.add_field("outcome", "cancelled");
                (idx, None)
            }
        }
    };
    // A cancelled sweep stops each worker before its next design point.
    let finished = cancel::run_ordered(pending.len(), opts.workers, |_, k| {
        if opts.cancel.is_cancelled() {
            return ((pending[k], None), true);
        }
        (evaluate_one(pending[k]), false)
    });
    for (idx, outcome) in finished {
        if matches!(outcome, Some(DesignOutcome::Evaluated)) {
            run.evaluated += 1;
        }
        slots[idx] = outcome;
    }
    let (mut ckpt, persist_error) = ckpt_state.into_inner().expect("checkpoint lock");
    if let Some(e) = persist_error {
        // Persistent I/O failure (ENOSPC, EROFS) must never abort a
        // sweep: the results above are complete and correct, only the
        // on-disk state is behind. Degrade instead of erroring.
        run.degraded_persistence = true;
        run.warnings.push(format!(
            "persistence degraded: {e}; checkpoint writes suspended, \
             continuing in-memory"
        ));
    }

    // Merge in design order — the determinism contract. An unfilled
    // slot means a cancellation stopped the sweep early: the run
    // is reported interrupted (and resumable), never half-merged.
    let mut interrupted = opts.cancel.is_cancelled();
    for (i, (arch, slot)) in designs.iter().zip(slots).enumerate() {
        let label = arch.name();
        let Some(outcome) = slot else {
            interrupted = true;
            continue;
        };
        if let DesignOutcome::Skipped(error) = outcome {
            run.skipped.push((label.to_string(), error));
            continue;
        }
        // Evaluated and poisoned designs resolve from the checkpoint: a
        // label's last occurrence moves its schedule out, earlier ones copy.
        match ckpt.resolve(label, rank[label] == i) {
            Ok(schedule) => run.results.push(DseResult {
                label: label.to_string(),
                area: AreaModel::of(arch),
                schedule,
            }),
            Err(cause) => run.poisoned.push((label.to_string(), cause)),
        }
    }
    run.interrupted = interrupted;
    if interrupted {
        SWEEP_INTERRUPTED.incr();
    }

    if let Some(cache) = &cache {
        let (h0, m0) = stats_base.unwrap_or((0, 0));
        run.cache_hits = cache.hits().saturating_sub(h0);
        run.cache_misses = cache.misses().saturating_sub(m0);
        if let Some(path) = &cache_path {
            if let Err(e) = cache.save_with(path, &opts.durability) {
                run.degraded_persistence = true;
                run.warnings.push(format!(
                    "could not save candidate cache '{}': {e}",
                    path.display()
                ));
            }
        }
    }
    if interrupted {
        // A drain (SIGINT/SIGTERM) usually exits the process shortly
        // after this returns; flush the trace sink now so a buffered
        // `--trace-out` file is not truncated mid-event.
        telemetry::flush_sink();
    }
    Ok(run)
}

/// Indices of the area/latency Pareto front (lower is better on both
/// axes), sorted by area.
pub fn pareto_front(results: &[DseResult]) -> Vec<usize> {
    let mut front: Vec<usize> = (0..results.len())
        .filter(|&i| {
            !results.iter().enumerate().any(|(j, r)| {
                j != i
                    && r.area_mm2() <= results[i].area_mm2()
                    && r.latency() <= results[i].latency()
                    && (r.area_mm2() < results[i].area_mm2() || r.latency() < results[i].latency())
            })
        })
        .collect();
    front.sort_by(|&a, &b| {
        results[a]
            .area_mm2()
            .partial_cmp(&results[b].area_mm2())
            .expect("areas are finite")
    });
    front
}

#[cfg(test)]
mod tests {
    use super::*;
    use secureloop_workload::zoo;

    #[test]
    fn fig13_configs_match_paper() {
        let cfgs = fig13_engine_configs();
        assert_eq!(cfgs.len(), 6);
        assert_eq!(cfgs[4].label(), "Serial x30");
    }

    #[test]
    fn fig16_space_has_18_designs() {
        let d = fig16_design_space();
        assert_eq!(d.len(), 18);
        // All secure.
        assert!(d.iter().all(|a| a.is_secure()));
    }

    #[test]
    fn pareto_front_dominates() {
        // Evaluate a tiny slice of the space with a small budget.
        let net = zoo::alexnet_conv();
        let designs: Vec<Architecture> = fig16_design_space().into_iter().take(4).collect();
        let results = evaluate_designs(
            &net,
            &designs,
            Algorithm::CryptOptSingle,
            &SearchConfig::quick(),
            &AnnealingConfig::quick(),
        );
        let front = pareto_front(&results);
        assert!(!front.is_empty());
        // No front member is dominated by any result.
        for &i in &front {
            for r in &results {
                let dominated =
                    r.area_mm2() < results[i].area_mm2() && r.latency() < results[i].latency();
                assert!(!dominated);
            }
        }
        // Front is sorted by area.
        for w in front.windows(2) {
            assert!(results[w[0]].area_mm2() <= results[w[1]].area_mm2());
        }
    }

    #[test]
    fn interrupted_sweep_resumes_without_reevaluating() {
        let net = zoo::alexnet_conv();
        let designs: Vec<Architecture> = fig16_design_space().into_iter().take(3).collect();
        let dir = std::env::temp_dir().join("secureloop-dse-resume-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sweep.json");
        let _ = std::fs::remove_file(&path);

        // "Interrupted" run: only the first two design points finish.
        let sequential = |resume: bool| SweepOptions {
            checkpoint_path: Some(path.clone()),
            resume,
            workers: 1,
            use_cache: false,
            ..SweepOptions::default()
        };
        let partial = evaluate_designs_sweep(
            &net,
            &designs[..2],
            Algorithm::CryptOptSingle,
            &SearchConfig::quick(),
            &AnnealingConfig::quick(),
            &sequential(false),
        )
        .unwrap();
        assert_eq!(partial.evaluated, 2);
        assert_eq!(partial.reused, 0);
        assert!(path.exists());

        // Re-invocation with --resume semantics: finished points are
        // restored, only the remaining one runs.
        let resumed = evaluate_designs_sweep(
            &net,
            &designs,
            Algorithm::CryptOptSingle,
            &SearchConfig::quick(),
            &AnnealingConfig::quick(),
            &sequential(true),
        )
        .unwrap();
        assert_eq!(resumed.reused, 2);
        assert_eq!(resumed.evaluated, 1);
        assert_eq!(resumed.results.len(), 3);
        for (r, d) in resumed.results.iter().zip(&designs) {
            assert_eq!(r.label, d.name());
        }
        // The restored schedules match what the partial run computed.
        assert_eq!(
            resumed.results[0].schedule.total_latency_cycles,
            partial.results[0].schedule.total_latency_cycles
        );

        // A checkpoint for a different workload is ignored, not trusted.
        let other = zoo::resnet18();
        let fresh = evaluate_designs_sweep(
            &other,
            &designs[..1],
            Algorithm::CryptOptSingle,
            &SearchConfig::quick(),
            &AnnealingConfig::quick(),
            &sequential(true),
        )
        .unwrap();
        assert_eq!(fresh.reused, 0);
        assert_eq!(fresh.evaluated, 1);
        let _ = std::fs::remove_file(&path);
    }
}
