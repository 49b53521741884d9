//! The two design-space sweeps: `fig16-alexnet` (AuthBlock-heavy) and
//! `tile-mobilenet` (mapper-heavy).
//!
//! The workload is one sweep per mapper seed (see [`Kind`] for where
//! the seeds come from). A pass is one sweep in a fresh child process
//! and a fresh state
//! directory, so nothing one pass leaves in process memory (a cache, a
//! memo) reaches the next. Passes cycle through the seeds until
//! `--seconds` is spent, at least twice per seed, so each seed's time
//! is a median over passes taken at different moments of the run.
//! Plain passes call the dse layer (`evaluate_designs_sweep`) as the
//! `dse` command does, but with one sweep worker and one mapper thread.
//! Traced passes re-drive the same sweep one layer call at a time
//! (`Scheduler::candidates`, `Scheduler::schedule_with_candidates`,
//! `SweepCheckpoint::save_with`, `CandidateCache::save_with`) inside
//! benchmark spans, and must return byte-identical schedules and
//! checkpoint files. Host times are turned into reference seconds by
//! the run's calibrations ([`host::calibrate`]).

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::Instant;

use secureloop::annealing::AnnealingConfig;
use secureloop::artifact::DurabilityPolicy;
use secureloop::checkpoint::schedule_to_json;
use secureloop::dse::{evaluate_designs_sweep, fig16_design_space, SweepOptions};
use secureloop::segment::segment_tensor_cases;
use secureloop::{Algorithm, NetworkSchedule, Scheduler, SweepCheckpoint};
use secureloop_arch::Architecture;
use secureloop_authblock::optimize;
use secureloop_json::Json;
use secureloop_loopnest::evaluate;
use secureloop_mapper::{CandidateCache, SearchConfig, SearchMode};
use secureloop_telemetry::{self as telemetry, Snapshot};
use secureloop_workload::{zoo, Network};

use crate::trace::{self_time_table, LayerTime, Tracer};
use crate::{
    fresh_dir, host, median, ratio, repeat, splitmix, write_spans, Args, Outcome, PassArgs,
    EXACT_COUNTS,
};

/// Set-up processes per run; the median is reported.
const SETUP_REPS: usize = 31;
/// Repetitions of the loopnest re-evaluation behind `loopnest.eval_us`.
const LOOPNEST_REPS: usize = 20;
/// A single-threaded pass may not burn more CPU than this multiple of
/// its wall time: more means a second busy thread, the noise source
/// this benchmark is built to avoid.
const MAX_BUSY_THREADS: f64 = 1.2;

/// Which sweep to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// AlexNet conv1-5 over the 18 Fig. 16 designs, Crypt-Opt-Cross,
    /// guided search, full-durability checkpoint after every design.
    Fig16Alexnet,
    /// MobileNetV2 over the 18 Fig. 16 designs, Crypt-Tile-Single, the
    /// paper's random-pruned search, no checkpoint.
    TileMobilenet,
}

impl Kind {
    /// Mapper seeds in the workload: one AlexNet sweep (~5 s) or three
    /// MobileNetV2 sweeps (~3.5 s each) per cycle of passes. Three
    /// MobileNetV2 seeds kept the spread of its simulated overhead over
    /// ten runs at 6%; with two it reached 19% over five.
    fn seeds(self) -> usize {
        match self {
            Kind::Fig16Alexnet => 1,
            Kind::TileMobilenet => 3,
        }
    }

    /// Whether the mapper seeds come from `--seed`. The AuthBlock cost
    /// of a Crypt-Opt-Cross sweep depends on the mappings a seed finds:
    /// one AlexNet sweep made 33-57 million congruence calls over 24
    /// seeds, and with two seeds drawn from `--seed`, `run_s` spread by
    /// 20-32% over ten runs. AlexNet therefore sweeps the fixed seed 1,
    /// and `--seed` only sets the design order. A random-mode search
    /// draws a fixed number of samples whatever its seed, so
    /// MobileNetV2's seeds come from `--seed`.
    fn seeds_from_arg(self) -> bool {
        self == Kind::TileMobilenet
    }
}

/// Everything one workload needs; building it is the set-up.
pub struct Sweep {
    kind: Kind,
    network: Network,
    designs: Vec<Architecture>,
    algorithm: Algorithm,
    mode: SearchMode,
    /// Mapper and annealing seeds, one sweep each.
    seeds: Vec<u64>,
    /// Checkpoint (and candidate-cache file) at full durability.
    persist: bool,
}

/// A design's label and its schedule or error.
type Scheduled = (String, Result<NetworkSchedule, String>);

/// One sweep, as run inside a pass process.
struct Pass {
    wall_s: f64,
    cpu_s: f64,
    /// `(design label, schedule or error)` in design order.
    schedules: Vec<Scheduled>,
    counts: BTreeMap<&'static str, u64>,
    /// Run-level problems the dse layer reported (warnings, degraded
    /// persistence, interruption).
    notes: Vec<String>,
}

impl Sweep {
    /// Build the workload: the work its set-up time covers.
    pub fn new(kind: Kind, seed: u64) -> Sweep {
        let (network, algorithm, mode, persist) = match kind {
            Kind::Fig16Alexnet => (
                zoo::alexnet_conv(),
                Algorithm::CryptOptCross,
                SearchMode::Guided,
                true,
            ),
            Kind::TileMobilenet => (
                zoo::mobilenet_v2(),
                Algorithm::CryptTileSingle,
                SearchMode::Random,
                false,
            ),
        };
        // The first sweep uses `--seed` itself; the rest come from a
        // generator seeded with it.
        let mut state = seed;
        let seeds = (0..kind.seeds() as u64)
            .map(|k| match (kind.seeds_from_arg(), k) {
                (false, k) => k + 1,
                (true, 0) => seed,
                (true, _) => splitmix(&mut state),
            })
            .collect();
        // `--seed` also sets the order the designs are swept in.
        let mut designs = fig16_design_space();
        let mut state = !seed;
        for i in (1..designs.len()).rev() {
            let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
            designs.swap(i, j);
        }
        Sweep {
            kind,
            network,
            designs,
            algorithm,
            mode,
            seeds,
            persist,
        }
    }

    /// The CLI's `dse` budgets (3000-sample cap, top-4 candidates, 300
    /// annealing iterations) on one mapper thread.
    fn configs(&self, seed: usize) -> (SearchConfig, AnnealingConfig) {
        let seed = self.seeds[seed];
        let search = SearchConfig {
            samples: 3000,
            top_k: 4,
            seed,
            threads: 1,
            deadline: None,
            mode: self.mode,
        };
        let annealing = AnnealingConfig::paper_default()
            .with_iterations(300)
            .with_seed(seed);
        (search, annealing)
    }

    fn checkpoint_path(dir: &Path) -> PathBuf {
        dir.join("sweep.ckpt.json")
    }

    /// One plain pass through the dse layer.
    fn pass_dse(&self, seed: usize, dir: &Path) -> Result<Pass, String> {
        let (search, annealing) = self.configs(seed);
        let ckpt = Self::checkpoint_path(dir);
        let mut opts = SweepOptions::new()
            .with_workers(1)
            .with_durability(DurabilityPolicy::full());
        if self.persist {
            opts = opts.with_checkpoint(&ckpt);
        }
        telemetry::reset();
        let cpu0 = host::cpu_s("self")?;
        let t0 = Instant::now();
        let run = evaluate_designs_sweep(
            &self.network,
            &self.designs,
            self.algorithm,
            &search,
            &annealing,
            &opts,
        )
        .map_err(|e| format!("sweep failed: {e}"))?;
        let wall_s = t0.elapsed().as_secs_f64();
        let cpu_s = host::cpu_s("self")? - cpu0;
        let snap = telemetry::snapshot();

        let mut by_label: BTreeMap<String, Result<NetworkSchedule, String>> = BTreeMap::new();
        for r in run.results {
            by_label.insert(r.label, Ok(r.schedule));
        }
        for (label, error) in run.skipped {
            by_label.insert(label, Err(error));
        }
        for (label, cause) in run.poisoned {
            by_label.insert(label, Err(format!("poisoned: {cause}")));
        }
        let schedules: Vec<Scheduled> = self
            .designs
            .iter()
            .map(|arch| {
                let s = by_label
                    .remove(arch.name())
                    .unwrap_or_else(|| Err("no outcome".to_string()));
                (arch.name().to_string(), s)
            })
            .collect();
        let mut notes = run.warnings;
        if run.interrupted {
            notes.push("sweep interrupted".into());
        }
        if run.degraded_persistence {
            notes.push("persistence degraded".into());
        }
        let mut counts = work_counts(&snap);
        let checkpoint_writes = snap.timer("checkpoint.save").map_or(0, |t| t.count);
        let cache_file = ckpt.with_extension("cache.json").exists();
        counts.insert("artifact.writes", checkpoint_writes + u64::from(cache_file));
        Ok(Pass {
            wall_s,
            cpu_s,
            schedules,
            counts,
            notes,
        })
    }

    /// One traced pass: the same sweep, driven one layer call at a time
    /// inside spans.
    fn pass_traced(&self, seed: usize, dir: &Path, tracer: &mut Tracer) -> Result<Pass, String> {
        let (search, annealing) = self.configs(seed);
        let ckpt_path = Self::checkpoint_path(dir);
        let cache_path = ckpt_path.with_extension("cache.json");
        let policy = DurabilityPolicy::full();
        let cache = Arc::new(CandidateCache::new());
        let mut ckpt = SweepCheckpoint::new(self.network.name(), self.algorithm);
        let mut schedules = Vec::with_capacity(self.designs.len());
        let mut notes = Vec::new();
        let (mut writes, mut bytes) = (0u64, 0u64);
        let mut wrote =
            |path: &Path, result: Result<(), String>, notes: &mut Vec<String>| match result
                .and_then(|()| file_len(path))
            {
                Ok(len) => {
                    writes += 1;
                    bytes += len;
                }
                Err(e) => notes.push(format!("artifact write failed: {e}")),
            };

        telemetry::reset();
        let cpu0 = host::cpu_s("self")?;
        let t0 = Instant::now();
        let root = tracer.open("dse");
        for arch in &self.designs {
            let design = tracer.open("design");
            let scheduler = Scheduler::new(arch.clone())
                .with_search(search)
                .with_annealing(annealing)
                .with_candidate_cache(Arc::clone(&cache));
            let span = tracer.open("mapper");
            let candidates = scheduler.candidates(&self.network, self.algorithm);
            tracer.close(span);
            let span = tracer.open("scheduler");
            let result =
                scheduler.schedule_with_candidates(&self.network, self.algorithm, &candidates);
            tracer.close(span);
            let result = result.map_err(|e| e.to_string());
            if let (true, Ok(s)) = (self.persist, &result) {
                let span = tracer.open("artifact");
                ckpt.insert(arch.name(), s.clone());
                let saved = ckpt
                    .save_with(&ckpt_path, &policy)
                    .map_err(|e| e.to_string());
                tracer.close(span);
                wrote(&ckpt_path, saved, &mut notes);
            }
            schedules.push((arch.name().to_string(), result));
            tracer.close(design);
        }
        if self.persist {
            let span = tracer.open("artifact");
            let saved = cache
                .save_with(&cache_path, &policy)
                .map_err(|e| e.to_string());
            tracer.close(span);
            wrote(&cache_path, saved, &mut notes);
        }
        tracer.close(root);
        let wall_s = t0.elapsed().as_secs_f64();
        let cpu_s = host::cpu_s("self")? - cpu0;

        let mut counts = work_counts(&telemetry::snapshot());
        counts.insert("artifact.writes", writes);
        counts.insert("artifact.bytes", bytes);
        Ok(Pass {
            wall_s,
            cpu_s,
            schedules,
            counts,
            notes,
        })
    }

    /// Hash of a pass's schedules and final checkpoint file.
    fn print(&self, pass: &Pass, dir: &Path) -> Result<u64, String> {
        let mut h = DefaultHasher::new();
        for (label, s) in &pass.schedules {
            label.hash(&mut h);
            match s {
                Ok(s) => schedule_to_json(s).to_string().hash(&mut h),
                Err(e) => e.hash(&mut h),
            }
        }
        if self.persist {
            let path = Self::checkpoint_path(dir);
            std::fs::read(&path)
                .map_err(|e| format!("{}: {e}", path.display()))?
                .hash(&mut h);
        }
        Ok(h.finish())
    }

    /// `(design, label, schedule)` of a pass, for schedules that exist.
    fn scheduled<'a>(
        &'a self,
        pass: &'a Pass,
    ) -> impl Iterator<Item = (&'a Architecture, &'a str, &'a NetworkSchedule)> + 'a {
        self.designs
            .iter()
            .zip(&pass.schedules)
            .filter_map(|(arch, (label, s))| s.as_ref().ok().map(|s| (arch, label.as_str(), s)))
    }

    /// Check one pass; every design is one attempted operation.
    fn check_pass(&self, pass: &Pass, out: &mut Outcome) {
        for (label, s) in &pass.schedules {
            out.attempted += 1;
            let problem = match s {
                Err(e) => Some(format!("not completed: {e}")),
                Ok(s) if s.layers.len() != self.network.len() => Some(format!(
                    "{} of {} layers scheduled",
                    s.layers.len(),
                    self.network.len()
                )),
                Ok(s) if s.degraded_count() + s.failed_count() > 0 => Some(format!(
                    "{} degraded and {} failed layers",
                    s.degraded_count(),
                    s.failed_count()
                )),
                Ok(_) => None,
            };
            if let Some(p) = problem {
                out.failed += 1;
                eprintln!("design {label}: {p}");
            }
        }
        for note in &pass.notes {
            out.check(false, || note.clone());
        }
        let busy = ratio(pass.cpu_s, pass.wall_s);
        out.check(busy <= MAX_BUSY_THREADS, || {
            format!("cpu_s / run_s = {busy:.2}: more than one busy thread")
        });
        let expect_writes = if self.persist {
            self.designs.len() as u64 + 1
        } else {
            0
        };
        let writes = pass.counts["artifact.writes"];
        out.check(writes == expect_writes, || {
            format!("{writes} artifact writes, expected {expect_writes}")
        });
        if self.kind == Kind::TileMobilenet {
            let runs = pass.counts["authblock.optimize_runs"];
            out.check(runs == 0, || {
                format!("{runs} AuthBlock optimiser runs on the bypass workload")
            });
        }
    }

    /// Re-evaluate every returned mapping through the loopnest model;
    /// median microseconds per evaluation.
    fn loopnest_eval_us(&self, pass: &Pass, out: &mut Outcome) -> f64 {
        let mut per_eval = Vec::with_capacity(LOOPNEST_REPS);
        for rep in 0..LOOPNEST_REPS {
            let mut n = 0u32;
            let t0 = Instant::now();
            for (arch, label, s) in self.scheduled(pass) {
                for (layer, lr) in self.network.layers().iter().zip(&s.layers) {
                    let e = evaluate(layer, arch, &lr.mapping);
                    if rep == 0 && e.is_err() {
                        out.check(false, || {
                            format!("{label}/{}: returned mapping is invalid", lr.name)
                        });
                    }
                    black_box(e.ok());
                    n += 1;
                }
            }
            per_eval.push(t0.elapsed().as_secs_f64() * 1e6 / f64::from(n.max(1)));
        }
        median(&per_eval)
    }

    /// Re-run the AuthBlock optimiser on every tensor of the returned
    /// schedules: `(total seconds, slowest single tensor seconds)`.
    /// Zero for Crypt-Tile-Single, which never calls the optimiser.
    fn authblock_times(&self, pass: &Pass) -> (f64, f64) {
        if self.algorithm == Algorithm::CryptTileSingle {
            return (0.0, 0.0);
        }
        let (mut total, mut top) = (0.0f64, 0.0f64);
        for (arch, _, s) in self.scheduled(pass) {
            if s.layers.len() != self.network.len() {
                continue;
            }
            for seg in self.network.segments() {
                let maps: Vec<_> = seg.layers.iter().map(|&li| &s.layers[li].mapping).collect();
                for case in segment_tensor_cases(&self.network, arch, &seg.layers, &maps) {
                    let t0 = Instant::now();
                    black_box(optimize(black_box(&case.problem)));
                    let dt = t0.elapsed().as_secs_f64();
                    total += dt;
                    top = top.max(dt);
                }
            }
        }
        (total, top)
    }
}

fn file_len(path: &Path) -> Result<u64, String> {
    std::fs::metadata(path)
        .map(|m| m.len())
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// The program's own work counters for one pass.
fn work_counts(snap: &Snapshot) -> BTreeMap<&'static str, u64> {
    let sum = |prefix: &str| -> u64 { snap.counters_with_prefix(prefix).map(|c| c.value).sum() };
    BTreeMap::from([
        ("mapper.samples", snap.counter("mapper.samples_evaluated")),
        ("mapper.valid", snap.counter("mapper.samples_valid")),
        ("mapper.cache_hits", snap.counter("dse.cache_hit")),
        ("mapper.cache_misses", snap.counter("dse.cache_miss")),
        (
            "authblock.optimize_runs",
            snap.counter("authblock.optimize_runs"),
        ),
        (
            "authblock.congruence_calls",
            snap.counter("authblock.congruence_calls"),
        ),
        (
            "authblock.memo_hits",
            snap.counter("scheduler.overhead_cache_hits"),
        ),
        (
            "authblock.memo_misses",
            snap.counter("scheduler.overhead_cache_misses"),
        ),
        ("anneal.runs", snap.counter("anneal.runs")),
        ("anneal.proposals", sum("anneal.proposals.")),
        ("anneal.accepted", sum("anneal.accepted.")),
    ])
}

/// What one pass process reports to the run, as one JSON line.
#[derive(Debug, Default)]
struct Report {
    /// Index into [`Sweep::seeds`].
    seed: usize,
    wall_s: f64,
    cpu_s: f64,
    peak_rss_mb: f64,
    /// Hash of the schedules and of the final checkpoint file: passes
    /// of one seed must agree byte for byte.
    print: String,
    /// Simulated totals over the returned schedules.
    cycles: u64,
    energy_pj: f64,
    overhead_bits: u64,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    counts: BTreeMap<String, u64>,
    /// Self time per span name (traced passes only).
    layers: BTreeMap<String, LayerTime>,
    /// `(loopnest.eval_us, authblock.optimize_s, authblock.top_tensor_s)`
    /// when the pass re-ran the returned schedules.
    extra: Option<(f64, f64, f64)>,
}

impl Report {
    /// Turn the pass's host times into reference seconds.
    fn scale(&mut self, speed: f64) {
        self.wall_s *= speed;
        self.cpu_s *= speed;
        for t in self.layers.values_mut() {
            t.total_s *= speed;
            t.self_s *= speed;
        }
        if let Some((eval_us, optimize_s, top_s)) = &mut self.extra {
            *eval_us *= speed;
            *optimize_s *= speed;
            *top_s *= speed;
        }
    }

    fn to_json(&self) -> Json {
        let mut counts = Json::obj();
        for (k, &v) in &self.counts {
            counts = counts.field(k, v);
        }
        let mut layers = Json::obj();
        for (k, t) in &self.layers {
            layers = layers.field(
                k,
                Json::obj()
                    .field("calls", t.calls)
                    .field("total_s", t.total_s)
                    .field("self_s", t.self_s),
            );
        }
        let mut j = Json::obj()
            .field("seed", self.seed)
            .field("wall_s", self.wall_s)
            .field("cpu_s", self.cpu_s)
            .field("peak_rss_mb", self.peak_rss_mb)
            .field("print", self.print.as_str())
            .field("cycles", self.cycles)
            .field("energy_pj", self.energy_pj)
            .field("overhead_bits", self.overhead_bits)
            .field("attempted", self.attempted)
            .field("failed", self.failed)
            .field("problems", self.problems.clone())
            .field("counts", counts)
            .field("layers", layers);
        if let Some((eval_us, optimize_s, top_s)) = self.extra {
            j = j.field(
                "extra",
                Json::obj()
                    .field("eval_us", eval_us)
                    .field("optimize_s", optimize_s)
                    .field("top_tensor_s", top_s),
            );
        }
        j
    }

    fn from_json(j: &Json) -> Result<Report, String> {
        let bad = |k: &str| format!("pass report lacks '{k}': {j}");
        let u = |k: &str| j[k].as_u64().ok_or_else(|| bad(k));
        let f = |k: &str| j[k].as_f64().ok_or_else(|| bad(k));
        let obj = |k: &str| j[k].as_object().ok_or_else(|| bad(k));
        let mut counts = BTreeMap::new();
        for (k, v) in obj("counts")? {
            counts.insert(k.clone(), v.as_u64().ok_or_else(|| bad(k))?);
        }
        let mut layers = BTreeMap::new();
        for (k, v) in obj("layers")? {
            let t = LayerTime {
                calls: v["calls"].as_u64().ok_or_else(|| bad(k))?,
                total_s: v["total_s"].as_f64().ok_or_else(|| bad(k))?,
                self_s: v["self_s"].as_f64().ok_or_else(|| bad(k))?,
            };
            layers.insert(k.clone(), t);
        }
        let extra = match j.get("extra") {
            Some(e) => Some((
                e["eval_us"].as_f64().ok_or_else(|| bad("extra"))?,
                e["optimize_s"].as_f64().ok_or_else(|| bad("extra"))?,
                e["top_tensor_s"].as_f64().ok_or_else(|| bad("extra"))?,
            )),
            None => None,
        };
        Ok(Report {
            seed: u("seed")? as usize,
            wall_s: f("wall_s")?,
            cpu_s: f("cpu_s")?,
            peak_rss_mb: f("peak_rss_mb")?,
            print: j["print"].as_str().ok_or_else(|| bad("print"))?.to_string(),
            cycles: u("cycles")?,
            energy_pj: f("energy_pj")?,
            overhead_bits: u("overhead_bits")?,
            attempted: u("attempted")?,
            failed: u("failed")?,
            problems: j["problems"]
                .as_array()
                .ok_or_else(|| bad("problems"))?
                .iter()
                .map(|p| p.as_str().unwrap_or("?").to_string())
                .collect(),
            counts,
            layers,
            extra,
        })
    }

    fn count(&self, k: &str) -> u64 {
        self.counts.get(k).copied().unwrap_or(0)
    }
}

/// The child process behind one pass: run one sweep and return its
/// report as one JSON line.
pub fn pass_main(kind: Kind, args: &Args, p: &PassArgs, state: &Path) -> Result<String, String> {
    let sweep = Sweep::new(kind, args.seed);
    let seed = p.index % sweep.seeds.len();
    let dir = pass_dir(state, p.traced, p.index);
    fresh_dir(&dir)?;
    let mut tracer = Tracer::new();
    tracer.set_run(p.index as u32);
    let pass = if p.traced {
        sweep.pass_traced(seed, &dir, &mut tracer)?
    } else {
        sweep.pass_dse(seed, &dir)?
    };
    let peak_rss_mb = host::peak_rss_mb("self")?;
    let mut out = Outcome::default();
    sweep.check_pass(&pass, &mut out);
    let extra = p.extra.then(|| {
        let eval_us = sweep.loopnest_eval_us(&pass, &mut out);
        let (optimize_s, top_s) = sweep.authblock_times(&pass);
        (eval_us, optimize_s, top_s)
    });
    let layers = if p.traced {
        write_spans(&dir, &tracer)?;
        tracer
            .layer_times(p.index as u32)
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect()
    } else {
        BTreeMap::new()
    };
    let (mut cycles, mut energy_pj, mut overhead_bits) = (0u64, 0.0f64, 0u64);
    for (_, _, s) in sweep.scheduled(&pass) {
        cycles += s.total_latency_cycles;
        energy_pj += s.total_energy_pj;
        overhead_bits += s.overhead.total_bits();
    }
    let report = Report {
        seed,
        wall_s: pass.wall_s,
        cpu_s: pass.cpu_s,
        peak_rss_mb,
        print: format!("{:016x}", sweep.print(&pass, &dir)?),
        cycles,
        energy_pj,
        overhead_bits,
        attempted: out.attempted,
        failed: out.failed,
        problems: out.problems,
        counts: pass
            .counts
            .iter()
            .map(|(&k, &v)| (k.to_string(), v))
            .collect(),
        layers,
        extra,
    };
    Ok(report.to_json().to_string())
}

fn pass_dir(state: &Path, traced: bool, index: usize) -> PathBuf {
    state.join(format!("{}{index}", if traced { "traced" } else { "pass" }))
}

/// For each seed, the median of `f` over that seed's passes.
fn per_seed_medians(reports: &[Report], seeds: usize, f: impl Fn(&Report) -> f64) -> Vec<f64> {
    (0..seeds)
        .map(|k| {
            let v: Vec<f64> = reports.iter().filter(|r| r.seed == k).map(&f).collect();
            median(&v)
        })
        .collect()
}

/// The sum over seeds of [`per_seed_medians`]: the cost of one sweep per
/// seed.
fn per_seed_sum(reports: &[Report], seeds: usize, f: impl Fn(&Report) -> f64) -> f64 {
    per_seed_medians(reports, seeds, f).iter().sum()
}

/// Work counts summed over one pass per seed.
fn total_counts(first: &[Report]) -> BTreeMap<String, u64> {
    let mut total = BTreeMap::new();
    for r in first {
        for (k, &v) in &r.counts {
            *total.entry(k.clone()).or_insert(0) += v;
        }
    }
    total
}

/// Every pass of a seed must match that seed's first pass: the same
/// schedules and checkpoint file, and, where `counts` names them, the
/// same work counts.
fn compare(what: &str, reference: &Report, r: &Report, counts: &[&str], out: &mut Outcome) {
    out.check(r.print == reference.print, || {
        format!(
            "{what}: schedules or checkpoint differ from seed {}'s first pass",
            r.seed
        )
    });
    for &k in counts {
        let (a, b) = (reference.counts.get(k), r.counts.get(k));
        out.check(a == b, || {
            format!(
                "{what}: {k} = {b:?}, seed {}'s first pass had {a:?}",
                r.seed
            )
        });
    }
}

pub fn run(kind: Kind, args: &Args, state: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the benchmark: {e}"))?;
    let child = |extra: &[&str]| -> Result<Vec<u8>, String> {
        let output = Command::new(&exe)
            .args(["--workload", &args.workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .args(extra)
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
        if !output.status.success() {
            return Err(format!("child {extra:?} exited with {}", output.status));
        }
        Ok(output.stdout)
    };

    // Set-up: from the start of a process to a built workload, timed on
    // child processes.
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        child(&["--setup-only", "1"])?;
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let seeds = kind.seeds();
    // The host is calibrated before the first pass and after each one,
    // in this process, while no pass runs.
    let mut calib_s = vec![host::calibrate()];
    let mut pass = |i: usize, traced: bool, extra: bool, out: &mut Outcome| {
        let stdout = child(&[
            "--pass",
            &i.to_string(),
            "--traced",
            if traced { "1" } else { "0" },
            "--extra",
            if extra { "1" } else { "0" },
        ])?;
        let text = String::from_utf8_lossy(&stdout);
        let line = text.lines().last().unwrap_or("");
        let json = Json::parse(line).map_err(|e| format!("pass {i}: bad report '{line}': {e}"))?;
        let r = Report::from_json(&json)?;
        calib_s.push(host::calibrate());
        out.attempted += r.attempted;
        out.failed += r.failed;
        let kind = if traced { "traced pass" } else { "pass" };
        for p in &r.problems {
            out.check(false, || format!("{kind} {i}: {p}"));
        }
        Ok::<Report, String>(r)
    };

    // Passes cycle through the seeds, each a fresh process. A traced
    // run then drives the same sweeps one layer call at a time; the
    // first traced pass of each seed also re-runs the loopnest model and
    // the AuthBlock optimiser on what it returned.
    let mut plain = repeat(args.budget_s(), seeds, args.min_passes(), |i| {
        pass(i, false, false, &mut out)
    })?;
    let mut traced = if args.trace {
        repeat(args.budget_s(), seeds, 1, |i| {
            pass(i, true, i < seeds, &mut out)
        })?
    } else {
        Vec::new()
    };
    // One factor, from the run's median calibration, turns every host
    // time of the run into reference seconds.
    let speed = host::CALIBRATION_REF_S / median(&calib_s);
    for r in plain.iter_mut().chain(&mut traced) {
        r.scale(speed);
    }
    // Plain passes do not see individual artifact writes, so their
    // byte count is checked across traced passes only.
    let plain_counts: Vec<&str> = EXACT_COUNTS
        .iter()
        .copied()
        .filter(|&k| k != "artifact.bytes")
        .collect();
    let first = &plain[..seeds];
    for (i, r) in plain.iter().enumerate().skip(seeds) {
        compare(
            &format!("pass {i}"),
            &first[r.seed],
            r,
            &plain_counts,
            &mut out,
        );
        out.check(
            (r.cycles, r.energy_pj.to_bits(), r.overhead_bits)
                == (
                    first[r.seed].cycles,
                    first[r.seed].energy_pj.to_bits(),
                    first[r.seed].overhead_bits,
                ),
            || {
                format!(
                    "pass {i}: simulated totals differ from seed {}'s first pass",
                    r.seed
                )
            },
        );
    }

    let run_s = per_seed_sum(&plain, seeds, |r| r.wall_s);
    let counts = total_counts(first);
    let count = |k: &str| counts.get(k).copied().unwrap_or(0) as f64;
    let work: Vec<String> = counts.iter().map(|(k, v)| format!("{k}={v}")).collect();
    eprintln!(
        "{}: seeds {:?}; {} plain pass(es), reference seconds {:?}, cpu_s {:?}; \
         calibrations {:?} s; host setup_s {}\nwork, one sweep per seed: {}",
        args.workload,
        Sweep::new(kind, args.seed).seeds,
        plain.len(),
        plain.iter().map(|r| r.wall_s).collect::<Vec<_>>(),
        plain.iter().map(|r| r.cpu_s).collect::<Vec<_>>(),
        calib_s,
        median(&setup_s),
        work.join(" ")
    );

    if !args.trace {
        out.set("setup_s", median(&setup_s) * speed);
        out.set("run_s", run_s);
        out.set("cpu_s", per_seed_sum(&plain, seeds, |r| r.cpu_s));
        out.set(
            "peak_rss_mb",
            median(&plain.iter().map(|r| r.peak_rss_mb).collect::<Vec<_>>()),
        );
        // A one-shot sweep is one job: submit to result is the sweep,
        // and each seed's job time is the median over its passes.
        out.set(
            "job_p50_s",
            median(&per_seed_medians(&plain, seeds, |r| r.wall_s)),
        );
        out.set("sim_cycles", first.iter().map(|r| r.cycles as f64).sum());
        out.set(
            "sim_energy_uj",
            first.iter().map(|r| r.energy_pj).sum::<f64>() / 1e6,
        );
        out.set(
            "overhead_mbit",
            first.iter().map(|r| r.overhead_bits as f64).sum::<f64>() / 1e6,
        );
        return Ok(out);
    }

    let traced_first = &traced[..seeds];
    for (i, r) in traced.iter().enumerate() {
        let what = format!("traced pass {i}");
        // The traced path must return what the dse layer returned.
        compare(&what, &first[r.seed], r, &[], &mut out);
        compare(&what, &traced_first[r.seed], r, &EXACT_COUNTS, &mut out);
    }

    // Like `run_s`, a layer's time is the sum over seeds of the median
    // over that seed's traced passes.
    let traced_run_s = per_seed_sum(&traced, seeds, |r| r.wall_s);
    let self_s = |name: &str| -> f64 {
        per_seed_sum(&traced, seeds, |r| {
            r.layers.get(name).map_or(0.0, |t| t.self_s)
        })
    };
    let (mut eval_us, mut optimize_s, mut top_tensor_s) = (Vec::new(), 0.0, 0.0f64);
    for (e, o, t) in traced_first.iter().filter_map(|r| r.extra) {
        eval_us.push(e);
        optimize_s += o;
        top_tensor_s = top_tensor_s.max(t);
    }
    let mapper_busy = self_s("mapper");
    let scheduler_busy = self_s("scheduler");

    for &(name, _) in crate::PER_LAYER.iter() {
        out.set(name, 0.0);
    }
    out.set("mapper.busy_s", mapper_busy);
    out.set("mapper.busy_share", ratio(mapper_busy, traced_run_s));
    out.set("mapper.samples", count("mapper.samples"));
    out.set(
        "mapper.valid_ratio",
        ratio(count("mapper.valid"), count("mapper.samples")),
    );
    out.set(
        "mapper.us_per_sample",
        ratio(mapper_busy * 1e6, count("mapper.samples")),
    );
    out.set(
        "mapper.cache_hit_ratio",
        ratio(
            count("mapper.cache_hits"),
            count("mapper.cache_hits") + count("mapper.cache_misses"),
        ),
    );
    out.set("loopnest.eval_us", median(&eval_us));
    out.set("scheduler.busy_s", scheduler_busy);
    out.set("scheduler.busy_share", ratio(scheduler_busy, traced_run_s));
    out.set("authblock.optimize_runs", count("authblock.optimize_runs"));
    out.set(
        "authblock.congruence_calls",
        count("authblock.congruence_calls"),
    );
    out.set(
        "authblock.memo_hit_ratio",
        ratio(
            count("authblock.memo_hits"),
            count("authblock.memo_hits") + count("authblock.memo_misses"),
        ),
    );
    out.set("authblock.optimize_s", optimize_s);
    out.set("authblock.top_tensor_s", top_tensor_s);
    out.set("anneal.runs", count("anneal.runs"));
    out.set("anneal.proposals", count("anneal.proposals"));
    out.set(
        "anneal.accept_ratio",
        ratio(count("anneal.accepted"), count("anneal.proposals")),
    );
    out.set("artifact.writes", count("artifact.writes"));
    out.set("artifact.write_s", self_s("artifact"));
    out.set(
        "artifact.bytes",
        traced_first
            .iter()
            .map(|r| r.count("artifact.bytes") as f64)
            .sum(),
    );
    out.set("dse.busy_s", self_s("dse") + self_s("design"));
    out.set("telemetry.overhead_ratio", ratio(traced_run_s, run_s));

    eprintln!(
        "{}: {} traced pass(es) {:?}; spans in {}",
        args.workload,
        traced.len(),
        traced.iter().map(|r| r.wall_s).collect::<Vec<_>>(),
        pass_dir(state, true, 0).join("spans.jsonl").display(),
    );
    // The self-time table covers the first traced sweep of each seed.
    let mut table: BTreeMap<&str, LayerTime> = BTreeMap::new();
    for r in traced_first {
        for (name, t) in &r.layers {
            let e = table.entry(name.as_str()).or_default();
            e.calls += t.calls;
            e.total_s += t.total_s;
            e.self_s += t.self_s;
        }
    }
    let traced_wall: f64 = traced_first.iter().map(|r| r.wall_s).sum();
    eprint!("{}", self_time_table(&table, traced_wall));
    Ok(out)
}
