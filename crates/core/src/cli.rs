//! Command-line front end (used by the `secureloop` binary).
//!
//! Kept inside the library so the parser and command dispatch are unit
//! testable; the binary is a thin wrapper around [`run`].

use std::fmt::Write as _;
use std::time::Duration;

use secureloop_arch::{Architecture, Dataflow, DramSpec};
use secureloop_artifact::DurabilityPolicy;
use secureloop_crypto::{CryptoConfig, EngineClass, SchemeId};
use secureloop_json::Json;
use secureloop_mapper::SearchMode;
use secureloop_workload::{zoo, Network};

use crate::dse::{
    apply_scheme, evaluate_designs_sweep, fig16_design_space, fig16_designs, pareto_front,
};
use crate::error::SecureLoopError;
use crate::report;
use crate::run::{parse_scheme, Entry, RunSpec};
use crate::scheduler::{Algorithm, LayerOutcome, Scheduler};

/// Usage text printed on argument errors.
pub const USAGE: &str = "\
usage:
  secureloop schedule --workload <name> [--algorithm <algo>] [options]
  secureloop dse --workload <name> [options]
  secureloop trace --workload <name> --layer <i> [options]
  secureloop serve --state-dir <dir> [options]
  secureloop suite <dir> [--json]
  secureloop compare-schemes --workload <name> [options]
  secureloop workloads

workloads: alexnet | alexnet_grouped | resnet18 | resnet50 | mobilenet_v2 |
           vgg16 | mlp | attention | llm_decode | vit_tiny | dilated_context |
           resnext
algorithms: unsecure | crypt-tile-single | crypt-opt-single | crypt-opt-cross

suite: run every *.yaml scenario under <dir> (recursively) through the
  supervised sweep path and check each scenario's expected bounds; see
  DESIGN.md \"Scenario suites\" for the file format. A load error or a
  violated bound exits 1 (the report still prints); a degraded-but-in-
  bounds scenario exits 2.

compare-schemes: run one design under every protection scheme and
  tabulate latency/energy/overhead deltas against the unprotected
  baseline; combinations a scheme cannot realise on the chosen engine
  class are reported as unsupported.

options:
  --engine <pipelined|parallel|serial>   crypto engine class (default parallel)
  --engines <n>                          engine count (default 3; 0 = unsecure)
  --scheme <none|aes-gcm|seculator|seda> protection-scheme cost model (default
                                         aes-gcm, the paper's Table 2; none
                                         strips the crypto engines; on suite it
                                         overrides every scenario, on serve it
                                         is the default for jobs that do not
                                         choose their own)
  --pe <XxY>                             PE array (default 14x12)
  --glb-kb <n>                           global buffer in kB (default 131)
  --dram <lpddr4|lpddr4-128|hbm2>        DRAM interface (default lpddr4)
  --arch-file <path.json>                load the architecture from JSON
                                         (overrides --pe/--glb-kb/--dram/...)
  --samples <n>                          mapper samples per layer (default 3000;
                                         a cap in guided mode, which stops
                                         early once the top-k goes stale)
  --search-mode <random|guided>          mapper exploration strategy (default
                                         guided: Pareto-front-guided sampling,
                                         same schedules-or-better with ~5x
                                         fewer samples; random reproduces the
                                         paper's random-pruned search)
  --iterations <n>                       SA iterations (default 1000)
  --seed <n>                             RNG seed (default 1)
  --layer <i>                            layer index (trace command)
  --deadline-secs <s>                    wall-clock budget per layer search and
                                         per annealed segment; on expiry the
                                         engine degrades instead of searching on
  --checkpoint <path.json>               (dse) write finished design points to
                                         this file after each evaluation
  --resume                               (dse) restore finished design points
                                         from --checkpoint instead of
                                         re-evaluating them
  --no-cache                             (dse) disable the cross-design
                                         candidate cache (enabled by default)
  --cache-file <path.json>               (dse) persist the candidate cache here
                                         (default: --checkpoint sibling with a
                                         .cache.json extension)
  --workers <n>                          (dse) design points evaluated in
                                         parallel (default 1; results are
                                         byte-identical for any value)
  --max-retries <n>                      (dse) supervised retries per design
                                         point before it is skipped or
                                         quarantined (default 2)
  --task-timeout-secs <s>                (dse) wall-clock watchdog per design
                                         attempt; a stalled attempt is
                                         cancelled and retried, and a design
                                         exhausting its retries is quarantined
  --trace-out <path.jsonl>               stream telemetry events (mapper,
                                         authblock, annealing, dse spans) to
                                         this file as JSON Lines
  --durability <full|fast>               artifact write discipline for
                                         checkpoints, caches and journals
                                         (default full: fsync file and parent
                                         dir around the atomic rename; fast
                                         keeps the checksum, .bak generation
                                         and atomic rename but skips fsyncs)
  --io-retries <n>                       retries per artifact write before
                                         persistence degrades to in-memory
                                         mode (default 3)
  --io-backoff-ms <ms>                   base backoff between artifact write
                                         retries; attempt n waits 2^n times
                                         this long (default 10)
  --json                                 emit JSON instead of a table

serve options (JSON-Lines requests on stdin, events on stdout):
  --state-dir <dir>                      journal, shared cache and per-job
                                         checkpoints live here (required)
  --queue-depth <n>                      queued jobs beyond this are shed with
                                         a typed 'overloaded' response
                                         (default 8)
  --service-workers <n>                  jobs run concurrently (default 2)
  --job-workers <n>                      design points evaluated in parallel
                                         inside each job (default 1)
  --cache-budget-mb <n>                  LRU memory budget for the shared
                                         candidate cache (default unbounded)
  --admit-max-samples <n>                admission cap on per-layer samples
                                         (default 20000)
  --admit-max-designs <n>                admission cap on design points per
                                         job (default 18)
  --admit-max-deadline-secs <s>          admission cap on a job's per-layer
                                         deadline (default 300)

exit codes:
  0  success, full-quality results
  1  fatal error (bad arguments, unreadable input, engine failure, a
     malformed suite scenario or a violated scenario bound)
  2  completed but degraded (a layer or design point was degraded,
     skipped or poisoned, or persistence degraded: artifact writes
     kept failing after retries — e.g. a full disk — so results were
     computed in memory but checkpoints/journals were not saved)
  3  interrupted by SIGINT/SIGTERM; checkpoint flushed, re-run with
     --resume to continue";

/// CLI failure modes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// Bad arguments; the message explains which.
    Usage(String),
    /// An `--arch-file` field is missing, malformed or out of range.
    Arch {
        /// The offending field (or `<root>` / `<syntax>`).
        field: String,
        /// What is wrong with it.
        message: String,
    },
    /// The scheduling engine failed outright (every layer infeasible,
    /// or a checkpoint file problem).
    Engine(String),
    /// A scenario-suite file failed to load or validate (see
    /// [`crate::suite`]).
    Scenario {
        /// The offending file or directory.
        path: String,
        /// What is wrong with it.
        message: String,
    },
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "{msg}"),
            CliError::Arch { field, message } => {
                write!(f, "architecture file: field '{field}': {message}")
            }
            CliError::Engine(msg) => write!(f, "{msg}"),
            CliError::Scenario { path, message } => {
                write!(f, "scenario {path}: {message}")
            }
        }
    }
}

impl From<SecureLoopError> for CliError {
    fn from(e: SecureLoopError) -> Self {
        CliError::Engine(e.to_string())
    }
}

impl std::error::Error for CliError {}

fn usage(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

fn arch_err(field: impl Into<String>, message: impl Into<String>) -> CliError {
    CliError::Arch {
        field: field.into(),
        message: message.into(),
    }
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Options {
    /// Subcommand: `schedule`, `dse` or `workloads`.
    pub command: String,
    /// The run fields (`--workload`, `--algorithm`, `--samples`,
    /// `--iterations`, `--seed`, `--deadline-secs`, `--scheme`). A
    /// `--scheme` of `None` keeps the default AES-GCM pricing from the
    /// arch file / engine flags.
    pub run: RunSpec,
    /// The architecture flags (`--pe`, `--glb-kb`, `--dram`,
    /// `--engine`, `--engines`), validated like an `--arch-file`.
    pub arch: ArchFile,
    /// Mapper exploration strategy (`--search-mode`).
    pub search_mode: SearchMode,
    /// JSON output.
    pub json: bool,
    /// Layer index for the `trace` command.
    pub layer: usize,
    /// Optional JSON architecture file.
    pub arch_file: Option<String>,
    /// Checkpoint file for the `dse` command.
    pub checkpoint: Option<String>,
    /// Restore finished design points from the checkpoint.
    pub resume: bool,
    /// Cross-design candidate cache for the `dse` command (on unless
    /// `--no-cache`).
    pub cache: bool,
    /// Explicit on-disk home for the candidate cache.
    pub cache_file: Option<String>,
    /// Design points evaluated in parallel by the `dse` command.
    pub workers: usize,
    /// Supervised retries per design point for the `dse` command.
    pub max_retries: Option<u32>,
    /// Per-attempt wall-clock watchdog (seconds) for the `dse` command.
    pub task_timeout_secs: Option<f64>,
    /// Stream telemetry events to this file as JSON Lines.
    pub trace_out: Option<String>,
    /// Artifact write discipline and retry budget (`--durability`,
    /// `--io-retries`, `--io-backoff-ms`), for every checkpoint,
    /// cache and journal the run persists.
    pub durability: DurabilityPolicy,
    /// State dir for the `serve` command (journal, shared cache,
    /// per-job checkpoints).
    pub state_dir: Option<String>,
    /// Queue bound for the `serve` command.
    pub queue_depth: usize,
    /// Concurrent jobs for the `serve` command.
    pub service_workers: usize,
    /// Sweep workers inside each service job.
    pub job_workers: usize,
    /// LRU memory budget (MB) for the service's shared candidate cache.
    pub cache_budget_mb: Option<usize>,
    /// Admission cap on per-layer samples.
    pub admit_max_samples: Option<usize>,
    /// Admission cap on design points per job.
    pub admit_max_designs: Option<usize>,
    /// Admission cap on a job's per-layer deadline (seconds).
    pub admit_max_deadline_secs: Option<f64>,
    /// Scenario directory for the `suite` command (positional).
    pub suite_dir: Option<String>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            command: String::new(),
            run: RunSpec::default(),
            // The Eyeriss base with three parallel engines.
            arch: ArchFile {
                engines: Some(3),
                ..ArchFile::default()
            },
            search_mode: SearchMode::Guided,
            json: false,
            layer: 0,
            arch_file: None,
            checkpoint: None,
            resume: false,
            cache: true,
            cache_file: None,
            workers: 1,
            max_retries: None,
            task_timeout_secs: None,
            trace_out: None,
            durability: DurabilityPolicy::default(),
            state_dir: None,
            queue_depth: 8,
            service_workers: 2,
            job_workers: 1,
            cache_budget_mb: None,
            admit_max_samples: None,
            admit_max_designs: None,
            admit_max_deadline_secs: None,
            suite_dir: None,
        }
    }
}

/// Parse raw arguments.
///
/// # Errors
///
/// [`CliError::Usage`] on unknown commands, flags or malformed values;
/// [`CliError::Arch`] naming the field when the architecture flags
/// fail the `--arch-file` checks.
pub fn parse(args: &[String]) -> Result<Options, CliError> {
    let mut opts = Options::default();
    let mut it = args.iter();
    opts.command = it.next().ok_or_else(|| usage("missing command"))?.clone();
    if !matches!(
        opts.command.as_str(),
        "schedule" | "dse" | "workloads" | "trace" | "serve" | "suite" | "compare-schemes"
    ) {
        return Err(usage(format!("unknown command '{}'", opts.command)));
    }
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| usage(format!("flag {flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" | "--algorithm" | "--scheme" | "--samples" | "--iterations" | "--seed"
            | "--deadline-secs" => {
                let text = value()?;
                opts.run.set_flag(flag, &text).map_err(usage)?;
            }
            "--engine" => opts.arch.engine = Some(value()?),
            "--engines" => {
                opts.arch.engines = Some(
                    value()?
                        .parse()
                        .map_err(|_| usage("--engines expects an integer"))?,
                )
            }
            "--pe" => {
                let v = value()?;
                let (x, y) = v
                    .split_once('x')
                    .ok_or_else(|| usage("--pe expects XxY, e.g. 14x12"))?;
                opts.arch.pe = Some([
                    x.parse().map_err(|_| usage("bad PE width"))?,
                    y.parse().map_err(|_| usage("bad PE height"))?,
                ]);
            }
            "--glb-kb" => {
                opts.arch.glb_kb = Some(
                    value()?
                        .parse()
                        .map_err(|_| usage("--glb-kb expects an integer"))?,
                )
            }
            "--dram" => opts.arch.dram = Some(value()?),
            "--search-mode" => {
                let v = value()?;
                opts.search_mode = SearchMode::from_name(&v)
                    .ok_or_else(|| usage(format!("unknown search mode '{v}'")))?;
            }
            "--json" => opts.json = true,
            "--arch-file" => opts.arch_file = Some(value()?),
            "--checkpoint" => opts.checkpoint = Some(value()?),
            "--resume" => opts.resume = true,
            "--no-cache" => opts.cache = false,
            "--cache-file" => opts.cache_file = Some(value()?),
            "--workers" => {
                opts.workers = value()?
                    .parse()
                    .map_err(|_| usage("--workers expects an integer"))?;
                if opts.workers == 0 {
                    return Err(usage("--workers must be at least 1"));
                }
            }
            "--max-retries" => {
                opts.max_retries = Some(
                    value()?
                        .parse()
                        .map_err(|_| usage("--max-retries expects an integer"))?,
                )
            }
            "--task-timeout-secs" => {
                let secs: f64 = value()?
                    .parse()
                    .map_err(|_| usage("--task-timeout-secs expects a number of seconds"))?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err(usage("--task-timeout-secs must be a positive number"));
                }
                opts.task_timeout_secs = Some(secs);
            }
            "--trace-out" => opts.trace_out = Some(value()?),
            "--durability" => {
                let v = value()?;
                opts.durability.fsync = match v.as_str() {
                    "full" => true,
                    "fast" => false,
                    other => {
                        return Err(usage(format!(
                            "unknown durability '{other}' (expected full | fast)"
                        )))
                    }
                };
            }
            "--io-retries" => {
                opts.durability.retries = value()?
                    .parse()
                    .map_err(|_| usage("--io-retries expects an integer"))?
            }
            "--io-backoff-ms" => {
                let ms: u64 = value()?
                    .parse()
                    .map_err(|_| usage("--io-backoff-ms expects an integer (milliseconds)"))?;
                opts.durability.backoff = Duration::from_millis(ms);
            }
            "--state-dir" => opts.state_dir = Some(value()?),
            "--queue-depth" => {
                opts.queue_depth = value()?
                    .parse()
                    .map_err(|_| usage("--queue-depth expects an integer"))?;
                if opts.queue_depth == 0 {
                    return Err(usage("--queue-depth must be at least 1"));
                }
            }
            "--service-workers" => {
                opts.service_workers = value()?
                    .parse()
                    .map_err(|_| usage("--service-workers expects an integer"))?;
                if opts.service_workers == 0 {
                    return Err(usage("--service-workers must be at least 1"));
                }
            }
            "--job-workers" => {
                opts.job_workers = value()?
                    .parse()
                    .map_err(|_| usage("--job-workers expects an integer"))?;
                if opts.job_workers == 0 {
                    return Err(usage("--job-workers must be at least 1"));
                }
            }
            "--cache-budget-mb" => {
                opts.cache_budget_mb = Some(
                    value()?
                        .parse()
                        .map_err(|_| usage("--cache-budget-mb expects an integer"))?,
                )
            }
            "--admit-max-samples" => {
                opts.admit_max_samples = Some(
                    value()?
                        .parse()
                        .map_err(|_| usage("--admit-max-samples expects an integer"))?,
                )
            }
            "--admit-max-designs" => {
                opts.admit_max_designs = Some(
                    value()?
                        .parse()
                        .map_err(|_| usage("--admit-max-designs expects an integer"))?,
                )
            }
            "--admit-max-deadline-secs" => {
                let secs: f64 = value()?
                    .parse()
                    .map_err(|_| usage("--admit-max-deadline-secs expects a number of seconds"))?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err(usage("--admit-max-deadline-secs must be a positive number"));
                }
                opts.admit_max_deadline_secs = Some(secs);
            }
            "--layer" => {
                opts.layer = value()?
                    .parse()
                    .map_err(|_| usage("--layer expects an index"))?
            }
            other
                if !other.starts_with('-')
                    && opts.command == "suite"
                    && opts.suite_dir.is_none() =>
            {
                opts.suite_dir = Some(other.to_string())
            }
            other => return Err(usage(format!("unknown flag '{other}'"))),
        }
    }
    // The architecture flags meet the `--arch-file` checks here, before
    // any command runs (and even where the command ignores them).
    arch_from_file(&opts.arch)?;
    Ok(opts)
}

/// Workload names accepted by `--workload` and scenario files, one per
/// line — the `workloads` command prints exactly this list.
pub(crate) const WORKLOAD_NAMES: &str = "alexnet\nalexnet_grouped\nresnet18\nresnet50\n\
mobilenet_v2\nvgg16\nmlp\nattention\nllm_decode\nvit_tiny\ndilated_context\nresnext";

pub(crate) fn workload(name: &str) -> Result<Network, CliError> {
    match name {
        "alexnet" => Ok(zoo::alexnet_conv()),
        "alexnet_grouped" => Ok(zoo::alexnet_conv_grouped()),
        "resnet18" => Ok(zoo::resnet18()),
        "resnet50" => Ok(zoo::resnet50()),
        "mobilenet_v2" | "mobilenetv2" => Ok(zoo::mobilenet_v2()),
        "vgg16" => Ok(zoo::vgg16()),
        "mlp" => Ok(zoo::mlp(4, 4096)),
        "attention" => Ok(zoo::attention(128, 512)),
        "llm_decode" => Ok(zoo::llm_decode(1024)),
        "vit_tiny" => Ok(zoo::vit_tiny(2)),
        "dilated_context" => Ok(zoo::dilated_context(56, 64, 4)),
        "resnext" => Ok(zoo::resnext_stage(28, 128, 32, 2)),
        other => Err(usage(format!("unknown workload '{other}'"))),
    }
}

/// JSON architecture description accepted by `--arch-file`.
///
/// ```json
/// {
///   "name": "my-edge-chip",
///   "pe": [16, 16],
///   "glb_kb": 64,
///   "dram": "hbm2",
///   "dataflow": "row-stationary",
///   "engine": "pipelined",
///   "engines": 3,
///   "tag_bits": 64
/// }
/// ```
///
/// Omitted fields keep the Eyeriss-base defaults; `engines: 0` (or an
/// omitted `engine`) gives the unsecure design, which every algorithm
/// schedules as the unsecure baseline.
///
/// An explicit `tag_bits` wins over any scheme's default tag width,
/// wherever the scheme comes from: the file's `scheme`, `--scheme`, a
/// scenario's `crypto: scheme:` or a `compare-schemes` row.
///
/// Unknown fields are rejected, and values are validated on load (PE
/// array and GLB capacity positive, bandwidth positive and finite,
/// plausible engine count) so a typo fails with an error naming the
/// field instead of surfacing as a panic deep in the scheduler.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ArchFile {
    /// Design name.
    pub name: Option<String>,
    /// PE array `[x, y]`.
    pub pe: Option<[usize; 2]>,
    /// Global buffer in kB.
    pub glb_kb: Option<u64>,
    /// NoC bandwidth in bytes/cycle.
    pub noc_bytes_per_cycle: Option<f64>,
    /// DRAM interface name.
    pub dram: Option<String>,
    /// Dataflow name.
    pub dataflow: Option<String>,
    /// Engine class name.
    pub engine: Option<String>,
    /// Engine count (0 = unsecure).
    pub engines: Option<usize>,
    /// Truncated tag bits; wins over the scheme's default width.
    pub tag_bits: Option<u32>,
    /// Protection scheme (`none`, `aes-gcm`, `seculator`, `seda`). A
    /// `--scheme` flag, a scenario's `crypto: scheme:` or a
    /// `compare-schemes` row replaces it before the build.
    pub scheme: Option<SchemeId>,
}

/// Fields accepted by [`ArchFile::parse`], for the unknown-field error.
const ARCH_FIELDS: &str =
    "name, pe, glb_kb, noc_bytes_per_cycle, dram, dataflow, engine, engines, tag_bits, scheme";

/// Engine counts beyond this are treated as input errors: the crypto
/// datapath models a handful of AES-GCM engines, not thousands.
const MAX_ENGINES: usize = 256;

fn field_str(field: &str, v: &Json) -> Result<String, CliError> {
    v.as_str()
        .map(str::to_string)
        .ok_or_else(|| arch_err(field, format!("expected a string, got {v}")))
}

fn field_u64(field: &str, v: &Json) -> Result<u64, CliError> {
    v.as_u64()
        .ok_or_else(|| arch_err(field, format!("expected a non-negative integer, got {v}")))
}

fn field_f64(field: &str, v: &Json) -> Result<f64, CliError> {
    v.as_f64()
        .ok_or_else(|| arch_err(field, format!("expected a number, got {v}")))
}

impl ArchFile {
    /// Parse and validate an `--arch-file` document.
    ///
    /// # Errors
    ///
    /// [`CliError::Arch`] naming the offending field for syntax errors,
    /// unknown fields, wrong types, and out-of-range values.
    pub fn parse(text: &str) -> Result<ArchFile, CliError> {
        let v = Json::parse(text).map_err(|e| arch_err("<syntax>", e.to_string()))?;
        let file = ArchFile::from_json(&v)?;
        file.validate()?;
        Ok(file)
    }

    pub(crate) fn from_json(v: &Json) -> Result<ArchFile, CliError> {
        let fields = v
            .as_object()
            .ok_or_else(|| arch_err("<root>", "expected a JSON object"))?;
        let mut f = ArchFile::default();
        for (key, value) in fields {
            match key.as_str() {
                "name" => f.name = Some(field_str(key, value)?),
                "pe" => {
                    let items = value
                        .as_array()
                        .filter(|a| a.len() == 2)
                        .ok_or_else(|| arch_err("pe", "expected a two-element array [x, y]"))?;
                    let x = field_u64("pe", &items[0])? as usize;
                    let y = field_u64("pe", &items[1])? as usize;
                    f.pe = Some([x, y]);
                }
                "glb_kb" => f.glb_kb = Some(field_u64(key, value)?),
                "noc_bytes_per_cycle" => f.noc_bytes_per_cycle = Some(field_f64(key, value)?),
                "dram" => f.dram = Some(field_str(key, value)?),
                "dataflow" => f.dataflow = Some(field_str(key, value)?),
                "engine" => f.engine = Some(field_str(key, value)?),
                "engines" => {
                    f.engines = Some(field_u64(key, value)? as usize);
                }
                "tag_bits" => {
                    f.tag_bits =
                        Some(field_u64(key, value)?.try_into().map_err(|_| {
                            arch_err("tag_bits", "expected a small integer bit width")
                        })?);
                }
                "scheme" => {
                    f.scheme =
                        Some(parse_scheme(&field_str(key, value)?).map_err(|e| arch_err(key, e))?)
                }
                other => {
                    return Err(arch_err(
                        other,
                        format!("unknown field (accepted fields: {ARCH_FIELDS})"),
                    ))
                }
            }
        }
        Ok(f)
    }

    /// Range checks beyond syntax: every violation names its field.
    ///
    /// # Errors
    ///
    /// [`CliError::Arch`] for non-positive PE arrays or GLB capacity,
    /// non-finite or non-positive bandwidth, implausible engine counts,
    /// and tag widths outside AES-GCM's 1..=128 bits.
    pub fn validate(&self) -> Result<(), CliError> {
        if let Some([x, y]) = self.pe {
            if x == 0 || y == 0 {
                return Err(arch_err(
                    "pe",
                    format!("PE array dimensions must be positive, got [{x}, {y}]"),
                ));
            }
        }
        if self.glb_kb == Some(0) {
            return Err(arch_err("glb_kb", "global buffer capacity must be > 0 kB"));
        }
        if let Some(bw) = self.noc_bytes_per_cycle {
            if !bw.is_finite() || bw <= 0.0 {
                return Err(arch_err(
                    "noc_bytes_per_cycle",
                    format!("bandwidth must be a positive finite number, got {bw}"),
                ));
            }
        }
        if let Some(n) = self.engines {
            if n > MAX_ENGINES {
                return Err(arch_err(
                    "engines",
                    format!("engine count {n} is implausible (max {MAX_ENGINES})"),
                ));
            }
        }
        if let Some(bits) = self.tag_bits {
            if bits == 0 || bits > 128 {
                return Err(arch_err(
                    "tag_bits",
                    format!("tag width must be in 1..=128 bits, got {bits}"),
                ));
            }
        }
        Ok(())
    }
}

/// Validate an [`ArchFile`] (see [`ArchFile::validate`]) and build the
/// [`Architecture`] it describes. Architecture flags, `--arch-file`,
/// a scenario's `arch:` block and every scheme override come through
/// here: the engine configuration first, then the file's `scheme`
/// through [`apply_scheme`], then an explicit `tag_bits`, which wins
/// over any scheme's default.
///
/// # Errors
///
/// [`CliError::Arch`] naming the offending field; a scheme the engine
/// configuration cannot realise names `scheme`.
pub fn arch_from_file(f: &ArchFile) -> Result<Architecture, CliError> {
    f.validate()?;
    let mut arch = Architecture::eyeriss_base();
    if let Some(name) = &f.name {
        arch = arch.with_name(name.clone());
    }
    if let Some([x, y]) = f.pe {
        arch = arch.with_pe_array(x, y);
    }
    if let Some(kb) = f.glb_kb {
        arch = arch.with_glb_kb(kb);
    }
    if let Some(bw) = f.noc_bytes_per_cycle {
        arch = arch.with_noc_bytes_per_cycle(bw);
    }
    if let Some(d) = &f.dram {
        arch = arch.with_dram(match d.as_str() {
            "lpddr4" => DramSpec::lpddr4_64(),
            "lpddr4-128" => DramSpec::lpddr4_128(),
            "hbm2" => DramSpec::hbm2_64(),
            other => return Err(arch_err("dram", format!("unknown interface '{other}'"))),
        });
    }
    if let Some(df) = &f.dataflow {
        arch = arch.with_dataflow(match df.as_str() {
            "row-stationary" => Dataflow::RowStationary,
            "weight-stationary" => Dataflow::WeightStationary,
            "output-stationary" => Dataflow::OutputStationary,
            "unconstrained" => Dataflow::Unconstrained,
            other => return Err(arch_err("dataflow", format!("unknown dataflow '{other}'"))),
        });
    }
    let class = match f.engine.as_deref() {
        None | Some("parallel") => EngineClass::Parallel,
        Some("pipelined") => EngineClass::Pipelined,
        Some("serial") => EngineClass::Serial,
        Some(_) => return Err(arch_err("engine", "expected pipelined | parallel | serial")),
    };
    let count = f.engines.unwrap_or(if f.engine.is_some() { 3 } else { 0 });
    if count > 0 {
        arch = arch.with_crypto(CryptoConfig::new(class, count));
    }
    if let Some(s) = f.scheme {
        arch = apply_scheme(&arch, s).map_err(|e| arch_err("scheme", e))?;
    }
    if let (Some(tag), Some(cfg)) = (f.tag_bits, arch.crypto()) {
        let cfg = CryptoConfig {
            tag_bits: tag,
            ..cfg.clone()
        };
        arch = arch.with_crypto(cfg);
    }
    Ok(arch)
}

/// The `--arch-file` document, or the architecture flags standing in
/// for one.
fn arch_file(opts: &Options) -> Result<ArchFile, CliError> {
    match &opts.arch_file {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| usage(format!("cannot read {path}: {e}")))?;
            ArchFile::parse(&text)
        }
        None => Ok(opts.arch.clone()),
    }
}

/// The command's design: a `--scheme` override takes the place of the
/// file's own `scheme` before the one build.
fn architecture(opts: &Options) -> Result<Architecture, CliError> {
    let mut f = arch_file(opts)?;
    f.scheme = opts.run.scheme.or(f.scheme);
    arch_from_file(&f)
}

/// The command's network; `--workload` is required.
fn network(opts: &Options) -> Result<Network, CliError> {
    let name = opts
        .run
        .workload
        .as_deref()
        .ok_or_else(|| usage(format!("{} needs --workload", opts.command)))?;
    workload(name)
}

fn scheduler(opts: &Options, arch: Architecture) -> Scheduler {
    let (search, annealing) = opts.run.configs(Entry::Schedule, opts.search_mode);
    Scheduler::new(arch)
        .with_search(search)
        .with_annealing(annealing)
}

/// Human-readable outcome summary appended to `schedule` output when
/// anything is below full quality.
fn outcome_summary(sched: &crate::scheduler::NetworkSchedule) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "layers: {} scheduled, {} degraded, {} failed",
        sched.scheduled_count(),
        sched.degraded_count(),
        sched.failed_count()
    );
    for (name, outcome) in &sched.outcomes {
        match outcome {
            LayerOutcome::Scheduled => {}
            LayerOutcome::Degraded { reason } => {
                let _ = writeln!(out, "  degraded {name}: {reason}");
            }
            LayerOutcome::Failed { error } => {
                let _ = writeln!(out, "  failed   {name}: {error}");
            }
        }
    }
    out
}

/// How a successfully dispatched command resolved, for the binary's
/// exit-code taxonomy (see the `exit codes:` section of [`USAGE`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunStatus {
    /// Full-quality results: exit code 0.
    Success,
    /// The command completed but something was below full quality (a
    /// degraded or failed layer, a skipped or poisoned design point):
    /// exit code 2.
    Degraded,
    /// A shutdown request stopped the run early; state was flushed and
    /// the run is resumable: exit code 3.
    Interrupted,
    /// The command completed and produced a report, but something
    /// failed outright (a suite scenario violated its expected bounds
    /// or could not be scheduled): exit code 1, with the report still
    /// printed to stdout.
    Failed,
}

/// Stdout payload plus exit-code classification from
/// [`run_with_status`].
#[derive(Debug, Clone)]
pub struct CliOutput {
    /// The stdout payload.
    pub text: String,
    /// How the command resolved.
    pub status: RunStatus,
}

impl CliOutput {
    fn ok(text: String) -> Self {
        CliOutput {
            text,
            status: RunStatus::Success,
        }
    }
}

/// Execute a parsed command and return its stdout payload.
///
/// Convenience wrapper around [`run_with_status`] that drops the exit
/// status; library callers who only want the text use this.
///
/// # Errors
///
/// [`CliError::Usage`] for any argument problem; computation itself is
/// infallible for the built-in workloads.
pub fn run(args: &[String]) -> Result<String, CliError> {
    run_with_status(args).map(|o| o.text)
}

/// Execute a parsed command and return its stdout payload plus the
/// [`RunStatus`] driving the binary's exit code.
///
/// Telemetry is reset per invocation so counters reflect exactly this
/// run; with `--trace-out` a JSON-Lines sink is installed for the
/// duration of the command and flushed before returning (on success
/// *and* on error — a failed run's partial trace is often the most
/// interesting one).
///
/// # Errors
///
/// [`CliError::Usage`] for any argument problem; computation itself is
/// infallible for the built-in workloads.
pub fn run_with_status(args: &[String]) -> Result<CliOutput, CliError> {
    let opts = parse(args)?;
    secureloop_telemetry::reset();
    let tracing = match &opts.trace_out {
        Some(path) => {
            let sink = secureloop_telemetry::JsonLinesSink::create(path)
                .map_err(|e| usage(format!("cannot create trace file {path}: {e}")))?;
            secureloop_telemetry::install_sink(Box::new(sink));
            true
        }
        None => false,
    };
    let result = dispatch(&opts);
    if tracing {
        secureloop_telemetry::flush_sink();
        drop(secureloop_telemetry::take_sink());
    }
    result
}

fn dispatch(opts: &Options) -> Result<CliOutput, CliError> {
    match opts.command.as_str() {
        "workloads" => Ok(CliOutput::ok(WORKLOAD_NAMES.to_string())),
        "suite" => {
            let dir = opts
                .suite_dir
                .as_deref()
                .ok_or_else(|| usage("suite needs a scenario directory: secureloop suite <dir>"))?;
            crate::suite::run_suite(
                std::path::Path::new(dir),
                opts.json,
                opts.search_mode,
                opts.run.scheme,
            )
        }
        "serve" => {
            let state_dir = opts
                .state_dir
                .as_deref()
                .ok_or_else(|| usage("serve needs --state-dir"))?;
            let mut cfg = crate::service::ServiceConfig::new(state_dir)
                .with_queue_depth(opts.queue_depth)
                .with_workers(opts.service_workers)
                .with_job_workers(opts.job_workers)
                .with_search_mode(opts.search_mode)
                .with_default_scheme(opts.run.scheme)
                .with_durability(opts.durability.clone());
            if let Some(mb) = opts.cache_budget_mb {
                cfg = cfg.with_cache_budget_bytes(mb.saturating_mul(1024 * 1024));
            }
            let mut admission = crate::service::AdmissionPolicy::default();
            if let Some(n) = opts.admit_max_samples {
                admission.max_samples = n;
            }
            if let Some(n) = opts.admit_max_designs {
                admission.max_designs = n;
            }
            if let Some(secs) = opts.admit_max_deadline_secs {
                admission.max_deadline_secs = secs;
            }
            cfg = cfg.with_admission(admission);
            let mut supervisor = crate::supervisor::SupervisorConfig::default();
            if let Some(retries) = opts.max_retries {
                supervisor.max_retries = retries;
            }
            if let Some(secs) = opts.task_timeout_secs {
                supervisor.task_timeout = Some(Duration::from_secs_f64(secs));
            }
            cfg = cfg.with_supervisor(supervisor);
            let server = crate::service::Server::new(cfg)?;
            let status = server.serve(std::io::stdin(), std::io::stdout());
            Ok(CliOutput {
                text: String::new(),
                status,
            })
        }
        "schedule" => {
            let net = network(opts)?;
            let arch = architecture(opts)?;
            let sched = scheduler(opts, arch).schedule(&net, opts.run.algorithm)?;
            let status = if sched.is_complete() {
                RunStatus::Success
            } else {
                RunStatus::Degraded
            };
            if opts.json {
                Ok(CliOutput {
                    text: report::to_json_with_telemetry(&sched, &secureloop_telemetry::snapshot()),
                    status,
                })
            } else {
                let mut out = String::new();
                let _ = writeln!(
                    out,
                    "{} / {} on {}",
                    sched.network, sched.algorithm, sched.arch_summary
                );
                let _ = writeln!(
                    out,
                    "latency {} cycles | energy {:.1} uJ | EDP {:.3e} | overhead {:.2} Mbit (hash {:.2} / redundant {:.2} / rehash {:.2})",
                    sched.total_latency_cycles,
                    sched.total_energy_pj / 1e6,
                    sched.edp(),
                    sched.overhead.total_bits() as f64 / 1e6,
                    sched.overhead.hash_bits as f64 / 1e6,
                    sched.overhead.redundant_bits as f64 / 1e6,
                    sched.overhead.rehash_bits as f64 / 1e6,
                );
                let _ = writeln!(
                    out,
                    "{:<16} {:>12} {:>12} {:>12} {:>6}",
                    "layer", "cycles", "energy(nJ)", "auth bits", "util"
                );
                for l in &sched.layers {
                    let _ = writeln!(
                        out,
                        "{:<16} {:>12} {:>12.1} {:>12} {:>5.0}%",
                        l.name,
                        l.latency_cycles,
                        l.energy_pj / 1e3,
                        l.extra_bits,
                        l.utilization * 100.0
                    );
                }
                if !sched.is_complete() {
                    out.push_str(&outcome_summary(&sched));
                }
                out.push_str(&report::telemetry_summary_text(
                    &secureloop_telemetry::snapshot(),
                ));
                Ok(CliOutput { text: out, status })
            }
        }
        "trace" => {
            let net = network(opts)?;
            let layer = net.layers().get(opts.layer).ok_or_else(|| {
                usage(format!(
                    "--layer {} out of range (network has {} layers)",
                    opts.layer,
                    net.len()
                ))
            })?;
            let arch = architecture(opts)?;
            let (search, _) = opts.run.configs(Entry::Trace, opts.search_mode);
            let best = secureloop_mapper::search(layer, &arch, &search)
                .map_err(|e| CliError::Engine(format!("mapper: {e}; raise --samples")))?
                .best()
                .ok_or_else(|| usage("no valid schedule found; raise --samples"))?
                .clone();
            let trace = secureloop_sim::generate_trace(layer, &arch, &best.0)
                .map_err(|e| usage(format!("cannot trace this schedule: {e}")))?;
            let replayed = secureloop_sim::replay(&trace, &arch);
            let (reads, writes) = trace.totals();
            let mut out = String::new();
            let _ = writeln!(out, "layer: {layer}");
            let _ = writeln!(out, "chosen loopnest:\n{}", best.0);
            let _ = writeln!(
                out,
                "trace: {} events over {} steps; reads w/i/o = {:?}, writes = {:?}",
                trace.events.len(),
                trace.steps,
                reads,
                writes
            );
            let _ = writeln!(
                out,
                "replay: {} cycles (analytical bound {}, pipeline efficiency {:.2})",
                replayed.total_cycles,
                replayed.analytical_bound(),
                replayed.pipeline_efficiency()
            );
            Ok(CliOutput::ok(out))
        }
        "dse" => {
            let net = network(opts)?;
            let designs = fig16_designs(&[], opts.run.scheme).map_err(usage)?;
            let (search, annealing) = opts.run.configs(Entry::Sweep, opts.search_mode);
            let mut sweep_opts = crate::dse::SweepOptions::new()
                .with_cache(opts.cache)
                .with_resume(opts.resume)
                .with_workers(opts.workers)
                .with_durability(opts.durability.clone());
            if let Some(retries) = opts.max_retries {
                sweep_opts = sweep_opts.with_max_retries(retries);
            }
            if let Some(secs) = opts.task_timeout_secs {
                sweep_opts = sweep_opts.with_task_timeout(Duration::from_secs_f64(secs));
            }
            if let Some(path) = &opts.checkpoint {
                sweep_opts = sweep_opts.with_checkpoint(path);
            }
            if let Some(path) = &opts.cache_file {
                sweep_opts = sweep_opts.with_cache_path(path);
            }
            let mut sweep = evaluate_designs_sweep(
                &net,
                &designs,
                opts.run.algorithm,
                &search,
                &annealing,
                &sweep_opts,
            )?;
            let excluded = fig16_design_space().len() - designs.len();
            if let (Some(s), 1..) = (opts.run.scheme, excluded) {
                sweep.warnings.push(format!(
                    "scheme '{s}': {excluded} design(s) excluded (engine class unsupported)"
                ));
            }
            let results = &sweep.results;
            let front = pareto_front(results);
            let status = if sweep.interrupted {
                RunStatus::Interrupted
            } else if sweep.degraded_persistence
                || !sweep.skipped.is_empty()
                || !sweep.poisoned.is_empty()
                || results.iter().any(|r| !r.schedule.is_complete())
            {
                RunStatus::Degraded
            } else {
                RunStatus::Success
            };
            if opts.json {
                return Ok(CliOutput {
                    text: report::sweep_to_json_with_telemetry(
                        &sweep,
                        &front,
                        &secureloop_telemetry::snapshot(),
                    ),
                    status,
                });
            }
            let mut out = String::new();
            for w in &sweep.warnings {
                let _ = writeln!(out, "warning: {w}");
            }
            let _ = writeln!(
                out,
                "{:<28} {:>10} {:>14} {:>8}",
                "design", "area(mm2)", "cycles", "pareto"
            );
            for (i, r) in results.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "{:<28} {:>10.2} {:>14} {:>8}",
                    r.label,
                    r.area_mm2(),
                    r.latency(),
                    if front.contains(&i) { "*" } else { "" }
                );
            }
            if sweep.reused > 0 {
                let _ = writeln!(
                    out,
                    "resumed: {} design point(s) restored from checkpoint, {} evaluated",
                    sweep.reused, sweep.evaluated
                );
            }
            if sweep.cache_hits + sweep.cache_misses > 0 {
                let _ = writeln!(
                    out,
                    "candidate cache: {} hit(s), {} miss(es) ({:.0}% hit rate)",
                    sweep.cache_hits,
                    sweep.cache_misses,
                    sweep.cache_hit_rate() * 100.0
                );
            }
            for (label, error) in &sweep.skipped {
                let _ = writeln!(out, "skipped {label}: {error}");
            }
            for (label, cause) in &sweep.poisoned {
                let _ = writeln!(out, "poisoned {label}: {cause}");
            }
            if sweep.interrupted {
                let _ = writeln!(
                    out,
                    "interrupted: shutdown requested; re-run with --resume to continue"
                );
            }
            out.push_str(&report::telemetry_summary_text(
                &secureloop_telemetry::snapshot(),
            ));
            Ok(CliOutput { text: out, status })
        }
        "compare-schemes" => {
            let name = opts
                .run
                .workload
                .as_deref()
                .ok_or_else(|| usage("compare-schemes needs --workload"))?;
            if opts.run.algorithm == Algorithm::Unsecure {
                return Err(usage(
                    "compare-schemes runs the unprotected baseline itself; \
                     pick a secure --algorithm for the protected rows",
                ));
            }
            let net = workload(name)?;
            let file = arch_file(opts)?;
            let base = arch_from_file(&file)?;
            if base.crypto().is_none() {
                return Err(usage(
                    "compare-schemes needs a crypto engine configuration (--engines > 0)",
                ));
            }
            struct RowData {
                latency: u64,
                energy_pj: f64,
                overhead_mbit: f64,
                edp: f64,
                crypto_mm2: f64,
            }
            let mut degraded_any = false;
            let mut rows: Vec<(SchemeId, Result<RowData, String>)> = Vec::new();
            for id in SchemeId::ALL {
                let row = ArchFile {
                    scheme: Some(id),
                    ..file.clone()
                };
                match arch_from_file(&row) {
                    Err(CliError::Arch { field, message }) if field == "scheme" => {
                        rows.push((id, Err(message)))
                    }
                    Err(e) => return Err(e),
                    Ok(arch) => {
                        let _scope =
                            secureloop_telemetry::enter_scope(format!("scheme:{}", id.name()));
                        let area = secureloop_energy::AreaModel::of(&arch);
                        let sched = scheduler(opts, arch).schedule(&net, opts.run.algorithm)?;
                        degraded_any |= !sched.is_complete();
                        rows.push((
                            id,
                            Ok(RowData {
                                latency: sched.total_latency_cycles,
                                energy_pj: sched.total_energy_pj,
                                overhead_mbit: sched.overhead.total_bits() as f64 / 1e6,
                                edp: sched.edp(),
                                crypto_mm2: area.crypto_mm2,
                            }),
                        ));
                    }
                }
            }
            let baseline = rows
                .iter()
                .find(|(id, _)| *id == SchemeId::None)
                .and_then(|(_, r)| r.as_ref().ok())
                .map(|r| (r.latency, r.energy_pj));
            let status = if degraded_any {
                RunStatus::Degraded
            } else {
                RunStatus::Success
            };
            if opts.json {
                let arr: Vec<Json> = rows
                    .iter()
                    .map(|(id, r)| match r {
                        Ok(d) => {
                            let mut v = Json::obj()
                                .field("scheme", id.name())
                                .field("supported", true)
                                .field("latency_cycles", d.latency)
                                .field("energy_pj", d.energy_pj)
                                .field("overhead_mbit", d.overhead_mbit)
                                .field("edp", d.edp)
                                .field("crypto_mm2", d.crypto_mm2);
                            if let Some((bl, be)) = baseline {
                                v = v
                                    .field("latency_vs_unprotected", d.latency as f64 / bl as f64)
                                    .field("energy_vs_unprotected", d.energy_pj / be);
                            }
                            v
                        }
                        Err(reason) => Json::obj()
                            .field("scheme", id.name())
                            .field("supported", false)
                            .field("reason", reason.as_str()),
                    })
                    .collect();
                let v = Json::obj()
                    .field("workload", name)
                    .field(
                        "engine",
                        base.crypto().map(|c| c.class.name()).unwrap_or("-"),
                    )
                    .field("schemes", Json::Arr(arr));
                return Ok(CliOutput {
                    text: v.pretty(),
                    status,
                });
            }
            let mut out = String::new();
            let _ = writeln!(
                out,
                "{name} on {} ({} engine class)",
                base.name(),
                base.crypto().map(|c| c.class.name()).unwrap_or("-"),
            );
            let _ = writeln!(
                out,
                "{:<12} {:>14} {:>8} {:>12} {:>8} {:>14} {:>11}",
                "scheme", "cycles", "lat", "energy(uJ)", "energy", "overhead(Mb)", "crypto(mm2)"
            );
            for (id, r) in &rows {
                match r {
                    Ok(d) => {
                        let (lat_x, en_x) = baseline
                            .map(|(bl, be)| {
                                (
                                    format!("{:.2}x", d.latency as f64 / bl as f64),
                                    format!("{:.2}x", d.energy_pj / be),
                                )
                            })
                            .unwrap_or_else(|| ("-".into(), "-".into()));
                        let _ = writeln!(
                            out,
                            "{:<12} {:>14} {:>8} {:>12.1} {:>8} {:>14.2} {:>11.3}",
                            id.display_name(),
                            d.latency,
                            lat_x,
                            d.energy_pj / 1e6,
                            en_x,
                            d.overhead_mbit,
                            d.crypto_mm2,
                        );
                    }
                    Err(reason) => {
                        let _ = writeln!(out, "{:<12} unsupported: {reason}", id.display_name());
                    }
                }
            }
            Ok(CliOutput { text: out, status })
        }
        // `parse` validated the command already, but keep this path an
        // ordinary error so a future command added to one place but not
        // the other degrades into a usage message instead of a panic.
        other => Err(usage(format!("unknown command '{other}'"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parse_full_schedule_command() {
        let o = parse(&argv(
            "schedule --workload alexnet --algorithm crypt-opt-single \
             --engine serial --engines 30 --pe 28x24 --glb-kb 16 \
             --dram hbm2 --samples 100 --iterations 50 --seed 9 --json",
        ))
        .unwrap();
        assert_eq!(o.command, "schedule");
        assert_eq!(o.run.workload.as_deref(), Some("alexnet"));
        assert_eq!(o.run.algorithm, Algorithm::CryptOptSingle);
        assert_eq!(o.arch.engine.as_deref(), Some("serial"));
        assert_eq!(o.arch.engines, Some(30));
        assert_eq!(o.arch.pe, Some([28, 24]));
        assert_eq!(o.arch.glb_kb, Some(16));
        assert!(o.json);
    }

    #[test]
    fn parse_rejects_unknowns() {
        assert!(matches!(
            parse(&argv("frobnicate")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&argv("schedule --algorithm nonsense")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&argv("schedule --pe 14by12")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&argv("schedule --engines")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(parse(&[]), Err(CliError::Usage(_))));
    }

    #[test]
    fn workloads_command_lists_names() {
        let out = run(&argv("workloads")).unwrap();
        assert!(out.contains("alexnet"));
        assert!(out.contains("mobilenet_v2"));
        assert!(out.contains("vgg16"));
        assert!(out.contains("attention"));
        assert!(out.contains("llm_decode"));
        assert!(out.contains("vit_tiny"));
        // Every advertised name resolves.
        for name in out.lines() {
            assert!(workload(name).is_ok(), "workloads lists unknown '{name}'");
        }
    }

    #[test]
    fn parse_suite_positional_dir() {
        let o = parse(&argv("suite suites/smoke --json")).unwrap();
        assert_eq!(o.command, "suite");
        assert_eq!(o.suite_dir.as_deref(), Some("suites/smoke"));
        assert!(o.json);
        // A second positional is an error, and other commands reject
        // positionals entirely.
        assert!(matches!(parse(&argv("suite a b")), Err(CliError::Usage(_))));
        assert!(matches!(
            parse(&argv("schedule suites")),
            Err(CliError::Usage(_))
        ));
        // Missing directory surfaces at dispatch.
        assert!(matches!(run(&argv("suite")), Err(CliError::Usage(_))));
    }

    #[test]
    fn parse_scheme_flag() {
        let o = parse(&argv("dse --workload alexnet --scheme seculator")).unwrap();
        assert_eq!(o.run.scheme, Some(SchemeId::Seculator));
        let o = parse(&argv("suite suites/smoke --scheme none")).unwrap();
        assert_eq!(o.run.scheme, Some(SchemeId::None));
        let o = parse(&argv("compare-schemes --workload alexnet")).unwrap();
        assert_eq!(o.command, "compare-schemes");
        assert_eq!(o.run.scheme, None, "default is the architecture's scheme");
        let e = parse(&argv("dse --workload alexnet --scheme rot13")).unwrap_err();
        assert!(
            e.to_string().contains("none | aes-gcm | seculator | seda"),
            "{e}"
        );
    }

    #[test]
    fn arch_file_scheme_field_selects_the_backend() {
        let f =
            ArchFile::parse(r#"{"engine":"parallel","engines":3,"scheme":"seculator"}"#).unwrap();
        let arch = arch_from_file(&f).unwrap();
        let cc = arch.crypto().unwrap();
        assert_eq!(cc.scheme, SchemeId::Seculator);
        assert_eq!(cc.tag_bits, 32, "scheme default tag adopted");

        // An explicit tag_bits wins over the scheme default.
        let f = ArchFile::parse(
            r#"{"engine":"parallel","engines":3,"scheme":"seculator","tag_bits":128}"#,
        )
        .unwrap();
        assert_eq!(arch_from_file(&f).unwrap().crypto().unwrap().tag_bits, 128);

        // `"scheme":"none"` strips the crypto config entirely.
        let f = ArchFile::parse(r#"{"engine":"parallel","engines":3,"scheme":"none"}"#).unwrap();
        assert!(arch_from_file(&f).unwrap().crypto().is_none());
    }

    #[test]
    fn arch_file_scheme_field_rejects_bad_combos() {
        let e = ArchFile::parse(r#"{"scheme":"rot13"}"#).unwrap_err();
        assert!(
            matches!(&e, CliError::Arch { field, .. } if field == "scheme"),
            "{e}"
        );
        // A protected scheme with no engines is impossible.
        let f = ArchFile::parse(r#"{"engines":0,"scheme":"seculator"}"#).unwrap();
        let e = arch_from_file(&f).unwrap_err();
        assert!(
            e.to_string()
                .contains("needs a crypto engine configuration"),
            "{e}"
        );
        // SeDA has no pipelined design point.
        let f = ArchFile::parse(r#"{"engine":"pipelined","engines":2,"scheme":"seda"}"#).unwrap();
        let e = arch_from_file(&f).unwrap_err();
        assert!(
            e.to_string()
                .contains("does not support the Pipelined engine class"),
            "{e}"
        );
    }

    #[test]
    fn compare_schemes_runs_end_to_end() {
        let out = run(&argv(
            "compare-schemes --workload llm_decode --samples 100 --iterations 5",
        ))
        .unwrap();
        assert!(out.contains("Unprotected"), "{out}");
        assert!(out.contains("AES-GCM"), "{out}");
        assert!(out.contains("Seculator"), "{out}");
        assert!(out.contains("SeDA"), "{out}");
        assert!(out.contains("1.00x"), "baseline ratios present: {out}");
    }

    #[test]
    fn compare_schemes_json_marks_unsupported_rows() {
        let out = run(&argv(
            "compare-schemes --workload llm_decode --engine pipelined \
             --samples 100 --iterations 5 --json",
        ))
        .unwrap();
        let v = Json::parse(&out).unwrap();
        let rows = v["schemes"].as_array().unwrap();
        assert_eq!(rows.len(), 4, "one row per scheme");
        let seda = rows
            .iter()
            .find(|r| r["scheme"].as_str() == Some("seda"))
            .unwrap();
        assert_eq!(seda["supported"].as_bool(), Some(false));
        assert!(seda["reason"]
            .as_str()
            .unwrap()
            .contains("Pipelined engine class"));
        // The unprotected baseline dominates every protected row.
        let base = rows
            .iter()
            .find(|r| r["scheme"].as_str() == Some("none"))
            .unwrap();
        let base_lat = base["latency_cycles"].as_u64().unwrap();
        let base_en = base["energy_pj"].as_f64().unwrap();
        for r in rows {
            if r["supported"].as_bool() == Some(true) && r["scheme"].as_str() != Some("none") {
                assert!(r["latency_cycles"].as_u64().unwrap() >= base_lat);
                assert!(r["energy_pj"].as_f64().unwrap() >= base_en);
            }
        }
    }

    #[test]
    fn compare_schemes_requires_workload_and_a_secure_algorithm() {
        let e = run(&argv("compare-schemes")).unwrap_err();
        assert!(e.to_string().contains("--workload"), "{e}");
        let e = run(&argv(
            "compare-schemes --workload llm_decode --algorithm unsecure",
        ))
        .unwrap_err();
        assert!(e.to_string().contains("unprotected baseline"), "{e}");
        let e = run(&argv("compare-schemes --workload llm_decode --engines 0")).unwrap_err();
        assert!(e.to_string().contains("crypto engine"), "{e}");
    }

    #[test]
    fn schedule_command_runs_end_to_end() {
        let out = run(&argv(
            "schedule --workload alexnet --algorithm unsecure --engines 0 \
             --samples 300 --iterations 10",
        ))
        .unwrap();
        assert!(out.contains("AlexNet / Unsecure"));
        assert!(out.contains("conv5"));
    }

    #[test]
    fn schedule_json_output_parses() {
        let out = run(&argv(
            "schedule --workload alexnet --samples 300 --iterations 10 --json",
        ))
        .unwrap();
        let v = Json::parse(&out).unwrap();
        assert_eq!(v["algorithm"], "Crypt-Opt-Cross");
    }

    #[test]
    fn arch_file_parses_and_overrides() {
        let f = ArchFile::parse(
            r#"{"name":"edge","pe":[16,16],"glb_kb":64,"dram":"hbm2",
                "dataflow":"weight-stationary","engine":"pipelined",
                "engines":3,"tag_bits":128}"#,
        )
        .unwrap();
        let arch = arch_from_file(&f).unwrap();
        assert_eq!(arch.name(), "edge");
        assert_eq!(arch.num_pes(), 256);
        assert_eq!(arch.glb_bytes(), 64 * 1024);
        assert_eq!(arch.dram().name(), "HBM2-64B");
        assert_eq!(arch.crypto().unwrap().tag_bits, 128);
    }

    #[test]
    fn arch_file_rejects_unknown_fields_and_values() {
        let e = ArchFile::parse(r#"{"frequency": 5}"#).unwrap_err();
        assert!(
            matches!(&e, CliError::Arch { field, .. } if field == "frequency"),
            "{e}"
        );
        let f = ArchFile::parse(r#"{"dram":"ddr9"}"#).unwrap();
        let e = arch_from_file(&f).unwrap_err();
        assert!(
            matches!(&e, CliError::Arch { field, .. } if field == "dram"),
            "{e}"
        );
    }

    #[test]
    fn arch_file_names_offending_field() {
        let cases = [
            (r#"{"pe":[0,12]}"#, "pe"),
            (r#"{"pe":[14]}"#, "pe"),
            (r#"{"pe":"14x12"}"#, "pe"),
            (r#"{"glb_kb":0}"#, "glb_kb"),
            (r#"{"noc_bytes_per_cycle":0}"#, "noc_bytes_per_cycle"),
            (r#"{"noc_bytes_per_cycle":-3.5}"#, "noc_bytes_per_cycle"),
            (r#"{"engines":100000}"#, "engines"),
            (r#"{"engines":-1}"#, "engines"),
            (r#"{"tag_bits":0}"#, "tag_bits"),
            (r#"{"tag_bits":4096}"#, "tag_bits"),
            (r#"{"dataflow":7}"#, "dataflow"),
            (r#"[1,2,3]"#, "<root>"),
            (r#"{"pe":[14,12]"#, "<syntax>"),
        ];
        for (text, want) in cases {
            let e = ArchFile::parse(text).unwrap_err();
            match &e {
                CliError::Arch { field, message } => {
                    assert_eq!(field, want, "wrong field for {text}: {message}");
                    assert!(!message.is_empty());
                }
                other => panic!("expected Arch error for {text}, got {other:?}"),
            }
        }
    }

    #[test]
    fn arch_file_errors_render_actionably() {
        let e = ArchFile::parse(r#"{"glb_kb":0}"#).unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains("glb_kb") && msg.contains("> 0"), "{msg}");
    }

    #[test]
    fn schedule_with_arch_file_end_to_end() {
        let dir = std::env::temp_dir().join(format!("slarch_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("arch.json");
        std::fs::write(&path, r#"{"pe":[8,8],"engines":0}"#).unwrap();
        let out = run(&argv(&format!(
            "schedule --workload alexnet --algorithm unsecure              --samples 200 --iterations 5 --arch-file {}",
            path.display()
        )))
        .unwrap();
        assert!(out.contains("8x8 PEs"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn trace_command_runs() {
        let out = run(&argv("trace --workload alexnet --layer 2 --samples 300")).unwrap();
        assert!(out.contains("chosen loopnest"));
        assert!(out.contains("replay:"));
    }

    #[test]
    fn trace_rejects_bad_layer() {
        let e = run(&argv("trace --workload alexnet --layer 99 --samples 50")).unwrap_err();
        assert!(e.to_string().contains("out of range"), "{e}");
    }

    #[test]
    fn architecture_flags_meet_the_arch_file_checks() {
        // Each used to run a whole search (or exit 0); now parsing fails
        // first, naming the field.
        for (flags, field) in [
            ("--pe 0x12", "pe"),
            ("--glb-kb 0", "glb_kb"),
            ("--engines 100000", "engines"),
            ("--dram ddr9", "dram"),
            ("--engine warp", "engine"),
        ] {
            let e = parse(&argv(&format!("schedule --workload alexnet {flags}"))).unwrap_err();
            assert!(
                matches!(&e, CliError::Arch { field: f, .. } if f == field),
                "{flags}: {e}"
            );
        }
        let e = parse(&argv("schedule --workload alexnet --samples 0")).unwrap_err();
        assert_eq!(e, CliError::Usage("'samples' must be at least 1".into()));
        // The flag defaults build the same design as the Eyeriss base
        // with three parallel engines.
        let o = parse(&argv("schedule --workload alexnet")).unwrap();
        let arch = architecture(&o).unwrap();
        let want = Architecture::eyeriss_base()
            .with_pe_array(14, 12)
            .with_glb_kb(131)
            .with_dram(DramSpec::lpddr4_64())
            .with_crypto(CryptoConfig::new(EngineClass::Parallel, 3));
        assert_eq!(format!("{arch:?}"), format!("{want:?}"));
    }

    #[test]
    fn missing_workload_reports_usage() {
        let e = run(&argv("schedule")).unwrap_err();
        assert!(e.to_string().contains("--workload"), "{e}");
    }
}
