//! Command-line front end (used by the `secureloop` binary).
//!
//! Kept inside the library so the parser and command dispatch are unit
//! testable; the binary is a thin wrapper around [`run`]. Each flag is
//! declared once, in one table that parsing and help both read.

use std::fmt::Write as _;
use std::str::FromStr;
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
use crate::service::AdmissionPolicy;
use crate::supervisor::SupervisorConfig;

/// A `secureloop` subcommand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// Schedule one workload on one design.
    Schedule,
    /// Trace and replay one layer's best mapping.
    Trace,
    /// Price one design under every protection scheme.
    CompareSchemes,
    /// Sweep the Fig. 16 design space.
    Dse,
    /// Check a directory of scenario files against their bounds.
    Suite,
    /// Serve DSE jobs over JSON Lines.
    Serve,
    /// List the workload names.
    Workloads,
}

use Command::{CompareSchemes, Dse, Schedule, Serve, Suite, Trace, Workloads};

/// Every command with its name, arguments and what it does, in the
/// order help lists them.
#[rustfmt::skip]
const COMMANDS: [(Command, &str, &str, &str); 7] = [
    (Schedule, "schedule", "--workload <name> [options]", "schedule one workload on one design"),
    (Trace, "trace", "--workload <name> --layer <i> [options]", "trace and replay one layer's best mapping"),
    (CompareSchemes, "compare-schemes", "--workload <name> [options]",
     "price one design under every protection scheme against the unprotected baseline"),
    (Dse, "dse", "--workload <name> [options]", "sweep the 18 Fig. 16 designs and mark the Pareto front"),
    (Suite, "suite", "<dir> [options]",
     "check every *.yaml scenario under <dir> against its expected bounds (DESIGN.md \"Scenario suites\")"),
    (Serve, "serve", "--state-dir <dir> [options]", "serve DSE jobs: JSON-Lines requests on stdin, events on stdout"),
    (Workloads, "workloads", "", "list the workload names"),
];

impl Command {
    /// The command's name on the command line.
    pub fn name(self) -> &'static str {
        COMMANDS[self as usize].1
    }

    fn from_name(name: &str) -> Option<Command> {
        COMMANDS.iter().find(|c| c.1 == name).map(|c| c.0)
    }
}

/// The help text: every command and flag, or with `Some(command)` only
/// that command and the flags it reads. Flags read by the same commands
/// are listed under one heading.
pub fn help_text(only: Option<Command>) -> String {
    let mut out = String::from("usage:\n");
    for (command, name, args, about) in COMMANDS {
        if only.is_none_or(|c| c == command) {
            let _ = writeln!(out, "  {}", format!("secureloop {name} {args}").trim_end());
            wrap(&mut out, 6, "", about);
        }
    }
    if only.is_none() {
        let workloads = WORKLOAD_NAMES.replace('\n', ", ");
        out.push_str("  secureloop help | --help | <command> --help\n\n");
        wrap(&mut out, 11, "workloads:", &workloads);
        let algorithms = "unsecure, crypt-tile-single, crypt-opt-single, crypt-opt-cross";
        wrap(&mut out, 12, "algorithms:", algorithms);
    }
    let shown = FLAGS
        .iter()
        .filter(|f| only.is_none_or(|c| f.commands.contains(&c)));
    let mut group: &[Command] = &[];
    for flag in shown {
        if flag.commands != group {
            group = flag.commands;
            let names: Vec<&str> = group.iter().map(|c| c.name()).collect();
            let _ = writeln!(out, "\noptions of {}:", names.join(", "));
        }
        let head = format!("  {} {}", flag.name, flag.value.unwrap_or_default());
        wrap(&mut out, 41, head.trim_end(), flag.help);
    }
    out.push_str(
        "
exit codes:
  0  success, full-quality results
  1  fatal error: bad arguments or input, engine failure, a failed scenario
  2  completed but degraded: a layer or design point degraded, skipped or
     poisoned, or artifact writes kept failing so results went unsaved
  3  interrupted by SIGINT/SIGTERM; checkpoint flushed, re-run with --resume",
    );
    out
}

/// Append `head` padded to `margin` columns, then `text` wrapped to 80
/// columns with continuation lines indented to `margin`.
fn wrap(out: &mut String, margin: usize, head: &str, text: &str) {
    let mut line = format!("{:<margin$}", format!("{head} "));
    for word in text.split_whitespace() {
        if line.len() > margin && line.len() + word.len() > 80 {
            let _ = writeln!(out, "{}", line.trim_end());
            line = " ".repeat(margin);
        }
        line.push_str(word);
        line.push(' ');
    }
    let _ = writeln!(out, "{}", line.trim_end());
}

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

/// Parsed command line: the command, the `suite` directory and the
/// flags (see `secureloop help`).
#[derive(Debug, Clone)]
pub struct Options {
    /// The subcommand.
    pub command: Command,
    /// The run fields.
    pub run: RunSpec,
    /// The architecture flags, validated like an `--arch-file`.
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
    /// Cross-design candidate cache for the `dse` command.
    pub cache: bool,
    /// Explicit on-disk home for the candidate cache.
    pub cache_file: Option<String>,
    /// Design points evaluated in parallel by the `dse` command.
    pub workers: usize,
    /// Supervised retries per design point (`dse` and `serve`).
    pub max_retries: Option<u32>,
    /// Per-attempt wall-clock watchdog in seconds (`dse` and `serve`).
    pub task_timeout_secs: Option<f64>,
    /// Stream telemetry events to this file as JSON Lines.
    pub trace_out: Option<String>,
    /// Write discipline of every checkpoint, cache and journal.
    pub durability: DurabilityPolicy,
    /// State dir for the `serve` command.
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

/// One command-line flag.
struct Flag {
    name: &'static str,
    /// The commands that read the flag; the others reject it.
    commands: &'static [Command],
    /// The value's placeholder in help; `None` for a switch.
    value: Option<&'static str>,
    /// Stores the value (empty for a switch) in `Options`; it gets the
    /// flag's name for its error text.
    set: fn(&mut Options, &str, &str) -> Result<(), CliError>,
    help: &'static str,
}

/// Commands that run the workload named by `--workload`.
const RUN: &[Command] = &[Schedule, Trace, CompareSchemes, Dse];
/// Commands that anneal (`trace` maps one layer and stops).
const ANNEAL: &[Command] = &[Schedule, CompareSchemes, Dse];
/// Commands that build one design from the architecture flags.
const ARCH: &[Command] = &[Schedule, Trace, CompareSchemes];
/// Commands that run supervised sweeps and persist artifacts.
const SWEEP: &[Command] = &[Dse, Serve];
/// Every command that runs work.
const WORK: &[Command] = &[Schedule, Trace, CompareSchemes, Dse, Suite, Serve];

/// Every flag, once, in the order help lists them; flags read by the
/// same commands sit together.
#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    Flag { name: "--workload", commands: RUN, value: Some("<name>"), set: run_field,
           help: "workload to run (see `secureloop workloads`)" },
    Flag { name: "--samples", commands: RUN, value: Some("<n>"), set: run_field,
           help: "mapper samples per layer (default 3000; a cap in guided mode)" },
    Flag { name: "--seed", commands: RUN, value: Some("<n>"), set: run_field, help: "RNG seed (default 1)" },
    Flag { name: "--deadline-secs", commands: RUN, value: Some("<s>"), set: run_field,
           help: "wall-clock budget per layer search and per annealed segment; on expiry the engine degrades" },
    Flag { name: "--algorithm", commands: ANNEAL, value: Some("<algo>"), set: run_field,
           help: "scheduling algorithm (default crypt-opt-cross)" },
    Flag { name: "--iterations", commands: ANNEAL, value: Some("<n>"), set: run_field,
           help: "SA iterations (default 1000)" },
    Flag { name: "--scheme", commands: &[Schedule, Trace, Dse, Suite, Serve],
           value: Some("<none|aes-gcm|seculator|seda>"), set: run_field,
           help: "protection scheme (default aes-gcm; none strips the crypto engines; on suite it overrides \
                  every scenario, on serve it is the jobs' default)" },
    Flag { name: "--search-mode", commands: WORK, value: Some("<random|guided>"), set: |o, _, v| {
               let mode = SearchMode::from_name(v).ok_or_else(|| usage(format!("unknown search mode '{v}'")));
               mode.map(|m| o.search_mode = m)
           },
           help: "mapper exploration (default guided, Pareto-front-guided; random is the paper's search)" },
    Flag { name: "--trace-out", commands: WORK, value: Some("<path.jsonl>"), set: |o, _, v| text(&mut o.trace_out, v),
           help: "stream telemetry events to this file as JSON Lines" },
    Flag { name: "--json", commands: &[Schedule, CompareSchemes, Dse, Suite], value: None,
           set: |o, _, _| { o.json = true; Ok(()) }, help: "emit JSON instead of a table" },
    Flag { name: "--engine", commands: ARCH, value: Some("<pipelined|parallel|serial>"),
           set: |o, _, v| text(&mut o.arch.engine, v), help: "crypto engine class (default parallel)" },
    Flag { name: "--engines", commands: ARCH, value: Some("<n>"),
           set: |o, f, v| int(f, v).map(|n| o.arch.engines = Some(n)), help: "engine count (default 3; 0 = unsecure)" },
    Flag { name: "--pe", commands: ARCH, value: Some("<XxY>"), set: |o, _, v| {
               let (x, y) = v.split_once('x').ok_or_else(|| usage("--pe expects XxY, e.g. 14x12"))?;
               let x = x.parse().map_err(|_| usage("bad PE width"))?;
               y.parse().map(|y| o.arch.pe = Some([x, y])).map_err(|_| usage("bad PE height"))
           },
           help: "PE array (default 14x12)" },
    Flag { name: "--glb-kb", commands: ARCH, value: Some("<n>"),
           set: |o, f, v| int(f, v).map(|kb| o.arch.glb_kb = Some(kb)), help: "global buffer in kB (default 131)" },
    Flag { name: "--dram", commands: ARCH, value: Some("<lpddr4|lpddr4-128|hbm2>"),
           set: |o, _, v| text(&mut o.arch.dram, v), help: "DRAM interface (default lpddr4)" },
    Flag { name: "--arch-file", commands: ARCH, value: Some("<path.json>"), set: |o, _, v| text(&mut o.arch_file, v),
           help: "load the architecture from JSON (overrides the other architecture flags)" },
    Flag { name: "--layer", commands: &[Trace], value: Some("<i>"),
           set: |o, f, v| num(f, v, "an index").map(|i| o.layer = i), help: "layer index (default 0)" },
    Flag { name: "--checkpoint", commands: &[Dse], value: Some("<path.json>"), set: |o, _, v| text(&mut o.checkpoint, v),
           help: "write finished design points to this file after each evaluation" },
    Flag { name: "--resume", commands: &[Dse], value: None, set: |o, _, _| { o.resume = true; Ok(()) },
           help: "restore finished design points from --checkpoint instead of re-evaluating them" },
    Flag { name: "--no-cache", commands: &[Dse], value: None, set: |o, _, _| { o.cache = false; Ok(()) },
           help: "disable the cross-design candidate cache" },
    Flag { name: "--cache-file", commands: &[Dse], value: Some("<path.json>"), set: |o, _, v| text(&mut o.cache_file, v),
           help: "persist the candidate cache here (default: next to --checkpoint, as .cache.json)" },
    Flag { name: "--workers", commands: &[Dse], value: Some("<n>"), set: |o, f, v| count(f, v).map(|n| o.workers = n),
           help: "design points evaluated in parallel (default 1; results are byte-identical)" },
    Flag { name: "--max-retries", commands: SWEEP, value: Some("<n>"),
           set: |o, f, v| int(f, v).map(|n| o.max_retries = Some(n)),
           help: "supervised retries per design point before it is skipped or quarantined (default 2)" },
    Flag { name: "--task-timeout-secs", commands: SWEEP, value: Some("<s>"),
           set: |o, f, v| secs(f, v).map(|s| o.task_timeout_secs = Some(s)),
           help: "wall-clock watchdog per design attempt; a stalled attempt is cancelled and retried" },
    Flag { name: "--durability", commands: SWEEP, value: Some("<full|fast>"), set: |o, _, v| match v {
               "full" | "fast" => { o.durability.fsync = v == "full"; Ok(()) }
               _ => Err(usage(format!("unknown durability '{v}' (expected full | fast)"))),
           },
           help: "artifact writes: full fsyncs file and directory (default), fast skips the fsyncs" },
    Flag { name: "--io-retries", commands: SWEEP, value: Some("<n>"),
           set: |o, f, v| int(f, v).map(|n| o.durability.retries = n),
           help: "retries per artifact write before persistence degrades to memory (default 3)" },
    Flag { name: "--io-backoff-ms", commands: SWEEP, value: Some("<ms>"),
           set: |o, f, v| num(f, v, "an integer (milliseconds)").map(|ms| o.durability.backoff = Duration::from_millis(ms)),
           help: "backoff base between artifact write retries; attempt n waits 2^n times this (default 10)" },
    Flag { name: "--state-dir", commands: &[Serve], value: Some("<dir>"), set: |o, _, v| text(&mut o.state_dir, v),
           help: "journal, shared cache and per-job checkpoints live here (required)" },
    Flag { name: "--queue-depth", commands: &[Serve], value: Some("<n>"),
           set: |o, f, v| count(f, v).map(|n| o.queue_depth = n),
           help: "queued jobs beyond this are shed as 'overloaded' (default 8)" },
    Flag { name: "--service-workers", commands: &[Serve], value: Some("<n>"),
           set: |o, f, v| count(f, v).map(|n| o.service_workers = n), help: "jobs run concurrently (default 2)" },
    Flag { name: "--job-workers", commands: &[Serve], value: Some("<n>"),
           set: |o, f, v| count(f, v).map(|n| o.job_workers = n),
           help: "design points evaluated in parallel inside each job (default 1)" },
    Flag { name: "--cache-budget-mb", commands: &[Serve], value: Some("<n>"),
           set: |o, f, v| int(f, v).map(|n| o.cache_budget_mb = Some(n)),
           help: "LRU memory budget for the shared candidate cache (default unbounded)" },
    Flag { name: "--admit-max-samples", commands: &[Serve], value: Some("<n>"),
           set: |o, f, v| int(f, v).map(|n| o.admit_max_samples = Some(n)),
           help: "admission cap on per-layer samples (default 20000)" },
    Flag { name: "--admit-max-designs", commands: &[Serve], value: Some("<n>"),
           set: |o, f, v| int(f, v).map(|n| o.admit_max_designs = Some(n)),
           help: "admission cap on design points per job (default 18)" },
    Flag { name: "--admit-max-deadline-secs", commands: &[Serve], value: Some("<s>"),
           set: |o, f, v| secs(f, v).map(|s| o.admit_max_deadline_secs = Some(s)),
           help: "admission cap on a job's per-layer deadline (default 300)" },
];

/// A run field, parsed by the one [`RunSpec`] parser.
fn run_field(o: &mut Options, flag: &str, text: &str) -> Result<(), CliError> {
    o.run.set_flag(flag, text).map(drop).map_err(usage)
}

/// A free-text value: a path or a name checked where it is used.
fn text(field: &mut Option<String>, value: &str) -> Result<(), CliError> {
    *field = Some(value.to_string());
    Ok(())
}

/// `text` as a `T`, or "`flag` expects `what`".
fn num<T: FromStr>(flag: &str, text: &str, what: &str) -> Result<T, CliError> {
    text.parse()
        .map_err(|_| usage(format!("{flag} expects {what}")))
}

fn int<T: FromStr>(flag: &str, text: &str) -> Result<T, CliError> {
    num(flag, text, "an integer")
}

/// An integer of at least 1.
fn count(flag: &str, text: &str) -> Result<usize, CliError> {
    match int(flag, text)? {
        0 => Err(usage(format!("{flag} must be at least 1"))),
        n => Ok(n),
    }
}

/// A positive, finite number of seconds.
fn secs(flag: &str, text: &str) -> Result<f64, CliError> {
    let value: f64 = num(flag, text, "a number of seconds")?;
    if value.is_finite() && value > 0.0 {
        return Ok(value);
    }
    Err(usage(format!("{flag} must be a positive number")))
}

/// Parse raw arguments, looking each flag up in the flag table.
///
/// # Errors
///
/// [`CliError::Usage`] on unknown commands or flags, a flag the command
/// does not read (naming both), and malformed values;
/// [`CliError::Arch`] naming the field when the architecture flags fail
/// the `--arch-file` checks.
pub fn parse(args: &[String]) -> Result<Options, CliError> {
    let mut it = args.iter();
    let name = it.next().ok_or_else(|| usage("missing command"))?;
    let command =
        Command::from_name(name).ok_or_else(|| usage(format!("unknown command '{name}'")))?;
    let mut opts = Options {
        command,
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
    };
    while let Some(arg) = it.next() {
        let Some(flag) = FLAGS.iter().find(|f| f.name == arg) else {
            if command == Suite && !arg.starts_with('-') && opts.suite_dir.is_none() {
                opts.suite_dir = Some(arg.clone());
                continue;
            }
            return Err(usage(format!("unknown flag '{arg}'")));
        };
        if !flag.commands.contains(&command) {
            return Err(usage(format!(
                "{name} does not take {arg} (see `secureloop {name} --help`)"
            )));
        }
        let text = match flag.value {
            Some(_) => it
                .next()
                .ok_or_else(|| usage(format!("flag {arg} needs a value")))?,
            None => "",
        };
        (flag.set)(&mut opts, arg, text)?;
    }
    // The architecture flags meet the `--arch-file` checks before the
    // command runs.
    if ARCH.contains(&command) {
        arch_from_file(&opts.arch)?;
    }
    Ok(opts)
}

/// The help `args` ask for: all of it for `help` or `--help` alone,
/// a command's own for `--help` after its name.
fn help(args: &[String]) -> Option<String> {
    match args {
        [only] if only == "help" || only == "--help" => Some(help_text(None)),
        [name, rest @ ..] if rest.iter().any(|a| a == "--help") => {
            Command::from_name(name).map(|c| help_text(Some(c)))
        }
        _ => None,
    }
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
        .ok_or_else(|| usage(format!("{} needs --workload", opts.command.name())))?;
    workload(name)
}

/// The supervisor of `dse` and `serve` sweeps.
fn supervisor(opts: &Options) -> SupervisorConfig {
    let mut supervisor = SupervisorConfig::default();
    if let Some(retries) = opts.max_retries {
        supervisor.max_retries = retries;
    }
    supervisor.task_timeout = opts.task_timeout_secs.map(Duration::from_secs_f64);
    supervisor
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
/// exit-code taxonomy (see the `exit codes:` section of [`help_text`]).
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
/// [`RunStatus`] driving the binary's exit code. A help request
/// (`help`, `--help`, `<command> --help`) returns the help text.
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
    if let Some(text) = help(args) {
        return Ok(CliOutput::ok(text));
    }
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
    match opts.command {
        Workloads => Ok(CliOutput::ok(WORKLOAD_NAMES.to_string())),
        Suite => {
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
        Serve => {
            let state_dir = opts
                .state_dir
                .as_deref()
                .ok_or_else(|| usage("serve needs --state-dir"))?;
            let caps = AdmissionPolicy::default();
            let mut cfg = crate::service::ServiceConfig::new(state_dir)
                .with_queue_depth(opts.queue_depth)
                .with_workers(opts.service_workers)
                .with_job_workers(opts.job_workers)
                .with_search_mode(opts.search_mode)
                .with_default_scheme(opts.run.scheme)
                .with_durability(opts.durability.clone())
                .with_admission(AdmissionPolicy {
                    max_samples: opts.admit_max_samples.unwrap_or(caps.max_samples),
                    max_designs: opts.admit_max_designs.unwrap_or(caps.max_designs),
                    max_deadline_secs: opts
                        .admit_max_deadline_secs
                        .unwrap_or(caps.max_deadline_secs),
                })
                .with_supervisor(supervisor(opts));
            if let Some(mb) = opts.cache_budget_mb {
                cfg = cfg.with_cache_budget_bytes(mb.saturating_mul(1024 * 1024));
            }
            let server = crate::service::Server::new(cfg)?;
            let status = server.serve(std::io::stdin(), std::io::stdout());
            Ok(CliOutput {
                text: String::new(),
                status,
            })
        }
        Schedule => {
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
        Trace => {
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
        Dse => {
            let net = network(opts)?;
            let designs = fig16_designs(&[], opts.run.scheme).map_err(usage)?;
            let (search, annealing) = opts.run.configs(Entry::Sweep, opts.search_mode);
            let mut sweep_opts = crate::dse::SweepOptions::new()
                .with_cache(opts.cache)
                .with_resume(opts.resume)
                .with_workers(opts.workers)
                .with_durability(opts.durability.clone())
                .with_supervisor(supervisor(opts));
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
        CompareSchemes => {
            let net = network(opts)?;
            let name = opts.run.workload.as_deref().unwrap_or_default();
            if opts.run.algorithm == Algorithm::Unsecure {
                return Err(usage(
                    "compare-schemes runs the unprotected baseline itself; \
                     pick a secure --algorithm for the protected rows",
                ));
            }
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
        assert_eq!(o.command, Schedule);
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
        assert_eq!(o.command, Suite);
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
        assert_eq!(o.command, CompareSchemes);
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

    /// The flags each command reads, written out independently of the
    /// flag table: what `dispatch` and its helpers consume.
    fn reads(command: Command) -> Vec<&'static str> {
        let run = [
            "--workload",
            "--algorithm",
            "--scheme",
            "--samples",
            "--iterations",
            "--seed",
            "--deadline-secs",
        ];
        let arch = [
            "--engine",
            "--engines",
            "--pe",
            "--glb-kb",
            "--dram",
            "--arch-file",
        ];
        let sweep = [
            "--max-retries",
            "--task-timeout-secs",
            "--durability",
            "--io-retries",
            "--io-backoff-ms",
        ];
        let serve = [
            "--state-dir",
            "--queue-depth",
            "--service-workers",
            "--job-workers",
            "--cache-budget-mb",
            "--admit-max-samples",
            "--admit-max-designs",
            "--admit-max-deadline-secs",
        ];
        let dse = [
            "--checkpoint",
            "--resume",
            "--no-cache",
            "--cache-file",
            "--workers",
        ];
        let but = |all: &[&'static str], skip: &[&str]| -> Vec<&'static str> {
            all.iter().copied().filter(|f| !skip.contains(f)).collect()
        };
        let mut flags = match command {
            Schedule => [&run[..], &arch, &["--search-mode", "--json"]].concat(),
            // `trace` maps one layer: no algorithm, no annealing.
            Trace => [
                &but(&run, &["--algorithm", "--iterations"])[..],
                &arch,
                &["--layer", "--search-mode"],
            ]
            .concat(),
            // Every row sets its own scheme.
            CompareSchemes => [
                &but(&run, &["--scheme"])[..],
                &arch,
                &["--search-mode", "--json"],
            ]
            .concat(),
            Dse => [&run[..], &dse, &sweep, &["--search-mode", "--json"]].concat(),
            Suite => vec!["--scheme", "--search-mode", "--json"],
            Serve => [&serve[..], &sweep, &["--search-mode", "--scheme"]].concat(),
            Workloads => vec![],
        };
        if command != Workloads {
            flags.push("--trace-out");
        }
        flags
    }

    /// A value each flag accepts.
    fn sample(flag: &str) -> &'static str {
        match flag {
            "--workload" => "alexnet",
            "--algorithm" => "unsecure",
            "--scheme" => "none",
            "--engine" => "serial",
            "--pe" => "8x8",
            "--dram" => "hbm2",
            "--search-mode" => "random",
            "--durability" => "fast",
            "--arch-file" | "--checkpoint" | "--cache-file" | "--trace-out" | "--state-dir" => "x",
            _ => "2",
        }
    }

    #[test]
    fn each_command_accepts_exactly_the_flags_it_reads() {
        let mut names: Vec<&str> = FLAGS.iter().map(|f| f.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), FLAGS.len(), "a flag is declared twice");
        for (command, name, ..) in COMMANDS {
            let reads = reads(command);
            for flag in FLAGS {
                let mut args = vec![name.to_string(), flag.name.to_string()];
                if flag.value.is_some() {
                    args.push(sample(flag.name).to_string());
                }
                match parse(&args) {
                    Ok(o) => {
                        assert!(reads.contains(&flag.name), "{name} accepts {}", flag.name);
                        assert_eq!(o.command, command);
                    }
                    Err(e) => {
                        assert!(!reads.contains(&flag.name), "{name} {}: {e}", flag.name);
                        let CliError::Usage(msg) = e else {
                            panic!("{name} {}: {e:?}", flag.name)
                        };
                        assert!(msg.starts_with(&format!("{name} does not take {}", flag.name)));
                    }
                }
            }
            // Every flag a command reads is in the table.
            for flag in reads {
                assert!(names.contains(&flag), "{name} reads undeclared {flag}");
            }
        }
    }

    #[test]
    fn help_renders_the_table() {
        for (i, (command, name, ..)) in COMMANDS.into_iter().enumerate() {
            assert_eq!(command as usize, i, "COMMANDS is in declaration order");
            assert_eq!(Command::from_name(name), Some(command));
            // A command's help lists exactly the flags it reads.
            let text = run(&argv(&format!("{name} --help"))).unwrap();
            let mut listed: Vec<&str> = text
                .lines()
                .filter_map(|l| l.strip_prefix("  --"))
                .map(|l| &l[..l.find(' ').unwrap_or(l.len())])
                .collect();
            let mut want: Vec<&str> = reads(command).iter().map(|f| &f[2..]).collect();
            listed.sort_unstable();
            want.sort_unstable();
            assert_eq!(listed, want, "{name} --help");
        }
        let full = run(&argv("help")).unwrap();
        assert_eq!(run(&argv("--help")).unwrap(), full);
        for flag in FLAGS {
            assert_eq!(
                full.matches(&format!("\n  {} ", flag.name)).count()
                    + full.matches(&format!("\n  {}\n", flag.name)).count(),
                1,
                "{} is listed once",
                flag.name
            );
        }
        for line in full.lines() {
            assert!(line.chars().count() <= 80, "wider than 80 columns: {line}");
        }
        // `help` is no flag: a command given `help` still fails.
        assert!(matches!(
            parse(&argv("schedule help")),
            Err(CliError::Usage(_))
        ));
    }
}
