//! Declarative scenario suites: `secureloop suite <dir>`.
//!
//! A *scenario* is a YAML file describing one complete run — network,
//! architecture, crypto config, search budgets — plus the bounds its
//! results are expected to satisfy. The suite runner discovers every
//! `*.yaml`/`*.yml` file under a directory (recursively), runs each
//! scenario through the supervised sweep path (sharing one in-memory
//! candidate cache across scenarios), checks the bounds, and
//! aggregates pass/fail/degraded counts onto the standard exit-code
//! taxonomy.
//!
//! # File format
//!
//! ```yaml
//! name: attention-smoke        # optional; defaults to the file stem
//! workload: attention          # required; a `secureloop workloads` name
//! batch: 4                     # optional batch-size variant
//! word_bits: 16                # optional word-width variant (fp16)
//! algorithm: crypt-opt-cross   # optional run field
//! arch:                        # optional; same fields as --arch-file
//!   pe: [14, 12]
//!   glb_kb: 131
//!   engine: parallel
//!   engines: 3
//! crypto:                      # optional protection-scheme selection
//!   scheme: seculator          # run field
//! search:                      # optional run fields (budgets)
//!   samples: 1024
//!   iterations: 60
//!   seed: 1
//!   deadline_secs: 30
//! expect:                      # required, with at least one bound
//!   max_latency_cycles: 4000000
//!   max_energy_uj: 900.0
//!   max_edp: 1.0e15
//!   max_overhead_mbit: 12.0    # total AuthBlock overhead
//!   max_overhead_ratio: 0.25   # overhead bits / total DRAM bits
//!   max_degraded_layers: 0     # optional; default: degraded allowed
//! ```
//!
//! # Exit-code mapping
//!
//! * every scenario loads and every bound holds, full quality → `0`
//! * a scenario file is malformed (bad YAML, unknown workload or
//!   field, missing `expect`), the directory has no scenarios, or a
//!   bound is violated → `1` (violations still print the full report)
//! * all bounds hold but something ran below full quality (degraded
//!   layer, skipped or poisoned design) → `2`
//! * SIGINT/SIGTERM stopped the suite early → `3`
//!
//! Load errors are detected for *all* files before anything runs, so
//! a typo'd scenario fails the suite in milliseconds, not after an
//! hour of sweeps.
//!
//! The run fields (`workload`, `algorithm`, the `search:` budgets and
//! `crypto: scheme:`) are parsed by [`RunSpec::set`] like the CLI flags
//! and service submits; DESIGN.md "Run specification" lists their
//! defaults and validation rules.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use secureloop_arch::Architecture;
use secureloop_crypto::SchemeId;
use secureloop_json::{parse_yaml, Json};
use secureloop_mapper::{CandidateCache, SearchMode};
use secureloop_workload::Network;

use crate::cli::{arch_from_file, ArchFile, CliError, CliOutput, RunStatus};
use crate::dse::{evaluate_designs_sweep, SweepOptions};
use crate::run::{Entry, RunSpec};
use crate::scheduler::NetworkSchedule;

fn scenario_err(path: &Path, message: impl Into<String>) -> CliError {
    CliError::Scenario {
        path: path.display().to_string(),
        message: message.into(),
    }
}

/// Expected-result bounds of one scenario. Every field is optional but
/// the loader requires at least one bound — a scenario without
/// expectations is a typo, not a free pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Bounds {
    /// Upper bound on [`NetworkSchedule::total_latency_cycles`].
    pub max_latency_cycles: Option<u64>,
    /// Upper bound on total energy in µJ.
    pub max_energy_uj: Option<f64>,
    /// Upper bound on the energy-delay product (pJ·cycles).
    pub max_edp: Option<f64>,
    /// Upper bound on total AuthBlock overhead in Mbit.
    pub max_overhead_mbit: Option<f64>,
    /// Upper bound on overhead bits / total DRAM bits.
    pub max_overhead_ratio: Option<f64>,
    /// Upper bound on the number of degraded layers.
    pub max_degraded_layers: Option<usize>,
}

impl Bounds {
    fn is_empty(&self) -> bool {
        self == &Bounds::default()
    }

    /// Check a schedule against the bounds; one human-readable
    /// violation message per exceeded bound.
    pub fn violations(&self, sched: &NetworkSchedule) -> Vec<String> {
        let mut out = Vec::new();
        if let Some(max) = self.max_latency_cycles {
            if sched.total_latency_cycles > max {
                out.push(format!(
                    "latency {} cycles exceeds max_latency_cycles {max}",
                    sched.total_latency_cycles
                ));
            }
        }
        if let Some(max) = self.max_energy_uj {
            let uj = sched.total_energy_pj / 1e6;
            if uj > max {
                out.push(format!("energy {uj:.2} uJ exceeds max_energy_uj {max}"));
            }
        }
        if let Some(max) = self.max_edp {
            if sched.edp() > max {
                out.push(format!("EDP {:.3e} exceeds max_edp {max:.3e}", sched.edp()));
            }
        }
        if let Some(max) = self.max_overhead_mbit {
            let mbit = sched.overhead.total_bits() as f64 / 1e6;
            if mbit > max {
                out.push(format!(
                    "auth overhead {mbit:.2} Mbit exceeds max_overhead_mbit {max}"
                ));
            }
        }
        if let Some(max) = self.max_overhead_ratio {
            let dram = sched.total_dram_bits();
            let ratio = if dram == 0 {
                0.0
            } else {
                sched.overhead.total_bits() as f64 / dram as f64
            };
            if ratio > max {
                out.push(format!(
                    "overhead ratio {ratio:.3} exceeds max_overhead_ratio {max}"
                ));
            }
        }
        if let Some(max) = self.max_degraded_layers {
            let n = sched.degraded_count() + sched.failed_count();
            if n > max {
                out.push(format!(
                    "{n} degraded/failed layer(s) exceed max_degraded_layers {max}"
                ));
            }
        }
        out
    }
}

/// One loaded, validated scenario, ready to run.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Display name (the `name:` field or the file stem).
    pub name: String,
    /// Source file, for error messages.
    pub path: PathBuf,
    /// The network, with batch/word-width variants applied.
    pub network: Network,
    /// The architecture: the `arch:` block (the Eyeriss base without
    /// one) built under the effective scheme — the CLI `--scheme`, else
    /// the `crypto:` block's, else the block's own `scheme`.
    pub arch: Architecture,
    /// The run fields. `run.scheme` is the `crypto:` block's choice.
    pub run: RunSpec,
    /// Expected-result bounds.
    pub expect: Bounds,
}

/// 1-based line number of the first line whose content starts with
/// `needle`, so scenario errors can point at the offending key.
fn line_of(text: &str, needle: &str) -> Option<usize> {
    text.lines()
        .position(|l| l.trim_start().starts_with(needle))
        .map(|i| i + 1)
}

/// Prefix `message` with `line N:` when the key can be located in the
/// raw scenario text.
fn at_line(text: &str, needle: &str, message: String) -> String {
    match line_of(text, needle) {
        Some(n) => format!("line {n}: {message}"),
        None => message,
    }
}

fn want_u64(path: &Path, key: &str, v: &Json) -> Result<u64, CliError> {
    v.as_u64()
        .ok_or_else(|| scenario_err(path, format!("'{key}' expects a non-negative integer")))
}

fn want_f64(path: &Path, key: &str, v: &Json) -> Result<f64, CliError> {
    match v.as_f64() {
        Some(f) if f.is_finite() && f >= 0.0 => Ok(f),
        _ => Err(scenario_err(
            path,
            format!("'{key}' expects a non-negative number"),
        )),
    }
}

fn parse_bounds(path: &Path, v: &Json) -> Result<Bounds, CliError> {
    let fields = v
        .as_object()
        .ok_or_else(|| scenario_err(path, "'expect' must be a mapping of bounds"))?;
    let mut b = Bounds::default();
    for (key, value) in fields {
        match key.as_str() {
            "max_latency_cycles" => b.max_latency_cycles = Some(want_u64(path, key, value)?),
            "max_energy_uj" => b.max_energy_uj = Some(want_f64(path, key, value)?),
            "max_edp" => b.max_edp = Some(want_f64(path, key, value)?),
            "max_overhead_mbit" => b.max_overhead_mbit = Some(want_f64(path, key, value)?),
            "max_overhead_ratio" => b.max_overhead_ratio = Some(want_f64(path, key, value)?),
            "max_degraded_layers" => {
                b.max_degraded_layers = Some(want_u64(path, key, value)? as usize)
            }
            other => {
                return Err(scenario_err(
                    path,
                    format!(
                        "unknown bound '{other}' (expected max_latency_cycles, max_energy_uj, \
                         max_edp, max_overhead_mbit, max_overhead_ratio, max_degraded_layers)"
                    ),
                ))
            }
        }
    }
    if b.is_empty() {
        return Err(scenario_err(
            path,
            "'expect' must contain at least one bound",
        ));
    }
    Ok(b)
}

/// Load and validate one scenario file. `scheme_override` (the CLI
/// `--scheme`) replaces the scenario's own scheme choice.
///
/// # Errors
///
/// [`CliError::Scenario`] naming the file for unreadable files,
/// malformed YAML, unknown workloads/algorithms/fields, a missing or
/// empty `expect` block, out-of-range values, and a scheme the
/// architecture cannot realise.
pub fn load_scenario(path: &Path, scheme_override: Option<SchemeId>) -> Result<Scenario, CliError> {
    let text = std::fs::read_to_string(path).map_err(|e| scenario_err(path, format!("{e}")))?;
    let doc = parse_yaml(&text).map_err(|e| scenario_err(path, e.to_string()))?;
    let fields = doc
        .as_object()
        .ok_or_else(|| scenario_err(path, "a scenario must be a YAML mapping"))?;

    let mut name: Option<String> = None;
    let mut batch: Option<u64> = None;
    let mut word_bits: Option<u64> = None;
    let mut arch_file = ArchFile::default();
    let mut run = RunSpec::suite_default();
    let mut expect: Option<Bounds> = None;
    // A run field, through the shared parser, with its line number.
    let mut set = |key: &str, value: &Json| {
        run.set(key, value)
            .map_err(|e| scenario_err(path, at_line(&text, key, e)))
    };

    for (key, value) in fields {
        match key.as_str() {
            "name" => {
                name = Some(
                    value
                        .as_str()
                        .ok_or_else(|| scenario_err(path, "'name' expects a string"))?
                        .to_string(),
                )
            }
            "workload" | "algorithm" => {
                set(key, value)?;
            }
            "batch" => {
                let n = want_u64(path, key, value)?;
                if n == 0 {
                    return Err(scenario_err(path, "'batch' must be at least 1"));
                }
                batch = Some(n);
            }
            "word_bits" => {
                let n = want_u64(path, key, value)?;
                if n == 0 || n > 512 {
                    return Err(scenario_err(path, "'word_bits' must be in 1..=512"));
                }
                word_bits = Some(n);
            }
            "arch" => {
                arch_file = ArchFile::from_json(value)
                    .map_err(|e| scenario_err(path, format!("arch block: {e}")))?;
            }
            "search" => {
                let budgets = value
                    .as_object()
                    .ok_or_else(|| scenario_err(path, "'search' must be a mapping"))?;
                for (bk, bv) in budgets {
                    match bk.as_str() {
                        "samples" | "iterations" | "seed" | "deadline_secs" => {
                            set(bk, bv)?;
                        }
                        other => {
                            return Err(scenario_err(
                                path,
                                format!(
                                    "unknown search budget '{other}' (expected samples, \
                                     iterations, seed, deadline_secs)"
                                ),
                            ))
                        }
                    }
                }
            }
            "crypto" => {
                let block = value.as_object().ok_or_else(|| {
                    scenario_err(
                        path,
                        at_line(&text, "crypto", "'crypto' must be a mapping".into()),
                    )
                })?;
                for (ck, cv) in block {
                    match ck.as_str() {
                        "scheme" => {
                            set(ck, cv)?;
                        }
                        other => {
                            return Err(scenario_err(
                                path,
                                at_line(
                                    &text,
                                    other,
                                    format!("unknown crypto field '{other}' (expected scheme)"),
                                ),
                            ))
                        }
                    }
                }
            }
            "expect" => expect = Some(parse_bounds(path, value)?),
            other => {
                return Err(scenario_err(
                    path,
                    format!(
                        "unknown field '{other}' (expected name, workload, batch, word_bits, \
                         algorithm, arch, crypto, search, expect)"
                    ),
                ))
            }
        }
    }

    // The one build, once `arch:` and `crypto:` are both parsed (they
    // may come in either order). A suite with an impossible pairing
    // fails here, before any sweep runs; a `crypto:` choice is called
    // out by line.
    let chosen = scheme_override.or(run.scheme);
    arch_file.scheme = chosen.or(arch_file.scheme);
    let arch = arch_from_file(&arch_file).map_err(|e| match e {
        CliError::Arch { field, message } if field == "scheme" && chosen.is_some() => {
            let message = format!("crypto scheme: {message}");
            scenario_err(
                path,
                match scheme_override {
                    Some(_) => message,
                    None => at_line(&text, "scheme", message),
                },
            )
        }
        e => scenario_err(path, format!("arch block: {e}")),
    })?;

    let workload_name = run
        .workload
        .as_deref()
        .ok_or_else(|| scenario_err(path, "missing required field 'workload'"))?;
    let mut network = crate::cli::workload(workload_name)
        .map_err(|_| scenario_err(path, format!("unknown workload '{workload_name}'")))?;
    if let Some(n) = batch {
        network = network.with_batch(n);
    }
    if let Some(bits) = word_bits {
        network = network.with_word_bits(bits as u32);
    }
    let expect = expect.ok_or_else(|| {
        scenario_err(
            path,
            "missing required 'expect' block (every scenario must state its bounds)",
        )
    })?;
    let name = name.unwrap_or_else(|| {
        path.file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| path.display().to_string())
    });
    Ok(Scenario {
        name,
        path: path.to_path_buf(),
        network,
        arch,
        run,
        expect,
    })
}

/// Recursively discover scenario files (`*.yaml` / `*.yml`) under
/// `dir`, sorted by path for a deterministic run order.
///
/// # Errors
///
/// [`CliError::Scenario`] if `dir` is unreadable or contains no
/// scenario files — an empty suite is a misconfiguration, not a pass.
pub fn discover(dir: &Path) -> Result<Vec<PathBuf>, CliError> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
        let mut entries: Vec<_> = std::fs::read_dir(dir)?.collect::<std::io::Result<_>>()?;
        entries.sort_by_key(|e| e.path());
        for entry in entries {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out)?;
            } else if matches!(
                path.extension().and_then(|e| e.to_str()),
                Some("yaml") | Some("yml")
            ) {
                out.push(path);
            }
        }
        Ok(())
    }
    let mut files = Vec::new();
    walk(dir, &mut files).map_err(|e| scenario_err(dir, format!("{e}")))?;
    if files.is_empty() {
        return Err(scenario_err(
            dir,
            "no scenario files (*.yaml) found — is this a suite directory?",
        ));
    }
    Ok(files)
}

/// How one scenario resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioStatus {
    /// All bounds hold at full quality.
    Pass,
    /// All bounds hold, but something ran below full quality.
    Degraded,
    /// A bound was violated or the schedule failed outright.
    Fail,
}

impl ScenarioStatus {
    fn label(self) -> &'static str {
        match self {
            ScenarioStatus::Pass => "PASS",
            ScenarioStatus::Degraded => "DEGRADED",
            ScenarioStatus::Fail => "FAIL",
        }
    }
}

/// The outcome of running one scenario.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// Scenario name.
    pub name: String,
    /// How it resolved.
    pub status: ScenarioStatus,
    /// Violated bounds / failure causes (empty for a pass).
    pub problems: Vec<String>,
    /// Total latency in cycles (0 if the schedule failed).
    pub latency_cycles: u64,
    /// Total energy in µJ.
    pub energy_uj: f64,
    /// AuthBlock overhead in Mbit.
    pub overhead_mbit: f64,
}

/// Run every scenario under `dir` and aggregate the outcomes.
///
/// All files are loaded and validated *before* anything runs; any
/// load error fails the whole suite immediately. Scenarios then run
/// sequentially (each one through the supervised parallel sweep path)
/// sharing one in-memory candidate cache, with telemetry scoped per
/// scenario (`suite:<name>`).
///
/// `scheme_override` (the CLI `--scheme` flag) is every scenario's
/// protection scheme, taking precedence over any per-scenario choice
/// (see [`load_scenario`]). An override that a scenario's engine class
/// cannot satisfy fails the suite up front, same as a load error.
///
/// # Errors
///
/// [`CliError::Scenario`] for discovery/load problems, including a
/// `scheme_override` incompatible with a scenario's architecture.
/// Bound violations are *not* errors: they produce a report with
/// [`RunStatus::Failed`] so the caller still prints the table.
pub fn run_suite(
    dir: &Path,
    json: bool,
    mode: SearchMode,
    scheme_override: Option<SchemeId>,
) -> Result<CliOutput, CliError> {
    let files = discover(dir)?;
    let scenarios = files
        .iter()
        .map(|p| load_scenario(p, scheme_override))
        .collect::<Result<Vec<_>, _>>()?;

    let cache = Arc::new(CandidateCache::new());
    let mut results: Vec<ScenarioResult> = Vec::new();
    let mut interrupted = false;
    for sc in &scenarios {
        let _scope = secureloop_telemetry::enter_scope(format!("suite:{}", sc.name));
        let (search, annealing) = sc.run.configs(Entry::Suite, mode);
        let opts = SweepOptions::new().with_shared_cache(Arc::clone(&cache));
        let sweep = evaluate_designs_sweep(
            &sc.network,
            std::slice::from_ref(&sc.arch),
            sc.run.algorithm,
            &search,
            &annealing,
            &opts,
        )?;
        if sweep.interrupted {
            interrupted = true;
            break;
        }
        let mut problems: Vec<String> = Vec::new();
        for (label, error) in &sweep.skipped {
            problems.push(format!("schedule failed ({label}): {error}"));
        }
        for (label, cause) in &sweep.poisoned {
            problems.push(format!("quarantined ({label}): {cause}"));
        }
        let result = match sweep.results.first() {
            None => ScenarioResult {
                name: sc.name.clone(),
                status: ScenarioStatus::Fail,
                problems,
                latency_cycles: 0,
                energy_uj: 0.0,
                overhead_mbit: 0.0,
            },
            Some(r) => {
                let sched = &r.schedule;
                let violations = sc.expect.violations(sched);
                let below_quality =
                    !sched.is_complete() || !sweep.skipped.is_empty() || !sweep.poisoned.is_empty();
                let status = if !violations.is_empty() || !sweep.skipped.is_empty() {
                    ScenarioStatus::Fail
                } else if below_quality {
                    ScenarioStatus::Degraded
                } else {
                    ScenarioStatus::Pass
                };
                problems.extend(violations);
                ScenarioResult {
                    name: sc.name.clone(),
                    status,
                    problems,
                    latency_cycles: sched.total_latency_cycles,
                    energy_uj: sched.total_energy_pj / 1e6,
                    overhead_mbit: sched.overhead.total_bits() as f64 / 1e6,
                }
            }
        };
        results.push(result);
    }

    let passed = results
        .iter()
        .filter(|r| r.status == ScenarioStatus::Pass)
        .count();
    let degraded = results
        .iter()
        .filter(|r| r.status == ScenarioStatus::Degraded)
        .count();
    let failed = results
        .iter()
        .filter(|r| r.status == ScenarioStatus::Fail)
        .count();
    let status = if interrupted {
        RunStatus::Interrupted
    } else if failed > 0 {
        RunStatus::Failed
    } else if degraded > 0 {
        RunStatus::Degraded
    } else {
        RunStatus::Success
    };

    let text = if json {
        let mut arr = Vec::new();
        for r in &results {
            arr.push(
                Json::obj()
                    .field("name", Json::Str(r.name.clone()))
                    .field("status", Json::Str(r.status.label().to_string()))
                    .field(
                        "problems",
                        Json::Arr(r.problems.iter().cloned().map(Json::Str).collect()),
                    )
                    .field(
                        "latency_cycles",
                        Json::Num(secureloop_json::Number::U(r.latency_cycles)),
                    )
                    .field(
                        "energy_uj",
                        Json::Num(secureloop_json::Number::F(r.energy_uj)),
                    )
                    .field(
                        "overhead_mbit",
                        Json::Num(secureloop_json::Number::F(r.overhead_mbit)),
                    ),
            );
        }
        Json::obj()
            .field("suite", Json::Str(dir.display().to_string()))
            .field("scenarios", Json::Arr(arr))
            .field(
                "passed",
                Json::Num(secureloop_json::Number::U(passed as u64)),
            )
            .field(
                "degraded",
                Json::Num(secureloop_json::Number::U(degraded as u64)),
            )
            .field(
                "failed",
                Json::Num(secureloop_json::Number::U(failed as u64)),
            )
            .field("interrupted", Json::Bool(interrupted))
            .pretty()
    } else {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "suite {}: {} scenario(s)",
            dir.display(),
            scenarios.len()
        );
        let _ = writeln!(
            out,
            "{:<10} {:<28} {:>14} {:>12} {:>10}",
            "status", "scenario", "cycles", "energy(uJ)", "ovh(Mbit)"
        );
        for r in &results {
            let _ = writeln!(
                out,
                "{:<10} {:<28} {:>14} {:>12.2} {:>10.2}",
                r.status.label(),
                r.name,
                r.latency_cycles,
                r.energy_uj,
                r.overhead_mbit
            );
            for p in &r.problems {
                let _ = writeln!(out, "           - {p}");
            }
        }
        if interrupted {
            let _ = writeln!(
                out,
                "interrupted: shutdown requested after {} of {} scenario(s)",
                results.len(),
                scenarios.len()
            );
        }
        let _ = writeln!(out, "passed {passed}, degraded {degraded}, failed {failed}");
        out
    };
    Ok(CliOutput { text, status })
}
