//! The SecureLoop benchmark: end-to-end metrics per workload, and a
//! separate traced run that times each layer from outside.
//!
//! ```text
//! perfbench --workload <fig16-alexnet|tile-mobilenet|serve-mixed> \
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. Everything else
//! (progress, the self-time table, failed checks) goes to standard
//! error. See `perfbench/README.md` for what each workload and metric
//! means.

mod host;
mod serve;
mod sweep;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use secureloop_json::Json;

/// Where runs keep their state, relative to the checkout.
const STATE_ROOT: &str = ".bench_state";

/// End-to-end metrics, printed with `--trace 0`.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("job_p50_s", "s"),
    ("sim_cycles", "cycles"),
    ("sim_energy_uj", "uJ"),
    ("overhead_mbit", "Mbit"),
];

/// Per-layer metrics, printed with `--trace 1`.
pub const PER_LAYER: [(&str, &str); 26] = [
    ("mapper.busy_s", "s"),
    ("mapper.busy_share", "ratio"),
    ("mapper.samples", "count"),
    ("mapper.valid_ratio", "ratio"),
    ("mapper.us_per_sample", "us"),
    ("mapper.cache_hit_ratio", "ratio"),
    ("loopnest.eval_us", "us"),
    ("scheduler.busy_s", "s"),
    ("scheduler.busy_share", "ratio"),
    ("authblock.optimize_runs", "count"),
    ("authblock.congruence_calls", "count"),
    ("authblock.memo_hit_ratio", "ratio"),
    ("authblock.optimize_s", "s"),
    ("authblock.top_tensor_s", "s"),
    ("anneal.runs", "count"),
    ("anneal.proposals", "count"),
    ("anneal.accept_ratio", "ratio"),
    ("artifact.writes", "count"),
    ("artifact.write_s", "s"),
    ("artifact.bytes", "bytes"),
    ("dse.busy_s", "s"),
    ("service.queue_wait_s", "s"),
    ("service.exec_s", "s"),
    ("service.protocol_s", "s"),
    ("service.cache_hit_ratio", "ratio"),
    ("telemetry.overhead_ratio", "ratio"),
];

/// Work counts that must repeat exactly across runs of one seed.
pub const EXACT_COUNTS: [&str; 6] = [
    "mapper.samples",
    "authblock.optimize_runs",
    "authblock.congruence_calls",
    "anneal.proposals",
    "artifact.writes",
    "artifact.bytes",
];

/// What one invocation found: operation counts, failed checks and the
/// metrics it measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed checks; any entry makes the run incorrect.
    pub problems: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Only build the workload and exit: the child process behind the
    /// sweeps' `setup_s`.
    pub setup_only: bool,
    /// Run one sweep pass and print its report: the child process
    /// behind every sweep pass.
    pub pass: Option<PassArgs>,
}

/// Which sweep pass a child process runs.
pub struct PassArgs {
    /// Pass index within the run; the seed is `index % seeds`.
    pub index: usize,
    /// Drive the sweep one layer call at a time inside spans.
    pub traced: bool,
    /// Also re-run the loopnest model and the AuthBlock optimiser on
    /// the returned schedules.
    pub extra: bool,
}

impl Args {
    /// Measuring time for each kind of pass: a traced run measures plain
    /// passes for half of `--seconds` and traced passes for the rest.
    pub fn budget_s(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }

    /// Fewest passes per seed (or per session kind): two in a plain
    /// run, one in a traced run. More run when `--seconds` allows; the
    /// floor only keeps a slow host from stretching a run far past
    /// `--seconds`.
    pub fn min_passes(&self) -> usize {
        if self.trace {
            1
        } else {
            2
        }
    }

    /// The run's state directory, inside the checkout.
    pub fn state_dir(&self) -> PathBuf {
        PathBuf::from(STATE_ROOT).join(format!(
            "{}-seed{}-trace{}",
            self.workload,
            self.seed,
            u8::from(self.trace)
        ))
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut setup_only = false;
    let (mut pass, mut traced, mut extra) = (None, false, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed '{value}'"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds '{value}'"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => trace = Some(flag01(flag, value)?),
            "--setup-only" => setup_only = flag01(flag, value)?,
            "--pass" => pass = Some(value.parse().map_err(|_| format!("bad --pass '{value}'"))?),
            "--traced" => traced = flag01(flag, value)?,
            "--extra" => extra = flag01(flag, value)?,
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        setup_only,
        pass: pass.map(|index| PassArgs {
            index,
            traced,
            extra,
        }),
    })
}

fn flag01(flag: &str, value: &str) -> Result<bool, String> {
    match value {
        "0" => Ok(false),
        "1" => Ok(true),
        _ => Err(format!("{flag} takes 0 or 1, got '{value}'")),
    }
}

/// Median of `v` (`NaN` when empty).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Run passes until the next one would overrun `budget_s` and at
/// least `min_each * cycle` have run; `pass(i)` runs pass `i`, which
/// serves seed (or session kind) `i % cycle`, so every seed is timed at
/// least `min_each` times.
pub fn repeat<P>(
    budget_s: f64,
    cycle: usize,
    min_each: usize,
    mut pass: impl FnMut(usize) -> Result<P, String>,
) -> Result<Vec<P>, String> {
    let start = Instant::now();
    let mut passes: Vec<P> = Vec::new();
    loop {
        passes.push(pass(passes.len())?);
        let elapsed = start.elapsed().as_secs_f64();
        let per_pass = elapsed / passes.len() as f64;
        if passes.len() >= min_each * cycle && elapsed + per_pass > budget_s {
            return Ok(passes);
        }
    }
}

/// SplitMix64: a tiny seeded generator for the inputs made from
/// `--seed`.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `part / whole`, or 0 when nothing happened.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// A fresh, empty directory.
pub fn fresh_dir(path: &Path) -> Result<(), String> {
    if path.exists() {
        std::fs::remove_dir_all(path).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    std::fs::create_dir_all(path).map_err(|e| format!("{}: {e}", path.display()))
}

/// Write the run's spans next to its state, once, at the end.
pub fn write_spans(state: &Path, tracer: &trace::Tracer) -> Result<PathBuf, String> {
    let path = state.join("spans.jsonl");
    std::fs::write(&path, tracer.to_jsonl()).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

fn result_line(
    outcome: &Outcome,
    names: &[(&'static str, &'static str)],
) -> Result<String, String> {
    let mut metrics = Json::obj();
    for &(name, unit) in names {
        let value = *outcome
            .metrics
            .get(name)
            .ok_or_else(|| format!("metric '{name}' was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric '{name}' is not finite ({value})"));
        }
        metrics = metrics.field(name, Json::obj().field("value", value).field("unit", unit));
    }
    Ok(Json::obj()
        .field(
            "correct",
            outcome.problems.is_empty() && outcome.failed == 0,
        )
        .field("attempted", outcome.attempted)
        .field("failed", outcome.failed)
        .field("metrics", metrics)
        .to_string())
}

fn run(args: &Args) -> Result<Option<String>, String> {
    let kind = match args.workload.as_str() {
        "fig16-alexnet" => Some(sweep::Kind::Fig16Alexnet),
        "tile-mobilenet" => Some(sweep::Kind::TileMobilenet),
        "serve-mixed" => None,
        other => return Err(format!("unknown workload '{other}'")),
    };
    let state = args.state_dir();
    if args.setup_only || args.pass.is_some() {
        let kind = kind.ok_or("serve-mixed runs no child passes")?;
        return match &args.pass {
            Some(pass) => sweep::pass_main(kind, args, pass, &state).map(Some),
            None => {
                std::hint::black_box(sweep::Sweep::new(kind, args.seed));
                Ok(None)
            }
        };
    }
    // Every run starts from a fresh state directory inside the checkout.
    fresh_dir(&state)?;
    let outcome = match kind {
        Some(kind) => sweep::run(kind, args, &state)?,
        None => serve::run(args, &state)?,
    };
    for p in &outcome.problems {
        eprintln!("CHECK FAILED: {p}");
    }
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    result_line(&outcome, names).map(Some)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            if let Some(line) = line {
                println!("{line}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
