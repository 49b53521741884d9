//! The CI regression gates, `sweep` and `guided`, and the plumbing they
//! share: the plain JSON write, the `--check` threshold verdict and
//! the `--diff-against` comparison with a committed baseline.
//!
//! ```text
//! secureloop-bench sweep|guided [--out <path>] [--check] [--diff-against <baseline>]
//!   --out <path>            output JSON (default BENCH_<gate>.json)
//!   --check                 exit 1 unless the gate's thresholds hold
//!   --diff-against <path>   exit 1 if a deterministic field differs
//!                           from the baseline (see `drift`)
//! ```

mod guided;
mod sweep;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use secureloop::artifact::{self, Integrity};
use secureloop_json::Json;

/// One regression gate.
#[derive(Debug)]
pub struct Gate {
    /// Command name.
    pub name: &'static str,
    /// One line for the usage output.
    pub about: &'static str,
    /// Where the JSON goes without `--out`.
    pub default_out: &'static str,
    /// Runs the measurement.
    pub run: fn() -> GateRun,
}

/// What one gate run produced.
pub struct GateRun {
    /// The document written to `--out`.
    pub json: Json,
    /// The `--check` verdict: the PASS line, or every failed threshold.
    pub verdict: Result<String, Vec<String>>,
}

/// Both gates.
pub const GATES: &[Gate] = &[
    Gate {
        name: "sweep",
        about: "candidate-cache regression gate over the Fig. 16 sweep (BENCH_sweep.json)",
        default_out: "BENCH_sweep.json",
        run: sweep::run,
    },
    Gate {
        name: "guided",
        about: "guided-search sample-reduction gate (BENCH_guided.json)",
        default_out: "BENCH_guided.json",
        run: guided::run,
    },
];

/// The gate called `name`, if any.
pub fn gate(name: &str) -> Option<&'static Gate> {
    GATES.iter().find(|g| g.name == name)
}

/// The flags a gate accepts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GateArgs {
    /// Output JSON path; the gate's `default_out` when `None`.
    pub out: Option<PathBuf>,
    /// Enforce the gate's thresholds.
    pub check: bool,
    /// Committed baseline to compare the deterministic fields against.
    pub diff_against: Option<PathBuf>,
}

/// Run `gate`, write its JSON, and report the baseline diff and the
/// threshold verdict. Exit 1 if anything requested fails.
pub fn run(gate: &Gate, args: &GateArgs) -> ExitCode {
    let run = (gate.run)();
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from(gate.default_out));
    let mut failed = false;
    // Plain text, no artifact envelope: the default `--out` is the
    // committed baseline, which stays footer-less.
    match std::fs::write(&out, run.json.pretty()) {
        Ok(_) => println!("[wrote {}]", out.display()),
        Err(e) => {
            eprintln!("FAIL: cannot write {}: {e}", out.display());
            failed = true;
        }
    }
    if let Some(baseline) = &args.diff_against {
        match diff_against(baseline, &run.json) {
            Ok(()) => println!(
                "PASS: deterministic fields match the committed {}",
                baseline.display()
            ),
            Err(Baseline::Unreadable(why)) => {
                eprintln!("FAIL: cannot use baseline {}: {why}", baseline.display());
                failed = true;
            }
            Err(Baseline::Drift(lines)) => {
                eprintln!(
                    "FAIL: drift vs the committed {} (if intentional, regenerate it \
                     with `cargo run --release -p secureloop-bench -- {} --out {0}`):\n{}",
                    baseline.display(),
                    gate.name,
                    lines.join("\n")
                );
                failed = true;
            }
        }
    }
    if args.check {
        match &run.verdict {
            Ok(pass) => println!("PASS: {pass}"),
            Err(failures) => {
                for f in failures {
                    eprintln!("FAIL: {f}");
                }
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Why a baseline comparison failed.
#[derive(Debug, PartialEq)]
enum Baseline {
    /// Missing, damaged or not JSON: nothing to compare against.
    Unreadable(String),
    /// Readable, but these deterministic fields differ.
    Drift(Vec<String>),
}

fn diff_against(path: &Path, fresh: &Json) -> Result<(), Baseline> {
    let text = std::fs::read_to_string(path).map_err(|e| Baseline::Unreadable(e.to_string()))?;
    // Baselines may carry the artifact-envelope footer (fresh runs
    // write one) or not (committed goldens predate it); `open` hands
    // back the payload either way and flags real damage.
    let (payload, integrity) = artifact::open(&text);
    if let Integrity::Damaged(reason) = integrity {
        return Err(Baseline::Unreadable(format!("damaged: {reason}")));
    }
    let baseline = Json::parse(payload).map_err(|e| Baseline::Unreadable(format!("{e:?}")))?;
    let mut lines = Vec::new();
    drift("", &baseline, fresh, &mut lines);
    if lines.is_empty() {
        Ok(())
    } else {
        Err(Baseline::Drift(lines))
    }
}

/// Keys whose values depend on the machine or the run configuration:
/// wall times, the speedup derived from them, and the worker count.
fn machine_dependent(key: &str) -> bool {
    key.ends_with("wall_ms") || key == "warm_speedup" || key == "workers"
}

/// The one diff rule: the whole document must match once the
/// [`machine_dependent`] keys are stripped. Sample counts, cache
/// hits, best points and hypervolumes are seeded and single-valued, so
/// any difference means the search or the cache changed behaviour.
fn drift(path: &str, baseline: &Json, fresh: &Json, out: &mut Vec<String>) {
    match (baseline, fresh) {
        (Json::Obj(b), Json::Obj(f)) => {
            let mut keys: Vec<&str> = Vec::new();
            for (k, _) in b.iter().chain(f) {
                if !machine_dependent(k) && !keys.contains(&k.as_str()) {
                    keys.push(k);
                }
            }
            for k in keys {
                let sub = if path.is_empty() {
                    k.to_string()
                } else {
                    format!("{path}.{k}")
                };
                drift(&sub, &baseline[k], &fresh[k], out);
            }
        }
        (Json::Arr(b), Json::Arr(f)) if b.len() == f.len() => {
            for (i, (b, f)) in b.iter().zip(f).enumerate() {
                drift(&format!("{path}[{i}]"), b, f, out);
            }
        }
        _ if baseline != fresh => {
            out.push(format!("  {path}: baseline {baseline} != fresh {fresh}"))
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn json(text: &str) -> Json {
        Json::parse(text).unwrap()
    }

    fn drift_of(baseline: &str, fresh: &str) -> Vec<String> {
        let mut out = Vec::new();
        drift("", &json(baseline), &json(fresh), &mut out);
        out
    }

    #[test]
    fn machine_dependent_keys_are_ignored() {
        let base = r#"{"workers": 4, "a": {"wall_ms": 1.0, "samples": 7}, "sweep_wall_ms": 3.0,
                       "warm_speedup": 1.5}"#;
        let fresh = r#"{"workers": 2, "a": {"wall_ms": 9.0, "samples": 7}, "sweep_wall_ms": 1.0,
                        "warm_speedup": 0.5}"#;
        assert!(drift_of(base, fresh).is_empty());
    }

    #[test]
    fn deterministic_fields_are_compared_by_path() {
        let base = r#"{"per_space": [{"layer": "conv1", "random": {"samples": 4096}}], "n": 1}"#;
        let fresh = r#"{"per_space": [{"layer": "conv1", "random": {"samples": 4095}}]}"#;
        assert_eq!(
            drift_of(base, fresh),
            vec![
                "  per_space[0].random.samples: baseline 4096 != fresh 4095",
                "  n: baseline 1 != fresh null",
            ]
        );
        let shorter = r#"{"per_space": [], "n": 1}"#;
        assert_eq!(drift_of(base, shorter).len(), 1);
    }

    #[test]
    fn unreadable_baseline_is_not_drift() {
        let fresh = json(r#"{"n": 1}"#);
        let missing = Path::new("/nonexistent/BENCH_sweep.json");
        assert!(matches!(
            diff_against(missing, &fresh),
            Err(Baseline::Unreadable(_))
        ));

        let dir = std::env::temp_dir().join(format!("slgate_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let garbage = dir.join("garbage.json");
        std::fs::write(&garbage, "not json").unwrap();
        assert!(matches!(
            diff_against(&garbage, &fresh),
            Err(Baseline::Unreadable(_))
        ));
        let drifted = dir.join("drifted.json");
        std::fs::write(&drifted, r#"{"n": 2}"#).unwrap();
        assert!(matches!(
            diff_against(&drifted, &fresh),
            Err(Baseline::Drift(_))
        ));
        let same = dir.join("same.json");
        std::fs::write(&same, artifact::seal(r#"{"n": 1}"#)).unwrap();
        assert_eq!(diff_against(&same, &fresh), Ok(()));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn written_gate_json_is_a_footer_less_baseline() {
        let stub = Gate {
            name: "stub",
            about: "",
            default_out: "",
            run: || GateRun {
                json: Json::parse(r#"{"n": 1, "wall_ms": 2.5}"#).unwrap(),
                verdict: Ok("stub".into()),
            },
        };
        let dir = std::env::temp_dir().join(format!("slgate_write_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("BENCH_stub.json");
        let args = GateArgs {
            out: Some(out.clone()),
            ..GateArgs::default()
        };
        assert_eq!(run(&stub, &args), ExitCode::SUCCESS);
        // Written twice, as a regenerated baseline is: still one plain file.
        assert_eq!(run(&stub, &args), ExitCode::SUCCESS);
        let text = std::fs::read_to_string(&out).unwrap();
        let (payload, integrity) = artifact::open(&text);
        assert_eq!(integrity, Integrity::Legacy, "{text}");
        assert_eq!(payload, text);
        let mut names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        names.sort();
        assert_eq!(names, ["BENCH_stub.json"], "no .bak or .tmp sibling");
        let fresh = (stub.run)().json;
        assert_eq!(diff_against(&out, &fresh), Ok(()));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
