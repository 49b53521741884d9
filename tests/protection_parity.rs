//! One protection rule on every front end.
//!
//! * A design without a crypto configuration — `--scheme none`,
//!   `--engines 0`, an arch file's `"scheme":"none"`, a scenario's
//!   `crypto: scheme: none`, `suite --scheme none`, a service job's
//!   `"scheme":"none"`, `compare-schemes`' `none` row — is scheduled as
//!   the unsecure baseline: no AuthBlock optimiser run, no overhead
//!   bits, and the same latency and energy as `--algorithm unsecure`.
//! * An explicit `tag_bits` wins over the scheme's default tag width
//!   wherever the scheme comes from.
//!
//! The telemetry registry is process-global, so the tests of this
//! binary take turns.

use std::io::{Cursor, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use secureloop::cli::{self, arch_from_file, ArchFile};
use secureloop::service::{Server, ServiceConfig};
use secureloop::suite::{load_scenario, run_suite};
use secureloop_crypto::SchemeId;
use secureloop_json::Json;
use secureloop_mapper::SearchMode;
use secureloop_telemetry as telemetry;

static SERIAL: Mutex<()> = Mutex::new(());

/// Small budgets: every surface runs in well under a second in release.
const BUDGET: &str = "--workload llm_decode --samples 20 --iterations 2";

fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "secureloop-protection-parity-{}-{test}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn write(dir: &Path, name: &str, text: &str) -> PathBuf {
    let path = dir.join(name);
    std::fs::write(&path, text).expect("write fixture");
    path
}

/// Run a CLI command; its JSON output and the AuthBlock optimiser runs
/// it made.
fn cli_json(args: &str) -> (Json, u64) {
    let argv: Vec<String> = args.split_whitespace().map(str::to_string).collect();
    let out = cli::run(&argv).unwrap_or_else(|e| panic!("{args}: {e}"));
    let runs = telemetry::snapshot().counter("authblock.optimize_runs");
    (Json::parse(&out).expect("JSON output"), runs)
}

fn overhead_bits(schedule: &Json) -> u64 {
    ["hash_bits", "redundant_bits", "rehash_bits"]
        .iter()
        .map(|k| schedule[*k].as_u64().expect("overhead field"))
        .sum()
}

/// `(latency, energy)` of a schedule or design row.
fn cost(v: &Json) -> (u64, f64) {
    (
        v["latency_cycles"].as_u64().expect("latency"),
        v["energy_pj"].as_f64().expect("energy"),
    )
}

/// One suite run from a fresh directory holding `scenario`: its one
/// result row and the optimiser runs it made.
fn suite_row(dir: &Path, scenario: &str, scheme: Option<SchemeId>) -> (Json, u64) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create suite dir");
    write(dir, "s.yaml", scenario);
    telemetry::reset();
    let out = run_suite(dir, true, SearchMode::Guided, scheme).expect("suite runs");
    let runs = telemetry::snapshot().counter("authblock.optimize_runs");
    let v = Json::parse(&out.text).expect("suite JSON");
    (v["scenarios"][0].clone(), runs)
}

/// A `Write` the server can own while the test keeps a handle.
#[derive(Clone, Default)]
struct Captured(Arc<Mutex<Vec<u8>>>);

impl Write for Captured {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// One service job on a fresh state dir: its result report and the
/// optimiser runs the server made.
fn serve_job(dir: &Path, job_fields: &str) -> (Json, u64) {
    let _ = std::fs::remove_dir_all(dir);
    let server = Server::new(ServiceConfig::new(dir)).expect("server starts");
    let script = format!(
        "{{\"op\":\"submit\",\"id\":\"j\",\"workload\":\"llm_decode\",\
         \"designs\":[\"14x12/16kB/Parallel\"],\"samples\":20,\"iterations\":2,{job_fields}}}\n\
         {{\"op\":\"shutdown\"}}\n"
    );
    let out = Captured::default();
    telemetry::reset();
    server.serve(Cursor::new(script.into_bytes()), out.clone());
    let runs = telemetry::snapshot().counter("authblock.optimize_runs");
    let text = String::from_utf8(out.0.lock().unwrap().clone()).unwrap();
    let result = text
        .lines()
        .map(|l| Json::parse(l).expect("event line"))
        .find(|v| v["event"].as_str() == Some("result"))
        .unwrap_or_else(|| panic!("no result event in:\n{text}"));
    assert_eq!(result["status"].as_str(), Some("completed"), "{text}");
    (result["report"].clone(), runs)
}

#[test]
fn unprotected_designs_do_no_authblock_work_on_every_surface() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let dir = scratch("unprotected");

    // `schedule`: every way of asking for an unprotected design.
    let (unsecure, runs) = cli_json(&format!("schedule {BUDGET} --algorithm unsecure --json"));
    assert_eq!(runs, 0);
    let none_file = write(&dir, "none.json", r#"{"engines":3,"scheme":"none"}"#);
    let zero_file = write(&dir, "zero.json", r#"{"engines":0}"#);
    for flags in [
        "--scheme none".to_string(),
        "--engines 0".to_string(),
        format!("--arch-file {}", none_file.display()),
        format!("--arch-file {}", zero_file.display()),
    ] {
        let (sched, runs) = cli_json(&format!("schedule {BUDGET} {flags} --json"));
        assert_eq!(runs, 0, "{flags}: optimiser runs");
        assert_eq!(overhead_bits(&sched), 0, "{flags}: overhead bits");
        assert_eq!(sched["algorithm"].as_str(), Some("Unsecure"), "{flags}");
        assert_eq!(
            cost(&sched),
            cost(&unsecure),
            "{flags}: vs --algorithm unsecure"
        );
    }

    // `dse`: the whole Fig. 16 space under `none` is the unsecure sweep.
    let (none, runs) = cli_json(&format!("dse {BUDGET} --scheme none --json"));
    assert_eq!(runs, 0, "dse --scheme none: optimiser runs");
    let (unsecure, _) = cli_json(&format!("dse {BUDGET} --algorithm unsecure --json"));
    let designs = none["designs"].as_array().unwrap();
    assert_eq!(designs.len(), unsecure["designs"].as_array().unwrap().len());
    for (a, b) in designs.iter().zip(unsecure["designs"].as_array().unwrap()) {
        assert_eq!(a["label"], b["label"]);
        assert_eq!(cost(a), cost(b), "dse {}", a["label"]);
    }

    // `suite`: the scenario's own `crypto:` block and the CLI override.
    let protected = "workload: llm_decode\narch:\n  engines: 3\n\
                     search:\n  samples: 20\n  iterations: 2\n\
                     expect:\n  max_latency_cycles: 99999999999\n";
    let declared = protected.replace("search:", "crypto:\n  scheme: none\nsearch:");
    for (scenario, scheme) in [(declared.as_str(), None), (protected, Some(SchemeId::None))] {
        let (row, runs) = suite_row(&dir.join("suite"), scenario, scheme);
        assert_eq!(runs, 0, "suite (override {scheme:?}): optimiser runs");
        assert_eq!(row["overhead_mbit"].as_f64(), Some(0.0), "{row}");
    }

    // `serve`: a job choosing `none` prices like an unsecure job.
    let (none, runs) = serve_job(&dir.join("serve-none"), r#""scheme":"none""#);
    assert_eq!(runs, 0, "serve scheme none: optimiser runs");
    let (unsecure, _) = serve_job(&dir.join("serve-unsecure"), r#""algorithm":"unsecure""#);
    assert_eq!(cost(&none["designs"][0]), cost(&unsecure["designs"][0]));

    // `compare-schemes`: the `none` row is the unsecure schedule. The
    // protected rows of the same call do run the optimiser, so its runs
    // are told apart by the `scheme:<name>` scope on each `authblock`
    // span in the trace.
    let trace = dir.join("compare.jsonl");
    let (rows, runs) = cli_json(&format!(
        "compare-schemes {BUDGET} --json --trace-out {}",
        trace.display()
    ));
    let mut runs_by_scope = std::collections::BTreeMap::<String, u64>::new();
    for line in std::fs::read_to_string(&trace).expect("trace").lines() {
        let event = Json::parse(line).expect("trace line");
        if event["phase"].as_str() == Some("authblock") {
            let scope = event["job"].as_str().expect("scoped authblock span");
            *runs_by_scope.entry(scope.to_string()).or_default() += 1;
        }
    }
    assert_eq!(
        runs_by_scope.values().sum::<u64>(),
        runs,
        "{runs_by_scope:?}"
    );
    assert!(runs > 0, "the protected rows run the optimiser");
    assert_eq!(runs_by_scope.get("scheme:none"), None, "{runs_by_scope:?}");
    let (baseline, _) = cli_json(&format!("schedule {BUDGET} --algorithm unsecure --json"));
    let none = rows["schemes"]
        .as_array()
        .unwrap()
        .iter()
        .find(|r| r["scheme"].as_str() == Some("none"))
        .cloned()
        .unwrap();
    assert_eq!(none["overhead_mbit"].as_f64(), Some(0.0));
    assert_eq!(cost(&none), cost(&baseline));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn explicit_tag_bits_win_on_every_surface() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let dir = scratch("tags");
    let want = |arch: &secureloop_arch::Architecture, surface: &str| {
        let cc = arch
            .crypto()
            .unwrap_or_else(|| panic!("{surface}: no crypto"));
        assert_eq!(
            (cc.scheme, cc.tag_bits),
            (SchemeId::Seculator, 128),
            "{surface}"
        );
    };

    // The file's own scheme, and `--scheme` over a file without one.
    let with_scheme = r#"{"engines":3,"tag_bits":128,"scheme":"seculator"}"#;
    let without = r#"{"engines":3,"tag_bits":128}"#;
    let by_file = arch_from_file(&ArchFile::parse(with_scheme).unwrap()).unwrap();
    want(&by_file, "arch file scheme");
    let with_path = write(&dir, "with.json", with_scheme);
    let without_path = write(&dir, "without.json", without);
    let schedule = |flags: String| {
        let (mut v, _) = cli_json(&format!("schedule {BUDGET} {flags} --json"));
        if let Json::Obj(fields) = &mut v {
            fields.retain(|(k, _)| k != "telemetry");
        }
        v
    };
    let a = schedule(format!("--arch-file {}", with_path.display()));
    let b = schedule(format!(
        "--arch-file {} --scheme seculator",
        without_path.display()
    ));
    assert!(overhead_bits(&a) > 0);
    assert_eq!(a.to_string(), b.to_string(), "--scheme keeps tag_bits");

    // A scenario's `crypto:` block, the arch block's own scheme, and the
    // suite's `--scheme` build one design and one schedule.
    let search = "search:\n  samples: 20\n  iterations: 2\n\
                  expect:\n  max_latency_cycles: 99999999999\n";
    let arch_block = "workload: llm_decode\narch:\n  engines: 3\n  tag_bits: 128\n";
    let surfaces = [
        (
            "crypto block",
            format!("{arch_block}crypto:\n  scheme: seculator\n{search}"),
            None,
        ),
        (
            "arch block",
            format!("{arch_block}  scheme: seculator\n{search}"),
            None,
        ),
        (
            "suite --scheme",
            format!("{arch_block}{search}"),
            Some(SchemeId::Seculator),
        ),
    ];
    let mut rows = Vec::new();
    for (surface, scenario, scheme) in &surfaces {
        let path = write(&dir, "s.yaml", scenario);
        let sc = load_scenario(&path, *scheme).unwrap_or_else(|e| panic!("{surface}: {e}"));
        want(&sc.arch, surface);
        assert_eq!(
            format!("{:?}", sc.arch),
            format!("{by_file:?}"),
            "{surface}"
        );
        let (row, _) = suite_row(&dir.join("suite"), scenario, *scheme);
        rows.push((surface, row.to_string()));
    }
    for (surface, row) in &rows[1..] {
        assert_eq!(row, &rows[0].1, "{surface} vs {}", rows[0].0);
    }

    let _ = std::fs::remove_dir_all(&dir);
}
