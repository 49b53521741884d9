//! One run written three ways — CLI flags, a scenario file and a
//! service `submit` — parses to one `RunSpec`, and a bad value fails all
//! three with one message (the scenario adds only its `line N:`).

use std::path::{Path, PathBuf};

use secureloop::cli::{self, CliError};
use secureloop::service::protocol::{parse_request, Request};
use secureloop::suite::load_scenario;
use secureloop::{Algorithm, RunSpec};
use secureloop_crypto::SchemeId;

fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "secureloop-run-parity-{}-{test}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn from_flags(flags: &str) -> Result<RunSpec, String> {
    let args: Vec<String> = format!("schedule {flags}")
        .split_whitespace()
        .map(str::to_string)
        .collect();
    match cli::parse(&args) {
        Ok(o) => Ok(o.run),
        Err(CliError::Usage(message)) => Err(message),
        Err(other) => panic!("expected a usage error, got {other:?}"),
    }
}

fn from_scenario(dir: &Path, yaml: &str) -> Result<RunSpec, String> {
    let path = dir.join("s.yaml");
    std::fs::write(&path, yaml).expect("write scenario");
    match load_scenario(&path, None) {
        Ok(sc) => Ok(sc.run),
        Err(CliError::Scenario { message, .. }) => Err(message),
        Err(other) => panic!("expected a scenario error, got {other:?}"),
    }
}

fn from_submit(json: &str) -> Result<RunSpec, String> {
    match parse_request(json)? {
        Request::Submit(spec) => Ok(spec.run),
        other => panic!("expected a submit, got {other:?}"),
    }
}

#[test]
fn one_run_three_ways_parses_to_one_spec() {
    let dir = scratch("equal");
    let flags = from_flags(
        "--workload llm_decode --algorithm crypt-opt-single --samples 40 \
         --iterations 5 --seed 3 --deadline-secs 2.5 --scheme seculator",
    )
    .unwrap();
    let scenario = from_scenario(
        &dir,
        "workload: llm_decode\nalgorithm: crypt-opt-single\n\
         arch:\n  engine: parallel\n  engines: 3\n\
         crypto:\n  scheme: seculator\n\
         search:\n  samples: 40\n  iterations: 5\n  seed: 3\n  deadline_secs: 2.5\n\
         expect:\n  max_latency_cycles: 1\n",
    )
    .unwrap();
    let submit = from_submit(
        r#"{"op":"submit","id":"p1","workload":"llm_decode","algorithm":"crypt-opt-single",
            "samples":40,"iterations":5,"seed":3,"deadline_secs":2.5,"scheme":"seculator"}"#,
    )
    .unwrap();
    let want = RunSpec {
        workload: Some("llm_decode".into()),
        algorithm: Algorithm::CryptOptSingle,
        samples: 40,
        iterations: 5,
        seed: 3,
        deadline_secs: Some(2.5),
        scheme: Some(SchemeId::Seculator),
    };
    assert_eq!(flags, want);
    assert_eq!(scenario, want);
    assert_eq!(submit, want);
}

#[test]
fn bad_values_fail_every_front_end_with_one_message() {
    let dir = scratch("bad");
    let cases = [
        (
            "--algorithm nonsense",
            "algorithm: nonsense\n",
            r#""algorithm":"nonsense""#,
            "unknown algorithm 'nonsense'",
            2,
        ),
        (
            "--scheme rot13",
            "crypto:\n  scheme: rot13\n",
            r#""scheme":"rot13""#,
            "unknown scheme 'rot13' (expected none | aes-gcm | seculator | seda)",
            3,
        ),
        (
            "--samples 0",
            "search:\n  samples: 0\n",
            r#""samples":0"#,
            "'samples' must be at least 1",
            3,
        ),
    ];
    for (flag, yaml, json, message, line) in cases {
        assert_eq!(
            from_flags(&format!("--workload llm_decode {flag}")),
            Err(message.to_string()),
            "{flag}"
        );
        assert_eq!(
            from_scenario(
                &dir,
                &format!("workload: llm_decode\n{yaml}expect:\n  max_latency_cycles: 1\n")
            ),
            Err(format!("line {line}: {message}")),
            "{yaml}"
        );
        assert_eq!(
            from_submit(&format!(
                r#"{{"op":"submit","id":"p1","workload":"llm_decode",{json}}}"#
            )),
            Err(message.to_string()),
            "{json}"
        );
    }
}
