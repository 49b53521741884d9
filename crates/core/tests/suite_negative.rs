//! Negative-path tests for the scenario-suite loader and runner:
//! every malformed input must surface as a typed [`CliError::Scenario`]
//! (exit 1 at the CLI) or a `FAIL` row with [`RunStatus::Failed`] —
//! never a panic, never a silent pass.

use std::path::{Path, PathBuf};

use secureloop::cli::{CliError, RunStatus};
use secureloop::suite::{discover, load_scenario, run_suite};
use secureloop_mapper::SearchMode;

/// A fresh scratch directory per test, cleaned of prior leftovers.
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "secureloop-suite-neg-{}-{test}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn write(dir: &Path, name: &str, text: &str) -> PathBuf {
    let path = dir.join(name);
    std::fs::write(&path, text).expect("write scenario");
    path
}

/// The error must be the typed scenario variant naming the file, and
/// its message must contain `needle`.
fn assert_scenario_err(result: Result<secureloop::suite::Scenario, CliError>, needle: &str) {
    match result {
        Err(CliError::Scenario { path, message }) => {
            assert!(
                message.contains(needle),
                "scenario error for {path} should mention '{needle}', got: {message}"
            );
        }
        Err(other) => panic!("expected CliError::Scenario, got: {other}"),
        Ok(s) => panic!("expected an error, loaded scenario '{}'", s.name),
    }
}

#[test]
fn malformed_yaml_is_a_typed_error() {
    let dir = scratch("malformed");
    let p = write(
        &dir,
        "bad.yaml",
        "name: x\nexpect: {max_latency_cycles: 1}\n",
    );
    assert_scenario_err(load_scenario(&p, None), "flow mappings");

    let p = write(&dir, "tabs.yaml", "name: x\n\texpect:\n");
    assert_scenario_err(load_scenario(&p, None), "tab");

    let p = write(&dir, "dup.yaml", "name: x\nname: y\n");
    assert_scenario_err(load_scenario(&p, None), "duplicate");
}

#[test]
fn unknown_workload_is_a_typed_error() {
    let dir = scratch("unknown-workload");
    let p = write(
        &dir,
        "s.yaml",
        "workload: not_a_network\nexpect:\n  max_latency_cycles: 1\n",
    );
    assert_scenario_err(load_scenario(&p, None), "unknown workload 'not_a_network'");
}

#[test]
fn missing_workload_and_missing_expect_are_typed_errors() {
    let dir = scratch("missing-fields");
    let p = write(
        &dir,
        "no-workload.yaml",
        "expect:\n  max_latency_cycles: 1\n",
    );
    assert_scenario_err(load_scenario(&p, None), "missing required field 'workload'");

    let p = write(&dir, "no-expect.yaml", "workload: llm_decode\n");
    assert_scenario_err(load_scenario(&p, None), "missing required 'expect' block");

    let p = write(
        &dir,
        "empty-expect.yaml",
        "workload: llm_decode\nexpect:\n  {}\n",
    );
    // An empty expect block is rejected one way or another (flow
    // mapping or no bounds) — either way a typed error, not a pass.
    assert!(load_scenario(&p, None).is_err());
}

#[test]
fn unknown_fields_name_the_expected_keys() {
    let dir = scratch("unknown-fields");
    let p = write(
        &dir,
        "field.yaml",
        "workload: llm_decode\nbogus: 1\nexpect:\n  max_latency_cycles: 1\n",
    );
    assert_scenario_err(load_scenario(&p, None), "unknown field 'bogus'");

    let p = write(
        &dir,
        "bound.yaml",
        "workload: llm_decode\nexpect:\n  min_latency: 1\n",
    );
    assert_scenario_err(load_scenario(&p, None), "unknown bound 'min_latency'");

    let p = write(
        &dir,
        "budget.yaml",
        "workload: llm_decode\nsearch:\n  depth: 3\nexpect:\n  max_latency_cycles: 1\n",
    );
    assert_scenario_err(load_scenario(&p, None), "unknown search budget 'depth'");
}

#[test]
fn out_of_range_values_are_typed_errors() {
    let dir = scratch("ranges");
    let p = write(
        &dir,
        "w.yaml",
        "workload: llm_decode\nword_bits: 0\nexpect:\n  max_latency_cycles: 1\n",
    );
    assert_scenario_err(load_scenario(&p, None), "'word_bits' must be in 1..=512");

    let p = write(
        &dir,
        "b.yaml",
        "workload: llm_decode\nbatch: 0\nexpect:\n  max_latency_cycles: 1\n",
    );
    assert_scenario_err(load_scenario(&p, None), "'batch' must be at least 1");

    let p = write(
        &dir,
        "a.yaml",
        "workload: llm_decode\nalgorithm: quantum\nexpect:\n  max_latency_cycles: 1\n",
    );
    assert_scenario_err(load_scenario(&p, None), "unknown algorithm 'quantum'");
}

#[test]
fn unknown_crypto_scheme_is_a_line_numbered_error() {
    let dir = scratch("crypto-scheme-unknown");
    let p = write(
        &dir,
        "s.yaml",
        "workload: llm_decode\ncrypto:\n  scheme: rot13\nexpect:\n  max_latency_cycles: 1\n",
    );
    let result = load_scenario(&p, None);
    assert_scenario_err(result, "unknown scheme 'rot13'");
    // The message points at the offending line: `scheme:` is line 3.
    match load_scenario(&p, None) {
        Err(CliError::Scenario { message, .. }) => {
            assert!(
                message.contains("line 3:"),
                "error carries the line number, got: {message}"
            );
            assert!(
                message.contains("none | aes-gcm | seculator | seda"),
                "error lists the valid schemes, got: {message}"
            );
        }
        other => panic!("expected CliError::Scenario, got: {other:?}"),
    }
}

#[test]
fn unknown_crypto_field_is_a_line_numbered_error() {
    let dir = scratch("crypto-field-unknown");
    let p = write(
        &dir,
        "s.yaml",
        "workload: llm_decode\ncrypto:\n  cipher: aes\nexpect:\n  max_latency_cycles: 1\n",
    );
    match load_scenario(&p, None) {
        Err(CliError::Scenario { message, .. }) => {
            assert!(
                message.contains("unknown crypto field 'cipher'") && message.contains("line 3:"),
                "got: {message}"
            );
        }
        other => panic!("expected CliError::Scenario, got: {other:?}"),
    }
}

#[test]
fn invalid_scheme_engine_class_combo_fails_at_load_with_line_number() {
    let dir = scratch("crypto-combo");
    // SeDA supports Parallel and Serial only; the scenario pins a
    // pipelined engine, so the pairing is impossible.
    let p = write(
        &dir,
        "s.yaml",
        "workload: llm_decode\narch:\n  engine: pipelined\n  engines: 2\n\
         crypto:\n  scheme: seda\nexpect:\n  max_latency_cycles: 1\n",
    );
    match load_scenario(&p, None) {
        Err(CliError::Scenario { message, .. }) => {
            assert!(
                message.contains("does not support the Pipelined engine class")
                    && message.contains("line 6:"),
                "got: {message}"
            );
        }
        other => panic!("expected CliError::Scenario, got: {other:?}"),
    }
}

#[test]
fn scheme_on_cryptoless_arch_fails_at_load() {
    let dir = scratch("crypto-no-engines");
    let p = write(
        &dir,
        "s.yaml",
        "workload: llm_decode\narch:\n  engines: 0\n\
         crypto:\n  scheme: seculator\nexpect:\n  max_latency_cycles: 1\n",
    );
    match load_scenario(&p, None) {
        Err(CliError::Scenario { message, .. }) => {
            assert!(
                message.contains("needs a crypto engine configuration"),
                "got: {message}"
            );
        }
        other => panic!("expected CliError::Scenario, got: {other:?}"),
    }
}

#[test]
fn cli_scheme_override_incompatible_with_a_scenario_fails_the_suite() {
    let dir = scratch("override-combo");
    write(
        &dir,
        "pipelined.yaml",
        "workload: llm_decode\narch:\n  engine: pipelined\n  engines: 2\n\
         search:\n  samples: 120\n  iterations: 5\n\
         expect:\n  max_latency_cycles: 99999999999\n",
    );
    match run_suite(
        &dir,
        false,
        SearchMode::Guided,
        Some(secureloop_crypto::SchemeId::Seda),
    ) {
        Err(CliError::Scenario { path, message }) => {
            assert!(path.ends_with("pipelined.yaml"), "names the file: {path}");
            assert!(
                message.contains("does not support the Pipelined engine class"),
                "got: {message}"
            );
        }
        other => panic!("expected CliError::Scenario, got: {other:?}"),
    }
}

#[test]
fn empty_suite_dir_is_an_error_not_a_pass() {
    let dir = scratch("empty");
    match discover(&dir) {
        Err(CliError::Scenario { message, .. }) => {
            assert!(message.contains("no scenario files"), "got: {message}");
        }
        other => panic!("expected CliError::Scenario for empty dir, got: {other:?}"),
    }
    // And via the runner: same typed error, so the CLI exits 1.
    assert!(run_suite(&dir, false, SearchMode::Guided, None).is_err());
}

#[test]
fn missing_suite_dir_is_an_error() {
    let dir = scratch("missing").join("does-not-exist");
    assert!(matches!(discover(&dir), Err(CliError::Scenario { .. })));
}

#[test]
fn one_bad_file_fails_the_whole_suite_before_any_run() {
    let dir = scratch("mixed");
    write(
        &dir,
        "good.yaml",
        "workload: llm_decode\nexpect:\n  max_latency_cycles: 99999999\n",
    );
    write(&dir, "bad.yaml", "workload: llm_decode\nexpect: nothing\n");
    match run_suite(&dir, false, SearchMode::Guided, None) {
        Err(CliError::Scenario { path, .. }) => {
            assert!(
                path.ends_with("bad.yaml"),
                "error names the bad file: {path}"
            )
        }
        other => panic!("expected load failure, got: {other:?}"),
    }
}

#[test]
fn violated_bound_reports_fail_and_failed_status() {
    let dir = scratch("violation");
    write(
        &dir,
        "tight.yaml",
        "name: tight\nworkload: llm_decode\n\
         search:\n  samples: 120\n  iterations: 5\n\
         expect:\n  max_latency_cycles: 10\n",
    );
    let out = run_suite(&dir, false, SearchMode::Guided, None).expect("suite runs to completion");
    assert_eq!(
        out.status,
        RunStatus::Failed,
        "bound violation is Failed:\n{}",
        out.text
    );
    assert!(
        out.text.contains("FAIL"),
        "report has a FAIL row:\n{}",
        out.text
    );
    assert!(
        out.text.contains("max_latency_cycles 10"),
        "report names the violated bound:\n{}",
        out.text
    );
    assert!(
        out.text.contains("failed 1"),
        "summary counts the failure:\n{}",
        out.text
    );
}

#[test]
fn in_bounds_scenario_passes() {
    let dir = scratch("pass");
    write(
        &dir,
        "loose.yaml",
        "name: loose\nworkload: llm_decode\n\
         search:\n  samples: 120\n  iterations: 5\n\
         expect:\n  max_latency_cycles: 99999999999\n",
    );
    let out = run_suite(&dir, false, SearchMode::Guided, None).expect("suite runs");
    assert_eq!(out.status, RunStatus::Success, "{}", out.text);
    assert!(out.text.contains("passed 1"), "{}", out.text);
}

/// Loader robustness: every byte-truncation of a realistic scenario
/// file either loads or returns a typed error — no panics, ever.
#[test]
fn loader_never_panics_on_truncated_files() {
    let full = "name: trunc\nworkload: attention\nbatch: 2\nword_bits: 16\n\
                algorithm: crypt-opt-single\n\
                search:\n  samples: 200\n  iterations: 10\n  seed: 7\n\
                expect:\n  max_latency_cycles: 100\n  max_overhead_ratio: 0.5\n";
    let dir = scratch("trunc");
    let path = dir.join("t.yaml");
    for end in 0..=full.len() {
        if !full.is_char_boundary(end) {
            continue;
        }
        std::fs::write(&path, &full[..end]).expect("write truncation");
        // Ok or Err are both acceptable; a panic fails the test.
        let _ = load_scenario(&path, None);
    }
}
