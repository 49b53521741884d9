//! The `secureloop` binary's exit-code contract, asserted end to end:
//! `0` success, `1` fatal (usage or input errors), `2` completed but
//! degraded, `3` interrupted by a signal with a flushed, resumable
//! checkpoint.

use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_secureloop"))
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn success_exits_zero() {
    let out = bin().arg("workloads").output().expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("alexnet"));
}

#[test]
fn usage_error_exits_one() {
    let out = bin().arg("--bogus").output().expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("usage:"),
        "fatal argument errors print the usage text"
    );
}

#[test]
fn help_prints_to_stdout_and_exits_zero() {
    for args in [&["help"][..], &["--help"], &["dse", "--help"]] {
        let out = bin().args(args).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        assert!(out.stderr.is_empty(), "{args:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.starts_with("usage:"), "{args:?}: {stdout}");
        assert!(stdout.contains("--workers"), "{args:?}: {stdout}");
    }
}

#[test]
fn a_flag_the_command_does_not_read_exits_one_naming_both() {
    // Each of these used to exit 0 (or run a whole sweep) with the flag
    // silently dropped.
    let state = tmp_dir("secureloop-exit-codes-unread-flag");
    let state = state.to_str().unwrap();
    let cases: [(&[&str], &str); 7] = [
        (&["compare-schemes", "--scheme", "seda"], "--scheme"),
        (
            &["dse", "--pe", "28x24", "--glb-kb", "512", "--engines", "1"],
            "--pe",
        ),
        (
            &[
                "schedule",
                "--checkpoint",
                "x.json",
                "--workers",
                "7",
                "--state-dir",
                "d",
                "--layer",
                "3",
            ],
            "--checkpoint",
        ),
        (&["suite", "suites", "--samples", "50"], "--samples"),
        (
            &["serve", "--state-dir", state, "--samples", "50"],
            "--samples",
        ),
        (&["workloads", "--json"], "--json"),
        (&["dse", "--layer", "2"], "--layer"),
    ];
    for (args, flag) in cases {
        let started = Instant::now();
        let out = bin()
            .args(args)
            .stdin(Stdio::null())
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let first = stderr.lines().next().unwrap_or_default();
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: no output");
        assert!(
            first.contains(args[0]) && first.contains(flag),
            "{args:?}: the first line names the command and {flag}: {first}"
        );
        assert!(started.elapsed() < Duration::from_secs(10), "{args:?} ran");
    }
}

#[test]
fn unknown_workload_exits_one() {
    let out = bin()
        .args(["schedule", "--workload", "definitely-not-a-network"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn bad_architecture_flags_and_zero_samples_exit_one_naming_the_field() {
    // Each of these used to run a search first (and `--engines 100000`
    // or `--samples 0` finished with exit 0 or 2). Now the arguments are
    // refused before any search: the runs below would take minutes with
    // the default budgets, so a quick exit is part of the check.
    for (flag, value, field) in [
        ("--pe", "0x12", "'pe'"),
        ("--glb-kb", "0", "'glb_kb'"),
        ("--engines", "100000", "'engines'"),
        ("--samples", "0", "'samples'"),
    ] {
        let started = Instant::now();
        let out = bin()
            .args(["schedule", "--workload", "resnet50", flag, value])
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flag} {value}: {stderr}");
        assert!(stderr.contains(field), "{flag} {value}: {stderr}");
        assert!(out.stdout.is_empty(), "{flag} {value}: no report");
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "{flag} {value} was refused only after {:?}",
            started.elapsed()
        );
    }
}

#[test]
fn degraded_schedule_exits_two() {
    // A zero deadline cuts every layer search down to the greedy floor,
    // so the schedule completes but every layer is degraded.
    let out = bin()
        .args([
            "schedule",
            "--workload",
            "alexnet",
            "--deadline-secs",
            "0",
            "--samples",
            "50",
            "--iterations",
            "5",
        ])
        .output()
        .expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(2),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("degraded"),
        "the table names the degradation"
    );
}

/// SIGINT mid-sweep: the run drains, flushes its checkpoint, reports
/// itself interrupted and exits `3`; a `--resume` run restores the
/// finished design points and completes the rest with exit `0`.
#[cfg(unix)]
#[test]
fn interrupt_exits_three_and_resume_completes() {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    const SIGINT: i32 = 2;

    let dir = tmp_dir("secureloop-exit-codes");
    let ckpt = dir.join("sweep.json");
    let _ = std::fs::remove_file(&ckpt);

    let dse_args = [
        "dse",
        "--workload",
        "mlp",
        "--samples",
        "20",
        "--iterations",
        "3",
        "--no-cache",
        "--checkpoint",
    ];

    let mut child = bin()
        .args(dse_args)
        .arg(&ckpt)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary spawns");

    // Signal as soon as the first design point has been checkpointed,
    // so there is always something to restore and (with 18 design
    // points in the space) plenty of sweep left to interrupt.
    let deadline = Instant::now() + Duration::from_secs(120);
    while !ckpt.exists() {
        assert!(Instant::now() < deadline, "no checkpoint appeared");
        assert!(
            child.try_wait().expect("try_wait works").is_none(),
            "sweep finished before it could be interrupted"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let rc = unsafe { kill(child.id() as i32, SIGINT) };
    assert_eq!(rc, 0, "kill(SIGINT) succeeds");

    let out = child.wait_with_output().expect("binary exits");
    assert_eq!(
        out.status.code(),
        Some(3),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("interrupted: shutdown requested; re-run with --resume to continue"),
        "stdout: {stdout}"
    );
    assert!(ckpt.exists(), "the checkpoint survived the interruption");

    let out = bin()
        .args(dse_args)
        .arg(&ckpt)
        .arg("--resume")
        .output()
        .expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let resumed_line = stdout
        .lines()
        .find(|l| l.starts_with("resumed:"))
        .expect("the resume run reports what it restored");
    // "resumed: N design point(s) restored from checkpoint, M evaluated"
    let nums: Vec<usize> = resumed_line
        .split(|c: char| !c.is_ascii_digit())
        .filter(|s| !s.is_empty())
        .map(|s| s.parse().unwrap())
        .collect();
    assert_eq!(nums.len(), 2, "line: {resumed_line}");
    assert!(nums[0] >= 1, "at least one design point was restored");
    assert_eq!(
        nums[0] + nums[1],
        18,
        "restored + evaluated covers the whole Fig. 16 space: {resumed_line}"
    );
    assert!(!stdout.contains("interrupted:"));
}
