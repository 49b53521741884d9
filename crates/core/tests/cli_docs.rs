//! Every `secureloop …` command line in the code blocks of README.md and
//! DESIGN.md parses: a documented flag its command does not read, or a
//! malformed value, fails here instead of in a reader's shell.

use std::path::Path;

use secureloop::cli::{self, CliError};

/// The argument lists of the `secureloop` command lines in `text`'s
/// fenced code blocks: continuation lines joined, trailing comments,
/// redirections and pipes dropped.
fn command_lines(text: &str) -> Vec<Vec<String>> {
    let mut lines = Vec::new();
    let mut in_block = false;
    let mut joined = String::new();
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            in_block = !in_block;
            joined.clear();
            continue;
        }
        if !in_block {
            continue;
        }
        let line = line.split(" #").next().unwrap_or_default().trim_end();
        if let Some(head) = line.strip_suffix('\\') {
            joined.push_str(head);
            continue;
        }
        joined.push_str(line);
        let command = std::mem::take(&mut joined);
        let words: Vec<&str> = command.split_whitespace().collect();
        for (i, word) in words.iter().enumerate() {
            if word.rsplit('/').next() != Some("secureloop") {
                continue;
            }
            let rest = match &words[i + 1..] {
                ["--", rest @ ..] => rest,
                rest => rest,
            };
            let args: Vec<String> = rest
                .iter()
                .take_while(|w| !["<", ">", "|", "&", "&&", ";"].contains(w))
                .map(|w| w.trim_matches(['"', '\'']).to_string())
                .collect();
            // `cargo ... -p secureloop --bin secureloop` names the package.
            if args.first().is_some_and(|a| !a.starts_with('-')) {
                lines.push(args);
            }
        }
    }
    lines
}

#[test]
fn documented_command_lines_parse() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut checked = 0;
    for doc in ["README.md", "DESIGN.md"] {
        let text = std::fs::read_to_string(root.join(doc)).expect("read doc");
        for args in command_lines(&text) {
            // A help request prints help; anything else must parse.
            let parsed = if args.iter().any(|a| a == "--help") {
                cli::run(&args).map(drop)
            } else {
                cli::parse(&args).map(drop)
            };
            match parsed {
                Ok(()) => checked += 1,
                // Prose that happens to follow the word (`secureloop
                // workloads name`) is no command line.
                Err(CliError::Usage(msg)) if msg.starts_with("unknown command") => {}
                Err(e) => panic!("{doc}: `secureloop {}`: {e}", args.join(" ")),
            }
        }
    }
    assert!(checked >= 5, "found only {checked} command lines");
}

#[test]
fn command_lines_are_found_through_continuations_and_redirections() {
    let text = "```sh\n\
        cargo run --release -p secureloop --bin secureloop -- \\\n    dse --workload alexnet --json\n\
        ./target/release/secureloop serve --state-dir d < requests > events &\n\
        ./target/release/secureloop suite suites   # the net\n\
        ```\nsecureloop workloads outside a block\n";
    let want: Vec<Vec<String>> = [
        &["dse", "--workload", "alexnet", "--json"][..],
        &["serve", "--state-dir", "d"],
        &["suite", "suites"],
    ]
    .iter()
    .map(|a| a.iter().map(|s| s.to_string()).collect())
    .collect();
    assert_eq!(command_lines(text), want);
    // A flag its command does not read is caught.
    let args = ["suite", "suites", "--samples", "9"].map(String::from);
    let e = cli::parse(&args);
    assert!(matches!(e, Err(CliError::Usage(m)) if m.contains("--samples")));
}
