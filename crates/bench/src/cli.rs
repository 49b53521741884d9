//! Command-line parsing for `secureloop-bench`. Bad input is an
//! `Err` carrying the reason; the binary prints it with [`usage`] and
//! exits 2.

use std::fmt::Write as _;
use std::path::PathBuf;

use crate::gate::{self, Gate, GateArgs};
use crate::{figure, Figure, FIGURES};

/// What to run.
#[derive(Debug)]
pub enum Command {
    /// Table entries in order; `index` rebuilds `results/index.html` after.
    Figures {
        /// The entries to run.
        figures: Vec<&'static Figure>,
        /// Whether `all` asked for the HTML report.
        index: bool,
    },
    /// One regression gate with its flags.
    Gate(&'static Gate, GateArgs),
}

/// Parse the arguments after the program name.
///
/// # Errors
///
/// An unknown command, entry or flag, a flag on a figure command, or a
/// flag missing its value.
pub fn parse(args: &[String]) -> Result<Command, String> {
    let Some(first) = args.first() else {
        return Err("no command given".into());
    };
    if let Some(gate) = gate::gate(first) {
        return parse_gate_flags(&args[1..]).map(|flags| Command::Gate(gate, flags));
    }
    let mut figures = Vec::new();
    let mut index = false;
    for arg in args {
        if arg == "all" {
            index = true;
        } else if arg.starts_with('-') {
            return Err(format!(
                "{arg}: figure commands take no flags (flags belong to the gates)"
            ));
        } else if gate::gate(arg).is_some() {
            return Err(format!("{arg}: a gate runs on its own, not with figures"));
        } else {
            figures.push(figure(arg).ok_or_else(|| format!("unknown command or figure: {arg}"))?);
        }
    }
    if index {
        figures = FIGURES.iter().collect();
    }
    Ok(Command::Figures { figures, index })
}

fn parse_gate_flags(args: &[String]) -> Result<GateArgs, String> {
    let mut flags = GateArgs::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut path = || {
            it.next()
                .map(PathBuf::from)
                .ok_or_else(|| format!("{arg} needs a path"))
        };
        match arg.as_str() {
            "--out" => flags.out = Some(path()?),
            "--diff-against" => flags.diff_against = Some(path()?),
            "--check" => flags.check = true,
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    Ok(flags)
}

/// The usage text, listing every table entry and gate.
pub fn usage() -> String {
    let mut out = String::from(
        "usage: secureloop-bench <figure>...   run table entries, writing results/<name>.csv\n\
         \x20      secureloop-bench all           run every entry, then build results/index.html\n\
         \x20      secureloop-bench <gate> [--out <path>] [--check] [--diff-against <baseline>]\n\
         \nfigures:\n",
    );
    for f in FIGURES {
        let _ = writeln!(out, "  {:<24} {}", f.name, f.about);
    }
    out.push_str("\ngates:\n");
    for g in gate::GATES {
        let _ = writeln!(out, "  {:<24} {}", g.name, g.about);
    }
    out.push_str(
        "\ngate flags:\n  --out <path>             output JSON (default BENCH_<gate>.json)\n  \
         --check                  exit 1 unless the gate's thresholds hold\n  \
         --diff-against <path>    exit 1 if a deterministic field differs from the baseline\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(line: &str) -> Result<Command, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse(&args)
    }

    fn names(cmd: &Command) -> Vec<&'static str> {
        match cmd {
            Command::Figures { figures, .. } => figures.iter().map(|f| f.name).collect(),
            Command::Gate(g, _) => vec![g.name],
        }
    }

    #[test]
    fn figure_names_run_in_the_given_order() {
        let cmd = parse_str("table2 fig03").unwrap();
        assert_eq!(names(&cmd), ["table2", "fig03"]);
        assert!(matches!(cmd, Command::Figures { index: false, .. }));
    }

    #[test]
    fn all_runs_every_entry_and_the_index() {
        let cmd = parse_str("all").unwrap();
        assert_eq!(names(&cmd).len(), FIGURES.len());
        assert!(matches!(cmd, Command::Figures { index: true, .. }));
        assert!(names(&cmd).contains(&"micro"));
        assert!(parse_str("all fig99").is_err());
    }

    #[test]
    fn gate_flags_parse() {
        let Command::Gate(g, flags) =
            parse_str("sweep --check --out a.json --diff-against BENCH_sweep.json").unwrap()
        else {
            panic!("expected a gate");
        };
        assert_eq!(g.name, "sweep");
        assert_eq!(
            flags,
            GateArgs {
                out: Some("a.json".into()),
                check: true,
                diff_against: Some("BENCH_sweep.json".into()),
            }
        );
        let Command::Gate(g, flags) = parse_str("guided").unwrap() else {
            panic!("expected a gate");
        };
        assert_eq!(g.name, "guided");
        assert_eq!(flags, GateArgs::default());
    }

    #[test]
    fn bad_input_is_an_error_not_a_panic() {
        for line in [
            "",
            "bogus",
            "fig03 bogus",
            "--check",
            "fig03 --check",
            "guided --bogus",
            "sweep --samples 4096",
            "sweep --workers 4",
            "sweep --min-speedup 1.3",
            "guided --min-sample-reduction 5.0",
            "sweep --out",
            "sweep --diff-against",
            "fig03 sweep",
            "sweep guided",
        ] {
            assert!(parse_str(line).is_err(), "{line:?} should be rejected");
        }
        assert_eq!(
            parse_str("guided --bogus").unwrap_err(),
            "unknown flag: --bogus"
        );
        assert_eq!(parse_str("sweep --out").unwrap_err(), "--out needs a path");
    }

    #[test]
    fn usage_lists_every_entry_and_gate() {
        let text = usage();
        for name in FIGURES
            .iter()
            .map(|f| f.name)
            .chain(gate::GATES.iter().map(|g| g.name))
        {
            assert!(text.contains(&format!("  {name} ")), "usage misses {name}");
        }
    }
}
