//! The `secureloop` command-line tool.
//!
//! ```text
//! secureloop schedule --workload mobilenet_v2 --algorithm crypt-opt-cross \
//!     --engine parallel --engines 3 --pe 14x12 --glb-kb 131 [--json]
//! secureloop dse --workload alexnet
//! secureloop workloads
//! secureloop help    # or `--help`, or `<command> --help`
//! ```
//!
//! Exit codes: `0` success, `1` fatal error, `2` completed but
//! degraded (a degraded/failed layer or a skipped/poisoned design
//! point), `3` interrupted by SIGINT/SIGTERM with state flushed —
//! re-run with `--resume` to continue.

use std::io::{self, ErrorKind, Write};
use std::process::ExitCode;

use secureloop::cli::{run_with_status, CliError, RunStatus};
use secureloop::shutdown;
use secureloop_mapper::cancel;

const FATAL: u8 = 1;
const DEGRADED: u8 = 2;
const INTERRUPTED: u8 = 3;

fn main() -> ExitCode {
    // SIGINT/SIGTERM request a graceful shutdown: the sweep drains,
    // flushes its checkpoint and candidate cache, and reports
    // "interrupted, resumable" instead of dying mid-write.
    shutdown::install_handlers();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run_with_status(&args) {
        Ok(output) => {
            let code = match output.status {
                RunStatus::Success => ExitCode::SUCCESS,
                RunStatus::Degraded => ExitCode::from(DEGRADED),
                RunStatus::Interrupted => ExitCode::from(INTERRUPTED),
                // A completed run whose report records outright
                // failures (e.g. a suite scenario out of bounds) is
                // fatal, but its report already went to stdout.
                RunStatus::Failed => ExitCode::from(FATAL),
            };
            match writeln!(io::stdout(), "{}", output.text) {
                Ok(()) => code,
                // A closed pipe (`secureloop ... | head`) is a normal way
                // to consume partial output, not an error.
                Err(e) if e.kind() == ErrorKind::BrokenPipe => code,
                Err(e) => {
                    eprintln!("cannot write output: {e}");
                    ExitCode::from(FATAL)
                }
            }
        }
        Err(e) => {
            // stderr may also be a closed pipe (`... 2>&1 | head`);
            // losing the tail of the usage text must not panic.
            let _ = writeln!(io::stderr(), "{e}");
            if matches!(e, CliError::Usage(_)) {
                let _ = writeln!(io::stderr(), "{}", secureloop::cli::help_text(None));
            }
            // A shutdown request that surfaced as an error (e.g. a
            // cancelled schedule) is still "interrupted", not fatal.
            if cancel::shutdown_requested() {
                ExitCode::from(INTERRUPTED)
            } else {
                ExitCode::from(FATAL)
            }
        }
    }
}
