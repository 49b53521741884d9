//! `secureloop-bench`: regenerate the paper's tables and figures, or run
//! a CI regression gate. Run without arguments for the usage text.

use std::path::Path;
use std::process::ExitCode;

use secureloop_bench::cli::{self, Command};
use secureloop_bench::{emit, gate, html, write_result};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match cli::parse(&args) {
        Err(why) => {
            eprintln!("error: {why}\n\n{}", cli::usage());
            ExitCode::from(2)
        }
        Ok(Command::Gate(g, flags)) => gate::run(g, &flags),
        Ok(Command::Figures { figures, index }) => {
            let dir = Path::new("results");
            let linked: Vec<String> = figures
                .into_iter()
                .filter_map(|figure| emit(figure, dir, index))
                .collect();
            if index {
                match html::build_report(dir, &linked) {
                    Ok(page) => write_result(dir, "index.html", &page),
                    Err(e) => eprintln!("warning: cannot read {}: {e}", dir.display()),
                }
            }
            ExitCode::SUCCESS
        }
    }
}
