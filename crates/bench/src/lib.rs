#![warn(missing_docs)]

//! The experiment harness: one binary, `secureloop-bench`, regenerates
//! every table and figure of the paper's evaluation (§5) plus the
//! extended studies, and runs the two CI regression gates.
//!
//! ```text
//! cargo run --release -p secureloop-bench -- <figure>...   # entries of FIGURES
//! cargo run --release -p secureloop-bench -- all           # every entry + results/index.html
//! cargo run --release -p secureloop-bench -- sweep|guided [--check] [--out <p>] [--diff-against <p>]
//! ```
//!
//! [`FIGURES`] is the single list of entries; the binary's usage output
//! prints it with one line per entry. Each entry computes its rows once
//! into a [`Table`] and returns any extra artifacts (SVGs, the
//! `stats_*` files) in its [`Output`]; entries do no I/O. [`emit`]
//! prints the table aligned, writes `results/<name>.csv` and the extras,
//! and prints the entry's closing notes. The gates live in [`gate`].

pub mod cli;
pub mod gate;
pub mod html;
mod micro;
mod paper;
pub mod plot;
mod studies;

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

use secureloop::{AnnealingConfig, Scheduler};
use secureloop_arch::Architecture;
use secureloop_crypto::{CryptoConfig, EngineClass};
use secureloop_mapper::{SearchConfig, SearchMode};
use secureloop_workload::{zoo, Network};

/// Mapper budget used by the experiments: the paper's top-k = 6 with a
/// sample count that saturates quality on these workloads.
pub fn paper_search() -> SearchConfig {
    SearchConfig {
        samples: 4000,
        top_k: 6,
        seed: 0x5ec0_4e10,
        threads: 8,
        deadline: None,
        mode: SearchMode::Random,
    }
}

/// The paper's annealing operating point (k = 6, 1000 iterations).
pub fn paper_annealing() -> AnnealingConfig {
    AnnealingConfig::paper_default()
}

/// The base secure configuration of §5.1: Eyeriss-like accelerator with
/// one parallel AES-GCM engine per datatype.
pub fn base_secure_arch() -> Architecture {
    Architecture::eyeriss_base().with_crypto(CryptoConfig::new(EngineClass::Parallel, 3))
}

/// A scheduler with the paper budgets on the given architecture.
pub fn paper_scheduler(arch: Architecture) -> Scheduler {
    Scheduler::new(arch)
        .with_search(paper_search())
        .with_annealing(paper_annealing())
}

/// The three evaluation workloads of §5.1.
pub fn workloads() -> Vec<Network> {
    vec![zoo::alexnet_conv(), zoo::resnet18(), zoo::mobilenet_v2()]
}

/// A table entry: one figure, table or study.
#[derive(Debug)]
pub struct Figure {
    /// Command name; also the stem of the CSV it writes.
    pub name: &'static str,
    /// One line for the usage output.
    pub about: &'static str,
    /// Computes the rows. Does no I/O.
    pub run: fn() -> Output,
}

/// Every figure, table and study, in the order `all` runs them.
pub const FIGURES: &[Figure] = &[
    Figure {
        name: "fig03",
        about: "Fig. 3: AES implementation survey (area vs cycles/block)",
        run: paper::fig03,
    },
    Figure {
        name: "table2",
        about: "Table 2: AES-GCM engine design points",
        run: paper::table2,
    },
    Figure {
        name: "fig09",
        about: "Fig. 9: AuthBlock orientation x size traffic sweep",
        run: paper::fig09,
    },
    Figure {
        name: "fig10",
        about: "Fig. 10: SA speedup vs top-k, 1000 & 5000 iterations",
        run: paper::fig10,
    },
    Figure {
        name: "fig11",
        about: "Fig. 11 / Table 1: scheduling-algorithm latency + traffic breakdown",
        run: paper::fig11,
    },
    Figure {
        name: "fig12",
        about: "Fig. 12: roofline model",
        run: paper::fig12,
    },
    Figure {
        name: "fig13",
        about: "Fig. 13: engine configurations, slowdown + area overhead",
        run: paper::fig13,
    },
    Figure {
        name: "fig14",
        about: "Fig. 14: PE-array scaling",
        run: paper::fig14,
    },
    Figure {
        name: "fig15",
        about: "Fig. 15: GLB-size scaling",
        run: paper::fig15,
    },
    Figure {
        name: "fig16",
        about: "Fig. 16: area vs performance Pareto front",
        run: paper::fig16,
    },
    Figure {
        name: "dram_sweep",
        about: "§5.2: DRAM-technology study",
        run: paper::dram_sweep,
    },
    Figure {
        name: "treeless_ablation",
        about: "tree-less integrity [18,19,27] vs a CPU-style Merkle tree",
        run: studies::treeless_ablation,
    },
    Figure {
        name: "im2col_compare",
        about: "Fig. 5's direct-conv (halos) vs im2col (duplication) styles",
        run: studies::im2col_compare,
    },
    Figure {
        name: "dataflow_sweep",
        about: "the §1 claim: security cost varies with the dataflow",
        run: studies::dataflow_sweep,
    },
    Figure {
        name: "edge_vs_cloud",
        about: "§3.1: the same engines on Eyeriss-class vs TPU-class parts",
        run: studies::edge_vs_cloud,
    },
    Figure {
        name: "fusion_ablation",
        about: "the cited future work [43]: fused pairs with GLB-pinned intermediates",
        run: studies::fusion_ablation,
    },
    Figure {
        name: "tag_sweep",
        about: "32/64/128-bit truncated-tag sensitivity",
        run: studies::tag_sweep,
    },
    Figure {
        name: "batch_sweep",
        about: "batch-size amortisation of weight traffic",
        run: studies::batch_sweep,
    },
    Figure {
        name: "rf_fidelity",
        about: "unified vs Eyeriss-partitioned register files",
        run: studies::rf_fidelity,
    },
    Figure {
        name: "mapper_convergence",
        about: "random-search quality vs sample budget, vs the greedy seed",
        run: studies::mapper_convergence,
    },
    Figure {
        name: "dram_validation",
        about: "banked open-row DRAM replay of real schedules vs the flat abstraction",
        run: studies::dram_validation,
    },
    Figure {
        name: "energy_breakdown",
        about: "component-wise energy (MAC/RF/GLB/NoC/DRAM/crypto)",
        run: studies::energy_breakdown,
    },
    Figure {
        name: "channel_major_ablation",
        about: "§4.2 n-D generalisation: channel-major vs in-plane blocks on pointwise geometry",
        run: studies::channel_major_ablation,
    },
    Figure {
        name: "run_all",
        about: "the artifact's run_all workflow: per-design stats, JSON, summary CSV",
        run: paper::run_all,
    },
    Figure {
        name: "micro",
        about: "microbenchmarks: AuthBlock counting, mapper, AES-GCM, annealing, telemetry",
        run: micro::micro,
    },
];

/// The entry called `name`, if any.
pub fn figure(name: &str) -> Option<&'static Figure> {
    FIGURES.iter().find(|f| f.name == name)
}

/// Build a row of CSV cells from displayable values.
macro_rules! cells {
    ($($cell:expr),* $(,)?) => { vec![$($cell.to_string()),*] };
}
pub(crate) use cells;

/// A header plus already-formatted cells: one CSV, printed aligned.
pub struct Table {
    header: Vec<&'static str>,
    rows: Vec<Vec<String>>,
}

/// Tables longer than this print their head only; the CSV has every row.
const PRINTED_ROWS: usize = 40;

impl Table {
    /// An empty table whose columns are named by a CSV header line.
    pub fn new(header: &'static str) -> Self {
        Table {
            header: header.split(',').collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row; it must have one cell per column.
    pub fn push(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.header.len(), "row width != header width");
        self.rows.push(row);
    }

    /// The CSV text: the header line, then one line per row.
    pub fn to_csv(&self) -> String {
        let mut csv = self.header.join(",");
        csv.push('\n');
        for row in &self.rows {
            csv.push_str(&row.join(","));
            csv.push('\n');
        }
        csv
    }

    /// The rows as aligned text: numeric columns right-aligned, the
    /// rest left-aligned.
    pub fn to_text(&self) -> String {
        let shown = &self.rows[..self.rows.len().min(PRINTED_ROWS)];
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in shown {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.chars().count());
            }
        }
        let numeric: Vec<bool> = (0..widths.len())
            .map(|i| shown.iter().all(|row| row[i].parse::<f64>().is_ok()))
            .collect();
        let mut out = String::new();
        let header = self.header.iter().map(|h| h.to_string()).collect();
        for row in std::iter::once(&header).chain(shown) {
            let mut line = String::new();
            for (i, cell) in row.iter().enumerate() {
                let (sep, w) = (if i == 0 { "" } else { "  " }, widths[i]);
                let _ = match numeric[i] {
                    true => write!(line, "{sep}{cell:>w$}"),
                    false => write!(line, "{sep}{cell:<w$}"),
                };
            }
            out.push_str(line.trim_end());
            out.push('\n');
        }
        if self.rows.len() > shown.len() {
            let _ = writeln!(
                out,
                "... {} more rows in the CSV",
                self.rows.len() - shown.len()
            );
        }
        out
    }
}

/// What one entry returns: its table, extra artifacts and closing notes.
pub struct Output {
    /// The rows, written as `results/<csv>`.
    pub table: Table,
    /// CSV file name when it is not `<entry name>.csv`.
    pub csv: Option<&'static str>,
    /// Extra artifacts as `(file name, contents)`, written next to the CSV.
    pub files: Vec<(String, String)>,
    /// Prose printed after the table.
    pub notes: Vec<String>,
    /// Whether the numbers time the machine that ran the entry: such an
    /// entry writes its files only when `all` runs it.
    pub machine_dependent: bool,
}

impl Output {
    /// An output holding just `table`.
    pub fn new(table: Table) -> Self {
        Output {
            table,
            csv: None,
            files: Vec::new(),
            notes: Vec::new(),
            machine_dependent: false,
        }
    }

    /// Mark the output as timings of this machine (see
    /// [`Output::machine_dependent`]).
    #[must_use]
    pub fn machine_dependent(mut self) -> Self {
        self.machine_dependent = true;
        self
    }

    /// Add a closing note.
    #[must_use]
    pub fn note(mut self, line: impl Into<String>) -> Self {
        self.notes.push(line.into());
        self
    }

    /// Add an extra artifact.
    #[must_use]
    pub fn file(mut self, name: impl Into<String>, contents: String) -> Self {
        self.files.push((name.into(), contents));
        self
    }
}

/// Run `figure`, print its table and notes, and write its CSV and extra
/// artifacts under `dir`. A machine-dependent entry only prints unless
/// `all` runs it, so timing it alone leaves the committed files as they
/// are; when `all` writes it, its CSV's name is returned, for the index
/// to link rather than inline. A file that cannot be written is a
/// warning: the remaining entries still run.
pub fn emit(figure: &Figure, dir: &Path, all: bool) -> Option<String> {
    println!("===== {} — {} =====\n", figure.name, figure.about);
    let out = (figure.run)();
    print!("{}", out.table.to_text());
    if !out.notes.is_empty() {
        println!();
    }
    for note in &out.notes {
        println!("{note}");
    }
    let csv_name = out
        .csv
        .map_or_else(|| format!("{}.csv", figure.name), String::from);
    println!();
    if out.machine_dependent && !all {
        println!("[{csv_name} not written: only `all` refreshes machine-dependent results]\n");
        return None;
    }
    write_result(dir, &csv_name, &out.table.to_csv());
    for (name, contents) in &out.files {
        write_result(dir, name, contents);
    }
    println!();
    out.machine_dependent.then_some(csv_name)
}

/// Write `contents` to `dir/name` (creating `dir`) and report the path.
pub fn write_result(dir: &Path, name: &str, contents: &str) {
    if let Err(e) = fs::create_dir_all(dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(name);
    match fs::write(&path, contents) {
        Ok(()) => println!("[wrote {}]", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_configs_are_papers() {
        assert_eq!(paper_search().top_k, 6);
        assert_eq!(paper_annealing().iterations, 1000);
        assert_eq!(paper_annealing().k, 6);
        let arch = base_secure_arch();
        assert!(arch.is_secure());
        assert_eq!(arch.crypto().unwrap().label(), "Parallel x3");
        assert_eq!(workloads().len(), 3);
    }

    #[test]
    fn figure_names_are_unique_and_distinct_from_commands() {
        for (i, f) in FIGURES.iter().enumerate() {
            assert!(
                FIGURES[i + 1..].iter().all(|g| g.name != f.name),
                "duplicate entry {}",
                f.name
            );
            assert!(
                f.name != "all" && gate::gate(f.name).is_none(),
                "{} shadows a command",
                f.name
            );
            assert_eq!(figure(f.name).map(|g| g.name), Some(f.name));
        }
    }

    /// The cheap deterministic entries reproduce the committed CSVs byte
    /// for byte, so `results/` cannot go stale unnoticed.
    #[test]
    fn cheap_entries_match_committed_results() {
        let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        for name in [
            "fig03",
            "table2",
            "fig09",
            "channel_major_ablation",
            "im2col_compare",
            "dram_validation",
        ] {
            let fresh = (figure(name).expect("entry exists").run)().table.to_csv();
            let path = results.join(format!("{name}.csv"));
            let committed = fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
            assert_eq!(
                fresh, committed,
                "{name}: regenerate with `cargo run --release -p secureloop-bench -- {name}`"
            );
        }
    }

    #[test]
    fn table_csv_and_text() {
        let mut t = Table::new("name,value,note");
        t.push(cells!["a", 1.5, "x"]);
        t.push(cells!["long-name", 10, ""]);
        assert_eq!(t.to_csv(), "name,value,note\na,1.5,x\nlong-name,10,\n");
        assert_eq!(
            t.to_text(),
            "name       value  note\na            1.5  x\nlong-name     10\n"
        );
    }

    #[test]
    fn long_tables_print_their_head() {
        let mut t = Table::new("i");
        for i in 0..PRINTED_ROWS + 5 {
            t.push(cells![i]);
        }
        let text = t.to_text();
        assert_eq!(text.lines().count(), PRINTED_ROWS + 2);
        assert!(text.ends_with("... 5 more rows in the CSV\n"));
        assert_eq!(t.to_csv().lines().count(), PRINTED_ROWS + 6);
    }
}
