//! One run description shared by every front end.
//!
//! A SecureLoop run is the same few inputs whichever way it arrives: a
//! workload, an algorithm, the mapper sample budget, the annealing
//! iterations of Algorithm 1, a seed, an optional wall-clock deadline
//! and an optional protection scheme. [`RunSpec`] holds them once.
//! `secureloop schedule`/`dse`/`trace` flags, scenario YAML and service
//! `submit`/journal JSON all fill it through [`RunSpec::set`], so each
//! field has exactly one parser and one error message; the front ends
//! add only a location (`line N:`, a file path) to it.
//!
//! [`RunSpec::configs`] is the single place a run becomes the mapper's
//! [`SearchConfig`] and the annealer's [`AnnealingConfig`]; the budgets
//! differ per [`Entry`] point, and DESIGN.md "Run specification" lists
//! both tables.

use std::time::Duration;

use secureloop_crypto::SchemeId;
use secureloop_json::{Json, Number};
use secureloop_mapper::{SearchConfig, SearchMode};

use crate::annealing::AnnealingConfig;
use crate::scheduler::Algorithm;

/// The inputs every entry point shares. Build with [`RunSpec::default`]
/// (one-shot CLI and service defaults) or [`RunSpec::suite_default`],
/// then fill fields with [`RunSpec::set`] / [`RunSpec::set_flag`].
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// Workload name from the model zoo (`secureloop workloads`).
    pub workload: Option<String>,
    /// Scheduling algorithm.
    pub algorithm: Algorithm,
    /// Mapper samples per layer (at least 1).
    pub samples: usize,
    /// Simulated-annealing iterations.
    pub iterations: usize,
    /// RNG seed.
    pub seed: u64,
    /// Wall-clock budget in seconds per layer search and per annealed
    /// segment; a deadline trades determinism for latency.
    pub deadline_secs: Option<f64>,
    /// Protection scheme re-pricing the architecture; `None` keeps the
    /// architecture's own (AES-GCM when it has crypto engines).
    pub scheme: Option<SchemeId>,
}

impl Default for RunSpec {
    fn default() -> Self {
        RunSpec {
            workload: None,
            algorithm: Algorithm::CryptOptCross,
            samples: 3000,
            iterations: 1000,
            seed: 1,
            deadline_secs: None,
            scheme: None,
        }
    }
}

/// The entry point a run goes through, which fixes its budgets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Entry {
    /// `schedule` and `compare-schemes`: one architecture, full budgets.
    Schedule,
    /// `trace`: one layer's best mapping; no annealing.
    Trace,
    /// `dse` and service jobs: the Fig. 16 sweep, annealing capped.
    Sweep,
    /// `suite` scenarios: the quick annealer.
    Suite,
}

/// The one scheme-name parser (CLI `--scheme`, scenario `crypto:
/// scheme:`, submit `scheme`, and the architecture file's `scheme`).
///
/// # Errors
///
/// An unknown name, listing the accepted ones.
pub fn parse_scheme(name: &str) -> Result<SchemeId, String> {
    SchemeId::from_name(name).ok_or_else(|| {
        format!("unknown scheme '{name}' (expected none | aes-gcm | seculator | seda)")
    })
}

fn string<'a>(key: &str, v: &'a Json) -> Result<&'a str, String> {
    v.as_str()
        .ok_or_else(|| format!("'{key}' expects a string"))
}

fn count(key: &str, v: &Json) -> Result<usize, String> {
    v.as_usize()
        .ok_or_else(|| format!("'{key}' expects a non-negative integer"))
}

impl RunSpec {
    /// The suite scenarios' defaults: a 1024-sample cap and 60
    /// annealing iterations, otherwise as [`RunSpec::default`]. Under
    /// the guided default the sample cap is a ceiling, not a budget —
    /// searches stop when the Pareto front stops improving — so it is
    /// high enough that convergence, not truncation, decides where each
    /// search ends.
    pub fn suite_default() -> RunSpec {
        RunSpec {
            samples: 1024,
            iterations: 60,
            ..RunSpec::default()
        }
    }

    /// Set the field named `key` (its scenario/submit spelling) from a
    /// JSON value. Returns `Ok(false)` when `key` is not a run field, so
    /// the caller can try its own keys or report an unknown one.
    ///
    /// # Errors
    ///
    /// A message naming the key for an ill-typed or out-of-range value.
    pub fn set(&mut self, key: &str, v: &Json) -> Result<bool, String> {
        match key {
            "workload" => self.workload = Some(string(key, v)?.to_string()),
            "algorithm" => {
                let name = string(key, v)?;
                self.algorithm = Algorithm::from_name(name)
                    .ok_or_else(|| format!("unknown algorithm '{name}'"))?;
            }
            "samples" => match count(key, v)? {
                0 => return Err("'samples' must be at least 1".to_string()),
                n => self.samples = n,
            },
            "iterations" => self.iterations = count(key, v)?,
            "seed" => {
                self.seed = v
                    .as_u64()
                    .ok_or_else(|| format!("'{key}' expects a non-negative integer"))?
            }
            "deadline_secs" => match v.as_f64() {
                Some(secs) if secs.is_finite() && secs >= 0.0 => self.deadline_secs = Some(secs),
                _ => return Err(format!("'{key}' expects a non-negative number")),
            },
            "scheme" => self.scheme = Some(parse_scheme(string(key, v)?)?),
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// [`RunSpec::set`] for a CLI flag (`--deadline-secs` → key
    /// `deadline_secs`) and its raw text. Name fields take the text as a
    /// string; budget fields take it as a number when it parses as one,
    /// so `--samples 40` and `"samples": 40` meet the same check, and
    /// `--samples abc` fails it like `"samples": "abc"`.
    ///
    /// # Errors
    ///
    /// As [`RunSpec::set`].
    pub fn set_flag(&mut self, flag: &str, text: &str) -> Result<bool, String> {
        let key = flag.trim_start_matches("--").replace('-', "_");
        let value = if matches!(key.as_str(), "workload" | "algorithm" | "scheme") {
            Json::Str(text.to_string())
        } else if let Ok(n) = text.parse::<u64>() {
            Json::Num(Number::U(n))
        } else if let Ok(n) = text.parse::<i64>() {
            Json::Num(Number::I(n))
        } else if let Ok(f) = text.parse::<f64>() {
            Json::Num(Number::F(f))
        } else {
            Json::Str(text.to_string())
        };
        self.set(&key, &value)
    }

    /// The mapper and annealer configuration of this run at `entry`:
    /// the one place a run's budgets become engine configs (the budget
    /// table in DESIGN.md "Run specification"). Every entry point
    /// sets `threads: 4` (random-mode chunks only; guided searches run
    /// on the calling thread) and bounds both searches by the deadline.
    /// A sweep keeps the paper's annealing seed, so `dse` and service
    /// results stay byte-identical to earlier ones.
    pub fn configs(&self, entry: Entry, mode: SearchMode) -> (SearchConfig, AnnealingConfig) {
        let (top_k, annealing) = match entry {
            Entry::Schedule => (
                6,
                AnnealingConfig::paper_default()
                    .with_iterations(self.iterations)
                    .with_seed(self.seed),
            ),
            Entry::Trace => (1, AnnealingConfig::paper_default()),
            Entry::Sweep => (
                4,
                AnnealingConfig::paper_default().with_iterations(self.iterations.min(300)),
            ),
            Entry::Suite => (
                4,
                AnnealingConfig::quick()
                    .with_iterations(self.iterations)
                    .with_seed(self.seed),
            ),
        };
        let deadline = self.deadline_secs.map(Duration::from_secs_f64);
        let search = SearchConfig {
            samples: self.samples,
            top_k,
            seed: self.seed,
            threads: 4,
            deadline,
            mode,
        };
        let annealing = match deadline {
            Some(d) => annealing.with_deadline(d),
            None => annealing,
        };
        (search, annealing)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> RunSpec {
        RunSpec {
            workload: Some("alexnet".into()),
            algorithm: Algorithm::CryptOptSingle,
            samples: 40,
            iterations: 500,
            seed: 9,
            deadline_secs: Some(2.5),
            scheme: Some(SchemeId::Seculator),
        }
    }

    /// Today's per-entry-point budgets, pinned: moving the seed into the
    /// sweep's annealer (or any other drift) changes every `dse` result.
    #[test]
    fn budgets_per_entry_point_are_pinned() {
        let run = spec();
        let deadline = Duration::from_secs_f64(2.5);
        let search = |top_k| SearchConfig {
            samples: 40,
            top_k,
            seed: 9,
            threads: 4,
            deadline: Some(deadline),
            mode: SearchMode::Random,
        };
        let paper = AnnealingConfig::paper_default();
        let cases = [
            (
                Entry::Schedule,
                search(6),
                paper.with_iterations(500).with_seed(9),
            ),
            (Entry::Trace, search(1), paper),
            (Entry::Sweep, search(4), paper.with_iterations(300)),
            (
                Entry::Suite,
                search(4),
                AnnealingConfig::quick().with_iterations(500).with_seed(9),
            ),
        ];
        for (entry, want_search, want_annealing) in cases {
            let (s, a) = run.configs(entry, SearchMode::Random);
            assert_eq!(s, want_search, "{entry:?}");
            assert_eq!(a, want_annealing.with_deadline(deadline), "{entry:?}");
        }
        // The sweep's annealer keeps the paper's seed, not the run's.
        assert_eq!(
            run.configs(Entry::Sweep, SearchMode::Guided).1.seed,
            0xa11ea1
        );
        // Without a deadline neither search is bounded.
        let open = RunSpec {
            deadline_secs: None,
            ..spec()
        };
        let (s, a) = open.configs(Entry::Schedule, SearchMode::Guided);
        assert_eq!((s.deadline, a.deadline), (None, None));
        assert_eq!(s.mode, SearchMode::Guided);
        // Defaults per entry point.
        let d = RunSpec::default();
        assert_eq!((d.samples, d.iterations, d.seed), (3000, 1000, 1));
        let s = RunSpec::suite_default();
        assert_eq!((s.samples, s.iterations, s.seed), (1024, 60, 1));
    }

    #[test]
    fn flags_and_json_meet_the_same_checks() {
        let mut a = RunSpec::default();
        let mut b = RunSpec::default();
        for (flag, key, text, json) in [
            ("--samples", "samples", "40", "40"),
            ("--deadline-secs", "deadline_secs", "2.5", "2.5"),
            (
                "--algorithm",
                "algorithm",
                "crypt-opt-single",
                "\"crypt-opt-single\"",
            ),
        ] {
            assert_eq!(a.set_flag(flag, text), Ok(true));
            assert_eq!(b.set(key, &Json::parse(json).unwrap()), Ok(true));
        }
        assert_eq!(a, b);
        for (flag, key, text, json) in [
            ("--samples", "samples", "abc", "\"abc\""),
            ("--samples", "samples", "-3", "-3"),
            ("--seed", "seed", "1.5", "1.5"),
            ("--deadline-secs", "deadline_secs", "-1", "-1"),
            ("--scheme", "scheme", "rot13", "\"rot13\""),
        ] {
            let flag_err = a.set_flag(flag, text).unwrap_err();
            let json_err = b.set(key, &Json::parse(json).unwrap()).unwrap_err();
            assert_eq!(flag_err, json_err);
            assert!(flag_err.contains(key), "{flag_err}");
        }
        assert_eq!(a.set("sample", &Json::from(40u64)), Ok(false));
    }

    #[test]
    fn algorithm_accepts_kebab_and_display_names() {
        let mut r = RunSpec::default();
        for alg in [
            Algorithm::Unsecure,
            Algorithm::CryptTileSingle,
            Algorithm::CryptOptSingle,
            Algorithm::CryptOptCross,
        ] {
            r.set("algorithm", &Json::from(alg.name())).unwrap();
            assert_eq!(r.algorithm, alg);
            r.set(
                "algorithm",
                &Json::from(alg.name().to_ascii_lowercase().as_str()),
            )
            .unwrap();
            assert_eq!(r.algorithm, alg);
        }
    }
}
