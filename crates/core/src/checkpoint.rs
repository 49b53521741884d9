//! Checkpoint/resume for long-running searches.
//!
//! A Fig. 13–16-style DSE sweep evaluates dozens of design points, each
//! of which runs the full three-step scheduler; losing the sweep to a
//! crash at design point 47 of 54 used to lose everything.
//! [`SweepCheckpoint`] holds the finished design points of a sweep,
//! keyed by design label, and is saved after every design point so a
//! re-invocation picks up where the previous run stopped.
//!
//! It persists through [`secureloop_artifact::Persistent`]: a durable
//! write per save, and a salvage-ladder load that names the file and
//! the offending field of a corrupted or mismatched checkpoint rather
//! than panicking.

use std::ops::RangeInclusive;
use std::path::Path;

use secureloop_artifact::{self as artifact, DurabilityPolicy, Persistent};
use secureloop_authblock::OverheadBreakdown;
use secureloop_json::Json;
use secureloop_loopnest::{CompactMapping, EnergyBreakdown};
use secureloop_telemetry::{Counter, Timer};

use crate::error::SecureLoopError;
use crate::scheduler::{Algorithm, LayerOutcome, LayerResult, NetworkSchedule};

/// Current checkpoint schema version; bumped on incompatible changes.
/// Version 2 added the poison-quarantine list; version-1 files (no
/// quarantine) are still accepted on load.
pub const CHECKPOINT_VERSION: u64 = 2;

/// Oldest checkpoint schema version a load still understands.
pub const CHECKPOINT_MIN_VERSION: u64 = 1;

/// Times [`SweepCheckpoint::save_with`]. perfbench counts a sweep's
/// artifact writes from this timer's `count`; once it reads
/// [`SAVES`] instead, the timer can go.
static SAVE_TIMER: Timer = Timer::new("checkpoint.save");

/// Counts [`SweepCheckpoint::save_with`] calls, like [`SAVE_TIMER`]'s
/// `count`.
static SAVES: Counter = Counter::new("checkpoint.saves");

fn field_err(field: &str) -> String {
    format!("missing or invalid field '{field}'")
}

fn req_str(v: &Json, field: &str) -> Result<String, String> {
    v[field]
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| field_err(field))
}

fn req_u64(v: &Json, field: &str) -> Result<u64, String> {
    v[field].as_u64().ok_or_else(|| field_err(field))
}

fn req_f64(v: &Json, field: &str) -> Result<f64, String> {
    v[field].as_f64().ok_or_else(|| field_err(field))
}

fn outcome_to_json(name: &str, outcome: &LayerOutcome) -> Json {
    let detail = match outcome {
        LayerOutcome::Scheduled => Json::Null,
        LayerOutcome::Degraded { reason } => Json::from(reason.as_str()),
        LayerOutcome::Failed { error } => Json::from(error.as_str()),
    };
    Json::obj()
        .field("layer", name)
        .field("status", outcome.label())
        .field("detail", detail)
}

fn outcome_from_json(v: &Json) -> Result<(String, LayerOutcome), String> {
    let name = req_str(v, "layer")?;
    let detail = || req_str(v, "detail");
    let outcome = match v["status"].as_str() {
        Some("scheduled") => LayerOutcome::Scheduled,
        Some("degraded") => LayerOutcome::Degraded { reason: detail()? },
        Some("failed") => LayerOutcome::Failed { error: detail()? },
        _ => return Err(field_err("status")),
    };
    Ok((name, outcome))
}

fn layer_to_json(l: &LayerResult) -> Json {
    Json::obj()
        .field("name", l.name.as_str())
        .field("latency_cycles", l.latency_cycles)
        .field("energy_pj", l.energy_pj)
        .field("extra_bits", l.extra_bits)
        .field("data_dram_bits", l.data_dram_bits)
        .field("macs", l.macs)
        .field("utilization", l.utilization)
        .field("mapping", CompactMapping(&l.mapping).to_string())
        .field(
            "energy",
            Json::obj()
                .field("mac_pj", l.energy.mac_pj)
                .field("rf_pj", l.energy.rf_pj)
                .field("glb_pj", l.energy.glb_pj)
                .field("noc_pj", l.energy.noc_pj)
                .field("dram_pj", l.energy.dram_pj)
                .field("crypto_pj", l.energy.crypto_pj),
        )
}

fn layer_from_json(v: &Json) -> Result<LayerResult, String> {
    let mapping_text = req_str(v, "mapping")?;
    let mapping = mapping_text
        .parse()
        .map_err(|e| format!("field 'mapping': {e}"))?;
    let e = &v["energy"];
    Ok(LayerResult {
        name: req_str(v, "name")?,
        latency_cycles: req_u64(v, "latency_cycles")?,
        energy_pj: req_f64(v, "energy_pj")?,
        extra_bits: req_u64(v, "extra_bits")?,
        data_dram_bits: req_u64(v, "data_dram_bits")?,
        macs: req_u64(v, "macs")?,
        utilization: req_f64(v, "utilization")?,
        mapping,
        energy: EnergyBreakdown {
            mac_pj: req_f64(e, "mac_pj")?,
            rf_pj: req_f64(e, "rf_pj")?,
            glb_pj: req_f64(e, "glb_pj")?,
            noc_pj: req_f64(e, "noc_pj")?,
            dram_pj: req_f64(e, "dram_pj")?,
            crypto_pj: req_f64(e, "crypto_pj")?,
        },
    })
}

/// Serialise a finished [`NetworkSchedule`].
pub fn schedule_to_json(s: &NetworkSchedule) -> Json {
    Json::obj()
        .field("network", s.network.as_str())
        .field("algorithm", s.algorithm.name())
        .field("arch_summary", s.arch_summary.as_str())
        .field("total_latency_cycles", s.total_latency_cycles)
        .field("total_energy_pj", s.total_energy_pj)
        .field(
            "overhead",
            Json::obj()
                .field("hash_bits", s.overhead.hash_bits)
                .field("redundant_bits", s.overhead.redundant_bits)
                .field("rehash_bits", s.overhead.rehash_bits),
        )
        .field(
            "outcomes",
            Json::Arr(
                s.outcomes
                    .iter()
                    .map(|(n, o)| outcome_to_json(n, o))
                    .collect(),
            ),
        )
        .field(
            "layers",
            Json::Arr(s.layers.iter().map(layer_to_json).collect()),
        )
}

/// Parse a [`NetworkSchedule`] written by [`schedule_to_json`].
///
/// # Errors
///
/// Names the missing or ill-typed field.
pub fn schedule_from_json(v: &Json) -> Result<NetworkSchedule, String> {
    let algorithm_name = req_str(v, "algorithm")?;
    let algorithm = Algorithm::from_name(&algorithm_name)
        .ok_or_else(|| format!("field 'algorithm': unknown algorithm '{algorithm_name}'"))?;
    let o = &v["overhead"];
    let layers = v["layers"]
        .as_array()
        .ok_or_else(|| field_err("layers"))?
        .iter()
        .map(layer_from_json)
        .collect::<Result<Vec<_>, _>>()?;
    let outcomes = v["outcomes"]
        .as_array()
        .ok_or_else(|| field_err("outcomes"))?
        .iter()
        .map(outcome_from_json)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(NetworkSchedule {
        network: req_str(v, "network")?,
        algorithm,
        arch_summary: req_str(v, "arch_summary")?,
        total_latency_cycles: req_u64(v, "total_latency_cycles")?,
        total_energy_pj: req_f64(v, "total_energy_pj")?,
        overhead: OverheadBreakdown {
            hash_bits: req_u64(o, "hash_bits")?,
            redundant_bits: req_u64(o, "redundant_bits")?,
            rehash_bits: req_u64(o, "rehash_bits")?,
        },
        layers,
        outcomes,
    })
}

/// The finished design points of a DSE sweep, keyed by design label.
#[derive(Debug, Clone)]
pub struct SweepCheckpoint {
    /// Workload (network name) the sweep runs on.
    pub workload: String,
    /// Scheduling algorithm of the sweep.
    pub algorithm: Algorithm,
    /// `(design label, finished schedule)`; a sweep saves them in
    /// design order.
    pub entries: Vec<(String, NetworkSchedule)>,
    /// `(design label, cause)` poison quarantine: design points that
    /// exhausted their supervised retries panicking or timing out. A
    /// resumed sweep reports them as poisoned without re-running them.
    pub poisoned: Vec<(String, String)>,
}

impl SweepCheckpoint {
    /// An empty checkpoint for a sweep.
    pub fn new(workload: impl Into<String>, algorithm: Algorithm) -> Self {
        SweepCheckpoint {
            workload: workload.into(),
            algorithm,
            entries: Vec::new(),
            poisoned: Vec::new(),
        }
    }

    /// Whether this checkpoint belongs to the given sweep.
    pub fn matches(&self, workload: &str, algorithm: Algorithm) -> bool {
        self.workload == workload && self.algorithm == algorithm
    }

    /// The finished schedule for a design label, if present.
    pub fn get(&self, label: &str) -> Option<&NetworkSchedule> {
        self.entries
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, s)| s)
    }

    /// The finished schedule for a design label, moved out when `take`
    /// and copied otherwise; else the label's quarantine cause.
    pub(crate) fn resolve(&mut self, label: &str, take: bool) -> Result<NetworkSchedule, String> {
        match self.entries.iter().position(|(l, _)| l == label) {
            Some(at) if take => Ok(self.entries.remove(at).1),
            Some(at) => Ok(self.entries[at].1.clone()),
            None => Err(self.poisoned_cause(label).unwrap_or_default().to_string()),
        }
    }

    /// Record a finished design point (replacing any previous entry
    /// with the same label, and clearing any quarantine on it — a
    /// successful evaluation supersedes an old poisoning).
    pub fn insert(&mut self, label: impl Into<String>, schedule: NetworkSchedule) {
        let label = label.into();
        self.entries.retain(|(l, _)| *l != label);
        self.poisoned.retain(|(l, _)| *l != label);
        self.entries.push((label, schedule));
    }

    /// Quarantine a design point: record why it is poison so a resumed
    /// sweep skips it instead of re-crashing on it.
    pub fn insert_poisoned(&mut self, label: impl Into<String>, cause: impl Into<String>) {
        let label = label.into();
        self.entries.retain(|(l, _)| *l != label);
        self.poisoned.retain(|(l, _)| *l != label);
        self.poisoned.push((label, cause.into()));
    }

    /// Sort the entries and the quarantine by `rank` of their design
    /// label (stable: equal ranks keep their order).
    pub(crate) fn order_by(&mut self, rank: impl Fn(&str) -> usize) {
        self.entries.sort_by_key(|(label, _)| rank(label));
        self.poisoned.sort_by_key(|(label, _)| rank(label));
    }

    /// The quarantine cause for a design label, if it is poisoned.
    pub fn poisoned_cause(&self, label: &str) -> Option<&str> {
        self.poisoned
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, cause)| cause.as_str())
    }

    /// Write the checkpoint durably with `policy` ([`artifact::save`]).
    ///
    /// # Errors
    ///
    /// [`SecureLoopError::Artifact`] on I/O failure (after retries).
    pub fn save_with(&self, path: &Path, policy: &DurabilityPolicy) -> Result<(), SecureLoopError> {
        SAVES.incr();
        SAVE_TIMER.time(|| artifact::save(self, path, policy).map_err(SecureLoopError::Artifact))
    }
}

impl Persistent for SweepCheckpoint {
    const KIND: &'static str = "dse-sweep";
    const NOUN: &'static str = "checkpoint";
    const VERSIONS: RangeInclusive<u64> = CHECKPOINT_MIN_VERSION..=CHECKPOINT_VERSION;
    const HEADER: &'static [&'static str] = &["workload", "algorithm"];
    const RECORDS: &'static [&'static str] = &["designs", "poisoned"];
    /// Version-1 checkpoints predate the quarantine.
    const OPTIONAL_RECORDS: &'static [&'static str] = &["poisoned"];

    fn header(&self) -> Vec<Json> {
        vec![self.workload.as_str().into(), self.algorithm.name().into()]
    }

    fn from_header(v: &Json) -> Result<Self, String> {
        let algorithm_name = req_str(v, "algorithm")?;
        let algorithm = Algorithm::from_name(&algorithm_name)
            .ok_or_else(|| format!("field 'algorithm': unknown algorithm '{algorithm_name}'"))?;
        Ok(SweepCheckpoint::new(req_str(v, "workload")?, algorithm))
    }

    fn write_records(&self, array: &str) -> Vec<Json> {
        if array == "designs" {
            self.entries
                .iter()
                .map(|(label, s)| {
                    Json::obj()
                        .field("label", label.as_str())
                        .field("schedule", schedule_to_json(s))
                })
                .collect()
        } else {
            self.poisoned
                .iter()
                .map(|(label, cause)| {
                    Json::obj()
                        .field("label", label.as_str())
                        .field("cause", cause.as_str())
                })
                .collect()
        }
    }

    fn read_record(&mut self, array: &str, v: &Json) -> Result<(), String> {
        let label = req_str(v, "label")?;
        if array == "designs" {
            let schedule = schedule_from_json(&v["schedule"])?;
            self.entries.push((label, schedule));
        } else {
            let cause = req_str(v, "cause")?;
            self.poisoned.push((label, cause));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annealing::AnnealingConfig;
    use crate::scheduler::Scheduler;
    use secureloop_arch::Architecture;
    use secureloop_artifact::{ArtifactError, LoadSource};
    use secureloop_crypto::{CryptoConfig, EngineClass};
    use secureloop_mapper::{FaultPlan, FaultScope, SearchConfig};
    use secureloop_workload::zoo;
    use std::fs;

    fn sample_schedule() -> NetworkSchedule {
        let arch =
            Architecture::eyeriss_base().with_crypto(CryptoConfig::new(EngineClass::Parallel, 3));
        Scheduler::new(arch)
            .with_search(SearchConfig::quick())
            .with_annealing(AnnealingConfig::quick())
            .schedule(&zoo::alexnet_conv(), Algorithm::CryptOptSingle)
            .expect("schedules")
    }

    #[test]
    fn schedule_round_trips_through_json() {
        let s = sample_schedule();
        let v = schedule_to_json(&s);
        let text = v.pretty();
        let back = schedule_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.network, s.network);
        assert_eq!(back.algorithm, s.algorithm);
        assert_eq!(back.total_latency_cycles, s.total_latency_cycles);
        assert_eq!(back.layers.len(), s.layers.len());
        assert_eq!(back.outcomes, s.outcomes);
        assert_eq!(back.overhead.total_bits(), s.overhead.total_bits());
        for (a, b) in back.layers.iter().zip(&s.layers) {
            assert_eq!(a.mapping, b.mapping);
            assert_eq!(a.latency_cycles, b.latency_cycles);
        }
    }

    #[test]
    fn degraded_and_failed_outcomes_survive_the_round_trip() {
        let arch = Architecture::eyeriss_base()
            .with_crypto(CryptoConfig::new(EngineClass::Parallel, 3))
            .with_name("fault-target");
        let _scope = FaultScope::inject(FaultPlan::fail(["conv3"]).for_arch("fault-target"));
        let s = Scheduler::new(arch)
            .with_search(SearchConfig::quick())
            .with_annealing(AnnealingConfig::quick())
            .schedule(&zoo::alexnet_conv(), Algorithm::CryptOptCross)
            .expect("partial schedule");
        assert_eq!(s.failed_count(), 1);
        let back = schedule_from_json(&schedule_to_json(&s)).unwrap();
        assert_eq!(back.failed_count(), 1);
        assert_eq!(back.outcomes, s.outcomes);
    }

    #[test]
    fn sweep_checkpoint_saves_and_loads_atomically() {
        let dir = std::env::temp_dir().join("secureloop-ckpt-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sweep.json");
        let mut ckpt = SweepCheckpoint::new("AlexNet", Algorithm::CryptOptSingle);
        ckpt.insert("design-a", sample_schedule());
        ckpt.save_with(&path, &DurabilityPolicy::default()).unwrap();
        assert!(
            !path.with_extension("tmp").exists(),
            "temp file renamed away"
        );
        let rec = artifact::load::<SweepCheckpoint>(&path).unwrap();
        assert_eq!(rec.source, LoadSource::Primary);
        let back = rec.value;
        assert!(back.matches("AlexNet", Algorithm::CryptOptSingle));
        assert!(!back.matches("ResNet18", Algorithm::CryptOptSingle));
        assert_eq!(back.entries.len(), 1);
        assert!(back.get("design-a").is_some());
        assert!(back.get("design-b").is_none());
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn poison_quarantine_round_trips() {
        let mut ckpt = SweepCheckpoint::new("AlexNet", Algorithm::CryptOptSingle);
        ckpt.insert_poisoned("design-x", "panicked: injected chaos");
        let text = ckpt.to_json().pretty();
        let back = SweepCheckpoint::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(
            back.poisoned_cause("design-x"),
            Some("panicked: injected chaos")
        );
        assert_eq!(back.poisoned_cause("design-y"), None);
    }

    #[test]
    fn successful_insert_clears_the_quarantine() {
        let mut ckpt = SweepCheckpoint::new("AlexNet", Algorithm::CryptOptSingle);
        ckpt.insert_poisoned("design-x", "timed out after 0.250s");
        assert!(ckpt.poisoned_cause("design-x").is_some());
        ckpt.insert("design-x", sample_schedule());
        assert_eq!(ckpt.poisoned_cause("design-x"), None);
        assert!(ckpt.get("design-x").is_some());
    }

    #[test]
    fn version_1_checkpoints_without_quarantine_still_load() {
        let text = r#"{"version": 1, "kind": "dse-sweep", "workload": "AlexNet",
                       "algorithm": "Crypt-Opt-Single", "designs": []}"#;
        let back = SweepCheckpoint::from_json(&Json::parse(text).unwrap()).unwrap();
        assert!(back.matches("AlexNet", Algorithm::CryptOptSingle));
        assert!(back.poisoned.is_empty());
    }

    #[test]
    fn failed_save_does_not_strand_a_tmp_file() {
        let dir = std::env::temp_dir().join("secureloop-ckpt-save-fail");
        fs::create_dir_all(&dir).unwrap();
        // Renaming over a directory fails on every platform, forcing
        // the save down its error path after the .tmp was written.
        let path = dir.join("target-is-a-dir.json");
        fs::create_dir_all(&path).unwrap();
        let ckpt = SweepCheckpoint::new("AlexNet", Algorithm::CryptOptSingle);
        let fast = DurabilityPolicy {
            retries: 0,
            ..DurabilityPolicy::fast()
        };
        let err = ckpt.save_with(&path, &fast).unwrap_err();
        assert!(matches!(err, SecureLoopError::Artifact(_)));
        assert!(err.to_string().contains("target-is-a-dir"));
        assert!(
            !path.with_extension("tmp").exists(),
            "failed save cleans up its temp file"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_checkpoint_file_is_typed_as_empty() {
        let dir = std::env::temp_dir().join("secureloop-ckpt-empty");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sweep.json");
        fs::write(&path, "").unwrap();
        let err = artifact::load::<SweepCheckpoint>(&path).unwrap_err();
        assert!(err.is_empty(), "got {err:?}");
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_checkpoint_salvages_intact_records() {
        let dir = std::env::temp_dir().join("secureloop-ckpt-salvage");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sweep.json");
        let mut ckpt = SweepCheckpoint::new("AlexNet", Algorithm::CryptOptSingle);
        ckpt.insert("design-a", sample_schedule());
        ckpt.insert("design-b", sample_schedule());
        ckpt.insert_poisoned("design-p", "panicked: chaos");
        let text = ckpt.to_json().pretty();
        // Tear the file inside the second design record; the footer is
        // lost along with the tail.
        let cut = text.find("design-b").unwrap() + 30;
        fs::write(&path, &text[..cut]).unwrap();
        // Make sure a stale backup cannot mask the salvage path.
        let _ = fs::remove_file(path.with_extension("bak"));

        let rec = artifact::load::<SweepCheckpoint>(&path).unwrap();
        assert_eq!(
            rec.source,
            LoadSource::PrimarySalvaged,
            "strict load rejects"
        );
        assert!(rec.value.get("design-a").is_some());
        assert!(rec.value.get("design-b").is_none(), "torn record dropped");
        assert!(!rec.warnings.is_empty());
        assert!(rec.warnings[0].contains("salvaged"), "{:?}", rec.warnings);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupted_checkpoint_falls_back_to_backup_generation() {
        let dir = std::env::temp_dir().join("secureloop-ckpt-bakgen");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sweep.json");
        let _ = fs::remove_file(path.with_extension("bak"));
        let mut ckpt = SweepCheckpoint::new("AlexNet", Algorithm::CryptOptSingle);
        let policy = DurabilityPolicy::default();
        ckpt.insert("design-a", sample_schedule());
        ckpt.save_with(&path, &policy).unwrap();
        ckpt.insert("design-b", sample_schedule());
        ckpt.save_with(&path, &policy).unwrap();
        // Obliterate the primary beyond salvage (header unreadable).
        fs::write(&path, "\u{0}\u{0}garbage\u{0}").unwrap();
        let rec = artifact::load::<SweepCheckpoint>(&path).unwrap();
        assert_eq!(rec.source, LoadSource::Backup);
        assert_eq!(
            rec.value.entries.len(),
            1,
            "previous generation had one design"
        );
        assert!(rec.value.get("design-a").is_some());
        assert!(rec.warnings[0].contains("backup"), "{:?}", rec.warnings);
        fs::remove_file(&path).unwrap();
        fs::remove_file(path.with_extension("bak")).unwrap();
    }

    #[test]
    fn corrupted_checkpoints_name_the_problem() {
        let dir = std::env::temp_dir().join("secureloop-ckpt-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corrupt.json");
        fs::write(&path, "{not json").unwrap();
        let err = artifact::load::<SweepCheckpoint>(&path).unwrap_err();
        assert!(
            matches!(err, ArtifactError::Corrupt { ref message, .. } if message.contains("parse")),
            "got {err:?}"
        );
        assert!(err.to_string().contains("corrupt.json"));

        fs::write(&path, r#"{"version": 99, "kind": "dse-sweep"}"#).unwrap();
        let err = artifact::load::<SweepCheckpoint>(&path).unwrap_err();
        assert!(
            matches!(err, ArtifactError::Corrupt { ref message, .. } if message.contains("version 99")),
            "got {err:?}"
        );

        let missing = dir.join("never-written.json");
        assert!(artifact::load::<SweepCheckpoint>(&missing).is_err());
        fs::remove_file(&path).unwrap();
    }
}
