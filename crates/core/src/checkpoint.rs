//! Checkpoint/resume for long-running searches.
//!
//! A Fig. 13–16-style DSE sweep evaluates dozens of design points, each
//! of which runs the full three-step scheduler; losing the sweep to a
//! crash at design point 47 of 54 used to lose everything. This module
//! serialises finished work to disk so a re-invocation picks up where
//! the previous run stopped:
//!
//! * [`SweepCheckpoint`] — finished design points of a DSE sweep, keyed
//!   by design label, written atomically (temp file + rename) after
//!   every design point.
//! * [`AnnealState`] round-trips ([`anneal_state_to_json`] /
//!   [`anneal_state_from_json`]) — the Markovian simulated-annealing
//!   snapshot, resumable via
//!   [`crate::annealing::anneal_segment_resumable`].
//!
//! Everything uses the dependency-free [`secureloop_json`] crate; a
//! corrupted or mismatched checkpoint surfaces as
//! [`SecureLoopError::Checkpoint`] naming the file and the offending
//! field rather than panicking.

use std::fs;
use std::path::Path;

use secureloop_artifact::{self as artifact, DurabilityPolicy, Recovered};
use secureloop_authblock::OverheadBreakdown;
use secureloop_json::Json;
use secureloop_loopnest::{CompactMapping, EnergyBreakdown};
use secureloop_telemetry::Timer;

use crate::annealing::AnnealState;
use crate::error::SecureLoopError;
use crate::scheduler::{Algorithm, LayerOutcome, LayerResult, NetworkSchedule};

/// Current checkpoint schema version; bumped on incompatible changes.
/// Version 2 added the poison-quarantine list; version-1 files (no
/// quarantine) are still accepted on load.
pub const CHECKPOINT_VERSION: u64 = 2;

/// Oldest checkpoint schema version [`SweepCheckpoint::from_json`]
/// still understands.
pub const CHECKPOINT_MIN_VERSION: u64 = 1;

static SAVE_TIMER: Timer = Timer::new("checkpoint.save");
static LOAD_TIMER: Timer = Timer::new("checkpoint.load");

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

fn req_usize(v: &Json, field: &str) -> Result<usize, String> {
    v[field].as_usize().ok_or_else(|| field_err(field))
}

fn usize_array(v: &Json, field: &str) -> Result<Vec<usize>, String> {
    v[field]
        .as_array()
        .ok_or_else(|| field_err(field))?
        .iter()
        .map(|x| x.as_usize().ok_or_else(|| field_err(field)))
        .collect()
}

/// Serialise an [`AnnealState`] snapshot.
pub fn anneal_state_to_json(s: &AnnealState) -> Json {
    let global = match &s.global_best {
        Some(c) => Json::Arr(c.iter().map(|&x| Json::from(x)).collect()),
        None => Json::Null,
    };
    Json::obj()
        .field("restart", s.restart)
        .field("iteration", s.iteration)
        .field("current", s.current.clone())
        .field("best", s.best.clone())
        .field("global_best", global)
}

/// Parse an [`AnnealState`] snapshot.
///
/// # Errors
///
/// Names the missing or ill-typed field.
pub fn anneal_state_from_json(v: &Json) -> Result<AnnealState, String> {
    let global_best = if v["global_best"].is_null() {
        None
    } else {
        Some(usize_array(v, "global_best")?)
    };
    Ok(AnnealState {
        restart: req_usize(v, "restart")?,
        iteration: req_usize(v, "iteration")?,
        current: usize_array(v, "current")?,
        best: usize_array(v, "best")?,
        global_best,
    })
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
    /// `(design label, finished schedule)` in completion order.
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

    /// The quarantine cause for a design label, if it is poisoned.
    pub fn poisoned_cause(&self, label: &str) -> Option<&str> {
        self.poisoned
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, cause)| cause.as_str())
    }

    /// Number of finished design points.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no design point has finished yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Serialise the checkpoint.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("version", CHECKPOINT_VERSION)
            .field("kind", "dse-sweep")
            .field("workload", self.workload.as_str())
            .field("algorithm", self.algorithm.name())
            .field(
                "designs",
                Json::Arr(
                    self.entries
                        .iter()
                        .map(|(label, s)| {
                            Json::obj()
                                .field("label", label.as_str())
                                .field("schedule", schedule_to_json(s))
                        })
                        .collect(),
                ),
            )
            .field(
                "poisoned",
                Json::Arr(
                    self.poisoned
                        .iter()
                        .map(|(label, cause)| {
                            Json::obj()
                                .field("label", label.as_str())
                                .field("cause", cause.as_str())
                        })
                        .collect(),
                ),
            )
    }

    /// Parse a checkpoint written by [`SweepCheckpoint::to_json`].
    ///
    /// # Errors
    ///
    /// Names the missing or ill-typed field (including a version or
    /// kind mismatch).
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let version = req_u64(v, "version")?;
        if !(CHECKPOINT_MIN_VERSION..=CHECKPOINT_VERSION).contains(&version) {
            return Err(format!(
                "unsupported checkpoint version {version} \
                 (expected {CHECKPOINT_MIN_VERSION}..={CHECKPOINT_VERSION})"
            ));
        }
        if v["kind"].as_str() != Some("dse-sweep") {
            return Err(field_err("kind"));
        }
        let algorithm_name = req_str(v, "algorithm")?;
        let algorithm = Algorithm::from_name(&algorithm_name)
            .ok_or_else(|| format!("field 'algorithm': unknown algorithm '{algorithm_name}'"))?;
        let entries = v["designs"]
            .as_array()
            .ok_or_else(|| field_err("designs"))?
            .iter()
            .map(|d| {
                let label = req_str(d, "label")?;
                let schedule = schedule_from_json(&d["schedule"])?;
                Ok((label, schedule))
            })
            .collect::<Result<Vec<_>, String>>()?;
        // Version-1 checkpoints predate the quarantine; treat a missing
        // list as empty.
        let poisoned = match &v["poisoned"] {
            Json::Null => Vec::new(),
            list => list
                .as_array()
                .ok_or_else(|| field_err("poisoned"))?
                .iter()
                .map(|p| Ok((req_str(p, "label")?, req_str(p, "cause")?)))
                .collect::<Result<Vec<_>, String>>()?,
        };
        Ok(SweepCheckpoint {
            workload: req_str(v, "workload")?,
            algorithm,
            entries,
            poisoned,
        })
    }

    /// Write the checkpoint durably with the default
    /// [`DurabilityPolicy`]: sealed in a checksummed envelope, written
    /// to a sibling `.tmp`, fsynced, rotated over the previous
    /// generation (kept as `.bak`) and renamed into place, so an
    /// interrupted write can never leave a torn checkpoint behind.
    ///
    /// # Errors
    ///
    /// [`SecureLoopError::Artifact`] on I/O failure (after retries).
    pub fn save(&self, path: &Path) -> Result<(), SecureLoopError> {
        self.save_with(path, &DurabilityPolicy::default())
    }

    /// [`SweepCheckpoint::save`] with an explicit [`DurabilityPolicy`].
    pub fn save_with(&self, path: &Path, policy: &DurabilityPolicy) -> Result<(), SecureLoopError> {
        SAVE_TIMER.time(|| {
            artifact::write_durable(path, &self.to_json().pretty(), policy)
                .map_err(SecureLoopError::Artifact)
        })
    }

    /// Remove a stale `<path>.tmp` orphan left behind by a write that
    /// died between `fs::write` and `fs::rename` (power loss, SIGKILL).
    /// Call before the first [`SweepCheckpoint::save`] against `path`;
    /// the orphan is a torn partial write and must never be trusted.
    /// Returns whether an orphan was removed.
    pub fn remove_stale_tmp(path: &Path) -> bool {
        let tmp = path.with_extension("tmp");
        tmp.exists() && fs::remove_file(&tmp).is_ok()
    }

    /// Load a checkpoint from disk, strictly: the envelope (if present)
    /// must verify and the payload must parse whole. Use
    /// [`SweepCheckpoint::load_recovering`] to additionally walk the
    /// salvage ladder.
    ///
    /// # Errors
    ///
    /// [`SecureLoopError::Checkpoint`] when the file fails validation;
    /// [`SecureLoopError::Artifact`] with
    /// [`ArtifactError::Empty`] for a 0-byte file (a crash between
    /// create and write — callers treat it as absent-with-warning) and
    /// [`ArtifactError::Io`] when it cannot be read.
    pub fn load(path: &Path) -> Result<Self, SecureLoopError> {
        let err = |message: String| SecureLoopError::Checkpoint {
            path: path.display().to_string(),
            message,
        };
        LOAD_TIMER.time(|| {
            let (payload, integrity) =
                artifact::read_verified(path).map_err(SecureLoopError::Artifact)?;
            if let artifact::Integrity::Damaged(reason) = integrity {
                return Err(err(format!("envelope damaged: {reason}")));
            }
            let v = Json::parse(&payload).map_err(|e| err(format!("parse: {e}")))?;
            SweepCheckpoint::from_json(&v).map_err(err)
        })
    }

    /// Load a checkpoint through the salvage ladder: strict parse of
    /// the primary, record-by-record salvage of a damaged primary
    /// (intact designs kept, the corrupt tail quarantined), then the
    /// `.bak` last-known-good generation. Warnings describe anything
    /// lossy that happened.
    ///
    /// # Errors
    ///
    /// As [`SweepCheckpoint::load`], when every rung fails.
    pub fn load_recovering(path: &Path) -> Result<Recovered<Self>, SecureLoopError> {
        LOAD_TIMER.time(|| {
            artifact::load_recoverable(
                path,
                |payload| {
                    let v = Json::parse(payload).map_err(|e| format!("parse: {e}"))?;
                    SweepCheckpoint::from_json(&v)
                },
                Self::salvage,
            )
            .map_err(SecureLoopError::Artifact)
        })
    }

    /// Recover intact records from a damaged checkpoint payload. The
    /// header (version, kind, workload, algorithm) must still be
    /// readable — a wrong-schema file is never record-mined into the
    /// current schema — but the designs/poisoned arrays are taken
    /// record-by-record, dropping whatever the torn tail corrupted.
    fn salvage(payload: &str) -> Option<(Self, String)> {
        let version = artifact::salvage_u64_field(payload, "version")?;
        if !(CHECKPOINT_MIN_VERSION..=CHECKPOINT_VERSION).contains(&version) {
            return None;
        }
        if artifact::salvage_string_field(payload, "kind").as_deref() != Some("dse-sweep") {
            return None;
        }
        let workload = artifact::salvage_string_field(payload, "workload")?;
        let algorithm =
            Algorithm::from_name(&artifact::salvage_string_field(payload, "algorithm")?)?;
        let mut ckpt = SweepCheckpoint::new(workload, algorithm);
        let mut dropped = 0usize;
        for item in artifact::salvage_array_items(payload, "designs") {
            let parsed = match Json::parse(&item) {
                Ok(v) => v,
                Err(_) => {
                    dropped += 1;
                    continue;
                }
            };
            match (
                parsed["label"].as_str(),
                schedule_from_json(&parsed["schedule"]),
            ) {
                (Some(label), Ok(schedule)) => ckpt.entries.push((label.to_string(), schedule)),
                _ => dropped += 1,
            }
        }
        for item in artifact::salvage_array_items(payload, "poisoned") {
            let parsed = match Json::parse(&item) {
                Ok(v) => v,
                Err(_) => {
                    dropped += 1;
                    continue;
                }
            };
            match (parsed["label"].as_str(), parsed["cause"].as_str()) {
                (Some(label), Some(cause)) => {
                    ckpt.poisoned.push((label.to_string(), cause.to_string()))
                }
                _ => dropped += 1,
            }
        }
        if ckpt.entries.is_empty() && ckpt.poisoned.is_empty() {
            return None;
        }
        let kept = ckpt.entries.len() + ckpt.poisoned.len();
        Some((
            ckpt,
            format!("kept {kept} intact record(s), dropped {dropped} damaged"),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annealing::AnnealingConfig;
    use crate::scheduler::Scheduler;
    use secureloop_arch::Architecture;
    use secureloop_crypto::{CryptoConfig, EngineClass};
    use secureloop_mapper::{FaultPlan, FaultScope, SearchConfig};
    use secureloop_workload::zoo;

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
        // A design of its own, so the fault cannot reach other tests.
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
    fn anneal_state_round_trips() {
        let s = AnnealState {
            restart: 2,
            iteration: 417,
            current: vec![1, 0, 3],
            best: vec![0, 0, 2],
            global_best: Some(vec![0, 1, 2]),
        };
        let back = anneal_state_from_json(&anneal_state_to_json(&s)).unwrap();
        assert_eq!(back, s);
        let fresh = AnnealState::fresh(4);
        let back = anneal_state_from_json(&anneal_state_to_json(&fresh)).unwrap();
        assert_eq!(back, fresh);
    }

    #[test]
    fn sweep_checkpoint_saves_and_loads_atomically() {
        let dir = std::env::temp_dir().join("secureloop-ckpt-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sweep.json");
        let mut ckpt = SweepCheckpoint::new("AlexNet", Algorithm::CryptOptSingle);
        ckpt.insert("design-a", sample_schedule());
        ckpt.save(&path).unwrap();
        assert!(
            !path.with_extension("tmp").exists(),
            "temp file renamed away"
        );
        let back = SweepCheckpoint::load(&path).unwrap();
        assert!(back.matches("AlexNet", Algorithm::CryptOptSingle));
        assert!(!back.matches("ResNet18", Algorithm::CryptOptSingle));
        assert_eq!(back.len(), 1);
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
    fn stale_tmp_orphans_are_cleaned_up_and_real_files_kept() {
        let dir = std::env::temp_dir().join("secureloop-ckpt-tmp-orphan");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sweep.json");
        let tmp = path.with_extension("tmp");

        // Simulate a write that died mid-flight: a torn .tmp next to a
        // good (older) checkpoint.
        let mut ckpt = SweepCheckpoint::new("AlexNet", Algorithm::CryptOptSingle);
        ckpt.insert_poisoned("design-x", "panicked: chaos");
        ckpt.save(&path).unwrap();
        fs::write(&tmp, "{\"version\": 2, \"kind\": \"dse-swe").unwrap();

        assert!(SweepCheckpoint::remove_stale_tmp(&path), "orphan removed");
        assert!(!tmp.exists());
        assert!(path.exists(), "the real checkpoint is untouched");
        let back = SweepCheckpoint::load(&path).unwrap();
        assert_eq!(back.poisoned_cause("design-x"), Some("panicked: chaos"));

        // Idempotent when there is nothing to clean.
        assert!(!SweepCheckpoint::remove_stale_tmp(&path));
        fs::remove_file(&path).unwrap();
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
        let err = SweepCheckpoint::load(&path).unwrap_err();
        assert!(
            matches!(err, SecureLoopError::Artifact(ref a) if a.is_empty()),
            "got {err:?}"
        );
        let err = SweepCheckpoint::load_recovering(&path).unwrap_err();
        assert!(matches!(err, SecureLoopError::Artifact(ref a) if a.is_empty()));
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

        assert!(SweepCheckpoint::load(&path).is_err(), "strict load rejects");
        let rec = SweepCheckpoint::load_recovering(&path).unwrap();
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
        ckpt.insert("design-a", sample_schedule());
        ckpt.save(&path).unwrap();
        ckpt.insert("design-b", sample_schedule());
        ckpt.save(&path).unwrap();
        // Obliterate the primary beyond salvage (header unreadable).
        fs::write(&path, "\u{0}\u{0}garbage\u{0}").unwrap();
        let rec = SweepCheckpoint::load_recovering(&path).unwrap();
        assert_eq!(rec.value.len(), 1, "previous generation had one design");
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
        let err = SweepCheckpoint::load(&path).unwrap_err();
        assert!(matches!(err, SecureLoopError::Checkpoint { .. }));
        assert!(err.to_string().contains("corrupt.json"));

        fs::write(&path, r#"{"version": 99, "kind": "dse-sweep"}"#).unwrap();
        let err = SweepCheckpoint::load(&path).unwrap_err();
        assert!(err.to_string().contains("version 99"));

        let missing = dir.join("never-written.json");
        assert!(SweepCheckpoint::load(&missing).is_err());
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn malformed_fields_are_named() {
        let v =
            Json::parse(r#"{"restart": 1, "iteration": "x", "current": [], "best": []}"#).unwrap();
        let err = anneal_state_from_json(&v).unwrap_err();
        assert!(err.contains("iteration"), "{err}");
    }
}
