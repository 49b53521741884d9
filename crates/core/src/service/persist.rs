//! Service-state persistence: the job journal and the state-dir
//! layout.
//!
//! Everything rides on the checkpoint machinery that already survives
//! kill-at-any-instant for sweeps: atomic temp+rename writes, stale
//! `.tmp` cleanup on startup, and per-design [`crate::SweepCheckpoint`]
//! files (one per job) that give a restarted server zero recomputation
//! of completed design points.
//!
//! Layout of `<state_dir>/`:
//!
//! ```text
//! service.json         the job journal (this module)
//! service.cache.json   the process-wide candidate cache
//! <job-id>.ckpt.json   per-job sweep checkpoint (+ sibling .tmp
//!                      during writes, cleaned on startup)
//! ```

use std::fs;
use std::path::{Path, PathBuf};

use secureloop_artifact::{self as artifact, DurabilityPolicy, Recovered};
use secureloop_json::Json;

use crate::error::SecureLoopError;
use crate::service::job::JobRecord;

/// Journal schema version; bumped on incompatible changes.
pub const JOURNAL_VERSION: u64 = 1;

/// The journal file inside a state dir.
pub fn journal_path(state_dir: &Path) -> PathBuf {
    state_dir.join("service.json")
}

/// The persisted candidate cache inside a state dir.
pub fn cache_path(state_dir: &Path) -> PathBuf {
    state_dir.join("service.cache.json")
}

/// The per-job sweep checkpoint inside a state dir. Job ids are
/// validated filesystem-safe at admission
/// ([`crate::service::job::valid_job_id`]).
pub fn job_checkpoint_path(state_dir: &Path, id: &str) -> PathBuf {
    state_dir.join(format!("{id}.ckpt.json"))
}

/// Remove every stale `*.tmp` orphan in the state dir (journal, cache,
/// or per-job checkpoint writes that died between write and rename).
/// Returns how many were removed.
pub fn remove_stale_tmps(state_dir: &Path) -> usize {
    let Ok(entries) = fs::read_dir(state_dir) else {
        return 0;
    };
    let mut removed = 0;
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().is_some_and(|e| e == "tmp") && fs::remove_file(&path).is_ok() {
            removed += 1;
        }
    }
    removed
}

/// The whole job table, serialised after every state transition so a
/// kill at any instant loses at most the transition in flight — and a
/// job whose `Running` state was journalled but whose result was not
/// simply re-runs from its checkpoint on restart.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServiceJournal {
    /// Every job the server has seen, in admission order.
    pub jobs: Vec<JobRecord>,
}

impl ServiceJournal {
    /// Serialise the journal.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("version", JOURNAL_VERSION)
            .field("kind", "service-journal")
            .field(
                "jobs",
                Json::Arr(self.jobs.iter().map(JobRecord::to_json).collect()),
            )
    }

    /// Parse a journal written by [`ServiceJournal::to_json`].
    ///
    /// # Errors
    ///
    /// Names the missing or ill-typed field (including version / kind
    /// mismatches).
    pub fn from_json(v: &Json) -> Result<ServiceJournal, String> {
        let version = v["version"]
            .as_u64()
            .ok_or("missing or invalid field 'version'")?;
        if version != JOURNAL_VERSION {
            return Err(format!(
                "unsupported journal version {version} (expected {JOURNAL_VERSION})"
            ));
        }
        if v["kind"].as_str() != Some("service-journal") {
            return Err("missing or invalid field 'kind'".to_string());
        }
        let jobs = v["jobs"]
            .as_array()
            .ok_or("missing or invalid field 'jobs'")?
            .iter()
            .map(JobRecord::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ServiceJournal { jobs })
    }

    /// Write the journal durably with the default [`DurabilityPolicy`]
    /// (checksummed envelope, temp + fsync + `.bak` rotation + rename;
    /// a failed write cleans up its temp file).
    ///
    /// # Errors
    ///
    /// [`SecureLoopError::Artifact`] on I/O failure (after retries).
    pub fn save(&self, path: &Path) -> Result<(), SecureLoopError> {
        self.save_with(path, &DurabilityPolicy::default())
    }

    /// [`ServiceJournal::save`] with an explicit [`DurabilityPolicy`].
    pub fn save_with(&self, path: &Path, policy: &DurabilityPolicy) -> Result<(), SecureLoopError> {
        artifact::write_durable(path, &self.to_json().pretty(), policy)
            .map_err(SecureLoopError::Artifact)
    }

    /// Load a journal from disk, strictly.
    ///
    /// # Errors
    ///
    /// [`SecureLoopError::Checkpoint`] when the contents fail
    /// validation; [`SecureLoopError::Artifact`] with a typed `Empty`
    /// for a 0-byte file (crash between create and write — callers
    /// treat it as absent-with-warning) or `Io` when it cannot be read.
    pub fn load(path: &Path) -> Result<ServiceJournal, SecureLoopError> {
        let err = |message: String| SecureLoopError::Checkpoint {
            path: path.display().to_string(),
            message,
        };
        let (payload, integrity) =
            artifact::read_verified(path).map_err(SecureLoopError::Artifact)?;
        if let artifact::Integrity::Damaged(reason) = integrity {
            return Err(err(format!("envelope damaged: {reason}")));
        }
        let v = Json::parse(&payload).map_err(|e| err(format!("parse: {e}")))?;
        ServiceJournal::from_json(&v).map_err(err)
    }

    /// Load a journal through the salvage ladder: strict parse, then
    /// record-by-record recovery of a damaged file (intact job records
    /// kept, the corrupt tail dropped), then the `.bak` last-known-good
    /// generation.
    ///
    /// # Errors
    ///
    /// As [`ServiceJournal::load`], when every rung fails.
    pub fn load_recovering(path: &Path) -> Result<Recovered<ServiceJournal>, SecureLoopError> {
        artifact::load_recoverable(
            path,
            |payload| {
                let v = Json::parse(payload).map_err(|e| format!("parse: {e}"))?;
                ServiceJournal::from_json(&v)
            },
            Self::salvage,
        )
        .map_err(SecureLoopError::Artifact)
    }

    /// Recover intact job records from a damaged journal payload. The
    /// header (version, kind) must still be readable so a wrong-schema
    /// file is never record-mined into the current schema.
    fn salvage(payload: &str) -> Option<(ServiceJournal, String)> {
        if artifact::salvage_u64_field(payload, "version") != Some(JOURNAL_VERSION) {
            return None;
        }
        if artifact::salvage_string_field(payload, "kind").as_deref() != Some("service-journal") {
            return None;
        }
        let mut jobs = Vec::new();
        let mut dropped = 0usize;
        for item in artifact::salvage_array_items(payload, "jobs") {
            match Json::parse(&item)
                .map_err(|e| e.to_string())
                .and_then(|v| JobRecord::from_json(&v))
            {
                Ok(job) => jobs.push(job),
                Err(_) => dropped += 1,
            }
        }
        if jobs.is_empty() {
            return None;
        }
        let kept = jobs.len();
        Some((
            ServiceJournal { jobs },
            format!("kept {kept} intact job record(s), dropped {dropped} damaged"),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::RunSpec;
    use crate::scheduler::Algorithm;
    use crate::service::job::{JobSpec, JobState};

    fn record(id: &str, state: JobState) -> JobRecord {
        JobRecord {
            spec: JobSpec {
                id: id.into(),
                run: RunSpec {
                    workload: Some("alexnet".into()),
                    algorithm: Algorithm::CryptOptCross,
                    samples: 100,
                    iterations: 10,
                    seed: 1,
                    deadline_secs: None,
                    scheme: None,
                },
                designs: vec![],
                fault: None,
            },
            state,
            cause: None,
        }
    }

    #[test]
    fn journal_round_trips_through_disk() {
        let dir = std::env::temp_dir().join(format!("sl-journal-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = journal_path(&dir);
        let journal = ServiceJournal {
            jobs: vec![
                record("a", JobState::Completed),
                record("b", JobState::Running),
                record("c", JobState::Shed),
            ],
        };
        journal.save(&path).unwrap();
        assert!(!path.with_extension("tmp").exists());
        let back = ServiceJournal::load(&path).unwrap();
        assert_eq!(back, journal);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_tmps_are_swept_but_real_state_is_kept() {
        let dir = std::env::temp_dir().join(format!("sl-tmps-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = journal_path(&dir);
        ServiceJournal::default().save(&path).unwrap();
        fs::write(dir.join("service.tmp"), "{torn").unwrap();
        fs::write(dir.join("job-9.ckpt.tmp"), "{torn").unwrap();
        assert_eq!(remove_stale_tmps(&dir), 2);
        assert!(path.exists(), "the journal survives the sweep");
        assert_eq!(remove_stale_tmps(&dir), 0, "idempotent");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_journal_salvages_intact_job_records() {
        let dir = std::env::temp_dir().join(format!("sl-journal-salvage-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = journal_path(&dir);
        let journal = ServiceJournal {
            jobs: vec![
                record("a", JobState::Completed),
                record("b", JobState::Running),
            ],
        };
        // Tear mid-way through the second job record; footer lost.
        let text = journal.to_json().pretty();
        let cut = text.rfind("\"b\"").unwrap() + 6;
        fs::write(&path, &text[..cut]).unwrap();

        assert!(ServiceJournal::load(&path).is_err(), "strict load rejects");
        let rec = ServiceJournal::load_recovering(&path).unwrap();
        assert_eq!(rec.value.jobs.len(), 1);
        assert_eq!(rec.value.jobs[0].spec.id, "a");
        assert!(rec.warnings[0].contains("salvaged"), "{:?}", rec.warnings);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_journal_falls_back_to_backup_generation() {
        let dir = std::env::temp_dir().join(format!("sl-journal-bak-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = journal_path(&dir);
        let gen1 = ServiceJournal {
            jobs: vec![record("a", JobState::Completed)],
        };
        gen1.save(&path).unwrap();
        let gen2 = ServiceJournal {
            jobs: vec![
                record("a", JobState::Completed),
                record("b", JobState::Running),
            ],
        };
        gen2.save(&path).unwrap();
        // Obliterate the primary beyond salvage (header unreadable).
        fs::write(&path, "\u{0}garbage").unwrap();
        let rec = ServiceJournal::load_recovering(&path).unwrap();
        assert_eq!(rec.value, gen1, "previous generation recovered");
        assert!(rec.warnings[0].contains("backup"), "{:?}", rec.warnings);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_journal_file_is_typed_as_empty() {
        let dir = std::env::temp_dir().join(format!("sl-journal-empty-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = journal_path(&dir);
        fs::write(&path, "").unwrap();
        let err = ServiceJournal::load(&path).unwrap_err();
        assert!(
            matches!(err, SecureLoopError::Artifact(ref a) if a.is_empty()),
            "got {err:?}"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn version_and_kind_are_enforced() {
        let bad = Json::parse(r#"{"version": 99, "kind": "service-journal", "jobs": []}"#).unwrap();
        assert!(ServiceJournal::from_json(&bad)
            .unwrap_err()
            .contains("version 99"));
        let bad = Json::parse(r#"{"version": 1, "kind": "dse-sweep", "jobs": []}"#).unwrap();
        assert!(ServiceJournal::from_json(&bad)
            .unwrap_err()
            .contains("kind"));
    }
}
