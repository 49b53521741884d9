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
use std::ops::RangeInclusive;
use std::path::{Path, PathBuf};

use secureloop_artifact::Persistent;
use secureloop_json::Json;

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

impl Persistent for ServiceJournal {
    const KIND: &'static str = "service-journal";
    const NOUN: &'static str = "journal";
    const VERSIONS: RangeInclusive<u64> = JOURNAL_VERSION..=JOURNAL_VERSION;
    const HEADER: &'static [&'static str] = &[];
    const RECORDS: &'static [&'static str] = &["jobs"];

    fn header(&self) -> Vec<Json> {
        Vec::new()
    }

    fn from_header(_: &Json) -> Result<Self, String> {
        Ok(ServiceJournal::default())
    }

    fn write_records(&self, _: &str) -> Vec<Json> {
        self.jobs.iter().map(JobRecord::to_json).collect()
    }

    fn read_record(&mut self, _: &str, record: &Json) -> Result<(), String> {
        self.jobs.push(JobRecord::from_json(record)?);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::RunSpec;
    use crate::scheduler::Algorithm;
    use crate::service::job::{JobSpec, JobState};
    use secureloop_artifact::{self as artifact, ArtifactError, DurabilityPolicy, LoadSource};

    fn save(journal: &ServiceJournal, path: &Path) {
        artifact::save(journal, path, &DurabilityPolicy::default()).unwrap();
    }

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
        save(&journal, &path);
        assert!(!path.with_extension("tmp").exists());
        let rec = artifact::load::<ServiceJournal>(&path).unwrap();
        assert_eq!(rec.source, LoadSource::Primary);
        assert_eq!(rec.value, journal);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_tmps_are_swept_but_real_state_is_kept() {
        let dir = std::env::temp_dir().join(format!("sl-tmps-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = journal_path(&dir);
        save(&ServiceJournal::default(), &path);
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

        let rec = artifact::load::<ServiceJournal>(&path).unwrap();
        assert_eq!(
            rec.source,
            LoadSource::PrimarySalvaged,
            "strict load rejects"
        );
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
        save(&gen1, &path);
        let gen2 = ServiceJournal {
            jobs: vec![
                record("a", JobState::Completed),
                record("b", JobState::Running),
            ],
        };
        save(&gen2, &path);
        // Obliterate the primary beyond salvage (header unreadable).
        fs::write(&path, "\u{0}garbage").unwrap();
        let rec = artifact::load::<ServiceJournal>(&path).unwrap();
        assert_eq!(rec.source, LoadSource::Backup);
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
        let err = artifact::load::<ServiceJournal>(&path).unwrap_err();
        assert!(matches!(err, ArtifactError::Empty { .. }), "got {err:?}");
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
