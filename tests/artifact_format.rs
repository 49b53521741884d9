//! On-disk format pins for the three persisted artifacts: a sweep
//! checkpoint, a candidate cache and a service journal. Each test
//! rebuilds a small fixed value, seals its pretty-printed JSON the way
//! a durable write does, and compares the bytes with
//! `tests/goldens/format_*.json`. A change to a field name, field
//! order, schema version or the envelope footer fails here.
//!
//! To re-bless after an intentional format change (which also needs a
//! schema version bump):
//!
//! ```sh
//! SECURELOOP_BLESS=1 cargo test --test artifact_format
//! git diff tests/goldens/   # review before committing
//! ```

use std::path::PathBuf;

use secureloop::artifact::*;
use secureloop::service::{JobRecord, JobSpec, JobState, ServiceJournal};
use secureloop::{Algorithm, LayerOutcome, LayerResult, NetworkSchedule, RunSpec, SweepCheckpoint};
use secureloop_authblock::OverheadBreakdown;
use secureloop_json::Json;
use secureloop_loopnest::EnergyBreakdown;
use secureloop_mapper::CandidateCache;

fn assert_matches_golden(file: &str, sealed: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("tests/goldens/{file}"));
    if std::env::var_os("SECURELOOP_BLESS").is_some() {
        std::fs::write(&path, sealed).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path).expect("golden present");
    assert!(
        golden == sealed,
        "{file}: serialised bytes differ from the golden\n--- golden\n{golden}\n--- now\n{sealed}"
    );
}

fn layer(name: &str, latency_cycles: u64, mapping: &str) -> LayerResult {
    LayerResult {
        name: name.to_string(),
        latency_cycles,
        energy_pj: 1250.5,
        extra_bits: 4096,
        data_dram_bits: 65536,
        macs: 1_000_000,
        utilization: 0.75,
        mapping: mapping.parse().expect("mapping text"),
        energy: EnergyBreakdown {
            mac_pj: 500.25,
            rf_pj: 300.0,
            glb_pj: 200.125,
            noc_pj: 50.0,
            dram_pj: 150.0,
            crypto_pj: 50.125,
        },
    }
}

#[test]
fn sweep_checkpoint_format_is_pinned() {
    let schedule = NetworkSchedule {
        network: "AlexNet".to_string(),
        algorithm: Algorithm::CryptOptCross,
        arch_summary: "14x12 PEs, 131 kB GLB".to_string(),
        layers: vec![
            layer(
                "conv1",
                120_000,
                "dram[NMPQCRS]: M8 C16 P7 Q4; glb[NMPQCRS]: M8 P8; sx: Q14; sy: R3; rf: C4 S3",
            ),
            layer(
                "conv2",
                80_000,
                "dram[NMPQCRS]: M2; glb[NMPQCRS]: ; sx: ; sy: ; rf: C2",
            ),
        ],
        outcomes: vec![
            ("conv1".to_string(), LayerOutcome::Scheduled),
            (
                "conv2".to_string(),
                LayerOutcome::Degraded {
                    reason: "search deadline hit".to_string(),
                },
            ),
        ],
        total_latency_cycles: 200_000,
        total_energy_pj: 2501.0,
        overhead: OverheadBreakdown {
            hash_bits: 2048,
            redundant_bits: 1024,
            rehash_bits: 0,
        },
    };
    let mut ckpt = SweepCheckpoint::new("AlexNet", Algorithm::CryptOptCross);
    ckpt.insert("14x12/131kB/Pipelined", schedule);
    ckpt.insert_poisoned("14x12/16kB/Parallel", "panicked: injected \"chaos\"");
    assert_matches_golden("format_checkpoint.json", &seal(&ckpt.to_json().pretty()));
}

#[test]
fn candidate_cache_format_is_pinned() {
    let compact = r#"{"version":3,"kind":"candidate-cache","entries":[{"key":"L[conv]|cfg[s64,k2,seed1,mr]","tier":"sampled","valid_samples":40,"total_samples":64,"mappings":["dram[NMPQCRS]: M2; glb[NMPQCRS]: ; sx: ; sy: ; rf: C2","dram[NMPQCRS]: C2; glb[NMPQCRS]: ; sx: ; sy: ; rf: M2"]}]}"#;
    let cache = CandidateCache::from_json(&Json::parse(compact).unwrap()).unwrap();
    assert_eq!(cache.len(), 1);
    assert_matches_golden("format_cache.json", &seal(&cache.to_json().pretty()));
}

#[test]
fn service_journal_format_is_pinned() {
    let spec = |id: &str, samples: usize| JobSpec {
        id: id.to_string(),
        run: RunSpec {
            workload: Some("alexnet".to_string()),
            algorithm: Algorithm::CryptOptCross,
            samples,
            iterations: 10,
            seed: 7,
            deadline_secs: None,
            scheme: None,
        },
        designs: vec!["14x12/16kB/Pipelined".to_string()],
        fault: None,
    };
    let journal = ServiceJournal {
        jobs: vec![
            JobRecord {
                spec: spec("job-a", 100),
                state: JobState::Completed,
                cause: None,
            },
            JobRecord {
                spec: spec("job-b", 200),
                state: JobState::Failed,
                cause: Some("design 14x12/16kB/Pipelined: out of memory".to_string()),
            },
        ],
    };
    assert_matches_golden("format_journal.json", &seal(&journal.to_json().pretty()));
}
