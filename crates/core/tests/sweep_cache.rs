//! The on-disk candidate cache across interrupted and resumed sweeps:
//! warm resumes must never recompute finished work, and a damaged cache
//! file must degrade to a cold start with a warning — never an error.

use secureloop::artifact::{self, LoadSource};
use secureloop::dse::{evaluate_designs_sweep, fig16_design_space, SweepOptions};
use secureloop::{Algorithm, AnnealingConfig};
use secureloop_arch::Architecture;
use secureloop_mapper::{CandidateCache, SearchConfig};
use secureloop_workload::zoo;
use std::path::PathBuf;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn designs(n: usize) -> Vec<Architecture> {
    fig16_design_space().into_iter().take(n).collect()
}

fn sweep(designs: &[Architecture], opts: &SweepOptions) -> secureloop::dse::SweepRun {
    evaluate_designs_sweep(
        &zoo::alexnet_conv(),
        designs,
        Algorithm::CryptOptSingle,
        &SearchConfig::quick(),
        &AnnealingConfig::quick(),
        opts,
    )
    .expect("sweep succeeds")
}

#[test]
fn resume_with_warm_cache_never_reevaluates_completed_work() {
    let dir = tmp_dir("secureloop-sweep-warm-resume");
    let ckpt = dir.join("sweep.json");
    let cache = dir.join("sweep.cache.json");
    let _ = std::fs::remove_file(&ckpt);
    let _ = std::fs::remove_file(&cache);
    let all = designs(3);

    // "Interrupted" run: two of three design points finish; both the
    // checkpoint and the candidate cache land on disk.
    // The two designs share the 14x12 PE array, so each of the 5 layer
    // searches of the first also covers the second, whose 5 then hit.
    let partial = sweep(&all[..2], &SweepOptions::new().with_checkpoint(&ckpt));
    assert_eq!(partial.evaluated, 2);
    assert_eq!(
        (partial.cache_hits, partial.cache_misses),
        (5, 5),
        "the cold cache gives only what this sweep's group searches put in"
    );
    assert!(ckpt.exists());
    assert!(cache.exists(), "cache persisted next to the checkpoint");

    // Resume: the two finished design points come back from the
    // checkpoint without touching the mapper at all — zero lookups —
    // and only the third design runs (its searches miss: its key is
    // new to the cache).
    let resumed = sweep(
        &all,
        &SweepOptions::new().with_checkpoint(&ckpt).with_resume(true),
    );
    assert_eq!(resumed.reused, 2);
    assert_eq!(resumed.evaluated, 1);
    assert_eq!(resumed.results.len(), 3);
    assert_eq!(
        resumed.cache_hits, 0,
        "checkpointed designs must not even consult the cache"
    );

    // A fully warm re-run of the whole space with the checkpoint gone:
    // every design re-schedules, but every per-layer search is answered
    // from the on-disk cache — AlexNet's 5 shapes x 3 designs, all hits.
    let _ = std::fs::remove_file(&ckpt);
    let warm = sweep(
        &all,
        &SweepOptions::new().with_checkpoint(&ckpt).with_resume(true),
    );
    assert_eq!(warm.reused, 0);
    assert_eq!(warm.evaluated, 3);
    assert_eq!(warm.cache_hits, 15, "all searches served from disk");
    assert_eq!(warm.cache_misses, 0);
    // ...and bit-identical to the interrupted run's results.
    for (a, b) in warm.results[..2].iter().zip(&partial.results) {
        assert_eq!(a.label, b.label);
        assert_eq!(
            a.schedule.total_latency_cycles,
            b.schedule.total_latency_cycles
        );
        assert_eq!(
            a.schedule.total_energy_pj.to_bits(),
            b.schedule.total_energy_pj.to_bits()
        );
    }
    let _ = std::fs::remove_file(&ckpt);
    let _ = std::fs::remove_file(&cache);
}

#[test]
fn corrupted_cache_file_degrades_to_cold_with_a_warning() {
    let dir = tmp_dir("secureloop-sweep-bad-cache");
    let cache = dir.join("bad.cache.json");
    let bak = secureloop::artifact::backup_path(&cache);
    let all = designs(1);

    for garbage in [
        "{torn wri",                                                    // invalid JSON
        r#"{"version": 99, "kind": "candidate-cache", "entries": []}"#, // future version
        r#"{"version": 1, "kind": "sweep-checkpoint"}"#,                // wrong kind
    ] {
        // No backup generation on disk: recovery has nothing to fall
        // back to and must degrade to a cold start. (Each sweep below
        // rewrites a valid cache, which the next write rotates to
        // `.bak` — exactly the last-known-good the backup test at the
        // end relies on.)
        let _ = std::fs::remove_file(&bak);
        std::fs::write(&cache, garbage).unwrap();
        let run = sweep(&all, &SweepOptions::new().with_cache_path(&cache));
        assert_eq!(run.results.len(), 1, "sweep must still complete");
        assert_eq!(run.cache_hits, 0, "nothing salvaged from garbage");
        assert!(
            run.warnings
                .iter()
                .any(|w| w.contains("ignoring candidate cache")),
            "warning must name the ignored cache: {:?}",
            run.warnings
        );
        // The sweep rewrites a valid cache over the damaged one.
        assert!(matches!(
            artifact::load::<CandidateCache>(&cache),
            Ok(rec) if rec.source == LoadSource::Primary
        ));
    }

    // A truncated (torn mid-write) previously-valid file behaves the
    // same way.
    let _ = std::fs::remove_file(&bak);
    let valid = std::fs::read_to_string(&cache).unwrap();
    std::fs::write(&cache, &valid[..valid.len() / 2]).unwrap();
    let run = sweep(&all, &SweepOptions::new().with_cache_path(&cache));
    assert_eq!(run.results.len(), 1);
    assert!(!run.warnings.is_empty());

    // One more clean sweep: its load hits the valid primary and its
    // final rewrite rotates that primary out, so *both* generations now
    // hold a full cache.
    let run = sweep(&all, &SweepOptions::new().with_cache_path(&cache));
    assert_eq!(run.cache_hits, 5, "rewritten cache is warm");
    assert!(bak.exists(), "the durable rewrite keeps a .bak generation");

    // With a last-known-good `.bak` on disk, garbage in the primary is
    // *recovered*, not discarded: the warm searches all hit and the
    // warning names the backup.
    std::fs::write(&cache, "{torn wri").unwrap();
    let run = sweep(&all, &SweepOptions::new().with_cache_path(&cache));
    assert_eq!(run.results.len(), 1);
    assert!(
        run.warnings.iter().any(|w| w.contains("backup")),
        "recovery must credit the backup generation: {:?}",
        run.warnings
    );
    assert_eq!(run.cache_hits, 5, "recovered cache answers every search");
    let _ = std::fs::remove_file(&cache);
    let _ = std::fs::remove_file(&bak);
}
