//! Fuzz-style robustness tests for the on-disk artifacts: random
//! truncations, bit-flips and footer/checksum mutations on a
//! checkpoint, a candidate-cache file, a service journal, and a
//! telemetry trace must never panic the engine. A damaged artifact is
//! either rejected with a typed error, salvaged record-by-record, or
//! recovered from its `.bak` generation (with a [`SweepRun::warnings`]
//! entry) — losing state only ever costs recomputation.
//!
//! The mutations are driven by a fixed-seed xorshift generator, so a
//! failure reproduces deterministically.

use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

use secureloop::artifact::{self, Integrity};
use secureloop::checkpoint::SweepCheckpoint;
use secureloop::dse::{evaluate_designs_sweep, SweepOptions, SweepRun};
use secureloop::service::{JobRecord, JobSpec, JobState, ServiceJournal};
use secureloop::{Algorithm, AnnealingConfig, RunSpec};
use secureloop_arch::Architecture;
use secureloop_crypto::{CryptoConfig, EngineClass};
use secureloop_json::Json;
use secureloop_mapper::{CandidateCache, SearchConfig};
use secureloop_workload::zoo;

// The trace test installs a process-global telemetry sink; serialise
// so concurrent sweeps in this binary don't interleave into it.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// xorshift64* — deterministic, dependency-free mutation driver.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Random truncation, bit-flip, or both; may also empty the file.
fn mutate(pristine: &[u8], rng: &mut Rng) -> Vec<u8> {
    let mut bytes = pristine.to_vec();
    match rng.below(4) {
        0 => {
            bytes.truncate(rng.below(bytes.len() + 1));
        }
        1 => {
            let i = rng.below(bytes.len());
            bytes[i] ^= 1 << rng.below(8);
        }
        2 => {
            bytes.truncate(1 + rng.below(bytes.len()));
            let i = rng.below(bytes.len());
            bytes[i] ^= 1 << rng.below(8);
        }
        _ => {
            // A burst of flips, the kind a torn page leaves behind.
            for _ in 0..8 {
                let i = rng.below(bytes.len());
                bytes[i] ^= 1 << rng.below(8);
            }
        }
    }
    bytes
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn designs(n: usize) -> Vec<Architecture> {
    (0..n)
        .map(|i| {
            Architecture::eyeriss_base()
                .with_glb_kb(32 + i as u64)
                .with_crypto(CryptoConfig::new(EngineClass::Parallel, 3))
                .with_name(format!("fuzz-{i:02}"))
        })
        .collect()
}

fn sweep(designs: &[Architecture], opts: &SweepOptions) -> SweepRun {
    evaluate_designs_sweep(
        &zoo::mlp(2, 64),
        designs,
        Algorithm::CryptOptSingle,
        &SearchConfig::quick(),
        &AnnealingConfig::quick(),
        opts,
    )
    .expect("a damaged artifact must degrade, not error")
}

#[test]
fn corrupted_checkpoints_never_panic_the_resume() {
    let _guard = serial();
    let dir = tmp_dir("secureloop-fuzz-checkpoint");
    let ckpt = dir.join("sweep.json");
    let _ = std::fs::remove_file(&ckpt);
    let all = designs(3);

    let opts = SweepOptions::new().with_cache(false).with_checkpoint(&ckpt);
    let first = sweep(&all, &opts);
    assert_eq!(first.evaluated, 3);
    let pristine = std::fs::read(&ckpt).expect("checkpoint written");
    assert!(!pristine.is_empty());

    let mut rng = Rng(0x5ecu64 << 32 | 0x1007);
    let resume_opts = opts.clone().with_resume(true);
    for case in 0..48 {
        let mutated = mutate(&pristine, &mut rng);
        std::fs::write(&ckpt, &mutated).unwrap();
        let run = sweep(&all, &resume_opts);
        // Whatever the damage did — unparseable (cold start with a
        // warning), mismatched (silently ignored), or still loadable —
        // every design point must be accounted for.
        assert_eq!(
            run.evaluated + run.reused,
            3,
            "case {case}: evaluated {} reused {} warnings {:?}",
            run.evaluated,
            run.reused,
            run.warnings
        );
        for w in &run.warnings {
            assert!(
                w.contains("checkpoint"),
                "case {case}: unexpected warning {w:?}"
            );
        }
    }

    // The resumed runs rewrite the checkpoint; it must be valid again.
    std::fs::write(&ckpt, &pristine).unwrap();
    let healed = sweep(&all, &resume_opts);
    assert_eq!(healed.reused, 3);
}

#[test]
fn corrupted_candidate_caches_never_panic_the_sweep() {
    let _guard = serial();
    let dir = tmp_dir("secureloop-fuzz-cache");
    let cache = dir.join("sweep.cache.json");
    let _ = std::fs::remove_file(&cache);
    let all = designs(3);

    let opts = SweepOptions::new().with_cache(true).with_cache_path(&cache);
    let first = sweep(&all, &opts);
    assert_eq!(first.evaluated, 3);
    let pristine = std::fs::read(&cache).expect("cache written");
    assert!(!pristine.is_empty());

    let mut rng = Rng(0xcac4_e5ee_d000_0001);
    for case in 0..48 {
        let mutated = mutate(&pristine, &mut rng);
        std::fs::write(&cache, &mutated).unwrap();
        let run = sweep(&all, &opts);
        assert_eq!(run.evaluated, 3, "case {case}: warnings {:?}", run.warnings);
        for w in &run.warnings {
            assert!(w.contains("cache"), "case {case}: unexpected warning {w:?}");
        }
    }
}

#[test]
fn corrupted_traces_fail_parsing_without_panicking() {
    let _guard = serial();
    let dir = tmp_dir("secureloop-fuzz-trace");
    let trace = dir.join("run.trace.jsonl");
    let _ = std::fs::remove_file(&trace);

    // Produce a real trace: a small sweep with a JSON-Lines sink
    // installed, exactly as `--trace-out` wires it.
    secureloop_telemetry::reset();
    let sink = secureloop_telemetry::JsonLinesSink::create(trace.to_str().unwrap())
        .expect("trace file created");
    secureloop_telemetry::install_sink(Box::new(sink));
    let _ = sweep(&designs(2), &SweepOptions::new().with_cache(false));
    secureloop_telemetry::flush_sink();
    drop(secureloop_telemetry::take_sink());

    let pristine = std::fs::read_to_string(&trace).expect("trace written");
    let lines: Vec<&str> = pristine.lines().filter(|l| !l.trim().is_empty()).collect();
    assert!(!lines.is_empty(), "the sweep emitted trace events");
    for line in &lines {
        Json::parse(line).expect("a pristine trace line parses");
    }

    // Any consumer of a damaged trace sees parse *errors*, not panics,
    // on the mangled lines — and a fresh sink truncates the damage.
    let mut rng = Rng(0x7ace_0000_0000_0003);
    for _case in 0..48 {
        let mutated = mutate(pristine.as_bytes(), &mut rng);
        let text = String::from_utf8_lossy(&mutated);
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            let _ = Json::parse(line); // Ok or Err — never a panic.
        }
    }

    std::fs::write(&trace, b"{torn line").unwrap();
    let sink = secureloop_telemetry::JsonLinesSink::create(trace.to_str().unwrap())
        .expect("re-creating the sink truncates the damaged trace");
    drop(sink);
    assert_eq!(std::fs::read(&trace).unwrap(), b"");
}

fn journal_fixture() -> ServiceJournal {
    let record = |id: &str, state: JobState| JobRecord {
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
    };
    ServiceJournal {
        jobs: vec![
            record("fuzz-a", JobState::Completed),
            record("fuzz-b", JobState::Running),
            record("fuzz-c", JobState::Queued),
        ],
    }
}

#[test]
fn mutated_journals_salvage_or_reject_typed_never_panic() {
    let dir = tmp_dir("secureloop-fuzz-journal");
    let path = dir.join("service.json");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(artifact::backup_path(&path));

    let journal = journal_fixture();
    journal.save(&path).unwrap();
    let pristine = std::fs::read(&path).unwrap();

    let mut rng = Rng(0x10a1_0000_0000_0042);
    for case in 0..64 {
        let mutated = mutate(&pristine, &mut rng);
        std::fs::write(&path, &mutated).unwrap();
        match ServiceJournal::load_recovering(&path) {
            Ok(rec) => {
                // Salvage never *invents* a job: every recovered record
                // carries an original id. (A record whose damaged field
                // still parses leniently may fall back to a spec
                // default — indistinguishable from an old journal that
                // omitted the optional field — so full equality is only
                // guaranteed for untouched records.)
                for got in &rec.value.jobs {
                    assert!(
                        journal.jobs.iter().any(|j| j.spec.id == got.spec.id),
                        "case {case}: salvage fabricated a record: {got:?}"
                    );
                }
            }
            Err(e) => {
                // Typed rejection: the error names the file.
                let msg = e.to_string();
                assert!(
                    msg.contains("service.json"),
                    "case {case}: error must name the path: {msg}"
                );
            }
        }
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn footer_and_checksum_mutations_are_salvaged_across_families() {
    let dir = tmp_dir("secureloop-fuzz-footer");

    // One representative file per artifact family, written through the
    // durable path so each carries a real envelope footer.
    let ckpt_path = dir.join("sweep.ckpt.json");
    let cache_path = dir.join("sweep.cache.json");
    let journal_path = dir.join("service.json");
    for p in [&ckpt_path, &cache_path, &journal_path] {
        let _ = std::fs::remove_file(p);
        let _ = std::fs::remove_file(artifact::backup_path(p));
    }
    SweepCheckpoint::new("mlp-2x64", Algorithm::CryptOptSingle)
        .save(&ckpt_path)
        .unwrap();
    CandidateCache::new().save(&cache_path).unwrap();
    journal_fixture().save(&journal_path).unwrap();

    let mut rng = Rng(0xf007_e200_0000_0001);
    for (path, family) in [
        (&ckpt_path, "checkpoint"),
        (&cache_path, "cache"),
        (&journal_path, "journal"),
    ] {
        let pristine = std::fs::read_to_string(path).unwrap();
        let footer_at = pristine
            .rfind("//#secureloop-artifact")
            .expect("durable writes leave a footer");
        for case in 0..32 {
            // Mutate only the footer region: the payload stays intact,
            // so a checksum/length/marker mutation must either still
            // verify, reject with a typed error, or salvage the intact
            // records — never panic, never lose the payload silently.
            let mut bytes = pristine.clone().into_bytes();
            let i = footer_at + rng.below(bytes.len() - footer_at);
            if rng.below(2) == 0 {
                bytes[i] ^= 1 << rng.below(8);
            } else {
                bytes.truncate(i.max(footer_at + 1));
            }
            std::fs::write(path, &bytes).unwrap();

            match family {
                "checkpoint" => {
                    if let Ok(rec) = SweepCheckpoint::load_recovering(path) {
                        assert!(
                            rec.value.matches("mlp-2x64", Algorithm::CryptOptSingle),
                            "{family} case {case}: salvage crossed workloads"
                        );
                    }
                }
                "cache" => {
                    let _ = CandidateCache::load_recovering(path);
                }
                _ => {
                    if let Ok(rec) = ServiceJournal::load_recovering(path) {
                        for got in &rec.value.jobs {
                            assert!(
                                journal_fixture().jobs.contains(got),
                                "{family} case {case}: fabricated record {got:?}"
                            );
                        }
                    }
                }
            }
        }
        std::fs::write(path, pristine.as_bytes()).unwrap();
    }
}

#[test]
fn committed_bench_goldens_are_accepted_as_legacy() {
    // The committed BENCH_*.json goldens predate the envelope footer;
    // the bench baseline readers must keep accepting them verbatim
    // (Integrity::Legacy) with the payload untouched.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    for name in ["BENCH_sweep.json", "BENCH_guided.json"] {
        let path = root.join(name);
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!("golden {name} must stay committed: {e}");
        });
        let (payload, integrity) = artifact::open(&text);
        assert_eq!(integrity, Integrity::Legacy, "{name} must stay footer-less");
        assert_eq!(payload, text, "{name} payload must be the whole file");
        Json::parse(payload).unwrap_or_else(|e| panic!("golden {name} must parse: {e:?}"));
    }
}
