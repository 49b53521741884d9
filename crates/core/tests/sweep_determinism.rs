//! The sweep engine's determinism contract: a DSE sweep returns a
//! byte-identical [`SweepRun`] for every worker count and for every
//! cache state (off, cold, warm). Workers pull from an atomic queue but
//! merge into fixed per-design slots, and a cache hit returns exactly
//! what the search it memoised computed, so nothing observable may vary.
//! The same holds for the AuthBlock overhead memo a sweep shares across
//! its designs: a sweep reproduces independent per-design schedules.
//! The sweep's checkpoint is its one store of finished schedules, so a
//! sweep returns the same schedules with or without a checkpoint file,
//! and a resume returns what an uninterrupted sweep would.

use secureloop::artifact::{self, DurabilityPolicy};
use secureloop::checkpoint::{schedule_to_json, SweepCheckpoint};
use secureloop::dse::{
    evaluate_designs_sweep, fig16_design_space, pareto_front, DseResult, SweepOptions, SweepRun,
};
use secureloop::{Algorithm, AnnealingConfig, Scheduler};
use secureloop_arch::Architecture;
use secureloop_energy::AreaModel;
use secureloop_mapper::SearchConfig;
use secureloop_workload::zoo;

/// A bit-exact transcript of everything a caller can observe in a
/// sweep's results: labels, cycle counts, the IEEE-754 bit patterns of
/// every energy/area figure, and the per-layer outcome list.
fn transcript(results: &[secureloop::dse::DseResult]) -> String {
    let mut out = String::new();
    for r in results {
        out.push_str(&format!(
            "{}|{}|{:016x}|{:016x}|{}|{:?}\n",
            r.label,
            r.schedule.total_latency_cycles,
            r.schedule.total_energy_pj.to_bits(),
            r.area_mm2().to_bits(),
            r.schedule.layers.len(),
            r.schedule
                .outcomes
                .iter()
                .map(|(n, o)| format!("{n}:{o:?}"))
                .collect::<Vec<_>>(),
        ));
    }
    out
}

#[test]
fn sweep_is_byte_identical_across_workers_and_cache_states() {
    let net = zoo::alexnet_conv();
    // A slice of the Fig. 16 space plus a renamed clone of the first
    // design: the clone shares its search-space key, so with the cache
    // on it is answered from memory — and must still be bit-identical
    // to the cache-off evaluation.
    let mut designs: Vec<Architecture> = fig16_design_space().into_iter().take(3).collect();
    designs.push(designs[0].clone().with_name("clone-of-first"));
    let search = SearchConfig::quick();
    let annealing = AnnealingConfig::quick();

    let mut transcripts: Vec<(String, String, Vec<usize>)> = Vec::new();
    for use_cache in [false, true] {
        for workers in [1usize, 2, 4] {
            let opts = SweepOptions::new()
                .with_cache(use_cache)
                .with_workers(workers);
            let run = evaluate_designs_sweep(
                &net,
                &designs,
                Algorithm::CryptOptSingle,
                &search,
                &annealing,
                &opts,
            )
            .expect("sweep succeeds");
            assert!(run.skipped.is_empty(), "no design point fails");
            assert!(run.warnings.is_empty(), "no warnings: {:?}", run.warnings);
            assert_eq!(run.evaluated, designs.len());
            if use_cache {
                // 4 designs x 5 distinct AlexNet layer shapes consult
                // the cache. All four share the 14x12 PE array (the
                // clone shares the first design's key), so each shape
                // is one group search: 5 misses, and every other
                // request hits, for any worker count — a request for a
                // key a running group search has claimed waits for it.
                assert_eq!(
                    (run.cache_hits, run.cache_misses),
                    (15, 5),
                    "one group search per layer shape ({workers} workers)"
                );
            } else {
                assert_eq!(run.cache_hits + run.cache_misses, 0);
            }
            transcripts.push((
                format!("cache={use_cache} workers={workers}"),
                transcript(&run.results),
                pareto_front(&run.results),
            ));
        }
    }

    let (baseline_cfg, baseline, baseline_front) = &transcripts[0];
    assert!(!baseline.is_empty());
    for (cfg, t, front) in &transcripts[1..] {
        assert_eq!(
            t, baseline,
            "results diverge between [{baseline_cfg}] and [{cfg}]"
        );
        assert_eq!(
            front, baseline_front,
            "pareto front diverges between [{baseline_cfg}] and [{cfg}]"
        );
    }
}

#[test]
fn shared_overhead_memo_matches_independent_schedules() {
    // Crypt-Opt-Cross anneals every segment, so it consults the sweep's
    // AuthBlock overhead memo most; the renamed clone repeats every
    // tensor problem of the first design and is answered from it.
    let net = zoo::alexnet_conv();
    let mut designs: Vec<Architecture> = fig16_design_space().into_iter().take(3).collect();
    designs.push(designs[0].clone().with_name("clone-of-first"));
    let search = SearchConfig::quick();
    let annealing = AnnealingConfig::quick();
    let algorithm = Algorithm::CryptOptCross;

    // Each design on its own scheduler, so each with a private memo.
    let independent: Vec<DseResult> = designs
        .iter()
        .map(|arch| DseResult {
            label: arch.name().to_string(),
            area: AreaModel::of(arch),
            schedule: Scheduler::new(arch.clone())
                .with_search(search)
                .with_annealing(annealing)
                .schedule(&net, algorithm)
                .expect("design schedules"),
        })
        .collect();
    let expected = transcript(&independent);
    assert!(!expected.is_empty());

    for workers in [1usize, 2, 4] {
        let opts = SweepOptions::new().with_cache(false).with_workers(workers);
        let run = evaluate_designs_sweep(&net, &designs, algorithm, &search, &annealing, &opts)
            .expect("sweep succeeds");
        assert_eq!(run.evaluated, designs.len());
        assert_eq!(
            transcript(&run.results),
            expected,
            "{workers}-worker sweep diverges from independent schedules"
        );
    }
}

#[test]
fn cold_random_sweep_counts_the_same_hits_for_any_worker_count() {
    // Three designs on each of two PE arrays: per AlexNet shape, one
    // group search per PE array misses and the other four requests hit,
    // however the workers interleave.
    let net = zoo::alexnet_conv();
    let space = fig16_design_space();
    let designs: Vec<Architecture> = space[..3].iter().chain(&space[6..9]).cloned().collect();
    let search = SearchConfig::quick();
    let annealing = AnnealingConfig::quick();
    let mut seen: Vec<(usize, String, (u64, u64))> = Vec::new();
    for workers in [1usize, 4] {
        let opts = SweepOptions::new().with_workers(workers);
        let run = evaluate_designs_sweep(
            &net,
            &designs,
            Algorithm::CryptOptSingle,
            &search,
            &annealing,
            &opts,
        )
        .expect("sweep succeeds");
        assert_eq!(run.evaluated, designs.len());
        seen.push((
            workers,
            transcript(&run.results),
            (run.cache_hits, run.cache_misses),
        ));
    }
    for (workers, t, counts) in &seen {
        assert_eq!(*counts, (20, 10), "{workers} worker(s)");
        assert_eq!(t, &seen[0].1, "{workers}-worker schedules diverge");
    }
}

#[test]
fn checkpoint_bytes_do_not_depend_on_the_worker_count() {
    // Three workers finish the design points in whatever order the
    // threads run; the checkpoint still lists them in design order.
    let net = zoo::mlp(4, 4096);
    let designs: Vec<Architecture> = fig16_design_space().into_iter().take(6).collect();
    let dir = std::env::temp_dir().join(format!("secureloop-ckpt-order-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let bytes = |workers: usize| {
        let path = dir.join(format!("{workers}-workers.ckpt.json"));
        let _ = std::fs::remove_file(&path);
        let opts = SweepOptions::new()
            .with_cache(false)
            .with_workers(workers)
            .with_checkpoint(&path);
        let run = evaluate_designs_sweep(
            &net,
            &designs,
            Algorithm::CryptOptCross,
            &SearchConfig::quick(),
            &AnnealingConfig::quick(),
            &opts,
        )
        .expect("sweep succeeds");
        assert_eq!(run.evaluated, designs.len());
        std::fs::read(&path).expect("checkpoint written")
    };
    assert!(
        bytes(1) == bytes(3),
        "a 3-worker sweep must write the 1-worker checkpoint byte for byte"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `(label, schedule JSON)` per result, in result order.
fn schedules(run: &SweepRun) -> Vec<(String, String)> {
    run.results
        .iter()
        .map(|r| (r.label.clone(), schedule_to_json(&r.schedule).pretty()))
        .collect()
}

#[test]
fn checkpointed_and_plain_sweeps_return_the_same_schedules() {
    let net = zoo::alexnet_conv();
    // A label may recur: each occurrence still gets its own result.
    let mut designs: Vec<Architecture> = fig16_design_space().into_iter().take(3).collect();
    designs.push(designs[0].clone());
    let dir = std::env::temp_dir().join(format!("secureloop-ckpt-store-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("sweep.ckpt.json");
    let sweep = |opts: SweepOptions| {
        evaluate_designs_sweep(
            &net,
            &designs,
            Algorithm::CryptOptCross,
            &SearchConfig::quick(),
            &AnnealingConfig::quick(),
            &opts.with_workers(2),
        )
        .expect("sweep succeeds")
    };
    let plain = schedules(&sweep(SweepOptions::new()));
    let checkpointed = schedules(&sweep(SweepOptions::new().with_checkpoint(&path)));
    let labels: Vec<&str> = designs.iter().map(Architecture::name).collect();
    assert_eq!(
        plain.iter().map(|(l, _)| l.as_str()).collect::<Vec<_>>(),
        labels,
        "results in design order"
    );
    assert_eq!(plain, checkpointed);
    assert_eq!(
        plain[0].1, plain[3].1,
        "a repeated label repeats its schedule"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_resume_with_restored_and_quarantined_designs_matches_an_uninterrupted_sweep() {
    let net = zoo::alexnet_conv();
    let designs: Vec<Architecture> = fig16_design_space().into_iter().take(5).collect();
    let dir = std::env::temp_dir().join(format!("secureloop-ckpt-resume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("sweep.ckpt.json");
    let sweep = |opts: SweepOptions| {
        evaluate_designs_sweep(
            &net,
            &designs,
            Algorithm::CryptOptSingle,
            &SearchConfig::quick(),
            &AnnealingConfig::quick(),
            &opts.with_checkpoint(&path).with_cache(false),
        )
        .expect("sweep succeeds")
    };
    let uninterrupted = sweep(SweepOptions::new());
    assert_eq!(uninterrupted.evaluated, designs.len());

    // Keep designs 0 and 3 finished, quarantine design 2, and leave
    // designs 1 and 4 to be evaluated again.
    let saved = artifact::load::<SweepCheckpoint>(&path).unwrap().value;
    let mut partial = SweepCheckpoint::new(saved.workload.clone(), saved.algorithm);
    for (label, schedule) in saved.entries {
        if label == designs[0].name() || label == designs[3].name() {
            partial.insert(label, schedule);
        }
    }
    partial.insert_poisoned(designs[2].name(), "stalled");
    partial
        .save_with(&path, &DurabilityPolicy::default())
        .unwrap();

    let resumed = sweep(SweepOptions::new().with_resume(true));
    assert_eq!((resumed.reused, resumed.evaluated), (2, 2));
    assert_eq!(
        resumed.poisoned,
        vec![(designs[2].name().to_string(), "stalled".to_string())]
    );
    let mut expected = schedules(&uninterrupted);
    expected.remove(2);
    assert_eq!(schedules(&resumed), expected);
    let _ = std::fs::remove_dir_all(&dir);
}
