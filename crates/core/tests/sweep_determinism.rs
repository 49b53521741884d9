//! The sweep engine's determinism contract: a DSE sweep returns a
//! byte-identical [`SweepRun`] for every worker count and for every
//! cache state (off, cold, warm). Workers pull from an atomic queue but
//! merge into fixed per-design slots, and a cache hit returns exactly
//! what the search it memoised computed, so nothing observable may vary.
//! The same holds for the AuthBlock overhead memo a sweep shares across
//! its designs: a sweep reproduces independent per-design schedules.

use secureloop::dse::{
    evaluate_designs_sweep, fig16_design_space, pareto_front, DseResult, SweepOptions,
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
                // the cache. Hit counts are timing-dependent under
                // concurrency (two workers may both miss the same key
                // and redundantly compute identical entries), so only
                // the sequential run pins them exactly.
                assert_eq!(run.cache_hits + run.cache_misses, 20);
                if workers == 1 {
                    assert_eq!(
                        run.cache_hits, 5,
                        "the renamed clone must be served from the cache"
                    );
                }
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
