//! The `sweep` gate: the incremental DSE sweep engine's candidate cache.
//!
//! Runs the Fig. 16 design space on AlexNet three times — cache
//! disabled, cache enabled from cold (populating an on-disk cache), and
//! cache enabled warm (from that cache, the `--resume` steady state) —
//! and writes `BENCH_sweep.json` with wall times, mapper sample counts
//! and hit rates.
//!
//! All 18 Fig. 16 designs have pairwise-distinct search-space keys, but
//! the six that share a PE array draw the same random stream. So the
//! cold cache-enabled pass runs one group search per (layer, PE array),
//! which fills the cache for all six: 15 misses and 75 hits, for any
//! worker count, with as many `mapper_samples` as the cache-disabled
//! pass (each draw is still priced per design). The reuse across runs
//! shows up in the *warm* pass, which `--check` compares against the
//! cache-disabled pass.
//!
//! The cache file the cold pass writes is loaded back, and its entry
//! count and charged bytes (`cold_with_cache.cache_entries` and
//! `cache_bytes`, see `CandidateCache::approx_bytes`) are recorded, so
//! `--diff-against` pins the cache's footprint exactly.
//!
//! The warm pass must not search at all: `--check` requires it to
//! draw no mapping (`mapper_draws`, the `mapper.draws` counter, and
//! `mapper_samples` both 0) and to answer all 90 (layer, design)
//! requests from the cache (90 hits, 0 misses). Those counts are exact
//! on any host, unlike the speedup floor, which depends on how much of
//! the cold pass the mapper is.
//!
//! A fourth pass runs the cache-disabled sweep on one worker and records
//! the AuthBlock optimiser's work counts (optimiser runs, congruence
//! calls, overhead-memo misses) and the mapper's valid and
//! eval-error draws. On one worker they are deterministic, so
//! `--diff-against` gates them exactly; the mapper pair pins the random
//! draw stream itself, not just its length.

use std::time::Instant;

use secureloop::dse::{evaluate_designs_sweep, fig16_design_space, SweepOptions, SweepRun};
use secureloop::{artifact, Algorithm, AnnealingConfig};
use secureloop_json::Json;
use secureloop_mapper::{CandidateCache, SearchConfig, SearchMode};
use secureloop_telemetry as telemetry;
use secureloop_workload::zoo;

use super::GateRun;

/// Mapper samples per search.
const SAMPLES: usize = 4096;
/// Sweep worker threads.
const WORKERS: usize = 4;
/// `--check` floor on the warm-cache speedup over the cache-disabled pass.
const MIN_SPEEDUP: f64 = 1.3;
/// (layer, design) requests per sweep: AlexNet's five layers on the 18
/// Fig. 16 designs. The warm pass answers every one from the cache.
const REQUESTS: u64 = 5 * 18;

/// Work counters the single-worker pass records, by telemetry name.
const WORK_COUNTS: [&str; 5] = [
    "authblock.optimize_runs",
    "authblock.congruence_calls",
    "scheduler.overhead_cache_misses",
    "mapper.samples_valid",
    "mapper.reject.eval_error",
];

struct Phase {
    wall_ms: f64,
    mapper_draws: u64,
    mapper_samples: u64,
    work: [u64; 5],
    run: SweepRun,
}

fn run_phase(label: &str, opts: SweepOptions) -> Phase {
    let search = SearchConfig {
        samples: SAMPLES,
        top_k: 4,
        seed: 0x5ec0_4e10,
        threads: 1,
        deadline: None,
        mode: SearchMode::Random,
    };
    telemetry::reset();
    let start = Instant::now();
    let run = evaluate_designs_sweep(
        &zoo::alexnet_conv(),
        &fig16_design_space(),
        Algorithm::CryptOptSingle,
        &search,
        &AnnealingConfig::quick(),
        &opts,
    )
    .expect("sweep succeeds");
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    for w in &run.warnings {
        eprintln!("warning ({label}): {w}");
    }
    let snap = telemetry::snapshot();
    let phase = Phase {
        wall_ms,
        mapper_draws: snap.counter("mapper.draws"),
        mapper_samples: snap.counter("mapper.samples_evaluated"),
        work: WORK_COUNTS.map(|name| snap.counter(name)),
        run,
    };
    println!(
        "{label:<16} {:>9.1} ms   {:>9} samples   {:>4} hits / {:<4} misses ({:.0}% hit rate)",
        phase.wall_ms,
        phase.mapper_samples,
        phase.run.cache_hits,
        phase.run.cache_misses,
        phase.run.cache_hit_rate() * 100.0
    );
    phase
}

fn phase_json(p: &Phase) -> Json {
    Json::obj()
        .field("wall_ms", p.wall_ms)
        .field("mapper_samples", p.mapper_samples)
        .field("mapper_draws", p.mapper_draws)
        .field("cache_hits", p.run.cache_hits)
        .field("cache_misses", p.run.cache_misses)
        .field("hit_rate", p.run.cache_hit_rate())
}

fn work_json(p: &Phase) -> Json {
    WORK_COUNTS
        .iter()
        .zip(p.work)
        .fold(Json::obj().field("wall_ms", p.wall_ms), |j, (name, n)| {
            j.field(name, n)
        })
}

pub(super) fn run() -> GateRun {
    let cache_file = std::env::temp_dir().join("secureloop-sweep-bench.cache.json");
    let _ = std::fs::remove_file(&cache_file);
    println!(
        "sweep gate: Fig. 16 space (18 designs) on AlexNet, {SAMPLES} samples/search, \
         {WORKERS} worker(s)\n"
    );
    let pooled = || SweepOptions::new().with_workers(WORKERS);
    let disabled = run_phase("cache-disabled", pooled().with_cache(false));
    let cold = run_phase("cache-cold", pooled().with_cache_path(&cache_file));
    let written = artifact::load::<CandidateCache>(&cache_file)
        .expect("the cold pass wrote its cache")
        .value;
    let (cache_entries, cache_bytes) = (written.len() as u64, written.approx_bytes() as u64);
    println!(
        "{:<16} {cache_entries} entries, {cache_bytes} bytes charged",
        "cache file"
    );
    let warm = run_phase("cache-warm", pooled().with_cache_path(&cache_file));
    let _ = std::fs::remove_file(&cache_file);
    // Concurrent workers may both compute one memo key, so only a
    // single-worker pass has exact work counts.
    let counted = run_phase(
        "one-worker",
        SweepOptions::new().with_cache(false).with_workers(1),
    );
    for (name, n) in WORK_COUNTS.iter().zip(counted.work) {
        println!("{:<16} {name} = {n}", "");
    }

    // The cached and the one-worker sweeps must reproduce the baseline
    // bit for bit; a perf harness that silently changed the answers
    // would be worse than none.
    for other in [&warm, &counted] {
        assert_eq!(other.run.results.len(), disabled.run.results.len());
        for (a, b) in other.run.results.iter().zip(&disabled.run.results) {
            assert_eq!(a.label, b.label, "design order must match");
            assert_eq!(
                a.schedule.total_latency_cycles, b.schedule.total_latency_cycles,
                "{}: sweep diverged from baseline",
                a.label
            );
        }
    }

    let speedup = disabled.wall_ms / warm.wall_ms.max(1e-9);
    println!("\nwarm speedup vs cache-disabled: {speedup:.2}x");
    let json = Json::obj()
        .field("bench", "sweep")
        .field("space", "fig16")
        .field("workload", "alexnet")
        .field("designs", 18u64)
        .field("samples_per_search", SAMPLES as u64)
        .field("workers", WORKERS as u64)
        .field("cold_no_cache", phase_json(&disabled))
        .field(
            "cold_with_cache",
            phase_json(&cold)
                .field("cache_entries", cache_entries)
                .field("cache_bytes", cache_bytes),
        )
        .field("warm_with_cache", phase_json(&warm))
        .field("work_one_worker", work_json(&counted))
        .field("sweep_wall_ms", disabled.wall_ms)
        .field("warm_wall_ms", warm.wall_ms)
        .field("cache_hit_rate", warm.run.cache_hit_rate())
        .field("warm_speedup", speedup);
    let mut failures = Vec::new();
    if speedup < MIN_SPEEDUP {
        failures.push(format!(
            "warm cache speedup {speedup:.2}x below the {MIN_SPEEDUP:.2}x threshold"
        ));
    }
    let warm_counts = [
        ("mapper draws", warm.mapper_draws, 0),
        ("mapper samples", warm.mapper_samples, 0),
        ("cache hits", warm.run.cache_hits, REQUESTS),
        ("cache misses", warm.run.cache_misses, 0),
    ];
    for (what, got, want) in warm_counts {
        if got != want {
            failures.push(format!("warm pass: {got} {what}, expected exactly {want}"));
        }
    }
    let verdict = if failures.is_empty() {
        Ok(format!(
            "warm cache speedup {speedup:.2}x >= {MIN_SPEEDUP:.2}x; warm pass drew 0 mappings \
             and hit the cache on all {REQUESTS} requests"
        ))
    } else {
        Err(failures)
    };
    GateRun { json, verdict }
}
