//! The `sweep` gate: the incremental DSE sweep engine's candidate cache.
//!
//! Runs the Fig. 16 design space on AlexNet three times — cache
//! disabled, cache enabled from cold (populating an on-disk cache), and
//! cache enabled warm (from that cache, the `--resume` steady state) —
//! and writes `BENCH_sweep.json` with wall times, mapper sample counts
//! and hit rates.
//!
//! All 18 Fig. 16 designs have pairwise-distinct search-space keys, so
//! the cold cache-enabled pass sees no intra-sweep hits; the reuse the
//! cache buys shows up in the *warm* pass, which `--check` compares
//! against the cache-disabled pass.
//!
//! A fourth pass runs the cache-disabled sweep on one worker and records
//! the AuthBlock optimiser's work counts (optimiser runs, congruence
//! calls, overhead-memo misses). On one worker they are deterministic,
//! so `--diff-against` gates them exactly.

use std::time::Instant;

use secureloop::dse::{evaluate_designs_sweep, fig16_design_space, SweepOptions, SweepRun};
use secureloop::{Algorithm, AnnealingConfig};
use secureloop_json::Json;
use secureloop_mapper::{SearchConfig, SearchMode};
use secureloop_telemetry as telemetry;
use secureloop_workload::zoo;

use super::GateRun;

/// Mapper samples per search.
const SAMPLES: usize = 4096;
/// Sweep worker threads.
const WORKERS: usize = 4;
/// `--check` floor on the warm-cache speedup over the cache-disabled pass.
const MIN_SPEEDUP: f64 = 1.3;

/// Work counters the single-worker pass records, by telemetry name.
const WORK_COUNTS: [&str; 3] = [
    "authblock.optimize_runs",
    "authblock.congruence_calls",
    "scheduler.overhead_cache_misses",
];

struct Phase {
    wall_ms: f64,
    mapper_samples: u64,
    work: [u64; 3],
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
        .field("cold_with_cache", phase_json(&cold))
        .field("warm_with_cache", phase_json(&warm))
        .field("work_one_worker", work_json(&counted))
        .field("sweep_wall_ms", disabled.wall_ms)
        .field("warm_wall_ms", warm.wall_ms)
        .field("cache_hit_rate", warm.run.cache_hit_rate())
        .field("warm_speedup", speedup);
    let verdict = if speedup >= MIN_SPEEDUP {
        Ok(format!(
            "warm cache speedup {speedup:.2}x >= {MIN_SPEEDUP:.2}x"
        ))
    } else {
        Err(vec![format!(
            "warm cache speedup {speedup:.2}x below the {MIN_SPEEDUP:.2}x threshold"
        )])
    };
    GateRun { json, verdict }
}
