//! The `guided` gate: the evidence behind guided (Pareto-driven) search
//! as the mapper default.
//!
//! For every *distinct* per-layer search space in AlexNet conv1–conv5
//! plus the attention block, runs the step-1 mapper search twice with
//! the same seed and sample budget — once in random mode (which always
//! draws the full budget) and once in guided mode (where the budget is
//! only a cap and the search stops once its Pareto front goes stale) —
//! and writes `BENCH_guided.json` with per-space sample counts, best
//! points, front hypervolumes and wall times.
//!
//! `--check` enforces the two claims the guided default rests on:
//! samples shrink by at least [`MIN_SAMPLE_REDUCTION`] in aggregate,
//! and quality holds — per space, guided's best latency and front
//! hypervolume are equal-or-better than random's, within [`QUALITY_TOL`].

use std::time::Instant;

use secureloop_arch::Architecture;
use secureloop_json::Json;
use secureloop_loopnest::SearchSpaceKey;
use secureloop_mapper::{hypervolume, search, ParetoPoint, SearchConfig, SearchMode};
use secureloop_workload::{zoo, ConvLayer};

use super::GateRun;
use crate::base_secure_arch;

/// Sample budget for random search and cap for guided search.
const SAMPLES: usize = 4096;
/// `--check` floor on random's total samples over guided's.
const MIN_SAMPLE_REDUCTION: f64 = 5.0;
/// Guided must lose no more than this fraction of random's quality on
/// any gated metric (it usually *wins*; the slack absorbs discrete
/// latency plateaus where the two modes pick different corners).
const QUALITY_TOL: f64 = 0.02;

/// One mode's search outcome on one space.
struct ModeRun {
    samples: u64,
    best_latency: u64,
    best_energy: f64,
    hypervolume: f64,
    wall_ms: f64,
    points: Vec<ParetoPoint>,
}

fn run_mode(layer: &ConvLayer, arch: &Architecture, mode: SearchMode) -> ModeRun {
    let cfg = SearchConfig {
        samples: SAMPLES,
        top_k: 4,
        seed: 0x6d1d_ed00,
        threads: 4,
        deadline: None,
        mode,
    };
    let start = Instant::now();
    let r = search(layer, arch, &cfg).expect("search succeeds");
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let (_, best) = r.best().expect("nonempty candidates");
    ModeRun {
        samples: r.total_samples as u64,
        best_latency: best.latency_cycles,
        best_energy: best.energy_pj,
        hypervolume: 0.0, // filled in once the shared reference is known
        wall_ms,
        points: r
            .candidates
            .iter()
            .map(|(_, e)| ParetoPoint::of(e))
            .collect(),
    }
}

/// Shared hypervolume reference for one space: strictly beyond every
/// point either mode retained, so both fronts are measured against the
/// same corner.
fn reference(runs: [&ModeRun; 2]) -> ParetoPoint {
    let mut latency = 0u64;
    let (mut energy, mut crypto) = (0.0f64, 0.0f64);
    for p in runs.iter().flat_map(|r| &r.points) {
        latency = latency.max(p.latency_cycles);
        energy = energy.max(p.energy_pj);
        crypto = crypto.max(p.crypto_pj);
    }
    ParetoPoint {
        latency_cycles: latency.saturating_mul(2).max(1),
        energy_pj: (energy * 2.0).max(1.0),
        crypto_pj: (crypto * 2.0).max(1.0),
    }
}

struct SpaceResult {
    name: String,
    random: ModeRun,
    guided: ModeRun,
}

/// The benched workload: every distinct search space in AlexNet
/// conv1–conv5 + attention(128, 512), deduplicated by canonical key.
fn distinct_layers(arch: &Architecture) -> Vec<ConvLayer> {
    let mut seen = Vec::new();
    let mut layers = Vec::new();
    for net in [zoo::alexnet_conv(), zoo::attention(128, 512)] {
        for layer in net.layers() {
            let key = SearchSpaceKey::of(layer, arch);
            if !seen.contains(&key) {
                seen.push(key);
                layers.push(layer.clone());
            }
        }
    }
    layers
}

fn space_json(s: &SpaceResult) -> Json {
    let mode = |r: &ModeRun| {
        Json::obj()
            .field("samples", r.samples)
            .field("best_latency_cycles", r.best_latency)
            .field("best_energy_pj", r.best_energy)
            .field("hypervolume", r.hypervolume)
            .field("wall_ms", r.wall_ms)
    };
    Json::obj()
        .field("layer", s.name.as_str())
        .field("random", mode(&s.random))
        .field("guided", mode(&s.guided))
        .field(
            "sample_reduction",
            s.random.samples as f64 / s.guided.samples.max(1) as f64,
        )
}

/// Every failed `--check` threshold.
fn failures(results: &[SpaceResult], reduction: f64) -> Vec<String> {
    let mut failures = Vec::new();
    if reduction < MIN_SAMPLE_REDUCTION {
        failures.push(format!(
            "sample reduction {reduction:.2}x below the {MIN_SAMPLE_REDUCTION:.2}x threshold"
        ));
    }
    let tol_pct = QUALITY_TOL * 100.0;
    for r in results {
        if (r.guided.best_latency as f64) > r.random.best_latency as f64 * (1.0 + QUALITY_TOL) {
            failures.push(format!(
                "{}: guided best latency {} worse than random {} (tol {tol_pct:.0}%)",
                r.name, r.guided.best_latency, r.random.best_latency,
            ));
        }
        if r.guided.hypervolume < r.random.hypervolume * (1.0 - QUALITY_TOL) {
            failures.push(format!(
                "{}: guided hypervolume {:.3e} below random {:.3e} (tol {tol_pct:.0}%)",
                r.name, r.guided.hypervolume, r.random.hypervolume,
            ));
        }
    }
    failures
}

pub(super) fn run() -> GateRun {
    let arch = base_secure_arch();
    let layers = distinct_layers(&arch);
    println!(
        "guided gate: {} distinct spaces (AlexNet conv + attention), cap {SAMPLES} samples/search\n",
        layers.len(),
    );
    println!(
        "{:<12} {:>8} {:>8} {:>6}  {:>12} {:>12}  {:>9}",
        "layer", "rand", "guided", "redux", "rand best", "guided best", "hv ratio"
    );
    let mut results: Vec<SpaceResult> = Vec::new();
    for layer in &layers {
        let mut random = run_mode(layer, &arch, SearchMode::Random);
        let mut guided = run_mode(layer, &arch, SearchMode::Guided);
        let reference = reference([&random, &guided]);
        random.hypervolume = hypervolume(&random.points, &reference);
        guided.hypervolume = hypervolume(&guided.points, &reference);
        println!(
            "{:<12} {:>8} {:>8} {:>5.1}x  {:>12} {:>12}  {:>8.3}",
            layer.name(),
            random.samples,
            guided.samples,
            random.samples as f64 / guided.samples.max(1) as f64,
            random.best_latency,
            guided.best_latency,
            guided.hypervolume / random.hypervolume.max(f64::MIN_POSITIVE),
        );
        results.push(SpaceResult {
            name: layer.name().to_string(),
            random,
            guided,
        });
    }

    let total_random: u64 = results.iter().map(|r| r.random.samples).sum();
    let total_guided: u64 = results.iter().map(|r| r.guided.samples).sum();
    let reduction = total_random as f64 / total_guided.max(1) as f64;
    let random_wall: f64 = results.iter().map(|r| r.random.wall_ms).sum();
    let guided_wall: f64 = results.iter().map(|r| r.guided.wall_ms).sum();
    println!(
        "\ntotal samples: {total_random} random vs {total_guided} guided ({reduction:.1}x reduction)"
    );
    println!("wall: {random_wall:.0} ms random vs {guided_wall:.0} ms guided");

    let json = Json::obj()
        .field("bench", "guided")
        .field("workload", "alexnet_conv+attention")
        .field("samples_cap", SAMPLES as u64)
        .field("spaces", results.len() as u64)
        .field(
            "per_space",
            Json::Arr(results.iter().map(space_json).collect()),
        )
        .field("total_random_samples", total_random)
        .field("total_guided_samples", total_guided)
        .field("sample_reduction", reduction)
        .field("random_wall_ms", random_wall)
        .field("guided_wall_ms", guided_wall);
    let failures = failures(&results, reduction);
    let verdict = if failures.is_empty() {
        Ok(format!(
            "{reduction:.1}x sample reduction (>= {MIN_SAMPLE_REDUCTION:.1}x) at equal-or-better fronts"
        ))
    } else {
        Err(failures)
    };
    GateRun { json, verdict }
}
