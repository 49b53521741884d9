//! Step 3: cross-layer fine-tuning with simulated annealing
//! (paper §4.3, Algorithm 1).
//!
//! The state is one retained schedule index per layer of a segment;
//! `GetNeighbor` re-samples one layer's index among its top-k
//! candidates; the cost is the segment's total secure latency under the
//! optimal AuthBlock assignment. One chain runs per segment, starting
//! from the all-best state (index 0 everywhere); its temperature falls
//! linearly from `T_INIT` to `T_FINAL` of the start state's cost,
//! and the best-seen state is kept, so fine-tuning can never end up
//! worse than its initialisation.
//!
//! # Determinism and deadlines
//!
//! Each iteration draws from its own generator, seeded from
//! [`AnnealingConfig::seed`] and the iteration index (`iter_rng`). That
//! derivation fixes the draw stream the committed goldens pin, so it
//! stays although nothing resumes a chain mid-way: annealing is not
//! resumable, and crash safety is per design point (the sweep
//! checkpoint records finished designs). A wall-clock
//! [`AnnealingConfig::deadline`] stops the chain between iterations and
//! returns the best state seen so far.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use secureloop_arch::Architecture;
use secureloop_telemetry::{self as telemetry, Counter};
use secureloop_workload::Network;

use crate::candidates::CandidateSet;
use crate::segment::{evaluate_segment, OverheadCache, SegmentEvaluation, StrategyMode};

static ANNEAL_RUNS: Counter = Counter::new("anneal.runs");
/// Proposals/acceptances bucketed by temperature quartile (q0 =
/// hottest): the acceptance-rate-vs-temperature curve is the classic
/// health check for an annealing schedule.
static PROPOSALS_BY_QUARTILE: [Counter; 4] = [
    Counter::new("anneal.proposals.q0"),
    Counter::new("anneal.proposals.q1"),
    Counter::new("anneal.proposals.q2"),
    Counter::new("anneal.proposals.q3"),
];
static ACCEPTED_BY_QUARTILE: [Counter; 4] = [
    Counter::new("anneal.accepted.q0"),
    Counter::new("anneal.accepted.q1"),
    Counter::new("anneal.accepted.q2"),
    Counter::new("anneal.accepted.q3"),
];

/// Initial temperature, as a fraction of the start state's cost.
const T_INIT: f64 = 0.05;
/// Final temperature fraction.
const T_FINAL: f64 = 1e-4;

/// Simulated-annealing knobs (paper Fig. 10 sweeps `k` and the
/// iteration count; the defaults are the paper's chosen operating
/// point: k = 6, 1000 iterations).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnnealingConfig {
    /// Iterations (`N` in Algorithm 1).
    pub iterations: usize,
    /// Neighbourhood size: top-k candidates per layer.
    pub k: usize,
    /// RNG seed.
    pub seed: u64,
    /// Optional wall-clock budget for one segment's annealing. When it
    /// expires the chain stops between iterations, keeping the best
    /// state seen so far (never worse than the initialisation).
    pub deadline: Option<Duration>,
}

impl AnnealingConfig {
    /// The paper's operating point: k = 6, 1000 iterations.
    pub fn paper_default() -> Self {
        AnnealingConfig {
            iterations: 1000,
            k: 6,
            seed: 0xa11ea1,
            deadline: None,
        }
    }

    /// A small budget for tests.
    pub fn quick() -> Self {
        AnnealingConfig {
            iterations: 60,
            k: 3,
            ..AnnealingConfig::paper_default()
        }
    }

    /// Replace the neighbourhood size.
    pub fn with_k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Replace the iteration count.
    pub fn with_iterations(mut self, n: usize) -> Self {
        self.iterations = n;
        self
    }

    /// Replace the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set a wall-clock budget for each segment's annealing.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

impl Default for AnnealingConfig {
    fn default() -> Self {
        AnnealingConfig::paper_default()
    }
}

/// Result of annealing one segment.
#[derive(Debug, Clone)]
pub struct AnnealOutcome {
    /// Chosen candidate index per segment layer.
    pub choice: Vec<usize>,
    /// The evaluation of the chosen state.
    pub eval: SegmentEvaluation,
    /// Cost (total latency) of the initial all-best state, for
    /// reporting the fine-tuning gain.
    pub initial_latency: u64,
}

fn eval_choice(
    network: &Network,
    arch: &Architecture,
    seg: &[usize],
    candidates: &CandidateSet,
    choice: &[usize],
    cache: &OverheadCache,
) -> SegmentEvaluation {
    let picks: Vec<_> = seg
        .iter()
        .zip(choice)
        .map(|(&li, &ci)| candidates.per_layer[li].options[ci].clone())
        .collect();
    evaluate_segment(network, arch, seg, &picks, StrategyMode::Optimal, cache)
}

/// Per-iteration RNG: each iteration's draws come from an independent
/// generator derived from the seed and the iteration index.
fn iter_rng(seed: u64, it: usize) -> StdRng {
    StdRng::seed_from_u64(seed ^ (it as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Temperature fraction at iteration `it` of `n` (Algorithm 1, line 13:
/// linear from `T_INIT` to `T_FINAL`).
fn temperature_fraction(it: usize, n: usize) -> f64 {
    let frac = it as f64 / n.max(1) as f64;
    T_INIT + (T_FINAL - T_INIT) * frac
}

/// Algorithm 1: anneal the per-layer schedule choice of one segment.
/// A configured deadline stops the chain early with the best state
/// seen so far.
pub fn anneal_segment(
    network: &Network,
    arch: &Architecture,
    seg: &[usize],
    candidates: &CandidateSet,
    cfg: &AnnealingConfig,
    cache: &OverheadCache,
) -> AnnealOutcome {
    let deadline = cfg.deadline.map(|d| Instant::now() + d);
    let k_of = |li: usize| candidates.per_layer[li].len().min(cfg.k).max(1);

    ANNEAL_RUNS.incr();
    let seg_name = match (seg.first(), seg.last()) {
        (Some(&a), Some(&b)) if a != b => format!(
            "{}..{}",
            network.layers()[a].name(),
            network.layers()[b].name()
        ),
        (Some(&a), _) => network.layers()[a].name().to_string(),
        _ => String::from("empty"),
    };
    let mut span = telemetry::span("anneal", seg_name);
    // Local tallies, flushed to the global counters once per run.
    let mut proposals = [0u64; 4];
    let mut accepted = [0u64; 4];

    let mut current = vec![0; seg.len()];
    let mut current_eval = eval_choice(network, arch, seg, candidates, &current, cache);
    let initial_latency = current_eval.total_latency;
    let mut best = current.clone();
    let mut best_eval = current_eval.clone();
    let mut completed = true;

    let tunable = seg.iter().any(|&li| k_of(li) > 1);
    let cost0 = initial_latency.max(1) as f64;

    if tunable {
        for it in 0..cfg.iterations {
            if deadline.is_some_and(|dl| Instant::now() >= dl) {
                completed = false;
                break;
            }
            let mut rng = iter_rng(cfg.seed, it);

            // Temperature decay (Algorithm 1, line 13).
            let t = temperature_fraction(it, cfg.iterations) * cost0;

            // GetNeighbor: re-sample one layer among its top-k.
            let pos = rng.gen_range(0..seg.len());
            let k = k_of(seg[pos]);
            if k <= 1 {
                continue;
            }
            let mut neighbor = current.clone();
            neighbor[pos] = rng.gen_range(0..k);
            if neighbor[pos] == current[pos] {
                continue;
            }
            let neighbor_eval = eval_choice(network, arch, seg, candidates, &neighbor, cache);
            let quartile = (it * 4 / cfg.iterations.max(1)).min(3);
            proposals[quartile] += 1;

            let cost_diff = current_eval.total_latency as f64 - neighbor_eval.total_latency as f64;
            if (cost_diff / t).exp() > rng.gen_range(0.0..1.0) {
                accepted[quartile] += 1;
                current = neighbor;
                current_eval = neighbor_eval;
                if current_eval.total_latency < best_eval.total_latency {
                    best = current.clone();
                    best_eval = current_eval.clone();
                }
            }
        }
    }

    for q in 0..4 {
        PROPOSALS_BY_QUARTILE[q].add(proposals[q]);
        ACCEPTED_BY_QUARTILE[q].add(accepted[q]);
    }

    span.add_field("proposals", proposals.iter().sum::<u64>());
    span.add_field("accepted", accepted.iter().sum::<u64>());
    span.add_field("completed", completed);
    span.add_field("initial_latency", initial_latency);
    span.add_field("final_latency", best_eval.total_latency);
    AnnealOutcome {
        choice: best,
        eval: best_eval,
        initial_latency,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::find_candidates;
    use secureloop_crypto::{CryptoConfig, EngineClass};
    use secureloop_mapper::SearchConfig;
    use secureloop_workload::zoo;

    fn setup() -> (Network, Architecture, CandidateSet) {
        let net = zoo::alexnet_conv();
        let arch =
            Architecture::eyeriss_base().with_crypto(CryptoConfig::new(EngineClass::Parallel, 3));
        let cands = find_candidates(&net, &arch, &SearchConfig::quick().with_top_k(4));
        (net, arch, cands)
    }

    #[test]
    fn annealing_never_worse_than_initial() {
        let (net, arch, cands) = setup();
        let segs = net.segments();
        let cache = OverheadCache::new();
        for seg in &segs {
            let out = anneal_segment(
                &net,
                &arch,
                &seg.layers,
                &cands,
                &AnnealingConfig::quick(),
                &cache,
            );
            assert!(
                out.eval.total_latency <= out.initial_latency,
                "annealing regressed: {} > {}",
                out.eval.total_latency,
                out.initial_latency
            );
        }
    }

    #[test]
    fn annealing_is_seed_deterministic() {
        let (net, arch, cands) = setup();
        let seg = &net.segments()[2].layers;
        let cfg = AnnealingConfig::quick().with_seed(5);
        let c1 = OverheadCache::new();
        let c2 = OverheadCache::new();
        let a = anneal_segment(&net, &arch, seg, &cands, &cfg, &c1);
        let b = anneal_segment(&net, &arch, seg, &cands, &cfg, &c2);
        assert_eq!(a.choice, b.choice);
        assert_eq!(a.eval.total_latency, b.eval.total_latency);
    }

    #[test]
    fn k1_reduces_to_best_per_layer() {
        let (net, arch, cands) = setup();
        let seg = &net.segments()[2].layers;
        let cfg = AnnealingConfig::quick().with_k(1);
        let cache = OverheadCache::new();
        let out = anneal_segment(&net, &arch, seg, &cands, &cfg, &cache);
        assert!(out.choice.iter().all(|&c| c == 0));
        assert_eq!(out.eval.total_latency, out.initial_latency);
    }

    #[test]
    fn zero_deadline_keeps_the_initial_floor() {
        let (net, arch, cands) = setup();
        let seg = &net.segments()[2].layers;
        let cache = OverheadCache::new();
        let out = anneal_segment(
            &net,
            &arch,
            seg,
            &cands,
            &AnnealingConfig::quick().with_deadline(Duration::ZERO),
            &cache,
        );
        // The chain stops before its first iteration: the outcome is
        // the all-best start state.
        assert_eq!(out.choice, vec![0; seg.len()]);
        assert_eq!(out.eval.total_latency, out.initial_latency);
    }

    #[test]
    fn larger_k_explores_more() {
        let (net, arch, cands) = setup();
        let seg = &net.segments()[2].layers;
        let cache = OverheadCache::new();
        let k1 = anneal_segment(
            &net,
            &arch,
            seg,
            &cands,
            &AnnealingConfig::quick().with_k(1),
            &cache,
        );
        let k4 = anneal_segment(
            &net,
            &arch,
            seg,
            &cands,
            &AnnealingConfig::quick().with_k(4).with_iterations(200),
            &cache,
        );
        assert!(k4.eval.total_latency <= k1.eval.total_latency);
    }
}
