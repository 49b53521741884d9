//! Step 3: cross-layer fine-tuning with simulated annealing
//! (paper §4.3, Algorithm 1).
//!
//! The state is one retained schedule index per layer of a segment;
//! `GetNeighbor` re-samples one layer's index among its top-k
//! candidates; the cost is the segment's total secure latency under the
//! optimal AuthBlock assignment. Temperature decreases linearly and the
//! best-seen state is kept, so fine-tuning can never end up worse than
//! its initialisation.
//!
//! # Checkpoint/resume
//!
//! Each iteration draws from its own seed-derived RNG, so the chain is
//! Markovian in `(restart, iteration, current, best)`: capturing that
//! state ([`AnnealState`]) and resuming reproduces *exactly* the run
//! that would have happened uninterrupted. A wall-clock
//! [`AnnealingConfig::deadline`] interrupts the chain between
//! iterations, returning the best-seen state so far plus a resumable
//! snapshot.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use secureloop_arch::Architecture;
use secureloop_telemetry::{self as telemetry, Counter, Timer};
use secureloop_workload::Network;

use crate::candidates::CandidateSet;
use crate::segment::{evaluate_segment, OverheadCache, SegmentEvaluation, StrategyMode};

static ANNEAL_RUNS: Counter = Counter::new("anneal.runs");
static ANNEAL_RESTARTS: Counter = Counter::new("anneal.restarts");
static ANNEAL_TIMER: Timer = Timer::new("anneal.segment");
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

/// Temperature schedule (Algorithm 1, line 13 — the paper decreases
/// temperature linearly; geometric cooling is the common alternative).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cooling {
    /// Linear interpolation from `t_init` to `t_final` (the paper's).
    Linear,
    /// Geometric decay `t_init · r^n` reaching `t_final` at the last
    /// iteration.
    Geometric,
}

/// Simulated-annealing knobs (paper Fig. 10 sweeps `k` and the
/// iteration count; the defaults are the paper's chosen operating
/// point: k = 6, 1000 iterations).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnnealingConfig {
    /// Iterations (`N` in Algorithm 1).
    pub iterations: usize,
    /// Neighbourhood size: top-k candidates per layer.
    pub k: usize,
    /// Initial temperature, as a fraction of the initial cost.
    pub t_init: f64,
    /// Final temperature fraction.
    pub t_final: f64,
    /// Temperature schedule.
    pub cooling: Cooling,
    /// Independent restarts (best state across restarts wins); the
    /// paper reports the mean of 5 independent runs — restarts instead
    /// keep the best.
    pub restarts: usize,
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
            t_init: 0.05,
            t_final: 1e-4,
            cooling: Cooling::Linear,
            restarts: 1,
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

    /// Replace the cooling schedule.
    pub fn with_cooling(mut self, cooling: Cooling) -> Self {
        self.cooling = cooling;
        self
    }

    /// Replace the restart count.
    pub fn with_restarts(mut self, restarts: usize) -> Self {
        self.restarts = restarts.max(1);
        self
    }

    /// Set a wall-clock budget for each segment's annealing.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Temperature fraction at iteration `it` of `n`.
    pub fn temperature_fraction(&self, it: usize, n: usize) -> f64 {
        let frac = it as f64 / n.max(1) as f64;
        match self.cooling {
            Cooling::Linear => self.t_init + (self.t_final - self.t_init) * frac,
            Cooling::Geometric => self.t_init * (self.t_final / self.t_init).powf(frac),
        }
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

/// Resumable annealing position: everything the chain needs to continue
/// exactly where it stopped (the per-iteration RNG derivation makes the
/// chain Markovian in this state).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnnealState {
    /// Restart index the chain is in.
    pub restart: usize,
    /// Next iteration to execute within that restart.
    pub iteration: usize,
    /// Current chain state (candidate index per segment layer).
    pub current: Vec<usize>,
    /// Best state seen within the current restart.
    pub best: Vec<usize>,
    /// Best state across *completed* restarts, if any.
    pub global_best: Option<Vec<usize>>,
}

impl AnnealState {
    /// The starting state for a segment of `len` layers.
    pub fn fresh(len: usize) -> Self {
        AnnealState {
            restart: 0,
            iteration: 0,
            current: vec![0; len],
            best: vec![0; len],
            global_best: None,
        }
    }
}

/// One (possibly interrupted) annealing run.
#[derive(Debug, Clone)]
pub struct AnnealRun {
    /// Best outcome found so far (never worse than the initial state).
    pub outcome: AnnealOutcome,
    /// Snapshot to resume from if `completed` is false.
    pub state: AnnealState,
    /// Whether every restart ran its full iteration budget.
    pub completed: bool,
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
/// seed-derived generator, so the chain state alone determines the
/// remainder of the run (the property checkpoint/resume relies on).
fn iter_rng(seed: u64, it: usize) -> StdRng {
    StdRng::seed_from_u64(seed ^ (it as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Algorithm 1: anneal the per-layer schedule choice of one segment.
/// Runs `cfg.restarts` independent chains and keeps the best state.
/// A configured deadline stops early with the best-so-far (use
/// [`anneal_segment_resumable`] to also get the resumable snapshot).
pub fn anneal_segment(
    network: &Network,
    arch: &Architecture,
    seg: &[usize],
    candidates: &CandidateSet,
    cfg: &AnnealingConfig,
    cache: &OverheadCache,
) -> AnnealOutcome {
    anneal_segment_resumable(network, arch, seg, candidates, cfg, cache, None).outcome
}

/// [`anneal_segment`] with explicit checkpoint/resume: pass the
/// [`AnnealState`] of a previous interrupted run to continue exactly
/// where it stopped.
pub fn anneal_segment_resumable(
    network: &Network,
    arch: &Architecture,
    seg: &[usize],
    candidates: &CandidateSet,
    cfg: &AnnealingConfig,
    cache: &OverheadCache,
    resume: Option<AnnealState>,
) -> AnnealRun {
    let deadline = cfg.deadline.map(|d| Instant::now() + d);
    let k_of = |li: usize| candidates.per_layer[li].len().min(cfg.k).max(1);
    let restarts = cfg.restarts.max(1);

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
    let mut span = telemetry::span("anneal", seg_name).with_timer(&ANNEAL_TIMER);
    // Local tallies, flushed to the global counters once per run.
    let mut proposals = [0u64; 4];
    let mut accepted = [0u64; 4];
    let mut restarts_run = 0u64;

    // A stale snapshot (wrong segment length or exhausted budget) falls
    // back to a fresh start rather than corrupting the chain.
    let mut state = match resume {
        Some(s)
            if s.current.len() == seg.len()
                && s.best.len() == seg.len()
                && s.restart < restarts
                && s.iteration <= cfg.iterations =>
        {
            s
        }
        _ => AnnealState::fresh(seg.len()),
    };

    let initial_latency =
        eval_choice(network, arch, seg, candidates, &vec![0; seg.len()], cache).total_latency;
    let mut global_best: Option<(Vec<usize>, SegmentEvaluation)> =
        state.global_best.clone().map(|c| {
            let e = eval_choice(network, arch, seg, candidates, &c, cache);
            (c, e)
        });
    let mut completed = true;

    let tunable = seg.iter().any(|&li| k_of(li) > 1);
    let cost0 = initial_latency.max(1) as f64;

    'restarts: for r in state.restart..restarts {
        restarts_run += 1;
        let seed = cfg.seed.wrapping_add(r as u64);
        let (start_it, mut current, mut best) = if r == state.restart {
            (state.iteration, state.current.clone(), state.best.clone())
        } else {
            (0, vec![0; seg.len()], vec![0; seg.len()])
        };
        let mut current_eval = eval_choice(network, arch, seg, candidates, &current, cache);
        let mut best_eval = eval_choice(network, arch, seg, candidates, &best, cache);

        if tunable {
            for it in start_it..cfg.iterations {
                if let Some(dl) = deadline {
                    if Instant::now() >= dl {
                        state = AnnealState {
                            restart: r,
                            iteration: it,
                            current,
                            best: best.clone(),
                            global_best: global_best.as_ref().map(|(c, _)| c.clone()),
                        };
                        // Count the interrupted restart's best so the
                        // outcome reflects everything seen so far.
                        let better = global_best
                            .as_ref()
                            .is_none_or(|(_, e)| best_eval.total_latency < e.total_latency);
                        if better {
                            global_best = Some((best, best_eval));
                        }
                        completed = false;
                        break 'restarts;
                    }
                }
                let mut rng = iter_rng(seed, it);

                // Temperature decay (Algorithm 1, line 13).
                let t = cfg.temperature_fraction(it, cfg.iterations) * cost0;

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

                let cost_diff =
                    current_eval.total_latency as f64 - neighbor_eval.total_latency as f64;
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

        let better = global_best
            .as_ref()
            .is_none_or(|(_, e)| best_eval.total_latency < e.total_latency);
        if better {
            global_best = Some((best, best_eval));
        }
    }

    if completed {
        state = AnnealState {
            restart: restarts,
            iteration: cfg.iterations,
            current: vec![0; seg.len()],
            best: vec![0; seg.len()],
            global_best: global_best.as_ref().map(|(c, _)| c.clone()),
        };
    }

    for q in 0..4 {
        PROPOSALS_BY_QUARTILE[q].add(proposals[q]);
        ACCEPTED_BY_QUARTILE[q].add(accepted[q]);
    }
    ANNEAL_RESTARTS.add(restarts_run);

    let (choice, eval) = global_best.expect("at least one restart contributed a state");
    span.add_field("proposals", proposals.iter().sum::<u64>());
    span.add_field("accepted", accepted.iter().sum::<u64>());
    span.add_field("restarts", restarts_run);
    span.add_field("completed", completed);
    span.add_field("initial_latency", initial_latency);
    span.add_field("final_latency", eval.total_latency);
    AnnealRun {
        outcome: AnnealOutcome {
            choice,
            eval,
            initial_latency,
        },
        state,
        completed,
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
    fn cooling_schedules_interpolate_correctly() {
        let lin = AnnealingConfig::paper_default();
        assert!((lin.temperature_fraction(0, 100) - 0.05).abs() < 1e-12);
        assert!((lin.temperature_fraction(100, 100) - 1e-4).abs() < 1e-12);
        let geo = lin.with_cooling(Cooling::Geometric);
        assert!((geo.temperature_fraction(0, 100) - 0.05).abs() < 1e-12);
        assert!((geo.temperature_fraction(100, 100) - 1e-4).abs() < 1e-10);
        // Geometric drops faster in the middle.
        assert!(geo.temperature_fraction(50, 100) < lin.temperature_fraction(50, 100));
    }

    #[test]
    fn restarts_only_improve() {
        let (net, arch, cands) = setup();
        let seg = &net.segments()[2].layers;
        let cache = OverheadCache::new();
        let one = anneal_segment(&net, &arch, seg, &cands, &AnnealingConfig::quick(), &cache);
        let five = anneal_segment(
            &net,
            &arch,
            seg,
            &cands,
            &AnnealingConfig::quick().with_restarts(5),
            &cache,
        );
        assert!(five.eval.total_latency <= one.eval.total_latency);
    }

    #[test]
    fn resume_reproduces_the_uninterrupted_run() {
        // The chain is Markovian in AnnealState: interrupting at any
        // iteration and resuming must land on the exact same answer as
        // running straight through.
        let (net, arch, cands) = setup();
        let seg = &net.segments()[2].layers;
        let cfg = AnnealingConfig::quick().with_iterations(80).with_seed(11);
        let c1 = OverheadCache::new();
        let full = anneal_segment(&net, &arch, seg, &cands, &cfg, &c1);

        let c2 = OverheadCache::new();
        let mut run = anneal_segment_resumable(
            &net,
            &arch,
            seg,
            &cands,
            &cfg.with_deadline(Duration::from_micros(200)),
            &c2,
            None,
        );
        let mut resumes = 0;
        while !run.completed {
            resumes += 1;
            assert!(resumes < 1000, "resume loop must terminate");
            run = anneal_segment_resumable(&net, &arch, seg, &cands, &cfg, &c2, Some(run.state));
        }
        assert_eq!(run.outcome.choice, full.choice);
        assert_eq!(run.outcome.eval.total_latency, full.eval.total_latency);
    }

    #[test]
    fn zero_deadline_keeps_the_initial_floor() {
        let (net, arch, cands) = setup();
        let seg = &net.segments()[2].layers;
        let cache = OverheadCache::new();
        let run = anneal_segment_resumable(
            &net,
            &arch,
            seg,
            &cands,
            &AnnealingConfig::quick().with_deadline(Duration::ZERO),
            &cache,
            None,
        );
        assert!(!run.completed);
        assert!(run.outcome.eval.total_latency <= run.outcome.initial_latency);
        assert_eq!(run.state.restart, 0);
        assert_eq!(run.state.iteration, 0);
    }

    #[test]
    fn stale_snapshot_falls_back_to_fresh() {
        let (net, arch, cands) = setup();
        let seg = &net.segments()[2].layers;
        let cfg = AnnealingConfig::quick();
        let c1 = OverheadCache::new();
        let clean = anneal_segment(&net, &arch, seg, &cands, &cfg, &c1);
        // A snapshot from a different (wrong-length) segment is ignored.
        let stale = AnnealState::fresh(seg.len() + 3);
        let c2 = OverheadCache::new();
        let run = anneal_segment_resumable(&net, &arch, seg, &cands, &cfg, &c2, Some(stale));
        assert!(run.completed);
        assert_eq!(run.outcome.choice, clean.choice);
    }

    #[test]
    fn geometric_cooling_still_never_regresses() {
        let (net, arch, cands) = setup();
        let seg = &net.segments()[2].layers;
        let cache = OverheadCache::new();
        let out = anneal_segment(
            &net,
            &arch,
            seg,
            &cands,
            &AnnealingConfig::quick().with_cooling(Cooling::Geometric),
            &cache,
        );
        assert!(out.eval.total_latency <= out.initial_latency);
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
