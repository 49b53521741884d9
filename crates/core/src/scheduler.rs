//! The end-to-end scheduler: Table 1's algorithms over whole networks.
//!
//! # Failure isolation
//!
//! One infeasible layer no longer aborts a network schedule: each layer
//! gets a [`LayerOutcome`], failed layers are recorded and skipped, and
//! the segments they belong to are split into maximal runs of
//! schedulable layers (cross-layer AuthBlock optimisation happens
//! within each run). Degraded layers — produced by a fallback rung of
//! the mapper's ladder, cut short by a deadline, or forced onto the
//! tile-as-AuthBlock strategy — are scheduled but flagged, so reports
//! can surface exactly how much of the result is below full quality.

use std::fmt;
use std::sync::Arc;

use secureloop_arch::Architecture;
use secureloop_authblock::OverheadBreakdown;
use secureloop_loopnest::{EnergyBreakdown, Evaluation, Mapping};
use secureloop_mapper::{CandidateCache, SearchConfig, SearchTier};
use secureloop_telemetry::{self as telemetry, Counter};
use secureloop_workload::Network;

use crate::annealing::{anneal_segment, AnnealingConfig};
use crate::candidates::{find_candidates_cached, CandidateSet};
use crate::error::SecureLoopError;
use crate::segment::{evaluate_segment, OverheadCache, SegmentEvaluation, StrategyMode};

static SCHEDULES: Counter = Counter::new("scheduler.schedules");
static LAYERS_SCHEDULED: Counter = Counter::new("scheduler.layers_scheduled");
static LAYERS_DEGRADED: Counter = Counter::new("scheduler.layers_degraded");
static LAYERS_FAILED: Counter = Counter::new("scheduler.layers_failed");

/// The scheduling algorithms of paper Table 1, plus the unsecure
/// baseline used for normalisation in Figs. 11, 13–15.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// No cryptographic engine: the plain accelerator (normalisation
    /// baseline).
    Unsecure,
    /// Crypt-aware mapper + tile-as-an-AuthBlock + rehash between
    /// coupled layers; no cross-layer tuning (prior work's strategy).
    CryptTileSingle,
    /// Crypt-aware mapper + optimal AuthBlock assignment per layer.
    CryptOptSingle,
    /// Optimal AuthBlock assignment + simulated-annealing cross-layer
    /// fine-tuning — the full SecureLoop scheduler.
    CryptOptCross,
}

impl Algorithm {
    /// The three secure algorithms, in Table 1 order.
    pub const SECURE: [Algorithm; 3] = [
        Algorithm::CryptTileSingle,
        Algorithm::CryptOptSingle,
        Algorithm::CryptOptCross,
    ];

    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Unsecure => "Unsecure",
            Algorithm::CryptTileSingle => "Crypt-Tile-Single",
            Algorithm::CryptOptSingle => "Crypt-Opt-Single",
            Algorithm::CryptOptCross => "Crypt-Opt-Cross",
        }
    }

    /// The one algorithm-name parser. Accepts the display name that
    /// reports, checkpoints and the service journal write
    /// (`Crypt-Opt-Cross`, the inverse of [`Algorithm::name`]) and the
    /// kebab spelling users type (`crypt-opt-cross`).
    pub fn from_name(name: &str) -> Option<Algorithm> {
        [Algorithm::Unsecure]
            .into_iter()
            .chain(Algorithm::SECURE)
            .find(|a| name == a.name() || name == a.name().to_ascii_lowercase())
    }
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How one layer fared within a [`NetworkSchedule`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LayerOutcome {
    /// Scheduled at the requested search quality.
    Scheduled,
    /// Scheduled, but through a fallback rung of the degradation
    /// ladder.
    Degraded {
        /// Which fallback(s) produced the result.
        reason: String,
    },
    /// No usable mapping was found: the layer is absent from
    /// [`NetworkSchedule::layers`].
    Failed {
        /// The search error that killed it.
        error: String,
    },
}

impl LayerOutcome {
    /// Whether the layer made it into the schedule (possibly degraded).
    pub fn is_scheduled(&self) -> bool {
        !matches!(self, LayerOutcome::Failed { .. })
    }

    /// Short label for reports: `scheduled`, `degraded` or `failed`.
    pub fn label(&self) -> &'static str {
        match self {
            LayerOutcome::Scheduled => "scheduled",
            LayerOutcome::Degraded { .. } => "degraded",
            LayerOutcome::Failed { .. } => "failed",
        }
    }
}

/// Per-layer outcome within a [`NetworkSchedule`].
#[derive(Debug, Clone, PartialEq)]
pub struct LayerResult {
    /// Layer name.
    pub name: String,
    /// Latency in cycles (crypto overheads applied).
    pub latency_cycles: u64,
    /// Energy in pJ.
    pub energy_pj: f64,
    /// Extra off-chip bits from authentication charged to this layer.
    pub extra_bits: u64,
    /// Off-chip data bits (without authentication overhead).
    pub data_dram_bits: u64,
    /// MACs.
    pub macs: u64,
    /// PE-array utilisation of the chosen schedule.
    pub utilization: f64,
    /// The chosen loopnest.
    pub mapping: Mapping,
    /// Component-wise energy.
    pub energy: EnergyBreakdown,
}

/// A fully scheduled network.
#[derive(Debug, Clone)]
pub struct NetworkSchedule {
    /// Network name.
    pub network: String,
    /// Algorithm that produced it.
    pub algorithm: Algorithm,
    /// One-line architecture summary.
    pub arch_summary: String,
    /// Per-layer results for the *scheduled* layers, in execution
    /// order. Failed layers are absent (see
    /// [`NetworkSchedule::outcomes`]).
    pub layers: Vec<LayerResult>,
    /// One `(layer name, outcome)` per network layer, in execution
    /// order — including the failed ones.
    pub outcomes: Vec<(String, LayerOutcome)>,
    /// Total latency in cycles (scheduled layers only).
    pub total_latency_cycles: u64,
    /// Total energy in pJ (scheduled layers only).
    pub total_energy_pj: f64,
    /// Total additional off-chip traffic from authentication.
    pub overhead: OverheadBreakdown,
}

impl NetworkSchedule {
    /// Energy-delay product (pJ·cycles).
    pub fn edp(&self) -> f64 {
        self.total_energy_pj * self.total_latency_cycles as f64
    }

    /// Total MACs across scheduled layers.
    pub fn total_macs(&self) -> u64 {
        self.layers.iter().map(|l| l.macs).sum()
    }

    /// Layers scheduled at full quality.
    pub fn scheduled_count(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|(_, o)| matches!(o, LayerOutcome::Scheduled))
            .count()
    }

    /// Layers scheduled through a fallback rung.
    pub fn degraded_count(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|(_, o)| matches!(o, LayerOutcome::Degraded { .. }))
            .count()
    }

    /// Layers with no usable mapping.
    pub fn failed_count(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|(_, o)| matches!(o, LayerOutcome::Failed { .. }))
            .count()
    }

    /// Whether every layer was scheduled at full quality.
    pub fn is_complete(&self) -> bool {
        self.failed_count() == 0
    }

    /// Component-wise energy summed over layers.
    pub fn energy_breakdown(&self) -> EnergyBreakdown {
        let mut total = EnergyBreakdown::default();
        for l in &self.layers {
            total.mac_pj += l.energy.mac_pj;
            total.rf_pj += l.energy.rf_pj;
            total.glb_pj += l.energy.glb_pj;
            total.noc_pj += l.energy.noc_pj;
            total.dram_pj += l.energy.dram_pj;
            total.crypto_pj += l.energy.crypto_pj;
        }
        total
    }

    /// Total off-chip traffic in bits, data + authentication overhead.
    pub fn total_dram_bits(&self) -> u64 {
        self.layers
            .iter()
            .map(|l| l.data_dram_bits + l.extra_bits)
            .sum()
    }
}

/// The design `algorithm` schedules on: the unsecure baseline searches
/// without the crypto throttle.
fn for_algorithm(arch: &Architecture, algorithm: Algorithm) -> Architecture {
    match algorithm {
        Algorithm::Unsecure => arch.clone().without_crypto(),
        _ => arch.clone(),
    }
}

/// The SecureLoop scheduler: architecture + search budgets.
#[derive(Debug, Clone)]
pub struct Scheduler {
    arch: Architecture,
    search: SearchConfig,
    annealing: AnnealingConfig,
    cache: Option<Arc<CandidateCache>>,
    siblings: Arc<[Architecture]>,
    overheads: Arc<OverheadCache>,
}

impl Scheduler {
    /// A scheduler with the paper's default budgets (top-k = 6,
    /// 1000 SA iterations).
    pub fn new(arch: Architecture) -> Self {
        Scheduler {
            arch,
            search: SearchConfig::paper_default(),
            annealing: AnnealingConfig::paper_default(),
            cache: None,
            siblings: Arc::new([]),
            overheads: Arc::new(OverheadCache::new()),
        }
    }

    /// Replace the mapper budget.
    pub fn with_search(mut self, search: SearchConfig) -> Self {
        self.search = search;
        self
    }

    /// Replace the annealing budget.
    pub fn with_annealing(mut self, annealing: AnnealingConfig) -> Self {
        self.annealing = annealing;
        self
    }

    /// Attach a shared cross-design candidate cache: step-1 searches
    /// consult it before computing and populate it on a miss. One cache
    /// instance may serve many schedulers (a whole DSE sweep)
    /// concurrently.
    pub fn with_candidate_cache(mut self, cache: Arc<CandidateCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Name the other designs of the sweep this scheduler belongs to. A
    /// step-1 search that misses the candidate cache in random mode also
    /// covers the siblings that share its draw stream, so their later
    /// searches hit (see `secureloop_mapper::search_cached`). Without a
    /// candidate cache this changes nothing.
    pub fn with_siblings(mut self, siblings: Arc<[Architecture]>) -> Self {
        self.siblings = siblings;
        self
    }

    /// Share a per-tensor AuthBlock overhead memo with this scheduler.
    /// Its key fully determines its value, so one memo may serve every
    /// design point of a sweep (see [`OverheadCache`]). Schedulers
    /// built without this carry a private memo.
    pub fn with_overhead_cache(mut self, overheads: Arc<OverheadCache>) -> Self {
        self.overheads = overheads;
        self
    }

    /// The architecture being scheduled.
    pub fn arch(&self) -> &Architecture {
        &self.arch
    }

    /// Step 1 only: the per-layer top-k candidates for `algorithm`
    /// (the unsecure baseline searches without the crypto throttle).
    pub fn candidates(&self, network: &Network, algorithm: Algorithm) -> CandidateSet {
        let arch = self.arch_for(algorithm);
        let siblings: Vec<Architecture> = self
            .siblings
            .iter()
            .map(|a| for_algorithm(a, algorithm))
            .collect();
        find_candidates_cached(
            network,
            &arch,
            &siblings,
            &self.search,
            self.cache.as_deref(),
        )
    }

    fn arch_for(&self, algorithm: Algorithm) -> Architecture {
        for_algorithm(&self.arch, algorithm)
    }

    /// Schedule `network` with `algorithm`.
    ///
    /// # Errors
    ///
    /// Fails with [`SecureLoopError::Schedule`] only when *no* layer of
    /// the network yields a usable mapping. Individual infeasible
    /// layers are isolated as [`LayerOutcome::Failed`] instead.
    pub fn schedule(
        &self,
        network: &Network,
        algorithm: Algorithm,
    ) -> Result<NetworkSchedule, SecureLoopError> {
        let candidates = self.candidates(network, algorithm);
        self.schedule_with_candidates(network, algorithm, &candidates)
    }

    /// Schedule with precomputed step-1 candidates (reuses the mapper
    /// output across algorithms — the candidates must come from
    /// [`Scheduler::candidates`] for the same algorithm family).
    ///
    /// # Errors
    ///
    /// Fails with [`SecureLoopError::Schedule`] only when no layer has
    /// any candidate; per-layer failures are isolated via
    /// [`LayerOutcome::Failed`].
    pub fn schedule_with_candidates(
        &self,
        network: &Network,
        algorithm: Algorithm,
        candidates: &CandidateSet,
    ) -> Result<NetworkSchedule, SecureLoopError> {
        SCHEDULES.incr();
        let mut span = telemetry::span(
            "scheduler",
            format!("{}/{}", network.name(), algorithm.name()),
        );
        let arch = self.arch_for(algorithm);
        // Tag the schedule (and thus every search under it) with its
        // protection scheme so traces can be sliced per backend.
        span.add_field(
            "scheme",
            arch.crypto().map(|c| c.scheme.name()).unwrap_or("none"),
        );
        let mut layers: Vec<Option<LayerResult>> = vec![None; network.len()];
        let mut outcomes: Vec<(String, LayerOutcome)> = network
            .layers()
            .iter()
            .map(|l| (l.name().to_string(), LayerOutcome::Scheduled))
            .collect();
        let mut overhead = OverheadBreakdown::default();

        for seg in network.segments() {
            // Split the segment into maximal runs of schedulable layers;
            // a failed layer breaks tensor coupling on both sides, so
            // its neighbours are rehashed at the run boundary exactly as
            // at a normal segment boundary.
            let mut runs: Vec<Vec<usize>> = Vec::new();
            let mut current: Vec<usize> = Vec::new();
            for &li in &seg.layers {
                let c = &candidates.per_layer[li];
                if c.best().is_some() {
                    current.push(li);
                } else {
                    let error = c
                        .error
                        .as_ref()
                        .map(|e| e.to_string())
                        .unwrap_or_else(|| "no valid mapping found".to_string());
                    outcomes[li].1 = LayerOutcome::Failed { error };
                    if !current.is_empty() {
                        runs.push(std::mem::take(&mut current));
                    }
                }
            }
            if !current.is_empty() {
                runs.push(current);
            }

            for run in &runs {
                let (choice, seg_eval, fell_back) =
                    self.evaluate_run(network, &arch, algorithm, run, candidates);

                overhead.add(&seg_eval.breakdown);
                for (pos, &li) in run.iter().enumerate() {
                    let layer = &network.layers()[li];
                    let eval = &seg_eval.layer_evals[pos];
                    let extra = seg_eval.extra_bits[pos];
                    let mapping = candidates.per_layer[li].options[choice[pos]].0.clone();
                    layers[li] = Some(LayerResult {
                        name: layer.name().to_string(),
                        latency_cycles: eval.latency_cycles,
                        energy_pj: eval.energy_pj,
                        extra_bits: extra,
                        data_dram_bits: eval.dram_total_bits - extra,
                        macs: layer.macs(),
                        utilization: eval.utilization,
                        mapping,
                        energy: eval.energy,
                    });

                    let c = &candidates.per_layer[li];
                    let mut reasons: Vec<&str> = Vec::new();
                    if c.tier == SearchTier::Greedy {
                        reasons.push("mapper degraded to greedy construction");
                    }
                    if c.truncated {
                        reasons.push("search truncated by deadline");
                    }
                    if fell_back {
                        reasons.push("segment fell back to tile-as-AuthBlock");
                    }
                    if !reasons.is_empty() {
                        outcomes[li].1 = LayerOutcome::Degraded {
                            reason: reasons.join("; "),
                        };
                    }
                }
            }
        }

        let layers: Vec<LayerResult> = layers.into_iter().flatten().collect();
        let (mut n_sched, mut n_degr, mut n_fail) = (0u64, 0u64, 0u64);
        for (_, o) in &outcomes {
            match o {
                LayerOutcome::Scheduled => n_sched += 1,
                LayerOutcome::Degraded { .. } => n_degr += 1,
                LayerOutcome::Failed { .. } => n_fail += 1,
            }
        }
        LAYERS_SCHEDULED.add(n_sched);
        LAYERS_DEGRADED.add(n_degr);
        LAYERS_FAILED.add(n_fail);
        span.add_field("scheduled", n_sched);
        span.add_field("degraded", n_degr);
        span.add_field("failed", n_fail);
        if layers.is_empty() && !network.is_empty() {
            span.add_field("error", "no usable mapping for any layer");
            return Err(SecureLoopError::Schedule(format!(
                "no layer of '{}' produced a usable mapping under {}",
                network.name(),
                algorithm
            )));
        }
        Ok(NetworkSchedule {
            network: network.name().to_string(),
            algorithm,
            arch_summary: arch.summary(),
            total_latency_cycles: layers.iter().map(|l| l.latency_cycles).sum(),
            total_energy_pj: layers.iter().map(|l| l.energy_pj).sum(),
            layers,
            outcomes,
            overhead,
        })
    }

    /// Evaluate one run of schedulable layers. Returns the chosen
    /// candidate index per layer, the evaluation, and whether the
    /// final fallback rung (tile-as-AuthBlock) had to be taken because
    /// the requested strategy produced a non-finite cost.
    fn evaluate_run(
        &self,
        network: &Network,
        arch: &Architecture,
        algorithm: Algorithm,
        run: &[usize],
        candidates: &CandidateSet,
    ) -> (Vec<usize>, SegmentEvaluation, bool) {
        let cache = &*self.overheads;
        let best_picks = |run: &[usize]| -> Vec<(Mapping, Evaluation)> {
            run.iter()
                .map(|&li| {
                    candidates.per_layer[li]
                        .best()
                        .expect("run contains only layers with candidates")
                        .clone()
                })
                .collect()
        };
        match algorithm {
            Algorithm::Unsecure => {
                // No authentication: best candidate per layer, no extra
                // bits.
                let picks = best_picks(run);
                let evals: Vec<_> = picks.iter().map(|(_, e)| e.clone()).collect();
                (
                    vec![0; run.len()],
                    SegmentEvaluation {
                        extra_bits: vec![0; run.len()],
                        breakdown: OverheadBreakdown::default(),
                        total_latency: evals.iter().map(|e| e.latency_cycles).sum(),
                        total_energy: evals.iter().map(|e| e.energy_pj).sum(),
                        layer_evals: evals,
                    },
                    false,
                )
            }
            Algorithm::CryptTileSingle => {
                let picks = best_picks(run);
                let e =
                    evaluate_segment(network, arch, run, &picks, StrategyMode::TileRehash, cache);
                (vec![0; run.len()], e, false)
            }
            Algorithm::CryptOptSingle => {
                let picks = best_picks(run);
                let e = evaluate_segment(network, arch, run, &picks, StrategyMode::Optimal, cache);
                if e.total_energy.is_finite() {
                    (vec![0; run.len()], e, false)
                } else {
                    // Final rung of the ladder: retry with the always-
                    // feasible tile-as-AuthBlock strategy.
                    let e = evaluate_segment(
                        network,
                        arch,
                        run,
                        &picks,
                        StrategyMode::TileRehash,
                        cache,
                    );
                    (vec![0; run.len()], e, true)
                }
            }
            Algorithm::CryptOptCross => {
                let out = anneal_segment(network, arch, run, candidates, &self.annealing, cache);
                if out.eval.total_energy.is_finite() {
                    (out.choice, out.eval, false)
                } else {
                    let picks = best_picks(run);
                    let e = evaluate_segment(
                        network,
                        arch,
                        run,
                        &picks,
                        StrategyMode::TileRehash,
                        cache,
                    );
                    (vec![0; run.len()], e, true)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use secureloop_crypto::{CryptoConfig, EngineClass};
    use secureloop_mapper::{FaultPlan, FaultScope};
    use secureloop_workload::zoo;

    fn quick_scheduler(secure: bool) -> Scheduler {
        let mut arch = Architecture::eyeriss_base();
        if secure {
            arch = arch.with_crypto(CryptoConfig::new(EngineClass::Parallel, 3));
        }
        Scheduler::new(arch)
            .with_search(SearchConfig::quick())
            .with_annealing(AnnealingConfig::quick())
    }

    #[test]
    fn algorithm_ordering_on_alexnet() {
        let net = zoo::alexnet_conv();
        let s = quick_scheduler(true);
        let unsec = s.schedule(&net, Algorithm::Unsecure).expect("schedules");
        let tile = s
            .schedule(&net, Algorithm::CryptTileSingle)
            .expect("schedules");
        let opt = s
            .schedule(&net, Algorithm::CryptOptSingle)
            .expect("schedules");
        let cross = s
            .schedule(&net, Algorithm::CryptOptCross)
            .expect("schedules");

        // Secure designs are never faster than the unsecure baseline.
        assert!(tile.total_latency_cycles >= unsec.total_latency_cycles);
        // Each scheduler step improves (or maintains) the previous one
        // (paper Fig. 11a ordering).
        assert!(
            opt.total_latency_cycles <= tile.total_latency_cycles,
            "opt {} vs tile {}",
            opt.total_latency_cycles,
            tile.total_latency_cycles
        );
        assert!(cross.total_latency_cycles <= opt.total_latency_cycles);
        // Traffic ordering too (Fig. 11b).
        assert!(opt.overhead.total_bits() <= tile.overhead.total_bits());
        // Unsecure has no overhead.
        assert_eq!(unsec.overhead.total_bits(), 0);
        assert!(unsec.layers.iter().all(|l| l.extra_bits == 0));
    }

    #[test]
    fn schedule_reports_every_layer() {
        let net = zoo::alexnet_conv();
        let s = quick_scheduler(true);
        let r = s
            .schedule(&net, Algorithm::CryptOptSingle)
            .expect("schedules");
        assert_eq!(r.layers.len(), 5);
        assert_eq!(r.outcomes.len(), 5);
        assert!(r.is_complete());
        assert_eq!(r.failed_count(), 0);
        assert_eq!(r.scheduled_count() + r.degraded_count(), 5);
        assert_eq!(
            r.total_latency_cycles,
            r.layers.iter().map(|l| l.latency_cycles).sum::<u64>()
        );
        assert_eq!(r.total_macs(), net.total_macs());
        assert!(r.edp() > 0.0);
        assert!(r.total_dram_bits() > 0);
    }

    #[test]
    fn unsecure_baseline_strips_crypto() {
        let net = zoo::alexnet_conv();
        let s = quick_scheduler(true);
        let r = s.schedule(&net, Algorithm::Unsecure).expect("schedules");
        assert!(r.arch_summary.contains("unsecure"));
    }

    #[test]
    fn algorithm_display_names() {
        assert_eq!(Algorithm::CryptTileSingle.to_string(), "Crypt-Tile-Single");
        assert_eq!(Algorithm::SECURE.len(), 3);
        for alg in [
            Algorithm::Unsecure,
            Algorithm::CryptTileSingle,
            Algorithm::CryptOptSingle,
            Algorithm::CryptOptCross,
        ] {
            assert_eq!(Algorithm::from_name(alg.name()), Some(alg));
        }
        assert_eq!(Algorithm::from_name("nonsense"), None);
    }

    /// A secure quick scheduler on an architecture of its own, so the
    /// fault plans the tests below scope to it cannot reach the other
    /// tests scheduling AlexNet at the same time.
    fn faulty_scheduler() -> Scheduler {
        let arch = Architecture::eyeriss_base()
            .with_crypto(CryptoConfig::new(EngineClass::Parallel, 3))
            .with_name(FAULTY);
        Scheduler::new(arch)
            .with_search(SearchConfig::quick())
            .with_annealing(AnnealingConfig::quick())
    }

    const FAULTY: &str = "fault-target";

    #[test]
    fn injected_failure_is_isolated_not_fatal() {
        let net = zoo::alexnet_conv();
        let s = faulty_scheduler();
        let _scope = FaultScope::inject(FaultPlan::fail(["conv2", "conv4"]).for_arch(FAULTY));
        for alg in [
            Algorithm::CryptTileSingle,
            Algorithm::CryptOptSingle,
            Algorithm::CryptOptCross,
        ] {
            let r = s
                .schedule(&net, alg)
                .expect("partial schedule still succeeds");
            assert_eq!(r.failed_count(), 2, "{alg}");
            assert_eq!(r.layers.len(), 3, "{alg}");
            assert!(!r.is_complete());
            let failed: Vec<_> = r
                .outcomes
                .iter()
                .filter(|(_, o)| !o.is_scheduled())
                .map(|(n, _)| n.as_str())
                .collect();
            assert_eq!(failed, vec!["conv2", "conv4"], "{alg}");
            assert!(r.total_latency_cycles > 0);
        }
    }

    #[test]
    fn all_layers_failing_is_an_error() {
        let net = zoo::alexnet_conv();
        let s = faulty_scheduler();
        let _scope = FaultScope::inject(
            FaultPlan::fail(["conv1", "conv2", "conv3", "conv4", "conv5"]).for_arch(FAULTY),
        );
        let err = s.schedule(&net, Algorithm::CryptOptSingle).unwrap_err();
        assert!(matches!(err, SecureLoopError::Schedule(_)));
        assert!(err.to_string().contains("AlexNet"));
    }

    #[test]
    fn guided_schedules_depend_only_on_config_and_inputs() {
        // Scheduling twice on one guided scheduler gives the same
        // schedule: nothing a run learns carries over to the next.
        let net = zoo::alexnet_conv();
        let arch =
            Architecture::eyeriss_base().with_crypto(CryptoConfig::new(EngineClass::Parallel, 3));
        let s = Scheduler::new(arch)
            .with_search(SearchConfig::quick().with_mode(secureloop_mapper::SearchMode::Guided))
            .with_annealing(AnnealingConfig::quick());
        let first = s
            .schedule(&net, Algorithm::CryptOptCross)
            .expect("schedules");
        let second = s
            .schedule(&net, Algorithm::CryptOptCross)
            .expect("schedules");
        assert!(first.is_complete());
        assert_eq!(
            crate::checkpoint::schedule_to_json(&first).pretty(),
            crate::checkpoint::schedule_to_json(&second).pretty()
        );
    }

    #[test]
    fn layer_outcome_labels() {
        assert_eq!(LayerOutcome::Scheduled.label(), "scheduled");
        assert_eq!(
            LayerOutcome::Degraded { reason: "x".into() }.label(),
            "degraded"
        );
        assert_eq!(LayerOutcome::Failed { error: "x".into() }.label(), "failed");
        assert!(LayerOutcome::Scheduled.is_scheduled());
        assert!(!LayerOutcome::Failed { error: "x".into() }.is_scheduled());
    }
}
