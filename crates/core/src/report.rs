//! Machine-readable experiment output (JSON and CSV), mirroring the
//! artifact's per-design stats files.

use std::io::{self, Write};

use secureloop_json::Json;
use secureloop_telemetry::Snapshot;

use crate::dse::SweepRun;
use crate::scheduler::{LayerOutcome, NetworkSchedule};

/// Serialisable snapshot of a [`NetworkSchedule`].
#[derive(Debug, Clone)]
pub struct ScheduleReport {
    /// Network name.
    pub network: String,
    /// Algorithm name as printed in the paper.
    pub algorithm: String,
    /// One-line architecture summary.
    pub arch: String,
    /// Total latency in cycles.
    pub latency_cycles: u64,
    /// Total energy in pJ.
    pub energy_pj: f64,
    /// Energy-delay product.
    pub edp: f64,
    /// Hash traffic in bits.
    pub hash_bits: u64,
    /// Redundant-read traffic in bits.
    pub redundant_bits: u64,
    /// Rehash traffic in bits.
    pub rehash_bits: u64,
    /// Layers scheduled at full quality.
    pub scheduled: usize,
    /// Layers scheduled through a fallback rung.
    pub degraded: usize,
    /// Layers with no usable mapping (absent from `layers`).
    pub failed: usize,
    /// One `(layer, status, detail)` row per degraded or failed layer.
    pub issues: Vec<(String, String, String)>,
    /// Per-layer rows.
    pub layers: Vec<LayerReport>,
}

/// Serialisable per-layer row.
#[derive(Debug, Clone)]
pub struct LayerReport {
    /// Layer name.
    pub name: String,
    /// Latency in cycles.
    pub latency_cycles: u64,
    /// Energy in pJ.
    pub energy_pj: f64,
    /// Authentication overhead bits charged to this layer.
    pub extra_bits: u64,
    /// Data traffic bits.
    pub data_dram_bits: u64,
    /// PE utilisation.
    pub utilization: f64,
    /// The chosen loopnest, pretty-printed in the Fig. 1c style.
    pub loopnest: String,
    /// The same loopnest in the compact one-line map format
    /// (parseable back via `str::parse::<Mapping>`).
    pub mapping: String,
}

impl From<&NetworkSchedule> for ScheduleReport {
    fn from(s: &NetworkSchedule) -> Self {
        ScheduleReport {
            network: s.network.clone(),
            algorithm: s.algorithm.to_string(),
            arch: s.arch_summary.clone(),
            latency_cycles: s.total_latency_cycles,
            energy_pj: s.total_energy_pj,
            edp: s.edp(),
            hash_bits: s.overhead.hash_bits,
            redundant_bits: s.overhead.redundant_bits,
            rehash_bits: s.overhead.rehash_bits,
            scheduled: s.scheduled_count(),
            degraded: s.degraded_count(),
            failed: s.failed_count(),
            issues: s
                .outcomes
                .iter()
                .filter_map(|(name, o)| match o {
                    LayerOutcome::Scheduled => None,
                    LayerOutcome::Degraded { reason } => {
                        Some((name.clone(), "degraded".to_string(), reason.clone()))
                    }
                    LayerOutcome::Failed { error } => {
                        Some((name.clone(), "failed".to_string(), error.clone()))
                    }
                })
                .collect(),
            layers: s
                .layers
                .iter()
                .map(|l| LayerReport {
                    name: l.name.clone(),
                    latency_cycles: l.latency_cycles,
                    energy_pj: l.energy_pj,
                    extra_bits: l.extra_bits,
                    data_dram_bits: l.data_dram_bits,
                    utilization: l.utilization,
                    loopnest: l.mapping.to_string(),
                    mapping: secureloop_loopnest::CompactMapping(&l.mapping).to_string(),
                })
                .collect(),
        }
    }
}

impl ScheduleReport {
    /// The report as a JSON value (field order matches the struct).
    pub fn to_json_value(&self) -> Json {
        Json::obj()
            .field("network", self.network.as_str())
            .field("algorithm", self.algorithm.as_str())
            .field("arch", self.arch.as_str())
            .field("latency_cycles", self.latency_cycles)
            .field("energy_pj", self.energy_pj)
            .field("edp", self.edp)
            .field("hash_bits", self.hash_bits)
            .field("redundant_bits", self.redundant_bits)
            .field("rehash_bits", self.rehash_bits)
            .field("scheduled", self.scheduled)
            .field("degraded", self.degraded)
            .field("failed", self.failed)
            .field(
                "issues",
                Json::Arr(
                    self.issues
                        .iter()
                        .map(|(layer, status, detail)| {
                            Json::obj()
                                .field("layer", layer.as_str())
                                .field("status", status.as_str())
                                .field("detail", detail.as_str())
                        })
                        .collect(),
                ),
            )
            .field(
                "layers",
                Json::Arr(self.layers.iter().map(LayerReport::to_json_value).collect()),
            )
    }
}

impl LayerReport {
    /// The per-layer row as a JSON value.
    pub fn to_json_value(&self) -> Json {
        Json::obj()
            .field("name", self.name.as_str())
            .field("latency_cycles", self.latency_cycles)
            .field("energy_pj", self.energy_pj)
            .field("extra_bits", self.extra_bits)
            .field("data_dram_bits", self.data_dram_bits)
            .field("utilization", self.utilization)
            .field("loopnest", self.loopnest.as_str())
            .field("mapping", self.mapping.as_str())
    }
}

/// Pretty JSON for one schedule.
pub fn to_json(schedule: &NetworkSchedule) -> String {
    ScheduleReport::from(schedule).to_json_value().pretty()
}

/// Pretty JSON for one schedule with a `telemetry` summary appended —
/// what the CLI emits under `--json` so the search statistics travel
/// with the result they explain.
pub fn to_json_with_telemetry(schedule: &NetworkSchedule, snap: &Snapshot) -> String {
    ScheduleReport::from(schedule)
        .to_json_value()
        .field("telemetry", telemetry_summary_json(snap))
        .pretty()
}

/// JSON value for one DSE sweep: per-design rows (area, latency,
/// Pareto membership), the skipped designs, and the sweep accounting —
/// with checkpoint-restored design points (`reused`) and per-layer
/// candidate-cache hits reported as the *separate* counters they are.
pub fn sweep_to_json_value(sweep: &SweepRun, front: &[usize]) -> Json {
    let designs = sweep
        .results
        .iter()
        .enumerate()
        .map(|(i, r)| {
            Json::obj()
                .field("label", r.label.as_str())
                .field("area_mm2", r.area_mm2())
                .field("latency_cycles", r.latency())
                .field("energy_pj", r.schedule.total_energy_pj)
                .field("edp", r.schedule.edp())
                .field("pareto", front.contains(&i))
        })
        .collect();
    let skipped = sweep
        .skipped
        .iter()
        .map(|(label, error)| {
            Json::obj()
                .field("label", label.as_str())
                .field("error", error.as_str())
        })
        .collect();
    let poisoned = sweep
        .poisoned
        .iter()
        .map(|(label, cause)| {
            Json::obj()
                .field("label", label.as_str())
                .field("cause", cause.as_str())
        })
        .collect();
    Json::obj()
        .field("designs", Json::Arr(designs))
        .field(
            "pareto_front",
            Json::Arr(front.iter().map(|&i| Json::from(i as u64)).collect()),
        )
        .field("skipped", Json::Arr(skipped))
        .field("poisoned", Json::Arr(poisoned))
        .field("interrupted", sweep.interrupted)
        .field("degraded_persistence", sweep.degraded_persistence)
        .field("evaluated", sweep.evaluated)
        .field("reused", sweep.reused)
        .field("cache_hits", sweep.cache_hits)
        .field("cache_misses", sweep.cache_misses)
        .field("cache_hit_rate", sweep.cache_hit_rate())
        .field(
            "warnings",
            Json::Arr(
                sweep
                    .warnings
                    .iter()
                    .map(|w| Json::from(w.as_str()))
                    .collect(),
            ),
        )
}

/// Pretty JSON for one DSE sweep with the telemetry summary appended —
/// what `secureloop dse --json` emits.
pub fn sweep_to_json_with_telemetry(sweep: &SweepRun, front: &[usize], snap: &Snapshot) -> String {
    sweep_to_json_value(sweep, front)
        .field("telemetry", telemetry_summary_json(snap))
        .pretty()
}

/// Sum of the four temperature-quartile counters under `prefix`
/// (`anneal.proposals.` / `anneal.accepted.`), plus the per-quartile
/// values q0..q3 (q0 is the hottest quarter of the schedule).
fn quartiles(snap: &Snapshot, prefix: &str) -> (u64, [u64; 4]) {
    let mut q = [0u64; 4];
    for (i, slot) in q.iter_mut().enumerate() {
        *slot = snap.counter(&format!("{prefix}q{i}"));
    }
    (q.iter().sum(), q)
}

fn rate(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Distil a telemetry [`Snapshot`] into the report-facing summary:
/// mapper effort and reject causes, search-tier outcomes, AuthBlock
/// optimiser work, annealing acceptance by temperature quartile, and
/// DSE sweep accounting. Sections with zero activity still appear (as
/// zeros) so downstream parsers see a stable shape.
pub fn telemetry_summary_json(snap: &Snapshot) -> Json {
    let strip = |prefix: &str| {
        let mut obj = Json::obj();
        for c in snap.counters_with_prefix(prefix) {
            obj = obj.field(&c.name[prefix.len()..], c.value);
        }
        obj
    };

    let mapper = Json::obj()
        .field("searches", snap.counter("mapper.searches"))
        .field("draws", snap.counter("mapper.draws"))
        .field(
            "samples_evaluated",
            snap.counter("mapper.samples_evaluated"),
        )
        .field("samples_valid", snap.counter("mapper.samples_valid"))
        .field("truncated", snap.counter("mapper.truncated"))
        .field("rejects", strip("mapper.reject."))
        .field("tiers", strip("mapper.tier."));

    let authblock = Json::obj()
        .field("optimize_runs", snap.counter("authblock.optimize_runs"))
        .field(
            "congruence_calls",
            snap.counter("authblock.congruence_calls"),
        )
        .field(
            "candidates_considered",
            snap.counter("authblock.candidates_considered"),
        )
        .field(
            "chosen_redundant_bits",
            snap.counter("authblock.chosen_redundant_bits"),
        );

    let hits = snap.counter("scheduler.overhead_cache_hits");
    let misses = snap.counter("scheduler.overhead_cache_misses");
    let scheduler = Json::obj()
        .field("schedules", snap.counter("scheduler.schedules"))
        .field(
            "layers_scheduled",
            snap.counter("scheduler.layers_scheduled"),
        )
        .field("layers_degraded", snap.counter("scheduler.layers_degraded"))
        .field("layers_failed", snap.counter("scheduler.layers_failed"))
        .field("overhead_cache_hits", hits)
        .field("overhead_cache_misses", misses)
        .field("overhead_cache_hit_rate", rate(hits, hits + misses));

    let (proposals, prop_q) = quartiles(snap, "anneal.proposals.");
    let (accepted, acc_q) = quartiles(snap, "anneal.accepted.");
    let by_quartile: Vec<Json> = prop_q
        .iter()
        .zip(&acc_q)
        .map(|(&p, &a)| Json::from(rate(a, p)))
        .collect();
    // Each run is one chain, so `restarts` (kept for the JSON shape)
    // equals `runs`.
    let runs = snap.counter("anneal.runs");
    let annealing = Json::obj()
        .field("runs", runs)
        .field("restarts", runs)
        .field("proposals", proposals)
        .field("accepted", accepted)
        .field("acceptance_rate", rate(accepted, proposals))
        .field("acceptance_by_quartile", Json::Arr(by_quartile));

    let cache_hits = snap.counter("dse.cache_hit");
    let cache_misses = snap.counter("dse.cache_miss");
    let dse = Json::obj()
        .field("designs_evaluated", snap.counter("dse.designs_evaluated"))
        .field("designs_reused", snap.counter("dse.designs_reused"))
        .field("designs_skipped", snap.counter("dse.designs_skipped"))
        .field("designs_poisoned", snap.counter("dse.designs_poisoned"))
        .field("interrupted", snap.counter("dse.interrupted"))
        .field("cache_hits", cache_hits)
        .field("cache_misses", cache_misses)
        .field(
            "cache_hit_rate",
            rate(cache_hits, cache_hits + cache_misses),
        );

    let supervisor = Json::obj()
        .field("retries", snap.counter("supervisor.retries"))
        .field("panics", snap.counter("supervisor.panics"))
        .field("timeouts", snap.counter("supervisor.timeouts"))
        .field("poisoned", snap.counter("supervisor.poisoned"))
        .field("cancelled", snap.counter("supervisor.cancelled"));

    Json::obj()
        .field("mapper", mapper)
        .field("authblock", authblock)
        .field("scheduler", scheduler)
        .field("annealing", annealing)
        .field("dse", dse)
        .field("supervisor", supervisor)
}

/// The same summary for the human-readable table output.
pub fn telemetry_summary_text(snap: &Snapshot) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "telemetry:");
    let _ = writeln!(
        out,
        "  mapper    : {} samples ({} valid) across {} searches",
        snap.counter("mapper.samples_evaluated"),
        snap.counter("mapper.samples_valid"),
        snap.counter("mapper.searches"),
    );
    let rejects: Vec<String> = snap
        .counters_with_prefix("mapper.reject.")
        .filter(|c| c.value > 0)
        .map(|c| format!("{} {}", &c.name["mapper.reject.".len()..], c.value))
        .collect();
    if !rejects.is_empty() {
        let _ = writeln!(out, "  rejects   : {}", rejects.join(", "));
    }
    let tiers: Vec<String> = snap
        .counters_with_prefix("mapper.tier.")
        .filter(|c| c.value > 0)
        .map(|c| format!("{} {}", &c.name["mapper.tier.".len()..], c.value))
        .collect();
    if !tiers.is_empty() {
        let _ = writeln!(out, "  tiers     : {}", tiers.join(", "));
    }
    let _ = writeln!(
        out,
        "  authblock : {} optimizer runs, {} candidates, {} congruence calls",
        snap.counter("authblock.optimize_runs"),
        snap.counter("authblock.candidates_considered"),
        snap.counter("authblock.congruence_calls"),
    );
    let (proposals, prop_q) = quartiles(snap, "anneal.proposals.");
    let (accepted, acc_q) = quartiles(snap, "anneal.accepted.");
    if proposals > 0 {
        let per_q: Vec<String> = prop_q
            .iter()
            .zip(&acc_q)
            .map(|(&p, &a)| format!("{:.0}%", rate(a, p) * 100.0))
            .collect();
        let _ = writeln!(
            out,
            "  annealing : {} proposals, {} accepted ({:.0}% overall; by quartile {})",
            proposals,
            accepted,
            rate(accepted, proposals) * 100.0,
            per_q.join(" / "),
        );
    }
    let hits = snap.counter("scheduler.overhead_cache_hits");
    let misses = snap.counter("scheduler.overhead_cache_misses");
    if hits + misses > 0 {
        let _ = writeln!(
            out,
            "  cache     : {:.0}% overhead-cache hit rate ({} hits / {} misses)",
            rate(hits, hits + misses) * 100.0,
            hits,
            misses,
        );
    }
    let chits = snap.counter("dse.cache_hit");
    let cmisses = snap.counter("dse.cache_miss");
    if chits + cmisses > 0 {
        let _ = writeln!(
            out,
            "  dse cache : {:.0}% candidate-cache hit rate ({} hits / {} misses)",
            rate(chits, chits + cmisses) * 100.0,
            chits,
            cmisses,
        );
    }
    let retries = snap.counter("supervisor.retries");
    let panics = snap.counter("supervisor.panics");
    let timeouts = snap.counter("supervisor.timeouts");
    let poisoned = snap.counter("supervisor.poisoned");
    let cancelled = snap.counter("supervisor.cancelled");
    if retries + panics + timeouts + poisoned + cancelled > 0 {
        let _ = writeln!(
            out,
            "  supervisor: {retries} retries, {panics} panics caught, {timeouts} timeouts, {poisoned} poisoned, {cancelled} cancelled",
        );
    }
    out
}

/// Timeloop-style detailed per-layer stats text for one schedule: the
/// human-readable stats file the artifact drops next to each run.
pub fn layer_stats_text(schedule: &NetworkSchedule) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "=== {} / {} ===\narchitecture: {}\n",
        schedule.network, schedule.algorithm, schedule.arch_summary
    );
    for l in &schedule.layers {
        let _ = writeln!(out, "--- {} ---", l.name);
        let _ = writeln!(out, "  macs             : {}", l.macs);
        let _ = writeln!(out, "  latency          : {} cycles", l.latency_cycles);
        let _ = writeln!(out, "  energy           : {:.1} nJ", l.energy_pj / 1e3);
        let _ = writeln!(out, "  pe utilization   : {:.1} %", l.utilization * 100.0);
        let _ = writeln!(
            out,
            "  dram traffic     : {:.2} KiB data + {:.2} KiB auth",
            l.data_dram_bits as f64 / 8192.0,
            l.extra_bits as f64 / 8192.0
        );
        let _ = writeln!(
            out,
            "  macs/cycle       : {:.2}",
            l.macs as f64 / l.latency_cycles as f64
        );
    }
    let _ = writeln!(
        out,
        "=== total: {} cycles, {:.1} uJ, EDP {:.3e} ===",
        schedule.total_latency_cycles,
        schedule.total_energy_pj / 1e6,
        schedule.edp()
    );
    if !schedule.is_complete() {
        let _ = writeln!(
            out,
            "=== outcomes: {} scheduled, {} degraded, {} failed ===",
            schedule.scheduled_count(),
            schedule.degraded_count(),
            schedule.failed_count()
        );
    }
    out
}

/// Write a summary CSV (one row per schedule).
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn write_summary_csv<W: Write>(mut w: W, schedules: &[NetworkSchedule]) -> io::Result<()> {
    writeln!(
        w,
        "network,algorithm,arch,latency_cycles,energy_pj,edp,hash_bits,redundant_bits,rehash_bits"
    )?;
    for s in schedules {
        writeln!(
            w,
            "{},{},\"{}\",{},{:.1},{:.3e},{},{},{}",
            s.network,
            s.algorithm,
            s.arch_summary,
            s.total_latency_cycles,
            s.total_energy_pj,
            s.edp(),
            s.overhead.hash_bits,
            s.overhead.redundant_bits,
            s.overhead.rehash_bits
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annealing::AnnealingConfig;
    use crate::scheduler::{Algorithm, Scheduler};
    use secureloop_arch::Architecture;
    use secureloop_crypto::{CryptoConfig, EngineClass};
    use secureloop_mapper::SearchConfig;
    use secureloop_workload::zoo;

    fn sample() -> NetworkSchedule {
        let arch =
            Architecture::eyeriss_base().with_crypto(CryptoConfig::new(EngineClass::Parallel, 3));
        Scheduler::new(arch)
            .with_search(SearchConfig::quick())
            .with_annealing(AnnealingConfig::quick())
            .schedule(&zoo::alexnet_conv(), Algorithm::CryptOptSingle)
            .expect("schedules")
    }

    #[test]
    fn json_roundtrips_key_fields() {
        let s = sample();
        let j = to_json(&s);
        let v = Json::parse(&j).unwrap();
        assert_eq!(v["network"], "AlexNet");
        assert_eq!(v["algorithm"], "Crypt-Opt-Single");
        assert_eq!(v["layers"].as_array().unwrap().len(), 5);
        assert_eq!(
            v["latency_cycles"].as_u64().unwrap(),
            s.total_latency_cycles
        );
        // The loopnest travels with the report.
        assert!(v["layers"][0]["loopnest"]
            .as_str()
            .unwrap()
            .contains("mac(w, i, o)"));
    }

    #[test]
    fn stats_text_has_every_layer() {
        let s = sample();
        let text = layer_stats_text(&s);
        for l in &s.layers {
            assert!(text.contains(&format!("--- {} ---", l.name)));
        }
        assert!(text.contains("macs/cycle"));
        assert!(text.contains("=== total:"));
    }

    #[test]
    fn csv_has_header_and_rows() {
        let s = sample();
        let mut buf = Vec::new();
        write_summary_csv(&mut buf, &[s.clone(), s]).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("network,algorithm"));
        assert!(lines[1].contains("AlexNet"));
    }
}
