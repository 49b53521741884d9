//! Double-buffered pipeline replay of a tile trace.
//!
//! Models the execution the paper's §4.1 assumption idealises: at each
//! temporal step the PE array computes on the current tiles while the
//! DMA + cryptographic engines stage the next ones. Step latency is
//! `max(compute, transfer)`; transfer time is the slower of the DRAM
//! interface (total bytes) and the crypto engines (per-stream when one
//! engine group serves each datatype). A pipeline fill of one transfer
//! precedes the first compute.
//!
//! The analytical bound `max(Σ compute, Σ transfer)` equals the replay
//! exactly when demand is smooth; bursty schedules replay slower. The
//! ratio is reported as [`ReplayResult::pipeline_efficiency`].

use secureloop_arch::Architecture;

use crate::trace::Trace;

/// Outcome of replaying a trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplayResult {
    /// Simulated latency in cycles (fill + Σ per-step max).
    pub total_cycles: u64,
    /// Σ compute across steps.
    pub compute_cycles: u64,
    /// Σ transfer across steps (at the effective bandwidth).
    pub transfer_cycles: u64,
    /// Pipeline fill: the first step's transfer, paid before any
    /// compute starts.
    pub fill_cycles: u64,
}

impl ReplayResult {
    /// The analytical lower bound this replay is compared against.
    pub fn analytical_bound(&self) -> u64 {
        self.compute_cycles.max(self.transfer_cycles)
    }

    /// `analytical / simulated`: 1.0 means the paper's perfect-
    /// pipelining assumption holds exactly for this schedule.
    pub fn pipeline_efficiency(&self) -> f64 {
        self.analytical_bound() as f64 / self.total_cycles as f64
    }
}

/// Cycles the crypto engines need for `bits_by_dt` in one step: none
/// without a crypto configuration, the slowest stream when one engine
/// group serves each datatype, else the total over the shared engines.
fn crypto_cycles(arch: &Architecture, bits_by_dt: [u64; 3]) -> f64 {
    let Some(crypto) = arch.crypto() else {
        return 0.0;
    };
    match crypto.per_stream_bytes_per_cycle() {
        Some(per) => bits_by_dt
            .iter()
            .map(|&b| b as f64 / 8.0 / per)
            .fold(0.0f64, f64::max),
        None => bits_by_dt.iter().sum::<u64>() as f64 / 8.0 / crypto.total_bytes_per_cycle(),
    }
}

/// Cycles to move `bits_by_dt` through DRAM + crypto in one step.
fn transfer_cycles(arch: &Architecture, bits_by_dt: [u64; 3]) -> f64 {
    let total_bytes = bits_by_dt.iter().sum::<u64>() as f64 / 8.0;
    (total_bytes / arch.dram().bytes_per_cycle()).max(crypto_cycles(arch, bits_by_dt))
}

/// The double-buffered pipeline over `trace`'s steps. `step_cost`
/// prices one step's transfer demand (bits per datatype); it is called
/// once per step, in step order, so a stateful model (the banked DRAM's
/// open rows) sees the steps as they happen.
fn replay_with(trace: &Trace, step_cost: impl FnMut([u64; 3]) -> f64) -> ReplayResult {
    let word = u64::from(trace.word_bits);
    let mut per_step: Vec<[u64; 3]> = vec![[0; 3]; trace.steps as usize];
    for e in &trace.events {
        let i = secureloop_loopnest::dt_index(e.dt);
        per_step[e.step as usize][i] += e.words * word;
    }

    let costs: Vec<f64> = per_step.into_iter().map(step_cost).collect();
    let fill = costs.first().copied().unwrap_or(0.0);
    let mut total = fill;
    let mut transfer_sum = 0.0f64;
    for (i, &cost) in costs.iter().enumerate() {
        // Step i computes while step i+1's data is staged.
        let staged = costs.get(i + 1).copied().unwrap_or(0.0);
        transfer_sum += cost;
        total += (trace.compute_per_step as f64).max(staged);
    }

    ReplayResult {
        total_cycles: total.ceil() as u64,
        compute_cycles: trace.compute_per_step * trace.steps,
        transfer_cycles: transfer_sum.ceil() as u64,
        fill_cycles: fill.ceil() as u64,
    }
}

/// Replay `trace` on `arch` with double buffering.
pub fn replay(trace: &Trace, arch: &Architecture) -> ReplayResult {
    replay_with(trace, |bits| transfer_cycles(arch, bits))
}

/// Detailed replay: per-step transfer time comes from the banked DRAM
/// model ([`crate::dram`]) *and* the per-stream cryptographic engines,
/// instead of the flat bytes-per-cycle division — the most detailed
/// latency estimate in the stack.
///
/// Returns the same [`ReplayResult`] shape; `transfer_cycles` is the
/// simulated DRAM+crypto service time.
pub fn replay_detailed(
    trace: &Trace,
    arch: &Architecture,
    timing: crate::dram::DramTiming,
) -> ReplayResult {
    // Persistent DRAM state across steps (open rows survive), with the
    // same per-tensor address layout as `replay_dram`.
    let mut dram = crate::dram::DramSim::new(timing);
    let mut cursors = [0u64; 3];
    const TENSOR_STRIDE: u64 = 1 << 32;
    replay_with(trace, |bits| {
        let before = dram.result().cycles;
        for (i, &b) in bits.iter().enumerate() {
            if b == 0 {
                continue;
            }
            let bytes = b / 8 + u64::from(!b.is_multiple_of(8));
            dram.access((i as u64 + 1) * TENSOR_STRIDE + cursors[i], bytes);
            cursors[i] = (cursors[i] + bytes) % (16 << 20);
        }
        let dram_cycles = (dram.result().cycles - before) as f64;
        dram_cycles.max(crypto_cycles(arch, bits))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::generate_trace;
    use secureloop_crypto::{CryptoConfig, EngineClass};
    use secureloop_loopnest::{evaluate, Mapping};
    use secureloop_workload::{ConvLayer, Dim, DimMap};

    fn fixture() -> (ConvLayer, Mapping) {
        let layer = ConvLayer::builder("t")
            .input_hw(18, 18)
            .channels(8, 16)
            .kernel(3, 3)
            .build()
            .unwrap();
        let mut m = Mapping::untiled(&layer);
        m.rf = DimMap::splat(1);
        m.rf[Dim::S] = 3;
        m.rf[Dim::C] = 2;
        m.spatial_y[Dim::R] = 3;
        m.spatial_x[Dim::Q] = 8;
        m.glb[Dim::P] = 4;
        m.dram[Dim::M] = 16;
        m.dram[Dim::C] = 4;
        m.dram[Dim::P] = 4;
        m.dram[Dim::Q] = 2;
        m.dram_order = [Dim::N, Dim::M, Dim::P, Dim::Q, Dim::C, Dim::R, Dim::S];
        (layer, m)
    }

    #[test]
    fn replay_brackets_the_analytical_bound() {
        let (layer, m) = fixture();
        for arch in [
            secureloop_arch::Architecture::eyeriss_base(),
            secureloop_arch::Architecture::eyeriss_base()
                .with_crypto(CryptoConfig::new(EngineClass::Parallel, 3)),
            secureloop_arch::Architecture::eyeriss_base()
                .with_crypto(CryptoConfig::new(EngineClass::Serial, 1)),
        ] {
            let trace = generate_trace(&layer, &arch, &m).unwrap();
            let res = replay(&trace, &arch);
            // Simulated latency can never beat the analytical bound...
            assert!(
                res.total_cycles >= res.analytical_bound(),
                "{}: {} < bound {}",
                arch.summary(),
                res.total_cycles,
                res.analytical_bound()
            );
            // ...and for this regular schedule it stays close to it.
            assert!(
                res.pipeline_efficiency() > 0.45,
                "{}: efficiency {}",
                arch.summary(),
                res.pipeline_efficiency()
            );
        }
    }

    #[test]
    fn replay_transfer_matches_loopnest_dram_cycles() {
        let (layer, m) = fixture();
        let arch = secureloop_arch::Architecture::eyeriss_base()
            .with_crypto(CryptoConfig::new(EngineClass::Parallel, 3));
        let eval = evaluate(&layer, &arch, &m).unwrap();
        let trace = generate_trace(&layer, &arch, &m).unwrap();
        let res = replay(&trace, &arch);
        // Σ per-step transfer vs the single closed-form division: equal
        // up to per-step ceiling effects.
        let diff = res.transfer_cycles.abs_diff(eval.dram_cycles);
        assert!(
            diff <= trace.steps + 8,
            "transfer {} vs analytical {}",
            res.transfer_cycles,
            eval.dram_cycles
        );
        assert_eq!(res.compute_cycles, eval.compute_cycles);
    }

    #[test]
    fn detailed_replay_close_to_flat_replay() {
        // With generous DRAM timing and the crypto engine as the real
        // bottleneck, the detailed and flat replays agree closely.
        let (layer, m) = fixture();
        let arch = secureloop_arch::Architecture::eyeriss_base()
            .with_crypto(CryptoConfig::new(EngineClass::Parallel, 3));
        let trace = generate_trace(&layer, &arch, &m).unwrap();
        let flat = replay(&trace, &arch);
        let detailed = replay_detailed(&trace, &arch, crate::dram::DramTiming::lpddr4());
        let ratio = detailed.total_cycles as f64 / flat.total_cycles as f64;
        assert!(
            (0.9..1.3).contains(&ratio),
            "detailed {} vs flat {} (ratio {ratio:.2})",
            detailed.total_cycles,
            flat.total_cycles
        );
        assert!(detailed.total_cycles >= detailed.compute_cycles);
    }

    #[test]
    fn detailed_replay_unsecure_bound_by_dram_model() {
        let (layer, m) = fixture();
        let arch = secureloop_arch::Architecture::eyeriss_base();
        let trace = generate_trace(&layer, &arch, &m).unwrap();
        let detailed = replay_detailed(&trace, &arch, crate::dram::DramTiming::lpddr4());
        // The banked model can only be slower than the flat division.
        let flat = replay(&trace, &arch);
        assert!(detailed.transfer_cycles >= flat.transfer_cycles);
    }

    #[test]
    fn zero_step_trace_replays_to_zero() {
        let empty = Trace {
            events: Vec::new(),
            steps: 0,
            compute_per_step: 7,
            word_bits: 8,
        };
        let zero = ReplayResult {
            total_cycles: 0,
            compute_cycles: 0,
            transfer_cycles: 0,
            fill_cycles: 0,
        };
        let arch = secureloop_arch::Architecture::eyeriss_base()
            .with_crypto(CryptoConfig::new(EngineClass::Parallel, 3));
        assert_eq!(replay(&empty, &arch), zero);
        assert_eq!(
            replay_detailed(&empty, &arch, crate::dram::DramTiming::lpddr4()),
            zero
        );
    }

    #[test]
    fn crypto_throttling_appears_in_replay() {
        let (layer, m) = fixture();
        let base = secureloop_arch::Architecture::eyeriss_base();
        let secure = base
            .clone()
            .with_crypto(CryptoConfig::new(EngineClass::Serial, 3));
        let t_base = generate_trace(&layer, &base, &m).unwrap();
        let t_sec = generate_trace(&layer, &secure, &m).unwrap();
        let r_base = replay(&t_base, &base);
        let r_sec = replay(&t_sec, &secure);
        assert!(r_sec.total_cycles > 3 * r_base.total_cycles);
    }
}
