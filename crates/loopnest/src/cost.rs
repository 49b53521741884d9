//! Cost roll-up: access counts → latency and energy.

use secureloop_arch::{Architecture, Dataflow};
use secureloop_energy::EnergyModel;
use secureloop_workload::{ConvLayer, Datatype};

use crate::footprint::{footprint_words, inner_products, Boundary};
use crate::mapping::{check_glb, Mapping, MappingError};
use crate::reuse::{collect_loops, fetch_multiplier, ofmap_traffic};

/// Word-granularity access counts per hierarchy level, indexed like
/// [`Datatype::ALL`] (`[weight, ifmap, ofmap]`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AccessCounts {
    /// Words read from DRAM per datatype.
    pub dram_read_words: [u64; 3],
    /// Words written to DRAM per datatype (only the ofmap writes).
    pub dram_write_words: [u64; 3],
    /// Words read from the GLB per datatype.
    pub glb_read_words: [u64; 3],
    /// Words written to the GLB per datatype.
    pub glb_write_words: [u64; 3],
    /// Multiply-accumulate operations.
    pub macs: u64,
}

impl AccessCounts {
    /// Total DRAM words moved (reads + writes, all datatypes).
    pub fn dram_total_words(&self) -> u64 {
        self.dram_read_words.iter().sum::<u64>() + self.dram_write_words.iter().sum::<u64>()
    }

    /// Total GLB words moved.
    pub fn glb_total_words(&self) -> u64 {
        self.glb_read_words.iter().sum::<u64>() + self.glb_write_words.iter().sum::<u64>()
    }
}

/// Component-wise energy of one layer execution, in pJ.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    /// Multiply-accumulate datapath.
    pub mac_pj: f64,
    /// Register-file accesses.
    pub rf_pj: f64,
    /// Global-buffer accesses.
    pub glb_pj: f64,
    /// On-chip network traversal.
    pub noc_pj: f64,
    /// DRAM interface.
    pub dram_pj: f64,
    /// Cryptographic engines (encrypt/decrypt + GHASH).
    pub crypto_pj: f64,
}

impl EnergyBreakdown {
    /// Sum of all components.
    pub fn total_pj(&self) -> f64 {
        self.mac_pj + self.rf_pj + self.glb_pj + self.noc_pj + self.dram_pj + self.crypto_pj
    }
}

/// The evaluated cost of one (layer, architecture, mapping) triple.
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluation {
    /// Access counts at each level.
    pub counts: AccessCounts,
    /// Cycles the PE array needs (temporal iterations of the nest).
    pub compute_cycles: u64,
    /// Cycles the off-chip interface needs at the *effective* bandwidth.
    pub dram_cycles: u64,
    /// Cycles the GLB port needs.
    pub glb_cycles: u64,
    /// Cycles the GLB↔PE distribution network needs (multicast counted
    /// once).
    pub noc_cycles: u64,
    /// Overall latency: `max(compute, dram, glb)` (paper §4.1 pipelining
    /// assumption).
    pub latency_cycles: u64,
    /// Total energy in pJ (MACs, RF, GLB, NoC, DRAM, crypto).
    pub energy_pj: f64,
    /// Component-wise energy.
    pub energy: EnergyBreakdown,
    /// Fraction of the PE array used by the spatial mapping.
    pub utilization: f64,
    /// Total off-chip traffic in bits (data only — AuthBlock overheads
    /// are added by the scheduler on top of this).
    pub dram_total_bits: u64,
    /// Off-chip traffic per datatype stream in bits (data + any extra
    /// added via [`Evaluation::with_extra_dram_bits`]), indexed like
    /// [`Datatype::ALL`]. The per-stream cryptographic engines throttle
    /// on the largest entry.
    pub dram_bits_by_dt: [u64; 3],
    /// Word size, recorded for conversions.
    pub word_bits: u32,
}

impl Evaluation {
    /// Energy-delay product in pJ·cycles.
    pub fn edp(&self) -> f64 {
        self.energy_pj * self.latency_cycles as f64
    }

    /// Re-derive latency and energy after adding per-datatype
    /// `extra_bits` of off-chip traffic (hash reads, redundant reads,
    /// rehash traffic — paper §4.2). The extra bits traverse both the
    /// DRAM interface and the cryptographic engine of their stream, so
    /// they are charged at the effective bandwidth and at full crypto
    /// energy.
    pub fn with_extra_dram_bits(&self, arch: &Architecture, extra_bits: [u64; 3]) -> Evaluation {
        let energy = EnergyModel::of(arch);
        let mut out = self.clone();
        let extra_total: u64 = extra_bits.iter().sum();
        for (dst, add) in out.dram_bits_by_dt.iter_mut().zip(extra_bits) {
            *dst += add;
        }
        out.dram_total_bits = self.dram_total_bits + extra_total;
        out.dram_cycles = dram_cycles_for_bits(arch, out.dram_total_bits, out.dram_bits_by_dt);
        out.latency_cycles = out
            .compute_cycles
            .max(out.dram_cycles)
            .max(out.glb_cycles)
            .max(out.noc_cycles);
        out.energy_pj = self.energy_pj + energy.offchip_pj(extra_total);
        let extra_words = extra_total as f64 / f64::from(self.word_bits);
        out.energy.dram_pj += extra_words * energy.dram_access_pj;
        out.energy.crypto_pj += extra_total as f64 * energy.crypto_pj_per_bit;
        out
    }
}

/// Off-chip cycles for the given traffic: the slower of the DRAM
/// interface (total bytes) and the cryptographic engines. Statically
/// partitioned engines (one group per datatype, paper §5.1) throttle on
/// the busiest stream; a shared engine pool throttles on the total.
fn dram_cycles_for_bits(arch: &Architecture, total_bits: u64, bits_by_dt: [u64; 3]) -> u64 {
    let total_bytes = total_bits as f64 / 8.0;
    let mut cycles = total_bytes / arch.dram().bytes_per_cycle();
    if let Some(crypto) = arch.crypto() {
        let crypto_cycles = match crypto.per_stream_bytes_per_cycle() {
            Some(per_stream) => bits_by_dt
                .iter()
                .map(|&b| b as f64 / 8.0 / per_stream)
                .fold(0.0f64, f64::max),
            None => total_bytes / crypto.total_bytes_per_cycle(),
        };
        cycles = cycles.max(crypto_cycles);
    }
    cycles.ceil() as u64
}

/// The fields of an [`Architecture`] that a mapper draw and [`traffic`]
/// read: the PE array, the register file and the dataflow.
///
/// Designs that agree on it draw the same random mappings of a layer
/// and see the same [`Traffic`] for each. They differ only in what
/// [`Traffic::price`] reads: the GLB size and bandwidth, the NoC
/// bandwidth, the DRAM interface, the crypto engine and the energy
/// tables. The Fig. 14–16 space varies the PE array, the GLB and the
/// engine class, so its designs fall into one identity per PE array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrawIdentity {
    pe: (usize, usize),
    rf_bytes_per_pe: u64,
    rf_partition: Option<[u64; 3]>,
    dataflow: Dataflow,
}

impl DrawIdentity {
    /// The draw identity of `arch`.
    pub fn of(arch: &Architecture) -> Self {
        DrawIdentity {
            pe: (arch.pe_x(), arch.pe_y()),
            rf_bytes_per_pe: arch.rf_bytes_per_pe(),
            rf_partition: arch.rf_partition(),
            dataflow: arch.dataflow(),
        }
    }
}

/// What one mapping moves and computes on one [`DrawIdentity`], before
/// any design prices it: the first stage of [`evaluate`].
#[derive(Debug, Clone, PartialEq)]
pub struct Traffic {
    /// Access counts at each level.
    pub counts: AccessCounts,
    /// Words crossing the GLB↔PE network (plus DRAM→PE bypass streams),
    /// multicast counted once.
    pub noc_words: u64,
    /// Cycles the PE array needs (temporal iterations of the nest).
    pub compute_cycles: u64,
    /// PEs the spatial mapping occupies.
    pub pes_used: u64,
    /// Bytes the double-buffered GLB tiles need.
    pub glb_needed: u64,
    /// The layer's word size.
    pub word_bits: u32,
}

/// The first stage of [`evaluate`]: validate `mapping` on `arch`, then
/// work out its traffic.
///
/// Only the GLB capacity check reads more of `arch` than its
/// [`DrawIdentity`]. So when `arch` has the largest GLB of a group of
/// designs sharing one identity, an error here means the mapping is
/// invalid on every design of the group, and an `Ok` serves them all:
/// each checks its own GLB in [`Traffic::price`].
///
/// # Errors
///
/// The first [`MappingError`] of [`Mapping::validate`].
pub fn traffic(
    layer: &ConvLayer,
    arch: &Architecture,
    mapping: &Mapping,
) -> Result<Traffic, MappingError> {
    let constraints = arch.dataflow().constraints();
    let glb = mapping.check_draw(layer, arch, &constraints)?;
    check_glb(glb.bytes_needed, arch)?;

    let dram_loops = collect_loops(&[(&mapping.dram_order, &mapping.dram)]);
    let all_temporal_loops = collect_loops(&[
        (&mapping.dram_order, &mapping.dram),
        (&mapping.glb_order, &mapping.glb),
    ]);

    let pe_tile = inner_products(mapping, Boundary::BelowGlb);

    let mut counts = AccessCounts {
        macs: layer.macs(),
        ..AccessCounts::default()
    };

    // Traffic crossing the GLB↔PE network (plus DRAM→PE bypass
    // streams): multicast delivers each unique word once.
    let mut noc_words: u64 = 0;

    for dt in [Datatype::Weight, Datatype::Ifmap] {
        let i = dt.index();
        if constraints.bypasses_glb(dt) {
            // Streams DRAM -> PE array: refetch rate governed by all
            // temporal loops, volume is the PE-array tile.
            let mult = fetch_multiplier(layer, dt, &all_temporal_loops);
            counts.dram_read_words[i] = mult * footprint_words(layer, dt, &pe_tile);
            noc_words += counts.dram_read_words[i];
        } else {
            // DRAM -> GLB fills.
            let mult = fetch_multiplier(layer, dt, &dram_loops);
            let fill = mult * glb.words[i];
            counts.dram_read_words[i] = fill;
            counts.glb_write_words[i] = fill;
            // GLB -> PE-array supply.
            let mult_pe = fetch_multiplier(layer, dt, &all_temporal_loops);
            counts.glb_read_words[i] = mult_pe * footprint_words(layer, dt, &pe_tile);
            noc_words += counts.glb_read_words[i];
        }
    }

    // Ofmap: read-modify-write at both boundaries.
    {
        let i = Datatype::Ofmap.index();
        let glb_fp = glb.words[i];
        let dram_t = ofmap_traffic(layer, &dram_loops);
        counts.dram_read_words[i] = dram_t.reads() * glb_fp;
        counts.dram_write_words[i] = dram_t.writes() * glb_fp;
        // Refills of partial sums coming back from DRAM enter the GLB;
        // drains leaving for DRAM read the GLB.
        counts.glb_write_words[i] = dram_t.reads() * glb_fp;
        counts.glb_read_words[i] = dram_t.writes() * glb_fp;

        let pe_fp = footprint_words(layer, Datatype::Ofmap, &pe_tile);
        let pe_t = ofmap_traffic(layer, &all_temporal_loops);
        // PE array -> GLB partial-sum writes and re-reads.
        counts.glb_write_words[i] += pe_t.writes() * pe_fp;
        counts.glb_read_words[i] += pe_t.reads() * pe_fp;
        noc_words += (pe_t.writes() + pe_t.reads()) * pe_fp;
    }

    Ok(Traffic {
        counts,
        noc_words,
        compute_cycles: mapping.temporal_iterations(),
        pes_used: mapping.pes_used(),
        glb_needed: glb.bytes_needed,
        word_bits: layer.word_bits(),
    })
}

/// One design's side of [`Traffic::price`]: the architecture and its
/// [`EnergyModel`], built once per design rather than once per mapping.
#[derive(Debug, Clone, Copy)]
pub struct Pricing<'a> {
    arch: &'a Architecture,
    energy: EnergyModel,
}

impl<'a> Pricing<'a> {
    /// The pricing of `arch`.
    pub fn of(arch: &'a Architecture) -> Self {
        Pricing {
            arch,
            energy: EnergyModel::of(arch),
        }
    }
}

impl Traffic {
    /// The second stage of [`evaluate`]: check the GLB capacity of the
    /// priced design, then turn the traffic into its cycles and energy.
    ///
    /// # Errors
    ///
    /// [`MappingError::CapacityExceeded`] when the GLB tiles do not fit
    /// the design's GLB.
    pub fn price(&self, pricing: &Pricing<'_>) -> Result<Evaluation, MappingError> {
        let Pricing { arch, energy } = pricing;
        check_glb(self.glb_needed, arch)?;
        let counts = self.counts;
        let word_bits = self.word_bits;
        let dram_total_bits = counts.dram_total_words() * u64::from(word_bits);
        let mut dram_bits_by_dt = [0u64; 3];
        for (i, b) in dram_bits_by_dt.iter_mut().enumerate() {
            *b = (counts.dram_read_words[i] + counts.dram_write_words[i]) * u64::from(word_bits);
        }

        let compute_cycles = self.compute_cycles;
        let dram_cycles = dram_cycles_for_bits(arch, dram_total_bits, dram_bits_by_dt);
        let glb_bytes = counts.glb_total_words() as f64 * f64::from(word_bits) / 8.0;
        let glb_cycles = (glb_bytes / arch.glb_bytes_per_cycle()).ceil() as u64;
        let noc_bytes = self.noc_words as f64 * f64::from(word_bits) / 8.0;
        let noc_cycles = (noc_bytes / arch.noc_bytes_per_cycle()).ceil() as u64;
        let latency_cycles = compute_cycles
            .max(dram_cycles)
            .max(glb_cycles)
            .max(noc_cycles);

        // Energy roll-up. Each MAC reads weight/ifmap/psum and writes
        // psum at the register file: 4 RF accesses per MAC.
        let energy = EnergyBreakdown {
            mac_pj: counts.macs as f64 * energy.mac_pj,
            rf_pj: 4.0 * counts.macs as f64 * energy.rf_access_pj,
            glb_pj: counts.glb_total_words() as f64 * energy.glb_access_pj,
            noc_pj: self.noc_words as f64 * energy.noc_access_pj,
            dram_pj: counts.dram_total_words() as f64 * energy.dram_access_pj,
            crypto_pj: dram_total_bits as f64 * energy.crypto_pj_per_bit,
        };
        let energy_pj = energy.total_pj();

        let utilization = self.pes_used as f64 / arch.num_pes() as f64;

        Ok(Evaluation {
            counts,
            compute_cycles,
            dram_cycles,
            glb_cycles,
            noc_cycles,
            latency_cycles,
            energy_pj,
            energy,
            utilization,
            dram_total_bits,
            dram_bits_by_dt,
            word_bits,
        })
    }
}

/// Evaluate a mapping. Validates first.
///
/// This is [`traffic`] followed by [`Traffic::price`]. The split is
/// exact across designs that share a [`DrawIdentity`]: the checks other
/// than the GLB capacity fail alike on all of them, and when they pass,
/// a design accepts the mapping iff the GLB tiles fit its GLB. So a
/// search can run `traffic` once per draw, on the largest-GLB design,
/// and `price` once per design.
///
/// # Errors
///
/// Returns the underlying [`MappingError`] if the mapping is invalid for
/// this layer/architecture.
pub fn evaluate(
    layer: &ConvLayer,
    arch: &Architecture,
    mapping: &Mapping,
) -> Result<Evaluation, MappingError> {
    traffic(layer, arch, mapping)?.price(&Pricing::of(arch))
}

#[cfg(test)]
mod tests {
    use super::*;
    use secureloop_crypto::{CryptoConfig, EngineClass};
    use secureloop_workload::Dim;

    /// A 56×56, 64→64 3×3 layer with a hand-built row-stationary
    /// mapping valid on the Eyeriss base architecture.
    fn fixture() -> (ConvLayer, Architecture, Mapping) {
        let layer = ConvLayer::builder("t")
            .input_hw(58, 58)
            .channels(64, 64)
            .kernel(3, 3)
            .build()
            .unwrap();
        assert_eq!(layer.dim(Dim::P), 56);
        let arch = Architecture::eyeriss_base();
        let mut m = Mapping::untiled(&layer);
        m.rf = secureloop_workload::DimMap::splat(1);
        m.rf[Dim::S] = 3;
        m.rf[Dim::C] = 4;
        m.spatial_y[Dim::R] = 3;
        m.spatial_x[Dim::Q] = 14;
        m.glb[Dim::M] = 8;
        m.glb[Dim::P] = 8;
        m.dram[Dim::M] = 8;
        m.dram[Dim::C] = 16;
        m.dram[Dim::P] = 7;
        m.dram[Dim::Q] = 4;
        m.validate(&layer, &arch).expect("fixture must be valid");
        (layer, arch, m)
    }

    #[test]
    fn compute_cycles_times_pes_equals_macs() {
        let (layer, arch, m) = fixture();
        let e = evaluate(&layer, &arch, &m).unwrap();
        assert_eq!(e.compute_cycles * m.pes_used(), layer.macs());
        assert_eq!(e.counts.macs, layer.macs());
    }

    #[test]
    fn dram_reads_cover_compulsory_traffic() {
        let (layer, arch, m) = fixture();
        let e = evaluate(&layer, &arch, &m).unwrap();
        for (i, dt) in Datatype::ALL.iter().enumerate() {
            if *dt == Datatype::Ofmap {
                assert!(
                    e.counts.dram_write_words[i] >= layer.tensor_elems(*dt),
                    "{dt}: writes must cover the tensor"
                );
            } else {
                assert!(
                    e.counts.dram_read_words[i] >= layer.tensor_elems(*dt),
                    "{dt}: reads must cover the tensor"
                );
            }
        }
    }

    #[test]
    fn loop_order_changes_traffic() {
        let (layer, arch, m) = fixture();
        // Put C innermost at DRAM (M outer): ofmap accumulates in GLB.
        let mut good = m.clone();
        good.dram_order = [Dim::N, Dim::M, Dim::P, Dim::Q, Dim::C, Dim::R, Dim::S];
        // Put C outermost: partial sums bounce to DRAM.
        let mut bad = m.clone();
        bad.dram_order = [Dim::C, Dim::N, Dim::M, Dim::P, Dim::Q, Dim::R, Dim::S];
        let eg = evaluate(&layer, &arch, &good).unwrap();
        let eb = evaluate(&layer, &arch, &bad).unwrap();
        let i = 2; // ofmap
        assert_eq!(eg.counts.dram_read_words[i], 0);
        assert!(eb.counts.dram_read_words[i] > 0);
        assert!(eb.dram_total_bits > eg.dram_total_bits);
        assert!(eb.energy_pj > eg.energy_pj);
    }

    #[test]
    fn crypto_engine_throttles_memory_bound_layer() {
        let (layer, arch, m) = fixture();
        let base = evaluate(&layer, &arch, &m).unwrap();
        let secure_arch = arch
            .clone()
            .with_crypto(CryptoConfig::new(EngineClass::Serial, 1));
        let secure = evaluate(&layer, &secure_arch, &m).unwrap();
        // Same data traffic, much lower effective bandwidth.
        assert_eq!(secure.dram_total_bits, base.dram_total_bits);
        assert!(secure.dram_cycles > base.dram_cycles * 100);
        assert!(secure.latency_cycles >= secure.dram_cycles);
        // Crypto energy adds on top.
        assert!(secure.energy_pj > base.energy_pj);
    }

    #[test]
    fn extra_dram_bits_increase_latency_and_energy() {
        let (layer, arch, m) = fixture();
        let arch = arch.with_crypto(CryptoConfig::new(EngineClass::Parallel, 3));
        let e = evaluate(&layer, &arch, &m).unwrap();
        let e2 = e.with_extra_dram_bits(&arch, e.dram_bits_by_dt); // double traffic
        assert!(e2.dram_cycles >= 2 * e.dram_cycles - 1);
        assert!(e2.energy_pj > e.energy_pj);
        assert!(e2.latency_cycles >= e.latency_cycles);
        // Zero extra bits is an identity.
        let e3 = e.with_extra_dram_bits(&arch, [0; 3]);
        assert_eq!(e3.latency_cycles, e.latency_cycles);
    }

    #[test]
    fn utilization_reflects_spatial_mapping() {
        let (layer, arch, m) = fixture();
        let e = evaluate(&layer, &arch, &m).unwrap();
        let expect = (3.0 * 14.0) / (14.0 * 12.0);
        assert!((e.utilization - expect).abs() < 1e-12);
    }

    #[test]
    fn glb_traffic_exceeds_dram_traffic_for_reused_data() {
        // With temporal reuse at the GLB, the PEs read the GLB more
        // often than the GLB reads DRAM.
        let (layer, arch, m) = fixture();
        let e = evaluate(&layer, &arch, &m).unwrap();
        let ifmap = 1;
        assert!(e.counts.glb_read_words[ifmap] >= e.counts.dram_read_words[ifmap]);
    }

    #[test]
    fn weight_bypass_skips_glb() {
        let (layer, arch, m) = fixture();
        let e = evaluate(&layer, &arch, &m).unwrap();
        let w = 0;
        assert_eq!(e.counts.glb_read_words[w], 0);
        assert_eq!(e.counts.glb_write_words[w], 0);
        assert!(e.counts.dram_read_words[w] >= layer.tensor_elems(Datatype::Weight));
    }

    #[test]
    fn invalid_mapping_propagates_error() {
        let (layer, arch, m) = fixture();
        let mut bad = m;
        bad.dram[Dim::M] = 16;
        assert!(evaluate(&layer, &arch, &bad).is_err());
    }

    #[test]
    fn energy_breakdown_sums_to_total() {
        let (layer, arch, m) = fixture();
        let arch = arch.with_crypto(CryptoConfig::new(EngineClass::Parallel, 3));
        let e = evaluate(&layer, &arch, &m).unwrap();
        assert!((e.energy.total_pj() - e.energy_pj).abs() < 1e-6);
        assert!(e.energy.crypto_pj > 0.0);
        // Extra bits grow only the off-chip components.
        let e2 = e.with_extra_dram_bits(&arch, [0, 10_000, 0]);
        assert!((e2.energy.total_pj() - e2.energy_pj).abs() < 1e-3);
        assert_eq!(e2.energy.mac_pj, e.energy.mac_pj);
        assert!(e2.energy.dram_pj > e.energy.dram_pj);
        assert!(e2.energy.crypto_pj > e.energy.crypto_pj);
    }

    #[test]
    fn edp_is_energy_times_latency() {
        let (layer, arch, m) = fixture();
        let e = evaluate(&layer, &arch, &m).unwrap();
        assert!((e.edp() - e.energy_pj * e.latency_cycles as f64).abs() < 1e-6);
    }
}
