#![warn(missing_docs)]

//! Accelergy-lite: architecture-level energy and area estimation.
//!
//! The paper uses Accelergy \[49\] with its 40/45 nm technology tables to
//! estimate the energy and area of each accelerator component (§5.1).
//! This crate rebuilds that role with a compact, documented table
//! ([`tables`]) and two models derived from an
//! [`Architecture`]:
//!
//! * [`EnergyModel`] — per-event energies (MAC, RF access, GLB access,
//!   DRAM bit, crypto bit) consumed by the loopnest cost roll-up.
//! * [`AreaModel`] — component areas in mm², used by the Fig. 13 area
//!   overhead bars and the Fig. 16 area/performance Pareto plot.
//!
//! Absolute values are representative published 40/45 nm numbers, not
//! signed-off silicon data; the experiments only rely on their relative
//! ordering (see `DESIGN.md`, "Modelling decisions").
//!
//! # Example
//!
//! ```
//! use secureloop_arch::Architecture;
//! use secureloop_crypto::{CryptoConfig, EngineClass};
//! use secureloop_energy::AreaModel;
//!
//! let secure = Architecture::eyeriss_base()
//!     .with_crypto(CryptoConfig::new(EngineClass::Pipelined, 3));
//! let area = AreaModel::of(&secure);
//! // Three pipelined AES-GCM engines are a visible fraction of the die.
//! assert!(area.crypto_mm2 / area.total_mm2() > 0.15);
//! ```

pub mod tables;

use secureloop_arch::Architecture;

/// Per-event energies (pJ) for one architecture design point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// One multiply-accumulate.
    pub mac_pj: f64,
    /// One word read/written at a PE register file.
    pub rf_access_pj: f64,
    /// One word read/written at the global buffer (capacity-scaled).
    pub glb_access_pj: f64,
    /// One word transferred over the DRAM interface.
    pub dram_access_pj: f64,
    /// One word traversing the on-chip network (GLB ↔ PE array),
    /// charged at the mean Manhattan hop count of the array.
    pub noc_access_pj: f64,
    /// Cryptographic energy per *bit* of protected off-chip traffic
    /// (0 for unsecure designs).
    pub crypto_pj_per_bit: f64,
    /// Word size in bits, recorded for conversions.
    pub word_bits: u32,
}

impl EnergyModel {
    /// Derive the model from an architecture.
    pub fn of(arch: &Architecture) -> Self {
        let word_bits = arch.word_bits();
        let word_frac = f64::from(word_bits) / 8.0;
        EnergyModel {
            mac_pj: tables::MAC_8BIT_PJ * word_frac,
            rf_access_pj: tables::RF_PJ_PER_BYTE * word_frac,
            glb_access_pj: tables::glb_pj_per_byte(arch.glb_bytes()) * word_frac,
            noc_access_pj: tables::NOC_PJ_PER_BYTE_PER_HOP
                * word_frac
                * ((arch.pe_x() + arch.pe_y()) as f64 / 2.0),
            dram_access_pj: arch.dram().pj_per_bit() * f64::from(word_bits),
            crypto_pj_per_bit: arch.crypto().map(|c| c.energy_per_bit_pj()).unwrap_or(0.0),
            word_bits,
        }
    }

    /// Energy for `bits` of off-chip traffic including cryptographic
    /// processing.
    pub fn offchip_pj(&self, bits: u64) -> f64 {
        let words = bits as f64 / f64::from(self.word_bits);
        words * self.dram_access_pj + bits as f64 * self.crypto_pj_per_bit
    }
}

/// Component areas (mm², 40 nm-normalised) for one design point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaModel {
    /// PE array including register files.
    pub pe_mm2: f64,
    /// Global buffer SRAM.
    pub glb_mm2: f64,
    /// Cryptographic engines (0 for unsecure designs).
    pub crypto_mm2: f64,
    /// Fixed overhead: NoC, controllers, I/O.
    pub fixed_mm2: f64,
}

impl AreaModel {
    /// Derive the model from an architecture.
    pub fn of(arch: &Architecture) -> Self {
        let glb_mbit = arch.glb_bytes() as f64 * 8.0 / (1024.0 * 1024.0);
        AreaModel {
            pe_mm2: arch.num_pes() as f64 * tables::PE_AREA_MM2,
            glb_mm2: glb_mbit * tables::SRAM_MM2_PER_MBIT,
            crypto_mm2: arch
                .crypto()
                .map(|c| c.total_area_kgates() / tables::KGATES_PER_MM2)
                .unwrap_or(0.0),
            fixed_mm2: tables::FIXED_OVERHEAD_MM2,
        }
    }

    /// Total die area.
    pub fn total_mm2(&self) -> f64 {
        self.pe_mm2 + self.glb_mm2 + self.crypto_mm2 + self.fixed_mm2
    }

    /// Crypto area as a fraction of the unsecure baseline area —
    /// the "area overhead (%)" axis of paper Fig. 13.
    pub fn crypto_overhead_fraction(&self) -> f64 {
        let baseline = self.pe_mm2 + self.glb_mm2 + self.fixed_mm2;
        self.crypto_mm2 / baseline
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use secureloop_arch::DramSpec;
    use secureloop_crypto::{CryptoConfig, EngineClass};

    #[test]
    fn bigger_glb_costs_more_per_access() {
        let small = EnergyModel::of(&Architecture::eyeriss_base().with_glb_kb(16));
        let big = EnergyModel::of(&Architecture::eyeriss_base().with_glb_kb(131));
        assert!(big.glb_access_pj > small.glb_access_pj);
    }

    #[test]
    fn hbm2_cheaper_than_lpddr4() {
        let lp = EnergyModel::of(&Architecture::eyeriss_base());
        let hbm = EnergyModel::of(&Architecture::eyeriss_base().with_dram(DramSpec::hbm2_64()));
        assert!(hbm.dram_access_pj < lp.dram_access_pj);
        // Hierarchy energy ordering: RF < GLB < DRAM.
        assert!(lp.rf_access_pj < lp.glb_access_pj);
        assert!(lp.glb_access_pj < lp.dram_access_pj);
    }

    #[test]
    fn crypto_energy_zero_when_unsecure() {
        let base = EnergyModel::of(&Architecture::eyeriss_base());
        assert_eq!(base.crypto_pj_per_bit, 0.0);
        let sec = EnergyModel::of(
            &Architecture::eyeriss_base().with_crypto(CryptoConfig::new(EngineClass::Serial, 1)),
        );
        assert!(sec.crypto_pj_per_bit > 0.0);
        assert!(sec.offchip_pj(1024) > base.offchip_pj(1024));
    }

    #[test]
    fn base_area_in_paper_window() {
        // Fig. 16 plots designs between roughly 2 and 5.5 mm^2.
        let base = AreaModel::of(&Architecture::eyeriss_base()).total_mm2();
        assert!(base > 1.5 && base < 3.0, "base = {base}");
        let big = AreaModel::of(
            &Architecture::eyeriss_base()
                .with_pe_array(28, 24)
                .with_crypto(CryptoConfig::new(EngineClass::Pipelined, 3)),
        )
        .total_mm2();
        assert!(big > 4.0 && big < 7.0, "big = {big}");
        assert!(big > base);
    }

    #[test]
    fn pipelined_engines_cost_tens_of_percent_on_eyeriss() {
        // Paper §3.1: 3 pipelined AES-GCM engines = 416.7 kGates, about
        // 35% of Eyeriss's logic gates. Against our full-die baseline
        // (logic + SRAM) the fraction is lower but still substantial.
        let a = AreaModel::of(
            &Architecture::eyeriss_base().with_crypto(CryptoConfig::new(EngineClass::Pipelined, 3)),
        );
        let f = a.crypto_overhead_fraction();
        assert!(f > 0.15 && f < 0.60, "fraction = {f}");
    }

    #[test]
    fn serial_engines_are_tiny() {
        let a = AreaModel::of(
            &Architecture::eyeriss_base().with_crypto(CryptoConfig::new(EngineClass::Serial, 1)),
        );
        assert!(a.crypto_overhead_fraction() < 0.02);
    }

    #[test]
    fn area_components_are_additive() {
        let a = AreaModel::of(&Architecture::eyeriss_base());
        let t = a.pe_mm2 + a.glb_mm2 + a.crypto_mm2 + a.fixed_mm2;
        assert!((a.total_mm2() - t).abs() < 1e-12);
    }
}
