//! Canonical search-space keys for cross-design candidate caching.
//!
//! A mapper search for one layer on one architecture is a pure function
//! of the fields this module serialises — the layer's dimensions and
//! word size, the PE array, the buffer capacities and bandwidths, the
//! dataflow constraint set, and the *effective* off-chip interface
//! (DRAM bandwidth, energy, and the crypto engine's canonicalised
//! throughput and per-bit energy). Two (layer, architecture) pairs with
//! equal [`SearchSpaceKey`]s draw the same sample stream, validate the
//! same mappings, and produce bit-identical [`Evaluation`]s — so their
//! top-k candidate lists are interchangeable and a DSE sweep may compute
//! them once.
//!
//! Fields deliberately **excluded** (they never reach the cost model or
//! the sampler): the architecture and layer *names*, the clock frequency
//! (scales wall time, not cycles), the AuthBlock tag size (a step-2
//! concern), the engine *count* beyond its canonicalised bandwidth, and
//! all area parameters. The protection *scheme* identity is **included**
//! (as `sch:` in the crypto component): schemes carry
//! authentication-granularity rules that bind downstream of the mapper,
//! so candidates computed under one scheme must never be served to
//! another even when their derived bandwidth/energy coincide. The mapper's *search
//! mode* (random vs guided) is likewise not part of the space identity —
//! it changes which samples are drawn, not which are drawable — so the
//! candidate cache appends it to its budget suffix instead (see
//! `secureloop_mapper::cache_key`), keeping the two modes' entries
//! distinct without forking the space key.
//!
//! [`Evaluation`]: crate::Evaluation

use secureloop_arch::Architecture;
use secureloop_workload::{ConvLayer, Dim};

/// Canonical identity of one per-layer mapper search space.
///
/// The key is a canonical string (not a lossy hash), so key equality is
/// exact: there are no collisions to reason about when it indexes a
/// candidate cache. [`SearchSpaceKey::fingerprint`] offers a compact
/// 64-bit digest for display and telemetry.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SearchSpaceKey(String);

/// Exact textual form of an `f64` (IEEE-754 bit pattern in hex), so the
/// key never depends on decimal formatting.
fn f64_bits(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

fn dims(ds: &[Dim]) -> String {
    ds.iter().map(|d| format!("{d:?}")).collect::<String>()
}

impl SearchSpaceKey {
    /// Derive the canonical key for searching `layer` on `arch`.
    pub fn of(layer: &ConvLayer, arch: &Architecture) -> Self {
        use Dim::*;
        let b = layer.bounds();
        let layer_part = format!(
            "L[{},{},{},{},{},{},{},s{},p{},dw{},g{},dl{},w{}]",
            b[N],
            b[M],
            b[C],
            b[P],
            b[Q],
            b[R],
            b[S],
            layer.stride(),
            layer.pad(),
            layer.depthwise() as u8,
            layer.groups(),
            layer.dilation(),
            layer.word_bits(),
        );
        let rf_part = match arch.rf_partition() {
            Some([w, i, o]) => format!("{w},{i},{o}"),
            None => "-".to_string(),
        };
        let arch_part = format!(
            "A[{}x{},rf{},part({}),glb{},glbbw{},nocbw{},w{}]",
            arch.pe_x(),
            arch.pe_y(),
            arch.rf_bytes_per_pe(),
            rf_part,
            arch.glb_bytes(),
            f64_bits(arch.glb_bytes_per_cycle()),
            f64_bits(arch.noc_bytes_per_cycle()),
            arch.word_bits(),
        );
        let c = arch.dataflow().constraints();
        let df_part = format!(
            "DF[y:{};x:{};byp:{}{}{}]",
            dims(c.spatial_y),
            dims(c.spatial_x),
            c.glb_bypass[0] as u8,
            c.glb_bypass[1] as u8,
            c.glb_bypass[2] as u8,
        );
        let dram_bw = arch.dram().bytes_per_cycle();
        let dram_part = format!(
            "D[bw{},pj{}]",
            f64_bits(dram_bw),
            f64_bits(arch.dram().pj_per_bit()),
        );
        // Canonical crypto interface. Two numbers of the engine
        // configuration reach the cost model — its throughput (clamped by
        // the DRAM interface it feeds — a faster engine can never matter)
        // and its per-bit energy — plus the protection scheme's identity,
        // which governs authentication granularity (block size, default
        // tag width) downstream of the mapper. Two schemes that happen to
        // share derived bandwidth/energy numbers must therefore never
        // alias, so the scheme name is a key component in its own right.
        // Per-stream throttling whose streams are at least as fast as
        // DRAM is indistinguishable from the pooled DRAM-bound interface,
        // so it canonicalises to pooled.
        let crypto_part = match arch.crypto() {
            None => format!(
                "X[sch:none,pool:{},pj:{}]",
                f64_bits(dram_bw),
                f64_bits(0.0)
            ),
            Some(cc) => {
                let sch = cc.scheme.name();
                let pj = f64_bits(cc.energy_per_bit_pj());
                match cc.per_stream_bytes_per_cycle() {
                    Some(ps) if ps < dram_bw => {
                        format!("X[sch:{sch},ps:{},pj:{pj}]", f64_bits(ps))
                    }
                    _ => {
                        let pooled = dram_bw.min(cc.total_bytes_per_cycle());
                        format!("X[sch:{sch},pool:{},pj:{pj}]", f64_bits(pooled))
                    }
                }
            }
        };
        SearchSpaceKey(format!(
            "{layer_part}{arch_part}{df_part}{dram_part}{crypto_part}"
        ))
    }

    /// The canonical string.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// FNV-1a 64-bit digest of the canonical string — stable across
    /// processes and platforms (unlike `DefaultHasher`), for display
    /// and telemetry.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in self.0.bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
}

impl std::fmt::Display for SearchSpaceKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use secureloop_arch::DramSpec;
    use secureloop_crypto::{CryptoConfig, EngineClass};
    use secureloop_workload::zoo;

    fn layer() -> ConvLayer {
        zoo::alexnet_conv().layers()[2].clone()
    }

    #[test]
    fn names_and_clock_do_not_affect_the_key() {
        let l = layer();
        let a = Architecture::eyeriss_base();
        let renamed = a.clone().with_name("anything-else");
        assert_eq!(SearchSpaceKey::of(&l, &a), SearchSpaceKey::of(&l, &renamed));
    }

    #[test]
    fn pe_array_and_glb_change_the_key() {
        let l = layer();
        let a = Architecture::eyeriss_base();
        assert_ne!(
            SearchSpaceKey::of(&l, &a),
            SearchSpaceKey::of(&l, &a.clone().with_pe_array(28, 24))
        );
        assert_ne!(
            SearchSpaceKey::of(&l, &a),
            SearchSpaceKey::of(&l, &a.clone().with_glb_kb(16))
        );
    }

    #[test]
    fn dram_bound_pooled_engines_canonicalise_together() {
        // 4 and 5 pipelined engines both exceed LPDDR4-64's 64 B/cycle:
        // the effective interface is identical, so the keys must agree.
        let l = layer();
        let a4 =
            Architecture::eyeriss_base().with_crypto(CryptoConfig::new(EngineClass::Pipelined, 4));
        let a5 =
            Architecture::eyeriss_base().with_crypto(CryptoConfig::new(EngineClass::Pipelined, 5));
        assert_eq!(SearchSpaceKey::of(&l, &a4), SearchSpaceKey::of(&l, &a5));
        // ...but a crypto-bound count does not.
        let a2 =
            Architecture::eyeriss_base().with_crypto(CryptoConfig::new(EngineClass::Pipelined, 2));
        assert_ne!(SearchSpaceKey::of(&l, &a2), SearchSpaceKey::of(&l, &a4));
    }

    #[test]
    fn crypto_bound_designs_ignore_the_dram_generation() {
        // Under Parallel x3 (~4.4 B/cycle per stream) both LPDDR4 widths
        // leave the crypto engine as the binding constraint, but the
        // DRAM interface bandwidth still appears in the key because the
        // pooled term can bind for other traffic mixes — they differ.
        let l = layer();
        let crypto = CryptoConfig::new(EngineClass::Parallel, 3);
        let a64 = Architecture::eyeriss_base()
            .with_dram(DramSpec::lpddr4_64())
            .with_crypto(crypto.clone());
        let a128 = Architecture::eyeriss_base()
            .with_dram(DramSpec::lpddr4_128())
            .with_crypto(crypto);
        assert_ne!(SearchSpaceKey::of(&l, &a64), SearchSpaceKey::of(&l, &a128));
        // Same interface, same key: HBM2-64 matches LPDDR4-64 in
        // bandwidth but not energy.
        let hbm = Architecture::eyeriss_base().with_dram(DramSpec::hbm2_64());
        let base = Architecture::eyeriss_base();
        assert_ne!(SearchSpaceKey::of(&l, &hbm), SearchSpaceKey::of(&l, &base));
    }

    #[test]
    fn grouping_dilation_and_word_width_change_the_key() {
        let a = Architecture::eyeriss_base();
        let base = ConvLayer::builder("l")
            .input_hw(28, 28)
            .channels(64, 64)
            .kernel(3, 3)
            .pad(2)
            .build()
            .unwrap();
        let dilated = ConvLayer::builder("l")
            .input_hw(28, 28)
            .channels(64, 64)
            .kernel(3, 3)
            .pad(2)
            .dilation(2)
            .build()
            .unwrap();
        assert_ne!(
            SearchSpaceKey::of(&base, &a),
            SearchSpaceKey::of(&dilated, &a)
        );
        let fp16 = base.with_word_bits(16);
        assert_ne!(SearchSpaceKey::of(&base, &a), SearchSpaceKey::of(&fp16, &a));
        let grouped = ConvLayer::builder("l")
            .input_hw(28, 28)
            .channels(64, 32)
            .kernel(3, 3)
            .pad(2)
            .groups(2)
            .build()
            .unwrap();
        let dense_half_c = ConvLayer::builder("l")
            .input_hw(28, 28)
            .channels(32, 32)
            .kernel(3, 3)
            .pad(2)
            .build()
            .unwrap();
        // Grouped C=32 must not alias a dense layer with cin=32.
        assert_eq!(grouped.bounds()[Dim::C], dense_half_c.bounds()[Dim::C]);
        assert_ne!(
            SearchSpaceKey::of(&grouped, &a),
            SearchSpaceKey::of(&dense_half_c, &a)
        );
    }

    #[test]
    fn distinct_schemes_never_alias() {
        use secureloop_crypto::SchemeId;
        let l = layer();
        let base = CryptoConfig::new(EngineClass::Parallel, 3);
        let mk = |s| {
            Architecture::eyeriss_base().with_crypto(CryptoConfig {
                scheme: s,
                ..base.clone()
            })
        };
        // Same class/count/tag under every protected scheme: all keys
        // pairwise distinct, and distinct from the unprotected arch.
        let schemes = [SchemeId::AesGcm, SchemeId::Seculator, SchemeId::Seda];
        let keys: Vec<_> = schemes
            .iter()
            .map(|&s| SearchSpaceKey::of(&l, &mk(s)))
            .collect();
        for i in 0..keys.len() {
            for j in (i + 1)..keys.len() {
                assert_ne!(keys[i], keys[j], "{} vs {}", schemes[i], schemes[j]);
            }
        }
        let unprotected = SearchSpaceKey::of(&l, &Architecture::eyeriss_base().without_crypto());
        for k in &keys {
            assert_ne!(*k, unprotected);
        }
        assert!(unprotected.as_str().contains("sch:none"));
    }

    #[test]
    fn fingerprint_is_stable() {
        let k = SearchSpaceKey::of(&layer(), &Architecture::eyeriss_base());
        assert_eq!(k.fingerprint(), k.clone().fingerprint());
        assert_ne!(k.fingerprint(), 0);
    }
}
