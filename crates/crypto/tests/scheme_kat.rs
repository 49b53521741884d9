//! Known-answer vectors for each protection-scheme backend's per-block
//! cost arithmetic.
//!
//! Every backend's cycle/energy/area numbers are pinned here as explicit
//! constants — if any model number drifts, the exact expected value in
//! these tables fails, which is the point: cached candidate lists and
//! committed goldens depend on the numbers being stable. The vectors
//! also exercise the two sharp edges of the cost arithmetic: block
//! boundary rounding (partial blocks always round up to the scheme's
//! native granularity) and zero-length streams (always free).

use secureloop_crypto::{EngineClass, SchemeId};

/// One known-answer row: scheme x class → (cycles/block, pJ/block,
/// kGates, block bytes).
struct Kat {
    scheme: SchemeId,
    class: EngineClass,
    cycles_per_block: u64,
    energy_per_block_pj: f64,
    area_kgates: f64,
    block_bytes: u64,
}

const KATS: &[Kat] = &[
    // AES-GCM: Table 2 stage sums — aes + gf energy/area, max of the
    // two initiation intervals.
    Kat {
        scheme: SchemeId::AesGcm,
        class: EngineClass::Pipelined,
        cycles_per_block: 1,
        energy_per_block_pj: 165.1 + 57.7,
        area_kgates: 78.8 + 60.1,
        block_bytes: 16,
    },
    Kat {
        scheme: SchemeId::AesGcm,
        class: EngineClass::Parallel,
        cycles_per_block: 11,
        energy_per_block_pj: 194.6 + 82.4,
        area_kgates: 9.2 + 9.7,
        block_bytes: 16,
    },
    Kat {
        scheme: SchemeId::AesGcm,
        class: EngineClass::Serial,
        cycles_per_block: 336,
        energy_per_block_pj: 768.0 + 345.6,
        area_kgates: 3.0 + 3.3,
        block_bytes: 16,
    },
    // Seculator: 16-byte blocks, latency-hiding pipeline.
    Kat {
        scheme: SchemeId::Seculator,
        class: EngineClass::Pipelined,
        cycles_per_block: 1,
        energy_per_block_pj: 96.4,
        area_kgates: 34.2,
        block_bytes: 16,
    },
    Kat {
        scheme: SchemeId::Seculator,
        class: EngineClass::Parallel,
        cycles_per_block: 4,
        energy_per_block_pj: 121.7,
        area_kgates: 11.8,
        block_bytes: 16,
    },
    // SeDA: 64-byte bulk blocks amortising the HW/SW handshake.
    Kat {
        scheme: SchemeId::Seda,
        class: EngineClass::Parallel,
        cycles_per_block: 48,
        energy_per_block_pj: 838.0,
        area_kgates: 10.4,
        block_bytes: 64,
    },
    Kat {
        scheme: SchemeId::Seda,
        class: EngineClass::Serial,
        cycles_per_block: 1280,
        energy_per_block_pj: 3158.4,
        area_kgates: 3.4,
        block_bytes: 64,
    },
];

#[test]
fn per_block_known_answers() {
    for k in KATS {
        let m = k.scheme.model();
        assert!(m.supports(k.class), "{} on {}", k.scheme, k.class);
        assert_eq!(
            m.cycles_per_block(k.class),
            k.cycles_per_block,
            "{} {} cycles",
            k.scheme,
            k.class
        );
        assert_eq!(
            m.energy_per_block_pj(k.class).to_bits(),
            k.energy_per_block_pj.to_bits(),
            "{} {} energy",
            k.scheme,
            k.class
        );
        assert_eq!(
            m.area_kgates(k.class).to_bits(),
            k.area_kgates.to_bits(),
            "{} {} area",
            k.scheme,
            k.class
        );
        assert_eq!(m.block_bytes(), k.block_bytes, "{} block", k.scheme);
    }
}

#[test]
fn derived_quantities_follow_block_arithmetic() {
    for k in KATS {
        let m = k.scheme.model();
        let expect_bpc = k.block_bytes as f64 / k.cycles_per_block as f64;
        assert_eq!(m.bytes_per_cycle(k.class).to_bits(), expect_bpc.to_bits());
        let expect_pj_bit = k.energy_per_block_pj / (k.block_bytes as f64 * 8.0);
        assert_eq!(
            m.energy_per_bit_pj(k.class).to_bits(),
            expect_pj_bit.to_bits()
        );
    }
}

#[test]
fn block_boundary_rounding() {
    for k in KATS {
        let m = k.scheme.model();
        let b = k.block_bytes;
        let c = k.cycles_per_block;
        // One byte costs a whole block; an exact block costs exactly
        // one; one byte past the boundary costs two.
        assert_eq!(m.cycles_for_bytes(k.class, 1), c, "{} 1B", k.scheme);
        assert_eq!(m.cycles_for_bytes(k.class, b - 1), c, "{} b-1", k.scheme);
        assert_eq!(m.cycles_for_bytes(k.class, b), c, "{} b", k.scheme);
        assert_eq!(
            m.cycles_for_bytes(k.class, b + 1),
            2 * c,
            "{} b+1",
            k.scheme
        );
        // Large streams scale linearly in whole blocks.
        assert_eq!(
            m.cycles_for_bytes(k.class, 1000 * b + 1),
            1001 * c,
            "{} bulk",
            k.scheme
        );
    }
}

#[test]
fn zero_length_streams_are_free() {
    for id in SchemeId::ALL {
        let m = id.model();
        for class in EngineClass::ALL {
            assert_eq!(m.cycles_for_bytes(class, 0), 0, "{id} on {class}");
        }
    }
}

#[test]
fn unsupported_combinations_price_at_infinity_not_panic() {
    let secu = SchemeId::Seculator.model();
    assert!(!secu.supports(EngineClass::Serial));
    assert!(secu.energy_per_bit_pj(EngineClass::Serial).is_infinite());
    assert!(secu.area_kgates(EngineClass::Serial).is_infinite());
    let seda = SchemeId::Seda.model();
    assert!(!seda.supports(EngineClass::Pipelined));
    assert!(seda.energy_per_bit_pj(EngineClass::Pipelined).is_infinite());
    // Throughput collapses towards zero for the impossible realisation.
    assert!(seda.bytes_per_cycle(EngineClass::Pipelined) < 1e-9);
}
