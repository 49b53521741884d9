//! Known-answer tests for AES-GCM and GHASH against published NIST
//! vectors: SP 800-38D's original validation set (the McGrew–Viega
//! test cases, including the non-96-bit-IV ones that exercise the
//! `J0 = GHASH(IV)` path) and CAVS `gcmEncryptExtIV128` vectors for
//! the zero-length plaintext/AAD corners. The unit tests inside
//! `gcm.rs` cover cases 1–4 and 14; this suite pins the rest of the
//! conformance surface.

use secureloop_crypto::ghash::Ghash;
use secureloop_crypto::{Aes128, AesGcm, Tag};

fn hex(s: &str) -> Vec<u8> {
    assert!(s.len().is_multiple_of(2), "odd-length hex string");
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("valid hex"))
        .collect()
}

fn key128(s: &str) -> [u8; 16] {
    hex(s).try_into().expect("16-byte key")
}

fn key256(s: &str) -> [u8; 32] {
    hex(s).try_into().expect("32-byte key")
}

fn tag(s: &str) -> Tag {
    Tag(hex(s).try_into().expect("16-byte tag"))
}

/// The shared key/plaintext/AAD of McGrew–Viega cases 3–6.
const MV_KEY: &str = "feffe9928665731c6d6a8f9467308308";
const MV_PT60: &str = "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
                       1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39";
const MV_AAD: &str = "feedfacedeadbeeffeedfacedeadbeefabaddad2";

/// Assert one encrypt+decrypt round against a published vector.
fn check_ext_iv(gcm: &AesGcm, iv: &str, pt: &str, aad: &str, want_ct: &str, want_tag: &str) {
    let (iv, pt, aad) = (hex(iv), hex(pt), hex(aad));
    let (ct, t) = gcm.encrypt_iv(&iv, &pt, &aad);
    assert_eq!(ct, hex(want_ct), "ciphertext mismatch");
    assert_eq!(t, tag(want_tag), "tag mismatch");
    let back = gcm
        .decrypt_iv(&iv, &ct, &aad, &t)
        .expect("published tag must authenticate");
    assert_eq!(back, pt);
}

/// McGrew–Viega case 5: AES-128, 60-byte PT, AAD, **8-byte IV** —
/// the short-IV branch of `J0 = GHASH(H; IV ∥ pad ∥ len(IV))`.
#[test]
fn mcgrew_viega_case_5_short_iv() {
    check_ext_iv(
        &AesGcm::new(&key128(MV_KEY)),
        "cafebabefacedbad",
        MV_PT60,
        MV_AAD,
        "61353b4c2806934a777ff51fa22a4755699b2a714fcdc6f83766e5f97b6c7423\
         73806900e49f24b22b097544d4896b424989b5e1ebac0f07c23f4598",
        "3612d2e79e3b0785561be14aaca2fccb",
    );
}

/// McGrew–Viega case 6: same key/PT/AAD with a **60-byte IV** — the
/// multi-block GHASH-derived counter.
#[test]
fn mcgrew_viega_case_6_long_iv() {
    check_ext_iv(
        &AesGcm::new(&key128(MV_KEY)),
        "9313225df88406e555909c5aff5269aa6a7a9538534f7da1e4c303d2a318a728\
         c3c0c95156809539fcf0e2429a6b525416aedbf5a0de6a57a637b39b",
        MV_PT60,
        MV_AAD,
        "8ce24998625615b603a033aca13fb894be9112a5c3a211a8ba262a3cca7e2ca7\
         01e4a9a4fba43c90ccdcb281d48c7c6fd62875d2aca417034c34aee5",
        "619cc5aefffe0bfa462af43c1699d050",
    );
}

/// CAVS gcmEncryptExtIV128, zero-length PT **and** AAD: GCM reduces to
/// a pure MAC of nothing — only `E_K(J0)` masked by an empty GHASH.
#[test]
fn cavs_zero_plaintext_zero_aad() {
    let gcm = AesGcm::new(&key128("cf063a34d4a9a76c2c86787d3f96db71"));
    let iv = hex("113b9785971864c83b01c787");
    let (ct, t) = gcm.encrypt_iv(&iv, &[], &[]);
    assert!(ct.is_empty());
    assert_eq!(t, tag("72ac8493e3a5228b5d130a69d2510e42"));
    assert_eq!(gcm.decrypt_iv(&iv, &[], &[], &t).expect("authentic"), b"");
}

/// CAVS gcmEncryptExtIV128, zero-length PT with 16-byte AAD: the tag
/// authenticates AAD alone.
#[test]
fn cavs_zero_plaintext_with_aad() {
    let gcm = AesGcm::new(&key128("77be63708971c4e240d1cb79e8d77feb"));
    let iv = hex("e0e00f19fed7ba0136a797f3");
    let aad = hex("7a43ec1d9c0a5a78a0b16533a6213cab");
    let (ct, t) = gcm.encrypt_iv(&iv, &[], &aad);
    assert!(ct.is_empty());
    assert_eq!(t, tag("209fcc8d3675ed938e9c7166709dd946"));
    // Tampered AAD must not authenticate.
    let mut bad = aad.clone();
    bad[0] ^= 1;
    assert!(gcm.decrypt_iv(&iv, &[], &bad, &t).is_err());
}

/// McGrew–Viega case 13: AES-256, all inputs empty.
#[test]
fn mcgrew_viega_case_13_aes256_empty() {
    let gcm = AesGcm::new_256(&[0u8; 32]);
    let (ct, t) = gcm.encrypt(&[0u8; 12], &[], &[]);
    assert!(ct.is_empty());
    assert_eq!(t, tag("530f8afbc74536b9a963b4f1c4cb738b"));
}

/// McGrew–Viega case 15: AES-256, full 64-byte plaintext, no AAD.
#[test]
fn mcgrew_viega_case_15_aes256_full_block_pt() {
    let key = key256("feffe9928665731c6d6a8f9467308308feffe9928665731c6d6a8f9467308308");
    check_ext_iv(
        &AesGcm::new_256(&key),
        "cafebabefacedbaddecaf888",
        "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
         1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255",
        "",
        "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa\
         8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662898015ad",
        "b094dac5d93471bdec1a502270e3cc6c",
    );
}

// ---------------------------------------------------------------------------
// GHASH vectors
// ---------------------------------------------------------------------------

/// GHASH of nothing is zero: `Y = (0 ⊕ len(0,0)) · H = 0`.
#[test]
fn ghash_of_empty_input_is_zero() {
    let h: [u8; 16] = hex("66e94bd4ef8a2c3b884cfa59ca342b2e").try_into().unwrap();
    let mut g = Ghash::new(h);
    g.update_lengths(0, 0);
    assert_eq!(g.finalize(), [0u8; 16]);
}

/// McGrew–Viega case 2's intermediate: H = E_0(0), one zero CT block,
/// GHASH = f38cbb1ad69223dcc3457ae5b6b0f885 (the spec prints this
/// value explicitly).
#[test]
fn ghash_single_zero_block_vector() {
    let h = Aes128::new(&[0u8; 16]).encrypt(&[0u8; 16]);
    assert_eq!(h.to_vec(), hex("66e94bd4ef8a2c3b884cfa59ca342b2e"));
    let mut g = Ghash::new(h);
    let ct = hex("0388dace60b6a392f328c2b971b2fe78");
    g.update_padded(&ct);
    g.update_lengths(0, 128);
    assert_eq!(
        g.finalize().to_vec(),
        hex("f38cbb1ad69223dcc3457ae5b6b0f885")
    );
}

/// Cross-check GHASH against the tag relation on case 4:
/// `tag = GHASH(H; A, C) ⊕ E_K(J0)`. Rearranged, recomputing GHASH by
/// hand over the spec's ciphertext and XOR-ing with the first keystream
/// block must reproduce the published tag.
#[test]
fn ghash_tag_relation_case_4() {
    let key = key128(MV_KEY);
    let aes = Aes128::new(&key);
    let h = aes.encrypt(&[0u8; 16]);
    let ct = hex(
        "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
         21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091",
    );
    let aad = hex(MV_AAD);
    let mut g = Ghash::new(h);
    g.update_padded(&aad);
    g.update_padded(&ct);
    g.update_lengths(aad.len() as u64 * 8, ct.len() as u64 * 8);
    let s = g.finalize();

    let mut j0 = [0u8; 16];
    j0[..12].copy_from_slice(&hex("cafebabefacedbaddecaf888"));
    j0[15] = 1;
    let ek0 = aes.encrypt(&j0);
    let mut t = [0u8; 16];
    for i in 0..16 {
        t[i] = s[i] ^ ek0[i];
    }
    assert_eq!(t.to_vec(), hex("5bc94fbc3221a5db94fae95ae7121a47"));
}

/// GHASH linearity: GHASH(H; A, C1∥C2) equals feeding the blocks one
/// at a time — the incremental `update_block` API matches the batch
/// `update_padded` API on block-aligned input.
#[test]
fn ghash_incremental_matches_batch() {
    let h: [u8; 16] = hex("66e94bd4ef8a2c3b884cfa59ca342b2e").try_into().unwrap();
    let data = hex("0388dace60b6a392f328c2b971b2fe78c8c2d9d7d9f2c3a4b5e6f70811223344");
    let mut batch = Ghash::new(h);
    batch.update_padded(&data);
    batch.update_lengths(0, data.len() as u64 * 8);

    let mut inc = Ghash::new(h);
    for chunk in data.chunks(16) {
        inc.update_block(chunk.try_into().expect("aligned"));
    }
    inc.update_lengths(0, data.len() as u64 * 8);
    assert_eq!(batch.finalize(), inc.finalize());
}
