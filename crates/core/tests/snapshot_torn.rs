//! Corruption robustness of the binary snapshot, exhaustively: a small
//! snapshot truncated at **every byte offset** and flipped at **every byte
//! offset** must fail to load with a typed [`SnapshotError`] — no panic,
//! and never a wrong verdict — mirroring `journal_torn_tail.rs` for the
//! journal forms. Every region of the file is CRC-covered, so there is no
//! offset at which a flip can survive.
//!
//! Targeted corruptions (with the covering CRC re-computed so validation
//! reaches the deeper check) pin the *specific* error classes: bad magic,
//! bad version, non-ascending index, out-of-bounds payload offset, bad
//! bloom block, and a structurally invalid record.

use lv_core::cache::{CacheKey, CacheSnapshot, CachedVerdict, SnapshotError};
use lv_core::pipeline::{Equivalence, Stage};
use lv_core::VerdictCache;
use lv_interp::ChecksumClass;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A fresh directory per call: the tests run concurrently and several of
/// them render snapshots, so a per-process name alone would be shared.
fn temp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "lv-snap-torn-{}-{}-{}",
        tag,
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn sample_entries() -> Vec<(CacheKey, CachedVerdict)> {
    (0..4u64)
        .map(|i| {
            (
                CacheKey {
                    scalar: i,
                    candidate: 100 + i,
                    config: 7,
                },
                CachedVerdict {
                    verdict: if i % 2 == 0 {
                        Equivalence::Equivalent
                    } else {
                        Equivalence::NotEquivalent
                    },
                    stage: Stage::CUnroll,
                    detail: format!("entry {}", i),
                    checksum: Some(ChecksumClass::Plausible),
                },
            )
        })
        .collect()
}

fn render(bloom: bool) -> Vec<u8> {
    let dir = temp_dir(if bloom { "render-bloom" } else { "render" });
    let path = dir.join("snap.lvcs");
    CacheSnapshot::write_file(&path, &sample_entries(), bloom, false).expect("write");
    let bytes = std::fs::read(&path).expect("read back");
    let _ = std::fs::remove_dir_all(&dir);
    bytes
}

/// CRC-32 (IEEE, reflected) — recomputed locally so targeted corruptions
/// can re-cover a patched region and reach the deeper validation step.
fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xffff_ffffu32;
    for &byte in bytes {
        crc ^= u32::from(byte);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xedb8_8320 & mask);
        }
    }
    !crc
}

fn put_u32(buf: &mut [u8], offset: usize, value: u32) {
    buf[offset..offset + 4].copy_from_slice(&value.to_le_bytes());
}

#[test]
fn truncation_at_every_byte_offset_is_a_typed_error_never_a_wrong_verdict() {
    for bloom in [false, true] {
        let doc = render(bloom);
        let full = CacheSnapshot::from_bytes(doc.clone()).expect("intact snapshot loads");
        assert_eq!(full.len(), sample_entries().len());
        for len in 0..doc.len() {
            let torn = doc[..len].to_vec();
            let result = CacheSnapshot::from_bytes(torn);
            assert!(
                result.is_err(),
                "bloom={}: truncation to {} of {} bytes must not load",
                bloom,
                len,
                doc.len()
            );
        }
    }
}

#[test]
fn a_flip_at_every_byte_offset_is_a_typed_error() {
    for bloom in [false, true] {
        let doc = render(bloom);
        for offset in 0..doc.len() {
            let mut bad = doc.clone();
            bad[offset] ^= 0xff;
            let result = CacheSnapshot::from_bytes(bad);
            assert!(
                result.is_err(),
                "bloom={}: a flipped byte at offset {} must not load",
                bloom,
                offset
            );
        }
    }
}

#[test]
fn open_surfaces_corruption_as_io_invalid_data() {
    let dir = temp_dir("open");
    let path = dir.join("snap.lvcs");
    let mut doc = render(true);
    let mid = doc.len() / 2;
    doc[mid] ^= 0xff;
    std::fs::write(&path, &doc).unwrap();
    // Both entry points — the raw snapshot open and the tiered cache open —
    // must reject the file, not serve partial state.
    let err = CacheSnapshot::open(&path).expect_err("snapshot open must fail");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    let err = VerdictCache::open(&path).expect_err("cache open must fail");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn targeted_corruptions_produce_the_specific_error_class() {
    let doc = render(true);

    // Magic.
    let mut bad = doc.clone();
    bad[0] = b'X';
    assert_eq!(
        CacheSnapshot::from_bytes(bad).unwrap_err(),
        SnapshotError::BadMagic
    );

    // Header byte flip without repairing the CRC.
    let mut bad = doc.clone();
    bad[8] ^= 0x01; // entry count
    assert_eq!(
        CacheSnapshot::from_bytes(bad).unwrap_err(),
        SnapshotError::HeaderCrc
    );

    // Version bump *with* the header CRC repaired: the version check itself
    // must fire.
    let mut bad = doc.clone();
    put_u32(&mut bad, 4, 999);
    let crc = crc32(&bad[..52]);
    put_u32(&mut bad, 52, crc);
    assert_eq!(
        CacheSnapshot::from_bytes(bad).unwrap_err(),
        SnapshotError::BadVersion(999)
    );

    // A corrupted index stride without repairing the index CRC.
    let mut bad = doc.clone();
    bad[56] ^= 0xff;
    assert_eq!(
        CacheSnapshot::from_bytes(bad).unwrap_err(),
        SnapshotError::IndexCrc
    );

    // Two index strides swapped with the index CRC repaired: the
    // strictly-ascending check must fire.
    let mut bad = doc.clone();
    let (a, b) = (56, 56 + 32);
    for i in 0..32 {
        bad.swap(a + i, b + i);
    }
    let count = sample_entries().len();
    let index_end = 56 + count * 32;
    let crc = crc32(&bad[56..index_end]);
    put_u32(&mut bad, index_end, crc);
    assert!(matches!(
        CacheSnapshot::from_bytes(bad),
        Err(SnapshotError::Index(_))
    ));

    // A flipped bloom bit without repairing the bloom CRC.
    let bloom_off = index_end + 4;
    let mut bad = doc.clone();
    bad[bloom_off + 8] ^= 0x01; // first bit-array byte
    assert_eq!(
        CacheSnapshot::from_bytes(bad).unwrap_err(),
        SnapshotError::BloomCrc
    );

    // A payload byte flip without repairing the payload CRC.
    let mut bad = doc.clone();
    let payload_crc_off = bad.len() - 4;
    bad[payload_crc_off - 1] ^= 0xff;
    assert_eq!(
        CacheSnapshot::from_bytes(bad).unwrap_err(),
        SnapshotError::PayloadCrc
    );

    // An out-of-range verdict tag with the payload CRC repaired: the
    // structural record validation must fire. Entry 0's payload starts at
    // the payload region's base and its first byte is the verdict tag.
    let payload_off = u64::from_le_bytes(doc[32..40].try_into().unwrap()) as usize;
    let payload_len = u64::from_le_bytes(doc[40..48].try_into().unwrap()) as usize;
    let mut bad = doc.clone();
    bad[payload_off] = 7; // no such verdict tag
    let crc = crc32(&bad[payload_off..payload_off + payload_len]);
    put_u32(&mut bad, payload_off + payload_len, crc);
    assert!(matches!(
        CacheSnapshot::from_bytes(bad),
        Err(SnapshotError::Record { index: 0, .. })
    ));

    // Truncated payload region (header intact): typed truncation.
    let torn = doc[..doc.len() - 5].to_vec();
    assert!(matches!(
        CacheSnapshot::from_bytes(torn),
        Err(SnapshotError::Truncated { .. })
    ));
}

#[test]
fn errors_render_actionable_messages() {
    let doc = render(true);
    let mut bad = doc.clone();
    put_u32(&mut bad, 4, 2);
    let crc = crc32(&bad[..52]);
    put_u32(&mut bad, 52, crc);
    let err = CacheSnapshot::from_bytes(bad).unwrap_err();
    let message = err.to_string();
    assert!(message.contains("version 2"), "{}", message);
    assert!(message.contains("delete the file"), "{}", message);
}
