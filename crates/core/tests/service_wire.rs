//! Wire-protocol codec torture tests: truncating a frame at every byte
//! offset and flipping a bit at every byte offset must each yield a *typed*
//! [`WireError`] — never a wrong message, a dropped verdict, or a panic.

use lv_core::service::wire::{
    check_magic, crc32, decode_message_frame, encode_frame, encode_message, read_frame,
    read_message, Message, ServiceStatus, VerdictFrame, WireError, MAX_FRAME_BYTES,
};
use lv_core::service::ServiceError;
use lv_core::{CachedVerdict, Equivalence, Stage};
use serde::bin;

/// One message of every wire variant, with representative payloads.
fn sample_messages() -> Vec<Message> {
    vec![
        Message::Hello { version: 1 },
        Message::Submit {
            label: "s000".to_string(),
            scalar: "void s000(float * a, float * b) { }".to_string(),
            candidate: "void s000(float * a, float * b) { }".to_string(),
        },
        Message::Run { count: 3 },
        Message::Status,
        Message::Shutdown,
        Message::ServerHello {
            version: 1,
            fingerprint: 0xdead_beef_1234_5678,
        },
        Message::Verdict(VerdictFrame {
            index: 7,
            label: "s112".to_string(),
            cache_hit: true,
            verdict: CachedVerdict {
                verdict: Equivalence::Equivalent,
                stage: Stage::Alive2,
                detail: "proved over 3 chunk(s)".to_string(),
                checksum: None,
            },
        }),
        Message::Done { count: 3 },
        Message::StatusReport(ServiceStatus {
            connections: 1,
            received: 20,
            completed: 19,
            dedupe_hits: 7,
            stages: 41,
        }),
        Message::Error {
            detail: "job 's1': unparsable scalar".to_string(),
        },
        Message::ShutdownAck,
    ]
}

fn frame(payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_frame(&mut buf, payload);
    buf
}

#[test]
fn every_variant_round_trips() {
    for message in sample_messages() {
        let bytes = encode_message(&message);
        let decoded = decode_message_frame(&bytes).expect("round-trip");
        assert_eq!(decoded, message);
    }
}

#[test]
fn truncation_at_every_offset_is_a_typed_error() {
    for message in sample_messages() {
        let bytes = encode_message(&message);
        for len in 0..bytes.len() {
            let result = decode_message_frame(&bytes[..len]);
            assert!(
                result.is_err(),
                "{:?} truncated to {} byte(s) decoded to {:?}",
                message,
                len,
                result
            );
        }
    }
}

#[test]
fn single_byte_corruption_at_every_offset_is_a_typed_error() {
    // Without recomputing the CRC, no single corrupted byte — in the
    // length prefix, the payload (tag included), or the checksum itself —
    // may survive decoding. A flip that shrinks the recorded length is the
    // interesting case: the CRC is then read from inside the payload, and
    // the frame must still fail (checksum mismatch or trailing bytes),
    // never decode to a different message.
    for message in sample_messages() {
        let bytes = encode_message(&message);
        for offset in 0..bytes.len() {
            for flip in [0x01u8, 0x80] {
                let mut corrupt = bytes.clone();
                corrupt[offset] ^= flip;
                let result = decode_message_frame(&corrupt);
                assert!(
                    result.is_err(),
                    "{:?} with byte {} ^ {:#04x} decoded to {:?}",
                    message,
                    offset,
                    flip,
                    result
                );
            }
        }
    }
}

#[test]
fn typed_errors_name_the_failure() {
    // Empty input: not even a length prefix.
    assert_eq!(
        decode_message_frame(&[]),
        Err(WireError::Truncated { needed: 4, have: 0 })
    );

    // A length prefix past the frame cap is rejected before any read.
    let mut oversized = ((MAX_FRAME_BYTES as u32) + 1).to_le_bytes().to_vec();
    oversized.extend_from_slice(&[0u8; 8]);
    assert!(matches!(
        decode_message_frame(&oversized),
        Err(WireError::Oversized { .. })
    ));

    // An unknown tag inside a perfectly framed payload.
    assert_eq!(
        decode_message_frame(&frame(&[0x7f])),
        Err(WireError::UnknownTag(0x7f))
    );

    // A valid message payload with garbage appended inside the frame.
    let mut padded = Vec::new();
    Message::Status.encode_payload(&mut padded);
    padded.push(0xaa);
    assert_eq!(
        decode_message_frame(&frame(&padded)),
        Err(WireError::TrailingBytes(1))
    );

    // A valid frame with garbage appended after it.
    let mut extra = encode_message(&Message::Status);
    extra.extend_from_slice(&[1, 2, 3]);
    assert_eq!(
        decode_message_frame(&extra),
        Err(WireError::TrailingBytes(3))
    );

    // A corrupted checksum is reported with both values.
    let good = encode_message(&Message::Shutdown);
    let mut bad_crc = good.clone();
    let last = bad_crc.len() - 1;
    bad_crc[last] ^= 0xff;
    assert!(matches!(
        decode_message_frame(&bad_crc),
        Err(WireError::FrameCrc { .. })
    ));

    // The wrong magic is typed too.
    assert!(check_magic(b"LVSV").is_ok());
    assert_eq!(check_magic(b"LVSX"), Err(WireError::BadMagic(*b"LVSX")));
}

/// Tag `0x06` framed the server-side generation request of wire versions
/// 1–3 (label, scalar, completion count, seed). A well-framed payload in
/// that layout now decodes to a typed unknown tag, never to a message.
#[test]
fn the_retired_generation_tag_is_an_unknown_tag() {
    let mut payload = Vec::new();
    bin::put_u8(&mut payload, 0x06);
    bin::put_str(&mut payload, "s453");
    bin::put_str(&mut payload, "void s453(float * a, float * b) { }");
    bin::put_u32(&mut payload, 8);
    bin::put_u64(&mut payload, 0xC0FFEE);
    assert_eq!(
        decode_message_frame(&frame(&payload)),
        Err(WireError::UnknownTag(0x06))
    );
}

#[test]
fn malformed_field_values_are_typed_even_under_a_valid_crc() {
    // Locate the cache-hit flag byte by diffing two encodings that differ
    // only in it, then force it to an out-of-domain value and reframe with
    // a *correct* CRC: the decoder must still reject the payload.
    let verdict = CachedVerdict {
        verdict: Equivalence::Inconclusive,
        stage: Stage::Splitting,
        detail: String::new(),
        checksum: None,
    };
    let make = |cache_hit: bool| {
        let mut payload = Vec::new();
        Message::Verdict(VerdictFrame {
            index: 0,
            label: "k".to_string(),
            cache_hit,
            verdict: verdict.clone(),
        })
        .encode_payload(&mut payload);
        payload
    };
    let hit = make(true);
    let miss = make(false);
    assert_eq!(hit.len(), miss.len());
    let flag = (0..hit.len())
        .find(|&i| hit[i] != miss[i])
        .expect("encodings differ in the flag byte");
    let mut payload = hit.clone();
    payload[flag] = 2;
    assert!(matches!(
        decode_message_frame(&frame(&payload)),
        Err(WireError::Malformed(_))
    ));
}

#[test]
fn stream_reader_distinguishes_clean_close_from_torn_frame() {
    // A clean EOF at a frame boundary is `None` — the peer hung up between
    // messages, not inside one.
    let mut empty: &[u8] = &[];
    assert!(matches!(read_message(&mut empty), Ok(None)));

    // EOF inside a frame (a killed client) is a typed truncation error at
    // every cut point, never a silently dropped or invented message.
    let bytes = encode_message(&Message::Run { count: 9 });
    for len in 1..bytes.len() {
        let mut cut: &[u8] = &bytes[..len];
        let result = read_message(&mut cut);
        assert!(
            matches!(
                result,
                Err(ServiceError::Wire(WireError::Truncated { .. }))
                    | Err(ServiceError::Wire(WireError::FrameCrc { .. }))
            ),
            "cut at {} gave {:?}",
            len,
            result
        );
    }

    // read_frame returns the raw payload with the checksum verified.
    let payload = b"not a message, just a payload".to_vec();
    let mut framed: &[u8] = &frame(&payload)[..];
    // (Sanity: the framing helper and the journal CRC agree.)
    let recorded = u32::from_le_bytes(
        frame(&payload)[4 + payload.len()..][..4]
            .try_into()
            .unwrap(),
    );
    assert_eq!(recorded, crc32(&payload));
    assert_eq!(read_frame(&mut framed).unwrap(), Some(payload));
}

/// The bytewise table-driven CRC-32 that framed every journal record and
/// wire frame before slicing-by-8: the reference `crc32` must reproduce.
fn bytewise_crc32(bytes: &[u8]) -> u32 {
    let mut table = [0u32; 256];
    for (i, entry) in table.iter_mut().enumerate() {
        let mut crc = i as u32;
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xedb8_8320
            } else {
                crc >> 1
            };
        }
        *entry = crc;
    }
    let mut crc = !0u32;
    for &b in bytes {
        crc = (crc >> 8) ^ table[((crc ^ b as u32) & 0xff) as usize];
    }
    !crc
}

#[test]
fn crc32_equals_the_bytewise_crc_at_every_length_and_alignment() {
    // Known vectors of the IEEE polynomial.
    for (bytes, crc) in [
        (&b""[..], 0),
        (b"a", 0xe8b7_be43),
        (b"123456789", 0xcbf4_3926),
        (b"The quick brown fox jumps over the lazy dog", 0x414f_a339),
    ] {
        assert_eq!(crc32(bytes), crc, "{:?}", String::from_utf8_lossy(bytes));
        assert_eq!(bytewise_crc32(bytes), crc);
    }
    // Every length 0..=256 at every start offset 0..8, so each tail length
    // and each alignment of the 8-byte steps is covered.
    let data: Vec<u8> = (0..264u32)
        .map(|i| (i.wrapping_mul(0x9e37_79b9) >> 13) as u8)
        .collect();
    for offset in 0..8 {
        for len in 0..=256 {
            let bytes = &data[offset..offset + len];
            assert_eq!(
                crc32(bytes),
                bytewise_crc32(bytes),
                "offset {} length {}",
                offset,
                len
            );
        }
    }
}
