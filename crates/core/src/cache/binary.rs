//! The compact binary verdict-record codec the daemon's wire frames carry
//! verdicts in:
//!
//! ```text
//! [verdict u8][stage u8][checksum u8]                -- enum tags
//! [detail varint length][detail UTF-8 bytes]         -- the only variable field
//! ```
//!
//! Decoding is strict: unknown tags, truncated fields and non-UTF-8 details
//! are all errors, never guesses, so a corrupt record can never produce a
//! wrong verdict.

use super::CachedVerdict;
use crate::pipeline::{Equivalence, Stage};
use lv_interp::ChecksumClass;
use serde::bin::{self, Reader};

fn verdict_byte(verdict: Equivalence) -> u8 {
    match verdict {
        Equivalence::Equivalent => 0,
        Equivalence::NotEquivalent => 1,
        Equivalence::Inconclusive => 2,
    }
}

fn parse_verdict_byte(tag: u8) -> Result<Equivalence, String> {
    match tag {
        0 => Ok(Equivalence::Equivalent),
        1 => Ok(Equivalence::NotEquivalent),
        2 => Ok(Equivalence::Inconclusive),
        other => Err(format!("unknown binary verdict tag {}", other)),
    }
}

fn stage_byte(stage: Stage) -> u8 {
    match stage {
        Stage::Checksum => 0,
        Stage::Alive2 => 1,
        Stage::CUnroll => 2,
        Stage::Splitting => 3,
    }
}

fn parse_stage_byte(tag: u8) -> Result<Stage, String> {
    match tag {
        0 => Ok(Stage::Checksum),
        1 => Ok(Stage::Alive2),
        2 => Ok(Stage::CUnroll),
        3 => Ok(Stage::Splitting),
        other => Err(format!("unknown binary stage tag {}", other)),
    }
}

fn checksum_byte(class: Option<ChecksumClass>) -> u8 {
    match class {
        None => 0,
        Some(ChecksumClass::Plausible) => 1,
        Some(ChecksumClass::NotEquivalent) => 2,
        Some(ChecksumClass::CannotCompile) => 3,
        Some(ChecksumClass::ScalarFailed) => 4,
    }
}

fn parse_checksum_byte(tag: u8) -> Result<Option<ChecksumClass>, String> {
    match tag {
        0 => Ok(None),
        1 => Ok(Some(ChecksumClass::Plausible)),
        2 => Ok(Some(ChecksumClass::NotEquivalent)),
        3 => Ok(Some(ChecksumClass::CannotCompile)),
        4 => Ok(Some(ChecksumClass::ScalarFailed)),
        other => Err(format!("unknown binary checksum tag {}", other)),
    }
}

/// Appends the verdict payload (tags + varint-length detail).
pub(crate) fn encode_verdict(buf: &mut Vec<u8>, verdict: &CachedVerdict) {
    bin::put_u8(buf, verdict_byte(verdict.verdict));
    bin::put_u8(buf, stage_byte(verdict.stage));
    bin::put_u8(buf, checksum_byte(verdict.checksum));
    bin::put_str(buf, &verdict.detail);
}

/// Decodes a verdict payload.
pub(crate) fn decode_verdict(r: &mut Reader<'_>) -> Result<CachedVerdict, String> {
    let verdict = parse_verdict_byte(r.u8()?)?;
    let stage = parse_stage_byte(r.u8()?)?;
    let checksum = parse_checksum_byte(r.u8()?)?;
    let detail = r.str()?.to_string();
    Ok(CachedVerdict {
        verdict,
        stage,
        detail,
        checksum,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_class_verdicts() -> Vec<CachedVerdict> {
        let mut out = Vec::new();
        let verdicts = [
            Equivalence::Equivalent,
            Equivalence::NotEquivalent,
            Equivalence::Inconclusive,
        ];
        let stages = [
            Stage::Checksum,
            Stage::Alive2,
            Stage::CUnroll,
            Stage::Splitting,
        ];
        let checksums = [
            None,
            Some(ChecksumClass::Plausible),
            Some(ChecksumClass::NotEquivalent),
            Some(ChecksumClass::CannotCompile),
            Some(ChecksumClass::ScalarFailed),
        ];
        let mut i = 0u64;
        for verdict in verdicts {
            for stage in stages {
                for checksum in checksums {
                    i += 1;
                    out.push(CachedVerdict {
                        verdict,
                        stage,
                        detail: format!("detail {} with \"quotes\"\nand unicode é", i),
                        checksum,
                    });
                }
            }
        }
        out
    }

    #[test]
    fn every_class_round_trips() {
        for verdict in all_class_verdicts() {
            let mut buf = Vec::new();
            encode_verdict(&mut buf, &verdict);
            let mut r = Reader::new(&buf);
            assert_eq!(decode_verdict(&mut r).unwrap(), verdict);
            assert!(r.is_empty(), "decoding consumes the whole payload");
        }
    }

    #[test]
    fn bad_tags_and_truncated_details_are_errors() {
        let verdict = all_class_verdicts().remove(0);
        let mut buf = Vec::new();
        encode_verdict(&mut buf, &verdict);
        let decodes = |bytes: &[u8]| decode_verdict(&mut Reader::new(bytes)).is_ok();
        assert!(decodes(&buf));
        for (offset, limit) in [(0, 3u8), (1, 4), (2, 5)] {
            let mut bad = buf.clone();
            bad[offset] = limit;
            assert!(!decodes(&bad), "tag at {} out of range", offset);
        }
        assert!(!decodes(&buf[..buf.len() - 1]), "truncated detail");
    }
}
