//! The reference layer: one engine run's scalar checksum references.
//!
//! Checksum testing runs the scalar kernel and the candidate on the same
//! seeded inputs, and the scalar half depends only on the scalar and the
//! checksum configuration ([`ScalarReference`]). Every candidate of a
//! kernel therefore shares it: the checksum stage takes the reference from
//! its worker's [`ReferenceTable`] and tests only the candidate.
//!
//! The engine makes one table per `run` call (batch or stream) and shares it
//! among that call's workers, the way it shares the in-flight table; the
//! table is dropped when the call returns. [`VerificationEngine::check_one`]
//! and a caller's own [`WorkerState`] get a fresh table each.
//!
//! [`VerificationEngine::check_one`]: super::VerificationEngine::check_one
//! [`WorkerState`]: super::WorkerState

use lv_cir::ast::Function;
use lv_interp::{ChecksumConfig, ScalarReference};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// The most references a [`ReferenceTable`] holds. A reference of a TSVC
/// kernel at the default configuration (three trials of 108-element arrays)
/// is about 5 KB, so a full table stays well under a megabyte.
pub const REFERENCE_TABLE_CAPACITY: usize = 64;

/// Scalar checksum references keyed by the exact scalar and the checksum
/// configuration's fingerprint, at most [`REFERENCE_TABLE_CAPACITY`] of
/// them; the oldest is dropped first.
///
/// The key compares whole scalars, not their hashes: the daemon takes
/// scalars from clients, so two distinct scalars must never share a
/// reference.
#[derive(Debug, Default)]
pub struct ReferenceTable(Mutex<VecDeque<Entry>>);

#[derive(Debug)]
struct Entry {
    /// [`ChecksumConfig::fingerprint`] of the configuration it was built
    /// under.
    config: u64,
    reference: Arc<ScalarReference>,
}

impl ReferenceTable {
    /// An empty table.
    pub fn new() -> ReferenceTable {
        ReferenceTable::default()
    }

    /// The reference of `scalar` under `config`, whose fingerprint is
    /// `fingerprint`: the stored one, or a new one that is stored. A miss
    /// builds the reference without holding the table, so a worker that
    /// builds one never blocks the others.
    pub fn reference(
        &self,
        scalar: &Function,
        config: &ChecksumConfig,
        fingerprint: u64,
    ) -> Arc<ScalarReference> {
        if let Some(found) = self.find(scalar, fingerprint) {
            return found;
        }
        let built = Arc::new(ScalarReference::new(scalar, config));
        let mut entries = self.0.lock().expect("reference table poisoned");
        // Another worker may have stored the same reference meanwhile.
        if let Some(found) = lookup(&entries, scalar, fingerprint) {
            return found;
        }
        if entries.len() == REFERENCE_TABLE_CAPACITY {
            entries.pop_front();
        }
        entries.push_back(Entry {
            config: fingerprint,
            reference: Arc::clone(&built),
        });
        built
    }

    /// The number of references held.
    pub fn len(&self) -> usize {
        self.0.lock().expect("reference table poisoned").len()
    }

    /// `true` when the table holds no reference.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn find(&self, scalar: &Function, fingerprint: u64) -> Option<Arc<ScalarReference>> {
        lookup(
            &self.0.lock().expect("reference table poisoned"),
            scalar,
            fingerprint,
        )
    }
}

fn lookup(
    entries: &VecDeque<Entry>,
    scalar: &Function,
    fingerprint: u64,
) -> Option<Arc<ScalarReference>> {
    entries
        .iter()
        .find(|e| e.config == fingerprint && e.reference.scalar() == scalar)
        .map(|e| Arc::clone(&e.reference))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lv_cir::parse_function;
    use lv_interp::checksum_test;

    fn config() -> ChecksumConfig {
        ChecksumConfig {
            trials: 1,
            n: 40,
            ..ChecksumConfig::default()
        }
    }

    /// `s000` adding `k`: one distinct scalar per `k`.
    fn scalar(k: i32) -> Function {
        parse_function(&format!(
            "void s000(int n, int *a, int *b) {{ for (int i = 0; i < n; i++) {{ a[i] = b[i] + {k}; }} }}"
        ))
        .unwrap()
    }

    #[test]
    fn a_stored_reference_is_shared_and_keyed_by_config() {
        let table = ReferenceTable::new();
        let config = config();
        let fingerprint = config.fingerprint();
        let first = table.reference(&scalar(1), &config, fingerprint);
        let again = table.reference(&scalar(1), &config, fingerprint);
        assert!(Arc::ptr_eq(&first, &again), "the second lookup hits");
        assert_eq!(table.len(), 1);

        let mut other = config.clone();
        other.trials = 2;
        let under_other = table.reference(&scalar(1), &other, other.fingerprint());
        assert!(!Arc::ptr_eq(&first, &under_other));
        assert_eq!(table.len(), 2);
    }

    #[test]
    fn the_table_stays_within_its_bound_on_a_stream_of_distinct_scalars() {
        let table = ReferenceTable::new();
        let config = config();
        let fingerprint = config.fingerprint();
        let candidate = scalar(1);
        for k in 0..(REFERENCE_TABLE_CAPACITY as i32 + 10) {
            let scalar = scalar(k);
            let reference = table.reference(&scalar, &config, fingerprint);
            assert!(table.len() <= REFERENCE_TABLE_CAPACITY);
            assert_eq!(
                format!("{:?}", reference.test(&candidate)),
                format!("{:?}", checksum_test(&scalar, &candidate, &config)),
                "k = {k}"
            );
        }
        assert_eq!(table.len(), REFERENCE_TABLE_CAPACITY);
        // The oldest scalars were dropped, the newest are still held.
        let newest = scalar(REFERENCE_TABLE_CAPACITY as i32 + 9);
        let held = table.reference(&newest, &config, fingerprint);
        assert!(Arc::ptr_eq(
            &held,
            &table.reference(&newest, &config, fingerprint)
        ));
        assert!(lookup(&table.0.lock().unwrap(), &scalar(0), fingerprint).is_none());
    }
}
