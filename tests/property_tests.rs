//! Property-based tests over the core data structures and invariants.

use llm_vectorizer_repro::cir::{parse_expr, parse_function, print_expr, print_function};
use llm_vectorizer_repro::core::cache::{CacheKey, CachedVerdict, VerdictCache};
use llm_vectorizer_repro::core::pipeline::{Equivalence, Stage};
use llm_vectorizer_repro::interp::{run_function, ArgBindings, ChecksumClass, ExecConfig};
use llm_vectorizer_repro::simd::{eval_intrinsic, I32x8};
use llm_vectorizer_repro::smt::{Solver, SolverBudget, Validity};
use proptest::prelude::*;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A fresh scratch directory per property case (the shim runs cases
/// sequentially, but every case gets its own files regardless).
fn scratch_dir() -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "lv-prop-cache-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Expands one random seed into a cache entry covering every verdict
/// class, stage, and checksum tag, with details that exercise the string
/// escaping edge cases (empty, quotes, newlines, non-ASCII).
fn cache_entry(seed: u64) -> (CacheKey, CachedVerdict) {
    let verdict = match seed % 3 {
        0 => Equivalence::Equivalent,
        1 => Equivalence::NotEquivalent,
        _ => Equivalence::Inconclusive,
    };
    let stage = match (seed >> 2) % 4 {
        0 => Stage::Checksum,
        1 => Stage::Alive2,
        2 => Stage::CUnroll,
        _ => Stage::Splitting,
    };
    let checksum = match (seed >> 4) % 5 {
        0 => None,
        1 => Some(ChecksumClass::Plausible),
        2 => Some(ChecksumClass::NotEquivalent),
        3 => Some(ChecksumClass::CannotCompile),
        _ => Some(ChecksumClass::ScalarFailed),
    };
    let detail = match (seed >> 7) % 4 {
        0 => String::new(),
        1 => format!("a[{}]: expected 1 but the code produced 2", seed % 100),
        2 => format!("says \"{}\"\nacross two lines", seed % 100),
        _ => format!("counterexample №{} → λ", seed % 100),
    };
    (
        CacheKey {
            scalar: seed,
            candidate: seed.rotate_left(17) ^ 0xabcd,
            config: seed.rotate_left(41),
        },
        CachedVerdict {
            verdict,
            stage,
            detail,
            checksum,
        },
    )
}

fn cache_entries(seeds: &[u64]) -> HashMap<CacheKey, CachedVerdict> {
    seeds.iter().map(|&seed| cache_entry(seed)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Printing then re-parsing an expression built from random operands is
    /// the identity on the AST.
    #[test]
    fn expr_print_parse_roundtrip(a in -1000i64..1000, b in -1000i64..1000, op in 0usize..5) {
        let ops = ["+", "-", "*", "&", "|"];
        let src = format!("x * {} {} (y + {})", a, ops[op], b);
        let parsed = parse_expr(&src).unwrap();
        let reparsed = parse_expr(&print_expr(&parsed)).unwrap();
        prop_assert_eq!(parsed, reparsed);
    }

    /// The scalar interpreter and the AVX2 lane model agree on element-wise
    /// addition and multiplication.
    #[test]
    fn simd_matches_scalar_semantics(values in proptest::collection::vec(-10_000i32..10_000, 8)) {
        let v = I32x8::load(&values);
        let doubled = eval_intrinsic("_mm256_add_epi32", &[v.into(), v.into()]).unwrap().unwrap_vector();
        let squared = eval_intrinsic("_mm256_mullo_epi32", &[v.into(), v.into()]).unwrap().unwrap_vector();
        for (i, &v) in values.iter().enumerate() {
            prop_assert_eq!(doubled.lanes()[i], v.wrapping_add(v));
            prop_assert_eq!(squared.lanes()[i], v.wrapping_mul(v));
        }
    }

    /// Running a simple kernel through the interpreter matches a Rust oracle.
    #[test]
    fn interpreter_matches_oracle(b_values in proptest::collection::vec(-1000i32..1000, 16)) {
        let func = parse_function(
            "void f(int n, int *a, int *b) { for (int i = 0; i < n; i++) { a[i] = b[i] * 3 + 1; } }",
        ).unwrap();
        let args = ArgBindings::new()
            .scalar(b_values.len() as i32)
            .array(vec![0; b_values.len()])
            .array(b_values.clone());
        let result = run_function(&func, &args, &ExecConfig::default()).unwrap();
        let expected: Vec<i32> = b_values.iter().map(|&x| x.wrapping_mul(3).wrapping_add(1)).collect();
        prop_assert_eq!(&result.arrays[0], &expected);
    }

    /// The bitvector solver agrees with wrapping i32 arithmetic on ground terms.
    #[test]
    fn smt_constant_arithmetic_is_sound(a in any::<i32>(), b in any::<i32>()) {
        let mut solver = Solver::new();
        let ta = solver.ctx.bv32(a);
        let tb = solver.ctx.bv32(b);
        let sum = solver.ctx.bv_add(ta, tb);
        let expected = solver.ctx.bv32(a.wrapping_add(b));
        let eq = solver.ctx.eq(sum, expected);
        prop_assert_eq!(solver.check_validity(eq, &SolverBudget::default()), Validity::Valid);
    }

    /// Round-tripping whole kernels through the printer preserves structure.
    #[test]
    fn function_print_parse_roundtrip(shift in 1i64..7, k in -50i64..50) {
        let src = format!(
            "void f(int n, int *a, int *b) {{ for (int i = 0; i < n - {}; i++) {{ if (b[i] > {}) {{ a[i] = b[i + {}] * {}; }} }} }}",
            shift, k, shift, k
        );
        let parsed = parse_function(&src).unwrap();
        let reparsed = parse_function(&print_function(&parsed)).unwrap();
        prop_assert_eq!(parsed, reparsed);
    }

    /// Persisting a verdict cache, reopening the JSON snapshot and
    /// persisting it again is the identity on both the entries (every
    /// verdict class, stage, checksum tag, and detail edge case) and the
    /// snapshot bytes themselves.
    #[test]
    fn cache_snapshot_reopen_persist_roundtrip(seeds in proptest::collection::vec(any::<u64>(), 16)) {
        let dir = scratch_dir();
        let path = dir.join("cache.json");
        let entries = cache_entries(&seeds);

        let cache = VerdictCache::open(&path).unwrap();
        for (key, verdict) in &entries {
            cache.insert(*key, verdict.clone());
        }
        cache.persist().unwrap();
        drop(cache);
        let json_before = std::fs::read(&path).unwrap();

        let reopened = VerdictCache::open(&path).unwrap();
        prop_assert_eq!(reopened.len(), entries.len());
        for (key, verdict) in &entries {
            prop_assert_eq!(reopened.get(key).as_ref(), Some(verdict));
        }
        reopened.persist().unwrap();
        drop(reopened);
        let json_after = std::fs::read(&path).unwrap();
        prop_assert_eq!(json_before, json_after);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
