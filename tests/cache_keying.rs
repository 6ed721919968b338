//! Property tests for the verdict cache's content addressing, plus the
//! engine-level cache contract.
//!
//! The cache key must be exactly as coarse as the verification problem:
//! alpha-renaming (variables, labels, the function name) must not change a
//! function's [`structural_hash`], while any semantic mutation — a constant,
//! an operator — must. The properties mutate real TSVC kernel ASTs with the
//! `proptest` shim's deterministic sampler; the engine test then checks the
//! behavioral consequence end to end: a renamed candidate is answered from
//! the cache without running a single stage.

use llm_vectorizer_repro::cir::ast::{BinOp, Block, Expr, Function, Stmt};
use llm_vectorizer_repro::cir::visit::{collect_var_names, map_exprs_in_block, rename_var};
use llm_vectorizer_repro::cir::{parse_function, structural_hash};
use llm_vectorizer_repro::core::{
    CachedVerdict, EngineConfig, Equivalence, Job, PipelineConfig, Stage, VerdictCache,
    VerificationEngine,
};
use llm_vectorizer_repro::interp::ChecksumConfig;
use llm_vectorizer_repro::tsvc::KERNELS;
use proptest::prelude::*;
use std::cell::Cell;
use std::sync::Arc;

/// Renames declared names in `Decl` statements ([`rename_var`] only touches
/// expression occurrences).
fn rename_decls(block: Block, from: &str, to: &str) -> Block {
    Block {
        stmts: block
            .stmts
            .into_iter()
            .map(|stmt| rename_decls_stmt(stmt, from, to))
            .collect(),
    }
}

fn rename_decls_stmt(stmt: Stmt, from: &str, to: &str) -> Stmt {
    match stmt {
        Stmt::Decl { ty, name, init } => Stmt::Decl {
            ty,
            name: if name == from { to.to_string() } else { name },
            init,
        },
        Stmt::If {
            cond,
            then_branch,
            else_branch,
        } => Stmt::If {
            cond,
            then_branch: rename_decls(then_branch, from, to),
            else_branch: else_branch.map(|b| rename_decls(b, from, to)),
        },
        Stmt::For {
            init,
            cond,
            step,
            body,
        } => Stmt::For {
            init: init.map(|s| Box::new(rename_decls_stmt(*s, from, to))),
            cond,
            step,
            body: rename_decls(body, from, to),
        },
        Stmt::While { cond, body } => Stmt::While {
            cond,
            body: rename_decls(body, from, to),
        },
        Stmt::Block(b) => Stmt::Block(rename_decls(b, from, to)),
        other => other,
    }
}

/// Collects every declared name in a block, recursively.
fn collect_decl_names(block: &Block, out: &mut Vec<String>) {
    llm_vectorizer_repro::cir::visit::for_each_stmt_in_block(block, &mut |stmt| {
        if let Stmt::Decl { name, .. } = stmt {
            if !out.contains(name) {
                out.push(name.clone());
            }
        }
    });
}

/// Renames every variable (parameters and locals included) to a fresh
/// spelling, along with the function itself.
fn rename_all_vars(func: &Function) -> Function {
    let mut renamed = func.clone();
    renamed.name = format!("{}_renamed", func.name);
    let mut names: Vec<String> = func.params.iter().map(|p| p.name.clone()).collect();
    for name in collect_var_names(&func.body) {
        if !names.contains(&name) {
            names.push(name);
        }
    }
    collect_decl_names(&func.body, &mut names);
    for (i, name) in names.iter().enumerate() {
        let fresh = format!("rn{}_{}", i, name);
        renamed.body = rename_var(renamed.body, name, &fresh);
        renamed.body = rename_decls(renamed.body, name, &fresh);
        for param in &mut renamed.params {
            if param.name == *name {
                param.name = fresh.clone();
            }
        }
    }
    renamed
}

/// Replaces the `target`-th integer literal with `value + delta`; returns
/// `None` when the function has fewer literals.
fn mutate_literal(func: &Function, target: usize, delta: i64) -> Option<Function> {
    let seen = Cell::new(0usize);
    let mutated = Function {
        body: map_exprs_in_block(func.body.clone(), &|e| match e {
            Expr::IntLit(v) => {
                let index = seen.get();
                seen.set(index + 1);
                if index == target {
                    Expr::IntLit(v.wrapping_add(delta))
                } else {
                    Expr::IntLit(v)
                }
            }
            other => other,
        }),
        ..func.clone()
    };
    (seen.get() > target).then_some(mutated)
}

/// Flips the `target`-th `+`/`-`/`*` binary operator; returns `None` when
/// the function has fewer of them.
fn mutate_operator(func: &Function, target: usize) -> Option<Function> {
    let seen = Cell::new(0usize);
    let mutated = Function {
        body: map_exprs_in_block(func.body.clone(), &|e| match e {
            Expr::Binary { op, lhs, rhs } if matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul) => {
                let index = seen.get();
                seen.set(index + 1);
                let op = if index == target {
                    match op {
                        BinOp::Add => BinOp::Sub,
                        BinOp::Sub => BinOp::Mul,
                        _ => BinOp::Add,
                    }
                } else {
                    op
                };
                Expr::Binary { op, lhs, rhs }
            }
            other => other,
        }),
        ..func.clone()
    };
    (seen.get() > target).then_some(mutated)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Renaming every variable and the function itself never changes the
    /// hash, for any kernel in the embedded suite.
    #[test]
    fn renaming_preserves_the_hash(kernel in 0usize..62) {
        let func = KERNELS[kernel % KERNELS.len()].function();
        let renamed = rename_all_vars(&func);
        prop_assert_ne!(&renamed, &func, "renaming must actually change the AST");
        prop_assert_eq!(structural_hash(&renamed), structural_hash(&func));
    }

    /// Perturbing any integer literal changes the hash.
    #[test]
    fn constant_mutations_change_the_hash(kernel in 0usize..62, target in 0usize..6, delta in 1i64..1000) {
        let func = KERNELS[kernel % KERNELS.len()].function();
        if let Some(mutated) = mutate_literal(&func, target, delta) {
            prop_assert_ne!(&mutated, &func);
            prop_assert_ne!(structural_hash(&mutated), structural_hash(&func));
            // And the mutation stays detectable under renaming.
            prop_assert_ne!(
                structural_hash(&rename_all_vars(&mutated)),
                structural_hash(&func)
            );
        }
    }

    /// Flipping any arithmetic operator changes the hash.
    #[test]
    fn operator_mutations_change_the_hash(kernel in 0usize..62, target in 0usize..4) {
        let func = KERNELS[kernel % KERNELS.len()].function();
        if let Some(mutated) = mutate_operator(&func, target) {
            prop_assert_ne!(&mutated, &func);
            prop_assert_ne!(structural_hash(&mutated), structural_hash(&func));
        }
    }

    /// The cache file format round-trips arbitrary keys and details,
    /// including every escape-worthy character class.
    #[test]
    fn cache_file_round_trips(
        scalar in any::<u64>(),
        candidate in any::<u64>(),
        config in any::<u64>(),
        detail_codes in proptest::collection::vec(0u32..0x2500, 12),
    ) {
        use llm_vectorizer_repro::core::CacheKey;
        let detail: String = detail_codes
            .iter()
            .filter_map(|&c| char::from_u32(c))
            .collect();
        let dir = std::env::temp_dir().join(format!("lv-cache-prop-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.json");
        let _ = std::fs::remove_file(&path);

        let key = CacheKey { scalar, candidate, config };
        let verdict = CachedVerdict {
            verdict: Equivalence::NotEquivalent,
            stage: Stage::Checksum,
            detail,
            checksum: None,
        };
        let cache = VerdictCache::open(&path).unwrap();
        cache.insert(key, verdict.clone());
        cache.persist().unwrap();
        let reloaded = VerdictCache::open(&path).unwrap();
        prop_assert_eq!(reloaded.get(&key), Some(verdict));
        std::fs::remove_file(&path).unwrap();
    }
}

/// A goto/label kernel: renaming the label alone must keep the hash stable.
#[test]
fn label_renaming_preserves_the_hash() {
    let original = parse_function(
        "void k(int n, int *a) { for (int i = 0; i < n; i++) { if (a[i]) { goto done; } a[i] = 0; } done: ; }",
    )
    .unwrap();
    let renamed = parse_function(
        "void k(int n, int *a) { for (int i = 0; i < n; i++) { if (a[i]) { goto finish; } a[i] = 0; } finish: ; }",
    )
    .unwrap();
    assert_ne!(original, renamed);
    assert_eq!(structural_hash(&original), structural_hash(&renamed));
}

/// Renames only the candidate's *locals* (declared names), leaving the
/// parameter names intact.
fn rename_locals(func: &Function) -> Function {
    let mut renamed = func.clone();
    let params: Vec<String> = func.params.iter().map(|p| p.name.clone()).collect();
    let mut locals = Vec::new();
    collect_decl_names(&func.body, &mut locals);
    locals.retain(|name| !params.contains(name));
    for (i, name) in locals.iter().enumerate() {
        let fresh = format!("local{}_{}", i, name);
        renamed.body = rename_var(renamed.body, name, &fresh);
        renamed.body = rename_decls(renamed.body, name, &fresh);
    }
    renamed
}

fn quick_pipeline() -> PipelineConfig {
    PipelineConfig {
        checksum: ChecksumConfig {
            trials: 1,
            n: 44,
            ..ChecksumConfig::default()
        },
        ..PipelineConfig::default()
    }
}

const S000_SCALAR: &str =
    "void s000(int n, int *a, int *b) { for (int i = 0; i < n; i++) { a[i] = b[i] + 1; } }";
const S000_VEC: &str = "void s000(int n, int *a, int *b) { int i; for (i = 0; i + 8 <= n; i += 8) { __m256i x = _mm256_loadu_si256((__m256i *)&b[i]); _mm256_storeu_si256((__m256i *)&a[i], _mm256_add_epi32(x, _mm256_set1_epi32(1))); } for (; i < n; i++) { a[i] = b[i] + 1; } }";

/// End to end: a candidate with its locals renamed is the same cache entry,
/// so the second batch answers it without running any stage.
#[test]
fn local_renamed_candidate_is_answered_from_the_cache() {
    let scalar = parse_function(S000_SCALAR).unwrap();
    let candidate = parse_function(S000_VEC).unwrap();
    let renamed = rename_locals(&candidate);
    assert_ne!(renamed, candidate, "the rename must change the AST");

    let cache = Arc::new(VerdictCache::in_memory());
    let engine =
        VerificationEngine::new(EngineConfig::full(quick_pipeline()).with_cache(cache.clone()));
    let cold = engine.run_batch(&[Job::new("s000", scalar.clone(), candidate)]);
    assert_eq!(cold.jobs[0].verdict, Equivalence::Equivalent);
    assert_eq!(cache.len(), 1);

    let warm = engine.run_batch(&[Job::new("s000", scalar, renamed)]);
    assert!(warm.jobs[0].cache_hit, "local-renamed candidate must hit");
    assert_eq!(warm.stage_runs(), 0);
    assert_eq!(warm.jobs[0].verdict, cold.jobs[0].verdict);
    assert_eq!(warm.jobs[0].detail, cold.jobs[0].detail);
}

/// Every stage binds the candidate's parameters to the scalar's by
/// position, so renaming the candidate's *parameters* is the same
/// verification problem: the verdicts agree, and the renamed candidate is
/// answered from the entry of the name-matched one.
#[test]
fn parameter_renamed_candidate_is_answered_from_the_cache() {
    let scalar = parse_function(S000_SCALAR).unwrap();
    // Missing epilogue: the checksum harness refutes it (n = 44 is not a
    // multiple of 8).
    let no_epilogue = parse_function(
        "void s000(int n, int *a, int *b) { int i; for (i = 0; i + 8 <= n; i += 8) { __m256i x = _mm256_loadu_si256((__m256i *)&b[i]); _mm256_storeu_si256((__m256i *)&a[i], _mm256_add_epi32(x, _mm256_set1_epi32(1))); } }",
    )
    .unwrap();
    // The same candidate with renamed parameters.
    let params_renamed = parse_function(
        "void s000(int m, int *x, int *y) { int i; for (i = 0; i + 8 <= m; i += 8) { __m256i v = _mm256_loadu_si256((__m256i *)&y[i]); _mm256_storeu_si256((__m256i *)&x[i], _mm256_add_epi32(v, _mm256_set1_epi32(1))); } }",
    )
    .unwrap();
    assert_eq!(
        structural_hash(&no_epilogue),
        structural_hash(&params_renamed)
    );

    let fresh = VerificationEngine::new(EngineConfig::full(quick_pipeline()));
    let named_verdict = fresh.check_one(&scalar, &no_epilogue);
    assert_eq!(named_verdict.verdict, Equivalence::NotEquivalent);
    let renamed_verdict = fresh.check_one(&scalar, &params_renamed);
    assert_eq!(renamed_verdict.verdict, named_verdict.verdict);
    assert_eq!(renamed_verdict.detail, named_verdict.detail);

    let cache = Arc::new(VerdictCache::in_memory());
    let engine =
        VerificationEngine::new(EngineConfig::full(quick_pipeline()).with_cache(cache.clone()));
    engine.run_batch(&[Job::new("named", scalar.clone(), no_epilogue)]);
    let second = engine.run_batch(&[Job::new("renamed", scalar, params_renamed)]);
    assert!(
        second.jobs[0].cache_hit,
        "a param-renamed candidate must hit"
    );
    assert_eq!(second.stage_runs(), 0);
    assert_eq!(second.jobs[0].verdict, Equivalence::NotEquivalent);
    assert_eq!(cache.len(), 1);
}

/// Reordering the candidate's parameters changes which caller array each
/// one receives, so it is a different verification problem: the scalar's
/// own body under `(int n, int *b, int *a)` writes the caller's `b`. The
/// cache must keep the two apart.
#[test]
fn parameter_reordered_candidate_is_a_different_cache_entry() {
    let scalar = parse_function(S000_SCALAR).unwrap();
    let correct = parse_function(S000_VEC).unwrap();
    let reordered =
        parse_function(&S000_VEC.replace("(int n, int *a, int *b)", "(int n, int *b, int *a)"))
            .unwrap();

    let fresh = VerificationEngine::new(EngineConfig::full(quick_pipeline()));
    assert_eq!(
        fresh.check_one(&scalar, &correct).verdict,
        Equivalence::Equivalent
    );
    assert_eq!(
        fresh.check_one(&scalar, &reordered).verdict,
        Equivalence::NotEquivalent
    );

    // Warm the cache with the reordered candidate, then query the correct
    // one: it must miss and re-derive its own verdict.
    let cache = Arc::new(VerdictCache::in_memory());
    let engine =
        VerificationEngine::new(EngineConfig::full(quick_pipeline()).with_cache(cache.clone()));
    engine.run_batch(&[Job::new("reordered", scalar.clone(), reordered)]);
    assert_eq!(cache.len(), 1);
    let second = engine.run_batch(&[Job::new("correct", scalar, correct)]);
    assert!(
        !second.jobs[0].cache_hit,
        "a param-reordered entry must not answer the correct candidate"
    );
    assert_eq!(second.jobs[0].verdict, Equivalence::Equivalent);
    assert_eq!(cache.len(), 2);
}

/// `vsumr` and `s311r` differ only in their names, so one candidate text
/// for each (spelled with its kernel's name) is one cache entry. A type
/// error's detail must therefore not name the kernel: whichever job the
/// engine runs, the other is answered with its detail.
#[test]
fn compile_error_details_name_no_kernel() {
    let kernel = |name: &str| {
        KERNELS
            .iter()
            .find(|k| k.name == name)
            .expect("a TSVC kernel")
            .function()
    };
    let candidate = |name: &str| {
        parse_function(&format!(
            "void {name}(int n, int *a, int *out) {{ __m256i x = _mm256_frobnicate(_mm256_set1_epi32(1)); }}"
        ))
        .unwrap()
    };
    let jobs = [
        Job::new("vsumr#0", kernel("vsumr"), candidate("vsumr")),
        Job::new("s311r#0", kernel("s311r"), candidate("s311r")),
    ];
    let cache = Arc::new(VerdictCache::in_memory());
    let engine = VerificationEngine::new(EngineConfig::full(quick_pipeline()).with_cache(cache));
    let report = engine.run_batch(&jobs);
    assert_eq!(report.jobs.iter().filter(|job| job.cache_hit).count(), 1);
    for (job, other) in report.jobs.iter().zip(["s311r", "vsumr"]) {
        assert_eq!(job.verdict, Equivalence::NotEquivalent);
        assert_eq!(job.stage, Stage::Checksum);
        assert!(job.detail.starts_with("cannot compile: "), "{}", job.detail);
        assert!(
            !job.detail.contains(other) && !job.detail.contains(&job.label[..5]),
            "{}: {}",
            job.label,
            job.detail
        );
    }
    assert_eq!(report.jobs[0].detail, report.jobs[1].detail);
}
