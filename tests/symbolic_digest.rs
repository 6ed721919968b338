//! Pins the symbolic stages bit for bit.
//!
//! Every strategy of `SymbolicStrategy::ALL` is run, through one session, on
//! the rule-based candidate of every supported TSVC kernel, on the streamed
//! pass@k benchmark's jobs, on a candidate wrong at one magic input and on
//! the bitwise-select candidates that reach the SAT search. Every verdict is
//! folded into one FNV-1a digest: its variant and its counterexample or
//! reason text. The session's final query, conflict, decision and clause
//! counts are folded in last, so a change to the SAT path that keeps the
//! verdicts but moves the search moves the digest too.

use llm_vectorizer_repro::cir::{parse_function, Fnv64};
use llm_vectorizer_repro::core::Job;
use llm_vectorizer_repro::tsvc::kernel;
use llm_vectorizer_repro::tv::{SymbolicStrategy, TvSession, TvVerdict};
use lv_bench::{bitwise_select_jobs, passk_jobs, small_budget_pipeline, sweep_jobs};

/// The digest of every verdict and of the session's effort, as the symbolic
/// stages compute them at `49cc921`.
const DIGEST: u64 = 0x92d1_3aac_9746_35b8;

/// Correct except where `b[i] == 123456789`: there the mask (-1) is added
/// too, so `a[i]` gets `b[i]` instead of `b[i] + 1`. No edge-biased
/// assignment hits the input, so only a SAT model refutes it.
const S000_MAGIC: &str = "void s000(int n, int *a, int *b) { int i; for (i = 0; i + 8 <= n; i += 8) { __m256i x = _mm256_loadu_si256((__m256i *)&b[i]); __m256i m = _mm256_cmpeq_epi32(x, _mm256_set1_epi32(123456789)); _mm256_storeu_si256((__m256i *)&a[i], _mm256_add_epi32(_mm256_add_epi32(x, _mm256_set1_epi32(1)), m)); } for (; i < n; i++) { a[i] = b[i] + 1; } }";

/// Hashes one verdict and returns its variant: equivalent, not equivalent,
/// inconclusive.
fn hash_verdict(fnv: &mut Fnv64, verdict: &TvVerdict) -> usize {
    match verdict {
        TvVerdict::Equivalent => {
            fnv.write_u8(0);
            0
        }
        TvVerdict::NotEquivalent { counterexample } => {
            fnv.write_u8(1);
            fnv.write_str(counterexample);
            1
        }
        TvVerdict::Inconclusive { reason } => {
            fnv.write_u8(2);
            fnv.write_str(reason);
            2
        }
    }
}

#[test]
fn every_symbolic_verdict_is_pinned() {
    let rule_based = sweep_jobs();
    assert_eq!(rule_based.len(), 37);
    let magic = Job::new(
        "s000#magic",
        kernel("s000").unwrap().function(),
        parse_function(S000_MAGIC).unwrap(),
    );
    let jobs: Vec<Job> = rule_based
        .into_iter()
        .chain(passk_jobs())
        .chain([magic])
        .chain(bitwise_select_jobs())
        .collect();

    let config = small_budget_pipeline().tv;
    let mut session = TvSession::new();
    let mut fnv = Fnv64::new();
    let mut variants = [[0usize; 3]; 3];
    for job in &jobs {
        fnv.write_str(&job.label);
        for (s, strategy) in SymbolicStrategy::ALL.into_iter().enumerate() {
            let verdict = strategy.run(&job.scalar, &job.candidate, &config, &mut session);
            fnv.write_u8(s as u8);
            variants[s][hash_verdict(&mut fnv, &verdict)] += 1;
        }
    }
    let stats = session.stats;
    fnv.write_u64(stats.queries);
    fnv.write_u64(stats.conflicts);
    fnv.write_u64(stats.decisions);
    fnv.write_u64(stats.clauses);

    // Every strategy gives every verdict, and the SAT search ran, so each
    // kind of text and the search itself are in the digest.
    assert!(variants.iter().flatten().all(|&n| n > 0), "{variants:?}");
    assert!(stats.conflicts > 0 && stats.clauses > 0, "{stats:?}");
    assert_eq!(
        fnv.finish(),
        DIGEST,
        "symbolic verdicts moved (digest {:#018x} over {} jobs; {variants:?}; {stats:?})",
        fnv.finish(),
        jobs.len()
    );
}
