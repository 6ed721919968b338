//! Refutation by evaluation, and concrete replay of every counterexample.
//!
//! Before a verification condition is bit-blasted, it is evaluated with
//! [`Context::eval`] under a fixed set of 64 edge-biased assignments: each
//! variable takes 0, ±1, `INT_MAX`, `INT_MIN`, a small value or a hashed
//! 32-bit value, chosen by hashing the query's seed, the trial number and
//! the variable's name. The seed comes from the query itself (its term
//! count and root), so the assignments, and with them every counterexample,
//! are the same on every run and every worker. This is random simulation
//! before SAT, as FRAIG-based equivalence checking does it: a wrong
//! candidate is almost always refuted by the first assignment, and only
//! queries no assignment falsifies reach the SAT search.
//!
//! Whichever found it, a counterexample is then replayed:
//! [`replay_counterexample`] binds its input cells to concrete arguments by
//! parameter position, runs the scalar kernel and the candidate in
//! `lv_interp`, and requires the candidate to produce a different output or
//! to stop on undefined behaviour. The detail is rendered from that run,
//! never from solver variable names. A model the run does not confirm is a
//! divergence between the symbolic and the concrete semantics, and the
//! verdict is `Inconclusive`.

use crate::verify::TvVerdict;
use lv_cir::ast::{Function, Type};
use lv_interp::{run_function, Arg, ArgBindings, ExecConfig, ExecError};
use lv_smt::{Context, TermId};
use std::fmt::Write as _;

/// How many assignments [`falsifying_trial`] evaluates before a query goes
/// to the SAT search.
pub(crate) const EVAL_TRIALS: u32 = 64;

/// The prefix of the reason of every replay that does not confirm its
/// counterexample.
pub const MODEL_DIVERGENCE: &str = "model divergence";

/// The concrete frame a refinement query models, in which its
/// counterexample is replayed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayFrame {
    /// The value of every scalar `int` parameter (the loop bound).
    pub n: i32,
    /// Cells per array parameter.
    pub array_len: usize,
    /// The one output index the query compares (spatial splitting), or
    /// `None` when it compares every cell.
    pub cell: Option<usize>,
}

/// The seed of a query's assignments: its term count and root. A recycled
/// session builds the same query into the same term ids, so the seed does
/// not depend on the worker or on the queries before it.
pub(crate) fn query_seed(ctx: &Context, vc: TermId) -> u64 {
    mix(((ctx.len() as u64) << 32) ^ u64::from(vc.0))
}

/// The value variable `name` takes in assignment `trial` of the query with
/// `seed`, as the low 32 bits of the result.
pub(crate) fn trial_value(seed: u64, trial: u32, name: &str) -> u64 {
    let mut hash = seed ^ u64::from(trial).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    for &b in name.as_bytes() {
        hash = (hash ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    }
    let hash = mix(hash);
    let value = match hash % 8 {
        0 => 0,
        1 => 1,
        2 => -1,
        3 => i32::MAX,
        4 => i32::MIN,
        5 => (hash >> 8) as i32 % 9,
        _ => (hash >> 32) as i32,
    };
    u64::from(value as u32)
}

/// The first of the [`EVAL_TRIALS`] assignments under which `vc` evaluates
/// to false.
pub(crate) fn falsifying_trial(ctx: &Context, vc: TermId, seed: u64) -> Option<u32> {
    (0..EVAL_TRIALS).find(|&trial| ctx.eval(vc, &|name| trial_value(seed, trial, name)) == 0)
}

/// The SplitMix64 finalizer.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Replays a counterexample of the refinement query of `candidate` against
/// `scalar` in `frame`.
///
/// `value_of` gives each input cell's value by its solver name,
/// `{name}!{i}` for cell `i` of the scalar's array parameter `name`; the
/// candidate reads the same cells by position. Every scalar parameter takes
/// `frame.n`. Out-of-window (`oob!`) cells bind nothing: the interpreter
/// stops at such a read as undefined behaviour, which is what the query
/// recorded for it.
///
/// The result is `NotEquivalent` when the candidate stops on undefined
/// behaviour, or produces an output cell (in `frame.cell`, when set) that
/// differs from the scalar's, with the detail in the checksum stage's
/// mismatch form. Anything else is `Inconclusive` with a
/// [`MODEL_DIVERGENCE`] reason.
pub fn replay_counterexample(
    scalar: &Function,
    candidate: &Function,
    frame: &ReplayFrame,
    value_of: &dyn Fn(&str) -> u64,
) -> TvVerdict {
    let mut name = String::new();
    let args = scalar
        .params
        .iter()
        .map(|param| match &param.ty {
            Type::Ptr(_) => Arg::Array(
                (0..frame.array_len)
                    .map(|i| {
                        name.clear();
                        let _ = write!(name, "{}!{}", param.name, i);
                        value_of(&name) as u32 as i32
                    })
                    .collect(),
            ),
            _ => Arg::Int(frame.n),
        })
        .collect();
    let args = ArgBindings { args };
    let exec = ExecConfig::default();
    let divergence = |why: String| TvVerdict::Inconclusive {
        reason: format!("{}: {}", MODEL_DIVERGENCE, why),
    };
    let expected = match run_function(scalar, &args, &exec) {
        Ok(result) => result.arrays,
        Err(err) => return divergence(format!("the scalar kernel fails on it: {}", err)),
    };
    let produced = match run_function(candidate, &args, &exec) {
        Ok(result) => result.arrays,
        Err(ExecError::Ub(event)) => {
            return TvVerdict::NotEquivalent {
                counterexample: format!(
                    "the vectorized code triggered {} that the scalar code does not",
                    event
                ),
            }
        }
        Err(err) => return divergence(format!("the vectorized code fails on it: {}", err)),
    };
    let names = scalar.array_params();
    for (k, (want, got)) in expected.iter().zip(&produced).enumerate() {
        let cells = match frame.cell {
            Some(cell) => cell..cell + 1,
            None => 0..want.len(),
        };
        let differs = cells
            .filter(|&i| i < want.len() && i < got.len())
            .find(|&i| want[i] != got[i]);
        if let Some(i) = differs {
            return TvVerdict::NotEquivalent {
                counterexample: format!(
                    "{}[{}]: expected {} but the vectorized code produced {}",
                    names[k], i, want[i], got[i]
                ),
            };
        }
    }
    divergence("both kernels produce the same outputs without undefined behaviour".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lv_cir::parse_function;

    const S000: &str =
        "void s000(int n, int *a, int *b) { for (int i = 0; i < n; i++) { a[i] = b[i] + 1; } }";

    #[test]
    fn trial_values_cover_every_edge_class() {
        let values: Vec<i32> = (0..EVAL_TRIALS)
            .flat_map(|trial| (0..8).map(move |i| (trial, format!("b!{}", i))))
            .map(|(trial, name)| trial_value(7, trial, &name) as u32 as i32)
            .collect();
        for edge in [0, 1, -1, i32::MAX, i32::MIN] {
            assert!(values.contains(&edge), "{}", edge);
        }
        assert!(values.iter().any(|v| (2..=8).contains(v)));
        assert!(values
            .iter()
            .any(|v| v.unsigned_abs() > 1 << 16 && *v != i32::MIN));
        // The same seed, trial and name always give the same value.
        assert_eq!(trial_value(7, 3, "a!1"), trial_value(7, 3, "a!1"));
        assert_ne!(
            (0..8).map(|t| trial_value(7, t, "a!1")).collect::<Vec<_>>(),
            (0..8).map(|t| trial_value(8, t, "a!1")).collect::<Vec<_>>()
        );
    }

    #[test]
    fn a_wrong_store_replays_as_a_mismatch() {
        let scalar = parse_function(S000).unwrap();
        let wrong = parse_function(
            "void s000(int n, int *a, int *b) { for (int i = 0; i < n; i++) { a[i] = b[i] + 2; } }",
        )
        .unwrap();
        let frame = ReplayFrame {
            n: 8,
            array_len: 16,
            cell: None,
        };
        let verdict = replay_counterexample(&scalar, &wrong, &frame, &|name| {
            u64::from(name == "b!0") * 5
        });
        assert_eq!(
            verdict,
            TvVerdict::NotEquivalent {
                counterexample: "a[0]: expected 6 but the vectorized code produced 7".to_string()
            }
        );
        // Restricted to one cell, the mismatch is reported there.
        let lane = ReplayFrame {
            cell: Some(3),
            ..frame
        };
        assert_eq!(
            replay_counterexample(&scalar, &wrong, &lane, &|_| 0),
            TvVerdict::NotEquivalent {
                counterexample: "a[3]: expected 1 but the vectorized code produced 2".to_string()
            }
        );
    }

    #[test]
    fn candidate_undefined_behaviour_replays() {
        let scalar = parse_function(S000).unwrap();
        let overrun = parse_function(
            "void s000(int n, int *a, int *b) { for (int i = 0; i < n; i++) { a[i] = b[i + 9] + 1; } }",
        )
        .unwrap();
        let frame = ReplayFrame {
            n: 8,
            array_len: 16,
            cell: None,
        };
        let verdict = replay_counterexample(&scalar, &overrun, &frame, &|_| 0);
        match verdict {
            TvVerdict::NotEquivalent { counterexample } => assert!(
                counterexample.starts_with("the vectorized code triggered out-of-bounds read"),
                "{}",
                counterexample
            ),
            other => panic!("{:?}", other),
        }
    }

    #[test]
    fn an_unconfirmed_model_is_a_divergence() {
        let scalar = parse_function(S000).unwrap();
        let frame = ReplayFrame {
            n: 8,
            array_len: 16,
            cell: None,
        };
        match replay_counterexample(&scalar, &scalar, &frame, &|_| 3) {
            TvVerdict::Inconclusive { reason } => {
                assert!(reason.starts_with(MODEL_DIVERGENCE), "{}", reason)
            }
            other => panic!("{:?}", other),
        }
    }
}
