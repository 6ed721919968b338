//! # lv-agents — the synthetic LLM and the multi-agent FSM
//!
//! The paper's code generator is GPT-4 orchestrated by AutoGen-style agents.
//! This crate supplies the substitute:
//!
//! * [`vectorizer`] — a rule-based strip-mining vectorizer that produces
//!   *correct* AVX2 candidates for the kernel shapes the paper's model
//!   handles (element-wise code, if-conversion, reductions, s453-style
//!   recurrences);
//! * [`llm`] — the stochastic layer ([`SyntheticLlm`]) that mixes correct
//!   candidates with the documented failure modes at a rate controlled by the
//!   kernel's dependence features, the sampling temperature and the feedback
//!   received so far;
//! * [`fsm`] — the user-proxy / vectorizer-assistant / compiler-tester
//!   finite-state machine with its checksum feedback loop ([`run_fsm`]);
//! * [`batch`] — deterministic batch candidate generation feeding the
//!   `lv_core` verification engine: the experiment drivers' shared-sampler
//!   path ([`sample_completion_batch`], [`fsm_candidate_batch`]), and the
//!   one per-cell seeded path ([`sample_completion_cell`] with
//!   [`derive_cell_seed`]), whose cells can be generated on any number of
//!   threads in any order — how every generated sweep samples, in process
//!   or for a daemon.
//!
//! # Examples
//!
//! ```
//! use lv_agents::{run_fsm, FsmConfig};
//! use lv_cir::parse_function;
//!
//! let scalar = parse_function(
//!     "void s000(int n, int *a, int *b) { for (int i = 0; i < n; i++) { a[i] = b[i] + 1; } }",
//! )?;
//! let result = run_fsm(&scalar, &FsmConfig::default());
//! assert!(result.succeeded());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod batch;
pub mod fsm;
pub mod llm;
pub mod vectorizer;

pub use batch::{
    derive_cell_seed, fsm_candidate_batch, sample_completion_batch, sample_completion_cell,
    CompletionBatch,
};
pub use fsm::{run_fsm, run_fsm_with_llm, AgentRole, FsmConfig, FsmResult, FsmState, Message};
pub use llm::{Completion, LlmConfig, SyntheticLlm, VectorizePrompt};
pub use vectorizer::{vectorize_correct, UnsupportedKernel};
