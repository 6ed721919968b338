//! Pins the C printer byte for byte.
//!
//! Every TSVC kernel is printed with its rule-based candidate and 16 seeded
//! synthetic completions under four seeds. The printings are concatenated
//! and the whole text is pinned by its length and its FNV-1a digest. The
//! text is what the service client sends and what the daemon's key memo
//! compares, so a printer change that moves one byte moves both.

use llm_vectorizer_repro::agents::{sample_completion_cell, vectorize_correct, LlmConfig};
use llm_vectorizer_repro::cir::{print_function, print_function_into, Fnv64};
use llm_vectorizer_repro::tsvc::KERNELS;

/// Length of the concatenated printings, as the printer writes them at
/// `1967a32`.
const LENGTH: usize = 1_966_845;

/// FNV-1a-64 of the concatenated printings at `1967a32`.
const DIGEST: u64 = 0xdef5_70db_6307_b93c;

/// Seeds of the synthetic completions.
const SEEDS: u64 = 4;

/// Completions per kernel and seed.
const COMPLETIONS: usize = 16;

#[test]
fn printed_text_of_every_kernel_and_candidate_is_pinned() {
    let mut text = String::new();
    for seed in 0..SEEDS {
        let llm = LlmConfig {
            seed,
            ..LlmConfig::default()
        };
        for (i, kernel) in KERNELS.iter().enumerate() {
            let scalar = kernel.function();
            text.push_str(&print_function(&scalar));
            if let Ok(candidate) = vectorize_correct(&scalar) {
                text.push_str(&print_function(&candidate));
            }
            for j in 0..COMPLETIONS {
                let completion = sample_completion_cell(&scalar, &llm, i, j);
                text.push_str(&print_function(&completion.candidate));
            }
        }
    }
    let mut fnv = Fnv64::new();
    fnv.write(text.as_bytes());
    assert_eq!(text.len(), LENGTH, "printed length moved");
    assert_eq!(
        fnv.finish(),
        DIGEST,
        "printed text moved (digest {:#018x} over {} bytes)",
        fnv.finish(),
        text.len()
    );
}

#[test]
fn printing_into_a_buffer_appends_the_same_bytes() {
    let mut buffer = String::from("// earlier text\n");
    for kernel in KERNELS.iter() {
        let scalar = kernel.function();
        let start = buffer.len();
        print_function_into(&scalar, &mut buffer);
        assert_eq!(&buffer[start..], print_function(&scalar), "{}", kernel.name);
        if let Ok(candidate) = vectorize_correct(&scalar) {
            let start = buffer.len();
            print_function_into(&candidate, &mut buffer);
            assert_eq!(
                &buffer[start..],
                print_function(&candidate),
                "{}",
                kernel.name
            );
        }
    }
    assert!(buffer.starts_with("// earlier text\n"));
}
