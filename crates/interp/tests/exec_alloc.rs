//! Pins the interpreter's allocation-free loop: running a kernel at a ten
//! times larger trip count must not make a single extra heap allocation, so
//! nothing is allocated per iteration, per executed block, per declaration
//! or per intrinsic call.
//!
//! The test installs a counting global allocator; it must stay the only
//! test in this binary so no concurrent test pollutes the counter.

use lv_cir::parse_function;
use lv_interp::{run_function, ArgBindings, ExecConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// TSVC `s000`.
const SCALAR: &str =
    "void s000(int n, int *a, int *b) { for (int i = 0; i < n; i++) { a[i] = b[i] + 1; } }";

/// The rule-based vectorizer's candidate for `s000`: a vector loop that
/// declares two `__m256i` locals per iteration and nests intrinsic calls,
/// then a scalar epilogue.
const CANDIDATE: &str = "void s000(int n, int *a, int *b) { int i; for (i = 0; i + 8 <= n; i += 8) { __m256i b_v1 = _mm256_loadu_si256((__m256i *)&b[i]); __m256i a_v2 = _mm256_add_epi32(b_v1, _mm256_set1_epi32(1)); _mm256_storeu_si256((__m256i *)&a[i], a_v2); } for (; i < n; i += 1) { a[i] = b[i] + 1; } }";

#[test]
fn runs_allocate_the_same_at_any_trip_count() {
    let scalar = parse_function(SCALAR).unwrap();
    let candidate = parse_function(CANDIDATE).unwrap();
    let config = ExecConfig::default();
    // The checksum harness's layout: `n` elements plus a slack of 8.
    let bindings = |n: i32| {
        let len = n as usize + 8;
        ArgBindings::new()
            .scalar("n", n)
            .array("a", vec![0; len])
            .array("b", (0..len as i32).collect())
    };
    let (small, large) = (bindings(40), bindings(400));

    let mut counts = Vec::new();
    for args in [&small, &large] {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let scalar_result = run_function(&scalar, args, &config).unwrap();
        let candidate_result = run_function(&candidate, args, &config).unwrap();
        counts.push(ALLOCATIONS.load(Ordering::Relaxed) - before);
        assert_eq!(scalar_result.arrays, candidate_result.arrays);
        assert!(scalar_result.report.steps > 40);
    }

    assert_eq!(
        counts[0], counts[1],
        "allocations at n = 40 vs n = 400: the interpreter allocates per iteration"
    );
}
