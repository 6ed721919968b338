//! Pins the type checker's allocation-free expressions: typing a pointer
//! variable, an address-of (`&b[i]`) or a pointer cast (`(__m256i *)`)
//! allocates nothing, so [`check_types`] of a candidate allocates only its
//! scope stack, however many pointer-typed expressions the body holds.
//!
//! The test installs a counting global allocator; it must stay the only
//! test in this binary so no concurrent test pollutes the counter.

use lv_cir::{check_types, parse_function};
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

/// Allocations made by `f`.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, out)
}

/// The rule-based vectorizer's candidate for TSVC `s000`: four pointer
/// variable uses, two address-of expressions and two pointer casts.
const CANDIDATE: &str = "void s000(int n, int *a, int *b) { int i; for (i = 0; i + 8 <= n; i += 8) { __m256i b_v1 = _mm256_loadu_si256((__m256i *)&b[i]); __m256i a_v2 = _mm256_add_epi32(b_v1, _mm256_set1_epi32(1)); _mm256_storeu_si256((__m256i *)&a[i], a_v2); } for (; i < n; i += 1) { a[i] = b[i] + 1; } }";

/// One more statement of pointer-typed expressions and no declaration: it
/// leaves the scope stack as it is.
const COPY: &str = "_mm256_storeu_si256((__m256i *)&a[i], _mm256_loadu_si256((__m256i *)(b + i)));";

#[test]
fn pointer_typed_expressions_allocate_nothing() {
    let candidate = parse_function(CANDIDATE).unwrap();
    let (base, checked) = allocations(|| check_types(&candidate));
    checked.unwrap();
    // The scope stack's growth to its six variables, and nothing else.
    assert_eq!(base, 2, "check_types of the s000 candidate");

    let copies = COPY.repeat(32);
    let longer = parse_function(&CANDIDATE.replacen(
        "_mm256_storeu_si256",
        &format!("{} _mm256_storeu_si256", copies),
        1,
    ))
    .unwrap();
    let (more, checked) = allocations(|| check_types(&longer));
    checked.unwrap();
    assert_eq!(
        more, base,
        "32 more statements of pointer-typed expressions allocate nothing"
    );
}
