//! Pins the printer's allocation-free path: printing a function into a
//! `String` that already has room allocates nothing, however long the body,
//! and [`print_function`] allocates only the string it returns (once, for
//! a function that fits its first 1 KiB).
//!
//! The test installs a counting global allocator; it must stay the only
//! test in this binary so no concurrent test pollutes the counter.

use lv_cir::{parse_function, print_function, print_function_into, Function};
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

/// The rule-based vectorizer's candidate for TSVC `s000`: pointer types,
/// casts, intrinsic calls, integer literals, binary and compound-assignment
/// operators, a declaration in a `for` header and one outside it.
const CANDIDATE: &str = "void s000(int n, int *a, int *b) { int i; for (i = 0; i + 8 <= n; i += 8) { __m256i b_v1 = _mm256_loadu_si256((__m256i *)&b[i]); __m256i a_v2 = _mm256_add_epi32(b_v1, _mm256_set1_epi32(1)); _mm256_storeu_si256((__m256i *)&a[i], a_v2); } for (; i < n; i += 1) { a[i] = b[i] + 1; } }";

/// Prints `func` into a buffer that already holds some text and has room
/// for the printing; returns the allocations and the appended text.
fn print_with_room(func: &Function) -> (u64, String) {
    let len = print_function(func).len();
    let mut buffer = String::with_capacity(16 + len);
    buffer.push_str("// before\n");
    let (count, ()) = allocations(|| print_function_into(func, &mut buffer));
    (count, buffer.split_off("// before\n".len()))
}

/// The most allocations a `String` of `len` bytes makes when it starts at
/// 1 KiB and grows by doubling.
fn growth_bound(len: usize) -> u64 {
    1 + u64::from(len.div_ceil(1024).next_power_of_two().trailing_zeros())
}

#[test]
fn printing_into_a_buffer_with_room_allocates_nothing() {
    let candidate = parse_function(CANDIDATE).unwrap();
    let (count, text) = print_with_room(&candidate);
    assert_eq!(text, print_function(&candidate));
    assert_eq!(count, 0, "print_function_into of the s000 candidate");

    let mut longer = candidate.clone();
    longer.body.stmts = std::iter::repeat_n(candidate.body.stmts.iter().cloned(), 32)
        .flatten()
        .collect();
    let (count, text) = print_with_room(&longer);
    assert_eq!(text, print_function(&longer));
    assert!(
        text.len() > 32 * (CANDIDATE.len() / 2),
        "{} bytes",
        text.len()
    );
    assert_eq!(count, 0, "print_function_into of a body 32 times as long");

    let (count, text) = allocations(|| print_function(&candidate));
    assert_eq!(count, 1, "print_function of {} bytes", text.len());
    let (count, text) = allocations(|| print_function(&longer));
    assert!(
        count <= growth_bound(text.len()),
        "print_function of {} bytes made {count} allocations",
        text.len()
    );
}
