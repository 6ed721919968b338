//! Pins the interpreter's allocation-free loop and the checksum harness's
//! name-free reference test.
//!
//! * Running a kernel at a ten times larger trip count must not make a
//!   single extra heap allocation, so nothing is allocated per iteration,
//!   per executed block, per declaration or per intrinsic call.
//! * Testing a plausible candidate against a warm [`ScalarReference`]
//!   allocates only the run's memory: a copy of each input array, the
//!   region, variable and output lists, and no string and no map. Arguments
//!   bind by position, so no parameter name is copied or hashed.
//!
//! The test installs a counting global allocator; it must stay the only
//! test in this binary so no concurrent test pollutes the counter.

use lv_cir::parse_function;
use lv_interp::{run_function, ArgBindings, ChecksumConfig, ExecConfig, ScalarReference};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
/// Allocations with byte alignment: the buffers of `String`s.
static BYTE_ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(layout);
        System.realloc(ptr, layout, new_size)
    }
}

fn count(layout: Layout) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    if layout.align() == 1 {
        BYTE_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocations (all, byte-aligned) made by `f`.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, u64, T) {
    let (all, bytes) = (
        ALLOCATIONS.load(Ordering::Relaxed),
        BYTE_ALLOCATIONS.load(Ordering::Relaxed),
    );
    let out = f();
    (
        ALLOCATIONS.load(Ordering::Relaxed) - all,
        BYTE_ALLOCATIONS.load(Ordering::Relaxed) - bytes,
        out,
    )
}

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
            .scalar(n)
            .array(vec![0; len])
            .array((0..len as i32).collect())
    };
    let (small, large) = (bindings(40), bindings(400));

    let mut counts = Vec::new();
    for args in [&small, &large] {
        let (all, bytes, (scalar_result, candidate_result)) = allocations(|| {
            (
                run_function(&scalar, args, &config).unwrap(),
                run_function(&candidate, args, &config).unwrap(),
            )
        });
        assert_eq!(bytes, 0, "a run allocated a string");
        counts.push(all);
        assert_eq!(scalar_result.arrays, candidate_result.arrays);
        assert!(scalar_result.report.steps > 40);
    }
    assert_eq!(
        counts[0], counts[1],
        "allocations at n = 40 vs n = 400: the interpreter allocates per iteration"
    );

    // A warm reference: every trial's inputs and outputs are recorded, and
    // testing a candidate type checks it and runs it once per trial, on
    // inputs of the same shape as `small`, and allocates nothing else.
    let trials = 3;
    let checksum = ChecksumConfig {
        trials,
        n: 40,
        ..ChecksumConfig::default()
    };
    let reference = ScalarReference::new(&scalar, &checksum);
    let (check, _, checked) = allocations(|| lv_cir::check_types(&candidate));
    assert!(checked.is_ok());
    let (run, _, _) = allocations(|| run_function(&candidate, &small, &config).unwrap());
    let (all, bytes, report) = allocations(|| reference.test(&candidate));
    assert!(report.outcome.is_plausible(), "{:?}", report.outcome);
    assert_eq!(bytes, 0, "the reference test allocated a string");
    assert_eq!(
        all,
        check + u64::from(trials) * run,
        "the reference test allocates beyond the type check ({check}) and {trials} runs ({run} each)"
    );
}
