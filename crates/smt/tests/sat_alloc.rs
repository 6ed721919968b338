//! Pins the SAT core's warm-path allocation guarantee: once the clause
//! arena, watch lists, and search structures have been sized by
//! [`SatSolver::reserve_clauses`] / [`SatSolver::reserve_watch`] and warmed
//! by a few solve/reset cycles, further conflict-free solves must not touch
//! the heap at all. This is the decide/propagate loop every query's search
//! spends its time in.
//!
//! The test installs a counting global allocator; it must stay the only
//! test in this binary so no concurrent test pollutes the counter.

use lv_smt::{Lit, SatBudget, SatResult, SatSolver};
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

#[test]
fn warm_conflict_free_solves_allocate_nothing() {
    let mut solver = SatSolver::new();

    // Variable-disjoint clauses: satisfiable, and no assignment of one
    // clause's variables can conflict with another's, so the search is
    // conflict-free — pure decide/propagate, the hot steady state.
    const GROUPS: usize = 24;
    let vars: Vec<_> = (0..GROUPS * 3).map(|_| solver.new_var()).collect();

    // Size the arena for the exact clause load before adding anything
    // (GROUPS binary + GROUPS ternary clauses), and give every watch list
    // room for the watches that propagation may migrate onto it.
    solver.reserve_clauses(GROUPS * 2, GROUPS * 5);
    for &var in &vars {
        solver.reserve_watch(Lit::pos(var), 2);
        solver.reserve_watch(Lit::neg(var), 2);
    }

    for group in vars.chunks(3) {
        let (a, b, c) = (group[0], group[1], group[2]);
        assert!(solver.add_clause(&[Lit::pos(a), Lit::pos(b)]));
        assert!(solver.add_clause(&[Lit::pos(a), Lit::pos(b), Lit::pos(c)]));
    }
    let arena_before = solver.arena_bytes();
    let fingerprint = solver.cnf_fingerprint();
    let budget = SatBudget {
        max_conflicts: 1_000,
    };

    // Warm rounds: let the trail, heap, and watch lists reach their
    // steady-state capacities (watches migrate across lists on the first
    // few solves before settling into a cycle).
    for _ in 0..3 {
        assert_eq!(solver.solve(&budget), SatResult::Sat);
        solver.reset_to_root();
    }

    // The counter is global, so a test-harness thread scheduled mid-round
    // could pollute a measurement with a stray allocation. A real
    // regression allocates on every solve and can never produce a clean
    // round; retry a few times and require one allocation-free round.
    let mut cleanest = u64::MAX;
    for _ in 0..5 {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        for _ in 0..10 {
            assert_eq!(solver.solve(&budget), SatResult::Sat);
            solver.reset_to_root();
        }
        let after = ALLOCATIONS.load(Ordering::Relaxed);
        cleanest = cleanest.min(after - before);
        if cleanest == 0 {
            break;
        }
    }

    assert_eq!(
        cleanest, 0,
        "warm conflict-free solves performed heap allocations"
    );
    assert_eq!(
        solver.arena_bytes(),
        arena_before,
        "conflict-free search must not grow the clause arena"
    );
    assert_eq!(
        solver.cnf_fingerprint(),
        fingerprint,
        "solving must not change the stored instance"
    );
}
