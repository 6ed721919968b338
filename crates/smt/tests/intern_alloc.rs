//! Pins the interner's allocation budget. Constructing a term that already
//! exists (a cache hit) must not touch the heap: this is the hot path of
//! symbolic execution, which re-derives mostly-shared terms for every
//! unrolled iteration. A term built again after [`Context::clear`] may
//! allocate its own argument list (a variable, its name) and nothing else:
//! the interner's table and hash chains keep their storage.
//!
//! The test installs a counting global allocator; it must stay the only
//! test in this binary so no concurrent test pollutes the counter.

use lv_smt::{Context, Op, Sort, TermId};
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

/// Terms in the mix.
const MIX_LEN: usize = 74;

/// Appends a representative mix to `out`: variables, constants, boolean and
/// bitvector operators, ite/eq — everything the symbolic executor interns.
fn build_mix(ctx: &mut Context, out: &mut Vec<TermId>) {
    let x = ctx.bv_var("x", 32);
    let y = ctx.bv_var("lane!7!value", 32);
    let one = ctx.bv32(1);
    let sum = ctx.bv_add(x, y);
    let prod = ctx.bv_mul(sum, one);
    let cmp = ctx.bv_slt(prod, x);
    let p = ctx.bool_var("p");
    let conj = ctx.and(cmp, p);
    let pick = ctx.ite(conj, sum, prod);
    let eq = ctx.eq(pick, x);
    out.extend([x, y, one, sum, prod, cmp, p, conj, pick, eq]);
    // A longer tail of distinct terms, so the rebuild below creates many
    // more terms than the table has initial slots.
    let mut acc = sum;
    for k in 0..64 {
        let c = ctx.bv32(k * 7 + 3);
        let shifted = ctx.bv_shl(acc, c);
        let mixed = ctx.bv_xor(shifted, y);
        acc = ctx.bv_sub(mixed, x);
        out.push(acc);
    }
}

#[test]
fn interner_hits_allocate_nothing() {
    let mut ctx = Context::new();
    let mut mix = Vec::with_capacity(MIX_LEN);
    build_mix(&mut ctx, &mut mix);
    let [x, y, one, sum, prod, cmp, p, conj, pick, eq] = mix[..10] else {
        unreachable!("the mix starts with ten named terms")
    };
    let terms_before = ctx.len();

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..1_000 {
        assert_eq!(ctx.bv_var("x", 32), x);
        assert_eq!(ctx.bv_var("lane!7!value", 32), y);
        assert_eq!(ctx.bv32(1), one);
        assert_eq!(ctx.bv_add(x, y), sum);
        assert_eq!(ctx.bv_mul(sum, one), prod);
        assert_eq!(ctx.bv_slt(prod, x), cmp);
        assert_eq!(ctx.bool_var("p"), p);
        assert_eq!(ctx.and(cmp, p), conj);
        assert_eq!(ctx.ite(conj, sum, prod), pick);
        assert_eq!(ctx.eq(pick, x), eq);
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);

    assert_eq!(ctx.len(), terms_before, "hits must not grow the arena");
    assert_eq!(
        after - before,
        0,
        "interner hits performed heap allocations"
    );
    assert_eq!(ctx.sort(eq), Sort::Bool);

    // Rebuilding after `clear` reuses the arena, the table and the chains:
    // each new term may allocate one block (its `args`, or a variable's
    // name), and nothing else may.
    ctx.clear();
    let mut rebuilt = Vec::with_capacity(MIX_LEN);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    build_mix(&mut ctx, &mut rebuilt);
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(rebuilt, mix, "the same terms get the same ids");
    assert_eq!(ctx.len(), terms_before);
    let own_blocks = (0..ctx.len() as u32)
        .filter(|&i| {
            let term = ctx.term(TermId(i));
            matches!(term.op, Op::Var { .. }) || !term.args.is_empty()
        })
        .count() as u64;
    assert!(
        after - before <= own_blocks,
        "rebuilding {} terms after clear() made {} allocations; their own \
         argument lists and names account for {own_blocks}",
        ctx.len(),
        after - before
    );
}
