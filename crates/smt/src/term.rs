//! Hash-consed terms for the QF_BV fragment used by the translation
//! validator.
//!
//! A [`Context`] interns terms so that structurally equal terms share an id,
//! and rewrites every term at construction time — the same role Z3's
//! simplifier plays before bit-blasting. Besides constant folding and
//! neutral or absorbing elements (`x + 0`, `x * 1`, `x & 0`, `x & -1`,
//! `x | 0`, `x | -1`, `x ^ 0`), three rule groups make structurally
//! different but equivalent terms intern to the same id, so that a
//! verification condition comparing a scalar kernel with its vectorization
//! folds to `true` before any clause is built:
//!
//! * **Ordering.** The arguments of the commutative operators (`bv_add`,
//!   `bv_mul`, `bv_and`, `bv_or`, `bv_xor`, `eq`, `and`, `or`) are sorted by
//!   term id, and `bv_add` chains are flattened into one sorted, left-leaning
//!   chain whose constants are folded into one trailing constant. A chain
//!   of more than `MAX_ADD_LEAVES` (128) leaves is left as a sorted binary
//!   node, so shared `t + t` DAGs cannot grow exponentially.
//! * **Constant-branch `ite`.** `op(ite(c, k1, k2), k)`, with `k1`, `k2`
//!   and `k` constants on either side, becomes `ite(c, op(k1, k), op(k2, k))`
//!   for the bitvector binary operators, the comparisons and `eq`, and a
//!   Boolean `ite` with constant branches becomes `c` or `¬c`. A vector
//!   comparison mask `ite(p, -1, 0)` tested byte by byte therefore folds
//!   back to `p`.
//! * **`ite` shape.** `ite(¬c, x, y)` becomes `ite(c, y, x)`,
//!   `ite(c, ite(c, x, y), z)` becomes `ite(c, x, z)` (and the mirror case
//!   likewise), `sle(a, b)` becomes `¬slt(b, a)`, and `ite(x = k, y, z)` with
//!   `k` constant becomes `z` when `z[x := k]` interns to `y` (the
//!   substitution rebuilds at most `SUBST_BUDGET` (64) nodes).
//!
//! Every rule is an identity of the operators' wrapping bitvector
//! semantics, which is all a term means. Reassociating `bv_add` is sound
//! even though C's signed `+` may overflow and AVX2's lane add may not:
//! undefined behaviour is not part of a term's value. The translation
//! validator models it as a separate predicate built from the original
//! operands, so no rewrite of a value can weaken it. [`Context::eval`]
//! evaluates a term under a variable assignment; the tests use it as the
//! rewrites' soundness oracle.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// The sort of a term.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sort {
    /// Propositional.
    Bool,
    /// Fixed-width bitvector.
    BitVec(u32),
}

impl Sort {
    /// The width of a bitvector sort.
    ///
    /// # Panics
    ///
    /// Panics when called on `Bool`. Code paths that can receive terms built
    /// from *parsed user input* must use [`Sort::try_width`] and surface a
    /// typed error instead.
    pub fn width(self) -> u32 {
        match self {
            Sort::BitVec(w) => w,
            Sort::Bool => panic!("Bool has no bit width"),
        }
    }

    /// The width of a bitvector sort, or `None` for `Bool` — the
    /// non-panicking form for code reachable from parsed input.
    pub fn try_width(self) -> Option<u32> {
        match self {
            Sort::BitVec(w) => Some(w),
            Sort::Bool => None,
        }
    }

    /// Returns `true` for the propositional sort.
    pub fn is_bool(self) -> bool {
        matches!(self, Sort::Bool)
    }
}

/// A term identifier. Terms live in a [`Context`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(pub u32);

/// The operator of a term node.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Op {
    /// Boolean constant.
    BoolConst(bool),
    /// Bitvector constant (value stored in the low `width` bits).
    BvConst {
        /// The value, masked to `width` bits.
        value: u64,
        /// The width in bits.
        width: u32,
    },
    /// A free variable.
    Var {
        /// The variable name.
        name: String,
        /// Its sort.
        sort: Sort,
    },
    /// Boolean negation.
    Not,
    /// Boolean conjunction (binary).
    And,
    /// Boolean disjunction (binary).
    Or,
    /// Boolean exclusive or.
    Xor,
    /// Boolean implication.
    Implies,
    /// If-then-else; the branches may be Bool or BitVec.
    Ite,
    /// Equality over any sort.
    Eq,
    /// Bitvector addition (wrapping).
    BvAdd,
    /// Bitvector subtraction (wrapping).
    BvSub,
    /// Bitvector multiplication (low bits).
    BvMul,
    /// Two's-complement negation.
    BvNeg,
    /// Bitwise and.
    BvAnd,
    /// Bitwise or.
    BvOr,
    /// Bitwise xor.
    BvXor,
    /// Bitwise complement.
    BvNot,
    /// Logical shift left (shift amount is the second operand).
    BvShl,
    /// Logical shift right.
    BvLshr,
    /// Arithmetic shift right.
    BvAshr,
    /// Unsigned division (by-zero yields all-ones, as in SMT-LIB).
    BvUdiv,
    /// Unsigned remainder (by-zero yields the dividend).
    BvUrem,
    /// Signed division (C semantics via sign handling around BvUdiv).
    BvSdiv,
    /// Signed remainder.
    BvSrem,
    /// Unsigned less-than.
    BvUlt,
    /// Signed less-than. Signed less-or-equal `sle(a, b)` is built as
    /// `¬slt(b, a)` ([`Context::bv_sle`]).
    BvSlt,
}

/// A term node: operator plus argument ids.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TermData {
    /// The operator.
    pub op: Op,
    /// Arguments, in order.
    pub args: Vec<TermId>,
    /// The sort of the term.
    pub sort: Sort,
}

/// The term arena and interner.
///
/// The interner is keyed by a stable FNV-1a hash of the `(op, args)` pair.
/// Its table maps each hash to the newest term with that hash, and every
/// term links to the previous term with the same hash, so the terms sharing
/// a hash form a chain through the arena; candidates on the chain are
/// verified by structural comparison. The table's hasher passes the FNV
/// key through instead of hashing it a second time. Because the lookup
/// never builds an owned key, *interning an already-known term allocates
/// nothing* — the hot path of symbolic execution, which rebuilds
/// mostly-shared terms per iteration. A new term allocates only its `args`
/// (and a variable its name); [`Context::clear`] keeps the table's and the
/// links' storage.
///
/// The rewrites keep that guarantee: their scratch space (the leaves of a
/// `bv_add` chain, the substitution memo) lives in buffers on the context
/// that are reused across calls.
#[derive(Debug, Default)]
pub struct Context {
    terms: Vec<TermData>,
    /// Hash of `(op, args)` → the newest term with that hash.
    table: HashMap<u64, TermId, BuildHasherDefault<PassThrough>>,
    /// Per term: the previous term with the same hash, or [`NO_TERM`].
    same_hash: Vec<u32>,
    /// Leaves of the `bv_add` chain being flattened.
    add_leaves: Vec<TermId>,
    /// Work stack of the flattening walk.
    add_stack: Vec<TermId>,
    /// Memo of the conditional substitution in [`Context::ite`].
    subst_memo: HashMap<TermId, TermId>,
    /// Set while a substitution rebuilds a term, so the `ite`s it builds
    /// start no substitution of their own.
    substituting: bool,
}

/// The end of a [`Context::same_hash`] chain.
const NO_TERM: u32 = u32::MAX;

/// The interner table's hasher: its keys are FNV-1a hashes already, so it
/// hands them through.
#[derive(Debug, Default)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("the interner table hashes only u64 keys")
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = key;
    }
}

/// The most leaves a flattened `bv_add` chain may have.
const MAX_ADD_LEAVES: usize = 128;

/// The most nodes the conditional substitution in [`Context::ite`] rebuilds
/// before it gives up.
const SUBST_BUDGET: usize = 64;

pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

fn fnv_bytes(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

fn fnv_u64(hash: u64, value: u64) -> u64 {
    fnv_bytes(hash, &value.to_le_bytes())
}

fn sort_code(sort: Sort) -> u64 {
    match sort {
        Sort::Bool => u64::MAX,
        Sort::BitVec(w) => u64::from(w),
    }
}

/// Interner hash of a variable, computable from a borrowed name (so a
/// variable lookup does not have to build an `Op::Var` first).
fn hash_var_key(name: &str, sort: Sort) -> u64 {
    let mut hash = fnv_bytes(FNV_OFFSET, &[3]);
    hash = fnv_u64(hash, name.len() as u64);
    hash = fnv_bytes(hash, name.as_bytes());
    fnv_u64(hash, sort_code(sort))
}

/// Interner hash of a non-variable `(op, args)` key.
fn hash_key(op: &Op, args: &[TermId]) -> u64 {
    let mut hash = match op {
        Op::BoolConst(b) => fnv_bytes(FNV_OFFSET, &[1, u8::from(*b)]),
        Op::BvConst { value, width } => {
            let h = fnv_bytes(FNV_OFFSET, &[2]);
            fnv_u64(fnv_u64(h, *value), u64::from(*width))
        }
        Op::Var { name, sort } => return hash_var_key(name, *sort),
        Op::Not => fnv_bytes(FNV_OFFSET, &[4]),
        Op::And => fnv_bytes(FNV_OFFSET, &[5]),
        Op::Or => fnv_bytes(FNV_OFFSET, &[6]),
        Op::Xor => fnv_bytes(FNV_OFFSET, &[7]),
        Op::Implies => fnv_bytes(FNV_OFFSET, &[8]),
        Op::Ite => fnv_bytes(FNV_OFFSET, &[9]),
        Op::Eq => fnv_bytes(FNV_OFFSET, &[10]),
        Op::BvAdd => fnv_bytes(FNV_OFFSET, &[11]),
        Op::BvSub => fnv_bytes(FNV_OFFSET, &[12]),
        Op::BvMul => fnv_bytes(FNV_OFFSET, &[13]),
        Op::BvNeg => fnv_bytes(FNV_OFFSET, &[14]),
        Op::BvAnd => fnv_bytes(FNV_OFFSET, &[15]),
        Op::BvOr => fnv_bytes(FNV_OFFSET, &[16]),
        Op::BvXor => fnv_bytes(FNV_OFFSET, &[17]),
        Op::BvNot => fnv_bytes(FNV_OFFSET, &[18]),
        Op::BvShl => fnv_bytes(FNV_OFFSET, &[19]),
        Op::BvLshr => fnv_bytes(FNV_OFFSET, &[20]),
        Op::BvAshr => fnv_bytes(FNV_OFFSET, &[21]),
        Op::BvUdiv => fnv_bytes(FNV_OFFSET, &[22]),
        Op::BvUrem => fnv_bytes(FNV_OFFSET, &[23]),
        Op::BvSdiv => fnv_bytes(FNV_OFFSET, &[24]),
        Op::BvSrem => fnv_bytes(FNV_OFFSET, &[25]),
        Op::BvUlt => fnv_bytes(FNV_OFFSET, &[26]),
        Op::BvSlt => fnv_bytes(FNV_OFFSET, &[27]),
    };
    for arg in args {
        hash = fnv_u64(hash, u64::from(arg.0));
    }
    hash
}

/// The operator discriminant byte shared by the interner hash and the
/// structural hash (variables and constants add payload bytes after it).
fn op_code(op: &Op) -> u8 {
    match op {
        Op::BoolConst(_) => 1,
        Op::BvConst { .. } => 2,
        Op::Var { .. } => 3,
        Op::Not => 4,
        Op::And => 5,
        Op::Or => 6,
        Op::Xor => 7,
        Op::Implies => 8,
        Op::Ite => 9,
        Op::Eq => 10,
        Op::BvAdd => 11,
        Op::BvSub => 12,
        Op::BvMul => 13,
        Op::BvNeg => 14,
        Op::BvAnd => 15,
        Op::BvOr => 16,
        Op::BvXor => 17,
        Op::BvNot => 18,
        Op::BvShl => 19,
        Op::BvLshr => 20,
        Op::BvAshr => 21,
        Op::BvUdiv => 22,
        Op::BvUrem => 23,
        Op::BvSdiv => 24,
        Op::BvSrem => 25,
        Op::BvUlt => 26,
        Op::BvSlt => 27,
    }
}

/// Structural hash of a term DAG, insensitive to variable *names* but
/// sensitive to everything that affects bit-blasting: operators, constants,
/// widths, argument order, and sharing.
///
/// Variables hash as their sort plus their position in the canonical
/// first-occurrence numbering induced by a pre-order left-to-right walk
/// (the same numbering `lv_cir::structural_hash` uses for value slots), so
/// `x + y` and `p + q` collide while `x + y` and `x + x` do not: a revisited
/// node — variable or shared subterm — emits a back-reference to its visit
/// index instead of being re-walked. The walk is linear in the DAG size.
///
/// This is the memo key for [`crate::bitblast::BlastCache`]: two roots with
/// equal structural hashes blast to literally the same clause stream modulo
/// a uniform renaming of SAT variables.
pub fn structural_hash(ctx: &Context, root: TermId) -> u64 {
    structural_hash_seeded(ctx, root, FNV_OFFSET)
}

/// [`structural_hash`] from an arbitrary seed. The blast cache uses a second
/// seed as a collision check, and callers hashing several roots into one key
/// chain them through the seed.
pub(crate) fn structural_hash_seeded(ctx: &Context, root: TermId, seed: u64) -> u64 {
    structural_hash_pair(ctx, root, seed, seed).0
}

/// Two independently seeded [`structural_hash`]es from a single DAG walk —
/// each accumulator is fed the identical byte stream, so the results equal
/// two separate [`structural_hash_seeded`] calls at half the walk cost. The
/// blast cache hashes every assertion root on the hot path, so the walk is
/// what the memo's lookup overhead amounts to.
pub(crate) fn structural_hash_pair(
    ctx: &Context,
    root: TermId,
    seed_a: u64,
    seed_b: u64,
) -> (u64, u64) {
    let mut a = seed_a;
    let mut b = seed_b;
    let feed_bytes = |a: &mut u64, b: &mut u64, bytes: &[u8]| {
        *a = fnv_bytes(*a, bytes);
        *b = fnv_bytes(*b, bytes);
    };
    let feed_u64 = |a: &mut u64, b: &mut u64, value: u64| {
        *a = fnv_u64(*a, value);
        *b = fnv_u64(*b, value);
    };
    let mut visited: HashMap<TermId, u32> = HashMap::new();
    let mut stack = vec![root];
    while let Some(id) = stack.pop() {
        if let Some(&index) = visited.get(&id) {
            feed_bytes(&mut a, &mut b, &[0xff]);
            feed_u64(&mut a, &mut b, u64::from(index));
            continue;
        }
        visited.insert(id, visited.len() as u32);
        let term = ctx.term(id);
        feed_bytes(&mut a, &mut b, &[op_code(&term.op)]);
        match &term.op {
            Op::BoolConst(flag) => feed_bytes(&mut a, &mut b, &[u8::from(*flag)]),
            Op::BvConst { value, width } => {
                feed_u64(&mut a, &mut b, *value);
                feed_u64(&mut a, &mut b, u64::from(*width));
            }
            // No name bytes: alpha-insensitivity is the point. The sort
            // carries the width, and the back-reference mechanism gives
            // each variable its first-occurrence index.
            Op::Var { sort, .. } => feed_u64(&mut a, &mut b, sort_code(*sort)),
            _ => {}
        }
        feed_u64(&mut a, &mut b, sort_code(term.sort));
        feed_u64(&mut a, &mut b, term.args.len() as u64);
        for &arg in term.args.iter().rev() {
            stack.push(arg);
        }
    }
    (a, b)
}

/// The distinct variables reachable from `root`, in the canonical
/// first-occurrence order of the [`structural_hash`] walk — the order in
/// which a bit-blast of `root` into a fresh solver first materializes each
/// variable's literals. Blast-cache replay binds a hit's recorded input
/// slots to the new root's variables positionally via this list.
pub(crate) fn vars_in_order(ctx: &Context, root: TermId) -> Vec<TermId> {
    let mut vars = Vec::new();
    let mut visited: std::collections::HashSet<TermId> = std::collections::HashSet::new();
    let mut stack = vec![root];
    while let Some(id) = stack.pop() {
        if !visited.insert(id) {
            continue;
        }
        let term = ctx.term(id);
        if matches!(term.op, Op::Var { .. }) {
            vars.push(id);
        }
        for &arg in term.args.iter().rev() {
            stack.push(arg);
        }
    }
    vars
}

impl Context {
    /// Creates an empty context.
    pub fn new() -> Context {
        Context::default()
    }

    /// The number of distinct terms created so far.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Removes every term while keeping the arena and interner allocations,
    /// so a recycled context rebuilds terms without fresh heap churn.
    pub fn clear(&mut self) {
        self.terms.clear();
        self.table.clear();
        self.same_hash.clear();
    }

    /// Returns `true` if no terms have been created.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// The data of a term.
    pub fn term(&self, id: TermId) -> &TermData {
        &self.terms[id.0 as usize]
    }

    /// The sort of a term.
    pub fn sort(&self, id: TermId) -> Sort {
        self.terms[id.0 as usize].sort
    }

    /// Interns a non-variable term. Hits compare against the arena in place
    /// and allocate nothing; only a miss copies `args` into the arena.
    fn intern(&mut self, op: Op, args: &[TermId], sort: Sort) -> TermId {
        debug_assert!(
            !matches!(op, Op::Var { .. }),
            "variables are interned through intern_var"
        );
        let hash = hash_key(&op, args);
        let mut link = self.chain_head(hash);
        while link != NO_TERM {
            let term = &self.terms[link as usize];
            if term.op == op && term.args == args {
                return TermId(link);
            }
            link = self.same_hash[link as usize];
        }
        self.push_term(
            hash,
            TermData {
                op,
                args: args.to_vec(),
                sort,
            },
        )
    }

    /// The newest term whose key hashes to `hash`, or [`NO_TERM`].
    fn chain_head(&self, hash: u64) -> u32 {
        self.table.get(&hash).map_or(NO_TERM, |id| id.0)
    }

    /// Appends a term that is not interned yet and links it into its
    /// hash's chain.
    fn push_term(&mut self, hash: u64, data: TermData) -> TermId {
        let id = TermId(self.terms.len() as u32);
        self.terms.push(data);
        let previous = self.table.insert(hash, id);
        self.same_hash.push(previous.map_or(NO_TERM, |p| p.0));
        id
    }

    /// Interns a variable from a borrowed name; the name is only copied to
    /// the heap when the variable does not exist yet.
    fn intern_var(&mut self, name: &str, sort: Sort) -> TermId {
        let hash = hash_var_key(name, sort);
        let mut link = self.chain_head(hash);
        while link != NO_TERM {
            if let Op::Var { name: n, sort: s } = &self.terms[link as usize].op {
                if *s == sort && n == name {
                    return TermId(link);
                }
            }
            link = self.same_hash[link as usize];
        }
        self.push_term(
            hash,
            TermData {
                op: Op::Var {
                    name: name.to_string(),
                    sort,
                },
                args: Vec::new(),
                sort,
            },
        )
    }

    /// Returns the constant value if the term is a bitvector constant.
    pub fn as_bv_const(&self, id: TermId) -> Option<u64> {
        match &self.term(id).op {
            Op::BvConst { value, .. } => Some(*value),
            _ => None,
        }
    }

    /// Returns the boolean value if the term is a boolean constant.
    pub fn as_bool_const(&self, id: TermId) -> Option<bool> {
        match &self.term(id).op {
            Op::BoolConst(b) => Some(*b),
            _ => None,
        }
    }

    // ---- leaves -------------------------------------------------------------

    /// The boolean constant `true` / `false`.
    pub fn bool_const(&mut self, value: bool) -> TermId {
        self.intern(Op::BoolConst(value), &[], Sort::Bool)
    }

    /// A bitvector constant of the given width.
    pub fn bv_const(&mut self, value: u64, width: u32) -> TermId {
        let masked = mask(value, width);
        self.intern(
            Op::BvConst {
                value: masked,
                width,
            },
            &[],
            Sort::BitVec(width),
        )
    }

    /// A 32-bit constant from an `i32` (the common case for mini-C values).
    pub fn bv32(&mut self, value: i32) -> TermId {
        self.bv_const(value as u32 as u64, 32)
    }

    /// A free bitvector variable. Looking up an existing variable does not
    /// copy the name.
    pub fn bv_var(&mut self, name: impl AsRef<str>, width: u32) -> TermId {
        self.intern_var(name.as_ref(), Sort::BitVec(width))
    }

    /// A free boolean variable. Looking up an existing variable does not
    /// copy the name.
    pub fn bool_var(&mut self, name: impl AsRef<str>) -> TermId {
        self.intern_var(name.as_ref(), Sort::Bool)
    }

    // ---- rewriting helpers ----------------------------------------------------

    fn is_const(&self, id: TermId) -> bool {
        matches!(self.term(id).op, Op::BvConst { .. } | Op::BoolConst(_))
    }

    /// `(c, k1, k2)` when `id` is an `ite` with constant branches.
    fn const_ite(&self, id: TermId) -> Option<(TermId, TermId, TermId)> {
        let term = self.term(id);
        (term.op == Op::Ite && self.is_const(term.args[1]) && self.is_const(term.args[2]))
            .then(|| (term.args[0], term.args[1], term.args[2]))
    }

    /// Lifts `op(ite(c, k1, k2), k)` (the `ite` on either side, `k*`
    /// constant) into `ite(c, op(k1, k), op(k2, k))`, whose branches fold.
    fn lift_const_ite(
        &mut self,
        a: TermId,
        b: TermId,
        op: fn(&mut Context, TermId, TermId) -> TermId,
    ) -> Option<TermId> {
        if self.is_const(b) {
            if let Some((c, k1, k2)) = self.const_ite(a) {
                let t = op(self, k1, b);
                let e = op(self, k2, b);
                return Some(self.ite(c, t, e));
            }
        }
        if self.is_const(a) {
            if let Some((c, k1, k2)) = self.const_ite(b) {
                let t = op(self, a, k1);
                let e = op(self, a, k2);
                return Some(self.ite(c, t, e));
            }
        }
        None
    }

    /// The then-side (`take_then`) or else-side of `branch` when it is an
    /// `ite` on `cond` itself, else `branch`: inside the `take_then` branch
    /// of an `ite` on `cond`, an inner `ite` on `cond` always takes that
    /// same side.
    fn same_cond_branch(&self, cond: TermId, branch: TermId, take_then: bool) -> TermId {
        let term = self.term(branch);
        if term.op == Op::Ite && term.args[0] == cond {
            term.args[if take_then { 1 } else { 2 }]
        } else {
            branch
        }
    }

    /// For `ite(x = k, then_t, else_t)` with `k` constant: `else_t` when
    /// `else_t[x := k]` interns to `then_t`, since both branches then agree
    /// wherever `x = k`.
    fn substitute_branch(
        &mut self,
        cond: TermId,
        then_t: TermId,
        else_t: TermId,
    ) -> Option<TermId> {
        if self.substituting || self.term(cond).op != Op::Eq {
            return None;
        }
        let (lhs, rhs) = (self.term(cond).args[0], self.term(cond).args[1]);
        let (x, k) = match (self.is_const(lhs), self.is_const(rhs)) {
            (false, true) => (lhs, rhs),
            (true, false) => (rhs, lhs),
            _ => return None,
        };
        self.substituting = true;
        let mut memo = std::mem::take(&mut self.subst_memo);
        memo.clear();
        let mut budget = SUBST_BUDGET;
        let rebuilt = self.substitute(else_t, x, k, &mut memo, &mut budget);
        self.subst_memo = memo;
        self.substituting = false;
        (rebuilt == Some(then_t)).then_some(else_t)
    }

    /// `t[x := k]`, rebuilt through the smart constructors; `None` past the
    /// node budget.
    fn substitute(
        &mut self,
        t: TermId,
        x: TermId,
        k: TermId,
        memo: &mut HashMap<TermId, TermId>,
        budget: &mut usize,
    ) -> Option<TermId> {
        if t == x {
            return Some(k);
        }
        if let Some(&done) = memo.get(&t) {
            return Some(done);
        }
        let arity = self.term(t).args.len();
        if arity == 0 {
            return Some(t);
        }
        if *budget == 0 {
            return None;
        }
        *budget -= 1;
        let mut args = [TermId(0); 3];
        args[..arity].copy_from_slice(&self.term(t).args);
        let mut changed = false;
        for arg in &mut args[..arity] {
            let new = self.substitute(*arg, x, k, memo, budget)?;
            changed |= new != *arg;
            *arg = new;
        }
        let rebuilt = if changed {
            self.rebuild(t, &args[..arity])
        } else {
            t
        };
        memo.insert(t, rebuilt);
        Some(rebuilt)
    }

    /// Builds the operator of `like` over new arguments through the smart
    /// constructors.
    fn rebuild(&mut self, like: TermId, args: &[TermId]) -> TermId {
        let a = args[0];
        let b = args.get(1).copied().unwrap_or(a);
        match self.term(like).op {
            Op::Not => self.not(a),
            Op::And => self.and(a, b),
            Op::Or => self.or(a, b),
            Op::Xor => self.xor(a, b),
            Op::Implies => self.implies(a, b),
            Op::Ite => self.ite(a, b, args[2]),
            Op::Eq => self.eq(a, b),
            Op::BvAdd => self.bv_add(a, b),
            Op::BvSub => self.bv_sub(a, b),
            Op::BvMul => self.bv_mul(a, b),
            Op::BvNeg => self.bv_neg(a),
            Op::BvAnd => self.bv_and(a, b),
            Op::BvOr => self.bv_or(a, b),
            Op::BvXor => self.bv_xor(a, b),
            Op::BvNot => self.bv_not(a),
            Op::BvShl => self.bv_shl(a, b),
            Op::BvLshr => self.bv_lshr(a, b),
            Op::BvAshr => self.bv_ashr(a, b),
            Op::BvUdiv => self.bv_udiv(a, b),
            Op::BvUrem => self.bv_urem(a, b),
            Op::BvSdiv => self.bv_sdiv(a, b),
            Op::BvSrem => self.bv_srem(a, b),
            Op::BvUlt => self.bv_ult(a, b),
            Op::BvSlt => self.bv_slt(a, b),
            Op::BoolConst(_) | Op::BvConst { .. } | Op::Var { .. } => {
                unreachable!("leaves have no arguments to substitute")
            }
        }
    }

    // ---- boolean connectives ------------------------------------------------

    /// Boolean negation with double-negation and constant folding.
    pub fn not(&mut self, a: TermId) -> TermId {
        if let Some(v) = self.as_bool_const(a) {
            return self.bool_const(!v);
        }
        if self.term(a).op == Op::Not {
            return self.term(a).args[0];
        }
        self.intern(Op::Not, &[a], Sort::Bool)
    }

    /// Boolean conjunction.
    pub fn and(&mut self, a: TermId, b: TermId) -> TermId {
        match (self.as_bool_const(a), self.as_bool_const(b)) {
            (Some(true), _) => return b,
            (_, Some(true)) => return a,
            (Some(false), _) | (_, Some(false)) => return self.bool_const(false),
            _ => {}
        }
        if a == b {
            return a;
        }
        self.intern(Op::And, &ordered(a, b), Sort::Bool)
    }

    /// Boolean disjunction.
    pub fn or(&mut self, a: TermId, b: TermId) -> TermId {
        match (self.as_bool_const(a), self.as_bool_const(b)) {
            (Some(false), _) => return b,
            (_, Some(false)) => return a,
            (Some(true), _) | (_, Some(true)) => return self.bool_const(true),
            _ => {}
        }
        if a == b {
            return a;
        }
        self.intern(Op::Or, &ordered(a, b), Sort::Bool)
    }

    /// Boolean exclusive or.
    pub fn xor(&mut self, a: TermId, b: TermId) -> TermId {
        match (self.as_bool_const(a), self.as_bool_const(b)) {
            (Some(x), Some(y)) => return self.bool_const(x ^ y),
            (Some(false), _) => return b,
            (_, Some(false)) => return a,
            (Some(true), _) => return self.not(b),
            (_, Some(true)) => return self.not(a),
            _ => {}
        }
        if a == b {
            return self.bool_const(false);
        }
        self.intern(Op::Xor, &[a, b], Sort::Bool)
    }

    /// Boolean implication.
    pub fn implies(&mut self, a: TermId, b: TermId) -> TermId {
        let na = self.not(a);
        self.or(na, b)
    }

    /// If-then-else over booleans or bitvectors.
    pub fn ite(&mut self, cond: TermId, then_t: TermId, else_t: TermId) -> TermId {
        debug_assert_eq!(self.sort(then_t), self.sort(else_t));
        if let Some(c) = self.as_bool_const(cond) {
            return if c { then_t } else { else_t };
        }
        if then_t == else_t {
            return then_t;
        }
        if self.term(cond).op == Op::Not {
            let inner = self.term(cond).args[0];
            return self.ite(inner, else_t, then_t);
        }
        let then_t = self.same_cond_branch(cond, then_t, true);
        let else_t = self.same_cond_branch(cond, else_t, false);
        if then_t == else_t {
            return then_t;
        }
        match (self.as_bool_const(then_t), self.as_bool_const(else_t)) {
            (Some(true), Some(false)) => return cond,
            (Some(false), Some(true)) => return self.not(cond),
            _ => {}
        }
        if let Some(folded) = self.substitute_branch(cond, then_t, else_t) {
            return folded;
        }
        let sort = self.sort(then_t);
        self.intern(Op::Ite, &[cond, then_t, else_t], sort)
    }

    /// Equality over any sort, with constant folding.
    pub fn eq(&mut self, a: TermId, b: TermId) -> TermId {
        if a == b {
            return self.bool_const(true);
        }
        if let (Some(x), Some(y)) = (self.as_bv_const(a), self.as_bv_const(b)) {
            return self.bool_const(x == y);
        }
        if let (Some(x), Some(y)) = (self.as_bool_const(a), self.as_bool_const(b)) {
            return self.bool_const(x == y);
        }
        if let Some(lifted) = self.lift_const_ite(a, b, Context::eq) {
            return lifted;
        }
        self.intern(Op::Eq, &ordered(a, b), Sort::Bool)
    }

    /// Disequality.
    pub fn ne(&mut self, a: TermId, b: TermId) -> TermId {
        let e = self.eq(a, b);
        self.not(e)
    }

    // ---- bitvector operations -------------------------------------------------

    /// Folds two constants, lifts a constant-branch `ite` against a
    /// constant, and interns the rest (arguments sorted when `op`
    /// commutes).
    fn bv_binop(
        &mut self,
        op: Op,
        a: TermId,
        b: TermId,
        fold: impl Fn(u64, u64, u32) -> u64,
        build: fn(&mut Context, TermId, TermId) -> TermId,
    ) -> TermId {
        let width = self.sort(a).width();
        debug_assert_eq!(width, self.sort(b).width());
        if let (Some(x), Some(y)) = (self.as_bv_const(a), self.as_bv_const(b)) {
            let v = fold(x, y, width);
            return self.bv_const(v, width);
        }
        if let Some(lifted) = self.lift_const_ite(a, b, build) {
            return lifted;
        }
        let args = match op {
            Op::BvAdd | Op::BvMul | Op::BvAnd | Op::BvOr | Op::BvXor => ordered(a, b),
            _ => [a, b],
        };
        self.intern(op, &args, Sort::BitVec(width))
    }

    /// Wrapping addition, flattened into a sorted chain (see the module
    /// documentation).
    pub fn bv_add(&mut self, a: TermId, b: TermId) -> TermId {
        let width = self.sort(a).width();
        match (self.as_bv_const(a), self.as_bv_const(b)) {
            (Some(x), Some(y)) => return self.bv_const(x.wrapping_add(y), width),
            (Some(0), _) => return b,
            (_, Some(0)) => return a,
            _ => {}
        }
        if let Some(lifted) = self.lift_const_ite(a, b, Context::bv_add) {
            return lifted;
        }
        let mut leaves = std::mem::take(&mut self.add_leaves);
        let mut stack = std::mem::take(&mut self.add_stack);
        leaves.clear();
        stack.clear();
        stack.extend([b, a]);
        let mut constant = 0u64;
        while let Some(t) = stack.pop() {
            let term = &self.terms[t.0 as usize];
            match term.op {
                Op::BvAdd => stack.extend([term.args[1], term.args[0]]),
                Op::BvConst { value, .. } => constant = constant.wrapping_add(value),
                _ => leaves.push(t),
            }
            if leaves.len() > MAX_ADD_LEAVES {
                break;
            }
        }
        let sort = Sort::BitVec(width);
        let sum = if leaves.len() > MAX_ADD_LEAVES {
            self.intern(Op::BvAdd, &ordered(a, b), sort)
        } else {
            leaves.sort_unstable();
            let constant = mask(constant, width);
            let mut chain = leaves.iter().copied();
            match chain.next() {
                None => self.bv_const(constant, width),
                Some(first) => {
                    let mut acc = first;
                    for leaf in chain {
                        acc = self.intern(Op::BvAdd, &[acc, leaf], sort);
                    }
                    if constant != 0 {
                        let k = self.bv_const(constant, width);
                        acc = self.intern(Op::BvAdd, &[acc, k], sort);
                    }
                    acc
                }
            }
        };
        self.add_leaves = leaves;
        self.add_stack = stack;
        sum
    }

    /// Wrapping subtraction.
    pub fn bv_sub(&mut self, a: TermId, b: TermId) -> TermId {
        if self.as_bv_const(b) == Some(0) {
            return a;
        }
        if a == b {
            let width = self.sort(a).width();
            return self.bv_const(0, width);
        }
        self.bv_binop(
            Op::BvSub,
            a,
            b,
            |x, y, w| mask(x.wrapping_sub(y), w),
            Context::bv_sub,
        )
    }

    /// Low-bits multiplication.
    pub fn bv_mul(&mut self, a: TermId, b: TermId) -> TermId {
        let width = self.sort(a).width();
        if self.as_bv_const(a) == Some(0) || self.as_bv_const(b) == Some(0) {
            return self.bv_const(0, width);
        }
        if self.as_bv_const(a) == Some(1) {
            return b;
        }
        if self.as_bv_const(b) == Some(1) {
            return a;
        }
        self.bv_binop(
            Op::BvMul,
            a,
            b,
            |x, y, w| mask(x.wrapping_mul(y), w),
            Context::bv_mul,
        )
    }

    /// Two's-complement negation.
    pub fn bv_neg(&mut self, a: TermId) -> TermId {
        let width = self.sort(a).width();
        if let Some(x) = self.as_bv_const(a) {
            return self.bv_const(mask(x.wrapping_neg(), width), width);
        }
        self.intern(Op::BvNeg, &[a], Sort::BitVec(width))
    }

    /// `Some(false)` for the zero constant, `Some(true)` for the all-ones
    /// constant, `None` for any other term.
    fn as_all_or_nothing(&self, id: TermId) -> Option<bool> {
        let value = self.as_bv_const(id)?;
        if value == 0 {
            Some(false)
        } else {
            (value == mask(u64::MAX, self.sort(id).width())).then_some(true)
        }
    }

    /// Bitwise and: `x & 0 = 0`, `x & -1 = x`.
    pub fn bv_and(&mut self, a: TermId, b: TermId) -> TermId {
        match (self.as_all_or_nothing(a), self.as_all_or_nothing(b)) {
            (Some(false), _) => return a,
            (_, Some(false)) => return b,
            (Some(true), _) => return b,
            (_, Some(true)) => return a,
            _ => {}
        }
        self.bv_binop(Op::BvAnd, a, b, |x, y, w| mask(x & y, w), Context::bv_and)
    }

    /// Bitwise or: `x | 0 = x`, `x | -1 = -1`.
    pub fn bv_or(&mut self, a: TermId, b: TermId) -> TermId {
        match (self.as_all_or_nothing(a), self.as_all_or_nothing(b)) {
            (Some(true), _) => return a,
            (_, Some(true)) => return b,
            (Some(false), _) => return b,
            (_, Some(false)) => return a,
            _ => {}
        }
        self.bv_binop(Op::BvOr, a, b, |x, y, w| mask(x | y, w), Context::bv_or)
    }

    /// Bitwise xor: `x ^ 0 = x`.
    pub fn bv_xor(&mut self, a: TermId, b: TermId) -> TermId {
        if self.as_bv_const(a) == Some(0) {
            return b;
        }
        if self.as_bv_const(b) == Some(0) {
            return a;
        }
        self.bv_binop(Op::BvXor, a, b, |x, y, w| mask(x ^ y, w), Context::bv_xor)
    }

    /// Bitwise complement.
    pub fn bv_not(&mut self, a: TermId) -> TermId {
        let width = self.sort(a).width();
        if let Some(x) = self.as_bv_const(a) {
            return self.bv_const(mask(!x, width), width);
        }
        self.intern(Op::BvNot, &[a], Sort::BitVec(width))
    }

    /// Logical shift left.
    pub fn bv_shl(&mut self, a: TermId, b: TermId) -> TermId {
        self.bv_binop(
            Op::BvShl,
            a,
            b,
            |x, y, w| {
                if y >= w as u64 {
                    0
                } else {
                    mask(x << y, w)
                }
            },
            Context::bv_shl,
        )
    }

    /// Logical shift right.
    pub fn bv_lshr(&mut self, a: TermId, b: TermId) -> TermId {
        self.bv_binop(
            Op::BvLshr,
            a,
            b,
            |x, y, w| {
                if y >= w as u64 {
                    0
                } else {
                    mask(x >> y, w)
                }
            },
            Context::bv_lshr,
        )
    }

    /// Arithmetic shift right.
    pub fn bv_ashr(&mut self, a: TermId, b: TermId) -> TermId {
        self.bv_binop(
            Op::BvAshr,
            a,
            b,
            |x, y, w| {
                let sx = sign_extend(x, w);
                let shift = (y.min(w as u64 - 1)) as u32;
                mask((sx >> shift) as u64, w)
            },
            Context::bv_ashr,
        )
    }

    /// Unsigned division (division by zero yields all-ones, SMT-LIB style).
    pub fn bv_udiv(&mut self, a: TermId, b: TermId) -> TermId {
        self.bv_binop(
            Op::BvUdiv,
            a,
            b,
            |x, y, w| match x.checked_div(y) {
                None => mask(u64::MAX, w),
                Some(q) => mask(q, w),
            },
            Context::bv_udiv,
        )
    }

    /// Unsigned remainder (remainder by zero yields the dividend).
    pub fn bv_urem(&mut self, a: TermId, b: TermId) -> TermId {
        self.bv_binop(
            Op::BvUrem,
            a,
            b,
            |x, y, w| match x.checked_rem(y) {
                None => mask(x, w),
                Some(r) => mask(r, w),
            },
            Context::bv_urem,
        )
    }

    /// Signed division with C truncation semantics. Division by zero is
    /// SMT-LIB's `bvsdiv`, as the bit-blaster builds it: all ones for a
    /// non-negative dividend and 1 for a negative one.
    pub fn bv_sdiv(&mut self, a: TermId, b: TermId) -> TermId {
        self.bv_binop(Op::BvSdiv, a, b, sdiv_value, Context::bv_sdiv)
    }

    /// Signed remainder with C truncation semantics.
    pub fn bv_srem(&mut self, a: TermId, b: TermId) -> TermId {
        self.bv_binop(
            Op::BvSrem,
            a,
            b,
            |x, y, w| {
                let sx = sign_extend(x, w);
                let sy = sign_extend(y, w);
                if sy == 0 {
                    mask(sx as u64, w)
                } else {
                    mask(sx.wrapping_rem(sy) as u64, w)
                }
            },
            Context::bv_srem,
        )
    }

    // ---- comparisons ------------------------------------------------------------

    /// Unsigned less-than.
    pub fn bv_ult(&mut self, a: TermId, b: TermId) -> TermId {
        if let (Some(x), Some(y)) = (self.as_bv_const(a), self.as_bv_const(b)) {
            return self.bool_const(x < y);
        }
        if let Some(lifted) = self.lift_const_ite(a, b, Context::bv_ult) {
            return lifted;
        }
        self.intern(Op::BvUlt, &[a, b], Sort::Bool)
    }

    /// Signed less-than.
    pub fn bv_slt(&mut self, a: TermId, b: TermId) -> TermId {
        let width = self.sort(a).width();
        if let (Some(x), Some(y)) = (self.as_bv_const(a), self.as_bv_const(b)) {
            return self.bool_const(sign_extend(x, width) < sign_extend(y, width));
        }
        if a == b {
            return self.bool_const(false);
        }
        if let Some(lifted) = self.lift_const_ite(a, b, Context::bv_slt) {
            return lifted;
        }
        self.intern(Op::BvSlt, &[a, b], Sort::Bool)
    }

    /// Signed less-or-equal, built as `¬slt(b, a)`.
    pub fn bv_sle(&mut self, a: TermId, b: TermId) -> TermId {
        let gt = self.bv_slt(b, a);
        self.not(gt)
    }

    /// Signed greater-than, expressed via [`Context::bv_slt`].
    pub fn bv_sgt(&mut self, a: TermId, b: TermId) -> TermId {
        self.bv_slt(b, a)
    }

    /// Signed greater-or-equal, expressed via [`Context::bv_sle`].
    pub fn bv_sge(&mut self, a: TermId, b: TermId) -> TermId {
        self.bv_sle(b, a)
    }

    /// Evaluates `root` under an assignment of its variables. `value_of`
    /// gives each variable's value by name: a bitvector's low `width` bits,
    /// or a Boolean's as nonzero for `true`. Booleans evaluate to 0 or 1.
    /// The semantics are those of constant folding; the tests use this as
    /// the rewrites' soundness oracle.
    pub fn eval(&self, root: TermId, value_of: &dyn Fn(&str) -> u64) -> u64 {
        // Arguments are interned before the terms that use them, so every
        // id below `root` can be indexed directly.
        let mut values: Vec<Option<u64>> = vec![None; root.0 as usize + 1];
        let mut stack = vec![root];
        while let Some(&id) = stack.last() {
            if values[id.0 as usize].is_some() {
                stack.pop();
                continue;
            }
            let term = self.term(id);
            let pending = stack.len();
            stack.extend(
                term.args
                    .iter()
                    .copied()
                    .filter(|arg| values[arg.0 as usize].is_none()),
            );
            if stack.len() > pending {
                continue;
            }
            let arg = |i: usize| values[term.args[i].0 as usize].expect("argument evaluated");
            let w = term
                .args
                .first()
                .and_then(|&a| self.sort(a).try_width())
                .unwrap_or(1);
            let value = match &term.op {
                Op::BoolConst(b) => u64::from(*b),
                Op::BvConst { value, .. } => *value,
                Op::Var { name, sort } => match sort {
                    Sort::Bool => u64::from(value_of(name) != 0),
                    Sort::BitVec(width) => mask(value_of(name), *width),
                },
                Op::Not => arg(0) ^ 1,
                Op::And => arg(0) & arg(1),
                Op::Or => arg(0) | arg(1),
                Op::Xor => arg(0) ^ arg(1),
                Op::Implies => (arg(0) ^ 1) | arg(1),
                Op::Ite => {
                    if arg(0) != 0 {
                        arg(1)
                    } else {
                        arg(2)
                    }
                }
                Op::Eq => u64::from(arg(0) == arg(1)),
                Op::BvAdd => mask(arg(0).wrapping_add(arg(1)), w),
                Op::BvSub => mask(arg(0).wrapping_sub(arg(1)), w),
                Op::BvMul => mask(arg(0).wrapping_mul(arg(1)), w),
                Op::BvNeg => mask(arg(0).wrapping_neg(), w),
                Op::BvAnd => arg(0) & arg(1),
                Op::BvOr => arg(0) | arg(1),
                Op::BvXor => arg(0) ^ arg(1),
                Op::BvNot => mask(!arg(0), w),
                Op::BvShl => match arg(1) {
                    s if s >= u64::from(w) => 0,
                    s => mask(arg(0) << s, w),
                },
                Op::BvLshr => match arg(1) {
                    s if s >= u64::from(w) => 0,
                    s => arg(0) >> s,
                },
                Op::BvAshr => {
                    let shift = arg(1).min(u64::from(w) - 1);
                    mask((sign_extend(arg(0), w) >> shift) as u64, w)
                }
                Op::BvUdiv => match arg(1) {
                    0 => mask(u64::MAX, w),
                    d => arg(0) / d,
                },
                Op::BvUrem => match arg(1) {
                    0 => arg(0),
                    d => arg(0) % d,
                },
                Op::BvSdiv => sdiv_value(arg(0), arg(1), w),
                Op::BvSrem => match sign_extend(arg(1), w) {
                    0 => arg(0),
                    d => mask(sign_extend(arg(0), w).wrapping_rem(d) as u64, w),
                },
                Op::BvUlt => u64::from(arg(0) < arg(1)),
                Op::BvSlt => u64::from(sign_extend(arg(0), w) < sign_extend(arg(1), w)),
            };
            values[id.0 as usize] = Some(value);
            stack.pop();
        }
        values[root.0 as usize].expect("root evaluated")
    }

    /// Renders a term as an s-expression (for debugging and error messages).
    pub fn display(&self, id: TermId) -> String {
        let data = self.term(id);
        match &data.op {
            Op::BoolConst(b) => b.to_string(),
            Op::BvConst { value, width } => {
                format!("#x{:0>width$x}", value, width = (*width as usize) / 4)
            }
            Op::Var { name, .. } => name.clone(),
            op => {
                let name = format!("{:?}", op).to_lowercase();
                let args: Vec<String> = data.args.iter().map(|&a| self.display(a)).collect();
                format!("({} {})", name, args.join(" "))
            }
        }
    }
}

impl fmt::Display for Sort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Sort::Bool => write!(f, "Bool"),
            Sort::BitVec(w) => write!(f, "(_ BitVec {})", w),
        }
    }
}

/// Masks a value to `width` bits.
pub fn mask(value: u64, width: u32) -> u64 {
    if width >= 64 {
        value
    } else {
        value & ((1u64 << width) - 1)
    }
}

/// Sign-extends a `width`-bit value to i64.
pub fn sign_extend(value: u64, width: u32) -> i64 {
    let value = mask(value, width);
    if width == 0 || width >= 64 {
        return value as i64;
    }
    let sign_bit = 1u64 << (width - 1);
    if value & sign_bit != 0 {
        (value | !((1u64 << width) - 1)) as i64
    } else {
        value as i64
    }
}

/// Signed division of two `w`-bit values, truncating toward zero. Division
/// by zero follows SMT-LIB's `bvsdiv`, as the bit-blaster does: all ones
/// (-1) for a non-negative dividend and 1 for a negative one, the unsigned
/// quotient of the magnitudes negated when the signs differ.
fn sdiv_value(x: u64, y: u64, w: u32) -> u64 {
    let sx = sign_extend(x, w);
    match sign_extend(y, w) {
        0 if sx < 0 => 1,
        0 => mask(u64::MAX, w),
        sy => mask(sx.wrapping_div(sy) as u64, w),
    }
}

/// Two arguments of a commutative operator in canonical (term id) order.
fn ordered(a: TermId, b: TermId) -> [TermId; 2] {
    if a <= b {
        [a, b]
    } else {
        [b, a]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_consing_shares_terms() {
        let mut ctx = Context::new();
        let x = ctx.bv_var("x", 32);
        let y = ctx.bv_var("x", 32);
        assert_eq!(x, y);
        let one_a = ctx.bv32(1);
        let one_b = ctx.bv_const(1, 32);
        assert_eq!(one_a, one_b);
        let s1 = ctx.bv_add(x, one_a);
        let s2 = ctx.bv_add(x, one_b);
        assert_eq!(s1, s2);
    }

    #[test]
    fn constant_folding() {
        let mut ctx = Context::new();
        let a = ctx.bv32(6);
        let b = ctx.bv32(7);
        let p = ctx.bv_mul(a, b);
        assert_eq!(ctx.as_bv_const(p), Some(42));
        let neg = ctx.bv32(-1);
        assert_eq!(ctx.as_bv_const(neg), Some(0xffff_ffff));
        let lt = ctx.bv_slt(neg, a);
        assert_eq!(ctx.as_bool_const(lt), Some(true));
        let ult = ctx.bv_ult(neg, a);
        assert_eq!(ctx.as_bool_const(ult), Some(false));
    }

    #[test]
    fn neutral_elements() {
        let mut ctx = Context::new();
        let x = ctx.bv_var("x", 32);
        let zero = ctx.bv32(0);
        let one = ctx.bv32(1);
        assert_eq!(ctx.bv_add(x, zero), x);
        assert_eq!(ctx.bv_mul(x, one), x);
        assert_eq!(ctx.bv_mul(x, zero), zero);
        assert_eq!(ctx.bv_sub(x, x), zero);
        let t = ctx.bool_const(true);
        let p = ctx.bool_var("p");
        assert_eq!(ctx.and(t, p), p);
        assert_eq!(ctx.or(t, p), t);
    }

    #[test]
    fn ite_and_eq_simplify() {
        let mut ctx = Context::new();
        let x = ctx.bv_var("x", 32);
        let y = ctx.bv_var("y", 32);
        let t = ctx.bool_const(true);
        assert_eq!(ctx.ite(t, x, y), x);
        let c = ctx.bool_var("c");
        assert_eq!(ctx.ite(c, x, x), x);
        let e = ctx.eq(x, x);
        assert_eq!(ctx.as_bool_const(e), Some(true));
    }

    #[test]
    fn signed_ops_match_c_semantics() {
        let mut ctx = Context::new();
        let a = ctx.bv32(-7);
        let b = ctx.bv32(2);
        let q = ctx.bv_sdiv(a, b);
        let r = ctx.bv_srem(a, b);
        assert_eq!(sign_extend(ctx.as_bv_const(q).unwrap(), 32), -3);
        assert_eq!(sign_extend(ctx.as_bv_const(r).unwrap(), 32), -1);
        let sh = ctx.bv32(-8);
        let one = ctx.bv32(1);
        let ashr = ctx.bv_ashr(sh, one);
        assert_eq!(sign_extend(ctx.as_bv_const(ashr).unwrap(), 32), -4);
        let lshr = ctx.bv_lshr(sh, one);
        assert_eq!(ctx.as_bv_const(lshr).unwrap(), ((-8i32 as u32) >> 1) as u64);
    }

    #[test]
    fn division_by_zero_follows_smtlib() {
        let mut ctx = Context::new();
        let a = ctx.bv32(5);
        let z = ctx.bv32(0);
        let q = ctx.bv_udiv(a, z);
        assert_eq!(ctx.as_bv_const(q), Some(0xffff_ffff));
        let r = ctx.bv_urem(a, z);
        assert_eq!(ctx.as_bv_const(r), Some(5));
    }

    #[test]
    fn sign_extend_helper() {
        assert_eq!(sign_extend(0xffff_ffff, 32), -1);
        assert_eq!(sign_extend(0x7fff_ffff, 32), i32::MAX as i64);
        assert_eq!(sign_extend(0b100, 3), -4);
        assert_eq!(mask(0x1_0000_0001, 32), 1);
    }

    #[test]
    fn display_renders_sexprs() {
        let mut ctx = Context::new();
        let x = ctx.bv_var("x", 32);
        let one = ctx.bv32(1);
        let e = ctx.bv_add(x, one);
        let s = ctx.display(e);
        assert!(s.contains("bvadd"), "{}", s);
        assert!(s.contains('x'), "{}", s);
    }

    #[test]
    fn structural_hash_is_rename_invariant() {
        let mut ctx = Context::new();
        let x = ctx.bv_var("x", 32);
        let y = ctx.bv_var("y", 32);
        let xy = ctx.bv_add(x, y);
        let p = ctx.bv_var("p", 32);
        let q = ctx.bv_var("q", 32);
        let pq = ctx.bv_add(p, q);
        assert_eq!(structural_hash(&ctx, xy), structural_hash(&ctx, pq));

        // Larger DAG with sharing: (x*y) + (x*y) under two namings.
        let m1 = ctx.bv_mul(x, y);
        let s1 = ctx.bv_add(m1, m1);
        let m2 = ctx.bv_mul(p, q);
        let s2 = ctx.bv_add(m2, m2);
        assert_eq!(structural_hash(&ctx, s1), structural_hash(&ctx, s2));
    }

    #[test]
    fn structural_hash_distinguishes_sharing_patterns() {
        let mut ctx = Context::new();
        let x = ctx.bv_var("x", 32);
        let y = ctx.bv_var("y", 32);
        let xy = ctx.bv_add(x, y);
        let xx = ctx.bv_add(x, x);
        assert_ne!(structural_hash(&ctx, xy), structural_hash(&ctx, xx));
    }

    #[test]
    fn structural_hash_is_constant_sensitive() {
        let mut ctx = Context::new();
        let x = ctx.bv_var("x", 32);
        let one = ctx.bv32(1);
        let two = ctx.bv32(2);
        let a = ctx.bv_add(x, one);
        let b = ctx.bv_add(x, two);
        assert_ne!(structural_hash(&ctx, a), structural_hash(&ctx, b));
    }

    #[test]
    fn structural_hash_is_operator_sensitive() {
        let mut ctx = Context::new();
        let x = ctx.bv_var("x", 32);
        let y = ctx.bv_var("y", 32);
        let add = ctx.bv_add(x, y);
        let sub = ctx.bv_sub(x, y);
        let mul = ctx.bv_mul(x, y);
        assert_ne!(structural_hash(&ctx, add), structural_hash(&ctx, sub));
        assert_ne!(structural_hash(&ctx, add), structural_hash(&ctx, mul));
    }

    #[test]
    fn structural_hash_is_width_sensitive() {
        let mut ctx = Context::new();
        let x32 = ctx.bv_var("x", 32);
        let y32 = ctx.bv_var("y", 32);
        let a32 = ctx.bv_add(x32, y32);
        let x8 = ctx.bv_var("p", 8);
        let y8 = ctx.bv_var("q", 8);
        let a8 = ctx.bv_add(x8, y8);
        assert_ne!(structural_hash(&ctx, a32), structural_hash(&ctx, a8));
    }

    #[test]
    fn structural_hash_is_context_independent() {
        // The same structure built in two different contexts (with different
        // term-id layouts) hashes identically — the memo key must survive
        // `Context::clear` and compare across recycled solvers.
        let mut ctx1 = Context::new();
        let pad = ctx1.bv_var("pad", 16);
        let _ = ctx1.bv_not(pad);
        let x1 = ctx1.bv_var("x", 32);
        let y1 = ctx1.bv_var("y", 32);
        let e1 = ctx1.bv_mul(x1, y1);
        let mut ctx2 = Context::new();
        let x2 = ctx2.bv_var("a", 32);
        let y2 = ctx2.bv_var("b", 32);
        let e2 = ctx2.bv_mul(x2, y2);
        assert_eq!(structural_hash(&ctx1, e1), structural_hash(&ctx2, e2));
    }

    #[test]
    fn vars_in_order_follows_first_occurrence() {
        let mut ctx = Context::new();
        let x = ctx.bv_var("x", 32);
        let y = ctx.bv_var("y", 32);
        let z = ctx.bv_var("z", 32);
        // Non-commutative operators keep their argument order, so the walk
        // meets `y` and `z` before the older `x`.
        let yz = ctx.bv_sub(y, z);
        let e = ctx.bv_sub(yz, x);
        let order = vars_in_order(&ctx, e);
        assert_eq!(order, vec![y, z, x]);
        // Repeats collapse to the first occurrence.
        let e2 = ctx.bv_sub(e, y);
        assert_eq!(vars_in_order(&ctx, e2), vec![y, z, x]);
    }

    // ---- rewrite soundness oracle -----------------------------------------------
    //
    // Each rule is checked the same way: a term built through the smart
    // constructors (rewritten) must evaluate like the same operator interned
    // as is (`raw`), for every value of the variables `x` and `y` at widths
    // 4 to 8.

    /// SplitMix64: a deterministic source of random term shapes.
    struct Rng(u64);

    impl Rng {
        /// One of `0`, `1`, all ones or a random value: the constants the
        /// rules single out, and any other.
        fn constant(&mut self) -> u64 {
            let value = self.next();
            [0, 1, u64::MAX, value][self.below(4)]
        }

        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    const WIDTHS: std::ops::RangeInclusive<u32> = 4..=8;

    /// `op(args)` interned without any rewrite.
    fn raw(ctx: &mut Context, op: Op, args: &[TermId]) -> TermId {
        let sort = match op {
            Op::Not | Op::And | Op::Or | Op::Xor | Op::Implies | Op::Eq | Op::BvUlt | Op::BvSlt => {
                Sort::Bool
            }
            Op::Ite => ctx.sort(args[1]),
            _ => ctx.sort(args[0]),
        };
        ctx.intern(op, args, sort)
    }

    /// Asserts `rewritten ≡ reference` under every assignment of `x` and
    /// `y` at width `w`.
    fn assert_equivalent(ctx: &Context, w: u32, rewritten: TermId, reference: TermId, what: &str) {
        for x in 0..1u64 << w {
            for y in 0..1u64 << w {
                let value_of = |name: &str| if name == "x" { x } else { y };
                assert_eq!(
                    ctx.eval(rewritten, &value_of),
                    ctx.eval(reference, &value_of),
                    "{what}: {} vs {} at x = {x}, y = {y}, width {w}",
                    ctx.display(rewritten),
                    ctx.display(reference),
                );
            }
        }
    }

    /// A random bitvector term over `x`, `y` and constants, built through
    /// the smart constructors; `depth` bounds its height.
    fn random_bv(ctx: &mut Context, rng: &mut Rng, w: u32, depth: u32) -> TermId {
        if depth == 0 || rng.below(4) == 0 {
            return match rng.below(4) {
                0 => ctx.bv_var("x", w),
                1 => ctx.bv_var("y", w),
                _ => ctx.bv_const(rng.constant(), w),
            };
        }
        let a = random_bv(ctx, rng, w, depth - 1);
        let b = random_bv(ctx, rng, w, depth - 1);
        match rng.below(9) {
            0 => ctx.bv_add(a, b),
            1 => ctx.bv_sub(a, b),
            2 => ctx.bv_mul(a, b),
            3 => ctx.bv_and(a, b),
            4 => ctx.bv_or(a, b),
            5 => ctx.bv_xor(a, b),
            6 => ctx.bv_not(a),
            7 => {
                let c = random_bool(ctx, rng, w, depth - 1);
                ctx.ite(c, a, b)
            }
            _ => {
                // A constant-branch ite, the shape comparison masks have.
                let c = random_bool(ctx, rng, w, depth - 1);
                let k1 = ctx.bv_const(rng.next(), w);
                let k2 = ctx.bv_const(rng.constant(), w);
                ctx.ite(c, k1, k2)
            }
        }
    }

    /// A random Boolean term over comparisons of [`random_bv`] terms.
    fn random_bool(ctx: &mut Context, rng: &mut Rng, w: u32, depth: u32) -> TermId {
        let a = random_bv(ctx, rng, w, depth.saturating_sub(1));
        let b = random_bv(ctx, rng, w, depth.saturating_sub(1));
        match rng.below(5) {
            0 => ctx.eq(a, b),
            1 => ctx.bv_slt(a, b),
            2 => ctx.bv_ult(a, b),
            3 => ctx.bv_sle(a, b),
            _ => {
                let k = ctx.bv_const(rng.next(), w);
                ctx.eq(a, k)
            }
        }
    }

    /// Runs `case` on fresh contexts: `cases` random seeds at each width.
    fn for_each_case(cases: u64, mut case: impl FnMut(&mut Context, &mut Rng, u32)) {
        for w in WIDTHS {
            for seed in 0..cases {
                let mut ctx = Context::new();
                let mut rng = Rng(seed * 1_000 + u64::from(w));
                case(&mut ctx, &mut rng, w);
            }
        }
    }

    type Builder = fn(&mut Context, TermId, TermId) -> TermId;

    const COMMUTATIVE: [(Op, Builder); 5] = [
        (Op::BvAdd, Context::bv_add),
        (Op::BvMul, Context::bv_mul),
        (Op::BvAnd, Context::bv_and),
        (Op::BvOr, Context::bv_or),
        (Op::BvXor, Context::bv_xor),
    ];

    const BINARY: [(Op, Builder); 16] = [
        (Op::BvAdd, Context::bv_add),
        (Op::BvSub, Context::bv_sub),
        (Op::BvMul, Context::bv_mul),
        (Op::BvAnd, Context::bv_and),
        (Op::BvOr, Context::bv_or),
        (Op::BvXor, Context::bv_xor),
        (Op::BvShl, Context::bv_shl),
        (Op::BvLshr, Context::bv_lshr),
        (Op::BvAshr, Context::bv_ashr),
        (Op::BvUdiv, Context::bv_udiv),
        (Op::BvUrem, Context::bv_urem),
        (Op::BvSdiv, Context::bv_sdiv),
        (Op::BvSrem, Context::bv_srem),
        (Op::BvUlt, Context::bv_ult),
        (Op::BvSlt, Context::bv_slt),
        (Op::Eq, Context::eq),
    ];

    #[test]
    fn commutative_arguments_are_sorted_soundly() {
        for_each_case(3, |ctx, rng, w| {
            let a = random_bv(ctx, rng, w, 2);
            let b = random_bv(ctx, rng, w, 2);
            for (op, build) in COMMUTATIVE {
                let ab = build(ctx, a, b);
                assert_eq!(ab, build(ctx, b, a), "{op:?} commutes to one id");
                let reference = raw(ctx, op.clone(), &[a, b]);
                assert_equivalent(ctx, w, ab, reference, &format!("{op:?}"));
            }
            let p = random_bool(ctx, rng, w, 1);
            let q = random_bool(ctx, rng, w, 1);
            for (op, build) in [
                (Op::And, Context::and as Builder),
                (Op::Or, Context::or),
                (Op::Eq, Context::eq),
            ] {
                let pq = build(ctx, p, q);
                assert_eq!(pq, build(ctx, q, p), "{op:?} commutes to one id");
                let reference = raw(ctx, op.clone(), &[p, q]);
                assert_equivalent(ctx, w, pq, reference, &format!("{op:?}"));
            }
        });
    }

    #[test]
    fn add_chains_flatten_to_one_sorted_chain_soundly() {
        for_each_case(4, |ctx, rng, w| {
            // Constant-branch ites are left out: against a constant they
            // lift instead of joining the chain.
            let count = 2 + rng.below(5);
            let mut leaves = Vec::new();
            while leaves.len() < count {
                let leaf = random_bv(ctx, rng, w, 1);
                if ctx.const_ite(leaf).is_none() {
                    leaves.push(leaf);
                }
            }
            // Left-leaning in the given order, and a random association of
            // a shuffled order, must intern to the same chain.
            let mut left = leaves[0];
            let mut reference = leaves[0];
            for &leaf in &leaves[1..] {
                left = ctx.bv_add(left, leaf);
                reference = raw(ctx, Op::BvAdd, &[reference, leaf]);
            }
            let mut pending = leaves.clone();
            while pending.len() > 1 {
                let i = rng.below(pending.len());
                let a = pending.swap_remove(i);
                let j = rng.below(pending.len());
                pending[j] = ctx.bv_add(pending[j], a);
            }
            assert_eq!(left, pending[0], "association and order do not matter");
            assert_equivalent(ctx, w, left, reference, "add chain");
        });
        // A shared `t + t` DAG stays linear in size.
        let mut ctx = Context::new();
        let mut t = ctx.bv_var("x", 8);
        for _ in 0..40 {
            let y = ctx.bv_var("y", 8);
            let ty = ctx.bv_add(t, y);
            t = ctx.bv_add(ty, ty);
        }
        assert!(ctx.len() < 40 * (MAX_ADD_LEAVES + 8), "{} terms", ctx.len());
    }

    #[test]
    fn constant_branch_ites_lift_through_binary_operators_soundly() {
        for_each_case(2, |ctx, rng, w| {
            let c = random_bool(ctx, rng, w, 2);
            let k1 = ctx.bv_const(rng.next(), w);
            let k2 = ctx.bv_const(rng.constant(), w);
            let k = ctx.bv_const(rng.next(), w);
            let mask = ctx.ite(c, k1, k2);
            for (op, build) in BINARY {
                for (a, b) in [(mask, k), (k, mask)] {
                    let lifted = build(ctx, a, b);
                    assert!(
                        !ctx.term(lifted).args.contains(&mask),
                        "{op:?} lifts: {}",
                        ctx.display(lifted)
                    );
                    let reference = raw(ctx, op.clone(), &[a, b]);
                    assert_equivalent(ctx, w, lifted, reference, &format!("{op:?}"));
                }
            }
        });
    }

    #[test]
    fn bool_ites_with_constant_branches_reduce_soundly() {
        for_each_case(3, |ctx, rng, w| {
            let c = random_bool(ctx, rng, w, 2);
            let t = ctx.bool_const(true);
            let f = ctx.bool_const(false);
            assert_eq!(ctx.ite(c, t, f), c);
            let negated = ctx.ite(c, f, t);
            assert_eq!(negated, ctx.not(c));
            let reference = raw(ctx, Op::Ite, &[c, f, t]);
            assert_equivalent(ctx, w, negated, reference, "ite(c, false, true)");
        });
    }

    #[test]
    fn negated_conditions_swap_the_branches_soundly() {
        for_each_case(3, |ctx, rng, w| {
            let c = random_bool(ctx, rng, w, 2);
            let x = random_bv(ctx, rng, w, 2);
            let y = random_bv(ctx, rng, w, 2);
            let not_c = ctx.not(c);
            let swapped = ctx.ite(not_c, x, y);
            assert_eq!(swapped, ctx.ite(c, y, x));
            let reference = raw(ctx, Op::Ite, &[not_c, x, y]);
            assert_equivalent(ctx, w, swapped, reference, "ite(not c, x, y)");
        });
    }

    #[test]
    fn nested_ites_on_one_condition_collapse_soundly() {
        for_each_case(3, |ctx, rng, w| {
            let c = random_bool(ctx, rng, w, 2);
            let [x, y, z] = [0; 3].map(|_| random_bv(ctx, rng, w, 2));
            let inner = ctx.ite(c, x, y);
            let outer = ctx.ite(c, inner, z);
            assert_eq!(outer, ctx.ite(c, x, z));
            let raw_inner = raw(ctx, Op::Ite, &[c, x, y]);
            let reference = raw(ctx, Op::Ite, &[c, raw_inner, z]);
            assert_equivalent(ctx, w, outer, reference, "ite(c, ite(c, x, y), z)");
            let inner = ctx.ite(c, y, z);
            let outer = ctx.ite(c, x, inner);
            assert_eq!(outer, ctx.ite(c, x, z));
            let raw_inner = raw(ctx, Op::Ite, &[c, y, z]);
            let reference = raw(ctx, Op::Ite, &[c, x, raw_inner]);
            assert_equivalent(ctx, w, outer, reference, "ite(c, x, ite(c, y, z))");
        });
    }

    #[test]
    fn signed_less_or_equal_becomes_a_negated_less_than_soundly() {
        for_each_case(3, |ctx, rng, w| {
            let a = random_bv(ctx, rng, w, 2);
            let b = random_bv(ctx, rng, w, 2);
            let le = ctx.bv_sle(a, b);
            let lt = raw(ctx, Op::BvSlt, &[a, b]);
            let eq = raw(ctx, Op::Eq, &[a, b]);
            let reference = raw(ctx, Op::Or, &[lt, eq]);
            assert_equivalent(ctx, w, le, reference, "sle");
        });
    }

    #[test]
    fn bitwise_neutral_and_absorbing_elements_fold_soundly() {
        for_each_case(3, |ctx, rng, w| {
            let x = random_bv(ctx, rng, w, 2);
            let zero = ctx.bv_const(0, w);
            let ones = ctx.bv_const(u64::MAX, w);
            for (op, build, k, expect) in [
                (Op::BvAnd, Context::bv_and as Builder, zero, zero),
                (Op::BvAnd, Context::bv_and, ones, x),
                (Op::BvOr, Context::bv_or, zero, x),
                (Op::BvOr, Context::bv_or, ones, ones),
                (Op::BvXor, Context::bv_xor, zero, x),
            ] {
                for (a, b) in [(x, k), (k, x)] {
                    let folded = build(ctx, a, b);
                    assert_eq!(folded, expect, "{op:?}");
                    let reference = raw(ctx, op.clone(), &[a, b]);
                    assert_equivalent(ctx, w, folded, reference, &format!("{op:?}"));
                }
            }
        });
    }

    #[test]
    fn conditional_substitution_folds_soundly() {
        for_each_case(4, |ctx, rng, w| {
            let x = ctx.bv_var("x", w);
            let k = ctx.bv_const(rng.constant(), w);
            let z = random_bv(ctx, rng, w, 3);
            let cond = ctx.eq(x, k);
            // `z[x := k]`, and an unrelated term, as the then-branch.
            let mut memo = HashMap::new();
            let mut budget = usize::MAX;
            let substituted = ctx.substitute(z, x, k, &mut memo, &mut budget).unwrap();
            let unrelated = random_bv(ctx, rng, w, 2);
            for y in [substituted, unrelated] {
                let folded = ctx.ite(cond, y, z);
                if y == substituted {
                    assert_eq!(folded, z, "the branches agree where x = k");
                }
                let reference = raw(ctx, Op::Ite, &[cond, y, z]);
                assert_equivalent(ctx, w, folded, reference, "ite(x = k, z[x := k], z)");
            }
        });
        // s2711's residual: ite(b = 0, a, a + b * c) is a + b * c.
        let mut ctx = Context::new();
        let [a, b, c] = ["a", "b", "c"].map(|name| ctx.bv_var(name, 32));
        let zero = ctx.bv32(0);
        let bc = ctx.bv_mul(b, c);
        let sum = ctx.bv_add(a, bc);
        let b_zero = ctx.eq(b, zero);
        assert_eq!(ctx.ite(b_zero, a, sum), sum);
    }

    #[test]
    fn comparison_masks_tested_bytewise_fold_to_their_condition() {
        // A sign-splat mask ite(p, -1, 0), its complement, and their byte
        // selectors `and(m, 0x80 << 8j) != 0`.
        let mut ctx = Context::new();
        let x = ctx.bv_var("x", 32);
        let y = ctx.bv_var("y", 32);
        let p = ctx.bv_slt(y, x);
        let ones = ctx.bv32(-1);
        let zero = ctx.bv32(0);
        let mask = ctx.ite(p, ones, zero);
        let complement = ctx.bv_xor(mask, ones);
        let not_p = ctx.not(p);
        for j in 0..4 {
            let msb = ctx.bv_const(0x80 << (8 * j), 32);
            for (m, want) in [(mask, p), (complement, not_p)] {
                let bit = ctx.bv_and(m, msb);
                assert_eq!(ctx.ne(bit, zero), want);
            }
        }
    }

    #[test]
    fn eval_follows_constant_folding() {
        let mut ctx = Context::new();
        let x = ctx.bv_var("x", 8);
        let y = ctx.bv_var("y", 8);
        for (op, build) in BINARY {
            let reference = raw(&mut ctx, op, &[x, y]);
            for (vx, vy) in [(200, 0), (7, 3), (0x80, 0xff), (5, 9), (3, 200)] {
                let (kx, ky) = (ctx.bv_const(vx, 8), ctx.bv_const(vy, 8));
                let folded = build(&mut ctx, kx, ky);
                let value_of = |name: &str| if name == "x" { vx } else { vy };
                let want = match ctx.as_bv_const(folded) {
                    Some(v) => v,
                    None => u64::from(ctx.as_bool_const(folded).unwrap()),
                };
                assert_eq!(
                    ctx.eval(reference, &value_of),
                    want,
                    "{}",
                    ctx.display(reference)
                );
            }
        }
    }
}
