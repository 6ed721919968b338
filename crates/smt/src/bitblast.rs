//! Tseitin bit-blasting of QF_BV terms into CNF.
//!
//! Every bitvector term is lowered to a vector of SAT literals (LSB first);
//! every boolean term to a single literal. The encodings are the textbook
//! ones: ripple-carry adders, shift-and-add multipliers, barrel shifters,
//! restoring dividers and subtract-based comparators.
//!
//! # The blasted-CNF memo
//!
//! [`BlastCache`] memoizes whole assertion roots as *clause streams in local
//! numbering*, keyed by [`crate::term::structural_hash`] — a DAG hash that
//! ignores variable names but is sensitive to operators, constants, widths
//! and sharing. Two roots with equal hashes blast to literally the same
//! interleaved sequence of fresh-variable allocations and emitted clauses,
//! modulo a uniform renaming of SAT variables, so a hit replays the recorded
//! stream instead of re-walking the term DAG. Replay reproduces the exact
//! variable-allocation and clause order of a fresh blast, which keeps the
//! downstream CDCL search (and therefore the verdict and its statistics)
//! bit-identical — the property the `memoized_blast_is_clause_identical`
//! tests pin via [`crate::sat::SatSolver::cnf_fingerprint`].
//!
//! An entry is recorded only when its blast is *self-contained*: every
//! variable it touches is first bound inside it and every subterm it reuses
//! was blasted inside it. A root that shares variables or subterms with
//! earlier assertions in the same solver would record a context-dependent
//! stream, so recording simply invalidates itself and the root is never
//! cached. Symmetrically, a hit is replayed only when none of the root's
//! variables are bound yet. The cache lives on [`crate::Solver`], *beside*
//! the recycled term [`Context`] — [`crate::Solver::recycle`] clears the
//! context but keeps the memo, which is how blasts are shared across the
//! many queries of one verification job and across jobs on one worker.

use crate::sat::{Lit, SatSolver, Var};
use crate::term::{structural_hash_pair, vars_in_order, Context, Op, Sort, TermId};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// A sort/encoding mismatch discovered while lowering a term.
///
/// These used to be `panic!`s; as typed errors they surface as
/// [`crate::CheckResult::Unknown`] instead of aborting a verification worker
/// thread mid-batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlastError {
    /// A boolean encoding was required but a bitvector was produced.
    ExpectedBool,
    /// A bitvector encoding was required but a boolean was produced.
    ExpectedBitVec,
    /// The two branches of an if-then-else lower to different encodings.
    MixedIteBranches,
    /// The two operands of an equality lower to different encodings.
    MixedEqOperands,
}

impl fmt::Display for BlastError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match self {
            BlastError::ExpectedBool => "expected a boolean encoding, found a bitvector",
            BlastError::ExpectedBitVec => "expected a bitvector encoding, found a boolean",
            BlastError::MixedIteBranches => "ite branches have different encodings",
            BlastError::MixedEqOperands => "eq operands have different encodings",
        };
        write!(f, "bit-blasting failed: {}", msg)
    }
}

impl std::error::Error for BlastError {}

/// The bit-level encoding of a term.
#[derive(Debug, Clone)]
pub enum Bits {
    /// A boolean term.
    Bool(Lit),
    /// A bitvector term, least-significant bit first.
    Bv(Vec<Lit>),
}

impl Bits {
    /// The literal of a boolean encoding.
    pub fn try_bool(&self) -> Result<Lit, BlastError> {
        match self {
            Bits::Bool(l) => Ok(*l),
            Bits::Bv(_) => Err(BlastError::ExpectedBool),
        }
    }

    /// The literals of a bitvector encoding, least-significant first.
    pub fn try_bv(&self) -> Result<&[Lit], BlastError> {
        match self {
            Bits::Bv(bits) => Ok(bits),
            Bits::Bool(_) => Err(BlastError::ExpectedBitVec),
        }
    }
}

/// The kind of one recorded input-variable slot, in first-occurrence order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum InputKind {
    /// A boolean variable: one local literal.
    Bool,
    /// A bitvector variable of the given width: `width` consecutive locals.
    Bv(u32),
}

/// One recorded input slot: its kind plus the local index of its first
/// SAT variable (bitvector slots occupy `width` consecutive locals).
#[derive(Debug, Clone, Copy)]
struct InputSlot {
    kind: InputKind,
    first_local: u32,
}

/// One step of a recorded blast, in emission order. Literal variables are
/// *local* indices: 0 is the true-literal variable, locals 1.. are the
/// fresh variables the blast allocated, in allocation order.
#[derive(Debug, Clone)]
enum BlastEvent {
    /// `SatSolver::new_var` was called.
    FreshVar,
    /// A clause was emitted (including the final unit assertion).
    Clause(Vec<Lit>),
}

/// A memoized assertion root: the full fresh-variable/clause stream of its
/// blast in local numbering, plus the input-variable layout needed to bind
/// a replay to a structurally identical root with different names.
#[derive(Debug, Clone)]
struct CacheEntry {
    /// Structural hash under a second seed — a 128-bit-effective collision
    /// guard on top of the map key.
    check: u64,
    /// Input-variable slots in the canonical first-occurrence order of
    /// [`vars_in_order`].
    inputs: Vec<InputSlot>,
    /// The recorded stream.
    events: Vec<BlastEvent>,
}

/// Second FNV seed for [`CacheEntry::check`].
const CHECK_SEED: u64 = 0x9e37_79b9_7f4a_7c15;

/// Cross-query memo of blasted assertion roots, keyed by structural hash.
///
/// Owned by [`crate::Solver`] (one per verification worker) and surviving
/// [`crate::Solver::recycle`]; see the module docs for the design. Entries
/// are evicted in insertion order once the entry cap (default
/// [`BlastCache::DEFAULT_MAX_ENTRIES`]) is reached — each entry holds a full
/// clause stream, so the cache is a small working set, not an archive.
#[derive(Debug)]
pub struct BlastCache {
    entries: HashMap<u64, CacheEntry>,
    /// Insertion order, for FIFO eviction.
    order: Vec<u64>,
    max_entries: usize,
    hits: u64,
    misses: u64,
}

impl Default for BlastCache {
    fn default() -> Self {
        BlastCache::new()
    }
}

impl BlastCache {
    /// Default entry cap: each entry stores a whole query's clause stream,
    /// so the cache is sized as a working set of recent query shapes.
    pub const DEFAULT_MAX_ENTRIES: usize = 64;

    /// An empty cache with the default entry cap.
    pub fn new() -> BlastCache {
        BlastCache::with_capacity(BlastCache::DEFAULT_MAX_ENTRIES)
    }

    /// An empty cache evicting (oldest first) beyond `max_entries`.
    pub fn with_capacity(max_entries: usize) -> BlastCache {
        BlastCache {
            entries: HashMap::new(),
            order: Vec::new(),
            max_entries: max_entries.max(1),
            hits: 0,
            misses: 0,
        }
    }

    /// Replayed roots since construction.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Roots blasted fresh (whether or not they could be recorded).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of memoized roots.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if nothing has been memoized.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn insert(&mut self, hash: u64, entry: CacheEntry) {
        if self.entries.insert(hash, entry).is_none() {
            self.order.push(hash);
            if self.order.len() > self.max_entries {
                let oldest = self.order.remove(0);
                self.entries.remove(&oldest);
            }
        }
    }
}

/// Recording state for one in-progress self-contained blast.
#[derive(Debug)]
struct Recorder {
    /// Maps global SAT variables to local indices (true-literal var is 0).
    local_of: HashMap<Var, u32>,
    next_local: u32,
    events: Vec<BlastEvent>,
    inputs: Vec<InputSlot>,
    /// Terms first blasted inside this recording; an instance-cache hit on
    /// any other term means the stream depends on outside state.
    recorded_terms: HashSet<TermId>,
    /// Cleared when the blast turns out not to be self-contained.
    valid: bool,
}

impl Recorder {
    fn new(true_var: Var) -> Recorder {
        let mut local_of = HashMap::new();
        local_of.insert(true_var, 0);
        Recorder {
            local_of,
            next_local: 1,
            events: Vec::new(),
            inputs: Vec::new(),
            recorded_terms: HashSet::new(),
            valid: true,
        }
    }

    fn local_lit(&self, lit: Lit) -> Option<Lit> {
        self.local_of
            .get(&lit.var())
            .map(|&local| Lit::new(local, lit.is_neg()))
    }
}

/// Bit-blasts terms from a [`Context`] into a [`SatSolver`].
pub struct BitBlaster<'a> {
    ctx: &'a Context,
    sat: &'a mut SatSolver,
    cache: HashMap<TermId, Bits>,
    true_lit: Lit,
    /// Bit literals of every free bitvector variable, for model extraction.
    var_bits: HashMap<String, Vec<Lit>>,
    /// Literal of every free boolean variable.
    var_bools: HashMap<String, Lit>,
    /// Active while a cache-miss blast is being recorded.
    recorder: Option<Recorder>,
}

impl<'a> BitBlaster<'a> {
    /// Creates a bit-blaster targeting the given SAT solver.
    pub fn new(ctx: &'a Context, sat: &'a mut SatSolver) -> Self {
        let t = sat.new_var();
        let true_lit = Lit::pos(t);
        sat.add_clause(&[true_lit]);
        BitBlaster {
            ctx,
            sat,
            cache: HashMap::new(),
            true_lit,
            var_bits: HashMap::new(),
            var_bools: HashMap::new(),
            recorder: None,
        }
    }

    /// The literals of each free bitvector variable encountered so far.
    pub fn var_bits(&self) -> &HashMap<String, Vec<Lit>> {
        &self.var_bits
    }

    /// The literal of each free boolean variable encountered so far.
    pub fn var_bools(&self) -> &HashMap<String, Lit> {
        &self.var_bools
    }

    /// Asserts a boolean term.
    pub fn assert(&mut self, term: TermId) -> Result<(), BlastError> {
        let lit = self.blast(term)?.try_bool()?;
        self.emit(&[lit]);
        Ok(())
    }

    /// [`BitBlaster::assert`] through the blasted-CNF memo: a structurally
    /// identical root seen before replays its recorded clause stream; a miss
    /// blasts fresh and records the stream when it is self-contained (see
    /// the module docs).
    pub fn assert_with_cache(
        &mut self,
        term: TermId,
        memo: &mut BlastCache,
    ) -> Result<(), BlastError> {
        let (hash, check) =
            structural_hash_pair(self.ctx, term, crate::term::FNV_OFFSET, CHECK_SEED);
        if let Some(entry) = memo.entries.get(&hash) {
            if entry.check == check && self.try_replay(term, entry) {
                memo.hits += 1;
                return Ok(());
            }
        }
        memo.misses += 1;
        debug_assert!(self.recorder.is_none(), "recordings do not nest");
        self.recorder = Some(Recorder::new(self.true_lit.var()));
        let result = self.assert(term);
        let recorder = self.recorder.take().expect("recorder was just installed");
        if result.is_ok() && recorder.valid {
            memo.insert(
                hash,
                CacheEntry {
                    check,
                    inputs: recorder.inputs,
                    events: recorder.events,
                },
            );
        }
        result
    }

    /// Replays `entry` for the (hash-equal) root `term`. Returns `false` —
    /// leaving the solver untouched — when the root's variables do not line
    /// up with the recorded input slots or are already bound.
    ///
    /// The positional pairing below relies on [`blast`](Self::blast)
    /// lowering arguments strictly left-to-right, so a fresh blast binds
    /// variables in exactly the [`vars_in_order`] pre-order.
    fn try_replay(&mut self, term: TermId, entry: &CacheEntry) -> bool {
        let vars = vars_in_order(self.ctx, term);
        if vars.len() != entry.inputs.len() {
            return false;
        }
        for (&var_term, slot) in vars.iter().zip(&entry.inputs) {
            let Op::Var { name, sort } = &self.ctx.term(var_term).op else {
                return false;
            };
            let matches = match (sort, slot.kind) {
                (Sort::Bool, InputKind::Bool) => !self.var_bools.contains_key(name),
                (Sort::BitVec(w), InputKind::Bv(width)) => {
                    *w == width && !self.var_bits.contains_key(name)
                }
                _ => false,
            };
            if !matches {
                return false;
            }
        }
        // Replay the stream: allocate fresh variables and add clauses in
        // exactly the recorded order, building the local→global map as the
        // allocations happen.
        let mut global: Vec<Var> = Vec::with_capacity(entry.events.len() + 1);
        global.push(self.true_lit.var());
        for event in &entry.events {
            match event {
                BlastEvent::FreshVar => global.push(self.sat.new_var()),
                BlastEvent::Clause(locals) => {
                    let clause: Vec<Lit> = locals
                        .iter()
                        .map(|l| Lit::new(global[l.var() as usize], l.is_neg()))
                        .collect();
                    self.sat.add_clause(&clause);
                }
            }
        }
        // Bind the new root's variable names to the replayed input slots so
        // model extraction and later assertions see them.
        for (&var_term, slot) in vars.iter().zip(&entry.inputs) {
            let Op::Var { name, sort } = &self.ctx.term(var_term).op else {
                unreachable!("checked above");
            };
            let first = slot.first_local as usize;
            match sort {
                Sort::Bool => {
                    let lit = Lit::pos(global[first]);
                    self.var_bools.insert(name.clone(), lit);
                    self.cache.insert(var_term, Bits::Bool(lit));
                }
                Sort::BitVec(w) => {
                    let bits: Vec<Lit> = (0..*w as usize)
                        .map(|i| Lit::pos(global[first + i]))
                        .collect();
                    self.var_bits.insert(name.clone(), bits.clone());
                    self.cache.insert(var_term, Bits::Bv(bits));
                }
            }
        }
        true
    }

    fn const_lit(&self, value: bool) -> Lit {
        if value {
            self.true_lit
        } else {
            self.true_lit.negate()
        }
    }

    /// Allocates a SAT variable, recording the allocation when a memo
    /// recording is active.
    fn fresh_var(&mut self) -> Var {
        let var = self.sat.new_var();
        if let Some(rec) = &mut self.recorder {
            rec.events.push(BlastEvent::FreshVar);
            rec.local_of.insert(var, rec.next_local);
            rec.next_local += 1;
        }
        var
    }

    /// Adds a clause, recording it (in local numbering) when a memo
    /// recording is active. A literal from outside the recording makes the
    /// stream context-dependent and invalidates it.
    fn emit(&mut self, lits: &[Lit]) {
        if let Some(rec) = &mut self.recorder {
            let locals: Option<Vec<Lit>> = lits.iter().map(|&l| rec.local_lit(l)).collect();
            match locals {
                Some(locals) => rec.events.push(BlastEvent::Clause(locals)),
                None => rec.valid = false,
            }
        }
        self.sat.add_clause(lits);
    }

    fn fresh(&mut self) -> Lit {
        Lit::pos(self.fresh_var())
    }

    // ---- gates ---------------------------------------------------------------

    fn and_gate(&mut self, a: Lit, b: Lit) -> Lit {
        if a == self.const_lit(false) || b == self.const_lit(false) {
            return self.const_lit(false);
        }
        if a == self.const_lit(true) {
            return b;
        }
        if b == self.const_lit(true) {
            return a;
        }
        if a == b {
            return a;
        }
        if a == b.negate() {
            return self.const_lit(false);
        }
        let o = self.fresh();
        self.emit(&[a.negate(), b.negate(), o]);
        self.emit(&[a, o.negate()]);
        self.emit(&[b, o.negate()]);
        o
    }

    fn or_gate(&mut self, a: Lit, b: Lit) -> Lit {
        self.and_gate(a.negate(), b.negate()).negate()
    }

    fn xor_gate(&mut self, a: Lit, b: Lit) -> Lit {
        if a == self.const_lit(false) {
            return b;
        }
        if b == self.const_lit(false) {
            return a;
        }
        if a == self.const_lit(true) {
            return b.negate();
        }
        if b == self.const_lit(true) {
            return a.negate();
        }
        if a == b {
            return self.const_lit(false);
        }
        if a == b.negate() {
            return self.const_lit(true);
        }
        let o = self.fresh();
        self.emit(&[a.negate(), b.negate(), o.negate()]);
        self.emit(&[a, b, o.negate()]);
        self.emit(&[a.negate(), b, o]);
        self.emit(&[a, b.negate(), o]);
        o
    }

    fn mux_gate(&mut self, cond: Lit, then_l: Lit, else_l: Lit) -> Lit {
        if then_l == else_l {
            return then_l;
        }
        if cond == self.const_lit(true) {
            return then_l;
        }
        if cond == self.const_lit(false) {
            return else_l;
        }
        let o = self.fresh();
        self.emit(&[cond.negate(), then_l.negate(), o]);
        self.emit(&[cond.negate(), then_l, o.negate()]);
        self.emit(&[cond, else_l.negate(), o]);
        self.emit(&[cond, else_l, o.negate()]);
        o
    }

    fn full_adder(&mut self, a: Lit, b: Lit, cin: Lit) -> (Lit, Lit) {
        let ab = self.xor_gate(a, b);
        let sum = self.xor_gate(ab, cin);
        let c1 = self.and_gate(a, b);
        let c2 = self.and_gate(ab, cin);
        let cout = self.or_gate(c1, c2);
        (sum, cout)
    }

    /// Ripple-carry addition; returns (sum bits, carry out).
    fn adder(&mut self, a: &[Lit], b: &[Lit], mut carry: Lit) -> (Vec<Lit>, Lit) {
        let mut out = Vec::with_capacity(a.len());
        for i in 0..a.len() {
            let (sum, cout) = self.full_adder(a[i], b[i], carry);
            out.push(sum);
            carry = cout;
        }
        (out, carry)
    }

    fn negate_bv(&mut self, a: &[Lit]) -> Vec<Lit> {
        let not_a: Vec<Lit> = a.iter().map(|l| l.negate()).collect();
        let zeros = vec![self.const_lit(false); a.len()];
        let one = self.const_lit(true);
        self.adder(&not_a, &zeros, one).0
    }

    fn sub(&mut self, a: &[Lit], b: &[Lit]) -> (Vec<Lit>, Lit) {
        // a - b = a + ~b + 1; the final carry is 1 iff a >= b (unsigned).
        let not_b: Vec<Lit> = b.iter().map(|l| l.negate()).collect();
        let one = self.const_lit(true);
        self.adder(a, &not_b, one)
    }

    fn mul(&mut self, a: &[Lit], b: &[Lit]) -> Vec<Lit> {
        let w = a.len();
        let mut acc = vec![self.const_lit(false); w];
        for i in 0..w {
            // addend = (b << i) AND-ed with a[i], truncated to w bits.
            let mut addend = vec![self.const_lit(false); w];
            for j in 0..(w - i) {
                addend[i + j] = self.and_gate(a[i], b[j]);
            }
            let zero = self.const_lit(false);
            acc = self.adder(&acc, &addend, zero).0;
        }
        acc
    }

    fn shift(&mut self, a: &[Lit], amount: &[Lit], kind: ShiftKind) -> Vec<Lit> {
        let w = a.len();
        let stages = usize::BITS - (w - 1).leading_zeros(); // log2(w)
        let fill = match kind {
            ShiftKind::Shl | ShiftKind::Lshr => self.const_lit(false),
            ShiftKind::Ashr => a[w - 1],
        };
        let mut current: Vec<Lit> = a.to_vec();
        for (stage, &sel) in amount.iter().enumerate().take(stages as usize) {
            let dist = 1usize << stage;
            let mut next = Vec::with_capacity(w);
            for i in 0..w {
                let shifted = match kind {
                    ShiftKind::Shl => {
                        if i >= dist {
                            current[i - dist]
                        } else {
                            fill
                        }
                    }
                    ShiftKind::Lshr | ShiftKind::Ashr => {
                        if i + dist < w {
                            current[i + dist]
                        } else {
                            fill
                        }
                    }
                };
                next.push(self.mux_gate(sel, shifted, current[i]));
            }
            current = next;
        }
        // If any shift bit at or above log2(w) is set, the result saturates.
        let mut overshoot = self.const_lit(false);
        for &bit in amount.iter().skip(stages as usize) {
            overshoot = self.or_gate(overshoot, bit);
        }
        let saturated: Vec<Lit> = (0..w).map(|_| fill).collect();
        (0..w)
            .map(|i| self.mux_gate(overshoot, saturated[i], current[i]))
            .collect()
    }

    /// Restoring unsigned division; returns (quotient, remainder) with the
    /// SMT-LIB convention for division by zero.
    fn udiv_urem(&mut self, a: &[Lit], b: &[Lit]) -> (Vec<Lit>, Vec<Lit>) {
        let w = a.len();
        let mut remainder = vec![self.const_lit(false); w];
        let mut quotient = vec![self.const_lit(false); w];
        for i in (0..w).rev() {
            // remainder = (remainder << 1) | a[i]
            remainder.rotate_right(1);
            remainder[0] = a[i];
            // ge = remainder >= b  (unsigned), diff = remainder - b
            let (diff, carry) = self.sub(&remainder, b);
            quotient[i] = carry;
            remainder = (0..w)
                .map(|k| self.mux_gate(carry, diff[k], remainder[k]))
                .collect();
        }
        // Division by zero: quotient = all ones, remainder = a.
        let b_zero = self.is_zero(b);
        let ones = vec![self.const_lit(true); w];
        let q = (0..w)
            .map(|k| self.mux_gate(b_zero, ones[k], quotient[k]))
            .collect();
        let r = (0..w)
            .map(|k| self.mux_gate(b_zero, a[k], remainder[k]))
            .collect();
        (q, r)
    }

    fn is_zero(&mut self, a: &[Lit]) -> Lit {
        let mut any = self.const_lit(false);
        for &bit in a {
            any = self.or_gate(any, bit);
        }
        any.negate()
    }

    fn eq_bv(&mut self, a: &[Lit], b: &[Lit]) -> Lit {
        let mut all = self.const_lit(true);
        for i in 0..a.len() {
            let same = self.xor_gate(a[i], b[i]).negate();
            all = self.and_gate(all, same);
        }
        all
    }

    fn ult(&mut self, a: &[Lit], b: &[Lit]) -> Lit {
        // a < b  iff  a - b underflows  iff  carry out of (a + ~b + 1) is 0.
        let (_, carry) = self.sub(a, b);
        carry.negate()
    }

    fn slt(&mut self, a: &[Lit], b: &[Lit]) -> Lit {
        let w = a.len();
        let sa = a[w - 1];
        let sb = b[w - 1];
        let sign_differs = self.xor_gate(sa, sb);
        // If signs differ, a < b iff a is negative. Otherwise use unsigned.
        let unsigned = self.ult(a, b);
        self.mux_gate(sign_differs, sa, unsigned)
    }

    fn abs(&mut self, a: &[Lit]) -> Vec<Lit> {
        let w = a.len();
        let sign = a[w - 1];
        let neg = self.negate_bv(a);
        (0..w).map(|i| self.mux_gate(sign, neg[i], a[i])).collect()
    }

    // ---- term lowering ---------------------------------------------------------

    /// Lowers a term (memoized).
    pub fn blast(&mut self, term: TermId) -> Result<Bits, BlastError> {
        if let Some(bits) = self.cache.get(&term) {
            // An instance-cache hit on a term first blasted before the
            // active recording started means the recorded stream would
            // silently depend on outside state — unless every literal in
            // the cached bits is already local to the recording (constants
            // over the true literal, in practice), in which case a replay
            // reproduces them faithfully.
            if let Some(rec) = &mut self.recorder {
                if !rec.recorded_terms.contains(&term) {
                    let context_free = match bits {
                        Bits::Bool(l) => rec.local_of.contains_key(&l.var()),
                        Bits::Bv(v) => v.iter().all(|l| rec.local_of.contains_key(&l.var())),
                    };
                    if !context_free {
                        rec.valid = false;
                    }
                }
            }
            return Ok(bits.clone());
        }
        if let Some(rec) = &mut self.recorder {
            rec.recorded_terms.insert(term);
        }
        let data = self.ctx.term(term).clone();
        let arg = |i: usize| data.args[i];
        let result = match &data.op {
            Op::BoolConst(b) => Bits::Bool(self.const_lit(*b)),
            Op::BvConst { value, width } => {
                let bits = (0..*width)
                    .map(|i| self.const_lit((value >> i) & 1 == 1))
                    .collect();
                Bits::Bv(bits)
            }
            Op::Var { name, sort } => match sort {
                Sort::Bool => {
                    let lit = match self.var_bools.get(name) {
                        Some(&lit) => {
                            // Bound before this recording started: the
                            // stream is not self-contained.
                            if let Some(rec) = &mut self.recorder {
                                rec.valid = false;
                            }
                            lit
                        }
                        None => {
                            if let Some(rec) = &mut self.recorder {
                                rec.inputs.push(InputSlot {
                                    kind: InputKind::Bool,
                                    first_local: rec.next_local,
                                });
                            }
                            let lit = Lit::pos(self.fresh_var());
                            self.var_bools.insert(name.clone(), lit);
                            lit
                        }
                    };
                    Bits::Bool(lit)
                }
                Sort::BitVec(w) => {
                    if !self.var_bits.contains_key(name) {
                        if let Some(rec) = &mut self.recorder {
                            rec.inputs.push(InputSlot {
                                kind: InputKind::Bv(*w),
                                first_local: rec.next_local,
                            });
                        }
                        let bits: Vec<Lit> = (0..*w).map(|_| Lit::pos(self.fresh_var())).collect();
                        self.var_bits.insert(name.clone(), bits);
                    } else if let Some(rec) = &mut self.recorder {
                        rec.valid = false;
                    }
                    Bits::Bv(self.var_bits[name].clone())
                }
            },
            Op::Not => {
                let a = self.blast(arg(0))?.try_bool()?;
                Bits::Bool(a.negate())
            }
            Op::And => {
                let a = self.blast(arg(0))?.try_bool()?;
                let b = self.blast(arg(1))?.try_bool()?;
                Bits::Bool(self.and_gate(a, b))
            }
            Op::Or => {
                let a = self.blast(arg(0))?.try_bool()?;
                let b = self.blast(arg(1))?.try_bool()?;
                Bits::Bool(self.or_gate(a, b))
            }
            Op::Xor => {
                let a = self.blast(arg(0))?.try_bool()?;
                let b = self.blast(arg(1))?.try_bool()?;
                Bits::Bool(self.xor_gate(a, b))
            }
            Op::Implies => {
                let a = self.blast(arg(0))?.try_bool()?;
                let b = self.blast(arg(1))?.try_bool()?;
                Bits::Bool(self.or_gate(a.negate(), b))
            }
            Op::Ite => {
                let c = self.blast(arg(0))?.try_bool()?;
                let t = self.blast(arg(1))?;
                let e = self.blast(arg(2))?;
                match (t, e) {
                    (Bits::Bool(t), Bits::Bool(e)) => Bits::Bool(self.mux_gate(c, t, e)),
                    (Bits::Bv(t), Bits::Bv(e)) => {
                        Bits::Bv((0..t.len()).map(|i| self.mux_gate(c, t[i], e[i])).collect())
                    }
                    _ => return Err(BlastError::MixedIteBranches),
                }
            }
            Op::Eq => {
                let a = self.blast(arg(0))?;
                let b = self.blast(arg(1))?;
                match (a, b) {
                    (Bits::Bool(a), Bits::Bool(b)) => Bits::Bool(self.xor_gate(a, b).negate()),
                    (Bits::Bv(a), Bits::Bv(b)) => Bits::Bool(self.eq_bv(&a, &b)),
                    _ => return Err(BlastError::MixedEqOperands),
                }
            }
            Op::BvAdd => {
                let a = self.blast(arg(0))?.try_bv()?.to_vec();
                let b = self.blast(arg(1))?.try_bv()?.to_vec();
                let zero = self.const_lit(false);
                Bits::Bv(self.adder(&a, &b, zero).0)
            }
            Op::BvSub => {
                let a = self.blast(arg(0))?.try_bv()?.to_vec();
                let b = self.blast(arg(1))?.try_bv()?.to_vec();
                Bits::Bv(self.sub(&a, &b).0)
            }
            Op::BvMul => {
                let a = self.blast(arg(0))?.try_bv()?.to_vec();
                let b = self.blast(arg(1))?.try_bv()?.to_vec();
                Bits::Bv(self.mul(&a, &b))
            }
            Op::BvNeg => {
                let a = self.blast(arg(0))?.try_bv()?.to_vec();
                Bits::Bv(self.negate_bv(&a))
            }
            Op::BvAnd | Op::BvOr | Op::BvXor => {
                let a = self.blast(arg(0))?.try_bv()?.to_vec();
                let b = self.blast(arg(1))?.try_bv()?.to_vec();
                let bits = (0..a.len())
                    .map(|i| match data.op {
                        Op::BvAnd => self.and_gate(a[i], b[i]),
                        Op::BvOr => self.or_gate(a[i], b[i]),
                        _ => self.xor_gate(a[i], b[i]),
                    })
                    .collect();
                Bits::Bv(bits)
            }
            Op::BvNot => {
                let a = self.blast(arg(0))?.try_bv()?.to_vec();
                Bits::Bv(a.iter().map(|l| l.negate()).collect())
            }
            Op::BvShl | Op::BvLshr | Op::BvAshr => {
                let a = self.blast(arg(0))?.try_bv()?.to_vec();
                let b = self.blast(arg(1))?.try_bv()?.to_vec();
                let kind = match data.op {
                    Op::BvShl => ShiftKind::Shl,
                    Op::BvLshr => ShiftKind::Lshr,
                    _ => ShiftKind::Ashr,
                };
                Bits::Bv(self.shift(&a, &b, kind))
            }
            Op::BvUdiv => {
                let a = self.blast(arg(0))?.try_bv()?.to_vec();
                let b = self.blast(arg(1))?.try_bv()?.to_vec();
                Bits::Bv(self.udiv_urem(&a, &b).0)
            }
            Op::BvUrem => {
                let a = self.blast(arg(0))?.try_bv()?.to_vec();
                let b = self.blast(arg(1))?.try_bv()?.to_vec();
                Bits::Bv(self.udiv_urem(&a, &b).1)
            }
            Op::BvSdiv | Op::BvSrem => {
                let a = self.blast(arg(0))?.try_bv()?.to_vec();
                let b = self.blast(arg(1))?.try_bv()?.to_vec();
                let w = a.len();
                let abs_a = self.abs(&a);
                let abs_b = self.abs(&b);
                let (q, r) = self.udiv_urem(&abs_a, &abs_b);
                if data.op == Op::BvSdiv {
                    // Quotient is negative when operand signs differ.
                    let neg_q = self.negate_bv(&q);
                    let differ = self.xor_gate(a[w - 1], b[w - 1]);
                    Bits::Bv(
                        (0..w)
                            .map(|i| self.mux_gate(differ, neg_q[i], q[i]))
                            .collect(),
                    )
                } else {
                    // Remainder takes the dividend's sign (C semantics).
                    let neg_r = self.negate_bv(&r);
                    let a_neg = a[w - 1];
                    Bits::Bv(
                        (0..w)
                            .map(|i| self.mux_gate(a_neg, neg_r[i], r[i]))
                            .collect(),
                    )
                }
            }
            Op::BvUlt => {
                let a = self.blast(arg(0))?.try_bv()?.to_vec();
                let b = self.blast(arg(1))?.try_bv()?.to_vec();
                Bits::Bool(self.ult(&a, &b))
            }
            Op::BvSlt => {
                let a = self.blast(arg(0))?.try_bv()?.to_vec();
                let b = self.blast(arg(1))?.try_bv()?.to_vec();
                Bits::Bool(self.slt(&a, &b))
            }
        };
        self.cache.insert(term, result.clone());
        Ok(result)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ShiftKind {
    Shl,
    Lshr,
    Ashr,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sat::{SatBudget, SatResult};
    use crate::term::sign_extend;

    /// Checks that `lhs op rhs == expected` is satisfiable and its negation
    /// is unsatisfiable (i.e. the circuit computes the expected value).
    fn assert_circuit(build: impl Fn(&mut Context) -> (TermId, u64)) {
        let mut ctx = Context::new();
        let (term, expected) = build(&mut ctx);
        let width = ctx.sort(term).width();
        let expected_term = ctx.bv_const(expected, width);
        // The equality must be valid: its negation is UNSAT.
        let eq = ctx.eq(term, expected_term);
        let neq = ctx.not(eq);

        let mut sat = SatSolver::new();
        let mut blaster = BitBlaster::new(&ctx, &mut sat);
        blaster.assert(neq).unwrap();
        assert_eq!(
            sat.solve(&SatBudget::default()),
            SatResult::Unsat,
            "circuit disagrees with the expected constant"
        );
    }

    /// Builds the term with fresh variables constrained to constants via
    /// assertions, so the circuit (not the constant folder) is exercised.
    fn var_pair(ctx: &mut Context, a: i32, b: i32) -> (TermId, TermId, TermId) {
        let x = ctx.bv_var("x", 32);
        let y = ctx.bv_var("y", 32);
        let ca = ctx.bv32(a);
        let cb = ctx.bv32(b);
        let ex = ctx.eq(x, ca);
        let ey = ctx.eq(y, cb);
        let both = ctx.and(ex, ey);
        (x, y, both)
    }

    fn check_binop(
        a: i32,
        b: i32,
        expected: i64,
        op: impl Fn(&mut Context, TermId, TermId) -> TermId,
    ) {
        let mut ctx = Context::new();
        let (x, y, pre) = var_pair(&mut ctx, a, b);
        let result = op(&mut ctx, x, y);
        let expected_t = ctx.bv_const(expected as u64, 32);
        let eq = ctx.eq(result, expected_t);
        let neq = ctx.not(eq);
        let query = ctx.and(pre, neq);

        let mut sat = SatSolver::new();
        let mut blaster = BitBlaster::new(&ctx, &mut sat);
        blaster.assert(query).unwrap();
        assert_eq!(
            sat.solve(&SatBudget::default()),
            SatResult::Unsat,
            "{} op {} should equal {}",
            a,
            b,
            expected
        );
    }

    #[test]
    fn adder_and_subtractor_circuits() {
        check_binop(13, 29, 42, |c, a, b| c.bv_add(a, b));
        check_binop(-5, 3, -2, |c, a, b| c.bv_add(a, b));
        check_binop(i32::MAX, 1, i32::MIN as i64, |c, a, b| c.bv_add(a, b));
        check_binop(10, 4, 6, |c, a, b| c.bv_sub(a, b));
        check_binop(3, 10, -7, |c, a, b| c.bv_sub(a, b));
    }

    #[test]
    fn multiplier_circuit() {
        check_binop(7, 6, 42, |c, a, b| c.bv_mul(a, b));
        check_binop(-3, 5, -15, |c, a, b| c.bv_mul(a, b));
        check_binop(65536, 65536, 0, |c, a, b| c.bv_mul(a, b));
    }

    #[test]
    fn division_circuits() {
        check_binop(42, 5, 8, |c, a, b| c.bv_sdiv(a, b));
        check_binop(42, 5, 2, |c, a, b| c.bv_srem(a, b));
        check_binop(-7, 2, -3, |c, a, b| c.bv_sdiv(a, b));
        check_binop(-7, 2, -1, |c, a, b| c.bv_srem(a, b));
        check_binop(7, -2, -3, |c, a, b| c.bv_sdiv(a, b));
        check_binop(100, 8, 4, |c, a, b| c.bv_srem(a, b));
    }

    #[test]
    fn shift_circuits() {
        check_binop(1, 5, 32, |c, a, b| c.bv_shl(a, b));
        check_binop(-8, 1, -4, |c, a, b| c.bv_ashr(a, b));
        check_binop(-8, 1, ((-8i32 as u32) >> 1) as i64, |c, a, b| {
            c.bv_lshr(a, b)
        });
        check_binop(1, 40, 0, |c, a, b| c.bv_shl(a, b));
    }

    #[test]
    fn comparison_circuits() {
        // slt(-1, 1) must be true: assert the negation and expect UNSAT.
        let mut ctx = Context::new();
        let (x, y, pre) = var_pair(&mut ctx, -1, 1);
        let lt = ctx.bv_slt(x, y);
        let not_lt = ctx.not(lt);
        let query = ctx.and(pre, not_lt);
        let mut sat = SatSolver::new();
        let mut blaster = BitBlaster::new(&ctx, &mut sat);
        blaster.assert(query).unwrap();
        assert_eq!(sat.solve(&SatBudget::default()), SatResult::Unsat);

        // ult(-1, 1) must be false (0xffffffff is large unsigned).
        let mut ctx = Context::new();
        let (x, y, pre) = var_pair(&mut ctx, -1, 1);
        let lt = ctx.bv_ult(x, y);
        let query = ctx.and(pre, lt);
        let mut sat = SatSolver::new();
        let mut blaster = BitBlaster::new(&ctx, &mut sat);
        blaster.assert(query).unwrap();
        assert_eq!(sat.solve(&SatBudget::default()), SatResult::Unsat);
    }

    #[test]
    fn model_extraction_finds_solution() {
        // x + y == 10 and x - y == 4  =>  x = 7, y = 3.
        let mut ctx = Context::new();
        let x = ctx.bv_var("x", 32);
        let y = ctx.bv_var("y", 32);
        let sum = ctx.bv_add(x, y);
        let diff = ctx.bv_sub(x, y);
        let ten = ctx.bv32(10);
        let four = ctx.bv32(4);
        let c1 = ctx.eq(sum, ten);
        let c2 = ctx.eq(diff, four);
        let query = ctx.and(c1, c2);

        let mut sat = SatSolver::new();
        let var_bits = {
            let mut blaster = BitBlaster::new(&ctx, &mut sat);
            blaster.assert(query).unwrap();
            blaster.var_bits().clone()
        };
        assert_eq!(sat.solve(&SatBudget::default()), SatResult::Sat);

        let read = |name: &str, sat: &SatSolver| -> i64 {
            let bits = &var_bits[name];
            let mut value: u64 = 0;
            for (i, lit) in bits.iter().enumerate() {
                let bit = sat.model_value(lit.var()) ^ lit.is_neg();
                if bit {
                    value |= 1 << i;
                }
            }
            sign_extend(value, 32)
        };
        let xv = read("x", &sat);
        let yv = read("y", &sat);
        assert_eq!(xv + yv, 10);
        assert_eq!(xv - yv, 4);
    }

    #[test]
    fn ite_selects_branch() {
        assert_circuit(|ctx| {
            let c = ctx.bool_const(true);
            let a = ctx.bv32(5);
            let b = ctx.bv32(9);
            (ctx.ite(c, a, b), 5)
        });
    }

    /// A nontrivial query over the given variable names: the validity-style
    /// assertion `!((x + y) - y == x)` (UNSAT once solved, and cheap — no
    /// multipliers, so the CDCL search stays small).
    fn distributivity_query(ctx: &mut Context, x: &str, y: &str) -> TermId {
        let x = ctx.bv_var(x, 32);
        let y = ctx.bv_var(y, 32);
        let sum = ctx.bv_add(x, y);
        let back = ctx.bv_sub(sum, y);
        let eq = ctx.eq(back, x);
        ctx.not(eq)
    }

    #[test]
    fn memoized_blast_is_clause_identical_to_fresh() {
        // Record the blast of a query in one solver, then replay it for an
        // alpha-renamed copy in a second solver; a third solver blasts the
        // renamed copy fresh. Replayed and fresh CNF must be bit-identical.
        let mut memo = BlastCache::new();

        let mut ctx_a = Context::new();
        let q_a = distributivity_query(&mut ctx_a, "x", "y");
        let mut sat_a = SatSolver::new();
        let mut bl_a = BitBlaster::new(&ctx_a, &mut sat_a);
        bl_a.assert_with_cache(q_a, &mut memo).unwrap();
        assert_eq!(memo.hits(), 0);
        assert_eq!(memo.misses(), 1);
        assert_eq!(memo.len(), 1, "self-contained blast must be recorded");

        let mut ctx_b = Context::new();
        let q_b = distributivity_query(&mut ctx_b, "p", "q");
        let mut sat_b = SatSolver::new();
        let mut bl_b = BitBlaster::new(&ctx_b, &mut sat_b);
        bl_b.assert_with_cache(q_b, &mut memo).unwrap();
        assert_eq!(memo.hits(), 1, "alpha-renamed query must replay");

        let mut sat_c = SatSolver::new();
        let mut bl_c = BitBlaster::new(&ctx_b, &mut sat_c);
        bl_c.assert(q_b).unwrap();

        assert_eq!(
            sat_b.cnf_fingerprint(),
            sat_c.cnf_fingerprint(),
            "replayed CNF must be bit-identical to a fresh blast"
        );
        assert_eq!(sat_b.solve(&SatBudget::default()), SatResult::Unsat);
        assert_eq!(sat_c.solve(&SatBudget::default()), SatResult::Unsat);
    }

    #[test]
    fn replay_binds_variables_for_model_extraction() {
        // x + y == 10 && x - y == 4, recorded under one naming, replayed
        // under another; the replayed solver must still produce a model
        // through the replay-bound variable bits.
        let build = |ctx: &mut Context, x: &str, y: &str| {
            let x = ctx.bv_var(x, 32);
            let y = ctx.bv_var(y, 32);
            let sum = ctx.bv_add(x, y);
            let diff = ctx.bv_sub(x, y);
            let ten = ctx.bv32(10);
            let four = ctx.bv32(4);
            let c1 = ctx.eq(sum, ten);
            let c2 = ctx.eq(diff, four);
            ctx.and(c1, c2)
        };
        let mut memo = BlastCache::new();

        let mut ctx_a = Context::new();
        let q_a = build(&mut ctx_a, "x", "y");
        let mut sat_a = SatSolver::new();
        let mut bl_a = BitBlaster::new(&ctx_a, &mut sat_a);
        bl_a.assert_with_cache(q_a, &mut memo).unwrap();

        let mut ctx_b = Context::new();
        let q_b = build(&mut ctx_b, "u", "v");
        let mut sat_b = SatSolver::new();
        let var_bits = {
            let mut bl_b = BitBlaster::new(&ctx_b, &mut sat_b);
            bl_b.assert_with_cache(q_b, &mut memo).unwrap();
            bl_b.var_bits().clone()
        };
        assert_eq!(memo.hits(), 1);
        assert_eq!(sat_b.solve(&SatBudget::default()), SatResult::Sat);

        let read = |name: &str| -> i64 {
            let bits = &var_bits[name];
            let mut value: u64 = 0;
            for (i, lit) in bits.iter().enumerate() {
                if sat_b.model_value(lit.var()) ^ lit.is_neg() {
                    value |= 1 << i;
                }
            }
            sign_extend(value, 32)
        };
        assert_eq!(read("u") + read("v"), 10);
        assert_eq!(read("u") - read("v"), 4);
    }

    #[test]
    fn replay_refuses_when_variables_already_bound() {
        // Sharing a variable with an earlier assertion must force a fresh
        // blast (binding the replayed slots to new vars would decouple the
        // two assertions).
        let mut memo = BlastCache::new();

        let mut ctx_a = Context::new();
        let q_a = distributivity_query(&mut ctx_a, "x", "y");
        let mut sat_a = SatSolver::new();
        let mut bl_a = BitBlaster::new(&ctx_a, &mut sat_a);
        bl_a.assert_with_cache(q_a, &mut memo).unwrap();

        let mut ctx_b = Context::new();
        let x = ctx_b.bv_var("x", 32);
        let zero = ctx_b.bv32(0);
        let pin = ctx_b.eq(x, zero);
        let q_b = distributivity_query(&mut ctx_b, "x", "y");
        let mut sat_b = SatSolver::new();
        let mut bl_b = BitBlaster::new(&ctx_b, &mut sat_b);
        bl_b.assert(pin).unwrap();
        bl_b.assert_with_cache(q_b, &mut memo).unwrap();
        assert_eq!(memo.hits(), 0, "bound variable must block replay");
        assert_eq!(memo.misses(), 2);
        assert_eq!(sat_b.solve(&SatBudget::default()), SatResult::Unsat);
    }

    #[test]
    fn shared_subterm_queries_are_not_recorded_as_self_contained() {
        // Two assertions sharing a subterm: the second blast hits the
        // instance cache for the shared part, so its stream depends on the
        // first and must not be memoized.
        let mut memo = BlastCache::new();
        let mut ctx = Context::new();
        let x = ctx.bv_var("x", 32);
        let y = ctx.bv_var("y", 32);
        let sum = ctx.bv_add(x, y);
        let ten = ctx.bv32(10);
        let four = ctx.bv32(4);
        let c1 = ctx.eq(sum, ten);
        let diff = ctx.bv_sub(sum, y);
        let c2 = ctx.eq(diff, four);

        let mut sat = SatSolver::new();
        let mut bl = BitBlaster::new(&ctx, &mut sat);
        bl.assert_with_cache(c1, &mut memo).unwrap();
        assert_eq!(memo.len(), 1);
        bl.assert_with_cache(c2, &mut memo).unwrap();
        assert_eq!(memo.len(), 1, "context-dependent blast must not record");
        assert_eq!(sat.solve(&SatBudget::default()), SatResult::Sat);
    }

    #[test]
    fn blast_cache_evicts_in_insertion_order() {
        // Three structurally distinct queries through a capacity-2 cache.
        let mut memo = BlastCache::with_capacity(2);
        let mut ctx = Context::new();
        let queries: Vec<TermId> = (0..3u64)
            .map(|k| {
                let x = ctx.bv_var(format!("x{k}"), 32);
                let c = ctx.bv_const(k, 32);
                let sum = ctx.bv_add(x, c);
                let k2 = ctx.bv_const(k + 1, 32);
                ctx.eq(sum, k2)
            })
            .collect();
        let mut sat = SatSolver::new();
        let mut bl = BitBlaster::new(&ctx, &mut sat);
        for &q in &queries {
            bl.assert_with_cache(q, &mut memo).unwrap();
        }
        assert_eq!(memo.len(), 2, "oldest entry must have been evicted");
        assert_eq!(memo.misses(), 3);
    }
}
