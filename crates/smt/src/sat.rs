//! A CDCL SAT solver.
//!
//! This is the decision procedure at the bottom of the verification stack,
//! playing the role Z3's SAT core plays for Alive2's queries. It implements
//! the standard modern recipe: two-watched-literal propagation, first-UIP
//! conflict analysis with clause learning, VSIDS-style variable activities,
//! phase saving and geometric restarts. A conflict budget turns long-running
//! queries into `Unknown`, which the translation validator reports as
//! `Inconclusive` — the timeouts that motivate the paper's domain-specific
//! optimizations.
//!
//! Clause storage is a flat arena (`ClauseArena`): one contiguous literal
//! buffer plus fixed-size headers, so the watch/propagation hot loop walks
//! contiguous memory instead of chasing per-clause `Vec` boxes. The arena is
//! unconditional and preserves clause insertion order, so
//! [`SatSolver::cnf_fingerprint`] is byte-stable across the representation.
//!
//! The decision order is an indexed binary max-heap (`VarHeap`, MiniSat's
//! order heap, Eén & Sörensson, SAT'03) keyed by activity, with ties going
//! to the larger variable index. Each entry packs a variable's activity
//! and index into one integer key, so the order is one integer comparison,
//! and a pop walks its hole to a leaf with branch-free child picks
//! (Floyd's heap pop). A bump sifts the variable up in place, a backtrack
//! re-inserts the unassigned variables missing from the heap, and an
//! activity rescale (an activity above `1e100`) re-keys it. Until a
//! solver's first rescale, about 4,430 conflicts into its life at the
//! earliest, it takes exactly the decisions of the lazy-deletion heap it
//! replaced, which pushed a duplicate entry on every bump and backtrack.
//! After a rescale that heap's stale pre-rescale entries outranked every
//! live activity, while this one keeps the true VSIDS order; the changed
//! trajectories are why [`SEARCH_REVISION`] is 1.
//!
//! A budget stop ends the search: the result is `Unknown` and the solver
//! stays where the search stopped, as it does after a `Sat` result.
//! [`SatSolver::reset_to_root`] returns it to decision level 0, after
//! which clauses can be added and the instance solved again from scratch.

/// Revision of the CDCL search trajectory. Two builds with equal revisions
/// take the same decisions on the same instance under the same budget, so
/// they reach the same result at the same conflict count. A change that
/// alters any search (a new restart policy, a different decision order,
/// another activity rescale) bumps this value; it is folded into every
/// engine configuration fingerprint, so verdicts cached by an earlier
/// search never answer for a later one.
///
/// Revision 1 is the indexed decision heap, whose order after an activity
/// rescale differs from the lazy heap it replaced. Revision 2 is the term
/// rewriting that folds most verification conditions before they reach the
/// search at all (see [`crate::term`]): the instances that do reach it
/// differ, and a cached verdict could otherwise name a stage this build no
/// longer takes.
pub const SEARCH_REVISION: u8 = 2;

/// A propositional variable index (0-based).
pub type Var = u32;

/// A literal: a variable with a sign.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(u32);

impl Lit {
    /// Creates a literal from a variable; `negated` selects the negative phase.
    pub fn new(var: Var, negated: bool) -> Lit {
        Lit(var << 1 | u32::from(negated))
    }

    /// A positive literal.
    pub fn pos(var: Var) -> Lit {
        Lit::new(var, false)
    }

    /// A negative literal.
    pub fn neg(var: Var) -> Lit {
        Lit::new(var, true)
    }

    /// The underlying variable.
    pub fn var(self) -> Var {
        self.0 >> 1
    }

    /// `true` if this is the negated phase.
    pub fn is_neg(self) -> bool {
        self.0 & 1 == 1
    }

    /// The opposite literal.
    pub fn negate(self) -> Lit {
        Lit(self.0 ^ 1)
    }

    /// Dense index used for watch and occurrence lists.
    pub(crate) fn code(self) -> usize {
        self.0 as usize
    }
}

/// The outcome of a SAT check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SatResult {
    /// A satisfying assignment was found.
    Sat,
    /// The formula is unsatisfiable.
    Unsat,
    /// The conflict budget was exhausted before a decision was reached.
    Unknown,
}

/// Resource limits for a single `solve` call.
#[derive(Debug, Clone, Copy)]
pub struct SatBudget {
    /// Maximum number of conflicts before giving up. `u64::MAX` means no limit.
    pub max_conflicts: u64,
}

impl Default for SatBudget {
    fn default() -> Self {
        SatBudget {
            max_conflicts: 2_000_000,
        }
    }
}

/// Statistics of one search (see [`SatSolver::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SatStats {
    /// Number of decisions made.
    pub decisions: u64,
    /// Number of conflicts encountered.
    pub conflicts: u64,
    /// Number of literals propagated.
    pub propagations: u64,
    /// Number of restarts performed.
    pub restarts: u64,
}

type ClauseRef = usize;

#[derive(Debug, Clone, Copy)]
struct ClauseHead {
    start: u32,
    len: u32,
}

/// Flat clause storage: every clause's literals live in one contiguous
/// buffer, addressed through fixed-size headers. Insertion order is the
/// iteration order, so fingerprints over the clause database are unchanged
/// from the per-clause-`Vec` representation.
#[derive(Debug, Default)]
struct ClauseArena {
    lits: Vec<Lit>,
    heads: Vec<ClauseHead>,
}

impl ClauseArena {
    fn len(&self) -> usize {
        self.heads.len()
    }

    fn push(&mut self, lits: &[Lit]) -> ClauseRef {
        let cref = self.heads.len();
        self.heads.push(ClauseHead {
            start: self.lits.len() as u32,
            len: lits.len() as u32,
        });
        self.lits.extend_from_slice(lits);
        cref
    }

    fn get(&self, cref: ClauseRef) -> &[Lit] {
        let h = self.heads[cref];
        &self.lits[h.start as usize..(h.start + h.len) as usize]
    }

    fn bytes(&self) -> usize {
        self.lits.len() * std::mem::size_of::<Lit>()
            + self.heads.len() * std::mem::size_of::<ClauseHead>()
    }
}

/// The CDCL solver.
#[derive(Debug, Default)]
pub struct SatSolver {
    db: ClauseArena,
    watches: Vec<Vec<ClauseRef>>,
    assign: Vec<Option<bool>>,
    level: Vec<u32>,
    reason: Vec<Option<ClauseRef>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    order: VarHeap,
    phase: Vec<bool>,
    /// Set when an empty clause has been added; the instance is trivially UNSAT.
    unsat: bool,
    /// Statistics of the most recent search, reset by every solve.
    pub stats: SatStats,
    seen: Vec<bool>,
    // Reusable scratch buffers: the hot paths (clause intake, conflict
    // analysis) stay allocation-free once their capacities are warm.
    add_buf: Vec<Lit>,
    learned_buf: Vec<Lit>,
}

/// Marks a variable that has no slot in [`VarHeap::heap`].
const ABSENT: u32 = u32::MAX;

/// The VSIDS decision order: an indexed binary max-heap over variables
/// (MiniSat's `Heap`, Eén & Sörensson, SAT'03). `heap` holds each member
/// variable once, as its [`VarHeap::key`]; `index` maps every variable to
/// its slot or [`ABSENT`]. A bump re-keys a variable in place instead of
/// pushing a second entry, so the heap never holds more entries than
/// there are variables.
#[derive(Debug, Default)]
struct VarHeap {
    heap: Vec<u128>,
    index: Vec<u32>,
}

impl VarHeap {
    /// `var`'s heap key: its activity's bits above the variable index. An
    /// activity is never negative, and non-negative doubles order like
    /// their bit patterns, so one integer comparison orders by activity
    /// and breaks ties to the larger variable.
    fn key(activity: &[f64], var: Var) -> u128 {
        (u128::from(activity[var as usize].to_bits()) << 32) | u128::from(var)
    }

    /// The variable a key belongs to: its low 32 bits.
    fn var(key: u128) -> Var {
        key as Var
    }

    fn contains(&self, var: Var) -> bool {
        self.index[var as usize] != ABSENT
    }

    /// Adds a slot for the next variable, `var`, and inserts it.
    fn push_var(&mut self, var: Var, activity: &[f64]) {
        debug_assert_eq!(var as usize, self.index.len());
        self.index.push(ABSENT);
        self.insert(var, activity);
    }

    fn insert(&mut self, var: Var, activity: &[f64]) {
        debug_assert!(!self.contains(var));
        self.heap.push(Self::key(activity, var));
        self.sift_up(self.heap.len() - 1);
    }

    /// Restores the order after `var`'s activity grew.
    fn increased(&mut self, var: Var, activity: &[f64]) {
        let pos = self.index[var as usize];
        if pos != ABSENT {
            self.heap[pos as usize] = Self::key(activity, var);
            self.sift_up(pos as usize);
        }
    }

    fn pop_max(&mut self) -> Option<Var> {
        let top = Self::var(*self.heap.first()?);
        let last = self.heap.pop().expect("non-empty");
        self.index[top as usize] = ABSENT;
        let len = self.heap.len();
        if len > 0 {
            // Floyd's pop: walk the hole down to a leaf along the larger
            // child (one branch-free comparison per level), then sift the
            // last entry up from there; it rarely climbs far.
            let (mut pos, mut child) = (0, 1);
            while child + 1 < len {
                child += usize::from(self.heap[child + 1] > self.heap[child]);
                self.place(pos, self.heap[child]);
                pos = child;
                child = 2 * pos + 1;
            }
            if child < len {
                self.place(pos, self.heap[child]);
                pos = child;
            }
            self.heap[pos] = last;
            self.sift_up(pos);
        }
        Some(top)
    }

    /// Re-keys every entry from `activity` after a rescale and restores
    /// the order, which the rescale can change: it may round distinct
    /// activities to equal ones, which the tie rule then orders by index.
    /// Rescales are rare, so this simply sifts each entry up in turn.
    fn rebuild(&mut self, activity: &[f64]) {
        for key in &mut self.heap {
            *key = Self::key(activity, Self::var(*key));
        }
        for pos in 0..self.heap.len() {
            self.sift_up(pos);
        }
    }

    /// Stores `key` at `pos` and records the slot in `index`.
    fn place(&mut self, pos: usize, key: u128) {
        self.heap[pos] = key;
        self.index[Self::var(key) as usize] = pos as u32;
    }

    fn sift_up(&mut self, mut pos: usize) {
        let key = self.heap[pos];
        while pos > 0 {
            let parent = (pos - 1) / 2;
            let above = self.heap[parent];
            if key < above {
                break;
            }
            self.place(pos, above);
            pos = parent;
        }
        self.place(pos, key);
    }
}

impl SatSolver {
    /// Creates an empty solver.
    pub fn new() -> SatSolver {
        SatSolver {
            var_inc: 1.0,
            ..SatSolver::default()
        }
    }

    /// Number of variables allocated so far.
    pub fn num_vars(&self) -> usize {
        self.assign.len()
    }

    /// Number of clauses (original plus learned).
    pub fn num_clauses(&self) -> usize {
        self.db.len()
    }

    /// `true` once the instance has been proven unsatisfiable at level 0.
    pub fn is_unsat(&self) -> bool {
        self.unsat
    }

    /// Bytes currently held by the flat clause arena (literal buffer plus
    /// headers, by length — the live working set the propagation loop walks).
    pub fn arena_bytes(&self) -> usize {
        self.db.bytes()
    }

    /// Pre-sizes the clause arena for a known clause stream (count and total
    /// literal count), so intake never reallocates mid-stream.
    pub fn reserve_clauses(&mut self, clauses: usize, lits: usize) {
        self.db.heads.reserve(clauses);
        self.db.lits.reserve(lits);
    }

    /// Pre-sizes the watch list of `lit` — used when the clause set is known
    /// up front, so the propagation loop starts with watch lists at their
    /// final occupancy.
    pub fn reserve_watch(&mut self, lit: Lit, additional: usize) {
        self.watches[lit.negate().code()].reserve(additional);
    }

    /// Iterates the stored clauses (original and learned) in insertion order.
    pub fn clauses(&self) -> impl Iterator<Item = &[Lit]> + '_ {
        (0..self.db.len()).map(move |cref| self.db.get(cref))
    }

    /// The level-0 implied trail: literals forced before any decision. When
    /// called at decision level 0 this is the entire current trail.
    pub fn root_units(&self) -> &[Lit] {
        let root = self.trail_lim.first().copied().unwrap_or(self.trail.len());
        &self.trail[..root]
    }

    /// Allocates a fresh variable and returns it.
    pub fn new_var(&mut self) -> Var {
        let var = self.assign.len() as Var;
        self.assign.push(None);
        self.level.push(0);
        self.reason.push(None);
        self.activity.push(0.0);
        self.phase.push(false);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.order.push_var(var, &self.activity);
        var
    }

    /// Adds a clause. Returns `false` if the clause is trivially unsatisfiable
    /// at level 0 (the instance becomes UNSAT).
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        let mut clause = std::mem::take(&mut self.add_buf);
        let ok = self.add_clause_inner(lits, &mut clause);
        self.add_buf = clause;
        ok
    }

    fn add_clause_inner(&mut self, lits: &[Lit], clause: &mut Vec<Lit>) -> bool {
        debug_assert_eq!(self.decision_level(), 0, "clauses are added before solving");
        if self.unsat {
            return false;
        }
        // Simplify: drop duplicate and false literals, detect tautologies and
        // already-satisfied clauses.
        clause.clear();
        for &lit in lits {
            match self.value(lit) {
                Some(true) => return true,
                Some(false) => continue,
                None => {}
            }
            if clause.contains(&lit.negate()) {
                return true;
            }
            if !clause.contains(&lit) {
                clause.push(lit);
            }
        }
        match clause.len() {
            0 => {
                self.unsat = true;
                false
            }
            1 => {
                if !self.enqueue(clause[0], None) {
                    self.unsat = true;
                    return false;
                }
                if self.propagate().is_some() {
                    self.unsat = true;
                    return false;
                }
                true
            }
            _ => {
                self.attach_clause(clause);
                true
            }
        }
    }

    fn attach_clause(&mut self, lits: &[Lit]) -> ClauseRef {
        let w0 = lits[0].negate().code();
        let w1 = lits[1].negate().code();
        let cref = self.db.push(lits);
        self.watches[w0].push(cref);
        self.watches[w1].push(cref);
        cref
    }

    fn value(&self, lit: Lit) -> Option<bool> {
        self.assign[lit.var() as usize].map(|v| v ^ lit.is_neg())
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn enqueue(&mut self, lit: Lit, reason: Option<ClauseRef>) -> bool {
        match self.value(lit) {
            Some(true) => true,
            Some(false) => false,
            None => {
                let var = lit.var() as usize;
                self.assign[var] = Some(!lit.is_neg());
                self.level[var] = self.decision_level();
                self.reason[var] = reason;
                self.phase[var] = !lit.is_neg();
                self.trail.push(lit);
                true
            }
        }
    }

    fn propagate(&mut self) -> Option<ClauseRef> {
        while self.qhead < self.trail.len() {
            let lit = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            // Clauses watching ¬lit must be inspected.
            let false_lit = lit.negate();
            let mut watch_list = std::mem::take(&mut self.watches[lit.code()]);
            let mut i = 0;
            while i < watch_list.len() {
                let cref = watch_list[i];
                let head = self.db.heads[cref];
                let start = head.start as usize;
                // Ensure the false literal is in position 1.
                if self.db.lits[start] == false_lit {
                    self.db.lits.swap(start, start + 1);
                }
                if self.value(self.db.lits[start]) == Some(true) {
                    i += 1;
                    continue;
                }
                // Look for a replacement watch.
                let mut replaced = false;
                for k in 2..head.len as usize {
                    let candidate = self.db.lits[start + k];
                    if self.value(candidate) != Some(false) {
                        self.db.lits.swap(start + 1, start + k);
                        self.watches[candidate.negate().code()].push(cref);
                        watch_list.swap_remove(i);
                        replaced = true;
                        break;
                    }
                }
                if replaced {
                    continue;
                }
                // No replacement: the clause is unit or conflicting.
                let first = self.db.lits[start];
                if !self.enqueue(first, Some(cref)) {
                    // Conflict: restore the remaining watches and report.
                    self.watches[lit.code()] = watch_list;
                    self.qhead = self.trail.len();
                    return Some(cref);
                }
                i += 1;
            }
            self.watches[lit.code()] = watch_list;
        }
        None
    }

    fn bump_var(&mut self, var: Var) {
        self.activity[var as usize] += self.var_inc;
        if self.activity[var as usize] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
            self.order.rebuild(&self.activity);
        } else {
            self.order.increased(var, &self.activity);
        }
    }

    fn decay_activities(&mut self) {
        self.var_inc /= 0.95;
    }

    /// First-UIP conflict analysis. Fills `self.learned_buf` with the learned
    /// clause (asserting literal first) and returns the backjump level.
    fn analyze(&mut self, mut conflict: ClauseRef) -> u32 {
        let mut learned = std::mem::take(&mut self.learned_buf);
        learned.clear();
        learned.push(Lit::pos(0)); // placeholder for the asserting literal
        let mut counter = 0usize;
        let mut lit: Option<Lit> = None;
        let mut index = self.trail.len();

        loop {
            let head = self.db.heads[conflict];
            let start = head.start as usize;
            let skip = usize::from(lit.is_some());
            for j in skip..head.len as usize {
                let q = self.db.lits[start + j];
                let v = q.var() as usize;
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    self.bump_var(q.var());
                    if self.level[v] == self.decision_level() {
                        counter += 1;
                    } else {
                        learned.push(q);
                    }
                }
            }
            // Find the next literal on the trail to resolve on.
            loop {
                index -= 1;
                let p = self.trail[index];
                if self.seen[p.var() as usize] {
                    lit = Some(p);
                    break;
                }
            }
            let p = lit.expect("resolution literal");
            self.seen[p.var() as usize] = false;
            counter -= 1;
            if counter == 0 {
                learned[0] = p.negate();
                break;
            }
            conflict = self.reason[p.var() as usize].expect("non-decision has a reason");
        }

        for l in &learned[1..] {
            self.seen[l.var() as usize] = false;
        }

        // Backjump level: highest level among the non-asserting literals.
        let backtrack_level = learned[1..]
            .iter()
            .map(|l| self.level[l.var() as usize])
            .max()
            .unwrap_or(0);
        // Move a literal of the backjump level into watch position 1.
        if learned.len() > 1 {
            let (pos, _) = learned[1..]
                .iter()
                .enumerate()
                .max_by_key(|(_, l)| self.level[l.var() as usize])
                .expect("non-empty");
            learned.swap(1, pos + 1);
        }
        self.learned_buf = learned;
        backtrack_level
    }

    fn backtrack(&mut self, level: u32) {
        while self.decision_level() > level {
            let start = self.trail_lim.pop().expect("level > 0");
            for &lit in &self.trail[start..] {
                let var = lit.var() as usize;
                self.assign[var] = None;
                self.reason[var] = None;
                if !self.order.contains(lit.var()) {
                    self.order.insert(lit.var(), &self.activity);
                }
            }
            self.trail.truncate(start);
        }
        self.qhead = self.trail.len();
    }

    /// The unassigned variable of highest activity (ties to the larger
    /// index). Assigned variables popped on the way stay out of the heap
    /// until [`SatSolver::backtrack`] unassigns them.
    fn pick_branch_var(&mut self) -> Option<Var> {
        while let Some(var) = self.order.pop_max() {
            if self.assign[var as usize].is_none() {
                return Some(var);
            }
        }
        None
    }

    /// Solves the formula under the given budget.
    pub fn solve(&mut self, budget: &SatBudget) -> SatResult {
        self.stats = SatStats::default();
        if self.unsat {
            return SatResult::Unsat;
        }
        if self.propagate().is_some() {
            self.unsat = true;
            return SatResult::Unsat;
        }
        self.search(budget)
    }

    /// The CDCL loop, with geometric restarts every 100 × 1.5ⁿ conflicts.
    fn search(&mut self, budget: &SatBudget) -> SatResult {
        let mut restart_limit: u64 = 100;
        let mut conflicts_since_restart: u64 = 0;
        loop {
            if let Some(conflict) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts_since_restart += 1;
                if self.decision_level() == 0 {
                    self.unsat = true;
                    return SatResult::Unsat;
                }
                if self.stats.conflicts >= budget.max_conflicts {
                    return SatResult::Unknown;
                }
                let backtrack_level = self.analyze(conflict);
                self.backtrack(backtrack_level);
                let learned = std::mem::take(&mut self.learned_buf);
                if learned.len() == 1 {
                    if !self.enqueue(learned[0], None) {
                        self.learned_buf = learned;
                        self.unsat = true;
                        return SatResult::Unsat;
                    }
                } else {
                    let cref = self.attach_clause(&learned);
                    self.enqueue(learned[0], Some(cref));
                }
                self.learned_buf = learned;
                self.decay_activities();
            } else {
                if conflicts_since_restart >= restart_limit {
                    conflicts_since_restart = 0;
                    restart_limit += restart_limit / 2;
                    self.stats.restarts += 1;
                    self.backtrack(0);
                    continue;
                }
                match self.pick_branch_var() {
                    None => return SatResult::Sat,
                    Some(var) => {
                        self.stats.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        let lit = Lit::new(var, !self.phase[var as usize]);
                        self.enqueue(lit, None);
                    }
                }
            }
        }
    }

    /// Undoes every decision, returning the solver to decision level 0, after
    /// which more clauses can be added and the solver re-solved.
    pub fn reset_to_root(&mut self) {
        self.backtrack(0);
    }

    /// FNV-1a fingerprint of the solver's CNF at decision level 0: the
    /// variable count, the root-level implied trail, and every stored clause
    /// in insertion order. Two solvers with equal fingerprints hold
    /// literally the same instance and search identically under equal
    /// budgets; the blast-cache property tests use this to pin a
    /// memo-replayed blast to a fresh one.
    pub fn cnf_fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x100_0000_01b3;
        let mut hash = OFFSET;
        let mut fold = |value: u64| {
            for b in value.to_le_bytes() {
                hash ^= u64::from(b);
                hash = hash.wrapping_mul(PRIME);
            }
        };
        fold(self.num_vars() as u64);
        let root = self.trail_lim.first().copied().unwrap_or(self.trail.len());
        fold(root as u64);
        for &lit in &self.trail[..root] {
            fold(u64::from(lit.0));
        }
        fold(self.db.len() as u64);
        for head in &self.db.heads {
            fold(u64::from(head.len));
            let start = head.start as usize;
            for &lit in &self.db.lits[start..start + head.len as usize] {
                fold(u64::from(lit.0));
            }
        }
        hash
    }

    /// The value assigned to a variable by the last `Sat` result.
    pub fn model_value(&self, var: Var) -> bool {
        self.assign[var as usize].unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(v: i32) -> Lit {
        if v > 0 {
            Lit::pos((v - 1) as Var)
        } else {
            Lit::neg((-v - 1) as Var)
        }
    }

    fn solver_with_vars(n: usize) -> SatSolver {
        let mut s = SatSolver::new();
        for _ in 0..n {
            s.new_var();
        }
        s
    }

    #[test]
    fn literal_encoding() {
        let l = Lit::pos(3);
        assert_eq!(l.var(), 3);
        assert!(!l.is_neg());
        assert!(l.negate().is_neg());
        assert_eq!(l.negate().negate(), l);
    }

    #[test]
    fn trivially_sat_and_unsat() {
        let mut s = solver_with_vars(1);
        s.add_clause(&[lit(1)]);
        assert_eq!(s.solve(&SatBudget::default()), SatResult::Sat);
        assert!(s.model_value(0));

        let mut s = solver_with_vars(1);
        s.add_clause(&[lit(1)]);
        s.add_clause(&[lit(-1)]);
        assert_eq!(s.solve(&SatBudget::default()), SatResult::Unsat);
    }

    #[test]
    fn simple_implication_chain() {
        // (¬1 ∨ 2) ∧ (¬2 ∨ 3) ∧ 1 ∧ ¬3 is UNSAT.
        let mut s = solver_with_vars(3);
        s.add_clause(&[lit(-1), lit(2)]);
        s.add_clause(&[lit(-2), lit(3)]);
        s.add_clause(&[lit(1)]);
        s.add_clause(&[lit(-3)]);
        assert_eq!(s.solve(&SatBudget::default()), SatResult::Unsat);
    }

    #[test]
    fn satisfiable_3sat() {
        let mut s = solver_with_vars(4);
        s.add_clause(&[lit(1), lit(2), lit(3)]);
        s.add_clause(&[lit(-1), lit(2), lit(4)]);
        s.add_clause(&[lit(-2), lit(-3), lit(-4)]);
        s.add_clause(&[lit(1), lit(-2), lit(4)]);
        assert_eq!(s.solve(&SatBudget::default()), SatResult::Sat);
        // Verify the model satisfies every clause.
        let model: Vec<bool> = (0..4).map(|v| s.model_value(v)).collect();
        let eval = |l: Lit| model[l.var() as usize] ^ l.is_neg();
        for clause in [
            vec![lit(1), lit(2), lit(3)],
            vec![lit(-1), lit(2), lit(4)],
            vec![lit(-2), lit(-3), lit(-4)],
            vec![lit(1), lit(-2), lit(4)],
        ] {
            assert!(clause.iter().any(|&l| eval(l)));
        }
    }

    #[test]
    fn pigeonhole_three_pigeons_two_holes_is_unsat() {
        // Variables p_{i,j}: pigeon i in hole j. 3 pigeons, 2 holes.
        let mut s = solver_with_vars(6);
        let p = |i: usize, j: usize| lit((i * 2 + j + 1) as i32);
        // Every pigeon is in some hole.
        for i in 0..3 {
            s.add_clause(&[p(i, 0), p(i, 1)]);
        }
        // No two pigeons share a hole.
        for j in 0..2 {
            for i1 in 0..3 {
                for i2 in (i1 + 1)..3 {
                    s.add_clause(&[p(i1, j).negate(), p(i2, j).negate()]);
                }
            }
        }
        assert_eq!(s.solve(&SatBudget::default()), SatResult::Unsat);
    }

    #[test]
    fn budget_produces_unknown() {
        // A modest pigeonhole instance with an absurdly small conflict budget.
        let pigeons = 7usize;
        let holes = 6usize;
        let mut s = solver_with_vars(pigeons * holes);
        let p = |i: usize, j: usize| Lit::pos((i * holes + j) as Var);
        for i in 0..pigeons {
            let clause: Vec<Lit> = (0..holes).map(|j| p(i, j)).collect();
            s.add_clause(&clause);
        }
        for j in 0..holes {
            for i1 in 0..pigeons {
                for i2 in (i1 + 1)..pigeons {
                    s.add_clause(&[p(i1, j).negate(), p(i2, j).negate()]);
                }
            }
        }
        let result = s.solve(&SatBudget { max_conflicts: 5 });
        assert_eq!(result, SatResult::Unknown);
    }

    #[test]
    fn duplicate_and_tautological_clauses() {
        let mut s = solver_with_vars(2);
        // Tautology is dropped, duplicate literals collapse.
        assert!(s.add_clause(&[lit(1), lit(-1)]));
        assert!(s.add_clause(&[lit(2), lit(2)]));
        assert_eq!(s.solve(&SatBudget::default()), SatResult::Sat);
        assert!(s.model_value(1));
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut s = solver_with_vars(1);
        assert!(!s.add_clause(&[]));
        assert_eq!(s.solve(&SatBudget::default()), SatResult::Unsat);
    }

    #[test]
    fn cnf_fingerprint_tracks_instance_content() {
        let mut a = solver_with_vars(3);
        a.add_clause(&[lit(1), lit(2)]);
        a.add_clause(&[lit(-2), lit(3)]);
        let mut b = solver_with_vars(3);
        b.add_clause(&[lit(1), lit(2)]);
        b.add_clause(&[lit(-2), lit(3)]);
        assert_eq!(a.cnf_fingerprint(), b.cnf_fingerprint());
        b.add_clause(&[lit(-3)]);
        assert_ne!(a.cnf_fingerprint(), b.cnf_fingerprint());
    }

    #[test]
    fn stats_are_populated() {
        let mut s = solver_with_vars(3);
        s.add_clause(&[lit(1), lit(2)]);
        s.add_clause(&[lit(-1), lit(3)]);
        s.add_clause(&[lit(-2), lit(-3)]);
        assert_eq!(s.solve(&SatBudget::default()), SatResult::Sat);
        assert!(s.stats.decisions + s.stats.propagations > 0);
    }

    #[test]
    fn clause_and_root_unit_accessors_reflect_the_instance() {
        let mut s = solver_with_vars(3);
        s.add_clause(&[lit(1)]);
        s.add_clause(&[lit(-1), lit(2), lit(3)]);
        // The unit was absorbed into the root trail; the ternary clause was
        // simplified against it (¬1 dropped) and stored.
        let stored: Vec<Vec<Lit>> = s.clauses().map(|c| c.to_vec()).collect();
        assert_eq!(stored, vec![vec![lit(2), lit(3)]]);
        assert_eq!(s.root_units(), &[lit(1)]);
        assert!(!s.is_unsat());
    }

    /// Deterministic 3-CNF generator shared by the trajectory tests.
    fn random_cnf(seed: u64, num_vars: u64, num_clauses: usize) -> Vec<Vec<Lit>> {
        let mut state = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        (0..num_clauses)
            .map(|_| {
                (0..3)
                    .map(|_| Lit::new((next() % num_vars) as Var, next() % 2 == 1))
                    .collect()
            })
            .collect()
    }

    fn solver_for(num_vars: usize, clauses: &[Vec<Lit>]) -> SatSolver {
        let mut s = solver_with_vars(num_vars);
        for c in clauses {
            s.add_clause(c);
        }
        s
    }

    /// `(result, decisions, conflicts, propagations, restarts)` of a fresh
    /// solve of `random_cnf(seed, 60, 258)` under a 400-conflict budget, for
    /// seeds 0..40, as recorded with the lazy-deletion heap that preceded
    /// [`VarHeap`]. No instance reaches an activity rescale, so the indexed
    /// heap must reproduce every search exactly.
    const SMALL_TRAJECTORIES: [(SatResult, u64, u64, u64, u64); 40] = [
        (SatResult::Sat, 19, 7, 207, 0),
        (SatResult::Sat, 30, 17, 406, 0),
        (SatResult::Sat, 15, 1, 80, 0),
        (SatResult::Sat, 80, 68, 1192, 0),
        (SatResult::Unsat, 92, 78, 1355, 0),
        (SatResult::Sat, 117, 89, 1473, 0),
        (SatResult::Unsat, 42, 38, 626, 0),
        (SatResult::Sat, 90, 75, 1176, 0),
        (SatResult::Sat, 56, 46, 673, 0),
        (SatResult::Unsat, 59, 53, 830, 0),
        (SatResult::Unsat, 54, 48, 783, 0),
        (SatResult::Sat, 108, 84, 1436, 0),
        (SatResult::Unsat, 113, 91, 1416, 0),
        (SatResult::Unsat, 52, 43, 687, 0),
        (SatResult::Sat, 16, 4, 120, 0),
        (SatResult::Sat, 25, 9, 223, 0),
        (SatResult::Unsat, 89, 71, 1210, 0),
        (SatResult::Sat, 28, 12, 312, 0),
        (SatResult::Sat, 79, 40, 638, 0),
        (SatResult::Sat, 21, 6, 129, 0),
        (SatResult::Unsat, 48, 43, 689, 0),
        (SatResult::Unsat, 80, 71, 1202, 0),
        (SatResult::Unsat, 62, 56, 930, 0),
        (SatResult::Unsat, 63, 55, 835, 0),
        (SatResult::Sat, 59, 42, 618, 0),
        (SatResult::Sat, 59, 38, 604, 0),
        (SatResult::Sat, 37, 15, 304, 0),
        (SatResult::Unsat, 71, 56, 948, 0),
        (SatResult::Unsat, 88, 79, 1237, 0),
        (SatResult::Unsat, 65, 49, 838, 0),
        (SatResult::Unsat, 114, 94, 1688, 0),
        (SatResult::Sat, 31, 13, 230, 0),
        (SatResult::Unsat, 80, 70, 1135, 0),
        (SatResult::Sat, 39, 24, 472, 0),
        (SatResult::Sat, 25, 1, 73, 0),
        (SatResult::Unsat, 105, 86, 1350, 0),
        (SatResult::Unsat, 140, 119, 1787, 1),
        (SatResult::Sat, 28, 9, 216, 0),
        (SatResult::Unsat, 31, 25, 398, 0),
        (SatResult::Sat, 63, 45, 875, 0),
    ];

    /// The same record for `random_cnf(seed, 150, 640)` under a
    /// 3,000-conflict budget, seeds 0..8: longer searches with restarts,
    /// still below the ~4,430 conflicts a rescale needs.
    const LARGE_TRAJECTORIES: [(SatResult, u64, u64, u64, u64); 8] = [
        (SatResult::Sat, 2393, 1938, 61846, 5),
        (SatResult::Sat, 595, 475, 15397, 2),
        (SatResult::Sat, 2375, 1920, 59754, 5),
        (SatResult::Unsat, 2516, 2075, 64240, 5),
        (SatResult::Unsat, 3209, 2706, 82127, 6),
        (SatResult::Unsat, 2272, 1862, 54918, 5),
        (SatResult::Sat, 75, 29, 914, 0),
        (SatResult::Unsat, 734, 619, 17509, 3),
    ];

    fn trajectory(s: &SatSolver, result: SatResult) -> (SatResult, u64, u64, u64, u64) {
        let st = s.stats;
        (
            result,
            st.decisions,
            st.conflicts,
            st.propagations,
            st.restarts,
        )
    }

    #[test]
    fn search_trajectories_match_the_recorded_pins() {
        let families: [(u64, usize, u64, &[_]); 2] = [
            (60, 258, 400, &SMALL_TRAJECTORIES),
            (150, 640, 3_000, &LARGE_TRAJECTORIES),
        ];
        for (num_vars, num_clauses, budget, pins) in families {
            for (seed, &want) in pins.iter().enumerate() {
                let clauses = random_cnf(seed as u64, num_vars, num_clauses);
                let mut s = solver_for(num_vars as usize, &clauses);
                let got = s.solve(&SatBudget {
                    max_conflicts: budget,
                });
                assert_eq!(
                    trajectory(&s, got),
                    want,
                    "{} vars, seed {}",
                    num_vars,
                    seed
                );
                assert!(s.order.heap.len() <= s.num_vars());
            }
        }
    }

    /// Checks the heap's internal invariants: every key is its variable's
    /// current [`VarHeap::key`], `index` is the inverse of `heap`, and
    /// every parent orders before its children.
    fn assert_heap_consistent(h: &VarHeap, activity: &[f64]) {
        for (pos, &key) in h.heap.iter().enumerate() {
            let var = VarHeap::var(key);
            assert_eq!(key, VarHeap::key(activity, var));
            assert_eq!(h.index[var as usize], pos as u32);
            if pos > 0 {
                assert!(h.heap[(pos - 1) / 2] > key);
            }
        }
        let members = h.index.iter().filter(|&&i| i != ABSENT).count();
        assert_eq!(members, h.heap.len());
    }

    #[test]
    fn var_heap_pops_the_argmax_of_activity_then_index() {
        const N: usize = 40;
        for seed in 0..50u64 {
            let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
            let mut next = move |bound: u64| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state % bound
            };
            let mut activity = [0.0f64; N];
            let mut heap = VarHeap::default();
            let mut members = [false; N];
            for v in 0..N as Var {
                heap.push_var(v, &activity);
                members[v as usize] = true;
            }
            let mut pops = 0;
            let mut post_rescale_pops = 0;
            let mut rescaled = false;
            for _ in 0..2_000 {
                match next(10) {
                    // Bumps by small integers make equal activities common,
                    // so the tie rule is exercised constantly.
                    0..=3 => {
                        let v = next(N as u64) as Var;
                        activity[v as usize] += next(3) as f64;
                        heap.increased(v, &activity);
                    }
                    4..=6 => {
                        let want =
                            (0..N as Var)
                                .filter(|&v| members[v as usize])
                                .max_by(|&a, &b| {
                                    activity[a as usize]
                                        .partial_cmp(&activity[b as usize])
                                        .unwrap()
                                        .then(a.cmp(&b))
                                });
                        let got = heap.pop_max();
                        assert_eq!(got, want, "seed {}", seed);
                        if let Some(v) = got {
                            members[v as usize] = false;
                            pops += 1;
                            if rescaled {
                                post_rescale_pops += 1;
                            }
                        }
                    }
                    7 | 8 => {
                        let v = next(N as u64) as Var;
                        if !members[v as usize] {
                            heap.insert(v, &activity);
                            members[v as usize] = true;
                        }
                    }
                    _ => {
                        // A rescale as `bump_var` does it. Tiny activities
                        // underflow to equal values, so the rebuilt order
                        // must fall back to the tie rule.
                        if next(2) == 0 {
                            let v = next(N as u64) as usize;
                            activity[v] = 1e-250 * (1 + next(4)) as f64;
                        }
                        for a in &mut activity {
                            *a *= 1e-100;
                        }
                        heap.rebuild(&activity);
                        rescaled = true;
                    }
                }
                assert_heap_consistent(&heap, &activity);
                assert!(heap.heap.len() <= N);
            }
            assert!(pops > 100 && post_rescale_pops > 0, "seed {}", seed);
        }
    }

    #[test]
    fn a_rescale_mid_search_keeps_results_and_models_sound() {
        let budget = SatBudget::default();
        for seed in 0..40u64 {
            let clauses = random_cnf(seed, 60, 258);
            let mut plain = solver_for(60, &clauses);
            let want = plain.solve(&budget);
            // Start above the rescale threshold so the first bump rescales.
            let mut scaled = solver_for(60, &clauses);
            scaled.var_inc = 2e100;
            let got = scaled.solve(&budget);
            assert_eq!(got, want, "seed {}", seed);
            if scaled.stats.conflicts > 0 {
                assert!(scaled.var_inc < 1e99, "seed {}: no rescale", seed);
            }
            if got == SatResult::Sat {
                for c in &clauses {
                    let sat = c.iter().any(|&l| scaled.model_value(l.var()) ^ l.is_neg());
                    assert!(sat, "seed {}: model violates {:?}", seed, c);
                }
            }
        }
    }

    #[test]
    fn arena_accounting_is_live_bytes() {
        let mut s = solver_with_vars(3);
        assert_eq!(s.arena_bytes(), 0);
        s.add_clause(&[lit(1), lit(2), lit(3)]);
        let one = s.arena_bytes();
        assert!(one > 0);
        s.add_clause(&[lit(-1), lit(-2), lit(-3)]);
        assert!(s.arena_bytes() > one);
    }
}
