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
//! A budget stop is a *pause*, not an abort. The search state that one
//! call used to keep in locals — the restart schedule and the conflict at
//! which the budget ran out, found and counted but not yet analysed — lives
//! on the solver, and [`SatSolver::resume`] continues from exactly that
//! point under a larger budget. Conflicts already spent count against the
//! new budget and [`SatSolver::stats`] keeps accumulating, so a resumed
//! search returns what a fresh solve with the larger budget returns: the
//! same result, model, and decision/conflict/propagation counts. Only
//! assumption-free solves pause; a fresh solve, `add_clause`, `new_var` or
//! `reset_to_root` discards the pause. [`SatSolver::encode_instance`] is
//! the exact pre-search identity a caller compares before resuming a pause
//! for a rebuilt instance (MiniSat-style reusable solver state, Eén &
//! Sörensson, SAT'03).

use std::collections::BinaryHeap;

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
    heap: BinaryHeap<(OrderedActivity, Var)>,
    phase: Vec<bool>,
    /// Set when an empty clause has been added; the instance is trivially UNSAT.
    unsat: bool,
    /// Statistics of the most recent search: reset by every solve,
    /// accumulated across [`SatSolver::resume`] calls.
    pub stats: SatStats,
    seen: Vec<bool>,
    // Reusable scratch buffers: the hot paths (clause intake, conflict
    // analysis) stay allocation-free once their capacities are warm.
    add_buf: Vec<Lit>,
    learned_buf: Vec<Lit>,
    // Search state that outlives one call, so a budget stop is a pause:
    // the geometric restart schedule, and the conflict at which the budget
    // ran out (found and counted, not yet analysed). See [`SatSolver::resume`].
    restart_limit: u64,
    conflicts_since_restart: u64,
    paused: Option<ClauseRef>,
}

/// f64 wrapper with a total order for the activity heap.
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrderedActivity(f64);

impl Eq for OrderedActivity {}
impl PartialOrd for OrderedActivity {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrderedActivity {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0
            .partial_cmp(&other.0)
            .unwrap_or(std::cmp::Ordering::Equal)
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
    /// up front (e.g. a preprocessed rebuild) so the propagation loop starts
    /// with watch lists at their final occupancy.
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

    /// Allocates a fresh variable and returns it. Discards a paused search.
    pub fn new_var(&mut self) -> Var {
        self.discard_pause();
        let var = self.assign.len() as Var;
        self.assign.push(None);
        self.level.push(0);
        self.reason.push(None);
        self.activity.push(0.0);
        self.phase.push(false);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.heap.push((OrderedActivity(0.0), var));
        var
    }

    /// Adds a clause. Returns `false` if the clause is trivially unsatisfiable
    /// at level 0 (the instance becomes UNSAT). Discards a paused search.
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        self.discard_pause();
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
        }
        self.heap
            .push((OrderedActivity(self.activity[var as usize]), var));
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
                self.heap
                    .push((OrderedActivity(self.activity[var]), lit.var()));
            }
            self.trail.truncate(start);
        }
        self.qhead = self.trail.len();
    }

    fn pick_branch_var(&mut self) -> Option<Var> {
        // Lazy-deletion max-heap: entries may carry stale (older, lower)
        // activities. Picking a var through a stale entry is a slightly
        // suboptimal but perfectly sound decision, so any unassigned pop wins.
        while let Some((_, var)) = self.heap.pop() {
            if self.assign[var as usize].is_none() {
                return Some(var);
            }
        }
        // Heap exhausted (all entries consumed): fall back to a linear scan.
        (0..self.num_vars() as Var).find(|&v| self.assign[v as usize].is_none())
    }

    /// Solves the formula under the given budget.
    pub fn solve(&mut self, budget: &SatBudget) -> SatResult {
        self.solve_with_assumptions(budget, &[])
    }

    /// Solves the formula under the given budget with a prefix of *assumption*
    /// literals decided before any free decision (MiniSat's
    /// `solve(assumptions)`).
    ///
    /// `Unsat` means the clause set is unsatisfiable *together with the
    /// assumptions*; only a conflict at decision level 0 marks the instance
    /// permanently unsatisfiable. Learned clauses never mention assumption
    /// literals as facts (assumptions are decisions, not units), so the
    /// solver stays reusable afterwards: call [`SatSolver::reset_to_root`]
    /// to drop the assumption decisions, add more clauses, and solve again
    /// under a different assumption set. This is the retraction mechanism
    /// behind the incremental per-scalar pathway in
    /// [`crate::solver::Solver`]: per-candidate assertions are guarded by an
    /// activation literal passed here, and "pop" is an unconditional unit
    /// clause asserting its negation.
    pub fn solve_with_assumptions(&mut self, budget: &SatBudget, assumptions: &[Lit]) -> SatResult {
        self.discard_pause();
        self.stats = SatStats::default();
        self.restart_limit = 100;
        self.conflicts_since_restart = 0;
        if self.unsat {
            return SatResult::Unsat;
        }
        if self.propagate().is_some() {
            self.unsat = true;
            return SatResult::Unsat;
        }
        self.search(budget, assumptions, None)
    }

    /// Continues the search paused by the last budget stop under a larger
    /// `budget`.
    ///
    /// The conflicts already spent count against `budget`, and
    /// [`SatSolver::stats`] keeps accumulating, so `solve(b1)` → `Unknown`
    /// → `resume(b2)` returns exactly what a fresh `solve(b2)` on the same
    /// instance returns: the same result, the same model, and the same
    /// decision, conflict and propagation counts. A budget at or below the
    /// conflicts already spent stays `Unknown` (and stays paused).
    ///
    /// Only an assumption-free solve pauses; any solve, [`SatSolver::add_clause`],
    /// [`SatSolver::new_var`] or [`SatSolver::reset_to_root`] discards the
    /// pause. Without one, this is [`SatSolver::solve`].
    pub fn resume(&mut self, budget: &SatBudget) -> SatResult {
        match self.paused.take() {
            Some(conflict) => self.search(budget, &[], Some(conflict)),
            None => self.solve(budget),
        }
    }

    /// Drops a paused search, returning to decision level 0.
    fn discard_pause(&mut self) {
        if self.paused.take().is_some() {
            self.backtrack(0);
        }
    }

    /// The CDCL loop. `pending` is a conflict already found and counted
    /// before a budget stop; it is analysed first.
    fn search(
        &mut self,
        budget: &SatBudget,
        assumptions: &[Lit],
        mut pending: Option<ClauseRef>,
    ) -> SatResult {
        loop {
            let resumed = pending.take();
            if let Some(conflict) = resumed.or_else(|| self.propagate()) {
                if resumed.is_none() {
                    self.stats.conflicts += 1;
                    self.conflicts_since_restart += 1;
                    if self.decision_level() == 0 {
                        self.unsat = true;
                        return SatResult::Unsat;
                    }
                    if self.decision_level() as usize <= assumptions.len() {
                        // Every decision below this level is an assumption,
                        // so the conflicting assignment is implied by the
                        // clause set plus the assumption prefix: UNSAT under
                        // assumptions (but not globally).
                        self.backtrack(0);
                        return SatResult::Unsat;
                    }
                }
                if self.stats.conflicts >= budget.max_conflicts {
                    if assumptions.is_empty() {
                        self.paused = Some(conflict);
                    }
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
                if self.conflicts_since_restart >= self.restart_limit {
                    self.conflicts_since_restart = 0;
                    self.restart_limit += self.restart_limit / 2;
                    self.stats.restarts += 1;
                    self.backtrack(0);
                    continue;
                }
                let level = self.decision_level() as usize;
                if level < assumptions.len() {
                    // Install the next assumption as this level's decision.
                    // An already-true assumption still opens an (empty)
                    // decision level so level k always means "assumptions
                    // 0..k are in force".
                    let p = assumptions[level];
                    match self.value(p) {
                        Some(true) => self.trail_lim.push(self.trail.len()),
                        Some(false) => {
                            self.backtrack(0);
                            return SatResult::Unsat;
                        }
                        None => {
                            self.stats.decisions += 1;
                            self.trail_lim.push(self.trail.len());
                            self.enqueue(p, None);
                        }
                    }
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

    /// Undoes every decision (assumptions included), returning the solver to
    /// decision level 0 — the "pop" after an assumption-based query, after
    /// which more clauses can be added and the solver re-solved. Discards a
    /// paused search.
    pub fn reset_to_root(&mut self) {
        self.paused = None;
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

    /// Writes the solver's pre-search state into `out`, replacing its
    /// contents: the variable count, the root-level trail, every stored
    /// clause in insertion order (literals in stored order), and every watch
    /// list in order. Search from level 0 is a deterministic function of
    /// exactly this state, so two solvers with equal images (compared with
    /// `==`, never by hash) search identically under equal budgets. Must be
    /// called at decision level 0 before any search.
    pub fn encode_instance(&self, out: &mut Vec<u32>) {
        debug_assert_eq!(self.decision_level(), 0);
        out.clear();
        out.reserve(
            5 + self.trail.len()
                + self.db.heads.len() * 3
                + self.db.lits.len()
                + self.watches.len(),
        );
        out.push(self.num_vars() as u32);
        out.push(u32::from(self.unsat));
        out.push(self.qhead as u32);
        out.push(self.trail.len() as u32);
        out.extend(self.trail.iter().map(|lit| lit.0));
        out.push(self.db.len() as u32);
        for head in &self.db.heads {
            out.push(head.len);
            let start = head.start as usize;
            out.extend(
                self.db.lits[start..start + head.len as usize]
                    .iter()
                    .map(|lit| lit.0),
            );
        }
        for watch in &self.watches {
            out.push(watch.len() as u32);
            out.extend(watch.iter().map(|&cref| cref as u32));
        }
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
    fn assumptions_restrict_without_committing() {
        // (1 ∨ 2) with assumption ¬1 forces 2; with assumption ¬2 forces 1;
        // the instance itself stays satisfiable throughout.
        let mut s = solver_with_vars(2);
        s.add_clause(&[lit(1), lit(2)]);
        assert_eq!(
            s.solve_with_assumptions(&SatBudget::default(), &[lit(-1)]),
            SatResult::Sat
        );
        assert!(!s.model_value(0));
        assert!(s.model_value(1));
        s.reset_to_root();
        assert_eq!(
            s.solve_with_assumptions(&SatBudget::default(), &[lit(-2)]),
            SatResult::Sat
        );
        assert!(s.model_value(0));
        s.reset_to_root();
        // Contradictory assumptions: UNSAT under assumptions only.
        assert_eq!(
            s.solve_with_assumptions(&SatBudget::default(), &[lit(-1), lit(-2)]),
            SatResult::Unsat
        );
        s.reset_to_root();
        // The instance is still satisfiable afterwards.
        assert_eq!(s.solve(&SatBudget::default()), SatResult::Sat);
    }

    #[test]
    fn activation_literal_retracts_a_clause_group() {
        // The activation-literal protocol of the incremental solver: guard
        // clause (¬act ∨ c), solve under [act], retire with unit ¬act.
        let mut s = solver_with_vars(2);
        let act = Lit::pos(s.new_var());
        let c = lit(1);
        s.add_clause(&[act.negate(), c]);
        s.add_clause(&[act.negate(), lit(-1)]); // guarded contradiction
        assert_eq!(
            s.solve_with_assumptions(&SatBudget::default(), &[act]),
            SatResult::Unsat
        );
        s.reset_to_root();
        s.add_clause(&[act.negate()]); // pop: the guarded group goes inert
        let act2 = Lit::pos(s.new_var());
        s.add_clause(&[act2.negate(), lit(2)]);
        assert_eq!(
            s.solve_with_assumptions(&SatBudget::default(), &[act2]),
            SatResult::Sat
        );
        assert!(s.model_value(1));
        s.reset_to_root();
    }

    #[test]
    fn assumption_solve_matches_fresh_solve_on_units() {
        // Solving with assumption `a` must agree with a fresh solver where
        // `a` is a unit clause, over a small family of instances.
        for seed in 0..20u64 {
            let mut state = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let mut next = move || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                state >> 33
            };
            let n = 6;
            let mut clauses: Vec<Vec<Lit>> = Vec::new();
            for _ in 0..12 {
                let mut clause = Vec::new();
                for _ in 0..3 {
                    let v = (next() % n) as Var;
                    clause.push(Lit::new(v, next() % 2 == 1));
                }
                clauses.push(clause);
            }
            let assumption = Lit::new((next() % n) as Var, next() % 2 == 1);

            let mut fresh = solver_with_vars(n as usize);
            for c in &clauses {
                fresh.add_clause(c);
            }
            fresh.add_clause(&[assumption]);
            let want = fresh.solve(&SatBudget::default());

            let mut inc = solver_with_vars(n as usize);
            for c in &clauses {
                inc.add_clause(c);
            }
            let got = inc.solve_with_assumptions(&SatBudget::default(), &[assumption]);
            assert_eq!(got, want, "seed {}", seed);
        }
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

    /// Deterministic 3-CNF generator shared by the resume tests.
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

    /// Everything a search leaves observable: result, model, statistics.
    fn outcome(s: &SatSolver, result: SatResult) -> (SatResult, Vec<bool>, SatStats) {
        let model = (0..s.num_vars() as Var).map(|v| s.model_value(v)).collect();
        (result, model, s.stats)
    }

    fn solver_for(num_vars: usize, clauses: &[Vec<Lit>]) -> SatSolver {
        let mut s = solver_with_vars(num_vars);
        for c in clauses {
            s.add_clause(c);
        }
        s
    }

    #[test]
    fn resume_equals_a_fresh_solve_with_the_final_budget() {
        let (b1, b2, b3) = (20, 90, 400);
        let mut resumed_to_a_conclusion = 0;
        for seed in 0..40u64 {
            // Just above the 3-SAT phase transition: a mix of SAT and UNSAT
            // instances needing tens to hundreds of conflicts.
            let clauses = random_cnf(seed, 60, 258);
            let mut fresh = solver_for(60, &clauses);
            let want = fresh.solve(&SatBudget { max_conflicts: b3 });
            let want = outcome(&fresh, want);

            let mut stepped = solver_for(60, &clauses);
            let mut got = stepped.solve(&SatBudget { max_conflicts: b1 });
            let first = got;
            for budget in [b2, b3] {
                if got == SatResult::Unknown {
                    assert!(stepped.paused.is_some(), "seed {}", seed);
                    got = stepped.resume(&SatBudget {
                        max_conflicts: budget,
                    });
                }
            }
            assert_eq!(outcome(&stepped, got), want, "seed {}", seed);
            if first == SatResult::Unknown && got != SatResult::Unknown {
                resumed_to_a_conclusion += 1;
            }
        }
        assert!(
            resumed_to_a_conclusion >= 5,
            "too few instances exercise a resume: {}",
            resumed_to_a_conclusion
        );
    }

    #[test]
    fn resume_within_the_spent_budget_stays_unknown() {
        let clauses = random_cnf(3, 60, 258);
        let mut s = solver_for(60, &clauses);
        assert_eq!(
            s.solve(&SatBudget { max_conflicts: 10 }),
            SatResult::Unknown
        );
        let spent = s.stats;
        for budget in [1, 9, 10] {
            let result = s.resume(&SatBudget {
                max_conflicts: budget,
            });
            assert_eq!(result, SatResult::Unknown);
            assert!(s.paused.is_some());
            assert_eq!(s.stats, spent, "a no-op resume spends nothing");
        }
        let mut fresh = solver_for(60, &clauses);
        let want = fresh.solve(&SatBudget { max_conflicts: 300 });
        let got = s.resume(&SatBudget { max_conflicts: 300 });
        assert_eq!(outcome(&s, got), outcome(&fresh, want));
    }

    #[test]
    fn instance_image_separates_every_small_difference() {
        let base = random_cnf(11, 20, 60);
        let image = |num_vars: usize, clauses: &[Vec<Lit>], unit: Option<Lit>| {
            let mut s = solver_for(num_vars, clauses);
            if let Some(unit) = unit {
                s.add_clause(&[unit]);
            }
            let mut out = Vec::new();
            s.encode_instance(&mut out);
            out
        };
        let reference = image(20, &base, Some(lit(1)));
        assert_eq!(reference, image(20, &base, Some(lit(1))));

        let mut flipped = base.clone();
        flipped[7][1] = flipped[7][1].negate();
        let mut missing = base.clone();
        missing.remove(30);
        let mut extra = base.clone();
        extra.push(vec![lit(2), lit(-3), lit(4)]);
        let mut reordered = base.clone();
        reordered[12].rotate_left(1);
        assert_ne!(reordered[12], base[12]);
        let variants = [
            ("flipped literal", image(20, &flipped, Some(lit(1)))),
            ("missing clause", image(20, &missing, Some(lit(1)))),
            ("extra clause", image(20, &extra, Some(lit(1)))),
            ("reordered literals", image(20, &reordered, Some(lit(1)))),
            ("variable count", image(21, &base, Some(lit(1)))),
            ("root unit", image(20, &base, Some(lit(-1)))),
        ];
        for (what, variant) in variants {
            assert_ne!(variant, reference, "{}", what);
        }
    }

    #[test]
    fn add_clause_or_reset_after_a_pause_falls_back_to_a_fresh_solve() {
        let clauses = random_cnf(5, 60, 258);
        let extra = [lit(1), lit(2), lit(3)];
        // After either call, `resume` must behave as `solve` on the same
        // solver history: stats restart from zero, nothing is continued.
        for add in [true, false] {
            let mut a = solver_for(60, &clauses);
            let mut b = solver_for(60, &clauses);
            for s in [&mut a, &mut b] {
                assert_eq!(
                    s.solve(&SatBudget { max_conflicts: 15 }),
                    SatResult::Unknown
                );
                if add {
                    assert!(s.add_clause(&extra));
                } else {
                    s.reset_to_root();
                }
                assert!(s.paused.is_none());
            }
            let budget = SatBudget { max_conflicts: 400 };
            let got = a.resume(&budget);
            let want = b.solve(&budget);
            assert_eq!(outcome(&a, got), outcome(&b, want), "add_clause: {}", add);
        }
    }

    #[test]
    fn assumption_solves_never_pause() {
        let clauses = random_cnf(3, 60, 258);
        let mut s = solver_for(60, &clauses);
        let result = s.solve_with_assumptions(&SatBudget { max_conflicts: 5 }, &[lit(4)]);
        assert_eq!(result, SatResult::Unknown);
        assert!(s.paused.is_none());
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
