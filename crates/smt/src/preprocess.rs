//! SatELite-style CNF preprocessing.
//!
//! Bit-blasted bitvector formulas arrive at the SAT core with heavy Tseitin
//! scaffolding: thousands of auxiliary gate variables, long substitution
//! chains, and clauses that subsume one another. This module shrinks the
//! clause database once per query, before CDCL search, with the classic
//! NiVER/SatELite rule set:
//!
//! - **Unit propagation to fixpoint** at level 0 — forced literals are
//!   applied, satisfied clauses dropped, false literals stripped.
//! - **Pure-literal elimination** — a variable occurring in one polarity only
//!   is satisfied outright and its clauses removed.
//! - **Subsumption and self-subsuming resolution**, occurrence-list driven —
//!   a clause contained in another deletes the superset; a clause contained
//!   in another up to one flipped literal strengthens the superset by
//!   removing that literal.
//! - **Bounded variable elimination** — a variable is resolved away when the
//!   resolvent set is no larger than the clauses removed (clause-count rule),
//!   with occurrence and resolvent-length caps so elimination never blows up.
//!
//! Unit propagation, subsumption and strengthening are equivalence
//! preserving. Pure-literal elimination and variable elimination only
//! preserve *satisfiability*, so a **reconstruction stack** replays
//! eliminations in reverse to extend a satisfying assignment of the
//! simplified formula to one of the original
//! ([`Preprocessed::complete_model`]). The simplified formula is only sound
//! to solve as a whole: clauses or assumptions added later may name
//! eliminated variables, which is why incremental sessions do not
//! preprocess.

use crate::sat::{Lit, SatSolver, Var};

/// Counters from one [`preprocess`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PreprocessStats {
    /// Variables removed by pure-literal elimination or variable elimination.
    pub vars_eliminated: u64,
    /// Clauses deleted because another clause subsumes them.
    pub clauses_subsumed: u64,
    /// Literals removed from clauses by self-subsuming resolution.
    pub clauses_strengthened: u64,
    /// Clauses in the input (after tautology/duplicate intake cleanup).
    pub clauses_in: u64,
    /// Clauses in the simplified output.
    pub clauses_out: u64,
}

/// Cumulative preprocessing statistics for a [`crate::solver::Solver`],
/// aggregated across checks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimplifyStats {
    /// Variables eliminated by preprocessing (pure literals + resolution).
    pub vars_eliminated: u64,
    /// Clauses removed by subsumption.
    pub clauses_subsumed: u64,
    /// Literals removed by self-subsuming strengthening.
    pub clauses_strengthened: u64,
    /// High-water mark of the flat clause arena, in bytes.
    pub arena_bytes: u64,
    /// Total microseconds spent inside [`preprocess`].
    pub preprocess_micros: u64,
}

impl SimplifyStats {
    /// Folds another counter set in: sums everything except `arena_bytes`,
    /// which is a high-water mark and takes the max.
    pub fn absorb(&mut self, other: &SimplifyStats) {
        self.vars_eliminated += other.vars_eliminated;
        self.clauses_subsumed += other.clauses_subsumed;
        self.clauses_strengthened += other.clauses_strengthened;
        self.arena_bytes = self.arena_bytes.max(other.arena_bytes);
        self.preprocess_micros += other.preprocess_micros;
    }

    /// `true` when every counter is zero.
    pub fn is_zero(&self) -> bool {
        *self == SimplifyStats::default()
    }
}

/// One entry of the reconstruction stack. Steps are recorded in elimination
/// order and must be replayed in reverse to extend a model of the simplified
/// formula to the original variables.
#[derive(Debug, Clone)]
enum ReconstructStep {
    /// The literal was pure: setting it true satisfies every clause removed.
    Pure(Lit),
    /// The variable was resolved away; `saved` holds every original clause
    /// that mentioned it, for the standard witness recovery: default the
    /// variable false, flip to true iff some saved clause is otherwise
    /// unsatisfied (such a clause necessarily contains the positive literal).
    Eliminated { var: Var, saved: Vec<Vec<Lit>> },
}

/// The result of preprocessing: a simplified, equisatisfiable clause
/// database over the *same* variable numbering (no renumbering — blast-state
/// literals stay valid for reading models), plus everything needed to
/// rebuild models and solvers.
#[derive(Debug)]
pub struct Preprocessed {
    num_vars: usize,
    unsat: bool,
    units: Vec<Lit>,
    clauses: Vec<Vec<Lit>>,
    reconstruct: Vec<ReconstructStep>,
    /// Counters describing what the run removed.
    pub stats: PreprocessStats,
}

impl Preprocessed {
    /// Number of variables (identical to the input formula).
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// `true` if preprocessing already refuted the formula.
    pub fn is_unsat(&self) -> bool {
        self.unsat
    }

    /// The simplified clauses (each of length ≥ 2), in deterministic order.
    pub fn clauses(&self) -> &[Vec<Lit>] {
        &self.clauses
    }

    /// Literals fixed at the root (input units plus everything derived).
    pub fn units(&self) -> &[Lit] {
        &self.units
    }

    /// Builds a fresh solver holding the simplified formula, with the clause
    /// arena and watch lists pre-sized to their exact final occupancy.
    pub fn build_solver(&self) -> SatSolver {
        let mut sat = SatSolver::new();
        for _ in 0..self.num_vars {
            sat.new_var();
        }
        if self.unsat {
            sat.add_clause(&[]);
            return sat;
        }
        let total_lits: usize = self.clauses.iter().map(|c| c.len()).sum();
        sat.reserve_clauses(self.clauses.len(), total_lits);
        // Exact watch occupancy: every stored clause watches its first two
        // literals, and the units land on the trail, not in watch lists.
        let mut watch_counts = vec![0usize; 2 * self.num_vars];
        for c in &self.clauses {
            watch_counts[c[0].code()] += 1;
            watch_counts[c[1].code()] += 1;
        }
        for (code, &count) in watch_counts.iter().enumerate() {
            if count > 0 {
                let lit = Lit::new(code as Var >> 1, code & 1 == 1);
                sat.reserve_watch(lit, count);
            }
        }
        for &u in &self.units {
            sat.add_clause(&[u]);
        }
        for c in &self.clauses {
            sat.add_clause(c);
        }
        sat
    }

    /// Extends a satisfying assignment of the simplified formula (indexed by
    /// variable, `model.len() == num_vars`) to one of the original formula by
    /// applying the fixed units and replaying the reconstruction stack in
    /// reverse.
    pub fn complete_model(&self, model: &mut [bool]) {
        debug_assert_eq!(model.len(), self.num_vars);
        for &u in &self.units {
            model[u.var() as usize] = !u.is_neg();
        }
        for step in self.reconstruct.iter().rev() {
            match step {
                ReconstructStep::Pure(lit) => {
                    model[lit.var() as usize] = !lit.is_neg();
                }
                ReconstructStep::Eliminated { var, saved } => {
                    fn satisfied(model: &[bool], clause: &[Lit]) -> bool {
                        clause.iter().any(|l| model[l.var() as usize] ^ l.is_neg())
                    }
                    let v = *var as usize;
                    model[v] = false;
                    if saved.iter().any(|c| !satisfied(model, c)) {
                        model[v] = true;
                        debug_assert!(
                            saved.iter().all(|c| satisfied(model, c)),
                            "elimination witness must satisfy all saved clauses"
                        );
                    }
                }
            }
        }
    }
}

/// Subset-check budget: one unit per literal compared. Bounds the quadratic
/// tail of subsumption on pathological inputs.
const SUBSUME_BUDGET: u64 = 4_000_000;
/// A variable with more occurrences than this (per polarity) is never
/// considered for elimination.
const BVE_OCC_CAP: usize = 10;
/// Resolvents longer than this veto the elimination producing them.
const BVE_RESOLVENT_CAP: usize = 16;
/// Outer simplification rounds (each: propagate, subsume, pure, eliminate).
const MAX_ROUNDS: usize = 5;

struct PClause {
    lits: Vec<Lit>,
    deleted: bool,
    /// Bloom signature over variables (bit `var & 63`) for cheap
    /// not-a-subset rejection.
    sig: u64,
}

impl PClause {
    fn new(mut lits: Vec<Lit>) -> PClause {
        lits.sort_unstable();
        lits.dedup();
        let sig = signature(&lits);
        PClause {
            lits,
            deleted: false,
            sig,
        }
    }
}

fn signature(lits: &[Lit]) -> u64 {
    lits.iter().fold(0u64, |s, l| s | 1u64 << (l.var() & 63))
}

/// `true` if `small` ⊆ `big`; both must be sorted.
fn sorted_subset(small: &[Lit], big: &[Lit]) -> bool {
    let mut it = big.iter();
    'outer: for &l in small {
        for &b in it.by_ref() {
            match b.cmp(&l) {
                std::cmp::Ordering::Less => continue,
                std::cmp::Ordering::Equal => continue 'outer,
                std::cmp::Ordering::Greater => return false,
            }
        }
        return false;
    }
    true
}

struct Preprocessor {
    num_vars: usize,
    clauses: Vec<PClause>,
    occ: Vec<Vec<usize>>,
    assign: Vec<Option<bool>>,
    /// Variables removed by pure-literal elimination or resolution.
    gone: Vec<bool>,
    units: Vec<Lit>,
    unit_head: usize,
    sub_queue: Vec<usize>,
    in_sub_queue: Vec<bool>,
    reconstruct: Vec<ReconstructStep>,
    budget: u64,
    unsat: bool,
    stats: PreprocessStats,
}

impl Preprocessor {
    fn new(num_vars: usize) -> Preprocessor {
        Preprocessor {
            num_vars,
            clauses: Vec::new(),
            occ: vec![Vec::new(); 2 * num_vars],
            assign: vec![None; num_vars],
            gone: vec![false; num_vars],
            units: Vec::new(),
            unit_head: 0,
            sub_queue: Vec::new(),
            in_sub_queue: Vec::new(),
            reconstruct: Vec::new(),
            budget: SUBSUME_BUDGET,
            unsat: false,
            stats: PreprocessStats::default(),
        }
    }

    fn enqueue_unit(&mut self, lit: Lit) {
        let v = lit.var() as usize;
        match self.assign[v] {
            Some(value) if value != lit.is_neg() => {}
            Some(_) => self.unsat = true,
            None => {
                self.assign[v] = Some(!lit.is_neg());
                self.units.push(lit);
            }
        }
    }

    fn intake(&mut self, lits: &[Lit]) {
        if self.unsat {
            return;
        }
        let mut clause: Vec<Lit> = lits.to_vec();
        clause.sort_unstable();
        clause.dedup();
        // Tautology: both phases of some variable.
        if clause.windows(2).any(|w| w[0] == w[1].negate()) {
            return;
        }
        match clause.len() {
            0 => self.unsat = true,
            1 => self.enqueue_unit(clause[0]),
            _ => {
                let idx = self.clauses.len();
                for &l in &clause {
                    self.occ[l.code()].push(idx);
                }
                self.clauses.push(PClause::new(clause));
            }
        }
    }

    /// Live occurrence list of `lit`, compacting stale entries in place.
    fn live_occ(&mut self, lit: Lit) -> Vec<usize> {
        let mut list = std::mem::take(&mut self.occ[lit.code()]);
        list.retain(|&ci| {
            !self.clauses[ci].deleted && self.clauses[ci].lits.binary_search(&lit).is_ok()
        });
        self.occ[lit.code()] = list.clone();
        list
    }

    fn delete_clause(&mut self, ci: usize) {
        self.clauses[ci].deleted = true;
    }

    /// Removes `lit` from clause `ci` (which must contain it), handling the
    /// unit/empty outcomes.
    fn strengthen_clause(&mut self, ci: usize, lit: Lit) {
        let pos = self.clauses[ci]
            .lits
            .binary_search(&lit)
            .expect("strengthened literal present");
        self.clauses[ci].lits.remove(pos);
        self.clauses[ci].sig = signature(&self.clauses[ci].lits);
        match self.clauses[ci].lits.len() {
            0 => {
                self.unsat = true;
                self.delete_clause(ci);
            }
            1 => {
                let unit = self.clauses[ci].lits[0];
                self.enqueue_unit(unit);
                self.delete_clause(ci);
            }
            _ => self.queue_for_subsumption(ci),
        }
    }

    /// Applies pending units to fixpoint.
    fn propagate(&mut self) {
        while self.unit_head < self.units.len() {
            if self.unsat {
                return;
            }
            let lit = self.units[self.unit_head];
            self.unit_head += 1;
            for ci in self.live_occ(lit) {
                self.delete_clause(ci);
            }
            for ci in self.live_occ(lit.negate()) {
                self.strengthen_clause(ci, lit.negate());
            }
        }
    }

    fn queue_for_subsumption(&mut self, ci: usize) {
        if self.in_sub_queue.len() < self.clauses.len() {
            self.in_sub_queue.resize(self.clauses.len(), false);
        }
        if !self.in_sub_queue[ci] {
            self.in_sub_queue[ci] = true;
            self.sub_queue.push(ci);
        }
    }

    /// Backward subsumption and self-subsuming resolution, queue-driven.
    fn subsume(&mut self) -> bool {
        let mut changed = false;
        let mut head = 0;
        while head < self.sub_queue.len() {
            if self.unsat || self.budget == 0 {
                break;
            }
            let ci = self.sub_queue[head];
            head += 1;
            self.in_sub_queue[ci] = false;
            if self.clauses[ci].deleted {
                continue;
            }
            // Backward subsumption: scan the shortest occurrence list among
            // our literals for superset clauses.
            let c_len = self.clauses[ci].lits.len();
            let c_sig = self.clauses[ci].sig;
            let best = self.clauses[ci]
                .lits
                .iter()
                .copied()
                .min_by_key(|l| self.occ[l.code()].len())
                .expect("non-empty clause");
            for di in self.live_occ(best) {
                if di == ci || self.clauses[di].deleted {
                    continue;
                }
                if self.clauses[di].lits.len() < c_len || c_sig & !self.clauses[di].sig != 0 {
                    continue;
                }
                self.budget = self.budget.saturating_sub(c_len as u64);
                // Split-borrow via index juggling is noisier than a clone of
                // the (short) subsumer; clauses here are blast-sized.
                let c_lits = self.clauses[ci].lits.clone();
                if sorted_subset(&c_lits, &self.clauses[di].lits) {
                    self.delete_clause(di);
                    self.stats.clauses_subsumed += 1;
                    changed = true;
                }
            }
            // Self-subsuming resolution: for each literal l of C, a clause D
            // containing ¬l and the rest of C can drop ¬l.
            for k in 0..self.clauses[ci].lits.len() {
                if self.clauses[ci].deleted || self.budget == 0 {
                    break;
                }
                let l = self.clauses[ci].lits[k];
                for di in self.live_occ(l.negate()) {
                    if di == ci || self.clauses[di].deleted {
                        continue;
                    }
                    if self.clauses[di].lits.len() < c_len || c_sig & !self.clauses[di].sig != 0 {
                        continue;
                    }
                    self.budget = self.budget.saturating_sub(c_len as u64);
                    let mut flipped = self.clauses[ci].lits.clone();
                    flipped[k] = l.negate();
                    flipped.sort_unstable();
                    if sorted_subset(&flipped, &self.clauses[di].lits) {
                        self.strengthen_clause(di, l.negate());
                        self.stats.clauses_strengthened += 1;
                        changed = true;
                    }
                    if self.unsat {
                        return changed;
                    }
                }
            }
        }
        // Drain processed prefix.
        self.sub_queue.drain(..head.min(self.sub_queue.len()));
        changed
    }

    /// Pure-literal elimination.
    fn pure_literals(&mut self) -> bool {
        let mut changed = false;
        for v in 0..self.num_vars as Var {
            if self.unsat {
                return changed;
            }
            let vi = v as usize;
            if self.assign[vi].is_some() || self.gone[vi] {
                continue;
            }
            let pos = self.live_occ(Lit::pos(v)).len();
            let neg = self.live_occ(Lit::neg(v)).len();
            let pure = match (pos, neg) {
                (0, 0) => continue,
                (_, 0) => Lit::pos(v),
                (0, _) => Lit::neg(v),
                _ => continue,
            };
            for ci in self.live_occ(pure) {
                self.delete_clause(ci);
            }
            self.gone[vi] = true;
            self.reconstruct.push(ReconstructStep::Pure(pure));
            self.stats.vars_eliminated += 1;
            changed = true;
        }
        changed
    }

    /// Bounded variable elimination (clause-count rule with occurrence and
    /// resolvent-length caps).
    fn eliminate_vars(&mut self) -> bool {
        let mut changed = false;
        for v in 0..self.num_vars as Var {
            if self.unsat || self.budget == 0 {
                return changed;
            }
            let vi = v as usize;
            if self.assign[vi].is_some() || self.gone[vi] {
                continue;
            }
            let pos_occ = self.live_occ(Lit::pos(v));
            let neg_occ = self.live_occ(Lit::neg(v));
            if pos_occ.is_empty() || neg_occ.is_empty() {
                continue; // pure or absent; handled elsewhere
            }
            if pos_occ.len() > BVE_OCC_CAP || neg_occ.len() > BVE_OCC_CAP {
                continue;
            }
            let removed = pos_occ.len() + neg_occ.len();
            let mut resolvents: Vec<Vec<Lit>> = Vec::new();
            let mut abort = false;
            'pairs: for &pi in &pos_occ {
                for &ni in &neg_occ {
                    self.budget = self.budget.saturating_sub(
                        (self.clauses[pi].lits.len() + self.clauses[ni].lits.len()) as u64,
                    );
                    let mut res: Vec<Lit> = Vec::with_capacity(
                        self.clauses[pi].lits.len() + self.clauses[ni].lits.len() - 2,
                    );
                    res.extend(
                        self.clauses[pi]
                            .lits
                            .iter()
                            .copied()
                            .filter(|&l| l != Lit::pos(v)),
                    );
                    res.extend(
                        self.clauses[ni]
                            .lits
                            .iter()
                            .copied()
                            .filter(|&l| l != Lit::neg(v)),
                    );
                    res.sort_unstable();
                    res.dedup();
                    if res.windows(2).any(|w| w[0] == w[1].negate()) {
                        continue; // tautological resolvent
                    }
                    if res.len() > BVE_RESOLVENT_CAP {
                        abort = true;
                        break 'pairs;
                    }
                    resolvents.push(res);
                    if resolvents.len() > removed {
                        abort = true;
                        break 'pairs;
                    }
                }
            }
            if abort {
                continue;
            }
            // Commit: save the originals for reconstruction, delete them,
            // add the resolvents.
            let mut saved: Vec<Vec<Lit>> = Vec::with_capacity(removed);
            for &ci in pos_occ.iter().chain(neg_occ.iter()) {
                saved.push(self.clauses[ci].lits.clone());
                self.delete_clause(ci);
            }
            self.gone[vi] = true;
            self.reconstruct
                .push(ReconstructStep::Eliminated { var: v, saved });
            self.stats.vars_eliminated += 1;
            for res in resolvents {
                match res.len() {
                    0 => self.unsat = true,
                    1 => self.enqueue_unit(res[0]),
                    _ => {
                        let idx = self.clauses.len();
                        for &l in &res {
                            self.occ[l.code()].push(idx);
                        }
                        self.clauses.push(PClause::new(res));
                        self.queue_for_subsumption(idx);
                    }
                }
            }
            self.propagate();
            changed = true;
        }
        changed
    }

    fn run(mut self) -> Preprocessed {
        self.stats.clauses_in = self.clauses.len() as u64;
        self.propagate();
        for ci in 0..self.clauses.len() {
            if !self.clauses[ci].deleted {
                self.queue_for_subsumption(ci);
            }
        }
        for _ in 0..MAX_ROUNDS {
            if self.unsat || self.budget == 0 {
                break;
            }
            self.propagate();
            let mut changed = self.subsume();
            self.propagate();
            changed |= self.pure_literals();
            changed |= self.eliminate_vars();
            self.propagate();
            if !changed {
                break;
            }
        }
        let clauses: Vec<Vec<Lit>> = self
            .clauses
            .iter()
            .filter(|c| !c.deleted)
            .map(|c| c.lits.clone())
            .collect();
        self.stats.clauses_out = clauses.len() as u64;
        debug_assert!(
            clauses
                .iter()
                .flatten()
                .all(|l| !self.gone[l.var() as usize]),
            "eliminated variables must not occur in live clauses"
        );
        Preprocessed {
            num_vars: self.num_vars,
            unsat: self.unsat,
            units: if self.unsat { Vec::new() } else { self.units },
            clauses: if self.unsat { Vec::new() } else { clauses },
            reconstruct: self.reconstruct,
            stats: self.stats,
        }
    }
}

/// Preprocesses a CNF given as explicit clause slices plus already-known
/// root units.
pub fn preprocess<'a, I>(num_vars: usize, clauses: I, root_units: &[Lit]) -> Preprocessed
where
    I: IntoIterator<Item = &'a [Lit]>,
{
    let mut p = Preprocessor::new(num_vars);
    for &u in root_units {
        p.enqueue_unit(u);
    }
    for c in clauses {
        p.intake(c);
    }
    p.run()
}

/// Preprocesses the clause database of an existing solver (typically fresh
/// from bit-blasting, at decision level 0): its stored clauses plus its
/// root-implied trail.
pub fn preprocess_solver(sat: &SatSolver) -> Preprocessed {
    if sat.is_unsat() {
        let mut p = Preprocessor::new(sat.num_vars());
        p.unsat = true;
        return p.run();
    }
    preprocess(sat.num_vars(), sat.clauses(), sat.root_units())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sat::{SatBudget, SatResult};

    fn lit(v: i32) -> Lit {
        if v > 0 {
            Lit::pos((v - 1) as Var)
        } else {
            Lit::neg((-v - 1) as Var)
        }
    }

    fn solve_raw(num_vars: usize, clauses: &[Vec<Lit>]) -> (SatResult, SatSolver) {
        let mut s = SatSolver::new();
        for _ in 0..num_vars {
            s.new_var();
        }
        for c in clauses {
            s.add_clause(c);
        }
        let r = s.solve(&SatBudget::default());
        (r, s)
    }

    fn solve_preprocessed(pre: &Preprocessed) -> (SatResult, Vec<bool>) {
        let mut s = pre.build_solver();
        let r = s.solve(&SatBudget::default());
        let mut model: Vec<bool> = (0..pre.num_vars())
            .map(|v| s.model_value(v as Var))
            .collect();
        if r == SatResult::Sat {
            pre.complete_model(&mut model);
        }
        (r, model)
    }

    #[test]
    fn unit_propagation_reaches_fixpoint() {
        // 1, (¬1 ∨ 2), (¬2 ∨ 3) all collapse to units.
        let clauses = [vec![lit(1)], vec![lit(-1), lit(2)], vec![lit(-2), lit(3)]];
        let refs: Vec<&[Lit]> = clauses.iter().map(|c| c.as_slice()).collect();
        let pre = preprocess(3, refs, &[]);
        assert!(!pre.is_unsat());
        assert!(pre.clauses().is_empty());
        assert_eq!(pre.units().len(), 3);
    }

    #[test]
    fn contradictory_units_are_unsat() {
        let clauses = [vec![lit(1)], vec![lit(-1)]];
        let refs: Vec<&[Lit]> = clauses.iter().map(|c| c.as_slice()).collect();
        let pre = preprocess(1, refs, &[]);
        assert!(pre.is_unsat());
    }

    #[test]
    fn subsumption_deletes_supersets() {
        let clauses = [vec![lit(1), lit(2)], vec![lit(1), lit(2), lit(3)]];
        let refs: Vec<&[Lit]> = clauses.iter().map(|c| c.as_slice()).collect();
        let pre = preprocess(3, refs, &[]);
        assert_eq!(pre.stats.clauses_subsumed, 1);
    }

    #[test]
    fn self_subsumption_strengthens() {
        // (1 ∨ 2) strengthens (¬1 ∨ 2 ∨ 3) to (2 ∨ 3). Run the subsumption
        // pass alone: the pure-literal rule would delete both clauses next.
        let mut p = Preprocessor::new(3);
        p.intake(&[lit(1), lit(2)]);
        p.intake(&[lit(-1), lit(2), lit(3)]);
        p.queue_for_subsumption(0);
        p.queue_for_subsumption(1);
        assert!(p.subsume());
        assert_eq!(p.stats.clauses_strengthened, 1);
        assert_eq!(p.clauses[1].lits, vec![lit(2), lit(3)]);
    }

    #[test]
    fn pure_literal_elimination_records_reconstruction() {
        // Variable 1 occurs only positively, and the pure-literal rule
        // visits it first.
        let clauses = [vec![lit(1), lit(2)], vec![lit(1), lit(-3)]];
        let refs: Vec<&[Lit]> = clauses.iter().map(|c| c.as_slice()).collect();
        let pre = preprocess(3, refs, &[]);
        assert!(pre.stats.vars_eliminated >= 1);
        let (r, model) = solve_preprocessed(&pre);
        assert_eq!(r, SatResult::Sat);
        assert!(model[0], "pure literal must be set true by reconstruction");
    }

    #[test]
    fn variable_elimination_preserves_models() {
        // v0 is a Tseitin-style definition: (¬1 ∨ 2), (¬1 ∨ 3), (1 ∨ ¬2 ∨ ¬3)
        // — eliminating 1 yields (2 ∨ ¬2 ∨ ¬3)… i.e. mostly tautologies.
        let clauses = vec![
            vec![lit(-1), lit(2)],
            vec![lit(-1), lit(3)],
            vec![lit(1), lit(-2), lit(-3)],
            vec![lit(2), lit(3)],
        ];
        let (want, _) = solve_raw(3, &clauses);
        let refs: Vec<&[Lit]> = clauses.iter().map(|c| c.as_slice()).collect();
        let pre = preprocess(3, refs, &[]);
        let (got, model) = solve_preprocessed(&pre);
        assert_eq!(got, want);
        assert_eq!(got, SatResult::Sat);
        let eval = |l: Lit| model[l.var() as usize] ^ l.is_neg();
        for c in &clauses {
            assert!(c.iter().any(|&l| eval(l)));
        }
    }

    /// Deterministic LCG for the property tests.
    fn rng(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        }
    }

    fn random_cnf(seed: u64, num_vars: u64, num_clauses: usize, width: usize) -> Vec<Vec<Lit>> {
        let mut next = rng(seed);
        (0..num_clauses)
            .map(|_| {
                (0..width)
                    .map(|_| Lit::new((next() % num_vars) as Var, next() % 2 == 1))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn property_preprocessed_and_raw_formulas_agree() {
        // Satellite (a) + (b): verdict agreement on random CNFs across the
        // SAT/UNSAT phase transition, and reconstructed models satisfy the
        // ORIGINAL clauses.
        for seed in 0..60u64 {
            let num_vars = 8 + (seed % 5) as usize;
            let num_clauses = 3 * num_vars + (seed % 17) as usize;
            let width = 2 + (seed % 3) as usize;
            let clauses = random_cnf(seed, num_vars as u64, num_clauses, width);
            let (want, _) = solve_raw(num_vars, &clauses);
            let refs: Vec<&[Lit]> = clauses.iter().map(|c| c.as_slice()).collect();
            let pre = preprocess(num_vars, refs, &[]);
            let (got, model) = solve_preprocessed(&pre);
            assert_eq!(got, want, "seed {}", seed);
            if got == SatResult::Sat {
                let eval = |l: Lit| model[l.var() as usize] ^ l.is_neg();
                for (i, c) in clauses.iter().enumerate() {
                    assert!(
                        c.iter().any(|&l| eval(l)),
                        "seed {} clause {} unsatisfied by reconstructed model",
                        seed,
                        i
                    );
                }
            }
        }
    }

    #[test]
    fn preprocess_solver_lifts_the_clause_database() {
        let mut sat = SatSolver::new();
        for _ in 0..4 {
            sat.new_var();
        }
        sat.add_clause(&[lit(1)]);
        sat.add_clause(&[lit(-1), lit(2), lit(3)]);
        sat.add_clause(&[lit(2), lit(3), lit(4)]);
        let pre = preprocess_solver(&sat);
        assert!(!pre.is_unsat());
        // The root unit carries over; (2∨3) subsumes (2∨3∨4).
        assert!(pre.units().contains(&lit(1)));
        let (r, _) = solve_preprocessed(&pre);
        assert_eq!(r, SatResult::Sat);
    }

    #[test]
    fn shrinkage_on_tseitin_like_chains() {
        // A substitution chain: x0 ↔ x1 ↔ … ↔ xN with a forced head. The
        // equivalence-preserving rules alone collapse everything to units.
        let n = 30;
        let mut clauses: Vec<Vec<Lit>> = Vec::new();
        for i in 0..n {
            let a = Lit::pos(i as Var);
            let b = Lit::pos((i + 1) as Var);
            clauses.push(vec![a.negate(), b]);
            clauses.push(vec![a, b.negate()]);
        }
        clauses.push(vec![Lit::pos(0)]);
        let refs: Vec<&[Lit]> = clauses.iter().map(|c| c.as_slice()).collect();
        let pre = preprocess(n + 1, refs, &[]);
        assert!(pre.clauses().is_empty(), "chain should fully collapse");
        assert_eq!(pre.units().len(), n + 1);
        let (r, model) = solve_preprocessed(&pre);
        assert_eq!(r, SatResult::Sat);
        assert!(model.iter().all(|&b| b));
    }
}
