//! A compact CDCL SAT solver.
//!
//! This is the decision-procedure core underneath the bit-vector layer: a
//! conflict-driven clause-learning solver with two-literal watching, 1UIP
//! conflict analysis, VSIDS-style variable activity, phase saving, and Luby
//! restarts. It supports incremental solving under *assumptions*, which is how
//! the symbolic execution engine asks "is this path condition still feasible?"
//! thousands of times while sharing all learned clauses across queries
//! (the paper's use of Z3's incremental mode, §3.1.2).
//!
//! ## Cost model
//!
//! One exploration keeps one solver, and its instance only grows: every
//! blasted term stays. A "SAT" answer must assign every variable blasted so
//! far, so even a query with no conflict costs one propagation per variable.
//! `idiv m32` (`f7 7f 00`) grows to 68,313 variables and about 282k clauses,
//! where a zero-conflict path-end model query propagates about 68k literals.
//! Searches are short (the E3 sweep's 3,986 queries meet 9,622 conflicts in
//! all), so propagation and heap steps are the cost, and the data structures
//! are laid out for them:
//!
//! - **Clause arena.** Every clause lives in one `Vec<u32>`: a length word,
//!   then its literal codes. A clause is named by the offset of its length
//!   word (MiniSat's layout), so watches and reasons hold 32-bit offsets, a
//!   visit touches one contiguous run of memory, and no clause has an
//!   allocation of its own.
//! - **Value table.** Assignment values are indexed by [`Lit`] code, two
//!   entries per variable, so a literal's value is one load with no sign
//!   branch.
//! - **Decision heap.** Each heap entry carries a copy of its variable's
//!   activity, so comparisons read the heap's own memory. A bump refreshes
//!   the copy, and a rescale multiplies the copies by the same factor as the
//!   activity table, so a copy always equals the table. Sifts move a hole
//!   rather than swapping, which writes each passed entry once and leaves
//!   the layout pairwise swaps would.
//!
//! ## Exactness contract
//!
//! Lifted tests depend on *which* model each query returns, not only on the
//! verdict, and every query leaves state to the next: watch-list order, heap
//! order, learned clauses, activities and saved phases. A change here must
//! keep the search exactly the same (literal order and swaps inside clauses,
//! watch-list order, heap operations and tie-breaks, every floating-point
//! operation) or regenerate everything that depends on solver models.
//! `tests/search_fingerprint.rs` pins the search query for query.

/// A propositional variable, identified by index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SatVar(pub u32);

/// A literal: a variable with a polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(u32);

impl Lit {
    /// The positive literal of `v`.
    pub fn pos(v: SatVar) -> Lit {
        Lit(v.0 << 1)
    }

    /// The negative literal of `v`.
    pub fn neg(v: SatVar) -> Lit {
        Lit((v.0 << 1) | 1)
    }

    /// Builds a literal from a variable and a sign (`true` = positive).
    pub fn new(v: SatVar, positive: bool) -> Lit {
        if positive {
            Lit::pos(v)
        } else {
            Lit::neg(v)
        }
    }

    /// The underlying variable.
    pub fn var(self) -> SatVar {
        SatVar(self.0 >> 1)
    }

    /// `true` when this is the positive literal.
    pub fn is_pos(self) -> bool {
        self.0 & 1 == 0
    }

    /// The complementary literal.
    #[must_use]
    pub fn negate(self) -> Lit {
        Lit(self.0 ^ 1)
    }

    fn code(self) -> usize {
        self.0 as usize
    }
}

/// Three-valued assignment state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LBool {
    True,
    False,
    Undef,
}

/// Outcome of a [`Sat::solve`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SatResult {
    /// A satisfying assignment was found; read it with [`Sat::model_value`].
    Sat,
    /// Unsatisfiable under the given assumptions (or globally, if none).
    Unsat,
    /// The query was abandoned before an answer: its [`SolveBudget`] ran
    /// out (conflict fuel or wall deadline) or a fault was injected.
    /// Callers must treat this as "don't know", never as either verdict —
    /// the symbolic engine prunes the branch and counts it.
    Unknown,
}

/// Per-query resource budget for [`Sat::solve_budgeted`]: exceeding either
/// limit yields [`SatResult::Unknown`] instead of running unbounded.
#[derive(Debug, Clone, Copy, Default)]
pub struct SolveBudget {
    /// Wall-clock deadline; checked before the search starts and at every
    /// conflict, so an over-deadline query stops at the next conflict.
    pub deadline: Option<std::time::Instant>,
    /// Maximum conflicts for this query ("fuel").
    pub max_conflicts: Option<u64>,
}

impl SolveBudget {
    /// Whether any limit is actually set.
    pub fn is_bounded(&self) -> bool {
        self.deadline.is_some() || self.max_conflicts.is_some()
    }
}

#[derive(Debug, Clone, Copy)]
struct Watch {
    /// Arena offset of the watched clause.
    clause: u32,
    blocker: Lit,
}

/// `reason` of a decision, an assumption or a unit clause.
const NO_REASON: u32 = u32::MAX;

/// One decision-heap entry: a variable and a copy of its activity, so a
/// comparison reads the heap's own memory instead of chasing the variable
/// index into the activity table.
#[derive(Debug, Clone, Copy)]
struct HeapEntry {
    act: f64,
    var: SatVar,
}

/// Max-heap over variable activities, used for branching decisions.
///
/// Every entry's `act` equals `Sat::activity` of its variable: `insert`
/// copies it, `bumped` refreshes it, and a rescale multiplies the copies by
/// the same factor as the table.
#[derive(Debug, Default)]
struct VarOrder {
    heap: Vec<HeapEntry>,
    pos: Vec<i32>, // -1 when absent
}

impl VarOrder {
    fn grow(&mut self, n: usize) {
        while self.pos.len() < n {
            self.pos.push(-1);
        }
    }

    fn contains(&self, v: SatVar) -> bool {
        self.pos[v.0 as usize] >= 0
    }

    fn insert(&mut self, v: SatVar, act: f64) {
        if self.contains(v) {
            return;
        }
        self.heap.push(HeapEntry { act, var: v });
        self.sift_up(self.heap.len() - 1);
    }

    fn pop_max(&mut self) -> Option<SatVar> {
        let top = self.heap.first()?.var;
        let last = self.heap.pop().expect("non-empty");
        self.pos[top.0 as usize] = -1;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.sift_down(0);
        }
        Some(top)
    }

    fn bumped(&mut self, v: SatVar, act: f64) {
        if let Ok(i) = usize::try_from(self.pos[v.0 as usize]) {
            self.heap[i].act = act;
            self.sift_up(i);
        }
    }

    fn rescale(&mut self, factor: f64) {
        for e in &mut self.heap {
            e.act *= factor;
        }
    }

    // The sifts move a hole instead of swapping: each entry passed moves
    // one level, and the sifted entry is written once, at its final slot.
    // The comparisons, and so the layout, are those of pairwise swaps.

    fn sift_up(&mut self, mut i: usize) {
        let e = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            if e.act <= self.heap[parent].act {
                break;
            }
            self.place(i, self.heap[parent]);
            i = parent;
        }
        self.place(i, e);
    }

    fn sift_down(&mut self, mut i: usize) {
        let e = self.heap[i];
        let n = self.heap.len();
        loop {
            let l = 2 * i + 1;
            let r = l + 1;
            let mut best = i;
            let mut best_act = e.act;
            if l < n && self.heap[l].act > best_act {
                best = l;
                best_act = self.heap[l].act;
            }
            if r < n && self.heap[r].act > best_act {
                best = r;
            }
            if best == i {
                break;
            }
            self.place(i, self.heap[best]);
            i = best;
        }
        self.place(i, e);
    }

    fn place(&mut self, i: usize, e: HeapEntry) {
        self.heap[i] = e;
        self.pos[e.var.0 as usize] = i as i32;
    }
}

/// Statistics counters exposed for the cost-breakdown experiment (E6).
#[derive(Debug, Default, Clone, Copy)]
pub struct SatStats {
    /// Number of `solve` calls.
    pub solves: u64,
    /// Total conflicts across all solves.
    pub conflicts: u64,
    /// Total decisions across all solves.
    pub decisions: u64,
    /// Total unit propagations across all solves.
    pub propagations: u64,
    /// Restarts performed.
    pub restarts: u64,
}

/// The CDCL solver.
///
/// # Examples
///
/// ```
/// use pokemu_solver::sat::{Lit, Sat, SatResult};
///
/// let mut s = Sat::new();
/// let a = s.new_var();
/// let b = s.new_var();
/// s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
/// s.add_clause(&[Lit::neg(a)]);
/// assert_eq!(s.solve(&[]), SatResult::Sat);
/// assert!(s.model_value(b));
/// // Under the assumption ¬b the instance is unsatisfiable:
/// assert_eq!(s.solve(&[Lit::neg(b)]), SatResult::Unsat);
/// ```
#[derive(Debug, Default)]
pub struct Sat {
    /// Every stored clause, back to back: a length word, then that many
    /// literal codes. A clause is named by the offset of its length word.
    arena: Vec<u32>,
    num_clauses: usize,
    watches: Vec<Vec<Watch>>,
    /// Value of each literal, indexed by [`Lit::code`]; a variable's two
    /// literals always hold opposite values or are both undefined.
    values: Vec<LBool>,
    phase: Vec<bool>,
    level: Vec<u32>,
    reason: Vec<u32>, // arena offset, or NO_REASON
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    order: VarOrder,
    seen: Vec<bool>,
    ok: bool,
    stats: SatStats,
}

const VAR_DECAY: f64 = 1.0 / 0.95;
const RESCALE_LIMIT: f64 = 1e100;
const RESCALE_FACTOR: f64 = 1e-100;

impl Sat {
    /// Creates an empty solver.
    pub fn new() -> Self {
        Sat {
            var_inc: 1.0,
            ok: true,
            ..Default::default()
        }
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> SatVar {
        let v = SatVar(self.phase.len() as u32);
        self.values.push(LBool::Undef);
        self.values.push(LBool::Undef);
        self.phase.push(false);
        self.level.push(0);
        self.reason.push(NO_REASON);
        self.activity.push(0.0);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.order.grow(self.phase.len());
        self.order.insert(v, 0.0);
        v
    }

    /// Number of allocated variables.
    pub fn num_vars(&self) -> usize {
        self.phase.len()
    }

    /// Number of clauses (original + learned).
    pub fn num_clauses(&self) -> usize {
        self.num_clauses
    }

    /// Solver statistics so far.
    pub fn stats(&self) -> SatStats {
        self.stats
    }

    fn value_lit(&self, l: Lit) -> LBool {
        self.values[l.code()]
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    /// Adds a clause. Returns `false` if the instance became trivially
    /// unsatisfiable (an empty clause at level 0).
    ///
    /// Adding a clause invalidates the model of a previous `solve` call.
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        self.backtrack(0);
        if !self.ok {
            return false;
        }
        // Normalize: sort, dedup, drop false literals, detect tautology.
        let mut c: Vec<Lit> = lits.to_vec();
        c.sort_unstable();
        c.dedup();
        let mut i = 0;
        while i < c.len() {
            if i + 1 < c.len() && c[i].var() == c[i + 1].var() {
                return true; // tautology x ∨ ¬x
            }
            match self.value_lit(c[i]) {
                LBool::True => return true, // already satisfied at level 0
                LBool::False => {
                    c.remove(i);
                }
                LBool::Undef => i += 1,
            }
        }
        match c.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.enqueue(c[0], NO_REASON);
                if self.propagate().is_some() {
                    self.ok = false;
                }
                self.ok
            }
            _ => {
                self.attach(&c);
                true
            }
        }
    }

    /// Appends `lits` to the arena and watches its first two literals.
    fn attach(&mut self, lits: &[Lit]) -> u32 {
        let cref = u32::try_from(self.arena.len()).expect("clause arena exceeds u32 offsets");
        self.arena.push(lits.len() as u32);
        self.arena.extend(lits.iter().map(|l| l.0));
        self.watches[lits[0].code()].push(Watch {
            clause: cref,
            blocker: lits[1],
        });
        self.watches[lits[1].code()].push(Watch {
            clause: cref,
            blocker: lits[0],
        });
        self.num_clauses += 1;
        cref
    }

    fn enqueue(&mut self, l: Lit, reason: u32) {
        debug_assert_eq!(self.value_lit(l), LBool::Undef);
        let v = l.var().0 as usize;
        self.values[l.code()] = LBool::True;
        self.values[l.negate().code()] = LBool::False;
        self.phase[v] = l.is_pos();
        self.level[v] = self.decision_level();
        self.reason[v] = reason;
        self.trail.push(l);
        self.stats.propagations += 1;
    }

    fn propagate(&mut self) -> Option<u32> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            let false_lit = p.negate();
            let mut ws = std::mem::take(&mut self.watches[false_lit.code()]);
            let mut i = 0;
            let mut conflict = None;
            'watchers: while i < ws.len() {
                let w = ws[i];
                if self.value_lit(w.blocker) == LBool::True {
                    i += 1;
                    continue;
                }
                // The clause's literals follow its length word. While `lits`
                // borrows the arena, values are read from the field directly.
                let cref = w.clause as usize;
                let len = self.arena[cref] as usize;
                let lits = &mut self.arena[cref + 1..cref + 1 + len];
                // Maintain invariant: the false literal sits at position 1.
                if lits[0] == false_lit.0 {
                    lits.swap(0, 1);
                }
                debug_assert_eq!(lits[1], false_lit.0);
                let first = Lit(lits[0]);
                if first != w.blocker && self.values[first.code()] == LBool::True {
                    ws[i].blocker = first;
                    i += 1;
                    continue;
                }
                // Look for a replacement watch.
                for k in 2..len {
                    let lk = Lit(lits[k]);
                    if self.values[lk.code()] != LBool::False {
                        lits.swap(1, k);
                        self.watches[lk.code()].push(Watch {
                            clause: w.clause,
                            blocker: first,
                        });
                        ws.swap_remove(i);
                        continue 'watchers;
                    }
                }
                // Unit or conflicting.
                if self.value_lit(first) == LBool::False {
                    conflict = Some(w.clause);
                    self.qhead = self.trail.len();
                    break;
                }
                self.enqueue(first, w.clause);
                i += 1;
            }
            self.watches[false_lit.code()] = ws;
            if conflict.is_some() {
                return conflict;
            }
        }
        None
    }

    fn bump(&mut self, v: SatVar) {
        let a = &mut self.activity[v.0 as usize];
        *a += self.var_inc;
        if *a > RESCALE_LIMIT {
            for act in &mut self.activity {
                *act *= RESCALE_FACTOR;
            }
            self.order.rescale(RESCALE_FACTOR);
            self.var_inc *= RESCALE_FACTOR;
        }
        self.order.bumped(v, self.activity[v.0 as usize]);
    }

    /// 1UIP conflict analysis. Returns the learned clause (asserting literal
    /// first) and the backtrack level.
    fn analyze(&mut self, mut confl: u32) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = vec![Lit(0)];
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        let cur_level = self.decision_level();
        loop {
            let start = usize::from(p.is_some());
            let base = confl as usize + 1;
            for k in base + start..base + self.arena[base - 1] as usize {
                let q = Lit(self.arena[k]);
                let v = q.var();
                let vi = v.0 as usize;
                if !self.seen[vi] && self.level[vi] > 0 {
                    self.seen[vi] = true;
                    self.bump(v);
                    if self.level[vi] >= cur_level {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Select the next trail literal to expand.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().0 as usize] {
                    break;
                }
            }
            let pl = self.trail[index];
            let v = pl.var().0 as usize;
            self.seen[v] = false;
            counter -= 1;
            if counter == 0 {
                p = Some(pl);
                break;
            }
            confl = self.reason[v];
            assert_ne!(confl, NO_REASON, "implied literal must have a reason");
            p = Some(pl);
        }
        learnt[0] = p.expect("asserting literal").negate();
        // Clear seen flags for the remaining learned literals.
        for &l in &learnt[1..] {
            self.seen[l.var().0 as usize] = false;
        }
        // Backtrack level: highest level among learnt[1..]; watch that literal.
        let bt = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().0 as usize]
                    > self.level[learnt[max_i].var().0 as usize]
                {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var().0 as usize]
        };
        (learnt, bt)
    }

    fn backtrack(&mut self, level: u32) {
        if self.decision_level() <= level {
            return;
        }
        let lim = self.trail_lim[level as usize];
        for i in (lim..self.trail.len()).rev() {
            let l = self.trail[i];
            let v = l.var();
            self.values[l.code()] = LBool::Undef;
            self.values[l.negate().code()] = LBool::Undef;
            self.reason[v.0 as usize] = NO_REASON;
            self.order.insert(v, self.activity[v.0 as usize]);
        }
        self.trail.truncate(lim);
        self.trail_lim.truncate(level as usize);
        self.qhead = lim;
    }

    fn new_decision_level(&mut self) {
        self.trail_lim.push(self.trail.len());
    }

    fn pick_branch(&mut self) -> Option<Lit> {
        while let Some(v) = self.order.pop_max() {
            if self.value_lit(Lit::pos(v)) == LBool::Undef {
                return Some(Lit::new(v, self.phase[v.0 as usize]));
            }
        }
        None
    }

    /// Luby sequence value for restart scheduling (0-indexed).
    fn luby(i: u64) -> u64 {
        let mut i = i + 1;
        loop {
            let mut k = 1u32;
            while (1u64 << k) - 1 < i {
                k += 1;
            }
            if (1u64 << k) - 1 == i {
                return 1u64 << (k - 1);
            }
            i -= (1u64 << (k - 1)) - 1;
        }
    }

    /// Decides satisfiability under `assumptions`.
    ///
    /// Learned clauses persist across calls, making repeated feasibility
    /// queries on growing path conditions cheap. After [`SatResult::Sat`],
    /// [`Sat::model_value`] reads the satisfying assignment.
    pub fn solve(&mut self, assumptions: &[Lit]) -> SatResult {
        self.solve_budgeted(assumptions, None)
    }

    /// [`Sat::solve`] with an optional per-query [`SolveBudget`].
    ///
    /// When the budget's conflict fuel or wall deadline is exhausted the
    /// search backtracks to level 0 and returns [`SatResult::Unknown`]. The
    /// solver stays usable — learned clauses are kept and later (possibly
    /// better-funded) queries run normally.
    pub fn solve_budgeted(
        &mut self,
        assumptions: &[Lit],
        budget: Option<&SolveBudget>,
    ) -> SatResult {
        self.stats.solves += 1;
        self.backtrack(0);
        if !self.ok {
            return SatResult::Unsat;
        }
        if self.propagate().is_some() {
            self.ok = false;
            return SatResult::Unsat;
        }
        // An already-expired deadline gives up before searching, so a
        // latency fault upstream degrades even trivially easy queries.
        if let Some(b) = budget {
            if b.max_conflicts == Some(0)
                || b.deadline.is_some_and(|d| std::time::Instant::now() >= d)
            {
                return SatResult::Unknown;
            }
        }
        let mut conflicts_this_solve = 0u64;
        let mut conflicts_this_restart = 0u64;
        let mut restart_no = 0u64;
        let mut restart_budget = 100 * Self::luby(restart_no);
        loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts_this_solve += 1;
                conflicts_this_restart += 1;
                if self.decision_level() == 0 {
                    // A root-level conflict is a definite Unsat; report it
                    // even when the budget ran out on this very conflict.
                    self.ok = false;
                    return SatResult::Unsat;
                }
                if let Some(b) = budget {
                    if b.max_conflicts.is_some_and(|m| conflicts_this_solve > m)
                        || b.deadline.is_some_and(|d| std::time::Instant::now() >= d)
                    {
                        self.backtrack(0);
                        return SatResult::Unknown;
                    }
                }
                let (learnt, bt) = self.analyze(confl);
                self.backtrack(bt);
                if learnt.len() == 1 {
                    self.enqueue(learnt[0], NO_REASON);
                } else {
                    let cref = self.attach(&learnt);
                    self.enqueue(learnt[0], cref);
                }
                self.var_inc *= VAR_DECAY;
                if conflicts_this_restart >= restart_budget {
                    self.stats.restarts += 1;
                    restart_no += 1;
                    restart_budget = 100 * Self::luby(restart_no);
                    conflicts_this_restart = 0;
                    self.backtrack(0);
                }
            } else {
                // Assumption decisions first.
                let mut next: Option<Lit> = None;
                while (self.decision_level() as usize) < assumptions.len() {
                    let a = assumptions[self.decision_level() as usize];
                    match self.value_lit(a) {
                        LBool::True => self.new_decision_level(),
                        LBool::False => {
                            // Conflicts with previous assumptions/clauses.
                            self.backtrack(0);
                            return SatResult::Unsat;
                        }
                        LBool::Undef => {
                            next = Some(a);
                            break;
                        }
                    }
                }
                if next.is_none() {
                    next = self.pick_branch();
                }
                match next {
                    None => return SatResult::Sat,
                    Some(l) => {
                        self.stats.decisions += 1;
                        self.new_decision_level();
                        self.enqueue(l, NO_REASON);
                    }
                }
            }
        }
    }

    /// The value of `v` in the most recent satisfying assignment.
    ///
    /// Unassigned variables (possible after `Sat` when a variable is not
    /// constrained) read as `false`.
    pub fn model_value(&self, v: SatVar) -> bool {
        self.value_lit(Lit::pos(v)) == LBool::True
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(s: &mut Sat, i: usize, pos: bool, vars: &mut Vec<SatVar>) -> Lit {
        while vars.len() <= i {
            vars.push(s.new_var());
        }
        Lit::new(vars[i], pos)
    }

    #[test]
    fn trivial_sat_unsat() {
        let mut s = Sat::new();
        let a = s.new_var();
        s.add_clause(&[Lit::pos(a)]);
        assert_eq!(s.solve(&[]), SatResult::Sat);
        assert!(s.model_value(a));
        s.add_clause(&[Lit::neg(a)]);
        assert_eq!(s.solve(&[]), SatResult::Unsat);
    }

    #[test]
    fn assumptions_do_not_pollute() {
        let mut s = Sat::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
        assert_eq!(s.solve(&[Lit::neg(a), Lit::neg(b)]), SatResult::Unsat);
        // Still satisfiable without the assumptions.
        assert_eq!(s.solve(&[]), SatResult::Sat);
        assert_eq!(s.solve(&[Lit::neg(a)]), SatResult::Sat);
        assert!(s.model_value(b));
    }

    #[test]
    fn pigeonhole_3_into_2_is_unsat() {
        // p[i][j]: pigeon i in hole j. Classic small UNSAT instance that
        // requires real conflict analysis.
        let mut s = Sat::new();
        let mut p = [[SatVar(0); 2]; 3];
        for row in &mut p {
            for v in row.iter_mut() {
                *v = s.new_var();
            }
        }
        for row in &p {
            s.add_clause(&[Lit::pos(row[0]), Lit::pos(row[1])]);
        }
        for j in 0..2 {
            for (i1, r1) in p.iter().enumerate() {
                for r2 in &p[i1 + 1..] {
                    s.add_clause(&[Lit::neg(r1[j]), Lit::neg(r2[j])]);
                }
            }
        }
        assert_eq!(s.solve(&[]), SatResult::Unsat);
    }

    #[test]
    fn exhausted_fuel_returns_unknown_and_solver_stays_usable() {
        // Pigeonhole 4-into-3 needs plenty of conflicts; zero fuel must give
        // up as Unknown without poisoning the solver for later queries.
        let mut s = Sat::new();
        let mut p = [[SatVar(0); 3]; 4];
        for row in &mut p {
            for v in row.iter_mut() {
                *v = s.new_var();
            }
        }
        for row in &p {
            s.add_clause(&[Lit::pos(row[0]), Lit::pos(row[1]), Lit::pos(row[2])]);
        }
        for j in 0..3 {
            for (i1, r1) in p.iter().enumerate() {
                for r2 in &p[i1 + 1..] {
                    s.add_clause(&[Lit::neg(r1[j]), Lit::neg(r2[j])]);
                }
            }
        }
        let starved = SolveBudget {
            deadline: None,
            max_conflicts: Some(0),
        };
        assert_eq!(s.solve_budgeted(&[], Some(&starved)), SatResult::Unknown);
        // Unbudgeted retry still reaches the definite answer.
        assert_eq!(s.solve(&[]), SatResult::Unsat);
    }

    #[test]
    fn expired_deadline_returns_unknown_on_easy_queries() {
        let mut s = Sat::new();
        let a = s.new_var();
        s.add_clause(&[Lit::pos(a)]);
        let expired = SolveBudget {
            deadline: Some(std::time::Instant::now()),
            max_conflicts: None,
        };
        assert_eq!(s.solve_budgeted(&[], Some(&expired)), SatResult::Unknown);
        assert_eq!(s.solve(&[]), SatResult::Sat);
    }

    #[test]
    fn chain_implications_propagate() {
        let mut s = Sat::new();
        let mut vars = Vec::new();
        let n = 50;
        for i in 0..n - 1 {
            let a = lit(&mut s, i, false, &mut vars);
            let b = lit(&mut s, i + 1, true, &mut vars);
            s.add_clause(&[a, b]); // v_i -> v_{i+1}
        }
        let first = Lit::pos(vars[0]);
        assert_eq!(s.solve(&[first]), SatResult::Sat);
        for v in &vars {
            assert!(s.model_value(*v));
        }
        let last_neg = Lit::neg(vars[n - 2]);
        assert_eq!(s.solve(&[first, last_neg]), SatResult::Unsat);
    }

    #[test]
    fn random_3sat_agrees_with_brute_force() {
        let mut rng = pokemu_rt::Rng::seed_from_u64(0xC0FFEE);
        for _ in 0..60 {
            let nvars = rng.gen_range(3..=8usize);
            let nclauses = rng.gen_range(1..=24usize);
            let mut clauses = Vec::new();
            for _ in 0..nclauses {
                let mut c = Vec::new();
                for _ in 0..3 {
                    let v = rng.gen_range(0..nvars);
                    let p: bool = rng.gen();
                    c.push((v, p));
                }
                clauses.push(c);
            }
            // Brute force.
            let mut brute_sat = false;
            'assign: for m in 0u32..(1 << nvars) {
                for c in &clauses {
                    if !c.iter().any(|&(v, p)| ((m >> v) & 1 == 1) == p) {
                        continue 'assign;
                    }
                }
                brute_sat = true;
                break;
            }
            // CDCL.
            let mut s = Sat::new();
            let vars: Vec<SatVar> = (0..nvars).map(|_| s.new_var()).collect();
            let mut ok = true;
            for c in &clauses {
                let lits: Vec<Lit> = c.iter().map(|&(v, p)| Lit::new(vars[v], p)).collect();
                ok &= s.add_clause(&lits);
            }
            let got = if !ok { SatResult::Unsat } else { s.solve(&[]) };
            assert_eq!(got == SatResult::Sat, brute_sat, "mismatch on {clauses:?}");
            if got == SatResult::Sat {
                // Verify the model actually satisfies all clauses.
                for c in &clauses {
                    assert!(c.iter().any(|&(v, p)| s.model_value(vars[v]) == p));
                }
            }
        }
    }

    #[test]
    fn luby_sequence_prefix() {
        let expect = [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        for (i, &e) in expect.iter().enumerate() {
            assert_eq!(Sat::luby(i as u64), e, "luby({i})");
        }
    }
}
