//! The bit-vector decision procedure facade used by the symbolic engine.
//!
//! [`BvSolver`] answers one kind of question: *is this conjunction of width-1
//! terms satisfiable, and if so under what variable assignment?* That is
//! exactly the interface FuzzBALL needs from STP/Z3 (paper §3.1.2): path
//! conditions are conjunctions of branch conditions, and solving is
//! incremental because successive queries share a growing prefix.

use std::collections::HashMap;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use pokemu_rt::{fault, flight, metrics};

use crate::blast::Blaster;
use crate::origin;
use crate::sat::{Lit, SatResult, SatStats, SolveBudget};
use crate::term::{TermId, TermPool, VarId};

/// Queries at least this slow leave a provenance note in the flight
/// recorder (origin + instruction + path id), so a post-hoc dump explains
/// where a latency cliff came from without a traced re-run.
const SLOW_QUERY_NOTE: Duration = Duration::from_millis(10);

/// Env var: per-query wall deadline in milliseconds for every
/// [`BvSolver::check`] in the process (`POKEMU_SOLVER_DEADLINE_MS=50`).
pub const SOLVER_DEADLINE_ENV: &str = "POKEMU_SOLVER_DEADLINE_MS";

/// Env var: per-query conflict fuel for every [`BvSolver::check`] in the
/// process (`POKEMU_SOLVER_FUEL=10000`).
pub const SOLVER_FUEL_ENV: &str = "POKEMU_SOLVER_FUEL";

/// Process-wide default budget, parsed from the environment once.
fn env_budget() -> &'static EnvBudget {
    static ENV: OnceLock<EnvBudget> = OnceLock::new();
    ENV.get_or_init(|| {
        let ms = std::env::var(SOLVER_DEADLINE_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok());
        let fuel = std::env::var(SOLVER_FUEL_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok());
        EnvBudget {
            deadline: ms.map(Duration::from_millis),
            max_conflicts: fuel,
        }
    })
}

#[derive(Debug, Clone, Copy)]
struct EnvBudget {
    deadline: Option<Duration>,
    max_conflicts: Option<u64>,
}

/// A satisfying assignment for the bit-vector variables of a formula.
///
/// Variables that never appeared in any constraint are absent; callers decide
/// their value (PokeEMU leaves them at the baseline machine state, §3.4).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Model {
    values: HashMap<VarId, u64>,
}

impl Model {
    /// Creates an empty model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a model from raw `(variable, value)` pairs.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (VarId, u64)>) -> Self {
        Model {
            values: pairs.into_iter().collect(),
        }
    }

    /// The value assigned to `v`, if constrained.
    pub fn value(&self, v: VarId) -> Option<u64> {
        self.values.get(&v).copied()
    }

    /// The value assigned to `v`, or `default` when unconstrained.
    pub fn value_or(&self, v: VarId, default: u64) -> u64 {
        self.value(v).unwrap_or(default)
    }

    /// Sets (or overrides) the value of `v`.
    pub fn set(&mut self, v: VarId, value: u64) {
        self.values.insert(v, value);
    }

    /// Iterates over the constrained `(variable, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (VarId, u64)> + '_ {
        self.values.iter().map(|(&v, &x)| (v, x))
    }

    /// Number of constrained variables.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` when no variable is constrained.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// View of the model as an evaluation environment for [`TermPool::eval`].
    pub fn as_env(&self) -> &HashMap<VarId, u64> {
        &self.values
    }
}

/// Cumulative query statistics (E6 cost-breakdown experiment).
#[derive(Debug, Default, Clone, Copy)]
pub struct SolverStats {
    /// Number of satisfiability checks issued.
    pub queries: u64,
    /// Checks that returned SAT.
    pub sat: u64,
    /// Checks that returned UNSAT.
    pub unsat: u64,
    /// Checks abandoned as UNKNOWN (budget exhausted or fault injected).
    pub unknown: u64,
    /// Statistics of the underlying SAT core.
    pub sat_core: SatStats,
}

/// Incremental QF_BV solver: the STP/Z3 stand-in.
///
/// # Examples
///
/// ```
/// use pokemu_solver::{BvSolver, TermPool};
///
/// let mut pool = TermPool::new();
/// let mut solver = BvSolver::new();
/// let x = pool.var(8, "x");
/// let lim = pool.constant(8, 10);
/// let lt = pool.ult(x, lim);
/// let model = solver.check_with_model(&pool, &[lt]).expect("satisfiable");
/// let vx = model.value(pool.variables_of(x)[0]).unwrap();
/// assert!(vx < 10);
/// ```
#[derive(Debug)]
pub struct BvSolver {
    blaster: Blaster,
    stats: SolverStats,
    metrics: SolverMetrics,
    /// Per-query budget; `None` entries fall back to the process-wide env
    /// budget (`POKEMU_SOLVER_DEADLINE_MS` / `POKEMU_SOLVER_FUEL`).
    deadline: Option<Duration>,
    max_conflicts: Option<u64>,
}

/// Handles into the process-wide metrics registry, resolved once per solver
/// so the per-query cost is a relaxed atomic add (`solver.` namespace, see
/// DESIGN.md §Observability).
#[derive(Debug, Clone, Copy)]
struct SolverMetrics {
    queries: metrics::Counter,
    sat: metrics::Counter,
    unsat: metrics::Counter,
    unknown: metrics::Counter,
    query_ns: metrics::Histogram,
    /// SAT-core work per query: the deltas of [`SatStats`].
    decisions: metrics::Counter,
    propagations: metrics::Counter,
    conflicts: metrics::Counter,
    /// CNF that blasting a query's assumptions created.
    cnf_vars: metrics::Counter,
    cnf_clauses: metrics::Counter,
}

impl SolverMetrics {
    fn new() -> Self {
        SolverMetrics {
            queries: metrics::counter("solver.queries"),
            sat: metrics::counter("solver.sat"),
            unsat: metrics::counter("solver.unsat"),
            unknown: metrics::counter("solver.unknown"),
            query_ns: metrics::histogram("solver.query_ns"),
            decisions: metrics::counter("solver.sat.decisions"),
            propagations: metrics::counter("solver.sat.propagations"),
            conflicts: metrics::counter("solver.sat.conflicts"),
            cnf_vars: metrics::counter("solver.cnf.vars"),
            cnf_clauses: metrics::counter("solver.cnf.clauses"),
        }
    }
}

impl Default for BvSolver {
    fn default() -> Self {
        BvSolver {
            blaster: Blaster::default(),
            stats: SolverStats::default(),
            metrics: SolverMetrics::new(),
            deadline: None,
            max_conflicts: None,
        }
    }
}

impl BvSolver {
    /// Creates a fresh solver.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets a per-query wall deadline (overrides `POKEMU_SOLVER_DEADLINE_MS`).
    pub fn set_deadline(&mut self, deadline: Option<Duration>) {
        self.deadline = deadline;
    }

    /// Sets a per-query conflict fuel limit (overrides `POKEMU_SOLVER_FUEL`).
    pub fn set_max_conflicts(&mut self, fuel: Option<u64>) {
        self.max_conflicts = fuel;
    }

    /// The effective budget for the next query, resolving programmatic
    /// settings first and the process environment second.
    fn effective_budget(&self) -> SolveBudget {
        let env = env_budget();
        SolveBudget {
            deadline: self.deadline.or(env.deadline).map(|d| Instant::now() + d),
            max_conflicts: self.max_conflicts.or(env.max_conflicts),
        }
    }

    /// Checks satisfiability of the conjunction of `assumptions`.
    ///
    /// Every assumption must be a width-1 term. Learned clauses persist
    /// across calls; assumptions do not. Under a budget (programmatic or
    /// `POKEMU_SOLVER_DEADLINE_MS` / `POKEMU_SOLVER_FUEL`) a too-expensive
    /// query returns [`SatResult::Unknown`] instead of running unbounded;
    /// the armed `solver.check` fault point can force the same outcome.
    ///
    /// # Panics
    ///
    /// Panics if an assumption term does not have width 1.
    pub fn check(&mut self, pool: &TermPool, assumptions: &[TermId]) -> SatResult {
        // Latency is only sampled while a span sink is on: the clock reads
        // are pure overhead otherwise. The span opens *before* fault
        // injection so an armed latency fault shows up in the attribution
        // (that visibility is what the bench-gate self-test relies on).
        let span = pokemu_rt::span!("solver.check");
        let query_origin = origin::current();
        let (origin_queries, origin_ns) = origin::handles(query_origin);
        self.stats.queries += 1;
        self.metrics.queries.inc();
        origin_queries.inc();
        // The deadline starts ticking before fault injection so an armed
        // latency fault consumes the real budget.
        let budget = self.effective_budget();
        if fault::armed() {
            // Inside a pool item the ambient scope key attributes the fault
            // to that item, so `solver.check:unknown:<n>` starves exactly
            // work item n. Unscoped queries (e.g. the main-thread
            // instruction-space sweep) key as u64::MAX, reachable only by
            // `*` and probabilistic selectors — a numeric key must never
            // leak onto work it did not name.
            let key = fault::scope_key().unwrap_or(u64::MAX);
            if fault::inject("solver.check", key) {
                self.stats.unknown += 1;
                self.metrics.unknown.inc();
                flight::note("solver.unknown", || {
                    format!(
                        "fault key={key} origin={query_origin} insn={} path={:016x}",
                        origin::current_insn(),
                        origin::current_path_id()
                    )
                });
                if let Some(span) = span {
                    let el = span.finish();
                    self.metrics.query_ns.record_duration(el);
                    origin_ns.add(el);
                }
                return SatResult::Unknown;
            }
        }
        let m = self.metrics;
        let before = self.blaster.sat_ref().stats();
        let (vars0, clauses0) = self.cnf_size();
        let lits: Vec<Lit> = {
            let _blast = pokemu_rt::span!("solver.blast");
            assumptions
                .iter()
                .map(|&t| self.blaster.blast_bool(pool, t))
                .collect()
        };
        let (vars1, clauses1) = self.cnf_size();
        m.cnf_vars.add((vars1 - vars0) as u64);
        m.cnf_clauses.add((clauses1 - clauses0) as u64);
        let budget_ref = budget.is_bounded().then_some(&budget);
        let r = self.blaster.sat().solve_budgeted(&lits, budget_ref);
        let after = self.blaster.sat_ref().stats();
        m.decisions.add(after.decisions - before.decisions);
        m.propagations.add(after.propagations - before.propagations);
        m.conflicts.add(after.conflicts - before.conflicts);
        if let Some(span) = span {
            let el = span.finish();
            self.metrics.query_ns.record_duration(el);
            origin_ns.add(el);
            if el >= SLOW_QUERY_NOTE {
                flight::note("solver.slow", || {
                    format!(
                        "origin={query_origin} insn={} path={:016x} ms={}",
                        origin::current_insn(),
                        origin::current_path_id(),
                        el.as_millis()
                    )
                });
            }
        }
        match r {
            SatResult::Sat => {
                self.stats.sat += 1;
                self.metrics.sat.inc();
            }
            SatResult::Unsat => {
                self.stats.unsat += 1;
                self.metrics.unsat.inc();
            }
            SatResult::Unknown => {
                self.stats.unknown += 1;
                self.metrics.unknown.inc();
                flight::note("solver.unknown", || {
                    format!(
                        "budget exhausted origin={query_origin} insn={} path={:016x}",
                        origin::current_insn(),
                        origin::current_path_id()
                    )
                });
            }
        }
        self.stats.sat_core = after;
        r
    }

    /// Variables and stored clauses of the SAT core so far.
    fn cnf_size(&self) -> (usize, usize) {
        let sat = self.blaster.sat_ref();
        (sat.num_vars(), sat.num_clauses())
    }

    /// Like [`BvSolver::check`], returning a [`Model`] on satisfiability.
    pub fn check_with_model(&mut self, pool: &TermPool, assumptions: &[TermId]) -> Option<Model> {
        match self.check(pool, assumptions) {
            SatResult::Unsat | SatResult::Unknown => None,
            SatResult::Sat => {
                let mut model = Model::new();
                for i in 0..pool.num_vars() {
                    let v = VarId(i as u32);
                    if let Some(val) = self.blaster.model_value(v) {
                        model.set(v, val);
                    }
                }
                Some(model)
            }
        }
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starved_query_degrades_to_unknown_then_recovers() {
        let mut pool = TermPool::new();
        let mut s = BvSolver::new();
        // x * x + x == 0x6FC2 over 16 bits: needs genuine search.
        let x = pool.var(16, "x");
        let sq = pool.mul(x, x);
        let sum = pool.add(sq, x);
        let k = pool.constant(16, 0x6FC2);
        let cond = pool.eq(sum, k);

        s.set_max_conflicts(Some(0));
        assert_eq!(s.check(&pool, &[cond]), SatResult::Unknown);
        assert_eq!(s.stats().unknown, 1);
        assert!(s.check_with_model(&pool, &[cond]).is_none());

        // Lifting the budget lets the same solver answer for real.
        s.set_max_conflicts(None);
        let r = s.check(&pool, &[cond]);
        assert_ne!(r, SatResult::Unknown);
        assert_eq!(s.stats().unknown, 2);
    }
}
