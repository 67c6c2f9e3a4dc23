//! The online symbolic execution engine (paper §3.1).
//!
//! [`Executor`] is FuzzBALL's counterpart: it executes a program (any Rust
//! closure written against [`Dom`]) with symbolic values, one path at a time.
//! When a branch condition is symbolic it asks the decision procedure which
//! directions are feasible, consults the [`DecisionTree`] so that every run
//! executes a path not explored before, and records the branch in the path
//! condition. When a path ends, exhaustion information propagates up the tree;
//! exploration loops until the tree is fully explored or a path cap is hit
//! (the paper caps at 8192 paths per instruction, §6.1).
//!
//! Trade-off faithfully reproduced from the paper: rather than forking and
//! keeping many states in memory (as KLEE does), the engine re-executes from
//! the start for every path, which keeps memory flat and the implementation
//! simple (§3.1.2, "Decision Tree").

use std::collections::HashMap;

use pokemu_rt::{coverage, metrics, Rng};
use pokemu_solver::{origin, BvSolver, Model, SatResult, TermId, TermPool, VarId, Width};

use crate::dom::Dom;
use crate::summary::Summary;
use crate::tree::{DecisionTree, Feasibility, NodeId};

/// Tuning knobs for exploration.
#[derive(Debug, Clone, Copy)]
pub struct ExploreConfig {
    /// Maximum number of recorded paths ("limit on the maximum number of
    /// paths (currently 8192)", §6.1).
    pub max_paths: usize,
    /// Per-path symbolic branch budget; exceeding it truncates the path and
    /// flags the exploration incomplete.
    pub max_branches_per_path: usize,
    /// Seed for the random direction choice at fresh branch sites.
    pub seed: u64,
    /// Wall-clock deadline for the whole exploration; when it passes, the
    /// run stops starting new paths, keeps everything gathered so far, and
    /// reports `complete = false` (graceful degradation, never a panic).
    pub deadline: Option<std::time::Instant>,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            max_paths: 8192,
            max_branches_per_path: 4096,
            seed: 0x9e3779b97f4a7c15,
            deadline: None,
        }
    }
}

/// Counters describing one exploration run.
#[derive(Debug, Default, Clone, Copy)]
pub struct ExploreStats {
    /// Paths recorded with a satisfying model.
    pub paths: usize,
    /// Replays abandoned without a result (nondeterminism guards).
    pub dead_paths: usize,
    /// Paths cut by the per-path branch budget.
    pub truncated_paths: usize,
    /// Paths whose condition turned out unsatisfiable at the end of a
    /// replay (previously a hard panic; now counted and skipped).
    pub infeasible_paths: usize,
    /// Explorations cut short by [`ExploreConfig::deadline`].
    pub deadline_trips: usize,
    /// Total symbolic branches taken.
    pub branches: u64,
    /// Decision-procedure queries issued (including model extraction).
    pub solver_queries: u64,
    /// Solver queries abandoned as Unknown (budget or fault); every one
    /// marks the exploration incomplete because a feasible branch may have
    /// been pruned.
    pub unknown: u64,
}

/// One fully explored execution path.
#[derive(Debug, Clone)]
pub struct PathOutcome<T> {
    /// Whatever the explored program returned on this path.
    pub value: T,
    /// The conjunction of branch conditions and assumptions taken.
    pub path_condition: Vec<TermId>,
    /// A satisfying assignment for the path condition.
    pub model: Model,
    /// FNV-1a hash of the path's branch decisions (each branch site's name
    /// plus the direction taken). Deterministic for a given program and
    /// engine seed, independent of worker scheduling, so it names the path
    /// in coverage maps, run manifests, and deviation reports.
    pub path_id: u64,
}

/// The result of exploring a program.
#[derive(Debug)]
pub struct Exploration<T> {
    /// One outcome per explored path.
    pub paths: Vec<PathOutcome<T>>,
    /// `true` when every feasible path was explored (the "complete path
    /// coverage" criterion of §6.1).
    pub complete: bool,
    /// Statistics for this exploration.
    pub stats: ExploreStats,
}

/// The online symbolic execution engine; also the symbolic [`Dom`].
///
/// # Examples
///
/// Exploring the paper's `if (x - 15 == 0)` example discovers both paths and
/// produces a model for each:
///
/// ```
/// use pokemu_symx::{Dom, Executor};
///
/// let mut exec = Executor::new();
/// let result = exec.explore(|e| {
///     let x = e.fresh_input(32, "x");
///     let k = e.constant(32, 15);
///     let d = e.sub(x, k);
///     let z = e.constant(32, 0);
///     let c = e.eq(d, z);
///     if e.branch(c, "x==15") { "taken" } else { "fallthrough" }
/// });
/// assert!(result.complete);
/// assert_eq!(result.paths.len(), 2);
/// ```
#[derive(Debug)]
pub struct Executor {
    pool: TermPool,
    solver: BvSolver,
    tree: DecisionTree,
    rng: Rng,
    config: ExploreConfig,
    stats: ExploreStats,
    /// Stable name -> variable mapping so "the same" machine-state location
    /// maps to the same symbolic variable on every path (§3.3.1).
    named_vars: HashMap<String, TermId>,
    /// Registered path summaries keyed by call-site name (§3.3.2).
    summaries: HashMap<&'static str, Summary>,
    /// Outputs of each summary application, keyed by (call-site name,
    /// argument terms). Hash-consing makes a repeated application return
    /// the same terms and intern nothing new, so replaying the cached
    /// outputs on later paths is exact.
    summary_outputs: HashMap<(&'static str, Vec<TermId>), Vec<TermId>>,
    /// Cache of `pick` results keyed by (tree position, term) so replays of
    /// the same path prefix concretize identically even as the solver's
    /// learned clauses change its models.
    pick_cache: HashMap<(NodeId, TermId), u64>,
    // ---- per-path state ----
    cur: NodeId,
    path: Vec<TermId>,
    path_hash: u64,
    branches_this_path: usize,
    dead: bool,
    exploring: bool,
    /// `true` while a [`Executor::try_summarize`] sub-exploration runs, so
    /// solver queries issued on its behalf bill to the `summary` origin
    /// rather than to feasibility/model — exactly the attribution needed to
    /// diagnose the e7 inversion (summaries slower than no summaries).
    in_summary: bool,
    metrics: EngineMetrics,
}

/// Registry handles for the engine's counters (`symx.` namespace), resolved
/// once per engine so hot sites pay one relaxed atomic add.
#[derive(Debug, Clone, Copy)]
struct EngineMetrics {
    paths: metrics::Counter,
    dead_paths: metrics::Counter,
    forks: metrics::Counter,
    pruned_branches: metrics::Counter,
    summary_hits: metrics::Counter,
    pick_cache_hits: metrics::Counter,
    unknown_branches: metrics::Counter,
    infeasible_paths: metrics::Counter,
    deadline_trips: metrics::Counter,
    /// Path-id coverage bitmap (`coverage.path`): one bit per explored
    /// path-decision hash, modulo the map size.
    path_cov: coverage::CoverageMap,
}

/// Size of the `coverage.path` bitmap; path-id hashes index it modulo this.
pub const PATH_COVERAGE_BITS: usize = 65_536;

impl EngineMetrics {
    fn new() -> Self {
        EngineMetrics {
            paths: metrics::counter("symx.paths"),
            dead_paths: metrics::counter("symx.dead_paths"),
            forks: metrics::counter("symx.forks"),
            pruned_branches: metrics::counter("symx.pruned_branches"),
            summary_hits: metrics::counter("symx.summary_hits"),
            pick_cache_hits: metrics::counter("symx.pick_cache_hits"),
            unknown_branches: metrics::counter("symx.unknown_branches"),
            infeasible_paths: metrics::counter("symx.infeasible_paths"),
            deadline_trips: metrics::counter("symx.deadline_trips"),
            path_cov: coverage::map("coverage.path", PATH_COVERAGE_BITS),
        }
    }
}

/// FNV-1a offset basis (the per-path hash starts here).
const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

impl Default for Executor {
    fn default() -> Self {
        Self::new()
    }
}

impl Executor {
    /// Creates an engine with default configuration.
    pub fn new() -> Self {
        Self::with_config(ExploreConfig::default())
    }

    /// Creates an engine with explicit limits.
    pub fn with_config(config: ExploreConfig) -> Self {
        Executor {
            pool: TermPool::new(),
            solver: BvSolver::new(),
            tree: DecisionTree::new(),
            rng: Rng::seed_from_u64(config.seed),
            config,
            stats: ExploreStats::default(),
            named_vars: HashMap::new(),
            summaries: HashMap::new(),
            summary_outputs: HashMap::new(),
            pick_cache: HashMap::new(),
            cur: NodeId::ROOT,
            path: Vec::new(),
            path_hash: FNV_OFFSET,
            branches_this_path: 0,
            dead: false,
            exploring: false,
            in_summary: false,
            metrics: EngineMetrics::new(),
        }
    }

    /// The term pool (terms in [`PathOutcome`]s refer to it).
    pub fn pool(&self) -> &TermPool {
        &self.pool
    }

    /// Mutable access to the term pool.
    pub fn pool_mut(&mut self) -> &mut TermPool {
        &mut self.pool
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> ExploreStats {
        let mut s = self.stats;
        let solver = self.solver.stats();
        s.solver_queries = solver.queries;
        s.unknown = solver.unknown;
        s
    }

    /// Mutable access to the underlying solver (budget configuration).
    pub fn solver_mut(&mut self) -> &mut BvSolver {
        &mut self.solver
    }

    /// Registers a pre-computed [`Summary`] under a call-site key; the
    /// generic program retrieves it through [`Dom::summary_hook`].
    pub fn register_summary(&mut self, key: &'static str, summary: Summary) {
        self.summaries.insert(key, summary);
        self.summary_outputs.clear();
    }

    /// Creates (or retrieves) the stable named input variable `name`.
    ///
    /// The same name yields the same variable across all paths of all
    /// explorations on this engine, which is what lets test states refer to
    /// fixed machine-state locations.
    pub fn named_input(&mut self, w: Width, name: &str) -> TermId {
        if let Some(&t) = self.named_vars.get(name) {
            assert_eq!(self.pool.width(t), w, "named input {name} width changed");
            return t;
        }
        let t = self.pool.var(w, name);
        self.named_vars.insert(name.to_owned(), t);
        t
    }

    /// The variable id behind a named input, if it exists.
    pub fn named_var_id(&self, name: &str) -> Option<VarId> {
        let t = *self.named_vars.get(name)?;
        match self.pool.op(t) {
            pokemu_solver::Op::Var(v) => Some(v),
            _ => None,
        }
    }

    /// All `(name, variable)` pairs created so far, sorted by name.
    pub fn named_vars(&self) -> Vec<(String, VarId)> {
        let mut v: Vec<(String, VarId)> = self
            .named_vars
            .iter()
            .filter_map(|(n, &t)| match self.pool.op(t) {
                pokemu_solver::Op::Var(id) => Some((n.clone(), id)),
                _ => None,
            })
            .collect();
        v.sort();
        v
    }

    fn begin_path(&mut self) {
        self.cur = NodeId::ROOT;
        self.path.clear();
        self.path_hash = FNV_OFFSET;
        self.branches_this_path = 0;
        self.dead = false;
    }

    fn check_feasible(&mut self, extra: TermId) -> bool {
        let _o = origin::scoped(if self.in_summary {
            "summary"
        } else {
            "feasibility"
        });
        origin::set_path_id(self.path_hash);
        let mut assumptions = self.path.clone();
        assumptions.push(extra);
        match self.solver.check(&self.pool, &assumptions) {
            SatResult::Sat => true,
            SatResult::Unsat => false,
            SatResult::Unknown => {
                // Don't know ≠ infeasible, but the safe degradation is the
                // same: prune the branch. The solver's unknown count marks
                // the exploration incomplete so nobody mistakes the pruned
                // tree for exhaustive coverage.
                self.metrics.unknown_branches.inc();
                pokemu_rt::flight::note("symx.unknown_branch", || {
                    format!("pc_len={}", self.path.len())
                });
                false
            }
        }
    }

    /// Explores every feasible path of `f`, re-running it once per path.
    ///
    /// `f` must be deterministic given the engine's branch decisions: all
    /// inputs must come from [`Executor::fresh_input`]/[`Executor::named_input`]
    /// or constants. Nondeterministic programs are detected (the replay
    /// diverges from the decision tree) and aborted with `complete = false`.
    pub fn explore<T>(&mut self, mut f: impl FnMut(&mut Executor) -> T) -> Exploration<T> {
        assert!(
            !self.exploring,
            "explore is not reentrant; use summarize for nested runs"
        );
        self.exploring = true;
        let _span = pokemu_rt::span!("symx.explore");
        self.tree = DecisionTree::new();
        self.pick_cache.clear();
        let mut paths = Vec::new();
        let mut truncated_any = false;
        let mut deadline_tripped = false;
        let unknown_before = self.solver.stats().unknown;
        let mut iterations = 0usize;
        let iteration_cap = self.config.max_paths.saturating_mul(4).saturating_add(128);
        while !self.tree.fully_explored() && paths.len() < self.config.max_paths {
            if self
                .config
                .deadline
                .is_some_and(|d| std::time::Instant::now() >= d)
            {
                // Out of wall time: keep what we have, flag incompleteness.
                deadline_tripped = true;
                self.stats.deadline_trips += 1;
                self.metrics.deadline_trips.inc();
                pokemu_rt::flight::note("symx.deadline", || {
                    format!("paths_so_far={}", paths.len())
                });
                break;
            }
            iterations += 1;
            if iterations > iteration_cap {
                truncated_any = true;
                break;
            }
            self.begin_path();
            let path_span = pokemu_rt::span!("symx.path", iter = iterations);
            let value = f(self);
            drop(path_span);
            if self.dead {
                self.stats.dead_paths += 1;
                self.metrics.dead_paths.inc();
                if self.branches_this_path >= self.config.max_branches_per_path {
                    self.stats.truncated_paths += 1;
                    truncated_any = true;
                }
                continue;
            }
            self.tree.finish_at(self.cur);
            let model_result = {
                let _o = origin::scoped(if self.in_summary { "summary" } else { "model" });
                origin::set_path_id(self.path_hash);
                self.solver.check_with_model(&self.pool, &self.path)
            };
            let Some(model) = model_result else {
                // The replayed path condition is unsatisfiable (or the query
                // degraded to Unknown). Historically a hard panic; one bad
                // path summary must not sink the exploration — the node is
                // already finished, so count it and move to the next path.
                self.stats.infeasible_paths += 1;
                self.metrics.infeasible_paths.inc();
                pokemu_rt::flight::note("symx.infeasible_path", || {
                    format!("pc_len={} iter={iterations}", self.path.len())
                });
                truncated_any = true;
                continue;
            };
            self.stats.paths += 1;
            self.metrics.paths.inc();
            let path_id = self.path_hash;
            self.metrics.path_cov.set(path_id as usize);
            paths.push(PathOutcome {
                value,
                path_condition: self.path.clone(),
                model,
                path_id,
            });
        }
        let hit_cap = paths.len() >= self.config.max_paths && !self.tree.fully_explored();
        // Any Unknown verdict during this exploration may have pruned a
        // genuinely feasible branch: the tree looks explored but is not.
        let degraded = self.solver.stats().unknown > unknown_before;
        self.exploring = false;
        Exploration {
            complete: self.tree.fully_explored()
                && !truncated_any
                && !hit_cap
                && !deadline_tripped
                && !degraded,
            paths,
            stats: self.stats(),
        }
    }

    /// Pre-explores a sub-computation and folds its paths into a [`Summary`]
    /// (paper §3.3.2, "Summarizing Common Computations").
    ///
    /// `inputs` declares the formal parameters; `f` receives the fresh input
    /// terms and returns the output values of the computation. The returned
    /// summary can be registered with [`Executor::register_summary`], after
    /// which [`Dom::summary_hook`] replaces execution of the real code.
    pub fn summarize(
        &mut self,
        inputs: &[(Width, &str)],
        f: impl FnMut(&mut Executor, &[TermId]) -> Vec<TermId>,
    ) -> Summary {
        self.try_summarize(inputs, f)
            .expect("summary exploration must be exhaustive")
    }

    /// [`Executor::summarize`] that degrades instead of panicking: returns
    /// `None` when the sub-exploration came back incomplete (solver budget
    /// exhausted, deadline tripped, path cap hit). A partial summary would
    /// silently drop machine behaviours, so no summary is the safe answer —
    /// callers fall back to executing the real code.
    pub fn try_summarize(
        &mut self,
        inputs: &[(Width, &str)],
        mut f: impl FnMut(&mut Executor, &[TermId]) -> Vec<TermId>,
    ) -> Option<Summary> {
        let _span = pokemu_rt::span!("symx.summarize");
        // Run on a scratch tree so the caller's exploration is untouched,
        // with a generous path budget independent of the caller's cap: the
        // whole point of a summary is to fold a multi-path computation, so
        // it must be explored exhaustively.
        let saved_tree = std::mem::take(&mut self.tree);
        let saved_cur = self.cur;
        let saved_path = std::mem::take(&mut self.path);
        let saved_exploring = self.exploring;
        let saved_config = self.config;
        let saved_in_summary = self.in_summary;
        self.config.max_paths = self.config.max_paths.max(65_536);
        self.exploring = false;
        self.in_summary = true;

        let formals: Vec<TermId> = inputs
            .iter()
            .enumerate()
            .map(|(i, &(w, name))| self.pool.var(w, &format!("summary_{name}_{i}")))
            .collect();
        let formal_ids: Vec<VarId> = formals
            .iter()
            .map(|&t| match self.pool.op(t) {
                pokemu_solver::Op::Var(v) => v,
                _ => unreachable!("freshly created variable"),
            })
            .collect();
        let result = self.explore(|e| f(e, &formals));
        let summary = result
            .complete
            .then(|| Summary::fold(&mut self.pool, formal_ids, &result.paths));
        if summary.is_none() {
            pokemu_rt::flight::note("symx.summary_incomplete", || {
                format!(
                    "paths={} unknown={}",
                    result.paths.len(),
                    result.stats.unknown
                )
            });
        }

        self.tree = saved_tree;
        self.cur = saved_cur;
        self.path = saved_path;
        self.exploring = saved_exploring;
        self.config = saved_config;
        self.in_summary = saved_in_summary;
        summary
    }

    /// The current path condition (for diagnostics and tests).
    pub fn current_path_condition(&self) -> &[TermId] {
        &self.path
    }

    fn kill_path_at_current_node(&mut self) {
        self.tree.force_done(self.cur, false);
        self.tree.force_done(self.cur, true);
        self.dead = true;
    }
}

impl Dom for Executor {
    type V = TermId;

    fn constant(&mut self, w: Width, v: u64) -> TermId {
        self.pool.constant(w, v)
    }

    fn width(&self, v: TermId) -> Width {
        self.pool.width(v)
    }

    fn as_const(&self, v: TermId) -> Option<u64> {
        self.pool.as_const(v)
    }

    fn add(&mut self, a: TermId, b: TermId) -> TermId {
        self.pool.add(a, b)
    }

    fn sub(&mut self, a: TermId, b: TermId) -> TermId {
        self.pool.sub(a, b)
    }

    fn mul(&mut self, a: TermId, b: TermId) -> TermId {
        self.pool.mul(a, b)
    }

    fn udiv(&mut self, a: TermId, b: TermId) -> TermId {
        self.pool.udiv(a, b)
    }

    fn urem(&mut self, a: TermId, b: TermId) -> TermId {
        self.pool.urem(a, b)
    }

    fn and(&mut self, a: TermId, b: TermId) -> TermId {
        self.pool.and(a, b)
    }

    fn or(&mut self, a: TermId, b: TermId) -> TermId {
        self.pool.or(a, b)
    }

    fn xor(&mut self, a: TermId, b: TermId) -> TermId {
        self.pool.xor(a, b)
    }

    fn not(&mut self, a: TermId) -> TermId {
        self.pool.not(a)
    }

    fn neg(&mut self, a: TermId) -> TermId {
        self.pool.neg(a)
    }

    fn shl(&mut self, a: TermId, b: TermId) -> TermId {
        self.pool.shl(a, b)
    }

    fn lshr(&mut self, a: TermId, b: TermId) -> TermId {
        self.pool.lshr(a, b)
    }

    fn ashr(&mut self, a: TermId, b: TermId) -> TermId {
        self.pool.ashr(a, b)
    }

    fn eq(&mut self, a: TermId, b: TermId) -> TermId {
        self.pool.eq(a, b)
    }

    fn ult(&mut self, a: TermId, b: TermId) -> TermId {
        self.pool.ult(a, b)
    }

    fn slt(&mut self, a: TermId, b: TermId) -> TermId {
        self.pool.slt(a, b)
    }

    fn ite(&mut self, c: TermId, t: TermId, e: TermId) -> TermId {
        self.pool.ite(c, t, e)
    }

    fn extract(&mut self, a: TermId, hi: u8, lo: u8) -> TermId {
        self.pool.extract(a, hi, lo)
    }

    fn concat(&mut self, hi: TermId, lo: TermId) -> TermId {
        self.pool.concat(hi, lo)
    }

    fn zext(&mut self, a: TermId, w: Width) -> TermId {
        self.pool.zext(a, w)
    }

    fn sext(&mut self, a: TermId, w: Width) -> TermId {
        self.pool.sext(a, w)
    }

    fn branch(&mut self, cond: TermId, site: &'static str) -> bool {
        if let Some(c) = self.pool.as_const(cond) {
            return c != 0;
        }
        if self.dead {
            return false;
        }
        if self.branches_this_path >= self.config.max_branches_per_path {
            self.kill_path_at_current_node();
            return false;
        }
        self.stats.branches += 1;
        self.metrics.forks.inc();
        self.branches_this_path += 1;
        let node = self.cur;
        let ncond = self.pool.not(cond);
        // Resolve unknown feasibilities lazily. A direction is checked even
        // when the other one is infeasible, which proves it feasible (the
        // path condition itself is satisfiable): skipping that query would
        // change the solver's learned state, and with it every later model.
        for dir in [false, true] {
            if self.tree.feasibility(node, dir) == Feasibility::Unknown
                && !self.tree.dir_done(node, dir)
            {
                let term = if dir { cond } else { ncond };
                let feas = self.check_feasible(term);
                if !feas {
                    self.metrics.pruned_branches.inc();
                }
                self.tree.set_feasibility(
                    node,
                    dir,
                    if feas {
                        Feasibility::Feasible
                    } else {
                        Feasibility::Infeasible
                    },
                );
            }
        }
        let candidates: Vec<bool> = [false, true]
            .into_iter()
            .filter(|&d| {
                self.tree.feasibility(node, d) == Feasibility::Feasible
                    && !self.tree.dir_done(node, d)
            })
            .collect();
        let dir = match candidates.len() {
            0 => {
                // All directions exhausted or infeasible: the replay is
                // stale (or the program is nondeterministic). Abandon.
                self.kill_path_at_current_node();
                return false;
            }
            1 => candidates[0],
            _ => candidates[self.rng.gen_range(0..candidates.len())],
        };
        // Fold (site, direction) into the path-id hash: the decision list
        // identifies the path, and hashing the site name (not the term id)
        // keeps ids stable across engines and worker scheduling.
        self.path_hash = fnv1a(self.path_hash, site.as_bytes());
        self.path_hash = fnv1a(self.path_hash, &[dir as u8]);
        self.path.push(if dir { cond } else { ncond });
        self.cur = self.tree.child(node, dir);
        dir
    }

    fn concretize(&mut self, v: TermId, site: &'static str) -> u64 {
        if let Some(c) = self.pool.as_const(v) {
            return c;
        }
        let w = self.pool.width(v);
        let mut out = 0u64;
        // MSB-first per-bit branching (§3.1.2): only feasible values are
        // chosen, and across paths every feasible value is eventually tried.
        for i in (0..w).rev() {
            let bit = self.pool.extract(v, i, i);
            if self.branch(bit, site) {
                out |= 1 << i;
            }
        }
        out
    }

    fn pick(&mut self, v: TermId, _site: &'static str) -> u64 {
        if let Some(c) = self.pool.as_const(v) {
            return c;
        }
        if self.dead {
            return 0;
        }
        if let Some(&cached) = self.pick_cache.get(&(self.cur, v)) {
            self.metrics.pick_cache_hits.inc();
            let c = self.pool.constant(self.pool.width(v), cached);
            let eq = self.pool.eq(v, c);
            self.path.push(eq);
            return cached;
        }
        let model = {
            let _o = origin::scoped("pick");
            origin::set_path_id(self.path_hash);
            self.solver.check_with_model(&self.pool, &self.path)
        };
        let model = match model {
            Some(m) => m,
            None => {
                // Path condition became unsatisfiable through assumptions —
                // indicates misuse of `assume`; abandon the path.
                self.kill_path_at_current_node();
                return 0;
            }
        };
        // Evaluate under the model, defaulting unconstrained variables to 0.
        let mut env: HashMap<VarId, u64> = HashMap::new();
        for var in self.pool.variables_of(v) {
            env.insert(var, model.value_or(var, 0));
        }
        let val = self.pool.eval(v, &env);
        let c = self.pool.constant(self.pool.width(v), val);
        let eq = self.pool.eq(v, c);
        self.path.push(eq);
        self.pick_cache.insert((self.cur, v), val);
        val
    }

    fn assume(&mut self, cond: TermId) {
        match self.pool.as_const(cond) {
            Some(0) => self.dead = true,
            Some(_) => {}
            None => self.path.push(cond),
        }
    }

    fn summary_hook(&mut self, key: &'static str, args: &[TermId]) -> Option<Vec<TermId>> {
        let summary = self.summaries.get(key)?;
        self.metrics.summary_hits.inc();
        let pool = &mut self.pool;
        let outputs = self
            .summary_outputs
            .entry((key, args.to_vec()))
            .or_insert_with(|| summary.apply(pool, args));
        Some(outputs.clone())
    }

    fn fresh_input(&mut self, w: Width, name: &str) -> TermId {
        self.named_input(w, name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explores_both_sides_of_a_branch() {
        let mut exec = Executor::new();
        let r = exec.explore(|e| {
            let x = e.fresh_input(8, "x");
            let k = e.constant(8, 42);
            let c = e.eq(x, k);
            e.branch(c, "x==42")
        });
        assert!(r.complete);
        assert_eq!(r.paths.len(), 2);
        // Each path's model must respect the branch taken.
        for p in &r.paths {
            let v = p.model.value_or(VarId(0), 0);
            assert_eq!(p.value, v == 42);
        }
    }

    #[test]
    fn infeasible_paths_are_pruned() {
        // if (x > y) x = y; if (x > y) abort();  — §3.1.2's example: the
        // second condition can never be true.
        let mut exec = Executor::new();
        let r = exec.explore(|e| {
            let mut x = e.fresh_input(8, "x");
            let y = e.fresh_input(8, "y");
            let gt = e.ult(y, x);
            if e.branch(gt, "x>y") {
                x = y;
            }
            let gt2 = e.ult(y, x);
            if e.branch(gt2, "x>y (2)") {
                panic!("infeasible path executed");
            }
        });
        assert!(r.complete);
        assert_eq!(r.paths.len(), 2);
    }

    #[test]
    fn concretize_enumerates_all_feasible_values() {
        let mut exec = Executor::new();
        let r = exec.explore(|e| {
            let x = e.fresh_input(8, "x");
            let hi = e.constant(8, 5);
            let inrange = e.ult(x, hi);
            e.assume(inrange);
            e.concretize(x, "switch")
        });
        assert!(r.complete);
        let mut vals: Vec<u64> = r.paths.iter().map(|p| p.value).collect();
        vals.sort_unstable();
        assert_eq!(vals, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn pick_chooses_one_value_only() {
        let mut exec = Executor::new();
        let r = exec.explore(|e| {
            let x = e.fresh_input(32, "x");
            e.pick(x, "table index")
        });
        assert!(r.complete);
        assert_eq!(r.paths.len(), 1, "pick must not fork");
    }

    #[test]
    fn loop_paths_are_distinguished() {
        // FuzzBALL "considers a different number of executions of a loop as
        // distinguishing a different execution path" (§3.1.2).
        let mut exec = Executor::new();
        let r = exec.explore(|e| {
            let n = e.fresh_input(8, "n");
            let four = e.constant(8, 4);
            let bounded = e.ult(n, four);
            e.assume(bounded);
            let mut count = 0u32;
            loop {
                let i = e.constant(8, count as u64);
                let cont = e.ult(i, n);
                if !e.branch(cont, "loop") {
                    break;
                }
                count += 1;
            }
            count
        });
        assert!(r.complete);
        let mut counts: Vec<u32> = r.paths.iter().map(|p| p.value).collect();
        counts.sort_unstable();
        assert_eq!(counts, vec![0, 1, 2, 3]);
    }

    #[test]
    fn starved_solver_degrades_exploration_instead_of_panicking() {
        let mut exec = Executor::new();
        exec.solver_mut().set_max_conflicts(Some(0));
        let r = exec.explore(|e| {
            let x = e.fresh_input(8, "x");
            let k = e.constant(8, 42);
            let c = e.eq(x, k);
            e.branch(c, "x==42")
        });
        // Every feasibility query came back Unknown, so both directions were
        // pruned: no paths, but crucially no panic and an honest verdict.
        assert!(!r.complete);
        assert!(r.stats.unknown > 0);
        assert_eq!(r.paths.len(), 0);
    }

    #[test]
    fn expired_deadline_stops_exploration_cleanly() {
        let mut exec = Executor::with_config(ExploreConfig {
            deadline: Some(std::time::Instant::now()),
            ..Default::default()
        });
        let r = exec.explore(|e| {
            let x = e.fresh_input(8, "x");
            e.concretize(x, "wide")
        });
        assert!(!r.complete);
        assert_eq!(r.paths.len(), 0);
        assert_eq!(r.stats.deadline_trips, 1);
    }

    #[test]
    fn try_summarize_returns_none_when_solver_is_starved() {
        let mut exec = Executor::new();
        exec.solver_mut().set_max_conflicts(Some(0));
        let s = exec.try_summarize(&[(8, "a")], |e, f| {
            let z = e.constant(8, 0);
            let c = e.eq(f[0], z);
            let one = e.constant(8, 1);
            let two = e.constant(8, 2);
            vec![if e.branch(c, "a==0") { one } else { two }]
        });
        assert!(s.is_none());
    }

    #[test]
    fn path_cap_marks_incomplete() {
        let mut exec = Executor::with_config(ExploreConfig {
            max_paths: 4,
            ..Default::default()
        });
        let r = exec.explore(|e| {
            let x = e.fresh_input(8, "x");
            e.concretize(x, "wide") // 256 feasible values
        });
        assert!(!r.complete);
        assert_eq!(r.paths.len(), 4);
    }

    #[test]
    fn solver_queries_bill_to_their_origin() {
        let before = pokemu_rt::metrics::snapshot();
        let mut exec = Executor::new();
        let r = exec.explore(|e| {
            let x = e.fresh_input(8, "x");
            let k = e.constant(8, 7);
            let c = e.eq(x, k);
            e.branch(c, "x==7")
        });
        assert!(r.complete);
        let d = pokemu_rt::metrics::snapshot().since(&before);
        // Two paths: each needs feasibility resolution at the branch and a
        // path-end model. Floors, not exact counts — sibling tests in this
        // binary hit the same process-global counters concurrently.
        assert!(
            d.counter("solver.queries.feasibility") >= 2,
            "branch feasibility checks must bill to the feasibility origin"
        );
        assert!(
            d.counter("solver.queries.model") >= 2,
            "path-end model extraction must bill to the model origin"
        );
    }

    #[test]
    fn summary_queries_bill_to_the_summary_origin() {
        let before = pokemu_rt::metrics::snapshot();
        let mut exec = Executor::new();
        let s = exec.try_summarize(&[(8, "a")], |e, f| {
            let z = e.constant(8, 0);
            let c = e.eq(f[0], z);
            let one = e.constant(8, 1);
            let two = e.constant(8, 2);
            vec![if e.branch(c, "a==0") { one } else { two }]
        });
        assert!(s.is_some());
        let d = pokemu_rt::metrics::snapshot().since(&before);
        assert!(
            d.counter("solver.queries.summary") >= 2,
            "sub-exploration queries must bill to the summary origin, got:\n{:?}",
            d.counters
                .iter()
                .filter(|(k, _)| k.starts_with("solver.queries"))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn named_inputs_are_stable_across_paths() {
        let mut exec = Executor::new();
        let r = exec.explore(|e| {
            let a = e.named_input(8, "state_al");
            let b = e.named_input(8, "state_al");
            assert_eq!(a, b);
            let z = e.constant(8, 0);
            let c = e.eq(a, z);
            e.branch(c, "al==0")
        });
        assert_eq!(r.paths.len(), 2);
    }

    #[test]
    fn assume_constrains_models() {
        let mut exec = Executor::new();
        let r = exec.explore(|e| {
            let x = e.fresh_input(8, "x");
            let k = e.constant(8, 0xf0);
            let masked = e.and(x, k);
            let v = e.constant(8, 0xa0);
            let c = e.eq(masked, v);
            e.assume(c);
            let lo = e.extract(x, 3, 0);
            let z = e.constant(4, 0);
            let c2 = e.eq(lo, z);
            e.branch(c2, "low nibble zero")
        });
        assert!(r.complete);
        assert_eq!(r.paths.len(), 2);
        for p in &r.paths {
            let v = p.model.value_or(VarId(0), 0);
            assert_eq!(v & 0xf0, 0xa0, "assume must hold in every model");
            assert_eq!(p.value, v & 0x0f == 0);
        }
    }
}
