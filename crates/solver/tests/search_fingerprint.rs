//! Pins the SAT core's search, not just its verdicts.
//!
//! Exploration feeds one incremental [`BvSolver`] thousands of queries, and
//! every query leaves state behind for the next: reordered watch lists, a
//! refilled decision heap, learned clauses, bumped activities and saved
//! phases. A change to the core that keeps every verdict right can still
//! change which model a later query returns, and with it every lifted test
//! and corpus program. This test runs a seeded stream of queries shaped like
//! exploration and folds each query's result, its SAT-core work (decisions,
//! propagations, conflicts, restarts) and its model into one hash, which
//! must equal the constant recorded for the current search.
//!
//! The stream:
//! - grows a path condition one branch at a time and asks both directions
//!   of each new branch under the current prefix;
//! - builds its branch conditions from `mul`, `udiv` and `urem` terms, so
//!   the searches conflict, restart and, past about 4,500 conflicts in one
//!   solver, rescale the variable activities;
//! - asks for a model at each path end and backs up to a shorter prefix.
//!
//! A deliberate change to the search (a different heap tie-break, clause
//! literal order, restart schedule, ...) must re-record [`FINGERPRINT`] and
//! regenerate everything downstream that depends on solver models.

use pokemu_rt::Rng;
use pokemu_solver::{BvSolver, TermId, TermPool, VarId};

/// The hash of the whole query stream under the current search.
const FINGERPRINT: u64 = 0x8ffc_b079_6493_fb17;

/// Conflicts after which the activity increment (×1/0.95 per conflict)
/// passes the 1e100 rescale limit: 100·ln 10 / ln(1/0.95) ≈ 4,489.
const RESCALE_CONFLICTS: u64 = 4_489;

const SEED: u64 = 0x5EA2_C4F1;
const WIDTH: u8 = 12;
const PATHS: usize = 30;
const DEPTH: usize = 6;

/// FNV-1a over the little-endian bytes of each folded word.
struct Fold(u64);

impl Fold {
    fn add(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// The query stream's solver, pool and running hash.
struct Stream {
    pool: TermPool,
    solver: BvSolver,
    vars: Vec<TermId>,
    rng: Rng,
    fold: Fold,
    queries: u64,
}

impl Stream {
    fn new(seed: u64) -> Self {
        let mut pool = TermPool::new();
        let vars = ["a", "b", "c", "d"]
            .iter()
            .map(|name| pool.var(WIDTH, name))
            .collect();
        Stream {
            pool,
            solver: BvSolver::new(),
            vars,
            rng: Rng::seed_from_u64(seed),
            fold: Fold(0xcbf2_9ce4_8422_2325),
            queries: 0,
        }
    }

    fn operand(&mut self) -> TermId {
        if self.rng.gen_bool(0.75) {
            self.vars[self.rng.gen_range(0..self.vars.len())]
        } else {
            let k = self.rng.gen_range(1..1u64 << WIDTH);
            self.pool.constant(WIDTH, k)
        }
    }

    /// A fresh branch condition: an arithmetic term over the variables
    /// compared against a constant or another term.
    fn branch(&mut self) -> TermId {
        let (a, b) = (self.operand(), self.operand());
        let t = match self.rng.gen_range(0..4u32) {
            0 => self.pool.mul(a, b),
            1 => self.pool.udiv(a, b),
            2 => self.pool.urem(a, b),
            _ => {
                let m = self.pool.mul(a, b);
                let c = self.operand();
                self.pool.add(m, c)
            }
        };
        let rhs = if self.rng.gen_bool(0.5) {
            let k = self.rng.gen::<u64>() & ((1 << WIDTH) - 1);
            self.pool.constant(WIDTH, k)
        } else {
            self.operand()
        };
        match self.rng.gen_range(0..3u32) {
            0 => self.pool.eq(t, rhs),
            1 => self.pool.ult(t, rhs),
            _ => self.pool.slt(t, rhs),
        }
    }

    /// One query under `assumptions`: folds its verdict, its SAT-core work
    /// and, when satisfiable, the value of every variable blasted so far.
    fn query(&mut self, assumptions: &[TermId]) -> bool {
        let before = self.solver.stats().sat_core;
        let model = self.solver.check_with_model(&self.pool, assumptions);
        let after = self.solver.stats().sat_core;
        self.queries += 1;
        self.fold.add(u64::from(model.is_some()));
        self.fold.add(after.decisions - before.decisions);
        self.fold.add(after.propagations - before.propagations);
        self.fold.add(after.conflicts - before.conflicts);
        self.fold.add(after.restarts - before.restarts);
        if let Some(m) = &model {
            for i in 0..self.pool.num_vars() {
                self.fold.add(m.value(VarId(i as u32)).unwrap_or(u64::MAX));
            }
        }
        model.is_some()
    }

    /// Explores `PATHS` paths depth first: both directions of each new
    /// branch, a model at each path end, then back up to a shorter prefix.
    fn run(&mut self) {
        let mut path: Vec<TermId> = Vec::new();
        for _ in 0..PATHS {
            while path.len() < DEPTH {
                let c = self.branch();
                let nc = self.pool.not(c);
                let mut taken = Vec::new();
                for dir in [c, nc] {
                    path.push(dir);
                    if self.query(&path) {
                        taken.push(dir);
                    }
                    path.pop();
                }
                match taken.len() {
                    0 => break,
                    n => path.push(taken[self.rng.gen_range(0..n)]),
                }
            }
            self.query(&path);
            let keep = self.rng.gen_range(0..path.len().max(1));
            path.truncate(keep);
        }
    }
}

#[test]
fn query_stream_matches_the_recorded_search() {
    let mut s = Stream::new(SEED);
    s.run();
    let stats = s.solver.stats();
    assert_eq!(
        stats.unknown, 0,
        "no budget is set, so no query may give up"
    );
    assert!(
        stats.sat_core.restarts > 0,
        "the stream must exercise restarts"
    );
    assert!(
        stats.sat_core.conflicts > RESCALE_CONFLICTS,
        "the stream must reach an activity rescale: {} conflicts",
        stats.sat_core.conflicts
    );
    assert_eq!(
        s.fold.0, FINGERPRINT,
        "the SAT search changed: {} queries hash to {:#018x}",
        s.queries, s.fold.0
    );
}
