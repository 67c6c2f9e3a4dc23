//! State-difference minimization (paper §3.4).
//!
//! The decision procedure assigns arbitrary values to bits that the explored
//! path never constrained, which makes generated tests noisy and can even
//! break them (e.g. randomizing the permissions of the code segment that the
//! test itself must be fetched through). The fix is a greedy single pass:
//! start from the solver's satisfying assignment, and for each bit that
//! differs from the *baseline* machine state, try resetting it to the
//! baseline value; keep the reset whenever the path condition still holds.
//!
//! Because the assignment is total, "still holds" needs only *evaluation* of
//! the path condition, never another solver call — the algorithm the paper
//! describes ("our current approach based on evaluation was simple to
//! implement", §3.4). The evaluation is incremental: the path condition is
//! flattened once into topological order with every node's value, and a
//! candidate value for one variable re-evaluates only that variable's
//! fan-out cone and checks only the conjuncts inside it. That is exact
//! because the working assignment satisfies every conjunct between steps
//! and a conjunct outside the cone cannot change.

use std::collections::HashMap;

use pokemu_rt::{FxHashMap, FxHashSet};
use pokemu_solver::{mask, Model, TermId, TermPool, VarId};

/// Statistics from one minimization run (experiment E8).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MinimizeStats {
    /// Bits differing from the baseline before minimization.
    pub bits_before: usize,
    /// Bits differing from the baseline after minimization.
    pub bits_after: usize,
    /// Candidate restores checked against the path condition.
    pub evaluations: usize,
    /// The start model violated the path condition, so nothing was
    /// restored and the model came back unchanged. `false` (valid) by
    /// default.
    pub invalid_model: bool,
}

/// Greedily minimizes `model` against `baseline`, preserving satisfaction of
/// `path_condition`.
///
/// `baseline` maps each variable to its value in the baseline machine state;
/// variables absent from it default to zero. Variables absent from `model`
/// (never constrained by the path) are taken at baseline, matching the
/// motivation of §3.4.
///
/// Returns the minimized model (a total assignment over the union of model
/// and baseline variables) plus statistics. A model that violates the path
/// condition comes back unminimized with [`MinimizeStats::invalid_model`]
/// set.
pub fn minimize(
    pool: &TermPool,
    path_condition: &[TermId],
    model: &Model,
    baseline: &HashMap<VarId, u64>,
) -> (Model, MinimizeStats) {
    let mut stats = MinimizeStats::default();
    let vars = (0..pool.num_vars() as u32).map(VarId);
    let base: Vec<u64> = vars
        .clone()
        .map(|v| mask(pool.var_width(v), baseline.get(&v).copied().unwrap_or(0)))
        .collect();
    // Total working assignment, indexed by variable id: baseline overlaid
    // with the solver model.
    let mut env: Vec<u64> = vars
        .clone()
        .map(|v| {
            mask(
                pool.var_width(v),
                model.value(v).unwrap_or(base[v.0 as usize]),
            )
        })
        .collect();
    let diff_bits = |env: &[u64]| -> usize {
        env.iter()
            .zip(&base)
            .map(|(x, b)| (x ^ b).count_ones() as usize)
            .sum()
    };
    stats.bits_before = diff_bits(&env);

    let mut flat = Flat::new(pool, path_condition, &env);
    stats.invalid_model = !flat.holds();

    // Greedy passes to a fixpoint (bounded): constraints couple variables
    // (e.g. a selector RPL and a descriptor DPL must move together), so a
    // single pass can get stuck where several passes converge. The paper
    // notes the same ("potentially making multiple passes could further
    // reduce the size of the difference", §3.4). Deterministic order: by
    // variable id, then bit index. An invalid start model breaks the
    // invariant the cone evaluation relies on, so it gets no pass at all.
    let passes = if stats.invalid_model { 0 } else { 4 };
    for _pass in 0..passes {
        let mut changed = false;
        for v in vars.clone() {
            let (w, bval) = (pool.var_width(v), base[v.0 as usize]);
            if env[v.0 as usize] == bval {
                continue;
            }
            let cone = flat.cone(v);
            // Whole-variable restore first (cheap and common)...
            stats.evaluations += 1;
            if flat.try_set(pool, &mut env, v, bval, &cone) {
                changed = true;
                continue;
            }
            // ...then bit-by-bit.
            for bit in 0..w {
                let m = 1u64 << bit;
                let cur = env[v.0 as usize];
                if cur & m == bval & m {
                    continue;
                }
                stats.evaluations += 1;
                changed |= flat.try_set(pool, &mut env, v, (cur & !m) | (bval & m), &cone);
            }
        }
        if !changed {
            break;
        }
    }
    stats.bits_after = diff_bits(&env);
    let minimized = Model::from_pairs(vars.zip(env));
    (minimized, stats)
}

/// Whether every conjunct of `path_condition` holds when each variable `v`
/// takes `env[v]`. Each term the conjuncts share is evaluated once.
pub(crate) fn holds(pool: &TermPool, path_condition: &[TermId], env: &[u64]) -> bool {
    Flat::new(pool, path_condition, env).holds()
}

/// A path condition flattened into topological order — ascending term id,
/// see [`TermPool::operands`] — with every node's value under the working
/// assignment.
struct Flat {
    nodes: Vec<FlatNode>,
    vals: Vec<u64>,
    /// Position of each variable's node, if the path condition mentions it.
    var_at: Vec<Option<usize>>,
    /// Scratch: the cone values a rejected candidate must restore.
    saved: Vec<u64>,
}

struct FlatNode {
    term: TermId,
    /// Positions of the operands; slots past `arity` are unused.
    args: [u32; 3],
    arity: u8,
    conjunct: bool,
}

impl Flat {
    fn new(pool: &TermPool, path_condition: &[TermId], env: &[u64]) -> Flat {
        let mut seen = FxHashSet::default();
        let mut terms = Vec::new();
        let mut stack = path_condition.to_vec();
        while let Some(t) = stack.pop() {
            if seen.insert(t) {
                terms.push(t);
                stack.extend(pool.operands(t));
            }
        }
        terms.sort_unstable();
        let at: FxHashMap<TermId, u32> = terms
            .iter()
            .enumerate()
            .map(|(i, &t)| (t, i as u32))
            .collect();
        let mut flat = Flat {
            nodes: Vec::with_capacity(terms.len()),
            vals: Vec::with_capacity(terms.len()),
            var_at: vec![None; env.len()],
            saved: Vec::new(),
        };
        for (i, &term) in terms.iter().enumerate() {
            let mut args = [0; 3];
            let mut arity = 0;
            for (slot, a) in args.iter_mut().zip(pool.operands(term)) {
                *slot = at[&a];
                arity += 1;
            }
            if let pokemu_solver::Op::Var(v) = pool.op(term) {
                flat.var_at[v.0 as usize] = Some(i);
            }
            flat.nodes.push(FlatNode {
                term,
                args,
                arity,
                conjunct: false,
            });
            let v = flat.eval(pool, i, env);
            flat.vals.push(v);
        }
        for t in path_condition {
            flat.nodes[at[t] as usize].conjunct = true;
        }
        flat
    }

    fn eval(&self, pool: &TermPool, i: usize, env: &[u64]) -> u64 {
        let n = &self.nodes[i];
        let mut x = [0; 3];
        for (x, &a) in x.iter_mut().zip(&n.args[..n.arity as usize]) {
            *x = self.vals[a as usize];
        }
        pool.eval_node(n.term, x, |v| env[v.0 as usize])
    }

    /// Whether every conjunct holds.
    fn holds(&self) -> bool {
        self.nodes
            .iter()
            .zip(&self.vals)
            .all(|(n, &v)| !n.conjunct || v == 1)
    }

    /// The fan-out cone of `v`: its own node and every node depending on
    /// it, in topological order. Empty when the path condition does not
    /// mention `v`.
    fn cone(&self, v: VarId) -> Vec<usize> {
        let Some(root) = self.var_at[v.0 as usize] else {
            return Vec::new();
        };
        let mut inside = vec![false; self.nodes.len()];
        inside[root] = true;
        let mut cone = vec![root];
        for (i, n) in self.nodes.iter().enumerate().skip(root + 1) {
            if n.args[..n.arity as usize]
                .iter()
                .any(|&a| inside[a as usize])
            {
                inside[i] = true;
                cone.push(i);
            }
        }
        cone
    }

    /// Sets `v` to `val` and re-evaluates its `cone`. Keeps the change if
    /// every conjunct in the cone still holds; otherwise restores the old
    /// values and returns `false`.
    fn try_set(
        &mut self,
        pool: &TermPool,
        env: &mut [u64],
        v: VarId,
        val: u64,
        cone: &[usize],
    ) -> bool {
        let old = std::mem::replace(&mut env[v.0 as usize], val);
        self.saved.clear();
        for &i in cone {
            self.saved.push(self.vals[i]);
            self.vals[i] = self.eval(pool, i, env);
            if self.nodes[i].conjunct && self.vals[i] != 1 {
                for (&j, &s) in cone.iter().zip(&self.saved) {
                    self.vals[j] = s;
                }
                env[v.0 as usize] = old;
                return false;
            }
        }
        true
    }
}

/// The locations where `model` still differs from `baseline`, as
/// `(variable, value)` pairs sorted by variable. This is exactly the "test
/// state" the generator must establish (paper §4.2).
pub fn diff_from_baseline(
    pool: &TermPool,
    model: &Model,
    baseline: &HashMap<VarId, u64>,
) -> Vec<(VarId, u64)> {
    let mut out = Vec::new();
    for (v, val) in model.iter() {
        let w = pool.var_width(v);
        let b = mask(w, baseline.get(&v).copied().unwrap_or(0));
        if val != b {
            out.push((v, val));
        }
    }
    out.sort_unstable_by_key(|&(v, _)| v);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dom::Dom;
    use crate::engine::Executor;

    #[test]
    fn unconstrained_bits_return_to_baseline() {
        let mut exec = Executor::new();
        let r = exec.explore(|e| {
            let x = e.fresh_input(32, "x");
            // Constrain only bit 31.
            let sign = e.extract(x, 31, 31);
            e.branch(sign, "sign")
        });
        assert_eq!(r.paths.len(), 2);
        let mut baseline = HashMap::new();
        baseline.insert(VarId(0), 0u64);
        for p in &r.paths {
            let (min, stats) = minimize(exec.pool(), &p.path_condition, &p.model, &baseline);
            let v = min.value_or(VarId(0), 0);
            if p.value {
                // Sign bit must stay 1; all other bits must return to 0.
                assert_eq!(v, 0x8000_0000, "only the constrained bit may differ");
                assert_eq!(stats.bits_after, 1);
            } else {
                assert_eq!(v, 0, "fully unconstrained path should equal baseline");
                assert_eq!(stats.bits_after, 0);
            }
        }
    }

    #[test]
    fn minimization_never_breaks_the_path_condition() {
        let mut exec = Executor::new();
        let r = exec.explore(|e| {
            let x = e.fresh_input(16, "x");
            let y = e.fresh_input(16, "y");
            let s = e.add(x, y);
            let k = e.constant(16, 0x1234);
            let c = e.eq(s, k);
            e.branch(c, "sum")
        });
        let baseline = HashMap::new();
        for p in &r.paths {
            let (min, _) = minimize(exec.pool(), &p.path_condition, &p.model, &baseline);
            let mut cache = HashMap::new();
            let mut env = HashMap::new();
            for (v, val) in min.iter() {
                env.insert(v, val);
            }
            for &t in &p.path_condition {
                assert_eq!(exec.pool().eval_cached(t, &env, &mut cache), 1);
            }
        }
    }

    #[test]
    fn invalid_model_comes_back_unchanged_and_flagged() {
        let mut pool = pokemu_solver::TermPool::new();
        let x = pool.var(8, "x");
        let y = pool.var(8, "y");
        let five = pool.constant(8, 5);
        let pc = [pool.eq(x, five), pool.ult(y, five)];
        // x = 7 violates `x == 5`; y = 3 alone could return to baseline.
        let model = Model::from_pairs([(VarId(0), 7u64), (VarId(1), 3u64)]);
        let (min, stats) = minimize(&pool, &pc, &model, &HashMap::new());
        assert_eq!(min, model, "nothing may be restored");
        assert!(stats.invalid_model);
        assert_eq!((stats.bits_before, stats.bits_after), (5, 5));
        assert_eq!(stats.evaluations, 0);
    }

    #[test]
    fn diff_lists_only_changed_locations() {
        let mut pool = pokemu_solver::TermPool::new();
        let _a = pool.var(8, "a");
        let _b = pool.var(8, "b");
        let model = Model::from_pairs([(VarId(0), 5u64), (VarId(1), 7u64)]);
        let mut baseline = HashMap::new();
        baseline.insert(VarId(0), 5u64);
        let d = diff_from_baseline(&pool, &model, &baseline);
        assert_eq!(d, vec![(VarId(1), 7)]);
    }
}
