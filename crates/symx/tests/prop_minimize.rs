//! Property test for state-difference minimization: the incremental
//! (fan-out cone) minimizer returns exactly what full re-evaluation of the
//! path condition returns.
//!
//! [`reference`] is the full-evaluation minimizer the cone version replaced,
//! kept verbatim except for its start check (see there). Path conditions
//! are random conjunctions over variables of widths 1 to 32, built so that
//! they hold under the start assignment: conjuncts shared by several
//! variables, duplicate conjuncts, bare width-1 variables, and variables
//! the path condition never mentions. A quarter of the cases instead start
//! from a model that violates the path condition, which must come back
//! unchanged and flagged.

use std::collections::HashMap;

use pokemu_rt::prop::Gen;
use pokemu_solver::{mask, Model, TermId, TermPool, VarId, Width};
use pokemu_symx::{minimize, MinimizeStats};

/// The full-evaluation minimizer: every candidate restore re-evaluates the
/// whole path condition from scratch. Identical to the replaced
/// implementation except that its `debug_assert!` of a valid start model
/// is left to the caller, which only calls it with one (a debug build
/// would panic otherwise, and its extra evaluation would skew
/// `evaluations`).
fn reference(
    pool: &TermPool,
    path_condition: &[TermId],
    model: &Model,
    baseline: &HashMap<VarId, u64>,
) -> (Model, MinimizeStats) {
    let mut stats = MinimizeStats::default();
    let base = |v: VarId| baseline.get(&v).copied().unwrap_or(0);

    let mut env: HashMap<VarId, u64> = HashMap::new();
    for i in 0..pool.num_vars() {
        let v = VarId(i as u32);
        let w = pool.var_width(v);
        env.insert(v, mask(w, model.value(v).unwrap_or_else(|| base(v))));
    }

    let satisfied = |env: &HashMap<VarId, u64>, stats: &mut MinimizeStats| -> bool {
        stats.evaluations += 1;
        let mut cache = HashMap::new();
        path_condition
            .iter()
            .all(|&t| pool.eval_cached(t, env, &mut cache) == 1)
    };

    let mut vars: Vec<VarId> = env.keys().copied().collect();
    vars.sort_unstable();

    for &v in &vars {
        let w = pool.var_width(v);
        stats.bits_before += ((env[&v] ^ mask(w, base(v))).count_ones()) as usize;
    }

    for _pass in 0..4 {
        let mut changed = false;
        for &v in &vars {
            let w = pool.var_width(v);
            let bval = mask(w, base(v));
            let cur = env[&v];
            if cur == bval {
                continue;
            }
            env.insert(v, bval);
            if satisfied(&env, &mut stats) {
                changed = true;
                continue;
            }
            env.insert(v, cur);
            for bit in 0..w {
                let m = 1u64 << bit;
                let cur = env[&v];
                if cur & m == bval & m {
                    continue;
                }
                let flipped = (cur & !m) | (bval & m);
                env.insert(v, flipped);
                if !satisfied(&env, &mut stats) {
                    env.insert(v, cur);
                } else {
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    for &v in &vars {
        let w = pool.var_width(v);
        stats.bits_after += ((env[&v] ^ mask(w, base(v))).count_ones()) as usize;
    }

    (Model::from_pairs(env), stats)
}

/// A random width drawn to make narrow variables (and so collisions with
/// the baseline) common.
fn width(g: &mut Gen) -> Width {
    match g.range(0u8..4) {
        0 => *g.choose(&[1, 2, 3, 4]),
        1 => *g.choose(&[8, 16, 32]),
        _ => g.range(1u8..33),
    }
}

/// A leaf of width `w`: a slice or extension of a random variable, or a
/// constant.
fn leaf(g: &mut Gen, pool: &mut TermPool, vars: &[TermId], w: Width) -> TermId {
    if g.bool(0.2) {
        return pool.constant(w, g.gen());
    }
    let v = *g.choose(vars);
    let vw = pool.width(v);
    if vw > w {
        let lo = g.range(0..vw - w + 1);
        pool.extract(v, lo + w - 1, lo)
    } else if vw < w {
        if g.bool(0.5) {
            pool.zext(v, w)
        } else {
            pool.sext(v, w)
        }
    } else {
        v
    }
}

/// A random term of width `w` over `vars`.
fn term(g: &mut Gen, pool: &mut TermPool, vars: &[TermId], w: Width, depth: u32) -> TermId {
    if depth == 0 || g.bool(0.3) {
        return leaf(g, pool, vars, w);
    }
    let a = term(g, pool, vars, w, depth - 1);
    let mut b = term(g, pool, vars, w, depth - 1);
    match g.range(0u8..14) {
        0 => pool.add(a, b),
        1 => pool.sub(a, b),
        2 => pool.xor(a, b),
        3 => pool.and(a, b),
        4 => pool.or(a, b),
        5 => pool.mul(a, b),
        6 => pool.udiv(a, b),
        7 => pool.urem(a, b),
        op @ 8..=10 => {
            // Mostly in-range shift amounts, sometimes oversized ones.
            if g.bool(0.7) {
                let k = pool.constant(w, 31);
                b = pool.and(b, k);
            }
            match op {
                8 => pool.shl(a, b),
                9 => pool.lshr(a, b),
                _ => pool.ashr(a, b),
            }
        }
        11 => {
            let c = cond(g, pool, vars, depth - 1);
            pool.ite(c, a, b)
        }
        12 if w >= 2 => {
            let split = g.range(1..w);
            let hi = pool.extract(a, w - 1, split);
            let lo = pool.extract(b, split - 1, 0);
            pool.concat(hi, lo)
        }
        _ => pool.not(a),
    }
}

/// A random width-1 term over `vars`.
fn cond(g: &mut Gen, pool: &mut TermPool, vars: &[TermId], depth: u32) -> TermId {
    let w = width(g);
    let a = term(g, pool, vars, w, depth);
    let b = term(g, pool, vars, w, depth);
    match g.range(0u8..if depth > 0 { 8 } else { 7 }) {
        0 => pool.eq(a, b),
        1 => pool.ne(a, b),
        2 => pool.ult(a, b),
        3 => pool.ule(a, b),
        4 => pool.slt(a, b),
        5 => pool.sle(a, b),
        6 => {
            let i = g.range(0..w);
            pool.extract(a, i, i)
        }
        _ => {
            let c = cond(g, pool, vars, depth - 1);
            let d = cond(g, pool, vars, depth - 1);
            if g.bool(0.5) {
                pool.bool_and(c, d)
            } else {
                pool.bool_or(c, d)
            }
        }
    }
}

/// A random minimization problem: the pool, its path condition, a start
/// model, a baseline, and whether the total start assignment satisfies
/// the path condition.
struct Case {
    pool: TermPool,
    path_condition: Vec<TermId>,
    model: Model,
    baseline: HashMap<VarId, u64>,
    valid: bool,
}

fn case(g: &mut Gen) -> Case {
    let mut pool = TermPool::new();
    let n = g.range(1usize..7);
    let vars: Vec<TermId> = (0..n)
        .map(|i| {
            let w = width(g);
            pool.var(w, &format!("v{i}"))
        })
        .collect();
    // Variables the path condition never mentions.
    for i in 0..g.range(0usize..3) {
        let w = width(g);
        pool.var(w, &format!("absent{i}"));
    }

    // Baseline (absent entries read zero) and a start model that differs
    // from it in a few bits, or entirely; variables missing from the model
    // start at baseline.
    let mut baseline = HashMap::new();
    let mut model = Model::new();
    let mut start: HashMap<VarId, u64> = HashMap::new();
    for i in 0..pool.num_vars() {
        let v = VarId(i as u32);
        let w = pool.var_width(v);
        let b = if g.bool(0.8) {
            let b = mask(w, g.gen());
            baseline.insert(v, b);
            b
        } else {
            0
        };
        let value = if g.bool(0.8) {
            let m = if g.bool(0.5) {
                mask(w, g.gen::<u64>() & g.gen::<u64>() & g.gen::<u64>()) ^ b
            } else {
                mask(w, g.gen())
            };
            model.set(v, m);
            m
        } else {
            b
        };
        start.insert(v, value);
    }

    // Conjuncts that hold under the start assignment: a random condition,
    // negated when it is false there.
    let mut path_condition = Vec::new();
    for _ in 0..g.range(1usize..9) {
        let depth = g.range(0u32..4);
        let mut c = if g.bool(0.15) {
            match vars.iter().find(|&&v| pool.width(v) == 1) {
                Some(&v) => v,
                None => cond(g, &mut pool, &vars, depth),
            }
        } else {
            cond(g, &mut pool, &vars, depth)
        };
        if pool.eval(c, &start) != 1 {
            c = pool.not(c);
        }
        path_condition.push(c);
        if g.bool(0.2) {
            let dup = *g.choose(&path_condition);
            path_condition.push(dup);
        }
    }
    let valid = g.bool(0.75);
    if !valid {
        let i = g.range(0..path_condition.len());
        path_condition[i] = pool.not(path_condition[i]);
    }
    Case {
        pool,
        path_condition,
        model,
        baseline,
        valid,
    }
}

/// The total start assignment: baseline overlaid with the model.
fn start_assignment(c: &Case) -> Model {
    Model::from_pairs((0..c.pool.num_vars()).map(|i| {
        let v = VarId(i as u32);
        let b = c.baseline.get(&v).copied().unwrap_or(0);
        (v, mask(c.pool.var_width(v), c.model.value(v).unwrap_or(b)))
    }))
}

fn bits_from_baseline(c: &Case, m: &Model) -> usize {
    m.iter()
        .map(|(v, x)| {
            let b = mask(
                c.pool.var_width(v),
                c.baseline.get(&v).copied().unwrap_or(0),
            );
            (x ^ b).count_ones() as usize
        })
        .sum()
}

pokemu_rt::prop! {
    /// On a valid start model the cone minimizer and full re-evaluation
    /// agree on the model, the bit counts and the number of candidates
    /// checked; an invalid one comes back unchanged and flagged.
    fn cone_minimizer_matches_full_evaluation(g, cases = 400) {
        let c = case(g);
        let (got, stats) = minimize(&c.pool, &c.path_condition, &c.model, &c.baseline);
        let start = start_assignment(&c);
        assert_eq!(stats.bits_before, bits_from_baseline(&c, &start));
        if c.valid {
            let (want, want_stats) = reference(&c.pool, &c.path_condition, &c.model, &c.baseline);
            assert!(!stats.invalid_model, "valid start model flagged invalid");
            assert_eq!(got, want, "minimized models differ");
            assert_eq!(stats, want_stats);
        } else {
            assert!(stats.invalid_model, "invalid start model not flagged");
            assert_eq!(got, start, "an invalid start model must come back unchanged");
            assert_eq!(stats.bits_after, stats.bits_before);
        }
    }
}
