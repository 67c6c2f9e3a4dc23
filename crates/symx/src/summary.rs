//! Path summaries for common computations (paper §3.3.2).
//!
//! Some sub-computations — the motivating example is Bochs's segment
//! descriptor cache update, with 23 paths per segment — appear in many
//! instructions and would multiply the path count (23^6 ≈ 1.48·10^8 for six
//! segments). Instead, the engine pre-explores the computation once and folds
//! its `(path condition, outputs)` pairs into nested if-then-else terms:
//! `p1 ? v1 : (p2 ? v2 : ...)`. At use sites, the summary is instantiated by
//! substituting the actual arguments for the formal input variables, adding a
//! single (large) constraint instead of many branches.

use std::collections::HashMap;

use pokemu_solver::{TermId, TermPool, VarId};

use crate::engine::PathOutcome;

/// A folded multi-path computation: formal inputs plus one ITE-tree per
/// output.
#[derive(Debug, Clone)]
pub struct Summary {
    formals: Vec<VarId>,
    outputs: Vec<TermId>,
    cases: usize,
}

impl Summary {
    /// Folds exploration results into a summary.
    ///
    /// Every path must produce the same number of outputs. The last path
    /// serves as the default arm, which is sound because exhaustive
    /// exploration guarantees the path conditions cover the input space.
    ///
    /// # Panics
    ///
    /// Panics if `paths` is empty or output arities differ.
    pub fn fold(
        pool: &mut TermPool,
        formals: Vec<VarId>,
        paths: &[PathOutcome<Vec<TermId>>],
    ) -> Self {
        assert!(!paths.is_empty(), "cannot summarize zero paths");
        let arity = paths[0].value.len();
        for p in paths {
            assert_eq!(p.value.len(), arity, "inconsistent summary output arity");
        }
        let mut outputs = Vec::with_capacity(arity);
        for out_idx in 0..arity {
            // Default arm: the last path's value.
            let mut acc = paths[paths.len() - 1].value[out_idx];
            for p in paths[..paths.len() - 1].iter().rev() {
                let cond = conjoin(pool, &p.path_condition);
                acc = pool.ite(cond, p.value[out_idx], acc);
            }
            outputs.push(acc);
        }
        Summary {
            formals,
            outputs,
            cases: paths.len(),
        }
    }

    /// Number of folded cases (execution paths of the summarized code).
    pub fn cases(&self) -> usize {
        self.cases
    }

    /// Number of outputs per invocation.
    pub fn arity(&self) -> usize {
        self.outputs.len()
    }

    /// Instantiates the summary with actual arguments, returning one term per
    /// output.
    ///
    /// # Panics
    ///
    /// Panics if `args` does not match the formal parameter count or widths.
    pub fn apply(&self, pool: &mut TermPool, args: &[TermId]) -> Vec<TermId> {
        assert_eq!(
            args.len(),
            self.formals.len(),
            "summary argument count mismatch"
        );
        let map: HashMap<VarId, TermId> = self
            .formals
            .iter()
            .copied()
            .zip(args.iter().copied())
            .collect();
        self.outputs
            .iter()
            .map(|&o| pool.substitute(o, &map))
            .collect()
    }
}

/// Conjunction of a list of width-1 terms (true when empty).
pub fn conjoin(pool: &mut TermPool, conds: &[TermId]) -> TermId {
    let mut acc = pool.true_();
    for &c in conds {
        acc = pool.and(acc, c);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dom::Dom;
    use crate::engine::Executor;

    /// A small multi-path function: saturating increment with a quirk.
    fn quirky_inc<D: Dom>(d: &mut D, x: D::V) -> D::V {
        let max = d.constant(8, 0xff);
        let is_max = d.eq(x, max);
        if d.branch(is_max, "saturate") {
            max
        } else {
            let ten = d.constant(8, 10);
            let small = d.ult(x, ten);
            if d.branch(small, "small") {
                let two = d.constant(8, 2);
                d.add(x, two)
            } else {
                let one = d.constant(8, 1);
                d.add(x, one)
            }
        }
    }

    #[test]
    fn summary_agrees_with_direct_execution() {
        let mut exec = Executor::new();
        let summary = exec.summarize(&[(8, "x")], |e, formals| vec![quirky_inc(e, formals[0])]);
        assert_eq!(summary.cases(), 3);
        assert_eq!(summary.arity(), 1);

        // Check the folded formula against the concrete function on all inputs.
        for x in 0..=255u64 {
            let arg = exec.pool_mut().constant(8, x);
            let out = summary.apply(exec.pool_mut(), &[arg]);
            let got = exec
                .pool()
                .as_const(out[0])
                .expect("constant input must fold to a constant output");
            let mut conc = crate::dom::Concrete::new();
            let cx = conc.constant(8, x);
            let result = quirky_inc(&mut conc, cx);
            let expect = conc.as_const(result).unwrap();
            assert_eq!(got, expect, "summary({x})");
        }
    }

    #[test]
    fn summary_replaces_branching_at_use_sites() {
        let mut exec = Executor::new();
        let summary = exec.summarize(&[(8, "x")], |e, formals| vec![quirky_inc(e, formals[0])]);
        exec.register_summary("quirky_inc", summary);

        // With the summary, the caller's exploration has a single path even
        // though the summarized code has three.
        let r = exec.explore(|e| {
            let x = e.fresh_input(8, "input");
            let out = e
                .summary_hook("quirky_inc", &[x])
                .expect("summary registered")
                .remove(0);
            out
        });
        assert!(r.complete);
        assert_eq!(r.paths.len(), 1, "summarized call must not fork");
    }

    #[test]
    fn memoized_hook_matches_direct_application() {
        let mut exec = Executor::new();
        let summary = exec.summarize(&[(8, "x")], |e, formals| vec![quirky_inc(e, formals[0])]);
        let mut direct = |name: &str| {
            let x = exec.named_input(8, name);
            summary.apply(exec.pool_mut(), &[x])
        };
        let (direct_x, direct_y) = (direct("x"), direct("y"));
        exec.register_summary("quirky_inc", summary);
        let interned = exec.pool().len();
        let r = exec.explore(|e| {
            let (x, y) = (e.fresh_input(8, "x"), e.fresh_input(8, "y"));
            let mut hook = |arg| e.summary_hook("quirky_inc", &[arg]).expect("registered");
            [hook(x), hook(y), hook(x)]
        });
        assert_eq!(r.paths[0].value, [direct_x.clone(), direct_y, direct_x]);
        assert_eq!(exec.pool().len(), interned, "nothing new interned");

        // Re-registering the key drops the cached outputs.
        let identity = exec.summarize(&[(8, "x")], |_, formals| vec![formals[0]]);
        exec.register_summary("quirky_inc", identity);
        let r = exec.explore(|e| {
            let x = e.fresh_input(8, "x");
            (x, e.summary_hook("quirky_inc", &[x]).expect("registered"))
        });
        let (x, out) = &r.paths[0].value;
        assert_eq!(out, &vec![*x]);
    }

    #[test]
    fn conjoin_of_empty_is_true() {
        let mut pool = TermPool::new();
        let t = conjoin(&mut pool, &[]);
        assert_eq!(pool.as_const(t), Some(1));
    }
}
