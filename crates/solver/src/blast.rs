//! Bit-blasting: lowering bit-vector terms to CNF over the SAT core.
//!
//! Every [`TermId`] is lowered once to a vector of SAT literals (LSB first)
//! and cached, so repeated feasibility queries over a growing path condition
//! only blast the new branch condition. Word operators become standard
//! circuits: ripple-carry adders, borrow-chain comparators, barrel shifters,
//! shift-add multipliers and restoring dividers; all respect the SMT-LIB
//! `QF_BV` corner-case conventions used by [`crate::TermPool`].

use crate::sat::{Lit, Sat, SatVar};
use crate::term::{Op, TermId, TermPool, VarId};

/// Lowers terms to CNF incrementally and owns the SAT solver.
#[derive(Debug)]
pub struct Blaster {
    sat: Sat,
    /// Cached literal vectors per term (LSB first), indexed by `TermId`.
    bits: Vec<Option<Vec<Lit>>>,
    /// SAT variables allocated for each symbolic BV variable.
    var_bits: Vec<Option<Vec<Lit>>>,
    lit_true: Lit,
}

impl Default for Blaster {
    fn default() -> Self {
        Self::new()
    }
}

impl Blaster {
    /// Creates a blaster with an empty SAT instance.
    pub fn new() -> Self {
        let mut sat = Sat::new();
        let t = sat.new_var();
        let lit_true = Lit::pos(t);
        sat.add_clause(&[lit_true]);
        Blaster {
            sat,
            bits: Vec::new(),
            var_bits: Vec::new(),
            lit_true,
        }
    }

    /// The underlying SAT solver (for `solve` and `model_value`).
    pub fn sat(&mut self) -> &mut Sat {
        &mut self.sat
    }

    /// Immutable access to the SAT solver, e.g. to read statistics.
    pub fn sat_ref(&self) -> &Sat {
        &self.sat
    }

    fn lit_const(&self, b: bool) -> Lit {
        if b {
            self.lit_true
        } else {
            self.lit_true.negate()
        }
    }

    fn as_const(&self, l: Lit) -> Option<bool> {
        if l == self.lit_true {
            Some(true)
        } else if l == self.lit_true.negate() {
            Some(false)
        } else {
            None
        }
    }

    fn fresh(&mut self) -> Lit {
        Lit::pos(self.sat.new_var())
    }

    fn and_gate(&mut self, a: Lit, b: Lit) -> Lit {
        match (self.as_const(a), self.as_const(b)) {
            (Some(false), _) | (_, Some(false)) => self.lit_const(false),
            (Some(true), _) => b,
            (_, Some(true)) => a,
            _ if a == b => a,
            _ if a == b.negate() => self.lit_const(false),
            _ => {
                let o = self.fresh();
                self.sat.add_clause(&[a.negate(), b.negate(), o]);
                self.sat.add_clause(&[a, o.negate()]);
                self.sat.add_clause(&[b, o.negate()]);
                o
            }
        }
    }

    fn or_gate(&mut self, a: Lit, b: Lit) -> Lit {
        self.and_gate(a.negate(), b.negate()).negate()
    }

    fn xor_gate(&mut self, a: Lit, b: Lit) -> Lit {
        match (self.as_const(a), self.as_const(b)) {
            (Some(false), _) => b,
            (Some(true), _) => b.negate(),
            (_, Some(false)) => a,
            (_, Some(true)) => a.negate(),
            _ if a == b => self.lit_const(false),
            _ if a == b.negate() => self.lit_const(true),
            _ => {
                let o = self.fresh();
                self.sat.add_clause(&[a.negate(), b.negate(), o.negate()]);
                self.sat.add_clause(&[a, b, o.negate()]);
                self.sat.add_clause(&[a.negate(), b, o]);
                self.sat.add_clause(&[a, b.negate(), o]);
                o
            }
        }
    }

    fn mux_gate(&mut self, c: Lit, t: Lit, e: Lit) -> Lit {
        match self.as_const(c) {
            Some(true) => return t,
            Some(false) => return e,
            None => {}
        }
        if t == e {
            return t;
        }
        match (self.as_const(t), self.as_const(e)) {
            (Some(true), Some(false)) => return c,
            (Some(false), Some(true)) => return c.negate(),
            (Some(true), None) => return self.or_gate(c, e),
            (Some(false), None) => return self.and_gate(c.negate(), e),
            (None, Some(true)) => return self.or_gate(c.negate(), t),
            (None, Some(false)) => return self.and_gate(c, t),
            _ => {}
        }
        let o = self.fresh();
        self.sat.add_clause(&[c.negate(), t.negate(), o]);
        self.sat.add_clause(&[c.negate(), t, o.negate()]);
        self.sat.add_clause(&[c, e.negate(), o]);
        self.sat.add_clause(&[c, e, o.negate()]);
        // Redundant clauses improve propagation when t == e at runtime.
        self.sat.add_clause(&[t.negate(), e.negate(), o]);
        self.sat.add_clause(&[t, e, o.negate()]);
        o
    }

    fn full_adder(&mut self, a: Lit, b: Lit, cin: Lit) -> (Lit, Lit) {
        let axb = self.xor_gate(a, b);
        let s = self.xor_gate(axb, cin);
        let t1 = self.and_gate(a, b);
        let t2 = self.and_gate(axb, cin);
        let cout = self.or_gate(t1, t2);
        (s, cout)
    }

    fn add_vec(&mut self, a: &[Lit], b: &[Lit], mut carry: Lit) -> Vec<Lit> {
        let mut out = Vec::with_capacity(a.len());
        for i in 0..a.len() {
            let (s, c) = self.full_adder(a[i], b[i], carry);
            out.push(s);
            carry = c;
        }
        out
    }

    fn neg_vec(&mut self, a: &[Lit]) -> Vec<Lit> {
        let inv: Vec<Lit> = a.iter().map(|l| l.negate()).collect();
        let zeros = vec![self.lit_const(false); a.len()];
        self.add_vec(&inv, &zeros, self.lit_const(true))
    }

    fn sub_vec(&mut self, a: &[Lit], b: &[Lit]) -> Vec<Lit> {
        let inv: Vec<Lit> = b.iter().map(|l| l.negate()).collect();
        self.add_vec(a, &inv, self.lit_const(true))
    }

    /// Borrow-chain unsigned comparator: `a < b`.
    fn ult_vec(&mut self, a: &[Lit], b: &[Lit]) -> Lit {
        let mut borrow = self.lit_const(false);
        for i in 0..a.len() {
            let differ = self.xor_gate(a[i], b[i]);
            borrow = self.mux_gate(differ, b[i], borrow);
        }
        borrow
    }

    fn slt_vec(&mut self, a: &[Lit], b: &[Lit]) -> Lit {
        // Flip the sign bits to map signed order onto unsigned order.
        let mut a2 = a.to_vec();
        let mut b2 = b.to_vec();
        let msb = a.len() - 1;
        a2[msb] = a2[msb].negate();
        b2[msb] = b2[msb].negate();
        self.ult_vec(&a2, &b2)
    }

    fn eq_vec(&mut self, a: &[Lit], b: &[Lit]) -> Lit {
        let mut acc = self.lit_const(true);
        for i in 0..a.len() {
            let x = self.xor_gate(a[i], b[i]);
            acc = self.and_gate(acc, x.negate());
        }
        acc
    }

    fn mux_vec(&mut self, c: Lit, t: &[Lit], e: &[Lit]) -> Vec<Lit> {
        t.iter()
            .zip(e)
            .map(|(&ti, &ei)| self.mux_gate(c, ti, ei))
            .collect()
    }

    /// Barrel shifter. `left` selects shift direction; `fill` is shifted in.
    /// Amount bits above `ceil(log2(w))` are handled by the range check.
    fn shift_vec(&mut self, a: &[Lit], amt: &[Lit], left: bool, fill: Lit) -> Vec<Lit> {
        let w = a.len();
        let k = usize::BITS - (w - 1).leading_zeros(); // ceil(log2(w)) for w >= 2
        let k = if w == 1 { 0 } else { k as usize };
        let mut cur = a.to_vec();
        for (s, &bit) in amt.iter().enumerate().take(k) {
            let dist = 1usize << s;
            let mut next = Vec::with_capacity(w);
            for i in 0..w {
                let shifted = if left {
                    if i >= dist {
                        cur[i - dist]
                    } else {
                        fill
                    }
                } else if i + dist < w {
                    cur[i + dist]
                } else {
                    fill
                };
                next.push(self.mux_gate(bit, shifted, cur[i]));
            }
            cur = next;
        }
        // If the amount is >= w, the result is all fill bits.
        let wconst = self.const_vec(amt.len(), w as u64);
        let in_range = self.ult_vec(amt, &wconst);
        let fills = vec![fill; w];
        self.mux_vec(in_range, &cur, &fills)
    }

    fn mul_vec(&mut self, a: &[Lit], b: &[Lit]) -> Vec<Lit> {
        let w = a.len();
        let f = self.lit_const(false);
        let mut acc = vec![f; w];
        for i in 0..w {
            let mut row = vec![f; w];
            for j in 0..(w - i) {
                row[i + j] = self.and_gate(b[i], a[j]);
            }
            acc = self.add_vec(&acc, &row, f);
        }
        acc
    }

    /// Restoring division producing `(quotient, remainder)` with the SMT-LIB
    /// division-by-zero conventions (q = all-ones, r = dividend).
    fn divrem_vec(&mut self, a: &[Lit], d: &[Lit]) -> (Vec<Lit>, Vec<Lit>) {
        let w = a.len();
        let f = self.lit_const(false);
        // One extra bit so `2r + a_i` cannot overflow.
        let mut r: Vec<Lit> = vec![f; w + 1];
        let mut dext: Vec<Lit> = d.to_vec();
        dext.push(f);
        let mut q = vec![f; w];
        for i in (0..w).rev() {
            // r = (r << 1) | a_i
            let mut r2 = Vec::with_capacity(w + 1);
            r2.push(a[i]);
            r2.extend_from_slice(&r[..w]);
            let lt = self.ult_vec(&r2, &dext);
            let ge = lt.negate();
            let diff = self.sub_vec(&r2, &dext);
            q[i] = ge;
            r = self.mux_vec(ge, &diff, &r2);
        }
        r.truncate(w);
        (q, r)
    }

    fn const_vec(&self, w: usize, v: u64) -> Vec<Lit> {
        (0..w).map(|i| self.lit_const((v >> i) & 1 == 1)).collect()
    }

    fn ensure_var_bits(&mut self, v: VarId, w: usize) -> Vec<Lit> {
        let idx = v.0 as usize;
        while self.var_bits.len() <= idx {
            self.var_bits.push(None);
        }
        if self.var_bits[idx].is_none() {
            let bits: Vec<Lit> = (0..w).map(|_| self.fresh()).collect();
            self.var_bits[idx] = Some(bits);
        }
        self.var_bits[idx].clone().expect("just created")
    }

    /// Lowers `t` to its literal vector (LSB first), blasting any
    /// not-yet-seen subterms.
    pub fn blast(&mut self, pool: &TermPool, t: TermId) -> Vec<Lit> {
        while self.bits.len() < pool.len() {
            self.bits.push(None);
        }
        // Iterative post-order to avoid recursion on deep formulas.
        let mut stack: Vec<(TermId, bool)> = vec![(t, false)];
        while let Some((id, ready)) = stack.pop() {
            if self.bits[id.index()].is_some() {
                continue;
            }
            let op = pool.op(id);
            if !ready {
                stack.push((id, true));
                match op {
                    Op::Var(_) | Op::Const(_) => {}
                    Op::Not(a) | Op::Neg(a) | Op::Extract(a, _, _) | Op::ZExt(a) | Op::SExt(a) => {
                        stack.push((a, false))
                    }
                    Op::And(a, b)
                    | Op::Or(a, b)
                    | Op::Xor(a, b)
                    | Op::Add(a, b)
                    | Op::Sub(a, b)
                    | Op::Mul(a, b)
                    | Op::UDiv(a, b)
                    | Op::URem(a, b)
                    | Op::Shl(a, b)
                    | Op::LShr(a, b)
                    | Op::AShr(a, b)
                    | Op::Eq(a, b)
                    | Op::Ult(a, b)
                    | Op::Slt(a, b)
                    | Op::Concat(a, b) => {
                        stack.push((a, false));
                        stack.push((b, false));
                    }
                    Op::Ite(c, a, b) => {
                        stack.push((c, false));
                        stack.push((a, false));
                        stack.push((b, false));
                    }
                }
                continue;
            }
            let w = pool.width(id) as usize;
            let get = |x: TermId, me: &Self| -> Vec<Lit> {
                me.bits[x.index()].clone().expect("child blasted")
            };
            let out: Vec<Lit> = match op {
                Op::Var(v) => self.ensure_var_bits(v, w),
                Op::Const(c) => self.const_vec(w, c),
                Op::Not(a) => get(a, self).iter().map(|l| l.negate()).collect(),
                Op::Neg(a) => {
                    let av = get(a, self);
                    self.neg_vec(&av)
                }
                Op::And(a, b) => {
                    let (av, bv) = (get(a, self), get(b, self));
                    av.iter()
                        .zip(&bv)
                        .map(|(&x, &y)| self.and_gate(x, y))
                        .collect()
                }
                Op::Or(a, b) => {
                    let (av, bv) = (get(a, self), get(b, self));
                    av.iter()
                        .zip(&bv)
                        .map(|(&x, &y)| self.or_gate(x, y))
                        .collect()
                }
                Op::Xor(a, b) => {
                    let (av, bv) = (get(a, self), get(b, self));
                    av.iter()
                        .zip(&bv)
                        .map(|(&x, &y)| self.xor_gate(x, y))
                        .collect()
                }
                Op::Add(a, b) => {
                    let (av, bv) = (get(a, self), get(b, self));
                    let f = self.lit_const(false);
                    self.add_vec(&av, &bv, f)
                }
                Op::Sub(a, b) => {
                    let (av, bv) = (get(a, self), get(b, self));
                    self.sub_vec(&av, &bv)
                }
                Op::Mul(a, b) => {
                    let (av, bv) = (get(a, self), get(b, self));
                    self.mul_vec(&av, &bv)
                }
                Op::UDiv(a, b) => {
                    let (av, bv) = (get(a, self), get(b, self));
                    self.divrem_vec(&av, &bv).0
                }
                Op::URem(a, b) => {
                    let (av, bv) = (get(a, self), get(b, self));
                    self.divrem_vec(&av, &bv).1
                }
                Op::Shl(a, b) => {
                    let (av, bv) = (get(a, self), get(b, self));
                    let f = self.lit_const(false);
                    self.shift_vec(&av, &bv, true, f)
                }
                Op::LShr(a, b) => {
                    let (av, bv) = (get(a, self), get(b, self));
                    let f = self.lit_const(false);
                    self.shift_vec(&av, &bv, false, f)
                }
                Op::AShr(a, b) => {
                    let (av, bv) = (get(a, self), get(b, self));
                    let fill = *av.last().expect("nonempty");
                    self.shift_vec(&av, &bv, false, fill)
                }
                Op::Eq(a, b) => {
                    let (av, bv) = (get(a, self), get(b, self));
                    vec![self.eq_vec(&av, &bv)]
                }
                Op::Ult(a, b) => {
                    let (av, bv) = (get(a, self), get(b, self));
                    vec![self.ult_vec(&av, &bv)]
                }
                Op::Slt(a, b) => {
                    let (av, bv) = (get(a, self), get(b, self));
                    vec![self.slt_vec(&av, &bv)]
                }
                Op::Ite(c, a, b) => {
                    let cv = get(c, self)[0];
                    let (av, bv) = (get(a, self), get(b, self));
                    self.mux_vec(cv, &av, &bv)
                }
                Op::Extract(a, hi, lo) => {
                    let av = get(a, self);
                    av[lo as usize..=hi as usize].to_vec()
                }
                Op::Concat(a, b) => {
                    let (av, bv) = (get(a, self), get(b, self));
                    let mut out = bv;
                    out.extend_from_slice(&av);
                    out
                }
                Op::ZExt(a) => {
                    let mut out = get(a, self);
                    let f = self.lit_const(false);
                    out.resize(w, f);
                    out
                }
                Op::SExt(a) => {
                    let mut out = get(a, self);
                    let sign = *out.last().expect("nonempty");
                    out.resize(w, sign);
                    out
                }
            };
            debug_assert_eq!(out.len(), w);
            self.bits[id.index()] = Some(out);
        }
        self.bits[t.index()].clone().expect("blasted")
    }

    /// Lowers a width-1 term to a single literal.
    ///
    /// # Panics
    ///
    /// Panics if `t` does not have width 1.
    pub fn blast_bool(&mut self, pool: &TermPool, t: TermId) -> Lit {
        assert_eq!(pool.width(t), 1, "expected a width-1 term");
        self.blast(pool, t)[0]
    }

    /// After a satisfying solve, reads the model value of BV variable `v`.
    ///
    /// Returns `None` when the variable never appeared in any blasted formula
    /// (its value is unconstrained).
    pub fn model_value(&self, v: VarId) -> Option<u64> {
        let bits = self.var_bits.get(v.0 as usize)?.as_ref()?;
        let mut val = 0u64;
        for (i, &l) in bits.iter().enumerate() {
            let b = self.sat.model_value(l.var());
            let b = if l.is_pos() { b } else { !b };
            if b {
                val |= 1 << i;
            }
        }
        Some(val)
    }
}

/// SAT variable handle exposed for tests that want raw access.
pub type RawVar = SatVar;
