//! Hash-consed bit-vector terms with constant folding.
//!
//! Terms are the symbolic expressions manipulated by the symbolic execution
//! engine. They live in a [`TermPool`], an append-only arena that interns
//! structurally identical terms so equality of [`TermId`]s implies structural
//! equality. All constructors constant-fold eagerly and apply a small set of
//! local simplifications, which keeps formulas compact before bit-blasting.
//!
//! Semantics follow SMT-LIB's `QF_BV` theory for all operators, including the
//! `bvudiv`/`bvurem` division-by-zero conventions.

use std::collections::HashMap;
use std::fmt;

use pokemu_rt::FxHashMap;

/// Width of a bit-vector term in bits. Valid widths are `1..=64`.
pub type Width = u8;

/// Maximum supported bit-vector width.
pub const MAX_WIDTH: Width = 64;

/// Identifier of an interned term inside a [`TermPool`].
///
/// Because the pool interns structurally, two equal `TermId`s denote the same
/// expression. Ids are only meaningful relative to the pool that created them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(pub(crate) u32);

impl TermId {
    /// Raw index of this term in its pool.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifier of a symbolic variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub u32);

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// The operator of a term node.
///
/// Comparison operators produce width-1 terms (SMT-LIB booleans are modelled
/// as 1-bit vectors). All other operators preserve or explicitly change width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// A free symbolic variable.
    Var(VarId),
    /// A constant, masked to the node width.
    Const(u64),
    /// Bitwise complement.
    Not(TermId),
    /// Two's-complement negation.
    Neg(TermId),
    /// Bitwise and.
    And(TermId, TermId),
    /// Bitwise or.
    Or(TermId, TermId),
    /// Bitwise xor.
    Xor(TermId, TermId),
    /// Modular addition.
    Add(TermId, TermId),
    /// Modular subtraction.
    Sub(TermId, TermId),
    /// Modular multiplication.
    Mul(TermId, TermId),
    /// Unsigned division (`bvudiv`): division by zero yields all-ones.
    UDiv(TermId, TermId),
    /// Unsigned remainder (`bvurem`): remainder by zero yields the dividend.
    URem(TermId, TermId),
    /// Logical shift left; shift amounts `>= width` yield zero.
    Shl(TermId, TermId),
    /// Logical shift right; shift amounts `>= width` yield zero.
    LShr(TermId, TermId),
    /// Arithmetic shift right; shift amounts `>= width` yield the sign fill.
    AShr(TermId, TermId),
    /// Equality; result has width 1.
    Eq(TermId, TermId),
    /// Unsigned less-than; result has width 1.
    Ult(TermId, TermId),
    /// Signed less-than; result has width 1.
    Slt(TermId, TermId),
    /// If-then-else; the condition has width 1.
    Ite(TermId, TermId, TermId),
    /// Bit-slice `[hi:lo]`, inclusive on both ends.
    Extract(TermId, u8, u8),
    /// Concatenation: the first operand forms the high bits.
    Concat(TermId, TermId),
    /// Zero extension to the node width.
    ZExt(TermId),
    /// Sign extension to the node width.
    SExt(TermId),
}

/// One interned node: an operator plus the width of its result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Node {
    op: Op,
    width: Width,
}

/// Append-only arena of hash-consed bit-vector terms.
///
/// # Examples
///
/// ```
/// use pokemu_solver::{TermPool, Width};
///
/// let mut pool = TermPool::new();
/// let a = pool.var(32, "a");
/// let k = pool.constant(32, 10);
/// let sum = pool.add(a, k);
/// // Constant folding: (a + 10) is only symbolic because `a` is.
/// assert!(pool.as_const(sum).is_none());
/// let twenty = pool.add(k, k);
/// assert_eq!(pool.as_const(twenty), Some(20));
/// ```
#[derive(Debug, Default)]
pub struct TermPool {
    nodes: Vec<Node>,
    interned: FxHashMap<Node, TermId>,
    var_names: Vec<String>,
    var_widths: Vec<Width>,
}

/// Masks `v` to the low `w` bits.
#[inline]
pub fn mask(w: Width, v: u64) -> u64 {
    debug_assert!((1..=MAX_WIDTH).contains(&w));
    if w == 64 {
        v
    } else {
        v & ((1u64 << w) - 1)
    }
}

/// Sign-extends the `w`-bit value `v` to 64 bits (as `i64` reinterpreted).
#[inline]
pub fn sext64(w: Width, v: u64) -> i64 {
    debug_assert!((1..=MAX_WIDTH).contains(&w));
    let shift = 64 - w as u32;
    ((v << shift) as i64) >> shift
}

impl TermPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of interned terms.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` when no terms have been interned.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of distinct variables created so far.
    pub fn num_vars(&self) -> usize {
        self.var_names.len()
    }

    /// The result width of `t`.
    pub fn width(&self, t: TermId) -> Width {
        self.nodes[t.index()].width
    }

    /// The operator of `t`.
    pub fn op(&self, t: TermId) -> Op {
        self.nodes[t.index()].op
    }

    /// The debug name given to `v` at creation.
    pub fn var_name(&self, v: VarId) -> &str {
        &self.var_names[v.0 as usize]
    }

    /// The declared width of variable `v`.
    pub fn var_width(&self, v: VarId) -> Width {
        self.var_widths[v.0 as usize]
    }

    /// If `t` is a constant, its value.
    pub fn as_const(&self, t: TermId) -> Option<u64> {
        match self.nodes[t.index()].op {
            Op::Const(v) => Some(v),
            _ => None,
        }
    }

    /// Returns `true` when `t` is a constant.
    pub fn is_const(&self, t: TermId) -> bool {
        self.as_const(t).is_some()
    }

    fn intern(&mut self, node: Node) -> TermId {
        if let Some(&id) = self.interned.get(&node) {
            return id;
        }
        let id = TermId(self.nodes.len() as u32);
        self.nodes.push(node);
        self.interned.insert(node, id);
        id
    }

    /// Creates a fresh symbolic variable of width `w`.
    ///
    /// # Panics
    ///
    /// Panics if `w` is zero or exceeds [`MAX_WIDTH`].
    pub fn var(&mut self, w: Width, name: &str) -> TermId {
        assert!((1..=MAX_WIDTH).contains(&w), "invalid width {w}");
        let v = VarId(self.var_names.len() as u32);
        self.var_names.push(name.to_owned());
        self.var_widths.push(w);
        self.intern(Node {
            op: Op::Var(v),
            width: w,
        })
    }

    /// Interns the constant `v` masked to width `w`.
    ///
    /// # Panics
    ///
    /// Panics if `w` is zero or exceeds [`MAX_WIDTH`].
    pub fn constant(&mut self, w: Width, v: u64) -> TermId {
        assert!((1..=MAX_WIDTH).contains(&w), "invalid width {w}");
        let v = mask(w, v);
        self.intern(Node {
            op: Op::Const(v),
            width: w,
        })
    }

    /// The width-1 constant 1 ("true").
    pub fn true_(&mut self) -> TermId {
        self.constant(1, 1)
    }

    /// The width-1 constant 0 ("false").
    pub fn false_(&mut self) -> TermId {
        self.constant(1, 0)
    }

    fn width2(&self, a: TermId, b: TermId) -> Width {
        let wa = self.width(a);
        let wb = self.width(b);
        assert_eq!(wa, wb, "width mismatch: {wa} vs {wb}");
        wa
    }

    /// Bitwise complement of `a`.
    pub fn not(&mut self, a: TermId) -> TermId {
        let w = self.width(a);
        match self.nodes[a.index()].op {
            Op::Const(v) => self.constant(w, !v),
            // ~~x = x
            Op::Not(inner) => inner,
            _ => self.intern(Node {
                op: Op::Not(a),
                width: w,
            }),
        }
    }

    /// Two's-complement negation of `a`.
    pub fn neg(&mut self, a: TermId) -> TermId {
        let w = self.width(a);
        match self.nodes[a.index()].op {
            Op::Const(v) => self.constant(w, v.wrapping_neg()),
            Op::Neg(inner) => inner,
            _ => self.intern(Node {
                op: Op::Neg(a),
                width: w,
            }),
        }
    }

    /// Bitwise and.
    pub fn and(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.width2(a, b);
        if a == b {
            return a;
        }
        match (self.as_const(a), self.as_const(b)) {
            (Some(x), Some(y)) => self.constant(w, x & y),
            (Some(0), _) | (_, Some(0)) => self.constant(w, 0),
            (Some(x), _) if x == mask(w, u64::MAX) => b,
            (_, Some(y)) if y == mask(w, u64::MAX) => a,
            _ => {
                let (a, b) = if a <= b { (a, b) } else { (b, a) };
                self.intern(Node {
                    op: Op::And(a, b),
                    width: w,
                })
            }
        }
    }

    /// Bitwise or.
    pub fn or(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.width2(a, b);
        if a == b {
            return a;
        }
        match (self.as_const(a), self.as_const(b)) {
            (Some(x), Some(y)) => self.constant(w, x | y),
            (Some(0), _) => b,
            (_, Some(0)) => a,
            (Some(x), _) if x == mask(w, u64::MAX) => a,
            (_, Some(y)) if y == mask(w, u64::MAX) => b,
            _ => {
                let (a, b) = if a <= b { (a, b) } else { (b, a) };
                self.intern(Node {
                    op: Op::Or(a, b),
                    width: w,
                })
            }
        }
    }

    /// Bitwise xor.
    pub fn xor(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.width2(a, b);
        if a == b {
            return self.constant(w, 0);
        }
        match (self.as_const(a), self.as_const(b)) {
            (Some(x), Some(y)) => self.constant(w, x ^ y),
            (Some(0), _) => b,
            (_, Some(0)) => a,
            _ => {
                let (a, b) = if a <= b { (a, b) } else { (b, a) };
                self.intern(Node {
                    op: Op::Xor(a, b),
                    width: w,
                })
            }
        }
    }

    /// Modular addition.
    pub fn add(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.width2(a, b);
        match (self.as_const(a), self.as_const(b)) {
            (Some(x), Some(y)) => self.constant(w, x.wrapping_add(y)),
            (Some(0), _) => b,
            (_, Some(0)) => a,
            _ => {
                let (a, b) = if a <= b { (a, b) } else { (b, a) };
                self.intern(Node {
                    op: Op::Add(a, b),
                    width: w,
                })
            }
        }
    }

    /// Modular subtraction.
    pub fn sub(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.width2(a, b);
        if a == b {
            return self.constant(w, 0);
        }
        match (self.as_const(a), self.as_const(b)) {
            (Some(x), Some(y)) => self.constant(w, x.wrapping_sub(y)),
            (_, Some(0)) => a,
            _ => self.intern(Node {
                op: Op::Sub(a, b),
                width: w,
            }),
        }
    }

    /// Modular multiplication.
    pub fn mul(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.width2(a, b);
        match (self.as_const(a), self.as_const(b)) {
            (Some(x), Some(y)) => self.constant(w, x.wrapping_mul(y)),
            (Some(0), _) | (_, Some(0)) => self.constant(w, 0),
            (Some(1), _) => b,
            (_, Some(1)) => a,
            _ => {
                let (a, b) = if a <= b { (a, b) } else { (b, a) };
                self.intern(Node {
                    op: Op::Mul(a, b),
                    width: w,
                })
            }
        }
    }

    /// Unsigned division with the SMT-LIB `bvudiv` zero convention.
    pub fn udiv(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.width2(a, b);
        match (self.as_const(a), self.as_const(b)) {
            (Some(_), Some(0)) | (None, Some(0)) => self.constant(w, mask(w, u64::MAX)),
            (Some(x), Some(y)) => self.constant(w, x / y),
            (_, Some(1)) => a,
            _ => self.intern(Node {
                op: Op::UDiv(a, b),
                width: w,
            }),
        }
    }

    /// Unsigned remainder with the SMT-LIB `bvurem` zero convention.
    pub fn urem(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.width2(a, b);
        match (self.as_const(a), self.as_const(b)) {
            (_, Some(0)) => a,
            (Some(x), Some(y)) => self.constant(w, x % y),
            (_, Some(1)) => self.constant(w, 0),
            _ => self.intern(Node {
                op: Op::URem(a, b),
                width: w,
            }),
        }
    }

    /// Logical left shift; amounts `>= w` produce zero.
    pub fn shl(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.width2(a, b);
        match (self.as_const(a), self.as_const(b)) {
            (Some(x), Some(s)) => {
                let v = if s >= w as u64 { 0 } else { x << s };
                self.constant(w, v)
            }
            (_, Some(0)) => a,
            (Some(0), _) => self.constant(w, 0),
            _ => self.intern(Node {
                op: Op::Shl(a, b),
                width: w,
            }),
        }
    }

    /// Logical right shift; amounts `>= w` produce zero.
    pub fn lshr(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.width2(a, b);
        match (self.as_const(a), self.as_const(b)) {
            (Some(x), Some(s)) => {
                let v = if s >= w as u64 { 0 } else { x >> s };
                self.constant(w, v)
            }
            (_, Some(0)) => a,
            (Some(0), _) => self.constant(w, 0),
            _ => self.intern(Node {
                op: Op::LShr(a, b),
                width: w,
            }),
        }
    }

    /// Arithmetic right shift; amounts `>= w` replicate the sign bit.
    pub fn ashr(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.width2(a, b);
        match (self.as_const(a), self.as_const(b)) {
            (Some(x), Some(s)) => {
                let sx = sext64(w, x);
                let v = if s >= w as u64 {
                    (sx >> 63) as u64
                } else {
                    (sx >> s) as u64
                };
                self.constant(w, v)
            }
            (_, Some(0)) => a,
            _ => self.intern(Node {
                op: Op::AShr(a, b),
                width: w,
            }),
        }
    }

    /// Equality test, producing a width-1 term.
    pub fn eq(&mut self, a: TermId, b: TermId) -> TermId {
        self.width2(a, b);
        if a == b {
            return self.true_();
        }
        match (self.as_const(a), self.as_const(b)) {
            (Some(x), Some(y)) => self.constant(1, (x == y) as u64),
            _ => {
                let (a, b) = if a <= b { (a, b) } else { (b, a) };
                self.intern(Node {
                    op: Op::Eq(a, b),
                    width: 1,
                })
            }
        }
    }

    /// Disequality test, producing a width-1 term.
    pub fn ne(&mut self, a: TermId, b: TermId) -> TermId {
        let e = self.eq(a, b);
        self.not(e)
    }

    /// Unsigned less-than, producing a width-1 term.
    pub fn ult(&mut self, a: TermId, b: TermId) -> TermId {
        self.width2(a, b);
        if a == b {
            return self.false_();
        }
        match (self.as_const(a), self.as_const(b)) {
            (Some(x), Some(y)) => self.constant(1, (x < y) as u64),
            (_, Some(0)) => self.false_(),
            _ => self.intern(Node {
                op: Op::Ult(a, b),
                width: 1,
            }),
        }
    }

    /// Unsigned less-or-equal, producing a width-1 term.
    pub fn ule(&mut self, a: TermId, b: TermId) -> TermId {
        let lt = self.ult(b, a);
        self.not(lt)
    }

    /// Signed less-than, producing a width-1 term.
    pub fn slt(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.width2(a, b);
        if a == b {
            return self.false_();
        }
        match (self.as_const(a), self.as_const(b)) {
            (Some(x), Some(y)) => self.constant(1, (sext64(w, x) < sext64(w, y)) as u64),
            _ => self.intern(Node {
                op: Op::Slt(a, b),
                width: 1,
            }),
        }
    }

    /// Signed less-or-equal, producing a width-1 term.
    pub fn sle(&mut self, a: TermId, b: TermId) -> TermId {
        let lt = self.slt(b, a);
        self.not(lt)
    }

    /// If-then-else. `cond` must have width 1; arms must agree in width.
    pub fn ite(&mut self, cond: TermId, t: TermId, e: TermId) -> TermId {
        assert_eq!(self.width(cond), 1, "ite condition must have width 1");
        let w = self.width2(t, e);
        if t == e {
            return t;
        }
        match self.as_const(cond) {
            Some(1) => t,
            Some(0) => e,
            _ => self.intern(Node {
                op: Op::Ite(cond, t, e),
                width: w,
            }),
        }
    }

    /// Extracts bits `hi..=lo` of `a` (a `hi - lo + 1`-bit result).
    ///
    /// # Panics
    ///
    /// Panics unless `lo <= hi < width(a)`.
    pub fn extract(&mut self, a: TermId, hi: u8, lo: u8) -> TermId {
        let w = self.width(a);
        assert!(lo <= hi && hi < w, "bad extract [{hi}:{lo}] of width {w}");
        let nw = hi - lo + 1;
        if nw == w {
            return a;
        }
        match self.nodes[a.index()].op {
            Op::Const(v) => self.constant(nw, v >> lo),
            // extract of extract composes
            Op::Extract(inner, _ihi, ilo) => {
                let (nhi, nlo) = (ilo + hi, ilo + lo);
                self.extract(inner, nhi, nlo)
            }
            // extract entirely inside one half of a concat
            Op::Concat(hi_t, lo_t) => {
                let lw = self.width(lo_t);
                if hi < lw {
                    self.extract(lo_t, hi, lo)
                } else if lo >= lw {
                    self.extract(hi_t, hi - lw, lo - lw)
                } else {
                    self.intern(Node {
                        op: Op::Extract(a, hi, lo),
                        width: nw,
                    })
                }
            }
            Op::ZExt(inner) => {
                let iw = self.width(inner);
                if hi < iw {
                    self.extract(inner, hi, lo)
                } else if lo >= iw {
                    self.constant(nw, 0)
                } else {
                    self.intern(Node {
                        op: Op::Extract(a, hi, lo),
                        width: nw,
                    })
                }
            }
            _ => self.intern(Node {
                op: Op::Extract(a, hi, lo),
                width: nw,
            }),
        }
    }

    /// Concatenates `hi` (high bits) with `lo` (low bits).
    ///
    /// # Panics
    ///
    /// Panics if the combined width exceeds [`MAX_WIDTH`].
    pub fn concat(&mut self, hi: TermId, lo: TermId) -> TermId {
        let wh = self.width(hi);
        let wl = self.width(lo);
        let w = wh
            .checked_add(wl)
            .filter(|&w| w <= MAX_WIDTH)
            .expect("concat too wide");
        match (self.as_const(hi), self.as_const(lo)) {
            (Some(h), Some(l)) => self.constant(w, (h << wl) | l),
            _ => self.intern(Node {
                op: Op::Concat(hi, lo),
                width: w,
            }),
        }
    }

    /// Zero-extends `a` to width `w`.
    ///
    /// # Panics
    ///
    /// Panics if `w` is narrower than `a`.
    pub fn zext(&mut self, a: TermId, w: Width) -> TermId {
        let aw = self.width(a);
        assert!(w >= aw && w <= MAX_WIDTH, "bad zext {aw} -> {w}");
        if w == aw {
            return a;
        }
        match self.nodes[a.index()].op {
            Op::Const(v) => self.constant(w, v),
            _ => self.intern(Node {
                op: Op::ZExt(a),
                width: w,
            }),
        }
    }

    /// Sign-extends `a` to width `w`.
    ///
    /// # Panics
    ///
    /// Panics if `w` is narrower than `a`.
    pub fn sext(&mut self, a: TermId, w: Width) -> TermId {
        let aw = self.width(a);
        assert!(w >= aw && w <= MAX_WIDTH, "bad sext {aw} -> {w}");
        if w == aw {
            return a;
        }
        match self.nodes[a.index()].op {
            Op::Const(v) => self.constant(w, sext64(aw, v) as u64),
            _ => self.intern(Node {
                op: Op::SExt(a),
                width: w,
            }),
        }
    }

    /// Logical and of width-1 terms (alias of [`TermPool::and`] for clarity).
    pub fn bool_and(&mut self, a: TermId, b: TermId) -> TermId {
        self.and(a, b)
    }

    /// Logical or of width-1 terms.
    pub fn bool_or(&mut self, a: TermId, b: TermId) -> TermId {
        self.or(a, b)
    }

    /// Logical implication `a -> b` of width-1 terms.
    pub fn implies(&mut self, a: TermId, b: TermId) -> TermId {
        let na = self.not(a);
        self.or(na, b)
    }

    /// Evaluates `t` under `env`, which must assign every variable reached.
    ///
    /// Evaluation is iterative over the term DAG (no recursion), so deeply
    /// nested formulas cannot overflow the stack.
    ///
    /// # Panics
    ///
    /// Panics if `env` lacks a variable appearing in `t`.
    pub fn eval(&self, t: TermId, env: &HashMap<VarId, u64>) -> u64 {
        let mut cache: HashMap<TermId, u64> = HashMap::new();
        self.eval_cached(t, env, &mut cache)
    }

    /// Like [`TermPool::eval`] but reuses `cache` across calls: useful when
    /// evaluating many terms under the same assignment.
    pub fn eval_cached(
        &self,
        t: TermId,
        env: &HashMap<VarId, u64>,
        cache: &mut HashMap<TermId, u64>,
    ) -> u64 {
        // Explicit work stack: (term, children_ready).
        let mut stack: Vec<(TermId, bool)> = vec![(t, false)];
        while let Some((id, ready)) = stack.pop() {
            if cache.contains_key(&id) {
                continue;
            }
            if !ready {
                stack.push((id, true));
                stack.extend(self.operands(id).map(|a| (a, false)));
                continue;
            }
            let mut args = [0; 3];
            for (slot, a) in args.iter_mut().zip(self.operands(id)) {
                *slot = cache[&a];
            }
            let v = self.eval_node(id, args, |v| {
                *env.get(&v)
                    .unwrap_or_else(|| panic!("eval: unassigned variable {}", self.var_name(v)))
            });
            cache.insert(id, v);
        }
        cache[&t]
    }

    /// The operands of `t` in operator order (`c, a, b` for an ITE); none
    /// for variables and constants. Each has a smaller id than `t`, since
    /// the pool interns a term only after its operands, so ascending id
    /// order is a topological order of any set of terms.
    pub fn operands(&self, t: TermId) -> impl Iterator<Item = TermId> {
        let (ops, n) = match self.nodes[t.index()].op {
            Op::Var(_) | Op::Const(_) => ([t; 3], 0),
            Op::Not(a) | Op::Neg(a) | Op::Extract(a, _, _) | Op::ZExt(a) | Op::SExt(a) => {
                ([a, t, t], 1)
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
            | Op::Concat(a, b) => ([a, b, t], 2),
            Op::Ite(c, a, b) => ([c, a, b], 3),
        };
        ops.into_iter().take(n)
    }

    /// Evaluates the single node `t` from its operands' values `x`, given
    /// in [`TermPool::operands`] order (unused slots are ignored); a
    /// variable node reads its value from `var`. This is the one copy of
    /// the operator semantics every evaluator shares.
    #[inline]
    pub fn eval_node(&self, t: TermId, x: [u64; 3], var: impl FnOnce(VarId) -> u64) -> u64 {
        let node = self.nodes[t.index()];
        let w = node.width;
        match node.op {
            Op::Var(v) => mask(w, var(v)),
            Op::Const(c) => c,
            Op::Not(_) => mask(w, !x[0]),
            Op::Neg(_) => mask(w, x[0].wrapping_neg()),
            Op::And(..) => x[0] & x[1],
            Op::Or(..) => x[0] | x[1],
            Op::Xor(..) => x[0] ^ x[1],
            Op::Add(..) => mask(w, x[0].wrapping_add(x[1])),
            Op::Sub(..) => mask(w, x[0].wrapping_sub(x[1])),
            Op::Mul(..) => mask(w, x[0].wrapping_mul(x[1])),
            Op::UDiv(..) => x[0].checked_div(x[1]).unwrap_or(mask(w, u64::MAX)),
            Op::URem(..) => x[0].checked_rem(x[1]).unwrap_or(x[0]),
            Op::Shl(..) => {
                if x[1] >= w as u64 {
                    0
                } else {
                    mask(w, x[0] << x[1])
                }
            }
            Op::LShr(..) => {
                if x[1] >= w as u64 {
                    0
                } else {
                    x[0] >> x[1]
                }
            }
            Op::AShr(a, _) => {
                let aw = self.width(a);
                let sx = sext64(aw, x[0]);
                if x[1] >= aw as u64 {
                    mask(w, (sx >> 63) as u64)
                } else {
                    mask(w, (sx >> x[1]) as u64)
                }
            }
            Op::Eq(..) => (x[0] == x[1]) as u64,
            Op::Ult(..) => (x[0] < x[1]) as u64,
            Op::Slt(a, _) => {
                let aw = self.width(a);
                (sext64(aw, x[0]) < sext64(aw, x[1])) as u64
            }
            Op::Ite(..) => {
                if x[0] != 0 {
                    x[1]
                } else {
                    x[2]
                }
            }
            Op::Extract(_, hi, lo) => mask(hi - lo + 1, x[0] >> lo),
            Op::Concat(_, b) => (x[0] << self.width(b)) | x[1],
            Op::ZExt(_) => x[0],
            Op::SExt(a) => mask(w, sext64(self.width(a), x[0]) as u64),
        }
    }

    /// Rebuilds `t` with every variable in `map` replaced by the mapped term.
    ///
    /// Replacement terms must match the variable widths. Used to instantiate
    /// path summaries (paper §3.3.2) at their call sites.
    pub fn substitute(&mut self, t: TermId, map: &HashMap<VarId, TermId>) -> TermId {
        let mut cache: HashMap<TermId, TermId> = HashMap::new();
        let mut stack: Vec<(TermId, bool)> = vec![(t, false)];
        while let Some((id, ready)) = stack.pop() {
            if cache.contains_key(&id) {
                continue;
            }
            let node = self.nodes[id.index()];
            if !ready {
                stack.push((id, true));
                stack.extend(self.operands(id).map(|a| (a, false)));
                continue;
            }
            let g = |x: TermId, cache: &HashMap<TermId, TermId>| -> TermId { cache[&x] };
            let new = match node.op {
                Op::Var(v) => match map.get(&v) {
                    Some(&rep) => {
                        assert_eq!(
                            self.width(rep),
                            node.width,
                            "substitute: width mismatch for {}",
                            self.var_name(v)
                        );
                        rep
                    }
                    None => id,
                },
                Op::Const(_) => id,
                Op::Not(a) => {
                    let a = g(a, &cache);
                    self.not(a)
                }
                Op::Neg(a) => {
                    let a = g(a, &cache);
                    self.neg(a)
                }
                Op::And(a, b) => {
                    let (a, b) = (g(a, &cache), g(b, &cache));
                    self.and(a, b)
                }
                Op::Or(a, b) => {
                    let (a, b) = (g(a, &cache), g(b, &cache));
                    self.or(a, b)
                }
                Op::Xor(a, b) => {
                    let (a, b) = (g(a, &cache), g(b, &cache));
                    self.xor(a, b)
                }
                Op::Add(a, b) => {
                    let (a, b) = (g(a, &cache), g(b, &cache));
                    self.add(a, b)
                }
                Op::Sub(a, b) => {
                    let (a, b) = (g(a, &cache), g(b, &cache));
                    self.sub(a, b)
                }
                Op::Mul(a, b) => {
                    let (a, b) = (g(a, &cache), g(b, &cache));
                    self.mul(a, b)
                }
                Op::UDiv(a, b) => {
                    let (a, b) = (g(a, &cache), g(b, &cache));
                    self.udiv(a, b)
                }
                Op::URem(a, b) => {
                    let (a, b) = (g(a, &cache), g(b, &cache));
                    self.urem(a, b)
                }
                Op::Shl(a, b) => {
                    let (a, b) = (g(a, &cache), g(b, &cache));
                    self.shl(a, b)
                }
                Op::LShr(a, b) => {
                    let (a, b) = (g(a, &cache), g(b, &cache));
                    self.lshr(a, b)
                }
                Op::AShr(a, b) => {
                    let (a, b) = (g(a, &cache), g(b, &cache));
                    self.ashr(a, b)
                }
                Op::Eq(a, b) => {
                    let (a, b) = (g(a, &cache), g(b, &cache));
                    self.eq(a, b)
                }
                Op::Ult(a, b) => {
                    let (a, b) = (g(a, &cache), g(b, &cache));
                    self.ult(a, b)
                }
                Op::Slt(a, b) => {
                    let (a, b) = (g(a, &cache), g(b, &cache));
                    self.slt(a, b)
                }
                Op::Ite(c, a, b) => {
                    let (c, a, b) = (g(c, &cache), g(a, &cache), g(b, &cache));
                    self.ite(c, a, b)
                }
                Op::Extract(a, hi, lo) => {
                    let a = g(a, &cache);
                    self.extract(a, hi, lo)
                }
                Op::Concat(a, b) => {
                    let (a, b) = (g(a, &cache), g(b, &cache));
                    self.concat(a, b)
                }
                Op::ZExt(a) => {
                    let a = g(a, &cache);
                    self.zext(a, node.width)
                }
                Op::SExt(a) => {
                    let a = g(a, &cache);
                    self.sext(a, node.width)
                }
            };
            cache.insert(id, new);
        }
        cache[&t]
    }

    /// Collects the set of variables appearing in `t`.
    pub fn variables_of(&self, t: TermId) -> Vec<VarId> {
        let mut seen = std::collections::HashSet::new();
        let mut vars = Vec::new();
        let mut stack = vec![t];
        while let Some(id) = stack.pop() {
            if !seen.insert(id) {
                continue;
            }
            match self.nodes[id.index()].op {
                Op::Var(v) => vars.push(v),
                _ => stack.extend(self.operands(id)),
            }
        }
        vars.sort_unstable();
        vars.dedup();
        vars
    }

    /// Renders `t` as an S-expression, for debugging and golden tests.
    pub fn display(&self, t: TermId) -> String {
        let mut s = String::new();
        self.display_into(t, &mut s);
        s
    }

    fn display_into(&self, t: TermId, out: &mut String) {
        use std::fmt::Write;
        let node = self.nodes[t.index()];
        let bin = |op: &str, a: TermId, b: TermId, out: &mut String, me: &Self| {
            out.push('(');
            out.push_str(op);
            out.push(' ');
            me.display_into(a, out);
            out.push(' ');
            me.display_into(b, out);
            out.push(')');
        };
        match node.op {
            Op::Var(v) => {
                let _ = write!(out, "{}:{}", self.var_name(v), node.width);
            }
            Op::Const(c) => {
                let _ = write!(out, "{:#x}:{}", c, node.width);
            }
            Op::Not(a) => {
                out.push_str("(not ");
                self.display_into(a, out);
                out.push(')');
            }
            Op::Neg(a) => {
                out.push_str("(neg ");
                self.display_into(a, out);
                out.push(')');
            }
            Op::And(a, b) => bin("and", a, b, out, self),
            Op::Or(a, b) => bin("or", a, b, out, self),
            Op::Xor(a, b) => bin("xor", a, b, out, self),
            Op::Add(a, b) => bin("add", a, b, out, self),
            Op::Sub(a, b) => bin("sub", a, b, out, self),
            Op::Mul(a, b) => bin("mul", a, b, out, self),
            Op::UDiv(a, b) => bin("udiv", a, b, out, self),
            Op::URem(a, b) => bin("urem", a, b, out, self),
            Op::Shl(a, b) => bin("shl", a, b, out, self),
            Op::LShr(a, b) => bin("lshr", a, b, out, self),
            Op::AShr(a, b) => bin("ashr", a, b, out, self),
            Op::Eq(a, b) => bin("=", a, b, out, self),
            Op::Ult(a, b) => bin("ult", a, b, out, self),
            Op::Slt(a, b) => bin("slt", a, b, out, self),
            Op::Ite(c, a, b) => {
                out.push_str("(ite ");
                self.display_into(c, out);
                out.push(' ');
                self.display_into(a, out);
                out.push(' ');
                self.display_into(b, out);
                out.push(')');
            }
            Op::Extract(a, hi, lo) => {
                let _ = write!(out, "(extract[{hi}:{lo}] ");
                self.display_into(a, out);
                out.push(')');
            }
            Op::Concat(a, b) => bin("concat", a, b, out, self),
            Op::ZExt(a) => {
                let _ = write!(out, "(zext{} ", node.width);
                self.display_into(a, out);
                out.push(')');
            }
            Op::SExt(a) => {
                let _ = write!(out, "(sext{} ", node.width);
                self.display_into(a, out);
                out.push(')');
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_folding_masks_to_width() {
        let mut p = TermPool::new();
        let c = p.constant(8, 0x1ff);
        assert_eq!(p.as_const(c), Some(0xff));
    }

    #[test]
    fn hash_consing_dedups() {
        let mut p = TermPool::new();
        let a = p.var(32, "a");
        let b = p.var(32, "b");
        let s1 = p.add(a, b);
        let s2 = p.add(b, a); // commutative normalization
        assert_eq!(s1, s2);
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn folding_arith() {
        let mut p = TermPool::new();
        let x = p.constant(16, 0xfff0);
        let y = p.constant(16, 0x0020);
        let add = p.add(x, y);
        assert_eq!(p.as_const(add), Some(0x0010));
        let sub = p.sub(y, x);
        assert_eq!(p.as_const(sub), Some(0x0030));
        let mul = p.mul(x, y);
        assert_eq!(
            p.as_const(mul),
            Some(mask(16, 0xfff0u64.wrapping_mul(0x20)))
        );
    }

    #[test]
    fn division_by_zero_conventions() {
        let mut p = TermPool::new();
        let x = p.constant(8, 7);
        let z = p.constant(8, 0);
        let d = p.udiv(x, z);
        assert_eq!(p.as_const(d), Some(0xff));
        let r = p.urem(x, z);
        assert_eq!(p.as_const(r), Some(7));
    }

    #[test]
    fn shift_overflows_are_defined() {
        let mut p = TermPool::new();
        let x = p.constant(8, 0x81);
        let s = p.constant(8, 9);
        let shl = p.shl(x, s);
        assert_eq!(p.as_const(shl), Some(0));
        let lshr = p.lshr(x, s);
        assert_eq!(p.as_const(lshr), Some(0));
        let ashr = p.ashr(x, s);
        assert_eq!(p.as_const(ashr), Some(0xff));
    }

    #[test]
    fn extract_of_concat_simplifies() {
        let mut p = TermPool::new();
        let a = p.var(8, "a");
        let b = p.var(8, "b");
        let c = p.concat(a, b);
        assert_eq!(p.extract(c, 7, 0), b);
        assert_eq!(p.extract(c, 15, 8), a);
    }

    #[test]
    fn eval_matches_folding() {
        let mut p = TermPool::new();
        let a = p.var(32, "a");
        let k = p.constant(32, 100);
        let t = p.sub(a, k);
        let zero = p.constant(32, 0);
        let cond = p.slt(t, zero);
        let mut env = HashMap::new();
        env.insert(VarId(0), 5u64);
        assert_eq!(p.eval(t, &env), mask(32, 5u64.wrapping_sub(100)));
        assert_eq!(p.eval(cond, &env), 1);
        env.insert(VarId(0), 200u64);
        assert_eq!(p.eval(cond, &env), 0);
    }

    #[test]
    fn substitution_instantiates_summaries() {
        let mut p = TermPool::new();
        let x = p.var(32, "x");
        let one = p.constant(32, 1);
        let body = p.add(x, one); // x + 1
        let a = p.var(32, "a");
        let two = p.constant(32, 2);
        let arg = p.mul(a, two);
        let mut map = HashMap::new();
        map.insert(VarId(0), arg);
        let inst = p.substitute(body, &map);
        let mut env = HashMap::new();
        env.insert(VarId(1), 21u64);
        assert_eq!(p.eval(inst, &env), 43);
    }

    #[test]
    fn variables_of_collects_unique_sorted() {
        let mut p = TermPool::new();
        let a = p.var(8, "a");
        let b = p.var(8, "b");
        let t1 = p.add(a, b);
        let t = p.xor(t1, a);
        assert_eq!(p.variables_of(t), vec![VarId(0), VarId(1)]);
    }

    #[test]
    fn sext_fold() {
        let mut p = TermPool::new();
        let x = p.constant(8, 0x80);
        let s = p.sext(x, 32);
        assert_eq!(p.as_const(s), Some(0xffff_ff80));
        let z = p.zext(x, 32);
        assert_eq!(p.as_const(z), Some(0x80));
    }
}
