//! The value domain abstraction.
//!
//! The paper's FuzzBALL symbolically executes the Hi-Fi emulator's *binary*.
//! Rust has no mature binary-lifting ecosystem, so PokeEMU-rs substitutes a
//! typed seam with the same effect: the emulator is written once, generically
//! over a [`Dom`] — the set of operations on machine words. Instantiating the
//! emulator at [`Concrete`] runs it as an ordinary interpreter; instantiating
//! it at [`crate::Executor`] runs it under online symbolic execution, where
//! every data-dependent branch consults the decision tree and the decision
//! procedure, exactly as FuzzBALL does at the instruction level (§3.1).
//!
//! All values carry an explicit bit width (1..=64). Comparison operations
//! yield width-1 values; [`Dom::branch`] turns a width-1 value into control
//! flow.

use pokemu_solver::Width;

/// Operations on machine words, implemented by concrete and symbolic domains.
///
/// The emulator and decoder are written against this trait. Width rules match
/// SMT-LIB `QF_BV`: binary operators require equal widths, comparisons return
/// width-1 values, and shifts treat out-of-range amounts as producing the
/// fill pattern.
pub trait Dom {
    /// A machine word of known width (concrete or symbolic).
    type V: Copy + std::fmt::Debug;

    /// Creates the constant `v` masked to width `w`.
    fn constant(&mut self, w: Width, v: u64) -> Self::V;
    /// The width of `v` in bits.
    fn width(&self, v: Self::V) -> Width;
    /// If `v` is statically known, its value.
    fn as_const(&self, v: Self::V) -> Option<u64>;

    /// Modular addition.
    fn add(&mut self, a: Self::V, b: Self::V) -> Self::V;
    /// Modular subtraction.
    fn sub(&mut self, a: Self::V, b: Self::V) -> Self::V;
    /// Modular multiplication.
    fn mul(&mut self, a: Self::V, b: Self::V) -> Self::V;
    /// Unsigned division (`bvudiv` conventions).
    fn udiv(&mut self, a: Self::V, b: Self::V) -> Self::V;
    /// Unsigned remainder (`bvurem` conventions).
    fn urem(&mut self, a: Self::V, b: Self::V) -> Self::V;
    /// Bitwise and.
    fn and(&mut self, a: Self::V, b: Self::V) -> Self::V;
    /// Bitwise or.
    fn or(&mut self, a: Self::V, b: Self::V) -> Self::V;
    /// Bitwise xor.
    fn xor(&mut self, a: Self::V, b: Self::V) -> Self::V;
    /// Bitwise complement.
    fn not(&mut self, a: Self::V) -> Self::V;
    /// Two's-complement negation.
    fn neg(&mut self, a: Self::V) -> Self::V;
    /// Logical shift left.
    fn shl(&mut self, a: Self::V, b: Self::V) -> Self::V;
    /// Logical shift right.
    fn lshr(&mut self, a: Self::V, b: Self::V) -> Self::V;
    /// Arithmetic shift right.
    fn ashr(&mut self, a: Self::V, b: Self::V) -> Self::V;

    /// Equality (width-1 result).
    fn eq(&mut self, a: Self::V, b: Self::V) -> Self::V;
    /// Unsigned less-than (width-1 result).
    fn ult(&mut self, a: Self::V, b: Self::V) -> Self::V;
    /// Signed less-than (width-1 result).
    fn slt(&mut self, a: Self::V, b: Self::V) -> Self::V;

    /// If-then-else on a width-1 condition.
    fn ite(&mut self, c: Self::V, t: Self::V, e: Self::V) -> Self::V;
    /// Bit-slice `[hi:lo]`.
    fn extract(&mut self, a: Self::V, hi: u8, lo: u8) -> Self::V;
    /// Concatenation (first operand high).
    fn concat(&mut self, hi: Self::V, lo: Self::V) -> Self::V;
    /// Zero extension to `w`.
    fn zext(&mut self, a: Self::V, w: Width) -> Self::V;
    /// Sign extension to `w`.
    fn sext(&mut self, a: Self::V, w: Width) -> Self::V;

    /// Resolves a width-1 condition into control flow.
    ///
    /// Concretely this tests `v != 0`; symbolically it consults the decision
    /// tree and decision procedure, records the branch on the current path,
    /// and may pick either feasible direction (paper §3.1.2, "Online Decision
    /// Making").
    fn branch(&mut self, cond: Self::V, site: &'static str) -> bool;

    /// Obtains a concrete value for `v`, *exploring all feasible values*
    /// across paths via per-bit MSB-first branching (paper §3.1.2,
    /// "Extension to Word-sized Values"). Use for small domains such as
    /// switch scrutinees.
    fn concretize(&mut self, v: Self::V, site: &'static str) -> u64;

    /// Obtains a single feasible concrete value for `v` *without* exploring
    /// alternatives, constraining the path to it (paper §3.3.2, "Indexing
    /// Memory and Tables"). Use for large-domain indexes such as memory
    /// addresses, where "all 2^32 locations are equivalent".
    fn pick(&mut self, v: Self::V, site: &'static str) -> u64;

    /// Adds a side constraint to the current path without creating a
    /// decision-tree node. Used e.g. to fix the concrete bits of a partially
    /// symbolic byte (paper §3.3.1).
    fn assume(&mut self, cond: Self::V);

    /// Creates (or retrieves) a named input of width `w`.
    ///
    /// Symbolically this is a stable symbolic variable — the mechanism behind
    /// marking machine state symbolic (§3.3.1) and on-demand symbolic memory
    /// (§3.3.2). Concretely it reads as zero: the concrete emulator never
    /// invents inputs, and zero matches the baseline image's uninitialized
    /// memory.
    fn fresh_input(&mut self, w: Width, name: &str) -> Self::V;

    /// Replaces a summarized computation (§3.3.2) when a summary is
    /// registered under `key`. Returns `None` to run the real code; the
    /// concrete domain always does.
    fn summary_hook(&mut self, key: &'static str, args: &[Self::V]) -> Option<Vec<Self::V>> {
        let _ = (key, args);
        None
    }

    // ---- Conveniences with default implementations ----

    /// Disequality (width-1 result).
    fn ne(&mut self, a: Self::V, b: Self::V) -> Self::V {
        let e = self.eq(a, b);
        self.not(e)
    }

    /// Unsigned less-or-equal.
    fn ule(&mut self, a: Self::V, b: Self::V) -> Self::V {
        let lt = self.ult(b, a);
        self.not(lt)
    }

    /// Signed less-or-equal.
    fn sle(&mut self, a: Self::V, b: Self::V) -> Self::V {
        let lt = self.slt(b, a);
        self.not(lt)
    }

    /// Width-1 "true".
    fn tt(&mut self) -> Self::V {
        self.constant(1, 1)
    }

    /// Width-1 "false".
    fn ff(&mut self) -> Self::V {
        self.constant(1, 0)
    }

    /// `v != 0` as a width-1 value.
    fn nonzero(&mut self, v: Self::V) -> Self::V {
        let w = self.width(v);
        let zero = self.constant(w, 0);
        self.ne(v, zero)
    }

    /// Tests a single bit of `v`, returning a width-1 value.
    fn bit(&mut self, v: Self::V, i: u8) -> Self::V {
        self.extract(v, i, i)
    }

    /// Branches on `v != 0`.
    fn branch_nonzero(&mut self, v: Self::V, site: &'static str) -> bool {
        let c = self.nonzero(v);
        self.branch(c, site)
    }
}

/// The concrete value domain: plain machine arithmetic.
///
/// # Examples
///
/// ```
/// use pokemu_symx::{Concrete, Dom};
///
/// let mut d = Concrete::new();
/// let a = d.constant(8, 250);
/// let b = d.constant(8, 10);
/// let s = d.add(a, b);
/// assert_eq!(d.as_const(s), Some(4)); // wraps at 8 bits
/// ```
#[derive(Debug, Default, Clone)]
pub struct Concrete {
    _priv: (),
}

/// A concrete machine word: a value plus its width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CVal {
    /// The value, always masked to `w` bits.
    pub v: u64,
    /// The width in bits.
    pub w: Width,
}

impl Concrete {
    /// Creates the concrete domain.
    pub fn new() -> Self {
        Self::default()
    }
}

use pokemu_solver::{mask, sext64};

impl Dom for Concrete {
    type V = CVal;

    fn constant(&mut self, w: Width, v: u64) -> CVal {
        CVal { v: mask(w, v), w }
    }

    fn width(&self, v: CVal) -> Width {
        v.w
    }

    fn as_const(&self, v: CVal) -> Option<u64> {
        Some(v.v)
    }

    fn add(&mut self, a: CVal, b: CVal) -> CVal {
        debug_assert_eq!(a.w, b.w);
        CVal {
            v: mask(a.w, a.v.wrapping_add(b.v)),
            w: a.w,
        }
    }

    fn sub(&mut self, a: CVal, b: CVal) -> CVal {
        debug_assert_eq!(a.w, b.w);
        CVal {
            v: mask(a.w, a.v.wrapping_sub(b.v)),
            w: a.w,
        }
    }

    fn mul(&mut self, a: CVal, b: CVal) -> CVal {
        debug_assert_eq!(a.w, b.w);
        CVal {
            v: mask(a.w, a.v.wrapping_mul(b.v)),
            w: a.w,
        }
    }

    fn udiv(&mut self, a: CVal, b: CVal) -> CVal {
        let v = a.v.checked_div(b.v).unwrap_or(mask(a.w, u64::MAX));
        CVal { v, w: a.w }
    }

    fn urem(&mut self, a: CVal, b: CVal) -> CVal {
        let v = if b.v == 0 { a.v } else { a.v % b.v };
        CVal { v, w: a.w }
    }

    fn and(&mut self, a: CVal, b: CVal) -> CVal {
        CVal {
            v: a.v & b.v,
            w: a.w,
        }
    }

    fn or(&mut self, a: CVal, b: CVal) -> CVal {
        CVal {
            v: a.v | b.v,
            w: a.w,
        }
    }

    fn xor(&mut self, a: CVal, b: CVal) -> CVal {
        CVal {
            v: a.v ^ b.v,
            w: a.w,
        }
    }

    fn not(&mut self, a: CVal) -> CVal {
        CVal {
            v: mask(a.w, !a.v),
            w: a.w,
        }
    }

    fn neg(&mut self, a: CVal) -> CVal {
        CVal {
            v: mask(a.w, a.v.wrapping_neg()),
            w: a.w,
        }
    }

    fn shl(&mut self, a: CVal, b: CVal) -> CVal {
        let v = if b.v >= a.w as u64 {
            0
        } else {
            mask(a.w, a.v << b.v)
        };
        CVal { v, w: a.w }
    }

    fn lshr(&mut self, a: CVal, b: CVal) -> CVal {
        let v = if b.v >= a.w as u64 { 0 } else { a.v >> b.v };
        CVal { v, w: a.w }
    }

    fn ashr(&mut self, a: CVal, b: CVal) -> CVal {
        let sx = sext64(a.w, a.v);
        let v = if b.v >= a.w as u64 {
            mask(a.w, (sx >> 63) as u64)
        } else {
            mask(a.w, (sx >> b.v) as u64)
        };
        CVal { v, w: a.w }
    }

    fn eq(&mut self, a: CVal, b: CVal) -> CVal {
        CVal {
            v: (a.v == b.v) as u64,
            w: 1,
        }
    }

    fn ult(&mut self, a: CVal, b: CVal) -> CVal {
        CVal {
            v: (a.v < b.v) as u64,
            w: 1,
        }
    }

    fn slt(&mut self, a: CVal, b: CVal) -> CVal {
        CVal {
            v: (sext64(a.w, a.v) < sext64(b.w, b.v)) as u64,
            w: 1,
        }
    }

    fn ite(&mut self, c: CVal, t: CVal, e: CVal) -> CVal {
        if c.v != 0 {
            t
        } else {
            e
        }
    }

    fn extract(&mut self, a: CVal, hi: u8, lo: u8) -> CVal {
        let w = hi - lo + 1;
        CVal {
            v: mask(w, a.v >> lo),
            w,
        }
    }

    fn concat(&mut self, hi: CVal, lo: CVal) -> CVal {
        let w = hi.w + lo.w;
        CVal {
            v: (hi.v << lo.w) | lo.v,
            w,
        }
    }

    fn zext(&mut self, a: CVal, w: Width) -> CVal {
        debug_assert!(w >= a.w);
        CVal { v: a.v, w }
    }

    fn sext(&mut self, a: CVal, w: Width) -> CVal {
        debug_assert!(w >= a.w);
        CVal {
            v: mask(w, sext64(a.w, a.v) as u64),
            w,
        }
    }

    fn branch(&mut self, cond: CVal, _site: &'static str) -> bool {
        cond.v != 0
    }

    fn concretize(&mut self, v: CVal, _site: &'static str) -> u64 {
        v.v
    }

    fn pick(&mut self, v: CVal, _site: &'static str) -> u64 {
        v.v
    }

    fn assume(&mut self, cond: CVal) {
        debug_assert_ne!(cond.v, 0, "concrete assume violated");
    }

    fn fresh_input(&mut self, w: Width, _name: &str) -> CVal {
        CVal { v: 0, w }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concrete_ops_behave_like_hardware() {
        let mut d = Concrete::new();
        let a = d.constant(32, 0x8000_0000);
        let one = d.constant(32, 1);
        let shr = d.ashr(a, one);
        assert_eq!(d.as_const(shr), Some(0xC000_0000));
        let lt = d.slt(a, one);
        assert_eq!(d.as_const(lt), Some(1)); // negative < 1
        let ult = d.ult(a, one);
        assert_eq!(d.as_const(ult), Some(0));
    }

    #[test]
    fn default_helpers() {
        let mut d = Concrete::new();
        let x = d.constant(16, 0xab00);
        let b = d.bit(x, 15);
        assert_eq!(d.as_const(b), Some(1));
        let nz = d.nonzero(x);
        assert_eq!(d.as_const(nz), Some(1));
        let y = d.constant(16, 0xab01);
        let ne = d.ne(x, y);
        assert_eq!(d.as_const(ne), Some(1));
    }
}
