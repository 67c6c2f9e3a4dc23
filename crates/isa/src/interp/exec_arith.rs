//! Arithmetic, logic, shift, and bit-manipulation instructions.

use pokemu_symx::Dom;

use crate::flags::{self, add_flags, logic_flags, sub_flags, FlagSet};
use crate::inst::Inst;
use crate::state::flags::{AF, CF, OF, PF, SF, ZF};
use crate::state::{Exception, Gpr};

use super::{Exec, ExecResult, Flow};

const F_CF: u32 = 1 << CF;
const F_PF: u32 = 1 << PF;
const F_AF: u32 = 1 << AF;
const F_ZF: u32 = 1 << ZF;
const F_SF: u32 = 1 << SF;
const F_OF: u32 = 1 << OF;
const F_ALL: u32 = F_CF | F_PF | F_AF | F_ZF | F_SF | F_OF;

fn apply<D: Dom>(x: &mut Exec<'_, D>, set: &FlagSet<D::V>, defined: u32, undefined: u32) {
    x.m.eflags = flags::apply_flags(x.d, x.m.eflags, set, defined, undefined, x.q.undef_policy);
}

/// Computes one ALU family operation. Returns the result (to write back
/// unless the op is `cmp`), its flag set, and the defined/undefined masks.
fn alu_compute<D: Dom>(
    x: &mut Exec<'_, D>,
    op: u8,
    a: D::V,
    b: D::V,
) -> (D::V, FlagSet<D::V>, u32, u32, bool) {
    let d = &mut *x.d;
    match op {
        0 => {
            let r = d.add(a, b);
            let f = add_flags(d, a, b, None, r);
            (r, f, F_ALL, 0, true)
        }
        1 => {
            let r = d.or(a, b);
            let f = logic_flags(d, r);
            (r, f, F_ALL & !F_AF, F_AF, true)
        }
        2 => {
            let c = flags::get_bit(d, x.m.eflags, CF);
            let cw = d.zext(c, d.width(a));
            let ab = d.add(a, b);
            let r = d.add(ab, cw);
            let f = add_flags(d, a, b, Some(c), r);
            (r, f, F_ALL, 0, true)
        }
        3 => {
            let c = flags::get_bit(d, x.m.eflags, CF);
            let cw = d.zext(c, d.width(a));
            let ab = d.sub(a, b);
            let r = d.sub(ab, cw);
            let f = sub_flags(d, a, b, Some(c), r);
            (r, f, F_ALL, 0, true)
        }
        4 => {
            let r = d.and(a, b);
            let f = logic_flags(d, r);
            (r, f, F_ALL & !F_AF, F_AF, true)
        }
        5 => {
            let r = d.sub(a, b);
            let f = sub_flags(d, a, b, None, r);
            (r, f, F_ALL, 0, true)
        }
        6 => {
            let r = d.xor(a, b);
            let f = logic_flags(d, r);
            (r, f, F_ALL & !F_AF, F_AF, true)
        }
        _ => {
            let r = d.sub(a, b);
            let f = sub_flags(d, a, b, None, r);
            (r, f, F_ALL, 0, false) // cmp: no writeback
        }
    }
}

/// Opcodes `00..3D`: the eight ALU families in their six encodings.
pub(super) fn alu_family<D: Dom>(x: &mut Exec<'_, D>, inst: &Inst<D::V>) -> ExecResult {
    let op = ((inst.class.opcode >> 3) & 7) as u8;
    let enc = (inst.class.opcode & 7) as u8;
    let size = match enc {
        0 | 2 | 4 => 1,
        _ => inst.opsize(),
    };
    match enc {
        0 | 1 => {
            // r/m OP= r
            let mr = inst.modrm.as_ref().expect("modrm");
            let a = x.read_rm(inst, size)?;
            let b = x.read_reg(mr.reg, size);
            let (r, f, def, undef, wb) = alu_compute(x, op, a, b);
            if wb {
                x.write_rm(inst, size, r)?;
            }
            apply(x, &f, def, undef);
        }
        2 | 3 => {
            // r OP= r/m
            let mr = inst.modrm.as_ref().expect("modrm");
            let b = x.read_rm(inst, size)?;
            let a = x.read_reg(mr.reg, size);
            let (r, f, def, undef, wb) = alu_compute(x, op, a, b);
            if wb {
                x.write_reg(mr.reg, size, r);
            }
            apply(x, &f, def, undef);
        }
        _ => {
            // AL/eAX OP= imm
            let a = x.read_reg(Gpr::Eax as u8, size);
            let b = inst.imm.expect("imm form");
            let (r, f, def, undef, wb) = alu_compute(x, op, a, b);
            if wb {
                x.write_reg(Gpr::Eax as u8, size, r);
            }
            apply(x, &f, def, undef);
        }
    }
    Ok(Flow::Next)
}

/// Opcodes `80/81/82/83`: ALU group with immediate.
pub(super) fn alu_group<D: Dom>(x: &mut Exec<'_, D>, inst: &Inst<D::V>) -> ExecResult {
    let op = inst.class.group_reg.expect("group");
    let size = if matches!(inst.class.opcode, 0x80 | 0x82) {
        1
    } else {
        inst.opsize()
    };
    let a = x.read_rm(inst, size)?;
    let imm = inst.imm.expect("imm");
    let b = if inst.class.opcode == 0x83 {
        x.d.sext(imm, size * 8)
    } else {
        imm
    };
    let (r, f, def, undef, wb) = alu_compute(x, op, a, b);
    if wb {
        x.write_rm(inst, size, r)?;
    }
    apply(x, &f, def, undef);
    Ok(Flow::Next)
}

/// `test` in its four encodings (84/85/A8/A9).
pub(super) fn test_ops<D: Dom>(x: &mut Exec<'_, D>, inst: &Inst<D::V>) -> ExecResult {
    let size = if matches!(inst.class.opcode, 0x84 | 0xa8) {
        1
    } else {
        inst.opsize()
    };
    let (a, b) = match inst.class.opcode {
        0x84 | 0x85 => {
            let mr = inst.modrm.as_ref().expect("modrm");
            (x.read_rm(inst, size)?, x.read_reg(mr.reg, size))
        }
        _ => (x.read_reg(Gpr::Eax as u8, size), inst.imm.expect("imm")),
    };
    let r = x.d.and(a, b);
    let f = logic_flags(x.d, r);
    apply(x, &f, F_ALL & !F_AF, F_AF);
    Ok(Flow::Next)
}

/// Group `F6`/`F7`: test/not/neg/mul/imul/div/idiv.
pub(super) fn group_f6<D: Dom>(x: &mut Exec<'_, D>, inst: &Inst<D::V>) -> ExecResult {
    let size = if inst.class.opcode == 0xf6 {
        1
    } else {
        inst.opsize()
    };
    let w = size * 8;
    let g = inst.class.group_reg.expect("group");
    match g {
        0 | 1 => {
            // test r/m, imm (1 is the undocumented alias)
            let a = x.read_rm(inst, size)?;
            let b = inst.imm.expect("imm");
            let r = x.d.and(a, b);
            let f = logic_flags(x.d, r);
            apply(x, &f, F_ALL & !F_AF, F_AF);
        }
        2 => {
            // not
            let a = x.read_rm(inst, size)?;
            let r = x.d.not(a);
            x.write_rm(inst, size, r)?;
        }
        3 => {
            // neg
            let a = x.read_rm(inst, size)?;
            let zero = x.d.constant(w, 0);
            let r = x.d.neg(a);
            let mut f = sub_flags(x.d, zero, a, None, r);
            // CF = (src != 0)
            f.cf = x.d.ne(a, zero);
            x.write_rm(inst, size, r)?;
            apply(x, &f, F_ALL, 0);
        }
        4 | 5 => mul_imul(x, inst, size, g == 5)?,
        _ => div_idiv(x, inst, size, g == 7)?,
    }
    Ok(Flow::Next)
}

fn mul_imul<D: Dom>(
    x: &mut Exec<'_, D>,
    inst: &Inst<D::V>,
    size: u8,
    signed: bool,
) -> Result<(), Exception> {
    let w = size * 8;
    let src = x.read_rm(inst, size)?;
    let acc = x.read_reg(Gpr::Eax as u8, size);
    let (aw, bw) = if signed {
        (x.d.sext(acc, w * 2), x.d.sext(src, w * 2))
    } else {
        (x.d.zext(acc, w * 2), x.d.zext(src, w * 2))
    };
    let full = x.d.mul(aw, bw);
    let lo = x.d.extract(full, w - 1, 0);
    let hi = x.d.extract(full, 2 * w - 1, w);
    // CF = OF = the upper half carries information.
    let over = if signed {
        let resext = x.d.sext(lo, 2 * w);
        x.d.ne(full, resext)
    } else {
        let z = x.d.constant(w, 0);
        x.d.ne(hi, z)
    };
    // Write results: AX for byte ops, DX:AX / EDX:EAX otherwise.
    if size == 1 {
        let full16 = x.d.extract(full, 15, 0);
        x.write_reg(Gpr::Eax as u8, 2, full16);
    } else {
        x.write_reg(Gpr::Eax as u8, size, lo);
        x.write_reg(Gpr::Edx as u8, size, hi);
    }
    let pf = flags::parity(x.d, lo);
    let zf = flags::zero(x.d, lo);
    let sf = flags::sign(x.d, lo);
    let f = FlagSet {
        cf: over,
        pf,
        af: x.d.ff(),
        zf,
        sf,
        of: over,
    };
    apply(x, &f, F_CF | F_OF, F_PF | F_AF | F_ZF | F_SF);
    Ok(())
}

fn div_idiv<D: Dom>(
    x: &mut Exec<'_, D>,
    inst: &Inst<D::V>,
    size: u8,
    signed: bool,
) -> Result<(), Exception> {
    let w = size * 8;
    let divisor = x.read_rm(inst, size)?;
    let zero = x.d.constant(w, 0);
    let div_zero = x.d.eq(divisor, zero);
    if x.d.branch(div_zero, "divide by zero") {
        return Err(Exception::De);
    }
    // Dividend: AX for byte ops, DX:AX / EDX:EAX otherwise.
    let dividend = if size == 1 {
        x.read_reg(Gpr::Eax as u8, 2)
    } else {
        let lo = x.read_reg(Gpr::Eax as u8, size);
        let hi = x.read_reg(Gpr::Edx as u8, size);
        x.d.concat(hi, lo)
    };
    let (q_full, r_full) = if signed {
        // Signed division via magnitudes.
        let w2 = w * 2;
        let dsx = x.d.sext(divisor, w2);
        let sign_a = flags::sign(x.d, dividend);
        let sign_b = flags::sign(x.d, dsx);
        let neg_a = x.d.neg(dividend);
        let neg_b = x.d.neg(dsx);
        let abs_a = x.d.ite(sign_a, neg_a, dividend);
        let abs_b = x.d.ite(sign_b, neg_b, dsx);
        let uq = x.d.udiv(abs_a, abs_b);
        let ur = x.d.urem(abs_a, abs_b);
        let q_neg = x.d.xor(sign_a, sign_b);
        let nq = x.d.neg(uq);
        let nr = x.d.neg(ur);
        let q = x.d.ite(q_neg, nq, uq);
        let r = x.d.ite(sign_a, nr, ur);
        // Overflow: quotient must fit in signed w bits.
        let q_lo = x.d.extract(q, w - 1, 0);
        let q_ext = x.d.sext(q_lo, w2);
        let over = x.d.ne(q_ext, q);
        if x.d.branch(over, "idiv overflow") {
            return Err(Exception::De);
        }
        (q, r)
    } else {
        let w2 = w * 2;
        let dzx = x.d.zext(divisor, w2);
        let q = x.d.udiv(dividend, dzx);
        let r = x.d.urem(dividend, dzx);
        let max = x.d.constant(w2, (1u64 << w) - 1);
        let over = x.d.ult(max, q);
        if x.d.branch(over, "div overflow") {
            return Err(Exception::De);
        }
        (q, r)
    };
    let q = x.d.extract(q_full, w - 1, 0);
    let r = x.d.extract(r_full, w - 1, 0);
    if size == 1 {
        // AL = quotient, AH = remainder.
        let packed = x.d.concat(r, q);
        x.write_reg(Gpr::Eax as u8, 2, packed);
    } else {
        x.write_reg(Gpr::Eax as u8, size, q);
        x.write_reg(Gpr::Edx as u8, size, r);
    }
    // All six status flags are undefined after division.
    let z = x.d.ff();
    let f = FlagSet {
        cf: z,
        pf: z,
        af: z,
        zf: z,
        sf: z,
        of: z,
    };
    apply(x, &f, 0, F_ALL);
    Ok(())
}

/// Group `FE`/`FF` reg 0/1 (`inc`/`dec` on r/m); the control-flow members of
/// `FF` are dispatched in `exec_control`.
pub(super) fn group_fe_ff<D: Dom>(x: &mut Exec<'_, D>, inst: &Inst<D::V>) -> ExecResult {
    let g = inst.class.group_reg.expect("group");
    match g {
        0 | 1 => {
            let size = if inst.class.opcode == 0xfe {
                1
            } else {
                inst.opsize()
            };
            let a = x.read_rm(inst, size)?;
            let one = x.d.constant(size * 8, 1);
            let (r, f) = if g == 0 {
                let r = x.d.add(a, one);
                (r, add_flags(x.d, a, one, None, r))
            } else {
                let r = x.d.sub(a, one);
                (r, sub_flags(x.d, a, one, None, r))
            };
            x.write_rm(inst, size, r)?;
            apply(x, &f, F_ALL & !F_CF, 0); // CF preserved
            Ok(Flow::Next)
        }
        2..=5 => super::exec_control::indirect_ff(x, inst),
        6 => {
            // push r/m
            let size = inst.opsize();
            let v = x.read_rm(inst, size)?;
            x.push(v, size)?;
            Ok(Flow::Next)
        }
        _ => Err(Exception::Ud),
    }
}

/// Opcodes `40..4F`: `inc`/`dec` on a register encoded in the opcode.
pub(super) fn inc_dec_reg<D: Dom>(x: &mut Exec<'_, D>, inst: &Inst<D::V>) -> ExecResult {
    let op = inst.class.opcode as u8;
    let reg = op & 7;
    let size = inst.opsize();
    let a = x.read_reg(reg, size);
    let one = x.d.constant(size * 8, 1);
    let (r, f) = if op < 0x48 {
        let r = x.d.add(a, one);
        (r, add_flags(x.d, a, one, None, r))
    } else {
        let r = x.d.sub(a, one);
        (r, sub_flags(x.d, a, one, None, r))
    };
    x.write_reg(reg, size, r);
    apply(x, &f, F_ALL & !F_CF, 0);
    Ok(Flow::Next)
}

/// Shift/rotate group (`C0`/`C1`/`D0`..`D3`).
pub(super) fn shift_group<D: Dom>(x: &mut Exec<'_, D>, inst: &Inst<D::V>) -> ExecResult {
    let op = inst.class.opcode;
    let size = if matches!(op, 0xc0 | 0xd0 | 0xd2) {
        1
    } else {
        inst.opsize()
    };
    let w = size * 8;
    let g = inst.class.group_reg.expect("group");

    // Count source: imm8, the constant 1, or CL; masked to 5 bits.
    let raw_count = match op {
        0xc0 | 0xc1 => inst.imm.expect("imm8"),
        0xd0 | 0xd1 => x.d.constant(8, 1),
        _ => x.read_reg(Gpr::Ecx as u8, 1),
    };
    let mask5 = x.d.constant(8, 0x1f);
    let count8 = x.d.and(raw_count, mask5);
    let count = if w > 8 { x.d.zext(count8, w) } else { count8 };

    let v = x.read_rm(inst, size)?;
    let zero_cnt = {
        let z = x.d.constant(w, 0);
        x.d.eq(count, z)
    };
    if x.d.branch(zero_cnt, "shift count zero") {
        // Still performs the write (fault behavior preserved), flags kept.
        x.write_rm(inst, size, v)?;
        return Ok(Flow::Next);
    }

    let one = x.d.constant(w, 1);
    let cm1 = x.d.sub(count, one);
    let wv = x.d.constant(w, w as u64);
    let is_one = x.d.eq(count, one);

    let (res, cf, of_when_one) = match g {
        4 | 6 => {
            // shl / sal
            let res = x.d.shl(v, count);
            let pre = x.d.shl(v, cm1);
            let cf = x.d.extract(pre, w - 1, w - 1);
            let msb = flags::sign(x.d, res);
            let of = x.d.xor(msb, cf);
            (res, cf, of)
        }
        5 => {
            // shr
            let res = x.d.lshr(v, count);
            let pre = x.d.lshr(v, cm1);
            let cf = x.d.extract(pre, 0, 0);
            let of = flags::sign(x.d, v);
            (res, cf, of)
        }
        7 => {
            // sar
            let res = x.d.ashr(v, count);
            let pre = x.d.ashr(v, cm1);
            let cf = x.d.extract(pre, 0, 0);
            let of = x.d.ff();
            (res, cf, of)
        }
        0 => {
            // rol
            let k = x.d.urem(count, wv);
            let wk = x.d.sub(wv, k);
            let l = x.d.shl(v, k);
            let r = x.d.lshr(v, wk);
            let res = x.d.or(l, r);
            let cf = x.d.extract(res, 0, 0);
            let msb = flags::sign(x.d, res);
            let of = x.d.xor(msb, cf);
            (res, cf, of)
        }
        1 => {
            // ror
            let k = x.d.urem(count, wv);
            let wk = x.d.sub(wv, k);
            let r = x.d.lshr(v, k);
            let l = x.d.shl(v, wk);
            let res = x.d.or(l, r);
            let cf = flags::sign(x.d, res);
            let next = x.d.extract(res, w - 2, w - 2);
            let of = x.d.xor(cf, next);
            (res, cf, of)
        }
        _ => {
            // rcl / rcr: rotate through carry, modulo w+1.
            let carry = flags::get_bit(x.d, x.m.eflags, CF);
            let t = x.d.concat(carry, v); // bit w = CF
            let w1 = w + 1;
            let cnt1 = x.d.zext(count, w1);
            let wv1 = x.d.constant(w1, w1 as u64);
            let k = x.d.urem(cnt1, wv1);
            let wk = x.d.sub(wv1, k);
            let rotated = if g == 2 {
                let l = x.d.shl(t, k);
                let r = x.d.lshr(t, wk);
                x.d.or(l, r)
            } else {
                let r = x.d.lshr(t, k);
                let l = x.d.shl(t, wk);
                x.d.or(l, r)
            };
            let res = x.d.extract(rotated, w - 1, 0);
            let cf = x.d.extract(rotated, w, w);
            let of = if g == 2 {
                let msb = flags::sign(x.d, res);
                x.d.xor(msb, cf)
            } else {
                let msb = flags::sign(x.d, res);
                let next = x.d.extract(res, w - 2, w - 2);
                x.d.xor(msb, next)
            };
            (res, cf, of)
        }
    };

    x.write_rm(inst, size, res)?;

    let is_rotate = g <= 3;
    let pf = flags::parity(x.d, res);
    let zf = flags::zero(x.d, res);
    let sf = flags::sign(x.d, res);
    let f = FlagSet {
        cf,
        pf,
        af: x.d.ff(),
        zf,
        sf,
        of: of_when_one,
    };
    if x.d.branch(is_one, "shift count is one") {
        let defined = if is_rotate {
            F_CF | F_OF
        } else {
            F_CF | F_PF | F_ZF | F_SF | F_OF
        };
        let undefined = if is_rotate { 0 } else { F_AF };
        apply(x, &f, defined, undefined);
    } else {
        let defined = if is_rotate {
            F_CF
        } else {
            F_CF | F_PF | F_ZF | F_SF
        };
        let undefined = if is_rotate { F_OF } else { F_AF | F_OF };
        apply(x, &f, defined, undefined);
    }
    Ok(Flow::Next)
}

/// Two-operand `imul` (69 / 6B / 0F AF).
pub(super) fn imul_2op<D: Dom>(x: &mut Exec<'_, D>, inst: &Inst<D::V>) -> ExecResult {
    let size = inst.opsize();
    let w = size * 8;
    let mr = inst.modrm.as_ref().expect("modrm");
    let a = x.read_rm(inst, size)?;
    let b = match inst.class.opcode {
        0x69 => inst.imm.expect("imm"),
        0x6b => {
            let i = inst.imm.expect("imm8");
            x.d.sext(i, w)
        }
        _ => x.read_reg(mr.reg, size),
    };
    let (b, a) = (a, b); // imul r, r/m, imm: operands commute anyway
    let ax = x.d.sext(a, w * 2);
    let bx = x.d.sext(b, w * 2);
    let full = x.d.mul(ax, bx);
    let lo = x.d.extract(full, w - 1, 0);
    let ext = x.d.sext(lo, w * 2);
    let over = x.d.ne(full, ext);
    x.write_reg(mr.reg, size, lo);
    let pf = flags::parity(x.d, lo);
    let zf = flags::zero(x.d, lo);
    let sf = flags::sign(x.d, lo);
    let f = FlagSet {
        cf: over,
        pf,
        af: x.d.ff(),
        zf,
        sf,
        of: over,
    };
    apply(x, &f, F_CF | F_OF, F_PF | F_AF | F_ZF | F_SF);
    Ok(Flow::Next)
}

/// `shld` / `shrd`.
pub(super) fn shld_shrd<D: Dom>(x: &mut Exec<'_, D>, inst: &Inst<D::V>) -> ExecResult {
    let size = inst.opsize();
    let w = size * 8;
    let mr = inst.modrm.as_ref().expect("modrm");
    let left = matches!(inst.class.opcode, 0x0fa4 | 0x0fa5);
    let raw_count = match inst.class.opcode {
        0x0fa4 | 0x0fac => inst.imm.expect("imm8"),
        _ => x.read_reg(Gpr::Ecx as u8, 1),
    };
    let m5 = x.d.constant(8, 0x1f);
    let count8 = x.d.and(raw_count, m5);
    let dst = x.read_rm(inst, size)?;
    let src = x.read_reg(mr.reg, size);
    let zero_cnt = {
        let z = x.d.constant(8, 0);
        x.d.eq(count8, z)
    };
    if x.d.branch(zero_cnt, "shxd count zero") {
        x.write_rm(inst, size, dst)?;
        return Ok(Flow::Next);
    }
    let w2 = w * 2;
    let count = x.d.zext(count8, w2);
    let one = x.d.constant(w2, 1);
    let cm1 = x.d.sub(count, one);
    let (res, cf) = if left {
        let t = x.d.concat(dst, src); // dst in high half
        let sh = x.d.shl(t, count);
        let res = x.d.extract(sh, w2 - 1, w);
        let pre = x.d.shl(t, cm1);
        let cf = x.d.extract(pre, w2 - 1, w2 - 1);
        (res, cf)
    } else {
        let t = x.d.concat(src, dst); // dst in low half
        let sh = x.d.lshr(t, count);
        let res = x.d.extract(sh, w - 1, 0);
        let pre = x.d.lshr(t, cm1);
        let cf = x.d.extract(pre, 0, 0);
        (res, cf)
    };
    x.write_rm(inst, size, res)?;
    let msb_r = flags::sign(x.d, res);
    let msb_d = flags::sign(x.d, dst);
    let of = x.d.xor(msb_r, msb_d);
    let pf = flags::parity(x.d, res);
    let zf = flags::zero(x.d, res);
    let f = FlagSet {
        cf,
        pf,
        af: x.d.ff(),
        zf,
        sf: msb_r,
        of,
    };
    let is_one = {
        let o = x.d.constant(8, 1);
        x.d.eq(count8, o)
    };
    if x.d.branch(is_one, "shxd count one") {
        apply(x, &f, F_CF | F_PF | F_ZF | F_SF | F_OF, F_AF);
    } else {
        apply(x, &f, F_CF | F_PF | F_ZF | F_SF, F_AF | F_OF);
    }
    Ok(Flow::Next)
}

/// Stores a bit-test instruction's updated operand where it was read from.
type WriteBack<'a, D> =
    Box<dyn FnOnce(&mut Exec<'_, D>, <D as Dom>::V) -> Result<(), Exception> + 'a>;

/// `bt`/`bts`/`btr`/`btc` with register or immediate bit offsets.
pub(super) fn bit_ops<D: Dom>(x: &mut Exec<'_, D>, inst: &Inst<D::V>) -> ExecResult {
    let size = inst.opsize();
    let w = size * 8;
    let mr = inst.modrm.as_ref().expect("modrm");
    let (action, offset_is_reg): (u8, bool) = match inst.class.opcode {
        0x0fa3 => (0, true),
        0x0fab => (1, true),
        0x0fb3 => (2, true),
        0x0fbb => (3, true),
        _ => (inst.class.group_reg.expect("0fba group") - 4, false),
    };
    let bitoff_full = if offset_is_reg {
        x.read_reg(mr.reg, size)
    } else {
        let i = inst.imm.expect("imm8");
        x.d.zext(i, w)
    };
    let wm1 = x.d.constant(w, (w - 1) as u64);
    let bit_in_word = x.d.and(bitoff_full, wm1);

    let (val, write_back): (D::V, WriteBack<'_, D>) = match (&mr.mem, offset_is_reg) {
        (Some(mem), true) => {
            // Bit-string addressing: the word index extends the EA,
            // sign-extended (negative offsets reach below the base).
            let ea = x.effective_address(mem);
            let shift = x.d.constant(w, if w == 16 { 4 } else { 5 });
            let word_idx = x.d.ashr(bitoff_full, shift);
            let word_idx32 = x.d.sext(word_idx, 32);
            let bytes = x.d.constant(32, if w == 16 { 1 } else { 2 });
            let byte_off = x.d.shl(word_idx32, bytes);
            let addr = x.d.add(ea, byte_off);
            let seg = mem.seg;
            let v = crate::translate::mem_read(x.d, x.m, seg, addr, size)?;
            (
                v,
                Box::new(move |x, nv| crate::translate::mem_write(x.d, x.m, seg, addr, nv, size)),
            )
        }
        (Some(mem), false) => {
            let ea = x.effective_address(mem);
            let seg = mem.seg;
            let v = crate::translate::mem_read(x.d, x.m, seg, ea, size)?;
            (
                v,
                Box::new(move |x, nv| crate::translate::mem_write(x.d, x.m, seg, ea, nv, size)),
            )
        }
        (None, _) => {
            let rm = mr.rm;
            let v = x.read_reg(rm, size);
            (
                v,
                Box::new(move |x, nv| {
                    x.write_reg(rm, size, nv);
                    Ok(())
                }),
            )
        }
    };

    let shifted = x.d.lshr(val, bit_in_word);
    let cf = x.d.extract(shifted, 0, 0);
    let onew = x.d.constant(w, 1);
    let mask = x.d.shl(onew, bit_in_word);
    match action {
        0 => {}
        1 => {
            let nv = x.d.or(val, mask);
            write_back(x, nv)?;
        }
        2 => {
            let nm = x.d.not(mask);
            let nv = x.d.and(val, nm);
            write_back(x, nv)?;
        }
        _ => {
            let nv = x.d.xor(val, mask);
            write_back(x, nv)?;
        }
    }
    let z = x.d.ff();
    let f = FlagSet {
        cf,
        pf: z,
        af: z,
        zf: z,
        sf: z,
        of: z,
    };
    apply(x, &f, F_CF, F_PF | F_AF | F_ZF | F_SF | F_OF);
    Ok(Flow::Next)
}

/// `bsf` / `bsr`.
pub(super) fn bsf_bsr<D: Dom>(x: &mut Exec<'_, D>, inst: &Inst<D::V>) -> ExecResult {
    let size = inst.opsize();
    let w = size * 8;
    let mr = inst.modrm.as_ref().expect("modrm");
    let src = x.read_rm(inst, size)?;
    let zf = flags::zero(x.d, src);
    let forward = inst.class.opcode == 0x0fbc;
    if !x.d.branch(zf, "bsf/bsr source zero") {
        // Scan: build an ITE cascade so no extra paths are created.
        let mut res = x.d.constant(w, 0);
        let order: Box<dyn Iterator<Item = u8>> = if forward {
            Box::new((0..w).rev())
        } else {
            Box::new(0..w)
        };
        for i in order {
            let bit = x.d.extract(src, i, i);
            let iv = x.d.constant(w, i as u64);
            res = x.d.ite(bit, iv, res);
        }
        x.write_reg(mr.reg, size, res);
    }
    // ZF defined; everything else undefined. Destination is unchanged when
    // the source is zero (hardware-observed behavior).
    let z = x.d.ff();
    let f = FlagSet {
        cf: z,
        pf: z,
        af: z,
        zf,
        sf: z,
        of: z,
    };
    apply(x, &f, F_ZF, F_CF | F_PF | F_AF | F_SF | F_OF);
    Ok(Flow::Next)
}

/// `cmpxchg`: always writes the destination; accumulator update is
/// fault-ordered *after* the write check (the atomicity property QEMU
/// violates, §6.2).
pub(super) fn cmpxchg<D: Dom>(x: &mut Exec<'_, D>, inst: &Inst<D::V>) -> ExecResult {
    let size = if inst.class.opcode == 0x0fb0 {
        1
    } else {
        inst.opsize()
    };
    let mr = inst.modrm.as_ref().expect("modrm");
    let dest = x.read_rm(inst, size)?;
    let acc = x.read_reg(Gpr::Eax as u8, size);
    let src = x.read_reg(mr.reg, size);
    let equal = x.d.eq(acc, dest);
    let diff = x.d.sub(acc, dest);
    let f = sub_flags(x.d, acc, dest, None, diff);
    // The destination is written unconditionally (old value when not equal);
    // the write permission check therefore happens before any commit.
    let new_dest = x.d.ite(equal, src, dest);
    x.write_rm(inst, size, new_dest)?;
    let new_acc = x.d.ite(equal, acc, dest);
    x.write_reg(Gpr::Eax as u8, size, new_acc);
    apply(x, &f, F_ALL, 0);
    Ok(Flow::Next)
}

/// `xadd`.
pub(super) fn xadd<D: Dom>(x: &mut Exec<'_, D>, inst: &Inst<D::V>) -> ExecResult {
    let size = if inst.class.opcode == 0x0fc0 {
        1
    } else {
        inst.opsize()
    };
    let mr = inst.modrm.as_ref().expect("modrm");
    let dest = x.read_rm(inst, size)?;
    let src = x.read_reg(mr.reg, size);
    let sum = x.d.add(dest, src);
    let f = add_flags(x.d, dest, src, None, sum);
    x.write_rm(inst, size, sum)?;
    x.write_reg(mr.reg, size, dest);
    apply(x, &f, F_ALL, 0);
    Ok(Flow::Next)
}

/// `bswap r32`.
pub(super) fn bswap<D: Dom>(x: &mut Exec<'_, D>, inst: &Inst<D::V>) -> ExecResult {
    let reg = (inst.class.opcode & 7) as u8;
    let v = x.read_reg(reg, 4);
    let b0 = x.d.extract(v, 7, 0);
    let b1 = x.d.extract(v, 15, 8);
    let b2 = x.d.extract(v, 23, 16);
    let b3 = x.d.extract(v, 31, 24);
    let lo = x.d.concat(b1, b2);
    let hi = x.d.concat(b0, lo);
    let res = x.d.concat(hi, b3);
    x.write_reg(reg, 4, res);
    Ok(Flow::Next)
}

/// BCD adjustments: `daa`/`das`/`aaa`/`aas`/`aam`/`aad`.
pub(super) fn bcd<D: Dom>(x: &mut Exec<'_, D>, inst: &Inst<D::V>) -> ExecResult {
    let al = x.read_reg(Gpr::Eax as u8, 1);
    let ah = {
        let ax = x.read_reg(Gpr::Eax as u8, 2);
        x.d.extract(ax, 15, 8)
    };
    let cf_in = flags::get_bit(x.d, x.m.eflags, CF);
    let af_in = flags::get_bit(x.d, x.m.eflags, AF);
    let nine = x.d.constant(8, 9);
    let lo_nib = {
        let m = x.d.constant(8, 0xf);
        x.d.and(al, m)
    };
    let lo_gt9 = x.d.ult(nine, lo_nib);
    let adjust_lo = x.d.or(lo_gt9, af_in);
    match inst.class.opcode {
        0x27 | 0x2f => {
            // daa / das
            let is_add = inst.class.opcode == 0x27;
            let ninety9 = x.d.constant(8, 0x99);
            let hi_gt = x.d.ult(ninety9, al);
            let adjust_hi = x.d.or(hi_gt, cf_in);
            let six = x.d.constant(8, 6);
            let step1 = if is_add {
                x.d.add(al, six)
            } else {
                x.d.sub(al, six)
            };
            let al1 = x.d.ite(adjust_lo, step1, al);
            let sixty = x.d.constant(8, 0x60);
            let step2 = if is_add {
                x.d.add(al1, sixty)
            } else {
                x.d.sub(al1, sixty)
            };
            let al2 = x.d.ite(adjust_hi, step2, al1);
            x.write_reg(Gpr::Eax as u8, 1, al2);
            let pf = flags::parity(x.d, al2);
            let zf = flags::zero(x.d, al2);
            let sf = flags::sign(x.d, al2);
            let f = FlagSet {
                cf: adjust_hi,
                pf,
                af: adjust_lo,
                zf,
                sf,
                of: x.d.ff(),
            };
            apply(x, &f, F_CF | F_AF | F_PF | F_ZF | F_SF, F_OF);
        }
        0x37 | 0x3f => {
            // aaa / aas
            let is_add = inst.class.opcode == 0x37;
            let six = x.d.constant(8, 6);
            let one = x.d.constant(8, 1);
            let al_adj = if is_add {
                x.d.add(al, six)
            } else {
                x.d.sub(al, six)
            };
            let ah_adj = if is_add {
                x.d.add(ah, one)
            } else {
                x.d.sub(ah, one)
            };
            let new_al = x.d.ite(adjust_lo, al_adj, al);
            let m = x.d.constant(8, 0xf);
            let new_al = x.d.and(new_al, m);
            let new_ah = x.d.ite(adjust_lo, ah_adj, ah);
            let ax = x.d.concat(new_ah, new_al);
            x.write_reg(Gpr::Eax as u8, 2, ax);
            let z = x.d.ff();
            let f = FlagSet {
                cf: adjust_lo,
                pf: z,
                af: adjust_lo,
                zf: z,
                sf: z,
                of: z,
            };
            apply(x, &f, F_CF | F_AF, F_PF | F_ZF | F_SF | F_OF);
        }
        0xd4 => {
            // aam imm8: divides AL — #DE on zero.
            let imm = inst.imm.expect("imm8");
            let z8 = x.d.constant(8, 0);
            let is_zero = x.d.eq(imm, z8);
            if x.d.branch(is_zero, "aam divisor zero") {
                return Err(Exception::De);
            }
            let q = x.d.udiv(al, imm);
            let r = x.d.urem(al, imm);
            let ax = x.d.concat(q, r);
            x.write_reg(Gpr::Eax as u8, 2, ax);
            let pf = flags::parity(x.d, r);
            let zf = flags::zero(x.d, r);
            let sf = flags::sign(x.d, r);
            let zb = x.d.ff();
            let f = FlagSet {
                cf: zb,
                pf,
                af: zb,
                zf,
                sf,
                of: zb,
            };
            apply(x, &f, F_PF | F_ZF | F_SF, F_CF | F_AF | F_OF);
        }
        _ => {
            // aad imm8
            let imm = inst.imm.expect("imm8");
            let prod = x.d.mul(ah, imm);
            let new_al = x.d.add(al, prod);
            let z8 = x.d.constant(8, 0);
            let ax = x.d.concat(z8, new_al);
            x.write_reg(Gpr::Eax as u8, 2, ax);
            let pf = flags::parity(x.d, new_al);
            let zf = flags::zero(x.d, new_al);
            let sf = flags::sign(x.d, new_al);
            let zb = x.d.ff();
            let f = FlagSet {
                cf: zb,
                pf,
                af: zb,
                zf,
                sf,
                of: zb,
            };
            apply(x, &f, F_PF | F_ZF | F_SF, F_CF | F_AF | F_OF);
        }
    }
    Ok(Flow::Next)
}

/// `salc` (undocumented): AL = CF ? 0xFF : 0.
pub(super) fn salc<D: Dom>(x: &mut Exec<'_, D>) -> ExecResult {
    let cf = flags::get_bit(x.d, x.m.eflags, CF);
    let ff = x.d.constant(8, 0xff);
    let z = x.d.constant(8, 0);
    let al = x.d.ite(cf, ff, z);
    x.write_reg(Gpr::Eax as u8, 1, al);
    Ok(Flow::Next)
}

/// `cbw`/`cwde` (98) and `cwd`/`cdq` (99).
pub(super) fn sign_extensions<D: Dom>(x: &mut Exec<'_, D>, inst: &Inst<D::V>) -> ExecResult {
    let size = inst.opsize();
    if inst.class.opcode == 0x98 {
        let half = x.read_reg(Gpr::Eax as u8, size / 2);
        let ext = x.d.sext(half, size * 8);
        x.write_reg(Gpr::Eax as u8, size, ext);
    } else {
        let acc = x.read_reg(Gpr::Eax as u8, size);
        let sign = flags::sign(x.d, acc);
        let ones = x.d.constant(size * 8, u64::MAX);
        let zero = x.d.constant(size * 8, 0);
        let hi = x.d.ite(sign, ones, zero);
        x.write_reg(Gpr::Edx as u8, size, hi);
    }
    Ok(Flow::Next)
}

/// `movzx` / `movsx`.
pub(super) fn movzx_movsx<D: Dom>(x: &mut Exec<'_, D>, inst: &Inst<D::V>) -> ExecResult {
    let mr = inst.modrm.as_ref().expect("modrm");
    let src_size = if matches!(inst.class.opcode, 0x0fb6 | 0x0fbe) {
        1
    } else {
        2
    };
    let dst_size = inst.opsize();
    let v = x.read_rm(inst, src_size)?;
    let out = if matches!(inst.class.opcode, 0x0fb6 | 0x0fb7) {
        x.d.zext(v, dst_size * 8)
    } else {
        x.d.sext(v, dst_size * 8)
    };
    // movzx r16, r/m16 (and movsx alike) truncates to the destination size.
    let out = if src_size * 8 >= dst_size * 8 {
        x.d.extract(v, dst_size * 8 - 1, 0)
    } else {
        out
    };
    x.write_reg(mr.reg, dst_size, out);
    Ok(Flow::Next)
}

/// `setcc`.
pub(super) fn setcc<D: Dom>(x: &mut Exec<'_, D>, inst: &Inst<D::V>) -> ExecResult {
    let cc = (inst.class.opcode & 0xf) as u8;
    let cond = flags::condition(x.d, x.m.eflags, cc);
    let v = x.d.zext(cond, 8);
    x.write_rm(inst, 1, v)?;
    Ok(Flow::Next)
}

/// `cmovcc`: the memory read happens regardless of the condition.
pub(super) fn cmovcc<D: Dom>(x: &mut Exec<'_, D>, inst: &Inst<D::V>) -> ExecResult {
    let size = inst.opsize();
    let cc = (inst.class.opcode & 0xf) as u8;
    let mr = inst.modrm.as_ref().expect("modrm");
    let src = x.read_rm(inst, size)?;
    let cond = flags::condition(x.d, x.m.eflags, cc);
    let old = x.read_reg(mr.reg, size);
    let v = x.d.ite(cond, src, old);
    x.write_reg(mr.reg, size, v);
    Ok(Flow::Next)
}
