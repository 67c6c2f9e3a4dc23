//! The guest-to-micro-op translator (QEMU's `translate.c` analogue).
//!
//! Each call translates a straight-line run of guest instructions into one
//! translation block. The translator reuses the shared instruction *format*
//! decoder from `pokemu-isa` (prefixes/opcode/ModRM parsing is not where
//! QEMU's bugs live) but applies its own acceptance policy: undocumented
//! encodings that real CPUs and the Hi-Fi emulator accept are rejected here
//! unless [`crate::Fidelity::accept_undocumented`] is set — reproducing
//! "QEMU does not consider valid certain instruction encodings" (§6.2).

use pokemu_isa::decode::decode;
use pokemu_isa::inst::{Inst, Rep};
use pokemu_isa::state::{Exception, Gpr, Seg};
use pokemu_isa::translate::desc_kind;
use pokemu_symx::{CVal, Concrete, Dom};

use crate::mmu;
use crate::state::{Fidelity, LofiMachine};
use crate::uop::{AluKind, CcKind, Helper, Uop, T};

/// A translated block.
#[derive(Debug, Clone)]
pub struct Tb {
    /// Guest address of the first instruction.
    pub start: u32,
    /// Guest address one past the last translated byte.
    pub end: u32,
    /// The micro-ops.
    pub uops: Vec<Uop>,
    /// Number of guest instructions.
    pub insns: u32,
}

struct Emit {
    uops: Vec<Uop>,
    next_t: u16,
}

impl Emit {
    fn t(&mut self) -> T {
        let t = self.next_t;
        self.next_t += 1;
        assert!(t < 250, "temp overflow in one instruction");
        t as T
    }

    fn push(&mut self, u: Uop) {
        self.uops.push(u);
    }

    fn konst(&mut self, val: u32) -> T {
        let dst = self.t();
        self.push(Uop::Const { dst, val });
        dst
    }

    fn read_reg(&mut self, reg: u8, size: u8) -> T {
        let dst = self.t();
        self.push(Uop::ReadReg { dst, reg, size });
        dst
    }

    fn alu(&mut self, op: AluKind, size: u8, a: T, b: T) -> T {
        let dst = self.t();
        self.push(Uop::Alu {
            op,
            size,
            dst,
            a,
            b,
        });
        dst
    }

    /// Emits the effective-address computation of a memory operand.
    fn ea(&mut self, inst: &Inst<CVal>) -> (Seg, T) {
        let mr = inst.modrm.as_ref().expect("modrm");
        let mem = mr.mem.as_ref().expect("memory operand");
        let dst = self.t();
        self.push(Uop::Lea {
            dst,
            base: mem.base.map(|g| g as u8),
            index: mem.index.map(|(g, s)| (g as u8, s)),
            disp: cval(mem.disp),
        });
        (mem.seg, dst)
    }

    /// Reads the r/m operand; returns (value temp, address info for RMW).
    fn read_rm(&mut self, inst: &Inst<CVal>, size: u8) -> (T, Option<(Seg, T)>) {
        let mr = inst.modrm.as_ref().expect("modrm");
        if mr.mem.is_some() {
            let (seg, addr) = self.ea(inst);
            let dst = self.t();
            self.push(Uop::Ld {
                dst,
                seg,
                addr,
                size,
            });
            (dst, Some((seg, addr)))
        } else {
            (self.read_reg(mr.rm, size), None)
        }
    }

    /// Writes the r/m operand, reusing `addr` from a prior `read_rm`.
    fn write_rm(&mut self, inst: &Inst<CVal>, size: u8, src: T, addr: Option<(Seg, T)>) {
        let mr = inst.modrm.as_ref().expect("modrm");
        match addr {
            Some((seg, a)) => self.push(Uop::St {
                seg,
                addr: a,
                src,
                size,
            }),
            None => {
                if mr.mem.is_some() {
                    let (seg, a) = self.ea(inst);
                    self.push(Uop::St {
                        seg,
                        addr: a,
                        src,
                        size,
                    });
                } else {
                    self.push(Uop::WriteReg {
                        reg: mr.rm,
                        size,
                        src,
                    });
                }
            }
        }
    }

    /// push pattern: store at esp-size, then commit esp.
    fn push_t(&mut self, src: T, size: u8) {
        let esp = self.read_reg(Gpr::Esp as u8, 4);
        let k = self.konst(size as u32);
        let nesp = self.alu(AluKind::Sub, 4, esp, k);
        self.push(Uop::St {
            seg: Seg::Ss,
            addr: nesp,
            src,
            size,
        });
        self.push(Uop::WriteReg {
            reg: Gpr::Esp as u8,
            size: 4,
            src: nesp,
        });
    }

    /// pop pattern: load from esp, commit esp, return the value temp.
    fn pop_t(&mut self, size: u8) -> T {
        let esp = self.read_reg(Gpr::Esp as u8, 4);
        let dst = self.t();
        self.push(Uop::Ld {
            dst,
            seg: Seg::Ss,
            addr: esp,
            size,
        });
        let k = self.konst(size as u32);
        let nesp = self.alu(AluKind::Add, 4, esp, k);
        self.push(Uop::WriteReg {
            reg: Gpr::Esp as u8,
            size: 4,
            src: nesp,
        });
        dst
    }

    /// `dst = (a != 0) ? 1 : 0` for 32-bit temps.
    fn nonzero(&mut self, a: T) -> T {
        let neg = self.t();
        self.push(Uop::Neg {
            dst: neg,
            a,
            size: 4,
        });
        let or = self.alu(AluKind::Or, 4, a, neg);
        let k = self.konst(31);
        self.alu(AluKind::Shr, 4, or, k)
    }
}

fn cval(v: CVal) -> u32 {
    Concrete::new().as_const(v).expect("concrete decode value") as u32
}

/// Translates up to `max_insns` instructions starting at `eip`.
///
/// # Errors
///
/// Faults raised while *fetching* code bytes (e.g. #PF on the fetch path).
/// Invalid encodings do not error here: they translate to a `Raise` uop so
/// that earlier instructions in the block still execute.
pub fn translate_block(
    m: &mut LofiMachine,
    tlb: &mut mmu::Tlb,
    fid: &Fidelity,
    eip: u32,
    max_insns: u32,
) -> Result<Tb, Exception> {
    let start = eip;
    // A block of the default eight instructions rarely needs more than 64
    // µops; reserving them spares the vector its regrowth on every
    // translation.
    let mut e = Emit {
        uops: Vec::with_capacity(64),
        next_t: 0,
    };
    let mut cur = eip;
    let mut insns = 0u32;
    while insns < max_insns {
        let mut dom = Concrete::new();
        let fetch_base = cur;
        let decoded = decode(&mut dom, |d: &mut Concrete, idx: u8| {
            let b = mmu::fetch_byte(m, tlb, fid, fetch_base.wrapping_add(idx as u32))?;
            Ok(d.constant(8, b as u64))
        });
        let next_t_base = 0;
        e.next_t = next_t_base;
        let inst = match decoded {
            Ok(i) => i,
            Err(fault) => {
                if insns == 0 {
                    return Err(fault);
                }
                // Later instruction fetch faulted: end the block before it;
                // re-execution will fault with the right EIP.
                break;
            }
        };
        let next = cur.wrapping_add(inst.len as u32);
        e.push(Uop::InsnStart { cur, next });
        let ends_block = translate_insn(&mut e, &inst, fid, next);
        insns += 1;
        cur = next;
        if ends_block {
            break;
        }
    }
    Ok(Tb {
        start,
        end: cur,
        uops: e.uops,
        insns,
    })
}

/// Translates one instruction. Returns `true` when the block must end
/// (control flow, halts, helpers that change privileged state).
fn translate_insn(e: &mut Emit, inst: &Inst<CVal>, fid: &Fidelity, next_eip: u32) -> bool {
    let op = inst.class.opcode;
    let opsize = inst.opsize();

    // Encoding-acceptance policy (§6.2).
    if !fid.accept_undocumented {
        let rejected = matches!(op, 0x82 | 0xd6 | 0xf1)
            || (matches!(op, 0xf6 | 0xf7) && inst.class.group_reg == Some(1));
        if rejected {
            e.push(Uop::Raise { vector: 6 });
            return true;
        }
    }

    match op {
        // ---- ALU families ----
        0x00..=0x05
        | 0x08..=0x0d
        | 0x10..=0x15
        | 0x18..=0x1d
        | 0x20..=0x25
        | 0x28..=0x2d
        | 0x30..=0x35
        | 0x38..=0x3d => {
            let alu_op = ((op >> 3) & 7) as u8;
            let enc = (op & 7) as u8;
            let size = if matches!(enc, 0 | 2 | 4) { 1 } else { opsize };
            match enc {
                0 | 1 => {
                    let mr = inst.modrm.as_ref().expect("modrm");
                    let (a, addr) = e.read_rm(inst, size);
                    let b = e.read_reg(mr.reg, size);
                    let (res, wb) = emit_alu(e, alu_op, size, a, b);
                    if wb {
                        e.write_rm(inst, size, res, addr);
                    }
                }
                2 | 3 => {
                    let mr = inst.modrm.as_ref().expect("modrm");
                    let (b, _) = e.read_rm(inst, size);
                    let a = e.read_reg(mr.reg, size);
                    let (res, wb) = emit_alu(e, alu_op, size, a, b);
                    if wb {
                        e.push(Uop::WriteReg {
                            reg: mr.reg,
                            size,
                            src: res,
                        });
                    }
                }
                _ => {
                    let a = e.read_reg(Gpr::Eax as u8, size);
                    let b = e.konst(cval(inst.imm.expect("imm")));
                    let (res, wb) = emit_alu(e, alu_op, size, a, b);
                    if wb {
                        e.push(Uop::WriteReg {
                            reg: Gpr::Eax as u8,
                            size,
                            src: res,
                        });
                    }
                }
            }
            false
        }
        0x80..=0x83 => {
            let alu_op = inst.class.group_reg.expect("group");
            let size = if matches!(op, 0x80 | 0x82) { 1 } else { opsize };
            let (a, addr) = e.read_rm(inst, size);
            let mut imm = cval(inst.imm.expect("imm"));
            if op == 0x83 {
                imm = ((imm as i8) as i32) as u32 & mask_of(size);
            }
            let b = e.konst(imm);
            let (res, wb) = emit_alu(e, alu_op, size, a, b);
            if wb {
                e.write_rm(inst, size, res, addr);
            }
            false
        }
        0x84 | 0x85 | 0xa8 | 0xa9 => {
            let size = if matches!(op, 0x84 | 0xa8) { 1 } else { opsize };
            let (a, b) = if matches!(op, 0x84 | 0x85) {
                let mr = inst.modrm.as_ref().expect("modrm");
                let (a, _) = e.read_rm(inst, size);
                (a, e.read_reg(mr.reg, size))
            } else {
                let a = e.read_reg(Gpr::Eax as u8, size);
                (a, e.konst(cval(inst.imm.expect("imm"))))
            };
            let res = e.alu(AluKind::And, size, a, b);
            e.push(Uop::SetCc {
                cc: CcKind::Logic,
                size,
                dst: res,
                a,
                b,
            });
            false
        }
        0xf6 | 0xf7 => translate_f6(e, inst),
        0xfe | 0xff => translate_fe_ff(e, inst, next_eip),
        0x40..=0x4f => {
            let size = opsize;
            let reg = (op & 7) as u8;
            let a = e.read_reg(reg, size);
            let one = e.konst(1);
            let cf = e.t();
            e.push(Uop::GetCf { dst: cf });
            let res = if op < 0x48 {
                e.alu(AluKind::Add, size, a, one)
            } else {
                e.alu(AluKind::Sub, size, a, one)
            };
            e.push(Uop::WriteReg {
                reg,
                size,
                src: res,
            });
            let cc = if op < 0x48 { CcKind::Inc } else { CcKind::Dec };
            e.push(Uop::SetCc {
                cc,
                size,
                dst: res,
                a: cf,
                b: cf,
            });
            false
        }
        0xc0 | 0xc1 | 0xd0 | 0xd1 | 0xd2 | 0xd3 => {
            let size = if matches!(op, 0xc0 | 0xd0 | 0xd2) {
                1
            } else {
                opsize
            };
            let g = inst.class.group_reg.expect("group");
            let (val, addr) = e.read_rm(inst, size);
            let count = match op {
                0xc0 | 0xc1 => e.konst(cval(inst.imm.expect("imm8")) & 0xff),
                0xd0 | 0xd1 => e.konst(1),
                _ => e.read_reg(Gpr::Ecx as u8, 1),
            };
            let out = e.t();
            e.push(Uop::Helper(Helper::Shift {
                g,
                size,
                val,
                count,
                out,
            }));
            e.write_rm(inst, size, out, addr);
            false
        }
        0x69 | 0x6b | 0x0faf => {
            let size = opsize;
            let mr = inst.modrm.as_ref().expect("modrm");
            let (a, _) = e.read_rm(inst, size);
            let b = match op {
                0x69 => e.konst(cval(inst.imm.expect("imm"))),
                0x6b => {
                    let v = cval(inst.imm.expect("imm8"));
                    e.konst(((v as i8) as i32) as u32 & mask_of(size))
                }
                _ => e.read_reg(mr.reg, size),
            };
            let out = e.t();
            e.push(Uop::Helper(Helper::Imul2 { size, a, b, out }));
            e.push(Uop::WriteReg {
                reg: mr.reg,
                size,
                src: out,
            });
            false
        }
        0x0fa4 | 0x0fa5 | 0x0fac | 0x0fad => {
            let size = opsize;
            let mr = inst.modrm.as_ref().expect("modrm");
            let left = matches!(op, 0x0fa4 | 0x0fa5);
            let (dst, addr) = e.read_rm(inst, size);
            let src = e.read_reg(mr.reg, size);
            let count = if matches!(op, 0x0fa4 | 0x0fac) {
                e.konst(cval(inst.imm.expect("imm8")) & 0xff)
            } else {
                e.read_reg(Gpr::Ecx as u8, 1)
            };
            let out = e.t();
            e.push(Uop::Helper(Helper::ShiftD {
                left,
                size,
                dst,
                src,
                count,
                out,
            }));
            e.write_rm(inst, size, out, addr);
            false
        }
        0x0fa3 | 0x0fab | 0x0fb3 | 0x0fbb | 0x0fba => {
            let size = opsize;
            let mr = inst.modrm.as_ref().expect("modrm");
            let (action, reg_offset) = match op {
                0x0fa3 => (0, true),
                0x0fab => (1, true),
                0x0fb3 => (2, true),
                0x0fbb => (3, true),
                _ => (inst.class.group_reg.expect("group") - 4, false),
            };
            let bitoff = if reg_offset {
                e.read_reg(mr.reg, size)
            } else {
                e.konst(cval(inst.imm.expect("imm8")) & 0xff)
            };
            if mr.mem.is_some() {
                let (seg, addr) = e.ea(inst);
                e.push(Uop::Helper(Helper::BitOpMem {
                    action,
                    size,
                    seg,
                    addr,
                    bitoff,
                    reg_offset,
                }));
            } else {
                e.push(Uop::Helper(Helper::BitOpReg {
                    action,
                    size,
                    rm: mr.rm,
                    bitoff,
                }));
            }
            false
        }
        0x0fbc | 0x0fbd => {
            let size = opsize;
            let mr = inst.modrm.as_ref().expect("modrm");
            let (src, _) = e.read_rm(inst, size);
            e.push(Uop::Helper(Helper::BsfBsr {
                forward: op == 0x0fbc,
                size,
                src,
                dst_reg: mr.reg,
            }));
            false
        }
        0x0fb0 | 0x0fb1 => {
            let size = if op == 0x0fb0 { 1 } else { opsize };
            let mr = inst.modrm.as_ref().expect("modrm");
            if mr.mem.is_some() {
                let (seg, addr) = e.ea(inst);
                e.push(Uop::Helper(Helper::CmpxchgMem {
                    size,
                    seg,
                    addr,
                    src_reg: mr.reg,
                }));
            } else {
                e.push(Uop::Helper(Helper::CmpxchgReg {
                    size,
                    rm: mr.rm,
                    src_reg: mr.reg,
                }));
            }
            false
        }
        0x0fc0 | 0x0fc1 => {
            let size = if op == 0x0fc0 { 1 } else { opsize };
            let mr = inst.modrm.as_ref().expect("modrm");
            let (dst, addr) = e.read_rm(inst, size);
            let src = e.read_reg(mr.reg, size);
            let sum = e.alu(AluKind::Add, size, dst, src);
            e.write_rm(inst, size, sum, addr);
            e.push(Uop::WriteReg {
                reg: mr.reg,
                size,
                src: dst,
            });
            e.push(Uop::SetCc {
                cc: CcKind::Add,
                size,
                dst: sum,
                a: dst,
                b: src,
            });
            false
        }
        0x0fc8..=0x0fcf => {
            let reg = (op & 7) as u8;
            let a = e.read_reg(reg, 4);
            let dst = e.t();
            e.push(Uop::Bswap { dst, a });
            e.push(Uop::WriteReg {
                reg,
                size: 4,
                src: dst,
            });
            false
        }
        0x27 | 0x2f | 0x37 | 0x3f | 0xd4 | 0xd5 => {
            let imm = if matches!(op, 0xd4 | 0xd5) {
                cval(inst.imm.expect("imm8")) as u8
            } else {
                0
            };
            e.push(Uop::Helper(Helper::Bcd { opcode: op, imm }));
            false
        }
        0x98 | 0x99 => {
            if op == 0x98 {
                let half = e.read_reg(Gpr::Eax as u8, opsize / 2);
                let dst = e.t();
                e.push(Uop::Ext {
                    dst,
                    a: half,
                    from: opsize / 2,
                    to: opsize,
                    signed: true,
                });
                e.push(Uop::WriteReg {
                    reg: Gpr::Eax as u8,
                    size: opsize,
                    src: dst,
                });
            } else {
                let acc = e.read_reg(Gpr::Eax as u8, opsize);
                let k = e.konst((opsize * 8 - 1) as u32);
                let hi = e.alu(AluKind::Sar, opsize, acc, k);
                e.push(Uop::WriteReg {
                    reg: Gpr::Edx as u8,
                    size: opsize,
                    src: hi,
                });
            }
            false
        }
        0x0fb6 | 0x0fb7 | 0x0fbe | 0x0fbf => {
            let mr = inst.modrm.as_ref().expect("modrm");
            let src_size = if matches!(op, 0x0fb6 | 0x0fbe) { 1 } else { 2 };
            let (v, _) = e.read_rm(inst, src_size);
            let dst = e.t();
            let signed = matches!(op, 0x0fbe | 0x0fbf);
            let to = opsize.max(src_size);
            e.push(Uop::Ext {
                dst,
                a: v,
                from: src_size,
                to,
                signed,
            });
            e.push(Uop::WriteReg {
                reg: mr.reg,
                size: opsize,
                src: dst,
            });
            false
        }
        0x0f90..=0x0f9f => {
            let cc = (op & 0xf) as u8;
            let t = e.t();
            e.push(Uop::TestCc { dst: t, cc });
            e.write_rm(inst, 1, t, None);
            false
        }
        0x0f40..=0x0f4f => {
            let cc = (op & 0xf) as u8;
            let mr = inst.modrm.as_ref().expect("modrm");
            let (src, _) = e.read_rm(inst, opsize);
            let cond = e.t();
            e.push(Uop::TestCc { dst: cond, cc });
            let old = e.read_reg(mr.reg, opsize);
            let out = e.t();
            e.push(Uop::Select {
                dst: out,
                cond,
                a: src,
                b: old,
            });
            e.push(Uop::WriteReg {
                reg: mr.reg,
                size: opsize,
                src: out,
            });
            false
        }

        // ---- data movement ----
        0x88 | 0x89 => {
            let size = if op == 0x88 { 1 } else { opsize };
            let mr = inst.modrm.as_ref().expect("modrm");
            let v = e.read_reg(mr.reg, size);
            e.write_rm(inst, size, v, None);
            false
        }
        0x8a | 0x8b => {
            let size = if op == 0x8a { 1 } else { opsize };
            let mr = inst.modrm.as_ref().expect("modrm");
            let (v, _) = e.read_rm(inst, size);
            e.push(Uop::WriteReg {
                reg: mr.reg,
                size,
                src: v,
            });
            false
        }
        0xa0 | 0xa1 => {
            let size = if op == 0xa0 { 1 } else { opsize };
            let seg = inst.seg_override.unwrap_or(Seg::Ds);
            let addr = e.konst(cval(inst.imm.expect("moffs")));
            let dst = e.t();
            e.push(Uop::Ld {
                dst,
                seg,
                addr,
                size,
            });
            e.push(Uop::WriteReg {
                reg: Gpr::Eax as u8,
                size,
                src: dst,
            });
            false
        }
        0xa2 | 0xa3 => {
            let size = if op == 0xa2 { 1 } else { opsize };
            let seg = inst.seg_override.unwrap_or(Seg::Ds);
            let addr = e.konst(cval(inst.imm.expect("moffs")));
            let v = e.read_reg(Gpr::Eax as u8, size);
            e.push(Uop::St {
                seg,
                addr,
                src: v,
                size,
            });
            false
        }
        0xb0..=0xb7 => {
            let v = e.konst(cval(inst.imm.expect("imm8")));
            e.push(Uop::WriteReg {
                reg: (op & 7) as u8,
                size: 1,
                src: v,
            });
            false
        }
        0xb8..=0xbf => {
            let v = e.konst(cval(inst.imm.expect("imm")));
            e.push(Uop::WriteReg {
                reg: (op & 7) as u8,
                size: opsize,
                src: v,
            });
            false
        }
        0xc6 | 0xc7 => {
            let size = if op == 0xc6 { 1 } else { opsize };
            let v = e.konst(cval(inst.imm.expect("imm")));
            e.write_rm(inst, size, v, None);
            false
        }
        0x8c => {
            let mr = inst.modrm.as_ref().expect("modrm");
            match Seg::from_bits(mr.reg) {
                None => {
                    e.push(Uop::Raise { vector: 6 });
                    true
                }
                Some(seg) => {
                    let sel = e.t();
                    e.push(Uop::ReadSel { dst: sel, seg });
                    if mr.mem.is_some() {
                        e.write_rm(inst, 2, sel, None);
                    } else {
                        let out = e.t();
                        e.push(Uop::Ext {
                            dst: out,
                            a: sel,
                            from: 2,
                            to: opsize,
                            signed: false,
                        });
                        e.push(Uop::WriteReg {
                            reg: mr.rm,
                            size: opsize,
                            src: out,
                        });
                    }
                    false
                }
            }
        }
        0x8e => {
            let mr = inst.modrm.as_ref().expect("modrm");
            match Seg::from_bits(mr.reg) {
                None | Some(Seg::Cs) => {
                    e.push(Uop::Raise { vector: 6 });
                    true
                }
                Some(seg) => {
                    let (sel, _) = e.read_rm(inst, 2);
                    let kind = if seg == Seg::Ss {
                        desc_kind::STACK
                    } else {
                        desc_kind::DATA
                    } as u8;
                    e.push(Uop::Helper(Helper::LoadSeg { seg, sel, kind }));
                    false
                }
            }
        }
        0x8d => {
            let mr = inst.modrm.as_ref().expect("modrm");
            let (_, addr) = e.ea(inst);
            if opsize == 2 {
                let out = e.t();
                e.push(Uop::Ext {
                    dst: out,
                    a: addr,
                    from: 4,
                    to: 2,
                    signed: false,
                });
                e.push(Uop::WriteReg {
                    reg: mr.reg,
                    size: 2,
                    src: out,
                });
            } else {
                e.push(Uop::WriteReg {
                    reg: mr.reg,
                    size: 4,
                    src: addr,
                });
            }
            false
        }
        0x86 | 0x87 => {
            let size = if op == 0x86 { 1 } else { opsize };
            let mr = inst.modrm.as_ref().expect("modrm");
            let (mem_val, addr) = e.read_rm(inst, size);
            let reg_val = e.read_reg(mr.reg, size);
            e.write_rm(inst, size, reg_val, addr);
            e.push(Uop::WriteReg {
                reg: mr.reg,
                size,
                src: mem_val,
            });
            false
        }
        0x90..=0x97 => {
            if op != 0x90 {
                let reg = (op & 7) as u8;
                let a = e.read_reg(Gpr::Eax as u8, opsize);
                let b = e.read_reg(reg, opsize);
                e.push(Uop::WriteReg {
                    reg: Gpr::Eax as u8,
                    size: opsize,
                    src: b,
                });
                e.push(Uop::WriteReg {
                    reg,
                    size: opsize,
                    src: a,
                });
            }
            false
        }
        0x50..=0x57 => {
            let v = e.read_reg((op & 7) as u8, opsize);
            e.push_t(v, opsize);
            false
        }
        0x58..=0x5f => {
            let v = e.pop_t(opsize);
            e.push(Uop::WriteReg {
                reg: (op & 7) as u8,
                size: opsize,
                src: v,
            });
            false
        }
        0x68 => {
            let v = e.konst(cval(inst.imm.expect("imm")));
            e.push_t(v, opsize);
            false
        }
        0x6a => {
            let raw = cval(inst.imm.expect("imm8"));
            let v = e.konst(((raw as i8) as i32) as u32 & mask_of(opsize));
            e.push_t(v, opsize);
            false
        }
        0x8f => {
            let v = e.pop_t(opsize);
            // QEMU computes the EA after the pop (ESP already updated);
            // fault rollback is not modeled — matching its eager commit.
            e.write_rm(inst, opsize, v, None);
            false
        }
        0x06 | 0x0e | 0x16 | 0x1e | 0x0fa0 | 0x0fa8 => {
            let seg = match op {
                0x06 => Seg::Es,
                0x0e => Seg::Cs,
                0x16 => Seg::Ss,
                0x1e => Seg::Ds,
                0x0fa0 => Seg::Fs,
                _ => Seg::Gs,
            };
            let sel = e.t();
            e.push(Uop::ReadSel { dst: sel, seg });
            let v = e.t();
            e.push(Uop::Ext {
                dst: v,
                a: sel,
                from: 2,
                to: opsize,
                signed: false,
            });
            e.push_t(v, opsize);
            false
        }
        0x07 | 0x17 | 0x1f | 0x0fa1 | 0x0fa9 => {
            let seg = match op {
                0x07 => Seg::Es,
                0x17 => Seg::Ss,
                0x1f => Seg::Ds,
                0x0fa1 => Seg::Fs,
                _ => Seg::Gs,
            };
            e.push(Uop::Helper(Helper::PopSeg { seg, size: opsize }));
            false
        }
        0x60 => {
            let orig = e.read_reg(Gpr::Esp as u8, opsize);
            for r in [Gpr::Eax, Gpr::Ecx, Gpr::Edx, Gpr::Ebx] {
                let v = e.read_reg(r as u8, opsize);
                e.push_t(v, opsize);
            }
            e.push_t(orig, opsize);
            for r in [Gpr::Ebp, Gpr::Esi, Gpr::Edi] {
                let v = e.read_reg(r as u8, opsize);
                e.push_t(v, opsize);
            }
            false
        }
        0x61 => {
            for r in [Gpr::Edi, Gpr::Esi, Gpr::Ebp] {
                let v = e.pop_t(opsize);
                e.push(Uop::WriteReg {
                    reg: r as u8,
                    size: opsize,
                    src: v,
                });
            }
            let esp = e.read_reg(Gpr::Esp as u8, 4);
            let k = e.konst(opsize as u32);
            let nesp = e.alu(AluKind::Add, 4, esp, k);
            e.push(Uop::WriteReg {
                reg: Gpr::Esp as u8,
                size: 4,
                src: nesp,
            });
            for r in [Gpr::Ebx, Gpr::Edx, Gpr::Ecx, Gpr::Eax] {
                let v = e.pop_t(opsize);
                e.push(Uop::WriteReg {
                    reg: r as u8,
                    size: opsize,
                    src: v,
                });
            }
            false
        }
        0x9c => {
            e.push(Uop::Helper(Helper::PushF { size: opsize }));
            false
        }
        0x9d => {
            e.push(Uop::Helper(Helper::PopF { size: opsize }));
            true // IF may change: end the block like QEMU does
        }
        0x9e => {
            e.push(Uop::Helper(Helper::Sahf));
            false
        }
        0x9f => {
            let f = e.t();
            e.push(Uop::GetEflags { dst: f });
            let m8 = e.konst(0xff);
            let low = e.alu(AluKind::And, 4, f, m8);
            let two = e.konst(2);
            let v = e.alu(AluKind::Or, 4, low, two);
            let v8 = e.t();
            e.push(Uop::Ext {
                dst: v8,
                a: v,
                from: 4,
                to: 1,
                signed: false,
            });
            e.push(Uop::WriteReg {
                reg: 4,
                size: 1,
                src: v8,
            }); // AH
            false
        }
        0xf5 => {
            e.push(Uop::SetCarry { mode: 2 });
            false
        }
        0xf8 => {
            e.push(Uop::SetCarry { mode: 0 });
            false
        }
        0xf9 => {
            e.push(Uop::SetCarry { mode: 1 });
            false
        }
        0xfa | 0xfb => {
            e.push(Uop::Helper(Helper::CliSti { enable: op == 0xfb }));
            true
        }
        0xfc => {
            e.push(Uop::SetDirection { set: false });
            false
        }
        0xfd => {
            e.push(Uop::SetDirection { set: true });
            false
        }
        0xd6 => {
            // salc (only reachable with accept_undocumented): AL = CF ? 0xff : 0.
            let cf = e.t();
            e.push(Uop::GetCf { dst: cf });
            let ff = e.konst(0xff);
            let z = e.konst(0);
            let al = e.t();
            e.push(Uop::Select {
                dst: al,
                cond: cf,
                a: ff,
                b: z,
            });
            e.push(Uop::WriteReg {
                reg: 0,
                size: 1,
                src: al,
            });
            false
        }
        0xd7 => {
            let seg = inst.seg_override.unwrap_or(Seg::Ds);
            let ebx = e.read_reg(Gpr::Ebx as u8, 4);
            let al = e.read_reg(Gpr::Eax as u8, 1);
            let al32 = e.t();
            e.push(Uop::Ext {
                dst: al32,
                a: al,
                from: 1,
                to: 4,
                signed: false,
            });
            let addr = e.alu(AluKind::Add, 4, ebx, al32);
            let v = e.t();
            e.push(Uop::Ld {
                dst: v,
                seg,
                addr,
                size: 1,
            });
            e.push(Uop::WriteReg {
                reg: Gpr::Eax as u8,
                size: 1,
                src: v,
            });
            false
        }
        0xa4..=0xa7 | 0xaa..=0xaf => {
            let size = match op {
                0xa4 | 0xa6 | 0xaa | 0xac | 0xae => 1,
                _ => opsize,
            };
            let rep = match inst.rep {
                None => 0,
                Some(Rep::RepE) => 1,
                Some(Rep::RepNe) => 2,
            };
            let seg = inst.seg_override.unwrap_or(Seg::Ds);
            e.push(Uop::Helper(Helper::StringOp {
                opcode: op,
                size,
                rep,
                seg,
            }));
            false
        }
        0xc4 | 0xc5 | 0x0fb2 | 0x0fb4 | 0x0fb5 => {
            let (seg, kind) = match op {
                0xc4 => (Seg::Es, desc_kind::DATA),
                0xc5 => (Seg::Ds, desc_kind::DATA),
                0x0fb2 => (Seg::Ss, desc_kind::STACK),
                0x0fb4 => (Seg::Fs, desc_kind::DATA),
                _ => (Seg::Gs, desc_kind::DATA),
            };
            let mr = inst.modrm.as_ref().expect("modrm");
            let (mseg, addr) = e.ea(inst);
            // Offset first, selector second (hardware/QEMU order; the Hi-Fi
            // emulator is the deviant here, §6.2).
            let off = e.t();
            e.push(Uop::Ld {
                dst: off,
                seg: mseg,
                addr,
                size: opsize,
            });
            let k = e.konst(opsize as u32);
            let sel_addr = e.alu(AluKind::Add, 4, addr, k);
            let sel = e.t();
            e.push(Uop::Ld {
                dst: sel,
                seg: mseg,
                addr: sel_addr,
                size: 2,
            });
            e.push(Uop::Helper(Helper::LoadSeg {
                seg,
                sel,
                kind: kind as u8,
            }));
            e.push(Uop::WriteReg {
                reg: mr.reg,
                size: opsize,
                src: off,
            });
            false
        }

        // ---- control flow ----
        0x70..=0x7f | 0x0f80..=0x0f8f => {
            let cc = (op & 0xf) as u8;
            let rel = cval(inst.imm.expect("rel"));
            let target = next_eip.wrapping_add(sext_to_32(rel, inst));
            e.push(Uop::BrCc { cc, target });
            true
        }
        0xe0..=0xe3 => {
            let rel = cval(inst.imm.expect("rel8"));
            let target = next_eip.wrapping_add(((rel as i8) as i32) as u32);
            let cond = if op == 0xe3 {
                let ecx = e.read_reg(Gpr::Ecx as u8, 4);
                let nz = e.nonzero(ecx);
                let one = e.konst(1);
                e.alu(AluKind::Xor, 4, nz, one) // ecx == 0
            } else {
                let ecx = e.read_reg(Gpr::Ecx as u8, 4);
                let one = e.konst(1);
                let dec = e.alu(AluKind::Sub, 4, ecx, one);
                e.push(Uop::WriteReg {
                    reg: Gpr::Ecx as u8,
                    size: 4,
                    src: dec,
                });
                let nz = e.nonzero(dec);
                match op {
                    0xe0 => {
                        // loopne: nz && !ZF
                        let nzf = e.t();
                        e.push(Uop::TestCc { dst: nzf, cc: 0x5 });
                        e.alu(AluKind::And, 4, nz, nzf)
                    }
                    0xe1 => {
                        let zf = e.t();
                        e.push(Uop::TestCc { dst: zf, cc: 0x4 });
                        e.alu(AluKind::And, 4, nz, zf)
                    }
                    _ => nz,
                }
            };
            e.push(Uop::BrCondT { cond, target });
            true
        }
        0xe8 | 0xe9 | 0xeb => {
            let rel = cval(inst.imm.expect("rel"));
            let target = next_eip.wrapping_add(sext_to_32(rel, inst));
            if op == 0xe8 {
                let ret = e.konst(next_eip);
                e.push_t(ret, opsize);
            }
            e.push(Uop::SetEipImm { target });
            true
        }
        0xc2 | 0xc3 => {
            let t = e.pop_t(opsize);
            if op == 0xc2 {
                let extra = cval(inst.imm.expect("imm16")) & 0xffff;
                let esp = e.read_reg(Gpr::Esp as u8, 4);
                let k = e.konst(extra);
                let nesp = e.alu(AluKind::Add, 4, esp, k);
                e.push(Uop::WriteReg {
                    reg: Gpr::Esp as u8,
                    size: 4,
                    src: nesp,
                });
            }
            let t32 = widen(e, t, opsize);
            e.push(Uop::SetEip { target: t32 });
            true
        }
        0xca | 0xcb => {
            let extra = if op == 0xca {
                cval(inst.imm.expect("imm16")) as u16
            } else {
                0
            };
            e.push(Uop::Helper(Helper::RetFar {
                size: opsize,
                extra,
            }));
            true
        }
        0xcf => {
            e.push(Uop::Helper(Helper::Iret { size: opsize }));
            true
        }
        0x9a | 0xea => {
            let off = e.konst(cval(inst.imm.expect("far offset")));
            let sel = e.konst(cval(inst.imm2.expect("far selector")));
            e.push(Uop::Helper(Helper::FarXfer {
                call: op == 0x9a,
                sel,
                off,
                size: opsize,
            }));
            true
        }
        0xcc => {
            e.push(Uop::Raise { vector: 3 });
            true
        }
        0xcd => {
            let v = cval(inst.imm.expect("vector")) as u8;
            e.push(Uop::Int { vector: v });
            true
        }
        0xce => {
            e.push(Uop::Into);
            false
        }
        0xf1 => {
            e.push(Uop::Raise { vector: 1 });
            true
        }
        0xc8 => {
            let alloc = cval(inst.imm.expect("imm16")) as u16;
            let level = (cval(inst.imm2.expect("imm8")) & 0x1f) as u8;
            e.push(Uop::Helper(Helper::Enter {
                size: opsize,
                alloc,
                level,
            }));
            false
        }
        0xc9 => {
            // QEMU's leave: mov esp, ebp; pop ebp — ESP is clobbered before
            // the load is checked (§6.2). Atomicity fix reads first.
            let ebp = e.read_reg(Gpr::Ebp as u8, 4);
            if fid.atomic_leave {
                let v = e.t();
                e.push(Uop::Ld {
                    dst: v,
                    seg: Seg::Ss,
                    addr: ebp,
                    size: opsize,
                });
                let k = e.konst(opsize as u32);
                let nesp = e.alu(AluKind::Add, 4, ebp, k);
                e.push(Uop::WriteReg {
                    reg: Gpr::Esp as u8,
                    size: 4,
                    src: nesp,
                });
                e.push(Uop::WriteReg {
                    reg: Gpr::Ebp as u8,
                    size: opsize,
                    src: v,
                });
            } else {
                e.push(Uop::WriteReg {
                    reg: Gpr::Esp as u8,
                    size: 4,
                    src: ebp,
                });
                let v = e.pop_t(opsize);
                e.push(Uop::WriteReg {
                    reg: Gpr::Ebp as u8,
                    size: opsize,
                    src: v,
                });
            }
            false
        }
        0x62 => {
            let mr = inst.modrm.as_ref().expect("modrm");
            let (seg, addr) = e.ea(inst);
            e.push(Uop::Helper(Helper::Bound {
                size: opsize,
                reg: mr.reg,
                addr,
                seg,
            }));
            false
        }
        0x63 => {
            let mr = inst.modrm.as_ref().expect("modrm");
            let (dst, addr) = e.read_rm(inst, 2);
            let src = e.read_reg(mr.reg, 2);
            let out = e.t();
            e.push(Uop::Helper(Helper::Arpl { dst, src, out }));
            e.write_rm(inst, 2, out, addr);
            false
        }

        // ---- system ----
        0xf4 => {
            e.push(Uop::Helper(Helper::Hlt));
            true
        }
        0x0f20 | 0x0f22 => {
            let mr = inst.modrm.as_ref().expect("modrm");
            e.push(Uop::Helper(Helper::MovCr {
                write: op == 0x0f22,
                crn: mr.reg,
                reg: mr.rm,
            }));
            true // privileged state may change: end block
        }
        0x0f00 => {
            let g = inst.class.group_reg.expect("group");
            match g {
                0 | 1 => {
                    let out = e.t();
                    e.push(Uop::Helper(Helper::SldtStr { out }));
                    e.write_rm(inst, 2, out, None);
                }
                2 | 3 => {
                    let (sel, _) = e.read_rm(inst, 2);
                    e.push(Uop::Helper(Helper::LldtLtr { sel }));
                }
                4 | 5 => {
                    let (sel, _) = e.read_rm(inst, 2);
                    e.push(Uop::Helper(Helper::Verrw { write: g == 5, sel }));
                }
                _ => {
                    e.push(Uop::Raise { vector: 6 });
                    return true;
                }
            }
            false
        }
        0x0f01 => {
            let g = inst.class.group_reg.expect("group");
            let mr = inst.modrm.as_ref().expect("modrm");
            match g {
                0..=3 => {
                    if mr.mem.is_none() {
                        e.push(Uop::Raise { vector: 6 });
                        return true;
                    }
                    let (seg, addr) = e.ea(inst);
                    e.push(Uop::Helper(Helper::DescTable {
                        which: g,
                        addr,
                        seg,
                    }));
                    return g >= 2; // lgdt/lidt end the block
                }
                4 => {
                    let out = e.t();
                    e.push(Uop::Helper(Helper::Smsw { out }));
                    if mr.mem.is_none() {
                        let w = widen(e, out, 2);
                        let t = e.t();
                        e.push(Uop::Ext {
                            dst: t,
                            a: w,
                            from: 4,
                            to: opsize,
                            signed: false,
                        });
                        e.push(Uop::WriteReg {
                            reg: mr.rm,
                            size: opsize,
                            src: t,
                        });
                    } else {
                        e.write_rm(inst, 2, out, None);
                    }
                }
                6 => {
                    let (v, _) = e.read_rm(inst, 2);
                    e.push(Uop::Helper(Helper::Lmsw { val: v }));
                    return true;
                }
                7 => {
                    if mr.mem.is_none() {
                        e.push(Uop::Raise { vector: 6 });
                        return true;
                    }
                    e.push(Uop::Helper(Helper::Invlpg));
                }
                _ => {
                    e.push(Uop::Raise { vector: 6 });
                    return true;
                }
            }
            false
        }
        0x0f02 | 0x0f03 => {
            let mr = inst.modrm.as_ref().expect("modrm");
            let (sel, _) = e.read_rm(inst, 2);
            e.push(Uop::Helper(Helper::LarLsl {
                is_lsl: op == 0x0f03,
                sel,
                dst_reg: mr.reg,
                size: opsize,
            }));
            false
        }
        0x0f06 => {
            e.push(Uop::Helper(Helper::Clts));
            false
        }
        0x0f08 | 0x0f09 => {
            e.push(Uop::Helper(Helper::CacheOp));
            false
        }
        0x0f30 => {
            e.push(Uop::Helper(Helper::Msr { write: true }));
            true
        }
        0x0f31 => {
            e.push(Uop::Helper(Helper::Rdtsc));
            false
        }
        0x0f32 => {
            e.push(Uop::Helper(Helper::Msr { write: false }));
            false
        }
        0x0fa2 => {
            e.push(Uop::Helper(Helper::Cpuid));
            false
        }

        _ => {
            e.push(Uop::Raise { vector: 6 });
            true
        }
    }
}

/// Emits the core of one ALU-family op. Returns `(result, writeback)`.
fn emit_alu(e: &mut Emit, alu_op: u8, size: u8, a: T, b: T) -> (T, bool) {
    match alu_op {
        0 => {
            let r = e.alu(AluKind::Add, size, a, b);
            e.push(Uop::SetCc {
                cc: CcKind::Add,
                size,
                dst: r,
                a,
                b,
            });
            (r, true)
        }
        1 => {
            let r = e.alu(AluKind::Or, size, a, b);
            e.push(Uop::SetCc {
                cc: CcKind::Logic,
                size,
                dst: r,
                a,
                b,
            });
            (r, true)
        }
        2 => {
            let cf = e.t();
            e.push(Uop::GetCf { dst: cf });
            let cfw = if size == 4 { cf } else { narrow(e, cf, size) };
            let t1 = e.alu(AluKind::Add, size, a, b);
            let r = e.alu(AluKind::Add, size, t1, cfw);
            e.push(Uop::SetCc {
                cc: CcKind::Adc,
                size,
                dst: r,
                a,
                b,
            });
            (r, true)
        }
        3 => {
            let cf = e.t();
            e.push(Uop::GetCf { dst: cf });
            let cfw = if size == 4 { cf } else { narrow(e, cf, size) };
            let t1 = e.alu(AluKind::Sub, size, a, b);
            let r = e.alu(AluKind::Sub, size, t1, cfw);
            e.push(Uop::SetCc {
                cc: CcKind::Sbb,
                size,
                dst: r,
                a,
                b,
            });
            (r, true)
        }
        4 => {
            let r = e.alu(AluKind::And, size, a, b);
            e.push(Uop::SetCc {
                cc: CcKind::Logic,
                size,
                dst: r,
                a,
                b,
            });
            (r, true)
        }
        5 => {
            let r = e.alu(AluKind::Sub, size, a, b);
            e.push(Uop::SetCc {
                cc: CcKind::Sub,
                size,
                dst: r,
                a,
                b,
            });
            (r, true)
        }
        6 => {
            let r = e.alu(AluKind::Xor, size, a, b);
            e.push(Uop::SetCc {
                cc: CcKind::Logic,
                size,
                dst: r,
                a,
                b,
            });
            (r, true)
        }
        _ => {
            let r = e.alu(AluKind::Sub, size, a, b);
            e.push(Uop::SetCc {
                cc: CcKind::Sub,
                size,
                dst: r,
                a,
                b,
            });
            (r, false)
        }
    }
}

fn translate_f6(e: &mut Emit, inst: &Inst<CVal>) -> bool {
    let op = inst.class.opcode;
    let size = if op == 0xf6 { 1 } else { inst.opsize() };
    let g = inst.class.group_reg.expect("group");
    match g {
        0 | 1 => {
            let (a, _) = e.read_rm(inst, size);
            let b = e.konst(cval(inst.imm.expect("imm")));
            let r = e.alu(AluKind::And, size, a, b);
            e.push(Uop::SetCc {
                cc: CcKind::Logic,
                size,
                dst: r,
                a,
                b,
            });
            false
        }
        2 => {
            let (a, addr) = e.read_rm(inst, size);
            let r = e.t();
            e.push(Uop::Not { dst: r, a, size });
            e.write_rm(inst, size, r, addr);
            false
        }
        3 => {
            let (a, addr) = e.read_rm(inst, size);
            let r = e.t();
            e.push(Uop::Neg { dst: r, a, size });
            e.write_rm(inst, size, r, addr);
            let zero = e.konst(0);
            e.push(Uop::SetCc {
                cc: CcKind::Sub,
                size,
                dst: r,
                a: zero,
                b: a,
            });
            false
        }
        _ => {
            let (val, _) = e.read_rm(inst, size);
            e.push(Uop::Helper(Helper::MulDiv { g, size, val }));
            false
        }
    }
}

fn translate_fe_ff(e: &mut Emit, inst: &Inst<CVal>, next_eip: u32) -> bool {
    let op = inst.class.opcode;
    let size = if op == 0xfe { 1 } else { inst.opsize() };
    let g = inst.class.group_reg.expect("group");
    match g {
        0 | 1 => {
            let (a, addr) = e.read_rm(inst, size);
            let one = e.konst(1);
            let cf = e.t();
            e.push(Uop::GetCf { dst: cf });
            let r = if g == 0 {
                e.alu(AluKind::Add, size, a, one)
            } else {
                e.alu(AluKind::Sub, size, a, one)
            };
            e.write_rm(inst, size, r, addr);
            let cc = if g == 0 { CcKind::Inc } else { CcKind::Dec };
            e.push(Uop::SetCc {
                cc,
                size,
                dst: r,
                a: cf,
                b: cf,
            });
            false
        }
        2 => {
            let (t, _) = e.read_rm(inst, size);
            let ret = e.konst(next_eip);
            e.push_t(ret, size);
            let t32 = widen(e, t, size);
            e.push(Uop::SetEip { target: t32 });
            true
        }
        4 => {
            let (t, _) = e.read_rm(inst, size);
            let t32 = widen(e, t, size);
            e.push(Uop::SetEip { target: t32 });
            true
        }
        3 | 5 => {
            let mr = inst.modrm.as_ref().expect("modrm");
            if mr.mem.is_none() {
                e.push(Uop::Raise { vector: 6 });
                return true;
            }
            let (seg, addr) = e.ea(inst);
            let off = e.t();
            e.push(Uop::Ld {
                dst: off,
                seg,
                addr,
                size,
            });
            let k = e.konst(size as u32);
            let sel_addr = e.alu(AluKind::Add, 4, addr, k);
            let sel = e.t();
            e.push(Uop::Ld {
                dst: sel,
                seg,
                addr: sel_addr,
                size: 2,
            });
            e.push(Uop::Helper(Helper::FarXfer {
                call: g == 3,
                sel,
                off,
                size,
            }));
            true
        }
        6 => {
            let (v, _) = e.read_rm(inst, size);
            e.push_t(v, size);
            false
        }
        _ => {
            e.push(Uop::Raise { vector: 6 });
            true
        }
    }
}

fn widen(e: &mut Emit, t: T, from: u8) -> T {
    if from == 4 {
        return t;
    }
    let dst = e.t();
    e.push(Uop::Ext {
        dst,
        a: t,
        from,
        to: 4,
        signed: false,
    });
    dst
}

fn narrow(e: &mut Emit, t: T, to: u8) -> T {
    let dst = e.t();
    e.push(Uop::Ext {
        dst,
        a: t,
        from: 4,
        to,
        signed: false,
    });
    dst
}

fn mask_of(size: u8) -> u32 {
    if size == 4 {
        u32::MAX
    } else {
        (1u32 << (size * 8)) - 1
    }
}

fn sext_to_32(raw: u32, inst: &Inst<CVal>) -> u32 {
    // Relative displacements: sign-extend from their encoded width.
    let w = match inst.class.opcode {
        0x70..=0x7f | 0xe0..=0xe3 | 0xeb => 8,
        _ => {
            if inst.opsize16 {
                16
            } else {
                32
            }
        }
    };
    match w {
        8 => ((raw as i8) as i32) as u32,
        16 => ((raw as u16 as i16) as i32) as u32,
        _ => raw,
    }
}
