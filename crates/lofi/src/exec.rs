//! The micro-op executor and helper layer (QEMU's TCG interpreter +
//! `helper_*` functions).
//!
//! Micro-ops commit eagerly against the machine; a fault aborts the block
//! with EIP rolled back to the current instruction — but *not* the partial
//! state changes, which is precisely how the Lo-Fi atomicity violations
//! become observable (§6.2).

use pokemu_isa::state::flags as fl;
use pokemu_isa::state::{cr0, cr4, Exception, Seg, VALID_MSRS};
use pokemu_isa::translate::desc_kind;

use crate::mmu::{self, Tlb};
use crate::state::{CcOp, CcState, Fidelity, LofiMachine};
use crate::translate::Tb;
use crate::uop::{AluKind, CcKind, Helper, Uop, UOP_COVERAGE_BITS};

/// The Lo-Fi execution core: machine + TLB + fidelity profile.
#[derive(Debug)]
pub struct Core {
    /// Guest machine.
    pub m: LofiMachine,
    /// Software TLB.
    pub tlb: Tlb,
    /// Fidelity profile.
    pub fid: Fidelity,
    /// Virtual pages written since last drained (for TB invalidation).
    pub dirty_pages: Vec<u32>,
}

impl Core {
    /// Creates a core with the given fidelity profile.
    pub fn new(fid: Fidelity) -> Self {
        Core {
            m: LofiMachine::new(),
            tlb: Tlb::default(),
            fid,
            dirty_pages: Vec::new(),
        }
    }

    fn vread(&mut self, seg: Seg, off: u32, len: u8) -> Result<u32, Exception> {
        mmu::read(&mut self.m, &mut self.tlb, &self.fid, seg, off, len)
    }

    fn vwrite(&mut self, seg: Seg, off: u32, val: u32, len: u8) -> Result<(), Exception> {
        let lin = mmu::seg_linear(&self.m, &self.fid, seg, off, len, mmu::Access::Write)?;
        self.track_dirty(lin, len);
        mmu::lin_write(&mut self.m, &mut self.tlb, lin, val, len)
    }

    fn lread(&mut self, lin: u32, len: u8) -> Result<u32, Exception> {
        mmu::lin_read(&mut self.m, &mut self.tlb, lin, len)
    }

    fn lwrite(&mut self, lin: u32, val: u32, len: u8) -> Result<(), Exception> {
        self.track_dirty(lin, len);
        mmu::lin_write(&mut self.m, &mut self.tlb, lin, val, len)
    }

    fn track_dirty(&mut self, lin: u32, len: u8) {
        self.dirty_pages.push(lin >> 12);
        let last = lin.wrapping_add(len as u32 - 1) >> 12;
        if last != lin >> 12 {
            self.dirty_pages.push(last);
        }
    }
}

/// Why block execution stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TbExit {
    /// Continue at this EIP: a branch target, the fall-through address, or
    /// a helper-driven transfer.
    Next(u32),
    /// The CPU halted.
    Halt,
    /// An exception was raised (EIP points at the faulting instruction).
    Fault(Exception),
}

fn mask(size: u8) -> u32 {
    if size == 4 {
        u32::MAX
    } else {
        (1u32 << (size * 8)) - 1
    }
}

fn read_reg(m: &LofiMachine, reg: u8, size: u8) -> u32 {
    match size {
        4 => m.gpr[reg as usize],
        2 => m.gpr[reg as usize] & 0xffff,
        1 => {
            if reg < 4 {
                m.gpr[reg as usize] & 0xff
            } else {
                (m.gpr[(reg - 4) as usize] >> 8) & 0xff
            }
        }
        _ => unreachable!(),
    }
}

fn write_reg(m: &mut LofiMachine, reg: u8, size: u8, val: u32) {
    match size {
        4 => m.gpr[reg as usize] = val,
        2 => {
            let r = &mut m.gpr[reg as usize];
            *r = (*r & 0xffff_0000) | (val & 0xffff);
        }
        1 => {
            if reg < 4 {
                let r = &mut m.gpr[reg as usize];
                *r = (*r & 0xffff_ff00) | (val & 0xff);
            } else {
                let r = &mut m.gpr[(reg - 4) as usize];
                *r = (*r & 0xffff_00ff) | ((val & 0xff) << 8);
            }
        }
        _ => unreachable!(),
    }
}

/// Evaluates a masked ALU operation exactly as `Uop::Alu` commits it.
fn alu_eval(op: AluKind, size: u8, a: u32, b: u32) -> u32 {
    let (x, y) = (a & mask(size), b & mask(size));
    let w = size * 8;
    let v = match op {
        AluKind::Add => x.wrapping_add(y),
        AluKind::Sub => x.wrapping_sub(y),
        AluKind::And => x & y,
        AluKind::Or => x | y,
        AluKind::Xor => x ^ y,
        AluKind::Shl => {
            let s = y & 31;
            if s >= w as u32 {
                0
            } else {
                x << s
            }
        }
        AluKind::Shr => {
            let s = y & 31;
            if s >= w as u32 {
                0
            } else {
                x >> s
            }
        }
        AluKind::Sar => {
            let s = y & 31;
            let sx = ((x << (32 - w)) as i32) >> (32 - w);
            if s >= w as u32 {
                (sx >> 31) as u32
            } else {
                (sx >> s) as u32
            }
        }
    };
    v & mask(size)
}

/// Commits a lazy condition-code update exactly as `Uop::SetCc` does.
fn set_cc(m: &mut LofiMachine, cc: CcKind, size: u8, dst: u32, src1: u32, src2: u32) {
    let op = match cc {
        CcKind::Logic => CcOp::Logic,
        CcKind::Add => CcOp::Add,
        CcKind::Adc => CcOp::Adc,
        CcKind::Sub => CcOp::Sub,
        CcKind::Sbb => CcOp::Sbb,
        CcKind::Inc => CcOp::Inc,
        CcKind::Dec => CcOp::Dec,
    };
    // Carry/borrow-in for Adc/Sbb: the CF *before* this update, which the
    // translator read via GetCf into temp `a` for Inc/Dec, and which we
    // re-derive here for Adc/Sbb.
    let src3 = match cc {
        CcKind::Adc | CcKind::Sbb => (m.eflags() >> fl::CF) & 1,
        _ => 0,
    };
    m.cc = CcState {
        op,
        size,
        dst,
        src1,
        src2,
        src3,
    };
}

/// Evaluates an x86 condition code against the lazy flag state, computing
/// only the flags the condition consumes (the status bits live entirely
/// in `m.cc`, so this agrees with `cond_eval(m.eflags(), cc)` while
/// skipping the full six-flag materialization on the hot branch path).
fn cond_eval_lazy(m: &LofiMachine, cc: u8) -> bool {
    let c = &m.cc;
    let base = match cc >> 1 {
        0 => c.of() != 0,
        1 => c.cf() != 0,
        2 => c.zf() != 0,
        3 => c.cf() != 0 || c.zf() != 0,
        4 => c.sf() != 0,
        5 => c.pf() != 0,
        6 => c.sf() != c.of(),
        _ => c.zf() != 0 || (c.sf() != c.of()),
    };
    base ^ (cc & 1 == 1)
}

/// Evaluates an x86 condition code against materialized EFLAGS.
pub fn cond_eval(eflags: u32, cc: u8) -> bool {
    let f = |b: u8| eflags & (1 << b) != 0;
    let base = match cc >> 1 {
        0 => f(fl::OF),
        1 => f(fl::CF),
        2 => f(fl::ZF),
        3 => f(fl::CF) || f(fl::ZF),
        4 => f(fl::SF),
        5 => f(fl::PF),
        6 => f(fl::SF) != f(fl::OF),
        _ => f(fl::ZF) || (f(fl::SF) != f(fl::OF)),
    };
    if cc & 1 == 1 {
        !base
    } else {
        base
    }
}

/// Executes one translation block.
pub fn exec_tb(core: &mut Core, tb: &Tb) -> TbExit {
    let mut t = [0u32; 256];
    let mut cur_insn = tb.start;
    macro_rules! fault {
        ($core:expr, $e:expr) => {{
            $core.m.eip = cur_insn;
            return TbExit::Fault($e);
        }};
    }
    macro_rules! try_mem {
        ($core:expr, $r:expr) => {
            match $r {
                Ok(v) => v,
                Err(e) => fault!($core, e),
            }
        };
    }
    // Resolve the µop coverage map once per process; per-µop recording is
    // then one relaxed `fetch_or` (or a single relaxed load when disabled).
    static UOP_COV: std::sync::OnceLock<pokemu_rt::CoverageMap> = std::sync::OnceLock::new();
    let uop_cov =
        *UOP_COV.get_or_init(|| pokemu_rt::coverage::map("coverage.uop", UOP_COVERAGE_BITS));
    for uop in &tb.uops {
        uop_cov.set(uop.cov_index());
        match *uop {
            Uop::InsnStart { cur, next } => {
                cur_insn = cur;
                core.m.eip = next;
            }
            Uop::Const { dst, val } => t[dst as usize] = val,
            Uop::ReadReg { dst, reg, size } => t[dst as usize] = read_reg(&core.m, reg, size),
            Uop::WriteReg { reg, size, src } => write_reg(&mut core.m, reg, size, t[src as usize]),
            Uop::ReadSel { dst, seg } => {
                t[dst as usize] = core.m.segs[seg as usize].selector as u32
            }
            Uop::Alu {
                op,
                size,
                dst,
                a,
                b,
            } => {
                t[dst as usize] = alu_eval(op, size, t[a as usize], t[b as usize]);
            }
            Uop::Not { dst, a, size } => t[dst as usize] = !t[a as usize] & mask(size),
            Uop::Neg { dst, a, size } => {
                t[dst as usize] = (t[a as usize] & mask(size)).wrapping_neg() & mask(size)
            }
            Uop::Ext {
                dst,
                a,
                from,
                to,
                signed,
            } => {
                let v = t[a as usize] & mask(from);
                let v = if signed && to > from {
                    let shift = 32 - from * 8;
                    (((v << shift) as i32) >> shift) as u32
                } else {
                    v
                };
                t[dst as usize] = v & mask(to);
            }
            Uop::Bswap { dst, a } => t[dst as usize] = t[a as usize].swap_bytes(),
            Uop::Ld {
                dst,
                seg,
                addr,
                size,
            } => {
                t[dst as usize] = try_mem!(core, core.vread(seg, t[addr as usize], size));
            }
            Uop::St {
                seg,
                addr,
                src,
                size,
            } => {
                try_mem!(
                    core,
                    core.vwrite(seg, t[addr as usize], t[src as usize], size)
                );
            }
            Uop::Lea {
                dst,
                base,
                index,
                disp,
            } => {
                let mut ea = disp;
                if let Some(b) = base {
                    ea = ea.wrapping_add(core.m.gpr[b as usize]);
                }
                if let Some((i, s)) = index {
                    ea = ea.wrapping_add(core.m.gpr[i as usize] << s);
                }
                t[dst as usize] = ea;
            }
            Uop::SetCc {
                cc,
                size,
                dst,
                a,
                b,
            } => set_cc(
                &mut core.m,
                cc,
                size,
                t[dst as usize],
                t[a as usize],
                t[b as usize],
            ),
            Uop::GetEflags { dst } => t[dst as usize] = core.m.eflags(),
            Uop::GetCf { dst } => t[dst as usize] = core.m.cc.cf(),
            Uop::TestCc { dst, cc } => {
                t[dst as usize] = cond_eval_lazy(&core.m, cc) as u32;
            }
            Uop::Select { dst, cond, a, b } => {
                t[dst as usize] = if t[cond as usize] != 0 {
                    t[a as usize]
                } else {
                    t[b as usize]
                };
            }
            Uop::SetEip { target } => return TbExit::Next(t[target as usize]),
            Uop::SetEipImm { target } => return TbExit::Next(target),
            Uop::BrCc { cc, target } => {
                if cond_eval_lazy(&core.m, cc) {
                    return TbExit::Next(target);
                }
                return TbExit::Next(core.m.eip);
            }
            Uop::BrCondT { cond, target } => {
                if t[cond as usize] != 0 {
                    return TbExit::Next(target);
                }
                return TbExit::Next(core.m.eip);
            }
            Uop::SetCarry { mode } => {
                let f = core.m.eflags();
                let nf = match mode {
                    0 => f & !(1 << fl::CF),
                    1 => f | (1 << fl::CF),
                    _ => f ^ (1 << fl::CF),
                };
                core.m.set_eflags(nf);
            }
            Uop::SetDirection { set } => {
                let f = core.m.eflags();
                let nf = if set {
                    f | (1 << fl::DF)
                } else {
                    f & !(1 << fl::DF)
                };
                core.m.set_eflags(nf);
            }
            Uop::Raise { vector } => {
                let e = match vector {
                    1 => Exception::Db,
                    3 => Exception::Bp,
                    6 => Exception::Ud,
                    v => Exception::SoftInt(v),
                };
                fault!(core, e)
            }
            Uop::Int { vector } => fault!(core, Exception::SoftInt(vector)),
            Uop::Into => {
                if core.m.eflags() & (1 << fl::OF) != 0 {
                    fault!(core, Exception::Of)
                }
            }
            Uop::Halt => return TbExit::Halt,
            Uop::Helper(h) => match run_helper(core, h, &mut t) {
                Ok(HelperExit::Continue) => {}
                Ok(HelperExit::Jump(eip)) => return TbExit::Next(eip),
                Ok(HelperExit::Halt) => return TbExit::Halt,
                Err(e) => fault!(core, e),
            },
        }
    }
    TbExit::Next(core.m.eip)
}

enum HelperExit {
    Continue,
    Jump(u32),
    Halt,
}

fn set_status(m: &mut LofiMachine, status: u32, write_mask: u32) {
    let old = m.eflags();
    let nf = (old & !(write_mask & fl::STATUS)) | (status & write_mask & fl::STATUS);
    m.set_eflags(nf);
}

fn parity8(v: u32) -> bool {
    (v as u8).count_ones().is_multiple_of(2)
}

fn status_of(res: u32, size: u8) -> u32 {
    let mut f = 0;
    if res & mask(size) == 0 {
        f |= 1 << fl::ZF;
    }
    if (res >> (size * 8 - 1)) & 1 != 0 {
        f |= 1 << fl::SF;
    }
    if parity8(res) {
        f |= 1 << fl::PF;
    }
    f
}

fn require_cpl0(m: &LofiMachine) -> Result<(), Exception> {
    if m.cpl() == 0 {
        Ok(())
    } else {
        Err(Exception::Gp(0))
    }
}

/// Loads a segment register with QEMU-like descriptor checks (the checks on
/// explicit loads are largely correct in QEMU — the gap is per-access
/// enforcement, handled in `mmu`). Skips the accessed-bit write-back unless
/// fixed (§6.2).
fn helper_load_seg(core: &mut Core, seg: Seg, sel: u16, kind: u8) -> Result<(), Exception> {
    let kind = u64::from(kind);
    if sel & 0xfffc == 0 {
        if kind != desc_kind::DATA {
            return Err(Exception::Gp(0));
        }
        let s = &mut core.m.segs[seg as usize];
        s.selector = sel;
        s.base = 0;
        s.limit = 0;
        s.attrs = 0;
        return Ok(());
    }
    let err = sel & 0xfffc;
    if sel & 4 != 0 {
        return Err(Exception::Gp(err)); // no LDT
    }
    let index = sel >> 3;
    if (index as u32) * 8 + 7 > core.m.gdtr.1 as u32 {
        return Err(Exception::Gp(err));
    }
    let lin = core.m.gdtr.0.wrapping_add((index as u32) << 3);
    let lo = core.lread(lin, 4)?;
    let hi = core.lread(lin + 4, 4)?;

    let s_bit = hi & (1 << 12) != 0;
    let typ = (hi >> 8) & 0xf;
    let dpl = ((hi >> 13) & 3) as u8;
    let present = hi & (1 << 15) != 0;
    let is_code = typ & 8 != 0;
    let bit1 = typ & 2 != 0;
    let conforming = typ & 4 != 0;
    let rpl = (sel & 3) as u8;
    let cpl = core.m.cpl();
    if !s_bit {
        return Err(Exception::Gp(err));
    }
    match kind {
        k if k == desc_kind::STACK => {
            if is_code || !bit1 || rpl != cpl || dpl != cpl {
                return Err(Exception::Gp(err));
            }
            if !present {
                return Err(Exception::Ss(err));
            }
        }
        k if k == desc_kind::CODE => {
            if !is_code {
                return Err(Exception::Gp(err));
            }
            if conforming {
                if dpl > cpl {
                    return Err(Exception::Gp(err));
                }
            } else if dpl != cpl {
                return Err(Exception::Gp(err));
            }
            if !present {
                return Err(Exception::Np(err));
            }
        }
        _ => {
            if is_code && !bit1 {
                return Err(Exception::Gp(err));
            }
            if !(is_code && conforming) && dpl < rpl.max(cpl) {
                return Err(Exception::Gp(err));
            }
            if !present {
                return Err(Exception::Np(err));
            }
        }
    }
    if core.fid.set_accessed_bit && hi & (1 << 8) == 0 {
        core.lwrite(lin + 4, hi | (1 << 8), 4)?;
    }
    let base = ((lo >> 16) & 0xffff) | ((hi & 0xff) << 16) | (hi & 0xff00_0000);
    let raw_limit = (lo & 0xffff) | (hi & 0xf_0000);
    let g = hi & (1 << 23) != 0;
    let limit = if g {
        (raw_limit << 12) | 0xfff
    } else {
        raw_limit
    };
    let s = &mut core.m.segs[seg as usize];
    s.selector = sel;
    s.base = base;
    s.limit = limit;
    s.attrs = ((hi >> 8) & 0xfff) as u16;
    Ok(())
}

fn push32(core: &mut Core, val: u32, size: u8) -> Result<(), Exception> {
    let esp = core.m.gpr[4].wrapping_sub(size as u32);
    core.vwrite(Seg::Ss, esp, val, size)?;
    core.m.gpr[4] = esp;
    Ok(())
}

fn pop32(core: &mut Core, size: u8) -> Result<u32, Exception> {
    let esp = core.m.gpr[4];
    let v = core.vread(Seg::Ss, esp, size)?;
    core.m.gpr[4] = esp.wrapping_add(size as u32);
    Ok(v)
}

fn write_eflags_checked(core: &mut Core, new: u32, size: u8) {
    let old = core.m.eflags();
    let new32 = if size == 2 {
        (old & 0xffff_0000) | (new & 0xffff)
    } else {
        new
    };
    let cpl = core.m.cpl() as u32;
    let iopl = (old >> fl::IOPL) & 3;
    let mut mask = fl::WRITABLE & !(1 << fl::IF) & !(3 << fl::IOPL);
    if size == 2 {
        mask &= 0xffff;
    }
    let mut out = (new32 & mask) | (old & !mask);
    if cpl <= iopl {
        out = (out & !(1 << fl::IF)) | (new32 & (1 << fl::IF));
    } else {
        out = (out & !(1 << fl::IF)) | (old & (1 << fl::IF));
    }
    if cpl == 0 {
        out = (out & !(3 << fl::IOPL)) | (new32 & (3 << fl::IOPL));
    } else {
        out = (out & !(3 << fl::IOPL)) | (old & (3 << fl::IOPL));
    }
    core.m.set_eflags(out | fl::FIXED_ONE);
}

#[allow(clippy::too_many_lines)]
fn run_helper(core: &mut Core, h: Helper, t: &mut [u32; 256]) -> Result<HelperExit, Exception> {
    match h {
        Helper::LoadSeg { seg, sel, kind } => {
            helper_load_seg(core, seg, t[sel as usize] as u16, kind)?;
            Ok(HelperExit::Continue)
        }
        Helper::PopSeg { seg, size } => {
            let v = pop32(core, size)?;
            let kind = if seg == Seg::Ss {
                desc_kind::STACK
            } else {
                desc_kind::DATA
            } as u8;
            if let Err(e) = helper_load_seg(core, seg, v as u16, kind) {
                core.m.gpr[4] = core.m.gpr[4].wrapping_sub(size as u32);
                return Err(e);
            }
            Ok(HelperExit::Continue)
        }
        Helper::PushF { size } => {
            let f = core.m.eflags() & !((1 << fl::VM) | (1 << fl::RF));
            push32(core, f & mask(size), size)?;
            Ok(HelperExit::Continue)
        }
        Helper::PopF { size } => {
            let v = pop32(core, size)?;
            write_eflags_checked(core, v, size);
            Ok(HelperExit::Continue)
        }
        Helper::Sahf => {
            let ah = read_reg(&core.m, 4, 1);
            const M: u32 =
                (1 << fl::SF) | (1 << fl::ZF) | (1 << fl::AF) | (1 << fl::PF) | (1 << fl::CF);
            let old = core.m.eflags();
            core.m.set_eflags((old & !M) | (ah & M) | fl::FIXED_ONE);
            Ok(HelperExit::Continue)
        }
        Helper::Shift {
            g,
            size,
            val,
            count,
            out,
        } => {
            let w = (size * 8) as u32;
            let v = t[val as usize] & mask(size);
            let c = t[count as usize] & 0x1f;
            if c == 0 {
                t[out as usize] = v;
                return Ok(HelperExit::Continue);
            }
            let old_cf = (core.m.eflags() >> fl::CF) & 1;
            let (res, cf, of) = match g {
                4 | 6 => {
                    let res = if c >= w { 0 } else { v << c };
                    let cf = if c > w { 0 } else { (v >> (w - c)) & 1 };
                    let of = ((res >> (w - 1)) & 1) ^ cf;
                    (res, cf, of)
                }
                5 => {
                    let res = if c >= w { 0 } else { v >> c };
                    let cf = if c > w { 0 } else { (v >> (c - 1)) & 1 };
                    let of = (v >> (w - 1)) & 1;
                    (res, cf, of)
                }
                7 => {
                    let sx = ((v << (32 - w)) as i32) >> (32 - w);
                    let res = if c >= w {
                        (sx >> 31) as u32
                    } else {
                        (sx >> c) as u32
                    };
                    let cf = if c > w {
                        (sx >> 31) as u32 & 1
                    } else {
                        ((sx >> (c - 1)) as u32) & 1
                    };
                    (res, cf, 0)
                }
                0 => {
                    let k = c % w;
                    let res = if k == 0 { v } else { (v << k) | (v >> (w - k)) };
                    let cf = res & 1;
                    let of = ((res >> (w - 1)) & 1) ^ cf;
                    (res, cf, of)
                }
                1 => {
                    let k = c % w;
                    let res = if k == 0 { v } else { (v >> k) | (v << (w - k)) };
                    let cf = (res >> (w - 1)) & 1;
                    let of = cf ^ ((res >> (w - 2)) & 1);
                    (res, cf, of)
                }
                _ => {
                    // rcl/rcr through carry, modulo w+1 (64-bit staging).
                    let wide = ((old_cf as u64) << w) | v as u64;
                    let w1 = w + 1;
                    let k = c % w1;
                    let rot = if k == 0 {
                        wide
                    } else if g == 2 {
                        ((wide << k) | (wide >> (w1 - k))) & ((1u64 << w1) - 1)
                    } else {
                        ((wide >> k) | (wide << (w1 - k))) & ((1u64 << w1) - 1)
                    };
                    let res = (rot & ((1u64 << w) - 1)) as u32;
                    let cf = ((rot >> w) & 1) as u32;
                    let of = if g == 2 {
                        ((res >> (w - 1)) & 1) ^ cf
                    } else {
                        ((res >> (w - 1)) & 1) ^ ((res >> (w - 2)) & 1)
                    };
                    (res, cf, of)
                }
            };
            let res = res & mask(size);
            t[out as usize] = res;
            let is_rotate = g <= 3;
            let old = core.m.eflags();
            let mut status = if is_rotate {
                old & fl::STATUS
            } else {
                // Lazy-flag materialization defines all bits, including the
                // architecturally-undefined AF (kept 0) — a QEMU-like choice.
                status_of(res, size)
            };
            status = (status & !(1 << fl::CF)) | (cf << fl::CF);
            status = (status & !(1 << fl::OF)) | (of << fl::OF);
            if !is_rotate {
                status &= !(1 << fl::AF);
            }
            set_status(
                &mut core.m,
                status,
                if is_rotate {
                    (1 << fl::CF) | (1 << fl::OF)
                } else {
                    fl::STATUS
                },
            );
            Ok(HelperExit::Continue)
        }
        Helper::ShiftD {
            left,
            size,
            dst,
            src,
            count,
            out,
        } => {
            let w = (size * 8) as u32;
            let a = t[dst as usize] & mask(size);
            let b = t[src as usize] & mask(size);
            let c = t[count as usize] & 0x1f;
            if c == 0 {
                t[out as usize] = a;
                return Ok(HelperExit::Continue);
            }
            let wide: u64 = if left {
                ((a as u64) << w) | b as u64
            } else {
                ((b as u64) << w) | a as u64
            };
            let (res, cf) = if left {
                let sh = wide << c;
                (
                    ((sh >> w) & mask(size) as u64) as u32,
                    ((wide >> (2 * w as u64 - c as u64)) & 1) as u32,
                )
            } else {
                let sh = wide >> c;
                (
                    (sh & mask(size) as u64) as u32,
                    ((wide >> (c - 1)) & 1) as u32,
                )
            };
            t[out as usize] = res;
            let of = ((res >> (w - 1)) & 1) ^ ((a >> (w - 1)) & 1);
            let mut status = status_of(res, size);
            status |= cf << fl::CF;
            status |= of << fl::OF;
            set_status(&mut core.m, status, fl::STATUS);
            Ok(HelperExit::Continue)
        }
        Helper::MulDiv { g, size, val } => {
            let w = (size * 8) as u32;
            let v = (t[val as usize] & mask(size)) as u64;
            match g {
                4 | 5 => {
                    let acc = read_reg(&core.m, 0, size) as u64;
                    let (full, over) = if g == 4 {
                        let full = acc * v;
                        (full, (full >> w) != 0)
                    } else {
                        let sa = sext64(acc, w);
                        let sb = sext64(v, w);
                        let full_i = sa.wrapping_mul(sb); // w <= 32: no i64 overflow
                        let full = full_i as u64;
                        let lo = full & ((1u64 << w) - 1);
                        (full, sext64(lo, w) != full_i)
                    };
                    let lo = (full & ((1u64 << w) - 1)) as u32;
                    let hi = ((full >> w) & ((1u64 << w) - 1)) as u32;
                    if size == 1 {
                        write_reg(&mut core.m, 0, 2, (hi << 8) | lo);
                    } else {
                        write_reg(&mut core.m, 0, size, lo);
                        write_reg(&mut core.m, 2, size, hi);
                    }
                    // QEMU defines all flags from the low result.
                    let mut status = status_of(lo, size);
                    if over {
                        status |= (1 << fl::CF) | (1 << fl::OF);
                    }
                    set_status(&mut core.m, status, fl::STATUS);
                }
                _ => {
                    if v == 0 {
                        return Err(Exception::De);
                    }
                    let dividend: u64 = if size == 1 {
                        read_reg(&core.m, 0, 2) as u64
                    } else {
                        ((read_reg(&core.m, 2, size) as u64) << w)
                            | read_reg(&core.m, 0, size) as u64
                    };
                    let (q, r) = if g == 6 {
                        let q = dividend / v;
                        if q > ((1u64 << w) - 1) {
                            return Err(Exception::De);
                        }
                        (q, dividend % v)
                    } else {
                        let sd = sext64(dividend, 2 * w);
                        let sv = sext64(v, w);
                        let q = sd.wrapping_div(sv);
                        let r = sd.wrapping_rem(sv);
                        let min = -(1i64 << (w - 1));
                        let max = (1i64 << (w - 1)) - 1;
                        if q < min || q > max {
                            return Err(Exception::De);
                        }
                        (q as u64, r as u64)
                    };
                    let qm = (q & ((1u64 << w) - 1)) as u32;
                    let rm = (r & ((1u64 << w) - 1)) as u32;
                    if size == 1 {
                        write_reg(&mut core.m, 0, 2, (rm << 8) | qm);
                    } else {
                        write_reg(&mut core.m, 0, size, qm);
                        write_reg(&mut core.m, 2, size, rm);
                    }
                    // QEMU leaves flags untouched after division — the
                    // reference writes (model-defined) values: a natural
                    // undefined-flag divergence (§6.2).
                }
            }
            Ok(HelperExit::Continue)
        }
        Helper::Imul2 { size, a, b, out } => {
            let w = (size * 8) as u32;
            let x = sext64(t[a as usize] as u64 & mask(size) as u64, w);
            let y = sext64(t[b as usize] as u64 & mask(size) as u64, w);
            let full = x.wrapping_mul(y);
            let lo = (full as u64 & mask(size) as u64) as u32;
            let over = sext64(lo as u64, w) != full;
            t[out as usize] = lo;
            let mut status = status_of(lo, size);
            if over {
                status |= (1 << fl::CF) | (1 << fl::OF);
            }
            set_status(&mut core.m, status, fl::STATUS);
            Ok(HelperExit::Continue)
        }
        Helper::CmpxchgMem {
            size,
            seg,
            addr,
            src_reg,
        } => {
            let a = t[addr as usize];
            let dest = core.vread(seg, a, size)?;
            let acc = read_reg(&core.m, 0, size);
            let equal = acc == dest;
            let diff = acc.wrapping_sub(dest);
            core.m.cc = CcState {
                op: CcOp::Sub,
                size,
                dst: diff & mask(size),
                src1: acc,
                src2: dest,
                src3: 0,
            };
            if core.fid.atomic_cmpxchg {
                // Fixed ordering: write check first, then accumulator.
                let newv = if equal {
                    read_reg(&core.m, src_reg, size)
                } else {
                    dest
                };
                core.vwrite(seg, a, newv, size)?;
                if !equal {
                    write_reg(&mut core.m, 0, size, dest);
                }
            } else {
                // QEMU ordering: the accumulator is updated before the write
                // permission is known (§6.2).
                if !equal {
                    write_reg(&mut core.m, 0, size, dest);
                }
                let newv = if equal {
                    read_reg(&core.m, src_reg, size)
                } else {
                    dest
                };
                core.vwrite(seg, a, newv, size)?;
            }
            Ok(HelperExit::Continue)
        }
        Helper::CmpxchgReg { size, rm, src_reg } => {
            let dest = read_reg(&core.m, rm, size);
            let acc = read_reg(&core.m, 0, size);
            let equal = acc == dest;
            let diff = acc.wrapping_sub(dest);
            core.m.cc = CcState {
                op: CcOp::Sub,
                size,
                dst: diff & mask(size),
                src1: acc,
                src2: dest,
                src3: 0,
            };
            if equal {
                let v = read_reg(&core.m, src_reg, size);
                write_reg(&mut core.m, rm, size, v);
            } else {
                write_reg(&mut core.m, 0, size, dest);
            }
            Ok(HelperExit::Continue)
        }
        Helper::BitOpMem {
            action,
            size,
            seg,
            addr,
            bitoff,
            reg_offset,
        } => {
            let w = (size * 8) as u32;
            let off = t[bitoff as usize];
            let base = t[addr as usize];
            let (a, bit) = if reg_offset {
                let word = ((off as i32) >> if w == 16 { 4 } else { 5 }) as u32;
                let byte_off = word.wrapping_mul(size as u32);
                (base.wrapping_add(byte_off), off & (w - 1))
            } else {
                (base, off & (w - 1))
            };
            let v = core.vread(seg, a, size)?;
            let cf = (v >> bit) & 1;
            let nv = match action {
                1 => v | (1 << bit),
                2 => v & !(1 << bit),
                3 => v ^ (1 << bit),
                _ => v,
            };
            if action != 0 {
                core.vwrite(seg, a, nv, size)?;
            }
            let old = core.m.eflags() & fl::STATUS;
            set_status(
                &mut core.m,
                (old & !(1 << fl::CF)) | (cf << fl::CF),
                fl::STATUS,
            );
            Ok(HelperExit::Continue)
        }
        Helper::BitOpReg {
            action,
            size,
            rm,
            bitoff,
        } => {
            let w = (size * 8) as u32;
            let bit = t[bitoff as usize] & (w - 1);
            let v = read_reg(&core.m, rm, size);
            let cf = (v >> bit) & 1;
            let nv = match action {
                1 => v | (1 << bit),
                2 => v & !(1 << bit),
                3 => v ^ (1 << bit),
                _ => v,
            };
            if action != 0 {
                write_reg(&mut core.m, rm, size, nv);
            }
            let old = core.m.eflags() & fl::STATUS;
            set_status(
                &mut core.m,
                (old & !(1 << fl::CF)) | (cf << fl::CF),
                fl::STATUS,
            );
            Ok(HelperExit::Continue)
        }
        Helper::BsfBsr {
            forward,
            size,
            src,
            dst_reg,
        } => {
            let v = t[src as usize] & mask(size);
            let mut status = core.m.eflags() & fl::STATUS;
            if v == 0 {
                status |= 1 << fl::ZF;
                // Lo-Fi behavior: writes 0 on a zero source (the reference
                // leaves the destination unchanged) — undefined territory.
                write_reg(&mut core.m, dst_reg, size, 0);
            } else {
                status &= !(1 << fl::ZF);
                let pos = if forward {
                    v.trailing_zeros()
                } else {
                    31 - v.leading_zeros()
                };
                write_reg(&mut core.m, dst_reg, size, pos);
            }
            set_status(&mut core.m, status, fl::STATUS);
            Ok(HelperExit::Continue)
        }
        Helper::Bcd { opcode, imm } => {
            helper_bcd(core, opcode, imm)?;
            Ok(HelperExit::Continue)
        }
        Helper::StringOp {
            opcode,
            size,
            rep,
            seg,
        } => {
            helper_string(core, opcode, size, rep, seg)?;
            Ok(HelperExit::Continue)
        }
        Helper::Iret { size } => {
            // Read order depends on fidelity: QEMU reads outermost-first
            // (EFLAGS, CS, EIP); hardware reads innermost-first (§6.2).
            let esp = core.m.gpr[4];
            let (eip_v, cs_v, flags_v);
            if core.fid.iret_ascending {
                eip_v = core.vread(Seg::Ss, esp, size)?;
                cs_v = core.vread(Seg::Ss, esp.wrapping_add(size as u32), size)?;
                flags_v = core.vread(Seg::Ss, esp.wrapping_add(2 * size as u32), size)?;
            } else {
                flags_v = core.vread(Seg::Ss, esp.wrapping_add(2 * size as u32), size)?;
                cs_v = core.vread(Seg::Ss, esp.wrapping_add(size as u32), size)?;
                eip_v = core.vread(Seg::Ss, esp, size)?;
            }
            helper_load_seg(core, Seg::Cs, cs_v as u16, desc_kind::CODE as u8)?;
            core.m.gpr[4] = esp.wrapping_add(3 * size as u32);
            write_eflags_checked(core, flags_v, size);
            Ok(HelperExit::Jump(eip_v & mask(size)))
        }
        Helper::RetFar { size, extra } => {
            let esp = core.m.gpr[4];
            let eip_v = core.vread(Seg::Ss, esp, size)?;
            let cs_v = core.vread(Seg::Ss, esp.wrapping_add(size as u32), size)?;
            helper_load_seg(core, Seg::Cs, cs_v as u16, desc_kind::CODE as u8)?;
            core.m.gpr[4] = esp.wrapping_add(2 * size as u32).wrapping_add(extra as u32);
            Ok(HelperExit::Jump(eip_v & mask(size)))
        }
        Helper::FarXfer {
            call,
            sel,
            off,
            size,
        } => {
            let sel_v = t[sel as usize] as u16;
            let off_v = t[off as usize] & mask(size);
            let old_cs = core.m.segs[Seg::Cs as usize].selector as u32;
            let old_eip = core.m.eip;
            helper_load_seg(core, Seg::Cs, sel_v, desc_kind::CODE as u8)?;
            if call {
                push32(core, old_cs & mask(size), size)?;
                push32(core, old_eip & mask(size), size)?;
            }
            Ok(HelperExit::Jump(off_v))
        }
        Helper::Enter { size, alloc, level } => {
            let ebp = read_reg(&core.m, 5, size);
            push32(core, ebp, size)?;
            let frame = core.m.gpr[4];
            if level > 0 {
                for i in 1..level {
                    let src = core.m.gpr[5].wrapping_sub(i as u32 * size as u32);
                    let v = core.vread(Seg::Ss, src, size)?;
                    push32(core, v, size)?;
                }
                push32(core, frame & mask(size), size)?;
            }
            write_reg(&mut core.m, 5, size, frame);
            core.m.gpr[4] = core.m.gpr[4].wrapping_sub(alloc as u32);
            Ok(HelperExit::Continue)
        }
        Helper::Bound {
            size,
            reg,
            addr,
            seg,
        } => {
            let idx = read_reg(&core.m, reg, size);
            let a = t[addr as usize];
            let lower = core.vread(seg, a, size)?;
            let upper = core.vread(seg, a.wrapping_add(size as u32), size)?;
            let w = (size * 8) as u32;
            let s = |v: u32| sext64(v as u64, w);
            if s(idx) < s(lower) || s(idx) > s(upper) {
                return Err(Exception::Br);
            }
            Ok(HelperExit::Continue)
        }
        Helper::Arpl { dst, src, out } => {
            let d = t[dst as usize] & 0xffff;
            let s = t[src as usize] & 0xffff;
            let adjusted = (d & 3) < (s & 3);
            t[out as usize] = if adjusted { (d & !3) | (s & 3) } else { d };
            let old = core.m.eflags() & fl::STATUS;
            let status = if adjusted {
                old | (1 << fl::ZF)
            } else {
                old & !(1 << fl::ZF)
            };
            set_status(&mut core.m, status, fl::STATUS);
            Ok(HelperExit::Continue)
        }
        Helper::MovCr { write, crn, reg } => {
            require_cpl0(&core.m)?;
            if write {
                let v = core.m.gpr[reg as usize];
                match crn {
                    0 => {
                        if v & (1 << cr0::PG) != 0 && v & (1 << cr0::PE) == 0 {
                            return Err(Exception::Gp(0));
                        }
                        core.m.cr0 = v;
                        core.tlb.flush();
                    }
                    2 => core.m.cr2 = v,
                    3 => {
                        core.m.cr3 = v;
                        core.tlb.flush();
                    }
                    4 => {
                        if v & (1 << cr4::PAE) != 0 {
                            return Err(Exception::Gp(0));
                        }
                        core.m.cr4 = v;
                        core.tlb.flush();
                    }
                    _ => return Err(Exception::Ud),
                }
            } else {
                let v = match crn {
                    0 => core.m.cr0 | (1 << cr0::ET),
                    2 => core.m.cr2,
                    3 => core.m.cr3,
                    4 => core.m.cr4,
                    _ => return Err(Exception::Ud),
                };
                core.m.gpr[reg as usize] = v;
            }
            Ok(HelperExit::Continue)
        }
        Helper::DescTable { which, addr, seg } => {
            let a = t[addr as usize];
            match which {
                0 | 1 => {
                    let (base, limit) = if which == 0 {
                        (core.m.gdtr.0, core.m.gdtr.1)
                    } else {
                        (core.m.idtr.0, core.m.idtr.1)
                    };
                    core.vwrite(seg, a, limit as u32, 2)?;
                    core.vwrite(seg, a.wrapping_add(2), base, 4)?;
                }
                _ => {
                    require_cpl0(&core.m)?;
                    let limit = core.vread(seg, a, 2)? as u16;
                    let base = core.vread(seg, a.wrapping_add(2), 4)?;
                    if which == 2 {
                        core.m.gdtr = (base, limit);
                    } else {
                        core.m.idtr = (base, limit);
                    }
                }
            }
            Ok(HelperExit::Continue)
        }
        Helper::Smsw { out } => {
            t[out as usize] = (core.m.cr0 & 0xffff) | (1 << cr0::ET);
            Ok(HelperExit::Continue)
        }
        Helper::Lmsw { val } => {
            require_cpl0(&core.m)?;
            let v = t[val as usize] & 0xf;
            let pe = (core.m.cr0 | v) & 1; // PE is sticky
            core.m.cr0 = (core.m.cr0 & !0xf) | (v & 0xe) | pe;
            Ok(HelperExit::Continue)
        }
        Helper::Msr { write } => {
            require_cpl0(&core.m)?;
            let addr = core.m.gpr[1]; // ecx
            let valid = VALID_MSRS.contains(&addr);
            if !valid {
                if core.fid.msr_gp_on_invalid {
                    return Err(Exception::Gp(0));
                }
                // QEMU-like: reads return 0, writes are dropped (§6.2).
                if !write {
                    core.m.gpr[0] = 0;
                    core.m.gpr[2] = 0;
                }
                return Ok(HelperExit::Continue);
            }
            if write {
                match addr {
                    0x10 => core.m.tsc = ((core.m.gpr[2] as u64) << 32) | core.m.gpr[0] as u64,
                    0x174 => core.m.msrs[0] = core.m.gpr[0],
                    0x175 => core.m.msrs[1] = core.m.gpr[0],
                    _ => core.m.msrs[2] = core.m.gpr[0],
                }
            } else {
                let (lo, hi) = match addr {
                    0x10 => (core.m.tsc as u32, (core.m.tsc >> 32) as u32),
                    0x174 => (core.m.msrs[0], 0),
                    0x175 => (core.m.msrs[1], 0),
                    _ => (core.m.msrs[2], 0),
                };
                core.m.gpr[0] = lo;
                core.m.gpr[2] = hi;
            }
            Ok(HelperExit::Continue)
        }
        Helper::Rdtsc => {
            if core.m.cr4 & (1 << cr4::TSD) != 0 && core.m.cpl() != 0 {
                return Err(Exception::Gp(0));
            }
            core.m.gpr[0] = core.m.tsc as u32;
            core.m.gpr[2] = (core.m.tsc >> 32) as u32;
            core.m.tsc = core.m.tsc.wrapping_add(1);
            Ok(HelperExit::Continue)
        }
        Helper::Cpuid => {
            if core.m.gpr[0] == 0 {
                core.m.gpr[0] = 1;
                core.m.gpr[3] = u32::from_le_bytes(*b"VX86");
                core.m.gpr[2] = u32::from_le_bytes(*b"Poke");
                core.m.gpr[1] = u32::from_le_bytes(*b"EMUr");
            } else {
                core.m.gpr[0] = 0x0000_0611;
                core.m.gpr[3] = 0;
                core.m.gpr[1] = 0;
                core.m.gpr[2] = (1 << 3) | (1 << 4) | (1 << 5) | (1 << 15);
            }
            Ok(HelperExit::Continue)
        }
        Helper::LarLsl {
            is_lsl,
            sel,
            dst_reg,
            size,
        } => {
            let sel_v = t[sel as usize] as u16;
            let r = helper_desc_query(core, sel_v)?;
            let mut status = core.m.eflags() & fl::STATUS;
            match r {
                None => status &= !(1 << fl::ZF),
                Some((lo, hi)) => {
                    status |= 1 << fl::ZF;
                    let v = if is_lsl {
                        let raw = (lo & 0xffff) | (hi & 0xf_0000);
                        if hi & (1 << 23) != 0 {
                            (raw << 12) | 0xfff
                        } else {
                            raw
                        }
                    } else {
                        hi & 0x00f0_ff00
                    };
                    write_reg(&mut core.m, dst_reg, size, v & mask(size));
                }
            }
            set_status(&mut core.m, status, fl::STATUS);
            Ok(HelperExit::Continue)
        }
        Helper::Verrw { write, sel } => {
            let sel_v = t[sel as usize] as u16;
            let r = helper_desc_query(core, sel_v)?;
            let ok = match r {
                None => false,
                Some((_lo, hi)) => {
                    let is_code = hi & (1 << 11) != 0;
                    let bit1 = hi & (1 << 9) != 0;
                    if write {
                        !is_code && bit1
                    } else {
                        !is_code || bit1
                    }
                }
            };
            let old = core.m.eflags() & fl::STATUS;
            let status = if ok {
                old | (1 << fl::ZF)
            } else {
                old & !(1 << fl::ZF)
            };
            set_status(&mut core.m, status, fl::STATUS);
            Ok(HelperExit::Continue)
        }
        Helper::SldtStr { out } => {
            t[out as usize] = 0;
            Ok(HelperExit::Continue)
        }
        Helper::LldtLtr { sel } => {
            require_cpl0(&core.m)?;
            let sel_v = t[sel as usize] as u16;
            if sel_v & 0xfffc != 0 {
                return Err(Exception::Gp(sel_v & 0xfffc));
            }
            Ok(HelperExit::Continue)
        }
        Helper::Clts => {
            require_cpl0(&core.m)?;
            core.m.cr0 &= !(1 << cr0::TS);
            Ok(HelperExit::Continue)
        }
        Helper::CliSti { enable } => {
            let f = core.m.eflags();
            let cpl = core.m.cpl() as u32;
            let iopl = (f >> fl::IOPL) & 3;
            if cpl > iopl {
                return Err(Exception::Gp(0));
            }
            let nf = if enable {
                f | (1 << fl::IF)
            } else {
                f & !(1 << fl::IF)
            };
            core.m.set_eflags(nf);
            Ok(HelperExit::Continue)
        }
        Helper::Invlpg => {
            require_cpl0(&core.m)?;
            core.tlb.flush();
            Ok(HelperExit::Continue)
        }
        Helper::CacheOp => {
            require_cpl0(&core.m)?;
            Ok(HelperExit::Continue)
        }
        Helper::Hlt => {
            require_cpl0(&core.m)?;
            Ok(HelperExit::Halt)
        }
    }
}

fn sext64(v: u64, w: u32) -> i64 {
    let shift = 64 - w;
    ((v << shift) as i64) >> shift
}

/// Shared descriptor fetch for lar/lsl/verr/verw: returns the raw halves if
/// the selector names an accessible descriptor.
fn helper_desc_query(core: &mut Core, sel: u16) -> Result<Option<(u32, u32)>, Exception> {
    if sel & 0xfffc == 0 || sel & 4 != 0 {
        return Ok(None);
    }
    let index = sel >> 3;
    if (index as u32) * 8 + 7 > core.m.gdtr.1 as u32 {
        return Ok(None);
    }
    let lin = core.m.gdtr.0.wrapping_add((index as u32) << 3);
    let lo = core.lread(lin, 4)?;
    let hi = core.lread(lin + 4, 4)?;
    let s = hi & (1 << 12) != 0;
    let p = hi & (1 << 15) != 0;
    let dpl = ((hi >> 13) & 3) as u8;
    let is_code = hi & (1 << 11) != 0;
    let conforming = hi & (1 << 10) != 0;
    let rpl = (sel & 3) as u8;
    let cpl = core.m.cpl();
    let priv_ok = dpl >= rpl.max(cpl) || (is_code && conforming);
    if s && p && priv_ok {
        Ok(Some((lo, hi)))
    } else {
        Ok(None)
    }
}

fn helper_bcd(core: &mut Core, opcode: u16, imm: u8) -> Result<(), Exception> {
    let al = read_reg(&core.m, 0, 1);
    let ah = read_reg(&core.m, 4, 1);
    let f = core.m.eflags();
    let cf_in = (f >> fl::CF) & 1 != 0;
    let af_in = (f >> fl::AF) & 1 != 0;
    match opcode {
        0x27 | 0x2f => {
            let is_add = opcode == 0x27;
            let adjust_lo = (al & 0xf) > 9 || af_in;
            let adjust_hi = al > 0x99 || cf_in;
            let mut v = al;
            if adjust_lo {
                v = if is_add {
                    v.wrapping_add(6)
                } else {
                    v.wrapping_sub(6)
                } & 0xff;
            }
            if adjust_hi {
                v = if is_add {
                    v.wrapping_add(0x60)
                } else {
                    v.wrapping_sub(0x60)
                } & 0xff;
            }
            write_reg(&mut core.m, 0, 1, v);
            let mut status = status_of(v, 1);
            if adjust_hi {
                status |= 1 << fl::CF;
            }
            if adjust_lo {
                status |= 1 << fl::AF;
            }
            set_status(&mut core.m, status, fl::STATUS);
        }
        0x37 | 0x3f => {
            let is_add = opcode == 0x37;
            let adjust = (al & 0xf) > 9 || af_in;
            let (nal, nah) = if adjust {
                if is_add {
                    ((al.wrapping_add(6)) & 0xf, ah.wrapping_add(1) & 0xff)
                } else {
                    ((al.wrapping_sub(6)) & 0xf, ah.wrapping_sub(1) & 0xff)
                }
            } else {
                (al & 0xf, ah)
            };
            write_reg(&mut core.m, 0, 1, nal);
            write_reg(&mut core.m, 4, 1, nah);
            let status = if adjust {
                (1 << fl::CF) | (1 << fl::AF)
            } else {
                0
            };
            set_status(&mut core.m, status, fl::STATUS);
        }
        0xd4 => {
            if imm == 0 {
                return Err(Exception::De);
            }
            let q = al / imm as u32;
            let r = al % imm as u32;
            write_reg(&mut core.m, 0, 1, r);
            write_reg(&mut core.m, 4, 1, q);
            set_status(&mut core.m, status_of(r, 1), fl::STATUS);
        }
        _ => {
            let v = al.wrapping_add(ah.wrapping_mul(imm as u32)) & 0xff;
            write_reg(&mut core.m, 0, 1, v);
            write_reg(&mut core.m, 4, 1, 0);
            set_status(&mut core.m, status_of(v, 1), fl::STATUS);
        }
    }
    Ok(())
}

fn helper_string(
    core: &mut Core,
    opcode: u16,
    size: u8,
    rep: u8,
    seg: Seg,
) -> Result<(), Exception> {
    const MAX_ITER: u32 = 4096;
    let mut iter = 0;
    loop {
        if rep != 0 && core.m.gpr[1] == 0 {
            break;
        }
        let df = core.m.eflags() & (1 << fl::DF) != 0;
        let delta = if df {
            (size as u32).wrapping_neg()
        } else {
            size as u32
        };
        let esi = core.m.gpr[6];
        let edi = core.m.gpr[7];
        match opcode {
            0xa4 | 0xa5 => {
                let v = core.vread(seg, esi, size)?;
                core.vwrite(Seg::Es, edi, v, size)?;
                core.m.gpr[6] = esi.wrapping_add(delta);
                core.m.gpr[7] = edi.wrapping_add(delta);
            }
            0xa6 | 0xa7 => {
                let a = core.vread(seg, esi, size)?;
                let b = core.vread(Seg::Es, edi, size)?;
                let diff = a.wrapping_sub(b);
                core.m.cc = CcState {
                    op: CcOp::Sub,
                    size,
                    dst: diff & mask(size),
                    src1: a,
                    src2: b,
                    src3: 0,
                };
                core.m.gpr[6] = esi.wrapping_add(delta);
                core.m.gpr[7] = edi.wrapping_add(delta);
            }
            0xaa | 0xab => {
                let v = read_reg(&core.m, 0, size);
                core.vwrite(Seg::Es, edi, v, size)?;
                core.m.gpr[7] = edi.wrapping_add(delta);
            }
            0xac | 0xad => {
                let v = core.vread(seg, esi, size)?;
                write_reg(&mut core.m, 0, size, v);
                core.m.gpr[6] = esi.wrapping_add(delta);
            }
            _ => {
                let a = read_reg(&core.m, 0, size);
                let b = core.vread(Seg::Es, edi, size)?;
                let diff = a.wrapping_sub(b);
                core.m.cc = CcState {
                    op: CcOp::Sub,
                    size,
                    dst: diff & mask(size),
                    src1: a,
                    src2: b,
                    src3: 0,
                };
                core.m.gpr[7] = edi.wrapping_add(delta);
            }
        }
        if rep == 0 {
            break;
        }
        core.m.gpr[1] = core.m.gpr[1].wrapping_sub(1);
        if matches!(opcode, 0xa6 | 0xa7 | 0xae | 0xaf) {
            let zf = core.m.eflags() & (1 << fl::ZF) != 0;
            if (rep == 1 && !zf) || (rep == 2 && zf) {
                break;
            }
        }
        iter += 1;
        if iter >= MAX_ITER {
            break;
        }
    }
    Ok(())
}
