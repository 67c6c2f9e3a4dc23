//! The reference interpreter: one instruction step over any value domain.
//!
//! This is the single source of truth for VX86 semantics. Instantiated at
//! [`pokemu_symx::Concrete`] it is the execution core of the hardware oracle
//! and the Hi-Fi emulator; instantiated at [`pokemu_symx::Executor`] it is
//! the program that machine-state exploration symbolically executes
//! (paper §3.3).
//!
//! [`Quirks`] captures the per-implementation behaviors that differ *within
//! the architecture's latitude or by documented emulator deviation*:
//! undefined-flag policy, far-pointer operand fetch order, and descriptor
//! accessed-bit maintenance. Real hardware, Bochs and QEMU disagree on
//! exactly these (paper §6.2); everything else in this module is common.

use pokemu_symx::Dom;

use crate::decode::decode;
use crate::flags::UndefPolicy;
use crate::inst::Inst;
use crate::state::{attrs, Exception, Gpr, Machine, Seg};
use crate::translate::{self, AccessKind};

mod exec_arith;
mod exec_control;
mod exec_data;
mod exec_system;

/// Implementation-specific behaviors within architectural latitude.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Quirks {
    /// Values of architecturally-undefined flag results.
    pub undef_policy: UndefPolicy,
    /// `true`: far-pointer loads (`lds`/`les`/`lfs`/`lgs`/`lss`) fetch the
    /// segment selector before the offset — Bochs's order, opposite to QEMU
    /// and the hardware (paper §6.2).
    pub segment_first_far_fetch: bool,
    /// Maintain the descriptor "accessed" bit on segment loads (QEMU does
    /// not, §6.2).
    pub set_accessed_bit: bool,
}

impl Quirks {
    /// The hardware model: reference in every respect.
    pub const HARDWARE: Quirks = Quirks {
        undef_policy: UndefPolicy::HwModel,
        segment_first_far_fetch: false,
        set_accessed_bit: true,
    };

    /// The Hi-Fi emulator (Bochs-like): complete, with documented benign
    /// deviations — cleared undefined flags and reversed far-pointer fetch
    /// order.
    pub const HIFI: Quirks = Quirks {
        undef_policy: UndefPolicy::Clear,
        segment_first_far_fetch: true,
        set_accessed_bit: true,
    };
}

impl Default for Quirks {
    fn default() -> Self {
        Quirks::HARDWARE
    }
}

/// Result of executing one instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// Instruction retired normally.
    Normal,
    /// The CPU halted (`hlt`).
    Halt,
    /// An exception was raised; machine state is rolled back to the
    /// instruction boundary (EIP points at the faulting instruction).
    Exception(Exception),
}

/// Control-flow result inside `execute`.
pub(crate) enum Flow {
    Next,
    Halt,
}

pub(crate) type ExecResult = Result<Flow, Exception>;

/// Size of the `coverage.exception` bitmap: one bit per interrupt vector.
pub const EXCEPTION_COVERAGE_BITS: usize = 256;

/// Records an exception vector in the `coverage.exception` map — which
/// exception *classes* interpretation has exercised (the axis Tables 3–4
/// cluster deviations by).
fn record_exception(e: &Exception) {
    static COV: std::sync::OnceLock<pokemu_rt::CoverageMap> = std::sync::OnceLock::new();
    COV.get_or_init(|| pokemu_rt::coverage::map("coverage.exception", EXCEPTION_COVERAGE_BITS))
        .set(e.vector() as usize);
}

/// Executes one full instruction step: fetch (through CS, with paging),
/// decode, execute.
pub fn step<D: Dom>(d: &mut D, m: &mut Machine<D::V>, q: &Quirks) -> StepOutcome {
    let start_eip = m.eip;
    let inst = {
        let r = decode(d, |d: &mut D, idx: u8| fetch_byte(d, m, start_eip, idx));
        match r {
            Ok(i) => i,
            Err(e) => {
                record_exception(&e);
                return StepOutcome::Exception(e);
            }
        }
    };
    execute_decoded(d, m, q, &inst, start_eip)
}

/// Executes an already-decoded instruction whose first byte sits at
/// `start_eip`. This is the entry point machine-state exploration uses: the
/// paper starts symbolic execution "after it has fetched and decoded an
/// instruction" (§3.4).
pub fn execute_decoded<D: Dom>(
    d: &mut D,
    m: &mut Machine<D::V>,
    q: &Quirks,
    inst: &Inst<D::V>,
    start_eip: u32,
) -> StepOutcome {
    m.eip = start_eip.wrapping_add(inst.len as u32);
    match execute(d, m, q, inst) {
        Ok(Flow::Next) => StepOutcome::Normal,
        Ok(Flow::Halt) => StepOutcome::Halt,
        Err(e) => {
            record_exception(&e);
            m.eip = start_eip;
            StepOutcome::Exception(e)
        }
    }
}

/// Fetches one instruction byte through segmentation and paging.
fn fetch_byte<D: Dom>(
    d: &mut D,
    m: &mut Machine<D::V>,
    start_eip: u32,
    idx: u8,
) -> Result<D::V, Exception> {
    let off = d.constant(32, start_eip.wrapping_add(idx as u32) as u64);
    let lin = translate::seg_linear(d, m, Seg::Cs, off, 1, AccessKind::Execute)?;
    let lin = d.pick(lin, "fetch linear") as u32;
    let user = translate::at_user_privilege(d, m);
    let (p0, _) = match translate::translate_range(d, m, lin, 1, AccessKind::Execute, user) {
        Ok(v) => v,
        Err(e) => {
            if let Exception::Pf(_, a) = e {
                m.cr2 = a;
            }
            return Err(e);
        }
    };
    Ok(m.mem.read_u8(d, p0))
}

/// The execution context threaded through instruction implementations.
pub(crate) struct Exec<'a, D: Dom> {
    pub d: &'a mut D,
    pub m: &'a mut Machine<D::V>,
    pub q: Quirks,
}

impl<'a, D: Dom> Exec<'a, D> {
    /// Reads a general-purpose register at the given size (1, 2, 4 bytes).
    /// For byte size, registers 4..=7 are AH/CH/DH/BH.
    pub fn read_reg(&mut self, reg: u8, size: u8) -> D::V {
        match size {
            4 => self.m.gpr[reg as usize],
            2 => self.d.extract(self.m.gpr[reg as usize], 15, 0),
            1 => {
                if reg < 4 {
                    self.d.extract(self.m.gpr[reg as usize], 7, 0)
                } else {
                    self.d.extract(self.m.gpr[(reg - 4) as usize], 15, 8)
                }
            }
            _ => unreachable!("bad operand size"),
        }
    }

    /// Writes a general-purpose register at the given size, preserving the
    /// untouched high bits.
    pub fn write_reg(&mut self, reg: u8, size: u8, val: D::V) {
        match size {
            4 => self.m.gpr[reg as usize] = val,
            2 => {
                let hi = self.d.extract(self.m.gpr[reg as usize], 31, 16);
                self.m.gpr[reg as usize] = self.d.concat(hi, val);
            }
            1 => {
                if reg < 4 {
                    let hi = self.d.extract(self.m.gpr[reg as usize], 31, 8);
                    self.m.gpr[reg as usize] = self.d.concat(hi, val);
                } else {
                    let r = (reg - 4) as usize;
                    let hi = self.d.extract(self.m.gpr[r], 31, 16);
                    let lo = self.d.extract(self.m.gpr[r], 7, 0);
                    let mid_hi = self.d.concat(hi, val);
                    self.m.gpr[r] = self.d.concat(mid_hi, lo);
                }
            }
            _ => unreachable!("bad operand size"),
        }
    }

    /// Computes the effective address offset of a memory operand.
    pub fn effective_address(&mut self, mem: &crate::inst::MemOperand<D::V>) -> D::V {
        let mut ea = mem.disp;
        if let Some(b) = mem.base {
            ea = self.d.add(ea, self.m.gpr[b as usize]);
        }
        if let Some((i, scale)) = mem.index {
            let idx = self.m.gpr[i as usize];
            let sc = self.d.constant(32, scale as u64);
            let scaled = self.d.shl(idx, sc);
            ea = self.d.add(ea, scaled);
        }
        ea
    }

    /// Reads the ModRM r/m operand (register or checked memory access).
    pub fn read_rm(&mut self, inst: &Inst<D::V>, size: u8) -> Result<D::V, Exception> {
        let mr = inst.modrm.as_ref().expect("instruction has modrm");
        match &mr.mem {
            None => Ok(self.read_reg(mr.rm, size)),
            Some(mem) => {
                let off = self.effective_address(mem);
                translate::mem_read(self.d, self.m, mem.seg, off, size)
            }
        }
    }

    /// Writes the ModRM r/m operand.
    pub fn write_rm(&mut self, inst: &Inst<D::V>, size: u8, val: D::V) -> Result<(), Exception> {
        let mr = inst.modrm.as_ref().expect("instruction has modrm");
        match &mr.mem {
            None => {
                self.write_reg(mr.rm, size, val);
                Ok(())
            }
            Some(mem) => {
                let off = self.effective_address(mem);
                translate::mem_write(self.d, self.m, mem.seg, off, val, size)
            }
        }
    }

    /// Pushes a value of `size` bytes (2 or 4) onto the stack.
    pub fn push(&mut self, val: D::V, size: u8) -> Result<(), Exception> {
        let esp = self.m.gpr[Gpr::Esp as usize];
        let dec = self.d.constant(32, size as u64);
        let new_esp = self.d.sub(esp, dec);
        translate::mem_write(self.d, self.m, Seg::Ss, new_esp, val, size)?;
        self.m.gpr[Gpr::Esp as usize] = new_esp;
        Ok(())
    }

    /// Pops `size` bytes (2 or 4) off the stack.
    pub fn pop(&mut self, size: u8) -> Result<D::V, Exception> {
        let esp = self.m.gpr[Gpr::Esp as usize];
        let val = translate::mem_read(self.d, self.m, Seg::Ss, esp, size)?;
        let inc = self.d.constant(32, size as u64);
        self.m.gpr[Gpr::Esp as usize] = self.d.add(esp, inc);
        Ok(val)
    }

    /// Reads the stack without committing ESP (for multi-pop instructions
    /// that must validate everything before committing, e.g. `iret`).
    pub fn peek_stack(&mut self, slot: u32, size: u8) -> Result<D::V, Exception> {
        let esp = self.m.gpr[Gpr::Esp as usize];
        let off = self.d.constant(32, slot as u64);
        let addr = self.d.add(esp, off);
        translate::mem_read(self.d, self.m, Seg::Ss, addr, size)
    }

    /// Adjusts ESP by a constant.
    pub fn bump_esp(&mut self, delta: i32) {
        let esp = self.m.gpr[Gpr::Esp as usize];
        let dv = self.d.constant(32, delta as u32 as u64);
        self.m.gpr[Gpr::Esp as usize] = self.d.add(esp, dv);
    }

    /// `true` when CPL == 0; privileged instructions require it.
    pub fn at_cpl0(&mut self) -> bool {
        let cpl = self.m.cpl(self.d);
        let zero = self.d.constant(2, 0);
        let eq = self.d.eq(cpl, zero);
        self.d.branch(eq, "CPL == 0")
    }

    /// Loads a segment register from a selector, running all descriptor
    /// checks (through the summary hook, §3.3.2) and maintaining the
    /// accessed bit per quirks.
    pub fn load_segment(&mut self, seg: Seg, sel: D::V, kind: u64) -> Result<(), Exception> {
        let sel = self.d.extract(sel, 15, 0);
        // Null selector: index 0, TI 0.
        let upper = self.d.extract(sel, 15, 2);
        let z = self.d.constant(14, 0);
        let is_null = self.d.eq(upper, z);
        if self.d.branch(is_null, "null selector") {
            if kind != translate::desc_kind::DATA {
                return Err(Exception::Gp(0));
            }
            // Data segments may be loaded null: mark unusable (P = 0).
            let zero_attrs = self.d.constant(attrs::WIDTH, 0);
            let zero32 = self.d.constant(32, 0);
            let s = &mut self.m.segs[seg as usize];
            s.selector = sel;
            s.cache.base = zero32;
            s.cache.limit = zero32;
            s.cache.attrs = zero_attrs;
            return Ok(());
        }
        // Pin the table index (a large-table index, §3.3.2); TI and RPL stay
        // symbolic only through the checks below.
        let idx_ti = self.d.extract(sel, 15, 2);
        let idx_ti = self.d.pick(idx_ti, "selector index") as u16;
        let ti = idx_ti & 1 != 0;
        let index = idx_ti >> 1;
        let err = index << 3; // selector error code (TI/RPL bits cleared)
        if ti {
            // No LDT in the baseline environment.
            return Err(Exception::Gp(err | 0x4));
        }
        // GDT limit check.
        let in_table = translate::selector_in_table(self.d, sel, self.m.gdtr.limit);
        if !self.d.branch(in_table, "selector within GDT limit") {
            return Err(Exception::Gp(err));
        }
        let desc_lin = self.m.gdtr.base.wrapping_add((index as u32) << 3);
        let lo = translate::lin_read(self.d, self.m, desc_lin, 4)?;
        let hi = translate::lin_read(self.d, self.m, desc_lin.wrapping_add(4), 4)?;

        let cpl = self.m.cpl(self.d);
        let kind_v = self.d.constant(2, kind);
        let [fault, base, limit, cache_attrs] =
            translate::descriptor_checks_hooked(self.d, lo, hi, sel, cpl, kind_v);
        let fault = self.d.concretize(fault, "descriptor fault class") as u8;
        match fault {
            0 => {}
            11 => return Err(Exception::Np(err)),
            12 => return Err(Exception::Ss(err)),
            _ => return Err(Exception::Gp(err)),
        }

        // Set the descriptor's accessed bit (type bit 0 = hi bit 8).
        if self.q.set_accessed_bit {
            let acc = self.d.extract(hi, 8, 8);
            if !self.d.branch(acc, "descriptor already accessed") {
                let mask = self.d.constant(32, 1 << 8);
                let new_hi = self.d.or(hi, mask);
                translate::lin_write(self.d, self.m, desc_lin.wrapping_add(4), new_hi, 4)?;
            }
        }

        let s = &mut self.m.segs[seg as usize];
        s.selector = sel;
        s.cache.base = base;
        s.cache.limit = limit;
        s.cache.attrs = cache_attrs;
        Ok(())
    }

    /// Reads a far pointer (offset:selector) from memory in the
    /// quirk-configured order — the `lfs` fetch-order deviation of §6.2.
    pub fn read_far_pointer(
        &mut self,
        seg: Seg,
        off: D::V,
        opsize: u8,
    ) -> Result<(D::V, D::V), Exception> {
        let sel_off = self.d.constant(32, opsize as u64);
        let sel_addr = self.d.add(off, sel_off);
        if self.q.segment_first_far_fetch {
            let sel = translate::mem_read(self.d, self.m, seg, sel_addr, 2)?;
            let offset = translate::mem_read(self.d, self.m, seg, off, opsize)?;
            Ok((offset, sel))
        } else {
            let offset = translate::mem_read(self.d, self.m, seg, off, opsize)?;
            let sel = translate::mem_read(self.d, self.m, seg, sel_addr, 2)?;
            Ok((offset, sel))
        }
    }

    /// Sets EIP from a (possibly symbolic) target, pinning it to a concrete
    /// value — the instruction pointer stays concrete (Fig. 3).
    pub fn set_eip(&mut self, target: D::V) {
        self.m.eip = self.d.pick(target, "branch target") as u32;
    }
}

/// Dispatches one decoded instruction to its implementation.
pub(crate) fn execute<D: Dom>(
    d: &mut D,
    m: &mut Machine<D::V>,
    q: &Quirks,
    inst: &Inst<D::V>,
) -> ExecResult {
    let mut x = Exec { d, m, q: *q };
    let op = inst.class.opcode;
    match op {
        // ALU families.
        0x00..=0x05
        | 0x08..=0x0d
        | 0x10..=0x15
        | 0x18..=0x1d
        | 0x20..=0x25
        | 0x28..=0x2d
        | 0x30..=0x35
        | 0x38..=0x3d => exec_arith::alu_family(&mut x, inst),
        0x80..=0x83 => exec_arith::alu_group(&mut x, inst),
        0x84 | 0x85 | 0xa8 | 0xa9 => exec_arith::test_ops(&mut x, inst),
        0xf6 | 0xf7 => exec_arith::group_f6(&mut x, inst),
        0xfe | 0xff => exec_arith::group_fe_ff(&mut x, inst),
        0x40..=0x4f => exec_arith::inc_dec_reg(&mut x, inst),
        0xc0 | 0xc1 | 0xd0 | 0xd1 | 0xd2 | 0xd3 => exec_arith::shift_group(&mut x, inst),
        0x69 | 0x6b | 0x0faf => exec_arith::imul_2op(&mut x, inst),
        0x0fa4 | 0x0fa5 | 0x0fac | 0x0fad => exec_arith::shld_shrd(&mut x, inst),
        0x0fa3 | 0x0fab | 0x0fb3 | 0x0fbb | 0x0fba => exec_arith::bit_ops(&mut x, inst),
        0x0fbc | 0x0fbd => exec_arith::bsf_bsr(&mut x, inst),
        0x0fb0 | 0x0fb1 => exec_arith::cmpxchg(&mut x, inst),
        0x0fc0 | 0x0fc1 => exec_arith::xadd(&mut x, inst),
        0x0fc8..=0x0fcf => exec_arith::bswap(&mut x, inst),
        0x27 | 0x2f | 0x37 | 0x3f | 0xd4 | 0xd5 => exec_arith::bcd(&mut x, inst),
        0xd6 => exec_arith::salc(&mut x),
        0x98 | 0x99 => exec_arith::sign_extensions(&mut x, inst),
        0x0fb6 | 0x0fb7 | 0x0fbe | 0x0fbf => exec_arith::movzx_movsx(&mut x, inst),
        0x0f90..=0x0f9f => exec_arith::setcc(&mut x, inst),
        0x0f40..=0x0f4f => exec_arith::cmovcc(&mut x, inst),

        // Data movement.
        0x88..=0x8b | 0xa0..=0xa3 | 0xb0..=0xbf | 0xc6 | 0xc7 => {
            exec_data::mov_family(&mut x, inst)
        }
        0x8c | 0x8e => exec_data::mov_sreg(&mut x, inst),
        0x8d => exec_data::lea(&mut x, inst),
        0x86 | 0x87 | 0x90..=0x97 => exec_data::xchg(&mut x, inst),
        0x50..=0x5f | 0x68 | 0x6a => exec_data::push_pop_reg(&mut x, inst),
        0x8f => exec_data::pop_rm(&mut x, inst),
        0x06 | 0x07 | 0x0e | 0x16 | 0x17 | 0x1e | 0x1f | 0x0fa0 | 0x0fa1 | 0x0fa8 | 0x0fa9 => {
            exec_data::push_pop_sreg(&mut x, inst)
        }
        0x60 | 0x61 => exec_data::pusha_popa(&mut x, inst),
        0x9c | 0x9d => exec_data::pushf_popf(&mut x, inst),
        0x9e | 0x9f => exec_data::lahf_sahf(&mut x, inst),
        0xf5 | 0xf8 | 0xf9 | 0xfa | 0xfb | 0xfc | 0xfd => exec_data::flag_ops(&mut x, inst),
        0xd7 => exec_data::xlat(&mut x, inst),
        0xa4..=0xa7 | 0xaa..=0xaf => exec_data::string_ops(&mut x, inst),
        0xc4 | 0xc5 | 0x0fb2 | 0x0fb4 | 0x0fb5 => exec_data::load_far_pointer(&mut x, inst),

        // Control flow.
        0x70..=0x7f | 0x0f80..=0x0f8f => exec_control::jcc(&mut x, inst),
        0xe0..=0xe3 => exec_control::loops(&mut x, inst),
        0xe8 | 0xe9 | 0xeb => exec_control::call_jmp_rel(&mut x, inst),
        0x9a | 0xea => exec_control::far_direct(&mut x, inst),
        0xc2 | 0xc3 => exec_control::ret_near(&mut x, inst),
        0xca | 0xcb => exec_control::ret_far(&mut x, inst),
        0xcf => exec_control::iret(&mut x, inst),
        0xcc | 0xcd | 0xce | 0xf1 => exec_control::int_ops(&mut x, inst),
        0xc8 => exec_control::enter(&mut x, inst),
        0xc9 => exec_control::leave(&mut x, inst),
        0x62 => exec_control::bound(&mut x, inst),
        0x63 => exec_control::arpl(&mut x, inst),

        // System.
        0xf4 => exec_system::hlt(&mut x),
        0x0f20 | 0x0f22 => exec_system::mov_cr(&mut x, inst),
        0x0f00 => exec_system::group_0f00(&mut x, inst),
        0x0f01 => exec_system::group_0f01(&mut x, inst),
        0x0f02 | 0x0f03 => exec_system::lar_lsl(&mut x, inst),
        0x0f06 => exec_system::clts(&mut x),
        0x0f08 | 0x0f09 => exec_system::cache_ops(&mut x),
        0x0f30..=0x0f32 => exec_system::msr_ops(&mut x, inst),
        0x0fa2 => exec_system::cpuid(&mut x),

        _ => Err(Exception::Ud),
    }
}
